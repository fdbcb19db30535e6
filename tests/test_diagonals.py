import json

import numpy as np
import pytest

from absnorm import (
    CapacityError,
    DiagonalWord,
    DimensionError,
    UnimodularDiagonal,
    as_matrix,
    enumerate_phase_diagonals,
    enumerate_sign_diagonals,
    identity_diagonal,
    mu_bounds,
    spectral_norm,
    word_from_json,
    word_product,
    word_to_json,
)
from absnorm.diagonals import _alphabet


class TestSignEnumeration:
    def test_n1_quotient(self):
        out = enumerate_sign_diagonals(1, quotient=True)
        assert len(out) == 1 and np.array_equal(out[0].phases, [1.0])

    def test_n2_quotient_order(self):
        out = enumerate_sign_diagonals(2, quotient=True)
        assert [list(d.phases) for d in out] == [[1, 1], [1, -1]]

    def test_n3_full_count(self):
        assert len(enumerate_sign_diagonals(3)) == 8

    def test_lexicographic_full(self):
        out = enumerate_sign_diagonals(2)
        assert [list(d.phases) for d in out] == [[1, 1], [1, -1], [-1, 1], [-1, -1]]

    def test_quotient_halves_and_no_negated_pairs(self):
        for n in (1, 2, 3, 4):
            full = enumerate_sign_diagonals(n)
            half = enumerate_sign_diagonals(n, quotient=True)
            assert len(full) == 2 * len(half) or n == 0
            seen = {tuple(d.phases) for d in half}
            assert all(tuple(-d.phases) not in seen for d in half)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_sign_diagonals(21)


class TestPhaseEnumeration:
    def test_q2_recovers_signs(self):
        signs = enumerate_sign_diagonals(2, quotient=True)
        phases = enumerate_phase_diagonals(2, 2, quotient=True)
        assert len(phases) == 2
        for s, p in zip(signs, phases):
            assert np.array_equal(s.phases, p.phases)

    def test_q4_second_entries(self):
        out = enumerate_phase_diagonals(2, 4, quotient=True)
        assert len(out) == 4
        assert [d.phases[1] for d in out] == [1, 1j, -1, -1j]
        assert all(d.phases[0] == 1 for d in out)

    def test_n1_any_q(self):
        for q in (2, 4, 8):
            out = enumerate_phase_diagonals(1, q, quotient=True)
            assert len(out) == 1 and out[0].phases[0] == 1

    def test_quotient_factor_q(self):
        full = enumerate_phase_diagonals(2, 4)
        quot = enumerate_phase_diagonals(2, 4, quotient=True)
        assert len(full) == 4 * len(quot)

    def test_odd_q_rejected(self):
        with pytest.raises(ValueError):
            enumerate_phase_diagonals(2, 3)

    @pytest.mark.parametrize("q", [2.0, 4.5, True, None])
    def test_non_integer_q_rejected(self, q):
        with pytest.raises(ValueError, match="grid order"):
            enumerate_phase_diagonals(2, q)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, 0])
    def test_non_integer_dimension_rejected(self, n):
        with pytest.raises(DimensionError, match="dimension"):
            enumerate_sign_diagonals(n)
        with pytest.raises(DimensionError, match="dimension"):
            enumerate_phase_diagonals(n, 4)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_phase_diagonals(8, 12)

    def test_exact_unit_modulus(self):
        for d in enumerate_phase_diagonals(2, 8, quotient=True):
            assert np.all(np.abs(np.abs(d.phases) - 1) < 1e-15)


class TestIntegerAlphabet:
    @pytest.mark.parametrize("quotient", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_enumerations_stack_to_alphabet(self, n, quotient):
        cases = [(None, enumerate_sign_diagonals(n, quotient=quotient))]
        cases += [(q, enumerate_phase_diagonals(n, q, quotient=quotient)) for q in (2, 4, 6)]
        for q, letters in cases:
            exponents, phases = _alphabet(n, q, quotient)
            stacked = np.stack([d.phases for d in letters])
            indices = np.array([d.indices for d in letters])
            assert stacked.dtype == phases.dtype and np.array_equal(stacked, phases)
            assert indices.dtype == exponents.dtype and np.array_equal(indices, exponents)

    def test_grid_witness_serializes_exponents(self):
        a = np.array([[1.0 + 0.5j, 1.0], [1.0j, -1.0]])
        report = mu_bounds(a, max_depth=2, grid_q=4, use_shortcut=False)
        letters = report.lower_witness.letters
        assert all(d.indices is not None for d in letters)
        assert word_to_json(report.lower_witness) == [list(d.indices) for d in letters]


class TestWordProduct:
    def test_empty_word_is_a(self):
        a = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert word_product(a, DiagonalWord(())) == a

    def test_identity_matrix_terminal_gives_letter_product(self):
        rng = np.random.default_rng(0)
        letters = []
        expected = np.ones(3)
        for _ in range(4):
            s = rng.choice([-1.0, 1.0], size=3)
            letters.append(UnimodularDiagonal(s))
            expected = expected * s
        got = word_product(np.eye(3), DiagonalWord(tuple(letters)), terminal=True)
        assert np.allclose(got.arr, np.diag(expected))

    def test_interior_vs_manual(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        d1 = UnimodularDiagonal(rng.choice([-1.0, 1.0], 3))
        d2 = UnimodularDiagonal(rng.choice([-1.0, 1.0], 3))
        got = word_product(a, DiagonalWord((d1, d2)))
        manual = a @ np.diag(d1.phases) @ a @ np.diag(d2.phases) @ a
        assert np.allclose(got.arr, manual, atol=1e-13)

    def test_terminal_vs_manual(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2))
        d1 = UnimodularDiagonal(np.array([1.0, -1.0]))
        got = word_product(a, DiagonalWord((d1,)), terminal=True)
        assert np.allclose(got.arr, a @ np.diag([1.0, -1.0]))

    def test_concatenation_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            k = int(rng.integers(2, 6))
            letters = tuple(
                UnimodularDiagonal(rng.choice([-1.0, 1.0], n)) for _ in range(k)
            )
            split = int(rng.integers(1, k))
            whole = word_product(a, DiagonalWord(letters), terminal=True)
            left = word_product(a, DiagonalWord(letters[:split]), terminal=True)
            right = word_product(a, DiagonalWord(letters[split:]), terminal=True)
            assert np.allclose(whole.arr, left.arr @ right.arr, atol=1e-12)

    def test_norm_invariant_under_letter_negation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a = rng.standard_normal((n, n))
            letters = [
                UnimodularDiagonal(rng.choice([-1.0, 1.0], n)) for _ in range(3)
            ]
            base = spectral_norm(word_product(a, DiagonalWord(tuple(letters))))
            flip = int(rng.integers(0, 3))
            letters[flip] = UnimodularDiagonal(-letters[flip].phases)
            flipped = spectral_norm(word_product(a, DiagonalWord(tuple(letters))))
            assert flipped == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            word_product(np.eye(2), DiagonalWord((identity_diagonal(3),)))


class TestWordSerialization:
    def test_real_round_trip(self):
        word = DiagonalWord(
            (
                UnimodularDiagonal(np.array([1.0, -1.0])),
                UnimodularDiagonal(np.array([1.0, 1.0])),
            )
        )
        data = word_to_json(word)
        assert data == [[1, -1], [1, 1]]
        again = word_from_json(data)
        assert all(
            np.array_equal(a.phases, b.phases)
            for a, b in zip(again.letters, word.letters)
        )

    def test_grid_round_trip(self):
        letters = enumerate_phase_diagonals(2, 4, quotient=True)
        word = DiagonalWord((letters[1], letters[3]))
        data = word_to_json(word)
        assert data == [[0, 1], [0, 3]]
        again = word_from_json(data, grid_q=4)
        assert all(
            np.array_equal(a.phases, b.phases)
            for a, b in zip(again.letters, word.letters)
        )

    def test_free_phase_round_trip(self):
        phases = np.exp(2j * np.pi * np.array([0.0, 0.237]))
        word = DiagonalWord((UnimodularDiagonal(phases),))
        data = word_to_json(word)
        again = word_from_json(data)
        assert np.allclose(again.letters[0].phases, phases, atol=1e-15)

    def test_round_trip_keeps_letters_as_given(self):
        # Leads other than +1 survive: word_to_json writes each letter as given.
        rng = np.random.default_rng(6)
        free = [UnimodularDiagonal(np.exp(2j * np.pi * rng.random(3))) for _ in range(3)]
        free.append(UnimodularDiagonal(np.array([complex(-1.0, -0.0), 1j, -1j])))
        for letters, grid_q in [
            (enumerate_sign_diagonals(3), None),
            (enumerate_phase_diagonals(2, 4), 4),
            (enumerate_phase_diagonals(2, 8), 8),
            (free, None),
        ]:
            assert any(d.phases[0] != 1 for d in letters)
            word = DiagonalWord(tuple(letters))
            again = word_from_json(json.loads(json.dumps(word_to_json(word))), grid_q)
            assert again.k == word.k
            for got, d in zip(again.letters, word.letters):
                assert got.phases.dtype == d.phases.dtype
                assert got.phases.tobytes() == d.phases.tobytes()
                if grid_q is not None:  # a sign letter is written from its phases alone
                    assert got.indices == d.indices


class TestDiagonalHelpers:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            UnimodularDiagonal(np.array([1.0, 0.5]))

    @staticmethod
    def _accepted(phases):
        """The checks as np.allclose wrote them: modulus within 1e-12, real entries exactly +-1."""
        phases = np.asarray(phases)
        if not np.allclose(np.abs(phases), 1.0, rtol=0, atol=1e-12):
            return False
        return bool(np.iscomplexobj(phases) or np.all(np.abs(phases) == 1.0))

    def test_modulus_check_matches_allclose(self):
        # The one-reduction check accepts and rejects what np.allclose did:
        # non-finite phases, moduli on both sides of 1e-12, inexact real signs.
        rng = np.random.default_rng(8)
        turn = np.exp(2j * np.pi * rng.random(3))
        cases = [
            np.array([1.0, np.nan]), np.array([np.inf, 1.0]), np.array([-np.inf]),
            np.array([1.0, complex(np.nan, 0.0)]), np.array([1j, complex(0.0, np.inf)]),
            np.array([1.0, 1.0 + 2e-12]), np.array([1.0 - 2e-12, -1.0]),
            np.array([1.0, -1.0 - 5e-13]), turn * (1 + 2e-12), turn * (1 - 5e-13),
            np.array([1.0 + 5e-13 + 0j, 1j]), np.array([1.0, -1.0]), np.array([True, True]),
            np.array([1, -1]), np.array([1.0, 0.5]), np.array([0.0]),
        ]
        for off in (-3e-12, -1.1e-12, -1e-12, -9e-13, 0.0, 9e-13, 1e-12, 1.1e-12, 3e-12):
            cases += [np.array([1.0, -(1.0 + off)]), turn * (1 + off), np.array([1j * (1 + off)])]
        verdicts = set()
        for phases in cases:
            want = self._accepted(phases)
            try:
                UnimodularDiagonal(phases)
                got = True
            except ValueError:
                got = False
            assert got == want, phases
            verdicts.add(want)
        assert verdicts == {True, False}
        with pytest.raises(ValueError, match="modulus 1"):
            UnimodularDiagonal(np.array([1.0 + 2e-12 + 0j, 1.0]))
        assert UnimodularDiagonal(np.array([1.0 + 5e-13 + 0j, 1.0])).n == 2
        with pytest.raises(ValueError, match="exactly"):
            UnimodularDiagonal(np.array([1.0, 1.0 + 5e-13]))

    def test_indices_are_python_ints(self):
        # bool, int, numpy int64 and float indices all become the tuple of
        # Python ints that int() of each entry gives.
        cases = ([True, False, True], np.array([False, True, True]), (0, 1, 3), np.array([2, 0, 1]),
                 [np.int64(3), np.int64(0), 1], [0.0, 1.9, 3.0])
        for indices in cases:
            d = UnimodularDiagonal(np.array([1.0, 1j, -1.0]), indices=indices)
            assert d.indices == tuple(int(i) for i in indices)
            assert all(type(i) is int for i in d.indices)
        assert UnimodularDiagonal(np.array([1.0]), indices=[]).indices == ()
        assert UnimodularDiagonal(np.array([1.0])).indices is None

    def test_equality_and_hash_follow_phases(self):
        real = UnimodularDiagonal(np.array([1.0, -1.0]), indices=(0, 1))
        same = UnimodularDiagonal(np.array([1.0 + 0j, -1.0 + 0j]))
        assert real == same and hash(real) == hash(same)
        assert hash(real) == hash(np.array([1.0, -1.0], dtype=np.complex128).tobytes())
        assert real != UnimodularDiagonal(np.array([1.0, 1.0]))
        assert UnimodularDiagonal(np.array([1.0, 1j]), indices=(0, 1)) == UnimodularDiagonal(
            np.array([1.0, 1j])
        )
