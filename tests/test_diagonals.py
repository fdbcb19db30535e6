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
        assert all(d.q == 4 and d.indices is not None for d in letters)
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
            letters[flip] = letters[flip].negate()
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

    def test_canonical_fixes_leading_entry(self):
        word = DiagonalWord((UnimodularDiagonal(np.array([-1.0, 1.0])),))
        canon = word.canonical()
        assert canon.letters[0].phases[0] == 1.0
        assert np.array_equal(canon.letters[0].phases, [1.0, -1.0])

    def test_canonical_complex_lead_exactly_one(self):
        phases = np.exp(2j * np.pi * np.array([0.31, 0.77]))
        canon = DiagonalWord((UnimodularDiagonal(phases),)).canonical()
        assert canon.letters[0].phases[0] == 1.0 + 0.0j


class TestDiagonalHelpers:
    def test_conj_grid_indices(self):
        d = enumerate_phase_diagonals(2, 4, quotient=True)[1]  # (1, i)
        conj = d.conj()
        assert np.array_equal(conj.phases, [1, -1j])
        assert conj.indices == (0, 3)

    def test_negate_roundtrip(self):
        d = enumerate_sign_diagonals(3, quotient=True)[2]
        again = d.negate().negate()
        assert np.array_equal(again.phases, d.phases)
        assert again.indices == d.indices

    def test_matrix_materialization(self):
        d = UnimodularDiagonal(np.array([1.0, -1.0]))
        m = d.matrix()
        assert m.field == "real"
        assert np.array_equal(m.arr, [[1, 0], [0, -1]])

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            UnimodularDiagonal(np.array([1.0, 0.5]))
