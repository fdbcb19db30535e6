import itertools
from collections import deque

import numpy as np
import pytest

from absnorm import (
    EquivalenceWitness,
    InconsistencyCertificate,
    Matrix,
    UnimodularDiagonal,
    as_matrix,
    is_nonnegative,
    sign_equivalent_to_abs,
)
from absnorm.matrices import REAL
from absnorm.signequiv import _cycle_phase, _times_conj

SHARP = np.array([[1.0, 1.0], [-1.0, -1.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


def reconstruct(witness, a):
    d = witness.left.phases
    e = witness.right.phases
    return d[:, None] * np.abs(a) * e[None, :]


def brute_force_equivalent(a):
    """Exhaustive search over all sign-diagonal pairs (real matrices)."""
    n = a.shape[0]
    absa = np.abs(a)
    for d in itertools.product((1.0, -1.0), repeat=n):
        for e in itertools.product((1.0, -1.0), repeat=n):
            if np.array_equal(np.outer(d, e) * absa, a):
                return True
    return False


class TestExamples:
    def test_sharp_matrix_witness(self):
        result = sign_equivalent_to_abs(SHARP)
        assert isinstance(result, EquivalenceWitness)
        assert np.array_equal(result.left.phases, [1.0, -1.0])
        assert np.array_equal(result.right.phases, [1.0, 1.0])
        assert np.array_equal(reconstruct(result, SHARP), SHARP)

    def test_nonnegative_identity_witness(self):
        a = np.array([[0.5, 2.0], [0.0, 1.0]])
        result = sign_equivalent_to_abs(a)
        assert isinstance(result, EquivalenceWitness)
        assert np.array_equal(result.left.phases, [1.0, 1.0])
        assert np.array_equal(result.right.phases, [1.0, 1.0])

    def test_hadamard_cycle(self):
        result = sign_equivalent_to_abs(HADAMARD)
        assert isinstance(result, InconsistencyCertificate)
        assert result.cycle == (("r", 0), ("c", 0), ("r", 1), ("c", 1))
        assert result.phase_product == pytest.approx(-1.0)
        # The DERIVED claim: no assignment among all 16 works.
        assert not brute_force_equivalent(HADAMARD)

    def test_cycle_visits_nonzero_entries(self):
        result = sign_equivalent_to_abs(HADAMARD)
        verts = list(result.cycle)
        for s in range(0, len(verts), 2):
            _, r = verts[s]
            _, c = verts[s + 1]
            _, r_next = verts[(s + 2) % len(verts)]
            assert HADAMARD[r, c] != 0
            assert HADAMARD[r_next, c] != 0


class TestSoundness:
    def test_planted_real(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            b = np.abs(rng.standard_normal((n, n)))
            b[rng.random((n, n)) < 0.3] = 0.0
            d = rng.choice([-1.0, 1.0], n)
            e = rng.choice([-1.0, 1.0], n)
            a = np.outer(d, e) * b
            result = sign_equivalent_to_abs(a)
            assert isinstance(result, EquivalenceWitness)
            assert np.max(np.abs(reconstruct(result, a) - a)) == 0.0

    def test_planted_complex(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            b = np.abs(rng.standard_normal((n, n)))
            b[rng.random((n, n)) < 0.3] = 0.0
            d = np.exp(2j * np.pi * rng.random(n))
            e = np.exp(2j * np.pi * rng.random(n))
            a = d[:, None] * b * e[None, :]
            result = sign_equivalent_to_abs(Matrix("complex", a))
            assert isinstance(result, EquivalenceWitness)
            top = np.max(np.abs(a)) or 1.0
            assert np.max(np.abs(reconstruct(result, a) - a)) <= 1e-9 * top

    def test_witness_scaling_is_unimodular(self):
        result = sign_equivalent_to_abs(SHARP)
        assert np.all(np.abs(np.abs(result.left.phases) - 1) < 1e-12)
        assert np.all(np.abs(np.abs(result.right.phases) - 1) < 1e-12)

    def test_complex_inconsistency_cycle(self):
        theta = 0.7
        a = np.array([[1.0, 1.0], [1.0, np.exp(1j * theta)]])
        result = sign_equivalent_to_abs(a)
        assert isinstance(result, InconsistencyCertificate)
        assert abs(result.phase_product - np.exp(1j * theta)) < 1e-12

    def test_complex_phase_within_tolerance_accepted(self):
        # Entry phases perturbed well below tol still factor.
        a = np.array([[1.0, 1.0], [1.0, 1.0 * np.exp(1e-12j)]])
        result = sign_equivalent_to_abs(a, tol=1e-6)
        assert isinstance(result, EquivalenceWitness)


class TestInvariance:
    def test_verdict_stable_under_diagonal_scaling(self):
        rng = np.random.default_rng(2)
        for base in (SHARP, HADAMARD):
            verdict = isinstance(sign_equivalent_to_abs(base), EquivalenceWitness)
            for _ in range(20):
                d1 = rng.choice([-1.0, 1.0], 2)
                d2 = rng.choice([-1.0, 1.0], 2)
                scaled = d1[:, None] * base * d2[None, :]
                assert (
                    isinstance(sign_equivalent_to_abs(scaled), EquivalenceWitness)
                    == verdict
                )

    def test_disconnected_components_resolved_independently(self):
        a = np.zeros((4, 4))
        a[0, 1] = -3.0
        a[2, 3] = 5.0
        result = sign_equivalent_to_abs(a)
        assert isinstance(result, EquivalenceWitness)
        assert np.array_equal(reconstruct(result, a), a)

    def test_zero_matrix(self):
        # Every vertex is support-free, so every phase is +1.
        for a in (np.zeros((3, 3)), np.zeros((1, 1)), np.zeros((3, 3), complex)):
            result = sign_equivalent_to_abs(a)
            assert isinstance(result, EquivalenceWitness)
            assert np.array_equal(result.left.phases, np.ones(len(a)))
            assert np.array_equal(result.right.phases, np.ones(len(a)))


class TestIsNonnegative:
    def test_positive(self):
        assert is_nonnegative([[1, 1], [1, 1]])

    def test_mixed_signs(self):
        assert not is_nonnegative([[1, -1], [0, 2]])

    def test_complex_with_zero_imag(self):
        assert is_nonnegative(Matrix("complex", np.array([[1 + 0j]])))
        assert not is_nonnegative(np.array([[1j]]))


class TestValidation:
    def test_tol_range(self):
        with pytest.raises(ValueError):
            sign_equivalent_to_abs(SHARP, tol=0.0)
        with pytest.raises(ValueError):
            sign_equivalent_to_abs(SHARP, tol=1e-3)


def _reference_sign_equivalent(a, tol=1e-9):
    """The edge-at-a-time queue walk: the oracle for the level-synchronous one."""
    m = as_matrix(a)
    n, arr = m.n, m.arr
    support = arr != 0
    real_case = m.field == REAL
    with np.errstate(invalid="ignore", divide="ignore"):
        phases = np.where(support, arr / np.abs(arr), 1).astype(np.complex128)
    scalar = np.zeros(2 * n, dtype=np.complex128)
    visited = np.zeros(2 * n, dtype=bool)
    parent = np.full(2 * n, -1, dtype=np.int64)
    row_support = [np.nonzero(support[i])[0] for i in range(n)]
    col_support = [np.nonzero(support[:, j])[0] for j in range(n)]

    def tree_path(v):
        path = [v]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        return path

    def conflict_cycle(u, v):
        pu, pv = tree_path(u), tree_path(v)
        in_pu = {x: i for i, x in enumerate(pu)}
        join = next(i for i, x in enumerate(pv) if x in in_pu)
        cycle_vertices = pu[: in_pu[pv[join]]] + list(reversed(pv[: join + 1]))
        rows = [i for i, x in enumerate(cycle_vertices) if x < n]
        start = min(rows, key=lambda i: cycle_vertices[i])
        cycle_vertices = cycle_vertices[start:] + cycle_vertices[:start]
        tagged = tuple(("r", int(x)) if x < n else ("c", int(x - n)) for x in cycle_vertices)
        return InconsistencyCertificate(tagged, complex(_cycle_phase(tagged, phases)))

    for root in range(2 * n):
        if visited[root]:
            continue
        scalar[root] = 1.0
        visited[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if u < n:
                neighbors = [(n + j, phases[u, j]) for j in row_support[u]]
            else:
                neighbors = [(i, phases[i, u - n]) for i in col_support[u - n]]
            for v, phi in neighbors:
                required = phi * np.conj(scalar[u])
                if not visited[v]:
                    visited[v] = True
                    scalar[v] = required
                    parent[v] = u
                    queue.append(v)
                else:
                    if real_case:
                        ok = scalar[v].real == required.real
                    else:
                        ok = abs(scalar[v] - required) <= tol
                    if not ok:
                        return conflict_cycle(u, v)
    d, e = scalar[:n], scalar[n:]
    if real_case:
        return EquivalenceWitness(UnimodularDiagonal(d.real), UnimodularDiagonal(e.real))
    return EquivalenceWitness(UnimodularDiagonal(d), UnimodularDiagonal(e))


def assert_same_result(got, want):
    assert type(got) is type(want)
    if isinstance(want, InconsistencyCertificate):
        assert got.cycle == want.cycle
        assert got.phase_product == want.phase_product
    else:
        # tobytes so that a -0.0 imaginary part must match too.
        assert got.left.phases.tobytes() == want.left.phases.tobytes()
        assert got.right.phases.tobytes() == want.right.phases.tobytes()
        assert (got.left.indices, got.right.indices) == (want.left.indices, want.right.indices)


def _small_oracle_inputs():
    """``(a, tol)`` for n = 1..8: real and complex, planted D1 B D2 or random
    phases, support densities 0..1 with some rows and columns emptied."""
    rng = np.random.default_rng(100)

    def signs(*shape):
        return rng.choice([-1.0, 1.0], shape)

    def turns(*shape):
        return np.exp(2j * np.pi * rng.random(shape))

    for n in range(1, 9):
        for density in np.linspace(0.0, 1.0, 11):
            for _ in range(9):
                b = np.abs(rng.standard_normal((n, n))) * (rng.random((n, n)) < density)
                b[rng.random(n) < 0.15] = 0.0
                b[:, rng.random(n) < 0.15] = 0.0
                yield signs(n)[:, None] * b * signs(n)[None, :], 1e-9
                yield b * signs(n, n), 1e-9
                yield turns(n)[:, None] * b * turns(n)[None, :], 1e-9
                yield b * turns(n, n), 1e-9


def _perturbed_oracle_inputs():
    """Planted complex inputs whose entry phases move by 0.5 tol or 2 tol, so
    that checks land on both sides of tol, including a tree edge read back."""
    rng = np.random.default_rng(101)
    for tol in (1e-9, 1e-300):
        for factor in (0.5, 2.0):
            for n in range(1, 9):
                for _ in range(12):
                    b = np.abs(rng.standard_normal((n, n))) * (rng.random((n, n)) < 0.7)
                    d = np.exp(2j * np.pi * rng.random(n))
                    e = np.exp(2j * np.pi * rng.random(n))
                    nudge = np.exp(1j * factor * tol * rng.choice([-1.0, 1.0], (n, n)))
                    yield d[:, None] * b * e[None, :] * nudge, tol


def _sparse_irreducible_pair(seed, n=200):
    """A signed sparse irreducible matrix with a positive leading 2x2 block,
    and the copy with entry (0, 0) flipped, which breaks a 4-cycle."""
    rng = np.random.default_rng(seed)
    b = rng.random((n, n)) * (rng.random((n, n)) < 4.0 / n)
    b += np.roll(np.eye(n), 1, axis=1) * (rng.random(n) + 0.5)
    b[:2, :2] = rng.random((2, 2)) + 0.5
    signed = rng.choice([-1.0, 1.0], n)[:, None] * b * rng.choice([-1.0, 1.0], n)[None, :]
    refuted = signed.copy()
    refuted[0, 0] = -refuted[0, 0]
    return signed, refuted


class TestLevelWalkOracle:
    def test_product_formula_matches_scalar_arithmetic(self):
        # The level walk's scalars and tol checks are bitwise those of
        # numpy's complex scalar product and modulus.
        rng = np.random.default_rng(102)
        p = np.exp(2j * np.pi * rng.random(2000))
        s = np.exp(2j * np.pi * rng.random(2000))
        p[:8] = [1, -1, 1j, -1j, complex(1, -0.0), complex(-1, -0.0), complex(-0.0, 1), 1]
        s[:8] = [complex(1, -0.0), 1, -1j, 1j, -1, complex(-0.0, -1), 1, complex(-1, 0.0)]
        want = np.array([x * np.conj(y) for x, y in zip(p, s)])
        assert _times_conj(p, s).tobytes() == want.tobytes()
        diff = want - want[::-1] * (1 + 1e-9)
        moduli = np.array([abs(x) for x in diff])
        assert np.hypot(diff.real, diff.imag).tobytes() == moduli.tobytes()

    def test_matches_queue_walk(self):
        inputs = [*_small_oracle_inputs(), *_perturbed_oracle_inputs()]
        for seed in (7, 8):
            signed, refuted = _sparse_irreducible_pair(seed)
            inputs += [(signed, 1e-9), (refuted, 1e-9)]
        assert len(inputs) >= 3000
        kinds = set()
        for a, tol in inputs:
            got = sign_equivalent_to_abs(a, tol=tol)
            assert_same_result(got, _reference_sign_equivalent(a, tol=tol))
            kinds.add((type(got), len(getattr(got, "cycle", ()))))
        # Both verdicts occur, and so do 2-cycles: a tree edge read back
        # outside a tol of 1e-300.
        assert (EquivalenceWitness, 0) in kinds
        assert (InconsistencyCertificate, 2) in kinds
        assert (InconsistencyCertificate, 4) in kinds

    def test_tol_boundary_matches_queue_walk(self):
        # At the smallest tol the queue walk accepts, and one float below
        # it, the verdicts agree: the moduli are rounded alike.
        def accepts(a, tol):
            return isinstance(_reference_sign_equivalent(a, tol=tol), EquivalenceWitness)

        for theta in np.random.default_rng(104).uniform(1e-8, 1e-6, 40):
            a = np.array([[1.0, 1.0], [1.0, np.exp(1j * theta)]])
            lo, hi = 0, int(np.float64(1e-6).view(np.int64))  # positive floats order as ints
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if accepts(a, float(np.int64(mid).view(np.float64))):
                    hi = mid
                else:
                    lo = mid
            for bits in (lo, hi):
                tol = float(np.int64(bits).view(np.float64))
                assert_same_result(
                    sign_equivalent_to_abs(a, tol=tol), _reference_sign_equivalent(a, tol=tol)
                )


class TestLevelWalkEdgeCases:
    def test_single_column_support(self):
        a = np.zeros((4, 4))
        a[:, 2] = [0.0, -2.0, 3.0, -0.5]
        result = sign_equivalent_to_abs(a)
        assert isinstance(result, EquivalenceWitness)
        # Row 1 is the first with support: its scalar is 1, so column 2 is -1.
        assert np.array_equal(result.left.phases, [1.0, 1.0, -1.0, 1.0])
        assert np.array_equal(result.right.phases, [1.0, 1.0, -1.0, 1.0])
        assert np.array_equal(reconstruct(result, a), a)

    def test_cycle_in_second_component(self):
        # Rows/columns 0-1 factor; rows/columns 2-4 hold a 6-cycle of odd sign.
        a = np.zeros((5, 5))
        a[:2, :2] = SHARP
        a[2, 3], a[3, 3], a[3, 4], a[4, 4], a[4, 2], a[2, 2] = 1, 1, 1, 1, 1, -1
        result = sign_equivalent_to_abs(a)
        assert isinstance(result, InconsistencyCertificate)
        assert result.cycle[0] == ("r", 2)
        assert {i for _, i in result.cycle} == {2, 3, 4}
        assert len(result.cycle) == 6
        assert result.phase_product == pytest.approx(-1.0)
        assert_same_result(result, _reference_sign_equivalent(a))

    def test_bidiagonal_path_of_400_levels(self):
        rng = np.random.default_rng(103)
        n = 200
        a = np.diag(rng.choice([-1.0, 1.0], n)) + np.diag(rng.choice([-2.0, 2.0], n - 1), 1)
        result = sign_equivalent_to_abs(a)
        assert isinstance(result, EquivalenceWitness)
        assert np.array_equal(reconstruct(result, a), a)
        assert_same_result(result, _reference_sign_equivalent(a))
        # A corner entry closes the path into one 400-vertex cycle; with the
        # sign that makes its product -1 it is the conflict found.
        closing = -np.prod(np.sign(np.diag(a))) * np.prod(np.sign(np.diag(a, 1)))
        a[n - 1, 0] = closing
        result = sign_equivalent_to_abs(a)
        assert isinstance(result, InconsistencyCertificate)
        assert len(result.cycle) == 2 * n
        assert result.phase_product == pytest.approx(-1.0)
        assert_same_result(result, _reference_sign_equivalent(a))
