import itertools
import json

import numpy as np
import pytest

from absnorm import (
    CapacityError,
    DiagonalWord,
    GrowthQuery,
    as_matrix,
    bounds_report_from_json,
    bounds_report_to_json,
    check_growth_condition,
    entrywise_abs,
    mu_bounds,
    mu_lower_bound,
    mu_upper_bound,
    enumerate_phase_diagonals,
    enumerate_sign_diagonals,
    spectral_norm,
    spectral_radius,
    word_product,
    word_to_json,
)

SHARP = np.array([[1.0, 1.0], [-1.0, -1.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])
ROOT2 = float(np.sqrt(2.0))
GROWING_AT_21 = np.array(
    [[1.4483, 0.2202, 1.1592], [-0.4793, 0.9381, -0.6015], [-0.1574, 2.4864, 0.7671]]
)


def sign_letters(n):
    """Quotient sign diagonals as plain vectors, lexicographic."""
    return [np.array((1.0,) + t) for t in itertools.product((1.0, -1.0), repeat=n - 1)]


def exhaustive_upper(a, max_depth):
    """Independent oracle: plain fold-loop level enumeration, no pruning."""
    a = np.asarray(a, dtype=float)
    letters = sign_letters(a.shape[0])
    best = np.linalg.norm(a, 2)
    level = [a]
    for depth in range(2, max_depth + 1):
        # extend each interior product on the right: p @ diag(d) @ a
        level = [(p * d[None, :]) @ a for p in level for d in letters]
        best = min(best, max(np.linalg.norm(q, 2) for q in level) ** (1.0 / depth))
    return best


def exhaustive_lower(a, max_depth):
    a = np.asarray(a, dtype=float)
    letters = sign_letters(a.shape[0])
    best = 0.0
    level = [a * d[None, :] for d in letters]
    for depth in range(1, max_depth + 1):
        if depth > 1:
            level = [p @ (a * d[None, :]) for p in level for d in letters]
        best = max(best, max(np.abs(np.linalg.eigvals(q)).max() for q in level) ** (1.0 / depth))
    return best


class TestLowerBound:
    def test_sharp_matrix(self):
        value, word = mu_lower_bound(SHARP, max_depth=1)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert word_to_json(word) == [[1, -1]]

    def test_nonnegative_identity_word(self):
        rng = np.random.default_rng(0)
        b = rng.random((3, 3))
        value, word = mu_lower_bound(b, max_depth=2)
        assert value == pytest.approx(spectral_radius(b), rel=1e-10)
        assert word_to_json(word) == [[1, 1, 1]]

    def test_hadamard_identity_word(self):
        value, word = mu_lower_bound(HADAMARD, max_depth=1)
        assert value == pytest.approx(ROOT2, abs=1e-12)
        assert word_to_json(word) == [[1, 1]]

    def test_witness_product_attains_value(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            value, word = mu_lower_bound(a, max_depth=3)
            prod = word_product(a, word, terminal=True)
            assert spectral_radius(prod) ** (1.0 / word.k) == pytest.approx(
                value, rel=1e-10
            )

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((2, 2))
            value, _ = mu_lower_bound(a, max_depth=4)
            assert value == pytest.approx(exhaustive_lower(a, 4), rel=1e-12)


class TestUpperBound:
    def test_sharp_matrix_depth1(self):
        assert mu_upper_bound(SHARP, max_depth=1) == pytest.approx(2.0, abs=1e-12)

    def test_hadamard_depth1(self):
        assert mu_upper_bound(HADAMARD, max_depth=1) == pytest.approx(ROOT2, abs=1e-12)

    def test_zero_matrix(self):
        assert mu_upper_bound(np.zeros((2, 2)), max_depth=3) == 0.0

    def test_hadamard_products_all_orthogonal_scaled(self):
        # Oracle for the strict-gap fixture: every product of k factors
        # A*D has 2-norm exactly 2^(k/2), since A/sqrt(2) is orthogonal
        # and diagonal signs preserve orthogonality.
        letters = sign_letters(2)
        level = [HADAMARD]
        for depth in range(2, 7):
            level = [(p * d[None, :]) @ HADAMARD for p in level for d in letters]
            for q in level:
                assert np.linalg.norm(q, 2) == pytest.approx(2 ** (depth / 2), rel=1e-12)

    def test_pruned_matches_exhaustive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            a = rng.standard_normal((n, n))
            exhaustive = mu_upper_bound(a, max_depth=5, prune_delta=0.0)
            assert exhaustive == pytest.approx(exhaustive_upper(a, 5), rel=1e-12)
            pruned = mu_upper_bound(a, max_depth=5, prune_delta=1e-3)
            lower, _ = mu_lower_bound(a, max_depth=5)
            assert pruned >= lower - 1e-12
            assert pruned == exhaustive

    def test_quotient_matches_full(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            n = int(rng.integers(2, 4))
            a = rng.standard_normal((n, n))
            for depth in (1, 3, 5):
                quot = mu_upper_bound(a, max_depth=depth, prune_delta=0.0)
                full = mu_upper_bound(a, max_depth=depth, prune_delta=0.0, quotient=False)
                assert quot == pytest.approx(full, abs=1e-12, rel=1e-12)
            lq, _ = mu_lower_bound(a, max_depth=3)
            lf, _ = mu_lower_bound(a, max_depth=3, quotient=False)
            assert lq == pytest.approx(lf, abs=1e-12, rel=1e-12)

    def test_complex_grid_quotient_matches_full(self):
        rng = np.random.default_rng(15)
        for _ in range(4):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for depth in (1, 2, 3):
                quot = mu_upper_bound(a, max_depth=depth, grid_q=4, prune_delta=0.0)
                full = mu_upper_bound(
                    a, max_depth=depth, grid_q=4, prune_delta=0.0, quotient=False
                )
                assert quot == pytest.approx(full, abs=1e-12, rel=1e-12)
            lq, _ = mu_lower_bound(a, max_depth=2, grid_q=4)
            lf, _ = mu_lower_bound(a, max_depth=2, grid_q=4, quotient=False)
            assert lq == pytest.approx(lf, abs=1e-12, rel=1e-12)

    def test_trailing_diagonal_reduction(self):
        # Appending any terminal diagonal cannot change a product's 2-norm.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        letters = sign_letters(3)
        prods = [(a * d1[None, :]) @ a for d1 in letters]
        for p in prods:
            base = np.linalg.norm(p, 2)
            for d in letters:
                assert np.linalg.norm(p * d[None, :], 2) == pytest.approx(base, rel=1e-12)
                x = rng.standard_normal(3)
                x /= np.linalg.norm(x)
                assert np.linalg.norm((p * d[None, :]) @ x) <= base * (1 + 1e-12)


class TestMuBounds:
    def test_sharp_shortcut(self):
        report = mu_bounds(SHARP, max_depth=1)
        assert report.shortcut == "sign_equivalent"
        assert report.exact
        assert report.lower == pytest.approx(2.0, abs=1e-9)
        assert report.upper == pytest.approx(2.0, abs=1e-9)
        assert report.nodes_visited == 0
        prod = word_product(SHARP, report.lower_witness, terminal=True)
        assert spectral_radius(prod) == pytest.approx(2.0, abs=1e-9)

    def test_sharp_generic(self):
        report = mu_bounds(SHARP, max_depth=1, use_shortcut=False)
        assert report.shortcut == "none"
        assert report.exact
        assert report.lower == pytest.approx(2.0, abs=1e-9)
        assert report.upper == pytest.approx(2.0, abs=1e-9)

    def test_hadamard_strict_gap(self):
        report = mu_bounds(HADAMARD, max_depth=1)
        assert report.shortcut == "none"
        assert report.exact
        assert report.lower == pytest.approx(ROOT2, abs=1e-9)
        assert report.upper == pytest.approx(ROOT2, abs=1e-9)
        assert report.upper < spectral_radius(entrywise_abs(HADAMARD)) - 0.5

    def test_nonnegative_shortcut(self):
        rng = np.random.default_rng(6)
        b = rng.random((4, 4))
        report = mu_bounds(b, max_depth=3)
        assert report.shortcut == "nonnegative"
        assert report.exact
        assert report.lower == pytest.approx(spectral_radius(b), abs=1e-8)

    def test_generic_engine_agrees_with_shortcut_on_planted_equivalence(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            b = np.abs(rng.standard_normal((n, n)))
            d = rng.choice([-1.0, 1.0], n)
            e = rng.choice([-1.0, 1.0], n)
            a = d[:, None] * b * e[None, :]
            fast = mu_bounds(a, max_depth=2)
            slow = mu_bounds(a, max_depth=2, use_shortcut=False)
            assert fast.shortcut == "sign_equivalent"
            assert slow.shortcut == "none"
            # The rho(|A|) cap pinches the generic interval: the depth-1
            # witness word already attains rho(|A|) from below.
            assert slow.exact
            assert slow.lower == pytest.approx(fast.lower, abs=1e-8)
            assert slow.upper == pytest.approx(fast.upper, abs=1e-8)

    def test_sandwich_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a = rng.standard_normal((n, n))
            report = mu_bounds(a, max_depth=4, use_shortcut=False)
            assert report.lower <= report.upper + 1e-12
            assert report.lower >= spectral_radius(a) - 1e-9
            assert report.upper <= spectral_radius(entrywise_abs(a)) + 1e-9

    def test_monotone_improvement(self):
        rng = np.random.default_rng(8)
        for n in (2, 3):
            a = rng.standard_normal((n, n))
            lowers, uppers = [], []
            for depth in range(1, 9):
                lo, _ = mu_lower_bound(a, max_depth=depth)
                up = mu_upper_bound(a, max_depth=depth, prune_delta=0.0)
                lowers.append(lo)
                uppers.append(up)
            assert all(b >= a_ - 1e-12 for a_, b in zip(lowers, lowers[1:]))
            assert all(b <= a_ + 1e-12 for a_, b in zip(uppers, uppers[1:]))

    def test_complex_grid_flags_heuristic_upper(self):
        a = np.array([[1.0, 1.0j], [1.0, -1.0]])
        report = mu_bounds(a, max_depth=3, grid_q=4)
        assert report.grid_q == 4
        assert report.lower <= report.upper + 1e-12
        if report.upper < spectral_radius(entrywise_abs(a)):
            assert report.upper_heuristic
            assert not report.exact

    def test_complex_lower_bound_valid_under_grid_refinement(self):
        a = np.array([[1.0, 1.0j], [1.0, -1.0]])
        coarse, _ = mu_lower_bound(a, max_depth=2, grid_q=2)
        fine, _ = mu_lower_bound(a, max_depth=2, grid_q=8)
        cap = spectral_radius(entrywise_abs(a))
        assert coarse <= fine + 1e-12
        assert fine <= cap + 1e-9

    def test_threads_do_not_change_results(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3))
        r1 = mu_bounds(a, max_depth=5, threads=1, use_shortcut=False)
        r4 = mu_bounds(a, max_depth=5, threads=4, use_shortcut=False)
        assert bounds_report_to_json(r1) == bounds_report_to_json(r4)

    def test_forced_chunking_preserves_results(self, monkeypatch):
        # Shrink the chunk size so the worker pool genuinely splits the
        # level batches, then demand identical output.
        import absnorm.bounds as bounds_mod

        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 3))
        baseline = bounds_report_to_json(mu_bounds(a, max_depth=5, use_shortcut=False))
        monkeypatch.setattr(bounds_mod, "_CHUNK", 7)
        for threads in (1, 4):
            chunked = bounds_report_to_json(
                mu_bounds(a, max_depth=5, threads=threads, use_shortcut=False)
            )
            assert chunked == baseline

    def test_complex_n1_is_exact_not_heuristic(self):
        report = mu_bounds(np.array([[2.0j]]), max_depth=2, use_shortcut=False)
        assert report.lower == pytest.approx(2.0, abs=1e-12)
        assert report.upper == pytest.approx(2.0, abs=1e-12)
        assert not report.upper_heuristic
        assert report.exact

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            mu_bounds(HADAMARD, max_depth=40, use_shortcut=False)
        with pytest.raises(CapacityError):
            mu_lower_bound(np.eye(6) + np.eye(6, k=1), max_depth=12)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            mu_lower_bound(SHARP, max_depth=0)
        with pytest.raises(ValueError):
            mu_upper_bound(SHARP, max_depth=2, prune_delta=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="prune_delta"):
            mu_upper_bound(SHARP, max_depth=2, prune_delta=bad)
        with pytest.raises(ValueError, match="prune_delta"):
            mu_bounds(HADAMARD, max_depth=2, prune_delta=bad)
        with pytest.raises(ValueError, match="tol"):
            mu_bounds(HADAMARD, max_depth=2, tol=bad)
        with pytest.raises(ValueError, match="eps"):
            GrowthQuery(eps=bad, m=3)
        with pytest.raises(ValueError, match="level"):
            GrowthQuery(eps=None, m=3, level=bad)


class TestGrowthCondition:
    def test_sharp_growing_ratio_four(self):
        report = check_growth_condition(SHARP, GrowthQuery(eps=None, m=6, level=0.5))
        assert report.verdict == "growing"
        seq = report.sequence
        for i in range(len(seq) - 1):
            assert seq[i + 1] / seq[i] == pytest.approx(4.0, abs=1e-6)

    def test_sharp_eps_form(self):
        # rho(A) = 0, so eps = 0.5 gives threshold c = 0.5.
        report = check_growth_condition(SHARP, GrowthQuery(eps=0.5, m=6))
        assert report.verdict == "growing"
        assert report.threshold == pytest.approx(0.5, abs=1e-9)

    def test_sharp_bounded_above_mu(self):
        report = check_growth_condition(SHARP, GrowthQuery(eps=None, m=6, level=2.5))
        assert report.verdict == "bounded"

    def test_identity_bounded(self):
        report = check_growth_condition(np.eye(2), GrowthQuery(eps=0.1, m=6))
        assert report.verdict == "bounded"

    def test_nonnegative_bounded(self):
        rng = np.random.default_rng(10)
        b = rng.random((3, 3))
        report = check_growth_condition(b, GrowthQuery(eps=0.2, m=8))
        assert report.verdict == "bounded"

    def test_depth_one_inconclusive(self):
        report = check_growth_condition(SHARP, GrowthQuery(eps=0.5, m=1))
        assert report.verdict == "inconclusive"

    def test_sequence_reported_raw(self):
        report = check_growth_condition(SHARP, GrowthQuery(eps=None, m=4, level=1.0))
        assert report.sequence == pytest.approx((2.0, 4.0, 8.0, 16.0), rel=1e-12)

    @staticmethod
    def plain_loop_sequence(a, c, m, letters):
        """max over all words of ||A D_1 ... D_{k-1} A||_2 / c^k, one word at a time."""
        seq = []
        for k in range(1, m + 1):
            best = max(
                spectral_norm(word_product(a, DiagonalWord(w)))
                for w in itertools.product(letters, repeat=k - 1)
            )
            seq.append(best / c**k)
        return seq

    def test_sequence_matches_plain_loop_real(self):
        a = np.random.default_rng(21).standard_normal((3, 3))
        report = check_growth_condition(a, GrowthQuery(eps=0.1, m=6))
        oracle = self.plain_loop_sequence(
            a, report.threshold, 6, enumerate_sign_diagonals(3)
        )
        assert report.sequence == pytest.approx(oracle, rel=1e-12)

    def test_sequence_matches_plain_loop_complex_grid(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        report = check_growth_condition(a, GrowthQuery(eps=0.1, m=4), grid_q=4)
        oracle = self.plain_loop_sequence(
            a, report.threshold, 4, enumerate_phase_diagonals(2, 4)
        )
        assert report.sequence == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("level", [1e300, 1e-300])
    def test_threshold_out_of_float_range(self, level):
        with pytest.raises(ValueError, match="growth threshold"):
            check_growth_condition(np.eye(2), GrowthQuery(eps=None, m=4, level=level))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            GrowthQuery(eps=None, m=3)
        with pytest.raises(ValueError):
            GrowthQuery(eps=-1.0, m=3)
        with pytest.raises(ValueError):
            GrowthQuery(eps=0.1, m=0)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_depth_one_witness_is_growing(self, m):
        # rho(A diag(1, 1, -1)) = 2.1165 > c, so g_k grows without bound, yet
        # g_1 .. g_4 fall.
        report = check_growth_condition(GROWING_AT_21, GrowthQuery(eps=None, m=m, level=2.1))
        d = np.array([1.0, 1.0, -1.0])
        assert spectral_radius(GROWING_AT_21 * d[None, :]) > 2.1
        assert report.verdict == "growing"

    @pytest.mark.parametrize("seed", [27, 30, 38, 96, 169])
    def test_witness_deeper_than_one_letter(self, seed):
        # No single letter reaches c, but a word of length 2 or 3 does.
        a = np.random.default_rng(seed).standard_normal((3, 3))
        c = 0.5 * (mu_lower_bound(a, 1)[0] + mu_lower_bound(a, 6)[0])
        report = check_growth_condition(a, GrowthQuery(eps=None, m=6, level=c))
        assert report.verdict == "growing"

    def test_verdicts_are_certified(self):
        # Below a certified lower bound L the verdict is never "bounded", above
        # a certified upper bound U never "growing"; 10% below L it decides, and
        # far enough above U.
        rng = np.random.default_rng(50)
        for i in range(150):
            a = rng.standard_normal((2 + i % 2,) * 2)
            lower = mu_lower_bound(a, 6)[0]
            upper = mu_upper_bound(a, 6, prune_delta=0)
            for factor, side in [(0.5, "L"), (0.9, "L"), (0.99, "L"),
                                 (1.01, "U"), (1.1, "U"), (2.0, "U")]:
                c = factor * (lower if side == "L" else upper)
                for m in (4, 8):
                    verdict = check_growth_condition(a, GrowthQuery(eps=None, m=m, level=c)).verdict
                    assert verdict != ("bounded" if side == "L" else "growing"), (i, c, m)
                    if side == "L" and factor <= 0.9:
                        assert verdict == "growing", (i, c, m)
                    if side == "U" and (factor == 2.0 or (factor, m) == (1.1, 8)):
                        assert verdict == "bounded", (i, c, m)

    @pytest.mark.parametrize("n", [2, 3])
    def test_bounded_exactly_above_mu_bounds_upper(self, n):
        # Growth and mu_bounds share one certified upper bound: the best level
        # maximum min_k M_k^(1/k), capped at rho(|A|).
        rng = np.random.default_rng(52 + n)
        for i in range(40):
            a = rng.standard_normal((n, n))
            for depth in (2, 3, 5):
                upper = mu_bounds(a, max_depth=depth, use_shortcut=False).upper
                for factor, bounded in [(1 + 1e-9, True), (1 - 1e-9, False)]:
                    query = GrowthQuery(eps=None, m=depth, level=upper * factor)
                    verdict = check_growth_condition(a, query).verdict
                    assert (verdict == "bounded") == bounded, (i, depth, factor, verdict)

    def test_complex_grid_bounded_only_above_cap(self):
        # Grid maxima only bound the grid-restricted growth, so on the complex
        # grid with n > 1 "bounded" needs c above rho(|A|) >= mu(A).
        rng = np.random.default_rng(51)
        verdicts = set()
        for i in range(20):
            n = 2 + i % 2
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho_abs = spectral_radius(entrywise_abs(a))
            upper = mu_upper_bound(a, 3, grid_q=4, prune_delta=0)
            for c in (upper * 1.001, 0.5 * (upper + rho_abs), 0.999 * rho_abs, 1.01 * rho_abs):
                verdict = check_growth_condition(
                    a, GrowthQuery(eps=None, m=3, level=c), grid_q=4
                ).verdict
                verdicts.add(verdict)
                assert (verdict == "bounded") == (c > rho_abs), (i, c, verdict)
        assert "bounded" in verdicts and len(verdicts) > 1

    def test_eigensolves_are_gated(self, monkeypatch):
        import absnorm.bounds as bounds_mod

        taken = []
        radii = bounds_mod._batch_radii

        def counting(batch, threads=1):
            taken.append(len(batch))
            return radii(batch, threads)

        monkeypatch.setattr(bounds_mod, "_batch_radii", counting)
        a = np.random.default_rng(42).standard_normal((4, 4))
        report = check_growth_condition(a, GrowthQuery(eps=0.1, m=7))
        interiors = sum(8**k for k in range(7))
        assert report.verdict == "growing"
        assert 0 < sum(taken) < 0.01 * interiors


def word_loop_lower(a, max_depth, grid_q=None, quotient=True):
    """Plain word-by-word lower search with the engine's tie rule.

    Every word D_1..D_k gets rho(A D_1 ... A D_k)^(1/k); per depth the first
    word within 1e-12 relative of the maximum is kept, and it replaces the
    best so far only when larger by more than 1e-12 relative.
    Returns the value and the witness's letters as phase vectors.
    """
    a = np.asarray(a, dtype=complex if grid_q else float)
    n = a.shape[0]
    found = (
        enumerate_phase_diagonals(n, grid_q, quotient)
        if grid_q
        else enumerate_sign_diagonals(n, quotient)
    )
    letters = [d.phases for d in found]
    best, best_word = -np.inf, None
    for k in range(1, max_depth + 1):
        words = list(itertools.product(range(len(letters)), repeat=k))
        values = []
        for w in words:
            p = np.eye(n)
            for i in w:
                p = (p @ a) * letters[i][None, :]
            values.append(float(np.abs(np.linalg.eigvals(p)).max()) ** (1.0 / k))
        top = max(values)
        first = next(i for i, v in enumerate(values) if v >= top - 1e-12 * max(1.0, top))
        if best == -np.inf or values[first] > best + 1e-12 * max(1.0, abs(best)):
            best, best_word = values[first], words[first]
    return best, [letters[i] for i in best_word]


def _walk_case(kind):
    if kind == "deep":
        # Its witness has length 6, found where the norm gate is selective.
        return np.random.default_rng(36).standard_normal((3, 3))
    rng = np.random.default_rng(30)
    if kind == "integer":
        return rng.integers(-1, 3, size=(3, 3)).astype(float)
    if kind == "nilpotent":
        return np.triu(rng.standard_normal((3, 3)), 1)
    if kind == "zero":
        return np.zeros((3, 3))
    if kind == "triangular":  # every word ties at max |a_ii|
        return np.triu(rng.standard_normal((3, 3)))
    if kind == "hadamard":  # every word ties at 2: each A D is 2 x orthogonal
        return np.kron(HADAMARD, HADAMARD)
    if kind == "complex":
        return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return rng.standard_normal((3, 3))


class TestWalk:
    @pytest.mark.parametrize(
        "kind, depth, grid_q, quotient",
        [
            ("random", 5, None, True),
            ("deep", 6, None, True),
            ("random", 3, None, False),
            ("integer", 4, None, True),
            ("integer", 3, None, False),
            ("nilpotent", 4, None, True),
            ("zero", 3, None, True),
            ("complex", 4, 4, True),
            ("complex", 3, 4, False),
            ("triangular", 4, None, True),
            ("triangular", 3, 4, True),
            ("hadamard", 4, None, True),
        ],
    )
    def test_lower_matches_word_loop(self, kind, depth, grid_q, quotient):
        a = _walk_case(kind)
        value, word = mu_lower_bound(a, max_depth=depth, grid_q=grid_q or 2, quotient=quotient)
        expected, letters = word_loop_lower(a, depth, grid_q, quotient)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert word.k == len(letters)
        for got, want in zip(word.letters, letters):
            assert np.array_equal(got.phases, want)

    @pytest.mark.parametrize(
        "n, depth, seed, prune_delta",
        [(2, 8, 20, 1e-3), (2, 8, 10, 1e-4), (3, 5, 34, 1e-3), (3, 5, 35, 0.05), (4, 4, 34, 1e-3)],
    )
    def test_upper_matches_word_loop(self, n, depth, seed, prune_delta):
        # The upper bound is the best level maximum whatever prune_delta says.
        a = np.random.default_rng(seed).standard_normal((n, n))
        expected = exhaustive_upper(a, depth)
        for delta in (0.0, 1e-4, 1e-3, 0.05):
            upper = mu_upper_bound(a, max_depth=depth, prune_delta=delta)
            assert upper == pytest.approx(expected, rel=1e-12), delta
        report = mu_bounds(a, max_depth=depth, prune_delta=prune_delta, use_shortcut=False)
        assert report.nodes_visited == sum(2 ** ((n - 1) * k) for k in range(1, depth + 1))

    def test_threads_agree_across_chunks(self):
        import absnorm.bounds as bounds_mod

        # A 2x2 at depth 18 has 2^17 interiors in its last level: two chunks.
        assert 2**17 > bounds_mod._CHUNK
        a = np.random.default_rng(31).standard_normal((2, 2))
        one = mu_bounds(a, max_depth=18, threads=1, use_shortcut=False)
        two = mu_bounds(a, max_depth=18, threads=2, use_shortcut=False)
        assert bounds_report_to_json(one) == bounds_report_to_json(two)

    def test_eigensolves_are_gated(self, monkeypatch):
        import absnorm.bounds as bounds_mod

        solved, built = [], []
        radii, terminal = bounds_mod._batch_radii, bounds_mod._terminal

        def counting(batch, threads=1):
            solved.append(len(batch))
            return radii(batch, threads)

        def building(interior, phases):
            built.append(len(interior) * len(phases))
            return terminal(interior, phases)

        monkeypatch.setattr(bounds_mod, "_batch_radii", counting)
        monkeypatch.setattr(bounds_mod, "_terminal", building)
        a = np.random.default_rng(32).standard_normal((4, 4))
        report = mu_bounds(a, max_depth=6, use_shortcut=False)
        assert 0 < sum(solved) < 0.1 * report.nodes_visited
        # The square bound eigensolves at least 4x fewer terminals than the
        # norm gate lets through.
        assert 4 * sum(solved) <= sum(built)

    @pytest.mark.parametrize("kind", ["random", "deep", "triangular", "triangular_q4", "hadamard"])
    def test_small_blocks_match(self, monkeypatch, kind):
        # Blocks of one interior, or a few, split every level into many
        # blocks; the report stays the same at any thread count.
        import absnorm.bounds as bounds_mod

        q = 4 if kind == "triangular_q4" else 2
        a = _walk_case("triangular" if q == 4 else kind)
        depth = 3 if q == 4 else 4 if kind == "hadamard" else 5
        baseline = bounds_report_to_json(mu_bounds(a, depth, grid_q=q, use_shortcut=False))
        for block, chunk in ((1, bounds_mod._CHUNK), (16, 7)):
            monkeypatch.setattr(bounds_mod, "_BLOCK", block)
            monkeypatch.setattr(bounds_mod, "_CHUNK", chunk)
            for threads in (1, 2):
                report = mu_bounds(a, depth, grid_q=q, threads=threads, use_shortcut=False)
                assert bounds_report_to_json(report) == baseline, (block, threads)

    def test_terminal_memory_is_bounded(self):
        # Every word ties on a triangular A, so the norm gate passes every
        # interior: 4096 of them with 64 letters at depth 3.  Built at once
        # their terminals take 64 MB; in blocks the walk stays far below.
        import tracemalloc

        a = np.triu(np.random.default_rng(40).standard_normal((4, 4)))
        tracemalloc.start()
        try:
            report = mu_bounds(a, max_depth=3, grid_q=4, use_shortcut=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert report.lower == pytest.approx(np.abs(np.diag(a)).max(), rel=1e-12)

    def test_threads_split_gated_blocks(self, monkeypatch):
        import absnorm.bounds as bounds_mod

        pooled, gated = [], []
        ordered_map, root_bounds = bounds_mod._ordered_map, bounds_mod._root_bounds

        def spying(fn, blocks, threads):
            pooled.append((threads, len(blocks)))
            return ordered_map(fn, blocks, threads)

        def bounding(level, rows, terminals):
            gated.append(level.depth)
            return root_bounds(level, rows, terminals)

        monkeypatch.setattr(bounds_mod, "_ordered_map", spying)
        monkeypatch.setattr(bounds_mod, "_root_bounds", bounding)
        a = np.triu(np.random.default_rng(40).standard_normal((4, 4)))
        one = mu_bounds(a, max_depth=3, grid_q=4, threads=1, use_shortcut=False)
        # Every block is bounded: one at depths 1 and 2 (64 and 4096
        # terminals), 64 at depth 3 (4096 * 64 terminals).
        assert gated == [1, 2] + [3] * 64
        pooled.clear()
        gated.clear()
        two = mu_bounds(a, max_depth=3, grid_q=4, threads=2, use_shortcut=False)
        assert bounds_report_to_json(one) == bounds_report_to_json(two)
        assert (2, 64) in pooled
        assert gated == [1, 2] + [3] * 64

    def test_power_of_two_scaling_is_exact(self):
        # tol is absolute, so it scales with the matrix; prune_delta has no effect.
        a = np.random.default_rng(33).standard_normal((3, 3))
        base = mu_bounds(a, max_depth=5, use_shortcut=False)
        for k in (-600, -7, 9, 700):
            f = 2.0**k
            scaled = mu_bounds(a * f, max_depth=5, prune_delta=1e-3 * f, tol=1e-9 * f,
                               use_shortcut=False)
            assert (scaled.lower, scaled.upper) == (base.lower * f, base.upper * f)
            assert scaled.lower_witness == base.lower_witness
            assert (scaled.nodes_visited, scaled.exact) == (base.nodes_visited, base.exact)


def _bracket_batches():
    rng = np.random.default_rng(40)
    u, v = rng.standard_normal((200, 4, 1)), rng.standard_normal((200, 1, 4))
    z = rng.standard_normal((200, 3, 3)) + 1j * rng.standard_normal((200, 3, 3))
    base = rng.standard_normal((200, 4, 4))
    return {
        "random": rng.standard_normal((5000, 4, 4)),  # more than one 4096-row block
        "rank1": u * v,
        "zero": np.zeros((5, 3, 3)),
        "complex": z,
        "complex_rank1": z[:, :, :1] * z[:, :1, :].conj(),
        "tiny": base * 1e-170,  # plain squares underflow
        "huge": base * 1e150,
        "huger": base * 1e200,  # plain squares overflow
        "rows": rng.standard_normal((200, 1, 4)),
    }


def _square_bound_batches():
    rng = np.random.default_rng(43)
    real = rng.standard_normal((2000, 4, 4))
    cplx = real + 1j * rng.standard_normal((2000, 4, 4))
    u, v = rng.standard_normal((2000, 3, 1)), rng.standard_normal((2000, 1, 3))
    v -= (v @ u) / (u.transpose(0, 2, 1) @ u) * u.transpose(0, 2, 1)  # v u = 0
    uc = u + 1j * rng.standard_normal(u.shape)
    vc = v + 1j * rng.standard_normal(v.shape)
    vc -= (vc @ uc) / (uc.transpose(0, 2, 1) @ uc) * uc.transpose(0, 2, 1)
    # About one in 2000 of these has a computed |eigenvalue| above a margin
    # that covers only the rounding of fl(T^2), not the eigensolver's.
    u3, v3 = rng.standard_normal((20000, 3, 1)), rng.standard_normal((20000, 1, 3))
    v3 -= (v3 @ u3) / (u3.transpose(0, 2, 1) @ u3) * u3.transpose(0, 2, 1)
    return {
        "real": real,
        "complex": cplx,
        "tiny": real * 2.0**-1000,
        "tiny_complex": cplx * 2.0**-1000,
        "nilpotent_rank1": u * v,
        "nilpotent_rank1_complex": uc * vc,
        "nilpotent_rank1_many": u3 * v3,
        "nilpotent_triangular": np.triu(real, 1),
    }


class TestSquareBound:
    """rho(T)^(1/k) <= bound from ||T^2||_F, the lower walk's eigensolve gate."""

    @pytest.mark.parametrize("kind", sorted(_square_bound_batches()))
    def test_bound_dominates_eigvals(self, kind):
        import absnorm.bounds as bounds_mod
        from absnorm.diagonals import _alphabet

        interior = _square_bound_batches()[kind]
        n = interior.shape[-1]
        phases = _alphabet(n, 4 if np.iscomplexobj(interior) else None, True)[1][:4]
        terminals = bounds_mod._terminal(interior, phases)
        radii = np.abs(np.linalg.eigvals(terminals)).max(axis=-1)
        rows = np.arange(len(interior))
        for depth in (1, 3):
            level = bounds_mod._LevelNorms(interior, depth, 1)
            bound = bounds_mod._root_bounds(level, rows, terminals)
            assert np.all(np.isfinite(bound))
            assert np.all(bound ** depth >= radii)

    def test_jordan_blocks(self):
        import absnorm.bounds as bounds_mod

        rng = np.random.default_rng(44)
        lam = np.concatenate([rng.standard_normal(200), 1e-9 * rng.standard_normal(50),
                              [0.0, 1.0, -1.0, 1e-300]])
        jordan = lam[:, None, None] * np.eye(4) + np.eye(4, k=1)
        level = bounds_mod._LevelNorms(jordan, 1, 1)
        bound = bounds_mod._root_bounds(level, np.arange(len(jordan)), jordan)
        assert np.all(bound >= np.abs(lam))
        assert np.all(bound >= np.abs(np.linalg.eigvals(jordan)).max(axis=-1))


class TestNormBrackets:
    """The cheap bound on each interior's 2-norm and the SVD-on-demand level."""

    @pytest.mark.parametrize("kind", sorted(_bracket_batches()))
    def test_bound_dominates_svd(self, kind):
        import absnorm.bounds as bounds_mod

        batch = _bracket_batches()[kind]
        hi = bounds_mod._LevelNorms(batch, 1, 1).hi
        exact = bounds_mod._batch_norms(batch)
        assert np.all(np.isfinite(hi))
        assert np.all(hi >= exact)
        assert np.all(hi <= exact * 2 * batch.shape[-1])

    @pytest.mark.parametrize("kind", ["integer", "repeated", "rank1"])
    def test_level_decisions_match_full_svd(self, kind):
        import absnorm.bounds as bounds_mod

        rng = np.random.default_rng(41)
        if kind == "integer":
            batch = rng.integers(-1, 2, size=(500, 3, 3)).astype(float)
        elif kind == "repeated":
            batch = np.repeat(rng.standard_normal((20, 3, 3)), 25, axis=0)[rng.permutation(500)]
        else:
            batch = _bracket_batches()["rank1"]
        full = bounds_mod._batch_norms(batch)
        for depth in (1, 2, 5):
            level = bounds_mod._LevelNorms(batch, depth, 1)
            assert level.top().max() == full.max()
            roots = full ** (1.0 / depth)
            assert (level.top() ** (1.0 / depth)).max() == roots.max()
            for t in np.quantile(roots, [0.0, 0.5, 0.9, 0.99, 1.0]):
                assert np.array_equal(level.where(t), roots >= t)

    @staticmethod
    def _count_svd(monkeypatch):
        import absnorm.bounds as bounds_mod

        taken = []
        norms = bounds_mod._batch_norms

        def counting(batch, threads=1):
            taken.append(len(batch))
            return norms(batch, threads)

        monkeypatch.setattr(bounds_mod, "_batch_norms", counting)
        return taken

    def test_walk_svds_are_gated(self, monkeypatch):
        taken = self._count_svd(monkeypatch)
        a = np.random.default_rng(32).standard_normal((4, 4))
        mu_bounds(a, max_depth=6, use_shortcut=False)
        interiors = sum(8**k for k in range(6))
        assert 0 < sum(taken) < 0.1 * interiors

    def test_growth_svds_are_gated(self, monkeypatch):
        taken = self._count_svd(monkeypatch)
        a = np.random.default_rng(42).standard_normal((4, 4))
        check_growth_condition(a, GrowthQuery(eps=0.1, m=7))
        interiors = sum(8**k for k in range(7))
        assert 0 < sum(taken) < 0.01 * interiors


class TestScale:
    """mu(sH) = sqrt(2)|s| for the Hadamard-sign matrix H at any scale."""

    @pytest.mark.parametrize("s", [1e-200, 1e100])
    def test_mu_bounds(self, s):
        report = mu_bounds(s * HADAMARD, max_depth=4)
        assert report.lower <= report.upper
        assert report.lower / s == pytest.approx(ROOT2, rel=1e-12)
        assert report.upper / s == pytest.approx(ROOT2, rel=1e-12)
        assert report.exact

    @pytest.mark.parametrize("s", [1e-200, 1e100])
    def test_lower_and_upper(self, s):
        value, word = mu_lower_bound(s * HADAMARD, max_depth=4)
        assert value / s == pytest.approx(ROOT2, rel=1e-12)
        assert word_to_json(word) == [[1, 1]]
        assert mu_upper_bound(s * HADAMARD, max_depth=4) / s == pytest.approx(ROOT2, rel=1e-12)

    @pytest.mark.parametrize("s", [1e-200, 1e100])
    def test_growth(self, s):
        report = check_growth_condition(s * HADAMARD, GrowthQuery(eps=0.1 * s, m=4))
        ratio = ROOT2 / (ROOT2 + 0.1)
        assert report.verdict == "bounded"
        assert report.sequence == pytest.approx([ratio**k for k in range(1, 5)], rel=1e-9)

    @pytest.mark.parametrize("rows", [[[0, 2], [1, 0]], [[0, 2], [-1, 0]]])
    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1.0, 1e12, 1e-200, 1e200])
    def test_shortcut(self, s, rows):
        # mu = rho(|A|) = sqrt(2) s; the Perron tolerance must not be an
        # absolute one on the unscaled matrix.
        report = mu_bounds(s * np.array(rows, dtype=float))
        assert report.shortcut != "none" and report.exact
        assert abs(report.lower - ROOT2 * s) <= 1e-9 * ROOT2 * s


class TestShortcutLower:
    """The shortcut reports the Perron bracket: lower side <= rho(|A|) <= upper side."""

    def test_random_nonnegative(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            b = rng.random((n, n)) * 10.0 ** rng.uniform(-2, 3)
            report = mu_bounds(b)
            rho = float(np.abs(np.linalg.eigvals(b)).max())
            assert report.shortcut == "nonnegative" and report.exact
            assert report.lower <= rho * (1 + 1e-13)
            assert report.lower <= report.upper

    def test_weighted_cycle(self):
        b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1e-9, 0.0, 0.0]])
        report = mu_bounds(b)
        assert report.exact
        assert report.lower <= 1e-3 <= report.upper


class TestOrdering:
    @pytest.mark.parametrize("s", [3.0, 7.0, 1e-3])
    def test_upper_never_below_lower(self, s):
        # rho and the 2-norm of the winning word agree in exact arithmetic
        # and round an ulp apart; the reported upper is widened to lower.
        report = mu_bounds(s * HADAMARD, max_depth=3)
        assert report.lower <= report.upper
        assert report.exact
        assert report.upper == pytest.approx(s * ROOT2, rel=1e-15)

    def test_report_rejects_crossed_bounds(self):
        report = mu_bounds(HADAMARD, max_depth=2)
        data = bounds_report_to_json(report)
        data["lower"] = data["upper"] * 2
        with pytest.raises(ValueError):
            bounds_report_from_json(data)


class TestReportJson:
    def test_round_trip_real(self):
        report = mu_bounds(HADAMARD, max_depth=2)
        data = bounds_report_to_json(report)
        again = bounds_report_from_json(json.loads(json.dumps(data)))
        assert bounds_report_to_json(again) == data

    def test_round_trip_complex_grid(self):
        a = np.array([[1.0, 1.0j], [1.0, -1.0]])
        report = mu_bounds(a, max_depth=2, grid_q=4)
        data = bounds_report_to_json(report)
        again = bounds_report_from_json(json.loads(json.dumps(data)))
        assert bounds_report_to_json(again) == data

    def test_round_trip_complex_shortcut_witness(self):
        # Phase-equivalent complex matrix: the witness letter carries
        # free phases, serialized as [re, im] pairs.
        rng = np.random.default_rng(12)
        b = np.abs(rng.standard_normal((3, 3)))
        d = np.exp(2j * np.pi * rng.random(3))
        e = np.exp(2j * np.pi * rng.random(3))
        a = d[:, None] * b * e[None, :]
        report = mu_bounds(a, max_depth=2, grid_q=4)
        assert report.shortcut == "sign_equivalent"
        prod = word_product(as_matrix(a), report.lower_witness, terminal=True)
        assert spectral_radius(prod) == pytest.approx(report.lower, abs=1e-8)
        data = bounds_report_to_json(report)
        again = bounds_report_from_json(json.loads(json.dumps(data)))
        assert bounds_report_to_json(again) == data

    def test_validates_config(self):
        with pytest.raises(ValueError):
            mu_bounds(SHARP, max_depth=0)
        with pytest.raises(ValueError):
            mu_bounds(HADAMARD, max_depth=2, prune_delta=-0.5)
        with pytest.raises(ValueError):
            mu_bounds(HADAMARD, max_depth=2, tol=0.0)

    def test_schema_keys(self):
        data = bounds_report_to_json(mu_bounds(SHARP, max_depth=1))
        assert set(data) == {
            "lower",
            "upper",
            "witness",
            "depth",
            "nodes",
            "exact",
            "shortcut",
            "grid_q",
            "upper_heuristic",
        }
