import itertools
import json
import warnings

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


def alphabet(n, grid_q=None, quotient=True):
    """Letters as phase vectors: sign diagonals, or the q-th-root grid; the
    quotient fixes each letter's first entry to 1."""
    found = (
        enumerate_phase_diagonals(n, grid_q, quotient)
        if grid_q
        else enumerate_sign_diagonals(n, quotient)
    )
    return [d.phases for d in found]


def exhaustive_upper(a, max_depth, grid_q=None, quotient=True):
    """Independent oracle: plain fold-loop level enumeration, no pruning."""
    a = np.asarray(a, dtype=complex if grid_q else float)
    letters = alphabet(a.shape[0], grid_q, quotient)
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
        # The engine walks the quotient alphabet; the oracles walk every letter.
        rng = np.random.default_rng(4)
        for _ in range(6):
            n = int(rng.integers(2, 4))
            a = rng.standard_normal((n, n))
            for depth in (1, 3, 5):
                quot = mu_upper_bound(a, max_depth=depth, prune_delta=0.0)
                full = exhaustive_upper(a, depth, quotient=False)
                assert quot == pytest.approx(full, abs=1e-12, rel=1e-12)
            lq, _ = mu_lower_bound(a, max_depth=3)
            lf, _ = word_loop_lower(a, 3, quotient=False)
            assert lq == pytest.approx(lf, abs=1e-12, rel=1e-12)

    def test_complex_grid_quotient_matches_full(self):
        rng = np.random.default_rng(15)
        for _ in range(4):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for depth in (1, 2, 3):
                quot = mu_upper_bound(a, max_depth=depth, grid_q=4, prune_delta=0.0)
                full = exhaustive_upper(a, depth, grid_q=4, quotient=False)
                assert quot == pytest.approx(full, abs=1e-12, rel=1e-12)
            lq, _ = mu_lower_bound(a, max_depth=2, grid_q=4)
            lf, _ = word_loop_lower(a, 2, grid_q=4, quotient=False)
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

    @pytest.mark.parametrize("depth", [2.5, 2.0, True])
    def test_non_integer_depth_rejected(self, depth):
        # Not truncated, and not a TypeError from range.
        for search in (mu_bounds, mu_lower_bound, mu_upper_bound):
            with pytest.raises(ValueError, match="depth must be an integer"):
                search(HADAMARD, max_depth=depth)
        with pytest.raises(ValueError, match="depth must be an integer"):
            check_growth_condition(HADAMARD, GrowthQuery(eps=0.1, m=depth))

    def test_numpy_integer_depth_accepted(self):
        a = np.random.default_rng(12).standard_normal((3, 3))
        assert mu_bounds(a, max_depth=np.int64(3)) == mu_bounds(a, max_depth=3)
        query = GrowthQuery(eps=0.1, m=np.int32(3))
        assert check_growth_condition(a, query) == check_growth_condition(a, GrowthQuery(eps=0.1, m=3))

    @pytest.mark.parametrize("grid_q", [1, 0, -4, 3, 4.0, True])
    def test_grid_order_rejected(self, grid_q):
        # Also where sign letters or a shortcut would never read the grid.
        for a in (HADAMARD, np.eye(2)):
            for search in (mu_bounds, mu_lower_bound, mu_upper_bound):
                with pytest.raises(ValueError, match="grid order"):
                    search(a, max_depth=2, grid_q=grid_q)
            with pytest.raises(ValueError, match="grid order"):
                check_growth_condition(a, GrowthQuery(eps=0.1, m=2), grid_q=grid_q)

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

    @pytest.mark.parametrize("threads", [-4, 0, 2.5])
    def test_thread_count_rejected(self, threads):
        # Checked up front, not when a level first outgrows one chunk.
        with pytest.raises(ValueError, match="threads"):
            mu_bounds(HADAMARD, max_depth=2, threads=threads)
        with pytest.raises(ValueError, match="threads"):
            mu_lower_bound(HADAMARD, max_depth=2, threads=threads)
        with pytest.raises(ValueError, match="threads"):
            mu_upper_bound(HADAMARD, max_depth=2, threads=threads)
        with pytest.raises(ValueError, match="threads"):
            check_growth_condition(HADAMARD, GrowthQuery(eps=0.1, m=3), threads=threads)


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

    @pytest.mark.parametrize("a, level", [
        (np.eye(2), 1e300), (np.eye(2), 1e-300), (np.eye(2), 5e-324),
        ([[1e300, 1.0], [1.0, -1e300]], 1e-300),
    ], ids=["1e+300", "1e-300", "5e-324", "1e300_matrix-1e-300"])
    def test_threshold_out_of_float_range(self, a, level):
        # The last two thresholds scale to 0 against the matrix.
        with pytest.raises(ValueError, match="growth threshold"):
            check_growth_condition(a, GrowthQuery(eps=None, m=4, level=level))

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

    def test_best_is_mu_upper_bound_bit_for_bit(self, monkeypatch):
        # The bounded verdict's threshold rounds each M_k^(1/k) as mu_upper_bound
        # does (numpy's array power), so the two agree in every bit.
        import absnorm.bounds as bounds_mod

        upper_bounds, seen = bounds_mod._upper_bounds, []

        def recording(s, q, best, perron=None):
            seen.append(best)
            return upper_bounds(s, q, best, perron)

        monkeypatch.setattr(bounds_mod, "_upper_bounds", recording)
        rng = np.random.default_rng(90)
        for i in range(300):
            n = 2 + i % 3
            a = rng.standard_normal((n, n))
            depth = (6, 5, 4)[n - 2]
            check_growth_condition(a, GrowthQuery(eps=0.1, m=depth))
            best = seen.pop() * 2.0 ** bounds_mod._exponent(a)
            assert best == mu_upper_bound(a, depth), i

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


def on_full_tree(module, fn):
    """``fn()`` with ``module._levels`` walking the full tree (lower floor 0, no
    ratio, so no beam) in the plain norm: a balanced ratio and its floor are
    dropped, so the lower side gates its terminals unscaled as well."""
    import absnorm.bounds as bounds_mod

    levels = bounds_mod._levels
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_levels", lambda arr, da, depth, threads, floor=None, ratio=None: levels(
            arr, da, depth, threads, lambda j: 0.0))
        return fn()


def _maxima_cases():
    """(A, grid_q, m): seeded real n = 2..5 and complex q = 4 inputs at depths
    1..8, and degenerate ones."""
    rng = np.random.default_rng(60)
    cases = [
        (f"real{n}m{m}", rng.standard_normal((n, n)), 2, m)
        for n, depths in ((2, (1, 5, 8)), (3, (2, 4, 7)), (4, (3, 6)), (5, (2, 4)))
        for m in depths
    ]
    cases += [
        (f"complex{n}m{m}", rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 4, m)
        for n, m in ((2, 1), (2, 6), (3, 3), (3, 4))
    ]
    b = rng.standard_normal((3, 3))
    cases += [
        ("orthogonal", np.linalg.qr(rng.standard_normal((4, 4)))[0], 2, 5),
        ("zero", np.zeros((3, 3)), 2, 4),
        ("rank1", np.outer(rng.standard_normal(3), rng.standard_normal(3)), 2, 6),
        ("nilpotent", np.triu(rng.standard_normal((4, 4)), 1), 2, 5),
        ("1x1", np.array([[-1.5]]), 2, 6),
        ("tiny", 1e-200 * b, 2, 6),
        ("huge", 1e100 * b, 2, 6),
    ]
    return [pytest.param(a, q, m, id=name) for name, a, q, m in cases]


class TestMaximaWalk:
    """Growth and the extremal norm walk only the prefixes that can still attain
    a level maximum; every maximum, maximizer set and report is the full tree's."""

    @pytest.mark.parametrize("a, grid_q, m", _maxima_cases())
    def test_matches_full_tree(self, a, grid_q, m):
        import absnorm.bounds as bounds_mod
        import absnorm.extremal as extremal_mod
        from absnorm import TruncatedExtremalNorm

        s, _ = bounds_mod._normalized(as_matrix(a))
        _, _, _, arr, da = bounds_mod._search_setup(s, grid_q, m)
        pruned = bounds_mod._levels(arr, da, m, 1)
        full_tree = bounds_mod._levels(arr, da, m, 1, lambda j: 0.0)
        for (k, got, got_balanced, got_top, _), (_, full, _, top, _) in zip(pruned, full_tree):
            assert got_balanced is got  # no ratio: the balanced view is the level
            assert top == full.top().max() and got_top == got.top().max()
            assert got_top == top, k
            maxima = full.interior[full.exact == top]
            assert np.array_equal(got.interior[got.exact == top], maxima), k

        lower = mu_lower_bound(a, min(m, 4), grid_q=grid_q)[0] or 1.0  # 0 when nilpotent
        for c in (0.9 * lower, 1.1 * lower, 2.0 * lower):
            query = GrowthQuery(eps=None, m=m, level=c)
            expected = on_full_tree(bounds_mod, lambda: check_growth_condition(a, query, grid_q))
            for threads in (1, 2):
                assert check_growth_condition(a, query, grid_q, threads) == expected, c
            depth = min(m, 5)
            norm = TruncatedExtremalNorm(as_matrix(a), c, depth, grid_q)
            full = on_full_tree(
                extremal_mod, lambda: TruncatedExtremalNorm(as_matrix(a), c, depth, grid_q)
            )
            assert norm.certified_upper == full.certified_upper, c
            assert norm.c_below_certified_upper == full.c_below_certified_upper
            assert np.array_equal(norm._subtree, full._subtree), c

    @pytest.mark.parametrize("a, grid_q, m", _maxima_cases())
    def test_keeps_every_prefix_that_can_reach_a_maximum(self, a, grid_q, m):
        # With the full tree's maxima as both bounds, P must be extended when
        # hi(P) M_r >= M_{k+r} for some r; the walk's rule may keep more.
        import absnorm.bounds as bounds_mod

        s, _ = bounds_mod._normalized(as_matrix(a))
        _, _, _, arr, da = bounds_mod._search_setup(s, grid_q, m)
        tops = [top for _, _, _, top, _ in bounds_mod._levels(arr, da, m, 1, lambda j: 0.0)]
        levels = [lv for _, lv, _, _, _ in bounds_mod._levels(arr, da, m, 1)]
        for k, (level, deeper) in enumerate(zip(levels, levels[1:]), start=1):
            need = np.zeros(len(level.hi), dtype=bool)
            for r in range(1, m - k + 1):
                need |= level.hi * tops[r - 1] >= tops[k + r - 1]
            # Row i's first child is interior[i] D_1 A; the kept rows' first
            # children open each group of len(da) rows on the next level.
            first = bounds_mod._extend(level.interior, da[:1])
            kept = {row.tobytes() for row in deeper.interior[:: len(da)]}
            assert all(first[i].tobytes() in kept for i in np.flatnonzero(need)), k

    def test_verdicts_and_sequences_match_full_tree(self):
        # Thresholds on both sides of mu, where growth eigensolves the maximizers.
        import absnorm.bounds as bounds_mod

        rng = np.random.default_rng(61)
        for i in range(60):
            n = 2 + i % 3
            a = rng.standard_normal((n, n))
            m = (8, 6, 5)[i % 3]
            lower = mu_lower_bound(a, 4)[0]
            upper = mu_upper_bound(a, m)
            for c, verdict in ((0.95 * lower, "growing"), (1.01 * upper, "bounded")):
                query = GrowthQuery(eps=None, m=m, level=c)
                report = check_growth_condition(a, query)
                assert report == on_full_tree(bounds_mod, lambda: check_growth_condition(a, query))
                assert report.verdict == verdict, (i, c)

    def test_threads_across_chunks(self, monkeypatch):
        # Chunks of 7 rows pool every extension of the walk and of its beam.
        import absnorm.bounds as bounds_mod

        a = np.random.default_rng(42).standard_normal((4, 4))
        query = GrowthQuery(eps=0.1, m=6)
        baseline = check_growth_condition(a, query)
        monkeypatch.setattr(bounds_mod, "_CHUNK", 7)
        for threads in (1, 2):
            assert check_growth_condition(a, query, threads=threads) == baseline

    @staticmethod
    def _count_rows(monkeypatch):
        import absnorm.bounds as bounds_mod

        rows = []
        extend = bounds_mod._extend

        def counting(batch, factors, threads=1):
            rows.append(len(batch) * len(factors))
            return extend(batch, factors, threads)

        monkeypatch.setattr(bounds_mod, "_extend", counting)
        return rows

    def test_growth_builds_few_interiors(self, monkeypatch):
        # The full tree has 299,593 interiors; the walk and its beam build
        # about 0.14% of them.
        rows = self._count_rows(monkeypatch)
        a = np.random.default_rng(42).standard_normal((4, 4))
        report = check_growth_condition(a, GrowthQuery(eps=0.1, m=7))
        interiors = sum(8**k for k in range(7))
        assert report.verdict == "growing"
        assert 0 < 1 + sum(rows) < 0.01 * interiors

    def test_no_beam_on_small_levels(self, monkeypatch):
        # The 2x2 Hadamard has 2 letters, so levels of 1, 2, 4 and 8 interiors:
        # none keeps 2 * _BEAM per level still to come, so no beam starts, and
        # growth at m = 4 and the norm at m = 3 (maxima to depth 4) build the
        # tree's 14 rows alone.
        from absnorm import build_norm

        rows = self._count_rows(monkeypatch)
        check_growth_condition(HADAMARD, GrowthQuery(eps=0.1, m=4))
        assert sum(rows) == 14
        rows.clear()
        build_norm(HADAMARD, c=2.0, m=3)
        assert sum(rows) == 14

    @pytest.mark.parametrize("tiny, pruned", [(1e-100, True), (1e-105, False)])
    def test_subnormal_level_prunes_nothing(self, monkeypatch, tiny, pruned):
        # Near-nilpotent: only a_31 and a_32 are of order 1.  At 1e-105 the
        # depth-7 maximum is subnormal (about 2.5e-317), where a relative
        # margin does not hold, so every interior is extended; at 1e-100 it
        # is about 2.5e-302 and the walk prunes.
        import absnorm.bounds as bounds_mod

        a = np.array([[-0.5, -1.1, 0.7], [1.1, 0.2, 1.3], [1.2, 0.4, 0.1]])
        a[:2] *= tiny
        a[2, 2] *= tiny
        rows = self._count_rows(monkeypatch)
        query = GrowthQuery(eps=None, m=7, level=1.0)
        report = check_growth_condition(a, query)
        interiors = sum(4**k for k in range(1, 7))
        assert (sum(rows) < interiors) == pruned
        assert report == on_full_tree(bounds_mod, lambda: check_growth_condition(a, query))


def word_loop_lower(a, max_depth, grid_q=None, quotient=True):
    """Plain word-by-word lower search with the engine's tie rule.

    Every word D_1..D_k gets rho(A D_1 ... A D_k)^(1/k); per depth the first
    word within 1e-12 relative of the maximum is kept, and it replaces the
    best so far only when larger by more than 1e-12 relative.
    Returns the value and the witness's letters as phase vectors.
    """
    a = np.asarray(a, dtype=complex if grid_q else float)
    n = a.shape[0]
    letters = alphabet(n, grid_q, quotient)
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


def _bounds_walk_cases():
    """(A, grid_q, depth): the ``_walk_case`` kinds and similarity-transformed
    nilpotent and Jordan blocks, whose computed rho of about u^(1/n) can put
    the lower side's best above mu(A) by more than the tie slack."""
    cases = [(kind, _walk_case(kind), 2, depth) for kind, depth in (
        ("random", 5), ("deep", 6), ("integer", 4), ("nilpotent", 4), ("zero", 3),
        ("triangular", 4), ("hadamard", 4))]
    cases += [("complex", _walk_case("complex"), 4, 4), ("triangular_q4", _walk_case("triangular"), 4, 3)]
    # Its length-5 witness follows a prefix with pruned rows before it, so
    # the witness needs the full-tree indices of the kept rows.
    cases.append(("pruned_prefix", np.random.default_rng(31).standard_normal((4, 4)), 2, 5))
    rng = np.random.default_rng(62)
    for n, depth in ((3, 6), (4, 5)):
        s = rng.standard_normal((n, n))
        shift = np.eye(n, k=1)
        cases.append((f"similar_nilpotent{n}", s @ shift @ np.linalg.inv(s), 2, depth))
        cases.append((f"similar_jordan{n}", s @ (np.eye(n) + shift) @ np.linalg.inv(s), 2, depth))
    return [pytest.param(a, q, depth, id=f"walk_{name}") for name, a, q, depth in cases]


class TestWalk:
    @pytest.mark.parametrize("a, grid_q, depth", _maxima_cases() + _bounds_walk_cases())
    def test_matches_full_tree(self, monkeypatch, a, grid_q, depth):
        # The walk extends only the prefixes that can reach the lower side's
        # bar or a level maximum; every result is the floor-0 walk's.
        import absnorm.bounds as bounds_mod

        def results(threads):
            report = mu_bounds(a, depth, grid_q=grid_q, threads=threads, use_shortcut=False)
            lower, word = mu_lower_bound(a, depth, grid_q=grid_q, threads=threads)
            upper = mu_upper_bound(a, depth, grid_q=grid_q, threads=threads)
            return bounds_report_to_json(report), lower, word_to_json(word), upper

        expected = on_full_tree(bounds_mod, lambda: results(1))
        for chunk, threads in ((bounds_mod._CHUNK, 1), (bounds_mod._CHUNK, 2), (7, 2)):
            monkeypatch.setattr(bounds_mod, "_CHUNK", chunk)
            assert results(threads) == expected, (chunk, threads)

    def test_builds_few_interiors(self, monkeypatch):
        # The full tree has 21,844 interiors below the root; the walk builds
        # 756 of them.
        rows = TestMaximaWalk._count_rows(monkeypatch)
        a = np.random.default_rng(31).standard_normal((3, 3))
        report = mu_bounds(a, max_depth=8, use_shortcut=False)
        assert report.nodes_visited == sum(4**k for k in range(1, 9))
        assert 0 < sum(rows) < 0.05 * sum(4**k for k in range(1, 8))

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
        # ``quotient`` is the oracle's alphabet; its first tying word has
        # letters with first entry 1, as the engine's quotient letters.
        a = _walk_case(kind)
        value, word = mu_lower_bound(a, max_depth=depth, grid_q=grid_q or 2)
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

    def test_one_chunk_runs_directly(self, monkeypatch):
        # A batch of at most _CHUNK rows, and a candidate set of one block, go
        # to their kernel as they are; only larger ones are split and mapped.
        import absnorm.bounds as bounds_mod

        mapped, ordered_map = [], bounds_mod._ordered_map

        def spying(fn, blocks, threads):
            mapped.append(len(blocks))
            return ordered_map(fn, blocks, threads)

        monkeypatch.setattr(bounds_mod, "_ordered_map", spying)
        batch = np.random.default_rng(49).standard_normal((bounds_mod._CHUNK + 1, 2, 2))
        for rows in (0, 1, bounds_mod._CHUNK):
            part = batch[:rows]
            assert bounds_mod._chunked(part, lambda b: b, 2) is part
        assert mapped == []
        assert np.array_equal(bounds_mod._chunked(batch, np.copy, 2), batch)
        assert mapped == [2]
        mapped.clear()
        a = _walk_case("random")
        report = mu_bounds(a, 5, threads=2, use_shortcut=False)
        check_growth_condition(a, GrowthQuery(eps=0.1, m=5), threads=2)
        assert mapped == []
        monkeypatch.setattr(bounds_mod, "_CHUNK", 7)
        split = mu_bounds(a, 5, threads=2, use_shortcut=False)
        assert mapped and bounds_report_to_json(split) == bounds_report_to_json(report)

    def test_one_thread_never_splits(self):
        # At threads=1 a batch of any size goes to its kernel in one call: no
        # chunk list, and no concatenated copy of the chunks' results.
        import absnorm.bounds as bounds_mod

        calls = []

        def kernel(b):
            calls.append(len(b))
            return np.copy(b)

        batch = np.random.default_rng(49).standard_normal((2 * bounds_mod._CHUNK + 1, 2, 2))
        assert np.array_equal(bounds_mod._chunked(batch, kernel, 1), batch)
        assert calls == [len(batch)]

    @pytest.mark.parametrize("job", ["c3d4q4", "hadamard@1e-200", "hadamard@1e+100"])
    def test_forced_splits_match_on_bench_inputs(self, monkeypatch, job):
        # The bench's complex grid job and its Hadamard scale probes, split
        # into chunks of 7 rows and blocks of 16 terminals, at 1 and 2 threads.
        import absnorm.bounds as bounds_mod

        if job == "c3d4q4":
            _, a, grid_q, depth = next(j for j in _bench_search_inputs() if j[0] == "search.c3d4q4")
        else:
            a, grid_q, depth = float(job.split("@")[1]) * HADAMARD, 2, 4

        def results(threads):
            report = mu_bounds(a, depth, grid_q=grid_q, prune_delta=1e-3, threads=threads)
            eps = 0.1 * float(np.abs(a).max())
            growth = check_growth_condition(a, GrowthQuery(eps=eps, m=depth), grid_q=grid_q,
                                            threads=threads)
            return bounds_report_to_json(report), growth

        baseline = results(1)
        for threads in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(bounds_mod, "_BLOCK", 16)
                patch.setattr(bounds_mod, "_CHUNK", 7)
                assert results(threads) == baseline, threads

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
        # tol is scaled with the matrix, which the exact rule needs only above
        # max|a_ij| = 1 (below it tol is relative); prune_delta has no effect.
        a = np.random.default_rng(33).standard_normal((3, 3))
        base = mu_bounds(a, max_depth=5, use_shortcut=False)
        for k in (-600, -7, 9, 700):
            f = 2.0**k
            scaled = mu_bounds(a * f, max_depth=5, prune_delta=1e-3 * f, tol=1e-9 * f,
                               use_shortcut=False)
            assert (scaled.lower, scaled.upper) == (base.lower * f, base.upper * f)
            assert scaled.lower_witness == base.lower_witness
            assert (scaled.nodes_visited, scaled.exact) == (base.nodes_visited, base.exact)


def _sweep_cases():
    """(A, grid_q, depth): a seeded sweep over the inputs the balanced cut meets."""
    cases = [(f"walk_{kind}", _walk_case(kind), q, depth) for kind, q, depth in (
        ("random", 2, 5), ("deep", 2, 6), ("integer", 2, 4), ("nilpotent", 2, 4), ("zero", 2, 3),
        ("triangular", 2, 4), ("hadamard", 2, 4), ("complex", 4, 4))]
    rng = np.random.default_rng(70)
    for i in range(40):
        n = 2 + i % 4
        cases.append((f"real{i}", rng.standard_normal((n, n)), 2, (8, 6, 5, 4)[n - 2]))
    for i in range(14):
        n = 2 + i % 2
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cases.append((f"complex{i}", z, 4, (5, 3)[n - 2]))
    for i in range(15):  # permuted block-triangular, every third complex
        q, n, depth = (4, 3, 3) if i % 3 == 2 else (2, 3 + i % 3, 5)
        b = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if q == 4 else 0.0)
        k = 1 + i % (n - 1)
        b[k:, :k] = 0.0
        perm = rng.permutation(n)
        cases.append((f"block_triangular{i}", b[perm][:, perm], q, depth))
    for i in range(6):
        t = np.triu(rng.standard_normal((3 + i % 2, 3 + i % 2)))
        cases.append((f"triangular{i}", t, 2, 4) if i < 4 else (f"triangular_q4_{i}", t[:3, :3], 4, 3))
    b = rng.standard_normal((3, 3))
    cases += [
        ("1x1", np.array([[-1.5]]), 2, 6),
        ("1x1_complex", np.array([[0.6 + 0.8j]]), 4, 4),
        ("zero", np.zeros((3, 3)), 2, 4),
        ("identity", np.eye(3), 2, 4),
        ("minus_identity", -np.eye(3), 2, 4),
        ("hadamard", HADAMARD, 2, 6),
        ("hadamard4", np.kron(HADAMARD, HADAMARD), 2, 4),
        ("tiny", 1e-200 * b, 2, 6),
        ("huge", 1e100 * b, 2, 6),
        ("tiny_hadamard", 1e-200 * HADAMARD, 2, 4),
        ("huge_hadamard", 1e100 * HADAMARD, 2, 4),
    ]
    cases += [(p.id[len("walk_"):], *p.values) for p in _bounds_walk_cases() if "similar" in p.id]
    return [pytest.param(a, q, depth, id=name) for name, a, q, depth in cases]


def _bench_search_inputs():
    """The benchmark's ``search`` jobs at seed 1 as (A, grid_q, depth)."""
    import sys
    from pathlib import Path

    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    inputs = workloads.make_inputs("search", 1)
    return [(name, inputs[name], q, depth) for name, _, depth, q in workloads.SEARCH_JOBS]


def _walk_results(a, grid_q, depth, monkeypatch):
    """Every walk result the balanced cut must leave unchanged, as strings."""
    import absnorm.bounds as bounds_mod

    out = []
    for threads in (1, 2):
        report = mu_bounds(a, depth, grid_q=grid_q, threads=threads, use_shortcut=False)
        out.append(json.dumps(bounds_report_to_json(report)))
        value, word = mu_lower_bound(a, depth, grid_q=grid_q, threads=threads)
        out.append(repr((value, word_to_json(word))))
        out.append(repr(mu_upper_bound(a, depth, grid_q=grid_q, threads=threads)))
    with monkeypatch.context() as patch:
        patch.setattr(bounds_mod, "_CHUNK", 7)
        out.append(repr(mu_upper_bound(a, depth, grid_q=grid_q, threads=2)))
    return out


def _unscaled(monkeypatch):
    """Force every walk to run without a balanced ratio, as before the balanced cut.

    Only the walk loses the ratio: ``_balance`` itself is untouched, so whatever
    else reads it reads the same on both sides of a comparison."""
    import absnorm.bounds as bounds_mod

    levels = bounds_mod._levels

    def unscaled(arr, da, max_depth, threads, floor=None, ratio=None):
        return levels(arr, da, max_depth, threads, floor)

    monkeypatch.setattr(bounds_mod, "_levels", unscaled)


class TestBalancedCut:
    """The walk cuts its lower side in the Perron-balanced norm ||S.||_2 and its
    upper side against a beam floor; every report is the unscaled walk's."""

    @pytest.mark.parametrize("a, grid_q, depth", _sweep_cases())
    def test_reports_match_unscaled_walk(self, monkeypatch, a, grid_q, depth):
        got = _walk_results(a, grid_q, depth, monkeypatch)
        _unscaled(monkeypatch)
        assert got == _walk_results(a, grid_q, depth, monkeypatch)

    def test_bench_search_jobs_match_unscaled_walk(self, monkeypatch):
        for name, a, grid_q, depth in _bench_search_inputs():
            with monkeypatch.context() as patch:
                got = _walk_results(a, grid_q, depth, patch)
                _unscaled(patch)
                assert got == _walk_results(a, grid_q, depth, patch), name

    def test_sweep_takes_the_balanced_cut(self, monkeypatch):
        # Most of the sweep gets a ratio, and its bigger walks a beam.
        import absnorm.bounds as bounds_mod

        balance, beam, ratios, beams = bounds_mod._balance, bounds_mod._beam_floor, [], []

        def balancing(s, perron=None):
            ratio = balance(s, perron)
            ratios.append(ratio is not None)
            return ratio

        def beaming(*args):
            beams.append(args[-1])
            return beam(*args)

        monkeypatch.setattr(bounds_mod, "_balance", balancing)
        monkeypatch.setattr(bounds_mod, "_beam_floor", beaming)
        for param in _sweep_cases():
            a, grid_q, depth = param.values
            mu_lower_bound(a, depth, grid_q=grid_q)
        assert sum(ratios) >= 70 and len(beams) >= 30

    def test_cli_json_matches_unscaled_walk(self, monkeypatch, capsys, tmp_path):
        from absnorm import as_matrix, matrix_to_json
        from absnorm.cli import main

        name, a, _, depth = _bench_search_inputs()[1]  # the (4, 6) job
        path = tmp_path / "a.json"
        path.write_text(json.dumps(matrix_to_json(as_matrix(a))))

        def outputs():
            got = []
            for threads in (1, 2):
                assert main(["mu", str(path), "--depth", str(depth), "--threads", str(threads),
                             "--format", "json"]) == 0
                got.append(capsys.readouterr().out)
            return got

        one, two = outputs()
        assert one == two
        _unscaled(monkeypatch)
        assert outputs() == [one, one]

    def test_balanced_norm_of_a_is_rho_abs(self):
        # S |A| S^-1 shares its Perron vector with its transpose, so
        # ||R∘A||_2 <= ||R∘|A|||_2 = rho(|A|).
        import absnorm.bounds as bounds_mod
        from absnorm import nonneg_spectral_radius

        rng = np.random.default_rng(71)
        for i in range(60):
            n = 2 + i % 6
            a = rng.standard_normal((n, n))
            if i % 3 == 0:
                a = a + 1j * rng.standard_normal((n, n))
            s, _ = bounds_mod._normalized(as_matrix(a))
            ratio = bounds_mod._balance(s)
            rho = nonneg_spectral_radius(np.abs(s.arr), tol=1e-10).rho
            assert ratio is not None, i
            assert np.linalg.norm(ratio * s.arr, 2) <= np.linalg.norm(ratio * np.abs(s.arr), 2)
            assert np.linalg.norm(ratio * np.abs(s.arr), 2) <= rho * (1 + 1e-12), i

    @pytest.mark.parametrize("a", [
        HADAMARD, np.kron(HADAMARD, HADAMARD), np.zeros((3, 3)), np.array([[2.0]]),
        -np.eye(3), np.diag([1.0, -2.0, 3.0])[[2, 0, 1]][:, [2, 0, 1]],
    ], ids=["hadamard", "hadamard4", "zero", "1x1", "minus_identity", "permuted_diagonal"])
    def test_no_ratio_where_it_is_one(self, a):
        import absnorm.bounds as bounds_mod

        s, _ = bounds_mod._normalized(as_matrix(a))
        assert bounds_mod._balance(s) is None

    def test_no_ratio_without_positive_perron_vectors(self):
        # A Perron vector with a zero entry, and a chain whose Perron run
        # does not close, fall back to the unscaled walk.
        import absnorm.bounds as bounds_mod
        from absnorm.perron import PerronResult

        s, _ = bounds_mod._normalized(as_matrix([[0.5, 0.25], [0.0, 0.75]]))
        dead = PerronResult(0.75, np.array([0.0, 1.0]), 1, (0.75, 0.75))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert bounds_mod._balance(s, dead) is None
            chain, _ = bounds_mod._normalized(as_matrix(0.9 * np.eye(40, k=1)))
            assert bounds_mod._balance(chain) is None

    def test_no_ratio_when_the_perron_run_raises(self, monkeypatch):
        # A Perron run that does not close leaves the walk unscaled.
        import absnorm.bounds as bounds_mod
        from absnorm import NonConvergenceError

        def open_bracket(b, tol=1e-10):
            raise NonConvergenceError("did not close", iterations=1, bracket=(0.0, 1.0))

        a = np.random.default_rng(5).standard_normal((4, 4))
        s, _ = bounds_mod._normalized(as_matrix(a))
        assert bounds_mod._balance(s) is not None
        monkeypatch.setattr(bounds_mod, "nonneg_spectral_radius", open_bracket)
        assert bounds_mod._balance(s) is None
        got = mu_lower_bound(a, 5)
        _unscaled(monkeypatch)
        assert got == mu_lower_bound(a, 5)

    @pytest.mark.parametrize("seed", range(4))
    def test_reducible_inputs_clip_the_ratio(self, monkeypatch, seed):
        # Block-triangular |A|: the ratio spans at most 2^32 either way, and
        # the reports are the unscaled walk's, with no RuntimeWarning.
        import absnorm.bounds as bounds_mod

        rng = np.random.default_rng(seed)
        b = rng.standard_normal((4, 4))
        b[2:, :2] = 0.0
        b[:2, :2] *= 1e-12
        perm = rng.permutation(4)
        a = b[perm][:, perm]
        s, _ = bounds_mod._normalized(as_matrix(a))
        ratio = bounds_mod._balance(s)
        assert ratio is not None
        assert 2.0**-32 <= ratio.min() and ratio.max() <= 2.0**32
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _walk_results(a, 2, 5, monkeypatch)
            _unscaled(monkeypatch)
            assert got == _walk_results(a, 2, 5, monkeypatch)

    def test_balanced_level_bounds_cover_the_full_tree(self, monkeypatch):
        # Every V_r the balanced cut reads, a power of ||R∘A||_2, bounds
        # ||R∘Q||_2 over the whole of level r.
        import absnorm.bounds as bounds_mod

        levels, reads, level_norms, reaches = [], [], bounds_mod._LevelNorms, bounds_mod._reaches

        class Recording(level_norms):
            def __init__(self, *args):
                super().__init__(*args)
                levels.append(self)

        def reading(hi, ups, lows):
            if any(hi is level.hi and level.ratio is not None for level in levels):
                reads.append(list(ups[: len(lows)]))
            return reaches(hi, ups, lows)

        monkeypatch.setattr(bounds_mod, "_LevelNorms", Recording)
        monkeypatch.setattr(bounds_mod, "_reaches", reading)
        cases = [param.values for param in _sweep_cases()][8:48]
        cases += [(a, q, depth) for _, a, q, depth in _bench_search_inputs()]
        checked = 0
        for a, grid_q, depth in cases:
            levels.clear()
            reads.clear()
            mu_lower_bound(a, depth, grid_q=grid_q)
            s, _ = bounds_mod._normalized(as_matrix(a))
            ratio = bounds_mod._balance(s)
            if not reads:
                continue
            _, _, _, arr, da = bounds_mod._search_setup(s, grid_q, depth)
            tops = []
            full_tree = bounds_mod._levels(arr, da, max(len(r) for r in reads), 1, lambda j: 0.0)
            for _, level, _, _, _ in full_tree:
                tops.append(bounds_mod._batch_norms(ratio * level.interior).max())
            for bound in reads:
                assert all(v >= t * (1 - 1e-12) for v, t in zip(bound, tops))
            checked += 1
        assert checked >= 30

    @staticmethod
    def _interiors(monkeypatch, a, depth):
        import absnorm.bounds as bounds_mod

        built, level_norms = [], bounds_mod._LevelNorms

        class Counting(level_norms):
            def __init__(self, interior, depth, threads, ratio=None, plain_hi=None):
                if ratio is None:  # the plain levels and the beam's, not the balanced views
                    built.append(len(interior))
                super().__init__(interior, depth, threads, ratio, plain_hi)

        with monkeypatch.context() as patch:
            patch.setattr(bounds_mod, "_LevelNorms", Counting)
            report = mu_bounds(a, depth, use_shortcut=False)
        return sum(built), report

    def test_balanced_walk_builds_few_interiors(self, monkeypatch):
        # Beam included, the balanced walk builds 2,785 interiors where the
        # unscaled walk builds 8,273.
        a = np.random.default_rng(31).standard_normal((4, 4))
        balanced, report = self._interiors(monkeypatch, a, 6)
        _unscaled(monkeypatch)
        unscaled, expected = self._interiors(monkeypatch, a, 6)
        assert report == expected
        assert balanced <= 0.4 * unscaled

    def test_never_more_interiors_on_the_bench_jobs(self, monkeypatch):
        import absnorm.bounds as bounds_mod

        rows, extend = [], bounds_mod._extend

        def counting(batch, factors, threads=1):
            rows.append(len(batch) * len(factors))
            return extend(batch, factors, threads)

        def walk_rows(a, grid_q, depth):
            rows.clear()
            with monkeypatch.context() as patch:
                patch.setattr(bounds_mod, "_beam_floor", beam_floor)  # the beam's rows are not the walk's
                patch.setattr(bounds_mod, "_extend", counting)
                mu_bounds(a, depth, grid_q=grid_q)
            return sum(rows)

        def beam_floor(*args):
            with monkeypatch.context() as patch:
                patch.setattr(bounds_mod, "_extend", extend)
                return plain_beam(*args)

        plain_beam = bounds_mod._beam_floor
        for name, a, grid_q, depth in _bench_search_inputs():
            balanced = walk_rows(a, grid_q, depth)
            with monkeypatch.context() as patch:
                _unscaled(patch)
                unscaled = walk_rows(a, grid_q, depth)
            assert balanced <= unscaled, name
            if name == "search.n4d6":
                assert balanced < 10_000 < unscaled


class TestLayouts:
    """A matrix that is not C-contiguous gives the results of its contiguous copy."""

    @staticmethod
    def _results(a, grid_q):
        from absnorm import build_norm, eval_norm, sign_equivalent_to_abs

        report = mu_bounds(a, 3, grid_q=grid_q)
        lower, word = mu_lower_bound(a, 3, grid_q=grid_q)
        upper = mu_upper_bound(a, 3, grid_q=grid_q)
        growth = check_growth_condition(a, GrowthQuery(eps=0.1, m=3), grid_q=grid_q)
        norm = build_norm(a, c=2.0 * report.upper, m=2, grid_q=grid_q)
        x = np.arange(1.0, len(a) + 1.0)
        return (
            json.dumps(bounds_report_to_json(report)), lower, word_to_json(word), upper, growth,
            norm.certified_upper, norm._subtree.tolist(), eval_norm(norm, x),
            repr(sign_equivalent_to_abs(a)),
        )

    @pytest.mark.parametrize("layout", ["transpose", "fortran"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_every_entry_point(self, layout, field):
        rng = np.random.default_rng(72)
        z = rng.standard_normal((3, 3))
        if field == "complex":
            z = z + 1j * rng.standard_normal((3, 3))
        a = z.T if layout == "transpose" else np.asfortranarray(z)
        assert not a.flags.c_contiguous
        grid_q = 4 if field == "complex" else 2
        assert self._results(a, grid_q) == self._results(np.ascontiguousarray(a), grid_q)


def _whole_array_tie(values):
    """The tie rule over one whole array: the oracle for the streamed one."""
    vmax = float(values.max())
    thresh = vmax - 1e-12 * max(1.0, abs(vmax))
    first = int(np.argmax(values >= thresh))
    return first, float(values[first])


class TestStreamedTie:
    @staticmethod
    def _arrays():
        rng = np.random.default_rng(44)
        for _ in range(300):
            size = int(rng.integers(1, 200))
            kind = rng.integers(4)
            if kind == 0:
                values = rng.random(size)
            elif kind == 1:  # all tie, within the slack or exactly
                values = 1.5 * (1 + 1e-13 * rng.random(size)) if rng.random() < 0.5 else np.full(size, 0.7)
            elif kind == 2:  # a few distinct values, many ties
                values = rng.choice([0.0, 2.0, 2.0 * (1 - 5e-13), 2.0 * (1 - 2e-12)], size)
            else:  # gated-out terminals read 0
                values = rng.random(size) * 3
                values[rng.random(size) < 0.5] = 0.0
            yield rng, values
        yield rng, np.zeros(5)
        yield rng, np.arange(100.0)

    def test_matches_whole_array(self):
        import absnorm.bounds as bounds_mod

        for rng, values in self._arrays():
            cuts = np.sort(rng.integers(0, len(values) + 1, int(rng.integers(0, 6))))
            starts = np.concatenate(([0], cuts))
            blocks = [bounds_mod._leaders(b, start) for b, start in zip(np.split(values, cuts), starts)]
            want = _whole_array_tie(values)
            # Split into blocks, and whole as one block is read.
            for got in (bounds_mod._first_within_tie(blocks), bounds_mod._first_tie(values)):
                assert got == want

    def test_all_tie_keeps_one_leader(self):
        import absnorm.bounds as bounds_mod

        lead, values = bounds_mod._leaders(np.full(4096, 2.5), 8192)
        assert lead.tolist() == [8192] and values.tolist() == [2.5]

    def test_tie_rule_reads_finite_nonnegative_values(self, monkeypatch):
        # The walk runs on 2^-e A, so every product the node budget admits is
        # finite, and each value the tie rule reads is 0 or rho^(1/depth) of a
        # finite terminal: the rule has no arm for NaN or infinity.
        import absnorm.bounds as bounds_mod

        seen = {"first_tie": [], "leaders": []}
        first_tie, leaders = bounds_mod._first_tie, bounds_mod._leaders

        def first_tie_spy(values):
            seen["first_tie"].append(values)
            return first_tie(values)

        def leaders_spy(values, start):
            seen["leaders"].append(values)
            return leaders(values, start)

        monkeypatch.setattr(bounds_mod, "_first_tie", first_tie_spy)
        monkeypatch.setattr(bounds_mod, "_leaders", leaders_spy)
        rng = np.random.default_rng(45)
        cases = [(rng.standard_normal((n, n)), 2, depth) for n, depth in ((3, 5), (4, 4), (5, 3), (6, 2))]
        # 2^26 words of depth 26 is the largest 2x2 tree the node budget admits.
        cases += [(rng.standard_normal((2, 2)), 2, depth) for depth in (26, 26, 12)]
        cases += [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 4, 3) for n in (2, 3)]
        cases += [(np.triu(rng.standard_normal((3, 3))), 4, 3)]
        cases += [(scale * HADAMARD, 2, 4) for scale in (1e-200, 1e100)]
        cases += [(scale * rng.standard_normal((3, 3)), 2, 4) for scale in (1e-300, 1e300)]
        for block in (bounds_mod._BLOCK, 16):
            monkeypatch.setattr(bounds_mod, "_BLOCK", block)
            for a, grid_q, depth in cases:
                mu_bounds(a, depth, grid_q=grid_q, use_shortcut=False)
        assert len(seen["first_tie"]) > 100 and len(seen["leaders"]) > 100
        for values in seen["first_tie"] + seen["leaders"]:
            assert values.size and np.all(np.isfinite(values)) and np.all(values >= 0)


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

    @pytest.mark.parametrize("kind", sorted(_square_bound_batches()))
    def test_balanced_bound_dominates_plain_eigvals(self, kind):
        # On a balanced level the bound is taken on R∘T and must still cover
        # the eigenvalues computed from the plain T, whose backward error R
        # can magnify by up to max R_ij.
        import absnorm.bounds as bounds_mod
        from absnorm.diagonals import _alphabet

        interior = _square_bound_batches()[kind]
        n = interior.shape[-1]
        phases = _alphabet(n, 4 if np.iscomplexobj(interior) else None, True)[1][:4]
        terminals = bounds_mod._terminal(interior, phases)
        radii = np.abs(np.linalg.eigvals(terminals)).max(axis=-1)
        rows = np.arange(len(interior))
        for spread in (1.0, 1e3):
            s = spread ** np.linspace(-0.5, 0.5, n)
            ratio = s[:, None] / s[None, :]
            for depth in (1, 3):
                plain = bounds_mod._LevelNorms(interior, depth, 1)
                level = bounds_mod._LevelNorms(interior, depth, 1, ratio, plain.hi)
                bound = bounds_mod._root_bounds(level, rows, ratio * terminals)
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

    @staticmethod
    def _repeat_formula(level, rows, terminals):
        """The square bound with every per-interior term repeated once per
        letter by ``np.repeat``: the oracle of the broadcast form."""
        n, letters = terminals.shape[-1], len(terminals) // len(rows)
        scale = np.abs(level.products(rows)).max(axis=(1, 2))
        scale = np.where(scale > 0, scale, 1.0)
        scaled = terminals / np.repeat(scale, letters)[:, None, None]
        square = (scaled @ scaled).view(np.float64)
        units = n + (4 if np.iscomplexobj(terminals) else 2)
        units += 2 * n * n + 1 if level.ratio is None else 4
        gamma = units * 2.0**-53 / (1 - units * 2.0**-53)
        bound = np.sqrt(np.square(square, out=square).sum(axis=(1, 2)))
        bound += gamma * np.repeat(np.square(level.hi[rows] / scale), letters)
        if level.ratio is not None:
            err = n * n * 2.0**-53 * level.ratio.max() * (level.plain_hi[rows] / scale)
            bound += np.repeat(err * (2 * (level.hi[rows] / scale) + err), letters)
        root = 1.0 / level.depth
        return np.repeat(scale**root, letters) * (bound * (1 + 1e-12)) ** (root / 2)

    @pytest.mark.parametrize("n, grid_q", [(2, None), (3, None), (4, None), (5, None), (2, 4), (3, 4)])
    def test_matches_repeat_formula_bit_for_bit(self, n, grid_q):
        # 2, 4, 8 and 16 sign letters, 4 and 16 letters of the q = 4 grid;
        # one interior and many, plain and balanced, as ``_gated_radii`` calls it.
        import absnorm.bounds as bounds_mod
        from absnorm.diagonals import _alphabet

        rng = np.random.default_rng(47 + n)
        interior = rng.standard_normal((40, n, n))
        if grid_q:
            interior = interior + 1j * rng.standard_normal((40, n, n))
        interior[3] = 0.0  # a zero interior divides by 1
        phases = _alphabet(n, grid_q, True)[1]
        s = 10.0 ** np.linspace(-1, 1, n)
        ratio = s[:, None] / s[None, :]
        checked = set()
        for rows in (np.array([5]), np.array([3]), np.arange(40), rng.permutation(40)[:17]):
            terminals = bounds_mod._terminal(interior[rows], phases)
            for depth in (1, 2, 3):
                plain = bounds_mod._LevelNorms(interior, depth, 1)
                balanced = bounds_mod._LevelNorms(interior, depth, 1, ratio, plain.hi)
                for level, bounded in ((plain, terminals), (balanced, ratio * terminals)):
                    got = bounds_mod._root_bounds(level, rows, bounded)
                    want = self._repeat_formula(level, rows, bounded)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                    checked.add((len(rows) > 1, level.ratio is None))
        assert len(phases) in (2, 4, 8, 16) and len(checked) == 4


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

    @pytest.mark.parametrize("kind", ["random", "repeated", "complex", "one"])
    def test_maxima_are_found_once(self, monkeypatch, kind):
        # top() and root() run their SVDs on the first call only; the norms
        # top() returns are read-only, so no caller can change a later read.
        import absnorm.bounds as bounds_mod

        rng = np.random.default_rng(48)
        batch = {
            "random": rng.standard_normal((300, 4, 4)),
            "repeated": np.repeat(rng.standard_normal((10, 3, 3)), 30, axis=0),
            "complex": _bracket_batches()["complex"],
            "one": rng.standard_normal((1, 3, 3)),
        }[kind]
        calls, norms = [], bounds_mod._norms
        monkeypatch.setattr(bounds_mod, "_norms", lambda b: calls.append(len(b)) or norms(b))
        n = batch.shape[-1]
        s = 2.0 ** np.arange(n)
        plain = bounds_mod._LevelNorms(batch, 3, 1)
        for level in (plain, bounds_mod._LevelNorms(batch, 3, 1, s[:, None] / s[None, :], plain.hi)):
            calls.clear()
            top = level.top()
            assert 0 < len(calls) <= 2
            taken = len(calls)
            root = level.root()
            assert level.top() is top and level.root() == root
            assert len(calls) == taken
            assert root == float((top ** (1.0 / 3)).max())
            assert top.max() == bounds_mod._batch_norms(level.products(np.arange(len(batch)))).max()
            assert not top.flags.writeable
            with pytest.raises(ValueError):
                top[0] = 0.0

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


def _one_pass_batches():
    """Levels where the one-pass sum of squares needs its scaled fallback, with
    the ratio R of the balanced norm each is also tried under."""
    rng = np.random.default_rng(45)
    base = rng.standard_normal((300, 4, 4))
    mixed = base.copy()
    mixed[::2] *= 1e-170  # whole rows near 1e-170 between rows near 1
    mixed[1::4, :, :2] *= 1e-170  # and 1 and 1e-170 within a row
    cplx = base[:, :3, :3] + 1j * rng.standard_normal((300, 3, 3))
    t = np.array([1.0, 2.0**-40, 0.5, 2.0**-60])
    clipped = np.maximum(t / t.max(), 2.0**-32)  # as _balance clips s
    return {
        "mixed": (mixed, None),
        "all_tiny": (base * 1e-160, None),  # squares underflow, sums below 2^-900
        "zero": (np.zeros((7, 3, 3)), None),
        "complex": (cplx, None),
        "complex_mixed": (cplx * np.where(np.arange(300) % 3 == 0, 1e-170, 1.0)[:, None, None], None),
        "clipped_ratio": (mixed, clipped[:, None] / clipped[None, :]),
        "clipped_ratio_complex": (cplx * 1e-160, clipped[:3, None] / clipped[None, :3]),
    }


def _scaled_level_hi(batch, ratio=None):
    """hi from the scaled bound on every row, as ``_level_hi`` falls back to."""
    import absnorm.bounds as bounds_mod

    mag = np.abs(batch)
    return bounds_mod._frobenius(mag if ratio is None else mag * ratio) * (1 + 1e-12)


class TestOnePassBound:
    """hi from one sum of squares per interior, with the scaled fallback."""

    @pytest.mark.parametrize("kind", sorted(_one_pass_batches()))
    def test_bound_dominates_svd_and_matches_scaled(self, kind):
        import absnorm.bounds as bounds_mod

        batch, ratio = _one_pass_batches()[kind]
        level = bounds_mod._LevelNorms(batch, 1, 1)
        balanced = level if ratio is None else bounds_mod._LevelNorms(batch, 1, 1, ratio, level.hi)
        for lv, products in ((level, batch), (balanced, batch if ratio is None else ratio * batch)):
            exact = bounds_mod._batch_norms(products)
            assert np.all(lv.hi >= exact)
            scaled = _scaled_level_hi(batch, lv.ratio)
            assert np.all(np.abs(lv.hi - scaled) <= 1e-12 * scaled)

    def test_fallback_runs_only_outside_the_range(self, monkeypatch):
        import absnorm.bounds as bounds_mod

        fallen, frobenius = [], bounds_mod._frobenius

        def counting(mag):
            fallen.append(len(mag))
            return frobenius(mag)

        monkeypatch.setattr(bounds_mod, "_frobenius", counting)
        batch = _one_pass_batches()["mixed"][0]
        bounds_mod._level_hi(batch)
        assert fallen == [150]  # the rows scaled by 1e-170 whole
        fallen.clear()
        bounds_mod._level_hi(np.random.default_rng(46).standard_normal((50, 3, 3)))
        assert fallen == []

    @pytest.mark.parametrize("a, grid_q, depth", [
        pytest.param(np.array([[0.0, 1.0], [1e-300, 0.0]]), 2, 6, id="tiny_cycle"),
        pytest.param(np.array([[0.3, 1.0, 0.0], [0.0, -0.7, 1.0], [1e-170, 0.0, 0.5]]), 2, 6,
                     id="mixed_cycle"),
        pytest.param(np.array([[1.0, 1e-170, -1.0], [2.0, 1.0, 1e-170], [1e-170, -1.0, 0.5]]), 2, 5,
                     id="mixed"),
        pytest.param(np.array([[0.5j, 1.0, 0.0], [0.0, 0.2, 1.0 - 1.0j], [1e-200, 0.0, -0.3]]), 4, 3,
                     id="complex_tiny"),
        pytest.param(np.random.default_rng(47).standard_normal((4, 4)), 2, 5, id="random"),
    ])
    def test_reports_match_scaled_bound(self, monkeypatch, a, grid_q, depth):
        import absnorm.bounds as bounds_mod
        from absnorm import build_norm, eval_norm

        def reports():
            out = []
            for threads in (1, 2):
                report = mu_bounds(a, depth, grid_q=grid_q, threads=threads, use_shortcut=False)
                out.append(json.dumps(bounds_report_to_json(report)))
                growth = check_growth_condition(a, GrowthQuery(eps=0.1, m=depth), grid_q, threads)
                out.append(repr(growth))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                norm = build_norm(a, 2.0 * spectral_norm(as_matrix(a)), min(depth, 4), grid_q)
            x = np.linspace(-1.0, 1.0, len(a)) + (0.5j if norm.complex_letters else 0.0)
            out.append(repr((norm.certified_upper, norm._subtree.tolist(), eval_norm(norm, x))))
            return out

        got = reports()
        monkeypatch.setattr(bounds_mod, "_level_hi", _scaled_level_hi)
        assert got == reports()


class TestExtend:
    """Every row of ``_extend`` is its own pair's product, bit for bit."""

    @pytest.mark.parametrize("kind", ["real", "complex", "rows", "complex_rows"])
    def test_rows_are_per_pair_products(self, monkeypatch, kind):
        import absnorm.bounds as bounds_mod

        rng = np.random.default_rng(48)
        n, shape = 4, (97, 1 if "rows" in kind else 4, 4)
        batch, factors = rng.standard_normal(shape), rng.standard_normal((8, n, n))
        if "complex" in kind:
            batch = batch + 1j * rng.standard_normal(shape)
            factors = factors * np.exp(0.5j * np.arange(8))[:, None, None]
        want = np.array([np.matmul(b, f) for b in batch for f in factors])
        for chunk in (bounds_mod._CHUNK, 7):
            monkeypatch.setattr(bounds_mod, "_CHUNK", chunk)
            for threads in (1, 2):
                got = bounds_mod._extend(batch, factors, threads)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (chunk, threads)


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

    @pytest.mark.parametrize("s", [1.0, 1e-12])
    def test_exact_is_relative_below_unit_scale(self, s):
        # The bench's search.n6d3 input at seed 1 keeps a 16% gap at depth 3 at
        # every scale; tol is relative to max|a_ij| below 1, so a tiny input is
        # not called exact.
        _, a, grid_q, depth = next(job for job in _bench_search_inputs() if job[0] == "search.n6d3")
        report = mu_bounds(s * a, max_depth=depth, grid_q=grid_q)
        assert report.upper > report.lower * 1.001
        assert not report.exact

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

    def test_every_witness_letter_leads_with_one(self):
        # The walks run over the quotient alphabet and the sign-equivalence
        # shortcut scales its one letter, so no reported letter needs rescaling.
        rng = np.random.default_rng(17)
        cases = [(rng.standard_normal((n, n)), 2, 3) for n in (1, 2, 3, 4) for _ in range(3)]
        cases += [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), q, depth)
            for q, depth in ((4, 3), (8, 2)) for n in (1, 2, 3)
        ]
        b = rng.random((3, 3)) + 0.1
        d, e = np.exp(2j * np.pi * rng.random(3)), np.exp(2j * np.pi * rng.random(3))
        shortcuts = [
            # a_00 < 0: the combined sign letter starts with -1 before scaling.
            (np.array([1.0, -1.0, 1.0])[:, None] * b * np.array([-1.0, 1.0, 1.0]), 2, 3),
            (d[:, None] * b * e[None, :], 4, 2),
            (b, 2, 3),
        ]
        for a, q, depth in cases + shortcuts:
            report = mu_bounds(a, max_depth=depth, grid_q=q)
            again = bounds_report_from_json(json.loads(json.dumps(bounds_report_to_json(report))))
            lower, word = mu_lower_bound(a, max_depth=depth, grid_q=q)
            for w, value in ((report.lower_witness, report.lower),
                             (again.lower_witness, report.lower), (word, lower)):
                assert all(letter.phases[0] == 1 for letter in w.letters)
                rho = spectral_radius(word_product(a, w, terminal=True))
                assert rho ** (1.0 / w.k) == pytest.approx(value, rel=1e-9)
        assert [mu_bounds(a, max_depth=1).shortcut for a, _, _ in shortcuts] == [
            "sign_equivalent", "sign_equivalent", "nonnegative"
        ]

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
