import dataclasses
import itertools
import json

import numpy as np
import pytest

from absnorm import (
    GrowthQuery,
    WeightedLpNorm,
    build_norm,
    check_growth_condition,
    complexify_gap_search,
    contraction_check,
    enumerate_phase_diagonals,
    enumerate_sign_diagonals,
    eval_norm,
    mu_bounds,
    norm_from_json,
    norm_to_json,
    nonneg_spectral_radius,
    verify_norm_axioms,
)

SHARP = np.array([[1.0, 1.0], [-1.0, -1.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


def certified_upper(a, grid_q):
    report = mu_bounds(a, max_depth=4, grid_q=grid_q)
    if report.upper_heuristic:
        return nonneg_spectral_radius(np.abs(a), tol=1e-10).rho + 1e-10
    return report.upper


def unpruned(norm):
    """The same norm with subtree bounds that never cut a row: the full tree."""
    copy = dataclasses.replace(norm)
    object.__setattr__(copy, "_subtree", np.full_like(norm._subtree, np.inf))
    return copy


@pytest.fixture
def sharp_norm():
    return build_norm(SHARP, c=2.5, m=2)


class TestBuild:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            build_norm(SHARP, c=0.0, m=2)
        with pytest.raises(ValueError):
            build_norm(SHARP, c=-1.0, m=2)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive_scale(self, c):
        with pytest.raises(ValueError, match="positive and finite"):
            build_norm(HADAMARD, c=c, m=3)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            build_norm(SHARP, c=2.5, m=-1)

    def test_warns_when_scale_not_above_mu(self):
        with pytest.warns(UserWarning):
            norm = build_norm(SHARP, c=1.0, m=2)
        assert norm.c_below_certified_upper
        assert norm.certified_upper == pytest.approx(2.0, abs=1e-9)

    def test_no_warning_above_mu(self, recwarn, sharp_norm):
        assert not sharp_norm.c_below_certified_upper
        assert len(recwarn) == 0

    @pytest.mark.parametrize("s", [1e-12, 1e-200])
    def test_heuristic_cross_check_at_every_scale(self, recwarn, s):
        # On the complex grid the reference is the rho(|A|) cap; taken on the
        # unscaled |A| with an absolute margin it read 1e-10 at tiny scales.
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = float(np.abs(np.linalg.eigvals(np.abs(a))).max())
        base = build_norm(a, c=1.05 * rho, m=3, grid_q=4)
        norm = build_norm(s * a, c=1.05 * rho * s, m=3, grid_q=4)
        assert not norm.c_below_certified_upper
        assert len(recwarn) == 0
        assert norm.certified_upper / s >= rho
        assert norm.certified_upper / s == pytest.approx(base.certified_upper, rel=1e-9)

    def test_zero_matrix_is_euclidean(self):
        norm = build_norm(np.zeros((2, 2)), c=1.0, m=3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(2)
            assert eval_norm(norm, x) == pytest.approx(np.linalg.norm(x), rel=1e-15)

    def test_capacity_refusal(self):
        from absnorm import CapacityError

        a = np.eye(3) + np.eye(3, k=1) - np.eye(3, k=-1)
        with pytest.raises(CapacityError):
            build_norm(a, c=2.0, m=20)

    def test_capacity_boundary(self):
        # A 3x3 real matrix has L = 4 quotient sign letters: 4^13 <= 10^8 < 4^14.
        from absnorm import CapacityError

        a = np.eye(3) + np.eye(3, k=1) - np.eye(3, k=-1)
        assert build_norm(a, c=2.0, m=13).m == 13
        with pytest.raises(CapacityError):
            build_norm(a, c=2.0, m=14)

    def test_subtree_bounds_dominate_products(self):
        # A 2x2 real matrix has L = 2 letters; its interior tree has 2^17 >
        # _CHUNK interiors at depth 18, so the last bound comes from M_a M_b.
        from absnorm.bounds import _CHUNK

        m = 17
        assert 2**m > _CHUNK >= 2 ** (m - 1)
        a = np.random.default_rng(34).standard_normal((2, 2))
        c = 1.05 * certified_upper(a, 2)
        norm = build_norm(a, c=c, m=m)
        da = np.array([d.phases[:, None] * a for d in enumerate_sign_diagonals(2, quotient=True)])
        level, best = a[None], 0.0
        for k in range(1, m + 2):
            if k > 1:
                level = np.matmul(level[:, None], da[None]).reshape(-1, 2, 2)
            best = max(best, np.linalg.svd(level, compute_uv=False)[:, 0].max() / c**k)
            assert norm._subtree[k] >= best * (1 - 1e-12)
        assert norm._subtree[0] == 0.0
        assert len(norm._subtree) == m + 2


class TestEval:
    def test_hand_enumerated_basis_vector(self, sharp_norm):
        # Terms at e1: k=0 gives 1; k=1 gives sqrt(2)/2.5; k=2 gives
        # 2*sqrt(2)/6.25; the k=0 term wins.
        assert eval_norm(sharp_norm, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_hand_enumerated_terms(self):
        x = np.array([1.0, 0.0])
        m0 = build_norm(SHARP, c=2.5, m=0)
        m1 = build_norm(SHARP, c=2.5, m=1)
        m2 = build_norm(SHARP, c=2.5, m=2)
        assert eval_norm(m0, x) == pytest.approx(1.0)
        # depth-1 term is sqrt(2)/2.5 ~ 0.5657, still below the k=0 term
        assert eval_norm(m1, x) == pytest.approx(1.0)
        assert eval_norm(m2, x) == pytest.approx(1.0)

    def test_homogeneity(self, sharp_norm):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(2)
            t = rng.standard_normal()
            assert eval_norm(sharp_norm, t * x) == pytest.approx(
                abs(t) * eval_norm(sharp_norm, x), rel=1e-12
            )

    def test_depth_zero_is_euclidean(self):
        norm = build_norm(SHARP, c=2.5, m=0)
        x = np.array([0.3, -0.4])
        assert eval_norm(norm, x) == pytest.approx(0.5, rel=1e-15)

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(2)
        norms = [build_norm(SHARP, c=2.1, m=m) for m in range(5)]
        for _ in range(20):
            x = rng.standard_normal(2)
            values = [eval_norm(n, x) for n in norms]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_euclidean_equivalence_constants(self):
        # Lower: the k=0 term. Upper: max over levels of c^-k * beta_k
        # with beta_k the exhaustive per-depth product-norm maxima.
        c, m = 2.1, 4
        norm = build_norm(SHARP, c=c, m=m)
        beta = check_growth_condition(
            SHARP, GrowthQuery(eps=None, m=m, level=1.0)
        ).sequence
        upper_const = max(1.0, max(b / c**k for k, b in enumerate(beta, start=1)))
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(2)
            v = eval_norm(norm, x)
            l2 = np.linalg.norm(x)
            assert v >= l2 * (1 - 1e-12)
            assert v <= upper_const * l2 * (1 + 1e-12)

    @staticmethod
    def brute_force(a, c, m, letters, x):
        """max_k c^-k ||A D_k ... A D_1 x||_2 over every word, one at a time."""
        best = np.linalg.norm(x)
        for k in range(1, m + 1):
            for word in itertools.product(letters, repeat=k):
                v = x
                for d in word:
                    v = a @ (d.phases * v)
                best = max(best, np.linalg.norm(v) / c**k)
        return best

    def test_matches_brute_force_real(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 3))
        c = 1.1 * nonneg_spectral_radius(np.abs(a)).rho
        norm = build_norm(a, c=c, m=4)
        letters = enumerate_sign_diagonals(3)
        for _ in range(3):
            x = rng.standard_normal(3)
            assert eval_norm(norm, x) == pytest.approx(
                self.brute_force(a, c, 4, letters, x), rel=1e-13
            )

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = 1.1 * nonneg_spectral_radius(np.abs(a)).rho
        norm = build_norm(a, c=c, m=3, grid_q=4)
        letters = enumerate_phase_diagonals(2, 4)
        for _ in range(3):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert eval_norm(norm, x) == pytest.approx(
                self.brute_force(a, c, 3, letters, x), rel=1e-13
            )

    @pytest.mark.parametrize("n, m, grid_q", [(3, 6, 2), (3, 3, 4)])
    def test_pruning_keeps_values(self, monkeypatch, n, m, grid_q):
        import absnorm.extremal as extremal_mod

        rng = np.random.default_rng(33)
        a = rng.standard_normal((n, n))
        if grid_q > 2:
            a = a + 1j * rng.standard_normal((n, n))
        c = 1.05 * certified_upper(a, grid_q)
        norm = build_norm(a, c=c, m=m, grid_q=grid_q)
        full = unpruned(norm)
        # A global phase on a letter leaves every term unchanged.
        letters = (
            enumerate_phase_diagonals(n, grid_q, quotient=True)
            if grid_q > 2
            else enumerate_sign_diagonals(n, quotient=True)
        )
        xs = [rng.standard_normal(n) + (1j * rng.standard_normal(n) if grid_q > 2 else 0)
              for _ in range(4)]
        for x in xs:
            value = eval_norm(norm, x)
            assert value == eval_norm(full, x)
            assert value == pytest.approx(self.brute_force(a, c, m, letters, x), rel=1e-13)

        rows = []
        extend = extremal_mod._extend

        def counting(batch, factors, threads=1):
            rows.append(len(batch) * len(factors))
            return extend(batch, factors, threads)

        monkeypatch.setattr(extremal_mod, "_extend", counting)
        for x in xs:
            eval_norm(norm, x)
        tree = sum(len(letters) ** k for k in range(1, m + 1))
        assert sum(rows) < 0.05 * len(xs) * tree

    @pytest.mark.parametrize("s", [1e60, 1e100, 1e-200])
    def test_every_scale(self, s):
        x = np.array([0.3, -1.7])
        base = build_norm(HADAMARD, c=1.5, m=6)
        norm = build_norm(s * HADAMARD, c=1.5 * s, m=6)
        assert eval_norm(norm, x) == pytest.approx(eval_norm(base, x), rel=1e-12)
        ratio = contraction_check(norm, trials=5, seed=0).max_empirical_ratio
        expected = contraction_check(base, trials=5, seed=0).max_empirical_ratio
        assert ratio / s == pytest.approx(expected, rel=1e-12)

    def test_rejects_complex_vector_on_real_letters(self, sharp_norm):
        with pytest.raises(ValueError):
            eval_norm(sharp_norm, np.array([1j, 0.0]))


class TestContraction:
    def test_nonnegative_matrix_ratio_below_scale(self):
        rng = np.random.default_rng(5)
        b = rng.random((2, 2))
        c = nonneg_spectral_radius(b).rho + 0.1
        norm = build_norm(b, c=c, m=4)
        report = contraction_check(norm, trials=100, seed=0)
        assert report.passed
        assert report.max_empirical_ratio <= c + 1e-9

    def test_structural_inequality_even_below_mu(self):
        with pytest.warns(UserWarning):
            norm = build_norm(SHARP, c=1.0, m=3)
        report = contraction_check(norm, trials=100, seed=0)
        assert report.structural_failures == 0
        assert report.max_empirical_ratio > 1.0

    def test_zero_matrix_ratios_vanish(self):
        norm = build_norm(np.zeros((2, 2)), c=1.0, m=2)
        report = contraction_check(norm, trials=50, seed=0)
        assert report.passed
        assert report.max_empirical_ratio == 0.0

    def test_ratio_matches_separate_evaluations(self):
        # N_m(x) is read off the depth-(m+1) walk; it must equal eval_norm.
        a = np.random.default_rng(35).standard_normal((3, 3))
        norm = build_norm(a, c=1.05 * certified_upper(a, 2), m=5)
        rng = np.random.default_rng(4)
        ratio = 0.0
        for _ in range(10):
            x = rng.standard_normal(3)
            ratio = max(ratio, eval_norm(norm, a @ x) / eval_norm(norm, x))
        assert contraction_check(norm, trials=10, seed=4).max_empirical_ratio == ratio

    def test_ratio_stabilizes_below_scale_with_depth(self):
        c = 2.1
        ratios = []
        for m in (2, 4, 6):
            norm = build_norm(SHARP, c=c, m=m)
            ratios.append(contraction_check(norm, trials=100, seed=1).max_empirical_ratio)
        assert ratios[-1] <= c + 1e-9
        assert abs(ratios[-1] - ratios[-2]) <= 0.05


class TestAxioms:
    def test_real_norm_all_axioms(self):
        norm = build_norm(SHARP, c=2.1, m=4)
        report = verify_norm_axioms(norm, trials=500, seed=0)
        assert report.passed

    def test_complex_grid_norm_all_axioms(self):
        a = np.array([[1.0, 1.0j], [1.0, -1.0]])
        norm = build_norm(a, c=2.5, m=3, grid_q=4)
        report = verify_norm_axioms(norm, trials=300, seed=1)
        assert report.passed

    def test_sign_flip_exact(self):
        norm = build_norm(SHARP, c=2.1, m=4)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal(2)
            assert eval_norm(norm, -x) == eval_norm(norm, x)

    def test_non_finite_value_fails_positivity(self, monkeypatch):
        import absnorm.extremal as extremal_mod

        norm = build_norm(SHARP, c=2.1, m=2)
        monkeypatch.setattr(extremal_mod, "eval_norm", lambda nm, x: float("inf"))
        report = verify_norm_axioms(norm, trials=5, seed=0)
        assert report.positivity_failures == 5
        assert not report.passed

    def test_axioms_even_below_mu(self):
        # Truncations are genuine norms regardless of the scale.
        with pytest.warns(UserWarning):
            norm = build_norm(SHARP, c=0.5, m=3)
        report = verify_norm_axioms(norm, trials=300, seed=2)
        assert report.passed


class TestGapSearch:
    def test_weighted_l1_closed_form_coincides(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            norm = WeightedLpNorm(rng.random(n) + 0.2, 1)
            report = complexify_gap_search(a, norm, trials=50, seed=3)
            assert report.gap <= 1e-9
            assert report.gap >= -1e-12

    def test_weighted_linf_closed_form_coincides(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            norm = WeightedLpNorm(rng.random(n) + 0.2, np.inf)
            report = complexify_gap_search(a, norm, trials=50, seed=4)
            assert report.gap <= 1e-9

    def test_identity_matrix(self):
        norm = WeightedLpNorm(np.ones(3), 2)
        report = complexify_gap_search(np.eye(3), norm, trials=50, seed=5)
        assert report.real_sup == pytest.approx(1.0, rel=1e-12)
        assert report.complex_sup == pytest.approx(1.0, rel=1e-12)

    def test_extremal_norm_descriptor(self):
        norm = build_norm(SHARP, c=2.1, m=3)
        report = complexify_gap_search(SHARP, norm, trials=50, seed=6)
        assert report.gap >= -1e-12
        assert report.real_sup <= 2.1 + 1e-9

    def test_rejects_complex_matrix(self):
        with pytest.raises(ValueError):
            complexify_gap_search(np.array([[1j]]), WeightedLpNorm([1.0], 1))


class TestDescriptorJson:
    def test_round_trip(self, sharp_norm):
        data = json.loads(json.dumps(norm_to_json(sharp_norm)))
        again = norm_from_json(data)
        assert again.matrix == sharp_norm.matrix
        assert again.c == sharp_norm.c
        assert again.m == sharp_norm.m
        assert again.grid_q == sharp_norm.grid_q
        x = np.array([0.7, -0.2])
        assert eval_norm(again, x) == eval_norm(sharp_norm, x)
