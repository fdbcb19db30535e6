import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from absnorm import (
    DimensionError,
    GrowthQuery,
    TruncatedExtremalNorm,
    WeightedLpNorm,
    as_matrix,
    build_norm,
    check_growth_condition,
    complexify_gap_search,
    contraction_check,
    enumerate_phase_diagonals,
    enumerate_sign_diagonals,
    eval_norm,
    mu_bounds,
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
        with pytest.raises(ValueError, match="positive and finite"):
            TruncatedExtremalNorm(as_matrix(HADAMARD), c, 3, 2)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            build_norm(SHARP, c=2.5, m=-1)

    @pytest.mark.parametrize("m", [2.5, 2.0, True])
    def test_rejects_non_integer_depth(self, m):
        # build_norm used to truncate 2.5 to 2; the constructor raised TypeError.
        with pytest.raises(ValueError, match="nonnegative integer"):
            build_norm(np.eye(2), c=2.0, m=m)
        with pytest.raises(ValueError, match="nonnegative integer"):
            TruncatedExtremalNorm(as_matrix(np.eye(2)), 2.0, m, 2)

    def test_numpy_integer_depth_accepted(self):
        norm = build_norm(SHARP, c=2.5, m=np.int64(3), grid_q=np.int32(2))
        assert norm == build_norm(SHARP, c=2.5, m=3)

    @pytest.mark.parametrize("grid_q", [1, 0, -4, 3, 4.0, True])
    def test_rejects_grid_order(self, grid_q):
        for a in (SHARP, np.eye(2)):
            with pytest.raises(ValueError, match="grid order"):
                build_norm(a, c=2.5, m=2, grid_q=grid_q)
            with pytest.raises(ValueError, match="grid order"):
                TruncatedExtremalNorm(as_matrix(a), 2.5, 2, grid_q)

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

    def test_scale_out_of_float_range_is_refused(self):
        # 2^-e c = 1e-100 / 2: c^-4 would overflow, and raised a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="too far from the matrix scale"):
                build_norm([[1, 1], [1, -1]], c=1e-100, m=3)

    @pytest.mark.parametrize("c, m, fits", [
        (2.0**-255, 3, True), (2.0**-256, 3, False), (2.0**255, 3, True), (2.0**256, 3, False),
        (2.0**-1021, 0, True), (2.0**-1022, 0, False),
    ])
    def test_scale_boundary(self, c, m, fits):
        # max|a_ij| = 0.5 leaves c unscaled; c^-k must be normal for k <= m + 1.
        a = as_matrix(0.5 * HADAMARD)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if fits:
                norm = TruncatedExtremalNorm(a, c, m, 2)
                assert np.all(np.isfinite(norm._subtree))
            else:
                with pytest.raises(ValueError, match=f"k <= {m + 1}"):
                    TruncatedExtremalNorm(a, c, m, 2)

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

    def test_row_factors_are_letters_times_transpose(self):
        # x^T D A^T = (A D x)^T on 2^-e A, one factor per letter of A's walk,
        # C-ordered: a transposed view rounds the evaluator's products apart.
        rng = np.random.default_rng(38)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        real = 3.0 * rng.standard_normal((3, 3))
        for a, q, letters in [(real, 2, enumerate_sign_diagonals(3, quotient=True)),
                              (real, 4, enumerate_phase_diagonals(3, 4, quotient=True)),
                              (z, 4, enumerate_phase_diagonals(3, 4, quotient=True))]:
            norm = build_norm(a, c=100.0, m=2, grid_q=q)
            scaled = np.ldexp(1.0, -int(np.frexp(np.abs(a).max())[1])) * a.T
            assert norm._factors.flags.c_contiguous
            assert norm.complex_letters == (q > 2)
            np.testing.assert_array_equal(norm._factors, [d.phases[:, None] * scaled for d in letters])

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


@pytest.fixture
def growth_at_depth_4(monkeypatch):
    """Growth's verdict at depth 4 and threshold c with its certified upper bound,
    the second value of ``bounds._upper_bounds``, read through a patched copy."""
    import absnorm.bounds as bounds_mod

    upper_bounds, seen = bounds_mod._upper_bounds, []

    def recording(s, q, best, perron=None):
        out = upper_bounds(s, q, best, perron)
        seen.append(out[1])
        return out

    monkeypatch.setattr(bounds_mod, "_upper_bounds", recording)

    def run(a, q, c):
        verdict = check_growth_condition(a, GrowthQuery(eps=None, m=4, level=c), grid_q=q).verdict
        return verdict, seen[-1] * 2.0 ** bounds_mod._exponent(np.asarray(a))

    return run


class TestCertifiedUpper:
    def test_derived_from_the_evaluator(self):
        # mu(SHARP) = 2 = ||SHARP||_2, however the evaluator is made.
        direct = TruncatedExtremalNorm(as_matrix(SHARP), 1.0, 2, 2)
        replaced = dataclasses.replace(build_norm(SHARP, c=2.5, m=2), c=1.0)
        for norm in (direct, replaced):
            assert norm.c_below_certified_upper
            assert norm.certified_upper == 2

    @pytest.mark.parametrize("field", ["certified_upper", "c_below_certified_upper"])
    def test_not_settable(self, field):
        with pytest.raises(TypeError):
            TruncatedExtremalNorm(as_matrix(SHARP), 2.5, 2, 2, **{field: 3.0})

    def test_build_walks_once(self, monkeypatch):
        # The certificate comes from the evaluator's own level maxima: no
        # sign-equivalence search and no eigensolve.
        import absnorm.bounds as bounds_mod

        def refuse(*args, **kwargs):
            raise AssertionError("build_norm ran a bounds search")

        monkeypatch.setattr(bounds_mod, "sign_equivalent_to_abs", refuse)
        monkeypatch.setattr(bounds_mod, "_batch_radii", refuse)
        rng = np.random.default_rng(36)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for a, q in [(SHARP, 2), (HADAMARD, 2), (rng.standard_normal((4, 4)), 2), (z, 4)]:
            build_norm(a, c=10.0, m=3, grid_q=q)

    @staticmethod
    def seeded_inputs(count, seed):
        # m = 3 walks exact maxima to depth 4 on all of these (L^4 <= _CHUNK).
        rng = np.random.default_rng(seed)
        for i in range(count):
            if i % 4 == 3:
                n = 2 + i // 4 % 2
                yield rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 4
            else:
                n = 2 + i % 3
                yield rng.standard_normal((n, n)), 2

    def test_equals_growth_bound_bit_for_bit(self, growth_at_depth_4):
        # One walk of A's tree, one rounding of M_k^(1/k) and one cap: the
        # evaluator's certificate is growth's at the same depth in every bit.
        for i, (a, q) in enumerate(self.seeded_inputs(320, 91)):
            norm = build_norm(a, c=10 * np.abs(a).sum(), m=3, grid_q=q)
            _, certified = growth_at_depth_4(a, q, norm.c)
            assert norm.certified_upper == certified, (i, q)

    def test_warning_agrees_with_growth_verdict(self, growth_at_depth_4):
        # Within an ulp or two of the certificate, build_norm warns exactly
        # where growth at that depth withholds "bounded" (no word grows there).
        for i, (a, q) in enumerate([(SHARP, 2), *self.seeded_inputs(24, 92)]):
            certified = TruncatedExtremalNorm(as_matrix(a), 1.0, 3, q).certified_upper
            for j in range(-2, 3):
                c = certified * (1 + j * 2.0**-52)
                norm = TruncatedExtremalNorm(as_matrix(a), c, 3, q)
                verdict, _ = growth_at_depth_4(a, q, c)
                assert norm.c_below_certified_upper == (verdict != "bounded"), (i, j)

    def test_never_looser_than_bounds_search(self):
        # The depth-4 mu_bounds upper (the cap where it is heuristic) is the
        # reference; the cap's 1e-10 margin may replace the Perron shortcut.
        rng = np.random.default_rng(37)
        inputs = [(rng.standard_normal((n, n)), 2) for n in (2, 3, 4) for _ in range(4)]
        inputs += [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 4)
            for n in (2, 3)
            for _ in range(3)
        ]
        for i, (a, q) in enumerate(inputs):
            reference = certified_upper(a, q)
            slack = 1e-10 * 2.0 ** np.frexp(np.abs(a).max())[1]
            for m in (0, 1, 2, 3, 6):
                norm = build_norm(a, c=1.05 * reference, m=m, grid_q=q)
                assert norm.certified_upper <= reference + slack, (i, m)


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

    def test_rejects_vector_of_other_shape(self, sharp_norm):
        for x in ([1.0, 0.0, 0.0], [[1.0, 0.0]], 1.0):
            with pytest.raises(DimensionError):
                eval_norm(sharp_norm, x)

    def test_rejects_complex_vector_on_real_letters(self, sharp_norm):
        with pytest.raises(ValueError):
            eval_norm(sharp_norm, np.array([1j, 0.0]))

    @pytest.mark.parametrize(
        "x", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [complex(np.nan, 0.0), 0.0]]
    )
    def test_rejects_non_finite_vector(self, sharp_norm, x):
        # These used to return nan or inf.
        with pytest.raises(ValueError, match="finite"):
            eval_norm(sharp_norm, x)

    def test_finite_vector_whose_value_overflows_reads_inf(self, sharp_norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_norm(sharp_norm, [1.7e308, 1.7e308]) == np.inf


class TestContraction:
    def test_nonnegative_matrix_ratio_below_scale(self):
        rng = np.random.default_rng(5)
        b = rng.random((2, 2))
        c = nonneg_spectral_radius(b).rho + 0.1
        norm = build_norm(b, c=c, m=4)
        report = contraction_check(norm, trials=100, seed=0)
        assert report.passed
        assert report.max_empirical_ratio <= c + 1e-9

    @pytest.mark.parametrize("trials", [2.5, 0, True])
    def test_rejects_non_integer_trials(self, sharp_norm, trials):
        with pytest.raises(ValueError, match="integer of at least 1"):
            contraction_check(sharp_norm, trials=trials)

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

    @pytest.mark.parametrize("trials", [2.5, 0, True])
    def test_rejects_non_integer_trials(self, sharp_norm, trials):
        with pytest.raises(ValueError, match="integer of at least 1"):
            verify_norm_axioms(sharp_norm, trials=trials)

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
        monkeypatch.setattr(
            extremal_mod, "_eval_levels", lambda nm, xs, depth: np.full((len(xs), depth + 1), np.inf)
        )
        report = verify_norm_axioms(norm, trials=5, seed=0)
        assert report.positivity_failures == 5
        assert not report.passed

    def test_axioms_even_below_mu(self):
        # Truncations are genuine norms regardless of the scale.
        with pytest.warns(UserWarning):
            norm = build_norm(SHARP, c=0.5, m=3)
        report = verify_norm_axioms(norm, trials=300, seed=2)
        assert report.passed

    def test_sign_diagonal_draws_as_choice(self):
        # The real diagonals index (-1, 1) by rng.integers, as rng.choice does:
        # the same values, and the generator left in the same state.
        from absnorm.extremal import _random_grid_diagonal

        for seed in range(100):
            for n in range(1, 8):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = _random_grid_diagonal(rng, n, 2, False), ref.choice((-1.0, 1.0), size=n)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert rng.random() == ref.random()


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

    def test_rejects_complex_extremal_norm(self):
        with pytest.raises(ValueError, match="real absolute norm"):
            complexify_gap_search(SHARP, build_norm(SHARP * 1j, c=2.5, m=1))

    def test_rejects_unknown_descriptor(self):
        with pytest.raises(TypeError, match="unsupported norm descriptor"):
            complexify_gap_search(SHARP, np.ones(2))

    @pytest.mark.parametrize("norm", [WeightedLpNorm([1.0], 1), WeightedLpNorm(np.ones(3), 2)])
    def test_rejects_norm_of_other_dimension(self, norm):
        with pytest.raises(DimensionError):
            complexify_gap_search(SHARP, norm)
        with pytest.raises(DimensionError):
            complexify_gap_search(np.eye(3), build_norm(SHARP, c=2.5, m=2))

    @pytest.mark.parametrize("trials", [0.5, 2.5, 0, True])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="integer of at least 1"):
            complexify_gap_search(SHARP, WeightedLpNorm([1.0, 1.0], 1), trials=trials)


class TestImages:
    @pytest.mark.parametrize("rows", [1, 5, 1000])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_match_per_row_products(self, rows, complex_data):
        # One broadcast matmul rounds each row as the per-row product does.
        import absnorm.extremal as extremal_mod

        rng = np.random.default_rng(49)
        for n in (3, 4, 6):
            a = rng.standard_normal((n, n))
            xs = rng.standard_normal((rows, n))
            if complex_data:
                a, xs = a + 1j * rng.standard_normal((n, n)), xs + 1j * rng.standard_normal((rows, n))
            got = extremal_mod._images(a, xs)
            want = np.array([a @ x for x in xs])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # The real matrix of the gap search against complex vectors, and a list of probes.
        a = a.real
        assert extremal_mod._images(a, xs).tobytes() == np.array([a @ x for x in xs]).tobytes()
        probes = [np.eye(n)[j] for j in range(n)]
        assert extremal_mod._images(a, probes).tobytes() == np.array([a @ x for x in probes]).tobytes()


def per_vector_levels(norm, x, depth):
    """The per-vector walk that the batched one replaced, its k = 0 term taken as
    a row norm: the running maxima after each level 0..depth."""
    import absnorm.bounds as bounds_mod

    x = np.asarray(x, dtype=complex if norm.complex_letters or np.iscomplexobj(x) else float)
    f = min(max(int(np.frexp(np.abs(x).max())[1]), -1021), 1021)
    level = (x * 2.0**-f)[None, None, :]
    best = float(np.linalg.norm(level[:, 0], axis=1)[0])
    norms, running, scale = np.array([best]), [best], 1.0
    for j in range(1, depth + 1):
        level = level[~(scale * norms * (norm._subtree[depth - j + 1] * (1 + 1e-9)) <= best)]
        if not len(level):
            break
        scale /= norm._c
        level = bounds_mod._extend(level, norm._factors)
        norms = np.linalg.norm(level[:, 0], axis=1)
        best = max(best, scale * float(norms.max()))
        running.append(best)
    return [v * 2.0**f for v in running + [best] * (depth + 1 - len(running))]


BATCH_DEPTHS = [(3, 2, m) for m in (0, 1, 4, 6)] + [(3, 4, m) for m in (0, 1, 4)] + [(2, 4, 6)]


def batch_cases():
    """(norm, stack) pairs: real and q = 4 norms at m = 0, 1, 4 and 6 (the 3x3 q = 4
    norm has L = 16 letters, so its m = 6 case is 2x2), c above and below mu, rows
    at scales 1, 1e-250 and 1e250 and a zero row."""
    rng = np.random.default_rng(40)
    cases = []
    for n, q, m in BATCH_DEPTHS:
        a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if q > 2 else 0)
        upper = certified_upper(a, q)
        for c in (1.05 * upper, 0.5 * upper):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # c below mu warns
                norm = build_norm(a, c=c, m=m, grid_q=q)
            xs = rng.standard_normal((12, n)) + (1j * rng.standard_normal((12, n)) if q > 2 else 0)
            xs[8:10] *= 1e-250
            xs[10:12] *= 1e250
            cases.append((norm, np.concatenate([xs, np.zeros((1, n))])))
    return cases


def assert_ulps(a, b, k=4):
    assert abs(a - b) <= k * np.spacing(max(abs(a), abs(b))), (a, b)


class TestBatchedWalk:
    @pytest.mark.parametrize("case", range(2 * len(BATCH_DEPTHS)))
    def test_stack_matches_rows(self, case):
        import absnorm.extremal as extremal_mod

        norm, xs = batch_cases()[case]
        levels = extremal_mod._eval_levels(norm, xs, norm.m)
        assert levels.shape == (len(xs), norm.m + 1)
        assert np.array_equal(levels, [per_vector_levels(norm, x, norm.m) for x in xs])
        assert np.array_equal(levels[:, -1], [eval_norm(norm, x) for x in xs])
        assert np.all(levels[-1] == 0.0)

    def test_unpruned_walks_the_full_tree(self, monkeypatch):
        import absnorm.extremal as extremal_mod

        with pytest.warns(UserWarning):
            norm = unpruned(build_norm(HADAMARD, c=0.5, m=5))
        rows = []
        extend = extremal_mod._extend

        def counting(batch, factors, threads=1):
            rows.append(len(batch) * len(factors))
            return extend(batch, factors, threads)

        monkeypatch.setattr(extremal_mod, "_extend", counting)
        xs = np.random.default_rng(41).standard_normal((5, 2))
        levels = extremal_mod._eval_levels(norm, xs, norm.m)
        assert rows == [len(xs) * 2**k for k in range(1, norm.m + 1)]
        assert np.array_equal(levels, [per_vector_levels(norm, x, norm.m) for x in xs])

    @pytest.mark.parametrize("cap", [1, 7, 100])
    def test_block_boundaries(self, monkeypatch, cap):
        import absnorm.extremal as extremal_mod

        cases = batch_cases()[::3]
        norm = cases[2][0]  # the real m = 6 norm, c above mu
        expected = [extremal_mod._eval_levels(nm, xs, nm.m) for nm, xs in cases]
        audits = (
            verify_norm_axioms(norm, trials=40, seed=3),
            contraction_check(norm, trials=15, seed=3),
            complexify_gap_search(norm.matrix.arr, norm, trials=20, seed=3),
        )
        monkeypatch.setattr(extremal_mod, "_BLOCK_ROWS", cap)
        for (nm, xs), levels in zip(cases, expected):
            assert np.array_equal(extremal_mod._eval_levels(nm, xs, nm.m), levels)
        assert audits == (
            verify_norm_axioms(norm, trials=40, seed=3),
            contraction_check(norm, trials=15, seed=3),
            complexify_gap_search(norm.matrix.arr, norm, trials=20, seed=3),
        )

    @staticmethod
    def bend(monkeypatch):
        """Perturb every value by up to 30%, by a factor that depends on the signs
        and phases of its vector's entries, so that the audits count failures of
        every kind; eval_norm sees the same values."""
        import absnorm.extremal as extremal_mod

        walk = extremal_mod._eval_levels

        def bent(norm, xs, depth):
            xs = np.asarray(xs)
            wobble = np.cos(1e3 * (xs.real + 2 * xs.imag).sum(axis=1))
            return walk(norm, xs, depth) * (1 + 0.3 * wobble)[:, None]

        monkeypatch.setattr(extremal_mod, "_eval_levels", bent)

    @staticmethod
    def loop_axioms(norm, trials, seed):
        """The per-trial axiom audit that the batched one replaced."""
        from absnorm.extremal import _random_grid_diagonal, _random_vector

        rng = np.random.default_rng(seed)
        cx, tol = norm.complex_letters, 1e-12
        counts = [0] * 5
        for _ in range(trials):
            x = _random_vector(rng, norm.n, cx)
            y = _random_vector(rng, norm.n, cx)
            vx, vy = eval_norm(norm, x), eval_norm(norm, y)
            counts[0] += not (np.isfinite(vx) and vx >= float(np.linalg.norm(x)) * (1 - tol)) or vx <= 0
            t = rng.standard_normal()
            if cx:
                t = t * np.exp(2j * np.pi * rng.random())
            counts[1] += abs(eval_norm(norm, t * x) - abs(t) * vx) > tol * max(1.0, abs(t) * vx)
            counts[2] += eval_norm(norm, x + y) > (vx + vy) * (1 + tol)
            d = _random_grid_diagonal(rng, norm.n, norm.grid_q, cx)
            counts[3] += abs(eval_norm(norm, d * x) - vx) > tol * max(1.0, vx)
            counts[4] += eval_norm(norm, rng.random(norm.n) * y) > vy * (1 + tol)
        return counts

    @staticmethod
    def loop_contraction(norm, trials, seed):
        """The per-trial contraction audit that the batched one replaced."""
        import absnorm.extremal as extremal_mod

        rng = np.random.default_rng(seed)
        failures, ratio = 0, 0.0
        for _ in range(trials):
            x = extremal_mod._random_vector(rng, norm.n, norm.complex_letters)
            lhs = extremal_mod._eval_levels(norm, (norm.matrix.arr @ x)[None], norm.m)[0, -1]
            denom, deeper = extremal_mod._eval_levels(norm, x[None], norm.m + 1)[0, -2:]
            failures += lhs > norm.c * deeper * (1 + 1e-12)
            if denom > 0:
                ratio = max(ratio, lhs / denom)
        return failures, ratio

    @staticmethod
    def loop_gap(a, norm, trials, seed):
        """The per-vector gap search that the batched one replaced, without the
        sign probes it adds for weighted l_inf norms."""
        from absnorm import vector_norm

        def value(v):
            return vector_norm(v, norm) if isinstance(norm, WeightedLpNorm) else eval_norm(norm, v)

        def ratio(x, ax):
            return value(ax) / value(x) if value(x) > 0 else 0.0

        rng = np.random.default_rng(seed)
        n = len(a)
        real = max(ratio(e, a @ e) for e in np.eye(n))
        for _ in range(trials):
            x = rng.standard_normal(n)
            real = max(real, ratio(x, a @ x))
        cplx = real
        for _ in range(trials):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            cplx = max(cplx, ratio(np.abs(z), np.abs(a @ z)))
        return real, cplx

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bent", [False, True])
    def test_audits_match_per_trial_loop(self, monkeypatch, seed, bent):
        if bent:
            self.bend(monkeypatch)
        rng = np.random.default_rng(42 + seed)
        real = rng.standard_normal((3, 3))
        cplx = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for a, q, m in ((real, 2, 4), (real, 2, 0), (cplx, 4, 3)):
            norm = build_norm(a, c=1.05 * certified_upper(a, q), m=m, grid_q=q)
            report = verify_norm_axioms(norm, trials=60, seed=seed)
            counts = self.loop_axioms(norm, 60, seed)
            assert list(dataclasses.astuple(report))[1:] == counts
            assert report.passed == (sum(counts) == 0)
            assert all(counts) if bent else not any(counts)
            contraction = contraction_check(norm, trials=30, seed=seed)
            failures, ratio = self.loop_contraction(norm, 30, seed)
            assert contraction.structural_failures == failures
            assert (failures > 0) == bent
            assert_ulps(contraction.max_empirical_ratio, ratio)
        gap_norms = [WeightedLpNorm(rng.random(3) + 0.2, p) for p in (1, 2)]
        gap_norms.append(build_norm(real, c=1.05 * certified_upper(real, 2), m=3))
        for norm in gap_norms:
            gap = complexify_gap_search(real, norm, trials=40, seed=seed)
            expected = self.loop_gap(real, norm, 40, seed)
            assert_ulps(gap.real_sup, expected[0])
            assert_ulps(gap.complex_sup, expected[1])
            assert gap.gap >= 0.0

    def test_audits_walk_once_per_block(self, monkeypatch):
        # The bench's real norm shape: L = 4 letters at m = 6, so a block holds
        # 2^16 // 4 vectors, 2730 axiom trials of 6 vectors: 300 trials walk once,
        # and no level of the pruned walk is split.
        import absnorm.extremal as extremal_mod

        a = np.random.default_rng(43).standard_normal((3, 3))
        norm = build_norm(a, c=1.05 * certified_upper(a, 2), m=6)
        calls = {"walks": 0, "extends": 0}
        walk, extend = extremal_mod._eval_levels, extremal_mod._extend

        def counting_walk(*args):
            calls["walks"] += 1
            return walk(*args)

        def counting_extend(*args):
            calls["extends"] += 1
            return extend(*args)

        monkeypatch.setattr(extremal_mod, "_eval_levels", counting_walk)
        monkeypatch.setattr(extremal_mod, "_extend", counting_extend)
        assert verify_norm_axioms(norm, trials=300, seed=0).passed
        assert calls["walks"] == 1
        assert calls["extends"] <= norm.m

    @pytest.mark.parametrize("cap", [1, 3, 50])
    def test_split_levels_match_rows(self, monkeypatch, cap):
        # A level too large for the cap is split between whole vectors and the rest
        # walked later: every vector's terms stay those of its own walk, pruned or
        # not, at depth m and at depth m + 1.
        import absnorm.extremal as extremal_mod

        monkeypatch.setattr(extremal_mod, "_BLOCK_ROWS", cap)
        for norm, xs in batch_cases():
            walks = [(norm, xs)]
            if len(norm._factors) ** (norm.m + 1) <= 4096:
                walks.append((unpruned(norm), xs[:-1]))  # not the zero row: 0 * inf
            for nm, xs in walks:
                for depth in (nm.m, nm.m + 1):
                    levels = extremal_mod._eval_levels(nm, xs, depth)
                    assert np.array_equal(levels, [per_vector_levels(nm, x, depth) for x in xs])

    @pytest.mark.parametrize("cap", [7, 32, 100])
    def test_rows_held_within_twice_the_cap(self, monkeypatch, cap):
        # Unpruned, a vector's level j has L^j rows.  On stacks of at most cap
        # vectors, at every extension the rows built plus every remainder set aside
        # stay within 2 cap, or within cap plus one vector's level where that alone
        # exceeds the cap.
        import sys

        import absnorm.extremal as extremal_mod

        extend, seen = extremal_mod._extend, []

        def counting(batch, factors, threads=1):
            walk = sys._getframe(1).f_locals  # the _eval_levels call
            held = sum(len(rest[0]) for rest in walk["aside"])
            seen.append((len(batch) * len(factors), held, len(factors) ** walk["j"]))
            return extend(batch, factors, threads)

        monkeypatch.setattr(extremal_mod, "_extend", counting)
        monkeypatch.setattr(extremal_mod, "_BLOCK_ROWS", cap)
        rng = np.random.default_rng(44)
        a = rng.standard_normal((3, 3))
        for norm in (
            unpruned(build_norm(HADAMARD, c=1.5, m=5)),
            unpruned(build_norm(a, c=1.05 * certified_upper(a, 2), m=3)),
        ):
            extremal_mod._eval_levels(norm, rng.standard_normal((cap, norm.n)), norm.m + 1)
            verify_norm_axioms(norm, trials=10, seed=0)
            contraction_check(norm, trials=10, seed=0)
            complexify_gap_search(norm.matrix.arr, norm, trials=10, seed=0)
        assert any(held for _, held, _ in seen)
        for built, held, one in seen:
            assert held <= cap
            assert built + held <= (2 * cap if one <= cap else cap + one)

    @pytest.mark.parametrize("cap", [8, 64])
    def test_no_extend_over_the_cap_unpruned(self, monkeypatch, cap):
        # L = 2 letters: 2^4 = 16 rows per vector at m = 4 and 32 at depth m + 1,
        # so a cap of 8 walks one vector a block and 64 walks several.
        import absnorm.extremal as extremal_mod

        norm = unpruned(build_norm(HADAMARD, c=1.5, m=4))
        rows = []
        extend = extremal_mod._extend

        def counting(batch, factors, threads=1):
            rows.append(len(batch) * len(factors))
            return extend(batch, factors, threads)

        monkeypatch.setattr(extremal_mod, "_extend", counting)
        monkeypatch.setattr(extremal_mod, "_BLOCK_ROWS", cap)
        verify_norm_axioms(norm, trials=20, seed=0)
        assert max(rows) == max(cap, 16)
        rows.clear()
        contraction_check(norm, trials=20, seed=0)
        assert max(rows) == max(cap, 32)
        rows.clear()
        complexify_gap_search(HADAMARD, norm, trials=20, seed=0)
        assert max(rows) == max(cap, 16)

    def test_memory_flat_in_trials(self, monkeypatch):
        import tracemalloc

        import absnorm.extremal as extremal_mod

        monkeypatch.setattr(extremal_mod, "_BLOCK_ROWS", 1 << 10)
        norm = build_norm(HADAMARD, c=1.5, m=4)
        peaks = []
        for trials in (100, 3000):
            tracemalloc.start()
            verify_norm_axioms(norm, trials=trials, seed=0)
            contraction_check(norm, trials=trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < peaks[0] + 64 * 1024
