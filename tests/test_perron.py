import warnings

import numpy as np
import pytest

from absnorm import (
    NonConvergenceError,
    induced_norm,
    nonneg_spectral_radius,
    optimal_weighted_l1,
    spectral_radius,
)


def cw_max(b, w):
    return float(((np.asarray(b).T @ w) / w).max())


def cw_min(b, w):
    return float(((np.asarray(b).T @ w) / w).min())


class TestSpectralRadiusExamples:
    def test_all_ones(self):
        r = nonneg_spectral_radius([[1, 1], [1, 1]])
        assert r.rho == pytest.approx(2.0, abs=1e-10)

    def test_diagonal(self):
        r = nonneg_spectral_radius(np.diag([3.0, 1.0]))
        assert r.rho == pytest.approx(3.0, abs=1e-10)

    def test_nilpotent(self):
        r = nonneg_spectral_radius([[0, 1], [0, 0]])
        assert r.rho == pytest.approx(0.0, abs=1e-9)

    def test_zero_matrix(self):
        r = nonneg_spectral_radius(np.zeros((3, 3)))
        assert r.rho == 0.0 and r.bracket == (0.0, 0.0)

    def test_imprimitive(self):
        r = nonneg_spectral_radius([[0, 2], [1, 0]])
        assert r.rho == pytest.approx(np.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            nonneg_spectral_radius([[1.0, 2.0], [3.0, 4.0]], tol=tol)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            nonneg_spectral_radius([[1, -1], [0, 1]])


class TestBracketContract:
    @pytest.mark.parametrize(
        "b",
        [
            [[1, 1], [1, 1]],
            [[0, 1], [0, 0]],
            [[0, 2], [1, 0]],
            np.diag([3.0, 1.0]).tolist(),
        ],
    )
    def test_bracket_contains_rho_and_pinches(self, b):
        tol = 1e-8
        r = nonneg_spectral_radius(b, tol=tol)
        lo, hi = r.bracket
        assert lo <= r.rho <= hi
        assert hi - lo <= tol
        assert lo - 1e-12 <= spectral_radius(b) <= hi + 1e-12

    def test_left_vector_positive(self):
        r = nonneg_spectral_radius([[0, 1], [2, 3]])
        assert np.all(r.left_vector > 0)

    def test_upper_side_is_cw_certificate(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            b = rng.random((n, n))
            r = nonneg_spectral_radius(b)
            assert r.rho == pytest.approx(cw_max(b, r.left_vector), rel=1e-12)


class TestCollatzWielandtValidity:
    def test_min_ratio_is_lower_bound_for_any_positive_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            b = rng.random((n, n)) * rng.random()
            rho = spectral_radius(b)
            w = rng.random(n) + 1e-3
            assert cw_min(b, w) <= rho + 1e-10
            assert cw_max(b, w) >= rho - 1e-10

    def test_agreement_with_eigensolver(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            b = rng.random((n, n))
            b[rng.random((n, n)) < 0.4] = 0.0
            assert nonneg_spectral_radius(b).rho == pytest.approx(
                spectral_radius(b), abs=1e-8
            )

    def test_irreducible_brackets_pinch(self):
        # Irreducibility witnessed by (I + B)^(n-1) having no zero entry.
        rng = np.random.default_rng(4)
        seen = 0
        while seen < 25:
            n = int(rng.integers(2, 7))
            b = rng.random((n, n))
            b[rng.random((n, n)) < 0.5] = 0.0
            power = np.linalg.matrix_power(np.eye(n) + b, n - 1)
            if not np.all(power > 0):
                continue
            seen += 1
            result = nonneg_spectral_radius(b, tol=1e-9)
            lo, hi = result.bracket
            assert hi - lo <= 1e-9
            assert lo <= spectral_radius(b) + 1e-10 <= hi + 2e-9


def block_cyclic(rng, n, k):
    """Nonnegative matrix of period k: positive blocks only at (i, i+1 mod k)."""
    size = n // k
    c = np.zeros((n, n))
    for blk in range(k):
        nxt = (blk + 1) % k
        c[blk * size:(blk + 1) * size, nxt * size:(nxt + 1) * size] = rng.random((size, size))
    return c


def random_nonneg(rng, kind, n):
    if kind == "dense":
        b = rng.random((n, n))
    elif kind == "sparse":
        b = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    elif kind == "block_triangular":
        # Reducible: block upper triangular split at k, the leading
        # diagonal block sometimes zero as well.
        b = rng.random((n, n))
        k = int(rng.integers(0, n))
        b[k:, :k] = 0.0
        if rng.random() < 0.25:
            b[:k, :k] = 0.0
    elif kind == "triangular":
        # Reducible with rho on the diagonal; strictly triangular (rho = 0,
        # nilpotent) one time in five.
        b = np.triu(rng.random((n, n)), int(rng.random() < 0.2))
    elif kind == "integer":
        b = rng.integers(0, 4, (n, n)).astype(float)
    else:  # permutation-weighted
        b = np.zeros((n, n))
        b[np.arange(n), rng.permutation(n)] = rng.random(n) + 0.1
    return b * 10.0 ** rng.uniform(-3, 3)


def contains(bracket, rho, rel):
    lo, hi = bracket
    return lo <= rho * (1 + rel) and hi >= rho * (1 - rel)


class TestNodaIteration:
    def test_imprimitive_closes_in_few_steps(self):
        b = block_cyclic(np.random.default_rng(5), 200, 4)
        r = nonneg_spectral_radius(b, tol=1e-10)
        assert r.iterations <= 10
        assert r.bracket[1] - r.bracket[0] <= 1e-10
        assert contains(r.bracket, spectral_radius(b), 1e-12)

    def test_large_scale_imprimitive(self):
        r = nonneg_spectral_radius(1e12 * np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert r.rho == pytest.approx(np.sqrt(2.0) * 1e12, rel=1e-8)

    @pytest.mark.parametrize(
        "b",
        [
            [[1, 1, 1], [1, 1, 1], [0, 0, 2.5]],
            np.diag([3.0, 1.0]).tolist(),
            [[0, 1, 1], [0, 0, 1], [0, 0, 0]],
        ],
        ids=["block_triangular", "diagonal", "nilpotent"],
    )
    def test_reducible_close_through_bisection(self, b):
        r = nonneg_spectral_radius(b, tol=1e-9)
        assert r.bracket[1] - r.bracket[0] <= 1e-9
        assert contains(r.bracket, spectral_radius(b), 1e-12)

    def test_differential_against_eigensolver(self):
        rng = np.random.default_rng(6)
        kinds = ("dense", "sparse", "block_triangular", "triangular", "integer", "permutation")
        for case in range(360):
            n = int(rng.integers(1, 13))
            b = random_nonneg(rng, kinds[case % len(kinds)], n)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with np.errstate(all="raise"):
                    r = nonneg_spectral_radius(b)
            assert contains(r.bracket, spectral_radius(b), 1e-9), (case, b)


def sparse_nonneg(rng, n):
    """The benchmark's certify input: density 4/n, a weighted cycle and a
    positive leading 2x2 block."""
    b = rng.random((n, n)) * (rng.random((n, n)) < 4.0 / n)
    b += np.roll(np.eye(n), 1, axis=1) * (rng.random(n) + 0.5)
    b[:2, :2] = rng.random((2, 2)) + 0.5
    return b


def block_triangular_tiny(rng, lead):
    """Reducible 8x8 whose leading (or trailing) diagonal block is 1e-250 scale."""
    b = rng.random((8, 8))
    b[4:, :4] = 0.0
    if lead:
        b[:4, :4] *= 1e-250
    else:
        b[4:, 4:] *= 1e-250
    return b


class TestPowerSteps:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_closes_in_two_solves(self, seed):
        b = sparse_nonneg(np.random.default_rng(seed), 200)
        r = nonneg_spectral_radius(b, tol=1e-10)
        assert r.iterations <= 2
        # The Noda step after the power steps takes the bracket from near
        # tol to rounding level.
        assert r.bracket[1] - r.bracket[0] <= 1e-12 * r.bracket[1]
        assert contains(r.bracket, spectral_radius(b), 1e-12)
        assert r.rho == pytest.approx(cw_max(b, r.left_vector), rel=1e-14)

    def test_power_steps_stop_on_a_periodic_matrix(self, monkeypatch):
        # Power iterates of a period-4 B cycle; three steps that barely
        # shrink the bracket hand it to Noda long before the n // 3 cap.
        from absnorm import perron

        observed = []
        observe = perron._Bracket.observe

        def counting(self, w):
            observed.append(w)
            return observe(self, w)

        monkeypatch.setattr(perron._Bracket, "observe", counting)
        b = block_cyclic(np.random.default_rng(5), 200, 4)
        r = nonneg_spectral_radius(b, tol=1e-10)
        # Each resolvent solve observes at most one vector; the rest are the
        # uniform start vector and the power steps.
        power_steps = len(observed) - 1 - r.iterations
        assert power_steps <= 8

    @pytest.mark.parametrize(
        "b",
        [
            np.eye(10, k=1),
            block_triangular_tiny(np.random.default_rng(7), lead=True),
            block_triangular_tiny(np.random.default_rng(7), lead=False),
        ],
        ids=["nilpotent_shift", "tiny_leading_block", "tiny_trailing_block"],
    )
    def test_zero_or_underflowing_iterates_fall_through(self, b):
        # A power step meets a zero entry (the shift) or an entry 1e-250
        # below the rest; the run must hand over to Noda or the bisection
        # without an underflow or a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                r = nonneg_spectral_radius(b, tol=1e-10)
        assert r.bracket[1] - r.bracket[0] <= 1e-10
        assert contains(r.bracket, spectral_radius(b), 1e-12)
        assert r.rho == pytest.approx(cw_max(b, r.left_vector), rel=1e-14)


def permuted_strictly_triangular(seed, n=70):
    rng = np.random.default_rng(seed)
    b = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3), 1)
    p = rng.permutation(n)
    return b[p][:, p]


class TestNilpotent:
    # Where the bracket cannot close, an acyclic support digraph certifies
    # B^n = 0: rho is exactly 0, and the certificate is the support.
    @pytest.mark.parametrize("n", [40, 50, 200])
    def test_shift_is_exactly_zero(self, n):
        r = nonneg_spectral_radius(np.eye(n, k=1))
        assert r.rho == 0.0 and r.bracket == (0.0, 0.0)
        assert r.iterations > 0 and np.all(r.left_vector > 0)

    @pytest.mark.parametrize("seed", [2, 6, 9])
    def test_permuted_strictly_triangular_is_exactly_zero(self, seed):
        r = nonneg_spectral_radius(permuted_strictly_triangular(seed))
        assert r.rho == 0.0 and r.bracket == (0.0, 0.0)

    def test_reducible_with_positive_rho_is_not_zero(self):
        # A self-loop on the shift's last vertex leaves a cycle, so rho > 0:
        # the bracket closes around 1e-3.  The tiny loops leave it open, and
        # the peel of sources and sinks leaves that 1x1 block as the core.
        b = np.eye(50, k=1)
        b[-1, -1] = 1e-3
        assert contains(nonneg_spectral_radius(b).bracket, 1e-3, 1e-7)
        for corner in (1e-12, 1e-30, 1e-300):
            b[-1, -1] = corner
            r = nonneg_spectral_radius(b)
            assert r.rho == corner and r.bracket == (corner, corner)


class TestScale:
    @pytest.mark.parametrize("s", [1e-200, 1e-12, 1e12, 1e200])
    def test_cyclic_bracket_is_relative(self, s):
        # rho(s [[0,2],[1,0]]) = sqrt(2) s.  Below scale 1 the tolerance is
        # relative to the largest entry, and above it the rounding floor
        # 4 eps rho closes the bracket.
        r = nonneg_spectral_radius(s * np.array([[0.0, 2.0], [1.0, 0.0]]))
        lo, hi = r.bracket
        assert contains(r.bracket, np.sqrt(2.0) * s, 1e-12)
        assert hi - lo <= 1e-10 * hi

    @pytest.mark.parametrize("s", [1e6, 1e200])
    def test_large_scale_closes_at_the_rounding_floor(self, s):
        # An absolute tol of 1e-10 is below the spacing of floats near rho
        # at these scales, so only equal sides would close the bracket.
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            b = rng.random((n, n)) * s
            r = nonneg_spectral_radius(b)
            lo, hi = r.bracket
            assert hi - lo <= 4 * np.finfo(float).eps * hi
            assert contains(r.bracket, spectral_radius(b), 1e-12)

    def test_weighted_l1_below_the_rounding_floor(self):
        # At 1e12 the margin eps = 1e-3 is below the rounding floor 4 eps rho
        # (1.3e-3); the closed bracket's lower side still certifies it.
        b = 1e12 * np.array([[0.0, 2.0], [1.0, 0.0]])
        norm = optimal_weighted_l1(b, eps=1e-3)
        assert induced_norm(b, norm) <= nonneg_spectral_radius(b).bracket[0] + 1e-3


class TestSignSafeBisection:
    def test_strictly_triangular_has_no_false_lower_bound(self):
        # rho(B) = 0, and B^T is so non-normal at these scales that a
        # pivoted solve of (mid I - B^T) u = 1 turns an entry negative
        # for some mid > 0; that must not count as a rejection.
        for seed in range(400):
            rng = np.random.default_rng(seed)
            b = np.triu(rng.random((5, 5)), 1)
            b *= 9.2e-3 / b.max()
            r = nonneg_spectral_radius(b, tol=1e-9)
            assert r.bracket[0] == 0.0 and r.bracket[1] <= 1e-9, seed

    def test_triangular_closes_at_default_tol(self):
        # 11x11, rho on the diagonal: the pivoted solve's positive vectors
        # stall the upper side about 1e-10 above rho.
        rng = np.random.default_rng(22)
        n = int(rng.integers(6, 13))
        b = np.triu(rng.random((n, n))) * 10.0 ** rng.uniform(-3, 3)
        r = nonneg_spectral_radius(b)
        assert r.bracket[1] - r.bracket[0] <= 1e-10
        assert contains(r.bracket, spectral_radius(b), 1e-12)


class TestOptimalWeightedL1:
    def test_symmetric_all_ones(self):
        b = np.array([[1.0, 1.0], [1.0, 1.0]])
        norm = optimal_weighted_l1(b, eps=0.5)
        ratios = (b.T @ norm.w) / norm.w
        assert ratios == pytest.approx([2.0, 2.0], abs=1e-6)

    def test_nilpotent_ratio_criterion(self):
        norm = optimal_weighted_l1([[0, 1], [0, 0]], eps=0.1)
        assert norm.w[0] / norm.w[1] <= 0.1 + 1e-12

    def test_imprimitive_equalizes(self):
        b = np.array([[0.0, 2.0], [1.0, 0.0]])
        norm = optimal_weighted_l1(b, eps=1e-6)
        assert norm.w[1] / norm.w[0] == pytest.approx(np.sqrt(2.0), abs=1e-3)
        assert induced_norm(b, norm) <= np.sqrt(2.0) + 1e-6 + 1e-9

    def test_certificate_validity_random(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            b = rng.random((n, n)) * (rng.random() * 3)
            b[rng.random((n, n)) < 0.3] = 0.0
            eps = 1e-1 if trial % 2 == 0 else 1e-3
            norm = optimal_weighted_l1(b, eps=eps)
            assert np.all(norm.w > 0)
            rho = nonneg_spectral_radius(b).rho
            assert induced_norm(b, norm) <= rho + eps + 1e-9

    def test_certificate_is_the_perron_vector(self):
        # Same random suite as above: the weights are the certificate vector
        # of the spectral-radius call at tolerance min(eps/10, 1e-8), so the
        # induced norm is that call's rho, not merely rho + eps.
        rng = np.random.default_rng(3)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            b = rng.random((n, n)) * (rng.random() * 3)
            b[rng.random((n, n)) < 0.3] = 0.0
            eps = 1e-1 if trial % 2 == 0 else 1e-3
            norm = optimal_weighted_l1(b, eps=eps)
            rho = nonneg_spectral_radius(b, tol=min(eps / 10.0, 1e-8)).rho
            assert induced_norm(b, norm) <= rho * (1 + 1e-12)

    def test_margin_limited_by_float_range(self):
        # On a chain, (B^T w)_j / w_j <= rho + eps needs w_j >= w_{j-1} / (rho + eps)
        # along every edge, so the 49 edges of this shift need weights spanning
        # about eps^-49: 1e294 fits in float64 at eps = 1e-6, 1e392 at 1e-8 does not.
        b = np.eye(50, k=1)
        b[49, 49] = 1e-12
        norm = optimal_weighted_l1(b, eps=1e-6)
        assert induced_norm(b, norm) <= nonneg_spectral_radius(b).rho + 1e-6
        with pytest.raises(NonConvergenceError):
            optimal_weighted_l1(b, eps=1e-8)

    def test_zero_matrix(self):
        norm = optimal_weighted_l1(np.zeros((2, 2)), eps=0.1)
        assert np.all(norm.w > 0) and norm.p == 1

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            optimal_weighted_l1([[1]], eps=0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_rejects_non_finite_eps(self, eps):
        # NaN used to pass the sign check and end in NonConvergenceError.
        with pytest.raises(ValueError, match="positive and finite"):
            optimal_weighted_l1([[1.0, 2.0], [3.0, 4.0]], eps=eps)


class TestErrors:
    def test_nonconvergence_carries_bracket(self):
        err = NonConvergenceError("x", iterations=7, bracket=(1.0, 2.0))
        assert err.iterations == 7 and err.bracket == (1.0, 2.0)

    @pytest.mark.parametrize("noda, bisection", [(0, 0), (2, 3)])
    def test_raises_when_the_steps_run_out(self, monkeypatch, tmp_path, capsys, noda, bisection):
        # A positive B has no source or sink to peel, and its one power step
        # (n // 3) leaves the bracket open, as do these few Noda and bisection steps.
        import absnorm.perron as perron
        from absnorm.cli import EXIT_COMPUTE_ERROR, main

        monkeypatch.setattr(perron, "_NODA_CAP", noda)
        monkeypatch.setattr(perron, "_BISECTION_CAP", bisection)
        b = np.random.default_rng(0).random((5, 5)) + 0.1
        with pytest.raises(NonConvergenceError) as info:
            nonneg_spectral_radius(b)
        lo, hi = info.value.bracket
        assert lo <= float(np.abs(np.linalg.eigvals(b)).max()) <= hi
        assert info.value.iterations == noda + bisection
        path = tmp_path / "b.txt"
        np.savetxt(path, b)
        assert main(["mu", str(path)]) == EXIT_COMPUTE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
