import json

import numpy as np
import pytest

from absnorm import (
    DimensionError,
    Matrix,
    WeightedLpNorm,
    as_matrix,
    entrywise_abs,
    induced_norm,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
    spectral_radius,
    vector_norm,
)

SHARP = [[1.0, 1.0], [-1.0, -1.0]]


def quadratic_radius(a):
    """Closed-form spectral radius of a 2x2 matrix, as an independent oracle."""
    (a11, a12), (a21, a22) = a[0], a[1]
    tr = a11 + a22
    disc = complex(tr * tr - 4 * (a11 * a22 - a12 * a21)) ** 0.5
    return max(abs((tr + disc) / 2), abs((tr - disc) / 2))


class TestSpectralRadius:
    def test_sharp_matrix_is_nilpotent(self):
        assert spectral_radius(SHARP) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_identity(self, n):
        assert spectral_radius(np.eye(n)) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones(self):
        assert spectral_radius([[1, 1], [1, 1]]) == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_formula_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.standard_normal((2, 2))
            if rng.random() < 0.5:
                a = a + 1j * rng.standard_normal((2, 2))
            expected = quadratic_radius(a)
            assert spectral_radius(a) == pytest.approx(expected, abs=1e-12, rel=1e-12)

    def test_power_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n))
            r = spectral_radius(a)
            p = np.eye(n)
            for k in range(1, 6):
                p = p @ a
                assert spectral_radius(p) == pytest.approx(r**k, rel=1e-8, abs=1e-10)


class TestSpectralNorm:
    def test_sharp_matrix(self):
        assert spectral_norm(SHARP) == pytest.approx(2.0, abs=1e-9)

    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_hadamard(self):
        # Explicit 2x2 oracle: singular values are sqrt of eig(A^T A).
        a = np.array([[1.0, 1.0], [1.0, -1.0]])
        gram_eigs = np.linalg.eigvalsh(a.T @ a)
        assert spectral_norm(a) == pytest.approx(np.sqrt(gram_eigs[-1]), abs=1e-12)
        assert spectral_norm(a) == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestEntrywiseAbs:
    def test_sharp_matrix(self):
        b = entrywise_abs(SHARP)
        assert b.field == "real"
        assert np.array_equal(b.arr, [[1, 1], [1, 1]])

    def test_nonnegative_fixed_point(self):
        a = [[0.5, 2.0], [0.0, 1.0]]
        assert np.array_equal(entrywise_abs(a).arr, a)

    def test_complex_modulus(self):
        b = entrywise_abs([[3 + 4j]])
        assert b.field == "real"
        assert b.arr[0, 0] == pytest.approx(5.0, abs=1e-15)


class TestVectorNorm:
    def test_l1(self):
        assert vector_norm([1, -1], WeightedLpNorm([1, 1], 1)) == 2.0

    def test_l2(self):
        assert vector_norm([3, 4], WeightedLpNorm([1, 1], 2)) == pytest.approx(5.0)

    def test_linf_weighted(self):
        assert vector_norm([1, -2], WeightedLpNorm([2, 3], np.inf)) == pytest.approx(6.0)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            w = rng.random(n) + 0.1
            p = rng.choice([1.0, 2.0, np.inf])
            norm = WeightedLpNorm(w, p)
            y = rng.standard_normal(n)
            x = rng.random(n) * y
            assert vector_norm(x, norm) <= vector_norm(y, norm) * (1 + 1e-12)


class TestInducedNorm:
    def test_all_ones_l1(self):
        assert induced_norm([[1, 1], [1, 1]], WeightedLpNorm([1, 1], 1)) == 2.0

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_identity(self, p):
        norm = WeightedLpNorm([1.0, 0.5, 2.0], p)
        assert induced_norm(np.eye(3), norm) == pytest.approx(1.0, abs=1e-12)

    def test_weighted_l1_shift(self):
        assert induced_norm([[0, 1], [0, 0]], WeightedLpNorm([1, 10], 1)) == pytest.approx(0.1)

    def test_dominates_spectral_radius(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n))
            if rng.random() < 0.5:
                a = a + 1j * rng.standard_normal((n, n))
            norm = WeightedLpNorm(rng.random(n) + 0.1, rng.choice([1.0, 2.0, np.inf]))
            assert spectral_radius(a) <= induced_norm(a, norm) + 1e-9

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_unimodular_scaling_invariance(self, p):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            norm = WeightedLpNorm(np.ones(n), p)
            d1 = np.exp(2j * np.pi * rng.random(n))
            d2 = np.exp(2j * np.pi * rng.random(n))
            scaled = d1[:, None] * a * d2[None, :]
            assert induced_norm(scaled, norm) == pytest.approx(
                induced_norm(a, norm), abs=1e-12, rel=1e-12
            )


class TestMatrixType:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            Matrix("real", np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Matrix("real", [[np.inf, 0], [0, 1]])

    def test_rejects_complex_entries_in_real(self):
        with pytest.raises(ValueError):
            Matrix("real", np.array([[1j]]))

    def test_field_inferred(self):
        assert as_matrix([[1.0]]).field == "real"
        assert as_matrix([[1j]]).field == "complex"
        assert as_matrix(np.array([[1.0 + 0j]])).field == "real"

    @pytest.mark.parametrize("layout", ["transpose", "fortran", "strided"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stored_c_contiguous(self, layout, dtype):
        base = np.arange(1.0, 26.0).reshape(5, 5).astype(dtype) * (1 + 1j if dtype is complex else 1)
        a = {"transpose": base.T, "fortran": np.asfortranarray(base), "strided": base[::2, ::2]}[layout]
        m = as_matrix(a)
        assert m.arr.flags.c_contiguous
        assert np.array_equal(m.arr, a)

    def test_n1_degenerate(self):
        assert spectral_radius([[-4.0]]) == pytest.approx(4.0)
        assert spectral_norm([[-4.0]]) == pytest.approx(4.0)


class TestMatrixJson:
    def test_real_round_trip(self):
        m = as_matrix(SHARP)
        again = matrix_from_json(json.dumps(matrix_to_json(m)))
        assert again == m

    def test_complex_round_trip(self):
        m = as_matrix([[1 + 2j, 0], [0, -1j]])
        again = matrix_from_json(matrix_to_json(m))
        assert again == m

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            matrix_from_json({"field": "real", "n": 2, "rows": [[1, 2, 3], [4, 5, 6]]})
        with pytest.raises(DimensionError):
            matrix_from_json({"field": "real", "n": 3, "rows": [[1, 2], [3, 4]]})
        with pytest.raises(DimensionError):
            matrix_from_json({"field": "real", "n": True, "rows": [[1]]})

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            matrix_from_json({"field": "quaternion", "n": 1, "rows": [[1]]})

    @pytest.mark.parametrize("field, n, rows, where", [
        ("real", 2, 5, "rows"),
        ("real", 2, [[1, 2], 3], "row 1"),
        ("real", 1, [[None]], r"\(0,0\)"),
        ("real", 2, [[1, 2], [3, {}]], r"\(1,1\)"),
        ("complex", 1, [[[1, {}]]], r"\(0,0\)"),
        ("complex", 1, [[[None, 0]]], r"\(0,0\)"),
        ("real", 1, [["one"]], r"\(0,0\)"),
        ("real", 1, [[10**400]], r"\(0,0\)"),
        ("real", 2, [[1, 0], [0, [1, 1e-300]]], r"complex entry at \(1,1\)"),
    ], ids=["rows_not_list", "row_not_list", "null", "object", "complex_object",
            "complex_null", "word", "huge_int", "complex_in_real"])
    def test_rejects_malformed_entries_by_position(self, field, n, rows, where):
        with pytest.raises(ValueError, match=where) as info:
            matrix_from_json({"field": field, "n": n, "rows": rows})
        assert not isinstance(info.value, DimensionError)

    def test_numbers_strings_and_bools_still_parse(self):
        m = matrix_from_json({"field": "real", "n": 2, "rows": [[1, "2.5"], [True, -0.5]]})
        assert m.arr.tolist() == [[1.0, 2.5], [1.0, -0.5]]
        pair = matrix_from_json({"field": "real", "n": 1, "rows": [[[2.5, 0]]]})
        assert pair.arr.dtype == np.float64 and pair.arr.tolist() == [[2.5]]
        z = matrix_from_json({"field": "complex", "n": 1, "rows": [[["1", False]]]})
        assert z.arr.tolist() == [[1 + 0j]]
