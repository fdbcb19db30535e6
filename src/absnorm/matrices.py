"""Dense kernels over the real and complex fields.

Square matrices carry an explicit field tag so that real inputs are never
silently promoted to complex storage.  The module provides the spectral
quantities (spectral radius, spectral norm; one LAPACK kernel each, over
stacks too, whose failure raises NonConvergenceError with no iteration
count) and the weighted l_p vector norms together with their exactly
computable induced operator norms for p in {1, 2, inf}.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonConvergenceError

__all__ = [
    "REAL",
    "COMPLEX",
    "Matrix",
    "WeightedLpNorm",
    "as_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "spectral_radius",
    "spectral_norm",
    "entrywise_abs",
    "vector_norm",
    "induced_norm",
]

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True)
class Matrix:
    """A square matrix over the real or complex field.

    Attributes
    ----------
    field : str
        Either ``"real"`` or ``"complex"``.
    arr : numpy.ndarray
        The (n, n) entry array, float64 for real and complex128 for
        complex matrices, C-ordered whatever the input's layout.  The
        array is frozen (read-only).
    """

    field: str
    arr: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionError("matrix dimension must be at least 1")
        if self.field == REAL:
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0):
                    raise ValueError("real matrix has nonzero imaginary parts")
                arr = arr.real
            arr = arr.astype(np.float64, order="C", copy=True)
        elif self.field == COMPLEX:
            arr = arr.astype(np.complex128, order="C", copy=True)
        else:
            raise ValueError(f"unknown field tag {self.field!r}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "arr", arr)

    @property
    def n(self) -> int:
        return self.arr.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.arr, other.arr)

    def __hash__(self):
        return hash((self.field, self.arr.shape, self.arr.tobytes()))


def as_matrix(a) -> Matrix:
    """Coerce ``a`` to a :class:`Matrix`.

    Arrays and nested sequences are accepted; the field tag is inferred
    from the data (complex data with all-zero imaginary parts infers
    ``"real"``).
    """
    if isinstance(a, Matrix):
        return a
    arr = np.asarray(a)
    field = COMPLEX if np.iscomplexobj(arr) and np.any(arr.imag != 0) else REAL
    return Matrix(field, arr)


def matrix_from_json(data) -> Matrix:
    """Parse the shared matrix file format.

    The schema is ``{"field": "real"|"complex", "n": int, "rows": [[s, ...], ...]}``
    where a real scalar is a number and a complex scalar is an ``[re, im]``
    pair.  Non-square data is rejected with :class:`DimensionError`.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        field = data["field"]
        n = data["n"]
        rows = data["rows"]
    except KeyError as exc:
        raise ValueError(f"matrix JSON missing key {exc}") from None
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field tag {field!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DimensionError(f"dimension must be a positive integer, got {n!r}")
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"matrix rows must be a list, got {rows!r}")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"matrix row {i} must be a list, got {row!r}")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise DimensionError(
            f"rows do not form a {n}x{n} matrix "
            f"(got {len(rows)} rows of lengths {[len(r) for r in rows]})"
        )
    dtype = np.float64 if field == REAL else np.complex128
    arr = np.zeros((n, n), dtype=dtype)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if isinstance(entry, (list, tuple)):
                if len(entry) != 2:
                    raise ValueError(f"complex scalar at ({i},{j}) must be [re, im]")
                re, im = _scalar(entry[0], i, j), _scalar(entry[1], i, j)
                if field == REAL:
                    if im != 0:
                        raise ValueError(f"real matrix has complex entry at ({i},{j})")
                    arr[i, j] = re
                else:
                    arr[i, j] = complex(re, im)
            else:
                arr[i, j] = _scalar(entry, i, j)
    return Matrix(field, arr)


def _scalar(value, i, j):
    """``float(value)`` of the entry at (i, j), with a ValueError that names it."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"matrix entry at ({i},{j}) is not a number: {value!r}") from None


def matrix_to_json(m: Matrix) -> dict:
    """Emit the shared matrix file format (inverse of :func:`matrix_from_json`)."""
    if m.field == REAL:
        rows = [[float(v) for v in row] for row in m.arr]
    else:
        rows = [[[float(v.real), float(v.imag)] for v in row] for row in m.arr]
    return {"field": m.field, "n": m.n, "rows": rows}


def _radii(batch):
    """Largest eigenvalue modulus of each matrix of a stack (or of one matrix)."""
    try:
        return np.abs(np.linalg.eigvals(batch)).max(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc


def _norms(batch):
    """Largest singular value of each matrix of a stack (or of one matrix)."""
    try:
        return np.linalg.svd(batch, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"SVD did not converge: {exc}") from exc


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of a square matrix.

    Uses the dense nonsymmetric QR eigensolver (Hessenberg reduction
    followed by shifted QR iteration, via LAPACK).

    Raises
    ------
    NonConvergenceError
        If the QR iteration fails to converge; LAPACK reports no
        iteration count, so ``iterations`` is 0.
    """
    return float(_radii(as_matrix(a).arr))


def spectral_norm(a) -> float:
    """Largest singular value of a square matrix."""
    return float(_norms(as_matrix(a).arr))


def entrywise_abs(a) -> Matrix:
    """Entrywise absolute value; the result is always a real matrix."""
    m = as_matrix(a)
    return Matrix(REAL, np.abs(m.arr))


@dataclass(frozen=True)
class WeightedLpNorm:
    """The absolute vector norm ``x -> ||W x||_p`` with positive diagonal W.

    Only p in {1, 2, inf} is supported; these are exactly the exponents
    with closed-form induced operator norms.
    """

    w: np.ndarray
    p: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise DimensionError("weight must be a nonempty vector")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        if self.p not in (1, 2, np.inf):
            raise ValueError(f"p must be 1, 2 or inf, got {self.p!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "p", float(self.p))

    @property
    def n(self) -> int:
        return self.w.size

    def __eq__(self, other):
        if not isinstance(other, WeightedLpNorm):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.w, other.w)

    def __hash__(self):
        return hash((self.p, self.w.tobytes()))


def vector_norm(x, norm: WeightedLpNorm) -> float:
    """Evaluate ``||W x||_p``."""
    x = np.asarray(x)
    if x.shape != (norm.n,):
        raise DimensionError(f"vector has shape {x.shape}, expected ({norm.n},)")
    return float(np.linalg.norm(norm.w * x, ord=norm.p))


def induced_norm(a, norm: WeightedLpNorm) -> float:
    """Operator norm of ``a`` induced by a weighted l_p norm, computed exactly.

    For p=1 this is the largest weighted column sum
    ``max_j (|A|^T w)_j / w_j``; for p=inf the largest weighted row sum;
    for p=2 the spectral norm of ``W A W^{-1}``.
    """
    m = as_matrix(a)
    if m.n != norm.n:
        raise DimensionError(f"matrix is {m.n}x{m.n} but norm has dimension {norm.n}")
    w = norm.w
    absa = np.abs(m.arr)
    if norm.p == 1:
        return float((absa.T @ w / w).max())
    if norm.p == np.inf:
        return float((w * (absa @ (1.0 / w))).max())
    return spectral_norm(Matrix(m.field, (w[:, None] * m.arr) / w[None, :]))
