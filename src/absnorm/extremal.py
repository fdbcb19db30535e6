"""Construction and audit of truncated extremal absolute norms.

For a scale c > mu(A) the supremum over all k and all diagonal words of

    c^{-k} ||A D_1 A ... D_{k-1} A D_k x||_2        (k = 0 term: ||x||_2)

defines an absolute norm under which the induced norm of A is at most c.
This module evaluates the depth-m truncation of that supremum.  Every
truncation is itself a genuine absolute norm (a maximum of seminorms
that includes the Euclidean k = 0 term), so the norm axioms are exact
properties of the evaluator, not asymptotic ones; only the contraction
quality depends on c and m.

Evaluation does not extend a product y at level j once c^-j ||y|| G_{m-j}
(1 + 1e-9) cannot reach the best term, where G_r >= c^-k ||A D ... D A||_2
for every word of length k <= r: the value is the full tree's, bit for bit.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    _CHUNK,
    _abs_radius_cap,
    _exponent,
    _extend,
    _levels,
    _normalized,
    _search_setup,
    mu_bounds,
)
from .errors import DimensionError
from .matrices import (
    COMPLEX,
    REAL,
    Matrix,
    WeightedLpNorm,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    vector_norm,
)

__all__ = [
    "TruncatedExtremalNorm",
    "build_norm",
    "eval_norm",
    "contraction_check",
    "verify_norm_axioms",
    "complexify_gap_search",
    "ContractionReport",
    "AxiomReport",
    "GapReport",
    "norm_to_json",
    "norm_from_json",
]


@dataclass(frozen=True)
class TruncatedExtremalNorm:
    """Evaluator state for the depth-m truncated extremal norm.

    ``c_below_certified_upper`` is set when the requested scale does not
    exceed the certified upper bound of mu(A) available at build time; the
    infinite construction requires c > mu(A), so such evaluators cannot be
    contractions.
    """

    matrix: Matrix
    c: float
    m: int
    grid_q: int
    c_below_certified_upper: bool = False
    certified_upper: float = float("nan")
    # From 2^-e A and c 2^-e: the factors D·A^T that extend a row (x^T D A^T =
    # (A D x)^T), and _subtree[r] >= max_{k <= r} c^-k max_words ||A D_1 ... D_{k-1} A||_2.
    _factors: np.ndarray = field(init=False, repr=False, compare=False)
    _subtree: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s, e = _normalized(self.matrix)
        arr, factors = _search_setup(Matrix(s.field, s.arr.T), self.grid_q, True, self.m)[3:]
        # Exact maxima M_k of the tree of A^T (the transposes of A's interiors)
        # while a level fits one chunk, then M_{a+b} <= M_a M_b.
        exact = next(k for k in range(1, self.m + 2) if k > self.m or len(factors) ** k > _CHUNK)
        top = [float(lv.top().max()) for _, lv in _levels(arr, factors, exact, 1)]
        for r in range(exact + 1, self.m + 2):
            top.append(min(top[a - 1] * top[r - a - 1] for a in range(1, r)))
        c = self.c * 2.0**-e
        bound = np.maximum.accumulate(np.array(top) * c ** -np.arange(1.0, self.m + 2))
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_subtree", np.concatenate(([0.0], bound)))

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def complex_letters(self) -> bool:
        return self.matrix.field == COMPLEX or self.grid_q > 2


def build_norm(a, c: float, m: int, grid_q: int = 2) -> TruncatedExtremalNorm:
    """Construct the evaluator, cross-checking c against a certified upper bound.

    A cheap bounds run (depth <= 4) supplies the reference; when c fails
    to exceed it a warning is emitted and the flag recorded, since the
    norm can then no longer witness ``||Ax|| <= c ||x||``.
    """
    mat = as_matrix(a)
    if not 0 < c < math.inf:  # NaN and infinities fail too
        raise ValueError(f"scale c must be positive and finite, got {c!r}")
    if m < 0:
        raise ValueError("truncation depth m must be nonnegative")
    letters = len(_search_setup(mat, grid_q, True, m)[1])

    cross_depth = 1
    while cross_depth < 4 and letters ** (cross_depth + 1) <= 10**6:
        cross_depth += 1
    report = mu_bounds(mat, max_depth=cross_depth, grid_q=grid_q)
    certified = report.upper
    if report.upper_heuristic:
        s, e = _normalized(mat)
        certified = _abs_radius_cap(s) * 2.0**e
    below = c <= certified
    if below:
        warnings.warn(
            f"scale c = {c} does not exceed the certified upper bound "
            f"{certified:.12g} of mu(A); the truncated norm cannot certify "
            f"a contraction at this scale",
            stacklevel=2,
        )
    return TruncatedExtremalNorm(
        matrix=mat,
        c=float(c),
        m=int(m),
        grid_q=int(grid_q),
        c_below_certified_upper=below,
        certified_upper=float(certified),
    )


def _eval_levels(norm: TruncatedExtremalNorm, x, depth):
    """Running maximum of the terms after each level 0..``depth`` (see the module
    docstring), on 2^-f x scaled back by 2^f so that no square under- or overflows."""
    x = np.asarray(x, dtype=complex if norm.complex_letters or np.iscomplexobj(x) else float)
    f = _exponent(x)
    level = (x * 2.0**-f)[None, None, :]
    best = float(np.linalg.norm(level[0, 0]))
    norms, running, scale = np.array([best]), [best], 1.0
    c = norm.c * 2.0**-_exponent(norm.matrix.arr)
    for j in range(1, depth + 1):
        level = level[~(scale * norms * (norm._subtree[depth - j + 1] * (1 + 1e-9)) <= best)]
        if not len(level):
            break
        scale /= c
        level = _extend(level, norm._factors)
        norms = np.linalg.norm(level[:, 0], axis=1)
        best = max(best, scale * float(norms.max()))
        running.append(best)
    return [v * 2.0**f for v in running + [best] * (depth + 1 - len(running))]


def eval_norm(norm: TruncatedExtremalNorm, x) -> float:
    """Evaluate the truncated norm at a vector.

    The k = 0 term makes the value at least ``||x||_2``; depth m = 0
    reduces to the Euclidean norm exactly.  Pruned subtrees leave it unchanged.
    """
    x = np.asarray(x)
    if x.shape != (norm.n,):
        raise DimensionError(f"vector has shape {x.shape}, expected ({norm.n},)")
    if np.iscomplexobj(x) and np.any(x.imag != 0) and not norm.complex_letters:
        raise ValueError(
            "complex vectors need a complex-letter norm; evaluate the "
            "complexification via eval_norm(N, abs(x)) instead"
        )
    return _eval_levels(norm, x, norm.m)[-1]


@dataclass(frozen=True)
class ContractionReport:
    trials: int
    structural_failures: int
    max_empirical_ratio: float
    c: float

    @property
    def passed(self) -> bool:
        return self.structural_failures == 0


def contraction_check(norm: TruncatedExtremalNorm, trials: int = 100, seed: int = 0) -> ContractionReport:
    """Check the index-shift contraction inequality on random vectors.

    The truncation satisfies ``N_m(A x) <= c * N_{m+1}(x)`` exactly
    (every depth-k word of A x is a depth-(k+1) word of x with trailing
    identity letter), so failures beyond 1e-12 relative slack indicate a
    defect.  The empirical ratio ``N_m(A x) / N_m(x)`` is reported; its
    supremum estimates the induced norm of A under the truncation and
    exceeding c flags a scale below mu(A).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _search_setup(norm.matrix, norm.grid_q, True, norm.m + 1)  # capacity of the m+1 walks
    rng = np.random.default_rng(seed)
    arr = norm.matrix.arr
    failures = 0
    max_ratio = 0.0
    for _ in range(trials):
        x = _random_vector(rng, norm.n, norm.complex_letters)
        ax = arr @ x
        lhs = _eval_levels(norm, ax, norm.m)[-1]
        denom, deeper = _eval_levels(norm, x, norm.m + 1)[-2:]  # N_m(x), N_{m+1}(x)
        if lhs > norm.c * deeper * (1 + 1e-12):
            failures += 1
        if denom > 0:
            max_ratio = max(max_ratio, lhs / denom)
    return ContractionReport(trials, failures, float(max_ratio), norm.c)


@dataclass(frozen=True)
class AxiomReport:
    trials: int
    positivity_failures: int
    homogeneity_failures: int
    triangle_failures: int
    absoluteness_failures: int
    monotonicity_failures: int

    @property
    def passed(self) -> bool:
        return (
            self.positivity_failures
            + self.homogeneity_failures
            + self.triangle_failures
            + self.absoluteness_failures
            + self.monotonicity_failures
        ) == 0


def _random_vector(rng, n, complex_data):
    v = rng.standard_normal(n)
    if complex_data:
        v = v + 1j * rng.standard_normal(n)
    return v


def _random_grid_diagonal(rng, n, q, complex_data):
    if not complex_data:
        return rng.choice((-1.0, 1.0), size=n)
    k = rng.integers(0, q, size=n)
    return np.exp(2j * np.pi * k / q)


def verify_norm_axioms(norm: TruncatedExtremalNorm, trials: int = 1000, seed: int = 0) -> AxiomReport:
    """Audit the norm axioms on seeded random vectors, 1e-12 relative slack.

    Checks positivity (the k = 0 term forces value >= ||x||_2), absolute
    homogeneity, the triangle inequality on pairs, absoluteness under
    random unimodular diagonals (grid phases in the complex case), and
    monotonicity under random real entrywise contractions.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    cx = norm.complex_letters
    tol = 1e-12
    pos = hom = tri = absu = mono = 0
    for _ in range(trials):
        x = _random_vector(rng, norm.n, cx)
        y = _random_vector(rng, norm.n, cx)
        vx = eval_norm(norm, x)
        vy = eval_norm(norm, y)

        if not (np.isfinite(vx) and vx >= float(np.linalg.norm(x)) * (1 - tol)) or vx <= 0:
            pos += 1

        t = rng.standard_normal()
        if cx:
            t = t * np.exp(2j * np.pi * rng.random())
        scaled = eval_norm(norm, t * x)
        if abs(scaled - abs(t) * vx) > tol * max(1.0, abs(t) * vx):
            hom += 1

        vxy = eval_norm(norm, x + y)
        if vxy > (vx + vy) * (1 + tol):
            tri += 1

        d = _random_grid_diagonal(rng, norm.n, norm.grid_q, cx)
        if abs(eval_norm(norm, d * x) - vx) > tol * max(1.0, vx):
            absu += 1

        s = rng.random(norm.n)
        if eval_norm(norm, s * y) > vy * (1 + tol):
            mono += 1
    return AxiomReport(trials, pos, hom, tri, absu, mono)


@dataclass(frozen=True)
class GapReport:
    real_sup: float
    complex_sup: float
    gap: float


def _real_norm_eval(norm, v):
    if isinstance(norm, WeightedLpNorm):
        return vector_norm(v, norm)
    if isinstance(norm, TruncatedExtremalNorm):
        return eval_norm(norm, v)
    raise TypeError(f"unsupported norm descriptor {type(norm).__name__}")


def complexify_gap_search(a, norm, trials: int = 200, seed: int = 0) -> GapReport:
    """Compare induced-norm estimates of a real matrix over both fields.

    The complexification of a real absolute norm is ``z -> ||  |z|  ||``.
    Real probing includes the coordinate vectors (which attain the
    induced weighted l1 norm exactly) and per-row sign maximizers for
    weighted l_inf; every real sample also participates on the complex
    side, so the reported gap is nonnegative by construction.  This is
    an experiment, not a decision procedure: it can only ever exhibit a
    positive gap, never certify that none exists.
    """
    mat = as_matrix(a)
    if mat.field != REAL:
        raise ValueError("gap search compares fields of a real matrix")
    if isinstance(norm, TruncatedExtremalNorm) and norm.matrix.field != REAL:
        raise ValueError("norm descriptor must be a real absolute norm")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = mat.n
    arr = mat.arr
    rng = np.random.default_rng(seed)

    probes = [np.eye(n)[j] for j in range(n)]
    if isinstance(norm, WeightedLpNorm) and norm.p == np.inf:
        scaled = arr / norm.w[None, :]
        for i in range(n):
            signs = np.sign(scaled[i])
            if np.any(signs != 0):
                probes.append(np.where(signs == 0, 1.0, signs) / norm.w)

    def ratio_real(x):
        denom = _real_norm_eval(norm, x)
        return _real_norm_eval(norm, arr @ x) / denom if denom > 0 else 0.0

    def ratio_complex(z):
        denom = _real_norm_eval(norm, np.abs(z))
        return _real_norm_eval(norm, np.abs(arr @ z)) / denom if denom > 0 else 0.0

    real_sup = 0.0
    for x in probes:
        real_sup = max(real_sup, ratio_real(x))
    for _ in range(trials):
        real_sup = max(real_sup, ratio_real(rng.standard_normal(n)))

    complex_sup = real_sup
    for _ in range(trials):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        complex_sup = max(complex_sup, ratio_complex(z))
    return GapReport(float(real_sup), float(complex_sup), float(complex_sup - real_sup))


def norm_to_json(norm: TruncatedExtremalNorm) -> dict:
    """Descriptor for round-tripping: ``{"A": ..., "c": ..., "m": ..., "grid_q": ...}``."""
    return {
        "A": matrix_to_json(norm.matrix),
        "c": norm.c,
        "m": norm.m,
        "grid_q": norm.grid_q,
    }


def norm_from_json(data) -> TruncatedExtremalNorm:
    return build_norm(
        matrix_from_json(data["A"]),
        c=float(data["c"]),
        m=int(data["m"]),
        grid_q=int(data["grid_q"]),
    )
