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
The exact level maxima behind G_r also give the evaluator's certified upper
bound on mu(A), so building a norm walks A's word tree once, and only the
prefixes of that tree that can still attain a level maximum
(``bounds._levels`` with no lower side, whose own beam bounds each maximum
from below): growth's walk, rooted and capped by growth's rule, so the bound
is growth's at that depth in every bit.  The evaluator extends its rows by
the factors D·A^T of the same letters, as x^T D A^T = (A D x)^T.

The evaluator walks a stack of vectors at once.  Each vector keeps its own
power-of-two scale and its own best term, and a product is dropped against
its own vector's best, so each vector's terms are those of a walk of that
vector alone.  The walk budgets the rows it actually builds: a level that
would hold more than 2^16 rows extends only its leading whole vectors and
sets the rest aside to walk later.  The audits draw their trials in the
generator order of a per-trial loop, in blocks of one level's budget (2^16 / L
vectors for L letters), one walk per block, so memory does not grow with
``trials``.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    _CHUNK,
    _bound_levels,
    _clears,
    _exponent,
    _extend,
    _levels,
    _normalized,
    _scaled_threshold,
    _search_setup,
    _upper_bounds,
)
from .diagonals import _check_grid_q, _is_count
from .errors import DimensionError
from .matrices import (
    REAL,
    Matrix,
    WeightedLpNorm,
    as_matrix,
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
]

# Product rows the evaluator holds at once: the rows a level extension builds
# plus the rest of that level and the remainders set aside (``_eval_levels``).
_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class TruncatedExtremalNorm:
    """Evaluator state for the depth-m truncated extremal norm.

    ``certified_upper`` is the certified upper bound on mu(A) read from the
    level maxima of A's tree that also bound the evaluator (``bounds._upper_bounds``
    of their best root), and ``c_below_certified_upper`` is set unless c exceeds
    it by more than 1e-12 relative (``bounds._clears``), exactly where growth at
    that depth withholds ``bounded``; the infinite construction requires
    c > mu(A), so such evaluators cannot be contractions.  Both are derived,
    never passed.
    """

    matrix: Matrix
    c: float
    m: int
    grid_q: int
    certified_upper: float = field(init=False)
    c_below_certified_upper: bool = field(init=False)
    # From 2^-e A and _c = c 2^-e: the factors D·A^T, one per letter of A's walk, that
    # extend a row (x^T D A^T = (A D x)^T), and from that walk's maxima
    # _subtree[r] >= max_{k <= r} c^-k max_words ||A D_1 ... D_{k-1} A||_2.
    _c: float = field(init=False, repr=False, compare=False)
    _factors: np.ndarray = field(init=False, repr=False, compare=False)
    _subtree: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.c < math.inf:  # NaN and infinities fail too
            raise ValueError(f"scale c must be positive and finite, got {self.c!r}")
        if not _is_count(self.m, 0):
            raise ValueError(f"truncation depth m must be a nonnegative integer, got {self.m!r}")
        _check_grid_q(self.grid_q)
        s, e = _normalized(self.matrix)
        c = _scaled_threshold(self.c, e, self.m + 1, "scale c")
        q, _, phases, arr, da = _search_setup(s, self.grid_q, self.m)
        # Exact maxima M_k of A's tree while a level fits one chunk, to depth
        # m + 1 and at least 4 for the certified upper bound, rooted and capped
        # as growth does at that depth; deeper, M_{a+b} <= M_a M_b.
        depth = max(self.m + 1, 4)
        exact = next(k for k in range(1, depth + 1) if k == depth or len(da) ** k > _CHUNK)
        levels = [(level.root(), top) for _, level, _, top, _ in _levels(arr, da, exact, 1)]
        certified = _upper_bounds(s, q, min(root for root, _ in levels))[1]
        top = [t for _, t in levels]
        _bound_levels(top, top[-1], exact, exact + self.m + 1)
        bound = np.maximum.accumulate(np.array(top[: self.m + 1]) * c ** -np.arange(1.0, self.m + 2))
        object.__setattr__(self, "certified_upper", certified * 2.0**e)
        object.__setattr__(self, "c_below_certified_upper", not _clears(certified, c))
        object.__setattr__(self, "_c", c)
        # C order: a transposed view would round the evaluator's products apart.
        object.__setattr__(self, "_factors", phases[:, :, None] * np.ascontiguousarray(arr.T)[None])
        object.__setattr__(self, "_subtree", np.concatenate(([0.0], bound)))

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def complex_letters(self) -> bool:
        return np.iscomplexobj(self._factors)


def build_norm(a, c: float, m: int, grid_q: int = 2) -> TruncatedExtremalNorm:
    """Construct the evaluator, warning when c does not exceed its
    ``certified_upper``: the norm can then no longer witness ``||Ax|| <= c ||x||``."""
    norm = TruncatedExtremalNorm(as_matrix(a), float(c), m, grid_q)
    if norm.c_below_certified_upper:
        warnings.warn(
            f"scale c = {c} does not exceed the certified upper bound "
            f"{norm.certified_upper:.12g} of mu(A); the truncated norm cannot certify "
            f"a contraction at this scale",
            stacklevel=2,
        )
    return norm


def _eval_levels(norm: TruncatedExtremalNorm, xs, depth):
    """Running maxima, shape (V, ``depth`` + 1), of the terms after each level
    0..``depth`` (see the module docstring) at the rows of the (V, n) stack ``xs``.
    Row v is walked as 2^-f_v x_v and scaled back by 2^f_v, so that no square
    under- or overflows.  The products of each row stay contiguous and in row
    order, so a level's maxima are one ``reduceat`` over the rows' segments.

    A level is extended as far as its leading whole vectors fit, one vector at
    least: the rows held afterwards (the new rows, the rest of the level and
    every remainder set aside) stay within ``_BLOCK_ROWS``.  The rest is set
    aside with its level and scale and walked later.  On a stack of at most
    ``_BLOCK_ROWS`` vectors the remainders never hold more than ``_BLOCK_ROWS``
    rows, and an extension builds at most ``_BLOCK_ROWS`` rows or one vector's
    level.  A vector's level is extended in one piece and pruned against its
    own best, so its terms are those of its own walk."""
    xs = np.asarray(xs, dtype=complex if norm.complex_letters or np.iscomplexobj(xs) else float)
    f = _exponent(xs, axis=1)
    level = (xs * np.ldexp(1.0, -f)[:, None])[:, None, :]
    norms = np.linalg.norm(level[:, 0], axis=1)
    best, letters = norms.copy(), len(norm._factors)
    # Levels a vector's walk never reached read -inf until the running maximum.
    running = np.full((len(xs), depth + 1), -np.inf)
    running[:, 0] = best
    aside = [(level, np.arange(len(xs)), norms, 1, 1.0)]
    while aside:
        level, owner, norms, j, scale = aside.pop()
        held = sum(len(rest[0]) for rest in aside)
        while j <= depth:
            keep = ~(scale * norms * (norm._subtree[depth - j + 1] * (1 + 1e-9)) <= best[owner])
            level, owner = level[keep], owner[keep]
            if not len(level):
                break
            starts = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
            k = len(level)
            if k * letters + held > _BLOCK_ROWS and len(starts) > 1:
                # The leading e of the k rows extend, whole vectors and one at least, with
                # e L + (k - e) + held <= _BLOCK_ROWS.  The rest is copied aside, so that
                # it does not keep the whole level alive.
                ends = np.append(starts[1:], k)
                fit = max(1, int(np.searchsorted(ends * (letters - 1), _BLOCK_ROWS - held - k, "right")))
                e = ends[fit - 1]
                aside.append((level[e:].copy(), owner[e:].copy(), norms[keep][e:].copy(), j, scale))
                held += k - e
                level, owner, starts = level[:e], owner[:e], starts[:fit]
            ids = owner[starts]
            scale /= norm._c
            level = _extend(level, norm._factors)
            owner = np.repeat(owner, letters)
            norms = np.linalg.norm(level[:, 0], axis=1)
            # fmax keeps best where a term is NaN, as max(best, term) did per vector.
            terms = scale * np.maximum.reduceat(norms, starts * letters)
            best[ids] = running[ids, j] = np.fmax(best[ids], terms)
            j += 1
    with np.errstate(over="ignore"):  # a finite x whose value overflows reads inf
        return np.maximum.accumulate(running, axis=1) * np.ldexp(1.0, f)[:, None]


def _block_vectors(norm):
    """Vectors in one audit block: one level's ``_BLOCK_ROWS`` rows, one vector at least."""
    return max(1, _BLOCK_ROWS // len(norm._factors))


def _images(arr, xs):
    """A x for each row x, one matrix-vector product per row in one broadcast
    ``np.matmul``, so that no row rounds differently with the block size."""
    return np.matmul(arr, np.asarray(xs)[..., None])[..., 0]


def _blocks(count, size):
    """``count`` trials split into consecutive blocks of ``size`` (the last may be short)."""
    return [min(size, count - start) for start in range(0, count, size)]


def eval_norm(norm: TruncatedExtremalNorm, x) -> float:
    """Evaluate the truncated norm at a finite vector.

    The k = 0 term makes the value at least ``||x||_2``; depth m = 0
    reduces to the Euclidean norm exactly.  Pruned subtrees leave it unchanged.
    A finite vector whose value overflows reads ``inf``.
    """
    x = np.asarray(x)
    if x.shape != (norm.n,):
        raise DimensionError(f"vector has shape {x.shape}, expected ({norm.n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"vector must be finite, got {x!r}")
    if np.iscomplexobj(x) and np.any(x.imag != 0) and not norm.complex_letters:
        raise ValueError(
            "complex vectors need a complex-letter norm; evaluate the "
            "complexification via eval_norm(N, abs(x)) instead"
        )
    return float(_eval_levels(norm, x[None], norm.m)[0, -1])


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
    if not _is_count(trials, 1):
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    _search_setup(norm.matrix, norm.grid_q, norm.m + 1)  # capacity of the m+1 walks
    rng = np.random.default_rng(seed)
    arr = norm.matrix.arr
    n, cx = norm.n, norm.complex_letters
    failures = 0
    max_ratio = 0.0
    for size in _blocks(trials, _block_vectors(norm)):
        xs = np.array([_random_vector(rng, n, cx) for _ in range(size)])
        lhs = _eval_levels(norm, _images(arr, xs), norm.m)[:, -1]
        denom, deeper = _eval_levels(norm, xs, norm.m + 1)[:, -2:].T  # N_m(x), N_{m+1}(x)
        failures += int(np.count_nonzero(lhs > norm.c * deeper * (1 + 1e-12)))
        positive = denom > 0
        max_ratio = float(np.fmax.reduce(lhs[positive] / denom[positive], initial=max_ratio))
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
    if not complex_data:  # the draws of rng.choice((-1.0, 1.0), size=n), without its checks
        return np.array((-1.0, 1.0))[rng.integers(0, 2, size=n)]
    k = rng.integers(0, q, size=n)
    return np.exp(2j * np.pi * k / q)


def _axiom_draw(rng, n, q, cx):
    """One axiom trial's x, y, t, d and s, in the audit's generator order."""
    x = _random_vector(rng, n, cx)
    y = _random_vector(rng, n, cx)
    t = rng.standard_normal()
    if cx:
        t = t * np.exp(2j * np.pi * rng.random())
    return x, y, t, _random_grid_diagonal(rng, n, q, cx), rng.random(n)


def verify_norm_axioms(norm: TruncatedExtremalNorm, trials: int = 1000, seed: int = 0) -> AxiomReport:
    """Audit the norm axioms on seeded random vectors, 1e-12 relative slack.

    Checks positivity (the k = 0 term forces value >= ||x||_2), absolute
    homogeneity, the triangle inequality on pairs, absoluteness under
    random unimodular diagonals (grid phases in the complex case), and
    monotonicity under random real entrywise contractions.
    """
    if not _is_count(trials, 1):
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    tol = 1e-12
    counts = np.zeros(5, dtype=int)
    params = norm.n, norm.grid_q, norm.complex_letters
    for size in _blocks(trials, max(1, _block_vectors(norm) // 6)):
        x, y, t, d, s = map(np.array, zip(*(_axiom_draw(rng, *params) for _ in range(size))))
        stack = np.concatenate([x, y, t[:, None] * x, x + y, d * x, s * y])
        vx, vy, scaled, vxy, vdx, vsy = _eval_levels(norm, stack, norm.m)[:, -1].reshape(6, size)
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite values count, not raise
            tvx = np.abs(t) * vx
            counts += [
                np.count_nonzero(
                    ~(np.isfinite(vx) & (vx >= np.linalg.norm(x, axis=1) * (1 - tol))) | (vx <= 0)
                ),
                np.count_nonzero(np.abs(scaled - tvx) > tol * np.maximum(1.0, tvx)),
                np.count_nonzero(vxy > (vx + vy) * (1 + tol)),
                np.count_nonzero(np.abs(vdx - vx) > tol * np.maximum(1.0, vx)),
                np.count_nonzero(vsy > vy * (1 + tol)),
            ]
    return AxiomReport(trials, *map(int, counts))


@dataclass(frozen=True)
class GapReport:
    real_sup: float
    complex_sup: float
    gap: float


def _norm_rows(norm, xs):
    """A weighted l_p or truncated extremal norm at the rows of the stack ``xs``."""
    if isinstance(norm, WeightedLpNorm):
        return np.linalg.norm(norm.w * xs, ord=norm.p, axis=1)
    return _eval_levels(norm, xs, norm.m)[:, -1]


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
    if not _is_count(trials, 1):
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    if not isinstance(norm, (WeightedLpNorm, TruncatedExtremalNorm)):
        raise TypeError(f"unsupported norm descriptor {type(norm).__name__}")
    n = mat.n
    if norm.n != n:
        raise DimensionError(f"norm has dimension {norm.n} but the matrix is {n}x{n}")
    arr = mat.arr
    rng = np.random.default_rng(seed)

    probes = [np.eye(n)[j] for j in range(n)]
    if isinstance(norm, WeightedLpNorm) and norm.p == np.inf:
        scaled = arr / norm.w[None, :]
        for i in range(n):
            signs = np.sign(scaled[i])
            if np.any(signs != 0):
                probes.append(np.where(signs == 0, 1.0, signs) / norm.w)

    def sup(start, xs, images):
        """max(start, max_v N(images_v) / N(xs_v)), a ratio reading 0 where N(x) = 0."""
        values = _norm_rows(norm, np.concatenate([xs, images]))
        num, den = values[len(xs) :], values[: len(xs)]
        ratios = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        return float(np.fmax.reduce(ratios, initial=start))

    # Two evaluated vectors per trial, x and A x; an l_p norm has one row per vector.
    per_block = _block_vectors(norm) if isinstance(norm, TruncatedExtremalNorm) else _BLOCK_ROWS
    blocks = _blocks(trials, max(1, per_block // 2))
    real_sup = sup(0.0, np.array(probes), _images(arr, probes))
    for size in blocks:
        xs = rng.standard_normal((size, n))
        real_sup = sup(real_sup, xs, _images(arr, xs))

    complex_sup = real_sup
    for size in blocks:
        w = rng.standard_normal((size, 2, n))  # the real and imaginary parts of each z
        zs = w[:, 0] + 1j * w[:, 1]
        complex_sup = sup(complex_sup, np.abs(zs), np.abs(_images(arr, zs)))
    return GapReport(float(real_sup), float(complex_sup), float(complex_sup - real_sup))

