"""Certified two-sided bounds on the smallest absolute-norm-induced norm of a matrix.

The quantity bounded here, mu(A), is the joint spectral radius of the
family {A D : D unimodular diagonal}: the growth rate of the largest
2-norm of products A D_1 A D_2 ... A D_k.  Every finite depth yields
certificates in both directions:

* lower: rho(A D_1 ... A D_k)^(1/k) <= mu(A) for any word,
* upper: (max over words of ||A D_1 ... D_{k-1} A||_2)^(1/k) >= mu(A)
  by submultiplicativity (the trailing diagonal is dropped because it
  cannot change a 2-norm).

Both families are read off one walk over the tree of interior products
P = A D_1 ... D_{k-1} A (integer-coded letters, extended level by level by
the factors D A).  A decision on an interior's 2-norm is first tried on the
bound ||P||_F (1 + 1e-12); the SVD runs only where that cannot settle it.
The lower side applies the terminal letter as a column scaling T = P D_k and,
as rho(T) <= ||T|| = ||P||, builds the terminals only of the prefixes with
||P||^(1/k) within twice the tie slack of the best value so far.  In blocks
of about 4096 terminals it then bounds rho(T) <= ||T^2||_F^(1/2), with a
rounding margin, and eigensolves only the terminals whose bound reaches that
bar; the exhaustive maximum and its lexicographic tie-break are unchanged.

The upper side is the best level maximum, min over k of M_k^(1/k) with
M_k the largest ||P|| on level k, read from the interiors that can attain it.
``prune_delta`` is accepted for compatibility and has no effect.

All searches, and the shortcut's rho(|A|), run on 2^-e A with 2^e just
above max|a_ij| and scale back exactly, so products at scales like 1e-200
or 1e100 stay in range and the Perron tolerance acts relative to the scale.

Over the reals the diagonal group is enumerated exactly, so both bounds
are certified.  Over the complexes the group is replaced by the grid of
q-th roots of unity: lower bounds stay valid (the grid is a subgroup)
but upper bounds are only heuristic for n > 1 and are flagged as such.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagonals import (
    DiagonalWord,
    UnimodularDiagonal,
    _alphabet,
    identity_diagonal,
    word_from_json,
    word_to_json,
)
from .errors import CapacityError, NonConvergenceError
from .matrices import COMPLEX, Matrix, as_matrix, entrywise_abs, spectral_radius
from .perron import nonneg_spectral_radius
from .signequiv import EquivalenceWitness, is_nonnegative, sign_equivalent_to_abs

__all__ = [
    "BoundsReport",
    "GrowthQuery",
    "GrowthReport",
    "mu_lower_bound",
    "mu_upper_bound",
    "mu_bounds",
    "check_growth_condition",
    "bounds_report_to_json",
    "bounds_report_from_json",
]

_NODE_BUDGET = 10**8
_CHUNK = 1 << 16
# Terminal products per eigensolve block of the lower walk.
_BLOCK = 4096
# Two values within this relative slack are treated as a tie, resolved to
# the lexicographically earlier word.
_TIE_REL = 1e-12


@dataclass(frozen=True)
class BoundsReport:
    """Certified interval for mu(A) with its witnesses and search metadata;
    ``nodes_visited`` counts the words the lower side covers (the sum of L^k
    over k <= depth for L letters, 0 when a shortcut applies)."""

    lower: float
    upper: float
    lower_witness: DiagonalWord
    depth_explored: int
    nodes_visited: int
    exact: bool
    shortcut: str
    grid_q: int | None
    upper_heuristic: bool = False

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"lower bound {self.lower!r} exceeds upper bound {self.upper!r}")


@dataclass(frozen=True)
class GrowthQuery:
    """Parameters of the bounded-growth question.

    The threshold is ``level`` when supplied, otherwise ``rho(A) + eps``.
    """

    eps: float | None
    m: int
    level: float | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("depth m must be at least 1")
        if self.level is None:
            if self.eps is None or not 0 < self.eps < math.inf:
                raise ValueError(f"eps must be positive and finite without a level, got {self.eps!r}")
        elif not 0 < self.level < math.inf:
            raise ValueError(f"level must be positive and finite, got {self.level!r}")


@dataclass(frozen=True)
class GrowthReport:
    verdict: str
    sequence: tuple
    threshold: float
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "sequence", tuple(float(g) for g in self.sequence))


def _search_setup(m, grid_q, quotient, depth=0):
    """Alphabet, matrix in the search dtype and interior factors of a walk.

    Returns ``(q, exponents, phases, arr, da)`` with da the factors D·A and q
    None for sign letters, used unless the matrix is complex or grid_q > 2.
    A walk of ``depth`` levels over the node budget is refused.
    """
    complex_search = m.field == COMPLEX or grid_q > 2
    q = grid_q if complex_search else None
    exponents, phases = _alphabet(m.n, q, quotient)
    if len(phases) ** depth > _NODE_BUDGET:
        raise CapacityError(
            f"diagonal-word tree of {len(phases)}^{depth} nodes exceeds "
            f"the {_NODE_BUDGET} node budget"
        )
    arr = m.arr.astype(np.complex128 if complex_search else np.float64)
    return q, exponents, phases, arr, phases[:, :, None] * arr[None, :, :]


def _check_search_args(max_depth, prune_delta=0.0):
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if not 0 <= prune_delta < math.inf:  # NaN and infinities fail too
        raise ValueError(f"prune_delta must be nonnegative and finite, got {prune_delta!r}")


def _ordered_map(fn, blocks, threads):
    """``[fn(b) for b in blocks]``, over a thread pool when threads > 1."""
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, blocks))
    return [fn(b) for b in blocks]


def _chunked(batch, fn, threads):
    """``fn`` applied to row-chunks of a stacked matrix batch, concatenated in order."""
    blocks = [batch[i : i + _CHUNK] for i in range(0, len(batch), _CHUNK)] or [batch]
    out = _ordered_map(fn, blocks, threads)
    return out[0] if len(out) == 1 else np.concatenate(out)


def _batch_norms(batch, threads=1):
    try:
        return _chunked(batch, lambda b: np.linalg.svd(b, compute_uv=False)[..., 0], threads)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"SVD did not converge on a product batch: {exc}") from exc


class _LevelNorms:
    """A level of interiors with bounds hi = ||P||_F (1 + 1e-12) >= ||P||_2 (P scaled
    by its largest |entry| first); the SVD runs only where a decision asks, once each."""

    def __init__(self, interior, depth, threads):
        self.interior, self.depth, self.threads = interior, depth, threads
        self.hi, self.exact = np.empty(len(interior)), np.full(len(interior), np.nan)
        for i in range(0, len(interior), 4096):  # keeps the |P| temporary small
            mag = np.abs(interior[i : i + 4096])
            top = mag.max(axis=(1, 2))
            mag /= np.where(top > 0, top, 1.0)[:, None, None]
            self.hi[i : i + 4096] = top * np.sqrt(np.square(mag, out=mag).sum(axis=(1, 2)))
        self.hi *= 1 + 1e-12

    def norms(self, idx):
        todo = idx[np.isnan(self.exact[idx])]
        self.exact[todo] = _batch_norms(self.interior[todo], self.threads)
        return self.exact[idx]

    def where(self, bound):
        """Mask of the interiors with ||P||^(1/depth) >= bound."""
        mask = self.hi ** (1.0 / self.depth) >= bound
        mask[mask] = self.norms(np.flatnonzero(mask)) ** (1.0 / self.depth) >= bound
        return mask

    def top(self):
        """SVD norms of every interior that can hold the level's largest norm."""
        return self.norms(np.flatnonzero(self.hi >= self.norms(np.argmax(self.hi, keepdims=True))))


def _batch_radii(batch, threads=1):
    try:
        return _chunked(batch, lambda b: np.abs(np.linalg.eigvals(b)).max(axis=-1), threads)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(
            f"eigensolver did not converge on a product batch: {exc}"
        ) from exc


def _extend(batch, factors, threads=1):
    """All products ``batch[i] @ factors[l]``, l fastest; (1, n) row batches work too."""

    def block(b):
        return np.einsum("mij,ljk->mlik", b, factors).reshape(-1, *b.shape[1:])

    return _chunked(batch, block, threads)


def _first_within_tie(values):
    """Index of the first entry within relative tie slack of the maximum."""
    vmax = float(values.max())
    if not math.isfinite(vmax):
        return int(np.argmax(values)), vmax
    thresh = vmax - _TIE_REL * max(1.0, abs(vmax))
    first = int(np.argmax(values >= thresh))
    return first, float(values[first])


def _terminal(interior, phases):
    """All products ``P·D`` (column scaling by each letter), letter fastest."""
    n = interior.shape[-1]
    return (interior[:, None, :, :] * phases[None, :, None, :]).reshape(-1, n, n)


def _root_bounds(level, rows, terminals):
    """Upper bounds on rho(T)^(1/depth) for ``terminals = _terminal(level.interior[rows], phases)``.

    rho(T)^2 = rho(T^2) <= ||T^2||_F.  T is divided by its interior's largest
    |entry| s first (a unimodular column scaling keeps |t_ij| and ||T||_F =
    ||P||_F), and |fl(T^2) - T^2| <= gamma |T|^2 entrywise (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3), so
    rho(T) <= s ((||fl(T^2)||_F + gamma ||T / s||_F^2) (1 + 1e-12))^(1/2),
    with ||T / s||_F read from ``level.hi`` / s, which over-estimates it by
    about 1 + 1e-12 while ``level.hi`` is a normal float.
    gamma = m u / (1 - m u) with m = n for the real product (n + 2 over C,
    Higham §3.6), plus 2 for the rounding of T / s.  The factor 1 + 1e-12
    covers the rounding of the norms.  ||T / s||_F is at least 1, so squares
    lost to underflow stay inside the margin, and the 1/depth root is taken
    per factor, so none underflows.

    gamma has 2n^2 + 1 more units so that the bound also dominates
    eigenvalues computed with a backward error E of ||E||_F <= n^2 u ||T||_F
    (then rho(T + E)^2 <= ||T^2||_F + (2n^2 u + n^4 u^2) ||T||_F^2; a
    nilpotent T has computed eigenvalues of about u^(1/2) ||T||_F).  LAPACK
    bounds E only by p(n) u ||T|| with p(n) "a modestly growing function of
    n" (LAPACK Users' Guide, §4.8), so p(n) = n^2 is an assumption, checked
    on 1.4M random, complex, nilpotent and Jordan-like matrices.  The
    certificate does not rest on it: a dropped terminal's exact rho is below
    the bar.  Only the claim that the gated walk eigensolves every terminal
    whose computed rho could win, and so matches the ungated walk bit for
    bit, is empirical.
    """
    n, letters = terminals.shape[-1], len(terminals) // len(rows)
    scale = np.abs(level.interior[rows]).max(axis=(1, 2))
    scale = np.where(scale > 0, scale, 1.0)
    scaled = terminals / np.repeat(scale, letters)[:, None, None]
    square = (scaled @ scaled).view(np.float64)  # a complex square as its real pairs
    units = 2 * n * n + n + (5 if np.iscomplexobj(terminals) else 3)
    gamma = units * 2.0**-53 / (1 - units * 2.0**-53)
    bound = np.sqrt(np.square(square, out=square).sum(axis=(1, 2)))
    bound += gamma * np.repeat(np.square(level.hi[rows] / scale), letters)
    root = 1.0 / level.depth
    return np.repeat(scale**root, letters) * (bound * (1 + 1e-12)) ** (root / 2)


def _gated_radii(level, cand, phases, bar, threads):
    """rho of every terminal ``P·D`` of the interiors ``cand`` (``_terminal`` order),
    0 where ``_root_bounds`` certifies rho^(1/depth) < bar (bar = -inf keeps all).

    Terminals are built, bounded and eigensolved in blocks of about ``_BLOCK``
    rows.  The blocks run over ``threads`` when the level has more than
    ``_CHUNK`` terminals: each worker thread keeps a malloc arena of about a
    block's temporaries, which costs more resident memory than threads save
    on a level of a few blocks.
    """
    per = max(1, _BLOCK // len(phases))

    def solve(rows):
        terminals = _terminal(level.interior[rows], phases)
        keep = _root_bounds(level, rows, terminals) >= bar
        radii = np.zeros(len(terminals))
        radii[keep] = _batch_radii(terminals[keep])
        return radii

    blocks = [cand[i : i + per] for i in range(0, len(cand), per)]
    threads = threads if len(cand) * len(phases) > _CHUNK else 1
    return np.concatenate(_ordered_map(solve, blocks, threads))


def _improves(candidate, best):
    if not math.isfinite(best):
        return candidate > best
    return candidate > best + _TIE_REL * max(1.0, abs(best))


def _exponent(arr):
    """e with 2^(e-1) <= max|a_i| < 2^e (0 for 0), in +-1021 so 2.0**+-e is normal."""
    return min(max(int(np.frexp(np.abs(arr).max())[1]), -1021), 1021)


def _normalized(m):
    """``(2^-e A, e)`` with e = ``_exponent(A)``."""
    e = _exponent(m.arr)
    return Matrix(m.field, np.ldexp(m.arr.view(np.float64), -e).view(m.arr.dtype)), e


def _abs_radius_cap(s):
    """rho(|S|) + 1e-10 >= mu(S) for S = 2^-e A (``_normalized``), which holds over
    both fields; the Perron tolerance is relative to the unit scale of S."""
    return nonneg_spectral_radius(entrywise_abs(s), tol=1e-10).rho + 1e-10


def _levels(arr, da, max_depth, threads):
    """``(depth, _LevelNorms)`` of each level of the interior tree."""
    interior = arr[None, :, :]
    for depth in range(1, max_depth + 1):
        if depth > 1:
            interior = _extend(interior, da, threads)
        yield depth, _LevelNorms(interior, depth, threads)


def _walk(m, max_depth, grid_q, threads, quotient):
    """``(lower, witness, upper, nodes)`` of one walk; see the module docstring."""
    q, exponents, phases, arr, da = _search_setup(m, grid_q, quotient, max_depth)
    size = len(phases)
    best, best_flat, best_depth = -np.inf, 0, 1
    upper, nodes = np.inf, 0
    for depth, level in _levels(arr, da, max_depth, threads):
        # Lower: rho(P D) <= ||P D|| = ||P||, so only the prefixes whose norm
        # reaches the best value within twice the tie slack are extended by a
        # letter, and only the terminals whose square bound reaches it are
        # eigensolved.  A word below that bar cannot tie with an improvement.
        nodes += size**depth
        bar = best - 2 * _TIE_REL * max(1.0, abs(best))
        cand = np.flatnonzero(level.where(bar))
        if cand.size:
            radii = _gated_radii(level, cand, phases, bar, threads)
            first, value = _first_within_tie(radii ** (1.0 / depth))
            if _improves(value, best):
                best, best_depth = value, depth
                best_flat = int(cand[first // size]) * size + first % size
        # Upper: M_k^(1/k) >= mu(A) at every depth k.
        upper = min(upper, float((level.top() ** (1.0 / depth)).max()))
    digits = np.unravel_index(best_flat, (size,) * best_depth)
    letters = (UnimodularDiagonal(phases[d], q=q or 2, indices=exponents[d]) for d in digits)
    return float(best), DiagonalWord(tuple(letters)), upper, nodes


def mu_lower_bound(
    a,
    max_depth: int,
    grid_q: int = 2,
    threads: int = 1,
    quotient: bool = True,
):
    """Best certified lower bound from spectral radii of diagonal-word products.

    Exhaustively maximizes ``rho(A D_1 ... A D_k)^(1/k)`` over all words
    of length k <= max_depth (depth 1 is exactly ``max_D rho(A D)``).
    Ties within 1e-12 relative resolve to the lexicographically earliest
    word at the shallowest depth.

    Returns
    -------
    (float, DiagonalWord)
        The bound and a word attaining it.
    """
    m = as_matrix(a)
    _check_search_args(max_depth)
    s, e = _normalized(m)
    value, word, _, _ = _walk(s, max_depth, grid_q, threads, quotient)
    return value * 2.0**e, word


def mu_upper_bound(
    a,
    max_depth: int,
    grid_q: int = 2,
    prune_delta: float = 1e-3,
    threads: int = 1,
    quotient: bool = True,
) -> float:
    """Certified upper bound from norms of diagonal-word products.

    Returns min over k <= max_depth of M_k^(1/k), M_k the largest level-k
    product norm.  ``prune_delta`` is accepted and validated but has no
    effect.  Over a complex phase grid with n > 1 the returned value only
    bounds the grid-restricted supremum (callers flag it heuristic).
    """
    m = as_matrix(a)
    _check_search_args(max_depth, prune_delta)
    s, e = _normalized(m)
    return _walk(s, max_depth, grid_q, threads, quotient)[2] * 2.0**e


def mu_bounds(
    a,
    max_depth: int = 6,
    grid_q: int = 2,
    prune_delta: float = 1e-3,
    tol: float = 1e-9,
    threads: int = 1,
    use_shortcut: bool = True,
) -> BoundsReport:
    """Two-sided certified bounds on mu(A) with shortcut detection.

    When A is sign equivalent to |A| (nonnegative matrices included),
    mu(A) = rho(|A|) exactly, reported as its Perron bracket; otherwise the
    lower and upper engines run to ``max_depth`` and the upper bound is
    additionally capped at rho(|A|), which dominates mu(A) for every
    matrix.  ``use_shortcut=False`` forces the generic engine (used to
    cross-validate the shortcut).  The reported upper bound is never
    below the reported lower bound.  ``prune_delta`` is accepted and
    validated but has no effect.
    """
    m = as_matrix(a)
    _check_search_args(max_depth, prune_delta)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    complex_search = m.field == COMPLEX or grid_q > 2
    report_q = grid_q if complex_search else None
    s, e = _normalized(m)

    if use_shortcut:
        shortcut = None
        if is_nonnegative(m):
            shortcut = "nonnegative"
            witness_letter = identity_diagonal(m.n)
        else:
            found = sign_equivalent_to_abs(m)
            if isinstance(found, EquivalenceWitness):
                shortcut = "sign_equivalent"
                combined = np.conj(found.left.phases * found.right.phases)
                witness_letter = UnimodularDiagonal(combined)
        if shortcut is not None:
            perron = nonneg_spectral_radius(entrywise_abs(s), tol=min(tol, 1e-10))
            word = DiagonalWord((witness_letter,)).canonical()
            return BoundsReport(
                lower=perron.bracket[0] * 2.0**e,
                upper=perron.rho * 2.0**e,
                lower_witness=word,
                depth_explored=1,
                nodes_visited=0,
                exact=True,
                shortcut=shortcut,
                grid_q=None,
                upper_heuristic=False,
            )

    lower, witness, raw_upper, nodes = _walk(s, max_depth, grid_q, threads, True)
    cap = _abs_radius_cap(s)
    heuristic = complex_search and m.n > 1 and raw_upper < cap
    lower, upper = lower * 2.0**e, min(raw_upper, cap) * 2.0**e
    # A word's rho and its 2-norm may round apart by an ulp when they are
    # equal in exact arithmetic; widen the upper side, never lower it.
    upper = max(upper, lower)
    exact = (not heuristic) and (upper - lower <= tol)
    return BoundsReport(
        lower=lower,
        upper=upper,
        lower_witness=witness,
        depth_explored=max_depth,
        nodes_visited=nodes,
        exact=exact,
        shortcut="none",
        grid_q=report_q,
        upper_heuristic=heuristic,
    )


def check_growth_condition(a, query: GrowthQuery, grid_q: int = 2, threads: int = 1) -> GrowthReport:
    """Normalized product-growth sequence with a certified verdict.

    Computes ``g_k = c^{-k} * M_k``, M_k = max_words ||A D_1 ... D_{k-1} A||_2,
    for k = 1..m with c the query threshold.  Both verdicts are certificates:

    * ``bounded`` when c exceeds a certified upper bound on mu(A): some
      M_k^(1/k) (1 + 1e-12) < c over the exact diagonal group (real letters,
      or n = 1), or c exceeds the rho(|A|) cap that ``mu_bounds`` applies.
    * ``growing`` when some word has rho(A D_1 ... A D_k)^(1/k) > c (1 + 1e-12),
      so its powers make g_k unbounded.  As rho(P D) <= ||P||, only levels
      whose M_k^(1/k) exceeds c are tried, on the terminal products P D of the
      interiors attaining M_k; the first witness ends the search.

    Both or neither gives ``inconclusive``, and so does m < 2.  A threshold so
    far from the matrix scale that c^k leaves the normal float range for some
    k <= m raises ValueError.
    """
    m = as_matrix(a)
    c = query.level if query.level is not None else spectral_radius(m) + query.eps
    s, e = _normalized(m)
    c_s = c * 2.0**-e
    # c_s^k must stay a normal float (binary exponent within +-1022) for k <= m.
    if query.m * abs(math.log2(c_s)) >= 1022:
        raise ValueError(
            f"growth threshold {c!r} is too far from the matrix scale: c^k leaves "
            f"the float range for some k <= {query.m}"
        )
    q, _, phases, arr, da = _search_setup(s, grid_q, True, query.m)
    exact_group = q is None or m.n == 1
    bounded, growing, g = c_s > _abs_radius_cap(s), False, []
    for k, level in _levels(arr, da, query.m, threads):
        top = float(level.top().max())
        g.append(top / c_s**k)
        root = top ** (1.0 / k)
        bounded = bounded or (exact_group and root * (1 + 1e-12) < c_s)
        if not growing and root > c_s:
            # ``top`` took the SVD of every interior that can attain M_k.
            maxima = level.interior[level.exact == top]
            radii = _batch_radii(_terminal(maxima, phases), threads)
            growing = float(radii.max()) ** (1.0 / k) > c_s * (1 + 1e-12)
    verdict = "inconclusive"
    if query.m >= 2 and bounded != growing:
        verdict = "bounded" if bounded else "growing"
    return GrowthReport(verdict, tuple(g), float(c), query.m)


def bounds_report_to_json(report: BoundsReport) -> dict:
    return {
        "lower": report.lower,
        "upper": report.upper,
        "witness": word_to_json(report.lower_witness),
        "depth": report.depth_explored,
        "nodes": report.nodes_visited,
        "exact": report.exact,
        "shortcut": report.shortcut,
        "grid_q": report.grid_q,
        "upper_heuristic": report.upper_heuristic,
    }


def bounds_report_from_json(data: dict) -> BoundsReport:
    return BoundsReport(
        lower=float(data["lower"]),
        upper=float(data["upper"]),
        lower_witness=word_from_json(data["witness"], grid_q=data.get("grid_q")),
        depth_explored=int(data["depth"]),
        nodes_visited=int(data["nodes"]),
        exact=bool(data["exact"]),
        shortcut=str(data["shortcut"]),
        grid_q=data.get("grid_q"),
        upper_heuristic=bool(data.get("upper_heuristic", False)),
    )
