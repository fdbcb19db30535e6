"""Certified two-sided bounds on the smallest absolute-norm-induced norm of a matrix.

The quantity bounded here, mu(A), is the joint spectral radius of the
family {A D : D unimodular diagonal}: the growth rate of the largest
2-norm of products A D_1 A D_2 ... A D_k.  Every finite depth yields
certificates in both directions:

* lower: rho(A D_1 ... A D_k)^(1/k) <= mu(A) for any word,
* upper: (max over words of ||A D_1 ... D_{k-1} A||_2)^(1/k) >= mu(A)
  by submultiplicativity (the trailing diagonal is dropped because it
  cannot change a 2-norm).

Both families are read off one tree of interior products A D_1 ... D_{k-1} A
over integer-coded letters, extended level by level by the factors D A.  The
lower search applies the terminal letter as a column scaling P D_k; the
growth sequence is the unpruned upper search's per-depth norm maxima.

The upper-bound search runs level-synchronous branch-and-bound with the
classical delta-relaxed pruning rule: a prefix P of family-length k is
cut once ||P||^(1/k) <= alpha + prune_delta, where alpha is the best
lower bound seen so far.  If pruning empties the frontier the value
alpha + prune_delta itself is a certified upper bound; if the frontier
survives to the depth cap, max(alpha + prune_delta, best frontier
norm^(1/depth)) is.  With prune_delta = 0 no pruning is applied and the
search degenerates to exhaustive level-by-level evaluation.

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
from .matrices import COMPLEX, as_matrix, entrywise_abs, spectral_radius
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
# Two values within this relative slack are treated as a tie, resolved to
# the lexicographically earlier word.
_TIE_REL = 1e-12


@dataclass(frozen=True)
class BoundsReport:
    """Certified interval for mu(A) with its witnesses and search metadata."""

    lower: float
    upper: float
    lower_witness: DiagonalWord
    depth_explored: int
    nodes_visited: int
    exact: bool
    shortcut: str
    grid_q: int | None
    upper_heuristic: bool = False


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
            if self.eps is None or self.eps <= 0:
                raise ValueError("eps must be positive when no level is supplied")
        elif self.level <= 0:
            raise ValueError("level must be positive")


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
            f"diagonal-word search of {len(phases)}^{depth} nodes exceeds "
            f"the {_NODE_BUDGET} node budget"
        )
    arr = m.arr.astype(np.complex128 if complex_search else np.float64)
    return q, exponents, phases, arr, phases[:, :, None] * arr[None, :, :]


def _check_search_args(max_depth, prune_delta=0.0):
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if prune_delta < 0:
        raise ValueError("prune_delta must be nonnegative")


def _chunked(batch, fn, threads):
    """Apply ``fn`` to row-chunks of a stacked matrix batch, in order."""
    blocks = [batch[i : i + _CHUNK] for i in range(0, len(batch), _CHUNK)]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, blocks))
    return [fn(b) for b in blocks]


def _batch_norms(batch, threads=1):
    try:
        out = _chunked(batch, lambda b: np.linalg.svd(b, compute_uv=False)[..., 0], threads)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"SVD did not converge on a product batch: {exc}") from exc
    return np.concatenate(out)


def _batch_radii(batch, threads=1):
    try:
        out = _chunked(batch, lambda b: np.abs(np.linalg.eigvals(b)).max(axis=-1), threads)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(
            f"eigensolver did not converge on a product batch: {exc}"
        ) from exc
    return np.concatenate(out)


def _extend(batch, factors, threads=1):
    """All products ``batch[i] @ factors[l]``, l fastest; (1, n) row batches work too."""

    def block(b):
        return np.einsum("mij,ljk->mlik", b, factors).reshape(-1, *b.shape[1:])

    return np.concatenate(_chunked(batch, block, threads))


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


def _improves(candidate, best):
    if not math.isfinite(best):
        return candidate > best
    return candidate > best + _TIE_REL * max(1.0, abs(best))


def _lower_search(m, max_depth, grid_q, threads, quotient, polish):
    q, exponents, phases, arr, da = _search_setup(m, grid_q, quotient, max_depth)
    best = -np.inf
    best_flat, best_depth = 0, 1
    nodes = 0
    interior = arr[None, :, :]
    for depth in range(1, max_depth + 1):
        if depth > 1:
            interior = _extend(interior, da, threads)
        terminal = _terminal(interior, phases)
        nodes += len(terminal)
        vals = _batch_radii(terminal, threads) ** (1.0 / depth)
        first, cand = _first_within_tie(vals)
        if _improves(cand, best):
            best, best_flat, best_depth = cand, first, depth
    digits = np.unravel_index(best_flat, (len(phases),) * best_depth)
    letters = (UnimodularDiagonal(phases[d], q=q or 2, indices=exponents[d]) for d in digits)
    word = DiagonalWord(tuple(letters))
    if polish and q is not None and m.n > 1:
        best, word = _polish_word(arr, word, best, grid_q)
    return float(best), word, nodes


def mu_lower_bound(
    a,
    max_depth: int,
    grid_q: int = 2,
    threads: int = 1,
    quotient: bool = True,
    polish: bool = False,
):
    """Best certified lower bound from spectral radii of diagonal-word products.

    Exhaustively maximizes ``rho(A D_1 ... A D_k)^(1/k)`` over all words
    of length k <= max_depth (depth 1 is exactly ``max_D rho(A D)``).
    Ties within 1e-12 relative resolve to the lexicographically earliest
    word at the shallowest depth.  With ``polish=True`` (complex grids
    only) a local coordinate ascent over the letter phases refines the
    winning word off-grid.

    Returns
    -------
    (float, DiagonalWord)
        The bound and a word attaining it.
    """
    m = as_matrix(a)
    _check_search_args(max_depth)
    value, word, _ = _lower_search(m, max_depth, grid_q, threads, quotient, polish)
    return value, word


def _polish_word(arr, word, best, grid_q):
    """Deterministic coordinate ascent on the letter phases of a word."""
    n = arr.shape[0]
    k = word.k
    cur = [d.phases.astype(np.complex128) for d in word.letters]

    def value(phase_list):
        p = np.eye(n, dtype=np.complex128)
        for ph in phase_list:
            p = (p @ arr) * ph[None, :]
        return float(np.abs(np.linalg.eigvals(p)).max() ** (1.0 / k))

    step = math.pi / grid_q
    improved_word = False
    for _ in range(3):
        for li in range(k):
            for j in range(1, n):
                theta = math.atan2(cur[li][j].imag, cur[li][j].real)
                for t in (theta - step, theta - step / 3, theta + step / 3, theta + step):
                    trial = cur[li].copy()
                    trial[j] = complex(math.cos(t), math.sin(t))
                    cand = cur[:li] + [trial] + cur[li + 1 :]
                    v = value(cand)
                    if _improves(v, best):
                        best, cur = v, cand
                        improved_word = True
        step /= 3.0
    if improved_word:
        word = DiagonalWord(tuple(UnimodularDiagonal(p) for p in cur)).canonical()
    return best, word


def _upper_search(m, max_depth, grid_q, prune_delta, threads, quotient):
    """``(upper, nodes, maxima)``; maxima[k-1] is the largest norm of a
    surviving depth-k product, over all words when prune_delta = 0."""
    _, _, phases, arr, da = _search_setup(m, grid_q, quotient, max_depth)
    frontier = arr[None, :, :]
    norm = float(np.linalg.svd(arr, compute_uv=False)[0])
    upper, maxima = norm, [norm]
    nodes = 1 + len(phases)
    pruning = prune_delta > 0
    # Depth-1 terminal products A·D seed alpha, the pruning rule's lower bound.
    alpha = float(_batch_radii(_terminal(frontier, phases), threads).max()) if pruning else 0.0
    pruned_any = False
    roots = np.array([upper])
    for depth in range(2, max_depth + 1):
        frontier = _extend(frontier, da, threads)
        nodes += len(frontier)
        norms = _batch_norms(frontier, threads)
        maxima.append(float(norms.max()))
        roots = norms ** (1.0 / depth)
        if not pruned_any:
            upper = min(upper, float(roots.max()))
        if pruning:
            alpha = max(alpha, float(_batch_radii(frontier, threads).max()) ** (1.0 / depth))
            keep = roots > alpha + prune_delta
            if not keep.any():
                return min(upper, alpha + prune_delta), nodes, maxima
            if not keep.all():
                pruned_any = True
                frontier = frontier[keep]
                roots = roots[keep]
    if pruned_any:
        upper = min(upper, max(alpha + prune_delta, float(roots.max())))
    return upper, nodes, maxima


def mu_upper_bound(
    a,
    max_depth: int,
    grid_q: int = 2,
    prune_delta: float = 1e-3,
    threads: int = 1,
    quotient: bool = True,
) -> float:
    """Certified upper bound from norms of diagonal-word products.

    See the module docstring for the branch-and-bound rule.  Over a
    complex phase grid with n > 1 the returned value only bounds the
    grid-restricted supremum (callers flag it heuristic).
    """
    m = as_matrix(a)
    _check_search_args(max_depth, prune_delta)
    upper, _, _ = _upper_search(m, max_depth, grid_q, prune_delta, threads, quotient)
    return upper


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
    mu(A) = rho(|A|) exactly and no word search is needed; otherwise the
    lower and upper engines run to ``max_depth`` and the upper bound is
    additionally capped at rho(|A|), which dominates mu(A) for every
    matrix.  ``use_shortcut=False`` forces the generic engine (used to
    cross-validate the shortcut).
    """
    m = as_matrix(a)
    _check_search_args(max_depth, prune_delta)
    if tol <= 0:
        raise ValueError("tol must be positive")
    complex_search = m.field == COMPLEX or grid_q > 2
    report_q = grid_q if complex_search else None

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
            rho = nonneg_spectral_radius(entrywise_abs(m), tol=min(tol, 1e-10)).rho
            word = DiagonalWord((witness_letter,)).canonical()
            return BoundsReport(
                lower=rho,
                upper=rho,
                lower_witness=word,
                depth_explored=1,
                nodes_visited=0,
                exact=True,
                shortcut=shortcut,
                grid_q=None,
                upper_heuristic=False,
            )

    lower, witness, lower_nodes = _lower_search(m, max_depth, grid_q, threads, True, False)
    raw_upper, upper_nodes, _ = _upper_search(m, max_depth, grid_q, prune_delta, threads, True)
    rho_abs = nonneg_spectral_radius(entrywise_abs(m), tol=1e-10).rho
    cap = rho_abs + 1e-10
    upper = min(raw_upper, cap)
    heuristic = complex_search and m.n > 1 and raw_upper < cap
    nodes = lower_nodes + upper_nodes
    exact = (not heuristic) and (upper - lower <= tol)
    return BoundsReport(
        lower=float(lower),
        upper=float(upper),
        lower_witness=witness,
        depth_explored=max_depth,
        nodes_visited=nodes,
        exact=exact,
        shortcut="none",
        grid_q=report_q,
        upper_heuristic=heuristic,
    )


def check_growth_condition(a, query: GrowthQuery, grid_q: int = 2, threads: int = 1) -> GrowthReport:
    """Finite-depth probe of the normalized product-growth sequence.

    Computes ``g_k = c^{-k} * max_words ||A D_1 ... D_{k-1} A||_2`` for
    k = 1..m with c the query threshold.  The verdict is ``bounded`` when
    the sequence is non-increasing over the last max(3, m//4) steps and
    ends no higher than it starts, ``growing`` when it ends more than
    10x above its start with sustained increase, and ``inconclusive``
    otherwise (always so for m < 2).  Only a growing verdict backed by a
    certified lower bound is conclusive; the sequence itself is reported
    for inspection.
    """
    m = as_matrix(a)
    c = query.level if query.level is not None else spectral_radius(m) + query.eps
    if c <= 0:
        raise ValueError("growth threshold must be positive")
    _, _, maxima = _upper_search(m, query.m, grid_q, 0.0, threads, True)
    g = [v / c**k for k, v in enumerate(maxima, start=1)]

    depth = query.m
    if depth < 2:
        return GrowthReport("inconclusive", tuple(g), float(c), depth)
    window = min(max(3, depth // 4), depth - 1)
    steps = range(depth - 1 - window, depth - 1)
    slack = 1 + 1e-12
    non_increasing = all(g[i + 1] <= g[i] * slack for i in steps)
    # A zero level forces every deeper level to zero, so increase requires
    # strictly positive predecessors throughout the window.
    increasing = all(g[i] > 0 and g[i + 1] > g[i] for i in steps)
    if non_increasing and g[-1] <= g[0] * slack:
        verdict = "bounded"
    elif increasing and g[-1] > 10 * g[0]:
        verdict = "growing"
    else:
        verdict = "inconclusive"
    return GrowthReport(verdict, tuple(g), float(c), depth)


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
