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
the factors D A in one broadcast matmul per chunk).  A decision on an
interior's 2-norm is first tried on the bound ||P||_F (1 + 1e-12), one sum
of squares per interior with a scaled fallback far from the unit scale; the
SVD runs only where that cannot settle it.
The lower side applies the terminal letter as a column scaling T = P D_k and,
as rho(T) <= ||T|| = ||P|| (and <= ||S T S^-1|| = ||S P S^-1||, below), builds
the terminals only of the prefixes with such a norm^(1/k) within twice the tie
slack of the best value so far.  In blocks of about 4096 terminals it then
bounds rho(T) <= ||T^2||_F^(1/2), with a rounding margin, and eigensolves only
the terminals whose bound reaches that bar; the exhaustive maximum and its
lexicographic tie-break are unchanged.

The upper side is the best level maximum, min over k of M_k^(1/k) with
M_k the largest ||P|| on level k, read from the interiors that can attain it.
``prune_delta`` is accepted for compatibility and has no effect.

The walk (``_levels``) extends a prefix P at depth k only while ||P|| M_r can
reach a floor below M_{k+r} (Gripenberg, *LAA* 234, 1996), so every M_k is the
full tree's.  Its caller passes only the lower side's floor; growth and the
extremal norm pass none and read the maxima alone.  A prefix is kept if either
of two cuts can still reach its floor:

* lower: bar^j, with bar the best value less twice the tie slack, reached
  both in the plain norm and in the Perron-balanced norm ||S P S^-1||_2,
  S = diag((y / x)^(1/2)) from the left and right Perron vectors y and x of
  |A| (``_balance``).  S commutes with every letter, so rho(P D) <=
  ||S P S^-1|| for every word; ||S |A| S^-1||_2 = rho(|A|), which puts the
  balanced norms closer to mu(A) than the plain ones on most inputs.  In
  the balanced norm the r levels below P are bounded by ||R∘A||_2^r, as
  S D A S^-1 = D (R∘A) for every letter D.  No word of a dropped prefix
  reaches the bar, and the lower side gates and bounds its terminals in the
  balanced norm too, but eigensolves the plain ones, so every value,
  witness and tie-break is the unscaled walk's.
* upper: max(L_j, bar^j) in the plain norm, with L_j <= M_j from a beam the
  walk starts once a level is wide enough; both floors are at most M_j, so
  every M_k is the full tree's.  Without a lower side the floor is L_j alone.

Both cuts carry the margin 1 + 1e-9, which covers every rounding they meet:
hi over-estimates a norm by at most 1 + 1e-12; R_ij = s_i / s_j and the
product round once each, so fl(R∘P) is within 2u of S P S^-1 in each entry
and within 2u n^(1/2) relative in the 2-norm; the SVD norms are within a
small multiple of n u, and the products U_a U_b, the powers ||R∘A||^r and
bar^j within depth u, all far below 1e-9 at any depth the node budget
admits.  A walk without a ratio (``_balance`` returns None) runs the
unscaled cut alone.

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
    _check_grid_q,
    _is_count,
    identity_diagonal,
    word_from_json,
    word_to_json,
)
from .errors import CapacityError, NonConvergenceError
from .matrices import COMPLEX, Matrix, _norms, _radii, as_matrix, entrywise_abs, spectral_radius
from .perron import _resolvent_vector, nonneg_spectral_radius
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
# Interiors per level of the beam of ``_beam_floor``.
_BEAM = 8
_TINY = np.finfo(float).tiny
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


def _search_setup(m, grid_q, depth):
    """Alphabet, matrix in the search dtype and interior factors of a walk.

    Returns ``(q, exponents, phases, arr, da)`` with da the factors D·A and q
    None for sign letters, used unless the matrix is complex or grid_q > 2.
    A walk of ``depth`` levels over the node budget is refused.
    """
    complex_search = m.field == COMPLEX or grid_q > 2
    q = grid_q if complex_search else None
    exponents, phases = _alphabet(m.n, q, True)
    if len(phases) ** depth > _NODE_BUDGET:
        raise CapacityError(
            f"diagonal-word tree of {len(phases)}^{depth} nodes exceeds "
            f"the {_NODE_BUDGET} node budget"
        )
    arr = m.arr.astype(np.complex128 if complex_search else np.float64)
    return q, exponents, phases, arr, phases[:, :, None] * arr[None, :, :]


def _check_search_args(max_depth, grid_q, prune_delta=0.0, threads=1):
    if not _is_count(max_depth, 1):
        raise ValueError(f"depth must be an integer of at least 1, got {max_depth!r}")
    _check_grid_q(grid_q)
    if not _is_count(threads, 1):
        raise ValueError(f"threads must be an integer of at least 1, got {threads!r}")
    if not 0 <= prune_delta < math.inf:  # NaN and infinities fail too
        raise ValueError(f"prune_delta must be nonnegative and finite, got {prune_delta!r}")


def _ordered_map(fn, blocks, threads):
    """``[fn(b) for b in blocks]``, over a thread pool when threads > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, blocks))
    return [fn(b) for b in blocks]


def _chunked(batch, fn, threads):
    """``fn`` of a stacked matrix batch, in one call unless ``threads`` > 1 and the batch
    is over one chunk; then its row-chunks run over the threads, concatenated in order.
    The kernels act on each matrix alone, so the rows are the same bits either way."""
    if threads == 1 or len(batch) <= _CHUNK:
        return fn(batch)
    blocks = [batch[i : i + _CHUNK] for i in range(0, len(batch), _CHUNK)]
    return np.concatenate(_ordered_map(fn, blocks, threads))


def _batch_norms(batch, threads=1):
    return _chunked(batch, _norms, threads)


def _frobenius(mag):
    """||X||_F of each matrix of a block of |X| (scaled by its largest entry
    first), which it overwrites: the fallback of ``_level_hi``."""
    top = mag.max(axis=(1, 2))
    mag /= np.where(top > 0, top, 1.0)[:, None, None]
    return top * np.sqrt(np.square(mag, out=mag).sum(axis=(1, 2)))


def _level_hi(batch, ratio=None):
    """hi = ||P||_F (1 + 1e-12) of each matrix P, or of R∘P given a ratio R, from one sum
    of squares per row of the float64 view.  A sum in [2^-900, 2^900] loses at most 2n^2
    squares below 2^-1022 to underflow and rounds by about 2n^2 u, far inside the margin;
    the other rows (zero, tiny, huge or not finite) take the scaled ``_frobenius``."""
    flat = batch.view(np.float64).reshape(len(batch), -1)
    if ratio is None:
        sums = np.einsum("mi,mi->m", flat, flat)
    else:  # R_ij^2 once per float of entry (i, j)
        weights = np.repeat(np.square(ratio).ravel(), flat.shape[1] // ratio.size)
        sums = np.einsum("mi,i,mi->m", flat, weights, flat)
    hi, slow = np.sqrt(sums), ~((sums >= 2.0**-900) & (sums <= 2.0**900))
    if slow.any():
        hi[slow] = _frobenius(np.abs(batch[slow]) * (1.0 if ratio is None else ratio))
    return hi * (1 + 1e-12)


class _LevelNorms:
    """A level of interiors with bounds hi = ||P||_F (1 + 1e-12) >= ||P||_2 (``_level_hi``);
    the SVD runs only where a decision asks, once each.

    Given a ratio R, the level's norms are ||R∘P||_2 = ||S P S^-1||_2, R_ij = s_i / s_j,
    its hi is from R∘P and ``plain_hi`` holds the plain bounds: the balanced view of
    ``_levels``.
    """

    def __init__(self, interior, depth, threads, ratio=None, plain_hi=None):
        self.interior, self.depth, self.threads = interior, depth, threads
        self.ratio, self.plain_hi = ratio, plain_hi
        self.hi, self.exact = _level_hi(interior, ratio), np.full(len(interior), np.nan)
        self._top = self._root = None

    def products(self, idx):
        """The interiors ``idx`` in the level's norm."""
        return self.interior[idx] if self.ratio is None else self.ratio * self.interior[idx]

    def norms(self, idx):
        todo = idx[np.isnan(self.exact[idx])]
        if todo.size:  # repeated decisions find every norm cached
            self.exact[todo] = _batch_norms(self.products(todo), self.threads)
        return self.exact[idx]

    def where(self, bound):
        """Mask of the interiors with ||P||^(1/depth) >= bound."""
        mask = self.hi ** (1.0 / self.depth) >= bound
        mask[mask] = self.norms(mask.nonzero()[0]) ** (1.0 / self.depth) >= bound
        return mask

    def top(self):
        """SVD norms of every interior that can hold the level's largest norm
        (read-only, found once)."""
        if self._top is None:
            first = self.norms(self.hi.argmax(keepdims=True))
            self._top = self.norms((self.hi >= first).nonzero()[0])
            self._top.setflags(write=False)
        return self._top

    def root(self):
        """M_k^(1/k) by numpy's array power, the one rounding of every min over k."""
        if self._root is None:
            self._root = float((self.top() ** (1.0 / self.depth)).max())
        return self._root


def _batch_radii(batch, threads=1):
    return _chunked(batch, _radii, threads)


def _extend(batch, factors, threads=1):
    """All products ``batch[i] @ factors[l]``, l fastest, by one broadcast ``np.matmul``
    per chunk, which forms each pair on its own: every row is bit-identical to
    ``np.matmul(batch[i], factors[l])``.  (1, n) row batches work too."""

    def block(b):
        return np.matmul(b[:, None], factors[None]).reshape(-1, *b.shape[1:])

    return _chunked(batch, block, threads)


def _first_tie(values):
    """Index and value of the first entry within relative tie slack of the maximum
    of finite values >= 0 (``_gated_radii``'s: 0 or rho^(1/depth) of a finite terminal)."""
    vmax = float(values.max())
    first = int((values >= vmax - _TIE_REL * max(1.0, vmax)).argmax())
    return first, float(values[first])


def _leaders(values, start):
    """The block of values at level-wide index ``start`` reduced for
    ``_first_within_tie``: the level-wide indices and the values of its strict
    left-to-right maxima."""
    before = np.maximum.accumulate(np.concatenate(([-np.inf], values[:-1])))
    lead = (values > before).nonzero()[0]
    return start + lead, values[lead]


def _first_within_tie(blocks):
    """``_first_tie`` of consecutive blocks of values, each given by ``_leaders``.

    Every entry before the first one at or above the threshold is below
    it, so that entry leads its own block and no earlier leader reaches
    the threshold.
    """
    index, value = (np.concatenate(part) for part in zip(*blocks))
    first, found = _first_tie(value)
    return int(index[first]), found


def _terminal(interior, phases):
    """All products ``P·D`` (column scaling by each letter), letter fastest."""
    n = interior.shape[-1]
    return (interior[:, None, :, :] * phases[None, :, None, :]).reshape(-1, n, n)


def _root_bounds(level, rows, terminals):
    """Upper bounds on rho(T)^(1/depth) for ``terminals = _terminal(level.products(rows), phases)``.

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

    On a balanced level (one with a ratio R) the terminals are R∘T = S T S^-1
    for the plain terminals T, which are the ones eigensolved, and rho(T) =
    rho(S T S^-1).
    R and the product round once each, a relative error of 2u in every entry
    and so 4 more units of gamma.  The backward error of the plain T moves to
    S E S^-1 with ||S E S^-1||_F <= kappa n^2 u ||T||_F =: e, kappa = max R_ij,
    so the square bound gains 2 e ||R∘T||_F + e^2 in place of the 2n^2 + 1 units.
    """
    n = terminals.shape[-1]
    scale = np.abs(level.products(rows)).max(axis=(1, 2))
    scale = np.where(scale > 0, scale, 1.0)
    # Per-interior terms broadcast over a (rows, letters) view of the terminals.
    scaled = (terminals.reshape(len(rows), -1, n, n) / scale[:, None, None, None]).reshape(-1, n, n)
    square = (scaled @ scaled).view(np.float64)  # a complex square as its real pairs
    units = n + (4 if np.iscomplexobj(terminals) else 2)
    units += 2 * n * n + 1 if level.ratio is None else 4
    gamma = units * 2.0**-53 / (1 - units * 2.0**-53)
    bound = np.sqrt(np.square(square, out=square).sum(axis=(1, 2))).reshape(len(rows), -1)
    hi = level.hi[rows] / scale
    bound += (gamma * np.square(hi))[:, None]
    if level.ratio is not None:
        err = n * n * 2.0**-53 * level.ratio.max() * (level.plain_hi[rows] / scale)
        bound += (err * (2 * hi + err))[:, None]
    root = 1.0 / level.depth
    return ((scale**root)[:, None] * (bound * (1 + 1e-12)) ** (root / 2)).ravel()


def _gated_radii(level, cand, phases, bar, threads):
    """``_first_tie`` of rho^(1/depth) over the terminals ``P·D`` of the interiors
    ``cand`` (``_terminal`` order), with rho = 0 where ``_root_bounds``
    certifies rho^(1/depth) < bar (bar = -inf keeps all).
    On a balanced level the bound is taken on R∘(P·D); the eigensolves
    are always of the plain P·D, so every rho is the unscaled walk's.

    Terminals are built, bounded and eigensolved in blocks of about ``_BLOCK``
    rows, each reduced to its ``_leaders`` where there is more than one.  The
    blocks run over ``threads`` when the level has more than ``_CHUNK``
    terminals: each worker thread keeps a malloc arena of about a block's
    temporaries, which costs more resident memory than threads save on a
    level of a few blocks.
    """
    per = max(1, _BLOCK // len(phases))

    def solve(start):
        rows = cand[start : start + per]
        terminals = _terminal(level.interior[rows], phases)
        bounded = terminals if level.ratio is None else level.ratio * terminals
        keep = _root_bounds(level, rows, bounded) >= bar
        radii = np.zeros(len(terminals))
        radii[keep] = _batch_radii(terminals[keep])
        return radii ** (1.0 / level.depth)

    if len(cand) <= per:
        return _first_tie(solve(0))
    threads = threads if len(cand) * len(phases) > _CHUNK else 1
    starts = range(0, len(cand), per)
    blocks = _ordered_map(lambda i: _leaders(solve(i), i * len(phases)), starts, threads)
    return _first_within_tie(blocks)


def _improves(candidate, best):
    if not math.isfinite(best):
        return candidate > best
    return candidate > best + _TIE_REL * max(1.0, abs(best))


def _exponent(arr, axis=None):
    """e with 2^(e-1) <= max|a_i| < 2^e (0 for 0), in +-1021 so 2.0**+-e is normal:
    an int, or an array of one e per row given the ``axis`` the rows run along."""
    e = np.minimum(np.maximum(np.frexp(np.abs(arr).max(axis=axis))[1], -1021), 1021)
    return int(e) if axis is None else e


def _normalized(m):
    """``(2^-e A, e)`` with e = ``_exponent(A)``."""
    e = _exponent(m.arr)
    return Matrix(m.field, np.ldexp(m.arr.view(np.float64), -e).view(m.arr.dtype)), e


def _scaled_threshold(c, e, depth, name):
    """c 2^-e for a walk scaled by 2^-e (``_normalized``); a ValueError unless its
    powers up to ``depth`` stay normal floats (binary exponent within +-1022)."""
    c_s = c * 2.0**-e
    if c_s == 0.0 or depth * abs(math.log2(c_s)) >= 1022:
        raise ValueError(
            f"{name} {c!r} is too far from the matrix scale: c^k leaves "
            f"the float range for some k <= {depth}"
        )
    return c_s


def _upper_bounds(s, q, best, perron=None):
    """``(reported, certified)`` upper bounds on mu(S), S = 2^-e A (``_normalized``),
    from ``best`` = min_k M_k^(1/k) of a walk over the letters of ``_search_setup``
    (q None for sign letters).  Both are capped at rho(|S|) + 1e-10 >= mu(S), which
    holds over both fields (the Perron tolerance is relative to the unit scale of
    S); ``perron`` is that Perron run when the caller has made it.  ``best``
    bounds mu(S) only when the letters are the whole diagonal group (sign
    letters, or n = 1); on a complex phase grid with n > 1 the certified bound
    is the cap."""
    if perron is None:
        perron = nonneg_spectral_radius(entrywise_abs(s), tol=1e-10)
    cap = perron.rho + 1e-10
    reported = min(best, cap)
    return reported, reported if q is None or s.n == 1 else cap


def _clears(certified, c):
    """Whether the scale or threshold c clears a certified upper bound of ``_upper_bounds``
    (both on 2^-e A) by more than 1e-12 relative: growth's ``bounded``, ``build_norm``'s warning."""
    return certified * (1 + 1e-12) < c


def _balance(s, perron=None):
    """The ratio R_ij = s_i / s_j of the Perron-balanced norm x -> ||S x||_2 of
    S = 2^-e A, or None where it would not act.

    With y and x the left and right Perron vectors of |A| and s = (y / x)^(1/2),
    S |A| S^-1 shares the Perron vector (x y)^(1/2) with its transpose, so
    ||S |A| S^-1||_2 = rho(|A|).  S commutes with every letter D, so rho(P D) =
    rho(S P S^-1 D) <= ||R∘P||_2 for every product P, and any positive s gives
    valid bounds: the Perron vectors need not be accurate.  ``perron`` is the
    run on |S| (its test vector is y); x is one step of inverse iteration,
    (lambda I - |S|)^-1 1 at lambda = rho (1 + 2^-30) just above rho(|S|), from
    ``perron._resolvent_vector``.  s is clipped to [2^-32, 1] of its largest entry
    so that R∘P stays far inside the float range.  R is None when it is
    identically 1 (|A| symmetric, n = 1 or A = 0), when the Perron run does not
    close, when the solve for x is singular or not positive, or when a Perron
    vector is not positive and finite (a reducible |A| whose vectors span more
    than the float range).
    """
    b = np.abs(s.arr)
    if np.array_equal(b, b.T):
        return None
    try:
        perron = perron or nonneg_spectral_radius(b, tol=1e-10)
    except NonConvergenceError:
        return None
    x = _resolvent_vector(b, perron.rho * (1 + 2.0**-30), np.ones(s.n))
    if x is None:
        return None
    with np.errstate(all="ignore"):
        t = np.sqrt(perron.left_vector) / np.sqrt(x)
    if not (np.all(np.isfinite(t)) and np.all(t > 0)):
        return None
    t = np.maximum(t / t.max(), 2.0**-32)
    ratio = t[:, None] / t[None, :]
    return None if np.all(ratio == 1.0) else ratio


def _bound_levels(ups, top, depth, max_depth):
    """Set U_depth = ``top`` in ``ups`` (U_1, U_2, ...) and recompute the deeper
    U_r as min over a + b = r of U_a U_b."""
    ups[depth - 1 :] = [top]
    for r in range(depth + 1, max_depth - depth + 1):
        ups.append(min(ups[a - 1] * ups[r - a - 1] for a in range(1, r)))


def _floors(floor, depth, max_depth):
    """floor(depth + r) for r = 1 .. max_depth - depth; a zero or subnormal floor
    reads 0, which prunes nothing."""
    return np.array([0.0 if f < _TINY else f for f in map(floor, range(depth + 1, max_depth + 1))])


def _reaches(hi, ups, lows):
    """Mask of hi U_r (1 + 1e-9) >= lows[r - 1] for some r."""
    return (hi[:, None] * (np.array(ups[: len(lows)]) * (1 + 1e-9)) >= lows).any(axis=1)


def _levels(arr, da, max_depth, threads, floor=None, ratio=None):
    """``(depth, level, balanced, top, rows)`` of each level the walk keeps: its
    ``_LevelNorms``, its view under a ratio R (``_balance``; the level itself
    without one) and top = M_k.  Row i extends row ``rows[i // len(da)]`` of the
    previous level by ``da[i % len(da)]`` (rows is None at depth 1).

    A descendant P Q of a level-k interior P at level k + r has Q = D A ... D A
    (r factors) and ||P Q|| <= ||P|| ||A D ... D A|| <= ||P|| M_r.  So a cut
    against a floor F extends P only if hi(P) U_r (1 + 1e-9) >= F(k + r) for
    some r, where U_r is M_r once level r is done and min over a + b = r of
    U_a U_b before.  The margin is the module docstring's; a zero or subnormal
    floor prunes nothing.  Where F(j) <= M_j, every M_k and its maximizers are the
    full tree's (Gripenberg, *LAA* 234, 1996, unscaled).

    ``floor`` is the lower side's alone (bar^j for ``mu_bounds``), read once the
    caller is done with level k; None means no lower side.  P is extended if
    either of two cuts keeps it:

    * lower: the cut against floor(j) holds unscaled and, given R, in the
      balanced norms ||R∘P|| too, since a word's rho is below both norm bounds.
      S P Q S^-1 = (S P S^-1)(S Q S^-1) with S Q S^-1 a product of r factors
      S D A S^-1 of norm ||R∘A||, so there U_r is V_r = ||R∘A||^r, which needs
      no floor.
    * upper: the unscaled cut against max(L_j, floor(j)) <= M_j, with L_j from a
      ``_beam_floor`` started at the first level whose unscaled cut against
      floor keeps at least 2 ``_BEAM`` interiors per level still to come (until
      then L_j = 0), so every M_k is the full tree's.  With a floor but no
      ratio the lower cut keeps every prefix the upper one does: no beam starts.

    Every level is a subset of the level of the unscaled cut against floor
    alone (the full tree without a floor).
    """
    interior, rows, ups, beam = arr[None, :, :], None, [], None
    if ratio is not None:  # V_r for r = 1 .. max_depth - 1
        powers = _batch_norms((ratio * arr)[None], threads)[0] ** np.arange(1, max_depth)
    for depth in range(1, max_depth + 1):
        if depth > 1:
            interior = _extend(interior, da, threads)
        level = _LevelNorms(interior, depth, threads)
        balanced = level if ratio is None else _LevelNorms(interior, depth, threads, ratio, level.hi)
        top = float(level.top().max())
        yield depth, level, balanced, top, rows
        if depth == max_depth:
            break
        _bound_levels(ups, top, depth, max_depth)
        lows = np.zeros(max_depth - depth) if floor is None else _floors(floor, depth, max_depth)
        # The unscaled cut against floor alone, the whole rule before the beam;
        # without a floor, the beam's cut replaces it once the beam runs.
        keep = None if floor is None and beam is not None else _reaches(level.hi, ups, lows)
        if (beam is None and (floor is None or ratio is not None)
                and np.count_nonzero(keep) >= 2 * _BEAM * (max_depth - depth)):
            beam = _beam_floor(interior[np.argsort(-level.hi)[:_BEAM]], da, max_depth, threads, depth)
        if beam is not None:
            upper = _reaches(level.hi, ups, np.maximum(lows, _floors(beam, depth, max_depth)))
            keep = upper if floor is None else (keep & _reaches(balanced.hi, powers, lows)) | upper
        rows = keep.nonzero()[0]
        interior = interior[rows]


def _beam_floor(interior, da, max_depth, threads, depth):
    """The upper side's L_j <= M_j for j >= ``depth`` in ``_levels``: the norm of
    the interior of largest hi on level j of a beam that extends the ``_BEAM``
    interiors of largest hi of each level, from the level-``depth`` interiors
    ``interior``.  The L_j take one batched SVD."""
    tops = []
    for k in range(depth, max_depth + 1):
        if k > depth:
            interior = _extend(interior[np.argsort(-hi)[:_BEAM]], da, threads)
        hi = _level_hi(interior)
        tops.append(interior[np.argmax(hi)])
    lows = _batch_norms(np.stack(tops), threads)
    return lambda j: float(lows[j - depth])


def _word_index(chain, row, size):
    """Full-tree index of the interior ``row`` of the last level of a walk of
    ``size`` letters, from the ``rows`` that ``_levels`` yields at each depth > 1."""
    index, weight = 0, 1
    for rows in reversed(chain):
        index += row % size * weight
        weight *= size
        row = int(rows[row // size])
    return index


def _walk(m, max_depth, grid_q, threads, perron=None):
    """``(lower, witness, upper, nodes, q)`` of one walk, q from ``_search_setup``;
    see the module docstring.

    With a balanced ratio R (``_balance``; ``perron`` is the caller's Perron run
    on |S|, if any), the lower side takes as candidates the interiors with
    ||R∘P||^(1/depth) >= bar and bounds their terminals on R∘T (``_root_bounds``),
    and ``_levels`` cuts the lower side in both norms against bar^j and the upper
    side in the plain norm against max(L_j, bar^j).
    """
    q, exponents, phases, arr, da = _search_setup(m, grid_q, max_depth)
    size = len(phases)
    best, bar, best_flat, best_depth = -np.inf, -np.inf, 0, 1
    upper, nodes, chain = np.inf, 0, []

    ratio = _balance(m, perron)
    walk = _levels(arr, da, max_depth, threads, lambda j: max(bar, 0.0) ** j, ratio)
    for depth, level, balanced, _, rows in walk:
        if depth > 1:  # each level's parents, read back only for a new witness
            chain.append(rows)
        # Lower: rho(P D) <= ||R∘P||, so only the prefixes whose balanced norm
        # reaches the best value within twice the tie slack are extended by a
        # letter, and only the terminals whose square bound reaches it are
        # eigensolved.  A word below that bar cannot tie with an improvement.
        nodes += size**depth
        cand = balanced.where(bar).nonzero()[0]
        if cand.size:
            first, value = _gated_radii(balanced, cand, phases, bar, threads)
            if _improves(value, best):
                best, best_depth = value, depth
                best_flat = _word_index(chain, int(cand[first // size]), size) * size + first % size
                bar = best - 2 * _TIE_REL * max(1.0, abs(best))
        # Upper: M_k^(1/k) >= mu(A) at every depth k.
        upper = min(upper, level.root())
    digits = np.unravel_index(best_flat, (size,) * best_depth)
    letters = (UnimodularDiagonal(phases[d], indices=exponents[d]) for d in digits)
    return float(best), DiagonalWord(tuple(letters)), upper, nodes, q


def mu_lower_bound(a, max_depth: int, grid_q: int = 2, threads: int = 1):
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
    _check_search_args(max_depth, grid_q, threads=threads)
    s, e = _normalized(m)
    value, word, _, _, _ = _walk(s, max_depth, grid_q, threads)
    return value * 2.0**e, word


def mu_upper_bound(
    a,
    max_depth: int,
    grid_q: int = 2,
    prune_delta: float = 1e-3,
    threads: int = 1,
) -> float:
    """Certified upper bound from norms of diagonal-word products.

    Returns min over k <= max_depth of M_k^(1/k), M_k the largest level-k
    product norm, read from growth's walk (``_levels`` with no lower side),
    which eigensolves nothing.  ``prune_delta`` is accepted and validated but
    has no effect.  Over a complex phase grid with n > 1 the returned value
    only bounds the grid-restricted supremum (callers flag it heuristic).
    """
    m = as_matrix(a)
    _check_search_args(max_depth, grid_q, prune_delta, threads)
    s, e = _normalized(m)
    _, _, _, arr, da = _search_setup(s, grid_q, max_depth)
    return min(level.root() for _, level, _, _, _ in _levels(arr, da, max_depth, threads)) * 2.0**e


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
    below the reported lower bound.  ``exact`` is set when both bounds are
    certified and upper - lower <= ``tol`` min(1, max|a_ij|): ``tol`` is
    absolute at scales of 1 and above and relative to the largest entry
    below, as for the Perron bracket.  ``prune_delta`` is accepted and
    validated but has no effect.
    """
    m = as_matrix(a)
    _check_search_args(max_depth, grid_q, prune_delta, threads)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
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
                if combined[0] != 1:  # scale to lead +1, which acts alike; a lead of 1 stays as is
                    combined *= np.conj(combined[0])
                    combined[0] = 1.0  # exact: lead / lead
                witness_letter = UnimodularDiagonal(combined)
        if shortcut is not None:
            perron = nonneg_spectral_radius(entrywise_abs(s), tol=min(tol, 1e-10))
            return BoundsReport(
                lower=perron.bracket[0] * 2.0**e,
                upper=perron.rho * 2.0**e,
                lower_witness=DiagonalWord((witness_letter,)),
                depth_explored=1,
                nodes_visited=0,
                exact=True,
                shortcut=shortcut,
                grid_q=None,
                upper_heuristic=False,
            )

    perron = nonneg_spectral_radius(entrywise_abs(s), tol=1e-10)
    lower, witness, best, nodes, report_q = _walk(s, max_depth, grid_q, threads, perron)
    upper, certified = _upper_bounds(s, report_q, best, perron)
    heuristic = upper < certified
    lower, upper = lower * 2.0**e, upper * 2.0**e
    # A word's rho and its 2-norm may round apart by an ulp when they are
    # equal in exact arithmetic; widen the upper side, never lower it.
    upper = max(upper, lower)
    exact = (not heuristic) and (upper - lower <= tol * min(1.0, float(np.abs(m.arr).max())))
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

    * ``bounded`` when c exceeds the certified upper bound on mu(A) by more
      than 1e-12 relative: min_k M_k^(1/k) capped at rho(|A|) over the exact
      diagonal group (real letters, or n = 1), else the cap alone, the rule
      and the rounding that also give ``mu_bounds`` its upper bound; ``build_norm``
      warns by the same comparison (``_clears``).
    * ``growing`` when some word has rho(A D_1 ... A D_k)^(1/k) > c (1 + 1e-12),
      so its powers make g_k unbounded.  As rho(P D) <= ||P||, only levels
      whose M_k^(1/k) exceeds c are tried, on the terminal products P D of the
      interiors attaining M_k; the first witness ends the search.

    The levels come from a walk with no lower side, which extends only the
    prefixes that can still attain a deeper level maximum (``_levels``), so every
    M_k and every set of maximizers, and with them the report, are the full tree's.

    Both or neither gives ``inconclusive``, and so does m < 2.  A threshold so
    far from the matrix scale that c^k leaves the normal float range for some
    k <= m raises ValueError.
    """
    m = as_matrix(a)
    _check_search_args(query.m, grid_q, threads=threads)
    c = query.level if query.level is not None else spectral_radius(m) + query.eps
    s, e = _normalized(m)
    c_s = _scaled_threshold(c, e, query.m, "growth threshold")
    q, _, phases, arr, da = _search_setup(s, grid_q, query.m)
    best, growing, g = math.inf, False, []
    for k, level, _, top, _ in _levels(arr, da, query.m, threads):
        g.append(top / c_s**k)
        root = level.root()
        best = min(best, root)
        if not growing and root > c_s:
            # ``top`` took the SVD of every interior that can attain M_k.
            maxima = level.interior[level.exact == top]
            radii = _batch_radii(_terminal(maxima, phases), threads)
            growing = float(radii.max()) ** (1.0 / k) > c_s * (1 + 1e-12)
    bounded = _clears(_upper_bounds(s, q, best)[1], c_s)
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
