"""Spectral radius of nonnegative matrices via Collatz-Wielandt bracketing.

For a nonnegative matrix B and any positive vector w,

    min_i (B^T w)_i / w_i  <=  rho(B)  <=  max_i (B^T w)_i / w_i,

and the infimum of the max-side over positive w equals rho(B) exactly,
reducible B included.  Two engines realize that infimum constructively,
both through the resolvent: for any lambda > rho(B) and positive w the
vector ``u = (lambda*I - B^T)^{-1} w`` is strictly positive (it is at
least w / lambda entrywise), while in exact arithmetic a singular solve
or a nonpositive u certifies lambda <= rho(B).

* Noda's iteration (Numer. Math. 17, 1971): lambda is the current max
  Collatz-Wielandt ratio, itself >= rho(B), and the normalized u is the
  next test vector.  It converges quadratically for irreducible B,
  imprimitive ones with equal-modulus eigenvalues included (Elsner,
  Linear Algebra Appl. 15, 1976), so a handful of solves pinch the
  bracket.
* resolvent bisection with w = ones: bisecting lambda between the two
  sides closes a certified interval at a guaranteed rate.  It takes over
  when a Noda step fails or stops shrinking the bracket, which is how
  reducible and nilpotent B close.  A B on which it too stalls (the
  resolvent overflows near 0) is narrowed by its support: peeling the
  sources and sinks of its digraph leaves a core with B's radius, empty
  (B^n = 0) or bracketed on its own.

Noda's iteration starts after at most n // 3 Collatz-Wielandt power
steps w <- B^T w / sum(B^T w), each reusing the product B^T w that
observing w already forms, so together they cost about one solve.  From
the vector they reach, one Noda step usually closes the bracket at
rounding level.  They stop as soon as an iterate has a nonpositive
entry or spans more than 2^-500 (reducible or nilpotent B), or three
steps in a row each shrink the bracket by less than 10% (imprimitive B,
whose power iterates cycle).

A bracket counts as closed when its width is at most
``max(tol * min(1, max b_ij), 4 eps upper)``: ``tol`` is absolute at
scales of 1 and above and relative to the largest entry below, and the
rounding floor closes brackets whose sides differ only in their last
bits, at any scale.

Every Collatz-Wielandt ratio below is evaluated on B itself, so solver
inaccuracy can only slow those sides.  A bisection rejection is never
read off the sign pattern of a pivoted solve, which cancellation breaks
when B is strongly non-normal and rho(B) is near zero: it is decided by
elimination without pivoting on the Z-matrix ``lambda*I - B^T``, whose
only cancellations are in the pivots whose signs are the answer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .matrices import WeightedLpNorm, as_matrix
from .signequiv import is_nonnegative

__all__ = ["PerronResult", "nonneg_spectral_radius", "optimal_weighted_l1"]

_NODA_CAP = 32
_NODA_SPAN = 2.0**-500
_BISECTION_CAP = 200
# A power step that leaves more than this share of the bracket's width
# stalls; _WARM_STALLS stalls in a row end the power steps.
_WARM_SHRINK = 0.9
_WARM_STALLS = 3
_ROUNDING = 4 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class PerronResult:
    """Certified output of :func:`nonneg_spectral_radius`.

    ``rho`` is the Collatz-Wielandt max-ratio at ``left_vector`` and so a
    certified upper bound of the true radius; on success it is within the
    requested tolerance of it.  ``bracket`` is the certified two-sided
    interval: its upper side equals ``rho``; its lower side is the best
    of the min-ratio bounds and the bisection rejections (a rejected
    lambda proves the Collatz-Wielandt infimum, hence rho(B), is at
    least lambda).  ``iterations`` is the number of resolvent solves,
    Noda steps and bisection steps together; power steps are not counted.

    Where B's bracket cannot close, rho and ``bracket`` are certified by its
    support instead (see :func:`nonneg_spectral_radius`): 0.0 and (0.0, 0.0)
    for an empty core, else the core's.  ``left_vector`` is then only B's
    best test vector, and ``iterations`` counts the core's steps too.
    """

    rho: float
    left_vector: np.ndarray
    iterations: int
    bracket: tuple

    def __post_init__(self):
        v = np.asarray(self.left_vector, dtype=np.float64).copy()
        v.setflags(write=False)
        object.__setattr__(self, "left_vector", v)
        object.__setattr__(self, "bracket", tuple(float(b) for b in self.bracket))


def _require_nonnegative(a):
    m = as_matrix(a)
    if not is_nonnegative(m):
        raise ValueError("matrix must be real and entrywise nonnegative")
    return m.arr.real


def _cw_ratios(v, w):
    """Min and max Collatz-Wielandt ratio of w, given ``v = B^T w``."""
    r = v / w
    return float(r.min()), float(r.max())


def _resolvent_vector(bt, lam, rhs):
    """Positive solution of ``(lam*I - B^T) u = rhs`` for positive rhs, or None.

    Strict positivity of u makes it a Collatz-Wielandt test vector.  In
    exact arithmetic a nonpositive entry or a singular solve would
    certify lam <= rho(B), but the pivoted solve can produce either by
    rounding for lam > rho(B) as well, so None only means the step failed.
    """
    # lam*I - B^T without an identity: off the diagonal lam*0.0 - b == 0.0 - b.
    a = 0.0 - bt
    np.fill_diagonal(a, lam - bt.diagonal())
    try:
        u = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(u)) or np.any(u <= 0):
        return None
    return u


def _m_matrix_solve(a, rhs):
    """Solve the Z-matrix system ``a u = rhs`` by elimination without pivoting.

    With nonpositive off-diagonal entries the elimination adds only
    nonpositive terms off the diagonal, and both substitutions add terms
    of one sign, so the one place where rounding can cancel is the
    diagonal update, whose sign is the answer; zero entries of B stay
    zero, so a strictly triangular B has every pivot exactly lam.  All
    pivots are positive exactly when ``a`` is a nonsingular M-matrix, for
    ``a = lam*I - B^T`` that is lam > rho(B), and u is then positive for
    positive rhs.  Returns None at the first
    finite nonpositive pivot (which certifies lam <= rho(B)), else u; a u
    that is not finite and positive (overflow) certifies neither side.
    """
    a = a.copy()
    n = a.shape[0]
    with np.errstate(all="ignore"):
        for k in range(n):
            pivot = a[k, k]
            if not np.isfinite(pivot):
                return np.full(n, np.nan)
            if pivot <= 0:
                return None
            a[k + 1 :, k] /= pivot
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
        u = np.array(rhs, dtype=np.float64)
        for k in range(1, n):
            u[k] -= a[k, :k] @ u[:k]
        for k in range(n - 1, -1, -1):
            u[k] = (u[k] - a[k, k + 1 :] @ u[k + 1 :]) / a[k, k]
    return u


def _core(bmat):
    """Mask of the vertices of B's support digraph (i -> j where b_ij > 0) left
    when its sources and sinks are peeled one level at a time.  Each peeled
    vertex is a zero 1x1 diagonal block of B, so rho(B) = rho(B[core, core]);
    an empty core means the digraph has no cycle, so B^n = 0 and rho(B) = 0."""
    support, live = bmat > 0, np.ones(len(bmat), dtype=bool)
    while True:
        peel = live & ~(support[live].any(axis=0) & support[:, live].any(axis=1))
        if not peel.any():
            return live
        live &= ~peel


class _Bracket:
    """Running certified interval with the best witness vector."""

    def __init__(self, bt, tol, bmax):
        self.bt = bt
        # Absolute at scales of 1 and above, relative to max b_ij below.
        self.tol = tol * min(1.0, bmax)
        self.lower = 0.0
        self.upper = np.inf
        self.vector = None

    def observe(self, w):
        """Take the Collatz-Wielandt ratios of w into the interval; returns B^T w."""
        v = self.bt @ w
        lo, hi = _cw_ratios(v, w)
        if hi < self.upper:
            self.upper, self.vector = hi, w
        if lo > self.lower:
            self.lower = lo
        return v

    def closed(self, lower):
        """Whether [lower, upper] is closed; 4 eps upper is the rounding floor."""
        return self.upper - lower <= max(self.tol, _ROUNDING * self.upper)

    @property
    def width(self):
        return self.upper - self.lower


def nonneg_spectral_radius(b, tol: float = 1e-10) -> PerronResult:
    """Spectral radius of a nonnegative matrix with certified bounds.

    Starts from the uniform vector with at most n // 3 Collatz-Wielandt
    power steps ``w <- B^T w / sum(B^T w)``.  They stop early when the
    bracket closes, when an iterate has a nonpositive entry or spans more
    than 2^-500 (reducible or nilpotent B), or when three steps in a row
    each shrink the bracket by less than 10% (imprimitive B).  Noda's
    iteration then runs from the best vector so far, at least one step
    after any power step: each step solves ``(lambda*I - B^T) u = w`` with
    lambda the certified upper side and takes the normalized u as the
    next test vector.  Once a step fails (singular or nonpositive solve),
    stops shrinking the bracket, or the step cap is reached, resolvent
    bisection closes the interval from the current bracket; every midpoint
    is decided by the sign-safe :func:`_m_matrix_solve`, whose pivot signs
    say whether it lies above rho(B).  The interval is closed when its
    width is at most ``max(tol * min(1, max b_ij), 4 eps rho)``.
    ``iterations`` counts the resolvent solves of Noda's iteration and the
    bisection.  An interval that cannot be closed peels the sources and
    sinks of B's support digraph level by level (:func:`_core`).  An empty
    core, hence B^n = 0, returns rho 0.0 with bracket (0.0, 0.0); a smaller
    core returns its own rho and bracket, from a call on B[core, core].
    Either way ``left_vector`` is only B's best test vector.

    Raises
    ------
    NonConvergenceError
        If the certified interval cannot be closed and nothing peels off
        the support of B, or the core's interval cannot be closed; carries
        the last bracket.
    """
    if not 0 < tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    bmat = _require_nonnegative(b)
    n = bmat.shape[0]
    bt = bmat.T
    bmax = float(bmat.max())

    bracket = _Bracket(bt, tol, bmax)
    v = bracket.observe(np.ones(n) / n)
    # Power steps: each costs one product B^T w, which observing w formed.
    steps = stalls = 0
    while steps < n // 3 and stalls < _WARM_STALLS and not bracket.closed(bracket.lower):
        vmin, vmax = float(v.min()), float(v.max())
        if vmin <= 0 or vmin / vmax < _NODA_SPAN:
            break
        steps += 1
        w = v / vmax
        w /= w.sum()
        width = bracket.width
        v = bracket.observe(w)
        stalls = stalls + 1 if bracket.width > _WARM_SHRINK * width else 0

    w = bracket.vector
    iterations = 0
    # After power steps Noda takes at least one step, from their best
    # vector: near the Perron vector its quadratic step lands at rounding
    # level, where the power steps' own bracket may have stopped just
    # inside tol.
    polish = steps > 0
    while iterations < _NODA_CAP and (polish or not bracket.closed(bracket.lower)):
        polish = False
        iterations += 1
        u = _resolvent_vector(bt, bracket.upper, w)
        if u is None:
            break
        # An iterate spanning more than _NODA_SPAN (reducible B, whose
        # non-dominant classes fade) is left to the bisection before its
        # small entries underflow.  Scaling by the maximum keeps the sum finite.
        if float(u.min()) < float(u.max()) * _NODA_SPAN:
            break
        w = u / u.max()
        w /= w.sum()
        width = bracket.width
        bracket.observe(w)
        if bracket.width >= width:
            break

    lo = bracket.lower
    ones = np.ones(n)
    for _ in range(_BISECTION_CAP):
        if bracket.closed(lo):
            return PerronResult(
                bracket.upper,
                bracket.vector,
                iterations,
                (max(bracket.lower, lo), bracket.upper),
            )
        iterations += 1
        mid = 0.5 * (lo + bracket.upper)
        u = _m_matrix_solve(mid * np.eye(n) - bt, ones)
        if u is None:
            lo = mid
            continue
        if not (np.all(np.isfinite(u)) and np.all(u > 0)):
            break
        prev_upper = bracket.upper
        bracket.observe(u)
        if bracket.upper >= prev_upper:
            # The resolvent vector no longer improves the certified upper
            # side; the interval cannot shrink further numerically.
            break
    core = _core(bmat)
    if not core.any():
        return PerronResult(0.0, bracket.vector, iterations, (0.0, 0.0))
    if not core.all():
        sub = nonneg_spectral_radius(bmat[np.ix_(core, core)], tol)
        return PerronResult(sub.rho, bracket.vector, iterations + sub.iterations, sub.bracket)
    raise NonConvergenceError(
        "certified interval for the spectral radius did not close",
        iterations=iterations,
        bracket=(max(bracket.lower, lo), bracket.upper),
    )


def optimal_weighted_l1(b, eps: float) -> WeightedLpNorm:
    """Positive weights w with ``max_i (B^T w)_i / w_i <= rho(B) + eps``.

    The weights are the l1-normalized certificate vector of
    :func:`nonneg_spectral_radius` at tolerance ``min(eps/10, 1e-8)``; its
    max Collatz-Wielandt ratio is that call's rho, within tolerance of rho(B).

    Float64 limits the margin: each edge i -> j of B's support needs
    w_j >= b_ij w_i / (rho(B) + eps), so for rho(B) well below eps a chain of k
    vertices joined by unit edges needs weights spanning about eps^-(k-1).  On the 50-vertex shift
    with a 1e-12 self-loop, eps = 1e-6 returns weights spanning 1.09e299, and
    eps = 1e-8 would need 1e392: that raises ``NonConvergenceError``.
    """
    if not 0 < eps < np.inf:  # NaN fails too
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    bmat = _require_nonnegative(b)
    n = bmat.shape[0]
    if bmat.max() == 0.0:
        return WeightedLpNorm(np.ones(n) / n, 1)

    rho_tol = min(eps / 10.0, 1e-8)
    result = nonneg_spectral_radius(bmat, tol=rho_tol)
    # rho(B) >= the bracket's lower side, so ratios below this are certified;
    # a closed bracket's width can exceed rho_tol (its rounding floor).
    target = result.bracket[0] + eps
    w = result.left_vector / result.left_vector.sum()
    _, hi = _cw_ratios(bmat.T @ w, w)
    if hi <= target:
        return WeightedLpNorm(w, 1)
    raise NonConvergenceError(
        "no weight vector certified the requested induced-norm margin",
        iterations=result.iterations,
    )
