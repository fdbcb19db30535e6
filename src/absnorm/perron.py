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
  reducible and nilpotent B close.

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

__all__ = ["PerronResult", "nonneg_spectral_radius", "optimal_weighted_l1"]

_NODA_CAP = 32
_NODA_SPAN = 2.0**-500
_BISECTION_CAP = 200


@dataclass(frozen=True)
class PerronResult:
    """Certified output of :func:`nonneg_spectral_radius`.

    ``rho`` is the Collatz-Wielandt max-ratio at ``left_vector`` and so a
    certified upper bound of the true radius; on success it is within the
    requested tolerance of it.  ``bracket`` is the certified two-sided
    interval: its upper side equals ``rho``; its lower side is the best
    of the min-ratio bounds and the bisection rejections (a rejected
    lambda proves the Collatz-Wielandt infimum, hence rho(B), is at
    least lambda).
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
    arr = m.arr
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise ValueError("matrix must be real nonnegative")
        arr = arr.real
    if np.any(arr < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    return np.asarray(arr, dtype=np.float64)


def _cw_ratios(bt, w):
    r = (bt @ w) / w
    return float(r.min()), float(r.max())


def _resolvent_vector(bt, lam, rhs):
    """Positive solution of ``(lam*I - B^T) u = rhs`` for positive rhs, or None.

    Strict positivity of u makes it a Collatz-Wielandt test vector.  In
    exact arithmetic a nonpositive entry or a singular solve would
    certify lam <= rho(B), but the pivoted solve can produce either by
    rounding for lam > rho(B) as well, so None only means the step failed.
    """
    try:
        u = np.linalg.solve(lam * np.eye(bt.shape[0]) - bt, rhs)
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


class _Bracket:
    """Running certified interval with the best witness vector."""

    def __init__(self, bt, w):
        self.bt = bt
        self.lower = 0.0
        self.upper = np.inf
        self.vector = w
        self.observe(w)

    def observe(self, w):
        lo, hi = _cw_ratios(self.bt, w)
        if hi < self.upper:
            self.upper, self.vector = hi, w
        if lo > self.lower:
            self.lower = lo
        return lo, hi

    @property
    def width(self):
        return self.upper - self.lower


def nonneg_spectral_radius(b, tol: float = 1e-10) -> PerronResult:
    """Spectral radius of a nonnegative matrix with certified bounds.

    Runs Noda's iteration from the uniform vector: each step solves
    ``(lambda*I - B^T) u = w`` with lambda the certified upper side and
    takes the normalized u as the next test vector.  Once a step fails
    (singular or nonpositive solve), stops shrinking the bracket, or the
    step cap is reached, resolvent bisection closes the interval from the
    current bracket; a midpoint whose pivoted solve is not positive is
    decided by the sign-safe :func:`_m_matrix_solve`.  ``iterations``
    counts both kinds of step.

    Raises
    ------
    NonConvergenceError
        If the certified interval cannot be closed; carries the last
        bracket.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    bmat = _require_nonnegative(b)
    n = bmat.shape[0]
    bt = bmat.T
    if float(bmat.max()) == 0.0:
        return PerronResult(0.0, np.ones(n) / n, 0, (0.0, 0.0))

    w = np.ones(n) / n
    bracket = _Bracket(bt, w)
    iterations = 0
    while iterations < _NODA_CAP and bracket.width > tol:
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
        if bracket.upper - lo <= tol:
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
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    bmat = _require_nonnegative(b)
    n = bmat.shape[0]
    if bmat.max() == 0.0:
        return WeightedLpNorm(np.ones(n) / n, 1)

    rho_tol = min(eps / 10.0, 1e-8)
    result = nonneg_spectral_radius(bmat, tol=rho_tol)
    # rho >= rho(B) >= rho - rho_tol, so ratios below this are certified.
    target = (result.rho - rho_tol) + eps
    w = result.left_vector / result.left_vector.sum()
    _, hi = _cw_ratios(bmat.T, w)
    if hi <= target:
        return WeightedLpNorm(w, 1)
    raise NonConvergenceError(
        "no weight vector certified the requested induced-norm margin",
        iterations=result.iterations,
    )
