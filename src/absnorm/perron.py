"""Spectral radius of nonnegative matrices via Collatz-Wielandt bracketing.

For a nonnegative matrix B and any positive vector w,

    min_i (B^T w)_i / w_i  <=  rho(B)  <=  max_i (B^T w)_i / w_i,

and the infimum of the max-side over positive w equals rho(B) exactly,
reducible B included.  Two engines realize that infimum constructively:

* power iteration on the uniformly perturbed positive matrix
  ``(B + delta*ones)^T`` with delta shrinking geometrically, which
  pinches quickly whenever B has a dominant eigenvalue gap, and
* resolvent bisection: for any lambda > rho(B) the vector
  ``u = (lambda*I - B^T)^{-1} 1`` is strictly positive with
  ``max_i (B^T u)_i / u_i < lambda``, while failure of positivity
  certifies lambda <= rho(B); bisecting lambda therefore closes a
  certified interval at a guaranteed rate.

The bisection exists because power iteration alone can stall: for
defective spectra the perturbed eigenvalue gap closes like sqrt(delta),
and for imprimitive matrices (equal-modulus eigenvalues, e.g.
[[0,2],[1,0]]) like delta itself, so no iteration budget pinches the
bracket as delta shrinks.  Every certificate below is evaluated on the
unperturbed B, so solver inaccuracy can only slow convergence, never
corrupt a bound.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .matrices import WeightedLpNorm, as_matrix

__all__ = ["PerronResult", "nonneg_spectral_radius", "optimal_weighted_l1"]

_POWER_PASSES = 12
_POWER_ITERATIONS = 120
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


def _resolvent_vector(bt, lam):
    """Positive solution of ``(lam*I - B^T) u = 1``, or None.

    Strict positivity of u certifies lam > rho(B) (M-matrix inverse
    nonnegativity); conversely any nonpositive entry or a singular solve
    certifies lam <= rho(B).
    """
    n = bt.shape[0]
    try:
        u = np.linalg.solve(lam * np.eye(n) - bt, np.ones(n))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(u)) or np.any(u <= 0):
        return None
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

    Runs the perturbed power iteration first (delta starting at one
    percent of the largest entry, halving between passes) and, if the
    certified interval has not pinched to ``tol``, closes it by
    resolvent bisection.

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
    top = float(bmat.max())
    if top == 0.0:
        return PerronResult(0.0, np.ones(n) / n, 0, (0.0, 0.0))

    w = np.ones(n) / n
    bracket = _Bracket(bt, w)
    iterations = 0
    delta = top * 1e-2
    for _ in range(_POWER_PASSES):
        mt = bt + delta
        for _ in range(_POWER_ITERATIONS):
            iterations += 1
            y = mt @ w
            w = y / y.sum()
            bracket.observe(w)
            plo, phi = _cw_ratios(mt, w)
            if phi - plo <= tol / 4:
                break
        if bracket.width <= tol:
            return PerronResult(
                bracket.upper, bracket.vector, iterations, (bracket.lower, bracket.upper)
            )
        delta *= 0.5

    lo = bracket.lower
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
        u = _resolvent_vector(bt, mid)
        if u is None:
            lo = mid
            continue
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
