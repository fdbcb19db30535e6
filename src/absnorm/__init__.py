"""Certified bounds on the infimum of induced absolute-norm matrix norms.

The central quantity mu(A) is the smallest value achievable by the
operator norm of A induced by an absolute (monotone) vector norm.  It
equals the growth rate of maximal products A D_1 A D_2 ... with
unimodular diagonal interleavings, sits between rho(A) and rho(|A|),
and collapses to rho(|A|) exactly when A is sign equivalent to its
entrywise absolute value.

The package provides the dense field kernels, the diagonal-group
enumeration, the sign-equivalence decision procedure, Perron weights
with Collatz-Wielandt certificates, the two-sided bounds engine, and an
evaluator for truncations of the extremal absolute norm.
"""

from . import bounds, diagonals, errors, extremal, matrices, perron, signequiv
from .bounds import *
from .diagonals import *
from .errors import *
from .extremal import *
from .matrices import *
from .perron import *
from .signequiv import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (bounds, diagonals, errors, extremal, matrices, perron, signequiv)
    for name in module.__all__
)
