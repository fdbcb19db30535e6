"""Exception types shared across the package."""

__all__ = ["AbsnormError", "DimensionError", "CapacityError", "NonConvergenceError"]


class AbsnormError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AbsnormError, ValueError):
    """Input data has the wrong shape (non-square matrix, length mismatch)."""


class CapacityError(AbsnormError):
    """A requested enumeration or search exceeds the desk-scale node budget."""


class NonConvergenceError(AbsnormError):
    """An iterative solver hit its iteration cap.

    Attributes
    ----------
    iterations : int
        Number of iterations performed before giving up.
    bracket : tuple of float or None
        Last two-sided bracket available when the failure occurred.
    """

    def __init__(self, message, iterations=0, bracket=None):
        super().__init__(message)
        self.iterations = iterations
        self.bracket = bracket
