"""Exception types shared across the package.

Every error raised on purpose by this package derives from MorsebandError,
so callers can catch the package's failures without catching bugs.
"""

__all__ = [
    "MorsebandError",
    "DomainError",
    "RangeError",
    "AccuracyLossError",
    "ConvergenceError",
    "GridMismatchError",
    "ConfigError",
    "CrossCheckError",
]


class MorsebandError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DomainError(MorsebandError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class RangeError(MorsebandError, OverflowError):
    """The exact result is finite but exceeds the representable float range."""


class AccuracyLossError(MorsebandError, ArithmeticError):
    """Cancellation destroyed more accuracy than the operation's contract allows."""


class ConvergenceError(MorsebandError, ArithmeticError):
    """Successive quadrature refinements failed to agree within tolerance."""


class GridMismatchError(MorsebandError, ValueError):
    """Two sampled states do not share the same grid and weight samples."""


class ConfigError(MorsebandError, ValueError):
    """A run configuration is malformed or references unknown names."""


class CrossCheckError(MorsebandError):
    """Two independent routes to the same exact result disagree."""
