"""Exception taxonomy shared across the package.

Each exception maps to a distinct CLI exit code (see the cli module docstring).
"""


class NilcoError(Exception):
    """Base class for all package errors."""


class ParseError(NilcoError):
    """Input unreadable: a file that is not valid JSON, or an element cap
    that is not a positive integer (exit code 2)."""


class ShapeError(NilcoError):
    """Dimension or shape mismatch between matrices, vectors or elements."""


class UnsupportedClassError(NilcoError):
    """Operation requires element arithmetic beyond nilpotency class 2."""


class BoundExceededError(NilcoError):
    """A configured enumeration bound (order / determinant cap) was exceeded."""


class HomomorphismError(NilcoError):
    """A homomorphism failed validation (bracket equivariance or shapes)."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = tuple(violations or ())


class InfiniteResultError(NilcoError):
    """A finite answer was requested but the Reidemeister number is infinite."""
