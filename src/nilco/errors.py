"""Exception taxonomy shared across the package, and the enumeration cap.

Each exception maps to a distinct CLI exit code (see the cli module docstring).
"""

import os

DEFAULT_MAX_ORDER = 10**6


class NilcoError(Exception):
    """Base class for all package errors."""


class ParseError(NilcoError):
    """Input unreadable: a file that is not UTF-8 or not valid JSON, or an
    element cap that is not a positive integer (exit code 2)."""


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


def max_order_cap(override=None):
    """Element cap for exhaustive enumeration (quotient elements in the
    oracle, period classes of a class-2 count in the orbit engine): the
    override, else NILCO_MAX_ORDER, else DEFAULT_MAX_ORDER.  A cap that is
    not an integer >= 1 raises ParseError."""
    raw, source = override, "max_order"
    if raw is None:
        raw, source = os.environ.get("NILCO_MAX_ORDER") or DEFAULT_MAX_ORDER, "NILCO_MAX_ORDER"
    try:
        cap = int(raw)
    except (TypeError, ValueError):
        cap = 0
    if cap < 1:
        raise ParseError(f"{source} must be an integer >= 1, got {raw!r}")
    return cap
