"""Exception taxonomy shared across the package, and the enumeration cap.

Each class carries its CLI exit code as `exit_code`, inherited where a
class names none: `cli.main` returns the code of the error it catches.
"""

import os

DEFAULT_MAX_ORDER = 10**6


class NilcoError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(NilcoError):
    """Input unreadable: a file that is not UTF-8 or not valid JSON, or an
    element cap that is not a positive integer."""

    exit_code = 2


class SchemaError(NilcoError):
    """JSON readable but structurally invalid."""

    exit_code = 3


class ShapeError(NilcoError):
    """Dimension or shape mismatch between matrices, vectors or elements."""

    exit_code = 3


class UnsupportedClassError(NilcoError):
    """Operation requires element arithmetic beyond nilpotency class 2."""

    exit_code = 4


class BoundExceededError(NilcoError):
    """The enumeration cap (`max_order_cap`) was exceeded."""

    exit_code = 5


class HomomorphismError(NilcoError):
    """A homomorphism failed validation (bracket equivariance or shapes)."""

    exit_code = 3

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = tuple(violations or ())


class InfiniteResultError(NilcoError):
    """A finite answer was requested but the Reidemeister number is infinite."""


def max_order_cap():
    """Element cap for exhaustive enumeration (quotient elements in the
    oracle, period classes of a class-2 count in the orbit engine):
    NILCO_MAX_ORDER, else DEFAULT_MAX_ORDER.  A cap that is not an integer
    >= 1 raises ParseError."""
    raw = os.environ.get("NILCO_MAX_ORDER") or DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParseError(f"NILCO_MAX_ORDER must be an integer >= 1, got {raw!r}")
    return cap
