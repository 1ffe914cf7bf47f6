"""Exception types shared across the library, and the argument checks that
raise them."""

import math
import numbers
import reprlib
from typing import Optional, Tuple


class LisschebError(Exception):
    """Base class for all library errors.

    ``row`` is the position of the offending item in a batch (a point of
    a point array, an entry of a coefficient or sample mapping) when the
    check covered one.
    """

    def __init__(self, message: str, row: Optional[int] = None):
        self.row = row
        super().__init__(message)


class EmptyDimension(LisschebError):
    """Raised when a frequency vector has no entries."""


class ZeroEntry(LisschebError):
    """Raised when a frequency vector contains a zero."""


class CoprimalityViolation(LisschebError):
    """Two frequency entries share a common factor."""

    def __init__(self, i: int, j: int, gcd: int):
        self.i = i
        self.j = j
        self.gcd = gcd
        super().__init__(
            f"entries {i} and {j} are not relatively prime (gcd = {gcd})"
        )


class OverflowDimension(LisschebError):
    """Products derived from the frequency vector exceed 64-bit range, or
    the grid box a spec needs exceeds the allocation limit."""


class InvalidParameter(LisschebError, ValueError):
    """A frequency, shift or sign vector has a wrong length, a non-integer
    entry or a value outside its admissible set."""


def check_type(value, kind: type) -> None:
    """Raise InvalidParameter if value is not an instance of kind."""
    if not isinstance(value, kind):
        raise InvalidParameter(
            f"expected a {kind.__name__}, got {reprlib.repr(value)}")


def as_tuple(values, what: str, length: Optional[int] = None) -> Tuple:
    """The values as a tuple with length entries, if a length is given.
    InvalidParameter for values that are not iterable or of another length."""
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidParameter(
            f"{what} must be a sequence, got {reprlib.repr(values)}") from None
    if length is not None and len(values) != length:
        raise InvalidParameter(
            f"{what} must have {length} entries, got {len(values)}")
    return values


def check_real(value, what: str, error: type = InvalidParameter) -> float:
    """value as a float; error unless it is a real number, not a bool, that
    a float holds finitely.  Floats keep numpy scalars from warning."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not math.isfinite(x):
        raise error(
            f"{what} must be one of the finite reals, got {reprlib.repr(value)}")
    return x


class IncompatibleCongruences(LisschebError):
    """A simultaneous congruence system has no solution."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(f"congruences {i} and {j} are incompatible")


class IndexOutOfRange(LisschebError):
    """An index argument lies outside its admissible range."""


class InvalidRange(LisschebError):
    """A parameter interval is empty, reversed or not finite, or a sample
    count is out of range."""


class NotInGammaSet(LisschebError):
    """A frequency tuple is not a member of the spectral index set."""


class DomainViolation(LisschebError):
    """An evaluation point lies outside the closed unit cube, or a point,
    sample or coefficient value is not finite."""


class SpecMismatch(LisschebError):
    """Two objects built from different node specifications were combined."""
