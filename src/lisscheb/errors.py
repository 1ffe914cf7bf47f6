"""Exception types shared across the library, and the argument type check
that raises one."""

import reprlib
from typing import Optional


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
