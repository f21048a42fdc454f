"""Exception hierarchy with stable error codes for CLI reporting."""

from __future__ import annotations


class WPSError(Exception):
    """Base class for domain errors; `code` is stable across releases."""

    code = "E_GENERIC"


class FieldMismatch(WPSError):
    code = "E_FIELD_MISMATCH"


class ZeroPolynomial(WPSError):
    code = "E_ZERO_POLYNOMIAL"


class NotHomogeneous(WPSError):
    code = "E_NOT_HOMOGENEOUS"


class Mismatch(WPSError):
    code = "E_MISMATCH"


class Unsupported(WPSError):
    code = "E_UNSUPPORTED"


class NotOnPatch(WPSError):
    code = "E_NOT_ON_PATCH"


class PrimeUnsuitable(WPSError):
    code = "E_PRIME_UNSUITABLE"


class BadCase(WPSError):
    code = "E_BAD_CASE"


class NotWellFormed(WPSError):
    code = "E_NOT_WELL_FORMED"


class InvalidDegreeWeight(WPSError):
    code = "E_INVALID_DEGREE_WEIGHT"


class NonIntegerGenus(WPSError):
    code = "E_GENUS_NONINT"


class NotSufficientlyGeneral(WPSError):
    code = "E_NOT_SUFFICIENTLY_GENERAL"


class NotAConePoint(WPSError):
    code = "E_NOT_A_CONE_POINT"


class DegenerateEdge(WPSError):
    code = "E_DEGENERATE_EDGE"


class NumeratorNotPolynomial(WPSError):
    code = "E_NUMERATOR_NOT_POLYNOMIAL"


class AmbiguousLowDegree(WPSError):
    code = "E_AMBIGUOUS_LOW_DEGREE"


class TooLarge(WPSError):
    code = "E_TOO_LARGE"


# The one size limit; each entry point counts its own inner loop's steps, and
# at the limit takes a second at most on a 2-core VM, Python 3.11 (see README).
WORK_LIMIT = 250_000


def check_work(work: int, what: str) -> None:
    """Raise TooLarge, before the work starts, when `what` needs more than WORK_LIMIT steps."""
    if work > WORK_LIMIT:
        raise TooLarge(f"{what} exceeds the work limit of {WORK_LIMIT} steps")


# The size limit on integers in polynomial and point input and in answers: below CPython's
# int <-> str limit of 4,300 digits, so no answer depends on the interpreter's setting of it.
DIGIT_LIMIT = 4_000


def check_digits(values, what: str) -> None:
    """Raise TooLarge, before any decimal conversion, when an int or Fraction in `values`
    may have more than DIGIT_LIMIT decimal digits: 2^13284 < 10^4000 bounds them by bit length."""
    if any(max(abs(q.numerator), q.denominator).bit_length() > DIGIT_LIMIT * 3321 // 1000 for q in values):
        raise TooLarge(f"{what} has more than {DIGIT_LIMIT} decimal digits")


def check_length(text: str, what: str) -> None:
    """Raise TooLarge, before int() or Fraction() converts it, when the numeral `text`
    is longer than DIGIT_LIMIT: the one check on integers read from text."""
    if len(text) > DIGIT_LIMIT:
        raise TooLarge(f"{what} has more than {DIGIT_LIMIT} decimal digits")


class ParseError(WPSError):
    """Syntax error in a polynomial, weight, or point string."""

    code = "E_PARSE"

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    code = "E_UNKNOWN_VARIABLE"
