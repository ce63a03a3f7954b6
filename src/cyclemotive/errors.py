"""Exception types, the work meter and the integer checks for library
arguments, decoded JSON values and command-line spellings.  JSON text is
decoded by the CLI only; the library readers take decoded data.

The CLI maps these onto exit codes, so library code should raise the most
specific class that applies rather than a bare ValueError.
"""

import contextvars
import sys


class DomainError(ValueError):
    """An argument is outside the stated domain of an operation."""


class ParseError(ValueError):
    """Malformed input text or JSON structure."""


class UnsupportedError(ValueError):
    """Well-formed input naming a measure or leaf kind we do not know."""


class NotCountableError(Exception):
    """A class carries Hodge data that no point-counting polynomial realizes."""

    def __init__(self, leaf_name: str):
        super().__init__(
            f"class {leaf_name!r} is not countable: its Hodge polynomial "
            "is not a polynomial in the product uv"
        )
        self.leaf_name = leaf_name


class FanError(ValueError):
    """A fan fails structural validation."""


class BudgetError(RuntimeError):
    """A computation would exceed its budget of units of work (see charge)."""


# The work meter.  A unit of work is about 0.25 us on a 2-CPU Python 3.11
# host, as long as ring arithmetic takes to multiply a term pair, or CPython
# takes for about 250 products of the digits it stores ints in (see
# product_units).  Each place that builds ring values, series, recursion
# rows or text charges the units it is about to take before it allocates
# anything, so a call is refused with BudgetError before it overruns its
# budget, in memory as in time.  No call inside the budget took 2 s.
WORK_BUDGET = 2_500_000

# the units left in the open budget, as a one-item list; None outside one
_left = contextvars.ContextVar("cyclemotive_work_left", default=None)
_DIGIT_BITS = sys.int_info.bits_per_digit


def charge(units: int) -> None:
    """Take `units` of work from the open budget, before the work is done;
    raise BudgetError, taking nothing, when fewer are left.  Outside a
    budget nothing is counted."""
    left = _left.get()
    if left is not None:
        if units > left[0]:
            raise BudgetError(f"the work takes more than its budget of {WORK_BUDGET} units")
        left[0] -= units


def metered(fn, *args):
    """fn(*args), charged to the budget open in this context, or to a new
    one of WORK_BUDGET units when none is open."""
    token = _left.set(_left.get() or [WORK_BUDGET])
    try:
        return fn(*args)
    finally:
        _left.reset(token)


def digits(bits: int) -> int:
    """The digits CPython stores an int of `bits` bits in."""
    return -(-bits // _DIGIT_BITS)


def digit_units(a_digits, b_digits) -> int:
    """The units of a_digits * b_digits digit products, one product taken
    digit by digit or all products of two lists of ints of those digits."""
    return int(a_digits * b_digits) // 250


def product_units(a_bits: int, b_bits: int) -> int:
    """The units of one product, priced as CPython multiplies: digit by
    digit while the shorter operand has at most 70 digits, and past that by
    Karatsuba's algorithm on pieces of the shorter's size, 6 * short^0.585
    digit products per digit of the longer; symmetric and non-decreasing."""
    if a_bits > b_bits:
        a_bits, b_bits = b_bits, a_bits
    short = -(-a_bits // _DIGIT_BITS)  # digits(), inline on this hot path
    return digit_units(-(-b_bits // _DIGIT_BITS), short if short <= 70 else 6 * short**0.585)


def division_units(n_bits: int, d_bits: int) -> int:
    """The units of one division: quotient digits times divisor digits."""
    d = digits(d_bits)
    return digit_units(max(0, digits(n_bits) - d + 1), d)


def _long_integer() -> str:
    """What int() and str() refuse past the interpreter's digit limit, for
    the messages that report it."""
    limit = sys.get_int_max_str_digits()
    return f"an integer longer than sys.get_int_max_str_digits() = {limit} digits"


def _shown(value) -> str:
    """repr(value) for an error message, cut after 40 characters so that a
    long input still gives a short line.  A string is cut before its repr,
    so the cut text keeps its quotes."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    cut = repr(text[:40]) if isinstance(value, str) else text[:40]
    return f"{cut}... ({len(text)} characters)"


def _check_ints(named: dict) -> None:
    """Refuse with DomainError each value of `named` that is not an int,
    naming it by its key.  A bool is refused too, though it subclasses
    int."""
    for what, value in named.items():
        if type(value) is not int:
            raise DomainError(f"{what} must be an int, got {type(value).__name__}")


def _check_type(value, cls: type, what: str) -> None:
    """Refuse with DomainError a value whose type is not exactly `cls`,
    naming it as `what`."""
    if type(value) is not cls:
        raise DomainError(f"{what} must be of type {cls.__name__}, got {type(value).__name__}")


def _json_int(value, field: str) -> int:
    """A JSON integer taken as it is: floats, strings and booleans are
    refused rather than rounded or converted."""
    if type(value) is not int:
        raise ParseError(f"field {field!r} must be an integer, got {_shown(value)}")
    return value


def _json_ints(value, field: str) -> tuple[int, ...]:
    """A JSON array of integers, as a tuple."""
    if not isinstance(value, list):
        raise ParseError(
            f"field {field!r} must be an array of integers, got {_shown(value)}"
        )
    return tuple(_json_int(x, field) for x in value)


def _ascii_ints(texts: list[str], what: str, message: str) -> list[int]:
    """Non-negative integers spelled in ASCII digits only, one per text.
    int() would also take signs, spaces, underscores and non-ASCII digits;
    those raise ParseError(message) here.  A digit string too long for
    int() raises a ParseError that says so; `what` names the input in it."""
    if not all(text.isascii() and text.isdigit() for text in texts):
        raise ParseError(message)
    try:
        return [int(text) for text in texts]
    except ValueError:
        # past the interpreter's digit limit, which the longest text is
        too_long = _shown(max(texts, key=len))
        raise ParseError(f"{what}: {too_long} is {_long_integer()}") from None
