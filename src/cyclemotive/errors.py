"""Exception types, the work meter and the integer checks for library
arguments, decoded JSON values and command-line spellings.  JSON text is
decoded by the CLI only; the library readers take decoded data.

The work meter has one rule: every function the package exports, and the
CLI's main, is defined under @budgeted, so each call runs inside a budget
of WORK_BUDGET units, its own or the one its caller opened.  Products,
powers, divisions and binomials of big integers are priced here only.

The CLI maps these onto exit codes, so library code should raise the most
specific class that applies rather than a bare ValueError.
"""

import contextvars
import functools
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
# host: ring arithmetic multiplying a term pair, or CPython taking about 250
# products of the digits it stores ints in.  Each place that builds ring
# values, series, recursion rows, binomials or text charges its units before
# it allocates anything, so an exported call, which @budgeted runs in a
# budget of this many units, is refused with BudgetError before it overruns
# it, in memory as in time.  The one limit: no call inside it took 2 s.
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


def budgeted(fn):
    """fn, run inside the budget open in this context, or inside a new one
    of WORK_BUDGET units when none is open: nested calls share the budget
    of the outermost.  A recursive fn calls its own body, not this wrapper,
    so that each level costs one frame."""

    @functools.wraps(fn)
    def within_budget(*args, **kwargs):
        if _left.get() is not None:
            return fn(*args, **kwargs)
        token = _left.set([WORK_BUDGET])
        try:
            return fn(*args, **kwargs)
        finally:
            _left.reset(token)

    return within_budget


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


def power_units(base: int, e: int) -> int:
    """The units of base ** e, e >= 0: twice its last squaring; none for 0, 1, -1."""
    half = base.bit_length() * e // 2 if abs(base) > 1 else 0
    return 2 * product_units(half, half)


def division_units(n_bits: int, d_bits: int) -> int:
    """The units of one division: quotient digits times divisor digits."""
    d = digits(d_bits)
    return digit_units(max(0, digits(n_bits) - d + 1), d)


def binomial_bits(n: int, k: int) -> int:
    """A bound on the bits of binom(n, k) for 0 <= k <= n: j (bits(n // j)
    + 2) with j = min(k, n - k), since binom(n, j) <= (e n / j)^j."""
    j = min(k, n - k)
    return j * ((n // j).bit_length() + 2) if j else 1


def binomial_units(n: int, k: int) -> int:
    """The units of math.comb(n, k), from a bound on its result's bits:
    one product of that size, and ten divisions of it by a divisor of
    min(k, n - k) bits, which is what its halving recursion was measured
    to cost on CPython 3.11, division dominating near k = n / 2."""
    bits, j = binomial_bits(n, k), min(k, n - k)
    return 1 + product_units(bits, bits) + 10 * division_units(bits + j, j)


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
