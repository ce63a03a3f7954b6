"""Exception types shared across the package, and the integer checks for
library arguments, decoded JSON values and command-line spellings.  JSON
text is decoded by the CLI only; the library readers take decoded data.

The CLI maps these onto exit codes, so library code should raise the most
specific class that applies rather than a bare ValueError.
"""

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
    """A brute-force enumeration would exceed the configured point budget."""


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
