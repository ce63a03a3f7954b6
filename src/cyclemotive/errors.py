"""Exception types shared across the package, the JSON decoder for input
files, and the integer checks for library arguments, JSON values and
command-line spellings.

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


def _shown(text: str) -> str:
    """repr(text) for an error message, cut after 40 characters so that a
    long input still gives a short line."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _json_loads(text: str, what: str):
    """Decode JSON text; `what` names the input in the error message.
    json is imported here, its only use, so that `import cyclemotive`
    does not load it."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    except ValueError:
        # int() refuses a literal longer than the interpreter's digit limit
        raise ParseError(f"{what} holds {_long_integer()}") from None


def _check_ints(named: dict) -> None:
    """Refuse with DomainError each value of `named` that is not an int,
    naming it by its key.  A bool is refused too, though it subclasses
    int."""
    for what, value in named.items():
        if type(value) is not int:
            raise DomainError(f"{what} must be an int, got {type(value).__name__}")


def _json_int(value, field: str) -> int:
    """A JSON integer taken as it is: floats, strings and booleans are
    refused rather than rounded or converted."""
    if type(value) is not int:
        raise ParseError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _json_ints(value, field: str) -> tuple[int, ...]:
    """A JSON array of integers, as a tuple."""
    if not isinstance(value, list):
        raise ParseError(f"field {field!r} must be an array of integers, got {value!r}")
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
