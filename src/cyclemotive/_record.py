"""Frozen value records.

A Record subclass declares its fields as annotations, in order; a class
attribute of the same name is that field's default.  A record is built
from positional or keyword arguments, runs the class's `__post_init__`
check if it has one, and then cannot be assigned to.  It compares equal
only to a record of the same class with equal fields, hashes as the tuple
of its fields, reprs as `Name(field=value, ...)` and supports positional
`match` patterns.  `to_json()` writes a record as a JSON object: its
fields in order, then the derived values its class names in `_derived`,
each written by `_json`, the one JSON writer of every value that leaves
the program.

These are the value semantics of a frozen dataclass, kept by one shared
set of methods: nothing is generated or compiled per class at import.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # names of properties that to_json() writes after the fields
    _derived: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__ = fields
        # _values(record): the tuple of field values, by one attrgetter call
        if len(fields) > 1:
            values = attrgetter(*fields)
        elif fields:
            one = attrgetter(*fields)
            values = lambda record: (one(record),)
        else:
            values = lambda record: ()
        cls._values = staticmethod(values)

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for i, name in enumerate(fields):  # faster than zip() here
            _set(self, name, args[i])
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from keywords and defaults after the
        positional arguments."""
        fields = cls.__match_args__
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls.__dict__:
                values.append(cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(
                f"{cls.__name__}() got unexpected or repeated arguments {sorted(kwargs)}"
            )
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in
                         zip(self.__match_args__, self._values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def to_json(self) -> dict:
        out = {name: _json(value) for name, value in
               zip(self.__match_args__, self._values(self))}
        for name in self._derived:
            out[name] = _json(getattr(self, name))
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _json(value):
    """A value as JSON data: an int, string, bool or None as it is, a tuple
    or list as a list and a dict as a dict of written values, a value with
    to_json() by it, and anything else, a polynomial, by str()."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if hasattr(value, "to_json"):
        return value.to_json()
    return str(value)
