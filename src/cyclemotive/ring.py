"""Exact sparse polynomial and truncated power-series arithmetic.

Four value types, all immutable, all over arbitrary-precision integers:

* ``Poly2``      -- Z[u,v]; holds Hodge polynomials, with the virtual
                    (p,q)-number as the coefficient of u^p v^q.
* ``Laurent1``   -- Z[u, 1/u]; the image of Z[u,v] modulo (uv - 1).
* ``LPoly``      -- Z[L], L the class of the affine line; counting
                    polynomials, evaluated at L = q^m for point counts.
* ``MultiSeries``-- Z[[x_1..x_r]] truncated at a total degree; holds the
                    coefficients of infinite-product generating series.

All four are thin subclasses of one core, ``_TermMap``: a map from
exponent key to nonzero ``int``, built only from a term map
``{exponent: coefficient}`` by one canonicalizing constructor, with one
add, neg, sub, mul, pow, eq, hash and repr.  A type adds only its exponent
check, its exponent addition (series also truncate) and its text form;
the two one-variable types share ``_OneVariable``.  Only ``LPoly`` is
evaluated at a point, by Horner's rule.  The ring maps (``specialize``,
the two quotients and the two changes of variable) take exactly their
source type.  ``str()`` is the only printer and ``parse_poly2`` the one
reader, for Z[u,v] only, in the grammar under "Text form" below.  A value
is checked once, where it enters from outside: the constructors check
every term, the series builders their factor lists, and the maps built
inside are wrapped unchecked.  Equality is equality of canonical forms.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType

from .errors import (DomainError, ParseError, _check_ints, _check_type, _long_integer, budgeted,
                     charge, digit_units, digits, division_units, power_units, product_units)

# ---------------------------------------------------------------------------
# the shared core


def _exponent_tuple(e: object, arity: int) -> tuple[int, ...]:
    """Check a multi-exponent: a tuple of `arity` non-negative ints."""
    if type(e) is not tuple or not all(type(x) is int for x in e):
        raise DomainError(f"exponent {e!r} is not a tuple of integers")
    if len(e) != arity:
        raise DomainError(f"exponent {e} has wrong arity (want {arity})")
    if any(x < 0 for x in e):
        raise DomainError(f"negative exponent in {e}")
    return e


def _mapping(terms: object) -> Mapping:
    """Check that a constructor's terms are a mapping, None meaning empty."""
    if terms is None:
        return {}
    if not isinstance(terms, Mapping):
        raise DomainError(f"terms must be a mapping, not {type(terms).__name__}")
    return terms


class _TermMap:
    """Immutable map from exponent key to nonzero int coefficient.

    A subclass supplies ``_key`` (check one exponent and return its
    canonical form, or None to drop the term), ``_add_exponents`` (the
    exponent of a product of two monomials, or None to drop it) and
    ``_unit`` (the exponent of 1).  A type whose values also carry a shape,
    as series carry arity and order, overrides ``_shape``, ``_like`` and
    ``_check_compatible``.  No zero coefficient is ever stored, so two
    values are equal iff their types, shapes and term maps are.
    """

    __slots__ = ("_terms",)
    _shape: tuple = ()

    def __init__(self, terms: Mapping | None = None):
        terms = _mapping(terms)
        charge(len(terms))
        self._terms = self._canonical(terms.items())

    def _canonical(self, items: Iterable[tuple[object, object]]) -> dict:
        """Make outside data a term map one term at a time: every exponent
        and coefficient checked, repeated exponents summed, zeros dropped."""
        out: dict = {}
        for e, c in items:
            if type(c) is not int:
                raise DomainError(f"coefficient {c!r} is not an integer")
            e = self._key(e)
            if e is not None:
                out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    def _like(self, terms: dict):
        """A value of this type and shape around a map that the library built
        canonical itself, with no check: outside maps go through the
        constructor and _canonical instead."""
        obj = object.__new__(type(self))
        obj._terms = terms
        return obj

    def _check_compatible(self, other) -> None:
        """Raise when the operands' shapes differ; only series have one."""

    @property
    def terms(self) -> Mapping:
        return MappingProxyType(self._terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_compatible(other)
        charge(len(self._terms) + len(other._terms))
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return self._like(out)

    def __neg__(self):
        charge(len(self._terms))
        return self._like({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_compatible(other)
        a, b = self._terms, other._terms
        # a unit a pair, and every coefficient product taken digit by digit
        size = [sum(map(digits, map(int.bit_length, t.values()))) for t in (a, b)]
        charge(len(a) * len(b) + digit_units(*size))
        add_exponents = self._add_exponents
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = add_exponents(e1, e2)
                if e is not None:
                    out[e] = out.get(e, 0) + c1 * c2
        return self._like({e: c for e, c in out.items() if c})

    def __pow__(self, k: int):
        _check_ints({"k": k})
        if k < 0:
            raise DomainError(f"negative power {k} of a {type(self).__name__}")
        result = self._like({self._unit: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._shape == other._shape
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._shape, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


# ---------------------------------------------------------------------------
# Poly2: sparse polynomials in u, v


class Poly2(_TermMap):
    """Sparse element of Z[u,v], keyed by exponent pairs (p, q) >= 0."""

    __slots__ = ()
    _unit = (0, 0)
    # bound in the class's own dict, so perfbench/layertrace.py can wrap
    # and count this type's products apart from the other types'
    __mul__ = _TermMap.__mul__

    @staticmethod
    def _key(e: object) -> tuple[int, int]:
        return _exponent_tuple(e, 2)

    @staticmethod
    def _add_exponents(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    def coefficient(self, p: int, q: int) -> int:
        _check_ints({"p": p, "q": q})
        return self._terms.get((p, q), 0)

    def __str__(self) -> str:
        """Canonical text, in the order given under "Text form" below."""
        return _format_terms(self._terms, lambda e: (e[0] + e[1], -e[0]), _uv_monomial)


@budgeted
def specialize(a: Poly2, u0: int, v0: int) -> int:
    """Exact evaluation at integer arguments (u0, v0), charged a unit a term
    and, unless both are 0, 1 or -1, each term's two powers and two products."""
    _check_type(a, Poly2, "a")
    _check_ints({"u0": u0, "v0": v0})
    bu, bv = (x.bit_length() if abs(x) > 1 else 0 for x in (u0, v0))
    charge(len(a.terms) + sum(  # c * u0^p, then times v0^q
        power_units(u0, p) + power_units(v0, q) + product_units(c.bit_length(), p * bu)
        + product_units(c.bit_length() + p * bu, q * bv)
        for (p, q), c in (a.terms.items() if bu or bv else ())))
    return sum(c * u0**p * v0**q for (p, q), c in a.terms.items())


# ---------------------------------------------------------------------------
# one variable: Laurent1 = Z[u, 1/u] = Z[u,v]/(uv - 1), and LPoly = Z[L]


class _OneVariable(_TermMap):
    """Sparse polynomial in one named variable, keyed by int exponents, with
    coefficient lookup and its text; evaluation is LPoly's own."""

    __slots__ = ()
    _unit = 0
    _add_exponents = staticmethod(operator.add)
    _variable: str
    _negative_exponents = True

    @classmethod
    def _key(cls, e: object) -> int:
        if type(e) is not int:
            raise DomainError(f"exponent {e!r} is not an integer")
        if e < 0 and not cls._negative_exponents:
            raise DomainError(f"{cls.__name__} exponent {e} is negative")
        return e

    def coefficient(self, e: int) -> int:
        _check_ints({"e": e})
        return self._terms.get(e, 0)

    def __str__(self) -> str:
        """Canonical text: ascending powers of the variable."""
        return _format_terms(self._terms, None, lambda e: _power(self._variable, e))


class Laurent1(_OneVariable):
    """Sparse Laurent polynomial in one variable u, integer exponents."""

    __slots__ = ()
    _variable = "u"


@budgeted
def quotient_uv_minus1(a: Poly2) -> Laurent1:
    """Image of a under Z[u,v] -> Z[u,v]/(uv-1) = Z[u,1/u].

    The homomorphism substitutes v = 1/u, sending u^p v^q to u^(p-q).
    """
    _check_type(a, Poly2, "a")
    out: dict[int, int] = {}
    for (p, q), c in a.terms.items():
        out[p - q] = out.get(p - q, 0) + c
    return Laurent1(out)


@budgeted
def quotient_uv(a: Poly2) -> Poly2:
    """Canonical representative of a modulo the ideal (uv).

    Every monomial divisible by uv is deleted; what remains is supported on
    the two coordinate axes, so the coefficients of u^p and v^q can be read
    off directly.
    """
    _check_type(a, Poly2, "a")
    return a._like({(p, q): c for (p, q), c in a.terms.items() if p == 0 or q == 0})


# ---------------------------------------------------------------------------
# LPoly: Z[L]


class LPoly(_OneVariable):
    """Polynomial in the symbol L (the class of the affine line), keyed by
    non-negative exponents."""

    __slots__ = ()
    _variable = "L"
    _negative_exponents = False
    __mul__ = _TermMap.__mul__  # own entry, as in Poly2

    def evaluate(self, x: int) -> int:
        """Exact value at an integer by Horner's rule: d + 1 steps, each charged
        a unit and a product of x, of b bits, by at most d*b + bits(sum|c|) bits."""
        _check_ints({"x": x})
        terms = self._terms
        d, b = max(terms, default=0), x.bit_length()
        bits = d * b + sum(map(abs, terms.values())).bit_length()
        charge((d + 1) * (1 + product_units(bits, b)))
        total = 0
        for e in range(d, -1, -1):
            total = total * x + terms.get(e, 0)
        return total


def lpoly_from_diagonal(a: Poly2) -> LPoly | None:
    """Rewrite a diagonal Poly2 as a polynomial in L via uv -> L.

    Returns None when some monomial has unequal exponents, i.e. the value
    is not a function of the product uv.
    """
    _check_type(a, Poly2, "a")
    if any(p != q for p, q in a.terms):
        return None
    return LPoly()._like({p: c for (p, _), c in a.terms.items()})


def lpoly_to_poly2(a: LPoly) -> Poly2:
    """Substitute L -> uv."""
    _check_type(a, LPoly, "a")
    return Poly2()._like({(i, i): c for i, c in a.terms.items()})


# ---------------------------------------------------------------------------
# MultiSeries: truncated multivariate power series


class MultiSeries(_TermMap):
    """Power series in r variables, truncated at a total degree.

    Terms are keyed by length-r exponent tuples; every stored exponent has
    total degree <= order, and arithmetic discards anything beyond the
    truncation order.  Arity 0 is allowed (constants).  Outside maps are
    checked term by term; the series builders wrap their own with _like.
    """

    __slots__ = ("arity", "order")
    __mul__ = _TermMap.__mul__  # own entry, as in Poly2

    def __init__(
        self,
        arity: int,
        order: int,
        terms: Mapping[tuple[int, ...], int] | None = None,
    ):
        if type(arity) is not int or type(order) is not int:
            raise DomainError(f"arity {arity!r} and order {order!r} must be integers")
        if arity < 0:
            raise DomainError("arity must be non-negative")
        if order < 0:
            raise DomainError("truncation order must be non-negative")
        self.arity = arity
        self.order = order
        super().__init__(terms)

    def _key(self, e: object) -> tuple[int, ...] | None:
        e = _exponent_tuple(e, self.arity)
        return e if sum(e) <= self.order else None

    def _add_exponents(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
        return tuple(map(operator.add, a, b)) if sum(a) + sum(b) <= self.order else None

    @property
    def _unit(self) -> tuple[int, ...]:
        return (0,) * self.arity

    @property
    def _shape(self) -> tuple[int, int]:
        return (self.arity, self.order)

    def _like(self, terms: dict) -> "MultiSeries":
        obj = super()._like(terms)
        obj.arity = self.arity
        obj.order = self.order
        return obj

    def _check_compatible(self, other: "MultiSeries") -> None:
        if self.arity != other.arity or self.order != other.order:
            raise DomainError(
                f"series mismatch: arity {self.arity}/{other.arity}, "
                f"order {self.order}/{other.order}"
            )

    def coefficient(self, e: Sequence[int]) -> int:
        e = tuple(e)
        _check_ints({f"e[{i}]": x for i, x in enumerate(e)})
        if sum(_exponent_tuple(e, self.arity)) > self.order:
            raise DomainError(f"exponent {e} is past the truncation order {self.order}")
        return self._terms.get(e, 0)

    def to_json(self) -> dict:
        """The series as JSON data: its shape and its [exponents, coefficient]
        terms in ascending exponent order."""
        charge(_PRINTED_TERM * len(self._terms))
        terms = [[list(e), c] for e, c in sorted(self._terms.items())]
        return {"arity": self.arity, "order": self.order, "terms": terms}

    def __repr__(self) -> str:
        return f"MultiSeries(arity={self.arity}, order={self.order}, {len(self._terms)} terms)"


@budgeted
def expand_inverse_product(
    factors: Sequence[tuple[Sequence[int], int]],
    arity: int,
    order: int,
) -> MultiSeries:
    """Expand prod_i (1 - x^(m_i))^(-c_i) to a given total degree.

    Each factor is a pair (multi-exponent m_i, multiplicity c_i >= 1).  The
    coefficient of x^alpha in the result counts the multisets of factors
    (with repetition, factors of multiplicity c supplying c distinguishable
    copies) whose exponents sum to alpha.

    The expansion is pure series arithmetic.  Factors with equal exponents
    are merged, their multiplicities added.  Each distinct exponent m gives
    one row, the coefficients a_j of f = (1 - t)^(-c), t = x^m, by the
    Euler-transform recurrence j*a_j = c*(a_0 + ... + a_(j-1)) from
    f'/f = c/(1 - t), with a_0 = 1 and exact integer division: linear in
    the order whatever the multiplicity, and with no binomial shortcut, so
    closed-form coefficient identities remain independent checks.

    Every list takes one flow: the rows on unit vectors are laid out as the
    truncated outer product (the row [1] where a variable has no factor),
    then the rows off the axes, such as (1, 1) or (2, 0), are folded in.

    The factor list is outside data and is checked here.  The map built
    from it is canonical by construction, so it is wrapped with no second
    check: every coefficient is a sum of products of positive integers,
    and both stages' bounds keep every total degree <= order.
    """
    series = MultiSeries(arity, order)
    charge(arity * len(factors))  # each factor's exponent is checked entry by entry
    merged: dict[tuple[int, ...], int] = {}
    for exponent, multiplicity in factors:
        m = _exponent_tuple(exponent, arity)
        if not any(m):
            raise DomainError("zero exponent factor: the product diverges")
        if type(multiplicity) is not int:
            raise DomainError(f"factor multiplicity {multiplicity!r} is not an integer")
        if multiplicity < 1:
            raise DomainError(f"factor multiplicity must be >= 1, got {multiplicity}")
        merged[m] = merged.get(m, 0) + multiplicity
    rows = {}
    for m, c in merged.items():
        # an entry is c times a running sum binom(c + j - 1, j - 1), of at
        # most min(j, c) * bits(c + j) bits, divided by j
        length, c_bits = order // sum(m) + 1, c.bit_length()
        bits = min(length, c) * (c + length).bit_length() + c_bits
        units = product_units(bits, c_bits) + division_units(bits, length.bit_length())
        charge(length * (2 + units))
        rows[m] = powers = [1]
        running = 1
        for j in range(1, length):
            powers.append(c * running // j)
            running += powers[-1]
    axes = [[1]] * arity
    for m in [m for m in rows if sum(m) == 1]:
        axes[m.index(1)] = rows.pop(m)
    terms, monomials = {(): 1}, 1
    for i, row in enumerate(axes, 1):
        # a key of i entries a pair, and no more keys than monomials of degree <= order
        monomials = monomials * (order + i) // i
        charge(i * min(len(terms) * len(row), monomials))
        terms = {e + (j,): c * a for e, c in terms.items()
                 for j, a in enumerate(row[: order - sum(e) + 1])}
    for m, powers in rows.items():
        charge(len(terms) * len(powers) * arity)  # a key of arity entries a pair
        out: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            key = e
            for a in powers[: (order - sum(e)) // sum(m) + 1]:
                out[key] = out.get(key, 0) + c * a
                key = tuple(map(operator.add, key, m))
        terms = out
    return series._like(terms)


# ---------------------------------------------------------------------------
# Text form: canonical rendering, and one reader, for Z[u,v]
#
# Monomials are ordered degree-lex with u before v (total degree ascending,
# then higher u-exponent first).  On output a '*' separates the u- and
# v-parts except in the plain product uv.
#
# Input is a sum of terms.  A term is a run of '+' and '-' signs (an odd
# number of '-' negates it; only the first term may have none), an optional
# coefficient in ASCII digits, then any run of '*' and the variables u and
# v, each with an optional exponent '^' digits.  A term needs a coefficient
# or a variable; repeated variables multiply ("uvu" is u^2*v) and repeated
# monomials add.  Whitespace may stand between any two tokens and at either
# end.  Every repeated part of _TERM begins with a character other than
# whitespace, so matching takes linear time.


# the units of work a printed term is charged: its sort key and its texts
_PRINTED_TERM = 8


def _format_terms(terms: dict, order, spell) -> str:
    """The signed terms, sorted by `order` of their exponents and each with
    its monomial spelled by `spell`, joined: a unit coefficient is left off
    its monomial and the sign off a positive leading term."""
    charge(_PRINTED_TERM * len(terms))
    text = "".join(
        f"{'-' if c < 0 else '+'}{'' if monomial and abs(c) == 1 else abs(c)}{monomial}"
        for monomial, c in ((spell(e), terms[e]) for e in sorted(terms, key=order))
    )
    return text.removeprefix("+") or "0"


def _power(name: str, e: int) -> str:
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def _uv_monomial(e: tuple[int, int]) -> str:
    p, q = e
    upart, vpart = _power("u", p), _power("v", q)
    if upart and vpart and (p > 1 or q > 1):
        return f"{upart}*{vpart}"
    return upart + vpart


_FACTOR = re.compile(r"([A-Za-z])(?:\s*\^\s*([0-9]+))?")
_TERM = re.compile(rf"\s*((?:[+-]\s*)*)(?:([0-9]+)\s*)?((?:(?:\*|{_FACTOR.pattern})\s*)*)")


def _int(digits: str) -> int:
    """int() of a matched digit run, which only the interpreter's digit
    limit can refuse."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"polynomial text holds {_long_integer()}") from None


@budgeted
def parse_poly2(text: str) -> Poly2:
    """Read a sum of terms in u and v, in the grammar stated under "Text
    form" above: the one text reader."""
    terms: dict = {}
    pos = 0
    while pos == 0 or pos < len(text):
        m = _TERM.match(text, pos)
        signs, coeff, factors = m.group(1, 2, 3)
        found = _FACTOR.findall(factors)
        if coeff is None and not found:
            raise ParseError(f"cannot parse {text!r} at position {m.end()}")
        if pos and not signs:
            raise ParseError("missing '+' or '-' between terms")
        exps = {"u": 0, "v": 0}
        for name, digits in found:
            if name not in exps:
                raise ParseError(f"unknown variable {name!r}")
            exps[name] += _int(digits or "1")
        key = (exps["u"], exps["v"])
        sign = -1 if signs.count("-") % 2 else 1
        terms[key] = terms.get(key, 0) + sign * _int(coeff or "1")
        pos = m.end()
    return Poly2(terms)
