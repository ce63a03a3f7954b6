"""Expression calculus for variety classes and their measure evaluations.

A MotiveExpr is a formal combination of well-understood building blocks:
points, affine spaces, tori, projective spaces, Grassmannians, cellular
classes, toric varieties, and explicitly-given smooth projective classes,
combined by disjoint union, formal difference, product, and cone.  Every
measure here factors through the class of the expression, so evaluation is
a ring homomorphism computed leaf by leaf.

Difference is formal subtraction in the class group; no embedding of the
subtracted piece is demanded or checked.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from . import toric
from ._record import Record
from .errors import DomainError, NotCountableError, ParseError, UnsupportedError, budgeted, charge
from .errors import _ascii_ints, _check_ints, _check_type, _json_int, _json_ints, _shown
from .ffcount import _check_field, check_field, gaussian_binomial_poly
from .ring import (
    Laurent1,
    LPoly,
    Poly2,
    lpoly_from_diagonal,
    lpoly_to_poly2,
    parse_poly2,
    quotient_uv,
    quotient_uv_minus1,
    specialize,
)


class MotiveExpr(Record):
    """Base marker for expression nodes; all subclasses are frozen records."""

    __slots__ = ()


class Point(MotiveExpr):
    pass


class AffineSpace(MotiveExpr):
    n: int

    def __post_init__(self):
        _check_ints({"n": self.n})
        if self.n < 0:
            raise DomainError(f"affine space dimension must be >= 0, got {self.n}")


class Torus(MotiveExpr):
    n: int

    def __post_init__(self):
        _check_ints({"n": self.n})
        if self.n < 1:
            raise DomainError(f"torus rank must be >= 1, got {self.n}")


class ProjSpace(MotiveExpr):
    n: int

    def __post_init__(self):
        _check_ints({"n": self.n})
        if self.n < 0:
            raise DomainError(f"projective dimension must be >= 0, got {self.n}")


class Grassmannian(MotiveExpr):
    k: int
    n: int

    def __post_init__(self):
        _check_ints({"k": self.k, "n": self.n})
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


class Cellular(MotiveExpr):
    """A class built from affine cells, one per entry of the dimension list."""

    cells: tuple[int, ...]

    def __post_init__(self):
        if type(self.cells) is not tuple:
            raise DomainError(f"cells must be a tuple, got {type(self.cells).__name__}")
        _check_ints({f"cells[{i}]": c for i, c in enumerate(self.cells)})
        if not self.cells:
            raise DomainError("cellular class needs at least one cell")
        if any(c < 0 for c in self.cells):
            raise DomainError("cell dimensions must be >= 0")
        if list(self.cells) != sorted(self.cells):
            raise DomainError("cell dimensions must be listed in ascending order")


class ToricFan(MotiveExpr):
    fan: toric.Fan

    def __post_init__(self):
        _check_type(self.fan, toric.Fan, "fan")
        self.fan.census  # an invalid fan raises FanError here


class SmoothProjectiveLeaf(MotiveExpr):
    name: str
    e_poly: Poly2
    countable: bool

    def __post_init__(self):
        _check_type(self.name, str, "name")
        _check_type(self.e_poly, Poly2, "e_poly")
        _check_type(self.countable, bool, "countable")


class DisjointUnion(MotiveExpr):
    a: MotiveExpr
    b: MotiveExpr


class Difference(MotiveExpr):
    a: MotiveExpr
    b: MotiveExpr


class Product(MotiveExpr):
    a: MotiveExpr
    b: MotiveExpr


class Cone(MotiveExpr):
    a: MotiveExpr


# genus-1 curve: the one non-cellular class the worked examples need
ELLIPTIC = SmoothProjectiveLeaf("elliptic", parse_poly2("1-u-v+uv"), countable=False)


@budgeted
def eval_E(e: MotiveExpr) -> Poly2:
    """Hodge polynomial of the class, computed homomorphically."""
    return _eval_E(e)


def _eval_E(e: MotiveExpr) -> Poly2:
    match e:
        case Point():
            return Poly2({(0, 0): 1})
        case AffineSpace(n):
            return Poly2({(n, n): 1})
        case Torus(n):
            return Poly2({(1, 1): 1, (0, 0): -1}) ** n
        case ProjSpace(n):
            charge(2 * (n + 1))  # a key pair and an entry per term
            return Poly2()._like({(i, i): 1 for i in range(n + 1)})
        case Grassmannian(k, n):
            return lpoly_to_poly2(gaussian_binomial_poly(n, k))
        case Cellular(cells):
            charge(2 * len(cells))
            return Poly2()._like({(c, c): k for c, k in Counter(cells).items()})
        case ToricFan(fan):
            return toric.toric_E_poly(fan)
        case SmoothProjectiveLeaf(_, e_poly, _):
            return e_poly
        case DisjointUnion(a, b):
            return _eval_E(a) + _eval_E(b)
        case Difference(a, b):
            return _eval_E(a) - _eval_E(b)
        case Product(a, b):
            return _eval_E(a) * _eval_E(b)
        case Cone(a):
            # vertex point plus a line bundle over the base
            return Poly2({(0, 0): 1}) + Poly2({(1, 1): 1}) * _eval_E(a)
    raise UnsupportedError(f"unknown expression node {type(e).__name__}")


@budgeted
def eval_count_poly(e: MotiveExpr) -> LPoly:
    """Counting polynomial: the class written in L, the affine-line symbol.

    Computed directly in Z[L] rather than through eval_E, so the identity
    between this route and the Hodge route is a meaningful test.  Raises
    NotCountableError on leaves whose Hodge data is not a polynomial in uv.
    """
    return _eval_count_poly(e)


def _eval_count_poly(e: MotiveExpr) -> LPoly:
    match e:
        case Point():
            return LPoly({0: 1})
        case AffineSpace(n):
            return LPoly({n: 1})
        case Torus(n):
            return LPoly({1: 1, 0: -1}) ** n
        case ProjSpace(n):
            charge(n + 1)
            return LPoly()._like(dict.fromkeys(range(n + 1), 1))
        case Grassmannian(k, n):
            return gaussian_binomial_poly(n, k)
        case Cellular(cells):
            charge(len(cells))
            return LPoly()._like(dict(Counter(cells)))
        case ToricFan(fan):
            torus = LPoly({1: 1, 0: -1})
            total = LPoly()
            for k, d_k in enumerate(fan.census):
                total = total + LPoly({0: d_k}) * torus ** (fan.dim - k)
            return total
        case SmoothProjectiveLeaf(name, e_poly, countable):
            converted = lpoly_from_diagonal(e_poly) if countable else None
            if converted is None:
                raise NotCountableError(name)
            return converted
        case DisjointUnion(a, b):
            return _eval_count_poly(a) + _eval_count_poly(b)
        case Difference(a, b):
            return _eval_count_poly(a) - _eval_count_poly(b)
        case Product(a, b):
            return _eval_count_poly(a) * _eval_count_poly(b)
        case Cone(a):
            return LPoly({0: 1}) + LPoly({1: 1}) * _eval_count_poly(a)
    raise UnsupportedError(f"unknown expression node {type(e).__name__}")


# ---------------------------------------------------------------------------
# measures

# tag -> evaluator(e, measure).  Each evaluator looks its route up by name
# when called, so a route replaced on this module later (a test double, a
# tracer) is the one that runs.
_MEASURES = {
    "e-poly": lambda e, measure: eval_E(e),
    "euler": lambda e, measure: specialize(eval_E(e), 1, 1),
    "h-tilde": lambda e, measure: quotient_uv_minus1(eval_E(e)),
    "h-bar": lambda e, measure: quotient_uv(eval_E(e)),
    "count-poly": lambda e, measure: eval_count_poly(e),
    "count": lambda e, measure: eval_count_poly(e).evaluate(check_field(measure.q, measure.m)),
}


class Measure(Record):
    """Which additive invariant to evaluate.

    Tags match the CLI vocabulary: e-poly, euler, h-tilde (image mod uv-1),
    h-bar (image mod uv), count-poly, and count (point count over the field
    with q^m elements; q must be a prime power, and q^m is charged and built
    once, when the count is evaluated).
    """

    tag: str
    q: int | None = None
    m: int = 1

    def __post_init__(self):
        if not isinstance(self.tag, str):
            kind = type(self.tag).__name__
            raise UnsupportedError(f"a measure tag is a string, got {kind}")
        if self.tag not in _MEASURES:
            raise UnsupportedError(f"unknown measure {_shown(self.tag)}")
        if self.tag == "count":
            if self.q is None:
                raise DomainError("count measure needs a field size q")
            _check_field(self.q, self.m)
        elif self.q is not None or self.m != 1:
            raise DomainError(f"measure {self.tag!r} takes no field size or degree")


E_POLY = Measure("e-poly")
EULER = Measure("euler")
H_TILDE = Measure("h-tilde")
H_BAR = Measure("h-bar")
COUNT_POLY = Measure("count-poly")


def parse_q_m(text: str, what: str) -> tuple[int, int]:
    """Parse the q[,m] spelling of the field with q^m elements (m defaults
    to 1), each in ASCII digits; `what` names the input in the error
    message.  check_field checks the field they name."""
    parts = text.split(",")
    message = f"{what} expects q[,m], got {_shown(text)}"
    if len(parts) > 2:
        raise ParseError(message)
    return tuple(_ascii_ints([*parts, "1"][:2], what, message))


@budgeted
def measure_from_string(text: str) -> Measure:
    """Parse the CLI spelling: one of the plain tags or count:q[,m]."""
    if text.startswith("count:"):
        return Measure("count", *parse_q_m(text[len("count:"):], "count measure"))
    return Measure(text)


@budgeted
def eval_measure(e: MotiveExpr, measure: Measure) -> int | Poly2 | Laurent1 | LPoly:
    """The measure of the class of e.  Past the work budget, BudgetError is
    raised before the work that would overrun it."""
    return _MEASURES[measure.tag](e, measure)


# ---------------------------------------------------------------------------
# virtual Hodge-number constraints


class HodgeConstraintReport(Record):
    """Three structural checks on a Hodge polynomial claimed to come from a
    class whose torus-fixed locus has dimension <= fixed_dim_bound:

    (a) antidiagonal sums, the terms of the h-tilde image (mod uv - 1),
        vanish beyond the bound,
    (b) their total matches the stated Euler number,
    (c) the axis terms of the h-bar image (mod uv), all but the constant,
        vanish.
    """

    fixed_dim_bound: int
    bad_antidiagonals: tuple[int, ...]
    euler_expected: int
    euler_actual: int
    bad_axis_monomials: tuple[tuple[int, int], ...]

    _derived = ("antidiagonals_ok", "euler_ok", "axes_ok", "ok")

    @property
    def antidiagonals_ok(self) -> bool:
        return not self.bad_antidiagonals

    @property
    def euler_ok(self) -> bool:
        return self.euler_actual == self.euler_expected

    @property
    def axes_ok(self) -> bool:
        return not self.bad_axis_monomials

    @property
    def ok(self) -> bool:
        return self.antidiagonals_ok and self.euler_ok and self.axes_ok


@budgeted
def hodge_constraints_check(
    h: Poly2, chi: int, fixed_dim_bound: int
) -> HodgeConstraintReport:
    _check_type(h, Poly2, "h")
    _check_ints({"chi": chi, "fixed_dim_bound": fixed_dim_bound})
    if fixed_dim_bound < 0:
        raise DomainError("fixed-point dimension bound must be >= 0")
    sums = quotient_uv_minus1(h).terms
    return HodgeConstraintReport(
        fixed_dim_bound=fixed_dim_bound,
        bad_antidiagonals=tuple(sorted(i for i in sums if abs(i) > fixed_dim_bound)),
        euler_expected=chi,
        euler_actual=sum(sums.values()),
        bad_axis_monomials=tuple(sorted(e for e in quotient_uv(h).terms if e != (0, 0))),
    )


# ---------------------------------------------------------------------------
# JSON expression trees
#
# {"op": "difference", "args": [...]} for nodes;
# {"leaf": "proj_space", "n": 2} and friends for leaves.

_NODE_OPS = {
    "disjoint_union": DisjointUnion,
    "difference": Difference,
    "product": Product,
    "cone": Cone,
}


# leaf kind -> record class and one reader per field, in field order; each
# leaf is written back as {"leaf": kind, **leaf.to_json()}
_LEAVES = {
    "point": (Point, ()),
    "affine_space": (AffineSpace, (_json_int,)),
    "torus": (Torus, (_json_int,)),
    "proj_space": (ProjSpace, (_json_int,)),
    "grassmannian": (Grassmannian, (_json_int, _json_int)),
    "cellular": (Cellular, (_json_ints,)),
    "toric_fan": (ToricFan, (lambda data, field: toric.fan_from_json(data),)),
}
_OP_NAMES = {cls: op for op, cls in _NODE_OPS.items()}
_LEAF_KINDS = {cls: kind for kind, (cls, _) in _LEAVES.items()}


@budgeted
def expr_from_json(data: Mapping) -> MotiveExpr:
    """Read an expression tree from decoded JSON data."""
    return _expr_from_data(data)


def _expr_from_data(data) -> MotiveExpr:
    if not isinstance(data, Mapping):
        raise ParseError(f"expression node must be an object, got {_shown(data)}")
    if "op" in data:
        op = data["op"]
        ctor = _NODE_OPS.get(op) if isinstance(op, str) else None
        if ctor is None:
            raise UnsupportedError(f"unknown expression op {_shown(op)}")
        args = data.get("args")
        want = len(ctor.__match_args__)
        if not isinstance(args, list) or len(args) != want:
            raise ParseError(f"op {op!r} needs exactly {want} args")
        return ctor(*[_expr_from_data(a) for a in args])
    if "leaf" not in data:
        raise ParseError(f"expression node needs 'op' or 'leaf': {_shown(data)}")
    kind = data["leaf"]
    try:
        if isinstance(kind, str) and kind in _LEAVES:
            cls, readers = _LEAVES[kind]
            fields = cls.__match_args__
            return cls(*[read(data[f], f) for f, read in zip(fields, readers)])
        if kind == "elliptic":
            return ELLIPTIC
        if kind == "custom":
            countable = data["countable"]
            if not isinstance(countable, bool):
                raise ParseError(
                    f"field 'countable' must be true or false, got {_shown(countable)}"
                )
            name = data.get("name", "custom")
            if not isinstance(name, str):
                raise ParseError(f"field 'name' must be a string, got {_shown(name)}")
            entries = data["e_poly"]
            if not isinstance(entries, list):
                raise ParseError(f"field 'e_poly' must be an array, got {_shown(entries)}")
            terms: dict[tuple[int, int], int] = {}
            for entry in entries:
                if not isinstance(entry, list) or len(entry) != 3:
                    raise ParseError(
                        f"field 'e_poly' entries must be [p, q, c] arrays, got {_shown(entry)}"
                    )
                p, q, c = _json_ints(entry, "e_poly")
                terms[p, q] = terms.get((p, q), 0) + c
            return SmoothProjectiveLeaf(name, Poly2(terms), countable)
    except KeyError as exc:
        raise ParseError(f"leaf {_shown(kind)} is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed leaf {_shown(kind)}: {exc}") from None
    raise UnsupportedError(f"unknown leaf kind {_shown(kind)}")


@budgeted
def expr_to_json(e: MotiveExpr) -> dict:
    """The expression tree as JSON data, which expr_from_json reads back."""
    return _expr_to_data(e)


def _expr_to_data(e: MotiveExpr) -> dict:
    cls = type(e)
    if cls in _OP_NAMES:
        args = [_expr_to_data(getattr(e, f)) for f in cls.__match_args__]
        return {"op": _OP_NAMES[cls], "args": args}
    if cls in _LEAF_KINDS:
        return {"leaf": _LEAF_KINDS[cls], **e.to_json()}
    match e:
        case SmoothProjectiveLeaf(name, e_poly, countable):
            if e == ELLIPTIC:
                return {"leaf": "elliptic"}
            return {
                "leaf": "custom",
                "name": name,
                "e_poly": sorted([p, q, c] for (p, q), c in e_poly.terms.items()),
                "countable": countable,
            }
    raise UnsupportedError(f"unknown expression node {type(e).__name__}")
