"""Expression evaluation under the measures, constraints, JSON trees."""

import json
import math
import sys
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

from cyclemotive.errors import (
    WORK_BUDGET,
    BudgetError,
    DomainError,
    NotCountableError,
    ParseError,
    UnsupportedError,
)
from cyclemotive.errors import charge
from cyclemotive import errors, motive, ring
from cyclemotive.ffcount import grassmannian_count_brute, toric_count
from cyclemotive.motive import (
    COUNT_POLY,
    ELLIPTIC,
    EULER,
    E_POLY,
    H_BAR,
    H_TILDE,
    AffineSpace,
    Cellular,
    Cone,
    Difference,
    DisjointUnion,
    Grassmannian,
    HodgeConstraintReport,
    Measure,
    Point,
    Product,
    ProjSpace,
    SmoothProjectiveLeaf,
    ToricFan,
    Torus,
    eval_E,
    eval_count_poly,
    eval_measure,
    expr_from_json,
    expr_to_json,
    hodge_constraints_check,
    measure_from_string,
)
from cyclemotive.ring import LPoly, Laurent1, Poly2, parse_poly2, specialize

from conftest import DATA, OVER_BUDGET, charged, load_fan

GLUED_CONE = parse_poly2("1+u+v+uv-u^2*v-u*v^2+2u^2*v^2")

# the glued class from the worked example: cone over a genus-1 curve,
# disjoint union with a plane, minus the curve itself
GLUED_CONE_EXPR = Difference(
    DisjointUnion(Cone(ELLIPTIC), ProjSpace(2)), ELLIPTIC
)


def test_eval_E_leaf_values():
    assert eval_E(Torus(1)) == parse_poly2("uv-1")
    assert eval_E(ProjSpace(2)) == parse_poly2("1+uv+u^2*v^2")
    assert eval_E(Point()) == parse_poly2("1")
    assert eval_E(AffineSpace(2)) == parse_poly2("u^2*v^2")
    assert eval_E(Cellular((0, 1, 1, 2))) == parse_poly2("1+2uv+u^2*v^2")


def test_eval_E_glued_cone_expression():
    value = eval_E(GLUED_CONE_EXPR)
    assert value == GLUED_CONE
    assert specialize(value, 1, 1) == 4
    # first virtual Betti number: both axis coefficients survive
    assert value.coefficient(1, 0) + value.coefficient(0, 1) == 2


def test_eval_E_grassmannian():
    assert eval_E(Grassmannian(1, 2)) == parse_poly2("1+uv")
    assert eval_E(Grassmannian(2, 4)) == parse_poly2(
        "1+uv+2u^2*v^2+u^3*v^3+u^4*v^4"
    )
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert specialize(eval_E(Grassmannian(k, n)), 1, 1) == math.comb(n, k)


def test_cone_of_linear_is_linear():
    assert eval_E(Cone(Point())) == eval_E(ProjSpace(1))
    for k in range(9):
        assert eval_E(Cone(ProjSpace(k))) == eval_E(ProjSpace(k + 1))


def test_eval_count_poly_examples():
    assert eval_count_poly(ProjSpace(2)) == LPoly({0: 1, 1: 1, 2: 1})
    assert eval_count_poly(ProjSpace(2)).evaluate(2) == 7
    assert eval_count_poly(ProjSpace(2)).evaluate(2) == grassmannian_count_brute(1, 3, 2)
    assert eval_count_poly(Torus(1)) == LPoly({0: -1, 1: 1})
    with pytest.raises(NotCountableError):
        eval_count_poly(ELLIPTIC)


def test_not_countable_propagates_with_name():
    expr = Product(ProjSpace(1), DisjointUnion(Point(), ELLIPTIC))
    with pytest.raises(NotCountableError) as err:
        eval_count_poly(expr)
    assert "elliptic" in str(err.value)


def test_custom_leaf_countability():
    quadric = SmoothProjectiveLeaf("quadric", parse_poly2("1+2uv+u^2*v^2"), True)
    assert eval_count_poly(quadric) == LPoly({0: 1, 1: 2, 2: 1})
    fake = SmoothProjectiveLeaf("mixed", parse_poly2("1+u"), True)
    with pytest.raises(NotCountableError) as err:
        eval_count_poly(fake)
    assert "mixed" in str(err.value)


def test_eval_measure_quotients():
    assert eval_measure(Torus(1), H_TILDE) == Laurent1()
    assert eval_measure(AffineSpace(1), H_BAR) == Poly2()
    assert eval_measure(Grassmannian(2, 4), EULER) == 6
    assert eval_measure(ProjSpace(2), E_POLY) == parse_poly2("1+uv+u^2*v^2")
    assert eval_measure(ProjSpace(2), COUNT_POLY) == LPoly({0: 1, 1: 1, 2: 1})
    assert eval_measure(ProjSpace(2), Measure("count", 2)) == 7
    assert eval_measure(ProjSpace(1), Measure("count", 2, 2)) == 5


def test_cellular_htilde_counts_cells():
    # each cell maps to the constant 1 in the quotient
    for cells in [(0,), (0, 1), (0, 1, 1, 2), (2, 2, 2)]:
        img = eval_measure(Cellular(cells), H_TILDE)
        assert img == Laurent1({0: len(cells)})


def test_toric_fan_leaf():
    fan = load_fan("p2")
    assert eval_E(ToricFan(fan)) == parse_poly2("1+uv+u^2*v^2")
    for name in ("p1", "p2", "p3", "p1xp1", "hirzebruch1", "a2"):
        f = load_fan(name)
        poly = eval_count_poly(ToricFan(f))
        for q in (2, 3):
            assert poly.evaluate(q) == toric_count(f, q, 1)


def test_leaf_validation():
    with pytest.raises(DomainError):
        AffineSpace(-1)
    with pytest.raises(DomainError):
        Torus(0)
    with pytest.raises(DomainError, match="^projective dimension must be >= 0, got -1$"):
        ProjSpace(-1)
    with pytest.raises(DomainError):
        Grassmannian(3, 2)
    with pytest.raises(DomainError):
        Cellular(())
    with pytest.raises(DomainError):
        Cellular((2, 1))
    with pytest.raises(DomainError):
        Cellular((-1,))


def test_measure_tag_must_be_a_string():
    for tag in (["x"], 1):
        with pytest.raises(UnsupportedError, match=type(tag).__name__):
            Measure(tag)


def test_measure_validation():
    with pytest.raises(UnsupportedError):
        Measure("bogus")
    with pytest.raises(DomainError):
        Measure("count", 6)  # 6 = 2*3 is not a prime power
    with pytest.raises(DomainError):
        Measure("count", 2, 0)
    with pytest.raises(DomainError):
        Measure("euler", q=2)
    with pytest.raises(DomainError, match="^measure 'euler' takes no field size or degree$"):
        Measure("euler", m=0)
    with pytest.raises(DomainError, match="^field extension degree must be an int, got float$"):
        Measure("count", q=4, m=1.5)
    with pytest.raises(DomainError, match="^field size must be an int, got float$"):
        Measure("count", q=4.0)
    assert Measure("count", 4).q == 4  # prime powers allowed in formulas
    assert measure_from_string("count:2,3") == Measure("count", 2, 3)
    assert measure_from_string("count:5") == Measure("count", 5)
    assert measure_from_string("h-tilde") == H_TILDE
    with pytest.raises(ParseError):
        measure_from_string("count:x")
    with pytest.raises(ParseError):
        measure_from_string("count:2,3,4")


def test_hodge_constraints_examples():
    good = hodge_constraints_check(parse_poly2("1+uv+u^2*v^2"), 3, 0)
    assert good.ok and good.antidiagonals_ok and good.euler_ok and good.axes_ok

    rep = hodge_constraints_check(GLUED_CONE, 4, 0)
    assert rep.antidiagonals_ok  # sums vanish off the diagonal
    assert rep.euler_ok
    assert not rep.axes_ok
    assert rep.bad_axis_monomials == ((0, 1), (1, 0))
    assert not rep.ok

    torus = hodge_constraints_check(parse_poly2("uv-1"), 0, 0)
    assert torus.ok


def test_hodge_constraints_bound():
    curve = parse_poly2("1-u-v+uv")  # antidiagonal sums at -1, 0, +1
    assert not hodge_constraints_check(curve, 0, 0).antidiagonals_ok
    assert hodge_constraints_check(curve, 0, 1).antidiagonals_ok
    report = hodge_constraints_check(curve, 0, 0)
    assert report.bad_antidiagonals == (-1, 1)
    assert report.euler_ok
    with pytest.raises(DomainError):
        hodge_constraints_check(curve, 0, -1)


def reference_constraints(h, chi, bound):
    """The report from its definitions: the sums along each antidiagonal
    p - q with zero sums dropped, their total as the Euler number, and the
    monomials on exactly one axis."""
    sums = {}
    for (p, q), c in h.terms.items():
        sums[p - q] = sums.get(p - q, 0) + c
    sums = {i: c for i, c in sums.items() if c}
    bad_anti = tuple(sorted(i for i in sums if abs(i) > bound))
    actual = sum(sums.values())
    bad_axes = tuple(sorted((p, q) for p, q in h.terms if (p == 0) != (q == 0)))
    return HodgeConstraintReport(
        fixed_dim_bound=bound,
        bad_antidiagonals=bad_anti,
        euler_expected=chi,
        euler_actual=actual,
        bad_axis_monomials=bad_axes,
    )


# few exponents, so that axis terms and cancelling antidiagonals are common
_hodge_polys = st.builds(Poly2, st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), max_size=8))


@given(_hodge_polys, st.one_of(st.none(), st.integers(-10, 10)), st.integers(0, 4))
def test_hodge_constraints_match_their_definitions(h, chi, bound):
    if chi is None:  # the stated Euler number is the true one
        chi = specialize(h, 1, 1)
    assert hodge_constraints_check(h, chi, bound) == reference_constraints(h, chi, bound)


def test_expr_json_fixture_files():
    torus = expr_from_json(json.loads((DATA / "torus1.json").read_text()))
    assert eval_measure(torus, EULER) == 0
    loaded = expr_from_json(json.loads((DATA / "cone-elliptic-union-p2.json").read_text()))
    assert loaded == GLUED_CONE_EXPR
    assert eval_E(loaded) == GLUED_CONE
    plane = expr_from_json(json.loads((DATA / "p2.json").read_text()))
    assert eval_measure(plane, Measure("count", 2)) == 7


def test_expr_json_errors():
    # the reader takes decoded data: text, even valid JSON text, is refused
    with pytest.raises(ParseError, match="expression node must be an object"):
        expr_from_json('{"leaf": "point"}')
    with pytest.raises(UnsupportedError):
        expr_from_json({"op": "smash", "args": []})
    with pytest.raises(UnsupportedError):
        expr_from_json({"leaf": "k3"})
    with pytest.raises(ParseError):
        expr_from_json({"op": "cone", "args": []})
    with pytest.raises(ParseError):
        expr_from_json({"leaf": "proj_space"})
    with pytest.raises(ParseError):
        expr_from_json({"args": [1]})


@pytest.mark.parametrize("route", [eval_E, eval_count_poly, expr_to_json])
def test_routes_refuse_a_non_expression(route):
    with pytest.raises(UnsupportedError, match="^unknown expression node object$"):
        route(object())


@pytest.mark.parametrize("op", [{}, [], ["product"]])
def test_unhashable_op_is_unsupported(op):
    with pytest.raises(UnsupportedError):
        expr_from_json({"op": op, "args": []})


def test_custom_leaf_countable_must_be_json_boolean():
    for flag in ("false", "true", 0, 1, None):
        leaf = {"leaf": "custom", "e_poly": [[0, 0, 1]], "countable": flag}
        with pytest.raises(ParseError):
            expr_from_json(leaf)


@pytest.mark.parametrize("name", [5, {"a": [1]}, ["x"], None, True])
def test_custom_leaf_name_must_be_json_string(name):
    leaf = {"leaf": "custom", "e_poly": [[0, 0, 1]], "countable": True}
    assert expr_from_json(leaf).name == "custom"
    with pytest.raises(ParseError, match="'name' must be a string"):
        expr_from_json({**leaf, "name": name})


@pytest.mark.parametrize("leaf", [
    {"leaf": "proj_space", "n": 2.7},
    {"leaf": "proj_space", "n": "3"},
    {"leaf": "affine_space", "n": True},
    {"leaf": "grassmannian", "k": 1.0, "n": 3},
    {"leaf": "cellular", "cells": [1.9, True]},
    {"leaf": "custom", "e_poly": [[0, 0, 1.5]], "countable": True},
    {"leaf": "custom", "e_poly": [[True, True, 1]], "countable": True},
    {"leaf": "custom", "e_poly": [[0, 0]], "countable": True},
    {"leaf": "custom", "e_poly": [[0, 0, 1, 1]], "countable": True},
    {"leaf": "custom", "e_poly": [3], "countable": True},
    {"leaf": "custom", "e_poly": 3, "countable": True},
    {"leaf": "custom", "e_poly": {"0": 1}, "countable": True},
])
def test_leaf_fields_must_be_json_integers(leaf):
    # a malformed e_poly is reported by its field name, not by Python's
    # unpacking messages
    match = "'e_poly'" if "e_poly" in leaf else None
    with pytest.raises(ParseError, match=match):
        expr_from_json(leaf)


@pytest.mark.parametrize("fan", [
    json.dumps({"dim": 1, "rays": [[1], [-1]], "cones": [[0], [1]]}),
    "not json",
    3,
    [[1], [-1]],
])
def test_toric_fan_leaf_needs_json_object(fan):
    # a string holding a valid fan is refused, not decoded
    with pytest.raises(ParseError, match="fan JSON must be an object"):
        expr_from_json({"leaf": "toric_fan", "fan": fan})


def test_custom_leaf_repeated_monomials_are_summed():
    leaf = {
        "leaf": "custom",
        "name": "quadric",
        "e_poly": [[0, 0, 1], [1, 1, 1], [2, 2, 1], [1, 1, 1]],
        "countable": True,
    }
    assert expr_from_json(leaf) == SmoothProjectiveLeaf(
        "quadric", parse_poly2("1+2uv+u^2*v^2"), True
    )


leaves = st.one_of(
    st.just(Point()),
    st.builds(AffineSpace, st.integers(0, 3)),
    st.builds(Torus, st.integers(1, 3)),
    st.builds(ProjSpace, st.integers(0, 3)),
    st.integers(1, 4).flatmap(
        lambda n: st.builds(Grassmannian, st.integers(1, n), st.just(n))
    ),
    st.builds(
        lambda cs: Cellular(tuple(sorted(cs))),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    ),
)


def _nodes(child):
    return st.one_of(
        st.builds(DisjointUnion, child, child),
        st.builds(Difference, child, child),
        st.builds(Product, child, child),
        st.builds(Cone, child),
    )


countable_exprs = st.recursive(leaves, _nodes, max_leaves=8)


@given(countable_exprs, countable_exprs)
def test_euler_is_additive_and_multiplicative(a, b):
    ea, eb = eval_measure(a, EULER), eval_measure(b, EULER)
    assert eval_measure(DisjointUnion(a, b), EULER) == ea + eb
    assert eval_measure(Product(a, b), EULER) == ea * eb
    assert eval_measure(Difference(a, b), EULER) == ea - eb


@given(countable_exprs)
def test_count_poly_at_one_is_euler(e):
    assert eval_count_poly(e).evaluate(1) == eval_measure(e, EULER)


@given(countable_exprs)
def test_count_poly_agrees_with_E_route(e):
    """The L-polynomial route and the Hodge route compute the same class."""
    from cyclemotive.ring import lpoly_to_poly2

    assert lpoly_to_poly2(eval_count_poly(e)) == eval_E(e)


@given(countable_exprs)
def test_expr_json_round_trip(e):
    assert expr_from_json(json.loads(json.dumps(expr_to_json(e)))) == e


# ---------------------------------------------------------------------------
# the work meter, which eval_measure opens a budget on

_FAN_LEAVES = [ToricFan(load_fan(name)) for name in ("p1", "p2", "p1xp1")]
hodge_exprs = st.recursive(
    st.one_of(leaves, st.sampled_from([ELLIPTIC, *_FAN_LEAVES]),
              st.builds(lambda h: SmoothProjectiveLeaf("x", h, False), _hodge_polys)),
    _nodes, max_leaves=8)


@contextmanager
def _counted_term_operations():
    """Count, while the block runs, the term operations the meter charges
    for: term pairs multiplied, terms read by an addition or a negation,
    and terms given to a constructor; and apart from them, the terms of
    the maps the library wraps unchecked."""
    count = [0, 0]
    core = ring._TermMap
    init, add, neg, mul, like = (core.__init__, core.__add__, core.__neg__, core.__mul__,
                                 core._like)

    def counted_init(self, terms=None):
        count[0] += len(terms or {})
        init(self, terms)

    def counted_add(a, b):
        count[0] += len(a.terms) + len(b.terms)
        return add(a, b)

    def counted_neg(a):
        count[0] += len(a.terms)
        return neg(a)

    def counted_mul(a, b):
        count[0] += len(a.terms) * len(b.terms)
        return mul(a, b)

    def counted_like(self, terms):
        count[1] += len(terms)
        return like(self, terms)

    # Poly2 and LPoly keep their own __mul__ entry
    patches = [(core, "__init__", counted_init), (core, "__add__", counted_add),
               (core, "__neg__", counted_neg), (Poly2, "__mul__", counted_mul),
               (LPoly, "__mul__", counted_mul), (core, "_like", counted_like)]
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
    for cls, name, patch in patches:
        setattr(cls, name, patch)
    try:
        yield count
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


@given(hodge_exprs)
def test_work_bounds_hold_for_the_hodge_polynomial(e):
    """The meter is charged before every term operation it is charged for,
    so the units charged are at least the term operations counted."""
    with _counted_term_operations() as count:
        _, units = charged(eval_E, e)
    assert count[0] <= units


@given(countable_exprs)
def test_work_bounds_hold_for_the_counting_polynomial(e):
    with _counted_term_operations() as count:
        _, units = charged(eval_count_poly, e)
    assert count[0] <= units


@pytest.mark.parametrize("e", [
    *(Torus(n) for n in (1, 2, 3, 7, 8, 64, 100, 127, 128, 255, 256)),
    *(Grassmannian(k, n) for n in range(1, 8) for k in range(1, n + 1)),
    Grassmannian(1, 40), Grassmannian(39, 40), Grassmannian(20, 40),
    ProjSpace(30), Cellular((0, 0, 2, 5)), *_FAN_LEAVES, ToricFan(load_fan("p3")),
], ids=str)
@pytest.mark.parametrize("evaluate", [eval_E, eval_count_poly])
def test_a_leaf_is_charged_at_most_three_times_its_work(e, evaluate):
    """A leaf's charge bounds the term operations either route counts, and
    is not so loose that the budget turns away what would evaluate: it is
    at most three times those operations and the terms built."""
    with _counted_term_operations() as count:
        _, units = charged(evaluate, e)
    assert count[0] <= units <= 3 * sum(count)


def test_benchmark_sized_trees_stay_far_inside_the_work_limit():
    """A complete product tree four levels deep over the largest leaf the
    benchmark draws, a Grassmannian of dimension 16, under a cone."""
    def tree(depth):
        return Grassmannian(4, 8) if depth == 0 else Product(tree(depth - 1), tree(depth - 1))

    for measure in (E_POLY, EULER, COUNT_POLY):
        assert charged(eval_measure, Cone(tree(4)), measure)[1] < WORK_BUDGET / 25


@pytest.mark.parametrize("e", [
    Torus(20000),
    ProjSpace(20000000),
    Product(ProjSpace(5000), ProjSpace(5000)),
    # a Pascal table adding about k^2 / 2 terms, and 10^8 one-term rows
    Grassmannian(100000, 100001),
    Grassmannian(10**8, 10**8),
], ids=["torus", "proj-space", "product", "grassmannian-tall", "grassmannian-long"])
@pytest.mark.parametrize("measure", [E_POLY, EULER, COUNT_POLY])
def test_eval_measure_refuses_work_past_the_limit(e, measure):
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=f"^{OVER_BUDGET}$"):
        eval_measure(e, measure)
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("e, q, m", [
    # P^2000 at q^m = 2^14000: the value has about 8.4 * 10^6 digits
    (ProjSpace(2000), 2, 14000),
    # P^100000 at 2: Horner's rule takes about 3 * 10^8 word products
    (ProjSpace(100000), 2, 1),
], ids=["digits", "horner"])
def test_count_past_its_bound_is_refused_before_horner(monkeypatch, e, q, m):
    """Refused before the loop of Horner's rule runs, by the charge that
    opens LPoly.evaluate."""
    callers = []

    def spy(units):
        callers.append(sys._getframe(1).f_code.co_name)
        charge(units)

    monkeypatch.setattr(ring, "charge", spy)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=f"^{OVER_BUDGET}$"):
        eval_measure(e, Measure("count", q, m))
    assert time.perf_counter() - start < 2
    assert callers[-1] == "evaluate"


def test_counts_inside_the_bound_are_answered():
    # 2^14000 + 1 has 4215 digits; (L - 1)^1200 at 2 cancels to 1
    assert eval_measure(ProjSpace(1), Measure("count", 2, 14000)) == 2**14000 + 1
    assert eval_measure(Torus(1200), Measure("count", 2)) == 1
    assert eval_measure(ProjSpace(20000), Measure("count", 2)) == 2**20001 - 1
    # 4817 and 6021 digits: the CLI's printer refuses both
    x = 2**4000
    assert eval_measure(ProjSpace(4), Measure("count", 2, 4000)) == (x**5 - 1) // (x - 1)
    assert eval_measure(ProjSpace(5), Measure("count", 2, 4000)) == (x**6 - 1) // (x - 1)


def test_each_factor_of_a_refused_product_evaluates():
    value, units = charged(eval_measure, ProjSpace(5000), EULER)
    assert value == 5001
    assert units <= WORK_BUDGET / 10


def test_a_charge_outside_every_budget_counts_nothing():
    charge(10**30)
    assert errors._left.get() is None


def test_a_budget_is_opened_once_per_call_and_shared_by_nested_calls():
    """eval_measure opens a budget only when none is open, so inside one
    the charges of every call add up; each outermost call starts afresh."""
    e = ProjSpace(WORK_BUDGET * 6 // 10)  # a unit a term
    assert len(eval_measure(e, COUNT_POLY).terms) == WORK_BUDGET * 6 // 10 + 1
    with pytest.raises(BudgetError, match=f"^{OVER_BUDGET}$"):
        errors.metered(lambda: [eval_measure(e, COUNT_POLY) for _ in range(2)])
    assert errors._left.get() is None


def test_a_refused_charge_takes_nothing():
    left = [10]
    token = errors._left.set(left)
    try:
        with pytest.raises(BudgetError):
            charge(11)
        charge(10)
    finally:
        errors._left.reset(token)
    assert left == [0]


def _digits(bits):
    return -(-bits // sys.int_info.bits_per_digit)


_BITS = st.integers(0, 10**7)


@given(_BITS, _BITS, _BITS)
def test_a_product_price_is_symmetric_and_non_decreasing(a, b, more):
    """Priced as CPython multiplies: digit by digit while the shorter
    operand has at most 70 digits, 250 digit products a unit."""
    price = errors.product_units
    assert price(a, b) == price(b, a)
    assert price(a, b) <= price(a + more, b) and price(a, b) <= price(a, b + more)
    if min(_digits(a), _digits(b)) <= 70:
        assert price(a, b) == _digits(a) * _digits(b) // 250


@given(_BITS, _BITS, _BITS)
def test_a_division_price_is_non_decreasing_in_the_dividend(n, d, more):
    assert errors.division_units(n, d) <= errors.division_units(n + more, d)
    assert errors.division_units(n, d) == max(0, _digits(n) - _digits(d) + 1) * _digits(d) // 250


def test_expr_json_round_trip_special_leaves():
    fan = load_fan("p1xp1")
    for e in (
        GLUED_CONE_EXPR,
        ToricFan(fan),
        SmoothProjectiveLeaf("quadric", parse_poly2("1+2uv+u^2*v^2"), True),
        # a custom leaf that only shares the genus-1 curve's name
        SmoothProjectiveLeaf("elliptic", parse_poly2("1+uv"), True),
    ):
        assert expr_from_json(json.loads(json.dumps(expr_to_json(e)))) == e
