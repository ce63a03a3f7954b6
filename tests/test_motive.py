"""Expression evaluation under the measures, constraints, JSON trees."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from cyclemotive.errors import (
    DomainError,
    NotCountableError,
    ParseError,
    UnsupportedError,
)
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

from conftest import DATA, load_fan

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
countable_exprs = st.recursive(
    leaves,
    lambda child: st.one_of(
        st.builds(DisjointUnion, child, child),
        st.builds(Difference, child, child),
        st.builds(Product, child, child),
        st.builds(Cone, child),
    ),
    max_leaves=8,
)


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
