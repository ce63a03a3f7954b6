"""Fan census, toric invariants, and the orbit-closure product series."""

import json
import re
import time
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from cyclemotive.errors import BudgetError, DomainError, FanError, ParseError
from cyclemotive.ring import MultiSeries, expand_inverse_product, parse_poly2, specialize
from cyclemotive.toric import (
    Fan,
    OrbitClosure,
    affine_fan,
    euler_series,
    fan_from_json,
    fan_validate,
    invariant_subvarieties,
    product_fan,
    projective_fan,
    toric_E_poly,
    toric_lambda,
)
from cyclemotive.toric import _int_rank

from conftest import OVER_BUDGET, charged, load_fan

P1 = load_fan("p1")
P2 = load_fan("p2")
P3 = load_fan("p3")
P1XP1 = load_fan("p1xp1")
HIRZEBRUCH = load_fan("hirzebruch1")
A2 = load_fan("a2")
ALL_FANS = [P1, P2, P3, P1XP1, HIRZEBRUCH, A2]


def test_census_values():
    assert fan_validate(P2) == (1, 3, 3)
    assert fan_validate(P1XP1) == (1, 4, 4)
    assert fan_validate(A2) == (1, 2, 1)
    assert fan_validate(P3) == (1, 4, 6, 4)
    assert fan_validate(HIRZEBRUCH) == (1, 4, 4)


def test_lambda_values():
    assert toric_lambda(P2) == 3
    assert toric_lambda(HIRZEBRUCH) == 4
    assert toric_lambda(A2) == 1


def test_E_poly_values():
    assert toric_E_poly(P2) == parse_poly2("1+uv+u^2*v^2")
    assert toric_E_poly(A2) == parse_poly2("u^2*v^2")
    assert toric_E_poly(P1XP1) == parse_poly2("1+2uv+u^2*v^2")
    assert toric_E_poly(HIRZEBRUCH) == parse_poly2("1+2uv+u^2*v^2")


def test_E_at_one_is_lambda():
    # only the full-rank cones survive evaluation at u=v=1
    for fan in ALL_FANS:
        assert specialize(toric_E_poly(fan), 1, 1) == toric_lambda(fan)


def test_constructors_match_fixtures():
    assert set(projective_fan(2).cones) == set(P2.cones)
    assert projective_fan(2).rays == P2.rays
    assert fan_validate(projective_fan(3)) == (1, 4, 6, 4)
    assert fan_validate(affine_fan(2)) == fan_validate(A2)
    assert fan_validate(projective_fan(5)) == (1, 6, 15, 20, 15, 6)


def test_product_fan_census_and_E():
    prod = product_fan(P1, P1)
    assert fan_validate(prod) == (1, 4, 4)
    assert toric_E_poly(prod) == toric_E_poly(P1) * toric_E_poly(P1)
    prod2 = product_fan(P1, P2)
    assert toric_E_poly(prod2) == toric_E_poly(P1) * toric_E_poly(P2)
    assert toric_lambda(prod2) == toric_lambda(P1) * toric_lambda(P2)


def test_validation_rejects_bad_fans():
    with pytest.raises(FanError):
        fan_validate(Fan(2, ((2, 0),), ((0,),)))  # not primitive
    with pytest.raises(FanError):
        fan_validate(Fan(2, ((0, 0),), ((0,),)))  # zero ray
    with pytest.raises(FanError):
        fan_validate(Fan(2, ((1, 0), (0, 1)), ((0,), (0,))))  # duplicate
    with pytest.raises(FanError):
        fan_validate(Fan(2, ((1, 0),), ((0, 1),)))  # index out of range
    with pytest.raises(FanError):
        fan_validate(Fan(2, ((1, 0), (0, 1)), ((1, 0),)))  # not increasing
    with pytest.raises(FanError):
        fan_validate(Fan(2, ((1, 0),), ((),)))  # empty cone listed
    with pytest.raises(FanError):
        fan_validate(Fan(2, ((1,),), ((0,),)))  # ray length mismatch
    with pytest.raises(FanError):
        Fan(-1, (), ()).census  # negative ambient dimension
    with pytest.raises(DomainError):
        projective_fan(-1)
    with pytest.raises(DomainError):
        affine_fan(0)


@pytest.mark.parametrize("fan, message", [
    (Fan(2, ((1.0, 0), (0, 1)), ((0,), (1,), (0, 1))), "ray (1.0, 0) has an entry that is not an int"),
    (Fan(2, ((True, 0), (0, 1)), ((0,), (1,))), "ray (True, 0) has an entry that is not an int"),
    (Fan("2", ((1, 0), (0, 1)), ((0,), (1,))), "ambient dimension '2' is not an int"),
    (Fan(True, ((1,),), ((0,),)), "ambient dimension True is not an int"),
    (Fan(2, ((1, 0), (0, 1)), ((0,), (1.0,))), "cone (1.0,) has a ray index that is not an int"),
    (Fan(2, ((1, 0), (0, 1)), ((0,), (True,))), "cone (True,) has a ray index that is not an int"),
    (Fan(2, ((1, 0), (0, 1)), ((0,), ("1",))), "cone ('1',) has a ray index that is not an int"),
    (Fan(2, ([1, 0], (0, 1)), ((0,), (1,))), "ray [1, 0] must be a tuple, got list"),
    (Fan(2, ((1, 0), (0, 1)), ([0], [1])), "cone [0] must be a tuple, got list"),
    (Fan(2, [(1, 0), (0, 1)], ((0,), (1,))), "rays must be a tuple, got list"),
    (Fan(2, ((1, 0), (0, 1)), [(0,), (1,)]), "cones must be a tuple, got list"),
], ids=["float-ray-entry", "bool-ray-entry", "str-dimension", "bool-dimension",
        "float-cone-index", "bool-cone-index", "str-cone-index", "list-ray", "list-cone",
        "list-rays", "list-cones"])
def test_library_fans_need_ints(fan, message):
    """A fan built in Python is held to the types fan_from_json enforces:
    a float or a bool is refused, not rounded, compared or taken as 1."""
    with pytest.raises(FanError, match=f"^{re.escape(message)}$"):
        fan.ranks
    with pytest.raises(FanError, match=f"^{re.escape(message)}$"):
        fan.census


def test_fan_json_round_trip():
    for fan in ALL_FANS:
        assert fan_from_json(json.loads(json.dumps(fan.to_json()))) == fan


def test_fan_json_rejects_malformed():
    # the reader takes decoded data: text, even valid JSON text, is refused
    with pytest.raises(ParseError, match="fan JSON must be an object"):
        fan_from_json(json.dumps(P1.to_json()))
    with pytest.raises(ParseError):
        fan_from_json({"dim": 2, "rays": []})
    with pytest.raises(ParseError):
        fan_from_json({"dim": 2, "rays": "x", "cones": []})


def test_invariant_subvarieties_counts():
    assert len(invariant_subvarieties(P2, 0)) == 3
    assert len(invariant_subvarieties(P2, 1)) == 3
    assert invariant_subvarieties(A2, 2) == [OrbitClosure((), 2)]
    for fan in ALL_FANS:
        census = fan_validate(fan)
        for p in range(fan.dim + 1):
            assert len(invariant_subvarieties(fan, p)) == census[fan.dim - p]
    with pytest.raises(DomainError):
        invariant_subvarieties(P2, 3)
    with pytest.raises(DomainError):
        invariant_subvarieties(P2, -1)


def test_euler_series_points_of_plane():
    s = euler_series(P2, 0, order=3, grading=lambda d: (1,))
    assert s == MultiSeries(1, 3, {(0,): 1, (1,): 3, (2,): 6, (3,): 10})


def test_euler_series_lines_of_quadric():
    def bidegree(d):
        ray = P1XP1.rays[d.ray_indices[0]]
        return (1, 0) if ray[0] else (0, 1)

    s = euler_series(P1XP1, 1, order=2, grading=bidegree)
    assert s == expand_inverse_product([((1, 0), 2), ((0, 1), 2)], arity=2, order=2)
    assert s.coefficient((1, 1)) == 4


def test_euler_series_points_of_line():
    s = euler_series(P1, 0, order=6, grading=lambda d: (1,))
    for d in range(7):
        assert s.coefficient((d,)) == d + 1


def test_euler_series_default_grading_is_free():
    """With one variable per subvariety every multi-exponent has exactly one
    representation, so all coefficients up to the order are 1."""
    s = euler_series(P2, 0, order=2)
    assert s.arity == 3
    assert s.coefficient((1, 0, 0)) == 1
    assert s.coefficient((1, 1, 0)) == 1
    assert s.coefficient((2, 0, 0)) == 1
    assert all(c == 1 for c in s.terms.values())


def test_finest_grading_is_charged_before_its_unit_vectors_are_built():
    """2500 rank-1 cones give 2500 variables, whose unit vectors hold 6.25
    million entries: they were built, for 1.27 s, before any charge.  The
    best of three refusals is timed, so that one pause of the host does
    not fail the test."""
    fan = Fan(2, tuple((1, k) for k in range(2500)), tuple((i,) for i in range(2500)))
    fan.ranks
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"^{OVER_BUDGET}$"):
            euler_series(fan, 1, 1)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1


def test_euler_series_rejects_zero_grading():
    with pytest.raises(DomainError):
        euler_series(P2, 0, order=2, grading=lambda d: (0,))


def test_euler_series_grading_needs_a_closure():
    rays = Fan(2, ((1, 0), (0, 1)), ((0,), (1,)))  # no 2-dimensional cone, so no fixed point
    with pytest.raises(DomainError, match="^no 0-dimensional invariant subvarieties to grade$"):
        euler_series(rays, 0, order=2, grading=lambda d: (1,))


@pytest.mark.parametrize("build", [
    *(lambda n=n: projective_fan(n) for n in range(9)),
    *(lambda n=n: affine_fan(n) for n in range(1, 9)),
    lambda: product_fan(P2, A2),
    lambda: product_fan(P3, HIRZEBRUCH),
], ids=[*(f"P{n}" for n in range(9)), *(f"A{n}" for n in range(1, 9)), "P2xA2", "P3xF1"])
def test_stock_fans_are_charged_what_they_build(build):
    """Each builder charges, before it builds, a unit per four ray entries,
    a unit a cone and one per four of the cones' ray indices: its counts,
    taken from the factors or from n alone, are those of the fan built."""
    fan, units = charged(build)
    ray_entries = len(fan.rays) * fan.dim
    assert units == ray_entries // 4 + len(fan.cones) + sum(map(len, fan.cones)) // 4


def _cone_matrices(fan):
    return sorted(tuple(fan.rays[i] for i in cone) for cone in fan.cones)


def test_fan_is_checked_once_on_first_use(rank_calls):
    fan = Fan(3, P3.rays, P3.cones)
    projective_fan(4)
    affine_fan(3)
    assert rank_calls == []  # constructing a fan ranks nothing
    assert fan_validate(fan) == fan_validate(fan) == fan.census == (1, 4, 6, 4)
    toric_lambda(fan)
    toric_E_poly(fan)
    assert sorted(rank_calls) == _cone_matrices(fan)


def test_invariant_subvarieties_ranks_each_cone_once(rank_calls):
    fan = Fan(3, P3.rays, P3.cones)
    assert len(invariant_subvarieties(fan, 1)) == 6
    assert sorted(rank_calls) == _cone_matrices(fan)
    for p in range(4):
        invariant_subvarieties(fan, p)
    euler_series(fan, 0, order=2)
    assert len(rank_calls) == len(fan.cones)


def test_invalid_fan_raises_on_every_read():
    fan = Fan(2, ((1, 0), (0, 1)), ((0,), (1,), (0, 1), (0, 1)))  # duplicate last
    for _ in range(2):
        with pytest.raises(FanError):
            fan_validate(fan)
        with pytest.raises(FanError):
            fan.census
        with pytest.raises(FanError):
            invariant_subvarieties(fan, 1)


def test_kept_check_leaves_equality_and_hash_alone():
    fresh = Fan(2, P2.rays, P2.cones)
    assert fresh == P2 and hash(fresh) == hash(P2)
    fresh.census
    assert fresh == Fan(2, P2.rays, P2.cones)
    assert fan_from_json(json.loads(json.dumps(fresh.to_json()))) == fresh


@pytest.mark.parametrize("text", [
    '{"dim": 1.5, "rays": [[1], [-1]], "cones": [[0], [1]]}',
    '{"dim": 1, "rays": [[1.9], [-1]], "cones": [[0], [1]]}',
    '{"dim": 1, "rays": [[1], ["-1"]], "cones": [[0], [1]]}',
    '{"dim": 1, "rays": [[1], [-1]], "cones": [[0], [true]]}',
    '{"dim": true, "rays": [[1], [-1]], "cones": [[0], [1]]}',
    '{"dim": 1, "rays": [[1], [-1]], "cones": {"0": [0]}}',
])
def test_fan_json_needs_json_integers(text):
    with pytest.raises(ParseError):
        fan_from_json(json.loads(text))


def _determinant(m):
    """Cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * _determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def _minor_rank(rows):
    """The largest k with a nonzero k x k minor: a rank with no elimination."""
    width = len(rows[0])
    for k in range(min(len(rows), width), 0, -1):
        for picked in combinations(rows, k):
            for columns in combinations(range(width), k):
                if _determinant([[row[j] for j in columns] for row in picked]):
                    return k
    return 0


@st.composite
def _integer_matrices(draw):
    """Up to 5 x 6, entries in -3..3; a drawn row may be replaced by an
    integer combination of the rows above it, so low ranks come up often."""
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width),
                         min_size=1, max_size=5))
    for i in range(1, len(rows)):
        if draw(st.booleans()):
            weights = draw(st.lists(st.integers(-2, 2), min_size=i, max_size=i))
            rows[i] = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(width)]
    return rows


@given(_integer_matrices())
def test_int_rank_equals_the_minor_rank(rows):
    assert _int_rank(rows) == _minor_rank(rows)
