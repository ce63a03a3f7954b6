"""Ring layer: exact arithmetic, the two quotients, series expansion."""

import itertools
import math
import operator
import re
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclemotive.chow import (
    chow_series,
    euler_chow_product_formula,
    euler_chow_product_recursive,
)
from cyclemotive.errors import DomainError, ParseError
from cyclemotive.ring import (
    LPoly,
    Laurent1,
    MultiSeries,
    Poly2,
    expand_inverse_product,
    lpoly_from_diagonal,
    lpoly_to_poly2,
    parse_poly2,
    quotient_uv,
    quotient_uv_minus1,
    specialize,
)
from cyclemotive.toric import euler_series
from cyclemotive.verify import builtin_fans

# the running example: class of (elliptic curve cone) glued to a plane
GLUED_CONE = parse_poly2("1+u+v+uv-u^2*v-u*v^2+2u^2*v^2")

U = Poly2({(1, 0): 1})
V = Poly2({(0, 1): 1})
ONE = Poly2({(0, 0): 1})
UV = Poly2({(1, 1): 1})


def test_product_of_linear_factors():
    assert (ONE + U) * (ONE + V) == parse_poly2("1+u+v+uv")


def test_polynomial_in_uv_minus_one():
    # (uv-1)^2 + 3(uv-1) + 3 collapses to the projective plane class
    t = UV - ONE
    three = Poly2({(0, 0): 3})
    assert t * t + three * t + three == parse_poly2("1+uv+u^2*v^2")


def test_curve_class_times_line():
    curve = ONE - U - V + UV
    assert curve * UV == parse_poly2("uv-u^2*v-u*v^2+u^2*v^2")


def test_quotient_uv_minus1_kills_generator():
    assert quotient_uv_minus1(UV - ONE) == Laurent1()


def test_quotient_uv_minus1_monomial():
    assert quotient_uv_minus1(Poly2({(2, 1): 1})) == Laurent1({1: 1})


def test_quotient_uv_minus1_glued_cone_value():
    img = quotient_uv_minus1(GLUED_CONE)
    assert img == Laurent1({0: 4})
    # cross-check: evaluation at u=v=1 factors through the quotient
    assert specialize(GLUED_CONE, 1, 1) == 4


def test_quotient_uv_examples():
    assert quotient_uv(UV) == Poly2()
    cubed = Poly2({(3, 0): 1})
    assert quotient_uv(cubed) == cubed
    assert quotient_uv(GLUED_CONE) == parse_poly2("1+u+v")


def test_specialize_examples():
    assert specialize(parse_poly2("1+uv+u^2*v^2"), 1, 1) == 3
    assert specialize(UV - ONE, 1, 1) == 0
    assert specialize(ONE - U - V + UV, 1, 1) == 0


def test_antidiagonal_sums_examples():
    assert quotient_uv_minus1(parse_poly2("1+uv+u^2*v^2")).terms == {0: 3}
    assert quotient_uv_minus1(UV - ONE).terms == {}
    assert quotient_uv_minus1(ONE - U - V + UV).terms == {-1: -1, 0: 2, 1: -1}


def test_expand_geometric_square():
    s = expand_inverse_product([((1,), 2)], arity=1, order=3)
    assert s == MultiSeries(1, 3, {(0,): 1, (1,): 2, (2,): 3, (3,): 4})


def test_expand_two_variable_convolution():
    s = expand_inverse_product([((1, 0), 2), ((0, 1), 2)], arity=2, order=4)
    assert s.coefficient((1, 1)) == 4


def stars_and_bars(kinds, total):
    # weak compositions by direct odometer enumeration; exponential, oracle only
    if kinds == 0:
        return 1 if total == 0 else 0
    count = 0
    for parts in itertools.product(range(total + 1), repeat=kinds - 1):
        if sum(parts) <= total:
            count += 1
    return count


def test_expand_sixth_inverse_power_coefficient():
    s = expand_inverse_product([((1,), 6)], arity=1, order=2)
    assert s.coefficient((2,)) == 21
    assert stars_and_bars(6, 2) == 21


def test_expand_matches_binomials_large_grid():
    """Coefficient of t^d in (1-t)^-v is binom(v+d-1, d); the expansion
    route never touches binomials so math.comb is an independent check."""
    for v in range(1, 31):
        s = expand_inverse_product([((1,), v)], arity=1, order=30)
        for d in range(31):
            assert s.coefficient((d,)) == math.comb(v + d - 1, d)


@pytest.mark.parametrize("multiplicity, message", [
    (1.5, "factor multiplicity 1.5 is not an integer"),
    (True, "factor multiplicity True is not an integer"),
    (0, "factor multiplicity must be >= 1, got 0"),
    (-1, "factor multiplicity must be >= 1, got -1"),
], ids=["float", "bool", "zero", "negative"])
def test_expand_checks_each_multiplicity(multiplicity, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        expand_inverse_product([((1,), 2), ((1,), multiplicity)], arity=1, order=3)


def test_expand_rejects_zero_exponent():
    import pytest

    from cyclemotive.errors import DomainError, ParseError

    with pytest.raises(DomainError):
        expand_inverse_product([((0, 0), 1)], arity=2, order=3)
    with pytest.raises(DomainError):
        expand_inverse_product([((1,), 0)], arity=1, order=3)


@pytest.mark.parametrize("arity, order, message", [
    (1, 2.5, "arity 1 and order 2.5 must be integers"),
    (1.5, 2, "arity 1.5 and order 2 must be integers"),
    (True, 2, "arity True and order 2 must be integers"),
    (1, -1, "truncation order must be non-negative"),
], ids=["float-order", "float-arity", "bool-arity", "negative-order"])
def test_expand_checks_its_shape_before_its_factors(arity, order, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        expand_inverse_product([((1,), 1)], arity=arity, order=order)


exponent_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5))
small_polys = st.builds(
    Poly2, st.dictionaries(exponent_pairs, st.integers(-9, 9), max_size=6)
)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Poly2() == a
    assert a * ONE == a
    assert a - a == Poly2()


laurents = st.builds(
    Laurent1, st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=6)
)
lpolys = st.builds(
    LPoly, st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6)
)
series = st.builds(
    lambda terms: MultiSeries(2, 4, terms),
    st.dictionaries(exponent_pairs, st.integers(-9, 9), max_size=6),
)
RINGS = {
    "Poly2": (small_polys, Poly2(), ONE),
    "Laurent1": (laurents, Laurent1(), Laurent1({0: 1})),
    "LPoly": (lpolys, LPoly(), LPoly({0: 1})),
    "MultiSeries": (series, MultiSeries(2, 4), MultiSeries(2, 4, {(0, 0): 1})),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
@given(data=st.data())
def test_ring_axioms_every_type(ring, data):
    values, zero, one = RINGS[ring]
    a, b, c = (data.draw(values) for _ in range(3))
    equal_pairs = [
        ((a + b) + c, a + (b + c)),
        (a + b, b + a),
        ((a * b) * c, a * (b * c)),
        (a * b, b * a),
        (a * (b + c), a * b + a * c),
        (a + zero, a),
        (a * one, a),
    ]
    if ring != "MultiSeries":
        equal_pairs.append((a - a, zero))
    for left, right in equal_pairs:
        assert left == right
        assert hash(left) == hash(right)


@pytest.mark.parametrize("ring", sorted(RINGS))
@given(data=st.data())
def test_negation_and_powers_every_type(ring, data):
    """The shared core gives every type subtraction and powering, which
    MultiSeries (no '-') and Laurent1 (no '**') lacked on their own."""
    values, zero, one = RINGS[ring]
    a, b = data.draw(values), data.draw(values)
    for left, right in [
        (a - a, zero),
        (-(a - b), b - a),
        ((a - b) + b, a),
        (a**0, one),
        (a**3, a * a * a),
    ]:
        assert left == right
        assert hash(left) == hash(right)
    with pytest.raises(DomainError, match=f"^negative power -1 of a {ring}$"):
        a ** -1


@given(st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6))
def test_lpoly_degree_and_coefficient(terms):
    """The degree is the largest exponent kept: zero terms are dropped."""
    a = LPoly(terms)
    assert max(a.terms, default=-1) == max((e for e, c in terms.items() if c), default=-1)
    assert all(a.coefficient(e) == terms.get(e, 0) for e in range(12))
    assert LPoly({**terms, 11: 0}) == a
    assert LPoly({11: 0}) == LPoly()


def fraction_value(a, x):
    """Reference evaluation over the rationals, one power per term."""
    return sum(Fraction(c) * Fraction(x) ** e for e, c in a.terms.items())


@given(lpolys, st.one_of(st.integers(-6, 6), st.integers(-2**64, 2**64)))
def test_evaluate_matches_fraction_reference(a, x):
    assert a.evaluate(x) == fraction_value(a, x)


@given(small_polys, small_polys)
def test_quotients_are_ring_homomorphisms(a, b):
    assert quotient_uv_minus1(a + b) == quotient_uv_minus1(a) + quotient_uv_minus1(b)
    assert quotient_uv_minus1(a * b) == quotient_uv_minus1(a) * quotient_uv_minus1(b)
    assert quotient_uv(a + b) == quotient_uv(quotient_uv(a) + quotient_uv(b))
    assert quotient_uv(a * b) == quotient_uv(quotient_uv(a) * quotient_uv(b))


@given(small_polys)
def test_three_routes_to_the_euler_number(a):
    at_one = specialize(a, 1, 1)
    assert at_one == sum(quotient_uv_minus1(a).terms.values())
    assert at_one == sum(a.terms.values())


@given(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(1, 5))
def test_single_factor_expansion_is_geometric(e, order):
    if e == (0, 0):
        return
    s = expand_inverse_product([(e, 1)], arity=2, order=order)
    expected = {}
    k = 0
    while k * sum(e) <= order:
        expected[(k * e[0], k * e[1])] = 1
        k += 1
    assert s == MultiSeries(2, order, expected)


@st.composite
def inverse_products(draw, unit_vectors=False):
    """(arity, order, factors).  By default up to three factors with small
    exponents, which may repeat and overlap.  With unit_vectors, factors on
    distinct variables only: arity 0-6, multiplicities up to 10^6, and
    orders up to 40 wherever the series keeps at most 2000 terms."""
    if unit_vectors:
        arity = draw(st.integers(0, 6))
        axes = draw(st.lists(st.integers(0, max(arity - 1, 0)), unique=True, max_size=arity))
        factors = [(tuple(int(i == a) for i in range(arity)), draw(st.integers(1, 10**6)))
                   for a in axes]
        k = len(factors)
        top = max(o for o in range(41) if math.comb(o + k, k) <= 2000)
        return arity, draw(st.integers(0, top)), factors
    arity = draw(st.integers(1, 3))
    exponents = st.lists(st.integers(0, 3), min_size=arity, max_size=arity).filter(
        lambda m: 1 <= sum(m) <= 3
    )
    factors = draw(st.lists(
        st.tuples(exponents.map(tuple), st.integers(1, 12)), min_size=1, max_size=3
    ))
    return arity, draw(st.integers(0, 10)), factors


def geometric_powers(arity, order, factors):
    """Reference: each truncated geometric series raised to its
    multiplicity with MultiSeries multiplication and powering."""
    expected = MultiSeries(arity, order, {(0,) * arity: 1})
    for m, c in factors:
        geometric = MultiSeries(
            arity, order, {tuple(j * x for x in m): 1 for j in range(order // sum(m) + 1)}
        )
        expected = expected * geometric**c
    return expected


@given(inverse_products())
@settings(deadline=None)
def test_expansion_equals_product_of_geometric_powers(case):
    arity, order, factors = case
    expected = geometric_powers(arity, order, factors)
    assert expand_inverse_product(factors, arity=arity, order=order) == expected


@given(inverse_products(unit_vectors=True), st.data())
@settings(deadline=None)
def test_both_expansion_paths_give_the_same_series(case, data):
    """Factors on distinct variables match the reference; the same product
    with one multiplicity c split as c1 + c2 over two equal exponents
    gives the same series, since the split multiplicities merge."""
    arity, order, factors = case
    s = expand_inverse_product(factors, arity=arity, order=order)
    assert s == geometric_powers(arity, order, factors)
    assert_canonical(s)
    splittable = [i for i, (_, c) in enumerate(factors) if c > 1]
    if splittable:
        i = data.draw(st.sampled_from(splittable))
        m, c = factors[i]
        c1 = data.draw(st.integers(1, c - 1))
        split = factors[:i] + [(m, c1), (m, c - c1)] + factors[i + 1:]
        assert expand_inverse_product(split, arity=arity, order=order) == s


@given(inverse_products(unit_vectors=True))
@settings(deadline=None)
def test_folded_rows_match_the_outer_product(case):
    """Doubling every exponent of a unit-vector list puts every row off the
    axes, so the fold builds the whole series; at order 2o it is the outer
    product's series at order o with every key doubled."""
    arity, order, factors = case
    doubled = [(tuple(2 * x for x in m), c) for m, c in factors]
    s = expand_inverse_product(factors, arity=arity, order=order)
    folded = expand_inverse_product(doubled, arity=arity, order=2 * order)
    assert folded.terms == {tuple(2 * x for x in e): c for e, c in s.terms.items()}
    assert_canonical(folded)


def assert_canonical(s: MultiSeries) -> None:
    """s, built by the library and wrapped with no check, is what the
    constructor makes of its own map: no zero coefficient, no key above
    the order, every key and coefficient of the right type."""
    assert s == MultiSeries(s.arity, s.order, dict(s.terms))
    assert all(s.terms.values())
    assert all(sum(e) <= s.order for e in s.terms)


@st.composite
def factor_lists(draw):
    """Factors drawn from a small pool of non-zero exponents, so that they
    repeat and overlap, with multiplicities up to 10^6."""
    arity = draw(st.integers(1, 4))
    exponent = st.tuples(*[st.integers(0, 3)] * arity).filter(any)
    pool = draw(st.lists(exponent, min_size=1, max_size=3))
    factors = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(1, 10**6)), min_size=1, max_size=4
    ))
    return factors, arity, draw(st.integers(0, 25))


@given(factor_lists())
@settings(deadline=None)
def test_expansion_is_canonical(case):
    factors, arity, order = case
    assert_canonical(expand_inverse_product(factors, arity=arity, order=order))


def test_library_built_series_are_canonical():
    for n in range(6):
        for p in range(n + 1):
            for order in range(26):
                assert_canonical(chow_series(p, n, order))
    shapes = [(p, n, m, order) for n in range(4) for m in range(4)
              for p in range(n + m + 1) for order in range(13)]
    for shape in shapes:
        assert_canonical(euler_chow_product_formula(*shape))
        assert_canonical(euler_chow_product_recursive(*shape))
    for shape in [(1, 2, 2, 42), (2, 2, 2, 24), (3, 3, 4, 12), (0, 4, 5, 180),
                  (1, 2, 3, 38)]:  # the deep shapes of test_chow.py
        assert_canonical(euler_chow_product_recursive(*shape))
    for fan in builtin_fans().values():
        for p in range(fan.dim + 1):
            for order in range(7):
                assert_canonical(euler_series(fan, p, order))
                assert_canonical(euler_series(fan, p, order, grading=lambda d: (1,)))


@given(small_polys)
@settings(max_examples=200)
def test_text_round_trip(a):
    assert parse_poly2(str(a)) == a


@pytest.mark.parametrize("ring", ["Poly2", "Laurent1", "LPoly"])
@given(data=st.data())
def test_str_is_canonical(ring, data):
    """Equal values print equal text, however they were built: by
    arithmetic, or from their term map in any order."""
    values = RINGS[ring][0]
    a, b = data.draw(values), data.draw(values)
    terms = data.draw(st.permutations(list(a.terms.items())))
    assert str(a + b - b) == str(a)
    assert str(type(a)(dict(terms))) == str(a)


@pytest.mark.parametrize("ring", ["Poly2", "Laurent1", "LPoly"])
@given(data=st.data())
def test_str_tells_values_apart(ring, data):
    """Unequal values print different text."""
    values = RINGS[ring][0]
    a, b = data.draw(values), data.draw(values)
    assert (str(a) == str(b)) == (a == b)
    assert str(a + RINGS[ring][2]) != str(a)


def test_golden_rendering():
    # canonical order: total degree ascending, then u-exponent descending
    assert str(GLUED_CONE) == "1+u+v+uv-u^2*v-u*v^2+2u^2*v^2"
    assert str(Poly2()) == "0"
    assert str(-ONE) == "-1"
    assert parse_poly2("0") == Poly2()
    # str() is the canonical text; repr() wraps it in the type's name
    laurent = Laurent1({-2: 1, 0: 3, 1: -1})
    lpoly = LPoly({0: 1, 1: 3, 4: 1})
    assert repr(GLUED_CONE) == "Poly2('1+u+v+uv-u^2*v-u*v^2+2u^2*v^2')"
    assert (str(laurent), repr(laurent)) == ("u^-2+3-u", "Laurent1('u^-2+3-u')")
    assert (str(lpoly), repr(lpoly)) == ("1+3L+L^4", "LPoly('1+3L+L^4')")
    # a series has no text form: its repr is a summary
    series = MultiSeries(1, 3, {(0,): 1, (2,): 5})
    assert repr(series) == "MultiSeries(arity=1, order=3, 2 terms)"


@pytest.mark.parametrize("combine", [operator.add, operator.mul])
def test_values_of_two_types_do_not_combine(combine):
    with pytest.raises(TypeError):
        combine(ONE, LPoly({0: 1}))


def test_parser_tolerates_stars_and_spaces():
    assert parse_poly2("1 + u*v") == ONE + UV
    assert parse_poly2("2*u^2*v^2") == Poly2({(2, 2): 2})
    assert parse_poly2("u v") == UV  # juxtaposition with whitespace


def poly2_id(value):
    """A table row's id: the text read, after the name of the type it is
    read as; other values take pytest's default id."""
    return f"Poly2-{value}" if isinstance(value, str) else None


@pytest.mark.parametrize("text, expected", [
    ("*u", U),
    ("2*", Poly2({(0, 0): 2})),
    ("--u", U),
    ("uvu", Poly2({(2, 1): 1})),
    ("u v", UV),
    ("u^0", ONE),
    ("1 ", ONE),
], ids=poly2_id)
def test_parser_accepts(text, expected):
    assert parse_poly2(text) == expected


@pytest.mark.parametrize("text", [
    "1++", "w", "u^", "u^-2", "3 3", "", "1 2", "u2", "2^3", "u^+2", "u^--1",
    "^2", "*", "   ", "U", "\u0663u", "u^-1", "u^-0",
    # past the interpreter's int() digit limit
    pytest.param("9" * 5000 + "u", id="Poly2-long-coefficient"),
    pytest.param("u^" + "9" * 5000, id="Poly2-long-exponent"),
], ids=poly2_id)
def test_parser_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_poly2(text)


@pytest.mark.parametrize("text, message", [
    ("u^-1", "cannot parse 'u^-1' at position 1"),
    ("1+2w", "unknown variable 'w'"),
    ("u v 2", "missing '+' or '-' between terms"),
    ("u^" + "9" * 5000, "polynomial text holds an integer longer than"),
], ids=["negative-exponent", "unknown-variable", "missing-sign", "long-exponent"])
def test_parser_messages(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        parse_poly2(text)


@given(data=st.data())
def test_every_spelling_parses_back(data):
    """Terms in any order, '*' and whitespace between any two tokens and at
    the end, unit coefficients and exponents written out or left off."""
    a = data.draw(small_polys)
    space = st.sampled_from(["", " ", " \t", "\n"])
    star = st.sampled_from(["", "*"])
    flag = st.booleans()
    text = ""
    for i, (exps, c) in enumerate(data.draw(st.permutations(sorted(a.terms.items())))):
        factors = [(n, e) for n, e in zip("uv", exps) if e or data.draw(flag)]
        sign = "-" if c < 0 else "+" if i or data.draw(flag) else ""
        text += data.draw(space) + sign + data.draw(space)
        if abs(c) != 1 or not factors or data.draw(flag):
            text += str(abs(c))
        for n, e in factors:
            text += data.draw(space) + data.draw(star) + data.draw(space) + n
            if e != 1 or data.draw(flag):
                text += data.draw(space) + "^" + data.draw(space) + str(e)
    text = (text or "0") + data.draw(space)
    assert parse_poly2(text) == a


def test_parser_reads_a_long_input_in_one_pass():
    text = " + ".join(f"{i}u^{i}" for i in range(1, 20000))[:199_990]
    text = text[: text.rindex("+")].rstrip().rjust(200_000)
    n = text.count("+") + 1
    assert len(text) == 200_000
    assert parse_poly2(text) == Poly2({(i, 0): i for i in range(1, n + 1)})


def test_lpoly_round_trips():
    a = LPoly({0: 1, 1: 3, 4: 1})
    assert str(a) == "1+3L+L^4"
    assert a.evaluate(2) == 1 + 6 + 16
    assert lpoly_from_diagonal(lpoly_to_poly2(a)) == a


def test_lpoly_from_diagonal_rejects_mixed():
    assert lpoly_from_diagonal(parse_poly2("1+uv")) == LPoly({0: 1, 1: 1})
    assert lpoly_from_diagonal(parse_poly2("1+u")) is None


@pytest.mark.parametrize("build, message", [
    (lambda: Poly2({(1.5, 0): 1}), "exponent (1.5, 0) is not a tuple of integers"),
    (lambda: Poly2({(1, 0): 1.7}), "coefficient 1.7 is not an integer"),
    (lambda: Poly2({(0, 0): True}), "coefficient True is not an integer"),
    (lambda: Laurent1({"1": 1}), "exponent '1' is not an integer"),
    (lambda: LPoly({1: 2.0}), "coefficient 2.0 is not an integer"),
    (lambda: MultiSeries(1, 3, {(1.0,): 1}), "exponent (1.0,) is not a tuple of integers"),
    (lambda: LPoly({-1: 1}), "LPoly exponent -1 is negative"),
    (lambda: LPoly({True: 1}), "exponent True is not an integer"),
    (lambda: LPoly((1, 2)), "terms must be a mapping, not tuple"),
    (lambda: Poly2([((0, 0), 1)]), "terms must be a mapping, not list"),
], ids=["poly2-exponent", "poly2-coefficient", "poly2-bool", "laurent1-exponent",
        "lpoly-coefficient", "series-exponent", "lpoly-negative-exponent",
        "lpoly-bool-exponent", "lpoly-dense", "poly2-pairs"])
def test_constructors_accept_only_int(build, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


class _Pairs(Mapping):
    """A mapping kept as a list of pairs, so its keys may be unhashable."""

    def __init__(self, pairs):
        self._pairs = pairs

    def __getitem__(self, key):
        return next(c for e, c in self._pairs if e == key)

    def __iter__(self):
        return (e for e, _ in self._pairs)

    def __len__(self):
        return len(self._pairs)


@pytest.mark.parametrize("args, message", [
    ((1, 3, {(1.0,): 1}), "exponent (1.0,) is not a tuple of integers"),
    ((1, 3, {(True,): 1}), "exponent (True,) is not a tuple of integers"),
    ((1, 3, {(0,): 1, (-1,): 1}), "negative exponent in (-1,)"),
    ((1, 3, _Pairs([([1], 1)])), "exponent [1] is not a tuple of integers"),
    ((1, 3, {"1": 1}), "exponent '1' is not a tuple of integers"),
    ((1, 3, {(1, 0): 1}), "exponent (1, 0) has wrong arity (want 1)"),
    ((1, 3, {(1,): 1.5}), "coefficient 1.5 is not an integer"),
    ((1, 3, {(1,): True}), "coefficient True is not an integer"),
    # the first bad term is the one named, and a term beyond the order is
    # checked before it is dropped
    ((1, 3, {(0,): 1, (1,): 2.5, (2.0,): 1}), "coefficient 2.5 is not an integer"),
    ((1, 3, {(9.0,): 1}), "exponent (9.0,) is not a tuple of integers"),
    ((1, 3, {(9,): 0.5}), "coefficient 0.5 is not an integer"),
    ((1.5, 3, {}), "arity 1.5 and order 3 must be integers"),
    ((1, 2.5, {(1,): 1}), "arity 1 and order 2.5 must be integers"),
    ((True, 3, {(1,): 1}), "arity True and order 3 must be integers"),
    ((1, 3, [((1,), 1)]), "terms must be a mapping, not list"),
    ((-1, 3, {}), "arity must be non-negative"),
    ((1, -1, {}), "truncation order must be non-negative"),
], ids=["float-exponent", "bool-exponent", "negative-exponent", "list-exponent",
        "str-exponent", "wrong-arity", "float-coefficient", "bool-coefficient",
        "first-bad-term", "beyond-order-exponent", "beyond-order-coefficient",
        "float-arity", "float-order", "bool-arity", "pairs-terms",
        "negative-arity", "negative-order"])
def test_series_constructor_messages(args, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        MultiSeries(*args)


@pytest.mark.parametrize("shape", [(2, 3), (1, 4)])
def test_series_of_two_shapes_do_not_add(shape):
    with pytest.raises(DomainError, match="^series mismatch: "):
        MultiSeries(1, 3) + MultiSeries(*shape)


def test_multiseries_truncation_discards_high_degree():
    s = MultiSeries(1, 2, {(0,): 1, (3,): 7})
    assert s == MultiSeries(1, 2, {(0,): 1})
    t = MultiSeries(1, 2, {(2,): 1})
    assert (t * t).terms == {}
