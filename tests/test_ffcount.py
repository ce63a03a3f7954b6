"""Finite-field counts: formula vs exhaustive enumeration, congruences."""

import itertools
import math
import operator
import re
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclemotive import errors
from cyclemotive.chow import (
    ChowIndex,
    chow_congruence_targets,
    coordinate_subspace_count,
    euler_chow_product_formula,
    euler_chow_product_recursive,
    irreducible_invariant,
    irreducible_invariant_product,
    multidegree_slots,
)
from cyclemotive.errors import WORK_BUDGET, BudgetError, DomainError
from cyclemotive.ffcount import (
    CongruenceReport,
    PrimePower,
    cell_count,
    check_field,
    gaussian_binomial,
    gaussian_binomial_poly,
    grassmannian_count_brute,
    is_prime,
    is_rref,
    rref_cell_census,
    toric_count,
)
from cyclemotive.motive import (
    AffineSpace,
    Cellular,
    Grassmannian,
    ProjSpace,
    Measure,
    Point,
    SmoothProjectiveLeaf,
    ToricFan,
    Torus,
    eval_measure,
    hodge_constraints_check,
)
from cyclemotive.ring import (
    LPoly,
    MultiSeries,
    Poly2,
    lpoly_from_diagonal,
    lpoly_to_poly2,
    quotient_uv,
    quotient_uv_minus1,
    specialize,
)
from cyclemotive.toric import Fan, affine_fan, euler_series, invariant_subvarieties, projective_fan
from conftest import OVER_BUDGET, budget, charged, load_fan

P1 = load_fan("p1")
P2 = load_fan("p2")
P1XP1 = load_fan("p1xp1")
A2 = load_fan("a2")


def free_positions(n, pivots):
    """Entries right of a row's pivot outside every pivot column."""
    return sum(
        1
        for r, col in enumerate(pivots)
        for c in range(col + 1, n)
        if c not in pivots
    )


def trial_division_prime_power(q):
    """(p, e) with q = p^e for a prime p, or None; by trial division."""
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def test_gaussian_binomial_examples():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 3) == 130
    for n in range(6):
        for q in (2, 3, 4, 5):
            assert gaussian_binomial(n, 0, q) == 1
            assert gaussian_binomial(n, n, q) == 1


def test_gaussian_binomial_domain():
    with pytest.raises(DomainError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(DomainError):
        gaussian_binomial(3, -1, 2)
    with pytest.raises(DomainError):
        gaussian_binomial(3, 1, 1)
    with pytest.raises(DomainError):
        gaussian_binomial_poly(2, 3)


def test_gaussian_duality():
    for n in range(9):
        for k in range(n + 1):
            for q in (2, 3, 5, 9):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


@given(st.integers(0, 30), st.integers(0, 30), st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25]))
def test_gaussian_binomial_counts_on_its_smaller_side(n, k, q):
    """[n, k] = [n, n - k]: the product formula takes the smaller side,
    and the Pascal route, which counts on the side it is given, agrees
    with it on both."""
    n, k = max(n, k), min(n, k)
    assert (gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
            == gaussian_binomial_poly(n, k).evaluate(q)
            == gaussian_binomial_poly(n, n - k).evaluate(q))


def test_a_count_near_n_costs_what_its_smaller_side_costs():
    """[2001, 2000] at 2 is 2^2001 - 1: counted over its own k it took
    4.4 s, and under the work meter it would be refused."""
    value, units = charged(gaussian_binomial, 2001, 2000, 2)
    assert value == 2**2001 - 1
    assert units == charged(gaussian_binomial, 2001, 1, 2)[1]


def test_pascal_polynomial_route_agrees():
    """The recursion-built polynomial and the product formula are
    independent computations of the same count."""
    for n in range(9):
        for k in range(n + 1):
            poly = gaussian_binomial_poly(n, k)
            for q in (2, 3, 4, 5, 7, 8, 9):
                assert poly.evaluate(q) == gaussian_binomial(n, k, q)


def test_pascal_polynomial_constant_term_is_one():
    # one Schubert cell is a point; this is what drives the mod-q congruence
    for n in range(9):
        for k in range(n + 1):
            assert gaussian_binomial_poly(n, k).coefficient(0) == 1


def test_brute_force_examples():
    assert grassmannian_count_brute(1, 3, 2) == 7
    assert grassmannian_count_brute(2, 4, 2) == 35
    for n in range(5):
        for q in (2, 3, 5):
            assert grassmannian_count_brute(n, n, q) == 1


def test_brute_force_matches_formula_grid():
    for n in range(6):
        for k in range(n + 1):
            for q in (2, 3, 5):
                assert grassmannian_count_brute(k, n, q) == gaussian_binomial(n, k, q)


def test_cell_census_is_schubert_decomposition():
    """Every pivot pattern contributes exactly q^(free entries) subspaces,
    and the total reproduces the Gaussian binomial."""
    for (k, n, q) in [(1, 3, 2), (2, 4, 3), (2, 5, 2), (3, 5, 2)]:
        census = rref_cell_census(k, n, q)
        assert len(census) == math.comb(n, k)
        for pivots, count in census.items():
            assert count == q ** free_positions(n, pivots)
        assert sum(census.values()) == gaussian_binomial(n, k, q)


@given(st.data())
@settings(deadline=None)
def test_each_pivot_pattern_counts_q_to_its_free_positions(data):
    n = data.draw(st.integers(0, 7))
    pivots = tuple(sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))))
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    free = free_positions(n, pivots)
    assume(q**free <= 3000)
    assert cell_count(n, pivots, q) == q**free


@pytest.mark.parametrize("k,n,q", [(0, 3, 2), (1, 3, 2), (2, 4, 3), (2, 5, 2), (3, 5, 2),
                                   (2, 4, 5), (4, 4, 7)])
def test_census_checks_every_candidate_matrix(predicate_calls, k, n, q):
    """The predicate runs once per candidate: as often as the budget counts,
    on that many distinct matrices, each of them k x n."""
    census = rref_cell_census(k, n, q)
    candidates = sum(q ** free_positions(n, pivots)
                     for pivots in itertools.combinations(range(n), k))
    assert len(predicate_calls) == candidates
    assert len(set(predicate_calls)) == candidates
    assert all(len(m) == k and all(len(row) == n for row in m) for m in predicate_calls)
    assert sum(census.values()) == gaussian_binomial(n, k, q)


def test_rref_predicate_each_failure():
    q = 3
    # accepted, with entries outside 0..q-1 read mod q: 4 = 1, -2 = 1, 6 = 0
    assert is_rref([[4, 2, 6, 5], [3, 0, -2, 7]], q)
    assert is_rref([], q)
    # a zero row, also one whose entries only vanish mod q
    assert not is_rref([[1, 0, 2], [0, 0, 0]], q)
    assert not is_rref([[1, 0, 2], [3, -6, 0]], q)
    # a leading entry that is not 1 mod q
    assert not is_rref([[1, 0, 2], [0, 2, 1]], q)
    assert not is_rref([[1, 0, 2], [0, 5, 1]], q)
    # pivots not strictly increasing
    assert not is_rref([[0, 1, 0], [1, 0, 0]], q)
    assert not is_rref([[1, 0, 0], [1, 0, 0]], q)
    # a pivot column that is not elementary: a nonzero entry above a pivot
    assert not is_rref([[1, 1, 0], [0, 1, 0]], q)
    assert not is_rref([[1, 0, 4], [0, 0, 1]], q)
    assert not is_rref([[1, 0, 2], [0, 1, 0], [0, 0, 1]], q)


def test_brute_force_preconditions():
    assert grassmannian_count_brute(1, 3, 4) == 21  # a prime power, not a prime
    assert grassmannian_count_brute(1, 3, 11) == 133  # a prime past the old q <= 7
    with pytest.raises(DomainError):
        grassmannian_count_brute(4, 3, 2)  # k > n
    with pytest.raises(BudgetError):
        grassmannian_count_brute(3, 12, 2)  # ~4e8 candidates


def test_brute_force_matches_formula_over_prime_powers():
    """The entries label the field's elements, so the census needs no field
    arithmetic and counts over F_4, F_8 and F_9 as over a prime field."""
    cases = [(k, n, 4) for n in range(6) for k in range(n + 1)]
    cases += [(k, n, q) for q in (8, 9) for n in range(5) for k in range(n + 1)]
    assert len(cases) == 51
    for k, n, q in cases:
        assert grassmannian_count_brute(k, n, q) == gaussian_binomial(n, k, q)


@pytest.mark.parametrize("k, n, q", [(8, 24, 2), (12, 28, 2), (1, 10**9, 2)])
def test_oversized_census_is_refused_before_its_patterns_are_listed(k, n, q):
    """The widest pivot pattern comes first, and its candidates alone
    overrun the budget: listing every pattern took 5.5 s for (8, 24, 2),
    and (1, 10^9, 2) is refused at its column pool, before range(10^9) is
    copied."""
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=f"^{OVER_BUDGET}$"):
        grassmannian_count_brute(k, n, q)
    assert time.perf_counter() - start < 0.5


def census_units(k, n, q):
    """The census's price, summed here from free_positions: n for the
    column pool, then per pattern its scan and its candidates, each at
    1 + k*n // 4 units."""
    price = 1 + k * n // 4
    return n + sum(price * (1 + q ** free_positions(n, pivots))
                   for pivots in itertools.combinations(range(n), k))


@given(st.data())
@settings(deadline=None)
def test_census_is_refused_exactly_when_its_candidates_exceed_the_cap(data):
    """Refused iff its price exceeds the units left, which are drawn small,
    or next to the price, so that an admitted census stays cheap; an
    admitted one takes exactly its price."""
    n = data.draw(st.integers(0, 12))
    k = data.draw(st.integers(0, n))
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]))
    work = census_units(k, n, q)
    drawn = data.draw(st.one_of(st.integers(0, 3000), st.sampled_from([work - 1, work, work + 1])))
    units = min(drawn, WORK_BUDGET)
    assume(work > units or work <= 3000)
    expected = gaussian_binomial(n, k, q)
    with budget(units) as left:
        if work > units:
            with pytest.raises(BudgetError, match=f"^{OVER_BUDGET}$"):
                rref_cell_census(k, n, q)
        else:
            assert sum(rref_cell_census(k, n, q).values()) == expected
            assert left == [units - work]


@pytest.mark.parametrize("k, n, q", [(0, 10**7, 2), (20000, 20000, 2), (10**5, 10**5, 2)])
def test_census_with_a_long_pool_or_a_wide_matrix_is_refused_at_once(k, n, q):
    """k = 0 copied range(10^7) to answer 1; at k = n the one n x n matrix
    was scanned and built, 3.2 GB of lists at n = 20000."""
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=f"^{OVER_BUDGET}$"):
        grassmannian_count_brute(k, n, q)
    assert time.perf_counter() - start < 0.1


def test_square_census_ends_within_a_second():
    """Its one 3000 x 3000 matrix took 0.92 s to scan, build and check;
    the scan and the candidate are each priced from their k*n entries."""
    start = time.perf_counter()
    try:
        assert grassmannian_count_brute(3000, 3000, 2) == 1
    except BudgetError:
        pass
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("k, n, q", [(0, 3, 2), (2, 5, 2), (2, 4, 3), (3, 3, 2)])
def test_a_refused_census_checks_no_matrix(predicate_calls, k, n, q):
    """Every charge is made while the patterns are listed, the last one
    included, so a census one unit short never reaches cell_count."""
    with budget(census_units(k, n, q) - 1), pytest.raises(BudgetError):
        rref_cell_census(k, n, q)
    assert predicate_calls == []


@pytest.mark.parametrize("k, n, q", [(2, 7, 3), (2, 5, 7), (3, 8, 2)])
def test_benchmark_censuses_take_at_most_half_the_budget(k, n, q):
    count, units = charged(grassmannian_count_brute, k, n, q)
    assert count == gaussian_binomial(n, k, q)
    assert units == census_units(k, n, q) <= WORK_BUDGET / 2


def test_census_checks_its_field_with_check_field():
    with pytest.raises(DomainError, match="^6 is not a prime power$"):
        rref_cell_census(1, 3, 6)


def test_field_checks_refuse_non_ints():
    with pytest.raises(DomainError, match="^n must be an int, got float$"):
        is_prime(7.0)
    with pytest.raises(DomainError, match="^field size must be an int, got float$"):
        PrimePower.from_int(2.5)
    with pytest.raises(DomainError, match="^field size must be an int, got str$"):
        PrimePower.from_int("7")


@pytest.mark.parametrize("q, m, message", [
    (6, 1, "6 is not a prime power"),
    (2, 0, "field extension degree must be >= 1, got 0"),
    (4, 1.5, "field extension degree must be an int, got float"),
    (4.0, 1, "field size must be an int, got float"),
    (True, 1, "field size must be an int, got bool"),
], ids=["q=6", "m=0", "m=1.5", "q=4.0", "q=True"])
@pytest.mark.parametrize("field_user", [
    lambda q, m: Measure("count", q, m),
    lambda q, m: chow_congruence_targets(ChowIndex(0, 1, 2), q, m),
    lambda q, m: toric_count(P2, q, m),
], ids=["count_at", "chow_congruence_targets", "toric_count"])  # the count measure at q^m
def test_one_check_for_the_field_with_q_m_elements(field_user, q, m, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        field_user(q, m)


def test_a_field_size_is_charged_its_power_not_bounded_by_digits():
    """q^m is priced by power_units and built whatever the interpreter's
    digit limit: 2^4000 has 1205 digits, more than a limit of 1000."""
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        assert charged(check_field, 2, 4000) == (2**4000, errors.power_units(2, 4000))
    finally:
        sys.set_int_max_str_digits(default)


@pytest.mark.parametrize("q, m", [(2, 10**6), (3, 4 * 10**5), (2**61 - 1, 3 * 10**4)])
def test_a_field_size_is_refused_one_unit_short_of_its_power(q, m):
    """The charge is exact at its boundary: a budget of power_units(q, m)
    builds q^m, one unit fewer refuses it."""
    units = errors.power_units(q, m)
    assert 0 < units <= WORK_BUDGET
    for left, fits in ((units, True), (units - 1, False)):
        with budget(left):
            if fits:
                assert check_field(q, m) == q**m
            else:
                with pytest.raises(BudgetError, match=f"^{OVER_BUDGET}$"):
                    check_field(q, m)


def test_a_one_factor_count_is_priced_by_its_digits():
    """[404771, 1] at 2 is 2^404771 - 1: a price quadratic in the bits of
    the whole product refused it, though it counts in milliseconds."""
    assert chow_congruence_targets(ChowIndex(0, 1, 404770), 2).actual == 2**404771 - 1


@pytest.mark.parametrize("call, error, message", [
    # q^m itself is priced when the count is evaluated: this took 3.9 s to
    # answer 1 before q^m was charged
    (lambda: eval_measure(Point(), Measure("count", 3, 10**7)), BudgetError,
     f"^{OVER_BUDGET}$"),
    (lambda: toric_count(projective_fan(2), 2, 10**7), BudgetError, f"^{OVER_BUDGET}$"),
    (lambda: chow_congruence_targets(ChowIndex(0, 0, 1), 2, 10**7), BudgetError,
     f"^{OVER_BUDGET}$"),
    # q^m = 2^4000 is a field, but [61, 30] at it is above 2^(4000 * 30 * 31):
    # the work meter refuses it before the first product
    (lambda: chow_congruence_targets(ChowIndex(30, 1, 60), 2, 4000), BudgetError,
     f"^{OVER_BUDGET}$"),
    # [3001, 1500] at 2 has about 6.8 * 10^5 digits
    (lambda: chow_congruence_targets(ChowIndex(1500, 1, 3000), 2), BudgetError,
     f"^{OVER_BUDGET}$"),
    # one factor, 7^(10^7 + 1) - 1: its power is priced by its squarings
    (lambda: chow_congruence_targets(ChowIndex(0, 1, 10**7), 7), BudgetError,
     f"^{OVER_BUDGET}$"),
    # a 300-dimensional fan's top power of 2^14000 - 1 has 4.2 * 10^6 bits:
    # unpriced, toric --count took 36 s before the printer refused it
    (lambda: toric_count(Fan(300, ((1,) + (0,) * 299,), ((0,),)), 2, 14000),
     BudgetError, f"^{OVER_BUDGET}$"),
    # the perfect-power search took q's logarithm and residue once an
    # exponent, uncharged: 2^200000 + 1 ran 26.6 s, then raised a bare
    # ValueError formatting q for its message
    (lambda: check_field(2**200000 + 1, 1), BudgetError, f"^{OVER_BUDGET}$"),
], ids=["count-measure", "toric_count", "chow_congruence_targets", "degree-one-count",
        "degree-one-wide", "degree-one-power", "toric-count-power", "huge-field-size"])
def test_oversized_field_counts_are_refused_before_any_work(call, error, message):
    start = time.perf_counter()
    with pytest.raises(error, match=message):
        call()
    assert time.perf_counter() - start < 2


INDEX_TYPE_CASES = [
    (gaussian_binomial, (3, 1, 2.5), "q must be an int, got float"),
    (gaussian_binomial, (3.0, 1, 2), "n must be an int, got float"),
    (gaussian_binomial, (3, True, 2), "k must be an int, got bool"),
    (gaussian_binomial_poly, (3, 1.0), "k must be an int, got float"),
    (grassmannian_count_brute, (1, 3, 2.0), "q must be an int, got float"),
    (rref_cell_census, (1, "3", 2), "n must be an int, got str"),
    (ChowIndex, (1.0, 2, 3), "p must be an int, got float"),
    (ChowIndex, (1, True, 3), "d must be an int, got bool"),
    (coordinate_subspace_count, (1, 3.0), "n must be an int, got float"),
    (irreducible_invariant, (1.0, 1, 3), "p must be an int, got float"),
    (irreducible_invariant_product, (5, 1, 1, 1), "multidegree must be a tuple or list, got int"),
    (multidegree_slots, (1.5, 1, 1), "p must be an int, got float"),
    (euler_chow_product_formula, (1, 1, 1.0, 3), "m must be an int, got float"),
    (euler_chow_product_recursive, (1, 1.0, 1, 3), "n must be an int, got float"),
    (projective_fan, (2.0,), "n must be an int, got float"),
    (affine_fan, (False,), "n must be an int, got bool"),
    (AffineSpace, (2.0,), "n must be an int, got float"),
    (Torus, (2.0,), "n must be an int, got float"),
    (Torus, (True,), "n must be an int, got bool"),
    (ProjSpace, (2.0,), "n must be an int, got float"),
    (Grassmannian, (1, 3.0), "n must be an int, got float"),
    (Cellular, ([1, 2],), "cells must be a tuple, got list"),
    (Cellular, ((1, 2.0),), "cells[1] must be an int, got float"),
    (invariant_subvarieties, (P1, 1.0), "p must be an int, got float"),
    (euler_series, (P1, 1.0, 3), "p must be an int, got float"),
    (hodge_constraints_check, (Poly2({(0, 0): 1}), 1, 0.5), "fixed_dim_bound must be an int, got float"),
    (hodge_constraints_check, (Poly2({(0, 0): 1}), 1.0, 0), "chi must be an int, got float"),
    (LPoly({1: 1}).evaluate, (2.0,), "x must be an int, got float"),
    (LPoly({1: 1}).evaluate, (2.5,), "x must be an int, got float"),
    (specialize, (Poly2({(1, 1): 1}), 1.5, 1), "u0 must be an int, got float"),
    (operator.pow, (Poly2({(1, 1): 1}), 2.0), "k must be an int, got float"),
    (operator.pow, (Poly2({(1, 1): 1}), True), "k must be an int, got bool"),
    (Poly2({(1, 1): 1}).coefficient, (1.0, True), "p must be an int, got float"),
    (Poly2({(1, 1): 1}).coefficient, (1, True), "q must be an int, got bool"),
    (LPoly({1: 1}).coefficient, (1.0,), "e must be an int, got float"),
    (MultiSeries(1, 3, {(1,): 2}).coefficient, ([1.0],), "e[0] must be an int, got float"),
    (MultiSeries(1, 3, {(1,): 2}).coefficient, ((1, 0),), "exponent (1, 0) has wrong arity (want 1)"),
    (MultiSeries(1, 3, {(1,): 2}).coefficient, ((-1,),), "negative exponent in (-1,)"),
    (MultiSeries(1, 3, {(1,): 2}).coefficient, ((9,),), "exponent (9,) is past the truncation order 3"),
    (quotient_uv_minus1, (MultiSeries(2, 3, {(1, 1): 1}),), "a must be of type Poly2, got MultiSeries"),
    (quotient_uv, (LPoly({1: 1}),), "a must be of type Poly2, got LPoly"),
    (specialize, (LPoly({1: 1}), 1, 1), "a must be of type Poly2, got LPoly"),
    (lpoly_from_diagonal, (LPoly({1: 1}),), "a must be of type Poly2, got LPoly"),
    (lpoly_to_poly2, (Poly2({(1, 1): 1}),), "a must be of type LPoly, got Poly2"),
    (hodge_constraints_check, (LPoly({1: 1}), 1, 0), "h must be of type Poly2, got LPoly"),
    (SmoothProjectiveLeaf, ("x", "1+uv", True), "e_poly must be of type Poly2, got str"),
    (SmoothProjectiveLeaf, (1, Poly2(), True), "name must be of type str, got int"),
    (SmoothProjectiveLeaf, ("x", Poly2(), 1), "countable must be of type bool, got int"),
    (ToricFan, ([1],), "fan must be of type Fan, got list"),
]


@pytest.mark.parametrize("function, args, message", INDEX_TYPE_CASES, ids=[
    f"{function.__name__}({','.join(map(repr, args))})" for function, args, _ in INDEX_TYPE_CASES
])
def test_indices_must_be_ints(function, args, message):
    """Every index argument is an int, not merely a number that compares or
    multiplies like one: 3.0 would give 7.0, True would be taken as 1.  Every
    ring value or record argument is of exactly its type too."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        function(*args)


def test_prime_power():
    assert PrimePower.from_int(8) == PrimePower(8, 2, 3)
    # a 31-bit prime
    assert PrimePower.from_int(2147483647) == PrimePower(2147483647, 2147483647, 1)
    assert PrimePower.from_int(7).is_prime
    assert not PrimePower.from_int(9).is_prime
    with pytest.raises(DomainError):
        PrimePower.from_int(12)
    with pytest.raises(DomainError):
        PrimePower.from_int(1)
    assert [n for n in range(30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    # 64-bit bases, by perfect-power detection and Miller-Rabin
    assert PrimePower.from_int(2**61 - 1) == PrimePower(2**61 - 1, 2**61 - 1, 1)
    assert PrimePower.from_int(3**40) == PrimePower(3**40, 3, 40)
    assert PrimePower.from_int(2**64) == PrimePower(2**64, 2, 64)
    largest = 2**64 - 59  # the largest prime below 2^64
    assert PrimePower.from_int(largest**3) == PrimePower(largest**3, largest, 3)
    # a Carmichael number, and a strong pseudoprime to bases 2, 3, 5 and 7
    for composite in (561, 3215031751, (2**61 - 1) * 3):
        assert not is_prime(composite)
        with pytest.raises(DomainError, match="not a prime power"):
            PrimePower.from_int(composite)
    # a power of a composite, too long to format, is named by its root
    with pytest.raises(DomainError, match="^6\\^10000 is not a prime power$"):
        PrimePower.from_int(6**10000)
    # bases at or above 2^64 are refused, prime or not
    # 2^30000 + 1 has more digits than the interpreter prints: the message
    # gives q's bits, where formatting q raised a bare ValueError
    for q in (2**64 + 13, (2**64 + 13) ** 2, 10**4000 + 1, 2**30000 + 1):
        with pytest.raises(DomainError, match="below 2\\^64"):
            PrimePower.from_int(q)
    with pytest.raises(DomainError):
        is_prime(2**64 + 13)


_powers = st.builds(pow, st.sampled_from([2, 3, 5, 7, 31, 997, 3 * 5]), st.integers(1, 19))


@given(st.one_of(st.integers(2, 10**6 - 1), _powers.filter(lambda q: q < 10**6)))
def test_prime_power_agrees_with_trial_division(q):
    expected = trial_division_prime_power(q)
    assert is_prime(q) == (expected is not None and expected[1] == 1)
    if expected is None:
        with pytest.raises(DomainError):
            PrimePower.from_int(q)
    else:
        assert PrimePower.from_int(q) == PrimePower(q, *expected)


def test_census_checks_field_cap_before_primality():
    with pytest.raises(DomainError, match="too large"):
        rref_cell_census(1, 2, 10**30 + 57)


def test_toric_count_examples():
    assert toric_count(P2, 2, 1) == 7
    assert toric_count(A2, 3, 1) == 9
    assert toric_count(P1XP1, 2) == 9
    # quadratic extension of the line: 4+1 points
    assert toric_count(P1, 2, 2) == 5


def test_toric_count_matches_brute_force():
    # the plane's fan and G(1,3) count the same points
    for q in (2, 3, 5):
        assert toric_count(P2, q) == grassmannian_count_brute(1, 3, q)


def test_toric_count_domain():
    with pytest.raises(DomainError):
        toric_count(P2, 1, 1)
    with pytest.raises(DomainError):
        toric_count(P2, 2, 0)


def test_congruence_examples():
    # CongruenceReport(q, expected mod q, expected mod q-1, actual count)
    r = CongruenceReport(3, 1, 6, 130)
    assert r.mod_q_ok and r.mod_q_minus_1_ok and r.ok and r.testable
    r = CongruenceReport(2, 1, 3, 7)
    assert r.mod_q_ok and r.mod_q_minus_1_ok  # mod 1 is vacuous
    r = CongruenceReport(3, 1, 2, 4)
    assert r.mod_q_ok and r.mod_q_minus_1_ok


def test_congruence_failure_detected():
    r = CongruenceReport(3, 1, 6, 131)
    assert not r.mod_q_ok
    assert not r.ok


@given(st.integers(0, 10**9), st.integers(2, 97))
def test_congruence_self_residues(a, q):
    r = CongruenceReport(q, a % q, a % (q - 1) if q > 2 else 0, a)
    assert r.mod_q_ok
    assert r.mod_q_minus_1_ok


def test_congruence_json_shape():
    r = CongruenceReport(3, 1, 6, 130)
    data = r.to_json()
    assert data["actual"] == 130
    assert data["mod_q_ok"] is True
    assert data["testable"] is True
