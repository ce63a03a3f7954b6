"""Cycle-space invariants: three routes, product series, congruences."""

import math
import re
import time
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclemotive.chow import (
    ChowIndex,
    chow_congruence_targets,
    chow_htilde,
    chow_invariant_closed,
    chow_invariant_recursive,
    chow_series,
    coordinate_subspace_count,
    euler_chow_product_formula,
    euler_chow_product_recursive,
    irreducible_invariant,
    irreducible_invariant_product,
    multidegree_slots,
)
from cyclemotive import chow
from cyclemotive.chow import _lam_rows, _truncated_product
from cyclemotive.errors import WORK_BUDGET, BudgetError, DomainError
from cyclemotive.ffcount import gaussian_binomial_poly
from cyclemotive.motive import EULER, Grassmannian, eval_measure
from cyclemotive.ring import Laurent1, expand_inverse_product
from cyclemotive.toric import euler_series, projective_fan

from conftest import OVER_BUDGET, budget


def test_coordinate_subspace_count():
    assert coordinate_subspace_count(1, 3) == 6
    for n in range(7):
        assert coordinate_subspace_count(0, n) == n + 1
        assert coordinate_subspace_count(n, n) == 1
    with pytest.raises(DomainError):
        coordinate_subspace_count(3, 2)


def test_closed_form_examples():
    assert chow_invariant_closed(ChowIndex(1, 2, 3)) == 21
    assert chow_invariant_closed(ChowIndex(0, 2, 2)) == 6
    assert chow_invariant_closed(ChowIndex(4, 5, 4)) == 1
    assert chow_invariant_closed(ChowIndex(2, 0, 4)) == 1


def test_chow_index_validation():
    with pytest.raises(DomainError):
        ChowIndex(3, 1, 2)
    with pytest.raises(DomainError):
        ChowIndex(-1, 1, 2)
    with pytest.raises(DomainError):
        ChowIndex(1, -1, 2)


def test_recursion_examples():
    assert chow_invariant_recursive(ChowIndex(1, 2, 3)) == 21
    for d in range(8):
        assert chow_invariant_recursive(ChowIndex(0, d, 1)) == d + 1
    assert chow_invariant_recursive(ChowIndex(2, 0, 4)) == 1


def test_recursion_equals_closed_form_grid():
    for n in range(7):
        for p in range(n + 1):
            for d in range(11):
                idx = ChowIndex(p, d, n)
                assert chow_invariant_recursive(idx) == chow_invariant_closed(idx)


def test_recursion_deep_ambient_space():
    # the bottom-up table has no recursion depth limit
    idx = ChowIndex(0, 7, 2000)
    assert chow_invariant_recursive(idx) == chow_invariant_closed(idx)


def test_recursion_equals_closed_form_benchmark_scale():
    # degrees and ambient dimensions where the packed slots are hundreds of
    # bits wide and the rows hundreds of entries long; at p = 1 (the
    # benchmark's deepest curves) every row is running sums; at (6, 400, 8)
    # five rows take their first cone step as running sums and four
    # multiply.  Both routes share one budget, as under `chow --method both`.
    for p, d, n in [(6, 227, 11), (1, 316, 20), (1, 358, 15), (1, 400, 12),
                    (3, 400, 6), (5, 257, 10), (0, 400, 20), (3, 311, 10), (6, 400, 8)]:
        idx = ChowIndex(p, d, n)
        with budget(WORK_BUDGET):
            assert chow_invariant_recursive(idx) == chow_invariant_closed(idx)


def test_recursion_uses_no_formula(monkeypatch):
    """The recursion is the closed form's independent check, so it must
    reach its numbers without binomials or the inverse-product expansion."""
    def refuse(*args, **kwargs):
        raise AssertionError("the recursion used the formula route")

    monkeypatch.setattr(chow, "comb", refuse)
    monkeypatch.setattr(chow, "expand_inverse_product", refuse)
    for n in range(7):
        for p in range(n + 1):
            for d in range(11):
                chow_invariant_recursive(ChowIndex(p, d, n))


@pytest.mark.parametrize("call, run", [
    (lambda: coordinate_subspace_count(500000, 1000000), []),
    (lambda: chow_invariant_closed(ChowIndex(0, 10**6, 10**6)), [(10**6 + 1, 1), (1, 1)]),
], ids=["subspace-count", "closed-form"])
def test_oversized_binomials_are_refused_before_they_run(monkeypatch, call, run):
    """math.comb is charged from a bound on its result before it runs:
    uncharged, binom(1000001, 500001) took 8.7 s and the closed form at
    p = 0, d = n = 10^6 took 31.7 s.  Only the cheap binomials run."""
    calls = []

    def spy(n, k):
        calls.append((n, k))
        return math.comb(n, k)

    monkeypatch.setattr(chow, "comb", spy)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=f"^{OVER_BUDGET}$"):
        call()
    assert time.perf_counter() - start < 2
    assert calls == run


@pytest.fixture
def product_calls(monkeypatch):
    """The argument triples of every chow._truncated_product call."""
    calls = []
    truncated_product = chow._truncated_product

    def counted(*args):
        calls.append(args)
        return truncated_product(*args)

    monkeypatch.setattr(chow, "_truncated_product", counted)
    return calls


def test_zero_and_one_cycles_take_running_sums_only(product_calls):
    """A convolution with a 0-cycle row is taken as running sums, so the
    recursion for p <= 1 multiplies no rows; p = 2 still does from n = 5."""
    for n in range(7):
        for p in range(min(n, 1) + 1):
            for d in range(11):
                chow_invariant_recursive(ChowIndex(p, d, n))
    chow_invariant_recursive(ChowIndex(1, 316, 20))
    assert product_calls == []
    chow_invariant_recursive(ChowIndex(2, 3, 5))
    assert product_calls


def test_first_cone_convolutions_take_running_sums(product_calls):
    """The row (k, 0) at ambient dimension k + 1 convolves a 0-cycle row,
    so it is running sums too: with n <= p + 1 the table multiplies no
    rows, and at (6, 227, 11) one product per k >= 2 is left out of 24."""
    for n in range(9):
        for p in range(max(0, n - 1), n + 1):
            for d in range(6):
                chow_invariant_recursive(ChowIndex(p, d, n))
    chow_invariant_recursive(ChowIndex(6, 400, 7))
    assert product_calls == []
    chow_invariant_recursive(ChowIndex(6, 227, 11))
    assert len(product_calls) == 19


def _schoolbook_product(a, b, d):
    return [sum(a[i] * b[e - i] for i in range(e + 1)) for e in range(d + 1)]


@st.composite
def row_pairs(draw):
    d = draw(st.integers(0, 40))
    entry = st.one_of(st.just(0), st.integers(0, 15), st.integers(0, 2**4000))
    a = draw(st.lists(entry, min_size=d + 1, max_size=d + 3))
    b = draw(st.lists(entry, min_size=d + 1, max_size=d + 3))
    return a, b, d


def _all_max(k, d):
    return [2**k - 1] * (d + 1)


_RISING = [2 ** (97 * i) - 1 for i in range(41)]


def _zero_parity(row, parity):
    return [0 if i % 2 == parity else c for i, c in enumerate(row)]


@settings(deadline=None)
@given(row_pairs())
# rows where the slot width is tight: every term at its largest ...
@example((_all_max(8, 0), _all_max(8, 0), 0))
@example((_all_max(64, 1), _all_max(64, 1), 1))
@example((_all_max(4000, 40), _all_max(4000, 40), 40))
@example((_all_max(1, 40), _all_max(7, 40), 40))
# ... at odd d, where the even and the odd half have the same length ...
@example((_all_max(64, 39), _all_max(64, 39), 39))
@example((_all_max(4000, 3), _all_max(4000, 3), 3))
# ... at d = 0, where the odd half is empty, and d = 1, where it is one entry ...
@example(([2**64 - 1, 2**500], [2**64 - 1, 7], 0))
@example(([3, 2**200 - 1, 5], [2**200 - 1, 2**200 - 1], 1))
# ... the large entries of one row meeting the small ones of the other ...
@example((_RISING, _RISING[::-1], 40))
@example((_RISING[::-1], _RISING, 40))
# ... and rows of zeros, which need no bits of their own
@example(([0] * 41, _RISING, 40))
@example(([0], [0], 0))
# ... and rows whose odd or even entries are all zero
@example((_zero_parity(_RISING, 1), _RISING, 40))
@example((_RISING, _zero_parity(_RISING[::-1], 1), 40))
@example((_zero_parity(_RISING, 0), _zero_parity(_RISING[::-1], 0), 40))
@example((_zero_parity(_all_max(64, 39), 1), _zero_parity(_all_max(64, 39), 0), 39))
def test_packed_product_equals_schoolbook(rows):
    a, b, d = rows
    assert _truncated_product(a, b, d) == _schoolbook_product(a, b, d)


def test_lam_rows_equal_schoolbook_table():
    # table[n][p] = [lambda(p, e, n) for e <= 30], by the plain hyperplane
    # and cone recursion with schoolbook convolutions
    top = 30
    table = [[[1] * (top + 1)] + [[1] + [0] * top] * 6]
    for n in range(1, 9):
        below = table[-1]
        table.append([list(accumulate(below[0]))] + [
            _schoolbook_product(below[p], below[p - 1], top) for p in range(1, 7)
        ])
    for n in range(9):
        for p in range(7):
            for low in range(p + 2):  # low = p + 1 asks for no rows
                for d in range(top + 1):
                    assert _lam_rows(low, p, n, d) == [
                        row[: d + 1] for row in table[n][low : p + 1]
                    ]


def test_series_examples():
    s = chow_series(1, 2, 2)
    assert [s.coefficient((d,)) for d in range(3)] == [1, 3, 6]
    s = chow_series(0, 1, 3)
    assert [s.coefficient((d,)) for d in range(4)] == [1, 2, 3, 4]
    s = chow_series(1, 3, 2)
    assert [s.coefficient((d,)) for d in range(3)] == [1, 6, 21]


def test_series_matches_closed_form_grid():
    for n in range(6):
        for p in range(n + 1):
            s = chow_series(p, n, 8)
            for d in range(9):
                assert s.coefficient((d,)) == chow_invariant_closed(ChowIndex(p, d, n))


def test_series_huge_multiplicity():
    # v = C(31, 16) is about 3e8; the expansion must not scale with v
    s = chow_series(15, 30, 3)
    assert [s.coefficient((d,)) for d in range(4)] == [
        chow_invariant_closed(ChowIndex(15, d, 30)) for d in range(4)
    ]


def test_series_partial_sums():
    # consistency of the truncation, not convergence: partial sums agree
    for (p, n, order) in [(1, 3, 6), (0, 2, 8), (2, 4, 5)]:
        s = chow_series(p, n, order)
        total = sum(s.terms.values())
        assert total == sum(
            chow_invariant_closed(ChowIndex(p, d, n)) for d in range(order + 1)
        )


def test_htilde_is_constant_euler_number():
    assert chow_htilde(ChowIndex(1, 2, 3)) == Laurent1({0: 21})
    assert chow_htilde(ChowIndex(0, 1, 1)) == Laurent1({0: 2})
    assert chow_htilde(ChowIndex(2, 3, 2)) == Laurent1({0: 1})
    for n in range(5):
        for p in range(n + 1):
            for d in range(6):
                img = chow_htilde(ChowIndex(p, d, n))
                assert img == Laurent1({0: chow_invariant_closed(ChowIndex(p, d, n))})


def test_irreducible_invariant():
    assert irreducible_invariant(1, 1, 3) == 6
    assert irreducible_invariant(1, 2, 3) == 0
    for n in range(6):
        assert irreducible_invariant(0, 1, n) == n + 1
    for n in range(6):
        for p in range(n + 1):
            assert irreducible_invariant(p, 1, n) == coordinate_subspace_count(p, n)
            assert irreducible_invariant(p, 1, n) == eval_measure(
                Grassmannian(p + 1, n + 1), EULER
            )
            for d in range(2, 5):
                assert irreducible_invariant(p, d, n) == 0
    with pytest.raises(DomainError):
        irreducible_invariant(1, 0, 3)
    with pytest.raises(DomainError):
        irreducible_invariant(3, 1, 2)


def test_multidegree_slots():
    assert multidegree_slots(1, 1, 1) == [(0, 1), (1, 0)]
    assert multidegree_slots(2, 2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert multidegree_slots(1, 1, 0) == [(1, 0)]
    assert multidegree_slots(0, 3, 2) == [(0, 0)]
    assert multidegree_slots(3, 2, 1) == [(2, 1)]
    with pytest.raises(DomainError):
        multidegree_slots(-1, 0, 0)


def test_irreducible_invariant_product():
    a = (0, 1)  # slots (0,1), (1,0): the unit vector at (1,0)
    assert irreducible_invariant_product(a, 1, 1, 1) == 2
    b = (0, 1, 0)  # slots (0,2), (1,1), (2,0): the unit vector at (1,1)
    assert irreducible_invariant_product(b, 2, 2, 2) == 9
    doubled = tuple(2 * x for x in a)
    assert irreducible_invariant_product(doubled, 1, 1, 1) == 0
    assert irreducible_invariant_product((0, 0), 1, 1, 1) == 0
    with pytest.raises(DomainError):
        irreducible_invariant_product((1, 0, 0), 1, 1, 1)  # wrong length
    with pytest.raises(DomainError):
        irreducible_invariant_product((1, -1), 1, 1, 1)
    for alpha, p, n, m in [((1.0, 0), 1, 1, 1), (("x",), 0, 0, 0), ((True, 0), 1, 1, 1)]:
        with pytest.raises(DomainError, match="^multidegree entries must be non-negative ints$"):
            irreducible_invariant_product(alpha, p, n, m)


def test_irreducible_product_full_unit_grid():
    for n in range(3):
        for m in range(3):
            for p in range(n + m + 1):
                slots = multidegree_slots(p, n, m)
                for i, (k, l) in enumerate(slots):
                    alpha = tuple(1 if j == i else 0 for j in range(len(slots)))
                    assert irreducible_invariant_product(alpha, p, n, m) == math.comb(
                        n + 1, k + 1
                    ) * math.comb(m + 1, l + 1)


def test_product_formula_quadric_lines():
    s = euler_chow_product_formula(1, 1, 1, 4)
    assert s == expand_inverse_product([((1, 0), 2), ((0, 1), 2)], arity=2, order=4)
    for i in range(4):
        for j in range(4):
            if i + j <= 4:
                assert s.coefficient((i, j)) == (i + 1) * (j + 1)


def test_product_formula_collapses_to_plain_series():
    # second factor a point: single slot, same series as the plain one
    for n in range(4):
        for p in range(n + 1):
            assert euler_chow_product_formula(p, n, 0, 6) == chow_series(p, n, 6)


def test_product_formula_zero_cycles():
    s = euler_chow_product_formula(0, 2, 0, 5)
    for d in range(6):
        assert s.coefficient((d,)) == math.comb(d + 2, 2)


def test_product_formula_top_class():
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        s = euler_chow_product_formula(n + m, n, m, 5)
        assert s.arity == 1
        assert all(c == 1 for c in s.terms.values())
        assert len(s.terms) == 6


def test_product_recursive_examples():
    assert euler_chow_product_recursive(1, 1, 1, 4) == euler_chow_product_formula(
        1, 1, 1, 4
    )
    s = euler_chow_product_recursive(0, 1, 0, 5)
    for d in range(6):
        assert s.coefficient((d,)) == d + 1
    s = euler_chow_product_recursive(1, 1, 0, 3)
    assert all(c == 1 for c in s.terms.values())
    assert len(s.terms) == 4


# every p for n, m <= 4: takes in slots that start empty (p > m) and order 0
PRODUCT_GRID = [
    (p, n, m, order)
    for n in range(5)
    for m in range(5)
    for p in range(n + m + 1)
    for order in range(7)
]


def test_product_recursive_equals_formula_grid():
    for shape in PRODUCT_GRID:
        assert euler_chow_product_recursive(*shape) == euler_chow_product_formula(*shape)


def test_product_recursive_uses_no_formula(monkeypatch):
    """The recursion is the formula's independent check, so it must reach
    its numbers without binomials or the inverse-product expansion."""
    def refuse(*args, **kwargs):
        raise AssertionError("the product recursion used the formula route")

    monkeypatch.setattr(chow, "comb", refuse)
    monkeypatch.setattr(chow, "expand_inverse_product", refuse)
    for shape in PRODUCT_GRID:
        euler_chow_product_recursive(*shape)


def test_product_recursive_builds_one_table(monkeypatch):
    """The rows pulled in from the second factor come from one table."""
    calls = []
    lam_rows = chow._lam_rows

    def counted(*args):
        calls.append(args)
        return lam_rows(*args)

    monkeypatch.setattr(chow, "_lam_rows", counted)
    for shape in PRODUCT_GRID:
        calls.clear()
        euler_chow_product_recursive(*shape)
        assert len(calls) == 1, shape


def test_product_recursive_zero_cycles_take_running_sums_only(product_calls):
    for shape in PRODUCT_GRID:
        if shape[0] == 0:
            euler_chow_product_recursive(*shape)
    assert product_calls == []


def test_product_recursive_one_cycles_multiply_once_per_step(product_calls):
    """At p = 1 only the slot (0, 1) row, times the second factor's row of
    1-cycles, is a product: the slot (1, 0) row is running sums."""
    for shape in PRODUCT_GRID:
        p, n, m, _ = shape
        if p == 1 and m >= 1:
            product_calls.clear()
            euler_chow_product_recursive(*shape)
            assert len(product_calls) == n, shape


def test_product_recursive_equals_formula_deep_shapes():
    for (p, n, m, order) in [(1, 2, 2, 42), (2, 2, 2, 24), (3, 3, 4, 12),
                             (0, 4, 5, 180), (1, 2, 3, 38)]:
        assert euler_chow_product_recursive(
            p, n, m, order
        ) == euler_chow_product_formula(p, n, m, order)


def test_no_library_series_is_checked_twice(series_checks):
    """The series builders check their input once and wrap the maps they
    build: none hands a whole term map back to the constructor."""
    chow_series(1, 3, 12)
    euler_chow_product_formula(1, 2, 2, 8)
    euler_chow_product_recursive(1, 2, 2, 8)
    fan = projective_fan(3)
    euler_series(fan, 1, 8)
    euler_series(fan, 1, 8, grading=lambda d: (1,))
    assert series_checks == []


@pytest.mark.parametrize("p, n, m, message", [
    (5, 1, 1, "need 0 <= p <= n+m, got p=5, n=1, m=1"),
    (-1, 1, 1, "need 0 <= p <= n+m, got p=-1, n=1, m=1"),
    (0, -1, 2, "need 0 <= p <= n+m, got p=0, n=-1, m=2"),
    (0, 2, -1, "need 0 <= p <= n+m, got p=0, n=2, m=-1"),
    (3, 2, 0, "need 0 <= p <= n, got p=3, n=2"),
    (0, -1, 0, "need 0 <= p <= n, got p=0, n=-1"),
], ids=["p-above-n+m", "negative-p", "negative-n", "negative-m", "m=0-p-above-n", "m=0-negative-n"])
def test_one_index_rule(p, n, m, message):
    """Every function that takes a cycle index refuses a bad one with the
    message of multidegree_slots; at m = 0 so do the single-space ones."""
    calls = [
        lambda: multidegree_slots(p, n, m),
        lambda: irreducible_invariant_product((), p, n, m),
        lambda: euler_chow_product_formula(p, n, m, 3),
        lambda: euler_chow_product_recursive(p, n, m, 3),
    ]
    if m == 0:
        calls += [
            lambda: coordinate_subspace_count(p, n),
            lambda: chow_series(p, n, 3),
            lambda: irreducible_invariant(p, 1, n),
            lambda: ChowIndex(p, 1, n),
        ]
    for call in calls:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()


def test_product_domain():
    with pytest.raises(DomainError):
        euler_chow_product_formula(4, 1, 1, 3)
    with pytest.raises(DomainError):
        euler_chow_product_recursive(-1, 1, 1, 3)
    for route in (euler_chow_product_formula, euler_chow_product_recursive):
        with pytest.raises(DomainError, match="^truncation order must be non-negative$"):
            route(1, 1, 1, -1)


def test_fan_series_matches_chow_series():
    """Orbit-closure product route vs closed-form route on the fans of
    projective spaces: the invariant subvarieties of dimension p are the
    coordinate subspaces, so grading them all by plain degree must
    reproduce the cycle-space series."""
    for n in range(1, 4):
        fan = projective_fan(n)
        for p in range(n + 1):
            assert euler_series(fan, p, order=6, grading=lambda d: (1,)) == chow_series(
                p, n, 6
            )


def test_congruence_targets_degree_one():
    r = chow_congruence_targets(ChowIndex(0, 1, 1), 3)
    assert r.actual == 4
    assert r.mod_q_ok and r.mod_q_minus_1_ok and r.ok

    r = chow_congruence_targets(ChowIndex(1, 1, 3), 3)
    assert r.actual == 130
    assert r.expected_mod_q_minus_1 == 6
    assert r.mod_q_ok and r.mod_q_minus_1_ok

    # quadratic extensions still reduce mod q and mod q-1
    r = chow_congruence_targets(ChowIndex(0, 1, 1), 2, m=2)
    assert r.actual == 5
    assert r.ok
    r = chow_congruence_targets(ChowIndex(0, 1, 1), 3, m=2)
    assert r.actual == 10
    assert r.ok
    # [4, 2] at 2^4000 has 4817 digits: the CLI's printer refuses it
    x = 2**4000
    r = chow_congruence_targets(ChowIndex(1, 1, 3), 2, m=4000)
    assert r.actual == (x**4 - 1) * (x**3 - 1) // ((x**2 - 1) * (x - 1))


def test_congruence_targets_degree_one_grid():
    for n in range(5):
        for p in range(n + 1):
            for q in (2, 3, 4, 5):
                for m in (1, 2):
                    r = chow_congruence_targets(ChowIndex(p, 1, n), q, m)
                    assert r.testable
                    assert r.ok, (p, n, q, m)
                    # the Pascal route shares nothing with the product formula
                    assert r.actual == gaussian_binomial_poly(n + 1, p + 1).evaluate(q**m)


def test_congruence_targets_higher_degree_untestable():
    r = chow_congruence_targets(ChowIndex(1, 2, 3), 2)
    assert r.actual is None
    assert not r.testable
    assert r.ok is None and r.mod_q_ok is None
    assert r.expected_mod_q == 1
    assert r.expected_mod_q_minus_1 == 21
    assert "untestable" in r.note


def test_congruence_targets_degree_zero():
    r = chow_congruence_targets(ChowIndex(2, 0, 3), 5)
    assert r.actual == 1
    assert r.ok


def test_congruence_targets_domain():
    with pytest.raises(DomainError):
        chow_congruence_targets(ChowIndex(1, 1, 2), 6)
    with pytest.raises(DomainError):
        chow_congruence_targets(ChowIndex(1, 1, 2), 3, 0)
