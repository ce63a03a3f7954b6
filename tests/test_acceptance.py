"""Acceptance gate: one test per shipped claim, each printing a pass line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines; each test also enforces its own time budget where
one is stated.
"""

import itertools
import time
from math import comb

from cyclemotive.chow import (
    ChowIndex,
    chow_congruence_targets,
    chow_htilde,
    chow_invariant_closed,
    chow_invariant_recursive,
    chow_series,
    euler_chow_product_formula,
    euler_chow_product_recursive,
    irreducible_invariant,
    irreducible_invariant_product,
    multidegree_slots,
)
from cyclemotive.ffcount import (
    gaussian_binomial,
    grassmannian_count_brute,
    toric_count,
)
from cyclemotive.motive import (
    ELLIPTIC,
    EULER,
    AffineSpace,
    Cone,
    Difference,
    DisjointUnion,
    Grassmannian,
    ProjSpace,
    ToricFan,
    Torus,
    eval_count_poly,
    eval_E,
    eval_measure,
    hodge_constraints_check,
)
from cyclemotive.ring import (
    Laurent1,
    quotient_uv,
    quotient_uv_minus1,
    specialize,
)
from cyclemotive.toric import (
    euler_series,
    fan_validate,
    projective_fan,
    toric_E_poly,
    toric_lambda,
)
from cyclemotive.verify import builtin_fans

FANS = builtin_fans()


def report(number: int, text: str, started: float | None = None) -> None:
    stamp = f" ({time.perf_counter() - started:.2f}s)" if started else ""
    print(f"criterion {number}: PASS{stamp} - {text}")


def test_criterion_01_cycle_euler_grid():
    started = time.perf_counter()
    cases = 0
    for n in range(7):
        for p in range(n + 1):
            v = comb(n + 1, p + 1)
            for d in range(11):
                idx = ChowIndex(p, d, n)
                expected = comb(v + d - 1, d)
                assert chow_invariant_closed(idx) == expected
                assert chow_invariant_recursive(idx) == expected
                cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert cases == 308
    report(1, f"recursion equals closed form on {cases} grid points", started)


def test_criterion_02_generating_series():
    started = time.perf_counter()
    for n in range(6):
        for p in range(n + 1):
            series = chow_series(p, n, 8)
            for d in range(9):
                assert series.coefficient((d,)) == chow_invariant_closed(
                    ChowIndex(p, d, n))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, "series coefficients match the closed form through degree 8",
           started)


def test_criterion_03_hodge_example_class():
    started = time.perf_counter()
    expr = Difference(
        DisjointUnion(Cone(ELLIPTIC), ProjSpace(2)), ELLIPTIC)
    h = eval_E(expr)
    assert str(h) == "1+u+v+uv-u^2*v-u*v^2+2u^2*v^2"
    assert specialize(h, 1, 1) == 4
    assert eval_measure(expr, EULER) == 4
    betti1 = h.coefficient(1, 0) + h.coefficient(0, 1)
    assert betti1 == 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(3, "glued-cone class gives the stated polynomial, euler 4, "
              "first virtual betti number 2", started)


def test_criterion_04_quotient_measures():
    started = time.perf_counter()
    assert quotient_uv_minus1(eval_E(Torus(1))) == Laurent1()
    assert quotient_uv(eval_E(AffineSpace(1))).is_zero()
    for n in range(7):
        for p in range(n + 1):
            for d in range(11):
                idx = ChowIndex(p, d, n)
                image = chow_htilde(idx)
                assert image == Laurent1.constant(chow_invariant_closed(idx))
    report(4, "multiplicative group dies mod uv-1, additive group dies "
              "mod uv, cycle-space images are constants", started)


def test_criterion_05_hodge_constraints():
    started = time.perf_counter()
    for n in range(6):
        rep = hodge_constraints_check(eval_E(ProjSpace(n)), n + 1, 0)
        assert rep.ok, rep.to_json()
    for n in range(1, 7):
        for k in range(1, n + 1):
            rep = hodge_constraints_check(
                eval_E(Grassmannian(k, n)), comb(n, k), 0)
            assert rep.ok, rep.to_json()
    report(5, "antidiagonal, euler, and axis constraints hold on "
              "projective spaces and subspace parameter spaces", started)


def test_criterion_06_toric_fixture_fans():
    started = time.perf_counter()
    for name, fan in FANS.items():
        census = fan_validate(fan)
        lam = toric_lambda(fan)
        assert lam == census[fan.dim]
        assert specialize(toric_E_poly(fan), 1, 1) == lam
        poly = eval_count_poly(ToricFan(fan))
        for q in (2, 3):
            assert toric_count(fan, q) == poly.evaluate(q), name
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(6, f"lambda, specialized polynomial, and point counts agree on "
              f"{len(FANS)} fans", started)


def test_criterion_07_euler_series_cross_checks():
    started = time.perf_counter()
    for n in range(4):
        fan = projective_fan(n)
        for p in range(n + 1):
            via_fan = euler_series(fan, p, 6, lambda desc: (1,))
            via_formula = chow_series(p, n, 6)
            assert dict(via_fan.terms) == dict(via_formula.terms)
    pairs = 0
    for n in range(3):
        for m in range(3):
            for p in range(n + m + 1):
                for order in range(6):
                    lhs = euler_chow_product_recursive(p, n, m, order)
                    rhs = euler_chow_product_formula(p, n, m, order)
                    assert dict(lhs.terms) == dict(rhs.terms)
                    pairs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(7, f"fan expansions match cycle series; product recursion "
              f"matches the product formula on {pairs} cases", started)


def test_criterion_08_finite_field_oracle():
    started = time.perf_counter()
    for n in range(6):
        for k in range(n + 1):
            for q in (2, 3, 5):
                assert grassmannian_count_brute(k, n, q) == \
                    gaussian_binomial(n, k, q)
    for n in range(7):
        for p in range(n + 1):
            for q in (2, 3, 4, 5, 7, 8, 9):
                count = gaussian_binomial(n + 1, p + 1, q)
                assert count % q == 1
                if q > 2:
                    assert count % (q - 1) == comb(n + 1, p + 1) % (q - 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(8, "matrix enumeration reproduces the product formula; "
              "residues match mod q and mod q-1", started)


def test_criterion_09_irreducible_loci():
    started = time.perf_counter()
    for n in range(6):
        for p in range(n + 1):
            for d in range(1, 5):
                expected = comb(n + 1, p + 1) if d == 1 else 0
                assert irreducible_invariant(p, d, n) == expected
    for n in range(3):
        for m in range(3):
            for p in range(n + m + 1):
                slots = multidegree_slots(p, n, m)
                for alpha in itertools.product(range(3), repeat=len(slots)):
                    value = irreducible_invariant_product(alpha, p, n, m)
                    if sum(alpha) == 1:
                        k, l = slots[alpha.index(1)]
                        assert value == comb(n + 1, k + 1) * comb(m + 1, l + 1)
                    else:
                        assert value == 0
    report(9, "irreducibility collapses to subspace counts in degree one "
              "and vanishes beyond", started)


def test_criterion_10_no_enumeration_beyond_degree_one():
    # Declared limit: point counts of cycle spaces with d > 1 are never
    # produced by enumeration here; reports carry expectations only.
    for d in (2, 3, 5):
        rep = chow_congruence_targets(ChowIndex(1, d, 3), 3)
        assert rep.actual is None
        assert not rep.testable
    print("criterion 10: DECLARED - cycle spaces of degree > 1 are never "
          "enumerated; coverage is the closed forms plus the degree-one "
          "subspace instances")
