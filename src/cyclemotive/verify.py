"""Built-in verification suites: every headline identity, re-derived.

Each suite runs a family of checks and returns one dict per check, with
keys `name`, `ok`, `cases`, `values` and `failures`; the CLI renders them
and turns any failure into a nonzero exit.  Suites rebuild their own
fixtures so they do not depend on the test tree.

Every check is one `_agree` call: it compares a route with a reference
over cases of JSON data, and each failure record has the one shape
`{"args": [...case], "got", "want"}`.  A check of one computed value has
the single case `()`.
"""

from __future__ import annotations

from math import comb

from ._record import _json
from .chow import (
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
from .errors import DomainError
from .ffcount import gaussian_binomial, grassmannian_count_brute, toric_count
from .motive import (
    ELLIPTIC,
    EULER,
    H_BAR,
    H_TILDE,
    AffineSpace,
    Cone,
    Difference,
    DisjointUnion,
    Grassmannian,
    ProjSpace,
    ToricFan,
    Torus,
    eval_E,
    eval_count_poly,
    eval_measure,
    hodge_constraints_check,
)
from .ring import Laurent1, Poly2, parse_poly2, specialize
from .toric import (
    Fan,
    affine_fan,
    euler_series,
    product_fan,
    projective_fan,
    toric_E_poly,
    toric_lambda,
)


def _agree(name: str, cases: list[tuple], route, reference,
           values: dict | None = None) -> dict:
    """Check route(*case) == reference(*case) on every case, each of JSON
    data, and report the check with `values`, written by `_record._json`.
    The first five failures are kept, each as {"args": [...case], "got", "want"}."""
    failures = []
    for case in cases:
        got, want = route(*case), reference(*case)
        if got != want:
            failures.append({"args": case, "got": got, "want": want})
    return _json({
        "name": name,
        "ok": not failures,
        "cases": len(cases),
        "values": {} if values is None else values,
        "failures": failures[:5],
    })


# (p, d, n): p-cycles of degree d in P^n.
_PDN_GRID = [(p, d, n) for n in range(7) for p in range(n + 1) for d in range(11)]
# (p, n, m): p-cycles in P^n x P^m.
_PNM_GRID = [(p, n, m) for n in range(3) for m in range(3) for p in range(n + m + 1)]


def _closed(p, d, n):
    return chow_invariant_closed(ChowIndex(p, d, n))


def suite_lawson_yau() -> list[dict]:
    return [
        _agree("recursion equals closed form", _PDN_GRID,
               lambda p, d, n: chow_invariant_recursive(ChowIndex(p, d, n)), _closed),
        _agree("closed form equals binomial", _PDN_GRID,
               _closed, lambda p, d, n: comb(comb(n + 1, p + 1) + d - 1, d)),
    ]


def suite_series() -> list[dict]:
    series = {(p, n): chow_series(p, n, 8) for n in range(6) for p in range(n + 1)}
    cases = [(p, d, n) for p, n in series for d in range(9)]
    return [_agree("series coefficients equal closed form", cases,
                   lambda p, d, n: series[p, n].coefficient((d,)), _closed)]


def suite_hodge_remark() -> list[dict]:
    expr = Difference(DisjointUnion(Cone(ELLIPTIC), ProjSpace(2)), ELLIPTIC)
    value = eval_E(expr)
    expected = parse_poly2("1+u+v+uv-u^2*v-u*v^2+2u^2*v^2")
    euler = specialize(value, 1, 1)
    betti1 = value.coefficient(1, 0) + value.coefficient(0, 1)
    return [
        _agree("glued-cone class reproduced", [()], lambda: value, lambda: expected,
               {"e_poly": value}),
        _agree("euler number is 4", [()], lambda: euler, lambda: 4, {"euler": euler}),
        _agree("first virtual betti number is 2", [()], lambda: betti1, lambda: 2,
               {"betti1": betti1}),
    ]


def suite_quotients() -> list[dict]:
    torus_image = eval_measure(Torus(1), H_TILDE)
    affine_image = eval_measure(AffineSpace(1), H_BAR)
    return [
        _agree("multiplicative group dies mod uv-1", [()], lambda: torus_image, Laurent1,
               {"image": torus_image}),
        _agree("additive group dies mod uv", [()], lambda: affine_image, Poly2),
        _agree("cycle-space image is the constant Euler number", _PDN_GRID,
               lambda p, d, n: chow_htilde(ChowIndex(p, d, n)),
               lambda p, d, n: Laurent1({0: _closed(p, d, n)})),
    ]


def suite_hodge_constraints() -> list[dict]:
    def verdicts(expr, euler):
        report = hodge_constraints_check(eval_E(expr), euler, 0)
        return [report.antidiagonals_ok, report.euler_ok, report.axes_ok]

    def all_hold(*case):
        return [True] * 3

    spaces = [(n,) for n in range(6)]
    grassmannians = [(k, n) for n in range(1, 7) for k in range(1, n + 1)]
    return [
        _agree("projective spaces pass all three constraints", spaces,
               lambda n: verdicts(ProjSpace(n), n + 1), all_hold),
        _agree("grassmannians pass all three constraints", grassmannians,
               lambda k, n: verdicts(Grassmannian(k, n), comb(n, k)), all_hold),
    ]


def builtin_fans() -> dict[str, Fan]:
    hirzebruch = Fan(
        2,
        ((1, 0), (0, 1), (-1, 1), (0, -1)),
        ((0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3)),
    )
    return {
        "p1": projective_fan(1),
        "p2": projective_fan(2),
        "p3": projective_fan(3),
        "p1xp1": product_fan(projective_fan(1), projective_fan(1)),
        "hirzebruch1": hirzebruch,
        "a2": affine_fan(2),
    }


def suite_toric() -> list[dict]:
    fans = builtin_fans()
    values = {
        name: {"census": fan.census, "lambda": toric_lambda(fan)}
        for name, fan in fans.items()
    }

    # Three cases per fan: lambda and E(1, 1) against the census (q None),
    # and the point count against the counting polynomial at q = 2 and 3.
    def route(name, q):
        fan = fans[name]
        if q is None:
            return [toric_lambda(fan), specialize(toric_E_poly(fan), 1, 1)]
        return toric_count(fan, q)

    def reference(name, q):
        fan = fans[name]
        if q is None:
            return [fan.census[fan.dim]] * 2
        return eval_count_poly(ToricFan(fan)).evaluate(q)

    cases = [(name, q) for name in fans for q in (None, 2, 3)]
    return [_agree("census, euler number, and point counts agree", cases, route, reference,
                   values)]


def suite_euler_chow() -> list[dict]:
    fans = {n: projective_fan(n) for n in range(1, 4)}
    projective = [(n, p) for n in fans for p in range(n + 1)]
    products = [(p, n, m, order) for p, n, m in _PNM_GRID for order in range(6)]
    return [
        _agree("fan orbit product equals cycle series on projective fans", projective,
               lambda n, p: euler_series(fans[n], p, order=6, grading=lambda d: (1,)),
               lambda n, p: chow_series(p, n, 6)),
        _agree("product recursion equals product formula", products,
               euler_chow_product_recursive, euler_chow_product_formula),
    ]


def suite_congruences() -> list[dict]:
    def residues(p, n, q):
        report = chow_congruence_targets(ChowIndex(p, 1, n), q)
        return [report.mod_q_ok, report.mod_q_minus_1_ok]

    subspaces = [(k, n, q) for n in range(6) for k in range(n + 1) for q in (2, 3, 5)]
    fields = (2, 3, 4, 5, 7, 8, 9)
    cycles = [(p, n, q) for n in range(7) for p in range(n + 1) for q in fields]
    sample_g24 = {}
    for q in fields:  # the lines of P^3, i.e. G(2, 4)
        count = chow_congruence_targets(ChowIndex(1, 1, 3), q).actual
        sample_g24[f"q={q}"] = {"count": count, "mod_q": count % q, "mod_q_minus_1": count % (q - 1)}
    return [
        _agree("brute-force subspace census equals formula", subspaces,
               grassmannian_count_brute, lambda k, n, q: gaussian_binomial(n, k, q)),
        _agree("linear cycle counts reduce to 1 mod q and binomial mod q-1", cycles,
               residues, lambda p, n, q: [True, True], {"sample_g24": sample_g24}),
    ]


def suite_irreducible() -> list[dict]:
    # the locus and, at degree 1, the Euler number of the Grassmannian of
    # linear cycles, each against the count of coordinate subspaces
    def locus(p, d, n):
        euler = eval_measure(Grassmannian(p + 1, n + 1), EULER) if d == 1 else 0
        return [irreducible_invariant(p, d, n), euler]

    def subspaces(p, d, n):
        return [coordinate_subspace_count(p, n) if d == 1 else 0] * 2

    def units(alpha, p, n, m):
        if sum(alpha) != 1:
            return 0
        k, l = multidegree_slots(p, n, m)[alpha.index(1)]
        return comb(n + 1, k + 1) * comb(m + 1, l + 1)

    product_cases = []
    for p, n, m in _PNM_GRID:
        k = len(multidegree_slots(p, n, m))
        basis = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
        vectors = basis + [[2 * a for a in unit] for unit in basis]
        if k >= 2:
            vectors.append([1] * k)
        vectors.append([0] * k)
        product_cases += [(alpha, p, n, m) for alpha in vectors]
    grid = [(p, d, n) for n in range(6) for p in range(n + 1) for d in range(1, 5)]
    return [
        _agree("irreducible locus values on the grid", grid, locus, subspaces),
        _agree("product irreducible locus: units and only units count", product_cases,
               irreducible_invariant_product, units),
    ]


SUITES = {
    "lawson-yau": suite_lawson_yau,
    "series": suite_series,
    "hodge-remark": suite_hodge_remark,
    "quotients": suite_quotients,
    "hodge-constraints": suite_hodge_constraints,
    "toric": suite_toric,
    "euler-chow": suite_euler_chow,
    "congruences": suite_congruences,
    "irreducible": suite_irreducible,
}


def run_suites(names: list[str] | None = None) -> dict:
    """Run the named suites (all of them by default) and collect a report.

    Check results inside each suite are sorted by name so the output is
    stable run to run.
    """
    if names is None:
        selected = sorted(SUITES)
    else:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise DomainError(f"unknown suite(s): {', '.join(unknown)}")
        selected = sorted(set(names))
    suites = []
    all_ok = True
    for name in selected:
        checks = sorted(SUITES[name](), key=lambda c: c["name"])
        ok = all(c["ok"] for c in checks)
        all_ok = all_ok and ok
        suites.append({"suite": name, "ok": ok, "checks": checks})
    return {"ok": all_ok, "suites": suites}
