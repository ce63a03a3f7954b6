"""Built-in verification suites: every headline identity, re-derived.

Each suite runs a family of checks and returns plain records; the CLI
renders them and turns any failure into a nonzero exit.  Suites rebuild
their own fixtures so they do not depend on the test tree.
"""

from __future__ import annotations

from math import comb

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
from .ring import Laurent1, format_poly2, parse_poly2, specialize
from .toric import (
    Fan,
    affine_fan,
    euler_series,
    product_fan,
    projective_fan,
    toric_E_poly,
    toric_lambda,
)


class CheckResult:
    def __init__(self, name: str, ok: bool, cases: int = 1,
                 values: dict | None = None, failures: list | None = None):
        self.name = name
        self.ok = ok
        self.cases = cases
        self.values = {} if values is None else values
        self.failures = [] if failures is None else failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "cases": self.cases,
            "values": self.values,
            "failures": self.failures,
        }


def _grid_check(name, triples, compute, expect) -> CheckResult:
    failures = []
    for t in triples:
        got = compute(*t)
        want = expect(*t)
        if got != want:
            failures.append({"args": list(t), "got": got, "want": want})
    return CheckResult(
        name, ok=not failures, cases=len(triples), failures=failures[:5]
    )


def suite_lawson_yau() -> list[CheckResult]:
    grid = [
        (p, d, n) for n in range(7) for p in range(n + 1) for d in range(11)
    ]
    return [
        _grid_check(
            "recursion equals closed form",
            grid,
            lambda p, d, n: chow_invariant_recursive(ChowIndex(p, d, n)),
            lambda p, d, n: chow_invariant_closed(ChowIndex(p, d, n)),
        ),
        _grid_check(
            "closed form equals binomial",
            grid,
            lambda p, d, n: chow_invariant_closed(ChowIndex(p, d, n)),
            lambda p, d, n: comb(comb(n + 1, p + 1) + d - 1, d),
        ),
    ]


def suite_series() -> list[CheckResult]:
    grid = [(p, n) for n in range(6) for p in range(n + 1)]
    failures = []
    cases = 0
    for p, n in grid:
        s = chow_series(p, n, 8)
        for d in range(9):
            cases += 1
            got = s.coefficient((d,))
            want = chow_invariant_closed(ChowIndex(p, d, n))
            if got != want:
                failures.append({"args": [p, d, n], "got": got, "want": want})
    return [
        CheckResult(
            "series coefficients equal closed form",
            ok=not failures,
            cases=cases,
            failures=failures[:5],
        )
    ]


def suite_hodge_remark() -> list[CheckResult]:
    expr = Difference(DisjointUnion(Cone(ELLIPTIC), ProjSpace(2)), ELLIPTIC)
    value = eval_E(expr)
    expected = parse_poly2("1+u+v+uv-u^2*v-u*v^2+2u^2*v^2")
    euler = specialize(value, 1, 1)
    betti1 = value.coefficient(1, 0) + value.coefficient(0, 1)
    return [
        CheckResult(
            "glued-cone class reproduced",
            ok=value == expected,
            values={"e_poly": format_poly2(value)},
        ),
        CheckResult("euler number is 4", ok=euler == 4, values={"euler": euler}),
        CheckResult(
            "first virtual betti number is 2",
            ok=betti1 == 2,
            values={"betti1": betti1},
        ),
    ]


def suite_quotients() -> list[CheckResult]:
    torus_image = eval_measure(Torus(1), H_TILDE)
    affine_image = eval_measure(AffineSpace(1), H_BAR)
    grid = [
        (p, d, n) for n in range(7) for p in range(n + 1) for d in range(11)
    ]
    failures = []
    for p, d, n in grid:
        img = chow_htilde(ChowIndex(p, d, n))
        want = Laurent1.constant(chow_invariant_closed(ChowIndex(p, d, n)))
        if img != want:
            failures.append({"args": [p, d, n], "got": str(img), "want": str(want)})
    return [
        CheckResult(
            "multiplicative group dies mod uv-1",
            ok=torus_image == Laurent1(),
            values={"image": "0" if torus_image.is_zero() else str(torus_image)},
        ),
        CheckResult(
            "additive group dies mod uv",
            ok=affine_image.is_zero(),
        ),
        CheckResult(
            "cycle-space image is the constant Euler number",
            ok=not failures,
            cases=len(grid),
            failures=failures[:5],
        ),
    ]


def suite_hodge_constraints() -> list[CheckResult]:
    results = []
    failures = []
    cases = 0
    for n in range(6):
        cases += 1
        report = hodge_constraints_check(
            eval_E(ProjSpace(n)), n + 1, 0
        )
        if not report.ok:
            failures.append({"variety": f"proj_space({n})", "report": report.to_json()})
    results.append(
        CheckResult(
            "projective spaces pass all three constraints",
            ok=not failures,
            cases=cases,
            failures=failures,
        )
    )
    failures = []
    cases = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            cases += 1
            g = Grassmannian(k, n)
            report = hodge_constraints_check(eval_E(g), comb(n, k), 0)
            if not report.ok:
                failures.append(
                    {"variety": f"grassmannian({k},{n})", "report": report.to_json()}
                )
    results.append(
        CheckResult(
            "grassmannians pass all three constraints",
            ok=not failures,
            cases=cases,
            failures=failures,
        )
    )
    return results


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


def suite_toric() -> list[CheckResult]:
    fans = builtin_fans()
    failures = []
    values = {}
    for name, fan in fans.items():
        census = fan.census
        lam = toric_lambda(fan)
        e_at_one = specialize(toric_E_poly(fan), 1, 1)
        values[name] = {"census": list(census), "lambda": lam}
        if lam != census[fan.dim] or e_at_one != lam:
            failures.append({"fan": name, "lambda": lam, "e_at_one": e_at_one})
        counts = eval_count_poly(ToricFan(fan))
        for q in (2, 3):
            if toric_count(fan, q) != counts.evaluate(q):
                failures.append(
                    {"fan": name, "q": q, "toric_count": toric_count(fan, q)}
                )
    return [
        CheckResult(
            "census, euler number, and point counts agree",
            ok=not failures,
            cases=len(fans) * 3,
            values=values,
            failures=failures,
        )
    ]


def suite_euler_chow() -> list[CheckResult]:
    failures = []
    cases = 0
    for n in range(1, 4):
        fan = projective_fan(n)
        for p in range(n + 1):
            cases += 1
            lhs = euler_series(fan, p, order=6, grading=lambda d: (1,))
            rhs = chow_series(p, n, 6)
            if lhs != rhs:
                failures.append({"fan": f"p{n}", "p": p})
    first = CheckResult(
        "fan orbit product equals cycle series on projective fans",
        ok=not failures,
        cases=cases,
        failures=failures,
    )
    failures = []
    cases = 0
    for n in range(3):
        for m in range(3):
            for p in range(n + m + 1):
                for order in range(6):
                    cases += 1
                    if euler_chow_product_recursive(
                        p, n, m, order
                    ) != euler_chow_product_formula(p, n, m, order):
                        failures.append({"p": p, "n": n, "m": m, "order": order})
    second = CheckResult(
        "product recursion equals product formula",
        ok=not failures,
        cases=cases,
        failures=failures,
    )
    return [first, second]


def suite_congruences() -> list[CheckResult]:
    failures = []
    cases = 0
    for n in range(6):
        for k in range(n + 1):
            for q in (2, 3, 5):
                cases += 1
                brute = grassmannian_count_brute(k, n, q)
                formula = gaussian_binomial(n, k, q)
                if brute != formula:
                    failures.append(
                        {"k": k, "n": n, "q": q, "brute": brute, "formula": formula}
                    )
    first = CheckResult(
        "brute-force subspace census equals formula",
        ok=not failures,
        cases=cases,
        failures=failures[:5],
    )
    failures = []
    residues = {}
    cases = 0
    for n in range(7):
        for p in range(n + 1):
            for q in (2, 3, 4, 5, 7, 8, 9):
                cases += 1
                count = gaussian_binomial(n + 1, p + 1, q)
                ok_mod_q = count % q == 1
                ok_mod_qm1 = (count - comb(n + 1, p + 1)) % (q - 1) == 0
                if not (ok_mod_q and ok_mod_qm1):
                    failures.append({"p": p, "n": n, "q": q, "count": count})
                if n == 3 and p == 1:
                    residues[f"q={q}"] = {
                        "count": count,
                        "mod_q": count % q,
                        "mod_q_minus_1": count % (q - 1) if q > 2 else 0,
                    }
    second = CheckResult(
        "linear cycle counts reduce to 1 mod q and binomial mod q-1",
        ok=not failures,
        cases=cases,
        values={"sample_g24": residues},
        failures=failures[:5],
    )
    return [first, second]


def suite_irreducible() -> list[CheckResult]:
    failures = []
    cases = 0
    for n in range(6):
        for p in range(n + 1):
            for d in range(1, 5):
                cases += 1
                got = irreducible_invariant(p, d, n)
                want = coordinate_subspace_count(p, n) if d == 1 else 0
                if got != want:
                    failures.append({"p": p, "d": d, "n": n, "got": got})
                if d == 1 and got != eval_measure(Grassmannian(p + 1, n + 1), EULER):
                    failures.append({"p": p, "d": d, "n": n, "grassmannian": True})
    first = CheckResult(
        "irreducible locus values on the grid",
        ok=not failures,
        cases=cases,
        failures=failures[:5],
    )
    failures = []
    cases = 0
    for n in range(3):
        for m in range(3):
            for p in range(n + m + 1):
                slots = multidegree_slots(p, n, m)
                vectors = [
                    tuple(1 if j == i else 0 for j in range(len(slots)))
                    for i in range(len(slots))
                ]
                vectors += [
                    tuple(2 if j == i else 0 for j in range(len(slots)))
                    for i in range(len(slots))
                ]
                if len(slots) >= 2:
                    vectors.append(tuple(1 for _ in slots))
                vectors.append(tuple(0 for _ in slots))
                for alpha in vectors:
                    cases += 1
                    got = irreducible_invariant_product(alpha, p, n, m)
                    if sum(alpha) == 1:
                        k, l = slots[alpha.index(1)]
                        want = comb(n + 1, k + 1) * comb(m + 1, l + 1)
                    else:
                        want = 0
                    if got != want:
                        failures.append(
                            {"alpha": list(alpha), "p": p, "n": n, "m": m, "got": got}
                        )
    second = CheckResult(
        "product irreducible locus: units and only units count",
        ok=not failures,
        cases=cases,
        failures=failures[:5],
    )
    return [first, second]


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
        checks = sorted(SUITES[name](), key=lambda c: c.name)
        ok = all(c.ok for c in checks)
        all_ok = all_ok and ok
        suites.append(
            {"suite": name, "ok": ok, "checks": [c.to_json() for c in checks]}
        )
    return {"ok": all_ok, "suites": suites}
