"""The oracle audit of `verify`: the two sides of every check, traced apart.

A check compares a route with a reference, and it catches only the faults
the two do not share.  The audit wraps `verify._agree` and runs route and
reference separately under `sys.setprofile` over a sample of each check's
cases, collecting every `cyclemotive` function each side enters.  A
comprehension or generator expression is not a function of its own: its
calls count as its caller's, so Python 3.10 to 3.13 give the same sets,
though 3.12 inlines list, dict and set comprehensions.  A function both
sides enter is a share unless ALLOWED lists it.  SHARED lists today's shares, each with the ROADMAP item that
removes it; the audit fails on a new share and on a listed share that has
gone, so the list can only shrink.  PINS lists the checks whose reference
computes nothing of its own, each with the paper statement it pins, and
shrinks the same way.
"""

import sys
from collections import defaultdict
from types import CodeType, FunctionType

import pytest

from cyclemotive import verify

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

# What both sides may call: _TermMap arithmetic and the ring constructors,
# records and errors, and the index checks.
RING_METHODS = ("__init__", "_canonical", "_key", "_add_exponents", "_like",
                "_check_compatible", "__add__", "__neg__", "__sub__", "__mul__", "__pow__")
ALLOWED = {
    *(f"ring.{cls}.{method}" for method in RING_METHODS
      for cls in ("_TermMap", "Poly2", "_OneVariable", "MultiSeries")),
    "ring._mapping",
    "ring._exponent_tuple",
    "chow.multidegree_slots",
    "chow.ChowIndex.__post_init__",
    "ffcount._check_subspace_dims",
}
ALLOWED_MODULES = ("_record.", "errors.")

# check -> the functions both of its sides call today
SHARED = {
    # no item yet: the series and the closed form both count the coordinate
    # subspaces
    "series coefficients equal closed form": {"chow._subspace_counts"},
    # item 6: the locus is stated from the subspace count, not derived
    "irreducible locus values on the grid": {"chow._subspace_counts"},
    # item 3: the image is the closed form itself
    "cycle-space image is the constant Euler number": {
        "chow.chow_invariant_closed", "chow.coordinate_subspace_count",
        "chow._subspace_counts"},
    # item 4: both sides build the same stock fan and read its census
    "census, euler number, and point counts agree": {
        "verify._stock_fan", "toric.projective_fan", "toric.product_fan",
        "toric.affine_fan", "toric.Fan.census", "toric.Fan.ranks", "toric._int_rank"},
}


# check -> the paper statement its reference pins, for the checks whose
# reference enters no library function outside verify, ALLOWED and SHARED
PINS = {
    # the worked example and the two vanishing statements of the abstract
    "euler number is 4": "the glued cone's Euler number is 4",
    "first virtual betti number is 2": "the glued cone's first virtual Betti number is 2",
    "multiplicative group dies mod uv-1": "G_m has class 0 in Z[u,v]/(uv-1)",
    "additive group dies mod uv": "G_a has class 0 in Z[u,v]/(uv)",
    # restatements that a second route can replace (ROADMAP item 24)
    "linear cycle counts reduce to 1 mod q and binomial mod q-1":
        "a point count is 1 mod q and the Euler number mod q-1 (item 19)",
    "projective spaces pass all three constraints":
        "a class with finite fixed locus meets the three constraints (items 4, 19)",
    "grassmannians pass all three constraints":
        "a class with finite fixed locus meets the three constraints (items 4, 19)",
    "product irreducible locus: units and only units count":
        "only the unit multidegrees carry irreducible cycles (item 6)",
    "closed form equals binomial":
        "the Euler number of C_{p,d}(P^n) is binom(binom(n+1, p+1) + d - 1, d)",
    # its reference enters only the closed form, which SHARED lists (item 3)
    "cycle-space image is the constant Euler number":
        "the image of C_{p,d}(P^n) mod uv-1 is its Euler number",
}


def _function_names() -> dict:
    """Code object -> 'module.qualname' for every function of the package:
    module functions, methods, properties and the functions nested in
    them, but not comprehensions.  Named from the objects, not from
    co_qualname, which Python 3.10 lacks."""
    names = {}

    def visit(code, qualname):
        names[code] = qualname
        for const in code.co_consts:
            if isinstance(const, CodeType) and const.co_name not in COMPREHENSIONS:
                visit(const, f"{qualname}.<locals>.{const.co_name}")

    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("cyclemotive."):
            continue
        short = module_name.split(".", 1)[1]
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module_name:
                continue
            members = vars(value).values() if isinstance(value, type) else [value]
            for member in members:
                for f in (member, *(getattr(member, a, None)
                                    for a in ("__func__", "fget", "func"))):
                    if isinstance(f, FunctionType):
                        visit(f.__code__, f"{short}.{f.__qualname__}")
    return names


def _entered(function, case, names) -> set:
    """The package functions that function(*case) enters, as code objects."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        function(*case)
    finally:
        sys.setprofile(previous)
    return entered


def _allowed(name: str) -> bool:
    return name in ALLOWED or name.startswith(ALLOWED_MODULES)


@pytest.fixture(scope="module")
def audit():
    """check -> (names of the functions both sides enter outside the
    allowlist, names of the functions its route enters, names of the
    functions its reference enters), over about seven cases per check,
    spread evenly."""
    names = _function_names()
    real_agree = verify._agree
    shared = defaultdict(set)
    route_work = defaultdict(set)
    reference_work = defaultdict(set)

    def traced_agree(name, cases, route, reference, values=None):
        for case in cases[::max(1, len(cases) // 7)]:
            by_route = _entered(route, case, names)
            by_reference = _entered(reference, case, names)
            # code identity, not name: lambdas of one suite share a name
            shared[name] |= {names[c] for c in by_route & by_reference}
            route_work[name] |= {names[c] for c in by_route}
            reference_work[name] |= {names[c] for c in by_reference}
        return real_agree(name, cases, route, reference, values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_agree", traced_agree)
        report = verify.run_suites()
    assert report["ok"]
    checks = {c["name"] for suite in report["suites"] for c in suite["checks"]}
    assert checks == set(shared) == set(route_work) and len(checks) == 18
    return {check: ({n for n in shared[check] if not _allowed(n)}, route_work[check],
                    reference_work[check])
            for check in checks}


def _computes(entered: set) -> bool:
    """Whether a side enters a library function outside verify and the
    allowlist."""
    return any(not n.startswith("verify.") and not _allowed(n) for n in entered)


def test_the_two_sides_of_a_check_share_only_the_listed_functions(audit):
    shares = {check: found for check, (found, _, _) in audit.items() if found}
    assert shares == SHARED


def test_every_route_computes_its_value_inside_the_check(audit):
    """A route that only returns a value computed before the check enters
    no library function; every route here enters one beyond the allowed."""
    idle = [check for check, (_, entered, _) in audit.items() if not _computes(entered)]
    assert idle == []


def test_every_reference_computes_its_value_unless_it_pins_the_paper(audit):
    """A reference that enters no library function of its own, outside
    verify, the allowlist and its check's shares, restates a value; PINS
    names each such check with the statement it pins."""
    idle = {check for check, (_, _, entered) in audit.items()
            if not _computes(entered - SHARED.get(check, set()))}
    assert idle == set(PINS)
