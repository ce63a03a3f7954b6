"""Layer spans recorded from outside the program.

Tracer.install() replaces each layer's public entry points with timing
wrappers: the function in its home module and in every cyclemotive module
that imported the name, the operator dunders of the ring classes, and the
verify suite table.  Spans stay in memory as tuples

    (name, start, end, parent_index, work)

and the caller ships them out when an op ends.  Importing this module
imports nothing from cyclemotive; untraced runs never call install().
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "motive", "ring", "chow", "toric", "ffcount", "verify")

ENTRY_POINTS = {
    "cli": ["main"],
    "motive": ["expr_from_json", "measure_from_string", "eval_measure", "eval_E",
               "eval_count_poly", "hodge_constraints_check"],
    "ring": ["expand_inverse_product", "parse_poly2", "Poly2.__mul__", "LPoly.__mul__",
             "MultiSeries.__mul__"],
    "chow": ["chow_invariant_closed", "chow_invariant_recursive", "chow_series", "chow_htilde",
             "chow_congruence_targets", "euler_chow_product_formula",
             "euler_chow_product_recursive", "irreducible_invariant",
             "irreducible_invariant_product"],
    "toric": ["fan_validate", "fan_from_json", "toric_lambda", "toric_E_poly",
              "invariant_subvarieties", "euler_series", "projective_fan", "affine_fan",
              "product_fan"],
    "ffcount": ["PrimePower.from_int", "gaussian_binomial", "gaussian_binomial_poly",
                "rref_cell_census", "grassmannian_count_brute", "toric_count"],
    "verify": ["run_suites"],
}


def _series_work(args, result):
    return (len(args[0].terms), len(args[1].terms), len(result.terms))


def _fan_work(args, result):
    fan = args[0]
    return (hash((fan.dim, fan.rays, fan.cones)), len(fan.cones))


def _census_work(args, result):
    return sum(result.values())


WORK = {
    "ring.MultiSeries.__mul__": _series_work,
    "toric.fan_validate": _fan_work,
    "ffcount.rref_cell_census": _census_work,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        self._stack.clear()
        return spans

    def wrap(self, fn, name: str):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if work is not None:
                spans[index] = (name, start, end, parent, work(args, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        import cyclemotive.cli  # noqa: F401  (loads the package and the cli layer)

        modules = [m for n, m in sys.modules.items()
                   if n == "cyclemotive" or n.startswith("cyclemotive.")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules[f"cyclemotive.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self.wrap(raw.__func__, f"{layer}.{name}")))
                    else:
                        setattr(cls, attr, self.wrap(raw, f"{layer}.{name}"))
                    continue
                original = getattr(home, name)
                traced = self.wrap(original, f"{layer}.{name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
        suites = sys.modules["cyclemotive.verify"].SUITES
        for key, fn in list(suites.items()):
            suites[key] = self.wrap(fn, f"verify.suite:{key}")


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        clipped = [(max(start, spans[c][1]), min(end, spans[c][2])) for c in children[i]]
        out.append((end - start) - covered(clipped))
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (so recursive
    entry points are counted once)."""
    flags = []
    for span in spans:
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        flags.append(parent < 0)
    return flags


# ---------------------------------------------------------------------------
# per-layer metrics

SUITE_NAMES = ["congruences", "euler-chow", "hodge-constraints", "hodge-remark",
               "irreducible", "lawson-yau", "quotients", "series", "toric"]

# name -> unit, in print order
LAYER_METRICS = {
    "cli.import_ms": "ms", "cli.main_self_ms": "ms",
    "motive.parse_ms": "ms", "motive.eval_self_ms": "ms",
    "ring.poly2_mul_calls": "count", "ring.poly2_mul_ms": "ms",
    "ring.lpoly_mul_calls": "count", "ring.lpoly_mul_ms": "ms",
    "ring.series_mul_calls": "count", "ring.series_mul_ms": "ms",
    "ring.series_pairs": "count", "ring.series_terms_out": "count",
    "ring.series_yield": "ratio", "ring.expand_ms": "ms",
    "chow.recursive_ms": "ms", "chow.product_recursive_self_ms": "ms", "chow.series_ms": "ms",
    "toric.validate_calls": "count", "toric.validate_ms": "ms",
    "toric.validations_per_fan": "ratio", "toric.cones_per_s": "1/s",
    "toric.subvarieties_self_ms": "ms",
    "ffcount.census_ms": "ms", "ffcount.matrices": "count", "ffcount.matrices_per_s": "1/s",
    "ffcount.prime_power_ms": "ms",
    **{f"verify.suite_ms.{s}": "ms" for s in SUITE_NAMES},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(op_spans: list[tuple[list, float]], import_ms: float,
                  overhead_ratio: float) -> dict:
    """Per-layer numbers over the traced ops, given each op's spans and
    the factor that converts its times to reference speed.

    Times and counts are means per op (so runs of different length
    compare), except verify.suite_ms.* (mean per suite run) and the
    ratios and rates, which are totals over totals.
    """
    ops = max(len(op_spans), 1)
    total = defaultdict(float)    # outermost duration per span name
    selfs = defaultdict(float)    # self time per span name
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    root_time = 0.0
    pairs = terms_out = matrices = cones = 0
    validations = fans = 0
    for spans, scale in op_spans:
        own = self_times(spans)
        top = outermost(spans)
        seen_fans = set()
        for span, self_s, is_top in zip(spans, own, top):
            name, start, end, parent, work = span
            calls[name] += 1
            selfs[name] += self_s * scale
            layer_self[name.split(".")[0]] += self_s * scale
            if is_top:
                total[name] += (end - start) * scale
            if parent < 0:
                root_time += (end - start) * scale
            if name == "ring.MultiSeries.__mul__" and work:
                pairs += work[0] * work[1]
                terms_out += work[2]
            elif name == "toric.fan_validate" and work:
                validations += 1
                cones += work[1]
                seen_fans.add(work[0])
            elif name == "ffcount.rref_cell_census" and work:
                matrices += work
        fans += len(seen_fans)

    def per_op_ms(value):
        return 1000 * value / ops

    m = {
        "cli.import_ms": import_ms,
        "cli.main_self_ms": per_op_ms(selfs["cli.main"]),
        "motive.parse_ms": per_op_ms(total["motive.expr_from_json"]
                                     + total["motive.measure_from_string"]),
        "motive.eval_self_ms": per_op_ms(selfs["motive.eval_measure"] + selfs["motive.eval_E"]
                                         + selfs["motive.eval_count_poly"]),
        "ring.poly2_mul_calls": calls["ring.Poly2.__mul__"] / ops,
        "ring.poly2_mul_ms": per_op_ms(total["ring.Poly2.__mul__"]),
        "ring.lpoly_mul_calls": calls["ring.LPoly.__mul__"] / ops,
        "ring.lpoly_mul_ms": per_op_ms(total["ring.LPoly.__mul__"]),
        "ring.series_mul_calls": calls["ring.MultiSeries.__mul__"] / ops,
        "ring.series_mul_ms": per_op_ms(total["ring.MultiSeries.__mul__"]),
        "ring.series_pairs": pairs / ops,
        "ring.series_terms_out": terms_out / ops,
        "ring.series_yield": terms_out / pairs if pairs else 0.0,
        "ring.expand_ms": per_op_ms(total["ring.expand_inverse_product"]),
        "chow.recursive_ms": per_op_ms(total["chow.chow_invariant_recursive"]),
        "chow.product_recursive_self_ms": per_op_ms(selfs["chow.euler_chow_product_recursive"]),
        "chow.series_ms": per_op_ms(total["chow.chow_series"]),
        "toric.validate_calls": calls["toric.fan_validate"] / ops,
        "toric.validate_ms": per_op_ms(total["toric.fan_validate"]),
        "toric.validations_per_fan": validations / fans if fans else 0.0,
        "toric.cones_per_s": cones / total["toric.fan_validate"] if cones else 0.0,
        "toric.subvarieties_self_ms": per_op_ms(selfs["toric.invariant_subvarieties"]),
        "ffcount.census_ms": per_op_ms(total["ffcount.rref_cell_census"]),
        "ffcount.matrices": matrices / ops,
        "ffcount.matrices_per_s": (matrices / total["ffcount.rref_cell_census"]
                                   if matrices else 0.0),
        "ffcount.prime_power_ms": per_op_ms(total["ffcount.PrimePower.from_int"]),
    }
    for suite in SUITE_NAMES:
        name = f"verify.suite:{suite}"
        m[f"verify.suite_ms.{suite}"] = (1000 * total[name] / calls[name]) if calls[name] else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / root_time if root_time else 0.0
    m["trace.overhead_ratio"] = overhead_ratio
    return m

