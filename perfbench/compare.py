"""Compare benchmark records of two commits, or summarize one set.

    python3 perfbench/compare.py BASE.json [...] -- NEW.json [...]
    python3 perfbench/compare.py BASE.json [...]

Records are the files run.py writes to perfbench/out/.  For every metric
the script prints each side's median and quartiles over its records and
the ratio of the medians.  It refuses (exit 2) to mix records whose
environment stamp differs in kernel, workload or trace mode: a result from
the compiled enumeration kernel says nothing about the pure-Python one.
"""

from __future__ import annotations

import json
import statistics
import sys

STAMP_KEYS = ("kernel", "workload", "trace")


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarize(records: list[dict]) -> dict:
    names = sorted(set().union(*(r["metrics"] for r in records)))
    return {n: summary([r["metrics"][n] for r in records if n in r["metrics"]]) for n in names}


def main(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        groups = [argv[:cut], argv[cut + 1:]]
    else:
        groups = [argv]
    if not all(groups):
        print(__doc__, file=sys.stderr)
        return 2
    loaded = [[json.loads(open(path).read()) for path in group] for group in groups]
    stamps = {tuple(r["env"].get(k) for k in STAMP_KEYS) for group in loaded for r in group}
    if len(stamps) > 1:
        print("error: records differ in " + ", ".join(STAMP_KEYS) + f": {sorted(stamps)}",
              file=sys.stderr)
        return 2
    sides = [summarize(group) for group in loaded]
    if len(sides) == 1:
        print(json.dumps(sides[0], indent=1))
        return 0
    base, new = sides
    for name in sorted(set(base) & set(new)):
        b, n = base[name], new[name]
        ratio = n["median"] / b["median"] if b["median"] else float("nan")
        print(f"{name:34s} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
              f"  new {n['median']:.6g} [{n['q1']:.6g}, {n['q3']:.6g}]  ratio {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
