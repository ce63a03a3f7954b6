"""cyclemotive benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Workloads (see README.md): cli-mix, series-deep, toric-enum, and
cli-defects (cli-mix plus inputs that crash today; not a gated workload).
The program is imported from src/ next to this directory.  Every op's
answer is checked against oracle.py; a wrong value, a traceback, a bad
exit code or a timeout fails the op.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the op list
untraced for half the time, then again with layer wrappers installed, and
prints per-layer metrics.  Human-readable lines start with '#'; the last
line is one JSON object.  The full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import gen  # noqa: E402
import layertrace  # noqa: E402
import runner  # noqa: E402

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "fail_ratio": "ratio", "peak_rss_mib": "MiB",
}
# fail_ratio is 0 on every gated workload, so it is printed but not gated
GATED_END_TO_END = ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mib"]
# per-layer metrics that every workload exercises, plus counts and shares;
# the rest of layertrace.LAYER_METRICS is printed on '#' lines
GATED_PER_LAYER = [
    "cli.import_ms",
    "ring.poly2_mul_calls", "ring.lpoly_mul_calls",
    "ring.series_mul_calls", "ring.series_mul_ms", "ring.series_pairs",
    "ring.series_terms_out", "ring.series_yield", "ring.expand_ms",
    "toric.validate_calls", "toric.validate_ms", "toric.validations_per_fan",
    "toric.cones_per_s", "toric.subvarieties_self_ms",
    "ffcount.matrices",
    *[f"{layer}.self_share" for layer in layertrace.LAYERS],
    "trace.overhead_ratio",
]

SETUP_REPEATS = 7
OP_TIMEOUT = 30.0
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, {bench!r})\n"
    "from refclock import reference_seconds, speed_factor\n"
    "before = reference_seconds()\n"
    "t = time.perf_counter()\n"
    "import {module}\n"
    "raw = time.perf_counter() - t\n"
    "print(raw, speed_factor(before, reference_seconds()), sys.modules['cyclemotive'].KERNEL)\n"
)


def program_env() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def import_times(env: dict, module: str, repeats: int) -> tuple[list[float], list[float], str]:
    """Seconds for a fresh interpreter to import `module`, at reference
    speed and raw, `repeats` times after one unmeasured import that leaves
    the bytecode cache warm; and the kernel the package reports."""
    scaled, raw, kernel = [], [], ""
    probe = IMPORT_PROBE.format(module=module, bench=str(HERE))
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import {module}: {proc.stderr.strip()[-300:]}")
        seconds, factor, kernel = proc.stdout.split()
        if i:
            raw.append(float(seconds))
            scaled.append(float(seconds) * float(factor))
    return scaled, raw, kernel


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def closed_loop(workload: gen.Workload, seconds: float, execute) -> list:
    """One client: each op starts after the previous one returns.  Whole
    rounds run until `seconds` have passed."""
    done = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in workload.round():
            done.append((op, execute(op)))
    return done


def throughput(done: list, raw: bool = False) -> float:
    busy = sum(r.raw_wall if raw else r.wall for _, r in done)
    return sum(r.ok for _, r in done) / busy if busy else 0.0


def end_to_end(done: list, setup: list[float], raw: bool = False) -> dict:
    """The end-to-end metrics, at reference speed or (raw=True) as timed."""
    latencies = sorted(r.raw_latency if raw else r.latency for _, r in done)
    failed = sum(not r.ok for _, r in done)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": throughput(done, raw),
        "op_p50_ms": 1000 * quantile(latencies, 0.5),
        "op_p90_ms": 1000 * quantile(latencies, 0.9),
        "fail_ratio": failed / len(done),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def executors(workload_name: str, workdir: Path, env: dict):
    """(untraced, traced) op executors for the workload."""
    if workload_name.startswith("cli-"):
        spans_path = workdir / "spans.json"

        def plain(op):
            runner.write_files(op, workdir)
            return runner.run_cli(op, workdir, env, OP_TIMEOUT)

        def traced(op):
            runner.write_files(op, workdir)
            return runner.run_cli(op, workdir, env, OP_TIMEOUT, spans_path)

        return plain, traced, lambda: None

    tracer = layertrace.Tracer()
    return (lambda op: runner.run_forked(op, OP_TIMEOUT),
            lambda op: runner.run_forked(op, OP_TIMEOUT, tracer),
            tracer.install)


def report_failures(done: list) -> list[str]:
    lines = [f"{op.label}: {r.detail}" for op, r in done if not r.ok]
    for line in lines[:10]:
        print(f"# failed: {line}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cyclemotive" / "__init__.py").is_file():
        print(f"error: the cyclemotive sources are not at {SRC}", file=sys.stderr)
        return 2
    env = program_env()
    sys.path.insert(0, str(SRC))
    import cyclemotive

    if Path(cyclemotive.__file__).resolve().parent != SRC / "cyclemotive":
        print(f"error: imported cyclemotive from {cyclemotive.__file__}", file=sys.stderr)
        return 2

    # One core for the benchmark and every worker it starts: the reference
    # clock then runs on the core the op runs on (the loop is closed, so
    # the benchmark process is idle while a worker runs).
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup, setup_raw, kernel = import_times(env, "cyclemotive", SETUP_REPEATS)
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "kernel": kernel, "python": platform.python_version(),
             "nproc": nproc}
    print("# env " + json.dumps(stamp, sort_keys=True))

    workload = gen.WORKLOADS[args.workload](args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        plain, traced, install = executors(args.workload, workdir, env)
        if not args.trace:
            done = closed_loop(workload, args.seconds, plain)
            metrics = end_to_end(done, setup)
            raw = end_to_end(done, setup_raw, raw=True)
            failures = report_failures(done)
            extra = {"raw_metrics": raw}
            for name, unit in END_TO_END.items():
                print(f"# {name} {metrics[name]!r} {unit} (raw {raw[name]!r})")
            print(f"# op latency samples: {len(done)}; median reference-speed factor "
                  f"{statistics.median(r.scale for _, r in done)!r}")
            gated = {n: (metrics[n], END_TO_END[n]) for n in GATED_END_TO_END}
        else:
            untraced = closed_loop(workload, args.seconds / 2, plain)
            install()
            done = [(op, traced(op)) for op, _ in untraced]
            failures = report_failures(untraced) + report_failures(done)
            overhead = throughput(done) / throughput(untraced) if throughput(untraced) else 0.0
            cli_import, _, _ = import_times(env, "cyclemotive.cli", SETUP_REPEATS)
            metrics = layertrace.layer_metrics(
                [(r.spans, r.scale) for _, r in done if r.spans is not None],
                1000 * statistics.median(cli_import), overhead)
            for name, unit in layertrace.LAYER_METRICS.items():
                print(f"# {name} {metrics[name]!r} {unit}")
            print(f"# traced ops: {len(done)}")
            with gzip.open(OUT / f"spans-{args.workload}-s{args.seed}.json.gz", "wt") as fh:
                json.dump([{"op": op.label, "spans": r.spans} for op, r in done], fh)
            gated = {n: (metrics[n], layertrace.LAYER_METRICS[n]) for n in GATED_PER_LAYER}
            extra = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(done)
    failed = sum(not r.ok for _, r in done)
    record = {"env": stamp, "attempted": attempted, "failed": failed,
              "metrics": metrics, "failures": failures,
              "ops": [[op.label, r.latency, r.wall, r.scale] for op, r in done], **extra}
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
