"""Tests of the benchmark itself (not of cyclemotive).

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import gen  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402


def ops_of(workload: str, seed: int, rounds: int = 3):
    w = gen.WORKLOADS[workload](workload, seed)
    return [(op.kind, repr(op.params), op.expected, op.files)
            for _ in range(rounds) for op in w.round()]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert ops_of(workload, 7) == ops_of(workload, 7)
    assert ops_of(workload, 7) != ops_of(workload, 8)


@pytest.mark.parametrize("workload", ["cli-mix", "series-deep"])
def test_rounds_have_the_same_shape_for_every_seed(workload):
    kinds = {seed: [op[0] for op in ops_of(workload, seed, 1)] for seed in (1, 2, 3)}
    assert kinds[1] == kinds[2] == kinds[3]


def small_series_op(order=30):
    return gen.Op("chow_series", {"p": 1, "n": 3, "order": order},
                  oracle.digest(oracle.chow_series_terms(1, 3, order)))


def test_oracle_accepts_the_right_value_and_rejects_a_corrupted_one():
    op = small_series_op()
    assert runner.run_forked(op, 30).ok
    terms = list(oracle.chow_series_terms(1, 3, 30))
    terms[5] = (terms[5][0], terms[5][1] + 1)
    op.expected = oracle.digest(tuple(terms))
    result = runner.run_forked(op, 30)
    assert not result.ok and result.detail == "wrong value"
    assert result.latency == float("inf")


def test_cli_judge_rejects_a_corrupted_value_and_bad_exits():
    op = gen.Op("chow", {"argv": []}, oracle.digest((oracle.chow_value(1, 2, 3), (), None, None)))
    good = json.dumps({"p": 1, "n": 3, "d": 2, "value": 21})
    assert runner.judge_cli(op, 0, good, "") == (True, "")
    assert not runner.judge_cli(op, 0, good.replace("21", "22"), "")[0]
    assert not runner.judge_cli(op, 1, "", "Traceback ...\nRecursionError: deep")[0]
    assert not runner.judge_cli(op, 2, "", "error: too deep")[0]
    op.accept_errors = True
    assert runner.judge_cli(op, 2, "", "error: too deep") == (True, "")
    assert not runner.judge_cli(op, 2, "", "error: one\nerror: two")[0]


def test_oracle_matches_cyclemotive_on_every_workload():
    for name in ("series-deep", "toric-enum"):
        w = gen.WORKLOADS[name](name, 3)
        small = [op for op in w.round() if op.kind not in ("brute",)][:4]
        for op in small:
            assert runner.run_forked(op, 60).ok, op.label


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("a.root", 0.0, 10.0, -1, None),
        ("b.child", 1.0, 3.0, 0, None),
        ("b.child", 2.0, 5.0, 0, None),     # overlaps the first child
        ("c.grandchild", 2.5, 4.0, 2, None),
        ("b.child", 7.0, 8.0, 0, None),
        ("b.child", 9.5, 11.0, 0, None),    # clipped to the parent's end
    ]
    assert layertrace.self_times(spans) == pytest.approx([10 - 4 - 1 - 0.5, 2, 1.5, 1.5, 1, 1.5])
    assert layertrace.covered([(0, 1), (0.5, 2), (3, 3), (4, 5)]) == pytest.approx(3)
    assert layertrace.outermost(spans) == [True, True, True, True, True, True]
    nested = [("x.f", 0, 4, -1, None), ("y.g", 1, 3, 0, None), ("x.f", 1.5, 2, 1, None)]
    assert layertrace.outermost(nested) == [True, True, False]


def test_layer_metrics_on_synthetic_spans():
    op = [
        ("chow.chow_series", 0.0, 1.0, -1, None),
        ("ring.expand_inverse_product", 0.1, 0.9, 0, None),
        ("ring.MultiSeries.__mul__", 0.2, 0.4, 1, (10, 20, 50)),
        ("ring.MultiSeries.__mul__", 0.5, 0.8, 1, (10, 10, 20)),
    ]
    m = layertrace.layer_metrics([(op, 1.0), (op, 1.0)], import_ms=50.0, overhead_ratio=0.9)
    assert m["ring.series_mul_calls"] == 2
    assert m["ring.series_pairs"] == 300
    assert m["ring.series_yield"] == pytest.approx(70 / 300)
    assert m["ring.series_mul_ms"] == pytest.approx(500)
    assert m["chow.series_ms"] == pytest.approx(1000)
    assert m["chow.self_share"] == pytest.approx(0.2)
    assert m["ring.self_share"] == pytest.approx(0.8)
    assert set(m) == set(layertrace.LAYER_METRICS)


def test_in_process_ops_start_with_cold_caches():
    # chow_invariant_recursive caches its table process-wide; a later,
    # smaller index reuses the earlier call's entries unless isolated
    big = gen.Op("chow_recursive", {"p": 3, "d": 260, "n": 12}, oracle.digest(oracle.chow_value(3, 260, 12)))
    small = gen.Op("chow_recursive", {"p": 3, "d": 200, "n": 10}, oracle.digest(oracle.chow_value(3, 200, 10)))
    alone = runner.run_forked(small, 60)
    assert runner.run_forked(big, 60).ok
    after = runner.run_forked(small, 60)
    assert alone.ok and after.ok
    assert 0.5 < after.latency / alone.latency < 2.0

    # the same two calls in one process: the second is nearly free
    import cyclemotive as cm
    from time import perf_counter

    cm.chow_invariant_recursive(cm.ChowIndex(3, 260, 12))
    start = perf_counter()
    cm.chow_invariant_recursive(cm.ChowIndex(3, 200, 10))
    assert perf_counter() - start < alone.latency / 10


def test_traced_cli_bootstrap_records_layer_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = run.program_env()
    proc = subprocess.run(
        [sys.executable, str(runner.BOOT), str(spans_path), "chow", "-p", "1", "-d", "2", "-n", "3",
         "--method", "both", "--series", "4", "--json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 21
    spans = json.loads(spans_path.read_text())["spans"]
    names = [s[0] for s in spans]
    assert names[0] == "cli.main" and spans[0][3] == -1
    assert {"chow.chow_invariant_closed", "chow.chow_invariant_recursive", "chow.chow_series",
            "ring.expand_inverse_product", "ring.MultiSeries.__mul__"} <= set(names)


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == run.GATED_END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.GATED_PER_LAYER
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == layertrace.LAYER_METRICS[m["name"]]
    assert {w["name"] for w in spec["workloads"]} <= set(gen.WORKLOADS)


def test_compare_refuses_records_from_different_kernels(tmp_path):
    def record(kernel, ops):
        path = tmp_path / f"{kernel}-{ops}.json"
        path.write_text(json.dumps({"env": {"kernel": kernel, "workload": "w", "trace": 0},
                                    "metrics": {"ops_per_s": ops}}))
        return str(path)

    assert compare.main([record("python", 1.0), "--", record("python", 2.0)]) == 0
    assert compare.main([record("python", 1.0), "--", record("compiled", 2.0)]) == 2
