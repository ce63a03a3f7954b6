"""Run one op with no state inherited from earlier ops, and judge it.

In-process ops run in a child forked from the benchmark process, which
has imported cyclemotive but computed nothing, so the package's
process-wide caches start empty for every op.  The timer runs inside the
child around the public call only.  (The parent is single-threaded, so
forking it is safe.)

CLI ops run as a fresh interpreter each; the whole invocation is timed,
because a user waits for all of it.

Every time is taken between two runs of the reference clock and scaled to
reference speed (see refclock.py); the raw times are kept alongside.
"""

from __future__ import annotations

import json
import os
import pickle
import selectors
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen
import oracle
from refclock import reference_seconds, speed_factor

HERE = Path(__file__).resolve().parent
BOOT = HERE / "trace_boot.py"


@dataclass
class Result:
    ok: bool
    latency: float          # seconds at reference speed; inf when the op failed
    wall: float             # seconds at reference speed the loop spent on this op
    detail: str = ""
    spans: list | None = None
    scale: float = 1.0      # reference-speed factor applied to the raw times
    raw_latency: float = float("inf")
    raw_wall: float = 0.0


def _result(ok: bool, latency: float, wall: float, scale: float, detail: str = "",
            spans=None) -> Result:
    return Result(ok, latency * scale if ok else float("inf"), wall * scale, detail, spans,
                  scale, latency if ok else float("inf"), wall)


# ---------------------------------------------------------------------------
# in-process


def prepare(op: gen.Op):
    """Build the call's arguments (untimed) and return the call."""
    import cyclemotive as cm

    p = op.params
    fan = None
    if "rays" in p:
        fan = cm.Fan(p["dim"], tuple(map(tuple, p["rays"])), tuple(map(tuple, p["cones"])))
    kind = op.kind
    if kind == "chow_series":
        return lambda: cm.chow_series(p["p"], p["n"], p["order"])
    if kind == "chow_recursive":
        idx = cm.ChowIndex(p["p"], p["d"], p["n"])
        return lambda: cm.chow_invariant_recursive(idx)
    if kind == "product_formula":
        return lambda: cm.euler_chow_product_formula(p["p"], p["n"], p["m"], p["order"])
    if kind == "product_recursive":
        return lambda: cm.euler_chow_product_recursive(p["p"], p["n"], p["m"], p["order"])
    if kind == "euler_series_degree":
        return lambda: cm.euler_series(fan, p["p"], p["order"], lambda d: (1,))
    if kind == "euler_series_finest":
        return lambda: cm.euler_series(fan, p["p"], p["order"])
    if kind == "fan_validate":
        return lambda: cm.fan_validate(fan)
    if kind == "toric_E_poly":
        return lambda: cm.toric_E_poly(fan)
    if kind == "invariant_subvarieties":
        return lambda: cm.invariant_subvarieties(fan, p["p"])
    if kind == "toric_count":
        return lambda: cm.toric_count(fan, p["q"], p["m"])
    if kind == "brute":
        return lambda: cm.grassmannian_count_brute(p["k"], p["n"], p["q"])
    raise ValueError(f"unknown op kind {kind!r}")


def _child(op: gen.Op, tracer) -> dict:
    try:
        call = prepare(op)
        if tracer is not None:
            tracer.take()
        before = reference_seconds()
        start = perf_counter()
        value = call()
        elapsed = perf_counter() - start
        after = reference_seconds()
        spans = tracer.take() if tracer is not None else None
        return {"elapsed": elapsed, "digest": oracle.digest(oracle.canonical(value)),
                "spans": spans, "reference": (before, after)}
    except Exception:
        return {"error": traceback.format_exc(limit=3)}


def run_forked(op: gen.Op, timeout: float, tracer=None) -> Result:
    read_fd, write_fd = os.pipe()
    start = perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            data = pickle.dumps(_child(op, tracer))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    timed_out = False
    with selectors.DefaultSelector() as sel, os.fdopen(read_fd, "rb", buffering=0) as fh:
        sel.register(fh, selectors.EVENT_READ)
        while True:
            remaining = start + timeout - perf_counter()
            if remaining <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            if sel.select(remaining):
                chunk = fh.read(1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    os.waitpid(pid, 0)
    wall = perf_counter() - start
    if timed_out:
        return _result(False, 0, wall, 1.0, f"timeout after {timeout:.0f} s")
    if not chunks:
        return _result(False, 0, wall, 1.0, "worker died without a result")
    payload = pickle.loads(b"".join(chunks))
    if "error" in payload:
        return _result(False, 0, wall, 1.0, payload["error"].strip().splitlines()[-1])
    before, after = payload["reference"]
    scale = speed_factor(before, after)
    wall -= before + after
    if payload["digest"] != op.expected:
        return _result(False, 0, wall, scale, "wrong value")
    return _result(True, payload["elapsed"], wall, scale, spans=payload["spans"])


# ---------------------------------------------------------------------------
# CLI


def write_files(op: gen.Op, workdir: Path) -> None:
    for name, text in op.files.items():
        (workdir / name).write_text(text)


def cli_argv(op: gen.Op, workdir: Path) -> list[str]:
    return [a.replace("@", f"{workdir}{os.sep}") for a in op.params["argv"]]


def judge_cli(op: gen.Op, code: int, stdout: str, stderr: str) -> tuple[bool, str]:
    if code == 0:
        try:
            got = gen.cli_plain(op.kind, json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return False, f"unreadable output: {exc}"
        if oracle.digest(got) == op.expected:
            return True, ""
        return False, "wrong value"
    lines = stderr.strip().splitlines()
    if op.accept_errors and code in (2, 3) and len(lines) == 1 and lines[0].startswith("error:"):
        return True, ""
    return False, f"exit {code}: {lines[-1] if lines else ''}"[:200]


def run_cli(op: gen.Op, workdir: Path, env: dict, timeout: float,
            spans_path: Path | None = None) -> Result:
    argv = cli_argv(op, workdir)
    if spans_path is None:
        cmd = [sys.executable, "-m", "cyclemotive", *argv]
    else:
        cmd = [sys.executable, str(BOOT), str(spans_path), *argv]
    before = reference_seconds()
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=workdir)
    except subprocess.TimeoutExpired:
        return _result(False, 0, perf_counter() - start, 1.0, f"timeout after {timeout:.0f} s")
    wall = perf_counter() - start
    scale = speed_factor(before, reference_seconds())
    ok, detail = judge_cli(op, proc.returncode, proc.stdout, proc.stderr)
    spans = None
    if spans_path is not None and spans_path.exists():
        spans = [tuple(s) for s in json.loads(spans_path.read_text())["spans"]]
        spans_path.unlink()
    return _result(ok, wall, wall, scale, detail, spans)
