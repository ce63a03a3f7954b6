import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclemotive import errors, ffcount, ring, toric
from cyclemotive.toric import fan_from_json

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
OVER_BUDGET = f"the work takes more than its budget of {errors.WORK_BUDGET} units"


def fresh_python(probe: str) -> str:
    """stdout of `probe` run by `python -S` with the sources on the path:
    a fresh interpreter in which no site hook has imported anything."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def charged(fn, *args):
    """fn(*args) and the units of work it charged, run inside a budget
    far too large to refuse it."""
    left = [10**18]
    token = errors._left.set(left)
    try:
        result = fn(*args)
    finally:
        errors._left.reset(token)
    return result, 10**18 - left[0]


def load_fan(name):
    return fan_from_json(json.loads((DATA / f"fan_{name}.json").read_text()))


@pytest.fixture
def rank_calls(monkeypatch):
    """Every ray matrix `toric._int_rank` is asked to rank, in call order."""
    calls = []
    real = toric._int_rank

    def counting(rows):
        calls.append(tuple(map(tuple, rows)))
        return real(rows)

    monkeypatch.setattr(toric, "_int_rank", counting)
    return calls


@pytest.fixture
def predicate_calls(monkeypatch):
    """Every matrix `ffcount.is_rref` is asked to check, as a snapshot taken
    at the call, in call order."""
    calls = []
    real = ffcount.is_rref

    def counting(matrix, q):
        calls.append(tuple(map(tuple, matrix)))
        return real(matrix, q)

    monkeypatch.setattr(ffcount, "is_rref", counting)
    return calls


@pytest.fixture
def series_checks(monkeypatch):
    """(arity, order, term count) of every map of more than one term that
    `MultiSeries.__init__` is given to check, in call order."""
    calls = []
    real = ring.MultiSeries.__init__

    def counting(self, arity, order, terms=None):
        if terms is not None and len(terms) > 1:
            calls.append((arity, order, len(terms)))
        real(self, arity, order, terms)

    monkeypatch.setattr(ring.MultiSeries, "__init__", counting)
    return calls
