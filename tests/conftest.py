import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclemotive import ffcount, toric
from cyclemotive.toric import fan_from_json

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(probe: str) -> str:
    """stdout of `probe` run by `python -S` with the sources on the path:
    a fresh interpreter in which no site hook has imported anything."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def load_fan(name):
    return fan_from_json((DATA / f"fan_{name}.json").read_text())


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
