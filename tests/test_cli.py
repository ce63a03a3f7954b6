"""End-to-end checks of the command-line surface.

Everything runs in-process through cli.main so coverage tools see it;
one subprocess test at the bottom confirms the installed entry point.
"""

import json
import subprocess
import sys

import pytest

from cyclemotive import cli
from conftest import DATA

P2_EXPR = str(DATA / "p2.json")
TORUS1_EXPR = str(DATA / "torus1.json")
GLUED_CONE_EXPR = str(DATA / "cone-elliptic-union-p2.json")
P2_FAN = str(DATA / "fan_p2.json")
P1XP1_FAN = str(DATA / "fan_p1xp1.json")
BIDEGREE_GRADING = str(DATA / "grading_p1xp1_bidegree.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# motive


def test_motive_euler_torus(capsys):
    code, out, _ = run(capsys, "motive", "--measure", "euler", TORUS1_EXPR)
    assert code == 0
    assert out == "0\n"


def test_motive_epoly_glued_cone(capsys):
    code, out, _ = run(capsys, "motive", "--measure", "e-poly", GLUED_CONE_EXPR)
    assert code == 0
    assert out == "1+u+v+uv-u^2*v-u*v^2+2u^2*v^2\n"


def test_motive_count_p2(capsys):
    code, out, _ = run(capsys, "motive", "--measure", "count:2", P2_EXPR)
    assert code == 0
    assert out == "7\n"


def test_motive_count_large_prime_field(capsys):
    q = 2147483647
    code, out, _ = run(capsys, "motive", "--measure", f"count:{q}", P2_EXPR)
    assert (code, out) == (0, f"{q * q + q + 1}\n")


def test_motive_default_measure_is_epoly(capsys):
    code, out, _ = run(capsys, "motive", P2_EXPR)
    assert code == 0
    assert out == "1+uv+u^2*v^2\n"


def test_motive_htilde_and_count_extension(capsys):
    code, out, _ = run(capsys, "motive", "--measure", "h-tilde", GLUED_CONE_EXPR)
    assert (code, out) == (0, "4\n")
    # 7 points over F_2 become 21 over F_4
    code, out, _ = run(capsys, "motive", "--measure", "count:2,2", P2_EXPR)
    assert (code, out) == (0, "21\n")


# ---------------------------------------------------------------------------
# chow


def test_chow_both_methods(capsys):
    code, out, _ = run(capsys, "chow", "-p", "1", "-d", "2", "-n", "3",
                       "--method", "both")
    assert code == 0
    assert out == "21\n"


def test_chow_series(capsys):
    code, out, _ = run(capsys, "chow", "-p", "0", "-n", "2", "--series", "3")
    assert code == 0
    assert out == "1,3,6,10\n"


def test_chow_congruence_report(capsys):
    code, out, _ = run(capsys, "chow", "-p", "1", "-d", "1", "-n", "3",
                       "--congruence", "3,1")
    assert code == 0
    assert out.splitlines() == ["6", "130 = 1 mod 3 ok; 130 = 6 mod 2 ok"]


def test_chow_congruence_untestable_degree(capsys):
    code, out, _ = run(capsys, "chow", "-p", "1", "-d", "2", "-n", "3",
                       "--congruence", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "21"
    assert "mod 3" in lines[1] and "mod 2" in lines[1]
    assert "untestable" in lines[1]


def test_chow_htilde_flag(capsys):
    code, out, _ = run(capsys, "chow", "-p", "1", "-d", "3", "-n", "2",
                       "--htilde")
    assert code == 0
    assert out.splitlines() == ["10", "htilde 10"]


def test_chow_value_and_series_together(capsys):
    code, out, _ = run(capsys, "chow", "-p", "1", "-d", "2", "-n", "2",
                       "--series", "4")
    assert code == 0
    assert out.splitlines() == ["6", "1,3,6,10,15"]


def test_chow_recursive_deep_ambient_space(capsys):
    code, out, _ = run(capsys, "chow", "-p", "0", "-d", "1", "-n", "3000",
                       "--method", "recursive")
    assert (code, out) == (0, "3001\n")


@pytest.mark.parametrize("measure", ["count-poly", "e-poly"])
def test_motive_deep_grassmannian(capsys, tmp_path, measure):
    # G(1,1200) is P^1199; the Gaussian binomial table must not recurse
    grassmannian = tmp_path / "g.json"
    grassmannian.write_text(json.dumps({"leaf": "grassmannian", "k": 1, "n": 1200}))
    projective = tmp_path / "p.json"
    projective.write_text(json.dumps({"leaf": "proj_space", "n": 1199}))
    code, out, _ = run(capsys, "motive", "--measure", measure, str(grassmannian))
    assert code == 0
    assert run(capsys, "motive", "--measure", measure, str(projective)) == (0, out, "")


def test_chow_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "chow_invariant_recursive", lambda idx: -1)
    code, out, err = run(capsys, "chow", "-p", "1", "-d", "2", "-n", "3",
                         "--method", "both")
    assert code == 4
    assert "mismatch" in err


# ---------------------------------------------------------------------------
# toric


def test_toric_flags(capsys):
    code, out, _ = run(capsys, "toric", P2_FAN, "--census", "--lambda",
                       "--e-poly", "--count", "2")
    assert code == 0
    assert out.splitlines() == ["1,3,3", "3", "1+uv+u^2*v^2", "7"]


def test_toric_euler_series_degree_grading(capsys):
    # four divisor classes all graded to t: (1-t)^-4
    code, out, _ = run(capsys, "toric", P1XP1_FAN, "--euler-series", "1,2")
    assert code == 0
    assert out == "1,4,10\n"


def test_toric_euler_series_bidegree_grading(capsys):
    code, out, _ = run(capsys, "toric", P1XP1_FAN, "--euler-series",
                       f"1,2,{BIDEGREE_GRADING}")
    assert code == 0
    # coefficients of (1-x)^-2 (1-y)^-2: (i+1)(j+1)
    rows = [line.rsplit(" ", 1) for line in out.splitlines()]
    got = {tuple(json.loads(e)): int(c) for e, c in rows}
    assert got == {(i, j): (i + 1) * (j + 1)
                   for i in range(3) for j in range(3) if i + j <= 2}


def test_toric_count_extension_field(capsys):
    code, out, _ = run(capsys, "toric", P1XP1_FAN, "--count", "2,2")
    assert code == 0
    assert out == "25\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hodge-remark")
    assert code == 0
    assert "all suites pass" in out
    assert out.count("pass") >= 3


def test_verify_json_is_canonical(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "series", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert out == json.dumps(report, sort_keys=True,
                             separators=(",", ":")) + "\n"


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_suites",
        lambda names=None: {"ok": False, "suites": []},
    )
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# JSON round-trips


@pytest.mark.parametrize("argv", [
    ("motive", "--measure", "count:2", P2_EXPR, "--json"),
    ("motive", "--measure", "e-poly", GLUED_CONE_EXPR, "--json"),
    ("chow", "-p", "1", "-d", "1", "-n", "3", "--congruence", "3", "--json"),
    ("chow", "-p", "0", "-n", "2", "--series", "3", "--json"),
    ("toric", P2_FAN, "--census", "--lambda", "--e-poly", "--json"),
    ("toric", P1XP1_FAN, "--euler-series", f"1,2,{BIDEGREE_GRADING}",
     "--json"),
    ("verify", "--suite", "toric", "--json"),
])
def test_json_round_trips_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True,
                      separators=(",", ":")) + "\n" == out


# ---------------------------------------------------------------------------
# exit codes on bad input


@pytest.mark.parametrize("argv", [
    ("motive", "--measure", "count:6", P2_EXPR),        # 6 not a prime power
    ("motive", "--measure", "count:abc", P2_EXPR),      # malformed q
    ("motive", "--measure", "euler", "/no/such/file"),  # unreadable file
    ("chow", "-p", "3", "-n", "1", "--series", "2"),    # p > n
    ("chow", "-p", "1", "-n", "3"),                     # nothing requested
    ("chow", "-p", "1", "-n", "3", "--htilde"),         # htilde needs -d
    ("chow", "-p", "1", "-d", "1", "-n", "3", "--congruence", "3,x"),  # malformed m
    ("toric", P2_FAN),                                  # nothing requested
    ("toric", P1XP1_FAN, "--euler-series", "1"),        # missing order
    ("toric", P1XP1_FAN, "--count", "4,2,9"),           # too many fields
])
def test_input_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_invalid_fan_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"dim": 2, "rays": [[2, 0]], "cones": [[0]]}))
    code, _, err = run(capsys, "toric", str(bad), "--lambda")
    assert code == 2
    assert "primitive" in err


@pytest.mark.parametrize("argv", [
    ("motive", "--measure", "count:2", GLUED_CONE_EXPR),    # elliptic leaf
    ("motive", "--measure", "count-poly", GLUED_CONE_EXPR),
    ("motive", "--measure", "zeta", P2_EXPR),           # unknown measure
])
def test_unsupported_exits_3(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:")


def test_unknown_leaf_exits_3(capsys, tmp_path):
    weird = tmp_path / "weird.json"
    weird.write_text(json.dumps({"leaf": "k3_surface"}))
    code, _, err = run(capsys, "motive", str(weird))
    assert code == 3
    assert "k3_surface" in err


# ---------------------------------------------------------------------------
# installed entry point


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclemotive", "chow",
         "-p", "0", "-n", "2", "--series", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,3,6,10\n"
