"""End-to-end checks of the command-line surface.

Everything runs in-process through cli.main so coverage tools see it;
one subprocess test at the bottom runs the `python -m cyclemotive` entry point.
"""

import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclemotive import cli, verify
from cyclemotive.errors import WORK_BUDGET, DomainError
from cyclemotive.ffcount import CongruenceReport
from cyclemotive.ring import Laurent1, MultiSeries, Poly2
from conftest import DATA, OVER_BUDGET, SRC, charged

P2_EXPR = str(DATA / "p2.json")
TORUS1_EXPR = str(DATA / "torus1.json")
GLUED_CONE_EXPR = str(DATA / "cone-elliptic-union-p2.json")
P2_FAN = str(DATA / "fan_p2.json")
P3_FAN = str(DATA / "fan_p3.json")
P1XP1_FAN = str(DATA / "fan_p1xp1.json")
BIDEGREE_GRADING = str(DATA / "grading_p1xp1_bidegree.json")
BIDEGREE = json.loads(Path(BIDEGREE_GRADING).read_text())
# subprocesses import the package from this tree, installed or not
TREE_ENV = dict(os.environ, PYTHONPATH=str(SRC))


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


@pytest.mark.parametrize("argv", [
    ("motive", "--measure", "count:2305843009213693951", P2_EXPR),
    ("toric", P2_FAN, "--count", "2305843009213693951"),
])
def test_64_bit_prime_field_is_prompt(argv):
    """2^61 - 1 is a prime; checking it must not take a factor search."""
    q = 2**61 - 1
    proc = subprocess.run([sys.executable, "-m", "cyclemotive", *argv],
                          capture_output=True, text=True, env=TREE_ENV, timeout=2)
    assert (proc.returncode, proc.stdout) == (0, f"{q * q + q + 1}\n")


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


def test_chow_failed_congruence_exit_code(capsys, monkeypatch):
    failed = CongruenceReport(3, 1, 6, 131)  # one point more than the count 130
    monkeypatch.setattr(cli, "chow_congruence_targets", lambda idx, q, m: failed)
    code, out, err = run(capsys, "chow", "-p", "1", "-d", "1", "-n", "3",
                         "--congruence", "3,1")
    assert (code, err) == (1, "")
    assert out.splitlines() == ["6", "131 = 1 mod 3 FAIL; 131 = 6 mod 2 FAIL"]


def test_chow_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "chow_invariant_recursive", lambda idx: -1)
    code, out, err = run(capsys, "chow", "-p", "1", "-d", "2", "-n", "3",
                         "--method", "both")
    assert code == 4
    assert "mismatch" in err


# ---------------------------------------------------------------------------
# every answer key at once: the plain lines follow one fixed order


CHOW_ALL = ("chow", "-p", "1", "-d", "1", "-n", "3", "--htilde", "--congruence", "3",
            "--series", "3")
TORIC_ALL = ("toric", P2_FAN, "--census", "--lambda", "--e-poly", "--count", "2",
             "--euler-series", "1,3")


@pytest.mark.parametrize("argv, text, as_json", [
    (CHOW_ALL,
     "6\nhtilde 6\n130 = 1 mod 3 ok; 130 = 6 mod 2 ok\n1,6,21,56\n",
     '{"congruence":{"actual":130,"expected_mod_q":1,"expected_mod_q_minus_1":6,'
     '"mod_q_minus_1_ok":true,"mod_q_ok":true,'
     '"note":"degree 1: linear cycles form a Grassmannian","q":3,"testable":true},'
     '"d":1,"htilde":"6","n":3,"p":1,"series":[1,6,21,56],"value":6}\n'),
    (TORIC_ALL,
     "1,3,3\n3\n1+uv+u^2*v^2\n7\n1,3,6,10\n",
     '{"census":[1,3,3],"count":7,"e_poly":"1+uv+u^2*v^2",'
     '"euler_series":{"arity":1,"order":3,"terms":[[[0],1],[[1],3],[[2],6],[[3],10]]},'
     '"lambda":3}\n'),
], ids=["chow", "toric"])
def test_full_answer_pinned(capsys, argv, text, as_json):
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--json") == (0, as_json, "")


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


def test_grading_path_may_hold_commas(capsys, tmp_path):
    grading = tmp_path / "a,b" / "c,d.json"
    grading.parent.mkdir()
    grading.write_text(Path(BIDEGREE_GRADING).read_text())
    want = run(capsys, "toric", P1XP1_FAN, "--euler-series", f"1,2,{BIDEGREE_GRADING}")
    assert want[0] == 0
    assert run(capsys, "toric", P1XP1_FAN, "--euler-series", f"1,2,{grading}") == want


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


def test_verify_all_json_matches_golden(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--json")
    assert (code, err) == (0, "")
    assert out == (DATA / "verify_all.json").read_text()


def test_verify_all_text_matches_golden(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert (code, err) == (0, "")
    assert out == (DATA / "verify_all.txt").read_text()


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["plain", "json"])
def test_verify_all_takes_under_a_tenth_of_the_work_budget(capsys, form):
    code, units = charged(cli.main, ["verify", "--suite", "all", *form])
    assert code == 0
    assert units < WORK_BUDGET / 10


def test_printed_series_match_the_golden_transcript(capsys, monkeypatch):
    """tests/data/series_all.txt pins what `chow --series` and `toric
    --euler-series` print, plain and with --json: each `$ cyclemotive ARGS`
    line is followed by that call's output.  Its gradings reach both
    expansion stages: the degree grading and the bidegree file give unit
    vectors, the file with exponents (1, 1) and (2, 0) rows to fold."""
    monkeypatch.chdir(SRC.parent)
    blocks = re.split(r"^\$ cyclemotive (.*)\n", (DATA / "series_all.txt").read_text(),
                      flags=re.M)
    assert blocks[0] == "" and len(blocks) == 1 + 2 * 14
    for args, want in zip(blocks[1::2], blocks[2::2]):
        assert run(capsys, *args.split()) == (0, want, ""), args


def test_unknown_suite_is_refused():
    with pytest.raises(DomainError, match="^unknown suite"):
        verify.run_suites(["nope"])


@pytest.mark.parametrize("suite, route, check, cases, case_keys", [
    ("lawson-yau", "chow_invariant_recursive", "recursion equals closed form", 308,
     ("args",)),
    ("toric", "toric_count", "census, euler number, and point counts agree", 18,
     ("args",)),
    ("irreducible", "irreducible_invariant", "irreducible locus values on the grid",
     84, ("args",)),
])
def test_verify_reports_a_broken_route(capsys, monkeypatch, suite, route, check,
                                       cases, case_keys):
    true_route = getattr(verify, route)
    monkeypatch.setattr(verify, route, lambda *args: true_route(*args) + 1)
    report = verify.run_suites([suite])
    assert report["ok"] is False
    (failed,) = [c for c in report["suites"][0]["checks"] if not c["ok"]]
    assert (failed["name"], failed["cases"]) == (check, cases)
    # the first five failure records, each from a different case
    records = failed["failures"]
    assert len(records) == 5
    assert len({tuple(str(r[k]) for k in case_keys) for r in records}) == 5
    if suite == "lawson-yau":
        assert all(set(r) == {"args", "got", "want"} and r["got"] == r["want"] + 1
                   for r in records)
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 1
    assert f"FAIL  {suite}: {check} ({cases} cases)" in out


def _plus_one(route):
    return lambda *args: route(*args) + 1


def _one_more_constant_term(route):
    def broken(*args):
        series = route(*args)
        return series + MultiSeries(series.arity, series.order, {(0,) * series.arity: 1})
    return broken


def _one_more_point(route):
    def broken(idx, q):
        r = route(idx, q)
        return CongruenceReport(r.q, r.expected_mod_q, r.expected_mod_q_minus_1, r.actual + 1)
    return broken


# (suite, route on verify, its broken form from the true route, check, cases):
# every check of every suite, each failing on its first five cases or more
_BROKEN_CHECKS = [
    ("lawson-yau", "chow_invariant_recursive", _plus_one,
     "recursion equals closed form", 308),
    ("lawson-yau", "chow_invariant_closed", _plus_one, "closed form equals binomial", 308),
    ("series", "chow_series", lambda route: lambda p, n, order: route(p, n + 1, order),
     "series coefficients equal closed form", 189),
    ("hodge-remark", "eval_E", lambda route: lambda e: route(e) + Poly2({(1, 0): 1}),
     "glued-cone class reproduced", 1),
    ("hodge-remark", "eval_E", lambda route: lambda e: route(e) + Poly2({(1, 0): 1}),
     "euler number is 4", 1),
    ("hodge-remark", "eval_E", lambda route: lambda e: route(e) + Poly2({(1, 0): 1}),
     "first virtual betti number is 2", 1),
    ("quotients", "eval_measure", lambda route: lambda e, m: Laurent1({0: 1}),
     "multiplicative group dies mod uv-1", 1),
    ("quotients", "eval_measure", lambda route: lambda e, m: Laurent1({0: 1}),
     "additive group dies mod uv", 1),
    ("quotients", "chow_htilde", lambda route: lambda idx: route(idx) + Laurent1({1: 1}),
     "cycle-space image is the constant Euler number", 308),
    ("hodge-constraints", "hodge_constraints_check",
     lambda route: lambda h, chi, bound: route(h, chi + 1, bound),
     "projective spaces pass all three constraints", 6),
    ("hodge-constraints", "hodge_constraints_check",
     lambda route: lambda h, chi, bound: route(h, chi + 1, bound),
     "grassmannians pass all three constraints", 21),
    ("toric", "toric_count", _plus_one, "census, euler number, and point counts agree", 18),
    ("euler-chow", "euler_series",
     lambda route: lambda fan, p, order, grading: route(fan, p, order, lambda d: (2,)),
     "fan orbit product equals cycle series on projective fans", 9),
    ("euler-chow", "euler_chow_product_recursive", _one_more_constant_term,
     "product recursion equals product formula", 162),
    ("congruences", "grassmannian_count_brute", _plus_one,
     "brute-force subspace census equals formula", 63),
    ("congruences", "chow_congruence_targets", _one_more_point,
     "linear cycle counts reduce to 1 mod q and binomial mod q-1", 196),
    ("irreducible", "irreducible_invariant", _plus_one,
     "irreducible locus values on the grid", 84),
    ("irreducible", "irreducible_invariant_product", _plus_one,
     "product irreducible locus: units and only units count", 107),
]


@pytest.mark.parametrize("suite, route, broken, check, cases", _BROKEN_CHECKS,
                         ids=[f"{suite}: {check}" for suite, _, _, check, _ in _BROKEN_CHECKS])
def test_verify_reports_every_broken_check(capsys, monkeypatch, suite, route, broken,
                                           check, cases):
    monkeypatch.setattr(verify, route, broken(getattr(verify, route)))
    code, out, err = run(capsys, "verify", "--suite", suite, "--json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    (failed,) = [c for c in report["suites"][0]["checks"] if c["name"] == check]
    assert (failed["ok"], failed["cases"]) == (False, cases)
    # a one-case check reports its one failure record, a check of many
    # cases its first five
    records = failed["failures"]
    assert len(records) == (1 if cases == 1 else 5)
    assert all(set(r) == {"args", "got", "want"} and r["got"] != r["want"]
               for r in records)
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 1
    assert f"FAIL  {suite}: {check} ({cases} cases)" in out.splitlines()
    assert out.endswith("FAILURES above\n")


def test_verify_failure_records_print_canonical_text(monkeypatch):
    true_htilde = verify.chow_htilde
    monkeypatch.setattr(verify, "chow_htilde",
                        lambda idx: true_htilde(idx) + Laurent1({1: 1}))
    (suite,) = verify.run_suites(["quotients"])["suites"]
    (failed,) = [c for c in suite["checks"] if not c["ok"]]
    assert failed["failures"][0] == {"args": [0, 0, 0], "got": "1+u", "want": "1"}


def test_verify_text_prints_each_failure_record_as_canonical_json(capsys, monkeypatch):
    true_eval_E = verify.eval_E
    monkeypatch.setattr(verify, "eval_E", lambda e: true_eval_E(e) + Poly2({(1, 0): 1}))
    code, out, _ = run(capsys, "verify", "--suite", "hodge-remark")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("FAIL  hodge-remark: euler number is 4 (1 cases)")
    assert lines[at + 1] == '      {"args":[],"got":5,"want":4}'


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


# a bad cycle index keeps the single-space message, whichever route refuses it
PINNED_INPUT_ERRORS = {
    ("chow", "-p", "3", "-n", "2", "-d", "1"): "error: need 0 <= p <= n, got p=3, n=2\n",
    ("chow", "-p", "3", "-n", "2", "--series", "3"): "error: need 0 <= p <= n, got p=3, n=2\n",
}


@pytest.mark.parametrize("argv", [
    *PINNED_INPUT_ERRORS,
    ("motive", "--measure", "count:6", P2_EXPR),        # 6 not a prime power
    ("motive", "--measure", "count:abc", P2_EXPR),      # malformed q
    ("motive", "--measure", "euler", "/no/such/file"),  # unreadable file
    ("chow", "-p", "3", "-n", "1", "--series", "2"),    # p > n
    ("chow", "-p", "1", "-n", "3"),                     # nothing requested
    ("chow", "-p", "1", "-n", "3", "--htilde"),         # htilde needs -d
    ("chow", "-p", "1", "-n", "3", "--series", "-1"),   # negative order
    ("chow", "-p", "1", "-d", "1", "-n", "3", "--congruence", "3,x"),  # malformed m
    ("toric", P2_FAN),                                  # nothing requested
    ("toric", P1XP1_FAN, "--euler-series", "1"),        # missing order
    ("toric", P1XP1_FAN, "--count", "4,2,9"),           # too many fields
    ("toric", P2_FAN, "--count", "6"),                  # 6 not a prime power
    # integers are spelled in ASCII digits only
    ("motive", "--measure", "count:1_1", P2_EXPR),
    ("motive", "--measure", "count: 3", P2_EXPR),
    ("motive", "--measure", "count:+3", P2_EXPR),
    ("motive", "--measure", "count:\uff13", P2_EXPR),  # fullwidth 3
    ("chow", "-p", "1", "-d", "1", "-n", "3", "--congruence", "1_1"),
    ("toric", P1XP1_FAN, "--euler-series", "1_0,2"),
    ("toric", P1XP1_FAN, "--euler-series", "1, 2"),
    ("toric", P2_FAN, "--count", "2,+1"),
    ("chow", "-p", "0", "-d", "-1", "-n", "3"),  # negative degree
    ("chow", "-p", "0", "-d", "1", "-n", "1_0"),
    ("chow", "-p", "+0", "-d", "1", "-n", "3"),
    ("chow", "-p", "0", "-d", "\uff11", "-n", "3"),  # fullwidth 1
    ("chow", "-p", "0", "-n", "3", "--series", " 2"),
    ("motive", "--measure", "count:18446744073709551629", P2_EXPR),  # prime >= 2^64
])
def test_input_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert err == PINNED_INPUT_ERRORS.get(argv, err)


@pytest.mark.parametrize("argv", [
    ("chow", "-p", "abc", "-n", "3", "-d", "1"),
    ("chow", "-p", "1", "-n", "3", "-d", "x"),
    ("chow", "-p", "1", "-n", "3", "--series", "1.5"),
])
def test_malformed_integer_option_is_one_line(capsys, argv):
    """An integer option int() refuses gets the same one-line error as one
    spelled in non-ASCII digits, not argparse's usage block."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert one_line_error(err)
    assert "integer options are spelled in ASCII digits" in err


@pytest.mark.parametrize("option, argv", [
    ("-p", ("chow", "-p", "abc", "-n", "3", "-d", "1")),
    ("-n", ("chow", "-p", "1", "-n", "1_0", "-d", "1")),
    ("-d", ("chow", "-p", "1", "-n", "3", "-d", "x")),
    ("--series", ("chow", "-p", "1", "-n", "3", "--series", "1.5")),
])
def test_malformed_integer_option_is_named(capsys, option, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {option}: ")


@pytest.mark.parametrize("argv", [
    ("chow", "-p", "9" * 5000, "-n", "3", "-d", "1"),           # past int()'s digit limit
    ("chow", "-p", "1", "-n", "3", "-d", "x" * 5000),
    ("motive", "--measure", "count:" + "9" * 5000 + "x", P2_EXPR),
    ("chow", "-p", "1", "-n", "3", "-d", "1", "--congruence", "3," + "x" * 5000),
    ("toric", P2_FAN, "--count", "x" * 5000),
])
def test_long_bad_value_gives_one_short_line(capsys, argv):
    """A bad value is echoed cut to a fixed length, with its full length."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert one_line_error(err)
    assert len(err) < 200
    assert "characters)" in err


@pytest.mark.parametrize("what, argv", [
    ("-p", ("chow", "-p", "9" * 5000, "-n", "3", "-d", "1")),
    ("--euler-series", ("toric", P2_FAN, "--euler-series", "1," + "9" * 5000)),
    ("count measure", ("motive", "--measure", "count:" + "9" * 5000, P2_EXPR)),
])
def test_over_long_digit_string_is_called_too_long(capsys, what, argv):
    """An all-digit value past int()'s digit limit is called too long, not
    malformed, in one short line that names the input."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert one_line_error(err)
    assert len(err) < 200
    assert err.startswith(f"error: {what}: ")
    assert "longer than sys.get_int_max_str_digits()" in err


def test_long_unknown_measure_gives_one_short_line(capsys):
    code, out, err = run(capsys, "motive", P2_EXPR, "--measure", "x" * 5000)
    assert (code, out) == (3, "")
    assert one_line_error(err)
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv", [
    ("toric", P2_FAN, "--census", "--count", ""),
    ("toric", P2_FAN, "--census", "--euler-series", ""),
    ("chow", "-p", "1", "-n", "3", "-d", "1", "--congruence", ""),
])
def test_empty_option_value_is_refused(capsys, argv):
    """An empty value asks for the option and is refused by its parser,
    not dropped as if the option were absent."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert one_line_error(err)
    assert argv[-2] in err


def test_invalid_fan_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"dim": 2, "rays": [[2, 0]], "cones": [[0]]}))
    code, _, err = run(capsys, "toric", str(bad), "--lambda")
    assert code == 2
    assert "primitive" in err


def test_toric_cli_checks_the_fan_once(capsys, rank_calls):
    code, _, _ = run(capsys, "toric", P3_FAN, "--census", "--lambda", "--e-poly",
                     "--count", "3", "--euler-series", "1,2")
    assert code == 0
    fan = json.loads(Path(P3_FAN).read_text())
    cones = sorted(tuple(tuple(fan["rays"][i]) for i in c) for c in fan["cones"])
    assert sorted(rank_calls) == cones  # each listed cone ranked exactly once


def one_line_error(err):
    return err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("fan", [
    {"dim": 1.5, "rays": [[1.9], ["-1"]], "cones": [[0], [True]]},
    {"dim": 1, "rays": [[1], [-1]], "cones": [[0], [True]]},
])
def test_fan_file_needs_json_integers(capsys, tmp_path, fan):
    bad = tmp_path / "badfan.json"
    bad.write_text(json.dumps(fan))
    code, out, err = run(capsys, "toric", str(bad), "--census", "--e-poly")
    assert (code, out) == (2, "")
    assert one_line_error(err)


@pytest.mark.parametrize("entry", [
    [[1], [1.7, 0]],
    [[1], [True, 0]],
    [[1], [0, "1"]],
    [[True], [1, 0]],
])
def test_grading_file_needs_json_integers(capsys, tmp_path, entry):
    grading = list(BIDEGREE)
    grading[1] = entry  # the entry for the divisor of ray 1
    bad = tmp_path / "grading.json"
    bad.write_text(json.dumps(grading))
    code, out, err = run(capsys, "toric", P1XP1_FAN, "--euler-series", f"1,2,{bad}")
    assert (code, out) == (2, "")
    assert one_line_error(err)


@pytest.mark.parametrize("grading, message", [
    ({"0": [1, 0]}, "grading file must be a JSON array of pairs"),
    ([[[0], [1, 0]], [[1]]], "grading entry must be a pair, got [[1]]"),
    ([[[0], [1, 0]], [[1], [1, 0]], [[2], [0, 1]], [[3], [0, 1]], [[0], [0, 1]]],
     "grading file lists orbit closure [0] twice"),
    # the bidegree grading plus one entry that names no curve of the quadric
    (BIDEGREE + [[[9], [1, 0]]],
     "grading file lists cone [9], which is no 1-dimensional orbit closure"),
    (BIDEGREE + [[[0, 1], [1, 0]]],
     "grading file lists cone [0, 1], which is no 1-dimensional orbit closure"),
    (BIDEGREE + [[[0, 2], [1, 0]]],
     "grading file lists cone [0, 2], which is no 1-dimensional orbit closure"),
], ids=["not-an-array", "not-a-pair", "cone-twice", "no-such-ray", "not-a-cone",
        "point-cone"])
def test_malformed_grading_file_exits_2(capsys, tmp_path, grading, message):
    bad = tmp_path / "grading.json"
    bad.write_text(json.dumps(grading))
    code, out, err = run(capsys, "toric", P1XP1_FAN, "--euler-series", f"1,2,{bad}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _argv_reading(kind, path):
    return {
        "expression": ["motive", path],
        "fan": ["toric", path, "--census"],
        "grading": ["toric", P1XP1_FAN, "--euler-series", f"1,2,{path}"],
    }[kind]


# what each kind of input file is called in its messages
_FILE_NAMES = {"expression": "expression", "fan": "fan", "grading": "grading file"}


@pytest.mark.parametrize("kind", ["expression", "fan", "grading"])
def test_malformed_json_file_exits_2(capsys, tmp_path, kind):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, *_argv_reading(kind, str(bad)))
    assert (code, out) == (2, "")
    assert one_line_error(err)
    assert err.startswith(f"error: {_FILE_NAMES[kind]} is not valid JSON: ")


_LONG = "a" * 100_000


@pytest.mark.parametrize("kind, value", [
    ("expression", {"op": "cone", "args": [_LONG]}),
    ("expression", {"leaf": _LONG}),
    ("expression", {"leaf": "proj_space", "n": _LONG}),
    ("expression", {"name": _LONG}),
    ("grading", [[_LONG]]),
    ("fan", {"dim": 1, "rays": [[1] * 100_000], "cones": []}),
], ids=["node", "leaf-kind", "integer-field", "no-op-or-leaf", "grading-entry", "ray"])
def test_long_json_value_gives_one_short_line(capsys, tmp_path, kind, value):
    """A bad value in an input file is echoed cut to a fixed length, with
    its full length, as a bad option value is."""
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(value))
    code, out, err = run(capsys, *_argv_reading(kind, str(bad)))
    assert code in (2, 3) and out == ""
    assert one_line_error(err)
    assert len(err) < 200
    assert "characters)" in err


@pytest.mark.parametrize("kind", ["expression", "fan", "grading"])
def test_non_utf8_file_exits_2(capsys, tmp_path, kind):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"leaf": "point", "name": "\xe9"}')
    code, out, err = run(capsys, *_argv_reading(kind, str(bad)))
    assert (code, out) == (2, "")
    assert one_line_error(err)


@pytest.mark.parametrize("kind", ["expression", "fan", "grading"])
def test_deeply_nested_file_exits_2(capsys, tmp_path, kind):
    depth = 1500
    deep = tmp_path / "deep.json"
    if kind == "expression":
        deep.write_text('{"op": "cone", "args": [' * depth + '{"leaf": "point"}'
                        + "]}" * depth)
    else:
        deep.write_text("[" * depth + "]" * depth)
    code, out, err = run(capsys, *_argv_reading(kind, str(deep)))
    assert (code, out) == (2, "")
    assert one_line_error(err)


@pytest.mark.parametrize("kind", ["expression", "fan", "grading"])
def test_over_long_integer_file_exits_2(capsys, tmp_path, kind):
    """json.loads refuses an integer literal past the interpreter's digit
    limit with a plain ValueError, not a JSONDecodeError."""
    long = tmp_path / "long.json"
    long.write_text('{"leaf": "proj_space", "n": ' + "9" * 5000 + "}")
    code, out, err = run(capsys, *_argv_reading(kind, str(long)))
    assert (code, out) == (2, "")
    assert one_line_error(err)
    assert f"{sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("argv", [
    ("motive", P2_EXPR, "--measure", "count:2,20000"),
    ("toric", P2_FAN, "--count", "2,20000"),
    ("chow", "-p", "0", "-n", "2", "-d", "1", "--congruence", "2,20000"),
    ("motive", "LONG_PRODUCT"),
], ids=["motive-count", "toric-count", "chow-congruence", "motive-product"])
def test_over_long_result_exits_2(capsys, tmp_path, argv, as_json):
    """A result holding an integer past the interpreter's digit limit is
    refused as an input error, not printed as a traceback."""
    if argv[-1] == "LONG_PRODUCT":
        leaf = {"leaf": "custom", "e_poly": [[0, 0, int("7" * 3000)]], "countable": True}
        expr = tmp_path / "long_product.json"
        expr.write_text(json.dumps({"op": "product", "args": [leaf, leaf]}))
        argv = (*argv[:-1], str(expr))
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, out) == (2, "")
    assert one_line_error(err)
    assert "sys.get_int_max_str_digits()" in err
    assert f"{sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("argv", [
    ("toric", P2_FAN, "--count", "2,1000000000000"),
    ("motive", P2_EXPR, "--measure", "count:2,1000000000000"),
    ("chow", "-p", "1", "-n", "3", "-d", "1", "--congruence", "2,1000000000000"),
], ids=["toric-count", "motive-count", "chow-congruence"])
def test_huge_field_is_refused_before_any_work(argv):
    """A q^m of more digits than can be printed is refused by the field
    check, before a count is built from it: building 2^(10^12) runs out of
    memory or time."""
    proc = subprocess.run([sys.executable, "-m", "cyclemotive", *argv],
                          capture_output=True, text=True, env=TREE_ENV, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert one_line_error(proc.stderr)


def test_a_count_at_a_field_past_the_digit_limit_is_answered(capsys, tmp_path):
    """q^m = 2^20000 has 6021 digits, more than the interpreter prints, but
    a point has one point over every field: q^m is priced by the work meter
    like any other power, not refused for its digits (this exited 2)."""
    point = tmp_path / "point.json"
    point.write_text('{"leaf": "point"}')
    code, out, err = run(capsys, "motive", str(point), "--measure", "count:2,20000")
    assert (code, out, err) == (0, "1\n", "")


def test_a_count_measure_charges_its_field_once(capsys, tmp_path):
    """3^2000000 fits the work budget once: the measure's check builds no
    power, so only the count charges it (charged twice, this exited 2)."""
    point = tmp_path / "point.json"
    point.write_text('{"leaf": "point"}')
    code, out, err = run(capsys, "motive", str(point), "--measure", "count:3,2000000")
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("tree, measure", [
    ({"leaf": "torus", "n": 20000}, "euler"),
    ({"leaf": "proj_space", "n": 20000000}, "e-poly"),
    # each factor is inside the bound, their product is not
    ({"op": "product", "args": [{"leaf": "proj_space", "n": 5000}] * 2}, "e-poly"),
    ({"leaf": "grassmannian", "k": 100000, "n": 100001}, "count-poly"),
    ({"leaf": "grassmannian", "k": 100000000, "n": 100000000}, "count-poly"),
], ids=["torus", "proj-space", "product", "grassmannian-tall", "grassmannian-long"])
def test_oversized_expression_is_refused_before_any_work(tmp_path, tree, measure):
    """The work meter refuses an expression before the charge that would
    overrun its budget: the torus ran past a 15 s timeout and the
    projective space out of memory (a traceback, exit 1)."""
    expr = tmp_path / "expr.json"
    expr.write_text(json.dumps(tree))
    proc = subprocess.run([sys.executable, "-m", "cyclemotive", "motive", str(expr),
                           "--measure", measure],
                          capture_output=True, text=True, env=TREE_ENV, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert one_line_error(proc.stderr)
    assert "work takes more than its budget" in proc.stderr


@pytest.mark.parametrize("tree, measure", [
    ({"leaf": "proj_space", "n": 2000}, "count:2,14000"),
    ({"leaf": "proj_space", "n": 999999}, "count:2"),
], ids=["value-past-the-digit-limit", "horner-past-its-bound"])
def test_oversized_count_is_refused_before_horner(tmp_path, tree, measure):
    """The charge that opens Horner's rule refuses both counts before the
    rule runs: they ran about 60 s and 54 s before exiting 2 for a result
    past the digit limit."""
    expr = tmp_path / "expr.json"
    expr.write_text(json.dumps(tree))
    proc = subprocess.run([sys.executable, "-m", "cyclemotive", "motive", str(expr),
                           "--measure", measure],
                          capture_output=True, text=True, env=TREE_ENV, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert one_line_error(proc.stderr)


@pytest.mark.parametrize("tree, argv", [
    ({"leaf": "proj_space", "n": 4}, ["--measure", "count:2,4000"]),
    ({"leaf": "proj_space", "n": 5}, ["--measure", "count:2,4000"]),
    (None, ["chow", "-p", "1", "-n", "3", "-d", "1", "--congruence", "2,4000"]),
    (None, ["chow", "-p", "5", "-n", "40", "--series", "1062"]),
], ids=["P4", "P5", "congruence", "series"])
def test_counts_past_the_printed_digits_are_refused_by_the_printer(tmp_path, tree, argv):
    """The library returns these counts exactly (4817, 6021 and 4817
    digits, and a series whose last entries pass 4300); the one message
    that refuses them is the printer's, under the 2 GB cap."""
    if tree is not None:
        expr = tmp_path / "expr.json"
        expr.write_text(json.dumps(tree))
        argv = ["motive", str(expr), *argv]
    proc = subprocess.run([sys.executable, "-m", "cyclemotive", *argv],
                          capture_output=True, text=True, env=TREE_ENV, timeout=10,
                          preexec_fn=_address_space_cap)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert one_line_error(proc.stderr)
    assert proc.stderr.startswith("error: the result holds an integer longer than ")


def _address_space_cap():
    """Cap the child's address space at 2 GB, so that a regression fails
    the test instead of exhausting the host."""
    cap = 2 * 1024**3
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("argv", [
    ("chow", "-p", "1", "-n", "3", "-d", "3", "--series", "100000000"),
    ("toric", str(DATA / "fan_p2.json"), "--euler-series", "1,100000000"),
    ("chow", "-p", "1", "-n", "3", "-d", "100000000", "--method", "recursive"),
    ("toric", str(DATA / "fan_p3.json"), "--euler-series",
     f"1,200,{DATA / 'grading_p3_lines_unit.json'}"),
    ("chow", "-p", "2", "-n", "4", "-d", "1000000", "--method", "recursive"),
    ("chow", "-p", "5", "-n", "40", "-d", "3000", "--method", "recursive"),
    ("chow", "-p", "0", "-n", "1000000", "-d", "1000000"),
    ("chow", "-p", "1500", "-n", "3000", "-d", "1", "--congruence", "2"),
    ("chow", "-p", "0", "-n", "10000000", "-d", "1", "--congruence", "7"),
], ids=["chow-series", "toric-series", "chow-deep-degree", "toric-series-six-variables",
        "chow-wide-rows", "chow-big-entries", "chow-closed-binomial",
        "congruence-wide-grassmannian", "congruence-long-field-power"])
def test_series_and_recursions_past_the_budget_exit_2(argv):
    """The series, recursion, closed-form and count routes are refused by
    the work meter before they build what overruns its budget: under a
    2 GB cap the first four ended in a MemoryError traceback (exit 1), the
    next two ran past a 20 s timeout, and the closed form's one binomial
    ran 31.7 s before the printer refused it."""
    proc = subprocess.run([sys.executable, "-m", "cyclemotive", *argv],
                          capture_output=True, text=True, env=TREE_ENV, timeout=10,
                          preexec_fn=_address_space_cap)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert one_line_error(proc.stderr)
    assert "work takes more than its budget" in proc.stderr


def test_oversized_census_is_refused_under_the_address_space_cap():
    """Each census is refused by the work meter before its pivot patterns
    are listed: the 30 million patterns of (12, 28, 2), a copy of
    range(10^9) or range(10^7), or the one 20000 x 20000 matrix, would not
    fit under the 2 GB cap."""
    code = ("import cyclemotive as cm\n"
            "for args in ((8, 24, 2), (12, 28, 2), (1, 10**9, 2), (0, 10**7, 2),\n"
            "             (20000, 20000, 2)):\n"
            "    try:\n"
            "        cm.grassmannian_count_brute(*args)\n"
            "    except cm.BudgetError as e:\n"
            "        print(e)\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=TREE_ENV, timeout=10, preexec_fn=_address_space_cap)
    refusal = OVER_BUDGET + "\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, refusal * 5, "")


def test_library_calls_past_the_budget_are_refused_under_the_address_space_cap():
    """Every exported call runs under the work meter, not only the CLI's:
    under the 2 GB cap the two series ran out of memory, the recursions and
    the Pascal table ran past 20 s, the torus took 4.7 s to answer, and the
    subspace count 8.7 s.  The two evaluations, priced at 3 units a term
    whatever their powers, took 2.4 s and 6.6 s to answer, and the product
    of 1085 variables, priced below the keys its stages copy, 6.9 s.  A
    point at count:3,10^7 ran for seconds before its field size was priced,
    and P^24 and A^25, charged nothing, ended in a MemoryError after 6.9 s
    and 5.6 s.  P^(10^12) is refused by its rays' charge, before 2^(10^12)
    is taken for its cones'."""
    code = """
import time
import cyclemotive as cm
calls = [
    lambda: cm.chow_series(1, 3, 10**8),
    lambda: cm.euler_series(cm.projective_fan(2), 1, 10**8, lambda d: (1,)),
    lambda: cm.chow_invariant_recursive(cm.ChowIndex(5, 3000, 40)),
    lambda: cm.chow_invariant_recursive(cm.ChowIndex(2, 10**6, 4)),
    lambda: cm.gaussian_binomial_poly(4000, 2000),
    lambda: cm.eval_E(cm.Torus(3000)),
    lambda: cm.coordinate_subspace_count(500000, 1000000),
    lambda: cm.specialize(cm.Poly2({(10**7, 0): 1}), 3, 1),
    lambda: cm.specialize(cm.Poly2({(10**5, 0): 1}), 10**100, 1),
    lambda: cm.euler_chow_product_formula(1084, 1084, 1084, 1),
    lambda: cm.eval_measure(cm.Point(), cm.Measure("count", 3, 10**7)),
    lambda: cm.projective_fan(24),
    lambda: cm.affine_fan(25),
    lambda: cm.projective_fan(10**12),
]
for call in calls:
    start = time.perf_counter()
    try:
        call()
    except cm.BudgetError as e:
        print(e, time.perf_counter() - start < 2)
"""
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=TREE_ENV, timeout=30, preexec_fn=_address_space_cap)
    refusal = OVER_BUDGET + " True\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, refusal * 14, "")


def test_degree_one_congruence_counts_the_smaller_grassmannian():
    """G(3000, 3001) is counted as G(1, 3001): over its own k the count took
    about 30 s."""
    proc = subprocess.run([sys.executable, "-m", "cyclemotive", "chow", "-p", "2999",
                           "-n", "3000", "-d", "1", "--congruence", "2"],
                          capture_output=True, text=True, env=TREE_ENV, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1].startswith(f"{2**3001 - 1} = 1 mod 2 ok")


def test_unprintable_degree_one_congruence_is_refused_before_it_is_counted():
    """[61, 30] at 2^4000 has about 1.1 * 10^6 digits; counting it ran past
    a 30 s timeout.  The charge that opens gaussian_binomial refuses it."""
    proc = subprocess.run([sys.executable, "-m", "cyclemotive", "chow", "-p", "30",
                           "-n", "60", "-d", "1", "--congruence", "2,4000"],
                          capture_output=True, text=True, env=TREE_ENV, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert one_line_error(proc.stderr)
    assert "work takes more than its budget" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("motive", "--measure", "count:2", GLUED_CONE_EXPR),    # elliptic leaf
    ("motive", "--measure", "count-poly", GLUED_CONE_EXPR),
    ("motive", "--measure", "zeta", P2_EXPR),           # unknown measure
])
def test_unsupported_exits_3(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("name", [5, {"a": [1]}])
def test_custom_leaf_name_must_be_json_string(capsys, tmp_path, name):
    bad = tmp_path / "leaf.json"
    bad.write_text(json.dumps(
        {"leaf": "custom", "name": name, "e_poly": [[0, 0, 1]], "countable": True}))
    code, out, err = run(capsys, "motive", str(bad))
    assert (code, out) == (2, "")
    assert one_line_error(err)
    assert "'name' must be a string" in err


def test_unknown_leaf_exits_3(capsys, tmp_path):
    weird = tmp_path / "weird.json"
    weird.write_text(json.dumps({"leaf": "k3_surface"}))
    code, _, err = run(capsys, "motive", str(weird))
    assert code == 3
    assert "k3_surface" in err


# ---------------------------------------------------------------------------
# fuzzing: generated expression, fan and grading files, mostly malformed

_junk = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.just({}),
    st.just([]),
)


def _or_junk(strategy):
    """Mostly values of the right type; one draw in five is malformed.
    (one_of would weigh each of the six junk kinds like the good branch.)"""
    return st.integers(0, 4).flatmap(lambda i: strategy if i else _junk)


# small integers keep every well-formed input cheap to evaluate
_number = _or_junk(st.integers(-2, 4))


def _list_of(element, max_size=4):
    return _or_junk(st.lists(element, max_size=max_size))


@st.composite
def _small_fans(draw):
    """Well-typed fans, valid unless a ray is zero or an index is out of range."""
    dim = draw(st.integers(0, 3))
    rays = draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim),
                         max_size=5))
    cones = draw(st.lists(
        st.lists(st.integers(0, len(rays)), min_size=1, max_size=max(dim, 1),
                 unique=True).map(sorted),
        max_size=6, unique_by=tuple,
    ))
    return {"dim": dim, "rays": rays, "cones": cones}


_STOCK_FANS = [json.loads((DATA / f"fan_{name}.json").read_text())
               for name in ("p1", "p2", "p1xp1", "hirzebruch1", "a2")]
_fans = _or_junk(st.one_of(
    st.sampled_from(_STOCK_FANS),
    _small_fans(),
    st.fixed_dictionaries(
        {"dim": _number,
         "rays": _list_of(_list_of(_or_junk(st.integers(-1, 1)))),
         "cones": _list_of(_list_of(_number, 3), 6)},
        optional={"extra": _junk},
    ),
))
_leaves = _or_junk(st.one_of(
    st.fixed_dictionaries({"leaf": st.sampled_from(["point", "elliptic"])}),
    st.fixed_dictionaries({"leaf": st.sampled_from(["affine_space", "torus", "proj_space"]),
                           "n": _number}),
    st.fixed_dictionaries({"leaf": st.just("grassmannian"), "k": _number, "n": _number}),
    st.fixed_dictionaries({"leaf": st.just("cellular"), "cells": _list_of(_number)}),
    st.fixed_dictionaries({"leaf": st.just("toric_fan"), "fan": _fans}),
    st.fixed_dictionaries({"leaf": st.just("custom"),
                           "e_poly": _list_of(_list_of(_number, 3)),
                           "countable": _or_junk(st.booleans())}),
    st.fixed_dictionaries({"leaf": st.one_of(_junk, st.lists(_junk, max_size=2))}),
))
_expressions = st.recursive(
    _leaves,
    lambda kids: _or_junk(st.one_of(
        st.fixed_dictionaries({
            "op": st.sampled_from(["disjoint_union", "difference", "product"]),
            "args": st.lists(kids, min_size=2, max_size=2),
        }),
        st.fixed_dictionaries({"op": st.just("cone"), "args": st.lists(kids, min_size=1,
                                                                       max_size=1)}),
        st.fixed_dictionaries({"op": _or_junk(st.sampled_from(["product", "cone", "sum"])),
                               "args": _list_of(kids, 3)}),
    )),
    max_leaves=6,
)
_gradings = st.one_of(
    st.just(json.loads(Path(BIDEGREE_GRADING).read_text())),
    _list_of(_or_junk(st.tuples(_list_of(_number, 2), _list_of(_number, 3)).map(list)), 6),
)
_MEASURES = ["e-poly", "euler", "h-tilde", "h-bar", "count-poly", "count:2", "count:4,2",
             "count:6"]
_TORIC_FLAGS = [["--census"], ["--lambda"], ["--e-poly"], ["--count", "3"],
                ["--count", "6"]]


@st.composite
def _cli_calls(draw):
    """(argv with '{file}' placeholders, {file name: JSON value})."""
    kind = draw(st.sampled_from(["motive", "toric", "grading"]))
    if kind == "motive":
        return (["motive", "--measure", draw(st.sampled_from(_MEASURES)), "{expr}"],
                {"expr": draw(_expressions)})
    flags = [f for group in draw(st.lists(st.sampled_from(_TORIC_FLAGS), max_size=3))
             for f in group]
    p, order = draw(st.integers(-1, 3)), draw(st.integers(0, 3))
    if kind == "grading":
        return (["toric", "{fan}", *flags, f"--euler-series={p},{order},{{grading}}"],
                {"fan": draw(_fans), "grading": draw(_gradings)})
    if draw(st.booleans()):
        flags.append(f"--euler-series={p},{order}")
    return ["toric", "{fan}", *flags, "--json"], {"fan": draw(_fans)}


@given(_cli_calls())
@settings(max_examples=150, deadline=None)
def test_fuzzed_input_files_keep_the_exit_code_contract(call):
    argv_template, files = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, value in files.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(value))
            paths[name] = str(path)
        argv = [arg.format(**paths) for arg in argv_template]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)  # an escaping exception fails the test
    assert code in (0, 2, 3)
    if code:
        assert one_line_error(err.getvalue()), err.getvalue()
        assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# installed entry point


def _process(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=TREE_ENV, timeout=60)


@pytest.mark.parametrize("argv, statuses", [
    (("verify", "--suite", "all"), (0, 141)),
    # about 375 KB, more than a pipe holds, so a write meets the closed end
    (("chow", "-p", "1", "-n", "3", "--series", "20000"), (141,)),
], ids=["verify", "chow-series"])
def test_closed_stdout_ends_without_a_traceback(argv, statuses):
    """A reader that closes stdout early, as `| head -c 10` does, ends the
    call with no traceback and not with status 1, which means a failed
    verification; 141 where a write met the closed pipe."""
    with subprocess.Popen([sys.executable, "-m", "cyclemotive", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=TREE_ENV) as proc:
        proc.stdout.read(10)
        proc.stdout.close()
        status = proc.wait(timeout=30)
        err = proc.stderr.read()
    assert (status in statuses, err) == (True, b"")


def test_subprocess_entry_point():
    """`python -m cyclemotive` runs cli.run(): main's output and exit code,
    and an exit that still runs what the interpreter runs at exit."""
    proc = _process("-m", "cyclemotive", "chow", "-p", "0", "-n", "2", "--series", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1,3,6,10\n", "")
    proc = _process("-m", "cyclemotive", "chow", "-p", "3", "-n", "1", "--series", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert one_line_error(proc.stderr), proc.stderr
    # the profiler prints its table when the program exits
    proc = _process("-m", "cProfile", "-m", "cyclemotive",
                    "chow", "-p", "0", "-n", "2", "--series", "3")
    assert proc.returncode == 0
    answer, table = proc.stdout.split("\n", 1)
    assert answer == "1,3,6,10"
    assert "function calls" in table and "ncalls" in table
    # run() returns main's code: 4 for a cross-check mismatch
    probe = ("import sys; from cyclemotive import cli; "
             "cli.chow_invariant_recursive = lambda idx: -1; sys.exit(cli.run())")
    proc = _process("-c", probe, "chow", "-p", "1", "-d", "2", "-n", "3", "--method", "both")
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "cross-check mismatch: closed 21 != recursive -1\n"
