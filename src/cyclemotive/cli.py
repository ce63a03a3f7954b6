"""Command-line surface.

Four subcommands: evaluate a class expression under a measure, tabulate
cycle-space invariants, work with fans, and run the verification suites.
--json switches every subcommand to a canonical machine format (sorted
keys, no whitespace) that round-trips byte for byte.  Only this module
reads or writes JSON text: `_read_json` decodes each input file for the
library readers, and `_print_answer` writes each answer once.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 unsupported measure or uncountable class, 4 cross-check mismatch,
141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import toric
from ._record import _json
from .chow import (
    ChowIndex,
    chow_congruence_targets,
    chow_htilde,
    chow_invariant_closed,
    chow_invariant_recursive,
    chow_series,
)
from .errors import (
    BudgetError,
    DomainError,
    FanError,
    NotCountableError,
    ParseError,
    UnsupportedError,
    _ascii_ints,
    _json_ints,
    _long_integer,
    _shown,
    metered,
)
from .ffcount import toric_count
from .motive import (
    eval_measure,
    expr_from_json,
    measure_from_string,
    parse_q_m,
)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED = 3
EXIT_MISMATCH = 4


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _integer(text: str, option: str) -> int:
    """An integer option, read after parsing: ASCII digits after an optional
    minus sign, so that a negative value still reaches its domain check.
    `option` names it in the error message."""
    digits = text.removeprefix("-")
    message = f"{option}: integer options are spelled in ASCII digits, got {_shown(text)}"
    (value,) = _ascii_ints([digits], option, message)
    return value if digits == text else -value


def _comma_list(values) -> str:
    return ",".join(map(str, values))


def _congruence_text(report: dict) -> str:
    """The residue sentence of a CongruenceReport.to_json()."""
    q, actual = report["q"], report["actual"]
    mod_q, mod_qm1 = report["expected_mod_q"], report["expected_mod_q_minus_1"]
    if not report["testable"]:
        return f"expected {mod_q} mod {q} and {mod_qm1} mod {q - 1}; {report['note']}"
    mark_q, mark_qm1 = ("ok" if report[k] else "FAIL" for k in ("mod_q_ok", "mod_q_minus_1_ok"))
    return f"{actual} = {mod_q} mod {q} {mark_q}; {actual} = {mod_qm1} mod {q - 1} {mark_qm1}"


def _series_text(series: dict) -> str:
    """A one-variable series as its comma-separated coefficients up to the
    order; a series in several variables as one `[exponents] c` line per term."""
    if series["arity"] == 1:
        coefficients = {e: c for (e,), c in series["terms"]}
        return _comma_list(coefficients.get(e, 0) for e in range(series["order"] + 1))
    return "\n".join(f"{e} {c}" for e, c in series["terms"])


def _suites_text(suites: list) -> str:
    """One pass or FAIL line per check of run_suites(), each followed by the
    check's failure records, one canonical JSON line each."""
    lines = []
    for suite in suites:
        for check in suite["checks"]:
            mark = "pass" if check["ok"] else "FAIL"
            lines.append(f"{mark}  {suite['suite']}: {check['name']} ({check['cases']} cases)")
            lines += [f"      {_CANONICAL.encode(failure)}" for failure in check["failures"]]
    return "\n".join(lines)


# JSON key -> its lines of plain text, in the order the lines print.  Keys
# without a renderer (p, n, d, measure) appear in --json output only.
_TEXT = {
    "value": str,
    "htilde": "htilde {}".format,
    "congruence": _congruence_text,
    "series": _comma_list,
    "census": _comma_list,
    "lambda": str,
    "e_poly": str,
    "count": str,
    "euler_series": _series_text,
    "suites": _suites_text,
    "ok": lambda ok: "all suites pass" if ok else "FAILURES above",
}


def _plain(answer: dict) -> str:
    return "\n".join(render(answer[key]) for key, render in _TEXT.items() if key in answer)


def _print_answer(answer: dict, as_json: bool) -> None:
    """Print a subcommand's answer, written by `_record._json`: canonical
    JSON, or the text of each key that has a renderer, in the order of
    _TEXT.  An integer past the interpreter's digit limit cannot be printed,
    which is an input error: the input asked for a result too large to print."""
    try:
        data = _json(answer)
        text = _CANONICAL.encode(data) if as_json else _plain(data)
    except ValueError:
        raise DomainError(f"the result holds {_long_integer()}") from None
    print(text)


def _read_json(path: str, what: str):
    """The JSON data in a file; `what` names the input in the error message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    except ValueError:
        # int() refuses a literal longer than the interpreter's digit limit
        raise ParseError(f"{what} holds {_long_integer()}") from None


def cmd_motive(args) -> int:
    measure = measure_from_string(args.measure)
    expr = expr_from_json(_read_json(args.file, "expression"))
    value = eval_measure(expr, measure)
    _print_answer({"measure": args.measure, "value": value}, args.json)
    return EXIT_OK


# --method -> the values of its routes.  Each route is looked up by name when
# called, so a route replaced on this module later (a test double, a tracer)
# is the one that runs.
_METHODS = {
    "closed": lambda idx: [chow_invariant_closed(idx)],
    "recursive": lambda idx: [chow_invariant_recursive(idx)],
    "both": lambda idx: [chow_invariant_closed(idx), chow_invariant_recursive(idx)],
}


def cmd_chow(args) -> int:
    p, n = _integer(args.p, "-p"), _integer(args.n, "-n")
    d = None if args.d is None else _integer(args.d, "-d")
    order = None if args.series is None else _integer(args.series, "--series")
    answer: dict = {"p": p, "n": n}
    exit_code = EXIT_OK

    if d is not None:
        idx = ChowIndex(p, d, n)
        values = _METHODS[args.method](idx)
        if len(set(values)) > 1:
            print("cross-check mismatch: closed {} != recursive {}".format(*values),
                  file=sys.stderr)
            return EXIT_MISMATCH
        answer["d"] = d
        answer["value"] = values[0]
        if args.htilde:
            answer["htilde"] = chow_htilde(idx)
        if args.congruence is not None:
            report = chow_congruence_targets(idx, *parse_q_m(args.congruence, "--congruence"))
            answer["congruence"] = report
            if report.ok is False:
                exit_code = EXIT_VERIFY_FAILED
    elif args.htilde or args.congruence is not None:
        raise DomainError("--htilde and --congruence need a degree (-d)")

    if order is not None:
        if order < 0:
            raise DomainError("series order must be >= 0")
        series = chow_series(p, n, order)
        answer["series"] = [series.terms.get((e,), 0) for e in range(order + 1)]

    if d is None and order is None:
        raise DomainError("nothing to do: pass -d and/or --series")

    _print_answer(answer, args.json)
    return exit_code


def _load_grading(path: str, fan, p: int):
    """Grading file: JSON array of [cone_ray_indices, exponent_vector]
    pairs listing the fan's p-dimensional orbit closures, each once."""
    data = _read_json(path, "grading file")
    if not isinstance(data, list):
        raise ParseError("grading file must be a JSON array of pairs")
    table = {}
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"grading entry must be a pair, got {_shown(entry)}")
        cone, exponent = entry
        key = _json_ints(cone, "grading cone")
        if key in table:
            raise ParseError(f"grading file lists orbit closure {list(key)} twice")
        table[key] = _json_ints(exponent, "grading exponent")
    closures = [d.ray_indices for d in toric.invariant_subvarieties(fan, p)]
    for key in closures:
        if key not in table:
            raise ParseError(f"grading file misses orbit closure {list(key)}")
    listed = set(closures)
    for key in table:
        if key not in listed:
            raise ParseError(f"grading file lists cone {list(key)}, "
                             f"which is no {p}-dimensional orbit closure")
    return lambda descriptor: table[descriptor.ray_indices]


def _euler_series(fan, text: str):
    parts = text.split(",", 2)  # the grading path may hold commas
    if len(parts) not in (2, 3):
        raise ParseError("--euler-series expects p,order[,grading-file]")
    message = "--euler-series expects integer p and order"
    p, order = _ascii_ints(parts[:2], "--euler-series", message)
    if len(parts) == 3:
        grading = _load_grading(parts[2], fan, p)
    else:
        # degree grading: every class to the same single variable
        grading = lambda descriptor: (1,)
    return toric.euler_series(fan, p, order, grading)


# toric flag (its argparse dest, which is also its JSON key) -> its answer
# from the fan and the flag's value, in the order the answers print.  Library
# routes are looked up by name when called, as in _METHODS.
_TORIC = {
    "census": lambda fan, _: fan.census,
    "lambda": lambda fan, _: toric.toric_lambda(fan),
    "e_poly": lambda fan, _: toric.toric_E_poly(fan),
    "count": lambda fan, text: toric_count(fan, *parse_q_m(text, "--count")),
    "euler_series": _euler_series,
}


def cmd_toric(args) -> int:
    fan = toric.fan_from_json(_read_json(args.file, "fan"))
    # a flag absent is False or None; an empty value is asked for, and refused
    asked = {key: value for key in _TORIC if (value := getattr(args, key)) not in (None, False)}
    if not asked:
        raise DomainError(
            "nothing to do: pass --census, --lambda, --e-poly, --count, "
            "or --euler-series"
        )
    _print_answer({key: _TORIC[key](fan, value) for key, value in asked.items()}, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None if args.suite in (None, "all") else [args.suite]
    report = run_suites(names)
    _print_answer(report, args.json)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclemotive",
        description="Exact additive invariants of algebraic-variety classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_motive = sub.add_parser("motive", help="evaluate a class expression")
    p_motive.add_argument("file", help="expression JSON file")
    p_motive.add_argument(
        "--measure",
        default="e-poly",
        help="e-poly | euler | h-tilde | h-bar | count-poly | count:q[,m]",
    )
    p_motive.add_argument("--json", action="store_true")
    p_motive.set_defaults(func=cmd_motive)

    p_chow = sub.add_parser("chow", help="cycle-space invariants")
    p_chow.add_argument("-p", required=True, help="cycle dimension")
    p_chow.add_argument("-n", required=True, help="ambient dimension")
    p_chow.add_argument("-d", default=None, help="degree")
    p_chow.add_argument("--method", choices=tuple(_METHODS), default="closed")
    p_chow.add_argument("--series", default=None, metavar="ORDER")
    p_chow.add_argument("--htilde", action="store_true")
    p_chow.add_argument("--congruence", metavar="Q[,M]")
    p_chow.add_argument("--json", action="store_true")
    p_chow.set_defaults(func=cmd_chow)

    p_toric = sub.add_parser("toric", help="fan invariants")
    p_toric.add_argument("file", help="fan JSON file")
    p_toric.add_argument("--census", action="store_true")
    p_toric.add_argument("--lambda", action="store_true")
    p_toric.add_argument("--e-poly", action="store_true")
    p_toric.add_argument("--count", metavar="Q[,M]")
    p_toric.add_argument("--euler-series", metavar="P,ORDER[,GRADING]")
    p_toric.add_argument("--json", action="store_true")
    p_toric.set_defaults(func=cmd_toric)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=sorted(SUITES) + ["all"],
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return metered(args.func, args)
    except (NotCountableError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ParseError, FanError, DomainError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> int:
    """The process entry of `python -m cyclemotive` and the installed
    script: main() on sys.argv, then gc.freeze(), so that the collections
    the interpreter runs at exit skip the objects the call left alive; the
    operating system reclaims them.  atexit handlers still run and the
    streams are still flushed.  Other Python code calls main(argv), which
    leaves the collector alone.

    A reader that closes stdout early, as `| head` does, ends the call
    with no traceback and status 141 (128 + SIGPIPE), the status a shell
    reports for a process that SIGPIPE killed: what stdout still holds goes
    to the null device."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 141
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
