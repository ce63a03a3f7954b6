"""Command-line surface.

Four subcommands: evaluate a class expression under a measure, tabulate
cycle-space invariants, work with fans, and run the verification suites.
Values print as plain text by default; --json switches every subcommand to
a canonical machine format (sorted keys, no whitespace) that round-trips
byte for byte.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 unsupported measure or uncountable class, 4 cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import toric
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
    _ascii_int,
    _json_ints,
    _json_loads,
    _long_integer,
)
from .ffcount import toric_count
from .motive import (
    eval_measure,
    expr_from_json,
    measure_from_string,
    parse_q_m,
)
from .ring import MultiSeries
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED = 3
EXIT_MISMATCH = 4


class OptionSpellingError(Exception):
    """An integer option that int() reads but that is not spelled in ASCII
    digits.  Not a ValueError, so it passes argparse's type check up to
    main, which reports it as an input error."""


def _int_option(text: str) -> int:
    """An integer option: ASCII digits after an optional minus sign, so a
    negative value still reaches its domain check.  What int() refuses stays
    an argparse usage error."""
    value = int(text)
    try:
        _ascii_int(text.removeprefix("-"))
    except ValueError:
        raise OptionSpellingError(
            f"integer options are spelled in ASCII digits, got {text!r}"
        ) from None
    return value


_int_option.__name__ = "int"  # argparse names the type in its usage errors


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _text(value, render=str) -> str:
    """render(value) for output.  An integer past the interpreter's digit
    limit cannot be printed, which is an input error: the input asked for a
    result too large to print."""
    try:
        return render(value)
    except ValueError:
        raise DomainError(f"the result holds {_long_integer()}") from None


def canonical_json(value) -> str:
    return _text(value, _CANONICAL.encode)


def json_value(value):
    # integers stay numbers; polynomials use their canonical text form
    return value if isinstance(value, int) else _text(value)


def series_coefficients(series: MultiSeries) -> list[int]:
    assert series.arity == 1
    return [series.coefficient((d,)) for d in range(series.order + 1)]


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def cmd_motive(args) -> int:
    measure = measure_from_string(args.measure)
    expr = expr_from_json(_read_text(args.file))
    value = eval_measure(expr, measure)
    if args.json:
        print(canonical_json({"measure": args.measure, "value": json_value(value)}))
    else:
        print(_text(value))
    return EXIT_OK


def cmd_chow(args) -> int:
    output: dict = {"p": args.p, "n": args.n}
    lines: list[str] = []
    exit_code = EXIT_OK

    if args.d is not None:
        idx = ChowIndex(args.p, args.d, args.n)
        output["d"] = args.d
        if args.method == "closed":
            value = chow_invariant_closed(idx)
        elif args.method == "recursive":
            value = chow_invariant_recursive(idx)
        else:
            closed = chow_invariant_closed(idx)
            recursive = chow_invariant_recursive(idx)
            if closed != recursive:
                print(
                    f"cross-check mismatch: closed {closed} != recursive {recursive}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
            value = closed
        output["value"] = value
        lines.append(_text(value))

        if args.htilde:
            img = output["htilde"] = _text(chow_htilde(idx))
            lines.append(f"htilde {img}")

        if args.congruence:
            q, m = parse_q_m(args.congruence, "--congruence")
            report = chow_congruence_targets(idx, q, m)
            output["congruence"] = report.to_json()
            if report.testable:
                actual = _text(report.actual)
                mark_q = "ok" if report.mod_q_ok else "FAIL"
                mark_qm1 = "ok" if report.mod_q_minus_1_ok else "FAIL"
                lines.append(
                    f"{actual} = {report.expected_mod_q} mod {q} {mark_q}; "
                    f"{actual} = {report.expected_mod_q_minus_1} "
                    f"mod {q - 1} {mark_qm1}"
                )
                if not report.ok:
                    exit_code = EXIT_VERIFY_FAILED
            else:
                lines.append(
                    f"expected {report.expected_mod_q} mod {q} and "
                    f"{report.expected_mod_q_minus_1} mod {q - 1}; {report.note}"
                )
    elif args.htilde or args.congruence:
        raise DomainError("--htilde and --congruence need a degree (-d)")

    if args.series is not None:
        if args.series < 0:
            raise DomainError("series order must be >= 0")
        coeffs = series_coefficients(chow_series(args.p, args.n, args.series))
        output["series"] = coeffs
        lines.append(",".join(map(_text, coeffs)))

    if args.d is None and args.series is None:
        raise DomainError("nothing to do: pass -d and/or --series")

    if args.json:
        print(canonical_json(output))
    else:
        print("\n".join(lines))
    return exit_code


def _load_grading(path: str):
    """Grading file: JSON array of [cone_ray_indices, exponent_vector]
    pairs covering every p-dimensional orbit closure."""
    data = _json_loads(_read_text(path), "grading file")
    if not isinstance(data, list):
        raise ParseError("grading file must be a JSON array of pairs")
    table = {}
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"grading entry must be a pair, got {entry!r}")
        cone, exponent = entry
        table[_json_ints(cone, "grading cone")] = _json_ints(exponent, "grading exponent")

    def grade(descriptor):
        key = tuple(descriptor.ray_indices)
        if key not in table:
            raise ParseError(f"grading file misses orbit closure {list(key)}")
        return table[key]

    return grade


def cmd_toric(args) -> int:
    fan = toric.fan_from_json(_read_text(args.file))
    if not (args.census or args.lam or args.e_poly or args.count or args.euler_series):
        raise DomainError(
            "nothing to do: pass --census, --lambda, --e-poly, --count, "
            "or --euler-series"
        )
    output: dict = {}
    lines: list[str] = []

    if args.census:
        census = fan.census
        output["census"] = list(census)
        lines.append(",".join(str(d) for d in census))
    if args.lam:
        value = toric.toric_lambda(fan)
        output["lambda"] = value
        lines.append(str(value))
    if args.e_poly:
        text = str(toric.toric_E_poly(fan))
        output["e_poly"] = text
        lines.append(text)
    if args.count:
        q, m = parse_q_m(args.count, "--count")
        value = toric_count(fan, q, m)
        output["count"] = value
        lines.append(_text(value))
    if args.euler_series:
        parts = args.euler_series.split(",")
        if len(parts) not in (2, 3):
            raise ParseError("--euler-series expects p,order[,grading-file]")
        try:
            p = _ascii_int(parts[0])
            order = _ascii_int(parts[1])
        except ValueError:
            raise ParseError("--euler-series expects integer p and order") from None
        if len(parts) == 3:
            grading = _load_grading(parts[2])
        else:
            # degree grading: every class to the same single variable
            grading = lambda descriptor: (1,)
        series = toric.euler_series(fan, p, order, grading)
        terms = sorted(series.terms.items())
        output["euler_series"] = {
            "arity": series.arity,
            "order": series.order,
            "terms": [[list(e), c] for e, c in terms],
        }
        if series.arity == 1:
            lines.append(",".join(map(_text, series_coefficients(series))))
        else:
            lines.extend(f"{list(e)} {_text(c)}" for e, c in terms)

    if args.json:
        print(canonical_json(output))
    else:
        print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None if args.suite in (None, "all") else [args.suite]
    report = run_suites(names)
    if args.json:
        print(canonical_json(report))
    else:
        for suite in report["suites"]:
            for check in suite["checks"]:
                mark = "pass" if check["ok"] else "FAIL"
                print(f"{mark}  {suite['suite']}: {check['name']} ({check['cases']} cases)")
                for failure in check["failures"]:
                    print(f"      {failure}")
        print("all suites pass" if report["ok"] else "FAILURES above")
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
    p_chow.add_argument("-p", type=_int_option, required=True, help="cycle dimension")
    p_chow.add_argument("-n", type=_int_option, required=True, help="ambient dimension")
    p_chow.add_argument("-d", type=_int_option, default=None, help="degree")
    p_chow.add_argument(
        "--method",
        choices=("closed", "recursive", "both"),
        default="closed",
    )
    p_chow.add_argument("--series", type=_int_option, default=None, metavar="ORDER")
    p_chow.add_argument("--htilde", action="store_true")
    p_chow.add_argument("--congruence", metavar="Q[,M]")
    p_chow.add_argument("--json", action="store_true")
    p_chow.set_defaults(func=cmd_chow)

    p_toric = sub.add_parser("toric", help="fan invariants")
    p_toric.add_argument("file", help="fan JSON file")
    p_toric.add_argument("--census", action="store_true")
    p_toric.add_argument("--lambda", dest="lam", action="store_true")
    p_toric.add_argument("--e-poly", dest="e_poly", action="store_true")
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
        return args.func(args)
    except (NotCountableError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ParseError, FanError, DomainError, BudgetError, OptionSpellingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
