"""Traced stand-in for `python -m cyclemotive`.

    python3 perfbench/trace_boot.py SPANS.json <cyclemotive arguments...>

Installs the layer wrappers, runs cyclemotive.cli.main with the given
arguments, writes the recorded spans to SPANS.json and exits with main's
exit code.  Output and exit codes are the CLI's own.
"""

import json
import sys

from layertrace import Tracer


def boot(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from cyclemotive.cli import main

    try:
        return main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.take()}, fh)


if __name__ == "__main__":
    sys.exit(boot(sys.argv[1], sys.argv[2:]))
