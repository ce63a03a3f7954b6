"""What each import loads, in a fresh interpreter without `site`.

`import cyclemotive` loads the library only: the verification suites,
`json` and `argparse` come with the CLI, and the CLI loads nothing from
outside the standard library.  No library call imports a module on its
first call, so a timed call never pays for an import.
"""

import re

from conftest import SRC, fresh_python

CLI_ONLY = "('cyclemotive.verify', 'json', 'argparse')"


def test_package_import_loads_no_verify_json_or_argparse():
    probe = f"import sys, cyclemotive\nprint([m for m in {CLI_ONLY} if m in sys.modules])\n"
    assert fresh_python(probe) == "[]\n"


def test_only_the_cli_imports_json():
    """JSON text is read and written at the CLI only; the library takes and
    gives decoded data.  A deferred import in a function body counts too."""
    importers = [path.name for path in sorted((SRC / "cyclemotive").glob("*.py"))
                 if re.search(r"^\s*(import|from) json\b", path.read_text(), re.MULTILINE)]
    assert importers == ["cli.py"]


def test_cli_import_still_loads_verify():
    # the benchmark's tracer looks the suites up in sys.modules right after
    # `import cyclemotive.cli`
    probe = "import sys, cyclemotive.cli\nprint('cyclemotive.verify' in sys.modules)\n"
    assert fresh_python(probe) == "True\n"


def test_cli_import_loads_only_the_standard_library():
    probe = """
import sys
before = set(sys.modules)
import cyclemotive.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - {"cyclemotive"} - set(sys.stdlib_module_names)))
"""
    assert fresh_python(probe) == "[]\n"


# One call of every library entry point the benchmark's in-process ops
# make, arguments built as the benchmark builds them.
FIRST_CALLS = """
import sys
import cyclemotive as cm

before = set(sys.modules)
fan = cm.Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)))
cm.chow_series(1, 2, 5)
cm.chow_invariant_recursive(cm.ChowIndex(1, 3, 2))
cm.euler_chow_product_formula(1, 1, 1, 4)
cm.euler_chow_product_recursive(1, 1, 1, 4)
cm.euler_series(fan, 1, 3, lambda d: (1,))
cm.euler_series(fan, 1, 3)
cm.fan_validate(fan)
cm.toric_E_poly(fan)
cm.invariant_subvarieties(fan, 1)
cm.toric_count(fan, 4, 2)
cm.grassmannian_count_brute(2, 4, 3)
print(sorted(set(sys.modules) - before))
"""


def test_first_library_calls_load_no_module():
    assert fresh_python(FIRST_CALLS) == "[]\n"


# perfbench/layertrace.py wraps these names from outside the package; a
# deletion or a method a class only inherits makes its install() raise.
TRACER_INSTALL = f"""
import sys
sys.path.insert(0, {str(SRC.parent / "perfbench")!r})
from layertrace import ENTRY_POINTS, Tracer

Tracer().install()
unwrapped = []
for layer, names in ENTRY_POINTS.items():
    home = sys.modules["cyclemotive." + layer]
    for name in names:
        owner, _, attr = name.rpartition(".")
        value = vars(getattr(home, owner) if owner else home)[attr]
        if not hasattr(getattr(value, "__func__", value), "__wrapped__"):
            unwrapped.append(layer + "." + name)
print(unwrapped)
"""


def test_benchmark_tracer_wraps_every_entry_point():
    assert fresh_python(TRACER_INSTALL) == "[]\n"
