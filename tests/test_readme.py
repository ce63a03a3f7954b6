"""README's CLI examples run as written.

Every `cyclemotive ...` line in a README code block is run from the
repository root, with backslash continuations joined, and must exit 0.
Where its `# comment` is a value (one word, cut at the first ", "), that
value must be a line of the output.
"""

import os
import re
import shlex
import subprocess
import sys

import pytest

from conftest import SRC

ROOT = SRC.parent


def _examples() -> list[tuple[str, str | None]]:
    """(command, expected output line or None) for each README example."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    examples = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if not line.startswith("cyclemotive "):
                continue
            command, _, comment = line.partition("#")
            value = comment.strip().split(", ")[0]
            examples.append((command.strip(), value if value and " " not in value else None))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples_with_values():
    assert len(EXAMPLES) >= 10
    assert sum(value is not None for _, value in EXAMPLES) >= 5


@pytest.mark.parametrize("command, value", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_runs(command, value):
    argv = shlex.split(command)[1:]
    proc = subprocess.run([sys.executable, "-m", "cyclemotive", *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    if value is not None:
        assert value in proc.stdout.splitlines()
