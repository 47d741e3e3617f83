"""A fresh process loads numpy only for the commands that compute with it:
`import repfn` and `import repfn.cli` bind the library modules lazily.
`sets` and `diagram` use no dataclasses either, so `density`, `render` and
help load neither module."""

import subprocess
import sys

import pytest

# runs repfn.cli.main(argv) with its stdout discarded, then reports
RUN_MAIN = """
import contextlib, io, sys
from repfn import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(rc, "numpy" in sys.modules, "dataclasses" in sys.modules)
"""


def fresh(code, *argv):
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "argv, rc, heavy",
    [
        (("density", "--set", "pow2", "--max", "100"), 0, False),
        (("render", "--set", "pow2", "--max", "12", "--format", "svg"), 0, False),
        (("render", "--set", "pow2", "--max", "12", "--format", "ascii"), 0, False),
        (("--help",), 0, False),
        (("verify", "--help"), 0, False),
        (("table", "--set", "wat", "--max", "4"), 2, False),
        (("table", "--set", "pow2", "--max", "8"), 0, True),
        (("verify", "closed-forms"), 0, True),
    ],
    ids=["density", "render-svg", "render-ascii", "help", "verify-help", "bad-spec", "table", "verify"],
)
def test_numpy_loaded_only_by_commands_that_compute(argv, rc, heavy):
    # heavy: the process loads numpy and dataclasses
    assert fresh(RUN_MAIN, *argv) == [str(rc), str(heavy), str(heavy)]


def test_package_import_loads_no_numpy():
    assert fresh('import sys, repfn; print("numpy" in sys.modules)') == ["False"]
