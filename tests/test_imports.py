"""scipy and numpy stay off every path that does not need them.

Each check runs in a fresh interpreter, so modules loaded by other tests
cannot hide an import; none of them measures time.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = "\nimport sys; print(sorted(n for n in ('numpy', 'scipy') if n in sys.modules))"


def heavy_modules_after(code):
    """The subset of numpy and scipy in ``sys.modules`` after ``code`` runs."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code + REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_loads_neither():
    assert heavy_modules_after("import qrakit") == "[]"


@pytest.mark.parametrize("argv", [
    ["assess", "--input", "builtin", "--conditions"],
    ["subgroup", "--input", "builtin", "--object", "NTS_def", "--measurand", "BLEU",
     "--where", "cond.compile_training_info=Nisioi et al."],
    ["validate", "--input", "builtin"],
], ids=lambda argv: argv[0])
def test_cli_commands_load_neither(argv):
    code = ("import contextlib, io\n"
            "from qrakit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")
    assert heavy_modules_after(code) == "[]"


def test_simulate_loads_numpy_only():
    code = "import qrakit\nqrakit.simulate(5, 1.0, 100, 1)"
    assert heavy_modules_after(code) == "['numpy']"
