"""scipy and numpy stay off every path that does not need them, and the
CLI's cold path stays off ``typing``, ``importlib.resources``, ``dataclasses``
and ``inspect``.

Each check runs in a fresh interpreter, so modules loaded by other tests
cannot hide an import; none of them measures time.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(code, names=("numpy", "scipy"), flags=()):
    """The subset of ``names`` in ``sys.modules`` after ``code`` runs."""
    report = f"\nimport sys; print(sorted(n for n in {names!r} if n in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, *flags, "-c", code + report], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_loads_neither():
    assert modules_after("import qrakit") == "[]"


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
    assert modules_after(code) == "[]"


def test_simulate_loads_numpy_only():
    code = "import qrakit\nqrakit.simulate(5, 1.0, 100, 1)"
    assert modules_after(code) == "['numpy']"


ASSESS_BUILTIN = ("import contextlib, io\n"
                  "from qrakit.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    assert main(['assess', '--input', 'builtin']) == 0")


@pytest.mark.parametrize("code", ["import qrakit.cli", ASSESS_BUILTIN],
                         ids=["import", "assess-builtin"])
def test_cli_loads_neither_typing_nor_importlib_resources(code):
    # -S: no site, whose .pth files may import either module themselves
    names = ("typing", "importlib.resources")
    assert modules_after(code, names, flags=("-S",)) == "[]"


@pytest.mark.parametrize("code", ["import qrakit", "import qrakit.cli", ASSESS_BUILTIN],
                         ids=["import-qrakit", "import-cli", "assess-builtin"])
def test_cold_path_loads_neither_dataclasses_nor_inspect(code):
    # every record is a named tuple; dataclasses would bring inspect, ast, dis
    # and tokenize onto every cold start
    names = ("dataclasses", "inspect")
    assert modules_after(code, names, flags=("-S",)) == "[]"
