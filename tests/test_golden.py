"""Byte-for-byte contract on the bundled dataset.

The files under ``tests/data/golden/`` hold what the CLI prints and what
``save_dataset`` writes for the bundled dataset. A change that keeps the
contract leaves them as they are. After a deliberate output change,
regenerate them with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""
import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from qrakit.cli import main
from qrakit.io import bundled_paper_dataset, save_dataset

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

RENDERS = (("text", "txt"), ("markdown", "md"), ("csv", "csv"), ("json", "json"))

# test id -> (golden file, argv); the bundled dataset prints alike from builtin, from
# its saved CSV and JSON copies, and from builtin read with --format json
CLI_CASES = {
    **{f"assess_conditions.{ext}{suffix}": (
        f"assess_conditions.{ext}", ["assess", "--input", source, "--conditions", "--render", fmt])
       for source, suffix in (("builtin", ""), (str(GOLDEN / "bundled.csv"), "-bundled.csv"),
                              (str(GOLDEN / "bundled.json"), "-bundled.json"))
       for fmt, ext in RENDERS},
    "assess_conditions.txt-format-json": (
        "assess_conditions.txt", ["assess", "--input", "builtin", "--format", "json",
                                  "--conditions"]),
    "subgroup_where.txt": ("subgroup_where.txt", [
        "subgroup", "--input", "builtin", "--object", "NTS_def", "--measurand", "BLEU",
        "--conditions", "--where", "cond.compile_training_info=Nisioi et al."]),
    "validate.txt": ("validate.txt", ["validate", "--input", "builtin"]),
}

# save_dataset target -> the files it writes
SAVE_CASES = {
    "bundled.json": ["bundled.json"],
    "bundled.csv": ["bundled.csv", "bundled.meta.json"],
}


def cli_stdout(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


def saved_files(target, directory) -> dict:
    save_dataset(bundled_paper_dataset(), Path(directory) / target)
    return {name: (Path(directory) / name).read_bytes() for name in SAVE_CASES[target]}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_matches_golden(name):
    golden, argv = CLI_CASES[name]
    assert cli_stdout(argv) == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("target", sorted(SAVE_CASES))
def test_save_dataset_matches_golden(target, tmp_path):
    for name, data in saved_files(target, tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:  # first: some CLI cases read these copies
        for target in SAVE_CASES:
            for name, data in saved_files(target, tmp).items():
                (GOLDEN / name).write_bytes(data)
    # cases that share a golden file must print alike; the test shows where they do not
    for golden, argv in CLI_CASES.values():
        (GOLDEN / golden).write_bytes(cli_stdout(argv))
