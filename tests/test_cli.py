import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qrakit.cli
from qrakit import errors
from qrakit.cli import main
from qrakit.engine import subgroup_assess
from qrakit.io import (
    bundled_paper_dataset,
    dataset_to_obj,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from qrakit.model import ObjectRef
from qrakit.render import FORMATS, RenderSpec, render_precision_table
from qrakit.sim import simulate


BAD = Path(__file__).resolve().parent / "data" / "bad"
GOLDEN = BAD.parent / "golden"  # the bundled dataset as save_dataset writes it
BUNDLED_CSV, BUNDLED_JSON, BUNDLED_META = (
    (GOLDEN / f"bundled.{ext}").read_bytes() for ext in ("csv", "json", "meta.json"))
HIGH = b"object,measurand,value\nA,M,high\n" + b"A,M,1.0\n" * 9000  # over 64 KiB
LATE = b"object,measurand,value\n" + "".join(
    f"A{i % 50},M,{i % 7 + 1}.0\n" for i in range(20000)).encode()  # over 64 KiB


def load_error(where, message):
    """What every command prints for an input that does not load."""
    line = (1, "", f"error: {{dir}}/{where}: {message}\n")
    return line, line


def invalid(name, issue):
    """assess's error line, and validate's issue line."""
    return (1, "", f"error: {{dir}}/{name}: {issue}\n"), (1, f"error: {issue}\n", "")


def compute_error(message, measurements, pairs):
    """assess's error line, and validate's ok line."""
    return (3, "", f"error: {message}\n"), (
        0, f"ok: {measurements} measurements, {pairs} (object, measurand) pairs\n", "")


def json_dataset(*measurements, **measurand):
    """A JSON dataset with these measurements of (A, M), and M's other fields."""
    return json.dumps({
        "schema": {"conditions": []}, "objects": [{"id": "A"}],
        "measurands": [{"id": "M", **measurand}],
        "measurements": [{"object": "A", "measurand": "M", **m} for m in measurements],
    }).encode()


def sidecar(edit):
    """The bundled dataset's sidecar, after edit."""
    meta = json.loads(BUNDLED_META)
    edit(meta)
    return json.dumps(meta).encode()


def deep_note(data):  # nested past the decoder's recursion limit
    return data.rstrip()[:-1] + b', "note": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"


DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv, stdout=subprocess.PIPE, data=None, **env):
    """``qra`` in a fresh interpreter, with ``data``, if given, on a pipe into its stdin;
    its exit code, stdout text (None if stdout is no pipe) and stderr text."""
    proc = subprocess.run(
        [sys.executable, "-m", "qrakit.cli", *argv], input=data, stdout=stdout,
        stderr=subprocess.PIPE, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(qrakit.cli.__file__).parents[1]), **env})
    out = None if proc.stdout is None else proc.stdout.decode("utf-8")
    return proc.returncode, out, proc.stderr.decode("utf-8", "backslashreplace")


@pytest.mark.parametrize("argv", [[], ["validate"], ["assess"], ["subgroup"], ["simulate"]],
                         ids=lambda argv: argv[0] if argv else "qra")
def test_help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qra")


class TestAssess:
    def test_builtin_emits_18_rows(self, capsys):
        code, out, _ = run(capsys, "assess", "--input", "builtin",
                           "--render", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("object,measurand")
        assert len(lines) == 19

    def test_object_measurand_filter(self, capsys):
        code, out, _ = run(capsys, "assess", "--input", "builtin",
                           "--object", "NTS_def", "--measurand", "SARI")
        assert code == 0
        assert "2.487" in out

    def test_serialized_copy_matches_builtin_byte_for_byte(self, capsys,
                                                           tmp_path):
        path = tmp_path / "copy.json"
        save_dataset(bundled_paper_dataset(), path)
        _, builtin_out, _ = run(capsys, "assess", "--input", "builtin")
        code, copy_out, _ = run(capsys, "assess", "--input", str(path))
        assert code == 0
        assert copy_out == builtin_out

    def test_skipped_pair_is_a_note_on_stderr(self, capsys, tmp_path):
        ds = bundled_paper_dataset()
        path = tmp_path / "solo.json"
        save_dataset(ds._replace(objects=ds.objects + (ObjectRef("solo", "solo"),),
                                 measurements=ds.measurements
                                 + (ds.measurements[0]._replace(object="solo"),)), path)
        builtin = run(capsys, "assess", "--input", "builtin")
        assert builtin[2] == ""
        measurand = ds.measurements[0].measurand
        assert run(capsys, "assess", "--input", str(path)) == (
            0, builtin[1],
            f"note: (solo, {measurand}) skipped: only 1 measurement; need at least 2\n")

    def test_builtin_read_as_csv_is_an_error(self, capsys):
        code, out, err = run(capsys, "assess", "--input", "builtin", "--format", "csv")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert err.endswith("qra_benchmark.json: missing required column 'object'\n")

    @pytest.mark.parametrize("command", ["assess", "validate"])
    def test_builtin_as_json_prints_as_builtin(self, capsys, command):
        assert (run(capsys, command, "--input", "builtin", "--format", "json")
                == run(capsys, command, "--input", "builtin"))

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "assess", "--input", "missing.csv")
        assert code == 1
        assert "missing.csv" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["assess", "--input", "builtin", "--frobnicate"])
        assert exc.value.code == 2

    def test_conditions_flag_appends_matrices(self, capsys):
        code, out, _ = run(capsys, "assess", "--input", "builtin",
                           "--object", "PASS", "--conditions")
        assert code == 0
        assert "classification: Reproducibility" in out
        assert "performed_by=Differs" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        code, out, _ = run(capsys, "assess", "--input", "builtin",
                           "--render", "markdown", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("| object |")

    def test_deterministic_stdout(self, capsys):
        _, first, _ = run(capsys, "assess", "--input", "builtin")
        _, second, _ = run(capsys, "assess", "--input", "builtin")
        assert first == second


class TestSubgroup:
    def test_same_outputs_bleu(self, capsys):
        code, out, _ = run(
            capsys, "subgroup", "--input", "builtin",
            "--object", "NTS_def", "--measurand", "BLEU",
            "--where", "cond.compile_training_info=Nisioi et al.")
        assert code == 0
        assert "0.838" in out

    def test_filter_leaving_one_row_exits_3(self, capsys):
        code, _, err = run(
            capsys, "subgroup", "--input", "builtin",
            "--object", "NTS_def", "--measurand", "BLEU",
            "--where", "cond.compile_training_info=Coop. & Shard.")
        assert code == 3
        assert "NTS_def" in err and "BLEU" in err

    def test_empty_where_equals_assess(self, capsys):
        _, assess_out, _ = run(capsys, "assess", "--input", "builtin",
                               "--object", "NTS_def", "--measurand", "BLEU")
        code, subgroup_out, _ = run(capsys, "subgroup", "--input", "builtin",
                                    "--object", "NTS_def",
                                    "--measurand", "BLEU")
        assert code == 0
        assert subgroup_out == assess_out

    def test_condition_outside_the_schema_exits_1(self, capsys):
        where = ("--measurand", "BLEU", "--where", "cond.typo=x")
        code, out, err = run(capsys, "subgroup", "--input", "builtin",
                             "--object", "NTS_def", *where)
        assert (code, out, err) == (1, "", "error: no condition 'typo' in the schema\n")
        # the object and measurand are checked first
        code, _, err = run(capsys, "subgroup", "--input", "builtin", "--object", "nobody", *where)
        assert (code, err) == (1, "error: undeclared object 'nobody'\n")

    @pytest.mark.parametrize("label", ['team "B"', "'quoted'"])
    def test_where_takes_the_label_verbatim(self, capsys, tmp_path, label):
        path = tmp_path / "teams.csv"
        path.write_text("object,measurand,value,cond.team\n"
                        + "".join(f"A,M,{v},{cell}\n" for v, cell in
                                  ((1.0, '"team ""B"""'), (2.0, "'quoted'"), (3.0, "C"),
                                   (4.0, '"team ""B"""'), (5.0, "'quoted'"))))
        report = subgroup_assess(load_dataset(path), "A", "M", [("team", label)])
        assert report.precision.n == 2
        excluded = {'team "B"': (2.0, 3.0, 5.0), "'quoted'": (1.0, 3.0, 4.0)}[label]
        assert run(capsys, "subgroup", "--input", str(path), "--object", "A",
                   "--measurand", "M", "--where", f"cond.team={label}") == (
            0, render_precision_table([report], RenderSpec()),
            "".join(f"note: (A, M) excluded: {value}\n" for value in excluded))

    def test_excluded_measurements_are_notes_on_stderr(self, capsys):
        code, out, err = run(capsys, "subgroup", "--input", "builtin", "--object", "NTS_def",
                             "--measurand", "BLEU", "--conditions",
                             "--where", "cond.compile_training_info=Nisioi et al.")
        assert code == 0 and out.startswith("object ")
        # in group order; " from <source>" only for a source that is not empty
        assert err == ("note: (NTS_def, BLEU) excluded: 87.46 from Coop. & Shard.\n"
                       "note: (NTS_def, BLEU) excluded: 86.61 from this paper\n"
                       "note: (NTS_def, BLEU) excluded: 86.2 from this paper\n")

    def test_malformed_where_exits_2(self, capsys):
        code, _, err = run(
            capsys, "subgroup", "--input", "builtin",
            "--object", "NTS_def", "--measurand", "BLEU",
            "--where", "compile_training_info=Nisioi et al.")
        assert code == 2
        assert "cond.<name>=<label>" in err


class TestSimulate:
    def test_diagnostics(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "5", "--sigma", "1",
                           "--trials", "20000", "--seed", "42")
        assert code == 0
        assert "mean(s*)" in out
        value = float(next(line for line in out.splitlines()
                           if line.startswith("mean(s*)")).split()[-1])
        assert value == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("sigma", [1e-300, 1e200])
    def test_means_print_at_any_scale(self, capsys, sigma):
        code, out, _ = run(capsys, "simulate", "--n", "5", "--sigma", repr(sigma),
                           "--trials", "100", "--seed", "1")
        assert code == 0
        printed = dict(line.rsplit(None, 1) for line in out.splitlines()
                       if line.startswith("mean("))
        result = simulate(5, sigma, 100, 1)
        assert float(printed["mean(s)"]) == pytest.approx(result.mean_s, rel=1e-6)
        assert float(printed["mean(s*)"]) == pytest.approx(result.mean_s_star, rel=1e-6)

    def test_zero_trials_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "5", "--sigma", "1",
                           "--trials", "0", "--seed", "42")
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize("sigma, seed, code, message", [
        (repr(sys.float_info.max), "0", 3, "mean(s*) is inf: sigma is too close to "
                                           "the top of the float range"),
        ("nan", "1", 2, "sigma must be finite and > 0, got nan"),
        ("1", "-1", 2, "seed must be >= 0, got -1"),
    ])
    def test_bad_parameters_end_in_one_error_line(self, capsys, sigma, seed, code,
                                                  message):
        assert run(capsys, "simulate", "--n", "5", "--sigma", sigma, "--trials", "100",
                   "--seed", seed) == (code, "", f"error: {message}\n")

    def test_size_numpy_cannot_draw_exits_2(self, capsys):
        trials = str(10**21)
        code, out, err = run(capsys, "simulate", "--n", "5", "--sigma", "1",
                             "--trials", trials, "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot draw {trials} trials of n = 5")
        assert err.count("\n") == 1

    def test_deterministic(self, capsys):
        argv = ("simulate", "--n", "3", "--sigma", "2", "--trials", "5000",
                "--seed", "11")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestValidate:
    def test_builtin_clean(self, capsys):
        code, out, _ = run(capsys, "validate", "--input", "builtin")
        assert code == 0
        assert "116 measurements" in out

    def test_broken_dataset(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "object,measurand,value,source,cond.performed_by\n"
            "sys,score,1.0,me,team\n"
            "sys,score,2.0,me,team\n"
        )
        # no sidecar: derived measurands have scale_min 0, so this loads
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 0

    @pytest.mark.parametrize("source", ["builtin", "csv"])
    def test_validates_once(self, capsys, monkeypatch, tmp_path, source):
        if source == "csv":
            source = str(tmp_path / "data.csv")
            save_dataset(bundled_paper_dataset(), source)
        calls = []

        def counting(dataset):
            calls.append(dataset)
            return validate_dataset(dataset)

        monkeypatch.setattr("qrakit.io.validate_dataset", counting)
        monkeypatch.setattr("qrakit.cli.validate_dataset", counting)
        code, out, _ = run(capsys, "validate", "--input", source)
        assert code == 0 and out.startswith("ok: 116 measurements")
        assert len(calls) == 1

    def test_stdout_that_cannot_take_an_id_ends_in_one_error_line(self, tmp_path):
        obj = dataset_to_obj(bundled_paper_dataset())
        obj["objects"].append({"id": "\u7cfb\u7edf"})
        obj["measurements"].append({"object": "\u7cfb\u7edf", "measurand": "BLEU",
                                    "value": 80.0})
        path = tmp_path / "data.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        # the singleton pair's warning names the id, which latin-1 cannot encode
        code, _, err = run_process(["validate", "--input", str(path)],
                                   PYTHONIOENCODING="latin-1")
        assert code == 1
        assert err.startswith("error: stdout: cannot write ") and len(err.splitlines()) == 1

    def test_header_only_csv_is_an_empty_dataset(self, capsys):
        code, out, _ = run(capsys, "validate", "--input", str(BAD / "header_only.csv"))
        assert (code, out) == (0, "ok: 0 measurements, 0 (object, measurand) pairs\n")

    def test_explicit_format(self, capsys, tmp_path):
        save_dataset(bundled_paper_dataset(), tmp_path / "data.txt", fmt="csv")
        code, out, _ = run(capsys, "validate", "--input", str(tmp_path / "data.txt"),
                           "--format", "csv")
        assert (code, out) == (0, "ok: 116 measurements, 18 (object, measurand) pairs\n")

    def test_unknown_format_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--input", "x", "--format", "xml"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "[--format {csv,json,auto}]" in err
        assert "argument --format: invalid choice: 'xml'" in err


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
class TestPipedInput:
    """A pipe can be read only once, so it is read once, whole."""

    def test_measurements_before_the_header(self):
        obj = dataset_to_obj(bundled_paper_dataset())
        data = json.dumps({"measurements": obj.pop("measurements"), **obj}).encode()
        argv = ["validate", "--input", "/dev/stdin", "--format", "json"]
        assert run_process(argv, data=data) == (
            0, "ok: 116 measurements, 18 (object, measurand) pairs\n", "")

    def test_bad_csv_row(self):
        data = b"object,measurand,value\nA,M,1.0\nA,M,high\n"
        assert run_process(["assess", "--input", "/dev/stdin", "--format", "csv"], data=data) == (
            1, "", "error: /dev/stdin:3: could not convert string to float: 'high'\n")


class TestBadInput:
    # the inputs that neither table holds
    @pytest.mark.parametrize("argv", [
        ["assess", "--input", str(BAD / "header_only.csv")],
        ["subgroup", "--input", "builtin", "--object", "NTS_def", "--measurand",
         "BLEU", "--where", "cond.test_set=no such test set"],
    ], ids=lambda argv: Path(argv[2]).name if argv[0] == "assess" else argv[0])
    def test_malformed_input_ends_in_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (1, 2, 3) and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # the arguments after --input; subgroup prints assess's line for every bad input
    COMMANDS = {"assess": (), "validate": (), "subgroup": ("--object", "A", "--measurand", "M")}

    # the one error line of each file in tests/data/bad/, after its path; a sidecar
    # is read with its CSV, and header_only.csv loads
    ERRORS = {
        "condition_entry_not_object.json": ": conditions entry 1 is not a JSON object",
        "condition_name_not_string.json": ": condition name must be a string, not int",
        "condition_not_in_schema.json":
            ": measurement 2: condition 'perfomed_by' is not in the schema",
        "conditions_not_object.json": ": measurement 1: conditions is not a JSON object",
        "declared_id_not_string.json": ": object id must be a string, not list",
        "empty_condition_name.csv": ": condition name must be non-empty",
        "empty_object.csv": ":3: object id must be non-empty",
        "label_not_hashable.json":
            ": measurement 2: condition label must be a string or null, not list",
        "label_not_string.json":
            ": measurement 2: condition label must be a string or null, not int",
        "long_row.csv": ":2: row has 4 cells, header has 3",
        "measurand_entry_not_object.json": ": measurands entry 2 is not a JSON object",
        "measurements_not_array.json": ": 'measurements' is not a JSON array",
        "missing_measurements.json": ": missing required field: 'measurements'",
        "non_numeric_value.json": ": measurement 2: value must be a number, not str",
        "object_entry_not_object.json": ": objects entry 1 is not a JSON object",
        "object_id_not_string.json": ": measurement 1: object id must be a string, not list",
        # record 1 spans lines 2-3 (a quoted newline), so record 2 is on line 4
        "quoted_newline.csv": ":4: could not convert string to float: 'high'",
        "repeated_column.csv": ": repeated column 'value'",
        "scale_max_nan.json": ": measurand 'M': scale_max must be finite, not nan",
        "scale_min_bool.json": ": measurand 'M': scale_min must be a number, not bool",
        "scale_min_neg_inf.json": ": measurand 'M': scale_min must be finite, not -inf",
        "schema_not_object.json": ": 'schema' is not a JSON object",
        "short_row.csv": ":2: row has 2 cells, header has 3",
        "sidecar_missing_column.csv": ": no column 'cond.performed_by' for condition "
            f"'performed_by' declared in {BAD / 'sidecar_missing_column.meta.json'}",
        "sidecar_undeclared_column.csv": ": column 'cond.perfomed_by' names no condition "
            f"declared in {BAD / 'sidecar_undeclared_column.meta.json'}",
        "source_not_hashable.json": ": measurement 2: source must be a string or null, not list",
        "source_not_string.json": ": measurement 2: source must be a string or null, not int",
        "timestamp_not_string.json":
            ": measurement 2: timestamp must be a string or null, not int",
        "top_level_array.json": ": top-level JSON value must be an object",
        "truncated.json": ": line 1 column 120: Unterminated string starting at",
        "unit_not_string.json": ": measurand 'M': unit must be a string, not int",
        "unknown_extension.txt": ": cannot infer the format from extension '.txt'; "
                                 "give its format, one of csv, json",
        "value_bool.json": ": measurement 2: value must be a number, not bool",
        "value_int_too_large.json": ": measurement 2: int too large to convert to float",
        "value_kind_unknown.json": ": measurand 'M': unknown value_kind 'ordinal'",
        "value_numeric_string.json": ": measurement 2: value must be a number, not str",
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("path", [
        path for path in sorted(BAD.iterdir())
        if not path.name.endswith(".meta.json") and path.name != "header_only.csv"
    ], ids=lambda path: path.name)
    def test_bad_file_error_line(self, capsys, path, command):
        code, out, err = run(capsys, command, "--input", str(path), *self.COMMANDS[command])
        assert (code, out, err) == (1, "", f"error: {path}{self.ERRORS[path.name]}\n")

    @pytest.mark.parametrize("path", [
        BAD / name for name in ERRORS if name.endswith(".json")
    ], ids=lambda path: path.name)
    def test_json_errors_start_with_the_path(self, capsys, path):
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert (code, out, err) == (1, "", f"error: {path}{self.ERRORS[path.name]}\n")

    # generated inputs: each row's files, written to a fresh directory (None makes a
    # directory), the one passed as --input, and the exact (exit code, stdout, stderr)
    # of assess and of validate; "{dir}" stands for the directory
    GENERATED = {
        # a bad byte anywhere is reported before the bad row above it, and a bad
        # sidecar before either
        "bad_byte": ({"data.csv": HIGH + b"A,M,\xff\n"}, "data.csv", *load_error(
            "data.csv", f"'utf-8' codec can't decode byte 0xff in position {len(HIGH) + 4}: "
                        "invalid start byte")),
        "bad_row": ({"data.csv": HIGH}, "data.csv", *load_error(
            "data.csv:2", "could not convert string to float: 'high'")),
        "bad_sidecar": ({"data.csv": HIGH + b"A,M,\xff\n", "data.meta.json": b"{"}, "data.csv",
                        *load_error("data.meta.json", "line 1 column 2: Expecting property "
                                                      "name enclosed in double quotes")),
        "late_bad_byte": ({"data.csv": LATE + b"A,M,\xff1.0\n"}, "data.csv", *load_error(
            "data.csv", f"'utf-8' codec can't decode byte 0xff in position {len(LATE) + 4}: "
                        "invalid start byte")),
        "bad_value": ({"data.csv": b"object,measurand,value\nA,M,1.0\nA,M,high\n"}, "data.csv",
                      *load_error("data.csv:3", "could not convert string to float: 'high'")),
        "field_over_the_limit": (
            {"data.csv": b"object,measurand,value,source\nA,M,1.0,%s\nA,M,2.0,s\n"
                         % (b"x" * 131073)},
            "data.csv", *load_error("data.csv", "field larger than field limit (131072)")),
        "bad_timestamp": ({"data.csv": b"object,measurand,value,timestamp\nA,M,1.0,2020-01-02\n"
                                       b"A,M,2.0,2020-13-45\n"}, "data.csv",
                          *load_error("data.csv:3", "month must be in 1..12")),
        # a timestamp is YYYY-MM-DD on every Python, though 3.11's fromisoformat takes more
        **{f"{text}_timestamp_{fmt}": (
            {f"data.{fmt}": data}, f"data.{fmt}",
            *load_error(f"data.{fmt}{where}", f"Invalid isoformat string: {text!r}"))
           for text in ("20200101", "2020-W01-1")
           for fmt, data, where in (
               ("json", json_dataset({"value": 1.0, "timestamp": text}), ": measurement 1"),
               ("csv", f"object,measurand,value,timestamp\nA,M,1.0,{text}\n".encode(), ":2"))},
        "latin1_json": ({"data.json": b'{"schema": {"conditions": []}, '
                                      b'"objects": [{"id": "caf\xe9"}]}'}, "data.json",
                        *load_error("data.json", "'utf-8' codec can't decode byte 0xe9 in "
                                                 "position 54: invalid continuation byte")),
        "latin1_csv": ({"data.csv": b"object,measurand,value\nA,M,1.0\nA,M\xe9,2.0\n"}, "data.csv",
                       *load_error("data.csv", "'utf-8' codec can't decode byte 0xe9 in "
                                               "position 34: invalid continuation byte")),
        "latin1_sidecar": ({"data.csv": BUNDLED_CSV, "data.meta.json": b'{"schema": "\xe9"}'},
                           "data.csv", *load_error("data.meta.json",
                                                   "'utf-8' codec can't decode byte 0xe9 in "
                                                   "position 12: invalid continuation byte")),
        "short_sidecar": ({"data.csv": BUNDLED_CSV, "data.meta.json": b'{"schema": '}, "data.csv",
                          *load_error("data.meta.json", "line 1 column 12: Expecting value")),
        "sidecar_without_schema": (
            {"data.csv": BUNDLED_CSV, "data.meta.json": sidecar(lambda meta: meta.pop("schema"))},
            "data.csv", *load_error("data.meta.json", "missing required field: 'schema'")),
        "unknown_category": (
            {"data.csv": BUNDLED_CSV, "data.meta.json": sidecar(
                lambda meta: meta["schema"]["conditions"][0].update(category="odd"))},
            "data.csv", *load_error("data.meta.json", "unknown condition category 'odd'")),
        "deep_data": ({"data.json": deep_note(BUNDLED_JSON)}, "data.json",
                      *load_error("data.json", DEEP)),
        "deep_sidecar": ({"data.csv": BUNDLED_CSV, "data.meta.json": deep_note(BUNDLED_META)},
                         "data.csv", *load_error("data.meta.json", DEEP)),
        "directory": ({"data.json": None}, "data.json",
                      *load_error("data.json", "Is a directory")),
        "nan_value": ({"data.csv": b"object,measurand,value\nA,M,nan\nA,M,1.0\n"}, "data.csv",
                      *invalid("data.csv", "measurement 1 (A, M): value nan is not a finite "
                                           "number")),
        "below_scale": ({"data.csv": b"object,measurand,value\nA,M,-5\nA,M,1\n"}, "data.csv",
                        *invalid("data.csv", "measurement 1 (A, M): value -5.0 below scale "
                                             "minimum 0.0")),
        "top_of_range_values": (
            {"data.json": json_dataset({"value": 1e300}, {"value": 1.7e308})}, "data.json",
            *compute_error("(A, M): CI lower bound is -inf: the values are not finite or too "
                           "close to the top of the float range", measurements=2, pairs=1)),
        "zero_mean": (
            {"data.csv": b"object,measurand,value\nA,M,0\nA,M,0\nB,M,1\nB,M,2\n"}, "data.csv",
            *compute_error("(A, M): shifted mean is 0; coefficient of variation undefined",
                           measurements=4, pairs=2)),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("row", GENERATED)
    def test_generated_input_error_line(self, capsys, tmp_path, row, command):
        files, name, *printed = self.GENERATED[row]
        for file, data in files.items():
            if data is None:
                (tmp_path / file).mkdir()
            else:
                (tmp_path / file).write_bytes(data)
        code, out, err = printed[command == "validate"]
        where = str(tmp_path)
        assert run(capsys, command, "--input", str(tmp_path / name), *self.COMMANDS[command]) \
            == (code, out.replace("{dir}", where), err.replace("{dir}", where))

    # over int's digit limit or, where there is none, past float's range; the text
    # differs by Python version
    @pytest.mark.parametrize("digits", [5000], ids=["long_int_value"])
    def test_json_the_decoder_refuses_ends_in_one_error_line(self, capsys, tmp_path, digits):
        path = tmp_path / "data.json"
        path.write_text(re.sub(r'"value": [^,\n]+', '"value": ' + "9" * digits,
                               BUNDLED_JSON.decode(), count=1), encoding="utf-8")
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1

    def test_parse_and_validation_errors_name_the_file_alike(self, capsys, monkeypatch,
                                                              tmp_path):
        monkeypatch.chdir(tmp_path)
        Path("parse_bad.csv").write_text("object,measurand,value\nA,M,x\nA,M,1\n")
        Path("valid_bad.csv").write_text("object,measurand,value\nA,M,-5\nA,M,1\n")
        _, _, parse_err = run(capsys, "assess", "--input", "./parse_bad.csv")
        _, _, valid_err = run(capsys, "assess", "--input", "./valid_bad.csv")
        assert parse_err.startswith("error: parse_bad.csv:2: ")
        assert valid_err.startswith("error: valid_bad.csv: measurement 1 (A, M): ")

    @pytest.mark.parametrize("values, scale_min, message", [
        ((1.7e308, 1e308), -1e308, "mean is inf"),  # the shifted mean is 2.35e308
        ((-1e308, 1e308), -1.7e308, "CI lower bound is -inf"),
    ], ids=["mean", "ci"])
    def test_shift_beyond_the_top_of_the_range_exits_3(self, capsys, tmp_path, values,
                                                       scale_min, message):
        path = tmp_path / "shift.json"
        path.write_bytes(json_dataset(*({"value": v} for v in values), scale_min=scale_min))
        assert run(capsys, "validate", "--input", str(path))[0] == 0
        for render in FORMATS:
            code, out, err = run(capsys, "assess", "--input", str(path), "--render", render)
            assert (code, out) == (3, "")
            assert err.startswith(f"error: (A, M): {message}: ") and len(err.splitlines()) == 1

    @staticmethod
    def line_break_dataset(tmp_path, declared):
        """Pair ("X\nY", Clarity) has one value and pair (A, Clarity) two."""
        path = tmp_path / "break.json"
        path.write_text(json.dumps({
            "schema": {"conditions": []},
            "objects": [{"id": "A"}, *([{"id": "X\nY"}] if declared else [])],
            "measurands": [{"id": "Clarity"}],
            "measurements": [{"object": o, "measurand": "Clarity", "value": v}
                             for o, v in (("X\nY", 1.0), ("A", 1.0), ("A", 2.0))],
        }), encoding="utf-8")
        return path

    def test_line_break_in_an_id_stays_on_one_line(self, capsys, tmp_path):
        path = self.line_break_dataset(tmp_path, declared=False)
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == (f"error: {path}: measurement 1 (X\\nY, Clarity): "
                       "references undeclared object 'X\\nY'\n")
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert (code, out) == (1, "error: measurement 1 (X\\nY, Clarity): "
                                  "references undeclared object 'X\\nY'\n")

        path = self.line_break_dataset(tmp_path, declared=True)
        code, _, err = run(capsys, "assess", "--input", str(path))
        assert (code, err) == (0, "note: (X\\nY, Clarity) skipped: only 1 measurement; "
                                  "need at least 2\n")
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 0
        assert out.splitlines() == [
            "warning: (X\\nY, Clarity): only one measurement; pair is not assessable "
            "(n >= 2 required)",
            "ok: 3 measurements, 2 (object, measurand) pairs"]

    def test_lone_surrogate_in_json_is_a_parse_error(self, capsys, tmp_path):
        text = json_dataset({"value": 1.0}, {"value": 2.0}).decode()
        path = tmp_path / "surrogate.json"
        path.write_text(text.replace('"id": "A"', '"id": "A\\ud800"', 1), encoding="utf-8")
        target = tmp_path / "report.txt"
        target.write_bytes(b"kept")
        code, out, err = run(capsys, "assess", "--input", str(path), "--out", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: a JSON string holds the lone surrogate '\\ud800'\n"
        assert target.read_bytes() == b"kept"
        # a pair of escapes is one character, and an escaped backslash is none
        for source in ("\\ud83d\\ude00", "\\\\ud800"):
            path.write_text(text.replace('"value": 1.0', f'"value": 1.0, "source": "{source}"'),
                            encoding="utf-8")
            code, _, _ = run(capsys, "assess", "--input", str(path))
            assert code == 0

    @pytest.mark.parametrize("out", [False, True])
    def test_unencodable_output(self, capsys, monkeypatch, tmp_path, out):
        monkeypatch.setattr("qrakit.cli.render_reports", lambda *args: "x\ud800\n")
        target = tmp_path / "report.txt"
        target.write_bytes(b"kept")
        argv = ["assess", "--input", "builtin"] + (["--out", str(target)] if out else [])
        code, stdout, err = run(capsys, *argv)
        where = target if out else "stdout"
        assert (code, stdout) == (1, "")
        assert err == f"error: {where}: cannot write '\\ud800': surrogates not allowed\n"
        assert target.read_bytes() == b"kept"

    def test_closed_pipe_ends_in_one_error_line(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before qra starts
        try:
            code, _, err = run_process(["assess", "--input", "builtin", "--conditions",
                                        "--render", "json"], write_end)
        finally:
            os.close(write_end)
        assert (code, err) == (2, "error: stdout: Broken pipe\n")

    @pytest.mark.parametrize("argv", [
        ["assess", "--input", "builtin"],
        ["simulate", "--n", "3", "--sigma", "1", "--trials", "10", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_empty_out_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: --out ") and len(err.splitlines()) == 1

    def test_out_to_a_device(self, capsys):
        assert run(capsys, "assess", "--input", "builtin", "--out", os.devnull) == (0, "", "")

    def test_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run(capsys, "assess", "--input", "builtin",
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --out {target}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("error, code", [
    (errors.InvalidParameters, 2),
    (errors.DegenerateMean, 3),
    (errors.InvalidSampleSize, 3),
    (errors.NonFiniteResult, 3),
    (errors.ParseError, 1),
    (errors.SchemaError, 1),
    (errors.EncodeError, 1),
    (errors.ValidationError, 1),
    (errors.UnknownObject, 1),
    (errors.UnknownMeasurand, 1),
    (errors.EmptyGroup, 1),
    (errors.ValueBelowScale, 3),
    (errors.InvalidProbability, 3),
    (errors.InvalidDf, 3),
    (errors.MixedGroup, 3),
    (errors.QraError, 3),
])
def test_exit_code_per_error_class(capsys, monkeypatch, error, code):
    exc = error([]) if error is errors.ValidationError else error("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr("qrakit.cli.cmd_assess", fail)
    assert run(capsys, "assess", "--input", "builtin") == (code, "", f"error: {exc}\n")
