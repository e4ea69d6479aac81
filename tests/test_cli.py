import json
import sys
from pathlib import Path

import pytest

from qrakit import errors
from qrakit.cli import main
from qrakit.engine import subgroup_assess
from qrakit.io import bundled_paper_dataset, load_dataset, save_dataset, validate_dataset
from qrakit.model import ObjectRef
from qrakit.render import FORMATS, RenderSpec, render_precision_table
from qrakit.sim import simulate


BAD = Path(__file__).resolve().parent / "data" / "bad"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert run(capsys, "subgroup", "--input", str(path), "--object", "A",
                   "--measurand", "M", "--where", f"cond.team={label}") == (
            0, render_precision_table([report], RenderSpec()), "")

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


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        *(["assess", "--input", str(path)] for path in sorted(BAD.iterdir())
          if not path.name.endswith(".meta.json")),
        ["subgroup", "--input", "builtin", "--object", "NTS_def", "--measurand",
         "BLEU", "--where", "cond.test_set=no such test set"],
    ], ids=lambda argv: Path(argv[2]).name if argv[0] == "assess" else argv[0])
    def test_malformed_input_ends_in_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (1, 2, 3) and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # the error line of every JSON file in tests/data/bad/, after its path
    JSON_ERRORS = {
        "condition_entry_not_object.json": "conditions entry 1 is not a JSON object",
        "condition_name_not_string.json": "condition name must be a string, not int",
        "conditions_not_object.json": "measurement 1: conditions is not a JSON object",
        "declared_id_not_string.json": "object id must be a string, not list",
        "label_not_string.json":
            "measurement 2: condition label must be a string or null, not int",
        "measurand_entry_not_object.json": "measurands entry 2 is not a JSON object",
        "measurements_not_array.json": "'measurements' is not a JSON array",
        "missing_measurements.json": "missing required field: 'measurements'",
        "non_numeric_value.json": "measurement 2: value must be a number, not str",
        "object_entry_not_object.json": "objects entry 1 is not a JSON object",
        "object_id_not_string.json": "measurement 1: object id must be a string, not list",
        "scale_max_nan.json": "measurand 'M': scale_max must be finite, not nan",
        "scale_min_bool.json": "measurand 'M': scale_min must be a number, not bool",
        "scale_min_neg_inf.json": "measurand 'M': scale_min must be finite, not -inf",
        "schema_not_object.json": "'schema' is not a JSON object",
        "source_not_string.json": "measurement 2: source must be a string or null, not int",
        "timestamp_not_string.json":
            "measurement 2: timestamp must be a string or null, not int",
        "top_level_array.json": "top-level JSON value must be an object",
        "truncated.json": "line 1 column 120: Unterminated string starting at",
        "unit_not_string.json": "measurand 'M': unit must be a string, not int",
        "value_bool.json": "measurement 2: value must be a number, not bool",
        "value_int_too_large.json": "measurement 2: int too large to convert to float",
        "value_numeric_string.json": "measurement 2: value must be a number, not str",
    }

    @pytest.mark.parametrize("path", [
        path for path in sorted(BAD.glob("*.json"))
        if not path.name.endswith(".meta.json")
    ], ids=lambda path: path.name)
    def test_json_errors_start_with_the_path(self, capsys, path):
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}: {self.JSON_ERRORS[path.name]}\n"

    @pytest.mark.parametrize("name, message", [
        ("schema_not_object.json", "'schema' is not a JSON object"),
        ("object_entry_not_object.json", "objects entry 1 is not a JSON object"),
        ("measurand_entry_not_object.json", "measurands entry 2 is not a JSON object"),
        ("condition_entry_not_object.json", "conditions entry 1 is not a JSON object"),
        ("condition_name_not_string.json", "condition name must be a string, not int"),
        ("empty_condition_name.csv", "condition name must be non-empty"),
        ("short_row.csv", "row has 2 cells, header has 3"),
        ("long_row.csv", "row has 4 cells, header has 3"),
    ])
    def test_header_and_row_shape_errors(self, capsys, name, message):
        path = BAD / name
        line = ":2" if name.endswith("_row.csv") else ""
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}{line}: {message}\n"

    @pytest.mark.parametrize("name, message", [
        ("scale_min_neg_inf.json", "measurand 'M': scale_min must be finite, not -inf"),
        ("scale_max_nan.json", "measurand 'M': scale_max must be finite, not nan"),
        ("source_not_string.json", "measurement 2: source must be a string or null, not int"),
        ("label_not_string.json",
         "measurement 2: condition label must be a string or null, not int"),
        ("value_bool.json", "measurement 2: value must be a number, not bool"),
        ("value_numeric_string.json", "measurement 2: value must be a number, not str"),
        ("non_numeric_value.json", "measurement 2: value must be a number, not str"),
        ("value_int_too_large.json", "measurement 2: int too large to convert to float"),
        ("timestamp_not_string.json",
         "measurement 2: timestamp must be a string or null, not int"),
        ("unit_not_string.json", "measurand 'M': unit must be a string, not int"),
        ("scale_min_bool.json", "measurand 'M': scale_min must be a number, not bool"),
    ])
    @pytest.mark.parametrize("command", ["assess", "validate"])
    def test_field_value_errors(self, capsys, command, name, message):
        path = BAD / name
        code, out, err = run(capsys, command, "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"

    ROWS = b"object,measurand,value\nA,M,high\n" + b"A,M,1.0\n" * 9000  # over 64 KiB

    @pytest.mark.parametrize("tail, sidecar, where, message", [
        # a bad byte anywhere is reported before the bad row above it
        (b"A,M,\xff\n", None, "data.csv", "'utf-8' codec can't decode byte 0xff in "
                                          f"position {len(ROWS) + 4}: invalid start byte"),
        (b"", None, "data.csv:2", "could not convert string to float: 'high'"),
        # and a bad sidecar before either
        (b"A,M,\xff\n", b"{", "data.meta.json",
         "line 1 column 2: Expecting property name enclosed in double quotes"),
    ], ids=["bad_byte", "bad_row", "bad_sidecar"])
    def test_csv_faults_are_reported_in_file_order(self, capsys, tmp_path, tail, sidecar,
                                                   where, message):
        path = tmp_path / "data.csv"
        path.write_bytes(self.ROWS + tail)
        if sidecar is not None:
            (tmp_path / "data.meta.json").write_bytes(sidecar)
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {tmp_path / where}: {message}\n"

    def test_csv_header_errors_name_file_and_column(self, capsys):
        for name, column in (("sidecar_missing_column.csv", "'cond.performed_by'"),
                             ("repeated_column.csv", "'value'")):
            path = BAD / name
            code, _, err = run(capsys, "validate", "--input", str(path))
            assert code == 1
            assert err.startswith(f"error: {path}: ") and column in err

    def test_nan_value_fails_assess_and_validate(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("object,measurand,value\nA,M,nan\nA,M,1.0\n")
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "measurement 1 (A, M)" in err and "not a finite number" in err
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 1
        assert out.splitlines() == [
            "error: measurement 1 (A, M): value nan is not a finite number"]

    @pytest.mark.parametrize("breakage, message", [
        (lambda meta: meta.pop("schema"), "missing required field: 'schema'"),
        (lambda meta: meta["schema"]["conditions"][0].update(category="odd"),
         "unknown condition category 'odd'"),
    ])
    def test_broken_sidecar(self, capsys, tmp_path, breakage, message):
        path = tmp_path / "data.csv"
        save_dataset(bundled_paper_dataset(), path)
        sidecar = tmp_path / "data.meta.json"
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        breakage(meta)
        sidecar.write_text(json.dumps(meta), encoding="utf-8")
        code, _, err = run(capsys, "assess", "--input", str(path))
        assert code == 1
        assert err == f"error: {sidecar}: {message}\n"

    def test_sidecar_not_json(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(bundled_paper_dataset(), path)
        sidecar = tmp_path / "data.meta.json"
        sidecar.write_text('{"schema": ', encoding="utf-8")
        code, _, err = run(capsys, "assess", "--input", str(path))
        assert code == 1
        assert err == f"error: {sidecar}: line 1 column 12: Expecting value\n"

    def test_bad_csv_value(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("object,measurand,value\nA,M,1.0\nA,M,high\n")
        code, _, err = run(capsys, "assess", "--input", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}:3: ") and "'high'" in err

    def test_bad_csv_row_is_reported_where_its_record_ends(self, capsys):
        # record 1 spans lines 2-3 (a quoted newline), so record 2 is on line 4
        path = BAD / "quoted_newline.csv"
        code, _, err = run(capsys, "assess", "--input", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}:4: ") and "'high'" in err

    def test_bad_byte_after_the_first_read_buffer(self, capsys, tmp_path):
        path = tmp_path / "latebyte.csv"
        rows = "".join(f"A{i % 50},M,{i % 7 + 1}.0\n" for i in range(20000))
        assert len(rows) > 65536
        path.write_bytes(b"object,measurand,value\n" + rows.encode() + b"A,M,\xff1.0\n")
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert len(err.splitlines()) == 1

    def test_csv_field_over_the_limit(self, capsys, tmp_path):
        path = tmp_path / "bigfield.csv"
        path.write_text("object,measurand,value,source\n"
                        f"A,M,1.0,{'x' * 131073}\nA,M,2.0,s\n")
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: field larger than field limit (131072)\n"

    def test_validation_error_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "below.csv"
        path.write_text("object,measurand,value\nA,M,-5\nA,M,1\n")
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: measurement 1 (A, M): ")
        assert len(err.splitlines()) == 1

    def test_parse_and_validation_errors_name_the_file_alike(self, capsys, monkeypatch,
                                                              tmp_path):
        monkeypatch.chdir(tmp_path)
        Path("parse_bad.csv").write_text("object,measurand,value\nA,M,x\nA,M,1\n")
        Path("valid_bad.csv").write_text("object,measurand,value\nA,M,-5\nA,M,1\n")
        _, _, parse_err = run(capsys, "assess", "--input", "./parse_bad.csv")
        _, _, valid_err = run(capsys, "assess", "--input", "./valid_bad.csv")
        assert parse_err.startswith("error: parse_bad.csv:2: ")
        assert valid_err.startswith("error: valid_bad.csv: measurement 1 (A, M): ")

    def test_bad_csv_timestamp(self, capsys, tmp_path):
        path = tmp_path / "dated.csv"
        path.write_text("object,measurand,value,timestamp\n"
                        "A,M,1.0,2020-01-02\nA,M,2.0,2020-13-45\n")
        code, _, err = run(capsys, "assess", "--input", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}:3: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", ["20200101", "2020-W01-1"])
    def test_a_timestamp_is_yyyy_mm_dd_on_every_python(self, capsys, tmp_path, text):
        dated_json = tmp_path / "dated.json"
        dated_json.write_text(json.dumps({
            "schema": {"conditions": []}, "objects": [{"id": "A"}],
            "measurands": [{"id": "M"}],
            "measurements": [{"object": "A", "measurand": "M", "value": 1.0,
                              "timestamp": text}],
        }), encoding="utf-8")
        dated_csv = tmp_path / "dated.csv"
        dated_csv.write_text(f"object,measurand,value,timestamp\nA,M,1.0,{text}\n")
        for path, where in ((dated_json, ": measurement 1"), (dated_csv, ":2")):
            code, out, err = run(capsys, "assess", "--input", str(path))
            assert (code, out) == (1, "")
            assert err == f"error: {path}{where}: Invalid isoformat string: {text!r}\n"

    def test_top_of_range_values_exit_3(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "schema": {"conditions": []},
            "objects": [{"id": "A"}],
            "measurands": [{"id": "M"}],
            "measurements": [{"object": "A", "measurand": "M", "value": v}
                             for v in (1e300, 1.7e308)],
        }), encoding="utf-8")
        code, out, err = run(capsys, "assess", "--input", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "CI lower bound is -inf" in err

    @pytest.mark.parametrize("values, scale_min, message", [
        ((1.7e308, 1e308), -1e308, "mean is inf"),  # the shifted mean is 2.35e308
        ((-1e308, 1e308), -1.7e308, "CI lower bound is -inf"),
    ], ids=["mean", "ci"])
    def test_shift_beyond_the_top_of_the_range_exits_3(self, capsys, tmp_path, values,
                                                       scale_min, message):
        path = tmp_path / "shift.json"
        path.write_text(json.dumps({
            "schema": {"conditions": []},
            "objects": [{"id": "A"}],
            "measurands": [{"id": "M", "scale_min": scale_min}],
            "measurements": [{"object": "A", "measurand": "M", "value": v} for v in values],
        }), encoding="utf-8")
        assert run(capsys, "validate", "--input", str(path))[0] == 0
        for render in FORMATS:
            code, out, err = run(capsys, "assess", "--input", str(path), "--render", render)
            assert (code, out) == (3, "")
            assert err.startswith(f"error: {message}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("name, content", [
        ("latin1.json", b'{"schema": {"conditions": []}, "objects": [{"id": "caf\xe9"}]}'),
        ("latin1.csv", b"object,measurand,value\nA,M,1.0\nA,M\xe9,2.0\n"),
    ], ids=["json", "csv"])
    def test_non_utf8_file(self, capsys, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        code, _, err = run(capsys, "assess", "--input", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1
        assert "can't decode byte 0xe9" in err

    def test_non_utf8_sidecar(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(bundled_paper_dataset(), path)
        sidecar = tmp_path / "data.meta.json"
        sidecar.write_bytes(b'{"schema": "\xe9"}')
        code, _, err = run(capsys, "assess", "--input", str(path))
        assert code == 1
        assert err.startswith(f"error: {sidecar}: ") and len(err.splitlines()) == 1

    def test_input_is_a_directory(self, capsys, tmp_path):
        path = tmp_path / "data.json"
        path.mkdir()
        code, _, err = run(capsys, "validate", "--input", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1

    def test_lone_surrogate_in_json_is_a_parse_error(self, capsys, tmp_path):
        obj = {"schema": {"conditions": []}, "objects": [{"id": "A"}],
               "measurands": [{"id": "M"}],
               "measurements": [{"object": "A", "measurand": "M", "value": v}
                                for v in (1.0, 2.0)]}
        text = json.dumps(obj).replace('"id": "A"', '"id": "A\\ud800"', 1)
        path = tmp_path / "surrogate.json"
        path.write_text(text, encoding="utf-8")
        target = tmp_path / "report.txt"
        target.write_bytes(b"kept")
        code, out, err = run(capsys, "assess", "--input", str(path), "--out", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: a JSON string holds the lone surrogate '\\ud800'\n"
        assert target.read_bytes() == b"kept"
        # a pair of escapes is one character, and an escaped backslash is none
        for source in ("\\ud83d\\ude00", "\\\\ud800"):
            path.write_text(json.dumps(obj).replace('"value": 1.0', f'"value": 1.0, '
                                                    f'"source": "{source}"'),
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
