import json
import re

import pytest

from qrakit.engine import run_qra_test
from qrakit.io import bundled_paper_dataset
from qrakit.model import (
    ConditionSchema,
    Measurand,
    ObjectRef,
    QraDataset,
    default_condition_schema,
    make_measurement,
)
from qrakit.render import (
    RenderSpec,
    render_condition_matrix,
    render_precision_table,
    render_reports,
)


@pytest.fixture(scope="module")
def ds():
    return bundled_paper_dataset()


@pytest.fixture(scope="module")
def nts_reports(ds):
    return [run_qra_test(ds, obj, meas) for obj, meas in ds.pairs()
            if obj in ("NTS_def", "NTS-w2v_def")]


@pytest.fixture(scope="module")
def pass_reports(ds):
    return [run_qra_test(ds, "PASS", meas)
            for meas in ("Clarity", "Fluency", "StanceId")]


def constant_report():
    schema = default_condition_schema()
    labels = {name: "team" for name in schema.names}
    dataset = QraDataset(
        schema=schema,
        objects=(ObjectRef("sys", "sys"),),
        measurands=(Measurand("score", "score", "score"),),
        measurements=tuple(
            make_measurement("sys", "score", 4.2, conditions=labels,
                             schema=schema)
            for _ in range(3)
        ),
    )
    return run_qra_test(dataset, "sys", "score")


class TestPrecisionTable:
    def test_markdown_nts_row(self, nts_reports):
        doc = render_precision_table(nts_reports,
                                     RenderSpec(format="markdown"))
        row = next(line for line in doc.splitlines()
                   if line.startswith("| NTS_def | BLEU"))
        for cell in ("| 7 |", "| 85.58 |", "| 1.29 |", "| [0.45, 2.13] |",
                     "| 1.562 |"):
            assert cell in row

    def test_text_constant_sample(self):
        doc = render_precision_table([constant_report()],
                                     RenderSpec(format="text"))
        assert "0.00" in doc
        assert "0.000" in doc

    def test_csv_header_and_rows(self, pass_reports):
        doc = render_precision_table(pass_reports, RenderSpec(format="csv"))
        lines = doc.splitlines()
        assert lines[0] == "object,measurand,n,mean,stdev,ci_lo,ci_hi,cv_star"
        assert len(lines) == 4
        assert lines[3].startswith("PASS,StanceId,2,93.88,5.10,-24.05,34.24,6.107")

    def test_negative_ci_bounds_not_truncated(self, pass_reports):
        doc = render_precision_table(pass_reports, RenderSpec(format="text"))
        assert "[-24.05, 34.24]" in doc

    def test_deterministic(self, nts_reports):
        spec = RenderSpec(format="markdown")
        assert render_precision_table(nts_reports, spec) == \
            render_precision_table(nts_reports, spec)

    def test_json_full_precision(self, nts_reports):
        doc = render_precision_table(nts_reports, RenderSpec(format="json"))
        payload = json.loads(doc)
        by_pair = {(r["object"], r["measurand"]): r for r in payload["results"]}
        report = nts_reports[0]
        entry = by_pair[(report.object.id, report.measurand.id)]
        assert entry["cv_star"] == report.precision.cv_star
        assert entry["ci95"] == list(report.precision.ci95)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            RenderSpec(format="pdf")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_no_reports_rejected(self, fmt):
        with pytest.raises(ValueError, match="^no reports to render$"):
            render_precision_table([], RenderSpec(format=fmt))


class TestConditionMatrix:
    def test_pass_clarity_rows(self, ds):
        report = run_qra_test(ds, "PASS", "Clarity")
        doc = render_condition_matrix(report, RenderSpec(format="text"))
        lines = doc.splitlines()
        data_lines = [l for l in lines if l.startswith(("5.64", "6.3"))]
        assert len(data_lines) == 2
        assert "test_set=AllSame" in doc
        assert "performed_by=Differs" in doc
        assert "classification: Reproducibility" in doc

    def test_repeatability_footer(self):
        doc = render_condition_matrix(constant_report(), RenderSpec())
        assert "classification: Repeatability" in doc

    def test_unknown_shown_as_question_mark(self):
        schema = default_condition_schema()
        labels = {name: "team" for name in schema.names}
        partial = dict(labels)
        partial["performed_by"] = None
        dataset = QraDataset(
            schema=schema,
            objects=(ObjectRef("sys", "sys"),),
            measurands=(Measurand("score", "score", "score"),),
            measurements=(
                make_measurement("sys", "score", 1.0, conditions=labels,
                                 schema=schema),
                make_measurement("sys", "score", 2.0, conditions=partial,
                                 schema=schema),
            ),
        )
        report = run_qra_test(dataset, "sys", "score")
        doc = render_condition_matrix(report, RenderSpec())
        assert "?" in doc
        assert "classification: Indeterminate" in doc

    def test_nts_def_bleu_seven_rows(self, ds):
        report = run_qra_test(ds, "NTS_def", "BLEU")
        doc = render_condition_matrix(report, RenderSpec(format="markdown"))
        data_rows = [l for l in doc.splitlines()
                     if l.startswith("|") and "---" not in l][1:]
        assert len(data_rows) == 7


def test_markdown_escapes_a_pipe_in_every_cell():
    schema = ConditionSchema([("c|d", "measurement_procedure")])
    dataset = QraDataset(
        schema=schema,
        objects=(ObjectRef("A|B", "A|B"),),
        measurands=(Measurand("M|N", "M|N", "score"),),
        measurements=tuple(
            make_measurement("A|B", "M|N", value, conditions={"c|d": "x|y"}, schema=schema)
            for value in (1.0, 2.0)),
    )
    doc = render_reports([run_qra_test(dataset, "A|B", "M|N")],
                         RenderSpec(format="markdown"), conditions=True)
    tables = [[re.split(r"(?<!\\)\|", line)[1:-1] for line in block.splitlines()
               if line.startswith("|")] for block in doc.split("\n\n")]
    tables = [t for t in tables if t]
    assert [len(t) for t in tables] == [3, 4]  # header, rule and rows of each table
    for header, *rows in tables:
        assert all(len(row) == len(header) for row in rows)
    assert [c.strip() for c in tables[0][2][:2]] == ["A\\|B", "M\\|N"]
    assert [c.strip() for c in tables[1][0]] == ["value", "c\\|d"]
    assert all(row[1].strip() == "x\\|y" for row in tables[1][2:])
