import random

import pytest

from qrakit.engine import (
    ALL_SAME,
    DIFFERS,
    HAS_UNKNOWN,
    INDETERMINATE,
    REPEATABILITY,
    REPRODUCIBILITY,
    assess_all,
    classify,
    condition_diff,
    run_qra_test,
    subgroup_assess,
)
from qrakit.errors import (
    EmptyGroup,
    InvalidSampleSize,
    MixedGroup,
    UnknownMeasurand,
    UnknownObject,
)
from qrakit.io import bundled_paper_dataset
from qrakit.model import (
    Measurand,
    Measurement,
    ObjectRef,
    QraDataset,
    default_condition_schema,
    group,
    make_measurement,
)


@pytest.fixture(scope="module")
def ds():
    return bundled_paper_dataset()


def tiny_dataset(condition_rows, values=None):
    """A one-pair dataset with the given per-measurement condition labels."""
    schema = default_condition_schema()
    values = values or [float(i + 1) for i in range(len(condition_rows))]
    measurements = tuple(
        make_measurement("sys", "score", v, conditions=row, schema=schema)
        for v, row in zip(values, condition_rows)
    )
    return QraDataset(
        schema=schema,
        objects=(ObjectRef("sys", "sys"),),
        measurands=(Measurand("score", "score", "score"),),
        measurements=measurements,
    )


SCHEMA = default_condition_schema()


def scan_diff(measurements, schema):
    """Reference rows and verdicts, one ``Measurement.condition`` scan per name."""
    cells = [[m.condition(name) for name in schema.names] for m in measurements]
    rows = tuple(tuple(v.label for v in row) for row in cells)
    verdicts = {}
    for i, name in enumerate(schema.names):
        values = [row[i] for row in cells]
        if any(not v.is_known for v in values):
            verdicts[name] = HAS_UNKNOWN
        elif any(v.label != values[0].label for v in values):
            verdicts[name] = DIFFERS
        else:
            verdicts[name] = ALL_SAME
    return rows, verdicts


def all_same_row(label="team"):
    return {name: label for name in default_condition_schema().names}


class TestConditionDiff:
    def test_pass_group_verdicts(self, ds):
        report = run_qra_test(ds, "PASS", "Clarity")
        verdicts = report.diff.verdicts
        assert verdicts["test_set"] == ALL_SAME
        assert verdicts["system_code"] == ALL_SAME
        assert verdicts["implementation"] == DIFFERS
        assert verdicts["procedure"] == DIFFERS
        assert verdicts["performed_by"] == DIFFERS

    def test_identical_rows_all_same(self):
        dataset = tiny_dataset([all_same_row(), all_same_row()])
        diff = condition_diff(list(dataset.measurements), dataset.schema)
        assert set(diff.verdicts.values()) == {ALL_SAME}
        assert classify(diff) == REPEATABILITY

    def test_unknown_forces_indeterminate(self):
        row_a = all_same_row()
        row_b = all_same_row()
        row_b["performed_by"] = None
        dataset = tiny_dataset([row_a, row_b])
        diff = condition_diff(list(dataset.measurements), dataset.schema)
        assert diff.verdicts["performed_by"] == HAS_UNKNOWN
        assert classify(diff) == INDETERMINATE

    def test_mixed_group_rejected(self, ds):
        mixed = [m for m in ds.measurements
                 if m.object in ("PASS", "NTS_def")][:4]
        with pytest.raises(MixedGroup):
            condition_diff(mixed, ds.schema)
        with pytest.raises(MixedGroup):  # same object, two measurands
            condition_diff(group(ds, "NTS_def", "BLEU") + group(ds, "NTS_def", "SARI"),
                           ds.schema)

    def test_matches_per_name_scan_on_every_bundled_pair(self, ds):
        for pair in ds.pairs():
            members = group(ds, *pair)
            diff = condition_diff(members, ds.schema)
            assert (diff.rows, diff.verdicts) == scan_diff(members, ds.schema)

    @pytest.mark.parametrize("conditions", [
        # entries missing for some schema names
        [(("test_set",), ("a",)), (("test_set", "procedure"), ("a", "p"))],
        # entries in non-schema order, one name the schema lacks
        [(("performed_by", "system_code", "extra"), ("x", "s", "e")),
         (("system_code", "performed_by"), ("s", "y"))],
        # all-Unknown columns, and a repeated name (its first entry counts)
        [(SCHEMA.names + ("test_set",), (None,) * 7 + ("t",)), (SCHEMA.names, (None,) * 7)],
        [(("test_set", "test_set"), ("t", None)), (("test_set",), ("t",))],
    ])
    def test_matches_per_name_scan_on_hand_built_groups(self, conditions):
        members = [Measurement("sys", "score", float(i), names, labels)
                   for i, (names, labels) in enumerate(conditions, start=1)]
        diff = condition_diff(members, SCHEMA)
        assert diff.conditions == SCHEMA.names
        assert (diff.rows, diff.verdicts) == scan_diff(members, SCHEMA)

    def test_reads_each_measurement_once(self, ds, monkeypatch):
        """Loaded measurements hold their labels in schema order, so the
        diff takes each row as it is, without a lookup per name."""
        calls = []
        for accessor in ("label", "condition"):
            scan = getattr(Measurement, accessor)
            monkeypatch.setattr(Measurement, accessor, lambda m, name, scan=scan:
                                calls.append(name) or scan(m, name))
        members = group(ds, "NTS_def", "BLEU")
        diff = condition_diff(members, ds.schema)
        assert calls == []
        assert all(row is m.labels for row, m in zip(diff.rows, members))

    def test_empty_group_rejected(self, ds):
        with pytest.raises(EmptyGroup):
            condition_diff([], ds.schema)


class TestRunQraTest:
    def test_ntsw2v_sari(self, ds):
        report = run_qra_test(ds, "NTS-w2v_def", "SARI")
        assert report.precision.cv_star == pytest.approx(3.572, abs=1e-3)
        assert report.classification == REPRODUCIBILITY

    def test_pass_fluency(self, ds):
        report = run_qra_test(ds, "PASS", "Fluency")
        assert report.precision.cv_star == pytest.approx(16.372, abs=1e-2)
        assert report.diff.verdicts["test_set"] == ALL_SAME
        assert report.diff.verdicts["performed_by"] == DIFFERS

    def test_mult_pos_minus(self, ds):
        report = run_qra_test(ds, "mult-POS-", "wF1")
        assert report.precision.cv_star == pytest.approx(3.818, abs=1e-3)

    def test_single_measurement_rejected(self):
        dataset = tiny_dataset([all_same_row()])
        with pytest.raises(InvalidSampleSize):
            run_qra_test(dataset, "sys", "score")


class TestAssessAll:
    def test_every_pair_in_first_appearance_order(self, ds):
        reports, skipped = assess_all(ds)
        assert [(r.object.id, r.measurand.id) for r in reports] == ds.pairs()
        assert skipped == []
        assert all(r == run_qra_test(ds, r.object.id, r.measurand.id)
                   for r in reports)

    def test_filters(self, ds):
        reports, _ = assess_all(ds, object="NTS_def")
        assert [r.measurand.id for r in reports] == ["BLEU", "SARI"]
        reports, _ = assess_all(ds, measurand="Clarity")
        assert {r.measurand.id for r in reports} == {"Clarity"}
        reports, _ = assess_all(ds, "NTS_def", "SARI")
        assert [(r.object.id, r.measurand.id) for r in reports] == [("NTS_def", "SARI")]

    def test_unknown_filter_ids(self, ds):
        with pytest.raises(UnknownObject):
            assess_all(ds, object="nope")
        with pytest.raises(UnknownMeasurand):
            assess_all(ds, measurand="nope")

    def test_no_matching_pair(self, ds):
        with pytest.raises(EmptyGroup):
            assess_all(ds, "PASS", "BLEU")

    def test_reports_skipped_pairs(self):
        schema = default_condition_schema()
        measurements = tuple(
            make_measurement(o, "score", v, conditions=all_same_row(), schema=schema)
            for o, v in (("lone", 1.0), ("sys", 1.0), ("sys", 2.0)))
        dataset = QraDataset(
            schema=schema,
            objects=(ObjectRef("sys", "sys"), ObjectRef("lone", "lone")),
            measurands=(Measurand("score", "score", "score"),),
            measurements=measurements,
        )
        reports, skipped = assess_all(dataset)
        assert [r.object.id for r in reports] == ["sys"]
        assert [pair for pair, _ in skipped] == [("lone", "score")]
        assert "1 measurement" in skipped[0][1]
        with pytest.raises(InvalidSampleSize):
            assess_all(dataset, object="lone")

    def test_scans_the_measurements_a_constant_number_of_times(self):
        """Assessing every pair indexes the rows once, not once per pair."""

        class CountedRows(tuple):
            scans = 0

            def __iter__(self):
                CountedRows.scans += 1
                return tuple.__iter__(self)

        schema = default_condition_schema()
        objects = [f"o{i}" for i in range(250)]
        rows = CountedRows(
            make_measurement(o, meas, v, schema=schema)
            for v in (1.0, 2.0) for o in objects for meas in ("x", "y"))
        dataset = QraDataset(
            schema=schema,
            objects=tuple(ObjectRef(o, o) for o in objects),
            measurands=(Measurand("x", "x", "score"), Measurand("y", "y", "score")),
            measurements=rows,
        )
        CountedRows.scans = 0
        reports, skipped = assess_all(dataset)
        assert len(reports) == 500 and skipped == []
        assert CountedRows.scans == 1


class TestSubgroupAssess:
    def test_same_outputs_bleu(self, ds):
        report = subgroup_assess(
            ds, "NTS_def", "BLEU",
            [("compile_training_info", "Nisioi et al.")])
        assert report.precision.n == 4
        assert sorted(m.value for m in report.measurements) == \
            [84.20, 84.50, 84.51, 85.60]
        assert report.precision.cv_star == pytest.approx(0.838, abs=1e-3)
        assert len(report.excluded) == 3

    def test_same_outputs_bleu_w2v(self, ds):
        report = subgroup_assess(
            ds, "NTS-w2v_def", "BLEU",
            [("compile_training_info", "Nisioi et al.")])
        assert report.precision.n == 3
        assert report.precision.cv_star == pytest.approx(1.314, abs=1e-3)

    def test_regenerated_outputs_sari(self, ds):
        regen = lambda m: m.condition("compile_training_info").matches(
            m.condition("performed_by"))
        report = subgroup_assess(ds, "NTS_def", "SARI", where=regen)
        assert [m.value for m in report.measurements] == [30.65, 29.13, 29.96]
        assert report.precision.cv_star == pytest.approx(3.11, abs=1e-2)

    def test_empty_predicate_equals_full_test(self, ds):
        for obj, meas in ds.pairs():
            full = run_qra_test(ds, obj, meas)
            sub = subgroup_assess(ds, obj, meas, [])
            assert sub.precision == full.precision
            assert sub.measurements == full.measurements
            assert sub.classification == full.classification
            assert sub.excluded == ()

    def test_unknown_never_satisfies_predicate(self):
        row_a = all_same_row()
        row_b = all_same_row()
        row_b["test_set"] = None
        dataset = tiny_dataset([row_a, row_b])
        with pytest.raises(InvalidSampleSize):
            subgroup_assess(dataset, "sys", "score", [("test_set", "team")])

    def test_where_runs_once_per_member(self, ds):
        calls = []

        def nisioi(m):
            calls.append(m)
            return m.condition("compile_training_info").label == "Nisioi et al."

        report = subgroup_assess(ds, "NTS_def", "BLEU", where=nisioi)
        assert len(calls) == 7 and calls == group(ds, "NTS_def", "BLEU")
        assert report.excluded == subgroup_assess(
            ds, "NTS_def", "BLEU", [("compile_training_info", "Nisioi et al.")]).excluded
        assert len(report.excluded) == 3

    def test_filter_to_nothing(self, ds):
        with pytest.raises(EmptyGroup):
            subgroup_assess(ds, "NTS_def", "BLEU",
                            [("performed_by", "nobody")])


class TestInvariants:
    def test_permutation_invariance(self, ds):
        base = run_qra_test(ds, "NTS_def", "BLEU")
        members = list(ds.measurements)
        rng = random.Random(7)
        for _ in range(5):
            rng.shuffle(members)
            shuffled = QraDataset(
                schema=ds.schema, objects=ds.objects,
                measurands=ds.measurands, measurements=tuple(members))
            report = run_qra_test(shuffled, "NTS_def", "BLEU")
            assert report.precision == base.precision
            assert report.classification == base.classification
            assert report.diff.verdicts == base.diff.verdicts

    def test_adding_duplicate_row_keeps_reproducibility(self):
        row_a = all_same_row("a")
        row_b = all_same_row("b")
        base = tiny_dataset([row_a, row_b], values=[1.0, 2.0])
        assert run_qra_test(base, "sys", "score").classification == \
            REPRODUCIBILITY
        extended = tiny_dataset([row_a, row_b, row_b], values=[1.0, 2.0, 2.5])
        assert run_qra_test(extended, "sys", "score").classification == \
            REPRODUCIBILITY
