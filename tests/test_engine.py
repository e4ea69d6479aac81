import datetime
import inspect
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from qrakit.engine import (
    ALL_SAME,
    DIFFERS,
    HAS_UNKNOWN,
    INDETERMINATE,
    REPEATABILITY,
    REPRODUCIBILITY,
    ConditionDiffMatrix,
    QraReport,
    assess_all,
    classify,
    condition_diff,
    run_qra_test,
    subgroup_assess,
)
from qrakit.errors import (
    DegenerateMean,
    EmptyGroup,
    InvalidSampleSize,
    MixedGroup,
    NonFiniteResult,
    UnknownMeasurand,
    UnknownObject,
    ValueBelowScale,
)
from qrakit.io import bundled_paper_dataset
from qrakit.model import (
    ConditionSchema,
    ConditionValue,
    Measurand,
    Measurement,
    ObjectRef,
    QraDataset,
    default_condition_schema,
    group,
    make_measurement,
)
from qrakit.precision import (
    PrecisionResult,
    sample_stats,
    shift_values,
    stdev_ci95,
    stdev_stderr,
    unbiased_stdev,
)
from qrakit.render import RenderSpec
from qrakit.sim import SimResult


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
        assert all(report.diff.verdict(name) == verdict for name, verdict in verdicts.items())

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

    @staticmethod
    def two_pairs(values, scale_min=0.0):
        """Pair (A, M) holds ``values``; pair (B, M) holds 1.0 and 2.0."""
        measurements = tuple(make_measurement(o, "M", v, schema=SCHEMA) for o, v in
                             [*(("A", v) for v in values), ("B", 1.0), ("B", 2.0)])
        return QraDataset(schema=SCHEMA, objects=(ObjectRef("A", "A"), ObjectRef("B", "B")),
                          measurands=(Measurand("M", "M", "", scale_min=scale_min),),
                          measurements=measurements)

    def test_single_measurement_error_names_the_pair(self):
        dataset = self.two_pairs([])._replace(
            measurements=(make_measurement("B", "M", 1.0, schema=SCHEMA),))
        with pytest.raises(InvalidSampleSize, match=r"^\(B, M\): need at least 2 values, got 1$"):
            run_qra_test(dataset, "B", "M")

    @pytest.mark.parametrize("values, scale_min, error, message", [
        ((0.0, 0.0), 0.0, DegenerateMean, "shifted mean is 0"),
        ((-1.0, 1.0), 0.0, ValueBelowScale, "value -1.0 below scale minimum 0.0"),
        ((1.7e308, 1e308), -1e308, NonFiniteResult, "mean is inf: "),
    ], ids=["zero_mean", "below_scale", "past_the_float_range"])
    def test_every_compute_error_names_the_pair(self, values, scale_min, error, message):
        dataset = self.two_pairs(values, scale_min)
        with pytest.raises(error, match="^" + re.escape(f"(A, M): {message}")) as raised:
            run_qra_test(dataset, "A", "M")
        assert isinstance(raised.value.__cause__, error)
        with pytest.raises(error, match=r"^\(A, M\): "):
            assess_all(dataset)


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


def set_based_diff(measurements, names):
    """Reference rows and verdicts: a dict per row, in which the first entry
    of a repeated name counts, and a set of labels per column."""
    rows = tuple(tuple(dict(reversed(tuple(zip(m.names, m.labels)))).get(name)
                       for name in names) for m in measurements)
    verdicts = {}
    for i, name in enumerate(names):
        labels = {row[i] for row in rows}
        verdicts[name] = (HAS_UNKNOWN if None in labels
                          else DIFFERS if len(labels) > 1 else ALL_SAME)
    return rows, verdicts


def set_based_classify(verdicts):
    found = set(verdicts.values())
    if DIFFERS in found:
        return REPRODUCIBILITY
    return REPEATABILITY if found <= {ALL_SAME} else INDETERMINATE


NAMES = ("p", "q", "r", "s")


@st.composite
def label_groups(draw):
    """A schema and a group whose rows carry the schema's names tuple, an
    equal copy of it, or names of their own (any order, repeats, a name the
    schema lacks), with None, "a", "b" or "c" in each cell."""
    schema = ConditionSchema(tuple(
        (name, "object_condition")
        for name in draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))))
    members = []
    for i in range(draw(st.integers(1, 6))):
        how = draw(st.sampled_from(("schema", "copy", "own")))
        if how == "own":
            names = tuple(draw(st.lists(st.sampled_from(NAMES + ("x",)), max_size=6)))
        else:
            names = schema.names if how == "schema" else tuple(list(schema.names))
        labels = draw(st.lists(st.sampled_from((None, "a", "b", "c")),
                               min_size=len(names), max_size=len(names)))
        members.append(Measurement("A", "M", float(i), names, tuple(labels)))
    return schema, members


class TestConditionDiffReference:
    @given(label_groups())
    def test_matches_a_set_based_reference(self, case):
        schema, members = case
        diff = condition_diff(members, schema)
        rows, verdicts = set_based_diff(members, schema.names)
        assert diff.conditions == schema.names
        assert (diff.rows, diff.verdicts) == (rows, verdicts)
        assert classify(diff) == set_based_classify(verdicts)

    def test_error_texts(self):
        with pytest.raises(EmptyGroup) as exc:
            condition_diff([], SCHEMA)
        assert str(exc.value) == "cannot diff an empty group"
        mixed = [Measurement("B", "M", 1.0, (), ()), Measurement("A", "M", 2.0, (), ()),
                 Measurement("A", "N", 3.0, (), ()), Measurement("B", "M", 4.0, (), ())]
        with pytest.raises(MixedGroup) as exc:
            condition_diff(mixed, SCHEMA)
        assert str(exc.value) == ("group mixes several (object, measurand) pairs: "
                                  "[('A', 'M'), ('A', 'N'), ('B', 'M')]")


def reference_precision(values, scale_min):
    """The pipeline's statistics from the public helpers, on the unscaled values,
    whose bits moderate inputs keep."""
    n = len(values)
    mean, s = sample_stats(shift_values(values, scale_min))
    s_star = unbiased_stdev(s, n)
    se = stdev_stderr(s, s_star, n)
    cv = 100.0 * s_star / mean
    return PrecisionResult(n, mean, s, s_star, se, stdev_ci95(s_star, se, n), cv,
                           (1.0 + 1.0 / (4.0 * n)) * cv, s == 0.0)


def reference_report(dataset, obj, meas):
    """``run_qra_test``'s report, built with one ``Measurement.label`` scan per name."""
    members = [m for m in dataset.measurements if (m.object, m.measurand) == (obj, meas)]
    names = dataset.schema.names
    verdicts = {}
    for name in names:
        labels = [m.label(name) for m in members]
        verdicts[name] = (HAS_UNKNOWN if None in labels
                          else DIFFERS if len(set(labels)) > 1 else ALL_SAME)
    measurand = dataset.measurand_by_id(meas)
    diff = ConditionDiffMatrix(names, tuple(tuple(map(m.label, names)) for m in members),
                               verdicts)
    return QraReport(dataset.object_by_id(obj), measurand, tuple(members), diff,
                     set_based_classify(verdicts),
                     reference_precision([m.value for m in members], measurand.scale_min))


def corpus(seed=11, pairs=150):
    """Many pairs with n = 2 to 10, shuffled together, on two scales, with some
    Unknown labels, some constant samples and some groups where every label agrees."""
    rng = random.Random(seed)
    measurands = (Measurand("BLEU", "BLEU", ""), Measurand("Clarity", "Clarity", "", 1.0, 7.0))
    objects = tuple(ObjectRef(f"system-{i}", f"System {i}") for i in range(pairs // 2))
    rows = []
    for i in range(pairs):
        obj, measurand = objects[i // 2].id, measurands[i % 2]
        lo, hi = (20.0, 40.0) if measurand.id == "BLEU" else (1.0, 7.0)
        constant, agreed = i % 13 == 0, i % 7 == 0
        for _ in range(2 + i % 9):
            value = lo + 1.0 if constant else round(rng.uniform(lo, hi), 2)
            labels = {name: "lab" if agreed else rng.choice(("lab-a", "team 3", "Équipe", None))
                      for name in SCHEMA.names}
            rows.append(make_measurement(obj, measurand.id, value, labels, schema=SCHEMA))
    rng.shuffle(rows)
    return QraDataset(SCHEMA, objects, measurands, rows)


class TestCorpusScale:
    """The golden files pin the 18 bundled pairs; this pins every report on a
    corpus of many small groups against a reference built apart."""

    def test_every_report_equals_the_reference(self):
        dataset = corpus()
        reports = [run_qra_test(dataset, obj, meas) for obj, meas in dataset.pairs()]
        for report in reports:
            assert report == reference_report(dataset, report.object.id, report.measurand.id)
        assert len(reports) == 150
        assert {report.precision.n for report in reports} == set(range(2, 11))
        assert {report.classification for report in reports} == {
            REPEATABILITY, REPRODUCIBILITY, INDETERMINATE}
        assert any(report.precision.degenerate_spread for report in reports)


def sample_report():
    """A two-row report, built afresh on each call."""
    schema = ConditionSchema((("lab", "object_condition"), ("team", "measurement_procedure")))
    dataset = QraDataset(
        schema=schema, objects=(ObjectRef("A", "A"),), measurands=(Measurand("M", "M", ""),),
        measurements=(
            make_measurement("A", "M", 1.0, {"lab": "x", "team": "t"}, schema=schema),
            make_measurement("A", "M", 2.0, {"lab": "y"}, source="s",
                             timestamp=datetime.date(2022, 5, 1), schema=schema)))
    return run_qra_test(dataset, "A", "M")


SAMPLE_SCHEMA = (("lab", "object_condition"), ("team", "measurement_procedure"))

RECORDS = {
    "Measurement": lambda report: report.measurements[1],
    "PrecisionResult": lambda report: report.precision,
    "ConditionDiffMatrix": lambda report: report.diff,
    "QraReport": lambda report: report,
    "ObjectRef": lambda report: report.object,
    "Measurand": lambda report: report.measurand,
    "ConditionSchema": lambda report: ConditionSchema(SAMPLE_SCHEMA),
    "ConditionValue": lambda report: report.measurements[1].condition("lab"),
    "RenderSpec": lambda report: RenderSpec("markdown"),
    "SimResult": lambda report: SimResult(n=5, sigma=2.0, trials=100, mean_s=1.75,
                                          mean_s_star=1.86, ci_coverage=0.9, seed=1),
}

# a valid new value of the first field, where "x" is not one
NEW_FIRST = {
    "ConditionSchema": (("x", "object_condition"),),
    "RenderSpec": "json",
}

# field names in order, and the defaults, of the frozen dataclasses these
# records replaced
FIELDS = {
    "Measurement": (("object", "measurand", "value", "names", "labels", "source",
                     "timestamp"), {"source": "", "timestamp": None}),
    "PrecisionResult": (("n", "mean", "s", "s_star", "se_s_star", "ci95", "cv", "cv_star",
                         "degenerate_spread"), {"degenerate_spread": False}),
    "ConditionDiffMatrix": (("conditions", "rows", "verdicts"), {}),
    "QraReport": (("object", "measurand", "measurements", "diff", "classification",
                   "precision", "excluded"), {"excluded": ()}),
    "ObjectRef": (("id", "display_name", "description"), {"description": None}),
    "Measurand": (("id", "display_name", "unit", "scale_min", "scale_max", "value_kind"),
                  {"scale_min": 0.0, "scale_max": None, "value_kind": "continuous"}),
    "ConditionSchema": (("conditions",), {}),
    "ConditionValue": (("label",), {"label": None}),
    "RenderSpec": (("format",), {"format": "text"}),
    "SimResult": (("n", "sigma", "trials", "mean_s", "mean_s_star", "ci_coverage", "seed"),
                  {}),
}

# repr of the sample records as the frozen dataclasses wrote it
MEASUREMENT_REPR = (
    "Measurement(object='A', measurand='M', value=2.0, names=('lab', 'team'), "
    "labels=('y', None), source='s', timestamp=datetime.date(2022, 5, 1))")
PRECISION_REPR = (
    "PrecisionResult(n=2, mean=1.5, s=0.7071067811865476, s_star=0.8862269254527584, "
    "se_s_star=0.3989422804014326, ci95=(-4.182815367244257, 5.955269218149774), "
    "cv=59.08179503018389, cv_star=66.46701940895687, degenerate_spread=False)")
DIFF_REPR = (
    "ConditionDiffMatrix(conditions=('lab', 'team'), rows=(('x', 't'), ('y', None)), "
    "verdicts={'lab': 'Differs', 'team': 'HasUnknown'})")
OBJECT_REPR = "ObjectRef(id='A', display_name='A', description=None)"
MEASURAND_REPR = ("Measurand(id='M', display_name='M', unit='', scale_min=0.0, "
                  "scale_max=None, value_kind='continuous')")
REPRS = {
    "Measurement": MEASUREMENT_REPR,
    "PrecisionResult": PRECISION_REPR,
    "ConditionDiffMatrix": DIFF_REPR,
    "QraReport": (
        f"QraReport(object={OBJECT_REPR}, measurand={MEASURAND_REPR}, "
        "measurements=(Measurement(object='A', measurand='M', value=1.0, "
        "names=('lab', 'team'), labels=('x', 't'), source='', "
        f"timestamp=None), {MEASUREMENT_REPR}), diff={DIFF_REPR}, "
        f"classification='Reproducibility', precision={PRECISION_REPR}, excluded=())"),
    "ObjectRef": OBJECT_REPR,
    "Measurand": MEASURAND_REPR,
    "ConditionSchema": ("ConditionSchema(conditions=(('lab', 'object_condition'), "
                        "('team', 'measurement_procedure')))"),
    "ConditionValue": "ConditionValue(label='y')",
    "RenderSpec": "RenderSpec(format='markdown')",
    "SimResult": ("SimResult(n=5, sigma=2.0, trials=100, mean_s=1.75, mean_s_star=1.86, "
                  "ci_coverage=0.9, seed=1)"),
}


@pytest.mark.parametrize("kind", RECORDS)
class TestRecords:
    def test_fields_and_defaults(self, kind):
        record = RECORDS[kind](sample_report())
        assert type(record).__name__ == kind
        parameters = inspect.signature(type(record)).parameters.values()
        assert [p.name for p in parameters] == list(record._fields)
        defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
        assert (record._fields, defaults) == FIELDS[kind]

    def test_immutable(self, kind):
        record = RECORDS[kind](sample_report())
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], "x")
        with pytest.raises(AttributeError):
            record.other = "x"

    def test_replace(self, kind):
        record = RECORDS[kind](sample_report())
        first, *rest = record._fields
        new = NEW_FIRST.get(kind, "x")
        copy = record._replace(**{first: new})
        assert type(copy) is type(record)
        assert getattr(copy, first) == new and getattr(record, first) != new
        assert [getattr(copy, name) for name in rest] == [getattr(record, name) for name in rest]

    def test_equality_and_hash(self, kind):
        a, b = RECORDS[kind](sample_report()), RECORDS[kind](sample_report())
        assert a == b and a is not b
        assert a == tuple(a)
        if kind in ("ConditionDiffMatrix", "QraReport"):
            with pytest.raises(TypeError):  # verdicts is a dict, as before
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_repr(self, kind):
        assert repr(RECORDS[kind](sample_report())) == REPRS[kind]

    def test_pickle_round_trip(self, kind):
        record = RECORDS[kind](sample_report())
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record


ROW = Measurement("A", "M", 1.0, ("a", "b"), ("x", None))


@pytest.mark.parametrize("record, changes, error, message", [
    (Measurand("M", "M", ""), {"scale_min": float("nan")}, ValueError,
     "measurand 'M': scale_min must be finite, not nan"),
    (Measurand("M", "M", "", scale_max=7.0), {"scale_min": 7.0}, ValueError,
     "measurand 'M': scale_max must exceed scale_min"),
    (Measurand("M", "M", ""), {"unit": 5}, TypeError,
     "measurand 'M': unit must be a string, not int"),
    (ObjectRef("A", "A"), {"id": ""}, ValueError, "object id must be non-empty"),
    (ObjectRef("A", "A"), {"description": 5}, TypeError,
     "object 'A': description must be a string or null, not int"),
    (ConditionSchema(SAMPLE_SCHEMA), {"conditions": SAMPLE_SCHEMA * 2}, ValueError,
     "condition names must be unique"),
    (ConditionValue("x"), {"label": ""}, ValueError,
     "known condition labels must be non-empty"),
    (RenderSpec(), {"format": "xml"}, ValueError, "unknown render format 'xml'"),
    (ROW, {"value": "5"}, TypeError, "value must be a number, not str"),
    (ROW, {"value": True}, TypeError, "value must be a number, not bool"),
    (ROW, {"object": ""}, ValueError, "object id must be non-empty"),
    (ROW, {"source": 5}, TypeError, "source must be a string or null, not int"),
    (ROW, {"timestamp": "2022-01-01"}, TypeError, "timestamp must be a date or None, not str"),
    (ROW, {"labels": ("x",)}, ValueError, "1 labels for 2 condition names"),
], ids=["Measurand-nan", "Measurand-bounds", "Measurand-unit", "ObjectRef-id",
        "ObjectRef-description", "ConditionSchema", "ConditionValue", "RenderSpec",
        "Measurement-value-str", "Measurement-value-bool", "Measurement-object",
        "Measurement-source", "Measurement-timestamp", "Measurement-labels"])
def test_replace_reruns_the_checks(record, changes, error, message):
    fields = {**record._asdict(), **changes}
    for build in (lambda: record._replace(**changes), lambda: type(record)(**fields),
                  lambda: type(record)._make(fields.values())):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message


def test_replace_converts_like_the_constructor():
    for record, changes, converted in [
        (Measurand("M", "M", ""), {"scale_max": 7}, {"scale_max": 7.0}),
        (ROW, {"value": 2}, {"value": 2.0}),
        (ROW, {"names": ["a"], "labels": ["x"]}, {"names": ("a",), "labels": ("x",)}),
    ]:
        copy = record._replace(**changes)
        assert copy == type(record)(**{**record._asdict(), **changes})
        assert copy == record._replace(**converted)
        for name, value in converted.items():
            assert type(getattr(copy, name)) is type(value)
        assert hash(copy) == hash(record._replace(**converted))
