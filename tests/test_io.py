import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qrakit.errors import ParseError, SchemaError, ValidationError
from qrakit.io import (
    bundled_paper_dataset,
    dataset_from_obj,
    dataset_to_obj,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from qrakit.model import (
    Measurand,
    ObjectRef,
    QraDataset,
    default_condition_schema,
    group,
    make_measurement,
)


@pytest.fixture(scope="module")
def ds():
    return bundled_paper_dataset()


class TestBundledDataset:
    def test_shape(self, ds):
        assert len(ds.measurements) == 116
        assert len(ds.objects) == 14
        assert len(ds.pairs()) == 18
        # Clarity, Fluency, StanceId, wF1, BLEU, SARI
        assert len(ds.measurands) == 6

    def test_validates_clean(self, ds):
        assert validate_dataset(ds) == []

    def test_nts_def_bleu_values(self, ds):
        assert [m.value for m in group(ds, "NTS_def", "BLEU")] == \
            [84.51, 84.50, 87.46, 85.60, 84.20, 86.61, 86.20]

    def test_mult_emb_plus_values(self, ds):
        values = [m.value for m in group(ds, "mult-emb+", "wF1")]
        assert len(values) == 8
        assert values[-1] == 0.401

    def test_stance_reproduction_row(self, ds):
        row = group(ds, "PASS", "StanceId")[1]
        assert row.value == 96.75
        for name in ("implementation", "procedure", "performed_by"):
            assert row.condition(name).label == "M&al"
        assert row.condition("test_set").label == "vdL&al"

    def test_human_scales_start_at_one(self, ds):
        assert ds.measurand_by_id("Clarity").scale_min == 1.0
        assert ds.measurand_by_id("Fluency").scale_min == 1.0
        assert ds.measurand_by_id("wF1").scale_min == 0.0


class TestRoundTrip:
    def test_json(self, ds, tmp_path):
        path = tmp_path / "data.json"
        save_dataset(ds, path)
        assert load_dataset(path) == ds

    def test_csv_with_sidecar(self, ds, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        assert (tmp_path / "data.meta.json").exists()
        assert load_dataset(path) == ds

    def test_obj_round_trip(self, ds):
        assert dataset_from_obj(dataset_to_obj(ds)) == ds

    def test_csv_field_names(self, ds, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == (
            "object,measurand,value,source,"
            "cond.system_code,cond.compile_training_info,"
            "cond.method_specification,cond.implementation,"
            "cond.procedure,cond.test_set,cond.performed_by"
        )


label_text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
# None and "" are Unknown; the fixed labels make commas, quotes, newlines and
# non-ASCII text common rather than rare.
labels = st.one_of(
    st.none(), st.just(""), label_text,
    st.sampled_from([",", '"', 'say "hi", then go', "line\nbreak", "\r\n", "Équipe 3", "日本語"]),
)


@st.composite
def datasets(draw):
    schema = default_condition_schema()
    measurements = tuple(
        make_measurement(
            draw(st.sampled_from(("a", "b"))), "score", draw(st.floats(0.0, 1e6)),
            conditions={name: draw(labels) for name in schema.names},
            source=draw(st.one_of(st.just(""), label_text)),
            timestamp=draw(st.one_of(st.none(), st.dates())),
            schema=schema,
        )
        for _ in range(draw(st.integers(1, 6)))
    )
    return QraDataset(
        schema=schema,
        objects=(ObjectRef("a", "a"), ObjectRef("b", "b")),
        measurands=(Measurand("score", "score", "score"),),
        measurements=measurements,
    )


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(datasets(), st.sampled_from(["data.json", "data.csv"]))
    def test_save_load(self, dataset, name):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            save_dataset(dataset, path)
            assert load_dataset(path) == dataset


class TestConditionCells:
    def test_json_labels_load_as_text(self, ds, tmp_path):
        obj = dataset_to_obj(ds)
        raw = [1, True, 1.0, [1], "1"]
        for row, label in zip(obj["measurements"], raw):
            row["conditions"]["test_set"] = label
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(obj))
        loaded = load_dataset(path)
        assert [m.condition("test_set").label for m in loaded.measurements[:5]] == \
            ["1", "True", "1.0", "[1]", "1"]

    @pytest.mark.parametrize("name", ["data.json", "data.csv"])
    def test_load_makes_one_value_per_distinct_label(self, tmp_path, name):
        schema = default_condition_schema()
        rng = random.Random(5)
        pool = ["alpha", "beta", "Équipe 3", "x, y", None]
        rows = tuple(
            make_measurement("sys", "score", float(i),
                             {c: rng.choice(pool) for c in schema.names}, schema=schema)
            for i in range(1000))
        save_dataset(QraDataset(schema=schema, objects=(ObjectRef("sys", "sys"),),
                                measurands=(Measurand("score", "score", "score"),),
                                measurements=rows), tmp_path / name)
        loaded = load_dataset(tmp_path / name)
        cells = [cell for m in loaded.measurements for cell in m.conditions]
        distinct = {(c, cv.label) for c, cv in cells if cv.is_known}
        assert len(cells) == 7000 and len(distinct) == 28
        assert len({id(cv) for _, cv in cells}) <= len(distinct) + 1


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "nope.json")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_dataset(path)
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("object,value\nsys,1.0\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_value_below_scale_min(self, ds, tmp_path):
        obj = dataset_to_obj(ds)
        obj["measurements"][0]["value"] = 0.5  # Clarity scale starts at 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError) as exc:
            load_dataset(path)
        assert any("below scale minimum" in i.message for i in exc.value.issues)

    def test_unknown_format_extension(self, ds, tmp_path):
        path = tmp_path / "data.xlsx"
        path.write_text("x")
        with pytest.raises(SchemaError):
            load_dataset(path)


class TestValidateDataset:
    def make(self, measurements):
        schema = default_condition_schema()
        return QraDataset(
            schema=schema,
            objects=(ObjectRef("sys", "sys"),),
            measurands=(Measurand("score", "score", "score", scale_min=0.0,
                                  scale_max=10.0),),
            measurements=tuple(measurements),
        )

    def test_undeclared_object_is_error(self):
        schema = default_condition_schema()
        m = make_measurement("ghost", "score", 1.0, schema=schema)
        issues = validate_dataset(self.make([m]))
        assert any(i.severity == "error" and "undeclared object" in i.message
                   for i in issues)

    def test_singleton_group_is_warning(self):
        schema = default_condition_schema()
        m = make_measurement("sys", "score", 1.0, schema=schema)
        issues = validate_dataset(self.make([m]))
        warnings = [i for i in issues if i.severity == "warning"]
        assert len(warnings) == 1
        assert "(sys, score)" in warnings[0].location

    def test_value_above_scale_max_is_error(self):
        schema = default_condition_schema()
        rows = [make_measurement("sys", "score", v, schema=schema)
                for v in (1.0, 11.0)]
        issues = validate_dataset(self.make(rows))
        assert any("above scale maximum" in i.message for i in issues)
