import contextlib
import copy
import csv
import datetime
import functools
import io
import json
import math
import operator
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import qrakit.io
from qrakit import render
from qrakit.engine import (
    ALL_SAME,
    HAS_UNKNOWN,
    INDETERMINATE,
    assess_all,
    classify,
    condition_diff,
    run_qra_test,
    subgroup_assess,
)
from qrakit.errors import EmptyGroup, EncodeError, ParseError, SchemaError, ValidationError
from qrakit.io import (
    _dataset_to_csv,
    _dataset_to_json,
    bundled_paper_dataset,
    dataset_from_obj,
    dataset_to_obj,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from qrakit.model import (
    CONDITION_CATEGORIES,
    MEASUREMENT_PROCEDURE,
    OBJECT_CONDITION,
    UNKNOWN,
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


@pytest.fixture(scope="module")
def ds():
    return bundled_paper_dataset()


def assert_refused(m, error, message, **changes):
    """``Measurement(...)``, ``_make`` and ``_replace`` all raise exactly ``error``
    with ``message`` for ``m`` with ``changes``."""
    fields = m._asdict() | changes
    for build in (lambda: Measurement(**fields), lambda: Measurement._make(fields.values()),
                  lambda: m._replace(**changes)):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error and str(exc.value) == message


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

    def test_validation_error_names_the_file(self, ds, monkeypatch, tmp_path):
        obj = dataset_to_obj(ds)
        obj["measurements"][0]["value"] = -1.0
        path = tmp_path / "qra_benchmark.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        monkeypatch.setattr(qrakit.io, "_BUNDLED", path)
        with pytest.raises(ValidationError) as exc:
            bundled_paper_dataset()
        assert str(exc.value).startswith(f"{path}: measurement 1 (")

    def test_human_scales_start_at_one(self, ds):
        assert ds.measurand_by_id("Clarity").scale_min == 1.0
        assert ds.measurand_by_id("Fluency").scale_min == 1.0
        assert ds.measurand_by_id("wF1").scale_min == 0.0


# The names and labels of two rows of one pair whose condition names are not
# the schema's ("a", "b"): each row counts the schema's names alone, and the
# first entry of a repeated name. A third row is built against the schema.
OFF_SCHEMA_ROWS = {
    "subset": ((("a",), ("x",)), (("a",), ("x",))),
    "superset": ((("a", "b", "c"), ("x", "u", "1")), (("a", "b", "c"), ("x", "v", "2"))),
    "reordered": ((("b", "a"), ("u", "x")), (("b", "a"), ("v", "x"))),
    "repeated": ((("a", "b", "a"), ("x", "u", "y")), (("a", "a", "b"), ("x", "z", "u"))),
}


def off_schema_dataset(shape):
    schema = ConditionSchema(conditions=(("a", OBJECT_CONDITION),
                                         ("b", MEASUREMENT_PROCEDURE)))
    rows = tuple(Measurement("A", "M", value, names, labels)
                 for value, (names, labels) in zip((1.0, 2.0), OFF_SCHEMA_ROWS[shape]))
    return QraDataset(
        schema=schema, objects=(ObjectRef("A", "A"),), measurands=(Measurand("M", "M", ""),),
        measurements=rows + (make_measurement("A", "M", 4.0, {"a": "x", "b": "w"},
                                              schema=schema),))


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

    @pytest.mark.parametrize("name, fmt, sidecar", [("data.txt", "csv", "data.meta.json"),
                                                    ("data.dat", "json", None)])
    def test_explicit_format(self, ds, tmp_path, name, fmt, sidecar):
        save_dataset(ds, tmp_path / name, fmt=fmt)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(filter(None, (name, sidecar)))
        assert load_dataset(tmp_path / name, fmt=fmt) == ds

    def test_obj_round_trip(self, ds):
        assert dataset_from_obj(dataset_to_obj(ds)) == ds

    @pytest.mark.parametrize("name", ["data.json", "data.csv"])
    @pytest.mark.parametrize("shape", OFF_SCHEMA_ROWS)
    def test_rows_off_the_schema_reload_as_assessed(self, tmp_path, shape, name):
        dataset = off_schema_dataset(shape)
        path = tmp_path / name
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert (condition_diff(loaded.measurements, loaded.schema)
                == condition_diff(dataset.measurements, dataset.schema))

    @pytest.mark.parametrize("shape", OFF_SCHEMA_ROWS)
    def test_rows_off_the_schema_save_as_they_reload(self, tmp_path, shape):
        dataset = off_schema_dataset(shape)
        save_dataset(dataset, tmp_path / "first.json")
        loaded = load_dataset(tmp_path / "first.json")
        save_dataset(loaded, tmp_path / "second.json")
        assert ((tmp_path / "first.json").read_bytes()
                == (tmp_path / "second.json").read_bytes())
        save_dataset(dataset, tmp_path / "data.csv")
        assert load_dataset(tmp_path / "data.csv") == loaded

    @pytest.mark.parametrize("shape", OFF_SCHEMA_ROWS)
    def test_subgroups_filter_on_the_schema_only(self, shape):
        with pytest.raises(EmptyGroup, match="^no condition 'c' in the schema$"):
            subgroup_assess(off_schema_dataset(shape), "A", "M", [("c", "1")])

    def test_null_source_reads_as_empty(self, ds, tmp_path):
        obj = dataset_to_obj(ds)
        obj["measurements"][0]["source"] = None
        del obj["measurements"][1]["source"]
        path = tmp_path / "data.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        loaded = load_dataset(path)
        assert loaded.measurements[0].source == loaded.measurements[1].source == ""
        save_dataset(loaded, tmp_path / "data.csv")
        assert load_dataset(tmp_path / "data.csv") == loaded

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


# the writers' block sizes: 1, 2 and 3 put block boundaries inside the small
# drawn datasets, the default puts none
blocks = st.sampled_from([1, 2, 3, qrakit.io._BLOCK])


@contextlib.contextmanager
def block_size(n):
    """A context in which the writers build, encode and hold ``n``
    measurements at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qrakit.io, "_BLOCK", n)
        yield


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
        for _ in range(draw(st.integers(0, 6)))
    )
    return QraDataset(
        schema=schema,
        objects=(ObjectRef("a", "a"), ObjectRef("b", "b")),
        measurands=(Measurand("score", "score", "score"),),
        measurements=measurements,
    )


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(datasets(), st.sampled_from(["data.json", "data.csv"]), blocks)
    def test_save_load(self, dataset, name, block):
        with tempfile.TemporaryDirectory() as tmp, block_size(block):
            path = Path(tmp) / name
            save_dataset(dataset, path)
            assert load_dataset(path) == dataset


# Text that JSON must escape, that %-formatting would read, beyond the BMP,
# and empty; the empty string is an Unknown label and is no id or name.
odd_text = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "%s", "%", "%%s", "%(a)s",
                     "\U0001F600", "\u2028", 'a"b\\c\nd%s']),
)
odd_ids = odd_text.filter(bool)


def json_dumps_text(dataset):
    return json.dumps(dataset_to_obj(dataset), indent=2, ensure_ascii=False) + "\n"


def json_text(dataset):
    """The JSON writer's pieces, joined."""
    return "".join(_dataset_to_json(dataset))


@st.composite
def odd_datasets(draw, loadable):
    """Datasets of odd text. Loadable ones have finite values in scale,
    declared ids and every measurement built against the schema; the others
    may hold NaN and infinities, undeclared ids, and measurements built
    without a schema, whose names differ from the schema's."""
    names = draw(st.lists(odd_ids, max_size=3, unique=True))
    schema = ConditionSchema(conditions=tuple(
        (name, draw(st.sampled_from(CONDITION_CATEGORIES))) for name in names))
    objects = tuple(
        ObjectRef(i, draw(odd_text), draw(st.one_of(st.none(), odd_text)))
        for i in draw(st.lists(odd_ids, min_size=1, max_size=3, unique=True)))
    measurands = tuple(
        Measurand(i, draw(odd_text), draw(odd_text))
        for i in draw(st.lists(odd_ids, min_size=1, max_size=2, unique=True)))
    values = st.floats(0.0, 1e6) if loadable else st.floats()
    own_names = st.just(None) if loadable else st.one_of(
        st.none(), st.lists(odd_ids, max_size=3, unique=True))
    measurements = []
    for _ in range(draw(st.integers(0, 5))):
        row_names = draw(own_names)
        measurements.append(make_measurement(
            draw(st.sampled_from([o.id for o in objects]) if loadable else odd_ids),
            draw(st.sampled_from([m.id for m in measurands]) if loadable else odd_ids),
            draw(values),
            conditions={name: draw(st.one_of(st.none(), odd_text))
                        for name in (names if row_names is None else row_names)},
            source=draw(odd_text),
            timestamp=draw(st.one_of(st.none(), st.dates())),
            schema=schema if row_names is None else None,
        ))
    return QraDataset(schema=schema, objects=objects, measurands=measurands,
                      measurements=tuple(measurements))


class TestJsonWriter:
    """The JSON writer's text is exactly json.dumps(indent=2) of dataset_to_obj."""

    @settings(max_examples=150, deadline=None)
    @given(odd_datasets(loadable=False), blocks)
    def test_text_matches_json_dumps(self, dataset, block):
        with block_size(block):
            assert json_text(dataset) == json_dumps_text(dataset)

    @settings(max_examples=60, deadline=None)
    @given(odd_datasets(loadable=True), blocks)
    def test_saved_bytes_match_json_dumps_and_load_back(self, dataset, block):
        with tempfile.TemporaryDirectory() as tmp, block_size(block):
            path = Path(tmp) / "x.json"
            save_dataset(dataset, path)
            assert path.read_bytes() == json_dumps_text(dataset).encode("utf-8")
            assert load_dataset(path) == dataset

    def test_edge_cases(self):
        schema = default_condition_schema()
        header = dict(objects=(ObjectRef("A", "A"),), measurands=(Measurand("M", "M", ""),))
        cases = [
            QraDataset(schema=schema, measurements=(), **header),
            QraDataset(schema=ConditionSchema(conditions=()), objects=(), measurands=()),
            QraDataset(schema=ConditionSchema(conditions=()), **header, measurements=(
                make_measurement("A", "M", float("nan"), schema=ConditionSchema(())),
                make_measurement("A", "M", -float("inf"), {"x": "1"}),
                make_measurement("A", "M", 2, {"%": "%s"}, schema=None),
            )),
            # a repeated name keeps its first place and its first label, as m.label gives it
            QraDataset(schema=schema, **header, measurements=(
                Measurement("A", "M", 1.0, ("a", "b", "a"), ("x", None, "z")),
                Measurement("A", "M", 1.0, ("a", "b"), ("x", None)),
            )),
        ]
        for dataset in cases:
            for block in (1, 2, 3, qrakit.io._BLOCK):
                with block_size(block):
                    assert json_text(dataset) == json_dumps_text(dataset)


def corpus_like(n):
    """``n`` measurements shaped like a results corpus: ten scores per
    (object, measurand) pair, seven conditions with some Unknown, two in
    three dated."""
    schema = default_condition_schema()
    rng = random.Random(3)
    objects = tuple(ObjectRef(f"system-{i}", f"System {i}") for i in range(n // 20 + 1))
    measurands = (Measurand("BLEU", "BLEU", ""), Measurand("SARI", "SARI", ""))
    measurements = tuple(
        make_measurement(
            objects[i // 20].id, measurands[i // 10 % 2].id, round(rng.uniform(20, 40), 2),
            {name: rng.choice(("lab-a", "team 3", "Équipe", None)) for name in schema.names},
            source=f"paper-{i % 97}",
            timestamp=datetime.date(2020, 1, 1 + i % 28) if i % 3 else None, schema=schema)
        for i in range(n))
    return QraDataset(schema=schema, objects=objects, measurands=measurands,
                      measurements=measurements)


class TestBlocks:
    """The writers work one block of measurements at a time; where the
    boundaries fall does not change a byte."""

    @pytest.mark.parametrize("extra", [0, 1])
    def test_two_blocks_and_one_more(self, tmp_path, extra):
        dataset = corpus_like(2 * qrakit.io._BLOCK + extra)
        pieces = list(_dataset_to_json(dataset))
        assert len(pieces) == 2 + 2 + extra  # header, the blocks, closing text
        assert "".join(pieces) == json_dumps_text(dataset)
        with block_size(len(dataset.measurements)):  # the whole document at once
            whole = "".join(_dataset_to_csv(dataset))
        pieces = list(_dataset_to_csv(dataset))
        assert len(pieces) == 1 + 2 + extra  # header row, the blocks
        assert "".join(pieces) == whole
        for name in ("data.json", "data.csv"):
            save_dataset(dataset, tmp_path / name)
            assert load_dataset(tmp_path / name) == dataset

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_csv_and_sidecar_match_one_block_and_reload(self, ds, tmp_path, block):
        path = tmp_path / "data.csv"
        with block_size(len(ds.measurements)):
            save_dataset(ds, path)
        whole = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with block_size(block):
            save_dataset(ds, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == whole
        assert load_dataset(path) == ds


class TestSaveMemory:
    """A save holds the encoded bytes of its files and one block's transient
    objects, not whole-document text. On this dataset the block writers peak
    at 1.2x (JSON) and 1.4x (CSV) the bytes written. The whole-document
    writers they replaced peaked at 4.8x and 5.2x here, and at 6.2x and 5.1x
    on the 10k benchmark corpus, so this test fails with them."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return corpus_like(5000)

    @pytest.mark.parametrize("name", ["data.json", "data.csv"])
    def test_peak_is_at_most_twice_the_bytes_written(self, dataset, tmp_path, name):
        path = tmp_path / name
        save_dataset(dataset, path)  # first-call work, untraced
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_dataset(dataset, path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        written = sum(p.stat().st_size for p in tmp_path.iterdir())
        assert peak <= 2 * written


class TestLoadMemory:
    """A load reads and holds one block of text and one measurement's objects
    at a time, not the whole text and its object graph. Here a JSON load
    peaks at about 1.3x the dataset it returns and a CSV load at 1.0x. The
    whole-file JSON read peaked at about 3.4x, and the CSV load that decoded
    its file whole at 1.65x, so this test fails with either."""

    @pytest.mark.parametrize("name", ["data.json", "data.csv"])
    def test_peak_is_at_most_1_4x_the_dataset(self, tmp_path, name):
        path = tmp_path / name
        save_dataset(corpus_like(2000), path)
        load_dataset(path)  # first-call work, untraced
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dataset = load_dataset(path)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataset.measurements) == 2000
        assert peak - before <= 1.4 * (size - before)


class TestSharedStrings:
    """Every reader gives equal ids, sources and labels of one load one string,
    and shares none with another load."""

    @staticmethod
    def known_labels(dataset):
        return [label for m in dataset.measurements for label in m.labels if label is not None]

    def assert_one_string_per_value(self, dataset):
        fields = {f: [getattr(m, f) for m in dataset.measurements]
                  for f in ("object", "measurand", "source")}
        fields["labels"] = self.known_labels(dataset)
        for field, cells in fields.items():
            assert len(set(map(id, cells))) == len(set(cells)) > 1, field

    def test_each_reader(self, tmp_path):
        corpus = corpus_like(2000)
        save_dataset(corpus, tmp_path / "data.json")
        save_dataset(corpus, tmp_path / "data.csv")
        for name in ("data.json", "data.csv"):
            self.assert_one_string_per_value(load_dataset(tmp_path / name))
        (tmp_path / "data.meta.json").unlink()
        self.assert_one_string_per_value(load_dataset(tmp_path / "data.csv"))
        obj = json.loads((tmp_path / "data.json").read_text(encoding="utf-8"))
        self.assert_one_string_per_value(dataset_from_obj(obj))

    def test_two_loads_share_no_label(self, tmp_path):
        # corpus_like's labels are longer than one character, which CPython shares itself
        save_dataset(corpus_like(200), tmp_path / "data.json")
        first, second = (load_dataset(tmp_path / "data.json") for _ in range(2))
        assert first == second
        assert set(map(id, self.known_labels(first))).isdisjoint(
            map(id, self.known_labels(second)))


class JsonObject(list):
    """A JSON object as its (key, value) pairs, so that a key may repeat."""


def noisy_json(node, rng) -> str:
    """``node`` as JSON text with random whitespace around every token, random
    escapes in strings and numbers in random notation. No escape is of a
    surrogate, since a non-BMP character stays as it is."""
    def ws():
        return "".join(rng.choices(" \t\n\r", k=rng.randrange(3)))

    def string(text):
        out = []
        for c in text:
            must = c in '"\\' or c < " "
            if c in JSON_ESCAPES and (must or rng.random() < 0.3):
                out.append(JSON_ESCAPES[c])
            elif must or (ord(c) < 0x10000 and rng.random() < 0.2):
                out.append(rng.choice(("\\u%04x", "\\u%04X")) % ord(c))
            else:
                out.append(c)
        return '"' + "".join(out) + '"'

    def number(value):
        forms = [repr(value), f"{value:.17e}", f"{value:.17E}"]
        if value.is_integer() and abs(value) < 1e15:
            forms.append(str(int(value)))
        return rng.choice(forms)

    def text(node):
        if isinstance(node, dict):
            node = JsonObject(node.items())
        if isinstance(node, JsonObject):
            return "{" + ws() + ",".join(ws() + string(k) + ws() + ":" + ws() + text(v) + ws()
                                         for k, v in node) + "}"
        if isinstance(node, list):
            return "[" + ws() + ",".join(ws() + text(v) + ws() for v in node) + "]"
        if isinstance(node, str):
            return string(node)
        if isinstance(node, float):
            return number(node)
        return json.dumps(node)

    return ws() + text(node) + ws()


JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "/": "\\/", "\b": "\\b", "\f": "\\f",
                "\n": "\\n", "\r": "\\r", "\t": "\\t"}
DECOYS = [None, 7, "decoy", [1.5, {"k": []}], {"id": "Z"}]


def shuffled_with_decoys(pairs, rng):
    """``pairs`` in random order, some key given a decoy value before its
    own, and maybe a key that no reader knows."""
    pairs = rng.sample(pairs, len(pairs))
    for _ in range(rng.randrange(3)):
        at = rng.randrange(len(pairs) + 1)
        key = rng.choice([k for k, _ in pairs[at:]] + ["note"])
        pairs.insert(at, (key, rng.choice(DECOYS)))
    return pairs


def noisy_layout(obj: dict, rng, measurements_last: bool) -> JsonObject:
    """``obj`` with its keys, and each measurement's keys, shuffled and
    repeated. With ``measurements_last`` the header keys all come before the
    measurements, as in every file qrakit writes; otherwise anywhere."""
    rows = [JsonObject(shuffled_with_decoys(list(m.items()), rng)) for m in obj["measurements"]]
    header = shuffled_with_decoys([(k, v) for k, v in obj.items() if k != "measurements"], rng)
    at = len(header) if measurements_last else rng.randrange(len(header) + 1)
    return JsonObject(header[:at] + [("measurements", rows)] + header[at:]
                      + [("note", rng.choice(DECOYS))] * rng.randrange(2))


@contextlib.contextmanager
def read_block(n):
    """A context in which a streamed JSON load reads ``n`` bytes at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qrakit.io, "_READ_BLOCK", n)
        yield


@contextlib.contextmanager
def no_whole_file_read():
    """A context in which reading a data file whole raises, so that a load that
    reads it again for the reference reader fails; a CSV sidecar is still read."""
    read_text = qrakit.io._read_text

    def whole_file_read(path):
        if path.name.endswith(".meta.json"):
            return read_text(path)
        raise AssertionError(f"{path} was read whole")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qrakit.io, "_read_text", whole_file_read)
        yield


def load_outcome(load, path):
    """The dataset ``load(path)`` returns, or the type and text of its error."""
    try:
        return load(path)
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)


class TestStreamedJsonLoad:
    """A JSON data file is read in blocks and built one measurement at a time.
    The reference is the whole-file reader, ``io._read_json`` then
    ``io._dataset_from_obj``: every document loads to what it gives, and
    every document the stream cannot take is handed to it."""

    @settings(max_examples=150, deadline=None)
    @given(odd_datasets(loadable=True), st.integers(0, 2**32), st.booleans(),
           st.one_of(st.integers(1, 64), st.sampled_from([4096, qrakit.io._READ_BLOCK])))
    def test_equals_json_loads(self, dataset, seed, measurements_last, block):
        rng = random.Random(seed)  # of the layout; hypothesis draws the content
        text = noisy_json(noisy_layout(dataset_to_obj(dataset), rng, measurements_last), rng)
        expected = dataset_from_obj(json.loads(text))
        with tempfile.TemporaryDirectory() as tmp, read_block(block):
            path = Path(tmp) / "data.json"
            path.write_bytes(text.encode("utf-8"))
            # an escape that reads like a surrogate's is handed over on purpose
            if measurements_last and not qrakit.io._SURROGATE_ESCAPE.search(text):
                with no_whole_file_read():
                    assert load_dataset(path) == expected
            else:
                assert load_dataset(path) == expected

    @pytest.mark.parametrize("block", [1, 7, 4096, qrakit.io._READ_BLOCK])
    def test_saved_files_are_streamed(self, ds, tmp_path, block):
        corpus = corpus_like(600)
        for dataset in (ds, corpus):
            path = tmp_path / "data.json"
            save_dataset(dataset, path)
            with read_block(block), no_whole_file_read():
                assert load_dataset(path) == dataset
        # the bundled dataset loads through the same reader
        with read_block(block), no_whole_file_read():
            assert bundled_paper_dataset() == ds

    def test_a_long_value_is_read_in_doubling_blocks(self, monkeypatch):
        monkeypatch.setattr(qrakit.io, "_READ_BLOCK", 16)
        reads = []

        class File(io.StringIO):
            def read(self, n):
                reads.append(n)
                return super().read(n)

        long = "\u00e9" * 100_000
        stream = qrakit.io._JsonStream(File(json.dumps([long, 1.5])))
        assert list(stream.elements()) == [long, 1.5]
        assert len(reads) <= 20 and reads[-1] >= 100_000

    BASE = ('{"schema": {"conditions": [{"name": "lab", "category": "object_condition"}]}, '
            '"objects": [{"id": "A"}], "measurands": [{"id": "M"}], '
            '"measurements": [{"object": "A", "measurand": "M", "value": 1.5}, '
            '{"object": "A", "measurand": "M", "value": 2.5, "source": "s"}]}')

    @pytest.mark.parametrize("text", [
        # measurements before the header, or followed by a header key; repeated,
        # they are streamed again
        '{"measurements": [{"object": "A", "measurand": "M", "value": 1.5}], '
        + BASE[1:],
        BASE[:-1] + ', "measurements": []}', BASE[:-1] + ', "measurements": 5}',
        BASE[:-1] + ', "objects": [{"id": "A"}, {"id": "B"}]}',
        BASE[:-1] + ', "schema": {"conditions": []}}',
        # escapes that read like a surrogate's: a pair, an escaped backslash, a lone half
        BASE.replace('"s"', '"\\ud83d\\ude00"'),
        BASE.replace('"s"', '"\\\\ud800"'),
        BASE.replace('"s"', '"\\ud800"'),
        # a byte order mark, which both readers drop
        "\ufeff" + BASE,
        # not JSON, or not an object
        BASE + " x", BASE[:-1], BASE.replace("1.5", "1.5.0"),
        BASE.replace("2.5", "2.5e"), BASE.replace("}]}", "},]}"), "[" + BASE + "]",
        "", "  ", "{}", "{1: 2}", BASE.replace('"s"', '"\x01"'),
        # junk after the document that a later block reads, with an escape that
        # reads like a surrogate's: the hand-off it causes is no end of file
        BASE + " " * 70_000 + '"\\ud800"',
        # nested deeper than the decoder's recursion limit
        BASE.replace('"s"', "[" * 3000 + "]" * 3000),
        # a key or a value followed by a delimiter that does not belong there
        '{"schema", 1}', '{"schema": {"conditions": []} : 1}',
        # a field or row error, and a measurements value that is no array
        BASE.replace("2.5", '"2.5"'), BASE.replace('"source": "s"', '"source": 5'),
        # a condition name the schema does not declare
        BASE.replace('"source": "s"', '"source": "s", "conditions": {"lba": "x"}'),
        BASE.replace('"objects": [{"id": "A"}]', '"objects": {}'),
        BASE.replace('[{"object": "A", "measurand": "M", "value": 1.5}, ', "{").replace(
            "]}", "}"),
    ], ids=lambda text: repr(text[-30:]))
    @pytest.mark.parametrize("block", [1, qrakit.io._READ_BLOCK])
    def test_other_documents_get_the_reference_outcome(self, tmp_path, text, block):
        path = tmp_path / "data.json"
        path.write_bytes(text.encode("utf-8"))
        reference = load_outcome(
            lambda p: qrakit.io._dataset_from_obj(qrakit.io._read_json(p), f"{p}: "), path)
        with read_block(block):
            assert load_outcome(qrakit.io._read_dataset, path) == reference

    def test_invalid_utf8_gets_the_reference_error(self, tmp_path):
        path = tmp_path / "data.json"
        data = self.BASE.encode("utf-8")
        path.write_bytes(data[:100] + b"\xe9" + data[100:])
        with read_block(16), pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == (f"{path}: 'utf-8' codec can't decode byte 0xe9 in "
                                  f"position 100: invalid continuation byte")

    def test_sidecar_is_read_whole(self, ds, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        read = []
        whole_file_read = qrakit.io._read_json
        monkeypatch.setattr(qrakit.io, "_read_json",
                            lambda p: read.append(p) or whole_file_read(p))
        assert load_dataset(path) == ds
        assert read == [tmp_path / "data.meta.json"]


class TestStreamedCsvLoad:
    """A CSV data file is parsed as it is read from the open file; its sidecar
    is read whole, first."""

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no_sidecar"])
    def test_saved_files_are_streamed(self, ds, tmp_path, sidecar):
        path = tmp_path / "data.csv"
        for dataset in (ds, corpus_like(600)):
            save_dataset(dataset, path)
            if not sidecar:
                (tmp_path / "data.meta.json").unlink()
                # the reference reader, over the whole text
                dataset = qrakit.io._dataset_from_csv(
                    path, None, io.StringIO(qrakit.io._read_text(path), newline=""))
            with no_whole_file_read():
                assert load_dataset(path) == dataset

    @pytest.mark.parametrize("name", ["data.json", "data.csv", "sidecar.csv"])
    def test_a_byte_order_mark_is_dropped(self, ds, tmp_path, name):
        path = tmp_path / name
        save_dataset(ds, path)
        if name == "data.csv":
            (tmp_path / "data.meta.json").unlink()
        expected = load_dataset(path)
        for file in tmp_path.iterdir():  # the sidecar too
            file.write_bytes(b"\xef\xbb\xbf" + file.read_bytes())
        with no_whole_file_read():
            assert load_dataset(path) == expected
        # and by the reference reader, which a fault hands the file to
        if name.endswith(".json"):
            assert qrakit.io._dataset_from_obj(qrakit.io._read_json(path), "") == expected
        else:
            meta = path.with_suffix(".meta.json")
            meta = qrakit.io._read_json(meta) if meta.exists() else None
            text = io.StringIO(qrakit.io._read_text(path), newline="")
            assert qrakit.io._dataset_from_csv(path, meta, text) == expected

    def test_no_file_is_opened_in_the_locale_encoding(self, tmp_path):
        # the warning fires when a file is opened as text with no encoding given
        code = ("import sys; from pathlib import Path; from qrakit.io import *\n"
                "ds = bundled_paper_dataset()\n"
                "for name in ('data.json', 'data.csv'):\n"
                "    save_dataset(ds, Path(sys.argv[1]) / name)\n"
                "    assert load_dataset(Path(sys.argv[1]) / name) == ds\n")
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", code, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(Path(qrakit.io.__file__).parents[1])},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.csv", "data.json", "data.meta.json"]


class TestConditionCells:
    def test_json_labels_load_as_text(self, ds, tmp_path):
        # only a string or null is a label: no other JSON leaf is read as its text
        path = tmp_path / "labels.json"
        for raw, kind in ((1, "int"), (True, "bool"), (1.0, "float"), ([1], "list"),
                          ({"a": 1}, "dict")):
            obj = dataset_to_obj(ds)
            obj["measurements"][0]["conditions"]["test_set"] = raw
            path.write_text(json.dumps(obj))
            with pytest.raises(ParseError) as exc:
                load_dataset(path)
            assert str(exc.value) == (f"{path}: measurement 1: condition label must be "
                                      f"a string or null, not {kind}")

    def test_a_row_is_checked_in_field_order(self, ds, tmp_path):
        # Measurement's order: the object id is refused before the label
        path = tmp_path / "data.json"
        obj = dataset_to_obj(ds)
        obj["measurements"][1]["object"] = 5
        obj["measurements"][1]["conditions"]["test_set"] = 7
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: measurement 2: object id must be a string, not int"

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
        labels = [label for m in loaded.measurements for label in m.labels]
        known = [label for label in labels if label is not None]
        assert len(labels) == 7000 and len(set(known)) == 4
        assert len({id(label) for label in known}) <= len(set(known))

    @pytest.mark.parametrize("conditions", [(), ("lab",)], ids=["none", "one"])
    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no_sidecar"])
    def test_csv_with_no_or_one_condition_column(self, tmp_path, conditions, sidecar):
        """The reader takes a row's condition cells with one itemgetter, which
        gives a bare cell, not a tuple, for one index and takes no zero."""
        schema = ConditionSchema([(name, MEASUREMENT_PROCEDURE) for name in conditions])
        labels = [("x",), (None,), ("y, z",)] if conditions else [(), (), ()]
        rows = tuple(Measurement("A", "M", float(v), schema.names, row, "paper")
                     for v, row in enumerate(labels, start=1))
        dataset = QraDataset(schema, (ObjectRef("A", "A"),), (Measurand("M", "M", ""),), rows)
        path = tmp_path / "data.csv"
        save_dataset(dataset, path)
        if not sidecar:
            (tmp_path / "data.meta.json").unlink()
        loaded = load_dataset(path)
        assert loaded.schema == schema and loaded.measurements == rows
        assert [type(m.labels) for m in loaded.measurements] == [tuple] * 3


class TestCsvReaderParity:
    """Each CSV layout loads equal to its JSON twin."""

    TWIN = {
        "schema": {"conditions": [{"name": "lab", "category": "object_condition"},
                                  {"name": "test_set", "category": "measurement_procedure"}]},
        "objects": [{"id": "A", "display_name": "System A", "description": None},
                    {"id": "B", "display_name": "B", "description": "second"}],
        "measurands": [{"id": "M", "display_name": "M", "unit": "%", "scale_min": 0.0,
                        "scale_max": 100.0, "value_kind": "percentage"}],
        "measurements": [
            {"object": "A", "measurand": "M", "value": 1.5, "source": "paper",
             "timestamp": "2021-03-04", "conditions": {"lab": "x, y", "test_set": "wmt"}},
            {"object": "A", "measurand": "M", "value": 2.0, "source": "",
             "timestamp": None, "conditions": {"lab": None, "test_set": "wmt"}},
            {"object": "B", "measurand": "M", "value": 3.25, "source": "repro",
             "timestamp": "2022-12-31", "conditions": {"lab": "Équipe 3", "test_set": None}},
        ],
    }
    COLUMNS = ["object", "measurand", "value", "source", "timestamp",
               "cond.lab", "cond.test_set"]

    def cells(self, row, column):
        if column.startswith("cond."):
            return row["conditions"][column[len("cond."):]] or ""
        value = row[column]
        return "" if value is None else repr(value) if column == "value" else value

    def load_pair(self, tmp_path, twin, columns, newline="\n", blank=()):
        """The JSON twin, and the CSV of its measurements in ``columns``,
        with an empty line before each record number in ``blank``."""
        json_path = tmp_path / "twin.json"
        json_path.write_text(json.dumps(twin), encoding="utf-8")
        header = {key: twin[key] for key in ("schema", "objects", "measurands")}
        (tmp_path / "data.meta.json").write_text(json.dumps(header), encoding="utf-8")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator=newline)
        writer.writerow(columns)
        for n, row in enumerate(twin["measurements"], start=1):
            if n in blank:
                buf.write(newline)
            writer.writerow([self.cells(row, c) for c in columns])
        text = buf.getvalue() + (newline if len(twin["measurements"]) + 1 in blank else "")
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(text.encode("utf-8"))
        return load_dataset(json_path), load_dataset(csv_path)

    def test_permuted_columns(self, tmp_path):
        columns = ["cond.test_set", "value", "timestamp", "object", "cond.lab",
                   "source", "measurand"]
        twin, loaded = self.load_pair(tmp_path, self.TWIN, columns)
        assert loaded == twin

    def test_extra_unknown_column(self, tmp_path):
        twin = json.loads(json.dumps(self.TWIN))
        for n, row in enumerate(twin["measurements"]):
            row["notes"] = f"note {n}"
        columns = self.COLUMNS[:3] + ["notes"] + self.COLUMNS[3:]
        json_twin, loaded = self.load_pair(tmp_path, twin, columns)
        assert loaded == json_twin

    def test_no_source_column(self, tmp_path):
        twin = json.loads(json.dumps(self.TWIN))
        for row in twin["measurements"]:
            del row["source"]
        columns = [c for c in self.COLUMNS if c != "source"]
        json_twin, loaded = self.load_pair(tmp_path, twin, columns)
        assert loaded == json_twin
        assert {m.source for m in loaded.measurements} == {""}

    def test_timestamp_column(self, tmp_path):
        json_twin, loaded = self.load_pair(tmp_path, self.TWIN, self.COLUMNS)
        assert loaded == json_twin
        assert [m.timestamp and m.timestamp.isoformat() for m in loaded.measurements] == \
            ["2021-03-04", None, "2022-12-31"]

    def test_blank_lines_mid_file_and_at_end(self, tmp_path):
        json_twin, loaded = self.load_pair(tmp_path, self.TWIN, self.COLUMNS, blank=(2, 3, 4))
        assert loaded == json_twin
        assert (tmp_path / "data.csv").read_text(encoding="utf-8").endswith("\n\n")

    def test_crlf_line_endings(self, tmp_path):
        json_twin, loaded = self.load_pair(tmp_path, self.TWIN, self.COLUMNS,
                                           newline="\r\n", blank=(2, 4))
        assert loaded == json_twin
        assert b"\r\n\r\n" in (tmp_path / "data.csv").read_bytes()

    def test_bad_row_after_a_blank_line_names_its_line(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("object,measurand,value\nA,M,1.0\n\nA,M,high\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}:4: could not convert string to float: 'high'"


class TestSaveErrors:
    @pytest.mark.parametrize("name", ["data.json", "data.csv"])
    @pytest.mark.parametrize("field", ["source", "display_name", "last_source"])
    def test_unencodable_text_leaves_existing_files(self, ds, tmp_path, name, field,
                                                    monkeypatch):
        path = tmp_path / name
        save_dataset(ds, path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        if field == "source":  # in the data file
            bad = ds._replace(measurements=(ds.measurements[0]._replace(source="x\ud800"),)
                              + ds.measurements[1:])
        elif field == "last_source":  # in the data file's last block, after 115 others
            monkeypatch.setattr(qrakit.io, "_BLOCK", 1)
            bad = ds._replace(measurements=ds.measurements[:-1]
                              + (ds.measurements[-1]._replace(source="x\ud800"),))
        else:  # in the CSV sidecar, which is written after the data file
            bad = ds._replace(objects=(ds.objects[0]._replace(display_name="x\ud800"),)
                              + ds.objects[1:])
        written = path if field != "display_name" or name == "data.json" else \
            tmp_path / "data.meta.json"
        with pytest.raises(EncodeError) as exc:
            save_dataset(bad, path)
        assert str(exc.value) == f"{written}: cannot write '\\ud800': surrogates not allowed"
        assert exc.value.exit_code == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("name", ["data.json", "data.csv"])
    @pytest.mark.parametrize("label", [5, 0, ("x",)], ids=["int", "zero", "tuple"])
    def test_non_string_label_leaves_existing_files(self, ds, tmp_path, name, label):
        """The readers refuse such a label, and CSV would reload 5 as "5" and 0 as
        Unknown, so no measurement can hold one: there is no dataset to save."""
        path = tmp_path / name
        save_dataset(ds, path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        m = ds.measurements[2]
        assert_refused(m, TypeError, "condition label must be a string or null, "
                       f"not {type(label).__name__}", labels=m.labels[:-1] + (label,))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("name", ["data.json", "data.csv"])
    def test_empty_label_leaves_existing_files(self, ds, tmp_path, name):
        """Both readers load "" as Unknown, so two rows labelled "" would
        assess as AllSame before a save and as HasUnknown after it."""
        path = tmp_path / name
        save_dataset(ds, path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        m = ds.measurements[2]
        assert_refused(m, ValueError, "known condition labels must be non-empty",
                       labels=m.labels[:-1] + ("",))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_unopenable_sidecar_leaves_the_old_csv(self, ds, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        before = path.read_bytes()
        sidecar = tmp_path / "data.meta.json"
        sidecar.unlink()
        sidecar.mkdir()
        with pytest.raises(OSError):
            save_dataset(ds._replace(measurements=ds.measurements[:10]), path)
        assert path.read_bytes() == before

    def test_unopenable_sidecar_leaves_no_new_csv(self, ds, tmp_path):
        """A CSV that loads without its sidecar has no declared scales, so its
        (PASS, Clarity) CV* would be 11.022 where the dataset's is 13.240."""
        (tmp_path / "data.meta.json").mkdir()
        with pytest.raises(OSError):
            save_dataset(ds, tmp_path / "data.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["data.meta.json"]

    def test_lone_surrogate_in_a_sidecar(self, ds, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        sidecar = tmp_path / "data.meta.json"
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(text.replace('"unit": "', '"unit": "\\udfff', 1), encoding="utf-8")
        with pytest.raises(ParseError, match=r"data\.meta\.json: a JSON string holds the "
                                              r"lone surrogate '\\udfff'$"):
            load_dataset(path)


class TestConditionRule:
    """``Measurement`` holds the one rule for conditions, so every dataset that
    can be built assesses, renders and round-trips through both formats alike."""

    SCHEMA = ConditionSchema(conditions=(("lab", OBJECT_CONDITION),
                                         ("test_set", MEASUREMENT_PROCEDURE)))
    DECLARED = dict(objects=(ObjectRef("a", "a"), ObjectRef("b", "b")),
                    measurands=(Measurand("score", "score", "score"),))

    @staticmethod
    def calls(dataset):
        """Each pair's condition verdicts and QRA call."""
        return {pair: (diff.verdicts, classify(diff)) for pair, diff in (
            (pair, condition_diff(members, dataset.schema))
            for pair, members in dataset.index.groups.items())}

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 20),
                              st.lists(st.one_of(st.none(), st.just(""), st.just(UNKNOWN),
                                                 st.integers(-2, 2), label_text),
                                       min_size=2, max_size=2)),
                    min_size=4, max_size=12))
    def test_what_constructs_renders_and_round_trips(self, rows):
        built = []
        for obj, value, labels in rows:
            with contextlib.suppress(TypeError, ValueError):
                built.append(Measurement(obj, "score", value, self.SCHEMA.names, labels))
        dataset = QraDataset(self.SCHEMA, measurements=built, **self.DECLARED)
        assume(any(len(members) > 1 for members in dataset.index.groups.values()))
        reports, _ = assess_all(dataset)
        for fmt in render.FORMATS:
            assert isinstance(render.render_reports(reports, render.RenderSpec(fmt), True), str)
        before = self.calls(dataset)
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("data.json", "data.csv"):
                save_dataset(dataset, Path(tmp) / name)
                assert self.calls(load_dataset(Path(tmp) / name)) == before

    @pytest.mark.parametrize("label", [UNKNOWN, ConditionValue("x")])
    def test_a_condition_value_is_no_label(self, label):
        m = make_measurement("a", "score", 1.0, {"lab": "x"}, schema=self.SCHEMA)
        assert_refused(m, TypeError, "condition label must be a string or null, "
                       "not ConditionValue", labels=(label, None))

    def test_unknown_reads_as_unknown_in_make_measurement(self):
        rows = [make_measurement("a", "score", v, {"lab": UNKNOWN, "test_set": "t"},
                                 schema=self.SCHEMA) for v in (1.0, 2.0)]
        report = run_qra_test(QraDataset(self.SCHEMA, measurements=rows, **self.DECLARED),
                              "a", "score")
        assert report.diff.verdicts == {"lab": HAS_UNKNOWN, "test_set": ALL_SAME}
        assert report.classification == INDETERMINATE

    def test_empty_name_is_refused(self):
        m = make_measurement("a", "score", 1.0, schema=self.SCHEMA)
        assert_refused(m, ValueError, "condition name must be non-empty", names=("", "z"))

    @pytest.mark.parametrize("name", ["data.json", "data.csv"])
    def test_a_str_subclass_constructs_saves_and_reloads(self, tmp_path, name):
        class Label(str):
            pass

        rows = tuple(Measurement("a", "score", v, self.SCHEMA.names, (Label("x"), Label("y")))
                     for v in (1.0, 2.0))
        dataset = QraDataset(self.SCHEMA, measurements=rows, **self.DECLARED)
        save_dataset(dataset, tmp_path / name)
        loaded = load_dataset(tmp_path / name)
        assert loaded == dataset
        assert {type(label) for m in loaded.measurements for label in m.labels} == {str}


class Text(str):
    """A str subclass: ``Measurement``'s exact-type tests leave it to the full checks."""


class Real(float):
    pass


def built(m, **changes):
    """What ``Measurement(...)``, ``_make`` and ``_replace`` build for ``m`` with ``changes``."""
    fields = m._asdict() | changes
    return [Measurement(**fields), Measurement._make(fields.values()), m._replace(**changes)]


class TestRowRuleFallbacks:
    """``Measurement`` passes a field of the usual exact type on one test, and any
    other value to the full checks, so these rows are built or refused as those
    checks decide."""

    ROW = Measurement("a", "score", 1.0, ("lab", "test_set"), ("x", None), "paper", None)

    @pytest.mark.parametrize("field", ["object", "measurand", "source"])
    def test_a_str_subclass_is_stored_as_it_is(self, field):
        value = Text("z")
        for m in built(self.ROW, **{field: value}):
            assert getattr(m, field) is value and m == self.ROW._replace(**{field: "z"})

    def test_a_str_subclass_name_and_label_are_stored_as_they_are(self):
        name, label = Text("lab"), Text("x")
        for m in built(self.ROW, names=(name, "test_set"), labels=(label, None)):
            assert m.names[0] is name and m.labels[0] is label and m == self.ROW

    @pytest.mark.parametrize("field, error, message", [
        ("object", ValueError, "object id must be non-empty"),
        ("measurand", ValueError, "measurand id must be non-empty"),
        ("names", ValueError, "condition name must be non-empty"),
        ("labels", ValueError, "known condition labels must be non-empty"),
    ])
    def test_an_empty_str_subclass_is_refused(self, field, error, message):
        empty = Text("")
        value = {"names": ("lab", empty), "labels": (empty, None)}.get(field, empty)
        assert_refused(self.ROW, error, message, **{field: value})

    @pytest.mark.parametrize("value", [7, Real(2.5), -0.0, 10**20], ids=["int", "float_subclass",
                                                                       "minus_zero", "big_int"])
    def test_a_number_is_stored_as_a_float(self, value):
        for m in built(self.ROW, value=value):
            assert type(m.value) is float and m.value == float(value)
            assert math.copysign(1.0, m.value) == math.copysign(1.0, value)

    @pytest.mark.parametrize("value", [True, False, "5", Text("5")], ids=["true", "false",
                                                                          "str", "str_subclass"])
    def test_a_bool_or_a_str_value_is_refused(self, value):
        assert_refused(self.ROW, TypeError,
                       f"value must be a number, not {type(value).__name__}", value=value)

    def test_lists_are_stored_as_tuples(self):
        for m in built(self.ROW, names=["lab", "test_set"], labels=["x", None]):
            assert type(m.names) is tuple and type(m.labels) is tuple and m == self.ROW

    @pytest.mark.parametrize("name, error, message", [
        (5, TypeError, "condition name must be a string, not int"),
        ("", ValueError, "condition name must be non-empty"),
    ])
    def test_a_bad_names_tuple_is_refused_every_time(self, name, error, message):
        names = ("lab", name)
        for _ in range(2):  # a row with good names is built in between
            assert Measurement("a", "score", 1.0, self.ROW.names, ("x", None), "paper") == self.ROW
            assert_refused(self.ROW, error, message, names=names)

    def test_the_labels_of_every_row_are_checked(self):
        names = default_condition_schema().names  # checked once, then not walked again
        m = Measurement("a", "score", 1.0, names, (None,) * 7)
        assert_refused(m, TypeError, "condition label must be a string or null, not int",
                       labels=(5,) + (None,) * 6)
        assert_refused(m, ValueError, "known condition labels must be non-empty",
                       labels=(None,) * 6 + ("",))
        assert_refused(m, ValueError, "6 labels for 7 condition names", labels=(None,) * 6)


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

    # a document that loads, and, for a value put at a path in it, the error it raises;
    # more cases, as files, in tests/data/bad/
    BASE = {"schema": {"conditions": [{"name": "lab", "category": "object_condition"},
                                      {"name": "test_set", "category": "measurement_procedure"}]},
            "objects": [{"id": "A"}, {"id": "B"}], "measurands": [{"id": "M"}],
            "measurements": [{"object": "A", "measurand": "M", "value": 2.0},
                             {"object": "A", "measurand": "M", "value": 1.0}]}
    BAD_DOCUMENTS = [
        (("schema",), [], "'schema' is not a JSON object"),
        (("schema", "conditions"), {"id": "A"}, "'conditions' is not a JSON array"),
        (("schema", "conditions", 1), "a", "conditions entry 2 is not a JSON object"),
        (("schema", "conditions", 0, "name"), "", "condition name must be non-empty"),
        (("objects",), {"id": "A"}, "'objects' is not a JSON array"),
        (("objects", 1), ["B"], "objects entry 2 is not a JSON object"),
        (("measurands",), {"id": "A"}, "'measurands' is not a JSON array"),
        (("measurements",), {"id": "A"}, "'measurements' is not a JSON array"),
        (("measurements", 1), ["A", "M", 1.0], "measurement 2: not a JSON object"),
        (("measurements", 1, "conditions"), "abc",
         "measurement 2: conditions is not a JSON object"),
        (("measurements", 1, "conditions"), ["a"],
         "measurement 2: conditions is not a JSON object"),
        (("measurements", 1, "value"), True, "measurement 2: value must be a number, not bool"),
        (("measurements", 1, "value"), False, "measurement 2: value must be a number, not bool"),
        (("measurements", 1, "value"), "12.5", "measurement 2: value must be a number, not str"),
        (("measurements", 1, "value"), "NaN", "measurement 2: value must be a number, not str"),
        (("measurements", 1, "value"), "", "measurement 2: value must be a number, not str"),
        *((("measurements", 1, "source"), source,
           f"measurement 2: source must be a string or null, not {name}")
          for source, name in ((5, "int"), (0, "int"), (False, "bool"), (1.5, "float"),
                               ([1], "list"), ({}, "dict"))),
        *((("measurements", 1, "timestamp"), timestamp,
           f"measurement 2: timestamp must be a string or null, not {name}")
          for timestamp, name in ((0, "int"), (False, "bool"), ([], "list"), ({}, "dict"),
                                  (1.5, "float"))),
    ]

    def edited(self, path, value):
        """A copy of BASE with value put at path."""
        doc = copy.deepcopy(self.BASE)
        *parents, key = path
        functools.reduce(operator.getitem, parents, doc)[key] = value
        return doc

    @pytest.mark.parametrize("path, value, message", BAD_DOCUMENTS, ids=[
        f"{'.'.join(map(str, path))}={value!r}" for path, value, _ in BAD_DOCUMENTS])
    def test_bad_document(self, path, value, message):
        with pytest.raises(ParseError) as exc:
            dataset_from_obj(self.edited(path, value))
        assert (type(exc.value), str(exc.value)) == (ParseError, message)

    def test_declaration_defaults(self):
        # an unknown key is ignored; the file's defaults, then the constructor's, fill the rest
        obj = {"schema": {"conditions": []}, "objects": [{"id": "A", "notes": "x"}],
               "measurands": [{"id": "M"}], "measurements": []}
        ds = dataset_from_obj(obj)
        assert ds.objects == (ObjectRef("A", "A", None),)
        assert ds.measurands == (Measurand("M", "M", "", 0.0, None, "continuous"),)

    @pytest.mark.parametrize("timestamp, day", [
        (None, None), ("", None), ("2022-05-01", datetime.date(2022, 5, 1))])
    def test_json_timestamp_text(self, timestamp, day):
        ds = dataset_from_obj(self.edited(("measurements", 1, "timestamp"), timestamp))
        assert ds.measurements[1].timestamp == day

    def test_integer_bounds_save_as_floats(self, tmp_path):
        obj = self.edited(("measurands", 0), {"id": "M", "scale_min": 1, "scale_max": 7})
        path = tmp_path / "int.json"
        save_dataset(dataset_from_obj(obj), path)
        text = path.read_text()
        assert '"scale_min": 1.0,' in text and '"scale_max": 7.0,' in text

    @pytest.mark.parametrize("rows, message", [
        ("A,M,1.0\nA,M,1.0,9,10,11\n", "plain.csv:3: row has 6 cells, header has 3"),
        ('A,M,1.0\n"A\nB"\n', "plain.csv:4: row has 1 cells, header has 3"),
    ])
    def test_csv_row_with_the_wrong_number_of_cells(self, tmp_path, rows, message):
        path = tmp_path / "plain.csv"
        path.write_text("object,measurand,value\n" + rows)
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{tmp_path}/{message}"

    def test_csv_without_sidecar(self, tmp_path):
        # the schema comes from the header, each category the default
        # schema's, else measurement_procedure; objects and measurands from
        # the rows, in first-appearance order
        path = tmp_path / "plain.csv"
        path.write_text("object,measurand,value,cond.test_set,cond.lab,cond.system_code\n"
                        "B,M2,1.0,wmt,x,s1\nA,M1,2.0,,y,\nB,M1,3.0,wmt,,s1\n")
        ds = load_dataset(path)
        assert [o.id for o in ds.objects] == ["B", "A"]
        assert [m.id for m in ds.measurands] == ["M2", "M1"]
        assert ds.schema.conditions == (("test_set", "measurement_procedure"),
                                        ("lab", "measurement_procedure"),
                                        ("system_code", "object_condition"))
        assert [m.labels for m in ds.measurements] == [
            ("wmt", "x", "s1"), (None, "y", None), ("wmt", None, "s1")]

    @pytest.mark.parametrize("sidecar", [False, True], ids=["cond-column", "sidecar"])
    def test_empty_condition_name_is_a_parse_error(self, tmp_path, sidecar):
        # one header reader: a bare cond. column and a sidecar entry with an
        # empty name are the same fault, reported alike in the file that holds it
        path = tmp_path / "plain.csv"
        if sidecar:
            path.write_text("object,measurand,value\nA,M,1.0\n")
            where = path.with_suffix(".meta.json")
            where.write_text(json.dumps({
                "schema": {"conditions": [{"name": "", "category": "object_condition"}]},
                "objects": [{"id": "A"}], "measurands": [{"id": "M"}]}))
        else:
            path.write_text("object,measurand,value,cond.\nA,M,1.0,x\n")
            where = path
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{where}: condition name must be non-empty"

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
        for call, what in ((lambda: load_dataset(path),
                            "cannot infer the format from extension '.xlsx'"),
                           (lambda: load_dataset(path, fmt="xlsx"), "unknown format 'xlsx'"),
                           (lambda: save_dataset(ds, path, fmt="xlsx"), "unknown format 'xlsx'")):
            with pytest.raises(SchemaError) as exc:
                call()
            assert str(exc.value) == f"{path}: {what}; give its format, one of csv, json"


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

    def test_condition_not_in_schema_is_warning(self):
        schema = default_condition_schema()
        rows = [make_measurement("sys", "score", v, {name: "x" for name in schema.names}
                                 | {"lab": "L"}) for v in (1.0, 2.0)]
        issues = validate_dataset(self.make(rows))
        assert [(i.severity, i.location, i.message) for i in issues] == [
            ("warning", f"measurement {n} (sys, score)",
             "conditions ['lab'] are not in the schema; not saved") for n in (1, 2)]

    def test_non_string_condition_name_is_one_error(self):
        # no row holds one, so validate_dataset never sorts mixed names
        m = make_measurement("sys", "score", 1.0, schema=default_condition_schema())
        assert_refused(m, TypeError, "condition name must be a string, not int",
                       names=(5,) + m.names[1:])
        assert validate_dataset(self.make([m, m._replace(value=2.0)])) == []

    def test_every_issue_in_order(self):
        schema = ConditionSchema(conditions=(("lab", OBJECT_CONDITION),
                                             ("test_set", MEASUREMENT_PROCEDURE)))
        copied = tuple(list(schema.names))
        assert copied == schema.names and copied is not schema.names

        def built(obj, measurand, value):
            return make_measurement(obj, measurand, value, {"lab": "x"}, schema=schema)

        measurements = (
            built("A", "M", 5.0),
            Measurement("A", "M", 6.0, copied, ("x", None)),
            built("ghost", "M", 5.0),
            built("A", "nope", 5.0),
            built("ghost", "nope", float("nan")),
            built("A", "M", float("nan")),
            built("A", "M", float("inf")),
            built("A", "N", 0.5),
            built("A", "M", 11.0),
            make_measurement("A", "M", 5.0, {"lab": "x"}),
            make_measurement("A", "M", 5.0, {"lab": "x", "test_set": "t", "room": "r",
                                             "bench": "b"}),
            make_measurement("B", "N", 2.0, {"room": "r"}),
            make_measurement("A", "M", -float("inf"), {"test_set": "t", "room": "r"}),
            Measurement("A", "M", 12.0, copied, ("x", None)),
        )
        dataset = QraDataset(
            schema=schema,
            objects=(ObjectRef("A", "A"), ObjectRef("B", "B"), ObjectRef("A", "again")),
            measurands=(Measurand("M", "M", "", scale_max=10.0), Measurand("N", "N", "", 1.0),
                        Measurand("N", "N", ""), Measurand("M", "M", "")),
            measurements=measurements,
        )
        issues = [(i.severity, i.location, i.message) for i in validate_dataset(dataset)]
        assert issues == [
            ("error", "A", "duplicate object id"),
            ("error", "M", "duplicate measurand id"),
            ("error", "N", "duplicate measurand id"),
            ("error", "measurement 3 (ghost, M)", "references undeclared object 'ghost'"),
            ("error", "measurement 4 (A, nope)", "references undeclared measurand 'nope'"),
            ("error", "measurement 5 (ghost, nope)", "references undeclared object 'ghost'"),
            ("error", "measurement 5 (ghost, nope)", "references undeclared measurand 'nope'"),
            ("error", "measurement 6 (A, M)", "value nan is not a finite number"),
            ("error", "measurement 7 (A, M)", "value inf is not a finite number"),
            ("error", "measurement 8 (A, N)", "value 0.5 below scale minimum 1.0"),
            ("error", "measurement 9 (A, M)", "value 11.0 above scale maximum 10.0"),
            ("warning", "measurement 10 (A, M)",
             "no entry for conditions ['test_set']; treated as Unknown"),
            ("warning", "measurement 11 (A, M)",
             "conditions ['bench', 'room'] are not in the schema; not saved"),
            ("warning", "measurement 12 (B, N)",
             "no entry for conditions ['lab', 'test_set']; treated as Unknown"),
            ("warning", "measurement 12 (B, N)",
             "conditions ['room'] are not in the schema; not saved"),
            ("error", "measurement 13 (A, M)", "value -inf is not a finite number"),
            ("warning", "measurement 13 (A, M)",
             "no entry for conditions ['lab']; treated as Unknown"),
            ("warning", "measurement 13 (A, M)",
             "conditions ['room'] are not in the schema; not saved"),
            ("error", "measurement 14 (A, M)", "value 12.0 above scale maximum 10.0"),
            ("warning", "(ghost, M)",
             "only one measurement; pair is not assessable (n >= 2 required)"),
            ("warning", "(A, nope)",
             "only one measurement; pair is not assessable (n >= 2 required)"),
            ("warning", "(ghost, nope)",
             "only one measurement; pair is not assessable (n >= 2 required)"),
            ("warning", "(A, N)",
             "only one measurement; pair is not assessable (n >= 2 required)"),
            ("warning", "(B, N)",
             "only one measurement; pair is not assessable (n >= 2 required)"),
        ]
        # names equal to the schema's, in another tuple, validate as built ones
        rebuilt = dataset._replace(measurements=tuple(
            m._replace(names=schema.names) if m.names is copied else m
            for m in measurements))
        assert validate_dataset(rebuilt) == validate_dataset(dataset)
