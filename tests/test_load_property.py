"""Nothing loads silently wrong: a document with odd leaves either loads into
typed fields and gives finite statistics, or ends in one ``error:`` line.

Each document is a small slice of the bundled dataset with one to three
leaves replaced by values from a fixed palette, written as JSON or as CSV
with its sidecar, and run through ``qra assess --render json --conditions``
and ``qra validate``.
"""
import contextlib
import copy
import csv
import datetime
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from qrakit.cli import main
from qrakit.errors import QraError
from qrakit.io import (
    bundled_paper_dataset,
    dataset_from_obj,
    dataset_to_obj,
    load_dataset,
    save_dataset,
)

PALETTE = [None, True, False, 0, -1, 1e308, -1e308, math.inf, -math.inf, math.nan,
           "", "x", "0", [], {}, [1], {"a": 1}, 2**70, "2021-13-45", "2021-05-01",
           1.5, "NaN"]

# The JSON types a field of a document that loads may hold (a bool is no
# number). A condition label, a string or null, is keyed by its condition's
# name, and is read only when the loaded schema declares that name.
NUMBER, TEXT, NULL = (int, float), (str,), (type(None),)
FIELD_TYPES = {
    "value": NUMBER, "scale_min": NUMBER, "scale_max": NUMBER + NULL,
    "timestamp": TEXT + NULL, "source": TEXT + NULL, "description": TEXT + NULL,
    **dict.fromkeys(("id", "object", "measurand", "name", "category", "value_kind",
                     "display_name", "unit"), TEXT),
}


def base_document() -> dict:
    """Two assessable pairs of the bundled dataset, one row with a timestamp."""
    obj = dataset_to_obj(bundled_paper_dataset())
    objects, measurands = {"NTS_def", "PASS"}, {"BLEU", "Clarity"}
    obj["objects"] = [o for o in obj["objects"] if o["id"] in objects]
    obj["measurands"] = [m for m in obj["measurands"] if m["id"] in measurands]
    obj["measurements"] = [m for m in obj["measurements"]
                           if (m["object"], m["measurand"]) in {("NTS_def", "BLEU"),
                                                                ("PASS", "Clarity")}]
    obj["measurements"][0]["timestamp"] = "2022-05-01"
    return obj


def base_csv(obj: dict):
    """The rows of ``obj`` saved as CSV, and its sidecar's JSON object."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.csv"
        save_dataset(dataset_from_obj(obj), path)
        rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
        return rows, json.loads(path.with_suffix(".meta.json").read_text(encoding="utf-8"))


def leaf_paths(node, path=()):
    """The key path of every leaf, an empty container counting as one."""
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(child, (dict, list)) and child:
            yield from leaf_paths(child, path + (key,))
        else:
            yield path + (key,)


def at(node, path):
    for key in path:
        node = node[key]
    return node


def replaced(node, edits):
    """A copy of ``node`` with the leaf at each path of ``edits`` replaced."""
    node = copy.deepcopy(node)
    for path, value in edits:
        at(node, path[:-1])[path[-1]] = copy.deepcopy(value)
    return node


def cell(value) -> str:
    """A palette value as CSV text: a string as is, null as empty, else JSON."""
    if isinstance(value, str):
        return value
    return "" if value is None else json.dumps(value)


BASE = base_document()
BASE_ROWS, BASE_META = base_csv(BASE)


def edits(paths):
    return st.lists(st.tuples(st.sampled_from(paths), st.sampled_from(PALETTE)),
                    min_size=1, max_size=3)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def json_leaves(text: str):
    """Every leaf of the JSON documents printed one after another in ``text``."""
    decoder, at, nodes = json.JSONDecoder(), 0, []
    while at < len(text):
        node, at = decoder.raw_decode(text, at)
        nodes.append(node)
        at = len(text) - len(text[at:].lstrip())
    while nodes:
        node = nodes.pop()
        if isinstance(node, (dict, list)):
            nodes.extend(node.values() if isinstance(node, dict) else node)
        else:
            yield node


def assert_typed(dataset):
    for o in dataset.objects:
        assert type(o.id) is type(o.display_name) is str
        assert o.description is None or type(o.description) is str
    for m in dataset.measurands:
        assert type(m.id) is type(m.display_name) is type(m.unit) is str
        assert type(m.scale_min) is float and math.isfinite(m.scale_min)
        assert m.scale_max is None or (type(m.scale_max) is float
                                       and math.isfinite(m.scale_max))
    for m in dataset.measurements:
        assert type(m.object) is type(m.measurand) is type(m.source) is str
        assert type(m.value) is float and math.isfinite(m.value)
        assert m.timestamp is None or type(m.timestamp) is datetime.date
        assert m.names is dataset.schema.names
        assert all(label is None or type(label) is str for label in m.labels)


def assert_ends_well(path, doc, changes):
    """Exit 0 with finite statistics, or one error line; a document that
    loads has typed fields, each read from a leaf of its field's JSON type."""
    code, out, err = run("assess", "--input", str(path), "--render", "json", "--conditions")
    if code:
        assert code in (1, 2, 3) and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    else:
        assert err == ""
        # a null is an Unknown label in a condition matrix
        for leaf in json_leaves(out):
            assert leaf is None or isinstance(leaf, str) or math.isfinite(leaf), leaf
    try:
        dataset = load_dataset(path)
    except QraError:
        assert code
    else:
        assert_typed(dataset)
        types = {**dict.fromkeys(dataset.schema.names, TEXT + NULL), **FIELD_TYPES}
        for key_path, _ in changes:
            if key_path[-1] in types:
                leaf = at(doc, key_path)
                assert isinstance(leaf, types[key_path[-1]]), (key_path, leaf)
                assert not isinstance(leaf, bool), (key_path, leaf)
    code, out, err = run("validate", "--input", str(path))
    if err:
        assert code in (1, 2, 3) and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    else:
        lines = out.splitlines()
        assert code == (0 if lines[-1].startswith("ok: ") else 1)
        assert all(line.startswith(("error: ", "warning: ")) for line in lines[:-1])


@settings(max_examples=80, deadline=None)
@given(edits(list(leaf_paths(BASE))))
def test_json_document(changes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        doc = replaced(BASE, changes)
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert_ends_well(path, doc, changes)


@settings(max_examples=80, deadline=None)
@given(edits([("rows", r, c) for r, row in enumerate(BASE_ROWS) for c in range(len(row))]
             + [("meta",) + path for path in leaf_paths(BASE_META)]))
def test_csv_document_with_sidecar(changes):
    doc = replaced({"rows": BASE_ROWS, "meta": BASE_META},
                   [(path, cell(value) if path[0] == "rows" else value)
                    for path, value in changes])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.csv"
        with path.open("w", encoding="utf-8", newline="") as f:
            csv.writer(f).writerows(doc["rows"])
        path.with_suffix(".meta.json").write_text(json.dumps(doc["meta"]), encoding="utf-8")
        assert_ends_well(path, doc, [c for c in changes if c[0][0] == "meta"])
