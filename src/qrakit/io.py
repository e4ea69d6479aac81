"""Dataset loading, saving and validation, plus the bundled fixture.

Two formats are supported. JSON mirrors the dataset types one-to-one and
is the lossless interchange format. CSV holds one measurement per row
(columns ``object``, ``measurand``, ``value``, ``source`` and one
``cond.<name>`` column per schema condition; an empty cond cell means
Unknown), with objects, measurands and the condition schema in a
``<name>.meta.json`` sidecar next to the data file.
"""
from __future__ import annotations

import csv
import datetime
import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ParseError, SchemaError, ValidationError
from .model import (
    ConditionSchema,
    Measurand,
    ObjectRef,
    QraDataset,
    UNKNOWN,
    default_condition_schema,
    make_measurement,
)

_RESERVED_COLUMNS = ("object", "measurand", "value", "source")
_COND_PREFIX = "cond."


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" or "warning"
    location: str
    message: str


def validate_dataset(dataset: QraDataset):
    """Check referential integrity and value/scale invariants.

    Returns all issues found; errors block assessment, warnings do not.
    """
    issues = []

    def err(location, message):
        issues.append(ValidationIssue("error", location, message))

    def warn(location, message):
        issues.append(ValidationIssue("warning", location, message))

    for declared, kind in ((dataset.objects, "object"), (dataset.measurands, "measurand")):
        counts = Counter(d.id for d in declared)
        for dup in sorted(i for i, n in counts.items() if n > 1):
            err(dup, f"duplicate {kind} id")

    index = dataset.index
    schema_names = set(dataset.schema.names)
    for row, m in enumerate(dataset.measurements, start=1):
        loc = f"measurement {row} ({m.object}, {m.measurand})"
        if m.object not in index.objects:
            err(loc, f"references undeclared object {m.object!r}")
        measurand = index.measurands.get(m.measurand)
        if measurand is None:
            err(loc, f"references undeclared measurand {m.measurand!r}")
            continue
        if not math.isfinite(m.value):
            err(loc, f"value {m.value} is not a finite number")
        elif m.value < measurand.scale_min:
            err(loc, f"value {m.value} below scale minimum {measurand.scale_min}")
        elif measurand.scale_max is not None and m.value > measurand.scale_max:
            err(loc, f"value {m.value} above scale maximum {measurand.scale_max}")
        missing = schema_names - {name for name, _ in m.conditions}
        if missing:
            warn(loc, f"no entry for conditions {sorted(missing)}; treated as Unknown")

    for (obj, meas), members in index.groups.items():
        if len(members) < 2:
            warn(f"({obj}, {meas})",
                 "only one measurement; pair is not assessable (n >= 2 required)")
    return issues


# ---------------------------------------------------------------- JSON

def dataset_to_obj(dataset: QraDataset) -> dict:
    return {
        "schema": {
            "conditions": [
                {"name": name, "category": category}
                for name, category in dataset.schema.conditions
            ]
        },
        "objects": [
            {"id": o.id, "display_name": o.display_name, "description": o.description}
            for o in dataset.objects
        ],
        "measurands": [
            {
                "id": m.id,
                "display_name": m.display_name,
                "unit": m.unit,
                "scale_min": m.scale_min,
                "scale_max": m.scale_max,
                "value_kind": m.value_kind,
            }
            for m in dataset.measurands
        ],
        "measurements": [
            {
                "object": m.object,
                "measurand": m.measurand,
                "value": m.value,
                "source": m.source,
                "timestamp": m.timestamp.isoformat() if m.timestamp else None,
                "conditions": {name: cv.label for name, cv in m.conditions},
            }
            for m in dataset.measurements
        ],
    }


@contextmanager
def _field_errors(where=""):
    """Report a missing field as SchemaError and a malformed one as ParseError."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{where}missing required field: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}{exc}") from exc


def _header_from_obj(obj: dict):
    """The schema, objects and measurands of a JSON dataset or CSV sidecar."""
    schema = ConditionSchema(conditions=tuple(
        (c["name"], c["category"]) for c in obj["schema"]["conditions"]
    ))
    objects = tuple(
        ObjectRef(id=o["id"], display_name=o.get("display_name", o["id"]),
                  description=o.get("description"))
        for o in obj["objects"]
    )
    measurands = tuple(
        Measurand(
            id=m["id"],
            display_name=m.get("display_name", m["id"]),
            unit=m.get("unit", ""),
            scale_min=float(m.get("scale_min", 0.0)),
            scale_max=None if m.get("scale_max") is None else float(m["scale_max"]),
            value_kind=m.get("value_kind", "continuous"),
        )
        for m in obj["measurands"]
    )
    return schema, objects, measurands


def dataset_from_obj(obj: dict) -> QraDataset:
    with _field_errors():
        schema, objects, measurands = _header_from_obj(obj)
        measurements = tuple(
            make_measurement(
                r["object"], r["measurand"], r["value"],
                conditions=r.get("conditions", {}),
                source=r.get("source", ""),
                timestamp=(datetime.date.fromisoformat(r["timestamp"])
                           if r.get("timestamp") else None),
                schema=schema,
            )
            for r in obj["measurements"]
        )
    return QraDataset(schema=schema, objects=objects,
                      measurands=measurands, measurements=measurements)


# ----------------------------------------------------------------- CSV

def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def _dataset_to_csv_rows(dataset: QraDataset):
    names = dataset.schema.names
    has_timestamp = any(m.timestamp for m in dataset.measurements)
    header = list(_RESERVED_COLUMNS)
    if has_timestamp:
        header.append("timestamp")
    header += [_COND_PREFIX + name for name in names]
    rows = [header]
    for m in dataset.measurements:
        row = [m.object, m.measurand, repr(m.value), m.source]
        if has_timestamp:
            row.append(m.timestamp.isoformat() if m.timestamp else "")
        cells = m.condition_map()
        row += [cells.get(name, UNKNOWN).label or "" for name in names]
        rows.append(row)
    return rows


def _dataset_from_csv(path: Path) -> QraDataset:
    meta_path = _meta_path(path)
    meta = None
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{meta_path}: {exc}") from exc

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file")
        fields = reader.fieldnames
        for col in ("object", "measurand", "value"):
            if col not in fields:
                raise SchemaError(f"{path}: missing required column {col!r}")
        cond_names = [f[len(_COND_PREFIX):] for f in fields
                      if f.startswith(_COND_PREFIX)]
        raw_rows = list(reader)
    if not raw_rows:
        raise ParseError(f"{path}: no measurement rows")

    if meta is not None:
        with _field_errors(f"{meta_path}: "):
            schema, objects, measurands = _header_from_obj(meta)
    else:
        # No sidecar: derive a minimal description from the rows themselves.
        default_categories = dict(default_condition_schema().conditions)
        schema = ConditionSchema(conditions=tuple(
            (name, default_categories.get(name, "measurement_procedure"))
            for name in cond_names
        ))
        objects = tuple(ObjectRef(id=o, display_name=o)
                        for o in dict.fromkeys(r["object"] for r in raw_rows))
        measurands = tuple(Measurand(id=m, display_name=m, unit="")
                           for m in dict.fromkeys(r["measurand"] for r in raw_rows))

    columns = [(name, _COND_PREFIX + name) for name in schema.names]
    measurements = []
    try:
        for lineno, r in enumerate(raw_rows, start=2):
            ts = r.get("timestamp")
            measurements.append(make_measurement(
                r["object"], r["measurand"], r["value"],
                conditions={name: r.get(column) for name, column in columns},
                source=r.get("source") or "",
                timestamp=datetime.date.fromisoformat(ts) if ts else None,
                schema=schema,
            ))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return QraDataset(schema=schema, objects=objects,
                      measurands=measurands, measurements=tuple(measurements))


# ------------------------------------------------------------- loading

def _resolve_format(path: Path, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".json":
        return "json"
    raise SchemaError(f"cannot infer format from extension {suffix!r}; "
                      "pass format='csv' or 'json'")


def load_dataset(path, fmt: str = "auto") -> QraDataset:
    """Load and validate a dataset; raises on parse or validation errors."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    fmt = _resolve_format(path, fmt)
    if fmt == "json":
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: "
                             f"{exc.msg}") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: top-level JSON value must be an object")
        dataset = dataset_from_obj(obj)
    elif fmt == "csv":
        dataset = _dataset_from_csv(path)
    else:
        raise SchemaError(f"unknown format {fmt!r}")
    errors = [i for i in validate_dataset(dataset) if i.severity == "error"]
    if errors:
        raise ValidationError(errors)
    return dataset


def save_dataset(dataset: QraDataset, path, fmt: str = "auto") -> None:
    """Write a dataset to disk; CSV also writes the .meta.json sidecar."""
    path = Path(path)
    fmt = _resolve_format(path, fmt)
    if fmt == "json":
        path.write_text(json.dumps(dataset_to_obj(dataset), indent=2,
                                   ensure_ascii=False) + "\n", encoding="utf-8")
    elif fmt == "csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(_dataset_to_csv_rows(dataset))
        obj = dataset_to_obj(dataset)
        meta = {k: obj[k] for k in ("schema", "objects", "measurands")}
        _meta_path(path).write_text(json.dumps(meta, indent=2, ensure_ascii=False)
                                    + "\n", encoding="utf-8")
    else:
        raise SchemaError(f"unknown format {fmt!r}")


def bundled_paper_dataset() -> QraDataset:
    """The packaged 116-measurement benchmark dataset (18 assessable pairs)."""
    text = (resources.files("qrakit") / "data" / "qra_benchmark.json").read_text(
        encoding="utf-8"
    )
    dataset = dataset_from_obj(json.loads(text))
    errors = [i for i in validate_dataset(dataset) if i.severity == "error"]
    if errors:  # packaging defect, not a user error
        raise ValidationError(errors)
    return dataset
