"""Dataset loading and saving, plus the bundled fixture.

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
import re
from io import StringIO
from operator import add, itemgetter, methodcaller
from pathlib import Path

from .errors import EncodeError, ParseError, QraError, SchemaError, ValidationError
from .model import (
    MEASUREMENT_PROCEDURE,
    ConditionSchema,
    Measurand,
    Measurement,
    ObjectRef,
    QraDataset,
    _check_declared,
    default_condition_schema,
    validate_dataset,
)

_RESERVED_COLUMNS = ("object", "measurand", "value", "source")
_COND_PREFIX = "cond."


# ---------------------------------------------------------------- JSON

def _header_to_obj(dataset: QraDataset) -> dict:
    """The schema, objects and measurands; all of a CSV sidecar."""
    return {
        "schema": {
            "conditions": [
                {"name": name, "category": category}
                for name, category in dataset.schema.conditions
            ]
        },
        # a declaration's field order is its JSON key order
        "objects": [o._asdict() for o in dataset.objects],
        "measurands": [m._asdict() for m in dataset.measurands],
    }


def dataset_to_obj(dataset: QraDataset) -> dict:
    obj = _header_to_obj(dataset)
    names = dataset.schema.names
    obj["measurements"] = [
        {"object": m.object, "measurand": m.measurand, "value": m.value, "source": m.source,
         "timestamp": m.timestamp.isoformat() if m.timestamp else None,
         "conditions": dict(zip(names, m.labels_in(names)))}
        for m in dataset.measurements
    ]
    return obj


# Every item of a list on its own line: JSON escapes each control character
# inside a string, so a raw newline in the text can only separate items.
_encode_lines = json.JSONEncoder(ensure_ascii=False, separators=("\n", ": ")).encode


def _header_text(dataset: QraDataset) -> str:
    return json.dumps(_header_to_obj(dataset), indent=2, ensure_ascii=False)


def _row_template(names) -> str:
    """One measurement of ``dataset_to_obj`` as ``json.dumps(indent=2)`` lays
    it out in the measurements list, with ``%s`` for each encoded leaf: object,
    measurand, value, source, timestamp, then one label per condition name."""
    conditions = ",\n".join(
        f"        {json.encoder.encode_basestring(name).replace('%', '%%')}: %s"
        for name in names)
    return ('    {\n      "object": %s,\n      "measurand": %s,\n      "value": %s,\n'
            '      "source": %s,\n      "timestamp": %s,\n      "conditions": '
            + ("{\n" + conditions + "\n      }" if names else "{}") + "\n    }")


# measurements built, encoded and held as text at a time by the writers; a
# block's transient objects take several times its text, so blocks stay small
_BLOCK = 256


def _blocks(measurements):
    return (measurements[i:i + _BLOCK] for i in range(0, len(measurements), _BLOCK))


def _dataset_to_json(dataset: QraDataset):
    """``json.dumps(dataset_to_obj(dataset), indent=2, ensure_ascii=False)`` and
    a newline, in pieces: the header, one per block of measurements, whose leaves
    json's C encoder encodes in one call, then the closing text."""
    # the header's text ends in "\n}"; the measurements go before it
    yield f'{_header_text(dataset)[:-2]},\n  "measurements": ['
    names = dataset.schema.names
    template, separator = _row_template(names), "\n"
    for block in _blocks(dataset.measurements):
        leaves = []
        for m in block:
            leaves += (m.object, m.measurand, m.value, m.source,
                       m.timestamp.isoformat() if m.timestamp else None)
            leaves += m.labels_in(names)
        yield (separator + ",\n".join([template] * len(block))
               % tuple(_encode_lines(leaves)[1:-1].split("\n")))
        separator = ",\n"
    yield "\n  ]\n}\n" if dataset.measurements else "]\n}\n"


_FIELD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)  # float(10**400)
# timestamp text on every Python; from 3.11 on, date.fromisoformat also reads 20200101 and 2020-W01-1
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch


def _field_error(where: str, exc: Exception) -> QraError:
    """Report a missing field as SchemaError and a malformed one as ParseError."""
    if isinstance(exc, KeyError):
        return SchemaError(f"{where}missing required field: {exc}")
    return ParseError(f"{where}{exc}")


# the encoding of every file read: UTF-8, less a byte order mark at its start
_ENCODING = "utf-8-sig"


def _read_text(path) -> str:
    """A file's text, decoded as ``_ENCODING`` with its newlines kept."""
    try:
        return path.read_bytes().decode(_ENCODING)
    except (OSError, UnicodeDecodeError) as exc:
        # strerror drops OSError's "[Errno N]" prefix; decode errors have none
        raise ParseError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _encode_error(path, exc: UnicodeEncodeError) -> EncodeError:
    return EncodeError(f"{path}: cannot write {exc.object[exc.start:exc.end]!r}: "
                       f"{exc.reason}")


# the only JSON text that decodes to a surrogate; a decoded UTF-8 file holds none
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _read_json(path) -> dict:
    """The JSON object in a data file or CSV sidecar."""
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too deep, or an integer over the digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    if _SURROGATE_ESCAPE.search(text):
        # a pair of escapes decodes to one character; a lone half cannot be
        # written back, so it is refused here rather than by the writer
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"{path}: a JSON string holds the lone surrogate "
                             f"{exc.object[exc.start:exc.end]!r}") from exc
    return obj


def _array(obj: dict, key: str, where: str) -> list:
    """``obj[key]``, which must be a JSON array; errors start with ``where``."""
    if key not in obj:
        raise SchemaError(f"{where}missing required field: {key!r}")
    if not isinstance(obj[key], list):
        raise ParseError(f"{where}{key!r} is not a JSON array")
    return obj[key]


def _entries(obj: dict, key: str, where: str) -> list:
    """``obj[key]``, which must be a JSON array of JSON objects."""
    entries = _array(obj, key, where)
    for n, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            raise ParseError(f"{where}{key} entry {n} is not a JSON object")
    return entries


def _declaration(cls, entry: dict, **file_defaults):
    """``cls`` from the fields ``entry`` names, then ``file_defaults``, then the
    constructor's own defaults; other keys are ignored."""
    return cls(**{**file_defaults, **{k: entry[k] for k in cls._fields if k in entry}})


def _header_from_obj(obj: dict, where: str):
    """The schema, objects and measurands of a JSON dataset or CSV sidecar;
    errors start with ``where``."""
    try:
        if not isinstance(obj["schema"], dict):
            raise ParseError(f"{where}'schema' is not a JSON object")
        schema = ConditionSchema(conditions=tuple(
            (c["name"], c["category"])
            for c in _entries(obj["schema"], "conditions", where)
        ))
        objects = tuple(_declaration(ObjectRef, o, display_name=o["id"])
                        for o in _entries(obj, "objects", where))
        measurands = tuple(_declaration(Measurand, m, display_name=m["id"], unit="")
                           for m in _entries(obj, "measurands", where))
    except _FIELD_ERRORS as exc:
        raise _field_error(where, exc) from exc
    return schema, objects, measurands


def _measurements(rows, schema: ConditionSchema, where) -> tuple:
    """One ``Measurement`` per row of ``(object, measurand, value, source,
    timestamp, raw_labels)``, one raw label per schema condition and the timestamp
    ISO text, or None or "" for none; errors start with ``where(n)`` for row n, from 1."""
    names = schema.names
    # two tables per load, of the first of equal ids and sources and of equal labels,
    # where "" and None are both Unknown; Measurement checks every cell
    share, label = {}.setdefault, {None: None, "": None}.setdefault
    measurements = []
    try:
        for obj, measurand, value, source, ts, raw in rows:
            if ts is not None and not isinstance(ts, str):
                raise TypeError(f"timestamp must be a string or null, not {type(ts).__name__}")
            if ts and not _ISO_DATE(ts):
                raise ValueError(f"Invalid isoformat string: {ts!r}")  # 3.10's own message
            ts = datetime.date.fromisoformat(ts) if ts else None
            try:
                obj, measurand, source = (share(obj, obj), share(measurand, measurand),
                                          share(source, source))
                labels = tuple(map(label, raw, raw))
            except TypeError:  # an unhashable cell, which Measurement refuses
                labels = tuple(None if cell == "" else cell for cell in raw)
            measurements.append(Measurement(obj, measurand, value, names, labels,
                                            source, ts))
    except _FIELD_ERRORS as exc:
        raise _field_error(where(len(measurements) + 1), exc) from exc
    return tuple(measurements)


def _json_rows(rows, names):
    """The ``_measurements`` row of each JSON measurement object."""
    unknown, declared = (None,) * len(names), frozenset(names)
    for r in rows:
        if not isinstance(r, dict):
            raise TypeError("not a JSON object")
        conditions = r.get("conditions")
        if conditions is None:
            raw = unknown
        elif isinstance(conditions, dict):
            _check_declared(conditions, declared)
            raw = list(map(conditions.get, names))
        else:
            raise TypeError("conditions is not a JSON object")
        yield (r["object"], r["measurand"], r["value"], r.get("source"), r.get("timestamp"),
               raw)


def _json_dataset(header: dict, elements, where: str) -> QraDataset:
    """The dataset of a JSON ``header`` and the measurement objects that
    ``elements()`` returns once the header is built; errors start with ``where``."""
    schema, objects, measurands = _header_from_obj(header, where)
    rows = _json_rows(elements(), schema.names)
    measurements = _measurements(rows, schema, lambda n: f"{where}measurement {n}: ")
    return QraDataset(schema=schema, objects=objects,
                      measurands=measurands, measurements=measurements)


def _dataset_from_obj(obj: dict, where: str) -> QraDataset:
    """``dataset_from_obj``; errors start with ``where``, the file's name."""
    return _json_dataset(obj, lambda: _array(obj, "measurements", where), where)


def dataset_from_obj(obj: dict) -> QraDataset:
    return _dataset_from_obj(obj, "")


# ---------------------------------------------------- streamed JSON load

# characters a streamed JSON load reads at a time, at least; a value longer
# than that doubles the read until it fits
_READ_BLOCK = 1 << 16
_HEADER_KEYS = frozenset(("schema", "objects", "measurands"))
_SKIP_WHITESPACE = json.decoder.WHITESPACE.match  # json's own: space, \t, \n, \r
# what ends a value: a delimiter, with json's whitespace around it
_DELIMITER = re.compile(r"[ \t\n\r]*([,:\]}])[ \t\n\r]*").match


class _Handoff(Exception):
    """A document the streamed reader leaves to the reference reader."""


class _JsonStream:
    """The text of an open text file, read in blocks, and a cursor into it that
    steps over one JSON value or delimiter at a time, and the whitespace after
    it; only the text from the cursor on is kept. Whatever is not a plain JSON
    document raises ``_Handoff``."""

    def __init__(self, file):
        self.file, self.text, self.at, self.eof = file, "", 0, False
        self.scan = json.JSONDecoder().scan_once  # what json.loads parses with

    def _more(self) -> None:
        """Drop the text before the cursor, then read as much again as is left,
        or a block, and skip the whitespace that the cursor is at."""
        if self.eof:
            raise _Handoff
        data = self.file.read(max(_READ_BLOCK, len(self.text) - self.at))
        self.eof = not data
        text = self.text[self.at:] + data
        if _SURROGATE_ESCAPE.search(text):
            raise _Handoff  # the reference reader decides
        self.text, self.at = text, _SKIP_WHITESPACE(text).end()

    def peek(self) -> str:
        """The character at the cursor."""
        while self.at == len(self.text):
            self._more()
        return self.text[self.at]

    def expect(self, chars: str) -> str:
        """The character at the cursor, which must be one of ``chars``."""
        char = self.peek()
        if char not in chars:
            raise _Handoff
        self.at = _SKIP_WHITESPACE(self.text, self.at + 1).end()
        return char

    def value(self, follow: str):
        """The JSON value at the cursor, decoded as ``json.loads`` decodes it,
        and the delimiter after it, which must be one of ``follow``."""
        while True:
            try:  # a value cut by the end of the text may raise either
                value, end = self.scan(self.text, self.at)
            except (StopIteration, ValueError, RecursionError):
                pass
            else:
                # "12" may be the start of "12.5": only a delimiter ends it
                after = _DELIMITER(self.text, end)
                if after:
                    if after[1] not in follow:
                        raise _Handoff
                    self.at = after.end()
                    return value, after[1]
            self._more()

    def elements(self):
        """The values of the JSON array at the cursor, one at a time."""
        self.expect("[")
        if self.peek() == "]":
            self.expect("]")
            return
        delimiter = ","
        while delimiter == ",":
            value, delimiter = self.value(",]")
            yield value

    def blank(self) -> bool:
        """Whether only whitespace is left."""
        while self.at == len(self.text) and not self.eof:
            self._more()
        return self.at == len(self.text)


def _streamed_dataset(stream: _JsonStream, where: str) -> QraDataset:
    """The dataset of a JSON object whose header keys all come before its
    ``measurements``, each measurement built as it is decoded."""
    stream.expect("{")
    header, dataset, delimiter = {}, None, ","
    while delimiter == ",":
        key, _ = stream.value(":")
        if not isinstance(key, str):
            raise _Handoff
        if key == "measurements":
            # before the header, or with a header key after them, the rows would
            # need a header not yet decoded; repeated, the last ones win
            if not _HEADER_KEYS <= header.keys():
                raise _Handoff
            dataset = _json_dataset(header, stream.elements, where)
            delimiter = stream.expect(",}")
        elif dataset is not None and key in _HEADER_KEYS:
            raise _Handoff
        else:  # a repeated key: the last one wins
            header[key], delimiter = stream.value(",}")
    if dataset is None or not stream.blank():
        raise _Handoff
    return dataset


# ----------------------------------------------------------------- CSV

def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def _csv_text(rows) -> str:
    text = StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue()


def _dataset_to_csv(dataset: QraDataset):
    """A dataset's CSV text in pieces: the header row, then one per block."""
    names = dataset.schema.names
    has_timestamp = any(m.timestamp for m in dataset.measurements)
    header = list(_RESERVED_COLUMNS)
    if has_timestamp:
        header.append("timestamp")
    # csv writes a float as its repr and None (Unknown) as ""
    reserved = itemgetter(*map(Measurement._fields.index, _RESERVED_COLUMNS))
    labels = methodcaller("labels_in", names)

    yield _csv_text([header + [_COND_PREFIX + name for name in names]])
    for block in _blocks(dataset.measurements):
        cells = map(reserved, block)
        if has_timestamp:
            cells = map(add, cells, [(m.timestamp.isoformat() if m.timestamp else "",)
                                     for m in block])
        yield _csv_text(map(add, cells, map(labels, block)))


def _dataset_from_csv(path: Path, meta, file) -> QraDataset:
    """The dataset of ``path``'s CSV text in ``file`` and its sidecar ``meta``."""
    reader = csv.reader(file)
    try:
        fields = next(reader, None)
        if fields is None:
            raise ParseError(f"{path}: empty file")
        repeated = next((f for f in fields if fields.count(f) > 1), None)
        if repeated is not None:
            raise SchemaError(f"{path}: repeated column {repeated!r}")
        for col in ("object", "measurand", "value"):
            if col not in fields:
                raise SchemaError(f"{path}: missing required column {col!r}")
        # no sidecar: the cond. columns are the schema, and the objects and
        # measurands come from the measurements, once they are built
        from_rows = meta is None
        declared_in = path if from_rows else _meta_path(path)
        if from_rows:
            categories = dict(default_condition_schema().conditions)
            meta = {"schema": {"conditions": [
                {"name": name, "category": categories.get(name, MEASUREMENT_PROCEDURE)}
                for name in (f[len(_COND_PREFIX):] for f in fields if f.startswith(_COND_PREFIX))
            ]}, "objects": [], "measurands": []}
        schema, objects, measurands = _header_from_obj(meta, f"{declared_in}: ")
        for name in schema.names:
            if _COND_PREFIX + name not in fields:
                raise SchemaError(f"{path}: no column {_COND_PREFIX + name!r} for "
                                  f"condition {name!r} declared in {declared_in}")
        undeclared = next((f for f in fields if f.startswith(_COND_PREFIX)
                           and f[len(_COND_PREFIX):] not in schema.names), None)
        if undeclared is not None:
            raise SchemaError(f"{path}: column {undeclared!r} names no condition "
                              f"declared in {declared_in}")
        column = {field: i for i, field in enumerate(fields)}
        source, timestamp = column.get("source"), column.get("timestamp")
        # a row's object, measurand and value cells, then one cell per condition
        cells = itemgetter(column["object"], column["measurand"], column["value"],
                           *(column[_COND_PREFIX + name] for name in schema.names))
        width = len(fields)

        def rows():
            for r in reader:
                if len(r) != width:
                    if not r:  # a blank line
                        continue
                    raise ValueError(f"row has {len(r)} cells, header has {width}")
                picked = cells(r)
                yield (picked[0], picked[1], float(picked[2]), "" if source is None else r[source],
                       None if timestamp is None else r[timestamp], picked[3:])

        # a row is reported at the line on which its record ends
        measurements = _measurements(rows(), schema, lambda _: f"{path}:{reader.line_num}: ")
    except csv.Error as exc:  # no line: line_num may not have reached the bad line
        raise ParseError(f"{path}: {exc}") from exc
    if from_rows:
        objects = tuple(ObjectRef(id=o, display_name=o)
                        for o in dict.fromkeys(m.object for m in measurements))
        measurands = tuple(Measurand(id=m, display_name=m, unit="")
                           for m in dict.fromkeys(m.measurand for m in measurements))
    return QraDataset(schema=schema, objects=objects,
                      measurands=measurands, measurements=measurements)


# ------------------------------------------------------------- loading

FORMATS = ("csv", "json")  # of a dataset file


def _resolve_format(path: Path, fmt: str) -> str:
    suffix = path.suffix.lower()
    name = suffix[1:] if fmt == "auto" else fmt
    if name not in FORMATS:
        what = (f"cannot infer the format from extension {suffix!r}" if fmt == "auto"
                else f"unknown format {fmt!r}")
        raise SchemaError(f"{path}: {what}; give its format, one of {', '.join(FORMATS)}")
    return name


def _read_dataset(path, fmt: str = "auto") -> QraDataset:
    """A dataset file, parsed, not validated, as it is read. On any fault it is
    read again whole by the reference reader, which gives the dataset or error
    a whole-file read gives: a bad byte anywhere in the file comes first. What
    is not a regular file, such as a pipe, cannot be read twice: the reference
    reader alone reads it, once."""
    path = Path(path)
    where = f"{path}: "
    is_csv = _resolve_format(path, fmt) == "csv"
    # a sidecar is read whole, and before its data file, in either read
    meta = _read_json(_meta_path(path)) if is_csv and _meta_path(path).exists() else None
    try:
        if not path.is_file():
            raise _Handoff
        with path.open(encoding=_ENCODING, newline="") as file:
            if is_csv:
                return _dataset_from_csv(path, meta, file)
            return _streamed_dataset(_JsonStream(file), where)
    except (OSError, UnicodeDecodeError, _Handoff, QraError):
        pass  # leaves the handler, and with it the text read so far, before the re-read
    if is_csv:
        return _dataset_from_csv(path, meta, StringIO(_read_text(path), newline=""))
    return _dataset_from_obj(_read_json(path), where)


def load_dataset(path, fmt: str = "auto") -> QraDataset:
    """Load and validate a dataset; raises on parse or validation errors."""
    path = Path(path)  # every error names the file as the parse errors do
    dataset = _read_dataset(path, fmt)
    errors = [i._replace(location=f"{path}: {i.location}")
              for i in validate_dataset(dataset) if i.severity == "error"]
    if errors:
        raise ValidationError(errors)
    return dataset


def _write(files) -> None:
    """Write each ``(path, text pieces)`` of ``files`` as UTF-8. All text is
    encoded, and each file after the first opened, before any file is truncated,
    so a failure leaves existing files as they were. The first file, which may
    be a pipe or a device, is opened once."""
    encoded = []
    for path, pieces in files:
        try:
            encoded.append((path, [text.encode("utf-8") for text in pieces]))
        except UnicodeEncodeError as exc:
            raise _encode_error(path, exc) from exc
    for path, _ in encoded[1:]:
        Path(path).open("ab").close()  # creates a missing file, truncates none
    for path, data in encoded:
        with Path(path).open("wb") as file:
            file.writelines(data)


def save_dataset(dataset: QraDataset, path, fmt: str = "auto") -> None:
    """Write a dataset to disk; CSV also writes the .meta.json sidecar."""
    path = Path(path)
    if _resolve_format(path, fmt) == "csv":
        texts = [(path, _dataset_to_csv(dataset)),
                 (_meta_path(path), [_header_text(dataset), "\n"])]
    else:
        texts = [(path, _dataset_to_json(dataset))]
    _write(texts)


_BUNDLED = Path(__file__).with_name("data") / "qra_benchmark.json"


def bundled_paper_dataset() -> QraDataset:
    """The packaged 116-measurement benchmark dataset (18 assessable pairs)."""
    return load_dataset(_BUNDLED)  # errors: a packaging defect
