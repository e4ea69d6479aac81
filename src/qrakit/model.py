"""Domain types: measurands, objects, conditions of measurement, datasets.

Also the rules of a valid dataset: the declarations and ``Measurement`` check
their own fields, however they are built, and ``validate_dataset`` checks the
dataset as a whole. All types are immutable once a dataset is assembled, so
datasets can be shared freely between concurrent readers.
"""
from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from datetime import date, datetime
from functools import cached_property
from operator import itemgetter

from .errors import EmptyGroup, UnknownMeasurand, UnknownObject

OBJECT_CONDITION = "object_condition"
MEASUREMENT_METHOD = "measurement_method"
MEASUREMENT_PROCEDURE = "measurement_procedure"

CONDITION_CATEGORIES = (OBJECT_CONDITION, MEASUREMENT_METHOD, MEASUREMENT_PROCEDURE)


def _check_str(what: str, value, nonempty: bool = True) -> None:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, not {type(value).__name__}")
    if nonempty and not value:
        raise ValueError(f"{what} must be non-empty")


def _number(what: str, value) -> float:
    """``float(value)``; a bool or a str is refused by name, not converted."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{what} must be a number, not {type(value).__name__}")
    return float(value)


# ``_make``, so ``_replace`` too, builds through the checking ``__new__``, not ``tuple.__new__``
_checked_make = classmethod(lambda cls, fields: cls(*fields))


def _immutable(self, name, *value):
    """``__setattr__`` and ``__delattr__``; ``cached_property`` writes ``__dict__`` directly."""
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class Measurand(namedtuple("Measurand", "id display_name unit scale_min scale_max value_kind")):
    """A named quantity with the scale metadata needed for score shifting."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, id, display_name, unit, scale_min=0.0, scale_max=None,
                value_kind="continuous"):
        _check_str("measurand id", id)
        where = f"measurand {id!r}: "
        _check_str(where + "display_name", display_name, nonempty=False)
        _check_str(where + "unit", unit, nonempty=False)
        # an integer bound becomes a float, so that it saves as one
        scale_min = _number(where + "scale_min", scale_min)
        if scale_max is not None:
            scale_max = _number(where + "scale_max", scale_max)
        if not math.isfinite(scale_min):
            raise ValueError(f"{where}scale_min must be finite, not {scale_min}")
        if scale_max is not None and not math.isfinite(scale_max):
            raise ValueError(f"{where}scale_max must be finite, not {scale_max}")
        if scale_max is not None and not scale_max > scale_min:
            raise ValueError(f"{where}scale_max must exceed scale_min")
        if value_kind not in ("continuous", "percentage"):
            raise ValueError(f"unknown value_kind {value_kind!r}")
        return super().__new__(cls, id, display_name, unit, scale_min, scale_max, value_kind)


class ObjectRef(namedtuple("ObjectRef", "id display_name description")):
    """The thing being measured, e.g. one system variant."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, id, display_name, description=None):
        _check_str("object id", id)
        _check_str(f"object {id!r}: display_name", display_name, nonempty=False)
        if description is not None and not isinstance(description, str):
            raise TypeError(f"object {id!r}: description must be a string or null, "
                            f"not {type(description).__name__}")
        return super().__new__(cls, id, display_name, description)


class ConditionSchema(namedtuple("ConditionSchema", "conditions")):
    """Ordered, categorized list of condition-of-measurement names."""

    # no ``__slots__ = ()``: ``names``, which measurements share, is cached in __dict__
    _make = _checked_make
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, conditions):
        # a tuple of pairs, however given, so that the schema hashes
        self = super().__new__(cls, tuple((name, category) for name, category in conditions))
        for name, category in self.conditions:
            _check_str("condition name", name)
            if category not in CONDITION_CATEGORIES:
                raise ValueError(f"unknown condition category {category!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("condition names must be unique")
        return self

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.conditions)


def _label(raw) -> str | None:
    """The label a measurement holds for ``raw``: a string, or None for
    Unknown (None, "" or UNKNOWN). Any other type is refused."""
    if isinstance(raw, ConditionValue):
        raw = raw.label
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise TypeError(f"condition label must be a string or null, not {type(raw).__name__}")
    # one string object per distinct label across a loaded dataset
    return sys.intern(str(raw)) if raw else None


class ConditionValue(namedtuple("ConditionValue", "label")):
    """A condition value: a Known string label, or Unknown (label None).

    Two values *match* only when both are Known with equal labels; Unknown
    matches nothing, not even another Unknown. Tuple equality is
    intentionally stricter only for round-trip comparisons.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, label=None):
        stored = _label(label)  # the label of a ConditionValue, interned
        if stored is None and label == "":
            raise ValueError("known condition labels must be non-empty")
        return super().__new__(cls, stored)

    @property
    def is_known(self) -> bool:
        return self.label is not None

    def matches(self, other: "ConditionValue") -> bool:
        return self.is_known and other.is_known and self.label == other.label


UNKNOWN = ConditionValue(None)


def known(label: str) -> ConditionValue:
    return ConditionValue(label)


# the exact types of a label, and of a name, that ``Measurement``'s fast path passes
_LABEL_TYPES, _NAME_TYPES = frozenset((str, type(None))), frozenset((str,))


def _check_conditions(names, labels) -> None:
    """Refuse the first condition name that is not a non-empty string, then the
    first label that is neither None (Unknown) nor a non-empty string."""
    for name in names:
        _check_str("condition name", name)
    for label in labels:
        if not (label is None or isinstance(label, str)):
            raise TypeError(f"condition label must be a string or null, "
                            f"not {type(label).__name__}")
        if label == "":
            raise ValueError("known condition labels must be non-empty")


class Measurement(namedtuple("Measurement", "object measurand value names labels "
                             "source timestamp")):
    """One measured quantity value for an (object, measurand) pair, checked as
    every row is: ``object`` and ``measurand`` are non-empty ids, ``value`` a
    number (not a bool or a str) stored as a float, ``source`` a string or None
    (read as "") and ``timestamp`` a ``datetime.date`` (not a ``datetime``) or
    None. ``labels[i]`` labels condition ``names[i]``, a non-empty string; a
    label is None for Unknown or a non-empty string, as ``_label`` makes it
    ("", a ``ConditionValue`` and other types are refused). Both are stored as
    tuples of equal length, sharing a schema's ``names`` tuple.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, object, measurand, value, names, labels, source="", timestamp=None):
        _check_str("object id", object)
        _check_str("measurand id", measurand)
        value = _number("value", value)
        names, labels = tuple(names), tuple(labels)  # a tuple is kept as it is
        if len(labels) != len(names):
            raise ValueError(f"{len(labels)} labels for {len(names)} condition names")
        # one C-level pass for the usual row; only a row that fails it is walked
        if not (_LABEL_TYPES.issuperset(map(type, labels)) and "" not in labels
                and _NAME_TYPES.issuperset(map(type, names)) and "" not in names):
            _check_conditions(names, labels)
        if source is None:
            source = ""
        elif not isinstance(source, str):
            raise TypeError(f"source must be a string or null, not {type(source).__name__}")
        # a datetime is a date too, but saves as text that no reader loads
        if timestamp is not None and (not isinstance(timestamp, date)
                                      or isinstance(timestamp, datetime)):
            raise TypeError(f"timestamp must be a date or None, not {type(timestamp).__name__}")
        # tuple.__new__, not the namedtuple's: one Python call per row a reader builds
        return tuple.__new__(cls, (object, measurand, value, names, labels, source, timestamp))

    def label(self, name: str) -> str | None:
        """The label of the first entry for ``name``; None when it has none."""
        try:
            return self.labels[self.names.index(name)]
        except ValueError:
            return None

    def labels_in(self, names: tuple[str, ...]) -> tuple[str | None, ...]:
        """One label per name of ``names``, in that order. The engine, subgroup
        filters and both writers read a row through this with the schema's names."""
        if self.names == names:
            return self.labels
        return tuple(map(self.label, names))

    def condition(self, name: str) -> ConditionValue:
        label = self.label(name)
        return UNKNOWN if label is None else ConditionValue(label)


def make_measurement(object_id, measurand_id, value, conditions=None,
                     source="", timestamp=None, schema=None):
    """Build a Measurement from a plain dict of condition labels.

    ``conditions`` maps condition name -> label (a ConditionValue, or None,
    "" or missing for Unknown). When a schema is given, the measurement has
    one label per schema condition, in schema order. The other fields follow
    ``Measurement``'s rule: a ``value`` of ``"5"`` raises TypeError.
    """
    conditions = conditions or {}
    names = tuple(conditions) if schema is None else schema.names
    labels = tuple(_label(conditions.get(name)) for name in names)
    return Measurement(object_id, measurand_id, value, names, labels, source, timestamp)


# Declarations by id (the first of duplicate ids wins) and measurements by
# (object, measurand): groups in first-appearance order, each group in
# dataset order.
DatasetIndex = namedtuple("DatasetIndex", "objects measurands groups")


class QraDataset(namedtuple("QraDataset", "schema objects measurands measurements")):
    """A condition schema plus declared objects, measurands and measurements."""

    # no ``__slots__ = ()``: ``index`` is cached in __dict__
    _make = _checked_make
    __setattr__ = __delattr__ = _immutable
    # a non-data descriptor over the field, so perfbench's tracer can swap it in __dict__
    measurements = cached_property(itemgetter(3))

    def __new__(cls, schema, objects, measurands, measurements=()):
        # any other iterable is stored as a tuple; a tuple, a subclass too, as itself
        return super().__new__(cls, schema, *(
            seq if isinstance(seq, tuple) else tuple(seq)
            for seq in (objects, measurands, measurements)))

    def __reduce__(self):
        # the four fields only: a copy builds its own index when first used
        return type(self), tuple(self)

    @cached_property
    def index(self) -> DatasetIndex:
        """Lookup tables, built on first use. Not a field, so equality,
        hashing, ``repr`` and ``_replace`` ignore it."""
        objects, measurands, groups = {}, {}, {}
        for obj in self.objects:
            objects.setdefault(obj.id, obj)
        for m in self.measurands:
            measurands.setdefault(m.id, m)
        for m in self.measurements:
            groups.setdefault((m.object, m.measurand), []).append(m)
        return DatasetIndex(objects, measurands, groups)

    def object_by_id(self, object_id: str) -> ObjectRef:
        try:
            return self.index.objects[object_id]
        except KeyError:
            raise UnknownObject(f"undeclared object {object_id!r}") from None

    def measurand_by_id(self, measurand_id: str) -> Measurand:
        try:
            return self.index.measurands[measurand_id]
        except KeyError:
            raise UnknownMeasurand(f"undeclared measurand {measurand_id!r}") from None

    def pairs(self) -> list[tuple[str, str]]:
        """Distinct (object, measurand) pairs, in first-appearance order."""
        return list(self.index.groups)


# severity is "error" or "warning"; copy one with ``issue._replace(...)``
ValidationIssue = namedtuple("ValidationIssue", "severity location message")


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
    names = dataset.schema.names
    schema_names = set(names)
    # per measurand id, its finite scale (lo, hi): a row within it, of a declared
    # object and with the schema's names has no issue; only other rows are checked
    bounds = {
        m.id: (m.scale_min, sys.float_info.max if m.scale_max is None else m.scale_max)
        for m in index.measurands.values()
    }
    for row, m in enumerate(dataset.measurements, start=1):
        lo, hi = bounds.get(m.measurand, (None, None))
        if (lo is not None and lo <= m.value <= hi
                and m.names is names and m.object in index.objects):
            continue
        loc = f"measurement {row} ({m.object}, {m.measurand})"
        if m.object not in index.objects:
            err(loc, f"references undeclared object {m.object!r}")
        if lo is None:
            err(loc, f"references undeclared measurand {m.measurand!r}")
            continue
        if not math.isfinite(m.value):
            err(loc, f"value {m.value} is not a finite number")
        elif m.value < lo:
            err(loc, f"value {m.value} below scale minimum {lo}")
        elif m.value > hi:
            err(loc, f"value {m.value} above scale maximum {hi}")
        missing = schema_names.difference(m.names)
        if missing:
            warn(loc, f"no entry for conditions {sorted(missing)}; treated as Unknown")
        extra = set(m.names).difference(schema_names)
        if extra:
            warn(loc, f"conditions {sorted(extra)} are not in the schema; not saved")

    for (obj, meas), members in index.groups.items():
        if len(members) < 2:
            warn(f"({obj}, {meas})",
                 "only one measurement; pair is not assessable (n >= 2 required)")
    return issues


def default_condition_schema() -> ConditionSchema:
    """The seven standard conditions of measurement, in canonical order."""
    return ConditionSchema(conditions=(
        ("system_code", OBJECT_CONDITION),
        ("compile_training_info", OBJECT_CONDITION),
        ("method_specification", MEASUREMENT_METHOD),
        ("implementation", MEASUREMENT_METHOD),
        ("procedure", MEASUREMENT_PROCEDURE),
        ("test_set", MEASUREMENT_PROCEDURE),
        ("performed_by", MEASUREMENT_PROCEDURE),
    ))


def group(dataset: QraDataset, object_id: str, measurand_id: str):
    """All measurements for one (object, measurand) pair, in dataset order."""
    dataset.object_by_id(object_id)
    dataset.measurand_by_id(measurand_id)
    matched = dataset.index.groups.get((object_id, measurand_id))
    if not matched:
        raise EmptyGroup(
            f"no measurements for object {object_id!r} / measurand {measurand_id!r}"
        )
    return list(matched)
