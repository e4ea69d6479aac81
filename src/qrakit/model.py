"""Domain types: measurands, objects, conditions of measurement, datasets.

All types are immutable once a dataset is assembled, so datasets can be
shared freely between concurrent readers.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import EmptyGroup, UnknownMeasurand, UnknownObject

OBJECT_CONDITION = "object_condition"
MEASUREMENT_METHOD = "measurement_method"
MEASUREMENT_PROCEDURE = "measurement_procedure"

CONDITION_CATEGORIES = (OBJECT_CONDITION, MEASUREMENT_METHOD, MEASUREMENT_PROCEDURE)


def _check_str(what: str, value) -> None:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, not {type(value).__name__}")
    if not value:
        raise ValueError(f"{what} must be non-empty")


@dataclass(frozen=True)
class Measurand:
    """A named quantity with the scale metadata needed for score shifting."""

    id: str
    display_name: str
    unit: str
    scale_min: float = 0.0
    scale_max: float | None = None
    value_kind: str = "continuous"  # "continuous" or "percentage"

    def __post_init__(self):
        _check_str("measurand id", self.id)
        if not math.isfinite(self.scale_min):
            raise ValueError(f"measurand {self.id!r}: scale_min must be finite, "
                             f"not {self.scale_min}")
        if self.scale_max is not None and not math.isfinite(self.scale_max):
            raise ValueError(f"measurand {self.id!r}: scale_max must be finite, "
                             f"not {self.scale_max}")
        if self.scale_max is not None and not self.scale_max > self.scale_min:
            raise ValueError(
                f"measurand {self.id!r}: scale_max must exceed scale_min"
            )
        if self.value_kind not in ("continuous", "percentage"):
            raise ValueError(f"unknown value_kind {self.value_kind!r}")


@dataclass(frozen=True)
class ObjectRef:
    """The thing being measured, e.g. one system variant."""

    id: str
    display_name: str
    description: str | None = None

    def __post_init__(self):
        _check_str("object id", self.id)


@dataclass(frozen=True)
class ConditionSchema:
    """Ordered, categorized list of condition-of-measurement names."""

    conditions: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [name for name, _ in self.conditions]
        for name in names:
            _check_str("condition name", name)
        if len(set(names)) != len(names):
            raise ValueError("condition names must be unique")
        for name, category in self.conditions:
            if category not in CONDITION_CATEGORIES:
                raise ValueError(f"unknown condition category {category!r}")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.conditions)


@dataclass(frozen=True)
class ConditionValue:
    """A condition value: a Known string label, or Unknown (label None).

    Two values *match* only when both are Known with equal labels; Unknown
    matches nothing, not even another Unknown. Structural (dataclass)
    equality is intentionally stricter only for round-trip comparisons.
    """

    label: str | None = None

    def __post_init__(self):
        if self.label is not None and not self.label:
            raise ValueError("known condition labels must be non-empty")

    @property
    def is_known(self) -> bool:
        return self.label is not None

    def matches(self, other: "ConditionValue") -> bool:
        return self.is_known and other.is_known and self.label == other.label


UNKNOWN = ConditionValue(None)


def known(label: str) -> ConditionValue:
    return ConditionValue(label)


class Measurement(namedtuple("Measurement", "object measurand value names labels "
                             "source timestamp", defaults=("", None))):
    """One measured quantity value for an (object, measurand) pair.

    ``object`` and ``measurand`` are ids, ``value`` a float, ``source`` a
    string and ``timestamp`` a ``datetime.date`` or None. ``labels[i]`` is
    the label of condition ``names[i]``, or None for Unknown. Measurements
    built against a schema share its ``names`` tuple.

    A named tuple, built once per row: copy one with ``m._replace(...)``.
    """

    __slots__ = ()

    def label(self, name: str) -> str | None:
        """The label of the first entry for ``name``; None when it has none."""
        try:
            return self.labels[self.names.index(name)]
        except ValueError:
            return None

    def labels_in(self, names: tuple[str, ...]) -> tuple[str | None, ...]:
        """One label per name of ``names``, in that order."""
        if self.names == names:
            return self.labels
        return tuple(map(self.label, names))

    def condition(self, name: str) -> ConditionValue:
        label = self.label(name)
        return UNKNOWN if label is None else ConditionValue(label)


def _label(raw) -> str | None:
    if isinstance(raw, ConditionValue):
        raw = raw.label
    if raw is None or raw == "":
        return None
    # one string object per distinct label across a loaded dataset
    return sys.intern(str(raw))


def make_measurement(object_id, measurand_id, value, conditions=None,
                     source="", timestamp=None, schema=None):
    """Build a Measurement from a plain dict of condition labels.

    ``conditions`` maps condition name -> label (a ConditionValue, or None,
    "" or missing for Unknown). When a schema is given, the measurement has
    one label per schema condition, in schema order.
    """
    _check_str("object id", object_id)
    _check_str("measurand id", measurand_id)
    conditions = conditions or {}
    if schema is not None:
        names = schema.names
    else:
        names = tuple(conditions)
        for name in names:
            _check_str("condition name", name)
    return Measurement(
        object=object_id,
        measurand=measurand_id,
        value=float(value),
        names=names,
        labels=tuple(_label(conditions.get(name)) for name in names),
        source=source,
        timestamp=timestamp,
    )


class DatasetIndex(NamedTuple):
    """Declarations by id (the first of duplicate ids wins) and measurements
    by (object, measurand): groups in first-appearance order, each group in
    dataset order."""

    objects: dict[str, ObjectRef]
    measurands: dict[str, Measurand]
    groups: dict[tuple[str, str], list[Measurement]]


@dataclass(frozen=True)
class QraDataset:
    """A condition schema plus declared objects, measurands and measurements."""

    schema: ConditionSchema
    objects: tuple[ObjectRef, ...]
    measurands: tuple[Measurand, ...]
    measurements: tuple[Measurement, ...] = field(default_factory=tuple)

    @cached_property
    def index(self) -> DatasetIndex:
        """Lookup tables, built on first use. Not a dataclass field, so
        equality, hashing, ``repr`` and ``dataclasses.replace`` ignore it."""
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
