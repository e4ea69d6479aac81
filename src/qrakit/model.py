"""Domain types: measurands, objects, conditions of measurement, datasets.

All types are immutable once a dataset is assembled, so datasets can be
shared freely between concurrent readers.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import EmptyGroup, UnknownMeasurand, UnknownObject

OBJECT_CONDITION = "object_condition"
MEASUREMENT_METHOD = "measurement_method"
MEASUREMENT_PROCEDURE = "measurement_procedure"

CONDITION_CATEGORIES = (OBJECT_CONDITION, MEASUREMENT_METHOD, MEASUREMENT_PROCEDURE)


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
        if not self.id:
            raise ValueError("measurand id must be non-empty")
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
        if not self.id:
            raise ValueError("object id must be non-empty")


@dataclass(frozen=True)
class ConditionSchema:
    """Ordered, categorized list of condition-of-measurement names."""

    conditions: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [name for name, _ in self.conditions]
        if len(set(names)) != len(names):
            raise ValueError("condition names must be unique")
        for name, category in self.conditions:
            if category not in CONDITION_CATEGORIES:
                raise ValueError(f"unknown condition category {category!r}")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.conditions)

    def category(self, name: str) -> str:
        for cname, category in self.conditions:
            if cname == name:
                return category
        raise KeyError(name)


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


@dataclass(frozen=True)
class Measurement:
    """One measured quantity value for an (object, measurand) pair."""

    object: str
    measurand: str
    value: float
    conditions: tuple[tuple[str, ConditionValue], ...]
    source: str = ""
    timestamp: datetime.date | None = None

    def condition(self, name: str) -> ConditionValue:
        for cname, cvalue in self.conditions:
            if cname == name:
                return cvalue
        return UNKNOWN

    def condition_map(self) -> dict[str, ConditionValue]:
        """Condition name -> value. As in ``condition``, the first entry of
        a repeated name wins; a name with no entry is absent."""
        return dict(reversed(self.conditions))


@lru_cache(maxsize=4096)
def _cell(name: str, label: str | None) -> tuple[str, ConditionValue]:
    """One shared, immutable (name, value) cell per distinct label, so a
    loaded dataset holds one ConditionValue per label, not per measurement."""
    return (name, UNKNOWN if label is None else ConditionValue(label))


def make_measurement(object_id, measurand_id, value, conditions=None,
                     source="", timestamp=None, schema=None):
    """Build a Measurement from a plain dict of condition labels.

    ``conditions`` maps condition name -> label (or None / missing for
    Unknown). When a schema is given, every schema condition gets an entry.
    """
    conditions = dict(conditions or {})
    names = schema.names if schema is not None else tuple(conditions)
    items = []
    for name in names:
        label = conditions.get(name)
        if isinstance(label, ConditionValue):
            items.append((name, label))
        else:
            # key on the normalised text: 1 and True hash equal, lists do not hash
            items.append(_cell(name, None if label is None or label == "" else str(label)))
    return Measurement(
        object=object_id,
        measurand=measurand_id,
        value=float(value),
        conditions=tuple(items),
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
