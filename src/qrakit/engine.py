"""Reproducibility assessment over a dataset: grouping, condition
difference analysis, test classification and precision computation."""
from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

from .errors import EmptyGroup, InvalidSampleSize, MixedGroup, QraError
from .model import ConditionSchema, QraDataset, group
from .precision import cv_star_pipeline

ALL_SAME = "AllSame"
DIFFERS = "Differs"
HAS_UNKNOWN = "HasUnknown"

REPEATABILITY = "Repeatability"
REPRODUCIBILITY = "Reproducibility"
INDETERMINATE = "Indeterminate"


class ConditionDiffMatrix(namedtuple("ConditionDiffMatrix", "conditions rows verdicts")):
    """Per-condition same/different verdicts for a group of measurements.

    ``conditions`` is the schema's names, ``rows`` one label tuple per
    measurement (None is Unknown) and ``verdicts`` a dict from name to
    verdict. A named tuple, built once per group.
    """

    __slots__ = ()

    def verdict(self, name: str) -> str:
        return self.verdicts[name]


class QraReport(namedtuple("QraReport", "object measurand measurements diff classification "
                           "precision excluded", defaults=((),))):
    """Result of one QRA test for a single (object, measurand) pair.

    ``object`` is an ObjectRef, ``measurand`` a Measurand, ``measurements``
    and ``excluded`` tuples of Measurement, ``diff`` a ConditionDiffMatrix,
    ``classification`` one of the three test names and ``precision`` a
    PrecisionResult. A named tuple, built once per group.
    """

    __slots__ = ()


_OBJECT_AND_MEASURAND = attrgetter("object", "measurand")
_VALUE = attrgetter("value")


def condition_diff(measurements, schema: ConditionSchema) -> ConditionDiffMatrix:
    """Compute the condition-difference matrix for one measurement group.

    A condition's verdict is HasUnknown when any value is Unknown, Differs
    when two Known labels disagree, and AllSame otherwise.
    """
    if not measurements:
        raise EmptyGroup("cannot diff an empty group")
    pairs = set(map(_OBJECT_AND_MEASURAND, measurements))
    if len(pairs) > 1:
        raise MixedGroup(f"group mixes several (object, measurand) pairs: {sorted(pairs)}")

    names = schema.names
    rows = tuple(m.labels_in(names) for m in measurements)
    verdicts, n = {}, len(rows)
    for name, column in zip(names, zip(*rows)):
        if None in column:
            verdicts[name] = HAS_UNKNOWN
        elif column.count(column[0]) < n:
            verdicts[name] = DIFFERS
        else:
            verdicts[name] = ALL_SAME
    return ConditionDiffMatrix(names, rows, verdicts)


def classify(diff: ConditionDiffMatrix) -> str:
    """Repeatability when all conditions match; Reproducibility when any
    Known values differ; Indeterminate when only unknowns prevent a call."""
    verdicts = set(diff.verdicts.values())
    if DIFFERS in verdicts:
        return REPRODUCIBILITY
    verdicts.discard(ALL_SAME)
    return INDETERMINATE if verdicts else REPEATABILITY


def _assess(dataset, object_id, measurand_id, measurements, excluded=()):
    measurand = dataset.measurand_by_id(measurand_id)
    diff = condition_diff(measurements, dataset.schema)
    try:  # the pipeline's rules, n >= 2 among them, hold there; the pair is named here
        precision = cv_star_pipeline(map(_VALUE, measurements), measurand.scale_min)
    except QraError as exc:
        raise type(exc)(f"({object_id}, {measurand_id}): {exc}") from exc
    return QraReport(dataset.object_by_id(object_id), measurand, tuple(measurements), diff,
                     classify(diff), precision, tuple(excluded))


def run_qra_test(dataset: QraDataset, object_id: str, measurand_id: str) -> QraReport:
    """Run the full assessment for one (object, measurand) pair."""
    return _assess(dataset, object_id, measurand_id,
                   group(dataset, object_id, measurand_id))


def assess_all(dataset: QraDataset, object: str | None = None,
               measurand: str | None = None):
    """Assess every pair matching the optional filters, in first-appearance
    order. Returns ``(reports, skipped)``, where ``skipped`` holds
    ``(pair, reason)`` for each matching pair with n < 2. Raises EmptyGroup
    when no pair matches and InvalidSampleSize when none is assessable."""
    if object is not None:
        dataset.object_by_id(object)
    if measurand is not None:
        dataset.measurand_by_id(measurand)
    reports, skipped = [], []
    for (obj, meas), members in dataset.index.groups.items():
        if object not in (None, obj) or measurand not in (None, meas):
            continue
        if len(members) < 2:
            skipped.append(((obj, meas), f"only {len(members)} measurement; need at least 2"))
        else:
            reports.append(_assess(dataset, obj, meas, members))
    if not reports and not skipped:
        raise EmptyGroup("no (object, measurand) pair matches the given filters")
    if not reports:
        raise InvalidSampleSize("every matching pair has fewer than 2 measurements")
    return reports, skipped


def subgroup_assess(dataset: QraDataset, object_id: str, measurand_id: str,
                    predicate=(), where=None) -> QraReport:
    """Assess a condition-filtered subset of a group.

    ``predicate`` is a list of (condition name, required label) pairs; a
    measurement matches when every listed condition is Known and equal to
    the label. ``where``, if given, is an additional callable filter
    Measurement -> bool, for subgroups that equality predicates cannot
    express (e.g. "condition A has the same value as condition B").
    Excluded measurements are kept on the report for auditability. A
    condition not in the schema raises EmptyGroup.
    """
    members = group(dataset, object_id, measurand_id)
    names = dataset.schema.names
    wanted = []
    for name, label in predicate:
        if name not in names:
            raise EmptyGroup(f"no condition {name!r} in the schema")
        wanted.append((names.index(name), label))

    def selected(m):
        labels = m.labels_in(names)
        for i, label in wanted:
            if label is None or labels[i] != label:
                return False
        return where(m) if where is not None else True

    kept, dropped = [], []
    for m in members:
        (kept if selected(m) else dropped).append(m)
    if not kept:
        raise EmptyGroup(
            f"({object_id}, {measurand_id}): predicate excludes every measurement"
        )
    return _assess(dataset, object_id, measurand_id, kept, excluded=dropped)
