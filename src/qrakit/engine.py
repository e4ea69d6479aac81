"""Reproducibility assessment over a dataset: grouping, condition
difference analysis, test classification and precision computation."""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyGroup, InvalidSampleSize, MixedGroup
from .model import (
    ConditionSchema,
    Measurand,
    Measurement,
    ObjectRef,
    QraDataset,
    UNKNOWN,
    group,
)
from .precision import PrecisionResult, cv_star_pipeline

ALL_SAME = "AllSame"
DIFFERS = "Differs"
HAS_UNKNOWN = "HasUnknown"

REPEATABILITY = "Repeatability"
REPRODUCIBILITY = "Reproducibility"
INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ConditionDiffMatrix:
    """Per-condition same/different verdicts for a group of measurements."""

    conditions: tuple[str, ...]
    rows: tuple[tuple, ...]  # one tuple of ConditionValue per measurement
    verdicts: dict

    def verdict(self, name: str) -> str:
        return self.verdicts[name]


@dataclass(frozen=True)
class QraReport:
    """Result of one QRA test for a single (object, measurand) pair."""

    object: ObjectRef
    measurand: Measurand
    measurements: tuple[Measurement, ...]
    diff: ConditionDiffMatrix
    classification: str
    precision: PrecisionResult
    excluded: tuple[Measurement, ...] = field(default_factory=tuple)


def condition_diff(measurements, schema: ConditionSchema) -> ConditionDiffMatrix:
    """Compute the condition-difference matrix for one measurement group.

    A condition's verdict is HasUnknown when any value is Unknown, Differs
    when two Known labels disagree, and AllSame otherwise.
    """
    if not measurements:
        raise EmptyGroup("cannot diff an empty group")
    pairs = {(m.object, m.measurand) for m in measurements}
    if len(pairs) > 1:
        raise MixedGroup(f"group mixes several (object, measurand) pairs: {sorted(pairs)}")

    names = schema.names
    rows = []
    for m in measurements:
        cells = m.condition_map()
        rows.append(tuple(cells.get(name, UNKNOWN) for name in names))
    verdicts = {}
    for name, column in zip(names, zip(*rows)):
        labels = {v.label for v in column}
        if None in labels:
            verdicts[name] = HAS_UNKNOWN
        elif len(labels) > 1:
            verdicts[name] = DIFFERS
        else:
            verdicts[name] = ALL_SAME
    return ConditionDiffMatrix(conditions=names, rows=tuple(rows), verdicts=verdicts)


def classify(diff: ConditionDiffMatrix) -> str:
    """Repeatability when all conditions match; Reproducibility when any
    Known values differ; Indeterminate when only unknowns prevent a call."""
    verdicts = diff.verdicts.values()
    if any(v == DIFFERS for v in verdicts):
        return REPRODUCIBILITY
    if all(v == ALL_SAME for v in verdicts):
        return REPEATABILITY
    return INDETERMINATE


def _assess(dataset, object_id, measurand_id, measurements, excluded=()):
    if len(measurements) < 2:
        raise InvalidSampleSize(
            f"({object_id}, {measurand_id}): need at least 2 measurements, "
            f"got {len(measurements)}"
        )
    measurand = dataset.measurand_by_id(measurand_id)
    diff = condition_diff(measurements, dataset.schema)
    precision = cv_star_pipeline(
        [m.value for m in measurements], measurand.scale_min
    )
    return QraReport(
        object=dataset.object_by_id(object_id),
        measurand=measurand,
        measurements=tuple(measurements),
        diff=diff,
        classification=classify(diff),
        precision=precision,
        excluded=tuple(excluded),
    )


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
            reports.append(run_qra_test(dataset, obj, meas))
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
    Excluded measurements are kept on the report for auditability.
    """
    members = group(dataset, object_id, measurand_id)

    def selected(m):
        for name, label in predicate:
            cv = m.condition(name)
            if not (cv.is_known and cv.label == label):
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
