"""qrakit: quantified reproducibility assessment for evaluation scores.

Given multiple scores for the same (object, measurand) pair, each tagged
with its conditions of measurement, the toolkit computes a de-biased
coefficient of variation (CV*) with confidence statistics and reports
which conditions differed between the measurements.
"""
from .engine import (
    ConditionDiffMatrix,
    QraReport,
    assess_all,
    classify,
    condition_diff,
    run_qra_test,
    subgroup_assess,
)
from .errors import QraError
from .io import bundled_paper_dataset, load_dataset, save_dataset
from .model import (
    ConditionSchema,
    ConditionValue,
    Measurand,
    Measurement,
    ObjectRef,
    QraDataset,
    UNKNOWN,
    ValidationIssue,
    default_condition_schema,
    group,
    known,
    make_measurement,
    validate_dataset,
)
from .precision import (
    PrecisionResult,
    c4,
    cv_star_pipeline,
    sample_stats,
    shift_values,
    stdev_ci95,
    stdev_stderr,
    t_quantile,
    unbiased_stdev,
)
from .render import RenderSpec, render_condition_matrix, render_precision_table
from .sim import SimResult, simulate

__version__ = "0.1.0"

__all__ = [
    "ConditionDiffMatrix",
    "ConditionSchema",
    "ConditionValue",
    "Measurand",
    "Measurement",
    "ObjectRef",
    "PrecisionResult",
    "QraDataset",
    "QraError",
    "QraReport",
    "RenderSpec",
    "SimResult",
    "UNKNOWN",
    "ValidationIssue",
    "assess_all",
    "bundled_paper_dataset",
    "c4",
    "classify",
    "condition_diff",
    "cv_star_pipeline",
    "default_condition_schema",
    "group",
    "known",
    "load_dataset",
    "make_measurement",
    "render_condition_matrix",
    "render_precision_table",
    "run_qra_test",
    "sample_stats",
    "save_dataset",
    "shift_values",
    "simulate",
    "stdev_ci95",
    "stdev_stderr",
    "subgroup_assess",
    "t_quantile",
    "unbiased_stdev",
    "validate_dataset",
]
