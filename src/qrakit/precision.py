"""De-biased precision statistics for small samples of evaluation scores.

The pipeline: shift scores so the scale starts at 0, take the n-1 sample
standard deviation s, de-bias it to s* = s / c4(n), approximate the
standard error of s*, attach a t-based 95% CI, and report the coefficient
of variation with the small-sample correction CV* = (1 + 1/(4n)) * CV.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import stdtrit

from .errors import (
    DegenerateMean,
    InvalidDf,
    InvalidProbability,
    InvalidSampleSize,
    ValueBelowScale,
)


@dataclass(frozen=True)
class PrecisionResult:
    """Precision statistics for one group of shifted scores.

    ``cv`` and ``cv_star`` are percentages. ``degenerate_spread`` flags a
    zero-spread sample, where the CI collapses to a point.
    """

    n: int
    mean: float
    s: float
    s_star: float
    se_s_star: float
    ci95: tuple[float, float]
    cv: float
    cv_star: float
    degenerate_spread: bool = False


def shift_values(values, scale_min):
    """Translate values so the scale's lower end sits at 0."""
    for v in values:
        if v < scale_min:
            raise ValueBelowScale(f"value {v} below scale minimum {scale_min}")
    return [v - scale_min for v in values]


def c4(n: int) -> float:
    """Normal-theory bias correction constant satisfying E[s] = c4(n) * sigma."""
    if n < 2:
        raise InvalidSampleSize(f"c4 requires n >= 2, got {n}")
    # lgamma keeps this stable for large n where Gamma overflows
    return math.sqrt(2.0 / (n - 1)) * math.exp(
        math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)
    )


def sample_stats(shifted):
    """Arithmetic mean and n-1 sample standard deviation."""
    n = len(shifted)
    if n < 2:
        raise InvalidSampleSize(f"need at least 2 values, got {n}")
    first = shifted[0]
    if all(v == first for v in shifted):
        # keep constant samples exact: s is 0, not rounding noise
        return first, 0.0
    mean = math.fsum(shifted) / n
    ss = math.fsum((v - mean) ** 2 for v in shifted)
    return mean, math.sqrt(ss / (n - 1))


def unbiased_stdev(s: float, n: int) -> float:
    """De-biased standard deviation s* = s / c4(n)."""
    if n < 2:
        raise InvalidSampleSize(f"need n >= 2, got {n}")
    return s / c4(n)


def stdev_stderr(s: float, s_star: float, n: int) -> float:
    """Standard error of s*, from the standard error of the sample variance.

    se(s^2) = sqrt(2 sigma^4 / (n-1)) evaluated at sigma = s, divided by
    2 s*. A zero-spread sample yields 0 (the CI collapses to a point).
    """
    if n < 2:
        raise InvalidSampleSize(f"need n >= 2, got {n}")
    if s_star == 0.0:
        return 0.0
    return (s * s * math.sqrt(2.0 / (n - 1))) / (2.0 * s_star)


def t_quantile(p: float, df: int) -> float:
    """Inverse CDF of Student's t with ``df`` degrees of freedom."""
    if not 0.0 < p < 1.0:
        raise InvalidProbability(f"p must be in (0, 1), got {p}")
    if df < 1:
        raise InvalidDf(f"df must be >= 1, got {df}")
    return float(stdtrit(df, p))


def stdev_ci95(s_star: float, se: float, n: int) -> tuple[float, float]:
    """Two-sided 95% confidence interval for s*, symmetric about s*."""
    if n < 2:
        raise InvalidSampleSize(f"need n >= 2, got {n}")
    half = t_quantile(0.975, n - 1) * se
    return (s_star - half, s_star + half)


def cv_star_pipeline(values, scale_min=0.0) -> PrecisionResult:
    """Full precision computation for one group of raw scores."""
    shifted = shift_values(values, scale_min)
    mean, s = sample_stats(shifted)
    if mean == 0.0:
        raise DegenerateMean("shifted mean is 0; coefficient of variation undefined")
    n = len(shifted)
    s_star = unbiased_stdev(s, n)
    se = stdev_stderr(s, s_star, n)
    ci = stdev_ci95(s_star, se, n)
    cv = 100.0 * s_star / mean
    cv_star = (1.0 + 1.0 / (4.0 * n)) * cv
    return PrecisionResult(
        n=n,
        mean=mean,
        s=s,
        s_star=s_star,
        se_s_star=se,
        ci95=ci,
        cv=cv,
        cv_star=cv_star,
        degenerate_spread=(s == 0.0),
    )
