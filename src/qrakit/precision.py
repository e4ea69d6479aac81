"""De-biased precision statistics for small samples of evaluation scores.

The pipeline: shift scores so the scale starts at 0, take the n-1 sample
standard deviation s, de-bias it to s* = s / c4(n), approximate the
standard error of s*, attach a t-based 95% CI, and report the coefficient
of variation with the small-sample correction CV* = (1 + 1/(4n)) * CV.
"""
from __future__ import annotations

import math
from collections import namedtuple
from operator import countOf, mul

from .errors import (
    DegenerateMean,
    InvalidDf,
    InvalidProbability,
    InvalidSampleSize,
    NonFiniteResult,
    ValueBelowScale,
)

# float(scipy.special.stdtrit(df, 0.975)) for df = 1..30, the quantile every
# 95% CI of a study with 2 to 31 measurements needs. Keyed on df, so 3.0 and
# numpy.int64(3) hit the entry for 3 while 2.5, NaN and 31 fall through to
# scipy; a test checks every entry against stdtrit with ==.
_T_975 = {
    1: 12.706204736174694,
    2: 4.302652729749462,
    3: 3.1824463052837078,
    4: 2.7764451051977934,
    5: 2.5705818356363146,
    6: 2.4469118511449786,
    7: 2.364624251592784,
    8: 2.306004135204166,
    9: 2.262157162798205,
    10: 2.228138851986274,
    11: 2.200985160091639,
    12: 2.1788128296672284,
    13: 2.1603686564627913,
    14: 2.144786687917804,
    15: 2.131449545559776,
    16: 2.1199052992212546,
    17: 2.1098155778333156,
    18: 2.1009220402410382,
    19: 2.0930240544083087,
    20: 2.085963447265864,
    21: 2.0796138447276795,
    22: 2.0738730679040254,
    23: 2.0686576104190486,
    24: 2.0638985616280245,
    25: 2.0595385527532972,
    26: 2.0555294386428735,
    27: 2.0518305164802846,
    28: 2.0484071417952454,
    29: 2.045229642132703,
    30: 2.0422724563012378,
}


class PrecisionResult(namedtuple("PrecisionResult", "n mean s s_star se_s_star ci95 cv "
                                 "cv_star degenerate_spread", defaults=(False,))):
    """Precision statistics for one group of shifted scores.

    ``n`` is an int, ``ci95`` a (lower, upper) pair of floats and the rest
    floats. ``cv`` and ``cv_star`` are percentages. ``degenerate_spread``
    flags a zero-spread sample, where the CI collapses to a point. A named
    tuple, built once per group.
    """

    __slots__ = ()


def shift_values(values, scale_min):
    """Translate values so the scale's lower end sits at 0."""
    values = list(values)  # read once: an iterator is checked and shifted
    _check_scale(values, scale_min)
    return [v - scale_min for v in values]


def _check_scale(values, scale_min) -> None:
    for v in values:
        if v < scale_min:
            raise ValueBelowScale(f"value {v} below scale minimum {scale_min}")


def c4(n: int) -> float:
    """Normal-theory bias correction constant satisfying E[s] = c4(n) * sigma."""
    if not 2 <= n < math.inf:  # written so that a NaN n fails it
        raise InvalidSampleSize(f"c4 requires a finite n >= 2, got {n}")
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
    # every v == first: countOf takes v is first as equal, so a NaN first is tested apart
    if first == first and countOf(shifted, first) == n:
        # keep constant samples exact: s is 0, not rounding noise
        return first, 0.0
    mean = math.fsum(shifted) / n
    # d * d, not d ** 2: libm's pow is not always correctly rounded, so only
    # the product keeps its bits under the power-of-two scaling upstream
    deviations = [v - mean for v in shifted]
    return mean, math.sqrt(math.fsum(map(mul, deviations, deviations)) / (n - 1))


def unbiased_stdev(s: float, n: int) -> float:
    """De-biased standard deviation s* = s / c4(n)."""
    if not n >= 2:
        raise InvalidSampleSize(f"need n >= 2, got {n}")
    return s / c4(n)


def stdev_stderr(s: float, s_star: float, n: int) -> float:
    """Standard error of s*, from the standard error of the sample variance.

    se(s^2) = sqrt(2 sigma^4 / (n-1)) evaluated at sigma = s, divided by
    2 s*. A zero-spread sample yields 0 (the CI collapses to a point).
    """
    if not n >= 2:
        raise InvalidSampleSize(f"need n >= 2, got {n}")
    if s_star == 0.0:
        return 0.0
    return (s * s * math.sqrt(2.0 / (n - 1))) / (2.0 * s_star)


def t_quantile(p: float, df: int) -> float:
    """Inverse CDF of Student's t with ``df`` degrees of freedom."""
    if not 0.0 < p < 1.0:
        raise InvalidProbability(f"p must be in (0, 1), got {p}")
    if not df >= 1:
        raise InvalidDf(f"df must be >= 1, got {df}")
    if p == 0.975 and df in _T_975:
        return _T_975[df]
    # scipy (and the numpy it loads) is imported only off the table
    from scipy.special import stdtrit

    return float(stdtrit(df, p))


def stdev_ci95(s_star: float, se: float, n: int) -> tuple[float, float]:
    """Two-sided 95% confidence interval for s*, symmetric about s*."""
    if not n >= 2:
        raise InvalidSampleSize(f"need n >= 2, got {n}")
    half = t_quantile(0.975, n - 1) * se
    return (s_star - half, s_star + half)


def _unscaled(x: float, e: int) -> float:
    """x * 2**e, or an infinity of x's sign where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def cv_star_pipeline(values, scale_min=0.0) -> PrecisionResult:
    """Full precision computation for one group of raw scores, any iterable of numbers."""
    values = list(values)  # read once
    _check_scale(values, scale_min)  # on the unscaled values
    # Work on the values and scale_min scaled by 2**-e, which puts the largest
    # magnitude among them in [0.5, 1), so neither the shift nor a square
    # overflows, and scale back at the end. Powers of two scale exactly, so
    # moderate inputs keep the bits of unscaled arithmetic; CV and CV* are
    # ratios and need no unscaling.
    e = math.frexp(max(abs(scale_min), max(map(abs, values)) if values else 0.0))[1]
    low = math.ldexp(scale_min, -e)
    mean, s = sample_stats([math.ldexp(v, -e) - low for v in values])
    if mean == 0.0:
        raise DegenerateMean("shifted mean is 0; coefficient of variation undefined")
    n = len(values)
    s_star = unbiased_stdev(s, n)
    se = stdev_stderr(s, s_star, n)
    lo, hi = stdev_ci95(s_star, se, n)
    cv = 100.0 * s_star / mean
    cv_star = (1.0 + 1.0 / (4.0 * n)) * cv
    result = PrecisionResult(n, _unscaled(mean, e), _unscaled(s, e), _unscaled(s_star, e),
                             _unscaled(se, e), (_unscaled(lo, e), _unscaled(hi, e)),
                             cv, cv_star, s == 0.0)
    checked = (result.mean, result.s_star, result.se_s_star, *result.ci95, cv, cv_star)
    if not all(map(math.isfinite, checked)):  # one C-level pass; the loop names a failure
        for name, value in zip(("mean", "s*", "se(s*)", "CI lower bound", "CI upper bound",
                                "CV", "CV*"), checked):
            if not math.isfinite(value):
                raise NonFiniteResult(f"{name} is {value}: the values are not finite "
                                      "or too close to the top of the float range")
    return result
