"""Monte Carlo check of the de-biased estimators on normal samples.

Draws repeated samples of size n from Normal(10*sigma, sigma), runs the
stdev part of the precision pipeline on each, and reports the empirical
mean of s and s* plus the fraction of confidence intervals that cover sigma.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import InvalidParameters, NonFiniteResult
from .precision import stdev_ci95, unbiased_stdev


SimResult = namedtuple("SimResult", "n sigma trials mean_s mean_s_star ci_coverage seed")


def simulate(n: int, sigma: float, trials: int, seed: int) -> SimResult:
    """Run ``trials`` draws of size ``n`` and summarize estimator behavior.

    The samples are drawn on the unit scale, from Normal(10, 1), and the
    means of s and s* are multiplied by sigma: no sigma under- or overflows
    the squared deviations, and the means at sigma are exactly sigma times
    those at 1, with the same coverage. The mean, 10*sigma, stays well away
    from zero. Sampling uses numpy's seeded PCG64 generator, so results are
    fully determined by the seed.
    """
    for name, value in (("n", n), ("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not hasattr(value, "__index__"):  # numpy integers pass
            raise InvalidParameters(f"{name} must be an integer, not {type(value).__name__}")
    try:
        finite = math.isfinite(sigma)
    except TypeError:
        raise InvalidParameters(f"sigma must be a number, not {type(sigma).__name__}") from None
    except OverflowError:  # an int past the float range
        finite = False
    if n < 2:
        raise InvalidParameters(f"n must be >= 2, got {n}")
    if not (finite and sigma > 0):
        raise InvalidParameters(f"sigma must be finite and > 0, got {sigma}")
    if trials < 1:
        raise InvalidParameters(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise InvalidParameters(f"seed must be >= 0, got {seed}")

    # numpy is loaded here, not at import, so only simulate pays for it
    import numpy as np

    rng = np.random.default_rng(seed)
    try:
        samples = rng.normal(10.0, 1.0, size=(trials, n))
    except (ValueError, MemoryError) as exc:
        raise InvalidParameters(f"cannot draw {trials} trials of n = {n}: {exc}") from exc
    s = samples.std(axis=1, ddof=1)
    s_star = unbiased_stdev(s, n)
    # precision.stdev_stderr, with 0 for a zero-spread sample
    se = np.where(s_star > 0, (s * s * np.sqrt(2.0 / (n - 1))) / (2.0 * s_star), 0.0)
    lo, hi = stdev_ci95(s_star, se, n)
    mean_s, mean_s_star = float(s.mean()) * sigma, float(s_star.mean()) * sigma
    for name, value in (("mean(s)", mean_s), ("mean(s*)", mean_s_star)):
        if not math.isfinite(value):
            raise NonFiniteResult(f"{name} is {value}: sigma is too close to the top "
                                  "of the float range")
    return SimResult(
        n=n,
        sigma=float(sigma),
        trials=trials,
        mean_s=mean_s,
        mean_s_star=mean_s_star,
        ci_coverage=float(((lo <= 1.0) & (1.0 <= hi)).mean()),
        seed=seed,
    )
