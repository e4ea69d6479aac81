"""Monte Carlo check of the de-biased estimators on normal samples.

Draws repeated samples of size n from Normal(mu, sigma), runs the stdev
part of the precision pipeline on each, and reports the empirical mean of
s and s* plus the fraction of confidence intervals that cover sigma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameters, NonFiniteResult
from .precision import stdev_ci95, unbiased_stdev


@dataclass(frozen=True)
class SimResult:
    n: int
    sigma: float
    trials: int
    mean_s: float
    mean_s_star: float
    ci_coverage: float
    seed: int


def simulate(n: int, sigma: float, trials: int, seed: int,
             mu: float | None = None) -> SimResult:
    """Run ``trials`` draws of size ``n`` and summarize estimator behavior.

    mu defaults to 10*sigma, keeping the mean well away from zero so the
    coefficient of variation stays well-defined. Sampling uses numpy's
    seeded PCG64 generator, so results are fully determined by the seed.
    """
    if n < 2:
        raise InvalidParameters(f"n must be >= 2, got {n}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise InvalidParameters(f"sigma must be finite and > 0, got {sigma}")
    if trials < 1:
        raise InvalidParameters(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise InvalidParameters(f"seed must be >= 0, got {seed}")

    # numpy is loaded here, not at import, so only simulate pays for it
    import numpy as np

    if mu is None:
        mu = 10.0 * sigma
    rng = np.random.default_rng(seed)
    samples = rng.normal(mu, sigma, size=(trials, n))

    # a sigma near the top of the float range overflows the squares: that
    # ends in the NonFiniteResult below, not in numpy warnings
    with np.errstate(all="ignore"):
        s = samples.std(axis=1, ddof=1)
        s_star = unbiased_stdev(s, n)
        # precision.stdev_stderr, with 0 for a zero-spread sample
        se = np.where(s_star > 0, (s * s * np.sqrt(2.0 / (n - 1))) / (2.0 * s_star), 0.0)
        lo, hi = stdev_ci95(s_star, se, n)
        mean_s, mean_s_star = float(s.mean()), float(s_star.mean())
    for name, value in (("mean(s)", mean_s), ("mean(s*)", mean_s_star)):
        if not math.isfinite(value):
            raise NonFiniteResult(f"{name} is {value}: sigma or mu is too close to "
                                  "the top of the float range")
    return SimResult(
        n=n,
        sigma=float(sigma),
        trials=trials,
        mean_s=mean_s,
        mean_s_star=mean_s_star,
        ci_coverage=float(((lo <= sigma) & (sigma <= hi)).mean()),
        seed=seed,
    )
