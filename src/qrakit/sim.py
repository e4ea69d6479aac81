"""Monte Carlo check of the de-biased estimators on normal samples.

Draws repeated samples of size n from Normal(mu, sigma), runs the stdev
part of the precision pipeline on each, and reports the empirical mean of
s and s* plus the fraction of confidence intervals that cover sigma.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameters
from .precision import c4, t_quantile


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
    if sigma <= 0:
        raise InvalidParameters(f"sigma must be > 0, got {sigma}")
    if trials < 1:
        raise InvalidParameters(f"trials must be >= 1, got {trials}")

    # numpy is loaded here, not at import, so only simulate pays for it
    import numpy as np

    if mu is None:
        mu = 10.0 * sigma
    rng = np.random.default_rng(seed)
    samples = rng.normal(mu, sigma, size=(trials, n))

    s = samples.std(axis=1, ddof=1)
    s_star = s / c4(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.where(s_star > 0,
                      (s * s * np.sqrt(2.0 / (n - 1))) / (2.0 * s_star), 0.0)
    half = t_quantile(0.975, n - 1) * se
    covered = (s_star - half <= sigma) & (sigma <= s_star + half)

    return SimResult(
        n=n,
        sigma=float(sigma),
        trials=trials,
        mean_s=float(s.mean()),
        mean_s_star=float(s_star.mean()),
        ci_coverage=float(covered.mean()),
        seed=seed,
    )
