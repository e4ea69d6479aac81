import math
import sys

import pytest

from qrakit.errors import InvalidParameters, NonFiniteResult
from qrakit.precision import c4
from qrakit.sim import simulate


class TestSimulate:
    def test_seeded_determinism(self):
        assert simulate(5, 1.0, 2000, 42) == simulate(5, 1.0, 2000, 42)
        assert simulate(5, 1.0, 2000, 42) != simulate(5, 1.0, 2000, 43)

    def test_mean_s_matches_c4(self):
        result = simulate(5, 1.0, 50_000, 42)
        assert result.mean_s == pytest.approx(c4(5), abs=0.01)
        assert result.mean_s_star == pytest.approx(1.0, abs=0.01)

    def test_n2_bias(self):
        result = simulate(2, 1.0, 50_000, 7)
        assert result.mean_s == pytest.approx(math.sqrt(2 / math.pi), abs=0.01)

    def test_scale_check(self):
        result = simulate(2, 10.0, 50_000, 1)
        assert result.mean_s_star == pytest.approx(10.0, abs=0.1)

    def test_bias_ordering(self):
        for n, seed in ((2, 1), (3, 2), (5, 3), (10, 4)):
            result = simulate(n, 1.0, 5000, seed)
            assert result.mean_s < result.mean_s_star

    def test_coverage_sanity_band(self):
        for n in (5, 10):
            result = simulate(n, 1.0, 20_000, 42)
            assert 0.80 <= result.ci_coverage <= 0.99

    def test_single_trial_positive_spread(self):
        result = simulate(3, 1.0, 1, 99)
        assert result.mean_s_star > 0

    @pytest.mark.parametrize("kwargs", [
        dict(n=1, sigma=1.0, trials=10, seed=0),
        dict(n=5, sigma=0.0, trials=10, seed=0),
        dict(n=5, sigma=1.0, trials=0, seed=0),
        dict(n=5, sigma=math.nan, trials=10, seed=0),
        dict(n=5, sigma=math.inf, trials=10, seed=0),
        dict(n=5, sigma=1.0, trials=10, seed=-1),
        dict(n=5, sigma=1.0, trials=10**21, seed=0),
        dict(n=10**30, sigma=1.0, trials=1, seed=0),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameters):
            simulate(**kwargs)

    @pytest.mark.parametrize("k", [1e-300, 1e200, 1e307])
    def test_scale_is_exact(self, k):
        # drawn on the unit scale: sigma only multiplies the means
        unit, scaled = simulate(5, 1.0, 1000, 1), simulate(5, k, 1000, 1)
        assert scaled.mean_s == k * unit.mean_s
        assert scaled.mean_s_star == k * unit.mean_s_star
        assert scaled.ci_coverage == unit.ci_coverage

    def test_overflowing_spread_is_not_a_result(self):
        # mean(s*) is about sigma, which here is the largest float
        with pytest.raises(NonFiniteResult, match=r"^mean\(s\*\) is inf: "):
            simulate(5, sys.float_info.max, 100, 0)
