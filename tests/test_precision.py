import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.special import stdtrit

from qrakit.errors import (
    DegenerateMean,
    InvalidDf,
    InvalidProbability,
    InvalidSampleSize,
    NonFiniteResult,
    ValueBelowScale,
)
from qrakit.precision import (
    _T_975,
    c4,
    cv_star_pipeline,
    sample_stats,
    shift_values,
    stdev_ci95,
    stdev_stderr,
    t_quantile,
    unbiased_stdev,
)

# Inverse-CDF reference values from standard published t tables (4 d.p.),
# two-sided 95% so p = 0.975, df = 1..30.
T_975 = [
    12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
    2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
    2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
    2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
]


class TestShiftValues:
    def test_seven_point_scale(self):
        assert shift_values([5.64, 6.30], 1) == pytest.approx([4.64, 5.30])

    def test_zero_shift_is_identity(self):
        assert shift_values([0.428, 0.600], 0) == [0.428, 0.600]

    def test_percentages_unchanged(self):
        assert shift_values([91, 96.75], 0) == [91, 96.75]

    def test_below_scale_rejected(self):
        with pytest.raises(ValueBelowScale):
            shift_values([0.9, 5.0], 1)


class TestC4:
    # closed form for n=2 is sqrt(2/pi); larger n frozen from a
    # high-precision gamma evaluation, matching published c4 tables
    @pytest.mark.parametrize("n,expected", [
        (2, math.sqrt(2 / math.pi)),
        (3, 0.886226925453),
        (4, 0.921317731924),
        (5, 0.939985602987),
        (7, 0.959368789),
        (8, 0.965030456),
        (10, 0.972659274),
    ])
    def test_reference_values(self, n, expected):
        assert c4(n) == pytest.approx(expected, abs=1e-9)

    def test_strictly_increasing_toward_one(self):
        values = [c4(n) for n in range(2, 200)]
        assert all(0 < v < 1 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert c4(10_000) == pytest.approx(1.0, abs=1e-4)

    def test_too_small_n(self):
        with pytest.raises(InvalidSampleSize):
            c4(1)


class TestSampleStats:
    def test_two_point_closed_form(self):
        mean, s = sample_stats([4.64, 5.30])
        assert mean == pytest.approx(4.97)
        assert s == pytest.approx(abs(4.64 - 5.30) / math.sqrt(2))

    def test_stance_scores(self):
        mean, s = sample_stats([91, 96.75])
        assert mean == pytest.approx(93.875)
        assert s == pytest.approx(4.066, abs=5e-4)

    def test_constant_sample(self):
        mean, s = sample_stats([3.3, 3.3, 3.3])
        assert mean == 3.3
        assert s == 0.0

    def test_single_value_rejected(self):
        with pytest.raises(InvalidSampleSize):
            sample_stats([1.0])


class TestUnbiasedStdev:
    def test_stance_pair(self):
        assert unbiased_stdev(4.066, 2) == pytest.approx(5.096, abs=1e-3)

    def test_n7(self):
        assert unbiased_stdev(1.238, 7) == pytest.approx(1.290, abs=1e-3)

    def test_zero_spread(self):
        assert unbiased_stdev(0.0, 5) == 0.0


class TestStdevStderr:
    def test_n7(self):
        assert stdev_stderr(1.238, 1.290, 7) == pytest.approx(0.3431, abs=5e-4)

    def test_n2(self):
        assert stdev_stderr(4.066, 5.096, 2) == pytest.approx(2.294, abs=1e-3)

    def test_zero_spread_returns_zero(self):
        assert stdev_stderr(0.0, 0.0, 5) == 0.0


class TestTQuantile:
    @pytest.mark.parametrize("df", range(1, 31))
    def test_against_published_table(self, df):
        assert t_quantile(0.975, df) == pytest.approx(T_975[df - 1], abs=5e-4)

    def test_median_is_zero(self):
        assert t_quantile(0.5, 4) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidProbability):
            t_quantile(1.0, 3)
        with pytest.raises(InvalidDf):
            t_quantile(0.975, 0)


class TestTQuantileTable:
    """The df 1-30 table at p = 0.975 is a memo of stdtrit, bit for bit."""

    def test_covers_df_1_to_30(self):
        assert list(_T_975) == list(range(1, 31))

    @pytest.mark.parametrize("df", range(1, 31))
    def test_entry_equals_stdtrit(self, df):
        assert _T_975[df] == float(stdtrit(df, 0.975))

    @pytest.mark.parametrize("df", [2.5, 3.0, np.int64(3), 31, 1000],
                             ids=["2.5", "3.0", "int64-3", "31", "1000"])
    @pytest.mark.parametrize("p", [0.5, 0.9, 0.975, 0.995])
    def test_equals_stdtrit_on_and_off_the_table(self, p, df):
        assert t_quantile(p, df) == float(stdtrit(df, p))

    @pytest.mark.parametrize("p, df, error", [
        (0.0, 3, InvalidProbability),
        (1.5, 3, InvalidProbability),
        (0.975, 0.5, InvalidDf),
        (0.975, -3, InvalidDf),
    ])
    def test_argument_checks_run_before_the_lookup(self, p, df, error):
        with pytest.raises(error):
            t_quantile(p, df)


class TestStdevCi95:
    def test_n7(self):
        lo, hi = stdev_ci95(1.290, 0.3431, 7)
        assert lo == pytest.approx(0.45, abs=5e-3)
        assert hi == pytest.approx(2.13, abs=5e-3)

    def test_n4_negative_lower_bound(self):
        lo, hi = stdev_ci95(1.0222, 0.3542, 4)
        assert lo == pytest.approx(-0.11, abs=5e-3)
        assert hi == pytest.approx(2.15, abs=5e-3)

    def test_zero_stderr_collapses(self):
        assert stdev_ci95(1.5, 0.0, 5) == (1.5, 1.5)


class TestCvStarPipeline:
    def test_nts_bleu(self):
        result = cv_star_pipeline(
            [84.51, 84.50, 87.46, 85.60, 84.20, 86.61, 86.20], 0)
        assert result.cv_star == pytest.approx(1.562, abs=1e-3)

    def test_stance_pair(self):
        result = cv_star_pipeline([91, 96.75], 0)
        assert result.cv_star == pytest.approx(6.107, abs=1e-3)

    def test_nts_sari(self):
        result = cv_star_pipeline([30.65, 30.65, 29.13, 30.65, 29.96], 0)
        assert result.cv_star == pytest.approx(2.487, abs=1e-3)
        assert result.ci95[0] == pytest.approx(0.095, abs=5e-3)
        assert result.ci95[1] == pytest.approx(1.34, abs=5e-3)

    def test_two_point_brute_force(self):
        # closed form for n=2, assembled by hand from the definitions
        a, b = 3.2, 4.7
        s = abs(a - b) / math.sqrt(2)
        s_star = s / math.sqrt(2 / math.pi)
        se = (s * s * math.sqrt(2)) / (2 * s_star)
        cv_star = (1 + 1 / 8) * 100 * s_star / ((a + b) / 2)
        result = cv_star_pipeline([a, b], 0)
        assert result.s == pytest.approx(s, rel=1e-12)
        assert result.s_star == pytest.approx(s_star, rel=1e-12)
        assert result.se_s_star == pytest.approx(se, rel=1e-12)
        assert result.cv_star == pytest.approx(cv_star, rel=1e-12)

    def test_degenerate_mean(self):
        with pytest.raises(DegenerateMean):
            cv_star_pipeline([1.0, 1.0], 1.0)

    @pytest.mark.parametrize("values", [[1e200, 2e200], [1e-300, 2e-300]])
    def test_extreme_magnitudes_keep_cv_star(self, values):
        result = cv_star_pipeline(values, 0.0)
        assert result.cv_star == pytest.approx(66.467, abs=1e-3)
        assert result.cv_star == pytest.approx(cv_star_pipeline([1.0, 2.0]).cv_star,
                                               rel=1e-12)
        lo, hi = result.ci95
        assert math.isfinite(lo) and math.isfinite(hi) and lo < result.s_star < hi
        assert result.se_s_star > 0.0 and not result.degenerate_spread

    def test_subnormal_pair_matches_unit_pair(self):
        # exactly 1:2, so every ratio must carry the bits of [1, 2]
        result = cv_star_pipeline([5e-324, 1e-323], 0.0)
        assert result.cv_star == cv_star_pipeline([1.0, 2.0], 0.0).cv_star

    def test_top_of_range_cv_star_is_finite(self):
        # 100 * s* overflows here, although s*, se and the CI are finite
        result = cv_star_pipeline([1e300, 1e307, 2e307], 0.0)
        reference = cv_star_pipeline([1e-7, 1.0, 2.0], 0.0)
        assert math.isfinite(result.cv_star)
        assert result.cv_star == pytest.approx(reference.cv_star, rel=1e-9)
        assert all(math.isfinite(bound) for bound in result.ci95)

    def test_infinite_ci_raises(self):
        with pytest.raises(NonFiniteResult, match="CI lower bound is -inf"):
            cv_star_pipeline([1e300, 1.7e308], 0.0)

    def test_constant_sample_flagged(self):
        result = cv_star_pipeline([5.0, 5.0, 5.0], 0)
        assert result.cv_star == 0.0
        assert result.degenerate_spread
        assert result.ci95 == (0.0, 0.0)


values_strategy = st.lists(
    st.floats(min_value=0.01, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=12,
)


class TestProperties:
    @given(values_strategy, st.floats(min_value=1e-300, max_value=1e300))
    def test_scale_invariance(self, values, k):
        try:
            base = cv_star_pipeline(values, 0.0)
        except DegenerateMean:
            return
        scaled = cv_star_pipeline([k * v for v in values], 0.0)
        assert scaled.cv_star == pytest.approx(base.cv_star, rel=1e-9)

    @given(st.lists(st.integers(1, 2 ** 10), min_size=2, max_size=12),
           # half the factors put the values among the subnormals
           st.one_of(st.integers(-1074, -1023), st.integers(-1022, 1023)))
    def test_power_of_two_scale_invariance(self, values, k):
        """Integers times 2**k are exact down to the smallest subnormal, so
        CV* keeps its bits wherever the scaled values and results fit."""
        assume(all(k + v.bit_length() <= 1024 for v in values))  # no value overflows
        try:
            result = cv_star_pipeline([math.ldexp(v, k) for v in values], 0.0)
        except NonFiniteResult:
            assert k > 1000  # s* or its CI leaves the float range
            return
        assert result.cv_star == cv_star_pipeline(values, 0.0).cv_star

    @given(values_strategy)
    def test_scaling_leaves_moderate_results_bit_identical(self, values):
        """Power-of-two scaling is exact, so the unscaled formulas agree."""
        if len(set(values)) == 1:
            return
        n = len(values)
        mean = math.fsum(values) / n
        s = math.sqrt(math.fsum((v - mean) * (v - mean) for v in values) / (n - 1))
        assert sample_stats(values) == (mean, s)
        s_star = unbiased_stdev(s, n)
        se = (s * s * math.sqrt(2.0 / (n - 1))) / (2.0 * s_star)
        assert stdev_stderr(s, s_star, n) == se
        half = t_quantile(0.975, n - 1) * se
        cv = 100.0 * s_star / mean
        result = cv_star_pipeline(values, 0.0)
        assert (result.mean, result.s, result.s_star, result.se_s_star, result.ci95,
                result.cv, result.cv_star) == \
            (mean, s, s_star, se, (s_star - half, s_star + half), cv,
             (1.0 + 1.0 / (4.0 * n)) * cv)

    @given(values_strategy)
    def test_cv_scaling_is_bit_identical(self, values):
        try:
            result = cv_star_pipeline(values, 0.0)
        except DegenerateMean:
            return
        assert result.cv == 100.0 * result.s_star / result.mean

    @given(values_strategy)
    def test_cv_star_zero_iff_constant(self, values):
        try:
            result = cv_star_pipeline(values, 0.0)
        except DegenerateMean:
            return
        if len(set(values)) == 1:
            assert result.cv_star == 0.0
        else:
            assert result.cv_star > 0.0

    @given(values_strategy)
    def test_s_star_dominates_s_and_ci_symmetric(self, values):
        try:
            result = cv_star_pipeline(values, 0.0)
        except DegenerateMean:
            return
        assert result.s_star >= result.s
        if result.s > 0:
            assert result.s_star > result.s
        lo, hi = result.ci95
        # symmetric by construction; float rounding allows last-ulp wiggle
        assert math.isclose(hi - result.s_star, result.s_star - lo,
                            rel_tol=1e-12, abs_tol=1e-15)
