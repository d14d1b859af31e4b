"""Boundary math against an arbitrary-precision oracle."""

import math
from itertools import accumulate

import numpy as np
import pytest
from mpmath import mp, mpf

from seqdml import Interval, MixtureParams, intersect_step, region_threshold, scalar_radius, tune_rho
from seqdml import Observation, Stream, StreamConfig
from seqdml.errors import ParameterError

mp.dps = 50


def oracle_scalar_radius(n, rho, alpha, sigma):
    n, rho, alpha, sigma = mpf(n), mpf(rho), mpf(alpha), mpf(sigma)
    factor = 2 * (n * rho**2 + 1) / (n**2 * rho**2)
    return sigma * mp.sqrt(factor * mp.log(mp.sqrt(n * rho**2 + 1) / alpha))


def oracle_region_threshold(n, rho, alpha, d):
    n, rho, alpha = mpf(n), mpf(rho), mpf(alpha)
    factor = 2 * (n * rho**2 + 1) / (n**2 * rho**2)
    return factor * mp.log((n * rho**2 + 1) ** (mpf(d) / 2) / alpha)


def oracle_tune_rho(alpha, m, sigma_sq):
    alpha, m, sigma_sq = mpf(alpha), mpf(m), mpf(sigma_sq)
    num = -2 * mp.log(alpha) + mp.log(-2 * mp.log(alpha)) + 1
    return mp.sqrt(num / (sigma_sq * m * mp.log(max(m, mp.e))))


class TestScalarRadius:
    def test_frozen_value(self):
        # Oracle value at 50 digits: 0.73127897427276971020...
        got = scalar_radius(100, MixtureParams(rho=0.1, alpha=0.05), 2.0)
        assert got == pytest.approx(0.7312789742727697, abs=1e-12)

    def test_zero_sigma(self):
        for n in (1, 7, 100, 10_000):
            assert scalar_radius(n, MixtureParams(rho=0.3, alpha=0.1), 0.0) == 0.0

    def test_linear_in_sigma(self):
        params = MixtureParams(rho=0.2, alpha=0.05)
        base = scalar_radius(50, params, 1.0)
        assert scalar_radius(50, params, 3.5) == pytest.approx(3.5 * base, rel=1e-15)

    def test_matches_region_threshold_at_d1(self):
        params = MixtureParams(rho=0.1, alpha=0.05, dim=1)
        radius = scalar_radius(100, params, 1.0)
        assert radius**2 == pytest.approx(region_threshold(100, params), rel=1e-12)

    def test_strictly_decreasing_in_n(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            params = MixtureParams(
                rho=float(rng.uniform(0.01, 5.0)), alpha=float(rng.uniform(0.001, 0.99))
            )
            sigma = float(rng.uniform(0.1, 10.0))
            n = int(rng.integers(1, 10_000))
            assert scalar_radius(n, params, sigma) > scalar_radius(n + 1, params, sigma)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 10**6))
            rho = float(rng.uniform(1e-3, 10.0))
            alpha = float(rng.uniform(1e-4, 0.999))
            sigma = float(rng.uniform(0.0, 100.0))
            got = scalar_radius(n, MixtureParams(rho=rho, alpha=alpha), sigma)
            want = float(oracle_scalar_radius(n, rho, alpha, sigma))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            MixtureParams(rho=0.0, alpha=0.05)
        with pytest.raises(ParameterError):
            MixtureParams(rho=-1.0, alpha=0.05)
        with pytest.raises(ParameterError):
            MixtureParams(rho=0.1, alpha=0.0)
        with pytest.raises(ParameterError):
            MixtureParams(rho=0.1, alpha=1.0)
        with pytest.raises(ParameterError):
            MixtureParams(rho=0.1, alpha=0.05, dim=0)
        with pytest.raises(ParameterError):
            scalar_radius(0, MixtureParams(rho=0.1, alpha=0.05), 1.0)
        with pytest.raises(ParameterError):
            scalar_radius(10, MixtureParams(rho=0.1, alpha=0.05), -0.5)


class TestRegionThreshold:
    def test_frozen_value_d2(self):
        got = region_threshold(100, MixtureParams(rho=0.1, alpha=0.05, dim=2))
        assert got == pytest.approx(0.14755517816455745, abs=1e-12)

    def test_d1_equals_squared_radius_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 10**6))
            rho = float(rng.uniform(1e-3, 10.0))
            alpha = float(rng.uniform(1e-4, 0.999))
            params = MixtureParams(rho=rho, alpha=alpha, dim=1)
            assert scalar_radius(n, params, 1.0) ** 2 == pytest.approx(
                region_threshold(n, params), rel=1e-12
            )

    def test_monotone_in_dim(self):
        prev = 0.0
        for d in range(1, 8):
            cur = region_threshold(50, MixtureParams(rho=0.5, alpha=0.05, dim=d))
            assert cur > prev
            prev = cur

    def test_formula_substitution_near_alpha_one(self):
        # n=1, rho=1, d=1: threshold = 4 log(sqrt(2)/alpha), positive for any
        # alpha in (0, 1) since sqrt(2) > 1.
        for alpha in (0.5, 0.9, 0.999):
            got = region_threshold(1, MixtureParams(rho=1.0, alpha=alpha, dim=1))
            assert got == pytest.approx(4.0 * math.log(math.sqrt(2.0) / alpha), rel=1e-12)
            assert got > 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 10**6))
            rho = float(rng.uniform(1e-3, 10.0))
            alpha = float(rng.uniform(1e-4, 0.999))
            d = int(rng.integers(1, 6))
            got = region_threshold(n, MixtureParams(rho=rho, alpha=alpha, dim=d))
            want = float(oracle_region_threshold(n, rho, alpha, d))
            assert got == pytest.approx(want, rel=1e-12)


class TestTuneRho:
    def test_frozen_values(self):
        assert tune_rho(0.05, 100, 1.0) == pytest.approx(0.1380921335027867, abs=1e-12)
        # m=1 collapses the time factor to log(e) = 1; numerator is
        # -2 log(0.05) + log(-2 log(0.05)) + 1 = 8.7818004280328760...
        assert tune_rho(0.05, 1, 1.0) == pytest.approx(2.9634102699479321, abs=1e-12)
        assert tune_rho(0.05, 1, 1.0) == pytest.approx(math.sqrt(8.781800428032876), abs=1e-12)

    def test_inverse_sqrt_scaling_in_sigma_sq(self):
        base = tune_rho(0.05, 200, 1.0)
        assert tune_rho(0.05, 200, 4.0) == pytest.approx(base / 2.0, rel=1e-15)

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha = float(rng.uniform(1e-4, 0.25))
            m = int(rng.integers(1, 10**6))
            s2 = float(rng.uniform(1e-6, 1e4))
            assert tune_rho(alpha, m, s2) == pytest.approx(
                float(oracle_tune_rho(alpha, m, s2)), rel=1e-12
            )

    def test_tuned_rho_beats_scaled_rho_at_target_time(self):
        # The tuning rule minimizes the radius near n = m log(m v e) (up to a
        # fixed calibration constant); at that time the tuned rho must beat
        # both half and double the tuned value.
        for alpha in (0.01, 0.05, 0.1):
            for m in (10, 50, 100, 1000):
                rho = tune_rho(alpha, m, 1.0)
                target_n = max(1, round(m * math.log(max(m, math.e))))
                at = lambda r: scalar_radius(target_n, MixtureParams(rho=r, alpha=alpha), 1.0)
                assert at(rho) < at(0.5 * rho)
                assert at(rho) < at(2.0 * rho)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            tune_rho(1.0, 10, 1.0)
        with pytest.raises(ParameterError):
            tune_rho(1.5, 10, 1.0)
        with pytest.raises(ParameterError):
            tune_rho(0.05, 10, 0.0)
        with pytest.raises(ParameterError):
            tune_rho(0.05, 10, -1.0)
        with pytest.raises(ParameterError):
            tune_rho(0.05, 0, 1.0)
        # alpha so large that the numerator goes negative
        with pytest.raises(ParameterError):
            tune_rho(0.9, 10, 1.0)


PARAMS = MixtureParams(rho=0.1, alpha=0.05)


# Each of these returned NaN, inf, 0.0 or a number without an error before
# n, m and dim had to be whole numbers and the variances finite.
@pytest.mark.parametrize("call", [
    pytest.param(lambda: MixtureParams(0.1, 0.05, dim=math.nan), id="dim-nan"),
    pytest.param(lambda: MixtureParams(0.1, 0.05, dim=1.5), id="dim-1.5"),
    pytest.param(lambda: scalar_radius(math.nan, PARAMS, 1.0), id="radius-n-nan"),
    pytest.param(lambda: scalar_radius(math.inf, PARAMS, 1.0), id="radius-n-inf"),
    pytest.param(lambda: scalar_radius(2.5, PARAMS, 1.0), id="radius-n-2.5"),
    pytest.param(lambda: scalar_radius(100, PARAMS, math.nan), id="radius-sigma-nan"),
    pytest.param(lambda: scalar_radius(100, PARAMS, math.inf), id="radius-sigma-inf"),
    pytest.param(lambda: region_threshold(math.nan, PARAMS), id="threshold-n-nan"),
    pytest.param(lambda: tune_rho(0.05, math.nan, 1.0), id="tune-m-nan"),
    pytest.param(lambda: tune_rho(0.05, math.inf, 1.0), id="tune-m-inf"),
    pytest.param(lambda: tune_rho(0.05, 2.5, 1.0), id="tune-m-2.5"),
    pytest.param(lambda: tune_rho(0.05, 100, math.inf), id="tune-sigma-inf"),
])
def test_non_finite_and_fractional_inputs_are_rejected(call):
    with pytest.raises(ParameterError, match="must be"):
        call()


# Each of these returned inf or NaN, or was accepted, before a result out
# of floating-point range raised; 1.055e-154 is about the smallest rho whose
# factor 2(rho^2 + 1)/rho^2 at n = 1 is finite.
@pytest.mark.parametrize("call", [
    pytest.param(lambda: MixtureParams(1e-160, 0.05), id="rho-1e-160"),
    pytest.param(lambda: MixtureParams(1e-154, 0.05), id="rho-1e-154"),
    pytest.param(lambda: MixtureParams(1e154, 0.05), id="rho-1e154"),
    pytest.param(lambda: scalar_radius(1, MixtureParams(1.06e-154, 0.05), 1.0), id="radius-inf"),
    pytest.param(lambda: scalar_radius(1, MixtureParams(1.06e-154, 0.05), 0.0), id="radius-nan"),
    pytest.param(lambda: scalar_radius(10**9, MixtureParams(1e150, 0.05), 1.0), id="radius-n-rho2"),
    pytest.param(lambda: region_threshold(1, MixtureParams(1.06e-154, 0.05)), id="threshold-inf"),
    pytest.param(lambda: tune_rho(0.05, 100, 1e-320), id="tune-inf"),
    pytest.param(lambda: tune_rho(0.05, 10**6, 1e308), id="tune-zero"),
])
def test_results_out_of_floating_point_range_are_rejected(call):
    with pytest.raises(ParameterError, match="out of (range|floating-point range)"):
        call()


def test_a_rho_just_in_range_is_accepted():
    params = MixtureParams(1.06e-154, 0.05)
    assert math.isfinite(scalar_radius(10, params, 0.5))
    assert math.isfinite(region_threshold(10, params))


def test_whole_numbers_of_any_type_are_accepted_unchanged():
    for n in (100.0, np.int64(100), np.float64(100.0)):
        assert scalar_radius(n, PARAMS, 2.0) == scalar_radius(100, PARAMS, 2.0)
        assert region_threshold(n, PARAMS) == region_threshold(100, PARAMS)
        assert tune_rho(0.05, n, 2.0) == tune_rho(0.05, 100, 2.0)
    assert MixtureParams(0.1, 0.05, dim=2.0) == MixtureParams(0.1, 0.05, dim=2)


def running(history):
    """The running intersection of a history: intersect_step folded over it."""
    return list(accumulate(history, intersect_step))


class TestIntersect:
    def test_running_max_min(self):
        out = running([Interval(0, 10), Interval(1, 9), Interval(2, 11)])
        assert [(i.lower, i.upper) for i in out] == [(0, 10), (1, 9), (2, 9)]

    def test_single_interval_identity(self):
        assert intersect_step(None, Interval(-1.5, 2.5)) == Interval(-1.5, 2.5)
        assert running([Interval(-1.5, 2.5)]) == [Interval(-1.5, 2.5)]

    def test_disjoint_inputs_flagged_empty(self):
        out = running([Interval(0, 1), Interval(2, 3)])
        assert (out[1].lower, out[1].upper) == (2, 1)
        assert out[1].is_empty
        assert not out[0].is_empty
        # An empty running interval is kept, and stays empty.
        assert running(out + [Interval(-5, 5)])[-1] == Interval(2, 1)

    def test_idempotent(self):
        # A second fold over the running intersection changes nothing.
        rng = np.random.default_rng(11)
        history = []
        for _ in range(50):
            lo = float(rng.normal())
            history.append(Interval(lo, lo + float(rng.uniform(0, 3))))
        once = running(history)
        assert running(once) == once

    def test_nested(self):
        rng = np.random.default_rng(12)
        history = [Interval(float(rng.normal()), float(rng.normal()) + 2) for _ in range(40)]
        out = running(history)
        for prev, cur in zip(out, out[1:]):
            assert cur.lower >= prev.lower
            assert cur.upper <= prev.upper

    def test_no_running_bound_starts_at_the_new_interval(self):
        # The first step returns the new interval itself, even an empty one.
        for new in (Interval(0, 1), Interval(2, 1), Interval(math.nan, 1.0)):
            assert intersect_step(None, new) is new

    def test_running_bound_is_the_first_argument(self):
        # max/min return their first argument on ties and against NaN, so the
        # running bound keeps its sign of zero and survives a NaN new bound.
        history = [Interval(-0.0, 0.0), Interval(0.0, -0.0), Interval(math.nan, math.nan)]
        out = running(history)
        signs = [(math.copysign(1.0, i.lower), math.copysign(1.0, i.upper)) for i in out]
        assert signs == [(-1.0, 1.0)] * 3
        assert intersect_step(Interval(0.5, 1.0), Interval(math.nan, 0.75)) == Interval(0.5, 0.75)
        assert math.isnan(running([Interval(math.nan, 1.0)])[0].lower)

    def test_matches_the_streams_intersected_bounds(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=20, k_folds=2))
        rng = np.random.default_rng(13)
        for n in range(20, 200, 10):
            while stream.n < n:
                x = float(rng.normal())
                a = int(rng.uniform() < 0.5)
                stream.push(Observation(y=a + x + float(rng.normal()), a=a, x=(x,)))
            stream.peek()
        out = running(Interval(p.lower, p.upper) for p in stream.peek_log)
        assert [(i.lower, i.upper) for i in out] == [
            (p.lower_int, p.upper_int) for p in stream.peek_log
        ]
