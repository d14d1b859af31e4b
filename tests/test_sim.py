"""Data-generating processes and the coverage experiment harness."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.stats import norm

from seqdml import (
    LateDgpParams,
    PartialIdDgpParams,
    Stream,
    StreamConfig,
    gen_late,
    gen_partial_id,
    run_coverage,
    run_pate_band,
)
from seqdml.errors import NotReadyError, ParameterError
from seqdml.sim import _check_design


class TestPartialIdDgp:
    def test_assignment_odds_ratio_is_gamma_exactly(self):
        # assignment depends on U only through 1(U > 0), so the odds ratio
        # between opposite U-signs, holding X fixed, is gamma_data exactly
        params = PartialIdDgpParams.from_seed(0)
        rng = np.random.default_rng(1)
        mu = np.asarray(params.mu)
        for _ in range(50):
            x = rng.uniform(size=params.d)
            base = params.alpha0 + float(x @ mu)
            odds_pos = math.exp(base + math.log(params.gamma_data))
            odds_neg = math.exp(base)
            assert odds_pos / odds_neg == pytest.approx(params.gamma_data, rel=1e-12)

    def test_null_effect(self):
        params = PartialIdDgpParams.from_seed(2, tau=0.0)
        _, oracle = gen_partial_id(500, params, seed=3)
        assert np.array_equal(oracle.y0, oracle.y1)

    def test_fixed_seed_reproducible(self):
        params = PartialIdDgpParams.from_seed(4)
        cols1, orc1 = gen_partial_id(200, params, seed=5)
        cols2, orc2 = gen_partial_id(200, params, seed=5)
        assert cols1.z is None and cols2.z is None
        assert all(np.array_equal(c1, c2) for c1, c2 in zip(cols1[:3], cols2[:3]))
        assert np.array_equal(orc1.u, orc2.u)

    def test_tau_shift(self):
        params = PartialIdDgpParams.from_seed(6)
        _, oracle = gen_partial_id(300, params, seed=7)
        assert np.allclose(oracle.y1 - oracle.y0, params.tau)

    def test_hyperparams_drawn_once(self):
        p1 = PartialIdDgpParams.from_seed(8)
        p2 = PartialIdDgpParams.from_seed(8)
        assert p1.mu == p2.mu and p1.beta == p2.beta
        assert PartialIdDgpParams.from_seed(9).mu != p1.mu

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ParameterError):
            PartialIdDgpParams.from_seed(0, gamma_data=0.9)

    @pytest.mark.parametrize("gamma_data", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, gamma_data):
        with pytest.raises(ParameterError, match=f"gamma must be a real >= 1, got {gamma_data}"):
            PartialIdDgpParams.from_seed(0, gamma_data=gamma_data)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ParameterError, match=f"tau must be finite, got {tau}"):
            PartialIdDgpParams.from_seed(0, tau=tau)


class TestLateDgp:
    def test_monotone_potential_treatments(self):
        params = LateDgpParams.from_seed(1)
        _, oracle = gen_late(100_000, params, seed=2)
        assert np.all(oracle.a1 >= oracle.a0)

    def test_instrument_frequency(self):
        params = LateDgpParams.from_seed(3)
        columns, _ = gen_late(10_000, params, seed=4)
        z_mean = np.mean(columns.z)
        assert 0.37 <= z_mean <= 0.43

    def test_constant_effect_on_compliers(self):
        params = LateDgpParams.from_seed(5)
        _, oracle = gen_late(5000, params, seed=6)
        # the effect is theta for every unit, so in particular for compliers
        assert oracle.complier.mean() > 0.1
        assert params.theta == 3.0

    def test_relevance_required(self):
        with pytest.raises(ParameterError):
            LateDgpParams.from_seed(7, alpha_z=0.0)


class TestRunCoverage:
    def test_single_rep_curve_is_binary_and_nondecreasing(self):
        result = run_coverage(
            dgp="late", estimand="late", reps=1, n_max=1500, peek_every=250,
            seed=11, burn_in=500,
        )
        for method in ("asympcs", "batch"):
            curve = result.miss[method][0]
            assert set(np.unique(curve)).issubset({0.0, 1.0})
            assert np.all(np.diff(curve) >= 0)

    def test_cumulative_curves_nondecreasing_across_reps(self):
        result = run_coverage(
            dgp="late", estimand="late", reps=5, n_max=1500, peek_every=250,
            seed=12, burn_in=500,
        )
        for method in ("asympcs", "batch"):
            agg = result.cumulative_miscoverage(method)
            assert np.all(np.diff(agg) >= -1e-12)
            per_rep = result.miss[method]
            assert np.all(np.diff(per_rep, axis=1) >= 0)

    def test_artifacts_written(self):
        # the rows and peek logs that `seqdml simulate` writes to results.csv,
        # curves.csv and peeks/rep_*.ndjson
        reps, n_max, peek_every = 3, 1000, 250
        result = run_coverage(
            dgp="late", estimand="late", reps=reps, n_max=n_max,
            peek_every=peek_every, seed=13,
        )
        grid_points = n_max // peek_every
        assert len(result.per_rep_rows()) == 2 * reps * grid_points
        assert len(result.aggregate_rows()) == 2 * grid_points
        assert len(result.peek_logs) == reps
        for log in result.peek_logs:
            assert [point.n for point in log] == [250, 500, 750, 1000]

    def test_partial_id_with_no_confounding_covers(self):
        # gamma_data = 1 makes assignment ignorable, so the plain doubly
        # robust sequence should cover tau here
        params = PartialIdDgpParams.from_seed(14, gamma_data=1.0)
        result = run_coverage(
            dgp="partial_id", estimand="ate", reps=3, n_max=2000, peek_every=500,
            seed=14, dgp_params=params,
        )
        assert result.truth == params.tau
        assert result.miss["asympcs"][:, -1].mean() <= 1.0 / 3.0

    def test_peek_logs_nested(self):
        result = run_coverage(
            dgp="late", estimand="late", reps=2, n_max=1500, peek_every=250,
            seed=15, burn_in=500,
        )
        for log in result.peek_logs:
            for prev, cur in zip(log, log[1:]):
                assert cur.lower_int >= prev.lower_int
                assert cur.upper_int <= prev.upper_int

    def test_bad_dgp_rejected(self):
        with pytest.raises(ParameterError):
            run_coverage(dgp="nope", estimand="ate", reps=1, n_max=500)


def per_row_coverage(dgp, estimand, reps, n_max, peek_every, seed, burn_in,
                     alpha=0.05, dgp_params=None):
    """Oracle: the per-row loop of the earlier run_coverage, which pushed
    every row and carried the last peek's miss and widths across deferred
    peeks by hand. Returns (miss, width) keyed like CoverageResult."""
    grid = [g for g in range(peek_every, n_max + 1, peek_every) if g >= burn_in]
    if dgp == "late":
        params = dgp_params or LateDgpParams.from_seed(seed)
        truth = params.theta
    else:
        params = dgp_params or PartialIdDgpParams.from_seed(seed)
        truth = params.tau
    z_crit = float(norm.ppf(1.0 - alpha / 2.0))
    shape = (reps, len(grid))
    miss_cs, miss_batch = np.zeros(shape), np.zeros(shape)
    width_cs, width_batch = np.zeros(shape), np.zeros(shape)
    for rep in range(reps):
        gen = gen_late if dgp == "late" else gen_partial_id
        columns, _ = gen(n_max, params, seed=[seed, 1 + rep])
        stream = Stream(StreamConfig(estimand=estimand, alpha=alpha, k_folds=5,
                                     burn_in=burn_in, gamma=1.0))
        grid_set = set(grid)
        cum_batch = 0.0
        prev_cs, prev_wcs, prev_wb = 0.0, math.nan, math.nan
        j = 0
        for i in range(n_max):
            stream.push_batch(*columns.rows(i, i + 1))
            if (i + 1) in grid_set:
                try:
                    point = stream.peek()
                except NotReadyError:
                    miss_cs[rep, j] = prev_cs
                    miss_batch[rep, j] = cum_batch
                    width_cs[rep, j] = prev_wcs
                    width_batch[rep, j] = prev_wb
                    j += 1
                    continue
                n = point.n
                cs_missed = not (point.lower_int <= truth <= point.upper_int)
                half = z_crit * point.sigma_hat / math.sqrt(n)
                batch_missed = not (point.theta_hat - half <= truth <= point.theta_hat + half)
                cum_batch = max(cum_batch, float(batch_missed))
                prev_cs = float(cs_missed)
                prev_wcs = point.upper - point.lower
                prev_wb = 2.0 * half
                miss_cs[rep, j] = prev_cs
                miss_batch[rep, j] = cum_batch
                width_cs[rep, j] = prev_wcs
                width_batch[rep, j] = prev_wb
                j += 1
    return ({"asympcs": miss_cs, "batch": miss_batch},
            {"asympcs": width_cs, "batch": width_batch})


class TestGridWalkMatchesPerRowLoop:
    @pytest.mark.parametrize("dgp, estimand, kwargs", [
        ("late", "late", dict(reps=2, n_max=1100, peek_every=250, seed=11, burn_in=500)),
        ("partial_id", "ate", dict(reps=2, n_max=1200, peek_every=300, seed=14, burn_in=300,
                                   dgp_params=PartialIdDgpParams.from_seed(14, gamma_data=1.0))),
        # Every early score is zero on some reps, so rho cannot be tuned and
        # peeks are deferred; those cells carry no width.
        ("late", "late", dict(reps=4, n_max=300, peek_every=10, seed=3, burn_in=10)),
    ])
    def test_miss_and_width_equal_the_oracle(self, dgp, estimand, kwargs):
        result = run_coverage(dgp=dgp, estimand=estimand, **kwargs)
        miss, width = per_row_coverage(dgp, estimand, **kwargs)
        for method in ("asympcs", "batch"):
            assert np.array_equal(result.miss[method], miss[method], equal_nan=True)
            assert np.array_equal(result.width[method], width[method], equal_nan=True)
        if kwargs["n_max"] == 300:
            assert np.isnan(result.width["asympcs"]).any()


class TestRunPateBand:
    def test_band_contains_truth_and_has_width(self):
        result = run_pate_band(n_max=1500, peek_every=500, burn_in=500, seed=21)
        assert len(result.points) == 3
        assert all(result.contained)
        assert result.widths[-1] > 0.1

    def test_gamma_defaults_to_dgp_gamma(self):
        params = PartialIdDgpParams.from_seed(22)
        result = run_pate_band(n_max=1000, peek_every=500, seed=22, dgp_params=params)
        assert result.truth == params.tau


class TestEmptyPeekGrid:
    @pytest.mark.parametrize("kwargs", [
        dict(n_max=300, peek_every=500),
        dict(n_max=300, peek_every=-5),
        dict(n_max=300, peek_every=0),
        dict(n_max=1000, peek_every=250, burn_in=2000),
    ])
    @pytest.mark.parametrize("runner", ["coverage", "band"])
    def test_rejected_with_a_parameter_error(self, runner, kwargs):
        with pytest.raises(ParameterError, match="peek"):
            if runner == "coverage":
                run_coverage(dgp="late", estimand="late", reps=1, **kwargs)
            else:
                run_pate_band(**kwargs)


DGPS = {"late": LateDgpParams, "partial_id": PartialIdDgpParams}


class TestBadDgpInputs:
    """Bad simulator inputs raise ParameterError before any row is drawn,
    instead of failing in the generator or running on NaN rows."""

    @pytest.mark.parametrize("d", [0, -1, 2.5])
    @pytest.mark.parametrize("dgp", sorted(DGPS))
    def test_dimension_must_be_a_positive_integer(self, dgp, d):
        with pytest.raises(ParameterError, match=r"d must be an integer >= 1"):
            DGPS[dgp].from_seed(0, d=d)

    def test_dimension_zero_rejected_when_built_directly(self):
        with pytest.raises(ParameterError, match=r"d must be an integer >= 1, got 0"):
            PartialIdDgpParams(mu=(), beta=(), d=0)
        with pytest.raises(ParameterError, match=r"d must be an integer >= 1, got 0"):
            LateDgpParams(beta=(), d=0)

    @pytest.mark.parametrize("field, value", [
        ("alpha0", math.nan), ("alpha0", math.inf),
        ("mu", (math.nan, 0.0)), ("beta", (0.0, -math.inf)),
    ])
    def test_partial_id_values_must_be_finite(self, field, value):
        kwargs = {"mu": (0.0, 0.0), "beta": (0.0, 0.0), "d": 2, field: value}
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            PartialIdDgpParams(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("theta", math.nan), ("theta", -math.inf), ("beta", (math.nan, 0.0)),
    ])
    def test_late_values_must_be_finite(self, field, value):
        kwargs = {"beta": (0.0, 0.0), "d": 2, field: value}
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            LateDgpParams(**kwargs)

    @pytest.mark.parametrize("alpha_z", [math.inf, math.nan, -1.0])
    def test_alpha_z_must_be_finite_and_positive(self, alpha_z):
        with pytest.raises(ParameterError, match="alpha_z must be a finite positive real"):
            LateDgpParams.from_seed(0, alpha_z=alpha_z)

    def test_a_nan_alpha0_band_run_fails_instead_of_returning_no_points(self):
        with pytest.raises(ParameterError, match="alpha0 must be finite"):
            run_pate_band(n_max=1000, peek_every=500, gamma=1.5,
                          dgp_params=PartialIdDgpParams.from_seed(0, alpha0=math.nan))

    @pytest.mark.parametrize("dgp, given", [
        ("late", "partial_id"), ("partial_id", "late"),
    ])
    def test_coverage_dgp_params_of_the_wrong_class_rejected(self, dgp, given):
        expected = DGPS[dgp].__name__
        with pytest.raises(ParameterError, match=f"dgp_params must be a {expected}"):
            run_coverage(dgp=dgp, estimand="ate", reps=1, n_max=500,
                         dgp_params=DGPS[given].from_seed(0))

    @pytest.mark.parametrize("dgp, estimand", [("late", "late"), ("partial_id", "ate")])
    def test_seed_must_be_a_non_negative_integer(self, dgp, estimand):
        # The runners draw rows from their seed even when given parameters.
        cls, given = DGPS[dgp], DGPS[dgp].from_seed(0)
        for seed in [-1, np.int64(-3), 1.5, "0"]:
            message = re.escape(f"seed must be an integer >= 0, got {seed!r}")
            for make in [
                lambda: cls.from_seed(seed),
                lambda: dataclasses.replace(given, seed=seed),
                lambda: run_coverage(dgp=dgp, estimand=estimand, reps=1, n_max=500, seed=seed),
                lambda: run_coverage(dgp=dgp, estimand=estimand, reps=1, n_max=500, seed=seed,
                                     dgp_params=given),
                *([lambda: run_pate_band(n_max=1000, seed=seed),
                   lambda: run_pate_band(n_max=1000, seed=seed, dgp_params=given)]
                  if dgp == "partial_id" else []),
            ]:
                with pytest.raises(ParameterError, match=message):
                    make()
        assert cls.from_seed(np.int64(7)) == cls.from_seed(7)
        assert dataclasses.replace(given, seed=np.uint8(0)) == given

    def test_band_dgp_params_of_the_wrong_class_rejected(self):
        with pytest.raises(ParameterError, match="dgp_params must be a PartialIdDgpParams"):
            run_pate_band(n_max=1000, peek_every=500, dgp_params=LateDgpParams.from_seed(0))


def _explicit_partial_id_from_seed(seed, d=4, tau=-0.5, gamma_data=math.exp(0.6), alpha0=0.0):
    """PartialIdDgpParams.from_seed as written with every default in its signature."""
    _check_design(d)
    rng = np.random.default_rng([seed, 0xD6])
    return PartialIdDgpParams(
        mu=tuple(rng.standard_normal(d)), beta=tuple(rng.standard_normal(d)), d=d, tau=tau,
        gamma_data=gamma_data, alpha0=alpha0, seed=seed,
    )


def _explicit_late_from_seed(seed, d=2, theta=3.0, alpha_z=2.0, p_instrument=0.4):
    """LateDgpParams.from_seed as written with every default in its signature."""
    _check_design(d)
    rng = np.random.default_rng([seed, 0x1A7E])
    return LateDgpParams(
        beta=tuple(rng.normal(0.0, math.sqrt(0.5), d)), d=d, theta=theta, alpha_z=alpha_z,
        p_instrument=p_instrument, seed=seed,
    )


# Values to draw each design keyword from, some of them invalid.
_DESIGN_VALUES = {
    "partial_id": (_explicit_partial_id_from_seed, {
        "d": [1, 2, 4, 7, 0, 2.5],
        "tau": [-0.5, 0.0, 0.3, -2.0, math.nan],
        "gamma_data": [1.0, 1.5, math.exp(0.6), 3.0, 0.9, math.inf],
        "alpha0": [0.0, -1.0, 0.5, math.nan],
    }),
    "late": (_explicit_late_from_seed, {
        "d": [1, 2, 3, 5, 0, -1],
        "theta": [3.0, 0.0, -1.5, math.inf],
        "alpha_z": [2.0, 0.5, 4.0, 0.0, math.nan],
        "p_instrument": [0.4, 0.1, 0.9, 1.0],
    }),
}


def _outcome(make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except ParameterError as exc:
        return str(exc)


class TestFromSeed:
    """from_seed takes every default from its class's fields; the oracle is
    the form that restated them in its signature."""

    @pytest.mark.parametrize("dgp", sorted(DGPS))
    def test_equals_the_explicit_signature_form(self, dgp):
        explicit, values = _DESIGN_VALUES[dgp]
        rng = np.random.default_rng(29)
        outcomes = []
        for _ in range(300):
            keys = [key for key in values if rng.uniform() < 0.5]
            design = {key: values[key][rng.integers(len(values[key]))] for key in keys}
            seed = int(rng.integers(1000))
            outcome = _outcome(DGPS[dgp].from_seed, seed, **design)
            assert outcome == _outcome(explicit, seed, **design), design
            outcomes.append(outcome)
        assert DGPS[dgp].from_seed(0) == explicit(0)
        made = [o for o in outcomes if isinstance(o, DGPS[dgp])]
        assert 50 < len(made) < 250  # both built and refused designs were drawn

    @pytest.mark.parametrize("dgp", sorted(DGPS))
    @pytest.mark.parametrize("design", [{"bogus": 1}, {"seed": 3}, {"beta": (0.0, 0.0)}])
    def test_a_keyword_that_is_not_a_design_field_is_a_type_error(self, dgp, design):
        with pytest.raises(TypeError):
            DGPS[dgp].from_seed(0, **design)
