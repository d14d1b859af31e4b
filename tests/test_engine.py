"""Streaming engine: scheduling, nesting, determinism, stopping, bands."""

import json
from collections import Counter

import numpy as np
import pytest

from seqdml import (
    Columns,
    engine,
    run_coverage,
    run_pate_band,
    sim,
    LearnerSpec,
    Observation,
    StopRule,
    Stream,
    StreamConfig,
    excludes_zero,
    gen_late,
    gen_partial_id,
    pate_band,
    width_below,
    LateDgpParams,
    PartialIdDgpParams,
)
from seqdml.crossfit import ScoreMoments
from seqdml.engine import _TABLE, ESTIMANDS
from seqdml.errors import (
    EstimandError,
    IngestError,
    NotReadyError,
    NuisanceError,
    ParameterError,
    SyncError,
)
from seqdml.nuisance import GbtForest, GbtModel, LogisticModel, RidgeModel, dump_model, fit_nu
from seqdml.scores import (
    GammaParam,
    NuisanceEval,
    aipw_score,
    gateaux_orthogonality_check,
    late_score,
    partial_id_score,
    plr_score,
)

from conftest import generated_columns
from test_nuisance import oracle_predict

NDJSON_ORDER = ["n", "estimate", "sigma", "lower", "upper", "lower_int", "upper_int", "stopped"]


def null_effect_columns(n, seed=0):
    """Balanced treatment, outcome independent of treatment: effect is zero."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    a = np.tile([0.0, 1.0], n // 2 + 1)[:n]
    y = x[:, 0] + 0.5 * rng.normal(size=n)
    return Columns(y, a, x)


class TestPush:
    def test_round_robin_fold_sizes(self):
        stream = Stream(StreamConfig(estimand="ate", k_folds=5, burn_in=10))
        for obs in observations_of(null_effect_columns(10)):
            stream.push(obs)
        counts = np.bincount(stream.plan.assignments(stream.n), minlength=5)
        assert counts.tolist() == [2, 2, 2, 2, 2]

    def test_missing_instrument_on_late(self):
        stream = Stream(StreamConfig(estimand="late", burn_in=10))
        with pytest.raises(IngestError):
            stream.push(Observation(y=1.0, a=1, x=(0.0,)))

    def test_dimension_change_rejected(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=10))
        stream.push(Observation(y=1.0, a=1, x=(0.0, 1.0)))
        with pytest.raises(IngestError):
            stream.push(Observation(y=1.0, a=0, x=(0.0,)))

    def test_observation_without_covariates_rejected(self):
        # The coef learners need a covariate; a stream never sees a row without one.
        with pytest.raises(ParameterError, match="at least one entry"):
            Observation(y=1.0, a=1, x=())

    def test_push_after_stop_flagged(self):
        obs = observations_of(null_effect_columns(300, seed=3))
        stream = Stream(StreamConfig(estimand="ate", burn_in=100))
        for row in obs[:200]:
            stream.push(row)
        stream.peek()
        decision = stream.check_stop(width_below(1e6))
        assert decision.stop
        assert stream.stopped_at == 200
        stream.push(obs[200])
        assert stream.post_stop_pushes == 1
        point = stream.peek()
        assert point.stopped

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            StreamConfig(estimand="nope")
        with pytest.raises(ParameterError):
            StreamConfig(estimand="ate", burn_in=3, k_folds=5)
        with pytest.raises(ParameterError):
            StreamConfig(estimand="ate", gamma=0.5)
        with pytest.raises(ParameterError):
            StreamConfig(estimand="ate", refit_factor=1.0)

    @pytest.mark.parametrize("field, value", [
        ("k_folds", 5.0),
        ("burn_in", float("nan")),
        ("burn_in", float("inf")),
        pytest.param("burn_in", 10**400, id="burn_in-10**400"),
        ("refit_factor", float("inf")),
        ("refit_factor", 1e307),
    ])
    def test_settings_that_would_fail_at_a_peek_are_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            StreamConfig(estimand="ate", **{field: value})

    def test_alpha_must_suit_the_rho_tuning_rule(self):
        # -2 log(alpha) + log(-2 log(alpha)) + 1 > 0 exactly for alpha < 0.8700259...
        stream = Stream(StreamConfig(estimand="ate", alpha=0.87, burn_in=200))
        assert stream.push_batch(*null_effect_columns(200, seed=3)).peek().n == 200
        with pytest.raises(ParameterError, match=r"alpha=0\.8701 is too large"):
            StreamConfig(estimand="ate", alpha=0.8701)
        # A given rho needs no tuning, so any alpha in (0, 1) peeks.
        stream = Stream(StreamConfig(estimand="ate", alpha=0.9, rho=0.1, burn_in=200))
        assert stream.push_batch(*null_effect_columns(200, seed=3)).peek().n == 200

    def test_a_real_burn_in_still_peeks(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=500.0))
        assert stream.push_batch(*null_effect_columns(500, seed=3)).peek().n == 500

    def test_non_finite_gamma_and_rho_rejected(self):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ParameterError, match="gamma must be a real >= 1"):
                StreamConfig(estimand="pate_lower", gamma=value)
            with pytest.raises(ParameterError, match="rho must be a positive real"):
                StreamConfig(estimand="ate", rho=value)

    def test_learner_kinds_checked_per_role(self):
        cases = [
            ("pate_lower", {"gamma_spec": LearnerSpec(kind="ridge")}, "gamma_spec"),
            ("ate", {"outcome_spec": LearnerSpec(kind="logistic")}, "outcome_spec"),
        ]
        for estimand, specs, name in cases:
            # Rejected when the config is built, before any data or peek.
            with pytest.raises(ParameterError, match=name):
                StreamConfig(estimand=estimand, **specs)
        for retired in ("seed", "propensity_spec", "treatment_spec", "nu_spec"):
            assert retired not in StreamConfig.__dataclass_fields__
        # A role the estimand does not use is not checked.
        StreamConfig(estimand="ate", gamma_spec=LearnerSpec(kind="ridge"))
        StreamConfig(estimand="plr", outcome_spec=LearnerSpec(kind="gbt"))


class TestPeek:
    def test_not_ready_below_burn_in(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=50))
        stream.push_batch(*null_effect_columns(30))
        with pytest.raises(NotReadyError):
            stream.peek()

    def test_null_effect_stream(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=200))
        stream.push_batch(*null_effect_columns(600, seed=1))
        point = stream.peek()
        assert abs(point.theta_hat) < 0.5
        assert point.lower < 0.0 < point.upper
        assert point.lower == pytest.approx(point.theta_hat - point.sigma_hat * 0.0, abs=10)

    def test_double_peek_idempotent(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=100))
        stream.push_batch(*null_effect_columns(250, seed=2))
        first = stream.peek()
        second = stream.peek()
        assert first == second
        assert len(stream.peek_log) == 1

    def test_late_stream_covers_truth_single_run(self):
        params = LateDgpParams.from_seed(7)
        columns, _ = gen_late(3000, params, seed=[7, 1])
        stream = Stream(StreamConfig(estimand="late", burn_in=500))
        for n in range(500, 3001, 500):
            stream.push_batch(*columns.rows(stream.n, n))
            point = stream.peek()
            assert point.lower_int <= params.theta <= point.upper_int
        assert len(stream.peek_log) == 6

    def test_rho_frozen_after_first_peek(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=100))
        columns = null_effect_columns(500, seed=4)
        observations = observations_of(columns)
        stream.push_batch(*columns.rows(0, 100))
        stream.peek()
        tuned = stream.rho
        assert tuned is not None and tuned > 0
        for i in range(100, 500):
            stream.push(observations[i])
            if (i + 1) % 100 == 0:
                stream.peek()
        assert stream.rho == tuned

    def test_refit_schedule_geometric(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=50, refit_factor=2.0))
        observations = observations_of(null_effect_columns(450, seed=5))
        for i, obs in enumerate(observations):
            stream.push(obs)
            n = i + 1
            if n in (50, 60, 100, 120, 200, 210, 400, 450):
                stream.peek()
        refit_ns = [n for n, _ in stream.holdout_rmse["e"]]
        assert refit_ns == [50, 100, 200, 400]

    def test_degenerate_fold_defers_then_recovers(self):
        config = StreamConfig(estimand="ate", k_folds=2, burn_in=2, rho=0.5)
        stream = Stream(config)
        stream.push(Observation(y=1.0, a=1, x=(0.2,)))
        stream.push(Observation(y=2.0, a=1, x=(-0.1,)))
        with pytest.raises(NotReadyError):
            stream.peek()
        rng = np.random.default_rng(6)
        for _ in range(60):
            stream.push(
                Observation(
                    y=float(rng.normal()),
                    a=int(rng.integers(0, 2)),
                    x=(float(rng.normal()),),
                )
            )
        point = stream.peek()
        assert point.n == 62

    def test_intersected_bounds_nested(self):
        params = LateDgpParams.from_seed(9)
        columns, _ = gen_late(2000, params, seed=[9, 1])
        stream = Stream(StreamConfig(estimand="late", burn_in=250))
        for n in range(250, 2001, 250):
            stream.push_batch(*columns.rows(stream.n, n))
            stream.peek()
        log = stream.peek_log
        for prev, cur in zip(log, log[1:]):
            assert cur.lower_int >= prev.lower_int
            assert cur.upper_int <= prev.upper_int
            assert cur.lower <= cur.upper

    def test_rerun_same_seed_bit_identical(self):
        params = LateDgpParams.from_seed(10)
        columns, _ = gen_late(1500, params, seed=[10, 1])

        def run():
            stream = Stream(StreamConfig(estimand="late", burn_in=300))
            for n in range(300, 1501, 300):
                stream.push_batch(*columns.rows(stream.n, n))
                stream.peek()
            return stream.peek_log

        assert run() == run()

    def test_out_of_fold_purity_enforced(self):
        stream = poisoned_stream()
        stream._moments = None  # force rescoring of every row
        stream.push_batch(*null_effect_columns(10, seed=99))
        with pytest.raises(AssertionError):
            stream.peek()

    def test_zero_variance_first_peek_defers(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=100))
        rng = np.random.default_rng(13)
        for i in range(100):
            stream.push(Observation(y=2.0, a=i % 2, x=tuple(rng.normal(size=2))))
        with pytest.raises(NotReadyError, match="variance"):
            stream.peek()
        assert stream.rho is None
        assert stream.peek_log == []
        stream.push_batch(*null_effect_columns(100, seed=13))
        point = stream.peek()
        assert stream.rho is not None
        assert point.sigma_hat > 0

    def test_clip_events_count_unclipped_propensities(self):
        # Treatment is nearly a step function of x0, so many fitted
        # propensities fall outside [epsilon, 1 - epsilon] before clipping.
        rng = np.random.default_rng(14)
        n = 450
        x = rng.normal(size=(n, 2))
        a = (x[:, 0] + 0.05 * rng.normal(size=n) > 0).astype(int)
        y = a + x[:, 1] + rng.normal(size=n)
        config = StreamConfig(estimand="ate", burn_in=100)
        stream = Stream(config)
        stream.push_batch(y[:150], a[:150], x[:150])
        stream.peek()
        stream.push_batch(y[150:], a[150:], x[150:])
        stream.peek()  # n = 450 is past the refit at 400, so every row is rescored
        eps = config.epsilon
        expected = 0
        for k in range(config.k_folds):
            rows = stream.plan.assignments(n) == k
            raw = stream._fold_models[k]["e"].probability(x[rows])
            expected += int(np.sum((raw < eps) | (raw > 1.0 - eps)))
        assert expected > 0
        assert stream.clip_events == expected
        # The diagnostics read the same predictions but never count.
        stream.nuisance_evals()
        stream.orthogonality_derivatives()
        assert stream.clip_events == expected

    def test_plr_stream_runs(self):
        rng = np.random.default_rng(12)
        n = 600
        x = rng.normal(size=(n, 2))
        e = 1.0 / (1.0 + np.exp(-x[:, 0]))
        a = (rng.uniform(size=n) < e).astype(int)
        y = 2.0 * a + np.sin(x[:, 1]) + rng.normal(size=n)
        stream = Stream(StreamConfig(estimand="plr", burn_in=200))
        for i in range(n):
            stream.push(Observation(y=float(y[i]), a=int(a[i]), x=tuple(x[i])))
        point = stream.peek()
        assert point.lower_int <= 2.0 <= point.upper_int


class TestCheckStop:
    def make_stream_with_interval(self, lower, upper):
        stream = Stream(StreamConfig(estimand="ate", burn_in=5, k_folds=2, rho=1.0))
        from seqdml.engine import CsPoint

        stream.peek_log.append(
            CsPoint(n=10, theta_hat=(lower + upper) / 2, sigma_hat=1.0,
                    lower=lower, upper=upper, lower_int=lower, upper_int=upper,
                    stopped=False)
        )
        return stream

    def test_excludes_zero_stop(self):
        stream = self.make_stream_with_interval(0.2, 0.9)
        assert stream.check_stop(excludes_zero()).stop

    def test_excludes_zero_continue(self):
        stream = self.make_stream_with_interval(-0.1, 0.9)
        assert not stream.check_stop(excludes_zero()).stop

    def test_width_below(self):
        stream = self.make_stream_with_interval(0.0, 0.5)
        assert stream.check_stop(width_below(0.6)).stop
        assert not stream.check_stop(width_below(0.4)).stop

    def test_sign_determined(self):
        # The second name for excludes_zero is gone, from both entry points.
        stream = self.make_stream_with_interval(-0.9, -0.2)
        with pytest.raises(ParameterError, match="unknown stop rule"):
            StopRule("sign_determined")
        with pytest.raises(ParameterError, match="unknown stop rule"):
            stream.check_stop("sign_determined")
        assert stream.stopped_at is None

    def test_zero_rules_decide_alike_on_finite_intervals(self):
        # Every ordered pair of grid bounds, so empty intervals (lower > upper)
        # and bounds at 0.0 and -0.0 are all included.
        grid = [-1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0]
        for lower in grid:
            for upper in grid:
                stream = self.make_stream_with_interval(lower, upper)
                outside = not (lower <= 0.0 <= upper)
                assert stream.check_stop(excludes_zero()).stop == outside

    def test_requires_a_peek(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=5, k_folds=2))
        with pytest.raises(NotReadyError):
            stream.check_stop(excludes_zero())

    def test_unknown_rule(self):
        stream = self.make_stream_with_interval(0.0, 1.0)
        with pytest.raises(ParameterError):
            stream.check_stop(StopRule("sometimes"))

    @pytest.mark.parametrize("kind, width", [
        ("width_below", -1.0),
        ("width_below", 0.0),
        ("width_below", float("nan")),
        ("width_below", None),
        ("excludes_zero", 0.5),
    ])
    def test_directly_built_rule_is_validated(self, kind, width):
        # A width rule that could never fire must not reach check_stop.
        with pytest.raises(ParameterError):
            StopRule(kind, width)


class TestNdjson:
    def test_field_names_and_order(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=100))
        stream.push_batch(*null_effect_columns(200, seed=13))
        stream.peek()
        lines = stream.export_ndjson().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert list(record.keys()) == NDJSON_ORDER
        assert record["lower"] <= record["upper"]
        assert record["stopped"] is False


def pate_streams(n, gamma, seed, n_rounds=40):
    params = PartialIdDgpParams.from_seed(seed)
    columns, _ = gen_partial_id(n, params, seed=[seed, 1])
    spec = LearnerSpec(kind="gbt", n_rounds=n_rounds)

    def build(estimand):
        return Stream(
            StreamConfig(
                estimand=estimand, burn_in=250, gamma=gamma, gamma_spec=spec
            )
        )

    lower, upper = build("pate_lower"), build("pate_upper")
    lower.push_batch(*columns)
    upper.push_batch(*columns)
    return lower, upper, params


class TestPateBand:
    def test_gamma_one_band_collapses(self):
        lower, upper, _ = pate_streams(n=750, gamma=1.0, seed=14)
        lower.peek()
        upper.peek()
        band = pate_band(lower, upper)
        assert lower.peek_log[-1] == upper.peek_log[-1]
        assert band.lower == band.upper - (band.upper - band.lower)
        assert band.upper - band.lower == pytest.approx(
            lower.peek_log[-1].upper_int - lower.peek_log[-1].lower_int
        )

    def test_wider_than_point_identified_band(self):
        lower1, upper1, _ = pate_streams(n=750, gamma=1.0, seed=15)
        lower1.peek()
        upper1.peek()
        point_band = pate_band(lower1, upper1)
        lower2, upper2, _ = pate_streams(n=750, gamma=1.8, seed=15)
        lower2.peek()
        upper2.peek()
        wide_band = pate_band(lower2, upper2)
        assert (wide_band.upper - wide_band.lower) >= (point_band.upper - point_band.lower)

    def test_mismatched_n_sync_error(self):
        lower, upper, _ = pate_streams(n=600, gamma=1.5, seed=16)
        lower.peek()
        upper.push(Observation(y=0.0, a=1, x=tuple(np.zeros(4))))
        upper.peek()
        with pytest.raises(SyncError):
            pate_band(lower, upper)

    def test_estimand_pairing_enforced(self):
        lower, upper, _ = pate_streams(n=600, gamma=1.5, seed=17)
        with pytest.raises(EstimandError):
            pate_band(upper, lower)


class TestNuisanceEvals:
    def test_ate_evals_well_formed(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=100))
        stream.push_batch(*null_effect_columns(150, seed=18))
        stream.peek()
        evals = stream.nuisance_evals()
        assert len(evals) == 150
        for ev in evals:
            assert 0.01 <= ev.e <= 0.99
            assert ev.g1 is not None and ev.g0 is not None


def oracle_score(estimand, gamma):
    """The per-row score whose Gateaux derivative the stream's evals describe:
    for the partial-identification bounds, the treated arm's bound."""
    if estimand in ("pate_lower", "pate_upper"):
        side = estimand[len("pate_"):]
        return lambda obs, nuis: partial_id_score(obs, nuis, GammaParam(gamma), "treated", side)
    return {"ate": aipw_score, "plr": plr_score, "late": late_score}[estimand]


def observations_of(columns):
    """The rows of generated columns as Observations, for per-row oracles."""
    z = [None] * len(columns.y) if columns.z is None else [int(v) for v in columns.z]
    return [
        Observation(y=y, a=int(a), x=tuple(x), z=zi)
        for y, a, x, zi in zip(columns.y.tolist(), columns.a.tolist(), columns.X.tolist(), z)
    ]


def fitted_stream(estimand, gamma, n=300, seed=23, epsilon=0.01):
    """A peeked stream fed generated columns, and its rows as Observations."""
    columns = generated_columns(estimand, n, seed)
    config = StreamConfig(
        estimand=estimand, burn_in=100, gamma=gamma, epsilon=epsilon,
        gamma_spec=LearnerSpec(kind="gbt", n_rounds=10),
    )
    stream = Stream(config).push_batch(*columns)
    stream.peek()
    return stream, observations_of(columns)


class TestOrthogonalityDerivatives:
    @pytest.mark.parametrize("estimand, gamma", [
        ("ate", 1.5), ("plr", 1.5), ("late", 1.5), ("pate_lower", 1.5), ("pate_upper", 1.5),
        ("ate", 1.0), ("plr", 1.0), ("late", 1.0),
    ])
    def test_columns_match_per_row_oracle(self, estimand, gamma):
        stream, observations = fitted_stream(estimand, gamma)
        got = stream.orthogonality_derivatives()
        evals = dict(zip(map(id, observations), stream.nuisance_evals()))
        support = [(1.0, obs) for obs in observations]
        theta = float(stream.last_fit.theta_hat)
        want = {
            field: gateaux_orthogonality_check(
                oracle_score(estimand, gamma), support, lambda obs: evals[id(obs)],
                lambda obs, d=NuisanceEval(**{field: 1.0}): d, theta,
            )
            for field in got
        }
        assert got == want

    def test_requires_an_estimate(self):
        stream = Stream(StreamConfig(estimand="ate", burn_in=100))
        stream.push_batch(*null_effect_columns(50))
        with pytest.raises(NotReadyError):
            stream.orthogonality_derivatives()

    def test_shift_out_of_the_unit_interval_raises(self):
        # Treatment separated by x1: propensities clip at epsilon = 1e-6, and a
        # 1e-5 shift takes them out of (0, 1), in both paths alike.
        rng = np.random.default_rng(0)
        x = rng.normal(size=300)
        observations = [
            Observation(y=float(v + 0.3 * rng.normal()), a=int(v > 0), x=(float(v),)) for v in x
        ]
        stream = Stream(StreamConfig(estimand="ate", burn_in=100, epsilon=1e-6))
        for obs in observations:
            stream.push(obs)
        stream.peek()
        with pytest.raises(NuisanceError, match="strictly inside"):
            stream.orthogonality_derivatives()
        evals = dict(zip(map(id, observations), stream.nuisance_evals()))
        with pytest.raises(NuisanceError, match="strictly inside"):
            gateaux_orthogonality_check(
                aipw_score, [(1.0, obs) for obs in observations], lambda obs: evals[id(obs)],
                lambda obs: NuisanceEval(e=1.0), float(stream.last_fit.theta_hat),
            )


def poisoned_stream(estimand="ate", folds=(0,)):
    """A fitted stream whose models of each fold in ``folds`` claim to have
    been trained on that fold's rows, which they will be asked to score.
    The bound estimands fit GBT gamma models, so they have fold forests."""
    if estimand == "ate":
        columns = null_effect_columns(120, seed=11)
    else:
        columns = generated_columns(estimand, 120, seed=11)
    stream = Stream(StreamConfig(
        estimand=estimand, burn_in=100, gamma=1.5, gamma_spec=LearnerSpec(kind="gbt", n_rounds=10),
    ))
    stream.push_batch(*columns)
    stream.peek()
    for k in folds:
        stream._fold_models[k] = {**stream._fold_models[k], "fold": (k + 1) % 5}
    return stream


def logged_walks(monkeypatch):
    """Record each fold forest walk as (forest id, rows), and fail on any
    GbtModel.predict call."""
    walks, walk = [], GbtForest.predict

    def logged(forest, X, which):
        walks.append((id(forest), len(X)))
        return walk(forest, X, which)

    def unexpected(model, X):
        raise AssertionError("GbtModel.predict was called")

    monkeypatch.setattr(GbtForest, "predict", logged)
    monkeypatch.setattr(GbtModel, "predict", unexpected)
    return walks


def oracle_holdout_rmse(stream, columns, n):
    """The earlier holdout RMSE loop, which predicted each fold's holdout
    subset with that fold's models at the refit."""
    X = columns.X[:n]
    cols = {
        "y": columns.y[:n],
        "a": columns.a[:n],
        "z": np.full(n, np.nan) if columns.z is None else columns.z[:n],
    }
    fold_ids = stream.plan.assignments(n)
    sums = {}
    for k, models in enumerate(stream._fold_models):
        hold = fold_ids == k
        for nuis in _TABLE[stream.config.estimand].nuisances:
            if nuis.target is None:
                continue
            mask = hold
            if nuis.subset != "all":
                mask = hold & (cols[nuis.subset[0]] == float(nuis.subset[1:]))
            if mask.sum() == 0:
                continue
            err = cols[nuis.target][mask] - models[nuis.key].predict(X[mask])
            sums.setdefault(nuis.key, []).append(float(np.sqrt(np.mean(err * err))))
    return {key: float(np.mean(vals)) for key, vals in sums.items()}


class TestOnePredictionPass:
    @pytest.mark.parametrize("estimand", ESTIMANDS)
    def test_holdout_rmse_matches_the_per_subset_oracle(self, estimand):
        seed = 31
        columns = generated_columns(estimand, 900, seed)
        stream = Stream(StreamConfig(
            estimand=estimand, burn_in=100, gamma=1.5,
            gamma_spec=LearnerSpec(kind="gbt", n_rounds=10),
        ))
        refits = []
        for n in range(100, 901, 100):
            stream.push_batch(*columns.rows(stream.n, n))
            before = sum(map(len, stream.holdout_rmse.values()))
            stream.peek()
            if sum(map(len, stream.holdout_rmse.values())) > before:
                refits.append(n)
                want = oracle_holdout_rmse(stream, columns, n)
                got = {key: values[-1] for key, values in stream.holdout_rmse.items()}
                assert set(got) == set(want)
                for key, value in want.items():
                    assert got[key] == (n, pytest.approx(value, rel=1e-12, abs=0.0))
        assert refits == [100, 200, 400, 800]

    def test_a_refit_predicts_each_row_once_per_nuisance(self, monkeypatch):
        stream = Stream(StreamConfig(estimand="ate", burn_in=100))
        stream.push_batch(*null_effect_columns(250, seed=18))
        stream.peek()
        rows = {"ridge": 0, "probability": 0}

        def counted(name, method):
            def wrapper(model, X):
                rows[name] += len(X)
                return method(model, X)
            return wrapper

        monkeypatch.setattr(RidgeModel, "predict", counted("ridge", RidgeModel.predict))
        monkeypatch.setattr(
            LogisticModel, "probability", counted("probability", LogisticModel.probability)
        )
        stream.push_batch(*null_effect_columns(160, seed=19))
        stream.peek()  # n = 410 is past the refit at 400
        assert rows == {"ridge": 2 * 410, "probability": 410}

    def test_a_pate_refit_predicts_gbt_models_only_on_the_rows_it_scores(self, monkeypatch):
        # nu splits y at its gamma model's predictions on their shared
        # training rows, which the gamma fit already holds. The refit's GBT
        # predictions are then the rescoring of every row by g_t and g_c, one
        # forest walk each, and the nu models equal those of fit_nu, which
        # predicts the rows again.
        columns = generated_columns("pate_lower", 300, seed=23)
        stream = Stream(StreamConfig(
            estimand="pate_lower", burn_in=300, gamma=1.5,
            gamma_spec=LearnerSpec(kind="gbt", n_rounds=10),
        )).push_batch(*columns)
        walks = logged_walks(monkeypatch)
        stream.peek()
        monkeypatch.undo()
        forests = sorted(id(stream._forests[key]) for key in ("g_t", "g_c"))
        assert sorted(walks) == [(forests[0], 300), (forests[1], 300)]
        for k, models in enumerate(stream._fold_models):
            train = np.arange(300) % 5 != k
            for nu, g, arm in (("nu_t", "g_t", 1.0), ("nu_c", "g_c", 0.0)):
                sel = train & (columns.a == arm)
                want = fit_nu(columns.X[sel], columns.y[sel], models[g], models[nu].gamma,
                              stream._logistic)
                assert dump_model(models[nu]) == dump_model(want)

    def test_pate_diagnostics_predict_only_the_treated_arm(self, monkeypatch):
        # The evals and their score read g_t, nu_t and e: only g_t's forest
        # is walked, and the outputs equal those of a full pass.
        stream, _ = fitted_stream("pate_lower", 1.5)
        keys = [nuis.key for nuis in _TABLE["pate_lower"].nuisances]
        full, _ = stream._predictions(0, stream.n, keys)
        want_evals = [
            NuisanceEval(g1=g1, e=e, nu=nu)
            for g1, e, nu in zip(full["g_t"].tolist(), full["e"].tolist(), full["nu_t"].tolist())
        ]
        want_derivatives = stream.orthogonality_derivatives()
        walks = logged_walks(monkeypatch)
        assert stream.nuisance_evals() == want_evals
        assert stream.orthogonality_derivatives() == want_derivatives
        assert walks == [(id(stream._forests["g_t"]), stream.n)] * 2

    def test_a_band_light_peek_walks_each_gbt_forest_once(self, monkeypatch):
        # The band workload's shape: a peek every 25 rows after a burn-in of
        # 500, so a light peek scores 5 new rows per fold with each of g_t
        # and g_c.
        columns = generated_columns("pate_upper", 525, seed=29)
        stream = Stream(StreamConfig(
            estimand="pate_upper", burn_in=500, gamma=1.5,
            gamma_spec=LearnerSpec(kind="gbt", n_rounds=10),
        )).push_batch(*columns.rows(0, 500))
        stream.peek()
        walks = logged_walks(monkeypatch)
        stream.push_batch(*columns.rows(500, 525))
        stream.peek()
        assert len(stream.holdout_rmse["g_t"]) == 1  # no refit
        forests = sorted(id(stream._forests[key]) for key in ("g_t", "g_c"))
        assert sorted(walks) == [(forests[0], 25), (forests[1], 25)]

    @pytest.mark.parametrize("estimand", ESTIMANDS)
    def test_predictions_equal_each_rows_own_bundle(self, estimand):
        # GBT outcome models too, so every estimand has fold forests.
        columns = generated_columns(estimand, 330, seed=37)
        eps = 0.01
        stream = Stream(StreamConfig(
            estimand=estimand, burn_in=300, gamma=1.5, epsilon=eps,
            outcome_spec=LearnerSpec(kind="gbt", n_rounds=10),
            gamma_spec=LearnerSpec(kind="gbt", n_rounds=10),
        )).push_batch(*columns.rows(0, 300))
        stream.peek()
        stream.push_batch(*columns.rows(300, 330))
        keys = [nuis.key for nuis in _TABLE[estimand].nuisances]
        assert stream._forests.keys() == {
            nuis.key for nuis in _TABLE[estimand].nuisances if nuis.role in ("outcome", "gamma")
        }
        for start in (0, 303):
            got, _ = stream._predictions(start, 330, keys)
            rows = np.arange(start, 330)
            for key in keys:
                want = np.empty(rows.size)
                for k, models in enumerate(stream._fold_models):
                    mine = rows % 5 == k
                    X, model = columns.X[rows[mine]], models[key]
                    if key in stream._forests:  # row by row
                        want[mine] = [oracle_predict(model, x[None, :])[0] for x in X]
                    elif key == "e":
                        want[mine] = np.clip(model.probability(X), eps, 1.0 - eps)
                    else:
                        want[mine] = model.predict(X)
                assert np.array_equal(got[key], want), key

    def test_purity_guards_the_diagnostics(self):
        stream = poisoned_stream()
        with pytest.raises(AssertionError):
            stream.nuisance_evals()
        with pytest.raises(AssertionError):
            stream.orthogonality_derivatives()

    def test_purity_is_checked_before_any_forest_is_walked(self, monkeypatch):
        # Folds 3 and 1 are poisoned; the error names the lowest.
        stream = poisoned_stream("pate_lower", folds=(3, 1))
        stream._moments = None  # force rescoring of every row
        stream.push_batch(*generated_columns("pate_lower", 10, seed=99))
        walks = logged_walks(monkeypatch)
        message = "^fold 1 models would score rows they were trained on$"
        with pytest.raises(AssertionError, match=message):
            stream.peek()
        with pytest.raises(AssertionError, match=message):
            stream.nuisance_evals()
        with pytest.raises(AssertionError, match=message):
            stream.orthogonality_derivatives()
        assert walks == []

    def test_holdout_rmse_is_recorded_once_per_refit(self, monkeypatch):
        stream = Stream(StreamConfig(estimand="ate", burn_in=100))
        columns = null_effect_columns(260, seed=20)
        stream.push_batch(*columns.rows(0, 150)).peek()
        original, failed = ScoreMoments.centred, []

        def fail_once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise RuntimeError("rebuild failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(ScoreMoments, "centred", fail_once)
        stream.push_batch(*columns.rows(150, 250))
        with pytest.raises(RuntimeError):
            stream.peek()  # the refit at 250 rescores every row, and the rebuild fails
        stream.push_batch(*columns.rows(250, 260)).peek()  # rescores every row again
        assert failed
        assert stream.holdout_rmse
        for values in stream.holdout_rmse.values():
            assert [n for n, _ in values] == [150, 250]


class TestTheTable:
    def test_classes_and_needs_z_follow_from_the_nuisances(self):
        # The literals each entry stated before they were derived.
        stated = {
            "ate": ("a", False), "plr": (None, False), "late": ("z", True),
            "pate_lower": ("a", False), "pate_upper": ("a", False),
        }
        assert {name: (est.classes, est.needs_z) for name, est in _TABLE.items()} == stated

    def test_loss_weights_are_computed_once_per_stream(self, monkeypatch):
        calls = Counter()
        effective_gamma = engine.effective_gamma

        def counted(gamma, side):
            calls[side] += 1
            return effective_gamma(gamma, side)

        monkeypatch.setattr(engine, "effective_gamma", counted)
        stream, _ = fitted_stream("pate_lower", 1.5)
        stream.orthogonality_derivatives()
        stream.push_batch(*generated_columns("pate_lower", 20, seed=5)).peek()
        assert calls == {"lower": 2, "upper": 2}
        assert stream._weights == {"g_t": 1.5, "nu_t": 1.5, "g_c": 1 / 1.5, "nu_c": 1 / 1.5}


# Relative tolerance of the arm-swap relation; the worst case measured 9.7e-15.
SWAP_REL = 1e-12


@pytest.mark.parametrize("estimand, mirror", [
    ("ate", "ate"), ("pate_lower", "pate_upper"), ("pate_upper", "pate_lower"),
])
def test_swapping_the_arms_mirrors_every_estimand(estimand, mirror):
    # With a and 1 - a swapped, the treated arm's code runs on the control
    # arm's rows and the other way round: each estimate and each bound is
    # the negative of the mirror's, and each standard error is the mirror's.
    columns, _ = gen_partial_id(1500, PartialIdDgpParams.from_seed(0), seed=[0, 1])
    swapped = Columns(columns.y, 1.0 - columns.a, columns.X)

    def peek_log(name, cols):
        stream = Stream(StreamConfig(estimand=name, burn_in=300, gamma=1.5,
                                     gamma_spec=LearnerSpec(kind="gbt", n_rounds=20)))
        for n in range(300, 1501, 300):
            stream.push_batch(*cols.rows(stream.n, n)).peek()
        return stream.peek_log

    close = lambda value: pytest.approx(value, rel=SWAP_REL, abs=0.0)
    for point, image in zip(peek_log(estimand, columns), peek_log(mirror, swapped), strict=True):
        assert point.n == image.n
        assert point.theta_hat == close(-image.theta_hat)
        assert point.sigma_hat == close(image.sigma_hat)
        assert (point.lower, point.upper) == close((-image.upper, -image.lower))
        assert (point.lower_int, point.upper_int) == close((-image.upper_int, -image.lower_int))


def counted_forests(monkeypatch):
    """Count GbtForest constructions, the fold forests and any one-model forest."""
    built, init = [], GbtForest.__init__

    def counted(forest, models):
        built.append(len(models))
        init(forest, models)

    monkeypatch.setattr(GbtForest, "__init__", counted)
    return built


class TestOneForestPerGbtNuisance:
    def test_a_pate_refit_stacks_each_gamma_nuisance_once(self, monkeypatch):
        columns = generated_columns("pate_lower", 300, seed=23)
        stream = Stream(StreamConfig(
            estimand="pate_lower", burn_in=300, gamma=1.5,
            gamma_spec=LearnerSpec(kind="gbt", n_rounds=10),
        )).push_batch(*columns)
        built = counted_forests(monkeypatch)
        stream.peek()
        stream.nuisance_evals()
        stream.orthogonality_derivatives()
        assert built == [5, 5]

    def test_an_ate_stream_with_gbt_outcomes_stacks_each_outcome_once(self, monkeypatch):
        built = counted_forests(monkeypatch)
        stream = Stream(StreamConfig(
            estimand="ate", burn_in=100, outcome_spec=LearnerSpec(kind="gbt", n_rounds=10),
        ))
        stream.push_batch(*null_effect_columns(150, seed=18)).peek()
        stream.push_batch(*null_effect_columns(20, seed=19)).peek()  # a light peek builds none
        assert built == [5, 5]

    def test_a_model_stacks_its_own_forest_at_its_first_predict(self, monkeypatch):
        columns = null_effect_columns(100, seed=3)
        model = engine.fit_gbt(columns.X, columns.y, engine.SquaredLoss(),
                               LearnerSpec(kind="gbt", n_rounds=10))
        built = counted_forests(monkeypatch)
        first = model.predict(columns.X)
        assert built == [1]
        assert np.array_equal(model.predict(columns.X), first)
        assert built == [1]


# The module globals that the benchmark's tracer (bench/tracer.py) wraps by
# name. A rename or a call that bypasses the global would read 0 there.
TRACED = {
    engine: ("fit_ridge", "fit_logistic", "fit_gbt", "aipw_pseudo_outcome", "late_terms",
             "partial_id_pseudo_outcome", "plr_terms", "scalar_radius", "tune_rho"),
    sim: ("gen_late", "gen_partial_id"),
}


def test_every_traced_layer_name_is_called(monkeypatch):
    calls = Counter()
    for module, names in TRACED.items():
        for name in names:
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    few = LearnerSpec(kind="gbt", n_rounds=5)
    for estimand in ESTIMANDS:
        config = StreamConfig(estimand=estimand, burn_in=100, gamma=1.5,
                              outcome_spec=few, gamma_spec=few)
        Stream(config).push_batch(*generated_columns(estimand, 150, seed=41)).peek()
        run_coverage(dgp="late" if estimand == "late" else "partial_id", estimand=estimand,
                     reps=1, n_max=200, peek_every=100, seed=42)
    run_pate_band(n_max=200, peek_every=100, gamma=1.5, seed=43, gamma_spec=few)
    assert {name for names in TRACED.values() for name in names} - set(calls) == set()
