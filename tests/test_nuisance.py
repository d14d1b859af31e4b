"""Learners: closed-form fixtures, grid-search oracles, determinism."""

import math

import numpy as np
import pytest
from scipy.special import expit

from seqdml import (
    GammaRegressionLoss,
    LearnerSpec,
    SquaredLoss,
    dump_model,
    fit_g1_gamma,
    fit_gbt,
    fit_logistic,
    fit_nu,
    fit_ridge,
    load_model,
    minimize_gamma_constant,
)
from seqdml.nuisance import (
    GbtModel,
    LogisticModel,
    NuModel,
    _bin_edges,
    _Bins,
    _gamma_constant_closed_form,
    _logistic_objective,
    _PREDICT_BLOCK,
    _Tree,
)
from seqdml.errors import FitError, ParameterError
from seqdml.scores import gamma_loss_terms


class TestFitRidge:
    def test_perfect_line_tiny_penalty(self):
        x = np.linspace(-1, 1, 50)
        model = fit_ridge(x, 2.0 * x, LearnerSpec(kind="ridge", ridge_lambda=1e-12))
        assert model.coef[0] == pytest.approx(2.0, abs=1e-8)
        assert model.intercept == pytest.approx(0.0, abs=1e-8)

    def test_constant_target(self):
        x = np.linspace(0, 1, 30)
        model = fit_ridge(x, np.full(30, 4.2), LearnerSpec(kind="ridge", ridge_lambda=0.1))
        assert model.coef[0] == pytest.approx(0.0, abs=1e-12)
        assert model.intercept == pytest.approx(4.2)

    def test_two_point_closed_form(self):
        # centered ridge: slope = Sxy / (Sxx + lambda) = 0.25 / 1.25 = 0.2
        model = fit_ridge(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                          LearnerSpec(kind="ridge", ridge_lambda=1.0))
        assert model.coef[0] == pytest.approx(0.2)
        assert model.intercept == pytest.approx(0.5 - 0.5 * 0.2)

    def test_empty_data(self):
        with pytest.raises(FitError):
            fit_ridge(np.empty((0, 2)), np.empty(0), LearnerSpec(kind="ridge"))


def brute_force_logistic(x, y, lam, b_range=(-4, 4), w_range=(-6, 6)):
    """Nested-grid minimizer of mean NLL + lam * w^2 over (intercept, slope)."""
    best = (0.0, 0.0)
    b_lo, b_hi = b_range
    w_lo, w_hi = w_range
    for _ in range(8):
        bs = np.linspace(b_lo, b_hi, 41)
        ws = np.linspace(w_lo, w_hi, 41)
        vals = np.empty((41, 41))
        for i, b in enumerate(bs):
            eta = b + np.outer(ws, x)
            nll = np.mean(np.logaddexp(0.0, eta) - y * eta, axis=1)
            vals[i] = nll + lam * ws**2
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = (bs[i], ws[j])
        db, dw = (b_hi - b_lo) / 40, (w_hi - w_lo) / 40
        b_lo, b_hi = best[0] - db, best[0] + db
        w_lo, w_hi = best[1] - dw, best[1] + dw
    return best


class TestFitLogistic:
    def test_uninformative_covariate(self):
        # every x value appears with both labels, so x is exactly
        # uninformative in-sample and the balanced fit is one half everywhere
        values = np.linspace(-2.0, 2.0, 100)
        x = np.repeat(values, 2)
        y = np.tile([0.0, 1.0], 100)
        model = fit_logistic(x, y, LearnerSpec(kind="logistic", logistic_lambda=1e-4))
        preds = model.predict(x)
        assert np.all(np.abs(preds - 0.5) < 1e-6)

    def test_one_class_limit_clipped(self):
        x = np.linspace(-1, 1, 50)
        model = fit_logistic(x, np.ones(50), LearnerSpec(kind="logistic", logistic_lambda=1e-3, clip=0.01))
        preds = model.predict(x)
        assert np.all(preds > 0.5)
        assert preds.max() <= 0.99

    def test_matches_grid_search(self):
        x = np.array([-1.0, 1.0])
        y = np.array([0.0, 1.0])
        lam = 0.1
        model = fit_logistic(x, y, LearnerSpec(kind="logistic", logistic_lambda=lam))
        b_star, w_star = brute_force_logistic(x, y, lam)
        p_model = 1.0 / (1.0 + math.exp(-(model.intercept + model.coef[0] * 1.0)))
        p_grid = 1.0 / (1.0 + math.exp(-(b_star + w_star * 1.0)))
        assert p_model == pytest.approx(p_grid, abs=1e-4)

    def test_complete_separation_without_penalty(self):
        x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
        y = np.concatenate([np.zeros(20), np.ones(20)])
        with pytest.raises(FitError, match="logistic_lambda"):
            fit_logistic(x, y, LearnerSpec(kind="logistic", logistic_lambda=0.0))

    def test_labels_validated(self):
        with pytest.raises(ParameterError):
            fit_logistic(np.array([0.0, 1.0]), np.array([0.5, 1.0]),
                         LearnerSpec(kind="logistic"))

    def test_singular_hessian_without_penalty(self):
        # Five rows, six large covariates and no penalty: the Newton system
        # is often exactly singular, which is a fit error, not a LinAlgError.
        rng = np.random.default_rng(0)
        spec = LearnerSpec(kind="logistic", logistic_lambda=0.0)
        singular = 0
        for _ in range(192):
            X = rng.standard_normal((5, 6)) * 1e3
            labels = np.array([0.0, 1.0, 0.0, 1.0, 1.0])[rng.permutation(5)]
            with pytest.raises(FitError, match="logistic_lambda") as err:
                fit_logistic(X, labels, spec)
            singular += "singular" in str(err.value)
        assert singular >= 20

    def test_clip_range_respected(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        y = (x > 0).astype(float)
        model = fit_logistic(x, y, LearnerSpec(kind="logistic", clip=0.05))
        preds = model.predict(np.array([-50.0, 50.0]))
        assert preds[0] == pytest.approx(0.05)
        assert preds[1] == pytest.approx(0.95)


def oracle_fit_logistic(X, y, spec, trials=None):
    """The damped Newton fit as written before it carried each iterate's
    linear predictor and objective forward: it recomputes both at the top of
    every iteration. Appends one entry to ``trials`` per line-search trial."""

    def objective(design, y, beta, lam):
        eta = design @ beta
        nll = float(np.mean(np.logaddexp(0.0, eta) - y * eta))
        return nll + lam * float(beta[1:] @ beta[1:])

    X = np.asarray(X, dtype=float).reshape(len(X), -1)
    y = np.asarray(y, dtype=float)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ParameterError("fit_logistic labels must be 0 or 1")
    n, d = X.shape
    design = np.column_stack([np.ones(n), X])
    lam = spec.logistic_lambda
    beta = np.zeros(d + 1)
    for _ in range(100):
        eta = design @ beta
        p = expit(eta)
        grad = design.T @ (p - y) / n
        grad[1:] += 2.0 * lam * beta[1:]
        if float(np.linalg.norm(grad)) <= 1e-8:
            break
        w = p * (1.0 - p)
        hess = (design * w[:, None]).T @ design / n
        hess[1:, 1:] += 2.0 * lam * np.eye(d)
        hess += 1e-12 * np.eye(d + 1)
        step = np.linalg.solve(hess, grad)
        obj = objective(design, y, beta, lam)
        t = 1.0
        for _ in range(60):
            cand = beta - t * step
            if trials is not None:
                trials.append(t)
            if objective(design, y, cand, lam) <= obj:
                break
            t *= 0.5
        beta = cand
        if lam == 0.0 and float(np.linalg.norm(beta)) > 1e8:
            raise FitError(
                "fit_logistic: diverging coefficients (complete separation?); "
                "set logistic_lambda > 0"
            )
    if lam == 0.0 and objective(design, y, beta, 0.0) < 1e-6:
        raise FitError(
            "fit_logistic: complete separation (training loss is zero); "
            "set logistic_lambda > 0"
        )
    clip = (spec.clip, 1.0 - spec.clip)
    return LogisticModel(intercept=float(beta[0]), coef=beta[1:], clip=clip)


def logistic_corpus(count, seed=2024):
    """Seeded (X, labels, y, spec) cases: sizes 5-3 000, 1-6 covariates,
    every penalty from none to strong, rounded and rescaled covariates,
    separable labels, and continuous outcomes y for nu fits."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.choice([5, 8, 20, 50, 200, 1000, 3000]))
        d = int(rng.integers(1, 7))
        lam = float(rng.choice([0.0, 1e-4, 1e-2, 1.0]))
        X = rng.standard_normal((n, d)) * float(rng.choice([1.0, 1e-3, 1e3]))
        if i % 4 == 1:
            X = np.round(X, 1)
        logits = X @ rng.standard_normal(d) * float(rng.choice([0.5, 3.0, 30.0]))
        labels = (rng.uniform(size=n) < 0.5 * (1.0 + np.tanh(0.5 * logits))).astype(float)
        if i % 4 == 2:
            labels = (X[:, 0] > 0).astype(float)
        y = X[:, 0] + rng.standard_normal(n)
        yield X, labels, y, LearnerSpec(kind="logistic", logistic_lambda=lam)


def fit_outcome(fit, *args):
    """dump_model text of the fit, or its error's type and message."""
    try:
        return dump_model(fit(*args))
    except Exception as exc:  # the error is the outcome compared
        return f"{type(exc).__name__}: {exc}"


class TestFitLogisticMatchesOracle:
    def test_models_and_errors_bit_identical(self):
        outcomes = []
        for X, labels, _, spec in logistic_corpus(400):
            got = fit_outcome(fit_logistic, X, labels, spec)
            assert got == fit_outcome(oracle_fit_logistic, X, labels, spec)
            outcomes.append(got)
        assert sum(o.startswith("FitError: fit_logistic: complete separation") for o in outcomes) >= 10
        assert sum(o.startswith("seqdml-model") for o in outcomes) >= 300

    def test_nu_fits_bit_identical(self):
        def oracle_nu(X, y, g1, gamma, spec):
            labels = (y >= g1.predict(X)).astype(float)
            return NuModel(prob_model=oracle_fit_logistic(X, labels, spec), gamma=gamma)

        for X, _, y, spec in logistic_corpus(100, seed=7):
            g1 = fit_ridge(X, y, LearnerSpec(kind="ridge"))
            got = fit_outcome(fit_nu, X, y, g1, 1.5, spec)
            assert got == fit_outcome(oracle_nu, X, y, g1, 1.5, spec)

    def test_separation_without_penalty_bit_identical(self):
        rng = np.random.default_rng(31)
        spec = LearnerSpec(kind="logistic", logistic_lambda=0.0)
        for n in (6, 40, 500):
            X = rng.standard_normal((n, 2))
            for labels in ((X[:, 0] > 0), (X[:, 0] + 1e-3 * X[:, 1] > 0.1), np.ones(n)):
                labels = labels.astype(float)
                got = fit_outcome(fit_logistic, X, labels, spec)
                assert got == fit_outcome(oracle_fit_logistic, X, labels, spec)
                assert got.startswith("FitError")

    def test_labels_accepted_alike(self):
        spec = LearnerSpec(kind="logistic")
        X = np.linspace(-1.0, 1.0, 4)
        for labels in ([0.0, 1.0, -0.0, 1.0], [0.0, 1.0, 0.5, 1.0], [0.0, 1.0, np.nan, 1.0],
                       [0.0, 1.0, np.inf, 0.0], [True, False, True, False]):
            assert (fit_outcome(fit_logistic, X, np.array(labels), spec)
                    == fit_outcome(oracle_fit_logistic, X, np.array(labels), spec))

    def test_one_objective_evaluation_per_trial(self, monkeypatch):
        # Each Newton iterate's objective is the one its line search already
        # computed; only the starting point's is computed on its own.
        calls = []
        monkeypatch.setattr("seqdml.nuisance._logistic_objective",
                            lambda *args: calls.append(1) or _logistic_objective(*args))
        fits = 0
        for X, labels, _, spec in logistic_corpus(60, seed=5):
            calls.clear()
            trials = []
            want = fit_outcome(oracle_fit_logistic, X, labels, spec, trials)
            assert fit_outcome(fit_logistic, X, labels, spec) == want
            assert len(calls) == len(trials) + 1
            fits += len(trials) > 1
        assert fits >= 30


class TestFitGbt:
    def test_step_function_training_fit(self):
        x = np.repeat(np.linspace(-1, 1, 50), 4)
        y = (x > 0).astype(float)
        model = fit_gbt(x, y, SquaredLoss(), LearnerSpec(kind="gbt"))
        mse = float(np.mean((model.predict(x) - y) ** 2))
        assert mse <= 0.01

    def test_zero_learning_rate_constant(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        y = rng.normal(size=100) + 3.0
        model = fit_gbt(x, y, SquaredLoss(), LearnerSpec(kind="gbt", learning_rate=0.0))
        assert model.trees == []
        assert np.all(model.predict(x) == pytest.approx(float(np.mean(y))))

    def test_gamma_one_initialization_is_mean(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=200)
        model = fit_gbt(np.zeros(200), y, GammaRegressionLoss(1.0), LearnerSpec(kind="gbt"))
        assert model.init_value == pytest.approx(float(np.mean(y)), abs=1e-8)

    def test_training_loss_monotone_under_gamma_loss(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 2))
        y = x[:, 0] - 0.5 * x[:, 1] ** 2 + rng.normal(size=300)
        gamma = 2.5
        loss = GammaRegressionLoss(gamma)
        spec = LearnerSpec(kind="gbt", n_rounds=60)
        model = fit_gbt(x, y, loss, spec)
        stages = (
            GbtModel(model.init_value, model.learning_rate, model.trees[:k])
            for k in range(len(model.trees) + 1)
        )
        losses = [float(np.mean(gamma_loss_terms(y, m.predict(x), gamma)[0])) for m in stages]
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(500, 3))
        y = np.sin(x[:, 0]) + rng.normal(size=500)
        spec = LearnerSpec(kind="gbt", n_rounds=40)
        m1 = fit_gbt(x, y, SquaredLoss(), spec)
        m2 = fit_gbt(x, y, SquaredLoss(), spec)
        assert np.array_equal(m1.predict(x), m2.predict(x))
        assert dump_model(m1) == dump_model(m2)

    def test_non_finite_gradient_rejected(self):
        class BadLoss(SquaredLoss):
            def gradient(self, y, f):
                return np.full(y.shape, np.nan)

        with pytest.raises(FitError):
            fit_gbt(np.zeros(40), np.zeros(40), BadLoss(), LearnerSpec(kind="gbt", n_rounds=1))


def brute_force_gamma_constant(values, gamma, lo=None, hi=None):
    values = np.asarray(values, dtype=float)
    lo = values.min() if lo is None else lo
    hi = values.max() if hi is None else hi
    grid = np.linspace(lo, hi, 20001)
    totals = [float(np.sum(gamma_loss_terms(values, g, gamma)[0])) for g in grid]
    return float(grid[int(np.argmin(totals))])


def capped_old_bisection(values, gamma_weight, tol=1e-9, cap=1_100):
    """minimize_gamma_constant's bisection as it was before it stopped at
    adjacent floats, or None where that loop would never end. Each step that
    moves an endpoint halves hi - lo < 2**1024, so a loop that ends does so
    within 1 100 steps at tol = 1e-9."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    for _ in range(cap):
        if not hi - lo > tol:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if float(np.sum(gamma_loss_terms(values, mid, gamma_weight)[1])) < 0.0:
            lo = mid
        else:
            hi = mid
    return None


class TestGammaConstant:
    def test_two_point_fixture(self):
        assert minimize_gamma_constant(np.array([0.0, 2.0]), 3.0) == pytest.approx(0.5, abs=1e-8)
        assert brute_force_gamma_constant([0.0, 2.0], 3.0) == pytest.approx(0.5, abs=1e-3)

    def test_single_point(self):
        for gamma in (1.0, 2.0, 7.5):
            assert minimize_gamma_constant(np.array([1.7]), gamma) == pytest.approx(1.7, abs=1e-9)

    def test_gamma_one_is_mean(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=157)
        assert minimize_gamma_constant(y, 1.0) == pytest.approx(float(np.mean(y)), abs=1e-8)

    def test_bisection_matches_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.normal(size=37) * 3.0
            gamma = float(rng.uniform(0.3, 6.0))
            got = minimize_gamma_constant(y, gamma)
            want = brute_force_gamma_constant(y, gamma)
            assert got == pytest.approx(want, abs=2e-3)

    def test_ends_where_adjacent_floats_are_wider_than_tol(self, bisection_guard):
        # Above 2**23 the float spacing exceeds tol = 1e-9, so the midpoint
        # of two adjacent floats is one of them.
        values = np.array([2e7, 2e7 + 3.0, 2e7 + 7.0])
        got = minimize_gamma_constant(values, 1.5)
        assert got == pytest.approx(_gamma_constant_closed_form(values, 1.5), abs=1e-7)
        assert capped_old_bisection(values, 1.5) is None

    def test_matches_the_old_loop_wherever_it_ended(self, bisection_guard):
        rng = np.random.default_rng(17)
        ended = spun = 0
        for offset in (0.0, 1e3, 1e6, 2.0**23 - 4.0, 2.0**23, 1e7, -3e7, 1e12, 1e15):
            for spread in (1e-9, 1e-6, 1e-3, 1.0, 1e3):
                for _ in range(6):
                    values = offset + spread * rng.standard_normal(int(rng.integers(1, 40)))
                    gamma = float(rng.choice([1.0, 1.5, 1 / 1.5, 7.0]))
                    got = minimize_gamma_constant(values, gamma)
                    want = capped_old_bisection(values, gamma)
                    if want is None:
                        spun += 1
                        assert values.min() <= got <= values.max()
                    else:
                        ended += 1
                        assert got == want
        assert ended >= 150 and spun >= 50

    def test_closed_form_matches_bisection(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            r = rng.normal(size=int(rng.integers(1, 60)))
            gamma = float(rng.uniform(0.2, 8.0))
            closed = _gamma_constant_closed_form(r, gamma)
            bisected = minimize_gamma_constant(r, gamma)
            assert closed == pytest.approx(bisected, abs=1e-8)


class TestFitG1Gamma:
    def test_two_point_constant_model(self):
        spec = LearnerSpec(kind="gbt")  # n < 2 * min_leaf, so no splits happen
        model = fit_g1_gamma(np.array([0.0, 1.0]), np.array([0.0, 2.0]), 3.0, spec)
        assert model.init_value == pytest.approx(0.5, abs=1e-8)
        assert np.all(np.abs(model.predict(np.array([0.0, 1.0])) - 0.5) < 1e-8)

    def test_outcomes_offset_by_1e7(self, bisection_guard):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(300, 2))
        y = 1e7 + rng.normal(size=300)
        model = fit_g1_gamma(x, y, 1.5, LearnerSpec(kind="gbt", n_rounds=20))
        assert abs(model.init_value - 1e7) < 3.0
        assert np.all(np.abs(model.predict(x) - 1e7) < 5.0)

    def test_gamma_one_close_to_ridge_on_linear_dgp(self):
        rng = np.random.default_rng(11)
        n = 2000
        x = rng.normal(size=(n, 2))
        y = 1.0 + x @ np.array([1.0, -0.5]) + 0.25 * rng.normal(size=n)
        gbt = fit_g1_gamma(x, y, 1.0, LearnerSpec(kind="gbt"))
        ridge = fit_ridge(x, y, LearnerSpec(kind="ridge"))
        rmse = float(np.sqrt(np.mean((gbt.predict(x) - ridge.predict(x)) ** 2)))
        assert rmse <= 0.1


class TestFitNu:
    def test_gamma_one_degenerate(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 1))
        y = rng.normal(size=100)
        g1 = fit_ridge(x, y, LearnerSpec(kind="ridge"))
        model = fit_nu(x, y, g1, 1.0, LearnerSpec(kind="logistic"))
        assert np.all(model.predict(x) == 1.0)

    def test_half_probability_composition(self):
        flat = LogisticModel(intercept=0.0, coef=np.zeros(1), clip=(0.01, 0.99))
        model = NuModel(prob_model=flat, gamma=3.0)
        x = np.linspace(-2, 2, 9).reshape(-1, 1)
        assert np.all(model.predict(x) == pytest.approx(2.0))

    def test_one_class_limit(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(200, 1))
        y = rng.normal(size=200) + 100.0  # every y far above any g1 fit of y - 100
        g1 = fit_ridge(x, y - 100.0, LearnerSpec(kind="ridge"))
        gamma = 3.0
        model = fit_nu(x, y, g1, gamma, LearnerSpec(kind="logistic", clip=0.01))
        nu = model.predict(x)
        assert np.all(nu >= 1.0)
        assert np.all(nu <= 1.0 + (gamma - 1.0) * 0.01 + 1e-9)

    def test_range_clamped_for_fractional_gamma(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(150, 1))
        y = rng.normal(size=150)
        g1 = fit_ridge(x, y, LearnerSpec(kind="ridge"))
        model = fit_nu(x, y, g1, 0.5, LearnerSpec(kind="logistic"))
        nu = model.predict(x)
        assert np.all(nu >= 0.5)
        assert np.all(nu <= 1.0)


@pytest.mark.parametrize("fit", [
    lambda X, y: fit_ridge(X, y, LearnerSpec(kind="ridge")),
    lambda X, y: fit_logistic(X, (y > 0).astype(float), LearnerSpec(kind="logistic")),
    lambda X, y: fit_gbt(X, y, SquaredLoss(), LearnerSpec(kind="gbt", n_rounds=2)),
    lambda X, y: fit_g1_gamma(X, y, 1.5, LearnerSpec(kind="gbt", n_rounds=2)),
    lambda X, y: fit_nu(X, y, fit_ridge(X, X[:, 0], LearnerSpec()), 1.5,
                        LearnerSpec(kind="logistic")),
], ids=["ridge", "logistic", "gbt", "g1_gamma", "nu"])
@pytest.mark.parametrize("n_y", [29, 31])
def test_outcome_length_must_match_rows(fit, n_y):
    rng = np.random.default_rng(n_y)
    X, y = rng.standard_normal((30, 2)), rng.standard_normal(n_y)
    with pytest.raises(ParameterError, match=rf"y has shape \({n_y},\) but X has 30 rows"):
        fit(X, y)


@pytest.mark.parametrize("field", ["ridge_lambda", "logistic_lambda"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_penalty_must_be_finite_and_nonnegative(field, value):
    with pytest.raises(ParameterError, match=field):
        LearnerSpec(**{field: value})


@pytest.mark.parametrize("settings, message", [
    ({"n_rounds": 5.0}, "n_rounds"),
    ({"n_rounds": float("inf")}, "n_rounds"),
    ({"max_depth": float("nan")}, "tree hyperparameters"),
    ({"min_leaf": float("nan")}, "tree hyperparameters"),
    ({"max_bins": float("nan")}, "tree hyperparameters"),
])
def test_tree_settings_that_cannot_grow_a_tree_are_rejected(settings, message):
    with pytest.raises(ParameterError, match=message):
        LearnerSpec(kind="gbt", **settings)


class TestDumpLoad:
    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(120, 2))
        y = x[:, 0] + rng.normal(size=120)
        labels = (y > 0).astype(float)
        models = [
            fit_ridge(x, y, LearnerSpec(kind="ridge")),
            fit_logistic(x, labels, LearnerSpec(kind="logistic")),
            fit_gbt(x, y, SquaredLoss(), LearnerSpec(kind="gbt", n_rounds=15)),
            fit_nu(x, y, fit_ridge(x, y, LearnerSpec(kind="ridge")), 2.0,
                   LearnerSpec(kind="logistic")),
        ]
        probe = rng.normal(size=(40, 2))
        for model in models:
            restored = load_model(dump_model(model))
            assert np.array_equal(model.predict(probe), restored.predict(probe))

    def test_cyclic_tree_rejected(self):
        text = (
            "seqdml-model v1\nkind = gbt\ninit = 0.0\nlearning_rate = 0.1\nn_trees = 1\n"
            "tree 0 nodes 1\nnode 0 0.0 0 0 0.0\n"
        )
        with pytest.raises(ParameterError, match="cycle"):
            load_model(text)

    GBT_HEAD = "seqdml-model v1\nkind = gbt\ninit = 0.0\nlearning_rate = 0.1\n"
    SPLIT = "tree 0 nodes 3\nnode 0 0.5 1 2 0.0\n"
    LEAVES = "node -1 0.0 -1 -1 1.0\nnode -1 0.0 -1 -1 2.0\n"

    @pytest.mark.parametrize("text", [
        GBT_HEAD + "n_trees = 1\n" + SPLIT,  # truncated
        GBT_HEAD + "n_trees = 2\n" + SPLIT + LEAVES,  # fewer trees than n_trees
        GBT_HEAD + "n_trees = 1\ntree 0 nodes 3\nnode 0 0.5 1 2 0.0 7\n" + LEAVES,
        GBT_HEAD + "n_trees = 1\ntree 0 nodes 3\nnode 0 abc 1 2 0.0\n" + LEAVES,
        GBT_HEAD + "n_trees = 2\ntree 0 nodes 3\nnode 0 0.5 1 5 0.0\n" + LEAVES
        + "tree 1 nodes 3\nnode 0 0.5 1 2 0.0\n" + LEAVES,
        GBT_HEAD + "n_trees = 2\n" + SPLIT + LEAVES
        + "tree 1 nodes 3\nnode 0 0.5 1 -3 0.0\n" + LEAVES,
        GBT_HEAD + "n_trees = 1\ntree 0 nodes 3\nnode 0 0.5 1 3 0.0\n" + LEAVES,
        GBT_HEAD + "n_trees = x\n",
        "seqdml-model v1\nkind = ridge\nintercept = 0.0\ncoef = 1.0 nan? \n",
        "seqdml-model v1\nkind = logistic\nintercept = 0.0\ncoef = 1.0\nclip = 0.01\n",
    ], ids=["truncated", "missing-tree", "extra-field", "bad-threshold", "link-into-next-tree",
            "negative-link", "link-past-end", "bad-n-trees", "bad-coef", "short-clip"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ParameterError):
            load_model(text)

    LOGISTIC = "seqdml-model v1\nkind = logistic\nintercept = 0.0\ncoef = 1.0\n"
    NU = "seqdml-model v1\nkind = nu\nintercept = 0.0\ncoef = 1.0\n"

    @pytest.mark.parametrize("text", [
        "seqdml-model v1\nkind = ridge\nintercept = 0.0\ncoef = \n",
        "seqdml-model v1\nkind = logistic\nintercept = 0.0\ncoef = \nclip = 0.01 0.99\n",
        LOGISTIC + "clip = 0.01 0.99 0.7\n",
        LOGISTIC + "clip = 0.9 0.1\n",
        LOGISTIC + "clip = 0.5 0.5\n",
        LOGISTIC + "clip = 0.0 0.99\n",
        LOGISTIC + "clip = 0.01 1.0\n",
        NU + "gamma = 1.5\nclip = 0.9 0.1\n",
        NU + "gamma = nan\nclip = 0.01 0.99\n",
        NU + "gamma = inf\nclip = 0.01 0.99\n",
        NU + "gamma = 0.0\nclip = 0.01 0.99\n",
    ], ids=["ridge-no-coef", "logistic-no-coef", "three-clip", "inverted-clip", "empty-clip",
            "clip-at-zero", "clip-at-one", "nu-inverted-clip", "nu-nan-gamma", "nu-inf-gamma",
            "nu-zero-gamma"])
    def test_invalid_parameters_rejected(self, text):
        with pytest.raises(ParameterError):
            load_model(text)

    @pytest.mark.parametrize("fit", [
        lambda x, y: fit_ridge(x, y, LearnerSpec(kind="ridge")),
        lambda x, y: fit_logistic(x, (y > 0).astype(float), LearnerSpec(kind="logistic")),
    ], ids=["ridge", "logistic"])
    def test_every_fitted_coef_model_round_trips(self, fit):
        # A coef model needs a covariate, so dump_model never writes the
        # empty coef that load_model rejects.
        rng = np.random.default_rng(16)
        x, y = rng.normal(size=(50, 1)), rng.normal(size=50)
        with pytest.raises(ParameterError, match="at least one column"):
            fit(np.empty((50, 0)), y)
        model = fit(x, y)
        restored = load_model(dump_model(model))
        assert np.array_equal(model.predict(x), restored.predict(x))

    def test_header_required(self):
        with pytest.raises(ParameterError):
            load_model("kind = ridge\nintercept = 0.0\ncoef = 1.0\n")


# ---------------------------------------------------------------------------
# Oracle: the per-tree predict and per-feature split search that the
# vectorised GBT replaced. The fast path must match it bit for bit.
# ---------------------------------------------------------------------------

def oracle_tree_predict(tree, X):
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        internal = feat >= 0
        if not internal.any():
            break
        rows = np.nonzero(internal)[0]
        cur = node[rows]
        go_left = X[rows, feat[rows]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def oracle_predict(model, X):
    X = np.asarray(X, dtype=float)
    out = np.full(X.shape[0], model.init_value)
    for tree in model.trees:
        out += model.learning_rate * oracle_tree_predict(tree, X)
    return out


def oracle_best_split(codes_offset, starts, n_bins, total_bins, target, rows, min_leaf):
    best = None
    best_gain = 0.0
    total_n = rows.size
    d = codes_offset.shape[1]
    flat = codes_offset[rows].T.ravel()
    counts = np.bincount(flat, minlength=total_bins)
    sums = np.bincount(flat, weights=np.tile(target[rows], d), minlength=total_bins)
    for j in range(d):
        bins = n_bins[j]
        if bins < 2:
            continue
        lo = starts[j]
        cnt = counts[lo : lo + bins]
        sm = sums[lo : lo + bins]
        n_left = np.cumsum(cnt)[:-1]
        s_left = np.cumsum(sm)[:-1]
        n_right = total_n - n_left
        s_total = float(sm.sum())
        s_right = s_total - s_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not ok.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(ok, s_left**2 / n_left + s_right**2 / n_right, -np.inf)
        base = s_total**2 / total_n
        b = int(np.argmax(score))
        gain = float(score[b] - base)
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = (j, b)
    return best


def oracle_fit_gbt(X, y, loss, spec):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    init = float(loss.init_value(y))
    f = np.full(X.shape[0], init)
    trees = []
    lr = spec.learning_rate
    if lr > 0.0 and spec.n_rounds > 0:
        edges = [_bin_edges(X[:, j], spec.max_bins) for j in range(X.shape[1])]
        n_bins = [e.size + 1 for e in edges]
        starts = np.concatenate(([0], np.cumsum(n_bins)[:-1]))
        total_bins = int(sum(n_bins))
        codes = np.column_stack([np.searchsorted(e, X[:, j], side="left") for j, e in enumerate(edges)])
        codes_offset = codes + starts[None, :]
        for _ in range(spec.n_rounds):
            target = -np.asarray(loss.gradient(y, f), dtype=float)
            nodes = []

            def build(rows, depth):
                nid = len(nodes)
                nodes.append([-1, 0.0, -1, -1, 0.0])
                split = None
                if depth < spec.max_depth and rows.size >= 2 * spec.min_leaf:
                    split = oracle_best_split(
                        codes_offset, starts, n_bins, total_bins, target, rows, spec.min_leaf
                    )
                if split is None:
                    leaf = prior_leaf_value(loss, y[rows], f[rows])
                    nodes[nid][4] = leaf
                    f[rows] += lr * leaf
                    return nid
                j, b = split
                mask = codes[rows, j] <= b
                nodes[nid][0] = j
                nodes[nid][1] = float(edges[j][b])
                nodes[nid][2] = build(rows[mask], depth + 1)
                nodes[nid][3] = build(rows[~mask], depth + 1)
                return nid

            build(np.arange(X.shape[0]), 0)
            cols = list(zip(*nodes))
            trees.append(_Tree(
                feature=np.array(cols[0], dtype=np.int64), threshold=np.array(cols[1]),
                left=np.array(cols[2], dtype=np.int64), right=np.array(cols[3], dtype=np.int64),
                value=np.array(cols[4]),
            ))
    return GbtModel(init_value=init, learning_rate=lr, trees=trees)


def _fixture(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    n = 400
    base = rng.normal(size=(n, 3))
    noise = rng.normal(size=n)
    spec = LearnerSpec(kind="gbt", n_rounds=30)
    if name == "constant":
        X = np.full((n, 3), 1.5)
    elif name == "mixed":
        X = np.column_stack([np.zeros(n), base[:, 0], np.full(n, -2.0), base[:, 1]])
    elif name == "few_unique":
        X = np.column_stack([rng.integers(0, 5, n), rng.integers(0, 40, n), base[:, 0]])
    elif name == "many_bins":
        # several distinct bin counts, above and below NumPy's pairwise-sum block
        X = np.column_stack([base[:, 0], rng.integers(0, 9, n), rng.integers(0, 150, n)])
        spec = LearnerSpec(kind="gbt", n_rounds=30, max_bins=255, min_leaf=5)
    elif name == "tied_columns":
        X = np.column_stack([base[:, 0], base[:, 0], base[:, 1]])
    elif name == "min_leaf_1_depth_1":
        X = base
        spec = LearnerSpec(kind="gbt", n_rounds=30, min_leaf=1, max_bins=2, max_depth=1)
    elif name == "min_leaf_1_depth_3":
        X = base
        spec = LearnerSpec(kind="gbt", n_rounds=30, min_leaf=1, max_bins=2, max_depth=3)
    elif name == "no_rounds":
        X = base
        spec = LearnerSpec(kind="gbt", n_rounds=0)
    elif name == "zero_learning_rate":
        X = base
        spec = LearnerSpec(kind="gbt", learning_rate=0.0)
    else:
        raise KeyError(name)
    y = np.sin(2.0 * base[:, 0]) + 0.5 * base[:, 1] ** 2 + noise
    return X, y, spec


FIXTURES = [
    "constant", "mixed", "few_unique", "many_bins", "tied_columns",
    "min_leaf_1_depth_1", "min_leaf_1_depth_3", "no_rounds", "zero_learning_rate",
]
LOSSES = {"squared": SquaredLoss(), "gamma": GammaRegressionLoss(2.5)}


class TestFastGbtMatchesOracle:
    @pytest.mark.parametrize("loss_name", sorted(LOSSES))
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_fit_and_predict_bit_identical(self, fixture, loss_name):
        X, y, spec = _fixture(fixture)
        loss = LOSSES[loss_name]
        model = fit_gbt(X, y, loss, spec)
        oracle = oracle_fit_gbt(X, y, loss, spec)
        assert dump_model(model) == dump_model(oracle)
        # the training rows, no rows, one row, and rows spanning several blocks
        across_blocks = 3 * _PREDICT_BLOCK // max(1, len(model.trees)) + 7
        probes = [X, X[:0], X[:1], np.random.default_rng(1).normal(size=(across_blocks, X.shape[1]))]
        restored = load_model(dump_model(model))
        for probe in probes:
            want = oracle_predict(oracle, probe)
            assert np.array_equal(model.predict(probe), want)
            assert np.array_equal(restored.predict(probe), want)

    def test_tied_columns_lower_index_wins(self):
        X, y, spec = _fixture("tied_columns")
        model = fit_gbt(X, y, SquaredLoss(), spec)
        used = np.concatenate([t.feature for t in model.trees])
        assert 0 in used and 1 not in used

    def test_feature_totals_match_unpadded_sums(self):
        # NumPy's pairwise sum rounds differently over a zero-padded row, so
        # each feature's total must cover exactly its own bins.
        rng = np.random.default_rng(2)
        n = 600
        i = np.arange(n)
        X = np.column_stack([i % 3, i % 9, i % 150, np.ones(n)]).astype(float)
        bins = _Bins(X, 255)
        n_bins = [e.size + 1 for e in bins.edges]
        assert n_bins == [3, 9, 150, 1]
        for _ in range(20):
            sums = rng.normal(size=(4, bins.stride)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))
            for j, b in enumerate(n_bins):
                sums[j, b:] = 0.0
            want = [float(sums[j, :b].sum()) if b > 1 else 0.0 for j, b in enumerate(n_bins)]
            assert bins.totals(sums).tolist() == want

    @pytest.mark.parametrize("left, right", [
        # The halves' sums square to inf in NumPy; the total's square is 0.
        (1e153, -1e153),
        # The halves' squares are finite; the total's Python square raises.
        (2e152, 2e152),
    ])
    def test_split_gain_overflow_raises(self, left, right):
        X = np.repeat([0.0, 1.0], 50)[:, None]
        target = np.repeat([left, right], 50)
        bins = _Bins(X, 255)
        # A stream's peek computes with NumPy's overflow warnings off.
        with np.errstate(over="ignore"), pytest.raises(FitError, match="split gain overflows"):
            bins.best_split(target, np.arange(100), 1)

    def test_too_few_covariates_rejected(self):
        X, y, spec = _fixture("mixed")
        model = fit_gbt(X, y, SquaredLoss(), spec)
        with pytest.raises(ParameterError):
            model.predict(X[:, :2])


# ---------------------------------------------------------------------------
# Oracle: the depth-first growth as it was before each round read one
# residual vector, the split search kept per-fit constants and the node
# tables were built once per fit. The fit must match it in dump_model text,
# or in its error's type and message.
# ---------------------------------------------------------------------------

class PriorBins:
    """The split search with a per-node weight repeat and count floors."""

    def __init__(self, X, max_bins):
        self.n, self.d = X.shape
        self.edges = [_bin_edges(X[:, j], max_bins) for j in range(self.d)]
        n_bins = np.array([e.size + 1 for e in self.edges])
        self.stride = int(n_bins.max())
        codes = np.stack([np.searchsorted(e, X[:, j], side="left") for j, e in enumerate(self.edges)])
        self.keys = codes + (np.arange(self.d) * self.stride)[:, None]
        self.groups = [(np.nonzero(n_bins == b)[0], b) for b in np.unique(n_bins) if b >= 2]
        self.root_n_left = self._n_left(self.keys)

    def _n_left(self, keys):
        counts = np.bincount(keys.ravel(), minlength=self.d * self.stride)
        return counts.reshape(self.d, self.stride).cumsum(axis=1)[:, :-1]

    def totals(self, sums):
        out = np.zeros(self.d)
        for feats, bins in self.groups:
            out[feats] = sums[feats, :bins].sum(axis=1)
        return out

    def best_split(self, target, rows, min_leaf):
        if not self.groups:
            return None
        total_n = rows.size
        if total_n == self.n:
            keys, n_left, t = self.keys, self.root_n_left, target
        else:
            keys, t = self.keys.take(rows, axis=1), target[rows]
            n_left = self._n_left(keys)
        weights = t[None, :].repeat(self.d, 0).ravel()
        sums = np.bincount(keys.ravel(), weights, self.d * self.stride).reshape(self.d, self.stride)
        s_total = self.totals(sums)
        s_left = sums.cumsum(axis=1)[:, :-1]
        s_right = s_total[:, None] - s_left
        n_right = total_n - n_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        score = np.where(
            ok,
            s_left**2 / np.maximum(n_left, 1) + s_right**2 / np.maximum(n_right, 1),
            -np.inf,
        )
        best_b = score.argmax(axis=1)
        best, best_gain = None, 0.0
        for j, (sc, st) in enumerate(zip(score.max(axis=1).tolist(), s_total.tolist())):
            if sc == -np.inf:
                continue
            try:
                if sc == np.inf:
                    raise OverflowError
                gain = sc - st**2 / total_n
            except OverflowError:
                raise FitError("fit_gbt: a split gain overflows floating point") from None
            if gain > best_gain + 1e-12:
                best, best_gain = (j, int(best_b[j])), gain
        return best


def prior_gamma_constant_closed_form(residuals, gamma_weight):
    r = np.sort(np.asarray(residuals, dtype=float))
    n = r.size
    if n == 0:
        return 0.0
    prefix = np.concatenate(([0.0], np.cumsum(r)))
    total = prefix[-1]
    j = np.arange(n + 1, dtype=float)
    candidates = ((total - prefix) + gamma_weight * prefix) / ((n - j) + gamma_weight * j)
    lows = np.concatenate(([-np.inf], r))
    highs = np.concatenate((r, [np.inf]))
    valid = np.nonzero((candidates >= lows - 1e-12) & (candidates <= highs + 1e-12))[0]
    if valid.size == 0:
        return minimize_gamma_constant(r, gamma_weight)
    return float(candidates[valid[0]])


def prior_gradient(loss, y, f):
    if isinstance(loss, GammaRegressionLoss):
        return gamma_loss_terms(y, f, loss.gamma)[1]
    return 2.0 * (f - y)


def prior_leaf_value(loss, y, f):
    if isinstance(loss, GammaRegressionLoss):
        return prior_gamma_constant_closed_form(np.asarray(y) - np.asarray(f), loss.gamma)
    return float(np.mean(y - f))


def prior_build_tree(bins, target, y, f, loss, spec, lr):
    nodes = []

    def build(rows, depth):
        nid = len(nodes)
        nodes.append([-1, 0.0, -1, -1, 0.0])
        split = None
        if depth < spec.max_depth and rows.size >= 2 * spec.min_leaf:
            split = bins.best_split(target, rows, spec.min_leaf)
        if split is None:
            leaf = prior_leaf_value(loss, y[rows], f[rows])
            nodes[nid][4] = leaf
            f[rows] += lr * leaf
            return nid
        j, b = split
        mask = bins.keys[j, rows] <= j * bins.stride + b
        nodes[nid][:2] = j, float(bins.edges[j][b])
        nodes[nid][2] = build(rows[mask], depth + 1)
        nodes[nid][3] = build(rows[~mask], depth + 1)
        return nid

    build(np.arange(bins.n), 0)
    return _Tree.from_nodes(nodes)


def prior_fit_gbt(X, y, loss, spec):
    X = np.asarray(X, dtype=float).reshape(len(X), -1)
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise FitError("fit_gbt: empty training data")
    init = float(loss.init_value(y))
    if not math.isfinite(init):
        raise FitError("fit_gbt: non-finite initialization constant")
    f = np.full(X.shape[0], init)
    trees = []
    lr = spec.learning_rate
    if lr > 0.0 and spec.n_rounds > 0:
        bins = PriorBins(X, spec.max_bins)
        for _ in range(spec.n_rounds):
            grad = np.asarray(prior_gradient(loss, y, f), dtype=float)
            if not np.isfinite(grad).all():
                raise FitError("fit_gbt: non-finite gradient during boosting")
            trees.append(prior_build_tree(bins, -grad, y, f, loss, spec, lr))
            if not np.isfinite(f).all():
                raise FitError("fit_gbt: non-finite predictions during boosting")
    return GbtModel(init_value=init, learning_rate=lr, trees=trees)


GAMMA_WEIGHTS = (1.0, 1.8, 1 / 1.8, 5.0)


def gbt_corpus(count, seed=14):
    """Seeded (X, y, loss, spec) cases: 3-1 000 rows, 1-5 covariates,
    constant and rounded columns, outcome scales from 1e-14 to 1e154, both
    losses and every tree hyperparameter the learner spec allows."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.choice([3, 10, 41, 85, 200, 315, 1000]))
        d = int(rng.integers(1, 6))
        X = rng.standard_normal((n, d))
        if i % 4 == 1:
            X[:, int(rng.integers(d))] = 1.5
        if i % 4 == 2:
            X = np.round(X, 1)
        scale = float(rng.choice([1e-14, 1.0, 1e7, 1e154]))
        y = scale * (np.sin(2.0 * X[:, 0]) + rng.standard_normal(n))
        spec = LearnerSpec(
            kind="gbt",
            n_rounds=int(rng.choice([0, 5, 30], p=[0.1, 0.45, 0.45])),
            max_depth=int(rng.integers(1, 4)),
            min_leaf=int(rng.choice([1, 5, 20])),
            max_bins=int(rng.choice([2, 8, 64])),
            learning_rate=float(rng.choice([0.0, 0.1, 1.0], p=[0.1, 0.45, 0.45])),
        )
        weight = GAMMA_WEIGHTS[i % 5] if i % 5 < 4 else None
        yield X, y, SquaredLoss() if weight is None else GammaRegressionLoss(weight), spec


def gbt_outcome(fit, X, y, loss, spec):
    # The oracle's loss values overflow NumPy at the largest scales.
    with np.errstate(all="ignore"):
        return fit_outcome(fit, X, y, loss, spec)


class TestFitGbtMatchesPriorOracle:
    def test_random_fits_and_errors_bit_identical(self):
        outcomes = []
        for X, y, loss, spec in gbt_corpus(240):
            got = gbt_outcome(fit_gbt, X, y, loss, spec)
            assert got == gbt_outcome(prior_fit_gbt, X, y, loss, spec)
            outcomes.append(got)
        trees = [o for o in outcomes if o.startswith("seqdml-model") and "n_trees = 0" not in o]
        assert len(trees) >= 100
        assert sum("split gain overflows" in o for o in outcomes) >= 10

    @pytest.mark.parametrize("case", ["init", "gradient", "leaf-fallback"])
    def test_extreme_outcomes_bit_identical(self, case, monkeypatch):
        # No splits (one constant covariate), so every round is one leaf.
        X = np.full((40, 1), 2.0)
        y = np.tile([-8e306, 8e306], 20)
        loss = GammaRegressionLoss(1.8)
        if case == "init":
            y, loss = np.full(40, 1e308), SquaredLoss()
        elif case == "gradient":
            # The constant sits near -5.3e307, so 2 (y - f) overflows.
            y, loss = 10.0 * y, GammaRegressionLoss(5.0)
        fallbacks = []
        monkeypatch.setattr("seqdml.nuisance.minimize_gamma_constant",
                            lambda *args: fallbacks.append(1) or minimize_gamma_constant(*args))
        spec = LearnerSpec(kind="gbt", n_rounds=5, learning_rate=0.1)
        got = gbt_outcome(fit_gbt, X, y, loss, spec)
        assert got == gbt_outcome(prior_fit_gbt, X, y, loss, spec)
        expected = {"init": "FitError: fit_gbt: non-finite initialization constant",
                    "gradient": "FitError: fit_gbt: non-finite gradient during boosting"}
        if case in expected:
            assert got == expected[case]
        else:
            assert got.startswith("seqdml-model") and len(fallbacks) > 1

    @pytest.mark.parametrize("n", [85, 315])
    @pytest.mark.parametrize("weight", [1.8, 1 / 1.8])
    def test_band_shapes_bit_identical(self, n, weight):
        # A band refit's asymmetric-loss fits: one arm's rows, four
        # covariates, the default learner, weight Gamma or 1/Gamma.
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 4))
        y = X[:, 0] + 0.5 * X[:, 1] ** 2 + rng.standard_normal(n)
        spec = LearnerSpec(kind="gbt")
        model = fit_g1_gamma(X, y, weight, spec)
        assert dump_model(model) == dump_model(prior_fit_gbt(X, y, GammaRegressionLoss(weight), spec))

    def test_closed_form_and_its_fallback_bit_identical(self, monkeypatch):
        fallbacks = []
        monkeypatch.setattr("seqdml.nuisance.minimize_gamma_constant",
                            lambda *args: fallbacks.append(1) or minimize_gamma_constant(*args))
        rng = np.random.default_rng(41)
        for scale in (1e-14, 1e-10, 1.0, 1e7, 1e154, 1e307):
            for _ in range(40):
                r = scale * rng.standard_normal(int(rng.integers(0, 60)))
                rows = np.sort(rng.permutation(r.size)[: int(rng.integers(0, r.size + 1))])
                gamma = float(rng.choice(GAMMA_WEIGHTS))
                with np.errstate(all="ignore"):
                    want = prior_gamma_constant_closed_form(r, gamma)
                    assert _gamma_constant_closed_form(r, gamma) == want
                    assert GammaRegressionLoss(gamma).residual_leaf(r, rows) == (
                        prior_gamma_constant_closed_form(r[rows], gamma))
        assert len(fallbacks) >= 10

    def test_loss_wrappers_match_the_old_arithmetic(self):
        rng = np.random.default_rng(42)
        y, f = rng.standard_normal(200), rng.standard_normal(200)
        f[:20] = y[:20]  # zero residuals
        for gamma in GAMMA_WEIGHTS:
            loss = GammaRegressionLoss(gamma)
            assert np.array_equal(loss.gradient(y, f), gamma_loss_terms(y, f, gamma)[1])
        assert SquaredLoss().residual_leaf(y - f, np.arange(50)) == float(np.mean(y[:50] - f[:50]))
