"""Streaming estimation: buffer observations, refit nuisances on a growing
schedule, recompute cross-fitted estimates at peek times, and maintain raw
plus running-intersected confidence sequences.

A stream is single-writer: push/peek/check_stop must not be called
concurrently on the same stream. Independent streams share no state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .boundary import MixtureParams, scalar_radius, tune_rho
from .crossfit import DmlFit, FoldPlan, solve_arrays
from .errors import (
    EstimandError,
    IngestError,
    NotReadyError,
    ParameterError,
    SyncError,
)
from .nuisance import (
    LearnerSpec,
    fit_g1_gamma,
    fit_gbt,
    fit_logistic,
    fit_nu,
    fit_ridge,
    SquaredLoss,
)
from .scores import (
    GammaParam,
    Observation,
    aipw_pseudo_outcome,
    effective_gamma,
    late_terms,
    partial_id_pseudo_outcome,
    plr_terms,
)

__all__ = [
    "StreamConfig",
    "CsPoint",
    "Stream",
    "StopRule",
    "StopDecision",
    "BandPoint",
    "excludes_zero",
    "width_below",
    "sign_determined",
    "pate_band",
]

ESTIMANDS = ("ate", "late", "pate_lower", "pate_upper", "plr")

NDJSON_FIELDS = ("n", "estimate", "sigma", "lower", "upper", "lower_int", "upper_int", "stopped")


@dataclass(frozen=True)
class StreamConfig:
    """Configuration of one monitored stream.

    ``rho=None`` means: tune the mixture scale at the first peek from the
    variance estimate there, then freeze it (re-tuning adaptively would break
    the mixture-boundary guarantee); a peek whose variance estimate is zero
    is deferred until one is positive. ``burn_in`` is the first peeking time.
    """

    estimand: str
    alpha: float = 0.05
    k_folds: int = 5
    burn_in: int = 100
    rho: float | None = None
    gamma: float = 1.0
    epsilon: float = 0.01
    refit_factor: float = 2.0
    seed: int = 0
    dml_variant: str = "dml2"
    fold_rule: str = "round_robin"
    outcome_spec: LearnerSpec | None = None
    propensity_spec: LearnerSpec | None = None
    treatment_spec: LearnerSpec | None = None
    gamma_spec: LearnerSpec | None = None
    nu_spec: LearnerSpec | None = None

    def __post_init__(self):
        if self.estimand not in ESTIMANDS:
            raise ParameterError(f"estimand must be one of {ESTIMANDS}, got {self.estimand!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.k_folds < 2:
            raise ParameterError(f"k_folds must be >= 2, got {self.k_folds}")
        if self.burn_in < self.k_folds:
            raise ParameterError(
                f"burn_in must be >= k_folds, got {self.burn_in} < {self.k_folds}"
            )
        if self.rho is not None and not self.rho > 0:
            raise ParameterError(f"rho must be positive when fixed, got {self.rho}")
        if self.gamma < 1.0:
            raise ParameterError(f"gamma must be >= 1, got {self.gamma}")
        if not (0.0 < self.epsilon < 0.5):
            raise ParameterError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if not self.refit_factor > 1.0:
            raise ParameterError(f"refit_factor must exceed 1, got {self.refit_factor}")
        if self.dml_variant not in ("dml1", "dml2"):
            raise ParameterError(f"dml_variant must be 'dml1' or 'dml2', got {self.dml_variant}")
        object.__setattr__(
            self, "outcome_spec",
            self.outcome_spec or LearnerSpec(kind="ridge", seed=self.seed),
        )
        for name in ("propensity_spec", "treatment_spec", "nu_spec"):
            spec = getattr(self, name)
            object.__setattr__(
                self, name,
                spec or LearnerSpec(kind="logistic", clip=self.epsilon, seed=self.seed),
            )
        object.__setattr__(
            self, "gamma_spec",
            self.gamma_spec or LearnerSpec(kind="gbt", seed=self.seed),
        )


@dataclass(frozen=True)
class CsPoint:
    """One peek: estimate, raw bounds, and running-intersected bounds."""

    n: int
    theta_hat: float
    sigma_hat: float
    lower: float
    upper: float
    lower_int: float
    upper_int: float
    stopped: bool

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "estimate": self.theta_hat,
            "sigma": self.sigma_hat,
            "lower": self.lower,
            "upper": self.upper,
            "lower_int": self.lower_int,
            "upper_int": self.upper_int,
            "stopped": self.stopped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())


@dataclass(frozen=True)
class StopRule:
    kind: str
    width: float | None = None


def excludes_zero() -> StopRule:
    return StopRule("excludes_zero")


def width_below(width: float) -> StopRule:
    if not width > 0:
        raise ParameterError(f"width threshold must be positive, got {width}")
    return StopRule("width_below", width)


def sign_determined() -> StopRule:
    return StopRule("sign_determined")


@dataclass(frozen=True)
class StopDecision:
    stop: bool
    rule: StopRule
    n: int
    lower: float
    upper: float


@dataclass(frozen=True)
class BandPoint:
    """Partial-identification band for the ATE at one synchronized peek."""

    n: int
    lower: float
    upper: float
    lower_estimate: float
    upper_estimate: float


class _GrowArray:
    """Append-only float buffer with amortized O(1) growth."""

    def __init__(self, columns: int | None = None):
        shape = (16,) if columns is None else (16, columns)
        self._buf = np.empty(shape)
        self._n = 0

    def append(self, row) -> None:
        if self._n == self._buf.shape[0]:
            self._grow(self._n + 1)
        self._buf[self._n] = row
        self._n += 1

    def extend(self, rows: np.ndarray) -> None:
        needed = self._n + rows.shape[0]
        if needed > self._buf.shape[0]:
            self._grow(needed)
        self._buf[self._n : needed] = rows
        self._n = needed

    def _grow(self, needed: int) -> None:
        capacity = self._buf.shape[0]
        while capacity < needed:
            capacity *= 2
        new = np.empty((capacity,) + self._buf.shape[1:])
        new[: self._n] = self._buf[: self._n]
        self._buf = new

    def view(self) -> np.ndarray:
        return self._buf[: self._n]


class Stream:
    """Single-writer stream of observations with anytime-valid peeks."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self.plan = FoldPlan(config.k_folds, config.fold_rule, config.seed)
        self.rho: float | None = config.rho
        self.peek_log: list[CsPoint] = []
        self.stopped_at: int | None = None
        self.post_stop_pushes = 0
        self.clip_events = 0
        self.holdout_rmse: dict[str, list[tuple[int, float]]] = {}
        self.last_fit: DmlFit | None = None
        self._x_dim: int | None = None
        self._y = _GrowArray()
        self._a = _GrowArray()
        self._z = _GrowArray()
        self._X: _GrowArray | None = None
        self._fold: list[int] = []
        self._fold_models: list[dict] | None = None
        self._fit_version = 0
        self._next_refit: int | None = None
        self._cache_version = -1
        self._n_scored = 0
        self._psi_a = _GrowArray()
        self._psi_b = _GrowArray()

    # -- ingestion ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._fold)

    def push(self, obs: Observation) -> "Stream":
        """Append one observation; fold assignment only, no estimation."""
        needs_z = self.config.estimand == "late"
        if needs_z and obs.z is None:
            raise IngestError("the late estimand requires an instrument z on every row")
        if self._x_dim is None:
            self._x_dim = len(obs.x)
            self._X = _GrowArray(columns=self._x_dim)
        elif len(obs.x) != self._x_dim:
            raise IngestError(
                f"covariate dimension changed from {self._x_dim} to {len(obs.x)}"
            )
        index = self.n
        self._y.append(obs.y)
        self._a.append(float(obs.a))
        self._z.append(float(obs.z) if obs.z is not None else np.nan)
        self._X.append(obs.x)
        self._fold.append(self.plan.fold_of(index))
        if self.stopped_at is not None:
            self.post_stop_pushes += 1
        return self

    def extend(self, observations) -> "Stream":
        for obs in observations:
            self.push(obs)
        return self

    # -- nuisance fitting ---------------------------------------------------

    def _fit_regressor(self, spec: LearnerSpec, X, y, ids):
        if spec.kind == "ridge":
            return fit_ridge(X, y, spec, train_ids=ids)
        if spec.kind == "gbt":
            return fit_gbt(X, y, SquaredLoss(), spec, train_ids=ids)
        raise ParameterError(f"{spec.kind!r} cannot be used as a regression learner here")

    def _fit_prob(self, spec: LearnerSpec, X, labels, ids):
        if spec.kind != "logistic":
            raise ParameterError("probability nuisances require a logistic learner")
        return fit_logistic(X, labels, spec, train_ids=ids)

    def _check_two_classes(self, values: np.ndarray, what: str, fold: int) -> None:
        if values.size == 0 or values.min() == values.max():
            raise NotReadyError(
                f"fold {fold}: training data has a single {what} class; peek deferred"
            )

    def _fit_fold(self, fold: int, train_idx: np.ndarray) -> dict:
        cfg = self.config
        X = self._X.view()[train_idx]
        y = self._y.view()[train_idx]
        a = self._a.view()[train_idx]
        ids = frozenset(int(i) for i in train_idx)
        models: dict = {"train_ids": ids}
        if cfg.estimand == "ate":
            self._check_two_classes(a, "treatment", fold)
            treated = a == 1.0
            models["g1"] = self._fit_regressor(
                cfg.outcome_spec, X[treated], y[treated], frozenset(map(int, train_idx[treated]))
            )
            models["g0"] = self._fit_regressor(
                cfg.outcome_spec, X[~treated], y[~treated], frozenset(map(int, train_idx[~treated]))
            )
            models["e"] = self._fit_prob(cfg.propensity_spec, X, a, ids)
        elif cfg.estimand == "plr":
            models["m"] = self._fit_regressor(cfg.outcome_spec, X, y, ids)
            models["e"] = self._fit_prob(cfg.propensity_spec, X, a, ids)
        elif cfg.estimand == "late":
            z = self._z.view()[train_idx]
            self._check_two_classes(z, "instrument", fold)
            assigned = z == 1.0
            ids_t = frozenset(map(int, train_idx[assigned]))
            ids_c = frozenset(map(int, train_idx[~assigned]))
            models["g_t"] = self._fit_regressor(cfg.outcome_spec, X[assigned], y[assigned], ids_t)
            models["g_c"] = self._fit_regressor(cfg.outcome_spec, X[~assigned], y[~assigned], ids_c)
            models["m_t"] = self._fit_prob(cfg.treatment_spec, X[assigned], a[assigned], ids_t)
            models["m_c"] = self._fit_prob(cfg.treatment_spec, X[~assigned], a[~assigned], ids_c)
            models["e"] = self._fit_prob(cfg.propensity_spec, X, z, ids)
        else:  # pate_lower / pate_upper
            self._check_two_classes(a, "treatment", fold)
            gamma = GammaParam(cfg.gamma)
            side_t = "lower" if cfg.estimand == "pate_lower" else "upper"
            side_c = "upper" if cfg.estimand == "pate_lower" else "lower"
            w_t = effective_gamma(gamma, side_t)
            w_c = effective_gamma(gamma, side_c)
            treated = a == 1.0
            ids_t = frozenset(map(int, train_idx[treated]))
            ids_c = frozenset(map(int, train_idx[~treated]))
            models["g_t"] = fit_g1_gamma(X[treated], y[treated], w_t, cfg.gamma_spec, ids_t)
            models["nu_t"] = fit_nu(X[treated], y[treated], models["g_t"], w_t, cfg.nu_spec, ids_t)
            models["g_c"] = fit_g1_gamma(X[~treated], y[~treated], w_c, cfg.gamma_spec, ids_c)
            models["nu_c"] = fit_nu(X[~treated], y[~treated], models["g_c"], w_c, cfg.nu_spec, ids_c)
            models["e"] = self._fit_prob(cfg.propensity_spec, X, a, ids)
        return models

    def _holdout_targets(self, y, a, z) -> dict[str, tuple[np.ndarray, str]]:
        """Map nuisance name to (observable target, holdout subset key)."""
        cfg = self.config
        if cfg.estimand == "ate":
            return {"g1": (y, "a1"), "g0": (y, "a0"), "e": (a, "all")}
        if cfg.estimand == "plr":
            return {"m": (y, "all"), "e": (a, "all")}
        if cfg.estimand == "late":
            return {
                "g_t": (y, "z1"), "g_c": (y, "z0"),
                "m_t": (a, "z1"), "m_c": (a, "z0"), "e": (z, "all"),
            }
        # nu has no directly observable target, so it is not tracked.
        return {"g_t": (y, "a1"), "g_c": (y, "a0"), "e": (a, "all")}

    def _record_holdout_rmse(self, n: int, bundles: list[dict]) -> None:
        X = self._X.view()[:n]
        y = self._y.view()[:n]
        a = self._a.view()[:n]
        z = self._z.view()[:n]
        fold_ids = np.asarray(self._fold[:n])
        targets = self._holdout_targets(y, a, z)
        sums: dict[str, list[float]] = {}
        for k, models in enumerate(bundles):
            hold = fold_ids == k
            masks = {
                "all": hold,
                "a1": hold & (a == 1.0),
                "a0": hold & (a == 0.0),
                "z1": hold & (z == 1.0),
                "z0": hold & (z == 0.0),
            }
            for name, (target_vals, mask_key) in targets.items():
                mask = masks[mask_key]
                if name not in models or mask.sum() == 0:
                    continue
                err = target_vals[mask] - models[name].predict(X[mask])
                sums.setdefault(name, []).append(float(np.sqrt(np.mean(err * err))))
        for name, vals in sums.items():
            self.holdout_rmse.setdefault(name, []).append((n, float(np.mean(vals))))

    def _refit(self, n: int) -> None:
        fold_ids = np.asarray(self._fold[:n])
        bundles = []
        for k in range(self.config.k_folds):
            train_idx = np.nonzero(fold_ids != k)[0]
            bundles.append(self._fit_fold(k, train_idx))
        # Swap in only after every fold fit succeeded, so a deferred peek
        # leaves the previous models usable.
        self._fold_models = bundles
        self._fit_version += 1
        self._record_holdout_rmse(n, bundles)
        factor = self.config.refit_factor
        threshold = float(self.config.burn_in)
        while threshold <= n:
            threshold = threshold * factor
        self._next_refit = int(math.ceil(threshold))

    def _refit_due(self, n: int) -> bool:
        if self._fold_models is None:
            return True
        return self._next_refit is not None and n >= self._next_refit

    # -- scoring ------------------------------------------------------------

    def _clipped_propensity(self, model, X) -> np.ndarray:
        # Count against the unclipped probability: the model's own clip
        # usually equals epsilon and would hide every event.
        raw = model.probability(X)
        eps = self.config.epsilon
        self.clip_events += int(np.sum((raw < eps) | (raw > 1.0 - eps)))
        return np.clip(np.clip(raw, *model.clip), eps, 1.0 - eps)

    def _score_rows(self, rows: np.ndarray, models: dict) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        X = self._X.view()[rows]
        y = self._y.view()[rows]
        a = self._a.view()[rows]
        e = self._clipped_propensity(models["e"], X)
        if cfg.estimand == "ate":
            psi_b = aipw_pseudo_outcome(y, a, models["g1"].predict(X), models["g0"].predict(X), e)
            return np.full(rows.size, -1.0), psi_b
        if cfg.estimand == "plr":
            return plr_terms(y, a, models["m"].predict(X), e)
        if cfg.estimand == "late":
            z = self._z.view()[rows]
            return late_terms(
                y, a, z,
                models["g_t"].predict(X), models["g_c"].predict(X),
                models["m_t"].predict(X), models["m_c"].predict(X), e,
            )
        gamma = GammaParam(cfg.gamma)
        side_t = "lower" if cfg.estimand == "pate_lower" else "upper"
        side_c = "upper" if cfg.estimand == "pate_lower" else "lower"
        pseudo_t = partial_id_pseudo_outcome(
            y, a, models["g_t"].predict(X), models["nu_t"].predict(X), e,
            effective_gamma(gamma, side_t), "treated",
        )
        pseudo_c = partial_id_pseudo_outcome(
            y, a, models["g_c"].predict(X), models["nu_c"].predict(X), e,
            effective_gamma(gamma, side_c), "control",
        )
        return np.full(rows.size, -1.0), pseudo_t - pseudo_c

    def _scores_upto(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self._cache_version != self._fit_version:
            self._psi_a = _GrowArray()
            self._psi_b = _GrowArray()
            self._n_scored = 0
            self.clip_events = 0  # every row is rescored by the new models
            self._cache_version = self._fit_version
        if self._n_scored < n:
            start = self._n_scored
            fold_ids = np.asarray(self._fold[start:n])
            psi_a = np.empty(n - start)
            psi_b = np.empty(n - start)
            for k in range(self.config.k_folds):
                local = np.nonzero(fold_ids == k)[0]
                if local.size == 0:
                    continue
                rows = local + start
                models = self._fold_models[k]
                # Out-of-fold purity: a fold's models must never score a row
                # they were trained on.
                if not models["train_ids"].isdisjoint(int(i) for i in rows):
                    raise AssertionError(
                        f"fold {k} models would score rows they were trained on"
                    )
                pa, pb = self._score_rows(rows, models)
                psi_a[local] = pa
                psi_b[local] = pb
            self._psi_a.extend(psi_a)
            self._psi_b.extend(psi_b)
            self._n_scored = n
        return self._psi_a.view()[:n], self._psi_b.view()[:n]

    # -- peeking ------------------------------------------------------------

    def peek(self) -> CsPoint:
        """Refresh nuisances per schedule, solve, and emit one CsPoint."""
        cfg = self.config
        n = self.n
        if n < cfg.burn_in:
            raise NotReadyError(f"need at least burn_in={cfg.burn_in} observations, have {n}")
        if self.peek_log and self.peek_log[-1].n == n:
            return self.peek_log[-1]
        fold_ids = np.asarray(self._fold[:n])
        counts = np.bincount(fold_ids, minlength=cfg.k_folds)
        if counts.min() == 0:
            raise NotReadyError("every fold needs at least one observation")
        if self._refit_due(n):
            self._refit(n)
        psi_a, psi_b = self._scores_upto(n)
        fit = solve_arrays(psi_a, psi_b, fold_ids, cfg.k_folds, variant=cfg.dml_variant)
        sigma_sq = float(fit.sigma_sq_hat)
        if self.rho is None and not sigma_sq > 0:
            # rho cannot be tuned to a zero variance; a later peek may see some.
            raise NotReadyError("variance estimate is zero, so rho cannot be tuned yet; peek deferred")
        self.last_fit = fit
        if self.rho is None:
            self.rho = tune_rho(cfg.alpha, n, sigma_sq)
        sigma_hat = math.sqrt(sigma_sq)
        radius = scalar_radius(n, MixtureParams(self.rho, cfg.alpha, 1), sigma_hat)
        theta = float(fit.theta_hat)
        lower, upper = theta - radius, theta + radius
        if self.peek_log:
            lower_int = max(self.peek_log[-1].lower_int, lower)
            upper_int = min(self.peek_log[-1].upper_int, upper)
        else:
            lower_int, upper_int = lower, upper
        point = CsPoint(
            n=n,
            theta_hat=theta,
            sigma_hat=sigma_hat,
            lower=lower,
            upper=upper,
            lower_int=lower_int,
            upper_int=upper_int,
            stopped=self.stopped_at is not None,
        )
        self.peek_log.append(point)
        return point

    def check_stop(self, rule: StopRule | str) -> StopDecision:
        """Evaluate a stopping rule on the latest intersected interval."""
        if isinstance(rule, str):
            rule = StopRule(rule)
        if rule.kind not in ("excludes_zero", "width_below", "sign_determined"):
            raise ParameterError(f"unknown stop rule {rule.kind!r}")
        if rule.kind == "width_below" and rule.width is None:
            raise ParameterError("width_below needs a width threshold")
        if not self.peek_log:
            raise NotReadyError("check_stop requires at least one recorded peek")
        point = self.peek_log[-1]
        lo, hi = point.lower_int, point.upper_int
        if rule.kind == "width_below":
            stop = (hi - lo) < rule.width
        elif rule.kind == "excludes_zero":
            stop = not (lo <= 0.0 <= hi)
        else:
            stop = lo > 0.0 or hi < 0.0
        if stop and self.stopped_at is None:
            self.stopped_at = point.n
        return StopDecision(stop=stop, rule=rule, n=point.n, lower=lo, upper=hi)

    def export_ndjson(self) -> str:
        """Peek log as NDJSON, one fixed-schema record per peek."""
        return "".join(p.to_json() + "\n" for p in self.peek_log)

    def nuisance_evals(self) -> "list":
        """Out-of-fold nuisance evaluations for every buffered row.

        For the partial-identification estimands the evaluation describes the
        treated-arm score (g1 = treated-arm regression, nu = its nu model).
        Requires nuisances to have been fit (peek at least once).
        """
        from .scores import NuisanceEval

        if self._fold_models is None:
            raise NotReadyError("nuisances have not been fit yet; peek first")
        cfg = self.config
        n = self.n
        fold_ids = np.asarray(self._fold[:n])
        evals: list[NuisanceEval | None] = [None] * n
        for k in range(cfg.k_folds):
            rows = np.nonzero(fold_ids == k)[0]
            if rows.size == 0:
                continue
            models = self._fold_models[k]
            X = self._X.view()[rows]
            eps = cfg.epsilon
            e = np.clip(models["e"].predict(X), eps, 1.0 - eps)
            if cfg.estimand == "ate":
                g1 = models["g1"].predict(X)
                g0 = models["g0"].predict(X)
                for j, i in enumerate(rows):
                    evals[i] = NuisanceEval(g1=float(g1[j]), g0=float(g0[j]), e=float(e[j]))
            elif cfg.estimand == "plr":
                m = models["m"].predict(X)
                for j, i in enumerate(rows):
                    evals[i] = NuisanceEval(m=float(m[j]), e=float(e[j]))
            elif cfg.estimand == "late":
                g_t = models["g_t"].predict(X)
                g_c = models["g_c"].predict(X)
                m_t = models["m_t"].predict(X)
                m_c = models["m_c"].predict(X)
                for j, i in enumerate(rows):
                    evals[i] = NuisanceEval(
                        g_t=float(g_t[j]), g_c=float(g_c[j]),
                        m_t=float(m_t[j]), m_c=float(m_c[j]), e=float(e[j]),
                    )
            else:
                g_t = models["g_t"].predict(X)
                nu_t = models["nu_t"].predict(X)
                for j, i in enumerate(rows):
                    evals[i] = NuisanceEval(g1=float(g_t[j]), e=float(e[j]), nu=float(nu_t[j]))
        return evals


def pate_band(lower_stream: Stream, upper_stream: Stream) -> BandPoint:
    """Combine the two bound streams into one band for the partially identified ATE.

    Each stream estimates its bound as a single scalar functional with its
    own score, so each side's variance is the combined-score variance rather
    than interval arithmetic on two separate sequences.
    """
    if lower_stream.config.estimand != "pate_lower":
        raise EstimandError("first stream must estimate pate_lower")
    if upper_stream.config.estimand != "pate_upper":
        raise EstimandError("second stream must estimate pate_upper")
    if not lower_stream.peek_log or not upper_stream.peek_log:
        raise NotReadyError("both streams must have peeked")
    lo_point = lower_stream.peek_log[-1]
    up_point = upper_stream.peek_log[-1]
    if lo_point.n != up_point.n:
        raise SyncError(
            f"streams peeked at different sample sizes: {lo_point.n} vs {up_point.n}"
        )
    return BandPoint(
        n=lo_point.n,
        lower=lo_point.lower_int,
        upper=up_point.upper_int,
        lower_estimate=lo_point.theta_hat,
        upper_estimate=up_point.theta_hat,
    )
