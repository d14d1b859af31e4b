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
from typing import Callable

import numpy as np

from .boundary import MixtureParams, scalar_radius, tune_rho
# solve_arrays is the batch form of the solve ScoreMoments does; it stays
# importable here, where the benchmark's tracer wraps the engine's names.
from .crossfit import DmlFit, FoldPlan, ScoreMoments, solve_arrays  # noqa: F401
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

# ---------------------------------------------------------------------------
# Estimand table: each estimand is its nuisances plus a score linear in theta
# ---------------------------------------------------------------------------

# The fit and score functions below look the learners and kernels up in this
# module's globals when called, so wrappers installed there see every call.

def _fit_outcome(spec: LearnerSpec, X, target, weight, base):
    if spec.kind == "ridge":
        return fit_ridge(X, target, spec)
    return fit_gbt(X, target, SquaredLoss(), spec)


def _fit_probability(spec: LearnerSpec, X, target, weight, base):
    return fit_logistic(X, target, spec)


def _fit_gamma(spec: LearnerSpec, X, target, weight, base):
    return fit_g1_gamma(X, target, weight, spec)


def _fit_nu(spec: LearnerSpec, X, target, weight, base):
    return fit_nu(X, target, base, weight, spec)


# role: (StreamConfig spec field, accepted learner kinds, fit function)
_ROLES = {
    "outcome": ("outcome_spec", ("ridge", "gbt"), _fit_outcome),
    "propensity": ("propensity_spec", ("logistic",), _fit_probability),
    "treatment": ("treatment_spec", ("logistic",), _fit_probability),
    "gamma": ("gamma_spec", ("gbt",), _fit_gamma),
    "nu": ("nu_spec", ("logistic",), _fit_nu),
}


# Score functions: (y, a, z, predictions by bundle key, loss weights by
# bundle key) -> (psi_a, psi_b) over the scored rows.

def _ate_score(y, a, z, p, w):
    return np.full(y.size, -1.0), aipw_pseudo_outcome(y, a, p["g1"], p["g0"], p["e"])


def _plr_score(y, a, z, p, w):
    return plr_terms(y, a, p["m"], p["e"])


def _late_score(y, a, z, p, w):
    return late_terms(y, a, z, p["g_t"], p["g_c"], p["m_t"], p["m_c"], p["e"])


def _pate_score(y, a, z, p, w):
    pseudo_t = partial_id_pseudo_outcome(y, a, p["g_t"], p["nu_t"], p["e"], w["g_t"], "treated")
    pseudo_c = partial_id_pseudo_outcome(y, a, p["g_c"], p["nu_c"], p["e"], w["g_c"], "control")
    return np.full(y.size, -1.0), pseudo_t - pseudo_c


@dataclass(frozen=True)
class _Nuisance:
    """One nuisance, fit on each fold's training rows.

    ``target`` is the column it is fit to and scored against in the holdout
    RMSE. nu has no observable target: it is None there, and nu is fit to y.
    """

    key: str  # name in the fold bundle and in holdout_rmse
    role: str  # a key of _ROLES
    subset: str  # training rows: "all", or a column and its value ("a1", "z0", ...)
    target: str | None
    side: str | None = None  # gamma and nu: the bound side that sets the loss weight
    base: str | None = None  # nu: the gamma nuisance it splits y at


@dataclass(frozen=True)
class _Estimand:
    """An estimand: its nuisances and its score, which is linear in theta."""

    nuisances: tuple[_Nuisance, ...]  # in fit order
    score: Callable  # vectorised, see the score functions above
    evals: dict[str, str]  # NuisanceEval field -> bundle key, in diagnose's order
    classes: str | None = None  # column whose two classes every training fold needs
    needs_z: bool = False


def _pate(treated_side: str) -> _Estimand:
    control_side = "upper" if treated_side == "lower" else "lower"
    return _Estimand(
        nuisances=(
            _Nuisance("g_t", "gamma", "a1", "y", side=treated_side),
            _Nuisance("nu_t", "nu", "a1", None, side=treated_side, base="g_t"),
            _Nuisance("g_c", "gamma", "a0", "y", side=control_side),
            _Nuisance("nu_c", "nu", "a0", None, side=control_side, base="g_c"),
            _Nuisance("e", "propensity", "all", "a"),
        ),
        score=_pate_score,
        # The evaluations describe the treated arm's score.
        evals={"g1": "g_t", "e": "e", "nu": "nu_t"},
        classes="a",
    )


_TABLE = {
    "ate": _Estimand(
        nuisances=(
            _Nuisance("g1", "outcome", "a1", "y"),
            _Nuisance("g0", "outcome", "a0", "y"),
            _Nuisance("e", "propensity", "all", "a"),
        ),
        score=_ate_score,
        evals={"g1": "g1", "g0": "g0", "e": "e"},
        classes="a",
    ),
    "plr": _Estimand(
        nuisances=(
            _Nuisance("m", "outcome", "all", "y"),
            _Nuisance("e", "propensity", "all", "a"),
        ),
        score=_plr_score,
        evals={"m": "m", "e": "e"},
    ),
    "late": _Estimand(
        nuisances=(
            _Nuisance("g_t", "outcome", "z1", "y"),
            _Nuisance("g_c", "outcome", "z0", "y"),
            _Nuisance("m_t", "treatment", "z1", "a"),
            _Nuisance("m_c", "treatment", "z0", "a"),
            _Nuisance("e", "propensity", "all", "z"),
        ),
        score=_late_score,
        evals={"g_t": "g_t", "g_c": "g_c", "m_t": "m_t", "m_c": "m_c", "e": "e"},
        classes="z",
        needs_z=True,
    ),
    "pate_lower": _pate("lower"),
    "pate_upper": _pate("upper"),
}

_CLASS_NAMES = {"a": "treatment", "z": "instrument"}

ESTIMANDS = tuple(sorted(_TABLE))

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
        if self.rho is not None and not (self.rho > 0 and math.isfinite(self.rho)):
            raise ParameterError(f"rho must be a positive real, got {self.rho}")
        if not (self.gamma >= 1.0 and math.isfinite(self.gamma)):
            raise ParameterError(f"gamma must be a real >= 1, got {self.gamma}")
        if not (0.0 < self.epsilon < 0.5):
            raise ParameterError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if not self.refit_factor > 1.0:
            raise ParameterError(f"refit_factor must exceed 1, got {self.refit_factor}")
        if self.dml_variant not in ("dml1", "dml2"):
            raise ParameterError(f"dml_variant must be 'dml1' or 'dml2', got {self.dml_variant}")
        # An unset spec gets its role's first accepted kind; probabilities clip at epsilon.
        for name, kinds, _fit in _ROLES.values():
            if getattr(self, name) is None:
                clip = self.epsilon if kinds[0] == "logistic" else LearnerSpec.clip
                spec = LearnerSpec(kind=kinds[0], clip=clip, seed=self.seed)
                object.__setattr__(self, name, spec)
        for nuis in _TABLE[self.estimand].nuisances:
            name, kinds, _fit = _ROLES[nuis.role]
            kind = getattr(self, name).kind
            if kind not in kinds:
                raise ParameterError(
                    f"{name} for {self.estimand} must be of kind "
                    f"{' or '.join(map(repr, kinds))}, got {kind!r}"
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

    def __len__(self) -> int:
        return self._n

    def append(self, row) -> None:
        if self._n == self._buf.shape[0]:
            new = np.empty((2 * self._n,) + self._buf.shape[1:])
            new[: self._n] = self._buf
            self._buf = new
        self._buf[self._n] = row
        self._n += 1

    def view(self) -> np.ndarray:
        return self._buf[: self._n]


class Stream:
    """Single-writer stream of observations with anytime-valid peeks."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self.plan = FoldPlan(config.k_folds)
        self._estimand = _TABLE[config.estimand]
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
        self._fold_models: list[dict] | None = None
        self._next_refit: int | None = None
        # Score moments of the rows scored since the last refit; None until
        # the first peek after a refit rescores every row.
        self._moments: ScoreMoments | None = None

    # -- ingestion ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._y)

    def push(self, obs: Observation) -> "Stream":
        """Append one observation; no estimation. Its fold is its arrival
        index modulo k_folds."""
        if self._estimand.needs_z and obs.z is None:
            raise IngestError(
                f"the {self.config.estimand} estimand requires an instrument z on every row"
            )
        if self._x_dim is None:
            self._x_dim = len(obs.x)
            self._X = _GrowArray(columns=self._x_dim)
        elif len(obs.x) != self._x_dim:
            raise IngestError(
                f"covariate dimension changed from {self._x_dim} to {len(obs.x)}"
            )
        self._y.append(obs.y)
        self._a.append(float(obs.a))
        self._z.append(float(obs.z) if obs.z is not None else np.nan)
        self._X.append(obs.x)
        if self.stopped_at is not None:
            self.post_stop_pushes += 1
        return self

    def extend(self, observations) -> "Stream":
        for obs in observations:
            self.push(obs)
        return self

    # -- nuisance fitting ---------------------------------------------------

    def _columns(self, rows) -> dict[str, np.ndarray]:
        return {"y": self._y.view()[rows], "a": self._a.view()[rows], "z": self._z.view()[rows]}

    def _loss_weights(self) -> dict[str, float]:
        """Loss weights of the gamma and nu nuisances, by bundle key."""
        return {
            nuis.key: effective_gamma(GammaParam(self.config.gamma), nuis.side)
            for nuis in self._estimand.nuisances
            if nuis.side is not None
        }

    @staticmethod
    def _subset(subset: str, cols: dict[str, np.ndarray]):
        """Index of a nuisance's training subset: every row, or a boolean mask."""
        if subset == "all":
            return slice(None)
        return cols[subset[0]] == float(subset[1:])

    def _fit_fold(self, fold: int, train_n: int) -> dict:
        """Fit fold ``fold``'s nuisances on the first ``train_n`` rows outside it.

        The bundle records both numbers, which fix its training rows, so
        scoring can check that it never scores one of them.
        """
        cfg, est = self.config, self._estimand
        train_idx = np.nonzero(self.plan.assignments(train_n) != fold)[0]
        cols = self._columns(train_idx)
        if est.classes is not None:
            values = cols[est.classes]
            if values.size == 0 or values.min() == values.max():
                raise NotReadyError(
                    f"fold {fold}: training data has a single {_CLASS_NAMES[est.classes]} "
                    "class; peek deferred"
                )
        weights = self._loss_weights()
        X = self._X.view()[train_idx]
        models: dict = {"fold": fold, "train_n": train_n}
        for nuis in est.nuisances:
            spec_name, _kinds, fit = _ROLES[nuis.role]
            rows = self._subset(nuis.subset, cols)
            models[nuis.key] = fit(
                getattr(cfg, spec_name), X[rows], cols[nuis.target or "y"][rows],
                weights.get(nuis.key), models.get(nuis.base),
            )
        return models

    def _record_holdout_rmse(self, n: int, bundles: list[dict]) -> None:
        X = self._X.view()[:n]
        cols = self._columns(slice(n))
        fold_ids = self.plan.assignments(n)
        # nu has no directly observable target, so it is not tracked.
        tracked = [
            (nuis, self._subset(nuis.subset, cols))
            for nuis in self._estimand.nuisances
            if nuis.target is not None
        ]
        sums: dict[str, list[float]] = {}
        for k, models in enumerate(bundles):
            hold = fold_ids == k
            for nuis, subset in tracked:
                mask = hold if nuis.subset == "all" else hold & subset
                if mask.sum() == 0:
                    continue
                err = cols[nuis.target][mask] - models[nuis.key].predict(X[mask])
                sums.setdefault(nuis.key, []).append(float(np.sqrt(np.mean(err * err))))
        for name, vals in sums.items():
            self.holdout_rmse.setdefault(name, []).append((n, float(np.mean(vals))))

    def _refit(self, n: int) -> None:
        bundles = [self._fit_fold(k, n) for k in range(self.config.k_folds)]
        # Swap in only after every fold fit succeeded, so a deferred peek
        # leaves the previous models usable.
        self._fold_models = bundles
        self._moments = None  # every row is rescored by the new models
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
        X = self._X.view()[rows]
        cols = self._columns(rows)
        preds = {
            nuis.key: (
                self._clipped_propensity(models[nuis.key], X)
                if nuis.role == "propensity"
                else models[nuis.key].predict(X)
            )
            for nuis in self._estimand.nuisances
        }
        return self._estimand.score(cols["y"], cols["a"], cols["z"], preds, self._loss_weights())

    def _score_range(self, start: int, n: int):
        """Scores of rows start..n-1, each from its own fold's models, and
        the rows' fold ids."""
        k_folds = self.config.k_folds
        rows = np.arange(start, n)
        fold_ids = rows % k_folds
        psi_a = np.empty(n - start)
        psi_b = np.empty(n - start)
        for k in range(k_folds):
            local = slice((k - start) % k_folds, None, k_folds)
            fold_rows = rows[local]
            if not fold_rows.size:
                continue
            models = self._fold_models[k]
            # Out-of-fold purity: the bundle was trained on the rows below
            # its train_n outside its fold, and must never score one of them.
            trained = (fold_rows < models["train_n"]) & (fold_ids[local] != models["fold"])
            if trained.any():
                raise AssertionError(f"fold {k} models would score rows they were trained on")
            psi_a[local], psi_b[local] = self._score_rows(fold_rows, models)
        return psi_a, psi_b, fold_ids

    def _solve(self, n: int) -> DmlFit:
        """Fold the rows scored since the last peek into the moments, then
        solve; after a refit, rescore every row and rebuild the moments."""
        cfg = self.config
        if self._moments is None:
            self.clip_events = 0  # every row is rescored by the new models
            self._moments = ScoreMoments.centred(
                *self._score_range(0, n), cfg.k_folds, cfg.dml_variant
            )
        elif self._moments.n < n:
            self._moments.add(*self._score_range(self._moments.n, n))
        return self._moments.solve(cfg.dml_variant)

    # -- peeking ------------------------------------------------------------

    def peek(self) -> CsPoint:
        """Refresh nuisances per schedule, solve, and emit one CsPoint."""
        cfg = self.config
        n = self.n
        if n < cfg.burn_in:
            raise NotReadyError(f"need at least burn_in={cfg.burn_in} observations, have {n}")
        if self.peek_log and self.peek_log[-1].n == n:
            return self.peek_log[-1]
        # burn_in >= k_folds, so every fold already holds a row.
        if self._refit_due(n):
            self._refit(n)
        fit = self._solve(n)
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
        Requires nuisances to have been fit (peek at least once). Propensities
        are clipped to [epsilon, 1 - epsilon] without counting clip events.
        """
        from .scores import NuisanceEval

        if self._fold_models is None:
            raise NotReadyError("nuisances have not been fit yet; peek first")
        cfg, est = self.config, self._estimand
        roles = {nuis.key: nuis.role for nuis in est.nuisances}
        fields = list(est.evals)
        n = self.n
        fold_ids = self.plan.assignments(n)
        evals: list[NuisanceEval | None] = [None] * n
        for k in range(cfg.k_folds):
            rows = np.nonzero(fold_ids == k)[0]
            if rows.size == 0:
                continue
            models = self._fold_models[k]
            X = self._X.view()[rows]
            columns = []
            for key in est.evals.values():
                values = models[key].predict(X)
                if roles[key] == "propensity":
                    values = np.clip(values, cfg.epsilon, 1.0 - cfg.epsilon)
                columns.append(values.tolist())
            for i, values in zip(rows.tolist(), zip(*columns)):
                evals[i] = NuisanceEval(**dict(zip(fields, values)))
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
