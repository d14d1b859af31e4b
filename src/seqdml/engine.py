"""Streaming estimation: buffer observations, refit nuisances on a growing
schedule, recompute cross-fitted estimates at peek times, and maintain raw
plus running-intersected confidence sequences.

A stream is single-writer: push/peek/check_stop must not be called
concurrently on the same stream. Independent streams share no state.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundary import Interval, MixtureParams, intersect_step, scalar_radius, tune_rho
from .boundary import _rho_numerator
# solve_arrays is unused here; the benchmark's tracer wraps it on this module.
from .crossfit import DmlFit, FoldPlan, ScoreMoments, solve_arrays  # noqa: F401
from .errors import (
    DgpError,
    EstimandError,
    IngestError,
    NotReadyError,
    ParameterError,
    SyncError,
)
from .nuisance import (
    GbtForest,
    GbtModel,
    LearnerSpec,
    _fit_nu_at,
    fit_g1_gamma,
    fit_gbt,
    fit_logistic,
    fit_ridge,
    SquaredLoss,
)
from .scores import (
    GammaParam,
    NuisanceEval,
    Observation,
    _check_propensity,
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
    "pate_band",
]

# ---------------------------------------------------------------------------
# Estimand table: each estimand is its nuisances plus a score linear in theta
# ---------------------------------------------------------------------------

# The fit and score functions below look the learners and kernels up in this
# module's globals when called, so wrappers installed there see every call.
# A fit function returns the model and, where a later nuisance builds on it,
# the model's predictions on its own training rows; ``base`` is those of the
# nuisance it builds on.

def _fit_outcome(spec: LearnerSpec, X, target, weight, base):
    if spec.kind == "ridge":
        return fit_ridge(X, target, spec), None
    return fit_gbt(X, target, SquaredLoss(), spec), None


def _fit_probability(spec: LearnerSpec, X, target, weight, base):
    return fit_logistic(X, target, spec), None


def _fit_gamma(spec: LearnerSpec, X, target, weight, base):
    fitted = np.empty(target.size)
    return fit_g1_gamma(X, target, weight, spec, fitted_values=fitted), fitted


def _fit_nu(spec: LearnerSpec, X, target, weight, base):
    # nu trains on its gamma model's own rows, so the gamma fit's training
    # predictions are that model's predictions here.
    return _fit_nu_at(X, target, base, weight, spec), None


# role: (StreamConfig spec field, accepted learner kinds, fit function). The
# roles without a field fit the stream's logistic learner, clipped at epsilon.
_ROLES = {
    "outcome": ("outcome_spec", ("ridge", "gbt"), _fit_outcome),
    "propensity": (None, None, _fit_probability),
    "treatment": (None, None, _fit_probability),
    "gamma": ("gamma_spec", ("gbt",), _fit_gamma),
    "nu": (None, None, _fit_nu),
}


# Score functions: (y, a, z, predictions by bundle key, loss weights by
# bundle key) -> (psi_a, psi_b) over the scored rows.

def _ate_score(y, a, z, p, w):
    return np.full(y.size, -1.0), aipw_pseudo_outcome(y, a, p["g1"], p["g0"], p["e"])


def _plr_score(y, a, z, p, w):
    return plr_terms(y, a, p["m"], p["e"])


def _late_score(y, a, z, p, w):
    return late_terms(y, a, z, p["g_t"], p["g_c"], p["m_t"], p["m_c"], p["e"])


def _pate_treated_score(y, a, z, p, w):
    pseudo_t = partial_id_pseudo_outcome(y, a, p["g_t"], p["nu_t"], p["e"], w["g_t"], "treated")
    return np.full(y.size, -1.0), pseudo_t


def _pate_score(y, a, z, p, w):
    psi_a, pseudo_t = _pate_treated_score(y, a, z, p, w)
    pseudo_c = partial_id_pseudo_outcome(y, a, p["g_c"], p["nu_c"], p["e"], w["g_c"], "control")
    return psi_a, pseudo_t - pseudo_c


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
    base: str | None = None  # nu: the gamma nuisance it splits y at, on the same subset


@dataclass(frozen=True)
class _Estimand:
    """An estimand: its nuisances and its score, which is linear in theta."""

    nuisances: tuple[_Nuisance, ...]  # in fit order
    score: Callable  # vectorised, see the score functions above
    evals: dict[str, str]  # NuisanceEval field -> bundle key, in diagnose's order
    evals_score: Callable  # the score the evals describe, which diagnose checks

    @property
    def classes(self) -> str | None:  # the column whose two classes every training fold needs
        return next((nuis.subset[0] for nuis in self.nuisances if nuis.subset != "all"), None)

    @property
    def needs_z(self) -> bool:  # a nuisance splits on the instrument or is fit to it
        return self.classes == "z" or any(nuis.target == "z" for nuis in self.nuisances)


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
        # The evaluations describe the treated arm's bound.
        evals={"g1": "g_t", "e": "e", "nu": "nu_t"},
        evals_score=_pate_treated_score,
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
        evals_score=_ate_score,
    ),
    "plr": _Estimand(
        nuisances=(
            _Nuisance("m", "outcome", "all", "y"),
            _Nuisance("e", "propensity", "all", "a"),
        ),
        score=_plr_score,
        evals={"m": "m", "e": "e"},
        evals_score=_plr_score,
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
        evals_score=_late_score,
    ),
    "pate_lower": _pate("lower"),
    "pate_upper": _pate("upper"),
}

_CLASS_NAMES = {"a": "treatment", "z": "instrument"}

ESTIMANDS = tuple(sorted(_TABLE))


@dataclass(frozen=True)
class StreamConfig:
    """Configuration of one monitored stream.

    ``rho=None`` means: tune the mixture scale at the first peek from the
    variance estimate there, then freeze it (re-tuning adaptively would break
    the mixture-boundary guarantee); a peek whose variance estimate is zero
    is deferred until one is positive; the tuning rule needs alpha below
    about 0.87. ``burn_in`` is the first peeking time.
    """

    estimand: str
    alpha: float = 0.05
    k_folds: int = 5
    burn_in: int = 100
    rho: float | None = None
    gamma: float = 1.0
    epsilon: float = 0.01
    refit_factor: float = 2.0
    dml_variant: str = "dml2"
    outcome_spec: LearnerSpec | None = None
    gamma_spec: LearnerSpec | None = None

    def __post_init__(self):
        if self.estimand not in ESTIMANDS:
            raise ParameterError(f"estimand must be one of {ESTIMANDS}, got {self.estimand!r}")
        _MixtureSequence(self.alpha, self.rho)  # checks alpha and rho
        FoldPlan(self.k_folds)  # checks k_folds
        if not self.k_folds <= self.burn_in <= sys.float_info.max:  # NaN fails too
            raise ParameterError(
                f"burn_in must be finite and >= k_folds={self.k_folds}, got {self.burn_in}"
            )
        GammaParam(self.gamma)  # checks gamma
        if not (0.0 < self.epsilon < 0.5):
            raise ParameterError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        # The refit schedule multiplies burn_in by refit_factor; that must stay finite.
        if not (self.refit_factor > 1.0 and math.isfinite(self.burn_in * self.refit_factor)):
            raise ParameterError(
                f"refit_factor must exceed 1 and keep burn_in * refit_factor finite, "
                f"got {self.refit_factor}"
            )
        if self.dml_variant not in ("dml1", "dml2"):
            raise ParameterError(f"dml_variant must be 'dml1' or 'dml2', got {self.dml_variant}")
        # An unset spec gets its role's first accepted kind.
        for name, kinds, _fit in _ROLES.values():
            if name is not None and getattr(self, name) is None:
                object.__setattr__(self, name, LearnerSpec(kind=kinds[0]))
        for nuis in _TABLE[self.estimand].nuisances:
            name, kinds, _fit = _ROLES[nuis.role]
            if name is not None and getattr(self, name).kind not in kinds:
                raise ParameterError(
                    f"{name} for {self.estimand} must be of kind "
                    f"{' or '.join(map(repr, kinds))}, got {getattr(self, name).kind!r}"
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
    """A stopping rule; only ``width_below`` takes a (positive) width."""

    kind: str
    width: float | None = None

    def __post_init__(self):
        if self.kind not in ("excludes_zero", "width_below"):
            raise ParameterError(f"unknown stop rule {self.kind!r}")
        if self.kind != "width_below" and self.width is not None:
            raise ParameterError(f"{self.kind} takes no width, got {self.width}")
        if self.kind == "width_below" and not (self.width is not None and self.width > 0):
            raise ParameterError(f"width threshold must be positive, got {self.width}")


def excludes_zero() -> StopRule:
    return StopRule("excludes_zero")


def width_below(width: float) -> StopRule:
    return StopRule("width_below", width)


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


class _MixtureSequence:
    """The confidence sequence of one stream. rho is tuned at the first step
    unless given, and frozen from then on. ``step(n, theta, sigma_sq)``
    returns the mixture interval at time n and the running intersection of
    every interval so far; a step that raises changes nothing."""

    def __init__(self, alpha: float, rho: float | None = None):
        if rho is None:
            _rho_numerator(alpha)  # checks alpha; the first step tunes rho at it
        else:
            MixtureParams(rho, alpha)  # checks rho and alpha
        self.alpha, self.rho = alpha, rho
        self.running: Interval | None = None

    def step(self, n: int, theta: float, sigma_sq: float) -> tuple[Interval, Interval]:
        if not (math.isfinite(theta) and math.isfinite(sigma_sq)):
            raise DgpError(
                f"the estimate {theta} or its variance {sigma_sq} at n={n} is not finite"
            )
        if self.rho is None and not sigma_sq > 0:
            # rho cannot be tuned to a zero variance; a later step may see some.
            raise NotReadyError("variance estimate is zero, so rho cannot be tuned yet; peek deferred")
        try:
            rho = self.rho if self.rho is not None else tune_rho(self.alpha, n, sigma_sq)
        except ParameterError:  # rho over- or underflows
            raise DgpError(f"rho cannot be tuned to the variance {sigma_sq} at n={n}") from None
        try:  # a tuned rho, or the radius, may be out of floating-point range
            radius = scalar_radius(n, MixtureParams(rho, self.alpha, 1), math.sqrt(sigma_sq))
        except ParameterError:
            radius = math.inf  # reported below as bounds that are not finite
        raw = Interval(theta - radius, theta + radius)
        if not (math.isfinite(raw.lower) and math.isfinite(raw.upper)):
            raise DgpError(f"the confidence bounds at n={n} are not finite")
        self.rho = rho
        self.running = intersect_step(self.running, raw)
        return raw, self.running


class _GrowArray:
    """Append-only table of float rows with amortized O(1) growth."""

    def __init__(self, columns: int):
        self.columns = columns
        self._buf = np.empty((16, columns))
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def extend(self, rows: int) -> np.ndarray:
        """Grow the table by ``rows`` rows and return them for the caller to fill."""
        end = self._n + rows
        if end > self._buf.shape[0]:
            new = np.empty((max(2 * self._buf.shape[0], end), self.columns))
            new[: self._n] = self._buf[: self._n]
            self._buf = new
        block = self._buf[self._n : end]
        self._n = end
        return block

    def view(self) -> np.ndarray:
        return self._buf[: self._n]


def _binary(values: np.ndarray) -> np.ndarray:
    return (values == 0.0) | (values == 1.0)


class Stream:
    """Single-writer stream of observations with anytime-valid peeks."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self.plan = FoldPlan(config.k_folds)
        self._estimand = _TABLE[config.estimand]
        self._logistic = LearnerSpec(kind="logistic", clip=config.epsilon)
        gamma = GammaParam(config.gamma)
        # The loss weights of the gamma and nu nuisances, by bundle key.
        self._weights = {nuis.key: effective_gamma(gamma, nuis.side)
                         for nuis in self._estimand.nuisances if nuis.side is not None}
        self._sequence = _MixtureSequence(config.alpha, config.rho)
        self.peek_log: list[CsPoint] = []
        self.stopped_at: int | None = None
        self.post_stop_pushes = 0
        self.clip_events = 0
        self.holdout_rmse: dict[str, list[tuple[int, float]]] = {}
        self.last_fit: DmlFit | None = None
        # One row per observation: y, a, z (NaN when absent), then x.
        self._rows: _GrowArray | None = None
        self._fold_models: list[dict] | None = None
        self._forests: dict[str, GbtForest] = {}  # the fold models of each GBT key, stacked
        self._next_refit: int | None = None
        # Score moments of the rows scored since the last refit; None until
        # the first peek after a refit rescores every row.
        self._moments: ScoreMoments | None = None

    @property
    def rho(self) -> float | None:  # the mixture scale: the given one, or tuned at the first peek
        return self._sequence.rho

    # -- ingestion ----------------------------------------------------------

    @property
    def n(self) -> int:
        return 0 if self._rows is None else len(self._rows)

    def push_batch(self, y, a, X, z=None) -> "Stream":
        """Append a block of rows; no estimation. Row i of the block gets
        arrival index n + i, and its fold is that index modulo k_folds.

        ``y``, ``a`` and ``z`` hold one value per row and ``X`` one row of
        covariates per row; ``z=None`` means the rows have no instrument.
        Treatment and instrument must be 0 or 1 and are stored as 0.0 or
        1.0. The block is checked before any row is appended: a missing
        instrument on an estimand that needs one, or a covariate dimension
        other than the stream's, raises IngestError; a non-binary treatment
        or instrument, a non-finite outcome or covariate, or no covariates
        raises ParameterError naming the first bad row of the block,
        counted from 0.
        """
        y = np.asarray(y, dtype=float)
        a = np.asarray(a, dtype=float)
        X = np.asarray(X, dtype=float)
        z = None if z is None else np.asarray(z, dtype=float)
        if (y.ndim != 1 or a.shape != y.shape or X.ndim != 2 or len(X) != len(y)
                or (z is not None and z.shape != y.shape)):
            raise ParameterError("y, a and z need one value and X one row per observation")
        m = len(y)
        if not m:
            return self
        if self._estimand.needs_z and z is None:
            raise IngestError(
                f"the {self.config.estimand} estimand requires an instrument z on every row"
            )
        d = X.shape[1]
        if not d:
            raise ParameterError("row 0: covariates x must have at least one entry")
        if self._rows is not None and d != self._rows.columns - 3:
            raise IngestError(
                f"covariate dimension changed from {self._rows.columns - 3} to {d}"
            )
        ok = _binary(a) & np.isfinite(X).all(axis=1) & np.isfinite(y)
        if z is not None:
            ok &= _binary(z)
        if not ok.all():
            i = int(np.argmin(ok))
            if not _binary(a[i]):
                problem = f"treatment a must be 0 or 1, got {float(a[i])}"
            elif z is not None and not _binary(z[i]):
                problem = f"instrument z must be 0 or 1, got {float(z[i])}"
            elif not np.isfinite(X[i]).all():
                problem = "covariates must be finite"
            else:
                problem = f"outcome y must be finite, got {float(y[i])}"
            raise ParameterError(f"row {i}: {problem}")
        if self._rows is None:
            self._rows = _GrowArray(3 + d)
        block = self._rows.extend(m)
        # Adding 0.0 turns a -0.0 into 0.0, so the sign of a zero cannot reach a score.
        block[:, 0] = y
        block[:, 1] = a + 0.0
        block[:, 2] = np.nan if z is None else z + 0.0
        block[:, 3:] = X
        if self.stopped_at is not None:
            self.post_stop_pushes += m
        return self

    def push(self, obs: Observation) -> "Stream":
        """Append one observation, as a one-row ``push_batch``."""
        z = None if obs.z is None else [obs.z]
        return self.push_batch([obs.y], [obs.a], [obs.x], z)

    # -- nuisance fitting ---------------------------------------------------

    def _columns(self, rows) -> dict[str, np.ndarray]:
        table = self._rows.view()
        return {"y": table[rows, 0], "a": table[rows, 1], "z": table[rows, 2]}

    def _covariates(self, rows: np.ndarray) -> np.ndarray:
        """Covariates of the given row indices, as a C-contiguous copy."""
        return self._rows.view()[rows, 3:]

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
        X = self._covariates(train_idx)
        covariates: dict[str, np.ndarray] = {}  # by training subset, one copy each
        fitted: dict[str, np.ndarray | None] = {}  # training predictions, by bundle key
        models: dict = {"fold": fold, "train_n": train_n}
        for nuis in est.nuisances:
            spec_name, _kinds, fit = _ROLES[nuis.role]
            spec = self._logistic if spec_name is None else getattr(cfg, spec_name)
            rows = self._subset(nuis.subset, cols)
            if nuis.subset not in covariates:
                covariates[nuis.subset] = X[rows]
            models[nuis.key], fitted[nuis.key] = fit(
                spec, covariates[nuis.subset], cols[nuis.target or "y"][rows],
                self._weights.get(nuis.key), fitted.get(nuis.base),
            )
        return models

    def _record_holdout_rmse(self, n: int, preds: dict[str, np.ndarray]) -> None:
        """Mean over folds of each tracked nuisance's RMSE on its holdout
        rows, from the out-of-fold predictions of rows 0..n-1 at a refit."""
        cols = self._columns(slice(n))
        fold_ids = self.plan.assignments(n)
        # nu has no directly observable target, so it is not tracked.
        tracked = [
            (nuis, self._subset(nuis.subset, cols))
            for nuis in self._estimand.nuisances
            if nuis.target is not None
        ]
        sums: dict[str, list[float]] = {}
        for k in range(self.config.k_folds):
            hold = fold_ids == k
            for nuis, subset in tracked:
                mask = hold if nuis.subset == "all" else hold & subset
                if mask.sum() == 0:
                    continue
                err = cols[nuis.target][mask] - preds[nuis.key][mask]
                sums.setdefault(nuis.key, []).append(float(np.sqrt(np.mean(err * err))))
        for name, vals in sums.items():
            self.holdout_rmse.setdefault(name, []).append((n, float(np.mean(vals))))

    def _refit(self, n: int) -> None:
        bundles = [self._fit_fold(k, n) for k in range(self.config.k_folds)]
        forests = {key: GbtForest([models[key] for models in bundles])
                   for key, model in bundles[0].items() if isinstance(model, GbtModel)}
        # Swap in only after every fold fit succeeded, so a deferred peek
        # leaves the previous models usable.
        self._fold_models, self._forests = bundles, forests
        self._moments = None  # every row is rescored by the new models
        factor = self.config.refit_factor
        threshold = float(self.config.burn_in)
        while threshold <= n:
            threshold = threshold * factor
        self._next_refit = int(math.ceil(threshold))

    # -- scoring ------------------------------------------------------------

    def _predictions(self, start: int, n: int, keys) -> tuple[dict[str, np.ndarray], int]:
        """Out-of-fold prediction of the nuisances ``keys`` for rows
        start..n-1, by bundle key, each row from its own fold's models; and
        the number of propensity clip events among them.

        A GBT key is one walk of its fold forest, the other keys go fold by
        fold. Propensities are clipped to [epsilon, 1 - epsilon]. The events
        are counted against the unclipped probability: the model's own clip
        equals epsilon and would hide every event.
        """
        if self._fold_models is None:
            raise NotReadyError("nuisances have not been fit yet; peek first")
        k_folds, eps = self.config.k_folds, self.config.epsilon
        rows = np.arange(start, n)
        folds = rows % k_folds
        # Out-of-fold purity: each bundle was trained on the rows below its
        # train_n outside its fold, and must never score one of them.
        train_n, own = np.array([(m["train_n"], m["fold"]) for m in self._fold_models]).T
        trained = folds[(rows < train_n[folds]) & (folds != own[folds])]
        if trained.size:
            raise AssertionError(f"fold {trained.min()} models would score rows they were trained on")
        X = self._covariates(rows) if self._forests.keys() & keys else None
        preds = {key: self._forests[key].predict(X, folds) for key in keys if key in self._forests}
        nuisances = [nuis for nuis in self._estimand.nuisances
                     if nuis.key in keys and nuis.key not in preds]
        preds.update((nuis.key, np.empty(n - start)) for nuis in nuisances)
        clip_events = 0
        for k, models in enumerate(self._fold_models):
            local = slice((k - start) % k_folds, None, k_folds)
            fold_rows = rows[local]
            if not fold_rows.size:
                continue
            X = self._covariates(fold_rows)
            for nuis in nuisances:
                model = models[nuis.key]
                if nuis.role == "propensity":
                    raw = model.probability(X)
                    clip_events += int(np.sum((raw < eps) | (raw > 1.0 - eps)))
                    preds[nuis.key][local] = np.clip(raw, eps, 1.0 - eps)
                else:
                    preds[nuis.key][local] = model.predict(X)
        return preds, clip_events

    def _solve(self, n: int, refit: bool) -> DmlFit:
        """Fold the rows scored since the last peek into the moments, then
        solve; after a refit, rescore every row, record the holdout RMSE
        and rebuild the moments. A score that is not finite, or moments
        that overflow, raise DgpError and leave the moments to be rebuilt."""
        cfg = self.config
        start = 0 if self._moments is None else self._moments.n
        if start < n:
            keys = [nuis.key for nuis in self._estimand.nuisances]
            preds, clip_events = self._predictions(start, n, keys)
            cols = self._columns(slice(start, n))
            psi_a, psi_b = self._estimand.score(
                cols["y"], cols["a"], cols["z"], preds, self._weights
            )
            finite = np.isfinite(psi_a) & np.isfinite(psi_b)
            if not finite.all():
                raise DgpError(
                    f"row {start + int(np.argmin(finite))}: the score is not finite; "
                    "the data overflow floating point"
                )
            if refit:
                self._record_holdout_rmse(n, preds)
            fold_ids = np.arange(start, n) % cfg.k_folds
            try:
                if self._moments is None:
                    self.clip_events = clip_events  # every row is rescored by the new models
                    self._moments = ScoreMoments.centred(
                        psi_a, psi_b, fold_ids, cfg.k_folds, cfg.dml_variant
                    )
                else:
                    self.clip_events += clip_events
                    self._moments.add(psi_a, psi_b, fold_ids)
            except DgpError:
                self._moments = None  # an overflow can leave some sums updated
                raise
        return self._moments.solve(cfg.dml_variant)

    # -- peeking ------------------------------------------------------------

    def peek(self) -> CsPoint:
        """Refresh nuisances per schedule, solve, and emit one CsPoint.

        The point's estimate, standard error and bounds are finite, or the
        peek raises DgpError and records nothing. Data large enough to
        overflow floating point is caught by these checks, so NumPy's
        overflow warnings are off while the peek computes.
        """
        cfg = self.config
        n = self.n
        if n < cfg.burn_in:
            raise NotReadyError(f"need at least burn_in={cfg.burn_in} observations, have {n}")
        if self.peek_log and self.peek_log[-1].n == n:
            return self.peek_log[-1]
        # burn_in >= k_folds, so every fold already holds a row.
        refit = self._fold_models is None or n >= self._next_refit
        with np.errstate(over="ignore", invalid="ignore"):
            if refit:
                self._refit(n)
            fit = self._solve(n, refit)
        theta, sigma_sq = float(fit.theta_hat), float(fit.sigma_sq_hat)
        raw, running = self._sequence.step(n, theta, sigma_sq)
        self.last_fit = fit
        point = CsPoint(
            n=n,
            theta_hat=theta,
            sigma_hat=math.sqrt(sigma_sq),
            lower=raw.lower,
            upper=raw.upper,
            lower_int=running.lower,
            upper_int=running.upper,
            stopped=self.stopped_at is not None,
        )
        self.peek_log.append(point)
        return point

    def check_stop(self, rule: StopRule | str) -> StopDecision:
        """Evaluate a stopping rule on the latest intersected interval."""
        if isinstance(rule, str):
            rule = StopRule(rule)
        if not self.peek_log:
            raise NotReadyError("check_stop requires at least one recorded peek")
        point = self.peek_log[-1]
        lo, hi = point.lower_int, point.upper_int
        if rule.kind == "width_below":
            stop = (hi - lo) < rule.width
        else:  # excludes_zero
            stop = lo > 0.0 or hi < 0.0
        if stop and self.stopped_at is None:
            self.stopped_at = point.n
        return StopDecision(stop=stop, rule=rule, n=point.n, lower=lo, upper=hi)

    def export_ndjson(self) -> str:
        """Peek log as NDJSON, one fixed-schema record per peek."""
        return "".join(p.to_json() + "\n" for p in self.peek_log)

    def nuisance_evals(self) -> list[NuisanceEval]:
        """Out-of-fold nuisance evaluations for every buffered row, one per
        row of the evals' columns (for the partial-identification estimands
        they describe the treated-arm bound). Requires a peek first."""
        fields = self._estimand.evals
        columns, _clip_events = self._predictions(0, self.n, fields.values())
        rows = zip(*(columns[key].tolist() for key in fields.values()))
        return [NuisanceEval(**dict(zip(fields, values))) for values in rows]

    def orthogonality_derivatives(self) -> dict[str, float]:
        """Gateaux derivative of the mean score at the last estimate in the
        direction of each evals field: a central difference of ``math.fsum``
        means at step 1e-5, the arithmetic of ``gateaux_orthogonality_check``
        on ``nuisance_evals()`` with equal weights."""
        if self.last_fit is None:
            raise NotReadyError("no estimate yet; peek first")
        est, n, step = self._estimand, self.n, 1e-5
        columns, _clip_events = self._predictions(0, n, est.evals.values())
        data = self._columns(slice(n))
        theta = float(self.last_fit.theta_hat)
        clipped = {nuis.key for nuis in est.nuisances if nuis.role == "propensity"}

        def mean_score(key: str, r: float) -> float:
            preds = {**columns, key: columns[key] + r}
            if key in clipped:  # only a shift can move a clipped propensity out of (0, 1)
                _check_propensity(preds[key])
            psi_a, psi_b = est.evals_score(data["y"], data["a"], data["z"], preds, self._weights)
            value = math.fsum((psi_a * theta + psi_b).tolist()) / n
            if not math.isfinite(value):
                raise DgpError("E[psi] is not finite on this support")
            return value

        return {
            field: (mean_score(key, step) - mean_score(key, -step)) / (2.0 * step)
            for field, key in est.evals.items()
        }


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
