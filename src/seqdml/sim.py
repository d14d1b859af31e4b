"""Simulation experiments: the two benchmark data-generating processes and
cumulative-miscoverage comparisons between the confidence sequence and a
naive per-peek batch interval.

Desk-scale defaults (200 reps, n_max 5000, peeks every 250) keep the full
experiment runnable in a test suite; the larger published-scale grids are a
configuration change, not a code change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .engine import BandPoint, CsPoint, Stream, StreamConfig, pate_band
from .errors import NotReadyError, ParameterError
from .nuisance import LearnerSpec
from .scores import GammaParam

__all__ = [
    "Columns",
    "PartialIdDgpParams",
    "LateDgpParams",
    "PartialIdOracle",
    "LateOracle",
    "gen_partial_id",
    "gen_late",
    "run_coverage",
    "run_pate_band",
    "CoverageResult",
    "BandResult",
]

METHOD_ASYMPCS = "asympcs"
METHOD_BATCH = "batch"


def _check_design(d, **finite) -> None:
    """d must be an integer >= 1, and each of ``finite``, a number or a tuple of numbers, finite."""
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ParameterError(f"d must be an integer >= 1, got {d!r}")
    for name, value in finite.items():
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise ParameterError(f"{name} must be finite, got {value}")


def _params(given, cls, seed: int):
    """``given``, which must be a ``cls``, or cls.from_seed(seed) when it is None."""
    if given is not None and not isinstance(given, cls):
        raise ParameterError(f"dgp_params must be a {cls.__name__}, got {type(given).__name__}")
    return cls.from_seed(seed) if given is None else given


@dataclass(frozen=True)
class PartialIdDgpParams:
    """Confounded-assignment benchmark: X ~ U[0,1]^d, additive effect tau."""

    mu: tuple[float, ...]
    beta: tuple[float, ...]
    d: int = 4
    tau: float = -0.5
    gamma_data: float = math.exp(0.6)
    alpha0: float = 0.0
    seed: int = 0

    def __post_init__(self):
        GammaParam(self.gamma_data)  # a finite real >= 1, the rule StreamConfig's gamma follows
        _check_design(self.d, tau=self.tau, alpha0=self.alpha0, mu=self.mu, beta=self.beta)
        if len(self.mu) != self.d or len(self.beta) != self.d:
            raise ParameterError("mu and beta must have length d")

    @classmethod
    def from_seed(
        cls,
        seed: int,
        d: int = 4,
        tau: float = -0.5,
        gamma_data: float = math.exp(0.6),
        alpha0: float = 0.0,
    ) -> "PartialIdDgpParams":
        _check_design(d)
        rng = np.random.default_rng([seed, 0xD6])
        return cls(
            mu=tuple(rng.standard_normal(d)),
            beta=tuple(rng.standard_normal(d)),
            d=d,
            tau=tau,
            gamma_data=gamma_data,
            alpha0=alpha0,
            seed=seed,
        )


@dataclass(frozen=True)
class LateDgpParams:
    """Noncompliance benchmark: randomized instrument, constant effect theta."""

    beta: tuple[float, ...]
    d: int = 2
    theta: float = 3.0
    alpha_z: float = 2.0
    p_instrument: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha_z < math.inf:
            raise ParameterError(f"alpha_z must be a finite positive real, got {self.alpha_z}")
        if not (0.0 < self.p_instrument < 1.0):
            raise ParameterError("p_instrument must lie in (0, 1)")
        _check_design(self.d, theta=self.theta, beta=self.beta)
        if len(self.beta) != self.d:
            raise ParameterError("beta must have length d")

    @classmethod
    def from_seed(
        cls,
        seed: int,
        d: int = 2,
        theta: float = 3.0,
        alpha_z: float = 2.0,
        p_instrument: float = 0.4,
    ) -> "LateDgpParams":
        _check_design(d)
        rng = np.random.default_rng([seed, 0x1A7E])
        return cls(
            beta=tuple(rng.normal(0.0, math.sqrt(0.5), d)),
            d=d,
            theta=theta,
            alpha_z=alpha_z,
            p_instrument=p_instrument,
            seed=seed,
        )


@dataclass(frozen=True)
class PartialIdOracle:
    tau: float
    gamma_data: float
    y0: np.ndarray
    y1: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class LateOracle:
    theta: float
    a0: np.ndarray
    a1: np.ndarray

    @property
    def complier(self) -> np.ndarray:
        return self.a1 > self.a0


class Columns(NamedTuple):
    """Rows of a simulated stream as float columns: outcome, treatment (0.0
    or 1.0), covariates with one row per observation, and the instrument
    (0.0 or 1.0) or None. ``Stream.push_batch(*columns)`` appends them."""

    y: np.ndarray
    a: np.ndarray
    X: np.ndarray
    z: np.ndarray | None = None

    def rows(self, start: int, stop: int) -> "Columns":
        """Rows start..stop-1, as views."""
        z = None if self.z is None else self.z[start:stop]
        return Columns(self.y[start:stop], self.a[start:stop], self.X[start:stop], z)


def gen_partial_id(
    n: int, params: PartialIdDgpParams, seed=None
) -> tuple[Columns, PartialIdOracle]:
    """Draw n observations with unmeasured confounding of strength gamma_data.

    Assignment depends on the latent U only through 1(U > 0), so the implied
    assignment odds ratio between units of opposite U-sign is exactly
    gamma_data and the selection-bias model holds with that parameter.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(params.seed if seed is None else seed)
    mu = np.asarray(params.mu)
    beta = np.asarray(params.beta)
    X = rng.uniform(0.0, 1.0, size=(n, params.d))
    u_scale = 1.0 + 0.5 * np.sin(2.5 * X[:, 0])
    u = rng.standard_normal(n) * u_scale
    y0 = X @ beta + 5.0 * u
    y1 = y0 + params.tau
    logits = params.alpha0 + X @ mu + math.log(params.gamma_data) * (u > 0)
    p_treat = 1.0 / (1.0 + np.exp(-logits))
    a = (rng.uniform(size=n) < p_treat).astype(float)
    y = np.where(a == 1.0, y1, y0)
    oracle = PartialIdOracle(tau=params.tau, gamma_data=params.gamma_data, y0=y0, y1=y1, u=u)
    return Columns(y, a, X), oracle


def gen_late(
    n: int, params: LateDgpParams, seed=None
) -> tuple[Columns, LateOracle]:
    """Draw n observations from the randomized-instrument noncompliance design.

    A = 1(alpha_z Z + U > 0) with alpha_z > 0, so A(1) >= A(0) for every unit
    and the effect on compliers is exactly theta (the effect is constant).
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(params.seed if seed is None else seed)
    beta = np.asarray(params.beta)
    X = rng.standard_normal((n, params.d))
    u = rng.standard_normal(n) * np.abs(0.5 + np.sin(X[:, 0]))
    z = (rng.uniform(size=n) < params.p_instrument).astype(float)
    a = (params.alpha_z * z + u > 0).astype(float)
    y = params.theta * a + np.cos(u) * (X @ beta + u)
    a0 = (u > 0).astype(int)
    a1 = (params.alpha_z + u > 0).astype(int)
    return Columns(y, a, X, z), LateOracle(theta=params.theta, a0=a0, a1=a1)


# ---------------------------------------------------------------------------
# Coverage experiment
# ---------------------------------------------------------------------------

@dataclass
class CoverageResult:
    """Per-rep cumulative miss indicators and interval widths on a peek grid."""

    ns: np.ndarray
    truth: float
    miss: dict[str, np.ndarray]   # method -> (reps, grid) cumulative {0,1}
    width: dict[str, np.ndarray]  # method -> (reps, grid)
    peek_logs: list[list[CsPoint]] = field(default_factory=list)

    @property
    def reps(self) -> int:
        return next(iter(self.miss.values())).shape[0]

    def cumulative_miscoverage(self, method: str) -> np.ndarray:
        return self.miss[method].mean(axis=0)

    def mean_width(self, method: str) -> np.ndarray:
        return self.width[method].mean(axis=0)

    def per_rep_rows(self) -> list[tuple]:
        rows = []
        for method in sorted(self.miss):
            for r in range(self.reps):
                for j, n in enumerate(self.ns):
                    rows.append(
                        (method, int(n), float(self.miss[method][r, j]),
                         float(self.width[method][r, j]))
                    )
        return rows

    def aggregate_rows(self) -> list[tuple]:
        rows = []
        for method in sorted(self.miss):
            cum = self.cumulative_miscoverage(method)
            wid = self.mean_width(method)
            for j, n in enumerate(self.ns):
                rows.append((method, int(n), float(cum[j]), float(wid[j])))
        return rows


def _peek_grid(n_max: int, peek_every: int, burn_in: int | None) -> tuple[list[int], int]:
    """The peek sizes, the multiples of peek_every up to n_max from burn_in
    on, and the burn-in, which defaults to peek_every."""
    if peek_every < 1:
        raise ParameterError(f"peek_every must be >= 1, got {peek_every}")
    if burn_in is None:
        burn_in = peek_every
    grid = [n for n in range(peek_every, n_max + 1, peek_every) if n >= burn_in]
    if not grid:
        raise ParameterError("peek grid is empty; lower burn_in or raise n_max")
    return grid, burn_in


def run_coverage(
    dgp: str,
    estimand: str,
    reps: int = 200,
    n_max: int = 5000,
    peek_every: int = 250,
    alpha: float = 0.05,
    seed: int = 0,
    burn_in: int | None = None,
    dgp_params=None,
    keep_logs: bool = True,
) -> CoverageResult:
    """Monte Carlo cumulative miscoverage of the confidence sequence vs a
    per-peek batch interval (same estimate, +/- z * sigma / sqrt(n)).

    Each rep simulates a fresh data stream (hyperparameter vectors are drawn
    once per experiment and shared across reps), runs the engine over the
    peek grid, and records whether the truth was ever missed up to each n.
    The cumulative miss for the confidence sequence is read off the
    intersected bounds, which equal the intersection of all peeks so far.
    """
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps}")
    if dgp not in ("late", "partial_id"):
        raise ParameterError(f"dgp must be 'late' or 'partial_id', got {dgp!r}")
    grid, burn_in = _peek_grid(n_max, peek_every, burn_in)

    if dgp == "late":
        params = _params(dgp_params, LateDgpParams, seed)
        truth = params.theta
    else:
        params = _params(dgp_params, PartialIdDgpParams, seed)
        truth = params.tau

    # Imported here, its only use: scipy.stats takes about half a second to
    # import, which every CLI command and `import seqdml` would pay.
    from scipy.stats import norm

    config = StreamConfig(estimand=estimand, alpha=alpha, burn_in=burn_in)
    z_crit = float(norm.ppf(1.0 - alpha / 2.0))
    n_grid = len(grid)
    miss_cs = np.zeros((reps, n_grid))
    miss_batch = np.zeros((reps, n_grid))
    width_cs = np.full((reps, n_grid), math.nan)
    width_batch = np.full((reps, n_grid), math.nan)
    peek_logs: list[list[CsPoint]] = []

    for rep in range(reps):
        if dgp == "late":
            columns, _ = gen_late(n_max, params, seed=[seed, 1 + rep])
        else:
            columns, _ = gen_partial_id(n_max, params, seed=[seed, 1 + rep])
        stream = Stream(config)
        for j, n in enumerate(grid):
            stream.push_batch(*columns.rows(stream.n, n))
            try:
                stream.peek()
            except NotReadyError:
                pass  # a deferred peek repeats the last recorded one
            if not stream.peek_log:
                continue  # no miss yet and no width
            point = stream.peek_log[-1]
            half = z_crit * point.sigma_hat / math.sqrt(point.n)
            miss_cs[rep, j] = float(not (point.lower_int <= truth <= point.upper_int))
            miss_batch[rep, j] = float(
                not (point.theta_hat - half <= truth <= point.theta_hat + half)
            )
            width_cs[rep, j] = point.upper - point.lower
            width_batch[rep, j] = 2.0 * half
        # The batch interval is not intersected, so its miss is made cumulative here.
        np.maximum.accumulate(miss_batch[rep], out=miss_batch[rep])
        if keep_logs:
            peek_logs.append(list(stream.peek_log))

    return CoverageResult(
        ns=np.array(grid),
        truth=truth,
        miss={METHOD_ASYMPCS: miss_cs, METHOD_BATCH: miss_batch},
        width={METHOD_ASYMPCS: width_cs, METHOD_BATCH: width_batch},
        peek_logs=peek_logs,
    )


# ---------------------------------------------------------------------------
# Partial-identification band experiment
# ---------------------------------------------------------------------------

@dataclass
class BandResult:
    """Sequential band for the partially identified ATE over a peek grid."""

    truth: float
    points: list[BandPoint]

    @property
    def contained(self) -> list[bool]:
        return [p.lower <= self.truth <= p.upper for p in self.points]

    @property
    def widths(self) -> list[float]:
        return [p.upper - p.lower for p in self.points]


def run_pate_band(
    n_max: int = 5000,
    peek_every: int = 500,
    burn_in: int | None = None,
    gamma: float | None = None,
    alpha: float = 0.05,
    seed: int = 0,
    dgp_params: PartialIdDgpParams | None = None,
    k_folds: int = 5,
    gamma_spec: LearnerSpec | None = None,
) -> BandResult:
    """One run of the confounded DGP with the sequential two-sided band.

    The two bound streams see the same observation sequence; the band at each
    synchronized peek is the lower intersected bound of the lower-bound
    stream and the upper intersected bound of the upper-bound stream.
    """
    grid, burn_in = _peek_grid(n_max, peek_every, burn_in)
    params = _params(dgp_params, PartialIdDgpParams, seed)
    if gamma is None:
        gamma = params.gamma_data
    columns, _ = gen_partial_id(n_max, params, seed=[seed, 1])

    def config(estimand: str) -> StreamConfig:
        return StreamConfig(
            estimand=estimand,
            alpha=alpha,
            k_folds=k_folds,
            burn_in=burn_in,
            gamma=gamma,
            gamma_spec=gamma_spec,
        )

    lower_stream = Stream(config("pate_lower"))
    upper_stream = Stream(config("pate_upper"))
    points: list[BandPoint] = []
    for n in grid:
        lower_stream.push_batch(*columns.rows(lower_stream.n, n))
        upper_stream.push_batch(*columns.rows(upper_stream.n, n))
        try:
            lower_stream.peek()
            upper_stream.peek()
        except NotReadyError:
            continue
        points.append(pate_band(lower_stream, upper_stream))
    return BandResult(truth=params.tau, points=points)
