"""Per-observation linear scores for each built-in estimand.

Every score is linear in the target parameter: psi(W; theta, eta) =
psi_a(W; eta) * theta + psi_b(W; eta). The module also provides the
asymmetric squared loss used by the partial-identification regressions, the
nu nuisance map, and a finite-difference check of Neyman orthogonality on
finite-support distributions.

The ``*_terms`` helpers do the arithmetic on scalars or numpy arrays alike;
the public per-observation functions wrap them in :class:`LinearScore`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DgpError, EstimandError, NuisanceError, ParameterError

__all__ = [
    "Observation",
    "LinearScore",
    "NuisanceEval",
    "GammaParam",
    "aipw_score",
    "plr_score",
    "late_score",
    "partial_id_score",
    "gamma_loss",
    "nu_value",
    "gateaux_orthogonality_check",
]


@dataclass(frozen=True)
class Observation:
    """One data record: outcome y, binary treatment a, covariates x, optional instrument z."""

    y: float
    a: int
    x: tuple[float, ...]
    z: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if self.a not in (0, 1):
            raise ParameterError(f"treatment a must be 0 or 1, got {self.a}")
        if self.z is not None and self.z not in (0, 1):
            raise ParameterError(f"instrument z must be 0 or 1, got {self.z}")
        if not self.x:
            raise ParameterError("covariates x must have at least one entry")
        if not all(math.isfinite(v) for v in self.x):
            raise ParameterError("covariates must be finite")
        if not math.isfinite(self.y):
            raise ParameterError(f"outcome y must be finite, got {self.y}")


@dataclass(frozen=True)
class LinearScore:
    """Coefficient pair (psi_a, psi_b) of a score linear in theta."""

    psi_a: float
    psi_b: float

    def value(self, theta: float) -> float:
        return self.psi_a * theta + self.psi_b


@dataclass(frozen=True)
class NuisanceEval:
    """Evaluated nuisances at one observation; only the estimand's fields are set.

    ate: g1, g0, e.  plr: m, e.  late: g_t, g_c, m_t, m_c, e.
    partial-id (one arm): g1, e, nu.
    """

    g1: float | None = None
    g0: float | None = None
    e: float | None = None
    m: float | None = None
    g_t: float | None = None
    g_c: float | None = None
    m_t: float | None = None
    m_c: float | None = None
    nu: float | None = None

    def perturbed(self, direction: "NuisanceEval", r: float) -> "NuisanceEval":
        """Return this evaluation shifted by r times the direction, fieldwise."""
        updates = {}
        for f in fields(self):
            delta = getattr(direction, f.name)
            if delta is None:
                continue
            base = getattr(self, f.name)
            if base is None:
                raise NuisanceError(
                    f"direction perturbs '{f.name}' which is unset in the base evaluation"
                )
            updates[f.name] = base + r * delta
        return replace(self, **updates)


@dataclass(frozen=True)
class GammaParam:
    """Sensitivity parameter Gamma >= 1 bounding the unmeasured-confounding odds ratio."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma >= 1.0 and math.isfinite(self.gamma)):
            raise ParameterError(f"gamma must be a real >= 1, got {self.gamma}")


def _gamma_weight(gamma: "GammaParam | float") -> float:
    """Accept a GammaParam or a bare positive weight (the swapped arms use 1/Gamma)."""
    w = gamma.gamma if isinstance(gamma, GammaParam) else float(gamma)
    if not (w > 0 and math.isfinite(w)):
        raise ParameterError(f"gamma weight must be positive, got {w}")
    return w


def _require(nuis: NuisanceEval, names: Sequence[str], estimand: str) -> None:
    missing = [n for n in names if getattr(nuis, n) is None]
    if missing:
        raise NuisanceError(f"{estimand} score requires nuisances {missing}")


def _check_propensity(e, label: str = "e"):
    e_arr = np.asarray(e)
    if np.any(e_arr <= 0.0) or np.any(e_arr >= 1.0):
        raise NuisanceError(f"propensity {label} must lie strictly inside (0, 1)")
    return e


# ---------------------------------------------------------------------------
# Vectorized kernels (scalars or numpy arrays)
# ---------------------------------------------------------------------------

def aipw_pseudo_outcome(y, a, g1, g0, e):
    """AIPW pseudo-outcome: g1 - g0 + a(y - g1)/e - (1 - a)(y - g0)/(1 - e)."""
    return g1 - g0 + a * (y - g1) / e - (1 - a) * (y - g0) / (1 - e)


def plr_terms(y, a, m, e):
    """Partialled-out score terms: psi_a = -(a - e)^2, psi_b = (y - m)(a - e)."""
    resid_a = a - e
    return -resid_a * resid_a, (y - m) * resid_a


def late_terms(y, a, z, g_t, g_c, m_t, m_c, e):
    """Instrument-based score terms: psi_b from the outcome arm, psi_a = -(treatment arm)."""
    psi_b = g_t - g_c + z * (y - g_t) / e - (1 - z) * (y - g_c) / (1 - e)
    psi_a = -(m_t - m_c + z * (a - m_t) / e - (1 - z) * (a - m_c) / (1 - e))
    return psi_a, psi_b


def gamma_loss_terms(y, g, gamma_weight):
    """Asymmetric squared loss (y-g)_+^2 + gamma (y-g)_-^2 and its d/dg."""
    resid = y - g
    pos = np.maximum(resid, 0.0)
    neg = np.maximum(-resid, 0.0)
    value = pos * pos + gamma_weight * neg * neg
    d_dg = -2.0 * pos + 2.0 * gamma_weight * neg
    return value, d_dg


def partial_id_pseudo_outcome(y, a, g, nu, e, gamma_weight, arm: str):
    """Pseudo-outcome for one bound of one arm's mean potential outcome.

    For the treated arm: a*y + (1-a)*g + a*((y-g)_+ - gamma*(y-g)_-)/nu * (1-e)/e.
    The control arm swaps a with 1-a and e with 1-e. The caller passes the
    effective gamma weight (Gamma for the lower side, 1/Gamma for the upper).
    """
    resid = y - g
    pos = np.maximum(resid, 0.0)
    neg = np.maximum(-resid, 0.0)
    correction = (pos - gamma_weight * neg) / nu
    if arm == "treated":
        return a * y + (1 - a) * g + a * correction * (1 - e) / e
    if arm == "control":
        return (1 - a) * y + a * g + (1 - a) * correction * e / (1 - e)
    raise ParameterError(f"arm must be 'treated' or 'control', got {arm!r}")


def effective_gamma(gamma: GammaParam, side: str) -> float:
    """Effective loss weight for one bound: Gamma for 'lower', 1/Gamma for 'upper'."""
    if side == "lower":
        return gamma.gamma
    if side == "upper":
        return 1.0 / gamma.gamma
    raise ParameterError(f"side must be 'lower' or 'upper', got {side!r}")


# ---------------------------------------------------------------------------
# Per-observation score functions
# ---------------------------------------------------------------------------

def aipw_score(obs: Observation, nuis: NuisanceEval) -> LinearScore:
    """Doubly robust ATE score: psi_a = -1, psi_b = AIPW pseudo-outcome."""
    _require(nuis, ("g1", "g0", "e"), "aipw")
    _check_propensity(nuis.e)
    psi_b = aipw_pseudo_outcome(obs.y, obs.a, nuis.g1, nuis.g0, nuis.e)
    return LinearScore(psi_a=-1.0, psi_b=float(psi_b))


def plr_score(obs: Observation, nuis: NuisanceEval) -> LinearScore:
    """Partialled-out score for the partially linear model coefficient."""
    _require(nuis, ("m", "e"), "plr")
    psi_a, psi_b = plr_terms(obs.y, obs.a, nuis.m, nuis.e)
    return LinearScore(psi_a=float(psi_a), psi_b=float(psi_b))


def late_score(obs: Observation, nuis: NuisanceEval) -> LinearScore:
    """Instrumented score for the complier average effect."""
    if obs.z is None:
        raise EstimandError("late score requires an instrument z on every observation")
    _require(nuis, ("g_t", "g_c", "m_t", "m_c", "e"), "late")
    _check_propensity(nuis.e)
    psi_a, psi_b = late_terms(
        obs.y, obs.a, obs.z, nuis.g_t, nuis.g_c, nuis.m_t, nuis.m_c, nuis.e
    )
    return LinearScore(psi_a=float(psi_a), psi_b=float(psi_b))


def partial_id_score(
    obs: Observation,
    nuis: NuisanceEval,
    gamma: GammaParam,
    arm: str,
    side: str,
) -> LinearScore:
    """Score for one bound (mu_arm^side) of one arm's mean potential outcome.

    (treated, lower) estimates the sharp lower bound on E[Y(1)] under the
    Gamma-selection model; the other three combinations follow by swapping
    the roles of a and 1-a, e and 1-e, and Gamma and 1/Gamma.
    """
    _require(nuis, ("g1", "e", "nu"), "partial-id")
    _check_propensity(nuis.e)
    weight = effective_gamma(gamma, side)
    lo, hi = min(1.0, weight), max(1.0, weight)
    if not (lo - 1e-9 <= nuis.nu <= hi + 1e-9):
        raise NuisanceError(
            f"nu={nuis.nu} outside [{lo}, {hi}] for effective gamma {weight}"
        )
    psi_b = partial_id_pseudo_outcome(
        obs.y, obs.a, nuis.g1, nuis.nu, nuis.e, weight, arm
    )
    return LinearScore(psi_a=-1.0, psi_b=float(psi_b))


def gamma_loss(y: float, g: float, gamma: "GammaParam | float") -> tuple[float, float]:
    """Asymmetric squared loss value and derivative in g at one point."""
    weight = _gamma_weight(gamma)
    value, d_dg = gamma_loss_terms(float(y), float(g), weight)
    return float(value), float(d_dg)


def nu_value(p_geq: float, gamma: "GammaParam | float") -> float:
    """Map P(Y >= g | treated, X) to nu = p + gamma (1 - p)."""
    if not (0.0 <= p_geq <= 1.0):
        raise ParameterError(f"p_geq must lie in [0, 1], got {p_geq}")
    weight = _gamma_weight(gamma)
    return p_geq + weight * (1.0 - p_geq)


# ---------------------------------------------------------------------------
# Orthogonality diagnostic
# ---------------------------------------------------------------------------

FiniteDgp = Sequence[tuple[float, Observation]]


def gateaux_orthogonality_check(
    score: Callable[[Observation, NuisanceEval], LinearScore],
    dgp: FiniteDgp,
    eta0: Callable[[Observation], NuisanceEval],
    direction: Callable[[Observation], NuisanceEval],
    theta0: float,
    step: float = 1e-5,
) -> float:
    """Central finite-difference Gateaux derivative of E[psi] in a nuisance direction.

    ``dgp`` is a finite-support distribution given as (weight, observation)
    pairs, so the expectation is an exact finite sum. For a Neyman-orthogonal
    score at its true nuisances the returned derivative is zero up to O(step^2)
    curvature error.
    """
    pairs = list(dgp)
    if not pairs:
        raise DgpError("the finite-support distribution is empty")
    total = math.fsum(w for w, _ in pairs)
    if not (total > 0 and math.isfinite(total)):
        raise DgpError(f"support weights must sum to a positive finite value, got {total}")

    def expectation(r: float) -> float:
        terms = []
        for w, obs in pairs:
            nuis = eta0(obs).perturbed(direction(obs), r)
            terms.append(w * score(obs, nuis).value(theta0))
        value = math.fsum(terms) / total
        if not math.isfinite(value):
            raise DgpError("E[psi] is not finite on this support")
        return value

    return (expectation(step) - expectation(-step)) / (2.0 * step)
