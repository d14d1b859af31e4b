"""Closed-form normal-mixture confidence sequence boundaries.

Everything here is pure double-precision arithmetic: the mixture radius and
region threshold for a given sample size, the rho tuning rule that aims the
boundary at the first peeking time, and running intersections of intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "MixtureParams",
    "Interval",
    "scalar_radius",
    "region_threshold",
    "tune_rho",
    "intersect_step",
]


@dataclass(frozen=True)
class MixtureParams:
    """Normal-mixture boundary parameters: scale rho, level alpha, dimension."""

    rho: float
    alpha: float
    dim: int = 1

    def __post_init__(self):
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ParameterError(f"rho must be a positive real, got {self.rho}")
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        _check_count("dim", self.dim)


@dataclass(frozen=True)
class Interval:
    """A closed interval [lower, upper]; lower > upper marks an empty set.

    Running intersections can legitimately produce empty intervals; they are
    kept (flagged via ``is_empty``) instead of being erased so that
    miscoverage accounting stays honest.
    """

    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper


def _check_count(name: str, value) -> None:
    """Raise ParameterError unless ``value`` is a whole number >= 1; NaN and
    inf fail, and so does 2.5, but 100.0 passes."""
    if not (1 <= value < math.inf and value % 1 == 0):
        raise ParameterError(f"{name} must be a positive integer, got {value}")


def scalar_radius(n: int, params: MixtureParams, sigma_hat: float) -> float:
    """Half-width of the scalar normal-mixture confidence sequence at time n.

    Returns ``sigma_hat * sqrt(2(n rho^2 + 1)/(n^2 rho^2) *
    log(sqrt(n rho^2 + 1)/alpha))``: strictly decreasing in n and linear in
    sigma_hat. This is the d=1 specialization of :func:`region_threshold`.
    """
    _check_count("n", n)
    if not (0.0 <= sigma_hat < math.inf):
        raise ParameterError(f"sigma_hat must be finite and nonnegative, got {sigma_hat}")
    rho2 = params.rho * params.rho
    factor = 2.0 * (n * rho2 + 1.0) / (n * n * rho2)
    logterm = math.log(math.sqrt(n * rho2 + 1.0) / params.alpha)
    return sigma_hat * math.sqrt(factor * logterm)


def region_threshold(n: int, params: MixtureParams) -> float:
    """Squared-radius threshold for the d-dimensional mixture confidence region.

    The region at time n is {theta : ||sigma_hat^{-1}(theta_hat - theta)||^2 <
    region_threshold(n, params)} with value
    ``2(n rho^2 + 1)/(n^2 rho^2) * log((n rho^2 + 1)^{d/2}/alpha)``.
    Monotone increasing in the dimension d.
    """
    _check_count("n", n)
    rho2 = params.rho * params.rho
    factor = 2.0 * (n * rho2 + 1.0) / (n * n * rho2)
    logterm = (params.dim / 2.0) * math.log(n * rho2 + 1.0) - math.log(params.alpha)
    return factor * logterm


def _rho_numerator(alpha: float) -> float:
    """The numerator of :func:`tune_rho`; an alpha outside (0, 0.8700259...),
    where it is not positive, raises ParameterError."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    minus_two_log_alpha = -2.0 * math.log(alpha)
    numerator = minus_two_log_alpha + math.log(minus_two_log_alpha) + 1.0
    if numerator <= 0:
        raise ParameterError(
            f"alpha={alpha} is too large for the tuning rule "
            "(-2 log(alpha) + log(-2 log(alpha)) + 1 must be positive)"
        )
    return numerator


def tune_rho(alpha: float, m: int, sigma_sq_m: float) -> float:
    """Mixture scale that aims the boundary at the first peeking time m.

    Returns ``sqrt((-2 log(alpha) + log(-2 log(alpha)) + 1) /
    (sigma_sq_m * m * log(max(m, e))))``, evaluated verbatim. Requires alpha
    small enough that the numerator is positive: 0 < alpha < 0.8700259...
    """
    numerator = _rho_numerator(alpha)
    _check_count("m", m)
    if not (0.0 < sigma_sq_m < math.inf):
        raise ParameterError(f"sigma_sq_m must be finite and positive, got {sigma_sq_m}")
    denominator = sigma_sq_m * m * math.log(max(m, math.e))
    return math.sqrt(numerator / denominator)


def intersect_step(running: Interval | None, new: Interval) -> Interval:
    """One step of a running intersection: ``new`` itself when nothing has
    been seen yet, else ``[max(running.lower, new.lower), min(running.upper,
    new.upper)]`` with the running bound first, so a NaN in ``new`` keeps
    the running bound."""
    if running is None:
        return new
    return Interval(max(running.lower, new.lower), min(running.upper, new.upper))
