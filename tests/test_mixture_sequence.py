"""The confidence sequence object on its own: time-uniform coverage on
simulated score paths, and every step against the boundary functions."""

import math
import sys

import numpy as np
import pytest

from seqdml import engine
from seqdml.boundary import Interval, MixtureParams, intersect_step, scalar_radius, tune_rho
from seqdml.engine import _MixtureSequence
from seqdml.errors import DgpError, NotReadyError

ALPHA = 0.05
STEPS = list(range(100, 5001, 100))  # 50 peeks, one every 100 draws
REPS = 5000


def gaussian(rng, size):
    return rng.standard_normal(size)


def centred_exponential(rng, size):
    return rng.standard_exponential(size) - 1.0


def score_paths(draw, reps, seed, chunk=500):
    """Running mean and plug-in variance of each path's draws at every step:
    two lists of ``reps`` rows with one value per step. The draws have mean
    0 and sd 1, so 0 is the parameter every interval should cover."""
    rng = np.random.default_rng(seed)
    block = STEPS[0]
    n = np.array(STEPS, dtype=float)
    theta, sigma_sq = [], []
    for start in range(0, reps, chunk):
        draws = draw(rng, (min(chunk, reps - start), len(STEPS), block))
        mean = draws.sum(axis=2).cumsum(axis=1) / n
        second = (draws * draws).sum(axis=2).cumsum(axis=1) / n
        theta += mean.tolist()
        sigma_sq += (second - mean * mean).tolist()
    return theta, sigma_sq


def final_running(path_theta, path_var):
    sequence = _MixtureSequence(ALPHA)
    for n, theta, sigma_sq in zip(STEPS, path_theta, path_var):
        _raw, running = sequence.step(n, theta, sigma_sq)
    return running


@pytest.mark.parametrize("draw, seed", [(gaussian, 1), (centred_exponential, 2)])
def test_time_uniform_coverage(draw, seed):
    # The running interval excludes 0 at the last step exactly when some
    # step's interval did, so this counts the paths that miss at any time.
    theta, sigma_sq = score_paths(draw, REPS, seed)
    misses = 0
    for path_theta, path_var in zip(theta, sigma_sq):
        running = final_running(path_theta, path_var)
        misses += not (running.lower <= 0.0 <= running.upper)
    # alpha plus three Monte Carlo standard errors of a miss rate of alpha.
    bound = ALPHA + 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / REPS)
    assert misses / REPS <= bound, f"{draw.__name__}: {misses} of {REPS} paths missed"


def test_each_step_is_the_composition_of_the_boundary_functions(monkeypatch):
    tuned = []

    def counted(*args):
        tuned.append(args)
        return tune_rho(*args)

    monkeypatch.setattr(engine, "tune_rho", counted)
    theta, sigma_sq = score_paths(gaussian, 3, seed=3)
    narrowed = 0
    for path_theta, path_var in zip(theta, sigma_sq):
        tuned.clear()
        sequence = _MixtureSequence(ALPHA)
        rho = tune_rho(ALPHA, STEPS[0], path_var[0])
        running = None
        for n, t, s in zip(STEPS, path_theta, path_var):
            raw, got = sequence.step(n, t, s)
            assert sequence.rho == rho, f"n={n}: rho moved from its value at the first step"
            radius = scalar_radius(n, MixtureParams(rho, ALPHA, 1), math.sqrt(s))
            expected = Interval(t - radius, t + radius)
            assert raw == expected, f"n={n}: the raw interval is not the mixture interval"
            running = intersect_step(running, expected)
            assert got == running, f"n={n}: the running interval is not the intersection"
            assert sequence.running == running
            narrowed += running != raw
        assert tuned == [(ALPHA, STEPS[0], path_var[0])]
    assert narrowed, "no step of these paths exercised the intersection"


def test_a_given_rho_is_never_tuned(monkeypatch):
    def refuse(*args):
        raise AssertionError("tune_rho called with rho given")

    monkeypatch.setattr(engine, "tune_rho", refuse)
    theta, sigma_sq = score_paths(centred_exponential, 2, seed=4)
    for path_theta, path_var in zip(theta, sigma_sq):
        sequence = _MixtureSequence(ALPHA, rho=0.2)
        running = None
        for n, t, s in zip(STEPS, path_theta, path_var):
            raw, got = sequence.step(n, t, s)
            radius = scalar_radius(n, MixtureParams(0.2, ALPHA, 1), math.sqrt(s))
            assert raw == Interval(t - radius, t + radius)
            running = intersect_step(running, raw)
            assert got == running and sequence.rho == 0.2


def test_a_zero_first_variance_defers_and_changes_nothing():
    sequence = _MixtureSequence(ALPHA)
    with pytest.raises(NotReadyError, match="variance estimate is zero"):
        sequence.step(100, 0.3, 0.0)
    assert sequence.rho is None and sequence.running is None
    raw, running = sequence.step(200, 0.3, 1.0)
    assert sequence.rho == tune_rho(ALPHA, 200, 1.0) and running == raw
    # Once rho is frozen, a zero variance is a zero-width interval.
    raw, running = sequence.step(300, 0.25, 0.0)
    assert raw == Interval(0.25, 0.25) and running == Interval(0.25, 0.25)


def test_a_failed_step_changes_nothing():
    sequence = _MixtureSequence(ALPHA)
    with pytest.raises(DgpError, match="rho cannot be tuned"):
        sequence.step(100, 0.0, 1e-320)  # rho overflows to inf
    assert sequence.rho is None and sequence.running is None
    _raw, first = sequence.step(100, 0.0, 1e300)  # a radius of about 1.8e299
    rho = sequence.rho
    with pytest.raises(DgpError, match="confidence bounds at n=200 are not finite"):
        sequence.step(200, sys.float_info.max, 1e300)
    with pytest.raises(DgpError, match="estimate inf or its variance"):
        sequence.step(200, math.inf, 1.0)
    with pytest.raises(DgpError, match="estimate 0.0 or its variance nan"):
        sequence.step(200, 0.0, math.nan)
    assert sequence.rho == rho and sequence.running is first


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP direction 5: the tuned rho carries the units of 1/sigma_hat, so "
    "the half-width grows by far more than c when y is multiplied by c"))
def test_the_half_width_scales_with_the_units_of_y():
    c = 10.0

    def half_width(scale):
        raw, _running = _MixtureSequence(ALPHA).step(STEPS[0], scale * 0.1, scale * scale * 1.0)
        return (raw.upper - raw.lower) / 2.0

    assert half_width(c) == pytest.approx(c * half_width(1.0), rel=1e-12)
