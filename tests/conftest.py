"""Shared fixtures."""

import itertools

import pytest

from seqdml import LateDgpParams, PartialIdDgpParams, gen_late, gen_partial_id, nuisance

BISECTION_CALLS = 10_000


def generated_columns(estimand: str, n: int, seed: int):
    """n rows for the estimand from its simulator, with design and rows drawn from ``seed``."""
    if estimand == "late":
        return gen_late(n, LateDgpParams.from_seed(seed), seed=[seed, 1])[0]
    return gen_partial_id(n, PartialIdDgpParams.from_seed(seed), seed=[seed, 1])[0]


@pytest.fixture
def bisection_guard(monkeypatch):
    """Fail, rather than hang, if the asymmetric-loss bisection spins: the
    test raises once the loss has been evaluated at BISECTION_CALLS scalar
    points. Boosting evaluates it at arrays, which are not counted."""
    calls = itertools.count(1)
    terms = nuisance.gamma_loss_terms

    def guarded(y, g, gamma_weight):
        if isinstance(g, float) and next(calls) > BISECTION_CALLS:
            raise AssertionError("minimize_gamma_constant's bisection does not end")
        return terms(y, g, gamma_weight)

    monkeypatch.setattr(nuisance, "gamma_loss_terms", guarded)
