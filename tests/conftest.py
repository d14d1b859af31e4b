"""Shared fixtures."""

import itertools

import pytest

from seqdml import nuisance

BISECTION_CALLS = 10_000


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
