"""Cross-fitting algebra: hand-solved fixtures, variance, diagnostics."""

import math

import numpy as np
import pytest

from seqdml import (
    DmlFit,
    FoldPlan,
    LinearScore,
    identification_diagnostics,
    solve_dml1,
    solve_dml2,
)
from seqdml.crossfit import solve_arrays
from seqdml.errors import IdentificationError, ParameterError


def scores_from(psi_a, psi_b):
    return [LinearScore(a, b) for a, b in zip(psi_a, psi_b)]


# Two folds under round-robin with K=2: even indices are fold 0, odd fold 1.
# Fold 0 holds psi_a [-1, -2], psi_b [1, 3]; fold 1 holds [-1, -1], [2, 4].
FIXTURE_A = [-1.0, -1.0, -2.0, -1.0]
FIXTURE_B = [1.0, 2.0, 3.0, 4.0]


class TestFoldPlan:
    def test_k_below_two(self):
        with pytest.raises(ParameterError):
            FoldPlan(k_folds=1)

    def test_k_must_be_an_integer(self):
        with pytest.raises(ParameterError, match="k_folds must be an integer"):
            FoldPlan(k_folds=2.5)


class TestSolveDml2:
    def test_sample_mean_reduction(self):
        scores = scores_from([-1.0] * 4, [1.0, 2.0, 3.0, 2.0])
        fit = solve_dml2(scores, FoldPlan(k_folds=2))
        assert fit.theta_hat == pytest.approx(2.0)
        assert fit.j_hat == pytest.approx(-1.0)

    def test_hand_solved_unequal_jacobians(self):
        # fold means (-1.5, 2) and (-1, 3); pooled (-1.25, 2.5); theta = 2.
        fit = solve_dml2(scores_from(FIXTURE_A, FIXTURE_B), FoldPlan(k_folds=2))
        assert fit.theta_hat == pytest.approx(2.0, abs=1e-14)

    def test_constant_scores(self):
        scores = scores_from([-1.0] * 6, [3.25] * 6)
        fit = solve_dml2(scores, FoldPlan(k_folds=3))
        assert fit.theta_hat == pytest.approx(3.25)
        assert fit.sigma_sq_hat == pytest.approx(0.0, abs=1e-14)

    def test_pooled_moment_residual(self):
        rng = np.random.default_rng(4)
        for k in (2, 3, 5):
            n = int(rng.integers(3 * k, 200))
            psi_a = -np.exp(rng.normal(size=n))
            psi_b = rng.normal(size=n)
            fit = solve_arrays(psi_a, psi_b, np.arange(n) % k, k)
            fold_ids = np.arange(n) % k
            residual = np.mean(
                [np.mean(psi_a[fold_ids == j] * fit.theta_hat + psi_b[fold_ids == j])
                 for j in range(k)]
            )
            assert abs(residual) <= 1e-10

    def test_singular_jacobian_aborts(self):
        scores = scores_from([1e-12, -1e-12, 1e-12, -1e-12], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(IdentificationError) as err:
            solve_dml2(scores, FoldPlan(k_folds=2))
        assert err.value.smallest_singular_value is not None
        assert err.value.smallest_singular_value <= 1e-10

    def test_empty_fold_rejected(self):
        with pytest.raises(ParameterError):
            solve_arrays(np.array([-1.0, -1.0]), np.array([1.0, 2.0]),
                         np.array([0, 0]), 2)


class TestSolveDml1:
    def test_hand_solved_fold_average(self):
        # per-fold solves 4/3 and 3; average 13/6.
        fit = solve_dml1(scores_from(FIXTURE_A, FIXTURE_B), FoldPlan(k_folds=2))
        assert fit.theta_hat == pytest.approx(13.0 / 6.0, abs=1e-14)

    def test_identical_folds_match_dml2(self):
        psi_a = [-1.0, -1.0, -3.0, -3.0, -0.5, -0.5]
        psi_b = [2.0, 2.0, 1.0, 1.0, 4.0, 4.0]
        plan = FoldPlan(k_folds=2)
        fit1 = solve_dml1(scores_from(psi_a, psi_b), plan)
        fit2 = solve_dml2(scores_from(psi_a, psi_b), plan)
        assert fit1.theta_hat == pytest.approx(fit2.theta_hat, abs=1e-14)

    def test_singular_fold_names_fold(self):
        psi_a = [-1.0, 0.0, -1.0, 0.0]
        psi_b = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(IdentificationError, match="fold 1"):
            solve_dml1(scores_from(psi_a, psi_b), FoldPlan(k_folds=2))


class TestEstimateVariance:
    """The sandwich variance is the sigma_sq_hat of a solve."""

    def test_unit_second_moment(self):
        # psi_a = -1, psi(theta=0) in {1, -1} -> sandwich variance 1.
        fit = solve_dml2(scores_from([-1.0] * 4, [1.0, -1.0, 1.0, -1.0]), FoldPlan(k_folds=2))
        assert fit.theta_hat == pytest.approx(0.0)
        assert fit.sigma_sq_hat == pytest.approx(1.0)

    def test_degenerate_scores(self):
        fit = solve_dml2(scores_from([-1.0] * 4, [2.0] * 4), FoldPlan(k_folds=2))
        assert fit.sigma_sq_hat == pytest.approx(0.0, abs=1e-14)

    def test_hand_evaluated_sandwich(self):
        # psi_a = -2, psi(theta) in {2, -2}: sigma^2 = (1/2)^2 * 4 = 1.
        fit = solve_dml1(scores_from([-2.0] * 4, [2.0, -2.0, 2.0, -2.0]), FoldPlan(k_folds=2))
        assert fit.theta_hat == pytest.approx(0.0)
        assert fit.sigma_sq_hat == pytest.approx(1.0)

    def test_dml1_averages_fold_sandwiches(self):
        # Both folds solve to theta = 0 with J = -1; psi^2 averages 1 and 9.
        psi_a = np.array([-1.0, -1.0, -1.0, -1.0])
        psi_b = np.array([1.0, 3.0, -1.0, -3.0])
        fold_ids = np.array([0, 1, 0, 1])
        fit1 = solve_arrays(psi_a, psi_b, fold_ids, 2, variant="dml1")
        fit2 = solve_arrays(psi_a, psi_b, fold_ids, 2, variant="dml2")
        assert fit1.theta_hat == fit2.theta_hat == 0.0
        assert fit1.j_hat == fit2.j_hat == -1.0
        assert fit1.sigma_sq_hat == pytest.approx(fit2.sigma_sq_hat)  # shared Jacobian
        assert fit1.sigma_sq_hat == pytest.approx(5.0)

    def test_matrix_case_symmetric_psd(self):
        rng = np.random.default_rng(8)
        n, d, k = 60, 2, 3
        psi_a = np.array([-np.eye(d) - 0.1 * np.diag(rng.uniform(size=d)) for _ in range(n)])
        psi_b = rng.normal(size=(n, d))
        fit = solve_arrays(psi_a, psi_b, np.arange(n) % k, k)
        sigma = np.asarray(fit.sigma_sq_hat)
        assert np.max(np.abs(sigma - sigma.T)) <= 1e-12
        assert np.linalg.eigvalsh(sigma).min() >= -1e-12

    def test_within_fold_permutation_invariance(self):
        rng = np.random.default_rng(15)
        n, k = 40, 4
        psi_a = -np.exp(rng.normal(size=n))
        psi_b = rng.normal(size=n)
        fold_ids = np.arange(n) % k
        base = solve_arrays(psi_a, psi_b, fold_ids, k)
        psi_a2, psi_b2 = psi_a.copy(), psi_b.copy()
        rows0 = np.nonzero(fold_ids == 0)[0]
        perm = rng.permutation(rows0)
        psi_a2[rows0], psi_b2[rows0] = psi_a[perm], psi_b[perm]
        shuffled = solve_arrays(psi_a2, psi_b2, fold_ids, k)
        assert shuffled.theta_hat == base.theta_hat
        assert shuffled.sigma_sq_hat == base.sigma_sq_hat

    def test_equal_folds_give_grand_mean(self):
        rng = np.random.default_rng(16)
        n, k = 60, 5
        psi_b = rng.normal(size=n)
        fit1 = solve_arrays(-np.ones(n), psi_b, np.arange(n) % k, k, variant="dml1")
        fit2 = solve_arrays(-np.ones(n), psi_b, np.arange(n) % k, k, variant="dml2")
        grand = math.fsum(psi_b.tolist()) / n
        assert fit1.theta_hat == pytest.approx(grand, abs=1e-13)
        assert fit2.theta_hat == pytest.approx(grand, abs=1e-13)


class TestIdentificationDiagnostics:
    def test_scalar_pass(self):
        fit = DmlFit(theta_hat=0.0, j_hat=-1.0, sigma_sq_hat=1.0, n=10)
        report = identification_diagnostics(fit, c0=0.1, c1=10.0)
        assert report.jacobian_ok
        assert report.j_singular_min == pytest.approx(1.0)
        assert report.ok

    def test_zero_jacobian_fails(self):
        fit = DmlFit(theta_hat=0.0, j_hat=0.0, sigma_sq_hat=0.0, n=10)
        report = identification_diagnostics(fit, c0=0.1, c1=10.0)
        assert not report.jacobian_ok
        assert report.j_singular_min == 0.0

    def test_large_singular_value_fails(self):
        fit = DmlFit(
            theta_hat=np.zeros(2),
            j_hat=np.diag([-1.0, -3.0]),
            sigma_sq_hat=np.eye(2),
            n=10,
        )
        report = identification_diagnostics(fit, c0=0.5, c1=2.0)
        assert not report.jacobian_ok
        assert report.j_singular_max == pytest.approx(3.0)

    def test_per_fold_summaries(self):
        fit = solve_dml2(scores_from(FIXTURE_A, FIXTURE_B), FoldPlan(k_folds=2))
        assert len(fit.per_fold) == 2
        assert sum(s.count for s in fit.per_fold) == fit.n == 4
        assert fit.per_fold[0].theta == pytest.approx(4.0 / 3.0)
        assert fit.per_fold[1].theta == pytest.approx(3.0)
