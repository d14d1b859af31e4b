"""Sequential K-fold cross-fitting: point estimates, variance, diagnostics.

The pooled estimator solves the double-averaged moment equation
(1/K) sum_k (1/|I_k|) sum_{i in I_k} (psi_a_i theta + psi_b_i) = 0; the
per-fold variant solves each fold separately and averages the solutions.
All pooled means use compensated summation (math.fsum) so results do not
depend on the order observations appear within a fold.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IdentificationError, ParameterError
from .scores import LinearScore

__all__ = [
    "FoldPlan",
    "FoldSummary",
    "DmlFit",
    "IdentificationReport",
    "assign_fold",
    "solve_dml1",
    "solve_dml2",
    "solve_arrays",
    "estimate_variance",
    "variance_from_arrays",
    "identification_diagnostics",
]

logger = logging.getLogger(__name__)

# Below this smallest singular value the Jacobian is treated as singular and
# the solve aborts; silently regularizing would corrupt the inference.
SINGULAR_TOL = 1e-10


def assign_fold(index: int, k_folds: int) -> int:
    """Round-robin fold id for the observation at a given arrival index."""
    if k_folds < 2:
        raise ParameterError(f"k_folds must be >= 2, got {k_folds}")
    if index < 0:
        raise ParameterError(f"index must be nonnegative, got {index}")
    return index % k_folds


@dataclass(frozen=True)
class FoldPlan:
    """K-fold assignment: round-robin by arrival index."""

    k_folds: int

    def __post_init__(self):
        if self.k_folds < 2:
            raise ParameterError(f"k_folds must be >= 2, got {self.k_folds}")

    def fold_of(self, index: int) -> int:
        return assign_fold(index, self.k_folds)

    def assignments(self, n: int) -> np.ndarray:
        return np.arange(n, dtype=np.int64) % self.k_folds


@dataclass(frozen=True)
class FoldSummary:
    fold: int
    count: int
    theta: float | None
    sigma_sq: float | None


@dataclass(frozen=True)
class DmlFit:
    """Cross-fitted point estimate with Jacobian and sandwich variance."""

    theta_hat: float | np.ndarray
    j_hat: float | np.ndarray
    sigma_sq_hat: float | np.ndarray
    n: int
    per_fold: tuple[FoldSummary, ...] = ()


def _fsum_mean(rows: np.ndarray) -> np.ndarray:
    """Order-insensitive mean over axis 0 via compensated summation."""
    m = rows.shape[0]
    flat = rows.reshape(m, -1)
    sums = [math.fsum(flat[:, j].tolist()) for j in range(flat.shape[1])]
    return np.array(sums).reshape(rows.shape[1:]) / m


def _normalize_scores(scores: Sequence[LinearScore]) -> tuple[np.ndarray, np.ndarray]:
    psi_a = np.array([np.asarray(s.psi_a, dtype=float) for s in scores])
    psi_b = np.array([np.asarray(s.psi_b, dtype=float) for s in scores])
    return psi_a, psi_b


def _as_matrix_stack(psi_a: np.ndarray, psi_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Coerce score arrays to shapes (n, d, d) and (n, d)."""
    psi_a = np.asarray(psi_a, dtype=float)
    psi_b = np.asarray(psi_b, dtype=float)
    if psi_a.ndim == 1:
        psi_a = psi_a.reshape(-1, 1, 1)
    if psi_b.ndim == 1:
        psi_b = psi_b.reshape(-1, 1)
    if psi_a.shape[0] != psi_b.shape[0]:
        raise ParameterError("psi_a and psi_b must have one entry per observation")
    d = psi_b.shape[1]
    if psi_a.shape[1:] != (d, d):
        raise ParameterError(f"psi_a entries must be {d}x{d} matrices")
    return psi_a, psi_b, d


def _min_max_singular(mat: np.ndarray) -> tuple[float, float]:
    svals = np.linalg.svd(mat, compute_uv=False)
    return float(svals.min()), float(svals.max())


def _solve_linear(mean_a: np.ndarray, mean_b: np.ndarray, context: str) -> np.ndarray:
    smin, _ = _min_max_singular(mean_a)
    if smin <= SINGULAR_TOL:
        raise IdentificationError(
            f"{context}: Jacobian is numerically singular "
            f"(smallest singular value {smin:.3e} <= {SINGULAR_TOL:.0e})",
            smallest_singular_value=smin,
        )
    return np.linalg.solve(mean_a, -mean_b)


def _fold_indices(fold_ids: np.ndarray, k_folds: int) -> list[np.ndarray]:
    groups = [np.nonzero(fold_ids == k)[0] for k in range(k_folds)]
    empty = [k for k, g in enumerate(groups) if g.size == 0]
    if empty:
        raise ParameterError(f"folds {empty} are empty; every fold needs data")
    return groups


def _scalar_or_array(value: np.ndarray, d: int):
    return float(value.reshape(())) if d == 1 else value


def solve_arrays(
    psi_a: np.ndarray,
    psi_b: np.ndarray,
    fold_ids: np.ndarray,
    k_folds: int,
    variant: str = "dml2",
) -> DmlFit:
    """Cross-fitted solve on raw score arrays (the vectorized fast path)."""
    if variant not in ("dml1", "dml2"):
        raise ParameterError(f"variant must be 'dml1' or 'dml2', got {variant!r}")
    psi_a, psi_b, d = _as_matrix_stack(psi_a, psi_b)
    n = psi_a.shape[0]
    groups = _fold_indices(np.asarray(fold_ids), k_folds)

    fold_means_a = np.array([_fsum_mean(psi_a[g]) for g in groups])
    fold_means_b = np.array([_fsum_mean(psi_b[g]) for g in groups])
    pooled_a = _fsum_mean(fold_means_a)
    pooled_b = _fsum_mean(fold_means_b)
    j_hat = pooled_a

    fold_thetas: list[np.ndarray | None] = []
    for k, (ma, mb) in enumerate(zip(fold_means_a, fold_means_b)):
        if variant == "dml1":
            fold_thetas.append(_solve_linear(ma, mb, f"fold {k}"))
        else:
            smin, _ = _min_max_singular(ma)
            fold_thetas.append(np.linalg.solve(ma, -mb) if smin > SINGULAR_TOL else None)

    if variant == "dml1":
        theta = _fsum_mean(np.array(fold_thetas))
    else:
        theta = _solve_linear(pooled_a, pooled_b, "pooled")

    sigma_sq, fold_sigmas = _sandwich(psi_a, psi_b, theta, j_hat, groups, d)
    if variant == "dml1":
        sigma_sq = _project_psd(_fsum_mean(np.array(fold_sigmas)))
    per_fold = tuple(
        FoldSummary(
            fold=k,
            count=int(groups[k].size),
            theta=None if fold_thetas[k] is None else _scalar_or_array(fold_thetas[k], d),
            sigma_sq=_scalar_or_array(fold_sigmas[k], d),
        )
        for k in range(k_folds)
    )
    return DmlFit(
        theta_hat=_scalar_or_array(theta, d),
        j_hat=_scalar_or_array(j_hat, d),
        sigma_sq_hat=_scalar_or_array(sigma_sq, d),
        n=n,
        per_fold=per_fold,
    )


def _sandwich(psi_a, psi_b, theta, j_hat, groups, d):
    """Sandwich variance from the pooled second moment of psi at theta."""
    psi = psi_a @ theta + psi_b  # (n, d)
    outer = psi[:, :, None] * psi[:, None, :]
    fold_mids = [_fsum_mean(outer[g]) for g in groups]
    mid = _fsum_mean(np.array(fold_mids))
    smin, _ = _min_max_singular(np.atleast_2d(j_hat))
    if smin <= SINGULAR_TOL:
        raise IdentificationError(
            f"variance: Jacobian singular (smallest singular value {smin:.3e})",
            smallest_singular_value=smin,
        )
    j_inv = np.linalg.inv(np.atleast_2d(j_hat))
    fold_sigmas = [_project_psd(j_inv @ m @ j_inv.T) for m in fold_mids]
    sigma_sq = _project_psd(j_inv @ mid @ j_inv.T)
    return sigma_sq, fold_sigmas


def _project_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetrize and clamp tiny negative eigenvalues at zero."""
    sym = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals.min() < 0.0:
        logger.debug("clamping negative variance eigenvalue %.3e to 0", eigvals.min())
        eigvals = np.clip(eigvals, 0.0, None)
        sym = (eigvecs * eigvals) @ eigvecs.T
        sym = 0.5 * (sym + sym.T)
    return sym


def solve_dml2(scores: Sequence[LinearScore], plan: FoldPlan) -> DmlFit:
    """Solve the pooled moment equation over all folds (preferred variant)."""
    psi_a, psi_b = _normalize_scores(scores)
    fold_ids = plan.assignments(len(scores))
    return solve_arrays(psi_a, psi_b, fold_ids, plan.k_folds, variant="dml2")


def solve_dml1(scores: Sequence[LinearScore], plan: FoldPlan) -> DmlFit:
    """Solve each fold's moment equation and average the solutions equally."""
    psi_a, psi_b = _normalize_scores(scores)
    fold_ids = plan.assignments(len(scores))
    return solve_arrays(psi_a, psi_b, fold_ids, plan.k_folds, variant="dml1")


def variance_from_arrays(
    psi_a: np.ndarray,
    psi_b: np.ndarray,
    theta_hat,
    j_hat,
    fold_ids: np.ndarray,
    k_folds: int,
    variant: str = "dml2",
):
    """Sandwich variance on raw arrays; dml1 averages fold-level sandwiches."""
    psi_a, psi_b, d = _as_matrix_stack(psi_a, psi_b)
    groups = _fold_indices(np.asarray(fold_ids), k_folds)
    theta = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    j_mat = np.atleast_2d(np.asarray(j_hat, dtype=float))
    sigma_sq, fold_sigmas = _sandwich(psi_a, psi_b, theta, j_mat, groups, d)
    if variant == "dml1":
        sigma_sq = _project_psd(_fsum_mean(np.array(fold_sigmas)))
    return _scalar_or_array(sigma_sq, d)


def estimate_variance(
    scores: Sequence[LinearScore],
    theta_hat,
    j_hat,
    plan: FoldPlan,
    variant: str = "dml2",
):
    """Sandwich variance J^{-1} (pooled mean psi psi^T at theta_hat) J^{-T}."""
    if variant not in ("dml1", "dml2"):
        raise ParameterError(f"variant must be 'dml1' or 'dml2', got {variant!r}")
    psi_a, psi_b = _normalize_scores(scores)
    fold_ids = plan.assignments(len(scores))
    return variance_from_arrays(psi_a, psi_b, theta_hat, j_hat, fold_ids, plan.k_folds, variant)


@dataclass(frozen=True)
class IdentificationReport:
    """Singular-value and score non-degeneracy checks against [c0, c1]."""

    j_singular_min: float
    j_singular_max: float
    jacobian_ok: bool
    second_moment_min_eig: float
    second_moment_ok: bool
    c0: float
    c1: float

    @property
    def ok(self) -> bool:
        return self.jacobian_ok and self.second_moment_ok


def identification_diagnostics(fit: DmlFit, c0: float, c1: float) -> IdentificationReport:
    """Check Jacobian singular values against [c0, c1] and score second-moment eigenvalues against c0."""
    if not (0 < c0 <= c1):
        raise ParameterError(f"need 0 < c0 <= c1, got c0={c0}, c1={c1}")
    j_mat = np.atleast_2d(np.asarray(fit.j_hat, dtype=float))
    smin, smax = _min_max_singular(j_mat)
    sigma = np.atleast_2d(np.asarray(fit.sigma_sq_hat, dtype=float))
    # Second moment of the score recovered through the sandwich: M = J sigma^2 J^T.
    second = j_mat @ sigma @ j_mat.T
    min_eig = float(np.linalg.eigvalsh(0.5 * (second + second.T)).min())
    return IdentificationReport(
        j_singular_min=smin,
        j_singular_max=smax,
        jacobian_ok=bool(c0 <= smin and smax <= c1),
        second_moment_min_eig=min_eig,
        second_moment_ok=bool(min_eig >= c0),
        c0=c0,
        c1=c1,
    )
