"""Sequential K-fold cross-fitting: point estimates, variance, diagnostics.

The pooled estimator solves the double-averaged moment equation
(1/K) sum_k (1/|I_k|) sum_{i in I_k} (psi_a_i theta + psi_b_i) = 0; the
per-fold variant solves each fold separately and averages the solutions.

Every solve reads its fold means off a ``ScoreMoments`` accumulator: per
fold, the row count and exact sums of psi_a, psi_b and the second moments
the sandwich variance needs. An exact sum is kept as a short list of floats
(``_exact_add``); its leading float is the sum correctly rounded, the value
math.fsum over all of the fold's rows returns. So the fold sums, and with
them theta_hat and J_hat, do not depend on the order of rows within a fold or
on the blocks they were added in, and a stream that adds only its new rows
at each peek gets the same estimates as a solve over every row.
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
    "ScoreMoments",
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
    if mat.shape == (1, 1):
        # The singular value of a 1x1 matrix is its absolute value. LAPACK
        # first rescales a matrix of tiny or huge norm, which can move it by
        # an ulp, and rejects NaN; those go through the SVD.
        s = abs(float(mat[0, 0]))
        if 1e-100 <= s <= 1e100:
            return s, s
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
    return _solve(mean_a, mean_b)


def _solve(mean_a: np.ndarray, mean_b: np.ndarray) -> np.ndarray:
    """theta with mean_a theta + mean_b = 0, without the singular check."""
    if mean_a.shape == (1, 1):
        # Divided out in Python floats, which, like LAPACK and unlike NumPy
        # arithmetic, overflow to inf without a warning.
        return np.array([-float(mean_b[0]) / float(mean_a[0, 0])])
    return np.linalg.solve(mean_a, -mean_b)


def _inverse(mat: np.ndarray) -> np.ndarray:
    if mat.shape == (1, 1):
        return np.array([[1.0 / float(mat[0, 0])]])
    return np.linalg.inv(mat)


def _exact_add(partials: list[float], values: list[float]) -> list[float]:
    """Floats whose exact sum is that of ``partials`` and ``values`` together.

    The first is that sum correctly rounded, which math.fsum of the same
    numbers also returns; each later one is what the floats before it leave
    over, correctly rounded, so the list shrinks the exact sum to a few floats
    however many values went in.
    """
    terms = partials + values
    out = [math.fsum(terms)]
    while math.isfinite(out[-1]):
        terms.append(-out[-1])
        rest = math.fsum(terms)
        if rest == 0.0:
            break
        out.append(rest)
    return out


def _scalar_or_array(value: np.ndarray, d: int):
    return float(value.reshape(())) if d == 1 else value


class ScoreMoments:
    """Exact running sums of the scores of every fold.

    Per fold it keeps the row count and the exact sums of every entry of
    psi_a, psi_b and three second moments of psi_c = psi_a theta_c + psi_b,
    the score at a centre theta_c fixed when the moments are built:
    psi_c psi_c^T, psi_c (x) psi_a and psi_a (x) psi_a. Adding rows costs
    O(rows added); ``solve`` works from the K folds' sums alone.

    The sandwich variance needs the second moment of psi at theta_hat. At
    theta_hat = theta_c that is the psi_c psi_c^T sum itself; elsewhere the two
    cross moments move it by terms of the order of theta_hat - theta_c, with
    no cancellation of large sums, so it matches a re-solve over every row
    to within a few rounding errors.
    """

    def __init__(self, k_folds: int, d: int, theta_c: np.ndarray | None):
        self.k_folds = k_folds
        self.d = d
        self.theta_c = theta_c
        self.n = 0
        self.counts = np.zeros(k_folds, dtype=np.int64)
        # Column ranges: psi_a, psi_b, psi_c psi_c^T, psi_c (x) psi_a, psi_a (x) psi_a.
        ends = np.cumsum([0, d * d, d, d * d, d**3, d**4]).tolist()
        self._cols = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
        self.sums = np.zeros((k_folds, ends[-1]))
        self._partials = [[[0.0] for _ in range(ends[-1])] for _ in range(k_folds)]

    @classmethod
    def centred(cls, psi_a, psi_b, fold_ids, k_folds: int, variant: str = "dml2") -> "ScoreMoments":
        """Moments of score arrays centred at their own cross-fitted estimate."""
        psi_a, psi_b, d = _as_matrix_stack(psi_a, psi_b)
        moments = cls(k_folds, d, theta_c=None)
        masks = moments._take_rows(fold_ids)
        moments._fold_in(masks, _first_moments(psi_a, psi_b), 0)
        moments.theta_c = moments._estimate(variant)[0]
        moments._fold_in(masks, moments._second_moments(psi_a, psi_b), moments._cols[2].start)
        return moments

    def add(self, psi_a, psi_b, fold_ids) -> None:
        """Fold score rows into the sums of their folds."""
        psi_a, psi_b, _ = _as_matrix_stack(psi_a, psi_b)
        masks = self._take_rows(fold_ids)
        block = np.hstack([_first_moments(psi_a, psi_b), self._second_moments(psi_a, psi_b)])
        self._fold_in(masks, block, 0)

    def _take_rows(self, fold_ids) -> list[np.ndarray]:
        """Count rows into their folds; returns each fold's row mask."""
        fold_ids = np.asarray(fold_ids)
        masks = [fold_ids == k for k in range(self.k_folds)]
        self.counts += [int(mask.sum()) for mask in masks]
        self.n += len(fold_ids)
        return masks

    def _second_moments(self, psi_a: np.ndarray, psi_b: np.ndarray) -> np.ndarray:
        m = len(psi_a)
        psi_c = psi_a @ self.theta_c + psi_b
        return np.hstack([
            (psi_c[:, :, None] * psi_c[:, None, :]).reshape(m, -1),
            (psi_c[:, :, None, None] * psi_a[:, None, :, :]).reshape(m, -1),
            (psi_a[:, :, :, None, None] * psi_a[:, None, None, :, :]).reshape(m, -1),
        ])

    def _fold_in(self, masks: list[np.ndarray], block: np.ndarray, start: int) -> None:
        """Add each fold's rows of ``block`` to the sums of columns start, start + 1, ..."""
        for k, mask in enumerate(masks):
            rows = block[mask]
            if not len(rows):
                continue
            for j, column in enumerate(rows.T.tolist(), start):
                partials = _exact_add(self._partials[k][j], column)
                self._partials[k][j] = partials
                self.sums[k, j] = partials[0]

    def _require_every_fold(self) -> None:
        if not self.counts.all():
            empty = np.flatnonzero(self.counts == 0).tolist()
            raise ParameterError(f"folds {empty} are empty; every fold needs data")

    def _fold_sums(self, col: int, shape: tuple[int, ...]) -> np.ndarray:
        return self.sums[:, self._cols[col]].reshape((self.k_folds,) + shape)

    def _estimate(self, variant: str):
        """(theta, J, per-fold thetas) from the fold sums of psi_a and psi_b."""
        _check_variant(variant)
        self._require_every_fold()
        d = self.d
        fold_means_a = self._fold_sums(0, (d, d)) / self.counts[:, None, None]
        fold_means_b = self._fold_sums(1, (d,)) / self.counts[:, None]
        pooled_a = _fsum_mean(fold_means_a)
        pooled_b = _fsum_mean(fold_means_b)
        fold_thetas: list[np.ndarray | None] = []
        for k, (ma, mb) in enumerate(zip(fold_means_a, fold_means_b)):
            if variant == "dml1":
                fold_thetas.append(_solve_linear(ma, mb, f"fold {k}"))
            else:
                smin, _ = _min_max_singular(ma)
                fold_thetas.append(_solve(ma, mb) if smin > SINGULAR_TOL else None)
        if variant == "dml1":
            theta = _fsum_mean(np.array(fold_thetas))
        else:
            theta = _solve_linear(pooled_a, pooled_b, "pooled")
        return theta, pooled_a, fold_thetas

    def sandwich(self, theta: np.ndarray, j_hat: np.ndarray, variant: str = "dml2"):
        """Sandwich variance at theta and the per-fold sandwiches; dml1
        averages the per-fold ones."""
        self._require_every_fold()
        d = self.d
        sums = self._fold_sums(2, (d, d))
        step = theta - self.theta_c
        if step.any():
            cross = np.einsum("kijl,l->kij", self._fold_sums(3, (d, d, d)), step)
            square = np.einsum("kiljm,l,m->kij", self._fold_sums(4, (d, d, d, d)), step, step)
            sums = sums + cross + cross.transpose(0, 2, 1) + square
        fold_mids = sums / self.counts[:, None, None]
        smin, _ = _min_max_singular(np.atleast_2d(j_hat))
        if smin <= SINGULAR_TOL:
            raise IdentificationError(
                f"variance: Jacobian singular (smallest singular value {smin:.3e})",
                smallest_singular_value=smin,
            )
        j_inv = _inverse(np.atleast_2d(j_hat))
        fold_sigmas = [_project_psd(j_inv @ m @ j_inv.T) for m in fold_mids]
        if variant == "dml1":
            return _project_psd(_fsum_mean(np.array(fold_sigmas))), fold_sigmas
        return _project_psd(j_inv @ _fsum_mean(fold_mids) @ j_inv.T), fold_sigmas

    def solve(self, variant: str = "dml2") -> DmlFit:
        """Cross-fitted estimate, Jacobian and sandwich variance of the rows so far."""
        d = self.d
        theta, j_hat, fold_thetas = self._estimate(variant)
        sigma_sq, fold_sigmas = self.sandwich(theta, j_hat, variant)
        per_fold = tuple(
            FoldSummary(
                fold=k,
                count=int(self.counts[k]),
                theta=None if fold_thetas[k] is None else _scalar_or_array(fold_thetas[k], d),
                sigma_sq=_scalar_or_array(fold_sigmas[k], d),
            )
            for k in range(self.k_folds)
        )
        return DmlFit(
            theta_hat=_scalar_or_array(theta, d),
            j_hat=_scalar_or_array(j_hat, d),
            sigma_sq_hat=_scalar_or_array(sigma_sq, d),
            n=self.n,
            per_fold=per_fold,
        )


def _first_moments(psi_a: np.ndarray, psi_b: np.ndarray) -> np.ndarray:
    return np.hstack([psi_a.reshape(len(psi_a), -1), psi_b])


def _check_variant(variant: str) -> None:
    if variant not in ("dml1", "dml2"):
        raise ParameterError(f"variant must be 'dml1' or 'dml2', got {variant!r}")


def solve_arrays(
    psi_a: np.ndarray,
    psi_b: np.ndarray,
    fold_ids: np.ndarray,
    k_folds: int,
    variant: str = "dml2",
) -> DmlFit:
    """Cross-fitted solve on raw score arrays, through their fold moments."""
    return ScoreMoments.centred(psi_a, psi_b, fold_ids, k_folds, variant).solve(variant)


def _project_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetrize and clamp tiny negative eigenvalues at zero."""
    sym = 0.5 * (mat + mat.T)
    if sym.shape == (1, 1):
        # A 1x1 matrix is its own eigenvalue.
        if sym[0, 0] < 0.0:
            logger.debug("clamping negative variance eigenvalue %.3e to 0", sym[0, 0])
            return np.zeros((1, 1))
        return sym
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
    theta = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    moments = ScoreMoments(k_folds, d, theta_c=theta)
    moments.add(psi_a, psi_b, fold_ids)
    sigma_sq, _ = moments.sandwich(theta, np.atleast_2d(np.asarray(j_hat, dtype=float)), variant)
    return _scalar_or_array(sigma_sq, d)


def estimate_variance(
    scores: Sequence[LinearScore],
    theta_hat,
    j_hat,
    plan: FoldPlan,
    variant: str = "dml2",
):
    """Sandwich variance J^{-1} (pooled mean psi psi^T at theta_hat) J^{-T}."""
    _check_variant(variant)
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
