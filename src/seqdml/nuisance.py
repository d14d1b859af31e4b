"""In-tree nuisance learners: ridge, penalized logistic, boosted stumps.

All fits are deterministic functions of (data, spec). Probability outputs are
clipped away from 0 and 1; the asymmetric-loss regression and the nu map for
the partial-identification bounds are built on the same boosting machinery
with a pluggable loss. Models serialize to a line-oriented text format.

Whether boosted stumps converge fast enough for the strong-consistency rate
assumptions behind the confidence sequences cannot be verified from data;
the engine logs holdout RMSE trajectories as a diagnostic instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Protocol, Union

import numpy as np
from scipy.special import expit

from .errors import FitError, ParameterError
from .scores import GammaParam, _gamma_weight, gamma_loss_terms

__all__ = [
    "LearnerSpec",
    "RidgeModel",
    "LogisticModel",
    "GbtModel",
    "GbtForest",
    "NuModel",
    "FittedNuisance",
    "SquaredLoss",
    "GammaRegressionLoss",
    "fit_ridge",
    "fit_logistic",
    "fit_gbt",
    "fit_g1_gamma",
    "fit_nu",
    "minimize_gamma_constant",
    "dump_model",
    "load_model",
]

FORMAT_HEADER = "seqdml-model v1"


@dataclass(frozen=True)
class LearnerSpec:
    """Hyperparameters that, with the data, fully determine a fit."""

    kind: str = "ridge"  # ridge | logistic | gbt
    ridge_lambda: float = 1e-3
    logistic_lambda: float = 1e-4
    n_rounds: int = 200
    max_depth: int = 2
    learning_rate: float = 0.1
    min_leaf: int = 20
    max_bins: int = 64
    clip: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("ridge", "logistic", "gbt"):
            raise ParameterError(f"unknown learner kind {self.kind!r}")
        for name in ("ridge_lambda", "logistic_lambda"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ParameterError(f"{name} must be a finite real >= 0, got {value}")
        # Integers only: max_depth=1.5 grows deeper trees, and max_bins=10.5 fails in the fit.
        for name, low in (("n_rounds", 0), ("max_depth", 1), ("min_leaf", 1), ("max_bins", 2)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ParameterError(f"tree hyperparameters out of range: {name} must be "
                                     f"an integer >= {low}, got {value!r}")
        if not (0.0 <= self.learning_rate <= 1.0):
            raise ParameterError(f"learning_rate must be in [0, 1], got {self.learning_rate}")
        if not (0.0 < self.clip < 0.5):
            raise ParameterError(f"clip must be in (0, 0.5), got {self.clip}")


def _as_2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ParameterError(f"covariates must be a 1-d or 2-d array, got ndim={X.ndim}")
    return X


def _training_data(X, y, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Covariates as 2-d and the outcome as a float vector with one entry per row."""
    X, y = _as_2d(X), np.asarray(y, dtype=float)
    if y.shape != X.shape[:1]:
        raise ParameterError(f"{name}: y has shape {y.shape} but X has {X.shape[0]} rows")
    return X, y


# ---------------------------------------------------------------------------
# Fitted models
# ---------------------------------------------------------------------------

@dataclass
class RidgeModel:
    intercept: float
    coef: np.ndarray

    def predict(self, X) -> np.ndarray:
        return self.intercept + _as_2d(X) @ self.coef


@dataclass
class LogisticModel:
    intercept: float
    coef: np.ndarray
    clip: tuple[float, float]

    def probability(self, X) -> np.ndarray:
        """The fitted probability before clipping."""
        return expit(self.intercept + _as_2d(X) @ self.coef)

    def predict(self, X) -> np.ndarray:
        return np.clip(self.probability(X), self.clip[0], self.clip[1])


@dataclass
class _Tree:
    """Flat-array binary tree in preorder; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @classmethod
    def from_nodes(cls, nodes) -> "_Tree":
        """From (feature, threshold, left, right, value) rows."""
        feature, threshold, left, right, value = zip(*nodes)
        return cls(
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            value=np.array(value, dtype=float),
        )


# Rows per predict block are chosen so a (trees x rows) temporary holds
# about this many elements.
_PREDICT_BLOCK = 8192


@dataclass
class GbtModel:
    """init_value plus learning_rate times each tree's leaf value, in tree order.

    The trees are stacked into a one-model GbtForest at the first predict: do
    not edit `trees` after it. A stream walks its fold forests and builds none."""

    init_value: float
    learning_rate: float
    trees: list
    _forest = None  # the one-model forest once built; a class attribute, not a field

    def predict(self, X) -> np.ndarray:
        if self._forest is None:
            self._forest = GbtForest([self])
        return self._forest.predict(X, 0)


class GbtForest:
    """Boosted models of one learning rate and tree count, stacked: row i goes
    down model ``which[i]``'s trees and adds their terms in fitted order, as that
    model's ``predict`` does. The forest copies the models' node arrays."""

    def __init__(self, models):
        lr, n_trees = models[0].learning_rate, len(models[0].trees)
        if any(m.learning_rate != lr or len(m.trees) != n_trees for m in models[1:]):
            raise ParameterError("a forest's models must share one learning rate and tree count")
        self.learning_rate, self._init = lr, np.array([m.init_value for m in models], dtype=float)
        trees = [t for m in models for t in m.trees]
        # Every tree's nodes in one set of flat arrays. A leaf links to itself
        # on both sides, so walking `depth` steps from the roots parks each
        # row at its leaf in every tree at once.
        def stacked(attr, dtype):
            return np.concatenate([getattr(t, attr) for t in trees] + [np.empty(0, dtype)])

        sizes = [t.feature.size for t in trees]
        roots = np.cumsum([0] + sizes, dtype=np.intp)[:-1]
        offset = np.repeat(roots, sizes)
        feature = stacked("feature", np.int64)
        leaf = feature < 0
        own = np.arange(feature.size)
        left = np.where(leaf, own, stacked("left", np.int64) + offset)
        right = np.where(leaf, own, stacked("right", np.int64) + offset)
        # children[2k] is node k's right child and children[2k + 1] its left,
        # so a step is children[2 * node + (x <= threshold)].
        self._children = np.column_stack((right, left)).ravel()
        self._feature = np.where(leaf, 0, feature)
        self._threshold = stacked("threshold", float)
        self._value = stacked("value", float)
        self._n_features = int(feature.max(initial=-1)) + 1
        self._roots = roots.reshape(len(models), n_trees).T.copy()  # column m: model m's roots
        frontier, self._depth = roots, 0
        while (frontier := frontier[~leaf[frontier]]).size:
            if self._depth == feature.size:
                raise ParameterError("tree node links form a cycle")
            frontier = np.unique(np.concatenate((left[frontier], right[frontier])))
            self._depth += 1

    def predict(self, X, which) -> np.ndarray:
        """Row i's prediction by model ``which[i]``; a scalar names one model for every row."""
        X = _as_2d(X)
        n, d = X.shape
        which = np.broadcast_to(np.asarray(which, dtype=np.intp), (n,))
        out = np.take(self._init, which)
        if d < self._n_features:
            raise ParameterError(f"model splits on {self._n_features} covariates, got {d}")
        flat_x = np.ascontiguousarray(X).ravel()
        n_trees = self._roots.shape[0]
        block = max(1, _PREDICT_BLOCK // max(1, n_trees))
        for start in range(0, n, block):
            stop = min(n, start + block)
            node = np.take(self._roots, which[start:stop], axis=1)
            row_base = np.arange(start * d, stop * d, d)
            for _ in range(self._depth):
                x = np.take(flat_x, row_base + np.take(self._feature, node))
                node = np.take(self._children, 2 * node + (x <= np.take(self._threshold, node)))
            # Row 0 holds the initial value and row t + 1 tree t's scaled leaf
            # value; accumulating down the rows adds the trees in order, as a
            # running sum does, and never switches to pairwise summation.
            terms = np.empty((n_trees + 1, stop - start))
            terms[0] = out[start:stop]
            np.multiply(self.learning_rate, np.take(self._value, node), out=terms[1:])
            out[start:stop] = np.add.accumulate(terms, axis=0)[-1]
        return out


@dataclass
class NuModel:
    """nu(x) = p(x) + gamma (1 - p(x)), p the clipped probability of y >= g1(x)."""

    prob_model: LogisticModel
    gamma: float

    def predict(self, X) -> np.ndarray:
        p = self.prob_model.predict(X)
        nu = p + self.gamma * (1.0 - p)
        return np.clip(nu, min(1.0, self.gamma), max(1.0, self.gamma))


FittedNuisance = Union[RidgeModel, LogisticModel, GbtModel, NuModel]


# ---------------------------------------------------------------------------
# Losses for boosting
# ---------------------------------------------------------------------------

class BoostLoss(Protocol):
    """A boosting loss. ``residual_leaf``'s ``cache`` is a dict that lives for
    one fit, in which the loss may keep values that depend only on the fit's
    constants and a leaf's size."""

    def init_value(self, y: np.ndarray) -> float: ...
    def gradient(self, y: np.ndarray, f: np.ndarray) -> np.ndarray: ...
    def residual_leaf(self, resid: np.ndarray, rows: np.ndarray, cache: dict | None = None) -> float: ...


class SquaredLoss:
    def init_value(self, y):
        return float(np.mean(y))

    def gradient(self, y, f):
        return 2.0 * (f - y)

    def residual_leaf(self, resid, rows, cache=None):
        return float(np.mean(resid[rows]))


class GammaRegressionLoss:
    """Asymmetric squared loss (y-f)_+^2 + gamma (y-f)_-^2 for any positive weight."""

    def __init__(self, gamma: "GammaParam | float"):
        self.gamma = _gamma_weight(gamma)

    def init_value(self, y):
        return minimize_gamma_constant(y, self.gamma)

    def gradient(self, y, f):
        # gamma_loss_terms's -2 pos + 2 gamma neg, without the loss values.
        resid = np.asarray(y) - f
        return np.where(resid > 0.0, -2.0, -2.0 * self.gamma) * resid

    def residual_leaf(self, resid, rows, cache=None):
        return _gamma_constant_closed_form(resid, self.gamma, rows, cache)


def minimize_gamma_constant(values, gamma_weight: float, tol: float = 1e-9) -> float:
    """1-d minimizer of the empirical asymmetric loss, by derivative bisection."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise FitError("cannot minimize the asymmetric loss over an empty sample")
    lo, hi = float(values.min()), float(values.max())
    if hi - lo <= tol:
        return 0.5 * (lo + hi)

    def deriv(c: float) -> float:
        _, d = gamma_loss_terms(values, c, gamma_weight)
        return float(np.sum(d))

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # lo and hi are adjacent floats further apart than tol (above
            # 2**23 at tol = 1e-9), or their sum overflows: the interval
            # cannot shrink. A step that would end the loop instead collapses
            # it onto this same midpoint.
            return mid
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gamma_constant_closed_form(
    residuals, gamma_weight: float, rows=slice(None), denominators: dict | None = None
) -> float:
    """Exact minimizer of sum (r-c)_+^2 + gamma (r-c)_-^2 over residuals[rows]
    via sorted prefix sums.

    ``denominators``, if given, keeps each sample size's (n - j) + gamma j at
    this gamma, for the next solve of that size to reuse.
    """
    r = np.asarray(residuals, dtype=float)[rows]
    n = r.size
    if n == 0:
        return 0.0
    # [-inf, r sorted, inf]: candidate j must lie between entries j and j + 1.
    bounds = np.empty(n + 2)
    bounds[0], bounds[1:-1], bounds[-1] = -np.inf, r, np.inf
    bounds.sort()
    r = bounds[1:-1]
    prefix = np.zeros(n + 1)
    total = np.add.accumulate(r, out=prefix[1:])[-1]  # np.cumsum, with less overhead
    den = None if denominators is None else denominators.get(n)
    if den is None:
        j = np.arange(n + 1, dtype=float)
        den = (n - j) + gamma_weight * j
        if denominators is not None:
            denominators[n] = den
    candidates = ((total - prefix) + gamma_weight * prefix) / den
    valid = (candidates >= bounds[:-1] - 1e-12) & (candidates <= bounds[1:] + 1e-12)
    k = int(valid.argmax())
    if not valid[k]:  # numerical corner; fall back to bisection
        return minimize_gamma_constant(r, gamma_weight)
    return float(candidates[k])


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def fit_ridge(X, y, spec: LearnerSpec) -> RidgeModel:
    """Ridge regression minimizing mean squared error + lambda ||coef||^2.

    Fit on centered data so the intercept is unpenalized; with lambda > 0 the
    normal equations are always solvable.
    """
    X, y = _training_data(X, y, "fit_ridge")
    if X.shape[0] == 0:
        raise FitError("fit_ridge: empty training data")
    if X.shape[1] == 0:
        raise ParameterError("fit_ridge: covariates need at least one column")
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    n = X.shape[0]
    gram = Xc.T @ Xc / n + spec.ridge_lambda * np.eye(X.shape[1])
    rhs = Xc.T @ yc / n
    if spec.ridge_lambda > 0:
        coef = np.linalg.solve(gram, rhs)
    else:
        coef = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return RidgeModel(intercept=y_mean - float(x_mean @ coef), coef=coef)


def _logistic_objective(eta, y, beta, lam):
    """The penalized objective at beta, given its linear predictor eta."""
    nll = float(np.mean(np.logaddexp(0.0, eta) - y * eta))
    return nll + lam * float(beta[1:] @ beta[1:])


def fit_logistic(X, y, spec: LearnerSpec) -> LogisticModel:
    """Penalized logistic regression by damped Newton iterations.

    Maximizes the ridge-penalized log-likelihood (intercept unpenalized) to
    gradient norm <= 1e-8 or 100 iterations. Predictions are clipped to
    [clip, 1 - clip]. With lambda = 0, complete separation is reported as a
    fit error advising a positive penalty.
    """
    X, y = _training_data(X, y, "fit_logistic")
    if X.shape[0] == 0:
        raise FitError("fit_logistic: empty training data")
    if X.shape[1] == 0:
        raise ParameterError("fit_logistic: covariates need at least one column")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ParameterError("fit_logistic labels must be 0 or 1")
    n, d = X.shape
    design = np.column_stack([np.ones(n), X])
    lam = spec.logistic_lambda
    penalty = 2.0 * lam * np.eye(d)
    jitter = 1e-12 * np.eye(d + 1)
    # The linear predictor and objective of the current iterate: the line
    # search computes both for the trial it accepts, so each is computed once.
    beta = np.zeros(d + 1)
    eta = design @ beta
    obj = _logistic_objective(eta, y, beta, lam)
    for _ in range(100):
        p = expit(eta)
        grad = design.T @ (p - y) / n
        grad[1:] += 2.0 * lam * beta[1:]
        if math.sqrt(float(grad @ grad)) <= 1e-8:  # np.linalg.norm of a 1-d array
            break
        w = p * (1.0 - p)
        hess = (design * w[:, None]).T @ design / n
        hess[1:, 1:] += penalty
        hess += jitter
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise FitError("fit_logistic: singular Hessian; set logistic_lambda > 0") from None
        # Backtracking; after 60 halvings the last trial is taken anyway.
        t = 1.0
        for _ in range(60):
            cand = beta - t * step
            cand_eta = design @ cand
            cand_obj = _logistic_objective(cand_eta, y, cand, lam)
            if cand_obj <= obj:
                break
            t *= 0.5
        beta, eta, obj = cand, cand_eta, cand_obj
        if lam == 0.0 and float(np.linalg.norm(beta)) > 1e8:
            raise FitError(
                "fit_logistic: diverging coefficients (complete separation?); "
                "set logistic_lambda > 0"
            )
    if lam == 0.0 and obj < 1e-6:
        # Zero training loss means the classes are completely separated and
        # the unpenalized maximizer does not exist.
        raise FitError(
            "fit_logistic: complete separation (training loss is zero); "
            "set logistic_lambda > 0"
        )
    clip = (spec.clip, 1.0 - spec.clip)
    return LogisticModel(intercept=float(beta[0]), coef=beta[1:], clip=clip)


def _bin_edges(col: np.ndarray, max_bins: int) -> np.ndarray:
    uniq = np.unique(col)
    if uniq.size <= 1:
        return np.empty(0)
    if uniq.size <= max_bins:
        return (uniq[:-1] + uniq[1:]) / 2.0
    qs = np.quantile(col, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
    return np.unique(qs)


class _Path:
    """A tree node's place in one fit: its path of splits from the root.

    The node's rows depend only on that path, and boosting rounds take the
    same paths again and again. A path keeps its rows, its bin keys and split
    counts once searched, and its children by split, so a node that recurs
    skips the partition, the gather of its keys and the counting.
    """

    __slots__ = ("rows", "counts", "children")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.counts = None  # _Bins.counts of the rows, once searched
        self.children: dict[tuple[int, int], tuple[_Path, _Path]] = {}


class _Bins:
    """Per-fit binning; feature j's bin b has key j * stride + b."""

    def __init__(self, X: np.ndarray, max_bins: int):
        self.n, self.d = X.shape
        self.edges = [_bin_edges(X[:, j], max_bins) for j in range(self.d)]
        n_bins = np.array([e.size + 1 for e in self.edges])
        self.stride = int(n_bins.max())
        codes = np.stack([np.searchsorted(e, X[:, j], side="left") for j, e in enumerate(self.edges)])
        self.keys = codes + (np.arange(self.d) * self.stride)[:, None]
        # NumPy's pairwise sum depends on the length summed, so each feature's
        # total is taken over exactly its own bins, one group per bin count.
        self.groups = [(np.nonzero(n_bins == b)[0], b) for b in np.unique(n_bins) if b >= 2]
        self.uniform = bool((n_bins == self.stride).all())
        self.weights = np.empty(self.d * self.n)

    def counts(self, rows: np.ndarray, min_leaf: int):
        """The rows' bin keys, feature after feature; the rows left and right
        of each split, floored at 1 as floats; and which splits leave
        min_leaf rows on both sides.

        From each feature's last bin on, the left count is every row, so the
        mask also excludes those positions; whole rows stay contiguous.
        """
        total_n = rows.size
        keys = self.keys.ravel() if total_n == self.n else self.keys.take(rows, axis=1).ravel()
        counts = np.bincount(keys, minlength=self.d * self.stride)
        n_left = counts.reshape(self.d, self.stride).cumsum(axis=1)
        ok = (n_left >= min_leaf) & (n_left <= total_n - min_leaf)
        return keys, np.maximum(n_left, 1.0), np.maximum(total_n - n_left, 1.0), ok

    def totals(self, sums: np.ndarray) -> np.ndarray:
        """Per-feature sum of a (d, stride) histogram over the feature's own bins."""
        if self.uniform:
            return sums.sum(axis=1)
        out = np.zeros(self.d)
        for feats, bins in self.groups:
            out[feats] = sums[feats, :bins].sum(axis=1)
        return out

    def best_split(self, target: np.ndarray, path: _Path, min_leaf: int):
        """Best (feature, bin) squared-error split of `target` over the path's
        rows, or None. Split b sends bins 0..b left.

        Among near-equal gains the lowest feature index wins.
        """
        if not self.groups:
            return None
        rows, total_n = path.rows, path.rows.size
        if path.counts is None:
            path.counts = self.counts(rows, min_leaf)
        keys, left_floor, right_floor, ok = path.counts
        weights = self.weights[: self.d * total_n]
        weights.reshape(self.d, total_n)[:] = target if total_n == self.n else target[rows]
        sums = np.bincount(keys, weights, self.d * self.stride).reshape(self.d, self.stride)
        s_total = self.totals(sums)
        s_left = sums.cumsum(axis=1)
        s_right = s_total[:, None] - s_left
        score = np.where(ok, s_left**2 / left_floor + s_right**2 / right_floor, -np.inf)
        best_b = score.argmax(axis=1)
        best, best_gain = None, 0.0
        for j, (sc, st) in enumerate(zip(score.max(axis=1).tolist(), s_total.tolist())):
            if sc == -np.inf:
                continue
            # Python floats on purpose: float ** 2 rounds differently from
            # NumPy's x * x in rare cases, and the gains must not change.
            # NumPy's squares above overflow to inf; Python's raise.
            try:
                if sc == np.inf:
                    raise OverflowError
                gain = sc - st**2 / total_n
            except OverflowError:
                raise FitError("fit_gbt: a split gain overflows floating point") from None
            if gain > best_gain + 1e-12:
                best, best_gain = (j, int(best_b[j])), gain
        return best


def fit_gbt(
    X, y, loss: BoostLoss, spec: LearnerSpec, *, fitted_values: np.ndarray | None = None
) -> GbtModel:
    """Gradient boosting with depth-limited regression trees and a pluggable loss.

    Each round fits a tree to the negative gradient (squared-error splits on
    binned features) and solves each leaf's constant against the actual loss
    over the round's residuals y - f, so the training loss cannot increase.
    A zero learning rate leaves the model at the loss-minimizing constant.

    ``fitted_values``, if given, is a float array with one entry per row of
    X that receives the final f: the model's predictions on X, equal to
    ``predict(X)`` bit for bit, since both add the trees in fitted order and
    a split's bin test and its threshold test send every row the same way.
    """
    X, y = _training_data(X, y, "fit_gbt")
    if X.shape[0] == 0:
        raise FitError("fit_gbt: empty training data")
    init = float(loss.init_value(y))
    if not math.isfinite(init):
        raise FitError("fit_gbt: non-finite initialization constant")
    f = np.full(X.shape[0], init)
    lr = spec.learning_rate
    # Every tree's (feature, threshold, left, right, value) rows in depth-first
    # preorder, tree after tree; links count from the tree's start.
    nodes, starts = [], []
    if lr > 0.0 and spec.n_rounds > 0:
        bins = _Bins(X, spec.max_bins)
        root, step = _Path(np.arange(bins.n)), np.empty_like(f)
        leaf_cache: dict = {}  # the loss's, for this fit only
        for _ in range(spec.n_rounds):
            # The split search squares every sum, so the gradient splits the
            # rows exactly as the negative gradient would.
            grad = np.asarray(loss.gradient(y, f), dtype=float)
            if not np.isfinite(grad).all():
                raise FitError("fit_gbt: non-finite gradient during boosting")
            resid = y - f
            starts.append(len(nodes))
            # (path, depth, parent row, its link slot); the left child pops first.
            stack = [(root, 0, None, 0)]
            while stack:
                path, depth, parent, slot = stack.pop()
                rows = path.rows
                if parent is not None:
                    parent[slot] = len(nodes) - starts[-1]
                node = [-1, 0.0, -1, -1, 0.0]
                nodes.append(node)
                split = None
                if depth < spec.max_depth and rows.size >= 2 * spec.min_leaf:
                    split = bins.best_split(grad, path, spec.min_leaf)
                if split is None:
                    node[4] = loss.residual_leaf(resid, rows, leaf_cache)
                    step[rows] = lr * node[4]
                    continue
                j, b = split
                children = path.children.get(split)
                if children is None:
                    mask = bins.keys[j].take(rows) <= j * bins.stride + b
                    children = path.children[split] = (_Path(rows[mask]), _Path(rows[~mask]))
                node[:2] = j, float(bins.edges[j][b])
                stack += [(children[1], depth + 1, node, 3), (children[0], depth + 1, node, 2)]
            f += step
            if not np.isfinite(f).all():
                raise FitError("fit_gbt: non-finite predictions during boosting")
    if fitted_values is not None:
        fitted_values[:] = f
    table = vars(_Tree.from_nodes(nodes)).values() if nodes else ()
    bounds = zip(starts, starts[1:] + [len(nodes)])
    trees = [_Tree(*(column[s:e] for column in table)) for s, e in bounds]
    return GbtModel(init_value=init, learning_rate=lr, trees=trees)


def fit_g1_gamma(
    X, y, gamma: "GammaParam | float", spec: LearnerSpec, *,
    fitted_values: np.ndarray | None = None,
) -> GbtModel:
    """Asymmetric-loss regression for one arm's bound, on that arm's rows only.

    The effective weight is Gamma for a lower bound and 1/Gamma for an upper
    bound; the caller passes whichever applies. ``fitted_values`` is
    :func:`fit_gbt`'s.
    """
    return fit_gbt(X, y, GammaRegressionLoss(gamma), spec, fitted_values=fitted_values)


def fit_nu(
    X, y, g1_model: FittedNuisance, gamma: "GammaParam | float", spec: LearnerSpec
) -> NuModel:
    """Estimate nu(x) = P(y >= g1(x) | x) + gamma P(y < g1(x) | x) on one arm's rows."""
    X, y = _training_data(X, y, "fit_nu")
    return _fit_nu_at(X, y, g1_model.predict(X), gamma, spec)


def _fit_nu_at(X, y, g1_values: np.ndarray, gamma: "GammaParam | float", spec: LearnerSpec) -> NuModel:
    """fit_nu, given g1's predictions on X."""
    labels = (y >= g1_values).astype(float)
    return NuModel(prob_model=fit_logistic(X, labels, spec), gamma=_gamma_weight(gamma))


# ---------------------------------------------------------------------------
# Text serialization (versioned, binary-free)
# ---------------------------------------------------------------------------

def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def dump_model(model: FittedNuisance) -> str:
    """Serialize a fitted model to the line-oriented `key = value` text format.

    Trees are written as one `node` row per node: feature threshold left
    right value, with feature -1 marking leaves. A model holds no record of
    its training rows; the engine keeps that per fold.
    """
    lines = [FORMAT_HEADER]
    if isinstance(model, RidgeModel):
        lines += [
            "kind = ridge",
            f"intercept = {model.intercept!r}",
            f"coef = {_fmt_floats(model.coef)}",
        ]
    elif isinstance(model, LogisticModel):
        lines += [
            "kind = logistic",
            f"intercept = {model.intercept!r}",
            f"coef = {_fmt_floats(model.coef)}",
            f"clip = {model.clip[0]!r} {model.clip[1]!r}",
        ]
    elif isinstance(model, GbtModel):
        lines += [
            "kind = gbt",
            f"init = {model.init_value!r}",
            f"learning_rate = {model.learning_rate!r}",
            f"n_trees = {len(model.trees)}",
        ]
        for i, tree in enumerate(model.trees):
            lines.append(f"tree {i} nodes {tree.feature.size}")
            for k in range(tree.feature.size):
                lines.append(
                    f"node {int(tree.feature[k])} {float(tree.threshold[k])!r} "
                    f"{int(tree.left[k])} {int(tree.right[k])} {float(tree.value[k])!r}"
                )
    elif isinstance(model, NuModel):
        lines += [
            "kind = nu",
            f"gamma = {model.gamma!r}",
            f"intercept = {model.prob_model.intercept!r}",
            f"coef = {_fmt_floats(model.prob_model.coef)}",
            f"clip = {model.prob_model.clip[0]!r} {model.prob_model.clip[1]!r}",
        ]
    else:
        raise ParameterError(f"cannot serialize model of type {type(model).__name__}")
    return "\n".join(lines) + "\n"


def _parse_kv(lines: list[str], key: str) -> str:
    for line in lines:
        if line.startswith(key + " = "):
            return line[len(key) + 3 :]
    raise ParameterError(f"model text is missing key {key!r}")


def load_model(text: str) -> FittedNuisance:
    """Parse a model serialized by :func:`dump_model`; malformed text raises
    ParameterError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ParameterError(f"model text must start with {FORMAT_HEADER!r}")
    try:
        return _parse_model(lines)
    except ParameterError:
        raise
    except (IndexError, ValueError) as exc:
        raise ParameterError(f"malformed model text: {exc}") from None


def _parse_finite(lines: list[str], key: str) -> float:
    if math.isfinite(value := float(_parse_kv(lines, key))):
        return value
    raise ParameterError(f"{key} must be finite, got {value}")


def _parse_logistic(lines: list[str]) -> LogisticModel:
    clip = tuple(float(v) for v in _parse_kv(lines, "clip").split())
    if len(clip) != 2 or not 0.0 < clip[0] < clip[1] < 1.0:
        raise ParameterError(f"clip must be two probabilities 0 < lo < hi < 1, got {clip}")
    return LogisticModel(
        intercept=_parse_finite(lines, "intercept"), coef=_parse_coef(lines), clip=clip
    )


def _parse_coef(lines: list[str]) -> np.ndarray:
    coef = np.array([float(v) for v in _parse_kv(lines, "coef").split()])
    if not (coef.size and np.isfinite(coef).all()):
        raise ParameterError("coef must list one or more finite coefficients")
    return coef


def _parse_model(lines: list[str]) -> FittedNuisance:
    kind = _parse_kv(lines, "kind")
    if kind == "ridge":
        return RidgeModel(intercept=_parse_finite(lines, "intercept"), coef=_parse_coef(lines))
    if kind == "logistic":
        return _parse_logistic(lines)
    if kind == "nu":
        gamma = _gamma_weight(float(_parse_kv(lines, "gamma")))
        return NuModel(prob_model=_parse_logistic(lines), gamma=gamma)
    if kind == "gbt":
        n_trees = int(_parse_kv(lines, "n_trees"))
        trees = []
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("n_trees = ")) + 1
        for i in range(n_trees):
            head = lines[idx].split()
            if head[0] != "tree":
                raise ParameterError(f"expected a tree header, got {lines[idx]!r}")
            n_nodes = int(head[3])
            rows = [lines[idx + 1 + k].split() for k in range(n_nodes)]
            nodes = [(int(f), float(t), int(l), int(r), float(v)) for _, f, t, l, r, v in rows]
            # A split's children must be nodes of its own tree.
            if any(f >= 0 and not (0 <= l < n_nodes and 0 <= r < n_nodes) for f, _, l, r, _ in nodes):
                raise ParameterError(f"tree {i} links a split to a node outside the tree")
            trees.append(_Tree.from_nodes(nodes))
            if not (np.isfinite(trees[-1].threshold).all() and np.isfinite(trees[-1].value).all()):
                raise ParameterError(f"tree {i} has a node threshold or value that is not finite")
            idx += 1 + n_nodes
        if not 0.0 <= (lr := float(_parse_kv(lines, "learning_rate"))) <= 1.0:  # LearnerSpec's rule
            raise ParameterError(f"learning_rate must be in [0, 1], got {lr}")
        model = GbtModel(init_value=_parse_finite(lines, "init"), learning_rate=lr, trees=trees)
        model._forest = GbtForest([model])  # rejects node links that form a cycle
        return model
    raise ParameterError(f"unknown model kind {kind!r}")
