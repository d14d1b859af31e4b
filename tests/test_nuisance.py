"""Learners: closed-form fixtures, grid-search oracles, determinism."""

import math

import numpy as np
import pytest

from seqdml import (
    GammaRegressionLoss,
    LearnerSpec,
    SquaredLoss,
    dump_model,
    fit_g1_gamma,
    fit_gbt,
    fit_logistic,
    fit_nu,
    fit_ridge,
    load_model,
    minimize_gamma_constant,
)
from seqdml.nuisance import (
    GbtModel,
    LogisticModel,
    NuModel,
    _bin_edges,
    _Bins,
    _gamma_constant_closed_form,
    _PREDICT_BLOCK,
    _Tree,
)
from seqdml.errors import FitError, ParameterError
from seqdml.scores import gamma_loss_terms


class TestFitRidge:
    def test_perfect_line_tiny_penalty(self):
        x = np.linspace(-1, 1, 50)
        model = fit_ridge(x, 2.0 * x, LearnerSpec(kind="ridge", ridge_lambda=1e-12))
        assert model.coef[0] == pytest.approx(2.0, abs=1e-8)
        assert model.intercept == pytest.approx(0.0, abs=1e-8)

    def test_constant_target(self):
        x = np.linspace(0, 1, 30)
        model = fit_ridge(x, np.full(30, 4.2), LearnerSpec(kind="ridge", ridge_lambda=0.1))
        assert model.coef[0] == pytest.approx(0.0, abs=1e-12)
        assert model.intercept == pytest.approx(4.2)

    def test_two_point_closed_form(self):
        # centered ridge: slope = Sxy / (Sxx + lambda) = 0.25 / 1.25 = 0.2
        model = fit_ridge(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                          LearnerSpec(kind="ridge", ridge_lambda=1.0))
        assert model.coef[0] == pytest.approx(0.2)
        assert model.intercept == pytest.approx(0.5 - 0.5 * 0.2)

    def test_empty_data(self):
        with pytest.raises(FitError):
            fit_ridge(np.empty((0, 2)), np.empty(0), LearnerSpec(kind="ridge"))


def brute_force_logistic(x, y, lam, b_range=(-4, 4), w_range=(-6, 6)):
    """Nested-grid minimizer of mean NLL + lam * w^2 over (intercept, slope)."""
    best = (0.0, 0.0)
    b_lo, b_hi = b_range
    w_lo, w_hi = w_range
    for _ in range(8):
        bs = np.linspace(b_lo, b_hi, 41)
        ws = np.linspace(w_lo, w_hi, 41)
        vals = np.empty((41, 41))
        for i, b in enumerate(bs):
            eta = b + np.outer(ws, x)
            nll = np.mean(np.logaddexp(0.0, eta) - y * eta, axis=1)
            vals[i] = nll + lam * ws**2
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = (bs[i], ws[j])
        db, dw = (b_hi - b_lo) / 40, (w_hi - w_lo) / 40
        b_lo, b_hi = best[0] - db, best[0] + db
        w_lo, w_hi = best[1] - dw, best[1] + dw
    return best


class TestFitLogistic:
    def test_uninformative_covariate(self):
        # every x value appears with both labels, so x is exactly
        # uninformative in-sample and the balanced fit is one half everywhere
        values = np.linspace(-2.0, 2.0, 100)
        x = np.repeat(values, 2)
        y = np.tile([0.0, 1.0], 100)
        model = fit_logistic(x, y, LearnerSpec(kind="logistic", logistic_lambda=1e-4))
        preds = model.predict(x)
        assert np.all(np.abs(preds - 0.5) < 1e-6)

    def test_one_class_limit_clipped(self):
        x = np.linspace(-1, 1, 50)
        model = fit_logistic(x, np.ones(50), LearnerSpec(kind="logistic", logistic_lambda=1e-3, clip=0.01))
        preds = model.predict(x)
        assert np.all(preds > 0.5)
        assert preds.max() <= 0.99

    def test_matches_grid_search(self):
        x = np.array([-1.0, 1.0])
        y = np.array([0.0, 1.0])
        lam = 0.1
        model = fit_logistic(x, y, LearnerSpec(kind="logistic", logistic_lambda=lam))
        b_star, w_star = brute_force_logistic(x, y, lam)
        p_model = 1.0 / (1.0 + math.exp(-(model.intercept + model.coef[0] * 1.0)))
        p_grid = 1.0 / (1.0 + math.exp(-(b_star + w_star * 1.0)))
        assert p_model == pytest.approx(p_grid, abs=1e-4)

    def test_complete_separation_without_penalty(self):
        x = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])
        y = np.concatenate([np.zeros(20), np.ones(20)])
        with pytest.raises(FitError, match="logistic_lambda"):
            fit_logistic(x, y, LearnerSpec(kind="logistic", logistic_lambda=0.0))

    def test_labels_validated(self):
        with pytest.raises(ParameterError):
            fit_logistic(np.array([0.0, 1.0]), np.array([0.5, 1.0]),
                         LearnerSpec(kind="logistic"))

    def test_clip_range_respected(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        y = (x > 0).astype(float)
        model = fit_logistic(x, y, LearnerSpec(kind="logistic", clip=0.05))
        preds = model.predict(np.array([-50.0, 50.0]))
        assert preds[0] == pytest.approx(0.05)
        assert preds[1] == pytest.approx(0.95)


class TestFitGbt:
    def test_step_function_training_fit(self):
        x = np.repeat(np.linspace(-1, 1, 50), 4)
        y = (x > 0).astype(float)
        model = fit_gbt(x, y, SquaredLoss(), LearnerSpec(kind="gbt"))
        mse = float(np.mean((model.predict(x) - y) ** 2))
        assert mse <= 0.01

    def test_zero_learning_rate_constant(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        y = rng.normal(size=100) + 3.0
        model = fit_gbt(x, y, SquaredLoss(), LearnerSpec(kind="gbt", learning_rate=0.0))
        assert model.trees == []
        assert np.all(model.predict(x) == pytest.approx(float(np.mean(y))))

    def test_gamma_one_initialization_is_mean(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=200)
        model = fit_gbt(np.zeros(200), y, GammaRegressionLoss(1.0), LearnerSpec(kind="gbt"))
        assert model.init_value == pytest.approx(float(np.mean(y)), abs=1e-8)

    def test_training_loss_monotone_under_gamma_loss(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 2))
        y = x[:, 0] - 0.5 * x[:, 1] ** 2 + rng.normal(size=300)
        gamma = 2.5
        loss = GammaRegressionLoss(gamma)
        spec = LearnerSpec(kind="gbt", n_rounds=60)
        model = fit_gbt(x, y, loss, spec)
        losses = [
            loss.mean_loss(y, GbtModel(model.init_value, model.learning_rate, model.trees[:k]).predict(x))
            for k in range(len(model.trees) + 1)
        ]
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(500, 3))
        y = np.sin(x[:, 0]) + rng.normal(size=500)
        spec = LearnerSpec(kind="gbt", n_rounds=40)
        m1 = fit_gbt(x, y, SquaredLoss(), spec)
        m2 = fit_gbt(x, y, SquaredLoss(), spec)
        assert np.array_equal(m1.predict(x), m2.predict(x))
        assert dump_model(m1) == dump_model(m2)

    def test_non_finite_gradient_rejected(self):
        class BadLoss(SquaredLoss):
            def gradient(self, y, f):
                return np.full(y.shape, np.nan)

        with pytest.raises(FitError):
            fit_gbt(np.zeros(40), np.zeros(40), BadLoss(), LearnerSpec(kind="gbt", n_rounds=1))


def brute_force_gamma_constant(values, gamma, lo=None, hi=None):
    values = np.asarray(values, dtype=float)
    lo = values.min() if lo is None else lo
    hi = values.max() if hi is None else hi
    grid = np.linspace(lo, hi, 20001)
    totals = [float(np.sum(gamma_loss_terms(values, g, gamma)[0])) for g in grid]
    return float(grid[int(np.argmin(totals))])


class TestGammaConstant:
    def test_two_point_fixture(self):
        assert minimize_gamma_constant(np.array([0.0, 2.0]), 3.0) == pytest.approx(0.5, abs=1e-8)
        assert brute_force_gamma_constant([0.0, 2.0], 3.0) == pytest.approx(0.5, abs=1e-3)

    def test_single_point(self):
        for gamma in (1.0, 2.0, 7.5):
            assert minimize_gamma_constant(np.array([1.7]), gamma) == pytest.approx(1.7, abs=1e-9)

    def test_gamma_one_is_mean(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=157)
        assert minimize_gamma_constant(y, 1.0) == pytest.approx(float(np.mean(y)), abs=1e-8)

    def test_bisection_matches_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.normal(size=37) * 3.0
            gamma = float(rng.uniform(0.3, 6.0))
            got = minimize_gamma_constant(y, gamma)
            want = brute_force_gamma_constant(y, gamma)
            assert got == pytest.approx(want, abs=2e-3)

    def test_closed_form_matches_bisection(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            r = rng.normal(size=int(rng.integers(1, 60)))
            gamma = float(rng.uniform(0.2, 8.0))
            closed = _gamma_constant_closed_form(r, gamma)
            bisected = minimize_gamma_constant(r, gamma)
            assert closed == pytest.approx(bisected, abs=1e-8)


class TestFitG1Gamma:
    def test_two_point_constant_model(self):
        spec = LearnerSpec(kind="gbt")  # n < 2 * min_leaf, so no splits happen
        model = fit_g1_gamma(np.array([0.0, 1.0]), np.array([0.0, 2.0]), 3.0, spec)
        assert model.init_value == pytest.approx(0.5, abs=1e-8)
        assert np.all(np.abs(model.predict(np.array([0.0, 1.0])) - 0.5) < 1e-8)

    def test_gamma_one_close_to_ridge_on_linear_dgp(self):
        rng = np.random.default_rng(11)
        n = 2000
        x = rng.normal(size=(n, 2))
        y = 1.0 + x @ np.array([1.0, -0.5]) + 0.25 * rng.normal(size=n)
        gbt = fit_g1_gamma(x, y, 1.0, LearnerSpec(kind="gbt"))
        ridge = fit_ridge(x, y, LearnerSpec(kind="ridge"))
        rmse = float(np.sqrt(np.mean((gbt.predict(x) - ridge.predict(x)) ** 2)))
        assert rmse <= 0.1


class TestFitNu:
    def test_gamma_one_degenerate(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 1))
        y = rng.normal(size=100)
        g1 = fit_ridge(x, y, LearnerSpec(kind="ridge"))
        model = fit_nu(x, y, g1, 1.0, LearnerSpec(kind="logistic"))
        assert np.all(model.predict(x) == 1.0)

    def test_half_probability_composition(self):
        flat = LogisticModel(intercept=0.0, coef=np.zeros(1), clip=(0.01, 0.99))
        model = NuModel(prob_model=flat, gamma=3.0)
        x = np.linspace(-2, 2, 9).reshape(-1, 1)
        assert np.all(model.predict(x) == pytest.approx(2.0))

    def test_one_class_limit(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(200, 1))
        y = rng.normal(size=200) + 100.0  # every y far above any g1 fit of y - 100
        g1 = fit_ridge(x, y - 100.0, LearnerSpec(kind="ridge"))
        gamma = 3.0
        model = fit_nu(x, y, g1, gamma, LearnerSpec(kind="logistic", clip=0.01))
        nu = model.predict(x)
        assert np.all(nu >= 1.0)
        assert np.all(nu <= 1.0 + (gamma - 1.0) * 0.01 + 1e-9)

    def test_range_clamped_for_fractional_gamma(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(150, 1))
        y = rng.normal(size=150)
        g1 = fit_ridge(x, y, LearnerSpec(kind="ridge"))
        model = fit_nu(x, y, g1, 0.5, LearnerSpec(kind="logistic"))
        nu = model.predict(x)
        assert np.all(nu >= 0.5)
        assert np.all(nu <= 1.0)


class TestDumpLoad:
    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(120, 2))
        y = x[:, 0] + rng.normal(size=120)
        labels = (y > 0).astype(float)
        models = [
            fit_ridge(x, y, LearnerSpec(kind="ridge")),
            fit_logistic(x, labels, LearnerSpec(kind="logistic")),
            fit_gbt(x, y, SquaredLoss(), LearnerSpec(kind="gbt", n_rounds=15)),
            fit_nu(x, y, fit_ridge(x, y, LearnerSpec(kind="ridge")), 2.0,
                   LearnerSpec(kind="logistic")),
        ]
        probe = rng.normal(size=(40, 2))
        for model in models:
            restored = load_model(dump_model(model))
            assert np.array_equal(model.predict(probe), restored.predict(probe))

    def test_cyclic_tree_rejected(self):
        text = (
            "seqdml-model v1\nkind = gbt\ninit = 0.0\nlearning_rate = 0.1\nn_trees = 1\n"
            "tree 0 nodes 1\nnode 0 0.0 0 0 0.0\n"
        )
        with pytest.raises(ParameterError, match="cycle"):
            load_model(text)

    GBT_HEAD = "seqdml-model v1\nkind = gbt\ninit = 0.0\nlearning_rate = 0.1\n"
    SPLIT = "tree 0 nodes 3\nnode 0 0.5 1 2 0.0\n"
    LEAVES = "node -1 0.0 -1 -1 1.0\nnode -1 0.0 -1 -1 2.0\n"

    @pytest.mark.parametrize("text", [
        GBT_HEAD + "n_trees = 1\n" + SPLIT,  # truncated
        GBT_HEAD + "n_trees = 2\n" + SPLIT + LEAVES,  # fewer trees than n_trees
        GBT_HEAD + "n_trees = 1\ntree 0 nodes 3\nnode 0 0.5 1 2 0.0 7\n" + LEAVES,
        GBT_HEAD + "n_trees = 1\ntree 0 nodes 3\nnode 0 abc 1 2 0.0\n" + LEAVES,
        GBT_HEAD + "n_trees = 2\ntree 0 nodes 3\nnode 0 0.5 1 5 0.0\n" + LEAVES
        + "tree 1 nodes 3\nnode 0 0.5 1 2 0.0\n" + LEAVES,
        GBT_HEAD + "n_trees = 2\n" + SPLIT + LEAVES
        + "tree 1 nodes 3\nnode 0 0.5 1 -3 0.0\n" + LEAVES,
        GBT_HEAD + "n_trees = 1\ntree 0 nodes 3\nnode 0 0.5 1 3 0.0\n" + LEAVES,
        GBT_HEAD + "n_trees = x\n",
        "seqdml-model v1\nkind = ridge\nintercept = 0.0\ncoef = 1.0 nan? \n",
        "seqdml-model v1\nkind = logistic\nintercept = 0.0\ncoef = 1.0\nclip = 0.01\n",
    ], ids=["truncated", "missing-tree", "extra-field", "bad-threshold", "link-into-next-tree",
            "negative-link", "link-past-end", "bad-n-trees", "bad-coef", "short-clip"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ParameterError):
            load_model(text)

    def test_header_required(self):
        with pytest.raises(ParameterError):
            load_model("kind = ridge\nintercept = 0.0\ncoef = 1.0\n")


# ---------------------------------------------------------------------------
# Oracle: the per-tree predict and per-feature split search that the
# vectorised GBT replaced. The fast path must match it bit for bit.
# ---------------------------------------------------------------------------

def oracle_tree_predict(tree, X):
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        internal = feat >= 0
        if not internal.any():
            break
        rows = np.nonzero(internal)[0]
        cur = node[rows]
        go_left = X[rows, feat[rows]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def oracle_predict(model, X):
    X = np.asarray(X, dtype=float)
    out = np.full(X.shape[0], model.init_value)
    for tree in model.trees:
        out += model.learning_rate * oracle_tree_predict(tree, X)
    return out


def oracle_best_split(codes_offset, starts, n_bins, total_bins, target, rows, min_leaf):
    best = None
    best_gain = 0.0
    total_n = rows.size
    d = codes_offset.shape[1]
    flat = codes_offset[rows].T.ravel()
    counts = np.bincount(flat, minlength=total_bins)
    sums = np.bincount(flat, weights=np.tile(target[rows], d), minlength=total_bins)
    for j in range(d):
        bins = n_bins[j]
        if bins < 2:
            continue
        lo = starts[j]
        cnt = counts[lo : lo + bins]
        sm = sums[lo : lo + bins]
        n_left = np.cumsum(cnt)[:-1]
        s_left = np.cumsum(sm)[:-1]
        n_right = total_n - n_left
        s_total = float(sm.sum())
        s_right = s_total - s_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not ok.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(ok, s_left**2 / n_left + s_right**2 / n_right, -np.inf)
        base = s_total**2 / total_n
        b = int(np.argmax(score))
        gain = float(score[b] - base)
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = (j, b)
    return best


def oracle_fit_gbt(X, y, loss, spec):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    init = float(loss.init_value(y))
    f = np.full(X.shape[0], init)
    trees = []
    lr = spec.learning_rate
    if lr > 0.0 and spec.n_rounds > 0:
        edges = [_bin_edges(X[:, j], spec.max_bins) for j in range(X.shape[1])]
        n_bins = [e.size + 1 for e in edges]
        starts = np.concatenate(([0], np.cumsum(n_bins)[:-1]))
        total_bins = int(sum(n_bins))
        codes = np.column_stack([np.searchsorted(e, X[:, j], side="left") for j, e in enumerate(edges)])
        codes_offset = codes + starts[None, :]
        for _ in range(spec.n_rounds):
            target = -np.asarray(loss.gradient(y, f), dtype=float)
            nodes = []

            def build(rows, depth):
                nid = len(nodes)
                nodes.append([-1, 0.0, -1, -1, 0.0])
                split = None
                if depth < spec.max_depth and rows.size >= 2 * spec.min_leaf:
                    split = oracle_best_split(
                        codes_offset, starts, n_bins, total_bins, target, rows, spec.min_leaf
                    )
                if split is None:
                    leaf = loss.leaf_value(y[rows], f[rows])
                    nodes[nid][4] = leaf
                    f[rows] += lr * leaf
                    return nid
                j, b = split
                mask = codes[rows, j] <= b
                nodes[nid][0] = j
                nodes[nid][1] = float(edges[j][b])
                nodes[nid][2] = build(rows[mask], depth + 1)
                nodes[nid][3] = build(rows[~mask], depth + 1)
                return nid

            build(np.arange(X.shape[0]), 0)
            cols = list(zip(*nodes))
            trees.append(_Tree(
                feature=np.array(cols[0], dtype=np.int64), threshold=np.array(cols[1]),
                left=np.array(cols[2], dtype=np.int64), right=np.array(cols[3], dtype=np.int64),
                value=np.array(cols[4]),
            ))
    return GbtModel(init_value=init, learning_rate=lr, trees=trees)


def _fixture(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    n = 400
    base = rng.normal(size=(n, 3))
    noise = rng.normal(size=n)
    spec = LearnerSpec(kind="gbt", n_rounds=30)
    if name == "constant":
        X = np.full((n, 3), 1.5)
    elif name == "mixed":
        X = np.column_stack([np.zeros(n), base[:, 0], np.full(n, -2.0), base[:, 1]])
    elif name == "few_unique":
        X = np.column_stack([rng.integers(0, 5, n), rng.integers(0, 40, n), base[:, 0]])
    elif name == "many_bins":
        # several distinct bin counts, above and below NumPy's pairwise-sum block
        X = np.column_stack([base[:, 0], rng.integers(0, 9, n), rng.integers(0, 150, n)])
        spec = LearnerSpec(kind="gbt", n_rounds=30, max_bins=255, min_leaf=5)
    elif name == "tied_columns":
        X = np.column_stack([base[:, 0], base[:, 0], base[:, 1]])
    elif name == "min_leaf_1_depth_1":
        X = base
        spec = LearnerSpec(kind="gbt", n_rounds=30, min_leaf=1, max_bins=2, max_depth=1)
    elif name == "min_leaf_1_depth_3":
        X = base
        spec = LearnerSpec(kind="gbt", n_rounds=30, min_leaf=1, max_bins=2, max_depth=3)
    elif name == "no_rounds":
        X = base
        spec = LearnerSpec(kind="gbt", n_rounds=0)
    elif name == "zero_learning_rate":
        X = base
        spec = LearnerSpec(kind="gbt", learning_rate=0.0)
    else:
        raise KeyError(name)
    y = np.sin(2.0 * base[:, 0]) + 0.5 * base[:, 1] ** 2 + noise
    return X, y, spec


FIXTURES = [
    "constant", "mixed", "few_unique", "many_bins", "tied_columns",
    "min_leaf_1_depth_1", "min_leaf_1_depth_3", "no_rounds", "zero_learning_rate",
]
LOSSES = {"squared": SquaredLoss(), "gamma": GammaRegressionLoss(2.5)}


class TestFastGbtMatchesOracle:
    @pytest.mark.parametrize("loss_name", sorted(LOSSES))
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_fit_and_predict_bit_identical(self, fixture, loss_name):
        X, y, spec = _fixture(fixture)
        loss = LOSSES[loss_name]
        model = fit_gbt(X, y, loss, spec)
        oracle = oracle_fit_gbt(X, y, loss, spec)
        assert dump_model(model) == dump_model(oracle)
        # the training rows, no rows, one row, and rows spanning several blocks
        across_blocks = 3 * _PREDICT_BLOCK // max(1, len(model.trees)) + 7
        probes = [X, X[:0], X[:1], np.random.default_rng(1).normal(size=(across_blocks, X.shape[1]))]
        restored = load_model(dump_model(model))
        for probe in probes:
            want = oracle_predict(oracle, probe)
            assert np.array_equal(model.predict(probe), want)
            assert np.array_equal(restored.predict(probe), want)

    def test_tied_columns_lower_index_wins(self):
        X, y, spec = _fixture("tied_columns")
        model = fit_gbt(X, y, SquaredLoss(), spec)
        used = np.concatenate([t.feature for t in model.trees])
        assert 0 in used and 1 not in used

    def test_feature_totals_match_unpadded_sums(self):
        # NumPy's pairwise sum rounds differently over a zero-padded row, so
        # each feature's total must cover exactly its own bins.
        rng = np.random.default_rng(2)
        n = 600
        i = np.arange(n)
        X = np.column_stack([i % 3, i % 9, i % 150, np.ones(n)]).astype(float)
        bins = _Bins(X, 255)
        n_bins = [e.size + 1 for e in bins.edges]
        assert n_bins == [3, 9, 150, 1]
        for _ in range(20):
            sums = rng.normal(size=(4, bins.stride)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))
            for j, b in enumerate(n_bins):
                sums[j, b:] = 0.0
            want = [float(sums[j, :b].sum()) if b > 1 else 0.0 for j, b in enumerate(n_bins)]
            assert bins.totals(sums).tolist() == want

    def test_too_few_covariates_rejected(self):
        X, y, spec = _fixture("mixed")
        model = fit_gbt(X, y, SquaredLoss(), spec)
        with pytest.raises(ParameterError):
            model.predict(X[:, :2])
