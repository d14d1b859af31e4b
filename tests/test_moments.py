"""Exact per-fold score moments against a full re-solve over every row.

The oracle below is the solve that summed every fold's rows afresh with
math.fsum at each call. ``ScoreMoments`` keeps exact running sums instead,
so theta_hat, J_hat and the per-fold thetas must match it bit for bit, on
batch arrays and at every peek of a stream. The sandwich variance matches
bit for bit wherever the moments are centred at the current estimate (batch
solves and refit peeks); at light peeks it is moved from the centre by the
cross moments, and must agree to LIGHT_REL.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from seqdml import Columns, LearnerSpec, Stream, StreamConfig
from seqdml import crossfit
from seqdml.crossfit import (
    SINGULAR_TOL,
    DmlFit,
    FoldSummary,
    ScoreMoments,
    _as_matrix_stack,
    _exact_add,
    _inverse,
    _min_max_singular,
    _project_psd,
    _scalar_or_array,
    _solve_linear,
    solve_arrays,
)
from seqdml.engine import ESTIMANDS
from seqdml.errors import IdentificationError, NotReadyError, ParameterError

from conftest import generated_columns

# Relative tolerance on sigma^2 at light peeks: a few rounding errors of the
# cross-moment correction, with a wide margin.
LIGHT_REL = 1e-12
FEW_ROUNDS = LearnerSpec(kind="gbt", n_rounds=10)


# -- the oracle: the re-solve over every row ----------------------------------

def _fsum_mean(rows):
    m = rows.shape[0]
    flat = rows.reshape(m, -1)
    sums = [math.fsum(flat[:, j].tolist()) for j in range(flat.shape[1])]
    return np.array(sums).reshape(rows.shape[1:]) / m


def _fold_indices(fold_ids, k_folds):
    groups = [np.nonzero(fold_ids == k)[0] for k in range(k_folds)]
    empty = [k for k, g in enumerate(groups) if g.size == 0]
    if empty:
        raise ParameterError(f"folds {empty} are empty; every fold needs data")
    return groups


def _oracle_sandwich(psi_a, psi_b, theta, j_hat, groups):
    psi = psi_a @ theta + psi_b
    outer = psi[:, :, None] * psi[:, None, :]
    fold_mids = [_fsum_mean(outer[g]) for g in groups]
    mid = _fsum_mean(np.array(fold_mids))
    smin, _ = _min_max_singular(np.atleast_2d(j_hat))
    if smin <= SINGULAR_TOL:
        raise IdentificationError("variance: Jacobian singular", smallest_singular_value=smin)
    j_inv = np.linalg.inv(np.atleast_2d(j_hat))
    fold_sigmas = [_project_psd(j_inv @ m @ j_inv.T) for m in fold_mids]
    return _project_psd(j_inv @ mid @ j_inv.T), fold_sigmas


def oracle_solve(psi_a, psi_b, fold_ids, k_folds, variant="dml2"):
    psi_a, psi_b, d = _as_matrix_stack(psi_a, psi_b)
    groups = _fold_indices(np.asarray(fold_ids), k_folds)
    fold_means_a = np.array([_fsum_mean(psi_a[g]) for g in groups])
    fold_means_b = np.array([_fsum_mean(psi_b[g]) for g in groups])
    pooled_a = _fsum_mean(fold_means_a)
    pooled_b = _fsum_mean(fold_means_b)
    fold_thetas = []
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
    sigma_sq, fold_sigmas = _oracle_sandwich(psi_a, psi_b, theta, pooled_a, groups)
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
        j_hat=_scalar_or_array(pooled_a, d),
        sigma_sq_hat=_scalar_or_array(sigma_sq, d),
        n=psi_a.shape[0],
        per_fold=per_fold,
    )


def same_bits(x, y) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return np.array_equal(np.asarray(x), np.asarray(y))


def assert_fits_match(fit, ref, sigma_rel=0.0):
    """theta, J and per-fold thetas bit-identical; sigma^2 to sigma_rel."""
    assert same_bits(fit.theta_hat, ref.theta_hat)
    assert same_bits(fit.j_hat, ref.j_hat)
    assert fit.n == ref.n
    assert [s.count for s in fit.per_fold] == [s.count for s in ref.per_fold]
    for got, want in zip(fit.per_fold, ref.per_fold):
        assert same_bits(got.theta, want.theta)
    pairs = [(fit.sigma_sq_hat, ref.sigma_sq_hat)] + [
        (got.sigma_sq, want.sigma_sq) for got, want in zip(fit.per_fold, ref.per_fold)
    ]
    for got, want in pairs:
        if sigma_rel == 0.0:
            assert same_bits(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=sigma_rel, atol=0.0)


# -- batch solves ----------------------------------------------------------

def random_scores(rng, n, d):
    if d == 1:
        return -np.exp(rng.normal(size=n)), rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    eye = np.eye(d)
    psi_a = np.array([-eye - 0.3 * np.diag(rng.uniform(size=d)) + 0.05 * rng.normal(size=(d, d))
                      for _ in range(n)])
    return psi_a, rng.normal(size=(n, d)) + rng.normal(size=d) * 5.0


@pytest.mark.parametrize("variant", ["dml1", "dml2"])
@pytest.mark.parametrize("d", [1, 2])
def test_solve_arrays_bit_identical_to_oracle(d, variant):
    rng = np.random.default_rng(100 + d)
    for _ in range(25):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 400))
        psi_a, psi_b = random_scores(rng, n, d)
        # Round-robin and arbitrary (shuffled) fold assignments alike.
        fold_ids = np.arange(n) % k
        if rng.uniform() < 0.5:
            fold_ids = rng.permutation(fold_ids)
        fit = solve_arrays(psi_a, psi_b, fold_ids, k, variant=variant)
        assert_fits_match(fit, oracle_solve(psi_a, psi_b, fold_ids, k, variant))


@pytest.mark.parametrize("variant", ["dml1", "dml2"])
def test_error_cases_match_oracle(variant):
    # An empty fold.
    args = (np.array([-1.0, -1.0]), np.array([1.0, 2.0]), np.array([0, 0]), 2)
    for solve in (solve_arrays, oracle_solve):
        with pytest.raises(ParameterError):
            solve(*args, variant=variant)
    # A singular Jacobian, pooled (dml2) or in fold 1 (dml1).
    psi_a = np.array([1e-12, -1e-12, 1e-12, -1e-12]) if variant == "dml2" else np.array(
        [-1.0, 0.0, -1.0, 0.0])
    psi_b = np.array([1.0, 2.0, 3.0, 4.0])
    messages = []
    for solve in (solve_arrays, oracle_solve):
        with pytest.raises(IdentificationError) as err:
            solve(psi_a, psi_b, np.arange(4) % 2, 2, variant=variant)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# -- every peek of a stream ------------------------------------------------

class ScoreLog:
    """Records the scores a stream folds into its moments, and how many
    rows each peek folded in, by wrapping ScoreMoments' two entry points."""

    def __init__(self, monkeypatch):
        self.psi_a: list[np.ndarray] = []
        self.psi_b: list[np.ndarray] = []
        self.fold_ids: list[np.ndarray] = []
        self.calls: list[tuple[str, int]] = []
        centred, add = ScoreMoments.centred.__func__, ScoreMoments.add
        log = self

        def logged_centred(cls, psi_a, psi_b, fold_ids, k_folds, variant="dml2"):
            log.calls.append(("centred", len(psi_a)))
            log.psi_a, log.psi_b, log.fold_ids = [psi_a.copy()], [psi_b.copy()], [fold_ids.copy()]
            return centred(cls, psi_a, psi_b, fold_ids, k_folds, variant)

        def logged_add(moments, psi_a, psi_b, fold_ids):
            log.calls.append(("add", len(psi_a)))
            log.psi_a.append(psi_a.copy())
            log.psi_b.append(psi_b.copy())
            log.fold_ids.append(fold_ids.copy())
            return add(moments, psi_a, psi_b, fold_ids)

        monkeypatch.setattr(ScoreMoments, "centred", classmethod(logged_centred))
        monkeypatch.setattr(ScoreMoments, "add", logged_add)

    def scores(self):
        return (np.concatenate(self.psi_a), np.concatenate(self.psi_b),
                np.concatenate(self.fold_ids))


def check_every_peek(stream, columns, peek_every, log):
    """Peek every peek_every rows; each peek must match the oracle re-solve
    of all the scores the stream has folded in. Returns the peek kinds."""
    cfg = stream.config
    kinds = []
    first = -(-cfg.burn_in // peek_every) * peek_every
    for n in range(first, len(columns.y) + 1, peek_every):
        stream.push_batch(*columns.rows(stream.n, n))
        before = len(log.calls)
        try:
            stream.peek()
        except NotReadyError:
            continue
        kind = log.calls[-1][0] if len(log.calls) > before else "cached"
        psi_a, psi_b, fold_ids = log.scores()
        assert len(psi_a) == n
        assert np.array_equal(fold_ids, np.arange(n) % cfg.k_folds)
        ref = oracle_solve(psi_a, psi_b, fold_ids, cfg.k_folds, cfg.dml_variant)
        assert_fits_match(stream.last_fit, ref, 0.0 if kind == "centred" else LIGHT_REL)
        assert stream.peek_log[-1].theta_hat == ref.theta_hat
        kinds.append(kind)
    return kinds


@pytest.mark.parametrize("estimand", ESTIMANDS)
def test_every_peek_matches_oracle(estimand, monkeypatch):
    log = ScoreLog(monkeypatch)
    config = StreamConfig(
        estimand=estimand, burn_in=100, gamma=1.5,
        outcome_spec=FEW_ROUNDS if estimand == "plr" else None, gamma_spec=FEW_ROUNDS,
    )
    kinds = check_every_peek(Stream(config), generated_columns(estimand, 450, seed=21), 25, log)
    # Refits at 100, 200 and 400; light peeks in between.
    assert kinds.count("centred") == 3
    assert kinds.count("add") == len(kinds) - 3


def test_every_peek_matches_oracle_dml1(monkeypatch):
    log = ScoreLog(monkeypatch)
    config = StreamConfig(estimand="late", burn_in=100, dml_variant="dml1")
    kinds = check_every_peek(Stream(config), generated_columns("late", 450, seed=22), 30, log)
    assert "centred" in kinds and "add" in kinds


def test_high_cancellation_stream(monkeypatch):
    """An effect of 1e5 against unit noise: the score's mean is over 1e4
    times its standard deviation, so second moments taken about zero
    instead of about the centre would lose every digit of sigma^2."""
    log = ScoreLog(monkeypatch)
    rng = np.random.default_rng(23)
    n = 1200
    x = rng.normal(size=(n, 2))
    a = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-0.5 * x[:, 0]))).astype(int)
    y = 1e5 * a + x[:, 1] + rng.normal(size=n)
    stream = Stream(StreamConfig(estimand="ate", burn_in=150))
    kinds = check_every_peek(stream, Columns(y, a, x), 50, log)
    assert "add" in kinds
    psi_b = np.concatenate(log.psi_b)
    assert abs(psi_b.mean()) >= 1e4 * psi_b.std()


@pytest.mark.parametrize("variant", ["dml1", "dml2"])
@pytest.mark.parametrize("d", [1, 2])
def test_moved_centre_matches_oracle(d, variant):
    """Rows added after the centre was fixed move the estimate; the cross
    moments carry the variance to it, in any dimension."""
    rng = np.random.default_rng(27 + d)
    n, k = 300, 3
    psi_a, psi_b = random_scores(rng, n, d)
    psi_b[100:] += 0.5  # the later rows pull the estimate away from the centre
    fold_ids = np.arange(n) % k
    moments = ScoreMoments.centred(psi_a[:100], psi_b[:100], fold_ids[:100], k, variant)
    moments.add(psi_a[100:], psi_b[100:], fold_ids[100:])
    fit = moments.solve(variant)
    assert not same_bits(fit.theta_hat, moments.theta_c.reshape(np.shape(fit.theta_hat)))
    assert_fits_match(fit, oracle_solve(psi_a, psi_b, fold_ids, k, variant), LIGHT_REL)


# -- compaction is exact ---------------------------------------------------

def test_exact_add_keeps_the_sum_exact():
    rng = np.random.default_rng(24)
    for _ in range(100):
        partials, seen = [0.0], []
        for _ in range(12):
            m = int(rng.integers(0, 40))
            # Mixed magnitudes, exact cancellations and tiny values.
            values = (rng.normal(size=m) * 10.0 ** rng.integers(-300, 300, size=m)).tolist()
            if values and rng.uniform() < 0.3:
                values.append(-values[0])
            seen += values
            partials = _exact_add(partials, values)
            assert sum(map(Fraction, partials), Fraction(0)) == sum(map(Fraction, seen), Fraction(0))
            assert partials[0] == math.fsum(seen)
            # Compact: a handful of floats, not one per value added.
            assert len(partials) <= 40


def test_fold_sums_independent_of_blocks():
    rng = np.random.default_rng(25)
    n, k = 500, 4
    psi_a, psi_b = random_scores(rng, n, 1)
    whole = ScoreMoments.centred(psi_a, psi_b, np.arange(n) % k, k)
    parts = ScoreMoments(k, 1, whole.theta_c)
    for lo, hi in ((0, 7), (7, 8), (8, 250), (250, 500)):
        parts.add(psi_a[lo:hi], psi_b[lo:hi], np.arange(lo, hi) % k)
    assert np.array_equal(parts.sums, whole.sums)
    assert_fits_match(parts.solve(), whole.solve())


# -- a peek folds in only the rows it has not seen -------------------------

def test_peek_folds_in_only_new_rows(monkeypatch):
    log = ScoreLog(monkeypatch)
    stream = Stream(StreamConfig(estimand="ate", burn_in=100))
    rows = generated_columns("ate", 460, seed=26)
    stream.push_batch(*rows.rows(0, 100))
    stream.peek()  # refit at 100
    stream.push_batch(*rows.rows(100, 137))
    stream.peek()  # light
    stream.peek()  # no new rows: the recorded point, nothing folded in
    stream.push_batch(*rows.rows(137, 150))
    stream.peek()  # light
    stream.push_batch(*rows.rows(150, 230))
    stream.peek()  # refit at 200 rescores all 230 rows
    stream.push_batch(*rows.rows(230, 231))
    stream.peek()  # light, one row
    assert log.calls == [("centred", 100), ("add", 37), ("add", 13), ("centred", 230), ("add", 1)]


# -- the 1x1 solve against the matrix path ---------------------------------
#
# At d = 1 the helpers work on scalars: |a| for the singular values, -b / a
# for the solve, 1 / a for the inverse and a clamp at 0 for the PSD
# projection. The oracle is the matrix path they replaced, np.linalg on the
# same 1x1 arrays. One LAPACK build may compute it differently from another,
# so the oracle is computed when the tests run, never frozen.

def matrix_min_max_singular(mat):
    svals = np.linalg.svd(mat, compute_uv=False)
    return float(svals.min()), float(svals.max())


def matrix_solve_linear(mean_a, mean_b, context):
    smin, _ = matrix_min_max_singular(mean_a)
    if smin <= crossfit.SINGULAR_TOL:
        raise IdentificationError(
            f"{context}: Jacobian is numerically singular "
            f"(smallest singular value {smin:.3e} <= {crossfit.SINGULAR_TOL:.0e})",
            smallest_singular_value=smin,
        )
    return np.linalg.solve(mean_a, -mean_b)


def matrix_project_psd(mat):
    sym = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals.min() < 0.0:
        eigvals = np.clip(eigvals, 0.0, None)
        sym = (eigvecs * eigvals) @ eigvecs.T
        sym = 0.5 * (sym + sym.T)
    return sym


MATRIX_PATH = {
    "_min_max_singular": matrix_min_max_singular,
    "_solve": lambda mean_a, mean_b: np.linalg.solve(mean_a, -mean_b),
    "_inverse": np.linalg.inv,
    "_project_psd": matrix_project_psd,
}


def outcome(fn, *args):
    """What a helper returns or raises, with any RuntimeWarning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return fn(*args)
        except (ArithmeticError, ValueError, RuntimeWarning, IdentificationError) as exc:
            return exc


def same_outcome(got, want) -> bool:
    """Equal values with the same sign of zero (NaN matches NaN), or the
    same exception: type, message and smallest singular value."""
    if isinstance(want, Exception):
        return (type(got) is type(want) and str(got) == str(want)
                and same_float(getattr(got, "smallest_singular_value", 0.0),
                               getattr(want, "smallest_singular_value", 0.0)))
    if isinstance(want, tuple):
        return isinstance(got, tuple) and all(map(same_float, got, want))
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and all(map(same_float, got.ravel(), want.ravel()))


def same_float(x, y) -> bool:
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e300, -1e-300,
    1e-100, -1e100, math.nextafter(1e-100, 0.0), math.nextafter(1e100, math.inf), 1e-140, 1e140,
    SINGULAR_TOL, -SINGULAR_TOL, math.nextafter(SINGULAR_TOL, 0.0),
    math.nextafter(SINGULAR_TOL, 1.0), -math.nextafter(SINGULAR_TOL, 1.0),
]


def helper_inputs():
    """20 000 random (a, b) pairs with magnitudes e^-20..e^20 of both signs,
    then every pair of edge values."""
    rng = np.random.default_rng(41)
    signs = rng.choice([-1.0, 1.0], size=(2, 20_000))
    a, b = signs * np.exp(rng.uniform(-20.0, 20.0, size=(2, 20_000)))
    pairs = list(zip(a.tolist(), b.tolist()))
    pairs += [(x, y) for x in EDGE_VALUES for y in EDGE_VALUES + [2.0, -3.0]]
    return pairs


def test_scalar_helpers_match_the_matrix_path():
    for a, b in helper_inputs():
        mat, vec = np.array([[a]]), np.array([b])
        for helper, oracle, args in (
            (_min_max_singular, matrix_min_max_singular, (mat,)),
            (_solve_linear, matrix_solve_linear, (mat, vec, "pooled")),
            (_project_psd, matrix_project_psd, (mat,)),
        ):
            assert same_outcome(outcome(helper, *args), outcome(oracle, *args)), (helper, a, b)
        # sandwich inverts only a Jacobian that passed the singular check.
        if not abs(a) <= SINGULAR_TOL:
            assert same_outcome(outcome(_inverse, mat), outcome(np.linalg.inv, mat)), a
    # The edges named: NaN raises as the SVD does, +-inf solves to -+0.0,
    # -0.0 passes the projection, a negative variance becomes 0.0, and a
    # Jacobian at the tolerance is singular.
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        solve_arrays(np.array([math.nan, -1.0]), np.array([1.0, 1.0]), np.arange(2) % 2, 2)
    assert same_outcome(_solve_linear(np.array([[math.inf]]), np.array([1.0]), "c"), [-0.0])
    assert same_outcome(_solve_linear(np.array([[-math.inf]]), np.array([1.0]), "c"), [0.0])
    assert same_outcome(_project_psd(np.array([[-0.0]])), [[-0.0]])
    assert same_outcome(_project_psd(np.array([[-2.5]])), [[0.0]])
    with pytest.raises(IdentificationError) as err:
        _solve_linear(np.array([[-SINGULAR_TOL]]), np.array([1.0]), "pooled")
    assert err.value.smallest_singular_value == SINGULAR_TOL


def test_subnormal_pivot_solves_to_inf_on_both_paths(monkeypatch):
    # With the tolerance at 0, a 5e-324 pivot passes the singular check.
    monkeypatch.setattr(crossfit, "SINGULAR_TOL", 0.0)
    for a, b in ((5e-324, 1.0), (-5e-324, 1.0), (5e-324, -2.0), (0.0, 1.0)):
        mat, vec = np.array([[a]]), np.array([b])
        want = outcome(matrix_solve_linear, mat, vec, "pooled")
        assert same_outcome(outcome(_solve_linear, mat, vec, "pooled"), want)
    assert same_outcome(_solve_linear(np.array([[5e-324]]), np.array([1.0]), "c"), [-math.inf])


def stream_record(estimand, variant, seed):
    """(CsPoint, DmlFit) at every peek of a stream that peeks every 25 rows."""
    config = StreamConfig(
        estimand=estimand, burn_in=100, gamma=1.5, dml_variant=variant,
        outcome_spec=FEW_ROUNDS if estimand == "plr" else None, gamma_spec=FEW_ROUNDS,
    )
    stream, record = Stream(config), []
    rows = generated_columns(estimand, 425, seed=seed)
    for n in range(100, 426, 25):
        stream.push_batch(*rows.rows(stream.n, n))
        try:
            point = stream.peek()
        except NotReadyError:
            continue
        record.append((point, stream.last_fit))
    return record


@pytest.mark.parametrize("variant", ["dml1", "dml2"])
@pytest.mark.parametrize("estimand", ESTIMANDS)
def test_every_peek_equals_the_matrix_path(estimand, variant, monkeypatch):
    seed = 43
    scalar = stream_record(estimand, variant, seed)
    with monkeypatch.context() as patch:
        for name, matrix_helper in MATRIX_PATH.items():
            patch.setattr(crossfit, name, matrix_helper)
        matrix = stream_record(estimand, variant, seed)
    assert len(scalar) >= 10
    assert scalar == matrix


@pytest.mark.parametrize("variant", ["dml1", "dml2"])
def test_d1_moments_never_call_linalg(variant, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called at d = 1")

    for name in ("svd", "solve", "inv", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(44)
    psi_a, psi_b = random_scores(rng, 300, 1)
    fold_ids = np.arange(300) % 5
    moments = ScoreMoments.centred(psi_a[:200], psi_b[:200], fold_ids[:200], 5, variant)
    moments.add(psi_a[200:], psi_b[200:], fold_ids[200:])
    fit = moments.solve(variant)
    assert fit.n == 300 and fit.sigma_sq_hat > 0
