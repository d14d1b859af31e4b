"""The column ingest path: ``Stream.push_batch`` against per-row pushes, the
CLI's vectorised block check against its per-row parser, and the simulated
columns against the per-row ``Observation`` generators they replace."""

import math

import numpy as np
import pytest

from seqdml import (
    LateDgpParams,
    LearnerSpec,
    Observation,
    PartialIdDgpParams,
    Stream,
    StreamConfig,
    gen_late,
    gen_partial_id,
)
from seqdml.cli import _DataFailure, _parse_block, _row_values
from seqdml.engine import ESTIMANDS
from seqdml.errors import IngestError, NotReadyError, ParameterError

from conftest import generated_columns

FEW_ROUNDS = LearnerSpec(kind="gbt", n_rounds=10)


def observations_of(columns):
    z = [None] * len(columns.y) if columns.z is None else [int(v) for v in columns.z]
    return [
        Observation(y=y, a=int(a), x=tuple(x), z=zi)
        for y, a, x, zi in zip(columns.y.tolist(), columns.a.tolist(), columns.X.tolist(), z)
    ]


# -- push_batch against per-row push ----------------------------------------

def random_plan(rng, n):
    """Peek sizes from 100 to n at random gaps of 10-90 rows, so some gaps
    straddle a refit (at 100, 200 and 400), and for each gap the sizes of
    the blocks that fill it, some of them a single row."""
    peeks = [100]
    while peeks[-1] < n:
        peeks.append(min(n, peeks[-1] + int(rng.integers(10, 91))))
    blocks, start = [], 0
    for stop in peeks:
        sizes = []
        while start < stop:
            size = min(stop - start, int(rng.choice([1, int(rng.integers(1, 60))])))
            sizes.append(size)
            start += size
        blocks.append(sizes)
    return peeks, blocks


def run_stream(estimand, pushes, peeks):
    """Peek a stream at ``peeks`` after each call of ``pushes[j](stream)``;
    return (peek, fit) pairs and the stream."""
    config = StreamConfig(
        estimand=estimand, burn_in=100, gamma=1.5,
        outcome_spec=FEW_ROUNDS if estimand == "plr" else None, gamma_spec=FEW_ROUNDS,
    )
    stream, record = Stream(config), []
    for push, n in zip(pushes, peeks):
        push(stream)
        assert stream.n == n
        try:
            record.append((stream.peek(), stream.last_fit))
        except NotReadyError:
            record.append(None)
    return record, stream


@pytest.mark.parametrize("estimand", ESTIMANDS)
def test_blocks_of_random_sizes_equal_per_row_pushes(estimand):
    seed = 61
    columns = generated_columns(estimand, 430, seed)
    rows = observations_of(columns)
    peeks, blocks = random_plan(np.random.default_rng(seed), 430)

    def per_row(start, stop):
        def push(stream):
            for obs in rows[start:stop]:
                stream.push(obs)
        return push

    def in_blocks(start, sizes):
        def push(stream):
            lo = start
            for size in sizes:
                stream.push_batch(*columns.rows(lo, lo + size))
                lo += size
        return push

    starts = [0] + peeks[:-1]
    want, oracle = run_stream(estimand, [per_row(a, b) for a, b in zip(starts, peeks)], peeks)
    got, stream = run_stream(
        estimand, [in_blocks(a, sizes) for a, sizes in zip(starts, blocks)], peeks
    )
    assert any(len(sizes) > 1 for sizes in blocks)
    assert any(a < t < b for t in (200, 400) for a, b in zip(peeks, peeks[1:]))
    assert sum(r is not None for r in want) >= 6
    assert got == want
    # The row table: y, a, z (NaN without an instrument), then x, as the
    # per-row append stored them.
    z = np.full(430, np.nan) if columns.z is None else columns.z
    table = np.column_stack([columns.y, columns.a, z, columns.X])
    assert np.array_equal(stream._rows.view(), table, equal_nan=True)
    assert np.array_equal(oracle._rows.view(), table, equal_nan=True)


# -- push_batch checks -------------------------------------------------------

def block(n=5, d=2, **changes):
    rng = np.random.default_rng(63)
    cols = {"y": rng.normal(size=n), "a": np.arange(n) % 2.0, "X": rng.normal(size=(n, d)),
            "z": None}
    cols.update(changes)
    return cols


@pytest.mark.parametrize("changes, message", [
    ({"a": [0.0, 1.0, 2.0, 1.0, 0.0]}, "row 2: treatment a must be 0 or 1, got 2.0"),
    ({"a": [0.0, 1.0, 1.0, np.nan, 0.0]}, "row 3: treatment a must be 0 or 1, got nan"),
    ({"z": [0.0, 1.0, 1.0, 0.0, -1.0]}, "row 4: instrument z must be 0 or 1, got -1.0"),
    ({"y": [0.0, np.inf, 1.0, 0.0, 1.0]}, "row 1: outcome y must be finite, got inf"),
    ({"X": [[0.0, 1.0], [1.0, 1.0], [np.nan, 1.0], [0.0, 0.0], [0.0, 0.0]]},
     "row 2: covariates must be finite"),
    # The first bad row is named, and within a row a, z, x and y are checked in that order.
    ({"a": [0.0, 1.0, 1.0, 0.5, 0.0], "y": [np.nan] * 5}, "row 0: outcome y must be finite, got nan"),
    ({"a": [1.0, 3.0, 1.0, 0.0, 0.0], "z": [1.0, 3.0, 1.0, 0.0, 0.0], "y": [np.inf] * 5},
     "row 0: outcome y must be finite, got inf"),
    ({"a": [1.0, 3.0, 1.0, 0.0, 0.0], "z": [1.0, 3.0, 1.0, 0.0, 0.0]},
     "row 1: treatment a must be 0 or 1, got 3.0"),
    ({"X": np.zeros((5, 0))}, "row 0: covariates x must have at least one entry"),
    ({"a": [0.0, 1.0]}, "one value and X one row per observation"),
    ({"X": np.zeros(5)}, "one value and X one row per observation"),
])
def test_push_batch_names_the_first_bad_row(changes, message):
    stream = Stream(StreamConfig(estimand="ate"))
    stream.push_batch(**block(n=3))
    with pytest.raises(ParameterError) as err:
        stream.push_batch(**block(**changes))
    assert message in str(err.value)
    assert stream.n == 3  # nothing of the bad block was appended


def test_push_batch_ingest_errors():
    late = Stream(StreamConfig(estimand="late"))
    with pytest.raises(IngestError, match="requires an instrument z on every row"):
        late.push_batch(**block())
    stream = Stream(StreamConfig(estimand="ate")).push_batch(**block(d=2))
    with pytest.raises(IngestError, match="covariate dimension changed from 2 to 3"):
        stream.push_batch(**block(d=3))
    assert stream.n == 5


def test_empty_block_does_nothing():
    stream = Stream(StreamConfig(estimand="late"))
    stream.push_batch([], [], np.zeros((0, 2)))
    assert stream.n == 0 and stream._rows is None


def test_minus_zero_is_stored_as_zero():
    stream = Stream(StreamConfig(estimand="ate")).push_batch(**block(
        a=np.array([-0.0, 1.0, -0.0, 1.0, 0.0]), z=np.array([-0.0] * 5)))
    for column in (1, 2):
        values = stream._rows.view()[:, column]
        assert all(math.copysign(1.0, v) == 1.0 for v in values.tolist())


# -- the CLI's vectorised block check against the per-row parser -------------

TOKENS = ["", "oops", "nan", "NaN", "inf", "-inf", "2", "-0", "0.5", "1e0", " 1", "1_0",
          "0x1", "-1", "True", "1.0", "0", "1", "1e400", "-2.5e-3", "0.0", "+1"]


def corrupted_rows(rng, count, n_cols):
    rows = []
    for _ in range(count):
        row = [repr(float(rng.normal())), str(int(rng.integers(0, 2))), str(int(rng.integers(0, 2)))]
        row += [repr(float(v)) for v in rng.normal(size=n_cols - 3)]
        row = row[:n_cols]
        for _ in range(int(rng.choice([0, 0, 1, 2]))):
            row[int(rng.integers(0, n_cols))] = str(rng.choice(TOKENS))
        change = rng.uniform()
        if change < 0.03:
            row = row[:-1]
        elif change < 0.06:
            row = row + ["0.1"]
        elif change < 0.07:
            row = []
        rows.append(row)
    return rows


def per_row(row, n_cols, has_z):
    try:
        return _row_values(row, 7, n_cols, has_z)
    except _DataFailure:
        return None


@pytest.mark.parametrize("has_z", [False, True])
def test_block_check_rejects_exactly_the_rows_the_parser_rejects(has_z):
    n_cols = 5 if has_z else 4
    rng = np.random.default_rng(64 + has_z)
    rows = corrupted_rows(rng, 4000, n_cols)
    rejected = 0
    for row in rows:
        want = per_row(row, n_cols, has_z)
        got = _parse_block([row], n_cols, has_z)
        assert (got is None) == (want is None), row
        if want is None:
            rejected += 1
        else:
            assert got.tolist() == [[float(v) for v in want]], row
    assert 500 < rejected < 3500
    # A block is accepted exactly when each of its rows is.
    for start in range(0, 4000, 37):
        chunk = rows[start:start + int(rng.integers(1, 40))]
        got = _parse_block(chunk, n_cols, has_z)
        want = [per_row(row, n_cols, has_z) for row in chunk]
        assert (got is None) == any(w is None for w in want)
        if got is not None:
            assert got.tolist() == [[float(v) for v in w] for w in want]


# -- simulated columns against the per-row generators ------------------------

def old_gen_partial_id(n, params, seed):
    """The per-row generator that sim.gen_partial_id replaced."""
    rng = np.random.default_rng(seed)
    mu = np.asarray(params.mu)
    beta = np.asarray(params.beta)
    X = rng.uniform(0.0, 1.0, size=(n, params.d))
    u_scale = 1.0 + 0.5 * np.sin(2.5 * X[:, 0])
    u = rng.standard_normal(n) * u_scale
    y0 = X @ beta + 5.0 * u
    y1 = y0 + params.tau
    logits = params.alpha0 + X @ mu + math.log(params.gamma_data) * (u > 0)
    p_treat = 1.0 / (1.0 + np.exp(-logits))
    a = (rng.uniform(size=n) < p_treat).astype(int)
    y = np.where(a == 1, y1, y0)
    return [Observation(y=float(y[i]), a=int(a[i]), x=tuple(X[i])) for i in range(n)]


def old_gen_late(n, params, seed):
    """The per-row generator that sim.gen_late replaced."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(params.beta)
    X = rng.standard_normal((n, params.d))
    u = rng.standard_normal(n) * np.abs(0.5 + np.sin(X[:, 0]))
    z = (rng.uniform(size=n) < params.p_instrument).astype(int)
    a = (params.alpha_z * z + u > 0).astype(int)
    y = params.theta * a + np.cos(u) * (X @ beta + u)
    return [
        Observation(y=float(y[i]), a=int(a[i]), x=tuple(X[i]), z=int(z[i]))
        for i in range(n)
    ]


@pytest.mark.parametrize("dgp", ["late", "partial_id"])
@pytest.mark.parametrize("seed", [0, 5, [7, 3]])
def test_generated_columns_equal_the_observations(dgp, seed):
    if dgp == "late":
        params = LateDgpParams.from_seed(11)
        columns, _ = gen_late(700, params, seed=seed)
        rows = old_gen_late(700, params, seed)
    else:
        params = PartialIdDgpParams.from_seed(12)
        columns, _ = gen_partial_id(700, params, seed=seed)
        rows = old_gen_partial_id(700, params, seed)
    assert all(c.dtype == np.float64 for c in columns if c is not None)
    assert np.array_equal(columns.y, [obs.y for obs in rows])
    assert np.array_equal(columns.a, [float(obs.a) for obs in rows])
    assert np.array_equal(columns.X, [obs.x for obs in rows])
    if dgp == "late":
        assert np.array_equal(columns.z, [float(obs.z) for obs in rows])
    else:
        assert columns.z is None
