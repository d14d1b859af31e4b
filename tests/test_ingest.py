"""The column ingest path: ``Stream.push_batch`` against per-row pushes, the
CLI's block reader against its per-row parser, and the simulated columns
against the per-row ``Observation`` generators they replace."""

import csv
import itertools
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
from seqdml import cli
from seqdml.cli import _DataFailure, _parse_lines, _read_blocks, _row_values
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


# -- the CLI's block reader against the per-row parser ----------------------

# Cells for the corpus: numbers in forms only float() reads, non-numbers,
# non-finite and non-binary values, and the ASCII separators \x1c-\x1f that
# np.loadtxt strips around a number and float() refuses.
TOKENS = ["", "oops", "nan", "NaN", "inf", "-inf", "2", "-0", "0.5", "1e0", " 1", "1_0",
          "0x1", "-1", "True", "1.0", "0", "1", "1e400", "-2.5e-3", "0.0", "+1",
          "１", "1e5_0", "\t-0.0 ", "\xa00.5", "1\x1c", "\x1f0", '"0.5"', '"1"', '"x"']


def clean_row(rng, n_cols):
    row = [repr(float(rng.normal())), str(int(rng.integers(0, 2))), str(int(rng.integers(0, 2)))]
    row += [repr(float(v)) for v in rng.normal(size=n_cols - 3)]
    return row[:n_cols]


def corrupted_rows(rng, count, n_cols):
    rows = []
    for _ in range(count):
        row = clean_row(rng, n_cols)
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
        return _row_values(next(csv.reader([",".join(row)])), 7, n_cols, has_z)
    except _DataFailure:
        return None


def bits(values):
    """Equal bit patterns for equal values: -0.0 and NaN count."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("has_z", [False, True])
def test_block_parse_accepts_only_rows_the_parser_accepts(has_z):
    n_cols = 5 if has_z else 4
    rng = np.random.default_rng(64 + has_z)
    rows = corrupted_rows(rng, 4000, n_cols)
    accepted = rejected = 0
    for row in rows:
        want = per_row(row, n_cols, has_z)
        got = _parse_lines([",".join(row) + "\n"], n_cols, has_z)
        if got is not None:
            assert want is not None, row
            assert bits(got) == bits([want]), row
            accepted += 1
        rejected += want is None
    assert 500 < rejected < 3500
    assert accepted > 2000
    # A block is accepted only when each of its rows is.
    for start in range(0, 4000, 37):
        chunk = rows[start:start + int(rng.integers(1, 40))]
        got = _parse_lines([",".join(row) + "\r\n" for row in chunk], n_cols, has_z)
        if got is not None:
            assert bits(got) == bits([per_row(row, n_cols, has_z) for row in chunk])


def oracle_blocks(path, n_cols, has_z, next_peek):
    """The row parser alone: CSV records, in blocks that end where the
    reader's do, each parsed with _row_values."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        n = 0
        while True:
            size = min(next_peek(n) - n, cli._BLOCK_ROWS)
            # Each record is named by the physical line it ends on.
            rows = [(row, reader.line_num) for row in itertools.islice(reader, size)]
            if not rows:
                return
            yield np.array([_row_values(row, line, n_cols, has_z) for row, line in rows])
            n += len(rows)


def outcome(blocks):
    """The blocks that ``blocks`` yields, and the error that ended it as
    (type, message), or None."""
    got = []
    try:
        for block in blocks:
            got.append(block)
    except _DataFailure as exc:
        return got, (type(exc), str(exc))
    return got, None


def random_file(rng, path, n_cols, has_z):
    """A CSV with one random line ending, and at a random rate blank and
    whitespace-only lines, multi-line quoted records and corrupted_rows; the
    final newline is sometimes missing."""
    eol = str(rng.choice(["\n", "\r\n", "\r"]))
    header = ["y", "a"] + (["z"] if has_z else []) + [f"x{j + 1}" for j in range(n_cols - 2 - has_z)]
    lines = [",".join(header)]
    rate = rng.choice([0.0, 0.002, 0.02, 0.2])
    for _ in range(int(rng.integers(1, 300))):
        row = clean_row(rng, n_cols)
        kind = rng.uniform() / rate if rate else 1.0
        if kind < 0.05:
            lines.append(str(rng.choice(["", "  ", "\t"])))
        elif kind < 0.1:
            # float() strips the newline, so the record stays valid.
            row[-1] = f'"{row[-1]}\n"'
        elif kind < 1.0:
            row = corrupted_rows(rng, 1, n_cols)[0]
        lines.append(",".join(row))
    text = eol.join(lines) + (eol if rng.uniform() < 0.8 else "")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return text


@pytest.mark.filterwarnings("error")  # loadtxt warns on a block of blank lines
@pytest.mark.parametrize("has_z", [False, True])
def test_the_block_reader_equals_the_row_parser(has_z, tmp_path, monkeypatch):
    n_cols = 5 if has_z else 4
    estimand = "late" if has_z else "ate"
    rng = np.random.default_rng(66 + has_z)
    parse_lines, refused = cli._parse_lines, []

    def counted(*args):
        values = parse_lines(*args)
        refused.append(values is None)
        return values

    monkeypatch.setattr(cli, "_parse_lines", counted)
    outcomes = []
    for trial in range(300):
        path = tmp_path / f"{trial}.csv"
        quoted = '\n"' in random_file(rng, path, n_cols, has_z)
        burn_in, cadence = int(rng.integers(1, 50)), int(rng.integers(1, 50))

        def next_peek(n):
            return burn_in if n < burn_in else n + cadence - (n - burn_in) % cadence

        # Small blocks also exercise the cap on a block's rows.
        monkeypatch.setattr(cli, "_BLOCK_ROWS", int(rng.choice([7, 4096])))
        got, got_error = outcome(
            np.column_stack([y, a, *([] if z is None else [z]), X])
            for y, a, X, z in _read_blocks(str(path), estimand, next_peek)
        )
        want, want_error = outcome(oracle_blocks(path, n_cols, has_z, next_peek))
        assert got_error == want_error, path.read_text()[:2000]
        assert list(map(bits, got)) == list(map(bits, want))
        outcomes.append((want_error is None, quoted))
    # Both paths ran, and files were read to the end, some with multi-line records.
    assert 0 < sum(refused) < len(refused)
    assert 10 < sum(done for done, _ in outcomes) < 290
    assert any(done and quoted for done, quoted in outcomes)


@pytest.mark.parametrize("estimand", ESTIMANDS)
def test_repr_written_files_never_reach_the_row_parser(estimand, tmp_path, monkeypatch, capsys):
    # The benchmark's and the golden fixtures' format: csv.writer, CRLF
    # lines, repr(float) outcomes and covariates, 0/1 treatment and instrument.
    columns = generated_columns(estimand, 700, 68)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        d = columns.X.shape[1]
        has_z = columns.z is not None
        writer.writerow(["y", "a"] + ["z"] * has_z + [f"x{j + 1}" for j in range(d)])
        z = columns.z if has_z else [None] * len(columns.y)
        for y, a, zi, x in zip(columns.y.tolist(), columns.a.tolist(), z, columns.X.tolist()):
            writer.writerow([repr(y), int(a)] + ([int(zi)] if has_z else []) + [repr(v) for v in x])
    row_values, lines = cli._row_values, []

    def counted(row, lineno, *args):
        lines.append(lineno)
        return row_values(row, lineno, *args)

    monkeypatch.setattr(cli, "_row_values", counted)
    code = cli.main(["monitor", "--input", str(path), "--estimand", estimand,
                     "--burn-in", "100", "--peek-every", "25", "--gamma", "1.5"])
    capsys.readouterr()
    assert code == 0 and lines == []


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
