"""Finite but extreme outcomes: every peek records finite numbers or raises
DgpError, and ``seqdml monitor`` exits 1 with a one-line failure, never a
traceback, a usage error, or the non-JSON ``NaN``/``Infinity`` tokens. The
partial-identification bounds may also end in a FitError from their
nuisance fits."""

import csv
import json

import numpy as np
import pytest

from seqdml import Stream, StreamConfig
from seqdml.cli import main
from seqdml.crossfit import _exact_add
from seqdml.errors import DgpError, FitError, NotReadyError

N, BURN_IN, EVERY = 400, 100, 100


def extreme_columns(scale: float, spikes=(), offset=0.0):
    """A 400-row ATE sample with outcomes multiplied by ``scale``, then
    shifted by ``offset``, and the outcomes of some rows replaced:
    ``spikes`` holds (row, value) pairs."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((N, 2))
    a = (rng.uniform(size=N) < 0.5).astype(float)
    y = (1.0 + X[:, 0] + a + rng.standard_normal(N)) * scale + offset
    for row, value in spikes:
        y[row] = value
    return y, a, X


INPUTS = {
    # Each probe overflowed the score's second moments or their sums.
    "near 1e154": extreme_columns(1e154),
    "near 1e300": extreme_columns(1e300),
    "three at 1.7e308": extreme_columns(1.0, [(150, 1.7e308), (151, -1.7e308), (152, 1.7e308)]),
    # Finite moments whose variance is too large to tune rho to, and whose
    # sums overflow a little later.
    "near 1e153": extreme_columns(1e153),
}


def library_path(columns, estimand, rho, gamma=1.0, errors=(DgpError,)):
    """Peek at the CLI's cadence: the points recorded, and the error (one of
    ``errors``) that ended the run, if one did."""
    stream = Stream(StreamConfig(estimand=estimand, burn_in=BURN_IN, rho=rho, gamma=gamma))
    y, a, X = columns
    for n in range(BURN_IN, N + 1, EVERY):
        stream.push_batch(y[stream.n:n], a[stream.n:n], X[stream.n:n])
        try:
            stream.peek()
        except NotReadyError:
            continue
        except errors as exc:
            return stream.peek_log, exc
    return stream.peek_log, None


def monitor(columns, tmp_path, capsys, *options):
    """``seqdml monitor`` on the columns written as a CSV: the exit code, the
    stdout records as dicts, and stderr."""
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "a", "x1", "x2"])
        for y, a, x in zip(columns[0].tolist(), columns[1].tolist(), columns[2].tolist()):
            writer.writerow([repr(y), int(a)] + [repr(v) for v in x])
    code = main(["monitor", "--input", str(path), "--burn-in", str(BURN_IN),
                 "--peek-every", str(EVERY), *options])
    out, err = capsys.readouterr()
    return code, [strict_json(line) for line in out.splitlines()], err


def strict_json(line: str) -> dict:
    def reject(token):
        raise AssertionError(f"non-JSON token {token} in {line!r}")

    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("rho", [None, 0.5])
@pytest.mark.parametrize("estimand", ["ate", "plr"])
@pytest.mark.parametrize("name", list(INPUTS))
def test_monitor_fails_cleanly(name, estimand, rho, tmp_path, capsys):
    columns = INPUTS[name]
    options = ["--estimand", estimand] + ([] if rho is None else ["--rho", str(rho)])
    code, records, err = monitor(columns, tmp_path, capsys, *options)
    points, error = library_path(columns, estimand, rho)
    if name != "near 1e153":
        assert error is not None
    if error is None:
        assert code == 0 and err == ""
        records = records[:-1]  # the summary
    else:
        assert code == 1
        assert err == f"seqdml: failure: {error}\n"
    assert "Traceback" not in err
    assert records == [p.to_record() for p in points]
    for point in points:
        assert all(np.isfinite([point.theta_hat, point.sigma_hat, point.lower, point.upper]))


@pytest.mark.parametrize("estimand", ["pate_lower", "pate_upper"])
@pytest.mark.parametrize("name", ["near 1e154", "offset by 1e7"])
def test_bounds_end_cleanly(name, estimand, tmp_path, capsys, bisection_guard):
    # Above 2**23 adjacent floats are further apart than the tolerance of the
    # bisection for the asymmetric loss's constant; near 1e154 a split gain
    # overflows Python's float power.
    columns = INPUTS["near 1e154"] if name == "near 1e154" else extreme_columns(1.0, offset=1e7)
    code, records, err = monitor(columns, tmp_path, capsys, "--estimand", estimand, "--gamma", "1.5")
    points, error = library_path(columns, estimand, None, gamma=1.5, errors=(DgpError, FitError))
    assert "Traceback" not in err
    if name == "near 1e154":
        assert code == 1 and error is not None
        assert err == f"seqdml: failure: {error}\n"
    else:
        assert code == 0 and err == "" and error is None
        assert len(points) == 4
        records = records[:-1]  # the summary
    assert records == [p.to_record() for p in points]
    for point in points:
        assert all(np.isfinite([point.theta_hat, point.sigma_hat, point.lower, point.upper]))


def test_three_spikes_fail_after_the_finite_records():
    points, error = library_path(INPUTS["three at 1.7e308"], "ate", None)
    assert [p.n for p in points] == [100]
    assert "the score is not finite" in str(error)


@pytest.mark.parametrize("rho, message", [
    (None, "rho cannot be tuned to the variance"),
    (0.5, "a sum of scores overflows floating point"),
])
def test_variance_too_large_for_rho_or_the_sums(rho, message):
    points, error = library_path(INPUTS["near 1e153"], "ate", rho)
    assert message in str(error)
    assert len(points) == (0 if rho is None else 2)


def test_a_failed_peek_leaves_the_stream_failing_alike():
    y, a, X = INPUTS["near 1e154"]
    stream = Stream(StreamConfig(estimand="ate", burn_in=BURN_IN)).push_batch(y, a, X)
    for _ in range(2):
        with pytest.raises(DgpError, match="second moments are not finite"):
            stream.peek()
    assert stream.peek_log == [] and stream.rho is None and stream.last_fit is None


def test_exact_add_overflow_is_a_data_error():
    with pytest.raises(DgpError, match="overflows"):
        _exact_add([0.0], [1.5e308, 1.5e308])
    with pytest.raises(DgpError, match="overflows"):
        _exact_add([0.0], [float("inf"), float("-inf")])
    assert _exact_add([0.0], [1.5e308, -1.5e308, 1.0]) == [1.0]
