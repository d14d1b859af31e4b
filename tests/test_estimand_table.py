"""Every estimand's stream and diagnose output against a stored fixture.

The fixture pins, for each of the five estimands on a small seeded stream,
the full peek log, the holdout RMSE trajectories, the clip-event count and
the out-of-fold nuisance evaluations, plus the ``seqdml diagnose`` stdout on
a small seeded CSV. Regenerate it (only when a change of output is intended)
with ``PYTHONPATH=src python tests/test_estimand_table.py``.

Floats are compared at a relative tolerance of 1e-9, so a different BLAS
build cannot make the test flake while any real change of output still
fails it.
"""

import csv
import dataclasses
import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from seqdml import LearnerSpec, Stream, StreamConfig
from seqdml.cli import main
from seqdml.engine import ESTIMANDS
from seqdml.errors import NotReadyError

from conftest import generated_columns

FIXTURE = Path(__file__).parent / "fixtures" / "estimand_table.json"
REL = 1e-9
FEW_ROUNDS = LearnerSpec(kind="gbt", n_rounds=10)


def stream_outputs(estimand: str) -> dict:
    """Peek every 50 rows of a 400-row stream (refits at 100, 200 and 400)."""
    config = StreamConfig(
        estimand=estimand,
        burn_in=100,
        gamma=1.5,
        epsilon=0.2,  # large enough that the clip counter sees events
        outcome_spec=FEW_ROUNDS if estimand == "plr" else None,
        gamma_spec=FEW_ROUNDS,
    )
    stream = Stream(config)
    deferred = []
    columns = generated_columns(estimand, 400, seed=21)
    for n in range(100, 401, 50):
        stream.push_batch(*columns.rows(stream.n, n))
        try:
            stream.peek()
        except NotReadyError:
            deferred.append(n)
    return {
        "peek_log": [p.to_record() for p in stream.peek_log],
        "deferred": deferred,
        "holdout_rmse": {k: [list(t) for t in v] for k, v in stream.holdout_rmse.items()},
        "clip_events": stream.clip_events,
        "nuisance_evals": [
            {k: v for k, v in dataclasses.asdict(ev).items() if v is not None}
            for ev in stream.nuisance_evals()
        ],
    }


def diagnose_stdout(estimand: str, directory: Path) -> str:
    path = directory / f"{estimand}.csv"
    columns = generated_columns(estimand, 300, seed=22)
    has_z = estimand == "late"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        d = columns.X.shape[1]
        writer.writerow(["y", "a"] + (["z"] if has_z else []) + [f"x{j + 1}" for j in range(d)])
        for i, (y, a, x) in enumerate(zip(columns.y.tolist(), columns.a.tolist(), columns.X.tolist())):
            z = [int(columns.z[i])] if has_z else []
            writer.writerow([repr(y), int(a)] + z + [repr(v) for v in x])
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["diagnose", "--input", str(path), "--estimand", estimand, "--gamma", "1.5"])
    assert code == 0
    return buffer.getvalue()


def compute(directory: Path) -> dict:
    return {
        "stream": {est: stream_outputs(est) for est in ESTIMANDS},
        "diagnose": {est: diagnose_stdout(est, directory) for est in ESTIMANDS},
    }


_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def assert_close(got, want, where: str = "") -> None:
    """Equal structure and text; floats equal up to REL."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=REL), where
    else:
        assert type(got) is type(want) and got == want, where


def assert_text_close(got: str, want: str, where: str) -> None:
    """Same text apart from numbers, which must agree up to REL."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), f"{where}:\n{got}"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2:
            assert float(g) == pytest.approx(float(w), rel=REL), f"{where}: {g} != {w}"
        else:
            assert g == w, f"{where}: {g!r} != {w!r}"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return compute(tmp_path_factory.mktemp("estimand_table"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("estimand", ESTIMANDS)
def test_stream_outputs_match_fixture(outputs, expected, estimand):
    got = outputs["stream"][estimand]
    want = expected["stream"][estimand]
    assert got["peek_log"], "the stream must have peeked"
    # Round-trip through JSON so tuples and lists compare alike.
    assert_close(json.loads(json.dumps(got)), want, estimand)


@pytest.mark.parametrize("estimand", ESTIMANDS)
def test_diagnose_stdout_matches_fixture(outputs, expected, estimand):
    got = outputs["diagnose"][estimand]
    assert "identification: pass" in got
    assert_text_close(got, expected["diagnose"][estimand], estimand)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = compute(Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
