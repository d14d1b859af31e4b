"""``seqdml monitor`` and ``seqdml diagnose`` against a stored fixture.

The fixture pins stdout, stderr, the exit code and the ``--out-dir``
artifact of every case below: seeded CSVs for all five estimands, and a
matrix of malformed inputs (field counts, blank lines, non-numeric and
non-binary cells, non-finite values, quoted fields, bad rows in the first
block and mid-file, a header-only file, a file shorter than burn-in and a
constant outcome). The CSVs are rebuilt from seeds here, so the fixture
holds only what the commands printed. Regenerate it (only when a change of
output is intended) with ``PYTHONPATH=src python tests/test_cli_golden.py``.

Each case runs in its own directory with relative paths, so messages that
name a file do not depend on where the test runs. Floats in stdout are
compared at a relative tolerance of 1e-9, as in test_estimand_table.py, so a
different BLAS build cannot make the test flake; all other text, stderr and
the exit code must be equal.
"""

import csv
import io
import json
import math
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from seqdml.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "cli_golden.json"
REL = 1e-9
PEEKS = ["--burn-in", "100", "--peek-every", "100"]


def _cell(value: float) -> str:
    return repr(float(value))


def partial_id_rows(n: int, seed: int) -> list[list[str]]:
    """Confounded assignment, X ~ U[0,1]^4, additive effect -0.5."""
    rng = np.random.default_rng([seed, 0xC1])
    mu, beta = rng.standard_normal(4), rng.standard_normal(4)
    X = rng.uniform(0.0, 1.0, size=(n, 4))
    u = rng.standard_normal(n) * (1.0 + 0.5 * np.sin(2.5 * X[:, 0]))
    y0 = X @ beta + 5.0 * u
    logits = X @ mu + 0.6 * (u > 0)
    a = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    y = np.where(a == 1, y0 - 0.5, y0)
    return [[_cell(y[i]), str(a[i])] + [_cell(v) for v in X[i]] for i in range(n)]


def late_rows(n: int, seed: int) -> list[list[str]]:
    """Randomized instrument with one-sided noncompliance, effect 3."""
    rng = np.random.default_rng([seed, 0xC2])
    beta = rng.normal(0.0, math.sqrt(0.5), 2)
    X = rng.standard_normal((n, 2))
    u = rng.standard_normal(n) * np.abs(0.5 + np.sin(X[:, 0]))
    z = (rng.uniform(size=n) < 0.4).astype(int)
    a = (2.0 * z + u > 0).astype(int)
    y = 3.0 * a + np.cos(u) * (X @ beta + u)
    return [[_cell(y[i]), str(a[i]), str(z[i])] + [_cell(v) for v in X[i]] for i in range(n)]


def ate_rows(n: int, seed: int, constant_y: float | None = None) -> list[list[str]]:
    """Linear outcome, logistic propensity, two covariates."""
    rng = np.random.default_rng([seed, 0xC3])
    X = rng.standard_normal((n, 2))
    a = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-0.5 * X[:, 0]))).astype(int)
    y = 0.5 + X @ [1.0, -0.7] + a + rng.standard_normal(n)
    if constant_y is not None:
        y = np.full(n, constant_y)
    return [[_cell(y[i]), str(a[i])] + [_cell(v) for v in X[i]] for i in range(n)]


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _header(d: int, z: bool = False) -> list[str]:
    return ["y", "a"] + (["z"] if z else []) + [f"x{j + 1}" for j in range(d)]


def _edit(text: str, line: int, new: str) -> str:
    """Replace file line ``line`` (1-based, the header is line 1)."""
    lines = text.split("\n")
    lines[line - 1] = new
    return "\n".join(lines)


def _insert(text: str, line: int, new: str) -> str:
    """Insert ``new`` so that it becomes file line ``line``."""
    lines = text.split("\n")
    lines.insert(line - 1, new)
    return "\n".join(lines)


def input_files() -> dict[str, str]:
    """File name -> contents, all rebuilt from seeds."""
    pid = _csv_text(_header(4), partial_id_rows(400, seed=31))
    late = _csv_text(_header(2, z=True), late_rows(400, seed=32))
    ate = _csv_text(_header(2), ate_rows(300, seed=33))
    files = {"pid.csv": pid, "late.csv": late, "ate.csv": ate}
    bad = {
        # line 40 falls in the first block (burn-in 100), line 170 mid-file.
        "fields_first.csv": _edit(ate, 40, "1.0,1"),
        "fields_mid.csv": _edit(ate, 170, "1.0,1,0.5,0.2,9.9"),
        "blank_mid.csv": _insert(ate, 170, ""),
        "y_text.csv": _edit(ate, 170, "oops,1,0.5,0.2"),
        "x_text.csv": _edit(ate, 170, "1.0,1,0.5,oops"),
        "a_text.csv": _edit(ate, 40, "1.0,yes,0.5,0.2"),
        "a_two.csv": _edit(ate, 170, "1.0,2,0.5,0.2"),
        "a_nan.csv": _edit(ate, 170, "1.0,nan,0.5,0.2"),
        "a_minus_zero.csv": _edit(ate, 170, "1.0,-0,0.5,0.2"),
        "y_inf.csv": _edit(ate, 170, "inf,1,0.5,0.2"),
        "x_nan.csv": _edit(ate, 40, "1.0,0,nan,0.2"),
        "quoted.csv": _edit(ate, 170, '"1.5",1,"0.5",0.2'),
        "two_bad.csv": _edit(_edit(ate, 250, "1.0,3,0.5,0.2"), 170, "1.0,1,0.5"),
        "z_text.csv": _edit(late, 170, "1.0,1,maybe,0.5,0.2"),
        "z_two.csv": _edit(late, 170, "1.0,1,2,0.5,0.2"),
        "header_only.csv": _csv_text(_header(2), []),
        "short.csv": _csv_text(_header(2), ate_rows(60, seed=34)),
        "constant_y.csv": _csv_text(_header(2), ate_rows(300, seed=35, constant_y=2.0)),
        "empty.csv": "",
        "bad_header.csv": "y,a,w1\n1.0,1,0.5\n",
    }
    files.update(bad)
    return files


def cases() -> dict[str, list[str]]:
    """Case name -> argv; monitor cases that succeed also write --out-dir."""
    out: dict[str, list[str]] = {}
    seeded = [
        ("ate", "pid.csv", []), ("plr", "pid.csv", []), ("late", "late.csv", []),
        ("pate_lower", "pid.csv", ["--gamma", "1.5"]),
        ("pate_upper", "pid.csv", ["--gamma", "1.5"]),
    ]
    for estimand, name, extra in seeded:
        base = ["--input", name, "--estimand", estimand] + extra
        out[f"monitor-{estimand}"] = ["monitor"] + base + PEEKS + ["--out-dir", f"out-{estimand}"]
        out[f"diagnose-{estimand}"] = ["diagnose"] + base
    out["monitor-ate-cadence"] = [
        "monitor", "--input", "pid.csv", "--estimand", "ate", "--burn-in", "150",
        "--peek-every", "70", "--stop-rule", "width_below", "--stop-width", "3.0",
    ]
    for name in input_files():
        if name in ("pid.csv", "late.csv"):
            continue
        estimand = "late" if name.startswith("z_") else "ate"
        base = ["--input", name, "--estimand", estimand]
        out[f"monitor-{name}"] = ["monitor"] + base + ["--burn-in", "100", "--peek-every", "50"]
        out[f"diagnose-{name}"] = ["diagnose"] + base
    out["monitor-missing.csv"] = ["monitor", "--input", "missing.csv", "--estimand", "ate"]
    out["diagnose-missing.csv"] = ["diagnose", "--input", "missing.csv", "--estimand", "ate"]
    return out


def run_case(argv: list[str], directory: Path, monkeypatch) -> dict:
    monkeypatch.chdir(directory)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--out-dir" in argv:
        artifact = directory / argv[argv.index("--out-dir") + 1] / "peeks.ndjson"
        result["peeks.ndjson"] = artifact.read_text() if artifact.exists() else None
    return result


def write_inputs(directory: Path) -> None:
    for name, text in input_files().items():
        (directory / name).write_text(text)


def compute(directory: Path, monkeypatch) -> dict:
    write_inputs(directory)
    return {name: run_case(argv, directory, monkeypatch) for name, argv in cases().items()}


_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def assert_text_close(got: str | None, want: str | None, where: str) -> None:
    """Same text apart from numbers, which must agree up to REL."""
    if want is None or got is None:
        assert got == want, where
        return
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), f"{where}:\n{got}"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2:
            assert float(g) == pytest.approx(float(w), rel=REL), f"{where}: {g} != {w}"
        else:
            assert g == w, f"{where}: {g!r} != {w!r}"


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    write_inputs(directory)
    return directory


def test_fixture_names_every_case(expected):
    assert list(expected) == list(cases())


@pytest.mark.parametrize("name", list(cases()))
def test_case_matches_fixture(name, expected, inputs, monkeypatch):
    got = run_case(cases()[name], inputs, monkeypatch)
    want = expected[name]
    assert got["code"] == want["code"], got["stderr"]
    assert got["stderr"] == want["stderr"]
    assert "Traceback" not in got["stderr"]
    assert_text_close(got["stdout"], want["stdout"], f"{name} stdout")
    if "peeks.ndjson" in want:
        assert_text_close(got["peeks.ndjson"], want["peeks.ndjson"], f"{name} peeks.ndjson")


if __name__ == "__main__":
    import tempfile

    class _Chdir:
        """The one monkeypatch method run_case uses, outside pytest."""

        chdir = staticmethod(os.chdir)

    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            result = compute(Path(tmp), _Chdir())
        finally:
            os.chdir(here)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
