"""Command-line front end: simulate the benchmark experiments, monitor a CSV
stream, run diagnostics on a dataset, or summarize a results directory.

Configuration precedence is flags > config file (flat ``key = value`` lines)
> defaults. Exit codes: 0 success, 1 runtime/data failure, 2 usage/config
failure. The only environment variable honored is SEQDML_OUT_DIR (default
output directory when --out-dir is absent).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .crossfit import _check_identification_bounds, identification_diagnostics
from .engine import _TABLE, Stream, StreamConfig, StopRule, _binary
from .errors import (
    EstimandError,
    IngestError,
    NotReadyError,
    ParameterError,
    SeqdmlError,
)
# Unused here; the benchmark's tracer wraps these names on this module.
from .scores import aipw_score, gateaux_orthogonality_check  # noqa: F401
from .scores import late_score, partial_id_score, plr_score  # noqa: F401
from . import sim

ENV_OUT_DIR = "SEQDML_OUT_DIR"
DEFAULT_OUT_DIR = "seqdml_results"


class _DataFailure(SeqdmlError):
    """Runtime/data failure (exit code 1)."""


_USAGE_ERRORS = (ParameterError, EstimandError, IngestError)

# (type, default) for every configurable key, per command. Config files may
# set any of these; unknown keys are rejected.
_SCHEMAS: dict[str, dict[str, tuple]] = {
    "simulate": {
        "dgp": (str, None),
        "mode": (str, None),
        "reps": (int, None),  # coverage mode only; unset means 200
        "n_max": (int, 5000),
        "peek_every": (int, 250),
        "burn_in": (int, None),
        "alpha": (float, 0.05),
        "seed": (int, 0),
        "gamma": (float, None),  # partial-id only; unset means exp(0.6), or 1 in coverage
        "tau": (float, None),  # partial-id only; unset means -0.5
        "k_folds": (int, None),  # band mode only; unset means 5
        "out_dir": (str, None),
    },
    "monitor": {
        "input": (str, None),
        "estimand": (str, None),
        "alpha": (float, 0.05),
        "burn_in": (int, 100),
        "peek_every": (int, 100),
        "k_folds": (int, 5),
        "gamma": (float, 1.0),
        "seed": (int, 0),  # accepted but changes nothing: monitoring draws no random numbers
        "rho": (float, None),
        "stop_rule": (str, None),
        "stop_width": (float, None),
        "out_dir": (str, None),
    },
    "diagnose": {
        "input": (str, None),
        "estimand": (str, None),
        "alpha": (float, 0.05),
        "k_folds": (int, 5),
        "gamma": (float, 1.0),
        "seed": (int, 0),  # accepted but changes nothing: diagnosing draws no random numbers
        "c0": (float, 0.05),
        "c1": (float, 100.0),
    },
    "report": {
        "out_dir": (str, None),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdml",
        description="Anytime-valid confidence sequences for DML estimands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_schema_flags(p: argparse.ArgumentParser, command: str):
        for key, (typ, _default) in _SCHEMAS[command].items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=typ, default=None)
        p.add_argument("--config", type=str, default=None)

    add_schema_flags(sub.add_parser("simulate", help="run a benchmark experiment"), "simulate")
    add_schema_flags(
        sub.add_parser("monitor", help="stream a CSV file and emit peeks as NDJSON"), "monitor"
    )
    add_schema_flags(
        sub.add_parser("diagnose", help="run identification and orthogonality diagnostics"),
        "diagnose",
    )
    add_schema_flags(sub.add_parser("report", help="summarize a results directory"), "report")
    return parser


# Keys that must be present after merging flags, config file and defaults.
_REQUIRED = {
    "simulate": ("dgp",),
    "monitor": ("input", "estimand"),
    "diagnose": ("input", "estimand"),
    "report": ("out_dir",),
}


def _read_config_file(path: str, schema: dict[str, tuple]) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in schema:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        typ = schema[key][0]
        try:
            values[key] = typ(value)
        except ValueError:
            raise ParameterError(f"{path}:{lineno}: cannot parse {value!r} as {typ.__name__}")
    return values


def _merged_options(args: argparse.Namespace) -> dict:
    """flags > config file > defaults."""
    schema = _SCHEMAS[args.command]
    merged = {key: default for key, (_typ, default) in schema.items()}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config, schema))
    for key in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    missing = [k for k in _REQUIRED[args.command] if merged.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ParameterError(f"missing required option(s): {flags}")
    if merged.get("peek_every", 1) < 1:
        raise ParameterError(f"--peek-every must be >= 1, got {merged['peek_every']}")
    return merged


def _resolve_out_dir(value: str | None) -> Path:
    if value is None:
        value = os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR)
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _validate_header(header: list[str]) -> tuple[bool, int]:
    """Check the exact column layout y, a, [z,] x1..xd; return (has_z, d)."""
    cols = [c.strip() for c in header]
    if len(cols) < 3 or cols[0] != "y" or cols[1] != "a":
        raise IngestError(
            "CSV header must start with columns 'y', 'a' "
            f"(optionally 'z'), then x1..xd; got {cols}"
        )
    has_z = cols[2] == "z"
    x_cols = cols[3:] if has_z else cols[2:]
    expected = [f"x{i + 1}" for i in range(len(x_cols))]
    if not x_cols or x_cols != expected:
        raise IngestError(f"covariate columns must be named x1..xd in order; got {x_cols}")
    return has_z, len(x_cols)


def _parse_binary(value: str, what: str, lineno: int) -> int:
    try:
        num = float(value)
    except ValueError:
        raise _DataFailure(f"line {lineno}: {what} value {value!r} is not numeric")
    if num not in (0.0, 1.0):
        raise _DataFailure(f"line {lineno}: {what} must be 0 or 1, got {value}")
    return int(num)


def _needs_z(estimand: str) -> bool:
    # An unknown estimand is reported later, when the stream is configured.
    return estimand in _TABLE and _TABLE[estimand].needs_z


# At most this many rows are parsed at once, so memory does not grow with
# the peek cadence.
_BLOCK_ROWS = 4096


def _row_values(row: list[str], lineno: int, n_cols: int, has_z: bool) -> list[float]:
    """One row's cells as floats, in file order; the first problem with the
    row, in the order field count, y and x numeric, a, z, x finite, y
    finite, raises _DataFailure naming its line."""
    if len(row) != n_cols:
        raise _DataFailure(f"line {lineno}: expected {n_cols} fields, got {len(row)}")
    try:
        y = float(row[0])
        x = [float(v) for v in (row[3:] if has_z else row[2:])]
    except ValueError as exc:
        raise _DataFailure(f"line {lineno}: {exc}")
    a = _parse_binary(row[1], "a", lineno)
    z = [_parse_binary(row[2], "z", lineno)] if has_z else []
    if not all(math.isfinite(v) for v in x):
        raise _DataFailure(f"line {lineno}: covariates must be finite")
    if not math.isfinite(y):
        raise _DataFailure(f"line {lineno}: outcome y must be finite, got {y}")
    return [y, a, *z, *x]


def _parse_block(rows: list[list[str]], n_cols: int, has_z: bool) -> np.ndarray | None:
    """The rows' cells as a (rows, n_cols) float array when every row is
    valid, else None: one vectorised check of what _row_values checks."""
    if set(map(len, rows)) != {n_cols}:
        return None
    try:
        values = np.array(list(map(float, itertools.chain.from_iterable(rows))))
    except ValueError:
        return None
    values = values.reshape(len(rows), n_cols)
    if not (_binary(values[:, 1 : 3 if has_z else 2]).all() and np.isfinite(values).all()):
        return None
    return values


def _read_blocks(path: str, estimand: str, next_peek=None) -> Iterator[tuple]:
    """Yield the CSV's rows in file order as ``(y, a, X, z)`` float columns
    (z None without a 'z' column), a block at a time.

    A block ends at the row count ``next_peek(rows read so far)`` when that
    is given, and holds at most _BLOCK_ROWS rows. A block that fails the
    vectorised check is parsed row by row, which reports the first bad row
    with its line number.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise _DataFailure(f"cannot read {path}: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError(f"{path} is empty; a header row is required")
            has_z, d = _validate_header(header)
            if _needs_z(estimand) and not has_z:
                raise EstimandError(f"the {estimand} estimand requires a 'z' column")
            n_cols = 2 + (1 if has_z else 0) + d
            x_start = 3 if has_z else 2
            n = 0
            while True:
                size = _BLOCK_ROWS if next_peek is None else min(next_peek(n) - n, _BLOCK_ROWS)
                rows = list(itertools.islice(reader, size))
                if not rows:
                    return
                values = _parse_block(rows, n_cols, has_z)
                if values is None:
                    values = np.array([
                        _row_values(row, n + 2 + i, n_cols, has_z) for i, row in enumerate(rows)
                    ])
                del rows  # the cells' strings are not needed past here
                n += len(values)
                yield values[:, 0], values[:, 1], values[:, x_start:], values[:, 2] if has_z else None
        except UnicodeDecodeError as exc:
            raise _DataFailure(
                f"{path} is not {exc.encoding} text: byte 0x{exc.object[exc.start]:02x} "
                f"cannot be decoded ({exc.reason})"
            ) from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _write_rows(path: Path, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "n", "cum_miscoverage", "mean_width"])
        for row in rows:
            writer.writerow([row[0], row[1], repr(row[2]), repr(row[3])])


def _cmd_simulate(opts: dict) -> int:
    dgp = opts["dgp"]
    if dgp not in ("late", "partial-id"):
        raise ParameterError(f"--dgp must be 'late' or 'partial-id', got {dgp!r}")
    mode = opts["mode"] or ("coverage" if dgp == "late" else "band")
    if mode not in ("coverage", "band"):
        raise ParameterError(f"--mode must be 'coverage' or 'band', got {mode!r}")
    if mode == "band" and dgp != "partial-id":
        raise ParameterError("band mode requires --dgp partial-id")
    if mode == "coverage" and opts["k_folds"] is not None:
        raise ParameterError("--k-folds applies to band mode only; coverage runs use 5 folds")
    if mode == "band" and opts["reps"] is not None:
        raise ParameterError("--reps applies to coverage mode only; band mode runs "
                             "one pate_lower and one pate_upper stream")
    for key in ("gamma", "tau"):
        if dgp == "late" and opts[key] is not None:
            raise ParameterError(f"--{key} applies to --dgp partial-id only")
    peek_every = opts["peek_every"]
    burn_in = opts["burn_in"] if opts["burn_in"] is not None else peek_every
    tau = -0.5 if opts["tau"] is None else opts["tau"]
    # The output directory is created only once the run has returned, so a
    # run that fails creates nothing.

    if mode == "coverage":
        dgp_params = None if dgp == "late" else sim.PartialIdDgpParams.from_seed(
            opts["seed"], tau=tau, gamma_data=1.0 if opts["gamma"] is None else opts["gamma"]
        )
        result = sim.run_coverage(
            dgp="late" if dgp == "late" else "partial_id",
            estimand="late" if dgp == "late" else "ate",
            reps=200 if opts["reps"] is None else opts["reps"],
            n_max=opts["n_max"],
            peek_every=peek_every,
            alpha=opts["alpha"],
            seed=opts["seed"],
            burn_in=burn_in,
            dgp_params=dgp_params,
        )
        out_dir = _resolve_out_dir(opts["out_dir"])
        (out_dir / "peeks").mkdir(exist_ok=True)
        for rep, log in enumerate(result.peek_logs):
            text = "".join(point.to_json() + "\n" for point in log)
            (out_dir / "peeks" / f"rep_{rep:04d}.ndjson").write_text(text)
        _write_rows(out_dir / "results.csv", result.per_rep_rows())
        _write_rows(out_dir / "curves.csv", result.aggregate_rows())
        print(f"wrote {out_dir / 'results.csv'} and {out_dir / 'curves.csv'}")
        return 0

    gamma_data = opts["gamma"] if opts["gamma"] is not None else math.exp(0.6)
    params = sim.PartialIdDgpParams.from_seed(opts["seed"], tau=tau, gamma_data=gamma_data)
    result = sim.run_pate_band(
        n_max=opts["n_max"],
        peek_every=peek_every,
        burn_in=burn_in,
        gamma=gamma_data,
        alpha=opts["alpha"],
        seed=opts["seed"],
        dgp_params=params,
        k_folds=5 if opts["k_folds"] is None else opts["k_folds"],
    )
    band_path = _resolve_out_dir(opts["out_dir"]) / "band.csv"
    with open(band_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lower_band", "upper_band"])
        for p in result.points:
            writer.writerow([p.n, repr(p.lower), repr(p.upper)])
    print(f"wrote {band_path}")
    return 0


def _stop_rule(opts: dict) -> StopRule | None:
    kind, width = opts.get("stop_rule"), opts.get("stop_width")
    if width is not None and kind != "width_below":
        raise ParameterError("--stop-width requires --stop-rule width_below")
    if kind is None:
        return None
    if kind == "width_below" and width is None:
        raise ParameterError("--stop-rule width_below requires --stop-width")
    return StopRule(kind, width)


def _cmd_monitor(opts: dict, stdout) -> int:
    rule = _stop_rule(opts)
    stream = Stream(StreamConfig(
        estimand=opts["estimand"],
        alpha=opts["alpha"],
        k_folds=opts["k_folds"],
        burn_in=opts["burn_in"],
        rho=opts["rho"],
        gamma=opts["gamma"],
    ))
    burn_in, cadence = opts["burn_in"], opts["peek_every"]

    def due(n: int) -> bool:
        return n >= burn_in and (n - burn_in) % cadence == 0

    def peek() -> None:
        try:
            point = stream.peek()
        except NotReadyError:
            return
        stdout.write(point.to_json() + "\n")
        if rule is not None:
            stream.check_stop(rule)

    def next_peek(n: int) -> int:
        return burn_in if n < burn_in else n + cadence - (n - burn_in) % cadence

    for columns in _read_blocks(opts["input"], opts["estimand"], next_peek):
        stream.push_batch(*columns)
        if due(stream.n):
            peek()
    if stream.n >= burn_in and not due(stream.n):
        peek()  # the last row is always peeked
    if not stream.peek_log:
        decision_word = "not_ready"
    elif stream.stopped_at is not None:
        decision_word = "stop"
    else:
        decision_word = "continue"
    summary = json.dumps({
        "n": stream.n,
        "peeks": len(stream.peek_log),
        "decision": decision_word,
        "stopped_at": stream.stopped_at,
        "rule": None if rule is None else rule.kind,
    }) + "\n"
    stdout.write(summary)
    if opts["out_dir"] is not None:
        out_dir = _resolve_out_dir(opts["out_dir"])
        (out_dir / "peeks.ndjson").write_text(stream.export_ndjson() + summary)
    return 0


def _cmd_diagnose(opts: dict, stdout) -> int:
    _check_identification_bounds(opts["c0"], opts["c1"])
    estimand = opts["estimand"]
    # Built before the input is read, so option errors come first. The one
    # peek comes after every row: with burn_in = k_folds it runs at any n >= K.
    k_folds = opts["k_folds"]
    stream = Stream(StreamConfig(estimand=estimand, alpha=opts["alpha"], k_folds=k_folds,
                                 burn_in=k_folds, gamma=opts["gamma"]))
    blocks = list(_read_blocks(opts["input"], estimand))
    n = sum(len(y) for y, _a, _X, _z in blocks)
    out = lambda text: stdout.write(text + "\n")
    out(f"diagnose: estimand={estimand} n={n}")

    def constant(column: int) -> bool:
        values = np.concatenate([block[column] for block in blocks] or [np.empty(0)])
        return values.size == 0 or values.min() == values.max()

    if constant(1):
        out("identification: FAIL (treatment is constant; propensity degenerate)")
        return 0
    if _needs_z(estimand) and constant(3):
        out("identification: FAIL (instrument is constant)")
        return 0

    for columns in blocks:
        stream.push_batch(*columns)
    try:
        stream.peek()
    except NotReadyError as exc:
        out(f"identification: FAIL (not ready: {exc})")
        return 0
    except SeqdmlError as exc:
        out(f"identification: FAIL ({exc})")
        return 0

    report = identification_diagnostics(stream.last_fit, c0=opts["c0"], c1=opts["c1"])
    out(
        f"jacobian singular values: min={report.j_singular_min!r} "
        f"max={report.j_singular_max!r} bounds=[{opts['c0']!r}, {opts['c1']!r}] "
        f"-> {'pass' if report.jacobian_ok else 'FAIL'}"
    )
    out(
        f"score second moment: min eigenvalue={report.second_moment_min_eig!r} "
        f"-> {'pass' if report.second_moment_ok else 'FAIL'}"
    )
    out(f"identification: {'pass' if report.ok else 'FAIL'}")
    out(f"propensity clip events: {stream.clip_events}")
    for name, trajectory in sorted(stream.holdout_rmse.items()):
        path = " ".join(f"({t_n},{rmse:.6g})" for t_n, rmse in trajectory)
        out(f"holdout rmse {name}: {path}")

    for name, value in stream.orthogonality_derivatives().items():
        out(f"orthogonality derivative wrt {name}: {value:.6g}")
    return 0


def _cmd_report(opts: dict, stdout) -> int:
    out_dir = Path(opts["out_dir"])
    if not out_dir.is_dir():
        raise ParameterError(f"{out_dir} is not a directory")
    out = lambda text: stdout.write(text + "\n")
    found = False
    curves = out_dir / "curves.csv"
    if curves.is_file():
        found = True
        with open(curves, newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_method: dict[str, dict] = {}
        for row in rows:
            by_method[row["method"]] = row
        for method, row in sorted(by_method.items()):
            out(
                f"{method}: final n={row['n']} cumulative miscoverage="
                f"{float(row['cum_miscoverage']):.4f} mean width={float(row['mean_width']):.4f}"
            )
    band = out_dir / "band.csv"
    if band.is_file():
        found = True
        with open(band, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if rows:
            last = rows[-1]
            width = float(last["upper_band"]) - float(last["lower_band"])
            out(
                f"band: final n={last['n']} interval=[{float(last['lower_band']):.4f}, "
                f"{float(last['upper_band']):.4f}] width={width:.4f}"
            )
    peeks = out_dir / "peeks.ndjson"
    if peeks.is_file():
        found = True
        records = [json.loads(line) for line in peeks.read_text().splitlines() if line]
        points = [r for r in records if "estimate" in r]
        if points:
            last = points[-1]
            out(
                f"monitor: {len(points)} peeks, final n={last['n']} "
                f"interval=[{last['lower_int']:.4f}, {last['upper_int']:.4f}]"
            )
    if not found:
        raise _DataFailure(f"no known artifacts (curves.csv, band.csv, peeks.ndjson) in {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merged_options(args)
        if args.command == "simulate":
            return _cmd_simulate(opts)
        if args.command == "monitor":
            return _cmd_monitor(opts, sys.stdout)
        if args.command == "diagnose":
            return _cmd_diagnose(opts, sys.stdout)
        if args.command == "report":
            return _cmd_report(opts, sys.stdout)
        raise ParameterError(f"unknown command {args.command!r}")
    except _USAGE_ERRORS as exc:
        print(f"seqdml: error: {exc}", file=sys.stderr)
        return 2
    except SeqdmlError as exc:
        print(f"seqdml: failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"seqdml: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
