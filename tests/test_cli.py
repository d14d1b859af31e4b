"""Command-line interface: schemas, exit codes, artifacts, determinism."""

import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqdml
from seqdml import PartialIdDgpParams, Stream, StreamConfig, gen_partial_id, run_coverage, sim
from seqdml import cli
from seqdml.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ate_csv(path, n=400, seed=0, treated_only=False, constant_y=None):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "a", "x1"])
        for _ in range(n):
            x = rng.normal()
            a = 1 if treated_only else int(rng.uniform() < 0.5)
            y = 0.8 * a + x + 0.3 * rng.normal() if constant_y is None else constant_y
            writer.writerow([repr(float(y)), a, repr(float(x))])
    return path


def write_null_relevance_late_csv(path, n=600, seed=3):
    """Instrument unrelated to treatment: the moment Jacobian is near zero."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "a", "z", "x1"])
        for _ in range(n):
            x = rng.normal()
            z = int(rng.uniform() < 0.4)
            a = int(x > 0)
            y = a + x + 0.3 * rng.normal()
            writer.writerow([repr(float(y)), a, z, repr(float(x))])
    return path


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # Every command pays the import path; scipy.stats alone took about half
    # a second, for the one norm.ppf of run_coverage, which imports it.
    src = str(Path(seqdml.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    check = "import sys, seqdml.cli; sys.exit(int('scipy.stats' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", check], env=env, timeout=120).returncode == 0


class TestSimulate:
    def test_late_row_count_contract(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            ["simulate", "--dgp", "late", "--reps", "3", "--n-max", "1000",
             "--peek-every", "250", "--alpha", "0.05", "--seed", "7",
             "--out-dir", str(out)],
            capsys,
        )
        assert code == 0
        assert stdout == f"wrote {out / 'results.csv'} and {out / 'curves.csv'}\n"
        header = "method,n,cum_miscoverage,mean_width"
        rows = (out / "results.csv").read_text().splitlines()
        # 3 reps x (1000/250) grid points per method, two methods, one header
        assert rows[0] == header
        assert len(rows) == 1 + 2 * 3 * 4
        curves = list(csv.reader((out / "curves.csv").read_text().splitlines()))
        assert ",".join(curves[0]) == header
        assert [(row[0], int(row[1])) for row in curves[1:]] == [
            (method, n) for method in ("asympcs", "batch") for n in (250, 500, 750, 1000)
        ]
        assert all(0.0 <= float(row[2]) <= 1.0 and float(row[3]) > 0 for row in curves[1:])
        logs = sorted((out / "peeks").iterdir())
        assert [log.name for log in logs] == [f"rep_{rep:04d}.ndjson" for rep in range(3)]
        for log in logs:
            records = [json.loads(line) for line in log.read_text().splitlines()]
            assert [r["n"] for r in records] == [250, 500, 750, 1000]

    def test_partial_id_coverage_artifacts_equal_run_coverage(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["simulate", "--dgp", "partial-id", "--mode", "coverage", "--reps", "2",
             "--n-max", "600", "--peek-every", "300", "--seed", "4", "--gamma", "1.5",
             "--tau", "0.25", "--out-dir", str(out)],
            capsys,
        )
        assert code == 0, err
        result = run_coverage(
            dgp="partial_id", estimand="ate", reps=2, n_max=600, peek_every=300, seed=4,
            dgp_params=PartialIdDgpParams.from_seed(4, tau=0.25, gamma_data=1.5),
        )
        assert result.truth == 0.25
        for name, rows in (("results.csv", result.per_rep_rows()),
                           ("curves.csv", result.aggregate_rows())):
            written = list(csv.reader((out / name).read_text().splitlines()))[1:]
            assert written == [[m, str(n), repr(miss), repr(width)] for m, n, miss, width in rows]
        for rep, log in enumerate(result.peek_logs):
            text = (out / "peeks" / f"rep_{rep:04d}.ndjson").read_text()
            assert text == "".join(point.to_json() + "\n" for point in log)

    def test_band_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "band"
        code, _, _ = run_cli(
            ["simulate", "--dgp", "partial-id", "--gamma", "1.8221", "--tau", "-0.5",
             "--n-max", "600", "--peek-every", "300", "--seed", "5",
             "--out-dir", str(out)],
            capsys,
        )
        assert code == 0
        rows = (out / "band.csv").read_text().splitlines()
        assert rows[0] == "n,lower_band,upper_band"
        assert len(rows) == 1 + 2

    @pytest.mark.parametrize("dgp, extra", [
        ("partial-id", ["--n-max", "100", "--peek-every", "250"]),
        ("partial-id", ["--n-max", "1000", "--peek-every", "250", "--burn-in", "2000"]),
        ("late", ["--reps", "1", "--n-max", "100", "--peek-every", "250"]),
    ])
    def test_empty_peek_grid_is_a_usage_error(self, tmp_path, capsys, dgp, extra):
        out = tmp_path / "out"
        code, stdout, err = run_cli(["simulate", "--dgp", dgp, "--out-dir", str(out)] + extra, capsys)
        assert code == 2
        assert "peek grid is empty" in err
        assert stdout == ""
        assert not out.exists()

    def test_missing_dgp_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run_cli(["simulate", "--reps", "2", "--out-dir", str(out)], capsys)
        assert code == 2
        assert "--dgp" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--dgp", "late", "--mode", "coverage", "--estimand", "ate"],
        ["--dgp", "partial-id", "--mode", "coverage", "--estimand", "late"],
        ["--dgp", "partial-id", "--estimand", "late"],
        ["--dgp", "partial-id", "--estimand", "ate"],
    ], ids=["late-coverage-ate", "partial-id-coverage-late", "band-late", "band-ate"])
    def test_estimand_is_not_an_option(self, tmp_path, capsys, argv):
        # Each DGP runs one estimand, so --estimand could only repeat it.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n-max", "600", "--peek-every", "300",
                  "--out-dir", str(out)] + argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --estimand" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_estimand_is_an_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("dgp = late\nestimand = late\n")
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            ["simulate", "--config", str(config), "--out-dir", str(out)], capsys
        )
        assert code == 2
        assert f"{config}:2: unknown config key 'estimand'" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--dgp", "late", "--k-folds", "3"], "--k-folds applies to band mode only"),
        (["--dgp", "partial-id", "--mode", "coverage", "--k-folds", "5"], "--k-folds applies"),
        (["--dgp", "late", "--mode", "xyz"], "--mode must be 'coverage' or 'band'"),
        (["--dgp", "late", "--mode", "band"], "band mode requires --dgp partial-id"),
        (["--dgp", "late", "--gamma", "2"], "--gamma applies to --dgp partial-id only"),
        (["--dgp", "late", "--tau", "7"], "--tau applies to --dgp partial-id only"),
        (["--dgp", "late", "--reps", "0"], "reps must be >= 1, got 0"),
        (["--dgp", "late", "--alpha", "1.5"], "alpha must lie in (0, 1), got 1.5"),
        (["--dgp", "partial-id", "--gamma", "0.5"], "gamma must be a real >= 1, got 0.5"),
        (["--dgp", "partial-id", "--gamma", "nan"], "gamma must be a real >= 1, got nan"),
        (["--dgp", "partial-id", "--mode", "coverage", "--gamma", "inf"],
         "gamma must be a real >= 1, got inf"),
        (["--dgp", "partial-id", "--tau", "nan"], "tau must be finite, got nan"),
        (["--dgp", "partial-id", "--mode", "coverage", "--tau=-inf"],
         "tau must be finite, got -inf"),
        (["--dgp", "late", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["--dgp", "partial-id", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["--dgp", "partial-id", "--mode", "coverage", "--seed", "-2"],
         "seed must be an integer >= 0, got -2"),
    ])
    def test_option_errors_leave_no_output_directory(self, tmp_path, capsys, argv, message):
        # Some of these are caught by the runners or the DGP parameters,
        # after the CLI's own checks; none creates the output directory.
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            ["simulate", "--n-max", "600", "--peek-every", "200", "--out-dir", str(out)] + argv,
            capsys,
        )
        assert code == 2
        assert message in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--reps", "7"), ("--reps", "200")])
    def test_coverage_options_are_refused_in_band_mode(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            ["simulate", "--dgp", "partial-id", "--n-max", "600", "--peek-every", "300",
             flag, value, "--out-dir", str(out)],
            capsys,
        )
        assert code == 2
        assert f"{flag} applies to coverage mode only" in err
        assert stdout == ""
        assert not out.exists()

    def test_config_file_reps_is_refused_in_band_mode(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("dgp = partial-id\nreps = 1\n")
        out = tmp_path / "out"
        code, _, err = run_cli(["simulate", "--config", str(config), "--out-dir", str(out)], capsys)
        assert code == 2
        assert "--reps applies to coverage mode only" in err
        assert not out.exists()

    def test_config_file_k_folds_is_refused_in_coverage_mode(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("dgp = late\nreps = 1\nk_folds = 5\n")
        out = tmp_path / "out"
        code, _, err = run_cli(["simulate", "--config", str(config), "--out-dir", str(out)], capsys)
        assert code == 2
        assert "--k-folds applies to band mode only" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["gamma = 2", "tau = 7"])
    def test_config_file_dgp_parameters_are_refused_for_late(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"dgp = late\nreps = 1\n{line}\n")
        out = tmp_path / "out"
        code, _, err = run_cli(["simulate", "--config", str(config), "--out-dir", str(out)], capsys)
        assert code == 2
        assert f"--{line.split()[0]} applies to --dgp partial-id only" in err
        assert not out.exists()

    def test_deterministic_artifacts(self, tmp_path, capsys):
        args = ["simulate", "--dgp", "late", "--reps", "2", "--n-max", "600",
                "--peek-every", "300", "--seed", "9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out-dir", str(out1)], capsys)[0] == 0
        assert run_cli(args + ["--out-dir", str(out2)], capsys)[0] == 0
        for name in ("results.csv", "curves.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("dgp = late\nreps = 2\nn_max = 600\npeek_every = 300\nseed = 3\n")
        out = tmp_path / "cfg_out"
        code, _, _ = run_cli(
            ["simulate", "--config", str(config), "--reps", "1", "--out-dir", str(out)],
            capsys,
        )
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 1 * 2  # the flag's reps=1 wins over the file

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("dgp = late\nbogus_key = 1\n")
        out = tmp_path / "out"
        code, _, err = run_cli(["simulate", "--config", str(config), "--out-dir", str(out)], capsys)
        assert code == 2
        assert "bogus_key" in err
        assert not out.exists()

    def test_undecodable_config_file_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"dgp = late\nreps = \xff\n")
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            ["simulate", "--config", str(config), "--out-dir", str(out)], capsys
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"seqdml: error: cannot read config file {config}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1
        assert not out.exists()

    def test_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("SEQDML_OUT_DIR", str(target))
        code, _, _ = run_cli(
            ["simulate", "--dgp", "late", "--reps", "1", "--n-max", "600",
             "--peek-every", "300", "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert (target / "results.csv").is_file()


def write_partial_id_csv(path, n=400, seed=9):
    columns = gen_partial_id(n, PartialIdDgpParams.from_seed(seed), seed=[seed, 1])[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "a"] + [f"x{j + 1}" for j in range(columns.X.shape[1])])
        for y, a, x in zip(columns.y.tolist(), columns.a.tolist(), columns.X.tolist()):
            writer.writerow([repr(y), int(a)] + [repr(v) for v in x])
    return path


class TestMonitor:
    def test_ate_stream_emits_ndjson(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv")
        code, out, _ = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate",
             "--burn-in", "100", "--peek-every", "100"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["decision"] == "continue"
        assert summary["peeks"] == len(lines) - 1 == 4
        for line in lines[:-1]:
            record = json.loads(line)
            assert list(record.keys()) == [
                "n", "estimate", "sigma", "lower", "upper",
                "lower_int", "upper_int", "stopped",
            ]
            assert record["lower"] <= record["upper"]

    def test_late_requires_z_column(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv")
        code, _, err = run_cli(
            ["monitor", "--input", str(data), "--estimand", "late"], capsys
        )
        assert code == 2
        assert "z" in err

    def test_constant_outcome_is_not_a_usage_error(self, tmp_path, capsys):
        # Every score is zero, so rho cannot be tuned and each peek defers.
        data = write_ate_csv(tmp_path / "flat.csv", n=300, constant_y=2.0)
        code, out, _ = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate",
             "--burn-in", "100", "--peek-every", "100"],
            capsys,
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["decision"] == "not_ready"

    def test_short_file_not_ready(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "tiny.csv", n=30)
        code, out, _ = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate", "--burn-in", "100"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["decision"] == "not_ready"

    def test_malformed_row_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("y,a,x1\n1.0,1,0.5\n2.0,oops,0.1\n")
        code, _, err = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate"], capsys
        )
        assert code == 1
        assert "line 3" in err

    def test_bad_header_rejected(self, tmp_path, capsys):
        data = tmp_path / "head.csv"
        data.write_text("y,a,w1\n1.0,1,0.5\n")
        code, _, err = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate"], capsys
        )
        assert code == 2

    def test_stop_rule_recorded(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv", n=400, seed=4)
        code, out, _ = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate",
             "--burn-in", "100", "--peek-every", "100",
             "--stop-rule", "width_below", "--stop-width", "1000.0"],
            capsys,
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["decision"] == "stop"
        assert summary["stopped_at"] == 100

    @pytest.mark.parametrize("argv", [
        ["monitor", "--estimand", "ate", "--peek-every", "0"],
        ["monitor", "--estimand", "ate", "--peek-every", "-5"],
        ["monitor", "--estimand", "ate", "--stop-rule", "width_below", "--stop-width", "-1"],
        ["simulate", "--dgp", "late", "--peek-every", "0", "--reps", "1"],
        ["monitor", "--estimand", "ate", "--stop-width", "0.5"],
        ["monitor", "--estimand", "ate", "--stop-rule", "excludes_zero", "--stop-width", "0.5"],
        ["monitor", "--estimand", "ate", "--config", "{stop_width_cfg}"],
    ])
    def test_bad_cadence_or_width_is_a_usage_error(self, tmp_path, capsys, argv):
        data = write_ate_csv(tmp_path / "data.csv")
        config = tmp_path / "stop.cfg"
        config.write_text("stop_width = 0.5\n")
        argv = [str(config) if arg == "{stop_width_cfg}" else arg for arg in argv]
        out_dir = tmp_path / "out"
        extra = ["--input", str(data)] if argv[0] == "monitor" else ["--out-dir", str(out_dir)]
        code, out, err = run_cli(argv + extra, capsys)
        assert code == 2
        assert not out_dir.exists()
        assert err.startswith("seqdml: error:")
        if "width_below" not in argv and ("--stop-width" in argv or "--config" in argv):
            assert "--stop-width" in err and "--stop-rule" in err
        assert out == ""

    def test_records_before_a_malformed_row_are_written(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv", n=400, seed=8)
        lines = data.read_text().splitlines(keepends=True)
        lines[301] = "1.0,oops,0.5\n"  # file line 302, data row 301
        data.write_text("".join(lines))
        out_dir = tmp_path / "mon"
        code, out, err = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate",
             "--burn-in", "100", "--peek-every", "100", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert "line 302" in err
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in records] == [100, 200, 300]
        assert all("estimate" in r for r in records)  # no summary line
        assert not (out_dir / "peeks.ndjson").exists()

    @pytest.mark.parametrize("command", ["monitor", "diagnose"])
    def test_undecodable_input_is_a_data_failure(self, tmp_path, capsys, command):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"y,a,x1\n1.0,1,0.5\n\xff\xfe2.0,0,0.1\n")
        code, out, err = run_cli([command, "--input", str(data), "--estimand", "ate"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"seqdml: failure: {data} is not ") and err.count("\n") == 1
        assert "byte 0xff cannot be decoded" in err

    @pytest.mark.parametrize("command", ["monitor", "diagnose"])
    def test_a_byte_order_mark_before_the_header_is_ignored(self, tmp_path, capsys, command):
        # Excel's "CSV UTF-8" export writes one.
        data = write_ate_csv(tmp_path / "data.csv", n=300, seed=4)
        argv = [command, "--input", str(data), "--estimand", "ate"]
        plain = run_cli(argv, capsys)
        data.write_bytes("\ufeff".encode() + data.read_bytes())
        assert run_cli(argv, capsys) == plain
        assert plain[0] == 0 and plain[2] == ""

    @pytest.mark.parametrize("command", ["monitor", "diagnose"])
    @pytest.mark.parametrize("where", ["header", "row"])
    def test_a_field_past_the_csv_size_limit_is_a_data_failure(self, tmp_path, capsys,
                                                               command, where):
        long = '"' + "9" * (csv.field_size_limit() + 8_928) + '"'
        data = tmp_path / "long.csv"
        if where == "header":
            data.write_text(f"y,a,{long}\n1.0,1,0.5\n")
        else:
            data.write_text(f"y,a,x1\n1.0,1,0.5\n2.0,0,{long}\n")
        code, out, err = run_cli([command, "--input", str(data), "--estimand", "ate"], capsys)
        assert (code, out) == (1, "")
        line = 1 if where == "header" else 3
        limit = csv.field_size_limit()
        assert err == f"seqdml: failure: line {line}: field larger than field limit ({limit})\n"

    @pytest.mark.parametrize("command", ["monitor", "diagnose"])
    @pytest.mark.parametrize("rows, message", [
        (["2.0,0,0.1", "3.0,oops,0.2"], "line 5: a value 'oops' is not numeric"),
        ([f"{i}.5,{i % 2},0.{i}" for i in range(298)] + ["3.0,2,0.2"],
         "line 302: a must be 0 or 1, got 2"),
        ([f"{i}.5,{i % 2},0.{i}" for i in range(198)] + ['2.0,0,"' + "9" * 140_000 + '"'],
         f"line 202: field larger than field limit ({csv.field_size_limit()})"),
    ], ids=["bad-a-on-line-5", "bad-a-on-line-302", "long-field-on-line-202"])
    def test_an_error_after_a_record_that_spans_lines_names_its_physical_line(
            self, tmp_path, capsys, command, rows, message):
        # The first record, on lines 2-3, has a quoted outcome that ends in a newline.
        data = tmp_path / "spans.csv"
        data.write_text("y,a,x1\n" + '"1.0\n",1,0.5\n' + "".join(row + "\n" for row in rows))
        code, _, err = run_cli([command, "--input", str(data), "--estimand", "ate"], capsys)
        assert (code, err) == (1, f"seqdml: failure: {message}\n")

    def test_records_before_undecodable_bytes_are_written(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv", n=400, seed=8)
        argv = ["monitor", "--input", str(data), "--estimand", "ate",
                "--burn-in", "100", "--peek-every", "100"]
        code, clean, _ = run_cli(argv, capsys)
        assert code == 0
        lines = data.read_bytes().splitlines(keepends=True)
        lines[301] = b"\xff\xfe" + lines[301]  # file line 302, data row 301
        data.write_bytes(b"".join(lines))
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith("seqdml: failure:") and err.count("\n") == 1
        # The file is decoded a chunk at a time, so the failure can come a
        # block before the bad row's; the records written are those before it.
        records = out.splitlines()
        assert 1 <= len(records) <= 3
        assert records == clean.splitlines()[:len(records)]

    def test_option_errors_come_before_data_errors(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("y,a,x1\n1.0,1,0.5\n2.0,oops,0.1\n")
        code, out, err = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate", "--k-folds", "1"], capsys
        )
        assert code == 2
        assert "k_folds" in err
        assert out == ""

    def test_rho_out_of_range_is_a_usage_error_before_the_input_is_read(self, tmp_path, capsys):
        code, out, err = run_cli(["monitor", "--input", str(tmp_path / "missing.csv"),
                                  "--estimand", "ate", "--rho", "1e-160"], capsys)
        assert (code, out) == (2, "")
        assert err == "seqdml: error: rho=1e-160 is out of range: 2(rho^2 + 1)/rho^2 is not finite\n"

    def test_alpha_too_large_for_the_tuning_rule_is_a_usage_error(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv", n=300, seed=4)
        for command in ("monitor", "diagnose"):
            code, out, err = run_cli(
                [command, "--input", str(data), "--estimand", "ate", "--alpha", "0.9"], capsys
            )
            assert code == 2
            assert out == ""
            assert err.startswith("seqdml: error: alpha=0.9 is too large for the tuning rule")

    def test_out_dir_artifact_matches_stdout(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv", seed=6)
        out_dir = tmp_path / "mon"
        code, out, _ = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate",
             "--burn-in", "200", "--peek-every", "100", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert (out_dir / "peeks.ndjson").read_text() == out


class TestDiagnose:
    def test_well_posed_ate_passes(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv", n=500, seed=1)
        code, out, _ = run_cli(
            ["diagnose", "--input", str(data), "--estimand", "ate"], capsys
        )
        assert code == 0
        assert "identification: pass" in out
        assert "holdout rmse" in out
        assert "orthogonality derivative wrt g1" in out

    def test_constant_treatment_fails(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "const.csv", n=200, seed=2, treated_only=True)
        code, out, _ = run_cli(
            ["diagnose", "--input", str(data), "--estimand", "ate"], capsys
        )
        assert code == 0
        assert "identification: FAIL" in out

    def test_constant_instrument_fails(self, tmp_path, capsys):
        data = tmp_path / "z1.csv"
        data.write_text("y,a,z,x1\n" + "".join(f"{i % 3}.5,{i % 2},1,0.{i}\n" for i in range(40)))
        code, out, _ = run_cli(
            ["diagnose", "--input", str(data), "--estimand", "late"], capsys
        )
        assert code == 0
        assert out == "diagnose: estimand=late n=40\nidentification: FAIL (instrument is constant)\n"

    def test_each_block_is_pushed_before_the_next_is_read(self, tmp_path, capsys, monkeypatch):
        # The stream holds the rows; diagnose keeps no second copy of them.
        data = write_ate_csv(tmp_path / "data.csv", n=50, seed=1)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
        read_blocks, push_batch, events = cli._read_blocks, Stream.push_batch, []

        def logged_blocks(*args):
            for block in read_blocks(*args):
                events.append(("read", len(block[0])))
                yield block

        def logged_push(stream, y, *args):
            events.append(("push", len(y)))
            return push_batch(stream, y, *args)

        monkeypatch.setattr(cli, "_read_blocks", logged_blocks)
        monkeypatch.setattr(Stream, "push_batch", logged_push)
        code, out, _ = run_cli(["diagnose", "--input", str(data), "--estimand", "ate"], capsys)
        assert code == 0 and out.startswith("diagnose: estimand=ate n=50\n")
        assert "identification: pass" in out
        assert events == [event for m in [7] * 7 + [1] for event in (("read", m), ("push", m))]

    def test_null_relevance_instrument_fails(self, tmp_path, capsys):
        data = write_null_relevance_late_csv(tmp_path / "weak.csv")
        code, out, _ = run_cli(
            ["diagnose", "--input", str(data), "--estimand", "late"], capsys
        )
        assert code == 0
        assert "identification: FAIL" in out

    @pytest.mark.parametrize("estimand", ["pate_lower", "pate_upper"])
    def test_bounds_at_the_default_gamma(self, tmp_path, capsys, estimand):
        # At gamma = 1 the fitted nu is exactly 1, the edge of its range.
        data = write_partial_id_csv(tmp_path / "pid.csv")
        code, out, err = run_cli(
            ["diagnose", "--input", str(data), "--estimand", estimand], capsys
        )
        assert code == 0, err
        assert "orthogonality derivative wrt nu: " in out

    def test_non_finite_gamma_is_a_usage_error(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv", n=200, seed=4)
        code, _, err = run_cli(
            ["diagnose", "--input", str(data), "--estimand", "pate_lower", "--gamma", "inf"],
            capsys,
        )
        assert code == 2
        assert "gamma must be a real >= 1, got inf" in err

    @pytest.mark.parametrize("bounds, shown", [
        (["--c0", "0"], "c0=0.0, c1=100.0"),
        (["--c0", "5", "--c1", "1"], "c0=5.0, c1=1.0"),
        (["--c0", "nan"], "c0=nan, c1=100.0"),
    ])
    def test_bad_bounds_are_rejected_before_the_input_is_read(
        self, tmp_path, capsys, bounds, shown
    ):
        data = write_ate_csv(tmp_path / "data.csv", n=300, seed=4)
        for path in (data, tmp_path / "missing.csv"):
            code, out, err = run_cli(
                ["diagnose", "--input", str(path), "--estimand", "ate"] + bounds, capsys
            )
            assert code == 2
            assert out == ""
            assert err == f"seqdml: error: need 0 < c0 <= c1, got {shown}\n"


    @pytest.mark.parametrize("option, message", [
        (["--gamma", "0.5"], "gamma must be a real >= 1, got 0.5"),
        (["--k-folds", "1"], "k_folds must be an integer >= 2, got 1"),
        (["--alpha", "1.5"], "alpha must lie in (0, 1), got 1.5"),
        (["--estimand", "bogus"],
         "estimand must be one of ('ate', 'late', 'pate_lower', 'pate_upper', 'plr'), "
         "got 'bogus'"),
    ])
    def test_bad_stream_options_are_rejected_before_the_input_is_read(
        self, tmp_path, capsys, option, message
    ):
        data = write_ate_csv(tmp_path / "data.csv", n=300, seed=4)
        for path in (data, tmp_path / "missing.csv"):
            code, out, err = run_cli(
                ["diagnose", "--input", str(path), "--estimand", "ate"] + option, capsys
            )
            assert code == 2
            assert out == ""
            assert err == f"seqdml: error: {message}\n"


class TestReport:
    def test_report_on_simulate_output(self, tmp_path, capsys):
        out = tmp_path / "res"
        run_cli(
            ["simulate", "--dgp", "late", "--reps", "2", "--n-max", "600",
             "--peek-every", "300", "--seed", "1", "--out-dir", str(out)],
            capsys,
        )
        code, text, _ = run_cli(["report", "--out-dir", str(out)], capsys)
        assert code == 0
        assert "asympcs" in text and "batch" in text

    def test_report_on_band_output(self, tmp_path, capsys):
        out = tmp_path / "band"
        code, _, _ = run_cli(
            ["simulate", "--dgp", "partial-id", "--n-max", "600", "--peek-every", "300",
             "--seed", "3", "--out-dir", str(out)],
            capsys,
        )
        assert code == 0
        last = list(csv.DictReader((out / "band.csv").read_text().splitlines()))[-1]
        lower, upper = float(last["lower_band"]), float(last["upper_band"])
        code, text, _ = run_cli(["report", "--out-dir", str(out)], capsys)
        assert code == 0
        assert text == (f"band: final n=600 interval=[{lower:.4f}, {upper:.4f}] "
                        f"width={upper - lower:.4f}\n")

    def test_report_on_monitor_output(self, tmp_path, capsys):
        data = write_ate_csv(tmp_path / "data.csv", seed=6)
        out = tmp_path / "mon"
        code, _, _ = run_cli(
            ["monitor", "--input", str(data), "--estimand", "ate",
             "--burn-in", "200", "--peek-every", "100", "--out-dir", str(out)],
            capsys,
        )
        assert code == 0
        last = json.loads((out / "peeks.ndjson").read_text().splitlines()[-2])
        code, text, _ = run_cli(["report", "--out-dir", str(out)], capsys)
        assert code == 0
        assert text == (f"monitor: 3 peeks, final n=400 interval="
                        f"[{last['lower_int']:.4f}, {last['upper_int']:.4f}]\n")

    def test_missing_directory(self, tmp_path, capsys):
        code, _, err = run_cli(["report", "--out-dir", str(tmp_path / "nope")], capsys)
        assert code == 2

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(["report", "--out-dir", str(empty)], capsys)
        assert code == 1

    @pytest.mark.parametrize("name, content, message", [
        ("peeks.ndjson", b'{"n": 100}\nnot json\n', "Expecting value: line 1 column 1 (char 0)"),
        ("curves.csv", b"n,cum_miscoverage,mean_width\n100,0.1,2.0\n", "no 'method' field"),
        ("band.csv", b"n,lower_band,upper_band\n100,-1.0,oops\n",
         "could not convert string to float: 'oops'"),
        ("band.csv", b"n,lower_band,upper_band\n100,-1.0,\xff\n", "can't decode byte 0xff"),
    ], ids=["peeks-not-json", "curves-no-method", "band-not-numeric", "band-undecodable"])
    def test_a_malformed_artifact_is_one_failure_line(self, tmp_path, capsys, name, content,
                                                      message):
        (tmp_path / name).write_bytes(content)
        code, out, err = run_cli(["report", "--out-dir", str(tmp_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"seqdml: failure: {tmp_path / name}: ") and err.count("\n") == 1
        assert message in err


def change_defaults(monkeypatch, func, **new):
    """Give func the keyword defaults in new, as if the library had changed them."""
    params = inspect.signature(func).parameters.values()
    defaults = tuple(new.get(p.name, p.default) for p in params if p.default is not p.empty)
    monkeypatch.setattr(func, "__defaults__", defaults)


def artifacts(out_dir: Path) -> dict:
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def flags(**values) -> list[str]:
    return [f"--{key.replace('_', '-')}={value!r}" for key, value in values.items()]


class TestUnsetOptionsTakeTheLibraryDefaults:
    """An option left unset is not passed on: the run equals one given the
    library's default explicitly, read from the runner's signature or the
    class's fields. Some library defaults are changed first, which checks
    that the CLI follows them (and keeps the simulations short)."""

    @pytest.mark.parametrize("argv", [
        ["--dgp", "late"], ["--dgp", "partial-id", "--mode", "coverage"], ["--dgp", "partial-id"],
    ], ids=["late-coverage", "partial-id-coverage", "band"])
    def test_simulate(self, tmp_path, capsys, monkeypatch, argv):
        change_defaults(monkeypatch, sim.run_coverage, reps=2, n_max=500, alpha=0.1)
        change_defaults(monkeypatch, sim.run_pate_band, n_max=500, alpha=0.1, k_folds=4)
        band = "--mode" not in argv and argv[1] == "partial-id"
        runner = sim.run_pate_band if band else sim.run_coverage
        given = {name: p.default for name, p in inspect.signature(runner).parameters.items()}
        # An unset burn-in is the peek cadence, in both runners.
        explicit = flags(n_max=given["n_max"], alpha=given["alpha"], burn_in=100)
        explicit += flags(k_folds=given["k_folds"]) if band else flags(reps=given["reps"])
        if argv[1] == "partial-id":
            explicit += flags(tau=PartialIdDgpParams.tau)
        if band:  # coverage mode's unset --gamma is 1, the CLI's own choice
            explicit += flags(gamma=PartialIdDgpParams.gamma_data)
        runs = []
        for extra in ([], explicit):
            out = tmp_path / str(len(runs))
            code, _, err = run_cli(["simulate", "--peek-every", "100", "--seed", "3",
                                    "--out-dir", str(out)] + argv + extra, capsys)
            assert code == 0, err
            runs.append(artifacts(out))
        assert runs[0] == runs[1]
        assert len(runs[0]) == (1 if band else 4)

    @pytest.mark.parametrize("command", ["monitor", "diagnose"])
    def test_monitor_and_diagnose(self, tmp_path, capsys, monkeypatch, command):
        changed = {"alpha": 0.1, "k_folds": 4, "burn_in": 120, "gamma": 1.25}
        change_defaults(monkeypatch, StreamConfig.__init__, **changed)
        for key, value in changed.items():
            monkeypatch.setattr(StreamConfig, key, value)
        # pate_lower, so that gamma changes what is printed.
        data = write_partial_id_csv(tmp_path / "pid.csv", n=300)
        keys = ["alpha", "k_folds", "gamma"] + (["burn_in"] if command == "monitor" else [])
        explicit = flags(**{key: getattr(StreamConfig, key) for key in keys})
        argv = [command, "--input", str(data), "--estimand", "pate_lower"]
        unset = run_cli(argv, capsys)
        assert unset[0] == 0 and unset[2] == ""
        assert run_cli(argv + explicit, capsys) == unset
        last = '{"n": 300, "peeks": 3,' if command == "monitor" else "orthogonality derivative"
        assert unset[1].splitlines()[-1].startswith(last)
