"""The four workloads: their inputs, one round of work, and its checks.

A run repeats whole rounds. The library workloads (``band``,
``late_coverage``) draw fresh rows in every round from a seed derived from
the run's seed and the round number; the CLI workloads (``ate_monitor``,
``diagnose``) replay the CSV built at set-up. Either way the run's seed
fixes every input. The designs (coefficient vectors of each DGP) come from
DESIGN_SEED, so seeds vary the sample and not the model: the cost of a GBT
fit or a Newton solve depends on the design, and runs on different seeds
must be comparable.
"""

from __future__ import annotations

import csv
import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from seqdml import cli, sim
from seqdml.nuisance import LearnerSpec

import checks

ALPHA = 0.05
DESIGN_SEED = 0


@dataclass(frozen=True)
class Sizes:
    # One refit (at burn-in) per stream and round; the next would be at 1000.
    band_rows: int = 975
    band_peek_every: int = 25
    band_burn_in: int = 500
    # None keeps the default GBT learner of run_pate_band.
    band_gbt_rounds: int | None = None
    late_reps: int = 12
    late_rows: int = 5000
    late_peek_every: int = 250
    late_burn_in: int = 500
    ate_rows: int = 50_000
    ate_peek_every: int = 250
    ate_burn_in: int = 500
    diagnose_rows: int = 4000
    diagnose_peek_every: int = 100
    diagnose_burn_in: int = 500
    covariates: int = 4
    true_ate: float = 1.0
    noise_sd: float = 1.0


FULL = Sizes()
TINY = replace(
    FULL,
    band_rows=300, band_peek_every=25, band_burn_in=100, band_gbt_rounds=5,
    late_reps=2, late_rows=600, late_peek_every=100, late_burn_in=200,
    ate_rows=1500, ate_peek_every=100, ate_burn_in=200,
    diagnose_rows=2000, diagnose_peek_every=100, diagnose_burn_in=200,
)


def round_seed(seed: int, round_no: int) -> int:
    return seed * 1_000_003 + round_no


@dataclass
class Round:
    """What one round did, measured around the public calls only."""

    wall_s: float = 0.0
    rows: int = 0
    # (start, end): from the start of a stream's data to its first interval.
    first_record: list[tuple[float, float]] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    traced: bool = False
    refits: int = 0
    # (end time, duration) of the round's light and refitting peeks.
    light: list[tuple[float, float]] = field(default_factory=list)
    refit: list[tuple[float, float]] = field(default_factory=list)
    # When the round started and ended, checks included.
    start: float = 0.0
    end: float = 0.0


def _fingerprint(rec: dict, truth: float) -> dict:
    return {
        "n": rec["n"],
        "theta_hat": rec["estimate"],
        "sigma_hat": rec["sigma"],
        "lower_int": rec["lower_int"],
        "upper_int": rec["upper_int"],
        "contains_truth": checks.contains(rec, truth),
    }


def _first_after(starts: list[float], ends: list[float]) -> list[tuple[float, float]]:
    """For each start, the first end before the next start."""
    waits = []
    for i, start in enumerate(starts):
        stop = starts[i + 1] if i + 1 < len(starts) else math.inf
        first = next((end for end in ends if start <= end < stop), None)
        if first is not None:
            waits.append((start, first))
    return waits


def _by_estimand(points) -> dict[str, list]:
    """The probe's peek records of one round, grouped by estimand in peek
    order; each estimand has one stream per round."""
    out: dict[str, list] = {}
    for estimand, point, _end in points:
        out.setdefault(estimand, []).append(point)
    return out


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

class Band:
    """run_pate_band: the pate_lower and pate_upper streams over the
    confounded DGP, with the default (GBT, asymmetric loss) learners."""

    def __init__(self, sizes: Sizes, seed: int, inputs: Path):
        self.sizes, self.seed = sizes, seed
        self.params = sim.PartialIdDgpParams.from_seed(DESIGN_SEED)
        self.gamma_spec = None
        if sizes.band_gbt_rounds is not None:
            self.gamma_spec = LearnerSpec(kind="gbt", n_rounds=sizes.band_gbt_rounds, seed=seed)

    def build(self) -> None:
        """The DGP parameters are the whole input; rows come from sim."""

    def run_round(self, round_no: int, probe) -> Round:
        s = self.sizes
        probe.points.clear()
        probe.generated.clear()
        start = time.perf_counter()
        result = sim.run_pate_band(
            n_max=s.band_rows, peek_every=s.band_peek_every, burn_in=s.band_burn_in,
            alpha=ALPHA, seed=round_seed(self.seed, round_no), dgp_params=self.params,
            gamma_spec=self.gamma_spec,
        )
        out = Round(wall_s=time.perf_counter() - start, rows=s.band_rows, ops=1)
        # The first band point exists once the upper stream has peeked.
        uppers = [end for est, _, end in probe.points if est == "pate_upper"]
        out.first_record = _first_after(probe.generated, uppers)
        by_estimand = {"pate_lower": [], "pate_upper": [], **_by_estimand(probe.points)}
        for estimand, points in by_estimand.items():
            out.problems += checks.check_sequence(points, ALPHA, estimand)
        out.problems += checks.check_band(
            result.points, by_estimand["pate_lower"], by_estimand["pate_upper"], result.truth
        )
        if result.points and by_estimand["pate_lower"] and by_estimand["pate_upper"]:
            last = result.points[-1]
            out.fingerprint = {
                "n": last.n, "lower": last.lower, "upper": last.upper,
                "lower_estimate": last.lower_estimate, "upper_estimate": last.upper_estimate,
                "sigma_lower": by_estimand["pate_lower"][-1].sigma_hat,
                "sigma_upper": by_estimand["pate_upper"][-1].sigma_hat,
                "contains_truth": last.lower <= result.truth <= last.upper,
            }
        return out

    def finish(self) -> list[str]:
        return []


class LateCoverage:
    """run_coverage on the noncompliance DGP: many short LATE streams."""

    def __init__(self, sizes: Sizes, seed: int, inputs: Path):
        self.sizes, self.seed = sizes, seed
        self.params = sim.LateDgpParams.from_seed(DESIGN_SEED)
        self.misses: list[tuple[bool, bool]] = []

    def build(self) -> None:
        """The DGP parameters are the whole input; rows come from sim."""

    def run_round(self, round_no: int, probe) -> Round:
        s = self.sizes
        probe.points.clear()
        probe.generated.clear()
        start = time.perf_counter()
        result = sim.run_coverage(
            dgp="late", estimand="late", reps=s.late_reps, n_max=s.late_rows,
            peek_every=s.late_peek_every, burn_in=s.late_burn_in, alpha=ALPHA,
            seed=round_seed(self.seed, round_no), dgp_params=self.params, keep_logs=True,
        )
        out = Round(wall_s=time.perf_counter() - start, rows=s.late_reps * s.late_rows, ops=1)
        out.first_record = _first_after(probe.generated, [end for _, _, end in probe.points])
        for rep, log in enumerate(result.peek_logs):
            out.problems += checks.check_sequence(log, ALPHA, f"late rep {rep}")
            self.misses.append(checks.rep_misses(log, result.truth, ALPHA))
        if result.peek_logs and result.peek_logs[-1]:
            out.fingerprint = _fingerprint(result.peek_logs[-1][-1].to_record(), result.truth)
        return out

    def finish(self) -> list[str]:
        return checks.check_coverage(self.misses, ALPHA)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

class _StampedText(io.StringIO):
    """Captured stdout that notes when the first text was written."""

    first_write: float | None = None

    def write(self, text: str) -> int:
        if self.first_write is None:
            self.first_write = time.perf_counter()
        return super().write(text)


def run_cli(argv: list[str]) -> tuple[int, _StampedText, str, float]:
    """Run ``seqdml <argv>`` in this process; return code, stdout, stderr, start."""
    out, err = _StampedText(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out, err.getvalue(), start


def write_ate_csv(path: Path, rows: int, sizes: Sizes, seed: int) -> None:
    """Linear outcome, logistic propensity, constant effect: the ATE is
    ``sizes.true_ate`` and both outcome regressions are correctly specified."""
    design = np.random.default_rng([DESIGN_SEED, 0xA7E])
    d = sizes.covariates
    beta = design.standard_normal(d)
    gamma = 0.5 * design.standard_normal(d)
    rng = np.random.default_rng([seed, 0xA7E])
    X = rng.standard_normal((rows, d))
    a = (rng.uniform(size=rows) < 1.0 / (1.0 + np.exp(-(X @ gamma)))).astype(int)
    y = 0.5 + X @ beta + sizes.true_ate * a + sizes.noise_sd * rng.standard_normal(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "a"] + [f"x{j + 1}" for j in range(d)])
        for i in range(rows):
            writer.writerow([repr(float(y[i])), int(a[i])] + [repr(float(v)) for v in X[i]])


class AteMonitor:
    """``seqdml monitor --estimand ate`` over a long CSV, peeking often."""

    name = "ate_monitor"

    def __init__(self, sizes: Sizes, seed: int, inputs: Path):
        self.sizes, self.seed = sizes, seed
        self.csv = inputs / f"{self.name}.csv"
        self.rows, self.burn_in, self.cadence = self._shape()

    def _shape(self):
        s = self.sizes
        return s.ate_rows, s.ate_burn_in, s.ate_peek_every

    def build(self) -> None:
        write_ate_csv(self.csv, self.rows, self.sizes, self.seed)

    def monitor(self, out: Round) -> None:
        code, text, err, start = run_cli([
            "monitor", "--input", str(self.csv), "--estimand", "ate", "--alpha", str(ALPHA),
            "--burn-in", str(self.burn_in), "--peek-every", str(self.cadence),
        ])
        out.wall_s += time.perf_counter() - start
        out.ops += 1
        if code != 0:
            out.failed += 1
            out.errors.append(f"monitor exited {code}: {err.strip()}")
            return
        out.rows += self.rows
        out.first_record.append((start, text.first_write))
        problems, records = checks.check_monitor(
            text.getvalue(), self.rows, self.burn_in, self.cadence, ALPHA,
            self.sizes.true_ate, self.name,
        )
        out.problems += problems
        if records:
            out.fingerprint = _fingerprint(records[-1], self.sizes.true_ate)

    def run_round(self, round_no: int, probe) -> Round:
        out = Round()
        self.monitor(out)
        return out

    def finish(self) -> list[str]:
        return []


class Diagnose(AteMonitor):
    """``seqdml monitor`` then ``seqdml diagnose --estimand ate`` on one CSV.

    The diagnose command peeks once, so the monitor pass supplies the light
    peeks and the first record that every workload reports.
    """

    name = "diagnose"

    def _shape(self):
        s = self.sizes
        return s.diagnose_rows, s.diagnose_burn_in, s.diagnose_peek_every

    def run_round(self, round_no: int, probe) -> Round:
        out = Round()
        self.monitor(out)
        code, text, err, start = run_cli(
            ["diagnose", "--input", str(self.csv), "--estimand", "ate", "--alpha", str(ALPHA)]
        )
        out.wall_s += time.perf_counter() - start
        out.ops += 1
        if code != 0:
            out.failed += 1
            out.errors.append(f"diagnose exited {code}: {err.strip()}")
            return out
        out.rows += self.rows
        out.problems += checks.check_diagnose(text.getvalue(), self.sizes.noise_sd)
        return out


WORKLOADS = {
    "band": Band,
    "late_coverage": LateCoverage,
    "ate_monitor": AteMonitor,
    "diagnose": Diagnose,
}

