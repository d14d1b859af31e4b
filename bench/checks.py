"""Correctness checks on what the program returned.

Each check recomputes a quantity with this file's own arithmetic, or tests
a property the method must have; none compares against stored output. A
check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from statistics import NormalDist

# (upper - lower) / 2 loses about ulp(|theta|) to cancellation, far below this.
RADIUS_RTOL = 1e-9
# Holdout RMSE of a correctly specified outcome model against the noise sd.
RMSE_MARGIN = 0.10
# Gateaux derivative of the AIPW score in g1 or g0; the plug-in score has 1.
ORTHOGONALITY_LIMIT = 0.10
MIN_BAND_WIDTH = 0.1


def tuned_rho(alpha: float, m: int, sigma_sq: float) -> float:
    """The mixture scale aimed at the first peek m (the paper's tuning rule)."""
    l = -2.0 * math.log(alpha)
    return math.sqrt((l + math.log(l) + 1.0) / (sigma_sq * m * math.log(max(m, math.e))))


def mixture_radius(n: int, rho: float, alpha: float, sigma: float) -> float:
    """sigma * sqrt(2(n rho^2 + 1)/(n^2 rho^2) * log(sqrt(n rho^2 + 1)/alpha))."""
    r2 = rho * rho
    return sigma * math.sqrt(2.0 * (n * r2 + 1.0) / (n * n * r2)
                             * math.log(math.sqrt(n * r2 + 1.0) / alpha))


def as_record(point) -> dict:
    """A CsPoint or an NDJSON peek record, as the record's field names."""
    return point if isinstance(point, dict) else point.to_record()


def check_sequence(points, alpha: float, label: str) -> list[str]:
    """Raw radius from the mixture formula, and running intersections.

    ``points`` are one stream's successful peeks in order. rho is tuned at
    the first of them, where the engine tunes it.
    """
    recs = [as_record(p) for p in points]
    if not recs:
        return [f"{label}: no peeks"]
    problems = []
    rho = tuned_rho(alpha, recs[0]["n"], recs[0]["sigma"] ** 2)
    lo_run, hi_run = -math.inf, math.inf
    prev = None
    for rec in recs:
        n = rec["n"]
        expected = mixture_radius(n, rho, alpha, rec["sigma"])
        half = 0.5 * (rec["upper"] - rec["lower"])
        centre = 0.5 * (rec["upper"] + rec["lower"])
        if not math.isclose(half, expected, rel_tol=RADIUS_RTOL):
            problems.append(f"{label} n={n}: half-width {half!r} != mixture radius {expected!r}")
        if not math.isclose(centre, rec["estimate"], rel_tol=RADIUS_RTOL, abs_tol=RADIUS_RTOL * half):
            problems.append(f"{label} n={n}: interval not centred on the estimate")
        lo_run = max(lo_run, rec["lower"])
        hi_run = min(hi_run, rec["upper"])
        if rec["lower_int"] != lo_run or rec["upper_int"] != hi_run:
            problems.append(f"{label} n={n}: intersected bounds are not the running max/min")
        if prev is not None and (rec["lower_int"] < prev["lower_int"]
                                 or rec["upper_int"] > prev["upper_int"]):
            problems.append(f"{label} n={n}: intersected bounds are not nested")
        prev = rec
    return problems


def contains(rec: dict, truth: float) -> bool:
    return rec["lower_int"] <= truth <= rec["upper_int"]


def check_band(band_points, lower_points, upper_points, truth: float) -> list[str]:
    """Band containment at every point, final width floor, and that each
    band edge is the matching stream's intersected bound at that n."""
    if not band_points:
        return ["band: no band points"]
    problems = []
    lower_at = {p.n: p for p in lower_points}
    upper_at = {p.n: p for p in upper_points}
    for bp in band_points:
        if not (bp.lower <= truth <= bp.upper):
            problems.append(f"band n={bp.n}: [{bp.lower!r}, {bp.upper!r}] excludes tau={truth}")
        if bp.n not in lower_at or bp.n not in upper_at:
            problems.append(f"band n={bp.n}: no matching peek on both streams")
        elif bp.lower != lower_at[bp.n].lower_int or bp.upper != upper_at[bp.n].upper_int:
            problems.append(f"band n={bp.n}: edges differ from the streams' intersected bounds")
    width = band_points[-1].upper - band_points[-1].lower
    if width < MIN_BAND_WIDTH:
        problems.append(f"band: final width {width!r} < {MIN_BAND_WIDTH}")
    return problems


def rep_misses(points, truth: float, alpha: float) -> tuple[bool, bool]:
    """Whether one rep's confidence sequence, and its per-peek batch
    interval theta +/- z sigma / sqrt(n), ever excluded the truth."""
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    recs = [as_record(p) for p in points]
    cs_miss = any(not contains(r, truth) for r in recs)
    batch_miss = any(
        abs(r["estimate"] - truth) > z * r["sigma"] / math.sqrt(r["n"]) for r in recs
    )
    return cs_miss, batch_miss


def check_coverage(misses: list[tuple[bool, bool]], alpha: float) -> list[str]:
    """Cumulative miscoverage over all reps: the sequence's within
    alpha + 2 sqrt(alpha(1 - alpha)/reps) and no higher than the batch's."""
    reps = len(misses)
    if reps == 0:
        return ["late_coverage: no reps"]
    cs = sum(m[0] for m in misses) / reps
    batch = sum(m[1] for m in misses) / reps
    limit = alpha + 2.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
    problems = []
    if cs > limit:
        problems.append(f"late_coverage: miscoverage {cs} over {reps} reps exceeds {limit}")
    if cs > batch:
        problems.append(f"late_coverage: miscoverage {cs} above the batch interval's {batch}")
    return problems


def expected_peeks(rows: int, burn_in: int, cadence: int) -> list[int]:
    """Sample sizes at which ``seqdml monitor`` peeks: the cadence grid from
    burn-in, plus the last row when it is off the grid."""
    grid = list(range(burn_in, rows + 1, cadence))
    if grid and grid[-1] != rows:
        grid.append(rows)
    return grid


def check_monitor(text: str, rows: int, burn_in: int, cadence: int, alpha: float,
                  truth: float, label: str) -> tuple[list[str], list[dict]]:
    """Record count and sample sizes, summary line, sequence checks and
    containment of the true ATE by the final intersected interval."""
    lines = text.splitlines()
    if not lines:
        return [f"{label}: no output"], []
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])
    problems = []
    grid = expected_peeks(rows, burn_in, cadence)
    if [r["n"] for r in records] != grid:
        problems.append(f"{label}: {len(records)} records, expected {len(grid)} at the cadence")
    if summary.get("n") != rows or summary.get("peeks") != len(records):
        problems.append(f"{label}: summary {summary} does not match {rows} rows")
    problems += check_sequence(records, alpha, label)
    if records and not contains(records[-1], truth):
        problems.append(f"{label}: final interval excludes the true ATE {truth}")
    return problems, records


_FLOAT = r"([-+0-9.eE]+|nan|inf)"


def check_diagnose(text: str, noise_sd: float) -> list[str]:
    """Identification passes, the ATE Jacobian's singular values are 1,
    g1/g0 holdout RMSE is near the noise sd, and the corrected score's
    derivatives in g1 and g0 are far below the plug-in score's 1."""
    problems = []
    if "identification: pass" not in text.splitlines():
        problems.append("diagnose: identification did not pass")
    jac = re.search(rf"jacobian singular values: min={_FLOAT} max={_FLOAT}", text)
    if not jac or any(abs(float(v) - 1.0) > 1e-12 for v in jac.groups()):
        problems.append("diagnose: ATE Jacobian singular values are not 1")
    for name in ("g1", "g0"):
        traj = re.search(rf"^holdout rmse {name}: .*\(\d+,{_FLOAT}\)$", text, re.M)
        if not traj or abs(float(traj.group(1)) - noise_sd) > RMSE_MARGIN * noise_sd:
            problems.append(f"diagnose: holdout rmse of {name} not within "
                            f"{RMSE_MARGIN:.0%} of the noise sd {noise_sd}")
        deriv = re.search(rf"^orthogonality derivative wrt {name}: {_FLOAT}$", text, re.M)
        if not deriv or not abs(float(deriv.group(1))) < ORTHOGONALITY_LIMIT:
            problems.append(f"diagnose: orthogonality derivative wrt {name} not below "
                            f"{ORTHOGONALITY_LIMIT}")
    return problems
