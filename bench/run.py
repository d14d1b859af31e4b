"""seqdml benchmark: one workload per invocation, end to end or traced.

    python3 bench/run.py --workload ate_monitor --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``. The workload repeats whole rounds until ``--seconds`` have passed,
checks every round's output, and prints a detail line (sample counts,
deferred peeks, inference fingerprint, problems) and then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics and the tracing overhead.
End-to-end times are scaled to a reference speed (see bench/speed.py); the
detail line keeps them unscaled too. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("band", "late_coverage", "ate_monitor", "diagnose")
SETUPS = 3
# Percentiles a tail may be reported at; the highest with >= 10 samples above.
# The rungs are far apart so that a run with a round more or less than
# another reports the same percentile. There is no 99th: on light peeks of
# one or two milliseconds it follows the machine's momentary stalls, and it
# spread by 0.3 of its median over ten late_coverage runs.
TAIL_LADDER = (75.0, 90.0)
TAIL_BEYOND = 10

# Small linear-algebra calls only; extra BLAS threads add jitter, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_library() -> None:
    """Import seqdml from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "seqdml" / "__init__.py").is_file():
        raise SystemExit(f"bench: no seqdml sources under {src}")
    sys.path.insert(0, str(src))
    import seqdml

    if Path(seqdml.__file__).resolve().parent != (src / "seqdml").resolve():
        raise SystemExit(f"bench: seqdml was imported from {seqdml.__file__}, not {src}")


def median(values):
    return statistics.median(values) if values else math.nan


def tail(values: list[float]) -> tuple[float, float | None]:
    """(value, percentile) at the highest ladder percentile that leaves at
    least TAIL_BEYOND samples above it (nearest rank); None below 40 samples."""
    ordered = sorted(values)
    chosen = None
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= TAIL_BEYOND:
            chosen = (ordered[rank - 1], pct)
    return chosen if chosen else (math.nan, None)


def time_setups(workload: str, seed: int, inputs: Path, tiny: bool) -> list[float]:
    """Wall time of SETUPS fresh interpreters that import seqdml and build the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed), "--inputs", str(inputs)]
    argv += ["--tiny"] if tiny else []
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=150, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def measure(workload, seconds: float, trace: bool, speed):
    """Run whole rounds for ``seconds``; with ``trace``, every second round
    runs under the layer tracer (at least one of each). ``speed`` samples
    the reference work between rounds and inside untraced ones."""
    from tracer import Patches, PeekProbe, Tracer
    from workloads import Round

    probe, tracer = PeekProbe(after_peek=speed.after_peek), Tracer() if trace else None
    rounds = []
    deadline = time.perf_counter() + seconds
    speed.bracket()
    with Patches() as base:
        probe.install(base)
        while True:
            traced = trace and len(rounds) % 2 == 1
            refits_before = probe.refits
            light, refit = len(probe.light), len(probe.refit)
            # Sampling inside a traced round would land in the peek's span.
            speed.inner = not traced
            start = time.perf_counter()
            try:
                if traced:
                    with Patches() as layers:
                        tracer.install(layers)
                        result = workload.run_round(len(rounds), probe)
                else:
                    result = workload.run_round(len(rounds), probe)
            except Exception:
                result = Round(ops=1, failed=1, errors=[traceback.format_exc()])
            result.start, result.end = start, time.perf_counter()
            speed.inner = False
            result.traced = traced
            result.refits = probe.refits - refits_before
            result.light = probe.light[light:]
            result.refit = probe.refit[refit:]
            speed.bracket()
            rounds.append(result)
            if time.perf_counter() >= deadline and len(rounds) >= (2 if trace else 1):
                break
    return probe, tracer, rounds


def end_to_end(rounds, setup_times, speed, scale=True) -> tuple[dict, dict]:
    """End-to-end metrics, each time net of reference sampling inside it and,
    with ``scale``, multiplied by the machine's speed when it was taken.

    ``setup_s`` is never scaled: process start and imports do not follow the
    reference work's speed, and scaled set-up times spread more than raw ones.
    """
    paused = speed.paused

    def scaled(duration, t):
        return duration * speed.at(t) if scale else duration

    light = [1e3 * scaled(d, t) for r in rounds for t, d in r.light]
    refit = [1e3 * scaled(d, t) for r in rounds for t, d in r.refit]
    firsts = [scaled(b - a - paused(a, b), b) for r in rounds for a, b in r.first_record]
    wall = 0.0
    for r in rounds:
        net = r.wall_s - paused(r.start, r.end)
        wall += net * speed.over(r.start, r.end) if scale else net
    tail_ms, tail_pct = tail(light)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "rows_per_s": (sum(r.rows for r in rounds) / wall, "rows/s"),
        "peek_light_ms": (median(light), "ms"),
        "peek_light_tail_ms": (tail_ms, "ms"),
        "peek_refit_ms": (median(refit), "ms"),
        "first_record_s": (median(firsts), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setups": len(setup_times), "rounds": len(rounds), "peek_light": len(light),
               "peek_refit": len(refit), "first_record": len(firsts),
               "peek_light_tail_percentile": tail_pct}
    return metrics, samples


PER_LAYER = (
    # (metric, unit, span name, field): field is self_s, calls or rows.
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("sim.generate_s", "s", "sim.generate", "self_s"),
    ("scores.observation_s", "s", "scores.observation", "self_s"),
    ("scores.observations", "count", "scores.observation", "calls"),
    ("scores.kernel_s", "s", "scores.kernel", "self_s"),
    ("scores.kernel_rows", "count", "scores.kernel", "rows"),
    ("scores.gateaux_s", "s", "scores.gateaux", "self_s"),
    ("scores.score_calls", "count", "scores.score_calls", "calls"),
    ("engine.push_s", "s", "engine.push", "self_s"),
    ("engine.pushes", "count", "engine.push", "calls"),
    ("engine.peek_self_s", "s", "engine.peek", "self_s"),
    ("engine.peeks", "count", "engine.peek", "calls"),
    ("engine.nuisance_evals_s", "s", "engine.nuisance_evals", "self_s"),
    ("nuisance.fit_gbt_s", "s", "nuisance.fit_gbt", "self_s"),
    ("nuisance.fit_gbt_calls", "count", "nuisance.fit_gbt", "calls"),
    ("nuisance.gbt_fit_rows", "count", "nuisance.fit_gbt", "rows"),
    ("nuisance.predict_gbt_s", "s", "nuisance.predict_gbt", "self_s"),
    ("nuisance.gbt_predict_rows", "count", "nuisance.predict_gbt", "rows"),
    ("nuisance.fit_logistic_s", "s", "nuisance.fit_logistic", "self_s"),
    ("nuisance.fit_logistic_calls", "count", "nuisance.fit_logistic", "calls"),
    ("nuisance.fit_ridge_s", "s", "nuisance.fit_ridge", "self_s"),
    ("nuisance.fit_ridge_calls", "count", "nuisance.fit_ridge", "calls"),
    ("nuisance.predict_linear_s", "s", "nuisance.predict_linear", "self_s"),
    ("crossfit.solve_s", "s", "crossfit.solve", "self_s"),
    ("crossfit.solves", "count", "crossfit.solve", "calls"),
    ("crossfit.solve_rows", "count", "crossfit.solve", "rows"),
    ("boundary.self_s", "s", "boundary", "self_s"),
    ("boundary.calls", "count", "boundary", "calls"),
)


def per_layer(tracer, rounds, speed) -> tuple[dict, dict]:
    """Per-layer totals averaged over the traced rounds, and the overhead."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    k = len(traced)
    metrics = {}
    for metric, unit, span, fieldname in PER_LAYER:
        metrics[metric] = (getattr(tracer, fieldname)[span] / k, unit)
    metrics["engine.refits"] = (sum(r.refits for r in traced) / k, "count")
    plain_wall = median([r.wall_s - speed.paused(r.start, r.end) for r in plain])
    overhead = 100.0 * (median([r.wall_s for r in traced]) / plain_wall - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    samples = {"rounds": len(rounds), "traced_rounds": k, "spans_kept": len(tracer.spans)}
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import seqdml and build the inputs into --inputs, then exit")
    parser.add_argument("--inputs", type=Path, default=None)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_only and args.inputs is None:
        parser.error("--setup-only needs --inputs")

    _import_library()
    import workloads
    from speed import SpeedLog

    sizes = workloads.TINY if args.tiny else workloads.FULL
    if args.setup_only:
        args.inputs.mkdir(parents=True, exist_ok=True)
        workloads.WORKLOADS[args.workload](sizes, args.seed, args.inputs).build()
        return 0

    inputs = OUT_DIR / f"inputs-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = time_setups(args.workload, args.seed, inputs, args.tiny)
        speed = SpeedLog()
        workload = workloads.WORKLOADS[args.workload](sizes, args.seed, inputs)
        probe, tracer, rounds = measure(workload, args.seconds, bool(args.trace), speed)
        problems = [p for r in rounds for p in r.problems] + workload.finish()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if args.trace:
        metrics, samples = per_layer(tracer, rounds, speed)
        tracer.write(OUT_DIR / f"trace-{args.workload}.ndjson")
    else:
        metrics, samples = end_to_end(rounds, setup_times, speed)
        unscaled, _ = end_to_end(rounds, setup_times, speed, scale=False)
        samples["speed"] = [round(speed.over(r.start, r.end), 4) for r in rounds]
        samples["unscaled"] = {name: value for name, (value, _unit) in unscaled.items()}
    attempted = probe.attempted + sum(r.ops for r in rounds)
    failed = probe.failed + sum(r.failed for r in rounds)
    for r in rounds:
        for error in r.errors:
            print(f"bench: failed operation: {error}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"bench: incorrect output: {problem}", file=sys.stderr)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "deferred": probe.deferred, "failed": failed,
        "samples": samples,
        "fingerprint": next((r.fingerprint for r in reversed(rounds) if r.fingerprint), {}),
        "problems": len(problems),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": None if math.isnan(value) else value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
