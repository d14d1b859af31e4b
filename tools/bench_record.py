"""Record the benchmark's numbers for this checkout in BENCH_<label>.json.

    python3 tools/bench_record.py --label after
    python3 tools/bench_record.py --label smoke --tiny --out bench-smoke.json

Runs ``python3 bench/run.py --workload W --seed S --seconds 20`` for every
workload at seeds 801-805, then per workload one ``--trace 1`` run at every
seed and one ``--seconds 0`` run at the first seed, all from the root of the
checkout this script sits in. It writes the machine it ran on, the median and
quartiles of every end-to-end metric over the seeds, each per-layer metric
as its median over the traced runs (``value``) beside every run's figure
(``values``), and two inference fingerprints per workload: ``fingerprint``,
of the last round of the last end-to-end run, and ``fingerprint_round0``, of
the ``--seconds 0`` run, which does exactly round 0. How many rounds fit in
20 s depends on speed, so only the second can be compared across checkouts of
different speed. ``--tiny`` runs the benchmark's tiny inputs for 2 s at one
seed: a check that the recorder still reads ``run.py``'s output, not a
measurement.

The metric names come from BENCHMARK.json; a run that fails, reports a
failed operation or incorrect output, or leaves out a listed metric stops
the recording with an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (801, 802, 803, 804, 805)
SECONDS = 20.0
TINY_SECONDS = 2.0


def machine() -> dict:
    import numpy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
         if line.startswith("model name")),
        platform.processor() or None,
    )
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _read_lines(path: str) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except OSError:
        return []


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """One bench/run.py invocation; returns its (detail, result) lines."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    argv += ["--tiny"] if tiny else []
    print("bench_record:", " ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_record: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    try:
        detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        correct, failed, metrics = result["correct"], result["failed"], result["metrics"]
        fingerprint = detail["fingerprint"]
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"bench_record: cannot read the output of {workload} seed {seed}: "
                         f"{exc!r}\n{proc.stdout}") from None
    if not correct or failed:
        raise SystemExit(f"bench_record: {workload} seed {seed} reported correct={correct}, "
                         f"failed={failed}:\n{proc.stderr}")
    if not isinstance(metrics, dict) or not isinstance(fingerprint, dict):
        raise SystemExit(f"bench_record: malformed result of {workload} seed {seed}")
    return detail, result


def metric_values(results: list[dict], name: str) -> list:
    try:
        return [r["metrics"][name]["value"] for r in results]
    except KeyError:
        raise SystemExit(f"bench_record: run.py did not report metric {name!r}") from None


def summary(values: list) -> dict:
    """Median and quartiles over the runs that measured the metric."""
    measured = [v for v in values if v is not None]
    if not measured:
        return {"median": None, "q1": None, "q3": None, "values": values}
    if len(measured) == 1:
        q1 = q3 = measured[0]
    else:
        q1, _, q3 = statistics.quantiles(measured, n=4, method="inclusive")
    return {"median": statistics.median(measured), "q1": q1, "q3": q3, "values": values}


def layer(values: list) -> dict:
    """A per-layer metric: its median over the traced runs, and each run's figure."""
    return {"value": summary(values)["median"], "values": values}


def record(seeds, seconds: float, tiny: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    details: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            detail, result = run(workload, seed, seconds, trace=False, tiny=tiny)
            details[workload].append(detail)
            results[workload].append(result)
    out = {}
    for workload in workloads:
        runs = results[workload]
        traced = [run(workload, seed, seconds, trace=True, tiny=tiny)[1] for seed in seeds]
        round0, _ = run(workload, seeds[0], 0.0, trace=False, tiny=tiny)
        out[workload] = {
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summary(metric_values(runs, m["name"]))}
                for m in spec["end_to_end"]
            },
            "per_layer": {
                m["name"]: {"unit": m["unit"], **layer(metric_values(traced, m["name"]))}
                for m in spec["per_layer"]
            },
            "attempted": [r["attempted"] for r in runs],
            "fingerprint": details[workload][-1]["fingerprint"],
            "fingerprint_round0": round0["fingerprint"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, 2 s, one seed: checks the output format only")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: BENCH_<label>.json at the checkout root)")
    args = parser.parse_args(argv)
    seeds, seconds = (SEEDS[:1], TINY_SECONDS) if args.tiny else (SEEDS, SECONDS)
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    document = {
        "label": args.label,
        "command": f"python3 bench/run.py --seconds {seconds:g}" + (" --tiny" if args.tiny else ""),
        "seeds": list(seeds),
        "machine": machine(),
        "workloads": record(seeds, seconds, args.tiny),
    }
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
