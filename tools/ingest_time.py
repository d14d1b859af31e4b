"""Time the CLI's CSV ingest on the benchmark's 50 000-row ATE CSV.

    python3 tools/ingest_time.py [--seed 801] [--repeats 9]

Writes the CSV that ``bench/run.py --workload ate_monitor --seed S`` builds,
then reads it through ``seqdml.cli._read_blocks`` in the blocks that
``seqdml monitor --burn-in 500 --peek-every 250`` reads (a block ends at
each due peek) and pushes each into a ``Stream`` with ``push_batch``. No
peek is made, so the time is parsing and pushing alone. Prints the median
and quartiles of the wall time over the repeats, and the number of rows
that went through the row parser, as one JSON line. The library is
imported from the ``src/`` beside this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from seqdml import Stream, StreamConfig, cli  # noqa: E402
import workloads  # noqa: E402


def parse_and_push(path: str, burn_in: int, cadence: int) -> int:
    """Read and push the whole CSV; return the number of rows pushed."""
    def next_peek(n: int) -> int:
        return burn_in if n < burn_in else n + cadence - (n - burn_in) % cadence

    stream = Stream(StreamConfig(estimand="ate", burn_in=burn_in))
    for columns in cli._read_blocks(path, "ate", next_peek):
        stream.push_batch(*columns)
    return stream.n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=801)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    sizes = workloads.FULL
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ate_monitor.csv")
        workloads.write_ate_csv(Path(path), sizes.ate_rows, sizes, args.seed)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            rows = parse_and_push(path, sizes.ate_burn_in, sizes.ate_peek_every)
            times.append(time.perf_counter() - start)
        # One more pass, untimed, counts the rows that went through the row parser.
        row_values, row_parsed = cli._row_values, []
        cli._row_values = lambda *args: row_parsed.append(1) or row_values(*args)
        try:
            parse_and_push(path, sizes.ate_burn_in, sizes.ate_peek_every)
        finally:
            cli._row_values = row_values
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    print(json.dumps({
        "rows": rows, "seed": args.seed, "repeats": args.repeats,
        "median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
        "rows_through_the_row_parser": len(row_parsed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
