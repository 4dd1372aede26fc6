"""Print the median time of ``cli.read_trace`` per recording length.

Run from the repository root:

    PYTHONPATH=src python tests/read_timing.py > read_times.txt

Each line reads, for example (one line, wrapped here),

    read_trace rows=3001 median_ms=5.412 q1_ms=5.366 q3_ms=5.489
    us_per_row=1.803 reads=200

for recordings of 51, 201, 1001 and 3001 generated rows (the lengths of the
``monitor_long`` benchmark workload), written by ``cli.emit_trace``.
``median_ms``, ``q1_ms`` and ``q3_ms`` are the median and quartiles of the
wall time of one read, and ``us_per_row`` is the median divided by the row
count.  Each round reads every length once, starting from a different
length in turn, so a slow spell of the host falls on every length alike.
The benchmark's ``cli.read_trace.ms`` is one p50 over all four lengths,
which a change in one length class barely moves.  Compare two checkouts in
one step with

    PYTHONPATH=src python tests/read_timing.py --against read_times.txt

which prints under each line the saved line of the same length.  BLAS runs
on one thread.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from stlmpc import cli  # noqa: E402
from trace_corpus import recording  # noqa: E402

ROWS = (51, 201, 1001, 3001)
READS = 200                     # timed reads per length


def read_times(paths: list[Path], reads: int) -> list[list[float]]:
    """Wall times of ``reads`` reads of each path, in rotated order."""
    times = [[] for _ in paths]
    for path in paths:
        cli.read_trace(path)
    for r in range(reads):
        for i in (np.arange(len(paths)) + r) % len(paths):
            start = time.perf_counter()
            cli.read_trace(paths[i])
            times[i].append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="show the saved line of the same length under each line")
    args = parser.parse_args(argv)
    saved = {}
    if args.against is not None:
        with open(args.against) as f:
            saved = {tuple(line.split()[:2]): line.strip() for line in f if line.strip()}
    cfg = cli.ScenarioConfig.from_file(cli.preset_path("two_tank_phi1"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"rec{rows}.csv" for rows in ROWS]
        for rows, path in zip(ROWS, paths):
            cli.emit_trace(recording(cfg.system, rows, ""), path)
        times = read_times(paths, READS)
    for rows, t in zip(ROWS, times):
        q1, median, q3 = np.percentile(t, (25, 50, 75)) * 1e3
        line = (f"read_trace rows={rows} median_ms={median:.3f} q1_ms={q1:.3f} q3_ms={q3:.3f} "
                f"us_per_row={median * 1e3 / rows:.3f} reads={len(t)}")
        print(line, flush=True)
        if args.against is not None:
            print("  saved", saved.get(tuple(line.split()[:2]), "(none)"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
