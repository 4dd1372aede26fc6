"""Print one closed-loop quality line per noisy preset over a range of noise seeds.

Run from the repository root:

    PYTHONPATH=src python tests/quality_sweep.py --seeds 3000-3199 > quality.txt

Each line reads, for example (one line, wrapped here),

    two_tank_phi3_noisy seeds=3000-3199 satisfied=198/200 dsasr_mean=1.14155
    relaxed=16 iteration_limit=0 solves=10016

``satisfied`` counts the runs whose readout satisfies the formula,
``dsasr_mean`` averages their dsasr readout, ``relaxed`` and
``iteration_limit`` count control steps by status, and ``solves`` counts the
solver calls, one per built branch and one per relaxed branch.  Compare two
checkouts in one step with

    PYTHONPATH=src python tests/quality_sweep.py --seeds 3000-3199 --against quality.txt

which prints under each line the saved line of the same preset and seeds.
Unlike ``trace_corpus.py``, a difference is not an error: a change may move
quality on purpose, and the lines show by how much.  BLAS runs on one thread.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

from stlmpc import cli, mpc  # noqa: E402

NOISY = ("two_tank_phi1_noisy", "two_tank_phi2_noisy", "two_tank_phi3_noisy")


def seed_range(text: str) -> range:
    """``A-B`` (both included) or a single seed ``A``."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def sweep(name: str, seeds: range) -> str:
    """The quality line of one preset over the noise seeds."""
    cfg = cli.ScenarioConfig.from_file(cli.preset_path(name))
    satisfied, dsasr, statuses = 0, [], []
    with mock.patch.object(mpc, "solve", wraps=mpc.solve) as solve:
        for seed in seeds:
            trace = mpc.run(cfg.system, cfg.formula, cfg.table, cfg.run_config,
                            dataclasses.replace(cfg.noise, seed=seed))
            satisfied += trace.readout.satisfied is True
            if trace.readout.dsasr is not None:
                dsasr.append(trace.readout.dsasr)
            statuses.extend(trace.statuses)
    return (f"{name} seeds={seeds.start}-{seeds.stop - 1} satisfied={satisfied}/{len(seeds)} "
            f"dsasr_mean={np.mean(dsasr) if dsasr else float('nan'):.5f} "
            f"relaxed={statuses.count('relaxed')} "
            f"iteration_limit={statuses.count('iteration-limit')} solves={solve.call_count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-19"),
                        help="noise seeds, A-B with both ends included (default 0-19)")
    parser.add_argument("--against", metavar="FILE",
                        help="show the saved line of the same preset and seeds under each line")
    args = parser.parse_args(argv)
    saved = {}
    if args.against is not None:
        with open(args.against) as f:
            saved = {tuple(line.split()[:2]): line.strip() for line in f if line.strip()}
    for name in NOISY:
        line = sweep(name, args.seeds)
        print(line, flush=True)
        if args.against is not None:
            print("  saved", saved.get(tuple(line.split()[:2]), "(none)"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
