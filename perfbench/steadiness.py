"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/steadiness.py --workload conj_noisy --seeds 1-10 [--seconds 50]

For every end-to-end metric it prints the median and the distance between
the first and third quartile as a share of the median, next to the bound
in BENCHMARK.json.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from perfstats import quartile_spread

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                             capture_output=True, text=True, timeout=600)
        result = json.loads(out.stdout.splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v:.5g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{m['name']}: median {statistics.median(vals):.6g} {m['unit']}, "
              f"spread {spread:.3f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
