"""Time one set-up: import stlmpc and load a workload's scenarios.

Run as a script it prints ``{"setup_s": ...}``; the benchmark runs it in
fresh interpreters so that every set-up sample pays the import.

    python3 perfbench/setup_probe.py <workload>
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def timed_setup(workload: str):
    """Return (seconds, stlmpc module, loaded scenarios).

    Loading means ``ScenarioConfig.from_file`` (parse, to_pnf,
    validate_windows) and ``compute_schedule`` for every scenario the
    workload uses.  Nothing that imports numpy may run before this.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import stlmpc
    t1 = time.perf_counter()
    if not Path(stlmpc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"stlmpc imported from {stlmpc.__file__}, not from {SRC}")
    import workloads

    t2 = time.perf_counter()
    scenarios = workloads.load_scenarios(workloads.scenario_names(workload))
    t3 = time.perf_counter()
    return (t1 - t0) + (t3 - t2), stlmpc, scenarios


if __name__ == "__main__":
    seconds, _, _ = timed_setup(sys.argv[1])
    print(json.dumps({"setup_s": seconds}))
