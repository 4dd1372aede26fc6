"""Benchmark of the stlmpc package: closed-loop MPC and offline monitoring.

    python3 perfbench/run.py --workload until_noisy --seed 1 --seconds 36 --trace 0

Runs one workload (``until_noisy``, ``conj_noisy`` or ``monitor_long``, see
``workloads.py`` and ``README.md``) against the sources in ``src/`` of the
checkout this file sits in, checks every output, and prints the metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Exits 1 when an output check fails and 2 when the sources are
missing.  Details, the environment and (traced) the spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import perfstats as ps
import setup_probe
from spans import Tracer

# numpy, scipy and stlmpc are imported only inside the timed set-up in main()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("until_noisy", "conj_noisy", "monitor_long")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6            # extra set-ups in fresh interpreters; setup_s is the median
TRACED_SETUP_REPEATS = 5    # traced scenario loads for the loader's per-layer timings

# (name, unit, better) of every end-to-end metric.
E2E = (("setup_s", "s", "lower"), ("ops_per_s", "1/s", "higher"),
       ("job_s_p50", "s", "lower"), ("job_s_tail", "s", "lower"),
       ("sat_frac", "ratio", "higher"), ("dsasr_mean", "1", "higher"))


@dataclass
class Record:
    input: object
    raw: object
    stats: object


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stlmpc" / "__init__.py").is_file():
        print(f"error: no stlmpc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:        # one process, one BLAS thread
        os.environ[var] = "1"

    setup_first, _, scenarios = setup_probe.timed_setup(args.workload)
    import hostspeed
    import workloads

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.make(args.workload, args.seed, scenarios, workdir)
        if args.trace:
            return traced_run(args, w)
        host = hostspeed.HostSpeed()
        after = host.sample()
        setups = [hostspeed.at_reference(setup_first, after, after)]
        for _ in range(SETUP_PROBES):
            setup_s, _, scale = host.around(lambda: probe_setup(args.workload))
            setups.append(setup_s * scale)
        return untraced_run(args, w, host, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(w, host, seconds=None, inputs=None, tracer=None) -> list[Record]:
    """Jobs one after another, until ``seconds`` have passed or over ``inputs``.

    A job that starts before the deadline runs to completion.  Each of its
    calls is timed between two samples of ``host``'s calibration kernel.
    Preparation and checks sit outside the timed part.
    """
    span = tracer.span if tracer is not None else (lambda name, job=None: contextlib.nullcontext())
    queue = iter(inputs) if inputs is not None else None
    records = []
    start = time.perf_counter()
    while True:
        if queue is not None:
            inp = next(queue, None)
            if inp is None:
                break
        elif time.perf_counter() - start < seconds:
            inp = w.next_input()
        else:
            break
        job = len(records)
        with span("bench.prepare", job):
            w.prepare(inp)
        outs, walls, refs = [], [], []
        with span("bench.job", job):
            for call in w.calls(inp):
                out, wall, scale = host.around(call)
                outs.append(out)
                walls.append(wall)
                refs.append(wall * scale)
        with span("bench.check", job):
            stats = w.check(inp, outs, walls, refs)
        records.append(Record(inp, outs, stats))
    return records


def untraced_run(args, w, host, setups: list[float]) -> int:
    import hostspeed

    records = measure(w, host, seconds=args.seconds)
    jobs = [r.stats for r in records]
    secs = [j.seconds for j in jobs]
    calls = [c for j in jobs for c in j.calls]
    ops = sum(j.ops for j in jobs)
    tail = ps.tail(calls, w.tail_cap)
    sat = [s for j in jobs for s in j.satisfied]
    dsasr = [d for j in jobs for d in j.dsasr]
    metrics = {
        "setup_s": ps.percentile(setups, 50),
        "ops_per_s": ps.percentile([j.ops / j.seconds for j in jobs], 50),
        "job_s_p50": ps.percentile(secs, 50),
        "job_s_tail": tail.value,
        "sat_frac": ps.Ratio(sum(sat), len(sat)),
        "dsasr_mean": ps.mean(dsasr),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.4f}" for s in setups),
        "ops_per_s": f"{w.ops_unit} per second of the median {w.unit}, n={len(jobs)}",
        "job_s_p50": f"{w.unit} time, n={len(secs)}",
        "job_s_tail": f"{w.call_unit} time, {tail.describe()}",
        "sat_frac": metrics["sat_frac"].describe(),
        "dsasr_mean": f"mean over {len(dsasr)} readouts",
    }
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    # plain throughput and per-workload figures; not bounded (see README.md)
    if w.unit == "simulation":
        extra = {"steps_per_s": (ps.Ratio(ops, sum(secs)), "1/s"),
                 "relaxed_steps": (sum(j.relaxed for j in jobs), "count")}
    else:
        extra = {"samples_per_s": (ps.Ratio(ops, sum(secs)), "1/s"),
                 "trace_s_p50": (ps.percentile(calls, 50), f"s  per trace, n={len(calls)}")}
    extra["wall_s_p50"] = (ps.percentile([j.wall_s for j in jobs], 50),
                           f"s  wall time per {w.unit}, n={len(jobs)}")
    extra["failed_frac"] = (ps.Ratio(failed, attempted), "ratio")
    speeds = [hostspeed.REFERENCE_S / k for k in host.samples]
    extra["host_speed"] = (ps.percentile(speeds, 50), (
        f"x reference, median of {len(speeds)} kernel runs, "
        f"p25 {ps.percentile(speeds, 25):.3f}, p75 {ps.percentile(speeds, 75):.3f}"))
    return report(args, w, records, metrics, notes, extra, E2E)


def traced_run(args, w) -> int:
    tracer = Tracer()
    layers.patch_all(tracer)
    import hostspeed
    import workloads

    try:
        for _ in range(TRACED_SETUP_REPEATS):
            with tracer.span("bench.setup"):
                workloads.load_scenarios(workloads.scenario_names(args.workload))
        records = measure(w, hostspeed.HostSpeed(tracer.span), seconds=args.seconds / 2,
                          tracer=tracer)
    finally:
        tracer.unpatch()
    # the same jobs again without tracing, for the tracing overhead
    replay = measure(w, hostspeed.HostSpeed(), inputs=[r.input for r in records])
    mismatch = [i for i, (a, b) in enumerate(zip(records, replay))
                if not w.same_output(a.raw, b.raw)]
    for i in mismatch:
        records[i].stats.problems.append(f"job {i}: untraced replay gave a different output")
    traced_s = sum(r.stats.seconds for r in records)
    untraced_s = sum(r.stats.seconds for r in replay)
    jobs = [r.stats for r in records]
    metrics = layers.compute(tracer, relaxed=sum(j.relaxed for j in jobs),
                             solved=sum(j.ops for j in jobs) if w.unit == "simulation" else 0,
                             overhead=ps.Ratio(traced_s - untraced_s, untraced_s))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    notes = {name: v.describe() for name, v in metrics.items() if isinstance(v, ps.Ratio)}
    notes["trace.overhead_frac"] = (f"{notes['trace.overhead_frac']}: traced minus untraced "
                                    f"job time over untraced, same {len(records)} jobs")
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return report(args, w, records, metrics, notes, {}, layers.PER_LAYER)


def report(args, w, records, metrics, notes, extra, spec) -> int:
    jobs = [r.stats for r in records]
    problems = [p for j in jobs for p in j.problems]
    env = environment(args, w, len(jobs))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} x {w.unit} in {sum(j.wall_s for j in jobs):.2f} s of job time "
          f"({sum(j.seconds for j in jobs):.2f} s at the reference speed)")
    print("env " + json.dumps(env))
    values = {}
    for name, unit, _ in spec:
        v = metrics[name]
        values[name] = v.value if isinstance(v, ps.Ratio) else float(v)
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    for name, (v, unit) in extra.items():
        text = v.describe() if isinstance(v, ps.Ratio) else f"{v:.6g}"
        print(f"{name} = {text} {unit}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {'PASS' if not problems else f'FAIL ({len(problems)} problems)'}")
    result = {"correct": not problems,
              "attempted": sum(j.attempted for j in jobs),
              "failed": sum(j.failed for j in jobs),
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}}
    OUT.mkdir(exist_ok=True)
    details = {"env": env, "result": result,
               "extra": {k: (v.value if isinstance(v, ps.Ratio) else v) for k, (v, _) in extra.items()},
               "jobs": [{"seconds": j.seconds, "wall_s": j.wall_s, "ops": j.ops,
                         "relaxed": j.relaxed}
                        for j in jobs]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


def probe_setup(workload: str) -> float:
    """One set-up in a fresh interpreter, including its import of stlmpc."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def environment(args, w, n_jobs: int) -> dict:
    import numpy
    import scipy

    counts = ({"simulations": n_jobs, "traces": n_jobs} if w.unit == "simulation" else
              {"passes": n_jobs, "traces": n_jobs * len(w.recordings),
               "monitor_calls": n_jobs * len(w.order)})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "python_threads": threading.active_count(),
            "os_threads": len(os.listdir("/proc/self/task")),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **counts}


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
