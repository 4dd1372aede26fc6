"""Per-layer metrics of the traced run, computed from its spans.

Layers are the package modules; a span's layer is the part of its name
before the first dot.  ``bench`` spans are the benchmark's own job, check
and preparation code.
"""

from __future__ import annotations

from pathlib import Path

from perfstats import Ratio, mean, percentile
from spans import Tracer, children_of, self_times

READOUTS = ("eval_bool", "eval_sr", "eval_dasr", "eval_dsasr", "prd", "robustness_degree_axis")
LAYERS = ("parser", "stl", "scheduling", "qp_builder", "qp_solver", "mpc", "semantics", "cli",
          "bench")
BUILDERS = ("qp_builder.build_problem", "qp_builder.build_sr_baseline")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("qp_solver.calls", "count", "higher"), ("qp_solver.busy_s", "s", "lower"),
     ("qp_solver.ms_p50", "ms", "lower"), ("qp_solver.ms_p99", "ms", "lower"),
     ("qp_solver.iters_sum", "count", "lower"), ("qp_solver.iters_p50", "count", "lower"),
     ("qp_solver.iters_max", "count", "lower"), ("qp_solver.us_per_iter", "us", "lower"),
     ("qp_solver.infeasible_frac", "ratio", "lower"),
     ("qp_solver.iter_limit_frac", "ratio", "lower"),
     ("qp_builder.calls", "count", "higher"), ("qp_builder.busy_s", "s", "lower"),
     ("qp_builder.ms_p50", "ms", "lower"), ("qp_builder.rows_mean", "count", "lower"),
     ("qp_builder.vars_mean", "count", "lower"),
     ("qp_builder.branches_per_step", "count", "lower"),
     ("qp_builder.relax_calls", "count", "lower"),
     ("mpc.steps_solved", "count", "higher"), ("mpc.step_ms_p50", "ms", "lower"),
     ("mpc.step_ms_p99", "ms", "lower"), ("mpc.self_s", "s", "lower"),
     ("mpc.relaxed_frac", "ratio", "lower"), ("mpc.branch_useful_ratio", "ratio", "higher"),
     ("mpc.readout_s", "s", "lower")]
    + [(f"semantics.{r}.{m}", unit, better) for r in READOUTS
       for m, unit, better in (("calls", "count", "higher"), ("busy_s", "s", "lower"),
                               ("us_per_sample", "us", "lower"))]
    + [("cli.emit_trace.ms", "ms", "lower"), ("cli.read_trace.ms", "ms", "lower"),
       ("cli.trace_bytes", "bytes", "lower"), ("cli.from_file.ms", "ms", "lower"),
       ("parser.parse.ms", "ms", "lower"), ("scheduling.compute_schedule.ms", "ms", "lower")]
    + [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    + [("trace.accounted_frac", "ratio", "higher"), ("trace.overhead_frac", "ratio", "lower")]
)


def patch_all(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the package's modules call them."""
    from stlmpc import cli, mpc, scheduling

    def solved(span, args, sol):
        if sol is not None:
            span.attrs.update(iters=sol.iterations, status=sol.status)

    def built(span, args, problems):
        if problems is None:
            return
        problems = problems if isinstance(problems, list) else [problems]
        span.attrs["sizes"] = [(p.n_vars, p.n_rows) for p in problems]

    def samples(span, args, result):
        span.attrs["samples"] = args[0].states.shape[0]

    def written(span, args, result):
        if "error" not in span.attrs:
            span.attrs["bytes"] = Path(args[1]).stat().st_size

    tracer.patch(mpc, "run", "mpc.run")
    tracer.patch(mpc, "build_problem", "qp_builder.build_problem", built)
    tracer.patch(mpc, "build_sr_baseline", "qp_builder.build_sr_baseline", built)
    tracer.patch(mpc, "add_slack_relaxation", "qp_builder.add_slack_relaxation", built)
    tracer.patch(mpc, "solve", "qp_solver.solve", solved)
    for module in (mpc, cli):
        for r in READOUTS:
            tracer.patch(module, r, f"semantics.{r}", samples)
        for f in ("to_pnf", "validate_windows"):
            tracer.patch(module, f, f"stl.{f}")
    for module in (mpc, scheduling):
        tracer.patch(module, "compute_schedule", "scheduling.compute_schedule")
    tracer.patch(cli.ScenarioConfig, "from_file", "cli.from_file")
    tracer.patch(cli, "parse", "parser.parse")
    tracer.patch(cli, "emit_trace", "cli.emit_trace", written)
    tracer.patch(cli, "read_trace", "cli.read_trace")


def _steps(run, kids) -> list[float]:
    """Control-step durations inside one ``mpc.run`` span.

    A step starts at a builder call and ends at the next builder call, at the
    first readout after the loop, or at the end of the run.
    """
    children = sorted(kids.get(run.id, ()), key=lambda s: s.start)
    starts = [c.start for c in children if c.name in BUILDERS]
    readouts = [c.start for c in children if c.layer == "semantics"]
    loop_end = min(readouts) if readouts else run.end
    bounds = starts + [loop_end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def compute(tracer: Tracer, relaxed: int, solved: int, overhead: Ratio) -> dict[str, float | Ratio]:
    """Every metric of PER_LAYER.  ``relaxed``/``solved`` count steps from the
    traces' statuses; spans with a job id form the measured window."""
    spans = tracer.spans
    kids = children_of(spans)
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def ms(name):
        return [s.duration * 1e3 for s in named(name)]

    def busy(items):
        return sum(s.duration for s in items)

    out: dict[str, float | Ratio] = {}
    solves = named("qp_solver.solve")
    iters = [s.attrs.get("iters", 0) for s in solves]
    statuses = [s.attrs.get("status") for s in solves]
    out["qp_solver.calls"] = len(solves)
    out["qp_solver.busy_s"] = busy(solves)
    out["qp_solver.ms_p50"] = percentile(ms("qp_solver.solve"), 50)
    out["qp_solver.ms_p99"] = percentile(ms("qp_solver.solve"), 99)
    out["qp_solver.iters_sum"] = sum(iters)
    out["qp_solver.iters_p50"] = percentile(iters, 50)
    out["qp_solver.iters_max"] = max(iters, default=0)
    out["qp_solver.us_per_iter"] = Ratio(busy(solves) * 1e6, sum(iters))
    out["qp_solver.infeasible_frac"] = Ratio(statuses.count("infeasible"), len(solves))
    out["qp_solver.iter_limit_frac"] = Ratio(statuses.count("iteration-limit"), len(solves))

    builds = [s for name in BUILDERS for s in named(name)]
    relax = named("qp_builder.add_slack_relaxation")
    sizes = [size for s in builds for size in s.attrs.get("sizes", ())]
    out["qp_builder.calls"] = len(builds)
    out["qp_builder.busy_s"] = busy(builds) + busy(relax)
    out["qp_builder.ms_p50"] = percentile([s.duration * 1e3 for s in builds], 50)
    out["qp_builder.rows_mean"] = mean(r for _, r in sizes)
    out["qp_builder.vars_mean"] = mean(v for v, _ in sizes)
    out["qp_builder.branches_per_step"] = Ratio(len(sizes), len(builds))
    out["qp_builder.relax_calls"] = len(relax)

    runs = named("mpc.run")
    steps = [d * 1e3 for run in runs for d in _steps(run, kids)]
    run_ids = {r.id for r in runs}
    out["mpc.steps_solved"] = len(steps)
    out["mpc.step_ms_p50"] = percentile(steps, 50)
    out["mpc.step_ms_p99"] = percentile(steps, 99)
    out["mpc.self_s"] = sum(selfs[r.id] for r in runs)
    out["mpc.relaxed_frac"] = Ratio(relaxed, solved)
    out["mpc.branch_useful_ratio"] = Ratio(len(steps), sum(1 for s in solves if s.parent in run_ids))
    out["mpc.readout_s"] = busy(s for s in spans if s.layer == "semantics" and s.parent in run_ids)

    for r in READOUTS:
        calls = named(f"semantics.{r}")
        out[f"semantics.{r}.calls"] = len(calls)
        out[f"semantics.{r}.busy_s"] = busy(calls)
        out[f"semantics.{r}.us_per_sample"] = Ratio(
            busy(calls) * 1e6, sum(s.attrs.get("samples", 0) for s in calls))

    out["cli.emit_trace.ms"] = percentile(ms("cli.emit_trace"), 50)
    out["cli.read_trace.ms"] = percentile(ms("cli.read_trace"), 50)
    out["cli.trace_bytes"] = mean(s.attrs.get("bytes", 0) for s in named("cli.emit_trace"))
    out["cli.from_file.ms"] = percentile(ms("cli.from_file"), 50)
    out["parser.parse.ms"] = percentile(ms("parser.parse"), 50)
    out["scheduling.compute_schedule.ms"] = percentile(ms("scheduling.compute_schedule"), 50)

    measured = [s for s in spans if s.job is not None]
    roots = [s for s in measured if s.parent is None]
    wall = (max(s.end for s in roots) - min(s.start for s in roots)) if roots else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_share"] = Ratio(
            sum(selfs[s.id] for s in measured if s.layer == layer), wall)
    jobs = [s for s in roots if s.name == "bench.job"]
    job_ids = {s.id for s in jobs}
    inside = _descendants(job_ids, kids)
    calibration = busy(spans[i] for i in inside if spans[i].name == "bench.calibrate")
    out["trace.accounted_frac"] = Ratio(
        sum(selfs[i] for i in inside if spans[i].layer != "bench"), busy(jobs) - calibration)
    out["trace.overhead_frac"] = overhead
    return out


def _descendants(ids, kids) -> set[int]:
    out: set[int] = set()
    todo = list(ids)
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.add(c.id)
            todo.append(c.id)
    return out
