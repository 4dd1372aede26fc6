"""The three workloads: inputs derived from the seed, one timed job, its checks.

Each workload is one caller in a closed loop: the next job starts only
after the previous one has finished.

* ``until_noisy`` and ``conj_noisy``: a job is one simulation of a noisy
  preset (``mpc.run``) followed by writing its trace (``cli.emit_trace``),
  which is what ``stlmpc run`` does.  Every job draws a fresh noise seed.
* ``monitor_long``: a job is one monitoring pass.  A pass generates one
  recording per length class, writes each as a trace file (untimed), then
  does what ``stlmpc monitor`` does for every (recording, preset formula)
  pair: ``read_trace`` and the robustness readouts.

A job is a list of calls (one simulation, or one monitor call per pair);
the benchmark times each call between two host-speed calibrations (see
``hostspeed.py``).  Calls go through module attributes (``mpc.run``,
``cli.read_trace`` ...) so that the traced run sees them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stlmpc import cli, mpc, qp_solver, scheduling, semantics, stl

import checks

WORKLOADS = ("until_noisy", "conj_noisy", "monitor_long")
CLOSED_LOOP = {"until_noisy": "two_tank_phi2_noisy", "conj_noisy": "two_tank_phi3_noisy"}
MONITOR_PRESETS = ("two_tank_phi1", "two_tank_phi2", "two_tank_phi3", "example2_dasr")
SOLVED = ("optimal", "relaxed", "iteration-limit")

# Recording lengths of one monitoring pass, in samples: the size `stlmpc
# run` writes for a 600 s scenario, then longer recordings.
RECORDING_SAMPLES = (51, 201, 1001, 3001)
# Input fault of a recording; pass p gives length class i the variant
# (p + i) mod 3, so every pass holds the same mix of satisfying and violating
# pairs and sat_frac does not depend on the seed.
VARIANTS = ("nominal", "drop", "overshoot")
FAULT_STEPS = slice(5, 40)          # covers the event windows of phi1 and example2
LEVELS = (1.6, 2.6)                 # input band keeping x1 in [2.1, 3.5]
FAULT_INPUT = {"drop": 0.3, "overshoot": 4.5}
RECORDING_NOISE = 0.02              # small, so each pair's verdict is set by its variant


def scenario_names(workload: str) -> tuple[str, ...]:
    if workload in CLOSED_LOOP:
        return (CLOSED_LOOP[workload],)
    if workload == "monitor_long":
        return MONITOR_PRESETS
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Scenario:
    name: str
    cfg: cli.ScenarioConfig
    schedule: object | None


def load_scenarios(names) -> list[Scenario]:
    out = []
    for name in names:
        cfg = cli.ScenarioConfig.from_file(cli.preset_path(name))
        windows = stl.collect_event_ops(stl.unwrap(cfg.formula))
        sched = scheduling.compute_schedule(windows, cfg.system.grid) if windows else None
        out.append(Scenario(name, cfg, sched))
    return out


@dataclass
class JobStats:
    """What one job did, for the end-to-end metrics."""

    seconds: float                # at the reference speed
    wall_s: float
    ops: int                      # solved control steps, or samples x readouts
    attempted: int
    failed: int
    satisfied: list[bool] = field(default_factory=list)
    dsasr: list[float] = field(default_factory=list)
    # time of each timed call at the reference speed: one simulation, or one
    # monitored trace
    calls: list[float] = field(default_factory=list)
    relaxed: int = 0
    problems: list[str] = field(default_factory=list)


class ClosedLoop:
    """Simulations of one noisy preset, one fresh noise seed per job."""

    unit = "simulation"
    call_unit = "simulation"
    ops_unit = "solved steps"
    # A 50 s run completes 40 to 100 simulations: p75 always has ten beyond
    # it, p90 only sometimes, and p90 sits where the slack-path seeds begin.
    tail_cap = 75.0

    def __init__(self, workload: str, seed: int, scenarios: list[Scenario], workdir: Path):
        (self.scenario,) = scenarios
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.path = workdir / f"{workload}_trace.csv"

    def next_input(self) -> int:
        return int(self.rng.integers(2**31))

    def prepare(self, noise_seed: int) -> None:
        pass

    def calls(self, noise_seed: int):
        return [lambda: self._simulate(noise_seed)]

    def _simulate(self, noise_seed: int):
        cfg = self.scenario.cfg
        noise = dataclasses.replace(cfg.noise, seed=noise_seed)
        try:
            trace = mpc.run(cfg.system, cfg.formula, cfg.table, cfg.run_config, noise)
        except (mpc.ControlError, qp_solver.SolverError) as exc:
            return exc
        cli.emit_trace(trace, self.path)
        return trace

    def check(self, noise_seed: int, outs, walls, refs) -> JobStats:
        cfg = self.scenario.cfg
        steps = cfg.run_config.sim_steps
        (trace,), seconds, wall_s = outs, sum(refs), sum(walls)
        if isinstance(trace, Exception):
            # the simulation returns no trace, so all its steps are lost
            return JobStats(seconds, wall_s, 0, steps, steps)
        noise = dataclasses.replace(cfg.noise, seed=noise_seed)
        problems = checks.closed_loop(trace, self.path, cfg, noise)
        statuses = trace.statuses[:-1]
        solved = sum(s in SOLVED for s in statuses)
        r = trace.readout
        return JobStats(seconds, wall_s, solved, solved, statuses.count("iteration-limit"),
                        calls=[seconds],
                        satisfied=[bool(r.satisfied)], dsasr=[float(r.dsasr)],
                        relaxed=statuses.count("relaxed"), problems=problems)

    def same_output(self, outs_a, outs_b) -> bool:
        (a,), (b,) = outs_a, outs_b
        if isinstance(a, Exception) or isinstance(b, Exception):
            return type(a) is type(b)
        return (np.array_equal(a.states, b.states) and np.array_equal(a.inputs, b.inputs)
                and a.statuses == b.statuses)


@dataclass
class Recording:
    path: Path
    samples: int


class Monitor:
    """Monitoring passes over freshly generated recordings of the two-tank plant."""

    unit = "pass"
    call_unit = "trace"
    ops_unit = "sample-readouts"
    # A 50 s run monitors 128 to 208 traces: p90 always has ten beyond it,
    # p95 only sometimes, and it jumps to the costliest (length, formula) cell.
    tail_cap = 90.0

    def __init__(self, workload: str, seed: int, scenarios: list[Scenario], workdir: Path):
        self.scenarios = scenarios
        self.seed_key = [seed, WORKLOADS.index(workload)]
        self.workdir = workdir
        self.system = scenarios[0].cfg.system
        self.passes = 0
        self.recordings: list[Recording] = []
        self.order: list[tuple[int, int]] = []
        self.prepare_problems: list[str] = []

    def next_input(self) -> int:
        self.passes += 1
        return self.passes - 1

    def prepare(self, pass_index: int) -> None:
        """Generate, write and check the pass's recordings, and fix the order of
        its (recording, scenario) pairs; untimed, and the same on a replay."""
        rng = np.random.default_rng(self.seed_key + [pass_index])
        self.recordings = []
        self.prepare_problems = []
        for i, samples in enumerate(RECORDING_SAMPLES):
            variant = VARIANTS[(pass_index + i) % len(VARIANTS)]
            trace = self._generate(rng, samples, variant)
            path = self.workdir / f"monitor_rec{i}.csv"
            cli.emit_trace(trace, path)
            self.prepare_problems += checks.recording(trace, path, self.system)
            self.recordings.append(Recording(path, samples))
        pairs = [(i, j) for i in range(len(RECORDING_SAMPLES)) for j in range(len(self.scenarios))]
        self.order = [pairs[k] for k in rng.permutation(len(pairs))]

    def _generate(self, rng, samples: int, variant: str) -> mpc.Trace:
        sys_ = self.system
        K, n, m = samples - 1, sys_.n, sys_.m
        levels = rng.uniform(*LEVELS, size=K // 10 + 1)
        u = np.zeros((K + 1, m))
        u[:K, 0] = np.repeat(levels, 10)[:K]
        if variant in FAULT_INPUT:
            u[FAULT_STEPS, 0] = FAULT_INPUT[variant]
        v = np.zeros((K + 1, n))
        v[:K] = rng.standard_normal((K, n)) * RECORDING_NOISE
        x = np.zeros((K + 1, n))
        x[0] = np.linalg.solve(np.eye(n) - sys_.A, sys_.B @ u[0])   # steady state
        for k in range(K):
            x[k + 1] = sys_.step(x[k], u[k], v[k])
        trace = mpc.Trace(states=x, inputs=u, noises=v,
                          statuses=("idle",) * K + ("final",),
                          objectives=np.full(K + 1, np.nan), grid=sys_.grid,
                          snr_db=0.0, readout=semantics.RobustnessReadout())
        return dataclasses.replace(trace, snr_db=mpc.snr_db(trace))

    def calls(self, pass_index: int):
        return [(lambda rec=self.recordings[i], sc=self.scenarios[j]: monitor_call(rec.path, sc))
                for i, j in self.order]

    def check(self, pass_index: int, outs, walls, refs) -> JobStats:
        stats = JobStats(sum(refs), sum(walls), 0, 0, 0, problems=list(self.prepare_problems))
        for (i, j), call_s, r in zip(self.order, refs, outs):
            samples, sc = self.recordings[i].samples, self.scenarios[j]
            stats.calls.append(call_s)
            stats.attempted += 1
            stats.ops += samples * sum(v is not None for v in r.values())
            stats.satisfied.append(bool(r["satisfied"]))
            stats.dsasr.append(float(r["dsasr"] if r["dsasr"] is not None else r["dasr"]))
            stats.problems += checks.readouts(r, f"{sc.name} on {samples} samples")
        return stats

    def same_output(self, a, b) -> bool:
        return a == b


def monitor_call(path: Path, sc: Scenario) -> dict:
    """What `stlmpc monitor` computes for one trace file, as values."""
    cfg = sc.cfg
    grid = cfg.system.grid
    states = cli.read_trace(path)[0]
    sig = cli.Signal(states, grid)
    out = {
        "satisfied": cli.eval_bool(sig, 0, cfg.formula, cfg.table),
        "sr": cli.eval_sr(sig, 0, cfg.formula, cfg.table),
        "dasr": cli.eval_dasr(sig, 0, cfg.formula, cfg.table),
        "dsasr": (cli.eval_dsasr(sig, 0, cfg.formula, cfg.table, sc.schedule)
                  if sc.schedule is not None else None),
        "prd": cli.prd(sig, cfg.formula, 0, cfg.table, grid),
        "rd": None,
    }
    try:
        out["rd"] = cli.robustness_degree_axis(sig, cfg.formula, 0, cfg.table, grid)
    except ValueError:
        pass          # formula outside the axis-aligned fragment
    return out


def make(workload: str, seed: int, scenarios: list[Scenario], workdir: Path):
    cls = ClosedLoop if workload in CLOSED_LOOP else Monitor
    return cls(workload, seed, scenarios, workdir)
