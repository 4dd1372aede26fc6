"""Receding-horizon closed loop for discrete LTI systems under STL objectives.

Each sampling step rebuilds the compiled problem around the current state
and recorded history, solves every disjunction branch, applies the first
input of the best feasible branch, then advances the plant with optional
additive Gaussian noise.  If every branch is infeasible and the slack policy
is enabled, the step is re-solved in the relaxed (least-violating) form and
marked accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .qp_builder import (
    ControlConfig,
    add_slack_relaxation,
    build_problem,
    build_sr_baseline,
    default_slack_weight,
)
from .qp_solver import SolverSettings, solve
from .scheduling import Schedule, compute_schedule
from .semantics import (
    RobustnessReadout,
    Signal,
    eval_bool,
    eval_dasr,
    eval_dsasr,
    eval_sr,
    prd,
    robustness_degree_axis,
)
from .stl import (
    Formula,
    OneTime,
    PredicateTable,
    SamplingGrid,
    collect_event_ops,
    discrete_length,
    event_index,
    to_pnf,
    unwrap,
    validate_windows,
)

__all__ = ["LtiSystem", "NoiseModel", "RunConfig", "Trace", "ControlError", "run", "readouts",
           "snr_db"]


class ControlError(RuntimeError):
    """Unrecoverable failure of the closed loop (solver breakdown or misconfiguration)."""


@dataclass(frozen=True)
class LtiSystem:
    """x(k+1) = A x(k) + B u(k), sampled with period grid.T."""

    A: np.ndarray
    B: np.ndarray
    x0: np.ndarray
    grid: SamplingGrid

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows, expected {A.shape[0]}")
        if x0.shape[0] != A.shape[0]:
            raise ValueError(f"x0 has length {x0.shape[0]}, expected {A.shape[0]}")
        for name, arr in (("A", A), ("B", B), ("x0", x0)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def step(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.A @ x + self.B @ u + v


@dataclass(frozen=True)
class NoiseModel:
    """Additive i.i.d. zero-mean Gaussian state noise (or none)."""

    kind: str = "none"              # none | gaussian
    std: float | np.ndarray = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if np.any(np.asarray(self.std) < 0):
            raise ValueError("noise deviation must be non-negative")

    def samples(self, steps: int, n: int) -> np.ndarray:
        if self.kind == "none":
            return np.zeros((steps, n))
        std = np.broadcast_to(np.asarray(self.std, dtype=float), (n,))
        rng = np.random.default_rng(self.seed)
        return rng.standard_normal((steps, n)) * std


@dataclass(frozen=True)
class RunConfig:
    """Closed-loop run description on top of the optimizer knobs."""

    control: ControlConfig
    sim_steps: int
    slack_enabled: bool = True
    objective: str = "dsasr"        # dsasr | sr-baseline
    resolve_each_step: bool = True
    idle_input: float | np.ndarray = 0.0
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        if self.objective not in ("dsasr", "sr-baseline"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.sim_steps < 1:
            raise ValueError("simulation needs at least one step")


@dataclass(frozen=True)
class Trace:
    """Closed-loop record: row k holds x(k) and the input/noise applied at k."""

    states: np.ndarray              # (K+1, n)
    inputs: np.ndarray              # (K+1, m), last row zero
    noises: np.ndarray              # (K+1, n), last row zero
    statuses: tuple[str, ...]
    objectives: np.ndarray          # (K+1,)
    grid: SamplingGrid
    snr_db: float
    readout: RobustnessReadout

    @property
    def last_index(self) -> int:
        return self.states.shape[0] - 1

    def signal(self) -> Signal:
        return Signal(self.states, self.grid)


def snr_db(trace: Trace) -> float:
    """10 log10 of mean squared state norm over mean squared noise norm."""
    p_x = float(np.mean(np.sum(trace.states ** 2, axis=1)))
    noise = trace.noises[:-1]
    p_v = float(np.mean(np.sum(noise ** 2, axis=1))) if noise.size else 0.0
    if p_v == 0.0:
        return math.inf
    return 10.0 * math.log10(p_x / p_v)


def _pick_best(solutions, statuses=("optimal",)):
    """Best solution among the given statuses, ties broken by lowest branch index."""
    best = None
    for sol in solutions:
        if sol.status not in statuses:
            continue
        if best is None or sol.objective > best.objective:
            best = sol
    return best


def run(system: LtiSystem, phi: Formula, table: PredicateTable, config: RunConfig,
        noise: NoiseModel | None = None) -> Trace:
    """Simulate the closed loop and return the recorded trace with readouts."""
    noise = noise or NoiseModel()
    grid = system.grid
    phi, table = to_pnf(phi, table)
    validate_windows(phi, grid)
    theta = unwrap(phi)
    h_d = discrete_length(theta, grid)
    if config.control.horizon < h_d:
        raise ControlError(
            f"prediction horizon N={config.control.horizon} is shorter than the "
            f"formula length {h_d}")

    windows = collect_event_ops(theta)
    schedule: Schedule | None = compute_schedule(windows, grid) if windows else None
    one_time = isinstance(phi, OneTime)
    k_event = event_index(phi, grid) if one_time else 0

    K = config.sim_steps
    n, m = system.n, system.m
    idle = np.broadcast_to(np.asarray(config.idle_input, dtype=float), (m,)).astype(float)
    lo, hi = config.control.bounds(m)
    noise_samples = noise.samples(K, n)

    states = np.zeros((K + 1, n))
    inputs = np.zeros((K + 1, m))
    noises = np.zeros((K + 1, n))
    objectives = np.full(K + 1, np.nan)
    statuses: list[str] = []
    states[0] = system.x0

    plan: np.ndarray | None = None
    plan_start = 0
    slack_weight = config.control.slack_weight

    for k0 in range(K):
        if one_time and (k0 < k_event or k0 >= k_event + h_d):
            u = idle
            statuses.append("idle")
        elif plan is not None and not config.resolve_each_step and k0 - plan_start < plan.shape[0]:
            u = plan[k0 - plan_start]
            statuses.append("planned")
        else:
            history = states[:k0 + 1]
            past_u = inputs[:k0]
            if config.objective == "sr-baseline":
                problems = [build_sr_baseline(phi, system, table, config.control,
                                              k0=k0, state_history=history,
                                              input_history=past_u)]
            else:
                problems = build_problem(phi, system, table, config.control,
                                         k0=k0, state_history=history,
                                         input_history=past_u, schedule=schedule)
            solutions = [solve(p, config.solver) for p in problems]
            best = _pick_best(solutions)
            status = "optimal"
            if best is None and all(s.status == "infeasible" for s in solutions):
                # relax only on reported infeasibility, never on slow convergence
                if not config.slack_enabled:
                    raise ControlError(
                        f"all branches infeasible at step {k0} and slack relaxation is off")
                if slack_weight is None:
                    scale = float(np.abs(states[:k0 + 1]).max(initial=1.0))
                    slack_weight = default_slack_weight(table, scale)
                relaxed = [add_slack_relaxation(p, slack_weight) for p in problems]
                solutions = [solve(p, config.solver) for p in relaxed]
                best = _pick_best(solutions)
                status = "relaxed"
            if best is None:
                best = _pick_best(solutions, statuses=("optimal", "iteration-limit"))
                if status == "optimal":
                    status = "iteration-limit"
                if best is None:
                    raise ControlError(f"no usable solution at step {k0}")
            objectives[k0] = best.objective
            statuses.append(status)
            u = np.clip(best.first_input, lo, hi)
            plan = np.clip(best.inputs, lo, hi)
            plan_start = k0
        inputs[k0] = u
        noises[k0] = noise_samples[k0]
        states[k0 + 1] = system.step(states[k0], inputs[k0], noises[k0])
    statuses.append("final")

    readout = readouts(Signal(states, grid), phi, table, schedule)
    trace = Trace(states=states, inputs=inputs, noises=noises, statuses=tuple(statuses),
                  objectives=objectives, grid=grid, snr_db=math.nan, readout=readout)
    return replace(trace, snr_db=snr_db(trace))


def readouts(sig: Signal, phi: Formula, table: PredicateTable,
             schedule: Schedule | None) -> RobustnessReadout:
    """Trace-limited robustness summary of a positive-normal-form formula.

    None entries mean "not evaluable"; without a witness schedule dsasr is dasr.
    """
    grid = sig.grid
    h_d = discrete_length(unwrap(phi), grid)
    checkable = sig.last_index >= h_d
    if isinstance(phi, OneTime):
        checkable = event_index(phi, grid) + h_d <= sig.last_index
    if not checkable:
        return RobustnessReadout()

    satisfied = eval_bool(sig, 0, phi, table)
    sr = eval_sr(sig, 0, phi, table)
    dasr = eval_dasr(sig, 0, phi, table)
    dsasr = eval_dsasr(sig, 0, phi, table, schedule) if schedule is not None else dasr
    prd_val = prd(sig, phi, 0, table, grid)
    try:
        rd = robustness_degree_axis(sig, phi, 0, table, grid)
    except ValueError:
        rd = None
    return RobustnessReadout(satisfied=satisfied, sr=sr, dasr=dasr, dsasr=dsasr,
                             prd=prd_val, rd=rd)
