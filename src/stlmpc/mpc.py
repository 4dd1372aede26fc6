"""Receding-horizon closed loop for discrete LTI systems under STL objectives.

The run is compiled once and kept on its ``RunConfig`` for the next run of
the same plant, formula and table; each sampling step builds its problems
around the current state and recorded history, solves every disjunction
branch, applies the first input of the best feasible branch, then advances
the plant with optional additive Gaussian noise.  If every branch is
infeasible (no plan satisfies the formula after the current step) and the
slack policy is enabled, the step is re-solved in the relaxed
(least-violating) form and marked accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .qp_builder import (
    CompiledRun,
    ControlConfig,
    add_slack_relaxation,
    build_problem,
    build_sr_baseline,
    compile_run,
    default_slack_weight,
)
from .qp_solver import solve
from .scheduling import Schedule, compute_schedule
from .semantics import (
    RobustnessReadout,
    Signal,
    SignalTooShortError,
    _anchors,
    _domains,
    eval_bool,
    eval_dasr,
    eval_dsasr,
    eval_sr,
    prd,
    robustness_degree_axis,
)
from .stl import (
    Formula,
    PredicateTable,
    SamplingGrid,
    collect_event_ops,
    to_pnf,
    validate_windows,
)

__all__ = ["LtiSystem", "NoiseModel", "RunConfig", "Trace", "ControlError", "run", "readouts",
           "snr_db"]


class ControlError(RuntimeError):
    """Unrecoverable failure of the closed loop: no usable solution at a step.

    A misconfigured run (a formula outside the control fragment, a horizon
    shorter than the formula) is a ``ValueError`` from ``compile_run`` instead.
    """


@dataclass(frozen=True)
class LtiSystem:
    """x(k+1) = A x(k) + B u(k), sampled with period grid.T."""

    A: np.ndarray
    B: np.ndarray
    x0: np.ndarray
    grid: SamplingGrid

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.array(self.A, dtype=float))
        B = np.atleast_2d(np.array(self.B, dtype=float))
        x0 = np.array(self.x0, dtype=float).reshape(-1)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows, expected {A.shape[0]}")
        if x0.shape[0] != A.shape[0]:
            raise ValueError(f"x0 has length {x0.shape[0]}, expected {A.shape[0]}")
        for name, arr in (("A", A), ("B", B), ("x0", x0)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds a value that is not a finite number")
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
        std = np.asarray(self.std, dtype=float)
        if not np.all(np.isfinite(std) & (std >= 0)):
            raise ValueError("noise_std must hold finite non-negative numbers")
        if self.seed < 0:
            raise ValueError(f"seed is {self.seed}; it must be a non-negative integer")

    def check(self, n: int) -> None:
        """Raise ``ValueError`` unless the deviations fit n states: one, or one per state."""
        count = np.size(self.std)
        if self.kind != "none" and count not in (1, n):
            raise ValueError(f"noise_std holds {count} values; the system has {n} states, "
                             "so give 1 or n")

    def samples(self, steps: int, n: int) -> np.ndarray:
        if self.kind == "none":
            return np.zeros((steps, n))
        self.check(n)
        std = np.broadcast_to(np.asarray(self.std, dtype=float), (n,))
        rng = np.random.default_rng(self.seed)
        return rng.standard_normal((steps, n)) * std


@dataclass(frozen=True)
class RunConfig:
    """Closed-loop run description on top of the optimizer knobs.

    :func:`run` keeps on the config the compiled run of the last plant,
    formula and table it ran with, and reuses it while the same three
    objects (matched by identity; all of them immutable) come back with this
    config: another noise seed skips the compile and finds every step
    template built so far.  The config holds that one compiled run and keeps
    its plant, formula and table alive with it.  An equal but new config,
    such as one made with ``dataclasses.replace``, compiles anew.
    """

    control: ControlConfig
    sim_steps: int
    slack_enabled: bool = True
    objective: str = "dsasr"        # dsasr | sr-baseline
    resolve_each_step: bool = True
    _kept: tuple[LtiSystem, Formula, PredicateTable, CompiledRun] | None = field(
        default=None, init=False, repr=False, compare=False)

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


def _pick_best(problems, solutions):
    """Best usable solution: optimal before iteration-limit, then branches with an
    intact past, since only they can still satisfy the formula, then the highest
    objective, ties to the lowest branch index."""
    usable = [(sol.status != "optimal", p.past_violated, -sol.objective, i)
              for i, (p, sol) in enumerate(zip(problems, solutions))
              if sol.status in ("optimal", "iteration-limit")]
    return solutions[min(usable)[-1]] if usable else None


def run(system: LtiSystem, phi: Formula, table: PredicateTable, config: RunConfig,
        noise: NoiseModel | None = None) -> Trace:
    """Simulate the closed loop and return the recorded trace with readouts."""
    noise = noise or NoiseModel()
    grid = system.grid
    key = (system, phi, table)
    kept = config._kept
    if kept is not None and all(a is b for a, b in zip(kept, key)):
        compiled = kept[-1]
    else:
        phi, table = to_pnf(phi, table)
        validate_windows(phi, grid)
        windows = collect_event_ops(phi)
        schedule = compute_schedule(windows, grid) if windows else None
        compiled = compile_run(phi, system, table, config.control, schedule)
        object.__setattr__(config, "_kept", (*key, compiled))
    phi, table, schedule = compiled.phi, compiled.table, compiled.schedule
    h_d, k_event = compiled.h_d, compiled.k_event

    K = config.sim_steps
    n, m = system.n, system.m

    states = np.zeros((K + 1, n))
    inputs = np.zeros((K + 1, m))
    noises = np.zeros((K + 1, n))
    noises[:K] = noise.samples(K, n)
    objectives = np.full(K + 1, np.nan)
    statuses: list[str] = []
    states[0] = system.x0

    plan = np.zeros((0, m))         # the inputs of the last solved step, from plan_start
    plan_start = 0
    weight = None                   # of the slack, set at the first relaxed step

    for k0 in range(K):
        if k_event is not None and (k0 < k_event or k0 >= k_event + h_d):
            statuses.append("idle")
        elif k0 - plan_start < len(plan):
            inputs[k0] = plan[k0 - plan_start]
            statuses.append("planned")
        else:
            history = states[:k0 + 1]
            past_u = inputs[:k0]
            if config.objective == "sr-baseline":
                problems = [build_sr_baseline(compiled, k0=k0, state_history=history,
                                              input_history=past_u)]
            else:
                problems = build_problem(compiled, k0=k0, state_history=history,
                                         input_history=past_u)
            solutions = [solve(p) for p in problems]
            relaxed = all(s.status == "infeasible" for s in solutions)
            if relaxed:
                # relax only on reported infeasibility, never on slow convergence
                if not config.slack_enabled:
                    raise ControlError(
                        f"all branches infeasible at step {k0} and slack relaxation is off")
                if weight is None:
                    scale = float(np.abs(states[:k0 + 1]).max(initial=1.0))
                    weight = default_slack_weight(table, scale)
                problems = [add_slack_relaxation(p, weight) for p in problems]
                solutions = [solve(p) for p in problems]
            best = _pick_best(problems, solutions)
            if best is None:
                raise ControlError(f"no usable solution at step {k0}")
            objectives[k0] = best.objective
            statuses.append("relaxed" if relaxed else best.status)
            # without re-solving, the plan's later inputs serve the next steps
            plan = np.clip(best.inputs[:1] if config.resolve_each_step else best.inputs,
                           compiled.lo, compiled.hi)
            plan_start = k0
            inputs[k0] = plan[0]
        states[k0 + 1] = system.step(states[k0], inputs[k0], noises[k0])
    statuses.append("final")

    readout = readouts(Signal(states, grid), phi, table, schedule)
    trace = Trace(states=states, inputs=inputs, noises=noises, statuses=tuple(statuses),
                  objectives=objectives, grid=grid, snr_db=math.nan, readout=readout)
    return replace(trace, snr_db=snr_db(trace))


def readouts(sig: Signal, phi: Formula, table: PredicateTable,
             schedule: Schedule | None) -> RobustnessReadout:
    """Trace-limited robustness summary of a positive-normal-form formula.

    None entries mean "not evaluable": all six when the signal is too short or
    a predicate sample in some predicate's domain of influence is NaN (a
    missing sample), ``rd`` alone outside its fragment.  Without a witness
    schedule dsasr is dasr.
    """
    grid = sig.grid
    try:
        _anchors(sig, 0, phi)
    except SignalTooShortError:
        return RobustnessReadout()
    z = sig.predicate_values(table)
    if np.isnan(z).any() and any(
            np.isnan(z[domain, pid]).any()
            for pid, domain in _domains(phi, 0, grid, sig.last_index).items()):
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
