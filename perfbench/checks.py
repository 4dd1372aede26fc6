"""Output checks.  Each returns a list of problems; an empty list means correct."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from stlmpc import cli

STATUSES = {"optimal", "relaxed", "iteration-limit", "idle", "planned", "final"}
REPLAY_RTOL = 1e-12


def finite(x) -> bool:
    return x is not None and math.isfinite(x)


def round_trip(trace, path) -> list[str]:
    """The trace file reads back bit-exactly."""
    states, inputs, noises, statuses, objectives = cli.read_trace(path)
    problems = []
    for name, got, want in (("states", states, trace.states), ("inputs", inputs, trace.inputs),
                            ("noises", noises, trace.noises),
                            ("objectives", objectives, trace.objectives)):
        if got.shape != want.shape or not np.array_equal(got, want, equal_nan=True):
            problems.append(f"{name} do not round-trip through {path.name}")
    if statuses != trace.statuses:
        problems.append(f"statuses do not round-trip through {path.name}")
    return problems


def replay(trace, system) -> list[str]:
    """x(k+1) = A x(k) + B u(k) + v(k) along the whole trace."""
    x, u, v = trace.states, trace.inputs, trace.noises
    pred = x[:-1] @ system.A.T + u[:-1] @ system.B.T + v[:-1]
    err = np.abs(pred - x[1:])
    tol = REPLAY_RTOL * (1.0 + np.abs(x[1:]))
    if not np.all(err <= tol):
        k = int(np.argmax((err - tol).max(axis=1)))
        return [f"state at step {k + 1} does not follow the plant (error {err[k].max():.3g})"]
    return []


def readouts(r: dict, where: str) -> list[str]:
    """All readouts finite, and the sign of sr agrees with eval_bool."""
    problems = [f"{where}: {name} = {value!r} is not finite"
                for name, value in r.items()
                if name != "satisfied" and value is not None and not finite(value)]
    if not isinstance(r["satisfied"], bool):
        problems.append(f"{where}: satisfaction {r['satisfied']!r} is not a boolean")
    sr = r["sr"]
    if finite(sr) and ((sr > 0 and not r["satisfied"]) or (sr < 0 and r["satisfied"])):
        problems.append(f"{where}: sr = {sr:.6g} disagrees with eval_bool = {r['satisfied']}")
    return problems


def closed_loop(trace, path, cfg, noise) -> list[str]:
    K = cfg.run_config.sim_steps
    problems = round_trip(trace, path) + replay(trace, cfg.system)
    if trace.states.shape[0] != K + 1 or len(trace.statuses) != K + 1:
        problems.append(f"trace has {trace.states.shape[0]} rows, expected {K + 1}")
    if not np.array_equal(trace.noises[:-1], noise.samples(K, cfg.system.n)):
        problems.append("applied noise differs from the seeded noise model")
    lo, hi = cfg.control.bounds(cfg.system.m)
    u = trace.inputs[:-1]
    if np.any(u < lo) or np.any(u > hi):
        problems.append(f"input outside [{cfg.control.u_min}, {cfg.control.u_max}]")
    unknown = set(trace.statuses) - STATUSES
    if unknown:
        problems.append(f"unknown step statuses {sorted(unknown)}")
    if trace.statuses[-1] != "final":
        problems.append("last status is not 'final'")
    r = trace.readout
    if r.satisfied is None:
        problems.append("trace is too short to evaluate the formula")
    else:
        problems += readouts(dataclasses.asdict(r), "closed-loop readout")
    return problems


def recording(trace, path, system) -> list[str]:
    return round_trip(trace, path) + replay(trace, system)
