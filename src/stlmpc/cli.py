"""Scenario configuration, presets, trace files, and the command line.

Scenarios are flat INI files (see ``presets/`` for complete examples)::

    [system]
    a = 0.79 0; 0.176 0.0296   ; matrix rows split by ';'
    b = 0.281; 0.0296
    x0 = 0 0
    sample_time = 12

    [formula]
    text = G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))
    event_time = 120           ; seconds, one-time formulas only

    [control]
    horizon = 20               ; defaults to the formula length, one step at least
    u_min = 0
    u_max = 6
    input_penalty = 0          ; scalar or matrix, like `a`
    budget = 20                ; optional total input budget over the run
    objective = dsasr          ; dsasr | sr-baseline
    slack = on                 ; on | off
    resolve_each_step = yes    ; no = keep executing the first plan
    constraint_margin = 1e-9   ; satisfaction rows require z >= margin at future steps

    [simulation]
    duration = 600             ; seconds; defaults to the formula length, one step at least
    noise = none               ; none | gaussian
    noise_std = 0.35 0.35      ; per state (scalar broadcasts)
    seed = 1

    [output]
    trace = two_tank_phi2.csv
    plot_script = no           ; yes = emit a gnuplot script next to the CSV

The boolean keys (``slack``, ``resolve_each_step``, ``plot_script``) take
1/0, yes/no, true/false or on/off in any case; any other word is an error.
A section or key not shown above is an error too (``configparser.Error``).

Commands: ``run <preset|config>``, ``check <preset|config>``,
``monitor <preset|config> <trace.csv>``.  Exit code 2 means an input is
invalid (any ``ValueError``, such as a ``ParseError`` or a ``FragmentError``,
a missing file, section or key, an unknown one); 1 means the run failed.
Set STLMPC_LOG=debug for verbose logging.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .mpc import LtiSystem, NoiseModel, RunConfig, Trace, readouts, run
from .parser import parse
from .qp_builder import ControlConfig, build_problem, build_sr_baseline, compile_run
from .scheduling import compute_schedule
# the readout functions stay importable here: perfbench/workloads.py times
# what `monitor` computes by calling them one at a time through this module
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
    PredicateTable,
    SamplingGrid,
    collect_event_ops,
    discrete_length,
    to_pnf,
    unwrap,
    validate_windows,
)

__all__ = ["ScenarioConfig", "run_scenario", "emit_trace", "read_trace", "main", "preset_path"]

log = logging.getLogger("stlmpc")

_FLOAT_FMT = "%.17g"
# characters that end a field, a row or the data in a trace file
_UNREADABLE = frozenset(",#\n\r")


# every section and key the schema above documents
_KEYS = {
    "system": ("a", "b", "x0", "sample_time"),
    "formula": ("text", "event_time"),
    "control": ("horizon", "u_min", "u_max", "input_penalty", "budget", "objective", "slack",
                "resolve_each_step", "constraint_margin"),
    "simulation": ("duration", "noise", "noise_std", "seed"),
    "output": ("trace", "plot_script"),
}


def _check_keys(cp: configparser.ConfigParser, path) -> None:
    """Raise ``configparser.Error`` at the first section or key the schema lacks."""
    if cp.defaults():
        raise configparser.Error(f"{path}: unknown section [{cp.default_section}]")
    for section in cp.sections():
        keys = cp.options(section)
        if section not in _KEYS:
            raise configparser.Error(f"{path}: unknown section [{section}] with keys "
                                     f"{', '.join(keys) or '(none)'}")
        for key in keys:
            if key not in _KEYS[section]:
                raise configparser.Error(f"{path}: unknown key {key!r} in section [{section}]")


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split()] for r in rows], dtype=float)


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()], dtype=float)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: plant, formula, optimizer knobs, simulation, output."""

    system: LtiSystem
    formula: Formula
    table: PredicateTable
    control: ControlConfig
    run_config: RunConfig
    noise: NoiseModel
    trace_path: str
    plot_script: bool

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        read = cp.read(path)
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        _check_keys(cp, path)

        sys_sec = cp["system"]
        A = _parse_matrix(sys_sec["a"])
        B = _parse_matrix(sys_sec["b"])
        if B.shape[0] == 1 and A.shape[0] > 1:
            B = B.T
        x0 = _parse_vector(sys_sec["x0"])
        grid = SamplingGrid(float(sys_sec["sample_time"]))
        system = LtiSystem(A, B, x0, grid)

        form_sec = cp["formula"]
        event_time = form_sec.getfloat("event_time", fallback=None)
        formula, table = parse(form_sec["text"], n_states=system.n, event_time=event_time)
        formula, table = to_pnf(formula, table)
        validate_windows(formula, grid)
        h_d = discrete_length(unwrap(formula), grid)

        ctrl = cp["control"] if cp.has_section("control") else {}
        horizon = int(ctrl.get("horizon", max(h_d, 1)))
        budget_total = ctrl.get("budget")
        control = ControlConfig(
            horizon=horizon,
            u_min=float(ctrl.get("u_min", -math.inf)),
            u_max=float(ctrl.get("u_max", math.inf)),
            input_penalty=_as_penalty(ctrl.get("input_penalty"), system.m),
            budget_total=float(budget_total) if budget_total is not None else None,
            constraint_margin=float(ctrl.get("constraint_margin", 1e-9)),
        )

        sim = cp["simulation"] if cp.has_section("simulation") else {}
        # a formula without temporal operators still needs one step
        duration = float(sim.get("duration", max(h_d, 1) * grid.T))
        sim_steps = int(duration / grid.T + 1e-9)
        noise_kind = sim.get("noise", "none").strip()
        noise = NoiseModel(
            kind=noise_kind,
            std=_parse_vector(sim.get("noise_std", "0")) if noise_kind != "none" else 0.0,
            seed=int(sim.get("seed", 0)),
        )
        noise.check(system.n)

        run_config = RunConfig(
            control=control,
            sim_steps=sim_steps,
            slack_enabled=_as_bool("slack", ctrl.get("slack", "on")),
            objective=ctrl.get("objective", "dsasr").strip(),
            resolve_each_step=_as_bool("resolve_each_step", ctrl.get("resolve_each_step", "yes")),
        )

        out = cp["output"] if cp.has_section("output") else {}
        default_trace = Path(path).stem + "_trace.csv"
        return cls(system=system, formula=formula, table=table, control=control,
                   run_config=run_config, noise=noise,
                   trace_path=out.get("trace", default_trace),
                   plot_script=_as_bool("plot_script", out.get("plot_script", "no")))


_BOOLEANS = {"1": True, "yes": True, "true": True, "on": True,
             "0": False, "no": False, "false": False, "off": False}


def _as_bool(key: str, text: str) -> bool:
    value = _BOOLEANS.get(text.strip().lower())
    if value is None:
        raise ValueError(f"{key} = {text.strip()!r} is not a boolean; use one of "
                         "1/0, yes/no, true/false, on/off")
    return value


def _as_penalty(text: str | None, m: int) -> np.ndarray | None:
    if text is None:
        return None
    mat = _parse_matrix(text)
    if mat.size == 1:
        return float(mat.reshape(-1)[0]) * np.eye(m)
    return mat


def preset_path(name: str) -> Path:
    """Path of a packaged preset; accepts a bare name or an existing file path."""
    p = Path(name)
    if p.exists():
        return p
    candidate = resources.files("stlmpc").joinpath("presets", f"{name}.ini")
    with resources.as_file(candidate) as real:
        if real.exists():
            return real
    raise FileNotFoundError(f"no such config file or preset: {name}")


# ---------------------------------------------------------------------------
# Trace files


def emit_trace(trace: Trace, path: str | Path, plot_script: bool = False) -> None:
    """Write the trace as CSV with a trailing '#'-commented summary block.

    Raises ``ValueError`` naming the step when a status holds ``,``, ``#`` or
    a line break, which would not read back.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    n = trace.states.shape[1]
    m = trace.inputs.shape[1]
    header = (["k", "t"] + [f"x{i+1}" for i in range(n)] + [f"u{j+1}" for j in range(m)]
              + [f"v{i+1}" for i in range(n)] + ["status", "objective"])
    lines = [",".join(header)]
    for k in range(trace.states.shape[0]):
        row = [str(k), _FLOAT_FMT % (k * trace.grid.T)]
        row += [_FLOAT_FMT % v for v in trace.states[k]]
        row += [_FLOAT_FMT % v for v in trace.inputs[k]]
        row += [_FLOAT_FMT % v for v in trace.noises[k]]
        if not _UNREADABLE.isdisjoint(trace.statuses[k]):
            raise ValueError(f"status {trace.statuses[k]!r} at step {k} holds ',', '#' or a "
                             "line break, which would not read back")
        row.append(trace.statuses[k])
        row.append(_FLOAT_FMT % trace.objectives[k])
        lines.append(",".join(row))
    lines.extend(_summary_lines(trace.snr_db, trace.readout))
    path.write_text("\n".join(lines) + "\n")
    if plot_script:
        _emit_plot_script(path, n, m)


def _summary_lines(snr: float, r: RobustnessReadout) -> list[str]:
    return [f"# snr_db = {_FLOAT_FMT % snr}"] + _readout_lines(r)


def _readout_lines(r: RobustnessReadout) -> list[str]:
    def fmt(v) -> str:
        if v is None:
            return "unverifiable"
        if isinstance(v, bool):
            return "true" if v else "false"
        return _FLOAT_FMT % v

    return [
        f"# satisfied = {fmt(r.satisfied)}",
        f"# sr = {fmt(r.sr)}",
        f"# dasr = {fmt(r.dasr)}",
        f"# dsasr = {fmt(r.dsasr)}",
        f"# prd = {fmt(r.prd)}",
        f"# rd = {fmt(r.rd)}",
    ]


def _emit_plot_script(csv_path: Path, n: int, m: int) -> None:
    script = csv_path.with_suffix(".gnuplot")
    state_cols = ", ".join(
        f"'{csv_path.name}' using 2:{3+i} with lines title 'x{i+1}'" for i in range(n))
    input_cols = ", ".join(
        f"'{csv_path.name}' using 2:{3+n+j} with steps title 'u{j+1}'" for j in range(m))
    script.write_text(
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'time (s)'\n"
        f"plot {state_cols}, {input_cols}\n")


def read_trace(path: str | Path):
    """Read an emitted CSV back into (states, inputs, noises, statuses, objectives).

    ``#`` starts a comment anywhere in a line; blank lines and comments are
    skipped, and columns after the objective are ignored; a trace without
    data rows reads as arrays of zero rows.  Raises
    ``ValueError`` when the header lacks a column the format needs or a data
    row's field count differs from the header's, and when a numeric field is
    not a decimal number (unlike ``float()``, the reader takes no ``_`` digit
    separators); the message names the file, the 1-based data row (counting
    data lines only) and the header column.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = list(map(str.strip, fh))
    # states and inputs are the x and u columns before the status, so a
    # trailing column named like one does not change the layout
    named = header[:header.index("status")] if "status" in header else header
    n = sum(1 for h in named if h.startswith("x"))
    m = sum(1 for h in named if h.startswith("u"))
    width, status = len(header), 2 + 2 * n + m
    if width < status + 2:
        raise ValueError(f"{path}: the header has {width} columns, fewer than the {status + 2} "
                         f"of k, t, {n} states, {m} inputs, {n} noises, status and objective")
    # the first data line is usually the first line; no data at all would
    # make loadtxt warn
    if not any(line and line[0] != "#" for line in lines):
        return np.empty((0, n)), np.empty((0, m)), np.empty((0, n)), (), np.empty(0)
    # One field per column, so loadtxt rejects a row of another width.  k, t
    # and the columns after the objective stay unparsed; the status is kept
    # whole as an object.  loadtxt drops comments and blank lines and parses
    # floats with the routine float() uses, all in C.
    columns = np.dtype([("k", "U1"), ("t", "U1"), ("values", float, (status - 2,)),
                        ("status", object), ("objective", float),
                        ("rest", "U1", (width - status - 2,))])
    try:
        data = np.loadtxt(lines, dtype=columns, delimiter=",", comments="#", ndmin=1)
    except ValueError as exc:
        # name the first row that fails, by its field count or a field
        data_lines = (text for line in lines if (text := line.partition("#")[0]))
        for row, line in enumerate(data_lines, 1):
            if len(fields := line.split(",")) != width:
                raise ValueError(f"{path}: data row {row} has {len(fields)} fields, "
                                 f"the header has {width}") from exc
            for col in (*range(2, status), status + 1):
                try:
                    np.loadtxt([line], delimiter=",", comments=None, usecols=col)
                except ValueError:
                    raise ValueError(f"{path}: data row {row} has {fields[col]!r} in column "
                                     f"{header[col]}, not a number") from exc
        raise
    values = data["values"]
    return (values[:, :n].copy(), values[:, n:n + m].copy(), values[:, n + m:].copy(),
            tuple(data["status"]), data["objective"].copy())


# ---------------------------------------------------------------------------
# Commands


def run_scenario(config_path: str | Path) -> int:
    """Run one scenario end to end; returns a process exit code."""
    cfg = ScenarioConfig.from_file(config_path)
    trace = run(cfg.system, cfg.formula, cfg.table, cfg.run_config, cfg.noise)
    emit_trace(trace, cfg.trace_path, cfg.plot_script)
    print(f"trace written to {cfg.trace_path}")
    for line in _summary_lines(trace.snr_db, trace.readout):
        print(line[2:])
    return 0


def check_scenario(config_path: str | Path) -> int:
    """Validate a scenario and print horizon/schedule/problem sizes, no solve."""
    cfg = ScenarioConfig.from_file(config_path)
    compiled = compile_run(cfg.formula, cfg.system, cfg.table, cfg.control)
    h_d, sched = compiled.h_d, compiled.schedule
    print(f"formula length: h_d = {h_d} steps ({h_d * cfg.system.grid.T:g} s)")
    print(f"prediction horizon: N = {cfg.control.horizon}")
    if sched is not None:
        print(f"witness schedule: delta = {sched.delta}, eta = {sched.eta}, "
              f"baselines = {list(sched.baselines)}")
    else:
        print("witness schedule: not needed (no eventually/until operators)")
    # compile the first step the closed loop solves: event-triggered formulas
    # idle until the event step, so the history is that of a run stopped there
    history, k0 = {}, compiled.k_event
    if k0 is not None:
        print(f"first solved step: k = {k0} (event)")
        if k0:
            idle = run(cfg.system, cfg.formula, cfg.table, replace(cfg.run_config, sim_steps=k0))
            history = dict(k0=k0, state_history=idle.states, input_history=idle.inputs)
    if cfg.run_config.objective == "sr-baseline":
        problems = [build_sr_baseline(compiled, **history)]
    else:
        problems = build_problem(compiled, **history)
    for p in problems:
        kind = "LP" if p.quad is None else "QP"
        print(f"branch {p.branch}: {kind} with {p.n_vars} variables, {p.n_rows} inequalities, "
              f"{p.rows.nnz} nonzeros")
    return 0


def monitor_scenario(config_path: str | Path, trace_path: str | Path) -> int:
    """Offline robustness evaluation of a recorded trace: the readout lines ``run`` prints."""
    cfg = ScenarioConfig.from_file(config_path)
    states = read_trace(trace_path)[0]
    if states.shape[1] != cfg.system.n:
        raise ValueError(f"{trace_path} has {states.shape[1]} state columns, "
                         f"the scenario has n = {cfg.system.n} states")
    windows = collect_event_ops(cfg.formula)
    sched = compute_schedule(windows, cfg.system.grid) if windows else None
    readout = readouts(Signal(states, cfg.system.grid), cfg.formula, cfg.table, sched)
    for line in _readout_lines(readout):
        print(line[2:])
    return 0


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("STLMPC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    ap = argparse.ArgumentParser(prog="stlmpc",
                                 description="STL robustness monitoring and MPC synthesis")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="simulate a scenario and write its trace")
    p_run.add_argument("config", help="preset name or config file path")
    p_check = sub.add_parser("check", help="validate a scenario without solving")
    p_check.add_argument("config")
    p_mon = sub.add_parser("monitor", help="evaluate robustness of a recorded trace")
    p_mon.add_argument("config")
    p_mon.add_argument("trace")
    ns = ap.parse_args(argv)

    try:
        path = preset_path(ns.config)
        if ns.command == "run":
            return run_scenario(path)
        if ns.command == "check":
            return check_scenario(path)
        return monitor_scenario(path, ns.trace)
    except (ValueError, configparser.Error, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # ControlError, SolverError and anything unforeseen
        log.debug("failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
