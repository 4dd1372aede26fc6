"""Closed-loop behavior: soundness, determinism, recording, noise handling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stlmpc import (
    ControlConfig,
    ControlError,
    LtiSystem,
    NoiseModel,
    RunConfig,
    SamplingGrid,
    Trace,
    eval_bool,
    parse,
    run,
    snr_db,
)
from stlmpc import qp_builder

GRID1 = SamplingGrid(1.0)
SRC = Path(__file__).resolve().parents[1] / "src"

# prints one hash of states, inputs and statuses per closed-loop run: the LPs
# of two presets, then their QPs under an input penalty of 0.01 I at seed 0
TRACE_HASHES = """
import dataclasses, hashlib
import numpy as np
from stlmpc import cli, mpc
for penalty in (None, 0.01):
    for name in ("two_tank_phi3", "two_tank_phi3_noisy"):
        cfg = cli.ScenarioConfig.from_file(cli.preset_path(name))
        config = cfg.run_config
        seeds = range(4) if cfg.noise.kind != "none" else [0]
        if penalty is not None:
            control = dataclasses.replace(config.control,
                                          input_penalty=penalty * np.eye(cfg.system.m))
            config, seeds = dataclasses.replace(config, control=control), [0]
        for seed in seeds:
            trace = mpc.run(cfg.system, cfg.formula, cfg.table, config,
                            dataclasses.replace(cfg.noise, seed=seed))
            digest = hashlib.sha256(trace.states.tobytes() + trace.inputs.tobytes()
                                    + " ".join(trace.statuses).encode()).hexdigest()
            print(name, penalty, seed, digest)
"""


def scalar_system(a=0.5, b=1.0, x0=0.0):
    return LtiSystem(np.array([[a]]), np.array([[b]]), np.array([x0]), GRID1)


class TestClosedLoopSoundness:
    def test_all_time_until_two_tank(self, tank):
        phi, table = parse("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))", n_states=2)
        cfg = RunConfig(control=ControlConfig(horizon=20, u_min=0, u_max=6), sim_steps=50)
        trace = run(tank, phi, table, cfg)
        assert all(s in ("optimal", "final") for s in trace.statuses)
        assert trace.readout.satisfied is True
        assert eval_bool(trace.signal(), 0, phi, table) is True

    def test_one_time_event_anchoring(self, tank):
        phi, table = parse("event => F[120,240](x1 >= 2)", n_states=2, event_time=120.0)
        cfg = RunConfig(control=ControlConfig(horizon=20, u_min=0, u_max=6), sim_steps=50)
        trace = run(tank, phi, table, cfg)
        assert trace.readout.satisfied is True
        # idle before the event: level stays at zero for ten steps
        np.testing.assert_array_equal(trace.states[:10, 0], np.zeros(10))
        # the level reaches 2 inside the shifted eventually-window {20..30}
        assert np.any(trace.states[20:31, 0] >= 2.0)

    def test_holding_needs_no_input_when_penalized(self):
        # start satisfied with frozen dynamics: the input penalty keeps u at 0
        system = LtiSystem(np.eye(1), np.zeros((1, 1)), np.array([3.0]), GRID1)
        _, table = parse("G[0,5](x1 >= 1)")
        phi, table = parse("G[0,inf](G[0,5](x1 >= 1))")
        cfg = RunConfig(control=ControlConfig(horizon=6, u_min=-1, u_max=1,
                                              input_penalty=np.eye(1)),
                        sim_steps=8)
        trace = run(system, phi, table, cfg)
        assert np.abs(trace.inputs).max() <= 1e-6
        assert trace.readout.satisfied is True


class TestDeterminismAndRecording:
    def test_bit_identical_repeat(self, tank):
        phi, table = parse("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))", n_states=2)
        cfg = RunConfig(control=ControlConfig(horizon=20, u_min=0, u_max=6), sim_steps=30)
        noise = NoiseModel("gaussian", 0.4, seed=11)
        t1 = run(tank, phi, table, cfg, noise)
        t2 = run(tank, phi, table, cfg, noise)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.inputs, t2.inputs)
        assert t1.statuses == t2.statuses
        assert t1.snr_db == t2.snr_db

    def test_independent_of_blas_threads(self):
        def hashes(threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", TRACE_HASHES], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            return out.stdout.splitlines()

        one = hashes(1)
        assert len(one) == 7
        assert one == hashes(2)

    def test_recursion_replay(self, tank):
        phi, table = parse("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))", n_states=2)
        cfg = RunConfig(control=ControlConfig(horizon=20, u_min=0, u_max=6), sim_steps=25)
        noise = NoiseModel("gaussian", 0.3, seed=2)
        trace = run(tank, phi, table, cfg, noise)
        for k in range(trace.last_index):
            expect = tank.A @ trace.states[k] + tank.B @ trace.inputs[k] + trace.noises[k]
            np.testing.assert_array_equal(trace.states[k + 1], expect)

    def test_trace_length(self, tank):
        phi, table = parse("G[0,inf](G[0,120](x1 >= 0))", n_states=2)
        cfg = RunConfig(control=ControlConfig(horizon=10, u_min=0, u_max=6), sim_steps=17)
        trace = run(tank, phi, table, cfg)
        assert trace.states.shape[0] == 18
        assert len(trace.statuses) == 18
        assert trace.statuses[-1] == "final"


class TestRelaxation:
    def test_relaxed_only_when_infeasible(self):
        # frozen plant violating the requirement: every solve must relax
        system = LtiSystem(np.eye(1), np.zeros((1, 1)), np.array([-1.0]), GRID1)
        phi, table = parse("G[0,inf](G[0,2](x1 >= 0))")
        cfg = RunConfig(control=ControlConfig(horizon=3), sim_steps=4)
        trace = run(system, phi, table, cfg)
        assert set(trace.statuses[:-1]) == {"relaxed"}
        assert trace.readout.satisfied is False

    def test_slack_disabled_raises(self):
        system = LtiSystem(np.eye(1), np.zeros((1, 1)), np.array([-1.0]), GRID1)
        phi, table = parse("G[0,inf](G[0,2](x1 >= 0))")
        cfg = RunConfig(control=ControlConfig(horizon=3), sim_steps=4, slack_enabled=False)
        with pytest.raises(ControlError):
            run(system, phi, table, cfg)

    def test_feasible_run_never_relaxes(self, tank):
        phi, table = parse("G[0,inf](G[0,120](x1 >= 0))", n_states=2)
        cfg = RunConfig(control=ControlConfig(horizon=10, u_min=0, u_max=6), sim_steps=20)
        trace = run(tank, phi, table, cfg)
        assert "relaxed" not in trace.statuses


class TestCompileOnce:
    def test_dynamics_stacked_once_per_run(self, monkeypatch):
        calls = []
        stack = qp_builder.stack_dynamics

        def counting(*args, **kwargs):
            calls.append(args)
            return stack(*args, **kwargs)

        monkeypatch.setattr(qp_builder, "stack_dynamics", counting)
        phi, table = parse("G[0,inf](F[0,2](x1 >= 0.5))")
        cfg = RunConfig(control=ControlConfig(horizon=3, u_min=0, u_max=1), sim_steps=4)
        trace = run(scalar_system(), phi, table, cfg)
        solved = [s for s in trace.statuses if s in ("optimal", "relaxed", "iteration-limit")]
        assert len(solved) >= 3
        assert len(calls) == 1

    def test_run_errors_surface_before_the_first_step(self, tank):
        # the event lies beyond the simulated steps, so no step is ever solved
        phi, table = parse("event => F[120,240](x1 >= 2)", n_states=2, event_time=120.0)
        cfg = RunConfig(control=ControlConfig(horizon=20, input_penalty=np.eye(2)),
                        sim_steps=3)
        with pytest.raises(ValueError, match="input penalty must be 1x1"):
            run(tank, phi, table, cfg)


class TestHorizonChecks:
    def test_short_horizon_rejected(self, tank):
        phi, table = parse("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))", n_states=2)
        cfg = RunConfig(control=ControlConfig(horizon=10, u_min=0, u_max=6), sim_steps=20)
        with pytest.raises(ControlError):
            run(tank, phi, table, cfg)

    def test_short_trace_reports_unverifiable(self, tank):
        phi, table = parse("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))", n_states=2)
        cfg = RunConfig(control=ControlConfig(horizon=20, u_min=0, u_max=6), sim_steps=10)
        trace = run(tank, phi, table, cfg)
        assert trace.readout.satisfied is None


def make_trace(states, noises):
    states = np.asarray(states, dtype=float).reshape(len(states), -1)
    n = states.shape[1]
    K = states.shape[0] - 1
    from stlmpc.semantics import RobustnessReadout

    return Trace(states=states, inputs=np.zeros((K + 1, 1)),
                 noises=np.asarray(noises, dtype=float).reshape(K + 1, n),
                 statuses=tuple(["optimal"] * K + ["final"]),
                 objectives=np.zeros(K + 1), grid=GRID1,
                 snr_db=math.nan, readout=RobustnessReadout())


class TestSnr:
    def test_equal_powers_give_zero_db(self):
        states = [[1.0], [1.0], [1.0]]
        noises = [[1.0], [1.0], [0.0]]
        assert snr_db(make_trace(states, noises)) == pytest.approx(0.0)

    def test_ten_to_one_gives_ten_db(self):
        states = [[math.sqrt(10.0)], [math.sqrt(10.0)], [math.sqrt(10.0)]]
        noises = [[1.0], [1.0], [0.0]]
        assert snr_db(make_trace(states, noises)) == pytest.approx(10.0)

    def test_zero_noise_is_infinite(self):
        states = [[1.0], [1.0]]
        noises = [[0.0], [0.0]]
        assert snr_db(make_trace(states, noises)) == math.inf
