"""Closed-loop behavior: soundness, determinism, recording, noise handling."""

import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stlmpc import (
    ControlConfig,
    ControlError,
    FragmentError,
    LtiSystem,
    Signal,
    NoiseModel,
    PredicateTable,
    RunConfig,
    SamplingGrid,
    Trace,
    collect_event_ops,
    compute_schedule,
    eval_bool,
    parse,
    run,
    snr_db,
    to_pnf,
    unwrap,
)
from stlmpc import cli, mpc, qp_builder
from stlmpc.semantics import RobustnessReadout

from conftest import TANK_A, TANK_B

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


class TestLtiSystem:
    def test_callers_arrays_are_copied_not_frozen(self):
        A, B, x0 = np.array([[0.5, 0.0], [0.1, 0.9]]), np.array([[1.0], [0.0]]), np.ones(2)
        system = LtiSystem(A, B, x0, GRID1)
        assert all(arr.flags.writeable for arr in (A, B, x0))
        assert not any(arr.flags.writeable for arr in (system.A, system.B, system.x0))
        A[0, 0], B[0, 0], x0[0] = 7.0, 7.0, 7.0
        assert (system.A[0, 0], system.B[0, 0], system.x0[0]) == (0.5, 1.0, 1.0)


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

    def test_violated_past_does_not_relax(self):
        # x(0) = 0 violates x1 >= 0.5 for good, but every later sample can meet it
        system = LtiSystem(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1), GRID1)
        phi, table = parse("G[0,inf](G[0,2](x1 >= 0.5))")
        cfg = RunConfig(control=ControlConfig(horizon=3, u_min=0, u_max=1), sim_steps=5,
                        slack_enabled=False)
        trace = run(system, phi, table, cfg)
        assert set(trace.statuses[:-1]) == {"optimal"}
        assert np.all(trace.states[1:, 0] >= 0.5)
        assert trace.readout.satisfied is False

    def test_branch_with_violated_past_loses_to_an_intact_one(self):
        # x(0) = 0 breaks the branch x1 >= 0.5, whose plan scores far higher
        # than that of x1 <= 1; only the intact branch keeps the formula
        system = LtiSystem(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1), GRID1)
        phi, table = parse("G[0,inf](G[0,2](x1 <= 1) | G[0,2](x1 >= 0.5))")
        cfg = RunConfig(control=ControlConfig(horizon=3, u_min=-0.1, u_max=5), sim_steps=6,
                        slack_enabled=False)
        pnf, pnf_table = to_pnf(phi, table)
        problems = qp_builder.build_problem(
            qp_builder.compile_run(pnf, system, pnf_table, cfg.control))
        assert [p.past_violated for p in problems] == [False, True]
        objectives = [mpc.solve(p).objective for p in problems]
        assert objectives[1] > objectives[0]
        trace = run(system, phi, table, cfg)
        assert set(trace.statuses[:-1]) == {"optimal"}
        assert np.all(trace.states[:, 0] <= 1)
        assert trace.readout.satisfied is True

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


class TestStepDecision:
    """One step's status and winner under every mix of branch statuses.

    Branch 0 of the disjunction is intact and branch 1's past is violated from
    step 0; the solver's statuses are overridden per (branch, relaxed)."""

    TEXT = "G[0,inf](G[0,2](x1 <= 1) | G[0,2](x1 >= 0.5))"
    # (statuses of branches 0 and 1, then of their relaxed forms or None when
    # the step must not relax) -> (step status, winning (branch, relaxed))
    TABLE = {
        "optimal beats iteration-limit": (("optimal", "iteration-limit"), None,
                                          "optimal", (0, False)),
        "optimal with a violated past beats an intact iteration-limit":
            (("iteration-limit", "optimal"), None, "optimal", (1, False)),
        "iteration-limit when no branch is optimal": (("iteration-limit", "infeasible"), None,
                                                      "iteration-limit", (0, False)),
        "relaxed optimal wins": (("infeasible", "infeasible"), ("iteration-limit", "optimal"),
                                 "relaxed", (1, True)),
        "relaxed iteration-limit is usable": (("infeasible", "infeasible"),
                                              ("iteration-limit", "infeasible"),
                                              "relaxed", (0, True)),
    }

    @staticmethod
    def scenario(steps=1, resolve_each_step=True):
        system = LtiSystem(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1), GRID1)
        phi, table = parse(TestStepDecision.TEXT)
        cfg = RunConfig(control=ControlConfig(horizon=3, u_min=-0.1, u_max=5), sim_steps=steps,
                        resolve_each_step=resolve_each_step)
        return system, phi, table, cfg

    @staticmethod
    def override(monkeypatch, plain, relaxed):
        """Patch the controller's solver; returns the objectives it saw by (branch, relaxed)."""
        real, seen = mpc.solve, {}

        def solve(p):
            sol = real(p)
            is_relaxed = p.layout.n_slack > 0
            statuses = relaxed if is_relaxed else plain
            if statuses is None:
                pytest.fail("the step relaxed although a branch was usable")
            branch = int(p.past_violated)
            seen[branch, is_relaxed] = sol.objective
            return replace(sol, status=statuses[branch])

        monkeypatch.setattr(mpc, "solve", solve)
        return seen

    @pytest.mark.parametrize("case", sorted(TABLE))
    def test_status_and_winner(self, case, monkeypatch):
        plain, relaxed, status, winner = self.TABLE[case]
        seen = self.override(monkeypatch, plain, relaxed)
        trace = run(*self.scenario())
        assert trace.statuses == (status, "final")
        assert trace.objectives[0] == seen[winner]

    def test_nothing_usable_after_relaxing_raises(self, monkeypatch):
        self.override(monkeypatch, ("infeasible", "infeasible"), ("infeasible", "infeasible"))
        with pytest.raises(ControlError, match="no usable solution at step 0"):
            run(*self.scenario())

    def test_plan_serves_the_steps_it_covers(self):
        trace = run(*self.scenario(steps=7, resolve_each_step=False))
        assert trace.statuses == ("optimal", "planned", "planned", "optimal", "planned",
                                  "planned", "optimal", "final")


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


def same_trace(a: Trace, b: Trace) -> bool:
    return (np.array_equal(a.states, b.states) and np.array_equal(a.inputs, b.inputs)
            and a.statuses == b.statuses
            and np.array_equal(a.objectives, b.objectives, equal_nan=True)
            and a.readout == b.readout)


REUSE_TEXT = "G[0,inf](F[12,48](x1 >= 1) & G[0,24](x1 <= 4))"


def reuse_scenario():
    system = LtiSystem(TANK_A, TANK_B, np.array([0.5, 0.1]), SamplingGrid(12.0))
    phi, table = parse(REUSE_TEXT, n_states=2)
    control = ControlConfig(horizon=6, u_min=0, u_max=6, budget_total=30.0)
    return system, phi, table, RunConfig(control=control, sim_steps=14)


def with_control(config: RunConfig, **change) -> RunConfig:
    return replace(config, control=replace(config.control, **change))


class TestCompileReuse:
    """``mpc.run`` keeps the compiled run of the last plant, formula and table
    on the ``RunConfig`` it ran with, and matches them by identity."""

    NOISE = NoiseModel("gaussian", 0.05, seed=3)

    @staticmethod
    def count(monkeypatch):
        """Count the calls of the compile steps ``mpc.run`` makes, by name."""
        calls = {}
        for name in ("compile_run", "to_pnf", "compute_schedule"):
            def counting(*args, _real=getattr(mpc, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(mpc, name, counting)
        return calls

    def test_repeated_runs_match_a_cold_compile(self, monkeypatch):
        cfg = cli.ScenarioConfig.from_file(cli.preset_path("two_tank_phi3_noisy"))
        args = (cfg.system, cfg.formula, cfg.table, cfg.run_config)
        calls = self.count(monkeypatch)
        first = run(*args, replace(cfg.noise, seed=5))
        run(*args, replace(cfg.noise, seed=6))
        second = run(*args, replace(cfg.noise, seed=5))
        assert calls == {"compile_run": 1, "to_pnf": 1, "compute_schedule": 1}
        cold = run(*args[:3], replace(cfg.run_config), replace(cfg.noise, seed=5))
        assert calls == {"compile_run": 2, "to_pnf": 2, "compute_schedule": 2}
        assert same_trace(first, second) and same_trace(second, cold)

    @pytest.mark.parametrize("change", [
        "equal", "horizon", "u_max", "input_penalty", "constraint_margin", "budget_total",
        "x0", "table_offset", "formula"])
    def test_any_changed_input_compiles_anew(self, change, monkeypatch):
        # a new config compiles anew; so does another plant, formula or table on
        # the same config, and it replaces the config's kept run
        system, phi, table, config = reuse_scenario()
        other = [system, phi, table, config]
        if change == "x0":
            other[0] = LtiSystem(system.A, system.B, np.array([0.6, 0.1]), system.grid)
        elif change == "table_offset":
            other[2] = PredicateTable(table.C, table.c + 0.25, table.names)
        elif change == "formula":
            other[1:3] = parse(REUSE_TEXT, n_states=2)
        else:
            value = {"equal": config.control.horizon, "horizon": 7, "u_max": 5.0,
                     "input_penalty": 0.01 * np.eye(1), "constraint_margin": 0.05,
                     "budget_total": 25.0}[change]
            other[3] = with_control(config, **{"horizon" if change == "equal" else change: value})
        calls = self.count(monkeypatch)
        run(system, phi, table, config, self.NOISE)
        warm = run(*other, self.NOISE)
        assert all(a is b for a, b in zip(other[3]._kept, other[:3]))
        again = run(system, phi, table, config, self.NOISE)
        assert all(a is b for a, b in zip(config._kept, (system, phi, table)))
        assert calls["compile_run"] == (3 if other[3] is config else 2)
        assert same_trace(warm, run(*other[:3], replace(other[3]), self.NOISE))
        assert same_trace(again, run(system, phi, table, replace(config), self.NOISE))

    def test_editing_a_callers_array_cannot_reach_a_kept_run(self):
        system, phi, table, config = reuse_scenario()
        penalty, u_max = 0.01 * np.eye(1), np.array([6.0])
        config = with_control(config, input_penalty=penalty, u_max=u_max)
        control = config.control
        first = run(system, phi, table, config, self.NOISE)
        penalty *= 50.0
        u_max[:] = 4.0
        assert np.array_equal(control.input_penalty, 0.01 * np.eye(1))
        assert np.array_equal(control.u_max, [6.0])
        for held in (control.input_penalty, control.u_max):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 1.0
        assert config._kept[-1].config is control
        assert same_trace(first, run(system, phi, table, config, self.NOISE))
        edited = run(system, phi, table, with_control(config, input_penalty=penalty,
                                                      u_max=u_max), self.NOISE)
        assert not same_trace(first, edited)

    @pytest.mark.parametrize("text", ["G[0,inf](G[0,2](x1 <= 1) & F[0,2](x1 >= 0.5))",
                                      TestStepDecision.TEXT])
    def test_list_children_run_as_a_tuple(self, text):
        phi, table = parse(text)
        listed = replace(phi, child=type(phi.child)(children=list(phi.child.children)))
        assert listed == phi and hash(listed) == hash(phi)
        system, _, _, config = TestStepDecision.scenario(steps=4)
        assert same_trace(run(system, listed, table, config),
                          run(system, phi, table, replace(config)))

    def test_templates_per_step_shape(self):
        # an all-time formula has (h_d - 1) + delta step shapes, one template each
        cfg = cli.ScenarioConfig.from_file(cli.preset_path("two_tank_phi3_noisy"))
        config = replace(cfg.run_config, sim_steps=120)
        run(cfg.system, cfg.formula, cfg.table, config, cfg.noise)
        kept = config._kept[-1]
        assert (kept.h_d, kept.schedule.delta) == (35, 11)
        assert len(kept.templates) == 45
        assert all(len(branches) == 1 for branches in kept.templates.values())

    def test_threads_share_the_kept_runs(self):
        # more threads than cores and frequent switches, over configs shared by
        # several jobs and, on one config, two plants that keep replacing each
        # other: every trace must still equal its cold, single-threaded run
        system, phi, table, config = reuse_scenario()
        other = LtiSystem(system.A, system.B, np.array([0.6, 0.1]), system.grid)
        configs = [with_control(config, constraint_margin=0.01 * i) for i in range(3)]
        jobs = [(other if i % 6 == 5 else system, configs[i % 3], replace(self.NOISE, seed=i))
                for i in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda job: run(job[0], phi, table, *job[1:]), jobs,
                                         timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for kept in (c._kept[-1] for c in configs):
            assert len(kept.templates) <= kept.h_d - 1 + kept.schedule.delta
        for (plant, cfg, noise), trace in zip(jobs, threaded):
            assert same_trace(trace, run(plant, phi, table, replace(cfg), noise))


NESTED = "G[0,inf](G[0,60](F[0,36](x1 >= 2)) & ((x1 <= 4) U[180,420] F[0,24](x2 <= 2.5)))"


class TestHorizonChecks:
    def test_short_horizon_rejected(self, tank):
        phi, table = parse("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))", n_states=2)
        cfg = RunConfig(control=ControlConfig(horizon=10, u_min=0, u_max=6), sim_steps=20)
        with pytest.raises(ValueError, match="shorter than the formula length"):
            qp_builder.compile_run(phi, tank, table, cfg.control)
        with pytest.raises(ValueError, match="shorter than the formula length"):
            run(tank, phi, table, cfg)

    @pytest.mark.parametrize("horizon", [35, 40])
    def test_fragment_is_checked_before_the_horizon(self, tank, horizon):
        # h_d = 37: at horizon 35 the formula is both nested and too long
        phi, table = parse(NESTED, n_states=2)
        control = ControlConfig(horizon=horizon, u_min=0, u_max=6)
        with pytest.raises(FragmentError, match="always-operand must be a predicate"):
            qp_builder.compile_run(phi, tank, table, control)
        with pytest.raises(FragmentError, match="always-operand must be a predicate"):
            run(tank, phi, table, RunConfig(control=control, sim_steps=5))

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


def scalar_readout(text: str, x) -> RobustnessReadout:
    phi, table = to_pnf(*parse(text, n_states=1))
    windows = collect_event_ops(unwrap(phi))
    sched = compute_schedule(windows, GRID1) if windows else None
    return mpc.readouts(Signal(np.asarray(x, dtype=float)[:, None], GRID1), phi, table, sched)


class TestMissingSamples:
    """A NaN predicate sample that the formula reads makes every readout unverifiable."""

    # the until's max skipped NaN candidates, so dasr read -inf where dsasr read nan
    @pytest.mark.parametrize("text", ["G[0,inf]((x1 >= 0) U[0,3] (x1 >= 2))",
                                      "G[0,inf](G[0,3](x1 >= 0))", "F[0,3](x1 >= 2)"])
    def test_nan_in_a_domain_is_unverifiable(self, text):
        x = np.linspace(0.0, 3.0, 20)
        x[2] = math.nan
        assert scalar_readout(text, x) == RobustnessReadout()

    def test_nan_outside_every_domain_leaves_the_readout(self):
        text = "G[0,3](x1 >= 0) & F[0,3](x1 >= 2)"       # reads steps 0 to 3
        x = np.linspace(0.0, 3.0, 20)
        expect = scalar_readout(text, x)
        x[10] = math.nan
        assert expect.satisfied is not None and expect.rd is None
        assert repr(scalar_readout(text, x)) == repr(expect)

    def test_nan_in_a_recorded_run(self):
        cfg = cli.ScenarioConfig.from_file(cli.preset_path("two_tank_phi2"))
        trace = run(cfg.system, cfg.formula, cfg.table, cfg.run_config, cfg.noise)
        sched = compute_schedule(collect_event_ops(unwrap(cfg.formula)), cfg.system.grid)
        states = trace.states.copy()
        assert mpc.readouts(Signal(states, cfg.system.grid), cfg.formula, cfg.table,
                            sched) == trace.readout
        states[20, 1] = math.nan
        assert mpc.readouts(Signal(states, cfg.system.grid), cfg.formula, cfg.table,
                            sched) == RobustnessReadout()

    def test_nan_in_a_recording_too_short_for_the_event(self):
        # the formula reads steps 4 to 7 of a recording that ends at step 5
        phi, table = to_pnf(*parse("event => G[0,3](x1 >= 0)", n_states=1, event_time=4.0))
        x = np.linspace(0.0, 1.0, 6)
        x[5] = math.nan
        assert mpc.readouts(Signal(x[:, None], GRID1), phi, table, None) == RobustnessReadout()
