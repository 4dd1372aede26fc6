"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest

from stlmpc import (
    Always,
    And,
    ControlConfig,
    Eventually,
    LtiSystem,
    Pred,
    PredicateTable,
    SamplingGrid,
    Signal,
    Until,
    add_slack_relaxation,
    build_E_until,
    build_problem,
    collect_event_ops,
    compile_run,
    compute_schedule,
    discrete_length,
    eval_bool,
    eval_dasr,
    eval_dsasr,
    eval_sr,
    run,
    solve,
)
from stlmpc.cli import ScenarioConfig, preset_path
from stlmpc.qp_builder import QpProblem, SparseRows, VariableLayout

from conftest import (
    bool_direct,
    check_plan,
    dasr_direct,
    projected_gradient_oracle,
    random_pred_table,
    random_signal,
    random_theta,
    rollout,
    sr_direct,
)

GRID1 = SamplingGrid(1.0)


def report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: PASS — {text}")


def best_of(fn, repeats=3) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_01_schedule_golden():
    sched = compute_schedule([(5, 15), (5, 15)], GRID1)
    assert sched.delta == 11
    assert sched.eta == 5
    assert sched.baselines == (5, 10)
    elapsed = best_of(lambda: compute_schedule([(5, 15), (5, 15)], GRID1))
    assert elapsed < 1e-3
    report(1, f"schedule golden values exact, {elapsed*1e6:.0f} us")


def test_02_until_cost_matrix_golden():
    k1 = {2: 4, 3: 4, 4: 6}.__getitem__
    E = build_E_until(N=3, h_d=2, k0=3, k1_fn=k1)
    expected = 0.5 * np.array([
        [1/3, 0, 1/3, 0, 1/3, 1, 0, 0, 0, 0],
        [0,   0, 1/2, 0, 1/2, 1, 0, 0, 0, 0],
        [0,   0, 0,   0, 1/3, 0, 1/3, 0, 1/3, 1],
    ])
    assert np.array_equal(E, expected)
    elapsed = best_of(lambda: build_E_until(N=3, h_d=2, k0=3, k1_fn=k1))
    assert elapsed < 1e-3
    report(2, f"until cost matrix bit-exact, {elapsed*1e6:.0f} us")


def _run_preset(name: str, seed: int | None = None):
    cfg = ScenarioConfig.from_file(preset_path(name))
    noise = cfg.noise if seed is None else dataclasses.replace(cfg.noise, seed=seed)
    return run(cfg.system, cfg.formula, cfg.table, cfg.run_config, noise)


def test_03_two_window_reproduction():
    t0 = time.perf_counter()
    dasr_trace = _run_preset("example2_dasr")
    sr_trace = _run_preset("example2_sr")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0

    assert dasr_trace.readout.prd == pytest.approx(5.12, abs=0.10)
    assert 0.0 <= dasr_trace.readout.rd <= 0.02
    assert sr_trace.readout.prd == pytest.approx(3.01, abs=0.10)
    assert sr_trace.readout.rd == pytest.approx(0.215, abs=0.02)
    report(3, (f"averaged run PRD={dasr_trace.readout.prd:.3f} RD={dasr_trace.readout.rd:.4f}; "
               f"worst-case run PRD={sr_trace.readout.prd:.3f} RD={sr_trace.readout.rd:.4f}; "
               f"{elapsed:.2f} s"))


def test_04_case_study_noise_free():
    times = {}
    for name in ("two_tank_phi1", "two_tank_phi2", "two_tank_phi3"):
        t0 = time.perf_counter()
        trace = _run_preset(name)
        times[name] = time.perf_counter() - t0
        assert trace.readout.satisfied is True, name
        assert "iteration-limit" not in trace.statuses, name
        assert times[name] < 10.0
    report(4, "all three formulas satisfied noise-free; " +
           ", ".join(f"{k.split('_')[-1]}={v:.1f}s" for k, v in times.items()))


def test_05_case_study_under_noise():
    t0 = time.perf_counter()
    summary = []
    for name in ("two_tank_phi1_noisy", "two_tank_phi2_noisy", "two_tank_phi3_noisy"):
        satisfied = 0
        snrs = []
        for seed in range(20):
            trace = _run_preset(name, seed=seed)
            assert "iteration-limit" not in trace.statuses, f"{name} at seed {seed}"
            satisfied += bool(trace.readout.satisfied)
            snrs.append(trace.snr_db)
        mean_snr = float(np.mean(snrs))
        assert 10.0 <= mean_snr <= 14.0, name
        assert satisfied >= 18, f"{name}: {satisfied}/20"
        summary.append(f"{name.split('_')[2]}: {satisfied}/20 at {mean_snr:.1f} dB")
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    report(5, "; ".join(summary) + f"; {elapsed:.0f} s total")


def _random_psi(rng: np.random.Generator, n_preds: int):
    kind = rng.integers(0, 3)
    a = int(rng.integers(0, 3))
    b = a + int(rng.integers(1, 4))
    mk = lambda: Pred(int(rng.integers(n_preds)))
    if kind == 0:
        return Until(mk(), mk(), float(a), float(b))
    if kind == 1:
        return Eventually(mk(), float(a), float(b))
    return Always(mk(), float(a), float(b))


def _random_system(rng: np.random.Generator, n=2, m=1) -> LtiSystem:
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.4, 0.95) / max(abs(np.linalg.eigvals(A)))
    return LtiSystem(A, rng.normal(size=(n, m)), rng.normal(scale=0.5, size=n), GRID1)


def test_06_cost_semantics_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        n_preds = int(rng.integers(1, 4))
        theta = _random_psi(rng, n_preds)
        system = _random_system(rng)
        table = PredicateTable(rng.normal(size=(n_preds, 2)), rng.normal(size=n_preds))
        h_d = discrete_length(theta, GRID1)
        N = max(1, h_d + int(rng.integers(0, 3)))
        windows = collect_event_ops(theta)
        sched = compute_schedule(windows, GRID1) if windows else None
        k0 = int(rng.integers(0, h_d + 2))
        u_hist = rng.uniform(-2, 2, size=(k0, 1))
        history = rollout(system.A, system.B, system.x0, u_hist, GRID1).states
        u_plan = rng.uniform(-2, 2, size=(N, 1))

        p = build_problem(compile_run(theta, system, table, ControlConfig(horizon=N), sched), k0=k0,
                          state_history=history, input_history=u_hist)[0]
        z_all = p.debug["z_const"] + p.debug["z_coeff"] @ u_plan.reshape(-1)
        cost_matrix = float(p.debug["E"].sum(axis=0) @ z_all)
        full = rollout(system.A, system.B, system.x0, np.vstack([u_hist, u_plan]), GRID1)
        cost_semantics = sum(eval_dsasr(full, kk, theta, table, sched)
                             for kk in p.debug["anchors"])
        worst = max(worst, abs(cost_matrix - cost_semantics))
        assert worst <= 1e-8
    report(6, f"100 instances, worst |matrix - semantics| = {worst:.2e}")


def test_07_constraint_semantics_oracle():
    rng = np.random.default_rng(4321)
    solved = rescued = 0
    trials = 0
    while solved < 100 and trials < 500:
        trials += 1
        n_preds = int(rng.integers(1, 3))
        theta = _random_psi(rng, n_preds)
        system = _random_system(rng)
        table = PredicateTable(rng.normal(size=(n_preds, 2)),
                               rng.uniform(0.5, 3.0, size=n_preds))
        h_d = discrete_length(theta, GRID1)
        N = max(1, h_d + int(rng.integers(0, 2)))
        windows = collect_event_ops(theta)
        sched = compute_schedule(windows, GRID1) if windows else None
        k0 = int(rng.integers(0, 2)) * h_d
        u_hist = rng.uniform(-0.5, 0.5, size=(k0, 1))
        history = rollout(system.A, system.B, system.x0, u_hist, GRID1).states
        config = ControlConfig(horizon=N, u_min=-4, u_max=4)
        p = build_problem(compile_run(theta, system, table, config, sched),
                          k0=k0, state_history=history, input_history=u_hist)[0]
        sol = solve(p)
        if sol.status != "optimal":
            continue
        full = rollout(system.A, system.B, system.x0,
                       np.vstack([u_hist, sol.inputs]), GRID1)
        # a violated recorded sample cannot make the step infeasible, only the
        # formula false; the plan still meets every future satisfaction row
        if check_plan(p, theta, table, full, k0, config.constraint_margin):
            solved += 1
        else:
            rescued += 1
    assert solved >= 100 and rescued > 0
    report(7, f"{solved} feasible plans with a satisfied past all satisfy the formula at every "
              f"anchor; {rescued} with a violated past meet every future row")


def test_08_solver_oracle():
    # analytic toys first
    def toy(quad, lin, A, b):
        lin = np.asarray(lin, dtype=float)
        n = lin.shape[0]
        return QpProblem(quad=np.atleast_2d(np.asarray(quad, dtype=float)), lin=lin,
                         const=0.0, rows=SparseRows.from_dense(np.reshape(A, (-1, n))),
                         b_ub=np.asarray(b, dtype=float).reshape(-1),
                         layout=VariableLayout(0, n, 1),
                         row_kinds=tuple("box" for _ in range(len(b))),
                         stl_row_info={}, n_predicates=0, cost_pred_mass=np.zeros(0))

    s1 = solve(toy([[1.0]], [0.0], [[-1.0]], [-1.0]))
    assert s1.objective == pytest.approx(-1.0, abs=1e-8)
    s2 = solve(toy(np.zeros((1, 1)), [1.0], [[1.0], [1.0]], [3.0, 5.0]))
    assert s2.objective == pytest.approx(3.0, abs=1e-8)

    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        G = rng.normal(size=(n, n))
        quad = G @ G.T / n + 0.1 * np.eye(n)
        lin = rng.normal(size=n)
        n_extra = int(rng.integers(1, n + 2))
        A_extra = rng.normal(size=(n_extra, n))
        x_feas = rng.uniform(-0.5, 0.5, size=n)
        b_extra = A_extra @ x_feas + rng.uniform(0.1, 1.0, size=n_extra)
        A = np.vstack([A_extra, np.eye(n), -np.eye(n)])
        b = np.concatenate([b_extra, np.full(n, 2.0), np.full(n, 2.0)])
        p = toy(quad, lin, A, b)
        sol = solve(p)
        assert sol.status == "optimal"
        x_ref = projected_gradient_oracle(2 * quad, -lin, A, b)
        obj_ref = float(lin @ x_ref - x_ref @ quad @ x_ref)
        rel = abs(sol.objective - obj_ref) / max(1.0, abs(obj_ref))
        worst = max(worst, rel)
        assert rel <= 1e-5
    report(8, f"toys exact; 50 random instances, worst relative gap {worst:.2e}")


def test_09_semantics_brute_force():
    table = PredicateTable([[1.0], [-1.0]], [0.0, 0.5])
    formulas = [
        Always(Pred(0), 0.0, 3.0),
        Eventually(Pred(0), 1.0, 3.0),
        Until(Pred(0), Pred(1), 0.0, 2.0),
        And((Always(Pred(0), 0.0, 2.0), Eventually(Pred(1), 0.0, 3.0))),
    ]
    checked = 0
    for formula in formulas:
        hd = discrete_length(formula, GRID1)
        for length in range(hd + 1, 7):
            for values in itertools.product((-1.0, 0.0, 1.0), repeat=length):
                s = Signal(np.array([[v] for v in values]), GRID1)
                z = s.predicate_values(table)
                assert eval_sr(s, 0, formula, table) == pytest.approx(
                    sr_direct(z, 0, formula, 1.0))
                assert eval_dasr(s, 0, formula, table) == pytest.approx(
                    dasr_direct(z, 0, formula, 1.0))
                assert eval_bool(s, 0, formula, table) == bool_direct(z, 0, formula, 1.0)
                checked += 1
    report(9, f"{checked} exhaustive signal/formula pairs match the direct evaluators")


def test_10_predicate_shift_monotonicity():
    rng = random.Random(99)
    failures = 0
    done = 0
    while done < 500:
        f = random_theta(rng, 3, allow_not=False)
        windows = collect_event_ops(f)
        try:
            sched = compute_schedule(windows, GRID1) if windows else None
        except Exception:
            continue
        table = random_pred_table(rng, 3, 2)
        s = random_signal(rng, discrete_length(f, GRID1) + 1, n_states=2)
        zeta = np.array([rng.uniform(0.05, 1.5) for _ in range(3)])
        shifted = PredicateTable(table.C.copy(), table.c + zeta, table.names)
        zmin = zeta.min()
        for base_eval, lift_eval in (
            (eval_sr(s, 0, f, table), eval_sr(s, 0, f, shifted)),
            (eval_dasr(s, 0, f, table), eval_dasr(s, 0, f, shifted)),
            (eval_dsasr(s, 0, f, table, sched), eval_dsasr(s, 0, f, shifted, sched)),
        ):
            if not (lift_eval > base_eval and lift_eval - base_eval >= zmin - 1e-9):
                failures += 1
        done += 1
    assert failures == 0
    report(10, "500 shifted instances, zero monotonicity failures")


def test_11_slack_relaxation():
    # analytic infeasible toy: state frozen at zero, requirement x1 >= 5
    frozen = LtiSystem(np.eye(1), np.zeros((1, 1)), np.zeros(1), GRID1)
    table = PredicateTable([[1.0]], [-5.0])
    theta = Always(Pred(0), 0.0, 0.0)
    p = build_problem(compile_run(theta, frozen, table, ControlConfig(horizon=1)))[0]
    assert solve(p).status == "infeasible"
    sol = solve(add_slack_relaxation(p, s=1e4))
    assert sol.status == "optimal"
    assert sol.slacks[0] == pytest.approx(5.0, abs=1e-6)

    # feasible two-tank problem keeps every slack at zero
    from stlmpc import parse, to_pnf

    phi, tbl = parse("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))", n_states=2)
    phi, tbl = to_pnf(phi, tbl)
    tank = LtiSystem(np.array([[0.79, 0.0], [0.176, 0.0296]]),
                     np.array([[0.281], [0.0296]]), np.zeros(2), SamplingGrid(12.0))
    p2 = build_problem(compile_run(phi, tank, tbl, ControlConfig(horizon=20, u_min=0, u_max=6)))[0]
    sol2 = solve(add_slack_relaxation(p2, s=1e4))
    assert sol2.status == "optimal"
    assert np.abs(sol2.slacks).max() <= 1e-6
    report(11, f"violation slack exactly 5.0 when forced, {np.abs(sol2.slacks).max():.1e} when feasible")
