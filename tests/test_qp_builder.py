"""Compilation correctness: stacked dynamics, cost/constraint matrices, slack."""

import math
import random

import numpy as np
import pytest

from stlmpc import (
    AllTime,
    Always,
    And,
    ControlConfig,
    Eventually,
    FragmentError,
    LtiSystem,
    Pred,
    PredicateTable,
    SamplingGrid,
    Signal,
    Until,
    add_slack_relaxation,
    build_E_always,
    build_E_eventually,
    build_E_until,
    build_problem,
    build_sr_baseline,
    collect_event_ops,
    compile_run,
    compute_schedule,
    discrete_length,
    eval_dsasr,
    omega,
    solve,
    stack_dynamics,
)
from stlmpc.stl import OneTime

from conftest import TANK_A, TANK_B, check_plan, rollout

GRID1 = SamplingGrid(1.0)


class TestStackDynamics:
    def test_frozen_dynamics(self):
        dyn = stack_dynamics(np.eye(2), np.zeros((2, 1)), np.eye(2), np.zeros(2), N=2)
        np.testing.assert_array_equal(dyn.H1, np.vstack([np.eye(2), np.eye(2)]))
        np.testing.assert_array_equal(dyn.H2, np.zeros((4, 2)))
        x0 = np.array([1.5, -2.0])
        np.testing.assert_array_equal(dyn.H1 @ x0 + dyn.H2 @ np.zeros(2) + dyn.offset,
                                      np.tile(x0, 2))

    def test_two_tank_single_step(self):
        dyn = stack_dynamics(TANK_A, TANK_B, np.array([[1.0, 0.0]]), [-1.0], N=1)
        np.testing.assert_allclose(dyn.H1, [[0.79, 0.0]])
        np.testing.assert_allclose(dyn.H2, [[0.281]])
        np.testing.assert_array_equal(dyn.offset, [-1.0])

    def test_matches_stepwise_rollout(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        B = rng.normal(size=(3, 2))
        C = rng.normal(size=(2, 3))
        c = rng.normal(size=2)
        x0 = rng.normal(size=3)
        u = rng.normal(size=(4, 2))
        dyn = stack_dynamics(A, B, C, c, N=4)
        sig = rollout(A, B, x0, u, GRID1)
        direct = np.concatenate([C @ sig.states[k] + c for k in range(1, 5)])
        np.testing.assert_allclose(dyn.H1 @ x0 + dyn.H2 @ u.reshape(-1) + dyn.offset, direct,
                                   atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            stack_dynamics(np.eye(2), np.zeros((3, 1)), np.eye(2), np.zeros(2), N=2)

    @pytest.mark.parametrize("n, m, n_mu, N", [(1, 1, 1, 1), (2, 1, 2, 35), (3, 2, 3, 6)])
    def test_blocks_match_explicit_powers_exactly(self, n, m, n_mu, N):
        rng = np.random.default_rng(n * 100 + N)
        A = rng.normal(size=(n, n)) * 0.6
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(n_mu, n))
        c = rng.normal(size=n_mu)
        dyn = stack_dynamics(A, B, C, c, N)
        # reference: block row i is C A^(i+1), block (i, j) is C A^(i-j) B below the diagonal,
        # with the powers multiplied in the same order as the stacking
        CA = [C @ A]
        for _ in range(N - 1):
            CA.append(CA[-1] @ A)
        CAB = [C @ B] + [CA[k] @ B for k in range(N - 1)]
        H2 = np.zeros((N * n_mu, N * m))
        for i in range(N):
            for j in range(i + 1):
                H2[i * n_mu:(i + 1) * n_mu, j * m:(j + 1) * m] = CAB[i - j]
        assert np.array_equal(dyn.H1, np.vstack(CA))
        assert np.array_equal(dyn.H2, H2)
        assert np.array_equal(np.signbit(dyn.H2), np.signbit(H2))
        assert np.array_equal(dyn.offset, np.tile(c, N))


def paper_until_k1(i_k: int) -> int:
    return {2: 4, 3: 4, 4: 6}[i_k]


class TestEMatrices:
    def test_until_worked_example(self):
        E = build_E_until(N=3, h_d=2, k0=3, k1_fn=paper_until_k1)
        expected = 0.5 * np.array([
            [1/3, 0, 1/3, 0, 1/3, 1, 0, 0, 0, 0],
            [0,   0, 1/2, 0, 1/2, 1, 0, 0, 0, 0],
            [0,   0, 0,   0, 1/3, 0, 1/3, 0, 1/3, 1],
        ])
        assert E.shape == (3, 10)
        assert np.array_equal(E, expected)

    def test_until_degenerate_window(self):
        E = build_E_until(N=1, h_d=0, k0=5, k1_fn=lambda k: k)
        # average over the single sample plus the right predicate, both halves
        assert E.shape == (1, 2)
        np.testing.assert_array_equal(E, [[0.5, 0.5]])

    def test_eventually_shared_column(self):
        E = build_E_eventually(N=3, h_d=2, k0=2, k1_fn=lambda k: 3)
        assert E.shape == (3, 5)
        for i in range(3):
            assert E[i].sum() == 1.0
            assert E[i, 3 - (2 - 2) - 1 + 0] == 1.0  # column of z1(3)

    def test_always_window_weights(self):
        E = build_E_always(N=2, h_d=3, k0=3, window_fn=lambda ik: (ik + 1, ik + 3))
        assert E.shape == (2, 5)
        np.testing.assert_allclose(E[0], [0, 1/3, 1/3, 1/3, 0])
        np.testing.assert_allclose(E[1], [0, 0, 1/3, 1/3, 1/3])

    def test_always_degenerate_window(self):
        E = build_E_always(N=1, h_d=2, k0=2, window_fn=lambda ik: (ik + 2, ik + 2))
        assert np.count_nonzero(E) == 1
        assert E.sum() == 1.0

    @pytest.mark.parametrize("k1", [{2: 4, 3: 2, 4: 6}, {2: 4, 3: 4, 4: 2}])
    def test_until_witness_before_anchor_rejected(self, k1):
        # the witness of anchor 3 is one step early; that of anchor 4 two steps
        with pytest.raises(ValueError, match="precedes its anchor"):
            build_E_until(N=3, h_d=2, k0=3, k1_fn=k1.__getitem__)

    @pytest.mark.parametrize("lo, hi", [(2, 1), (3, 1)])
    def test_always_empty_window_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="is empty"):
            build_E_always(N=2, h_d=3, k0=3, window_fn=lambda ik: (ik + lo, ik + hi))

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_are_stochastic(self, seed):
        # every builder row is a convex combination over predicate samples
        rng = random.Random(seed)
        h_d = rng.randrange(2, 6)
        N = rng.randrange(1, 5)
        k0 = rng.randrange(h_d - 1, h_d + 5)
        a = rng.randrange(0, h_d)

        def k1(ik):
            return ik + rng.randrange(a, h_d + 1)  # inside a plausible window

        rng_state = random.Random(seed)          # frozen picks for both calls
        picks = {}

        def k1_frozen(ik):
            if ik not in picks:
                picks[ik] = ik + rng_state.randrange(a, h_d + 1)
            return picks[ik]

        for E in (
            build_E_until(N, h_d, k0, k1_frozen),
            build_E_eventually(N, h_d, k0, k1_frozen),
            build_E_always(N, h_d, k0, lambda ik: (ik + a, ik + h_d)),
        ):
            assert (E >= 0).all()
            np.testing.assert_allclose(E.sum(axis=1), 1.0)


def two_tank_system(T=12.0):
    return LtiSystem(TANK_A, TANK_B, np.zeros(2), SamplingGrid(T))


class TestBuildProblem:
    def test_zero_penalty_gives_lp(self, tank):
        phi, table = _parse_pnf("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))")
        p = build_problem(compile_run(phi, tank, table,
                                      ControlConfig(horizon=20, u_min=0, u_max=6)))[0]
        assert not np.any(p.quad)

    def test_disjunction_splits_into_branches(self, tank):
        phi, table = _parse_pnf("G[0,inf](G[0,24](x1 >= 0) | F[0,24](x1 >= 2))")
        probs = build_problem(compile_run(phi, tank, table,
                                          ControlConfig(horizon=2, u_min=0, u_max=6)))
        assert len(probs) == 2
        assert [p.branch for p in probs] == [0, 1]

    def test_true_inside_operator_rejected(self, tank):
        from stlmpc import parse

        phi, table = parse("G[0,inf](true U[120,240] (x1 <= 5))", n_states=2)
        with pytest.raises(FragmentError):
            build_problem(compile_run(phi, tank, table,
                                      ControlConfig(horizon=20, u_min=0, u_max=6)))

    def test_horizon_shorter_than_formula_rejected(self, tank):
        phi, table = _parse_pnf("G[0,inf](G[0,120](x1 >= 0))")
        with pytest.raises(ValueError):
            build_problem(compile_run(phi, tank, table, ControlConfig(horizon=5)))

    def test_satisfaction_rows_are_the_weighed_samples_after_k0(self):
        # recorded samples are constants: no row for them, the margin on every row
        system = LtiSystem(np.array([[0.8]]), np.array([[1.0]]), np.zeros(1), GRID1)
        phi, table = _parse_pnf("G[0,inf]((G[0,2](x1 >= 0.5) & ((x1 >= 0) U[1,3] (x1 <= 5)))"
                                " | F[0,2](x1 >= 1))", n_states=1)
        run = compile_run(phi, system, table, ControlConfig(horizon=5, constraint_margin=0.25))
        history = np.random.default_rng(11).uniform(-1, 6, size=(9, 1))
        recorded, violated = 0, set()
        for k0 in range(history.shape[0]):
            for p in build_problem(run, k0=k0, state_history=history[:k0 + 1]):
                weighed = np.flatnonzero(p.debug["E"].any(axis=0))
                step = weighed // table.size + p.debug["t_lo"]
                recorded += int(np.count_nonzero(step <= k0))
                past = p.debug["z_const"][weighed[step <= k0]]
                assert p.past_violated == bool(np.any(past < 0))
                violated.add(p.past_violated)
                cols = weighed[step > k0]
                n = cols.size
                assert list(p.stl_row_info.values()) == list(zip(
                    (cols % table.size).tolist(), step[step > k0].tolist()))
                assert p.row_kinds[:n] == ("stl",) * n and "stl" not in p.row_kinds[n:]
                assert np.array_equal(p.b_ub[:n], p.debug["z_const"][cols] - 0.25)
        assert recorded > 0 and violated == {False, True}

    def test_steps_of_one_shape_share_their_template(self):
        # a step's matrices are its shape's, read-only and shared; its right-hand
        # side is its own, equal to that of a run that never built the shape
        system = LtiSystem(np.array([[0.8]]), np.array([[1.0]]), np.zeros(1), GRID1)
        phi, table = _parse_pnf("G[0,inf]((G[0,2](x1 >= 0.5) & ((x1 >= 0) U[1,3] (x1 <= 5)))"
                                " | F[0,2](x1 >= 1))", n_states=1)
        config = ControlConfig(horizon=5, u_min=-1, u_max=4, input_penalty=np.eye(1))
        run = compile_run(phi, system, table, config)
        history = np.random.default_rng(5).uniform(-1, 6, size=(12, 1))
        k0, delta = run.h_d, run.schedule.delta
        first, second = (build_problem(run, k0=k, state_history=history[:k + 1])
                         for k in (k0, k0 + delta))
        fresh = build_problem(compile_run(phi, system, table, config), k0=k0 + delta,
                              state_history=history[:k0 + delta + 1])
        for branch, (a, b, c) in enumerate(zip(first, second, fresh, strict=True)):
            assert a.branch == b.branch == c.branch == branch
            for name in ("rows", "lin", "quad", "layout", "row_kinds"):
                assert getattr(a, name) is getattr(b, name), name
            for arr in (a.rows.start, a.rows.index, a.rows.value, a.lin, a.quad):
                assert not arr.flags.writeable
            assert list(b.stl_row_info.values()) == [
                (p, k + delta) for p, k in a.stl_row_info.values()]
            assert not np.array_equal(a.b_ub, b.b_ub)
            assert np.array_equal(b.b_ub, c.b_ub) and b.const == c.const
            assert b.stl_row_info == c.stl_row_info and b.past_violated == c.past_violated
        assert len(first) == 2 and first[0].layout.n_epigraph and not first[1].layout.n_epigraph

    def test_matches_literal_until_matrix(self):
        # the general compiler and each single-operator constructor agree on a
        # steady-state problem with that one operator
        system = LtiSystem(np.eye(1) * 0.9, np.eye(1), np.zeros(1), GRID1)
        sched = compute_schedule([(1.0, 2.0)], GRID1)
        N, h_d, k0 = 3, 2, 3

        def k1_fn(ik):
            return sched.k1_at(0, ik)

        cases = [
            (Until(Pred(0), Pred(1), 1.0, 2.0), build_E_until(N, h_d, k0, k1_fn)),
            (Eventually(Pred(0), 1.0, 2.0), build_E_eventually(N, h_d, k0, k1_fn)),
            (Always(Pred(0), 1.0, 2.0), build_E_always(N, h_d, k0, lambda ik: (ik + 1, ik + 2))),
        ]
        for theta, E_raw in cases:
            n_mu = 2 if isinstance(theta, Until) else 1
            table = PredicateTable([[1.0], [-1.0]][:n_mu], [0.0, 5.0][:n_mu])
            p = build_problem(compile_run(theta, system, table, ControlConfig(horizon=N), sched),
                              k0=k0, state_history=np.zeros((k0 + 1, 1)))[0]
            assert np.array_equal(p.debug["E"], E_raw)
            assert np.array_equal(np.signbit(p.debug["E"]), np.signbit(E_raw))


def _parse_pnf(text, n_states=2):
    from stlmpc import parse, to_pnf

    f, table = parse(text, n_states=n_states)
    return to_pnf(f, table)


def random_system(rng: np.random.Generator, n=2, m=1, T=1.0) -> LtiSystem:
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.4, 0.95) / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, m))
    x0 = rng.normal(scale=0.5, size=n)
    return LtiSystem(A, B, x0, SamplingGrid(T))


def random_psi_formula(rng: np.random.Generator, n_preds: int):
    kind = rng.integers(0, 3)
    a = int(rng.integers(0, 3))
    b = a + int(rng.integers(1, 4))
    if kind == 0:
        return Until(Pred(int(rng.integers(n_preds))), Pred(int(rng.integers(n_preds))),
                     float(a), float(b))
    if kind == 1:
        return Eventually(Pred(int(rng.integers(n_preds))), float(a), float(b))
    return Always(Pred(int(rng.integers(n_preds))), float(a), float(b))


class TestCostSemanticsAgreement:
    """The compiled cost equals the summed scheduled-average robustness."""

    # k0 = 0; 0 < k0 < h_d - 1, where the anchor set still grows; k0 >= h_d
    @pytest.mark.parametrize("window", ["start", "growing", "steady"])
    def test_random_instances(self, window):
        rng = np.random.default_rng({"start": 24, "growing": 33, "steady": 42}[window])
        checked = 0
        for trial in range(100):
            n_preds = int(rng.integers(1, 4))
            theta = random_psi_formula(rng, n_preds)
            if rng.random() < 0.4:
                theta = And((theta, random_psi_formula(rng, n_preds)))
            system = random_system(rng)
            table = PredicateTable(rng.normal(size=(n_preds, 2)), rng.normal(size=n_preds))
            h_d = discrete_length(theta, GRID1)
            N = h_d + int(rng.integers(0, 3))
            if N < max(1, h_d):
                N = max(1, h_d)
            windows = collect_event_ops(theta)
            try:
                sched = compute_schedule(windows, GRID1) if windows else None
            except Exception:
                continue
            if window == "growing":
                if h_d < 3:
                    continue
                k0 = int(rng.integers(1, h_d - 1))
            else:
                k0 = int(rng.integers(h_d, h_d + 3)) if window == "steady" else 0
            checked += 1

            # random recorded history and a random future input plan
            u_hist = rng.uniform(-2, 2, size=(k0, 1))
            hist_sig = rollout(system.A, system.B, system.x0, u_hist, GRID1)
            history = hist_sig.states
            u_plan = rng.uniform(-2, 2, size=(N, 1))

            probs = build_problem(compile_run(theta, system, table,
                                              ControlConfig(horizon=N), sched),
                                  k0=k0, state_history=history, input_history=u_hist)
            assert len(probs) == 1
            p = probs[0]
            z_const, z_coeff = p.debug["z_const"], p.debug["z_coeff"]
            z_all = z_const + z_coeff @ u_plan.reshape(-1)
            full_u = np.vstack([u_hist, u_plan])
            full = rollout(system.A, system.B, system.x0, full_u, GRID1)
            anchors = p.debug["anchors"]

            # row-by-row: each conjunct's matrix evaluates its scheduled
            # robustness at every anchor (witness indices are global)
            conjuncts = theta.children if isinstance(theta, And) else (theta,)
            op_offset = 0
            for E_j, psi in zip(p.debug["E_per_conjunct"], conjuncts):
                shift = op_offset

                def provider(i, kk, _s=shift):
                    return sched.k1_at(i + _s, kk)

                for row, kk in enumerate(anchors):
                    semantic = eval_dsasr(full, kk, psi, table,
                                          provider if sched else None)
                    assert abs(float(E_j[row] @ z_all) - semantic) <= 1e-8
                op_offset += len(collect_event_ops(psi))

            if len(conjuncts) == 1:
                cost_matrix = float(p.debug["E"].sum(axis=0) @ z_all)
                cost_semantics = sum(
                    eval_dsasr(full, kk, theta, table, sched) for kk in anchors)
                assert abs(cost_matrix - cost_semantics) <= 1e-8
        assert checked >= 50


def per_anchor_weights(psi, op_index, anchor, sched):
    """Column weights {(step, predicate): weight} of one conjunct at one anchor, term by term."""
    weights = {}

    def add(k, p, w):
        weights[(k, p)] = weights.get((k, p), 0.0) + w

    if isinstance(psi, Always):
        base = omega(psi.a, psi.b, GRID1)
        for k in base:
            add(anchor + k, psi.child.pred_id, 1.0 / len(base))
    elif isinstance(psi, Eventually):
        add(sched.k1_at(op_index, anchor), psi.child.pred_id, 1.0)
    else:
        k1 = sched.k1_at(op_index, anchor)
        for k in range(anchor, k1 + 1):
            add(k, psi.left.pred_id, 0.5 / (k1 - anchor + 1))
        add(k1, psi.right.pred_id, 0.5)
    return weights


class TestArrayAssembly:
    """E matrices and satisfaction rows equal a per-anchor loop, bit for bit."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_per_anchor_loop(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(60):
            n_preds = int(rng.integers(1, 4))
            conjuncts = [random_psi_formula(rng, n_preds) for _ in range(int(rng.integers(1, 4)))]
            theta = And(tuple(conjuncts)) if len(conjuncts) > 1 else conjuncts[0]
            windows = collect_event_ops(theta)
            try:
                sched = compute_schedule(windows, GRID1) if windows else None
            except Exception:
                continue
            system = random_system(rng)
            table = PredicateTable(rng.normal(size=(n_preds, 2)), rng.normal(size=n_preds))
            h_d = discrete_length(theta, GRID1)
            N = h_d + int(rng.integers(0, 3))
            k0 = int(rng.integers(0, 2 * h_d + 2))
            u_hist = rng.uniform(-2, 2, size=(k0, 1))
            history = rollout(system.A, system.B, system.x0, u_hist, GRID1).states
            p = build_problem(compile_run(theta, system, table, ControlConfig(horizon=N), sched),
                              k0=k0, state_history=history, input_history=u_hist)[0]
            anchors, t_lo = p.debug["anchors"], p.debug["t_lo"]
            points = {}
            op_index = 0
            for psi, E_j in zip(conjuncts, p.debug["E_per_conjunct"]):
                E_ref = np.zeros_like(E_j)
                for i, anchor in enumerate(anchors):
                    for (k, pid), w in per_anchor_weights(psi, op_index, anchor, sched).items():
                        E_ref[i, (k - t_lo) * n_preds + pid] += w
                        if k > k0:
                            points.setdefault((pid, k))
                assert np.array_equal(E_j, E_ref)
                op_index += len(collect_event_ops(psi))
            # one satisfaction row per weighed sample after k0, in (step, predicate) order
            assert list(p.stl_row_info.values()) == sorted(points, key=lambda pk: pk[::-1])


class TestConstraintSemanticsAgreement:
    """Feasible plans satisfy the formula at every anchor after rollout."""

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        solved = rescued = 0
        trials = 0
        while solved < 100 and trials < 400:
            trials += 1
            n_preds = int(rng.integers(1, 3))
            theta = random_psi_formula(rng, n_preds)
            system = random_system(rng)
            # generous offsets keep a good fraction of the instances feasible
            table = PredicateTable(rng.normal(size=(n_preds, 2)),
                                   rng.uniform(0.5, 3.0, size=n_preds))
            h_d = discrete_length(theta, GRID1)
            N = h_d + int(rng.integers(0, 2))
            if N < 1:
                N = 1
            windows = collect_event_ops(theta)
            sched = compute_schedule(windows, GRID1) if windows else None
            k0 = int(rng.integers(0, 2)) * h_d
            u_hist = rng.uniform(-0.5, 0.5, size=(k0, 1))
            history = rollout(system.A, system.B, system.x0, u_hist, GRID1).states

            config = ControlConfig(horizon=N, u_min=-4, u_max=4)
            probs = build_problem(compile_run(theta, system, table, config, sched),
                                  k0=k0, state_history=history, input_history=u_hist)
            sol = solve(probs[0])
            if sol.status != "optimal":
                continue
            full_u = np.vstack([u_hist, sol.inputs])
            full = rollout(system.A, system.B, system.x0, full_u, GRID1)
            # a violated recorded sample leaves the step feasible; the plan still
            # meets every future satisfaction row
            if check_plan(probs[0], theta, table, full, k0, config.constraint_margin):
                solved += 1
            else:
                rescued += 1
        assert solved >= 100 and rescued > 0


class TestEpigraphConjunction:
    def test_tight_at_optimum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            system = random_system(rng)
            table = PredicateTable(rng.normal(size=(2, 2)), rng.uniform(0.5, 2.0, size=2))
            theta = And((Always(Pred(0), 0.0, 2.0), Eventually(Pred(1), 1.0, 3.0)))
            sched = compute_schedule([(1.0, 3.0)], GRID1)
            N = discrete_length(theta, GRID1) + 1
            p = build_problem(compile_run(theta, system, table,
                                          ControlConfig(horizon=N, u_min=-3, u_max=3), sched))[0]
            sol = solve(p)
            if sol.status != "optimal":
                continue
            z_all = p.debug["z_const"] + p.debug["z_coeff"] @ sol.inputs.reshape(-1)
            mins = np.minimum(*[E_j @ z_all for E_j in p.debug["E_per_conjunct"]])
            np.testing.assert_allclose(sol.epigraph, mins, atol=1e-6)


class TestSlackRelaxation:
    def _frozen_system(self):
        return LtiSystem(np.eye(1), np.zeros((1, 1)), np.zeros(1), GRID1)

    def test_feasible_problem_keeps_slack_at_zero(self, tank):
        phi, table = _parse_pnf("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))")
        p = build_problem(compile_run(phi, tank, table,
                                      ControlConfig(horizon=20, u_min=0, u_max=6)))[0]
        relaxed = add_slack_relaxation(p, s=1e4)
        sol = solve(relaxed)
        assert sol.status == "optimal"
        assert np.abs(sol.slacks).max() <= 1e-6

    def test_frozen_state_yields_exact_violation(self):
        # state pinned at zero, requirement x1 >= 5: least violation is 5
        system = self._frozen_system()
        table = PredicateTable([[1.0]], [-5.0])
        theta = Always(Pred(0), 0.0, 0.0)
        p = build_problem(compile_run(theta, system, table, ControlConfig(horizon=1)))[0]
        assert solve(p).status == "infeasible"
        relaxed = add_slack_relaxation(p, s=1e4)
        sol = solve(relaxed)
        assert sol.status == "optimal"
        assert sol.slacks[0] == pytest.approx(5.0, abs=1e-6)

    def test_zero_slack_reproduces_original_blocks(self, tank):
        phi, table = _parse_pnf("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))")
        for penalty in (None, 0.01 * np.eye(1)):
            p = build_problem(compile_run(phi, tank, table,
                                          ControlConfig(horizon=20, u_min=0, u_max=6,
                                                        input_penalty=penalty)))[0]
            relaxed = add_slack_relaxation(p, s=1e4)
            n = p.n_vars
            np.testing.assert_array_equal(relaxed.A_ub[:p.n_rows, :n], p.A_ub)
            np.testing.assert_array_equal(relaxed.b_ub[:p.n_rows], p.b_ub)
            np.testing.assert_array_equal(relaxed.lin[:n], p.lin)
            if penalty is None:
                # a linear program stays one
                assert p.quad is None and relaxed.quad is None
            else:
                np.testing.assert_array_equal(relaxed.quad[:n, :n], p.quad)
                assert not relaxed.quad[n:].any() and not relaxed.quad[:, n:].any()

    def test_double_relaxation_rejected(self, tank):
        phi, table = _parse_pnf("G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))")
        p = build_problem(compile_run(phi, tank, table, ControlConfig(horizon=20)))[0]
        relaxed = add_slack_relaxation(p, s=10.0)
        with pytest.raises(ValueError):
            add_slack_relaxation(relaxed, s=10.0)


class TestSrBaseline:
    def test_matches_grid_search(self):
        system = LtiSystem(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1), GRID1)
        table = PredicateTable([[1.0]], [-0.2])
        phi = OneTime(Always(Pred(0), 1.0, 3.0), 0.0)
        p = build_sr_baseline(compile_run(phi, system, table,
                                          ControlConfig(horizon=3, u_min=0, u_max=1)))
        sol = solve(p)
        assert sol.status == "optimal"

        best = -math.inf
        grid = np.linspace(0, 1, 41)
        for u0 in grid:
            for u1 in grid:
                for u2 in grid:
                    x = [0.0]
                    for u in (u0, u1, u2):
                        x.append(0.5 * x[-1] + u)
                    best = max(best, min(v - 0.2 for v in x[1:]))
        assert sol.objective == pytest.approx(best, abs=2e-3)

    def test_reports_infeasible_on_conflicting_inputs(self):
        system = LtiSystem(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1), GRID1)
        table = PredicateTable([[1.0]], [0.0])
        phi = OneTime(Always(Pred(0), 1.0, 3.0), 0.0)
        p = build_sr_baseline(compile_run(phi, system, table,
                                          ControlConfig(horizon=3, u_min=0, u_max=1,
                                                        budget_total=-1.0)))
        assert solve(p).status == "infeasible"

    def test_rejects_eventually(self):
        system = LtiSystem(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1), GRID1)
        table = PredicateTable([[1.0]], [0.0])
        phi = OneTime(Eventually(Pred(0), 1.0, 3.0), 0.0)
        with pytest.raises(FragmentError):
            build_sr_baseline(compile_run(phi, system, table, ControlConfig(horizon=3)))

    def test_rejects_non_unit_normal(self):
        system = LtiSystem(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1), GRID1)
        table = PredicateTable([[2.0]], [0.0])
        phi = OneTime(Always(Pred(0), 1.0, 3.0), 0.0)
        with pytest.raises(FragmentError, match="not axis-aligned"):
            build_sr_baseline(compile_run(phi, system, table, ControlConfig(horizon=3)))

    @pytest.mark.parametrize("k0, history_rows, message", [
        (2, 5, r"state_history must hold x\(0\.\.2\), got 5 rows"),
    ], ids=["state_history"])
    def test_bad_inputs_raise_like_build_problem(self, k0, history_rows, message):
        phi, table = _parse_pnf("event => (G[144,216](x1 >= 1) & G[372,444](x1 >= 1))")
        config = ControlConfig(horizon=37, u_min=0, u_max=3)
        history = np.zeros((history_rows, 2))
        for build in (build_problem, build_sr_baseline):
            with pytest.raises(ValueError, match=message):
                build(compile_run(phi, two_tank_system(), table, config), k0=k0,
                      state_history=history)


class TestOneValuePerSample:
    """A predicate sample reads the same bits wherever it is computed: alone,
    in a stack or any prefix of it, on a signal and in the builder's
    recorded block, also when the table is not axis-aligned."""

    @staticmethod
    def _case(rng):
        n, size, K = rng.integers(1, 5), rng.integers(1, 7), rng.integers(1, 61)
        rows = rng.normal(size=(size, n)) * (rng.random((size, n)) > 0.25)
        rows[:, rng.integers(n)] += 0.3        # no row is a unit axis
        states = rng.normal(scale=3.0, size=(K, n))
        states[rng.random((K, n)) < 0.15] = 0.0
        states[rng.random((K, n)) < 0.15] = -0.0
        offsets = rng.normal(size=size)
        for i in range(size):
            if rng.random() < 0.5:              # a sample on the threshold
                x = states[rng.integers(K)]
                offsets[i] = -np.matmul(rows, x[:, None])[i, 0]
        return PredicateTable(rows, offsets), states

    @pytest.mark.parametrize("seed", range(8))
    def test_every_rule_reads_the_same_bits(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            table, states = self._case(rng)
            K, size = states.shape[0], table.size
            assert all(table.unit_axis(i) is None for i in range(size))
            whole = table.z(states)
            assert whole.shape == (K, size)
            for k in range(K):
                np.testing.assert_array_equal(table.z(states[k]), whole[k], strict=True)
            for j in range(1, K):
                np.testing.assert_array_equal(table.z(states[:j]), whole[:j], strict=True)
            np.testing.assert_array_equal(
                Signal(states, GRID1).predicate_values(table), whole, strict=True)

            # the builder's recorded samples, of windows up to 10 steps long
            widths = rng.integers(0, 11, size=size)
            terms = [Always(Pred(i), 0.0, float(w)) for i, w in enumerate(widths)]
            phi = AllTime(terms[0] if size == 1 else And(tuple(terms)))
            system = LtiSystem(rng.normal(size=(table.n_states,) * 2),
                               rng.normal(size=(table.n_states, 1)), states[0], GRID1)
            run = compile_run(phi, system, table, ControlConfig(horizon=max(widths.max(), 1)))
            for k0 in sorted({0, K // 2, K - 1}):
                debug = build_problem(run, k0=k0, state_history=states[:k0 + 1])[0].debug
                t_lo = debug["t_lo"]
                recorded = debug["z_const"][:(k0 + 1 - t_lo) * size]
                np.testing.assert_array_equal(recorded, whole[t_lo:k0 + 1].reshape(-1),
                                              strict=True)


class TestInputBudget:
    """The budget row subtracts what the recorded inputs already spent."""

    def _run(self):
        system = LtiSystem(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1), GRID1)
        table = PredicateTable([[1.0]], [0.0])
        return compile_run(AllTime(Always(Pred(0), 0.0, 1.0)), system, table,
                           ControlConfig(horizon=2, budget_total=2.0))

    @pytest.mark.parametrize("build", [build_problem, build_sr_baseline])
    def test_spent_inputs_reduce_the_budget(self, build):
        problems = build(self._run(), k0=3, state_history=np.zeros((4, 1)),
                         input_history=np.ones((3, 1)))
        p = problems[0] if isinstance(problems, list) else problems
        assert p.b_ub[p.row_kinds.index("budget")] == -1.0

    @pytest.mark.parametrize("rows", [None, 0, 1, 2])
    @pytest.mark.parametrize("build", [build_problem, build_sr_baseline])
    def test_unrecorded_inputs_are_rejected(self, build, rows):
        # counting the missing inputs as zero spend would loosen the budget
        history = None if rows is None else np.ones((rows, 1))
        with pytest.raises(ValueError, match=r"input_history must hold u\(0\.\.2\)"):
            build(self._run(), k0=3, state_history=np.zeros((4, 1)), input_history=history)
