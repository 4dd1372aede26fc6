"""Solver correctness against analytic optima, a brute-force oracle and the ADMM oracle."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from stlmpc import QpProblem, SparseRows, VariableLayout, cli, solve
from stlmpc.qp_builder import (
    add_slack_relaxation,
    build_problem,
    build_sr_baseline,
    compile_run,
    default_slack_weight,
)
from stlmpc.qp_solver import SolverError, _hessian, _highs

from admm_reference import AdmmSettings, solve_admm
from conftest import projected_gradient_oracle


def make_problem(quad, lin, A, b, const=0.0):
    quad = np.atleast_2d(np.asarray(quad, dtype=float))
    lin = np.asarray(lin, dtype=float).reshape(-1)
    n = lin.shape[0]
    A = np.asarray(A, dtype=float).reshape(-1, n)
    return QpProblem(
        quad=quad, lin=lin, const=const, rows=SparseRows.from_dense(A),
        b_ub=np.asarray(b, dtype=float).reshape(-1),
        layout=VariableLayout(0, n, 1), row_kinds=tuple("box" for _ in range(A.shape[0])),
        stl_row_info={}, n_predicates=0, cost_pred_mass=np.zeros(0))


class TestAnalyticToys:
    def test_norm_minimization_with_floor(self):
        # minimize u^2 s.t. u >= 1  ==  maximize -u^2
        p = make_problem([[1.0]], [0.0], [[-1.0]], [-1.0])
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.y[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.objective == pytest.approx(-1.0, abs=1e-8)

    def test_lp_takes_tightest_bound(self):
        p = make_problem(np.zeros((1, 1)), [1.0], [[1.0], [1.0]], [3.0, 5.0])
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-8)

    def test_equality_like_sandwich(self):
        # maximize -u^2 + 4u s.t. 2 <= u <= 2
        p = make_problem([[1.0]], [4.0], [[1.0], [-1.0]], [2.0, -2.0])
        sol = solve(p)
        assert sol.objective == pytest.approx(4.0, abs=1e-8)

    def test_constant_infeasible_row(self):
        p = make_problem(np.zeros((1, 1)), [0.0], [[0.0]], [-5.0])
        assert solve(p).status == "infeasible"

    def test_conflicting_bounds_infeasible(self):
        p = make_problem(np.zeros((1, 1)), [1.0], [[1.0], [-1.0]], [1.0, -2.0])
        assert solve(p).status == "infeasible"

    def test_non_psd_rejected(self):
        p = make_problem([[-1.0]], [0.0], [[1.0]], [1.0])
        with pytest.raises(SolverError):
            solve(p)

    def test_unbounded_detected(self):
        p = make_problem(np.zeros((1, 1)), [1.0], [[-1.0]], [0.0])
        with pytest.raises(SolverError):
            solve(p)

    def test_unbounded_qp_detected(self):
        # minimize x1^2/2 - x2 s.t. x1 <= 1: HiGHS reports it optimal at x2 = 1e7
        p = make_problem(np.diag([0.5, 0.0]), [0.0, 1.0], [[1.0, 0.0]], [1.0])
        with pytest.raises(SolverError, match="unbounded"):
            solve(p)

    def test_non_convex_past_the_eigenvalue_tolerance_rejected(self):
        # eigenvalue -5e-5 against a tolerance of -1e-8 * 2e4: HiGHS sees the negative diagonal
        quad = np.diag([1e4, -2.5e-5])
        P = quad + quad.T
        assert np.linalg.eigvalsh(P).min() >= -1e-8 * np.abs(P).max()
        box = np.vstack([np.eye(2), -np.eye(2)])
        with pytest.raises(SolverError, match="not convex"):
            solve(make_problem(quad, [0.0, 0.0], box, np.ones(4)))


def random_instance(rng: np.random.Generator, n: int, lp: bool):
    if lp:
        quad = np.zeros((n, n))
    else:
        G = rng.normal(size=(n, n))
        quad = G @ G.T / n + 0.1 * np.eye(n)
    lin = rng.normal(size=n)
    # box bounds keep every instance bounded; extra rows cut the box
    n_extra = int(rng.integers(1, n + 2))
    A_extra = rng.normal(size=(n_extra, n))
    x_feas = rng.uniform(-0.5, 0.5, size=n)
    b_extra = A_extra @ x_feas + rng.uniform(0.1, 1.0, size=n_extra)
    A = np.vstack([A_extra, np.eye(n), -np.eye(n)])
    b = np.concatenate([b_extra, np.full(n, 2.0), np.full(n, 2.0)])
    return make_problem(quad, lin, A, b)


class TestRandomInstances:
    def test_matches_penalty_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(50):
            n = int(rng.integers(2, 21))
            p = random_instance(rng, n, lp=False)
            sol = solve(p)
            assert sol.status == "optimal"
            P = 2.0 * np.asarray(p.quad)
            q = -np.asarray(p.lin)
            x_ref = projected_gradient_oracle(P, q, np.asarray(p.A_ub), np.asarray(p.b_ub))
            obj_ref = float(p.lin @ x_ref - x_ref @ p.quad @ x_ref)
            scale = max(1.0, abs(obj_ref))
            assert abs(sol.objective - obj_ref) <= 1e-5 * scale

    def test_returned_point_feasible(self):
        rng = np.random.default_rng(321)
        for trial in range(25):
            n = int(rng.integers(2, 15))
            p = random_instance(rng, n, lp=bool(trial % 2))
            sol = solve(p)
            assert sol.status == "optimal"
            resid = np.asarray(p.A_ub) @ sol.y - np.asarray(p.b_ub)
            assert resid.max(initial=0.0) <= 1e-7

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        p = random_instance(rng, 8, lp=False)
        a = solve(p)
        b = solve(p)
        assert np.array_equal(a.y, b.y)
        assert a.objective == b.objective
        assert a.iterations == b.iterations


class TestLpPath:
    def test_zero_quadratic_block_solves(self):
        rng = np.random.default_rng(77)
        p = random_instance(rng, 10, lp=True)
        sol = solve(p)
        assert sol.status == "optimal"
        assert not np.any(p.quad)

    def test_degenerate_face_is_handled(self):
        # maximize x1 with x2 unconstrained by the cost and redundant rows
        quad = np.zeros((3, 3))
        lin = np.array([1.0, 0.0, 0.0])
        A = np.array([
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ])
        b = np.array([2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        sol = solve(make_problem(quad, lin, A, b))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-8)


PRESETS = sorted(p.name.removesuffix(".ini")
                 for p in resources.files("stlmpc").joinpath("presets").iterdir()
                 if p.name.endswith(".ini"))


def preset_lps(name: str, penalty: float | None = None) -> list[QpProblem]:
    """Plain and relaxed LPs a preset compiles at three steps of an idle rollout.

    With a ``penalty`` the preset's inputs are penalised by ``penalty * I``,
    which turns the problems into QPs.
    """
    cfg = cli.ScenarioConfig.from_file(cli.preset_path(name))
    control = cfg.control
    if penalty is not None:
        control = replace(control, input_penalty=penalty * np.eye(cfg.system.m))
    run = compile_run(cfg.formula, cfg.system, cfg.table, control)
    first = run.k_event or 0
    problems = []
    for k0 in (first, first + run.h_d // 2, first + run.h_d - 1):
        states = [cfg.system.x0]
        for _ in range(k0):
            states.append(cfg.system.A @ states[-1])
        history = dict(k0=k0, state_history=np.array(states),
                       input_history=np.zeros((k0, cfg.system.m)))
        if cfg.run_config.objective == "sr-baseline":
            plain = [build_sr_baseline(run, **history)]
        else:
            plain = build_problem(run, **history)
        weight = default_slack_weight(cfg.table, float(np.abs(states).max(initial=1.0)))
        problems += plain + [add_slack_relaxation(p, weight) for p in plain]
    return problems


def assert_same_optimum(p: QpProblem) -> None:
    """HiGHS and the ADMM oracle agree on the status, and on the objective to 1e-6."""
    exact, admm = solve(p), solve_admm(p, AdmmSettings())
    assert exact.status == admm.status
    if admm.status == "optimal":
        scale = max(1.0, abs(admm.objective))
        assert abs(exact.objective - admm.objective) <= 1e-6 * scale


class TestExactLp:
    """HiGHS against the splitting solver forced onto the same linear program."""

    def test_random_lps_match_the_splitting_solver(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            p = random_instance(rng, int(rng.integers(2, 21)), lp=True)
            assert not np.any(p.quad)
            assert_same_optimum(p)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_preset_lps_match_the_splitting_solver(self, preset):
        for p in preset_lps(preset):
            assert p.quad is None
            assert_same_optimum(p)

    def test_undecided_interior_point_is_settled(self):
        # primal and dual infeasible: the interior point alone cannot tell which
        p = make_problem(np.zeros((2, 2)), [1.0, 1.0], [[1.0, -1.0], [-1.0, 1.0]], [-1.0, -1.0])
        assert solve(p).status == "infeasible"

    def test_missing_bindings_name_the_scipy_floor(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        _highs.cache_clear()
        try:
            with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
                solve(make_problem(np.zeros((1, 1)), [1.0], [[1.0]], [1.0]))
        finally:
            _highs.cache_clear()

    def test_no_state_carries_between_solves(self):
        rng = np.random.default_rng(5)
        a, b = random_instance(rng, 12, lp=True), random_instance(rng, 9, lp=True)
        first = solve(a)
        solve(b)
        again = solve(a)
        assert np.array_equal(first.y, again.y)
        assert first.objective == again.objective
        assert first.iterations == again.iterations

    def test_crossover_retry_does_not_leak(self):
        # maximize x1 with |x2| <= 1: without crossover x2 stays inside the face
        degenerate = make_problem(np.zeros((2, 2)), [1.0, 0.0],
                                  [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [2.0, 1.0, 1.0])
        undecided = make_problem(np.zeros((2, 2)), [1.0, 1.0], [[1.0, -1.0], [-1.0, 1.0]],
                                 [-1.0, -1.0])
        first = solve(degenerate)
        assert solve(undecided).status == "infeasible"
        again = solve(degenerate)
        assert np.array_equal(first.y, again.y)
        assert again.y == pytest.approx([2.0, 0.0], abs=1e-8)

    def test_rejected_model_raises(self):
        accepted = make_problem(np.zeros((1, 1)), [1.0], [[1.0]], [3.0])
        assert solve(accepted).y[0] == pytest.approx(3.0)
        # an infinite coefficient is rejected; the instance still holds the model above
        with pytest.raises(SolverError, match="rejected"):
            solve(make_problem(np.zeros((1, 1)), [1.0], [[np.inf]], [1.0]))

    def test_dropped_tiny_entry_still_solves(self):
        # HiGHS drops |a| < 1e-9 with a warning and solves the rest
        p = make_problem(np.zeros((2, 2)), [1.0, 1.0], [[1.0, 1e-12], [0.0, 1.0]], [3.0, 2.0])
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.y == pytest.approx([3.0, 2.0], abs=1e-8)

    def test_hessian_below_the_drop_threshold_is_an_lp(self):
        # HiGHS drops Hessian entries of magnitude up to 1e-9, so quad + quad.T
        # = [[-1e-9]] is solved as an LP; 1.2e-9 stays a QP
        assert _hessian(make_problem([[-5e-10]], [0.0], [[1.0]], [1.0])) is None
        assert np.array_equal(_hessian(make_problem([[6e-10]], [0.0], [[1.0]], [1.0])),
                              [[1.2e-9]])
        # an undecided interior-point result gets the LP path's crossover retry
        undecided = ([[1.0, -1.0], [-1.0, 1.0]], [-1.0, -1.0])
        for scale in (5e-10, 6e-10):
            p = make_problem(scale * np.eye(2), [1.0, 1.0], *undecided)
            assert solve(p).status == "infeasible"

    def test_two_threads_solve_like_one(self):
        problems = [p for preset in PRESETS for p in preset_lps(preset)]
        sequential = [solve(p) for p in problems]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(solve, problems))
        for a, b in zip(sequential, threaded):
            assert (a.status, a.iterations) == (b.status, b.iterations)
            assert np.array_equal(a.y, b.y)

    def test_one_instance_per_thread(self, monkeypatch):
        h = _highs()
        made, highs_class = [], h._Highs
        monkeypatch.setattr(h, "_Highs", lambda: made.append(None) or highs_class())
        rng = np.random.default_rng(8)
        problems = [random_instance(rng, 6, lp=True) for _ in range(4)]
        # a new thread holds no instance yet
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(lambda: [solve(p) for p in problems]).result()
        assert len(made) == 1


class TestExactQp:
    """HiGHS's QP solver against the splitting solver on the same quadratic program."""

    def test_random_qps_match_the_splitting_solver(self):
        rng = np.random.default_rng(2025)
        for _ in range(40):
            assert_same_optimum(random_instance(rng, int(rng.integers(2, 21)), lp=False))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_penalised_preset_qps_match_the_splitting_solver(self, preset):
        for p in preset_lps(preset, penalty=0.01):
            assert np.any(p.quad)
            assert_same_optimum(p)

    def test_no_state_carries_between_qps_and_lps(self):
        rng = np.random.default_rng(6)
        qp, lp = random_instance(rng, 10, lp=False), random_instance(rng, 10, lp=True)
        first_qp, first_lp = solve(qp), solve(lp)
        again_qp, again_lp = solve(qp), solve(lp)
        for a, b in ((first_qp, again_qp), (first_lp, again_lp)):
            assert np.array_equal(a.y, b.y)
            assert a.iterations == b.iterations


class TestSolutionExtraction:
    def test_layout_split(self):
        # one epigraph, two steps of one input, one slack
        layout = VariableLayout(1, 2, 1, 1)
        p = QpProblem(
            quad=np.zeros((4, 4)), lin=np.array([1.0, 0, 0, -10.0]), const=2.0,
            rows=SparseRows.from_dense(np.vstack([np.eye(4), -np.eye(4)])),
            b_ub=np.concatenate([np.ones(4), np.zeros(4)]),
            layout=layout, row_kinds=tuple("box" for _ in range(8)),
            stl_row_info={}, n_predicates=1, cost_pred_mass=np.zeros(1))
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.epigraph.shape == (1,)
        assert sol.inputs.shape == (2, 1)
        assert sol.slacks.shape == (1,)
        assert sol.epigraph[0] == pytest.approx(1.0, abs=1e-7)
        assert sol.slacks[0] == pytest.approx(0.0, abs=1e-7)
        assert sol.objective == pytest.approx(3.0, abs=1e-7)
