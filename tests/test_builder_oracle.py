"""The table-driven builder against the per-step reference assembly.

``builder_reference`` recomputes every conjunct's terms at every anchor and
stacks dense row blocks, as the builder did before it tabulated conjuncts
per run.  Both must compile the same problems to rounding: rows are matched
by kind and key (satisfaction rows by (predicate, step), epigraph rows by
(conjunct, anchor), box, budget and slack rows by position), and every
array must agree within 1e-12 of its largest reference entry.  The debug
matrices and the satisfaction rows' (predicate, step) pairs agree exactly.
Every problem the builder makes, plain or relaxed, must keep the row form
``SparseRows`` documents: strictly ascending columns within a row and no
stored zero.

The builder keeps one template per step shape in the compiled run and fills
in only the right-hand side per step, so every case runs a whole range of
steps on one compiled run, twice over with different recorded histories:
each template is compared both when it is built and when it is reused.
"""

from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import builder_reference as ref
from stlmpc import (
    Always,
    And,
    ControlConfig,
    Eventually,
    LtiSystem,
    Pred,
    SamplingGrid,
    Until,
    add_slack_relaxation,
    build_problem,
    build_sr_baseline,
    cli,
    collect_event_ops,
    compile_run,
    compute_schedule,
    omega,
    parse,
    solve,
    to_pnf,
)
from stlmpc.qp_builder import _dnf, _tabulate
from stlmpc.scheduling import ScheduleInfeasibleError, k1_many

from conftest import TANK_A, TANK_B

PRESETS = sorted(p.name.removesuffix(".ini")
                 for p in resources.files("stlmpc").joinpath("presets").iterdir()
                 if p.name.endswith(".ini"))
TOL = 1e-12


def history(system: LtiSystem, lo, hi, k0: int, seed: int):
    """States x(0..k0) and inputs u(0..k0-1) of a rollout under seeded random inputs."""
    rng = np.random.default_rng(seed)
    lo = np.where(np.isfinite(lo), lo, -1.0)
    hi = np.where(np.isfinite(hi), hi, 1.0)
    inputs = rng.uniform(lo, hi, size=(k0, system.m))
    states = [system.x0]
    for u in inputs:
        states.append(system.A @ states[-1] + system.B @ u)
    return np.array(states), inputs


def canonical(p):
    """Row keys, A rows and b entries of a problem, ordered by kind and key."""
    seen: dict[str, int] = {}
    keys = []
    for r, kind in enumerate(p.row_kinds):
        position = seen.setdefault(kind, r)
        keys.append((kind, p.stl_row_info[r] if kind == "stl" else r - position))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [keys[r] for r in order], np.asarray(p.A_ub)[order], np.asarray(p.b_ub)[order]


def assert_close(new, old, what: str) -> None:
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape, what
    scale = max(1.0, float(np.abs(old).max(initial=0.0)))
    assert float(np.abs(new - old).max(initial=0.0)) <= TOL * scale, what


def assert_same_problem(new, old) -> None:
    keys_new, A_new, b_new = canonical(new)
    keys_old, A_old, b_old = canonical(old)
    assert keys_new == keys_old
    assert new.layout == old.layout and new.branch == old.branch
    assert_close(A_new, A_old, "A")
    assert_close(b_new, b_old, "b")
    assert_close(new.lin, old.lin, "lin")
    assert_close([new.const], [old.const], "const")
    assert_close(new.cost_pred_mass, old.cost_pred_mass, "cost_pred_mass")
    assert (new.epigraph_pred_mass is None) == (old.epigraph_pred_mass is None)
    if old.epigraph_pred_mass is not None:
        assert_close(new.epigraph_pred_mass, old.epigraph_pred_mass, "epigraph_pred_mass")
    assert (new.quad is None) == (not np.any(old.quad))
    if new.quad is not None:
        assert np.array_equal(new.quad, old.quad)
    # satisfaction rows come first, in (step, predicate) order
    info = list(new.stl_row_info.items())
    assert [r for r, _ in info] == list(range(len(info)))
    assert [pk for _, pk in info] == sorted(old.stl_row_info.values(), key=lambda pk: pk[::-1])
    assert_row_invariant(new.rows, new.layout.total)


def assert_row_invariant(rows, n_cols: int) -> None:
    """The form ``SparseRows`` documents: within each row strictly ascending
    columns, and no stored zero."""
    assert rows.n_cols == n_cols
    assert rows.start[0] == 0 and np.all(rows.lens >= 0)
    assert rows.index.size == rows.value.size == rows.nnz
    assert np.all((rows.index >= 0) & (rows.index < n_cols))
    row = np.arange(rows.n_rows).repeat(rows.lens)
    assert np.all(np.diff(rows.index)[row[1:] == row[:-1]] > 0)
    assert np.all(rows.value != 0)


def assert_same_debug(new, old) -> None:
    for key in ("E", "z_const", "z_coeff"):
        assert np.array_equal(new.debug[key], old.debug[key]), key
    assert new.debug["anchors"] == old.debug["anchors"]
    assert new.debug["t_lo"] == old.debug["t_lo"]
    assert len(new.debug["E_per_conjunct"]) == len(old.debug["E_per_conjunct"])
    for E_new, E_old in zip(new.debug["E_per_conjunct"], old.debug["E_per_conjunct"]):
        assert np.array_equal(E_new, E_old)


def compare_step(run, system: LtiSystem, k0: int, seed: int) -> int:
    """Compare both builders (and their relaxations) at step k0 of a rollout drawn
    from seed; returns problems compared."""
    states, inputs = history(system, run.lo, run.hi, k0, seed=seed)
    try:
        old = ref.build_problem(run, k0, states, inputs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc).replace("(", r"\(").replace(")", r"\)")):
            build_problem(run, k0, states, inputs)
        return 0
    new = build_problem(run, k0, states, inputs)
    assert len(new) == len(old)
    for p_new, p_old in zip(new, old):
        assert_same_problem(p_new, p_old)
        assert_same_debug(p_new, p_old)
        assert_same_problem(add_slack_relaxation(p_new, 1e3), add_slack_relaxation(p_old, 1e3))
    return len(new)


def tank(T=12.0, x0=(0.0, 0.0), B=TANK_B):
    return LtiSystem(TANK_A, B, np.array(x0), SamplingGrid(T))


def compare_steps(run, system: LtiSystem, steps: range) -> int:
    """Compare every step, first on one rollout per step, then on another."""
    return sum(compare_step(run, system, k0, seed=k0 + shift)
               for shift in (0, 1000) for k0 in steps)


@pytest.mark.parametrize("preset", PRESETS)
def test_presets_match_the_reference(preset):
    cfg = cli.ScenarioConfig.from_file(cli.preset_path(preset))
    run = compile_run(cfg.formula, cfg.system, cfg.table, cfg.control)
    compared = compare_steps(run, cfg.system, range(cfg.run_config.sim_steps))
    assert compared >= 6


def _pnf(text, **kw):
    return to_pnf(*parse(text, n_states=2, **kw))


SYNTHETIC = {
    "disjunction": (
        "G[0,inf]((G[0,24](x1 >= 1) & F[12,36](x2 <= 3)) | F[0,24](x1 >= 2))", {},
        dict(horizon=6, u_min=0, u_max=6)),
    "single_until": (
        "G[0,inf]((x1 >= 0) U[24,72] (x2 <= 1.5))", {}, dict(horizon=8, u_min=0, u_max=6)),
    "event": (
        "event => (F[0,60](x1 >= 1) & G[24,48](x2 <= 3) & (x1 <= 5) U[12,36] (x2 >= 0.2))",
        dict(event_time=36.0), dict(horizon=9, u_min=0, u_max=6)),
    "budget_extra": (
        "G[0,inf](F[12,48](x1 >= 1) & G[0,24](x1 <= 4))", {},
        dict(horizon=6, u_min=0, u_max=6, budget_total=30.0)),
    "two_inputs": (
        "G[0,inf](F[12,48](x1 >= 1) & (x1 <= 4) U[0,36] (x2 >= 0.1))", {},
        dict(horizon=7, u_min=(0, -1), u_max=(6, 1), budget_total=40.0)),
}
TWO_INPUTS_B = np.array([[0.281, 0.02], [0.0296, 0.05]])


@pytest.mark.parametrize("case", sorted(SYNTHETIC))
def test_synthetic_cases_match_the_reference(case):
    text, parse_kw, config = SYNTHETIC[case]
    phi, table = _pnf(text, **parse_kw)
    system = tank(x0=(0.5, 0.1), B=TWO_INPUTS_B if case == "two_inputs" else TANK_B)
    run = compile_run(phi, system, table, ControlConfig(**config))
    compared = compare_steps(run, system, range(0, 30))
    assert compared >= 16


def test_input_penalty_qp_matches_through_the_dense_view():
    phi, table = _pnf("G[0,inf](F[12,48](x1 >= 1) & (x1 >= 0) U[0,36] (x2 <= 2))")
    run = compile_run(phi, tank(), table, ControlConfig(horizon=6, u_min=0, u_max=6,
                                                        input_penalty=0.01 * np.eye(1)))
    for k0 in (0, 3, 7):
        assert compare_step(run, tank(), k0, seed=k0) == 1
        states, inputs = history(tank(), run.lo, run.hi, k0, seed=k0)
        new = build_problem(run, k0, states, inputs)[0]
        old = ref.build_problem(run, k0, states, inputs)[0]
        assert new.quad is not None
        a, b = solve(new), solve(old)
        assert a.status == b.status == "optimal"
        assert abs(a.objective - b.objective) <= 1e-6 * max(1.0, abs(b.objective))


@pytest.mark.parametrize("text, parse_kw", [
    ("event => (G[144,216](x1 >= 1) & G[372,444](x1 >= 1))", dict(event_time=0.0)),
    ("G[0,inf](G[0,36](x1 >= 1) & G[12,24](x2 >= 0.5))", {}),
])
def test_sr_baseline_matches_the_reference(text, parse_kw):
    phi, table = _pnf(text, **parse_kw)
    run = compile_run(phi, tank(), table, ControlConfig(horizon=37, u_min=0, u_max=3,
                                                        budget_total=20.0))
    compared = 0
    for k0 in (0, 1, 20, 36, 40):
        states, inputs = history(tank(), run.lo, run.hi, k0, seed=k0)
        try:
            old = ref.build_sr_baseline(run, k0, states, inputs)
        except ValueError:
            continue
        new = build_sr_baseline(run, k0, states, inputs)
        assert_same_problem(new, old)
        assert_same_problem(add_slack_relaxation(new, 1e3), add_slack_relaxation(old, 1e3))
        compared += 1
    assert compared >= 3


def _conjunct(kind: str, a: int, span: int, T: float, p: int, q: int):
    lo, hi = a * T, (a + span) * T
    if kind == "always":
        return Always(Pred(p), lo, hi)
    if kind == "eventually":
        return Eventually(Pred(p), lo, hi)
    return Until(Pred(p), Pred(q), lo, hi)


class TestOffsetInvariance:
    """A conjunct's terms at anchor a are its table row for k1(a) - a, shifted by a."""

    @settings(max_examples=200, deadline=None)
    @given(T=st.sampled_from((0.5, 1.0, 3.0, 12.0)),
           specs=st.lists(st.tuples(st.sampled_from(("always", "eventually", "until")),
                                    st.integers(0, 6), st.integers(0, 9),
                                    st.integers(0, 2), st.integers(0, 2)),
                          min_size=1, max_size=4))
    def test_terms_are_table_rows(self, T, specs):
        conjuncts = tuple(_conjunct(kind, a, span, T, p, q) for kind, a, span, p, q in specs)
        theta = And(conjuncts) if len(conjuncts) > 1 else conjuncts[0]
        grid = SamplingGrid(T)
        windows = collect_event_ops(theta)
        try:
            schedule = compute_schedule(windows, grid) if windows else None
        except ScheduleInfeasibleError:
            assume(False)
        n_mu = 3
        for psi, op_index in _dnf(theta)[0]:
            tab = _tabulate([(psi, op_index)], schedule, grid, n_mu)
            if isinstance(psi, Always):
                assert tab.cols.shape[0] == 1
            else:
                assert tab.cols.shape[0] <= schedule.delta
                base = omega(*schedule.op_windows[op_index], grid).start
            for a in range(0, 3 * (schedule.delta if schedule else 1) + 7):
                row, k, p, w = ref._psi_terms(psi, op_index, range(a, a + 1), schedule, grid)
                o = tab.row_of[0, a % tab.row_of.shape[1]]
                if not isinstance(psi, Always):
                    assert base + o == k1_many(schedule, op_index, [a])[0] - a
                count = np.count_nonzero(tab.w[o])
                assert count == row.size
                assert np.array_equal(tab.cols[o, :count], (k - a) * n_mu + p)
                assert np.array_equal(tab.w[o, :count], w)
                assert not tab.w[o, count:].any()
