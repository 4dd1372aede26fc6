"""Per-step problem assembly as the builder did it before the per-run tables.

Every step recomputed each conjunct's terms at every anchor, accumulated them
into dense E matrices, deduplicated the satisfaction points in first-seen
order and stacked dense row blocks.  The functions below are that code,
kept as the oracle the table-driven builder in :mod:`stlmpc.qp_builder` must
reproduce (to rounding; see ``tests/test_builder_oracle.py``).  They are
unchanged except where the compiled run's interface moved: the box rows are
read from ``run.input_rows``, the penalty from ``run.config``, the budget
row covers every stacked input, the debug matrices are handed over as
``explain``, and ``build_problem`` keeps the satisfaction points of the
steps after k0 only (the recorded samples are constants, so their rows no
longer exist and every remaining row takes the constraint margin).
``build_problem`` and ``build_sr_baseline`` below are the reference
counterparts of the package's builders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stlmpc.qp_builder import (
    CompiledRun,
    QpProblem,
    SparseRows,
    VariableLayout,
    _always_terms,
    _atom_pred,
    _eventually_terms,
    _until_terms,
)
from stlmpc.scheduling import Schedule, k1_many
from stlmpc.stl import Always, Eventually, Formula, FragmentError, Pred, SamplingGrid, Until, omega


@dataclass(frozen=True)
class _Layout:
    t_lo: int
    t_hi: int
    n_mu: int

    @property
    def n_cols(self) -> int:
        return (self.t_hi - self.t_lo + 1) * self.n_mu

    def cols(self, k: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Column of every (step k[i], predicate p[i]) pair."""
        outside = np.flatnonzero((k < self.t_lo) | (k > self.t_hi))
        if outside.size:
            raise ValueError(f"time {k[outside[0]]} outside the predicate window "
                             f"[{self.t_lo}, {self.t_hi}]")
        return (k - self.t_lo) * self.n_mu + p


def _psi_terms(psi: Formula, op_index: int | None, anchors: range,
               schedule: Schedule | None, grid: SamplingGrid):
    """Scheduled-average robustness of one conjunct at every anchor, as weighted columns.

    Returns arrays (row, k, p, w): term t adds w[t] times predicate p[t] at
    step k[t] to the robustness at anchor ``anchors[row[t]]``.  Terms run
    anchor by anchor, each anchor's in the order the average sums them.
    """
    a = np.asarray(anchors, dtype=np.int64)
    if not a.size:
        return a, a, a, np.zeros(0)
    if isinstance(psi, (Eventually, Until)) and schedule is None:
        raise ValueError("eventually/until operators need a witness schedule")

    if isinstance(psi, Always):
        window = omega(psi.a, psi.b, grid)
        return _always_terms(_atom_pred(psi.child, "always-operand"),
                             a + window.start, a + window.stop - 1)
    if isinstance(psi, Eventually):
        return _eventually_terms(_atom_pred(psi.child, "eventually-operand"),
                                 k1_many(schedule, op_index, a))
    if isinstance(psi, Until):
        return _until_terms(_atom_pred(psi.left, "until left operand"),
                            _atom_pred(psi.right, "until right operand"),
                            a, k1_many(schedule, op_index, a))
    raise FragmentError(f"conjuncts must be temporal operators, got {type(psi).__name__}")


def _sat_points(terms) -> tuple[np.ndarray, np.ndarray]:
    """(step, predicate) pairs that satisfaction requires to be non-negative.

    These are the columns the conjuncts' terms weigh, deduplicated in
    first-seen order; each one becomes one satisfaction row.  Returns the
    steps and the predicates as two arrays.
    """
    k = np.concatenate([t[1] for t in terms])
    p = np.concatenate([t[2] for t in terms])
    if not k.size:
        return k, p
    first = np.unique((k - k.min()) * (p.max() + 1) + p, return_index=True)[1]
    first.sort()
    return k[first], p[first]


def _e_matrix(terms, n_anchor: int, layout: _Layout) -> np.ndarray:
    row, k, p, w = terms
    E = np.zeros((n_anchor, layout.n_cols))
    np.add.at(E, (row, layout.cols(k, p)), w)
    return E


def _pred_mass(E: np.ndarray, n_mu: int) -> np.ndarray:
    """Per row of E, the summed weight on each predicate (columns p, p + n_mu, ...)."""
    per_pred = E.reshape(E.shape[0], -1, n_mu).transpose(0, 2, 1)
    return np.ascontiguousarray(per_pred).sum(axis=2)


@dataclass(frozen=True)
class _Prediction:
    """Set-up shared by both builders for one step k0.

    ``z_const + z_coeff @ u_st`` predicts the stacked predicate vector over
    the columns of ``cols``: recorded constants up to k0, affine in the
    stacked inputs after it.
    """

    k0: int
    anchors: range
    cols: _Layout
    z_const: np.ndarray
    z_coeff: np.ndarray


def _predict(run: CompiledRun, k0: int, state_history: np.ndarray | None) -> _Prediction:
    if state_history is None:
        if k0 != 0:
            raise ValueError("state_history is required when k0 > 0")
        state_history = run.x0
    state_history = np.atleast_2d(np.asarray(state_history, dtype=float))
    if state_history.shape[0] != k0 + 1:
        raise ValueError(f"state_history must hold x(0..{k0}), got {state_history.shape[0]} rows")
    x_now = state_history[k0]

    N, h_d, dyn, table = run.config.horizon, run.h_d, run.dyn, run.table
    k_l, k_h = (max(0, k0 - h_d + 1), k0 + N - h_d) if run.k_event is None else (run.k_event,) * 2
    if k_h > k0 + N - h_d:
        raise ValueError(f"event step {k_h} plus formula length {h_d} exceeds the horizon at "
                         f"step {k0}")
    cols = _Layout(min(k_l, k0), k0 + N, table.size)

    # past/current entries are recorded constants, future entries depend on u_st;
    # the past block takes its own C @ x(k) per recorded step, the rule table.z
    # follows, so the oracle does not read the library's predicate values
    n_past = (k0 + 1 - cols.t_lo) * table.size
    z_const = np.empty(cols.n_cols)
    z_const[:n_past] = (np.matmul(table.C, state_history[cols.t_lo:k0 + 1, :, None])[:, :, 0]
                        + table.c).reshape(-1)
    z_const[n_past:] = dyn.H1 @ x_now + dyn.offset
    z_coeff = np.zeros((cols.n_cols, N * dyn.m))
    z_coeff[n_past:] = dyn.H2
    return _Prediction(k0, range(k_l, k_h + 1), cols, z_const, z_coeff)


def _stl_rows(pred: _Prediction, points: tuple[np.ndarray, np.ndarray], layout: VariableLayout):
    """Rows -z_coeff[col] @ u_st <= z_const[col], one per (step, predicate) point.

    Returns (A, b, stl_row_info); the epigraph and slack columns are zero.
    """
    ks, ps = points
    ix = pred.cols.cols(ks, ps)
    A = np.zeros((ks.size, layout.total))
    A[:, layout.u_slice] = -pred.z_coeff[ix]
    return A, pred.z_const[ix], dict(enumerate(zip(ps.tolist(), ks.tolist())))


def _input_rows(run: CompiledRun, k0: int, layout: VariableLayout,
                input_history: np.ndarray | None):
    """Box and budget rows over the inputs, and the input penalty.

    Returns (A, b, kinds, quad) with every block placed at ``layout.u_slice``.
    """
    config = run.config
    N, m = config.horizon, run.dyn.m
    n_u, n_y, u = layout.n_u, layout.total, layout.u_slice

    budget: list[tuple[np.ndarray, float]] = []
    # input budget over absolute steps [0, k0 + N - 1]
    if config.budget_total is not None:
        hist = (np.zeros((0, m)) if input_history is None
                else np.atleast_2d(np.asarray(input_history, dtype=float)))
        if hist.shape[0] < k0:
            raise ValueError(f"input_history must hold u(0..{k0 - 1}) to count the budget "
                             f"spent, got {hist.shape[0]} rows")
        spent = float(hist[:k0].sum())
        budget.append((np.ones(n_u), float(config.budget_total) - spent))
    n_box = run.box_b.size
    A = np.zeros((n_box + len(budget), n_y))
    A[:n_box, u] = run.input_rows[:n_box]
    for r, (coeffs, _) in enumerate(budget):
        A[n_box + r, u] = coeffs

    quad = np.zeros((n_y, n_y))
    M = config.penalty(m)
    if np.any(M):
        quad[u, u] = np.kron(np.eye(N), M)
    return (A, np.concatenate([run.box_b, [b for _, b in budget]]),
            ["box"] * n_box + ["budget"] * len(budget), quad)


def build_problem(run: CompiledRun, k0: int = 0, state_history: np.ndarray | None = None,
                  input_history: np.ndarray | None = None) -> list[QpProblem]:
    """Compile step k0 of a compiled run into one problem per disjunction branch.

    ``state_history`` holds the recorded states x(0..k0) (default: x0 at
    k0 = 0); ``input_history`` the applied inputs u(0..k0-1), which a budget needs.
    """
    pred = _predict(run, k0, state_history)
    return [_assemble_branch(run, branch, branch_ix, pred, input_history)
            for branch_ix, branch in enumerate(run.branches)]


def _assemble_branch(run: CompiledRun, branch, branch_ix: int, pred: _Prediction,
                     input_history) -> QpProblem:
    n_anchor = len(pred.anchors)
    multi = len(branch) > 1
    layout = VariableLayout(n_anchor if multi else 0, run.config.horizon, run.dyn.m)
    u = layout.u_slice

    terms = []
    E_per_conjunct = []
    for psi, op_index in branch:
        terms.append(_psi_terms(psi, op_index, pred.anchors, run.schedule, run.grid))
        E_per_conjunct.append(_e_matrix(terms[-1], n_anchor, pred.cols))
    E_total = sum(E_per_conjunct)

    lin = np.zeros(layout.total)
    const = 0.0
    cost_pred_mass = np.zeros(run.table.size)
    epigraph_pred_mass = None
    if multi:
        lin[:n_anchor] = 1.0
    else:
        w = E_total.sum(axis=0)
        lin[u] = w @ pred.z_coeff
        const += float(w @ pred.z_const)
        cost_pred_mass = _pred_mass(w[None], run.table.size)[0]

    # recorded samples are constants: satisfaction rows only for the steps after k0
    ks, ps = _sat_points(terms)
    future = ks > pred.k0
    A_stl, b_stl, stl_row_info = _stl_rows(pred, (ks[future], ps[future]), layout)
    b_stl = b_stl - run.config.constraint_margin

    # epigraph rows: u_x[i] <= (E_j z)(i) for every conjunct j; the products are
    # taken row by row (a stack of vector-matrix products), as one matrix
    # product would round differently
    A_epi = np.zeros((len(branch) * n_anchor if multi else 0, layout.total))
    b_epi = np.zeros(A_epi.shape[0])
    if multi:
        E_rows = np.concatenate(E_per_conjunct)[:, None, :]
        A_epi[np.arange(A_epi.shape[0]), np.tile(np.arange(n_anchor), len(branch))] = 1.0
        A_epi[:, u] = -np.matmul(E_rows, pred.z_coeff)[:, 0]
        b_epi = np.matmul(E_rows, pred.z_const)[:, 0]
        epigraph_pred_mass = _pred_mass(E_rows[:, 0], run.table.size)

    A_in, b_in, in_kinds, quad = _input_rows(run, pred.k0, layout, input_history)
    debug = {
        "E": E_total,
        "E_per_conjunct": E_per_conjunct,
        "anchors": tuple(pred.anchors),
        "z_const": pred.z_const,
        "z_coeff": pred.z_coeff,
        "t_lo": pred.cols.t_lo,
    }
    return QpProblem(
        quad=quad, lin=lin, const=const,
        rows=SparseRows.from_dense(np.vstack([A_stl, A_epi, A_in])),
        b_ub=np.concatenate([b_stl, b_epi, b_in]),
        layout=layout,
        row_kinds=tuple(["stl"] * A_stl.shape[0] + ["epigraph"] * A_epi.shape[0] + in_kinds),
        stl_row_info=stl_row_info, n_predicates=run.table.size, cost_pred_mass=cost_pred_mass,
        epigraph_pred_mass=epigraph_pred_mass, branch=branch_ix, explain=lambda: debug)


def build_sr_baseline(run: CompiledRun, k0: int = 0, state_history: np.ndarray | None = None,
                      input_history: np.ndarray | None = None) -> QpProblem:
    """Worst-case baseline for step k0 of a compiled run: maximize the minimum predicate margin.

    Only conjunctions of always-operators over axis-aligned unit-normal
    predicates are supported.  The problem is compiled like a one-branch
    :func:`build_problem` with the same prediction and input rows, but with
    a single epigraph variable t as its cost: every satisfaction point,
    recorded ones included, has a row t <= z_p(k), without constraint margin.
    """
    table = run.table
    gs = [psi for psi, _ in run.branches[0]] if len(run.branches) == 1 else None
    if gs is None or not all(isinstance(g, Always) and isinstance(g.child, Pred) for g in gs):
        raise FragmentError(
            "the worst-case baseline supports conjunctions of always-operators over predicates")
    for g in gs:
        if table.unit_axis(g.child.pred_id) is None:
            raise FragmentError(
                f"predicate {table.names[g.child.pred_id]!r} is not axis-aligned with unit normal")

    pred = _predict(run, k0, state_history)
    layout = VariableLayout(1, run.config.horizon, run.dyn.m)
    points = _sat_points([_psi_terms(g, None, pred.anchors, None, run.grid) for g in gs])
    A_stl, b_stl, stl_row_info = _stl_rows(pred, points, layout)
    A_stl[:, 0] = 1.0
    # rows at recorded steps have no input terms, written as +0 rather than -0
    A_stl[points[0] <= k0, layout.u_slice] = 0.0
    A_in, b_in, in_kinds, quad = _input_rows(run, k0, layout, input_history)

    lin = np.zeros(layout.total)
    lin[0] = 1.0
    return QpProblem(
        quad=quad, lin=lin, const=0.0,
        rows=SparseRows.from_dense(np.vstack([A_stl, A_in])),
        b_ub=np.concatenate([b_stl, b_in]),
        layout=layout, row_kinds=tuple(["stl"] * A_stl.shape[0] + in_kinds),
        stl_row_info=stl_row_info, n_predicates=table.size, cost_pred_mass=np.zeros(table.size))

