"""Compilation of fragment formulas into quadratic (or linear) programs.

The compiled problem maximizes the summed scheduled-average robustness of
the formula over its anchor steps, minus an optional quadratic input
penalty, subject to

* one inequality per (predicate, step) pair that satisfaction requires,
* epigraph rows linking one auxiliary variable per anchor step to each
  conjunct for conjunctions,
* input box bounds, an optional input budget, and arbitrary extra linear
  input constraints.

Disjunctions produce one problem per branch; the caller solves all branches
and applies the input of the best one.  Decision vectors are laid out as
``[epigraph | stacked inputs | slack]``.

Both builders share one path: ``_predict`` validates the inputs and writes
every predicate at every step of the window as an affine function of the
stacked inputs, ``_psi_terms`` lists the weighted (step, predicate) terms of
one conjunct at every anchor (through the operator term builders that the
single-operator ``build_E_*`` matrices share), ``_sat_points`` deduplicates
them into the pairs satisfaction constrains, ``_stl_rows`` turns those into
satisfaction rows and ``_input_rows`` adds the box, budget, extra and
penalty terms.  The worst-case baseline (:func:`build_sr_baseline`) differs
from a one-branch problem only in its single epigraph variable and its cost.

Assembly is array-built: the block-Toeplitz input matrix is gathered from
the stacked ``C A^k B`` blocks, each conjunct's terms come from one array
pass over all anchors (witnesses from :func:`~stlmpc.scheduling.k1_many`)
and are accumulated into its E matrix with ``np.add.at``, and the epigraph
rows come from one stack of vector-matrix products.  Products stay per row
(epigraph rows) or per state (recorded predicate values), since a single
matrix product over all of them rounds differently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .scheduling import Schedule, compute_schedule, k1_many
from .stl import (
    Always,
    And,
    Eventually,
    Formula,
    FragmentError,
    Not,
    OneTime,
    Or,
    Pred,
    PredicateTable,
    SamplingGrid,
    TrueNode,
    Until,
    collect_event_ops,
    discrete_length,
    event_index,
    omega,
    unwrap,
    validate_windows,
)

__all__ = [
    "VariableLayout",
    "QpProblem",
    "QpSolution",
    "StackedDynamics",
    "ControlConfig",
    "stack_dynamics",
    "build_E_until",
    "build_E_eventually",
    "build_E_always",
    "build_R",
    "build_problem",
    "add_slack_relaxation",
    "build_sr_baseline",
    "default_slack_weight",
    "dump_problem",
]


# ---------------------------------------------------------------------------
# Problem containers


@dataclass(frozen=True)
class VariableLayout:
    """Split of the decision vector into epigraph, input, and slack parts."""

    n_epigraph: int
    n_steps: int
    n_inputs: int
    n_slack: int = 0

    @property
    def n_u(self) -> int:
        return self.n_steps * self.n_inputs

    @property
    def total(self) -> int:
        return self.n_epigraph + self.n_u + self.n_slack

    @property
    def epigraph_slice(self) -> slice:
        return slice(0, self.n_epigraph)

    @property
    def u_slice(self) -> slice:
        return slice(self.n_epigraph, self.n_epigraph + self.n_u)

    @property
    def slack_slice(self) -> slice:
        return slice(self.n_epigraph + self.n_u, self.total)


@dataclass(frozen=True)
class QpProblem:
    """maximize lin @ y - y @ quad @ y + const  subject to  A_ub @ y <= b_ub.

    ``quad`` is positive semidefinite, so the problem is concave; with a zero
    quadratic block it is a linear program.  ``stl_row_info`` maps the index
    of each satisfaction row to its (predicate id, time step);
    ``cost_pred_mass`` and ``epigraph_pred_mass`` record how much cost /
    epigraph weight rests on each predicate, which is what the slack
    relaxation needs to shift predicates consistently.
    """

    quad: np.ndarray
    lin: np.ndarray
    const: float
    A_ub: np.ndarray
    b_ub: np.ndarray
    layout: VariableLayout
    row_kinds: tuple[str, ...]
    stl_row_info: dict[int, tuple[int, int]]
    n_predicates: int
    cost_pred_mass: np.ndarray
    epigraph_pred_mass: np.ndarray | None = None
    branch: int = 0
    debug: dict | None = None

    def __post_init__(self) -> None:
        for name in ("quad", "lin", "A_ub", "b_ub", "cost_pred_mass"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self) -> int:
        return self.lin.shape[0]

    @property
    def n_rows(self) -> int:
        return self.A_ub.shape[0]

    def objective_value(self, y: np.ndarray) -> float:
        return float(self.lin @ y - y @ self.quad @ y + self.const)


@dataclass(frozen=True)
class QpSolution:
    """Solver output in the problem's maximize sense."""

    status: str  # optimal | infeasible | iteration-limit | relaxed (set by the controller)
    objective: float
    y: np.ndarray
    inputs: np.ndarray          # (N, m)
    epigraph: np.ndarray
    slacks: np.ndarray
    iterations: int = 0
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")

    @property
    def first_input(self) -> np.ndarray:
        return self.inputs[0]


# ---------------------------------------------------------------------------
# Stacked dynamics


@dataclass(frozen=True)
class StackedDynamics:
    """Predicate prediction z_st = H1 x(k0) + H2 u_st + offset over N steps."""

    H1: np.ndarray
    H2: np.ndarray
    offset: np.ndarray
    N: int
    m: int

    def z_st(self, x0: np.ndarray, u_st: np.ndarray) -> np.ndarray:
        u = np.asarray(u_st, dtype=float).reshape(-1)
        if u.shape[0] != self.N * self.m:
            raise ValueError(f"expected {self.N * self.m} stacked inputs, got {u.shape[0]}")
        return self.H1 @ np.asarray(x0, dtype=float) + self.H2 @ u + self.offset


def stack_dynamics(A: np.ndarray, B: np.ndarray, C: np.ndarray, c: np.ndarray,
                   N: int, x0: np.ndarray | None = None) -> StackedDynamics:
    """Stack z(k0+1..k0+N) as an affine function of x(k0) and the inputs."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    c = np.asarray(c, dtype=float).reshape(-1)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
    if C.shape[1] != n:
        raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
    if c.shape[0] != C.shape[0]:
        raise ValueError(f"offset length {c.shape[0]} does not match {C.shape[0]} predicates")
    if N < 1:
        raise ValueError("horizon must be at least 1")
    m = B.shape[1]
    n_mu = C.shape[0]

    CA = [C @ A]                    # C A^1 ... C A^N
    for _ in range(N - 1):
        CA.append(CA[-1] @ A)
    CAB = [C @ B]                   # C A^0 B ... C A^{N-1} B
    for k in range(N - 1):
        CAB.append(CA[k] @ B)

    H1 = np.vstack(CA)
    # block (i, j) of the lower block-Toeplitz H2 is C A^{i-j} B; index N is a zero block
    blocks = np.concatenate([np.stack(CAB), np.zeros((1, n_mu, m))])
    lag = np.subtract.outer(np.arange(N), np.arange(N))
    H2 = blocks[np.where(lag >= 0, lag, N)].transpose(0, 2, 1, 3).reshape(N * n_mu, N * m)
    offset = np.tile(c, N)
    return StackedDynamics(H1, H2, offset, N, m)


# ---------------------------------------------------------------------------
# General compilation machinery


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


def _atom_pred(g: Formula, role: str) -> int:
    if isinstance(g, Pred):
        return g.pred_id
    if isinstance(g, Not):
        raise FragmentError(
            f"{role} contains a negation; compile positive-normal-form formulas "
            "(see stlmpc.stl.to_pnf)")
    if isinstance(g, TrueNode):
        raise FragmentError(
            f"{role} is the constant true, which has no finite robustness value; "
            "drop it or use an eventually-operator")
    raise FragmentError(f"{role} must be a predicate, got {type(g).__name__}")


def _dnf(theta: Formula):
    """Branches of the disjunctive normal form, each a list of (psi, op_index).

    op_index enumerates eventually/until operators of the whole formula in
    document order (always-operators get None).
    """
    counter = 0

    def walk(g: Formula):
        nonlocal counter
        if isinstance(g, (Until, Eventually)):
            idx = counter
            counter += 1
            return [[(g, idx)]]
        if isinstance(g, Always):
            return [[(g, None)]]
        if isinstance(g, And):
            branches = [[]]
            for ch in g.children:
                child_branches = walk(ch)
                branches = [b + cb for b in branches for cb in child_branches]
            return branches
        if isinstance(g, Or):
            out = []
            for ch in g.children:
                out.extend(walk(ch))
            return out
        raise FragmentError(
            f"{type(g).__name__} is not allowed inside the optimized formula; conjuncts "
            "must be single temporal operators over predicates")

    return walk(theta)


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


def _runs(span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row of every term and its position within the row, for span[r] terms in row r."""
    row = np.repeat(np.arange(span.size), span)
    return row, np.arange(row.size) - np.repeat(np.cumsum(span) - span, span)


def _always_terms(p: int, k_min: np.ndarray, k_max: np.ndarray):
    """Row r averages predicate p uniformly over the steps k_min[r]..k_max[r]."""
    span = k_max - k_min + 1
    empty = np.flatnonzero(span < 1)
    if empty.size:
        r = empty[0]
        raise ValueError(f"window [{k_min[r]}, {k_max[r]}] of row {r} is empty")
    row, j = _runs(span)
    return row, k_min[row] + j, np.full(row.size, p), 1.0 / span[row]


def _eventually_terms(p: int, k1: np.ndarray):
    """Row r takes predicate p at its witness step k1[r]."""
    return np.arange(k1.size), k1, np.full(k1.size, p), np.ones(k1.size)


def _until_terms(p_left: int, p_right: int, anchors: np.ndarray, k1: np.ndarray):
    """Row r averages the left operand over anchors[r]..k1[r], then adds the
    right operand at k1[r]; each half weighs 0.5."""
    span = k1 - anchors + 1
    early = np.flatnonzero(span < 1)
    if early.size:
        r = early[0]
        raise ValueError(f"witness {k1[r]} of row {r} precedes its anchor {anchors[r]}")
    row, j = _runs(span + 1)
    right = j == span[row]
    return (row, np.where(right, k1[row], anchors[row] + j), np.where(right, p_right, p_left),
            np.where(right, 0.5, 0.5 / span[row]))


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


def build_E_until(N: int, h_d: int, k0: int, k1_fn) -> np.ndarray:
    """Cost matrix for a single until-operator, two interleaved predicates.

    Row i covers the anchor step i + k_l - 1 (k_l = k0 - h_d + 1); odd
    columns belong to the left predicate, even columns to the right one.
    """
    k_l = k0 - h_d + 1
    anchors = np.arange(k_l, k_l + N)
    k1 = np.array([int(k1_fn(i_k)) for i_k in anchors.tolist()], dtype=np.int64)
    return _e_matrix(_until_terms(0, 1, anchors, k1), N, _Layout(k_l, k_l + N + h_d - 1, 2))


def build_E_eventually(N: int, h_d: int, k0: int, k1_fn) -> np.ndarray:
    """Cost matrix for a single eventually-operator, one predicate."""
    k_l = k0 - h_d + 1
    k1 = np.array([int(k1_fn(i_k)) for i_k in range(k_l, k_l + N)], dtype=np.int64)
    return _e_matrix(_eventually_terms(0, k1), N, _Layout(k_l, k_l + N + h_d - 1, 1))


def build_E_always(N: int, h_d: int, k0: int, window_fn) -> np.ndarray:
    """Cost matrix for a single always-operator, one predicate.

    ``window_fn`` maps the anchor step i_k to its absolute (k_min, k_max)
    index pair; the row averages the predicate uniformly over that window.
    """
    k_l = k0 - h_d + 1
    k_min, k_max = np.array([window_fn(i_k) for i_k in range(k_l, k_l + N)],
                            dtype=np.int64).reshape(N, 2).T
    return _e_matrix(_always_terms(0, k_min, k_max), N, _Layout(k_l, k_l + N + h_d - 1, 1))


def _pred_mass(E: np.ndarray, n_mu: int) -> np.ndarray:
    """Per row of E, the summed weight on each predicate (columns p, p + n_mu, ...)."""
    per_pred = E.reshape(E.shape[0], -1, n_mu).transpose(0, 2, 1)
    return np.ascontiguousarray(per_pred).sum(axis=2)


def build_R(theta: Formula, schedule: Schedule | None, N: int, k_l: int, k_h: int,
            grid: SamplingGrid, table: PredicateTable):
    """Satisfaction rows over the stacked predicate vector.

    Returns (R, meta): one row per deduplicated (predicate, step) inequality,
    with meta listing the (predicate id, step) of every row in order.  The
    formula must be a conjunction (use one branch of the DNF for
    disjunctions).
    """
    branches = _dnf(theta)
    if len(branches) != 1:
        raise FragmentError("build_R expects a conjunction; compile disjunction branches separately")
    h_d = discrete_length(theta, grid)
    layout = _Layout(k_l, k_l + N + h_d - 1, table.size)
    anchors = range(k_l, k_h + 1)
    ks, ps = _sat_points([_psi_terms(psi, op_index, anchors, schedule, grid)
                          for psi, op_index in branches[0]])
    R = np.zeros((ks.size, layout.n_cols))
    R[np.arange(ks.size), layout.cols(ks, ps)] = 1.0
    return R, list(zip(ps.tolist(), ks.tolist()))


# ---------------------------------------------------------------------------
# Full problem assembly


@dataclass(frozen=True)
class ControlConfig:
    """Optimizer-facing knobs: horizon, input constraints, penalties, slack.

    ``constraint_margin`` tightens every satisfaction row to z >= margin;
    the default of 1e-9 is invisible at problem scales but keeps actively
    pinned predicates boolean-true when the plan is re-simulated through the
    plant recursion, whose rounding differs from the stacked prediction.
    """

    horizon: int
    u_min: float | Sequence[float] = -np.inf
    u_max: float | Sequence[float] = np.inf
    input_penalty: np.ndarray | None = None
    budget_total: float | None = None
    budget_end: int | None = None       # last absolute step the budget covers
    extra_ineqs: tuple[tuple[np.ndarray, float], ...] = ()
    slack_weight: float | None = None
    constraint_margin: float = 1e-9

    def bounds(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.broadcast_to(np.asarray(self.u_min, dtype=float), (m,)).copy()
        hi = np.broadcast_to(np.asarray(self.u_max, dtype=float), (m,)).copy()
        if np.any(lo > hi):
            raise ValueError("u_min exceeds u_max")
        return lo, hi

    def penalty(self, m: int) -> np.ndarray:
        if self.input_penalty is None:
            return np.zeros((m, m))
        M = np.atleast_2d(np.asarray(self.input_penalty, dtype=float))
        if M.shape != (m, m):
            raise ValueError(f"input penalty must be {m}x{m}, got {M.shape}")
        if not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("input penalty must be symmetric")
        if np.linalg.eigvalsh(M).min() < -1e-10:
            raise ValueError("input penalty must be positive semidefinite")
        return M


def default_slack_weight(table: PredicateTable, state_scale: float) -> float:
    """Heuristic penalty that dominates any realistic robustness value."""
    row_norm = float(np.abs(table.C).sum(axis=1).max()) if table.size else 1.0
    off = float(np.abs(table.c).max()) if table.size else 0.0
    return 1e3 * (off + row_norm * max(1.0, state_scale))


def _anchor_range(phi: Formula, k0: int, N: int, h_d: int, grid: SamplingGrid) -> tuple[int, int]:
    if isinstance(phi, OneTime):
        ke = event_index(phi, grid)
        if ke > k0 + N - h_d:
            raise ValueError(
                f"event step {ke} plus formula length {h_d} exceeds the horizon at step {k0}")
        return ke, ke
    k_l = max(0, k0 - h_d + 1)
    k_h = k0 + N - h_d
    return k_l, k_h


@dataclass(frozen=True)
class _Prediction:
    """Set-up shared by both builders for one step k0.

    ``z_const + z_coeff @ u_st`` predicts the stacked predicate vector over
    the columns of ``cols``: recorded constants up to k0, affine in the
    stacked inputs after it.
    """

    theta: Formula
    k0: int
    N: int
    m: int
    lo: np.ndarray
    hi: np.ndarray
    M: np.ndarray
    anchors: range
    cols: _Layout
    z_const: np.ndarray
    z_coeff: np.ndarray


def _predict(phi: Formula, system, table: PredicateTable, config: ControlConfig, k0: int,
             state_history: np.ndarray | None) -> _Prediction:
    grid = system.grid
    validate_windows(phi, grid)
    theta = unwrap(phi)
    h_d = discrete_length(theta, grid)
    N = config.horizon
    if N < h_d:
        raise ValueError(f"prediction horizon N={N} is shorter than the formula length {h_d}")

    if state_history is None:
        if k0 != 0:
            raise ValueError("state_history is required when k0 > 0")
        state_history = np.atleast_2d(np.asarray(system.x0, dtype=float))
    state_history = np.atleast_2d(np.asarray(state_history, dtype=float))
    if state_history.shape[0] != k0 + 1:
        raise ValueError(f"state_history must hold x(0..{k0}), got {state_history.shape[0]} rows")
    x_now = state_history[k0]

    m = np.atleast_2d(np.asarray(system.B, dtype=float)).shape[1]
    dyn = stack_dynamics(system.A, system.B, table.C, table.c, N)
    lo, hi = config.bounds(m)
    M = config.penalty(m)

    k_l, k_h = _anchor_range(phi, k0, N, h_d, grid)
    cols = _Layout(min(k_l, k0), k0 + N, table.size)

    # past/current entries are recorded constants, future entries depend on u_st;
    # the past block takes one C @ x(k) per recorded step, like table.z (a single
    # matrix product over all steps would round differently)
    n_past = (k0 + 1 - cols.t_lo) * table.size
    z_const = np.empty(cols.n_cols)
    z_const[:n_past] = (np.matmul(table.C, state_history[cols.t_lo:k0 + 1, :, None])[:, :, 0]
                        + table.c).reshape(-1)
    z_const[n_past:] = dyn.H1 @ x_now + dyn.offset
    z_coeff = np.zeros((cols.n_cols, N * m))
    z_coeff[n_past:] = dyn.H2
    return _Prediction(theta, k0, N, m, lo, hi, M, range(k_l, k_h + 1), cols, z_const, z_coeff)


def _stl_rows(pred: _Prediction, points: tuple[np.ndarray, np.ndarray], layout: VariableLayout):
    """Rows -z_coeff[col] @ u_st <= z_const[col], one per (step, predicate) point.

    Returns (A, b, stl_row_info); the epigraph and slack columns are zero.
    """
    ks, ps = points
    ix = pred.cols.cols(ks, ps)
    A = np.zeros((ks.size, layout.total))
    A[:, layout.u_slice] = -pred.z_coeff[ix]
    return A, pred.z_const[ix], dict(enumerate(zip(ps.tolist(), ks.tolist())))


def _input_rows(pred: _Prediction, config: ControlConfig, layout: VariableLayout,
                input_history: np.ndarray | None):
    """Box, budget and extra rows over the inputs, and the input penalty.

    Returns (A, b, kinds, quad) with every block placed at ``layout.u_slice``.
    """
    N, m, k0 = pred.N, pred.m, pred.k0
    n_u, n_y, u = layout.n_u, layout.total, layout.u_slice

    # per step, an upper then a lower row for every input with a finite limit
    limits = np.array([(j, sign, bound) for j in range(m)
                       for sign, bound in ((1.0, pred.hi[j]), (-1.0, -pred.lo[j]))
                       if np.isfinite(bound)]).reshape(-1, 3)
    box_cols = (np.arange(N)[:, None] * m + limits[:, 0].astype(int)).reshape(-1)
    A_box = np.zeros((box_cols.size, n_y))
    A_box[np.arange(box_cols.size), layout.n_epigraph + box_cols] = np.tile(limits[:, 1], N)

    extra: list[tuple[np.ndarray, float]] = []
    # input budget over absolute steps [0, budget_end]
    if config.budget_total is not None:
        end = config.budget_end if config.budget_end is not None else k0 + N - 1
        spent = 0.0
        if input_history is not None and k0 > 0:
            hist = np.atleast_2d(np.asarray(input_history, dtype=float))[:k0]
            spent = float(hist[:min(k0, end + 1)].sum())
        coeffs = np.zeros(n_u)
        coeffs[:min(N, max(0, end - k0 + 1)) * m] = 1.0
        extra.append((coeffs, float(config.budget_total) - spent))
    for coeffs, bound in config.extra_ineqs:
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        if coeffs.shape[0] != n_u:
            raise ValueError(f"extra constraint has {coeffs.shape[0]} coefficients, expected {n_u}")
        extra.append((coeffs, float(bound)))
    A_extra = np.zeros((len(extra), n_y))
    for r, (coeffs, _) in enumerate(extra):
        A_extra[r, u] = coeffs

    quad = np.zeros((n_y, n_y))
    if np.any(pred.M):
        quad[u, u] = np.kron(np.eye(N), pred.M)
    return (np.vstack([A_box, A_extra]),
            np.concatenate([np.tile(limits[:, 2], N), [b for _, b in extra]]),
            ["box"] * box_cols.size + ["extra"] * len(extra), quad)


def build_problem(phi: Formula, system, table: PredicateTable, config: ControlConfig,
                  k0: int = 0, state_history: np.ndarray | None = None,
                  input_history: np.ndarray | None = None,
                  schedule: Schedule | None = None) -> list[QpProblem]:
    """Compile the formula into one problem per disjunction branch.

    ``system`` provides A, B, x0 and the sampling grid; ``state_history``
    holds the recorded states x(0..k0) (defaults to the initial state at
    k0 = 0) and fixes the past segment of the stacked predicate vector.
    The formula must be negation-free (positive normal form).
    """
    pred = _predict(phi, system, table, config, k0, state_history)
    windows = collect_event_ops(pred.theta)
    if windows and schedule is None:
        schedule = compute_schedule(windows, system.grid)
    return [_assemble_branch(branch, branch_ix, pred, schedule, system.grid, table, config,
                             input_history)
            for branch_ix, branch in enumerate(_dnf(pred.theta))]


def _assemble_branch(branch, branch_ix, pred: _Prediction, schedule, grid, table, config,
                     input_history) -> QpProblem:
    n_anchor = len(pred.anchors)
    multi = len(branch) > 1
    layout = VariableLayout(n_anchor if multi else 0, pred.N, pred.m)
    u = layout.u_slice

    terms = []
    E_per_conjunct = []
    for psi, op_index in branch:
        terms.append(_psi_terms(psi, op_index, pred.anchors, schedule, grid))
        E_per_conjunct.append(_e_matrix(terms[-1], n_anchor, pred.cols))
    E_total = sum(E_per_conjunct)

    lin = np.zeros(layout.total)
    const = 0.0
    cost_pred_mass = np.zeros(table.size)
    epigraph_pred_mass = None
    if multi:
        lin[:n_anchor] = 1.0
    else:
        w = E_total.sum(axis=0)
        lin[u] = w @ pred.z_coeff
        const += float(w @ pred.z_const)
        cost_pred_mass = _pred_mass(w[None], table.size)[0]

    points = _sat_points(terms)
    A_stl, b_stl, stl_row_info = _stl_rows(pred, points, layout)
    # the margin is planning headroom; recorded steps only need z >= 0
    b_stl = b_stl - np.where(points[0] > pred.k0, config.constraint_margin, 0.0)

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
        epigraph_pred_mass = _pred_mass(E_rows[:, 0], table.size)

    A_in, b_in, in_kinds, quad = _input_rows(pred, config, layout, input_history)
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
        A_ub=np.vstack([A_stl, A_epi, A_in]), b_ub=np.concatenate([b_stl, b_epi, b_in]),
        layout=layout,
        row_kinds=tuple(["stl"] * A_stl.shape[0] + ["epigraph"] * A_epi.shape[0] + in_kinds),
        stl_row_info=stl_row_info, n_predicates=table.size, cost_pred_mass=cost_pred_mass,
        epigraph_pred_mass=epigraph_pred_mass, branch=branch_ix, debug=debug)


def add_slack_relaxation(p: QpProblem, s: float) -> QpProblem:
    """Append one non-negative slack per predicate and penalize their sum.

    Every satisfaction row may be violated by at most its predicate's slack,
    and the robustness terms in the cost and the epigraph rows see the
    shifted predicates as well, so the solution is least-violating for
    sufficiently large ``s``.
    """
    if s <= 0:
        raise ValueError("slack weight must be positive")
    if p.layout.n_slack:
        raise ValueError("problem already has slack variables")
    n_mu = p.n_predicates
    layout = replace(p.layout, n_slack=n_mu)
    n_old = p.n_vars

    quad = np.zeros((n_old + n_mu, n_old + n_mu))
    quad[:n_old, :n_old] = p.quad
    lin = np.concatenate([p.lin, p.cost_pred_mass - s])

    A_old = np.hstack([p.A_ub, np.zeros((p.n_rows, n_mu))])
    kinds = list(p.row_kinds)
    for row_ix, (pred, _k) in p.stl_row_info.items():
        A_old[row_ix, n_old + pred] = -1.0
    if p.epigraph_pred_mass is not None:
        epi_rows = [i for i, kind in enumerate(p.row_kinds) if kind == "epigraph"]
        for r, row_ix in enumerate(epi_rows):
            A_old[row_ix, n_old:] = -p.epigraph_pred_mass[r]

    nonneg = np.zeros((n_mu, n_old + n_mu))
    nonneg[:, n_old:] = -np.eye(n_mu)
    A_ub = np.vstack([A_old, nonneg])
    b_ub = np.concatenate([p.b_ub, np.zeros(n_mu)])
    kinds.extend(["slack"] * n_mu)

    return replace(p, quad=quad, lin=lin, A_ub=A_ub, b_ub=b_ub,
                   layout=layout, row_kinds=tuple(kinds))


def build_sr_baseline(phi: Formula, system, table: PredicateTable, config: ControlConfig,
                      k0: int = 0, state_history: np.ndarray | None = None,
                      input_history: np.ndarray | None = None) -> QpProblem:
    """Worst-case baseline: maximize the minimum predicate margin.

    Only conjunctions of always-operators over axis-aligned unit-normal
    predicates are supported.  The problem is compiled like a one-branch
    :func:`build_problem` with the same prediction, satisfaction points and
    input rows, but with a single epigraph variable t as its cost: every
    satisfaction row reads t <= z_p(k), without constraint margin.
    """

    def conjuncts(g: Formula):
        if isinstance(g, And):
            out = []
            for ch in g.children:
                out.extend(conjuncts(ch))
            return out
        if isinstance(g, Always) and isinstance(g.child, Pred):
            return [g]
        raise FragmentError(
            "the worst-case baseline supports conjunctions of always-operators over predicates")

    gs = conjuncts(unwrap(phi))
    for g in gs:
        if table.unit_axis(g.child.pred_id) is None:
            raise FragmentError(
                f"predicate {table.names[g.child.pred_id]!r} is not axis-aligned with unit normal")

    pred = _predict(phi, system, table, config, k0, state_history)
    layout = VariableLayout(1, pred.N, pred.m)
    points = _sat_points([_psi_terms(g, None, pred.anchors, None, system.grid) for g in gs])
    A_stl, b_stl, stl_row_info = _stl_rows(pred, points, layout)
    A_stl[:, 0] = 1.0
    # rows at recorded steps have no input terms; writing +0 there rather
    # than -0 keeps the baseline's dump_problem text stable
    A_stl[points[0] <= k0, layout.u_slice] = 0.0
    A_in, b_in, in_kinds, quad = _input_rows(pred, config, layout, input_history)

    lin = np.zeros(layout.total)
    lin[0] = 1.0
    return QpProblem(
        quad=quad, lin=lin, const=0.0,
        A_ub=np.vstack([A_stl, A_in]), b_ub=np.concatenate([b_stl, b_in]),
        layout=layout, row_kinds=tuple(["stl"] * A_stl.shape[0] + in_kinds),
        stl_row_info=stl_row_info, n_predicates=table.size, cost_pred_mass=np.zeros(table.size))


def dump_problem(p: QpProblem) -> str:
    """Plain-text matrix dump for golden-file comparisons."""

    def mat(name: str, a: np.ndarray) -> str:
        a = np.atleast_2d(a)
        body = "\n".join(" ".join(f"{v:.17g}" for v in row) for row in a)
        return f"{name} {a.shape[0]}x{a.shape[1]}\n{body}"

    parts = [mat("lin", p.lin), mat("quad", p.quad), mat("A_ub", p.A_ub), mat("b_ub", p.b_ub)]
    if p.debug:
        parts.insert(0, mat("E", p.debug["E"]))
    parts.append(f"const {p.const:.17g}")
    return "\n".join(parts)
