"""Compilation of fragment formulas into linear (or quadratic) programs.

The compiled problem maximizes the summed scheduled-average robustness of
the formula over its anchor steps, minus an optional quadratic input
penalty, subject to

* one inequality per (predicate, future step) pair that satisfaction
  requires (the samples up to k0 are recorded constants, which reach only
  the cost and the epigraph bounds),
* epigraph rows linking one auxiliary variable per anchor step to each
  conjunct for conjunctions,
* input box bounds and an optional total input budget.

Disjunctions produce one problem per branch; the caller solves all branches
and applies the input of the best one.  Decision vectors are laid out as
``[epigraph | stacked inputs | slack]``; the constraints are stored once,
row-wise (:class:`SparseRows`), which is the form the solver takes.

Compilation has a per-run and a per-step phase.  :func:`compile_run`
validates the formula against the grid and the horizon and tabulates what a
closed-loop run keeps fixed.  A conjunct's terms at anchor step a depend on
a only through its witness offset k1(a) - a: an always-operator has one
offset, an eventually/until operator at most the schedule period.  Written
relative to a, the same holds for the conjunct's coefficient on the input
u(a + s), which is ``sum_t w_t (C A^(r_t - s - 1) B)[p_t]`` over its terms
(weight w_t on predicate p_t at step a + r_t).  So for every conjunct and
every offset, the run holds the relative terms, which are also the
satisfaction pattern, the dense input coefficients and the predicate mass,
one :class:`_BranchTable` per DNF branch, next to the stacked dynamics
``C A^k B`` and the input rows.

A step's problem depends on its step k0 only through the step's shape
(the number of recorded steps in its window, and where its anchors start
relative to the window and to the schedule period) and through its
right-hand side.  :func:`build_problem` therefore lays out the dense
constraint matrix of every shape once, from the table rows of its
(conjunct, anchor) pairs and the prediction's coefficients, and keeps its
rows (:meth:`SparseRows.from_dense`) as a template in the compiled run; a
step then computes only the right-hand sides from the recorded states.
The worst-case baseline (:func:`build_sr_baseline`) differs from a
one-branch :func:`build_problem` in its single epigraph variable, its cost
and its rows for the recorded samples too.  Sums over terms are numpy
reductions, not BLAS products, so the problems do not depend on the BLAS
thread count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

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
    "SparseRows",
    "QpProblem",
    "QpSolution",
    "StackedDynamics",
    "ControlConfig",
    "CompiledRun",
    "stack_dynamics",
    "build_E_until",
    "build_E_eventually",
    "build_E_always",
    "compile_run",
    "build_problem",
    "add_slack_relaxation",
    "build_sr_baseline",
    "default_slack_weight",
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
class SparseRows:
    """A matrix stored row-wise (compressed sparse rows).

    Row r holds ``value[start[r]:start[r + 1]]`` in the columns
    ``index[start[r]:start[r + 1]]``, in ascending column order, with no
    zero entries.
    """

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    n_cols: int

    @classmethod
    def from_dense(cls, A) -> "SparseRows":
        A = np.asarray(A, dtype=float)
        n_rows, n_cols = A.shape
        flat = np.flatnonzero(A != 0)
        start = np.searchsorted(flat, np.arange(n_rows + 1) * n_cols)
        return cls(start, flat % n_cols, A.ravel()[flat], n_cols)

    @property
    def n_rows(self) -> int:
        return self.start.size - 1

    @property
    def nnz(self) -> int:
        return int(self.start[-1])

    @property
    def lens(self) -> np.ndarray:
        return self.start[1:] - self.start[:-1]

    def dense(self) -> np.ndarray:
        A = np.zeros((self.n_rows, self.n_cols))
        A[np.arange(self.n_rows).repeat(self.lens), self.index] = self.value
        return A


def _frozen(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _owned(v):
    """A read-only copy of an array-like value; None and numbers as they are."""
    return v if v is None or np.isscalar(v) else _frozen(np.array(v, dtype=float))


@dataclass(frozen=True)
class QpProblem:
    """maximize lin @ y - y @ quad @ y + const  subject to  A_ub @ y <= b_ub.

    The constraint matrix is stored once, row-wise, in ``rows``; ``A_ub`` is
    its dense view, built on first use.  ``quad`` is positive semidefinite,
    so the problem is concave; it is None in the linear programs the
    builders compile without an input penalty.  ``lin``, ``b_ub``,
    ``cost_pred_mass`` and ``quad`` are read-only.

    ``stl_row_info`` maps the index of each satisfaction row to its
    (predicate id, time step); ``past_violated``, whether a recorded sample
    already violates the branch.  ``cost_pred_mass`` and ``epigraph_pred_mass``
    record how much cost / epigraph weight rests on each predicate, which is
    what the slack relaxation needs to shift predicates consistently.
    ``debug``, built on first use by ``explain``, holds the builder's
    matrices over the predicate window: ``E`` and ``E_per_conjunct`` (one
    row per anchor, one column per predicate sample), the ``anchors``, the
    prediction ``z_const + z_coeff @ u`` of every sample and the window's
    first step ``t_lo``.
    """

    lin: np.ndarray
    const: float
    rows: SparseRows
    b_ub: np.ndarray
    layout: VariableLayout
    row_kinds: tuple[str, ...]
    stl_row_info: dict[int, tuple[int, int]]
    n_predicates: int
    cost_pred_mass: np.ndarray
    epigraph_pred_mass: np.ndarray | None = None
    branch: int = 0
    past_violated: bool = False
    quad: np.ndarray | None = None
    explain: Callable[[], dict] | None = None

    def __post_init__(self) -> None:
        for name in ("lin", "b_ub", "cost_pred_mass", "quad"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))

    @functools.cached_property
    def A_ub(self) -> np.ndarray:
        return _frozen(self.rows.dense())

    @functools.cached_property
    def debug(self) -> dict | None:
        return None if self.explain is None else self.explain()

    @property
    def n_vars(self) -> int:
        return self.lin.shape[0]

    @property
    def n_rows(self) -> int:
        return self.rows.n_rows

    def objective_value(self, y: np.ndarray) -> float:
        if self.quad is None:
            return float(self.lin @ y + self.const)
        return float(self.lin @ y - y @ self.quad @ y + self.const)


@dataclass(frozen=True)
class QpSolution:
    """Solver output in the problem's maximize sense."""

    status: str                 # optimal | infeasible | iteration-limit
    objective: float
    y: np.ndarray
    inputs: np.ndarray          # (N, m)
    epigraph: np.ndarray
    slacks: np.ndarray
    iterations: int = 0
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")


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


def stack_dynamics(A: np.ndarray, B: np.ndarray, C: np.ndarray, c: np.ndarray,
                   N: int) -> StackedDynamics:
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
# Conjunct terms


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
    document order (always-operators get None).  Raises ``FragmentError``
    at the first conjunct that is not a temporal operator over predicates.
    """
    counter = 0

    def walk(g: Formula):
        nonlocal counter
        if isinstance(g, Until):
            _atom_pred(g.left, "until left operand")
            _atom_pred(g.right, "until right operand")
        elif isinstance(g, (Eventually, Always)):
            _atom_pred(g.child, f"{type(g).__name__.lower()}-operand")
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


def _window_cols(k: np.ndarray, p: np.ndarray, t_lo: int, t_hi: int, n_mu: int) -> np.ndarray:
    """Column of every (step k[i], predicate p[i]) pair among the samples of steps t_lo..t_hi."""
    outside = np.flatnonzero((k < t_lo) | (k > t_hi))
    if outside.size:
        raise ValueError(f"time {k[outside[0]]} outside the predicate window [{t_lo}, {t_hi}]")
    return (k - t_lo) * n_mu + p


def _weights(terms, n_rows: int, t_lo: int, t_hi: int, n_mu: int) -> np.ndarray:
    """E matrix of weighted (row, step, predicate) terms over the samples of steps t_lo..t_hi.

    Each entry sums its terms in their order.
    """
    row, k, p, w = terms
    E = np.zeros((n_rows, (t_hi - t_lo + 1) * n_mu))
    np.add.at(E, (row, _window_cols(k, p, t_lo, t_hi, n_mu)), w)
    return E


def build_E_until(N: int, h_d: int, k0: int, k1_fn) -> np.ndarray:
    """Cost matrix for a single until-operator, two interleaved predicates.

    Row i covers the anchor step i + k_l - 1 (k_l = k0 - h_d + 1); odd
    columns belong to the left predicate, even columns to the right one.
    """
    k_l = k0 - h_d + 1
    anchors = np.arange(k_l, k_l + N)
    k1 = np.array([int(k1_fn(i_k)) for i_k in anchors.tolist()], dtype=np.int64)
    return _weights(_until_terms(0, 1, anchors, k1), N, k_l, k_l + N + h_d - 1, 2)


def build_E_eventually(N: int, h_d: int, k0: int, k1_fn) -> np.ndarray:
    """Cost matrix for a single eventually-operator, one predicate."""
    k_l = k0 - h_d + 1
    k1 = np.array([int(k1_fn(i_k)) for i_k in range(k_l, k_l + N)], dtype=np.int64)
    return _weights(_eventually_terms(0, k1), N, k_l, k_l + N + h_d - 1, 1)


def build_E_always(N: int, h_d: int, k0: int, window_fn) -> np.ndarray:
    """Cost matrix for a single always-operator, one predicate.

    ``window_fn`` maps the anchor step i_k to its absolute (k_min, k_max)
    index pair; the row averages the predicate uniformly over that window.
    """
    k_l = k0 - h_d + 1
    k_min, k_max = np.array([window_fn(i_k) for i_k in range(k_l, k_l + N)],
                            dtype=np.int64).reshape(N, 2).T
    return _weights(_always_terms(0, k_min, k_max), N, k_l, k_l + N + h_d - 1, 1)


# ---------------------------------------------------------------------------
# Per-run tables


@dataclass(frozen=True)
class _BranchTable:
    """A branch's conjuncts at an anchor step a, one row per conjunct and witness offset.

    Conjunct j's row at anchor a is ``row_of[j, a % period]``, where the
    period (the number of columns) is the schedule's, or 1 without
    eventually/until operators.  ``cols`` and ``w`` list a row's terms, as
    the predicate samples ``r * n_mu + p`` of the steps a + r and their
    weights (all positive); rows are padded to a common width by repeating
    their first sample at weight zero.  ``mass`` sums a row's weights per
    predicate.

    ``inputs`` (None when tabulated without dynamics) holds per row the
    negated coefficients ``inputs[row, i, j]`` on input j of u(a + s) for
    the N steps s = h_d - N + i that a step can leave free, and a zero step
    at i = N.
    """

    row_of: np.ndarray
    cols: np.ndarray
    w: np.ndarray
    mass: np.ndarray
    inputs: np.ndarray | None = None


def _offset_terms(psi: Formula, op_index: int | None, schedule: Schedule | None,
                  grid: SamplingGrid, period: int):
    """A conjunct's terms at anchor 0, one row per witness offset, and the row of
    every anchor residue modulo the period."""
    if isinstance(psi, Always):
        window = omega(psi.a, psi.b, grid)
        return np.zeros(period, dtype=np.int64), _always_terms(
            psi.child.pred_id, np.array([window.start]), np.array([window.stop - 1]))
    if schedule is None:
        raise ValueError("eventually/until operators need a witness schedule")
    # an operator's witness offsets k1(a) - a lie in base .. base + delta - 1 and
    # repeat with period delta in a >= 0 (its baseline lies less than one
    # period past the window start)
    base = omega(*schedule.op_windows[op_index], grid).start
    a = np.arange(period)
    row_of = k1_many(schedule, op_index, a) - a - base
    if isinstance(psi, Eventually):
        return row_of, _eventually_terms(psi.child.pred_id, base + a)
    return row_of, _until_terms(psi.left.pred_id, psi.right.pred_id, np.zeros_like(a), base + a)


def _tabulate(branch, schedule: Schedule | None, grid: SamplingGrid, n_mu: int,
              G: np.ndarray | None = None, h_d: int = 0) -> _BranchTable:
    """Table of a branch's (conjunct, op_index) pairs; with the blocks
    G[q] = C A^q B, q < N, also their input rows.

    A row's input coefficients sum its terms' contributions in numpy, not
    through a BLAS product.
    """
    period = schedule.delta if schedule is not None else 1
    row_of, terms, n_rows = [], [], 0
    for psi, op_index in branch:
        rows, (row, k, p, w) = _offset_terms(psi, op_index, schedule, grid, period)
        row_of.append(rows + n_rows)
        terms.append((row + n_rows, k, p, w))
        n_rows += int(row[-1]) + 1
    row, k, p, w = (np.concatenate(x) for x in zip(*terms))

    count = np.bincount(row)
    head = np.cumsum(count) - count
    j = np.arange(row.size) - head[row]
    sample = k * n_mu + p
    cols = np.repeat(sample[head][:, None], count.max(), axis=1)
    cols[row, j] = sample
    weights = np.zeros(cols.shape)
    weights[row, j] = w
    mass = np.zeros((n_rows, n_mu))
    np.add.at(mass, (row, p), w)
    table = _BranchTable(np.array(row_of), cols, weights, mass)
    if G is None:
        return table

    N, _, m = G.shape
    r, p_pad = np.divmod(cols, n_mu)
    # term t reaches u(a + s) through C A^(r_t - s - 1) B, s = h_d - N + i, and not
    # at all when r_t <= s (block N of G_ext is zero)
    q = r[:, :, None] - (h_d - N + 1) - np.arange(N)
    G_ext = np.concatenate([G, np.zeros((1,) + G.shape[1:])])
    reach = G_ext[np.where(q >= 0, q, N), p_pad[:, :, None]]
    inputs = np.zeros((n_rows, N + 1, m))
    inputs[:, :N] = -(weights[:, :, None, None] * reach).sum(axis=1)
    return replace(table, inputs=inputs)


# ---------------------------------------------------------------------------
# Full problem assembly


@dataclass(frozen=True)
class ControlConfig:
    """Optimizer-facing knobs: horizon, input box and budget, input penalty, margin.

    ``budget_total`` bounds the sum of every input from step 0 to the end of
    the horizon.  ``constraint_margin`` tightens every satisfaction row, each
    a sample after the current step, to z >= margin; the default of 1e-9 is
    invisible at problem scales but keeps actively pinned predicates
    boolean-true when the plan is re-simulated through the plant recursion,
    whose rounding differs from the stacked prediction.
    The config holds read-only copies of the caller's ``u_min``, ``u_max``
    and ``input_penalty`` arrays, so it never changes once made.
    """

    horizon: int
    u_min: float | Sequence[float] = -np.inf
    u_max: float | Sequence[float] = np.inf
    input_penalty: np.ndarray | None = None
    budget_total: float | None = None
    constraint_margin: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("u_min", "u_max", "input_penalty"):
            object.__setattr__(self, name, _owned(getattr(self, name)))

    def bounds(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.broadcast_to(np.asarray(self.u_min, dtype=float), (m,)).copy()
        hi = np.broadcast_to(np.asarray(self.u_max, dtype=float), (m,)).copy()
        # lo > hi misses an empty box of two equal infinities
        for name, bound, empty in (("u_min", lo, np.inf), ("u_max", hi, -np.inf)):
            if np.isnan(bound).any():
                raise ValueError(f"{name} is NaN")
            if (bound == empty).any():
                raise ValueError(f"{name} is {empty:g}, which leaves no input")
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


@dataclass(frozen=True)
class CompiledRun:
    """What :func:`compile_run` fixes for a whole run.

    ``k_event`` is None for all-time formulas; each DNF branch lists
    (conjunct, op_index) pairs, and ``tables`` holds one table of its
    conjuncts per branch; ``quad`` is the input penalty's block over the
    stacked inputs (None without a penalty).  Every step's problem ends with
    the rows ``input_rows`` over the stacked inputs, of the kinds
    ``input_kinds``: the box rows, whose bounds are ``box_b``, then with a
    budget one row summing every input; both arrays are read-only.
    ``templates`` memoizes the steps' problems short of their right-hand
    sides, per step shape (see :func:`build_problem`); ``mpc.run`` keeps one
    compiled run per ``RunConfig``, so a later run on it builds only new shapes.
    Its ``x0`` is a read-only copy of the caller's; its ``config`` owns its arrays.
    """

    phi: Formula
    table: PredicateTable
    grid: SamplingGrid
    x0: np.ndarray
    config: ControlConfig
    h_d: int
    k_event: int | None
    schedule: Schedule | None
    branches: tuple[tuple[tuple[Formula, int | None], ...], ...]
    tables: tuple[_BranchTable, ...]
    dyn: StackedDynamics
    lo: np.ndarray
    hi: np.ndarray
    quad: np.ndarray | None
    input_rows: np.ndarray
    input_kinds: tuple[str, ...]
    box_b: np.ndarray
    templates: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def compile_run(phi: Formula, system, table: PredicateTable, config: ControlConfig,
                schedule: Schedule | None = None) -> CompiledRun:
    """Validate a positive-normal-form formula and compute what no step changes.

    ``system`` provides A, B, x0 and the grid; a missing witness schedule is computed.
    Raises ``FragmentError`` for a formula outside the control fragment and
    ``ValueError`` for a NaN margin, budget or input bound, a margin of inf, a
    budget of -inf or a horizon shorter than the formula length.
    """
    for name, empty in (("constraint_margin", np.inf), ("budget_total", -np.inf)):
        value = getattr(config, name) or 0.0
        if np.isnan(value):
            raise ValueError(f"{name} is NaN")
        if value == empty:
            raise ValueError(f"{name} is {empty:g}, which leaves no plan")
    grid = system.grid
    validate_windows(phi, grid)
    theta = unwrap(phi)
    branches = tuple(map(tuple, _dnf(theta)))
    h_d = discrete_length(theta, grid)
    N = config.horizon
    if N < h_d:
        raise ValueError(f"prediction horizon N={N} is shorter than the formula "
                         f"length {h_d}")
    dyn = stack_dynamics(system.A, system.B, table.C, table.c, N)
    m = dyn.m
    lo, hi = config.bounds(m)
    M = config.penalty(m)
    k_event = event_index(phi, grid) if isinstance(phi, OneTime) else None
    windows = collect_event_ops(theta)
    if windows and schedule is None:
        schedule = compute_schedule(windows, grid)

    G = dyn.H2[:, :m].reshape(N, table.size, m)
    quad = np.kron(np.eye(N), M) if np.any(M) else None
    in_rows, in_kinds, box_b = _input_rows(lo, hi, N, config.budget_total is not None)
    return CompiledRun(phi, table, grid, _owned(system.x0), config, h_d,
                       k_event, schedule, branches,
                       tuple(_tabulate(branch, schedule, grid, table.size, G, h_d)
                             for branch in branches),
                       dyn, lo, hi, quad, _frozen(in_rows), in_kinds, _frozen(box_b))


def _input_rows(lo: np.ndarray, hi: np.ndarray, N: int, budget: bool):
    """Rows over the stacked inputs, their kinds and the box rows' bounds.

    Per step, an upper then a lower row for every input with a finite limit;
    then, with a budget, one row summing every input.
    """
    m = lo.size
    limits = np.array([(j, sign, bound) for j in range(m)
                       for sign, bound in ((1.0, hi[j]), (-1.0, -lo[j]))
                       if np.isfinite(bound)]).reshape(-1, 3)
    box_cols = (np.arange(N)[:, None] * m + limits[:, 0].astype(int)).reshape(-1)
    A = np.zeros((box_cols.size + budget, N * m))
    A[np.arange(box_cols.size), box_cols] = np.tile(limits[:, 1], N)
    A[box_cols.size:] = 1.0
    return A, ("box",) * box_cols.size + ("budget",) * budget, np.tile(limits[:, 2], N)


class _Step(NamedTuple):
    """Set-up shared by both builders for one step k0.

    ``z_const`` predicts every predicate sample of the steps t_lo..k0+N at
    zero future input: the first ``n_past`` (steps up to k0) are recorded.
    """

    k0: int
    anchors: np.ndarray
    t_lo: int
    n_past: int
    z_const: np.ndarray


def _predict(run: CompiledRun, k0: int, state_history: np.ndarray | None) -> _Step:
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
    t_lo = min(k_l, k0)

    # past/current entries are recorded constants, future entries depend on u_st;
    # the past block takes one C @ x(k) per recorded step, like table.z (a single
    # matrix product over all steps would round differently)
    n_past = (k0 + 1 - t_lo) * table.size
    z_const = np.empty(n_past + N * table.size)
    z_const[:n_past] = (np.matmul(table.C, state_history[t_lo:k0 + 1, :, None])[:, :, 0]
                        + table.c).reshape(-1)
    z_const[n_past:] = dyn.H1 @ x_now + dyn.offset
    return _Step(k0, np.arange(k_l, k_h + 1), t_lo, n_past, z_const)


def _terms_at(tab: _BranchTable, anchors: np.ndarray, t_lo: int, n_mu: int):
    """Table row of every (conjunct, anchor) pair, conjunct by conjunct, and the
    samples of its terms in a window that starts at step t_lo."""
    rows = tab.row_of[:, anchors % tab.row_of.shape[1]].reshape(-1)
    at = np.concatenate([(anchors - t_lo) * n_mu] * tab.row_of.shape[0])
    return rows, tab.cols[rows] + at[:, None]


def _z_coeff(run: CompiledRun, step: _Step) -> np.ndarray:
    """Coefficients of every predicate sample of the window on the stacked
    inputs: zero for the recorded samples, then the rows of H2."""
    z_coeff = np.zeros((step.z_const.size, run.dyn.H2.shape[1]))
    z_coeff[step.n_past:] = run.dyn.H2
    return z_coeff


def _stl_rows(run: CompiledRun, step: _Step, samples: np.ndarray):
    """Satisfaction rows -z_coeff[col] @ u_st <= z_const[col] of the ascending samples,
    which is (step, predicate) order.

    Returns (rows over the stacked inputs, preds, steps): each row's
    predicate and its step relative to the window start, as lists.
    """
    ks, ps = np.divmod(samples, run.table.size)
    return -_z_coeff(run, step)[samples], ps.tolist(), ks.tolist()


def _row_info(preds: list[int], steps: list[int], t_lo: int) -> dict[int, tuple[int, int]]:
    """``stl_row_info``: (predicate, absolute step) of every satisfaction row."""
    return dict(enumerate(zip(preds, map(t_lo.__add__, steps))))


def _input_bounds(run: CompiledRun, k0: int, input_history: np.ndarray | None) -> np.ndarray:
    """Right-hand sides of the input rows at step k0: the box bounds, then the
    budget less the inputs u(0..k0-1) already spent."""
    budget = run.config.budget_total
    if budget is None:
        return run.box_b
    hist = (np.zeros((0, run.dyn.m)) if input_history is None
            else np.atleast_2d(np.asarray(input_history, dtype=float)))
    if hist.shape[0] < k0:
        raise ValueError(f"input_history must hold u(0..{k0 - 1}) to count the budget "
                         f"spent, got {hist.shape[0]} rows")
    return np.concatenate([run.box_b, [float(budget) - float(hist[:k0].sum())]])


def build_problem(run: CompiledRun, k0: int = 0, state_history: np.ndarray | None = None,
                  input_history: np.ndarray | None = None) -> list[QpProblem]:
    """Compile step k0 of a compiled run into one problem per disjunction branch.

    ``state_history`` holds the recorded states x(0..k0) (default: x0 at
    k0 = 0); ``input_history`` the applied inputs u(0..k0-1), which a budget needs.

    A step's rows, costs and row kinds depend on k0 only through the step's
    shape (:func:`_templates`), so they are built once per shape and run;
    a step computes only the right-hand side from the recorded states.
    """
    step = _predict(run, k0, state_history)
    b_in = _input_bounds(run, k0, input_history)
    return [_assemble(run, tpl, step, b_in) for tpl in _templates(run, step)]


class _Template(NamedTuple):
    """A branch's problem at one step shape, short of the right-hand side.

    ``problem`` is the branch's :class:`QpProblem` with every field but the
    right-hand side and what the recorded samples decide: its rows, costs,
    layout and row kinds are read-only and shared by every step of the
    shape.  The right-hand side reads the prediction z_const: the
    satisfaction rows take the ``samples`` after k0 less the constraint
    margin, and the weights ``w`` on the samples ``cols`` give each
    (conjunct, anchor) row's robustness at zero future input: the epigraph
    rows' bounds, or summed, the constant cost of a one-conjunct branch.
    ``preds`` and ``steps`` give each satisfaction row's predicate and its
    step relative to the window start.
    """

    problem: QpProblem
    samples: np.ndarray
    cols: np.ndarray
    w: np.ndarray
    preds: list[int]
    steps: list[int]


def _templates(run: CompiledRun, step: _Step) -> tuple[_Template, ...]:
    """One template per branch for the shape of this step, built at its first use.

    The shape is everything a template reads of the step: k0 and the first
    anchor relative to the window start, the number of anchors, and the
    first anchor's residue modulo the schedule period.  An all-time formula
    thus has (h_d - 1) + delta shapes (h_d - 1 before its first full
    window, then one per residue), a one-time formula one per k0 - k_event.
    """
    a0 = int(step.anchors[0])
    shape = (step.k0 - step.t_lo, a0 - step.t_lo, step.anchors.size,
             a0 % run.tables[0].row_of.shape[1])
    templates = run.templates.get(shape)
    if templates is None:
        templates = run.templates.setdefault(shape, tuple(
            _template(run, tab, step, branch) for branch, tab in enumerate(run.tables)))
    return templates


def _template(run: CompiledRun, tab: _BranchTable, step: _Step, branch: int) -> _Template:
    N, m, n_mu = run.config.horizon, run.dyn.m, run.table.size
    n_anchor = step.anchors.size
    n_conj = tab.row_of.shape[0]
    multi = n_conj > 1
    layout = VariableLayout(n_anchor if multi else 0, N, m)
    n_epi = layout.n_epigraph

    rows, cols = _terms_at(tab, step.anchors, step.t_lo, n_mu)
    w = tab.w[rows]
    # the rows of conjunct j read u_x[i] - (coefficients on u_st) <= (E_j z_const)(i);
    # the input u(k0 + i) is u(a + s) for s = h_d - N + free + i among the
    # tabulated steps of anchor a (none past the last: the zero step N)
    free = np.concatenate([np.minimum(step.k0 - step.anchors + (N - run.h_d), N)] * n_conj)
    epi_u = tab.inputs[rows[:, None], np.minimum(free[:, None] + np.arange(N), N)]
    epi_u = epi_u.reshape(rows.size, N * m)
    mass = tab.mass[rows]
    # satisfaction rows only after k0: no input changes the recorded samples
    samples = np.unique(cols[cols >= step.n_past])
    stl_u, preds, steps = _stl_rows(run, step, samples)

    blocks = (stl_u, epi_u, run.input_rows) if multi else (stl_u, run.input_rows)
    A = np.zeros((sum(b.shape[0] for b in blocks), layout.total))
    A[:, n_epi:] = np.concatenate(blocks)
    lin = np.zeros(layout.total)
    if multi:
        # each (conjunct, anchor) row also holds its anchor's epigraph variable
        A[samples.size + np.arange(rows.size), np.arange(rows.size) % n_anchor] = 1.0
        lin[:n_anchor] = 1.0
        cost_pred_mass, epigraph_pred_mass = np.zeros(n_mu), mass
    else:
        # one conjunct: its summed robustness is the cost itself, no epigraph rows
        coeffs = SparseRows.from_dense(epi_u)
        lin[layout.u_slice] = -np.bincount(coeffs.index, weights=coeffs.value, minlength=N * m)
        cost_pred_mass, epigraph_pred_mass = mass.sum(axis=0), None
    problem_rows = SparseRows.from_dense(A)
    # the problem freezes its lin, cost_pred_mass and quad itself
    for arr in (problem_rows.start, problem_rows.index, problem_rows.value, mass, samples, cols, w):
        arr.setflags(write=False)
    problem = QpProblem(
        lin=lin, const=0.0, rows=problem_rows, b_ub=np.empty(0), layout=layout,
        row_kinds=("stl",) * samples.size + ("epigraph",) * (rows.size * multi) + run.input_kinds,
        stl_row_info={}, n_predicates=n_mu, cost_pred_mass=cost_pred_mass,
        epigraph_pred_mass=epigraph_pred_mass, branch=branch, quad=_quad(run, layout))
    return _Template(problem, samples, cols, w, preds, steps)


def _assemble(run: CompiledRun, tpl: _Template, step: _Step, b_in: np.ndarray) -> QpProblem:
    """A branch's problem at this step: the template and the step's right-hand side."""
    z_const = step.z_const
    b_stl = z_const[tpl.samples] - run.config.constraint_margin
    b_epi = (tpl.w * z_const[tpl.cols]).sum(axis=1)
    if tpl.problem.epigraph_pred_mass is None:
        const, b_ub = float(b_epi.sum()), np.concatenate([b_stl, b_in])
    else:
        const, b_ub = 0.0, np.concatenate([b_stl, b_epi, b_in])
    return replace(
        tpl.problem, const=const, b_ub=b_ub,
        stl_row_info=_row_info(tpl.preds, tpl.steps, step.t_lo),
        past_violated=bool((z_const[tpl.cols[tpl.cols < step.n_past]] < 0).any()),
        explain=lambda: _debug(run, step, tpl.cols, tpl.w))


def _quad(run: CompiledRun, layout: VariableLayout) -> np.ndarray | None:
    """The input penalty over the whole decision vector, None without one."""
    if run.quad is None:
        return None
    quad = np.zeros((layout.total, layout.total))
    quad[layout.u_slice, layout.u_slice] = run.quad
    return quad


def _debug(run: CompiledRun, step: _Step, cols: np.ndarray, w: np.ndarray) -> dict:
    """The dense matrices behind one problem (see :class:`QpProblem`), from the
    samples and weights of its (conjunct, anchor) rows."""
    n_mu, n_anchor = run.table.size, step.anchors.size
    t_hi = step.k0 + run.config.horizon
    k, p = np.divmod(cols, n_mu)
    row = np.arange(n_anchor).repeat(cols.shape[1])
    E_per_conjunct = []
    for j in range(0, cols.shape[0], n_anchor):
        block = slice(j, j + n_anchor)
        terms = (row, k[block].reshape(-1) + step.t_lo, p[block].reshape(-1), w[block].reshape(-1))
        E_per_conjunct.append(_weights(terms, n_anchor, step.t_lo, t_hi, n_mu))
    return {
        "E": sum(E_per_conjunct),
        "E_per_conjunct": E_per_conjunct,
        "anchors": tuple(step.anchors.tolist()),
        "z_const": step.z_const,
        "z_coeff": _z_coeff(run, step),
        "t_lo": step.t_lo,
    }


def add_slack_relaxation(p: QpProblem, s: float) -> QpProblem:
    """Append one non-negative slack per predicate and penalize their sum.

    Every satisfaction row may be violated by at most its predicate's slack,
    and the robustness terms in the cost and the epigraph rows see the
    shifted predicates as well, so the solution is least-violating for
    sufficiently large ``s``.  The constraints become ``[A_ub S; 0 -I]``:
    the slack coefficients S of every row, then one row -slack <= 0 per
    predicate.
    """
    if s <= 0:
        raise ValueError("slack weight must be positive")
    if p.layout.n_slack:
        raise ValueError("problem already has slack variables")
    n_mu = p.n_predicates
    layout = replace(p.layout, n_slack=n_mu)
    n_old = p.n_vars

    quad = None
    if p.quad is not None:
        quad = np.zeros((n_old + n_mu, n_old + n_mu))
        quad[:n_old, :n_old] = p.quad
    lin = np.concatenate([p.lin, p.cost_pred_mass - s])

    S = np.zeros((p.n_rows, n_mu))
    stl_rows = np.fromiter(p.stl_row_info, dtype=np.intp, count=len(p.stl_row_info))
    stl_preds = np.array(list(p.stl_row_info.values()), dtype=np.intp).reshape(-1, 2)[:, 0]
    S[stl_rows, stl_preds] = -1.0
    if p.epigraph_pred_mass is not None:
        S[np.flatnonzero(np.array(p.row_kinds) == "epigraph")] = -p.epigraph_pred_mass
    rows = SparseRows.from_dense(np.block([[p.rows.dense(), S],
                                           [np.zeros((n_mu, n_old)), -np.eye(n_mu)]]))
    return replace(p, quad=quad, lin=lin, rows=rows,
                   b_ub=np.concatenate([p.b_ub, np.zeros(n_mu)]), layout=layout,
                   row_kinds=p.row_kinds + ("slack",) * n_mu)


def build_sr_baseline(run: CompiledRun, k0: int = 0, state_history: np.ndarray | None = None,
                      input_history: np.ndarray | None = None) -> QpProblem:
    """Worst-case baseline for step k0 of a compiled run: maximize the minimum predicate margin.

    Only conjunctions of always-operators over axis-aligned unit-normal
    predicates are supported.  The problem is compiled like a one-branch
    :func:`build_problem` with the same prediction and input rows, but with
    a single epigraph variable t as its cost: every sample the terms weigh,
    recorded ones included, has a row t <= z_p(k), without constraint
    margin, which bounds the cost and cannot make the problem infeasible.
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

    step = _predict(run, k0, state_history)
    layout = VariableLayout(1, run.config.horizon, run.dyn.m)
    samples = np.unique(_terms_at(run.tables[0], step.anchors, step.t_lo, table.size)[1])
    stl_u, preds, steps = _stl_rows(run, step, samples)
    b_in = _input_bounds(run, k0, input_history)
    in_u = run.input_rows

    lin = np.zeros(layout.total)
    lin[0] = 1.0
    return QpProblem(
        quad=_quad(run, layout), lin=lin, const=0.0,
        rows=SparseRows.from_dense(np.block([[np.ones((samples.size, 1)), stl_u],
                                             [np.zeros((in_u.shape[0], 1)), in_u]])),
        b_ub=np.concatenate([step.z_const[samples], b_in]),
        layout=layout, row_kinds=("stl",) * samples.size + run.input_kinds,
        stl_row_info=_row_info(preds, steps, step.t_lo), n_predicates=table.size,
        cost_pred_mass=np.zeros(table.size))
