"""Exact solver for the compiled linear and quadratic programs.

Solves problems of the form

    maximize   lin @ y - y @ quad @ y + const
    subject to A_ub @ y <= b_ub

with HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018) through the bindings
scipy bundles.  Every problem takes one path: its rows, as the builder
emitted them, and the Hessian ``quad + quad.T`` go to HiGHS in one
``passModel`` call; a linear program passes an empty Hessian.  HiGHS then
solves a linear program with its interior-point method (Schork & Gondzio's
IPX, Math. Prog. Comp. 2020), run without crossover so that it returns a
point inside the optimal face rather than a vertex, and a quadratic program
with its active-set QP solver.
"""

from __future__ import annotations

import functools
import importlib
import threading

import numpy as np

from .qp_builder import QpProblem, QpSolution, SparseRows

__all__ = ["SolverError", "solve"]


class SolverError(RuntimeError):
    """Structural solver failure (non-convex input or unbounded problem)."""


@functools.cache
def _highs():
    """scipy's bundled HiGHS bindings, imported at the first solve (about 0.3 s)."""
    try:
        return importlib.import_module("scipy.optimize._highspy._core")
    except ImportError as exc:
        raise ImportError("problems are solved by the HiGHS bindings that scipy "
                          ">= 1.15 bundles (scipy.optimize._highspy._core)") from exc


# one thread keeps results independent of the host; without crossover the
# interior-point method stops inside the optimal face; presolve costs more
# than it saves on these problems
_HIGHS_OPTIONS = {"output_flag": False, "threads": 1, "solver": "ipm", "run_crossover": "off",
                  "presolve": "off"}
# a QP reported optimal whose relative stationarity residual exceeds this is
# unbounded: HiGHS stopped on its internal bound along a descent ray
_STATIONARITY_TOL = 1e-5
# HiGHS's default small_matrix_value: matrix and Hessian entries of at most
# this magnitude are dropped when the model is passed
_SMALL_MATRIX_VALUE = 1e-9
_local = threading.local()


def _instance(h):
    """This thread's HiGHS instance, made with ``_HIGHS_OPTIONS`` at its first solve."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = _local.highs = h._Highs()
        for name, value in _HIGHS_OPTIONS.items():
            highs.setOptionValue(name, value)
    return highs


def solve(problem: QpProblem) -> QpSolution:
    """Solve the problem; status is optimal, infeasible, or iteration-limit.

    The model replaces the previous one on this thread's instance in one
    call of the array ``passModel``: free continuous columns (an empty
    integrality array would be rejected), rows ``-inf <= A y <= b`` with
    ``A`` passed as the problem stores it, row-wise, and the lower triangle
    of the Hessian column-wise, which for a symmetric matrix is its upper
    triangle row-wise.

    A linear program is solved by the interior-point method without
    crossover: its point lies inside the optimal face, where a simplex or
    crossover vertex would sit on its edge, with no margin left against the
    next disturbance.  Only a solve that ends undecided (unbounded or
    infeasible, or imprecise) is repeated with crossover, whose simplex
    clean-up gives a verdict.

    A non-convex or unbounded problem raises :class:`SolverError`.  HiGHS's
    QP solver may report an unbounded problem as optimal, with a point on
    its internal bound, so a quadratic program must also be stationary
    under the returned duals.
    """
    h = _highs()
    highs = _instance(h)
    status_of = {h.HighsModelStatus.kOptimal: "optimal",
                 h.HighsModelStatus.kModelEmpty: "optimal",
                 h.HighsModelStatus.kInfeasible: "infeasible"}
    rows = problem.rows
    n, m = problem.n_vars, rows.n_rows
    P = _hessian(problem)
    if P is None:
        hessian = (np.zeros(n + 1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0))
    else:
        upper = SparseRows.from_dense(np.triu(P))
        hessian = (upper.start.astype(np.int32), upper.index.astype(np.int32), upper.value)
    model = (n, m, rows.nnz, hessian[2].size, h.MatrixFormat.kRowwise,
             h.HessianFormat.kTriangular, h.ObjSense.kMinimize, 0.0, -problem.lin,
             np.full(n, -np.inf), np.full(n, np.inf), np.full(m, -np.inf), problem.b_ub,
             rows.start.astype(np.int32), rows.index.astype(np.int32), rows.value, *hessian,
             np.zeros(n, dtype=np.int32))

    def pass_and_run() -> None:
        # a rejected model would leave the previous one in place; a warning
        # (entries below 1e-9 dropped) still replaces it.  Passing the model
        # also clears what an earlier run left on the instance.
        if highs.passModel(*model) == h.HighsStatus.kError:
            raise SolverError("HiGHS rejected the problem")
        highs.run()

    pass_and_run()
    if P is None and highs.getModelStatus() not in (*status_of, h.HighsModelStatus.kUnbounded):
        highs.setOptionValue("run_crossover", "on")
        try:
            pass_and_run()
        finally:
            highs.setOptionValue("run_crossover", "off")
    verdict = highs.getModelStatus()
    if verdict == h.HighsModelStatus.kNotset:
        raise SolverError("HiGHS stopped before solving: the quadratic term is not convex")
    if verdict == h.HighsModelStatus.kUnbounded:
        raise SolverError("objective is unbounded along a feasible ray")
    info = highs.getInfo()
    solution = highs.getSolution()
    x = np.array(solution.col_value, dtype=float)
    if (P is not None and verdict == h.HighsModelStatus.kOptimal
            and _stationarity(problem, P, x, solution) > _STATIONARITY_TOL):
        raise SolverError("objective is unbounded along a feasible ray")
    # an LP counts interior-point and crossover iterations, a QP those of the QP solver
    iterations = sum(max(count, 0) for count in (info.ipm_iteration_count,
                                                 info.crossover_iteration_count,
                                                 info.qp_iteration_count))
    return _finish(problem, x, status_of.get(verdict, "iteration-limit"), iterations,
                   info.max_primal_infeasibility, info.max_dual_infeasibility)


def _hessian(problem: QpProblem) -> np.ndarray | None:
    """The minimize-form Hessian ``quad + quad.T``; None for a linear program.

    HiGHS drops every entry of magnitude up to its ``small_matrix_value``,
    so a Hessian made only of such entries is solved as the linear program
    it becomes.
    """
    if problem.quad is None:
        return None
    P = problem.quad + problem.quad.T
    if np.abs(P).max(initial=0.0) <= _SMALL_MATRIX_VALUE:
        return None
    if np.linalg.eigvalsh(P).min() < -1e-8 * max(1.0, np.abs(P).max()):
        raise SolverError("quadratic block is not positive semidefinite")
    return P


def _stationarity(problem: QpProblem, P: np.ndarray, y: np.ndarray, solution) -> float:
    """inf-norm of ``-lin + P y - A' row_dual - col_dual``, relative to max(1, |lin|)."""
    rows = problem.rows
    a_dual = np.bincount(rows.index, minlength=problem.n_vars,
                         weights=rows.value * np.repeat(solution.row_dual, rows.lens))
    resid = -problem.lin + P @ y - a_dual - np.asarray(solution.col_dual)
    scale = max(1.0, float(np.abs(problem.lin).max(initial=0.0)))
    return float(np.abs(resid).max(initial=0.0)) / scale


def _finish(problem: QpProblem, y_vec: np.ndarray, status: str, iterations: int,
            r_prim: float, r_dual: float) -> QpSolution:
    lay = problem.layout
    inputs = y_vec[lay.u_slice].reshape(lay.n_steps, lay.n_inputs)
    return QpSolution(
        status=status,
        objective=problem.objective_value(y_vec) if status != "infeasible" else float("nan"),
        y=y_vec,
        inputs=inputs,
        epigraph=y_vec[lay.epigraph_slice].copy(),
        slacks=y_vec[lay.slack_slice].copy(),
        iterations=iterations,
        primal_residual=r_prim,
        dual_residual=r_dual,
    )
