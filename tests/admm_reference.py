"""Dense ADMM splitting solver, the oracle for the HiGHS path.

Before every problem went to HiGHS, quadratic programs (and, before that,
linear programs too) were solved by alternating a regularized KKT solve with
a projection onto the constraint box, in the style of first-order splitting
QP codes.  After the splitting converges, the active constraint set is
polished by one equality-constrained solve, which typically lands on
machine-precision KKT residuals.  Primal infeasibility is detected from the
divergence direction of the dual iterates.

The functions below are that code, kept unchanged as an independent solver
that :func:`stlmpc.qp_solver.solve` must agree with (status, and objective
to a relative 1e-6; see ``tests/test_qp_solver.py``).  Only the names moved:
its settings are ``AdmmSettings`` and its entry point is ``solve_admm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from stlmpc.qp_builder import QpProblem, QpSolution
from stlmpc.qp_solver import SolverError, _finish


# splitting parameters (KKT regularization, step size, over-relaxation), steps between
# convergence checks, and the smallest iterate change the infeasibility checks consider
_SIGMA, _RHO, _ALPHA = 1e-6, 0.1, 1.6
_CHECK_INTERVAL = 25
_INFEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class AdmmSettings:
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_iterations: int = 50_000

    def __post_init__(self) -> None:
        if min(self.abs_tol, self.rel_tol) <= 0:
            raise ValueError("tolerances must be positive")


def _ruiz_equilibrate(P, q, A, b, iters: int = 10):
    """Symmetric scaling of variables and constraint rows to unit inf-norms.

    The cost vector participates in the column norms: a variable that only
    appears in the objective (e.g. a heavily weighted slack) would otherwise
    keep its raw scale and stall the first-order iteration.
    """
    n = P.shape[0]
    mrows = A.shape[0]
    d = np.ones(n)
    e = np.ones(mrows)
    # column-major: both norm reductions and the row scaling then run along
    # contiguous memory (faster than row-major, same values)
    Ps, qs, As, bs = P.copy(), q.copy(), np.array(A, order="F"), b.copy()
    for _ in range(iters):
        abs_A = np.abs(As)
        col_norm = np.maximum(np.abs(Ps).max(axis=0, initial=0.0), abs_A.max(axis=0, initial=0.0))
        col_norm = np.maximum(col_norm, np.abs(qs))
        col_norm[col_norm == 0] = 1.0
        dd = 1.0 / np.sqrt(col_norm)
        row_norm = abs_A.max(axis=1, initial=0.0)
        row_norm[row_norm == 0] = 1.0
        ee = 1.0 / np.sqrt(row_norm)
        Ps *= dd[:, None]
        Ps *= dd[None, :]
        qs *= dd
        As *= ee[:, None]
        As *= dd[None, :]
        bs *= ee
        d *= dd
        e *= ee
    cost_scale = max(np.abs(Ps).max(initial=0.0), np.abs(qs).max(initial=0.0))
    cost = 1.0 / cost_scale if cost_scale > 0 else 1.0
    return Ps * cost, qs * cost, As, bs, d, e, cost


def _kkt(P, reg: float, A, diag: float, off: float = 0.0) -> np.ndarray:
    """KKT matrix [[P + reg I, A'], [A, diag I]] written into one array.

    ``off`` fills the rest of the bottom-right block: the splitting matrix's
    block -I / rho holds -0.0 there, the polishing matrix's zero block +0.0.
    """
    n, m = P.shape[0], A.shape[0]
    kkt = np.empty((n + m, n + m))
    np.add(P, reg * np.eye(n), out=kkt[:n, :n])
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    kkt[n:, n:] = off
    np.fill_diagonal(kkt[n:, n:], diag)
    return kkt


class _Scales(NamedTuple):
    """max(1, inf-norm) of each part of the unscaled problem, fixed for one solve."""

    P: float
    q: float
    A: float
    b: float


def _polish(P, q, A, b, x, y, feas_tol: float, scales: _Scales):
    """Equality solve on the estimated active set; None when not verifiable.

    A verified result satisfies the full KKT system (stationarity, primal
    feasibility, non-negative multipliers, complementary slackness), which
    certifies global optimality of the convex problem.
    """
    n = P.shape[0]
    # proximal anchor keeps directions the active rows leave free at the
    # splitting iterate, which matters on degenerate (non-vertex) optima
    mu = 1e-9 * scales.P
    slack = b - A @ x if A.size else np.zeros(0)
    tried: set[tuple[int, ...]] = set()
    for active_tol in (1e-7 * scales.b, 1e-5 * scales.b, 1e-9 * scales.b):
        active = np.flatnonzero((slack <= active_tol) | (y > active_tol))
        key = tuple(active)
        if key in tried:
            continue
        tried.add(key)
        A_act = A[active]
        kkt = _kkt(P, mu, A_act, 0.0)
        rhs = np.concatenate([-q + mu * x, b[active]])
        try:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        except np.linalg.LinAlgError:
            continue
        x_hat = sol[:n]
        nu = np.maximum(sol[n:], 0.0)
        y_hat = np.zeros_like(y)
        y_hat[active] = nu
        resid = A @ x_hat - b if A.size else np.zeros(0)
        viol = float(resid.max(initial=0.0))
        stationarity = float(np.abs(P @ x_hat + q + A.T @ y_hat).max(initial=0.0))
        complementarity = float(np.abs(y_hat * resid).max(initial=0.0))
        if (viol <= feas_tol and stationarity <= 1e-7 * scales.q
                and complementarity <= 1e-7 * scales.q * scales.b):
            return x_hat, y_hat
    return None


def solve_admm(problem: QpProblem, settings: AdmmSettings) -> QpSolution:
    """Operator splitting with active-set polishing, for any convex problem."""
    n = problem.n_vars

    # internal minimize form: 1/2 x' P x + q' x  s.t.  A x <= b
    if problem.quad is None:
        P = np.zeros((n, n))
    else:
        P = np.asarray(2.0 * problem.quad, dtype=float)
        P = 0.5 * (P + P.T)
    q = -np.asarray(problem.lin, dtype=float)
    if n and np.linalg.eigvalsh(P).min() < -1e-8 * max(1.0, np.abs(P).max()):
        raise SolverError("quadratic block is not positive semidefinite")

    # presolve: drop empty rows, catching constant infeasibilities
    A_full = np.asarray(problem.A_ub, dtype=float)
    b_full = np.asarray(problem.b_ub, dtype=float)
    feas_tol = 10.0 * settings.abs_tol
    row_mass = np.abs(A_full).max(axis=1, initial=0.0) if A_full.size else np.zeros(0)
    empty = row_mass == 0.0
    if np.any(b_full[empty] < -feas_tol):
        return _finish(problem, np.zeros(n), "infeasible", 0, np.nan, np.nan)
    keep = ~empty
    A = A_full[keep]
    b = b_full[keep]
    mrows = A.shape[0]

    if mrows == 0:
        # unconstrained: stationary point of the quadratic
        x = np.linalg.lstsq(P, -q, rcond=None)[0]
        if np.abs(P @ x + q).max(initial=0.0) > 1e-6 * max(1.0, np.abs(q).max(initial=0.0)):
            raise SolverError("problem is unbounded")
        return _finish(problem, x, "optimal", 0, 0.0, 0.0)

    Ps, qs, As, bs, d_scale, e_scale, cost_scale = _ruiz_equilibrate(P, q, A, b)

    lu, piv = scipy.linalg.lu_factor(_kkt(Ps, _SIGMA, As, -1.0 / _RHO, off=-0.0),
                                     check_finite=False)
    # LAPACK's getrs directly: scipy.linalg.lu_solve calls the same routine
    # but its per-call argument handling costs more than the solve itself
    getrs, = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))
    x = np.zeros(n)
    z = np.zeros(mrows)
    y = np.zeros(mrows)
    y_unscaled_prev = np.zeros(mrows)
    x_unscaled_prev = np.zeros(n)
    last_polish = -10**9
    q_max = float(np.abs(q).max(initial=0.0))
    scales = _Scales(*(max(1.0, float(np.abs(v).max(initial=0.0))) for v in (P, q, A, b)))

    status = "iteration-limit"
    iters_done = settings.max_iterations
    r_prim = r_dual = np.nan

    for it in range(1, settings.max_iterations + 1):
        rhs = np.concatenate([_SIGMA * x - qs, z - y / _RHO])
        sol, _ = getrs(lu, piv, rhs, overwrite_b=True)
        x_tilde = sol[:n]
        nu = sol[n:]
        z_tilde = z + (nu - y) / _RHO

        x_prev = x
        x = _ALPHA * x_tilde + (1 - _ALPHA) * x_prev
        z_relaxed = _ALPHA * z_tilde + (1 - _ALPHA) * z
        z_new = np.minimum(z_relaxed + y / _RHO, bs)
        y = y + _RHO * (z_relaxed - z_new)
        z = z_new

        if it % _CHECK_INTERVAL == 0 or it == settings.max_iterations:
            # unscaled iterates and residuals
            x_u = d_scale * x
            y_u = e_scale * y / cost_scale
            Ax = A @ x_u
            z_u = z / e_scale
            r_prim = float(np.abs(Ax - z_u).max(initial=0.0))
            r_dual = float(np.abs(P @ x_u + q + A.T @ y_u).max(initial=0.0))
            eps_prim = settings.abs_tol + settings.rel_tol * max(
                np.abs(Ax).max(initial=0.0), np.abs(z_u).max(initial=0.0))
            eps_dual = settings.abs_tol + settings.rel_tol * max(
                np.abs(P @ x_u).max(initial=0.0), q_max, np.abs(A.T @ y_u).max(initial=0.0))

            # opportunistic polish once the iterates are roughly converged;
            # the strict KKT verification inside _polish keeps this safe
            roughly = r_prim <= 1e-2 * scales.b and r_dual <= 1e4 * eps_dual
            if roughly and it - last_polish >= 100:
                last_polish = it
                polished = _polish(P, q, A, b, x_u, y_u, feas_tol, scales)
                if polished is not None:
                    x_final, y_final = polished
                    status, iters_done = "optimal", it
                    r_prim = float((A @ x_final - b).max(initial=0.0))
                    r_dual = float(np.abs(P @ x_final + q + A.T @ y_final).max(initial=0.0))
                    break

            if r_prim <= eps_prim and r_dual <= eps_dual:
                status, iters_done = "optimal", it
                x_final, y_final = x_u, y_u
                break

            # primal infeasibility certificate from the dual divergence direction
            dy = y_u - y_unscaled_prev
            dy_pos = np.maximum(dy, 0.0)
            dy_norm = float(np.abs(dy_pos).max(initial=0.0))
            if dy_norm > _INFEASIBILITY_TOL:
                if (np.abs(A.T @ dy_pos).max(initial=0.0) <= 1e-6 * dy_norm * scales.A
                        and float(b @ dy_pos) < -1e-8 * dy_norm * scales.b):
                    status, iters_done = "infeasible", it
                    x_final, y_final = x_u, y_u
                    break
            y_unscaled_prev = y_u

            # dual infeasibility (unbounded objective) is a builder bug
            dx = x_u - x_unscaled_prev
            dx_norm = float(np.abs(dx).max(initial=0.0))
            if dx_norm > _INFEASIBILITY_TOL:
                if (np.abs(P @ dx).max(initial=0.0) <= 1e-6 * dx_norm * scales.P
                        and float(q @ dx) < -1e-8 * dx_norm * scales.q
                        and (A @ dx).max(initial=0.0) <= 1e-6 * dx_norm * scales.A):
                    raise SolverError("objective is unbounded along a feasible ray")
            x_unscaled_prev = x_u

    else:
        x_final = d_scale * x
        y_final = e_scale * y / cost_scale

    if status == "iteration-limit":
        polished = _polish(P, q, A, b, x_final, y_final, feas_tol, scales)
        if polished is not None:
            x_final, _ = polished
            status = "optimal"
            r_prim = float((A @ x_final - b).max(initial=0.0))
            r_dual = 0.0

    return _finish(problem, x_final, status, iters_done, r_prim, r_dual)
