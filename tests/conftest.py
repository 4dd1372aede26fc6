"""Shared fixtures, independent oracle evaluators, and random generators.

The direct evaluators below are written straight from the min/max and
averaging definitions with explicit nested loops, deliberately sharing no
code with the package recursion they are used to check.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from stlmpc import (
    Always,
    And,
    Eventually,
    Not,
    Or,
    Pred,
    PredicateTable,
    SamplingGrid,
    Signal,
    Until,
    eval_bool,
)


# ---------------------------------------------------------------------------
# Two-tank plant


TANK_A = np.array([[0.79, 0.0], [0.176, 0.0296]])
TANK_B = np.array([[0.281], [0.0296]])


@pytest.fixture
def tank():
    from stlmpc import LtiSystem

    return LtiSystem(TANK_A, TANK_B, np.zeros(2), SamplingGrid(12.0))


# ---------------------------------------------------------------------------
# Direct-from-definition evaluators (independent oracles)


def omega_direct(a: float, b: float, T: float, k_max: int = 10_000) -> list[int]:
    return [k for k in range(k_max) if a - 1e-9 <= k * T <= b + 1e-9]


def sr_direct(z: np.ndarray, k: int, f, T: float) -> float:
    """Space robustness via explicit loops over the quantifier sets."""
    if isinstance(f, Pred):
        return float(z[k, f.pred_id])
    if isinstance(f, Not):
        return -sr_direct(z, k, f.child, T)
    if isinstance(f, And):
        return min(sr_direct(z, k, c, T) for c in f.children)
    if isinstance(f, Or):
        return max(sr_direct(z, k, c, T) for c in f.children)
    if isinstance(f, Always):
        vals = []
        for k1 in omega_direct(k * T + f.a, k * T + f.b, T):
            vals.append(sr_direct(z, k1, f.child, T))
        return min(vals)
    if isinstance(f, Eventually):
        vals = []
        for k1 in omega_direct(k * T + f.a, k * T + f.b, T):
            vals.append(sr_direct(z, k1, f.child, T))
        return max(vals)
    if isinstance(f, Until):
        best = -math.inf
        for k1 in omega_direct(k * T + f.a, k * T + f.b, T):
            inner = sr_direct(z, k1, f.right, T)
            for k2 in omega_direct(k * T, k1 * T, T):
                inner = min(inner, sr_direct(z, k2, f.left, T))
            best = max(best, inner)
        return best
    raise TypeError(f)


def dasr_direct(z: np.ndarray, k: int, f, T: float) -> float:
    """Average space robustness via explicit loops and running sums."""
    if isinstance(f, Pred):
        return float(z[k, f.pred_id])
    if isinstance(f, Not):
        return -dasr_direct(z, k, f.child, T)
    if isinstance(f, And):
        return min(dasr_direct(z, k, c, T) for c in f.children)
    if isinstance(f, Or):
        return max(dasr_direct(z, k, c, T) for c in f.children)
    if isinstance(f, Always):
        window = omega_direct(k * T + f.a, k * T + f.b, T)
        total = 0.0
        for k1 in window:
            total += dasr_direct(z, k1, f.child, T)
        return total / len(window)
    if isinstance(f, Eventually):
        vals = []
        for k1 in omega_direct(k * T + f.a, k * T + f.b, T):
            vals.append(dasr_direct(z, k1, f.child, T))
        return max(vals)
    if isinstance(f, Until):
        best = -math.inf
        for k1 in omega_direct(k * T + f.a, k * T + f.b, T):
            acc = 0.0
            count = 0
            for k2 in range(k, k1 + 1):
                acc += dasr_direct(z, k2, f.left, T)
                count += 1
            cand = 0.5 * (acc / count + dasr_direct(z, k1, f.right, T))
            best = max(best, cand)
        return best
    raise TypeError(f)


def bool_direct(z: np.ndarray, k: int, f, T: float) -> bool:
    if isinstance(f, Pred):
        return bool(z[k, f.pred_id] >= 0.0)
    if isinstance(f, Not):
        return not bool_direct(z, k, f.child, T)
    if isinstance(f, And):
        return all(bool_direct(z, k, c, T) for c in f.children)
    if isinstance(f, Or):
        return any(bool_direct(z, k, c, T) for c in f.children)
    if isinstance(f, Always):
        return all(bool_direct(z, k1, f.child, T)
                   for k1 in omega_direct(k * T + f.a, k * T + f.b, T))
    if isinstance(f, Eventually):
        return any(bool_direct(z, k1, f.child, T)
                   for k1 in omega_direct(k * T + f.a, k * T + f.b, T))
    if isinstance(f, Until):
        for k1 in omega_direct(k * T + f.a, k * T + f.b, T):
            if bool_direct(z, k1, f.right, T) and all(
                    bool_direct(z, k2, f.left, T) for k2 in range(k, k1 + 1)):
                return True
        return False
    raise TypeError(f)


# ---------------------------------------------------------------------------
# Random fragment generators (plain seeded random, grid T = 1)


def random_gamma(rng: random.Random, n_preds: int, allow_not: bool = True):
    p = Pred(rng.randrange(n_preds))
    if allow_not and rng.random() < 0.3:
        return Not(p)
    return p


def random_psi(rng: random.Random, n_preds: int, max_end: int = 4,
               allow_not: bool = True):
    kind = rng.choice(("until", "eventually", "always"))
    a = rng.randrange(0, max_end)
    b = rng.randrange(a, max_end + 1)
    if kind == "until":
        return Until(random_gamma(rng, n_preds, allow_not),
                     random_gamma(rng, n_preds, allow_not), float(a), float(b))
    if kind == "eventually":
        return Eventually(random_gamma(rng, n_preds, allow_not), float(a), float(b))
    return Always(random_gamma(rng, n_preds, allow_not), float(a), float(b))


def random_theta(rng: random.Random, n_preds: int, max_end: int = 4,
                 max_conjuncts: int = 3, allow_not: bool = True):
    n = rng.randrange(1, max_conjuncts + 1)
    parts = [random_psi(rng, n_preds, max_end, allow_not) for _ in range(n)]
    if n == 1:
        return parts[0]
    return And(tuple(parts)) if rng.random() < 0.7 else Or(tuple(parts))


def random_signal(rng: random.Random, length: int, n_states: int = 1,
                  lo: float = -3.0, hi: float = 3.0) -> Signal:
    data = [[rng.uniform(lo, hi) for _ in range(n_states)] for _ in range(length)]
    return Signal(np.array(data), SamplingGrid(1.0))


def random_pred_table(rng: random.Random, n_preds: int, n_states: int) -> PredicateTable:
    rows = [[rng.uniform(-1.5, 1.5) for _ in range(n_states)] for _ in range(n_preds)]
    offsets = [rng.uniform(-1.0, 1.0) for _ in range(n_preds)]
    return PredicateTable(rows, offsets)


# ---------------------------------------------------------------------------
# Independent QP oracle: quadratic penalty + accelerated gradient descent


def projected_gradient_oracle(P: np.ndarray, q: np.ndarray, A: np.ndarray,
                              b: np.ndarray, iterations: int = 200_000) -> np.ndarray:
    """Brute-force argmin 1/2 x'Px + q'x s.t. Ax <= b for strictly convex P.

    Projected gradient ascent on the dual: the multipliers of the
    inequalities live on the nonnegative orthant, where projection is a
    clip, and the primal point is recovered in closed form.  Deliberately
    shares nothing with the operator-splitting solver it is used to check.
    """
    P_inv = np.linalg.inv(P)
    M = A @ P_inv @ A.T
    # step from the largest eigenvalue of the dual Hessian (power iteration)
    v = np.ones(M.shape[0]) / math.sqrt(M.shape[0])
    for _ in range(100):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v = w / nw
    L = max(float(v @ (M @ v)), 1e-12)
    step = 1.0 / L
    y = np.zeros(A.shape[0])
    t = 1.0
    y_prev = y.copy()
    for it in range(iterations):
        # Nesterov momentum with restart on gradient sign reversal
        mom = y + ((t - 1.0) / (0.5 * (1 + math.sqrt(1 + 4 * t * t)))) * (y - y_prev)
        grad = -(A @ (P_inv @ (q + A.T @ mom))) - b
        y_next = np.maximum(mom + step * grad, 0.0)
        if np.dot(grad, y_next - y) < 0:
            t = 1.0
            mom = y
            grad = -(A @ (P_inv @ (q + A.T @ mom))) - b
            y_next = np.maximum(mom + step * grad, 0.0)
        y_prev, y = y, y_next
        t = 0.5 * (1 + math.sqrt(1 + 4 * t * t))
        if it % 500 == 0 and np.abs(y - y_prev).max(initial=0.0) <= 1e-14 * max(
                1.0, np.abs(y).max(initial=0.0)):
            break
    return -P_inv @ (q + A.T @ y)


def rollout(A: np.ndarray, B: np.ndarray, x0: np.ndarray, u_st: np.ndarray,
            grid: SamplingGrid) -> Signal:
    """Simulate the plant recursion for stacked inputs (one row per step)."""
    u = np.atleast_2d(u_st)
    states = [np.asarray(x0, dtype=float)]
    for k in range(u.shape[0]):
        states.append(A @ states[-1] + B @ u[k])
    return Signal(np.array(states), grid)


def check_plan(p, theta, table: PredicateTable, full: Signal, k0: int, margin: float) -> bool:
    """Assert what a plan that solved ``p``, the problem of step k0, guarantees.

    ``full`` is the rollout of the recorded inputs and the plan.  Every
    satisfaction row is a sample after k0 and is at least ``margin`` after
    rollout, to the rounding by which the rollout and the prediction
    differ.  When the recorded samples the formula weighs also meet their
    predicates, the formula holds at every anchor.  Returns whether they do.
    """
    z = table.z(full.states)
    for pid, k in p.stl_row_info.values():
        assert k > k0 and z[k, pid] >= margin - 1e-12
    E, z_const = p.debug["E"], p.debug["z_const"]
    n_past = (k0 + 1 - p.debug["t_lo"]) * table.size
    if np.any(z_const[:n_past][E[:, :n_past].any(axis=0)] < 0):
        return False
    for kk in p.debug["anchors"]:
        assert eval_bool(full, kk, theta, table) is True
    return True
