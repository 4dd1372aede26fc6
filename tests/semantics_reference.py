"""Time-recursive reference evaluators for the robustness readouts.

These evaluate a formula by recursion over the formula tree *and* over time:
every (node, anchor) visit re-evaluates its subtree, exactly as the
definitions read.  They are the oracle the array-at-a-time evaluators in
:mod:`stlmpc.semantics` must reproduce bit for bit, including error types and
texts.

Every sum is an explicit left-to-right ``acc += v`` loop from ``0.0``.
Python 3.12 and later compute ``sum()`` of floats with compensated
(Neumaier) summation, which would make the oracle itself differ between
interpreter versions.
"""

from __future__ import annotations

import math

from stlmpc.semantics import Signal, SignalTooShortError
from stlmpc.stl import (
    AllTime,
    Always,
    And,
    EmptyWindowError,
    Eventually,
    Formula,
    Not,
    OneTime,
    Or,
    Pred,
    PredicateTable,
    SamplingGrid,
    TrueNode,
    Until,
    discrete_length,
    event_index,
    iter_nodes,
    omega,
    predicate_ids,
)


def _window(node, k: int, grid: SamplingGrid) -> range:
    base = omega(node.a, node.b, grid)
    if len(base) == 0:
        raise EmptyWindowError(
            f"interval [{node.a}, {node.b}] contains no multiple of T={grid.T}")
    return range(k + base.start, k + base.stop)


def _check_horizon(sig: Signal, k: int, f: Formula) -> None:
    if k < 0:
        raise ValueError(f"negative evaluation index {k}")
    if isinstance(f, AllTime):
        need = discrete_length(f.child, sig.grid)
    elif isinstance(f, OneTime):
        need = event_index(f, sig.grid) - k + discrete_length(f.child, sig.grid)
    else:
        need = discrete_length(f, sig.grid)
    if k + need > sig.last_index:
        raise SignalTooShortError(
            f"evaluating at k={k} needs samples up to k={k + need}, "
            f"signal ends at k={sig.last_index}")


def _op_paths(f: Formula) -> dict[tuple, int]:
    table: dict[tuple, int] = {}
    counter = 0

    def walk(g: Formula, path: tuple) -> None:
        nonlocal counter
        if isinstance(g, (Until, Eventually)):
            table[path] = counter
            counter += 1
        if isinstance(g, (Not, Eventually, Always, AllTime, OneTime)):
            walk(g.child, path + (0,))
        elif isinstance(g, (And, Or)):
            for i, ch in enumerate(g.children):
                walk(ch, path + (i,))
        elif isinstance(g, Until):
            walk(g.left, path + (0,))
            walk(g.right, path + (1,))

    walk(f, ())
    return table


def _mean(values, count: int) -> float:
    acc = 0.0
    for v in values:
        acc += v
    return acc / count


def eval_bool(sig: Signal, k: int, f: Formula, table: PredicateTable) -> bool:
    _check_horizon(sig, k, f)
    z = sig.predicate_values(table)
    grid = sig.grid

    def rec(g: Formula, kk: int) -> bool:
        if isinstance(g, TrueNode):
            return True
        if isinstance(g, Pred):
            return z[kk, g.pred_id] >= 0.0
        if isinstance(g, Not):
            return not rec(g.child, kk)
        if isinstance(g, And):
            return all(rec(ch, kk) for ch in g.children)
        if isinstance(g, Or):
            return any(rec(ch, kk) for ch in g.children)
        if isinstance(g, Until):
            for k1 in _window(g, kk, grid):
                if rec(g.right, k1) and all(rec(g.left, k2) for k2 in range(kk, k1 + 1)):
                    return True
            return False
        if isinstance(g, Eventually):
            return any(rec(g.child, k1) for k1 in _window(g, kk, grid))
        if isinstance(g, Always):
            return all(rec(g.child, k1) for k1 in _window(g, kk, grid))
        raise TypeError(f"not a formula node: {g!r}")

    if isinstance(f, AllTime):
        hd = discrete_length(f.child, grid)
        return all(rec(f.child, kk) for kk in range(k, sig.last_index - hd + 1))
    if isinstance(f, OneTime):
        ke = event_index(f, grid)
        if ke < k:
            raise ValueError(f"event index {ke} lies before evaluation index {k}")
        return rec(f.child, ke)
    return rec(f, k)


def eval_sr(sig: Signal, k: int, f: Formula, table: PredicateTable) -> float:
    _check_horizon(sig, k, f)
    z = sig.predicate_values(table)
    grid = sig.grid

    def rec(g: Formula, kk: int) -> float:
        if isinstance(g, TrueNode):
            return math.inf
        if isinstance(g, Pred):
            return float(z[kk, g.pred_id])
        if isinstance(g, Not):
            return -rec(g.child, kk)
        if isinstance(g, And):
            return min(rec(ch, kk) for ch in g.children)
        if isinstance(g, Or):
            return max(rec(ch, kk) for ch in g.children)
        if isinstance(g, Until):
            best = -math.inf
            for k1 in _window(g, kk, grid):
                cand = min(rec(g.right, k1),
                           min(rec(g.left, k2) for k2 in range(kk, k1 + 1)))
                best = max(best, cand)
            return best
        if isinstance(g, Eventually):
            return max(rec(g.child, k1) for k1 in _window(g, kk, grid))
        if isinstance(g, Always):
            return min(rec(g.child, k1) for k1 in _window(g, kk, grid))
        raise TypeError(f"not a formula node: {g!r}")

    if isinstance(f, AllTime):
        hd = discrete_length(f.child, grid)
        return min(rec(f.child, kk) for kk in range(k, sig.last_index - hd + 1))
    if isinstance(f, OneTime):
        return rec(f.child, event_index(f, grid))
    return rec(f, k)


def eval_dasr(sig: Signal, k: int, f: Formula, table: PredicateTable) -> float:
    _check_horizon(sig, k, f)
    z = sig.predicate_values(table)
    grid = sig.grid

    def rec(g: Formula, kk: int) -> float:
        if isinstance(g, TrueNode):
            return math.inf
        if isinstance(g, Pred):
            return float(z[kk, g.pred_id])
        if isinstance(g, Not):
            return -rec(g.child, kk)
        if isinstance(g, And):
            return min(rec(ch, kk) for ch in g.children)
        if isinstance(g, Or):
            return max(rec(ch, kk) for ch in g.children)
        if isinstance(g, Until):
            best = -math.inf
            for k1 in _window(g, kk, grid):
                left_avg = _mean((rec(g.left, k2) for k2 in range(kk, k1 + 1)), k1 - kk + 1)
                best = max(best, 0.5 * (left_avg + rec(g.right, k1)))
            return best
        if isinstance(g, Eventually):
            return max(rec(g.child, k1) for k1 in _window(g, kk, grid))
        if isinstance(g, Always):
            win = _window(g, kk, grid)
            return _mean((rec(g.child, k1) for k1 in win), len(win))
        raise TypeError(f"not a formula node: {g!r}")

    if isinstance(f, AllTime):
        hd = discrete_length(f.child, grid)
        anchors = range(k, sig.last_index - hd + 1)
        return _mean((rec(f.child, kk) for kk in anchors), len(anchors))
    if isinstance(f, OneTime):
        return rec(f.child, event_index(f, grid))
    return rec(f, k)


def eval_dsasr(sig: Signal, k: int, f: Formula, table: PredicateTable, schedule) -> float:
    _check_horizon(sig, k, f)
    z = sig.predicate_values(table)
    grid = sig.grid
    paths = _op_paths(f)
    k1_of = schedule.k1_at if hasattr(schedule, "k1_at") else schedule
    if k1_of is None and paths:
        raise ValueError("formula contains eventually/until operators but no schedule given")

    def pick_k1(g, kk: int, path: tuple) -> int:
        k1 = int(k1_of(paths[path], kk))
        win = _window(g, kk, grid)
        if not (win.start <= k1 < win.stop):
            raise ValueError(
                f"scheduled k1={k1} outside window {list(win)} of operator at {path}")
        return k1

    def rec(g: Formula, kk: int, path: tuple) -> float:
        if isinstance(g, TrueNode):
            return math.inf
        if isinstance(g, Pred):
            return float(z[kk, g.pred_id])
        if isinstance(g, Not):
            return -rec(g.child, kk, path + (0,))
        if isinstance(g, And):
            return min(rec(ch, kk, path + (i,)) for i, ch in enumerate(g.children))
        if isinstance(g, Or):
            return max(rec(ch, kk, path + (i,)) for i, ch in enumerate(g.children))
        if isinstance(g, Until):
            k1 = pick_k1(g, kk, path)
            left_avg = _mean((rec(g.left, k2, path + (0,)) for k2 in range(kk, k1 + 1)),
                             k1 - kk + 1)
            return 0.5 * (left_avg + rec(g.right, k1, path + (1,)))
        if isinstance(g, Eventually):
            k1 = pick_k1(g, kk, path)
            return rec(g.child, k1, path + (0,))
        if isinstance(g, Always):
            win = _window(g, kk, grid)
            return _mean((rec(g.child, k1, path + (0,)) for k1 in win), len(win))
        raise TypeError(f"not a formula node: {g!r}")

    if isinstance(f, AllTime):
        hd = discrete_length(f.child, grid)
        anchors = range(k, sig.last_index - hd + 1)
        return _mean((rec(f.child, kk, (0,)) for kk in anchors), len(anchors))
    if isinstance(f, OneTime):
        return rec(f.child, event_index(f, grid), (0,))
    return rec(f, k, ())


def domain_of_influence(f: Formula, k: int, pred_id: int, grid: SamplingGrid,
                        horizon: int | None = None) -> tuple[int, ...]:
    if pred_id not in predicate_ids(f):
        raise ValueError(f"predicate id {pred_id} does not occur in the formula")

    def rec(g: Formula, kk: int) -> set[int]:
        if isinstance(g, TrueNode):
            return set()
        if isinstance(g, Pred):
            return {kk} if g.pred_id == pred_id else set()
        if isinstance(g, Not):
            return rec(g.child, kk)
        if isinstance(g, (And, Or)):
            out: set[int] = set()
            for ch in g.children:
                out |= rec(ch, kk)
            return out
        if isinstance(g, Until):
            win = _window(g, kk, grid)
            out = set()
            for k2 in range(kk, win[-1] + 1):
                out |= rec(g.left, k2)
            for k1 in win:
                out |= rec(g.right, k1)
            return out
        if isinstance(g, (Eventually, Always)):
            out = set()
            for k1 in _window(g, kk, grid):
                out |= rec(g.child, k1)
            return out
        raise TypeError(f"not a formula node: {g!r}")

    if isinstance(f, AllTime):
        if horizon is None:
            raise ValueError("all-time formulas need an explicit horizon")
        hd = discrete_length(f.child, grid)
        out: set[int] = set()
        for kk in range(k, horizon - hd + 1):
            out |= rec(f.child, kk)
        return tuple(sorted(d for d in out if d <= horizon))
    if isinstance(f, OneTime):
        return tuple(sorted(rec(f.child, event_index(f, grid))))
    return tuple(sorted(rec(f, k)))


def prd(sig: Signal, f: Formula, k: int, table: PredicateTable,
        grid: SamplingGrid | None = None) -> float:
    grid = grid or sig.grid
    if any(isinstance(node, Not) for node in iter_nodes(f)):
        raise ValueError("predicate robustness degree needs a negation-free formula; "
                         "rewrite with to_pnf() first")
    satisfied = eval_bool(sig, k, f, table)
    z = sig.predicate_values(table)
    total = 0.0
    for pid in predicate_ids(f):
        domain = domain_of_influence(f, k, pid, grid, horizon=sig.last_index)
        for kk in domain:
            v = float(z[kk, pid])
            if satisfied and v >= 0.0:
                total += v
            elif not satisfied and v < 0.0:
                total += v
    return total


def robustness_degree_axis(sig: Signal, f: Formula, k: int, table: PredicateTable,
                           grid: SamplingGrid | None = None) -> float:
    grid = grid or sig.grid

    def gather(g: Formula, kk: int) -> list[tuple[int, int]]:
        if isinstance(g, Pred):
            return [(g.pred_id, kk)]
        if isinstance(g, And):
            out: list[tuple[int, int]] = []
            for ch in g.children:
                out.extend(gather(ch, kk))
            return out
        if isinstance(g, Always):
            if not isinstance(g.child, Pred):
                raise ValueError("unsupported: always-operator over a non-predicate")
            return [(g.child.pred_id, k1) for k1 in _window(g, kk, grid)]
        raise ValueError(
            f"unsupported formula shape for the axis-aligned robustness degree: {type(g).__name__}")

    if isinstance(f, OneTime):
        pairs = gather(f.child, event_index(f, grid))
    elif isinstance(f, AllTime):
        hd = discrete_length(f.child, grid)
        pairs = []
        for kk in range(k, sig.last_index - hd + 1):
            pairs.extend(gather(f.child, kk))
    else:
        pairs = gather(f, k)

    for pid in {p for p, _ in pairs}:
        if table.unit_axis(pid) is None:
            raise ValueError(f"predicate {table.names[pid]!r} is not axis-aligned with unit normal")

    z = sig.predicate_values(table)
    return min(float(z[kk, pid]) for pid, kk in pairs)
