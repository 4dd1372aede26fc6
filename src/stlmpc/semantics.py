"""Boolean and quantitative semantics over finite discrete-time signals.

Five readouts are provided:

* :func:`eval_bool`   -- boolean satisfaction,
* :func:`eval_sr`     -- space robustness (min/max recursion),
* :func:`eval_dasr`   -- average space robustness (always-windows and the
  until left operand are averaged instead of minimized),
* :func:`eval_dsasr`  -- the scheduled variant where each eventually/until
  witness instant is fixed up front instead of maximized over,
* :func:`prd`         -- sum of same-sign predicate margins over each
  predicate's domain of influence.

Evaluation is array-at-a-time, by one recursive evaluator for every
readout but prd.  The recursion runs over the formula tree, not over time:
each node is evaluated once, as a numpy array over every anchor (evaluation
step) it is needed at.  A temporal window becomes one vector operation per
window offset, folded into an array the fold owns (never into a child's
values), and an until keeps a running prefix of its left operand that is
combined with the right operand at each offset of the window.

The readouts differ only in how that evaluator maps the operators onto
array operations.  dsasr is dasr with each eventually/until witness fixed
up front by the schedule, so an eventually or until reads its children at
each anchor's witness: its child or right operand over the steps from the
first witness to the last, its left operand's means from the left-to-right
window sums over the steps from the first anchor to the last witness.

The results are bit-identical to applying the definitions one anchor at a
time with Python floats:

* min/max folds keep the first of equal operands, as Python's ``min`` and
  ``max`` do (``np.copyto(acc, v, where=v < acc)``); this decides the sign
  of a zero result and which NaN survives;
* every mean is accumulated left to right, one term at a time, starting
  from ``0.0`` (so a leading -0.0 becomes +0.0), never pairwise.

All functions are pure and operate on immutable inputs.  A signal keeps
the predicate matrix of each table it is evaluated against, so the
readouts of one signal compute it once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from .scheduling import Schedule, k1_many
from .stl import (
    AllTime,
    Always,
    And,
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
    predicate_ids,
    sampled_window,
    subformulas,
)

__all__ = [
    "Signal",
    "RobustnessReadout",
    "SignalTooShortError",
    "eval_bool",
    "eval_sr",
    "eval_dasr",
    "eval_dsasr",
    "domain_of_influence",
    "prd",
    "robustness_degree_axis",
]


class SignalTooShortError(ValueError):
    """The signal does not cover the formula's evaluation horizon."""


@dataclass(frozen=True)
class Signal:
    """Finite state trajectory x(0..K) on a uniform sampling grid."""

    states: np.ndarray
    grid: SamplingGrid
    # predicate matrix per table, by identity; the table is kept alive with
    # it so that its id cannot be reused
    _z: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.atleast_2d(np.asarray(self.states, dtype=float))
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    @property
    def last_index(self) -> int:
        return self.states.shape[0] - 1

    def predicate_values(self, table: PredicateTable) -> np.ndarray:
        """(K+1, N_mu) matrix of predicate function values, read-only.

        Computed at the first call for a table and returned again for it:
        the signal and the table are immutable, so it cannot go stale.
        """
        kept = self._z.get(id(table))
        if kept is None:
            z = table.z(self.states)
            z.setflags(write=False)
            kept = self._z[id(table)] = (table, z)
        return kept[1]


@dataclass(frozen=True)
class RobustnessReadout:
    """Bundle of robustness queries against one signal/formula pair."""

    satisfied: bool | None = None
    sr: float | None = None
    dasr: float | None = None
    dsasr: float | None = None
    prd: float | None = None
    rd: float | None = None


K1Provider = Union[Schedule, Callable[[int, int], int]]


def _root(f: Formula, k: int, last: int | None, grid: SamplingGrid) -> tuple[Formula, int, int]:
    """Unwrapped formula, first anchor and anchor count of an evaluation at k >= 0.

    All-time wrappers are anchored at every step from k on whose evaluation window
    ends by ``last``; one-time wrappers at their event instant, which must not precede k.
    """
    if k < 0:
        raise ValueError(f"negative evaluation index {k}")
    if isinstance(f, AllTime):
        return f.child, k, last - discrete_length(f.child, grid) + 1 - k
    if isinstance(f, OneTime):
        ke = event_index(f, grid)
        if ke < k:
            raise ValueError(f"event index {ke} lies before evaluation index {k}")
        return f.child, ke, 1
    return f, k, 1


def _anchors(f: Formula, k: int, last: int, grid: SamplingGrid) -> tuple[Formula, int, int]:
    """:func:`_root` of an evaluation at k, checked to read no step after ``last``."""
    g, lo, n = _root(f, k, last, grid)
    reach = lo + discrete_length(g, grid)
    if reach > last:
        raise SignalTooShortError(
            f"evaluating at k={k} needs samples up to k={reach}, signal ends at k={last}")
    return g, lo, n


def _op_paths(f: Formula) -> dict[tuple, int]:
    """Document-order index of every eventually/until position."""
    def walk(g: Formula, path: tuple):
        if isinstance(g, (Until, Eventually)):
            yield path
        for i, ch in enumerate(subformulas(g)):
            yield from walk(ch, path + (i,))

    return {path: op for op, path in enumerate(walk(f, ()))}


# ---------------------------------------------------------------------------
# Folds with Python's operand order


def _min(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise ``min(a, b)``, a unless b is strictly smaller; into ``out``
    (which may be a) if given, as a ufunc would."""
    if out is None:
        return np.where(b < a, b, a)
    if out is not a:
        np.copyto(out, a)
    np.copyto(out, b, where=b < a)
    return out


def _max(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise ``max(a, b)``, a unless b is strictly larger; into ``out``
    (which may be a) if given, as a ufunc would."""
    if out is None:
        return np.where(b > a, b, a)
    if out is not a:
        np.copyto(out, a)
    np.copyto(out, b, where=b > a)
    return out


def _first_min(v: np.ndarray) -> float:
    """``min(v)`` over a 1-D array in order: a leading NaN sticks, later NaNs
    are skipped, and of equal minima (+0.0 and -0.0) the first is kept."""
    i = int(np.argmin(v))       # the first minimum, or the first NaN
    if i and v[i] != v[i]:
        i = int(np.argmax(v == np.fmin.reduce(v)))
    return float(v[i])


def _sum(parts) -> float:
    """Left-to-right sum of the arrays' elements, starting from 0.0."""
    return float(np.cumsum(np.concatenate(([0.0], *parts)))[-1])


def _window_mean(v: np.ndarray, n: int, width: int) -> np.ndarray:
    """Left-to-right mean from 0.0 of each v[p .. p+width-1], for p < n."""
    total = 0.0 + v[:n]
    for j in range(1, width):
        total += v[j:j + n]
    total /= width
    return total


def _window_sums(v: np.ndarray, width: int) -> np.ndarray:
    """(width, v.size) array whose [j, p] is the left-to-right sum from 0.0 of
    v[p .. p+j], for every p + j < v.size (the other entries are unset)."""
    m = v.size
    sums = np.empty((width, m))
    np.add(0.0, v, out=sums[0])
    for j in range(1, width):
        np.add(sums[j - 1, :m - j], v[j:], out=sums[j, :m - j])
    return sums


def _column(z: np.ndarray, pred_id: int, lo: int, n: int) -> np.ndarray:
    """Predicate values at steps lo .. lo+n-1."""
    if lo + n > z.shape[0]:
        raise IndexError(f"index {z.shape[0]} is out of bounds for axis 0 with size {z.shape[0]}")
    return z[lo:lo + n, pred_id]


# ---------------------------------------------------------------------------
# Boolean satisfaction, space robustness and average space robustness


class _Semantics(NamedTuple):
    """How one readout maps the operators onto array operations."""

    leaf: Callable[[np.ndarray], np.ndarray]    # predicate values -> node values
    neg: Callable[[np.ndarray], np.ndarray]
    meet: Callable[..., np.ndarray]     # and, always: meet(a, b[, out]) like a ufunc
    join: Callable[..., np.ndarray]     # or, eventually, until
    top: bool | float       # value of true
    bottom: bool | float    # value of an until before any witness
    averaged: bool          # always-windows and until left operands use means
    witness: Callable[..., np.ndarray] | None = None    # dsasr: (g, lo, n, path) -> k1


_BOOL = _Semantics(lambda z: z >= 0.0, np.logical_not, np.logical_and, np.logical_or,
                   True, False, False)
_SR = _Semantics(lambda z: z, np.negative, _min, _max, math.inf, -math.inf, False)
_DASR = _SR._replace(averaged=True)


def _eval(g: Formula, lo: int, n: int, z: np.ndarray, grid: SamplingGrid,
          sem: _Semantics, path: tuple = ()) -> np.ndarray:
    """Values of g, the node at ``path`` in the formula, at the anchors lo .. lo+n-1.

    Under fixed witnesses (``sem.witness``, set for dsasr only) an
    eventually or until reads its children at each anchor's witness instead
    of folding over its window.

    Children are evaluated in the order the definitions visit them, so the
    first malformed node raises the same error a time recursion would.  A
    window fold accumulates into an array of its own, never into a child's
    values (a predicate's values are a view of z).
    """
    if isinstance(g, TrueNode):
        return np.full(n, sem.top)
    if isinstance(g, Pred):
        return sem.leaf(_column(z, g.pred_id, lo, n))
    if isinstance(g, Not):
        return sem.neg(_eval(g.child, lo, n, z, grid, sem, path + (0,)))
    if isinstance(g, (And, Or)):
        fold = sem.meet if isinstance(g, And) else sem.join
        acc = _eval(g.children[0], lo, n, z, grid, sem, path + (0,))
        for i, ch in enumerate(g.children[1:], 1):
            acc = fold(acc, _eval(ch, lo, n, z, grid, sem, path + (i,)))
        return acc
    if sem.witness is not None and isinstance(g, (Eventually, Until)):
        k1 = sem.witness(g, lo, n, path)
        first, last = int(k1.min()), int(k1.max())
        if isinstance(g, Eventually):
            child = _eval(g.child, first, last - first + 1, z, grid, sem, path + (0,))
            return child[k1 - first]
        # until: mean of the left operand from the anchor to the witness, read
        # from the left-to-right sums over the span from the first anchor on
        steps = k1 - np.arange(lo, lo + n)
        left = _eval(g.left, lo, last - lo + 1, z, grid, sem, path + (0,))
        held = _window_sums(left, int(steps.max()) + 1)[steps, np.arange(n)]
        right = _eval(g.right, first, last - first + 1, z, grid, sem, path + (1,))
        return 0.5 * (held / (steps + 1) + right[k1 - first])
    if isinstance(g, Until):
        win = sampled_window(g.a, g.b, grid)
        span = n + win[-1] - win.start
        if sem.averaged:
            left = _eval(g.left, lo, n + win[-1], z, grid, sem, path + (0,))
            right = _eval(g.right, lo + win.start, span, z, grid, sem, path + (1,))
            held = 0.0 + left[:n]
        else:
            right = _eval(g.right, lo + win.start, span, z, grid, sem, path + (1,))
            left = _eval(g.left, lo, n + win[-1], z, grid, sem, path + (0,))
            held = left[:n].copy()
        best = np.full(n, sem.bottom)
        cand = np.empty_like(best)
        for j in range(win.stop):
            if j:
                if sem.averaged:
                    held += left[j:j + n]
                else:
                    sem.meet(held, left[j:j + n], out=held)
            if j >= win.start:
                r = right[j - win.start:j - win.start + n]
                if sem.averaged:
                    np.divide(held, j + 1, out=cand)
                    np.add(cand, r, out=cand)
                    np.multiply(0.5, cand, out=cand)
                else:
                    sem.meet(r, held, out=cand)
                sem.join(best, cand, out=best)
        return best
    if isinstance(g, (Eventually, Always)):
        win = sampled_window(g.a, g.b, grid)
        child = _eval(g.child, lo + win.start, n + win[-1] - win.start, z, grid, sem,
                      path + (0,))
        if isinstance(g, Always) and sem.averaged:
            return _window_mean(child, n, len(win))
        fold = sem.join if isinstance(g, Eventually) else sem.meet
        acc = child[:n].copy()
        for j in range(1, len(win)):
            fold(acc, child[j:j + n], out=acc)
        return acc
    raise TypeError(f"not a formula node: {g!r}")


def _values(sig: Signal, k: int, f: Formula, table: PredicateTable, sem: _Semantics) -> np.ndarray:
    """Values of f's unwrapped formula at every anchor of an evaluation at k."""
    g, lo, n = _anchors(f, k, sig.last_index, sig.grid)
    return _eval(g, lo, n, sig.predicate_values(table), sig.grid, sem, (0,) if g is not f else ())


def _average(sig: Signal, k: int, f: Formula, table: PredicateTable, sem: _Semantics) -> float:
    """Mean of the values over an all-time formula's anchors, else the one value."""
    with np.errstate(all="ignore"):
        vals = _values(sig, k, f, table, sem)
        return _sum([vals]) / vals.size if isinstance(f, AllTime) else float(vals[0])


def eval_bool(sig: Signal, k: int, f: Formula, table: PredicateTable) -> bool:
    """Satisfaction of f by the signal at step k.

    All-time wrappers are checked at every step from k on whose evaluation
    window the signal still covers; one-time wrappers at the event instant.
    Every readout raises ``ValueError`` for a negative k, then for a one-time
    event before k, then :class:`SignalTooShortError` for a signal that ends
    before the formula's reach.  Every node is evaluated, so an empty window
    or a node that is not a formula raises even where and/or would not reach
    it (:func:`~stlmpc.stl.validate_windows` rejects such formulas up front).
    """
    return bool(_values(sig, k, f, table, _BOOL).all())


def eval_sr(sig: Signal, k: int, f: Formula, table: PredicateTable) -> float:
    """Min/max quantitative semantics, anchored and checked like :func:`eval_bool`;
    positive values certify satisfaction."""
    return _first_min(_values(sig, k, f, table, _SR))


def eval_dasr(sig: Signal, k: int, f: Formula, table: PredicateTable) -> float:
    """Averaged semantics, anchored and checked like :func:`eval_bool`:
    always-windows and until left operands use means."""
    return _average(sig, k, f, table, _DASR)


# ---------------------------------------------------------------------------
# Scheduled average space robustness


def _witnesses(grid: SamplingGrid, schedule: K1Provider, paths: dict[tuple, int],
               g: Eventually | Until, lo: int, n: int, path: tuple) -> np.ndarray:
    """Witness instants of the node g at ``path`` (operator ``paths[path]``)
    at the anchors lo .. lo+n-1, each checked to lie in g's window at its anchor."""
    op = paths[path]
    anchors = np.arange(lo, lo + n)
    if isinstance(schedule, Schedule):
        k1 = k1_many(schedule, op, anchors)
    else:
        k1 = np.array([int(schedule(op, kk)) for kk in range(lo, lo + n)], dtype=np.int64)
    win = sampled_window(g.a, g.b, grid)
    outside = np.flatnonzero((k1 < anchors + win.start) | (k1 > anchors + win[-1]))
    if outside.size:
        i = int(outside[0])
        raise ValueError(f"scheduled k1={int(k1[i])} outside window "
                         f"{list(range(lo + i + win.start, lo + i + win.stop))} "
                         f"of operator at {path}")
    return k1


def _dsasr(grid: SamplingGrid, schedule: K1Provider, paths: dict[tuple, int]) -> _Semantics:
    """dasr with every eventually/until witness read from the schedule."""
    return _DASR._replace(witness=functools.partial(_witnesses, grid, schedule, paths))


def eval_dsasr(sig: Signal, k: int, f: Formula, table: PredicateTable,
               schedule: K1Provider | None) -> float:
    """Averaged semantics with fixed witness instants.

    ``schedule`` is either a :class:`~stlmpc.scheduling.Schedule` or a
    callable ``(op_index, k) -> k1`` where op_index enumerates the formula's
    eventually/until positions in document order.  Each supplied k1 must lie
    in the operator's window anchored at the evaluation step.  A missing
    schedule raises first, then the anchors are checked like :func:`eval_bool`'s.

    Each node is evaluated once, over the contiguous span of anchors its
    parent reads, so a callable is consulted once at every anchor of each
    eventually/until's span, in order.  That is every (operator, step) pair
    the definitions visit, and more below an eventually or an until's right
    operand, whose spans run from the first witness to the last.  Of several
    errors, the one raised is that of the first failing node in document
    order (a node before its children), at its first failing anchor; a
    node's own witnesses are all consulted before any is checked against
    its window.
    """
    paths = _op_paths(f)
    if schedule is None and paths:
        raise ValueError("formula contains eventually/until operators but no schedule given")
    return _average(sig, k, f, table, _dsasr(sig.grid, schedule, paths))


# ---------------------------------------------------------------------------
# Domains of influence and predicate robustness degree


def _exposure(g: Formula, lo: int, hi: int, grid: SamplingGrid,
              out: dict[int, list[tuple[int, int]]]) -> None:
    """Add to ``out[pred_id]`` the step ranges at which each predicate is read
    when g is evaluated at anchors lo..hi; windows dilate the anchor range."""
    if isinstance(g, Pred):
        out.setdefault(g.pred_id, []).append((lo, hi))
    elif isinstance(g, Until):
        win = sampled_window(g.a, g.b, grid)
        _exposure(g.left, lo, hi + win[-1], grid, out)
        _exposure(g.right, lo + win.start, hi + win[-1], grid, out)
    elif isinstance(g, (Eventually, Always)):
        win = sampled_window(g.a, g.b, grid)
        _exposure(g.child, lo + win.start, hi + win[-1], grid, out)
    elif isinstance(g, (AllTime, OneTime)):
        raise TypeError(f"not a formula node: {g!r}")
    else:
        for ch in subformulas(g):
            _exposure(ch, lo, hi, grid, out)


def _domains(f: Formula, k: int, grid: SamplingGrid,
             horizon: int | None) -> dict[int, np.ndarray]:
    """Sorted domain of influence of every predicate of f at step k."""
    if isinstance(f, AllTime) and horizon is None:
        raise ValueError("all-time formulas need an explicit horizon")
    g, lo, n = _root(f, k, horizon, grid)
    if n <= 0:
        return {}
    spans: dict[int, list[tuple[int, int]]] = {}
    _exposure(g, lo, lo + n - 1, grid, spans)
    out = {}
    for pid, ranges in spans.items():
        first = min(a for a, _ in ranges)
        last = max(b for _, b in ranges)
        if isinstance(f, AllTime):
            last = min(last, horizon)
        mask = np.zeros(max(last - first + 1, 0), dtype=bool)
        for a, b in ranges:
            mask[a - first:b - first + 1] = True
        out[pid] = np.flatnonzero(mask) + first
    return out


def domain_of_influence(f: Formula, k: int, pred_id: int, grid: SamplingGrid,
                        horizon: int | None = None) -> tuple[int, ...]:
    """Steps at which predicate ``pred_id`` can affect satisfaction at step k.

    Computed structurally from the operator windows: always/eventually expose
    their whole window, the until left operand is exposed from the anchor to
    the window end, and boolean connectives take unions.  ``horizon`` (the
    last signal index) is required for all-time formulas.  The anchors are
    checked like :func:`eval_bool`'s, the horizon standing for the signal's end.
    """
    if pred_id not in predicate_ids(f):
        raise ValueError(f"predicate id {pred_id} does not occur in the formula")
    if horizon is not None:
        _anchors(f, k, horizon, grid)
    domain = _domains(f, k, grid, horizon).get(pred_id)
    return () if domain is None else tuple(domain.tolist())


def prd(sig: Signal, f: Formula, k: int, table: PredicateTable,
        grid: SamplingGrid | None = None) -> float:
    """Predicate robustness degree.

    When the formula is satisfied, sums all non-negative predicate margins
    over each predicate's domain of influence; otherwise sums the negative
    margins.  Requires a negation-free formula (run :func:`stlmpc.stl.to_pnf`
    first); then anchored and checked like :func:`eval_bool`.
    """
    grid = grid or sig.grid
    if any(isinstance(node, Not) for node in iter_nodes(f)):
        raise ValueError("predicate robustness degree needs a negation-free formula; "
                         "rewrite with to_pnf() first")
    satisfied = eval_bool(sig, k, f, table)
    z = sig.predicate_values(table)
    pids = predicate_ids(f)
    domains = _domains(f, k, grid, sig.last_index) if pids else {}
    margins = []
    for pid in pids:
        if pid in domains:
            v = z[domains[pid], pid]
            margins.append(v[v >= 0.0] if satisfied else v[v < 0.0])
    return _sum(margins)


def robustness_degree_axis(sig: Signal, f: Formula, k: int, table: PredicateTable,
                           grid: SamplingGrid | None = None) -> float:
    """Signal-space distance to the satisfaction boundary, restricted fragment.

    Supported only for conjunctions of always-operators over predicates whose
    normals are axis-aligned with magnitude one; there the sup-metric distance
    to the boundary reduces to the signed minimum predicate margin over the
    influential instants.  The anchors are checked like :func:`eval_bool`'s, then the fragment.
    """
    grid = grid or sig.grid

    def leaves(g: Formula) -> list[tuple[int, range]]:
        """(predicate, window offsets) read at one anchor, in reading order."""
        if isinstance(g, Pred):
            return [(g.pred_id, range(1))]
        if isinstance(g, And):
            return [leaf for ch in g.children for leaf in leaves(ch)]
        if isinstance(g, Always):
            if not isinstance(g.child, Pred):
                raise ValueError("unsupported: always-operator over a non-predicate")
            return [(g.child.pred_id, sampled_window(g.a, g.b, grid))]
        raise ValueError(
            f"unsupported formula shape for the axis-aligned robustness degree: {type(g).__name__}")

    g, lo, n = _anchors(f, k, sig.last_index, grid)
    reads = leaves(g)
    for pid in {pid for pid, _ in reads}:
        if table.unit_axis(pid) is None:
            raise ValueError(f"predicate {table.names[pid]!r} is not axis-aligned with unit normal")

    z = sig.predicate_values(table)
    # every anchor reads the leaves' windows in order, and the first of equal minima counts
    steps = np.add.outer(np.arange(lo, lo + n), [o for _, offs in reads for o in offs])
    return _first_min(z[steps, [pid for pid, offs in reads for _ in offs]].ravel())
