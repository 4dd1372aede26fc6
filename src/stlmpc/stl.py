"""Bounded STL: AST nodes, sampling grid, predicate table and formula algebra.

Formulas are built from affine predicates, negation, conjunction,
disjunction and the bounded temporal operators until, eventually and
always, which nest freely.  A formula may be wrapped at the root into an
all-time formula (the property must hold at every sampling step) or a
one-time formula (the property is anchored at a single event instant).

Control (``qp_builder.compile_run``) takes only the paper's fragment:
conjunctions and disjunctions of single temporal operators whose operands
are predicates, under the same root wrappers, in positive normal form
(:func:`to_pnf` pushes negations into the predicates).

:func:`subformulas` is the one place that knows which fields of a node hold
its subformulas, and in what order; every structural walk goes through it.
That document order is also the operator index that
``scheduling.compute_schedule`` (over :func:`collect_event_ops`), the
scheduled readout's witness lookup and the control fragment's branches
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "SamplingGrid",
    "PredicateTable",
    "TrueNode",
    "Pred",
    "Not",
    "And",
    "Or",
    "Until",
    "Eventually",
    "Always",
    "AllTime",
    "OneTime",
    "Formula",
    "FragmentError",
    "EmptyWindowError",
    "omega",
    "sampled_window",
    "continuous_length",
    "discrete_length",
    "to_pnf",
    "collect_event_ops",
    "iter_nodes",
    "subformulas",
    "predicate_ids",
    "validate_windows",
    "unwrap",
]


class FragmentError(ValueError):
    """Raised when a formula falls outside the supported STL fragment."""


class EmptyWindowError(ValueError):
    """Raised when a temporal interval contains no sampling instant."""


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform sampling of continuous time, tau(k) = k*T."""

    T: float

    def __post_init__(self) -> None:
        if not 0 < self.T < math.inf:
            raise ValueError(f"sampling period must be positive and finite, got {self.T}")


# Relative slack when mapping continuous interval bounds onto the grid, so
# that e.g. 216/12 lands on index 18 despite floating point rounding.
_GRID_EPS = 1e-9


def omega(a: float, b: float, grid: SamplingGrid) -> range:
    """Indices k with a <= k*T <= b (possibly empty, never negative)."""
    if not 0 <= a <= b < math.inf:
        raise ValueError(f"invalid interval [{a}, {b}]")
    lo = max(0, math.ceil(a / grid.T - _GRID_EPS))
    hi = math.floor(b / grid.T + _GRID_EPS)
    return range(lo, hi + 1)


def sampled_window(a: float, b: float, grid: SamplingGrid) -> range:
    """:func:`omega` of a temporal window; raises :class:`EmptyWindowError`
    when the window holds no sampling instant."""
    base = omega(a, b, grid)
    if len(base) == 0:
        raise EmptyWindowError(f"interval [{a}, {b}] contains no multiple of T={grid.T}")
    return base


# ---------------------------------------------------------------------------
# Predicate bookkeeping


class PredicateTable:
    """Affine predicate functions z(k) = C x(k) + c.

    Row i holds the normal of predicate i; predicate i is true at step k
    exactly when ``C[i] @ x(k) + c[i] >= 0``.  Rows are deduplicated: two
    syntactic occurrences with the same (normal, offset) share one id.
    """

    def __init__(self, rows: Sequence[Sequence[float]], offsets: Sequence[float],
                 names: Sequence[str] | None = None):
        self._C = np.atleast_2d(np.array(rows, dtype=float))
        self._c = np.array(offsets, dtype=float).reshape(-1)
        if self._C.shape[0] != self._c.shape[0]:
            raise ValueError("row count and offset count differ")
        if names is None:
            names = [f"p{i}" for i in range(self._C.shape[0])]
        if len(names) != self._C.shape[0]:
            raise ValueError("name count and row count differ")
        self._names = tuple(names)
        self._C.setflags(write=False)
        self._c.setflags(write=False)

    @property
    def C(self) -> np.ndarray:
        return self._C

    @property
    def c(self) -> np.ndarray:
        return self._c

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def size(self) -> int:
        return self._C.shape[0]

    @property
    def n_states(self) -> int:
        return self._C.shape[1]

    def z(self, x: np.ndarray) -> np.ndarray:
        """Predicate vector at one state, or one row per state of a stack: each state
        takes its own ``C @ x(k) + c``, so a sample reads the same alone or in any stack."""
        return np.matmul(self._C, np.asarray(x, dtype=float)[..., None])[..., 0] + self._c

    def row(self, pred_id: int) -> tuple[np.ndarray, float]:
        return self._C[pred_id], float(self._c[pred_id])

    def unit_axis(self, pred_id: int) -> int | None:
        """State index i when the predicate reads +-x_i + c, else None."""
        nz = np.nonzero(self._C[pred_id])[0]
        if len(nz) == 1 and abs(self._C[pred_id, nz[0]]) == 1.0:
            return int(nz[0])
        return None

    def extended(self, row: Sequence[float], offset: float, name: str) -> tuple["PredicateTable", int]:
        """Table with one more predicate, and its id (this table if already present)."""
        key = (tuple(float(v) for v in row), float(offset))
        for i in range(self.size):
            if (tuple(self._C[i]), float(self._c[i])) == key:
                return self, i
        rows = np.vstack([self._C, np.asarray(row, dtype=float)])
        offs = np.append(self._c, float(offset))
        return PredicateTable(rows, offs, self._names + (name,)), self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredicateTable):
            return NotImplemented
        return (np.array_equal(self._C, other._C)
                and np.array_equal(self._c, other._c))

    def __repr__(self) -> str:
        return f"PredicateTable(size={self.size}, n_states={self.n_states})"


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class TrueNode:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Pred:
    pred_id: int


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("conjunction needs at least two children")


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("disjunction needs at least two children")


def _check_interval(a: float, b: float) -> None:
    if not (0 <= a <= b) or math.isinf(b):
        raise FragmentError(f"temporal interval must satisfy 0 <= a <= b < inf, got [{a}, {b}]")


@dataclass(frozen=True)
class Until:
    left: "Formula"
    right: "Formula"
    a: float
    b: float

    def __post_init__(self) -> None:
        _check_interval(self.a, self.b)


@dataclass(frozen=True)
class Eventually:
    child: "Formula"
    a: float
    b: float

    def __post_init__(self) -> None:
        _check_interval(self.a, self.b)


@dataclass(frozen=True)
class Always:
    child: "Formula"
    a: float
    b: float

    def __post_init__(self) -> None:
        _check_interval(self.a, self.b)


@dataclass(frozen=True)
class AllTime:
    """Root wrapper: the child must hold at every sampling step."""

    child: "Formula"


@dataclass(frozen=True)
class OneTime:
    """Root wrapper: the child must hold once, at the event instant (seconds)."""

    child: "Formula"
    event_time: float = 0.0


Formula = Union[TrueNode, Pred, Not, And, Or, Until, Eventually, Always, AllTime, OneTime]

_TEMPORAL = (Until, Eventually, Always)
_WRAPPERS = (AllTime, OneTime)


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """Direct subformulas of a node, in document order."""
    if isinstance(f, (TrueNode, Pred)):
        return ()
    if isinstance(f, (And, Or)):
        return f.children
    if isinstance(f, Until):
        return (f.left, f.right)
    if isinstance(f, (Not, Eventually, Always, AllTime, OneTime)):
        return (f.child,)
    raise TypeError(f"not a formula node: {f!r}")


def _rebuild(f: Formula, subs: Sequence[Formula]) -> Formula:
    """f with its subformulas replaced by subs; f itself when every one is unchanged."""
    subs = tuple(subs)
    if all(new is old for new, old in zip(subs, subformulas(f))):
        return f
    if isinstance(f, (And, Or)):
        return replace(f, children=subs)
    if isinstance(f, Until):
        return replace(f, left=subs[0], right=subs[1])
    return replace(f, child=subs[0])


def iter_nodes(f: Formula) -> Iterator[Formula]:
    """Depth-first, document-order iteration over all nodes."""
    yield f
    for ch in subformulas(f):
        yield from iter_nodes(ch)


def predicate_ids(f: Formula) -> tuple[int, ...]:
    """Distinct predicate ids in document order."""
    seen: dict[int, None] = {}
    for node in iter_nodes(f):
        if isinstance(node, Pred):
            seen.setdefault(node.pred_id, None)
    return tuple(seen)


def unwrap(f: Formula) -> Formula:
    """Strip a root AllTime/OneTime wrapper, if present."""
    return f.child if isinstance(f, _WRAPPERS) else f


# ---------------------------------------------------------------------------
# Formula length


def continuous_length(f: Formula) -> float:
    """Horizon (seconds) needed beyond the evaluation instant."""
    if isinstance(f, AllTime):
        raise FragmentError("all-time formulas have unbounded length; query the wrapped formula")
    inner = max(map(continuous_length, subformulas(f)), default=0.0)
    return f.b + inner if isinstance(f, _TEMPORAL) else inner


def discrete_length(f: Formula, grid: SamplingGrid) -> int:
    """Largest sample index within the continuous length."""
    return omega(0.0, continuous_length(f), grid)[-1]


# ---------------------------------------------------------------------------
# Positive normal form


def _negated_name(name: str) -> str:
    return name[1:] if name.startswith("!") else "!" + name


# the negation of each is the other over the negated subformulas; each pair
# has the same fields
_DUALS = {And: Or, Or: And, Always: Eventually, Eventually: Always}


def to_pnf(f: Formula, table: PredicateTable) -> tuple[Formula, PredicateTable]:
    """Push negations inward and encode them into fresh predicates.

    A negated predicate with function z becomes a new predicate with
    function -z; the boundary z = 0 flips from unsatisfied to satisfied,
    which leaves every robustness value unchanged.  Returns the rewritten
    formula together with the (possibly extended) predicate table.
    """

    def each(walk, g: Formula, tab: PredicateTable) -> tuple[list[Formula], PredicateTable]:
        subs = []
        for ch in subformulas(g):
            ch, tab = walk(ch, tab)
            subs.append(ch)
        return subs, tab

    def pos(g: Formula, tab: PredicateTable) -> tuple[Formula, PredicateTable]:
        if isinstance(g, Not):
            return neg(g.child, tab)
        subs, tab = each(pos, g, tab)
        return _rebuild(g, subs), tab

    def neg(g: Formula, tab: PredicateTable) -> tuple[Formula, PredicateTable]:
        if isinstance(g, Pred):
            row, off = tab.row(g.pred_id)
            tab2, new_id = tab.extended(-row, -off, _negated_name(tab.names[g.pred_id]))
            return Pred(new_id), tab2
        if isinstance(g, Not):
            return pos(g.child, tab)
        dual = _DUALS.get(type(g))
        if dual is not None:
            subs, tab = each(neg, g, tab)
            return dual(**vars(_rebuild(g, subs))), tab
        if isinstance(g, TrueNode):
            raise FragmentError("negated true is not expressible in the fragment")
        if isinstance(g, Until):
            raise FragmentError("negated until is not expressible in the fragment")
        if isinstance(g, _WRAPPERS):
            raise FragmentError("cannot negate a root wrapper")
        raise TypeError(f"not a formula node: {g!r}")

    return pos(f, table)


# ---------------------------------------------------------------------------
# Temporal operator bookkeeping


def collect_event_ops(theta: Formula) -> list[tuple[float, float]]:
    """Intervals (a, b) of every eventually/until node, in document order."""
    out: list[tuple[float, float]] = []
    for node in iter_nodes(unwrap(theta)):
        if isinstance(node, (Until, Eventually)):
            out.append((node.a, node.b))
    return out


def validate_windows(f: Formula, grid: SamplingGrid) -> None:
    """Reject formulas whose temporal windows contain no sampling instant.

    Every semantics rule takes a min/max over the window's index set, so an
    empty window would make the formula unevaluable; failing early gives a
    much better error message than an empty-sequence crash mid-recursion.
    """
    for node in iter_nodes(f):
        if isinstance(node, _TEMPORAL):
            sampled_window(node.a, node.b, grid)
        if isinstance(node, OneTime):
            event_index(node, grid)


def event_index(f: OneTime, grid: SamplingGrid) -> int:
    """Sample index of the event instant."""
    ks = omega(f.event_time, f.event_time, grid) if math.isfinite(f.event_time) else ()
    if len(ks) != 1:
        raise EmptyWindowError(
            f"event time {f.event_time} is not a sampling instant of T={grid.T}")
    return ks[0]
