"""Concrete syntax for bounded STL.

Grammar (whitespace insensitive)::

    formula   :=  'G[0,inf]' '(' theta ')'            all-time wrapper
               |  'event' '=>' theta                  one-time wrapper
               |  theta
    theta     :=  conj ('|' conj)*
    conj      :=  until ('&' until)*
    until     :=  unary ('U' '[' NUM ',' NUM ']' unary)?
    unary     :=  '!' unary
               |  'F' '[' NUM ',' NUM ']' unary
               |  'G' '[' NUM ',' NUM ']' unary
               |  '(' theta ')'
               |  'true'
               |  predicate
    predicate :=  'x' INT ('>=' | '<=') NUM

Predicates are affine in the state: ``x3 >= 1.5`` stores the normal row
e_3 with offset -1.5 (so the predicate function is x3 - 1.5), while
``x3 <= 1.5`` stores -e_3 with offset +1.5.  Duplicate predicates share
one table row.  Temporal operators nest, and ``!`` may stand before any
subformula.  An unbounded interval appears only in the root ``G[0,inf]``
wrapper, and the wrappers only at the root.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .stl import (
    AllTime,
    And,
    Always,
    Eventually,
    Formula,
    Not,
    OneTime,
    Or,
    Pred,
    PredicateTable,
    TrueNode,
    Until,
)

__all__ = ["ParseError", "ParsedFormula", "parse", "pretty_print"]


class ParseError(ValueError):
    """Syntax error, annotated with the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        marker = " " * pos + "^"
        super().__init__(f"{message} at column {pos}\n  {text}\n  {marker}")


class ParsedFormula(NamedTuple):
    formula: Formula
    table: PredicateTable


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<word>event|true|inf|U|F|G)"
    r"|(?P<op>>=|<=|=>|[&|!,\[\]()]))"
)


@dataclass
class _Token:
    kind: str
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", text, len(text) - len(stripped))
        for kind in ("num", "var", "word", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append(_Token(kind if kind != "op" else val, val, m.start(kind)))
                break
        pos = m.end()
    return tokens


class _PredicatePool:
    """Deduplicating accumulator for predicate rows while parsing."""

    def __init__(self) -> None:
        self.entries: list[tuple[tuple[float, ...], float, str]] = []
        self._index: dict[tuple[tuple[float, ...], float], int] = {}
        self.max_state = 0

    def add(self, state_ix: int, sign: float, offset: float, name: str) -> tuple[int, int]:
        """Register x{state_ix} with given sign/offset; returns (pred_id, state_ix)."""
        self.max_state = max(self.max_state, state_ix)
        key = (state_ix, sign, offset)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.entries)
            self.entries.append((key, name))  # type: ignore[arg-type]
            self._index[key] = idx
        return idx, state_ix

    def table(self, n_states: int | None) -> PredicateTable:
        n = n_states if n_states is not None else max(self.max_state, 1)
        if n < self.max_state:
            raise ValueError(f"formula references x{self.max_state} but n_states={n}")
        rows = np.zeros((max(len(self.entries), 1), n))
        offs = np.zeros(max(len(self.entries), 1))
        names = []
        for i, ((state_ix, sign, offset), name) in enumerate(self.entries):
            rows[i, state_ix - 1] = sign
            offs[i] = offset
            names.append(name)
        if not self.entries:
            names = ["p0"]
        return PredicateTable(rows, offs, names)


class _Parser:
    def __init__(self, text: str, pool: _PredicatePool):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.pool = pool

    # -- token helpers

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.i += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok.kind != kind and tok.value != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", self.text, tok.pos)
        return tok

    def _fail(self, message: str) -> ParseError:
        tok = self._peek()
        pos = tok.pos if tok is not None else len(self.text)
        return ParseError(message, self.text, pos)

    # -- grammar

    def parse_formula(self) -> Formula:
        tok = self._peek()
        if tok is not None and tok.value == "event":
            self._next()
            self._expect("=>")
            child = self.parse_theta()
            out: Formula = OneTime(child)
        elif tok is not None and tok.value == "G" and self._is_alltime_interval():
            self._next()
            self._expect("[")
            self._expect("num")
            self._expect(",")
            self._expect("inf")
            self._expect("]")
            self._expect("(")
            child = self.parse_theta()
            self._expect(")")
            out = AllTime(child)
        else:
            out = self.parse_theta()
        leftover = self._peek()
        if leftover is not None:
            raise ParseError(f"unexpected token {leftover.value!r}", self.text, leftover.pos)
        return out

    def _is_alltime_interval(self) -> bool:
        # G followed by [ <num> , inf ]
        toks = self.tokens[self.i:self.i + 6]
        return (len(toks) >= 5 and toks[1].value == "["
                and toks[2].kind == "num" and float(toks[2].value) == 0.0
                and toks[3].value == "," and toks[4].value == "inf")

    def parse_theta(self) -> Formula:
        terms = [self.parse_conj()]
        while (tok := self._peek()) is not None and tok.value == "|":
            self._next()
            terms.append(self.parse_conj())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse_conj(self) -> Formula:
        terms = [self.parse_until()]
        while (tok := self._peek()) is not None and tok.value == "&":
            self._next()
            terms.append(self.parse_until())
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        tok = self._peek()
        if tok is not None and tok.value == "U":
            self._next()
            a, b = self.parse_interval()
            return Until(left, self.parse_unary(), a, b)
        return left

    def parse_interval(self) -> tuple[float, float]:
        self._expect("[")
        a_tok = self._next()
        if a_tok.kind != "num":
            raise ParseError("expected a number", self.text, a_tok.pos)
        self._expect(",")
        b_tok = self._next()
        if b_tok.kind == "num":
            b = float(b_tok.value)
        elif b_tok.value == "inf":
            raise ParseError("unbounded interval is only allowed in the root G[0,inf] wrapper",
                             self.text, b_tok.pos)
        else:
            raise ParseError("expected a number", self.text, b_tok.pos)
        self._expect("]")
        a = float(a_tok.value)
        if a < 0:
            raise ParseError("interval bounds must be non-negative", self.text, a_tok.pos)
        if a > b:
            raise ParseError(f"interval bounds out of order: [{a}, {b}]", self.text, a_tok.pos)
        return a, b

    def parse_unary(self) -> Formula:
        tok = self._peek()
        if tok is None:
            raise self._fail("unexpected end of input")
        if tok.value == "!":
            self._next()
            return Not(self.parse_unary())
        if tok.value in ("F", "G"):
            self._next()
            a, b = self.parse_interval()
            child = self.parse_unary()
            return Eventually(child, a, b) if tok.value == "F" else Always(child, a, b)
        if tok.value == "(":
            self._next()
            inner = self.parse_theta()
            self._expect(")")
            return inner
        if tok.value == "true":
            self._next()
            return TrueNode()
        if tok.kind == "var":
            return self.parse_predicate()
        raise ParseError(f"unexpected token {tok.value!r}", self.text, tok.pos)

    def parse_predicate(self) -> Formula:
        var = self._next()
        state_ix = int(var.value[1:])
        if state_ix < 1:
            raise ParseError("state indices are 1-based", self.text, var.pos)
        cmp_tok = self._next()
        if cmp_tok.value not in (">=", "<="):
            raise ParseError("expected '>=' or '<='", self.text, cmp_tok.pos)
        num_tok = self._next()
        if num_tok.kind != "num":
            raise ParseError("expected a number", self.text, num_tok.pos)
        r = float(num_tok.value)
        sign = 1.0 if cmp_tok.value == ">=" else -1.0
        offset = -r if cmp_tok.value == ">=" else r
        name = f"x{state_ix} {cmp_tok.value} {_fmt_num(r)}"
        pred_id, _ = self.pool.add(state_ix, sign, offset, name)
        return Pred(pred_id)


def parse(text: str, n_states: int | None = None, event_time: float | None = None) -> ParsedFormula:
    """Parse formula text into an AST plus its predicate table.

    ``n_states`` fixes the state dimension (defaults to the largest state
    index mentioned).  ``event_time`` anchors a one-time formula in seconds;
    it is an error to pass it for formulas without the event wrapper.
    """
    pool = _PredicatePool()
    parser = _Parser(text, pool)
    formula = parser.parse_formula()
    if event_time is not None:
        if not isinstance(formula, OneTime):
            raise ValueError("event_time given but the formula has no 'event =>' wrapper")
        formula = OneTime(formula.child, float(event_time))
    return ParsedFormula(formula, pool.table(n_states))


# ---------------------------------------------------------------------------
# Pretty printer


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _pred_text(pred_id: int, table: PredicateTable) -> str:
    axis = table.unit_axis(pred_id)
    if axis is None:
        raise ValueError(
            f"predicate {table.names[pred_id]!r} is not axis-aligned and has no concrete syntax")
    row, off = table.row(pred_id)
    if row[axis] > 0:
        return f"x{axis + 1} >= {_fmt_num(-off)}"
    return f"x{axis + 1} <= {_fmt_num(off)}"


def pretty_print(f: Formula, table: PredicateTable) -> str:
    """Emit the grammar of :func:`parse`; ``parse(pretty_print(f)) == f``."""

    def interval(a: float, b: float) -> str:
        return f"[{_fmt_num(a)},{_fmt_num(b)}]"

    def atom(g: Formula) -> str:
        if isinstance(g, TrueNode):
            return "true"
        if isinstance(g, Pred):
            return f"({_pred_text(g.pred_id, table)})"
        if isinstance(g, Not):
            return f"!{atom(g.child)}"
        return f"({rec(g)})"

    def rec(g: Formula) -> str:
        if isinstance(g, (TrueNode, Pred, Not)):
            return atom(g) if not isinstance(g, Pred) else _pred_text(g.pred_id, table)
        if isinstance(g, And):
            return " & ".join(until_safe(ch) for ch in g.children)
        if isinstance(g, Or):
            return " | ".join(
                f"({rec(ch)})" if isinstance(ch, Or) else until_safe(ch) for ch in g.children)
        if isinstance(g, Until):
            return f"{atom(g.left)} U{interval(g.a, g.b)} {atom(g.right)}"
        if isinstance(g, Eventually):
            return f"F{interval(g.a, g.b)}{atom(g.child)}"
        if isinstance(g, Always):
            return f"G{interval(g.a, g.b)}{atom(g.child)}"
        if isinstance(g, AllTime):
            return f"G[0,inf]({rec(g.child)})"
        if isinstance(g, OneTime):
            return f"event => ({rec(g.child)})"
        raise TypeError(f"not a formula node: {g!r}")

    def until_safe(g: Formula) -> str:
        # conjuncts/disjuncts that are themselves And/Or need parentheses
        if isinstance(g, (And, Or)):
            return f"({rec(g)})"
        return rec(g)

    return rec(f)
