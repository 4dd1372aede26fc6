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


class _Token(NamedTuple):
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
        kind, val = m.lastgroup, m.group(m.lastgroup)
        tokens.append(_Token(val if kind == "op" else kind, val, m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        # (state, sign, offset) -> (id, name), in order of first appearance
        self.preds: dict[tuple[int, float, float], tuple[int, str]] = {}

    # -- token helpers

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.i += 1
        return tok

    def _expect(self, value: str) -> None:
        tok = self._next()
        if tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value!r}", self.text, tok.pos)

    def _accept(self, value: str) -> bool:
        """Consume the next token if its value is ``value``."""
        if (tok := self._peek()) is not None and tok.value == value:
            self.i += 1
            return True
        return False

    # -- grammar

    def parse_formula(self) -> Formula:
        if self._accept("event"):
            self._expect("=>")
            out: Formula = OneTime(self.parse_theta())
        elif [float(t.value) if t.kind == "num" else t.value
              for t in self.tokens[:5]] == ["G", "[", 0.0, ",", "inf"]:
            self.i = 5  # skip the checked G [ 0 , inf
            self._expect("]")
            self._expect("(")
            out = AllTime(self.parse_theta())
            self._expect(")")
        else:
            out = self.parse_theta()
        if (leftover := self._peek()) is not None:
            raise ParseError(f"unexpected token {leftover.value!r}", self.text, leftover.pos)
        return out

    def parse_theta(self) -> Formula:
        terms = [self.parse_conj()]
        while self._accept("|"):
            terms.append(self.parse_conj())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse_conj(self) -> Formula:
        terms = [self.parse_until()]
        while self._accept("&"):
            terms.append(self.parse_until())
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        if self._accept("U"):
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
        tok = self._next()
        if tok.value == "!":
            return Not(self.parse_unary())
        if tok.value in ("F", "G"):
            a, b = self.parse_interval()
            child = self.parse_unary()
            return Eventually(child, a, b) if tok.value == "F" else Always(child, a, b)
        if tok.value == "(":
            inner = self.parse_theta()
            self._expect(")")
            return inner
        if tok.value == "true":
            return TrueNode()
        if tok.kind == "var":
            return self.parse_predicate(tok)
        raise ParseError(f"unexpected token {tok.value!r}", self.text, tok.pos)

    def parse_predicate(self, var: _Token) -> Formula:
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
        return Pred(self.preds.setdefault((state_ix, sign, offset), (len(self.preds), name))[0])


def parse(text: str, n_states: int | None = None, event_time: float | None = None) -> ParsedFormula:
    """Parse formula text into an AST plus its predicate table.

    ``n_states`` fixes the state dimension (defaults to the largest state
    index mentioned).  ``event_time`` anchors a one-time formula in seconds;
    it is an error to pass it for formulas without the event wrapper.
    """
    parser = _Parser(text)
    formula = parser.parse_formula()
    if event_time is not None:
        if not isinstance(formula, OneTime):
            raise ValueError("event_time given but the formula has no 'event =>' wrapper")
        formula = OneTime(formula.child, float(event_time))
    max_state = max((state for state, _, _ in parser.preds), default=0)
    n = max(max_state, 1) if n_states is None else n_states
    if n < max_state:
        raise ValueError(f"formula references x{max_state} but n_states={n}")
    # a formula without predicates keeps one zero row
    size = max(len(parser.preds), 1)
    rows, offsets = np.zeros((size, n)), np.zeros(size)
    for i, (state, sign, offset) in enumerate(parser.preds):
        rows[i, state - 1], offsets[i] = sign, offset
    names = [name for _, name in parser.preds.values()] or ["p0"]
    return ParsedFormula(formula, PredicateTable(rows, offsets, names))


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
