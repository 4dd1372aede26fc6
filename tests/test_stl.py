"""Syntax, time discretization, formula lengths, and normal-form rewriting."""

import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semantics_reference as oracle
from stlmpc import (
    AllTime,
    Always,
    And,
    EmptyWindowError,
    Eventually,
    FragmentError,
    Not,
    OneTime,
    Or,
    ParseError,
    Pred,
    PredicateTable,
    SamplingGrid,
    Signal,
    TrueNode,
    Until,
    collect_event_ops,
    compute_schedule,
    continuous_length,
    discrete_length,
    eval_bool,
    omega,
    parse,
    pretty_print,
    to_pnf,
    validate_windows,
)
from stlmpc.qp_builder import _dnf
from stlmpc.semantics import _domains, _op_paths
from stlmpc.stl import _rebuild, iter_nodes, subformulas, unwrap

from conftest import random_signal, random_theta

GRID12 = SamplingGrid(12.0)
GRID1 = SamplingGrid(1.0)


class TestParse:
    def test_two_window_conjunction(self):
        f, table = parse("G[144,216](x1 >= 1) & G[372,444](x1 >= 1)", n_states=2)
        assert isinstance(f, And) and len(f.children) == 2
        first, second = f.children
        assert first == Always(Pred(0), 144.0, 216.0)
        assert second == Always(Pred(0), 372.0, 444.0)
        # both windows reference the same predicate function x1 - 1
        assert table.size == 1
        np.testing.assert_array_equal(table.C, [[1.0, 0.0]])
        np.testing.assert_array_equal(table.c, [-1.0])

    def test_zero_offset_predicate(self):
        f, table = parse("x1 >= 0")
        assert f == Pred(0)
        np.testing.assert_array_equal(table.C, [[1.0]])
        np.testing.assert_array_equal(table.c, [0.0])

    def test_one_time_wrapper(self):
        f, table = parse("event => F[120,240](x1 >= 2)", event_time=120.0)
        assert isinstance(f, OneTime) and f.event_time == 120.0
        assert f.child == Eventually(Pred(0), 120.0, 240.0)
        np.testing.assert_array_equal(table.c, [-2.0])

    def test_leq_predicate_encoding(self):
        _, table = parse("x2 <= 5", n_states=2)
        np.testing.assert_array_equal(table.C, [[0.0, -1.0]])
        np.testing.assert_array_equal(table.c, [5.0])

    def test_predicate_table(self):
        text = "x2 >= 1 & x1 <= -0 & x2 <= 1 | x2 >= 1.0 & x1 <= 0 & x1 >= 3"
        f, table = parse(text)
        # ids in order of first appearance; equal (state, sign, offset) share one
        assert f == Or((And((Pred(0), Pred(1), Pred(2))), And((Pred(0), Pred(1), Pred(3)))))
        np.testing.assert_array_equal(table.C, [[0, 1], [-1, 0], [0, -1], [1, 0]])
        np.testing.assert_array_equal(table.c, [-1, 0, 1, -3])
        # x1 <= 0 keeps the offset of its first spelling, -0
        assert np.signbit(table.c[1])
        assert table.names == ("x2 >= 1", "x1 <= 0", "x2 <= 1", "x1 >= 3")
        assert parse(text, n_states=3).table.C.shape == (4, 3)
        with pytest.raises(ValueError, match="formula references x2 but n_states=1"):
            parse(text, n_states=1)

    def test_true_has_one_zero_predicate(self):
        f, table = parse("true")
        assert f == TrueNode()
        np.testing.assert_array_equal(table.C, [[0.0]])
        np.testing.assert_array_equal(table.c, [0.0])
        assert table.names == ("p0",)
        np.testing.assert_array_equal(parse("true", n_states=2).table.C, [[0.0, 0.0]])

    def test_unit_axis(self):
        table = PredicateTable([[0.0, -1.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]],
                               [5.0, 0.0, 0.0, 0.0])
        assert [table.unit_axis(i) for i in range(4)] == [1, 0, None, None]
        assert pretty_print(Pred(0), table) == "x2 <= 5"
        for pid in (2, 3):
            with pytest.raises(ValueError, match="not axis-aligned"):
                pretty_print(Pred(pid), table)

    def test_table_copies_the_callers_arrays(self):
        rows, offsets = np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([0.0, 2.5])
        table = PredicateTable(rows, offsets)
        assert rows.flags.writeable and offsets.flags.writeable
        assert not (table.C.flags.writeable or table.c.flags.writeable)
        rows[0, 0], offsets[0] = 7.0, 7.0
        np.testing.assert_array_equal(table.C, [[1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_array_equal(table.c, [0.0, 2.5])

    def test_until_precedence_binds_tighter_than_and(self):
        f, _ = parse("F[120,240](x1 >= 2) & (x1 <= 4) U[180,420] (x2 <= 2.5)", n_states=2)
        assert isinstance(f, And)
        assert isinstance(f.children[0], Eventually)
        assert isinstance(f.children[1], Until)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("G[0,5](x1 >> 1)")
        assert "column" in str(err.value)

    def test_unbounded_interval_inside_theta_rejected(self):
        with pytest.raises(ParseError):
            parse("F[0,inf](x1 >= 0)")

    def test_wrapper_only_at_root(self):
        with pytest.raises(ParseError):
            parse("G[0,5](x1 >= 0) & G[0,inf](x1 >= 0)")

    def test_event_time_requires_wrapper(self):
        with pytest.raises(ValueError):
            parse("x1 >= 0", event_time=5.0)


class TestOmega:
    def test_paper_window(self):
        assert list(omega(144, 216, GRID12)) == [12, 13, 14, 15, 16, 17, 18]

    def test_degenerate_window(self):
        assert list(omega(0, 0, GRID12)) == [0]

    def test_unit_grid(self):
        assert list(omega(5, 15, GRID1)) == list(range(5, 16))

    def test_empty_window(self):
        assert list(omega(5, 7, GRID12)) == []

    @given(st.floats(0, 50), st.floats(0, 50), st.floats(0, 50),
           st.sampled_from([0.5, 1.0, 2.0, 12.0]))
    def test_monotone_in_upper_bound(self, a, b1, b2, T):
        lo, hi = sorted((b1, b2))
        if a > lo:
            return
        grid = SamplingGrid(T)
        assert set(omega(a, lo, grid)) <= set(omega(a, hi, grid))


class TestFormulaLength:
    def test_two_window_conjunction(self):
        f, _ = parse("G[144,216](x1 >= 1) & G[372,444](x1 >= 1)", n_states=2)
        assert continuous_length(f) == 444.0
        assert discrete_length(f, GRID12) == 37

    def test_predicate(self):
        f, _ = parse("x1 >= 0")
        assert continuous_length(f) == 0.0
        assert discrete_length(f, GRID12) == 0

    def test_until(self):
        f = Until(Pred(0), Pred(0), 120.0, 240.0)
        assert continuous_length(f) == 240.0
        f2 = Eventually(Pred(0), 5.0, 15.0)
        assert discrete_length(f2, GRID1) == 15

    def test_all_time_is_unbounded(self):
        f, _ = parse("G[0,inf](G[0,5](x1 >= 0))")
        with pytest.raises(FragmentError):
            continuous_length(f)
        assert continuous_length(f.child) == 5.0

    def test_length_sandwich(self):
        rng = random.Random(7)
        for _ in range(100):
            f = random_theta(rng, 2)
            for T in (0.5, 1.0, 3.0):
                grid = SamplingGrid(T)
                hc = continuous_length(f)
                hd = discrete_length(f, grid)
                assert hd * T <= hc + 1e-9 < (hd + 1) * T + 1e-9


class TestPnf:
    def test_negated_predicate_flips_row(self):
        f, table = parse("!(x1 >= 1)")
        g, table2 = to_pnf(f, table)
        assert isinstance(g, Pred) and g.pred_id == 1
        row, off = table2.row(1)
        np.testing.assert_array_equal(row, [-1.0])
        assert off == 1.0

    def test_idempotent_on_pnf_input(self):
        f, table = parse("G[0,5](x1 >= 1) & F[2,4](x1 <= 3)")
        g, table2 = to_pnf(f, table)
        assert g == f and table2 == table

    def test_de_morgan_over_conjunction(self):
        # check all truth assignments away from predicate boundaries (the
        # zero-margin point flips by the documented negation convention)
        mu1, mu2 = Pred(0), Pred(1)
        f = Not(And((mu1, mu2)))
        table = PredicateTable([[1.0], [-1.0]], [0.0, 0.5])
        g, table2 = to_pnf(f, table)
        assert isinstance(g, Or)
        for v in (-2.0, -0.2, 0.3, 2.0):
            sig = Signal(np.array([[v]]), GRID1)
            assert eval_bool(sig, 0, f, table2) == eval_bool(sig, 0, g, table2)

    def test_negated_until_unsupported(self):
        f = Not(Until(Pred(0), Pred(0), 0.0, 2.0))
        with pytest.raises(FragmentError):
            to_pnf(f, PredicateTable([[1.0]], [0.0]))

    def test_preserves_boolean_evaluation(self):
        rng = random.Random(21)
        checked = 0
        while checked < 200:
            f = random_theta(rng, 3)
            if rng.random() < 0.5:
                f = Not(f)
            from stlmpc import FragmentError as FE

            table = PredicateTable(np.eye(1).repeat(3, 0), [0.0, -0.5, 0.5])
            try:
                g, table2 = to_pnf(f, table)
            except FE:
                continue  # negated until has no fragment rewrite
            hd = discrete_length(f, GRID1)
            sig = random_signal(rng, hd + 1)
            assert eval_bool(sig, 0, f, table2) == eval_bool(sig, 0, g, table2)
            checked += 1


class TestEventOps:
    def test_two_eventually(self):
        f = And((Eventually(Pred(0), 5, 15), Eventually(Pred(1), 5, 15)))
        assert collect_event_ops(f) == [(5, 15), (5, 15)]

    def test_always_needs_no_witness(self):
        f, _ = parse("G[0,10](x1 >= 0)")
        assert collect_event_ops(f) == []

    def test_single_until(self):
        f, _ = parse("(x1 >= 0) U[120,240] (x1 <= 5)")
        assert collect_event_ops(f) == [(120.0, 240.0)]


class TestValidation:
    def test_empty_window_is_fatal(self):
        f, _ = parse("G[5,7](x1 >= 0)")
        with pytest.raises(EmptyWindowError):
            validate_windows(f, GRID12)

    def test_event_off_grid_is_fatal(self):
        f, _ = parse("event => F[0,24](x1 >= 0)", event_time=5.0)
        with pytest.raises(EmptyWindowError):
            validate_windows(f, GRID12)

    def test_empty_window_is_the_same_error_everywhere(self):
        # the readouts and the schedule meet an unvalidated empty window with
        # the error and the message validate_windows gives
        f, table = parse("G[5,7](x1 >= 0)")
        message = r"^interval \[5.0, 7.0\] contains no multiple of T=12.0$"
        with pytest.raises(EmptyWindowError, match=message):
            validate_windows(f, GRID12)
        with pytest.raises(EmptyWindowError, match=message):
            eval_bool(Signal(np.zeros((3, 1)), GRID12), 0, f, table)
        with pytest.raises(EmptyWindowError, match=message):
            compute_schedule([(5.0, 7.0)], GRID12)


def nested_formulas():
    """Random formulas over three predicates, nested with ``!`` anywhere or
    from the control fragment, under no wrapper, ``AllTime`` or ``OneTime``."""
    window = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda ab: (float(ab[0]), float(ab[0] + ab[1])))
    leaf = st.one_of(st.builds(Pred, st.integers(0, 2)), st.just(TrueNode()))

    def extend(sub):
        return st.one_of(
            st.builds(Not, sub),
            st.builds(lambda ch, w: Eventually(ch, *w), sub, window),
            st.builds(lambda ch, w: Always(ch, *w), sub, window),
            st.builds(lambda l, r, w: Until(l, r, *w), sub, sub, window),
            st.builds(And, st.lists(sub, min_size=2, max_size=3).map(tuple)),
            st.builds(Or, st.lists(sub, min_size=2, max_size=3).map(tuple)))

    theta = st.one_of(st.recursive(leaf, extend, max_leaves=8),
                      st.randoms().map(lambda rng: random_theta(rng, 3)))
    return st.tuples(theta, st.sampled_from([lambda f: f, AllTime, OneTime])).map(
        lambda pair: pair[1](pair[0]))


class TestRoundTrip:
    CASES = [
        "G[144,216](x1 >= 1) & G[372,444](x1 >= 1)",
        "G[0,inf]((x1 >= 0) U[120,240] (x1 <= 5))",
        "event => (F[120,240](x1 >= 2))",
        "G[0,inf](F[120,240](x1 >= 2) & (x1 <= 4) U[180,420] (x2 <= 2.5))",
        "(x1 >= 1) U[0,5] !(x2 <= 0.5) | G[1,3](x2 >= -2)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_named_cases(self, text):
        f, table = parse(text, n_states=2)
        f2, table2 = parse(pretty_print(f, table), n_states=2)
        assert f2 == f
        assert table2 == table

    # twice the examples of a recursive-only strategy: about half the draws
    # are control-fragment formulas
    @settings(max_examples=400, deadline=None)
    @given(nested_formulas())
    def test_nested_and_negated_formulas(self, formula):
        # temporal operators nest and `!` stands anywhere; text from a pool of
        # predicates parses to a formula that pretty_print and parse reproduce
        pool = PredicateTable([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]], [0.0, 2.5, -4.5])
        text = pretty_print(formula, pool)
        f, table = parse(text, n_states=2)
        assert pretty_print(f, table) == text
        assert parse(pretty_print(f, table), n_states=2) == (f, table)

    def test_generated_formulas(self):
        rng = random.Random(3)
        pool = PredicateTable(
            [[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]], [0.0, 2.5, 4.0])
        for _ in range(200):
            f = random_theta(rng, 3)
            text = pretty_print(f, pool)
            f2, table2 = parse(text, n_states=2)
            text2 = pretty_print(f2, table2)
            assert text2 == text


def _at(f, path):
    """The node at a path of ``_op_paths``, followed field by field."""
    for i in path:
        if isinstance(f, Until):
            f = (f.left, f.right)[i]
        elif isinstance(f, (And, Or)):
            f = f.children[i]
        else:
            assert i == 0
            f = f.child
    return f


class TestDocumentOrder:
    POOL = PredicateTable([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]], [0.0, 2.5, -4.5])

    @settings(max_examples=300, deadline=None)
    @given(nested_formulas())
    def test_every_walker_numbers_the_operators_alike(self, f):
        ops = [node for node in iter_nodes(f) if isinstance(node, (Until, Eventually))]
        assert collect_event_ops(f) == [(op.a, op.b) for op in ops]
        paths = _op_paths(f)
        assert paths == oracle._op_paths(f)
        assert sorted(paths.values()) == list(range(len(ops)))
        for path, idx in paths.items():
            assert _at(f, path) is ops[idx]
        for node in iter_nodes(f):
            assert _rebuild(node, subformulas(node)) is node

        try:
            g, table = to_pnf(f, self.POOL)
        except FragmentError:
            return
        assert to_pnf(g, table)[0] is g
        if not any(isinstance(node, Not) for node in iter_nodes(f)):
            assert (g, table) == (f, self.POOL) and g is f
        try:
            branches = _dnf(unwrap(g))
        except FragmentError:
            return
        pnf_ops = [node for node in iter_nodes(g) if isinstance(node, (Until, Eventually))]
        for branch in branches:
            for psi, idx in branch:
                if idx is not None:
                    assert psi is pnf_ops[idx]
                    assert (psi.a, psi.b) == collect_event_ops(g)[idx]

    @settings(max_examples=100, deadline=None)
    @given(nested_formulas())
    def test_rebuild_takes_new_subformulas(self, f):
        for node in iter_nodes(f):
            subs = [dataclasses.replace(ch) for ch in subformulas(node)]
            if not subs:
                continue
            h = _rebuild(node, subs)
            assert h == node and h is not node
            assert all(new is sub for new, sub in zip(subformulas(h), subs))


class TestMalformedTrees:
    BAD = "x1 >= 0"
    TABLE = PredicateTable([[1.0]], [0.0])

    @pytest.mark.parametrize("tree", [
        And((Pred(0), BAD)),
        Until(Pred(0), BAD, 0.0, 2.0),
        Always(BAD, 1.0, 2.0),
        AllTime(Or((Eventually(Pred(0), 0.0, 1.0), Always(BAD, 1.0, 2.0)))),
        OneTime(Not(And((Pred(0), BAD))), 1.0),
    ], ids=repr)
    def test_non_node_raises_one_type_error(self, tree):
        message = re.escape(f"not a formula node: {self.BAD!r}")
        with pytest.raises(TypeError, match=message):
            list(iter_nodes(tree))
        with pytest.raises(TypeError, match=message):
            continuous_length(unwrap(tree))
        with pytest.raises(TypeError, match=message):
            to_pnf(tree, self.TABLE)
        with pytest.raises(TypeError, match=message):
            _op_paths(tree)
        with pytest.raises(TypeError, match=message):
            _domains(tree, 0, GRID1, 10)

    @pytest.mark.parametrize("tree", [
        And((Pred(0), AllTime(Pred(0)))),
        Always(OneTime(Pred(0), 1.0), 0.0, 2.0),
    ], ids=repr)
    def test_wrapper_below_the_root_is_not_a_node_to_domains(self, tree):
        inner = next(node for node in iter_nodes(tree) if isinstance(node, (AllTime, OneTime)))
        with pytest.raises(TypeError, match=re.escape(f"not a formula node: {inner!r}")):
            _domains(tree, 0, GRID1, 10)
