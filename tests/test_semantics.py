"""Robustness semantics against spec examples and independent oracles."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semantics_reference as oracle
from stlmpc import semantics
from stlmpc import (
    AllTime,
    Always,
    And,
    EmptyWindowError,
    Eventually,
    Not,
    OneTime,
    Or,
    Pred,
    PredicateTable,
    SamplingGrid,
    ScheduleInfeasibleError,
    Signal,
    SignalTooShortError,
    TrueNode,
    Until,
    collect_event_ops,
    compute_schedule,
    discrete_length,
    domain_of_influence,
    eval_bool,
    eval_dasr,
    eval_dsasr,
    eval_sr,
    parse,
    prd,
    robustness_degree_axis,
    to_pnf,
    unwrap,
)
from stlmpc.stl import iter_nodes, omega, predicate_ids

from conftest import (
    bool_direct,
    dasr_direct,
    random_pred_table,
    random_signal,
    random_theta,
    sr_direct,
)

GRID1 = SamplingGrid(1.0)
ID1 = PredicateTable([[1.0]], [0.0])          # z = x1


def sig(*values: float) -> Signal:
    return Signal(np.array([[v] for v in values]), GRID1)


class TestEvalBool:
    def test_constant_always(self):
        f, table = parse("G[0,5](x1 >= 1)")
        s = sig(*([2.0] * 6))
        assert eval_bool(s, 0, f, table) is True

    def test_until_with_witness(self):
        f = Until(TrueLike(), Pred(0), 1.0, 2.0)
        table = PredicateTable([[1.0]], [-1.0])   # x1 - 1
        s = sig(0.0, 0.0, 3.0, 0.0)
        assert eval_bool(s, 0, f, table) is True

    def test_eventually_false(self):
        f, table = parse("F[0,3](x1 >= 0)")
        s = sig(-1.0, -1.0, -1.0, -1.0)
        assert eval_bool(s, 0, f, table) is False

    def test_too_short_signal(self):
        f, table = parse("G[0,5](x1 >= 1)")
        with pytest.raises(SignalTooShortError):
            eval_bool(sig(1.0, 1.0), 0, f, table)


def TrueLike():
    from stlmpc import TrueNode

    return TrueNode()


class TestEvalSr:
    def test_constant_always(self):
        f = Always(Pred(0), 0.0, 4.0)
        assert eval_sr(sig(*([2.5] * 5)), 0, f, ID1) == 2.5

    def test_always_is_min(self):
        f = Always(Pred(0), 0.0, 2.0)
        assert eval_sr(sig(5.0, 3.0, 1.0), 0, f, ID1) == 1.0

    def test_eventually_is_max(self):
        f = Eventually(Pred(0), 0.0, 2.0)
        assert eval_sr(sig(5.0, 3.0, 1.0), 0, f, ID1) == 5.0


class TestEvalDasr:
    def test_constant_always(self):
        f = Always(Pred(0), 0.0, 4.0)
        assert eval_dasr(sig(*([2.5] * 5)), 0, f, ID1) == 2.5

    def test_always_is_mean(self):
        f = Always(Pred(0), 0.0, 2.0)
        assert eval_dasr(sig(5.0, 3.0, 1.0), 0, f, ID1) == pytest.approx(3.0)

    def test_until_averages_left_operand(self):
        f = Until(Pred(0), Pred(1), 1.0, 1.0)
        table = PredicateTable([[1.0], [1.0]], [0.0, -2.0])
        value = eval_dasr(sig(0.0, 4.0), 0, f, table)
        assert value == pytest.approx(0.5 * ((0.0 + 4.0) / 2 + 2.0))


class TestEvalDsasr:
    def test_always_only_equals_dasr(self):
        f, table = parse("G[144,216](x1 >= 1) & G[372,444](x1 >= 1)", n_states=2)
        rng = random.Random(5)
        s = Signal(np.array([[rng.uniform(0, 4), 0.0] for _ in range(38)]),
                   SamplingGrid(12.0))
        assert eval_dsasr(s, 0, f, table, None) == eval_dasr(s, 0, f, table)

    def test_optimal_witness_recovers_dasr(self):
        f = Eventually(Pred(0), 0.0, 2.0)
        s = sig(5.0, 3.0, 1.0)
        assert eval_dsasr(s, 0, f, ID1, lambda i, k: 0) == eval_dasr(s, 0, f, ID1)

    def test_scheduled_witness_is_used(self):
        f = Eventually(Pred(0), 0.0, 2.0)
        assert eval_dsasr(sig(5.0, 3.0, 1.0), 0, f, ID1, lambda i, k: 2) == 1.0

    def test_witness_outside_window_rejected(self):
        f = Eventually(Pred(0), 0.0, 2.0)
        with pytest.raises(ValueError):
            eval_dsasr(sig(5.0, 3.0, 1.0, 1.0), 0, f, ID1, lambda i, k: 3)

    def test_g_only_random_equivalence(self):
        rng = random.Random(11)
        for _ in range(50):
            parts = tuple(Always(Pred(rng.randrange(2)), float(a), float(a + rng.randrange(3)))
                          for a in (rng.randrange(3), rng.randrange(3)))
            f = And(parts)
            table = random_pred_table(rng, 2, 1)
            s = random_signal(rng, discrete_length(f, GRID1) + 1)
            assert eval_dsasr(s, 0, f, table, None) == pytest.approx(
                eval_dasr(s, 0, f, table))


class TestDomainOfInfluence:
    def test_always_window(self):
        f, _ = parse("G[144,216](x1 >= 1)")
        assert domain_of_influence(f, 0, 0, SamplingGrid(12.0)) == tuple(range(12, 19))

    def test_bare_predicate(self):
        f = Pred(0)
        assert domain_of_influence(f, 3, 0, GRID1) == (3,)

    def test_until_operand_domains(self):
        f = Until(Pred(0), Pred(1), 5.0, 15.0)
        assert domain_of_influence(f, 0, 0, GRID1) == tuple(range(0, 16))
        assert domain_of_influence(f, 0, 1, GRID1) == tuple(range(5, 16))

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            domain_of_influence(Pred(0), 0, 7, GRID1)


class TestPrd:
    def test_sum_of_positive_margins(self):
        f = Always(Pred(0), 0.0, 2.0)
        assert prd(sig(0.5, 0.5, 0.5), f, 0, ID1) == pytest.approx(1.5)

    def test_boundary_signal(self):
        f = Always(Pred(0), 0.0, 2.0)
        assert prd(sig(0.0, 0.0, 0.0), f, 0, ID1) == 0.0

    def test_negative_branch(self):
        f = Always(Pred(0), 0.0, 2.0)
        assert prd(sig(-1.0, 2.0, -0.5), f, 0, ID1) == pytest.approx(-1.5)

    def test_requires_pnf(self):
        f = Always(Not(Pred(0)), 0.0, 2.0)
        with pytest.raises(ValueError):
            prd(sig(0.0, 0.0, 0.0), f, 0, ID1)

    def test_additive_over_disjoint_conjuncts(self):
        rng = random.Random(13)
        table = PredicateTable([[1.0, 0.0], [0.0, 1.0]], [0.0, -0.25])
        f1 = Always(Pred(0), 0.0, 2.0)
        f2 = Eventually(Pred(1), 4.0, 5.0)
        both = And((f1, f2))
        for _ in range(25):
            s = Signal(np.array([[rng.uniform(0.1, 3), rng.uniform(0.5, 3)]
                                 for _ in range(6)]), GRID1)
            assert prd(s, both, 0, table) == pytest.approx(
                prd(s, f1, 0, table) + prd(s, f2, 0, table))


class TestRobustnessDegreeAxis:
    def test_constant_margin(self):
        f = Always(Pred(0), 0.0, 3.0)
        table = PredicateTable([[1.0]], [-1.0])
        assert robustness_degree_axis(sig(*([2.5] * 4)), f, 0, table) == pytest.approx(1.5)

    def test_unsupported_operator(self):
        f = Eventually(Pred(0), 0.0, 3.0)
        with pytest.raises(ValueError):
            robustness_degree_axis(sig(1.0, 1.0, 1.0, 1.0), f, 0, ID1)

    def test_non_axis_aligned_predicate(self):
        f = Always(Pred(0), 0.0, 1.0)
        table = PredicateTable([[1.0, 1.0]], [0.0])
        s = Signal(np.ones((2, 2)), GRID1)
        with pytest.raises(ValueError):
            robustness_degree_axis(s, f, 0, table)

    def test_coincides_with_sr_on_fragment(self):
        rng = random.Random(17)
        table = PredicateTable([[1.0], [-1.0]], [0.0, 4.0])
        for _ in range(50):
            parts = tuple(Always(Pred(rng.randrange(2)), float(a), float(a + rng.randrange(3)))
                          for a in (rng.randrange(2), rng.randrange(3)))
            f = And(parts)
            s = random_signal(rng, discrete_length(f, GRID1) + 1)
            assert robustness_degree_axis(s, f, 0, table) == pytest.approx(
                eval_sr(s, 0, f, table))


class TestBruteForceEquivalence:
    """Recursions match direct-from-definition evaluators, exhaustively."""

    FORMULAS = [
        Always(Pred(0), 0.0, 3.0),
        Eventually(Pred(0), 1.0, 3.0),
        Until(Pred(0), Pred(1), 0.0, 2.0),
        Until(Not(Pred(0)), Pred(1), 1.0, 3.0),
        And((Always(Pred(0), 0.0, 2.0), Eventually(Pred(1), 0.0, 3.0))),
        Or((Until(Pred(0), Pred(1), 0.0, 3.0), Always(Not(Pred(1)), 1.0, 2.0))),
    ]

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_exhaustive_three_valued_signals(self, formula):
        table = PredicateTable([[1.0], [-1.0]], [0.0, 0.5])
        hd = discrete_length(formula, GRID1)
        for length in range(hd + 1, 7):
            for values in itertools.product((-1.0, 0.0, 1.0), repeat=length):
                s = Signal(np.array([[v] for v in values]), GRID1)
                z = s.predicate_values(table)
                assert eval_sr(s, 0, formula, table) == pytest.approx(
                    sr_direct(z, 0, formula, 1.0))
                assert eval_dasr(s, 0, formula, table) == pytest.approx(
                    dasr_direct(z, 0, formula, 1.0))
                assert eval_bool(s, 0, formula, table) == bool_direct(z, 0, formula, 1.0)


class TestSoundnessAndOrderings:
    def test_sr_sign_decides_satisfaction(self):
        rng = random.Random(23)
        for _ in range(500):
            f = random_theta(rng, 3)
            table = random_pred_table(rng, 3, 2)
            s = random_signal(rng, discrete_length(f, GRID1) + 1, n_states=2)
            rho = eval_sr(s, 0, f, table)
            sat = eval_bool(s, 0, f, table)
            if rho > 0:
                assert sat is True
            elif rho < 0:
                assert sat is False

    def test_always_mean_dominates_min(self):
        rng = random.Random(29)
        for _ in range(100):
            a = rng.randrange(4)
            f = Always(Pred(0), float(a), float(a + rng.randrange(4)))
            s = random_signal(rng, discrete_length(f, GRID1) + 1)
            assert eval_dasr(s, 0, f, ID1) >= eval_sr(s, 0, f, ID1) - 1e-12

    def test_eventually_mean_equals_max(self):
        rng = random.Random(31)
        for _ in range(100):
            a = rng.randrange(4)
            f = Eventually(Pred(0), float(a), float(a + rng.randrange(4)))
            s = random_signal(rng, discrete_length(f, GRID1) + 1)
            assert eval_dasr(s, 0, f, ID1) == eval_sr(s, 0, f, ID1)


def _shifted_table(table: PredicateTable, zeta: np.ndarray) -> PredicateTable:
    return PredicateTable(table.C.copy(), table.c + zeta, table.names)


class TestMonotonicityProperties:
    def _schedule_for(self, f):
        windows = collect_event_ops(f)
        return compute_schedule(windows, GRID1) if windows else None

    def _schedulable(self, rng, n_preds, max_conjuncts=3):
        from stlmpc import ScheduleInfeasibleError

        while True:
            f = random_theta(rng, n_preds, max_conjuncts=max_conjuncts, allow_not=False)
            try:
                self._schedule_for(f)
            except ScheduleInfeasibleError:
                continue
            return f

    def test_uniform_predicate_shift_increases_robustness(self):
        # positive shifts of every predicate raise all three semantics by at
        # least the smallest shift (formulas in positive normal form)
        rng = random.Random(37)
        for _ in range(500):
            f = self._schedulable(rng, 3)
            table = random_pred_table(rng, 3, 2)
            s = random_signal(rng, discrete_length(f, GRID1) + 1, n_states=2)
            zeta = np.array([rng.uniform(0.05, 1.5) for _ in range(3)])
            shifted = _shifted_table(table, zeta)
            sched = self._schedule_for(f)
            zmin = zeta.min()
            base = (eval_sr(s, 0, f, table), eval_dasr(s, 0, f, table),
                    eval_dsasr(s, 0, f, table, sched))
            lifted = (eval_sr(s, 0, f, shifted), eval_dasr(s, 0, f, shifted),
                      eval_dsasr(s, 0, f, shifted, sched))
            for lo, hi in zip(base, lifted):
                assert hi > lo
                assert hi - lo >= zmin - 1e-9

    def test_elementwise_ordered_signals_are_ordered(self):
        # analog over predicate traces: if every predicate of one signal
        # dominates the other's over the horizon, robustness follows with a
        # gap of at least the minimal predicate gap
        rng = random.Random(41)
        for _ in range(200):
            f = self._schedulable(rng, 2)
            table = random_pred_table(rng, 2, 2)
            hd = discrete_length(f, GRID1)
            s1 = random_signal(rng, hd + 1, n_states=2)
            z1 = s1.predicate_values(table)
            gap = np.array([[rng.uniform(0.05, 1.0) for _ in range(2)]
                            for _ in range(hd + 1)])
            z2 = z1 + gap
            # realize z2 by an explicit custom predicate trace signal: use an
            # identity table over a synthetic 2-state signal carrying z rows
            synth_table = PredicateTable(np.eye(2), [0.0, 0.0])
            sA = Signal(z1, GRID1)
            sB = Signal(z2, GRID1)
            sched = self._schedule_for(f)
            dmin = gap.min()
            for evaluate in (
                lambda sg: eval_sr(sg, 0, f, synth_table),
                lambda sg: eval_dasr(sg, 0, f, synth_table),
                lambda sg: eval_dsasr(sg, 0, f, synth_table, sched),
            ):
                lo, hi = evaluate(sA), evaluate(sB)
                assert hi > lo
                assert hi - lo >= dmin - 1e-9


# ---------------------------------------------------------------------------
# Array-at-a-time evaluation against the time-recursive oracle


def _with_true(rng: random.Random, g):
    """g with some un-negated predicates replaced by ``true``."""
    if isinstance(g, Pred):
        return TrueNode() if rng.random() < 0.15 else g
    if isinstance(g, (And, Or)):
        return type(g)(tuple(_with_true(rng, ch) for ch in g.children))
    if isinstance(g, Until):
        return Until(_with_true(rng, g.left), _with_true(rng, g.right), g.a, g.b)
    if isinstance(g, (Eventually, Always)):
        return type(g)(_with_true(rng, g.child), g.a, g.b)
    return g


def _nested(rng: random.Random, n_preds: int, depth: int):
    """Formula with temporal operators nested ``depth`` deep (outside the control fragment)."""
    if depth == 0:
        return _with_true(rng, random_theta(rng, n_preds, max_end=3))
    a = rng.randrange(3)
    b = float(rng.randrange(a, 4))
    kind = rng.randrange(4)
    if kind == 0:
        return Until(_nested(rng, n_preds, depth - 1), _nested(rng, n_preds, depth - 1), float(a), b)
    if kind == 3:
        return And((_nested(rng, n_preds, depth - 1), Not(_nested(rng, n_preds, depth - 1))))
    return (Eventually, Always)[kind - 1](_nested(rng, n_preds, depth - 1), float(a), b)


def _wrapped(rng: random.Random, f):
    r = rng.random()
    if r < 0.35:
        return AllTime(f)
    if r < 0.6:
        return OneTime(f, float(rng.randrange(3)))
    return f


def _signed_zero_signal(rng: random.Random, length: int, n_states: int) -> Signal:
    data = [[rng.choice((0.0, -0.0, 1.0, rng.uniform(-3, 3))) for _ in range(n_states)]
            for _ in range(length)]
    if rng.random() < 0.1:
        data[rng.randrange(length)][0] = math.nan
    return Signal(np.array(data), GRID1)


def _zero_offset_table(rng: random.Random, n_preds: int, n_states: int) -> PredicateTable:
    """Unit-normal predicates with signed-zero offsets, so margins can be +-0.0."""
    rows = []
    for _ in range(n_preds):
        row = [0.0] * n_states
        row[rng.randrange(n_states)] = rng.choice((1.0, -1.0))
        rows.append(row)
    return PredicateTable(rows, [rng.choice((0.0, -0.0)) for _ in range(n_preds)])


def _in_window_schedule(f, consulted: list):
    """Callable witness provider that stays inside each operator's window."""
    bases = [omega(a, b, GRID1) for a, b in collect_event_ops(unwrap(f))]

    def k1(op: int, kk: int) -> int:
        consulted.append((op, kk))
        base = bases[op]
        return kk + base.start + (3 * op + kk) % len(base)
    return k1


def _consulted_as_visited(f) -> bool:
    """Whether eval_dsasr consults a callable at exactly the pairs the
    definitions visit: no eventually/until sits below an eventually or an
    until's right operand, whose spans run from the first witness to the last."""
    return not any(isinstance(below, (Eventually, Until))
                   for node in iter_nodes(f) if isinstance(node, (Eventually, Until))
                   for below in iter_nodes(node.child if isinstance(node, Eventually)
                                           else node.right))


def _assert_consulted(f, seen_new: list, seen_old: list) -> None:
    """Each pair once; the visited pairs exactly, or a superset where allowed."""
    assert len(seen_new) == len(set(seen_new))
    if _consulted_as_visited(f):
        assert set(seen_new) == set(seen_old)
    else:
        assert set(seen_new) >= set(seen_old)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # compared by type and text
        return "raised", type(exc), str(exc)
    return "value", repr(bool(value) if isinstance(value, np.bool_) else value)


def _assert_matches_oracle(rng: random.Random, f, n_preds: int, k: int) -> None:
    n_states = rng.randrange(1, 3)
    table = (_zero_offset_table(rng, n_preds, n_states) if rng.random() < 0.5
             else random_pred_table(rng, n_preds, n_states))
    hd = discrete_length(unwrap(f), GRID1)
    s = _signed_zero_signal(rng, k + hd + 1 + rng.randrange(6)
                            + (3 if isinstance(f, OneTime) else 0), n_states)
    for name in ("eval_bool", "eval_sr", "eval_dasr"):
        assert _outcome(getattr(oracle, name), s, k, f, table) == _outcome(
            getattr(semantics, name), s, k, f, table), name

    windows = collect_event_ops(unwrap(f))
    try:
        sched = compute_schedule(windows, GRID1) if windows else None
    except ScheduleInfeasibleError:
        sched = None
    if sched is not None or not windows:
        assert _outcome(oracle.eval_dsasr, s, k, f, table, sched) == _outcome(
            eval_dsasr, s, k, f, table, sched)
    seen_old, seen_new = [], []
    assert _outcome(oracle.eval_dsasr, s, k, f, table, _in_window_schedule(f, seen_old)) == \
        _outcome(eval_dsasr, s, k, f, table, _in_window_schedule(f, seen_new))
    _assert_consulted(f, seen_new, seen_old)

    try:
        pnf, ptable = to_pnf(f, table)
    except ValueError:
        pnf, ptable = f, table
    assert _outcome(oracle.prd, s, pnf, k, ptable) == _outcome(prd, s, pnf, k, ptable)
    for pid in predicate_ids(pnf):
        for horizon in (s.last_index, s.last_index - 2):
            assert _outcome(oracle.domain_of_influence, pnf, k, pid, GRID1, horizon) == \
                _outcome(domain_of_influence, pnf, k, pid, GRID1, horizon)


def _axis_formula(rng: random.Random, n_preds: int):
    """Conjunction of always-operators and bare predicates (the rd fragment)."""
    parts = []
    for _ in range(rng.randrange(1, 4)):
        p = Pred(rng.randrange(n_preds))
        if rng.random() < 0.75:
            a = rng.randrange(4)
            parts.append(Always(p, float(a), float(a + rng.randrange(4))))
        else:
            parts.append(p)
    return parts[0] if len(parts) == 1 else And(tuple(parts))


class TestMatchesTimeRecursion:
    """Every readout equals the time-recursive oracle bit for bit (by repr),
    and raises the same exception type with the same text."""

    @settings(max_examples=250, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from((0, 0, 1, 3)))
    def test_random_theta(self, seed, k):
        rng = random.Random(seed)
        n_preds = rng.randrange(1, 4)
        f = _with_true(rng, random_theta(rng, n_preds))
        _assert_matches_oracle(rng, _wrapped(rng, f), n_preds, k)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from((0, 2)))
    def test_nested_temporal_operators(self, seed, k):
        rng = random.Random(seed)
        f = _wrapped(rng, _nested(rng, 2, rng.randrange(1, 3)))
        _assert_matches_oracle(rng, f, 2, k)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from((0, 1, 4)))
    def test_axis_robustness_degree(self, seed, k):
        rng = random.Random(seed)
        n_preds = rng.randrange(1, 4)
        f = _wrapped(rng, _axis_formula(rng, n_preds))
        table = _zero_offset_table(rng, n_preds, 2)
        hd = discrete_length(unwrap(f), GRID1)
        s = _signed_zero_signal(rng, k + hd + 4 + rng.randrange(4), 2)
        assert _outcome(oracle.robustness_degree_axis, s, f, k, table) == _outcome(
            robustness_degree_axis, s, f, k, table)

    @pytest.mark.parametrize("values", [
        (math.nan, 0.0, -0.0, 0.0, -0.0, math.nan, 0.0),
        (0.0, -0.0, 1.0, math.nan, -0.0, 0.0, 2.0),
    ])
    def test_nan_and_signed_zero_ties(self, values):
        table = PredicateTable([[1.0], [-1.0]], [-0.0, -0.0])
        s = sig(*values)
        for f in (AllTime(Always(Pred(1), 0.0, 1.0)), AllTime(Eventually(Pred(0), 0.0, 2.0)),
                  AllTime(Until(Pred(0), Pred(1), 0.0, 2.0)), Always(Pred(0), 1.0, 4.0),
                  AllTime(And((Pred(0), Pred(1))))):
            for name in ("eval_sr", "eval_dasr", "robustness_degree_axis"):
                args = ((s, f, 0, table) if name == "robustness_degree_axis"
                        else (s, 0, f, table))
                assert _outcome(getattr(oracle, name), *args) == _outcome(
                    getattr(semantics, name), *args), (name, f)


def _parity(call, *args):
    """Both evaluators raise, with the same exception type and text."""
    old = _outcome(getattr(oracle, call), *args)
    assert old[0] == "raised"
    assert _outcome(getattr(semantics, call), *args) == old


class TestErrorParity:
    def test_signal_too_short(self):
        f = AllTime(Until(Pred(0), Pred(0), 1.0, 3.0))
        for call in ("eval_bool", "eval_sr", "eval_dasr"):
            _parity(call, sig(1.0, 2.0), 0, f, ID1)
        _parity("eval_dsasr", sig(1.0, 2.0), 0, f, ID1, lambda i, k: k + 1)
        _parity("prd", sig(1.0, 2.0), f, 0, ID1)

    def test_negative_evaluation_index(self):
        f = Always(Pred(0), 0.0, 1.0)
        for call in ("eval_bool", "eval_sr", "eval_dasr"):
            _parity(call, sig(1.0, 2.0, 3.0), -1, f, ID1)
        _parity("eval_dsasr", sig(1.0, 2.0, 3.0), -1, f, ID1, None)

    def test_event_before_evaluation_index(self):
        f = OneTime(Always(Pred(0), 0.0, 1.0), 1.0)
        _parity("eval_bool", sig(*([1.0] * 8)), 2, f, ID1)

    # G[0,inf](G[0,3](x1 >= 0)) and event => G[0,3](x1 >= 0) with the event at step 2
    ANCHORED = {"all-time": AllTime(Always(Pred(0), 0.0, 3.0)),
                "one-time": OneTime(Always(Pred(0), 0.0, 3.0), 2.0)}

    @pytest.mark.parametrize("case, samples, k, error, text", [
        ("all-time", 8, -1, ValueError, "negative evaluation index -1"),
        ("one-time", 8, -3, ValueError, "negative evaluation index -3"),
        ("one-time", 8, 3, ValueError, "event index 2 lies before evaluation index 3"),
        ("one-time", 8, 4, ValueError, "event index 2 lies before evaluation index 4"),
        # the order: a negative k, an event before k, a short signal
        ("one-time", 2, -1, ValueError, "negative evaluation index -1"),
        ("one-time", 2, 3, ValueError, "event index 2 lies before evaluation index 3"),
        ("all-time", 3, 0, SignalTooShortError,
         "evaluating at k=0 needs samples up to k=3, signal ends at k=2"),
        ("one-time", 3, 0, SignalTooShortError,
         "evaluating at k=0 needs samples up to k=5, signal ends at k=2"),
    ])
    def test_every_readout_takes_its_anchors_by_one_rule(self, case, samples, k, error, text):
        f, s = self.ANCHORED[case], sig(*([1.0] * samples))
        calls = {"eval_bool": (s, k, f, ID1), "eval_sr": (s, k, f, ID1),
                 "eval_dasr": (s, k, f, ID1), "eval_dsasr": (s, k, f, ID1, None),
                 "prd": (s, f, k, ID1), "robustness_degree_axis": (s, f, k, ID1),
                 "domain_of_influence": (f, k, 0, GRID1, s.last_index)}
        for call, args in calls.items():
            assert _outcome(getattr(semantics, call), *args) == ("raised", error, text), call
            assert _outcome(getattr(oracle, call), *args) == ("raised", error, text), call

    def test_domains_without_a_horizon_take_the_anchor_rule(self):
        f = self.ANCHORED["one-time"]
        for k, text in ((-1, "negative evaluation index -1"),
                        (3, "event index 2 lies before evaluation index 3")):
            for fn in (domain_of_influence, oracle.domain_of_influence):
                assert _outcome(fn, f, k, 0, GRID1) == ("raised", ValueError, text)
        assert domain_of_influence(f, 2, 0, GRID1) == (2, 3, 4, 5)

    @pytest.mark.parametrize("f, k1", [
        (Eventually(Pred(0), 1.0, 2.0), lambda i, k: k + 3),
        # misses the windows first at anchor 2, for operator 0
        (AllTime(And((Always(Pred(0), 0.0, 1.0), Until(Pred(0), Pred(0), 1.0, 2.0),
                      Eventually(Pred(0), 0.0, 1.0)))),
         lambda i, k: k + 1 - i + 5 * (k % 3 == 2)),
    ])
    def test_scheduled_witness_outside_window(self, f, k1):
        s = sig(*([1.0] * 9))
        _parity("eval_dsasr", s, 0, f, ID1, k1)
        # a schedule computed for other windows
        other = compute_schedule([(3.0, 4.0)] * len(collect_event_ops(unwrap(f))), GRID1)
        _parity("eval_dsasr", s, 0, f, ID1, other)

    def test_schedule_that_raises(self):
        f = AllTime(And((Eventually(Pred(0), 0.0, 2.0), Eventually(Pred(0), 1.0, 2.0))))
        s = sig(*([1.0] * 8))

        def k1(op, k, raises=True, misses=True):
            if raises and (op, k) == (1, 2):
                raise KeyError("no witness")
            return k + 1 if not misses or (op, k) != (0, 3) else k + 9

        # operator 1 raises at anchor 2, before operator 0 misses its window
        # at anchor 3 in visit order; operator 0 comes first in document order
        assert _outcome(eval_dsasr, s, 0, f, ID1, k1) == (
            "raised", ValueError, "scheduled k1=12 outside window [3, 4, 5] of operator at (0, 0)")
        # either failure alone
        _parity("eval_dsasr", s, 0, f, ID1, lambda op, k: k1(op, k, misses=False))
        _parity("eval_dsasr", s, 0, f, ID1, lambda op, k: k1(op, k, raises=False))

    def test_prd_rejects_negation(self):
        _parity("prd", sig(0.0, 0.0, 0.0), Always(Not(Pred(0)), 0.0, 2.0), 0, ID1)

    @pytest.mark.parametrize("f", [
        Eventually(Pred(0), 0.0, 1.0),
        Always(Not(Pred(0)), 0.0, 1.0),
        And((Always(Pred(0), 0.0, 1.0), Or((Pred(0), Pred(0))))),
        AllTime(And((Pred(0), Until(Pred(0), Pred(0), 0.0, 1.0)))),
    ])
    def test_rd_unsupported_shape(self, f):
        _parity("robustness_degree_axis", sig(1.0, 1.0, 1.0, 1.0), f, 0, ID1)

    def test_rd_non_unit_normal(self):
        table = PredicateTable([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]], [0.0, 0.0, 0.0])
        f = AllTime(And((Always(Pred(0), 0.0, 1.0), Always(Pred(2), 0.0, 1.0), Pred(1))))
        _parity("robustness_degree_axis", Signal(np.ones((4, 2)), GRID1), f, 0, table)

    def test_empty_window(self):
        grid = SamplingGrid(2.0)
        s = Signal(np.ones((6, 1)), grid)
        f = And((Always(Pred(0), 0.0, 2.0), Eventually(Pred(0), 1.0, 1.0)))
        for call in ("eval_bool", "eval_sr", "eval_dasr"):
            _parity(call, s, 0, f, ID1)
        _parity("eval_dsasr", s, 0, f, ID1, lambda i, k: k)

    @pytest.mark.parametrize("k1", [
        lambda i, k: k + 9 * (k == 2),     # misses at anchor 2, after the empty window
        lambda i, k: k + 9,                # misses at anchor 0, before it
    ])
    def test_first_error_in_visit_order(self, k1):
        # the eventually precedes the always in document order, so its miss
        # is raised wherever it lies; the definitions meet the always's empty
        # window at anchor 0 first
        s = Signal(np.ones((8, 1)), SamplingGrid(2.0))
        f = AllTime(And((Eventually(Pred(0), 0.0, 4.0), Always(Pred(0), 1.0, 1.0))))
        miss = next(k for k in range(4) if k1(0, k) != k)
        assert _outcome(eval_dsasr, s, 0, f, ID1, k1) == (
            "raised", ValueError,
            f"scheduled k1={miss + 9} outside window {[miss, miss + 1, miss + 2]} "
            "of operator at (0, 0)")

    def test_first_error_in_document_order(self):
        # the until misses its window at anchor 5 and the eventually in its
        # left operand at step 1, which the definitions meet first (from
        # anchor 0); the until comes first in document order, a node before
        # its children
        f = AllTime(Until(Eventually(Pred(0), 0.0, 1.0), Pred(0), 1.0, 2.0))
        s = sig(*([1.0] * 12))

        def k1(op, k, until_misses=True):
            return k + 1 + 9 * ((op, k) == (1, 1) or until_misses and (op, k) == (0, 5))

        assert _outcome(eval_dsasr, s, 0, f, ID1, k1) == (
            "raised", ValueError, "scheduled k1=15 outside window [6, 7] of operator at (0,)")
        assert _outcome(oracle.eval_dsasr, s, 0, f, ID1, k1) == (
            "raised", ValueError, "scheduled k1=11 outside window [1, 2] of operator at (0, 0)")
        _parity("eval_dsasr", s, 0, f, ID1, lambda op, k: k1(op, k, until_misses=False))

    def test_bool_reports_empty_windows_past_a_false_conjunct(self):
        # the time recursion stops at the false first conjunct; every node is
        # evaluated now, so the empty window of the second one raises
        s = Signal(-np.ones((6, 1)), SamplingGrid(2.0))
        f = And((Pred(0), Eventually(Pred(0), 1.0, 1.0)))
        assert oracle.eval_bool(s, 0, f, ID1) is False
        with pytest.raises(ValueError, match="contains no multiple"):
            eval_bool(s, 0, f, ID1)


class TestScheduleConsultation:
    """A callable schedule is consulted once at every anchor of each
    eventually/until's span: the pairs the definitions visit (checked by
    ``_assert_consulted`` on every formula of ``TestMatchesTimeRecursion``),
    and more where a span runs from an eventually's first witness to its last."""

    @pytest.mark.parametrize("f", [
        AllTime(Eventually(Eventually(Pred(0), 0.0, 1.0), 0.0, 4.0)),
        AllTime(Until(Pred(0), Eventually(Pred(0), 0.0, 1.0), 0.0, 4.0)),
    ])
    def test_a_span_below_an_eventually_is_consulted_throughout(self, f):
        # operator 0 picks k at even anchors and k+4 at odd ones, so no
        # witness falls on step 1 or 3
        def k1(op, k, seen):
            seen.append((op, k))
            return k + 4 * (k % 2) if op == 0 else k

        s = sig(*(float(v % 5) for v in range(20)))
        seen_old, seen_new = [], []
        assert oracle.eval_dsasr(s, 0, f, ID1, lambda op, k: k1(op, k, seen_old)) == \
            eval_dsasr(s, 0, f, ID1, lambda op, k: k1(op, k, seen_new))
        assert not _consulted_as_visited(f)
        assert len(seen_new) == len(set(seen_new)) and set(seen_new) > set(seen_old)
        assert {(1, 1), (1, 3)} <= set(seen_new) - set(seen_old)


# ---------------------------------------------------------------------------
# Long signals: windows read from one span, folds in place

LONG_TABLE = PredicateTable([[1.0], [-1.0]], [-0.0, -0.0])   # z = (x, -x)


def _long_signal(rng: random.Random, length: int, nans: int) -> Signal:
    """Ties and zeros throughout, and ``nans`` NaN samples.  A zero sample
    gives +0.0 margins, which a negation turns into -0.0."""
    values = [rng.choice((0.0, -0.0, 1.0, -1.0, 0.5, rng.uniform(-2, 2), rng.uniform(-2, 2)))
              for _ in range(length)]
    for i in rng.sample(range(length), nans):
        values[i] = math.nan
    return Signal(np.array(values)[:, None], GRID1)


class TestLongSignals:
    """Long recordings against the time-recursive oracle, bit for bit."""

    FORMULAS = [
        # until left operands without witnesses: one span per until
        AllTime(Until(Not(Pred(1)), Pred(1), 4.0, 14.0)),
        AllTime(And((Always(Not(Pred(0)), 1.0, 4.0),
                     Until(Or((Pred(0), Not(Pred(0)))), Not(Pred(1)), 0.0, 3.0)))),
        # the until is visited at repeated, unordered anchors
        AllTime(Always(Until(Not(Pred(0)), Pred(1), 0.0, 2.0), 0.0, 3.0)),
        AllTime(Eventually(Until(Pred(1), Not(Pred(1)), 1.0, 3.0), 0.0, 2.0)),
        # an eventually in the until left operand: evaluated visit by visit
        AllTime(Until(Eventually(Not(Pred(0)), 0.0, 2.0), Pred(1), 1.0, 4.0)),
        # a fold that wrote into a predicate's values would change what the
        # always-operator reads
        AllTime(And((Pred(0), Not(Pred(0)), Always(Pred(0), 1.0, 3.0)))),
    ]

    @pytest.mark.parametrize("nans", [0, 4])
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_matches_the_oracle(self, formula, nans):
        s = _long_signal(random.Random(1000 + nans), 1100, nans)
        z = s.predicate_values(LONG_TABLE)
        assert (z == 0.0).sum() > 100 and np.isnan(z).sum() == 2 * nans
        for name in ("eval_sr", "eval_dasr"):
            assert _outcome(getattr(oracle, name), s, 0, formula, LONG_TABLE) == _outcome(
                getattr(semantics, name), s, 0, formula, LONG_TABLE), name
        seen_old, seen_new = [], []
        assert _outcome(oracle.eval_dsasr, s, 0, formula, LONG_TABLE,
                        _in_window_schedule(formula, seen_old)) == \
            _outcome(eval_dsasr, s, 0, formula, LONG_TABLE, _in_window_schedule(formula, seen_new))
        _assert_consulted(formula, seen_new, seen_old)

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_every_anchor_matches(self, formula):
        # a mean over a thousand anchors can hide a one-ulp difference at one
        # of them, so the array evaluators are compared anchor by anchor
        s = _long_signal(random.Random(2000), 1100, 4)
        z = s.predicate_values(LONG_TABLE)
        g = unwrap(formula)
        n = s.last_index - discrete_length(g, GRID1) + 1
        k1_of = _in_window_schedule(formula, [])
        paths = semantics._op_paths(formula)
        with np.errstate(all="ignore"):
            new = {"eval_sr": semantics._eval(g, 0, n, z, GRID1, semantics._SR),
                   "eval_dasr": semantics._eval(g, 0, n, z, GRID1, semantics._DASR),
                   "eval_dsasr": semantics._eval(g, 0, n, z, GRID1,
                                                 semantics._dsasr(GRID1, k1_of, paths), (0,))}
        for name, values in new.items():
            extra = (k1_of,) if name == "eval_dsasr" else ()
            old = [getattr(oracle, name)(s, k, g, LONG_TABLE, *extra) for k in range(n)]
            assert list(map(repr, values.tolist())) == list(map(repr, old)), name

    @pytest.mark.parametrize("preset", ["two_tank_phi2", "two_tank_phi3"])
    def test_presets_every_anchor(self, preset):
        # the packaged formulas and their computed schedules, on a recording
        # with samples on the predicate thresholds
        from stlmpc import cli

        cfg = cli.ScenarioConfig.from_file(cli.preset_path(preset))
        grid = cfg.system.grid
        sched = compute_schedule(collect_event_ops(unwrap(cfg.formula)), grid)
        rng = random.Random(3000)
        s = Signal(np.array([[rng.choice((0.0, 2.0, 4.0, 5.0, rng.uniform(-1, 6))),
                              rng.choice((2.5, rng.uniform(0, 4)))] for _ in range(1000)]), grid)
        z = s.predicate_values(cfg.table)
        g = unwrap(cfg.formula)
        n = s.last_index - discrete_length(g, grid) + 1
        with np.errstate(all="ignore"):
            new = semantics._eval(g, 0, n, z, grid, semantics._dsasr(
                grid, sched, semantics._op_paths(cfg.formula)), (0,))
        old = [oracle.eval_dsasr(s, k, g, cfg.table, sched) for k in range(n)]
        assert list(map(repr, new.tolist())) == list(map(repr, old))

    @pytest.mark.parametrize("formula", [
        # an eventually in the until left operand
        AllTime(Until(Eventually(Not(Pred(0)), 0.0, 2.0), Pred(1), 1.0, 4.0)),
        # an until inside an always
        AllTime(Always(Until(Not(Pred(0)), Pred(1), 0.0, 2.0), 0.0, 3.0)),
    ])
    def test_every_anchor_under_a_schedule(self, formula):
        s = _long_signal(random.Random(4000), 1100, 4)
        z = s.predicate_values(LONG_TABLE)
        g = unwrap(formula)
        n = s.last_index - discrete_length(g, GRID1) + 1
        sched = compute_schedule(collect_event_ops(g), GRID1)
        with np.errstate(all="ignore"):
            new = semantics._eval(g, 0, n, z, GRID1, semantics._dsasr(
                GRID1, sched, semantics._op_paths(formula)), (0,))
        old = [oracle.eval_dsasr(s, k, g, LONG_TABLE, sched) for k in range(n)]
        assert list(map(repr, new.tolist())) == list(map(repr, old))

    @pytest.mark.parametrize("values", [(0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0),
                                        (math.nan, 0.0, 0.0, 1.0), (0.0, 0.0, math.nan, 0.0)])
    def test_signed_zeros_at_one_anchor(self, values):
        # a single anchor keeps the sign of a zero result
        x = np.full(1200, 2.0)
        x[1000:1004] = values
        s = Signal(x[:, None], GRID1)
        for f in (Until(Not(Pred(1)), Pred(1), 0.0, 3.0), Until(Not(Pred(1)), Not(Pred(1)), 0.0, 3.0),
                  Always(Not(Pred(0)), 0.0, 3.0),
                  Eventually(Until(Pred(0), Not(Pred(0)), 0.0, 1.0), 0.0, 2.0)):
            for k in (0, 1000, 1001):
                for name in ("eval_sr", "eval_dasr"):
                    assert _outcome(getattr(oracle, name), s, k, f, LONG_TABLE) == _outcome(
                        getattr(semantics, name), s, k, f, LONG_TABLE), (name, f, k)
                assert _outcome(oracle.eval_dsasr, s, k, f, LONG_TABLE, lambda i, kk: kk + 1) == \
                    _outcome(eval_dsasr, s, k, f, LONG_TABLE, lambda i, kk: kk + 1), (f, k)

    @pytest.mark.parametrize("eventually_first", [False, True])
    @pytest.mark.parametrize("left, until_miss, eventually_miss", [
        (Pred(0), 1000, None),        # the until's witness leaves its window at a late anchor
        (Pred(0), 1000, 1100),
        (Pred(0), 1000, 900),         # the eventually misses first
        (Always(Pred(0), 1.0, 1.0), 1000, None),     # the left operand's empty window comes first
        (Always(Pred(0), 1.0, 1.0), None, 900),      # ... it is met at anchor 0
        (Always(Pred(0), 1.0, 1.0), 0, None),        # ... unless the until misses there
    ])
    def test_first_error_in_visit_order(self, left, until_miss, eventually_miss,
                                        eventually_first):
        # the error raised is the first failing node's in document order: the
        # until before its left operand, the and's children in order
        s = Signal(np.ones((1200, 1)), SamplingGrid(2.0))
        parts = (Until(left, Pred(0), 2.0, 8.0), Eventually(Pred(0), 0.0, 4.0))
        f = AllTime(And(parts[::-1] if eventually_first else parts))

        def k1(op, k):
            # in the windows [k+1, k+4] and [k, k+2] except at the misses
            if op == eventually_first:
                return k + 1 + k % 4 + 99 * (k == until_miss)
            return k + k % 3 + 99 * (k == eventually_miss)

        errors = []
        for i, part in enumerate(f.child.children):
            if isinstance(part, Until):
                if until_miss is not None:
                    u = until_miss
                    errors.append((ValueError, f"scheduled k1={u + 100 + u % 4} outside window "
                                   f"{list(range(u + 1, u + 5))} of operator at (0, {i})"))
                if isinstance(left, Always):
                    errors.append((EmptyWindowError,
                                   "interval [1.0, 1.0] contains no multiple of T=2.0"))
            elif eventually_miss is not None:
                e = eventually_miss
                errors.append((ValueError, f"scheduled k1={e + 99 + e % 3} outside window "
                               f"{[e, e + 1, e + 2]} of operator at (0, {i})"))
        assert _outcome(eval_dsasr, s, 0, f, ID1, k1) == ("raised", *errors[0])
        if len(errors) == 1:
            _parity("eval_dsasr", s, 0, f, ID1, k1)


# ---------------------------------------------------------------------------
# The predicate matrix a signal keeps


class TestPredicateMatrix:
    """A signal computes each table's predicate matrix once and keeps it read-only."""

    @pytest.mark.parametrize("text", ["G[0,inf](G[0,3](x1 >= 0) & G[0,2](x2 <= 5))",
                                      "G[0,inf]((x1 >= 0) U[1,4] (x2 >= 1))"])
    def test_one_matrix_for_all_six_readouts(self, text, monkeypatch):
        phi, table = to_pnf(*parse(text, n_states=2))
        windows = collect_event_ops(unwrap(phi))
        sched = compute_schedule(windows, GRID1) if windows else None
        calls = []
        z = PredicateTable.z
        monkeypatch.setattr(PredicateTable, "z",
                            lambda self, x: calls.append(self) or z(self, x))
        s = Signal(np.random.default_rng(0).uniform(-1, 6, size=(40, 2)), GRID1)
        eval_bool(s, 0, phi, table)
        eval_sr(s, 0, phi, table)
        eval_dasr(s, 0, phi, table)
        if sched is not None:
            eval_dsasr(s, 0, phi, table, sched)
        prd(s, phi, 0, table)
        try:
            robustness_degree_axis(s, phi, 0, table)
        except ValueError:
            assert sched is not None        # the until lies outside the fragment
        assert calls == [table]

    def test_kept_matrix_is_read_only(self):
        s = sig(1.0, -2.0, 3.0)
        z = s.predicate_values(ID1)
        assert s.predicate_values(ID1) is z
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0, 0] = 0.0

    def test_a_second_table_gets_its_own_matrix(self):
        s = sig(-1.0, 2.0)
        z = s.predicate_values(ID1)
        equal, double = PredicateTable([[1.0]], [0.0]), PredicateTable([[2.0]], [0.0])
        assert equal == ID1
        assert s.predicate_values(equal) is not z
        assert s.predicate_values(double) is s.predicate_values(double)
        assert s.predicate_values(double).tolist() == [[-2.0], [4.0]]
        assert s.predicate_values(ID1) is z and z.tolist() == [[-1.0], [2.0]]
