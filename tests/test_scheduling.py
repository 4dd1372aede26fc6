"""Witness schedule computation and per-step lookup."""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stlmpc import (
    SamplingGrid,
    Schedule,
    ScheduleInfeasibleError,
    compute_schedule,
    k1_at,
    omega,
)
from stlmpc.scheduling import k1_many

GRID1 = SamplingGrid(1.0)


class TestComputeSchedule:
    def test_two_identical_windows(self):
        s = compute_schedule([(5, 15), (5, 15)], GRID1)
        assert s.delta == 11
        assert s.eta == 5
        assert s.baselines == (5, 10)

    def test_single_window(self):
        s = compute_schedule([(5, 15)], GRID1)
        assert s.delta == 11
        assert s.baselines == (5,)
        assert s.eta == 11

    def test_degenerate_windows_infeasible(self):
        with pytest.raises(ScheduleInfeasibleError):
            compute_schedule([(0, 0), (0, 0)], GRID1)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            compute_schedule([(5, 7)], SamplingGrid(12.0))

    def test_no_windows_rejected(self):
        with pytest.raises(ValueError):
            compute_schedule([], GRID1)

    def test_fast_enough(self):
        start = time.perf_counter()
        compute_schedule([(5, 15), (5, 15)], GRID1)
        assert time.perf_counter() - start < 1e-3


class TestK1Lookup:
    def test_late_baseline_plateaus(self):
        # a valid hand-picked baseline: constant witness until the window
        # slides past it, then one period later
        s = Schedule(delta=11, baselines=(15,), eta=11, op_windows=((5, 15),), grid=GRID1)
        for k in range(0, 11):
            assert s.k1_at(0, k) == 15
        for k in range(11, 21):
            assert s.k1_at(0, k) == 26

    def test_computed_baseline(self):
        s = compute_schedule([(5, 15)], GRID1)
        assert s.k1_at(0, 0) == 5
        assert s.k1_at(0, 10) == 16

    def test_baseline_inside_first_window(self):
        s = compute_schedule([(2, 9)], GRID1)
        assert s.k1_at(0, 0) == s.baselines[0]

    def test_free_function_matches_method(self):
        s = compute_schedule([(5, 15), (5, 15)], GRID1)
        assert k1_at(s, 1, 7) == s.k1_at(1, 7)


class TestScheduleProperties:
    WINDOW_SETS = [
        [(5, 15), (5, 15)],
        [(120, 240), (180, 420)],
        [(0, 10)],
        [(3, 9), (2, 14), (6, 13)],
    ]

    @pytest.mark.parametrize("windows", WINDOW_SETS)
    def test_witness_always_inside_window(self, windows):
        for T in (1.0, 2.0, 12.0 if all(a % 12 == 0 and b % 12 == 0 for a, b in windows) else 1.0):
            grid = SamplingGrid(T)
            try:
                s = compute_schedule(windows, grid)
            except (ScheduleInfeasibleError, ValueError):
                continue
            for i in range(s.n_ops):
                a, b = windows[i]
                base = omega(a, b, grid)
                for k in range(10 * s.delta):
                    k1 = s.k1_at(i, k)
                    assert k + base[0] <= k1 <= k + base[-1]

    @pytest.mark.parametrize("windows", [w for w in WINDOW_SETS if len(w) > 1])
    def test_distinct_operators_get_distinct_witnesses(self, windows):
        s = compute_schedule(windows, GRID1)
        for k in range(10 * s.delta):
            picks = [s.k1_at(i, k) for i in range(s.n_ops)]
            assert len(set(picks)) == len(picks)

    @pytest.mark.parametrize("windows", WINDOW_SETS)
    def test_periodicity(self, windows):
        s = compute_schedule(windows, GRID1)
        for i in range(s.n_ops):
            for k in range(3 * s.delta):
                assert s.k1_at(i, k + s.delta) == s.k1_at(i, k) + s.delta


class TestVectorisedWitness:
    @settings(max_examples=300, deadline=None)
    @given(windows=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                            min_size=1, max_size=3),
           T=st.sampled_from([1.0, 2.0, 3.0, 12.0]),
           first=st.integers(-60, 60), count=st.integers(0, 40), op=st.integers(0, 2))
    def test_matches_scalar_lookup(self, windows, T, first, count, op):
        grid = SamplingGrid(T)
        windows = [(a * T / 2, (a + b) * T / 2) for a, b in windows]
        try:
            s = compute_schedule(windows, grid)
        except ValueError:  # includes ScheduleInfeasibleError
            assume(False)
        op %= s.n_ops
        anchors = np.arange(first, first + count)
        # brute force: walk baseline + j*delta for j >= 0 up to the first point
        # at or after the window start; anchors below the first baseline can
        # leave the grid, which both lookups report for the first such anchor
        base = omega(*s.op_windows[op], grid)
        expected, error = [], None
        for k in anchors.tolist():
            lo, hi = k + base[0], k + base[-1]
            k1 = s.baselines[op]
            while k1 < lo:
                k1 += s.delta
            if k1 > hi:
                error = (f"baseline grid misses window [{lo}, {hi}] for operator {op}; "
                         "this cannot happen for feasible schedules")
                break
            expected.append(k1)
        assert [k1_at(s, op, k) for k in anchors[:len(expected)].tolist()] == expected
        if error is None:
            assert k1_many(s, op, anchors).tolist() == expected
            return
        for lookup in (lambda: k1_many(s, op, anchors),
                       lambda: k1_at(s, op, int(anchors[len(expected)]))):
            with pytest.raises(AssertionError) as info:
                lookup()
            assert str(info.value) == error
