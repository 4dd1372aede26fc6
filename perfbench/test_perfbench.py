"""Tests of the benchmark's own metric code (no workload is run)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import run
from hostspeed import REFERENCE_S, at_reference
from perfstats import Ratio, percentile, tail
from spans import Span, Tracer, covered, self_times


@pytest.mark.parametrize("n, label, beyond", [
    (5, "max", 0),          # too few samples for any percentile
    (19, "max", 0),         # p50 would leave only 9 beyond
    (20, "p50", 10),
    (40, "p75", 10),
    (91, "p75", 23),        # p90 would leave only 9 beyond
    (100, "p90", 10),
    (1000, "p99", 10),
])
def test_tail_keeps_ten_samples_beyond(n, label, beyond):
    t = tail(range(1, n + 1))
    assert (t.label, t.n, t.beyond) == (label, n, beyond)
    if label == "max":
        assert t.value == n
    else:
        assert t.value == percentile(range(1, n + 1), float(label[1:]))
    assert sum(1 for x in range(1, n + 1) if x > t.value) == t.beyond


def test_tail_cap_keeps_the_percentile_when_samples_grow():
    assert tail(range(1, 1001), highest=90.0).label == "p90"
    assert tail(range(1, 31), highest=90.0).label == "p50"
    assert tail(range(1, 11), highest=90.0).label == "max"


def test_tail_counts_only_samples_strictly_beyond():
    t = tail([1.0] * 30 + [2.0] * 5)
    assert (t.label, t.value) == ("max", 2.0)


def test_percentile_interpolates_like_numpy():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 75) == 4.0
    assert percentile([], 50) == 0.0


def test_ratio_reports_its_base():
    r = Ratio(3, 4)
    assert r.value == 0.75
    assert r.describe() == "0.75 (3/4)"
    empty = Ratio(0, 0)
    assert empty.value == 0.0
    assert empty.describe() == "n/a (0/0)"


def test_covered_merges_overlaps():
    assert covered([(1, 3), (2, 4), (6, 7)]) == 4
    assert covered([]) == 0


def _span(i, start, end, parent=None, name="x.y"):
    return Span(i, name, start, end, parent)


def test_self_time_subtracts_children_not_grandchildren():
    spans = [_span(0, 0, 10), _span(1, 1, 3, 0), _span(2, 2, 4, 0), _span(3, 6, 7, 0),
             _span(4, 6.25, 6.5, 3)]
    st = self_times(spans)
    assert st[0] == pytest.approx(10 - 4)       # children cover [1, 4] and [6, 7]
    assert st[3] == pytest.approx(0.75)
    assert st[4] == pytest.approx(0.25)


def test_tracer_records_nesting_and_job():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("b.inner", lambda x: x + 1)
    outer = tracer.wrap("a.outer", lambda x: inner(x) * 2)
    with tracer.span("bench.job", job=7):
        assert outer(1) == 4
    job, out, inn = tracer.spans
    assert (out.parent, inn.parent) == (job.id, out.id)
    assert {s.job for s in tracer.spans} == {7}
    assert self_times(tracer.spans)[out.id] == out.duration - inn.duration


def test_tracer_patch_restores_original():
    class Owner:
        @classmethod
        def make(cls):
            return cls.__name__

    tracer = Tracer()
    tracer.patch(Owner, "make", "cli.make")
    assert Owner.make() == "Owner"
    assert [s.name for s in tracer.spans] == ["cli.make"]
    tracer.unpatch()
    Owner.make()
    assert len(tracer.spans) == 1


def test_steps_run_from_builder_to_builder_then_readouts():
    run_span = _span(0, 0, 10, name="mpc.run")
    kids = {0: [_span(1, 1, 2, 0, "qp_builder.build_problem"),
                _span(2, 2, 3, 0, "qp_solver.solve"),
                _span(3, 4, 5, 0, "qp_builder.build_problem"),
                _span(4, 8, 9, 0, "semantics.eval_bool")]}
    assert layers._steps(run_span, kids) == [3, 4]


def test_accounted_time_leaves_out_calibration_inside_jobs():
    tracer = Tracer()
    tracer.spans = [Span(0, "bench.job", 0, 10, None, 0), Span(1, "mpc.run", 1, 5, 0, 0),
                    Span(2, "bench.calibrate", 6, 8, 0, 0)]
    acc = layers.compute(tracer, relaxed=0, solved=0, overhead=Ratio(0, 1))["trace.accounted_frac"]
    assert (acc.num, acc.den) == (4, 8)


def test_reference_time_scales_by_the_kernels_around_the_call():
    assert at_reference(2.0, REFERENCE_S, REFERENCE_S) == pytest.approx(2.0)
    # kernel twice as slow on average around the call: the host ran at half speed
    assert at_reference(2.0, REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(1.0)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
