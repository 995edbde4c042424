"""Self-checks of the measurement harness; no ineqlab needed.

    python3 -m pytest bench/test_harness.py
"""
from __future__ import annotations

import time

import pytest

from harness import (
    OpRecord,
    Outcome,
    Span,
    Tracer,
    Workload,
    run_paired,
    run_pass,
    run_phase,
    self_times,
    span_totals,
    tail_percentile,
    timing_metrics,
)


# -- the tail-percentile rule ------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    samples = [float(v) for v in range(100, 0, -1)]   # order must not matter
    value, pct, n = tail_percentile(samples)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_at_eleven_samples_is_the_minimum():
    value, pct, n = tail_percentile([5.0] + [9.0] * 10)
    assert value == 5.0 and n == 11
    assert pct == pytest.approx(100 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_timing_metrics_report_a_real_op_as_median():
    records = [OpRecord(i // 2, i, s, Outcome(True)) for i, s in enumerate([1.0, 3.0] * 8)]
    m = timing_metrics(records, tail_passes=6)
    assert m["op_s_p50"] == 1.0   # never 2.0, which no op took
    assert m["ops_per_s"] == pytest.approx(16 / 32)
    assert m["samples"] == 12     # passes 6 and 7 are left out of the tail
    assert m["op_s_tail"] == 1.0 and m["tail_percentile"] == pytest.approx(100 * 2 / 12)


# -- times at reference speed ---------------------------------------------------


def test_sampled_op_leaves_out_the_sampling_and_carries_its_speed():
    class Sampler:
        def start(self):
            self.started = True

        def stop(self):
            return 0.25, 0.5   # seconds spent sampling inside the op, speed

    def call(op):
        time.sleep(0.3)
        return op

    workload = Workload("w", lambda root, p: [], call, lambda op, res: Outcome(ok=res == op))
    (record,) = run_pass(workload, [3], 0, sampler=Sampler())
    assert record.outcome.ok and record.speed == 0.5
    assert 0.05 <= record.seconds < 0.25
    assert record.scaled_s == pytest.approx(0.5 * record.seconds)


def test_timing_metrics_use_times_at_reference_speed():
    records = [OpRecord(0, i, 2.0, Outcome(True), speed=0.5) for i in range(11)]
    m = timing_metrics(records, tail_passes=1)
    assert m["op_s_p50"] == 1.0 and m["op_s_tail"] == 1.0
    assert m["ops_per_s"] == pytest.approx(1.0)
    assert m["wall_ops_per_s"] == pytest.approx(0.5)


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [Span("a", 0.0, 10.0, -1, 0), Span("b", 2.0, 5.0, 0, 0), Span("c", 3.0, 4.0, 1, 0)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_of_sibling_spans():
    spans = [Span("a", 0.0, 10.0, -1, 0), Span("b", 1.0, 3.0, 0, 0), Span("b", 4.0, 8.0, 0, 0)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 4.0])
    totals = span_totals(spans)
    assert totals["b"].calls == 2
    assert totals["b"].seconds == pytest.approx(6.0)
    assert totals["a"].self_seconds == pytest.approx(4.0)


def test_overlapping_children_are_counted_once():
    spans = [Span("a", 0.0, 10.0, -1, 0), Span("b", 1.0, 5.0, 0, 0), Span("c", 3.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_restores_on_error():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

    tracer = Tracer()

    def outer(x):
        return Owner.inner(x) * 2

    table = {"outer": outer}
    with pytest.raises(RuntimeError):
        with tracer.installed([(table, "outer", "outer", None),
                               (Owner, "inner", "inner", lambda a, k, r: r)]):
            tracer.op = 7
            assert table["outer"](1) == 4
            raise RuntimeError("boom")
    assert table["outer"] is outer and Owner.inner(1) == 2
    names = [(s.name, s.parent, s.op, s.info) for s in tracer.spans]
    assert names == [("outer", -1, 7, None), ("inner", 0, 7, 2)]


def test_paired_run_traces_only_the_second_run_of_each_pass():
    class Lib:
        @staticmethod
        def f(op):
            return op * 2

    workload = Workload("w", lambda root, p: [p, p + 10], lambda op: Lib.f(op),
                        lambda op, res: Outcome(ok=True, rows=(str(res),)))
    original = Lib.f
    tracer = Tracer()
    untraced, traced = run_paired(workload, None, 0.0, tracer, [(Lib, "f", "lib.f", None)])
    assert [r.op for r in untraced] == [r.op for r in traced] == [0, 10]
    assert [r.outcome for r in untraced] == [r.outcome for r in traced]
    assert [(s.name, s.op, s.parent) for s in tracer.spans] == [("lib.f", 0, -1), ("lib.f", 1, -1)]
    assert Lib.f is original


# -- failing ops ----------------------------------------------------------------


def test_exception_counts_as_failed_op_and_the_workload_goes_on():
    def call(op):
        if op == 1:
            raise ZeroDivisionError("op one divides by zero")
        return op

    workload = Workload("w", lambda root, p: [0, 1, 2],
                        call, lambda op, res: Outcome(ok=res == op))
    records = run_phase(workload, None, budget_s=0.0, min_passes=2)
    assert [r.op for r in records] == [0, 1, 2, 0, 1, 2]
    assert [r.pass_index for r in records] == [0, 0, 0, 1, 1, 1]
    assert [r.outcome.ok for r in records] == [True, False, True] * 2
    assert "ZeroDivisionError" in records[1].outcome.note


def test_failing_check_counts_as_failed_op():
    def check(op, res):
        raise KeyError("no reference")

    workload = Workload("w", lambda root, p: [0], lambda op: op, check)
    (record,) = run_phase(workload, None, budget_s=0.0)
    assert not record.outcome.ok and "KeyError" in record.outcome.note
