"""Measurement harness: the timed op loop, the timing statistics, and in-memory spans.

Nothing here imports ineqlab or numpy, so the self-checks in test_harness.py
run without either.
"""
from __future__ import annotations

import json
import os
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

TAIL_BEYOND = 10   # samples that must lie beyond the reported tail percentile

# one BLAS/OpenMP thread: the ops are single-process, the timings stay free of
# pool start-up and oversubscription, and float outputs (hence the frozen
# digests) do not depend on the thread count
THREAD_CAP = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """Cap the BLAS/OpenMP pools; has effect only before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)


# ---------------------------------------------------------------------------
# workloads and the op loop


@dataclass(frozen=True)
class Outcome:
    """Checked result of one op."""

    ok: bool
    rows: tuple[str, ...] = ()   # canonical output lines, folded into the pass digest
    queries: int = 0             # ledger.total summed over the op's product runs
    space_bits: int = 0          # max ledger.space_high_water over those runs
    note: str = ""               # why the op failed


@dataclass(frozen=True)
class Workload:
    """One named set of inputs: which ops a pass holds, the timed call, the check.

    Every timed run completes at least min_passes passes, and the tail is
    taken over exactly those, so its percentile does not depend on how many
    passes fit in the run.
    """

    name: str
    make_pass: Callable[[Any, int], list]   # (root rng, pass index) -> ops
    call: Callable[[Any], Any]              # the timed program call(s) of one op
    check: Callable[[Any, Any], Outcome]    # untimed check of (op, result)
    min_passes: int = 1
    speed_unit: str = "interpreter"         # the unit of speed.UNITS its timed run samples


@dataclass(frozen=True)
class OpRecord:
    pass_index: int
    op: Any
    seconds: float       # wall time
    outcome: Outcome
    speed: float = 1.0   # machine speed around the op, relative to the reference speed

    @property
    def scaled_s(self) -> float:
        """The op's time at reference speed."""
        return self.seconds * self.speed


def _failure(exc: BaseException) -> Outcome:
    return Outcome(ok=False, note="".join(traceback.format_exception(exc)).strip())


def run_op(workload: Workload, op, sampler=None) -> tuple[float, Outcome, float]:
    """Time one op; an exception becomes a failed outcome, never an abort.

    With a sampler (speed.SpeedSampler), the time leaves out the sampling
    and the op's speed is returned with it; without one the speed is 1.
    """
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    try:
        result, error = workload.call(op), None
    except Exception as exc:  # a failing op is counted, the workload goes on
        result, error = None, exc
    seconds = time.perf_counter() - start
    speed = 1.0
    if sampler is not None:
        overhead, speed = sampler.stop()
        seconds -= overhead
    if error is not None:
        return seconds, _failure(error), speed
    try:
        return seconds, workload.check(op, result), speed
    except Exception as exc:  # a check that cannot run fails its op
        return seconds, _failure(exc), speed


def run_pass(workload: Workload, ops: list, pass_index: int,
             tracer: "Tracer | None" = None, op_base: int = 0,
             sampler=None) -> list[OpRecord]:
    """Run one pass; with a tracer, spans carry op ids counted from op_base."""
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_base + i
        seconds, outcome, speed = run_op(workload, op, sampler)
        records.append(OpRecord(pass_index, op, seconds, outcome, speed))
    return records


def run_phase(workload: Workload, root, budget_s: float, min_passes: int = 1,
              first_pass: list | None = None, sampler=None) -> list[OpRecord]:
    """Run whole passes until budget_s has passed and at least min_passes ran.

    Passes are never cut short, so every phase holds the same op mix.
    """
    records: list[OpRecord] = []
    started = time.perf_counter()
    pass_index = 0
    ops = first_pass if first_pass is not None else workload.make_pass(root, 0)
    while True:
        records += run_pass(workload, ops, pass_index, sampler=sampler)
        pass_index += 1
        if time.perf_counter() - started >= budget_s and pass_index >= min_passes:
            return records
        ops = workload.make_pass(root, pass_index)


def run_paired(workload: Workload, root, budget_s: float, tracer: "Tracer", boundaries,
               first_pass: list | None = None) -> tuple[list[OpRecord], list[OpRecord]]:
    """Run each pass untraced, then again traced, until budget_s has passed.

    Pairing the two runs of a pass keeps slow spells of the machine from
    landing on one side only, so the gap between them is the tracing overhead.
    """
    untraced: list[OpRecord] = []
    traced: list[OpRecord] = []
    started = time.perf_counter()
    pass_index = 0
    ops = first_pass if first_pass is not None else workload.make_pass(root, 0)
    while True:
        untraced += run_pass(workload, ops, pass_index)
        with tracer.installed(boundaries):
            traced += run_pass(workload, ops, pass_index, tracer, op_base=len(traced))
        pass_index += 1
        if time.perf_counter() - started >= budget_s:
            return untraced, traced
        ops = workload.make_pass(root, pass_index)


# ---------------------------------------------------------------------------
# timing statistics


def tail_percentile(samples) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    With n samples in ascending order the value is the (n - TAIL_BEYOND)-th
    smallest, at percentile 100 (n - TAIL_BEYOND) / n.  Returns the value,
    the percentile and n.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def timing_metrics(records: list[OpRecord], tail_passes: int) -> dict:
    """ops_per_s, the lower median and the tail of the op times at reference speed.

    The tail is taken over the first tail_passes passes only.  wall_ops_per_s
    is ops_per_s from the unscaled wall times.
    """
    seconds = [r.scaled_s for r in records]
    tail, pct, n = tail_percentile([r.scaled_s for r in records if r.pass_index < tail_passes])
    return {
        "ops_per_s": len(seconds) / sum(seconds),
        "wall_ops_per_s": len(records) / sum(r.seconds for r in records),
        # the lower median is an actual op's time; a workload whose ops fall
        # in two clusters never reports a value between them
        "op_s_p50": statistics.median_low(seconds),
        "op_s_tail": tail,
        "tail_percentile": pct,
        "samples": n,
    }


# ---------------------------------------------------------------------------
# spans


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name: str, start: float, end: float, parent: int, op: int, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent   # index of the enclosing span, -1 at the top
        self.op = op
        self.info = info


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Spans recorded around wrapped callables, kept in memory until written."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, note: Callable | None = None) -> Callable:
        """fn with a span around every call; note(args, kwargs, result) fills span.info."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, boundaries):
        """Replace each (owner, key, name, note) callable by its traced form; restore on exit."""
        saved = []
        try:
            for owner, key, name, note in boundaries:
                original = _get(owner, key)
                saved.append((owner, key, original))
                _set(owner, key, self.wrap(original, name, note))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                _set(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - _covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


@dataclass
class SpanTotals:
    calls: int = 0
    seconds: float = 0.0        # inclusive
    self_seconds: float = 0.0


def span_totals(spans: list[Span]) -> dict[str, SpanTotals]:
    out: dict[str, SpanTotals] = {}
    for s, own in zip(spans, self_times(spans)):
        tot = out.setdefault(s.name, SpanTotals())
        tot.calls += 1
        tot.seconds += s.end - s.start
        tot.self_seconds += own
    return out
