"""Tests for the space-bounded clamped-product algorithms.

Frozen traces were derived by hand from the blocked-loop structure before
implementation; statistical constants follow the calibration notes in tests
that mention them.
"""
import bisect
import contextlib
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ineqlab import linsys, qsim
from ineqlab.core import (
    INT64_MAX,
    InstanceError,
    ProblemInstance,
    QueryLedger,
    SeededRng,
    TAG_CLASSICAL,
    TAG_COUNTING,
    TAG_GROVER,
    log2_ceil,
    matvec_min,
)
from ineqlab.linsys import (
    BlockTrace,
    BudgetReport,
    SpaceTooSmall,
    bounded_matrix_product,
    check_budget,
    classical_bounded_product,
    classical_row_capacity,
    default_reps,
    find_block_length,
    quantum_row_capacity,
    small_matrix_product,
)
from ineqlab.qsim import (
    MODE_COST,
    MODE_EXACT,
    MODE_SV,
    MODES,
    StreamDraws,
    TapeOracle,
    ae_outcome_pmf,
    fold_count_pmf,
    sv_count_pmf,
)
from ineqlab.sweep import FAMILIES


def rng_for(*key):
    return SeededRng(77001).spawn(*key).stream


def draws_for(*key):
    """A reader of rng_for(*key)'s stream, closed when its with-block ends."""
    return contextlib.closing(StreamDraws(rng_for(*key)))


def random_instance(rng, n, t, x_max=None, density=0.5):
    x_max = t if x_max is None else x_max
    A = (rng.random((n, n)) < density).astype(np.int64)
    x = rng.integers(0, x_max + 1, size=n, dtype=np.int64)
    b = rng.integers(1, t + 1, size=n, dtype=np.int64)
    return ProblemInstance(A=A, x=x, b=b, t=t)


# ---------------------------------------------------------------------------
# capacities


class TestCapacities:
    def test_quantum_capacity_values(self):
        assert quantum_row_capacity(64, 16) == 2    # 16 // 6
        assert quantum_row_capacity(1024, 16) == 1  # 16 // 10
        assert quantum_row_capacity(4, 100) == 4    # clamped at N
        assert quantum_row_capacity(1, 5) == 1

    def test_classical_capacity_uses_counter_width(self):
        # S=13, t=2: 13 / log2(3) = 8.2 -> 8
        assert classical_row_capacity(64, 13, 2) == 8
        assert classical_row_capacity(4, 2, 1) == 2
        assert classical_row_capacity(8, 100, 3) == 8  # clamped at N

    def test_zero_budget_rejected(self):
        with pytest.raises(SpaceTooSmall):
            quantum_row_capacity(16, 0)
        with pytest.raises(SpaceTooSmall):
            classical_row_capacity(16, 0, 2)

    def test_default_reps_odd_and_growing(self):
        for n in (2, 16, 128, 1024):
            r = default_reps(n)
            assert r % 2 == 1
            assert r >= 3
        assert default_reps(128) == 2 * math.ceil(1.5 * 7) + 1


# ---------------------------------------------------------------------------
# classical baseline


class TestClassicalBaseline:
    def test_frozen_trace_two_row_groups(self):
        # N=4, t=1, S=2 -> capacity 2: two groups, each re-reads all of x
        inst = ProblemInstance(A=np.eye(4, dtype=np.int64),
                               x=np.array([1, 0, 1, 1]),
                               b=np.array([1, 1, 1, 1]), t=1)
        res = classical_bounded_product(inst, 2)
        assert res.s_prime == 2
        assert res.ledger.queries_x == 8
        assert res.ledger.queries_b == 4
        assert np.array_equal(res.y, matvec_min(inst))
        assert res.correct

    def test_single_pass_when_capacity_covers_all_rows(self):
        rng = rng_for("cl-single")
        inst = random_instance(rng, 8, 2)
        res = classical_bounded_product(inst, 1000)
        assert res.s_prime == 8
        assert res.ledger.queries_x == 8
        assert res.ledger.queries_b == 8

    def test_always_matches_reference(self):
        for trial in range(40):
            rng = rng_for("cl-ref", trial)
            n = int(rng.integers(1, 20))
            t = int(rng.integers(1, 6))
            inst = random_instance(rng, n, t)
            S = int(rng.integers(1, 40))
            res = classical_bounded_product(inst, S)
            assert np.array_equal(res.y, matvec_min(inst)), (trial, n, t, S)
            assert res.correct

    def test_query_totals_follow_group_count(self):
        rng = rng_for("cl-count")
        inst = random_instance(rng, 30, 3)
        S = 8
        cap = classical_row_capacity(30, S, 3)
        res = classical_bounded_product(inst, S)
        assert res.ledger.queries_x == math.ceil(30 / cap) * 30
        assert res.ledger.queries_b == 30

    def test_space_budget_guard(self):
        inst = random_instance(rng_for("cl-guard"), 4, 1)
        with pytest.raises(SpaceTooSmall):
            classical_bounded_product(inst, 0)


# ---------------------------------------------------------------------------
# block sizing


def value_tape(values):
    return np.asarray(values, dtype=np.int64)


def sizing_spy(monkeypatch):
    """(the M of every count_median call, every ledger charge) from here on."""
    ms, charges = [], []
    real_count, real_charge = linsys.count_median, QueryLedger.charge
    monkeypatch.setattr(linsys, "count_median", lambda marks, n, M, *a: ms.append(M) or real_count(marks, n, M, *a))
    monkeypatch.setattr(QueryLedger, "charge", lambda self, *a: charges.append(a) or real_charge(self, *a))
    return ms, charges


class TestFindBlockLength:
    def test_all_ones_doubles_once_then_maximizes(self):
        # unit mass everywhere, capacity 4: probe at 8 breaks the doubling,
        # binary search accepts the longest block with mass <= 8
        tape = value_tape([1] * 16)
        with draws_for("fb1") as draws:
            assert find_block_length(tape, 0, 4, MODE_EXACT, draws, reps=3)[0] == 8

    def test_exact_range_end_variant(self):
        tape = value_tape([1] * 8)
        with draws_for("fb2") as draws:
            assert find_block_length(tape, 0, 4, MODE_EXACT, draws, reps=3)[0] == 8

    def test_sparse_tail_takes_remaining_range(self):
        tape = value_tape([0] * 32)
        with draws_for("fb3") as draws:
            assert find_block_length(tape, 5, 3, MODE_EXACT, draws, reps=3)[0] == 27

    def test_short_remainder_is_one_block(self):
        tape = value_tape([1, 1, 1, 1])
        with draws_for("fb4") as draws:
            assert find_block_length(tape, 2, 5, MODE_EXACT, draws, reps=3) == (2, 0)

    def test_position_past_end_rejected(self):
        tape = value_tape([1, 1])
        with draws_for("fb5") as draws, pytest.raises(ValueError):
            find_block_length(tape, 2, 1, MODE_EXACT, draws, reps=3)

    @pytest.mark.parametrize("mode", MODES)
    def test_start_before_the_tape_refused_before_any_charge(self, mode):
        # a negative start is refused as one past the end is, before any probe or draw
        tape = value_tape(np.ones(8))
        rng = rng_for("fbneg", mode)
        state = rng.bit_generator.state
        with contextlib.closing(StreamDraws(rng)) as draws:
            for start in (-1, -3, -8, -9, 8, 9):
                with pytest.raises(ValueError, match=f"^no columns left at position {start}$"):
                    find_block_length(tape, start, 2, mode, draws, reps=3)
        assert rng.bit_generator.state == state

    def test_exact_mode_mass_window_boolean_tapes(self):
        # with unit values the chosen block carries mass in [S', 2S']
        # unless the tape ran out
        for trial in range(60):
            rng = rng_for("fbw", trial)
            n = int(rng.integers(8, 80))
            tape_vals = (rng.random(n) < 0.4).astype(np.int64)
            s_prime = int(rng.integers(1, 6))
            with contextlib.closing(StreamDraws(rng)) as draws:
                length, _ = find_block_length(tape_vals, 0, s_prime, MODE_EXACT, draws, reps=3)
            c = int(tape_vals[:length].sum())
            assert c <= 2 * s_prime
            if length < n:  # range end not hit
                assert c >= s_prime

    def test_progress_guaranteed(self):
        for trial in range(30):
            rng = rng_for("fbp", trial)
            n = int(rng.integers(4, 40))
            vals = rng.integers(0, 3, size=n)
            s_prime = int(rng.integers(1, 5))
            start = int(rng.integers(0, n))
            with contextlib.closing(StreamDraws(rng)) as draws:
                length, probes = find_block_length(value_tape(vals), start, s_prime, MODE_COST, draws, reps=3)
            assert type(length) is int and type(probes) is int and length >= 1
            assert start + length <= n

    def test_probes_charge_counting_queries(self, monkeypatch):
        # the sizing returns its probes' M summed, M being what each count_median call was
        # given, and charges nothing: the product books M * reps a probe
        ms, charges = sizing_spy(monkeypatch)
        for mode in MODES:
            ms.clear()
            with draws_for("fbq", mode) as draws:
                length, probes = find_block_length(value_tape(np.ones(64)), 0, 4, mode, draws, reps=3)
            assert 0 < length < 64 and len(ms) > 1 and probes == sum(ms), mode
        assert charges == []

    @pytest.mark.parametrize("mode", MODES)
    def test_short_tail_charges_no_probe(self, mode, monkeypatch):
        # at most s' columns left: the tail is the block without a counting call
        ms, charges = sizing_spy(monkeypatch)
        tape = value_tape(np.ones(10))
        with draws_for("fbt") as draws:
            for start, s_prime in ((6, 4), (6, 5), (9, 1)):
                assert find_block_length(tape, start, s_prime, mode, draws, reps=3) == (10 - start, 0)
        assert ms == [] and charges == []

    def test_overflowing_bracket_takes_its_floor_without_a_probe(self):
        # s' = 2 and a mass of 9 at column 2: doubling probes 4 (mass 10, stops),
        # bisection probes 3 (mass 10 > 4); every bracket probe overflowed, so the
        # block is the floor 2, after 2 probes of M = 2 (12 queries at reps 3)
        tape = value_tape([0, 1, 9, 0, 1, 0, 0, 0])
        with draws_for("fbf") as draws:
            assert find_block_length(tape, 0, 2, MODE_EXACT, draws, reps=3) == (2, 4)

    def test_deterministic_per_seed(self):
        vals = rng_for("fbd-data").integers(0, 2, size=50)
        with draws_for("fbd") as draws:
            a = find_block_length(value_tape(vals), 0, 3, MODE_COST, draws, reps=5)
        with draws_for("fbd") as draws:
            b = find_block_length(value_tape(vals), 0, 3, MODE_COST, draws, reps=5)
        assert a == b

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("reps", (2, 0, -4, 3.0, np.float64(5), True))
    def test_even_or_nonpositive_reps_refused_before_any_charge(self, mode, reps):
        # a short tail takes no probe, so the refusal must not wait for one
        tape = value_tape(np.ones(10))
        rng = rng_for("fbr", mode, reps)
        state = rng.bit_generator.state
        with contextlib.closing(StreamDraws(rng)) as draws:
            for start, s_prime in ((6, 4), (0, 2)):
                with pytest.raises(ValueError, match="reps"):
                    find_block_length(tape, start, s_prime, mode, draws, reps)
        assert rng.bit_generator.state == state


def window_count_median(window, M, reps, mode, draws):
    """A probe as count_median made it before sizing read one running sum per block:
    on a fresh window, whose total it read from the window's values, drawing the median
    from the window's law by searchsorted."""
    total = int(window.sum())
    if mode == MODE_SV:
        if (window > 1).any():
            raise ValueError("statevector counting supports bit tapes only")
        pmf = fold_count_pmf(sv_count_pmf(window > 0, M), M)
    elif mode == MODE_COST:
        pmf = ae_outcome_pmf(min(1.0, total / window.size), M)
    if mode == MODE_EXACT:
        return float(total)
    u = draws.median_uniform(reps)
    return float(window.size * pmf.values[qsim._choice_cdf(pmf.probs).searchsorted(u, side="right")])


def reference_block_length(values, start, s_prime, mode, draws, reps):
    """Block sizing as it was before any probe read running sums: every probe, in
    every mode, is one window_count_median call on a fresh window; (length, the
    probes' M summed)."""
    remaining = len(values) - start
    probes = 0

    def probe(length):
        nonlocal probes
        M = math.ceil(math.sqrt(length))
        probes += M
        return window_count_median(values[start:start + length], M, reps, mode, draws)

    k = s_prime
    while k < remaining:
        k = min(2 * k, remaining)
        if probe(k) >= s_prime:
            break
    else:
        return remaining, probes
    lo, hi = k // 2, k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if probe(mid) <= 2 * s_prime:
            lo = mid
        else:
            hi = mid - 1
    return lo, probes


def random_sizing_case(rng):
    """A (values, start, s', reps) case: sparse to dense tapes, small to wide capacities."""
    n = int(rng.integers(1, 120))
    density = rng.uniform(0.0, 1.0)
    values = (rng.random(n) < density).astype(np.int64) * rng.integers(1, 4, size=n)
    return values, int(rng.integers(0, n)), int(rng.integers(1, 9)), int(rng.choice([1, 3, 5, 7]))


class TestBlockLengthMatchesReference:
    def test_exact_mode_same_length_and_charges(self):
        for trial in range(240):
            values, start, s_prime, reps = random_sizing_case(rng_for("fbref", trial))
            results = []
            for sizer in (find_block_length, reference_block_length):
                with draws_for("fbref-draws", trial) as draws:
                    results.append(sizer(values, start, s_prime, MODE_EXACT, draws, reps))
            assert results[0] == results[1], trial

    def test_exact_mode_window_of_a_tape(self):
        # the running sum of a view is taken over its own slice, not its base's columns
        for trial in range(40):
            values, start, s_prime, reps = random_sizing_case(rng_for("fbwin", trial))
            pad = rng_for("fbwin-pad", trial).integers(0, 4, size=7)
            padded = np.concatenate([pad, values, pad])
            with draws_for("fbwin-draws") as draws:
                got = find_block_length(padded[7:7 + values.size], start, s_prime, MODE_EXACT, draws, reps)
                ref = reference_block_length(values, start, s_prime, MODE_EXACT, draws, reps)
            assert got == ref, trial

    @pytest.mark.parametrize("seed", range(6))
    def test_cost_model_same_length_charges_and_stream(self, seed):
        for trial in range(20):
            values, start, s_prime, reps = random_sizing_case(rng_for("fbcost", seed, trial))
            results = []
            for sizer in (find_block_length, reference_block_length):
                rng = rng_for("fbcost-draws", seed, trial)
                with contextlib.closing(StreamDraws(rng)) as draws:
                    sized = sizer(values, start, s_prime, MODE_COST, draws, reps)
                results.append((sized, rng.bit_generator.state))
            assert results[0] == results[1], (seed, trial)

    @pytest.mark.parametrize("seed", range(4))
    def test_statevector_same_length_charges_and_stream(self, seed):
        # a statevector probe hands count_median its window's bits
        for trial in range(20):
            values, start, s_prime, reps = random_sizing_case(rng_for("fbsv", seed, trial))
            values = (values > 0).astype(np.int64)
            results = []
            for sizer in (find_block_length, reference_block_length):
                rng = rng_for("fbsv-draws", seed, trial)
                with contextlib.closing(StreamDraws(rng)) as draws:
                    sized = sizer(values, start, s_prime, MODE_SV, draws, reps)
                    read = (draws.dropped + draws.pos, draws.half)
                results.append((sized, read, rng.bit_generator.state))
            assert results[0] == results[1], (seed, trial)

    @pytest.mark.parametrize("mode", MODES)
    def test_same_block_traces(self, mode, monkeypatch):
        # one row group sized either way: the same y, block traces, ledger (tags in
        # the order they were first charged) and reader position
        probed = 0
        for trial in range(16):
            rng = rng_for("fbtrace", mode, trial)
            m, n, t = int(rng.integers(1, 5)), int(rng.integers(1, 90)), int(rng.integers(1, 4))
            A = (rng.random((m, n)) < rng.uniform(0.1, 0.9)) * rng.integers(1, t + 1, size=(m, n))
            x = rng.integers(0, 2 if mode == MODE_SV else t + 1, size=n)
            b = rng.integers(1, t + 3, size=m)
            reps = int(rng.choice([1, 3, 5]))
            results = []
            for sizer in (find_block_length, reference_block_length):
                monkeypatch.setattr(linsys, "find_block_length", sizer)
                ledger, draws_rng = QueryLedger(), rng_for("fbtrace-draws", mode, trial)
                with contextlib.closing(StreamDraws(draws_rng)) as draws:
                    y, blocks = small_matrix_product(A, x, b, t, mode, draws, ledger, reps)
                    read = (draws.dropped + draws.pos, draws.half)
                results.append((y.tolist(), blocks, ledger, list(ledger.by_subroutine.items()), read,
                                draws_rng.bit_generator.state))
            assert results[0] == results[1], (mode, trial)
            probed += sum(block.counting_queries > 0 for block in results[0][1])
        assert probed > 16

    @pytest.mark.parametrize("mode", (MODE_COST, MODE_EXACT))
    def test_no_probe_builds_a_tape_oracle(self, mode, monkeypatch):
        # a probe reads its total from its block's running sum, and a cost-model count is
        # given a plain int; a product builds only the tapes it reads through: the per-block
        # loop a b and an x tape per group (its bounds read and its booking), the exact
        # plan one of each per product
        sizing, built, marks = [], [], []
        real_init = TapeOracle.__init__
        real_sizer, real_count = linsys.find_block_length, linsys.count_median

        def sizer(*args):
            sizing.append(1)
            try:
                return real_sizer(*args)
            finally:
                sizing.pop()

        monkeypatch.setattr(linsys, "find_block_length", sizer)
        monkeypatch.setattr(linsys, "count_median", lambda total, *a: marks.append(type(total)) or real_count(total, *a))
        monkeypatch.setattr(TapeOracle, "__init__",
                            lambda self, values, ledger, target: built.append((target, bool(sizing)))
                            or real_init(self, values, ledger, target))
        inst = random_instance(rng_for("noprobe-inst"), 48, 2)
        res = bounded_matrix_product(inst, 12, mode, rng_for("noprobe-run", mode))
        assert res.s_prime == 2 and res.ledger.by_subroutine[TAG_COUNTING] > 0
        groups = 1 if mode == MODE_EXACT else len(res.group_traces)
        assert built == [("b", False), ("x", False)] * groups
        if mode == MODE_EXACT:
            assert marks == []
        else:
            assert marks and set(marks) == {int}

    @pytest.mark.parametrize("mode", MODES)
    def test_one_counting_charge_per_block(self, mode, monkeypatch):
        # a sampled group books its blocks' probes, M * reps each with M the one count_median
        # was given, in one counting charge after its last block; an exact block, sized from
        # running sums, gives count_median nothing, and the exact product books every block's
        # probes, and every search, in one charge per tag
        groups = []   # per group, opened by its bounds read: its counting charges, its probes' M
        real_charge, real_count = QueryLedger.charge, linsys.count_median

        def charge(self, target, tag, count=1):
            if target == "b":
                groups.append([[], []])
            elif tag == TAG_COUNTING:
                groups[-1][0].append(count)
            real_charge(self, target, tag, count)

        monkeypatch.setattr(QueryLedger, "charge", charge)
        monkeypatch.setattr(linsys, "count_median",
                            lambda marks, n, M, *a: groups[-1][1].append(M) or real_count(marks, n, M, *a))
        inst = random_instance(rng_for("onecharge-inst", mode), 48, 2, x_max=1 if mode == MODE_SV else None)
        res = bounded_matrix_product(inst, 12, mode, rng_for("onecharge-run", mode))
        traces = [block for group in res.group_traces for block in group]
        reps = default_reps(48)
        if mode == MODE_EXACT:
            assert len(groups) == 1 and groups[0][1] == [] and sum(1 for b in traces if b.counting_queries) > 10
            assert all(block.counting_queries % reps == 0 for block in traces)
            assert res.ledger.by_subroutine[TAG_GROVER] == sum(b.grover_queries for b in traces)
        else:
            assert len(groups) == len(res.group_traces) and sum(1 for charges, _ in groups if charges) > 10
            for blocks, (charges, ms) in zip(res.group_traces, groups):
                assert len(charges) <= 1 and sum(b.counting_queries for b in blocks) == sum(charges)
                assert sum(charges) == reps * sum(ms)
        assert res.ledger.by_subroutine[TAG_COUNTING] == sum(b.counting_queries for b in traces)


def exact_pair(values, start, s_prime, reps=3, pad=()):
    """find_block_length on a view of values padded by pad on both sides, and
    reference_block_length on values alone: each (length, its probes' M summed); exact
    sizing draws nothing, so neither is given a reader."""
    values, pad = np.asarray(values, dtype=np.int64), np.asarray(pad, dtype=np.int64)
    padded = np.concatenate([pad, values, pad])
    return [find_block_length(padded[pad.size:pad.size + values.size], start, s_prime, MODE_EXACT, None, reps),
            reference_block_length(values, start, s_prime, MODE_EXACT, None, reps)]


def reach_and_keep(values, start, s_prime):
    """First length from start whose total reaches s', last whose total is at most 2s'."""
    totals = np.concatenate([[0], np.cumsum(values[start:])])
    reached = np.flatnonzero(totals >= s_prime)
    return (int(reached[0]) if reached.size else None), int(np.flatnonzero(totals <= 2 * s_prime)[-1])


def tape_products(values, s_prime, reps):
    """The plan and the per-block loop (both_exact_products) on values as one exact product:
    x = values, the first group s' all-ones rows (s' capped at the columns, which leaves the
    tail unprobed either way) and every other row zero, b = t = the tape's total + 1, so no
    row closes and the first group's blocks are sized over the whole tape."""
    n = len(values)
    s_prime = min(s_prime, n)
    A = np.zeros((n, n), dtype=np.int64)
    A[:s_prime] = 1
    t = int(sum(values)) + 1
    inst = ProblemInstance(A=A, x=np.asarray(values, dtype=np.int64), b=np.full(n, t), t=t)
    return both_exact_products(inst, s_prime * log2_ceil(n), reps, "edge")


class TestExactSizingEdges:
    """Exact sizing stops doubling at reach, the first length whose total reaches s', and
    bisects down to keep, the last length whose total is within 2s'.  find_block_length
    reads every total from the remaining columns' running sum, and the plan reads reach and
    keep off each window of the group's support; these tapes put both on the edges that an
    off-by-one would move, and run each from start through the plan as well."""

    def check(self, values, start, s_prime, reps=3, pad=(), plan=True):
        ours, ref = exact_pair(values, start, s_prime, reps, pad)
        assert ours == ref, (values, start, s_prime, reps, pad)
        if plan:
            planned, loop = tape_products(values[start:], s_prime, reps)
            assert planned == loop and planned[1][0][0].length == ours[0], (values, start, s_prime, reps)
        return ours

    def test_total_never_reaches_s_prime(self):
        for values, start, s_prime in (([0] * 12, 0, 1), ([0, 1, 0, 0, 0, 0, 0, 0, 0, 0], 0, 2),
                                       ([5, 0, 0, 1, 0, 0, 0, 1, 0, 0], 1, 3)):
            assert reach_and_keep(np.array(values), start, s_prime)[0] is None
            length, probes = self.check(values, start, s_prime)
            assert length == len(values) - start and probes > 0

    @pytest.mark.parametrize("s_prime", (1, 2, 3))
    def test_one_column_jumps_past_s_prime_or_twice_it(self, s_prime):
        # a single nonzero column at every position, worth s' + 1 (past s' but within
        # 2s' when s' > 1) or 2s' + 1 (past 2s': keep stops just before it)
        for value in (s_prime, s_prime + 1, 2 * s_prime, 2 * s_prime + 1, 3 * s_prime):
            for col in range(20):
                values = [0] * 20
                values[col] = value
                self.check(values, 0, s_prime)
                self.check(values, min(col, 3), s_prime)

    def test_reach_on_a_doubling_length(self):
        # s' = 2 doubles to 4, 8, 16: mass 2 completed at lengths 3..17, so reach sits on,
        # just before and just after each doubling length
        hits = set()
        for last in range(2, 17):
            for first in range(last):
                values = [0] * 24
                values[first] += 1
                values[last] += 1
                reach, _ = reach_and_keep(np.array(values), 0, 2)
                hits.add(reach)
                self.check(values, 0, 2)
        assert {3, 4, 5, 7, 8, 9, 15, 16, 17} <= hits

    def test_keep_on_the_bracket_floor(self):
        # s' = 2 doubles to 4, 8, 16; a column of 5 at index f ends the doubling at 2f,
        # in the bracket [f, 2f], with keep on its floor f (length f holds nothing and
        # f + 1 holds 5 > 2s'); at index f + 1, keep is one above the floor
        for f in (2, 4, 8):
            for col, want in ((f, f), (f + 1, f + 1)):
                values = [0] * 20
                values[col] = 5
                assert reach_and_keep(np.array(values), 0, 2)[1] == want
                assert self.check(values, 0, 2)[0] == want
        # a total of exactly 2s' held over a run of zeros: keep is the run's last length
        values = [1, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0]
        assert reach_and_keep(np.array(values), 0, 2)[1] == 14
        assert self.check(values, 0, 2)[0] == 8

    def test_s_prime_at_least_remaining_takes_the_tail_unprobed(self):
        for start, s_prime in ((6, 4), (6, 5), (9, 1), (0, 10), (0, 12)):
            length, probes = self.check([3] * 10, start, s_prime)
            assert length == 10 - start and probes == 0

    def test_window_of_a_padded_root(self):
        # the window's running sum covers its own slice; heavy padding on both sides
        # would move reach and keep if the sum reached into the root's columns
        for pad in ((9,), (1, 1, 1), (0, 4, 0, 4, 0)):
            for col in range(10):
                for value in (1, 2, 3, 5):
                    values = [0] * 10
                    values[col] = value
                    values[(col + 3) % 10] += 1
                    self.check(values, col % 4, 2, pad=pad)

    def test_every_small_tape(self):
        # every tape of up to 6 columns over {0, 1, 3}, every start, s' in 1..3 and reps 1 or 5;
        # every suffix is itself a tape of the enumeration, so the plan runs from start 0 only
        for n in range(1, 7):
            for values in itertools.product((0, 1, 3), repeat=n):
                for start in range(n):
                    for s_prime in (1, 2, 3):
                        self.check(values, start, s_prime, reps=1 + 4 * (sum(values) % 2), plan=start == 0)


def bisected_block_length(values, start, s_prime, reps):
    """Exact sizing as it was when reach and keep came from two bisects of the tape's
    running sums [0, *cumsum(values)]: (length, counting charge)."""
    n = len(values)
    remaining = n - start
    sums = [0, *values.cumsum().tolist()]
    reach = bisect.bisect_left(sums, sums[start] + s_prime, start, n + 1) - start
    keep = bisect.bisect_right(sums, sums[start] + 2 * s_prime, start, n + 1) - 1 - start
    charged, lo, hi, k = 0, remaining, remaining, s_prime
    while k < remaining:
        k = min(2 * k, remaining)
        charged += math.ceil(math.sqrt(k))
        if k >= reach:
            lo, hi = k // 2, k
            break
    while lo < hi:
        mid = (lo + hi + 1) // 2
        charged += math.ceil(math.sqrt(mid))
        if mid <= keep:
            lo = mid
        else:
            hi = mid - 1
    return lo, charged * reps


class TestExactSizingFromColumnSums:
    """Exact sizing compares each probe's total, read from the remaining columns' running
    sum, with s' and 2s'; it must give the lengths and counting charges that bisecting the
    tape's running sums for reach and keep gave."""

    @pytest.mark.parametrize("s_prime", (1, 2, 5))
    def test_matches_bisected_running_sums(self, s_prime):
        rng = rng_for("fbcols", s_prime)
        tapes = [np.zeros(40, dtype=np.int64)]   # reach passes the end at every start
        for density in (0.05, 0.3, 0.9):
            n = int(rng.integers(20, 90))
            tapes.append((rng.random(n) < density) * rng.integers(1, 2 * s_prime + 3, size=n))
        tapes.append(np.concatenate([rng.integers(0, 4, size=20), np.zeros(30, dtype=np.int64)]))  # sparse tail
        past_end = 0
        for values in tapes:
            pad = rng.integers(0, 5, size=int(rng.integers(1, 9)))
            for start in range(values.size):
                past_end += reach_and_keep(values, start, s_prime)[0] is None
                for reps in (1, 3):
                    ref = bisected_block_length(values, start, s_prime, reps)
                    for tape_pad in ((), pad):   # the tape alone, and a view at offset pad.size
                        padded = np.concatenate([tape_pad, values, tape_pad]).astype(np.int64)
                        tape = padded[len(tape_pad):len(tape_pad) + values.size]
                        length, probes = find_block_length(tape, start, s_prime, MODE_EXACT, None, reps)
                        got = (length, probes * reps)
                        assert got == ref, (values.tolist(), start, s_prime, reps, len(tape_pad))
        assert past_end > 40


# ---------------------------------------------------------------------------
# one row group


class TestSmallMatrixProduct:
    def test_exact_equals_clamped_reference(self):
        for trial in range(60):
            rng = rng_for("sm", trial)
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 33))
            t = int(rng.integers(1, 5))
            A = (rng.random((m, n)) < 0.4).astype(np.int64) * rng.integers(
                1, t + 1, size=(m, n))
            x = rng.integers(0, t + 1, size=n)
            b = rng.integers(0, t + 1, size=m)
            ledger = QueryLedger()
            with contextlib.closing(StreamDraws(rng)) as draws:
                y_block, _ = small_matrix_product(A, x, b, t, MODE_EXACT, draws, ledger, default_reps(n))
            ref = np.minimum(A @ x, b)
            assert np.array_equal(y_block, ref), trial

    def test_block_trace_inequalities_all_modes(self):
        for mode in (MODE_COST, MODE_EXACT):
            for trial in range(25):
                rng = rng_for("smt", mode, trial)
                m = int(rng.integers(1, 5))
                n = int(rng.integers(4, 48))
                t = int(rng.integers(1, 4))
                A = (rng.random((m, n)) < 0.5).astype(np.int64)
                x = rng.integers(0, t + 1, size=n)
                b = rng.integers(1, t + 1, size=m)
                ledger = QueryLedger()
                with contextlib.closing(StreamDraws(rng)) as draws:
                    _, blocks = small_matrix_product(A, x, b, t, mode, draws, ledger, default_reps(n))
                assert sum(blk.length for blk in blocks) <= n
                assert sum(blk.rows_closed for blk in blocks) <= m
                assert sum(blk.open_additions for blk in blocks) <= t * m

    def test_zero_bounds_short_circuit(self):
        ledger = QueryLedger()
        A = np.ones((3, 10), dtype=np.int64)
        with draws_for("smz") as draws:
            y_block, blocks = small_matrix_product(A, np.ones(10, dtype=np.int64),
                                                   np.zeros(3, dtype=np.int64), 2,
                                                   MODE_EXACT, draws, ledger, 3)
        assert np.array_equal(y_block, np.zeros(3, dtype=np.int64))
        assert blocks == ()
        assert ledger.queries_b == 3
        assert ledger.queries_x == 0

    def test_found_positions_read_classically(self):
        ledger = QueryLedger()
        A = np.ones((1, 6), dtype=np.int64)
        x = np.array([0, 1, 0, 0, 1, 0], dtype=np.int64)
        b = np.array([2], dtype=np.int64)
        with draws_for("smr") as draws:
            small_matrix_product(A, x, b, 2, MODE_EXACT, draws, ledger, 3)
        # one classical b read plus one classical x read per found position
        assert ledger.by_subroutine[TAG_CLASSICAL] == 1 + 2

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bounds", ([1, 1, 1], [1], [], [[1, 1]]))
    def test_bounds_not_one_per_row_refused_before_any_charge(self, mode, bounds):
        ledger = QueryLedger()
        rng = rng_for("smb", mode)
        state = rng.bit_generator.state
        with contextlib.closing(StreamDraws(rng)) as draws, pytest.raises(InstanceError, match="2 rows"):
            small_matrix_product(np.ones((2, 5), dtype=np.int64), np.ones(5, dtype=np.int64),
                                 np.array(bounds, dtype=np.int64), 1, mode, draws, ledger, 3)
        assert ledger.total == 0 and ledger.by_subroutine == {}
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("mode", MODES)
    def test_bad_reps_or_mode_refused_before_anything_is_booked(self, mode):
        # reps and mode are checked at entry: no bounds read, no space record, no draw,
        # even for a group whose first block is a short tail that takes no probe
        rng = rng_for("smreps", mode)
        state = rng.bit_generator.state
        with contextlib.closing(StreamDraws(rng)) as draws:
            for n in (2, 10):
                for reps, bad_mode in ((2, mode), (0, mode), (-3, mode), (3.0, mode), (True, mode), (3, mode + "?")):
                    ledger = QueryLedger()
                    with pytest.raises(ValueError, match="reps|unknown mode"):
                        small_matrix_product(np.ones((2, n), dtype=np.int64), np.ones(n, dtype=np.int64),
                                             np.full(2, 4, dtype=np.int64), 4, bad_mode, draws, ledger, reps)
                    assert ledger == QueryLedger(), (n, reps, bad_mode)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("mode", MODES)
    def test_one_booking_per_group(self, mode, monkeypatch):
        # however many blocks a group takes, it reads its bounds, then books one counting
        # charge, one grover charge and one x read, in that order, and one space record;
        # its block traces' counting and grover sums are those charges
        calls, real_charge, real_space = [], QueryLedger.charge, QueryLedger.record_space
        monkeypatch.setattr(QueryLedger, "charge", lambda self, target, tag, count=1:
                            calls.append((target, tag, count)) or real_charge(self, target, tag, count))
        monkeypatch.setattr(QueryLedger, "record_space", lambda self, bits:
                            calls.append(("space",)) or real_space(self, bits))
        blocks_seen = 0
        for trial in range(6):
            rng = rng_for("smbook", mode, trial)
            m, n = int(rng.integers(1, 4)), int(rng.integers(24, 64))
            A = (rng.random((m, n)) < 0.5).astype(np.int64)
            x = rng.integers(0, 2 if mode == MODE_SV else 3, size=n)
            x[0] = 1   # at least one find
            A[:, 0] = 1
            calls.clear()
            with contextlib.closing(StreamDraws(rng)) as draws:
                _, blocks = small_matrix_product(A, x, np.full(m, 3 * n), 2, mode, draws, QueryLedger(), 3)
            counting = sum(blk.counting_queries for blk in blocks)
            grover = sum(blk.grover_queries for blk in blocks)
            assert calls == [("b", TAG_CLASSICAL, m), ("x", TAG_COUNTING, counting), ("x", TAG_GROVER, grover),
                             ("x", TAG_CLASSICAL, sum(blk.found for blk in blocks)), ("space",)], (mode, trial)
            blocks_seen += len(blocks)
        assert blocks_seen > 12

    def test_shape_mismatch_rejected(self):
        with draws_for("smx") as draws, pytest.raises(Exception):
            small_matrix_product(np.ones((2, 5), dtype=np.int64),
                                 np.ones(4, dtype=np.int64),
                                 np.ones(2, dtype=np.int64), 1,
                                 MODE_EXACT, draws, QueryLedger(), 3)


# ---------------------------------------------------------------------------
# full algorithm


class TestBoundedMatrixProduct:
    def test_exact_exhaustive_boolean_two_by_two(self):
        # every Boolean (A, x) pair at N=2, bounds pinned at t
        for t in (1, 2):
            for a_bits in range(16):
                A = np.array([[a_bits >> r & 1 for r in range(2)],
                              [a_bits >> (r + 2) & 1 for r in range(2)]],
                             dtype=np.int64).reshape(2, 2)
                for x_bits in range(4):
                    x = np.array([x_bits & 1, x_bits >> 1], dtype=np.int64)
                    inst = ProblemInstance(A=A, x=x,
                                           b=np.full(2, t, dtype=np.int64), t=t)
                    for S in (2, 8):
                        res = bounded_matrix_product(
                            inst, S, MODE_EXACT, rng_for("ex2", t, a_bits, x_bits, S))
                        assert np.array_equal(res.y, matvec_min(inst))
                        assert res.correct

    def test_exact_random_instances_match_reference(self):
        for trial in range(50):
            rng = rng_for("bx", trial)
            n = int(rng.integers(1, 65))
            t = int(rng.integers(1, 9))
            inst = random_instance(rng, n, t)
            S = int(rng.integers(1, 33))
            res = bounded_matrix_product(inst, S, MODE_EXACT, rng)
            assert res.correct, (trial, n, t, S)

    def test_group_count_and_trace_shape(self):
        inst = random_instance(rng_for("bg-data"), 20, 2)
        res = bounded_matrix_product(inst, 12, MODE_EXACT, rng_for("bg"))
        assert res.s_prime == quantum_row_capacity(20, 12)
        assert len(res.group_traces) == math.ceil(20 / res.s_prime)
        for blocks in res.group_traces:
            assert sum(blk.length for blk in blocks) <= 20
            assert sum(blk.rows_closed for blk in blocks) <= res.s_prime
            assert sum(blk.open_additions for blk in blocks) <= inst.t * res.s_prime

    def test_b_read_exactly_once_per_row(self):
        for mode in (MODE_COST, MODE_EXACT):
            inst = random_instance(rng_for("bb-data"), 24, 2)
            res = bounded_matrix_product(inst, 10, mode, rng_for("bb", mode))
            assert res.ledger.queries_b == 24

    def test_subroutine_tags_present(self):
        inst = random_instance(rng_for("bt-data"), 32, 2)
        res = bounded_matrix_product(inst, 12, MODE_COST, rng_for("bt"))
        tags = set(res.ledger.by_subroutine)
        assert TAG_COUNTING in tags
        assert TAG_GROVER in tags
        assert TAG_CLASSICAL in tags

    def test_block_query_split_sums_to_ledger_tags(self):
        # the blocks' counting and grover queries, one b read per row and one x
        # read per found position add up to the ledger's three tags
        inst = random_instance(rng_for("split-data"), 24, 1)
        for mode in MODES:
            res = bounded_matrix_product(inst, 10, mode, rng_for("split", mode))
            blocks = [blk for group in res.group_traces for blk in group]
            tags = res.ledger.by_subroutine
            assert sum(blk.counting_queries for blk in blocks) == tags[TAG_COUNTING], mode
            assert sum(blk.grover_queries for blk in blocks) == tags[TAG_GROVER], mode
            assert 24 + sum(blk.found for blk in blocks) == tags[TAG_CLASSICAL], mode
            assert sum(tags.values()) == res.ledger.total, mode

    def test_space_high_water_recorded(self):
        inst = random_instance(rng_for("bs-data"), 16, 2)
        res = bounded_matrix_product(inst, 8, MODE_EXACT, rng_for("bs"))
        assert res.ledger.space_high_water > 0

    def test_deterministic_per_seed(self):
        inst = random_instance(rng_for("bd-data"), 24, 2)
        runs = []
        for _ in range(2):
            res = bounded_matrix_product(inst, 10, MODE_COST, rng_for("bd"))
            runs.append((res.y.tolist(), res.ledger.queries_x,
                         res.ledger.queries_b, res.group_traces))
        assert runs[0] == runs[1]

    def test_statevector_mode_small_boolean_instance(self):
        rng = rng_for("bsv-data")
        A = (rng.random((6, 6)) < 0.5).astype(np.int64)
        x = (rng.random(6) < 0.5).astype(np.int64)
        inst = ProblemInstance(A=A, x=x, b=np.full(6, 2, dtype=np.int64), t=2)
        res = bounded_matrix_product(inst, 6, MODE_SV, rng_for("bsv"))
        assert res.y.shape == (6,)
        assert res.correct == bool(np.array_equal(res.y, matvec_min(inst)))

    def test_statevector_mode_rejects_value_x(self, monkeypatch):
        inst = ProblemInstance(A=np.ones((2, 2), dtype=np.int64),
                               x=np.array([0, 2]), b=np.array([2, 2]), t=2)
        charges = []
        monkeypatch.setattr(QueryLedger, "charge", lambda self, *args: charges.append(args))
        # checked up front, before any query is charged
        with pytest.raises(InstanceError, match=r"statevector mode takes 0/1 x only; x\[1\] = 2"):
            bounded_matrix_product(inst, 4, MODE_SV, rng_for("bsvr"))
        assert charges == []

    def test_space_budget_guard(self):
        inst = random_instance(rng_for("bsg"), 4, 1)
        with pytest.raises(SpaceTooSmall):
            bounded_matrix_product(inst, 0, MODE_EXACT, rng_for("bsg2"))

    def test_sampled_mode_error_rate_moderate_cell(self):
        # smaller cousin of the acceptance cell: error rate stays low
        wrong = 0
        for seed in range(60):
            rng = rng_for("berr", seed)
            inst = random_instance(rng, 48, 2)
            res = bounded_matrix_product(inst, 16, MODE_COST, rng)
            if not res.correct:
                wrong += 1
        assert wrong <= 6


# The next four rng.random() values and two integers(0, 2**32) after a product
# (the second pair reads the 32-bit buffer), frozen from per-draw Generator
# calls before the product read its stream in bulk: (x_max, after the product,
# after a product whose third window's searches raised).
STREAM_AFTER_PRODUCT = {
    MODE_EXACT: (None,
                 ([0.0014746769369509138, 0.5666564969231863, 0.45741978204150946, 0.18426791721213587],
                  [2223645852, 2806667441]),
                 ([0.8565434096662679, 0.7997144436006081, 0.12705131678024306, 0.753926397832298],
                  [2642859013, 2280536563])),
    MODE_COST: (None,
                ([0.10926049384743886, 0.07452583115510758, 0.3267478133231476, 0.3543579514962113],
                 [7428778, 19432590]),
                ([0.4227140481757703, 0.9964022794772772, 0.30034639390276374, 0.4088767594599547],
                 [1655748433, 2134930067])),
    MODE_SV: (1,
              ([0.717505033477706, 0.6248247914890344, 0.9365557341097198, 0.5791983343097317],
               [2760572004, 968574119]),
              ([0.28286771268881694, 0.2300688393672229, 0.7022244443682167, 0.4045894064945281],
               [1007035400, 3643418238])),
}


class TestStreamAfterProduct:
    @staticmethod
    def next_draws(rng):
        return rng.random(4).tolist(), rng.integers(0, 2**32, size=2).tolist()

    @pytest.mark.parametrize("mode", sorted(STREAM_AFTER_PRODUCT))
    def test_generator_ends_where_per_draw_calls_left_it(self, mode):
        x_max, after, _ = STREAM_AFTER_PRODUCT[mode]
        inst = random_instance(rng_for("after-inst", mode), 64 if x_max is None else 32, 2, x_max)
        rng = rng_for("after", mode)
        assert bounded_matrix_product(inst, 8, mode, rng).correct
        assert self.next_draws(rng) == after

    @pytest.mark.parametrize("mode", sorted(STREAM_AFTER_PRODUCT))
    def test_a_raising_product_closes_its_reader(self, mode, monkeypatch):
        # the reader is closed in a finally: the Generator is left where the
        # draws made before the failure left it, not a fetched chunk ahead.  The
        # third window's searches raise before they draw, whether the per-block loop
        # runs them (the modes that draw) or the exact plan's replay does
        x_max, _, after_raise = STREAM_AFTER_PRODUCT[mode]
        inst = random_instance(rng_for("after-inst", mode), 64 if x_max is None else 32, 2, x_max)
        calls, real = [], qsim._searches

        def search_then_fail(*args):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("third search")
            return real(*args)

        monkeypatch.setattr(qsim, "_searches", search_then_fail)
        monkeypatch.setattr(linsys, "_searches", search_then_fail)
        rng = rng_for("after", mode)
        with pytest.raises(RuntimeError, match="third search"):
            bounded_matrix_product(inst, 8, mode, rng)
        assert len(calls) == 3 and self.next_draws(rng) == after_raise

    def test_other_bit_generators_refused(self):
        inst = random_instance(rng_for("mt-inst"), 8, 2)
        with pytest.raises(TypeError, match="PCG64"):
            bounded_matrix_product(inst, 8, MODE_EXACT, np.random.Generator(np.random.MT19937(0)))


class TestOneReaderPerProduct:
    @pytest.mark.parametrize("mode", MODES)
    def test_each_product_opens_exactly_one_reader(self, mode, monkeypatch):
        # every search and counting draw of a product goes through the one reader
        # it opens, the exact plan's replayed searches too; the classical baseline
        # draws nothing and opens none
        opened, searched = [], []
        real = qsim._searches

        class CountingDraws(StreamDraws):
            def __init__(self, rng):
                opened.append(rng)
                super().__init__(rng)

        def search(n, ones, mode, draws, *args):
            searched.append(draws)
            return real(n, ones, mode, draws, *args)

        monkeypatch.setattr(linsys, "StreamDraws", CountingDraws)
        monkeypatch.setattr(qsim, "_searches", search)
        monkeypatch.setattr(linsys, "_searches", search)
        inst = random_instance(rng_for("one-reader-inst", mode), 32, 2, 1 if mode == MODE_SV else None)
        rng = rng_for("one-reader", mode)
        res = bounded_matrix_product(inst, 8, mode, rng)
        assert opened == [rng]
        assert len({id(draws) for draws in searched}) == 1 and type(searched[0]) is CountingDraws
        assert res.ledger.by_subroutine[TAG_COUNTING] > 0 and res.ledger.by_subroutine[TAG_GROVER] > 0
        assert len(searched) == sum(len(blocks) for blocks in res.group_traces) > 1
        classical_bounded_product(inst, 8)
        assert opened == [rng]


def planned_product(instance, S, reps, draws, ledger):
    """The exact product's plan and replay, on a caller's reader and ledger."""
    return linsys._exact_product(instance, quantum_row_capacity(instance.n, S), reps, draws, ledger)


def per_block_product(instance, S, reps, draws, ledger):
    """The exact product as the per-block loop runs it: small_matrix_product group by
    group, on one reader and one ledger."""
    n, s_prime = instance.n, quantum_row_capacity(instance.n, S)
    y, traces = np.zeros(n, dtype=np.int64), []
    for lo in range(0, n, s_prime):
        hi = min(lo + s_prime, n)
        y[lo:hi], blocks = small_matrix_product(instance.A[lo:hi], instance.x, instance.b[lo:hi],
                                                instance.t, MODE_EXACT, draws, ledger, reps)
        traces.append(blocks)
    return y, traces


def both_exact_products(instance, S, reps, *key):
    """For the plan and for the per-block loop, each on its own copy of one stream: y, the
    block traces, the ledger and the order its tags were first charged, the reader's
    position and buffered half, and the Generator's state once the reader is closed."""
    out = []
    for product in (planned_product, per_block_product):
        ledger, rng = QueryLedger(), rng_for("plan-draws", *key)
        with contextlib.closing(StreamDraws(rng)) as draws:
            y, traces = product(instance, S, reps, draws, ledger)
            read = (draws.dropped + draws.pos, draws.half)
        out.append((y.tolist(), tuple(traces), ledger, list(ledger.by_subroutine), read,
                    rng.bit_generator.state))
    return out


class TestExactPlanMatchesLoop:
    """The exact product plans every group's blocks in lockstep and replays them; the
    per-block loop of small_matrix_product is its reference, and every output, charge,
    draw and trace must agree."""

    @pytest.mark.parametrize("family", ("regular", "hover-sqrt", "uniform", "zero"))
    def test_family_grid(self, family):
        for n, S, t, seed in itertools.product((1, 2, 3, 7, 16, 64, 256), (1, 8, 16, 64), (1, 2, 3), (0, 1)):
            if n == 256 and S < 64 and (seed, t if S > 1 else 2) != (0, 2):
                continue   # s' = 1 or 2 at N = 256: every t at S = 1, one cell at S = 8 and 16
            inst = FAMILIES[family](rng_for("plan-inst", family, n, t, seed), n, t)
            reps = 1 + 2 * ((n + S + t + seed) % 3)
            plan, loop = both_exact_products(inst, S, reps, family, n, S, t, seed)
            assert plan == loop, (family, n, S, t, seed)

    @pytest.mark.parametrize("cells", (1, 7, 64, 700))
    def test_chunks_and_slices_of_any_size(self, cells, monkeypatch):
        # tiny cell budgets put every group in its own chunk and every row in its own
        # slice, or split a chunk's groups and a window's rows where they overflow
        monkeypatch.setattr(linsys, "PLAN_CELLS", cells)
        for trial in range(12):
            rng = rng_for("plan-cells", cells, trial)
            n, t = int(rng.integers(1, 48)), int(rng.integers(1, 4))
            inst = random_instance(rng, n, t, density=rng.uniform(0.05, 0.9))
            S = int(rng.integers(1, 6 * log2_ceil(n) + 1))
            plan, loop = both_exact_products(inst, S, 3, "cells", cells, trial)
            assert plan == loop, (cells, trial, n, S)

    def test_x_all_zero(self):
        inst = ProblemInstance(A=np.ones((9, 9), dtype=np.int64), x=np.zeros(9, dtype=np.int64),
                               b=np.arange(9) % 3, t=2)
        plan, loop = both_exact_products(inst, 7, 3, "x-zero")
        assert plan == loop
        # every group with an open row scans the whole tape as one empty block
        assert all(blocks == (BlockTrace(0, 9, 0, 0, 0, blocks[0].counting_queries, blocks[0].grover_queries),)
                   for blocks in plan[1] if blocks)

    def test_every_b_zero(self):
        inst = random_instance(rng_for("b-zero"), 12, 2)
        inst = ProblemInstance(A=inst.A, x=inst.x, b=np.zeros(12, dtype=np.int64), t=2)
        plan, loop = both_exact_products(inst, 8, 3, "b-zero")
        assert plan == loop and plan[0] == [0] * 12 and plan[1] == ((),) * 6
        assert plan[2].by_subroutine == {TAG_CLASSICAL: 12} and plan[4][0] == 0   # nothing drawn

    def test_last_group_shorter_than_s_prime(self):
        for n, S in ((7, 9), (10, 16), (11, 12), (13, 32)):
            inst = random_instance(rng_for("short-last", n), n, 3)
            assert n % quantum_row_capacity(n, S)
            plan, loop = both_exact_products(inst, S, 5, "short-last", n)
            assert plan == loop, (n, S)

    def test_space_below_one_row_counter(self):
        # S below ceil(log2 N): one row per group
        inst = random_instance(rng_for("tiny-S"), 64, 2)
        for S in range(1, log2_ceil(64)):
            assert quantum_row_capacity(64, S) == 1
            plan, loop = both_exact_products(inst, S, 3, "tiny-S", S)
            assert plan == loop, S

    def test_row_sums_at_the_int64_bound(self):
        # row 0 reaches INT64_MAX = its bound at its last column, over several blocks
        n, big = 8, INT64_MAX // 8
        A = np.zeros((n, n), dtype=np.int64)
        A[0] = big
        A[0, -1] = INT64_MAX - 7 * big
        A[1, ::3] = 5
        inst = ProblemInstance(A=A, x=np.ones(n, dtype=np.int64), b=np.array([INT64_MAX] * 2 + [3] * 6),
                               t=INT64_MAX)
        plan, loop = both_exact_products(inst, 1, 3, "int64-bound")
        assert plan == loop and plan[0][0] == INT64_MAX and len(plan[1][0]) > 2

    @pytest.mark.parametrize("mode", MODES)
    def test_bad_reps_space_or_mode_refused_before_any_draw(self, mode, monkeypatch):
        charges = []
        monkeypatch.setattr(QueryLedger, "charge", lambda self, *args: charges.append(args))
        inst = random_instance(rng_for("refuse-inst"), 16, 1, x_max=1)
        zero_b = ProblemInstance(A=inst.A, x=inst.x, b=np.zeros(16, dtype=np.int64), t=1)
        rng = rng_for("refuse", mode)
        state = rng.bit_generator.state
        for instance in (inst, zero_b):   # with no open row, too
            for reps in (2, 0, -4):
                with pytest.raises(ValueError, match="reps must be odd and positive"):
                    bounded_matrix_product(instance, 8, mode, rng, reps)
            for reps in (3.0, 2.5, np.float64(5), True):
                with pytest.raises(ValueError, match="reps must be a whole number"):
                    bounded_matrix_product(instance, 8, mode, rng, reps)
        with pytest.raises(SpaceTooSmall):
            bounded_matrix_product(inst, 0, mode, rng)
        for S in (16.5, 16.0, np.float64(16), True):
            with pytest.raises(InstanceError, match="space budget must be a whole number"):
                bounded_matrix_product(inst, S, mode, rng)
        with pytest.raises(ValueError, match="unknown mode"):
            bounded_matrix_product(inst, 8, mode + "?", rng)
        assert charges == [] and rng.bit_generator.state == state


class TestReplayBooksPerProduct:
    @pytest.mark.parametrize("n, S", ((64, 1), (48, 8), (40, 20)))
    def test_two_reads_one_charge_per_tag_one_space_record(self, n, S, monkeypatch):
        # a low cell budget splits the plan into chunks; however many groups and blocks
        # they hold, the replay reads the bounds and the found x values once each, charges
        # each (target, tag) once and records its space once, with the loop's ledger
        monkeypatch.setattr(linsys, "PLAN_CELLS", 256)
        calls = {"chunks": 0, "reads": 0, "space": 0, "charges": []}
        real_chunk, real_read = linsys._plan_chunk, TapeOracle.read_values
        real_charge, real_space = QueryLedger.charge, QueryLedger.record_space

        def counted(key, real):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(linsys, "_plan_chunk", counted("chunks", real_chunk))
        monkeypatch.setattr(TapeOracle, "read_values", counted("reads", real_read))
        monkeypatch.setattr(QueryLedger, "record_space", counted("space", real_space))
        monkeypatch.setattr(QueryLedger, "charge", lambda self, target, tag, count=1:
                            calls["charges"].append((target, tag)) or real_charge(self, target, tag, count))
        inst = random_instance(rng_for("per-product-inst", n, S), n, 2, density=0.3)
        res = bounded_matrix_product(inst, S, MODE_EXACT, rng_for("per-product", n, S))
        assert calls["chunks"] > 1 and len(res.group_traces) > 2 and res.correct
        assert sum(map(len, res.group_traces)) > len(res.group_traces)
        assert calls["reads"] == 2 and calls["space"] == 1
        assert len(calls["charges"]) == len(set(calls["charges"])) == 4   # b and x reads, counting, grover
        plan, loop = both_exact_products(inst, S, default_reps(n), "per-product", n, S)
        assert plan == loop


class TestWholeNumberArguments:
    """reps and the space budget are refused unless of int or numpy integer type, and a numpy
    integer runs as the Python int it equals."""

    @pytest.mark.parametrize("mode", (MODE_COST, MODE_EXACT))
    def test_numpy_reps_runs_as_int(self, mode):
        inst = random_instance(rng_for("numpy-reps-inst"), 32, 2)
        plain = bounded_matrix_product(inst, 10, mode, rng_for("numpy-reps", mode), 3)
        res = bounded_matrix_product(inst, 10, mode, rng_for("numpy-reps", mode), np.int64(3))
        assert res.ledger == plain.ledger and res.group_traces == plain.group_traces
        assert all(type(v) is int for v in res.ledger.by_subroutine.values())
        assert all(type(f) is int for group in res.group_traces for block in group
                   for f in dataclasses.astuple(block))

    @pytest.mark.parametrize("S", (16.5, 16.0, np.float64(16), True))
    def test_float_or_bool_space_refused(self, S, monkeypatch):
        # bounded_matrix_product refuses these before any draw (TestExactPlanMatchesLoop)
        charges = []
        monkeypatch.setattr(QueryLedger, "charge", lambda self, *args: charges.append(args))
        inst = random_instance(rng_for("whole-space-inst"), 16, 2)
        for capacity in (lambda: quantum_row_capacity(16, S), lambda: classical_row_capacity(16, S, 2),
                         lambda: classical_bounded_product(inst, S)):
            with pytest.raises(InstanceError, match="space budget must be a whole number"):
                capacity()
        assert charges == []

    def test_numpy_space_runs_as_int(self):
        inst = random_instance(rng_for("numpy-space-inst"), 32, 2)
        assert type(quantum_row_capacity(32, np.int64(16))) is int
        assert type(classical_row_capacity(32, np.uint8(16), 2)) is int
        plain, res = classical_bounded_product(inst, 16), classical_bounded_product(inst, np.int64(16))
        assert type(res.s_prime) is int and res.ledger == plain.ledger and np.array_equal(res.y, plain.y)
        for mode in (MODE_COST, MODE_EXACT):
            plain = bounded_matrix_product(inst, 16, mode, rng_for("numpy-space", mode))
            res = bounded_matrix_product(inst, np.int64(16), mode, rng_for("numpy-space", mode))
            assert type(res.s_prime) is int and res.ledger == plain.ledger
            assert res.group_traces == plain.group_traces and np.array_equal(res.y, plain.y)


class TestExactPlanMemory:
    @pytest.mark.parametrize("family", ("uniform", "hover-sqrt", "regular"))
    def test_peak_below_half_of_A(self, family):
        # the plan reads A in slices of rows, never whole, even when all 1,024 rows
        # form one group (s' = N), whose windows are 2N + 1 entries wide
        inst = FAMILIES[family](rng_for("plan-memory", family), 1024, 2)
        tracemalloc.start()
        try:
            res = bounded_matrix_product(inst, 10 * 1024, MODE_EXACT, rng_for("plan-memory-run", family))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.s_prime == 1024 and res.correct and peak < inst.A.nbytes / 2, peak


class TestSampledBlockMass:
    def test_overshoot_bounded_with_default_amplification(self):
        # accepted block mass can exceed 2S' only by the counting window;
        # calibrated bound 6*sqrt(S') + pi^2 (measured max overshoot 5.7*sqrt(S'))
        for n, s_prime, trials in ((64, 4, 250), (128, 8, 250)):
            reps = default_reps(n)
            violations = 0
            for trial in range(trials):
                rng = rng_for("kap", n, s_prime, trial)
                density = rng.uniform(0.05, 0.9)
                vals = (rng.random(n) < density).astype(np.int64) * rng.integers(1, 3)
                with contextlib.closing(StreamDraws(rng)) as draws:
                    length, _ = find_block_length(vals, 0, s_prime, MODE_COST, draws, reps)
                c = int(vals[:length].sum())
                if c > 2 * s_prime + 6 * math.sqrt(s_prime) + math.pi**2:
                    violations += 1
            assert violations <= 5, (n, s_prime, violations)


class TestSpaceEnvelope:
    def test_quantum_high_water_within_linear_envelope(self):
        for trial in range(25):
            rng = rng_for("envq", trial)
            n = int(rng.integers(4, 100))
            t = int(rng.integers(1, 9))
            S = int(rng.integers(1, 33))
            inst = random_instance(rng, n, t)
            res = bounded_matrix_product(inst, S, MODE_EXACT, rng)
            hw = res.ledger.space_high_water
            assert hw <= 4 * S + 8 * log2_ceil(n) + 32, (trial, n, t, S, hw)

    def test_classical_high_water_within_linear_envelope(self):
        for trial in range(25):
            rng = rng_for("envc", trial)
            n = int(rng.integers(4, 100))
            t = int(rng.integers(1, 9))
            S = int(rng.integers(1, 65))
            inst = random_instance(rng, n, t)
            res = classical_bounded_product(inst, S)
            hw = res.ledger.space_high_water
            assert hw <= 3 * S + 8 * log2_ceil(n) + 32, (trial, n, t, S, hw)


# ---------------------------------------------------------------------------
# budget reports


class TestCheckBudget:
    def test_classical_frozen_cell(self):
        # N=64, t=2, S=13: capacity 8, T = 8*64 + 64 = 576
        inst = ProblemInstance(A=np.zeros((64, 64), dtype=np.int64),
                               x=np.zeros(64, dtype=np.int64),
                               b=np.ones(64, dtype=np.int64), t=2)
        res = classical_bounded_product(inst, 13)
        assert res.ledger.total == 576
        report = check_budget(res.ledger, 64, 2, 13, "classical")
        assert report.ratio == pytest.approx(576 * 13 / (64**2 * math.log2(3) + 1.0))
        assert 0.5 <= report.ratio <= 2.0
        assert not report.flagged

    def test_classical_t1_cell_not_flagged(self):
        # N=64, t=1, S=13: capacity 13, five groups, T = 5*64 + 64 = 384
        inst = ProblemInstance(A=np.zeros((64, 64), dtype=np.int64),
                               x=np.zeros(64, dtype=np.int64),
                               b=np.ones(64, dtype=np.int64), t=1)
        res = classical_bounded_product(inst, 13)
        assert res.ledger.total == 384
        report = check_budget(res.ledger, 64, 1, 13, "classical")
        assert report.ratio == pytest.approx(384 * 13 / (64**2 + 1.0))
        assert not report.flagged

    def test_classical_envelope_stops_at_capacity_edge(self):
        # N=16, t=1: all 16 rows fit from S=16 up, so S=1000 runs the same one
        # group, T = 16 + 16; the envelope takes the 16 bits the rows can use
        # (with S itself the ratio would read 124.5)
        inst = ProblemInstance(A=np.zeros((16, 16), dtype=np.int64),
                               x=np.zeros(16, dtype=np.int64),
                               b=np.ones(16, dtype=np.int64), t=1)
        for S in (16, 1000):
            res = classical_bounded_product(inst, S)
            assert res.ledger.total == 32
            report = check_budget(res.ledger, 16, 1, S, "classical")
            assert report.ratio == pytest.approx(32 * 16 / (16**2 + 1.0))
            assert not report.flagged

    def test_quantum_envelope_stops_at_capacity_edge(self):
        # N=16: s' = 16 from S = 16 * 4 = 64 up, so S = 10^6 runs the same
        # product; the envelope takes the 64 bits the rows can use (with S itself
        # the ratio would read 125 times higher)
        inst = random_instance(rng_for("edge"), 16, 1)
        reports = []
        for S in (64, 10**6):
            res = bounded_matrix_product(inst, S, MODE_EXACT, rng_for("edge-run"))
            assert res.correct and res.s_prime == 16
            reports.append(check_budget(res.ledger, 16, 1, S, "quantum"))
        assert reports[0].envelope == reports[1].envelope == 16**1.5 * 4**2.5 / 8
        assert reports[0].ratio == reports[1].ratio
        assert not reports[1].flagged

    def test_envelopes_stop_at_the_one_row_edge(self):
        # below ceil(log2 N) bits (quantum) or log2(t+1) bits (classical) the row
        # capacity is already 1, so a smaller S runs the same product; the
        # envelope takes the bits one row uses (with S itself, 0.29 and 0.34
        # at S = 1)
        inst = FAMILIES["regular"](rng_for("one-row"), 256, 2)
        ledgers, reports = [], []
        for S in (1, 4, 8):
            res = bounded_matrix_product(inst, S, MODE_EXACT, rng_for("one-row-run"))
            assert res.correct and res.s_prime == 1
            ledgers.append(res.ledger)
            reports.append(check_budget(res.ledger, 256, 2, S, "quantum"))
        assert ledgers[0] == ledgers[1] == ledgers[2]
        assert len({(r.envelope, r.ratio) for r in reports}) == 1
        assert reports[0].envelope == 256**1.5 * math.sqrt(2) * 8**2.5 / math.sqrt(8)
        inst = FAMILIES["regular"](rng_for("one-row-classical"), 64, 7)
        reports = []
        for S in (1, 2, 3):
            res = classical_bounded_product(inst, S)
            assert res.s_prime == 1 and res.ledger.total == 64 * 64 + 64
            reports.append(check_budget(res.ledger, 64, 7, S, "classical"))
        assert len({(r.envelope, r.ratio) for r in reports}) == 1
        assert reports[0].envelope == pytest.approx((64**2 * 3 + 1.0) / 3)
        assert not reports[0].flagged

    def test_quantum_zero_matrix_is_cheap(self):
        inst = ProblemInstance(A=np.zeros((32, 32), dtype=np.int64),
                               x=np.zeros(32, dtype=np.int64),
                               b=np.ones(32, dtype=np.int64), t=2)
        res = bounded_matrix_product(inst, 16, MODE_EXACT, rng_for("qz"))
        report = check_budget(res.ledger, 32, 2, 16, "quantum")
        assert not report.flagged

    @pytest.mark.parametrize("family", ("quantum", "classical"))
    @pytest.mark.parametrize("S", (True, 16.5, 16.0, np.float64(16), 0, -3), ids=repr)
    def test_space_budget_follows_the_row_capacity_rule(self, family, S):
        # check_budget takes S by the rule quantum_row_capacity and classical_row_capacity use
        ledger = QueryLedger()
        ledger.charge("x", TAG_CLASSICAL, 100)
        error, message = (SpaceTooSmall, f"{S} < 1") if type(S) is int else (InstanceError, "must be a whole number")
        with pytest.raises(error, match=f"^space budget {message}"):
            check_budget(ledger, 16, 2, S, family)
        assert check_budget(ledger, 16, 2, np.int64(16), family) == check_budget(ledger, 16, 2, 16, family)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            check_budget(QueryLedger(), 8, 1, 4, "hybrid")

    def test_quantum_calibration_cell(self):
        # frozen center 0.112 from the calibration sweep; runs stay within 50%
        for seed in range(3):
            rng = rng_for("cal-cell", seed)
            inst = random_instance(rng, 256, 4)
            res = bounded_matrix_product(inst, 16, MODE_EXACT, rng)
            report = check_budget(res.ledger, 256, 4, 16, "quantum")
            assert 0.5 * 0.112 <= report.ratio <= 1.5 * 0.112, report.ratio

    def test_report_fields_consistent(self):
        ledger = QueryLedger()
        ledger.charge("x", TAG_CLASSICAL, 100)
        report = check_budget(ledger, 16, 2, 8, "quantum")
        assert report.total_queries == 100
        assert report.ratio == pytest.approx(100 / report.envelope)
        assert report.flagged == (report.ratio > report.cap)
