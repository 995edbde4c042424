"""Tests for the space-bounded clamped-product algorithms.

Frozen traces were derived by hand from the blocked-loop structure before
implementation; statistical constants follow the calibration notes in tests
that mention them.
"""
import contextlib
import itertools
import math

import numpy as np
import pytest

from ineqlab import linsys
from ineqlab.core import (
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
from ineqlab.qsim import MODE_COST, MODE_EXACT, MODE_SV, MODES, StreamDraws, TapeOracle, collect_ones
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
    return TapeOracle(np.asarray(values, dtype=np.int64), QueryLedger(), "x")


class TestFindBlockLength:
    def test_all_ones_doubles_once_then_maximizes(self):
        # unit mass everywhere, capacity 4: probe at 8 breaks the doubling,
        # binary search accepts the longest block with mass <= 8
        tape = value_tape([1] * 16)
        with draws_for("fb1") as draws:
            assert find_block_length(tape, 0, 4, MODE_EXACT, draws, reps=3) == 8

    def test_exact_range_end_variant(self):
        tape = value_tape([1] * 8)
        with draws_for("fb2") as draws:
            assert find_block_length(tape, 0, 4, MODE_EXACT, draws, reps=3) == 8

    def test_sparse_tail_takes_remaining_range(self):
        tape = value_tape([0] * 32)
        with draws_for("fb3") as draws:
            assert find_block_length(tape, 5, 3, MODE_EXACT, draws, reps=3) == 27

    def test_short_remainder_is_one_block(self):
        tape = value_tape([1, 1, 1, 1])
        with draws_for("fb4") as draws:
            assert find_block_length(tape, 2, 5, MODE_EXACT, draws, reps=3) == 2

    def test_position_past_end_rejected(self):
        tape = value_tape([1, 1])
        with draws_for("fb5") as draws, pytest.raises(ValueError):
            find_block_length(tape, 2, 1, MODE_EXACT, draws, reps=3)

    def test_exact_mode_mass_window_boolean_tapes(self):
        # with unit values the chosen block carries mass in [S', 2S']
        # unless the tape ran out
        for trial in range(60):
            rng = rng_for("fbw", trial)
            n = int(rng.integers(8, 80))
            tape_vals = (rng.random(n) < 0.4).astype(np.int64)
            s_prime = int(rng.integers(1, 6))
            tape = value_tape(tape_vals)
            with contextlib.closing(StreamDraws(rng)) as draws:
                length = find_block_length(tape, 0, s_prime, MODE_EXACT, draws, reps=3)
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
                length = find_block_length(value_tape(vals), start, s_prime, MODE_COST, draws, reps=3)
            assert type(length) is int and length >= 1
            assert start + length <= n

    def test_probes_charge_counting_queries(self):
        ledger = QueryLedger()
        tape = TapeOracle(np.ones(64, dtype=np.int64), ledger, "x")
        with draws_for("fbq") as draws:
            find_block_length(tape, 0, 4, MODE_EXACT, draws, reps=3)
        assert ledger.queries_x > 0
        assert set(ledger.by_subroutine) == {TAG_COUNTING}
        assert ledger.by_subroutine[TAG_COUNTING] % 3 == 0  # reps per probe

    @pytest.mark.parametrize("mode", MODES)
    def test_short_tail_charges_no_probe(self, mode):
        # at most s' columns left: the tail is the block without a counting call
        ledger = QueryLedger()
        tape = TapeOracle(np.ones(10, dtype=np.int64), ledger, "x")
        with draws_for("fbt") as draws:
            for start, s_prime in ((6, 4), (6, 5), (9, 1)):
                assert find_block_length(tape, start, s_prime, mode, draws, reps=3) == 10 - start
        assert ledger.total == 0

    def test_overflowing_bracket_takes_its_floor_without_a_probe(self):
        # s' = 2 and a mass of 9 at column 2: doubling probes 4 (mass 10, stops),
        # bisection probes 3 (mass 10 > 4); every bracket probe overflowed, so the
        # block is the floor 2, after 2 probes of M = 2 at reps 3 = 12 queries
        ledger = QueryLedger()
        tape = TapeOracle(np.array([0, 1, 9, 0, 1, 0, 0, 0]), ledger, "x")
        with draws_for("fbf") as draws:
            assert find_block_length(tape, 0, 2, MODE_EXACT, draws, reps=3) == 2
        assert ledger.by_subroutine == {TAG_COUNTING: 12}

    def test_deterministic_per_seed(self):
        vals = rng_for("fbd-data").integers(0, 2, size=50)
        with draws_for("fbd") as draws:
            a = find_block_length(value_tape(vals), 0, 3, MODE_COST, draws, reps=5)
        with draws_for("fbd") as draws:
            b = find_block_length(value_tape(vals), 0, 3, MODE_COST, draws, reps=5)
        assert a == b

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("reps", (2, 0, -4))
    def test_even_or_nonpositive_reps_refused_before_any_charge(self, mode, reps):
        # a short tail takes no probe, so the refusal must not wait for one
        ledger = QueryLedger()
        tape = TapeOracle(np.ones(10, dtype=np.int64), ledger, "x")
        rng = rng_for("fbr", mode, reps)
        state = rng.bit_generator.state
        with contextlib.closing(StreamDraws(rng)) as draws:
            for start, s_prime in ((6, 4), (0, 2)):
                with pytest.raises(ValueError, match="reps"):
                    find_block_length(tape, start, s_prime, mode, draws, reps)
        assert ledger.total == 0 and ledger.by_subroutine == {}
        assert rng.bit_generator.state == state


def reference_block_length(tape, start, s_prime, mode, draws, reps):
    """Block sizing as it was before exact probes read running sums: every
    probe, in every mode, is one count_median call on a fresh window."""
    n = tape.n
    remaining = n - start

    def probe(length):
        window = tape.window(start, start + length)
        return linsys.count_median(window, math.ceil(math.sqrt(length)), reps, mode, draws)

    k = s_prime
    while k < remaining:
        k = min(2 * k, remaining)
        if probe(k) >= s_prime:
            break
    else:
        return remaining
    lo, hi = k // 2, k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if probe(mid) <= 2 * s_prime:
            lo = mid
        else:
            hi = mid - 1
    return lo


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
                ledger = QueryLedger()
                with draws_for("fbref-draws", trial) as draws:
                    length = sizer(TapeOracle(values, ledger, "x"), start, s_prime, MODE_EXACT, draws, reps)
                results.append((length, ledger.by_subroutine, ledger.queries_x, ledger.queries_b))
            assert results[0] == results[1], trial

    def test_exact_mode_window_of_a_tape(self):
        # a window's running sums are its root's, read from the window's offset
        for trial in range(40):
            values, start, s_prime, reps = random_sizing_case(rng_for("fbwin", trial))
            pad = rng_for("fbwin-pad", trial).integers(0, 4, size=7)
            padded = np.concatenate([pad, values, pad])
            ledger, ref_ledger = QueryLedger(), QueryLedger()
            with draws_for("fbwin-draws") as draws:
                root = TapeOracle(padded, ledger, "x")
                root._total()   # the root's sums are built before the window is taken
                length = find_block_length(root.window(7, 7 + values.size), start, s_prime,
                                           MODE_EXACT, draws, reps)
                ref = reference_block_length(TapeOracle(values, ref_ledger, "x"), start, s_prime,
                                             MODE_EXACT, draws, reps)
            assert (length, ledger.by_subroutine) == (ref, ref_ledger.by_subroutine), trial

    @pytest.mark.parametrize("seed", range(6))
    def test_cost_model_same_length_charges_and_stream(self, seed):
        for trial in range(20):
            values, start, s_prime, reps = random_sizing_case(rng_for("fbcost", seed, trial))
            results = []
            for sizer in (find_block_length, reference_block_length):
                ledger = QueryLedger()
                rng = rng_for("fbcost-draws", seed, trial)
                with contextlib.closing(StreamDraws(rng)) as draws:
                    length = sizer(TapeOracle(values, ledger, "x"), start, s_prime, MODE_COST, draws, reps)
                results.append((length, ledger.by_subroutine, ledger.total, rng.bit_generator.state))
            assert results[0] == results[1], (seed, trial)


def exact_pair(values, start, s_prime, reps=3, pad=()):
    """(length, by_subroutine) of find_block_length, on a window of values padded by
    pad on both sides of its root, and of reference_block_length on values alone;
    exact sizing draws nothing, so neither is given a reader."""
    values, pad = np.asarray(values, dtype=np.int64), np.asarray(pad, dtype=np.int64)
    out = []
    for sizer, tape in ((find_block_length, np.concatenate([pad, values, pad])),
                        (reference_block_length, values)):
        ledger = QueryLedger()
        oracle = TapeOracle(tape, ledger, "x")
        if sizer is find_block_length:
            oracle = oracle.window(pad.size, pad.size + values.size)
        out.append((sizer(oracle, start, s_prime, MODE_EXACT, None, reps), ledger.by_subroutine))
    return out


def reach_and_keep(values, start, s_prime):
    """First length from start whose total reaches s', last whose total is at most 2s'."""
    totals = np.concatenate([[0], np.cumsum(values[start:])])
    reached = np.flatnonzero(totals >= s_prime)
    return (int(reached[0]) if reached.size else None), int(np.flatnonzero(totals <= 2 * s_prime)[-1])


class TestExactSizingEdges:
    """Exact sizing decides its probes by two bisects on the running sums; these tapes put
    reach (first length reaching s') and keep (last length within 2s') on the edges that an
    off-by-one or a bisect_left / bisect_right swap would move."""

    def check(self, values, start, s_prime, reps=3, pad=()):
        ours, ref = exact_pair(values, start, s_prime, reps, pad)
        assert ours == ref, (values, start, s_prime, reps, pad)
        return ours

    def test_total_never_reaches_s_prime(self):
        for values, start, s_prime in (([0] * 12, 0, 1), ([0, 1, 0, 0, 0, 0, 0, 0, 0, 0], 0, 2),
                                       ([5, 0, 0, 1, 0, 0, 0, 1, 0, 0], 1, 3)):
            assert reach_and_keep(np.array(values), start, s_prime)[0] is None
            length, charges = self.check(values, start, s_prime)
            assert length == len(values) - start and charges[TAG_COUNTING] > 0

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
            length, charges = self.check([3] * 10, start, s_prime)
            assert length == 10 - start and charges == {}

    def test_window_of_a_padded_root(self):
        # the window reads its root's sums from its offset; heavy padding on both sides
        # would move reach and keep if the offset were dropped or misplaced
        for pad in ((9,), (1, 1, 1), (0, 4, 0, 4, 0)):
            for col in range(10):
                for value in (1, 2, 3, 5):
                    values = [0] * 10
                    values[col] = value
                    values[(col + 3) % 10] += 1
                    self.check(values, col % 4, 2, pad=pad)

    def test_every_small_tape(self):
        # every tape of up to 6 columns over {0, 1, 3}, every start, s' in 1..3 and reps 1 or 5
        for n in range(1, 7):
            for values in itertools.product((0, 1, 3), repeat=n):
                for start in range(n):
                    for s_prime in (1, 2, 3):
                        self.check(values, start, s_prime, reps=1 + 4 * (sum(values) % 2))


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
                y_block, _ = small_matrix_product(A, x, b, t, MODE_EXACT, draws, ledger)
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
                    _, blocks = small_matrix_product(A, x, b, t, mode, draws, ledger)
                assert sum(blk.length for blk in blocks) <= n
                assert sum(blk.rows_closed for blk in blocks) <= m
                assert sum(blk.open_additions for blk in blocks) <= t * m

    def test_zero_bounds_short_circuit(self):
        ledger = QueryLedger()
        A = np.ones((3, 10), dtype=np.int64)
        with draws_for("smz") as draws:
            y_block, blocks = small_matrix_product(A, np.ones(10, dtype=np.int64),
                                                   np.zeros(3, dtype=np.int64), 2,
                                                   MODE_EXACT, draws, ledger)
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
            small_matrix_product(A, x, b, 2, MODE_EXACT, draws, ledger)
        # one classical b read plus one classical x read per found position
        assert ledger.by_subroutine[TAG_CLASSICAL] == 1 + 2

    def test_shape_mismatch_rejected(self):
        with draws_for("smx") as draws, pytest.raises(Exception):
            small_matrix_product(np.ones((2, 5), dtype=np.int64),
                                 np.ones(4, dtype=np.int64),
                                 np.ones(2, dtype=np.int64), 1,
                                 MODE_EXACT, draws, QueryLedger())


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
# after a product whose third collect_ones call raised).
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
        # draws made before the failure left it, not a fetched chunk ahead
        x_max, _, after_raise = STREAM_AFTER_PRODUCT[mode]
        inst = random_instance(rng_for("after-inst", mode), 64 if x_max is None else 32, 2, x_max)
        calls = []

        def collect_then_fail(*args):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("third collect")
            return collect_ones(*args)

        monkeypatch.setattr(linsys, "collect_ones", collect_then_fail)
        rng = rng_for("after", mode)
        with pytest.raises(RuntimeError, match="third collect"):
            bounded_matrix_product(inst, 8, mode, rng)
        assert self.next_draws(rng) == after_raise

    def test_other_bit_generators_refused(self):
        inst = random_instance(rng_for("mt-inst"), 8, 2)
        with pytest.raises(TypeError, match="PCG64"):
            bounded_matrix_product(inst, 8, MODE_EXACT, np.random.Generator(np.random.MT19937(0)))


class TestOneReaderPerProduct:
    @pytest.mark.parametrize("mode", MODES)
    def test_each_product_opens_exactly_one_reader(self, mode, monkeypatch):
        # every search and counting draw of a product goes through the one reader
        # it opens; the classical baseline draws nothing and opens none
        opened = []

        class CountingDraws(StreamDraws):
            def __init__(self, rng):
                opened.append(rng)
                super().__init__(rng)

        monkeypatch.setattr(linsys, "StreamDraws", CountingDraws)
        inst = random_instance(rng_for("one-reader-inst", mode), 32, 2, 1 if mode == MODE_SV else None)
        rng = rng_for("one-reader", mode)
        res = bounded_matrix_product(inst, 8, mode, rng)
        assert opened == [rng]
        assert res.ledger.by_subroutine[TAG_COUNTING] > 0 and res.ledger.by_subroutine[TAG_GROVER] > 0
        assert sum(len(blocks) for blocks in res.group_traces) > 1
        classical_bounded_product(inst, 8)
        assert opened == [rng]


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
                tape = value_tape(vals)
                with contextlib.closing(StreamDraws(rng)) as draws:
                    length = find_block_length(tape, 0, s_prime, MODE_COST, draws, reps)
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
