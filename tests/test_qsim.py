"""Tests for the search and counting subroutines.

Closed-form expected values in here were computed by hand or with the oracle
formulas directly (arcsin/sin arithmetic), independently of the module code,
and then frozen.
"""
import bisect
import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import qsim
from ineqlab.core import QueryLedger, SeededRng, TAG_CLASSICAL, TAG_COUNTING, TAG_GROVER
from ineqlab.qsim import (
    MODE_COST,
    MODE_EXACT,
    MODE_SV,
    MODES,
    EstimatePmf,
    RangeTooLarge,
    TapeOracle,
    ae_outcome_pmf,
    collect_ones,
    count_median,
    fold_count_pmf,
    grover_search,
    sv_count_pmf,
    sv_run_grover,
)


def counting_window(n: int, w: int, M: int) -> float:
    """Absolute error within which the M-point count estimate of w marked among n lands with mass >= 8/pi^2."""
    return 2 * math.pi * math.sqrt(w * (n - w)) / M + math.pi**2 * n / M**2


def make_oracle(values, target="x"):
    ledger = QueryLedger()
    return TapeOracle(np.asarray(values, dtype=np.int64), ledger, target), ledger


def count_scans(oracle, scans):
    """Make each nonzero() scan of the oracle's values (or of a slice of them) append to scans."""
    class Scanned(np.ndarray):
        def nonzero(self):
            scans.append(1)
            return super().nonzero()
    oracle.values = oracle.values.view(Scanned)
    return oracle


def rng_for(*key):
    return SeededRng(20260819).spawn(*key).stream


def draws_for(*key):
    """A reader of rng_for(*key)'s stream, closed when its with-block ends."""
    return contextlib.closing(qsim.StreamDraws(rng_for(*key)))


def counted_searches(monkeypatch):
    """(n, w) of every search from here on, in call order: each search takes the hit
    thresholds of its range length n and its live weight w once, as it starts."""
    seen, real = [], qsim._hit_thresholds
    monkeypatch.setattr(qsim, "_hit_thresholds", lambda n, w: seen.append((n, w)) or real(n, w))
    return seen


def searches_of_zeroed_copies(values, mode, key):
    """Outcomes of one grover_search per find, each on a copy of the tape with the
    positions found before it zeroed, until one reports NoSolution; and their ledger."""
    ledger, outcomes = QueryLedger(), []
    with draws_for(*key) as draws:
        while True:
            hit = grover_search(TapeOracle(zeroed(values, outcomes), ledger), mode, draws).found
            outcomes.append(hit)
            if hit is None:
                return outcomes, ledger


def zeroed(values, positions):
    """A copy of the tape with the given positions set to 0."""
    values = np.array(values, dtype=np.int64)
    values[list(positions)] = 0
    return values


class CraftedWords:
    """Raw words of a PCG64 stream with the low half of every third word zeroed: a
    32-bit value of 0 makes x * high = 0, which integers(0, 3) and integers(0, 9)
    reject (thresholds 1 and 4)."""

    def __init__(self, *key):
        self.source, self.count = rng_for("crafted", *key).bit_generator, 0

    def random_raw(self, size):
        words = self.source.random_raw(size)
        words[(self.count + np.arange(size)) % 3 == 0] &= np.uint64(0xFFFFFFFF00000000)
        self.count += size
        return words


def crafted_reader(key, live_half):
    """A reader of CraftedWords(*key), opened on a Generator whose 32-bit buffer holds
    a live high half (numpy's has_uint32 = 1) or a served one."""
    rng = rng_for("opened", *key)
    if live_half:
        rng.integers(0, 17)   # one 32-bit draw buffers its word's high half
    reader = qsim.StreamDraws(rng)
    assert (reader.half >= 0) == bool(live_half)
    reader.bit_generator = CraftedWords(*key)
    return reader


def words_read(draws):
    """Raw words a reader over CraftedWords has read so far."""
    return draws.bit_generator.count - (len(draws.words) - draws.pos)


class CheckedRng:
    """Generator calls answered, one draw each, by a reader's checked below() and
    uniform read."""

    def __init__(self, reader):
        self.reader = reader

    def integers(self, low, high):
        return self.reader.below(high)

    def random(self):
        return self.reader.median_uniform(1)


class CountingRng:
    """A Generator that counts its random() draws."""

    def __init__(self, rng):
        self.rng, self.randoms = rng, 0

    def random(self, *args):
        self.randoms += 1
        return self.rng.random(*args)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def reference_sample_measurement(bits, ones, rest, j, mode, rng):
    """Measured index after j iterations, drawn per attempt as grover_search once did."""
    n = bits.size
    if mode == MODE_SV:
        pmf = sv_run_grover(bits, j)
        return int(rng.choice(n, p=pmf / pmf.sum()))
    w = int(ones.size)
    p = qsim.grover_success(n, w, j) if w else 0.0
    if rng.random() < p:
        return int(ones[rng.integers(0, w)])
    if rest.size == 0:
        return int(ones[rng.integers(0, w)])
    return int(rest[rng.integers(0, rest.size)])


def reference_grover_search(oracle, mode, rng):
    """The per-attempt search: each attempt charges its j iterations, then its
    verification read, one query at a time, on the oracle's ledger; every draw
    is a Generator call."""
    n = oracle.n
    bits = oracle._bits()
    ones = np.flatnonzero(bits)
    rest = np.flatnonzero(~bits)
    budget = qsim.RETRY_BUDGET_FACTOR * math.ceil(math.sqrt(n))
    charged = 0
    found = None
    cap = 1.0
    while charged < budget:
        j = int(rng.integers(0, max(1, math.ceil(cap))))
        cap = min(cap * qsim.CAP_GROWTH, math.sqrt(n))
        oracle.charge(j, TAG_GROVER)
        idx = reference_sample_measurement(bits, ones, rest, j, mode, rng)
        oracle.charge(1, TAG_GROVER)
        bit = int(oracle.values[idx] > 0)
        charged += j + 1
        if bit:
            found = idx
            break
    if found is None and mode == MODE_EXACT and ones.size:
        found = int(ones[rng.integers(0, ones.size)])
    return qsim.SearchOutcome(found=found)


# ---------------------------------------------------------------------------
# tape oracle


class TestTapeOracle:
    def test_read_values_charges_and_returns(self):
        oracle, ledger = make_oracle([0, 3, 0, 1])
        assert oracle.read_values([1, 0, 3]).tolist() == [3, 0, 1]
        assert (ledger.queries_x, ledger.queries_b) == (3, 0)
        assert ledger.by_subroutine == {TAG_CLASSICAL: 3}
        assert oracle.read_values(np.arange(2), TAG_GROVER).tolist() == [0, 3]
        assert ledger.by_subroutine == {TAG_CLASSICAL: 3, TAG_GROVER: 2}

    def test_read_values_is_one_ledger_charge(self, monkeypatch):
        charges = []
        real_charge = QueryLedger.charge
        monkeypatch.setattr(QueryLedger, "charge",
                            lambda self, *a: charges.append(a) or real_charge(self, *a))
        oracle, ledger = make_oracle(np.arange(10), target="b")
        assert oracle.read_values(np.arange(10)).tolist() == list(range(10))
        assert charges == [("b", TAG_CLASSICAL, 10)]
        assert ledger.queries_b == 10

    def test_empty_read_charges_nothing(self):
        oracle, ledger = make_oracle([0, 3])
        out = oracle.read_values([])
        assert out.size == 0 and out.dtype == np.int64
        assert ledger.total == 0
        assert ledger.by_subroutine == {}

    def test_out_of_range_read_raises_before_charging(self):
        oracle, ledger = make_oracle([1, 0])
        for idx in ([2], [-1], [0, 2], [1, -1]):
            with pytest.raises(IndexError):
                oracle.read_values(idx)
        assert ledger.total == 0
        assert ledger.by_subroutine == {}

    @pytest.mark.parametrize("idx", (
        [1.7], [0, 1.0], [np.float64(1)], [True, False], [0, np.True_], ["1"], [None],
        (1.7,), (True,), (1, True),
        np.array([1.7]), np.array([True, False]), np.array([0, 1], dtype=object),
    ), ids=repr)
    def test_non_integer_index_refused_before_charging(self, idx):
        # a float is not truncated and a bool is not an index (nor a mask)
        oracle, ledger = make_oracle([4, 5, 6])
        with pytest.raises(IndexError, match="are not (all )?integers"):
            oracle.read_values(idx)
        assert ledger.total == 0 and ledger.by_subroutine == {}

    def test_python_and_numpy_integers_read(self):
        oracle, ledger = make_oracle([4, 5, 6])
        for idx in ([2, 0], [np.int64(2), np.int32(0)], [np.uint8(2), 0], (2, 0),
                    np.array([2, 0]), np.array([2, 0], dtype=np.uint16), np.array([2, 0], dtype=np.int8)):
            out = oracle.read_values(idx)
            assert out.tolist() == [6, 4] and out.dtype == np.int64, idx
        assert ledger.by_subroutine == {TAG_CLASSICAL: 14}

    def test_out_of_range_message_names_the_first_bad_index(self):
        oracle, ledger = make_oracle([1, 0])
        for idx in ([0, 5, -1], (0, 5, -1), [np.int64(0), np.int64(5)], np.array([0, 5, -1])):
            with pytest.raises(IndexError, match=r"^tape index 5 out of range$"):
                oracle.read_values(idx)
        assert ledger.total == 0 and ledger.by_subroutine == {}

    def test_window_shares_ledger_and_relabels_indices(self):
        oracle, ledger = make_oracle([0, 0, 5, 0, 7])
        win = oracle.window(2, 5)
        assert win.n == 3
        assert win.read_values([0, 2]).tolist() == [5, 7]
        assert ledger.queries_x == 2
        win.charge(4, TAG_GROVER)
        assert ledger.queries_x == 6

    def test_windows_of_windows_total_their_slice(self):
        # a window is built without re-checking its parent; once the tape's running
        # sums are built, every window, and every window of one of its windows,
        # reads those same sums and totals exactly its slice
        values = rng_for("windows").integers(0, 4, size=23)
        oracle, ledger = make_oracle(values)
        assert oracle._total() == int(values.sum())
        sums = oracle._sums()
        for lo in range(24):
            for hi in range(lo, 24):
                win = oracle.window(lo, hi)
                assert type(win) is TapeOracle and win.ledger is ledger and win.target == "x"
                assert win.n == hi - lo and win._total() == int(values[lo:hi].sum()), (lo, hi)
                assert win._sums() is sums
                for a in range(hi - lo + 1):
                    for b in range(a, hi - lo + 1):
                        inner = win.window(a, b)
                        assert inner._sums() is sums and inner._total() == int(values[lo + a:lo + b].sum())
        assert ledger.total == 0

    def test_length_is_fixed_at_construction(self, monkeypatch):
        # n is set once per tape: a tape, its windows and their windows each
        # keep n == values.size, and every search of a collection runs on the
        # collected window's n
        oracle, _ = make_oracle(np.arange(11) % 3)
        win = oracle.window(2, 9)
        inner = win.window(1, 5)
        for tape, size in ((oracle, 11), (win, 7), (inner, 4), (inner.window(2, 2), 0)):
            assert type(tape.n) is int and tape.n == tape.values.size == size
        seen = counted_searches(monkeypatch)
        with draws_for("live-n") as draws:
            found = collect_ones(win, MODE_EXACT, draws)
        assert len(seen) == len(found) + 1 and {n for n, _ in seen} == {win.values.size} == {7}

    def test_window_bounds_checked(self):
        oracle, _ = make_oracle([1, 2, 3])
        with pytest.raises(IndexError):
            oracle.window(1, 4)
        with pytest.raises(IndexError):
            oracle.window(-1, 2)

    def test_target_b_charges_other_counter(self):
        oracle, ledger = make_oracle([2, 0], target="b")
        oracle.read_values([0])
        assert ledger.queries_b == 1
        assert ledger.queries_x == 0

    def test_uncharged_internals_do_not_touch_ledger(self):
        oracle, ledger = make_oracle([0, 1, 2, 0])
        assert oracle._total() == 3
        assert list(np.flatnonzero(oracle._bits())) == [1, 2]
        masked, masked_ledger = make_oracle(zeroed(oracle.values, {1}))
        assert list(np.flatnonzero(masked._bits())) == [2]
        assert list(np.flatnonzero(oracle._bits())) == [1, 2]   # the copy was zeroed
        assert ledger.total == 0 and masked_ledger.total == 0


# ---------------------------------------------------------------------------
# known-weight schedule


class WeightZero(ValueError):
    """Known-weight schedule requested for an empty range."""


def grover_schedule(n, w):
    """Known-weight iteration count and success probability, the reference the
    unknown-weight search and the statevector iterate are checked against.

    theta = arcsin(sqrt(w/n)), k = floor(pi / (4 theta)), p = sin^2((2k+1) theta).
    """
    if n < 1:
        raise ValueError("range must be nonempty")
    if w == 0:
        raise WeightZero("schedule undefined for weight 0")
    if not 0 < w <= n:
        raise ValueError(f"weight {w} out of range [1, {n}]")
    k = int(math.pi / (4 * math.asin(math.sqrt(w / n))))
    return k, qsim.grover_success(n, w, k)


class TestGroverSchedule:
    def test_quarter_fraction_is_exact(self):
        # theta = pi/6, k = floor(3/2) = 1, p = sin^2(pi/2) = 1
        k, p = grover_schedule(4, 1)
        assert k == 1
        assert p == pytest.approx(1.0, abs=1e-15)

    def test_full_fraction_needs_no_iterations(self):
        k, p = grover_schedule(4, 4)
        assert k == 0
        assert p == pytest.approx(1.0, abs=1e-15)

    def test_single_mark_in_1024(self):
        k, p = grover_schedule(1024, 1)
        assert k == 25
        assert p > 0.999
        # amplitude sin((2k+1) theta), frozen to 4 digits
        assert abs(math.sqrt(p) - 0.9997) < 1e-3

    def test_weight_zero_raises(self):
        with pytest.raises(WeightZero):
            grover_schedule(16, 0)

    def test_weight_out_of_range_raises(self):
        with pytest.raises(ValueError):
            grover_schedule(4, 5)
        with pytest.raises(ValueError):
            grover_schedule(0, 1)

    def test_schedule_probability_at_least_half(self):
        # worst case over all weights stays above 1/2
        for n in (2, 3, 4, 7, 16, 100, 1024):
            for w in range(1, n + 1):
                _, p = grover_schedule(n, w)
                assert p >= 0.5 - 1e-12, (n, w)

    def test_matches_statevector_mass_on_marks(self):
        for n, w in ((8, 1), (16, 3), (64, 5), (100, 37)):
            bits = np.zeros(n, dtype=bool)
            bits[:w] = True
            k, p = grover_schedule(n, w)
            pmf = sv_run_grover(bits, k)
            assert pmf[:w].sum() == pytest.approx(p, abs=1e-10)


class TestSvRunGrover:
    def test_pmf_normalized(self):
        bits = np.zeros(32, dtype=bool)
        bits[5] = True
        for k in range(6):
            pmf = sv_run_grover(bits, k)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert (pmf >= -1e-15).all()

    def test_zero_iterations_is_uniform(self):
        pmf = sv_run_grover(np.zeros(10, dtype=bool), 0)
        assert np.allclose(pmf, 0.1, atol=1e-15)

    def test_range_cap_enforced(self):
        with pytest.raises(RangeTooLarge):
            sv_run_grover(np.zeros(qsim.SV_MAX_N + 1, dtype=bool), 1)


# ---------------------------------------------------------------------------
# search


class TestStreamDraws:
    @pytest.mark.parametrize("high", [1, 2, 17, 2**31 + 1, 2**32])
    def test_draws_match_generator_calls(self, high):
        # a reader and a twin Generator give the same integers(0, high), random()
        # and median of random(reps); direct Generator calls are interleaved by
        # closing the reader first, and each close leaves the twin's whole state
        rng, ref = rng_for("draws", high), rng_for("draws", high)
        draws = qsim.StreamDraws(rng)
        p = [0.1, 0.2, 0.3, 0.4]
        for step in range(300):
            assert draws.below(high) == int(ref.integers(0, high)), step
            assert draws.median_uniform(1) == ref.random(), step
            if step % 5 == 0:
                reps = (3, 5, 25)[step % 3]
                assert draws.median_uniform(reps) == sorted(ref.random(reps))[reps // 2], step
            if step % 7 == 0:
                draws.close()
                assert rng.bit_generator.state == ref.bit_generator.state, step
                assert rng.choice(4, p=p) == ref.choice(4, p=p)
                assert np.array_equal(rng.random(3), ref.random(3))
                assert rng.integers(0, high) == ref.integers(0, high)
                draws = qsim.StreamDraws(rng)
        draws.close()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_close_keeps_the_stale_32_bit_buffer(self):
        # a served high half stays in numpy's state as uinteger with has_uint32 = 0
        rng, ref = rng_for("stale"), rng_for("stale")
        with contextlib.closing(qsim.StreamDraws(rng)) as draws:
            draws.below(17)
            draws.below(17)
        ref.integers(0, 17)
        ref.integers(0, 17)
        state = ref.bit_generator.state
        assert state["has_uint32"] == 0 and state["uinteger"] != 0
        assert rng.bit_generator.state == state

    def test_draw_run_across_chunk_refills(self):
        # one open reader over several RAW_CHUNK fetches, medians straddling them
        rng, ref = rng_for("refill"), rng_for("refill")
        with contextlib.closing(qsim.StreamDraws(rng)) as draws:
            for step in range(3 * qsim.RAW_CHUNK // 4):
                assert draws.below(1000) == ref.integers(0, 1000), step
                assert draws.median_uniform(1) == ref.random(), step
                assert draws.median_uniform(9) == sorted(ref.random(9))[4], step
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_rejection_loop_reads_one_word_per_try(self):
        # at high = 2**31 + 1 about half the 32-bit words are rejected; replaying
        # the stream one raw word at a time (integers(0, 2**32) is one
        # next_uint32) finds the reader's state after about two words per draw
        rng, words = rng_for("reject"), rng_for("reject")
        draws = 400
        with contextlib.closing(qsim.StreamDraws(rng)) as reader:
            for _ in range(draws):
                reader.below(2**31 + 1)
        used = 0
        while words.bit_generator.state != rng.bit_generator.state and used < 10 * draws:
            words.integers(0, 2**32)
            used += 1
        assert 1.6 * draws < used < 2.4 * draws

    def test_one_value_range_draws_nothing_and_wide_range_refused(self):
        rng = rng_for("edges")
        state = rng.bit_generator.state
        with contextlib.closing(qsim.StreamDraws(rng)) as draws:
            assert draws.below(1) == 0 and draws.below(0) == 0
            with pytest.raises(ValueError):
                draws.below(2**32 + 1)   # numpy bounds this range on its 64-bit path
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("live_half", [False, True])
    def test_uint32s_serve_next_uint32_values(self, monkeypatch, live_half):
        # integers(0, 2**32) is one next_uint32; reads of every parity, some within
        # the fetched words and some past them, leave pos and half where below()
        # would, so a below() after each read and the state at close agree
        monkeypatch.setattr(qsim, "RAW_CHUNK", 8)
        rng, ref = rng_for("uint32s", live_half), rng_for("uint32s", live_half)
        if live_half:
            rng.integers(0, 17)
            ref.integers(0, 17)
        with contextlib.closing(qsim.StreamDraws(rng)) as draws:
            for step, count in enumerate([0, 1, 2, 3, 5, 0, 4, 7, 30, 1, 2, 9]):
                got = draws.uint32s(count)
                assert got.dtype == np.uint64 and got.shape == (count,), step
                assert got.tolist() == [int(ref.integers(0, 2**32)) for _ in range(count)], step
                assert draws.below(1000) == ref.integers(0, 1000), step
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_other_bit_generators_refused(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match="PCG64"):
            qsim.StreamDraws(rng)

    @pytest.mark.parametrize("mode", [MODE_COST, MODE_EXACT])
    def test_lemire_rejection_inside_a_search_takes_the_checked_path(self, mode, monkeypatch):
        # a word whose low half is 0 makes x * high = 0, which integers(0, 3) and
        # integers(0, 9) reject (thresholds 1 and 4).  Over words with many such
        # zeros, fetched a few at a time so that refills land inside searches,
        # the search's local loop and the per-attempt reference, reading the same
        # words through the reader's checked below(), agree
        monkeypatch.setattr(qsim, "RAW_CHUNK", 4)
        fast, checked = crafted_reader((mode,), live_half=False), crafted_reader((mode,), live_half=False)
        checked_highs = []
        real_draw = qsim.StreamDraws.draw
        monkeypatch.setattr(qsim.StreamDraws, "draw", lambda self, high, *rest:
                            checked_highs.append(high) or real_draw(self, high, *rest))
        for case in range(60):
            values = np.zeros(9, dtype=np.int64)
            values[:case % 4] = 1
            oracle, ledger = make_oracle(values)
            ref_oracle, ref_ledger = make_oracle(values)
            out = grover_search(oracle, mode, fast)
            assert out == reference_grover_search(ref_oracle, mode, CheckedRng(checked)), case
            assert ledger == ref_ledger, case
            assert (fast.half, words_read(fast)) == (checked.half, words_read(checked)), case
        assert {3, 9} <= set(checked_highs)   # an attempt count and a missed index


class TestGroverSearch:
    def test_bad_mode_rejected(self):
        oracle, _ = make_oracle([1])
        with draws_for("bad") as draws, pytest.raises(ValueError):
            grover_search(oracle, "quantum", draws)

    def test_empty_tape_reports_no_solution_all_modes(self):
        budget = qsim.RETRY_BUDGET_FACTOR * math.ceil(math.sqrt(16))
        for mode in MODES:
            oracle, ledger = make_oracle([0] * 16)
            with draws_for("empty", mode) as draws:
                out = grover_search(oracle, mode, draws)
            assert out.found is None
            assert ledger.by_subroutine == {TAG_GROVER: ledger.total}
            # the attempts run the whole budget; the last may overshoot by at most its own cap
            assert budget <= ledger.total <= budget + math.ceil(math.sqrt(16)) + 1

    def test_found_position_is_always_verified_mark(self):
        values = np.zeros(32, dtype=np.int64)
        values[[4, 9, 20]] = 1
        with draws_for("verified") as draws:
            for trial in range(50):
                oracle, _ = make_oracle(values)
                out = grover_search(oracle, MODE_COST, draws)
                if out.found is not None:
                    assert out.found in (4, 9, 20)

    def test_exclusion_restricts_search_support(self):
        values = zeroed([0, 1, 0, 1, 0, 0, 0, 0], {1})
        for trial in range(30):
            oracle, _ = make_oracle(values)
            with draws_for("excl", trial) as draws:
                out = grover_search(oracle, MODE_EXACT, draws)
            assert out.found == 3

    def test_exact_mode_forces_success_when_budget_lapses(self, monkeypatch):
        monkeypatch.setattr(qsim, "RETRY_BUDGET_FACTOR", 0)
        oracle, ledger = make_oracle([0] * 15 + [1])
        with draws_for("forced") as draws:
            out = grover_search(oracle, MODE_EXACT, draws)
        assert out.found == 15
        assert ledger.total == 0
        oracle2, _ = make_oracle([0] * 15 + [1])
        with draws_for("forced") as draws:
            out2 = grover_search(oracle2, MODE_COST, draws)
        assert out2.found is None

    def test_same_seed_reproduces_outcome(self):
        values = np.zeros(64, dtype=np.int64)
        values[[3, 17, 40, 41]] = 2
        for mode in MODES:
            runs = []
            for _ in range(2):
                oracle, ledger = make_oracle(values)
                with draws_for("det", mode) as draws:
                    out = grover_search(oracle, mode, draws)
                runs.append((out, ledger.total))
            assert runs[0] == runs[1]

    def test_cost_and_exact_charge_identically_per_seed(self):
        values = np.zeros(30, dtype=np.int64)
        values[[7, 8]] = 1
        for trial in range(40):
            oc, lc = make_oracle(values)
            oe, le = make_oracle(values)
            with draws_for("pair", trial) as draws:
                out_c = grover_search(oc, MODE_COST, draws)
            with draws_for("pair", trial) as draws:
                out_e = grover_search(oe, MODE_EXACT, draws)
            assert lc == le
            if out_c.found is not None:
                assert out_c.found == out_e.found

    def test_first_attempt_success_rate_matches_schedule(self):
        # n=8, w=1: k=2, p = sin^2(5 asin(sqrt(1/8))) ~ 0.9459, drawn by the
        # per-attempt sampler that the stream-equivalence test below ties to
        # grover_search draw for draw; grover_search's own first attempt has
        # j = 0, so it hits with mass w/n
        n, w = 8, 1
        k, p = grover_schedule(n, w)
        assert k == 2
        bits = np.zeros(n, dtype=bool)
        bits[5] = True
        ones, rest = np.flatnonzero(bits), np.flatnonzero(~bits)
        for mode in (MODE_COST, MODE_SV):
            trials = 600
            hits = sum(
                reference_sample_measurement(bits, ones, rest, k, mode, rng_for("rate", mode, trial)) == 5
                for trial in range(trials)
            )
            assert abs(hits / trials - p) < 0.05, mode
            first = 0
            for trial in range(trials):
                oracle, ledger = make_oracle(bits)
                with draws_for("first", mode, trial) as draws:
                    grover_search(oracle, mode, draws)
                first += ledger.total == 1
            assert abs(first / trials - w / n) < 0.05, mode

    def test_unknown_weight_single_mark_found_reliably(self):
        values = np.zeros(64, dtype=np.int64)
        values[23] = 1
        misses = 0
        for trial in range(300):
            oracle, _ = make_oracle(values)
            with draws_for("bbht", trial) as draws:
                out = grover_search(oracle, MODE_COST, draws)
            if out.found is None:
                misses += 1
            else:
                assert out.found == 23
        assert misses <= 15  # ~2% expected under the retry budget

    def test_one_mask_build_per_search(self, monkeypatch):
        # with its only mark zeroed, the search runs its whole budget of
        # attempts in every mode; its 1-positions are still scanned once, the
        # derived bit tape is built once in statevector mode and never in the
        # others (they read the support off the values, which are >= 0), and
        # the attempts are booked in one ledger charge
        builds, scans, charges = [], [], []
        real_bits, real_charge = TapeOracle._bits, QueryLedger.charge
        monkeypatch.setattr(TapeOracle, "_bits", lambda self, *a: builds.append(1) or real_bits(self, *a))
        monkeypatch.setattr(QueryLedger, "charge",
                            lambda self, *a: charges.append(a) or real_charge(self, *a))
        values = np.zeros(64, dtype=np.int64)
        values[23] = 1
        values = zeroed(values, {23})
        for mode in MODES:
            builds.clear()
            scans.clear()
            charges.clear()
            oracle, ledger = make_oracle(values)
            rng = rng_for("masks", mode)
            with contextlib.closing(qsim.StreamDraws(rng)) as draws:
                out = grover_search(count_scans(oracle, scans), mode, draws)
            assert out.found is None
            assert charges == [("x", TAG_GROVER, ledger.total)], mode
            assert len(builds) == (mode == MODE_SV) and len(scans) == 1, mode
            # the reference draws one Generator uniform per attempt to decide hit
            # or miss; the search leaves the stream, and charges the ledger, as
            # those draws and per-attempt charges do
            ref_rng = CountingRng(rng_for("masks", mode))
            ref_oracle, ref_ledger = make_oracle(values)
            assert reference_grover_search(ref_oracle, mode, ref_rng) == out
            assert ref_ledger == ledger, mode
            assert rng.bit_generator.state == ref_rng.bit_generator.state, mode
            if mode != MODE_SV:
                assert ref_rng.randoms > 5, mode
        # a whole collection, len(found) + 1 searches, also scans the support once
        # and books the attempts of all its searches in one charge
        values[[3, 23, 40]] = [1, 2, 1]
        for mode in MODES:
            builds.clear()
            scans.clear()
            charges.clear()
            oracle, ledger = make_oracle(values)
            with draws_for("masks-collect", mode) as draws:
                found = collect_ones(count_scans(oracle, scans), mode, draws)
            assert found, mode
            assert charges == [("x", TAG_GROVER, ledger.total)], mode
            assert len(builds) == (mode == MODE_SV) and len(scans) == 1, mode

    @pytest.mark.parametrize("mode", MODES)
    def test_stream_matches_per_attempt_reference(self, mode):
        # same outcome, charges and random stream as the per-attempt search,
        # over tapes of every weight from 0 to n (n = 1 included)
        gen = rng_for("tapes", mode)
        cases = []
        for n in (1, 1, 2, 3, 5, 8, 13, 32, 64):
            for density in (0.0, 0.1, 0.5, 1.0):
                values = np.where(gen.random(n) < density, gen.integers(1, 3, size=n), 0)
                cases.append(zeroed(values, np.flatnonzero(gen.random(n) < 0.1)))
        weights = set()
        for case, values in enumerate(cases):
            for target in ("x", "b"):
                oracle, ledger = make_oracle(values, target)
                ref_oracle, ref_ledger = make_oracle(values, target)
                rng, ref_rng = rng_for("stream", mode, case), rng_for("stream", mode, case)
                with contextlib.closing(qsim.StreamDraws(rng)) as draws:
                    out = grover_search(oracle, mode, draws)
                ref = reference_grover_search(ref_oracle, mode, ref_rng)
                assert out == ref, (case, target)
                assert ledger == ref_ledger, (case, target)
                assert rng.bit_generator.state == ref_rng.bit_generator.state, (case, target)
            bits = values > 0
            weights.add((int(bits.sum()) > 0) + (int(bits.sum()) == values.size))
        assert weights == {0, 1, 2}   # weight 0, partial weight and full weight all occur

    @pytest.mark.parametrize("failure", ["norm drift", "bad law"])
    def test_a_failing_attempt_leaves_the_stream_where_per_attempt_draws_did(self, failure,
                                                                            monkeypatch):
        # the second statevector attempt fails, in the run itself or in the
        # check of its law, before its measurement draw; the search's reader,
        # closed on the way out, leaves the Generator where the per-attempt
        # search leaves its twin
        def failing_second_run(runs, real=sv_run_grover):
            def run(bits, k):
                runs.append(k)
                pmf = real(bits, k)
                if len(runs) == 2 and failure == "norm drift":
                    raise AssertionError("statevector norm drifted")
                if len(runs) == 2:
                    pmf[0] = np.nan
                return pmf
            return run

        values = np.zeros(64, dtype=np.int64)
        values[5] = 1
        runs, ref_runs = [], []
        monkeypatch.setattr(qsim, "sv_run_grover", failing_second_run(runs))
        monkeypatch.setitem(globals(), "sv_run_grover", failing_second_run(ref_runs))
        rng, ref_rng = rng_for("failing", failure), rng_for("failing", failure)
        error = AssertionError if failure == "norm drift" else ValueError
        with pytest.raises(error), contextlib.closing(qsim.StreamDraws(rng)) as draws:
            grover_search(make_oracle(values)[0], MODE_SV, draws)
        with pytest.raises(error):
            reference_grover_search(make_oracle(values)[0], MODE_SV, ref_rng)
        assert len(runs) == len(ref_runs) == 2
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.bit_generator.state != rng_for("failing", failure).bit_generator.state


class TestCollectOnes:
    def test_exact_mode_recovers_full_support(self, monkeypatch):
        searches = counted_searches(monkeypatch)
        values = [3, 1, 0, 2, 0, 0, 1, 5]
        with draws_for("cexact") as draws:
            found = collect_ones(make_oracle(values)[0], MODE_EXACT, draws)
        assert type(found) is tuple and frozenset(found) == {0, 1, 3, 6, 7}
        assert len(searches) == 6  # five finds plus the closing empty probe

    @pytest.mark.parametrize("mode", MODES)
    def test_searches_never_read_stale_sums(self, mode, monkeypatch):
        # nothing is written while a window is collected, even with the tape's sums
        # built: every search takes the live weight, the window's support less the
        # positions found before it, and the tape keeps its values and its sums
        seen = counted_searches(monkeypatch)
        values = [3, 1, 0, 2, 0, 0, 1, 5, 0, 1]
        oracle, _ = make_oracle(values)
        assert oracle._total() == sum(values)
        sums, win = oracle._sums(), oracle.window(1, 10)
        with draws_for("cstale", mode) as draws:
            found = collect_ones(win, mode, draws)
        assert len(seen) == len(found) + 1 and len(set(seen)) > 1
        live = [(win.n, int((zeroed(win.values, found[:i]) > 0).sum())) for i in range(len(found) + 1)]
        assert seen == live, seen
        assert oracle.values.tolist() == values and oracle._sums() is sums and oracle._total() == sum(values)

    @pytest.mark.parametrize("mode", MODES)
    def test_one_search_per_find_and_one_to_close(self, mode, monkeypatch):
        # the searches are not counted in the result: there are len(found) + 1,
        # one per find and the closing one that reports NoSolution
        searches = counted_searches(monkeypatch)
        gen = rng_for("count-searches", mode)
        for trial in range(12):
            values = np.where(gen.random(24) < 0.3, gen.integers(1, 4, size=24), 0)
            searches.clear()
            with draws_for("count-searches", mode, trial) as draws:
                found = collect_ones(make_oracle(values)[0], mode, draws)
            assert len(searches) == len(found) + 1, trial
            weight = int((values > 0).sum())
            assert [w for _, w in searches] == [weight - i for i in range(len(found) + 1)], trial
            outcomes, _ = searches_of_zeroed_copies(values, mode, ("count-searches", mode, trial))
            assert outcomes == [*found, None], trial

    def test_all_marks_tape_collects_everything(self):
        with draws_for("full") as draws:
            found = collect_ones(make_oracle([1, 1, 1, 1])[0], MODE_EXACT, draws)
        assert frozenset(found) == {0, 1, 2, 3}

    def test_empty_tape_is_single_probe(self, monkeypatch):
        searches = counted_searches(monkeypatch)
        for mode in MODES:
            searches.clear()
            with draws_for("cempty", mode) as draws:
                found = collect_ones(make_oracle([0] * 9)[0], mode, draws)
            assert found == ()
            assert len(searches) == 1

    def test_found_positions_distinct_and_marked(self):
        values = np.zeros(48, dtype=np.int64)
        support = {2, 3, 11, 30, 31, 44}
        values[list(support)] = 1
        for trial in range(25):
            with draws_for("dist", trial) as draws:
                found = collect_ones(make_oracle(values)[0], MODE_COST, draws)
            assert len(set(found)) == len(found)
            assert set(found) <= support

    def test_cost_mode_usually_exhausts_support(self):
        values = np.zeros(64, dtype=np.int64)
        support = {1, 9, 22, 37, 50, 63}
        values[list(support)] = 1
        complete = 0
        for trial in range(100):
            with draws_for("cstat", trial) as draws:
                found = collect_ones(make_oracle(values)[0], MODE_COST, draws)
            if frozenset(found) == support:
                complete += 1
        assert complete >= 90

    def test_deterministic_given_seed(self):
        values = np.zeros(32, dtype=np.int64)
        values[[4, 5, 6]] = 1
        (oracle_a, ledger_a), (oracle_b, ledger_b) = make_oracle(values), make_oracle(values)
        with draws_for("cdet") as draws:
            a = collect_ones(oracle_a, MODE_COST, draws)
        with draws_for("cdet") as draws:
            b = collect_ones(oracle_b, MODE_COST, draws)
        assert a == b and ledger_a == ledger_b

    def test_live_tape_matches_searches_with_exclusion_sets(self, monkeypatch):
        # one support scan per collection (and one bit tape, in statevector mode
        # only), and the same draws and charges as one search per find on a tape
        # copy with the found positions zeroed
        builds, scans = [], []
        real_bits = TapeOracle._bits
        monkeypatch.setattr(TapeOracle, "_bits", lambda self, *a: builds.append(1) or real_bits(self, *a))
        values = np.zeros(48, dtype=np.int64)
        values[[2, 3, 11, 30, 31, 44]] = [1, 2, 1, 3, 1, 1]
        for mode in MODES:
            for trial in range(5):
                oracle, ledger = make_oracle(values)
                builds.clear()
                scans.clear()
                with draws_for("live", mode, trial) as draws:
                    res = collect_ones(count_scans(oracle, scans), mode, draws)
                assert len(builds) == (mode == MODE_SV) and len(scans) == 1, mode
                outcomes, ref_ledger = searches_of_zeroed_copies(values, mode, ("live", mode, trial))
                assert [*res, None] == outcomes
                assert ledger == ref_ledger

    @pytest.mark.parametrize("mode", [MODE_COST, MODE_EXACT])
    def test_matches_per_attempt_searches_of_zeroed_copies_draw_for_draw(self, mode, monkeypatch):
        # a collection against a loop of per-attempt reference searches on copies
        # with the found positions zeroed, whose every draw is one checked below()
        # or uniform read of a twin reader: the same finds, charges, 32-bit buffer
        # and words read.  Weights 0, 1, n - 1 and n at n = 1 and up, readers opened
        # with a live or a served high half, words fetched a few at a time so that
        # refills land inside searches, and crafted words on which Lemire rejects
        monkeypatch.setattr(qsim, "RAW_CHUNK", 4)
        highs = []
        real_draw = qsim.StreamDraws.draw
        monkeypatch.setattr(qsim.StreamDraws, "draw", lambda self, high, *rest:
                            highs.append(high) or real_draw(self, high, *rest))
        gen = rng_for("zeroed-copies", mode)
        checked_empty_nine = set()
        for n in (1, 2, 9, 16):
            for weight in sorted({0, 1, n - 1, n}):
                for trial in range(6):
                    key = (mode, n, weight, trial)
                    fast, checked = crafted_reader(key, trial % 2), crafted_reader(key, trial % 2)
                    values = np.zeros(n, dtype=np.int64)
                    values[gen.permutation(n)[:weight]] = gen.integers(1, 4, size=weight)
                    oracle, ledger = make_oracle(values)
                    highs.clear()
                    found = collect_ones(oracle, mode, fast)
                    if (n, weight) == (9, 0):
                        checked_empty_nine.update(highs)
                    ref_ledger, ref_found, rng = QueryLedger(), [], CheckedRng(checked)
                    while (hit := reference_grover_search(TapeOracle(zeroed(values, ref_found), ref_ledger),
                                                          mode, rng).found) is not None:
                        ref_found.append(hit)
                    assert found == tuple(ref_found), key
                    assert ledger == ref_ledger, key
                    assert (fast.half, words_read(fast)) == (checked.half, words_read(checked)), key
        # with no 1-positions among 9, an attempt count (cap 3) and a missed index
        # (9 zeros) each took the checked path
        assert {3, 9} <= checked_empty_nine


    def test_hit_thresholds_decide_as_the_uniform_does(self):
        # the raw-word rule word < thr[j] against (word >> 11) * 2**-53 < mass at
        # both sides of every threshold and at the ends of the word range
        for n in range(1, 65):
            for w in range(n + 1):
                thr = qsim._hit_thresholds(n, w)
                assert len(thr) == math.ceil(math.sqrt(n)), (n, w)
                for j, t in enumerate(thr):
                    mass = qsim.grover_success(n, w, j)
                    for word in {t - 1, t, 0, 2**64 - 1}:
                        if 0 <= word < 2**64:
                            assert (word < t) == ((word >> 11) * 2**-53 < mass), (n, w, j, word)
                if w == 0:
                    assert set(thr) == {0}
                if w == n:
                    assert set(thr) == {2**64}


# ---------------------------------------------------------------------------
# counting distributions


class TestAeOutcomePmf:
    def test_pmf_normalized_across_grid(self):
        for a in (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.77, 1.0):
            for M in (1, 2, 3, 4, 8, 16, 101):
                pmf = ae_outcome_pmf(a, M)
                assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12), (a, M)
                assert pmf.values.size == M // 2 + 1
                assert (np.diff(pmf.values) > 0).all()
                assert pmf.values[0] == 0.0
                assert (pmf.probs >= -1e-15).all()

    def test_zero_fraction_estimated_exactly(self):
        pmf = ae_outcome_pmf(0.0, 16)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_full_fraction_estimated_exactly_even_grid(self):
        pmf = ae_outcome_pmf(1.0, 8)
        assert pmf.values[-1] == pytest.approx(1.0, abs=1e-15)
        assert pmf.probs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_representable_half_is_certain(self):
        # a=1/2, M=4: omega = 1/4 sits on the grid, estimate 1/2 always
        pmf = ae_outcome_pmf(0.5, 4)
        idx = int(np.argmin(np.abs(pmf.values - 0.5)))
        assert pmf.values[idx] == pytest.approx(0.5, abs=1e-15)
        assert pmf.probs[idx] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ae_outcome_pmf(-0.1, 8)
        with pytest.raises(ValueError):
            ae_outcome_pmf(1.1, 8)
        with pytest.raises(ValueError):
            ae_outcome_pmf(0.5, 0)

    def test_window_mass_bound_across_grid(self):
        floor_mass = 8 / math.pi**2
        for n, w, M in ((16, 4, 8), (64, 16, 16), (100, 3, 32), (256, 255, 16),
                        (32, 0, 8), (32, 32, 8)):
            window = counting_window(n, w, M)
            pmf = ae_outcome_pmf(w / n, M)
            mass = pmf.probs[np.abs(n * pmf.values - w) <= window + 1e-9].sum()
            assert mass >= floor_mass - 1e-12, (n, w, M)

    def test_window_value_frozen_example(self):
        # 2 pi sqrt(4*12)/8 + pi^2 16/64 = 5.44140 + 2.46740
        assert counting_window(16, 4, 8) == pytest.approx(7.9088, abs=5e-4)


class TestSvCountPmf:
    def test_matches_closed_form_after_folding(self):
        for w in (0, 1, 4, 8, 16):
            for M in (4, 8, 16):
                bits = np.zeros(16, dtype=bool)
                bits[:w] = True
                folded = fold_count_pmf(sv_count_pmf(bits, M), M)
                closed = ae_outcome_pmf(w / 16, M)
                assert np.allclose(folded.probs, closed.probs, atol=1e-9), (w, M)
                assert np.allclose(folded.values, closed.values, atol=1e-15)

    def test_size_cap_enforced(self):
        with pytest.raises(RangeTooLarge):
            sv_count_pmf(np.zeros(1024, dtype=bool), 8)


class TestCountEstimate:
    def test_charges_m_queries_with_counting_tag(self):
        oracle, ledger = make_oracle([1, 0, 1, 1])
        with draws_for("charge") as draws:
            count_median(oracle, 8, 1, MODE_COST, draws)
        assert ledger.queries_x == 8
        assert ledger.by_subroutine == {TAG_COUNTING: 8}

    def test_exact_mode_returns_true_total(self):
        oracle, _ = make_oracle([0, 3, 2, 0])
        with draws_for("exact") as draws:
            out = count_median(oracle, 4, 1, MODE_EXACT, draws)
        assert out == 5.0

    def test_estimates_live_on_representable_grid(self):
        values = np.zeros(16, dtype=np.int64)
        values[:5] = 1
        grid = {round(16 * math.sin(math.pi * y / 8) ** 2, 9) for y in range(5)}
        for trial in range(40):
            oracle, _ = make_oracle(values)
            with draws_for("grid", trial) as draws:
                out = count_median(oracle, 8, 1, MODE_COST, draws)
            assert round(out, 9) in grid

    def test_zero_tape_estimates_zero_all_modes(self):
        for mode in MODES:
            oracle, _ = make_oracle([0] * 8)
            with draws_for("zero", mode) as draws:
                out = count_median(oracle, 4, 1, mode, draws)
            assert out == 0.0

    def test_saturating_value_tape_estimates_at_most_n(self):
        # aggregate 12 on a 4-tape saturates the mark fraction at 1
        values = [3, 3, 3, 3]
        for trial in range(20):
            oracle, _ = make_oracle(values)
            with draws_for("sat", trial) as draws:
                out = count_median(oracle, 8, 1, MODE_COST, draws)
            assert out <= 4.0 + 1e-12
        oracle, _ = make_oracle(values)
        with draws_for("sat-x") as draws:
            assert count_median(oracle, 8, 1, MODE_EXACT, draws) == 12.0

    def test_statevector_agrees_with_cost_model_statistically(self):
        bits = np.zeros(16, dtype=np.int64)
        bits[:4] = 1
        trials = 400
        sums = {}
        for mode in (MODE_COST, MODE_SV):
            estimates = []
            for trial in range(trials):
                oracle, _ = make_oracle(bits)
                with draws_for("agree", mode, trial) as draws:
                    estimates.append(count_median(oracle, 8, 1, mode, draws))
            sums[mode] = np.mean(estimates)
        assert abs(sums[MODE_COST] - sums[MODE_SV]) < 0.6

    def test_statevector_rejects_value_tapes(self):
        oracle, ledger = make_oracle([2, 0])
        with draws_for("rej") as draws, pytest.raises(ValueError):
            count_median(oracle, 4, 1, MODE_SV, draws)
        assert ledger.total == 0

    def test_statevector_rejects_oversize_product(self):
        oracle, ledger = make_oracle([1] * 1024)
        with draws_for("rej2") as draws, pytest.raises(RangeTooLarge):
            count_median(oracle, 8, 1, MODE_SV, draws)
        assert ledger.total == 0


class TestCountMedian:
    def test_even_reps_rejected(self):
        oracle, _ = make_oracle([1, 0])
        with draws_for("even") as draws:
            with pytest.raises(ValueError):
                count_median(oracle, 4, 2, MODE_COST, draws)
            with pytest.raises(ValueError):
                count_median(oracle, 4, 0, MODE_COST, draws)

    def test_charges_m_times_reps(self):
        oracle, ledger = make_oracle([1, 0, 1, 0])
        with draws_for("mcharge") as draws:
            count_median(oracle, 4, 5, MODE_COST, draws)
        assert ledger.queries_x == 20

    def test_median_is_an_observed_estimate(self):
        values = np.zeros(16, dtype=np.int64)
        values[:7] = 1
        grid = {round(16 * math.sin(math.pi * y / 8) ** 2, 9) for y in range(5)}
        with draws_for("member") as draws:
            out = count_median(make_oracle(values)[0], 8, 9, MODE_COST, draws)
        assert round(out, 9) in grid

    def test_out_of_window_rate_small(self):
        # n=64, w=16, M=16: window ~ 13.35; median of 9 leaves the window
        # only when at least 5 of 9 single shots do (per-shot mass < 0.19)
        n, w, M, reps = 64, 16, 16, 9
        values = np.zeros(n, dtype=np.int64)
        values[:w] = 1
        window = counting_window(n, w, M)
        bad = 0
        trials = 2000
        for trial in range(trials):
            oracle, _ = make_oracle(values)
            with draws_for("win", trial) as draws:
                out = count_median(oracle, M, reps, MODE_COST, draws)
            if abs(out - w) > window:
                bad += 1
        assert bad / trials <= 0.05

    def test_deterministic_given_seed(self):
        values = np.zeros(32, dtype=np.int64)
        values[:9] = 1
        with draws_for("mdet") as draws:
            a = count_median(make_oracle(values)[0], 8, 5, MODE_COST, draws)
        with draws_for("mdet") as draws:
            b = count_median(make_oracle(values)[0], 8, 5, MODE_COST, draws)
        assert a == b


def per_rep_median(oracle, M, reps, mode, rng):
    """Reference median: one pmf and one rng.choice per repetition."""
    n = oracle.n
    total = int(oracle.values.sum())
    ws = []
    for _ in range(reps):
        oracle.charge(M, TAG_COUNTING)
        if mode == MODE_EXACT:
            ws.append(float(total))
        else:
            if mode == MODE_SV:
                pmf = fold_count_pmf(sv_count_pmf(oracle.values > 0, M), M)
            else:
                pmf = ae_outcome_pmf(min(1.0, total / n), M)
            idx = int(rng.choice(pmf.values.size, p=pmf.probs / pmf.probs.sum()))
            ws.append(n * float(pmf.values[idx]))
    return sorted(ws)[reps // 2]


# mark fractions 0, 1, interior, and a value tape saturating the fraction at 1
EQUIVALENCE_TAPES = {
    "zero": [0] * 8,
    "full": [1] * 8,
    "interior": [1, 0, 0, 1, 1, 0, 0, 0],
    "saturating": [3, 0, 2, 2, 0, 3, 1, 2],
}


@st.composite
def laws_and_points(draw):
    """A pmf with zero-mass stretches (repeated cdf entries) and points to look up:
    0.0, every cdf entry, the float just below 1 and arbitrary uniforms."""
    probs = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=12))
    probs[draw(st.integers(0, len(probs) - 1))] += 0.5   # the mass is positive
    cdf = qsim._choice_cdf(np.array(probs))
    points = [0.0, *cdf.tolist(), math.nextafter(1.0, 0.0)]
    points += draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
    return np.array(probs), points


class TestEstimateLaw:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(law=laws_and_points())
    def test_bisect_index_is_searchsorted_right(self, law):
        probs, points = law
        values = np.arange(probs.size) / 7.0
        estimates, cdf = qsim._estimate_law(EstimatePmf(values=values, probs=probs))
        ref = qsim._choice_cdf(probs)
        assert cdf == tuple(ref.tolist()) and estimates == tuple(values.tolist())
        for u in points:
            i = bisect.bisect_right(cdf, u)
            assert i == int(ref.searchsorted(u, side="right")), u
            if i < len(cdf):   # only u = 1.0, the last entry, is past every estimate
                assert 16 * estimates[i] == 16 * values[i]

    def test_count_median_looks_up_ties_on_the_right(self, monkeypatch):
        # zero-mass stretches repeat cdf entries; a median uniform equal to one
        # takes the estimate after the whole stretch, as searchsorted(side="right")
        law = EstimatePmf(values=np.linspace(0.0, 1.0, 6), probs=np.array([0.2, 0.0, 0.0, 0.3, 0.0, 0.5]))
        monkeypatch.setattr(qsim, "ae_outcome_pmf", lambda a, M: law)
        qsim._estimate_cdf.cache_clear()
        cdf = qsim._choice_cdf(law.probs)
        try:
            for u in [0.0, *cdf[:-1].tolist(), math.nextafter(1.0, 0.0)]:
                draws = type("FixedMedian", (), {"median_uniform": lambda self, reps: u})()
                out = count_median(make_oracle([1, 0, 1, 0])[0], 4, 3, MODE_COST, draws)
                assert out == 4 * law.values[cdf.searchsorted(u, side="right")], u
        finally:   # later tests must not read the stand-in law from the cache
            qsim._estimate_cdf.cache_clear()


class TestBatchedDraw:
    # statevector counting takes bit tapes only
    @pytest.mark.parametrize("mode, tape", [
        (mode, tape) for mode in MODES for tape in sorted(EQUIVALENCE_TAPES)
        if not (mode == MODE_SV and tape == "saturating")
    ])
    def test_matches_per_rep_choice(self, mode, tape):
        values = EQUIVALENCE_TAPES[tape]
        for M in range(1, 34):
            for reps in (1, 3, 9, 25):
                oracle, ledger = make_oracle(values)
                ref_oracle, ref_ledger = make_oracle(values)
                rng, ref_rng = rng_for("batch", tape, M, reps), rng_for("batch", tape, M, reps)
                with contextlib.closing(qsim.StreamDraws(rng)) as draws:
                    out = count_median(oracle, M, reps, mode, draws)
                expect = per_rep_median(ref_oracle, M, reps, mode, ref_rng)
                assert type(out) is float and out == expect, (M, reps)
                assert ledger == ref_ledger
                assert rng.random() == ref_rng.random(), (M, reps)

    def test_pmf_built_once_per_fraction_and_grid(self, monkeypatch):
        calls = []

        def counted(a, M):
            calls.append((a, M))
            return ae_outcome_pmf(a, M)

        monkeypatch.setattr(qsim, "ae_outcome_pmf", counted)
        qsim._estimate_cdf.cache_clear()
        # three tapes share the fraction 1/2; one is a saturating value tape
        tapes = [[1, 0, 1, 0], [1, 1, 0, 0], [1, 0] * 4, [0, 0, 0, 1], [5, 0, 0, 0]]
        for trial in range(3):
            for values in tapes:
                for M in (2, 5, 8):
                    with draws_for("once", trial) as draws:
                        count_median(make_oracle(values)[0], M, 9, MODE_COST, draws)
        assert sorted(calls) == sorted({(a, M) for a in (0.25, 0.5, 1.0) for M in (2, 5, 8)})

    @pytest.mark.parametrize("probs", [[1.5, -0.5], [np.nan, 1.0]])
    def test_rejects_a_law_that_is_not_a_probability_vector(self, monkeypatch, probs):
        # the checks Generator.choice made on every draw, now made once per cached law
        bad = EstimatePmf(values=np.array([0.0, 1.0]), probs=np.array(probs))
        monkeypatch.setattr(qsim, "ae_outcome_pmf", lambda a, M: bad)
        qsim._estimate_cdf.cache_clear()
        with draws_for("bad") as draws, pytest.raises(ValueError, match="probability vector"):
            count_median(make_oracle([1, 0])[0], 2, 3, MODE_COST, draws)
