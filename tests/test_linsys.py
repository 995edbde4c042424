"""Tests for the space-bounded clamped-product algorithms.

Frozen traces were derived by hand from the blocked-loop structure before
implementation; statistical constants follow the calibration notes in tests
that mention them.
"""
import math

import numpy as np
import pytest

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
from ineqlab.qsim import MODE_COST, MODE_EXACT, MODE_SV, MODES, TapeOracle


def rng_for(*key):
    return SeededRng(77001).spawn(*key).stream


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
        scan = find_block_length(tape, 0, 4, MODE_EXACT, rng_for("fb1"), reps=3)
        assert scan == (8, 8.0)

    def test_exact_range_end_variant(self):
        tape = value_tape([1] * 8)
        length, estimate = find_block_length(tape, 0, 4, MODE_EXACT, rng_for("fb2"), reps=3)
        assert length == 8
        assert estimate == 8.0

    def test_sparse_tail_takes_remaining_range(self):
        tape = value_tape([0] * 32)
        length, estimate = find_block_length(tape, 5, 3, MODE_EXACT, rng_for("fb3"), reps=3)
        assert length == 27
        assert estimate == 0.0

    def test_short_remainder_is_one_block(self):
        tape = value_tape([1, 1, 1, 1])
        length, _ = find_block_length(tape, 2, 5, MODE_EXACT, rng_for("fb4"), reps=3)
        assert length == 2

    def test_position_past_end_rejected(self):
        tape = value_tape([1, 1])
        with pytest.raises(ValueError):
            find_block_length(tape, 2, 1, MODE_EXACT, rng_for("fb5"), reps=3)

    def test_exact_mode_mass_window_boolean_tapes(self):
        # with unit values the chosen block carries mass in [S', 2S']
        # unless the tape ran out
        for trial in range(60):
            rng = rng_for("fbw", trial)
            n = int(rng.integers(8, 80))
            tape_vals = (rng.random(n) < 0.4).astype(np.int64)
            s_prime = int(rng.integers(1, 6))
            tape = value_tape(tape_vals)
            length, _ = find_block_length(tape, 0, s_prime, MODE_EXACT, rng, reps=3)
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
            length, _ = find_block_length(value_tape(vals), start, s_prime,
                                          MODE_COST, rng, reps=3)
            assert length >= 1
            assert start + length <= n

    def test_probes_charge_counting_queries(self):
        ledger = QueryLedger()
        tape = TapeOracle(np.ones(64, dtype=np.int64), ledger, "x")
        find_block_length(tape, 0, 4, MODE_EXACT, rng_for("fbq"), reps=3)
        assert ledger.queries_x > 0
        assert set(ledger.by_subroutine) == {TAG_COUNTING}
        assert ledger.by_subroutine[TAG_COUNTING] % 3 == 0  # reps per probe

    def test_deterministic_per_seed(self):
        vals = rng_for("fbd-data").integers(0, 2, size=50)
        a = find_block_length(value_tape(vals), 0, 3, MODE_COST,
                              rng_for("fbd"), reps=5)
        b = find_block_length(value_tape(vals), 0, 3, MODE_COST,
                              rng_for("fbd"), reps=5)
        assert a == b


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
            y_block, _ = small_matrix_product(A, x, b, t, MODE_EXACT, rng, ledger)
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
                _, blocks = small_matrix_product(A, x, b, t, mode, rng, ledger)
                assert sum(blk.length for blk in blocks) <= n
                assert sum(blk.rows_closed for blk in blocks) <= m
                assert sum(blk.open_additions for blk in blocks) <= t * m

    def test_zero_bounds_short_circuit(self):
        ledger = QueryLedger()
        A = np.ones((3, 10), dtype=np.int64)
        y_block, blocks = small_matrix_product(A, np.ones(10, dtype=np.int64),
                                               np.zeros(3, dtype=np.int64), 2,
                                               MODE_EXACT, rng_for("smz"), ledger)
        assert np.array_equal(y_block, np.zeros(3, dtype=np.int64))
        assert blocks == ()
        assert ledger.queries_b == 3
        assert ledger.queries_x == 0

    def test_found_positions_read_classically(self):
        ledger = QueryLedger()
        A = np.ones((1, 6), dtype=np.int64)
        x = np.array([0, 1, 0, 0, 1, 0], dtype=np.int64)
        b = np.array([2], dtype=np.int64)
        small_matrix_product(A, x, b, 2, MODE_EXACT, rng_for("smr"), ledger)
        # one classical b read plus one classical x read per found position
        assert ledger.by_subroutine[TAG_CLASSICAL] == 1 + 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception):
            small_matrix_product(np.ones((2, 5), dtype=np.int64),
                                 np.ones(4, dtype=np.int64),
                                 np.ones(2, dtype=np.int64), 1,
                                 MODE_EXACT, rng_for("smx"), QueryLedger())


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
                length, _ = find_block_length(tape, 0, s_prime, MODE_COST, rng, reps)
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
