"""Tests for the search and counting subroutines.

Closed-form expected values in here were computed by hand or with the oracle
formulas directly (arcsin/sin arithmetic), independently of the module code,
and then frozen.
"""
import math

import numpy as np
import pytest

from ineqlab import qsim
from ineqlab.core import QueryLedger, SeededRng, TAG_COUNTING, TAG_GROVER
from ineqlab.qsim import (
    MODE_COST,
    MODE_EXACT,
    MODE_SV,
    MODES,
    CollectResult,
    EstimatePmf,
    RangeTooLarge,
    TapeOracle,
    WeightZero,
    ae_outcome_pmf,
    collect_ones,
    count_median,
    counting_window,
    fold_count_pmf,
    grover_schedule,
    grover_search,
    sv_count_pmf,
    sv_run_grover,
)


def make_oracle(values, target="x"):
    ledger = QueryLedger()
    return TapeOracle(np.asarray(values, dtype=np.int64), ledger, target), ledger


def rng_for(*key):
    return SeededRng(20260819).spawn(*key).stream


# ---------------------------------------------------------------------------
# tape oracle


class TestTapeOracle:
    def test_read_value_charges_and_returns(self):
        oracle, ledger = make_oracle([0, 3, 0, 1])
        assert oracle.read_value(1) == 3
        assert oracle.read_value(0) == 0
        assert ledger.queries_x == 2

    def test_read_bit_thresholds_values(self):
        oracle, ledger = make_oracle([0, 3, 0, 1])
        assert oracle.read_bit(1) == 1
        assert oracle.read_bit(0) == 0
        assert oracle.read_bit(3) == 1
        assert ledger.queries_x == 3

    def test_read_bit_exclusion_masks_found_positions(self):
        oracle, _ = make_oracle([0, 3, 0, 1])
        assert oracle.read_bit(1, exclude=frozenset({1})) == 0
        assert oracle.read_bit(3, exclude=frozenset({1})) == 1

    def test_out_of_range_read_raises_before_charging(self):
        oracle, ledger = make_oracle([1, 0])
        with pytest.raises(IndexError):
            oracle.read_value(2)
        with pytest.raises(IndexError):
            oracle.read_value(-1)
        assert ledger.total == 0

    def test_window_shares_ledger_and_relabels_indices(self):
        oracle, ledger = make_oracle([0, 0, 5, 0, 7])
        win = oracle.window(2, 5)
        assert win.n == 3
        assert win.read_value(0) == 5
        assert win.read_value(2) == 7
        assert ledger.queries_x == 2
        win.charge(4, TAG_GROVER)
        assert ledger.queries_x == 6

    def test_window_bounds_checked(self):
        oracle, _ = make_oracle([1, 2, 3])
        with pytest.raises(IndexError):
            oracle.window(1, 4)
        with pytest.raises(IndexError):
            oracle.window(-1, 2)

    def test_target_b_charges_other_counter(self):
        oracle, ledger = make_oracle([2, 0], target="b")
        oracle.read_value(0)
        assert ledger.queries_b == 1
        assert ledger.queries_x == 0

    def test_uncharged_internals_do_not_touch_ledger(self):
        oracle, ledger = make_oracle([0, 1, 2, 0])
        assert oracle._total() == 3
        assert list(np.flatnonzero(oracle._bits())) == [1, 2]
        assert list(np.flatnonzero(oracle._bits(frozenset({1})))) == [2]
        assert ledger.total == 0


# ---------------------------------------------------------------------------
# known-weight schedule


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


class TestGroverSearch:
    def test_bad_mode_rejected(self):
        oracle, _ = make_oracle([1])
        with pytest.raises(ValueError):
            grover_search(oracle, "quantum", rng_for("bad"))

    def test_empty_tape_reports_no_solution_all_modes(self):
        budget = qsim.RETRY_BUDGET_FACTOR * math.ceil(math.sqrt(16))
        for mode in MODES:
            oracle, ledger = make_oracle([0] * 16)
            out = grover_search(oracle, mode, rng_for("empty", mode))
            assert out.found is None
            assert out.queries_charged == ledger.total
            # last attempt may overshoot by at most its own cap
            assert out.queries_charged <= budget + math.ceil(math.sqrt(16)) + 1

    def test_found_position_is_always_verified_mark(self):
        rng = rng_for("verified")
        values = np.zeros(32, dtype=np.int64)
        values[[4, 9, 20]] = 1
        for trial in range(50):
            oracle, _ = make_oracle(values)
            out = grover_search(oracle, MODE_COST, rng)
            if out.found is not None:
                assert out.found in (4, 9, 20)

    def test_exclusion_restricts_search_support(self):
        values = [0, 1, 0, 1, 0, 0, 0, 0]
        for trial in range(30):
            oracle, _ = make_oracle(values)
            out = grover_search(oracle, MODE_EXACT, rng_for("excl", trial),
                                exclude=frozenset({1}))
            assert out.found == 3

    def test_exact_mode_forces_success_when_budget_lapses(self, monkeypatch):
        monkeypatch.setattr(qsim, "RETRY_BUDGET_FACTOR", 0)
        oracle, ledger = make_oracle([0] * 15 + [1])
        out = grover_search(oracle, MODE_EXACT, rng_for("forced"))
        assert out.found == 15
        assert out.queries_charged == 0
        assert ledger.total == 0
        oracle2, _ = make_oracle([0] * 15 + [1])
        out2 = grover_search(oracle2, MODE_COST, rng_for("forced"))
        assert out2.found is None

    def test_same_seed_reproduces_outcome(self):
        values = np.zeros(64, dtype=np.int64)
        values[[3, 17, 40, 41]] = 2
        for mode in MODES:
            runs = []
            for _ in range(2):
                oracle, ledger = make_oracle(values)
                out = grover_search(oracle, mode, rng_for("det", mode))
                runs.append((out, ledger.total))
            assert runs[0] == runs[1]

    def test_cost_and_exact_charge_identically_per_seed(self):
        values = np.zeros(30, dtype=np.int64)
        values[[7, 8]] = 1
        for trial in range(40):
            oc, lc = make_oracle(values)
            oe, le = make_oracle(values)
            out_c = grover_search(oc, MODE_COST, rng_for("pair", trial))
            out_e = grover_search(oe, MODE_EXACT, rng_for("pair", trial))
            assert out_c.queries_charged == out_e.queries_charged
            assert lc.total == le.total
            if out_c.found is not None:
                assert out_c.found == out_e.found

    def test_first_attempt_success_rate_matches_schedule(self):
        # n=8, w=1: k=2, p = sin^2(5 asin(sqrt(1/8))) ~ 0.9459
        n, w = 8, 1
        k, p = grover_schedule(n, w)
        assert k == 2
        bits = np.zeros(n, dtype=bool)
        bits[5] = True
        ones, rest = np.flatnonzero(bits), np.flatnonzero(~bits)
        for mode in (MODE_COST, MODE_SV):
            trials = 600
            hits = sum(
                qsim._sample_measurement(bits, ones, rest, k, mode, rng_for("rate", mode, trial)) == 5
                for trial in range(trials)
            )
            assert abs(hits / trials - p) < 0.05, mode

    def test_unknown_weight_single_mark_found_reliably(self):
        values = np.zeros(64, dtype=np.int64)
        values[23] = 1
        misses = 0
        for trial in range(300):
            oracle, _ = make_oracle(values)
            out = grover_search(oracle, MODE_COST, rng_for("bbht", trial))
            if out.found is None:
                misses += 1
            else:
                assert out.found == 23
        assert misses <= 15  # ~2% expected under the retry budget

    def test_one_mask_build_per_search(self, monkeypatch):
        # with its only mark excluded, the search runs its whole budget of
        # attempts in every mode; the derived bit tape and its two position
        # lists are still built once
        builds, scans, attempts = [], [], []
        real_bits, real_scan, real_sample = TapeOracle._bits, np.flatnonzero, qsim._sample_measurement
        monkeypatch.setattr(TapeOracle, "_bits", lambda self, *a: builds.append(1) or real_bits(self, *a))
        monkeypatch.setattr(qsim.np, "flatnonzero", lambda a: scans.append(1) or real_scan(a))
        monkeypatch.setattr(qsim, "_sample_measurement", lambda *a: attempts.append(1) or real_sample(*a))
        values = np.zeros(64, dtype=np.int64)
        values[23] = 1
        for mode in MODES:
            builds.clear()
            scans.clear()
            attempts.clear()
            oracle, _ = make_oracle(values)
            out = grover_search(oracle, mode, rng_for("masks", mode), exclude=frozenset({23}))
            assert out.found is None
            assert len(attempts) > 5, mode
            assert (len(builds), len(scans)) == (1, 2), mode


class TestCollectOnes:
    def test_exact_mode_recovers_full_support(self):
        values = [3, 1, 0, 2, 0, 0, 1, 5]
        res = collect_ones(make_oracle(values)[0], MODE_EXACT, rng_for("cexact"))
        assert frozenset(res.found) == {0, 1, 3, 6, 7}
        assert res.searches == 6  # five finds plus the closing empty probe

    def test_all_marks_tape_collects_everything(self):
        res = collect_ones(make_oracle([1, 1, 1, 1])[0], MODE_EXACT, rng_for("full"))
        assert frozenset(res.found) == {0, 1, 2, 3}

    def test_empty_tape_is_single_probe(self):
        for mode in MODES:
            res = collect_ones(make_oracle([0] * 9)[0], mode, rng_for("cempty", mode))
            assert res.found == ()
            assert res.searches == 1

    def test_found_positions_distinct_and_marked(self):
        values = np.zeros(48, dtype=np.int64)
        support = {2, 3, 11, 30, 31, 44}
        values[list(support)] = 1
        for trial in range(25):
            res = collect_ones(make_oracle(values)[0], MODE_COST,
                               rng_for("dist", trial))
            assert len(set(res.found)) == len(res.found)
            assert set(res.found) <= support

    def test_cost_mode_usually_exhausts_support(self):
        values = np.zeros(64, dtype=np.int64)
        support = {1, 9, 22, 37, 50, 63}
        values[list(support)] = 1
        complete = 0
        for trial in range(100):
            res = collect_ones(make_oracle(values)[0], MODE_COST,
                               rng_for("cstat", trial))
            if frozenset(res.found) == support:
                complete += 1
        assert complete >= 90

    def test_deterministic_given_seed(self):
        values = np.zeros(32, dtype=np.int64)
        values[[4, 5, 6]] = 1
        a = collect_ones(make_oracle(values)[0], MODE_COST, rng_for("cdet"))
        b = collect_ones(make_oracle(values)[0], MODE_COST, rng_for("cdet"))
        assert a == b

    def test_live_tape_matches_searches_with_exclusion_sets(self, monkeypatch):
        # one mask build per search, and the same draws and charges as one
        # search per find with the found positions passed as `exclude`
        builds = []
        real_bits = TapeOracle._bits
        monkeypatch.setattr(TapeOracle, "_bits", lambda self, *a: builds.append(1) or real_bits(self, *a))
        values = np.zeros(48, dtype=np.int64)
        values[[2, 3, 11, 30, 31, 44]] = [1, 2, 1, 3, 1, 1]
        for mode in MODES:
            for trial in range(5):
                oracle, ledger = make_oracle(values)
                builds.clear()
                res = collect_ones(oracle, mode, rng_for("live", mode, trial))
                assert len(builds) == res.searches
                ref_oracle, ref_ledger = make_oracle(values)
                rng = rng_for("live", mode, trial)
                found = []
                while True:
                    out = grover_search(ref_oracle, mode, rng, exclude=frozenset(found))
                    if out.found is None:
                        break
                    found.append(out.found)
                assert res.found == tuple(found)
                assert res.searches == len(found) + 1
                assert ledger == ref_ledger


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
        count_median(oracle, 8, 1, MODE_COST, rng_for("charge"))
        assert ledger.queries_x == 8
        assert ledger.by_subroutine == {TAG_COUNTING: 8}

    def test_exact_mode_returns_true_total(self):
        oracle, _ = make_oracle([0, 3, 2, 0])
        out = count_median(oracle, 4, 1, MODE_EXACT, rng_for("exact"))
        assert out == 5.0

    def test_estimates_live_on_representable_grid(self):
        values = np.zeros(16, dtype=np.int64)
        values[:5] = 1
        grid = {round(16 * math.sin(math.pi * y / 8) ** 2, 9) for y in range(5)}
        for trial in range(40):
            oracle, _ = make_oracle(values)
            out = count_median(oracle, 8, 1, MODE_COST, rng_for("grid", trial))
            assert round(out, 9) in grid

    def test_zero_tape_estimates_zero_all_modes(self):
        for mode in MODES:
            oracle, _ = make_oracle([0] * 8)
            out = count_median(oracle, 4, 1, mode, rng_for("zero", mode))
            assert out == 0.0

    def test_saturating_value_tape_estimates_at_most_n(self):
        # aggregate 12 on a 4-tape saturates the mark fraction at 1
        values = [3, 3, 3, 3]
        for trial in range(20):
            oracle, _ = make_oracle(values)
            out = count_median(oracle, 8, 1, MODE_COST, rng_for("sat", trial))
            assert out <= 4.0 + 1e-12
        oracle, _ = make_oracle(values)
        assert count_median(oracle, 8, 1, MODE_EXACT, rng_for("sat-x")) == 12.0

    def test_statevector_agrees_with_cost_model_statistically(self):
        bits = np.zeros(16, dtype=np.int64)
        bits[:4] = 1
        trials = 400
        sums = {}
        for mode in (MODE_COST, MODE_SV):
            draws = []
            for trial in range(trials):
                oracle, _ = make_oracle(bits)
                draws.append(count_median(oracle, 8, 1, mode, rng_for("agree", mode, trial)))
            sums[mode] = np.mean(draws)
        assert abs(sums[MODE_COST] - sums[MODE_SV]) < 0.6

    def test_statevector_rejects_value_tapes(self):
        oracle, ledger = make_oracle([2, 0])
        with pytest.raises(ValueError):
            count_median(oracle, 4, 1, MODE_SV, rng_for("rej"))
        assert ledger.total == 0

    def test_statevector_rejects_oversize_product(self):
        oracle, ledger = make_oracle([1] * 1024)
        with pytest.raises(RangeTooLarge):
            count_median(oracle, 8, 1, MODE_SV, rng_for("rej2"))
        assert ledger.total == 0


class TestCountMedian:
    def test_even_reps_rejected(self):
        oracle, _ = make_oracle([1, 0])
        with pytest.raises(ValueError):
            count_median(oracle, 4, 2, MODE_COST, rng_for("even"))
        with pytest.raises(ValueError):
            count_median(oracle, 4, 0, MODE_COST, rng_for("evenz"))

    def test_charges_m_times_reps(self):
        oracle, ledger = make_oracle([1, 0, 1, 0])
        count_median(oracle, 4, 5, MODE_COST, rng_for("mcharge"))
        assert ledger.queries_x == 20

    def test_median_is_an_observed_estimate(self):
        values = np.zeros(16, dtype=np.int64)
        values[:7] = 1
        grid = {round(16 * math.sin(math.pi * y / 8) ** 2, 9) for y in range(5)}
        out = count_median(make_oracle(values)[0], 8, 9, MODE_COST,
                           rng_for("member"))
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
            out = count_median(oracle, M, reps, MODE_COST, rng_for("win", trial))
            if abs(out - w) > window:
                bad += 1
        assert bad / trials <= 0.05

    def test_deterministic_given_seed(self):
        values = np.zeros(32, dtype=np.int64)
        values[:9] = 1
        a = count_median(make_oracle(values)[0], 8, 5, MODE_COST, rng_for("mdet"))
        b = count_median(make_oracle(values)[0], 8, 5, MODE_COST, rng_for("mdet"))
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
        elif mode == MODE_SV:
            probs = sv_count_pmf(oracle.values > 0, M)
            y = int(rng.choice(M, p=probs / probs.sum()))
            ws.append(n * math.sin(math.pi * min(y, M - y) / M) ** 2)
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
                out = count_median(oracle, M, reps, mode, rng)
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
                    count_median(make_oracle(values)[0], M, 9, MODE_COST,
                                 rng_for("once", trial))
        assert sorted(calls) == sorted({(a, M) for a in (0.25, 0.5, 1.0) for M in (2, 5, 8)})

    @pytest.mark.parametrize("probs", [[1.5, -0.5], [np.nan, 1.0]])
    def test_rejects_a_law_that_is_not_a_probability_vector(self, monkeypatch, probs):
        # the checks Generator.choice made on every draw, now made once per cached law
        bad = EstimatePmf(values=np.array([0.0, 1.0]), probs=np.array(probs))
        monkeypatch.setattr(qsim, "ae_outcome_pmf", lambda a, M: bad)
        qsim._estimate_cdf.cache_clear()
        with pytest.raises(ValueError, match="probability vector"):
            count_median(make_oracle([1, 0])[0], 2, 3, MODE_COST, rng_for("bad"))
