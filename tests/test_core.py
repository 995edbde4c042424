"""Core model: instances, ledger accounting, exact references, file format."""
from __future__ import annotations

import hashlib

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
    format_instance_text,
    log2_ceil,
    matvec_min,
    parse_instance_text,
)
from ineqlab.linsys import bounded_matrix_product


def _tiny():
    return ProblemInstance(
        A=np.array([[1, 1], [0, 1]]),
        x=np.array([2, 3]),
        b=np.array([4, 2]),
        t=4,
    )


class TestMatvecMin:
    def test_clamped_product_hand_case(self):
        # Ax = (5, 3); clamped at b -> (4, 2)
        y = matvec_min(_tiny())
        assert y.tolist() == [4, 2]

    def test_zero_matrix(self):
        inst = ProblemInstance(np.zeros((3, 3), dtype=int), np.array([1, 1, 1]),
                               np.array([1, 0, 1]), t=1)
        assert matvec_min(inst).tolist() == [0, 0, 0]

    def test_identity_clamps_to_x(self):
        x = np.array([0, 2, 1, 2])
        inst = ProblemInstance(np.eye(4, dtype=int), x, np.full(4, 2), t=2)
        assert matvec_min(inst).tolist() == x.tolist()

    def test_random_against_python_ints(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            t = int(rng.integers(1, 6))
            a = rng.integers(0, 4, size=(n, n))
            x = rng.integers(0, t + 1, size=n)
            b = rng.integers(0, t + 1, size=n)
            inst = ProblemInstance(a, x, b, t)
            expect = [
                min(sum(int(a[i, j]) * int(x[j]) for j in range(n)), int(b[i]))
                for i in range(n)
            ]
            assert matvec_min(inst).tolist() == expect


class TestInequalityEval:
    """The inequality system [ (Ax)_i >= b_i ] is read off the clamped product."""

    def test_hand_case(self):
        # Ax = (5, 3) vs b = (4, 2): both satisfied, so both rows clamp at b
        inst = _tiny()
        assert (matvec_min(inst) >= inst.b).tolist() == [True, True]

    def test_via_clamp_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            t = int(rng.integers(1, 5))
            inst = ProblemInstance(
                rng.integers(0, 3, size=(n, n)),
                rng.integers(0, t + 1, size=n),
                rng.integers(0, t + 1, size=n), t)
            ax = inst.A @ inst.x
            bits = [int(ax[i]) >= int(inst.b[i]) for i in range(n)]
            # the clamp hits b exactly when the row's inequality holds
            assert (matvec_min(inst) == inst.b).tolist() == bits


class TestValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(InstanceError):
            ProblemInstance(np.zeros((2, 3), dtype=int), np.zeros(2, dtype=int),
                            np.zeros(2, dtype=int), t=1)

    def test_rejects_negative(self):
        with pytest.raises(InstanceError):
            ProblemInstance(np.array([[-1]]), np.array([0]), np.array([0]), t=1)

    def test_rejects_x_over_t(self):
        with pytest.raises(InstanceError):
            ProblemInstance(np.array([[1]]), np.array([3]), np.array([1]), t=2)

    def test_rejects_b_over_t(self):
        with pytest.raises(InstanceError):
            ProblemInstance(np.array([[1]]), np.array([1]), np.array([3]), t=2)

    def test_rejects_int64_overflow_of_ax(self):
        big = 2**62
        a = np.array([[big, big], [0, 0]], dtype=np.int64)
        with pytest.raises(InstanceError):
            ProblemInstance(a, np.array([2, 2]), np.array([1, 1]), t=2)

    def test_accepts_large_but_safe(self):
        a = np.array([[2**61, 0], [0, 1]], dtype=np.int64)
        inst = ProblemInstance(a, np.array([2, 1]), np.array([1, 1]), t=2)
        assert matvec_min(inst).tolist() == [1, 1]

    def test_accepted_only_by_exact_row_sums(self):
        # n * max(A) * max(x) = 2^63 overflows, the row sums 2^62 and 1 do not
        a = np.array([[2**62, 1], [1, 0]], dtype=np.int64)
        x = np.array([1, 1])
        assert 2 * int(a.max()) * int(x.max()) > 2**63 - 1
        inst = ProblemInstance(a, x, np.array([1, 1]), t=1)
        assert matvec_min(inst).tolist() == [1, 1]

    def test_rejected_by_exact_row_sums(self):
        # one row sums to 2^63 exactly, one past INT64_MAX
        a = np.array([[2**62, 2**62], [0, 1]], dtype=np.int64)
        with pytest.raises(InstanceError, match="overflows"):
            ProblemInstance(a, np.array([1, 1]), np.array([1, 1]), t=1)

    @pytest.mark.parametrize("t", [np.int64(2), np.uint8(2), 2.0, np.float64(2.0)])
    def test_whole_t_is_stored_as_int_and_runs_the_product(self, t):
        # value_bits calls int.bit_length, which numpy integers lack
        inst = ProblemInstance(np.eye(2, dtype=np.int64), np.array([2, 1]), np.array([1, 2]), t)
        assert type(inst.t) is int and inst.t == 2
        result = bounded_matrix_product(inst, 2, "exact", np.random.default_rng(0))
        assert result.y.tolist() == matvec_min(inst).tolist()

    @pytest.mark.parametrize("t", [2.5, np.float64(1.5), float("nan"), float("inf"), "2", None, True])
    def test_rejects_t_that_is_not_a_whole_number(self, t):
        with pytest.raises(InstanceError, match="t must be a whole number"):
            ProblemInstance(np.eye(2, dtype=np.int64), np.array([1, 1]), np.array([1, 1]), t)

    @pytest.mark.parametrize("field", ["A", "x", "b"])
    def test_rejects_fractional_entries(self, field):
        # a plain int64 cast would truncate [[0.5, 1.7], ...] to [[0, 1], ...]
        data = {"A": [[0, 1], [1, 0]], "x": [1, 1], "b": [1, 1]}
        data[field] = {"A": [[0.5, 1.7], [0, 1]], "x": [1, 0.5], "b": [1.7, 1]}[field]
        with pytest.raises(InstanceError, match=f"{field} entries must be whole numbers"):
            ProblemInstance(data["A"], data["x"], data["b"], t=2)

    @pytest.mark.parametrize("big", [10**23, 2**63, float(2**63), float("nan")])
    def test_rejects_entries_past_int64(self, big):
        # a plain int64 cast raises OverflowError on 10**23 and wraps 2**63 to a negative
        with pytest.raises(InstanceError, match="fit 64-bit integers"):
            ProblemInstance([[big, 0], [0, 1]], [1, 1], [1, 1], t=1)

    def test_whole_entries_of_any_type_are_read_as_int64(self):
        inst = ProblemInstance([[1.0, 0.0], [0.0, 2.0]], np.array([1, 1], dtype=np.uint64),
                               [1, 0], t=np.int32(1))
        assert inst.A.dtype == inst.x.dtype == inst.b.dtype == np.int64
        assert inst.A.tolist() == [[1, 0], [0, 2]] and inst.x.tolist() == [1, 1]

    def test_int64_arrays_are_kept_as_given(self):
        # the fast path: an int64 array is neither copied nor scanned for whole numbers
        a, x, b = np.eye(3, dtype=np.int64), np.ones(3, dtype=np.int64), np.ones(3, dtype=np.int64)
        inst = ProblemInstance(a, x, b, t=1)
        assert inst.A is a and inst.x is x and inst.b is b


class TestLog2Ceil:
    def test_exact_around_every_power_of_two(self):
        # a float log2 rounds 2**j + 1 down to 2**j from j = 53 on
        assert log2_ceil(0) == log2_ceil(1) == 1
        for j in range(81):
            for v in (2**j - 1, 2**j, 2**j + 1):
                want = max(1, next(b for b in range(82) if 2**b >= v))
                assert log2_ceil(v) == want, (j, v)
        assert (log2_ceil(2**53 + 1), log2_ceil(2**60 + 1)) == (54, 61)


class TestLedger:
    def test_total_is_sum_of_targets(self):
        led = QueryLedger()
        led.charge("x", TAG_GROVER, 5)
        led.charge("b", TAG_CLASSICAL, 2)
        led.charge("x", TAG_COUNTING, 3)
        assert led.total == 10 == led.queries_x + led.queries_b
        assert sum(led.by_subroutine.values()) == led.total

    def test_negative_charge_rejected(self):
        led = QueryLedger()
        with pytest.raises(ValueError):
            led.charge("x", TAG_GROVER, -1)


class TestSeededRng:
    def test_identical_seeds_identical_streams(self):
        a, b = SeededRng(123), SeededRng(123)
        assert a.stream.integers(0, 1000, size=20).tolist() == \
               b.stream.integers(0, 1000, size=20).tolist()

    def test_spawn_is_deterministic_and_distinct(self):
        a1 = SeededRng(5).spawn(1, 2)
        a2 = SeededRng(5).spawn(1, 2)
        b = SeededRng(5).spawn(1, 3)
        s1 = a1.stream.integers(0, 10**9, size=8).tolist()
        assert s1 == a2.stream.integers(0, 10**9, size=8).tolist()
        assert s1 != b.stream.integers(0, 10**9, size=8).tolist()

    def test_spawned_seed_is_the_uint32_seed_sequence_word(self):
        want = int(np.random.SeedSequence([5, 1, 2]).generate_state(1)[0])
        assert SeededRng(5).spawn(1, 2).seed == want

    @pytest.mark.parametrize("seed", [-1, 2**32, 5 + 2**32])
    def test_seed_outside_uint32_rejected(self, seed):
        # a masked seed would replay the stream of seed mod 2^32
        with pytest.raises(ValueError, match="outside"):
            SeededRng(seed)

    def test_largest_seed_accepted(self):
        assert 0 <= SeededRng(2**32 - 1).spawn("run", 2**40).seed < 2**32

    @pytest.mark.parametrize("part, other", [(-1, 2**32 - 1), (2**32, 0), (2**32 + 5, 5),
                                             (-1, "-1"), (2**32, str(2**32)), (-(2**40), 2**40)])
    def test_out_of_range_int_keys_do_not_alias(self, part, other):
        # masking to 32 bits would give -1 the word of 2^32 - 1 and 2^32 that of 0
        assert SeededRng(5).spawn("x", part).seed != SeededRng(5).spawn("x", other).seed

    def test_out_of_range_int_key_is_a_prefixed_hash(self):
        digest = hashlib.sha256(b"\xff-1").digest()
        want = int(np.random.SeedSequence([5, int.from_bytes(digest[:4], "big")]).generate_state(1)[0])
        assert SeededRng(5).spawn(-1).seed == SeededRng(5).spawn(np.int64(-1)).seed == want

    def test_in_range_int_keys_keep_their_word(self):
        for part in (0, 1, 2**31, 2**32 - 1, np.uint32(7), np.int64(2**32 - 1)):
            want = int(np.random.SeedSequence([5, int(part)]).generate_state(1)[0])
            assert SeededRng(5).spawn(part).seed == want


class TestInstanceFile:
    def test_round_trip(self):
        inst = _tiny()
        text = format_instance_text(inst)
        back = parse_instance_text(text)
        assert back.t == inst.t
        assert (back.A == inst.A).all()
        assert (back.x == inst.x).all()
        assert (back.b == inst.b).all()
        # byte-stable round trip
        assert format_instance_text(back) == text

    def test_exact_layout(self):
        text = format_instance_text(_tiny())
        assert text == "2 4\n1 1\n0 1\n2 3\n4 2\n"

    def test_rejects_bad_header(self):
        with pytest.raises(InstanceError):
            parse_instance_text("2\n1 1\n0 1\n2 3\n4 2\n")

    def test_rejects_wrong_line_count(self):
        with pytest.raises(InstanceError):
            parse_instance_text("2 4\n1 1\n0 1\n2 3\n")

    def test_rejects_non_integer(self):
        with pytest.raises(InstanceError):
            parse_instance_text("1 1\nx\n1\n1\n")
