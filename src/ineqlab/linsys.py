"""Space-bounded computation of clamped matrix-vector products min(Ax, b).

The matrix A is known in full; only x and b sit behind charged oracles.  With
a budget of S bits the algorithm keeps S' = max(1, floor(S / log2 N)) row
counters live at a time:

  * rows are processed in groups of S';
  * within a group, columns are scanned left to right in adaptive blocks,
    sized by counting so each block carries roughly S'..2S' units of mass
    of the masked tape v_j = [some open row has A[u,j] != 0] * x_j;
  * search collects the nonzero positions of the block, their x values are
    read classically, and every open row's counter is bumped and clamped
    at its bound, closing rows that saturate.

A classical baseline re-reads x once per row group and serves as the
reference cost model.  check_budget compares measured query totals against
the respective cost envelopes.
"""
from __future__ import annotations

import bisect
import contextlib
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    InstanceError,
    ProblemInstance,
    QueryLedger,
    TAG_COUNTING,
    log2_ceil,
    matvec_min,
    value_bits,
)
from .qsim import MODE_EXACT, MODE_SV, MODES, StreamDraws, TapeOracle, collect_ones, count_median, _check_mode

SEARCH_WORKSPACE_SLACK = 8   # qubits beyond the index register per subroutine
CLASSICAL_MODE = "classical"  # run mode of the classical baseline


class SpaceTooSmall(ValueError):
    """Space budget cannot hold even one row counter."""


def default_reps(n: int) -> int:
    """Default counting repetitions: odd, growing with log2 of the range."""
    return 2 * math.ceil(1.5 * log2_ceil(n)) + 1


def quantum_row_capacity(n: int, S: int) -> int:
    """Rows whose index bookkeeping fits the budget: max(1, S // log2 N)."""
    if S < 1:
        raise SpaceTooSmall(f"space budget {S} < 1")
    return max(1, min(n, S // log2_ceil(n)))


def classical_row_capacity(n: int, S: int, t: int) -> int:
    """Counter-width capacity of the classical baseline: S / log2(t+1)."""
    if S < 1:
        raise SpaceTooSmall(f"space budget {S} < 1")
    return max(1, min(n, int(S / math.log2(t + 1))))


@dataclass(frozen=True)
class BlockTrace:
    start: int
    length: int
    found: int           # nonzero positions collected in the block
    rows_closed: int     # rows of the group saturating during the block
    open_additions: int  # additions landing on rows still open at block end
    counting_queries: int  # charged while sizing the block
    grover_queries: int    # charged while collecting its nonzero positions


@dataclass(frozen=True)
class MatrixProductResult:
    """Output of either product; the classical baseline has no block traces."""

    y: np.ndarray
    n: int
    t: int
    s_prime: int
    correct: bool
    ledger: QueryLedger
    group_traces: tuple[tuple[BlockTrace, ...], ...]


def classical_bounded_product(instance: ProblemInstance, S: int) -> MatrixProductResult:
    """Blocked baseline: one full x pass per group of row counters."""
    ledger = QueryLedger()
    n, t = instance.n, instance.t
    cap = classical_row_capacity(n, S, t)
    x_tape = TapeOracle(instance.x, ledger, "x")
    b_tape = TapeOracle(instance.b, ledger, "b")
    vb = value_bits(t)
    y = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, cap):
        hi = min(lo + cap, n)
        bounds = b_tape.read_values(np.arange(lo, hi))
        ledger.record_space(2 * len(bounds) * vb + len(bounds) + 2 * log2_ceil(n))
        xs = x_tape.read_values(np.arange(n))
        y[lo:hi] = np.minimum(bounds, instance.A[lo:hi] @ xs)
    correct = bool(np.array_equal(y, matvec_min(instance)))
    return MatrixProductResult(y=y, n=n, t=t, s_prime=cap,
                               correct=correct, ledger=ledger, group_traces=())


def find_block_length(tape: TapeOracle, start: int, s_prime: int, mode: str,
                      draws: StreamDraws, reps: int) -> int:
    """Length of the next block [start, start+length) of the masked tape.

    Doubling from s_prime grows the candidate while its mass estimate stays
    below s_prime; a binary search then takes the longest length in the last
    bracket whose estimate is at most 2*s_prime, or the bracket's floor if
    none is.  Every probe is a median-of-reps count charged M*reps, with
    M = ceil(sqrt(candidate length)).  An exact count draws nothing and returns the
    window's total; as the tape's running sums ascend (values >= 0), two bisects decide
    every exact probe, reach (the first length totalling at least s_prime) and keep (the
    last totalling at most 2*s_prime), and exact probes are charged at once.  The tail is
    the block if the range end is reached while sparse, unprobed if at most s_prime long.
    """
    _check_mode(mode)
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be odd and positive")
    n = tape.n
    remaining = n - start
    if remaining <= 0:
        raise ValueError(f"no columns left at position {start}")
    if s_prime < 1:
        raise ValueError("row capacity must be at least 1")
    exact = mode == MODE_EXACT
    if exact:
        sums, at = tape._sums(), tape.offset + start
        reach = bisect.bisect_left(sums, sums[at] + s_prime, at, at + remaining + 1) - at
        keep = bisect.bisect_right(sums, sums[at] + 2 * s_prime, at, at + remaining + 1) - 1 - at

    def estimate(length: int) -> float:
        return count_median(tape.window(start, start + length), math.ceil(math.sqrt(length)),
                            reps, mode, draws)

    charged = 0   # M of every probe; only exact probes are booked here, count_median books its own
    lo = hi = remaining   # sparse all the way to the end: the tail is the block
    k = s_prime
    while k < remaining:
        k = min(2 * k, remaining)
        charged += math.ceil(math.sqrt(k))
        if (k >= reach if exact else estimate(k) >= s_prime):
            lo, hi = k // 2, k
            break
    while lo < hi:
        mid = (lo + hi + 1) // 2
        charged += math.ceil(math.sqrt(mid))
        if (mid <= keep if exact else estimate(mid) <= 2 * s_prime):
            lo = mid
        else:
            hi = mid - 1
    if exact and charged:   # the ledger keeps sums only, so one charge books every exact probe
        tape.charge(charged * reps, TAG_COUNTING)
    return lo


def small_matrix_product(A_block: np.ndarray, x: np.ndarray, b_block: np.ndarray,
                         t: int, mode: str, draws: StreamDraws,
                         ledger: QueryLedger,
                         reps: int | None = None) -> tuple[np.ndarray, tuple[BlockTrace, ...]]:
    """Clamped product for one group of at most S' rows: (y_block, block traces).

    The group's open-row mask is frozen per block: the masked tape
    v_j = [any open row hits column j] * x_j is sized by counting, its
    support collected by search, and the x values of found positions read
    classically before all open counters are bumped and clamped.
    """
    _check_mode(mode)
    A_block = np.asarray(A_block, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if A_block.ndim != 2 or A_block.shape[1] != x.size:
        raise InstanceError("row block and x disagree on column count")
    m, n = A_block.shape
    if m < 1:
        raise InstanceError("row block must hold at least one row")
    if reps is None:
        reps = default_reps(n)
    x_tape = TapeOracle(x, ledger, "x")
    b_tape = TapeOracle(np.asarray(b_block, dtype=np.int64), ledger, "b")
    # at most S' rows: the counters, bounds and open rows are plain ints and lists
    bounds = b_tape.read_values(list(range(m))).tolist()
    y = [0] * m
    open_rows = [i for i in range(m) if bounds[i] > 0]
    vb = value_bits(t)
    log_n = log2_ceil(n)
    base_bits = m * (1 + 2 * vb) + 4 * log_n
    ledger.record_space(base_bits)
    blocks: list[BlockTrace] = []
    pos = 0
    closed_now = 1   # builds the first masked tape
    while pos < n and open_rows:
        if closed_now:   # the masked tape changes only when a block closes a row
            mask = (A_block[open_rows[0]] != 0 if len(open_rows) == 1
                    else np.logical_or.reduce(A_block.take(open_rows, axis=0)))
            v_tape = TapeOracle(x * mask, ledger, "x")
        before = ledger.total
        length = find_block_length(v_tape, pos, m, mode, draws, reps)
        sized = ledger.total
        hits = collect_ones(v_tape.window(pos, pos + length), mode, draws)
        searched = ledger.total
        found = sorted(pos + j for j in hits)
        reads = x_tape.read_values(found).tolist()
        columns = A_block.take(found, axis=1).tolist()
        # contributions are >= 0, so closed rows stay at b; x > 0 where found, so nonzero A entries are additions
        still_open, open_adds = [], 0
        for i in open_rows:
            y[i] = min(bounds[i], y[i] + sum(map(operator.mul, columns[i], reads)))
            if y[i] < bounds[i]:
                still_open.append(i)
                open_adds += len(found) - columns[i].count(0)
        closed_now = len(open_rows) - len(still_open)
        blocks.append(BlockTrace(start=pos, length=length, found=len(found),
                                 rows_closed=closed_now, open_additions=open_adds,
                                 counting_queries=sized - before,
                                 grover_queries=searched - sized))
        ledger.record_space(base_bits + log2_ceil(length)
                            + SEARCH_WORKSPACE_SLACK + len(found) * log_n)
        open_rows = still_open
        pos += length
    return np.array(y, dtype=np.int64), tuple(blocks)


def bounded_matrix_product(instance: ProblemInstance, S: int, mode: str,
                           rng: np.random.Generator,
                           reps: int | None = None) -> MatrixProductResult:
    """Clamped product min(Ax, b) under a space budget of S bits, drawn through one StreamDraws."""
    _check_mode(mode)
    if mode == MODE_SV and (instance.x > 1).any():
        j = int(np.argmax(instance.x > 1))
        raise InstanceError(f"{mode} mode takes 0/1 x only; x[{j}] = {instance.x[j]}")
    ledger = QueryLedger()
    n, t = instance.n, instance.t
    s_prime = quantum_row_capacity(n, S)
    y = np.zeros(n, dtype=np.int64)
    traces: list[tuple[BlockTrace, ...]] = []
    with contextlib.closing(StreamDraws(rng)) as draws:
        for lo in range(0, n, s_prime):
            hi = min(lo + s_prime, n)
            y[lo:hi], blocks = small_matrix_product(instance.A[lo:hi], instance.x, instance.b[lo:hi],
                                                    t, mode, draws, ledger, reps)
            traces.append(blocks)
    correct = bool(np.array_equal(y, matvec_min(instance)))
    return MatrixProductResult(y=y, n=n, t=t, s_prime=s_prime,
                               correct=correct, ledger=ledger, group_traces=tuple(traces))


# ---------------------------------------------------------------------------
# budget checking

QUANTUM_RATIO_CAP = 8.0     # calibrated; see tests
CLASSICAL_RATIO_CAP = 2.0


@dataclass(frozen=True)
class BudgetReport:
    family: str
    total_queries: int
    envelope: float
    ratio: float
    cap: float
    flagged: bool


def _log2_at_least_one(n: int) -> float:
    return max(1.0, math.log2(n))


def check_budget(ledger: QueryLedger, n: int, t: int, S: int,
                 family: str) -> BudgetReport:
    """Ratio of measured total queries to the family's cost envelope.

    quantum:   T / (N^1.5 sqrt(t) (log2 N)^2.5 / sqrt(U))
    classical: T U / (N^2 log2(t+1) + 1), with the counter width that
               classical_row_capacity uses
    U is the budget the rows can use: S clamped to [ceil(log2 N), N ceil(log2 N)]
    for quantum and to [log2(t+1), N log2(t+1)] for classical.  Below the lower
    edge the row capacity is already one row and past the upper one it holds
    all N rows, so S beyond either edge changes nothing.
    """
    T = ledger.total
    if family == "quantum":
        usable = min(max(S, log2_ceil(n)), n * log2_ceil(n))
        env = (n**1.5 * math.sqrt(t) * _log2_at_least_one(n)**2.5
               / math.sqrt(usable))
        cap = QUANTUM_RATIO_CAP
    elif family == "classical":
        usable = min(max(S, math.log2(t + 1)), n * math.log2(t + 1))
        env = (n**2 * math.log2(t + 1) + 1.0) / usable
        cap = CLASSICAL_RATIO_CAP
    else:
        raise ValueError(f"unknown family {family!r}")
    ratio = T / env
    return BudgetReport(family=family, total_queries=T, envelope=env,
                        ratio=ratio, cap=cap, flagged=ratio > cap)
