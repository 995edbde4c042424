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

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InstanceError,
    ProblemInstance,
    QueryLedger,
    TAG_CLASSICAL,
    log2_ceil,
    matvec_min,
    value_bits,
)
from .qsim import MODE_SV, MODES, TapeOracle, collect_ones, count_median, _check_mode

SEARCH_WORKSPACE_SLACK = 8   # qubits beyond the index register per subroutine
CLASSICAL_MODE = "classical"  # result mode of the classical baseline


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
    estimate: float
    found: int           # nonzero positions collected in the block
    rows_closed: int     # rows of the group saturating during the block
    open_additions: int  # additions landing on rows still open at block end


@dataclass(frozen=True)
class MatrixProductResult:
    """Output of either product; the classical baseline has no block traces."""

    y: np.ndarray
    n: int
    t: int
    s_prime: int
    mode: str
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
        rows = range(lo, min(lo + cap, n))
        bounds = {u: b_tape.read_value(u, TAG_CLASSICAL) for u in rows}
        ledger.record_space(2 * len(bounds) * vb + len(bounds) + 2 * log2_ceil(n))
        for j in range(n):
            xj = x_tape.read_value(j, TAG_CLASSICAL)
            if xj == 0:
                continue
            for u in rows:
                a = int(instance.A[u, j])
                if a:
                    y[u] = min(bounds[u], y[u] + a * xj)
    correct = bool(np.array_equal(y, matvec_min(instance)))
    return MatrixProductResult(y=y, n=n, t=t, s_prime=cap,
                               mode=CLASSICAL_MODE, correct=correct, ledger=ledger,
                               group_traces=())


def find_block_length(tape: TapeOracle, start: int, s_prime: int, mode: str,
                      rng: np.random.Generator, reps: int) -> tuple[int, float]:
    """Choose the next block [start, start+length) of the masked tape.

    Returns the length and the counting estimate that accepted it.

    Doubling from s_prime grows the candidate while its mass estimate stays
    below s_prime; a binary search then takes the longest length in the last
    bracket whose estimate is at most 2*s_prime.  Every probe is a fresh
    median-of-reps counting call with M = ceil(sqrt(candidate length)).
    If the range end is reached while still sparse, the tail is the block.
    """
    _check_mode(mode)
    n = tape.n
    remaining = n - start
    if remaining <= 0:
        raise ValueError(f"no columns left at position {start}")
    if s_prime < 1:
        raise ValueError("row capacity must be at least 1")

    def probe(length: int) -> float:
        window = tape.window(start, start + length)
        m_pts = math.ceil(math.sqrt(length))
        return count_median(window, m_pts, reps, mode, rng)

    if remaining <= s_prime:
        return remaining, probe(remaining)
    k = s_prime
    est = None
    while k < remaining:
        k = min(2 * k, remaining)
        est = probe(k)
        if est >= s_prime:
            break
    if est is None or est < s_prime:
        # sparse all the way to the end: take the tail
        return remaining, float(est or 0.0)
    lo, hi = max(1, k // 2), min(k, remaining)
    best_est = None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        e = probe(mid)
        if e <= 2 * s_prime:
            lo = mid
            best_est = e
        else:
            hi = mid - 1
    if best_est is None:
        best_est = probe(lo)   # every bracket probe overflowed; record the floor
    return lo, float(best_est)


def small_matrix_product(A_block: np.ndarray, x: np.ndarray, b_block: np.ndarray,
                         t: int, mode: str, rng: np.random.Generator,
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
    bounds = np.array([b_tape.read_value(u, TAG_CLASSICAL) for u in range(m)],
                      dtype=np.int64)
    y = np.zeros(m, dtype=np.int64)
    open_rows = y < bounds
    vb = value_bits(t)
    log_n = log2_ceil(n)
    base_bits = m * (1 + 2 * vb) + 4 * log_n
    ledger.record_space(base_bits)
    blocks: list[BlockTrace] = []
    pos = 0
    while pos < n and open_rows.any():
        mask = (A_block[open_rows] != 0).any(axis=0)
        v_tape = TapeOracle(np.where(mask, x, 0), ledger, "x")
        length, estimate = find_block_length(v_tape, pos, m, mode, rng, reps)
        window = v_tape.window(pos, pos + length)
        res = collect_ones(window, mode, rng)
        found = sorted(pos + j for j in res.found)
        reads = {j: x_tape.read_value(j, TAG_CLASSICAL) for j in found}
        additions = np.zeros(m, dtype=np.int64)
        for u in np.flatnonzero(open_rows):
            for j in found:
                a = int(A_block[u, j])
                contrib = a * reads[j]
                if contrib > 0:
                    y[u] = min(int(bounds[u]), int(y[u]) + contrib)
                    additions[u] += 1
        still_open = y < bounds
        closed_now = int(np.count_nonzero(open_rows & ~still_open))
        open_adds = int(additions[still_open].sum())
        blocks.append(BlockTrace(start=pos, length=length,
                                 estimate=estimate, found=len(found),
                                 rows_closed=closed_now, open_additions=open_adds))
        ledger.record_space(base_bits + log2_ceil(length)
                            + SEARCH_WORKSPACE_SLACK + len(found) * log_n)
        open_rows = still_open
        pos += length
    return y, tuple(blocks)


def bounded_matrix_product(instance: ProblemInstance, S: int, mode: str,
                           rng: np.random.Generator,
                           reps: int | None = None) -> MatrixProductResult:
    """Clamped product min(Ax, b) under a space budget of S bits."""
    _check_mode(mode)
    if mode == MODE_SV and (instance.x > 1).any():
        j = int(np.argmax(instance.x > 1))
        raise InstanceError(f"{mode} mode takes 0/1 x only; x[{j}] = {instance.x[j]}")
    ledger = QueryLedger()
    n, t = instance.n, instance.t
    s_prime = quantum_row_capacity(n, S)
    y = np.zeros(n, dtype=np.int64)
    traces: list[tuple[BlockTrace, ...]] = []
    for lo in range(0, n, s_prime):
        hi = min(lo + s_prime, n)
        y[lo:hi], blocks = small_matrix_product(instance.A[lo:hi], instance.x,
                                                instance.b[lo:hi], t, mode, rng,
                                                ledger, reps)
        traces.append(blocks)
    correct = bool(np.array_equal(y, matvec_min(instance)))
    return MatrixProductResult(y=y, n=n, t=t, s_prime=s_prime,
                               mode=mode, correct=correct, ledger=ledger,
                               group_traces=tuple(traces))


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

    quantum:   T / (N^1.5 sqrt(t) (log2 N)^2.5 / sqrt(S))
    classical: T S / (N^2 log2(t+1) + 1), with the counter width that
               classical_row_capacity uses
    """
    T = ledger.total
    if family == "quantum":
        env = (n**1.5 * math.sqrt(t) * _log2_at_least_one(n)**2.5
               / math.sqrt(S))
        cap = QUANTUM_RATIO_CAP
    elif family == "classical":
        env = (n**2 * math.log2(t + 1) + 1.0) / S
        cap = CLASSICAL_RATIO_CAP
    else:
        raise ValueError(f"unknown family {family!r}")
    ratio = T / env
    return BudgetReport(family=family, total_queries=T, envelope=env,
                        ratio=ratio, cap=cap, flagged=ratio > cap)
