"""Space-bounded computation of clamped matrix-vector products min(Ax, b).

The matrix A is known in full; only x and b sit behind charged oracles.  With
a budget of S bits the algorithm keeps S' = max(1, floor(S / log2 N)) row
counters live at a time:

  * rows are processed in groups of S';
  * within a group, columns are scanned left to right in adaptive blocks of
    the masked tape v_j = [some open row has A[u,j] != 0] * x_j, each sized by
    _block_length: double until a count reaches S', then bisect for the
    longest length whose count stays within 2S';
  * search collects the nonzero positions of the block, their x values are
    read classically, and every open row's counter is bumped and clamped
    at its bound, closing rows that saturate.

small_matrix_product runs that loop for one group, block by block; it serves
the modes that draw, and is the reference for exact mode.  An exact count
draws nothing and an exact window's searches draw by its length and weight
alone, so in exact mode every group's blocks, finds and row closures follow
from (A, x, b): the product plans them for all groups in lockstep, then
replays their searches in (group, block) order.  Both paths size blocks with
_block_length and search with qsim._searches on plain arrays, neither of
which charges, and book through _book: the loop once per group, the plan
once per product.

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
    TAG_GROVER,
    log2_ceil,
    matvec_min,
    value_bits,
    whole_number,
)
from .qsim import (MODE_EXACT, MODE_SV, StreamDraws, TapeOracle, check_reps, count_median,
                   _check_mode, _searches)

SEARCH_WORKSPACE_SLACK = 8   # qubits beyond the index register per subroutine
CLASSICAL_MODE = "classical"  # run mode of the classical baseline
PLAN_CELLS = 2**16   # most cells of an exact-plan array: groups and rows are taken in chunks


class SpaceTooSmall(ValueError):
    """Space budget cannot hold even one row counter."""


def default_reps(n: int) -> int:
    """Default counting repetitions: odd, growing with log2 of the range."""
    return 2 * math.ceil(1.5 * log2_ceil(n)) + 1


def _space_bits(S) -> int:
    """A space budget as a Python int: a whole number (core.whole_number) of at least one bit."""
    S = whole_number(S, "space budget")
    if S < 1:
        raise SpaceTooSmall(f"space budget {S} < 1")
    return S


def quantum_row_capacity(n: int, S: int) -> int:
    """Rows whose index bookkeeping fits the budget: max(1, S // log2 N)."""
    return max(1, min(n, _space_bits(S) // log2_ceil(n)))


def classical_row_capacity(n: int, S: int, t: int) -> int:
    """Counter-width capacity of the classical baseline: S / log2(t+1)."""
    return max(1, min(n, int(_space_bits(S) / math.log2(t + 1))))


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


def _block_length(m: int, remaining: int, reaches, keeps) -> tuple[int, int]:
    """The block rule for m open rows over the remaining columns: (length, its probes' M
    summed), a probe of length L having M = ceil(sqrt(L)) = isqrt(L - 1) + 1.  Doubling from m
    grows the candidate until reaches(L), its estimate being at least m; a binary search then
    takes the longest length in the last bracket that keeps(L), its estimate at most 2m, or
    the bracket's floor if none does.  If the range end is reached while sparse the tail is
    the block, unprobed if at most m long."""
    probes, lo, hi, k = 0, remaining, remaining, m
    while k < remaining:
        k = min(2 * k, remaining)
        probes += math.isqrt(k - 1) + 1
        if reaches(k):
            lo, hi = k // 2, k
            break
    while lo < hi:
        mid = (lo + hi + 1) // 2
        probes += math.isqrt(mid - 1) + 1
        if keeps(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo, probes


def find_block_length(values: np.ndarray, start: int, s_prime: int, mode: str,
                      draws: StreamDraws, reps: int) -> tuple[int, int]:
    """The next block [start, start+length) of the masked tape values, by _block_length:
    (length, its probes' M summed).  Charges nothing: the caller books M*reps a probe.

    Every probe is a median-of-reps count of the first L remaining columns.  A statevector
    probe counts its window's bits; in the other modes run[L - 1] totals the window, which an
    exact count returns and a cost-model count draws from.
    """
    _check_mode(mode)
    reps = check_reps(reps)
    if not 0 <= start < len(values):
        raise ValueError(f"no columns left at position {start}")
    if s_prime < 1:
        raise ValueError("row capacity must be at least 1")
    run, sv = values[start:].cumsum(), mode == MODE_SV

    # the two tests each make their probe's count, so a probe costs one Python frame
    def reaches(k: int) -> bool:
        return count_median(values[start:start + k] if sv else int(run[k - 1]), k,
                            math.isqrt(k - 1) + 1, reps, mode, draws) >= s_prime

    def keeps(k: int) -> bool:
        return count_median(values[start:start + k] if sv else int(run[k - 1]), k,
                            math.isqrt(k - 1) + 1, reps, mode, draws) <= 2 * s_prime

    return _block_length(s_prime, run.size, reaches, keeps)


def _book(ledger: QueryLedger, x: np.ndarray, counting: int, grover: int, found: list[int],
          space: int) -> None:
    """Book a group's or a product's queries and space at once: the counting charge, then the
    grover charge (a ledger keeps sums and the order tags were first charged), one read of
    every found column of x, and the largest space record."""
    for tag, count in ((TAG_COUNTING, counting), (TAG_GROVER, grover)):
        if count:
            ledger.charge("x", tag, count)
    TapeOracle(x, ledger, "x").read_values(np.array(found, dtype=np.int64))
    ledger.record_space(space)


def small_matrix_product(A_block: np.ndarray, x: np.ndarray, b_block: np.ndarray,
                         t: int, mode: str, draws: StreamDraws,
                         ledger: QueryLedger, reps: int) -> tuple[np.ndarray, tuple[BlockTrace, ...]]:
    """Clamped product for one group of at most S' rows: (y_block, block traces).

    The group's open-row mask is frozen per block: the masked tape
    v_j = [any open row hits column j] * x_j is sized by counting, its
    support collected by search, and the x values of found positions read
    before all open counters are bumped and clamped.  The group reads its
    bounds first and books the rest once, when its last block ends (_book).
    """
    _check_mode(mode)
    reps = check_reps(reps)
    A_block = np.asarray(A_block, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if A_block.ndim != 2 or A_block.shape[1] != x.size:
        raise InstanceError("row block and x disagree on column count")
    m, n = A_block.shape
    if m < 1:
        raise InstanceError("row block must hold at least one row")
    b_block = np.asarray(b_block, dtype=np.int64)
    if b_block.shape != (m,):
        raise InstanceError(f"row block has {m} rows but its bounds have shape {b_block.shape}")
    # at most S' rows: the counters, bounds and open rows are plain ints and lists
    bounds = TapeOracle(b_block, ledger, "b").read_values(list(range(m))).tolist()
    y = [0] * m
    open_rows = [i for i in range(m) if bounds[i] > 0]
    log_n, sv = log2_ceil(n), mode == MODE_SV
    base_bits = m * (1 + 2 * value_bits(t)) + 4 * log_n
    blocks: list[BlockTrace] = []
    found_all, probes_all, grover, workspace = [], 0, 0, 0
    pos = 0
    closed_now = 1   # builds the first masked tape
    while pos < n and open_rows:
        if closed_now:   # the masked tape changes only when a block closes a row
            mask = (A_block[open_rows[0]] != 0 if len(open_rows) == 1
                    else np.logical_or.reduce(A_block.take(open_rows, axis=0)))
            v = x * mask
        length, probes = find_block_length(v, pos, m, mode, draws, reps)
        window = v[pos:pos + length]
        hits, charged = _searches(length, window.nonzero()[0].tolist(), mode, draws, False,
                                  window > 0 if sv else None)
        found = sorted(pos + j for j in hits)
        reads = x.take(found).tolist()
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
                                 counting_queries=probes * reps, grover_queries=charged))
        found_all += found
        probes_all, grover = probes_all + probes, grover + charged
        workspace = max(workspace, log2_ceil(length) + SEARCH_WORKSPACE_SLACK + len(found) * log_n)
        open_rows = still_open
        pos += length
    _book(ledger, x, probes_all * reps, grover, found_all, base_bits + workspace)
    return np.array(y, dtype=np.int64), tuple(blocks)


def _row_slices(count: int, width: int) -> list[slice]:
    """Consecutive slices of count rows, width cells each, within PLAN_CELLS cells a slice."""
    step = max(1, PLAN_CELLS // max(1, width))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _or_into(out: np.ndarray, group: np.ndarray, rows: np.ndarray) -> None:
    """out[g] |= the OR of the rows whose group is g: group ascends over consecutive groups,
    each of which has a row."""
    lo, hi = int(group[0]), int(group[-1]) + 1
    out[lo:hi] |= np.logical_or.reduceat(rows, np.searchsorted(group, np.arange(lo, hi)), axis=0)


def _support_chunks(A: np.ndarray, x: np.ndarray, s_prime: int):
    """Each row group's support, the columns where x and one of its rows are nonzero, in chunks
    of consecutive groups: (first group, columns, entries per group), the columns in group then
    column order and padded by one more, column N.  A chunk's entries, and its windows (2s' + 1
    entries, widened up to a group's entries), stay within PLAN_CELLS cells; so does a slice of
    groups read at once."""
    n = x.size
    groups, least = -(-n // s_prime), 2 * s_prime + 1
    per_slice = max(1, PLAN_CELLS // (n + least))
    first, parts, counts, widest = 0, [], [], least
    for a in range(0, groups, per_slice):
        b = min(a + per_slice, groups)
        support = np.zeros((b - a, n), dtype=bool)
        for i in range(s_prime):   # row i of every group at once
            ith = A[a * s_prime + i:b * s_prime:s_prime] != 0
            support[:len(ith)] |= ith
        support &= x != 0
        count = support.sum(1)
        widest = max(widest, int(count.max()))
        if parts and (b - first) * widest > PLAN_CELLS:
            cols, parts = np.concatenate([*parts, [n]]), []
            yield first, cols, np.concatenate(counts)
            first, counts, widest = a, [], max(least, int(count.max()))
        parts.append(np.flatnonzero(support) % n)
        counts.append(count)
    yield first, np.concatenate([*parts, [n]]), np.concatenate(counts)


def _plan_chunk(A: np.ndarray, x: np.ndarray, bounds: np.ndarray, r0: int, s_prime: int,
                support: np.ndarray, counts: np.ndarray):
    """The blocks of a chunk of row groups (rows r0 on, with these bounds and support columns),
    as small_matrix_product sizes and empties them in exact mode: the rows' y and each group's
    blocks, a block being (start, length, its probes' M summed, found positions, rows closed,
    open additions).

    Each step sizes one block of every group with open rows.  It reads a window of the group's
    support from the group's position: 2s' + 1 entries, each of mass 1 or more, doubled while
    the open rows' sum over it neither passes 2m (m the group's rows) nor reaches the support's
    end.  The window then holds every column of the block: a block reaching past the first sum
    over 2m is at most m long.  Each round of windows reads A in two gathers: one over the
    open rows and the windows marks the entries those rows hit, and one over the sized blocks'
    entries gives each open row its block sum and nonzero count.
    """
    n, rows_in, gc = x.size, bounds.size, counts.size
    pad, mass_of = support.size - 1, np.append(x[support[:-1]], 0)
    bound, y = bounds.tolist(), [0] * rows_in
    open_rows = [[r for r in range(lo, min(lo + s_prime, rows_in)) if bound[r] > 0]
                 for lo in range(0, rows_in, s_prime)]
    end = counts.cumsum().tolist()
    ptr = [e - c for e, c in zip(end, counts.tolist())]   # each group's first entry at or past pos
    pos, blocks = [0] * gc, [[] for _ in range(gc)]

    def rows_of(groups):
        """The open rows of groups, as rows of A, and each one's place in groups."""
        rows, owner = [], []
        for i, g in enumerate(groups):
            rows += open_rows[g]
            owner += [i] * len(open_rows[g])
        return np.array(rows, dtype=np.int64) + r0, np.array(owner, dtype=np.intp)

    step = [g for g in range(gc) if open_rows[g]]
    while step:
        todo, width = step, 2 * s_prime + 1
        while todo:
            at = np.array([ptr[g] for g in todo])[:, None] + np.arange(width)
            at = np.where(at < np.array([end[g] for g in todo])[:, None], at, pad)
            cols = support[at]
            safe = np.minimum(cols, n - 1)
            rows, owner = rows_of(todo)
            marked = np.zeros(at.shape, dtype=bool)
            for sl in _row_slices(rows.size, width):
                _or_into(marked, owner[sl], A[rows[sl, None], safe[owner[sl]]] != 0)
            mass = mass_of[at] * marked
            wider, done = [], []
            for i, (g, c, v) in enumerate(zip(todo, cols.tolist(), mass.tolist())):
                p, mg = pos[g], min(s_prime, rows_in - g * s_prime)
                remaining, total = n - p, 0
                reach, keep = remaining + 1, remaining
                for col, mass_k in zip(c, v):
                    total += mass_k
                    if reach > remaining and total >= mg:
                        reach = col - p + 1
                    if total > 2 * mg:
                        keep = col - p
                        break
                else:
                    if ptr[g] + width < end[g]:   # the sum may pass 2m further on
                        wider.append(g)
                        continue
                length, probes = _block_length(mg, remaining, reach.__le__, keep.__ge__)
                ahead = bisect.bisect_left(c, p + length)   # the block's entries, a prefix of the window
                done.append((i, g, p, length, probes, ahead, [col for col, mass_k in zip(c[:ahead], v) if mass_k]))
            if done:
                # the open rows of these groups take their block sums and count their nonzeros in it
                sel, groups, starts, lengths, probe_sums, aheads, founds = zip(*done)
                sel, ahead = np.array(sel), np.array(aheads)
                w = int(ahead.max())
                inside = np.arange(w) < ahead[:, None]
                weights = mass[sel, :w] * inside
                rows, owner = rows_of(groups)
                sums, hits = np.zeros(rows.size, dtype=np.int64), np.zeros(rows.size, dtype=np.int64)
                for sl in _row_slices(rows.size, w):
                    a = A[rows[sl, None], safe[sel[owner[sl]], :w]]
                    sums[sl] = (a * weights[owner[sl]]).sum(1)
                    hits[sl] = ((a != 0) & inside[owner[sl]]).sum(1)
                sums, hits, k = sums.tolist(), hits.tolist(), 0
                for g, p, length, pr, entries, found in zip(groups, starts, lengths, probe_sums, aheads, founds):
                    still, closed, adds = [], 0, 0
                    for r in open_rows[g]:
                        total = y[r] + sums[k]
                        if total >= bound[r]:
                            y[r], closed = bound[r], closed + 1
                        else:
                            y[r], adds = total, adds + hits[k]
                            still.append(r)
                        k += 1
                    blocks[g].append((p, length, pr, found, closed, adds))
                    open_rows[g], ptr[g], pos[g] = still, ptr[g] + entries, p + length
            if wider:   # no window needs more entries than the longest remaining support
                width = min(2 * width, max(end[g] - ptr[g] for g in wider))
            todo = wider
        step = [g for g in step if open_rows[g] and pos[g] < n]
    return np.array(y, dtype=np.int64), blocks


def _exact_product(instance: ProblemInstance, s_prime: int, reps: int, draws: StreamDraws,
                   ledger: QueryLedger) -> tuple[np.ndarray, list[tuple[BlockTrace, ...]]]:
    """small_matrix_product over every row group in exact mode, planned before any search.

    Exact sizing draws nothing, and an exact window's searches draw by its length and weight
    alone, so the blocks, finds and row closures of every group follow from (A, x, b): they
    are planned group chunk by chunk from one read of all N bounds, then their searches are
    replayed in (group, block) order, drawing from draws.  A ledger keeps sums, tag order and
    a high-water mark, so what the loop books per group is booked once per product (_book).
    """
    n, vb, log_n = instance.n, value_bits(instance.t), log2_ceil(instance.n)
    bounds = TapeOracle(instance.b, ledger, "b").read_values(np.arange(n))
    y, plans = np.zeros(n, dtype=np.int64), []
    for first, support, counts in _support_chunks(instance.A, instance.x, s_prime):
        r0, r1 = first * s_prime, min((first + counts.size) * s_prime, n)
        y[r0:r1], chunk = _plan_chunk(instance.A, instance.x, bounds[r0:r1], r0, s_prime, support, counts)
        plans += chunk
    traces, found_all, probes_all, grover, space = [], [], 0, 0, 0
    for lo, blocks in zip(range(0, n, s_prime), plans):
        base_bits, workspace, group = min(s_prime, n - lo) * (1 + 2 * vb) + 4 * log_n, 0, []
        for start, length, probes, found, rows_closed, open_adds in blocks:
            charged = _searches(length, [j - start for j in found], MODE_EXACT, draws, False)[1]
            group.append(BlockTrace(start, length, len(found), rows_closed, open_adds, probes * reps, charged))
            found_all += found
            probes_all, grover = probes_all + probes, grover + charged
            workspace = max(workspace, log2_ceil(length) + SEARCH_WORKSPACE_SLACK + len(found) * log_n)
        traces.append(tuple(group))
        space = max(space, base_bits + workspace)
    # counting first, as in the loop: a group's first block is unprobed only if s' >= N, where none is
    # counted
    _book(ledger, instance.x, probes_all * reps, grover, found_all, space)
    return y, traces


def bounded_matrix_product(instance: ProblemInstance, S: int, mode: str,
                           rng: np.random.Generator,
                           reps: int | None = None) -> MatrixProductResult:
    """Clamped product min(Ax, b) under a space budget of S bits, drawn through one StreamDraws.

    Exact mode plans every group's blocks and then replays them (_exact_product); the modes
    that draw run small_matrix_product group by group.
    """
    _check_mode(mode)
    if mode == MODE_SV and (instance.x > 1).any():
        j = int(np.argmax(instance.x > 1))
        raise InstanceError(f"{mode} mode takes 0/1 x only; x[{j}] = {instance.x[j]}")
    ledger = QueryLedger()
    n, t = instance.n, instance.t
    s_prime = quantum_row_capacity(n, S)
    reps = default_reps(n) if reps is None else check_reps(reps)
    with contextlib.closing(StreamDraws(rng)) as draws:
        if mode == MODE_EXACT:
            y, traces = _exact_product(instance, s_prime, reps, draws, ledger)
        else:
            y, traces = np.zeros(n, dtype=np.int64), []
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
    all N rows, so S beyond either edge changes nothing.  S follows the row
    capacities' rule (_space_bits).
    """
    T, S = ledger.total, _space_bits(S)
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
