"""Search and counting subroutines with three interchangeable execution modes.

Modes:
    cost-model   outcomes sampled from closed-form distributions, every oracle
                 call charged to the ledger (a window's searches book the
                 iterations and verification reads of their attempts at once);
                 the workhorse.
    statevector  exact simulation of the actual iterate (small sizes only),
                 used to cross-validate the closed forms.
    exact        forced success: same control flow and charges as cost-model,
                 but a valid 1-position is always returned when one exists.

The search iterate acts on an n-element range: sign flip on marked positions
followed by inversion about the uniform state.  With weight fraction
sin^2(theta) = w/n, k iterations move the success mass to sin^2((2k+1) theta).
Counting runs phase estimation on that iterate with an M-point grid; measuring
y gives the estimate n * sin^2(pi y / M).  Closed-form outcome distributions
below are exactly the distributions of those measurements; count_median
draws all reps of a median from one (cached) law.  The subroutines draw only
through the product's one StreamDraws, which reads a PCG64 Generator's raw words
in bulk and gives the values and stream state that Generator calls would give.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import QueryLedger, TAG_CLASSICAL, TAG_COUNTING, TAG_GROVER

MODE_COST = "cost-model"
MODE_SV = "statevector"
MODE_EXACT = "exact"
MODES = (MODE_COST, MODE_SV, MODE_EXACT)

SV_MAX_N = 2**14          # statevector search refuses larger ranges
SV_MAX_NM = 2**12         # statevector counting refuses n*M beyond this
RETRY_BUDGET_FACTOR = 8   # unknown-weight retry budget: factor * ceil(sqrt(n)) queries
CAP_GROWTH = 6 / 5        # growth rate of the unknown-weight iteration caps
RAW_CHUNK = 1024          # raw PCG64 words a StreamDraws fetches per refill


class RangeTooLarge(ValueError):
    """Statevector path asked to simulate beyond its size cap."""


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


class TapeOracle:
    """Nonnegative integer tape with query charging.

    Search subroutines see the derived bit (value > 0); counting sees the
    aggregate value.  Methods prefixed with an underscore inspect the tape
    without charging: they exist so sampled modes can draw outcomes from the
    correct distributions or read the totals exact counts return, and are never
    used to shortcut an algorithm's decisions.
    """

    def __init__(self, values, ledger: QueryLedger, target: str = "x"):
        self.values = np.asarray(values, dtype=np.int64)
        if self.values.ndim != 1:
            raise ValueError("tape must be one-dimensional")
        self.n = self.values.size   # a tape is never resized
        self.ledger = ledger
        self.target = target
        self.root, self.offset, self._prefix = None, 0, None   # a window reads its root tape's running sums

    def window(self, lo: int, hi: int) -> "TapeOracle":
        """Sub-range view sharing the ledger; indices become window-local."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError(f"window [{lo}, {hi}) out of range")
        view = object.__new__(TapeOracle)   # a slice of a checked tape needs no re-check
        view.values, view.ledger, view.target = self.values[lo:hi], self.ledger, self.target
        view.n = hi - lo
        view.root, view.offset = self.root or self, self.offset + lo
        return view

    def charge(self, count: int, tag: str) -> None:
        self.ledger.charge(self.target, tag, count)

    def read_values(self, idx, tag: str = TAG_CLASSICAL) -> np.ndarray:
        """The one charged-read path: every index is checked to be an integer (a bool is not)
        in range, then len(idx) charged at once.  A list or tuple is checked in Python."""
        if isinstance(idx, (list, tuple)):
            if not all(type(i) is int or isinstance(i, np.integer) for i in idx):
                raise IndexError(f"tape indices {idx!r} are not all integers")
            inside = not idx or (min(idx) >= 0 and max(idx) < self.n)
            bad = () if inside else [i for i in idx if not 0 <= i < self.n]
            idx, count = list(idx), len(idx)   # a tuple would index axes, not positions
        else:
            idx = np.asarray(idx)
            if idx.size and idx.dtype.kind not in "iu":
                raise IndexError(f"tape indices of dtype {idx.dtype} are not integers")
            idx = idx.astype(np.int64, copy=False)
            bad, count = idx[(idx < 0) | (idx >= self.n)], idx.size
        if len(bad):
            raise IndexError(f"tape index {bad[0]} out of range")
        if count:   # an empty read adds no tag to the ledger
            self.ledger.charge(self.target, tag, count)
        return self.values[idx]

    # -- uncharged simulation internals --

    def _bits(self) -> np.ndarray:
        return self.values > 0

    def _sums(self) -> list[int]:
        """Running sums of the root tape, built once (a tape is not written once summed);
        this tape totals sums[offset + n] - sums[offset]."""
        root = self.root or self
        if root._prefix is None:
            root._prefix = [0, *root.values.cumsum().tolist()]
        return root._prefix

    def _total(self) -> int:
        sums = self._sums()
        return sums[self.offset + self.n] - sums[self.offset]


@dataclass(frozen=True)
class SearchOutcome:
    found: int | None   # the search's charge is on the ledger


def grover_success(n: int, w: int, j: int) -> float:
    """Success mass sin^2((2j+1) theta) after j iterations, with sin^2(theta) = w/n."""
    theta = math.asin(math.sqrt(w / n))
    return math.sin((2 * j + 1) * theta) ** 2


def _grover_iterate(state: np.ndarray, bits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One statevector iterate: oracle sign flip, then inversion about the uniform u."""
    state = np.where(bits, -state, state)
    return 2.0 * u * (u @ state) - state


def sv_run_grover(bits, k: int) -> np.ndarray:
    """Measurement pmf after k iterations of the exact statevector iterate."""
    bits = np.asarray(bits, dtype=bool)
    n = bits.size
    if n > SV_MAX_N:
        raise RangeTooLarge(f"statevector range {n} exceeds {SV_MAX_N}")
    if n < 1:
        raise ValueError("range must be nonempty")
    state = np.full(n, 1.0 / math.sqrt(n))
    u = state.copy()
    for _ in range(k):
        state = _grover_iterate(state, bits, u)
        norm = float(state @ state)
        if abs(norm - 1.0) > 1e-12:
            raise AssertionError(f"statevector norm drifted: {norm}")
    return state**2


class StreamDraws:
    """The draws of a PCG64 Generator, read from its raw 64-bit words in bulk.

    Words are fetched RAW_CHUNK at a time into words and read from pos.  As in
    numpy's next_uint32, half is the high half buffered by the last 32-bit draw
    that split a word, or ~half once served (numpy keeps it as a stale
    uinteger).  close() leaves the Generator where per-draw calls would; nothing
    else may draw from it while a reader is open.
    """

    def __init__(self, rng: np.random.Generator):
        self.bit_generator = bg = rng.bit_generator
        if type(bg) is not np.random.PCG64:
            raise TypeError(f"stream draws read PCG64 words, not {type(bg).__name__}")
        self.opened = state = bg.state
        self.half = state["uinteger"] if state["has_uint32"] else ~state["uinteger"]
        self.words, self.pos, self.dropped = [], 0, 0   # dropped: read words cut from the list's front

    def reserve(self, count: int) -> None:
        """Make count unread words readable, in the same list object."""
        if len(self.words) - self.pos < count:
            del self.words[:self.pos]
            self.dropped, self.pos = self.dropped + self.pos, 0
            self.words += self.bit_generator.random_raw(max(count, RAW_CHUNK)).tolist()

    def below(self, high: int) -> int:
        """integers(0, high): numpy's 32-bit Lemire loop over next_uint32."""
        if high > 2**32:   # numpy bounds wider ranges on a 64-bit path
            raise ValueError(f"range {high} exceeds 2**32")
        if high <= 1:
            return 0   # integers(0, 1) draws nothing
        threshold = (2**32 - high) % high
        while True:
            self.reserve(1)
            half, words, pos = self.half, self.words, self.pos
            x, self.half, self.pos = ((half, ~half, pos) if half >= 0
                                      else (words[pos] & 0xFFFFFFFF, words[pos] >> 32, pos + 1))
            if x * high & 0xFFFFFFFF >= threshold:
                return x * high >> 32

    def uint32s(self, count: int) -> np.ndarray:
        """The next count values next_uint32 would serve, as uint64: a live high half
        first, then the low and high halves of fresh words.  pos and half advance as
        count below() calls that never reject would."""
        live = int(count > 0 and self.half >= 0)
        fresh = (count - live + 1) // 2
        take = min(fresh, len(self.words) - self.pos)
        words = np.array(self.words[self.pos:self.pos + take], dtype=np.uint64)
        if take < fresh:   # past the fetched words: read the rest straight off the bit generator
            words = np.concatenate([words, self.bit_generator.random_raw(fresh - take)])
            self.dropped += len(self.words) + fresh - take
            del self.words[:]
            self.pos = 0
        else:
            self.pos += fresh
        out = np.empty(live + 2 * fresh, dtype=np.uint64)
        if live:
            out[0] = self.half
        out[live::2] = words & 0xFFFFFFFF
        out[live + 1::2] = words >> 32
        if fresh:   # the last word's high half is live unless it was served
            last = int(words[-1] >> 32)
            self.half = last if (count - live) % 2 else ~last
        elif live:
            self.half = ~self.half
        return out[:count]

    def draw(self, high: int, pos: int, half: int, need: int) -> tuple[int, int, int]:
        """below(high) from a caller's locals (pos, half): value, new (pos, half), need words readable."""
        self.pos, self.half = pos, half
        value = self.below(high)
        self.reserve(need)
        return value, self.pos, self.half

    def median_uniform(self, reps: int) -> float:
        """Median of random(reps), odd reps: random() is (word >> 11) * 2**-53, monotone in the word."""
        self.reserve(reps)
        self.pos += reps
        return (sorted(self.words[self.pos - reps:self.pos])[reps // 2] >> 11) * 2**-53

    def close(self) -> None:
        bg = self.bit_generator
        bg.state = self.opened
        bg.advance(self.dropped + self.pos)   # also clears the 32-bit buffer
        # max(half, ~half) is the buffered value, live or served
        bg.state = {**bg.state, "has_uint32": int(self.half >= 0), "uinteger": max(self.half, ~self.half)}


@functools.lru_cache(maxsize=1024)
def _attempt_highs(n: int, budget: int) -> tuple[int, ...]:
    """Ceilings of the first `budget` iteration caps, enough for a search that
    charges at least one query per attempt."""
    highs, cap = [], 1.0
    for _ in range(budget):
        highs.append(math.ceil(cap))
        cap = min(cap * CAP_GROWTH, math.sqrt(n))
    return tuple(highs)


@functools.lru_cache(maxsize=1024)
def _hit_thresholds(n: int, w: int) -> tuple[int, ...]:
    """Raw-word hit thresholds for every attempt count j below a cap (caps stay
    within ceil(sqrt(n))): thr[j] = ceil(grover_success(n, w, j) * 2**53) << 11, so
    word < thr[j] exactly when the uniform (word >> 11) * 2**-53 falls below that
    mass.  With w = n every index is a 1, and every word hits."""
    caps = math.ceil(math.sqrt(n))
    if w == n:
        return (2**64,) * caps
    return tuple(math.ceil(grover_success(n, w, j) * 2**53) << 11 for j in range(caps))


def _searches(oracle: TapeOracle, mode: str, draws: StreamDraws, once: bool) -> list[int]:
    """grover_search run back to back, each search as if the positions found before
    it were 0, until one reports NoSolution (or after the first, with once): the
    found positions in discovery order.  The support is scanned once into an
    ascending list, a find is popped from it at its drawn rank, and the charges of
    all the searches are booked in one ledger charge when the last one ends.
    """
    _check_mode(mode)
    n = oracle.n
    if n < 1:
        raise ValueError("range must be nonempty")
    ones = oracle.values.nonzero()[0].tolist()   # the support (values >= 0), ascending: finds pop by rank
    budget = RETRY_BUDGET_FACTOR * math.ceil(math.sqrt(n))
    highs = _attempt_highs(n, budget)
    need = 2 * budget + 2   # a search reads at most 2 words per attempt, unless Lemire rejects
    sv, forced = mode == MODE_SV, mode == MODE_EXACT
    bits = oracle._bits() if sv else None   # statevector attempts read and clear the bit tape
    found, charged = [], 0
    # the attempts read the reserved words through locals, handed back even on a raise:
    # a below() or uniform-read method call per draw ran product-exact 12-16% slower
    # (median ops_per_s 29.6 -> 24.9, five alternating 10 s pairs at seed 0, 2 cores)
    words, pos, half = draws.words, draws.pos, draws.half
    try:
        while True:
            w = len(ones)
            zeros = n - w
            thr = _hit_thresholds(n, w)
            if len(words) - pos < need:
                draws.pos = pos
                draws.reserve(need)   # refills the same list
                pos = draws.pos
            spent, rank = 0, -1   # rank: the find's place in ones
            for high in highs:
                if spent >= budget:
                    break
                # j = integers(0, high): the next 32-bit half, a fresh word's low half
                # unless a high half is buffered; integers(0, 1) draws nothing, and a
                # product Lemire might reject takes the checked path
                if high == 1:
                    j = 0
                elif half >= 0:
                    m = half * high
                    if m & 0xFFFFFFFF < high:
                        j, pos, half = draws.draw(high, pos, half, need)
                    else:
                        j = m >> 32
                        half = ~half
                else:
                    word = words[pos]
                    m = (word & 0xFFFFFFFF) * high
                    if m & 0xFFFFFFFF < high:
                        j, pos, half = draws.draw(high, pos, half, need)
                    else:
                        j = m >> 32
                        half = word >> 32
                        pos += 1
                spent += j + 1
                if sv:   # the law is checked before its one draw, as in Generator.choice
                    cdf = _choice_cdf(sv_run_grover(bits, j))
                    idx = int(cdf.searchsorted((words[pos] >> 11) * 2**-53, side="right"))
                    pos += 1
                    if bits[idx]:
                        rank = ones.index(idx)
                        bits[idx] = False
                        break
                    continue
                # the state stays in span{uniform over ones, uniform over the rest}, so given
                # hit or miss the index is uniform in its class: a hit draws its rank among
                # the ones, a miss the measured 0-position, which fails verification, each
                # drawn as j is
                hit = words[pos] < thr[j]
                pos += 1
                high = w if hit else zeros
                if high == 1:
                    r = 0
                elif half >= 0:
                    m = half * high
                    if m & 0xFFFFFFFF < high:
                        r, pos, half = draws.draw(high, pos, half, need)
                    else:
                        r = m >> 32
                        half = ~half
                else:
                    word = words[pos]
                    m = (word & 0xFFFFFFFF) * high
                    if m & 0xFFFFFFFF < high:
                        r, pos, half = draws.draw(high, pos, half, need)
                    else:
                        r = m >> 32
                        half = word >> 32
                        pos += 1
                if hit:
                    rank = r
                    break
            charged += spent
            if rank < 0 and forced and w:
                rank, pos, half = draws.draw(w, pos, half, need)
            if rank < 0:
                break
            found.append(ones.pop(rank))
            if once:
                break
    finally:
        draws.pos, draws.half = pos, half
    oracle.charge(charged, TAG_GROVER)
    return found


def grover_search(oracle: TapeOracle, mode: str, draws: StreamDraws) -> SearchOutcome:
    """One search for a 1-position of the derived bit tape, of unknown weight.

    Iteration caps grow by 6/5 per attempt up to sqrt(n), the attempt count j
    is drawn uniformly below the cap, and the whole search is cut off after
    RETRY_BUDGET_FACTOR * ceil(sqrt(n)) charged queries, after which
    NoSolution is reported (found = None).  An attempt costs its j iterations
    plus the verification read of the measured index; the charges of all
    attempts are booked on the ledger once, when the search ends.

    Exact mode follows the identical control flow and charges, but if the
    sampled path ends empty-handed while a 1-position exists, a uniformly
    random valid position is returned anyway.
    """
    found = _searches(oracle, mode, draws, once=True)
    return SearchOutcome(found=found[0] if found else None)


def collect_ones(oracle: TapeOracle, mode: str, draws: StreamDraws) -> tuple[int, ...]:
    """Found positions in discovery order, from repeated search with found positions
    masked out until a search reports NoSolution (len(found) + 1 searches), run in
    one loop over the tape's support and booked in one charge.  In exact mode the
    result is exactly the support of the derived bit tape.
    """
    return tuple(_searches(oracle, mode, draws, once=False))


# ---------------------------------------------------------------------------
# counting

def _dirichlet_kernel_sq(delta: np.ndarray, M: int) -> np.ndarray:
    """(sin(M pi delta) / (M sin(pi delta)))^2 with the delta -> integer limit 1."""
    delta = np.asarray(delta, dtype=float)
    s = np.sin(np.pi * delta)
    near = np.abs(s) < 1e-300
    safe = np.where(near, 1.0, s)
    val = (np.sin(np.pi * M * delta) / (M * safe)) ** 2
    return np.where(near, 1.0, val)


@dataclass(frozen=True)
class EstimatePmf:
    """Pmf over the representable fraction estimates sin^2(pi y / M)."""

    values: np.ndarray   # ascending estimates in [0, 1]
    probs: np.ndarray


def ae_outcome_pmf(a: float, M: int) -> EstimatePmf:
    """Exact outcome distribution of M-point estimation of a fraction a.

    The phase register measures y in {0..M-1} with probability
    (1/2) [ F(omega - y/M) + F(omega + y/M) ],  omega = arcsin(sqrt(a)) / pi,
    where F is the squared Dirichlet kernel; y and M-y fold onto the same
    estimate sin^2(pi y / M), leaving floor(M/2)+1 distinct values.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"fraction {a} outside [0, 1]")
    if M < 1:
        raise ValueError("M must be positive")
    omega = math.asin(math.sqrt(a)) / math.pi
    ys = np.arange(M)
    probs_y = 0.5 * (_dirichlet_kernel_sq(omega - ys / M, M)
                     + _dirichlet_kernel_sq(omega + ys / M, M))
    return fold_count_pmf(probs_y, M)


def sv_count_pmf(bits, M: int) -> np.ndarray:
    """Phase-register marginal from exact simulation of M-point estimation."""
    bits = np.asarray(bits, dtype=bool)
    n = bits.size
    if n * M > SV_MAX_NM:
        raise RangeTooLarge(f"n*M = {n * M} exceeds {SV_MAX_NM}")
    u = np.full(n, 1.0 / math.sqrt(n))
    states = np.empty((M, n))
    state = u.copy()
    for j in range(M):
        states[j] = state
        state = _grover_iterate(state, bits, u)
    # inverse Fourier transform over the control register, then measure it
    amps = np.fft.fft(states, axis=0) / M
    return (np.abs(amps) ** 2).sum(axis=1)


def fold_count_pmf(probs_y: np.ndarray, M: int) -> EstimatePmf:
    """Fold a pmf over y in {0..M-1} onto the representable estimates."""
    ys = np.arange(M)
    folded = np.minimum(ys, M - ys)
    n_est = M // 2 + 1
    values = np.sin(np.pi * np.arange(n_est) / M) ** 2
    probs = np.zeros(n_est)
    np.add.at(probs, folded, np.asarray(probs_y, dtype=float))
    return EstimatePmf(values=values, probs=probs)


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative law of a pmf, checked and built as Generator.choice does it."""
    p = probs / probs.sum()
    if not (np.isfinite(p).all() and (p >= 0).all()
            and abs(p.sum() - 1.0) <= math.sqrt(np.finfo(float).eps)):
        raise ValueError("estimate probabilities are not a probability vector")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _estimate_law(pmf: EstimatePmf) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A folded law as (estimates, cdf) tuples of floats: bisect_right(cdf, u) is the
    index cdf.searchsorted(u, side="right") gives on the same float64 values, without
    numpy's per-call overhead."""
    return tuple(pmf.values.tolist()), tuple(_choice_cdf(pmf.probs).tolist())


@functools.lru_cache(maxsize=4096)
def _estimate_cdf(a: float, M: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return _estimate_law(ae_outcome_pmf(a, M))


def count_median(oracle: TapeOracle, M: int, reps: int, mode: str,
                 draws: StreamDraws) -> float:
    """Median of reps estimates of the tape's aggregate value (odd reps; charges M*reps).

    The estimate law, folded onto the representable estimates, is got once per
    call, cached by (fraction, M) in cost-model mode, and looked up by bisect.
    As the estimates ascend, the one at the median of reps uniforms is the
    median of reps Generator.choice draws.  The aggregate is a mark fraction total/n
    saturating at 1: an estimate is at most n, which only speeds up threshold stops.
    """
    _check_mode(mode)
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be odd and positive")
    if M < 1:
        raise ValueError("M must be positive")
    if mode == MODE_SV:   # sv_count_pmf caps n*M
        if (oracle.values > 1).any():
            raise ValueError("statevector counting supports bit tapes only")
        values, cdf = _estimate_law(fold_count_pmf(sv_count_pmf(oracle.values > 0, M), M))
    oracle.charge(M * reps, TAG_COUNTING)
    total = oracle._total()
    if mode == MODE_EXACT:
        return float(total)
    if mode == MODE_COST:
        values, cdf = _estimate_cdf(min(1.0, total / oracle.n), M)
    return float(oracle.n * values[bisect.bisect_right(cdf, draws.median_uniform(reps))])
