"""Search and counting subroutines with three interchangeable execution modes.

Modes:
    cost-model   outcomes sampled from closed-form distributions, every oracle
                 call charged to the ledger; the workhorse for large sweeps.
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
draws all reps of a median in one batch from one (cached) law.
"""
from __future__ import annotations

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


class WeightZero(ValueError):
    """Known-weight schedule requested for an empty range."""


class RangeTooLarge(ValueError):
    """Statevector path asked to simulate beyond its size cap."""


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


class TapeOracle:
    """Nonnegative integer tape with query charging.

    Search subroutines see the derived bit (value > 0, minus excluded
    positions); counting sees the aggregate value.  Methods prefixed with an
    underscore inspect the tape without charging: they exist so sampled modes
    can draw outcomes from the correct distributions, and are never used to
    shortcut an algorithm's decisions.
    """

    def __init__(self, values, ledger: QueryLedger, target: str = "x"):
        self.values = np.asarray(values, dtype=np.int64)
        if self.values.ndim != 1:
            raise ValueError("tape must be one-dimensional")
        self.ledger = ledger
        self.target = target

    @property
    def n(self) -> int:
        return int(self.values.size)

    def window(self, lo: int, hi: int) -> "TapeOracle":
        """Sub-range view sharing the ledger; indices become window-local."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError(f"window [{lo}, {hi}) out of range")
        return TapeOracle(self.values[lo:hi], self.ledger, self.target)

    def charge(self, count: int, tag: str) -> None:
        self.ledger.charge(self.target, tag, count)

    def read_value(self, i: int, tag: str = TAG_CLASSICAL) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"tape index {i} out of range")
        self.ledger.charge(self.target, tag, 1)
        return int(self.values[i])

    def read_bit(self, i: int, exclude=frozenset(), tag: str = TAG_GROVER) -> int:
        v = self.read_value(i, tag)
        return int(v > 0 and i not in exclude)

    # -- uncharged simulation internals --

    def _bits(self, exclude=frozenset()) -> np.ndarray:
        bits = self.values > 0
        if exclude:
            bits = bits.copy()
            bits[list(exclude)] = False
        return bits

    def _total(self) -> int:
        return int(self.values.sum())


@dataclass(frozen=True)
class SearchOutcome:
    found: int | None
    queries_charged: int


@dataclass(frozen=True)
class CollectResult:
    found: tuple[int, ...]      # discovery order
    searches: int


def grover_schedule(n: int, w: int) -> tuple[int, float]:
    """Known-weight iteration count and success probability.

    theta = arcsin(sqrt(w/n)), k = floor(pi / (4 theta)), p = sin^2((2k+1) theta).
    """
    if n < 1:
        raise ValueError("range must be nonempty")
    if w == 0:
        raise WeightZero("schedule undefined for weight 0")
    if not 0 < w <= n:
        raise ValueError(f"weight {w} out of range [1, {n}]")
    theta = math.asin(math.sqrt(w / n))
    k = int(math.pi / (4 * theta))
    p = math.sin((2 * k + 1) * theta) ** 2
    return k, p


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
        state = np.where(bits, -state, state)     # oracle sign flip
        state = 2.0 * u * (u @ state) - state     # inversion about the mean
        norm = float(state @ state)
        if abs(norm - 1.0) > 1e-12:
            raise AssertionError(f"statevector norm drifted: {norm}")
    return state**2


def _sample_measurement(bits, ones, rest, j: int, mode: str, rng: np.random.Generator) -> int:
    """Measured index after j iterations on the bit tape `bits` (1-positions
    `ones`, 0-positions `rest`), drawn from the exact distribution."""
    n = bits.size
    if mode == MODE_SV:
        pmf = sv_run_grover(bits, j)
        return int(rng.choice(n, p=pmf / pmf.sum()))
    w = int(ones.size)
    if w == 0:
        p = 0.0
    else:
        theta = math.asin(math.sqrt(w / n))
        p = math.sin((2 * j + 1) * theta) ** 2
    # the iterate keeps the state in span{uniform over ones, uniform over rest},
    # so conditioned on hit/miss the measured index is uniform in its class
    if rng.random() < p:
        return int(ones[rng.integers(0, w)])
    if rest.size == 0:
        return int(ones[rng.integers(0, w)])
    return int(rest[rng.integers(0, rest.size)])


def grover_search(oracle: TapeOracle, mode: str, rng: np.random.Generator,
                  exclude=frozenset()) -> SearchOutcome:
    """One search for a 1-position of the derived bit tape, of unknown weight.

    Iteration caps grow by 6/5 per attempt up to sqrt(n), the attempt count j
    is drawn uniformly below the cap, and the whole search is cut off after
    RETRY_BUDGET_FACTOR * ceil(sqrt(n)) charged queries, after which
    NoSolution is reported (found = None).

    Exact mode follows the identical control flow and charges, but if the
    sampled path ends empty-handed while a 1-position exists, a uniformly
    random valid position is returned anyway.
    """
    _check_mode(mode)
    n = oracle.n
    if n < 1:
        raise ValueError("range must be nonempty")
    bits = oracle._bits(exclude)   # fixed for the whole search
    ones = np.flatnonzero(bits)
    rest = np.flatnonzero(~bits)
    budget = RETRY_BUDGET_FACTOR * math.ceil(math.sqrt(n))
    charged = 0
    found = None
    cap = 1.0
    while charged < budget:
        j = int(rng.integers(0, max(1, math.ceil(cap))))
        cap = min(cap * CAP_GROWTH, math.sqrt(n))
        oracle.charge(j, TAG_GROVER)
        idx = _sample_measurement(bits, ones, rest, j, mode, rng)
        bit = oracle.read_bit(idx, exclude, TAG_GROVER)   # verification query
        charged += j + 1
        if bit:
            found = idx
            break
    if found is None and mode == MODE_EXACT and ones.size:
        found = int(ones[rng.integers(0, ones.size)])
    return SearchOutcome(found=found, queries_charged=charged)


def collect_ones(oracle: TapeOracle, mode: str, rng: np.random.Generator) -> CollectResult:
    """Repeated search with found positions masked out, until a search reports
    NoSolution.  In exact mode the result is exactly the support of the derived
    bit tape.
    """
    _check_mode(mode)
    found: list[int] = []
    # each found position is cleared on one private copy of the tape, which the
    # searches read and charge like the original
    live = TapeOracle(oracle.values.copy(), oracle.ledger, oracle.target)
    searches = 0
    while True:
        out = grover_search(live, mode, rng)
        searches += 1
        if out.found is None:
            return CollectResult(found=tuple(found), searches=searches)
        found.append(out.found)
        live.values[out.found] = 0


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


def counting_window(n: int, w: int, M: int) -> float:
    """Absolute error within which the estimate lands with mass >= 8/pi^2."""
    return 2 * math.pi * math.sqrt(w * (n - w)) / M + math.pi**2 * n / M**2


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
        state = np.where(bits, -state, state)
        state = 2.0 * u * (u @ state) - state
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
    cdf.flags.writeable = False   # cached laws are shared by every caller
    return cdf


@functools.lru_cache(maxsize=4096)
def _estimate_cdf(a: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    pmf = ae_outcome_pmf(a, M)
    pmf.values.flags.writeable = False
    return pmf.values, _choice_cdf(pmf.probs)


def count_median(oracle: TapeOracle, M: int, reps: int, mode: str,
                 rng: np.random.Generator) -> float:
    """Median of reps estimates of the tape's aggregate value (odd reps; charges M*reps).

    The estimate law is got once per call, cached by (fraction, M) in cost-model
    mode; one rng.random(reps) mapped through its cdf gives the draws and stream
    state of reps rng.choice calls.  The aggregate is a mark fraction total/n
    saturating at 1: an estimate is at most n, which only speeds up threshold stops.
    """
    _check_mode(mode)
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be odd and positive")
    if M < 1:
        raise ValueError("M must be positive")
    if mode == MODE_SV:   # drawn over the unfolded y grid; sv_count_pmf caps n*M
        if (oracle.values > 1).any():
            raise ValueError("statevector counting supports bit tapes only")
        values = np.array([math.sin(math.pi * min(y, M - y) / M) ** 2 for y in range(M)])
        cdf = _choice_cdf(sv_count_pmf(oracle.values > 0, M))
    oracle.charge(M * reps, TAG_COUNTING)
    total = oracle._total()
    if mode == MODE_EXACT:
        return float(total)
    if mode == MODE_COST:
        values, cdf = _estimate_cdf(min(1.0, total / oracle.n), M)
    ws = np.sort(oracle.n * values[cdf.searchsorted(rng.random(reps), side="right")])
    return float(ws[reps // 2])
