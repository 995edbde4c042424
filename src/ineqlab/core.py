"""Problem instances, oracle access with query accounting, and exact reference results.

A problem instance is a nonnegative integer matrix A (N x N), an input vector x,
a threshold vector b with b_i <= t, and the entry bound t.  The reference
result everything else is measured against:

    matvec_min:      y_i = min((Ax)_i, b_i)      (entrywise clamped product)

Queries to x and b are the complexity measure.  Every read goes through a
QueryLedger which tracks totals per target and per subroutine tag, plus a
space high-water mark in bits.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np

INT64_MAX = 2**63 - 1

# subroutine tags used across the package
TAG_GROVER = "grover"
TAG_COUNTING = "counting"
TAG_CLASSICAL = "classical-read"


class InstanceError(ValueError):
    """Raised when instance data violates the contract."""


def _worst(*excesses: float) -> float:
    """The largest excess, or NaN if any is NaN: Python's max drops a NaN that
    follows a number, and a NaN excess must fail its line."""
    return math.nan if any(math.isnan(v) for v in excesses) else max(excesses)


def log2_ceil(v: int) -> int:
    """Bits needed to index v distinct values, at least 1."""
    if v <= 1:
        return 1
    return (v - 1).bit_length()


def value_bits(v: int) -> int:
    """Bits needed to store an integer in [0, v]."""
    if v <= 0:
        return 1
    return v.bit_length()


@dataclass
class SeededRng:
    """Deterministic random stream; identical seeds give identical transcripts."""

    seed: int
    stream: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        # spawn feeds the seed to SeedSequence as one uint32 word
        if not 0 <= self.seed < 2**32:
            raise ValueError(f"seed {self.seed} outside [0, 2^32)")
        self.stream = np.random.default_rng(self.seed)

    def spawn(self, *key) -> "SeededRng":
        """Child stream derived from the seed and a key path (ints or strings).

        An int in [0, 2^32) is its own word.  Any other int is hashed as a
        string is, under a 0xFF prefix that no UTF-8 string begins with, so
        -1 and "-1" differ and no int aliases its residue mod 2^32.
        """
        parts = []
        for part in key:
            if isinstance(part, (int, np.integer)):
                part = int(part)
                if 0 <= part < 2**32:
                    parts.append(part)
                    continue
                data = b"\xff" + str(part).encode("ascii")
            else:
                data = str(part).encode("utf-8")
            parts.append(int.from_bytes(hashlib.sha256(data).digest()[:4], "big"))
        seq = np.random.SeedSequence([self.seed, *parts])
        return SeededRng(int(seq.generate_state(1)[0]))


@dataclass
class QueryLedger:
    """Monotone query counters split by target (x or b) and subroutine tag."""

    queries_x: int = 0
    queries_b: int = 0
    by_subroutine: dict[str, int] = field(default_factory=dict)
    space_high_water: int = 0

    def charge(self, target: str, tag: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("charge must be nonnegative")
        if target == "x":
            self.queries_x += count
        elif target == "b":
            self.queries_b += count
        else:
            raise ValueError(f"unknown query target {target!r}")
        self.by_subroutine[tag] = self.by_subroutine.get(tag, 0) + count

    def record_space(self, bits: int) -> None:
        if bits > self.space_high_water:
            self.space_high_water = bits

    @property
    def total(self) -> int:
        return self.queries_x + self.queries_b


@dataclass(frozen=True)
class CheckLine:
    """One named verification result, as printed by the verify CLIs."""

    name: str
    passed: bool
    residual: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


def report_line(name: str, value: float, detail: str) -> CheckLine:
    """A line that reports a value against no bound: it fails only when the value is NaN."""
    return CheckLine(name, not math.isnan(value), value, detail)


def whole_number(value, name: str, error: type[ValueError] = InstanceError) -> int:
    """value as a Python int, refused with error unless an int or numpy integer (a bool or float is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be a whole number, not {value!r}")
    return int(value)


def _int64_array(values, name: str) -> np.ndarray:
    """values as int64: a dtype that casts safely takes no extra pass, any other must hold whole numbers in range."""
    arr = np.asarray(values)
    if np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):   # a float out of range casts to garbage, which the check refuses
            ints = arr.astype(np.int64)
    except (OverflowError, TypeError, ValueError):   # an int past 64 bits, or an entry int() refuses
        ints = None
    if ints is None or not (ints == arr).all():
        raise InstanceError(f"{name} entries must be whole numbers that fit 64-bit integers")
    return ints


@dataclass(frozen=True)
class ProblemInstance:
    """Validated instance of the clamped matrix-vector product problem."""

    A: np.ndarray
    x: np.ndarray
    b: np.ndarray
    t: int

    def __post_init__(self):
        A, x, b = _int64_array(self.A, "A"), _int64_array(self.x, "x"), _int64_array(self.b, "b")
        t = int(self.t) if isinstance(self.t, (float, np.floating)) and self.t.is_integer() else self.t
        for name, value in (("A", A), ("x", x), ("b", b), ("t", whole_number(t, "t"))):
            object.__setattr__(self, name, value)
        n = A.shape[0] if A.ndim == 2 else 0
        if A.ndim != 2 or A.shape != (n, n) or n < 1:
            raise InstanceError("A must be a square N x N matrix with N >= 1")
        if x.shape != (n,) or b.shape != (n,):
            raise InstanceError("x and b must be length-N vectors")
        if self.t < 1:
            raise InstanceError("t must be >= 1")
        if (A < 0).any() or (x < 0).any() or (b < 0).any():
            raise InstanceError("entries must be nonnegative")
        if (x > self.t).any():
            raise InstanceError("x entries must be <= t")
        if (b > self.t).any():
            raise InstanceError("b entries must be <= t")
        # overflow of Ax is rejected up front: accept at once when the bound
        # n * max(A) * max(x) fits, else take the row sums in unbounded ints
        if n * int(A.max()) * int(x.max()) > INT64_MAX:
            if max(A.astype(object) @ x.astype(object)) > INT64_MAX:
                raise InstanceError("Ax overflows 64-bit integers")

    @property
    def n(self) -> int:
        return int(self.A.shape[0])


def matvec_min(instance: ProblemInstance) -> np.ndarray:
    """Exact clamped product y_i = min((Ax)_i, b_i).  Query-free reference."""
    ax = instance.A @ instance.x  # validated against overflow
    return np.minimum(ax, instance.b)


# ---------------------------------------------------------------------------
# instance text format: "N t" on line 1, then N rows of A, then x, then b.

def format_instance_text(instance: ProblemInstance) -> str:
    lines = [f"{instance.n} {instance.t}"]
    for row in instance.A:
        lines.append(" ".join(str(int(v)) for v in row))
    lines.append(" ".join(str(int(v)) for v in instance.x))
    lines.append(" ".join(str(int(v)) for v in instance.b))
    return "\n".join(lines) + "\n"


def parse_instance_text(text: str) -> ProblemInstance:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise InstanceError("header must be 'N t'")
    n, t = int(rows[0][0]), int(rows[0][1])
    if len(rows) != 1 + n + 2:
        raise InstanceError(f"expected {1 + n + 2} lines, got {len(rows)}")
    try:
        a = [[int(v) for v in rows[1 + i]] for i in range(n)]
        x = [int(v) for v in rows[1 + n]]
        b = [int(v) for v in rows[2 + n]]
    except ValueError as exc:
        raise InstanceError(f"non-integer entry: {exc}") from exc
    if any(len(r) != n for r in a) or len(x) != n or len(b) != n:
        raise InstanceError("row length mismatch")
    return ProblemInstance(np.array(a), np.array(x), np.array(b), t)


def load_instance(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


def save_instance(instance: ProblemInstance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_instance_text(instance))
