"""Parameter sweeps over (N, t, S), scaling fits, and report serialization.

A sweep runs the quantum algorithm (in any execution mode) and the classical
baseline over a grid of problem sizes, one deterministic instance per seed,
and records one row per completed run.  Reports are byte-stable: rows are
sorted, floats never appear, and both CSV and JSON use fixed layouts.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, SeededRng
from .linsys import (CLASSICAL_MODE, MatrixProductResult, bounded_matrix_product,
                     classical_bounded_product)
from .qsim import MODES, check_reps

RUN_MODES = MODES + (CLASSICAL_MODE,)

# (report key, SweepRow field) in CSV column order; JSON adds the derived "regime"
REPORT_COLUMNS = (("N", "n"), ("t", "t"), ("S", "s"), ("mode", "mode"), ("seed", "seed"),
                  ("T", "total_queries"), ("queries_x", "queries_x"),
                  ("queries_b", "queries_b"), ("space", "space"), ("correct", "correct"))
CSV_HEADER = ",".join(key for key, _ in REPORT_COLUMNS)

REGULAR_ROW_NNZ = 12  # nonzeros per row of the row-regular family
CONFIG_KEYS = ("N", "t", "S", "modes", "seeds", "family", "reps", "out")


def instance_regular(rng: np.random.Generator, n: int, t: int) -> ProblemInstance:
    """Row-regular Boolean matrix, value-carrying x, varied bounds.

    Row u is the support rng.choice(n, nnz, replace=False) draws in a per-row
    loop, all rows from one integers call.  choice draws integers(0, j + 1) for
    j = n - nnz .. n - 1 (Floyd's sample: j is taken when the value is already
    in it), then integers(0, i + 1) for i = nnz - 1 .. 1 (a shuffle, which only
    reorders the row).  A broadcast int64 integers call draws each element, in
    row-major order, by the same bounded routine, rejections included, and a
    range of 1 draws nothing.
    """
    A = np.zeros((n, n), dtype=np.int64)
    nnz = min(REGULAR_ROW_NNZ, n)
    highs = np.array([*range(n - nnz + 1, n + 1), *range(nnz, 1, -1)], dtype=np.int64)
    values, rows = rng.integers(0, np.broadcast_to(highs, (n, highs.size))), np.arange(n)
    for j, v in zip(range(n - nnz, n), values.T):
        A[rows, np.where(A[rows, v] == 1, j, v)] = 1   # A's rows are Floyd's sets
    x = rng.integers(0, t + 1, size=n, dtype=np.int64)
    b = rng.integers(1, t + 1, size=n, dtype=np.int64)
    return ProblemInstance(A=A, x=x, b=b, t=t)


def instance_hover_sqrt(rng: np.random.Generator, n: int, t: int) -> ProblemInstance:
    """Dense Bernoulli matrix with a sqrt(N)-sparse Boolean x; scaling family."""
    A = (rng.random((n, n)) < 0.5).astype(np.int64)
    ones = min(n, math.isqrt(max(0, n - 1)) + 1)
    x = np.zeros(n, dtype=np.int64)
    x[rng.choice(n, size=ones, replace=False)] = 1
    b = np.full(n, t, dtype=np.int64)
    return ProblemInstance(A=A, x=x, b=b, t=t)


def instance_uniform(rng: np.random.Generator, n: int, t: int) -> ProblemInstance:
    """Bernoulli(1/2) Boolean matrix with uniform x and bounds."""
    A = (rng.random((n, n)) < 0.5).astype(np.int64)
    x = rng.integers(0, t + 1, size=n, dtype=np.int64)
    b = rng.integers(1, t + 1, size=n, dtype=np.int64)
    return ProblemInstance(A=A, x=x, b=b, t=t)


def instance_zero(rng: np.random.Generator, n: int, t: int) -> ProblemInstance:
    """Empty matrix and input; the cheapest possible run."""
    return ProblemInstance(A=np.zeros((n, n), dtype=np.int64),
                           x=np.zeros(n, dtype=np.int64),
                           b=np.ones(n, dtype=np.int64), t=t)


FAMILIES = {
    "regular": instance_regular,
    "hover-sqrt": instance_hover_sqrt,
    "uniform": instance_uniform,
    "zero": instance_zero,
}


@dataclass(frozen=True)
class SpaceRule:
    """Space budget per cell: a fixed byte count or a fraction of N/t."""

    kind: str     # "absolute" | "nt-fraction"
    value: float

    def __post_init__(self):
        if self.kind not in ("absolute", "nt-fraction"):
            raise ValueError(f"unknown space rule kind {self.kind!r}")
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"space rule value {self.value} must be finite and > 0")
        if self.kind == "absolute" and self.value != int(self.value):
            raise ValueError(f"absolute space budget {self.value} must be a whole number")

    def budget(self, n: int, t: int) -> int:
        if self.kind == "absolute":
            return int(self.value)
        return max(1, int(self.value * n / t))


def _whole(key: str, value) -> int:
    """A whole-number config or report value; a fraction or a JSON true is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"key {key!r} takes whole numbers, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...]
    t_values: tuple[int, ...]
    space_rule: SpaceRule
    modes: tuple[str, ...]
    seeds: int
    family: str = "regular"
    reps: int | None = None
    out: str | None = None   # report path, used when the command line gives none

    def __post_init__(self):
        for mode in self.modes:
            if mode not in RUN_MODES:
                raise ValueError(f"unknown mode {mode!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.seeds < 0:
            raise ValueError("seeds must be nonnegative")
        if self.reps is not None:
            object.__setattr__(self, "reps", check_reps(self.reps))
        for n in self.n_values:
            if n < 1:
                raise ValueError("N values must be positive")
        for t in self.t_values:
            if t < 1:
                raise ValueError("t values must be positive")
        # a repeated entry would run its cells twice and weight the report's medians
        for key, values in (("N", self.n_values), ("t", self.t_values), ("modes", self.modes)):
            if len(set(values)) < len(values):
                raise ValueError(f"config key {key!r} repeats an entry: {list(values)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        """The sweep config as documented in README.md.

        `N`, `t`, `S`, `modes` and `seeds` are required, `N`, `t` and `modes`
        as lists; `S` is a number or {"kind": ..., "value": ...}; `family`,
        `reps` and `out` are optional.  Any other key, and a repeated entry
        of `N`, `t` or `modes`, is refused.
        """
        if not isinstance(raw, dict):
            raise ValueError("sweep config must be a JSON object")
        for key in raw:
            if key not in CONFIG_KEYS:
                raise ValueError(f"sweep config has unknown key {key!r}; keys are {' '.join(CONFIG_KEYS)}")
        for key in ("N", "t", "S", "modes", "seeds"):
            if key not in raw:
                raise ValueError(f"sweep config is missing key {key!r}")
        for key in ("N", "t", "modes"):   # a string would be read letter by letter
            if not isinstance(raw[key], list):
                raise ValueError(f"config key {key!r} takes a list, not {raw[key]!r}")
        out = raw.get("out")
        if out is not None and not (isinstance(out, str) and out):
            raise ValueError(f"config key 'out' takes a non-empty path, not {out!r}")
        rule = raw["S"]
        if isinstance(rule, (int, float)):
            rule = {"kind": "absolute", "value": rule}
        # a JSON true would pass as the number 1
        if (not (isinstance(rule, dict) and set(rule) == {"kind", "value"})
                or isinstance(rule["value"], bool)):
            raise ValueError("config key 'S' must be a number or {kind, value}")
        try:
            return cls(n_values=tuple(_whole("N", v) for v in raw["N"]),
                       t_values=tuple(_whole("t", v) for v in raw["t"]),
                       space_rule=SpaceRule(kind=str(rule["kind"]),
                                            value=float(rule["value"])),
                       modes=tuple(str(m) for m in raw["modes"]),
                       seeds=_whole("seeds", raw["seeds"]),
                       family=str(raw.get("family", "regular")),
                       reps=None if raw.get("reps") is None else _whole("reps", raw["reps"]),
                       out=out)
        except TypeError as exc:   # e.g. a list as the value of S
            raise ValueError(f"malformed sweep config: {exc}") from exc


@dataclass(frozen=True)
class SweepRow:
    n: int
    t: int
    s: int
    mode: str
    seed: int
    total_queries: int
    queries_x: int
    queries_b: int
    space: int
    correct: bool

    @property
    def regime(self) -> str:
        return regime_label(self.n, self.t, self.s)

    def sort_key(self):
        return (self.n, self.t, self.s, self.mode, self.seed)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    errors: tuple[str, ...]


def regime_label(n: int, t: int, S: int) -> str:
    """Quantum when S <= N/t, else classical."""
    return "classical" if S > n / t else "quantum"


def run_product(instance: ProblemInstance, S: int, mode: str, rng: SeededRng,
                reps: int | None = None) -> MatrixProductResult:
    """The classical baseline (which draws nothing), or the quantum product in `mode`."""
    if mode == CLASSICAL_MODE:
        return classical_bounded_product(instance, S)
    return bounded_matrix_product(instance, S, mode, rng.stream, reps=reps)


def run_cell(family: str, n: int, t: int, S: int, mode: str, seed: int,
             reps: int | None = None) -> SweepRow:
    """One deterministic run; the instance and the run stream derive from seed."""
    root = SeededRng(seed)
    inst = FAMILIES[family](root.spawn("instance", family, n, t).stream, n, t)
    res = run_product(inst, S, mode, root.spawn("run", mode, n, t, S), reps)
    ledger = res.ledger
    return SweepRow(n=n, t=t, s=S, mode=mode, seed=seed,
                    total_queries=ledger.total, queries_x=ledger.queries_x,
                    queries_b=ledger.queries_b, space=ledger.space_high_water,
                    correct=res.correct)


def run_sweep(config: SweepConfig) -> SweepResult:
    rows: list[SweepRow] = []
    errors: list[str] = []
    for n in config.n_values:
        for t in config.t_values:
            S = config.space_rule.budget(n, t)
            for mode in config.modes:
                for seed in range(config.seeds):
                    try:
                        rows.append(run_cell(config.family, n, t, S, mode,
                                             seed, config.reps))
                    except Exception as exc:  # cell failures never stop the sweep
                        errors.append(f"N={n} t={t} S={S} mode={mode} "
                                      f"seed={seed}: {exc}")
    rows.sort(key=SweepRow.sort_key)
    return SweepResult(rows=tuple(rows), errors=tuple(errors))


# ---------------------------------------------------------------------------
# scaling fits

_AXES = {"N": "n", "t": "t", "S": "s"}


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    halfwidth: float      # 2 standard errors of the fitted slope
    points: tuple[tuple[float, float], ...]   # (axis value, median T)


def fit_scaling(rows, axis: str) -> ScalingFit:
    """Least-squares slope of log2(median T) against log2(axis value); every median T must be positive."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}")
    attr = _AXES[axis]
    groups: dict[int, list[int]] = {}
    for row in rows:
        groups.setdefault(getattr(row, attr), []).append(row.total_queries)
    if len(groups) < 3:
        raise ValueError("need at least 3 distinct axis values")
    pts = sorted((float(v), float(np.median(ts))) for v, ts in groups.items())
    for v, median in pts:
        if median <= 0:   # T = 0 is a legal row, but has no logarithm
            raise ValueError(f"median T is {median:g} at {axis}={v:g}")
    xs = np.log2([p[0] for p in pts])
    ys = np.log2([p[1] for p in pts])
    xm, ym = xs.mean(), ys.mean()
    sxx = float(((xs - xm) ** 2).sum())
    slope = float(((xs - xm) * (ys - ym)).sum() / sxx)
    resid = ys - (ym + slope * (xs - xm))
    dof = len(pts) - 2
    stderr = math.sqrt(float((resid**2).sum()) / dof / sxx) if dof > 0 else 0.0
    return ScalingFit(exponent=slope, halfwidth=2 * stderr,
                      points=tuple(pts))


# ---------------------------------------------------------------------------
# reports

def render_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        cells = (getattr(row, field) for _, field in REPORT_COLUMNS)
        lines.append(",".join(json.dumps(c) if isinstance(c, bool) else str(c) for c in cells))
    return "\n".join(lines) + "\n"


def render_json(rows) -> str:
    raw = [{**{key: getattr(row, field) for key, field in REPORT_COLUMNS},
            "regime": row.regime} for row in rows]
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def _row_from(raw) -> SweepRow:
    """One report row from its key -> value object, every value checked, none coerced.

    The stored "regime" is not read: it follows from N, t and S.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"report row must be an object, not {raw!r}")
    fields = {}
    for key, field in REPORT_COLUMNS:
        if key not in raw:
            raise ValueError(f"report row is missing key {key!r}")
        value = raw[key]
        if key == "mode":
            if value not in RUN_MODES:
                raise ValueError(f"report key 'mode' takes one of {RUN_MODES}, not {value!r}")
        elif key == "correct":
            if not isinstance(value, bool):
                raise ValueError(f"report key 'correct' takes true or false, not {value!r}")
        else:
            value = _whole(key, value)
            low = 1 if key in ("N", "t", "S") else 0
            if value < low:
                raise ValueError(f"report key {key!r} takes values >= {low}, not {value}")
        fields[field] = value
    return SweepRow(**fields)


def rows_from_json(text: str) -> tuple[SweepRow, ...]:
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("a JSON report must be a list of rows")
    return tuple(_row_from(r) for r in raw)


def _csv_cell(key: str, text: str):
    """A CSV cell as the JSON value it spells; mode is the one bare string."""
    if key == "mode":
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(f"report key {key!r} has unreadable value {text!r}") from None


def rows_from_csv(text: str) -> tuple[SweepRow, ...]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized report header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(REPORT_COLUMNS):
            raise ValueError(f"bad report line: {ln!r}")
        out.append(_row_from({key: _csv_cell(key, cell)
                              for (key, _), cell in zip(REPORT_COLUMNS, parts)}))
    return tuple(out)


def emit_report(rows, fmt: str, path: str) -> None:
    if fmt == "csv":
        text = render_csv(rows)
    elif fmt == "json":
        text = render_json(rows)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
