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
from .linsys import CLASSICAL_MODE, bounded_matrix_product, classical_bounded_product
from .qsim import MODES

RUN_MODES = MODES + (CLASSICAL_MODE,)

CSV_HEADER = "N,t,S,mode,seed,T,queries_x,queries_b,space,correct"

REGULAR_ROW_NNZ = 12  # nonzeros per row of the row-regular family


def instance_regular(rng: np.random.Generator, n: int, t: int) -> ProblemInstance:
    """Row-regular Boolean matrix, value-carrying x, varied bounds."""
    A = np.zeros((n, n), dtype=np.int64)
    nnz = min(REGULAR_ROW_NNZ, n)
    for u in range(n):
        A[u, rng.choice(n, size=nnz, replace=False)] = 1
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

    def budget(self, n: int, t: int) -> int:
        if self.kind == "absolute":
            return max(1, int(self.value))
        return max(1, int(self.value * n / t))


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...]
    t_values: tuple[int, ...]
    space_rule: SpaceRule
    modes: tuple[str, ...]
    seeds: int
    family: str = "regular"
    reps: int | None = None

    def __post_init__(self):
        for mode in self.modes:
            if mode not in RUN_MODES:
                raise ValueError(f"unknown mode {mode!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.seeds < 0:
            raise ValueError("seeds must be nonnegative")
        if self.reps is not None and (self.reps < 1 or self.reps % 2 == 0):
            raise ValueError("reps must be odd and positive")
        for n in self.n_values:
            if n < 1:
                raise ValueError("N values must be positive")
        for t in self.t_values:
            if t < 1:
                raise ValueError("t values must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        """The sweep config as documented in README.md.

        `N`, `t`, `S`, `modes` and `seeds` are required; `S` is a number or
        {"kind": ..., "value": ...}; `family` and `reps` are optional.
        """
        if not isinstance(raw, dict):
            raise ValueError("sweep config must be a JSON object")
        for key in ("N", "t", "S", "modes", "seeds"):
            if key not in raw:
                raise ValueError(f"sweep config is missing key {key!r}")
        rule = raw["S"]
        if isinstance(rule, (int, float)):
            rule = {"kind": "absolute", "value": rule}
        if not (isinstance(rule, dict) and {"kind", "value"} <= set(rule)):
            raise ValueError("config key 'S' must be a number or {kind, value}")
        try:
            return cls(n_values=tuple(int(v) for v in raw["N"]),
                       t_values=tuple(int(v) for v in raw["t"]),
                       space_rule=SpaceRule(kind=str(rule["kind"]),
                                            value=float(rule["value"])),
                       modes=tuple(str(m) for m in raw["modes"]),
                       seeds=int(raw["seeds"]),
                       family=str(raw.get("family", "regular")),
                       reps=None if raw.get("reps") is None else int(raw["reps"]))
        except TypeError as exc:   # e.g. a number where a list belongs
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


def run_cell(family: str, n: int, t: int, S: int, mode: str, seed: int,
             reps: int | None = None) -> SweepRow:
    """One deterministic run; the instance and the run stream derive from seed."""
    root = SeededRng(seed)
    inst = FAMILIES[family](root.spawn("instance", family, n, t).stream, n, t)
    if mode == CLASSICAL_MODE:
        res = classical_bounded_product(inst, S)
    else:
        res = bounded_matrix_product(inst, S, mode,
                                     root.spawn("run", mode, n, t, S).stream,
                                     reps=reps)
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
    """Least-squares slope of log2(median T) against log2(axis value)."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}")
    attr = _AXES[axis]
    groups: dict[int, list[int]] = {}
    for row in rows:
        groups.setdefault(getattr(row, attr), []).append(row.total_queries)
    if len(groups) < 3:
        raise ValueError("need at least 3 distinct axis values")
    pts = sorted((float(v), float(np.median(ts))) for v, ts in groups.items())
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
        lines.append(f"{row.n},{row.t},{row.s},{row.mode},{row.seed},"
                     f"{row.total_queries},{row.queries_x},{row.queries_b},"
                     f"{row.space},{'true' if row.correct else 'false'}")
    return "\n".join(lines) + "\n"


def _row_dict(row: SweepRow) -> dict:
    return {"N": row.n, "t": row.t, "S": row.s, "mode": row.mode,
            "seed": row.seed, "T": row.total_queries,
            "queries_x": row.queries_x, "queries_b": row.queries_b,
            "space": row.space, "correct": row.correct, "regime": row.regime}


def render_json(rows) -> str:
    return json.dumps([_row_dict(r) for r in rows], indent=2,
                      sort_keys=True) + "\n"


def rows_from_json(text: str) -> tuple[SweepRow, ...]:
    out = []
    for raw in json.loads(text):
        out.append(SweepRow(n=int(raw["N"]), t=int(raw["t"]), s=int(raw["S"]),
                            mode=str(raw["mode"]), seed=int(raw["seed"]),
                            total_queries=int(raw["T"]),
                            queries_x=int(raw["queries_x"]),
                            queries_b=int(raw["queries_b"]),
                            space=int(raw["space"]),
                            correct=bool(raw["correct"])))
    return tuple(out)


def rows_from_csv(text: str) -> tuple[SweepRow, ...]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized report header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            raise ValueError(f"bad report line: {ln!r}")
        out.append(SweepRow(n=int(parts[0]), t=int(parts[1]), s=int(parts[2]),
                            mode=parts[3], seed=int(parts[4]),
                            total_queries=int(parts[5]),
                            queries_x=int(parts[6]), queries_b=int(parts[7]),
                            space=int(parts[8]), correct=parts[9] == "true"))
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
