"""The four workloads: op lists from the workload seed, the timed calls, the checks.

An op is one call as listed in README.md.  Per-op seeds derive from the
workload seed through SeededRng.spawn, so one seed always gives the same ops.
Pass 0 is the reference pass: its output rows are hashed and compared with
the digests frozen in reference.json.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from ineqlab import polylab, subspace, sweep

from harness import Outcome, Workload

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SAMPLED_PASS = 4       # ops per pass
EXACT_PASS = 4
EXACT_N = 256          # at N = 512 a run holds too few ops for a steady median
# (n, k) with t = 2, in one pass of 30 ops.  One pass is enough: the 7 s
# (6, 2) cell alone takes most of it.  Each k = 1 cell runs six times, (4, 2)
# eight times and (5, 2) three times.  So the median op (rank 15) falls inside
# the cluster of 18 k = 1 suites and the tail (rank 20, ten ops beyond it)
# inside the cluster of eight (4, 2) suites, while the k = 2 suites keep most
# of the time.
SUBSPACE_CELLS = ((4, 1), (5, 1), (6, 1)) * 6 + ((4, 2),) * 8 + ((5, 2),) * 3 + ((6, 2),)
# (D, N, m): many-row tableaux (small D), many-column ones (large D), and the
# D < m corner, which returns before any simplex call.  Neighbouring cells
# differ in time by at least 1.5x here, so the median op (the fourth cell) and
# a tail over four passes (the fifth cell) each sit inside one cell's cluster.
LP_CELLS = (
    (2, 32, 3), (2, 32, 2), (24, 32, 2), (4, 48, 3),
    (2, 48, 1), (4, 48, 1), (20, 48, 2),
)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(rows) -> str:
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def _row_line(seed: int, row) -> str:
    return (f"{seed},{row.total_queries},{row.queries_x},{row.queries_b},"
            f"{row.space},{'true' if row.correct else 'false'}")


def _check_product(seed, rows) -> Outcome:
    bad = [r.mode for r in rows if not r.correct]
    return Outcome(ok=not bad,
                   rows=tuple(_row_line(seed, r) for r in rows),
                   queries=sum(r.total_queries for r in rows),
                   space_bits=max(r.space for r in rows),
                   note=f"incorrect product in mode {', '.join(bad)}" if bad else "")


def _seeds(name: str, size: int):
    return lambda root, p: [root.spawn(name, p, i).seed for i in range(size)]


def _sampled_call(seed):
    return (sweep.run_cell("regular", 128, 2, 32, "cost-model", seed),)


def _exact_call(seed):
    return (sweep.run_cell("hover-sqrt", EXACT_N, 2, 16, "exact", seed, 5),
            sweep.run_cell("hover-sqrt", EXACT_N, 2, 16, "classical", seed))


def _subspace_pass(root, p):
    order = root.spawn("subspace-suite", p).stream.permutation(len(SUBSPACE_CELLS))
    return [(*SUBSPACE_CELLS[i], root.spawn("subspace-suite", p, i).seed) for i in order]


def _subspace_call(op):
    n, k, seed = op
    return subspace.verify_suite(n, 2, k, seed, runs=9, depth=3)


def _subspace_check(op, lines) -> Outcome:
    failed = [line.name for line in lines if not line.passed]
    text = json.dumps([line.to_dict() for line in lines])
    return Outcome(ok=not failed, rows=(text,),
                   note=f"FAIL lines at (n, k) = {op[:2]}: {failed}" if failed else "")


def _lp_pass(root, p):
    order = root.spawn("poly-lp", p).stream.permutation(len(LP_CELLS))
    return [LP_CELLS[i] for i in order]


def _lp_call(cell):
    lp = polylab.extremal_sigma_lp(*cell)
    return lp, polylab.witness_integer_values(lp)


def make_lp_check(frozen_sigma: dict):
    def check(cell, result) -> Outcome:
        lp, values = result
        want = frozen_sigma.get(",".join(map(str, cell)))
        problems = []
        if want is None or lp.sigma != Fraction(want):
            problems.append(f"sigma {lp.sigma} differs from frozen {want}")
        outside = [v for v in values if not 0 <= v <= 1]
        if outside:
            problems.append(f"{len(outside)} witness values outside [0, 1]")
        return Outcome(ok=not problems, rows=(f"{','.join(map(str, cell))},{lp.sigma}",),
                       note="; ".join(problems))
    return check


def build_workloads(reference: dict) -> dict[str, Workload]:
    """The workloads by name; BENCHMARK.json and README.md say why each exists."""
    items = [
        Workload("product-sampled", _seeds("product-sampled", SAMPLED_PASS), _sampled_call,
                 _check_product, min_passes=6),
        Workload("product-exact", _seeds("product-exact", EXACT_PASS), _exact_call,
                 _check_product, min_passes=6),
        Workload("subspace-suite", _subspace_pass, _subspace_call, _subspace_check,
                 min_passes=1, speed_unit="mixed"),
        Workload("poly-lp", _lp_pass, _lp_call, make_lp_check(reference["sigma"]),
                 min_passes=4),
    ]
    return {w.name: w for w in items}
