"""Write bench/reference.json: the frozen correctness references of the benchmark.

    python3 bench/freeze.py

Records the exact sigma of every poly-lp cell and the pass-0 digest of every
workload at the default and the held-out seed.  Run it only at a commit whose
outputs are trusted; a later change that alters an output on purpose re-freezes
and says why.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import pin_threads, run_pass  # this script's directory is first on sys.path

pin_threads()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ineqlab import polylab  # noqa: E402
from ineqlab.core import SeededRng  # noqa: E402
from workloads import LP_CELLS, REFERENCE_PATH, build_workloads, digest  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


def main() -> int:
    sigma = {",".join(map(str, cell)): str(polylab.extremal_sigma_lp(*cell).sigma)
             for cell in LP_CELLS}
    reference = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
                 "sigma": sigma, "digests": {}}
    for name, workload in build_workloads(reference).items():
        reference["digests"][name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            records = run_pass(workload, workload.make_pass(SeededRng(seed), 0), 0)
            for r in records:
                if not r.outcome.ok:
                    raise SystemExit(f"{name} seed {seed} op {r.op} failed: {r.outcome.note}")
            reference["digests"][name][str(seed)] = digest(
                [row for r in records for row in r.outcome.rows])
            print(f"{name} seed {seed}: {reference['digests'][name][str(seed)]}", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
