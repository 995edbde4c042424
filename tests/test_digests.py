"""Frozen sha256 digests of canonical outputs at fixed seeds.

Each test drives one public command on a small fixed input and compares the
bytes it writes with a digest recorded before any refactor; the block-trace
digests hash what bounded_matrix_product returns and leaves behind instead.
A change that keeps behaviour keeps every digest; a change that means to
alter an output re-freezes the digest and says why.  Float fields (subspace residuals, LP
chain margins, Chebyshev residuals and dominance excesses, the half-full
block rates, growth-probe maxima) are hashed as printed, so the digests
assume IEEE float64 with the same numpy build.  They also assume the same
BLAS thread count from n = 6 or k = 3 on, where the products and
eigensolves are large enough for OpenBLAS to split across threads:
`subspace verify --n 6 --t 2 --k 2 --runs 3` prints a containment residual
of 1.4018e-15 on one thread and 1.2745e-15 on two.  So a digest frozen at
such a cell must pin the thread count; the subspace cells frozen in process
are (4, 2, 1) and (4, 2, 2), and the three frozen where verify_suite splits its
runs into stacks, (5, 2, 2) at 10 runs, (6, 2, 2) at 3 and (4, 2, 3) at 2, run
in a subprocess with OPENBLAS_NUM_THREADS=1.
"""
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ineqlab
from ineqlab.cli import main
from ineqlab.core import SeededRng, save_instance
from ineqlab.linsys import bounded_matrix_product
from ineqlab.polylab import cr_probe, verify_lp
from ineqlab.sweep import FAMILIES, instance_regular, run_cell, run_product


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SWEEP_DIGESTS = {
    "exact": "9b0eab65263ca2454a748767e6593c4e7dc387b1b7e7dbe70fe76eafc89105dd",
    "cost-model": "f5e55e3d62e033ba8eb5ad143f5a050e764350d99f9b81143bb5f839e9348d24",
    "statevector": "ff58595d0b89bee2b79d75440e144691d2e88b4132fc965bb52825d88f6fb5b3",
    "classical": "38c8628b5c14f0816fe5f223b024bd141f4f99d4e20aec10a37fdc35d2dc554e",
}

SOLVE_DIGESTS = {
    "exact": "88a535dfa0f878a44bc52b49868713f68a6d642c1b24686f0b346f9f1b4cc382",
    "cost-model": "17795a0bc806d1dacb7818ff15ca779061e8b41b86b0e31450deba617d8f6fc3",
}

SUBSPACE_DIGESTS = {
    1: "e74212c4e19e353336d34b6ff988db5eb53876d8dedeea84566fd403d6c4aa4c",
    2: "55c212e55c54f723d263e4cf8433337809bb72c0a3c019f1fd06393fa056d565",
}

# (n, t, k, runs) -> JSON digest on one BLAS thread: the runs split into stacks
# of 6 and 4 at (5, 2, 2), of 2 and 1 at (6, 2, 2) and of 1 and 1 at (4, 2, 3),
# the one frozen cell whose level frame orders products of three copies
SPLIT_SUBSPACE_DIGESTS = {
    (4, 2, 3, 2): "955b7c365557b892bcd788112f38583d5bb9359e6433220746d44258f28833b9",
    (5, 2, 2, 10): "46ab17b1f7b0a6f14ecbfce0a043dad30a7cec039916f29cfeb594790a375ff8",
    (6, 2, 2, 3): "b5b79a61d2344d3174d525df6ae10832c35a671ae45de5546d9bbb3f3ee2c6cb",
}

LP_ROWS_DIGEST = "9e6d3a0f626f170c51cecb33cf84375b4dafac7334b7d10291087cb2ea6a8f4d"
LP_LINES_DIGEST = "172a3b01d094802c89de016e641c5ec7f9f5ec1be99613837ff6bdab24a5f1ce"

POLY_SUITE_DIGESTS = {
    # suite: (CSV digest, stdout digest)
    "cheb": ("d11185166807d992839cdac89aa7356dc6bf7e495fb2413ca86d2b0e88d6d7ad",
             "04f8beaaaa2b180de19450758e77c80c8f06ccfb7e7c801e06ba7594fc901a4e"),
    "blocks": ("19d26d2ff479c73f2b342b0e38c6a0835e36074dbb51c656dd04fe69d572ce13",
               "12bef25e16beffdb04fa2ad0636e60be8ccfd065101bb1fb6c3ef793035474ee"),
    # the two suites that run the exact simplex: the 99 grid cells with their
    # witnesses and chain, and the nine growth-extremal cells
    "lp": ("e75dbfa179fccad2f0ff6584ae693d7f4091b4e252d8f9cc87e1c9dab369e0ed",
           "968f083d183bafa958515c8e0cf3e4cf3859856dcc66ad252d62433b898c7b24"),
    "cr": ("9d59b344b73904db105a177911af1151de8df4bcc43ad69f60973dfd93c9e18f",
           "225136e73a86135b3b85eadb64f0726b854ca5fe26e2bc7b3a7fd690862c1541"),
}

# (family, N, t, S, mode): every BlockTrace field of every group, the ledger's
# by_subroutine and space high water, and the run Generator's end state, at seeds 0 and 1
TRACE_DIGESTS = {
    ("hover-sqrt", 64, 2, 16, "exact"): "59287f9b8fb027432f4b112650b034f44297abc30a4bb3ac960103b9ada20037",
    ("hover-sqrt", 64, 2, 16, "cost-model"): "dab05b68042c0f35d37c62f584c235909fa0c2f1b0ee21952d5ca6f8c387f328",
    ("regular", 128, 2, 32, "exact"): "41fbd7335d40eb2e6ca8d02963a072e1c9f8728ccaf91c8587645928054c077d",
    ("regular", 128, 2, 32, "cost-model"): "1ac3fe0c7e6d6e3f6b82fce16703d85130b5e37b5ec6e1237f37c050f288ea2f",
    # s' = 1 at N = 1,024: the exact plan takes its row groups in 8 chunks
    ("uniform", 1024, 2, 8, "exact"): "a1a4c6dce29443147e1b5c310abafc03ff49273f508c13d4bf2e4e008c5f0d05",
}

# the product-exact bench cell: hover-sqrt (256, 2, 16) in exact mode at reps 5
# and its classical run, at seeds 0 and 7919
BENCH_EXACT_DIGEST = "30ad91ed0f847f722f2a396aeb6c6098c5d20b35eff4080bd340095c71c1164f"

CR_POINTS_DIGEST = "eeb1abc94893ae2f3281cc1bdbd4d03fb21bccb3de85028da9f2a2052f7914ee"


@pytest.mark.parametrize("mode", sorted(SWEEP_DIGESTS))
def test_sweep_csv(mode, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "N": [16, 32], "t": [2], "S": 8, "modes": [mode], "seeds": 2,
        "family": "hover-sqrt",
    }), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == SWEEP_DIGESTS[mode]


@pytest.mark.parametrize("mode", sorted(SOLVE_DIGESTS))
def test_solve_stdout(mode, tmp_path, capsys):
    path = tmp_path / "instance.txt"
    save_instance(instance_regular(SeededRng(3).spawn("demo").stream, 16, 2), path)
    assert main(["solve", "--instance", str(path), "--space", "8",
                 "--mode", mode, "--seed", "5"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == SOLVE_DIGESTS[mode]


@pytest.mark.parametrize("k", sorted(SUBSPACE_DIGESTS))
def test_subspace_verify_json(k, tmp_path, capsys):
    dump = tmp_path / "lines.json"
    assert main(["subspace", "verify", "--n", "4", "--t", "2", "--k", str(k),
                 "--runs", "3", "--json", str(dump)]) == 0
    assert sha256(dump.read_bytes()) == SUBSPACE_DIGESTS[k]


@pytest.mark.parametrize("cell", sorted(SPLIT_SUBSPACE_DIGESTS))
def test_subspace_verify_json_split_stacks(cell, tmp_path):
    # BLAS reads its thread count at import, so the suite runs in a fresh process
    n, t, k, runs = cell
    dump = tmp_path / "lines.json"
    src = str(Path(ineqlab.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ineqlab.cli", "subspace", "verify", "--n", str(n), "--t", str(t),
         "--k", str(k), "--runs", str(runs), "--json", str(dump)],
        env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert sha256(dump.read_bytes()) == SPLIT_SUBSPACE_DIGESTS[cell]


def test_lp_rows_and_lines():
    cells = [(2, 16, 0), (2, 16, 1), (4, 16, 1), (4, 16, 2), (2, 32, 3), (8, 32, 1)]
    lines, rows = verify_lp(cells=cells, chain_cells=((8, 32, 1),),
                            probe_n_values=(16,))
    assert sha256(json.dumps(rows).encode("utf-8")) == LP_ROWS_DIGEST
    assert sha256(json.dumps([line.to_dict() for line in lines]).encode("utf-8")) == LP_LINES_DIGEST


@pytest.mark.parametrize("suite", sorted(POLY_SUITE_DIGESTS))
def test_poly_suite_csv_and_stdout(suite, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["poly", "verify", "--suite", suite, "--out", str(out)]) == 0
    csv_digest, stdout_digest = POLY_SUITE_DIGESTS[suite]
    assert sha256(out.read_bytes()) == csv_digest
    assert sha256(capsys.readouterr().out.encode("utf-8")) == stdout_digest


def test_cr_probe_points():
    report = cr_probe(n_values=(16,))
    assert sha256(json.dumps(report.points).encode("utf-8")) == CR_POINTS_DIGEST


@pytest.mark.parametrize("cell", sorted(TRACE_DIGESTS))
def test_block_traces(cell):
    family, n, t, S, mode = cell
    runs = []
    for seed in (0, 1):
        root = SeededRng(seed)
        inst = FAMILIES[family](root.spawn("instance", family, n, t).stream, n, t)
        rng = root.spawn("run", mode, n, t, S).stream
        res = bounded_matrix_product(inst, S, mode, rng)
        runs.append({
            "traces": [[dataclasses.astuple(block) for block in group] for group in res.group_traces],
            "by_subroutine": res.ledger.by_subroutine,
            "space_high_water": res.ledger.space_high_water,
            "rng_state": rng.bit_generator.state,
        })
    assert sha256(json.dumps(runs).encode("utf-8")) == TRACE_DIGESTS[cell]


def test_bench_exact_cell():
    # each run's sweep row, ledger tags and every BlockTrace of every group
    family, n, t, S = "hover-sqrt", 256, 2, 16
    runs = []
    for seed in (0, 7919):
        for mode, reps in (("exact", 5), ("classical", None)):
            root = SeededRng(seed)
            inst = FAMILIES[family](root.spawn("instance", family, n, t).stream, n, t)
            res = run_product(inst, S, mode, root.spawn("run", mode, n, t, S), reps)
            runs.append({
                "row": dataclasses.astuple(run_cell(family, n, t, S, mode, seed, reps)),
                "by_subroutine": res.ledger.by_subroutine,
                "traces": [[dataclasses.astuple(block) for block in group] for group in res.group_traces],
            })
    assert sha256(json.dumps(runs).encode("utf-8")) == BENCH_EXACT_DIGEST
