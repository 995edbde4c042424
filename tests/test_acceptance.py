"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single verdict line to the
real terminal (bypassing capture) so the run log always shows the outcome.
Tolerances are pinned inline next to each assertion.
"""
import contextlib
import json
import math
import time

import numpy as np
import pytest

from ineqlab.core import ProblemInstance, QueryLedger, SeededRng, matvec_min
from ineqlab.linsys import (
    bounded_matrix_product,
    check_budget,
    classical_bounded_product,
)
from ineqlab.polylab import run_poly_suite, verify_lp
from ineqlab.qsim import StreamDraws, TapeOracle, count_median, grover_success, sv_run_grover
from ineqlab.subspace import (
    alpha_beta,
    build_input_space,
    build_signed_decomposition,
    build_split_chains,
    check_unitary_maps,
    decomposition_report,
    random_projective_measurement,
    variational_distance,
    verify_suite,
)
from ineqlab.sweep import (
    FAMILIES,
    SpaceRule,
    SweepConfig,
    SweepRow,
    fit_scaling,
    render_csv,
    render_json,
    run_sweep,
)

from test_qsim import counting_window

from fractions import Fraction


def announce(capfd, number: int, name: str, passed: bool, detail: str) -> None:
    """Print one verdict line on the real terminal, outside pytest's capture."""
    status = "PASS" if passed else "FAIL"
    with capfd.disabled():
        print(f"[{number}] {status} {name}: {detail}", flush=True)


def run_quantum(family: str, n: int, t: int, S: int, mode: str, seed: int, reps=None):
    """Instance and run streams derived from the seed, mirroring sweep cells."""
    root = SeededRng(seed)
    inst = FAMILIES[family](root.spawn("instance", family, n, t).stream, n, t)
    res = bounded_matrix_product(
        inst, S, mode, root.spawn("run", mode, n, t, S).stream, reps=reps
    )
    return inst, res


@pytest.fixture(scope="module")
def sampled_runs():
    """(128, 2, 32) cost-model runs over 200 seeds; shared by criteria 2 and 4."""
    return [run_quantum("regular", 128, 2, 32, "cost-model", seed)[1] for seed in range(200)]


class TestExactModeEquality:
    """Criterion 1: exact-mode output equals the reference on every instance."""

    def test_exhaustive_and_random_instances(self, capfd):
        start = time.time()
        rng = SeededRng(11).spawn("criterion-1").stream
        failures = 0
        runs = 0

        # every Boolean (A, x) pair at N <= 3, uniform bound vector
        for n in (1, 2, 3):
            for t in (1, 2):
                b = np.full(n, t, dtype=np.int64)
                for a_bits in range(2 ** (n * n)):
                    A = np.array(
                        [[(a_bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)],
                        dtype=np.int64,
                    )
                    for x_bits in range(2 ** n):
                        x = np.array([(x_bits >> j) & 1 for j in range(n)], dtype=np.int64)
                        inst = ProblemInstance(A=A, x=x, b=b, t=t)
                        S = (2, 4, 6)[runs % 3]
                        res = bounded_matrix_product(inst, S, "exact", rng)
                        failures += not res.correct
                        runs += 1

        # all x slices against one fixed random matrix per size
        for n in (4, 5, 6):
            A = (rng.random((n, n)) < 0.4).astype(np.int64)
            for x_bits in range(2 ** n):
                x = np.array([(x_bits >> j) & 1 for j in range(n)], dtype=np.int64)
                b = rng.integers(1, 3, n)
                inst = ProblemInstance(A=A, x=x, b=b, t=2)
                res = bounded_matrix_product(inst, (3, 5, 8)[runs % 3], "exact", rng)
                failures += not res.correct
                runs += 1

        # 500 random instances up to N = 256, t <= 8
        for _ in range(500):
            n = int(2 ** rng.uniform(1.0, 8.0))
            n = max(2, min(256, n))
            t = int(rng.integers(1, 9))
            density = rng.uniform(0.05, 0.5)
            A = (rng.random((n, n)) < density).astype(np.int64)
            x = rng.integers(0, t + 1, n)
            b = rng.integers(1, t + 1, n)
            inst = ProblemInstance(A=A, x=x, b=b, t=t)
            S = int(rng.integers(2, 65))
            res = bounded_matrix_product(inst, S, "exact", rng)
            failures += not res.correct
            runs += 1

        elapsed = time.time() - start
        announce(capfd, 1, "exact-mode equality", failures == 0,
                 f"{runs} runs, {failures} mismatches, {elapsed:.0f}s")
        assert failures == 0   # zero tolerance


class TestSampledErrorRate:
    """Criterion 2: end-to-end sampled error rate at (128, 2, 32)."""

    def test_error_rate_within_bounds(self, sampled_runs, capfd):
        errors = sum(1 for res in sampled_runs if not res.correct)
        rate = errors / len(sampled_runs)
        announce(capfd, 2, "sampled error rate", rate <= 1 / 3 and rate <= 0.05,
                 f"{errors}/{len(sampled_runs)} wrong ({rate:.1%})")
        assert rate <= 1 / 3          # hard bound
        assert rate <= 0.05           # amplification target, calibrated


class TestScalingExponents:
    """Criterion 3: fitted N-exponents split into the two regimes."""

    def test_quantum_vs_classical_fit(self, capfd):
        start = time.time()
        rows_q = []
        rows_c = []
        worst_ratio_q = 0.0
        classical_flagged = 0
        for n in (64, 128, 256, 512, 1024):
            for seed in range(3):
                inst, res = run_quantum("hover-sqrt", n, 2, 16, "exact", seed, reps=5)
                assert res.correct
                budget = check_budget(res.ledger, n, 2, 16, "quantum")
                worst_ratio_q = max(worst_ratio_q, budget.ratio)
                rows_q.append(SweepRow(
                    n=n, t=2, s=16, mode="exact", seed=seed,
                    total_queries=res.ledger.total, queries_x=res.ledger.queries_x,
                    queries_b=res.ledger.queries_b, space=res.ledger.space_high_water,
                    correct=res.correct))
                res_c = classical_bounded_product(inst, 16)
                assert res_c.correct
                classical_flagged += check_budget(res_c.ledger, n, 2, 16, "classical").flagged
                rows_c.append(SweepRow(
                    n=n, t=2, s=16, mode="classical", seed=seed,
                    total_queries=res_c.ledger.total, queries_x=res_c.ledger.queries_x,
                    queries_b=res_c.ledger.queries_b, space=res_c.ledger.space_high_water,
                    correct=res_c.correct))
        fit_q = fit_scaling(rows_q, "N")
        fit_c = fit_scaling(rows_c, "N")
        elapsed = time.time() - start
        ok = (1.4 <= fit_q.exponent <= 1.8 and 1.9 <= fit_c.exponent <= 2.1
              and fit_q.exponent < fit_c.exponent
              and worst_ratio_q <= 1.6 and classical_flagged == 0)
        announce(capfd, 3, "scaling exponents",
                 ok, f"quantum {fit_q.exponent:.3f}, classical {fit_c.exponent:.3f}, "
                     f"budget ratio {worst_ratio_q:.2f}, {elapsed:.0f}s")
        assert 1.4 <= fit_q.exponent <= 1.8
        assert 1.9 <= fit_c.exponent <= 2.1
        assert fit_q.exponent < fit_c.exponent
        assert worst_ratio_q <= 1.6    # calibrated envelope headroom
        assert classical_flagged == 0


class TestBlockAccounting:
    """Criterion 4: per-group block sums on every sampled run."""

    def test_trace_sums_within_budgets(self, sampled_runs, capfd):
        violations = 0
        for res in sampled_runs:
            for blocks in res.group_traces:
                if sum(blk.length for blk in blocks) > res.n:
                    violations += 1
                if sum(blk.rows_closed for blk in blocks) > res.s_prime:
                    violations += 1
                if sum(blk.open_additions for blk in blocks) > res.t * res.s_prime:
                    violations += 1
        announce(capfd, 4, "per-block accounting", violations == 0,
                 f"{len(sampled_runs)} runs, {violations} violations")
        assert violations == 0   # exact integer checks


class TestSubroutineFidelity:
    """Criterion 5: search success probabilities and counting windows."""

    def test_search_matches_statevector(self, capfd):
        start = time.time()
        worst = 0.0
        for n in range(1, 257):
            bits = np.zeros(n, dtype=bool)
            for w in range(1, n + 1):
                bits[w - 1] = True
                k = int(math.pi / (4 * math.asin(math.sqrt(w / n))))   # the known-weight schedule
                p = grover_success(n, w, k)
                pmf = sv_run_grover(bits, k)
                worst = max(worst, abs(float(pmf[:w].sum()) - p))
        counting_ok = True
        floor = 8 / math.pi ** 2 - 0.05
        freqs = []
        with contextlib.closing(StreamDraws(SeededRng(0).spawn("criterion-5").stream)) as draws:
            for n, w, M in ((16, 4, 8), (64, 16, 16), (100, 37, 20), (256, 25, 32)):
                bits = np.zeros(n, dtype=np.int64)
                bits[:w] = 1
                window = counting_window(n, w, M)
                hits = 0
                for _ in range(10_000):
                    oracle = TapeOracle(bits, QueryLedger())
                    if abs(count_median(oracle, M, 1, "cost-model", draws) - w) <= window:
                        hits += 1
                freqs.append(hits / 10_000)
                counting_ok = counting_ok and freqs[-1] >= floor
        elapsed = time.time() - start
        announce(capfd, 5, "subroutine fidelity", worst <= 1e-9 and counting_ok,
                 f"search diff {worst:.1e}, window freqs {['%.3f' % f for f in freqs]}, {elapsed:.0f}s")
        assert worst <= 1e-9
        assert all(f >= floor for f in freqs)


class TestSubspaceSuite:
    """Criterion 6: the signed-subspace check battery."""

    def test_full_battery(self, capfd):
        start = time.time()

        # closed-form norms, map spreads, branch bound, decomposition health
        # over every feasible (n, t) with n <= 10
        worst_norm = 0.0
        worst_map = 0.0
        worst_decomp = 0.0
        beta_ok = True
        for n in range(2, 11):
            for t in range(1, n // 2 + 1):
                space = build_input_space(n, t)
                chains = build_split_chains(space)
                for chain in chains.values():
                    for lvl in chain[: (t - 1) // 2 + 1]:
                        if lvl.deflated_norms.size:
                            worst_norm = max(worst_norm, float(
                                np.abs(lvl.deflated_norms - lvl.closed_form_norm).max()))
                for j in range((t - 1) // 2 + 1):
                    report = check_unitary_maps(chains, j)
                    worst_map = max(worst_map, max(
                        (max(c.sv_spread, c.residual) for c in report.checks if c.present),
                        default=0.0))
                    ab = alpha_beta(n, t, j)
                    beta_ok = beta_ok and max(ab.beta_sq) <= Fraction(2 * t, n)
                rep = decomposition_report(build_signed_decomposition(space))
                assert rep.dim_signed == rep.dim_expected == rep.dim_levels
                worst_decomp = max(worst_decomp, rep.ortho_residual, rep.start_state_residual)

        # potential decay, containment, probability bounds, distance bound
        # along random recast runs (9 runs x 7 cells = 63 runs), three copies at (4, 2)
        suite_ok = True
        for n, k in [(n, k) for n in (4, 5, 6) for k in (1, 2)] + [(4, 3)]:
            lines = verify_suite(n, 2, k, seed=0, runs=9, depth=3)
            suite_ok = suite_ok and all(line.passed for line in lines)

        # distance inequality on 1000 standalone random cases
        gen = SeededRng(2).spawn("criterion-6").stream
        tv_excess = 0.0
        for _ in range(1000):
            dim = int(gen.integers(2, 33))
            parts = int(gen.integers(2, min(dim, 4) + 1))
            (basis,), (cuts,) = random_projective_measurement(gen, 1, dim, parts)
            psi = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            phi = psi + 0.1 * (gen.standard_normal(dim) + 1j * gen.standard_normal(dim))
            phi /= np.linalg.norm(phi)
            tv, bound = variational_distance(psi, phi, (basis, cuts))
            tv_excess = max(tv_excess, float(tv - bound))

        elapsed = time.time() - start
        ok = (worst_norm <= 1e-9 and worst_map <= 1e-9 and beta_ok
              and worst_decomp <= 1e-9 and suite_ok and tv_excess <= 1e-9)
        announce(capfd, 6, "subspace suite", ok,
                 f"norm {worst_norm:.1e}, maps {worst_map:.1e}, decomp {worst_decomp:.1e}, "
                 f"distance excess {tv_excess:.1e}, {elapsed:.0f}s")
        assert worst_norm <= 1e-9
        assert worst_map <= 1e-9
        assert beta_ok
        assert worst_decomp <= 1e-9
        assert suite_ok
        assert tv_excess <= 1e-9


class TestPolynomialSuite:
    """Criterion 7: growth, dominance, LP, shape-fit, interior-growth and block checks."""

    def test_four_suites_pass(self, capfd):
        start = time.time()
        details = []
        all_ok = True
        for suite in ("cheb", "lp", "cr", "blocks"):
            lines, _ = run_poly_suite(suite)
            ok = all(line.passed for line in lines)
            all_ok = all_ok and ok
            details.append(f"{suite} {'ok' if ok else 'FAIL'} ({len(lines)} checks)")
        elapsed = time.time() - start
        announce(capfd, 7, "polynomial suite", all_ok, f"{', '.join(details)}, {elapsed:.0f}s")
        assert all_ok


class TestDeterminism:
    """Criterion 8: byte-identical reports under a fixed seed."""

    def test_reports_reproduce(self, capfd):
        config = SweepConfig(
            n_values=(16, 32), t_values=(2,),
            space_rule=SpaceRule(kind="absolute", value=8),
            modes=("exact", "classical"), seeds=2, family="regular",
        )
        first = run_sweep(config)
        second = run_sweep(config)
        csv_ok = render_csv(first.rows).encode() == render_csv(second.rows).encode()
        json_ok = render_json(first.rows).encode() == render_json(second.rows).encode()
        sub_a = json.dumps([line.to_dict() for line in verify_suite(4, 2, 1, seed=3)])
        sub_b = json.dumps([line.to_dict() for line in verify_suite(4, 2, 1, seed=3)])
        poly_ok = True
        for suite in ("cheb", "cr", "blocks"):
            one = run_poly_suite(suite)
            two = run_poly_suite(suite)
            poly_ok = poly_ok and (
                json.dumps([ln.to_dict() for ln in one[0]]) == json.dumps([ln.to_dict() for ln in two[0]])
                and json.dumps(one[1]) == json.dumps(two[1])
            )
        lp_kwargs = dict(cells=[(2, 16, 1), (4, 16, 1), (8, 32, 1)],
                         chain_cells=((8, 32, 1),), probe_n_values=(16,))
        lp_one = verify_lp(**lp_kwargs)
        lp_two = verify_lp(**lp_kwargs)
        lp_ok = json.dumps(lp_one[1]) == json.dumps(lp_two[1])
        announce(capfd, 8, "deterministic reports",
                 csv_ok and json_ok and sub_a == sub_b and poly_ok and lp_ok,
                 "sweep CSV/JSON, subspace JSON, poly tables")
        assert csv_ok and json_ok
        assert sub_a == sub_b
        assert poly_ok
        assert lp_ok
