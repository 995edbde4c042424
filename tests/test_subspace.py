"""Tests for the signed-subspace laboratory.

Closed-form expected values (dimensions, deflated norms, branch weights, map
constants) were derived by hand from the falling-factorial formulas and
binomial identities, then frozen here.
"""
import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ineqlab import subspace
from ineqlab.cli import main
from ineqlab.core import CheckLine, InstanceError, SeededRng
from ineqlab.subspace import (
    AlphaBeta,
    BOUND_SLACK,
    ORTHO_TOL,
    _product_blocks,
    alpha_beta,
    build_input_space,
    build_level_frame,
    build_signed_decomposition,
    build_split_chains,
    build_subspace_chain,
    check_unitary_maps,
    containment_residual,
    decomposition_report,
    deflated_norm_closed_form,
    distance_cases,
    orthonormal_columns,
    orthonormality_residual,
    potential_from_joint,
    random_program,
    random_projective_measurement,
    recast_run,
    run_masses,
    success_probability_bounds,
    variational_distance,
    verify_suite,
)


def rng_for(*key):
    return SeededRng(20260819).spawn(*key)


@pytest.fixture(autouse=True)
def cold_suite_cells():
    """Every test starts with no cached suite cell and leaves none behind, so a
    builder it patches is seen by verify_suite and never leaks into a later test."""
    subspace._suite_cell.cache_clear()
    yield
    subspace._suite_cell.cache_clear()


def reduced(phi):
    """Input-register density matrix of a joint state shaped (dim_a, dim_i)."""
    return phi.T @ phi.conj()


PSD_FLOOR = -1e-10   # smallest eigenvalue a reduced state may show in float64


@dataclasses.dataclass(frozen=True)
class StateReport:
    """One state's potential report: the per-state reference for a row of a PotentialReport."""

    masses: tuple[float, ...]
    value: float
    decay_excess: float

    @property
    def mass_sum(self):
        return math.fsum(self.masses)


def per_state_report(masses, params):
    """The report on one state's level masses, with one np.dot and one tail sum
    per difference count: the reference for the rows of _masses_report."""
    value = float(np.dot(masses, params.weights))
    qf = float(params.q)
    excesses = []
    for m in range(params.k + 1):
        threshold = params.t * m / 2.0
        tail = float(masses[math.ceil(threshold) :].sum())
        excesses.append(tail - value * qf ** (-threshold))
    return StateReport(masses=tuple(float(v) for v in masses), value=value,
                       decay_excess=subspace._worst(0.0, *excesses))


def report_rows(report):
    """The rows of a PotentialReport as one StateReport per state."""
    return [StateReport(tuple(map(float, masses)), float(value), float(excess))
            for masses, value, excess in zip(report.masses, report.values, report.decay_excess)]


def growth_ratios(values):
    """Per-query potential growth factors from the potentials of a run's states."""
    return [after / before for before, after in zip(values[:-1], values[1:])]


def potential(rho, frame):
    """Level masses of a density matrix: the reference for potential_from_joint."""
    rotated = frame.columns.conj().T @ rho @ frame.columns
    masses = np.zeros(len(frame.params.weights))
    np.add.at(masses, frame.labels, np.real(np.diagonal(rotated)))
    if masses.min() < -1e-9:
        raise InstanceError("negative level mass")
    return per_state_report(np.clip(masses, 0.0, None), frame.params)


def reference_classes(space, k):
    """Per answer tuple, in lexicographic order, the np.kron of the per-copy class masks."""
    per_copy = {a: space.class_mask(a).astype(float) for a in (0, 1)}
    return [functools.reduce(np.kron, [per_copy[a] for a in ans])
            for ans in itertools.product((0, 1), repeat=k)]


# ---------------------------------------------------------------------------
# combinatorial helpers


class TestFallingFactorial:
    """The closed forms read falling factorials x (x-1) ... (x-j+1) off math.perm."""

    def test_small_values(self):
        # n=4, t=2, a=1, b=0 pins from x = 1 free slot: sqrt(1/3) at j = 1,
        # and at j = 2 the falling product has a zero factor
        assert deflated_norm_closed_form(4, 2, 1, 1, 0) == math.sqrt(1 / 3)
        assert deflated_norm_closed_form(4, 2, 2, 1, 0) == 0.0

    def test_matches_comb_scaling(self):
        # the squared norm is the falling-factorial ratio, that is
        # C(x, j) / C(n-j, j) with x = n - t_a - 1 + b, at every chain level
        for n in range(2, 12):
            for t in range(1, n // 2 + 1):
                for a in (0, 1):
                    for b in (0, 1):
                        x = n - (t - 1 + a) - 1 + b
                        for j in range(t - 1 + a - b + 1):
                            expect = math.comb(x, j) / math.comb(n - j, j)
                            got = deflated_norm_closed_form(n, t, j, a, b) ** 2
                            assert got == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# input space


class TestInputSpace:
    def test_dimension_and_order(self):
        space = build_input_space(4, 2)
        assert space.dim == 10  # C(4,1) + C(4,2)
        assert space.basis == tuple(sorted(space.basis))
        assert all(sum(x) in (1, 2) for x in space.basis)

    def test_start_state_uniform_on_classes(self):
        space = build_input_space(4, 2)
        for a in (0, 1):
            mask = space.class_mask(a)
            vals = space.psi_one[mask]
            assert np.allclose(vals, 1.0 / math.sqrt(2 * mask.sum()))
        assert abs(np.linalg.norm(space.psi_one) - 1.0) < 1e-12

    def test_weight_state_with_pins(self):
        space = build_input_space(4, 2)
        # weight-1 strings: uniform entries 1/2
        vec = space.masked_state(space.class_mask(0))
        assert np.allclose(vec[space.class_mask(0)], 0.5)
        # pinning one position of the weight-2 class leaves 3 strings
        vec = space.masked_state(space.class_mask(1), (0,))
        support = np.nonzero(vec)[0]
        assert len(support) == 3
        assert np.allclose(vec[support], 1.0 / math.sqrt(3))

    def test_split_state_pins_first_coordinate(self):
        space = build_input_space(4, 2)
        vec = space.masked_state(space.class_mask(1) & (space.bits[:, 0] == 1), (2,))
        for idx in np.nonzero(vec)[0]:
            x = space.basis[idx]
            assert x[0] == 1 and x[2] == 1 and sum(x) == 2

    def test_masked_state_rejects_empty_family(self):
        space = build_input_space(4, 2)
        # the split coordinate cannot be both 0 and pinned to 1
        with pytest.raises(InstanceError):
            space.masked_state(space.class_mask(1) & (space.bits[:, 0] == 0), (0,))
        # so split chains pin only the other n-1 positions
        for chain in build_split_chains(space).values():
            assert all(0 not in tup for level in chain for tup in level.tuples)

    def test_preconditions(self):
        with pytest.raises(InstanceError):
            build_input_space(3, 2)  # t > n/2
        with pytest.raises(InstanceError):
            build_input_space(4, 0)
        with pytest.raises(InstanceError):
            build_input_space(60, 20)  # weight class beyond the dense cap


# ---------------------------------------------------------------------------
# orthonormalization


class TestOrthonormalColumns:
    def test_drops_dependent_vectors(self):
        vecs = [np.array([1.0, 0, 0]), np.array([2.0, 0, 0]), np.array([0, 1.0, 0])]
        cols = orthonormal_columns(vecs, 3)
        assert cols.shape == (3, 2)
        assert orthonormality_residual(cols) < 1e-12

    def test_random_full_rank(self):
        gen = rng_for("mgs").stream
        for trial in range(20):
            mat = gen.standard_normal((12, 7))
            cols = orthonormal_columns(mat.T, 12)
            assert cols.shape == (12, 7)
            assert orthonormality_residual(cols) < ORTHO_TOL


# ---------------------------------------------------------------------------
# nested chains and deflated norms


class TestSubspaceChain:
    def test_closed_form_frozen_values(self):
        # hand-derived: sqrt(2/3) and sqrt(3/5)
        assert abs(deflated_norm_closed_form(4, 2, 1, 0, 0) - math.sqrt(2 / 3)) < 1e-15
        assert abs(deflated_norm_closed_form(6, 3, 1, 1, 1) - math.sqrt(3 / 5)) < 1e-15

    def test_norms_match_closed_form_grid(self):
        for n, t in [(4, 2), (6, 2), (6, 3), (8, 3), (9, 4), (10, 5)]:
            space = build_input_space(n, t)
            for a in (0, 1):
                for b in (0, 1):
                    j_hi = min((t - 1) // 2, t - 1 + a - b)
                    if j_hi < 0:
                        continue
                    chain = build_subspace_chain(space, a, b)
                    for j in range(j_hi + 1):
                        level = chain[j]
                        err = np.abs(level.deflated_norms - level.closed_form_norm).max()
                        assert err <= ORTHO_TOL

    def test_level_zero_is_the_raw_state(self):
        space = build_input_space(6, 2)
        chain = build_subspace_chain(space, 1, 0)
        assert chain[0].deflated_norms.shape == (1,)
        assert abs(chain[0].deflated_norms[0] - 1.0) < 1e-12

    def test_spans_are_nested_and_fresh_is_orthogonal(self):
        space = build_input_space(6, 3)
        chain = build_subspace_chain(space, 0)
        for prev, cur in zip(chain[:-1], chain[1:]):
            # previous span sits inside the current one
            proj = cur.span @ (cur.span.T @ prev.span)
            assert np.abs(proj - prev.span).max() < 1e-9
            # fresh directions are orthogonal to the previous span
            cross = prev.span.T @ cur.fresh
            assert np.abs(cross).max() < 1e-9

    def test_plain_chain_fresh_dims(self):
        # dim of each fresh level is C(n,j) - C(n,j-1)
        space = build_input_space(6, 2)
        for a in (0, 1):
            chain = build_subspace_chain(space, a)
            for j, level in enumerate(chain):
                expected = math.comb(6, j) - (math.comb(6, j - 1) if j else 0)
                assert level.fresh.shape[1] == expected

    def test_input_validation(self):
        space = build_input_space(4, 2)
        with pytest.raises(InstanceError):
            build_subspace_chain(space, 2)
        with pytest.raises(InstanceError):
            build_subspace_chain(space, 0, 3)


# ---------------------------------------------------------------------------
# signed decomposition


class TestSignedDecomposition:
    def test_dims_and_orthogonality(self):
        for n, t in [(4, 2), (6, 2), (6, 3), (8, 2)]:
            space = build_input_space(n, t)
            decomp = build_signed_decomposition(space)
            report = decomposition_report(decomp)
            assert report.dim_signed == space.dim
            assert report.dim_levels == space.dim
            assert report.ortho_residual <= ORTHO_TOL
            # the start state lies in the level-0 phase-sum block
            assert report.start_state_residual <= ORTHO_TOL

    def test_block_dimensions_frozen(self):
        space = build_input_space(4, 2)
        decomp = build_signed_decomposition(space)
        assert [b.shape[1] for b in decomp.plus] == [1, 3]
        assert [b.shape[1] for b in decomp.minus] == [1, 3, 2]
        assert decomp.top_level == 1
        assert [b.shape[1] for b in decomp.levels] == [1, 9]

    def test_top_level_rounds_up_for_odd_t(self):
        space = build_input_space(6, 3)
        decomp = build_signed_decomposition(space)
        assert decomp.top_level == 2
        assert sum(b.shape[1] for b in decomp.levels) == space.dim

    def test_containment_in_high_levels(self):
        for n, t in [(4, 2), (6, 2), (6, 3)]:
            decomp = build_signed_decomposition(build_input_space(n, t))
            assert containment_residual(build_level_frame(decomp, 1)) <= ORTHO_TOL
        decomp = build_signed_decomposition(build_input_space(4, 2))
        assert containment_residual(build_level_frame(decomp, 2)) <= ORTHO_TOL

    def test_product_bases_fill_space(self):
        space = build_input_space(4, 2)
        decomp = build_signed_decomposition(space)
        for k in (1, 2):
            frame = build_level_frame(decomp, k)
            assert frame.columns.shape == (space.dim**k, space.dim**k)
            # real, so potential_from_joint takes overlaps with the columns unconjugated
            assert frame.columns.dtype == np.float64
            assert np.bincount(frame.labels).sum() == space.dim**k
            # the difference blocks number every column once
            assert np.array_equal(np.sort(np.concatenate(list(frame.minus.values()))), np.arange(space.dim**k))
            # one answer block per answer tuple at every tuple of levels below t
            assert len(frame.answer_blocks) == space.t**k
            assert all(len(blocks) == 2**k for blocks in frame.answer_blocks.values())

    def test_minus_basis_dims_are_binomial_products(self):
        space = build_input_space(4, 2)
        decomp = build_signed_decomposition(space)
        minus = build_level_frame(decomp, 2).minus
        low, high = math.comb(4, 1), math.comb(4, 2)  # per-factor side dims
        assert len(minus[0]) == low * low
        assert len(minus[1]) == 2 * low * high
        assert len(minus[2]) == high * high

    def test_product_blocks_generic_in_k(self):
        # the grouping must give C(k, m) lexicographic kron terms per group m
        gen = rng_for("blocks").stream
        sides = [gen.standard_normal((2, 1)), gen.standard_normal((2, 2))]
        grouped = _product_blocks(sides, 3)
        assert sorted(grouped) == [0, 1, 2, 3]
        for m, cols in grouped.items():
            assert cols.shape == (8, math.comb(3, m) * 2**m)
        s, d = sides
        expect = np.hstack([np.kron(np.kron(s, s), d), np.kron(np.kron(s, d), s),
                            np.kron(np.kron(d, s), s)])
        assert np.array_equal(grouped[1], expect)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_answer_classes_are_products_of_per_copy_masks(self, k):
        space = build_input_space(4, 2)
        frame = build_level_frame(build_signed_decomposition(space), k)
        expect = reference_classes(space, k)
        assert frame.classes.shape == (space.dim**k, 2**k)
        for col, ref in zip(frame.classes.T, expect):
            assert np.array_equal(col, ref)
        # every joint string sits in exactly one answer class
        assert np.array_equal(frame.classes.sum(axis=1), np.ones(space.dim**k))

    def test_product_caps(self):
        # one size rule: the suite's joint register (k n + 1) * 2 * dim^k must
        # fit RUN_JOINT_DIM_CAP, whatever k is
        decomp = build_signed_decomposition(build_input_space(4, 2))
        frame = build_level_frame(decomp, 3)  # 13 * 2 * 10^3 = 26,000
        assert frame.columns.shape == (1000, 1000)
        assert sorted(frame.minus) == [0, 1, 2, 3]
        assert frame.classes.shape == (1000, 8)
        with pytest.raises(InstanceError, match="joint dimension"):
            build_level_frame(decomp, 4)  # 17 * 2 * 10^4
        big = build_signed_decomposition(build_input_space(10, 3))
        with pytest.raises(InstanceError, match="joint dimension"):
            build_level_frame(big, 2)  # 21 * 2 * 165^2
        with pytest.raises(InstanceError, match="k must be at least 1"):
            build_level_frame(decomp, 0)


# ---------------------------------------------------------------------------
# block maps


class TestUnitaryMaps:
    def test_frozen_cell(self):
        report = check_unitary_maps(build_split_chains(build_input_space(6, 2)), 1)
        by_ab = {(c.a, c.b): c for c in report.checks}
        # the weight-(t-1), split-1 family has no room for a pinned one at j=1
        assert not by_ab[(0, 1)].present
        assert by_ab[(1, 0)].present and by_ab[(1, 1)].present
        for check in report.checks:
            if check.present:
                assert check.sv_spread <= ORTHO_TOL
                assert check.residual <= ORTHO_TOL
        assert abs(report.c11 - 1.0) <= ORTHO_TOL
        # hand value: norm ratio sqrt(3/5) / sqrt(4/5)
        assert abs(by_ab[(1, 0)].constant - math.sqrt(3 / 4)) < 1e-12

    def test_all_maps_scalar_isometry_grid(self):
        for n, t in [(6, 2), (8, 3), (10, 4)]:
            chains = build_split_chains(build_input_space(n, t))
            for j in range((t - 1) // 2 + 1):
                report = check_unitary_maps(chains, j)
                for check in report.checks:
                    if check.present:
                        assert check.sv_spread <= ORTHO_TOL
                        assert check.residual <= ORTHO_TOL
                assert abs(report.c11 - 1.0) <= ORTHO_TOL

    def test_level_zero_constants_are_one(self):
        # at j=0 every family state is normalized, so all ratios are 1
        report = check_unitary_maps(build_split_chains(build_input_space(8, 3)), 0)
        for check in report.checks:
            assert check.present
            assert abs(check.constant - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# branch weights


class TestAlphaBeta:
    def test_frozen_value(self):
        ab = alpha_beta(4, 2, 0)
        assert ab.beta_sq[0] == Fraction(1, 4)
        assert abs(ab.beta[0] - 0.5) < 1e-15
        assert abs(ab.alpha[0] - math.sqrt(3) / 2) < 1e-15

    def test_normalization_exact(self):
        for n, t, j in [(4, 2, 0), (8, 3, 1), (16, 5, 2), (64, 8, 3)]:
            ab = alpha_beta(n, t, j)
            for a in (0, 1):
                assert ab.alpha_sq[a] + ab.beta_sq[a] == 1

    def test_branch_bound_exact_grid(self):
        for n in (8, 16, 32, 64):
            for t in (2, 3, n // 4):
                for j in range((t - 1) // 2 + 1):
                    if 2 * j >= t:
                        continue
                    ab = alpha_beta(n, t, j)
                    for a in (0, 1):
                        assert ab.beta_sq[a] <= Fraction(2 * t, n)

    def test_matches_dense_construction(self):
        # alpha, beta reproduce the deflated norms combination at a dense cell
        n, t, j = 8, 3, 1
        ab = alpha_beta(n, t, j)
        for a in (0, 1):
            t_a = t - 1 + a
            n0 = deflated_norm_closed_form(n, t, j, a, 0)
            n1 = deflated_norm_closed_form(n, t, j, a, 1)
            ap = math.sqrt((n - t_a) / (n - j)) * n0
            bp = math.sqrt((t_a - j) / (n - j)) * n1
            norm = math.hypot(ap, bp)
            assert abs(ab.alpha[a] - ap / norm) < 1e-12
            assert abs(ab.beta[a] - bp / norm) < 1e-12

    def test_cross_term_fields(self):
        ab = alpha_beta(32, 4, 1)
        assert ab.cross >= 0
        assert abs(ab.cross_scaled - ab.cross * math.sqrt(4 * 32)) < 1e-15

    def test_preconditions(self):
        with pytest.raises(InstanceError):
            alpha_beta(8, 3, 2)  # 2j >= t
        with pytest.raises(InstanceError):
            alpha_beta(5, 3, 0)  # t > n/2


# ---------------------------------------------------------------------------
# recast runs


def small_run(n=4, t=2, k=1, workspace=2, depth=3, seed=11):
    """A stack of one recast run."""
    dim_a = (k * n + 1) * workspace
    programs = random_program([rng_for("prog", seed)], dim_a, depth)
    return recast_run(programs, build_input_space(n, t), k, workspace_dim=workspace)


class TestRecastRun:
    def test_initial_state_is_pure_product(self):
        run = small_run()
        rho0 = reduced(run.states[0, 0])
        eigs = np.linalg.eigvalsh(rho0)
        assert abs(eigs[-1] - 1.0) < 1e-9
        assert np.abs(eigs[:-1]).max() < 1e-9

    def test_reduced_states_are_density_matrices(self):
        run = small_run(depth=4)
        for rho in map(reduced, run.states[0]):
            assert abs(np.real(np.trace(rho)) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() >= PSD_FLOOR
            assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_idle_program_leaves_input_alone(self):
        # gates acting only inside query slot 0 never touch the input register
        n, t, k, w = 4, 2, 1, 2
        dim_a = (k * n + 1) * w
        gate = np.eye(dim_a, dtype=complex)
        theta = 0.9
        gate[:w, :w] = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        run = recast_run([[gate, gate, gate]], build_input_space(n, t), k, workspace_dim=w)
        for phi in run.states[0, 1:]:
            assert np.abs(reduced(phi) - reduced(run.states[0, 0])).max() < 1e-12

    def test_query_applies_conditional_phase(self):
        # one query from a slot targeting position p flips the sign of
        # amplitudes on inputs with bit p set, relative to the idle branch
        n, t = 4, 2
        space = build_input_space(n, t)
        slots = n + 1
        dim_a = slots  # workspace_dim 1
        pos = 2
        gate = np.eye(dim_a, dtype=complex)
        # send slot 0 to an even mix of idle and the query slot for pos
        q = 1 + pos
        gate[0, 0] = gate[q, 0] = 1 / math.sqrt(2)
        gate[0, q] = -1 / math.sqrt(2)
        gate[q, q] = 1 / math.sqrt(2)
        run = recast_run([[gate]], space, 1)
        phi = run.states[0, 1]
        signs = 1.0 - 2.0 * space.bits[:, pos].astype(float)
        expect = np.outer(
            np.eye(dim_a)[0] / math.sqrt(2), space.psi_one
        ) + np.outer(np.eye(dim_a)[q] / math.sqrt(2), signs * space.psi_one)
        assert np.abs(phi - expect).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_phase_table_matches_per_slot_products(self, k):
        # a one-gate program moves slot 0 to slot q, whose query then multiplies
        # the start state by the product of +-1 signs of bit pos in copy inst
        n, t = 4, 2
        space = build_input_space(n, t)
        slots = k * n + 1
        signs = 1.0 - 2.0 * space.bits.astype(float)
        for q in range(slots):
            gate = np.eye(slots, dtype=complex)
            gate[[0, q]] = gate[[q, 0]]
            parts = [np.ones(space.dim)] * k
            if q:
                inst, pos = divmod(q - 1, n)
                parts[inst] = signs[:, pos]
            expect = np.zeros((slots, space.dim**k), dtype=complex)
            run = recast_run([[gate]], space, k)
            expect[q] = functools.reduce(np.kron, parts) * run.states[0, 0, 0]
            assert np.array_equal(run.states[0, 1], expect)

    def test_two_factor_run_dimensions(self):
        run = small_run(n=4, t=2, k=2, workspace=1, depth=2)
        assert run.states.shape == (1, 3, 9, 100)
        assert run.query_slots == 9

    def test_rejects_bad_programs(self):
        with pytest.raises(InstanceError):
            recast_run([[np.eye(3)]], build_input_space(4, 2), 1)  # wrong shape (dim_a is 5)
        with pytest.raises(InstanceError):
            recast_run([np.eye(5)], build_input_space(4, 2), 1)  # one program, not a stack
        bad = np.eye(5, dtype=complex)
        bad[0, 0] = 2.0
        with pytest.raises(InstanceError):
            recast_run([[bad]], build_input_space(4, 2), 1)
        # the bad gate is step 1 of run 1 in a stack of two
        with pytest.raises(InstanceError, match="run 1 step 1 "):
            recast_run([[np.eye(5)] * 2, [np.eye(5), bad]], build_input_space(4, 2), 1)

    @pytest.mark.parametrize("entry", [(0, 0), (3, 1)])
    def test_rejects_nan_programs(self, entry):
        # every comparison with NaN is false, so a "defect > tol" guard would admit it
        gate = np.eye(5, dtype=complex)
        gate[entry] = np.nan
        with pytest.raises(InstanceError, match="not unitary"):
            recast_run([[np.eye(5), gate]], build_input_space(4, 2), 1)

    def test_rejects_nan_start_state(self):
        space = build_input_space(4, 2)
        space = dataclasses.replace(space, psi_one=np.full(space.dim, np.nan))
        with pytest.raises(InstanceError, match="trace nan"):
            recast_run([[np.eye(5)]], space, 1)

    def test_rejects_oversized_joint_space(self):
        with pytest.raises(InstanceError):
            recast_run([[]], build_input_space(6, 2), 2, workspace_dim=60)


# ---------------------------------------------------------------------------
# potential


class TestPotential:
    def test_start_state_has_unit_potential(self):
        space = build_input_space(4, 2)
        frame = build_level_frame(build_signed_decomposition(space), 1)
        assert frame.params.q == Fraction(3, 2)
        rho0 = np.outer(space.psi_one, space.psi_one)
        report = potential(rho0, frame)
        assert abs(report.value - 1.0) < 1e-12
        assert abs(report.masses[0] - 1.0) < 1e-12

    def test_masses_sum_to_one_along_runs(self):
        run = small_run(depth=4, seed=5)
        frame = build_level_frame(build_signed_decomposition(run.space), 1)
        for phi in run.states[0]:
            report = potential(reduced(phi), frame)
            assert abs(report.mass_sum - 1.0) <= BOUND_SLACK
            assert report.decay_excess <= BOUND_SLACK

    def test_joint_and_reduced_paths_agree(self):
        run = small_run(n=5, t=2, k=2, workspace=1, depth=3, seed=9)
        frame = build_level_frame(build_signed_decomposition(run.space), 2)
        report = potential_from_joint(run.states[0], frame)
        assert report.masses.shape == (run.states.shape[1], len(frame.params.weights))
        for a, phi in zip(report.masses, run.states[0]):
            b = potential(reduced(phi), frame)
            assert max(abs(x - y) for x, y in zip(a, b.masses)) < 1e-10

    def test_growth_ratios_along_idle_run_are_one(self):
        n, t, w = 4, 2, 2
        dim_a = (n + 1) * w
        gate = np.eye(dim_a, dtype=complex)
        run = recast_run([[gate, gate]], build_input_space(n, t), 1, workspace_dim=w)
        frame = build_level_frame(build_signed_decomposition(run.space), 1)
        for ratio in growth_ratios(potential_from_joint(run.states[0], frame).values):
            assert abs(ratio - 1.0) < 1e-12

    def test_top_level_eigencase(self):
        # a state inside the terminal growth level of each factor carries
        # the full weight q^(t*k/2)
        space = build_input_space(4, 2)
        decomp = build_signed_decomposition(space)
        psi = decomp.levels[decomp.top_level][:, 0]
        for k in (1, 2):
            frame = build_level_frame(decomp, k)
            vec = psi if k == 1 else np.kron(psi, psi)
            report = potential(np.outer(vec, vec), frame)
            expect = float(frame.params.q) ** (space.t * k / 2)
            assert abs(report.value - expect) < 1e-9

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_nan_mass_fails_the_decay_check(self, level):
        # Python's max(0.0, nan) is 0.0, so a plain fold would report no excess
        frame = build_level_frame(build_signed_decomposition(build_input_space(4, 2)), 2)
        masses = np.full((3, len(frame.params.weights)), 0.2)
        masses[1, level] = np.nan
        decay = subspace._masses_report(masses, frame.params).decay_excess
        assert math.isnan(decay[1])
        assert decay[0] == decay[2] == per_state_report(masses[0], frame.params).decay_excess

    def test_seeded_runs_decay_property(self):
        for seed in range(8):
            run = small_run(n=4, t=2, k=1, depth=3, seed=seed)
            frame = build_level_frame(build_signed_decomposition(run.space), 1)
            for report in report_rows(potential_from_joint(run.states[0], frame)):
                assert report.decay_excess <= BOUND_SLACK
                assert abs(report.mass_sum - 1.0) <= BOUND_SLACK


# ---------------------------------------------------------------------------
# probability bounds


def frame_of(run):
    return build_level_frame(build_signed_decomposition(run.space), run.k)


@functools.lru_cache(maxsize=2)
def dense_minus(frame):
    """The difference blocks as dense products of the one-copy signed sides, grouped
    by their count of difference factors: the reference for LevelFrame.minus.
    Cached per frame, since the references read them once per run and m."""
    decomp = frame.decomp
    return _product_blocks([np.hstack(decomp.plus), np.hstack(decomp.minus)], frame.params.k)


def reference_bounds(frame, run, m, rng):
    """The three probability checks as one loop per sample and per answer mask."""
    decomp, k = frame.decomp, frame.params.k
    space = decomp.space
    bound = subspace._binomial_tail(k, m)
    gen = rng.stream
    masks = [ref > 0.5 for ref in reference_classes(space, k)]
    low_cols = np.hstack([dense_minus(frame)[mp] for mp in range(m + 1)])
    span_excess = 0.0
    for _ in range(subspace.SAMPLE_TRIALS):
        coeff = gen.standard_normal(low_cols.shape[1])
        psi = low_cols @ (coeff / np.linalg.norm(coeff))
        for mask in masks:
            span_excess = max(span_excess, float(np.sum(psi[mask] ** 2)) - bound)
    run_excess = 0.0
    for phi in run.states.reshape(-1, *run.states.shape[2:]):
        inside = float(np.sum(np.abs(phi @ low_cols) ** 2))
        corrected = bound + 4.0 * math.sqrt(max(0.0, 1.0 - inside))
        diag = np.sum(np.abs(phi) ** 2, axis=0)
        for mask in masks:
            run_excess = max(run_excess, float(diag[mask].sum()) - corrected)
    return span_excess, run_excess, max(0.0, max(per_trial_projection(frame, gen).values()) - 1.0 / 2**k)


def per_trial_projection(frame, gen):
    """The projection check as one loop per trial: per factor one block pick, one
    coefficient draw and one gemv, then one gemv and one dot per answer block.
    Returns the largest squared projection per level tuple and answer, before
    the 2^-k bound is taken off."""
    decomp, k = frame.decomp, frame.params.k
    signed_blocks = {("plus", j): decomp.plus[j] for j in range(decomp.space.t)}
    signed_blocks.update({("minus", j): decomp.minus[j] for j in range(decomp.space.t)})
    keys = sorted(signed_blocks.keys())
    tops = {}
    for _ in range(subspace.SAMPLE_TRIALS):
        factors, levels = [], []
        for _ in range(k):
            side, j = keys[int(gen.integers(len(keys)))]
            cols = signed_blocks[(side, j)]
            coeff = gen.standard_normal(cols.shape[1])
            factors.append((cols @ (coeff / np.linalg.norm(coeff))).reshape(-1, 1))
            levels.append(j)
        psi = subspace._kron_columns(factors).ravel()
        for answer, block in enumerate(frame.answer_blocks[tuple(levels)]):
            proj = block.T @ psi
            key = (tuple(levels), answer)
            tops[key] = max(tops.get(key, -math.inf), float(proj @ proj))
    return tops


EXCESSES = ("span_excess", "run_excess", "projection_excess")


def per_trial_bounds(frame, run, m, rng):
    """One case of success_probability_bounds, as the call per (run, m) made it, with
    its projection check as one loop per trial: the three excesses by name, the
    reference the pooled check must match bit for bit."""
    k = frame.params.k
    bound = subspace._binomial_tail(k, m)
    gen = rng.stream
    low_cols = np.hstack([dense_minus(frame)[mp] for mp in range(m + 1)])
    coeff = gen.standard_normal((subspace.SAMPLE_TRIALS, low_cols.shape[1]))
    psi = (coeff / np.linalg.norm(coeff, axis=1, keepdims=True)) @ low_cols.T
    span_excess = max(0.0, float(((psi**2) @ frame.classes).max()) - bound)
    states = np.concatenate(run.states)
    inside = (np.abs(states @ low_cols) ** 2).sum(axis=(1, 2))
    corrected = bound + 4.0 * np.sqrt(np.maximum(0.0, 1.0 - inside))
    probs = (np.abs(states) ** 2).sum(axis=1) @ frame.classes
    run_excess = max(0.0, float((probs - corrected[:, None]).max()))
    projection_excess = max(0.0, max(per_trial_projection(frame, gen).values()) - 1.0 / 2**k)
    return dict(zip(EXCESSES, (span_excess, run_excess, projection_excess)))


def worst_of(per_case):
    """Each excess's largest value over the per-case references, as float.hex."""
    return {name: max(case[name] for case in per_case).hex() for name in EXCESSES}


def excesses(report):
    """A SuccessBoundReport's three excesses, as float.hex."""
    return {name: getattr(report, name).hex() for name in EXCESSES}


def per_step_program(rng, dim, depth):
    """random_program as two draws and one QR per step."""
    gen = rng.stream
    out = []
    for _ in range(depth):
        z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        out.append(q * (diag / np.abs(diag)))
    return tuple(out)


def per_run_states(program, space, k, workspace_dim):
    """recast_run for one program: one gemm and one phase multiply per step."""
    slots = k * space.n + 1
    dim_a, dim_i = slots * workspace_dim, space.dim**k
    signs = 1.0 - 2.0 * space.bits.astype(float)
    ones = np.ones((space.dim, 1))
    phase = np.vstack([np.ones((1, dim_i))] + [
        subspace._kron_columns([ones] * inst + [signs] + [ones] * (k - 1 - inst)).T for inst in range(k)
    ])
    phi = np.zeros((dim_a, dim_i), dtype=complex)
    phi[0] = subspace._kron_columns([space.psi_one.reshape(-1, 1)] * k).ravel()
    states = [phi.copy()]
    for gate in program:
        phi = gate @ phi
        shaped = phi.reshape(slots, workspace_dim, dim_i)
        shaped *= phase[:, None, :]
        phi = shaped.reshape(dim_a, dim_i)
        states.append(phi.copy())
    return np.stack(states)


def suite_run(frame, seed, idx, depth):
    """Run idx of verify_suite at `seed`, drawn and recast one step at a time, as a stack of one."""
    space, k = frame.decomp.space, frame.params.k
    dim_a = (k * space.n + 1) * subspace.SUITE_WORKSPACE
    program = per_step_program(SeededRng(seed).spawn("program", idx), dim_a, depth)
    states = per_run_states(program, space, k, subspace.SUITE_WORKSPACE)
    return subspace.RecastRun(space=space, k=k, query_slots=k * space.n + 1, states=states[None])


def per_run_suite(n, t, k, seed, runs, depth):
    """verify_suite with its runs drawn, recast and weighed one at a time, and its
    probability bounds one call per (run, m): its lines, and every run's states and
    per-state potential reports."""
    rng = SeededRng(seed)
    cell = subspace._suite_cell(n, t, k)
    frame = cell.frame
    lines = list(cell.structural)
    decay = growth_max = prob_worst = 0.0
    all_states, all_reports = [], []
    for idx in range(runs):
        run = suite_run(frame, seed, idx, depth)
        reports = [per_state_potential(phi, frame) for phi in run.states[0]]
        all_states.append(run.states[0])
        all_reports.append(reports)
        decay = max(decay, *(report.decay_excess for report in reports))
        for ratio in growth_ratios([report.value for report in reports]):
            growth_max = max(growth_max, (ratio - 1.0) * math.sqrt(t * n))
        if idx < 3:
            for m in range(k + 1):
                bounds = per_trial_bounds(frame, run, m, rng.spawn("bounds", idx, m))
                prob_worst = max(prob_worst, *bounds.values())
    lines.append(CheckLine("potential tail decay along runs", decay <= BOUND_SLACK, decay,
                                    f"{runs} runs"))
    lines.append(CheckLine("probability bounds along runs", prob_worst <= BOUND_SLACK, prob_worst,
                                    "low-span, corrected, block"))
    lines.append(CheckLine("one-query growth constant (report only)", True, growth_max,
                                    "scaled by sqrt(t n)"))
    lines.append(cell.cross_term)
    _, tv, bound = distance_cases(rng.spawn("tv", n, t, k))
    lines.append(CheckLine("outcome-distribution distance bound", bool(np.all(tv <= bound + 1e-12)),
                                    max(0.0, float((tv - bound).max())), f"{subspace.DISTANCE_CASES} random cases"))
    return lines, all_states, all_reports


def per_state_potential(phi, frame):
    """potential_from_joint for one joint state: one matmul and one np.add.at."""
    per_col = (np.abs(phi @ frame.columns) ** 2).sum(axis=0)
    masses = np.zeros(len(frame.params.weights))
    np.add.at(masses, frame.labels, per_col)
    return per_state_report(np.clip(masses, 0.0, None), frame.params)


def hexed(report):
    """A report's fields with every float as float.hex, so equality is bit for bit."""
    def bits(value):
        if isinstance(value, float):
            return value.hex()
        return tuple(map(bits, value)) if isinstance(value, tuple) else value
    return {f.name: bits(getattr(report, f.name)) for f in dataclasses.fields(report)}


class TestStackedMatchesPerItem:
    """The stacked program draw, potentials and projection check against their
    per-step, per-state and per-trial forms, on the streams verify_suite reads,
    and verify_suite's stacks of runs against its per-run loop: every float bit
    for bit and every Generator end state."""

    @pytest.mark.parametrize("n, t, k", [(4, 2, 1), (5, 2, 2), (6, 2, 2), (4, 2, 3)])
    def test_suite_streams(self, n, t, k):
        frame = build_level_frame(build_signed_decomposition(build_input_space(n, t)), k)
        dim_a = (k * n + 1) * subspace.SUITE_WORKSPACE
        depth = 3
        for seed in (0, 1, 7919):
            for idx in range(3):
                rng, ref = (SeededRng(seed).spawn("program", idx) for _ in range(2))
                programs = random_program([rng], dim_a, depth)
                expect = per_step_program(ref, dim_a, depth)
                assert programs.shape == (1, depth, dim_a, dim_a)
                assert all(np.array_equal(a, b) for a, b in zip(programs[0], expect))
                assert rng.stream.bit_generator.state == ref.stream.bit_generator.state
                run = recast_run(programs, frame.decomp.space, k, workspace_dim=subspace.SUITE_WORKSPACE)
                report = potential_from_joint(run.states[0], frame)
                assert [hexed(r) for r in report_rows(report)] == [hexed(per_state_potential(phi, frame))
                                                                   for phi in run.states[0]]
                for m in range(k + 1):
                    rng, ref = (SeededRng(seed).spawn("bounds", idx, m) for _ in range(2))
                    report = success_probability_bounds(frame, [(run_masses(run, frame), m, rng)])
                    assert excesses(report) == worst_of([per_trial_bounds(frame, run, m, ref)])
                    assert rng.stream.bit_generator.state == ref.stream.bit_generator.state


    @pytest.mark.parametrize("stack", ["one", "two", "all"])
    @pytest.mark.parametrize("runs", [1, 9, 10])
    @pytest.mark.parametrize("n, t, k", [(4, 2, 1), (4, 2, 2), (5, 2, 2), (6, 2, 2)])
    def test_suite_stacks_match_the_per_run_loop(self, n, t, k, runs, stack, monkeypatch):
        # the cap is the one size rule: a cell whose joint register is exactly
        # dim_a * dim_i admits stacks of cap // (dim_a * dim_i) runs
        depth, seed = 3, 7919
        joint = (k * n + 1) * subspace.SUITE_WORKSPACE * build_input_space(n, t).dim ** k
        size = {"one": 1, "two": 2, "all": runs}[stack]
        monkeypatch.setattr(subspace, "RUN_JOINT_DIM_CAP", size * joint)
        stacks, reports = [], []

        def spy(fn, seen):
            def wrapper(*args, **kwargs):
                seen.append(fn(*args, **kwargs))
                return seen[-1]
            return wrapper

        monkeypatch.setattr(subspace, "recast_run", spy(subspace.recast_run, stacks))
        monkeypatch.setattr(subspace, "potential_from_joint", spy(subspace.potential_from_joint, reports))
        lines = verify_suite(n, t, k, seed=seed, runs=runs, depth=depth)
        expect_lines, expect_states, expect_reports = per_run_suite(n, t, k, seed, runs, depth)
        assert [len(run.states) for run in stacks] == [min(size, runs - start) for start in range(0, runs, size)]
        assert np.array_equal(np.concatenate([run.states for run in stacks]), np.stack(expect_states))
        # one potential call per depth of each stack, each reporting on the stack's runs
        assert len(reports) == len(stacks) * (depth + 1)
        by_run = []
        for at, run in zip(range(0, len(reports), depth + 1), stacks):
            rows = [report_rows(report) for report in reports[at : at + depth + 1]]
            by_run += [[hexed(row[i]) for row in rows] for i in range(len(run.states))]
        assert by_run == [[hexed(r) for r in run_reports] for run_reports in expect_reports]
        assert [hexed(line) for line in lines] == [hexed(line) for line in expect_lines]


def pooled_calls(monkeypatch):
    """Spy on verify_suite's bounds call: each call's cases, report and the cases'
    Generator end states."""
    calls = []
    real = subspace.success_probability_bounds

    def spy(frame, cases):
        report = real(frame, cases)
        calls.append((cases, report, [rng.stream.bit_generator.state for _, _, rng in cases]))
        return report

    monkeypatch.setattr(subspace, "success_probability_bounds", spy)
    return calls


class TestAlongRunCheck:
    """verify_suite's along-run check against its direct form, for runs 0-2 and
    every m: the run's states times the dense low-span blocks, then |.|^2 summed
    per state, with the pooled report and every case's Generator end state equal
    to the calls per (run, m)."""

    @pytest.mark.parametrize("n, t, k", [(4, 2, 1), (4, 2, 2), (5, 2, 2), (6, 2, 2), (4, 2, 3)])
    def test_matches_the_direct_product(self, n, t, k, monkeypatch):
        calls = pooled_calls(monkeypatch)
        depth = 3
        # the bench's 9 runs; (4, 2, 3) takes stacks of one run, so 3 runs give runs 0-2 the same stacks
        runs = 9 if k < 3 else 3
        for seed in (0, 7919):
            calls.clear()
            verify_suite(n, t, k, seed=seed, runs=runs, depth=depth)
            frame = subspace._suite_cell(n, t, k).frame
            # one call per suite, over runs 0-2 at every m
            assert len(calls) == 1
            cases, report, ends = calls[0]
            assert [m for _, m, _ in cases] == list(range(k + 1)) * 3
            expect = []
            for at, ((masses, m, _), end) in enumerate(zip(cases, ends)):
                run = suite_run(frame, seed, at // (k + 1), depth)
                states = run.states[0]
                assert np.array_equal(masses.classes, (np.abs(states) ** 2).sum(axis=1) @ frame.classes)
                # the excesses hide the low-span masses of states far from the
                # bound, so every state's mass is compared too
                low_cols = np.hstack([dense_minus(frame)[mp] for mp in range(m + 1)])
                direct = (np.abs(states @ low_cols) ** 2).sum(axis=(1, 2))
                assert list(map(float.hex, masses.inside[m])) == list(map(float.hex, direct))
                ref = SeededRng(seed).spawn("bounds", at // (k + 1), m)
                expect.append(per_trial_bounds(frame, run, m, ref))
                assert end == ref.stream.bit_generator.state
            assert excesses(report) == worst_of(expect)


def scaled_frame(frame, scale):
    """frame with every answer block times `scale`, so each squared projection is scale^2 times as large."""
    return dataclasses.replace(frame, answer_blocks={
        js: [block * scale for block in blocks] for js, blocks in frame.answer_blocks.items()})


class TestPooledBounds:
    """verify_suite's one bounds call over runs 0-2 at every m, and its potentials,
    against the calls per (run, m) and the reports per state: every excess, level
    mass, potential and decay excess bit for bit, and every Generator end state.
    The shifted variant lowers every binomial bound by 10 and scales the answer
    blocks by 4 (exact in float64), so all three excesses are positive and each
    carries the largest value over the cases, which a passing suite's 0.0 hides."""

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("n, t, k, runs", [(4, 2, 1, 9), (5, 2, 2, 10), (6, 2, 2, 9), (4, 2, 3, 2)])
    def test_matches_the_per_case_calls(self, n, t, k, runs, seed, shifted, monkeypatch):
        depth = 3
        if shifted:
            tail, cell = subspace._binomial_tail, subspace._suite_cell
            monkeypatch.setattr(subspace, "_binomial_tail", lambda k, m: tail(k, m) - 10.0)
            monkeypatch.setattr(subspace, "_suite_cell", lambda *key: dataclasses.replace(
                cell(*key), frame=scaled_frame(cell(*key).frame, 4.0)))
        frame = subspace._suite_cell(n, t, k).frame
        potentials = []
        real = subspace.potential_from_joint
        monkeypatch.setattr(subspace, "potential_from_joint", lambda states, frame, kept: potentials.append(
            (states, len(kept), real(states, frame, kept))) or potentials[-1][-1])
        calls = pooled_calls(monkeypatch)
        lines = verify_suite(n, t, k, seed=seed, runs=runs, depth=depth)
        # the kept column masses are those of runs 0-2 only, at every depth
        assert sum(kept for _, kept, _ in potentials) == min(runs, 3) * (depth + 1)
        for states, _, report in potentials:
            assert [hexed(r) for r in report_rows(report)] == [hexed(per_state_potential(phi, frame))
                                                               for phi in states]
        assert len(calls) == 1
        cases, report, ends = calls[0]
        assert [m for _, m, _ in cases] == list(range(k + 1)) * min(runs, 3)
        expect = []
        for at, ((_, m, _), end) in enumerate(zip(cases, ends)):
            ref = SeededRng(seed).spawn("bounds", at // (k + 1), m)
            expect.append(per_trial_bounds(frame, suite_run(frame, seed, at // (k + 1), depth), m, ref))
            assert end == ref.stream.bit_generator.state
        assert excesses(report) == worst_of(expect)
        if shifted:
            assert min(report.span_excess, report.run_excess, report.projection_excess) > 0.0
        expect_lines, _, _ = per_run_suite(n, t, k, seed, runs, depth)
        assert [hexed(line) for line in lines] == [hexed(line) for line in expect_lines]


class TestOneViolation:
    """One (run, m) case pushed over its bound, among runs 0-2 at every m, fails the
    pooled line, which prints its excess, and the CLI exits 1: pooling must not
    hide a single violation.  The span check is pushed by a binomial bound between
    the two largest span masses at one m, the run check by one case's answer-class
    masses, and the projection check by one answer-block column scaled so that
    only the case with the largest squared projection onto it crosses 2^-k."""

    CLI = ["subspace", "verify", "--n", "4", "--t", "2", "--k", "2", "--runs", "3"]   # seed 0

    def fails(self, monkeypatch, capsys, field):
        calls = pooled_calls(monkeypatch)
        line = next(line for line in verify_suite(4, 2, 2, runs=3) if line.name == "probability bounds along runs")
        (_, report, _), = calls
        assert getattr(report, field) > BOUND_SLACK
        assert all(getattr(report, name) <= BOUND_SLACK for name in EXCESSES if name != field)
        assert not line.passed
        assert line.residual == getattr(report, field)
        capsys.readouterr()
        assert main(self.CLI) == 1
        assert "[FAIL] probability bounds along runs" in capsys.readouterr().out
        return report

    def test_span_check(self, monkeypatch, capsys):
        frame = subspace._suite_cell(4, 2, 2).frame
        tail = subspace._binomial_tail
        # each case's largest answer-class mass at m = 1: its span excess over a zero bound
        monkeypatch.setattr(subspace, "_binomial_tail", lambda k, m: 0.0)
        tops = sorted(per_trial_bounds(frame, suite_run(frame, 0, idx, 3), 1, SeededRng(0).spawn("bounds", idx, 1))
                      ["span_excess"] for idx in range(3))
        assert tops[-1] > tops[-2] * (1 + 1e-9)
        bound = (tops[-1] + tops[-2]) / 2
        monkeypatch.setattr(subspace, "_binomial_tail", lambda k, m: bound if m == 1 else tail(k, m))
        report = self.fails(monkeypatch, capsys, "span_excess")
        assert report.span_excess == tops[-1] - bound

    def test_run_check(self, monkeypatch, capsys):
        real = subspace.success_probability_bounds
        pushed = []

        def push(frame, cases):
            # run 1 at m = 1: its states' answer-class masses raised by 10, in this case only
            masses, m, rng = cases[4]
            pushed.append((frame, dataclasses.replace(masses, classes=masses.classes + 10.0), m))
            return real(frame, [*cases[:4], (pushed[-1][1], m, rng), *cases[5:]])

        monkeypatch.setattr(subspace, "success_probability_bounds", push)
        report = self.fails(monkeypatch, capsys, "run_excess")
        frame, masses, m = pushed[0]
        assert m == 1
        # the pooled excess is that one case's own
        alone = real(frame, [(masses, m, SeededRng(0).spawn("bounds", 1, 1))])
        assert alone.run_excess == report.run_excess

    def test_projection_check(self, monkeypatch, capsys):
        # a unit vector in a signed product block projects onto an answer block
        # with squared norm exactly 2^-k, whatever the draws, so the push scales
        # one column c of one answer block by s: a trial's squared projection
        # becomes 2^-k + (s^2 - 1)(c . psi)^2, and s is chosen so that only the
        # case with the largest (c . psi)^2 crosses 2^-k + BOUND_SLACK
        cell = subspace._suite_cell(4, 2, 2)
        frame = cell.frame
        js, answer = (1, 1), 0

        def column_scaled(scale):
            blocks = dict(frame.answer_blocks)
            block = blocks[js][answer].copy()
            block[:, 0] *= scale
            blocks[js] = [block if a == answer else b for a, b in enumerate(blocks[js])]
            return dataclasses.replace(frame, answer_blocks=blocks)

        # each case's largest (c . psi)^2, read at s = 2 from its stream after the span draws
        along = []
        for idx in range(3):
            for m in range(3):
                gen = SeededRng(0).spawn("bounds", idx, m).stream
                gen.standard_normal((subspace.SAMPLE_TRIALS, sum(len(frame.minus[mp]) for mp in range(m + 1))))
                tops = per_trial_projection(column_scaled(2.0), gen)
                along += [(tops[(js, answer)] - 0.25) / 3.0] if (js, answer) in tops else []
        second, top = sorted(along)[-2:]
        assert top > second * 1.1
        scale = math.sqrt(1.0 + BOUND_SLACK / math.sqrt(top * second))
        monkeypatch.setattr(subspace, "_suite_cell",
                            lambda *key: dataclasses.replace(cell, frame=column_scaled(scale)))
        report = self.fails(monkeypatch, capsys, "projection_excess")
        assert report.projection_excess < BOUND_SLACK * math.sqrt(top / second) * 1.01


def dense_containment_residual(frame):
    """containment_residual over the dense difference blocks."""
    worst = 0.0
    for m, cols in dense_minus(frame).items():
        high = frame.columns[:, frame.labels >= math.ceil(frame.params.t * m / 2)]
        gap = cols @ cols.T
        gap -= high @ high.T
        worst = max(worst, float(np.linalg.eigvalsh(gap).max()))
    return worst


class TestDifferenceIndices:
    """LevelFrame.minus as indices into frame.columns against the dense products of
    the signed sides, which the frame no longer stores."""

    @pytest.mark.parametrize("n, t, k", [(4, 2, 1), (5, 2, 2), (6, 2, 2), (4, 2, 3), (6, 3, 1), (6, 3, 2)])
    def test_gathers_equal_the_dense_blocks(self, n, t, k):
        decomp = build_signed_decomposition(build_input_space(n, t))
        frame = build_level_frame(decomp, k)
        dense = dense_minus(frame)
        assert sorted(frame.minus) == sorted(dense) == list(range(k + 1))
        for m, block in dense.items():
            assert frame.minus[m].dtype == np.intp
            assert np.array_equal(np.take(frame.columns, frame.minus[m], axis=1), block)
        # the growth-level columns, gathered from one full product, are the per-level products
        expect = np.hstack(list(_product_blocks(list(decomp.levels), k).values()))
        assert np.array_equal(frame.columns, expect)
        assert containment_residual(frame).hex() == dense_containment_residual(frame).hex()

    def test_swapped_indices_are_caught(self):
        frame = build_level_frame(build_signed_decomposition(build_input_space(4, 2)), 2)
        dense = dense_minus(frame)
        swapped = frame.minus[1].copy()
        swapped[[0, 5]] = swapped[[5, 0]]
        assert not np.array_equal(np.take(frame.columns, swapped, axis=1), dense[1])


def per_pick_draws(gen, widths, count):
    """_block_draws as one integers and one standard_normal call per pick."""
    picks, coeffs = [], []
    for _ in range(count):
        picks.append(int(gen.integers(len(widths))))
        coeffs.append(gen.standard_normal(widths[picks[-1]]))
    return picks, coeffs


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def next_word_is(gen, word):
    """Set gen's PCG64 state so that its next raw word is `word`: XSL-RR outputs
    rotr64(hi ^ lo, hi >> 58) of the stepped 128-bit state, so pick hi, solve for
    lo, and step the LCG back once."""
    inc = gen.bit_generator.state["state"]["inc"]
    hi = 0x9E3779B97F4A7C15
    rot = hi >> 58
    x = ((word << rot) | (word >> (64 - rot))) & (2**64 - 1) if rot else word
    stepped = hi << 64 | (x ^ hi)
    state = (stepped - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


class TestBlockDraws:
    """The projection check's block picks, two per raw word, against one integers
    and one standard_normal call per pick: picks, coefficients and the whole
    bit-generator state, uinteger included."""

    @pytest.mark.parametrize("t", [2, 3])   # 2t = 4 never rejects, 2t = 6 can
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 99, 100, 150])
    def test_match_the_per_pick_calls(self, t, buffered, count):
        decomp = build_signed_decomposition(build_input_space(6, t))
        # the signed blocks below level t in the check's key order: minus, then plus
        widths = [block.shape[1] for block in decomp.minus[:t] + decomp.plus[:t]]
        for seed in range(8):
            gen, ref = (rng_for("draws", t, count, seed).stream for _ in range(2))
            if buffered:   # one 32-bit draw buffers its word's high half
                gen.integers(17)
                ref.integers(17)
            picks, coeffs = subspace._block_draws(gen, widths, count)
            expect_picks, expect_coeffs = per_pick_draws(ref, widths, count)
            assert picks == expect_picks
            assert len(coeffs) == len(expect_coeffs)
            assert all(np.array_equal(a, b) for a, b in zip(coeffs, expect_coeffs))
            assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("size", [4, 6])
    @pytest.mark.parametrize("word", [0xDEADBEEF00000000, 0x00000000DEADBEEF, 0, 0x0000000100000001])
    def test_crafted_word_that_fails_the_fast_accept(self, size, word):
        # a zero half makes x * size = 0 (a half of 1 gives size): below size, so
        # Lemire's fast accept fails, and at size 6 the threshold 4 rejects it
        widths = [1, 3, 2, 5, 4, 6][:size]
        for count in (2, 7, 40):
            gen, ref = (rng_for("crafted-pick", size, count).stream for _ in range(2))
            next_word_is(gen, word)
            next_word_is(ref, word)
            picks, coeffs = subspace._block_draws(gen, widths, count)
            expect_picks, expect_coeffs = per_pick_draws(ref, widths, count)
            assert picks == expect_picks
            assert len(coeffs) == count and all(np.array_equal(a, b) for a, b in zip(coeffs, expect_coeffs))
            assert gen.bit_generator.state == ref.bit_generator.state


class TestSuccessBounds:
    # the shift lowers the binomial bound by 10, so every span and run excess
    # is positive and carries the largest answer-class mass it saw; random
    # joint states leave mass outside the low span at every depth, so the
    # run check's residual correction decides which depth is the worst
    @pytest.mark.parametrize("shift", [0.0, 10.0])
    @pytest.mark.parametrize("random_states", [False, True])
    @pytest.mark.parametrize("n,k,m,seed", [(4, 1, 0, 0), (4, 1, 1, 1), (5, 2, 0, 2),
                                            (5, 2, 1, 3), (4, 2, 2, 4), (4, 3, 1, 5)])
    def test_matrix_checks_match_the_per_sample_loops(self, n, k, m, seed, random_states, shift,
                                                      monkeypatch):
        tail = subspace._binomial_tail
        monkeypatch.setattr(subspace, "_binomial_tail", lambda k, m: tail(k, m) - shift)
        run = small_run(n=n, t=2, k=k, workspace=1, depth=2, seed=seed)
        if random_states:
            gen = rng_for("states", seed).stream
            shape = run.states.shape
            z = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
            z /= np.sqrt((np.abs(z) ** 2).sum(axis=(2, 3), keepdims=True))
            run = dataclasses.replace(run, states=z)
        frame = frame_of(run)
        rng, ref_rng = rng_for("matrix", seed), rng_for("matrix", seed)
        report = success_probability_bounds(frame, [(run_masses(run, frame), m, rng)])
        span, run_excess, projection = reference_bounds(frame, run, m, ref_rng)
        if shift:
            assert min(span, run_excess) > 0.0
        assert abs(report.span_excess - span) <= 1e-12
        assert abs(report.run_excess - run_excess) <= 1e-12
        assert report.projection_excess == projection
        assert rng.stream.bit_generator.state == ref_rng.stream.bit_generator.state

    @pytest.mark.parametrize("field", ["span_excess", "run_excess", "projection_excess"])
    def test_nan_excess_is_reported(self, field, monkeypatch):
        # each NaN reaches its excess, which a NaN-dropping max would report as 0.0
        run = small_run(n=4, t=2, k=2, workspace=1, depth=2, seed=6)
        frame = frame_of(run)
        if field == "span_excess":
            monkeypatch.setattr(subspace, "_binomial_tail", lambda k, m: math.nan)
        elif field == "run_excess":
            states = run.states.copy()
            states[0, -1] = np.nan
            run = dataclasses.replace(run, states=states)
        else:
            frame = dataclasses.replace(frame, answer_blocks={
                js: [np.full_like(block, np.nan) for block in blocks] for js, blocks in frame.answer_blocks.items()
            })
        report = success_probability_bounds(frame, [(run_masses(run, frame), 1, rng_for("bounds", 7))])
        assert math.isnan(getattr(report, field))

    def test_single_factor_bound_is_half(self):
        run = small_run(k=1, depth=3, seed=2)
        frame = frame_of(run)
        report = success_probability_bounds(frame, [(run_masses(run, frame), 0, rng_for("bounds", 1))])
        assert subspace._binomial_tail(1, 0) == 0.5
        assert report.span_excess <= BOUND_SLACK
        assert report.run_excess <= BOUND_SLACK
        assert report.projection_excess <= BOUND_SLACK

    def test_two_factor_bound_is_quarter(self):
        run = small_run(n=4, t=2, k=2, workspace=1, depth=2, seed=3)
        frame = frame_of(run)
        report = success_probability_bounds(frame, [(run_masses(run, frame), 0, rng_for("bounds", 2))])
        assert subspace._binomial_tail(2, 0) == 0.25
        assert max(report.span_excess, report.run_excess, report.projection_excess) <= BOUND_SLACK

    def test_binomial_tail_values(self):
        run = small_run(n=4, t=2, k=2, workspace=1, depth=1, seed=4)
        frame = frame_of(run)
        masses = run_masses(run, frame)
        report = success_probability_bounds(frame, [(masses, m, rng_for("bounds", 3, m)) for m in (0, 1, 2)])
        assert [subspace._binomial_tail(2, m) for m in (0, 1, 2)] == [0.25, 0.75, 1.0]
        assert max(report.span_excess, report.run_excess, report.projection_excess) <= BOUND_SLACK

    def test_all_m_pass_on_seeded_runs(self):
        for seed in range(3):
            run = small_run(k=1, depth=2, seed=seed + 20)
            frame = frame_of(run)
            for m in (0, 1):
                report = success_probability_bounds(frame, [(run_masses(run, frame), m, rng_for("b", seed, m))])
                assert max(report.span_excess, report.run_excess, report.projection_excess) <= BOUND_SLACK

    def test_m_out_of_range(self):
        run = small_run(k=1, depth=1)
        frame = frame_of(run)
        masses = run_masses(run, frame)
        for ms in ([2], [0, 1, 2], [-1, 0]):
            gen = rng_for("bounds", 4)
            state = gen.stream.bit_generator.state
            with pytest.raises(InstanceError, match="0..k"):
                success_probability_bounds(frame, [(masses, m, gen) for m in ms])
            assert gen.stream.bit_generator.state == state
        with pytest.raises(InstanceError, match="at least one case"):
            success_probability_bounds(frame, [])

    def test_rejects_decomposition_of_another_cell(self):
        run = small_run(n=4, t=2, k=1, depth=1)
        for n, t in [(5, 2), (6, 3), (4, 1)]:
            other = build_level_frame(build_signed_decomposition(build_input_space(n, t)), 1)
            with pytest.raises(InstanceError, match="disagree"):
                success_probability_bounds(other, [(run_masses(run, other), 0, rng_for("bounds", 5))])

    def test_rejects_frame_of_another_k(self):
        run = small_run(n=4, t=2, k=1, depth=1)
        other = build_level_frame(build_signed_decomposition(run.space), 2)
        with pytest.raises(InstanceError, match="disagree"):
            success_probability_bounds(other, [(run_masses(run, other), 0, rng_for("bounds", 6))])


# ---------------------------------------------------------------------------
# outcome-distribution distance


def reference_distance_cases(gen):
    """The distance line's draws replayed one case at a time from `gen`: one projector list per case."""
    dims = gen.integers(2, 17, size=200)
    out = [None] * 200
    for dim in sorted(set(dims.tolist())):
        at = [i for i in range(200) if dims[i] == dim]
        states = gen.standard_normal((len(at), 2, 2, dim))
        bases = gen.standard_normal((len(at), 2, dim, dim))
        order = gen.random((len(at), dim - 1))
        for row, idx in enumerate(at):
            vec, vec2 = (states[row, s, 0] + 1j * states[row, s, 1] for s in (0, 1))
            psi = vec / np.linalg.norm(vec)
            psi2 = vec2 / np.linalg.norm(vec2)
            q, _ = np.linalg.qr(bases[row, 0] + 1j * bases[row, 1])
            cuts = sorted(int(c) + 1 for c in np.argsort(order[row])[: min(3, dim) - 1])
            bounds = [0, *cuts, dim]
            tv = 0.0
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                proj = q[:, lo:hi] @ q[:, lo:hi].conj().T
                p = float(np.real(psi.conj() @ proj @ psi))
                p_prime = float(np.real(psi2.conj() @ proj @ psi2))
                tv += abs(p - p_prime)
            out[idx] = (dim, 0.5 * tv, 2.0 * float(np.linalg.norm(psi - psi2)))
    return out


def reference_variational_distance(psi, psi_prime, measurement):
    """variational_distance before its cuts, masses and norms were trimmed, kept verbatim."""
    psi = np.asarray(psi, dtype=complex)
    psi_prime = np.asarray(psi_prime, dtype=complex)
    q, cuts = measurement
    if np.abs(np.swapaxes(q, -1, -2).conj() @ q - np.eye(q.shape[-1])).max() > 1e-8:
        raise InstanceError("measurement basis is not unitary")
    if (cuts[..., 0] != 0).any() or (cuts[..., -1] != q.shape[-1]).any() or (np.diff(cuts) < 0).any():
        raise InstanceError("measurement cuts do not run from 0 to dim")
    mass = np.abs(np.stack([psi, psi_prime], axis=-2) @ q.conj()) ** 2   # |q^H psi|^2 per column
    upto = np.cumsum(np.insert(mass[..., 0, :] - mass[..., 1, :], 0, 0.0, axis=-1), axis=-1)
    tv = 0.5 * np.abs(np.diff(np.take_along_axis(upto, cuts, axis=-1), axis=-1)).sum(axis=-1)
    return tv, 2.0 * np.linalg.norm(psi - psi_prime, axis=-1)


def reference_random_projective_measurement(gen, cases, dim, parts):
    """random_projective_measurement before its cuts and bases were built in place, kept verbatim."""
    if cases < 1 or not 1 <= parts <= dim:
        raise InstanceError(f"need cases >= 1 and 1 <= parts <= dim, got {cases}, {parts}, {dim}")
    z = gen.standard_normal((cases, 2, dim, dim))
    inner = np.sort(np.argsort(gen.random((cases, dim - 1)), axis=-1)[:, : parts - 1], axis=-1)
    cuts = np.pad(inner + 1, ((0, 0), (1, 1)), constant_values=(0, dim))
    return np.linalg.qr(z[:, 0] + 1j * z[:, 1])[0], cuts


class TestDistanceAgainstReference:
    @pytest.mark.parametrize("dim", range(2, 17))
    def test_same_draws_cuts_bases_and_distances(self, dim):
        # the basis is the reference's stack before its QR, and measures in the reference's q
        for parts in range(1, min(3, dim) + 1):
            gen, ref_gen, pre_gen = (rng_for("tv-ref", dim, parts).stream for _ in range(3))
            basis, cuts = random_projective_measurement(gen, 7, dim, parts)
            ref_q, ref_cuts = reference_random_projective_measurement(ref_gen, 7, dim, parts)
            assert cuts.dtype == ref_cuts.dtype and np.array_equal(cuts, ref_cuts)
            pre = pre_gen.standard_normal((7, 2, dim, dim))
            assert np.array_equal(basis, pre[:, 0] + 1j * pre[:, 1])
            assert np.array_equal(np.linalg.qr(basis)[0], ref_q)
            assert gen.bit_generator.state == ref_gen.bit_generator.state
            z = gen.standard_normal((2, 7, dim)) + 1j * gen.standard_normal((2, 7, dim))
            psi, psi_prime = z / np.linalg.norm(z, axis=-1, keepdims=True)
            for case in (slice(None), 0):   # the batched stack and one unbatched case
                got = variational_distance(psi[case], psi_prime[case], (basis[case], cuts[case]))
                want = reference_variational_distance(psi[case], psi_prime[case], (ref_q[case], cuts[case]))
                for value, ref in zip(got, want):
                    assert value.shape == ref.shape
                    assert np.abs(value - ref).max() <= 1e-12

    def test_same_refusals(self):
        psi = np.array([1.0, 0.0])
        bad = [
            (np.ones((2, 3)), np.array([0, 3])),                # basis not square
            (np.eye(2), np.array([0, 1])),                      # cuts stop short of dim
            (np.eye(2), np.array([1, 2])),                      # cuts start past 0
            (np.eye(2), np.array([0, 2, 1, 2])),                # cuts go back
        ]
        for measurement in bad:
            for fn in (variational_distance, reference_variational_distance):
                with pytest.raises(InstanceError):
                    fn(psi, psi, measurement)
        for cases, dim, parts in [(0, 4, 2), (-1, 4, 2), (3, 4, 5), (1, 1, 2)]:
            for fn in (random_projective_measurement, reference_random_projective_measurement):
                gen = rng_for("tv-ref-bad").stream
                before = gen.bit_generator.state
                with pytest.raises(InstanceError):
                    fn(gen, cases, dim, parts)
                assert gen.bit_generator.state == before

    def test_sum_of_squares_norm_is_bit_equal_at_bench_block_widths(self):
        # every signed block width of the bench cells (n = 4, 5, 6 at t = 2)
        widths = sorted({block.shape[1]
                         for n in (4, 5, 6)
                         for decomp in [build_signed_decomposition(build_input_space(n, 2))]
                         for block in decomp.plus[:2] + decomp.minus[:2]})
        for width in widths:
            gen = rng_for("norm", width).stream
            for _ in range(200):
                coeff = gen.standard_normal(width)
                assert math.sqrt(coeff @ coeff) == np.linalg.norm(coeff)


class TestVariationalDistance:
    def test_identical_states_have_zero_distance(self):
        psi = np.array([1.0, 0.0, 0.0])
        measurement = (np.eye(3), np.array([0, 1, 3]))
        tv, bound = variational_distance(psi, psi, measurement)
        assert tv == 0.0
        assert bound == 0.0

    def test_orthogonal_states_reach_one(self):
        psi = np.array([1.0, 0.0])
        phi = np.array([0.0, 1.0])
        measurement = (np.eye(2), np.array([0, 1, 2]))
        tv, bound = variational_distance(psi, phi, measurement)
        assert abs(tv - 1.0) < 1e-12
        assert bound > tv

    def test_bound_holds_on_random_cases(self):
        for idx in range(100):
            rng = rng_for("tv", idx)
            gen = rng.stream
            dim = int(gen.integers(2, 65))
            v1 = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
            v2 = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
            psi, phi = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
            parts = int(gen.integers(2, min(5, dim) + 1))
            (basis,), (cuts,) = random_projective_measurement(rng.spawn("m").stream, 1, dim, parts)
            tv, bound = variational_distance(psi, phi, (basis, cuts))
            assert tv <= bound + 1e-12

    def test_rejects_non_measurements(self):
        psi = np.array([1.0, 0.0])
        # a basis that misses a direction, one with a column too many, then cuts that stop short
        with pytest.raises(InstanceError):
            variational_distance(psi, psi, (np.eye(2)[:, :1], np.array([0, 1])))
        with pytest.raises(InstanceError):
            variational_distance(psi, psi, (np.ones((2, 3)), np.array([0, 1, 3])))
        with pytest.raises(InstanceError):
            variational_distance(psi, psi, (np.eye(2), np.array([0, 1])))

    def test_measurement_resolves_identity(self):
        (basis,), (cuts,) = random_projective_measurement(rng_for("meas").stream, 1, 8, 3)
        q = np.linalg.qr(basis)[0]
        total = sum(q[:, lo:hi] @ q[:, lo:hi].conj().T for lo, hi in zip(cuts[:-1], cuts[1:]))
        assert np.abs(total - np.eye(8)).max() < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 7919])
    def test_batched_cases_match_the_per_case_loop(self, seed):
        rng, ref_gen = SeededRng(seed), SeededRng(seed).stream
        dims, tv, bound = distance_cases(rng)
        ref_dims, ref_tv, ref_bound = zip(*reference_distance_cases(ref_gen))
        assert dims.tolist() == list(ref_dims)
        assert np.abs(tv - ref_tv).max() <= 1e-12
        assert np.abs(bound - ref_bound).max() <= 1e-12
        assert rng.stream.bit_generator.state == ref_gen.bit_generator.state

    def test_raw_rows_are_the_last_columns_of_r(self):
        # numpy's raw mode returns R transposed: rows dim and dim + 1 are mode "r"'s last two columns
        basis, _ = random_projective_measurement(rng_for("raw").stream, 5, 6, 3)
        z = rng_for("raw-states").stream.standard_normal((2, 5, 6, 2)).view(complex)
        stacked = np.concatenate([basis, z[0], z[1]], axis=-1)
        raw = np.linalg.qr(stacked, mode="raw")[0]
        assert np.array_equal(raw[..., 6:, :], np.swapaxes(np.linalg.qr(stacked, mode="r")[..., 6:], -1, -2))

    def test_cuts_are_uniform_subsets(self):
        _, cuts = random_projective_measurement(rng_for("cuts").stream, 6000, 5, 3)
        assert (cuts[:, 0] == 0).all() and (cuts[:, -1] == 5).all()
        inner = cuts[:, 1:-1]
        assert (np.diff(inner, axis=1) > 0).all()
        assert inner.min() >= 1 and inner.max() <= 4
        pairs = list(itertools.combinations(range(1, 5), 2))
        counts = np.array([np.all(inner == pair, axis=1).sum() for pair in pairs])
        assert counts.sum() == 6000
        expected = 6000 / len(pairs)
        assert ((counts - expected) ** 2 / expected).sum() < 20.5

    @pytest.mark.parametrize("cases, dim, parts", [(0, 4, 2), (-1, 4, 2), (3, 4, 0), (3, 4, 5), (1, 1, 2)])
    def test_rejects_bad_shapes_before_any_draw(self, cases, dim, parts):
        gen = rng_for("bad-shape").stream
        before = gen.bit_generator.state
        with pytest.raises(InstanceError):
            random_projective_measurement(gen, cases, dim, parts)
        assert gen.bit_generator.state == before

    def test_each_cell_draws_its_own_cases(self, monkeypatch):
        real = subspace.distance_cases
        dims = []

        def recording(rng):
            out = real(rng)
            dims.append(out[0])
            return out

        monkeypatch.setattr(subspace, "distance_cases", recording)
        for n in (4, 5):
            verify_suite(n, 2, 1, seed=0, runs=1, depth=1)
        assert len(dims) == 2
        assert not np.array_equal(dims[0], dims[1])

    def test_stack_with_one_non_unitary_basis_measures_in_its_own_q(self):
        basis, cuts = random_projective_measurement(rng_for("stack").stream, 4, 5, 3)
        z = rng_for("stack-states").stream.standard_normal((2, 4, 5, 2)).view(complex)[..., 0]
        psi, psi_prime = z / np.linalg.norm(z, axis=-1, keepdims=True)
        basis[2, :, 1] *= 1.0 + 1e-6
        tv, _ = variational_distance(psi, psi_prime, (basis, cuts))
        ref_tv, _ = reference_variational_distance(psi, psi_prime, (np.linalg.qr(basis)[0], cuts))
        assert np.abs(tv - ref_tv).max() <= 1e-12

    def test_distance_line_can_fail(self, monkeypatch):
        real = subspace.variational_distance

        def above_bound(*args):
            _, bound = real(*args)
            return bound + 1e-6, bound

        monkeypatch.setattr(subspace, "variational_distance", above_bound)
        lines = verify_suite(4, 2, 1, seed=1, runs=1, depth=1)
        line = next(line for line in lines if line.name == "outcome-distribution distance bound")
        assert not line.passed
        assert line.residual > 0.0

    def test_nan_distance_fails_its_line(self, monkeypatch, capsys):
        # a NaN tv among finite ones must not fold away: FAIL with residual nan, exit 1
        real = subspace.variational_distance

        def one_nan(*args):
            tv, bound = real(*args)
            tv[-1] = math.nan
            return tv, bound

        monkeypatch.setattr(subspace, "variational_distance", one_nan)
        lines = verify_suite(4, 2, 1, seed=1, runs=1, depth=1)
        line = next(line for line in lines if line.name == "outcome-distribution distance bound")
        assert not line.passed
        assert math.isnan(line.residual)
        assert main(["subspace", "verify", "--n", "4", "--t", "2", "--k", "1", "--runs", "1", "--seed", "1"]) == 1
        assert "[FAIL] outcome-distribution distance bound" in capsys.readouterr().out


class TestKronColumns:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("one_column", [True, False])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_np_kron_bit_for_bit(self, k, one_column, dtype):
        gen = rng_for("kron", k, one_column, str(dtype)).stream
        blocks = []
        for _ in range(k):
            shape = (int(gen.integers(1, 7)), 1 if one_column else int(gen.integers(2, 5)))
            block = gen.standard_normal(shape)
            blocks.append(block + 1j * gen.standard_normal(shape) if dtype is complex else block)
        expect = blocks[0]
        for block in blocks[1:]:
            expect = np.kron(expect, block)
        assert np.array_equal(subspace._kron_columns(blocks), expect)


# ---------------------------------------------------------------------------
# suite driver


def nan_after_the_first_eigensolve(monkeypatch):
    """containment_residual's eigensolves after the first return NaN."""
    real, calls = np.linalg.eigvalsh, []

    def eigvalsh(a):
        calls.append(a)
        return real(a) if len(calls) == 1 else np.full(len(a), np.nan)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)


def nan_in_the_last_map(field):
    """check_unitary_maps reports `field` of its last map, (1, 1), as NaN, after the finite (0, 1) and (1, 0)."""
    def patch(monkeypatch):
        def maps(*args):
            report = real(*args)
            last = dataclasses.replace(report.checks[-1], **{field: math.nan})
            return dataclasses.replace(report, checks=(*report.checks[:-1], last))

        real = subspace.check_unitary_maps
        monkeypatch.setattr(subspace, "check_unitary_maps", maps)
    return patch


def nan_in_the_last_closed_form(monkeypatch):
    """The (1, 1) split family's closed-form norms are NaN, after the finite (0, 0), (0, 1) and (1, 0)."""
    real = subspace.deflated_norm_closed_form
    monkeypatch.setattr(subspace, "deflated_norm_closed_form",
                        lambda n, t, j, a, b: math.nan if (a, b) == (1, 1) else real(n, t, j, a, b))


class TestVerifySuite:
    def test_all_lines_pass_at_small_cell(self):
        lines = verify_suite(4, 2, 1, seed=1, runs=2, depth=2)
        assert all(line.passed for line in lines)
        names = [line.name for line in lines]
        assert len(names) == len(set(names))
        assert any("closed form" in name for name in names)

    def test_branch_line_decides_exactly(self, monkeypatch):
        # beta^2 above 2t/n by far less than BOUND_SLACK still fails the line
        def nudged(n, t, j):
            ab = alpha_beta(n, t, j)
            return dataclasses.replace(ab, beta_sq=(Fraction(2 * t, n) + Fraction(1, 10**12), ab.beta_sq[1]))

        monkeypatch.setattr(subspace, "alpha_beta", nudged)
        lines = verify_suite(4, 2, 1, seed=1, runs=1, depth=1)
        branch = next(line for line in lines if line.name == "branch weight bound")
        assert not branch.passed
        assert 0.0 <= branch.residual <= BOUND_SLACK

    def test_suite_builds_one_decomposition(self, monkeypatch):
        calls = {"decomp": 0, "chain": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(subspace, "build_signed_decomposition",
                            counted("decomp", subspace.build_signed_decomposition))
        monkeypatch.setattr(subspace, "build_subspace_chain",
                            counted("chain", subspace.build_subspace_chain))
        lines = verify_suite(6, 2, 2, runs=9)
        assert all(line.passed for line in lines)
        assert calls["decomp"] == 1
        assert calls["chain"] <= 6
        # a second suite at the same cell, at another seed, builds nothing
        first = dict(calls)
        assert all(line.passed for line in verify_suite(6, 2, 2, seed=1, runs=9))
        assert calls == first

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_suite_builds_one_product_frame(self, k, monkeypatch):
        # the growth levels and the signed sides: two product builds per
        # suite, however many checks and runs read them
        builds = []
        real = subspace._product_blocks
        monkeypatch.setattr(subspace, "_product_blocks",
                            lambda *args: builds.append(1) or real(*args))
        lines = verify_suite(4, 2, k, runs=4, depth=2)
        assert all(line.passed for line in lines)
        assert len(builds) == 2
        # a second suite at the same cell, at another seed, builds nothing
        assert all(line.passed for line in verify_suite(4, 2, k, seed=1, runs=4, depth=2))
        assert len(builds) == 2

    @pytest.mark.parametrize("n, t, k", [(4, 2, 3), (6, 1, 3), (4, 1, 4)])
    def test_cells_past_two_copies_pass(self, n, t, k):
        lines = verify_suite(n, t, k, runs=3)
        assert all(line.passed for line in lines)
        assert f"k={k}" in {line.detail for line in lines}

    @pytest.mark.parametrize("n, t, k", [(4, 2, 4), (10, 3, 2), (4, 2, 0), (4, 2, 10**9)])
    def test_cell_over_the_size_rule_is_rejected_before_any_build(self, n, t, k, monkeypatch):
        built = []
        monkeypatch.setattr(subspace, "build_split_chains", lambda *args: built.append(1))
        with pytest.raises(InstanceError):
            verify_suite(n, t, k)
        assert built == []
        assert subspace._suite_cell.cache_info().currsize == 0

    @pytest.mark.parametrize("runs, depth", [(0, 3), (-3, 3), (2, 0)])
    def test_rejects_runs_or_depth_below_one(self, runs, depth):
        # no run, or no query, would leave the along-run lines vacuous
        with pytest.raises(InstanceError, match="at least 1"):
            verify_suite(4, 2, 1, runs=runs, depth=depth)

    def test_suite_shares_its_input_space_and_potential_reports(self, monkeypatch):
        # one InputSpace per suite, and one report per run state: the cell's runs
        # fit one stack, so one potential call per depth reports on all of them
        calls = {"space": 0, "potential": 0}
        spaces = set()
        reports = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def potentials(states, frame, *column_masses):
            out = run_potential(states, frame, *column_masses)
            reports.extend(out.values)
            return out

        def recast(program, space, *args, **kwargs):
            spaces.add(id(space))
            return run_recast(program, space, *args, **kwargs)

        run_recast, run_potential = subspace.recast_run, subspace.potential_from_joint
        monkeypatch.setattr(subspace, "build_input_space",
                            counted("space", subspace.build_input_space))
        monkeypatch.setattr(subspace, "potential_from_joint", counted("potential", potentials))
        monkeypatch.setattr(subspace, "recast_run", recast)
        runs, depth = 5, 3
        lines = verify_suite(4, 2, 2, runs=runs, depth=depth)
        assert all(line.passed for line in lines)
        assert calls["space"] == 1
        assert len(spaces) == 1
        assert calls["potential"] == depth + 1
        assert len(reports) == runs * (depth + 1)
        # a second suite at the same cell, at another seed, builds nothing:
        # its runs read the same InputSpace, and only the potentials are new
        assert all(line.passed for line in verify_suite(4, 2, 2, seed=1, runs=runs, depth=depth))
        assert calls["space"] == 1
        assert len(spaces) == 1
        assert calls["potential"] == 2 * (depth + 1)
        assert len(reports) == 2 * runs * (depth + 1)

    def test_nan_states_fail_their_lines_and_exit_1(self, monkeypatch, capsys):
        # one run's last state turns NaN after the recast's own checks
        def recast(*args, **kwargs):
            run = real(*args, **kwargs)
            run.states[-1, -1] = np.nan
            return run

        real = subspace.recast_run
        monkeypatch.setattr(subspace, "recast_run", recast)
        lines = {line.name: line for line in verify_suite(4, 2, 1, runs=2)}
        for name in ("potential tail decay along runs", "probability bounds along runs"):
            assert not lines[name].passed
            assert math.isnan(lines[name].residual)
        capsys.readouterr()
        assert main(["subspace", "verify", "--n", "4", "--t", "2", "--k", "1", "--runs", "2"]) == 1
        assert "[FAIL] potential tail decay along runs: residual=nan" in capsys.readouterr().out

    @pytest.mark.parametrize("name, patch", [
        pytest.param("deflated-norm closed form", nan_in_the_last_closed_form, id="deflated-norm"),
        pytest.param("block maps scalar-times-isometry", nan_in_the_last_map("residual"), id="map-residual"),
        pytest.param("direct-copy map has unit constant", nan_in_the_last_map("constant"), id="unit-constant"),
        pytest.param("difference blocks sit in high levels", nan_after_the_first_eigensolve, id="containment"),
    ])
    def test_nan_structural_residual_fails_its_line(self, name, patch, monkeypatch, capsys):
        # Python's max(0.0, nan) is 0.0, so a plain fold would print PASS
        patch(monkeypatch)
        lines = {line.name: line for line in verify_suite(4, 2, 2, runs=1, depth=1)}
        assert not lines[name].passed
        assert math.isnan(lines[name].residual)
        assert sum(not line.passed for line in lines.values()) == 1
        subspace._suite_cell.cache_clear()
        capsys.readouterr()
        assert main(["subspace", "verify", "--n", "4", "--t", "2", "--k", "2", "--runs", "1", "--depth", "1"]) == 1
        assert f"[FAIL] {name}: residual=nan" in capsys.readouterr().out

    def test_nan_growth_ratio_is_reported(self, monkeypatch):
        # run 1's last state turns NaN, so its last growth ratio is NaN after run 0's
        # finite ones: Python's max would drop it and report a finite growth
        def recast(*args, **kwargs):
            run = real(*args, **kwargs)
            run.states[-1, -1] = np.nan
            return run

        real = subspace.recast_run
        monkeypatch.setattr(subspace, "recast_run", recast)
        lines = {line.name: line for line in verify_suite(4, 2, 1, runs=2)}
        assert math.isnan(lines["one-query growth constant (report only)"].residual)
        # finite runs report a finite growth
        monkeypatch.setattr(subspace, "recast_run", real)
        lines = {line.name: line for line in verify_suite(4, 2, 1, runs=2)}
        assert math.isfinite(lines["one-query growth constant (report only)"].residual)

    def test_lines_serialize(self):
        lines = verify_suite(4, 2, 1, seed=1, runs=1, depth=1)
        for line in lines:
            d = line.to_dict()
            assert set(d) == {"name", "passed", "residual", "detail"}


class TestSuiteCellCache:
    @pytest.mark.parametrize("n, t, k", [(4, 2, 1), (5, 2, 2), (4, 2, 3)])
    def test_warm_lines_equal_cold_lines(self, n, t, k):
        for seed in (0, 1, 7919):
            subspace._suite_cell.cache_clear()
            cold = [line.to_dict() for line in verify_suite(n, t, k, seed=seed, runs=2, depth=2)]
            verify_suite(n, t, k, seed=seed + 1000, runs=2, depth=2)
            warm = [line.to_dict() for line in verify_suite(n, t, k, seed=seed, runs=2, depth=2)]
            assert warm == cold
            assert subspace._suite_cell.cache_info().hits == 2

    @pytest.mark.parametrize("array", [
        pytest.param(lambda frame: frame.columns, id="columns"),
        pytest.param(lambda frame: frame.labels, id="labels"),
        pytest.param(lambda frame: frame.minus[1], id="minus"),
        pytest.param(lambda frame: frame.classes, id="classes"),
        pytest.param(lambda frame: frame.answer_blocks[(0, 0)][0], id="answer-block"),
        pytest.param(lambda frame: frame.decomp.plus[0], id="decomp-plus"),
        pytest.param(lambda frame: frame.decomp.levels[-1], id="decomp-level"),
        pytest.param(lambda frame: frame.decomp.chain1[1].span, id="chain-span"),
        pytest.param(lambda frame: frame.decomp.space.bits, id="space-bits"),
        pytest.param(lambda frame: frame.decomp.space.psi_one, id="space-psi"),
    ])
    def test_cached_arrays_are_read_only(self, array):
        verify_suite(4, 2, 2, runs=1, depth=1)
        frame = subspace._suite_cell(4, 2, 2).frame
        with pytest.raises(ValueError, match="read-only"):
            array(frame)[0] = 0

    def test_holds_at_most_its_maxsize(self):
        assert subspace._suite_cell.cache_info().maxsize == subspace.CELL_CACHE_SIZE == 8
