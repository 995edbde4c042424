"""Tests for the polynomial laboratory.

Frozen values were derived by hand (vertex-parabola and forced-root-pair
arguments for the degree-2 jump programs, the banded quadratic for the
interior-growth extremal) or pinned from exact-rational runs after an
independent floating-point LP cross-check.
"""
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import polylab
from ineqlab.core import InstanceError, SeededRng
from ineqlab.polylab import (
    CHAIN_TOL,
    PolyLP,
    cheb_extremal_check,
    cheb_growth_grid,
    cheb_identity_residual,
    chebyshev_closed,
    chebyshev_cosine,
    chebyshev_eval,
    cr_probe,
    extremal_sigma_lp,
    fit_shape_constant,
    full_blocks_mc,
    growth_extremal,
    lp_grid_cells,
    newton_coefficients,
    newton_eval,
    run_poly_suite,
    shape_ratio,
    simplex_max,
    verify_cheb,
    verify_lp,
    witness_chain_check,
    witness_integer_values,
)


def rng_for(name: str, seed: int = 7) -> SeededRng:
    return SeededRng(seed).spawn(name)


class TestChebyshevEval:
    def test_frozen_small_values(self):
        # 2x^2-1 at 3, 4x^3-3x at 2, 8x^4-8x^2+1 at 2
        assert chebyshev_eval(2, 3.0) == 17.0
        assert chebyshev_eval(3, 2.0) == 26.0
        assert chebyshev_eval(4, 2.0) == 97.0

    def test_endpoint_is_one_for_all_degrees(self):
        for d in range(0, 60, 5):
            assert chebyshev_eval(d, 1.0) == 1.0

    def test_parity_at_minus_one(self):
        assert chebyshev_eval(5, -1.0) == -1.0
        assert chebyshev_eval(6, -1.0) == 1.0

    def test_three_routes_agree(self):
        assert cheb_identity_residual() <= 1e-10

    def test_closed_form_handles_arrays(self):
        xs = np.array([-2.0, 0.25, 3.0])
        got = chebyshev_closed(2, xs)
        np.testing.assert_allclose(got, 2.0 * xs * xs - 1.0, atol=1e-12)

    def test_scalar_in_scalar_out(self):
        assert isinstance(chebyshev_eval(3, 0.5), float)
        assert isinstance(chebyshev_cosine(3, 0.5), float)

    def test_cosine_form_rejects_outside_points(self):
        with pytest.raises(InstanceError):
            chebyshev_cosine(4, 1.5)

    def test_negative_degree_rejected(self):
        with pytest.raises(InstanceError):
            chebyshev_eval(-1, 0.0)
        with pytest.raises(InstanceError):
            chebyshev_closed(-2, 0.0)


class TestChebGrowth:
    def test_growth_grid_margin_nonpositive(self):
        assert cheb_growth_grid(d_max=20) <= 0.0


class TestChebExtremal:
    def test_no_violations_on_small_sample(self):
        report = cheb_extremal_check(rng_for("extremal"), per_degree=20, degrees=(2, 3, 5, 8))
        assert report.violations == (0, 0, 0, 0)
        assert report.worst_margin <= CHAIN_TOL

    def test_suite_rows_count_violations_per_degree(self, monkeypatch):
        # a probe inside [-1, 1] is not covered by the dominance claim, so
        # random candidates beat T_d there at some degrees and not others
        reports = []

        def inside_probe(rng):
            report = cheb_extremal_check(rng, per_degree=20, degrees=(2, 3, 4, 5), probe_points=(0.5,))
            reports.append(report)
            return report

        monkeypatch.setattr(polylab, "cheb_extremal_check", inside_probe)
        lines, rows = verify_cheb(seed=0)
        counts = [row["violations"] for row in rows]
        assert [row["degree"] for row in rows] == [2, 3, 4, 5]
        assert counts == list(reports[0].violations)
        assert len(set(counts)) > 1
        dominance = lines[-1]
        assert dominance.name == "dominance outside the interval"
        assert sum(counts) > 0 and not dominance.passed

    def test_node_interpolation_reproduces_chebyshev(self):
        # interpolating T_d's own node values must give back T_d, which
        # meets the comparison with equality at the probe points
        from ineqlab.polylab import _barycentric_eval, _lobatto_nodes

        nodes = _lobatto_nodes(5)
        values = np.asarray(chebyshev_eval(5, nodes))
        dense = np.linspace(-1.0, 1.0, 501)
        np.testing.assert_allclose(
            _barycentric_eval(nodes, values, dense), chebyshev_eval(5, dense), atol=1e-10
        )


def reference_simplex_max(rows, rhs, objective):
    """Dense Fraction tableau with Bland's rule over all n + m columns: the
    reference for simplex_max's pivots, values and raises."""
    m = len(rows)
    n = len(objective)
    for value in rhs:
        if value < 0:
            raise InstanceError("simplex needs nonnegative right-hand sides")
    tab = [
        [Fraction(v) for v in row]
        + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        + [Fraction(rhs[i])]
        for i, row in enumerate(rows)
    ]
    zrow = [-Fraction(v) for v in objective] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    for _ in range(polylab.SIMPLEX_PIVOT_CAP):
        enter = next((j for j in range(n + m) if zrow[j] < 0), None)
        if enter is None:
            break
        leave = -1
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise InstanceError("unbounded linear program")
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        prow = tab[leave]
        for i in range(m):
            factor = tab[i][enter]
            if i != leave and factor != 0:
                tab[i] = [v - factor * w for v, w in zip(tab[i], prow)]
        factor = zrow[enter]
        if factor != 0:
            zrow = [v - factor * w for v, w in zip(zrow, prow)]
        basis[leave] = enter
    else:
        raise InstanceError("simplex pivot budget exhausted")
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tab[i][-1]
    return zrow[-1], solution


def lp_outcome(solver, rows, rhs, objective):
    """(value, solution), or (exception type, message) for a raise."""
    try:
        return solver(rows, rhs, objective)
    except InstanceError as exc:
        return type(exc), str(exc)


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def small_lps(draw):
    """Small programs whose right-hand sides are often zero, so ratio ties and
    degenerate pivots occur, and whose columns may be unbounded."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(SMALL_FRACTIONS, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(st.sampled_from([0, 0, 1, 2, Fraction(1, 2), 3]), min_size=m, max_size=m))
    objective = draw(st.lists(SMALL_FRACTIONS, min_size=n, max_size=n))
    return rows, rhs, objective


class TestSimplex:
    def test_small_program_exact_value(self):
        value, sol = simplex_max(
            [[1, 0], [0, 1], [1, 1]], [2, 3, 4], [1, 1]
        )
        assert value == Fraction(4)
        assert sol[0] + sol[1] == Fraction(4)
        assert all(0 <= v for v in sol)
        assert sol[0] <= 2 and sol[1] <= 3

    def test_zero_objective(self):
        value, sol = simplex_max([[1]], [5], [0])
        assert value == 0
        assert sol == [Fraction(0)]

    def test_unbounded_detected(self):
        with pytest.raises(InstanceError, match="^unbounded linear program$"):
            simplex_max([[-1]], [0], [1])

    def test_negative_rhs_rejected(self):
        with pytest.raises(InstanceError):
            simplex_max([[1]], [-1], [1])

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(small_lps(), st.sampled_from([None, None, None, 0, 1, 2, 3]))
    def test_matches_fraction_reference(self, lp, cap):
        # same value, same solution, same raise and message, also when the
        # pivot budget runs out part way
        budget = polylab.SIMPLEX_PIVOT_CAP if cap is None else cap
        with mock.patch.object(polylab, "SIMPLEX_PIVOT_CAP", budget):
            assert lp_outcome(simplex_max, *lp) == lp_outcome(reference_simplex_max, *lp)

    def test_matches_reference_on_jump_and_growth_programs(self, monkeypatch):
        captured = []
        monkeypatch.setattr(polylab, "simplex_max", lambda *lp: captured.append(lp) or simplex_max(*lp))
        extremal_sigma_lp(8, 32, 1)
        extremal_sigma_lp(2, 16, 2)
        growth_extremal(16, 4)
        assert len(captured) == 3
        for lp in captured:
            assert simplex_max(*lp) == reference_simplex_max(*lp)

    def test_pivot_budget_exhausted_below_the_pivot_count(self, monkeypatch):
        # max x0 + 2 x1 with x0 <= 2, x1 <= 3, x0 + x1 <= 4: Bland's rule
        # enters x0, then x1, then the first slack; the cap also counts the
        # final optimality check, so three pivots need a cap of four
        lp = ([[1, 0], [0, 1], [1, 1]], [2, 3, 4], [1, 2])
        for solver in (simplex_max, reference_simplex_max):
            monkeypatch.setattr(polylab, "SIMPLEX_PIVOT_CAP", 4)
            assert solver(*lp) == (Fraction(7), [Fraction(1), Fraction(3)])
            monkeypatch.setattr(polylab, "SIMPLEX_PIVOT_CAP", 3)
            with pytest.raises(InstanceError, match="^simplex pivot budget exhausted$"):
                solver(*lp)


def product_formula(nodes, s, x):
    out = Fraction(1)
    for u in nodes:
        if u != s:
            out *= Fraction(x - u) / (s - u)
    return out


class TestLagrangeRow:
    @pytest.mark.parametrize("nodes", [range(1), range(3), range(13), range(25), range(40, 49)])
    def test_matches_product_formula(self, nodes):
        lo, hi = nodes[0], nodes[-1]
        points = [Fraction(x) for x in range(lo - 3, hi + 4)]          # outside and at the nodes
        points += [Fraction(2 * x + 1, 2) for x in range(lo - 3, hi + 3)]   # half-integers
        for x in points:
            w, den = polylab._lagrange_row(nodes, x)
            assert den > 0
            assert len(w) == len(nodes)
            assert [Fraction(v, den) for v in w] == [product_formula(nodes, s, x) for s in nodes], x

    def test_node_gives_unit_vector(self):
        nodes = range(5, 12)
        for k, s in enumerate(nodes):
            w, den = polylab._lagrange_row(nodes, s)
            assert [Fraction(v, den) for v in w] == [int(j == k) for j in range(len(nodes))]

    def test_integer_point_denominator_is_d_factorial(self):
        # D! L_s(i) = (-1)^(D-s) C(D, s) prod_{u != s} (i - u) is an integer
        w, den = polylab._lagrange_row(range(9), 20)
        assert den == math.factorial(8)
        assert w[3] == (-1) ** 5 * math.comb(8, 3) * math.prod(20 - u for u in range(9) if u != 3)


class TestJumpLP:
    def test_frozen_degree_two_values(self):
        # single forced root: the best quadratic is the vertex parabola
        # x(n_dom - x) scaled to peak at 1, evaluated at 8
        assert extremal_sigma_lp(2, 16, 1).sigma == Fraction(1)
        assert extremal_sigma_lp(2, 32, 1).sigma == Fraction(3, 4)
        assert extremal_sigma_lp(2, 48, 1).sigma == Fraction(5, 9)
        assert extremal_sigma_lp(2, 64, 1).sigma == Fraction(7, 16)

    def test_frozen_forced_root_pair_values(self):
        # two forced roots leave p = c x(x-1); the far endpoint binds c,
        # so sigma = 16*15 / (N(N-1)) once N > 16
        assert extremal_sigma_lp(2, 16, 2).sigma == Fraction(1)
        assert extremal_sigma_lp(2, 32, 2).sigma == Fraction(15, 62)
        assert extremal_sigma_lp(2, 48, 2).sigma == Fraction(5, 47)
        assert extremal_sigma_lp(2, 64, 2).sigma == Fraction(5, 84)

    def test_frozen_quartic_cell(self):
        assert extremal_sigma_lp(4, 64, 3).sigma == Fraction(55, 188)

    def test_no_prefix_reaches_one(self):
        lp = extremal_sigma_lp(4, 16, 0)
        assert lp.sigma == Fraction(1)

    def test_degenerate_degree_forces_zero(self):
        lp = extremal_sigma_lp(2, 32, 3)
        assert lp.sigma == 0
        assert all(v == 0 for v in lp.node_values)

    def test_witness_within_bounds_and_hits_sigma(self):
        lp = extremal_sigma_lp(8, 32, 1)
        values = witness_integer_values(lp)
        assert len(values) == 33
        assert all(0 <= v <= 1 for v in values)
        assert values[8 * lp.m] == lp.sigma   # the objective point 8m
        assert values[0] == 0

    def test_prefix_is_zero(self):
        lp = extremal_sigma_lp(12, 32, 3)
        values = witness_integer_values(lp)
        assert values[0] == values[1] == values[2] == 0

    def test_monotone_in_degree(self):
        sigmas = [extremal_sigma_lp(deg, 32, 1).sigma for deg in (2, 4, 8)]
        assert sigmas[0] <= sigmas[1] <= sigmas[2]

    def test_monotone_in_prefix(self):
        sigmas = [extremal_sigma_lp(8, 32, m).sigma for m in (0, 1, 2, 3)]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_preconditions(self):
        with pytest.raises(InstanceError):
            extremal_sigma_lp(30, 64, 1)     # degree cap
        with pytest.raises(InstanceError):
            extremal_sigma_lp(8, 80, 1)      # domain cap
        with pytest.raises(InstanceError):
            extremal_sigma_lp(8, 16, 3)      # 8m > N
        with pytest.raises(InstanceError):
            extremal_sigma_lp(20, 16, 1)     # D > N

    def test_grid_is_feasible_and_nonempty(self):
        cells = lp_grid_cells()
        assert len(cells) == 99
        assert all(deg <= n_dom and 8 * m <= n_dom for deg, n_dom, m in cells)

    @pytest.mark.parametrize(
        "cell",
        # a deep prefix at N = 64, then every grid cell with N <= 32, D <= 12 and
        # a nonzero program (D >= m); HiGHS loses accuracy in this basis once N >= 48
        [(4, 64, 3), (8, 32, 1)]
        + [c for c in lp_grid_cells() if c[1] <= 32 and c[2] <= c[0] <= 12 and c != (8, 32, 1)],
    )
    def test_float_lp_cross_check(self, cell):
        # same program through an independent floating-point solver
        linprog = pytest.importorskip("scipy.optimize").linprog
        deg, n_dom, m = cell
        nodes = list(range(deg + 1))
        free = list(range(m, deg + 1))

        def lag(s, x):
            out = 1.0
            for u in nodes:
                if u != s:
                    out *= (x - u) / (s - u)
            return out

        a_ub = []
        b_ub = []
        for i in range(deg + 1, n_dom + 1):
            row = [lag(s, float(i)) for s in free]
            a_ub.append(row)
            b_ub.append(1.0)
            a_ub.append([-v for v in row])
            b_ub.append(0.0)
        c = [-lag(s, float(8 * m)) for s in free]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
        assert res.status == 0
        exact = float(extremal_sigma_lp(deg, n_dom, m).sigma)
        assert abs(-res.fun - exact) <= 1e-7


class TestNewton:
    def test_divided_differences_of_square(self):
        assert newton_coefficients([0, 1, 4], 0) == [Fraction(0), Fraction(1), Fraction(1)]

    def test_eval_matches_square(self):
        coef = newton_coefficients([0, 1, 4], 0)
        xs = np.array([0.0, 0.5, 3.0, -2.0])
        np.testing.assert_allclose(newton_eval(coef, 0, xs), xs * xs, atol=1e-12)

    def test_constant(self):
        out = newton_eval([Fraction(5)], 3, np.array([0.0, 10.0]))
        np.testing.assert_allclose(out, [5.0, 5.0])

    def test_interpolation_reproduces_inputs(self):
        values = [Fraction(1, 3), Fraction(-2), Fraction(7, 5), Fraction(0)]
        coef = newton_coefficients(values, 2)
        got = newton_eval(coef, 2, np.arange(2.0, 6.0))
        np.testing.assert_allclose(got, [float(v) for v in values], atol=1e-9)

    def test_exact_at_integer_points(self):
        values = [Fraction(1, 3), Fraction(-2), Fraction(7, 5), Fraction(0)]
        coef = newton_coefficients(values, 2)
        assert [newton_eval(coef, 2, x) for x in range(2, 6)] == values
        # beyond the nodes too: q(x) = x^2 has Newton coefficients 0, 1, 1 on 0, 1, 2
        assert newton_eval([Fraction(0), Fraction(1), Fraction(1)], 0, 10**12) == 10**24


class TestWitnessChain:
    def test_chain_passes_with_generous_constants(self):
        lp = extremal_sigma_lp(12, 32, 1)
        chain = witness_chain_check(lp, 10, cr_a=10.0, cr_b=1.0)
        assert chain.jump_margin <= CHAIN_TOL
        assert chain.integer_cap_margin <= CHAIN_TOL
        assert chain.real_cap_margin <= CHAIN_TOL
        assert chain.extremal_margin <= CHAIN_TOL
        assert chain.growth_margin <= CHAIN_TOL

    def test_single_root_jump_step_is_tight(self):
        # with one forced root the first step divides by exactly 8m, so the
        # margin is exact zero in rational arithmetic
        lp = extremal_sigma_lp(8, 32, 1)
        chain = witness_chain_check(lp, 10, cr_a=10.0, cr_b=1.0)
        assert chain.jump_margin == 0.0

    def test_preconditions(self):
        lp = extremal_sigma_lp(8, 32, 1)
        with pytest.raises(InstanceError):
            witness_chain_check(lp, 9, 10.0, 1.0)    # E too small
        with pytest.raises(InstanceError):
            witness_chain_check(lp, 17, 10.0, 1.0)   # E > N/(2m)
        no_prefix = extremal_sigma_lp(8, 32, 0)
        with pytest.raises(InstanceError):
            witness_chain_check(no_prefix, 10, 10.0, 1.0)


class TestShapeBound:
    def test_vacuous_cells_return_none(self):
        assert shape_ratio(extremal_sigma_lp(8, 32, 0), 8) is None
        assert shape_ratio(extremal_sigma_lp(2, 32, 3), 8) is None

    def test_fit_dominates_every_cell(self):
        lps = [extremal_sigma_lp(deg, 32, m) for deg in (4, 8) for m in (1, 2)]
        c_fit, used = fit_shape_constant(lps)
        assert used == 8
        for lp in lps:
            for e_val in (8, 10):
                ratio = shape_ratio(lp, e_val)
                assert ratio is not None and ratio <= c_fit

    def test_fit_needs_content(self):
        with pytest.raises(InstanceError):
            fit_shape_constant([extremal_sigma_lp(4, 16, 0)])


class TestGrowthExtremal:
    def test_frozen_banded_quadratic(self):
        # vertex parabola A - B(x - 7.5)^2 with p(7)=p(8)=1 and p(0)=0
        # gives A = 1 + 1/224, so the growth value is 2A - 1 = 113/112
        assert abs(growth_extremal(8, 2) - 113.0 / 112.0) <= 1e-12

    def test_linear_cannot_grow(self):
        assert growth_extremal(12, 1) == 1.0

    def test_preconditions(self):
        with pytest.raises(InstanceError):
            growth_extremal(8, 0)
        with pytest.raises(InstanceError):
            growth_extremal(8, 9)


class TestCrProbe:
    def test_small_probe_structure(self):
        report = cr_probe(rng_for("probe"), n_values=(16,), d_factors=(1, 2), sample_count=4)
        assert report.a > 0
        assert report.b >= 0
        assert report.stability == 0.0   # single domain size, single slope
        assert len(report.per_n_slopes) == 1
        assert len(report.points) >= 10

    def test_extra_points_enter_the_envelope(self):
        extra = [(16, 4, 50.0)]   # absurdly large: must lift the intercept
        report = cr_probe(rng_for("probe"), n_values=(16,), d_factors=(1,), sample_count=2,
                          extra_points=extra)
        assert (16, 4, 50.0) in report.points
        assert report.a * math.exp(report.b * 1.0) >= math.exp(50.0) * 0.99

    def test_deterministic_under_seed(self):
        one = cr_probe(rng_for("probe"), n_values=(16,), d_factors=(1, 2), sample_count=4)
        two = cr_probe(rng_for("probe"), n_values=(16,), d_factors=(1, 2), sample_count=4)
        assert one == two


class TestBlocks:
    def test_small_mc_passes(self):
        report = full_blocks_mc(rng_for("blocks"), k=10, t=2, n=40, samples=500)
        assert report.p_block_full >= 0.9
        assert report.p_half_full >= 1 / 9

    def test_deterministic_under_seed(self):
        one = full_blocks_mc(rng_for("blocks"), k=5, t=2, n=40, samples=200)
        two = full_blocks_mc(rng_for("blocks"), k=5, t=2, n=40, samples=200)
        assert one == two

    def test_sparse_blocks_rejected(self):
        with pytest.raises(InstanceError):
            full_blocks_mc(rng_for("blocks"), k=5, t=3, n=40, samples=100)


class TestSuites:
    def test_cheb_suite_all_pass(self):
        lines, rows = run_poly_suite("cheb", seed=0)
        assert len(lines) == 4
        assert all(line.passed for line in lines)
        assert rows

    def test_blocks_suite_all_pass(self):
        lines, rows = run_poly_suite("blocks", seed=0)
        assert all(line.passed for line in lines)
        assert rows[0]["k"] == 50 and rows[0]["n"] == 64

    def test_lp_suite_small_grid(self):
        cells = [(2, 16, 0), (2, 16, 1), (4, 16, 1), (4, 16, 2), (2, 32, 3), (8, 32, 1)]
        lines, rows = verify_lp(seed=0, cells=cells, chain_cells=((8, 32, 1),),
                                probe_n_values=(16,))
        assert len(lines) == 6
        assert all(line.passed for line in lines)
        assert len(rows) == len(cells)
        assert {"D", "N", "m", "sigma"} <= set(rows[0])

    def test_witness_line_covers_chain_cells(self, monkeypatch):
        seen = []

        def recording(lp):
            seen.append((lp.D, lp.N, lp.m))
            return witness_integer_values(lp)

        monkeypatch.setattr(polylab, "witness_integer_values", recording)
        lines, rows = verify_lp(seed=0, cells=[(2, 16, 1)], chain_cells=((8, 32, 1),),
                                probe_n_values=(16,))
        assert seen == [(2, 16, 1), (8, 32, 1)]
        assert lines[0].detail == "2 cells"
        assert len(rows) == 1

    def test_witness_line_decides_exactly(self, monkeypatch):
        # an excess far below any float tolerance still fails the line
        def nudged(lp):
            return witness_integer_values(lp) + [1 + Fraction(1, 10**12)]

        monkeypatch.setattr(polylab, "witness_integer_values", nudged)
        lines, _ = verify_lp(seed=0, cells=[(2, 16, 0), (2, 16, 1)], chain_cells=())
        witness = lines[0]
        assert witness.name == "witness stays inside [0,1]"
        assert not witness.passed
        assert witness.residual == float(Fraction(1, 10**12))

    def test_unknown_suite_rejected(self):
        with pytest.raises(InstanceError):
            run_poly_suite("nope")
