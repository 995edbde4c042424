"""Tests for the polynomial laboratory.

Frozen values were derived by hand (vertex-parabola and forced-root-pair
arguments for the degree-2 jump programs, the banded quadratic for the
interior-growth extremal) or pinned from exact-rational runs after an
independent floating-point LP cross-check.
"""
import functools
import itertools
import math
import operator
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import polylab
from ineqlab.core import InstanceError
from ineqlab.polylab import (
    BLOCKS_GRID,
    CHAIN_CELLS,
    CHAIN_TOL,
    IDENTITY_RTOL,
    PolyLP,
    _lobatto_nodes,
    block_full_rate,
    cheb_dominance_excess,
    cheb_growth_grid,
    cheb_identity_residual,
    chebyshev_closed,
    chebyshev_cosine,
    chebyshev_eval,
    cr_probe,
    extremal_sigma_lp,
    fit_shape_constant,
    growth_extremal,
    half_full_rate,
    lagrange_basis,
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
        excess = cheb_dominance_excess(degrees=(2, 3, 5, 8))
        assert list(excess) == [2, 3, 5, 8]
        assert max(excess.values()) <= IDENTITY_RTOL

    def test_basis_alternates_outside_the_interval(self):
        # sign l_k(x) = (-1)^k right of 1 and (-1)^(d+k) left of -1, so the
        # worst node values are T_d's own, (-1)^k
        for d in (2, 5, 12):
            basis = lagrange_basis(_lobatto_nodes(d), np.array([1.01, 2.0, -1.01, -2.0]))
            alternating = (-1.0) ** np.arange(d + 1)
            assert (np.sign(basis[:2]) == alternating).all()
            assert (np.sign(basis[2:]) == (-1.0) ** d * alternating).all()

    def test_suite_rows_count_violations_per_degree(self, monkeypatch):
        # inside [-1, 1] the claim does not hold: the worst node-bounded value
        # at 0.5 is above 1 except where 0.5 is itself a node (3 | d), and
        # |T_d(0.5)| is at most 1
        monkeypatch.setattr(polylab, "cheb_dominance_excess",
                            functools.partial(cheb_dominance_excess, probe_points=(0.5,)))
        lines, rows = verify_cheb()
        assert [row["degree"] for row in rows] == list(range(2, 13))
        assert [row["degree"] for row in rows if row["excess"] > IDENTITY_RTOL] == [
            d for d in range(2, 13) if d % 3]
        dominance = lines[-1]
        assert dominance.name == "dominance outside the interval"
        assert not dominance.passed
        assert dominance.residual == max(row["excess"] for row in rows)

    def test_node_interpolation_reproduces_chebyshev(self):
        # interpolating T_d's own node values must give back T_d, which
        # meets the comparison with equality at the probe points
        nodes = _lobatto_nodes(5)
        values = np.asarray(chebyshev_eval(5, nodes))
        dense = np.linspace(-1.0, 1.0, 501)
        np.testing.assert_allclose(lagrange_basis(nodes, dense) @ values, chebyshev_eval(5, dense), atol=1e-10)


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


def tableau_simplex_max(rows, rhs, objective):
    """Primal simplex with Bland's rule, exact over integer rows.

    The tableau keeps the nonbasic columns and the right-hand side; each row,
    the objective row last, holds Python-int numerators over one positive
    denominator, so every sign and ratio test, and so every pivot, is the one
    of the Fraction tableau.  Requires every right-hand side to be nonnegative
    so the slack basis is feasible; that holds for all programs built here.
    """
    # the full m + 1 row integer tableau that simplex_max replaced, kept
    # verbatim (the pivot cap read from polylab) as the reference for its pivots
    m = len(rows)
    n = len(objective)
    for value in rhs:
        if value < 0:
            raise InstanceError("simplex needs nonnegative right-hand sides")
    tab = [_integer_row([*row, b]) for row, b in zip(rows, rhs)]
    tab.append(_integer_row([-Fraction(v) for v in objective] + [0]))
    cols = list(range(n))            # variable held by each tableau column
    basis = list(range(n, n + m))    # variable held by each row
    for _ in range(polylab.SIMPLEX_PIVOT_CAP):
        entering = [(cols[j], j) for j in range(n) if tab[m][0][j] < 0]
        if not entering:
            break
        c = min(entering)[1]   # Bland: the lowest-index variable
        leave = -1
        for i in range(m):
            row = tab[i][0]
            # b / a against the best ratio, both a > 0: the denominators cancel
            if row[c] > 0 and (leave < 0 or row[-1] * best[c] < best[-1] * row[c] or (
                    row[-1] * best[c] == best[-1] * row[c] and basis[i] < basis[leave])):
                leave, best = i, row
        if leave < 0:
            raise InstanceError("unbounded linear program")
        # over its entry p, the pivot row holds 1/p in column c, now the leaving variable's
        prow, p = list(best), best[c]
        prow[c] = tab[leave][1]
        for i, (row, den) in enumerate(tab):
            f = row[c]
            if i != leave and f:
                new = [p * v - f * w for v, w in zip(row, prow)]
                new[c] = -f * prow[c]
                tab[i] = _reduced(new, den * p)
        tab[leave] = _reduced(prow, p)
        cols[c], basis[leave] = basis[leave], cols[c]
    else:
        raise InstanceError("simplex pivot budget exhausted")
    solution = [Fraction(0)] * n
    for (row, den), var in zip(tab, basis):
        if var < n:
            solution[var] = Fraction(row[-1], den)
    return Fraction(tab[m][0][-1], tab[m][1]), solution


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    g = math.gcd(den, *nums)
    return ([v // g for v in nums], den // g) if g > 1 else (nums, den)


def _integer_row(values) -> tuple[list[int], int]:
    """Numerators over one denominator, the least common one reduced by the gcd."""
    values = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (den // v.denominator) for v in values], den)


@pytest.fixture(scope="module")
def suite_solves():
    """Every program the LP suite solves, with simplex_max's answer: the 99
    grid cells (96 reach the solver), the three chain cells again and the
    nine growth cells of cr_probe, 108 in all; and each grid cell's PolyLP."""
    captured, solved = [], {}
    solve = polylab.simplex_max

    def recording(*lp):
        captured.append((lp, solve(*lp)))
        return captured[-1][1]

    with mock.patch.object(polylab, "simplex_max", recording):
        for cell in [*lp_grid_cells(), *CHAIN_CELLS]:
            solved[cell] = extremal_sigma_lp(*cell)
        growth_extremal.cache_clear()   # an earlier test may have solved some cells
        cr_probe()
    return captured, solved


@pytest.fixture(scope="module")
def captured_lps(suite_solves):
    return suite_solves[0]


@pytest.fixture(scope="module")
def grid_lps(suite_solves):
    """The solved program of every grid cell, by cell; the chain cells are among them."""
    return suite_solves[1]


EXHAUSTED = (InstanceError, "simplex pivot budget exhausted")


def pivot_cap_outcomes(solver, lp, cap):
    with mock.patch.object(polylab, "SIMPLEX_PIVOT_CAP", cap):
        return lp_outcome(solver, *lp)


def least_cap(lp):
    """The least pivot cap under which simplex_max solves lp: one more than its
    pivot count, since the cap also counts the final optimality check."""
    lo, hi = 0, 1   # a cap of lo fails (a cap of 0 always does), hi is tried next
    while pivot_cap_outcomes(simplex_max, lp, hi) == EXHAUSTED:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pivot_cap_outcomes(simplex_max, lp, mid) == EXHAUSTED:
            lo = mid
        else:
            hi = mid
    return hi


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


MULTIPLIERS = st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(3, 2)])


@st.composite
def structured_lps(draw):
    """Programs shaped like the jump and growth LPs, in shuffled row order: unit
    rows, rows along one direction with different multipliers of both signs
    (a two-sided bound is an opposite-sign pair) or of one sign, and zero rows."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, n + 1))):
        j = draw(st.integers(0, n - 1))
        lam = draw(MULTIPLIERS) * draw(st.sampled_from([1, -1]))
        rows.append([lam if k == j else 0 for k in range(n)])
    for _ in range(draw(st.integers(1, 3))):
        u = draw(st.lists(SMALL_FRACTIONS, min_size=n, max_size=n))
        signs = draw(st.sampled_from([(1, -1), (-1, 1), (1, -1, -1), (1, 1), (-1, -1), (1, 1, -1, -1)]))
        rows += [[sign * draw(MULTIPLIERS) * v for v in u] for sign in signs]
    rows += [[0] * n for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    rhs = draw(st.lists(st.sampled_from([0, 0, 1, 2, Fraction(1, 2), 3]), min_size=len(rows), max_size=len(rows)))
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

    # each ragged program is refused before any pivot, so also under a pivot cap of 0
    @pytest.mark.parametrize("lp, message", [
        (([[1, 2]], [1], [1]), "every row as long as the objective"),        # was value 2 at x = [1]
        (([[1]], [1], [1, 1]), "every row as long as the objective"),        # was (0, [1, 0]), unbounded
        (([[1]], [1, 5], [1]), "one right-hand side per row"),               # the 5 was dropped
    ])
    def test_ragged_program_rejected(self, monkeypatch, lp, message):
        monkeypatch.setattr(polylab, "SIMPLEX_PIVOT_CAP", 0)
        with pytest.raises(InstanceError, match=message):
            simplex_max(*lp)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(small_lps(), st.sampled_from([None, None, None, 0, 1, 2, 3]))
    def test_matches_fraction_reference(self, lp, cap):
        # same value, same solution, same raise and message, also when the
        # pivot budget runs out part way
        budget = polylab.SIMPLEX_PIVOT_CAP if cap is None else cap
        with mock.patch.object(polylab, "SIMPLEX_PIVOT_CAP", budget):
            assert lp_outcome(simplex_max, *lp) == lp_outcome(reference_simplex_max, *lp)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(structured_lps(), st.sampled_from([None, None, None, 0, 1, 2, 3]))
    def test_structured_programs_match_fraction_reference(self, lp, cap):
        # rows that share a direction share one dot product per pivot in
        # simplex_max, and each is its own row of the reference tableau
        budget = polylab.SIMPLEX_PIVOT_CAP if cap is None else cap
        with mock.patch.object(polylab, "SIMPLEX_PIVOT_CAP", budget):
            assert lp_outcome(simplex_max, *lp) == lp_outcome(reference_simplex_max, *lp)

    def test_matches_reference_on_jump_and_growth_programs(self, monkeypatch):
        captured = []
        monkeypatch.setattr(polylab, "simplex_max", lambda *lp: captured.append(lp) or simplex_max(*lp))
        extremal_sigma_lp(8, 32, 1)
        extremal_sigma_lp(2, 16, 2)
        growth_extremal.cache_clear()   # an earlier test may have solved (16, 4)
        growth_extremal(16, 4)
        assert len(captured) == 3
        for lp in captured:
            assert simplex_max(*lp) == reference_simplex_max(*lp)

    def test_matches_tableau_on_suite_programs(self, captured_lps):
        assert len(captured_lps) == 108
        for lp, answer in captured_lps:
            assert tableau_simplex_max(*lp) == answer

    # the poly-lp benchmark cells with D >= m, then the chain cells
    @pytest.mark.parametrize("cell", [
        (2, 32, 2), (24, 32, 2), (4, 48, 3), (2, 48, 1), (4, 48, 1), (20, 48, 2), *CHAIN_CELLS,
    ])
    def test_same_pivot_count_as_tableau(self, monkeypatch, cell):
        captured = []
        monkeypatch.setattr(polylab, "simplex_max", lambda *lp: captured.append(lp) or simplex_max(*lp))
        extremal_sigma_lp(*cell)
        (lp,) = captured
        cap = least_cap(lp)
        for solver in (simplex_max, tableau_simplex_max):
            assert pivot_cap_outcomes(solver, lp, cap - 1) == EXHAUSTED
            assert pivot_cap_outcomes(solver, lp, cap) == simplex_max(*lp)

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


def integer_product_formula(nodes, s, x):
    """L_s(x) at an integer x as one quotient of two integer products."""
    return Fraction(math.prod(x - u for u in nodes if u != s), math.prod(s - u for u in nodes if u != s))


def prefix_suffix_row(nodes, x):
    """The Lagrange row in the prefix and suffix product form that _lagrange_row replaced."""
    x = Fraction(x)
    d = len(nodes) - 1
    factors = [x.numerator - u * x.denominator for u in nodes]
    prefix = list(itertools.accumulate(factors[:-1], operator.mul, initial=1))
    suffix = list(itertools.accumulate(reversed(factors[1:]), operator.mul, initial=1))[::-1]
    w = [(-1) ** (d - k) * math.comb(d, k) * prefix[k] * suffix[k] for k in range(d + 1)]
    return w, math.factorial(d) * x.denominator**d


def rebuilt_witness(lp):
    """Witness values at 0..N as witness_integer_values built them before the
    LP kept its own: each row at D+1..N built again, per call."""
    scaled, q = _integer_row(lp.node_values)
    out = list(lp.node_values)
    for i in range(lp.D + 1, lp.N + 1):
        w, den = prefix_suffix_row(range(lp.D + 1), i)
        out.append(Fraction(sum(a * b for a, b in zip(w, scaled)), den * q))
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

    @pytest.mark.parametrize("d", range(polylab.LP_DEGREE_CAP + 1))
    def test_every_integer_of_the_jump_domain(self, d):
        # the nodes 0..d give unit vectors, every other integer up to 64 a row over d!
        nodes = range(d + 1)
        for x in range(polylab.LP_DOMAIN_CAP + 1):
            w, den = polylab._lagrange_row(nodes, x)
            assert [Fraction(v, den) for v in w] == [integer_product_formula(nodes, s, x) for s in nodes], x
            assert den == (1 if x <= d else math.factorial(d))

    @pytest.mark.parametrize("n, d", [(n, min(f * math.isqrt(n), n)) for n in (16, 32, 64) for f in (1, 2, 3)])
    def test_growth_program_points(self, n, d):
        # the shifted nodes n-d..n of the growth LPs, at 0..n-d-1 and the target n - 1/2
        nodes = range(n - d, n + 1)
        for x in [*range(n - d), Fraction(2 * n - 1, 2)]:
            w, den = polylab._lagrange_row(nodes, x)
            assert [Fraction(v, den) for v in w] == [product_formula(nodes, s, x) for s in nodes], x


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

    def test_witness_matches_rows_rebuilt_per_call(self, grid_lps):
        assert len(grid_lps) == 99   # the chain cells are grid cells
        for cell, lp in grid_lps.items():
            assert witness_integer_values(lp) == rebuilt_witness(lp), cell

    def test_each_row_built_once(self, monkeypatch):
        # one row per integer D+1..N and one at 8m; the witness builds none
        built = []
        row = polylab._lagrange_row
        monkeypatch.setattr(polylab, "_lagrange_row", lambda *args: built.append(args[1]) or row(*args))
        lp = extremal_sigma_lp(12, 32, 1)
        assert built == [*range(13, 33), 8]
        assert witness_integer_values(lp) == rebuilt_witness(lp)
        assert len(built) == 21

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

    def test_each_cell_solved_once_per_process(self, monkeypatch):
        # the LP depends on (n, d) alone, so repeated probes reuse its value
        solved = []
        monkeypatch.setattr(polylab, "simplex_max", lambda *lp: solved.append(1) or simplex_max(*lp))
        growth_extremal.cache_clear()
        probes = [cr_probe(n_values=(16,), d_factors=(1, 2)) for _ in range(2)]
        assert len(solved) == 2   # (16, 4) and (16, 8), not once per probe
        assert probes[0] == probes[1]


class TestCrProbe:
    def test_small_probe_structure(self):
        report = cr_probe(n_values=(16,), d_factors=(1, 2))
        assert report.a > 0
        assert report.b >= 0
        assert report.stability == 0.0   # single domain size, single slope
        assert len(report.per_n_slopes) == 1
        assert report.points == tuple((16, d, math.log(growth_extremal(16, d))) for d in (4, 8))

    def test_envelope_dominates_every_cell(self):
        report = cr_probe(n_values=(16, 32), d_factors=(1, 2, 3))
        assert len(report.points) == 6
        for n, d, v in report.points:
            assert v <= math.log(report.a) + report.b * d * d / n + 1e-12


def hypergeometric_half_rate(k, t, n):
    """Pr[at least ceil(k/2) blocks full] by enumerating every count vector."""
    ones = 4 * k * t
    favourable = sum(
        math.prod(math.comb(n, c) for c in counts)
        for counts in itertools.product(range(n + 1), repeat=k)
        if sum(counts) == ones and sum(c >= t for c in counts) >= (k + 1) // 2
    )
    return Fraction(favourable, math.comb(k * n, ones))


class TestBlocks:
    def test_small_cell_passes(self):
        assert block_full_rate(10, 2, 40) >= 0.9
        assert half_full_rate(10, 2, 40) >= 1 / 9

    def test_rates_at_the_paper_cell(self):
        # k = 50 blocks, t = 2, n = 64: every block is full but with a tiny
        # chance, and half of them fail to be full with a chance below float
        assert abs(float(block_full_rate(50, 2, 64)) - 0.9981637) <= 1e-7
        assert half_full_rate(50, 2, 64) == 1.0

    def test_block_rate_matches_scipy(self):
        hypergeom = pytest.importorskip("scipy.stats").hypergeom
        for k, t, n in BLOCKS_GRID:
            expected = hypergeom.sf(t - 1, k * n, 4 * k * t, n)
            assert abs(float(block_full_rate(k, t, n)) - expected) <= 1e-12, (k, t, n)

    @pytest.mark.parametrize("cell", [(3, 1, 20), (3, 1, 32), (3, 2, 40), (4, 1, 20)])
    def test_half_rate_matches_enumeration(self, cell):
        exact = hypergeometric_half_rate(*cell)
        assert abs(half_full_rate(*cell) - float(exact)) <= 1e-14
        assert exact < 1   # the cell can fail, so the agreement is not vacuous

    def test_sparse_blocks_rejected(self):
        for rate in (block_full_rate, half_full_rate):
            with pytest.raises(InstanceError):
                rate(5, 3, 40)
            with pytest.raises(InstanceError):
                rate(0, 1, 20)


class TestSuites:
    def test_cheb_suite_all_pass(self):
        lines, rows = run_poly_suite("cheb")
        assert len(lines) == 4
        assert all(line.passed for line in lines)
        assert rows

    def test_blocks_suite_all_pass(self):
        lines, rows = run_poly_suite("blocks")
        assert all(line.passed for line in lines)
        assert len(rows) == len(BLOCKS_GRID) == 35
        assert (50, 2, 64) in {(row["k"], row["t"], row["n"]) for row in rows}
        assert lines[0].residual == min(row["p_half_full"] for row in rows)
        assert lines[1].residual == min(row["p_block_full"] for row in rows)

    def test_lp_suite_small_grid(self):
        cells = [(2, 16, 0), (2, 16, 1), (4, 16, 1), (4, 16, 2), (2, 32, 3), (8, 32, 1)]
        lines, rows = verify_lp(cells=cells, chain_cells=((8, 32, 1),),
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
        lines, rows = verify_lp(cells=[(2, 16, 1)], chain_cells=((8, 32, 1),),
                                probe_n_values=(16,))
        assert seen == [(2, 16, 1), (8, 32, 1)]
        assert lines[0].detail == "2 cells"
        assert len(rows) == 1

    def test_witness_line_decides_exactly(self, monkeypatch):
        # an excess far below any float tolerance still fails the line
        def nudged(lp):
            return witness_integer_values(lp) + [1 + Fraction(1, 10**12)]

        monkeypatch.setattr(polylab, "witness_integer_values", nudged)
        lines, _ = verify_lp(cells=[(2, 16, 0), (2, 16, 1)], chain_cells=())
        witness = lines[0]
        assert witness.name == "witness stays inside [0,1]"
        assert not witness.passed
        assert witness.residual == float(Fraction(1, 10**12))

    def test_unknown_suite_rejected(self):
        with pytest.raises(InstanceError):
            run_poly_suite("nope")
