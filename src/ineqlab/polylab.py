"""Polynomial laboratory: Chebyshev bounds, an extremal LP oracle, and the
block-fullness tail estimate.

The degree-vs-growth facts behind the classical lower bound are checked
numerically: the Chebyshev growth and extremality inequalities, a linear
program that finds the largest possible "jump" of a [0,1]-bounded polynomial
with a forced zero prefix, the proof chain that caps that jump via Chebyshev
growth, a probe of the bounded-at-integers interior-growth constants, and a
Monte-Carlo check of the hypergeometric block-fullness bound.

The LP runs in exact rational arithmetic (Bland's rule over integer rows), so
every sigma value and witness below is exact; floats appear only in reports
and dense real-line scans.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .core import CheckLine, InstanceError, SeededRng

CHAIN_TOL = 1e-6
IDENTITY_RTOL = 1e-10
LP_DEGREE_CAP = 24
LP_DOMAIN_CAP = 64
SIMPLEX_PIVOT_CAP = 200_000


# ---------------------------------------------------------------------------
# Chebyshev evaluation: recurrence, closed form, cosine form


def chebyshev_eval(d: int, x) -> np.ndarray | float:
    """Degree-d Chebyshev value by the three-term recurrence (any real x)."""
    if d < 0:
        raise InstanceError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if d == 0:
        return prev if prev.shape else float(prev)
    cur = x.copy()
    for _ in range(d - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.shape else float(cur)


def chebyshev_closed(d: int, x) -> np.ndarray | float:
    """Closed form ((x+sqrt(x^2-1))^d + (x-sqrt(x^2-1))^d)/2 via complex sqrt."""
    if d < 0:
        raise InstanceError("degree must be nonnegative")
    x = np.asarray(x, dtype=complex)
    root = np.sqrt(x * x - 1.0)
    val = ((x + root) ** d + (x - root) ** d) / 2.0
    out = np.real(val)
    return out if out.shape else float(out)


def chebyshev_cosine(d: int, x) -> np.ndarray | float:
    """cos(d arccos x); valid only on [-1, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise InstanceError("cosine form needs |x| <= 1")
    out = np.cos(d * np.arccos(np.clip(x, -1.0, 1.0)))
    return out if out.shape else float(out)


def cheb_identity_residual() -> float:
    """Worst relative disagreement between the three evaluation routes.

    Recurrence vs closed form on |x| <= 10; cosine joins in on [-1, 1];
    degrees 0, 7, ..., 98 and 100.
    """
    xs = np.linspace(-10.0, 10.0, 121)
    inner = np.linspace(-1.0, 1.0, 121)
    worst = 0.0
    for d in [*range(0, 101, 7), 100]:
        rec = chebyshev_eval(d, xs)
        clo = chebyshev_closed(d, xs)
        scale = np.maximum(1.0, np.abs(rec))
        worst = max(worst, float(np.max(np.abs(rec - clo) / scale)))
        rec_in = chebyshev_eval(d, inner)
        cos_in = chebyshev_cosine(d, inner)
        clo_in = chebyshev_closed(d, inner)
        worst = max(worst, float(np.max(np.abs(rec_in - cos_in))))
        worst = max(worst, float(np.max(np.abs(clo_in - cos_in))))
    return worst


def cheb_growth_grid(d_max: int = 50, mu_step: float = 0.01, mu_max: float = 2.0) -> float:
    """Worst signed margin lhs - rhs over the growth grid (negative = holds)."""
    mus = np.arange(0.0, mu_max + mu_step / 2, mu_step)
    worst = -math.inf
    for d in range(d_max + 1):
        lhs = chebyshev_eval(d, 1.0 + mus)
        rhs = np.exp(2.0 * d * np.sqrt(2.0 * mus + mus * mus))
        worst = max(worst, float(np.max(lhs - rhs)))
    return worst


# ---------------------------------------------------------------------------
# extremal dominance outside [-1, 1]


@dataclass(frozen=True)
class ChebExtremalReport:
    degrees: tuple[int, ...]
    accepted_per_degree: int
    discarded: int
    violations: tuple[int, ...]   # per entry of degrees
    worst_margin: float   # max |q(x)| - |T_d(x)| over accepted samples (<= 0 = pass)


def _lobatto_nodes(d: int) -> np.ndarray:
    return np.cos(np.pi * np.arange(d + 1) / d)


def _barycentric_eval(nodes: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Lobatto weights: (-1)^k, halved at the endpoints
    d = len(nodes) - 1
    w = np.where(np.arange(d + 1) % 2 == 0, 1.0, -1.0)
    w[0] *= 0.5
    w[-1] *= 0.5
    diff = x[:, None] - nodes[None, :]
    exact = np.isclose(diff, 0.0, atol=1e-14)
    diff = np.where(exact, 1.0, diff)
    terms = w[None, :] / diff
    out = (terms @ values) / terms.sum(axis=1)
    hit = exact.any(axis=1)
    if hit.any():
        out[hit] = values[exact[hit].argmax(axis=1)]
    return out


def cheb_extremal_check(
    rng: SeededRng,
    per_degree: int = 100,
    degrees=tuple(range(2, 13)),
    probe_points=(1.01, 1.1, 1.5, 2.0),
) -> ChebExtremalReport:
    """Random interior-bounded polynomials never beat T_d outside [-1, 1].

    Candidates interpolate uniform values at the d+1 Chebyshev nodes; a
    candidate whose dense interior max exceeds 1 + 1e-6 is discarded (the
    node values bound it only at the nodes), not counted as a violation.
    """
    gen = rng.stream
    dense = np.linspace(-1.0, 1.0, 2001)
    probes = np.asarray(probe_points)
    discarded = 0
    violations = []
    worst = -math.inf
    for d in degrees:
        nodes = _lobatto_nodes(d)
        t_at_probes = np.abs(np.array([chebyshev_eval(d, float(x)) for x in probes]))
        accepted = 0
        violations.append(0)
        while accepted < per_degree:
            values = gen.uniform(-1.0, 1.0, size=d + 1)
            interior = np.abs(_barycentric_eval(nodes, values, dense)).max()
            if interior > 1.0 + CHAIN_TOL:
                discarded += 1
                continue
            accepted += 1
            outside = np.abs(_barycentric_eval(nodes, values, probes))
            margin = float(np.max(outside - t_at_probes))
            worst = max(worst, margin)
            if margin > CHAIN_TOL:
                violations[-1] += 1
    return ChebExtremalReport(
        degrees=tuple(degrees),
        accepted_per_degree=per_degree,
        discarded=discarded,
        violations=tuple(violations),
        worst_margin=worst,
    )


# ---------------------------------------------------------------------------
# exact simplex (max c x, A x <= b, x >= 0, with b >= 0)


def simplex_max(rows, rhs, objective) -> tuple[Fraction, list[Fraction]]:
    """Primal simplex with Bland's rule, exact over integer rows.

    The tableau keeps the nonbasic columns and the right-hand side; each row,
    the objective row last, holds Python-int numerators over one positive
    denominator, so every sign and ratio test, and so every pivot, is the one
    of the Fraction tableau.  Requires every right-hand side to be nonnegative
    so the slack basis is feasible; that holds for all programs built here.
    """
    m = len(rows)
    n = len(objective)
    for value in rhs:
        if value < 0:
            raise InstanceError("simplex needs nonnegative right-hand sides")
    tab = [_integer_row([*row, b]) for row, b in zip(rows, rhs)]
    tab.append(_integer_row([-Fraction(v) for v in objective] + [0]))
    cols = list(range(n))            # variable held by each tableau column
    basis = list(range(n, n + m))    # variable held by each row
    for _ in range(SIMPLEX_PIVOT_CAP):
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


def _lagrange_row(nodes: range, x) -> tuple[list[int], int]:
    """Lagrange weights at x on consecutive integer nodes as integers w over one
    denominator: L_s(x) = w[k] / den for the k-th node s.  For x = a/q and d + 1
    nodes, L_s(x) = (-1)^(d-k) C(d, k) prod_{u != s} (a - u q) / (d! q^d), the
    products over u != s taken from prefix and suffix products."""
    x = Fraction(x)
    d = len(nodes) - 1
    factors = [x.numerator - u * x.denominator for u in nodes]
    prefix = list(itertools.accumulate(factors[:-1], operator.mul, initial=1))
    suffix = list(itertools.accumulate(reversed(factors[1:]), operator.mul, initial=1))[::-1]
    w = [(-1) ** (d - k) * math.comb(d, k) * prefix[k] * suffix[k] for k in range(d + 1)]
    return w, math.factorial(d) * x.denominator**d


def _integer_bounded_lp(nodes: range, m: int, others, target: Fraction):
    """(max p(target), p on nodes[m:]) over polynomials on `nodes` that vanish at
    the first m nodes and lie in [0, 1] on the rest and at each integer in `others`."""
    free = len(nodes) - m
    rows = [[int(u == s) for u in range(free)] for s in range(free)]
    rhs = [1] * free
    for i in others:
        w, den = _lagrange_row(nodes, i)
        rows += [[Fraction(v, den) for v in w[m:]], [Fraction(-v, den) for v in w[m:]]]
        rhs += [1, 0]
    w, den = _lagrange_row(nodes, target)
    return simplex_max(rows, rhs, [Fraction(v, den) for v in w[m:]])


# ---------------------------------------------------------------------------
# the jump LP: zero prefix, [0,1] on integers, maximize p(8m)


@dataclass(frozen=True)
class PolyLP:
    """Solved jump program: degree D, domain {0..N}, zero prefix of length m."""

    D: int
    N: int
    m: int
    sigma: Fraction
    node_values: tuple[Fraction, ...]   # p at 0..D; the first m entries are 0


def extremal_sigma_lp(D: int, N: int, m: int) -> PolyLP:
    """Maximize p(8m) over degree-<=D polynomials with p(0..m-1) = 0 and
    p(i) in [0,1] for every integer i in {0..N}.

    Parameterized by the values at the nodes {m..D} (the zero prefix pins the
    rest), which keeps all constraint coefficients exact rationals.
    """
    if not (0 <= m and 8 * m <= N):
        raise InstanceError("need 0 <= 8m <= N")
    if not (0 <= D <= LP_DEGREE_CAP and D <= N):
        raise InstanceError(f"need 0 <= D <= min({LP_DEGREE_CAP}, N)")
    if N > LP_DOMAIN_CAP:
        raise InstanceError(f"need N <= {LP_DOMAIN_CAP}")
    if D < m:
        # m roots force the zero polynomial at degree <= D < m
        return PolyLP(D, N, m, Fraction(0), tuple([Fraction(0)] * (D + 1)))
    sigma, solution = _integer_bounded_lp(range(D + 1), m, range(D + 1, N + 1), Fraction(8 * m))
    return PolyLP(D, N, m, sigma, tuple([Fraction(0)] * m + solution))


def witness_integer_values(lp: PolyLP) -> list[Fraction]:
    """Exact witness values at every integer 0..N."""
    scaled, q = _integer_row(lp.node_values)
    out = list(lp.node_values)
    for i in range(lp.D + 1, lp.N + 1):
        w, den = _lagrange_row(range(lp.D + 1), i)
        out.append(Fraction(sum(a * b for a, b in zip(w, scaled)), den * q))
    return out


def newton_coefficients(values, start: int) -> list[Fraction]:
    """Divided differences for consecutive integer nodes start, start+1, ..."""
    coef = [Fraction(v) for v in values]
    for level in range(1, len(coef)):
        for i in range(len(coef) - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / level
    return coef


def zero_prefix_quotient(lp: PolyLP) -> list[Fraction]:
    """Newton coefficients, on the nodes m..D, of q = p / prod_{j<m}(x - j)."""
    m = lp.m
    return newton_coefficients(
        [lp.node_values[s] / math.prod(s - j for j in range(m)) for s in range(m, lp.D + 1)], m
    )


def newton_eval(coef, start: int, x):
    """Horner evaluation of the Newton form at x.

    At an integer x every step stays in the coefficients' type, so Fraction
    coefficients give the exact value; an array of points is evaluated in
    float64.
    """
    if isinstance(x, np.ndarray):
        x = x.astype(float)
        coef = [float(c) for c in coef]
        acc = np.full_like(x, coef[-1])
    else:
        acc = coef[-1]
    for i in range(len(coef) - 2, -1, -1):
        acc = acc * (x - (start + i)) + coef[i]
    return acc


# ---------------------------------------------------------------------------
# inequality chain tying the LP value to the block growth bound


@dataclass(frozen=True)
class WitnessChain:
    """Margins for each inequality in the jump-bound proof chain (E fixed).

    The chain divides out the zero prefix, caps the quotient on the far
    integer range, extends the cap to the real interval with the fitted
    interior-growth constants, rescales to [-1,1], and closes with the
    extremality and growth bounds.  All margins are signed so that
    nonpositive means the step holds.
    """

    jump_margin: float        # sigma/(8m)^m - |q(8m)|
    integer_cap_margin: float  # max |q| on {Em..N} - 1/((E-1)m)^m
    real_cap_margin: float     # dense max |q| on [Em, N] - fitted bound
    extremal_margin: float     # |t(1+mu)| - T_d(1+mu)
    growth_margin: float       # T_d(1+mu) - exp bound


def witness_chain_check(lp: PolyLP, E: int, cr_a: float, cr_b: float) -> WitnessChain:
    """Run the proof chain on an LP witness with separation parameter E."""
    if lp.m < 1:
        raise InstanceError("the chain needs a nonempty zero prefix")
    if not (10 <= E <= lp.N / (2 * lp.m)):
        raise InstanceError("need 10 <= E <= N/(2m)")
    m, D, N = lp.m, lp.D, lp.N
    d = D - m
    coef = zero_prefix_quotient(lp)
    point = 8 * m
    q_at_point = abs(newton_eval(coef, m, point))
    jump_lower = lp.sigma / Fraction(point) ** m
    jump_margin = float(jump_lower - q_at_point)

    lo = E * m
    integer_max = max(abs(newton_eval(coef, m, i)) for i in range(lo, N + 1))
    cap = Fraction(1, ((E - 1) * m) ** m)
    integer_cap_margin = float(integer_max - cap)

    span = N - lo
    xs = np.linspace(lo, N, 4001)
    real_max = float(np.abs(newton_eval(coef, m, xs)).max())
    fitted_bound = cr_a * math.exp(cr_b * d * d / span) * float(cap)
    real_cap_margin = real_max - fitted_bound

    mu = 2.0 * (E - 8) * m / span
    t_val = float(q_at_point) / real_max
    t_cheb = chebyshev_eval(d, 1.0 + mu)
    extremal_margin = t_val - t_cheb
    growth_margin = t_cheb - math.exp(2.0 * d * math.sqrt(2.0 * mu + mu * mu))

    return WitnessChain(
        jump_margin=jump_margin,
        integer_cap_margin=integer_cap_margin,
        real_cap_margin=real_cap_margin,
        extremal_margin=extremal_margin,
        growth_margin=growth_margin,
    )


# ---------------------------------------------------------------------------
# shape bound fit over the LP grid


def shape_ratio(lp: PolyLP, E: int) -> float | None:
    """(log2 sigma + m log2 E) / (D^2/N + D sqrt(Em/N)); None when vacuous."""
    if lp.m < 1 or lp.sigma == 0:
        return None
    shape = lp.D * lp.D / lp.N + lp.D * math.sqrt(E * lp.m / lp.N)
    return (math.log2(float(lp.sigma)) + lp.m * math.log2(E)) / shape


def fit_shape_constant(lps) -> tuple[float, int]:
    """Smallest single constant making the shape bound hold on every cell, E in {8, 10}."""
    best = -math.inf
    used = 0
    for lp in lps:
        for E in (8, 10):
            ratio = shape_ratio(lp, E)
            if ratio is not None:
                best = max(best, ratio)
                used += 1
    if used == 0:
        raise InstanceError("no nonvacuous cells to fit")
    return best, used


# ---------------------------------------------------------------------------
# interior-growth probe for integer-bounded polynomials


@dataclass(frozen=True)
class CrProbeReport:
    """Fitted interior-growth envelope max|p| <= a exp(b d^2/n)."""

    a: float
    b: float
    points: tuple[tuple[int, int, float], ...]   # (n, d, log interior max)
    per_n_slopes: tuple[tuple[int, float], ...]
    stability: float   # max relative deviation of per-n slopes from their median


def growth_extremal(n: int, d: int) -> float:
    """Interior growth of the LP-extremal polynomial bounded at integers 0..n.

    Maximizes p(n - 1/2) over degree-d polynomials with p(i) in [0,1] at all
    integers i; returns max(2 sigma - 1, 1), the matching [-1,1]-scale growth.
    """
    if not (1 <= d <= n):
        raise InstanceError("need 1 <= d <= n")
    nodes = range(n - d, n + 1)
    sigma, _ = _integer_bounded_lp(nodes, 0, range(0, n - d), Fraction(2 * n - 1, 2))
    return max(2.0 * float(sigma) - 1.0, 1.0)


def _interior_max_of_series(coeffs: np.ndarray, n: int) -> float:
    """Dense real max over [0, n] of a [-1,1]-rescaled Chebyshev series."""
    xs = np.linspace(0.0, float(n), 4001)
    vals = npcheb.chebval(2.0 * xs / n - 1.0, coeffs)
    return float(np.abs(vals).max())


def cr_probe(
    rng: SeededRng,
    n_values=(16, 32, 64),
    d_factors=(1, 2, 3),
    sample_count: int = 24,
    extra_points=(),
) -> CrProbeReport:
    """Fit the interior-growth envelope over random and extremal polynomials.

    Samples are normalized to max 1 over the integers of [0, n]; the envelope
    records the dense real max per (n, d) cell.  extra_points lets callers add
    (n, d, log max) triples (for example rescaled LP witnesses) so the fit
    covers them too.  The stability figure compares slopes fitted to the
    extremal cells alone: random series rarely grow between integers, so
    including them would drown the trend in noise.
    """
    gen = rng.stream
    points: list[tuple[int, int, float]] = []
    extremal: list[tuple[int, int, float]] = []
    for n in n_values:
        ints = np.arange(n + 1, dtype=float)
        for factor in d_factors:
            d = min(factor * math.isqrt(n), n)
            # deterministic LP extremal for this cell
            v_ext = math.log(growth_extremal(n, d))
            extremal.append((n, d, v_ext))
            points.append((n, d, v_ext))
            for _ in range(sample_count):
                coeffs = gen.standard_normal(d + 1)
                coeffs[-1] = math.copysign(max(abs(coeffs[-1]), 0.5), coeffs[-1])
                at_ints = npcheb.chebval(2.0 * ints / n - 1.0, coeffs)
                scale = np.abs(at_ints).max()
                if scale == 0:
                    continue
                coeffs = coeffs / scale
                points.append((n, d, math.log(max(_interior_max_of_series(coeffs, n), 1.0))))
    points.extend((int(n), int(d), float(v)) for n, d, v in extra_points)

    cell_max: dict[tuple[int, int], float] = {}
    for n, d, v in points:
        key = (n, d)
        if key not in cell_max or v > cell_max[key]:
            cell_max[key] = v
    us = np.array([d * d / n for n, d in cell_max])
    vs = np.array(list(cell_max.values()))
    if len(cell_max) >= 2:
        slope, _ = np.polyfit(us, vs, 1)
        slope = max(float(slope), 0.0)
    else:
        slope = 0.0
    # lift the intercept so the line dominates every cell envelope
    intercept = float(np.max(vs - slope * us))
    a = math.exp(intercept)
    b = slope

    per_n: list[tuple[int, float]] = []
    for n in n_values:
        sel = [p for p in extremal if p[0] == n]
        if len(sel) < 2:
            continue
        u_n = np.array([d * d / n for _, d, _ in sel])
        v_n = np.array([v for _, _, v in sel])
        s_n, _ = np.polyfit(u_n, v_n, 1)
        per_n.append((n, max(float(s_n), 0.0)))
    if per_n:
        slopes = sorted(s for _, s in per_n)
        med = slopes[len(slopes) // 2]
        stability = max(abs(s - med) / med for _, s in per_n) if med > 0 else math.inf
    else:
        stability = math.inf
    return CrProbeReport(
        a=a,
        b=b,
        points=tuple(points),
        per_n_slopes=tuple(per_n),
        stability=stability,
    )


# ---------------------------------------------------------------------------
# block fullness


@dataclass(frozen=True)
class BlocksReport:
    k: int
    t: int
    n: int
    samples: int
    p_half_full: float        # Pr[at least k/2 blocks are full]
    p_half_halfwidth: float
    p_block_full: float       # per-block Pr[count >= t]
    p_block_halfwidth: float


def full_blocks_mc(rng: SeededRng, k: int, t: int, n: int, samples: int = 10_000) -> BlocksReport:
    """Scatter 4kt ones over k blocks of n positions; estimate fullness rates.

    Estimates the two rates that verify_blocks bounds: the probability that
    at least half the blocks are full (claimed >= 1/9), and the probability
    that a single block is full (claimed >= 5/9), each with its 95%
    confidence half-width.
    """
    if 20 * t > n:
        raise InstanceError("need t <= n/20")
    if 4 * k * t > k * n:
        raise InstanceError("more ones than positions")
    counts = rng.stream.multivariate_hypergeometric([n] * k, 4 * k * t, size=samples)
    full = counts >= t
    p_half = float(np.mean(full.sum(axis=1) >= k / 2))
    hw_half = 1.96 * math.sqrt(max(p_half * (1 - p_half), 1e-12) / samples)
    p_block = float(full.mean())
    hw_block = 1.96 * math.sqrt(max(p_block * (1 - p_block), 1e-12) / (samples * k))
    return BlocksReport(
        k=k,
        t=t,
        n=n,
        samples=samples,
        p_half_full=p_half,
        p_half_halfwidth=hw_half,
        p_block_full=p_block,
        p_block_halfwidth=hw_block,
    )


# ---------------------------------------------------------------------------
# suite drivers


def lp_grid_cells() -> list[tuple[int, int, int]]:
    """Default (D, N, m) grid: feasible, under the caps, runtime-bounded.

    The D = 2 row exercises the degenerate corner (D < m forces a zero jump)
    and contributes exact small-fraction values elsewhere.
    """
    cells = []
    for n_dom in (16, 32, 48, 64):
        for deg in (2, 4, 8, 12, 16, 20, 24):
            if deg > n_dom:
                continue
            for m in range(0, 4):
                if 8 * m <= n_dom:
                    cells.append((deg, n_dom, m))
    return cells


CHAIN_CELLS = ((12, 32, 1), (16, 48, 2), (20, 64, 3))   # one per domain row, E=10 feasible


def verify_cheb(seed: int = 0) -> tuple[list[CheckLine], list[dict]]:
    rng = SeededRng(seed).spawn("cheb")
    lines: list[CheckLine] = []
    rows: list[dict] = []

    resid = cheb_identity_residual()
    lines.append(CheckLine("evaluation routes agree", resid <= IDENTITY_RTOL, resid, "recurrence/closed/cosine"))

    end = max(abs(chebyshev_eval(d, 1.0) - 1.0) for d in range(0, 101, 10))
    lines.append(CheckLine("endpoint value is one", end <= 1e-12, end, "T_d(1)"))

    margin = cheb_growth_grid()
    lines.append(CheckLine("growth bound on the grid", margin <= 0.0, margin, "d <= 50, mu <= 2"))

    report = cheb_extremal_check(rng)
    lines.append(
        CheckLine(
            "dominance outside the interval",
            sum(report.violations) == 0,
            report.worst_margin,
            f"{report.accepted_per_degree} accepted per degree, {report.discarded} discarded",
        )
    )
    for d, count in zip(report.degrees, report.violations):
        rows.append({"check": "extremal", "degree": d, "violations": count})
    return lines, rows


def verify_lp(
    seed: int = 0,
    cells=None,
    chain_cells=None,
    probe_n_values=(16, 32, 64),
) -> tuple[list[CheckLine], list[dict]]:
    rng = SeededRng(seed).spawn("lp")
    if cells is None:
        cells = lp_grid_cells()
    if chain_cells is None:
        chain_cells = CHAIN_CELLS
    lines: list[CheckLine] = []
    solved = {cell: extremal_sigma_lp(*cell) for cell in cells}
    chain_lps = {cell: solved.get(cell) or extremal_sigma_lp(*cell) for cell in chain_cells}
    # every solved LP, chain cells included, must have its witness in [0, 1]
    checked = {**solved, **chain_lps}
    outside = Fraction(0)
    for lp in checked.values():
        values = witness_integer_values(lp)
        outside = max(outside, -min(values), max(values) - 1)
    lines.append(CheckLine("witness stays inside [0,1]", outside <= 0, float(outside), f"{len(checked)} cells"))

    # exact comparisons along both axes: sigma cannot drop when the degree
    # budget grows, and cannot rise when the forced prefix lengthens
    mono_bad = 0
    by_deg_axis: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    by_m_axis: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (deg, n_dom, m), lp in solved.items():
        by_deg_axis.setdefault((n_dom, m), []).append((deg, lp.sigma))
        by_m_axis.setdefault((deg, n_dom), []).append((m, lp.sigma))
    for pairs in by_deg_axis.values():
        pairs.sort()
        mono_bad += sum(1 for (_, s0), (_, s1) in zip(pairs, pairs[1:]) if s1 < s0)
    for pairs in by_m_axis.values():
        pairs.sort()
        mono_bad += sum(1 for (_, s0), (_, s1) in zip(pairs, pairs[1:]) if s1 > s0)
    lines.append(CheckLine("jump value monotone in m and D", mono_bad == 0, float(mono_bad), ""))

    m0 = [lp for (_, _, m), lp in solved.items() if m == 0]
    trivial = max((abs(float(lp.sigma) - 1.0) for lp in m0), default=0.0)
    lines.append(CheckLine("no prefix means jump one", trivial == 0.0, trivial, f"{len(m0)} cells with m = 0"))

    degen = [lp for (deg, _, m), lp in solved.items() if deg < m]
    degen_worst = max((abs(float(lp.sigma)) for lp in degen), default=0.0)
    lines.append(
        CheckLine("degenerate degree means jump zero", degen_worst == 0.0, degen_worst, f"{len(degen)} cells with D < m")
    )

    # c_fit is the largest ratio over these very cells, so no cell can exceed it
    c_fit, used = fit_shape_constant(solved.values())
    lines.append(
        CheckLine("shape bound constant (report only)", True, c_fit, f"fitted c = {c_fit:.4f} over {used} cells")
    )

    # proof chain on one witness per domain row, with the growth constants
    # fitted over random polynomials plus these witnesses' own quotients
    if chain_lps:
        extra = []
        for (deg, n_dom, m), lp in chain_lps.items():
            lo = 10 * m
            coef = zero_prefix_quotient(lp)
            xs = np.linspace(lo, n_dom, 2001)
            cap = ((10 - 1) * m) ** m
            scaled_max = float(np.abs(newton_eval(coef, m, xs)).max()) * cap
            extra.append((n_dom - lo, deg - m, math.log(max(scaled_max, 1.0))))
        probe = cr_probe(
            rng.spawn("chain-fit"), n_values=probe_n_values, sample_count=12, extra_points=extra
        )
        chain_worst = -math.inf
        for lp in chain_lps.values():
            chain = witness_chain_check(lp, 10, probe.a, probe.b)
            chain_worst = max(
                chain_worst,
                chain.jump_margin,
                chain.integer_cap_margin,
                chain.real_cap_margin,
                chain.extremal_margin,
                chain.growth_margin,
            )
        lines.append(
            CheckLine(
                "proof chain on witnesses", chain_worst <= CHAIN_TOL, chain_worst, f"{len(chain_lps)} cells, E=10"
            )
        )

    rows = [
        {"D": deg, "N": n_dom, "m": m, "sigma": float(lp.sigma)}
        for (deg, n_dom, m), lp in sorted(solved.items())
    ]
    return lines, rows


def verify_cr(seed: int = 0) -> tuple[list[CheckLine], list[dict]]:
    rng = SeededRng(seed).spawn("cr")
    report = cr_probe(rng)
    lines = [
        CheckLine(
            "interior growth constants (report only)",
            True,
            report.b,
            f"a = {report.a:.4f}, b = {report.b:.4f}",
        ),
        CheckLine(
            "fit stable across domain sizes",
            report.stability <= 0.2,
            report.stability,
            "per-domain slopes vs median",
        ),
    ]
    rows = [{"n": n, "d": d, "log_max": v} for n, d, v in report.points]
    return lines, rows


def verify_blocks(seed: int = 0) -> tuple[list[CheckLine], list[dict]]:
    rng = SeededRng(seed).spawn("blocks")
    report = full_blocks_mc(rng, k=50, t=2, n=64, samples=10_000)
    lines = [
        CheckLine(
            "half the blocks are full",
            report.p_half_full >= 1 / 9,
            report.p_half_full,
            f"95% halfwidth {report.p_half_halfwidth:.4f}",
        ),
        CheckLine(
            "single block fullness rate",
            report.p_block_full >= 5 / 9 - report.p_block_halfwidth,
            report.p_block_full,
            f"95% halfwidth {report.p_block_halfwidth:.4f}",
        ),
    ]
    rows = [
        {
            "k": report.k,
            "t": report.t,
            "n": report.n,
            "samples": report.samples,
            "p_half_full": report.p_half_full,
            "p_block_full": report.p_block_full,
        }
    ]
    return lines, rows


POLY_SUITES = {
    "cheb": verify_cheb,
    "lp": verify_lp,
    "cr": verify_cr,
    "blocks": verify_blocks,
}


def run_poly_suite(suite: str, seed: int = 0) -> tuple[list[CheckLine], list[dict]]:
    if suite not in POLY_SUITES:
        raise InstanceError(f"unknown suite: {suite}")
    return POLY_SUITES[suite](seed)
