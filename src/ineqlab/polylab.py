"""Polynomial laboratory: Chebyshev bounds, an extremal LP oracle, and the
block-fullness rates.

The degree-vs-growth facts behind the classical lower bound are checked
numerically: the Chebyshev growth and extremality inequalities, a linear
program that finds the largest possible "jump" of a [0,1]-bounded polynomial
with a forced zero prefix, the proof chain that caps that jump via Chebyshev
growth, a probe of the bounded-at-integers interior-growth constants, and the
hypergeometric block-fullness bounds.  Nothing here draws a random number:
each check takes its worst case in closed form or from an extremal LP.

The LP runs in exact rational arithmetic (Bland's rule over integer rows), so
every sigma value and witness below is exact, as is the per-block fullness
rate; floats appear only in reports, dense real-line scans, the Lagrange
basis and the half-full rate.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import CheckLine, InstanceError

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


def _lobatto_nodes(d: int) -> np.ndarray:
    return np.cos(np.pi * np.arange(d + 1) / d)


def lagrange_basis(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lagrange basis values: entry (i, k) is l_k(x[i]) = prod_{j != k} (x[i] - x_j) / (x_k - x_j)."""
    off = ~np.eye(len(nodes), dtype=bool)
    spread = np.where(off, nodes[:, None] - nodes[None, :], 1.0).prod(axis=1)
    diff = x[:, None] - nodes[None, :]
    return np.where(off, diff[:, None, :], 1.0).prod(axis=2) / spread


def cheb_dominance_excess(degrees=range(2, 13), probe_points=(1.01, 1.1, 1.5, 2.0)) -> dict[int, float]:
    """Per degree, the worst relative excess over |T_d| at the probes of any
    polynomial with |p| <= 1 at the d+1 Chebyshev-Lobatto nodes.

    The largest |p(x)| over node values in [-1, 1] is sum_k |l_k(x)|.  Outside
    [-1, 1] the l_k alternate in sign at the Lobatto nodes, where T_d takes
    the values (-1)^k, so the sum equals |T_d(x)| and the excess is float
    noise; any other nodes, or a probe inside the interval, leave a real one.
    """
    probes = np.asarray(probe_points, dtype=float)
    excess = {}
    for d in degrees:
        worst = np.abs(lagrange_basis(_lobatto_nodes(d), probes)).sum(axis=1)
        cheb = np.abs(chebyshev_eval(d, probes))
        excess[d] = float(np.max((worst - cheb) / cheb))
    return excess


# ---------------------------------------------------------------------------
# exact simplex (max c x, A x <= b, x >= 0, with b >= 0)


def simplex_max(rows, rhs, objective) -> tuple[Fraction, list[Fraction]]:
    """Primal simplex with Bland's rule, exact over integer rows.

    Keeps only the objective row and the basic structural variables' rows, as
    Python-int numerators over one positive denominator; a basic slack
    s_i = b_i - a_i x is read off its constraint, and its full row is built
    only when it leaves.  The ratio test runs over constraint directions:
    each nonzero constraint, in coprime integers, is a_i = lam_i u with u
    primitive, its first nonzero entry positive, and lam_i a nonzero integer.
    A pivot takes d = u . step once per direction (a read when u is a unit
    vector), then e = u . vertex once if a member has lam_i d > 0; that
    member's entry and right-hand side over scale are lam_i d = a_i . step
    and b_i scale - lam_i e.  A slack out of the basis is never a candidate:
    it stays at 0 along the step, so a_i . step = 0 (and < 0 for the
    entering slack), and a zero constraint never bounds a step.  Every row is
    a positive multiple of the Fraction tableau's, so every sign and ratio
    test, and so every pivot, is the same.  Needs nonnegative right-hand
    sides, so the slack basis is feasible; every program built here has them.
    """
    m, n = len(rows), len(objective)
    if len(rhs) != m or any(len(row) != n for row in rows):
        raise InstanceError("simplex needs one right-hand side per row and every row as long as the objective")
    if any(value < 0 for value in rhs):
        raise InstanceError("simplex needs nonnegative right-hand sides")
    cons, directions = _directions(rows, rhs)
    obj = _integer_row([-v for v in objective] + [0])
    cols = list(range(n))        # variable held by each tableau column
    stored = {}                  # basic structural variable -> its row
    for _ in range(SIMPLEX_PIVOT_CAP):
        entering = [(cols[j], j) for j in range(n) if obj[0][j] < 0]
        if not entering:
            break
        var, c = min(entering)   # Bland: the lowest-index variable
        scale = math.lcm(*(den for _, den in stored.values()))
        step, vertex = [scale * (j == var) for j in range(n)], [0] * n
        for v, (row, den) in stored.items():
            step[v], vertex[v] = -row[c] * (scale // den), row[-1] * (scale // den)
        # (variable, entry a, right-hand side b) of each basic variable with a > 0;
        # over scale, a slack's a is a_i times the structural step, its b is b_i less a_i times the vertex
        candidates = [(v, row[c], row[-1]) for v, (row, _) in stored.items() if row[c] > 0]
        for col, u, sides in directions:
            d = step[col] if u is None else sum(map(operator.mul, u, step))
            members = sides[d < 0] if d else ()   # those with lam d > 0
            if members:
                e = vertex[col] if u is None else sum(map(operator.mul, u, vertex))
                for i, lam, b in members:
                    candidates.append((n + i, lam * d, b * scale - lam * e))
        if not candidates:
            raise InstanceError("unbounded linear program")
        # the least ratio b / a, ties to the lowest variable; each row's positive scale cancels
        leave, best_a, best_b = candidates[0]
        for v, a, b in candidates[1:]:
            if b * best_a < best_b * a or (b * best_a == best_b * a and v < leave):
                leave, best_a, best_b = v, a, b
        if leave < n:
            prow, pden = stored.pop(leave)
        else:
            # s_i = b_i - a_i x: over scale, a_i on the nonbasic structural
            # columns and b_i on the right, less a_i[v] times each basic x_v's row
            u, lam, b = cons[leave - n]
            a_row = [lam * v for v in u]
            base = [a_row[col] * scale if col < n else 0 for col in cols] + [b * scale]
            weights = [1] + [-a_row[v] * (scale // den) for v, (_, den) in stored.items()]
            columns = zip(base, *(row for row, _ in stored.values()))
            prow, pden = _reduced([sum(map(operator.mul, weights, col)) for col in columns], scale)
        # over its entry p, the pivot row holds 1/p in column c, now the leaving variable's
        prow, p = [*prow[:c], pden, *prow[c + 1:]], prow[c]
        stored = {v: _eliminated(*row, prow, p, c) for v, row in stored.items()}
        obj = _eliminated(*obj, prow, p, c)
        if var < n:
            stored[var] = _reduced(prow, p)
        cols[c] = leave
    else:
        raise InstanceError("simplex pivot budget exhausted")
    solution = [Fraction(stored[v][0][-1], stored[v][1]) if v in stored else Fraction(0) for v in range(n)]
    return Fraction(obj[0][-1], obj[1]), solution


def _directions(rows, rhs) -> tuple[list, list]:
    """Each constraint as lam u <= b in coprime integers, the nonzero ones grouped by u.

    u is primitive with its first nonzero entry positive and lam a nonzero
    integer, so each slack is a positive scale of the Fraction tableau's.
    cons[i] is (u, lam, b), or None for a zero row; each direction is
    (col, u, (members with lam > 0, members with lam < 0)), a member being
    (i, lam, b), and a unit u is read at column col, with u None.
    """
    cons, groups = [], {}
    for i, (row, b) in enumerate(zip(rows, rhs)):
        *coef, b = _integer_row([*row, b])[0]
        g = math.gcd(*coef)
        if not g:
            cons.append(None)
            continue
        if next(filter(None, coef)) < 0:
            g = -g
        u = tuple(map(operator.floordiv, coef, itertools.repeat(g)))
        h = math.gcd(g, b)
        lam, b = g // h, b // h
        cons.append((u, lam, b))
        groups.setdefault(u, ([], []))[lam < 0].append((i, lam, b))
    directions = [
        (u.index(1), None, sides) if len(u) - u.count(0) == 1 else (-1, u, sides)
        for u, sides in groups.items()
    ]
    return cons, directions


def _eliminated(row: list[int], den: int, prow: list[int], p: int, c: int) -> tuple[list[int], int]:
    """row / den less row[c] times the pivot row prow / p, whose place c holds the leaving variable's."""
    f = row[c]
    if not f:
        return row, den
    new = [p * v - f * w for v, w in zip(row, prow)]
    new[c] = -f * prow[c]
    return _reduced(new, den * p)


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    g = math.gcd(den, *nums)
    return ([v // g for v in nums], den // g) if g > 1 else (nums, den)


def _integer_row(values) -> tuple[list[int], int]:
    """Numerators over one denominator, the least common one reduced by the gcd."""
    if set(map(type, values)) <= {int}:
        return values, 1
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (den // v.denominator) for v in values], den)


def _lagrange_row(nodes: range, x) -> tuple[list[int], int]:
    """Lagrange weights at an int or Fraction x on consecutive integer nodes as
    integers w over one denominator: L_s(x) = w[k] / den for the k-th node s.
    At a node the row is a unit vector.  Elsewhere, for x = a/q, d + 1 nodes
    and P = prod_u (a - u q), L_s(x) = (-1)^(d-k) C(d, k) P / (a - s q) over
    d! q^d."""
    a, q = x.numerator, x.denominator
    if q == 1 and a in nodes:
        return [int(u == a) for u in nodes], 1
    d = len(nodes) - 1
    factors = [a - u * q for u in nodes]
    full = math.prod(factors)
    w, c = [], (-1) ** d   # c = (-1)^(d-k) C(d, k)
    for k, f in enumerate(factors):
        w.append(c * full // f)
        c = c * (k - d) // (k + 1)
    return w, math.factorial(d) * q**d


def _integer_bounded_lp(nodes: range, m: int, others, target):
    """(max p(target), p on nodes[m:], p at each integer in `others`) over
    polynomials on `nodes` that vanish at the first m nodes and lie in [0, 1]
    on the rest and at each integer in `others`."""
    free = len(nodes) - m
    rows = [[int(u == s) for u in range(free)] for s in range(free)]
    rhs = [1] * free
    outside = [(w[m:], den) for w, den in (_lagrange_row(nodes, i) for i in others)]
    for w, den in outside:
        # 0 <= w . p / den <= 1, each side times den
        rows += [w, [-v for v in w]]
        rhs += [den, 0]
    # maximize w . p and divide by den after: a positive scale of the objective moves no pivot
    top, top_den = _lagrange_row(nodes, target)
    value, solution = simplex_max(rows, rhs, top[m:])
    scaled, q = _integer_row(solution)
    values = [Fraction(sum(map(operator.mul, w, scaled)), den * q) for w, den in outside]
    return value / top_den, solution, values


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
    beyond: tuple[Fraction, ...]        # p at D+1..N, from the program's own rows


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
        return PolyLP(D, N, m, Fraction(0), (Fraction(0),) * (D + 1), (Fraction(0),) * (N - D))
    sigma, solution, beyond = _integer_bounded_lp(range(D + 1), m, range(D + 1, N + 1), 8 * m)
    return PolyLP(D, N, m, sigma, tuple([Fraction(0)] * m + solution), tuple(beyond))


def witness_integer_values(lp: PolyLP) -> list[Fraction]:
    """Exact witness values at every integer 0..N."""
    return [*lp.node_values, *lp.beyond]


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


@functools.lru_cache(maxsize=None)
def growth_extremal(n: int, d: int) -> float:
    """Interior growth of the LP-extremal polynomial bounded at integers 0..n.

    Maximizes p(n - 1/2) over degree-d polynomials with p(i) in [0,1] at all
    integers i; returns max(2 sigma - 1, 1), the matching [-1,1]-scale growth.
    """
    if not (1 <= d <= n):
        raise InstanceError("need 1 <= d <= n")
    nodes = range(n - d, n + 1)
    sigma, _, _ = _integer_bounded_lp(nodes, 0, range(0, n - d), Fraction(2 * n - 1, 2))
    return max(2.0 * float(sigma) - 1.0, 1.0)


def _floored_slope(us: np.ndarray, vs: np.ndarray) -> float:
    """Least-squares slope of vs against us, floored at zero."""
    slope, _ = np.polyfit(us, vs, 1)
    return max(float(slope), 0.0)


def cr_probe(n_values=(16, 32, 64), d_factors=(1, 2, 3)) -> CrProbeReport:
    """Fit the interior-growth envelope to the LP-extremal polynomials.

    Each (n, d) cell contributes the log growth of its extremal polynomial,
    the largest that any polynomial bounded at the integers of [0, n]
    reaches.  The stability figure compares the slopes fitted to each domain
    size alone.
    """
    cells: dict[tuple[int, int], float] = {}
    for n in n_values:
        for factor in d_factors:
            d = min(factor * math.isqrt(n), n)
            cells[n, d] = math.log(growth_extremal(n, d))
    us = np.array([d * d / n for n, d in cells])
    vs = np.array(list(cells.values()))
    slope = _floored_slope(us, vs) if len(cells) >= 2 else 0.0
    # lift the intercept so the line dominates every cell
    intercept = float(np.max(vs - slope * us))
    a = math.exp(intercept)
    b = slope

    per_n: list[tuple[int, float]] = []
    for n in n_values:
        sel = [i for i, (n_cell, _) in enumerate(cells) if n_cell == n]
        if len(sel) >= 2:
            per_n.append((n, _floored_slope(us[sel], vs[sel])))
    if per_n:
        slopes = sorted(s for _, s in per_n)
        med = slopes[len(slopes) // 2]
        stability = max(abs(s - med) / med for _, s in per_n) if med > 0 else math.inf
    else:
        stability = math.inf
    return CrProbeReport(
        a=a,
        b=b,
        points=tuple((n, d, v) for (n, d), v in cells.items()),
        per_n_slopes=tuple(per_n),
        stability=stability,
    )


# ---------------------------------------------------------------------------
# block fullness: 4kt ones scattered uniformly over k blocks of n positions


HALF_FULL_FLOOR = Fraction(1, 9)    # Pr[at least half the blocks are full]
BLOCK_FULL_FLOOR = Fraction(5, 9)   # Pr[a given block is full]
BLOCKS_GRID = tuple(
    (k, t, n) for k in (1, 2, 3, 5, 10, 20, 50) for t in (1, 2, 3) for n in (20, 32, 64) if 20 * t <= n
)


def _check_block_cell(k: int, t: int, n: int) -> None:
    if not (k >= 1 and 1 <= t and 20 * t <= n):
        raise InstanceError("need k >= 1 and 1 <= t <= n/20")


def block_full_rate(k: int, t: int, n: int) -> Fraction:
    """Pr[a given block holds at least t ones], exact: the hypergeometric tail
    of n positions drawn from the kn that hold 4kt ones."""
    _check_block_cell(k, t, n)
    ones, total = 4 * k * t, k * n
    short = sum(math.comb(ones, j) * math.comb(total - ones, n - j) for j in range(t))
    return 1 - Fraction(short, math.comb(total, n))


def half_full_rate(k: int, t: int, n: int) -> float:
    """Pr[at least ceil(k/2) blocks hold t or more ones].

    Every position is tilted to an independent one of rate p = 4t/n, so the
    block counts are independent Binomial(n, p).  The tilt gives every
    scatter of 4kt ones the same weight, so conditioning on 4kt ones in all
    gives back the uniform scatter.  Split the block pmf at t into lo(z) and
    hi(z); then C(k, m) [z^4kt] hi^m lo^(k-m) weighs m full blocks, and the
    powers grow one block at a time, cut at degree 4kt.
    """
    _check_block_cell(k, t, n)
    ones, p = 4 * k * t, 4 * t / n
    pmf = np.array([math.comb(n, c) * p**c * (1 - p) ** (n - c) for c in range(min(n, ones) + 1)])

    def powers(poly: np.ndarray) -> list[np.ndarray]:
        out = [np.eye(1, ones + 1)[0]]
        for _ in range(k):
            out.append(np.convolve(out[-1], poly)[: ones + 1])
        return out

    hi, lo = powers(np.where(np.arange(len(pmf)) >= t, pmf, 0.0)), powers(pmf[:t])
    weights = [math.comb(k, m) * float(hi[m] @ lo[k - m][::-1]) for m in range(k + 1)]
    return sum(weights[(k + 1) // 2:]) / sum(weights)


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


def verify_cheb() -> tuple[list[CheckLine], list[dict]]:
    lines: list[CheckLine] = []

    resid = cheb_identity_residual()
    lines.append(CheckLine("evaluation routes agree", resid <= IDENTITY_RTOL, resid, "recurrence/closed/cosine"))

    end = max(abs(chebyshev_eval(d, 1.0) - 1.0) for d in range(0, 101, 10))
    lines.append(CheckLine("endpoint value is one", end <= 1e-12, end, "T_d(1)"))

    margin = cheb_growth_grid()
    lines.append(CheckLine("growth bound on the grid", margin <= 0.0, margin, "d <= 50, mu <= 2"))

    excess = cheb_dominance_excess()
    worst = max(excess.values())
    lines.append(
        CheckLine(
            "dominance outside the interval",
            worst <= IDENTITY_RTOL,
            worst,
            f"exact worst case over node values, d = {min(excess)}..{max(excess)}",
        )
    )
    rows = [{"check": "extremal", "degree": d, "excess": e} for d, e in excess.items()]
    return lines, rows


def verify_lp(
    cells=None,
    chain_cells=None,
    probe_n_values=(16, 32, 64),
) -> tuple[list[CheckLine], list[dict]]:
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
    for axis, sign in ((0, 1), (2, -1)):   # (D, N, m) cells: D up, m down
        along: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for cell, lp in solved.items():
            along.setdefault(cell[:axis] + cell[axis + 1 :], []).append((cell[axis], lp.sigma))
        for pairs in along.values():
            pairs.sort()
            mono_bad += sum(1 for (_, s0), (_, s1) in zip(pairs, pairs[1:]) if sign * (s1 - s0) < 0)
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

    # proof chain on one witness per domain row, with growth constants fitted
    # independently of the witnesses, to the growth-extremal polynomials
    if chain_lps:
        probe = cr_probe(n_values=probe_n_values)
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


def verify_cr() -> tuple[list[CheckLine], list[dict]]:
    report = cr_probe()
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


def verify_blocks() -> tuple[list[CheckLine], list[dict]]:
    half = {cell: half_full_rate(*cell) for cell in BLOCKS_GRID}
    block = {cell: block_full_rate(*cell) for cell in BLOCKS_GRID}
    half_cell, block_cell = min(half, key=half.get), min(block, key=block.get)
    grid = f"minimum over {len(BLOCKS_GRID)} cells with 20t <= n"
    lines = [
        CheckLine(
            "half the blocks are full",
            half[half_cell] >= HALF_FULL_FLOOR,
            half[half_cell],
            f"{grid}, at (k, t, n) = {half_cell}, floor {HALF_FULL_FLOOR}",
        ),
        CheckLine(
            "single block fullness rate",
            block[block_cell] >= BLOCK_FULL_FLOOR,
            float(block[block_cell]),
            f"{grid}, at (k, t, n) = {block_cell}, floor {BLOCK_FULL_FLOOR}",
        ),
    ]
    rows = [
        {"k": k, "t": t, "n": n, "p_half_full": half[k, t, n], "p_block_full": float(block[k, t, n])}
        for k, t, n in BLOCKS_GRID
    ]
    return lines, rows


POLY_SUITES = {
    "cheb": verify_cheb,
    "lp": verify_lp,
    "cr": verify_cr,
    "blocks": verify_blocks,
}


def run_poly_suite(suite: str) -> tuple[list[CheckLine], list[dict]]:
    if suite not in POLY_SUITES:
        raise InstanceError(f"unknown suite: {suite}")
    return POLY_SUITES[suite]()
