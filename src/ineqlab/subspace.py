"""Signed-subspace laboratory: explicit bases, projectors, and bound checks.

Small instances of the two-weight input model are materialized as dense
vectors so that every structural identity behind the query lower bound can be
checked by direct linear algebra: the uniform superposition states over the
weight classes t-1 and t, the nested spans with j pinned ones, their signed
(phase-split) combinations, the per-query growth levels, the potential
function that weights those levels, and the probability bounds that the
decomposition implies.  Everything runs in float64 with pinned tolerances;
nothing here touches the query ledger.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .core import CheckLine, InstanceError, SeededRng

ORTHO_TOL = 1e-9
DEPENDENCE_TOL = 1e-8
BOUND_SLACK = 1e-9
# caps keeping every construction dense and fast
SPACE_CLASS_CAP = 10**4       # on C(n, t)
RUN_JOINT_DIM_CAP = 2**15     # dim(work register) * dim(input register)
SUITE_WORKSPACE = 2           # work-register dimension per query slot in verify_suite
SAMPLE_TRIALS = 50            # random states per sampled probability check
DISTANCE_CASES = 200          # random state pairs and measurements in the distance line
CELL_CACHE_SIZE = 8           # seed-free cells verify_suite keeps per process


# ---------------------------------------------------------------------------
# input space


@dataclass(eq=False)
class InputSpace:
    """Dense model of one input register: all strings of weight t-1 or t."""

    n: int
    t: int
    basis: tuple[tuple[int, ...], ...]
    bits: np.ndarray        # (dim, n) uint8, rows match basis order
    weights: np.ndarray     # (dim,) row sums
    psi_one: np.ndarray     # the start state: half mass per weight class

    @property
    def dim(self) -> int:
        return len(self.basis)

    def class_mask(self, a: int) -> np.ndarray:
        """Boolean mask of the weight-(t-1+a) class."""
        return self.weights == self.t - 1 + a

    def masked_state(self, mask: np.ndarray, positions: tuple[int, ...] = ()) -> np.ndarray:
        """Uniform superposition over the masked strings with the given positions pinned to 1."""
        if positions:
            mask = mask & self.bits[:, list(positions)].all(axis=1)
        count = int(mask.sum())
        if count == 0:
            raise InstanceError(f"empty state family: positions={positions}")
        vec = np.zeros(self.dim)
        vec[mask] = 1.0 / math.sqrt(count)
        return vec


def build_input_space(n: int, t: int) -> InputSpace:
    """Enumerate the two weight classes lexicographically and form the start state."""
    if not (1 <= t and 2 * t <= n):
        raise InstanceError("need 1 <= t <= n/2")
    if math.comb(n, t) > SPACE_CLASS_CAP:
        raise InstanceError("weight class too large for dense construction")
    basis = tuple(sorted(_strings_of_weights(n, (t - 1, t))))
    bits = np.array(basis, dtype=np.uint8)
    weights = bits.sum(axis=1).astype(np.int64)
    psi = np.zeros(len(basis))
    for a in (0, 1):
        mask = weights == t - 1 + a
        psi[mask] = 1.0 / math.sqrt(2 * int(mask.sum()))
    return InputSpace(n=n, t=t, basis=basis, bits=bits, weights=weights, psi_one=psi)


def _strings_of_weights(n: int, weights: tuple[int, ...]):
    for w in weights:
        for ones in combinations(range(n), w):
            x = [0] * n
            for p in ones:
                x[p] = 1
            yield tuple(x)


# ---------------------------------------------------------------------------
# orthonormalization


def orthonormal_columns(vectors, dim: int, against: np.ndarray | None = None) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Vectors whose residual norm drops below DEPENDENCE_TOL are treated as
    linearly dependent and skipped.  `against` supplies already-orthonormal
    columns to project off first (they are not re-emitted).  Returns a
    (dim, r) matrix of the new columns only.
    """
    prior: list[np.ndarray] = []
    if against is not None and against.shape[1] > 0:
        prior = [np.asarray(col, dtype=float) for col in against.T]
    kept: list[np.ndarray] = []
    for vec in vectors:
        w = np.array(vec, dtype=float, copy=True)
        for _ in range(2):
            for u in prior:
                w -= (u @ w) * u
            for u in kept:
                w -= (u @ w) * u
        norm = float(np.linalg.norm(w))
        if norm < DEPENDENCE_TOL:
            continue
        kept.append(w / norm)
    if not kept:
        return np.zeros((dim, 0))
    return np.column_stack(kept)


def orthonormality_residual(columns: np.ndarray) -> float:
    """Max deviation of the Gram matrix from the identity."""
    if columns.shape[1] == 0:
        return 0.0
    gram = columns.T.conj() @ columns
    return float(np.abs(gram - np.eye(columns.shape[1])).max())


# ---------------------------------------------------------------------------
# nested chains with pinned ones


@dataclass(frozen=True)
class ChainLevel:
    """Level j of a nested chain: cumulative span, fresh directions, deflated states."""

    tuples: tuple[tuple[int, ...], ...]
    span: np.ndarray          # orthonormal columns spanning all states with <= j pinned ones
    fresh: np.ndarray         # orthonormal columns of the directions new at level j
    deflated: np.ndarray      # raw states projected off the previous span, one column per tuple
    deflated_norms: np.ndarray
    closed_form_norm: float | None   # for the split family only


def deflated_norm_closed_form(n: int, t: int, j: int, a: int, b: int) -> float:
    """Norm of a level-j deflated split-family state, as an exact ratio of falling factorials."""
    t_a = t - 1 + a
    return math.sqrt(math.perm(n - t_a - 1 + b, j) / math.perm(n - j, j))


def build_subspace_chain(space: InputSpace, a: int, b: int | None = None) -> list[ChainLevel]:
    """Nested spans T_0 c T_1 c ... for states with j pinned ones, plus their fresh parts.

    With b=None the chain lives on the full weight-(t-1+a) class and tuples range
    over all n positions; with b given, the split coordinate is pinned to b and
    tuples range over the remaining n-1 positions.
    """
    if a not in (0, 1):
        raise InstanceError("a must be 0 or 1")
    if b not in (None, 0, 1):
        raise InstanceError("b must be None, 0, or 1")
    t_a = space.t - 1 + a
    mask = space.class_mask(a)
    if b is None:
        pool = range(space.n)
        j_max = t_a
    else:
        mask = mask & (space.bits[:, 0] == b)
        pool = range(1, space.n)
        j_max = t_a - b
    levels: list[ChainLevel] = []
    prev_span = np.zeros((space.dim, 0))
    for j in range(j_max + 1):
        tuples = tuple(combinations(pool, j))
        raw = np.column_stack([space.masked_state(mask, tup) for tup in tuples])
        deflated = raw - prev_span @ (prev_span.T @ raw)
        fresh = orthonormal_columns(deflated.T, space.dim)
        span = np.hstack([prev_span, fresh])
        closed = None if b is None else deflated_norm_closed_form(space.n, space.t, j, a, b)
        levels.append(
            ChainLevel(
                tuples=tuples,
                span=span,
                fresh=fresh,
                deflated=deflated,
                deflated_norms=np.linalg.norm(deflated, axis=0),
                closed_form_norm=closed,
            )
        )
        prev_span = span
    return levels


def build_split_chains(space: InputSpace) -> dict[tuple[int, int], list[ChainLevel]]:
    """The four split-family chains keyed by (a, b); a family with no level has an empty chain."""
    return {(a, b): build_subspace_chain(space, a, b) for a in (0, 1) for b in (0, 1)}


# ---------------------------------------------------------------------------
# signed decomposition and growth levels


@dataclass(eq=False)
class SignedDecomposition:
    """Phase-split blocks and the growth-level regrouping for one input register."""

    space: InputSpace
    plus: tuple[np.ndarray, ...]     # orthonormal columns per block, index j = 0..t-1
    minus: tuple[np.ndarray, ...]    # index j = 0..t; minus[t] is the leftover block
    levels: tuple[np.ndarray, ...]   # growth levels, index 0..top_level
    top_level: int
    chain0: list[ChainLevel]
    chain1: list[ChainLevel]


def build_signed_decomposition(space: InputSpace) -> SignedDecomposition:
    """Split each pinned-ones level into phase-sum and phase-difference blocks.

    The growth levels regroup them: level j below ceil(t/2) is the j-th
    phase-sum block; the terminal level absorbs every remaining block.  For
    odd t the terminal index rounds up (the half-integer index is realized as
    the next integer), which keeps all level indices integral.
    """
    t = space.t
    chain0 = build_subspace_chain(space, 0)
    chain1 = build_subspace_chain(space, 1)
    plus: list[np.ndarray] = []
    minus: list[np.ndarray] = []
    # blocks are orthogonal in exact arithmetic; projecting each new block
    # off the accumulated span removes only rounding-scale components but
    # keeps the joint basis orthonormal to machine precision
    acc = np.zeros((space.dim, 0))
    for j in range(t):
        # both chains pin the tuples of combinations(range(n), j), so column i
        # of either level belongs to the same tuple
        lo, hi = chain0[j], chain1[j]
        if min(lo.deflated_norms.min(), hi.deflated_norms.min()) < DEPENDENCE_TOL:
            raise InstanceError("degenerate deflated state in signed construction")
        u0 = lo.deflated / lo.deflated_norms
        u1 = hi.deflated / hi.deflated_norms
        plus.append(orthonormal_columns((u0 + u1).T, space.dim, against=acc))
        acc = np.hstack([acc, plus[-1]])
        minus.append(orthonormal_columns((u0 - u1).T, space.dim, against=acc))
        acc = np.hstack([acc, minus[-1]])
    minus.append(orthonormal_columns(chain1[t].fresh.T, space.dim, against=acc))
    top = (t + 1) // 2
    return SignedDecomposition(
        space=space,
        plus=tuple(plus),
        minus=tuple(minus),
        levels=(*plus[:top], np.hstack(plus[top:] + minus)),
        top_level=top,
        chain0=chain0,
        chain1=chain1,
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Completeness and orthogonality diagnostics for a signed decomposition."""

    dim_expected: int
    dim_signed: int
    dim_levels: int
    ortho_residual: float        # Gram-vs-identity over all signed columns jointly
    start_state_residual: float  # 1 - squared overlap of psi_one with plus(j=0)


def decomposition_report(decomp: SignedDecomposition) -> DecompositionReport:
    space = decomp.space
    signed_cols = np.hstack(decomp.plus + decomp.minus)
    level_cols = np.hstack(decomp.levels)
    proj = decomp.plus[0].T @ space.psi_one
    return DecompositionReport(
        dim_expected=space.dim,
        dim_signed=signed_cols.shape[1],
        dim_levels=level_cols.shape[1],
        ortho_residual=orthonormality_residual(signed_cols),
        start_state_residual=abs(1.0 - float(proj @ proj)),
    )


# ---------------------------------------------------------------------------
# k-fold products


def _check_joint_dim(space: InputSpace, k: int, workspace_dim: int = SUITE_WORKSPACE) -> None:
    """The one size rule: a run's joint register (k n + 1) * workspace * dim^k
    must fit RUN_JOINT_DIM_CAP; frames are admitted at the suite's workspace."""
    if k < 1:
        raise InstanceError("k must be at least 1")
    # dim >= 2, so this power alone passes the cap and a huge k needs no huge power
    top = RUN_JOINT_DIM_CAP.bit_length()
    if (k * space.n + 1) * workspace_dim * space.dim ** min(k, top) > RUN_JOINT_DIM_CAP:
        raise InstanceError(f"joint dimension exceeds the dense-run cap {RUN_JOINT_DIM_CAP}")


def _kron_columns(blocks: list[np.ndarray]) -> np.ndarray:
    """np.kron of 2-D blocks as broadcast outer products: each entry is the same single product."""
    out = blocks[0]
    for block in blocks[1:]:
        (m, n), (p, q) = out.shape, block.shape
        out = (out[:, None, :, None] * block[None, :, None, :]).reshape(m * p, n * q)
    return out


def _kron_codes(parts: list[np.ndarray], base: int) -> np.ndarray:
    """_kron_columns over one-copy column numbers: the product of columns c_1..c_k
    is column sum_i c_i base^(k-i) of _kron_columns([one_copy] * k), base wide."""
    out = parts[0]
    for part in parts[1:]:
        out = (out[:, None] * base + part[None, :]).ravel()
    return out


def _product_blocks(blocks: list[np.ndarray], k: int, kron=_kron_columns) -> dict[int, np.ndarray]:
    """Kronecker products of k factor blocks, grouped by the sum of the block indices.

    Index tuples run in lexicographic order, so each group's columns keep that
    order; the random draws over these columns depend on it.  With kron=_kron_codes
    the blocks are one-copy column numbers and the products k-fold column numbers.
    """
    grouped: dict[int, list[np.ndarray]] = {}
    for idx in product(range(len(blocks)), repeat=k):
        grouped.setdefault(sum(idx), []).append(kron([blocks[i] for i in idx]))
    return {m: np.hstack(parts) for m, parts in sorted(grouped.items())}


@dataclass(eq=False)
class LevelFrame:
    """The k-fold product structure of one signed decomposition, built once.

    minus[m] numbers, in the order of the signed-side products, the columns with
    m phase-difference factors: every such product is, bit for bit, a column of
    the growth levels, so each is stored once.  classes holds one 0/1 column per
    answer tuple, in lexicographic order, and answer_blocks[js] lists, over the
    same tuples, the product of the answer-class fresh blocks at the factor
    levels js.
    """

    params: PotentialParams
    decomp: SignedDecomposition
    columns: np.ndarray     # (dim_i, dim_i) growth-level columns
    labels: np.ndarray      # level index per column
    minus: dict[int, np.ndarray]    # indices into columns by count of phase-difference factors
    classes: np.ndarray     # (dim_i, 2^k) joint weight classes per answer tuple
    answer_blocks: dict[tuple[int, ...], list[np.ndarray]]


def build_level_frame(decomp: SignedDecomposition, k: int) -> LevelFrame:
    space = decomp.space
    _check_joint_dim(space, k)
    # the one-copy columns np.hstack(decomp.levels) run plus blocks, then minus
    # blocks, as the signed sides do; each k-fold column is the same product of
    # one-copy columns, multiplied left to right, wherever it is taken, so the
    # growth levels and the signed sides are numbered into one full product:
    # the levels are gathered from it, the difference blocks index the levels
    level_cols = np.hstack(decomp.levels)
    if level_cols.shape[0] != level_cols.shape[1]:
        raise InstanceError("growth levels do not fill the product space")
    codes = functools.partial(_kron_codes, base=space.dim)
    cuts = np.cumsum([block.shape[1] for block in decomp.levels])[:-1]
    levels = _product_blocks(np.split(np.arange(space.dim), cuts), k, codes)
    order = np.concatenate(list(levels.values()))
    columns = np.take(_kron_columns([level_cols] * k), order, axis=1)
    labels = np.repeat(list(levels), [len(block) for block in levels.values()])
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    width = sum(block.shape[1] for block in decomp.plus)
    sides = [np.arange(width), np.arange(width, space.dim)]
    t = space.t
    q = Fraction(t + 1, t)
    top = decomp.top_level
    weights = tuple(float(q) ** m for m in range(k * top + 1))
    chains = (decomp.chain0, decomp.chain1)
    answers = list(product((0, 1), repeat=k))
    one_copy = np.column_stack([space.class_mask(0), space.class_mask(1)]).astype(float)
    return LevelFrame(
        params=PotentialParams(t=t, k=k, q=q, top_level=top, weights=weights),
        decomp=decomp,
        columns=columns,
        labels=labels,
        minus={m: at[block] for m, block in _product_blocks(sides, k, codes).items()},
        classes=_kron_columns([one_copy] * k),
        answer_blocks={
            js: [_kron_columns([chains[a][j].fresh for j, a in zip(js, ans)]) for ans in answers]
            for js in product(range(t), repeat=k)
        },
    )


def containment_residual(frame: LevelFrame) -> float:
    """Projector-dominance residual: each m-difference block must sit inside
    the union of growth levels at or above t*m/2.

    Returns the largest eigenvalue of (P_minus - P_levels), which must be <= 0
    up to tolerance.
    """
    worst = 0.0
    for m, at in frame.minus.items():
        high = frame.columns[:, frame.labels >= math.ceil(frame.params.t * m / 2)]
        cols = np.take(frame.columns, at, axis=1)
        gap = cols @ cols.T
        gap -= high @ high.T
        worst = _worst(worst, float(np.linalg.eigvalsh(gap).max()))
    return worst


# ---------------------------------------------------------------------------
# map checks between split-family blocks


@dataclass(frozen=True)
class MapCheck:
    a: int
    b: int
    present: bool
    constant: float     # common singular value (0 when absent)
    sv_spread: float    # max - min singular value
    residual: float     # worst defect of the defining correspondence


@dataclass(frozen=True)
class UnitaryMapReport:
    checks: tuple[MapCheck, ...]

    @property
    def c11(self) -> float:
        for check in self.checks:
            if (check.a, check.b) == (1, 1):
                return check.constant
        raise InstanceError("no (1,1) map in report")


def check_unitary_maps(chains: dict[tuple[int, int], list[ChainLevel]], j: int) -> UnitaryMapReport:
    """Verify that tuple-wise correspondence between split-family blocks is a
    scalar times an inner-product-preserving map.

    `chains` are the split-family chains of build_split_chains; the (a,b)
    family is present at level j when its chain reaches j.  The map sends the
    deflated (0,0)-state of each tuple to the deflated (a,b)-state of the same
    tuple; assembled in orthonormal bases it must have all singular values
    equal.
    """
    if j >= len(chains[(0, 0)]):
        raise InstanceError("source block is empty at this level")
    source = chains[(0, 0)][j]
    coords_src = source.fresh.T @ source.deflated
    checks: list[MapCheck] = []
    for a, b in ((0, 1), (1, 0), (1, 1)):
        if j >= len(chains[(a, b)]):
            checks.append(MapCheck(a, b, False, 0.0, 0.0, 0.0))
            continue
        target = chains[(a, b)][j]
        coords_tgt = target.fresh.T @ target.deflated
        matrix = coords_tgt @ np.linalg.pinv(coords_src)
        residual = float(np.abs(matrix @ coords_src - coords_tgt).max())
        svals = np.linalg.svd(matrix, compute_uv=False)
        checks.append(
            MapCheck(
                a=a,
                b=b,
                present=True,
                constant=float(svals.mean()) if svals.size else 0.0,
                sv_spread=float(svals.max() - svals.min()) if svals.size else 0.0,
                residual=residual,
            )
        )
    return UnitaryMapReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# branch mixing coefficients


@dataclass(frozen=True)
class AlphaBeta:
    """Mixing coefficients between the split-coordinate branches of a level."""

    alpha_sq: tuple[Fraction, Fraction]   # exact squares, index a = 0, 1
    beta_sq: tuple[Fraction, Fraction]
    alpha: tuple[float, float]
    beta: tuple[float, float]
    cross: float          # |alpha_0 beta_1 - alpha_1 beta_0|
    cross_scaled: float   # cross * sqrt(t n)


def alpha_beta(n: int, t: int, j: int) -> AlphaBeta:
    """Exact branch weights at level j, normalized so alpha^2 + beta^2 = 1.

    Closed-form deflated norms make this pure rational arithmetic, so the
    coefficients are available far beyond the dense-construction caps.
    Requires 2j < t; verify_suite checks the branch bound beta^2 <= 2t/n
    exactly on beta_sq.
    """
    if not (1 <= t and 2 * t <= n):
        raise InstanceError("need 1 <= t <= n/2")
    if not (0 <= 2 * j < t):
        raise InstanceError("need 0 <= j < t/2")
    alpha_sq: list[Fraction] = []
    beta_sq: list[Fraction] = []
    for a in (0, 1):
        t_a = t - 1 + a
        norm0_sq = Fraction(math.perm(n - t_a - 1, j), math.perm(n - j, j))
        norm1_sq = Fraction(math.perm(n - t_a, j), math.perm(n - j, j))
        a_sq = Fraction(n - t_a, n - j) * norm0_sq
        b_sq = Fraction(t_a - j, n - j) * norm1_sq
        total = a_sq + b_sq
        alpha_sq.append(a_sq / total)
        beta_sq.append(b_sq / total)
    alpha = tuple(math.sqrt(float(v)) for v in alpha_sq)
    beta = tuple(math.sqrt(float(v)) for v in beta_sq)
    cross = abs(alpha[0] * beta[1] - alpha[1] * beta[0])
    return AlphaBeta(
        alpha_sq=(alpha_sq[0], alpha_sq[1]),
        beta_sq=(beta_sq[0], beta_sq[1]),
        alpha=alpha,
        beta=beta,
        cross=cross,
        cross_scaled=cross * math.sqrt(t * n),
    )


# ---------------------------------------------------------------------------
# recast runs: the algorithm register drives input-conditioned phase queries


@dataclass(eq=False)
class RecastRun:
    """Joint evolution of a work register and a k-fold input register, for a stack of runs.

    states[r, d] is run r's joint pure state after d queries, shaped (dim_a, dim_i).
    The input-register density matrix state.T @ state.conj() is never formed:
    every check reads its masses off the pure states.
    """

    space: InputSpace
    k: int
    query_slots: int
    states: np.ndarray      # (runs, depth + 1, dim_a, dim_i)


def recast_run(
    programs,
    space: InputSpace,
    k: int,
    workspace_dim: int = 1,
) -> RecastRun:
    """Run stacks of work-register unitaries interleaved with phase queries.

    `programs` is (runs, depth, dim_a, dim_a): one program per run.  The work
    register starts in basis state 0; the input register holds k copies of the
    two-weight `space`, initialized in the product of start states.  Each
    program step applies its unitary to the work register and then one query:
    the query slot (part of the work register, slot 0 idle) selects a bit of
    the joint input, and basis states with that bit set acquire phase -1.
    Depth by depth, one stacked matmul makes each run's own gemm.
    """
    _check_joint_dim(space, k, workspace_dim)
    n = space.n
    slots = k * n + 1
    dim_a = slots * workspace_dim
    dim_i = space.dim**k
    gates = np.asarray(programs, dtype=complex)
    if gates.ndim != 4 or gates.shape[2:] != (dim_a, dim_a):
        raise InstanceError(f"programs have shape {gates.shape}, not (runs, depth, {dim_a}, {dim_a})")
    defect = np.abs(np.swapaxes(gates, -1, -2).conj() @ gates - np.eye(dim_a)).max(axis=(-2, -1))
    # a NaN fails every comparison, so the guards ask for "not within" and refuse it
    for run, step in np.argwhere(~(defect <= 1e-9))[:1]:
        raise InstanceError(f"run {run} step {step} is not unitary (defect {defect[run, step]:.2e})")
    signs = 1.0 - 2.0 * space.bits.astype(float)  # (dim_one, n): +1 for bit 0, -1 for bit 1
    ones = np.ones((space.dim, 1))
    # slot q = 1 + inst * n + pos reads bit pos of copy inst; slot 0 is idle
    phase = np.vstack([np.ones((1, dim_i))] + [
        _kron_columns([ones] * inst + [signs] + [ones] * (k - 1 - inst)).T for inst in range(k)
    ])
    runs, depth = gates.shape[:2]
    shaped = np.empty((runs, depth + 1, slots, workspace_dim, dim_i), dtype=complex)
    states = shaped.reshape(runs, depth + 1, dim_a, dim_i)
    states[:, 0] = 0.0
    states[:, 0, 0] = _kron_columns([space.psi_one.reshape(-1, 1)] * k).ravel()
    for d in range(depth):
        np.matmul(gates[:, d], states[:, d], out=states[:, d + 1])
        shaped[:, d + 1] *= phase[:, None, :]
    # |phi|^2 is the trace of the reduced state
    flat = states.reshape(runs, depth + 1, -1)
    trace = np.vecdot(flat, flat).real
    for run, d in np.argwhere(~(np.abs(trace - 1.0) <= 1e-9))[:1]:
        raise InstanceError(f"run {run}: reduced state at depth {d} has trace {trace[run, d]}")
    return RecastRun(space=space, k=k, query_slots=slots, states=states)


def random_program(rngs, dim: int, depth: int) -> np.ndarray:
    """Haar-style random unitaries for a stack of recast runs, from one batched QR.

    Each run reads its own stream: one draw of (depth, 2, dim, dim), a real and
    then an imaginary (dim, dim) draw per step.  Returns (runs, depth, dim, dim).
    """
    z = np.empty((len(rngs), depth, 2, dim, dim))
    for row, rng in zip(z, rngs):
        rng.stream.standard_normal(out=row)
    basis = np.empty((len(rngs), depth, dim, dim), dtype=complex)
    basis.real, basis.imag = z[:, :, 0], z[:, :, 1]
    q, r = np.linalg.qr(basis)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


# ---------------------------------------------------------------------------
# potential function over growth levels


@dataclass(frozen=True)
class PotentialParams:
    t: int
    k: int
    q: Fraction              # exact growth base 1 + 1/t
    top_level: int
    weights: tuple[float, ...]   # q**m for m = 0..k*top_level


@dataclass(frozen=True)
class PotentialReport:
    """Level masses, potentials and tail-decay excesses of a stack of joint states, one row each."""

    masses: np.ndarray         # (states, levels) mass per growth level
    values: np.ndarray         # (states,) masses weighted by q**level
    decay_excess: np.ndarray   # (states,) worst violation of the tail-decay inequality, at least 0


def _worst(*excesses: float) -> float:
    """The largest excess, or NaN if any is NaN: Python's max drops a NaN that
    follows a number, and a NaN excess must fail its line."""
    return math.nan if any(math.isnan(v) for v in excesses) else max(excesses)


def _masses_report(masses: np.ndarray, params: PotentialParams) -> PotentialReport:
    """The report on level masses shaped (states, levels).  np.vecdot makes each
    state's own np.dot with the weights (a gemv would round differently), and
    each tail is its row's own sum."""
    values = np.vecdot(masses, np.array(params.weights))
    # tail-decay inequality: total mass at or above level t*m/2 is at most
    # the potential discounted by q^{t*m/2}, for every difference count m
    thresholds = [params.t * m / 2.0 for m in range(params.k + 1)]
    tails = np.column_stack([masses[:, math.ceil(h) :].sum(axis=1) for h in thresholds])
    discount = np.array([float(params.q) ** -h for h in thresholds])
    excesses = tails - values[:, None] * discount
    return PotentialReport(masses=masses, values=values, decay_excess=np.maximum(0.0, excesses.max(axis=1)))


def _column_masses(states: np.ndarray, frame: LevelFrame, out: np.ndarray | None = None) -> np.ndarray:
    """|phi @ frame.columns|^2 per joint state phi of the stack, written to `out` if given."""
    masses = np.abs(states @ frame.columns, out=out)
    np.square(masses, out=masses)
    return masses


def potential_from_joint(states, frame: LevelFrame, column_masses=None) -> PotentialReport:
    """Level masses and their exponentially weighted sum for a stack (count, dim_a, dim_i)
    of joint pure states, one row per state.

    The stacked matmul makes each state's own gemm, and bincount adds each state's
    column masses into its levels in column order, as np.add.at does.  A float
    `column_masses` (kept, dim_a, dim_i) receives the masses |phi @ frame.columns|^2
    of the first `kept` states, before they are summed over the work register, for
    the along-run check; the product is split there, so the buffer holds only those.
    """
    states = np.asarray(states)
    kept = 0 if column_masses is None else len(column_masses)
    parts = ((states[:kept], column_masses), (states[kept:], None))
    per_col = np.concatenate([_column_masses(part, frame, out).sum(axis=1) for part, out in parts if len(part)])
    width = len(frame.params.weights)
    bins = frame.labels + width * np.arange(len(per_col))[:, None]
    masses = np.bincount(bins.ravel(), weights=per_col.ravel(), minlength=per_col.shape[0] * width)
    return _masses_report(np.clip(masses, 0.0, None).reshape(-1, width), frame.params)


# ---------------------------------------------------------------------------
# probability bounds


def _binomial_tail(k: int, m: int) -> float:
    return sum(math.comb(k, mp) for mp in range(m + 1)) / 2**k


def _low_span(frame: LevelFrame, m: int) -> np.ndarray:
    """Indices into frame.columns of the products with at most m phase-difference factors."""
    return np.concatenate([frame.minus[mp] for mp in range(m + 1)])


@dataclass(frozen=True)
class RunMasses:
    """What the along-run check reads off a run's joint states."""

    inside: np.ndarray    # (k + 1, states) mass in the low span of each difference count m
    classes: np.ndarray   # (states, 2^k) mass per answer class: the reduced state's diagonal, summed


def run_masses(run: RecastRun, frame: LevelFrame, columns: np.ndarray | None = None) -> RunMasses:
    """The masses of every state of `run`, in run then depth order; `columns`, if
    given, are the column masses potential_from_joint wrote for those states.

    Each low-span mass is summed as |phi @ low columns|^2 would be: np.take gathers
    the C-contiguous block that product makes (a fancy-index view in another
    memory order would sum in another order)."""
    if (frame.decomp.space.n, frame.decomp.space.t, frame.params.k) != (run.space.n, run.space.t, run.k):
        raise InstanceError("frame and run disagree on (n, t, k)")
    states = run.states.reshape(-1, *run.states.shape[2:])
    columns = _column_masses(states, frame) if columns is None else columns.reshape(states.shape)
    return RunMasses(
        inside=np.array([np.take(columns, _low_span(frame, m), axis=2).sum(axis=(1, 2))
                         for m in range(frame.params.k + 1)]),
        classes=(np.abs(states) ** 2).sum(axis=1) @ frame.classes,
    )


def _block_draws(gen: np.random.Generator, widths: list[int], count: int) -> tuple[list[int], list[np.ndarray]]:
    """count block picks, each int(gen.integers(len(widths))) followed by its
    gen.standard_normal(widths[pick]), read as those calls read the stream.

    numpy serves a pick by Lemire's rule on next_uint32: the low half of a fresh
    word, whose high half it buffers for the next pick.  So two picks read one raw
    word, low half then high half, and their coefficients are one normal draw.  A
    buffered half, an odd last pick and a word with a half that fails Lemire's
    fast accept (and so might be rejected) go through gen.integers, and uinteger
    ends as numpy's calls would leave it.  gen is PCG64, as every SeededRng stream is.
    """
    size = len(widths)
    bitgen = gen.bit_generator
    picks: list[int] = []
    coeffs: list[np.ndarray] = []
    buffered = bitgen.state["has_uint32"]
    served = None   # the high half of the last word read raw, if nothing drew after it
    while len(picks) < count:
        if not buffered and len(picks) + 1 < count:
            word = bitgen.random_raw()
            low, high = (word & 0xFFFFFFFF) * size, (word >> 32) * size
            if low & 0xFFFFFFFF >= size and high & 0xFFFFFFFF >= size:
                a, b = low >> 32, high >> 32
                pair = gen.standard_normal(widths[a] + widths[b])
                picks += [a, b]
                coeffs += [pair[: widths[a]], pair[widths[a] :]]
                served = word >> 32
                continue
            bitgen.advance(-1)   # gen.integers reads the word again; advance clears the buffer
        picks.append(int(gen.integers(size)))
        coeffs.append(gen.standard_normal(widths[picks[-1]]))
        buffered, served = bitgen.state["has_uint32"], None
    if served is not None:
        bitgen.state = {**bitgen.state, "uinteger": served}
    return picks, coeffs


@dataclass(frozen=True)
class SuccessBoundReport:
    """The worst of each excess over the cases of one call."""

    span_excess: float          # random states confined to low difference counts
    run_excess: float           # along the run, with the residual-mass correction
    projection_excess: float    # product-block squared projections vs 2^-k


def success_probability_bounds(frame: LevelFrame, cases) -> SuccessBoundReport:
    """Three checks tying answer probabilities to the signed decomposition, over many cases.

    A case is (masses, m, rng): the RunMasses of a run's states, a difference
    count m and the stream the case draws from.  (i) random unit states with
    difference count <= m never beat the binomial bound; (ii) the run's states
    never beat it plus the residual-mass correction 4*sqrt(mass outside the
    low-difference span); (iii) a unit vector in any signed product block
    projects onto any answer block with squared norm at most 2^-k.  Each case
    reads its stream as a call of its own would: the span coefficients, then
    the block draws.  Each m's low span is gathered once, and every case's
    floats are the ones a call per case makes, so each excess is the max of
    the per-case excesses.
    """
    decomp, k = frame.decomp, frame.params.k
    space = decomp.space
    if not cases:
        raise InstanceError("need at least one case")
    if not all(0 <= m <= k for _, m, _ in cases):
        raise InstanceError("difference count m must be in 0..k")
    signed_blocks = {("plus", j): decomp.plus[j] for j in range(space.t)}
    signed_blocks.update({("minus", j): decomp.minus[j] for j in range(space.t)})
    keys = sorted(signed_blocks.keys())
    widths = [signed_blocks[key].shape[1] for key in keys]

    span_excess = run_excess = 0.0
    picks: list[int] = []
    draws: list[np.ndarray] = []
    for m in sorted({m for _, m, _ in cases}):
        group = [(masses, rng.stream) for masses, mp, rng in cases if mp == m]
        bound = _binomial_tail(k, m)
        low = _low_span(frame, m)
        # one coefficient row per sample, one stack of rows per case
        coeffs = np.empty((len(group), SAMPLE_TRIALS, len(low)))
        for row, (masses, gen) in zip(coeffs, group):
            gen.standard_normal(out=row)
            case_picks, case_draws = _block_draws(gen, widths, SAMPLE_TRIALS * k)
            picks += case_picks
            draws += case_draws
            # masses read straight off the joint pure states: the reduced state's
            # diagonal is the column mass of phi, its low-span mass |phi @ low_cols|^2
            corrected = bound + 4.0 * np.sqrt(np.maximum(0.0, 1.0 - masses.inside[m]))
            run_excess = _worst(run_excess, float((masses.classes - corrected[:, None]).max()))
        # a stacked matmul: each case's own gemm
        psi = (coeffs / np.linalg.norm(coeffs, axis=2, keepdims=True)) @ np.take(frame.columns, low, axis=1).T
        span_excess = _worst(span_excess, float(((psi**2) @ frame.classes).max()) - bound)

    # the per-block projection claim applies where both sign blocks exist,
    # which is every level below t (the level-t leftover block is itself a
    # weight class, so its answer projection is trivially 0 or 1).  The draws
    # are one block pick and one coefficient draw per trial and factor; the
    # floats of every case's trials are pooled per signed block, then per level
    # tuple, as stacked matmuls that make each trial's own dot and gemv (a gemm
    # across trials would round differently), and max(x) - 2^-k is the max of x - 2^-k
    picks = np.array(picks)
    trials = len(picks) // k
    factors = np.empty((len(picks), space.dim))
    for pick in set(picks.tolist()):
        at = np.flatnonzero(picks == pick)
        coeff = np.stack([draws[i] for i in at])
        unit = coeff / np.sqrt(coeff[:, None, :] @ coeff[:, :, None])[:, 0]
        factors[at] = (signed_blocks[keys[pick]] @ unit[:, :, None])[:, :, 0]
    factors = factors.reshape(trials, k, space.dim)
    levels = np.array([j for _, j in keys])[picks].reshape(trials, k)
    tops = []
    for js in set(map(tuple, levels.tolist())):
        at = np.flatnonzero((levels == js).all(axis=1))
        psi = factors[at, 0]
        for i in range(1, k):
            psi = (psi[:, :, None] * factors[at, i][:, None, :]).reshape(len(at), -1)
        for block in frame.answer_blocks[js]:
            proj = block.T @ psi[:, :, None]
            tops.append(float((np.swapaxes(proj, 1, 2) @ proj).max()))
    return SuccessBoundReport(
        span_excess=span_excess,
        run_excess=run_excess,
        projection_excess=_worst(0.0, _worst(*tops) - 1.0 / 2**k),
    )


# ---------------------------------------------------------------------------
# variational distance


def variational_distance(psi, psi_prime, measurement) -> tuple[np.ndarray, np.ndarray]:
    """Total variation between outcome distributions, and its 2-norm bound, per case.

    `measurement` is (basis, cuts) from random_projective_measurement: part i
    projects onto columns cuts[i]:cuts[i + 1] of the square basis's Householder
    Q, unitary for any basis.  Q is never formed: one R-only QR of
    [basis | psi | psi'] leaves Q^H psi and Q^H psi' in R's last two columns,
    rows dim and dim + 1 of raw mode's R transposed.  States are (..., dim),
    stacked like the basis.
    """
    psi = np.asarray(psi, dtype=complex)
    psi_prime = np.asarray(psi_prime, dtype=complex)
    basis, cuts = measurement
    dim = basis.shape[-1]
    if basis.shape[-2] != dim or (cuts[..., 0] != 0).any() or (cuts[..., -1] != dim).any() or (np.diff(cuts) < 0).any():
        raise InstanceError("measurement basis is not square or its cuts do not run from 0 to dim")
    raw = np.linalg.qr(np.concatenate([basis, psi[..., None], psi_prime[..., None]], axis=-1), mode="raw")[0]
    amp = raw[..., dim:, :]
    mass = amp.real * amp.real + amp.imag * amp.imag   # |Q^H psi|^2 and |Q^H psi'|^2 per column
    upto = np.zeros(mass.shape[:-2] + (dim + 1,))
    np.cumsum(mass[..., 0, :] - mass[..., 1, :], axis=-1, out=upto[..., 1:])
    tv = 0.5 * np.abs(np.diff(np.take_along_axis(upto, cuts, axis=-1), axis=-1)).sum(axis=-1)
    diff = (psi - psi_prime).view(float)
    return tv, 2.0 * np.sqrt((diff * diff).sum(axis=-1))


def random_projective_measurement(gen, cases: int, dim: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """`cases` random complex bases of C^dim, their Householder Qs cut into `parts` column blocks.

    Inner cuts: a uniform subset of 1..dim-1, the first parts - 1 places of a random permutation, sorted.
    """
    if cases < 1 or not 1 <= parts <= dim:
        raise InstanceError(f"need cases >= 1 and 1 <= parts <= dim, got {cases}, {parts}, {dim}")
    z = gen.standard_normal((cases, 2, dim, dim))
    inner = np.argsort(gen.random((cases, dim - 1)), axis=-1)[:, : parts - 1]
    inner.sort(axis=-1)
    cuts = np.full((cases, parts + 1), dim)
    cuts[:, 0] = 0
    cuts[:, 1:-1] = inner + 1
    basis = np.empty((cases, dim, dim), dtype=complex)
    basis.real, basis.imag = z[:, 0], z[:, 1]
    return basis, cuts


def distance_cases(rng: SeededRng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distance line's cases in draw order: dimension, total variation, bound.

    Every draw comes from rng.stream: the dimensions first, then, for each
    dimension in ascending order, its stack of state pairs and measurements.
    """
    gen = rng.stream
    dims = gen.integers(2, 17, size=DISTANCE_CASES)
    tv, bound = np.empty((2, DISTANCE_CASES))
    for dim in np.unique(dims).tolist():
        at = np.flatnonzero(dims == dim)
        z = gen.standard_normal((len(at), 2, 2, dim))   # case, pair, (re, im), coordinate
        z /= np.sqrt((z * z).sum(axis=(2, 3), keepdims=True))
        states = np.empty((len(at), 2, dim), dtype=complex)
        states.real, states.imag = z[:, :, 0], z[:, :, 1]
        measurement = random_projective_measurement(gen, len(at), dim, min(3, dim))
        tv[at], bound[at] = variational_distance(states[:, 0], states[:, 1], measurement)
    return dims, tv, bound


# ---------------------------------------------------------------------------
# suite driver


def _freeze(obj) -> None:
    """Make every array reachable through obj's dataclass fields, tuples, lists and dicts read-only."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _freeze(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            _freeze(item)
    elif is_dataclass(obj):
        for field in fields(obj):
            _freeze(getattr(obj, field.name))


@dataclass(frozen=True)
class _SuiteCell:
    """What verify_suite computes at one (n, t, k) without reading the seed."""

    frame: LevelFrame                   # its decomp.space is the suite's InputSpace
    structural: tuple[CheckLine, ...]   # the six lines before the run lines, in report order
    cross_term: CheckLine               # the branch cross-term line


@functools.lru_cache(maxsize=CELL_CACHE_SIZE, typed=True)
def _suite_cell(n: int, t: int, k: int) -> _SuiteCell:
    """Build one cell's seed-free part, once per process: its arrays are read-only.

    The size rule refuses an oversize cell before any chain is built, and a
    refusal is an exception, so it is never cached.
    """
    space = build_input_space(n, t)
    _check_joint_dim(space, k)
    chains = build_split_chains(space)
    decomp = build_signed_decomposition(space)
    lines: list[CheckLine] = []

    worst = 0.0
    for chain in chains.values():
        for level in chain[: (t - 1) // 2 + 1]:
            worst = _worst(worst, float(np.abs(level.deflated_norms - level.closed_form_norm).max()))
    lines.append(CheckLine("deflated-norm closed form", worst <= ORTHO_TOL, worst, f"n={n} t={t}"))

    spread = 0.0
    c11_err = 0.0
    for j in range((t - 1) // 2 + 1):
        report = check_unitary_maps(chains, j)
        for check in report.checks:
            if check.present:
                spread = _worst(spread, check.sv_spread, check.residual)
        c11_err = _worst(c11_err, abs(report.c11 - 1.0))
    lines.append(CheckLine("block maps scalar-times-isometry", spread <= ORTHO_TOL, spread, "over j < t/2"))
    lines.append(CheckLine("direct-copy map has unit constant", c11_err <= ORTHO_TOL, c11_err, ""))

    branches = [alpha_beta(n, t, j) for j in range((t - 1) // 2 + 1)]
    beta_sq = max(v for ab in branches for v in ab.beta_sq)
    cross_scaled = max(0.0, *(ab.cross_scaled for ab in branches))
    beta_excess = max(0.0, float(beta_sq) - 2 * t / n)
    lines.append(CheckLine("branch weight bound", beta_sq <= Fraction(2 * t, n), beta_excess, ""))

    report = decomposition_report(decomp)
    dim_err = abs(report.dim_signed - report.dim_expected) + abs(report.dim_levels - report.dim_expected)
    ortho = max(report.ortho_residual, report.start_state_residual)
    lines.append(
        CheckLine(
            "decomposition complete and orthogonal",
            dim_err == 0 and ortho <= ORTHO_TOL,
            ortho,
            f"dims {report.dim_signed}/{report.dim_expected}",
        )
    )

    frame = build_level_frame(decomp, k)
    dominance = containment_residual(frame)
    lines.append(CheckLine("difference blocks sit in high levels", dominance <= ORTHO_TOL, dominance, f"k={k}"))
    _freeze(frame)
    return _SuiteCell(
        frame=frame,
        structural=tuple(lines),
        cross_term=CheckLine("branch cross-term constant (report only)", True, cross_scaled, "scaled by sqrt(t n)"),
    )


def verify_suite(n: int, t: int, k: int, seed: int = 0, runs: int = 10, depth: int = 3) -> list[CheckLine]:
    """Full check battery at one (n, t, k) cell; returns one line per claim.

    The seed-free structure and its six lines come from _suite_cell, so a
    process builds them once per cell however many seeds it runs.  Each run
    draws its program from its own stream; the runs go through recast_run and
    potential_from_joint in stacks whose every depth holds at most the joint
    states the size rule admits for one run; decay and growth are folded over
    each stack's arrays.  The potential's product keeps the column masses of the
    stack's runs among 0-2, which run_masses reduces to what their probability
    bounds read; those bounds, at every m, are one call after the last stack.
    """
    if runs < 1 or depth < 1:
        raise InstanceError("runs and depth must be at least 1")
    rng = SeededRng(seed)
    cell = _suite_cell(n, t, k)
    frame = cell.frame
    space = frame.decomp.space
    lines = list(cell.structural)

    dim_a = (k * n + 1) * SUITE_WORKSPACE
    stack = max(1, RUN_JOINT_DIM_CAP // (dim_a * space.dim**k))
    decay = growth_max = 0.0
    cases = []
    for start in range(0, runs, stack):
        idxs = range(start, min(start + stack, runs))
        programs = random_program([rng.spawn("program", idx) for idx in idxs], dim_a, depth)
        run = recast_run(programs, space, k, workspace_dim=SUITE_WORKSPACE)
        # the column masses of the stack's runs among 0-2, for their probability bounds
        kept = np.empty((len(range(start, min(idxs.stop, 3))), depth + 1, *run.states.shape[2:]))
        by_depth = [potential_from_joint(run.states[:, d], frame, kept[:, d]) for d in range(depth + 1)]
        values = np.column_stack([report.values for report in by_depth])
        decay = _worst(decay, *(float(report.decay_excess.max()) for report in by_depth))
        growth_max = _worst(growth_max, float(((values[:, 1:] / values[:, :-1] - 1.0) * math.sqrt(t * n)).max()))
        for i, columns in enumerate(kept):
            masses = run_masses(replace(run, states=run.states[i : i + 1]), frame, columns)
            cases += [(masses, m, rng.spawn("bounds", start + i, m)) for m in range(k + 1)]
    bounds = success_probability_bounds(frame, cases)
    prob_worst = _worst(bounds.span_excess, bounds.run_excess, bounds.projection_excess)
    lines.append(CheckLine("potential tail decay along runs", decay <= BOUND_SLACK, decay, f"{runs} runs"))
    lines.append(
        CheckLine("probability bounds along runs", prob_worst <= BOUND_SLACK, prob_worst, "low-span, corrected, block")
    )
    lines.append(CheckLine("one-query growth constant (report only)", True, growth_max, "scaled by sqrt(t n)"))
    lines.append(cell.cross_term)

    _, tv, bound = distance_cases(rng.spawn("tv", n, t, k))
    margin = _worst(0.0, float((tv - bound).max()))
    lines.append(CheckLine("outcome-distribution distance bound", margin <= 1e-12, margin,
                           f"{DISTANCE_CASES} random cases"))
    return lines
