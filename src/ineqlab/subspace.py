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

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .core import CheckLine, InstanceError, SeededRng

ORTHO_TOL = 1e-9
DEPENDENCE_TOL = 1e-8
PSD_FLOOR = -1e-10
BOUND_SLACK = 1e-9
# caps keeping every construction dense and fast
SPACE_CLASS_CAP = 10**4       # on C(n, t)
PRODUCT_FACTORS_CAP = 2       # k-fold tensor spaces
PRODUCT_ONE_DIM_CAP = 32      # per-factor dimension for k >= 2
RUN_JOINT_DIM_CAP = 2**14     # dim(work register) * dim(input register)
SAMPLE_TRIALS = 50            # random states per sampled probability check


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


def _check_product_caps(space: InputSpace, k: int) -> None:
    if not (1 <= k <= PRODUCT_FACTORS_CAP):
        raise InstanceError(f"k must be in 1..{PRODUCT_FACTORS_CAP}")
    if k >= 2 and space.dim > PRODUCT_ONE_DIM_CAP:
        raise InstanceError("per-factor dimension too large for tensor products")


def _kron_columns(blocks: list[np.ndarray]) -> np.ndarray:
    out = blocks[0]
    for block in blocks[1:]:
        out = np.kron(out, block)
    return out


def _product_blocks(blocks: list[np.ndarray], k: int) -> dict[int, np.ndarray]:
    """Kronecker products of k factor blocks, grouped by the sum of the block indices.

    Index tuples run in lexicographic order, so each group's columns keep that
    order; the random draws over these columns depend on it.
    """
    grouped: dict[int, list[np.ndarray]] = {}
    for idx in product(range(len(blocks)), repeat=k):
        grouped.setdefault(sum(idx), []).append(_kron_columns([blocks[i] for i in idx]))
    return {m: np.hstack(parts) for m, parts in sorted(grouped.items())}


def _class_masks(space: InputSpace, k: int) -> dict[tuple[int, ...], np.ndarray]:
    """Joint-basis masks selecting, per factor, one weight class."""
    per = {a: space.class_mask(a).astype(float).reshape(-1, 1) for a in (0, 1)}
    return {answers: _kron_columns([per[a] for a in answers]).ravel() > 0.5
            for answers in product((0, 1), repeat=k)}


@dataclass(eq=False)
class LevelFrame:
    """The k-fold product structure of one signed decomposition, built once.

    answer_blocks[js] lists, over answer tuples in lexicographic order, the
    product of the answer-class fresh blocks at the factor levels js.
    """

    params: PotentialParams
    decomp: SignedDecomposition
    columns: np.ndarray     # (dim_i, dim_i) growth-level columns
    labels: np.ndarray      # level index per column
    minus: dict[int, np.ndarray]    # columns by count of phase-difference factors
    masks: dict[tuple[int, ...], np.ndarray]   # joint weight classes per answer tuple
    answer_blocks: dict[tuple[int, ...], list[np.ndarray]]


def build_level_frame(decomp: SignedDecomposition, k: int) -> LevelFrame:
    space = decomp.space
    _check_product_caps(space, k)
    levels = _product_blocks(list(decomp.levels), k)
    columns = np.hstack(list(levels.values()))
    if columns.shape[0] != columns.shape[1]:
        raise InstanceError("growth levels do not fill the product space")
    labels = np.repeat(list(levels), [block.shape[1] for block in levels.values()])
    del levels  # free the per-level copies before the signed sides are built
    t = space.t
    q = Fraction(t + 1, t)
    top = decomp.top_level
    weights = tuple(float(q) ** m for m in range(k * top + 1))
    chains = (decomp.chain0, decomp.chain1)
    answers = list(product((0, 1), repeat=k))
    return LevelFrame(
        params=PotentialParams(t=t, k=k, q=q, top_level=top, weights=weights),
        decomp=decomp,
        columns=columns,
        labels=labels,
        minus=_product_blocks([np.hstack(decomp.plus), np.hstack(decomp.minus)], k),
        masks=_class_masks(space, k),
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
    for m, cols in frame.minus.items():
        high = frame.columns[:, frame.labels >= math.ceil(frame.params.t * m / 2)]
        gap = cols @ cols.T
        gap -= high @ high.T
        worst = max(worst, float(np.linalg.eigvalsh(gap).max()))
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
        a_sq, b_sq = a_sq / total, b_sq / total
        alpha_sq.append(a_sq)
        beta_sq.append(b_sq)
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
    """Joint evolution of a work register and a k-fold input register.

    states[d] is the joint pure state after d queries, shaped (dim_a, dim_i).
    The input-register density matrix states[d].T @ states[d].conj() is never
    formed: every check reads its masses off the pure state.
    """

    space: InputSpace
    k: int
    query_slots: int
    states: tuple[np.ndarray, ...]

    @property
    def dim_i(self) -> int:
        return self.space.dim**self.k

    @property
    def depth(self) -> int:
        return len(self.states) - 1


def recast_run(
    program,
    space: InputSpace,
    k: int,
    workspace_dim: int = 1,
) -> RecastRun:
    """Run a sequence of work-register unitaries interleaved with phase queries.

    The work register starts in basis state 0; the input register holds k
    copies of the two-weight `space`, initialized in the product of start
    states.  Each program step applies its unitary to the work register and
    then one query: the query slot (part of the work register, slot 0 idle)
    selects a bit of the joint input, and basis states with that bit set
    acquire phase -1.
    """
    _check_product_caps(space, k)
    n = space.n
    slots = k * n + 1
    dim_a = slots * workspace_dim
    dim_i = space.dim**k
    if dim_a * dim_i > RUN_JOINT_DIM_CAP:
        raise InstanceError("joint dimension exceeds the dense-run cap")
    signs = 1.0 - 2.0 * space.bits.astype(float)  # (dim_one, n): +1 for bit 0, -1 for bit 1
    phase = np.ones((slots, dim_i))
    ones_i = np.ones(space.dim)
    for q in range(1, slots):
        inst, pos = divmod(q - 1, n)
        parts = [ones_i] * k
        parts[inst] = signs[:, pos]
        phase[q] = _kron_columns([p.reshape(-1, 1) for p in parts]).ravel()
    phi = np.zeros((dim_a, dim_i), dtype=complex)
    phi[0] = _kron_columns([space.psi_one.reshape(-1, 1)] * k).ravel()
    states = [phi.copy()]
    for step, gate in enumerate(program):
        gate = np.asarray(gate, dtype=complex)
        if gate.shape != (dim_a, dim_a):
            raise InstanceError(f"program step {step} has wrong shape")
        defect = np.abs(gate.conj().T @ gate - np.eye(dim_a)).max()
        if defect > 1e-9:
            raise InstanceError(f"program step {step} is not unitary (defect {defect:.2e})")
        phi = gate @ phi
        shaped = phi.reshape(slots, workspace_dim, dim_i)
        shaped *= phase[:, None, :]
        phi = shaped.reshape(dim_a, dim_i)
        states.append(phi.copy())
    for d, state in enumerate(states):
        # |phi|^2 is the trace of the reduced state
        trace = float(np.real(np.vdot(state, state)))
        if abs(trace - 1.0) > 1e-9:
            raise InstanceError(f"reduced state at depth {d} has trace {trace}")
    return RecastRun(space=space, k=k, query_slots=slots, states=tuple(states))


def random_program(rng: SeededRng, dim: int, depth: int) -> tuple[np.ndarray, ...]:
    """Haar-style random unitaries for driving recast runs."""
    gen = rng.stream
    out = []
    for _ in range(depth):
        z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        q = q * (diag / np.abs(diag))
        out.append(q)
    return tuple(out)


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
    params: PotentialParams
    masses: tuple[float, ...]
    value: float
    mass_sum: float
    decay_excess: float   # worst violation of the tail-decay inequality


def _masses_report(masses: np.ndarray, params: PotentialParams) -> PotentialReport:
    value = float(np.dot(masses, params.weights))
    qf = float(params.q)
    worst = 0.0
    # tail-decay inequality: total mass at or above level t*m/2 is at most
    # the potential discounted by q^{t*m/2}, for every difference count m
    for m in range(params.k + 1):
        threshold = params.t * m / 2.0
        tail = float(masses[math.ceil(threshold) :].sum())
        bound = value * qf ** (-threshold)
        worst = max(worst, tail - bound)
    return PotentialReport(
        params=params,
        masses=tuple(float(v) for v in masses),
        value=value,
        mass_sum=float(masses.sum()),
        decay_excess=worst,
    )


def potential(rho: np.ndarray, frame: LevelFrame) -> PotentialReport:
    """Level masses and their exponentially weighted sum for a density matrix."""
    rotated = frame.columns.conj().T @ rho @ frame.columns
    diag = np.real(np.diagonal(rotated))
    masses = np.zeros(len(frame.params.weights))
    np.add.at(masses, frame.labels, diag)
    if masses.min() < -1e-9:
        raise InstanceError("negative level mass")
    return _masses_report(np.clip(masses, 0.0, None), frame.params)


def potential_from_joint(phi: np.ndarray, frame: LevelFrame) -> PotentialReport:
    """Same masses computed directly from a joint pure state (cheaper than rho)."""
    overlaps = phi @ frame.columns.conj()
    weights_per_col = np.abs(overlaps) ** 2
    per_col = weights_per_col.sum(axis=0)
    masses = np.zeros(len(frame.params.weights))
    np.add.at(masses, frame.labels, per_col)
    return _masses_report(np.clip(masses, 0.0, None), frame.params)


# ---------------------------------------------------------------------------
# probability bounds


def _binomial_tail(k: int, m: int) -> float:
    return sum(math.comb(k, mp) for mp in range(m + 1)) / 2**k


@dataclass(frozen=True)
class SuccessBoundReport:
    k: int
    m: int
    binomial_bound: float
    span_excess: float          # random states confined to low difference counts
    run_excess: float           # along the run, with the residual-mass correction
    projection_excess: float    # product-block squared projections vs 2^-k


def success_probability_bounds(
    frame: LevelFrame, run: RecastRun, m: int, rng: SeededRng
) -> SuccessBoundReport:
    """Three checks tying answer probabilities to the signed decomposition.

    (i) random unit states with difference count <= m never beat the binomial
    bound; (ii) the run's states never beat it plus the residual-mass
    correction 4*sqrt(mass outside the low-difference span); (iii) a unit
    vector in any signed product block projects onto any answer block with
    squared norm at most 2^-k.  `frame` must be built for the run's (n, t, k).
    """
    decomp, k = frame.decomp, frame.params.k
    space = decomp.space
    if (space.n, space.t, k) != (run.space.n, run.space.t, run.k):
        raise InstanceError("frame and run disagree on (n, t, k)")
    if not (0 <= m <= k):
        raise InstanceError("difference count m must be in 0..k")
    bound = _binomial_tail(k, m)
    gen = rng.stream

    low_cols = np.hstack([frame.minus[mp] for mp in range(m + 1)])
    span_excess = 0.0
    for _ in range(SAMPLE_TRIALS):
        coeff = gen.standard_normal(low_cols.shape[1])
        psi = low_cols @ (coeff / np.linalg.norm(coeff))
        for mask in frame.masks.values():
            prob = float(np.sum(psi[mask] ** 2))
            span_excess = max(span_excess, prob - bound)

    # masses read straight off the joint pure states: the reduced state's
    # diagonal is the column mass of phi, its low-span mass |phi @ low_cols|^2
    run_excess = 0.0
    for phi in run.states:
        inside = float(np.sum(np.abs(phi @ low_cols) ** 2))
        residual = max(0.0, 1.0 - inside)
        corrected = bound + 4.0 * math.sqrt(residual)
        diag = np.sum(np.abs(phi) ** 2, axis=0)
        for mask in frame.masks.values():
            prob = float(diag[mask].sum())
            run_excess = max(run_excess, prob - corrected)

    # the per-block projection claim applies where both sign blocks exist,
    # which is every level below t (the level-t leftover block is itself a
    # weight class, so its answer projection is trivially 0 or 1)
    projection_excess = 0.0
    signed_blocks = {("plus", j): decomp.plus[j] for j in range(space.t)}
    signed_blocks.update({("minus", j): decomp.minus[j] for j in range(space.t)})
    keys = sorted(signed_blocks.keys())
    for _ in range(SAMPLE_TRIALS):
        factors = []
        levels = []
        for _ in range(k):
            side, j = keys[int(gen.integers(len(keys)))]
            cols = signed_blocks[(side, j)]
            coeff = gen.standard_normal(cols.shape[1])
            factors.append((cols @ (coeff / np.linalg.norm(coeff))).reshape(-1, 1))
            levels.append(j)
        psi = _kron_columns(factors).ravel()
        for block in frame.answer_blocks[tuple(levels)]:
            proj = block.T @ psi
            projection_excess = max(
                projection_excess, float(proj @ proj) - 1.0 / 2**k
            )

    return SuccessBoundReport(
        k=k,
        m=m,
        binomial_bound=bound,
        span_excess=span_excess,
        run_excess=run_excess,
        projection_excess=projection_excess,
    )


# ---------------------------------------------------------------------------
# variational distance


def variational_distance(psi: np.ndarray, psi_prime: np.ndarray, measurement) -> tuple[float, float]:
    """Total variation between outcome distributions, and its 2-norm bound."""
    psi = np.asarray(psi, dtype=complex)
    psi_prime = np.asarray(psi_prime, dtype=complex)
    dim = psi.shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    tv = 0.0
    for proj in measurement:
        proj = np.asarray(proj, dtype=complex)
        if np.abs(proj @ proj - proj).max() > 1e-8:
            raise InstanceError("measurement element is not a projector")
        total += proj
        p = float(np.real(psi.conj() @ proj @ psi))
        p_prime = float(np.real(psi_prime.conj() @ proj @ psi_prime))
        tv += abs(p - p_prime)
    if np.abs(total - np.eye(dim)).max() > 1e-8:
        raise InstanceError("measurement does not resolve the identity")
    return 0.5 * tv, 2.0 * float(np.linalg.norm(psi - psi_prime))


def random_projective_measurement(rng: SeededRng, dim: int, parts: int):
    """Random orthogonal projectors splitting C^dim into `parts` blocks."""
    gen = rng.stream
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    cuts = sorted(gen.choice(np.arange(1, dim), size=parts - 1, replace=False)) if parts > 1 else []
    bounds = [0, *cuts, dim]
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = q[:, lo:hi]
        out.append(block @ block.conj().T)
    return out


# ---------------------------------------------------------------------------
# suite driver


def growth_ratios(reports: list[PotentialReport]) -> list[float]:
    """Per-query potential growth factors from the reports of a run's states."""
    return [after.value / before.value for before, after in zip(reports[:-1], reports[1:])]


def verify_suite(n: int, t: int, k: int, seed: int = 0, runs: int = 10, depth: int = 3) -> list[CheckLine]:
    """Full check battery at one (n, t, k) cell; returns one line per claim."""
    if runs < 1 or depth < 1:
        raise InstanceError("runs and depth must be at least 1")
    rng = SeededRng(seed)
    lines: list[CheckLine] = []
    space = build_input_space(n, t)
    chains = build_split_chains(space)
    decomp = build_signed_decomposition(space)

    worst = 0.0
    for chain in chains.values():
        for level in chain[: (t - 1) // 2 + 1]:
            worst = max(worst, float(np.abs(level.deflated_norms - level.closed_form_norm).max()))
    lines.append(CheckLine("deflated-norm closed form", worst <= ORTHO_TOL, worst, f"n={n} t={t}"))

    spread = 0.0
    c11_err = 0.0
    for j in range((t - 1) // 2 + 1):
        report = check_unitary_maps(chains, j)
        for check in report.checks:
            if check.present:
                spread = max(spread, check.sv_spread, check.residual)
        c11_err = max(c11_err, abs(report.c11 - 1.0))
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

    workspace = 2
    dim_a = (k * n + 1) * workspace
    decay = 0.0
    growth_max = 0.0
    prob_worst = 0.0
    for idx in range(runs):
        program = random_program(rng.spawn("program", idx), dim_a, depth)
        run = recast_run(program, space, k, workspace_dim=workspace)
        reports = [potential_from_joint(phi, frame) for phi in run.states]
        decay = max(decay, *(report.decay_excess for report in reports))
        for ratio in growth_ratios(reports):
            growth_max = max(growth_max, (ratio - 1.0) * math.sqrt(t * n))
        if idx < 3:
            for m in range(k + 1):
                bounds = success_probability_bounds(frame, run, m, rng.spawn("bounds", idx, m))
                prob_worst = max(
                    prob_worst, bounds.span_excess, bounds.run_excess, bounds.projection_excess
                )
    lines.append(CheckLine("potential tail decay along runs", decay <= BOUND_SLACK, decay, f"{runs} runs"))
    lines.append(
        CheckLine("probability bounds along runs", prob_worst <= BOUND_SLACK, prob_worst, "low-span, corrected, block")
    )
    lines.append(CheckLine("one-query growth constant (report only)", True, growth_max, "scaled by sqrt(t n)"))
    lines.append(
        CheckLine("branch cross-term constant (report only)", True, cross_scaled, "scaled by sqrt(t n)")
    )

    tv_violations = 0
    worst_margin = 0.0
    for idx in range(200):
        sub = rng.spawn("tv", idx)
        gen = sub.stream
        dim = int(gen.integers(2, 17))
        vec = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        vec2 = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        psi = vec / np.linalg.norm(vec)
        psi2 = vec2 / np.linalg.norm(vec2)
        measurement = random_projective_measurement(sub.spawn("meas"), dim, min(3, dim))
        tv, bound = variational_distance(psi, psi2, measurement)
        if tv > bound + 1e-12:
            tv_violations += 1
        worst_margin = max(worst_margin, tv - bound)
    lines.append(
        CheckLine("outcome-distribution distance bound", tv_violations == 0, worst_margin, "200 random cases")
    )
    return lines
