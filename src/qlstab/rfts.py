"""Robust finite-time stabilization: neighborhood algebras, virtual-subsystem
factorization, circuit construction, and the correlation-based necessary
conditions.

The factorization pipeline works on coarse-grained subsystems restricted to
the local support of the target. Neighborhood algebras are computed on their
own (restricted) neighborhood spaces; all cross-neighborhood commutation
checks reduce to operator Schmidt components on overlaps, and the
factorization is one local split per neighborhood, so nothing larger than a
neighborhood space is materialized besides the target vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import hilbert
from . import subspaces
from ._linalg import (
    CLUSTER_RTOL,
    DEFAULT_TOL,
    check_budget,
    cluster_starts,
    connected_components,
    frob,
    kron_all,
    nullspace,
    orthonormal_columns,
    random_density,
    rank_cutoff,
    trace_distance,
    trace_distance_to_pure_bound,
    von_neumann_entropy,
)
from .channels import Channel
from .hilbert import MultipartiteSpace, NeighborhoodStructure


# ---------------------------------------------------------------------------
# commutants and algebra bases
# ---------------------------------------------------------------------------

# (largest merged gap, smallest split gap) of a clustering that split nothing
# and merged nothing.
NO_GAPS = (0.0, math.inf)


def _merge_gaps(*gaps: tuple[float, float]) -> tuple[float, float]:
    return max(g[0] for g in gaps), min(g[1] for g in gaps)


@dataclass(frozen=True)
class AlgebraBasis:
    """Orthonormal (HS) basis of an operator algebra on a declared space.

    `cluster_gaps` is the eigenvalue-clustering margin of the computation that
    produced the basis (see `commutant`).
    """

    elements: tuple[np.ndarray, ...]
    ambient_dim: int
    cluster_gaps: tuple[float, float] = NO_GAPS

    @property
    def dim(self) -> int:
        return len(self.elements)

    def contains(self, x: np.ndarray, tol: float = 1e-8) -> bool:
        v = x.reshape(-1)
        coeffs = np.array([e.reshape(-1).conj() @ v for e in self.elements])
        recon = sum(c * e for c, e in zip(coeffs, self.elements))
        return bool(np.max(np.abs(recon - x)) < tol * max(1.0, np.max(np.abs(x))))

    def validate(self, tol: float = 1e-7) -> dict:
        """Adjoint closure, product closure, and identity membership defects."""
        adj = max(
            (0.0 if self.contains(e.conj().T, tol) else 1.0) for e in self.elements
        )
        rng = np.random.default_rng(2)
        prod = 0.0
        for _ in range(6):
            a = self.random_element(rng, hermitian=False)
            b = self.random_element(rng, hermitian=False)
            prod = max(prod, 0.0 if self.contains(a @ b, tol) else 1.0)
        ident = 0.0 if self.contains(np.eye(self.ambient_dim, dtype=complex), tol) else 1.0
        return {"adjoint": adj, "product": prod, "identity": ident}

    def random_element(self, rng, hermitian: bool = True) -> np.ndarray:
        w = rng.normal(size=self.dim) + 1j * rng.normal(size=self.dim)
        x = sum(c * e for c, e in zip(w, self.elements))
        return x + x.conj().T if hermitian else x

    def generic_pair(self, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """A generic Hermitian element and a generic element, drawn from `seed`."""
        rng = np.random.default_rng(seed)
        return self.random_element(rng, hermitian=True), self.random_element(rng, hermitian=False)

    def center_dim(self) -> int:
        """Dimension of the center: the number of simple blocks of the algebra."""
        return _blocks(*self.generic_pair())[1]


def _eigen_clusters(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Eigenvectors of a Hermitian h grouped into clusters of equal eigenvalues.

    Returns the eigenvectors (ascending eigenvalues), the index of the first
    column of every cluster, and the margin (largest merged gap, smallest split gap), both
    relative to max|eigenvalue|.
    """
    ev, vec = np.linalg.eigh(h)
    starts, margin = cluster_starts(ev)
    return vec, starts, margin


def _blocks(a: np.ndarray, x: np.ndarray):
    """Simple-block structure of the *-algebra that a (Hermitian) and x are
    generic in: (eigenvector clusters of a, number of simple blocks, margin).

    Every cluster of a lies in one simple block; x links two clusters of the
    same block and no two clusters of different blocks (Murota, Kanno, Kojima
    & Kojima, Japan J. Indust. Appl. Math. 27:125, 2010).
    """
    vec, starts, gaps = _eigen_clusters(a)
    y = np.abs(vec.conj().T @ x @ vec) ** 2
    weight = np.add.reduceat(np.add.reduceat(y, starts, axis=0), starts, axis=1)
    linked = weight > (CLUSTER_RTOL * frob(x)) ** 2
    return np.split(vec, starts[1:], axis=1), connected_components(linked), gaps


def _adjoint_closed(ops: list[np.ndarray]) -> bool:
    """Whether the span of (nonempty) `ops` contains the adjoint of every op."""
    flat = np.array([s.reshape(-1) for s in ops]).T
    adj = np.array([s.conj().T.reshape(-1) for s in ops]).T
    span = orthonormal_columns(flat)
    return frob(adj - span @ (span.conj().T @ adj)) <= CLUSTER_RTOL * frob(flat)


def commutant(ops: list[np.ndarray], dim: int | None = None) -> AlgebraBasis:
    """Basis of {X : [X, M] = 0 for every M}.

    When the span of `ops` is closed under the adjoint (as for the operator
    Schmidt factors of Hermitian projectors), every X in the commutant commutes
    with a generic Hermitian combination h of `ops`, so X is block diagonal over
    h's eigenvalue clusters. Otherwise h is taken as 0: one cluster, all dim^2
    entries unknown. Only the in-block entries are solved for, from one stacked
    system holding [X, V^H M V] = 0 for every M. Its rank is cut relative to
    max ||M||_2, so a system that vanishes up to roundoff (ops already block
    diagonal, e.g. scalars) keeps every unknown.
    """
    ops = [np.asarray(m, dtype=complex) for m in ops]
    if dim is None:
        if not ops:
            raise ValueError("need operators or an explicit dimension")
        dim = ops[0].shape[0]
    rng = np.random.default_rng(0)
    c = rng.normal(size=len(ops)) + 1j * rng.normal(size=len(ops))
    h = sum((ck * s for ck, s in zip(c, ops)), np.zeros((dim, dim), dtype=complex))
    if ops and not _adjoint_closed(ops):
        h = np.zeros_like(h)
    vec, starts, gaps = _eigen_clusters(0.5 * (h + h.conj().T))
    label = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, dim)))
    rows, cols = np.nonzero(label[:, None] == label[None, :])
    k = len(rows)
    # the system, the factorization's copy of it, and a left factor of its size
    # (an upper bound: `nullspace` takes a tall system through QR and forms none)
    check_budget(3 * len(ops) * dim * dim * k * 16, f"commutant system of {len(ops)} x {dim}^2 x {k}")
    system = np.zeros((len(ops), dim, dim, k), dtype=complex)
    unknown = np.arange(k)
    for block, s in zip(system, ops):
        sv = vec.conj().T @ s @ vec
        # X = E_ab contributes sv[b, :] to row a and -sv[:, a] to column b
        block[rows, :, unknown] = sv[cols, :]
        block[:, cols, unknown] -= sv[:, rows]
    scale = max((np.linalg.norm(s, 2) for s in ops), default=0.0)
    null = nullspace(system.reshape(-1, k), scale=scale)
    xs = np.zeros((null.shape[1], dim, dim), dtype=complex)
    xs[:, rows, cols] = null.T
    return AlgebraBasis(tuple(vec @ xs @ vec.conj().T), dim, gaps)


# ---------------------------------------------------------------------------
# local supports and restricted projectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalSupport:
    site_isometries: tuple[np.ndarray, ...]  # d_i x r_i
    restricted_dims: tuple[int, ...]

    @property
    def h_tilde_dim(self) -> int:
        return int(np.prod(self.restricted_dims))

    def h0_dim(self, space: MultipartiteSpace) -> int:
        return space.total_dim - self.h_tilde_dim

    def region_isometry(self, region) -> np.ndarray:
        return kron_all([self.site_isometries[i] for i in sorted(region)])


def local_support(state, space: MultipartiteSpace, rtol: float = DEFAULT_TOL.rank_rtol) -> LocalSupport:
    """Per-subsystem supports supp(Tr_complement rho)."""
    state = np.asarray(state, dtype=complex)
    isos = []
    for i in range(space.n_subsystems):
        red = hilbert.reduced_state(state, [i], space)
        ev, vec = np.linalg.eigh(red)
        keep = ev > rtol * max(ev.max(), 0.0) * space.dims[i]
        cols = vec[:, keep]
        isos.append(cols[:, ::-1])
    return LocalSupport(tuple(isos), tuple(v.shape[1] for v in isos))


def _restricted_projector(psi, region, space, support: LocalSupport):
    """Extended-span projector of `region` restricted to the local supports."""
    span = subspaces.schmidt_span(psi, region, space)
    p_local = span.basis @ span.basis.conj().T
    w = support.region_isometry(region)
    p = w.conj().T @ p_local @ w
    defect = float(np.max(np.abs(p @ p - p)))
    return p, defect


def _operator_schmidt_factors(op, region, space: MultipartiteSpace, rtol: float = DEFAULT_TOL.rank_rtol):
    """Operator Schmidt factors of `op` across `region` and its complement.

    Returns the region-side matrices of a decomposition op = sum_mu A_mu x B_mu
    with orthonormal B_mu, each A_mu scaled by its singular value. Singular
    values at or below the `rank_cutoff` of `rtol` are dropped; rtol = 0 keeps
    every nonzero one, so the sum is op itself.
    """
    t = hilbert.to_front(op, region, space, sides=2)
    da, db = t.shape[:2]
    t = t.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, s, _ = np.linalg.svd(t, full_matrices=False)
    r = rank_cutoff(s, t.shape, rtol)
    return [ (s[j] * u[:, j]).reshape(da, da) for j in range(r) ]


def _commutator_norms(xs, x_support, ys, y_support, space: MultipartiteSpace) -> np.ndarray:
    """||[X_i (x) I, Y_j (x) I]||_F for every X_i on the sites `x_support` of
    `space` and Y_j on `y_support`, on the union of the supports; zeros when
    they are disjoint."""
    norms = np.zeros((len(xs), len(ys)))
    for norms in _partial_commutator_norms(xs, x_support, ys, y_support, space):
        pass  # the last yield is exact
    return norms


def _overlap_factors(ops, support, overlap, space: MultipartiteSpace):
    """Every operator Schmidt factor on `overlap` of the operators `ops` on
    the sites `support` of `space`, every nonzero singular value kept
    (`_operator_schmidt_factors` at rtol = 0): the factors stacked (F, do, do),
    and their owners one-hot (F, len(ops))."""
    sub = MultipartiteSpace([space.dims[i] for i in support])
    pos = [list(support).index(i) for i in overlap]
    do = space.dim_of(overlap)
    per_op = [_operator_schmidt_factors(op, pos, sub, rtol=0.0) for op in ops]
    owner = np.repeat(np.arange(len(ops)), [len(f) for f in per_op])
    stack = np.array([f for fs in per_op for f in fs], dtype=complex).reshape(-1, do, do)
    return stack, np.eye(len(ops))[owner]


def _channel_factors(c: Channel, overlap, space: MultipartiteSpace):
    """`_overlap_factors` of the Kraus operators of `c`, memoized with the
    channel (`Channel.factor_memo`) under the overlap's positions in its
    support and the dims of its sites, so the pairs of a family factor each
    (channel, overlap) once however many bounds read it."""
    key = (tuple(c.support.index(i) for i in overlap), tuple(space.dims[i] for i in c.support))
    if key not in c.factor_memo:
        c.factor_memo[key] = _overlap_factors(c.kraus, c.support, overlap, space)
    return c.factor_memo[key]


def _partial_commutator_norms(xs, x_support, ys, y_support, space: MultipartiteSpace, factors=None):
    """Yield the `_commutator_norms` matrix over the A factors seen so far,
    once per chunk of them; nothing when the supports are disjoint. No entry
    ever decreases, and the last yield is the whole matrix.

    Operator Schmidt factors across the overlap O, X = sum_mu A_mu (x) B_mu
    and Y = sum_nu C_nu (x) E_nu with the B_mu and the E_nu orthonormal and
    every nonzero singular value kept, give ||[X, Y]||^2 =
    sum_{mu,nu} ||[A_mu, C_nu]||^2. The commutators are formed explicitly (a
    trace expansion of the square loses half the digits), as two GEMMs per
    chunk of A factors: the chunk stacked times the C factors side by side,
    and the C factors stacked times the chunk side by side. One chunk's
    product fits in `channels.STACK_MAX_BYTES`. `factors`, when given, is
    the pair of `_overlap_factors` of the two sides, already computed.
    """
    overlap = sorted(set(x_support) & set(y_support))
    if not overlap:
        return
    do = space.dim_of(overlap)
    if factors is None:
        factors = (_overlap_factors(xs, x_support, overlap, space), _overlap_factors(ys, y_support, overlap, space))
    (a, a_owner), (c, c_owner) = factors
    side = c.transpose(1, 0, 2).reshape(do, -1)
    sq = np.zeros((len(xs), len(ys)))
    chunk = max(1, ch.STACK_MAX_BYTES // (16 * do * do * max(len(c), 1)))
    for lo in range(0, len(a), chunk):
        blk = a[lo:lo + chunk]
        ac = (blk.reshape(-1, do) @ side).reshape(len(blk), do, len(c), do)
        ca = (c.reshape(-1, do) @ blk.transpose(1, 0, 2).reshape(do, -1)).reshape(len(c), do, len(blk), do)
        ac -= ca.transpose(2, 1, 0, 3)
        re_im = ac.view(float)
        sq += a_owner[lo:lo + chunk].T @ np.einsum("irjc,irjc->ij", re_im, re_im) @ c_owner
        yield np.sqrt(sq)


# ---------------------------------------------------------------------------
# neighborhood algebras
# ---------------------------------------------------------------------------

def neighborhood_algebra(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    j: int,
    space: MultipartiteSpace,
    support: LocalSupport | None = None,
    projector_cache: dict | None = None,
) -> AlgebraBasis:
    """Largest algebra on the restricted neighborhood-j space commuting with
    every other restricted neighborhood projector."""
    psi = np.asarray(psi, dtype=complex)
    if support is None:
        support = local_support(psi, space)
    nj = nstruct[j]
    sub_dims = [support.restricted_dims[i] for i in nj]
    mj = int(np.prod(sub_dims))
    constraints: list[np.ndarray] = []
    for k, nk in enumerate(nstruct):
        if k == j or not (set(nk) & set(nj)):
            continue
        if projector_cache is not None and k in projector_cache:
            pk, defect = projector_cache[k]
        else:
            pk, defect = _restricted_projector(psi, nk, space, support)
            if projector_cache is not None:
                projector_cache[k] = (pk, defect)
        if defect > 1e-7:
            raise DegenerateRestrictionWarning(
                f"restricted projector for neighborhood {nk} is not idempotent "
                f"(defect {defect:.2e}); local supports overlap degenerately"
            )
        overlap = sorted(set(nk) & set(nj))
        if len(overlap) == len(nk):
            factors = [pk]
        else:
            space_k = MultipartiteSpace([support.restricted_dims[i] for i in nk])
            factors = _operator_schmidt_factors(pk, [nk.index(i) for i in overlap], space_k)
        # embed the overlap components into the neighborhood-j space
        sub_space = MultipartiteSpace(sub_dims)
        pos = [nj.index(i) for i in overlap]
        for f in factors:
            constraints.append(
                hilbert.embed(hilbert.RegionOperator(f, pos), sub_space)
            )
    return commutant(constraints, mj)


class DegenerateRestrictionWarning(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# factor representations and the global factorization
# ---------------------------------------------------------------------------

class FactorizationError(RuntimeError):
    pass


def factor_representation(basis: AlgebraBasis, seed: int = 0):
    """Unitary g with g^H A g = B(C^f) (x) I_q for a trivial-center algebra.

    Returns (g, f, q); see `_factor_split`.
    """
    g, f, q, _ = _factor_split(*basis.generic_pair(seed))
    if f * f != basis.dim:
        raise FactorizationError(f"{f} clusters in an algebra of dimension {basis.dim}")
    return g, f, q


def _factor_split(a: np.ndarray, x: np.ndarray):
    """Factor split of the algebra that a (Hermitian) and x are generic in.

    The algebra must be one simple block of f equal-size clusters of a. The
    intertwiners E_i^H x E_0 align every cluster with the first one. Returns
    (g, f, q, gaps) with the columns of g ordered factor-major.
    """
    es, components, gaps = _blocks(a, x)
    f, q = len(es), es[0].shape[1]
    if components != 1:
        raise FactorizationError(f"center of dimension {components}")
    if any(e.shape[1] != q for e in es):
        raise FactorizationError("representation multiplicities differ")
    cols = [es[0]]
    for e in es[1:]:
        t = e.conj().T @ x @ es[0]
        c = np.linalg.norm(t) / np.sqrt(q)
        if c <= CLUSTER_RTOL * frob(x):
            raise FactorizationError("clusters are not linked to the first one")
        u = t / c
        if np.max(np.abs(u.conj().T @ u - np.eye(q))) > 1e-6:
            raise FactorizationError("intertwiner is not unitary")
        cols.append(e @ u)
    return np.hstack(cols), f, q, gaps


@dataclass(frozen=True)
class Factorization:
    """Change of basis H ~ (tensor of virtual factors) (+) H0, stored as
    one local split per coarse neighborhood.

    `splits[j] = (g_j, f_j, q_j)`: on the local support of neighborhood j (the
    range of `support.region_isometry(neighborhoods[j])`), the unitary g_j,
    columns ordered factor-major, maps C^{f_j} (x) C^{q_j} so that the
    neighborhood algebra is B(C^{f_j}) (x) I. The factor algebras commute
    pairwise and the f_j multiply to dim H~, so they generate B(H~) ~ (x)_j
    B(C^{f_j}) without a global change of basis.
    """

    factor_dims: tuple[int, ...]
    splits: tuple[tuple[np.ndarray, int, int], ...]
    support: LocalSupport
    space: MultipartiteSpace
    neighborhoods: NeighborhoodStructure
    h0_dim: int

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """Local-support coordinates of a global vector."""
        x = np.asarray(v, dtype=complex).reshape(self.space.dims)
        for i, w in enumerate(self.support.site_isometries):
            x = np.moveaxis(np.tensordot(w.conj().T, x, axes=(1, i)), 0, i)
        return x.reshape(-1)


@dataclass(frozen=True)
class AlgebraicRftsResult:
    """`commutation_defect` is the largest ||[x (x) I, y (x) I]||_F over basis
    elements x, y of two overlapping neighborhood algebras, on the union of
    their restricted neighborhoods (`_pairwise_algebra_commutation`)."""

    ok: bool
    reason: str
    qls: bool
    factor_dims: tuple[int, ...] = ()
    factorization: Factorization | None = None
    algebra_dims: tuple[int, ...] = ()
    commutation_defect: float = 0.0
    target_factor_residual: float = 0.0
    projector_block_residual: float = 0.0
    coarse_groups: tuple[tuple[int, ...], ...] = ()
    coarse: "hilbert.CoarseGraining | None" = None
    # eigenvalue-clustering margin over every clustering behind the verdict:
    # (largest merged gap, smallest split gap), relative to max|eigenvalue|
    cluster_gaps: tuple[float, float] = NO_GAPS


def _factor_state(psi, region, g, f, support: LocalSupport, space) -> tuple[np.ndarray, float]:
    """The target's state on the factor C^f of the local split g of `region`.

    x = (g^H W^H (x) I) psi, regrouped as f x (q * rest), with W the local
    support isometry of `region`. Returns its first left singular vector and
    its second singular value, the distance from a product across the factor.
    """
    w = support.region_isometry(region)
    x = (g.conj().T @ (w.conj().T @ hilbert.to_front(psi, region, space))).reshape(f, -1)
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return u[:, 0], float(s[1]) if len(s) > 1 else 0.0


def reduce_full_rank_factors(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    tol: float = 1e-9,
) -> tuple[NeighborhoodStructure, tuple[tuple[int, int], ...]]:
    """Drop subsystems whose reduced state factors out at full rank.

    If the neighborhood-k marginal splits as rho_{N_k \\ i} (x) rho_i with
    rho_i full rank, any invariant neighborhood map must act trivially on i,
    so i can be removed from N_k. Coverage is never broken.
    """
    current = [list(nk) for nk in nstruct]
    drops: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for k, nk in enumerate(current):
            if len(nk) <= 1:
                continue
            rho_nk = hilbert.reduced_state_of_pure(psi, nk, space)
            sub_dims = [space.dims[i] for i in nk]
            sub_space = MultipartiteSpace(sub_dims)
            for pos, i in enumerate(list(nk)):
                cover = any(i in set(other) for kk, other in enumerate(current) if kk != k)
                if not cover:
                    continue
                rho_i = hilbert.partial_trace(rho_nk, [pos], sub_space)
                ev = np.linalg.eigvalsh(rho_i)
                if ev.min() < tol:
                    continue  # not full rank
                rest_pos = [p for p in range(len(nk)) if p != pos]
                rho_rest = hilbert.partial_trace(rho_nk, rest_pos, sub_space)
                rho_perm = hilbert.to_front(rho_nk, rest_pos, sub_space, sides=2)
                if np.max(np.abs(rho_perm.reshape(rho_nk.shape) - np.kron(rho_rest, rho_i))) < 1e-8:
                    nk.remove(i)
                    drops.append((k, i))
                    changed = True
                    break
            if changed:
                break
    return NeighborhoodStructure([nk for nk in current if nk]), tuple(drops)


def check_algebraic_rfts(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    seed: int = 0,
    qls_verdict=None,
) -> AlgebraicRftsResult:
    """Commuting/complete neighborhood algebras => virtual factorization => RFTS.

    Every step is local to one neighborhood: the algebras, their factor
    splits (from the generic pair of `seed`, and again of `seed` + 17), and
    the test that psi is a product over the factors with every neighborhood
    projector |t_j><t_j| (x) I on its own factor (`_factor_state`).
    """
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    qv = qls_verdict or subspaces.check_qls(psi, nstruct, space)
    if not qv.qls:
        return AlgebraicRftsResult(ok=False, reason="not-qls", qls=False)
    nstruct2, _ = reduce_full_rank_factors(psi, nstruct, space)
    cg = hilbert.coarse_grain(space, nstruct2)
    psi_c = hilbert.coarse_grain_state(psi, cg, space)
    cspace, cn = cg.space, cg.neighborhoods
    support = local_support(psi_c, cspace)

    common = dict(qls=True, coarse_groups=cg.groups, coarse=cg)
    try:
        cache: dict = {}
        algebras = [
            neighborhood_algebra(psi_c, cn, j, cspace, support, projector_cache=cache)
            for j in range(len(cn))
        ]
    except DegenerateRestrictionWarning as exc:
        return AlgebraicRftsResult(ok=False, reason=f"degenerate-restriction: {exc}", **common)
    common["algebra_dims"] = tuple(a.dim for a in algebras)
    gaps = _merge_gaps(NO_GAPS, *(a.cluster_gaps for a in algebras))

    def result(ok=False, reason="incomplete", **fields) -> AlgebraicRftsResult:
        return AlgebraicRftsResult(ok=ok, reason=reason, cluster_gaps=gaps, **common, **fields)

    # trivial centre: each algebra is one simple block B(C^f) (x) I of dim f^2
    try:
        splits = [_factor_split(*alg.generic_pair(seed)) for alg in algebras]
    except FactorizationError:
        return result()
    gaps = _merge_gaps(gaps, *(split[3] for split in splits))
    if any(split[1] ** 2 != alg.dim for split, alg in zip(splits, algebras)):
        return result()
    fs = [split[1] for split in splits]

    defect = _pairwise_algebra_commutation(algebras, cn, support)
    if defect > DEFAULT_TOL.commutator:
        return result(reason="non-commuting", commutation_defect=defect)
    if int(np.prod(fs)) != support.h_tilde_dim:
        return result(commutation_defect=defect, factor_dims=tuple(fs))

    fac = Factorization(
        factor_dims=tuple(fs),
        splits=tuple(split[:3] for split in splits),
        support=support,
        space=cspace,
        neighborhoods=cn,
        h0_dim=support.h0_dim(cspace),
    )
    h0_weight = 1.0 - float(np.linalg.norm(fac.restrict(psi_c)) ** 2)
    # a second split from other generic elements must factor the target too
    try:
        splits2 = [_factor_split(*alg.generic_pair(seed + 17)) for alg in algebras]
    except FactorizationError:
        splits2 = []
    if [split[1:3] for split in splits2] != [split[1:3] for split in splits]:
        return result(commutation_defect=defect, factor_dims=fac.factor_dims)
    gaps = _merge_gaps(gaps, *(split[3] for split in splits2))
    # psi is a product over the factors, and every neighborhood projector is
    # |t_j><t_j| (x) I on its own factor, in both splits
    factor_resid = block_resid = 0.0
    for j, nj in enumerate(cn):
        if j not in cache:
            cache[j] = _restricted_projector(psi_c, nj, cspace, support)
        for g, f, q, _ in (splits[j], splits2[j]):
            t, resid = _factor_state(psi_c, nj, g, f, support, cspace)
            block = np.kron(np.outer(t, t.conj()), np.eye(q))
            factor_resid = max(factor_resid, resid)
            block_resid = max(block_resid, float(np.max(np.abs(g.conj().T @ cache[j][0] @ g - block))))
    ok = factor_resid < 1e-7 and abs(h0_weight) < 1e-9 and block_resid < 1e-6
    return result(
        ok=ok,
        reason="ok" if ok else "target-not-factored",
        factor_dims=fac.factor_dims,
        factorization=fac,
        commutation_defect=defect,
        target_factor_residual=factor_resid,
        projector_block_residual=block_resid,
    )


def _pairwise_algebra_commutation(algebras, cn, support: LocalSupport) -> float:
    """Largest `_commutator_norms` of two neighborhood algebras' bases."""
    space = MultipartiteSpace(support.restricted_dims)
    pairs = itertools.combinations(zip(algebras, cn), 2)
    return max((float(np.max(_commutator_norms(a.elements, na, b.elements, nb, space), initial=0.0))
                for (a, na), (b, nb) in pairs), default=0.0)


# ---------------------------------------------------------------------------
# matching-overlap route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchingOverlapRftsVerdict:
    ok: bool
    matching_overlap: str
    qls: bool
    max_pairwise_commutator: float | None  # None when a precondition failed
    reason: str = ""


def check_matching_overlap_rfts(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    tol: float = 1e-8,
    seed: int = 0,
) -> MatchingOverlapRftsVerdict:
    """Matching overlap + QLS + pairwise commuting projectors => RFTS."""
    mo = subspaces.check_matching_overlap(nstruct)
    qv = subspaces.check_qls(psi, nstruct, space)
    failed = [name for name, ok in (("matching-overlap", mo.status == "satisfied"), ("qls", qv.qls)) if not ok]
    if failed:
        return MatchingOverlapRftsVerdict(
            ok=False, matching_overlap=mo.status, qls=qv.qls,
            max_pairwise_commutator=None, reason="precondition: " + ", ".join(failed),
        )
    pset = subspaces.canonical_hamiltonian(psi, nstruct, space)
    mat = subspaces.pairwise_projector_commutators(pset)
    mx = float(np.max(mat)) if mat.size else 0.0
    if mx >= tol:
        return MatchingOverlapRftsVerdict(
            ok=False, matching_overlap=mo.status, qls=True,
            max_pairwise_commutator=mx, reason="non-commuting projectors",
        )
    alg = check_algebraic_rfts(psi, nstruct, space, seed=seed, qls_verdict=qv)
    return MatchingOverlapRftsVerdict(
        ok=alg.ok, matching_overlap=mo.status, qls=True,
        max_pairwise_commutator=mx, reason=alg.reason,
    )


# ---------------------------------------------------------------------------
# circuit construction from a factorization
# ---------------------------------------------------------------------------

def _uncoarse_channel(chan: Channel, cg: hilbert.CoarseGraining, original_space: MultipartiteSpace) -> Channel:
    """Re-express a coarse-space channel on the original subsystems."""
    groups = [cg.groups[s] for s in chan.support]
    gm_sites = [i for g in groups for i in g]
    sorted_sites = sorted(gm_sites)
    if gm_sites == sorted_sites:
        return Channel(kraus=chan.kraus, support=tuple(sorted_sites), label=chan.label)
    dims_gm = [original_space.dims[i] for i in gm_sites]
    sub = MultipartiteSpace(dims_gm)
    dest = [sorted_sites.index(i) for i in gm_sites]
    kraus = [hilbert.permute_subsystems(k, dest, sub) for k in chan.kraus]
    return Channel(kraus=tuple(kraus), support=tuple(sorted_sites), label=chan.label)


def build_rfts_circuit(
    fac: Factorization,
    psi: np.ndarray,
    cg: hilbert.CoarseGraining | None = None,
    original_space: MultipartiteSpace | None = None,
    seed: int = 0,
) -> list[Channel]:
    """One commuting neighborhood channel per virtual factor.

    Channel j is `channels.factor_reset_channel` on neighborhood j with the
    local split (g_j, f_j, q_j) that `check_algebraic_rfts` verified and
    stored in `fac`: it re-injects kernel weight uniformly into the local
    support of every coarse subsystem in the neighborhood, then resets C^{f_j}
    to the target's factor state (`_factor_state`) while acting as identity on
    C^{q_j}. Everything is built region-locally, so the construction scales to
    large total dimensions. Channels are returned on the original subsystems
    when a coarse graining is supplied. `seed` is not read: the splits come
    from the check, with its seed.
    """
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    psi_c = (
        hilbert.coarse_grain_state(psi, cg, original_space)
        if cg is not None
        else psi
    )
    support = fac.support
    channels = []
    for j, (region, (g, f, q)) in enumerate(zip(fac.neighborhoods, fac.splits)):
        t_j, resid = _factor_state(psi_c, region, g, f, support, fac.space)
        if resid >= 1e-7:
            raise FactorizationError("target does not factor on this neighborhood")
        isos = [support.site_isometries[i] for i in region]
        local = ch.factor_reset_channel(t_j, [0], (f, q), g, isos, region, f"E_{j}")
        local = ch.restrict_to_support(local, fac.space)
        if cg is not None:
            local = _uncoarse_channel(local, cg, original_space)
        channels.append(local)
    return channels


# ---------------------------------------------------------------------------
# robustness verification
# ---------------------------------------------------------------------------

def _distance_to_target(rho: np.ndarray, target, exact_limit: int = 768) -> float:
    """Trace distance to a pure or mixed target; bounded variant for large D."""
    target = np.asarray(target)
    if target.ndim == 1:
        if rho.shape[0] <= exact_limit:
            return trace_distance(rho, np.outer(target, target.conj()))
        return trace_distance_to_pure_bound(rho, target)
    return trace_distance(rho, target)


@dataclass(frozen=True)
class RobustnessReport:
    """`method` is the path that decided the verdict: "commuting" (the
    identity order plus `order_bound`, for all t! orders), or every distinct
    drawn order run in turn, "exhaustive" or "sampled". `orders_computed`
    counts the distinct orders whose final states were computed, each once.
    `order_bound` bounds the trace distance from any order's output to the
    identity order's, on every input; it is inf when the Kraus commutators
    do not bound it below `tol`. For a pure target, `worst_input_bound`
    bounds 1 - <psi|E(rho)|psi> over every input state rho and every order
    E, from the identity order's output on I/D: D (|1 - F| + eps_F) +
    `order_bound`, with F the computed fidelity <psi|E(I/D)|psi> and eps_F
    its roundoff (`_fidelity_roundoff`), since rho <= D I/D. So the bound
    stays above zero when F reads 1 or more in floating point. It is None
    for a mixed target.
    """

    passed: bool
    max_final_distance: float
    orders_run: int
    distinct_orders: int
    exhaustive: bool
    invariance_ok: bool
    max_invariance_defect: float
    worst_order: tuple[int, ...]
    method: str
    orders_computed: int
    order_bound: float
    worst_input_bound: float | None


def _fidelity_roundoff(d: int) -> float:
    """Rounding error bound of <psi|rho psi> computed as a matvec and a dot
    product of length d, for a unit psi and a state rho (||rho||_2 <= 1):
    each product errs by at most gamma_{d+2} |psi|^T |rho| |psi| <= gamma_{d+2}
    in complex arithmetic (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 3.1 and 3.6), so 2 gamma_{d+2}, taken as
    2 (d + 2) eps with eps = 2u to cover the higher-order terms."""
    return 2.0 * (d + 2) * float(np.finfo(float).eps)


def swap_bound(a: Channel, b: Channel, space: MultipartiteSpace, cap: float = math.inf) -> float:
    """Bound on the trace distance between a(b(rho)) and b(a(rho)) over every
    state rho: (1/2) sum_ij c_ij (2 + c_ij), c_ij = ||[K_i, L_j]||_F; or inf
    once it reaches `cap`.

    With C = [K_i, L_j], K_i L_j rho (K_i L_j)^H - L_j K_i rho (L_j K_i)^H =
    C rho (L_j K_i)^H + L_j K_i rho C^H + C rho C^H, and every Kraus operator
    has operator norm at most 1. Zero for disjoint supports. The sum is taken
    after each chunk of `_partial_commutator_norms`, whose norms only grow,
    so stopping at the first partial sum that reaches `cap` is exact. The
    overlap factors of both channels are read from their memos
    (`_channel_factors`).
    """
    overlap = sorted(set(a.support) & set(b.support))
    if not overlap:
        return 0.0
    factors = (_channel_factors(a, overlap, space), _channel_factors(b, overlap, space))
    bound = 0.0
    for c in _partial_commutator_norms(a.kraus, a.support, b.kraus, b.support, space, factors):
        bound = 0.5 * float(np.sum(c * (2.0 + c)))
        if bound >= cap:
            return math.inf
    return bound


def _order_bound(channels: list[Channel], space: MultipartiteSpace, cap: float) -> float:
    """Sum of `swap_bound` over every pair of `channels`, or inf once it
    reaches `cap`.

    Every order ends within this trace distance of the identity order, on
    every input: bubble sort turns any order into the identity by swapping
    each inverted pair once, adjacent at the time, and the channels applied
    after a swap contract the trace distance.
    """
    total = 0.0
    for a, b in itertools.combinations(channels, 2):
        total += swap_bound(a, b, space, cap=cap - total)
        if total >= cap:
            return math.inf
    return total


# D x D buffers of one apply, each the size of the largest input: the buffers
# of the walk's `channels.Workspace` (the two states read and written in turn,
# K @ x, the sum and one term); the inputs are counted apart
APPLY_BUFFERS = len(ch.Workspace.BUFFERS)


def _input_dtypes(channels: list[Channel], d: int, n_inputs: int) -> list[type]:
    """dtype of each of `verify_robustness`'s D x D inputs, I/D first.

    I/D is float64 when every map is real: real maps keep it real, at half
    the bytes and a quarter of the flops. Every random input is complex.
    Raises CapExceeded when the inputs and the walk's workspace,
    `APPLY_BUFFERS` buffers of the largest input, pass `_linalg.MAX_BYTES`:
    that is everything the walk allocates.
    """
    real = all(c.real_kraus is not None for c in channels)
    dtypes = [float if real else complex] + [complex] * (n_inputs - 1)
    nbytes = [d * d * np.dtype(t).itemsize for t in dtypes]
    need = sum(nbytes) + APPLY_BUFFERS * max(nbytes)
    kind = "float64" if real else "complex"
    check_budget(need, f"robustness walk over {n_inputs} inputs of D = {d} ({kind} I/D)")
    return dtypes


def verify_robustness(
    channels: list[Channel],
    target,
    space: MultipartiteSpace,
    trials: int = 200,
    tol: float = 1e-8,
    seed: int = 5,
    n_random_inputs: int = 1,
    exhaustive_limit: int = 720,
    distance_exact_limit: int = 768,
) -> RobustnessReport:
    """Every ordering of the maps must prepare the target from any input.

    All orderings are drawn when their count is at most `exhaustive_limit`;
    otherwise the identity order plus `trials` random orders are sampled.
    Inputs: the maximally mixed state plus random density matrices.

    When the pairwise `swap_bound`s sum to B < tol, only the identity order
    runs: every one of the t! orders ends within trace distance B of it on
    every input, so the check passes iff its worst distance + B < tol
    ("commuting"). Above `distance_exact_limit` that distance is an upper
    bound, which the argument allows. Otherwise, and when the identity order
    is below tol but its distance + B is not, the drawn orders decide: each
    distinct order other than the identity then runs too, once. A sampled
    order that repeats is counted in `orders_run` but computed once. Each
    order runs on one D x D input at a time, every apply in one workspace
    that lives as long as this call; with real maps, I/D runs in float64
    (`_input_dtypes`, which also refuses, with CapExceeded, a walk over
    `_linalg.MAX_BYTES` before anything is allocated). `worst_order` is the
    first order, in the sampled or enumerated sequence, that reached
    `max_final_distance`.
    """
    target = np.asarray(target, dtype=complex)
    if not np.any(target.imag):
        target = np.ascontiguousarray(target.real)  # real states meet it in real arithmetic
    d = space.total_dim
    dtypes = _input_dtypes(channels, d, 1 + n_random_inputs)
    rng = np.random.default_rng(seed)
    t = len(channels)
    inv_defect = 0.0
    inv_ok = True
    for c in channels:
        if target.ndim == 1:
            rep = ch.check_invariance(c, target, space)
            inv_defect = max(inv_defect, rep.defect)
            inv_ok = inv_ok and rep.ok
        else:
            d0 = trace_distance(ch.apply(c, target, space), target)
            inv_defect = max(inv_defect, d0)
            inv_ok = inv_ok and d0 < DEFAULT_TOL.invariance

    if math.factorial(t) <= exhaustive_limit:
        orders = list(itertools.permutations(range(t)))
        exhaustive = True
    else:
        orders = [tuple(range(t))]
        for _ in range(trials):
            orders.append(tuple(rng.permutation(t)))
        exhaustive = False

    inputs = [np.zeros((d, d), dtype=dtypes[0])]
    np.fill_diagonal(inputs[0], 1.0 / d)
    inputs += [random_density(d, rng) for _ in range(n_random_inputs)]
    distinct = dict.fromkeys(orders)
    identity = orders[0]
    bound = _order_bound(channels, space, cap=tol)
    work = ch.Workspace()  # every apply of the walk; freed on return

    def run(order) -> tuple[float, float]:
        """Worst final distance of `order` over the inputs, and the target
        fidelity of its output from I/D."""
        worst, fidelity = 0.0, 1.0
        for i, rho in enumerate(inputs):
            for k in order:
                rho = ch.apply(channels[k], rho, space, work)  # a view of `work`
            worst = max(worst, _distance_to_target(rho, target, exact_limit=distance_exact_limit))
            if i == 0 and target.ndim == 1:
                fidelity = float(np.vdot(target, rho @ target).real)
        return worst, fidelity

    dist, fidelity = run(identity)
    final = {identity: dist}
    # the bound decides unless it is too large, or the identity order passes
    # and the bound cannot carry the other orders below tol
    commuting = bound < tol and not dist < tol <= dist + bound
    if not commuting:
        final.update((order, run(order)[0]) for order in distinct if order != identity)
    # from here on the commuting path, worst + bound < tol iff worst < tol
    worst = 0.0
    worst_order = orders[0]
    for order, dist in final.items():
        if dist > worst:
            worst, worst_order = dist, order
    return RobustnessReport(
        passed=worst < tol and inv_ok,
        max_final_distance=worst,
        orders_run=len(orders),
        distinct_orders=len(distinct),
        exhaustive=exhaustive,
        invariance_ok=inv_ok,
        max_invariance_defect=inv_defect,
        worst_order=worst_order,
        method="commuting" if commuting else "exhaustive" if exhaustive else "sampled",
        orders_computed=len(final),
        order_bound=bound,
        worst_input_bound=d * (abs(1.0 - fidelity) + _fidelity_roundoff(d)) + bound if target.ndim == 1 else None,
    )


# random inputs on which `channels_commute_pairwise` compares the two orders of
# a pair that its swap bound does not certify
SWAP_PROBES = 3


def channels_commute_pairwise(
    channels: list[Channel],
    space: MultipartiteSpace,
    seed: int = 9,
) -> float:
    """Max over overlapping pairs of the order-swap defect.

    A pair whose `swap_bound` is below `DEFAULT_TOL.invariance` is certified
    by that bound, over every input; the bound stops at that cut. The other
    pairs, whose Kraus operators do not commute although the maps may, are
    compared on `SWAP_PROBES` random inputs, on their joint support region
    only, so the check stays cheap even when the global space is large.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for a, b in itertools.combinations(channels, 2):
        if not (set(a.support) & set(b.support)):
            continue
        bound = swap_bound(a, b, space, cap=DEFAULT_TOL.invariance)
        if bound < DEFAULT_TOL.invariance:
            worst = max(worst, bound)
            continue
        union = set(a.support) | set(b.support)
        (a_loc, sub), (b_loc, _) = (ch.relocate(c, union, space) for c in (a, b))
        for _ in range(SWAP_PROBES):
            rho = random_density(sub.total_dim, rng)
            ab = ch.apply(a_loc, ch.apply(b_loc, rho, sub), sub)
            ba = ch.apply(b_loc, ch.apply(a_loc, rho, sub), sub)
            worst = max(worst, trace_distance(ab, ba))
    return worst


# ---------------------------------------------------------------------------
# correlation, CMI, recoverability
# ---------------------------------------------------------------------------

def correlation(state, x_a: hilbert.RegionOperator, y_b: hilbert.RegionOperator, space: MultipartiteSpace) -> float:
    """Covariance Tr(X Y rho) - Tr(X rho) Tr(Y rho) for disjoint regions."""
    a = list(x_a.support)
    b = list(y_b.support)
    if set(a) & set(b):
        raise ValueError("regions must be disjoint")
    state = np.asarray(state, dtype=complex)
    union = sorted(set(a) | set(b))
    rho_ab = hilbert.reduced_state(state, union, space)
    sub = MultipartiteSpace([space.dims[i] for i in union])
    pos_a = [union.index(i) for i in a]
    pos_b = [union.index(i) for i in b]
    xg = hilbert.embed(hilbert.RegionOperator(x_a.matrix, pos_a), sub)
    yg = hilbert.embed(hilbert.RegionOperator(y_b.matrix, pos_b), sub)
    joint = np.trace(xg @ yg @ rho_ab)
    rho_a = hilbert.partial_trace(rho_ab, pos_a, sub)
    rho_b = hilbert.partial_trace(rho_ab, pos_b, sub)
    single = np.trace(x_a.matrix @ rho_a) * np.trace(y_b.matrix @ rho_b)
    return float((joint - single).real)


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis (HS) of n x n matrices."""
    out = [np.eye(n, dtype=complex) / np.sqrt(n)]
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            out.append(m)
    for j in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[:j, :j] = np.eye(j)
        m[j, j] = -j
        out.append(m / np.sqrt(j * (j + 1)))
    return out


@dataclass(frozen=True)
class CorrelationProbe:
    max_abs_covariance: float
    expansions_disjoint: bool


def correlation_probe(
    state,
    region_a,
    region_b,
    space: MultipartiteSpace,
    nstruct: NeighborhoodStructure | None = None,
) -> CorrelationProbe:
    """Max |covariance| over Hermitian operator bases on the two regions."""
    a = sorted(region_a)
    b = sorted(region_b)
    disjoint = True
    if nstruct is not None:
        ea = set(hilbert.neighborhood_expansion(nstruct, a))
        eb = set(hilbert.neighborhood_expansion(nstruct, b))
        disjoint = not (ea & eb)
    da = space.dim_of(a)
    db = space.dim_of(b)
    worst = 0.0
    for x in hermitian_basis(da):
        for y in hermitian_basis(db):
            c = correlation(
                state,
                hilbert.RegionOperator(x, a),
                hilbert.RegionOperator(y, b),
                space,
            )
            worst = max(worst, abs(c))
    return CorrelationProbe(max_abs_covariance=worst, expansions_disjoint=disjoint)


def cmi(state, region_a, region_b, region_c, space: MultipartiteSpace) -> float:
    """Quantum conditional mutual information I(A:B|C) in bits."""
    a, b, c = (sorted(r) for r in (region_a, region_b, region_c))
    if (set(a) & set(b)) or (set(a) & set(c)) or (set(b) & set(c)):
        raise ValueError("regions must be disjoint")
    state = np.asarray(state, dtype=complex)

    def s_of(region):
        if not region:
            return 0.0
        return von_neumann_entropy(hilbert.reduced_state(state, region, space))

    val = s_of(a + c) + s_of(b + c) - s_of(a + b + c) - s_of(c)
    return float(val)


@dataclass(frozen=True)
class RecoveryReport:
    recovered: bool
    distance: float
    support_warning: bool


def recoverability_probe(
    channels: list[Channel],
    psi: np.ndarray,
    region_a,
    disturbance: Channel,
    space: MultipartiteSpace,
    tol: float = 1e-8,
) -> RecoveryReport:
    """Disturb inside A, then apply every channel meeting A; target recovered?"""
    a = set(region_a)
    warning = not set(ch.kraus_support(disturbance, space)) <= a
    rho = ch.apply(disturbance, np.outer(psi, psi.conj()), space)
    for c in channels:
        if set(c.support) & a:
            rho = ch.apply(c, rho, space)
    d = _distance_to_target(rho, psi)
    return RecoveryReport(recovered=d < tol, distance=d, support_warning=warning)
