"""Robust finite-time stabilization: neighborhood algebras, virtual-subsystem
factorization, circuit construction, and the correlation-based necessary
conditions.

The factorization pipeline works on coarse-grained subsystems restricted to
the local support of the target. Neighborhood algebras are computed on their
own (restricted) neighborhood spaces; all cross-neighborhood commutation
checks reduce to operator Schmidt components on overlaps, so nothing large is
ever materialized except during the final change-of-basis extraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import channels as ch
from . import hilbert
from . import subspaces
from ._linalg import (
    CLUSTER_RTOL,
    DEFAULT_TOL,
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

# Largest memory `commutant` will use for its commutator system and its SVD.
COMMUTANT_MAX_BYTES = 1 << 30
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
    # the system, the SVD's copy of it, and its left singular vectors
    nbytes = 3 * len(ops) * dim * dim * k * 16
    if nbytes > COMMUTANT_MAX_BYTES:
        raise ch.CapExceeded(
            f"commutant system of {len(ops)} x {dim}^2 x {k} needs {nbytes / 2**30:.1f} GiB, "
            f"capped at {COMMUTANT_MAX_BYTES / 2**30:.1f} GiB"
        )
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
        if state.ndim == 1:
            red = hilbert.reduced_state_of_pure(state, [i], space)
        else:
            red = hilbert.partial_trace(state, [i], space)
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


def _operator_schmidt_factors(op, region, space: MultipartiteSpace):
    """Operator Schmidt factors of `op` across `region` and its complement.

    Returns the region-side matrices of a decomposition op = sum_mu A_mu x B_mu
    with orthogonal B_mu, each A_mu scaled by its singular value.
    """
    t = hilbert.to_front(op, region, space, sides=2)
    da, db = t.shape[:2]
    t = t.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, s, _ = np.linalg.svd(t, full_matrices=False)
    r = rank_cutoff(s, t.shape, DEFAULT_TOL.rank_rtol)
    return [ (s[j] * u[:, j]).reshape(da, da) for j in range(r) ]


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
    """Change of basis H ~ (tensor of virtual factors) (+) H0.

    The unitary is stored as a sequence of per-level splittings (g_j, f_j): at
    level j the current rest space C^{q_j} is reorganized as C^{f_j} (x)
    C^{q_j / f_j}, with the columns of g_j ordered factor-major. `to_virtual`
    maps global vectors into virtual coordinates; `as_matrix` materializes the
    dense isometry for small spaces.
    """

    factor_dims: tuple[int, ...]
    factor_to_neighborhood: tuple[int, ...]
    support: LocalSupport
    space: MultipartiteSpace
    neighborhoods: NeighborhoodStructure
    levels: tuple[tuple[np.ndarray, int], ...]
    h0_dim: int
    factor_states: tuple[np.ndarray, ...] = ()

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """Local-support coordinates of a global vector."""
        x = np.asarray(v, dtype=complex).reshape(self.space.dims)
        for i, w in enumerate(self.support.site_isometries):
            x = np.moveaxis(np.tensordot(w.conj().T, x, axes=(1, i)), 0, i)
        return x.reshape(-1)

    def to_virtual(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of a global vector over the ordered virtual factors."""
        x = self.restrict(v)
        for g, f in self.levels:
            q = g.shape[0]
            # conjugating the vector twice is cheaper than the q x q level once
            x = (x.conj().reshape(-1, q) @ g).conj().reshape(-1)
        return x.reshape(self.factor_dims) if self.factor_dims else x

    def as_matrix(self, max_dim: int = 2048) -> np.ndarray:
        """Dense isometry from virtual coordinates into the global space."""
        ht = self.support.h_tilde_dim
        if ht > max_dim:
            raise ch.CapExceeded(f"dense factorization matrix capped at {max_dim}")
        u = np.eye(ht, dtype=complex)
        prefix = 1
        for g, f in self.levels:
            q = g.shape[0]
            lifted = np.kron(np.eye(prefix, dtype=complex), g)
            u = u @ lifted
            prefix *= f
        w = kron_all(list(self.support.site_isometries))
        return w @ u


@dataclass(frozen=True)
class AlgebraicRftsResult:
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
    dropped_sites: tuple[tuple[int, int], ...] = ()
    coarse: "hilbert.CoarseGraining | None" = None
    # eigenvalue-clustering margin over every clustering behind the verdict:
    # (largest merged gap, smallest split gap), relative to max|eigenvalue|
    cluster_gaps: tuple[float, float] = NO_GAPS


def _extract_factorization(
    cspace: MultipartiteSpace,
    cn: NeighborhoodStructure,
    support: LocalSupport,
    algebras: list[AlgebraBasis],
    splits: list,
    seed: int,
) -> tuple[Factorization, tuple[float, float]]:
    """Split off one factor per level from the generic pair (from `seed`) of
    its algebra, whose local `_factor_split` is in `splits`; returns the
    factorization and the clustering margin of every split."""
    fs = [split[1] for split in splits]
    ht = support.h_tilde_dim
    rspace = MultipartiteSpace(support.restricted_dims)
    levels: list[tuple[np.ndarray, int]] = []
    gaps = NO_GAPS
    r: np.ndarray | None = None
    for j in (j for j in range(len(cn)) if fs[j] > 1):
        if r is None:
            g_loc, f, _, level_gaps = splits[j]
            # (g_loc on cn[j]) tensor I; rows in site order, columns in front order
            big = np.kron(g_loc, np.eye(ht // len(g_loc), dtype=complex))
            g = hilbert.from_front(big.reshape(len(g_loc), -1, ht), cn[j], rspace)
        else:
            # restrict (X on cn[j]) tensor I to the range of r
            g, f, _, level_gaps = _factor_split(
                *(r.conj().T @ hilbert.act(y, cn[j], r, rspace)
                  for y in algebras[j].generic_pair(seed))
            )
        gaps = _merge_gaps(gaps, level_gaps)
        if f != fs[j]:
            raise FactorizationError("factor dimension mismatch")
        levels.append((g, f))
        branch0 = g[:, : g.shape[0] // f]
        r = branch0 if r is None else r @ branch0
    fac = Factorization(
        factor_dims=tuple(fs),
        factor_to_neighborhood=tuple(range(len(cn))),
        support=support,
        space=cspace,
        neighborhoods=cn,
        levels=tuple(levels),
        h0_dim=cspace.total_dim - ht,
    )
    return fac, gaps


def _peel_factor_states(psi_v: np.ndarray, factor_dims) -> tuple[tuple[np.ndarray, ...], float]:
    """Sequential rank-one peeling; returns factor states and the worst residual."""
    x = psi_v.reshape(-1)
    nrm = np.linalg.norm(x)
    resid = 0.0
    x = x / nrm
    statelist = []
    for f in factor_dims[:-1]:
        m = x.reshape(f, -1)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        resid = max(resid, float(s[1]) if len(s) > 1 else 0.0)
        phase = u[np.argmax(np.abs(u[:, 0])), 0]
        phase = phase / abs(phase)
        statelist.append(u[:, 0] / phase)
        x = vh[0] * phase
    statelist.append(x)
    return tuple(statelist), resid


def _projector_block_residual(
    psi_c, cspace, cn, fac: Factorization, factor_states, rng, probes: int = 3
) -> float:
    """Check every neighborhood projector acts as rank-one on its own factor."""
    worst = 0.0
    locals_ = []
    for k, nk in enumerate(cn):
        span = subspaces.schmidt_span(psi_c, nk, cspace)
        locals_.append(span.basis @ span.basis.conj().T)
    for _ in range(probes):
        v = rng.normal(size=cspace.total_dim) + 1j * rng.normal(size=cspace.total_dim)
        v /= np.linalg.norm(v)
        w = fac.to_virtual(v).reshape(-1)
        for k, nk in enumerate(cn):
            pv = hilbert.act(locals_[k], nk, v, cspace)
            lhs = fac.to_virtual(pv).reshape(fac.factor_dims)
            rhs = w.reshape(fac.factor_dims).copy()
            f = fac.factor_dims[k]
            if f > 1:
                st = factor_states[k]
                rhs = np.moveaxis(rhs, k, 0).reshape(f, -1)
                rhs = np.outer(st, st.conj()) @ rhs
                rhs = np.moveaxis(
                    rhs.reshape((f,) + tuple(np.delete(np.array(fac.factor_dims), k))),
                    0,
                    k,
                )
            worst = max(worst, float(np.max(np.abs(lhs - rhs.reshape(fac.factor_dims)))))
    return worst


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
    """Commuting/complete neighborhood algebras => virtual factorization => RFTS."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    qv = qls_verdict or subspaces.check_qls(psi, nstruct, space)
    if not qv.qls:
        return AlgebraicRftsResult(ok=False, reason="not-qls", qls=False)
    nstruct2, drops = reduce_full_rank_factors(psi, nstruct, space)
    cg = hilbert.coarse_grain(space, nstruct2)
    psi_c = hilbert.coarse_grain_state(psi, cg, space)
    cspace, cn = cg.space, cg.neighborhoods
    support = local_support(psi_c, cspace)

    common = dict(qls=True, coarse_groups=cg.groups, dropped_sites=drops, coarse=cg)
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

    try:
        fac, split_gaps = _extract_factorization(cspace, cn, support, algebras, splits, seed)
    except FactorizationError:
        return result(commutation_defect=defect, factor_dims=tuple(fs))
    gaps = _merge_gaps(gaps, split_gaps)
    psi_v = fac.to_virtual(psi_c)
    h0_weight = 1.0 - float(np.linalg.norm(psi_v) ** 2)
    factor_states, peel_resid = _peel_factor_states(psi_v, fac.factor_dims)
    fac = replace(fac, factor_states=factor_states)
    rng = np.random.default_rng(seed + 1)
    block_resid = _projector_block_residual(psi_c, cspace, cn, fac, factor_states, rng)
    if support.h_tilde_dim <= 1024:
        # a second extraction from other generic elements must factor the target too
        splits = [_factor_split(*alg.generic_pair(seed + 17)) for alg in algebras]
        fac2, split_gaps = _extract_factorization(cspace, cn, support, algebras, splits, seed + 17)
        gaps = _merge_gaps(gaps, split_gaps)
        _, peel2 = _peel_factor_states(fac2.to_virtual(psi_c), fac2.factor_dims)
        peel_resid = max(peel_resid, peel2)
    else:
        rng2 = np.random.default_rng(seed + 29)
        block_resid = max(
            block_resid,
            _projector_block_residual(psi_c, cspace, cn, fac, factor_states, rng2),
        )
    ok = peel_resid < 1e-7 and abs(h0_weight) < 1e-9 and block_resid < 1e-6
    return result(
        ok=ok,
        reason="ok" if ok else "target-not-factored",
        factor_dims=fac.factor_dims,
        factorization=fac,
        commutation_defect=defect,
        target_factor_residual=peel_resid,
        projector_block_residual=block_resid,
    )


def _pairwise_algebra_commutation(algebras, cn, support: LocalSupport) -> float:
    """Max cross-commutator norm, reduced to operator Schmidt factors on overlaps."""
    worst = 0.0
    for j in range(len(cn)):
        for k in range(j + 1, len(cn)):
            overlap = sorted(set(cn[j]) & set(cn[k]))
            if not overlap:
                continue
            comps_j = _overlap_components(algebras[j], cn[j], overlap, support)
            comps_k = _overlap_components(algebras[k], cn[k], overlap, support)
            for a in comps_j:
                for b in comps_k:
                    worst = max(worst, frob(a @ b - b @ a))
    return worst


def _overlap_components(algebra: AlgebraBasis, region, overlap, support: LocalSupport):
    """Overlap-side operator Schmidt factors of every basis element."""
    region = list(region)
    if len(overlap) == len(region):
        return list(algebra.elements)
    space = MultipartiteSpace([support.restricted_dims[i] for i in region])
    axes_a = [region.index(i) for i in overlap]
    return [f for e in algebra.elements for f in _operator_schmidt_factors(e, axes_a, space)]


# ---------------------------------------------------------------------------
# matching-overlap route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchingOverlapRftsVerdict:
    ok: bool
    matching_overlap: str
    qls: bool
    max_pairwise_commutator: float
    algebraic: AlgebraicRftsResult | None = None
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
    if mo.status != "satisfied" or not qv.qls:
        return MatchingOverlapRftsVerdict(
            ok=False, matching_overlap=mo.status, qls=qv.qls,
            max_pairwise_commutator=float("nan"),
            reason="precondition: "
            + ("matching-overlap " if mo.status != "satisfied" else "")
            + ("qls" if not qv.qls else ""),
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
        max_pairwise_commutator=mx, algebraic=alg,
        reason=alg.reason,
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

    Each channel is `channels.factor_reset_channel` on its neighborhood, with
    g the local factor split C^f (x) C^q (the identity when f = 1): it
    re-injects kernel weight uniformly into the local support of every coarse
    subsystem in the neighborhood, then resets its factor to the target
    factor state while acting as identity on everything else. Everything is
    built region-locally, so the construction scales to large total
    dimensions. Channels are returned on the original subsystems when a
    coarse graining is supplied.
    """
    cspace = fac.space
    psi = np.asarray(psi, dtype=complex)
    psi_c = (
        hilbert.coarse_grain_state(psi, cg, original_space)
        if cg is not None
        else psi
    )
    support = fac.support
    channels = []
    for j, f in enumerate(fac.factor_dims):
        region = list(_neighborhood_of_factor(fac, j))
        w_r = support.region_isometry(region)
        g_loc, q, t_j = np.eye(w_r.shape[1]), w_r.shape[1], np.ones(1)
        if f > 1:
            algebra = neighborhood_algebra(
                psi_c, fac.neighborhoods, fac.factor_to_neighborhood[j], cspace, support
            )
            g_loc, floc, q = factor_representation(algebra, seed=seed)
            if floc != f:
                raise FactorizationError("factor dimension changed on rebuild")
            rho_r = hilbert.reduced_state_of_pure(psi_c, region, cspace)
            sigma = g_loc.conj().T @ (w_r.conj().T @ rho_r @ w_r) @ g_loc
            rho_factor = np.einsum("ambm->ab", sigma.reshape(f, q, f, q))
            ev, vec = np.linalg.eigh(rho_factor)
            if ev[-1] < 1.0 - 1e-7:
                raise FactorizationError("target does not factor on this neighborhood")
            t_j = vec[:, -1]
        isos = [support.site_isometries[i] for i in region]
        local = ch.factor_reset_channel(t_j, [0], (f, q), g_loc, isos, region, f"E_{j}")
        local = ch.restrict_to_support(local, cspace)
        if cg is not None:
            local = _uncoarse_channel(local, cg, original_space)
        channels.append(local)
    return channels


def _neighborhood_of_factor(fac: Factorization, j: int):
    return fac.neighborhoods[fac.factor_to_neighborhood[j]]


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
    passed: bool
    max_final_distance: float
    orders_run: int
    distinct_orders: int
    exhaustive: bool
    invariance_ok: bool
    max_invariance_defect: float
    worst_order: tuple[int, ...]


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _prefix_walk(channels: list[Channel], orders: list[tuple[int, ...]], stack: np.ndarray, space):
    """Yield (order, final states) for each of the sorted, distinct `orders`,
    the channels applied in that order to each state of the (N, D, D) `stack`.

    A depth-first walk over the prefix tree of the orders. Each order starts
    from the deepest state held for a prefix it shares with the order before
    it. Its state after k channels is held only while a sibling still needs
    it, that is while the next order (sorted, the one that shares the most)
    shares those k channels, and only if the inputs, the held states and the
    next working stack fit in `channels.STACK_MAX_BYTES`. A prefix not held is
    replayed from the nearest held state or the inputs: with one state over
    the budget nothing is held, and every order runs from the inputs, channel
    by channel.
    """
    held: list[tuple[int, np.ndarray]] = []  # (prefix length, state), deepest last
    room = ch.STACK_MAX_BYTES - stack.nbytes
    for i, order in enumerate(orders):
        share = _common_prefix(order, orders[i + 1]) if i + 1 < len(orders) else 0
        depth, rho = held[-1] if held else (0, stack)
        for k in range(depth, len(order)):
            rho = ch.apply(channels[order[k]], rho, space)
            if k < share and sum(h.nbytes for _, h in held) + 2 * rho.nbytes <= room:
                held.append((k + 1, rho))
        yield order, rho
        while held and held[-1][0] > share:
            held.pop()


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

    All orderings are run when their count is at most `exhaustive_limit`;
    otherwise the identity order plus `trials` random orders are sampled.
    Inputs: the maximally mixed state plus random density matrices. A sampled
    order that repeats is counted in `orders_run` but computed once. The
    distinct orders run as one walk over their prefix tree (`_prefix_walk`),
    on the inputs stacked `channels.stack_size(D)` at a time.
    `worst_order` is the first order, in the sampled or enumerated sequence,
    that reached `max_final_distance`.
    """
    target = np.asarray(target, dtype=complex)
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

    d = space.total_dim
    inputs = np.empty((1 + n_random_inputs, d, d), dtype=complex)
    inputs[0] = np.eye(d) / d
    for j in range(n_random_inputs):
        inputs[1 + j] = random_density(d, rng)
    distinct = dict.fromkeys(orders)
    final = dict.fromkeys(distinct, 0.0)
    walk, per = sorted(distinct), ch.stack_size(d)
    for start in range(0, len(inputs), per):
        for order, rho in _prefix_walk(channels, walk, inputs[start:start + per], space):
            dists = (_distance_to_target(r, target, exact_limit=distance_exact_limit) for r in rho)
            final[order] = max(final[order], *dists)
            del rho  # not alive while the walk computes the next order
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
    )


def channels_commute_pairwise(
    channels: list[Channel],
    space: MultipartiteSpace,
    probes: int = 3,
    seed: int = 9,
) -> float:
    """Max over overlapping pairs of the order-swap defect on random inputs.

    Each pair is compared on its joint support region only, so the check stays
    cheap even when the global space is large.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for a, b in itertools.combinations(channels, 2):
        if not (set(a.support) & set(b.support)):
            continue
        union = set(a.support) | set(b.support)
        (a_loc, sub), (b_loc, _) = (ch.relocate(c, union, space) for c in (a, b))
        for _ in range(probes):
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
    if state.ndim == 1:
        rho_ab = hilbert.reduced_state_of_pure(state, union, space)
    else:
        rho_ab = hilbert.partial_trace(state, union, space)
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
        region = sorted(region)
        if not region:
            return 0.0
        if state.ndim == 1:
            red = hilbert.reduced_state_of_pure(state, region, space)
        else:
            red = hilbert.partial_trace(state, region, space)
        return von_neumann_entropy(red)

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
