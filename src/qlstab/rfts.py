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
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import hilbert
from . import subspaces
from ._linalg import (
    DEFAULT_TOL,
    frob,
    nullspace,
    orthonormal_columns,
    random_density,
    trace_distance,
    von_neumann_entropy,
)
from .channels import Channel, make_channel
from .hilbert import MultipartiteSpace, NeighborhoodStructure


# ---------------------------------------------------------------------------
# commutants and algebra bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraBasis:
    """Orthonormal (HS) basis of an operator algebra on a declared space."""

    elements: tuple[np.ndarray, ...]
    ambient_dim: int

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

    def center_dim(self, rtol: float = 1e-8) -> int:
        """Dimension of the center: elements of the span commuting with everything."""
        m = self.ambient_dim
        span = np.stack([e.reshape(-1) for e in self.elements], axis=1)
        rows = []
        for e in self.elements:
            l = np.kron(e, np.eye(m)) - np.kron(np.eye(m), e.T)
            rows.append(l @ span)
        stacked = np.vstack(rows)
        _, s, _ = np.linalg.svd(stacked, full_matrices=True)
        from ._linalg import rank_cutoff

        r = rank_cutoff(s, stacked.shape, rtol)
        return self.dim - r


def _span_basis(mats: list[np.ndarray], dim: int) -> AlgebraBasis:
    if not mats:
        return AlgebraBasis((), dim)
    stacked = np.stack([m.reshape(-1) for m in mats], axis=1)
    q = orthonormal_columns(stacked)
    return AlgebraBasis(
        tuple(q[:, j].reshape(dim, dim) for j in range(q.shape[1])), dim
    )


def commutant(ops: list[np.ndarray], dim: int | None = None) -> AlgebraBasis:
    """Basis of {X : [X, M] = 0 for every M} via stacked commutator nullspace."""
    ops = [np.asarray(m, dtype=complex) for m in ops]
    if dim is None:
        if not ops:
            raise ValueError("need operators or an explicit dimension")
        dim = ops[0].shape[0]
    if not ops:
        # commutant of nothing: the full matrix algebra
        units = []
        for i in range(dim):
            for j in range(dim):
                m = np.zeros((dim, dim), dtype=complex)
                m[i, j] = 1.0
                units.append(m)
        return AlgebraBasis(tuple(units), dim)
    rows = [np.kron(m, np.eye(dim)) - np.kron(np.eye(dim), m.T) for m in ops]
    null = nullspace(np.vstack(rows))
    return AlgebraBasis(
        tuple(null[:, j].reshape(dim, dim) for j in range(null.shape[1])), dim
    )


def _commutant_randomized(constraints: list[np.ndarray], dim: int, seed: int = 0) -> AlgebraBasis:
    """Commutant of a self-adjoint constraint span, with verification.

    Two generic Hermitian combinations usually generate the constraint algebra;
    the result is verified element-by-element against every constraint, with an
    exact stacked-nullspace fallback.
    """
    if not constraints:
        return commutant([], dim)
    rng = np.random.default_rng(seed)
    herm_set = [0.5 * (s + s.conj().T) for s in constraints]
    herm_set += [0.5j * (s - s.conj().T) for s in constraints]
    herm_set = [h for h in herm_set if np.max(np.abs(h)) > 1e-12]
    if not herm_set:
        return commutant([], dim)
    for _ in range(3):
        r1 = sum(rng.normal() * h for h in herm_set)
        r2 = sum(rng.normal() * h for h in herm_set)
        cand = commutant([r1, r2], dim)
        ok = all(
            frob(x @ s - s @ x) < 1e-8 * max(1.0, frob(s))
            for x in cand.elements
            for s in constraints
        )
        if ok:
            return cand
    return commutant(constraints, dim)


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
        mats = [self.site_isometries[i] for i in sorted(region)]
        from ._linalg import kron_all

        return kron_all(mats)


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
    from ._linalg import rank_cutoff

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
    seed: int = 0,
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
    return _commutant_randomized(constraints, mj, seed=seed)


class DegenerateRestrictionWarning(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# factor representations and the global factorization
# ---------------------------------------------------------------------------

class FactorizationError(RuntimeError):
    pass


def factor_representation(basis: AlgebraBasis, seed: int = 0):
    """Unitary g with g^H A g = B(C^f) (x) I_q for a trivial-center algebra.

    Returns (g, f, q). Uses a generic Hermitian element's eigenspaces plus
    intertwiners from a second generic element to align the multiplicity
    blocks.
    """
    dim = basis.ambient_dim
    f2 = basis.dim
    f = int(round(math.sqrt(f2)))
    if f * f != f2:
        raise FactorizationError(f"algebra dimension {f2} is not a square")
    if dim % f != 0:
        raise FactorizationError("representation multiplicity is not integral")
    q = dim // f
    if f == 1:
        return np.eye(dim, dtype=complex), 1, dim
    rng = np.random.default_rng(seed)
    for attempt in range(6):
        a = basis.random_element(rng, hermitian=True)
        ev, vec = np.linalg.eigh(a)
        groups = _group_eigenvalues(ev, f, q)
        if groups is None:
            continue
        es = [vec[:, g] for g in groups]
        x = basis.random_element(rng, hermitian=False)
        cols = [es[0]]
        ok = True
        for i in range(1, f):
            t = es[i].conj().T @ x @ es[0]
            c = np.linalg.norm(t) / np.sqrt(q)
            if c < 1e-8:
                ok = False
                break
            u = t / c
            if np.max(np.abs(u.conj().T @ u - np.eye(q))) > 1e-6:
                ok = False
                break
            cols.append(es[i] @ u)
        if not ok:
            continue
        g = np.hstack(cols)  # ordering: factor index major, multiplicity minor
        return g, f, q
    raise FactorizationError("could not split the factor representation")


def _group_eigenvalues(ev: np.ndarray, f: int, q: int):
    """Indices of f equal-multiplicity eigenvalue clusters, or None."""
    order = np.argsort(ev)
    ev_sorted = ev[order]
    gaps = np.diff(ev_sorted)
    if f == 1:
        return [order]
    cut_idx = np.argsort(gaps)[-(f - 1):]
    cuts = np.sort(cut_idx)
    groups = []
    start = 0
    for c in list(cuts) + [len(ev) - 1]:
        end = c + 1 if c < len(ev) - 1 else len(ev)
        groups.append(order[start:end])
        start = end
    if any(len(g) != q for g in groups):
        return None
    return groups


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
            x = (x.reshape(-1, q) @ g.conj()).reshape(-1)
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
        from ._linalg import kron_all

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


def _lift_algebra(
    basis: AlgebraBasis, region, rspace: MultipartiteSpace, r: np.ndarray
) -> AlgebraBasis:
    """Restrict (X on region) tensor I to the isometry r (columns in H~ coords)."""
    lifted = [r.conj().T @ hilbert.act(e, region, r, rspace) for e in basis.elements]
    return _span_basis(lifted, r.shape[1])


def _extract_factorization(
    psi_c: np.ndarray,
    cspace: MultipartiteSpace,
    cn: NeighborhoodStructure,
    support: LocalSupport,
    algebras: list[AlgebraBasis],
    fs: list[int],
    seed: int,
) -> Factorization:
    ht = support.h_tilde_dim
    rspace = MultipartiteSpace(support.restricted_dims)
    levels: list[tuple[np.ndarray, int]] = []
    r: np.ndarray | None = None
    factor_order = [j for j in range(len(cn)) if fs[j] > 1]
    for j in factor_order:
        f = fs[j]
        if r is None:
            g_loc, floc, _ = factor_representation(algebras[j], seed=seed)
            if floc != f:
                raise FactorizationError("local factor dimension mismatch")
            # (g_loc on cn[j]) tensor I; rows in site order, columns in front order
            big = np.kron(g_loc, np.eye(ht // len(g_loc), dtype=complex))
            g = hilbert.from_front(big.reshape(len(g_loc), -1, ht), cn[j], rspace)
        else:
            lifted = _lift_algebra(algebras[j], cn[j], rspace, r)
            g, floc, _ = factor_representation(lifted, seed=seed)
            if floc != f:
                raise FactorizationError("restricted factor dimension mismatch")
        q_next = g.shape[0] // f
        levels.append((g, f))
        branch0 = g[:, :q_next]
        r = branch0 if r is None else r @ branch0
    factor_dims = tuple(fs)
    fac = Factorization(
        factor_dims=factor_dims,
        factor_to_neighborhood=tuple(range(len(cn))),
        support=support,
        space=cspace,
        neighborhoods=cn,
        levels=tuple(levels),
        h0_dim=cspace.total_dim - ht,
    )
    return fac


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
    from .subspaces import schmidt_span

    worst = 0.0
    locals_ = []
    for k, nk in enumerate(cn):
        span = schmidt_span(psi_c, nk, cspace)
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
    commute_tol: float = 1e-8,
    cross_check: bool = True,
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
            neighborhood_algebra(
                psi_c, cn, j, cspace, support, seed=seed, projector_cache=cache
            )
            for j in range(len(cn))
        ]
    except DegenerateRestrictionWarning as exc:
        return AlgebraicRftsResult(ok=False, reason=f"degenerate-restriction: {exc}", **common)

    fs = []
    for alg in algebras:
        if alg.center_dim() != 1:
            return AlgebraicRftsResult(
                ok=False, reason="incomplete",
                algebra_dims=tuple(a.dim for a in algebras), **common,
            )
        f = int(round(math.sqrt(alg.dim)))
        if f * f != alg.dim:
            return AlgebraicRftsResult(
                ok=False, reason="incomplete",
                algebra_dims=tuple(a.dim for a in algebras), **common,
            )
        fs.append(f)

    defect = _pairwise_algebra_commutation(algebras, cn, support)
    if defect > commute_tol:
        return AlgebraicRftsResult(
            ok=False, reason="non-commuting", commutation_defect=defect,
            algebra_dims=tuple(a.dim for a in algebras), **common,
        )
    if int(np.prod(fs)) != support.h_tilde_dim:
        return AlgebraicRftsResult(
            ok=False, reason="incomplete", commutation_defect=defect,
            algebra_dims=tuple(a.dim for a in algebras), factor_dims=tuple(fs), **common,
        )

    try:
        fac = _extract_factorization(psi_c, cspace, cn, support, algebras, fs, seed)
    except FactorizationError:
        return AlgebraicRftsResult(
            ok=False, reason="incomplete", commutation_defect=defect,
            algebra_dims=tuple(a.dim for a in algebras), factor_dims=tuple(fs), **common,
        )
    psi_v = fac.to_virtual(psi_c)
    h0_weight = 1.0 - float(np.linalg.norm(psi_v) ** 2)
    factor_states, peel_resid = _peel_factor_states(psi_v, fac.factor_dims)
    fac = Factorization(
        factor_dims=fac.factor_dims,
        factor_to_neighborhood=fac.factor_to_neighborhood,
        support=fac.support,
        space=fac.space,
        neighborhoods=fac.neighborhoods,
        levels=fac.levels,
        h0_dim=fac.h0_dim,
        factor_states=factor_states,
    )
    rng = np.random.default_rng(seed + 1)
    block_resid = _projector_block_residual(psi_c, cspace, cn, fac, factor_states, rng)
    if cross_check and support.h_tilde_dim <= 1024:
        fac2 = _extract_factorization(psi_c, cspace, cn, support, algebras, fs, seed + 17)
        psi_v2 = fac2.to_virtual(psi_c)
        _, peel2 = _peel_factor_states(psi_v2, fac2.factor_dims)
        peel_resid = max(peel_resid, peel2)
    elif cross_check:
        rng2 = np.random.default_rng(seed + 29)
        block_resid = max(
            block_resid,
            _projector_block_residual(psi_c, cspace, cn, fac, factor_states, rng2),
        )
    ok = peel_resid < 1e-7 and abs(h0_weight) < 1e-9 and block_resid < 1e-6
    return AlgebraicRftsResult(
        ok=ok,
        reason="ok" if ok else "target-not-factored",
        factor_dims=fac.factor_dims,
        factorization=fac,
        algebra_dims=tuple(a.dim for a in algebras),
        commutation_defect=defect,
        target_factor_residual=peel_resid,
        projector_block_residual=block_resid,
        **common,
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

    Each channel first re-injects kernel weight uniformly into the local
    support of every coarse subsystem in its neighborhood, then resets its
    factor to the target factor state while acting as identity on everything
    else. Everything is built region-locally, so the construction scales to
    large total dimensions. Channels are returned on the original subsystems
    when a coarse graining is supplied.
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
        d_r = w_r.shape[0]
        kraus = []
        if f > 1:
            algebra = neighborhood_algebra(
                psi_c, fac.neighborhoods, fac.factor_to_neighborhood[j], cspace,
                support, seed=seed,
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
            for m in range(f):
                op = np.kron(np.outer(t_j, np.eye(f)[m]), np.eye(q, dtype=complex))
                kraus.append(w_r @ (g_loc @ op @ g_loc.conj().T) @ w_r.conj().T)
        else:
            kraus.append(w_r @ w_r.conj().T)
        kraus.append(np.eye(d_r, dtype=complex) - w_r @ w_r.conj().T)
        sub_space = MultipartiteSpace([cspace.dims[i] for i in region])
        reset = make_channel(kraus, list(range(len(region))), label=f"E_{j}")
        combined = reset
        for pos, i in enumerate(region):
            e0 = _reinjection_channel(support, i, pos)
            if e0 is not None:
                combined = ch.compose(combined, e0, sub_space, label=f"E_{j}")
        local = Channel(kraus=combined.kraus, support=tuple(region), label=f"E_{j}")
        local = ch.restrict_to_support(local, cspace)
        local = Channel(kraus=local.kraus, support=local.support, label=f"E_{j}")
        if cg is not None:
            local = _uncoarse_channel(local, cg, original_space)
        channels.append(local)
    return channels


def _neighborhood_of_factor(fac: Factorization, j: int):
    return fac.neighborhoods[fac.factor_to_neighborhood[j]]


def _reinjection_channel(support: LocalSupport, site: int, position: int) -> Channel | None:
    """Uniform re-injection of kernel weight on one coarse subsystem."""
    w = support.site_isometries[site]
    d, r = w.shape
    if d == r:
        return None
    p = w @ w.conj().T
    q_basis = orthonormal_columns(np.eye(d, dtype=complex) - p)
    kraus = [p]
    for a in range(q_basis.shape[1]):
        for b in range(r):
            kraus.append(np.outer(w[:, b], q_basis[:, a].conj()) / np.sqrt(r))
    return make_channel(kraus, [position], label=f"E0_{site}")


# ---------------------------------------------------------------------------
# robustness verification
# ---------------------------------------------------------------------------

def _distance_to_target(rho: np.ndarray, target, exact_limit: int = 768) -> float:
    """Trace distance to a pure or mixed target; bounded variant for large D."""
    target = np.asarray(target)
    if target.ndim == 1:
        if rho.shape[0] <= exact_limit:
            return trace_distance(rho, np.outer(target, target.conj()))
        from ._linalg import trace_distance_to_pure_bound

        return trace_distance_to_pure_bound(rho, target)
    return trace_distance(rho, target)


@dataclass(frozen=True)
class RobustnessReport:
    passed: bool
    max_final_distance: float
    orders_run: int
    exhaustive: bool
    invariance_ok: bool
    max_invariance_defect: float


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
    Inputs: the maximally mixed state plus random density matrices.
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
    inputs = [np.eye(d, dtype=complex) / d]
    for _ in range(n_random_inputs):
        inputs.append(random_density(d, rng))
    worst = 0.0
    for order in orders:
        for rho0 in inputs:
            rho = rho0
            for idx in order:
                rho = ch.apply(channels[idx], rho, space)
            worst = max(
                worst, _distance_to_target(rho, target, exact_limit=distance_exact_limit)
            )
            if worst > 10 * tol and not exhaustive:
                break
    return RobustnessReport(
        passed=worst < tol and inv_ok,
        max_final_distance=worst,
        orders_run=len(orders),
        exhaustive=exhaustive,
        invariance_ok=inv_ok,
        max_invariance_defect=inv_defect,
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
        union = tuple(sorted(set(a.support) | set(b.support)))
        sub = MultipartiteSpace([space.dims[i] for i in union])
        remap = {g: p for p, g in enumerate(union)}
        a_loc = Channel(kraus=a.kraus, support=tuple(remap[g] for g in a.support), label=a.label)
        b_loc = Channel(kraus=b.kraus, support=tuple(remap[g] for g in b.support), label=b.label)
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
    return max(float(val), -1e-9) if val > -1e-9 else float(val)


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
