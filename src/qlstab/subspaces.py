"""Schmidt spans, subspace intersections and projector-level state checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import hilbert
from ._linalg import DEFAULT_TOL, frob, projector, rank_cutoff
from .hilbert import MultipartiteSpace, NeighborhoodStructure


@dataclass(frozen=True)
class Subspace:
    """Subspace given by a matrix with orthonormal columns."""

    basis: np.ndarray  # (ambient_dim, r)

    def __init__(self, basis):
        basis = np.atleast_2d(np.asarray(basis, dtype=complex))
        if basis.ndim == 1:
            basis = basis[:, None]
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return projector(self.basis)

    def contains(self, v: np.ndarray, atol: float = 1e-9) -> bool:
        v = np.asarray(v)
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        resid = v - self.basis @ (self.basis.conj().T @ v)
        return bool(np.linalg.norm(resid) / nv < atol)


def schmidt_span(
    psi: np.ndarray,
    region,
    space: MultipartiteSpace,
    rtol: float = DEFAULT_TOL.rank_rtol,
) -> Subspace:
    """Span of the region-side Schmidt vectors with nonzero singular value."""
    psi = np.asarray(psi, dtype=complex)
    if np.linalg.norm(psi) == 0:
        raise ValueError("zero state vector")
    region = sorted(set(region))
    if not region:
        raise ValueError("region must be nonempty")
    if len(region) == space.n_subsystems:
        # trivial complement: the span of the state itself
        return Subspace(psi[:, None] / np.linalg.norm(psi))
    m = hilbert.to_front(psi, region, space)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    r = rank_cutoff(s, m.shape, rtol)
    return Subspace(u[:, :r])


def extended_schmidt_span(
    psi: np.ndarray,
    region,
    space: MultipartiteSpace,
    rtol: float = DEFAULT_TOL.rank_rtol,
) -> Subspace:
    """Schmidt span of `region` tensored with the complement space, globally ordered."""
    region = sorted(set(region))
    local = schmidt_span(psi, region, space, rtol)
    if len(region) == space.n_subsystems:
        return local
    m, r = local.ambient_dim, space.total_dim // local.ambient_dim
    big = np.kron(local.basis, np.eye(r, dtype=complex))
    # column vectors live in the (region, complement) ordering; restore rows
    return Subspace(hilbert.from_front(big.reshape(m, r, -1), region, space))


def intersect(
    subspaces: list[Subspace],
    eig_tol: float = DEFAULT_TOL.intersect_eig,
) -> Subspace:
    """Exact intersection via the averaged-projector spectral method."""
    if not subspaces:
        raise ValueError("empty subspace list")
    dim = subspaces[0].ambient_dim
    if any(s.ambient_dim != dim for s in subspaces):
        raise ValueError("ambient dimensions differ")
    p = np.zeros((dim, dim), dtype=complex)
    for s in subspaces:
        p += s.projector()
    p /= len(subspaces)
    ev, vec = np.linalg.eigh(p)
    keep = ev > 1.0 - eig_tol
    return Subspace(vec[:, keep])


def intersect_nullspace_method(subspaces: list[Subspace]) -> Subspace:
    """Cross-check variant: nullspace of the stacked orthogonal complements."""
    from ._linalg import nullspace

    dim = subspaces[0].ambient_dim
    blocks = [np.eye(dim, dtype=complex) - s.projector() for s in subspaces]
    return Subspace(nullspace(np.vstack(blocks)))


@dataclass(frozen=True)
class QlsVerdict:
    qls: bool
    intersection_dim: int
    contains_target: bool


def _intersection_dim_iterative(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    k_eigs: int = 4,
) -> tuple[int, bool]:
    """Kernel multiplicity of sum_k (I - Pi_k) via Lanczos on a matvec operator.

    Returns (lower bound on intersection dim capped at k_eigs, contains_target).
    Used when the total dimension is too large for dense projectors.
    """
    import scipy.sparse.linalg as spla

    locals_ = []
    for nk in nstruct:
        s = schmidt_span(psi, nk, space)
        locals_.append((projector(s.basis), nk))
    kcount = len(locals_)
    d = space.total_dim

    def hv(v: np.ndarray) -> np.ndarray:
        v = v.astype(complex)
        out = kcount * v
        for p_local, region in locals_:
            out -= hilbert.act(p_local, region, v, space)
        return out

    op = spla.LinearOperator((d, d), matvec=hv, dtype=complex)
    # shifted power spectrum: smallest eigenvalues of PSD H
    k = min(k_eigs, d - 2)
    ev = spla.eigsh(op, k=k, which="SA", return_eigenvectors=False, tol=1e-9)
    ev = np.sort(ev)
    dim0 = int(np.sum(ev < 1e-7 * kcount))
    target_resid = np.linalg.norm(hv(np.asarray(psi, dtype=complex)))
    return dim0, bool(target_resid < 1e-7 * kcount)


# dense path is used below this total dimension
DENSE_DIM_LIMIT = 1200


def check_qls(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
) -> QlsVerdict:
    """Target spans the intersection of its extended Schmidt spans?"""
    if not nstruct.covers(space):
        raise ValueError("neighborhood structure must cover all subsystems")
    psi = np.asarray(psi, dtype=complex)
    if space.total_dim > DENSE_DIM_LIMIT:
        dim0, contains = _intersection_dim_iterative(psi, nstruct, space)
        return QlsVerdict(qls=(dim0 == 1 and contains), intersection_dim=dim0, contains_target=contains)
    spans = [extended_schmidt_span(psi, nk, space) for nk in nstruct]
    inter = intersect(spans)
    contains = inter.contains(psi)
    return QlsVerdict(
        qls=(inter.dim == 1 and contains),
        intersection_dim=inter.dim,
        contains_target=contains,
    )


@dataclass(frozen=True)
class SmallSchmidtSpanReport:
    per_neighborhood: tuple[dict, ...]
    satisfied: bool


def check_small_schmidt_span(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
) -> SmallSchmidtSpanReport:
    """Exists a neighborhood with 2*dim(Schmidt span) <= dim(neighborhood space)?"""
    rows = []
    for k, nk in enumerate(nstruct):
        s = schmidt_span(psi, nk, space)
        dk = space.dim_of(nk)
        rows.append(
            {
                "neighborhood": nk,
                "schmidt_dim": s.dim,
                "neighborhood_dim": dk,
                "satisfied": 2 * s.dim <= dk,
            }
        )
    return SmallSchmidtSpanReport(
        per_neighborhood=tuple(rows),
        satisfied=any(r["satisfied"] for r in rows),
    )


@dataclass(frozen=True)
class ProjectorSet:
    """Extended-Schmidt-span projectors Pi_k plus the induced Hamiltonian."""

    projectors: tuple[np.ndarray, ...]
    neighborhoods: NeighborhoodStructure
    target: np.ndarray

    def hamiltonian(self) -> np.ndarray:
        d = self.projectors[0].shape[0]
        h = len(self.projectors) * np.eye(d, dtype=complex)
        for p in self.projectors:
            h -= p
        return h

    def frustration_defect(self) -> float:
        """||H |psi>||; zero by construction up to roundoff."""
        return float(np.linalg.norm(self.hamiltonian() @ self.target))


def canonical_hamiltonian(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
) -> ProjectorSet:
    psi = np.asarray(psi, dtype=complex)
    projs = tuple(
        extended_schmidt_span(psi, nk, space).projector() for nk in nstruct
    )
    return ProjectorSet(projectors=projs, neighborhoods=nstruct, target=psi)


@dataclass(frozen=True)
class CommutingProjectorVerdict:
    ok: bool
    per_neighborhood: tuple[dict, ...]
    max_norm: float


def check_commuting_projectors(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    tol: float = 1e-8,
) -> CommutingProjectorVerdict:
    """For each k, Frobenius norm of [Pi_k, Pi_kbar] with Pi_kbar the projector
    onto the intersection of all the other extended Schmidt spans."""
    if len(nstruct) < 2:
        raise ValueError("need at least two neighborhoods")
    spans = [extended_schmidt_span(psi, nk, space) for nk in nstruct]
    rows = []
    for k in range(len(nstruct)):
        others = [s for j, s in enumerate(spans) if j != k]
        pbar = intersect(others).projector()
        pk = spans[k].projector()
        norm = frob(pk @ pbar - pbar @ pk)
        rows.append({"neighborhood": nstruct[k], "commutator_norm": norm})
    mx = max(r["commutator_norm"] for r in rows)
    return CommutingProjectorVerdict(ok=mx < tol, per_neighborhood=tuple(rows), max_norm=mx)


def pairwise_projector_commutators(pset: ProjectorSet) -> np.ndarray:
    """Symmetric matrix of Frobenius norms ||[Pi_j, Pi_k]||."""
    k = len(pset.projectors)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            c = pset.projectors[i] @ pset.projectors[j] - pset.projectors[j] @ pset.projectors[i]
            out[i, j] = out[j, i] = frob(c)
    return out


@dataclass(frozen=True)
class MatchingOverlapVerdict:
    status: str  # "satisfied" | "violated" | "unknown"
    witness: tuple[int, ...] | None = None  # violating subset, if any

    @property
    def ok(self) -> bool:
        return self.status == "satisfied"


def check_matching_overlap(
    nstruct: NeighborhoodStructure,
    subset_cap: int = 6,
) -> MatchingOverlapVerdict:
    """Any common intersection must equal every pairwise intersection in the set.

    Subsets are enumerated up to size min(len(N), subset_cap); if nothing
    larger can be checked the verdict is "unknown" rather than guessed.
    """
    sets = [set(nk) for nk in nstruct]
    n = len(sets)
    cap = min(n, subset_cap)
    for size in range(3, cap + 1):
        for combo in itertools.combinations(range(n), size):
            common = set.intersection(*(sets[i] for i in combo))
            if not common:
                continue
            for a, b in itertools.combinations(combo, 2):
                if sets[a] & sets[b] != common:
                    return MatchingOverlapVerdict(status="violated", witness=combo)
    if n > cap:
        return MatchingOverlapVerdict(status="unknown")
    return MatchingOverlapVerdict(status="satisfied")


def operator_schmidt_span(
    op: np.ndarray,
    region,
    space: MultipartiteSpace,
    rtol: float = DEFAULT_TOL.rank_rtol,
) -> Subspace:
    """Schmidt span of an operator treated as a vector on the doubled space.

    The returned basis lives on the doubled region factor (dim_region^2), i.e.
    its elements are vectorized region operators.
    """
    opp = hilbert.to_front(np.asarray(op, dtype=complex), sorted(set(region)), space, sides=2)
    da, db = opp.shape[:2]
    t = opp.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, s, _ = np.linalg.svd(t, full_matrices=False)
    r = rank_cutoff(s, t.shape, rtol)
    return Subspace(u[:, :r])


def operator_schmidt_matrices(op, region, space, rtol=DEFAULT_TOL.rank_rtol) -> list[np.ndarray]:
    """Region-side operator Schmidt factors of `op` as matrices."""
    sub = operator_schmidt_span(op, region, space, rtol)
    da = int(round(np.sqrt(sub.ambient_dim)))
    return [sub.basis[:, j].reshape(da, da) for j in range(sub.dim)]
