"""Schmidt spans, subspace intersections and projector-level state checks.

An extended Schmidt span is kept in local form: its region-side Schmidt basis
u and its region. Its projector u u^H (x) I is applied to a column stack with
one permutation in and one out. The intersection of extended spans is grown
region by region: each step intersects, on the factors of the grown region,
the spans that lie inside it, so it is exact at every D and no step forms a
D x D matrix. Commutator norms are computed on thin bases; a dense projector
is built only when a caller asks for one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from ._linalg import DEFAULT_TOL, projector, rank_cutoff
from .channels import CapExceeded
from .hilbert import MultipartiteSpace, NeighborhoodStructure

# bytes an intersection or a commutator norm may allocate; the same cap as
# rfts.COMMUTANT_MAX_BYTES and lie.UGEN_MAX_BYTES
INTERSECT_MAX_BYTES = 1 << 30


class _Span:
    """A subspace of C^D that applies its own orthogonal projector."""

    def contains(self, v: np.ndarray, atol: float = 1e-9) -> bool:
        v = np.asarray(v)
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        return bool(np.linalg.norm(v - self.apply_projector(v)) / nv < atol)


@dataclass(frozen=True)
class Subspace(_Span):
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

    def apply_projector(self, x: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.conj().T @ x)

    def projector(self) -> np.ndarray:
        return projector(self.basis)


@dataclass(frozen=True)
class ExtendedSpan(_Span):
    """span(local) tensored with the complement of `region`: P = local local^H (x) I.

    `local` has orthonormal columns on the factors of the sorted `region`.
    """

    local: np.ndarray  # (dim(region), r)
    region: tuple[int, ...]
    space: MultipartiteSpace

    @property
    def ambient_dim(self) -> int:
        return self.space.total_dim

    @property
    def dim(self) -> int:
        return self.local.shape[1] * (self.space.total_dim // self.local.shape[0])

    @property
    def basis(self) -> np.ndarray:
        """Dense (D, dim) orthonormal basis, globally ordered."""
        m, r = self.local.shape[0], self.space.total_dim // self.local.shape[0]
        big = np.kron(self.local, np.eye(r, dtype=complex))
        # column vectors live in the (region, complement) ordering; restore rows
        return hilbert.from_front(big.reshape(m, r, -1), self.region, self.space)

    def apply_projector(self, x: np.ndarray) -> np.ndarray:
        y = hilbert.to_front(x, self.region, self.space)
        flat = y.reshape(y.shape[0], -1)
        z = self.local @ (self.local.conj().T @ flat)
        return hilbert.from_front(z.reshape(y.shape), self.region, self.space)

    def projector(self) -> np.ndarray:
        """Dense D x D projector."""
        return hilbert.embed(hilbert.RegionOperator(projector(self.local), self.region), self.space)

    def on_sites(self, sites) -> ExtendedSpan:
        """The same local projector inside the factors `sites` (sorted, containing the region)."""
        sites = list(sites)
        sub = MultipartiteSpace([self.space.dims[i] for i in sites])
        return ExtendedSpan(self.local, tuple(sites.index(i) for i in self.region), sub)


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
) -> ExtendedSpan:
    """Schmidt span of `region` tensored with the complement space."""
    region = tuple(sorted(set(region)))
    return ExtendedSpan(schmidt_span(psi, region, space, rtol).basis, region, space)


def _check_bytes(d: int, r: int, what: str) -> None:
    """Refuse work on a (d, r) basis whose arrays would pass INTERSECT_MAX_BYTES.

    Counted: the basis, the permuted copy, the product and the permuted-back
    result of one projector application, their difference, and two r x r
    matrices (the compressed operator and its eigenvectors or R factors).
    """
    nbytes = 16 * (5 * d * r + 2 * r * r)
    if nbytes > INTERSECT_MAX_BYTES:
        raise CapExceeded(
            f"{what} on a {d} x {r} basis needs {nbytes / 2**30:.1f} GiB, "
            f"capped at {INTERSECT_MAX_BYTES / 2**30:.1f} GiB"
        )


@dataclass(frozen=True, init=False)
class Intersection(Subspace):
    """Intersection basis plus the margin of its eigenvalue cut.

    largest_kept and smallest_dropped are eigenvalues of the compressed
    (1/K) sum_j (I - P_j); None when no eigenvalue is on that side.
    """

    largest_kept: float | None
    smallest_dropped: float | None

    def __init__(self, basis, largest_kept=None, smallest_dropped=None):
        super().__init__(basis)
        object.__setattr__(self, "largest_kept", largest_kept)
        object.__setattr__(self, "smallest_dropped", smallest_dropped)


def intersect(
    subspaces: list[_Span],
    eig_tol: float = DEFAULT_TOL.intersect_eig,
) -> Intersection:
    """Intersection from the spectrum of (1/K) sum_j (I - P_j) on the smallest span.

    With B the orthonormal basis (D, r) of the smallest span, the r x r matrix
    (1/K) sum_j ((I - P_j) B)^H ((I - P_j) B) has the intersection, in B
    coordinates, as its kernel. Eigenvalues below eig_tol are kept; this is
    the averaged-projector rule "eigenvalue > 1 - eig_tol" on C^D, and by
    Cauchy interlacing only eigenvalues near the cut can differ between the two.
    """
    if not subspaces:
        raise ValueError("empty subspace list")
    dim = subspaces[0].ambient_dim
    if any(s.ambient_dim != dim for s in subspaces):
        raise ValueError("ambient dimensions differ")
    s = min(range(len(subspaces)), key=lambda j: subspaces[j].dim)
    r = subspaces[s].dim
    _check_bytes(dim, r, "intersection")
    b = subspaces[s].basis
    if r == 0:
        return Intersection(b)
    m = np.zeros((r, r), dtype=complex)
    for j, sub in enumerate(subspaces):
        if j != s:
            z = b - sub.apply_projector(b)
            m += z.conj().T @ z
    ev, vec = np.linalg.eigh(m / len(subspaces))
    keep = ev < eig_tol
    return Intersection(
        b @ vec[:, keep],
        largest_kept=float(ev[keep][-1]) if keep.any() else None,
        smallest_dropped=float(ev[~keep][0]) if not keep.all() else None,
    )


def _sweep(spans: list[ExtendedSpan]):
    """Intersection of extended spans, grown one region at a time.

    Returns (region, V, largest_kept, smallest_dropped): the intersection is
    V (x) I with V on the sorted `region`, and the margin is the tightest over
    the steps. Each step adds the pending span with the fewest sites outside
    the region R (lowest index on ties), giving R'. Every span inside R' is
    X (x) I there, so their intersection with V (x) I is (the intersection on
    R') (x) I; each step is one `intersect` on the factors of R'.
    """
    pending = list(range(len(spans)))
    region: tuple[int, ...] = ()
    v = np.ones((1, 1), dtype=complex)
    margins = []
    while pending:
        j = min(pending, key=lambda i: len(set(spans[i].region) - set(region)))
        grown = tuple(sorted(set(region) | set(spans[j].region)))
        inside = [i for i in pending if set(spans[i].region) <= set(grown)]
        parts = [spans[i].on_sites(grown) for i in inside]
        if region:
            parts.append(ExtendedSpan(v, tuple(grown.index(i) for i in region), parts[0].space))
        inter = intersect(parts)
        margins.append((inter.largest_kept, inter.smallest_dropped))
        region, v = grown, inter.basis
        pending = [i for i in pending if i not in inside]
    return (region, v, *_tightest(margins))


def _tightest(margins) -> tuple[float | None, float | None]:
    """Largest kept and smallest dropped eigenvalue over (kept, dropped) pairs."""
    kept = [k for k, _ in margins if k is not None]
    dropped = [d for _, d in margins if d is not None]
    return max(kept, default=None), min(dropped, default=None)


@dataclass(frozen=True)
class QlsVerdict:
    qls: bool
    intersection_dim: int
    contains_target: bool
    # tightest margin of the intersection cuts over the sweep steps
    largest_kept: float | None = None
    smallest_dropped: float | None = None


# nothing in qlstab reads this; perfbench/spans.py names its traced check_qls span by it
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
    spans = [extended_schmidt_span(psi, nk, space) for nk in nstruct]
    region, v, kept, dropped = _sweep(spans)
    inter = ExtendedSpan(v, region, space)
    contains = inter.contains(psi)
    return QlsVerdict(
        qls=(inter.dim == 1 and contains),
        intersection_dim=inter.dim,
        contains_target=contains,
        largest_kept=kept,
        smallest_dropped=dropped,
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
    """Extended Schmidt spans Pi_k, in local form, plus the induced Hamiltonian."""

    spans: tuple[ExtendedSpan, ...]
    neighborhoods: NeighborhoodStructure
    target: np.ndarray

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Dense D x D projectors, built on each access."""
        return tuple(s.projector() for s in self.spans)

    def hamiltonian(self) -> np.ndarray:
        """Dense H = sum_k (I - Pi_k)."""
        d = self.spans[0].ambient_dim
        h = len(self.spans) * np.eye(d, dtype=complex)
        for p in self.projectors:
            h -= p
        return h

    def frustration_defect(self) -> float:
        """||H |psi>||; zero by construction up to roundoff."""
        h_psi = sum(self.target - s.apply_projector(self.target) for s in self.spans)
        return float(np.linalg.norm(h_psi))


def canonical_hamiltonian(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
) -> ProjectorSet:
    psi = np.asarray(psi, dtype=complex)
    spans = tuple(extended_schmidt_span(psi, nk, space) for nk in nstruct)
    return ProjectorSet(spans=spans, neighborhoods=nstruct, target=psi)


def _commutator_norm(span, q: np.ndarray) -> float:
    """||[P, Q Q^H]||_F for the projector P of `span` and orthonormal columns q.

    [P, QQ^H] = P QQ^H (I - P) - (I - P) QQ^H P, two terms of equal norm whose
    Frobenius inner product is zero, so the norm is sqrt(2) ||R_a R_b^H||_F
    with R_a, R_b the thin-QR R factors of (I - P) Q and P Q. No Gram
    difference is taken, so a vanishing commutator reads at roundoff.
    """
    _check_bytes(q.shape[0], q.shape[1], "commutator")
    if q.shape[1] == 0:
        return 0.0
    pq = span.apply_projector(q)
    r_a = np.linalg.qr(q - pq, mode="r")
    r_b = np.linalg.qr(pq, mode="r")
    return float(np.sqrt(2.0) * np.linalg.norm(r_a @ r_b.conj().T))


@dataclass(frozen=True)
class CommutingProjectorVerdict:
    ok: bool
    per_neighborhood: tuple[dict, ...]
    max_norm: float
    # tightest margin over the leave-one-out intersection cuts
    largest_kept: float | None = None
    smallest_dropped: float | None = None


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
    rows, margins = [], []
    for k in range(len(nstruct)):
        region, v, *margin = _sweep([s for j, s in enumerate(spans) if j != k])
        margins.append(margin)
        norm = _commutator_norm(spans[k], ExtendedSpan(v, region, space).basis)
        rows.append({"neighborhood": nstruct[k], "commutator_norm": norm})
    mx = max(r["commutator_norm"] for r in rows)
    kept, dropped = _tightest(margins)
    return CommutingProjectorVerdict(
        ok=mx < tol, per_neighborhood=tuple(rows), max_norm=mx,
        largest_kept=kept, smallest_dropped=dropped,
    )


def pairwise_projector_commutators(pset: ProjectorSet) -> np.ndarray:
    """Symmetric matrix of Frobenius norms ||[Pi_j, Pi_k]||.

    Each norm is taken on the union U of the two regions and scaled by
    sqrt(D / dim U), since the commutator is the one on U tensored with the
    identity; it is exactly 0 for disjoint regions.
    """
    spans = pset.spans
    k = len(spans)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            a, b = spans[i], spans[j]
            sites = sorted(set(a.region) | set(b.region))
            if len(sites) == len(a.region) + len(b.region):
                continue
            a, b = a.on_sites(sites), b.on_sites(sites)
            if b.dim > a.dim:
                a, b = b, a
            scale = math.sqrt(spans[i].ambient_dim / a.ambient_dim)
            out[i, j] = out[j, i] = scale * _commutator_norm(a, b.basis)
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

