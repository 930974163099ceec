"""Constructors and checks that only the tests use.

The package never builds basis vectors, random unitaries or unitary channels,
and never needs a projector set's dense Hamiltonian; the tests do, to state
inputs and oracles.
"""

import numpy as np

from qlstab import lie
from qlstab._linalg import herm
from qlstab.channels import Channel, make_channel
from qlstab.fts import FtsPlan
from qlstab.hilbert import DimensionError, MultipartiteSpace, NeighborhoodStructure
from qlstab.subspaces import ProjectorSet


def basis_state(space: MultipartiteSpace, occupations) -> np.ndarray:
    """Computational basis vector |occupations>."""
    occupations = list(occupations)
    if len(occupations) != space.n_subsystems:
        raise DimensionError("one occupation per subsystem required")
    idx = 0
    for d, o in zip(space.dims, occupations):
        if not 0 <= o < d:
            raise DimensionError(f"occupation {o} out of range for dimension {d}")
        idx = idx * d + o
    v = np.zeros(space.total_dim, dtype=complex)
    v[idx] = 1.0
    return v


def normalized(nstruct: NeighborhoodStructure) -> NeighborhoodStructure:
    """The structure without neighborhoods contained in others."""
    return NeighborhoodStructure(nstruct.neighborhoods, normalize=True)


def is_connected(nstruct: NeighborhoodStructure) -> bool:
    """Connectivity of the intersection graph of the neighborhoods."""
    if not nstruct.neighborhoods:
        return True
    sets = [set(nk) for nk in nstruct.neighborhoods]
    reached = {0}
    frontier = [0]
    while frontier:
        j = frontier.pop()
        for k in range(len(sets)):
            if k not in reached and sets[j] & sets[k]:
                reached.add(k)
                frontier.append(k)
    return len(reached) == len(sets)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return herm(g)


def unitary_channel(u, support, label: str = "") -> Channel:
    return make_channel([u], support, label=label)


def gram_defect(basis: lie.LieBasis) -> float:
    """Largest entry of G - I for the Gram matrix G of the basis elements."""
    v = lie._Packer(basis.ambient).pack(np.stack(basis.elements))
    g = v @ v.T
    return float(np.max(np.abs(g - np.eye(basis.dim))))


def hamiltonian(pset: ProjectorSet) -> np.ndarray:
    """Dense H = sum_k (I - Pi_k)."""
    d = pset.spans[0].ambient_dim
    h = len(pset.spans) * np.eye(d, dtype=complex)
    for p in pset.projectors:
        h -= p
    return h


def frustration_defect(pset: ProjectorSet) -> float:
    """||H |psi>||; zero by construction up to roundoff."""
    h_psi = sum(pset.target - s.apply_projector(pset.target) for s in pset.spans)
    return float(np.linalg.norm(h_psi))


def remainder_dim(plan: FtsPlan) -> int:
    """Dimensions of the local block left outside the cooling copies."""
    return plan.local_dim - plan.cooling_rate * plan.schmidt_dim
