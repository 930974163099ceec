"""Multipartite tensor bookkeeping.

Subsystem indices are 0-based everywhere inside the package; the CLI layer
converts from the 1-based external format. Storage is dense throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class MultipartiteSpace:
    """Tensor-product space with subsystem dimensions `dims`."""

    dims: tuple[int, ...]

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise DimensionError(f"subsystem dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def dim_of(self, region) -> int:
        return int(np.prod([self.dims[i] for i in region])) if len(region) else 1

    def complement(self, region) -> tuple[int, ...]:
        reg = set(region)
        return tuple(i for i in range(self.n_subsystems) if i not in reg)


def uniform_space(n: int, d: int = 2) -> MultipartiteSpace:
    return MultipartiteSpace([d] * n)


@dataclass(frozen=True)
class NeighborhoodStructure:
    """List of neighborhoods (sorted index tuples).

    Each set is sorted and duplicate-free; exact duplicates are rejected. With
    normalize=True (the ingestion normal form) neighborhoods that are subsets
    of another are dropped. Constructors of concrete state families keep their
    natural structures, where boundary neighborhoods may be nested.
    """

    neighborhoods: tuple[tuple[int, ...], ...]

    def __init__(self, neighborhoods, normalize: bool = False):
        sets = []
        for nk in neighborhoods:
            t = tuple(sorted(set(int(i) for i in nk)))
            if not t:
                raise ValueError("empty neighborhood")
            sets.append(t)
        if len(set(sets)) != len(sets):
            raise ValueError("duplicate neighborhoods")
        if normalize:
            sets = [a for a in sets if not any(set(a) < set(b) for b in sets)]
        object.__setattr__(self, "neighborhoods", tuple(sets))

    def normalized(self) -> "NeighborhoodStructure":
        return NeighborhoodStructure(self.neighborhoods, normalize=True)

    def __len__(self) -> int:
        return len(self.neighborhoods)

    def __iter__(self):
        return iter(self.neighborhoods)

    def __getitem__(self, k) -> tuple[int, ...]:
        return self.neighborhoods[k]

    def covers(self, space: MultipartiteSpace) -> bool:
        seen = set(itertools.chain.from_iterable(self.neighborhoods))
        return seen >= set(range(space.n_subsystems))

    def is_connected(self) -> bool:
        """Connectivity of the intersection graph of the neighborhoods."""
        if not self.neighborhoods:
            return True
        sets = [set(nk) for nk in self.neighborhoods]
        reached = {0}
        frontier = [0]
        while frontier:
            j = frontier.pop()
            for k in range(len(sets)):
                if k not in reached and sets[j] & sets[k]:
                    reached.add(k)
                    frontier.append(k)
        return len(reached) == len(sets)


@dataclass(frozen=True)
class RegionOperator:
    """Dense operator together with the subsystem set it acts on."""

    matrix: np.ndarray
    support: tuple[int, ...]

    def __init__(self, matrix, support):
        matrix = np.asarray(matrix, dtype=complex)
        support = tuple(sorted(int(i) for i in support))
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError("region operator must be a square matrix")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "support", support)


def _reorder_factors(x: np.ndarray, dims, axes, sides: int, extra=()) -> np.ndarray:
    """Split the first `sides` indices of x into factors `dims` and put factor
    axes[j] at position j on each; trailing axes of shape `extra` stay."""
    n = len(dims)
    t = x.reshape(tuple(dims) * sides + tuple(extra))
    perm = [s * n + a for s in range(sides) for a in axes]
    return t.transpose(perm + list(range(sides * n, t.ndim)))


def permute_subsystems(obj: np.ndarray, dest, space: MultipartiteSpace) -> np.ndarray:
    """Relabel subsystems: subsystem i of the input becomes subsystem dest[i].

    Works on state vectors (1d) and operators (2d). Applying `dest` and then
    its inverse permutation is the identity.
    """
    dest = list(dest)
    if sorted(dest) != list(range(space.n_subsystems)):
        raise ValueError(f"not a permutation of 0..{space.n_subsystems - 1}: {dest}")
    obj = np.asarray(obj)
    if obj.ndim not in (1, 2):
        raise DimensionError("expected a vector or a square matrix")
    return _reorder_factors(obj, space.dims, np.argsort(dest), obj.ndim).reshape(obj.shape)


def _front_order(region, space: MultipartiteSpace) -> list[int]:
    region = sorted(region)
    return region + list(space.complement(region))


def to_front(x: np.ndarray, region, space: MultipartiteSpace, sides: int = 1) -> np.ndarray:
    """x with the tensor factors of the sorted `region` first.

    sides=1 regroups the row index of a vector (D,) or a column stack (D, N),
    giving (m, r) or (m, r, N) with m = dim(region), r = D // m. sides=2
    regroups both indices of a D x D operator, giving (m, r, m, r).
    """
    x = np.asarray(x)
    m = space.dim_of(region)
    extra = x.shape[sides:]
    t = _reorder_factors(x, space.dims, _front_order(region, space), sides, extra)
    return t.reshape((m, space.total_dim // m) * sides + extra)


def from_front(y: np.ndarray, region, space: MultipartiteSpace, sides: int = 1) -> np.ndarray:
    """Inverse of `to_front`: (m, r[, N]) -> (D[, N]) or (m, r, m, r) -> (D, D).

    With sides=2, any array of D * D entries in the front ordering is accepted.
    """
    y = np.asarray(y)
    order = _front_order(region, space)
    extra = y.shape[2:] if sides == 1 else ()
    t = _reorder_factors(y, [space.dims[i] for i in order], np.argsort(order), sides, extra)
    return t.reshape((space.total_dim,) * sides + extra)


def act(op: np.ndarray, region, x: np.ndarray, space: MultipartiteSpace) -> np.ndarray:
    """(op on the sorted `region`, identity elsewhere) @ x for x of shape (D,) or (D, N)."""
    y = to_front(x, region, space)
    return from_front((op @ y.reshape(y.shape[0], -1)).reshape(y.shape), region, space)


def embed(op: RegionOperator, space: MultipartiteSpace) -> np.ndarray:
    """op tensor identity-on-complement, with global index ordering restored."""
    sup = op.support
    if any(i < 0 or i >= space.n_subsystems for i in sup):
        raise DimensionError(f"support {sup} out of range for {space.n_subsystems} subsystems")
    m = space.dim_of(sup)
    if op.matrix.shape != (m, m):
        raise DimensionError(
            f"operator is {op.matrix.shape[0]}x{op.matrix.shape[1]}, support dimension is {m}"
        )
    full = np.kron(op.matrix, np.eye(space.total_dim // m, dtype=complex))
    return from_front(full, sup, space, sides=2)


def partial_trace(rho: np.ndarray, keep, space: MultipartiteSpace) -> np.ndarray:
    """Trace out everything but `keep`; result ordered by sorted(keep)."""
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("empty keep set")
    rho = np.asarray(rho)
    n = space.n_subsystems
    t = rho.reshape(space.dims + space.dims)
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(traced):
        axis = i - sum(1 for j in traced[:count] if j < i)
        ncur = t.ndim // 2
        t = np.trace(t, axis1=axis, axis2=axis + ncur)
        # np.trace moves the traced pair to the end; reorder is unnecessary
        # because trace removes both axes keeping relative order of the rest
    dk = int(np.prod([space.dims[i] for i in keep]))
    return t.reshape(dk, dk)


def reduced_state_of_pure(psi: np.ndarray, keep, space: MultipartiteSpace) -> np.ndarray:
    """Tr_complement |psi><psi| without forming the global density matrix."""
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("empty keep set")
    m = to_front(psi, keep, space)
    return m @ m.conj().T


@dataclass(frozen=True)
class CoarseGraining:
    space: MultipartiteSpace
    index_map: tuple[int, ...]  # old subsystem index -> new coarse index
    groups: tuple[tuple[int, ...], ...]  # new index -> old indices (sorted)
    neighborhoods: NeighborhoodStructure
    neighborhood_origins: tuple[tuple[int, ...], ...] = ()  # coarse k -> original ks


def coarse_grain(space: MultipartiteSpace, nstruct: NeighborhoodStructure) -> CoarseGraining:
    """Merge subsystems that belong to exactly the same set of neighborhoods.

    Neighborhoods that become identical after merging are deduplicated; the
    origin table records which original neighborhoods each coarse one covers.
    """
    if not nstruct.covers(space):
        raise ValueError("neighborhood structure does not cover all subsystems")
    n = space.n_subsystems
    signature = {
        i: frozenset(k for k, nk in enumerate(nstruct) if i in nk) for i in range(n)
    }
    groups: list[list[int]] = []
    sig_to_group: dict[frozenset, int] = {}
    for i in range(n):
        s = signature[i]
        if s not in sig_to_group:
            sig_to_group[s] = len(groups)
            groups.append([])
        groups[sig_to_group[s]].append(i)
    index_map = tuple(sig_to_group[signature[i]] for i in range(n))
    new_dims = [int(np.prod([space.dims[i] for i in g])) for g in groups]
    rewritten: list[tuple[int, ...]] = []
    origins: dict[tuple[int, ...], list[int]] = {}
    for k, nk in enumerate(nstruct):
        t = tuple(sorted({index_map[i] for i in nk}))
        if t not in origins:
            origins[t] = []
            rewritten.append(t)
        origins[t].append(k)
    return CoarseGraining(
        space=MultipartiteSpace(new_dims),
        index_map=index_map,
        groups=tuple(tuple(g) for g in groups),
        neighborhoods=NeighborhoodStructure(rewritten),
        neighborhood_origins=tuple(tuple(origins[t]) for t in rewritten),
    )


def coarse_grain_state(psi: np.ndarray, cg: CoarseGraining, space: MultipartiteSpace) -> np.ndarray:
    """Reorder a state vector so grouped subsystems are contiguous per group."""
    order = [i for g in cg.groups for i in g]
    return permute_subsystems(np.asarray(psi), np.argsort(order), space)


def neighborhood_expansion(nstruct: NeighborhoodStructure, region) -> tuple[int, ...]:
    """Union of all neighborhoods intersecting `region`."""
    region = set(region)
    out: set[int] = set()
    for nk in nstruct:
        if region & set(nk):
            out.update(nk)
    return tuple(sorted(out))


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
