"""Target-state constructors, each bundled with its neighborhood structure and,
where available, a set of witness channels that stabilize it robustly."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import hilbert
from ._linalg import kron_all
from .channels import Channel
from .hilbert import MultipartiteSpace, NeighborhoodStructure, uniform_space


@dataclass(frozen=True)
class StateInstance:
    name: str
    space: MultipartiteSpace
    neighborhoods: NeighborhoodStructure
    psi: np.ndarray | None = None
    rho: np.ndarray | None = None
    witness_channels: tuple[Channel, ...] = ()
    metadata: dict = field(default_factory=dict)

    def density(self) -> np.ndarray:
        if self.rho is not None:
            return self.rho
        return np.outer(self.psi, self.psi.conj())


# ---------------------------------------------------------------------------
# graph and CCZ states
# ---------------------------------------------------------------------------

def fourier_hadamard(d: int) -> np.ndarray:
    w = np.exp(2j * np.pi / d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return w ** (j * k)


def validate_hadamard(h: np.ndarray, d: int, atol: float = 1e-10) -> None:
    h = np.asarray(h)
    if h.shape != (d, d):
        raise ValueError("Hadamard matrix has the wrong shape")
    if np.max(np.abs(h @ h.conj().T - d * np.eye(d))) > atol:
        raise ValueError("H^dag H != d I")
    if np.max(np.abs(h - h.T)) > atol:
        raise ValueError("H is not symmetric")
    if np.max(np.abs(np.abs(h) - 1.0)) > atol:
        raise ValueError("H entries must have unit modulus")


def _digits(space: MultipartiteSpace) -> np.ndarray:
    """(total_dim, n) array of basis-index digits, row-major."""
    n = space.n_subsystems
    out = np.zeros((space.total_dim, n), dtype=int)
    idx = np.arange(space.total_dim)
    for pos in range(n - 1, -1, -1):
        d = space.dims[pos]
        out[:, pos] = idx % d
        idx //= d
    return out


def _phase_diagonal(space: MultipartiteSpace, edges, phase) -> np.ndarray:
    """Diagonal of prod_e C_e, where C_e |x> = phase(x_a, x_b, ...) |x> for e = (a, b, ...)."""
    digs = _digits(space)
    diag = np.ones(space.total_dim, dtype=complex)
    for e in edges:
        diag *= phase(*(digs[:, a] for a in e))
    return diag


def _adjacency(n: int, edges) -> list[set[int]]:
    """Per site, the other sites of the (hyper)edges that contain it."""
    adj = [set() for _ in range(n)]
    for e in edges:
        for a in e:
            adj[a].update(b for b in e if b != a)
    return adj


def _phase_state(
    n: int, plus: np.ndarray, edges, phase, name: str, metadata: dict
) -> StateInstance:
    """psi = (prod_e diag phase(digits of e)) |plus>^n for commuting phase gates on (hyper)edges.

    Site i's neighbourhood is i and the sites sharing an edge with it, and
    witness i resets site i to |plus> in the frame of the gates on its edges.
    """
    d = len(plus)
    space = uniform_space(n, d)
    psi = _phase_diagonal(space, edges, phase) * kron_all([plus] * n).reshape(-1)
    adj = _adjacency(n, edges)
    regions = [tuple(sorted({i} | adj[i])) for i in range(n)]
    witnesses = []
    for i, region in enumerate(regions):
        sub_space = uniform_space(len(region), d)
        local_edges = [[region.index(a) for a in e] for e in edges if i in e]
        witnesses.append(ch.factor_reset_channel(
            plus, [region.index(i)], sub_space.dims,
            np.diag(_phase_diagonal(sub_space, local_edges, phase)),
            [np.eye(d)] * len(region), region, f"E_{i}",
        ))
    return StateInstance(
        name=name,
        space=space,
        neighborhoods=NeighborhoodStructure(list(dict.fromkeys(regions))),
        psi=psi,
        witness_channels=tuple(witnesses),
        metadata=metadata,
    )


_QUBIT_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex)


def graph_state(
    n: int,
    edges,
    d: int = 2,
    hadamard: np.ndarray | None = None,
    name: str = "graph",
) -> StateInstance:
    """Graph state on n qudits: U_G |+>^n with U_G the edge-wise phase gate C^H|ij> = H_ij |ij>."""
    edges = [tuple(sorted((int(a), int(b)))) for a, b in edges]
    if hadamard is None:
        hadamard = _QUBIT_HADAMARD if d == 2 else fourier_hadamard(d)
    h = np.asarray(hadamard, dtype=complex)
    validate_hadamard(h, d)
    return _phase_state(
        n, h[:, 0] / np.sqrt(d), edges, lambda a, b: h[a, b], name, {"edges": edges, "d": d}
    )


def line_graph_state(n: int, d: int = 2) -> StateInstance:
    return graph_state(n, [(i, i + 1) for i in range(n - 1)], d=d, name=f"graph-line-{n}")


def grid_graph_state(rows: int, cols: int, periodic: bool = False) -> StateInstance:
    def idx(r, c):
        return (r % rows) * cols + (c % cols)

    edges = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols or periodic:
                edges.add(tuple(sorted((idx(r, c), idx(r, c + 1)))))
            if r + 1 < rows or periodic:
                edges.add(tuple(sorted((idx(r, c), idx(r + 1, c)))))
    kind = "torus" if periodic else "grid"
    return graph_state(rows * cols, sorted(edges), name=f"graph-{kind}-{rows}x{cols}")


def _ccz_instance(n: int, triangles, name: str) -> StateInstance:
    """CCZ state |Delta> = prod_T CCZ_T |+>^n with site+adjacent neighborhoods."""
    return _phase_state(
        n, np.array([1.0, 1.0]) / np.sqrt(2), triangles,
        lambda a, b, c: np.where(a & b & c, -1.0, 1.0),
        name, {"triangles": [tuple(t) for t in triangles]},
    )


def ccz_triangle() -> StateInstance:
    return _ccz_instance(3, [(0, 1, 2)], "ccz-triangle")


def kagome_sites(cells_x: int, cells_y: int, periodic: bool = True):
    """Site table and triangle list of a kagome patch (3 sites per cell)."""

    def site(a, b, s):
        if not periodic and not (0 <= a < cells_x and 0 <= b < cells_y):
            return None
        return (a % cells_x) * cells_y * 3 + (b % cells_y) * 3 + s

    triangles = []
    for a in range(cells_x):
        for b in range(cells_y):
            up = (site(a, b, 0), site(a, b, 1), site(a, b, 2))
            down = (site(a, b, 2), site(a + 1, b, 1), site(a, b + 1, 0))
            for t in (up, down):
                if None not in t:
                    triangles.append(tuple(sorted(set(t))))
    return cells_x * cells_y * 3, triangles


def ccz_kagome(cells_x: int = 2, cells_y: int = 2, periodic: bool = True) -> StateInstance:
    """CCZ state on a kagome patch of cells_x x cells_y unit cells."""
    n, triangles = kagome_sites(cells_x, cells_y, periodic=periodic)
    triangles = sorted(set(triangles))
    if any(len(set(t)) != 3 for t in triangles):
        raise ValueError("patch too small: a triangle wraps onto itself")
    kind = "" if periodic else "-open"
    return _ccz_instance(n, triangles, f"ccz-kagome-{cells_x}x{cells_y}{kind}")


def triangular_patch(rows: int, cols: int) -> StateInstance:
    """CCZ state on an open triangular-lattice patch (rows x cols vertices)."""

    def idx(r, c):
        return r * cols + c

    triangles = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            triangles.append((idx(r, c), idx(r, c + 1), idx(r + 1, c)))
            triangles.append((idx(r, c + 1), idx(r + 1, c), idx(r + 1, c + 1)))
    return _ccz_instance(rows * cols, triangles, f"ccz-triangular-{rows}x{cols}")


# ---------------------------------------------------------------------------
# Dicke, VBS, AKLT
# ---------------------------------------------------------------------------

def symmetric_state(bits) -> np.ndarray:
    """Normalized sum over all distinct permutations of the bit string.

    These are the basis states with as many ones as `bits`.
    """
    n = len(bits)
    weight = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    v = (weight == sum(bits)).astype(float)
    return v / np.linalg.norm(v)


def dicke(n: int = 4, k: int = 2) -> StateInstance:
    """n-qubit Dicke state with k excitations; overlapping 3-body neighborhoods."""
    if not 0 <= k <= n:
        raise ValueError(f"a Dicke state needs 0 <= k <= n, got n = {n}, k = {k}")
    psi = symmetric_state([1] * k + [0] * (n - k)).astype(complex)
    space = uniform_space(n, 2)
    nbhds = NeighborhoodStructure([list(range(i, i + 3)) for i in range(n - 2)])
    return StateInstance(
        name=f"dicke-{n}-{k}", space=space, neighborhoods=nbhds, psi=psi,
        metadata={"n": n, "k": k},
    )


def _bond_state(factor_states, factors, slot_dims, maps) -> np.ndarray:
    """A local map on each particle of a product of virtual factor states.

    Particle i has virtual slots of dims `slot_dims[i]`; factor state k lives
    on the slots `factors[k]`, pairs (particle i, slot j) in the order of its
    tensor factors. The product is permuted into particle order and `maps[i]`
    (physical x virtual) is applied to the slots of particle i.
    """
    listed = [vp for members in factors for vp in members]
    order = [(i, j) for i, dims in enumerate(slot_dims) for j in range(len(dims))]
    virt = hilbert.permute_subsystems(
        kron_all(factor_states).reshape(-1),
        [order.index(vp) for vp in listed],
        MultipartiteSpace([slot_dims[i][j] for i, j in listed]),
    )
    t = virt.reshape([int(np.prod(dims)) for dims in slot_dims])
    for axis, m in enumerate(maps):
        t = np.moveaxis(np.tensordot(m, t, axes=(1, axis)), 0, axis)
    return t.reshape(-1)


_SPIN1_FROM_PAIR = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / np.sqrt(2), 1.0 / np.sqrt(2), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)  # rows: m=+1 <- |00|, m=0 <- |psi+|, m=-1 <- |11|

_SPIN1_FROM_HALF = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])  # boundary embedding

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)


def vbs_1d(n: int) -> StateInstance:
    """Valence-bond-solid chain of n spin-1 sites from n-1 singlet bonds."""
    if n < 2:
        raise ValueError("need at least two sites")
    psi = _bond_state(
        [_SINGLET] * (n - 1),
        [((i, 1 if i else 0), (i + 1, 0)) for i in range(n - 1)],
        [(2,)] + [(2, 2)] * (n - 2) + [(2,)],
        [_SPIN1_FROM_HALF] + [_SPIN1_FROM_PAIR] * (n - 2) + [_SPIN1_FROM_HALF],
    ).astype(complex)
    psi /= np.linalg.norm(psi)
    space = uniform_space(n, 3)
    nbhds = NeighborhoodStructure([[i, i + 1] for i in range(n - 1)])
    meta = {"n": n}
    if n == 2:
        meta["degenerate_small_case"] = True
    return StateInstance(
        name=f"vbs1d-{n}", space=space, neighborhoods=nbhds, psi=psi, metadata=meta
    )


_SYM3 = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)
_SYM3[1] /= np.sqrt(3)
_SYM3[2] /= np.sqrt(3)


def aklt32_cubic() -> StateInstance:
    """Spin-3/2 AKLT state on the 6-vertex bipartite cubic graph (K_{3,3}).

    Each vertex carries three virtual qubits, one per incident edge; edges hold
    singlets and each vertex is projected onto its symmetric (spin-3/2)
    subspace. Neighborhoods are the 9 edge pairs.
    """
    edges = [(a, 3 + b) for a in range(3) for b in range(3)]
    # vertex a < 3 holds edge (a, b) in its slot b - 3, vertex b >= 3 in its slot a
    psi = _bond_state(
        [_SINGLET.astype(complex)] * 9, [((a, b - 3), (b, a)) for a, b in edges],
        [(2, 2, 2)] * 6, [_SYM3] * 6,
    )
    psi /= np.linalg.norm(psi)
    space = uniform_space(6, 4)
    nbhds = NeighborhoodStructure([list(e) for e in edges])
    return StateInstance(
        name="aklt32-cubic", space=space, neighborhoods=nbhds, psi=psi,
        metadata={"edges": edges},
    )


# ---------------------------------------------------------------------------
# W-product and the non-factorizable three-body example
# ---------------------------------------------------------------------------

def w_state(n: int = 3) -> np.ndarray:
    return symmetric_state([1] + [0] * (n - 1)).astype(complex)


def w_product_9() -> StateInstance:
    """|W>_{123} x |W>_{456} x |W>_{789} with three 7-site neighborhoods."""
    w = w_state(3)
    psi = kron_all([w, w, w]).reshape(-1)
    space = uniform_space(9, 2)
    s = set(range(9))
    nbhds = NeighborhoodStructure(
        [sorted(s - {5, 6}), sorted(s - {0, 8}), sorted(s - {2, 3})]
    )
    witnesses = tuple(
        ch.reset_channel(w, triple, label=f"E_{triple}")
        for triple in ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    )
    return StateInstance(
        name="w-product-9", space=space, neighborhoods=nbhds, psi=psi,
        witness_channels=witnesses,
        metadata={"factors": [(0, 1, 2), (3, 4, 5), (6, 7, 8)]},
    )


def w_product_commuting_hamiltonian(inst: StateInstance) -> np.ndarray:
    """Non-canonical commuting parent Hamiltonian for the W-product state:
    the sum over the three triples of (I - |W><W|) on the triple, identity
    elsewhere. The triples are consecutive sites, so each term is a Kronecker
    product, and W is real, so the matrix is float64 and its `eigh` runs in
    real arithmetic."""
    w = w_state(3).real
    q = np.eye(8) - np.outer(w, w)
    return sum(np.kron(np.kron(np.eye(8**k), q), np.eye(8 ** (2 - k))) for k in range(3))


# ---------------------------------------------------------------------------
# generalized Bravyi-Vyalyi states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticleSplit:
    """H_i ~ (tensor of virtual_dims) (+) C^{kernel_dim}."""

    virtual_dims: tuple[int, ...]
    kernel_dim: int = 0

    @property
    def virtual_dim(self) -> int:
        return int(np.prod(self.virtual_dims)) if self.virtual_dims else 1

    @property
    def physical_dim(self) -> int:
        return self.virtual_dim + self.kernel_dim


@dataclass(frozen=True)
class GbvSpec:
    splits: tuple[ParticleSplit, ...]
    neighborhoods: NeighborhoodStructure
    # factor k -> list of virtual particles (particle i, slot j), one factor per neighborhood
    factors: tuple[tuple[tuple[int, int], ...], ...]
    factor_states: tuple[np.ndarray, ...] | None = None
    seed: int = 11

    def validate(self) -> None:
        seen = set()
        for k, members in enumerate(self.factors):
            nk = set(self.neighborhoods[k])
            for (i, j) in members:
                if i not in nk:
                    raise ValueError(f"virtual particle ({i},{j}) not contained in neighborhood {k}")
                if (i, j) in seen:
                    raise ValueError(f"virtual particle ({i},{j}) assigned twice")
                seen.add((i, j))
        needed = {
            (i, j) for i, s in enumerate(self.splits) for j in range(len(s.virtual_dims))
        }
        if seen != needed:
            raise ValueError("factor assignment must cover every virtual particle exactly once")


def gbv_state(spec: GbvSpec, name: str = "gbv") -> StateInstance:
    """Generalized BV state: isometric embedding of a virtual product state."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    splits = spec.splits
    space = MultipartiteSpace([s.physical_dim for s in splits])

    # per-particle embeddings V_i: virtual block goes to the leading physical levels
    vs = [
        np.eye(s.physical_dim, s.virtual_dim, dtype=complex) for s in splits
    ]

    factor_states = []
    for k, members in enumerate(spec.factors):
        dims = [splits[i].virtual_dims[j] for (i, j) in members]
        dk = int(np.prod(dims))
        if spec.factor_states is not None:
            v = np.asarray(spec.factor_states[k], dtype=complex)
        else:
            v = rng.normal(size=dk) + 1j * rng.normal(size=dk)
        factor_states.append(v / np.linalg.norm(v))

    slot_dims = [s.virtual_dims for s in splits]
    psi = _bond_state(factor_states, spec.factors, slot_dims, vs)

    witnesses = []
    for k, members in enumerate(spec.factors):
        # reset factor k inside its neighbourhood, in the local virtual layout:
        # per particle of the region, its virtual slots; the factor state is
        # permuted from its listed order into that slot order
        region = spec.neighborhoods[k]
        slots = [(i, j) for i in region for j in range(len(slot_dims[i]))]
        dims = [slot_dims[i][j] for (i, j) in slots]
        at = [slots.index(vp) for vp in members]
        positions = sorted(at)
        state = hilbert.permute_subsystems(
            factor_states[k], [positions.index(p) for p in at],
            MultipartiteSpace([slot_dims[i][j] for (i, j) in members]),
        )
        witnesses.append(ch.factor_reset_channel(
            state, positions, dims, np.eye(int(np.prod(dims))),
            [vs[i] for i in region], region, f"E_{k}",
        ))
    return StateInstance(
        name=name, space=space, neighborhoods=spec.neighborhoods, psi=psi,
        witness_channels=tuple(witnesses), metadata={"factor_dims": [len(f) for f in spec.factors]},
    )


def bv_two_body_example(seed: int = 3) -> StateInstance:
    """Two-body BV instance: a chain 1-2-3 with each middle particle split."""
    spec = GbvSpec(
        splits=(
            ParticleSplit((2,)),
            ParticleSplit((2, 2)),
            ParticleSplit((2,)),
        ),
        neighborhoods=NeighborhoodStructure([[0, 1], [1, 2]]),
        factors=(((0, 0), (1, 0)), ((1, 1), (2, 0))),
        seed=seed,
    )
    return gbv_state(spec, name="bv-chain-3")


def gbv_fig4_instance(seed: int = 5) -> StateInstance:
    """Seven particles, four neighborhoods, kernel blocks on particles 2 and 5."""
    spec = GbvSpec(
        splits=(
            ParticleSplit((2,)),
            ParticleSplit((2,), kernel_dim=1),
            ParticleSplit((2,)),
            ParticleSplit((2, 2)),
            ParticleSplit((2,), kernel_dim=1),
            ParticleSplit((2, 2)),
            ParticleSplit((2,)),
        ),
        neighborhoods=NeighborhoodStructure([[0, 1], [1, 2, 3], [3, 4, 5], [5, 6]]),
        factors=(
            ((0, 0), (1, 0)),
            ((2, 0), (3, 0)),
            ((3, 1), (4, 0), (5, 0)),
            ((5, 1), (6, 0)),
        ),
        seed=seed,
    )
    return gbv_state(spec, name="gbv-7-particle")


def nonfactorizable_252() -> StateInstance:
    """2x5x2 state that factorizes only after removing a local subspace.

    The generalized Bravyi-Vyalyi state whose middle particle splits as
    (2 x 2) (+) C: a Bell pair (|00> + |11>)/sqrt(2) on (A, b) and one on
    (b', C), with the middle levels |0..3> = |b b'> and |4> spanning the kernel.
    """
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    spec = GbvSpec(
        splits=(ParticleSplit((2,)), ParticleSplit((2, 2), kernel_dim=1), ParticleSplit((2,))),
        neighborhoods=NeighborhoodStructure([[0, 1], [1, 2]]),
        factors=(((0, 0), (1, 0)), ((1, 1), (2, 0))),
        factor_states=(bell, bell),
    )
    return gbv_state(spec, name="nonfactorizable-252")


# ---------------------------------------------------------------------------
# mixed targets: virtual-product Gibbs states and the Ising counterexample
# ---------------------------------------------------------------------------

def gibbs_virtual_product(
    factor_dims,
    terms,
    v: np.ndarray,
    beta: float,
    space: MultipartiteSpace,
    neighborhoods: NeighborhoodStructure,
    assignment,
    name: str = "gibbs-virtual-product",
) -> StateInstance:
    """Gibbs state of H = sum_k H_k with every term inside one virtual factor.

    factor_dims: dims of the virtual factors; v: unitary from (tensor of
    factors) to the physical space; terms: list of (factor index, local
    Hermitian); assignment: factor index -> neighborhood index. Each factor
    exp(-beta h) comes from the eigenpairs of h, with the exponents shifted
    by their largest so that none overflows; the normalization cancels the
    shift.
    """
    factor_dims = list(factor_dims)
    if int(np.prod(factor_dims)) != space.total_dim:
        raise ValueError("factor dims do not multiply to the space dimension")
    locals_h = [np.zeros((d, d), dtype=complex) for d in factor_dims]
    for j, hloc in terms:
        if hloc.shape != (factor_dims[j], factor_dims[j]):
            raise ValueError(f"term assigned to factor {j} has the wrong shape")
        locals_h[j] = locals_h[j] + np.asarray(hloc, dtype=complex)
    gibbs_factors = []
    for h in locals_h:
        ev, vec = np.linalg.eigh(h)
        x = -beta * ev
        g = (vec * np.exp(x - x.max())) @ vec.conj().T
        gibbs_factors.append(g / np.trace(g).real)
    rho_virtual = kron_all(gibbs_factors)
    rho = v @ rho_virtual @ v.conj().T

    witnesses = []
    eyes = [np.eye(d) for d in space.dims]
    for j, rho_j in enumerate(gibbs_factors):
        chan = ch.factor_reset_channel(rho_j, [j], factor_dims, v, eyes, range(space.n_subsystems), f"E_{j}")
        chan = ch.restrict_to_support(chan, space)
        nk = set(neighborhoods[assignment[j]])
        if not set(chan.support) <= nk:
            raise ValueError(f"factor {j} reset is not contained in its neighborhood")
        witnesses.append(chan)
    return StateInstance(
        name=name, space=space, neighborhoods=neighborhoods, rho=rho,
        witness_channels=tuple(witnesses),
        metadata={"beta": beta, "factor_dims": factor_dims},
    )


def graph_state_gibbs(inst: StateInstance, beta: float) -> StateInstance:
    """Gibbs state of the commuting graph-state Hamiltonian sum_k U_G|-><-|_k U_G^dag.

    Each term lives in one conjugated virtual site, so the state is a virtual
    product and robustly stabilizable. For structures whose neighborhoods all
    have single-site interiors (cycles, large enough lattices) this
    Hamiltonian coincides with the canonical parent Hamiltonian.
    """
    edges = inst.metadata["edges"]
    space = inst.space
    n = space.n_subsystems
    diag = _phase_diagonal(space, edges, lambda a, b: _QUBIT_HADAMARD[a, b])
    # physical-to-virtual unitary: U_G (H x...x H)
    v = np.diag(diag) @ kron_all([_QUBIT_HADAMARD / np.sqrt(2)] * n)
    # in the virtual frame each term is |1><1| on one site
    terms = [(i, np.diag([0.0, 1.0]).astype(complex)) for i in range(n)]
    adj = _adjacency(n, edges)
    assignment = [
        next(k for k, nk in enumerate(inst.neighborhoods) if {i} | adj[i] <= set(nk))
        for i in range(n)
    ]
    return gibbs_virtual_product(
        [2] * n,
        terms,
        v,
        beta,
        space,
        inst.neighborhoods,
        assignment=assignment,
        name=f"{inst.name}-gibbs",
    )


def graph_gibbs(n_line: int, beta: float) -> StateInstance:
    """Gibbs state of the commuting line-graph-state Hamiltonian."""
    return graph_state_gibbs(line_graph_state(n_line), beta)


def ising_gibbs(n: int, j: float, beta: float) -> StateInstance:
    """Thermal state of the ferromagnetic 1D nearest-neighbor Ising chain."""
    space = uniform_space(n, 2)
    digs = _digits(space)
    s = 1.0 - 2.0 * digs  # 0 -> +1, 1 -> -1
    energy = -j * np.sum(s[:, :-1] * s[:, 1:], axis=1)
    w = np.exp(-beta * (energy - energy.min()))
    w /= w.sum()
    rho = np.diag(w.astype(complex))
    return StateInstance(
        name=f"ising-gibbs-{n}", space=space,
        neighborhoods=NeighborhoodStructure([[i, i + 1] for i in range(n - 1)]),
        rho=rho, metadata={"J": j, "beta": beta},
    )


def ising_zz_covariance(inst: StateInstance, site_a: int, site_b: int) -> float:
    """Exact Cov(Z_a, Z_b) for the diagonal Ising Gibbs state."""
    w = np.real(np.diag(inst.rho))
    digs = _digits(inst.space)
    za = 1.0 - 2.0 * digs[:, site_a]
    zb = 1.0 - 2.0 * digs[:, site_b]
    return float(np.sum(w * za * zb) - np.sum(w * za) * np.sum(w * zb))
