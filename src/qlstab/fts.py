"""Finite-time stabilization: planning, cooling-map synthesis, verification.

The synthesized circuit alternates a fixed dissipative neighborhood map with
global basis-permutation unitaries that fix the target, so the running state
stays diagonal in a fixed ordered basis and the whole construction can be
tracked exactly on a weight vector. Each permutation unitary is stored as an
index array on that basis (`channels.PermutationStep`), never as a D x D
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import hilbert
from . import subspaces
from ._linalg import complete_basis, random_density, random_pure, trace_distance
from .channels import Channel, Circuit, make_channel
from .hilbert import MultipartiteSpace, NeighborhoodStructure


class FtsError(RuntimeError):
    pass


@dataclass(frozen=True)
class FtsPlan:
    """Everything needed to build the cooling map and the basis ordering."""

    neighborhood_index: int
    neighborhood: tuple[int, ...]
    schmidt_dim: int                 # s
    cooling_rate: int                # r = floor(dim H_N / s)
    remainder_dim: int               # dim H_N - r * s
    local_blocks: np.ndarray         # (m, m) unitary: columns = copies then remainder
    basis_order: np.ndarray          # (D, D) unitary, columns in cooling order
    space: MultipartiteSpace
    target: np.ndarray

    @property
    def local_dim(self) -> int:
        return self.local_blocks.shape[0]

    @property
    def n_group_vectors(self) -> int:
        """Basis vectors per copy family: s * dim of the complement."""
        rest = self.space.total_dim // self.local_dim
        return self.schmidt_dim * rest


def plan_fts(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    force: bool = False,
    neighborhood_index: int | None = None,
    local_blocks: np.ndarray | None = None,
) -> FtsPlan:
    """Pick the neighborhood with maximal cooling rate and fix the basis order.

    `local_blocks` may be supplied to pin the copy subspaces (columns: base
    Schmidt span, then the copies, then the remainder); by default the copies
    come from a deterministic completion of the Schmidt span.
    """
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    rates = []
    spans = []
    for nk in nstruct:
        span = subspaces.schmidt_span(psi, nk, space)
        spans.append(span)
        rates.append(space.dim_of(nk) // span.dim)
    best = int(np.argmax(rates)) if neighborhood_index is None else neighborhood_index
    r = rates[best]
    if r < 2 and not force:
        raise FtsError(
            "no neighborhood satisfies the small Schmidt span condition; "
            f"best rate {r} at neighborhood {nstruct[best]}"
        )
    if not force:
        from .lie import check_unitary_generation

        ugen = check_unitary_generation(psi, nstruct, space)
        if not ugen.ok:
            raise FtsError(
                "unitary generation fails: generated dimension "
                f"{ugen.generated_dim} < {ugen.target_dim}"
            )
    nk = nstruct[best]
    span = spans[best]
    m = space.dim_of(nk)
    s = span.dim
    if local_blocks is None:
        local_blocks = complete_basis(span.basis)
    else:
        local_blocks = np.asarray(local_blocks, dtype=complex)
        if local_blocks.shape != (m, m):
            raise FtsError("local_blocks must be a full local unitary")
        p_given = local_blocks[:, :s] @ local_blocks[:, :s].conj().T
        if np.max(np.abs(p_given - span.projector())) > 1e-9:
            raise FtsError("leading local_blocks columns must span the Schmidt span")
    remainder = m - r * s

    basis_order = _ordered_global_basis(psi, nk, space, local_blocks, s, r)
    return FtsPlan(
        neighborhood_index=best,
        neighborhood=nk,
        schmidt_dim=s,
        cooling_rate=r,
        remainder_dim=remainder,
        local_blocks=local_blocks,
        basis_order=basis_order,
        space=space,
        target=psi,
    )


def _ordered_global_basis(psi, nk, space, local_blocks, s, r):
    """Columns: psi-led copy families interleaved by copy, remainder last."""
    m = space.dim_of(nk)
    rest = space.total_dim // m
    psip = hilbert.to_front(psi, nk, space)
    v0 = local_blocks[:, :s]
    # coordinates of psi inside (Schmidt span) x (rest): s*rest vector
    c0 = (v0.conj().T @ psip).reshape(-1)
    c0 = c0 / np.linalg.norm(c0)
    qs = complete_basis(c0)  # orthonormal basis of the coordinate space, psi first
    cols = []
    for alpha in range(s * rest):
        coeff = qs[:, alpha].reshape(s, rest)
        for i in range(r):
            vi = local_blocks[:, i * s : (i + 1) * s]
            cols.append((vi @ coeff).reshape(-1))
    vr = local_blocks[:, r * s :]
    for beta in range(vr.shape[1]):
        for j in range(rest):
            w = np.zeros((m, rest), dtype=complex)
            w[:, j] = vr[:, beta]
            cols.append(w.reshape(-1))
    b = np.stack(cols, axis=1)
    # permute the row index of every column back to the global ordering
    return hilbert.from_front(b.reshape(m, rest, -1), nk, space)


def cooling_map(plan: FtsPlan) -> Channel:
    """The dissipative neighborhood map collapsing every copy onto the base."""
    m, s, r = plan.local_dim, plan.schmidt_dim, plan.cooling_rate
    v0 = plan.local_blocks[:, :s]
    vr = plan.local_blocks[:, r * s :]
    k0 = v0 @ v0.conj().T + vr @ vr.conj().T
    kraus = [k0]
    for i in range(1, r):
        vi = plan.local_blocks[:, i * s : (i + 1) * s]
        kraus.append(v0 @ vi.conj().T)
    return make_channel(kraus, plan.neighborhood, label="W")


def _cool_weights(w: np.ndarray, plan: FtsPlan) -> np.ndarray:
    """Weight-vector action of the cooling map in the ordered basis."""
    r = plan.cooling_rate
    groups = plan.n_group_vectors
    out = w.copy()
    for alpha in range(groups):
        base = alpha * r
        total = out[base : base + r].sum()
        out[base : base + r] = 0.0
        out[base] = total
    return out


@dataclass(frozen=True)
class FtsCertificate:
    ranks: tuple[int, ...]
    steps: int
    cooling_rounds: int


def synthesize_fts(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    plan: FtsPlan | None = None,
    force: bool = False,
) -> tuple[Circuit, FtsCertificate]:
    """Alternating cooling/permutation circuit driving everything to psi.

    The permutation unitaries fix the target (column 0 of the ordered basis)
    and move the currently occupied basis vectors to the front of the order,
    so each cooling application merges as many copies as possible.
    """
    if plan is None:
        plan = plan_fts(psi, nstruct, space, force=force)
    d = space.total_dim
    w_channel = cooling_map(plan)
    frame = ch.Frame(plan.basis_order)
    weights = np.full(d, 1.0 / d)
    steps: list[Channel | ch.PermutationStep] = [w_channel]
    weights = _cool_weights(weights, plan)
    ranks = [int(np.sum(weights > 1e-15))]
    guard = 4 * d
    rounds = 1
    while ranks[-1] > 1:
        if rounds > guard:
            raise FtsError("cooling did not terminate; preconditions violated?")
        occupied = np.flatnonzero(weights > 1e-15)
        perm = np.empty(d, dtype=int)
        perm[occupied] = np.arange(len(occupied))
        rest = np.setdiff1d(np.arange(d), occupied, assume_unique=True)
        perm[rest] = np.arange(len(occupied), d)
        # unitary permuting ordered-basis vectors; fixes psi since occupied[0]=0
        steps.append(ch.permutation_step(perm, frame, space, label=f"U_{rounds}"))
        new_w = np.zeros(d)
        new_w[perm] = weights
        weights = _cool_weights(new_w, plan)
        steps.append(w_channel)
        ranks.append(int(np.sum(weights > 1e-15)))
        rounds += 1
    circ = Circuit(tuple(steps), space)
    return circ, FtsCertificate(ranks=tuple(ranks), steps=len(steps), cooling_rounds=rounds)


@dataclass(frozen=True)
class FtsVerification:
    passed: bool
    max_final_distance: float
    rank_trajectory: tuple[int, ...]
    trials: int


def verify_fts(
    circuit: Circuit,
    psi: np.ndarray,
    trials: int = 5,
    seed: int = 1,
    tol: float = 1e-8,
) -> FtsVerification:
    """Run the circuit from the maximally mixed state plus random inputs."""
    rng = np.random.default_rng(seed)
    d = circuit.space.total_dim
    psi = np.asarray(psi, dtype=complex)
    inputs = [np.eye(d, dtype=complex) / d]
    for _ in range(trials):
        inputs.append(random_density(d, rng))
        v = random_pure(d, rng)
        inputs.append(np.outer(v, v.conj()))
    worst = 0.0
    ranks: tuple[int, ...] = ()
    target = np.outer(psi, psi.conj())
    for j, rho in enumerate(inputs):
        final, traj = ch.run(circuit, rho, target=psi, record=(j == 0))
        if j == 0:
            ranks = tuple(t.rank for t in traj)
        worst = max(worst, trace_distance(final, target))
    return FtsVerification(
        passed=worst < tol,
        max_final_distance=worst,
        rank_trajectory=ranks,
        trials=trials,
    )
