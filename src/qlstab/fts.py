"""Finite-time stabilization: planning, cooling-map synthesis, verification.

The synthesized circuit alternates a fixed dissipative neighborhood map with
global basis-permutation unitaries that fix the target, so the running state
stays diagonal in a fixed ordered basis and the whole construction can be
tracked exactly on a weight vector. The ordered basis is held as its local
factors (`channels.Frame`), and each permutation unitary as an index array on
it (`channels.PermutationStep`); neither is stored as a D x D matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import hilbert
from . import lie
from . import subspaces
from ._linalg import complete_basis
from .channels import Channel, Circuit, make_channel
from .hilbert import MultipartiteSpace, NeighborhoodStructure


class FtsError(RuntimeError):
    pass


class UgenError(FtsError):
    """Refusal because the neighborhood unitaries do not generate: a verdict
    of the `CLUSTER_RTOL` cut (`lie.check_unitary_generation`)."""


def plan_fts(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    force: bool = False,
) -> ch.Frame:
    """Pick the neighborhood with maximal cooling rate and fix the basis order.

    Returns the frame: its region is the neighborhood, `schmidt_dim` the
    Schmidt dimension s, `copies` the cooling rate r = floor(dim H_N / s), and
    `local` the (m, m) unitary whose columns are the Schmidt span, its r - 1
    copies, then the remainder, from a deterministic completion of the span.
    """
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    rates = []
    spans = []
    for nk in nstruct:
        span = subspaces.schmidt_span(psi, nk, space)
        spans.append(span)
        rates.append(space.dim_of(nk) // span.dim)
    best = int(np.argmax(rates))
    r = rates[best]
    if r < 2 and not force:
        raise FtsError(
            "no neighborhood satisfies the small Schmidt span condition; "
            f"best rate {r} at neighborhood {nstruct[best]}"
        )
    if not force:
        ugen = lie.check_unitary_generation(psi, nstruct, space)
        if not ugen.ok:
            raise UgenError(
                "unitary generation fails: generated dimension "
                f"{ugen.generated_dim} < {ugen.target_dim}"
            )
    span = spans[best]
    return _ordered_frame(psi, nstruct[best], space, complete_basis(span.basis), span.dim, r)


def _ordered_frame(psi, nk, space, local_blocks, s, r) -> ch.Frame:
    """Columns: psi-led copy families interleaved by copy, remainder last.

    `local_blocks` is the (m, m) local unitary: the Schmidt span, the copies,
    then the remainder. The families share the coordinates c0 of psi in
    (Schmidt span) x (rest); `channels.Frame` completes them to a basis by a
    Householder reflection.
    """
    psip = hilbert.to_front(psi, nk, space)
    c0 = (local_blocks[:, :s].conj().T @ psip).reshape(-1)
    return ch.Frame(space, nk, local_blocks, r, s, c0 / np.linalg.norm(c0))


def cooling_map(frame: ch.Frame) -> Channel:
    """The dissipative neighborhood map collapsing every copy onto the base."""
    s, r, local = frame.schmidt_dim, frame.copies, frame.local
    v0 = local[:, :s]
    vr = local[:, r * s :]
    k0 = v0 @ v0.conj().T + vr @ vr.conj().T
    kraus = [k0]
    for i in range(1, r):
        vi = local[:, i * s : (i + 1) * s]
        kraus.append(v0 @ vi.conj().T)
    return make_channel(kraus, frame.region, label="W")


@dataclass(frozen=True)
class FtsCertificate:
    ranks: tuple[int, ...]  # after each cooling round


def synthesize_fts(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    plan: ch.Frame | None = None,
    force: bool = False,
) -> tuple[Circuit, FtsCertificate]:
    """Alternating cooling/permutation circuit driving everything to psi.

    `plan` is the frame `plan_fts` returns (planned here when not given); the
    circuit holds it, one-step circuits included. The permutation unitaries
    fix the target (column 0 of the ordered basis) and move the currently
    occupied basis vectors to the front of the order, so each cooling
    application merges as many copies as possible.

    The occupied sets are those of I/D's weight vector, stepped through the
    circuit as it grows (`channels.diagonal_step`), the run `verify_fts`
    proves with; each rank counts exact nonzeros. The cooling map's forms
    are built once and cached on the frame, for the proof and framed runs.
    """
    if plan is None:
        plan = plan_fts(psi, nstruct, space, force=force)
    d = space.total_dim
    w_channel = cooling_map(plan)
    steps: list[Channel | ch.PermutationStep] = [w_channel]
    weights = ch.diagonal_step(w_channel, np.full(d, 1.0 / d), plan)
    ranks = [int(np.count_nonzero(weights))]
    while ranks[-1] > 1:
        if len(ranks) > 4 * d:
            raise FtsError("cooling did not terminate; preconditions violated?")
        # frame vector j goes to perm[j]: the occupied vectors to the front,
        # the rest after them, each in index order; fixes psi since weights[0] > 0
        occupied, perm = weights != 0, np.empty(d, dtype=int)
        perm[occupied], perm[~occupied] = np.arange(ranks[-1]), np.arange(ranks[-1], d)
        steps += [ch.permutation_step(perm, space, label=f"U_{len(ranks)}"), w_channel]
        for step in steps[-2:]:
            weights = ch.diagonal_step(step, weights, plan)
        ranks.append(int(np.count_nonzero(weights)))
    return Circuit(tuple(steps), space, plan), FtsCertificate(ranks=tuple(ranks))


@dataclass(frozen=True)
class FtsVerification:
    """What `verify_fts` proved, from one framed run of I/D.

    `max_final_distance` is the final trace distance of I/D to the target;
    `final_occupied`, the occupied set of its final framed state;
    `tp_defect`, the largest |c_j - 1| over the column sums c_j of the
    channel steps' monomial forms; `worst_input_bound`, the bound on the
    final distance of every input; and `frame_defect`
    (`channels.frame_defect`): the frame's unitarity defect or an upper
    bound, read from the frame's factors, on every entry of a channel step
    off its monomial form, whichever is larger.
    """

    passed: bool
    max_final_distance: float
    final_occupied: tuple[int, ...]
    tp_defect: float
    worst_input_bound: float
    frame_defect: float


def verify_fts(
    circuit: Circuit,
    psi: np.ndarray,
    trials: int = 5,
    seed: int = 1,
    tol: float = 1e-8,
) -> FtsVerification:
    """Prove that the circuit drives every input to psi, from one run of I/D
    in its frame. A circuit without a frame is refused (ChannelError).
    `trials` and `seed` are accepted and not read: the proof draws no input.

    The proof holds under the model every framed run uses (`channels.run`):
    the frame B is unitary and every channel step is its monomial form in B,
    B^H K B = sum_j vals[j] |rows[j]><cols[j]|, both to `frame_defect` <=
    `DEFAULT_TOL.frame`, which is checked (ChannelError otherwise). A step
    writes out[rows, rows] += vals rho[cols, cols] vals^*, so the occupied
    set of its output lies inside the union over Kraus operators of
    rows[cols in S], S the occupied set of its input; a permutation step
    reindexes S. I/D is the exact diagonal 1/D in the frame, and it stays
    diagonal, so it runs as its weight vector p (`channels.run_diagonal`),
    whose support fills that image exactly (`channels.diagonal_step`); by
    induction it holds every input's framed state at every step. If the
    final set is {0}, every input ends as tau |e_0><e_0|. Each channel step
    scales the trace of a positive input by between 1 - delta and
    1 + delta, delta = `tp_defect`, so any two inputs' final traces differ
    by at most (1 + delta)^n - (1 - delta)^n over the n channel steps, and
    every input's final distance to psi is at most `worst_input_bound` =
    I/D's final distance + half that. The check passes iff the final set is
    {0} and `worst_input_bound` < tol.
    """
    frame = circuit.frame
    if frame is None:
        raise ch.ChannelError("verify_fts needs a circuit with a frame")
    d = circuit.space.total_dim
    defect = ch.frame_defect(circuit)
    final, last = ch.run_diagonal(circuit, np.full(d, 1.0 / d), frame.apply(psi, adjoint=True), record=False)
    dist = last[-1].trace_distance
    final_occupied = tuple(int(i) for i in np.flatnonzero(final))
    channel_steps = [s for s in circuit.steps if isinstance(s, Channel)]
    delta = max((_tp_defect(frame.monomial_kraus(s, circuit.space)[0], d) for s in channel_steps), default=0.0)
    n = len(channel_steps)
    bound = dist + 0.5 * ((1.0 + delta) ** n - (1.0 - delta) ** n)
    return FtsVerification(
        passed=final_occupied == (0,) and bound < tol,
        max_final_distance=dist,
        final_occupied=final_occupied,
        tp_defect=delta,
        worst_input_bound=bound,
        frame_defect=defect,
    )


def _tp_defect(forms, d: int) -> float:
    """max_j |c_j - 1| over the column sums c_j = sum_k |vals_k[j]|^2 of a
    channel's monomial forms; a column no form holds has c_j = 0."""
    c = np.zeros(d)
    for _, cols, vals in forms:
        c[cols] += np.abs(vals) ** 2
    return float(np.max(np.abs(c - 1.0)))
