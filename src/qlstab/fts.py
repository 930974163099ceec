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
from ._linalg import complete_basis, random_density, random_pure
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


def _cool_weights(w: np.ndarray, frame: ch.Frame) -> np.ndarray:
    """Weight-vector action of the cooling map in the ordered basis: each copy
    family, r consecutive vectors, merges onto its first; the s * dim(rest)
    families come first and the remainder is left alone."""
    r = frame.copies
    groups = frame.schmidt_dim * (frame.dim // frame.local.shape[0])
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
    plan: ch.Frame | None = None,
    force: bool = False,
) -> tuple[Circuit, FtsCertificate]:
    """Alternating cooling/permutation circuit driving everything to psi.

    `plan` is the frame `plan_fts` returns (planned here when not given); the
    circuit holds it, one-step circuits included. The permutation unitaries
    fix the target (column 0 of the ordered basis) and move the currently
    occupied basis vectors to the front of the order, so each cooling
    application merges as many copies as possible.
    """
    if plan is None:
        plan = plan_fts(psi, nstruct, space, force=force)
    d = space.total_dim
    w_channel = cooling_map(plan)
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
        steps.append(ch.permutation_step(perm, space, label=f"U_{rounds}"))
        new_w = np.zeros(d)
        new_w[perm] = weights
        weights = _cool_weights(new_w, plan)
        steps.append(w_channel)
        ranks.append(int(np.sum(weights > 1e-15)))
        rounds += 1
    circ = Circuit(tuple(steps), space, plan)
    return circ, FtsCertificate(ranks=tuple(ranks), steps=len(steps), cooling_rounds=rounds)


@dataclass(frozen=True)
class FtsVerification:
    """What `verify_fts` proved or sampled.

    `method` is "occupied-set" (every input, from one framed I/D run) or
    "drawn-inputs" (I/D plus the drawn inputs, for a circuit without a frame).
    `max_final_distance` is the largest final trace distance to the target
    over the inputs run: on the occupied-set path, that of I/D alone.
    `trials` counts the drawn inputs run, 0 on the occupied-set path. The
    other fields are None on the drawn-inputs path: `final_occupied`, the
    occupied set of the framed I/D run's final state; `tp_defect`, the
    largest |c_j - 1| over the column sums c_j of the channel steps' monomial
    forms; `worst_input_bound`, the bound on the final distance of every
    input; and `frame_defect` (`channels.frame_defect`): the frame's
    unitarity defect or an upper bound, read from the frame's factors, on
    every entry of a channel step off its monomial form, whichever is
    larger.
    """

    passed: bool
    max_final_distance: float
    trials: int
    method: str
    final_occupied: tuple[int, ...] | None = None
    tp_defect: float | None = None
    worst_input_bound: float | None = None
    frame_defect: float | None = None


def verify_fts(
    circuit: Circuit,
    psi: np.ndarray,
    trials: int = 5,
    seed: int = 1,
    tol: float = 1e-8,
) -> FtsVerification:
    """Prove that the circuit drives every input to psi, from one run of I/D
    in its frame; a circuit without a frame runs I/D plus `trials` random
    mixed and `trials` random pure inputs.

    The proof holds under the model every framed run uses (`channels.run`):
    the frame B is unitary and every channel step is its monomial form in B,
    B^H K B = sum_j vals[j] |rows[j]><cols[j]|, both to `frame_defect` <=
    `DEFAULT_TOL.frame`, which is checked (ChannelError otherwise). A step
    writes out[rows, rows] += vals rho[cols, cols] vals^*, so the occupied
    set of its output lies inside the union over Kraus operators of
    rows[cols in S], S the occupied set of its input; a permutation step
    reindexes S. I/D is the exact diagonal 1/D in the frame, and it stays
    diagonal, so it runs as its weight vector p (`channels.run_diagonal`),
    with out[rows] += |vals|^2 p[cols]: every entry of that image is a sum of
    positive terms (|vals| > `DEFAULT_TOL.frame`), so the I/D run's occupied
    set, the support of p, is the image exactly, and by induction it holds
    every input's framed state at every step. If the final set is {0},
    every input ends as tau |e_0><e_0|. Each channel step scales the trace
    of a positive input by between 1 - delta and 1 + delta, delta =
    `tp_defect`, so any two inputs' final traces differ by at most
    (1 + delta)^n - (1 - delta)^n over the n channel steps, and every input's final distance to psi is at most
    `worst_input_bound` = I/D's final distance + half that. The check passes
    iff the final set is {0} and `worst_input_bound` < tol.
    """
    d = circuit.space.total_dim
    psi = np.asarray(psi, dtype=complex)
    frame = circuit.frame
    if frame is None:
        rng = np.random.default_rng(seed)
        inputs = [np.eye(d, dtype=complex) / d]
        for _ in range(trials):
            inputs.append(random_density(d, rng))
            v = random_pure(d, rng)
            inputs.append(np.outer(v, v.conj()))
        worst = max(
            ch.run(circuit, rho, target=psi, record=False)[1][-1].trace_distance for rho in inputs
        )
        return FtsVerification(passed=worst < tol, max_final_distance=worst, trials=2 * trials,
                               method="drawn-inputs")
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
        trials=0,
        method="occupied-set",
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
