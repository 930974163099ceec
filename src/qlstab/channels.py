"""CPTP maps in Kraus form with a declared support region.

Channels store local Kraus matrices; embedding into the full space happens
lazily at application time, which keeps memory at the local dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import hilbert
from ._linalg import DEFAULT_TOL, dagger, rank_cutoff, trace_distance, trace_distance_to_pure_on
from .hilbert import MultipartiteSpace


class ChannelError(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Channel:
    kraus: tuple[np.ndarray, ...]
    support: tuple[int, ...]
    label: str = ""

    @property
    def local_dim(self) -> int:
        return self.kraus[0].shape[0]

    def tp_defect(self) -> float:
        m = self.local_dim
        s = sum(dagger(k) @ k for k in self.kraus)
        return float(np.max(np.abs(s - np.eye(m))))

    def adjoint_kraus(self) -> tuple[np.ndarray, ...]:
        return tuple(dagger(k) for k in self.kraus)


def make_channel(kraus, support, label: str = "", tp_tol: float = DEFAULT_TOL.trace_preserving) -> Channel:
    kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
    if not kraus:
        raise ChannelError("no Kraus operators")
    m = kraus[0].shape[0]
    for k in kraus:
        if k.ndim != 2 or k.shape != (m, m):
            raise ChannelError("Kraus operators must be square and equally sized")
    ch = Channel(kraus=kraus, support=tuple(sorted(int(i) for i in support)), label=label)
    defect = ch.tp_defect()
    if defect > tp_tol:
        raise ChannelError(f"trace preservation violated, defect {defect:.3e}")
    return ch


def unitary_channel(u, support, label: str = "") -> Channel:
    return make_channel([u], support, label=label)


def reset_channel(state, support, label: str = "") -> Channel:
    """Channel rho -> state * Tr(rho) on the support region.

    `state` is a vector (pure reset) or a density matrix (mixed reset).
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        m = state.shape[0]
        kraus = [np.outer(state, e) for e in np.eye(m)]
    else:
        m = state.shape[0]
        ev, vecs = np.linalg.eigh(state)
        kraus = [
            np.sqrt(max(p, 0.0)) * np.outer(vecs[:, a], e)
            for a, p in enumerate(ev)
            if p > 1e-14
            for e in np.eye(m)
        ]
    return make_channel(kraus, support, label=label)


def compose(second: Channel, first: Channel, space: MultipartiteSpace, label: str = "") -> Channel:
    """Channel applying `first` then `second`, on the union support."""
    union = tuple(sorted(set(second.support) | set(first.support)))
    du = space.dim_of(union)

    def lift(ch: Channel) -> list[np.ndarray]:
        if tuple(ch.support) == union:
            return list(ch.kraus)
        sub_space = MultipartiteSpace([space.dims[i] for i in union])
        pos = {g: p for p, g in enumerate(union)}
        sub_support = [pos[g] for g in ch.support]
        return [
            hilbert.embed(hilbert.RegionOperator(k, sub_support), sub_space)
            for k in ch.kraus
        ]

    ka = lift(first)
    kb = lift(second)
    prod = [b @ a for b in kb for a in ka]
    return make_channel(prod, union, label=label or f"{second.label}*{first.label}")


def _liouville_pays(m: int, n_kraus: int, d: int) -> bool:
    """Whether `_apply_local` contracts with the natural matrix S = sum K (x) K-bar.

    Per (m x m) block of the state S costs m^4 flops against 2 K m^3 for the
    Kraus operators one at a time; S is used when that is fewer and it has no
    more entries than the D x D state.
    """
    return m < 2 * n_kraus and m * m <= d


def _apply_local(rho: np.ndarray, kraus, support, space: MultipartiteSpace) -> np.ndarray:
    """Apply a channel given by local Kraus matrices; one regrouping round trip.

    In the regrouped frame rho is x of shape (m, m, r^2): row region, column
    region, then the rest. The channel acts either as one GEMM of the m^2 x m^2
    natural matrix with the (m^2, r^2) view of x, or per Kraus operator as
    K-bar applied to the (m, r^2) slices of K @ x (Watrous, The Theory of
    Quantum Information, 2018, sec. 2.2); `_liouville_pays` picks the form.
    """
    x = hilbert.to_blocks(rho, support, space)
    m, _, r2 = x.shape
    if _liouville_pays(m, len(kraus), rho.shape[0]):
        s = sum(np.kron(k, k.conj()) for k in kraus)
        out = s @ x.reshape(m * m, r2)
    else:
        out = _kraus_blocks(x, kraus)
    return hilbert.from_blocks(out, support, space)


def _kraus_blocks(x: np.ndarray, kraus) -> np.ndarray:
    """sum_k K-bar applied to the (m, r^2) slices of K @ x, for x of shape (m, m, r^2).

    One K @ x buffer and one term buffer serve every Kraus operator: a fresh
    D x D temporary per operator costs a page fault per 4 KiB touched.
    """
    m, _, r2 = x.shape
    x = x.reshape(m, m * r2)
    y = np.empty_like(x)
    out = np.empty((m, m, r2), dtype=complex)
    term = None
    for i, k in enumerate(kraus):
        np.matmul(k, x, out=y)
        if i == 0:
            np.matmul(k.conj(), y.reshape(m, m, r2), out=out)
        else:
            term = np.matmul(k.conj(), y.reshape(m, m, r2), out=term)
            out += term
    return out


def apply(ch: Channel, rho: np.ndarray, space: MultipartiteSpace) -> np.ndarray:
    if not isinstance(ch, Channel):
        raise ChannelError("permutation steps are applied only by `run`")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (space.total_dim, space.total_dim):
        raise ChannelError("density matrix does not match the space")
    if space.dim_of(ch.support) != ch.local_dim:
        raise ChannelError("channel support does not match the space")
    if len(ch.support) == space.n_subsystems:
        out = np.zeros_like(rho)
        for k in ch.kraus:
            out += k @ rho @ dagger(k)
        return out
    return _apply_local(rho, ch.kraus, ch.support, space)


def apply_to_pure(ch: Channel, psi: np.ndarray, space: MultipartiteSpace) -> list[np.ndarray]:
    """Images K_i |psi>; the output state is sum_i |v_i><v_i|."""
    if not isinstance(ch, Channel):
        raise ChannelError("permutation steps are applied only by `run`")
    psi = np.asarray(psi, dtype=complex)
    if len(ch.support) == space.n_subsystems:
        return [k @ psi for k in ch.kraus]
    pp = hilbert.to_front(psi, ch.support, space)
    return [hilbert.from_front(k @ pp, ch.support, space) for k in ch.kraus]


def _monomial_forms(ch: Channel, b: np.ndarray, space: MultipartiteSpace):
    """Each Kraus operator of `ch` in the frame b, B^H K B, as (rows, cols, vals)
    with B^H K B = sum_j vals[j] |rows[j]><cols[j]|, plus the largest entry
    left off that pattern. Raises ChannelError unless every operator is
    monomial (at most one entry above `DEFAULT_TOL.frame` per row and per
    column) with nothing above it left over."""
    tol = DEFAULT_TOL.frame
    if space.dim_of(ch.support) != ch.local_dim:
        raise ChannelError("channel support does not match the space")
    forms = []
    defect = 0.0
    for k in ch.kraus:
        kf = dagger(b) @ hilbert.act(k, ch.support, b, space)
        cols = np.arange(kf.shape[1])
        rows = np.argmax(np.abs(kf), axis=0)
        vals = kf[rows, cols]
        keep = np.abs(vals) > tol
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if np.unique(rows).size != rows.size:
            raise ChannelError(f"channel {ch.label!r} is not monomial in the frame: a row holds two entries")
        kf[rows, cols] = 0.0
        defect = max(defect, float(np.max(np.abs(kf))))
        forms.append((rows, cols, vals))
    if defect > tol:
        raise ChannelError(f"channel {ch.label!r} is not monomial in the frame, defect {defect:.3e}")
    return tuple(forms), defect


def _apply_monomial(forms, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    for rows, cols, vals in forms:
        out[np.ix_(rows, rows)] += vals[:, None] * rho[np.ix_(cols, cols)] * vals.conj()
    return out


@dataclass(frozen=True, eq=False)
class Frame:
    """An ordered basis shared by permutation steps: the columns of `basis`.

    The frame caches each channel step's Kraus operators written in it, keyed
    by the channel's content, so a circuit pays the O(D^3) change of basis
    once per distinct channel however often it runs, and a channel loaded
    as several equal objects is written in the frame once.
    """

    basis: np.ndarray
    _forms: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def unitary_defect(self) -> float:
        b = self.basis
        return float(np.max(np.abs(dagger(b) @ b - np.eye(len(b)))))

    def monomial_kraus(self, ch: Channel, space: MultipartiteSpace):
        """(forms, defect) of `ch` in this frame; see `_monomial_forms`."""
        key = (ch.support, space.dims, tuple(k.tobytes() for k in ch.kraus))
        if key not in self._forms:
            self._forms[key] = _monomial_forms(ch, self.basis, space)
        return self._forms[key]


@dataclass(frozen=True, eq=False)
class PermutationStep:
    """The unitary B[:, perm] @ B^H on the frame B, stored as its index array.

    It sends frame vector j to frame vector perm[j]. Its support is the whole
    space and it has no Kraus list; only `run` applies it.
    """

    perm: np.ndarray
    frame: Frame
    support: tuple[int, ...]
    label: str = ""
    kraus: ClassVar[tuple] = ()


def permutation_step(perm, frame: Frame, space: MultipartiteSpace, label: str = "") -> PermutationStep:
    perm = np.asarray(perm)
    d = space.total_dim
    if frame.basis.shape != (d, d):
        raise ChannelError("frame does not match the space")
    if perm.dtype.kind not in "iu" or perm.shape != (d,) or not np.array_equal(np.sort(perm), np.arange(d)):
        raise ChannelError(f"not a permutation of 0..{d - 1}")
    return PermutationStep(perm, frame, tuple(range(space.n_subsystems)), label)


@dataclass(frozen=True)
class Circuit:
    steps: tuple[Channel | PermutationStep, ...]
    space: MultipartiteSpace

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def frame(self) -> Frame | None:
        """The frame of the permutation steps; None if there are none."""
        frames = {s.frame for s in self.steps if isinstance(s, PermutationStep)}
        if len(frames) > 1:
            raise ChannelError("permutation steps use more than one frame")
        return next(iter(frames), None)


def frame_defect(circuit: Circuit) -> float | None:
    """Worst defect of the framed-run preconditions; None without a frame.

    The frame must be unitary and every channel step monomial in it, each to
    `DEFAULT_TOL.frame`, or ChannelError is raised.
    """
    frame = circuit.frame
    if frame is None:
        return None
    defect = frame.unitary_defect
    if defect > DEFAULT_TOL.frame:
        raise ChannelError(f"frame is not unitary, defect {defect:.3e}")
    for step in circuit.steps:
        if isinstance(step, Channel):
            defect = max(defect, frame.monomial_kraus(step, circuit.space)[1])
    return defect


@dataclass(frozen=True)
class TrajectoryPoint:
    step: int
    rank: int
    trace_distance: float | None


def occupied(rho: np.ndarray) -> np.ndarray:
    """Indices whose row or column of rho holds a nonzero entry."""
    nz = rho != 0
    return np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))


def state_rank(rho: np.ndarray, rtol: float = DEFAULT_TOL.rank_rtol) -> int:
    """Rank under the package rule, cut at the full shape of rho.

    The eigenvalues come from the block on the occupied indices; the rest of
    the spectrum is exactly zero.
    """
    s = occupied(rho)
    ev = np.linalg.eigvalsh(rho[np.ix_(s, s)])
    return rank_cutoff(np.abs(ev[::-1]), rho.shape, rtol)


def run(
    circuit: Circuit,
    rho0: np.ndarray,
    target: np.ndarray | None = None,
    record: bool = True,
) -> tuple[np.ndarray, list[TrajectoryPoint]]:
    """Apply the circuit steps in order; returns final state and trajectory.

    A circuit with permutation steps runs in their frame B: the state is
    rotated in once, permutation steps reindex it, and channel steps act
    through their monomial frame forms, each at O(D^2). Rank and trace
    distance are unitarily invariant, so the trajectory is computed in the
    frame.

    Each point works on the occupied set S of the state (`occupied`): the
    framed state is exactly zero off S, which shrinks with every cooling
    round. The rank is that of rho[S, S] cut at the full shape, the distance
    to the pure target t is `trace_distance_to_pure_on` over S, and the final
    state is rotated out as B[:, S] rho[S, S] B[:, S]^H. Without a frame, or
    with S every index, these are the dense D x D computations.

    With `record` the trajectory holds a point per step and one for the
    input; without it, only the final point when a target is given, and
    nothing otherwise.
    """
    rho = np.asarray(rho0, dtype=complex)
    space = circuit.space
    if rho.shape != (space.total_dim, space.total_dim):
        raise ChannelError("density matrix does not match the space")
    frame = circuit.frame
    if frame is not None:
        frame_defect(circuit)
        b = frame.basis
        rho = dagger(b) @ rho @ b
        if target is not None:
            target = dagger(b) @ target

    def point(t, r):
        dist = None
        if target is not None:
            s = occupied(r)
            dist = trace_distance_to_pure_on(r[np.ix_(s, s)], s, target)
        return TrajectoryPoint(t, state_rank(r), dist)

    def step(ch, r):
        if isinstance(ch, PermutationStep):
            inv = np.argsort(ch.perm)
            return r[np.ix_(inv, inv)]
        if frame is not None:
            return _apply_monomial(frame.monomial_kraus(ch, space)[0], r)
        return apply(ch, r, space)

    traj = []
    if record:
        traj.append(point(0, rho))
    for t, ch in enumerate(circuit.steps, start=1):
        rho = step(ch, rho)
        if record:
            traj.append(point(t, rho))
    if target is not None and not record:
        traj.append(point(len(circuit.steps), rho))
    if frame is not None:
        s = occupied(rho)
        bs = b[:, s]
        rho = bs @ rho[np.ix_(s, s)] @ dagger(bs)
    return rho, traj


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    defect: float


def check_invariance(
    ch: Channel,
    psi: np.ndarray,
    space: MultipartiteSpace,
    tol: float = DEFAULT_TOL.invariance,
) -> InvarianceReport:
    """Trace distance between E(|psi><psi|) and |psi><psi|.

    Computed inside the low-dimensional span of {psi, K_i psi}, so it stays
    cheap even for large total dimension.
    """
    psi = np.asarray(psi, dtype=complex)
    images = apply_to_pure(ch, psi, space)
    vecs = [psi] + images
    gram_basis = np.stack(vecs, axis=1)
    q, r = np.linalg.qr(gram_basis)
    # coordinates of psi and images in the span
    coords = r
    rho_out = sum(
        np.outer(coords[:, i + 1], coords[:, i + 1].conj()) for i in range(len(images))
    )
    rho_in = np.outer(coords[:, 0], coords[:, 0].conj())
    defect = trace_distance(rho_out, rho_in)
    return InvarianceReport(ok=defect < tol, defect=defect)


def kraus_support(
    ch: Channel,
    space: MultipartiteSpace,
    tol: float = 1e-9,
) -> tuple[int, ...]:
    """Smallest region R such that every Kraus operator is (M on R) tensor I."""
    sup = list(ch.support)
    sub_space = MultipartiteSpace([space.dims[i] for i in sup])
    keep: list[int] = []
    for pos, g in enumerate(sup):
        d_i = space.dims[g]
        trivially = True
        for k in ch.kraus:
            kt = hilbert.to_front(k, [pos], sub_space, sides=2)
            t = np.trace(kt, axis1=0, axis2=2) / d_i
            recon = np.eye(d_i)[:, None, :, None] * t[None, :, None, :]
            if np.max(np.abs(kt - recon)) > tol * max(1.0, np.max(np.abs(k))):
                trivially = False
                break
        if not trivially:
            keep.append(g)
    return tuple(keep)


def restrict_to_support(ch: Channel, space: MultipartiteSpace, tol: float = 1e-9) -> Channel:
    """Shrink the declared support to the actual Kraus support."""
    actual = kraus_support(ch, space, tol)
    if actual == tuple(ch.support):
        return ch
    if not actual:
        # proportional to identity on everything; keep one site for bookkeeping
        actual = (ch.support[0],)
    sup = list(ch.support)
    sub_space = MultipartiteSpace([space.dims[i] for i in sup])
    pos_keep = [sup.index(g) for g in actual]
    new_kraus = [
        hilbert.to_front(k, pos_keep, sub_space, sides=2)[:, 0, :, 0].copy() for k in ch.kraus
    ]
    return make_channel(new_kraus, actual, label=ch.label)


def superoperator(ch: Channel, space: MultipartiteSpace, max_side: int = 4096) -> np.ndarray:
    """Dense matrix of the map in the row-major vectorized basis.

    The matrix has side D^2; more than `max_side` raises CapExceeded before
    anything is allocated.
    """
    d = space.total_dim
    if d * d > max_side:
        raise CapExceeded(f"superoperator side {d * d} exceeds cap {max_side}")
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus:
        kg = k if len(ch.support) == space.n_subsystems else hilbert.embed(
            hilbert.RegionOperator(k, ch.support), space
        )
        s += np.kron(kg, kg.conj())
    return s

