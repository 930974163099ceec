"""CPTP maps in Kraus form with a declared support region.

Channels store local Kraus matrices; embedding into the full space happens
lazily at application time, which keeps memory at the local dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import hilbert
from ._linalg import (
    DEFAULT_TOL,
    dagger,
    frob,
    kron_all,
    orthonormal_columns,
    rank_cutoff,
    trace_distance,
    trace_distance_to_pure_on,
)
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


def relocate(ch: Channel, sites, space: MultipartiteSpace) -> tuple[Channel, MultipartiteSpace]:
    """`ch` on the space of the sorted `sites` alone, which must hold its
    support: the channel with its support renumbered into `sites`, and that
    space."""
    sites = sorted(sites)
    pos = {g: p for p, g in enumerate(sites)}
    local = Channel(kraus=ch.kraus, support=tuple(pos[g] for g in ch.support), label=ch.label)
    return local, MultipartiteSpace([space.dims[i] for i in sites])


def compose(second: Channel, first: Channel, space: MultipartiteSpace, label: str = "") -> Channel:
    """Channel applying `first` then `second`, on the union support.

    A product b a of their Kraus operators that vanishes (Frobenius norm at
    most `DEFAULT_TOL.rank_rtol`) is dropped.
    """
    union = tuple(sorted(set(second.support) | set(first.support)))

    def lift(ch: Channel) -> list[np.ndarray]:
        local, sub = relocate(ch, union, space)
        if len(local.support) == len(union):
            return list(ch.kraus)
        return [hilbert.embed(hilbert.RegionOperator(k, local.support), sub) for k in ch.kraus]

    ka = lift(first)
    prod = (b @ a for b in lift(second) for a in ka)
    live = [k for k in prod if frob(k) > DEFAULT_TOL.rank_rtol]
    return make_channel(live, union, label=label or f"{second.label}*{first.label}")


def _reinjection_channel(w: np.ndarray, position: int) -> Channel:
    """Uniform re-injection into the range of the isometry w (d x r) on one
    site: Kraus w w^H and w[:, b] q_a^H / sqrt(r), q_a an orthonormal basis of
    the complement."""
    d, r = w.shape
    p = w @ dagger(w)
    q = orthonormal_columns(np.eye(d, dtype=complex) - p)
    kraus = [p] + [np.outer(w[:, b], q[:, a].conj()) / np.sqrt(r) for a in range(q.shape[1]) for b in range(r)]
    return make_channel(kraus, [position])


def factor_reset_channel(state, factors, virtual_dims, g, isometries, support, label: str) -> Channel:
    """The neighbourhood map of a virtual-subsystem factorization.

    On the sites of `support`, w_i = `isometries[i]` (d_i x r_i) spans the
    local support of site i, and the unitary g maps the virtual space, the
    tensor product of `virtual_dims`, onto the tensor product of the r_i. The
    map first re-injects the weight off each w_i uniformly into it
    (`_reinjection_channel`). Then, through V = (tensor of w_i) g, it resets
    the virtual factors at the sorted positions `factors` to `state` (a
    vector or a density matrix), with the Kraus operators V (K (x) I) V^H for
    the K of `reset_channel`, and acts as identity on the other factors.
    I - V V^H is added when V is not square. Products that vanish are
    dropped (`compose`).
    """
    v = kron_all(list(isometries)) @ g
    virtual = MultipartiteSpace(virtual_dims)
    kraus = [
        v @ hilbert.embed(hilbert.RegionOperator(k, factors), virtual) @ dagger(v)
        for k in reset_channel(state, factors).kraus
    ]
    if v.shape[0] != v.shape[1]:
        kraus.append(np.eye(v.shape[0], dtype=complex) - v @ dagger(v))
    sites = MultipartiteSpace([w.shape[0] for w in isometries])
    out = make_channel(kraus, range(len(isometries)))
    for pos, w in enumerate(isometries):
        if w.shape[0] != w.shape[1]:
            out = compose(out, _reinjection_channel(w, pos), sites)
    return make_channel(out.kraus, support, label=label)


# Byte budget of the stacked state work: a stack of N states pushed through
# `apply` at once, and the branch states `rfts.verify_robustness` holds for
# its prefix walk, stay under it together. A single state above it (D >= 363)
# is applied alone and nothing is held.
STACK_MAX_BYTES = 2 << 20


def stack_size(d: int) -> int:
    """How many D x D complex states fit in `STACK_MAX_BYTES`, at least 1."""
    return max(1, STACK_MAX_BYTES // (16 * d * d))


def _liouville_pays(m: int, n_kraus: int, d: int) -> bool:
    """Whether `_apply_local` contracts with the natural matrix S = sum K (x) K-bar.

    Per (m x m) block of the state S costs m^4 flops against 2 K m^3 for the
    Kraus operators one at a time; S is used when that is fewer and it has no
    more entries than the D x D state.
    """
    return m < 2 * n_kraus and m * m <= d


def _natural(mats, m: int, chunk: int) -> np.ndarray:
    """sum_k K_k (x) K_k-bar over an iterable of m x m matrices.

    With the matrices taken `chunk` at a time as the rows a_k = vec(K_k) of A,
    A^T conj(A) holds the sum with its indices ordered (i, k, j, l); one axis
    reorder gives the natural matrix, indexed ((i, j), (k, l)).
    """
    it = iter(mats)
    g = None
    while batch := list(itertools.islice(it, chunk)):
        a = np.stack(batch).reshape(len(batch), m * m)
        term = a.T @ a.conj()
        if g is None:
            g = term
        else:
            g += term
        del a, term
    return g.reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)


def _apply_local(rho: np.ndarray, kraus, support, space: MultipartiteSpace) -> np.ndarray:
    """Apply a channel given by local Kraus matrices; one regrouping round trip.

    In the regrouped frame rho is x of shape (m, m, r^2 N): row region, column
    region, then the rest, whose fastest axis runs over an (N, D, D) stack. The
    channel acts either as one GEMM of the m^2 x m^2 natural matrix with the
    (m^2, r^2 N) view of x, or per Kraus operator as K-bar applied to the
    (m, r^2 N) slices of K @ x (Watrous, The Theory of Quantum Information,
    2018, sec. 2.2); `_liouville_pays` picks the form.
    """
    x = hilbert.to_blocks(rho, support, space)
    m, _, cols = x.shape
    if _liouville_pays(m, len(kraus), space.total_dim):
        out = _natural(kraus, m, len(kraus)) @ x.reshape(m * m, cols)
    else:
        out = _kraus_blocks(x, kraus)
    return hilbert.from_blocks(out, support, space, rho.shape[:-2])


def _kraus_blocks(x: np.ndarray, kraus) -> np.ndarray:
    """sum_k K-bar applied to the (m, c) slices of K @ x, for x of shape (m, m, c).

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
    """E(rho) for a D x D operator, or E of each operator of an (N, D, D) stack.

    A stack runs through the same kernel as one operator: the local branch
    regroups it to N times the columns (`hilbert.to_blocks`), and the
    full-support branch's products broadcast over it.
    """
    if not isinstance(ch, Channel):
        raise ChannelError("permutation steps are applied only by `run`")
    rho = np.asarray(rho, dtype=complex)
    d = space.total_dim
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
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


def _monomial_forms(ch: Channel, frame: Frame, space: MultipartiteSpace):
    """Each Kraus operator of `ch` in the frame B, B^H K B, as (rows, cols, vals)
    with B^H K B = sum_j vals[j] |rows[j]><cols[j]|, plus the largest entry
    left off that pattern. Raises ChannelError unless every operator is
    monomial (at most one entry above `DEFAULT_TOL.frame` per row and per
    column) with nothing above it left over.

    B is built once; each operator then costs O(D^2 (m + m_K)): K on its
    support applied to B, and the factored B^H (`Frame.apply`)."""
    tol = DEFAULT_TOL.frame
    if space.dim_of(ch.support) != ch.local_dim:
        raise ChannelError("channel support does not match the space")
    b = frame.basis
    forms = []
    defect = 0.0
    for k in ch.kraus:
        kf = frame.apply(hilbert.act(k, ch.support, b, space), adjoint=True)
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
    """An ordered basis B shared by permutation steps, held as its factors.

    With m = dim(region), R = D / m and n = s R (s = `schmidt_dim`,
    r = `copies`, r s <= m), B is the product of
    - the interleaving that sends column alpha r + i (alpha < n, i < r) to
      entry alpha of copy block i, the first r n coordinates taken as r
      blocks of n, and keeps the last (m - r s) R columns in place;
    - Q on each copy block, identity on the rest. Q = -phi H is a Householder
      reflection H = I - 2 w w^H / w^H w with w = e_0 + conj(phi) c0, times
      a phase, where c0 = `psi_coords` and phi is the phase of c0[0]. So
      Q e_0 = c0; w[0] >= 1, so nothing cancels, also when c0 is a phase
      times e_0;
    - L (x) I_R, with L = `local` the m x m unitary whose columns are the
      Schmidt span, its r - 1 copies, then the remainder;
    - the regrouping that puts the sorted region's factors first
      (`hilbert.from_front`).
    Column 0 is (L[:, :s] c0 reshaped to (s, R)) regrouped: the target.

    `apply` multiplies a (D,) or (D, N) stack by B or B^H at O(D N m), and
    `basis` builds the dense B on request. The frame caches each channel
    step's Kraus operators written in it, keyed by the channel's content, so
    a circuit pays the change of basis once per distinct channel however
    often it runs, and a channel loaded as several equal objects is written
    in the frame once.

    The constructor checks shapes and counts (ChannelError); unitarity is
    `unitary_defect`, which `frame_defect` checks before a run.
    """

    space: MultipartiteSpace
    region: tuple[int, ...]
    local: np.ndarray
    copies: int
    schmidt_dim: int
    psi_coords: np.ndarray
    _forms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        region = tuple(sorted(int(i) for i in self.region))
        n_sub = self.space.n_subsystems
        if not region or len(set(region)) != len(region) or not all(0 <= i < n_sub for i in region):
            raise ChannelError(f"frame region must list distinct subsystems in 0..{n_sub - 1}, got {region}")
        m = self.space.dim_of(region)
        local = np.asarray(self.local, dtype=complex)
        if local.shape != (m, m):
            raise ChannelError(f"frame local unitary must be {m} x {m}, got shape {local.shape}")
        r, s = self.copies, self.schmidt_dim
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1 for v in (r, s)):
            raise ChannelError(f"frame copies and schmidt_dim must be positive integers, got {r!r}, {s!r}")
        if r * s > m:
            raise ChannelError(f"frame needs copies * schmidt_dim <= {m}, got {r} * {s}")
        c0 = np.asarray(self.psi_coords, dtype=complex)
        n = s * (self.space.total_dim // m)
        if c0.shape != (n,):
            raise ChannelError(f"frame psi_coords must have length {n}, got shape {c0.shape}")
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "local", local)
        object.__setattr__(self, "copies", int(r))
        object.__setattr__(self, "schmidt_dim", int(s))
        object.__setattr__(self, "psi_coords", c0)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    @cached_property
    def unitary_defect(self) -> float:
        """Unitarity defect of L plus |norm(c0) - 1|; the other factors are
        exactly unitary."""
        m = self.local.shape[0]
        defect = np.max(np.abs(dagger(self.local) @ self.local - np.eye(m)))
        return float(defect + abs(np.linalg.norm(self.psi_coords) - 1.0))

    @cached_property
    def _householder(self):
        c0 = self.psi_coords
        a = abs(c0[0])
        phase = c0[0] / a if a > 0 else 1.0 + 0j
        w = np.conj(phase) * c0
        w[0] += 1.0
        return phase, w, 2.0 / np.vdot(w, w).real

    def _reflect(self, z: np.ndarray, out: np.ndarray, adjoint: bool) -> None:
        """out = Q z, or Q^H z, on each copy block: z and out of shape (r, n, N),
        either of them possibly a strided view. Q z = phi (w (w^H z) scale - z)."""
        phase, w, scale = self._householder
        coef = (scale * w.conj()) @ z
        np.multiply(w[:, None], coef[:, None, :], out=out)
        out -= z
        if phase != 1:
            out *= np.conj(phase) if adjoint else phase

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """B @ x, or B^H @ x with `adjoint`, for x of shape (D,) or (D, N)."""
        x = np.asarray(x, dtype=complex)
        vec = x.ndim == 1
        if vec:
            x = x[:, None]
        d, k = x.shape
        if d != self.dim:
            raise ChannelError(f"frame of dimension {self.dim} applied to {d} rows")
        m = self.local.shape[0]
        rest = d // m
        r, n = self.copies, self.schmidt_dim * rest
        cut = r * n
        # rows alpha r + i of the frame side are entry alpha of copy block i
        if adjoint:
            y = dagger(self.local) @ hilbert.to_front(x, self.region, self.space).reshape(m, rest * k)
            y = y.reshape(d, k)
            out = np.empty((d, k), dtype=complex)
            self._reflect(y[:cut].reshape(r, n, k), out[:cut].reshape(n, r, k).transpose(1, 0, 2), True)
            out[cut:] = y[cut:]
        else:
            y = np.empty((d, k), dtype=complex)
            self._reflect(x[:cut].reshape(n, r, k).transpose(1, 0, 2), y[:cut].reshape(r, n, k), False)
            y[cut:] = x[cut:]
            y = (self.local @ y.reshape(m, rest * k)).reshape(m, rest, k)
            out = hilbert.from_front(y, self.region, self.space)
        return out[:, 0] if vec else out

    @property
    def basis(self) -> np.ndarray:
        """The dense D x D matrix B, built on each request."""
        return self.apply(np.eye(self.dim, dtype=complex))

    def rotate_in(self, rho: np.ndarray) -> np.ndarray:
        """B^H rho B, as two factored B^H products: B^H (B^H rho)^H, conjugate-transposed."""
        z = self.apply(rho, adjoint=True)
        z = self.apply(np.conjugate(z, out=z).T, adjoint=True)
        return np.conjugate(z, out=z).T

    def rotate_out(self, block: np.ndarray, s: np.ndarray) -> np.ndarray:
        """B[:, s] block B[:, s]^H for the block of a framed state on indices s,
        as two factored B products at O(D^2 m): B (B E_s block)^H, conjugate-transposed."""
        d = self.dim
        e = np.zeros((d, s.size), dtype=complex)
        e[s] = block
        f = np.zeros((d, d), dtype=complex)
        f[s] = dagger(self.apply(e))
        return dagger(self.apply(f))

    def monomial_kraus(self, ch: Channel, space: MultipartiteSpace):
        """(forms, defect) of `ch` in this frame; see `_monomial_forms`."""
        key = (ch.support, space.dims, tuple(k.tobytes() for k in ch.kraus))
        if key not in self._forms:
            self._forms[key] = _monomial_forms(ch, self, space)
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
    if frame.space != space:
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
        rho = frame.rotate_in(rho)
        if target is not None:
            target = frame.apply(target, adjoint=True)

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
        rho = frame.rotate_out(rho[np.ix_(s, s)], s)
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
    anything is allocated. It is the natural matrix of the embedded Kraus
    operators (`_natural`), embedded and stacked D^2 at a time, so the stack
    never holds more entries than the D^4 output.
    """
    d = space.total_dim
    if d * d > max_side:
        raise CapExceeded(f"superoperator side {d * d} exceeds cap {max_side}")
    if len(ch.support) == space.n_subsystems:
        mats = iter(ch.kraus)
    else:
        mats = (hilbert.embed(hilbert.RegionOperator(k, ch.support), space) for k in ch.kraus)
    return _natural(mats, d, d * d)
