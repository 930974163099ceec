"""CPTP maps in Kraus form with a declared support region.

Channels store local Kraus matrices; embedding into the full space happens
lazily at application time, which keeps memory at the local dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import hilbert
from ._linalg import (  # noqa: F401  (CapExceeded is re-exported)
    DEFAULT_TOL,
    CapExceeded,
    check_budget,
    dagger,
    diagonal_distance_to_pure_on,
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

    @cached_property
    def real_kraus(self) -> tuple[np.ndarray, ...] | None:
        """The Kraus operators as float64 matrices when every imaginary part
        is exactly zero, else None; decided once, with no tolerance, and kept
        with the channel. `apply` runs a real channel in real arithmetic."""
        if any(np.any(np.imag(k)) for k in self.kraus):
            return None
        return tuple(np.ascontiguousarray(np.real(k), dtype=float) for k in self.kraus)

    @cached_property
    def natural(self) -> np.ndarray:
        """The natural matrix S = sum K (x) K-bar on the support (`_natural`),
        built on first use and kept with the channel; float64 for a real
        channel."""
        return _natural(self.real_kraus or self.kraus, self.local_dim, len(self.kraus))

    @cached_property
    def factor_memo(self) -> dict:
        """The operator Schmidt factors of the Kraus operators across an
        overlap, with their owners, kept with the channel: filled and read by
        `rfts._channel_factors`, keyed by the overlap's positions in the
        support and the dims of the support's sites."""
        return {}


def make_channel(kraus, support, label: str = "") -> Channel:
    kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
    if not kraus:
        raise ChannelError("no Kraus operators")
    m = kraus[0].shape[0]
    for k in kraus:
        if k.ndim != 2 or k.shape != (m, m):
            raise ChannelError("Kraus operators must be square and equally sized")
    ch = Channel(kraus=kraus, support=tuple(sorted(int(i) for i in support)), label=label)
    defect = ch.tp_defect()
    if defect > DEFAULT_TOL.trace_preserving:
        raise ChannelError(f"trace preservation violated, defect {defect:.3e}")
    return ch


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


# Byte budget of stacked work: a stack of N complex D x D states pushed
# through `apply` at once (`stack_size`: the inputs of
# `rfts.verify_robustness`, the times of `mixing`'s eta samples), and a chunk
# of `rfts._partial_commutator_norms`. A single state above it (D >= 363) is
# applied alone.
STACK_MAX_BYTES = 2 << 20


def stack_size(d: int) -> int:
    """How many D x D complex states fit in `STACK_MAX_BYTES`, at least 1."""
    return max(1, STACK_MAX_BYTES // (16 * d * d))


def _liouville_pays(m: int, n_kraus: int, d: int) -> bool:
    """Whether `_apply_local` contracts with the natural matrix S = sum K (x) K-bar.

    Per (m x m) block of the state S costs m^4 flops against 2 K m^3 for the
    Kraus operators one at a time, but it is one GEMM on a matrix cached with
    the channel (`Channel.natural`), where the Kraus form is 2 K smaller
    products. Measured with 1 BLAS thread, per apply of a real 2-Kraus
    channel on a float64 state with a reused `Workspace` (Kraus operators
    against S): on a D = 64 state, m = 4 took 43 against 29 us, m = 8 51
    against 44 us and m = 16 85 against 115 us; on D = 256, 308 against 171,
    360 against 295 and 514 against 1024 us; on D = 512, 2132 against 1041,
    2253 against 1537 and 2835 against 3727 us. So S is used up to twice the
    Kraus form's flops, m <= 4 K, and only when it has no more entries than
    the D x D state.
    """
    return m <= 4 * n_kraus and m * m <= d


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
        del batch
        term = a.T @ a.conj()
        if g is None:
            g = term
        else:
            g += term
        del a, term
    return g.reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)


class Workspace:
    """Scratch arrays that `apply` reuses from one call to the next.

    The local branch takes its regrouped copy, its K @ x buffer, its sum and
    its one term from here (`_apply_local`, `_kraus_blocks`) instead of
    allocating them fresh: a fresh D x D array below numpy's 4 MiB huge-page
    threshold is faulted in 4 KiB at a time on every apply. The regrouped
    copy is one of two state buffers used in turn, and once the product no
    longer reads it the result is written back into it; so a result returned
    with a workspace is a view of the workspace, overwritten by a later apply
    with the same workspace (copy it to keep it), and an input is never
    written. Each buffer holds at most one state stack (N D^2 entries) and is
    grown on first use, so the workspace holds at most `BUFFERS` times the
    largest stack applied; it is freed with the workspace.
    """

    BUFFERS = ("state0", "state1", "kx", "sum", "term")

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._last = 1  # the state buffer written last

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def array(self, name: str, shape, dtype) -> np.ndarray:
        """The buffer `name` as an array of `shape` and `dtype`, grown first
        when it is smaller."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            self._buffers.pop(name, None)  # freed before its successor is allocated
            buf = self._buffers[name] = np.empty(size, dtype=np.uint8)
        return buf[:size].view(dtype).reshape(shape)

    def state(self, rho: np.ndarray) -> np.ndarray:
        """The state buffer not written last, shaped and typed as rho, or the
        other one when that one holds rho; the two are grown together."""
        pair = [self.array(f"state{i}", rho.shape, rho.dtype) for i in (0, 1)]
        turn = 1 - self._last
        if np.may_share_memory(pair[turn], rho):
            turn = self._last
        self._last = turn
        return pair[turn]


def _apply_local(rho: np.ndarray, ch: Channel, space: MultipartiteSpace, work: Workspace | None = None) -> np.ndarray:
    """Apply a channel given by local Kraus matrices; one regrouping round trip.

    In the regrouped frame rho is x of shape (m, m, r^2 N): row region, column
    region, then the rest, whose fastest axis runs over an (N, D, D) stack. The
    channel acts either as one GEMM of its cached m^2 x m^2 natural matrix
    with the (m^2, r^2 N) view of x, or per Kraus operator as K-bar applied
    to the (m, r^2 N) slices of K @ x (Watrous, The Theory of Quantum
    Information, 2018, sec. 2.2); `_liouville_pays` picks the form.

    A real channel acts on the real and imaginary parts of x alike, and
    neither axis it contracts is the last one; so on a complex x it multiplies
    the float64 view of x, whose last axis interleaves the two parts (2 r^2 N
    real columns), at half the flops of the complex products. On a float64 x
    everything is float64.

    With a workspace every buffer comes from it (`Workspace`), and the result
    is written into the regrouped copy's buffer; the operations are the same.
    """
    buf = None if work is None else work.state(rho)
    x = hilbert.to_blocks(rho, ch.support, space, buf)
    kraus = ch.real_kraus
    if kraus is None:
        kraus = ch.kraus
    elif x.dtype == complex:
        x = np.ascontiguousarray(x).view(float)
    m, _, cols = x.shape
    if _liouville_pays(m, len(kraus), space.total_dim):
        out = None if work is None else work.array("sum", (m * m, cols), x.dtype)
        out = np.matmul(ch.natural, x.reshape(m * m, cols), out=out)
    else:
        out = _kraus_blocks(x, kraus, work)
    return hilbert.from_blocks(out.view(rho.dtype), ch.support, space, rho.shape[:-2], out=buf)


def _kraus_blocks(x: np.ndarray, kraus, work: Workspace | None = None) -> np.ndarray:
    """sum_k K-bar applied to the (m, c) slices of K @ x, for x of shape (m, m, c).

    One K @ x buffer and one term buffer serve every Kraus operator: a fresh
    D x D temporary per operator costs a page fault per 4 KiB touched. With a
    workspace those two and the sum are its buffers.
    """
    m, _, r2 = x.shape
    x = x.reshape(m, m * r2)
    if work is None:
        y, out, term = np.empty_like(x), np.empty((m, m, r2), dtype=x.dtype), None
    else:
        y, out = work.array("kx", x.shape, x.dtype), work.array("sum", (m, m, r2), x.dtype)
        term = work.array("term", (m, m, r2), x.dtype) if len(kraus) > 1 else None
    for i, k in enumerate(kraus):
        np.matmul(k, x, out=y)
        if i == 0:
            np.matmul(k.conj(), y.reshape(m, m, r2), out=out)
        else:
            term = np.matmul(k.conj(), y.reshape(m, m, r2), out=term)
            out += term
    return out


def apply(ch: Channel, rho: np.ndarray, space: MultipartiteSpace, work: Workspace | None = None) -> np.ndarray:
    """E(rho) for a D x D operator, or E of each operator of an (N, D, D) stack.

    A stack runs through the same kernel as one operator: the local branch
    regroups it to N times the columns (`hilbert.to_blocks`), and the
    full-support branch's products broadcast over it.

    The arithmetic follows the data. A real channel (`Channel.real_kraus`)
    on a float64 rho runs in float64 and returns float64; every other pair
    returns complex128, rho converted as needed.

    With a `Workspace` the local branch allocates no D x D array: it takes
    its buffers from the workspace and returns its result in one of them, to
    be copied if it must outlive a later apply with the workspace. The
    result is bit for bit the one without. The full-support branch does not
    use it.
    """
    if not isinstance(ch, Channel):
        raise ChannelError("permutation steps are applied only by `run`")
    rho = np.asarray(rho)
    real = rho.dtype == np.float64 and ch.real_kraus is not None
    if not real:
        rho = rho.astype(complex, copy=False)
    d = space.total_dim
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
        raise ChannelError("density matrix does not match the space")
    if space.dim_of(ch.support) != ch.local_dim:
        raise ChannelError("channel support does not match the space")
    if len(ch.support) == space.n_subsystems:
        out = np.zeros_like(rho)
        for k in ch.real_kraus if real else ch.kraus:
            out += k @ rho @ dagger(k)
        return out
    return _apply_local(rho, ch, space, work)


def apply_to_pure(ch: Channel, psi: np.ndarray, space: MultipartiteSpace) -> list[np.ndarray]:
    """Images K_i |psi>; the output state is sum_i |v_i><v_i|."""
    if not isinstance(ch, Channel):
        raise ChannelError("permutation steps are applied only by `run`")
    psi = np.asarray(psi, dtype=complex)
    return [hilbert.act(k, ch.support, psi, space) for k in ch.kraus]


def _monomial_forms(ch: Channel, frame: Frame, space: MultipartiteSpace):
    """Each Kraus operator of `ch` in the frame B, B^H K B, as (rows, cols, vals)
    with B^H K B = sum_j vals[j] |rows[j]><cols[j]|, plus an upper bound on
    the largest entry left off that pattern. Raises ChannelError unless the
    channel acts inside the frame's region and every operator is monomial
    (at most one entry above `DEFAULT_TOL.frame` per row and per column)
    with the bound at most that tolerance.

    The forms come from the frame's factors, never from a D x D basis. With
    K~ the operator on the sorted region, B^H K B = Pi^H Q~^H (M (x) I_R) Q~ Pi
    for the m x m matrix M = L^H K~ L (`Frame`), so M is read once per
    operator (`_region_forms`) and expanded to D entries by index arithmetic
    (`Frame._coords`): O(K m^3 + K D) for K operators.
    """
    tol = DEFAULT_TOL.frame
    if space.dim_of(ch.support) != ch.local_dim:
        raise ChannelError("channel support does not match the space")
    if not set(ch.support) <= set(frame.region):
        raise ChannelError(f"channel {ch.label!r} acts on subsystems {list(ch.support)}, "
                           f"outside the frame region {list(frame.region)}")
    local, sub = relocate(ch, frame.region, space)
    if len(local.support) == sub.n_subsystems:
        kt = np.stack(ch.kraus)
    else:
        kt = np.stack([hilbert.embed(hilbert.RegionOperator(k, local.support), sub) for k in ch.kraus])
    b, v, keep, defect = _region_forms(dagger(frame.local) @ kt @ frame.local, frame, ch.label)
    if defect > tol:
        raise ChannelError(f"channel {ch.label!r} is not monomial in the frame, defect {defect:.3e}")
    index, a_of, rho_of, phase = frame._coords
    forms = []
    for bk, vk, keepk in zip(b, v, keep):
        cols = np.flatnonzero(keepk[a_of])
        a, rho = a_of[cols], rho_of[cols]
        rows = index[bk[a], rho]
        vals = vk[a] if phase is None else vk[a] * phase[cols] * phase[rows].conj()
        forms.append((rows, cols, vals))
    return tuple(forms), defect


def _argmax_pattern(x: np.ndarray, label: str):
    """For a stack x of shape (K, p, q): the row of the largest |entry| of
    each column, and which columns keep it (above `DEFAULT_TOL.frame`), both
    of shape (K, q), plus |x| with the kept entries set to 0. ChannelError
    when two kept columns of one matrix share a row."""
    n, p, q = x.shape
    off = np.abs(x)
    if not off.size:
        return np.zeros((n, q), dtype=np.intp), np.zeros((n, q), dtype=bool), off
    rows = np.argmax(off, axis=1)
    keep = np.take_along_axis(off, rows[:, None, :], axis=1)[:, 0] > DEFAULT_TOL.frame
    k, c = np.nonzero(keep)
    if np.bincount(k * p + rows[k, c], minlength=n * p).max(initial=0) > 1:
        raise ChannelError(f"channel {label!r} is not monomial in the frame: a row holds two entries")
    off[k, rows[k, c], c] = 0.0
    return rows, keep, off


def _region_forms(mk: np.ndarray, frame: Frame, label: str):
    """The monomial patterns of a stack of operators M = L^H K~ L, of shape
    (K, m, m), on the frame's region.

    Returns (b, v, keep, bound), the first three of shape (K, m): region
    coordinate a goes to b[k, a] with value v[k, a] where keep[k, a], and
    bound is at least every entry of every B^H K B off the pattern that
    this sends to the D frame indices.
    - When the Householder factor Q is diagonal (c0 a phase times e_0), B is
      a phased permutation of F (L (x) I_R): the pattern is M's and the bound
      is exact, the largest entry of M off it.
    - Otherwise each s x s block A_ij of the r copy blocks is a_ij I_s plus a
      residual E_ij, a_ij = tr(A_ij) / s. Q commutes with a_ij I and
      Q^H (E_ij (x) I_R) Q is unitarily equivalent to E_ij (x) I_R, so the
      pattern is that of the r x r matrix (a_ij), and an entry of block
      (i, j) is at most ||E_ij||_2, plus |a_ij| off the pattern. The blocks
      between the copies and the remainder must vanish: an entry is at most
      the largest norm of a copy block's part of a column (or of a row).
      The remainder block is not touched by Q; its pattern is its own and
      its bound exact.
    """
    n, m, _ = mk.shape
    if frame._coords[3] is not None:
        b, keep, off = _argmax_pattern(mk, label)
        return b, np.take_along_axis(mk, b[:, None, :], axis=1)[:, 0], keep, float(off.max())
    r, s = frame.copies, frame.schmidt_dim
    rs = r * s
    blocks = mk[:, :rs, :rs].reshape(n, r, s, r, s).transpose(0, 1, 3, 2, 4)
    a = np.trace(blocks, axis1=3, axis2=4) / s
    resid = np.linalg.svd(blocks - a[..., None, None] * np.eye(s), compute_uv=False)[..., 0]
    ci, ckeep, off_a = _argmax_pattern(a, label)
    rem = mk[:, rs:, rs:]
    ri, rkeep, off_rem = _argmax_pattern(rem, label)
    bound = max(
        float(np.max(resid + off_a)),
        float(np.linalg.norm(mk[:, :rs, rs:].reshape(n, r, s, -1), axis=2).max(initial=0.0)),
        float(np.linalg.norm(mk[:, rs:, :rs].reshape(n, -1, r, s), axis=3).max(initial=0.0)),
        float(off_rem.max(initial=0.0)),
    )
    j = np.arange(rs) // s
    b = np.concatenate([ci[:, j] * s + np.arange(rs) % s, rs + ri], axis=1)
    v = np.concatenate([np.take_along_axis(a, ci[:, None, :], axis=1)[:, 0, j],
                        np.take_along_axis(rem, ri[:, None, :], axis=1)[:, 0]], axis=1)
    return b, v, np.concatenate([ckeep[:, j], rkeep], axis=1), bound


def _apply_monomial(forms, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    for rows, cols, vals in forms:
        out[np.ix_(rows, rows)] += vals[:, None] * rho[np.ix_(cols, cols)] * vals.conj()
    return out


@dataclass(frozen=True, eq=False)
class Frame:
    """The ordered basis B of a framed `Circuit`, held as its factors.

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
    `basis` builds the dense B on request; the package never does. A channel
    step on the region is written in the frame from the factors alone: its
    form is fixed by the m x m matrix L^H K L (`_monomial_forms`), at
    O(m^3 + D) per Kraus operator, and its defect is an upper bound on the
    entries off the monomial pattern. The frame caches each channel step's
    forms, keyed by the channel's content, so a circuit pays for them once
    per distinct channel however often it runs, and a channel loaded as
    several equal objects is written in the frame once.

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

    @cached_property
    def _coords(self):
        """Where each column of F (L (x) I_R) lands among the frame vectors.

        Returns (index, a_of, rho_of, phase): index[a, rho] is the frame index
        of region coordinate a and rest index rho, (alpha r + i for copy i of
        entry alpha = (a mod s) R + rho, a R + rho in the remainder), and
        a_of, rho_of invert it. When Q is diagonal (c0 a phase times e_0),
        `phase` holds the entry of Q each frame vector carries, and 1 on the
        remainder; otherwise it is None.
        """
        m = self.local.shape[0]
        rest = self.dim // m
        r, s = self.copies, self.schmidt_dim
        a = np.arange(m)[:, None]
        rho = np.arange(rest)[None, :]
        index = np.where(a < r * s, ((a % s) * rest + rho) * r + a // s, a * rest + rho)
        a_of = np.empty(self.dim, dtype=np.intp)
        rho_of = np.empty(self.dim, dtype=np.intp)
        a_of[index] = a
        rho_of[index] = rho
        if np.any(self.psi_coords[1:]):
            return index, a_of, rho_of, None
        ph, w, scale = self._householder
        phase = np.ones(self.dim, dtype=complex)
        phase[: r * s * rest] = np.repeat(ph * (scale * np.abs(w) ** 2 - 1.0), r)
        return index, a_of, rho_of, phase

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
    """The unitary B[:, perm] @ B^H on the frame B of its circuit, stored as
    its index array.

    It sends frame vector j to frame vector perm[j]. Its support is the whole
    space and it has no Kraus list; only `run` applies it.
    """

    perm: np.ndarray
    support: tuple[int, ...]
    label: str = ""
    kraus: ClassVar[tuple] = ()


def permutation_step(perm, space: MultipartiteSpace, label: str = "") -> PermutationStep:
    perm = np.asarray(perm)
    d = space.total_dim
    if perm.dtype.kind not in "iu" or perm.shape != (d,) or not np.array_equal(np.sort(perm), np.arange(d)):
        raise ChannelError(f"not a permutation of 0..{d - 1}")
    return PermutationStep(perm, tuple(range(space.n_subsystems)), label)


@dataclass(frozen=True)
class Circuit:
    """Steps on `space`, run in order by `run`.

    `frame` is the ordered basis B that the permutation steps index and that
    a framed run (`run_framed`, `run_diagonal`) works in; a circuit with a
    permutation step must have one, and it must be a frame of `space`
    (ChannelError otherwise).
    """

    steps: tuple[Channel | PermutationStep, ...]
    space: MultipartiteSpace
    frame: Frame | None = None

    def __post_init__(self):
        if self.frame is None:
            if any(isinstance(s, PermutationStep) for s in self.steps):
                raise ChannelError("permutation steps need a circuit frame")
        elif self.frame.space != self.space:
            raise ChannelError("frame does not match the space")

    def __len__(self) -> int:
        return len(self.steps)


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
    return _block_rank(rho[np.ix_(s, s)], rho.shape, rtol)


def _block_rank(block: np.ndarray, shape, rtol: float = DEFAULT_TOL.rank_rtol) -> int:
    """Rank of a state that vanishes off `block`, cut at `shape`."""
    ev = np.linalg.eigvalsh(block)
    return rank_cutoff(np.abs(ev[::-1]), shape, rtol)


def diagonal_rank(p: np.ndarray, rtol: float = DEFAULT_TOL.rank_rtol) -> int:
    """Rank of diag(p) under the package rule, cut at (D, D): the eigenvalues
    of a diagonal matrix are its entries, so no eigensolve is needed."""
    return rank_cutoff(np.abs(p[p != 0]), (p.size, p.size), rtol)


def run(
    circuit: Circuit,
    rho0: np.ndarray,
    target: np.ndarray | None = None,
    record: bool = True,
) -> tuple[np.ndarray, list[TrajectoryPoint]]:
    """Apply the circuit steps in order; returns final state and trajectory.

    A circuit with a frame B runs in it: the state is rotated in once, the
    steps act on it there (`run_framed`), and the final state is rotated out
    as B[:, S] rho[S, S] B[:, S]^H, S its occupied set.
    Without a frame the steps act on rho0 as it is. An input that is
    diagonal in B, such as I/D, needs no rotation at all: `run_diagonal`
    runs it as its weight vector.

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
    rho, traj = run_framed(circuit, rho, target, record)
    if frame is not None:
        s = occupied(rho)
        rho = frame.rotate_out(rho[np.ix_(s, s)], s)
    return rho, traj


def _walk(circuit: Circuit, state, step, point, final_point: bool, record: bool):
    """The step loop that `run_framed` and `run_diagonal` share: `step(st, state)`
    applies one circuit step, `point(t, state)` evaluates a trajectory point.
    With `record` every point is taken; otherwise only the final one, and
    only with `final_point`."""
    traj = [point(0, state)] if record else []
    for t, st in enumerate(circuit.steps, start=1):
        state = step(st, state)
        if record:
            traj.append(point(t, state))
    if final_point and not record:
        traj.append(point(len(circuit.steps), state))
    return state, traj


def run_framed(
    circuit: Circuit,
    rho: np.ndarray,
    target: np.ndarray | None = None,
    record: bool = True,
) -> tuple[np.ndarray, list[TrajectoryPoint]]:
    """The steps of `run` on a state and target already written in the
    circuit's frame B (B^H rho B and B^H target); returns the framed final
    state and the trajectory, which `run` documents. Without a frame, B is
    the identity. The caller checks `frame_defect`, as `run` does.

    Permutation steps reindex the state, and channel steps act through their
    monomial frame forms, each at O(D^2). Rank and trace distance are
    unitarily invariant, so the trajectory is computed in the frame. Each
    point scans the state once for its occupied set S (`occupied`): the
    framed state is exactly zero off S, which shrinks with every cooling
    round. The rank is that of the block rho[S, S] cut at the full shape,
    and the distance to the pure target t is `trace_distance_to_pure_on` of
    the same block: two eigensolves of at most |S| + 1 rows. Without a
    frame, or with S every index, these are the dense D x D computations.
    One `eigh` of the block would give both, the distance from the secular
    equation of diag(ev) less the rank-one term of V^H t[S]
    (`diagonal_distance_to_pure_on`), but with 1 BLAS thread an `eigh` with
    vectors of a 729 x 729 complex block took 0.60 s against 0.19 s for
    `eigvalsh`, so the two value-only solves are the cheaper pair.
    """
    space = circuit.space
    frame = circuit.frame

    def point(t, r):
        s = occupied(r)
        block = r[np.ix_(s, s)]
        dist = None if target is None else trace_distance_to_pure_on(block, s, target)
        return TrajectoryPoint(t, _block_rank(block, r.shape), dist)

    def step(ch, r):
        if isinstance(ch, PermutationStep):
            inv = np.argsort(ch.perm)
            return r[np.ix_(inv, inv)]
        if frame is not None:
            return _apply_monomial(frame.monomial_kraus(ch, space)[0], r)
        return apply(ch, r, space)

    return _walk(circuit, rho, step, point, target is not None, record)


def run_diagonal(
    circuit: Circuit,
    p: np.ndarray,
    target: np.ndarray | None = None,
    record: bool = True,
) -> tuple[np.ndarray, list[TrajectoryPoint]]:
    """`run_framed` on the framed state diag(p), held as its weight vector p.

    A monomial channel step maps a state diagonal in the frame B to one
    diagonal in B, and a permutation step reindexes it; so every input
    diagonal in B, I/D among them, stays diagonal, and each step is one
    `diagonal_step` on p, at O(D) with no D x D state, `rotate_in` or
    `rotate_out`; `flatnonzero(p)` is the occupied set of the framed state.
    Each point takes the rank from p over that set
    S (`diagonal_rank`) and the distance to the framed target B^H psi from
    the secular equation of diag(p[S]) less a rank-one term
    (`diagonal_distance_to_pure_on`), at O(|S|) per bisection step and with
    no eigensolve. Returns the final p and the trajectory, which `run`
    documents.
    The circuit must have a frame; the caller checks `frame_defect`.
    """
    frame = circuit.frame
    if frame is None:
        raise ChannelError("a diagonal run needs a circuit with a frame")
    p = np.asarray(p, dtype=float)
    if p.shape != (circuit.space.total_dim,):
        raise ChannelError("weight vector does not match the space")

    def point(t, w):
        s = np.flatnonzero(w)
        dist = None if target is None else diagonal_distance_to_pure_on(w[s], s, target)
        return TrajectoryPoint(t, diagonal_rank(w), dist)

    return _walk(circuit, p, lambda st, w: diagonal_step(st, w, frame), point, target is not None, record)


def diagonal_step(step: Channel | PermutationStep, w: np.ndarray, frame: Frame) -> np.ndarray:
    """One step on the framed state diag(w), held as its weight vector w: a
    permutation step reindexes w, and a channel step sums out[rows] +=
    |vals|^2 w[cols] over its forms (`Frame.monomial_kraus`). With
    |vals| > `DEFAULT_TOL.frame`, the support of the output is the image of
    that of w exactly."""
    if isinstance(step, PermutationStep):
        return w[np.argsort(step.perm)]
    out = np.zeros(w.size)
    for rows, cols, vals in frame.monomial_kraus(step, frame.space)[0]:
        out[rows] += (vals * vals.conj()).real * w[cols]
    return out


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


def superoperator(ch: Channel, space: MultipartiteSpace) -> np.ndarray:
    """Dense matrix of the map in the row-major vectorized basis.

    The matrix has side D^2. It is the natural matrix of the embedded Kraus
    operators (`_natural`), embedded and stacked D^2 at a time, so the stack
    never holds more entries than the D^4 output. Counting four such arrays
    (the output, the chunk stack, its conjugate and the product term), it
    raises CapExceeded past `_linalg.MAX_BYTES` (D > 64) before allocating.
    """
    d = space.total_dim
    check_budget(4 * 16 * d**4, f"superoperator of side {d * d}")
    if len(ch.support) == space.n_subsystems:
        mats = iter(ch.kraus)
    else:
        mats = (hilbert.embed(hilbert.RegionOperator(k, ch.support), space) for k in ch.kraus)
    return _natural(mats, d, d * d)
