"""Shared dense linear-algebra helpers.

Everything here operates on plain numpy arrays; tolerances follow the
package-wide conventions (see `Tolerances`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# numpy >= 2 loads these on first use (`np.random.default_rng`, and
# `np.unique` through `np.ma.is_masked`); loading them with the package keeps
# that cost out of the first call that draws or takes a unique.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401


@dataclass(frozen=True)
class Tolerances:
    """Package-wide numerical tolerances.

    rank_rtol is the relative singular-value cutoff: sigma counts as nonzero
    iff sigma > rank_rtol * sigma_max * max(rows, cols). frame bounds the
    unitarity defect of a circuit frame and the defect of a channel's Kraus
    operators written in that frame: an upper bound, read from the frame's
    factors (`channels._monomial_forms`), on every entry off their
    monomial pattern.
    """

    rank_rtol: float = 1e-10
    intersect_eig: float = 1e-9
    trace_preserving: float = 1e-9
    invariance: float = 1e-9
    closure_admit: float = 1e-8
    commutator: float = 1e-8
    entropy_floor: float = 1e-12
    frame: float = 1e-9


DEFAULT_TOL = Tolerances()

# The memory budget of every guarded computation: one whose byte estimate,
# made beside its kernel before anything is allocated, passes it raises
# CapExceeded (exit code 3) through `check_budget`.
MAX_BYTES = 1 << 30


class CapExceeded(RuntimeError):
    """A computation would need more than `MAX_BYTES`."""


def check_budget(nbytes: int, what: str) -> None:
    """Raise CapExceeded, naming `what`, when it needs more than `MAX_BYTES`."""
    if nbytes > MAX_BYTES:
        raise CapExceeded(f"{what} needs {nbytes / 2**30:.1f} GiB, capped at {MAX_BYTES / 2**30:.1f} GiB")


# Two sorted values belong to one cluster iff their gap is at most
# CLUSTER_RTOL * max|value|; two clusters are linked iff their coupling weight
# is above CLUSTER_RTOL^2 * the coupling operators' squared Frobenius norm.
CLUSTER_RTOL = 1e-8


def cluster_starts(values: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """Clusters of ascending real `values` under the package clustering rule.

    Returns the index of the first value of every cluster and the margin
    (largest merged gap, smallest split gap), both relative to max|value|.
    """
    gaps = np.diff(values) / max(float(np.max(np.abs(values))), np.finfo(float).tiny)
    split = gaps > CLUSTER_RTOL
    starts = np.concatenate([[0], np.flatnonzero(split) + 1])
    margin = (float(gaps[~split].max(initial=0.0)), float(gaps[split].min(initial=math.inf)))
    return starts, margin


def connected_components(adj: np.ndarray) -> int:
    """Number of connected components of the undirected graph with boolean
    adjacency `adj`."""
    reach = (adj | adj.T | np.eye(len(adj), dtype=bool)).astype(float)
    for _ in range(len(adj).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)  # paths of twice the length
    return len(np.unique(reach, axis=0))


def rank_cutoff(
    sigmas: np.ndarray, shape: tuple[int, int], rtol: float = DEFAULT_TOL.rank_rtol,
    scale: float | None = None,
) -> int:
    """Number of singular values counted as nonzero under the package rank rule.

    `scale` replaces the largest singular value as the reference when given.
    """
    if sigmas.size == 0:
        return 0
    smax = sigmas.max() if scale is None else scale
    if smax == 0.0:
        return 0
    return int(np.sum(sigmas > rtol * smax * max(shape)))


def orthonormal_columns(a: np.ndarray, rtol: float = DEFAULT_TOL.rank_rtol) -> np.ndarray:
    """Orthonormal basis for the column span of `a` (SVD based)."""
    a = np.atleast_2d(np.asarray(a))
    if a.shape[1] == 0:
        return a.astype(complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = rank_cutoff(s, a.shape, rtol)
    return u[:, :r]


def nullspace(
    a: np.ndarray, rtol: float = DEFAULT_TOL.rank_rtol, scale: float | None = None
) -> np.ndarray:
    """Orthonormal basis (columns) of the right nullspace of `a`.

    The rank follows `rank_cutoff` at the shape of `a`, relative to `scale`
    when given. A tall `a` (more rows than columns k) is first reduced to the
    k x k triangular factor of its QR decomposition, which has the same
    singular values and right singular vectors, so the SVD never forms the
    tall left factor.
    """
    a = np.atleast_2d(np.asarray(a))
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    if a.shape[0] > a.shape[1]:
        _, s, vh = np.linalg.svd(np.linalg.qr(a, mode="r"))
    else:
        _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    r = rank_cutoff(s, a.shape, rtol, scale)
    return vh[r:].conj().T


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix of an (N, D, D) stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b via eigenvalues."""
    ev = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(ev)))


def trace_distance_to_pure_on(block: np.ndarray, idx: np.ndarray, psi: np.ndarray) -> float:
    """(1/2)||rho - psi psi^H||_1 for a Hermitian rho that vanishes off the
    indices `idx`, given only its block rho[idx, idx].

    rho - psi psi^H acts inside span(e_idx, psi_C), psi_C being the part of
    psi off `idx`; in that orthonormal frame it is diag(block, 0) - c c^H with
    c = (psi[idx], ||psi_C||), so the distance is exact, not a bound. With
    `idx` every index this is `trace_distance(rho, psi psi^H)`.
    """
    c = psi[idx]
    tail = np.linalg.norm(np.delete(psi, idx))
    if tail > 0.0:
        block = np.pad(block, (0, 1))
        c = np.append(c, tail)
    return trace_distance(block, np.outer(c, c.conj()))


def diagonal_distance_to_pure_on(p: np.ndarray, idx: np.ndarray, psi: np.ndarray) -> float:
    """`trace_distance_to_pure_on` for the diagonal block diag(p), p >= 0,
    with no eigensolve: O(|idx|) per bisection step.

    In the frame of `trace_distance_to_pure_on` the difference is
    diag(p, 0) - c c^H, a positive diagonal less a rank-one term, so it has
    at most one negative eigenvalue lambda, and its eigenvalues sum to
    sum(p) - |c|^2. The distance is therefore
    (1/2)(sum(p) - |c|^2 - lambda) - lambda/2 with lambda <= 0, the part in
    parentheses being the sum of the other eigenvalues (clamped at 0). A
    negative lambda is the root of the secular equation
    1 = sum_i |c_i|^2 / (p_i - lambda) on [-|c|^2, 0), whose right side
    increases with lambda, and bisection finds it; when there is none the
    right end of the bracket never moves and lambda is 0.
    """
    p = np.asarray(p, dtype=float)
    w = np.abs(psi[idx]) ** 2
    tail = np.linalg.norm(np.delete(psi, idx))
    if tail > 0.0:
        p = np.append(p, 0.0)
        w = np.append(w, tail * tail)
    norm2 = float(w.sum())
    lo, hi = -norm2, 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.sum(w / (p - mid)) > 1.0:
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi) if hi < 0.0 else 0.0
    return 0.5 * (max(0.0, float(p.sum()) - norm2 - lam) - lam)


def trace_distance_to_pure_bound(rho: np.ndarray, psi: np.ndarray) -> float:
    """Upper bound on (1/2)||rho - psi psi^H||_1 for a positive semidefinite
    rho and a unit psi, from one matvec and no eigensolve.

    With P = psi psi^H, a = <psi|rho|psi> and b = (I - P) rho psi, rho - P
    has the block form [[a - 1, b^H], [b, C]] on span(psi) and its
    complement, C = (I - P) rho (I - P) >= 0 with trace tr(rho) - a. The
    diagonal blocks contribute |a - 1| + tr C to the trace norm and the
    off-diagonal ones 2||b||, so the bound is
    (1/2)(|a - 1| + (tr(rho) - a) + 2||b||). For a unit-trace rho it is at
    most the Frobenius bound (1/2) sqrt(D) ||rho - P||_F once D >= 6, since
    c + ||b|| <= sqrt(3/2) sqrt(c^2 + 2||b||^2) with c = 1 - a; at D = 2 it
    is above it whenever b != 0.
    """
    v = rho @ psi
    a = float(np.vdot(psi, v).real)
    b = v - a * psi
    return 0.5 * (abs(a - 1.0) + (float(np.trace(rho).real) - a) + 2.0 * float(np.linalg.norm(b)))


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the (orthonormal) columns."""
    return basis @ basis.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits; eigenvalues below `DEFAULT_TOL.entropy_floor` contribute zero."""
    ev = np.linalg.eigvalsh(rho)
    ev = ev[ev > DEFAULT_TOL.entropy_floor]
    return float(-np.sum(ev * np.log2(ev)))


def kron_all(mats: list[np.ndarray]) -> np.ndarray:
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def complete_basis(cols: np.ndarray) -> np.ndarray:
    """Unitary whose leading columns equal the given orthonormal columns.

    The completion is deterministic: the orthogonal complement of the span is
    extracted from I - P by SVD.
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim == 1:
        cols = cols[:, None]
    n, k = cols.shape
    if k == n:
        return cols
    rest = orthonormal_columns(np.eye(n, dtype=complex) - cols @ cols.conj().T)
    return np.hstack([cols, rest[:, : n - k]])
