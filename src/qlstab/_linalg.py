"""Shared dense linear-algebra helpers.

Everything here operates on plain numpy arrays; tolerances follow the
package-wide conventions (see `Tolerances`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Package-wide numerical tolerances.

    rank_rtol is the relative singular-value cutoff: sigma counts as nonzero
    iff sigma > rank_rtol * sigma_max * max(rows, cols). frame bounds the
    unitarity defect of a circuit frame and the largest entry a channel's
    Kraus operators may have off their monomial pattern in that frame.
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


def rank_cutoff(sigmas: np.ndarray, shape: tuple[int, int], rtol: float = DEFAULT_TOL.rank_rtol) -> int:
    """Number of singular values counted as nonzero under the package rank rule."""
    if sigmas.size == 0:
        return 0
    smax = sigmas.max()
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


def nullspace(a: np.ndarray, rtol: float = DEFAULT_TOL.rank_rtol) -> np.ndarray:
    """Orthonormal basis (columns) of the right nullspace of `a`."""
    a = np.atleast_2d(np.asarray(a))
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    r = rank_cutoff(s, a.shape, rtol)
    return vh[r:].conj().T


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part."""
    return 0.5 * (a + a.conj().T)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b via eigenvalues."""
    ev = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(ev)))


def trace_distance_to_pure_bound(rho: np.ndarray, psi: np.ndarray) -> float:
    """Cheap upper bound (1/2)sqrt(D)*||rho - psi psi^H||_F, avoids a big eigh."""
    d = rho.shape[0]
    delta = rho - np.outer(psi, psi.conj())
    return 0.5 * np.sqrt(d) * float(np.linalg.norm(delta))


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return herm(g)


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the (orthonormal) columns."""
    return basis @ basis.conj().T


def von_neumann_entropy(rho: np.ndarray, floor: float = DEFAULT_TOL.entropy_floor) -> float:
    """Entropy in bits; eigenvalues below `floor` contribute zero."""
    ev = np.linalg.eigvalsh(rho)
    ev = ev[ev > floor]
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
