"""Unitary stabilizer Lie algebras and the generation test.

Anti-Hermitian matrices are treated as a real vector space with the inner
product Re Tr(X^dag Y); all orthogonalization happens over the reals in a
packed coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from ._linalg import complete_basis, nullspace
from .channels import CapExceeded
from .hilbert import MultipartiteSpace, NeighborhoodStructure

# largest candidate stack the exhaustive ugen pass may allocate
UGEN_MAX_BYTES = 1 << 30


def antiherm_basis(n: int) -> list[np.ndarray]:
    """Orthonormal (real HS) basis of n x n anti-Hermitian matrices."""
    out = []
    for j in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[j, j] = 1j
        out.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0 / np.sqrt(2)
            m[k, j] = -1.0 / np.sqrt(2)
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            out.append(m)
    return out


class _Packer:
    """Isometric packing of n x n anti-Hermitian matrices into R^(n^2)."""

    def __init__(self, n: int):
        self.n = n
        self.iu = np.triu_indices(n, k=1)
        self.dim = n * n

    def pack(self, mats: np.ndarray) -> np.ndarray:
        mats = np.asarray(mats)
        single = mats.ndim == 2
        if single:
            mats = mats[None]
        up = mats[:, self.iu[0], self.iu[1]]
        diag = mats[:, np.arange(self.n), np.arange(self.n)]
        v = np.concatenate(
            [np.sqrt(2) * up.real, np.sqrt(2) * up.imag, diag.imag], axis=1
        )
        return v[0] if single else v

    def unpack(self, vecs: np.ndarray) -> np.ndarray:
        vecs = np.asarray(vecs, dtype=float)
        single = vecs.ndim == 1
        if single:
            vecs = vecs[None]
        b, n = vecs.shape[0], self.n
        noff = self.iu[0].size
        up = (vecs[:, :noff] + 1j * vecs[:, noff : 2 * noff]) / np.sqrt(2)
        diag = 1j * vecs[:, 2 * noff :]
        mats = np.zeros((b, n, n), dtype=complex)
        mats[:, self.iu[0], self.iu[1]] = up
        mats[:, self.iu[1], self.iu[0]] = -up.conj()
        mats[:, np.arange(n), np.arange(n)] = diag
        return mats[0] if single else mats


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal basis (real HS inner product) of an anti-Hermitian algebra."""

    elements: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def ambient(self) -> int:
        return self.elements[0].shape[0] if self.elements else 0

    def gram_defect(self) -> float:
        v = _Packer(self.ambient).pack(np.stack(self.elements))
        g = v @ v.T
        return float(np.max(np.abs(g - np.eye(self.dim))))


def stabilizer_algebra(psi: np.ndarray) -> LieBasis:
    """Basis of anti-Hermitian X with (I - |psi><psi|) X |psi> = 0.

    The dimension is (D-1)^2 + 1: a global phase plus everything on the
    orthogonal complement of the state.
    """
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("zero state vector")
    psi = psi / nrm
    d = psi.shape[0]
    q = complete_basis(psi)
    elems = [1j * np.outer(psi, psi.conj())]
    rest = q[:, 1:]
    for y in antiherm_basis(d - 1):
        elems.append(rest @ y @ rest.conj().T)
    return LieBasis(tuple(elems))


def neighborhood_stabilizer_algebra(
    psi: np.ndarray,
    region,
    space: MultipartiteSpace,
    rtol: float = 1e-10,
) -> LieBasis:
    """Stabilizer elements of the form (X on region) tensor I."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    region = sorted(set(region))
    m = space.dim_of(region)
    rest_dim = space.total_dim // m
    basis = antiherm_basis(m)
    psip = hilbert.to_front(psi, region, space)
    # constraint matrix: coefficients -> (I - P_psi)(X ⊗ I)|psi>
    cols = []
    psi_perm = psip.reshape(-1)
    for e in basis:
        w = (e @ psip).reshape(-1)
        w = w - psi_perm * (psi_perm.conj() @ w)
        cols.append(w)
    a = np.stack(cols, axis=1)
    areal = np.vstack([a.real, a.imag])
    null = nullspace(areal, rtol)  # (m^2, n_null), orthonormal real columns
    elems = []
    for j in range(null.shape[1]):
        x_local = sum(c * e for c, e in zip(null[:, j], basis))
        x_glob = np.kron(x_local, np.eye(rest_dim, dtype=complex)) / np.sqrt(rest_dim)
        elems.append(hilbert.from_front(x_glob, region, space, sides=2))
    return LieBasis(tuple(elems))


class _Span:
    """Growing orthonormal real span with batched admission."""

    def __init__(self, dim: int, admit_tol: float = 1e-8):
        self.rows = np.zeros((0, dim), dtype=float)
        self.admit_tol = admit_tol

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def admit(self, cands: np.ndarray) -> int:
        """Add the part of the candidate rows outside the span; returns count."""
        cands = np.atleast_2d(cands)
        if cands.size == 0:
            return 0
        r = cands - (cands @ self.rows.T) @ self.rows if self.dim else cands.copy()
        # second orthogonalization pass for numerical safety
        if self.dim:
            r -= (r @ self.rows.T) @ self.rows
        u, s, vh = np.linalg.svd(r, full_matrices=False)
        keep = s > self.admit_tol
        if not np.any(keep):
            return 0
        new = vh[keep]
        self.rows = np.vstack([self.rows, new]) if self.dim else new
        return int(np.sum(keep))


def lie_closure(bases: list[LieBasis], admit_tol: float = 1e-8, max_passes: int = 200) -> LieBasis:
    """Smallest Lie algebra containing all given algebras.

    Iterates left-nested brackets of the generators against the running span
    until a full pass admits nothing.
    """
    gens = [x for b in bases for x in b.elements]
    if not gens:
        return LieBasis(())
    n = gens[0].shape[0]
    packer = _Packer(n)
    span = _Span(n * n, admit_tol)
    span.admit(packer.pack(np.stack(gens)))
    gen_stack = np.stack(gens)
    fresh = span.rows.copy()
    for _ in range(max_passes):
        mats = packer.unpack(fresh)
        cands = np.einsum("gab,nbc->gnac", gen_stack, mats, optimize=True) - np.einsum(
            "nab,gbc->gnac", mats, gen_stack, optimize=True
        )
        cands = cands.reshape(-1, n, n)
        before = span.dim
        added = span.admit(packer.pack(cands))
        if added == 0:
            # one confirming pass against the full span
            mats = packer.unpack(span.rows)
            cands = np.einsum("gab,nbc->gnac", gen_stack, mats, optimize=True) - np.einsum(
                "nab,gbc->gnac", mats, gen_stack, optimize=True
            )
            if span.admit(packer.pack(cands.reshape(-1, n, n))) == 0:
                break
        fresh = span.rows[before:]
    return LieBasis(tuple(packer.unpack(span.rows)))


@dataclass(frozen=True)
class UgenVerdict:
    ok: bool
    generated_dim: int
    target_dim: int
    passes: int
    method: str
    neighborhood_dims: tuple[int, ...]
    stabilizer_residual: float


def _rotated_generators(psi, nstruct, space):
    """Neighborhood stabilizer generators in the frame where psi = e_0.

    Returns (c values, Y blocks, neighborhood dims, frame unitary); each
    generator is ic ⊕ Y in that frame.
    """
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    q = complete_basis(psi)
    cs, ys, dims = [], [], []
    for nk in nstruct:
        basis = neighborhood_stabilizer_algebra(psi, nk, space)
        dims.append(basis.dim)
        for x in basis.elements:
            xr = q.conj().T @ x @ q
            if np.max(np.abs(xr[1:, 0])) > 1e-8:
                raise RuntimeError("generator does not stabilize the state")
            cs.append(xr[0, 0].imag)
            ys.append(xr[1:, 1:])
    return np.array(cs), np.stack(ys), tuple(dims), q


def check_unitary_generation(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    seed: int = 0,
    batch: int = 384,
    max_levels: int = 400,
    exact_fallback: bool = True,
) -> UgenVerdict:
    """Do the neighborhood stabilizer algebras generate the full stabilizer?

    Certification is by dimension count: every admitted direction is a (left
    nested) bracket of generators, hence inside the generated algebra, which
    in turn sits inside the full stabilizer algebra of dimension (D-1)^2 + 1.
    Saturating that dimension decides the question positively. A randomized
    bracket sampler drives the growth; if it stalls, the exhaustive iteration
    confirms before a negative verdict is returned.
    """
    d = space.total_dim
    target = (d - 1) ** 2 + 1
    cs, ys, nbhd_dims, q = _rotated_generators(psi, nstruct, space)
    n1 = d - 1
    packer = _Packer(n1)
    g = len(cs)
    coords = np.concatenate([cs[:, None], packer.pack(ys)], axis=1)
    span = _Span(1 + n1 * n1)
    span.admit(coords)

    rng = np.random.default_rng(seed)
    passes = 0
    stalls = 0
    method = "sampled"
    while span.dim < target and passes < max_levels:
        passes += 1
        nprobe = 3
        pw = rng.normal(size=(nprobe, g))
        probes = np.einsum("pg,gab->pab", pw, ys, optimize=True)
        probes /= np.maximum(
            np.linalg.norm(probes, axis=(1, 2))[:, None, None], 1e-12
        )
        b = min(batch, span.dim)
        cw = rng.normal(size=(b, span.dim)) / np.sqrt(span.dim)
        batch_mats = packer.unpack((cw @ span.rows)[:, 1:])
        cands = np.einsum("pab,nbc->pnac", probes, batch_mats, optimize=True)
        cands -= np.einsum("nab,pbc->pnac", batch_mats, probes, optimize=True)
        cands = cands.reshape(-1, n1, n1)
        packed = packer.pack(cands)
        cand_coords = np.concatenate(
            [np.zeros((packed.shape[0], 1)), packed], axis=1
        )
        added = span.admit(cand_coords)
        stalls = stalls + 1 if added == 0 else 0
        if stalls >= 4:
            break

    if span.dim < target and exact_fallback:
        method = "exhaustive"
        for _ in range(max_levels):
            # the two bracket stacks and their difference, g x span.dim x n1^2 complex each
            nbytes = 3 * g * span.dim * n1 * n1 * 16
            if nbytes > UGEN_MAX_BYTES:
                raise CapExceeded(
                    f"exhaustive ugen pass of {g} x {span.dim} brackets of size {n1} needs "
                    f"{nbytes / 2**30:.1f} GiB, capped at {UGEN_MAX_BYTES / 2**30:.1f} GiB"
                )
            mats = packer.unpack(span.rows[:, 1:])
            cands = np.einsum("gab,nbc->gnac", ys, mats, optimize=True) - np.einsum(
                "nab,gbc->gnac", mats, ys, optimize=True
            )
            cands = cands.reshape(-1, n1, n1)
            packed = packer.pack(cands)
            cand_coords = np.concatenate(
                [np.zeros((packed.shape[0], 1)), packed], axis=1
            )
            if span.admit(cand_coords) == 0:
                break
            passes += 1

    # sanity re-check: reconstruct a few global elements and verify they only
    # phase the target, ||(I - |psi><psi|) X |psi>|| ~ 0
    psi_n = np.asarray(psi, dtype=complex)
    psi_n = psi_n / np.linalg.norm(psi_n)
    take = min(8, span.dim)
    idx = np.linspace(0, span.dim - 1, take).astype(int)
    resid = 0.0
    for row in span.rows[idx]:
        y = packer.unpack(row[1:])
        x = np.zeros((d, d), dtype=complex)
        x[0, 0] = 1j * row[0]
        x[1:, 1:] = y
        xg = q @ x @ q.conj().T
        w = xg @ psi_n
        w = w - psi_n * (psi_n.conj() @ w)
        resid = max(resid, float(np.linalg.norm(w)))
    return UgenVerdict(
        ok=span.dim == target,
        generated_dim=span.dim,
        target_dim=target,
        passes=passes,
        method=method,
        neighborhood_dims=nbhd_dims,
        stabilizer_residual=resid,
    )
