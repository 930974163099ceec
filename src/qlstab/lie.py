"""Unitary stabilizer Lie algebras and the generation test.

Anti-Hermitian matrices are treated as a real vector space with the inner
product Re Tr(X^dag Y); all orthogonalization happens over the reals in a
packed coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert, subspaces
from ._linalg import (
    CLUSTER_RTOL,
    DEFAULT_TOL,
    check_budget,
    cluster_starts,
    complete_basis,
    connected_components,
    nullspace,
    rank_cutoff,
)
from .hilbert import MultipartiteSpace, NeighborhoodStructure


class _Packer:
    """Isometric packing of n x n anti-Hermitian matrices into R^(n^2); the unit
    vectors unpack to an orthonormal (real HS) basis of u(n)."""

    def __init__(self, n: int):
        self.n = n
        self.iu = np.triu_indices(n, k=1)

    def pack(self, mats: np.ndarray) -> np.ndarray:
        up = mats[:, self.iu[0], self.iu[1]]
        diag = mats[:, np.arange(self.n), np.arange(self.n)]
        return np.concatenate([np.sqrt(2) * up.real, np.sqrt(2) * up.imag, diag.imag], axis=1)

    def unpack(self, vecs: np.ndarray) -> np.ndarray:
        n, noff = self.n, self.iu[0].size
        up = (vecs[:, :noff] + 1j * vecs[:, noff : 2 * noff]) / np.sqrt(2)
        mats = np.zeros((len(vecs), n, n), dtype=complex)
        mats[:, self.iu[0], self.iu[1]] = up
        mats[:, self.iu[1], self.iu[0]] = -up.conj()
        mats[:, np.arange(n), np.arange(n)] = 1j * vecs[:, 2 * noff :]
        return mats


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal basis (real HS inner product) of an anti-Hermitian algebra.

    `passes` is the number of bracket passes `lie_closure` ran to produce it
    (0 for a basis not made by the closure).
    """

    elements: tuple[np.ndarray, ...]
    passes: int = 0

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def ambient(self) -> int:
        return self.elements[0].shape[0] if self.elements else 0


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
    n = psi.shape[0] - 1
    rest = complete_basis(psi)[:, 1:]
    ys = _Packer(n).unpack(np.eye(n * n))
    return LieBasis((1j * np.outer(psi, psi.conj()), *(rest @ ys @ rest.conj().T)))


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
    packer = _Packer(m)
    psip = hilbert.to_front(psi, region, space)
    psi_perm = psip.reshape(-1)
    # constraint matrix: coefficients -> (I - P_psi)(X ⊗ I)|psi>
    w = (packer.unpack(np.eye(m * m)) @ psip).reshape(m * m, -1)
    a = (w - np.outer(w @ psi_perm.conj(), psi_perm)).T
    null = nullspace(np.vstack([a.real, a.imag]), rtol)  # (m^2, n_null), orthonormal real columns
    eye = np.eye(rest_dim, dtype=complex) / np.sqrt(rest_dim)
    return LieBasis(tuple(
        hilbert.from_front(np.kron(x, eye), region, space, sides=2) for x in packer.unpack(null.T)
    ))


class _Span:
    """Growing orthonormal real span with batched admission."""

    def __init__(self, dim: int):
        self.rows = np.zeros((0, dim), dtype=float)

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
        # r and its triangular factor R share singular values and right vectors;
        # R has at most as many rows as columns, so the left factor stays small
        if r.shape[0] > r.shape[1]:
            r = np.linalg.qr(r, mode="r")
        _, s, vh = np.linalg.svd(r, full_matrices=False)
        keep = s > DEFAULT_TOL.closure_admit
        if not np.any(keep):
            return 0
        new = vh[keep]
        self.rows = np.vstack([self.rows, new]) if self.dim else new
        return int(np.sum(keep))


def _pass_bytes(g: int, f: int, n: int, span_dim: int) -> int:
    """Bytes one closure pass holds at most: g generators bracketed with f
    directions in u(n), against a span of `span_dim` rows.

    Counted: the generators and the unpacked directions (complex n x n each),
    the span rows (real n^2 each), the two bracket stacks and their difference
    (3 g f complex n x n), the packed real candidates, the residual and its
    projection temporaries (3 g f real n^2 and g f x span_dim), and the
    admission's triangular factor, right vectors and left factor
    (2 k n^2 + k^2 reals, k = min(g f, n^2)). The stacks are freed before the
    admission, so the sum bounds the peak from above.
    """
    rows, cols = g * f, n * n
    k = min(rows, cols)
    complex_ = 16 * (cols * (g + f) + 3 * rows * cols)
    real = 8 * (cols * span_dim + 3 * rows * cols + rows * span_dim + 2 * k * cols + k * k)
    return complex_ + real


def lie_closure(bases: list[LieBasis]) -> LieBasis:
    """Smallest Lie algebra containing all given algebras.

    Brackets every generator with the directions the previous pass admitted
    until a pass admits nothing, then confirms with one pass against the whole
    span. A span invariant under ad of every generator is invariant under ad of
    the algebra they generate, so it is that algebra. A pass that would hold
    more than `_linalg.MAX_BYTES` (`_pass_bytes`) raises `CapExceeded` before it
    allocates anything. The basis records the number of passes run.
    """
    gen_stack = np.stack([x for b in bases for x in b.elements])
    g, n = gen_stack.shape[:2]
    packer = _Packer(n)
    span = _Span(n * n)
    span.admit(packer.pack(gen_stack))
    fresh, passes = span.rows, 0
    while True:
        check_budget(_pass_bytes(g, len(fresh), n, span.dim),
                     f"exhaustive ugen pass of {g} x {len(fresh)} brackets of size {n}")
        mats = packer.unpack(fresh)
        cands = np.einsum("gab,nbc->gnac", gen_stack, mats, optimize=True) - np.einsum(
            "nab,gbc->gnac", mats, gen_stack, optimize=True
        )
        packed = packer.pack(cands.reshape(-1, n, n))
        del cands, mats
        before = span.dim
        added = span.admit(packed)
        del packed
        passes += 1
        if added:
            fresh = span.rows[before:]
        elif len(fresh) < span.dim:
            fresh = span.rows
        else:
            break
    return LieBasis(tuple(packer.unpack(span.rows)), passes)


@dataclass(frozen=True)
class UgenVerdict:
    """Verdict of `check_unitary_generation`.

    `method` is "certificate" or "exhaustive" (the bracket closure), and
    `passes` counts the closure's bracket passes (0 for the certificate).
    `cluster_gaps` is the margin (largest merged gap, smallest split gap) of the
    clustering of the eigenvalue differences of h, relative to the largest;
    `weakest_edge` is the smallest relative link weight sqrt(W_ij / sum_g
    ||y_g||_F^2) of an edge, which the cut compares with CLUSTER_RTOL, or None
    when the edges do not connect.
    """

    ok: bool
    generated_dim: int
    target_dim: int
    passes: int
    method: str
    stabilizer_residual: float
    cluster_gaps: tuple[float, float]
    weakest_edge: float | None


def _generator_count(psi, nstruct, space) -> int:
    """G from Schmidt ranks alone: anti-Hermitian X on neighborhood k (dim m_k)
    stabilizes psi iff it is i theta on the Schmidt span (dimension s_k) and
    anything on its complement, so G = sum_k (1 + (m_k - s_k)^2)."""
    return sum(1 + (space.dim_of(nk) - subspaces.schmidt_span(psi, nk, space).dim) ** 2 for nk in nstruct)


def _generator_bytes(g: int, n: int) -> int:
    """Bytes the certificate holds: the (g, n, n) complex stacks y_g, V^H y_g
    and V^H y_g V (`_certificate`), and four complex n x n arrays' worth of V,
    the differences, their order and the link weights."""
    return 16 * n * n * (3 * g + 4)


def _rotated_generators(psi, nstruct, space):
    """Neighborhood stabilizer generators in the frame where psi = e_0.

    Returns (c values, Y blocks, largest ||X psi - <psi|X psi> psi||);
    each generator is ic ⊕ Y in that frame. Raises `CapExceeded`, before any
    D x D array is built, when the certificate would exceed `_linalg.MAX_BYTES`.
    """
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    g, n = _generator_count(psi, nstruct, space), space.total_dim - 1
    check_budget(_generator_bytes(g, n), f"ugen certificate on {g} generators of size {n}")
    q = complete_basis(psi)
    cs, ys, resid = [], [], 0.0
    for nk in nstruct:
        for x in neighborhood_stabilizer_algebra(psi, nk, space).elements:
            xr = q.conj().T @ x @ q
            if np.max(np.abs(xr[1:, 0])) > 1e-8:
                raise RuntimeError("generator does not stabilize the state")
            resid = max(resid, float(np.linalg.norm(xr[1:, 0])))
            cs.append(xr[0, 0].imag)
            ys.append(xr[1:, 1:])
    return np.array(cs), np.stack(ys), resid


def _certificate(ys: np.ndarray, seed: int) -> tuple[tuple[float, float], float | None]:
    """Regular-element certificate on the blocks y_g (see
    `check_unitary_generation`): the margin of the difference clustering, and
    the weakest edge, min sqrt(W_ij / sum_g ||y_g||_F^2) over the edges, or
    None when the edges do not connect every index."""
    n = ys.shape[1]
    w = np.random.default_rng(seed).normal(size=len(ys))
    lam, v = np.linalg.eigh(1j * np.einsum("g,gab->ab", w, ys))
    off = ~np.eye(n, dtype=bool)
    values = np.append((lam[:, None] - lam[None, :])[off], 0.0)
    order = np.argsort(values, kind="stable")
    starts, gaps = cluster_starts(values[order])
    isolated = np.zeros(len(values))
    isolated[order[starts[np.diff(np.append(starts, len(values))) == 1]]] = 1.0
    weight = np.zeros((n, n))
    weight[off] = np.sum(np.abs(v.conj().T @ ys @ v) ** 2, axis=0)[off] * isolated[:-1]
    weight /= max(float(np.sum(np.abs(ys) ** 2)), np.finfo(float).tiny)
    edges = weight > CLUSTER_RTOL**2
    if not edges.any() or connected_components(edges) > 1:
        return gaps, None
    return gaps, float(np.sqrt(weight[edges].min()))


def check_unitary_generation(
    psi: np.ndarray,
    nstruct: NeighborhoodStructure,
    space: MultipartiteSpace,
    seed: int = 0,
) -> UgenVerdict:
    """Do the neighborhood stabilizer algebras generate the full stabilizer?

    In the frame where psi = e_0 every generator is i theta_g ⊕ y_g with y_g
    in u(n), n = D - 1, and the target is u(1) ⊕ u(n), of dimension n^2 + 1.

    The certificate draws h = i sum_g w_g y_g (w from `seed`), h = V diag(l) V^H,
    and calls (i, j), i != j, an edge when l_i - l_j is isolated among all
    n(n - 1) differences and 0 under the clustering rule (`CLUSTER_RTOL`), and
    W_ij = sum_g |(V^H y_g V)_ij|^2 > CLUSTER_RTOL^2 sum_g ||y_g||_F^2. If the
    edges connect all n indices the generated algebra k contains su(n):
      * k is invariant under ad of its element sum_g w_g (i theta_g ⊕ y_g),
        which acts as ad(-ih) on the second summand and as 0 on the first.
      * For an isolated difference l_i - l_j a polynomial p with p(0) = 0,
        p(l_i - l_j) = 1 and p = 0 at every other difference gives
        p(ad) (i theta_g ⊕ y_g) = 0 ⊕ (V^H y_g V)_ij V E_ij V^H, so every edge
        puts V E_ij V^H in the complexification of k.
      * Brackets along a spanning tree give every V E_ik V^H, i != k, and their
        brackets the diagonal traceless part, so sl(n) is in k_C; as k lies in
        the anti-Hermitian matrices, su(n) is in k.
      * Brackets carry no phase and no trace, so k = su(n) + span{(theta_g, y_g)}
        and its dimension is n^2 - 1 + rank [theta_g, Im tr y_g]; generation
        holds iff that g x 2 matrix has rank 2.
    The verdict is then exact. Otherwise (h is degenerate, or a generator
    misses a block) the bracket closure `lie_closure` of the generators decides.
    """
    target = (space.total_dim - 1) ** 2 + 1
    cs, ys, resid = _rotated_generators(psi, nstruct, space)
    n = ys.shape[1]
    gaps, weakest = _certificate(ys, seed)
    if weakest is not None:
        abelian = np.stack([cs, np.trace(ys, axis1=1, axis2=2).imag], axis=1)
        sv = np.linalg.svd(abelian, compute_uv=False)
        dim, passes, method = n * n - 1 + rank_cutoff(sv, abelian.shape), 0, "certificate"
    else:
        x = np.zeros((len(cs), n + 1, n + 1), dtype=complex)
        x[:, 0, 0] = 1j * cs
        x[:, 1:, 1:] = ys
        closure = lie_closure([LieBasis(tuple(x))])
        dim, passes, method = closure.dim, closure.passes, "exhaustive"
    return UgenVerdict(
        ok=dim == target,
        generated_dim=dim,
        target_dim=target,
        passes=passes,
        method=method,
        stabilizer_residual=resid,
        cluster_gaps=gaps,
        weakest_edge=weakest,
    )
