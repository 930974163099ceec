"""Constructors and checks that only the tests use.

The package never builds basis vectors, random unitaries or unitary channels,
never needs a projector set's dense Hamiltonian, never forms or exponentiates
a dense generator, never estimates eta from drawn inputs, from below by
ascents or from above by power iteration, never runs an FTS circuit on drawn
inputs, and never steps the cooling map's weight vector by hand; the tests
do, to state inputs and oracles.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from qlstab import channels as chan_mod
from qlstab import hilbert
from qlstab import lie
from qlstab._linalg import DEFAULT_TOL, dagger, herm, random_density, random_pure
from qlstab.channels import Channel, ChannelError, make_channel
from qlstab.hilbert import DimensionError, MultipartiteSpace, NeighborhoodStructure
from qlstab.mixing import _half_trace_norm
from qlstab.subspaces import ProjectorSet


def basis_state(space: MultipartiteSpace, occupations) -> np.ndarray:
    """Computational basis vector |occupations>."""
    occupations = list(occupations)
    if len(occupations) != space.n_subsystems:
        raise DimensionError("one occupation per subsystem required")
    idx = 0
    for d, o in zip(space.dims, occupations):
        if not 0 <= o < d:
            raise DimensionError(f"occupation {o} out of range for dimension {d}")
        idx = idx * d + o
    v = np.zeros(space.total_dim, dtype=complex)
    v[idx] = 1.0
    return v


def normalized(nstruct: NeighborhoodStructure) -> NeighborhoodStructure:
    """The structure without neighborhoods contained in others."""
    return NeighborhoodStructure(nstruct.neighborhoods, normalize=True)


def is_connected(nstruct: NeighborhoodStructure) -> bool:
    """Connectivity of the intersection graph of the neighborhoods."""
    if not nstruct.neighborhoods:
        return True
    sets = [set(nk) for nk in nstruct.neighborhoods]
    reached = {0}
    frontier = [0]
    while frontier:
        j = frontier.pop()
        for k in range(len(sets)):
            if k not in reached and sets[j] & sets[k]:
                reached.add(k)
                frontier.append(k)
    return len(reached) == len(sets)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return herm(g)


def unitary_channel(u, support, label: str = "") -> Channel:
    return make_channel([u], support, label=label)


def gram_defect(basis: lie.LieBasis) -> float:
    """Largest entry of G - I for the Gram matrix G of the basis elements."""
    v = lie._Packer(basis.ambient).pack(np.stack(basis.elements))
    g = v @ v.T
    return float(np.max(np.abs(g - np.eye(basis.dim))))


def hamiltonian(pset: ProjectorSet) -> np.ndarray:
    """Dense H = sum_k (I - Pi_k)."""
    d = pset.spans[0].ambient_dim
    h = len(pset.spans) * np.eye(d, dtype=complex)
    for p in pset.projectors:
        h -= p
    return h


def frustration_defect(pset: ProjectorSet) -> float:
    """||H |psi>||; zero by construction up to roundoff."""
    h_psi = sum(pset.target - s.apply_projector(pset.target) for s in pset.spans)
    return float(np.linalg.norm(h_psi))


def remainder_dim(frame: chan_mod.Frame) -> int:
    """Dimensions of the local block left outside the cooling copies."""
    return frame.local.shape[0] - frame.copies * frame.schmidt_dim


def dense_monomial_forms(ch: Channel, frame: chan_mod.Frame, space: MultipartiteSpace):
    """The oracle of `channels._monomial_forms`: each Kraus operator in the
    dense frame B, B^H K B, read off as (rows, cols, vals) by the largest
    entry of each column, with the exact largest entry left off that
    pattern. Raises ChannelError on the same rule, at O(D^2 m) per operator.
    """
    tol = DEFAULT_TOL.frame
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


def cool_weights(w: np.ndarray, frame: chan_mod.Frame) -> np.ndarray:
    """The oracle of the cooling map's `channels.diagonal_step`: its
    weight-vector action in the ordered basis, written by hand. Each copy
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


def cool_schedule(frame: chan_mod.Frame):
    """The oracle of `fts.synthesize_fts`: the ranks and permutation arrays of
    its cooling schedule, from `cool_weights` with occupied meaning a weight
    above 1e-15."""
    d = frame.dim
    weights = cool_weights(np.full(d, 1.0 / d), frame)
    ranks, perms = [int(np.sum(weights > 1e-15))], []
    while ranks[-1] > 1:
        occupied = np.flatnonzero(weights > 1e-15)
        perm = np.empty(d, dtype=int)
        perm[occupied] = np.arange(len(occupied))
        rest = np.setdiff1d(np.arange(d), occupied, assume_unique=True)
        perm[rest] = np.arange(len(occupied), d)
        perms.append(perm)
        new_w = np.zeros(d)
        new_w[perm] = weights
        weights = cool_weights(new_w, frame)
        ranks.append(int(np.sum(weights > 1e-15)))
    return ranks, perms


def drawn_inputs(d: int, trials: int, seed: int) -> list[np.ndarray]:
    """I/D, then `trials` random mixed and `trials` random pure states."""
    rng = np.random.default_rng(seed)
    inputs = [np.eye(d, dtype=complex) / d]
    for _ in range(trials):
        inputs.append(random_density(d, rng))
        v = random_pure(d, rng)
        inputs.append(np.outer(v, v.conj()))
    return inputs


def drawn_input_distance(circuit: chan_mod.Circuit, psi: np.ndarray, trials: int = 5, seed: int = 1) -> float:
    """The drawn-input oracle of `fts.verify_fts`: the largest final trace
    distance to psi over `drawn_inputs`, each run through `channels.run`,
    with or without a frame."""
    return max(chan_mod.run(circuit, rho, target=psi, record=False)[1][-1].trace_distance
               for rho in drawn_inputs(circuit.space.total_dim, trials, seed))


# ---------------------------------------------------------------------------
# dense generators: the oracle of the package's closed-form semigroups
# ---------------------------------------------------------------------------

@dataclass
class Liouvillian:
    """Dense generator on the row-major vectorized space."""

    matrix: np.ndarray
    dim: int  # Hilbert space dimension D (matrix is D^2 x D^2)
    label: str = ""

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.matrix @ rho.reshape(-1)).reshape(self.dim, self.dim)

    def propagator(self, t: float) -> np.ndarray:
        return scipy.linalg.expm(t * self.matrix)


def liouvillian_from_channel(ch: Channel, space: MultipartiteSpace) -> Liouvillian:
    """L = E - I."""
    d = space.total_dim
    return Liouvillian(matrix=chan_mod.superoperator(ch, space) - np.eye(d * d), dim=d, label=f"E-I[{ch.label}]")


def liouvillian_gksl(h: np.ndarray, lindblad_ops, label: str = "") -> Liouvillian:
    """Canonical generator -i[H, .] + sum_k (L.L^dag - {L^dag L, .}/2)."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d)
    s = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in lindblad_ops:
        l = np.asarray(l, dtype=complex)
        ll = l.conj().T @ l
        s += np.kron(l, l.conj())
        s -= 0.5 * (np.kron(ll, eye) + np.kron(eye, ll.T))
    return Liouvillian(matrix=s, dim=d, label=label)


def amplitude_damping_generator(rate: float = 1.0) -> Liouvillian:
    """GKSL generator of qubit decay toward |0>."""
    l1 = np.sqrt(rate) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return liouvillian_gksl(np.zeros((2, 2)), [l1], label="amplitude-damping")


@dataclass(frozen=True)
class SpectralReport:
    gap: float
    eigenvalues: np.ndarray


def spectral_gap(l: Liouvillian, tol: float = 1e-9) -> SpectralReport:
    ev = np.linalg.eigvals(l.matrix)
    scale = max(1.0, float(np.max(np.abs(ev))))
    decaying = ev[ev.real < -tol * scale]
    gap = float(np.min(np.abs(decaying.real))) if decaying.size else 0.0
    return SpectralReport(gap=gap, eigenvalues=ev)


def batch_size(d: int) -> int:
    """How many D x D complex matrices the sampled estimators push through
    at once: as many as fit in `channels.STACK_MAX_BYTES`, at least 1. Tests
    patch that bound to 1 to run them one matrix at a time."""
    return max(1, chan_mod.STACK_MAX_BYTES // (16 * d * d))


def eta_upper(m, rng, iters: int = 40) -> np.ndarray:
    """(1/2) sqrt(D) * sigma_max(M_j) for every map j of the `Map` `m`, with sigma_max from power iteration on M^H M from one drawn start;
    the maps' iterations run in lockstep, in groups of `batch_size(D)`.
    Power iteration approaches sigma_max from
    below, so this estimates a bound on eta without being one."""
    d = m.dim
    x0 = random_density(d, rng).astype(complex)
    x0 = x0 / np.linalg.norm(x0)
    out = np.zeros(m.count)
    per = batch_size(d)
    for g in range(0, m.count, per):
        k = np.arange(g, min(g + per, m.count))
        x = np.repeat(x0[None], k.size, axis=0)
        for _ in range(iters):
            z = m.adjoint(m.apply(x, k), k)
            nz = np.linalg.norm(z, axis=(-2, -1))
            live = nz >= 1e-300  # M^H M x = 0: the estimate stays 0
            k, x = k[live], z[live] / nz[live, None, None]
            if not k.size:
                break
        if k.size:
            y = m.apply(x, k)
            out[k] = 0.5 * np.sqrt(d) * np.linalg.norm(y, axis=(-2, -1)) / np.linalg.norm(x, axis=(-2, -1))
    return out


# ---------------------------------------------------------------------------
# the sampled eta estimator: the oracle of the proven envelope
# ---------------------------------------------------------------------------

class Map:
    """`count` linear maps on D x D matrices, given by apply/adjoint callables
    on an (S, D, D) stack and an index array k of length S: matrix i of the
    stack goes through map k[i]."""

    def __init__(self, dim, count, apply_fn, adjoint_fn):
        self.dim = dim
        self.count = count
        self.apply = apply_fn
        self.adjoint = adjoint_fn


def stack_trace(x: np.ndarray) -> np.ndarray:
    """Trace of a matrix, or of each matrix of a stack, shaped to broadcast
    against it."""
    return np.trace(x, axis1=-2, axis2=-1)[..., None, None]


def _eigh(a: np.ndarray):
    """Eigenpairs of each matrix of a Hermitian stack; if the stacked zheevd
    does not converge, each matrix by MRRR."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        pairs = [scipy.linalg.eigh(x, driver="evr") for x in a]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def _top_vectors(b: np.ndarray) -> np.ndarray:
    """Top eigenvector of each matrix of a Hermitian stack, by MRRR on that
    one index."""
    d = b.shape[-1]
    return np.array([scipy.linalg.eigh(x, subset_by_index=[d - 1, d - 1], driver="evr")[1][:, 0] for x in b])


def _pure(v: np.ndarray) -> np.ndarray:
    """|v><v| for each row v."""
    return v[:, :, None] * v[:, None, :].conj()


def _ascent_signs(ev: np.ndarray) -> np.ndarray:
    """Sign of each eigenvalue of a stack, set to 0 where |lambda| is at or
    below D * eps * max|lambda| of its matrix, the roundoff of its
    eigensolve: such eigenvalues (1e-20 to 1e-18 on the rank-deficient
    images of `sampled_eta_single_channel`) would steer the ascent by
    roundoff. The rank rule's cut, 1e-10 * D, would be too coarse: at large
    t the images have true eigenvalues near e^{-2t} of the largest, and
    zeroing their signs left the sampled eta 3e-9 below the envelope on
    line 6."""
    mag = np.abs(ev)
    cut = ev.shape[-1] * np.finfo(float).eps * mag.max(axis=-1, keepdims=True)
    return np.where(mag > cut, np.sign(ev), 0.0)


def eta_lower(m: Map, rng, n_samples: int = 256, n_refine: int = 4, iters: int = 20) -> np.ndarray:
    """sup over pure inputs of (1/2)||M_j(rho)||_1 for every map j of `m`, by
    sampling plus alternating ascent: a lower estimate.

    One set of samples is drawn, in order, and serves every map: the sweep
    pushes each (map, sample) pair through as stacks of `batch_size(D)`
    inputs. Each map then refines its `n_refine`
    best samples, and all count * n_refine ascents run in lockstep, in groups
    of the same size; an ascent that meets its stop test leaves its group. An
    ascent draws nothing once its start is chosen, so the result equals the
    maps taken one at a time, each after drawing the same samples: callers
    that seed every map alike (`sampled_eta`) get each map's single
    estimate, up to roundoff. Each step's image M(rho_new) is the next
    step's M(rho), so a step costs one adjoint and one apply. The ascent
    direction V sign(Lambda) V^H gives roundoff eigenvalues sign 0
    (`_ascent_signs`), so the path does not depend on roundoff.

    LAPACK's divide-and-conquer zheevd (`np.linalg.eigh`) can fail to
    converge on a finite, exactly Hermitian input: it did on a 64 x 64
    adjoint image with a paired spectrum (line 6, t = 1.5, seed 26000), where
    the MRRR driver converges. So the ascent takes only the top eigenvector
    of each adjoint image, by MRRR on that one index, and when a stacked
    `eigh` of the images fails, retries each image with MRRR.
    """
    d, count = m.dim, m.count
    per = batch_size(d)
    vecs = np.array([random_pure(d, rng) for _ in range(n_samples)])
    # entry i of the sweep is sample i % n_samples through map i // n_samples
    vals = np.empty(count * n_samples)
    for start in range(0, vals.size, per):
        i = np.arange(start, min(start + per, vals.size))
        vals[i] = _half_trace_norm(m.apply(_pure(vecs[i % n_samples]), i // n_samples))
    vals = vals.reshape(count, n_samples)
    best = vals.max(axis=1)
    starts = np.argsort(vals, axis=1)[:, ::-1][:, :n_refine].ravel()
    maps = np.repeat(np.arange(count), n_refine)
    for g in range(0, maps.size, per):
        k, live = maps[g:g + per], np.arange(min(per, maps.size - g))
        final = np.empty(live.size)
        a = herm(m.apply(_pure(vecs[starts[g:g + per]]), k))
        for _ in range(iters):
            ev, vec = _eigh(a)
            u = (vec * _ascent_signs(ev)[:, None, :]) @ np.swapaxes(vec, -1, -2).conj()
            image = m.apply(_pure(_top_vectors(herm(m.adjoint(u, k[live])))), k[live])
            val = 0.5 * np.einsum("kij,kji->k", u, image).real
            stop = val <= 0.5 * np.sum(np.abs(ev), axis=-1) - 1e-14
            final[live[stop]] = _half_trace_norm(a[stop])
            live, a = live[~stop], herm(image[~stop])
            if not live.size:
                break
        final[live] = _half_trace_norm(a)
        np.maximum.at(best, k, final)
    return best


def _adjoints(fam) -> list[Channel]:
    """The adjoint channel of each map of a `mixing.CommutingResetFamily`:
    Kraus operators K^dagger."""
    return [Channel(kraus=tuple(dagger(k) for k in c.kraus), support=c.support, label=c.label)
            for c in fam.channels]


def eta_map(fam, ts) -> Map:
    """e^{Lt} - rho_star Tr of a `mixing.CommutingResetFamily` at each t of
    `ts`, through its product propagator, with its adjoint, as one `Map`;
    the weight 1 - e^{-t} of each matrix is broadcast over the stack. The
    applies go through the family and count in its `applies`."""
    d = fam.space.total_dim
    ws = np.array([1.0 - math.exp(-float(t)) for t in ts])
    adjoints = _adjoints(fam)[::-1]

    def ap(x, k):
        y = fam._evolve(x, ws[k][:, None, None], fam.channels)
        return y - fam.rho_star * stack_trace(y)

    def adj(x, k):
        y = x - np.eye(d) * stack_trace(fam.rho_star.conj().T @ x)
        return fam._evolve(y, ws[k][:, None, None], adjoints)

    return Map(d, len(ws), ap, adj)


def sampled_eta(fam, ts, seed: int = 0, n_samples: int = 128) -> np.ndarray:
    """Sampled lower estimate of eta(t) of a family at every t of `ts`, in
    one stacked pass.

    The samples are drawn once from `seed` and serve every t, which is what
    one call per t with the same seed draws; the ascents of all t run in
    lockstep (`eta_lower`).
    """
    return eta_lower(eta_map(fam, ts), np.random.default_rng(seed), n_samples=n_samples, n_refine=3, iters=12)


def sampled_eta_single_channel(fam, k: int, t: float, seed: int = 0, n_samples: int = 64) -> float:
    """Sampled lower estimate of eta(e^{L_k t}) against E_k, for an
    idempotent E_k."""
    rng = np.random.default_rng(seed)
    c, adjc = fam.channels[k], _adjoints(fam)[k]
    w = 1.0 - math.exp(-t)

    # E_phi for a single idempotent channel is the channel itself
    def ap(x, _):
        y = fam._evolve(x, w, [c])
        return y - fam._apply(c, y)

    def adj(x, _):
        return fam._evolve(x - fam._apply(adjc, x), w, [adjc])

    m = Map(fam.space.total_dim, 1, ap, adj)
    return float(eta_lower(m, rng, n_samples=n_samples, n_refine=2, iters=10)[0])
