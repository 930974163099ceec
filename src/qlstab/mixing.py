"""Continuous-time analysis: Liouvillians, spectral gaps, contraction
coefficients, rapid-mixing fits, and the finite-time no-go probe.

Superoperators act on row-major vectorized matrices. Dense superoperator work
is capped (default side 4096, i.e. D <= 64); commuting idempotent channel
families use the closed-form propagator e^{(E-I)t} = I + (1-e^{-t})(E-I)
instead, which keeps everything at matrix level.

The eta estimates of a family over a time grid run as one stacked pass
(`CommutingResetFamily.eta_samples`). Every t is estimated from the same
seed, so all t draw the same samples and the same power-iteration start, and
the ascents and power steps draw nothing after that. Running the t in
lockstep therefore changes neither the draws nor the iterates: each t gets
the estimate `eta_sample` gives it alone, up to roundoff, for about the
channel applies of one t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import expm

from . import channels as chan_mod
from ._linalg import herm, random_density, random_pure, trace_distance
from .channels import Channel
from .hilbert import MultipartiteSpace

DEFAULT_SUPEROP_SIDE = 4096


@dataclass
class Liouvillian:
    """Dense generator on the vectorized space."""

    matrix: np.ndarray
    dim: int  # Hilbert space dimension D (matrix is D^2 x D^2)
    label: str = ""

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.matrix @ rho.reshape(-1)).reshape(self.dim, self.dim)

    def propagator(self, t: float) -> np.ndarray:
        return expm(t * self.matrix)


def liouvillian_from_channel(
    ch: Channel, space: MultipartiteSpace, max_side: int = DEFAULT_SUPEROP_SIDE
) -> Liouvillian:
    """L = E - I."""
    s = chan_mod.superoperator(ch, space, max_side=max_side)
    d = space.total_dim
    return Liouvillian(matrix=s - np.eye(d * d), dim=d, label=f"E-I[{ch.label}]")


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


# ---------------------------------------------------------------------------
# contraction coefficient
# ---------------------------------------------------------------------------

class _Map:
    """`count` linear maps on D x D matrices, given by apply/adjoint callables
    on an (S, D, D) stack and an index array k of length S: matrix i of the
    stack goes through map k[i]."""

    def __init__(self, dim, count, apply_fn, adjoint_fn):
        self.dim = dim
        self.count = count
        self.apply = apply_fn
        self.adjoint = adjoint_fn


def _trace(x: np.ndarray) -> np.ndarray:
    """Trace of a matrix, or of each matrix of a stack, shaped to broadcast
    against it."""
    return np.trace(x, axis1=-2, axis2=-1)[..., None, None]


def _half_trace_norm(a: np.ndarray) -> np.ndarray:
    """(1/2)||herm(a)||_1 of each matrix of a stack."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm(a))), axis=-1)


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


def _eta_lower(m: _Map, rng, n_samples: int = 256, n_refine: int = 4, iters: int = 20) -> np.ndarray:
    """sup over pure inputs of (1/2)||M_j(rho)||_1 for every map j of `m`, by
    sampling plus alternating ascent.

    One set of samples is drawn, in order, and serves every map: the sweep
    pushes each (map, sample) pair through as stacks of
    `channels.stack_size(D)` inputs. Each map then refines its `n_refine`
    best samples, and all count * n_refine ascents run in lockstep, in groups
    of the same size; an ascent that meets its stop test leaves its group. An
    ascent draws nothing once its start is chosen, so the result equals the
    maps taken one at a time, each after drawing the same samples: callers
    that seed every map alike (`CommutingResetFamily.eta_samples`) get each
    map's single estimate, up to roundoff. Each step's image M(rho_new) is
    the next step's M(rho), so a step costs one adjoint and one apply.

    LAPACK's divide-and-conquer zheevd (`np.linalg.eigh`) can fail to
    converge on a finite, exactly Hermitian input: it did on a 64 x 64
    adjoint image with a paired spectrum (line 6, t = 1.5, seed 26000), where
    the MRRR driver converges. So the ascent takes only the top eigenvector
    of each adjoint image, by MRRR on that one index, and when a stacked
    `eigh` of the images fails, retries each image with MRRR.
    """
    d, count = m.dim, m.count
    per = chan_mod.stack_size(d)
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
            u = (vec * np.sign(ev)[:, None, :]) @ np.swapaxes(vec, -1, -2).conj()
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


def _eta_upper(m: _Map, rng, iters: int = 40) -> np.ndarray:
    """(1/2) sqrt(D) * sigma_max(M_j) for every map j of `m`, with sigma_max
    from power iteration on M^H M from one drawn start; the maps' iterations
    run in lockstep, in groups of `channels.stack_size(D)`."""
    d = m.dim
    x0 = random_density(d, rng).astype(complex)
    x0 = x0 / np.linalg.norm(x0)
    out = np.zeros(m.count)
    per = chan_mod.stack_size(d)
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


@dataclass(frozen=True)
class EtaSample:
    t: float
    lower: float
    upper: float


# ---------------------------------------------------------------------------
# commuting channel families (closed-form semigroups)
# ---------------------------------------------------------------------------

class CommutingResetFamily:
    """Semigroup generated by sum_k (E_k - I) for commuting idempotent E_k."""

    def __init__(self, channels: list[Channel], space: MultipartiteSpace, target):
        self.channels = list(channels)
        self.adjoints = [
            Channel(kraus=c.adjoint_kraus(), support=c.support, label=c.label) for c in self.channels
        ]
        self.space = space
        self.applies = 0  # channels.apply calls made through this family
        self.target = np.asarray(target, dtype=complex)
        self.rho_star = (
            np.outer(self.target, self.target.conj())
            if self.target.ndim == 1
            else self.target
        )

    def verify_structure(self, rng=None) -> dict:
        """Pairwise commutation and idempotency defects on random probes."""
        from .rfts import channels_commute_pairwise

        rng = rng or np.random.default_rng(3)
        commute = channels_commute_pairwise(self.channels, self.space)
        idem = 0.0
        for c in self.channels:
            remap, sub = chan_mod.relocate(c, c.support, self.space)
            rho = random_density(sub.total_dim, rng)
            once = chan_mod.apply(remap, rho, sub)
            twice = chan_mod.apply(remap, once, sub)
            idem = max(idem, trace_distance(once, twice))
        return {"commutation": commute, "idempotency": idem}

    def _apply(self, c: Channel, x: np.ndarray) -> np.ndarray:
        self.applies += 1
        return chan_mod.apply(c, x, self.space)

    def _evolve(self, x: np.ndarray, w, chans) -> np.ndarray:
        """Each channel E of `chans` in turn as (1 - w) I + w E; w a scalar,
        or one weight per matrix of a stack, shaped to broadcast against it."""
        out = x
        for c in chans:
            out = (1.0 - w) * out + w * self._apply(c, out)
        return out

    def propagate(self, rho: np.ndarray, t: float) -> np.ndarray:
        """e^{sum_k L_k t}(rho) using e^{L_k t} = I + (1 - e^{-t}) (E_k - I)."""
        return self._evolve(rho, 1.0 - math.exp(-t), self.channels)

    def per_channel_gap(self, max_side: int = DEFAULT_SUPEROP_SIDE) -> float:
        """min_k gap(E_k - I); idempotent channels give exactly 1."""
        gaps = []
        for c in self.channels:
            remap, sub = chan_mod.relocate(c, c.support, self.space)
            l = liouvillian_from_channel(remap, sub, max_side=max_side)
            gaps.append(spectral_gap(l).gap)
        return float(min(gaps))

    def eta_samples(self, ts, seed: int = 0, n_samples: int = 128) -> list[EtaSample]:
        """Lower and upper estimates of eta(t), the largest half trace norm
        of e^{Lt}(rho) - rho_star over pure rho, at every t of `ts` in one
        stacked pass.

        The samples and the power-iteration start are drawn once from
        `seed` and serve every t, which is what one `eta_sample` per t with
        the same seed draws; the propagators of all t run as one stack, with
        the weight 1 - e^{-t} of each matrix broadcast over it.
        """
        ts = [float(t) for t in ts]
        rng = np.random.default_rng(seed)
        d = self.space.total_dim
        ws = np.array([1.0 - math.exp(-t) for t in ts])
        adjoints = self.adjoints[::-1]

        def ap(x, k):
            y = self._evolve(x, ws[k][:, None, None], self.channels)
            return y - self.rho_star * _trace(y)

        def adj(x, k):
            y = x - np.eye(d) * _trace(self.rho_star.conj().T @ x)
            return self._evolve(y, ws[k][:, None, None], adjoints)

        m = _Map(d, len(ts), ap, adj)
        lo = _eta_lower(m, rng, n_samples=n_samples, n_refine=3, iters=12)
        up = _eta_upper(m, rng, iters=25)
        return [EtaSample(t=t, lower=float(l), upper=float(max(u, l))) for t, l, u in zip(ts, lo, up)]

    def eta_sample(self, t: float, seed: int = 0, n_samples: int = 128) -> EtaSample:
        return self.eta_samples([t], seed=seed, n_samples=n_samples)[0]

    def eta_single_channel(self, k: int, t: float, seed: int = 0, n_samples: int = 64) -> float:
        """Lower estimate of eta(e^{L_k t}) for one neighborhood generator."""
        rng = np.random.default_rng(seed)
        c, adjc = self.channels[k], self.adjoints[k]
        w = 1.0 - math.exp(-t)

        # E_phi for a single idempotent channel is the channel itself
        def ap(x, _):
            y = self._evolve(x, w, [c])
            return y - self._apply(c, y)

        def adj(x, _):
            return self._evolve(x - self._apply(adjc, x), w, [adjc])

        m = _Map(self.space.total_dim, 1, ap, adj)
        return float(_eta_lower(m, rng, n_samples=n_samples, n_refine=2, iters=10)[0])


@dataclass(frozen=True)
class RapidMixingReport:
    passed: bool
    gamma: float
    delta: float
    log_c: float
    nu: float
    samples: tuple[tuple[int, float, float, float], ...]  # (N, t, lower, upper)
    commutation_defect: float
    applies: int  # channels.apply calls of the eta estimates


def rapid_mixing_check(
    family: list[CommutingResetFamily],
    ts,
    seed: int = 0,
    gamma_slack: float = 0.05,
    delta_cap: float = 1.1,
    fit_ceiling: float = 0.5,
) -> RapidMixingReport:
    """Fit eta(t) ~ c N^delta e^{-gamma t} over a scalable commuting family.

    The bound is an envelope: early-time samples saturate near eta ~ 1 and
    would bias the decay rate, so only samples below `fit_ceiling` (and above
    the numerical floor) enter the fit. All samples are reported.
    """
    rows = []
    samples = []
    commute_defect = 0.0
    nu = np.inf
    applies = 0
    for fam in family:
        chk = fam.verify_structure()
        if chk["commutation"] > 1e-8:
            raise ValueError("channel set does not commute")
        commute_defect = max(commute_defect, chk["commutation"])
        nu = min(nu, fam.per_channel_gap())
        n = fam.space.n_subsystems
        before = fam.applies
        for es in fam.eta_samples(ts, seed=seed):
            samples.append((n, es.t, es.lower, es.upper))
            if 1e-11 < es.lower < fit_ceiling:
                rows.append((math.log(n), -es.t, math.log(es.lower)))
        applies += fam.applies - before
    if len(rows) < 3:
        raise ValueError("not enough usable samples for a fit")
    a = np.array([[1.0, r[0], r[1]] for r in rows])
    y = np.array([r[2] for r in rows])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    log_c, delta, gamma = float(coef[0]), float(coef[1]), float(coef[2])
    passed = gamma >= nu - gamma_slack and delta <= delta_cap
    return RapidMixingReport(
        passed=passed, gamma=gamma, delta=delta, log_c=log_c, nu=float(nu),
        samples=tuple(samples), commutation_defect=commute_defect, applies=applies,
    )


# ---------------------------------------------------------------------------
# no-go probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoGoReport:
    min_distance: float
    distances: tuple[tuple[float, float], ...]
    monotone: bool


def no_go_probe(
    l: Liouvillian,
    psi: np.ndarray,
    ts,
    start: np.ndarray | None = None,
) -> NoGoReport:
    """Distance to the fixed point stays strictly positive at all finite times."""
    psi = np.asarray(psi, dtype=complex)
    target = np.outer(psi, psi.conj())
    fp_defect = float(np.max(np.abs(l.apply(target))))
    if fp_defect > 1e-8:
        raise ValueError(f"target is not a fixed point (defect {fp_defect:.2e})")
    if start is None:
        # deterministic orthogonal start
        from ._linalg import complete_basis

        q = complete_basis(psi / np.linalg.norm(psi))
        start = np.outer(q[:, 1], q[:, 1].conj())
    dists = []
    for t in ts:
        rho_t = (l.propagator(float(t)) @ start.reshape(-1)).reshape(l.dim, l.dim)
        dists.append((float(t), trace_distance(rho_t, target)))
    values = [d for _, d in dists]
    monotone = all(a >= b - 1e-10 for a, b in zip(values, values[1:]))
    return NoGoReport(
        min_distance=float(min(values)),
        distances=tuple(dists),
        monotone=monotone,
    )


def amplitude_damping_liouvillian(rate: float = 1.0) -> Liouvillian:
    """Qubit decay toward |0>."""
    l1 = np.sqrt(rate) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return liouvillian_gksl(np.zeros((2, 2)), [l1], label="amplitude-damping")
