"""Continuous-time analysis: Liouvillians, spectral gaps, contraction
coefficients, rapid-mixing fits, and the finite-time no-go probe.

Superoperators act on row-major vectorized matrices. Dense superoperator work
is capped (default side 4096, i.e. D <= 64); commuting idempotent channel
families use the closed-form propagator e^{(E-I)t} = I + (1-e^{-t})(E-I)
instead, which keeps everything at matrix level.
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

    def trace_annihilation_defect(self, rng=None, probes: int = 4) -> float:
        rng = rng or np.random.default_rng(0)
        worst = 0.0
        for _ in range(probes):
            rho = random_density(self.dim, rng)
            worst = max(worst, abs(np.trace(self.apply(rho))))
        return float(worst)

    def choi_psd_defect(self, ts=(0.3, 1.0), atol: float = 1e-9) -> float:
        """Most negative Choi eigenvalue of e^{Lt} over the sampled times."""
        worst = 0.0
        d = self.dim
        for t in ts:
            s = self.propagator(t)
            choi = s.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
            worst = min(worst, float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0]))
        return -worst


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
    peripheral: np.ndarray
    e_infinity_rank: int
    e_phi_rank: int


def spectral_gap(l: Liouvillian, tol: float = 1e-9) -> SpectralReport:
    ev = np.linalg.eigvals(l.matrix)
    scale = max(1.0, float(np.max(np.abs(ev))))
    re = ev.real
    decaying = ev[re < -tol * scale]
    gap = float(np.min(np.abs(decaying.real))) if decaying.size else 0.0
    peripheral = ev[re >= -tol * scale]
    return SpectralReport(
        gap=gap,
        eigenvalues=ev,
        peripheral=peripheral,
        e_infinity_rank=int(np.sum(np.abs(ev) < tol * scale)),
        e_phi_rank=int(np.sum(re >= -tol * scale)),
    )


def stationary_state(l: Liouvillian, tol: float = 1e-9) -> np.ndarray:
    """Unique stationary density matrix (raises if the kernel is degenerate)."""
    from ._linalg import nullspace

    null = nullspace(l.matrix)
    if null.shape[1] != 1:
        raise ValueError(f"stationary space has dimension {null.shape[1]}")
    rho = null[:, 0].reshape(l.dim, l.dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho)
    ev = np.linalg.eigvalsh(rho)
    if ev.min() < -1e-8:
        raise ValueError("stationary matrix is not positive semidefinite")
    return rho


# ---------------------------------------------------------------------------
# contraction coefficient
# ---------------------------------------------------------------------------

class _Map:
    """Linear map given by apply/adjoint callables on D x D matrices; each
    callable also maps an (N, D, D) stack, matrix by matrix."""

    def __init__(self, dim, apply_fn, adjoint_fn):
        self.dim = dim
        self.apply = apply_fn
        self.adjoint = adjoint_fn


def _trace(x: np.ndarray) -> np.ndarray:
    """Trace of a matrix, or of each matrix of a stack, shaped to broadcast
    against it."""
    return np.trace(x, axis1=-2, axis2=-1)[..., None, None]


def _eta_lower(m: _Map, rng, n_samples: int = 256, n_refine: int = 4, iters: int = 20) -> float:
    """sup over pure inputs of (1/2)||M(rho)||_1 by sampling plus alternating ascent.

    The samples are drawn first, in order, and swept as stacks of
    `channels.stack_size(D)` inputs; each ascent runs on one state. LAPACK's
    divide-and-conquer zheevd (`np.linalg.eigh`) can fail to converge on a
    finite, exactly Hermitian input: it did on a 64 x 64 adjoint image with a
    paired spectrum (line 6, t = 1.5, seed 26000), where the MRRR driver
    converges. So the ascent takes only the top eigenvector of the adjoint
    image, by MRRR on that one index, and retries a failed full `eigh` of the
    image with MRRR.
    """
    d = m.dim
    vecs = np.array([random_pure(d, rng) for _ in range(n_samples)])
    vals = np.empty(n_samples)
    per = chan_mod.stack_size(d)
    for start in range(0, n_samples, per):
        v = vecs[start:start + per]
        a = m.apply(v[:, :, None] * v[:, None, :].conj())
        vals[start:start + per] = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm(a))), axis=-1)
    order = np.argsort(vals)[::-1]
    best = float(vals[order[0]])
    for idx in order[:n_refine]:
        rho = np.outer(vecs[idx], vecs[idx].conj())
        for _ in range(iters):
            a = herm(m.apply(rho))
            try:
                ev, vec = np.linalg.eigh(a)
            except np.linalg.LinAlgError:
                ev, vec = scipy.linalg.eigh(a, driver="evr")
            u = vec @ np.diag(np.sign(ev)) @ vec.conj().T
            b = herm(m.adjoint(u))
            v = scipy.linalg.eigh(b, subset_by_index=[d - 1, d - 1], driver="evr")[1][:, 0]
            rho_new = np.outer(v, v.conj())
            val = 0.5 * float(np.trace(u @ m.apply(rho_new)).real)
            if val <= 0.5 * float(np.sum(np.abs(ev))) - 1e-14:
                break
            rho = rho_new
        a = m.apply(rho)
        best = max(best, 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(herm(a))))))
    return best


def _eta_upper(m: _Map, rng, iters: int = 40) -> float:
    """(1/2) sqrt(D) * sigma_max(M) with sigma_max from power iteration."""
    d = m.dim
    x = random_density(d, rng).astype(complex)
    x = x / np.linalg.norm(x)
    sigma = 0.0
    for _ in range(iters):
        y = m.apply(x)
        z = m.adjoint(y)
        nz = np.linalg.norm(z)
        if nz < 1e-300:
            return 0.0
        sigma = np.sqrt(np.linalg.norm(y) ** 2 / max(np.linalg.norm(x) ** 2, 1e-300))
        x = z / nz
    # one more accurate Rayleigh estimate
    y = m.apply(x)
    sigma = np.linalg.norm(y) / np.linalg.norm(x)
    return 0.5 * float(np.sqrt(d) * sigma)


@dataclass(frozen=True)
class EtaSample:
    t: float
    lower: float
    upper: float


def contraction_eta(
    l: Liouvillian,
    t: float,
    rho_star: np.ndarray | None = None,
    seed: int = 0,
    n_samples: int = 256,
) -> EtaSample:
    """Bounds on eta(e^{Lt}) for a generator with a unique fixed point."""
    rng = np.random.default_rng(seed)
    if rho_star is None:
        rho_star = stationary_state(l)
    s = l.propagator(t)
    d = l.dim
    sh = s.conj().T

    def ap(x):
        y = (x.reshape(-1, d * d) @ s.T).reshape(x.shape)
        return y - rho_star * _trace(y)

    def adj(x):
        y = x - np.eye(d) * _trace(rho_star.conj().T @ x)
        return (y.reshape(-1, d * d) @ sh.T).reshape(x.shape)

    m = _Map(d, ap, adj)
    lo = _eta_lower(m, rng, n_samples=n_samples)
    up = _eta_upper(m, rng)
    return EtaSample(t=t, lower=lo, upper=max(up, lo))


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
        self.target = np.asarray(target, dtype=complex)
        self.rho_star = (
            np.outer(self.target, self.target.conj())
            if self.target.ndim == 1
            else self.target
        )

    def verify_structure(self, rng=None, tol: float = 1e-9) -> dict:
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

    def propagate(self, rho: np.ndarray, t: float) -> np.ndarray:
        """e^{sum_k L_k t}(rho) using e^{L_k t} = I + (1 - e^{-t}) (E_k - I)."""
        w = 1.0 - math.exp(-t)
        out = rho
        for c in self.channels:
            out = (1.0 - w) * out + w * chan_mod.apply(c, out, self.space)
        return out

    def propagate_adjoint(self, x: np.ndarray, t: float) -> np.ndarray:
        w = 1.0 - math.exp(-t)
        out = x
        for adj in reversed(self.adjoints):
            out = (1.0 - w) * out + w * chan_mod.apply(adj, out, self.space)
        return out

    def per_channel_gap(self, max_side: int = DEFAULT_SUPEROP_SIDE) -> float:
        """min_k gap(E_k - I); idempotent channels give exactly 1."""
        gaps = []
        for c in self.channels:
            remap, sub = chan_mod.relocate(c, c.support, self.space)
            l = liouvillian_from_channel(remap, sub, max_side=max_side)
            gaps.append(spectral_gap(l).gap)
        return float(min(gaps))

    def eta_sample(self, t: float, seed: int = 0, n_samples: int = 128) -> EtaSample:
        rng = np.random.default_rng(seed)
        d = self.space.total_dim

        def ap(x):
            y = self.propagate(x, t)
            return y - self.rho_star * _trace(y)

        def adj(x):
            y = x - np.eye(d) * _trace(self.rho_star.conj().T @ x)
            return self.propagate_adjoint(y, t)

        m = _Map(d, ap, adj)
        lo = _eta_lower(m, rng, n_samples=n_samples, n_refine=3, iters=12)
        up = _eta_upper(m, rng, iters=25)
        return EtaSample(t=t, lower=lo, upper=max(up, lo))

    def eta_single_channel(self, k: int, t: float, seed: int = 0, n_samples: int = 64) -> float:
        """Lower estimate of eta(e^{L_k t}) for one neighborhood generator."""
        rng = np.random.default_rng(seed)
        c, adjc = self.channels[k], self.adjoints[k]
        d = self.space.total_dim
        w = 1.0 - math.exp(-t)

        def prop(x):
            return (1.0 - w) * x + w * chan_mod.apply(c, x, self.space)

        def prop_adj(x):
            return (1.0 - w) * x + w * chan_mod.apply(adjc, x, self.space)

        # E_phi for a single idempotent channel is the channel itself
        def ap(x):
            y = prop(x)
            return y - chan_mod.apply(c, y, self.space)

        def adj(x):
            y = x - chan_mod.apply(adjc, x, self.space)
            return prop_adj(y)

        m = _Map(d, ap, adj)
        return _eta_lower(m, rng, n_samples=n_samples, n_refine=2, iters=10)


@dataclass(frozen=True)
class RapidMixingReport:
    passed: bool
    gamma: float
    delta: float
    log_c: float
    nu: float
    samples: tuple[tuple[int, float, float, float], ...]  # (N, t, lower, upper)
    commutation_defect: float


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
    for fam in family:
        chk = fam.verify_structure()
        if chk["commutation"] > 1e-8:
            raise ValueError("channel set does not commute")
        commute_defect = max(commute_defect, chk["commutation"])
        nu = min(nu, fam.per_channel_gap())
        n = fam.space.n_subsystems
        for t in ts:
            es = fam.eta_sample(t, seed=seed)
            samples.append((n, float(t), es.lower, es.upper))
            if 1e-11 < es.lower < fit_ceiling:
                rows.append((math.log(n), -float(t), math.log(es.lower)))
    if len(rows) < 3:
        raise ValueError("not enough usable samples for a fit")
    a = np.array([[1.0, r[0], r[1]] for r in rows])
    y = np.array([r[2] for r in rows])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    log_c, delta, gamma = float(coef[0]), float(coef[1]), float(coef[2])
    passed = gamma >= nu - gamma_slack and delta <= delta_cap
    return RapidMixingReport(
        passed=passed, gamma=gamma, delta=delta, log_c=log_c, nu=float(nu),
        samples=tuple(samples), commutation_defect=commute_defect,
    )


# ---------------------------------------------------------------------------
# no-go probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoGoReport:
    min_distance: float
    distances: tuple[tuple[float, float], ...]
    monotone: bool
    fixed_point_defect: float


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
        fixed_point_defect=fp_defect,
    )


def amplitude_damping_liouvillian(rate: float = 1.0) -> Liouvillian:
    """Qubit decay toward |0>."""
    l1 = np.sqrt(rate) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return liouvillian_gksl(np.zeros((2, 2)), [l1], label="amplitude-damping")
