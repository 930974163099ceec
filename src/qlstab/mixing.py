"""Continuous-time analysis: Liouvillians, spectral gaps, contraction
coefficients, rapid-mixing fits, and the finite-time no-go probe.

Superoperators act on row-major vectorized matrices. Dense superoperator work
is capped (default side 4096, i.e. D <= 64); commuting idempotent channel
families use the closed-form propagator e^{(E-I)t} = I + (1-e^{-t})(E-I)
instead, which keeps everything at matrix level.

eta(t) of a `CommutingResetFamily` is proven, not estimated, once its
hypotheses hold (`ResetProof`, checked once per family from local data):
each E_k is the identity on B(W_k), W_k the range of E_k(I) on its support;
the maps commute; and the intersection of the W_k (x) I is span(psi). Then
e^{tL} = prod_k ((1 - w) id + w E_k) with w = 1 - e^{-t}, and
eta(t) <= 1 - (1 - e^{-t})^N <= N e^{-t}: rapid mixing in the sense of
Kastoryano & Temme (J. Math. Phys. 54:052202, 2013), with unit constants.
The envelope is each sample's upper bound and what `rapid_mixing_check`
fits; the lower bound is the exact distance at one witness input, which
attains the envelope on the line-graph families to about 1e-14. For one
channel, eta is e^{-t} when W_k is proper. The sampled estimate
(`_eta_lower`: drawn pure inputs, then ascents) runs only for a family that
fails the hypotheses, such as one with a mixed target, and the tests keep it
as the oracle of the envelope.

The sampled estimates over a time grid run as one stacked pass
(`CommutingResetFamily.sampled_eta`). Every t is estimated from the same
seed, so all t draw the same samples, and the ascents draw nothing after
that. Running the t in lockstep therefore changes neither the draws nor the
iterates: each t gets the estimate it gets alone, up to roundoff, for about
the channel applies of one t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import expm

from . import channels as chan_mod
from ._linalg import DEFAULT_TOL, herm, random_pure, rank_cutoff, trace_distance
from .channels import Channel
from .hilbert import MultipartiteSpace
from .subspaces import ExtendedSpan, _sweep, _tightest

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
    that seed every map alike (`CommutingResetFamily.sampled_eta`) get each
    map's single estimate, up to roundoff. Each step's image M(rho_new) is
    the next step's M(rho), so a step costs one adjoint and one apply. The
    ascent direction V sign(Lambda) V^H gives roundoff eigenvalues sign 0
    (`_ascent_signs`), so the path does not depend on roundoff.

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


@dataclass(frozen=True)
class EtaSample:
    """eta(t) between `lower` and `upper`. On the closed-form path `upper` is
    the proven envelope 1 - (1 - e^{-t})^N and `lower` the exact value at one
    witness input; on the sampled path `lower` is the sampled estimate and
    `upper` the trivial bound 1 (a trace distance between states)."""

    t: float
    lower: float
    upper: float


# ---------------------------------------------------------------------------
# commuting channel families (closed-form semigroups)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResetProof:
    """The hypotheses of the closed-form eta envelope of a
    `CommutingResetFamily`, from local fixed-point data.

    For channel k, W_k is the range of E_k(I_m) on its support, of dimension
    range_dims[k]; range_margin is the (smallest kept, largest dropped)
    eigenvalue of E_k(I_m) over its largest, the tightest over k (None when
    no channel drops one). identity_defects[k] is the largest
    ||E_k(X) - X||_F over the r_k^2 matrix units X = w_i w_j^H of B(W_k).
    commutation is `rfts.channels_commute_pairwise`. The intersection of the
    W_k (x) I, from `subspaces._sweep`, has dimension intersection_dim, and
    largest_kept and smallest_dropped are the margins of its cuts.
    """

    range_dims: tuple[int, ...]
    range_margin: tuple[float | None, float | None]
    identity_defects: tuple[float, ...]
    commutation: float
    pure_target: bool
    intersection_dim: int
    contains_target: bool
    largest_kept: float | None
    smallest_dropped: float | None

    @property
    def identity_defect(self) -> float:
        return max(self.identity_defects, default=0.0)

    @property
    def holds(self) -> bool:
        """Each E_k sends every state onto W_k (x) H_rest, since E_k(rho) <=
        E_k(I) (x) I for rho <= I, and is the identity on B(W_k) (x) B(H_rest):
        so it is idempotent with exactly the states on W_k (x) H_rest as fixed
        points. With the maps commuting, a product over every channel leaves
        its output on the intersection of the W_k (x) I, which is span(psi).
        """
        return (
            self.pure_target
            and self.commutation <= DEFAULT_TOL.commutator
            and self.identity_defect <= DEFAULT_TOL.invariance
            and self.intersection_dim == 1
            and self.contains_target
        )


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

    def _apply(self, c: Channel, x: np.ndarray, space: MultipartiteSpace | None = None) -> np.ndarray:
        self.applies += 1
        return chan_mod.apply(c, x, space or self.space)

    @functools.cached_property
    def _local(self) -> list[tuple]:
        """Per channel: (W_k on the sorted support, its identity defect, the
        eigenvalues of E_k(I_m) in descending order, and (1/2)||v v^H -
        E_k(v v^H)||_1 at the eigenvector v of the smallest one, or 0 when
        W_k is the whole support)."""
        out = []
        for c in self.channels:
            remap, sub = chan_mod.relocate(c, c.support, self.space)
            m = sub.total_dim
            ev, vec = np.linalg.eigh(herm(self._apply(remap, np.eye(m, dtype=complex), sub)))
            ev, vec = ev[::-1], vec[:, ::-1]
            r = rank_cutoff(ev, (m, m))
            w = vec[:, :r]
            units = np.einsum("ai,bj->ijab", w, w.conj()).reshape(r * r, m, m)
            defect = float(np.max(np.linalg.norm(self._apply(remap, units, sub) - units, axis=(1, 2)), initial=0.0))
            away = 0.0
            if r < m:
                x = np.outer(vec[:, -1], vec[:, -1].conj())
                away = float(_half_trace_norm(x - self._apply(remap, x, sub)))
            out.append((w, defect, ev, away))
        return out

    @functools.cached_property
    def _spans(self) -> list[ExtendedSpan]:
        """W_k (x) I for every channel."""
        return [ExtendedSpan(w, tuple(sorted(c.support)), self.space) for c, (w, *_) in zip(self.channels, self._local)]

    @functools.cached_property
    def proof(self) -> ResetProof:
        """The hypotheses of the closed-form envelope, checked once."""
        from .rfts import channels_commute_pairwise

        local = self._local
        region, v, kept, dropped = _sweep(self._spans)
        inter = ExtendedSpan(v, region, self.space)
        pure = self.target.ndim == 1
        dims = [w.shape[1] for w, *_ in local]
        kept_ev = [ev[r - 1] / ev[0] for r, (_, _, ev, _) in zip(dims, local)]
        dropped_ev = [ev[r] / ev[0] for r, (_, _, ev, _) in zip(dims, local) if r < ev.size]
        return ResetProof(
            range_dims=tuple(dims),
            range_margin=(float(min(kept_ev)), float(max(dropped_ev)) if dropped_ev else None),
            identity_defects=tuple(defect for _, defect, *_ in local),
            commutation=channels_commute_pairwise(self.channels, self.space),
            pure_target=pure,
            intersection_dim=inter.dim,
            contains_target=pure and inter.contains(self.target),
            largest_kept=kept,
            smallest_dropped=dropped,
        )

    @property
    def method(self) -> str:
        """The path `eta_samples` takes: "closed-form" or "sampled"."""
        return "closed-form" if self.proof.holds else "sampled"

    @functools.cached_property
    def _witness(self) -> np.ndarray:
        """Ground vector of sum_k P_k, P_k the projector onto W_k (x) I: the
        input farthest from every W_k."""
        return np.linalg.eigh(sum(span.projector() for span in self._spans))[1][:, 0]

    def _evolve(self, x: np.ndarray, w, chans) -> np.ndarray:
        """Each channel E of `chans` in turn as (1 - w) I + w E; w a scalar,
        or one weight per matrix of a stack, shaped to broadcast against it."""
        out = x
        for c in chans:
            out = (1.0 - w) * out + w * self._apply(c, out)
        return out

    def propagate(self, rho: np.ndarray, t) -> np.ndarray:
        """e^{sum_k L_k t}(rho) using e^{L_k t} = I + (1 - e^{-t}) (E_k - I).

        t is a scalar, or a 1-d array of times: then one stack holds rho
        propagated to each time.
        """
        t = np.asarray(t, dtype=float)
        w = 1.0 - np.exp(-t)
        if t.ndim:
            rho, w = np.repeat(np.asarray(rho)[None], t.size, axis=0), w[:, None, None]
        return self._evolve(rho, w, self.channels)

    def per_channel_gap(self, max_side: int = DEFAULT_SUPEROP_SIDE) -> float:
        """min_k gap(E_k - I); idempotent channels give exactly 1."""
        gaps = []
        for c in self.channels:
            remap, sub = chan_mod.relocate(c, c.support, self.space)
            l = liouvillian_from_channel(remap, sub, max_side=max_side)
            gaps.append(spectral_gap(l).gap)
        return float(min(gaps))

    def eta_samples(self, ts, seed: int = 0, n_samples: int = 128) -> list[EtaSample]:
        """Bounds on eta(t), the largest half trace norm of e^{Lt}(rho) -
        rho_star over pure rho, at every t of `ts`.

        When `proof` holds, e^{Lt} = prod_k ((1 - w) id + w E_k) with
        w = 1 - e^{-t}. Expanded over subsets of the channels, the product of
        all N is the reset to rho_star and every other product maps states
        to states, so eta(t) <= 1 - w^N <= N e^{-t}: that envelope is `upper`.
        `lower` is the exact distance at the witness input (`_witness`),
        propagated to every t as one stack. Otherwise `lower` is
        `sampled_eta` from `seed` and `n_samples`, and `upper` is 1.
        """
        ts = [float(t) for t in ts]
        if not ts:
            return []
        if not self.proof.holds:
            lo = self.sampled_eta(ts, seed=seed, n_samples=n_samples)
            return [EtaSample(t=t, lower=float(l), upper=1.0) for t, l in zip(ts, lo)]
        phi = np.outer(self._witness, self._witness.conj())
        per = chan_mod.stack_size(self.space.total_dim)
        lo = np.concatenate([_half_trace_norm(self.propagate(phi, ts[g:g + per]) - self.rho_star)
                             for g in range(0, len(ts), per)])
        n = len(self.channels)
        return [EtaSample(t=t, lower=float(l), upper=1.0 - (1.0 - math.exp(-t)) ** n) for t, l in zip(ts, lo)]

    def eta_sample(self, t: float, seed: int = 0, n_samples: int = 128) -> EtaSample:
        return self.eta_samples([t], seed=seed, n_samples=n_samples)[0]

    def _eta_map(self, ts) -> _Map:
        """e^{Lt} - rho_star Tr at each t of `ts`, with its adjoint, as one
        `_Map`; the weight 1 - e^{-t} of each matrix is broadcast over the
        stack."""
        d = self.space.total_dim
        ws = np.array([1.0 - math.exp(-float(t)) for t in ts])
        adjoints = self.adjoints[::-1]

        def ap(x, k):
            y = self._evolve(x, ws[k][:, None, None], self.channels)
            return y - self.rho_star * _trace(y)

        def adj(x, k):
            y = x - np.eye(d) * _trace(self.rho_star.conj().T @ x)
            return self._evolve(y, ws[k][:, None, None], adjoints)

        return _Map(d, len(ws), ap, adj)

    def sampled_eta(self, ts, seed: int = 0, n_samples: int = 128) -> np.ndarray:
        """Sampled lower estimate of eta(t) at every t of `ts`, in one
        stacked pass.

        The samples are drawn once from `seed` and serve every t, which is
        what one call per t with the same seed draws; the ascents of all t
        run in lockstep (`_eta_lower`).
        """
        return _eta_lower(self._eta_map(ts), np.random.default_rng(seed), n_samples=n_samples, n_refine=3, iters=12)

    def eta_single_channel(self, k: int, t: float, seed: int = 0, n_samples: int = 64) -> float:
        """eta(e^{L_k t}) for one neighborhood generator, against E_k.

        When E_k is the identity on B(W_k) (identity defect within
        `DEFAULT_TOL.invariance`), it is idempotent and e^{L_k t} - E_k e^{L_k t}
        = e^{-t} (id - E_k), so this is e^{-t} sup (1/2)||rho - E_k(rho)||_1:
        e^{-t} when W_k is proper, attained at an input orthogonal to W_k,
        where it is evaluated, and 0 when W_k is the whole support. Otherwise
        the sampled lower estimate (`sampled_eta_single_channel`).
        """
        _, defect, _, away = self._local[k]
        if defect <= DEFAULT_TOL.invariance:
            return math.exp(-t) * away
        return self.sampled_eta_single_channel(k, t, seed=seed, n_samples=n_samples)

    def sampled_eta_single_channel(self, k: int, t: float, seed: int = 0, n_samples: int = 64) -> float:
        """Sampled lower estimate of eta(e^{L_k t}) against E_k."""
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
    """`method` is "closed-form" when every family's `proof` holds and the
    fit ran on the envelope, "sampled" otherwise (the fit then takes the
    envelope of the proven families and the sampled lower estimate of the
    others). identity_defect, commutation_defect and the intersection
    margins are the worst over the families; max_gap is the largest
    upper - lower over the proven families' samples (None if there is none).
    """

    passed: bool
    gamma: float
    delta: float
    log_c: float
    nu: float
    samples: tuple[tuple[int, float, float, float], ...]  # (N, t, lower, upper)
    commutation_defect: float
    applies: int  # channels.apply calls made through the families
    method: str
    identity_defect: float
    largest_kept: float | None
    smallest_dropped: float | None
    max_gap: float | None


def rapid_mixing_check(
    family: list[CommutingResetFamily],
    ts,
    seed: int = 0,
    gamma_slack: float = 0.05,
    delta_cap: float = 1.1,
    fit_ceiling: float = 0.5,
) -> RapidMixingReport:
    """Fit eta(t) ~ c N^delta e^{-gamma t} over a scalable commuting family.

    The fit runs on the proven envelope 1 - (1 - e^{-t})^N of each family
    whose `proof` holds, and on the sampled lower estimate otherwise. Its
    large-t limit is N e^{-t}, so the fit reads close to gamma = delta = 1.
    Early-time values saturate near eta ~ 1 and would bias the decay rate,
    so only values below `fit_ceiling` (and above the numerical floor) enter
    the fit. All samples are reported.
    """
    rows = []
    samples = []
    nu = np.inf
    applies = 0
    gaps = []
    for fam in family:
        before = fam.applies
        proof = fam.proof
        if proof.commutation > DEFAULT_TOL.commutator:
            raise ValueError("channel set does not commute")
        nu = min(nu, fam.per_channel_gap())
        n = fam.space.n_subsystems
        for es in fam.eta_samples(ts, seed=seed):
            samples.append((n, es.t, es.lower, es.upper))
            value = es.upper if proof.holds else es.lower
            if proof.holds:
                gaps.append(es.upper - es.lower)
            if 1e-11 < value < fit_ceiling:
                rows.append((math.log(n), -es.t, math.log(value)))
        applies += fam.applies - before
    if len(rows) < 3:
        raise ValueError("not enough usable samples for a fit")
    a = np.array([[1.0, r[0], r[1]] for r in rows])
    y = np.array([r[2] for r in rows])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    log_c, delta, gamma = float(coef[0]), float(coef[1]), float(coef[2])
    passed = gamma >= nu - gamma_slack and delta <= delta_cap
    proofs = [fam.proof for fam in family]
    kept, dropped = _tightest([(p.largest_kept, p.smallest_dropped) for p in proofs])
    return RapidMixingReport(
        passed=passed, gamma=gamma, delta=delta, log_c=log_c, nu=float(nu),
        samples=tuple(samples), commutation_defect=max(p.commutation for p in proofs), applies=applies,
        method="closed-form" if all(p.holds for p in proofs) else "sampled",
        identity_defect=max(p.identity_defect for p in proofs),
        largest_kept=kept, smallest_dropped=dropped,
        max_gap=max(gaps) if gaps else None,
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
