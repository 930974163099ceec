"""Continuous-time analysis on Kraus channels: the proven contraction
envelope of commuting reset families, the rapid-mixing fit over it, and the
finite-time no-go probe.

Every map here is a `channels.Channel`, and no superoperator or dense
generator is formed. Each E_k - I is exponentiated in closed form: for
idempotent E_k, e^{(E_k - I)t} = I + (1 - e^{-t})(E_k - I), which keeps
everything at matrix level, and gap(E_k - I) is 1, or 0 when E_k = id.

eta(t) of a `CommutingResetFamily` is proven, never estimated, and nothing
here draws an input. The hypotheses (`ResetProof`, checked once per family
from local data) are: each E_k is the identity on B(W_k), W_k the range of
E_k(I) on its support; the maps commute; and the intersection of the
W_k (x) I is span(psi). Then e^{tL} = prod_k ((1 - w) id + w E_k) with
w = 1 - e^{-t}, and eta(t) <= 1 - (1 - e^{-t})^N <= N e^{-t}: rapid mixing
in the sense of Kastoryano & Temme (J. Math. Phys. 54:052202, 2013), with
unit constants. The envelope is each sample's upper bound and the only
thing `rapid_mixing_check` fits; a family that fails a hypothesis stops the
check. The lower bound is the exact distance at one witness input, which
attains the envelope on the line-graph families to about 1e-14. For one
channel, eta is e^{-t} when W_k is proper.

A family that fails the hypotheses but whose maps commute and are each
idempotent (a mixed target, a dropped channel) still has the product
propagator: its samples are "unproven", with the witness distance as
`lower` and the trivial bound 1 as `upper`. When the maps do not commute,
or one is not idempotent, the product is not e^{tL}, and asking for eta
raises ValueError.

The no-go side: a Markov semigroup reaches its fixed point only
asymptotically. `no_go_probe` shows it on any semigroup given as t -> the
channel e^{tL}, such as amplitude damping, whose semigroup has a closed
form (`amplitude_damping_liouvillian`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channels as chan_mod
from ._linalg import DEFAULT_TOL, check_budget, complete_basis, herm, rank_cutoff, trace_distance
from .channels import Channel, make_channel
from .hilbert import MultipartiteSpace, uniform_space
from .subspaces import ExtendedSpan, _sweep, _tightest

# The rapid-mixing fit reads only envelope values below FIT_CEILING, and
# passes when gamma >= nu - GAMMA_SLACK and delta <= DELTA_CAP.
GAMMA_SLACK = 0.05
DELTA_CAP = 1.1
FIT_CEILING = 0.5

# D x D complex arrays per state of a stack that `eta_samples` holds at once:
# the stack, the two terms of each step and their sum, the apply's
# temporaries, the distance and its Hermitian part (traced peak: about 7)
ETA_ARRAYS = 8


# ---------------------------------------------------------------------------
# contraction coefficient
# ---------------------------------------------------------------------------

def _half_trace_norm(a: np.ndarray) -> np.ndarray:
    """(1/2)||herm(a)||_1 of each matrix of a stack."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm(a))), axis=-1)


@dataclass(frozen=True)
class EtaSample:
    """eta(t) between `lower` and `upper`. `lower` is the exact distance at
    one witness input, so a true lower bound. `upper` is the proven envelope
    1 - (1 - e^{-t})^N when the family's `proof` holds, and otherwise the
    trivial bound 1 (a trace distance between states)."""

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
    idempotency_defects[k] is the largest ||E_k(E_k(X)) - E_k(X)||_F over
    the m_k^2 matrix units of its support, taken only when the identity
    defect fails the gate, and None otherwise (then E_k is idempotent, see
    `holds`). commutation is `rfts.channels_commute_pairwise`. The
    intersection of the W_k (x) I, from `subspaces._sweep`, has dimension
    intersection_dim, and largest_kept and smallest_dropped are the margins
    of its cuts.
    """

    range_dims: tuple[int, ...]
    range_margin: tuple[float | None, float | None]
    identity_defects: tuple[float, ...]
    idempotency_defects: tuple[float | None, ...]
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
    def product_failure(self) -> str | None:
        """Why prod_k ((1 - w) id + w E_k) is not e^{tL}, or None when it is:
        that takes commuting maps, each one idempotent."""
        if self.commutation > DEFAULT_TOL.commutator:
            return f"the maps do not commute (defect {self.commutation:.2e})"
        for k, d in enumerate(self.idempotency_defects):
            if d is not None and d > DEFAULT_TOL.invariance:
                return f"channel {k} is not idempotent (defect {d:.2e})"
        return None

    @property
    def failure(self) -> str | None:
        """The first hypothesis of the envelope that fails, or None."""
        if not self.pure_target:
            return "the target is mixed"
        if self.commutation > DEFAULT_TOL.commutator:
            return self.product_failure  # which names the commutation defect
        for k, d in enumerate(self.identity_defects):
            if d > DEFAULT_TOL.invariance:
                return f"channel {k} is not the identity on B(W_k) (defect {d:.2e})"
        if self.intersection_dim != 1:
            return f"the intersection of the W_k (x) I has dimension {self.intersection_dim}, not 1"
        if not self.contains_target:
            return "the intersection of the W_k (x) I does not contain the target"
        return None

    @property
    def holds(self) -> bool:
        """Each E_k sends every state onto W_k (x) H_rest, since E_k(rho) <=
        E_k(I) (x) I for rho <= I, and is the identity on B(W_k) (x) B(H_rest):
        so it is idempotent with exactly the states on W_k (x) H_rest as fixed
        points. With the maps commuting, a product over every channel leaves
        its output on the intersection of the W_k (x) I, which is span(psi).
        """
        return self.failure is None


class CommutingResetFamily:
    """Semigroup generated by sum_k (E_k - I) for commuting idempotent E_k."""

    def __init__(self, channels: list[Channel], space: MultipartiteSpace, target):
        self.channels = list(channels)
        self.space = space
        self.applies = 0  # channels.apply calls made through this family
        self.target = np.asarray(target, dtype=complex)

    @functools.cached_property
    def rho_star(self) -> np.ndarray:
        """The target as a density matrix, built on first read: a pure
        target's |psi><psi| is D x D, and `proof` never reads it."""
        return np.outer(self.target, self.target.conj()) if self.target.ndim == 1 else self.target

    def _apply(self, c: Channel, x: np.ndarray, space: MultipartiteSpace | None = None) -> np.ndarray:
        self.applies += 1
        return chan_mod.apply(c, x, space or self.space)

    @functools.cached_property
    def _local(self) -> list[tuple]:
        """Per channel: (W_k on the sorted support, its identity defect, the
        eigenvalues of E_k(I_m) in descending order, (1/2)||v v^H -
        E_k(v v^H)||_1 at the eigenvector v of the smallest one, or 0 when
        W_k is the whole support, and its idempotency defect, or None when
        the identity defect passes). Each defect holds four stacks of its n
        matrix units' size at once (in `apply`: the units, the output, the
        two products of a term; then the units, the difference and the two
        factors of its norm), refused past `_linalg.MAX_BYTES`."""
        out = []
        for k, c in enumerate(self.channels):
            remap, sub = chan_mod.relocate(c, c.support, self.space)
            m = sub.total_dim
            ev, vec = np.linalg.eigh(herm(self._apply(remap, np.eye(m, dtype=complex), sub)))
            ev, vec = ev[::-1], vec[:, ::-1]
            r = rank_cutoff(ev, (m, m))
            w = vec[:, :r]
            check_budget(4 * 16 * r * r * m * m, f"identity defect of channel {k} on {r}^2 units of size {m}")
            units = np.einsum("ai,bj->ijab", w, w.conj()).reshape(r * r, m, m)
            defect = float(np.max(np.linalg.norm(self._apply(remap, units, sub) - units, axis=(1, 2)), initial=0.0))
            del units
            away = 0.0
            if r < m:
                x = np.outer(vec[:, -1], vec[:, -1].conj())
                away = float(_half_trace_norm(x - self._apply(remap, x, sub)))
            idempotency = None
            if defect > DEFAULT_TOL.invariance:
                check_budget(4 * 16 * m**4, f"idempotency check of channel {k} on {m}^2 units of size {m}")
                once = self._apply(remap, np.eye(m * m, dtype=complex).reshape(m * m, m, m), sub)
                idempotency = float(np.max(np.linalg.norm(self._apply(remap, once, sub) - once, axis=(1, 2))))
            out.append((w, defect, ev, away, idempotency))
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
        kept_ev = [ev[r - 1] / ev[0] for r, (_, _, ev, *_) in zip(dims, local)]
        dropped_ev = [ev[r] / ev[0] for r, (_, _, ev, *_) in zip(dims, local) if r < ev.size]
        return ResetProof(
            range_dims=tuple(dims),
            range_margin=(float(min(kept_ev)), float(max(dropped_ev)) if dropped_ev else None),
            identity_defects=tuple(defect for _, defect, *_ in local),
            idempotency_defects=tuple(idempotency for *_, idempotency in local),
            commutation=channels_commute_pairwise(self.channels, self.space),
            pure_target=pure,
            intersection_dim=inter.dim,
            contains_target=pure and inter.contains(self.target),
            largest_kept=kept,
            smallest_dropped=dropped,
        )

    @property
    def method(self) -> str:
        """What `eta_samples` reports: "closed-form" when `proof` holds,
        "unproven" otherwise."""
        return "closed-form" if self.proof.holds else "unproven"

    @functools.cached_property
    def _witness(self) -> np.ndarray:
        """Ground vector of sum_k P_k, P_k the projector onto W_k (x) I: the
        input farthest from every W_k. When every W_k is its whole support,
        sum_k P_k = N I picks no vector, and the witness is the eigenvector of
        rho_star for its smallest eigenvalue, the input farthest from it.
        Guarded at six D x D complex arrays: `eigh` holds five (the matrix,
        LAPACK's copy and two work arrays, the eigenvectors) and small ones."""
        d = self.space.total_dim
        check_budget(6 * 16 * d * d, f"witness eigenproblem of D = {d}")
        whole = all(w.shape[0] == w.shape[1] for w, *_ in self._local)
        h = self.rho_star if whole else sum(span.projector() for span in self._spans)
        return np.linalg.eigh(h)[1][:, 0].copy()  # a view would keep every eigenvector

    def _evolve(self, x: np.ndarray, w, chans) -> np.ndarray:
        """Each channel E of `chans` in turn as (1 - w) I + w E; w a scalar,
        or one weight per matrix of a stack, shaped to broadcast against it."""
        out = x
        for c in chans:
            out = (1.0 - w) * out + w * self._apply(c, out)
        return out

    def propagate(self, rho: np.ndarray, t) -> np.ndarray:
        """e^{sum_k L_k t}(rho) using e^{L_k t} = I + (1 - e^{-t}) (E_k - I),
        exact when the maps commute and each is idempotent
        (`ResetProof.product_failure`).

        t is a scalar, or a 1-d array of times: then one stack holds rho
        propagated to each time.
        """
        t = np.asarray(t, dtype=float)
        w = 1.0 - np.exp(-t)
        if t.ndim:
            rho, w = np.repeat(np.asarray(rho)[None], t.size, axis=0), w[:, None, None]
        return self._evolve(rho, w, self.channels)

    def per_channel_gap(self) -> float:
        """min_k gap(E_k - I), the smallest |Re| of a decaying eigenvalue of
        E_k - I, or 0 when none decays. The maps must be commuting
        idempotents (ValueError naming `ResetProof.product_failure`), so E_k
        has spectrum in {0, 1}: the gap is 0 when E_k is the identity and 1
        otherwise. E_k is the identity when W_k is its whole support and the
        identity defect passes; when only idempotency was checked, when its
        rank, its trace sum_j |tr K_j|^2 for an idempotent map, is m_k^2."""
        failure = self.proof.product_failure
        if failure is not None:
            raise ValueError(f"per_channel_gap needs commuting idempotent maps: {failure}")
        identity = [w.shape[1] == w.shape[0] if defect <= DEFAULT_TOL.invariance
                    else round(sum(abs(np.trace(k)) ** 2 for k in c.kraus)) == w.shape[0] ** 2
                    for c, (w, defect, *_) in zip(self.channels, self._local)]
        return 0.0 if any(identity) else 1.0

    def eta_samples(self, ts) -> list[EtaSample]:
        """Bounds on eta(t), the largest half trace norm of e^{Lt}(rho) -
        rho_star over pure rho, at every t of `ts`. Nothing is drawn.

        With commuting idempotent maps, e^{Lt} = prod_k ((1 - w) id + w E_k)
        with w = 1 - e^{-t} (`propagate`). `lower` is the exact distance at
        the witness input (`_witness`), propagated to the times
        `channels.stack_size(D)` at a time. When `proof` holds, the product
        of all N is the reset to rho_star and every other product over a
        subset of the channels maps states to states, so
        eta(t) <= 1 - w^N <= N e^{-t}: that envelope is `upper`. Otherwise
        `upper` is 1 (`method` "unproven"). Raises ValueError on a negative
        or non-finite t, and, naming the hypothesis, when the maps do not
        commute or one is not idempotent: the product is then not e^{tL}.
        Raises CapExceeded before the witness is built when rho_star, the
        witness input and `ETA_ARRAYS` arrays per state of a stack pass
        `_linalg.MAX_BYTES`.
        """
        ts = [float(t) for t in ts]
        if not all(0 <= t < math.inf for t in ts):
            raise ValueError(f"eta needs non-negative finite times, got {ts}")
        failure = self.proof.product_failure
        if failure is not None:
            raise ValueError(f"eta needs commuting idempotent maps: {failure}")
        if not ts:
            return []
        d = self.space.total_dim
        per = chan_mod.stack_size(d)
        size = min(per, len(ts))
        check_budget(16 * d * d * (2 + ETA_ARRAYS * size), f"eta samples of D = {d}, {size} at a time")
        phi = np.outer(self._witness, self._witness.conj())
        lo = np.concatenate([_half_trace_norm(self.propagate(phi, ts[g:g + per]) - self.rho_star)
                             for g in range(0, len(ts), per)])
        n, proven = len(self.channels), self.proof.holds
        return [EtaSample(t=t, lower=float(l), upper=1.0 - (1.0 - math.exp(-t)) ** n if proven else 1.0)
                for t, l in zip(ts, lo)]

    def eta_sample(self, t: float, seed: int = 0) -> EtaSample:
        """`eta_samples` at one t; `seed` is not read."""
        return self.eta_samples([t])[0]

    def eta_single_channel(self, k: int, t: float, seed: int = 0) -> float:
        """eta(e^{L_k t}) for one neighborhood generator, against E_k.

        E_k must be the identity on B(W_k) (identity defect within
        `DEFAULT_TOL.invariance`), and raises ValueError otherwise. It is
        then idempotent and e^{L_k t} - E_k e^{L_k t} = e^{-t} (id - E_k), so
        this is e^{-t} sup (1/2)||rho - E_k(rho)||_1: e^{-t} when W_k is
        proper, attained at an input orthogonal to W_k, where it is
        evaluated, and 0 when W_k is the whole support. `seed` is not read.
        """
        _, defect, _, away, _ = self._local[k]
        if defect > DEFAULT_TOL.invariance:
            raise ValueError(f"channel {k} is not the identity on B(W_k) (defect {defect:.2e})")
        return math.exp(-t) * away


@dataclass(frozen=True)
class RapidMixingReport:
    """`method` is always "closed-form": the fit ran on the proven envelope,
    since a family whose `proof` fails stops `rapid_mixing_check`.
    identity_defect, commutation_defect and the intersection margins are the
    worst over the families; max_gap is the largest upper - lower over the
    samples.
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
    max_gap: float


def rapid_mixing_check(family: list[CommutingResetFamily], ts, seed: int = 0) -> RapidMixingReport:
    """Fit eta(t) ~ c N^delta e^{-gamma t} over a scalable commuting family.

    Every family must be proven: the first one whose `proof` fails raises
    ValueError, naming the hypothesis. The fit runs on the proven envelope
    1 - (1 - e^{-t})^N, whose large-t limit is N e^{-t}, so it reads close to
    gamma = delta = 1. Early-time values saturate near eta ~ 1 and would
    bias the decay rate, so only values below `FIT_CEILING` (and above the
    numerical floor) enter the fit. It passes when gamma >= nu - `GAMMA_SLACK`
    and delta <= `DELTA_CAP`. All samples are reported. `seed` is not read.
    """
    rows = []
    samples = []
    nu = np.inf
    applies = 0
    gaps = []
    for fam in family:
        before = fam.applies
        n = fam.space.n_subsystems
        failure = fam.proof.failure
        if failure is not None:
            raise ValueError(f"the family with N = {n} is not proven: {failure}")
        nu = min(nu, fam.per_channel_gap())
        for es in fam.eta_samples(ts):
            samples.append((n, es.t, es.lower, es.upper))
            gaps.append(es.upper - es.lower)
            if 1e-11 < es.upper < FIT_CEILING:
                rows.append((math.log(n), -es.t, math.log(es.upper)))
        applies += fam.applies - before
    if len(rows) < 3:
        raise ValueError("not enough usable samples for a fit")
    a = np.array([[1.0, r[0], r[1]] for r in rows])
    y = np.array([r[2] for r in rows])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    log_c, delta, gamma = float(coef[0]), float(coef[1]), float(coef[2])
    passed = gamma >= nu - GAMMA_SLACK and delta <= DELTA_CAP
    proofs = [fam.proof for fam in family]
    kept, dropped = _tightest([(p.largest_kept, p.smallest_dropped) for p in proofs])
    return RapidMixingReport(
        passed=passed, gamma=gamma, delta=delta, log_c=log_c, nu=float(nu),
        samples=tuple(samples), commutation_defect=max(p.commutation for p in proofs), applies=applies,
        method="closed-form",
        identity_defect=max(p.identity_defect for p in proofs),
        largest_kept=kept, smallest_dropped=dropped,
        max_gap=max(gaps),
    )


# ---------------------------------------------------------------------------
# no-go probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoGoReport:
    min_distance: float
    distances: tuple[tuple[float, float], ...]
    monotone: bool


def no_go_probe(semigroup, psi: np.ndarray, ts, start: np.ndarray | None = None) -> NoGoReport:
    """Trace distance to the fixed point |psi><psi| of the semigroup
    t -> E_t = `semigroup(t)`, a one-site `Channel`, from `start` (default: a
    pure state orthogonal to psi) at every t of `ts`. For a Markov semigroup
    it stays strictly positive at every finite t. Raises ValueError when
    E_t(target) differs from target by more than 1e-8 at some t of `ts`.
    """
    psi = np.asarray(psi, dtype=complex)
    target = np.outer(psi, psi.conj())
    if start is None:
        q = complete_basis(psi / np.linalg.norm(psi))
        start = np.outer(q[:, 1], q[:, 1].conj())
    space = uniform_space(1, psi.size)
    dists = []
    for t in ts:
        fixed, rho_t = chan_mod.apply(semigroup(float(t)), np.stack([target, start]), space)
        fp_defect = float(np.max(np.abs(fixed - target)))
        if fp_defect > 1e-8:
            raise ValueError(f"target is not a fixed point (defect {fp_defect:.2e} at t = {float(t)})")
        dists.append((float(t), trace_distance(rho_t, target)))
    values = [d for _, d in dists]
    monotone = all(a >= b - 1e-10 for a, b in zip(values, values[1:]))
    return NoGoReport(
        min_distance=float(min(values)),
        distances=tuple(dists),
        monotone=monotone,
    )


def amplitude_damping_liouvillian(rate: float = 1.0):
    """The semigroup t -> e^{tL} of qubit decay toward |0>, L = rate
    (sigma_- . sigma_+ - {sigma_+ sigma_-, .}/2), in closed form (Nielsen &
    Chuang, sec. 8.3.5): at time t, the channel with Kraus operators
    |0><0| + e^{-rate t/2}|1><1| and sqrt(1 - e^{-rate t})|0><1|."""

    def channel(t: float) -> Channel:
        decay = math.exp(-rate * t)
        return make_channel([np.diag([1.0, math.sqrt(decay)]), [[0.0, math.sqrt(1.0 - decay)], [0.0, 0.0]]],
                            [0], label=f"amplitude-damping(t={t})")

    return channel
