import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import (
    Liouvillian,
    Map,
    amplitude_damping_generator,
    eta_lower,
    eta_map,
    eta_upper,
    liouvillian_from_channel,
    sampled_eta,
    sampled_eta_single_channel,
    spectral_gap,
    stack_trace,
    unitary_channel,
)
from qlstab import _linalg, mixing
from qlstab import channels as chan_mod
from qlstab import states
from qlstab._linalg import random_density, trace_distance
from qlstab.channels import make_channel, reset_channel, superoperator
from qlstab.hilbert import uniform_space
from qlstab._linalg import nullspace
from qlstab.mixing import (
    CommutingResetFamily,
    EtaSample,
    amplitude_damping_liouvillian,
    no_go_probe,
    rapid_mixing_check,
)


# Checks of a dense generator (`helpers.Liouvillian`) and the dense eta route.
# The package forms no generator: its eta bounds come from
# `CommutingResetFamily`, and its semigroups are Kraus channels.

def trace_annihilation_defect(l: Liouvillian, rng=None, probes: int = 4) -> float:
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for _ in range(probes):
        rho = random_density(l.dim, rng)
        worst = max(worst, abs(np.trace(l.apply(rho))))
    return float(worst)


def choi_psd_defect(l: Liouvillian, ts=(0.3, 1.0)) -> float:
    """Most negative Choi eigenvalue of e^{Lt} over the sampled times."""
    worst = 0.0
    d = l.dim
    for t in ts:
        s = l.propagator(t)
        choi = s.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0]))
    return -worst


def stationary_state(l: Liouvillian) -> np.ndarray:
    """Unique stationary density matrix (raises if the kernel is degenerate)."""
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

    def ap(x, _):
        y = (x.reshape(-1, d * d) @ s.T).reshape(x.shape)
        return y - rho_star * stack_trace(y)

    def adj(x, _):
        y = x - np.eye(d) * stack_trace(rho_star.conj().T @ x)
        return (y.reshape(-1, d * d) @ sh.T).reshape(x.shape)

    m = Map(d, 1, ap, adj)
    lo = float(eta_lower(m, rng, n_samples=n_samples)[0])
    up = float(eta_upper(m, rng)[0])
    return EtaSample(t=t, lower=lo, upper=max(up, lo))


def family_for(n):
    inst = states.line_graph_state(n)
    return CommutingResetFamily(list(inst.witness_channels), inst.space, inst.psi)


def sampled_bounds(fam, ts, seed=0, n_samples=128) -> list[EtaSample]:
    """The sampled lower estimate of a family over `ts`, with the power-
    iteration upper estimate of its maps from the same seed: the sampled
    estimator, which the closed form replaced and the tests keep as oracle."""
    lo = sampled_eta(fam, ts, seed=seed, n_samples=n_samples)
    up = eta_upper(eta_map(fam, ts), np.random.default_rng(seed), iters=25)
    return [EtaSample(t=float(t), lower=float(l), upper=float(max(u, l))) for t, l, u in zip(ts, lo, up)]


def envelope(t, n):
    return 1.0 - (1.0 - np.exp(-t)) ** n


def dense_generator(fam) -> np.ndarray:
    """sum_k (S_k - I) of a family, S_k the natural matrix of E_k on the whole
    space."""
    d = fam.space.total_dim
    return sum(superoperator(c, fam.space) for c in fam.channels) - len(fam.channels) * np.eye(d * d)


def witness_distances(fam, ts) -> list[float]:
    """(1/2)||e^{Lt}(phi) - rho_star||_1 at the family's witness input phi,
    with e^{Lt} the dense exponential of `dense_generator`."""
    d = fam.space.total_dim
    s = dense_generator(fam)
    phi = np.outer(fam._witness, fam._witness.conj()).reshape(-1)
    return [trace_distance((expm(t * s) @ phi).reshape(d, d), fam.rho_star) for t in ts]


def dephase_reset_family():
    """One idempotent channel on two qubits that dephases the first and
    resets the second to |0>: W = span(|00>, |10>), on which it is not the
    identity, so only its idempotency is checked."""
    e = np.eye(4)
    kraus = [np.outer(e[2 * a], e[2 * a + j]) for a in range(2) for j in range(2)]
    return CommutingResetFamily([make_channel(kraus, [0, 1])], uniform_space(2), e[0])


def non_idempotent_family(eps):
    """Line 3 with channel 0 mixed with eps * id: not idempotent."""
    inst = states.line_graph_state(3)
    first = inst.witness_channels[0]
    kraus = [np.sqrt(1 - eps) * k for k in first.kraus] + [np.sqrt(eps) * np.eye(first.local_dim)]
    chans = [make_channel(kraus, first.support)] + list(inst.witness_channels[1:])
    return CommutingResetFamily(chans, inst.space, inst.psi)


class TestLiouvillian:
    def test_identity_channel_gives_zero(self):
        sp = uniform_space(1)
        l = liouvillian_from_channel(unitary_channel(np.eye(2), [0]), sp)
        assert np.max(np.abs(l.matrix)) < 1e-12

    def test_reset_channel_spectrum(self, rng):
        sp = uniform_space(1)
        psi = np.array([1.0, 0.0], dtype=complex)
        l = liouvillian_from_channel(reset_channel(psi, [0]), sp)
        rep = spectral_gap(l)
        assert abs(rep.gap - 1.0) < 1e-9
        ev = np.sort_complex(rep.eigenvalues)
        assert np.allclose(sorted(np.round(ev.real, 9)), [-1, -1, -1, 0])

    def test_idempotent_spectrum_in_zero_minus_one(self, rng):
        sp = uniform_space(1)
        l = liouvillian_from_channel(reset_channel(np.array([0.6, 0.8]), [0]), sp)
        ev = spectral_gap(l).eigenvalues
        for lam in ev:
            assert min(abs(lam), abs(lam + 1.0)) < 1e-9

    def test_trace_annihilation_and_cptp(self, rng):
        l = amplitude_damping_generator(0.7)
        assert trace_annihilation_defect(l) < 1e-9
        assert choi_psd_defect(l) < 1e-9

    def test_gksl_stationary(self):
        l = amplitude_damping_generator(1.0)
        rho = stationary_state(l)
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_scaling_property(self):
        l = amplitude_damping_generator(1.0)
        l2 = Liouvillian(matrix=2.5 * l.matrix, dim=2)
        assert abs(spectral_gap(l2).gap - 2.5 * spectral_gap(l).gap) < 1e-9

    def test_semigroup_property(self):
        l = amplitude_damping_generator(0.9)
        s1 = l.propagator(0.4)
        s2 = l.propagator(0.6)
        s12 = l.propagator(1.0)
        assert np.max(np.abs(s1 @ s2 - s12)) < 1e-8


class TestEta:
    def test_reset_channel_eta_zero_after_one_application(self):
        sp = uniform_space(1)
        psi = np.array([1.0, 0.0], dtype=complex)
        ch = reset_channel(psi, [0])
        fam = CommutingResetFamily([ch], sp, psi)
        # large t: propagator approaches the reset channel itself, eta -> 0
        es = fam.eta_sample(30.0)
        assert es.lower < 1e-9

    def test_eta_at_zero_is_large(self):
        sp = uniform_space(1)
        psi = np.array([1.0, 0.0], dtype=complex)
        fam = CommutingResetFamily([reset_channel(psi, [0])], sp, psi)
        es = fam.eta_sample(0.0)
        # an orthogonal pure input keeps distance ~1 from the fixed point
        assert es.lower > 0.9
        assert es.lower <= es.upper + 1e-9

    def test_exact_decay_rate_single_qubit(self):
        # for L = E - I with idempotent E: eta(e^{Lt}) = e^{-t} eta(Id - E)
        sp = uniform_space(1)
        psi = np.array([1.0, 0.0], dtype=complex)
        fam = CommutingResetFamily([reset_channel(psi, [0])], sp, psi)
        e0 = fam.eta_sample(0.0).lower
        e1 = fam.eta_sample(1.0).lower
        assert abs(e1 - e0 * np.exp(-1.0)) < 1e-6

    def test_contraction_eta_dense_route(self):
        l = amplitude_damping_generator(1.0)
        es = contraction_eta(l, 1.0, n_samples=64)
        # start |1>: distance decays like e^{-t} up to coherence factors
        assert es.lower > 0.3
        assert es.lower <= es.upper + 1e-9

    def test_eta_bounds_sandwich_gap(self):
        # L exp(-gap t) <= eta(t) <= R exp(-nu t): fit constants empirically
        l = amplitude_damping_generator(1.0)
        gap = spectral_gap(l).gap
        ts = [0.5, 1.0, 2.0, 3.0]
        vals = [contraction_eta(l, t, n_samples=32).lower for t in ts]
        rates = [-np.log(vals[i + 1] / vals[i]) / (ts[i + 1] - ts[i]) for i in range(3)]
        for r in rates:
            assert r > 0.4 * gap  # decaying at a rate comparable to the gap


GRID = [1.5, 2.5, 4.0, 6.0]


class TestEtaSweep:
    @pytest.mark.parametrize("seed", [0, 7, 1000, 26000])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_grid_matches_one_t_at_a_time(self, n, seed):
        # every t draws the same samples from the seed, so the grid's lockstep
        # ascents and power iterations are each t's own, up to roundoff
        fam = family_for(n)
        grid = sampled_bounds(fam, GRID, seed=seed)
        assert [es.t for es in grid] == GRID
        for es in grid:
            one = sampled_bounds(fam, [es.t], seed=seed)[0]
            assert abs(es.lower - one.lower) <= 1e-14
            assert abs(es.upper - one.upper) <= 1e-13 * one.upper

    @pytest.mark.parametrize("n", [3, 5])
    def test_grid_lockstep_matches_one_state_at_a_time(self, n, monkeypatch):
        fam = family_for(n)
        stacked = sampled_bounds(fam, GRID, seed=7)
        monkeypatch.setattr(chan_mod, "STACK_MAX_BYTES", 1)  # stacks of one state
        single = sampled_bounds(fam, GRID, seed=7)
        for a, b in zip(stacked, single):
            assert abs(a.lower - b.lower) <= 1e-14
            assert abs(a.upper - b.upper) <= 1e-13 * b.upper

    def test_stacked_eigh_failure_falls_back_per_matrix(self, monkeypatch):
        fam = family_for(4)
        expected = sampled_bounds(fam, GRID, seed=3)
        eigh = np.linalg.eigh
        stacks = []

        def no_convergence_on_stacks(a, *args, **kwargs):
            if np.ndim(a) == 3 and len(a) > 1:
                stacks.append(len(a))
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", no_convergence_on_stacks)
        got = sampled_bounds(fam, GRID, seed=3)
        assert stacks  # the ascents did run as stacks, and each one fell back
        for a, b in zip(got, expected):
            assert abs(a.lower - b.lower) <= 1e-14
            assert a.upper == b.upper

    def test_applies_counts_channel_applies(self, monkeypatch):
        calls = []
        apply = chan_mod.apply
        monkeypatch.setattr(chan_mod, "apply", lambda *args: calls.append(1) or apply(*args))
        fam = family_for(4)
        sampled_eta(fam, GRID, seed=0)
        assert fam.applies == len(calls)
        # the grid takes about as many stacked applies as one t alone, and
        # far fewer than one estimate per t
        per_t = family_for(4)
        for t in GRID:
            sampled_eta(per_t, [t], seed=0)
        assert fam.applies < per_t.applies / 2
        fams = [family_for(3), family_for(4)]
        rep = rapid_mixing_check(fams, ts=GRID)
        assert rep.applies == sum(f.applies for f in fams) > 0

    @pytest.mark.parametrize("n", [3, 5])
    def test_stacked_sweep_matches_one_state_at_a_time(self, n, monkeypatch):
        fam = family_for(n)
        stacked = (sampled_bounds(fam, [1.5], seed=7)[0], sampled_eta_single_channel(fam, 1, 1.5, seed=7))
        monkeypatch.setattr(chan_mod, "STACK_MAX_BYTES", 1)  # stacks of one state
        single = (sampled_bounds(fam, [1.5], seed=7)[0], sampled_eta_single_channel(fam, 1, 1.5, seed=7))
        assert abs(stacked[0].lower - single[0].lower) <= 1e-14
        assert stacked[0].upper == single[0].upper
        assert abs(stacked[1] - single[1]) <= 1e-14

    def test_dense_route_stacked_matches_one_state_at_a_time(self, monkeypatch):
        l = amplitude_damping_generator(1.0)
        stacked = contraction_eta(l, 1.0, n_samples=64)
        monkeypatch.setattr(chan_mod, "STACK_MAX_BYTES", 1)
        single = contraction_eta(l, 1.0, n_samples=64)
        assert abs(stacked.lower - single.lower) <= 1e-14

    def test_line6_seed_26000_converges(self):
        # np.linalg.eigh (zheevd) of the adjoint image fails to converge here
        fam = family_for(6)
        es = sampled_bounds(fam, [1.5], seed=26000)[0]
        assert 0.0 < es.lower <= es.upper

    def test_full_eigh_falls_back_to_mrrr(self, monkeypatch):
        fam = family_for(4)
        expected = sampled_bounds(fam, [1.5], seed=3)[0]

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        es = sampled_bounds(fam, [1.5], seed=3)[0]
        assert abs(es.lower - expected.lower) < 1e-12
        assert es.upper == expected.upper


class TestCommutingFamily:
    def test_structure_verified(self):
        fam = family_for(3)
        assert fam.proof.commutation < 1e-9
        assert fam.proof.identity_defect < 1e-9

    def test_per_channel_gap_is_one(self):
        fam = family_for(3)
        assert abs(fam.per_channel_gap() - 1.0) < 1e-9

    @pytest.mark.parametrize("kind, n", [("line", 3), ("line", 5), ("gibbs", 3), ("gibbs", 4),
                                         ("dephase-reset", 2), ("with-identity", 3)])
    def test_per_channel_gap_matches_dense_generator(self, kind, n):
        if kind == "line":
            fam = family_for(n)
        elif kind == "gibbs":
            inst = states.graph_gibbs(n, beta=1.0)
            fam = CommutingResetFamily(list(inst.witness_channels), inst.space, inst.rho)
        elif kind == "dephase-reset":
            fam = dephase_reset_family()
            assert fam.proof.identity_defects[0] > 0.5 and fam.proof.idempotency_defects[0] < 1e-14
        else:
            line = family_for(n)
            fam = CommutingResetFamily(line.channels + [make_channel([np.eye(2)], [0])], line.space, line.target)
        dense = min(spectral_gap(liouvillian_from_channel(*chan_mod.relocate(c, c.support, fam.space))).gap
                    for c in fam.channels)
        assert fam.per_channel_gap() == pytest.approx(dense, abs=1e-12)

    def test_per_channel_gap_forms_no_superoperator(self, monkeypatch):
        fam = dephase_reset_family()
        fam.proof

        def fail(*args, **kwargs):
            raise AssertionError("formed a superoperator")

        monkeypatch.setattr(chan_mod, "superoperator", fail)
        monkeypatch.setattr(chan_mod, "_natural", fail)
        assert fam.per_channel_gap() == 1.0

    @pytest.mark.parametrize("make, failure", [
        (lambda: non_idempotent_family(0.2), "channel 0 is not idempotent"),
        (lambda: CommutingResetFamily([reset_channel(np.eye(81)[0], [0, 1, 2, 3]),
                                       reset_channel(np.full(81, 1 / 9), [1, 2, 3, 4])],
                                      uniform_space(5, 3), np.eye(243)[0]),
         "the maps do not commute"),
    ], ids=["non-idempotent", "non-commuting-support-81"])
    def test_per_channel_gap_needs_commuting_idempotents(self, make, failure):
        # the supports of the second family have 81 > 64 dimensions, where
        # the gap once came from a refused 6561-side superoperator
        with pytest.raises(ValueError, match=f"per_channel_gap needs commuting idempotent maps: {failure}"):
            make().per_channel_gap()

    def test_propagate_matches_dense_exponential(self, rng):
        fam = family_for(3)
        s = dense_generator(fam)  # dense composite superoperator route at D = 8
        rho = random_density(8, rng)
        t = 0.7
        lhs = (expm(t * s) @ rho.reshape(-1)).reshape(8, 8)
        rhs = fam.propagate(rho, t)
        assert rhs.shape == (8, 8)
        assert trace_distance(lhs, rhs) < 1e-10
        # one call per time
        assert trace_distance(fam.propagate(rho, 2.0), (expm(2.0 * s) @ rho.reshape(-1)).reshape(8, 8)) < 1e-10

    def test_additivity_bound(self):
        # eta(e^{sum L_j t}) <= sum_j eta(e^{L_j t})
        fam = family_for(3)
        for t in (0.5, 1.5):
            whole = fam.eta_sample(t).lower
            parts = sum(fam.eta_single_channel(k, t) for k in range(len(fam.channels)))
            assert whole <= parts + 1e-6


class TestClosedForm:
    """The proven envelope 1 - (1 - e^{-t})^N against the sampled estimator,
    which is the oracle here."""

    @pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_invalid_time_raises(self, t):
        # eta is a trace distance: at t = -1 the closed form would read
        # lower 44.2 and upper 6.1
        with pytest.raises(ValueError, match="non-negative finite times"):
            family_for(3).eta_samples([1.0, t])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_hypotheses_hold_on_lines(self, n):
        fam = family_for(n)
        proof = fam.proof
        assert proof.holds and fam.method == "closed-form"
        assert proof.range_dims == (2,) + (4,) * (n - 2) + (2,)
        assert proof.identity_defect < 1e-14 and proof.commutation < 1e-14
        assert proof.intersection_dim == 1 and proof.contains_target
        assert proof.largest_kept < 1e-14 and proof.smallest_dropped > 0.3
        assert proof.range_margin == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-14))

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sampled_eta_attains_envelope(self, n, seed):
        fam = family_for(n)
        env = envelope(np.array(GRID), n)
        closed = fam.eta_samples(GRID)
        assert [es.upper for es in closed] == pytest.approx(env, rel=1e-15)
        # the witness input attains the envelope
        for es in closed:
            assert es.upper * (1 - 1e-12) <= es.lower <= es.upper * (1 + 1e-12)
        lo = sampled_eta(fam, GRID, seed=seed)
        assert np.all(lo <= env + 1e-12)
        assert np.all(np.abs(lo - env) <= 1e-10 * env)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_single_channel_is_exp_minus_t(self, n, seed):
        fam = family_for(n)
        for k in range(n):
            for t in GRID:
                assert fam.eta_single_channel(k, t, seed=seed) == pytest.approx(np.exp(-t), rel=1e-14)
                assert sampled_eta_single_channel(fam, k, t, seed=seed) <= np.exp(-t) * (1 + 1e-12)

    def test_witness_runs_through_propagate(self, monkeypatch):
        fam = family_for(4)
        calls = []
        propagate = fam.propagate
        monkeypatch.setattr(fam, "propagate", lambda rho, t: calls.append(np.size(t)) or propagate(rho, t))
        fam.eta_samples(GRID)
        assert calls == [1] * len(GRID)  # one state per t

    def test_sampled_path_ignores_roundoff_signs(self, monkeypatch):
        # the two apply branches differ by roundoff; the ascent directions
        # drop the signs of roundoff eigenvalues, so both reach one estimate
        fam = family_for(4)
        natural = sampled_eta_single_channel(fam, 0, 2.5, seed=0)  # m = 4: the S branch
        pays = chan_mod._liouville_pays
        forced = []
        monkeypatch.setattr(chan_mod, "_liouville_pays", lambda *a: forced.append(not pays(*a)) or forced[-1])
        kraus = sampled_eta_single_channel(family_for(4), 0, 2.5, seed=0)
        assert forced and not any(forced)  # every apply took the Kraus branch
        assert abs(natural - kraus) <= 1e-10

    def test_dropped_channel_is_unproven(self):
        inst = states.line_graph_state(4)
        fam = CommutingResetFamily(list(inst.witness_channels[:-1]), inst.space, inst.psi)
        proof = fam.proof
        assert proof.intersection_dim == 2 and proof.contains_target and not proof.holds
        assert proof.product_failure is None and fam.method == "unproven"
        got = fam.eta_samples(GRID)
        assert all(es.upper == 1.0 for es in got)
        assert [es.lower for es in got] == pytest.approx(witness_distances(fam, GRID), rel=0, abs=1e-10)
        with pytest.raises(ValueError, match="N = 4 is not proven: .* has dimension 2, not 1"):
            rapid_mixing_check([family_for(3), fam], ts=GRID)

    @pytest.mark.parametrize("n", [3, 4])
    def test_graph_gibbs_is_unproven(self, n):
        # a mixed target: the witnesses reset each virtual factor to its
        # Gibbs state, which is full rank, so E_k(I) spans the whole support
        inst = states.graph_gibbs(n, beta=1.0)
        fam = CommutingResetFamily(list(inst.witness_channels), inst.space, inst.rho)
        proof = fam.proof
        assert proof.failure == "the target is mixed" and fam.method == "unproven"
        assert min(proof.identity_defects) > 0.1
        assert max(proof.idempotency_defects) < 1e-14 and proof.commutation < 1e-13
        got = fam.eta_samples(GRID)
        assert all(es.upper == 1.0 for es in got)
        assert [es.lower for es in got] == pytest.approx(witness_distances(fam, GRID), rel=0, abs=1e-10)
        if n == 3:
            # every W_k is its whole support, so sum_k P_k = N I picks no
            # witness; the eigenvector of rho_star for its smallest eigenvalue
            # does, and reaches what the sampled oracle reaches
            assert proof.range_dims == (4, 8, 4)
            assert fam.eta_samples([1.0])[0].lower >= 0.378
        with pytest.raises(ValueError, match="the target is mixed"):
            rapid_mixing_check([fam], ts=GRID)

    def test_non_idempotent_channel_raises(self):
        fam = non_idempotent_family(1e-3)
        proof = fam.proof
        assert proof.range_dims[0] == fam.channels[0].local_dim  # (1 - eps) E(I) + eps I is full rank
        assert proof.identity_defects[0] > 1e-4 and not proof.holds and fam.method == "unproven"
        assert proof.idempotency_defects[0] > 1e-4 and proof.idempotency_defects[1:] == (None, None)
        # the product formula is not e^{tL}: it is off at the witness input
        assert abs(witness_distances(fam, [1.0])[0]
                   - trace_distance(fam.propagate(np.outer(fam._witness, fam._witness.conj()), 1.0),
                                    fam.rho_star)) > 1e-5
        with pytest.raises(ValueError, match="channel 0 is not idempotent"):
            fam.eta_samples(GRID)
        with pytest.raises(ValueError, match="channel 0 is not the identity on B"):
            fam.eta_single_channel(0, 2.5)
        with pytest.raises(ValueError, match="N = 3 is not proven: channel 0 is not the identity on B"):
            rapid_mixing_check([fam], ts=GRID)

    def test_non_commuting_maps_raise(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        fam = CommutingResetFamily([reset_channel(bell, [0, 1]), reset_channel(bell, [1, 2])],
                                   uniform_space(3), np.eye(8)[0])
        assert fam.proof.commutation > 1e-3
        with pytest.raises(ValueError, match="the maps do not commute"):
            fam.eta_samples(GRID)
        with pytest.raises(ValueError, match="the maps do not commute"):
            rapid_mixing_check([fam], ts=GRID)

    def test_mixed_target_is_unproven(self):
        inst = states.line_graph_state(3)
        fam = CommutingResetFamily(list(inst.witness_channels), inst.space, np.eye(8) / 8)
        assert not fam.proof.pure_target and fam.method == "unproven"
        assert fam.proof.failure == "the target is mixed"


@pytest.mark.slow
class TestRapidMixing:
    def test_graph_chain_family(self):
        fams = [family_for(n) for n in (3, 4, 5)]
        rep = rapid_mixing_check(fams, ts=[1.5, 2.5, 4.0, 6.0])
        assert rep.nu == pytest.approx(1.0, abs=1e-9)
        assert rep.gamma >= 0.95
        assert rep.delta <= 1.1
        assert rep.passed, (rep.gamma, rep.delta)


class TestNoGo:
    def test_amplitude_damping_positive_distance(self):
        semigroup = amplitude_damping_liouvillian(1.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        ts = np.linspace(0.0, 10.0, 21)
        rep = no_go_probe(semigroup, psi0, ts)
        assert rep.min_distance > 1e-6
        assert rep.monotone
        # exact solution: distance e^{-t}
        for t, d in rep.distances[1:]:
            assert abs(d - np.exp(-t)) < 1e-8
        # and the dense exponential of the GKSL generator, from |1><1|
        l = amplitude_damping_generator(1.0)
        start = np.diag([0.0, 1.0]).reshape(-1)
        for t, d in rep.distances:
            dense = (l.propagator(t) @ start).reshape(2, 2)
            assert abs(d - trace_distance(dense, np.diag([1.0, 0.0]))) < 1e-12

    def test_target_start_stays_at_zero(self):
        semigroup = amplitude_damping_liouvillian(1.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        rep = no_go_probe(
            semigroup, psi0, [0.0, 1.0, 2.0], start=np.outer(psi0, psi0.conj())
        )
        assert rep.min_distance < 1e-10

    def test_fixed_point_mismatch_rejected(self):
        semigroup = amplitude_damping_liouvillian(1.0)
        psi1 = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            no_go_probe(semigroup, psi1, [1.0])

    @pytest.mark.parametrize("rate", [0.7, 1.0, 2.5])
    def test_closed_form_is_the_gksl_exponential(self, rate):
        semigroup = amplitude_damping_liouvillian(rate)
        l = amplitude_damping_generator(rate)
        for t in (0.0, 0.1, 0.5, 1.0, 2.5, 7.0):
            assert np.abs(superoperator(semigroup(t), uniform_space(1)) - l.propagator(t)).max() < 1e-12


class TestProofBudget:
    """The reset proof's unit stacks are guarded by the package budget."""

    @staticmethod
    def _estimates(fam, monkeypatch):
        seen = []
        real = _linalg.check_budget
        monkeypatch.setattr(mixing, "check_budget", lambda n, what: (seen.append((n, what)), real(n, what)))
        fam._local
        monkeypatch.setattr(mixing, "check_budget", real)
        return seen

    def test_refused_below_each_estimate(self, monkeypatch):
        # W = span(|00>, |10>) of the 4-dim support: 2^2 units for the
        # identity defect, which fails, then 4^2 for the idempotency check
        seen = self._estimates(dephase_reset_family(), monkeypatch)
        assert seen == [(4 * 16 * 4 * 16, "identity defect of channel 0 on 2^2 units of size 4"),
                        (4 * 16 * 4**4, "idempotency check of channel 0 on 4^2 units of size 4")]
        for nbytes, what in seen:
            monkeypatch.setattr(_linalg, "MAX_BYTES", nbytes - 1)
            with pytest.raises(chan_mod.CapExceeded, match=re.escape(f"{what} needs 0.0 GiB, capped at 0.0 GiB")):
                dephase_reset_family().proof
            monkeypatch.setattr(_linalg, "MAX_BYTES", nbytes)
        assert dephase_reset_family().proof.idempotency_defects[0] < 1e-14

    def test_estimate_bounds_traced_peak(self, monkeypatch):
        # a reset of 4 qubits mixed with the identity: full-rank E(I), so both
        # checks run on 256 units of size 16, 1 MiB a stack
        reset = reset_channel(np.eye(16)[0], [0, 1, 2, 3])
        mixed = make_channel([np.sqrt(0.8) * k for k in reset.kraus] + [np.sqrt(0.2) * np.eye(16)], [0, 1, 2, 3])
        fam = CommutingResetFamily([mixed], uniform_space(4), np.eye(16)[0])
        tracemalloc.start()
        seen = self._estimates(fam, monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert [n for n, _ in seen] == [4 << 20, 4 << 20]
        assert 3 << 20 < peak <= (4 << 20) + (64 << 10)  # the m x m arrays beside the stacks

    def test_kagome_2x2_proof_holds_no_dense_state(self):
        # rho_star = |psi><psi| is built only when read; the proof never reads it
        inst = states.ccz_kagome(2, 2)
        d = inst.space.total_dim
        tracemalloc.start()
        fam = CommutingResetFamily(list(inst.witness_channels), inst.space, inst.psi)
        assert fam.proof.holds
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert d == 4096 and peak < 16 * d * d
        assert "rho_star" not in vars(fam)
        assert np.array_equal(fam.rho_star, np.outer(fam.target, fam.target.conj()))


def proven(build, target="psi"):
    inst = build()
    fam = CommutingResetFamily(list(inst.witness_channels), inst.space, getattr(inst, target))
    fam.proof  # read before any budget is traced
    return fam


ETA_CASES = {
    "line-6": (lambda: proven(lambda: states.line_graph_state(6)), [1.0, 2.0, 3.0, 4.0, 5.0]),
    "line-9": (lambda: proven(lambda: states.line_graph_state(9)), [1.0]),
    "kagome-3x1": (lambda: proven(lambda: states.ccz_kagome(3, 1)), [1.0, 2.0]),
    "gibbs-8": (lambda: proven(lambda: states.graph_gibbs(8, beta=1.0), "rho"), [1.0, 2.0, 3.0]),
}


class TestEtaBudget:
    """The witness eigenproblem and the eta samples are guarded by the package
    budget, before either is allocated."""

    @staticmethod
    def _traced(read, monkeypatch):
        seen = []
        real = _linalg.check_budget
        monkeypatch.setattr(mixing, "check_budget", lambda n, what: (seen.append((n, what)), real(n, what)))
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(mixing, "check_budget", real)
        return seen, peak

    @pytest.mark.parametrize("name", list(ETA_CASES))
    def test_estimates_bound_traced_peaks(self, name, monkeypatch):
        build, ts = ETA_CASES[name]
        fam = build()
        d = fam.space.total_dim
        seen, peak = self._traced(lambda: fam._witness, monkeypatch)
        assert seen == [(6 * 16 * d * d, f"witness eigenproblem of D = {d}")]
        assert peak <= seen[0][0]
        fam = build()
        seen, peak = self._traced(lambda: fam.eta_samples(ts), monkeypatch)
        assert seen[0] == (16 * d * d * (2 + mixing.ETA_ARRAYS), f"eta samples of D = {d}, 1 at a time")
        assert seen[0][0] / 2 < peak <= seen[0][0]

    @pytest.mark.parametrize("name", ["line-9", "gibbs-8"])
    def test_refused_below_each_estimate(self, name, monkeypatch):
        build, ts = ETA_CASES[name]
        fam = build()
        expected = [s.lower for s in fam.eta_samples(ts)]
        fam = build()
        (eta, what), (witness, witness_what) = self._traced(lambda: fam.eta_samples(ts), monkeypatch)[0]
        assert what.startswith("eta samples") and witness_what.startswith("witness eigenproblem")
        assert witness < eta
        fam = build()
        applies = fam.applies
        monkeypatch.setattr(_linalg, "MAX_BYTES", eta - 1)
        with pytest.raises(chan_mod.CapExceeded, match=re.escape(f"{what} needs")):
            fam.eta_samples(ts)
        assert "_witness" not in vars(fam) and fam.applies == applies
        monkeypatch.setattr(_linalg, "MAX_BYTES", witness - 1)
        with pytest.raises(chan_mod.CapExceeded, match=re.escape(f"{witness_what} needs")):
            fam._witness
        monkeypatch.setattr(_linalg, "MAX_BYTES", eta)
        assert [s.lower for s in fam.eta_samples(ts)] == expected
