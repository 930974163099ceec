import numpy as np
import pytest

from helpers import unitary_channel
from qlstab import channels as chan_mod
from qlstab import states
from qlstab._linalg import random_density, trace_distance
from qlstab.channels import reset_channel
from qlstab.hilbert import uniform_space
from qlstab._linalg import nullspace
from qlstab.mixing import (
    CommutingResetFamily,
    EtaSample,
    Liouvillian,
    _eta_lower,
    _eta_upper,
    _Map,
    _trace,
    amplitude_damping_liouvillian,
    liouvillian_from_channel,
    liouvillian_gksl,
    no_go_probe,
    rapid_mixing_check,
    spectral_gap,
)


# Checks of a dense generator and the dense eta route. The package reads none
# of them: its eta estimates come from `CommutingResetFamily`.

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
        return y - rho_star * _trace(y)

    def adj(x, _):
        y = x - np.eye(d) * _trace(rho_star.conj().T @ x)
        return (y.reshape(-1, d * d) @ sh.T).reshape(x.shape)

    m = _Map(d, 1, ap, adj)
    lo = float(_eta_lower(m, rng, n_samples=n_samples)[0])
    up = float(_eta_upper(m, rng)[0])
    return EtaSample(t=t, lower=lo, upper=max(up, lo))


def family_for(n):
    inst = states.line_graph_state(n)
    return CommutingResetFamily(list(inst.witness_channels), inst.space, inst.psi)


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
        l = amplitude_damping_liouvillian(0.7)
        assert trace_annihilation_defect(l) < 1e-9
        assert choi_psd_defect(l) < 1e-9

    def test_gksl_stationary(self):
        l = amplitude_damping_liouvillian(1.0)
        rho = stationary_state(l)
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_scaling_property(self):
        l = amplitude_damping_liouvillian(1.0)
        l2 = Liouvillian(matrix=2.5 * l.matrix, dim=2)
        assert abs(spectral_gap(l2).gap - 2.5 * spectral_gap(l).gap) < 1e-9

    def test_semigroup_property(self):
        l = amplitude_damping_liouvillian(0.9)
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
        l = amplitude_damping_liouvillian(1.0)
        es = contraction_eta(l, 1.0, n_samples=64)
        # start |1>: distance decays like e^{-t} up to coherence factors
        assert es.lower > 0.3
        assert es.lower <= es.upper + 1e-9

    def test_eta_bounds_sandwich_gap(self):
        # L exp(-gap t) <= eta(t) <= R exp(-nu t): fit constants empirically
        l = amplitude_damping_liouvillian(1.0)
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
        grid = fam.eta_samples(GRID, seed=seed)
        assert [es.t for es in grid] == GRID
        for es in grid:
            one = fam.eta_sample(es.t, seed=seed)
            assert abs(es.lower - one.lower) <= 1e-14
            assert abs(es.upper - one.upper) <= 1e-13 * one.upper

    @pytest.mark.parametrize("n", [3, 5])
    def test_grid_lockstep_matches_one_state_at_a_time(self, n, monkeypatch):
        fam = family_for(n)
        stacked = fam.eta_samples(GRID, seed=7)
        monkeypatch.setattr(chan_mod, "STACK_MAX_BYTES", 1)  # stacks of one state
        single = fam.eta_samples(GRID, seed=7)
        for a, b in zip(stacked, single):
            assert abs(a.lower - b.lower) <= 1e-14
            assert abs(a.upper - b.upper) <= 1e-13 * b.upper

    def test_stacked_eigh_failure_falls_back_per_matrix(self, monkeypatch):
        fam = family_for(4)
        expected = fam.eta_samples(GRID, seed=3)
        eigh = np.linalg.eigh
        stacks = []

        def no_convergence_on_stacks(a, *args, **kwargs):
            if np.ndim(a) == 3 and len(a) > 1:
                stacks.append(len(a))
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", no_convergence_on_stacks)
        got = fam.eta_samples(GRID, seed=3)
        assert stacks  # the ascents did run as stacks, and each one fell back
        for a, b in zip(got, expected):
            assert abs(a.lower - b.lower) <= 1e-14
            assert a.upper == b.upper

    def test_applies_counts_channel_applies(self, monkeypatch):
        calls = []
        apply = chan_mod.apply
        monkeypatch.setattr(chan_mod, "apply", lambda *args: calls.append(1) or apply(*args))
        fam = family_for(4)
        fam.eta_samples(GRID, seed=0)
        assert fam.applies == len(calls)
        # the grid takes about as many stacked applies as one t alone, and
        # far fewer than one estimate per t
        per_t = family_for(4)
        for t in GRID:
            per_t.eta_sample(t, seed=0)
        assert fam.applies < per_t.applies / 2
        fams = [family_for(3), family_for(4)]
        rep = rapid_mixing_check(fams, ts=GRID)
        assert rep.applies == sum(f.applies for f in fams) > 0

    @pytest.mark.parametrize("n", [3, 5])
    def test_stacked_sweep_matches_one_state_at_a_time(self, n, monkeypatch):
        fam = family_for(n)
        stacked = (fam.eta_sample(1.5, seed=7), fam.eta_single_channel(1, 1.5, seed=7))
        monkeypatch.setattr(chan_mod, "STACK_MAX_BYTES", 1)  # stacks of one state
        single = (fam.eta_sample(1.5, seed=7), fam.eta_single_channel(1, 1.5, seed=7))
        assert abs(stacked[0].lower - single[0].lower) <= 1e-14
        assert stacked[0].upper == single[0].upper
        assert abs(stacked[1] - single[1]) <= 1e-14

    def test_dense_route_stacked_matches_one_state_at_a_time(self, monkeypatch):
        l = amplitude_damping_liouvillian(1.0)
        stacked = contraction_eta(l, 1.0, n_samples=64)
        monkeypatch.setattr(chan_mod, "STACK_MAX_BYTES", 1)
        single = contraction_eta(l, 1.0, n_samples=64)
        assert abs(stacked.lower - single.lower) <= 1e-14

    def test_line6_seed_26000_converges(self):
        # np.linalg.eigh (zheevd) of the adjoint image fails to converge here
        fam = family_for(6)
        es = fam.eta_sample(1.5, seed=26000)
        assert 0.0 < es.lower <= es.upper

    def test_full_eigh_falls_back_to_mrrr(self, monkeypatch):
        fam = family_for(4)
        expected = fam.eta_sample(1.5, seed=3)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        es = fam.eta_sample(1.5, seed=3)
        assert abs(es.lower - expected.lower) < 1e-12
        assert es.upper == expected.upper


class TestCommutingFamily:
    def test_structure_verified(self):
        fam = family_for(3)
        chk = fam.verify_structure()
        assert chk["commutation"] < 1e-9
        assert chk["idempotency"] < 1e-9

    def test_per_channel_gap_is_one(self):
        fam = family_for(3)
        assert abs(fam.per_channel_gap() - 1.0) < 1e-9

    def test_propagate_matches_dense_exponential(self, rng):
        fam = family_for(3)
        # dense composite superoperator route at D = 8
        from qlstab.channels import superoperator
        from scipy.linalg import expm

        s = sum(
            superoperator(c, fam.space) for c in fam.channels
        ) - len(fam.channels) * np.eye(64)
        rho = random_density(8, rng)
        t = 0.7
        lhs = (expm(t * s) @ rho.reshape(-1)).reshape(8, 8)
        rhs = fam.propagate(rho, t)
        assert trace_distance(lhs, rhs) < 1e-10

    def test_additivity_bound(self):
        # eta(e^{sum L_j t}) <= sum_j eta(e^{L_j t})
        fam = family_for(3)
        for t in (0.5, 1.5):
            whole = fam.eta_sample(t).lower
            parts = sum(fam.eta_single_channel(k, t) for k in range(len(fam.channels)))
            assert whole <= parts + 1e-6


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
        l = amplitude_damping_liouvillian(1.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        ts = np.linspace(0.0, 10.0, 21)
        rep = no_go_probe(l, psi0, ts)
        assert rep.min_distance > 1e-6
        assert rep.monotone
        # exact solution: distance e^{-t}
        for t, d in rep.distances[1:]:
            assert abs(d - np.exp(-t)) < 1e-8

    def test_target_start_stays_at_zero(self):
        l = amplitude_damping_liouvillian(1.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        rep = no_go_probe(
            l, psi0, [0.0, 1.0, 2.0], start=np.outer(psi0, psi0.conj())
        )
        assert rep.min_distance < 1e-10

    def test_fixed_point_mismatch_rejected(self):
        l = amplitude_damping_liouvillian(1.0)
        psi1 = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            no_go_probe(l, psi1, [1.0])
