import numpy as np
import pytest

from helpers import basis_state, hamiltonian, random_hermitian
from qlstab import channels as ch
from qlstab import states
from qlstab._linalg import DEFAULT_TOL, trace_distance
from qlstab.channels import apply, check_invariance, kraus_support, superoperator
from qlstab.hilbert import (
    MultipartiteSpace,
    RegionOperator,
    embed,
    permute_subsystems,
    uniform_space,
)
from qlstab.rfts import verify_robustness
from qlstab.subspaces import check_qls, check_small_schmidt_span, schmidt_span


def ising_zz_covariance_transfer(n: int, j: float, beta: float, a: int, b: int) -> float:
    """Transfer-matrix evaluation of Cov(Z_a, Z_b) for the open Ising chain."""
    t = np.array(
        [[np.exp(beta * j), np.exp(-beta * j)], [np.exp(-beta * j), np.exp(beta * j)]]
    )
    z = np.diag([1.0, -1.0])
    left = np.ones(2)
    right = np.ones(2)

    def chain(ops):
        cur = left
        for site in range(n):
            if site in ops:
                cur = cur @ z
            if site < n - 1:
                cur = cur @ t
        return cur @ right

    zz = chain({a, b})
    za = chain({a})
    zb = chain({b})
    norm = chain(set())
    return zz / norm - (za / norm) * (zb / norm)


def assert_witnesses_ok(inst):
    assert abs(np.linalg.norm(inst.psi) - 1.0) < 1e-12
    for c in inst.witness_channels:
        rep = check_invariance(c, inst.psi, inst.space)
        assert rep.ok, (inst.name, c.label, rep.defect)
        tight = set(kraus_support(c, inst.space))
        assert any(
            tight <= set(nk) for nk in inst.neighborhoods
        ), (inst.name, c.label, tight)


class TestGraphStates:
    def test_single_vertex_is_plus(self):
        inst = states.graph_state(1, [])
        assert np.allclose(inst.psi, np.array([1, 1]) / np.sqrt(2))

    def test_line_instances(self):
        for n in (3, 4):
            inst = states.line_graph_state(n)
            assert_witnesses_ok(inst)

    def test_robust_line3_all_orders(self):
        inst = states.line_graph_state(3)
        rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space)
        assert rep.passed and rep.exhaustive

    def test_qutrit_triangle(self):
        inst = states.graph_state(3, [(0, 1), (1, 2), (0, 2)], d=3)
        assert_witnesses_ok(inst)
        assert inst.space.dims == (3, 3, 3)

    def test_invalid_hadamard_rejected(self):
        bad = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            states.graph_state(2, [(0, 1)], hadamard=bad)

    def test_grid_2x3_witnesses(self):
        inst = states.grid_graph_state(2, 3)
        assert_witnesses_ok(inst)

    @pytest.mark.parametrize("build", [
        lambda: states.line_graph_state(4),
        lambda: states.grid_graph_state(2, 3),
        lambda: states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)]),
    ])
    def test_stabilizers_fix_psi(self, build):
        # a qubit graph state is the +1 eigenvector of every X_i prod_{j in N(i)} Z_j
        inst = build()
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        edges = inst.metadata["edges"]
        for i in range(inst.space.n_subsystems):
            partners = {a + b - i for a, b in edges if i in (a, b)}
            region = sorted({i} | partners)
            op = np.ones((1, 1), dtype=complex)
            for j in region:
                op = np.kron(op, x if j == i else z)
            k = embed(RegionOperator(op, region), inst.space)
            assert np.max(np.abs(k @ inst.psi - inst.psi)) < 1e-12, (inst.name, i)


class TestCcz:
    def test_triangle(self):
        inst = states.ccz_triangle()
        assert_witnesses_ok(inst)
        rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space)
        assert rep.passed

    def test_no_triangles_gives_plus_product(self):
        inst = states._ccz_instance(2, [], "empty")
        assert np.allclose(inst.psi, np.ones(4) / 2)

    def test_kagome_sites_and_neighborhoods(self):
        n, triangles = states.kagome_sites(2, 2)
        assert n == 12
        assert len(set(triangles)) == 8
        inst_l = states.ccz_kagome(2, 2)
        assert len(inst_l.neighborhoods) == 12
        for nk in inst_l.neighborhoods:
            assert len(nk) == 5

    def test_triangular_patch(self):
        inst = states.triangular_patch(2, 2)
        assert_witnesses_ok(inst)

    @pytest.mark.parametrize("build, n, triangles", [
        (states.ccz_triangle, 3, [(0, 1, 2)]),
        (lambda: states.triangular_patch(2, 2), 4, [(0, 1, 2), (1, 2, 3)]),
        (lambda: states.ccz_kagome(3, 1), *states.kagome_sites(3, 1)),
    ])
    def test_psi_is_ccz_product_on_plus(self, build, n, triangles):
        # prod_T CCZ_T |+>^n as a dense diagonal over bit strings, site 0 most significant
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        signs = np.ones(2**n)
        for a, b, c in triangles:
            signs[(bits[:, a] & bits[:, b] & bits[:, c]) == 1] *= -1
        assert np.max(np.abs(build().psi - signs / np.sqrt(2**n))) < 1e-14


class TestDickeVbsAklt:
    def test_dicke_normalized_and_symmetric(self):
        inst = states.dicke(4, 2)
        assert abs(np.linalg.norm(inst.psi) - 1) < 1e-12
        for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [1, 2, 3, 0]):
            permuted = permute_subsystems(inst.psi, perm, inst.space)
            assert np.allclose(permuted, inst.psi)

    def test_dicke_schmidt_dims(self):
        inst = states.dicke(4, 2)
        rep = check_small_schmidt_span(inst.psi, inst.neighborhoods, inst.space)
        assert rep.per_neighborhood[0]["schmidt_dim"] == 2
        assert rep.per_neighborhood[0]["neighborhood_dim"] == 8

    def test_vbs_dims(self):
        inst3 = states.vbs_1d(3)
        assert inst3.space.total_dim == 27
        inst2 = states.vbs_1d(2)
        assert inst2.metadata.get("degenerate_small_case")

    def test_vbs_is_aklt_ground_state(self):
        # the chain state must be annihilated by every total-spin-2 projector
        # on adjacent pairs (bulk terms of the spin-1 chain Hamiltonian)
        inst = states.vbs_1d(4)
        j2 = _spin2_projector()
        from qlstab.hilbert import RegionOperator, embed

        for i in (1,):  # bulk pair (i, i+1)
            big = embed(RegionOperator(j2, [i, i + 1]), inst.space)
            assert np.linalg.norm(big @ inst.psi) < 1e-10

    def test_aklt_dims_and_qls(self):
        inst = states.aklt32_cubic()
        assert inst.space.total_dim == 4096
        assert len(inst.neighborhoods) == 9
        span = schmidt_span(inst.psi, inst.neighborhoods[0], inst.space)
        assert span.dim == 9

    def test_aklt_annihilated_by_spin3_projectors(self):
        # the spin-3/2 AKLT state has no total-spin-3 component on any edge
        inst = states.aklt32_cubic()
        p3 = _spin3_projector()
        assert round(np.trace(p3).real) == 7
        assert abs(np.linalg.norm(inst.psi) - 1.0) < 1e-12
        for edge in inst.metadata["edges"]:
            big = embed(RegionOperator(p3, list(edge)), inst.space)
            assert np.linalg.norm(big @ inst.psi) < 1e-12, edge


def _spin2_projector():
    """Projector onto total spin 2 of two spin-1 particles."""
    # spin-1 operators
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2)
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2)
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    s1s2 = sum(np.kron(a, a) for a in (sx, sy, sz))
    # P_{J=2} = S.S/3 + (S.S)^2/6 + ... use polynomial in s1.s2 with eigenvalues
    # s1.s2 in {-2, -1, 1} for J in {0, 1, 2}
    p = (s1s2 + 2 * np.eye(9)) @ (s1s2 + np.eye(9)) / 6.0
    return p


def _spin3_projector():
    """Projector onto total spin 3 of two spin-3/2 particles, basis m = 3/2 ... -3/2."""
    m = np.array([1.5, 0.5, -0.5, -1.5])
    sp = np.diag(np.sqrt(1.5 * 2.5 - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    sx, sy, sz = (sp + sp.T) / 2, (sp - sp.T) / 2j, np.diag(m).astype(complex)
    eye = np.eye(4)
    s2 = sum((np.kron(a, eye) + np.kron(eye, a)) @ (np.kron(a, eye) + np.kron(eye, a))
             for a in (sx, sy, sz))
    w, v = np.linalg.eigh(s2)
    top = v[:, np.abs(w - 12.0) < 1e-9]
    return top @ top.conj().T


class TestWProduct:
    def test_witnesses(self):
        inst = states.w_product_9()
        assert_witnesses_ok(inst)

    def test_commuting_hamiltonian_kernel(self):
        inst = states.w_product_9()
        h = states.w_product_commuting_hamiltonian(inst)
        ev, vec = np.linalg.eigh(h)
        assert ev[0] < 1e-10 and ev[1] > 0.5
        overlap = abs(vec[:, 0].conj() @ inst.psi)
        assert abs(overlap - 1.0) < 1e-9
        # the three projector terms commute
        w = states.w_state(3)
        from qlstab.hilbert import RegionOperator, embed

        terms = [
            embed(RegionOperator(np.outer(w, w.conj()), t), inst.space)
            for t in ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        ]
        for a in terms:
            for b in terms:
                assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def nonfactorizable_252_oracle():
    """The 2x5x2 example as it was written out by hand: psi, and the witnesses
    E1 = E1hat o E0 and E2 = E2hat o E0 with every Kraus product kept,
    vanishing ones included."""
    space = MultipartiteSpace([2, 5, 2])
    psi = np.zeros(20, dtype=complex)
    for (a, b, c) in ((0, 0, 0), (0, 1, 1), (1, 2, 0), (1, 3, 1)):
        psi += basis_state(space, [a, b, c])
    psi /= 2.0

    # middle-system basis |0..3> = |b b'> with |+> = 0, |-> = 1; |4> spans H0
    q = np.eye(5, dtype=complex)
    p_tilde = q[:, :4] @ q[:, :4].conj().T
    reinject = [p_tilde] + [0.5 * np.outer(q[:, m], q[:, 4]) for m in range(4)]
    e0 = ch.make_channel(reinject, [1], label="E0")

    phi = np.zeros(4, dtype=complex)  # (|0,b=+> + |1,b=->)/sqrt(2) on (A, b)
    phi[0] = 1 / np.sqrt(2)  # A=0, b=+ -> B in {0,1}: b index 0
    phi[3] = 1 / np.sqrt(2)  # A=1, b=- -> B in {2,3}: b index 1
    # A (x) B basis: group (A, b) with b' spectator: B index = 2*b + b'
    k1 = []
    for m in range(4):
        a, b = divmod(m, 2)
        k = np.zeros((10, 10), dtype=complex)
        for bp in range(2):
            col = a * 5 + b * 2 + bp
            k[:, col] += _ab_vec(phi, bp)
        k1.append(k)
    k1.append(_kernel_identity_ab())
    e1hat = ch.make_channel(k1, [0, 1], label="E1hat")

    phi2 = np.zeros(4, dtype=complex)  # (|b'=+,0> + |b'=-,1>)/sqrt(2) on (b', C)
    phi2[0] = 1 / np.sqrt(2)
    phi2[3] = 1 / np.sqrt(2)
    k2 = []
    for m in range(4):
        bp, c = divmod(m, 2)
        k = np.zeros((10, 10), dtype=complex)
        for b in range(2):
            col = (b * 2 + bp) * 2 + c
            k[:, col] += _bc_vec(phi2, b)
        k2.append(k)
    k2.append(_kernel_identity_bc())
    e2hat = ch.make_channel(k2, [1, 2], label="E2hat")

    return space, psi, every_product(e1hat, e0, space), every_product(e2hat, e0, space)


def _ab_vec(phi: np.ndarray, bp: int) -> np.ndarray:
    """|phi>_{A,b} (x) |bp>_{b'} as a vector on A x B (2 x 5)."""
    v = np.zeros(10, dtype=complex)
    for m in range(4):
        a, b = divmod(m, 2)
        v[a * 5 + b * 2 + bp] = phi[m]
    return v


def _kernel_identity_ab() -> np.ndarray:
    k = np.zeros((10, 10), dtype=complex)
    for a in range(2):
        k[a * 5 + 4, a * 5 + 4] = 1.0
    return k


def _bc_vec(phi: np.ndarray, b: int) -> np.ndarray:
    """|phi>_{b',C} (x) |b>_b as a vector on B x C (5 x 2)."""
    v = np.zeros(10, dtype=complex)
    for m in range(4):
        bp, c = divmod(m, 2)
        v[(b * 2 + bp) * 2 + c] = phi[m]
    return v


def _kernel_identity_bc() -> np.ndarray:
    k = np.zeros((10, 10), dtype=complex)
    for c in range(2):
        k[4 * 2 + c, 4 * 2 + c] = 1.0
    return k


def every_product(second, first, space):
    """`second` after `first` on the whole space, with every Kraus product kept."""
    ka = [embed(RegionOperator(k, first.support), space) for k in first.kraus]
    kb = [embed(RegionOperator(k, second.support), space) for k in second.kraus]
    return ch.make_channel([b @ a for b in kb for a in ka], range(space.n_subsystems))


class TestNonFactorizable:
    def test_state_and_witnesses(self):
        inst = states.nonfactorizable_252()
        assert abs(np.linalg.norm(inst.psi) - 1) < 1e-12
        assert_witnesses_ok(inst)

    def test_matches_hand_written_oracle(self):
        inst = states.nonfactorizable_252()
        space, psi, *oracle = nonfactorizable_252_oracle()
        assert inst.space == space
        assert np.max(np.abs(inst.psi - psi)) < 1e-15
        for got, want in zip(inst.witness_channels, oracle):
            assert np.max(np.abs(superoperator(got, space) - superoperator(want, space))) < 1e-12

    def test_compose_matches_oracle(self):
        inst = states.nonfactorizable_252()
        space, _, o1, o2 = nonfactorizable_252_oracle()
        e1, e2 = inst.witness_channels
        both = ch.compose(e1, e2, space)
        want = every_product(o1, o2, space)
        assert len(want.kraus) == 625 and len(both.kraus) == 32
        assert np.max(np.abs(superoperator(both, space) - superoperator(want, space))) < 1e-12

    def test_e0_trivial_after_either_map(self):
        inst = states.nonfactorizable_252()
        e1, e2 = inst.witness_channels
        # rebuild E0 and check E0 o E_i == E_i on random inputs
        q = np.eye(5, dtype=complex)
        p_tilde = q[:, :4] @ q[:, :4].conj().T
        reinject = [p_tilde] + [0.5 * np.outer(q[:, m], q[:, 4]) for m in range(4)]
        e0 = ch.make_channel(reinject, [1], label="E0")
        rng = np.random.default_rng(0)
        from qlstab._linalg import random_density

        for c in (e1, e2):
            for _ in range(3):
                rho = random_density(20, rng)
                once = apply(c, rho, inst.space)
                again = apply(e0, once, inst.space)
                assert trace_distance(once, again) < 1e-10


class TestGbv:
    @pytest.mark.parametrize("build, count", [
        (states.nonfactorizable_252, 24),
        (states.bv_two_body_example, 8),
        (states.gbv_fig4_instance, 40),
    ])
    def test_no_vanishing_kraus(self, build, count):
        # the re-injection Kraus operators the reset annihilates are dropped
        norms = [np.linalg.norm(k) for c in build().witness_channels for k in c.kraus]
        assert len(norms) == count
        assert min(norms) > DEFAULT_TOL.rank_rtol

    def test_two_body_instance(self):
        inst = states.bv_two_body_example()
        assert_witnesses_ok(inst)
        rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space)
        assert rep.passed

    def test_trivial_spec_is_product(self):
        from qlstab.hilbert import NeighborhoodStructure
        from qlstab.states import GbvSpec, ParticleSplit, gbv_state

        spec = GbvSpec(
            splits=(ParticleSplit((2,)), ParticleSplit((3,))),
            neighborhoods=NeighborhoodStructure([[0], [1]]),
            factors=(((0, 0),), ((1, 0),)),
        )
        inst = gbv_state(spec)
        span = schmidt_span(inst.psi, [0], inst.space)
        assert span.dim == 1

    def test_validation(self):
        from qlstab.hilbert import NeighborhoodStructure
        from qlstab.states import GbvSpec, ParticleSplit

        spec = GbvSpec(
            splits=(ParticleSplit((2,)), ParticleSplit((2,))),
            neighborhoods=NeighborhoodStructure([[0], [1]]),
            factors=(((0, 0), (1, 0)),),  # particle 1 not inside neighborhood 0
        )
        with pytest.raises(ValueError):
            spec.validate()

    @pytest.mark.parametrize("factors, flipped", [  # flipped: the factor listed out of order
        ((((1, 0), (0, 0)), ((1, 1), (2, 0))), 0),
        ((((0, 0), (1, 0)), ((2, 0), (1, 1))), 1),
    ])
    def test_factor_listed_out_of_region_order(self, factors, flipped):
        # the spec fixes which slot each tensor factor of a factor state sits on;
        # the witness must fix that psi whatever order the factor lists its slots in
        from qlstab.hilbert import NeighborhoodStructure
        from qlstab.states import GbvSpec, ParticleSplit, gbv_state

        def build(factors, factor_states=None):
            return gbv_state(GbvSpec(
                splits=(ParticleSplit((2,)), ParticleSplit((2, 2)), ParticleSplit((3,))),
                neighborhoods=NeighborhoodStructure([[0, 1], [1, 2]]),
                factors=factors, factor_states=factor_states,
            ))

        assert_witnesses_ok(build(factors))
        in_order = (((0, 0), (1, 0)), ((1, 1), (2, 0)))
        rng = np.random.default_rng(7)
        listed = [rng.normal(size=4), rng.normal(size=6)]
        listed = [v / np.linalg.norm(v) for v in listed]
        ordered = list(listed)
        ordered[flipped] = listed[flipped].reshape([(2, 2), (3, 2)][flipped]).T.reshape(-1)
        out_of_order = build(factors, tuple(listed))
        assert_witnesses_ok(out_of_order)
        assert np.array_equal(out_of_order.psi, build(in_order, tuple(ordered)).psi)

    @pytest.mark.slow
    def test_fig4_instance_robust(self):
        inst = states.gbv_fig4_instance()
        assert inst.space.total_dim == 1152
        assert_witnesses_ok(inst)
        from qlstab.rfts import channels_commute_pairwise

        defect = channels_commute_pairwise(list(inst.witness_channels), inst.space)
        assert defect < 1e-9
        # identity order drives the maximally mixed state to the target
        d = inst.space.total_dim
        rho = np.eye(d, dtype=complex) / d
        for c in inst.witness_channels:
            rho = apply(c, rho, inst.space)
        from qlstab._linalg import trace_distance_to_pure_bound

        assert trace_distance_to_pure_bound(rho, inst.psi) < 1e-8


class TestGibbs:
    def test_graph_gibbs_p3_robust_mixed(self):
        inst = states.graph_gibbs(3, beta=1.0)
        rep = verify_robustness(list(inst.witness_channels), inst.rho, inst.space)
        assert rep.passed

    def test_cycle_gibbs_matches_canonical_hamiltonian(self):
        # cycles have single-site neighborhood interiors, so the commuting
        # construction Hamiltonian coincides with the canonical one
        inst = states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)])
        from qlstab.subspaces import canonical_hamiltonian

        pset = canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
        h_canonical = hamiltonian(pset)
        gibbs = states.graph_state_gibbs(inst, beta=0.7)
        from scipy.linalg import expm

        rho_expected = expm(-0.7 * h_canonical)
        rho_expected /= np.trace(rho_expected)
        assert trace_distance(np.asarray(gibbs.rho), rho_expected) < 1e-9

    def test_beta_zero_maximally_mixed(self):
        inst = states.graph_gibbs(3, beta=0.0)
        assert trace_distance(np.asarray(inst.rho), np.eye(8) / 8) < 1e-12

    def test_large_beta_approaches_ground_projector(self):
        inst = states.graph_gibbs(3, beta=40.0)
        pure = states.line_graph_state(3)
        assert trace_distance(np.asarray(inst.rho), pure.density()) < 1e-10


class TestIsingGibbs:
    def test_counterexample_covariance(self):
        inst = states.ising_gibbs(8, 1.0, 1.0)
        assert abs(states.ising_zz_covariance(inst, 0, 5)) > 1e-3

    def test_beta_zero_uncorrelated(self):
        inst = states.ising_gibbs(8, 1.0, 0.0)
        assert abs(states.ising_zz_covariance(inst, 0, 5)) < 1e-12

    def test_transfer_matrix_agrees(self):
        inst = states.ising_gibbs(8, 1.0, 1.0)
        for (a, b) in ((0, 3), (0, 5), (2, 6)):
            direct = states.ising_zz_covariance(inst, a, b)
            tm = ising_zz_covariance_transfer(8, 1.0, 1.0, a, b)
            assert abs(direct - tm) < 1e-10

    def test_covariance_decays_with_distance(self):
        inst = states.ising_gibbs(8, 1.0, 1.0)
        vals = [abs(states.ising_zz_covariance(inst, 0, b)) for b in range(1, 8)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestGraphProductMixed:
    def test_distinct_site_factors_robust(self, rng):
        # conjugated product of *different* per-site mixed factors: the
        # general graph-product construction, not only uniform-temperature
        inst = states.line_graph_state(3)
        edges = inst.metadata["edges"]
        h2 = np.array([[1, 1], [1, -1]], dtype=complex)
        diag = states._phase_diagonal(inst.space, edges, lambda a, b: h2[a, b])
        hmat = h2 / np.sqrt(2)
        from qlstab._linalg import kron_all

        v = np.diag(diag) @ kron_all([hmat] * 3)
        terms = [(i, random_hermitian(2, rng)) for i in range(3)]
        mixed = states.gibbs_virtual_product(
            [2, 2, 2], terms, v, 1.0, inst.space, inst.neighborhoods,
            assignment=[0, 1, 2], name="graph-product",
        )
        rep = verify_robustness(list(mixed.witness_channels), mixed.rho, mixed.space)
        assert rep.passed
        # the state is genuinely mixed and not a uniform-temperature instance
        ev = np.linalg.eigvalsh(np.asarray(mixed.rho))
        assert ev[0] > 1e-6 and np.std(ev) > 1e-3
