import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from helpers import basis_state, random_hermitian, random_unitary, unitary_channel
from qlstab import _linalg
from qlstab import channels as ch
from qlstab import hilbert, rfts, states, subspaces
from qlstab._linalg import (
    DEFAULT_TOL,
    nullspace,
    random_density,
    trace_distance,
)
from qlstab.channels import Channel, make_channel, reset_channel, superoperator
from qlstab.hilbert import (
    MultipartiteSpace,
    NeighborhoodStructure,
    RegionOperator,
    uniform_space,
)
from qlstab.rfts import (
    AlgebraBasis,
    Factorization,
    FactorizationError,
    build_rfts_circuit,
    channels_commute_pairwise,
    check_algebraic_rfts,
    check_matching_overlap_rfts,
    cmi,
    commutant,
    correlation,
    correlation_probe,
    factor_representation,
    local_support,
    neighborhood_algebra,
    recoverability_probe,
    reduce_full_rank_factors,
    swap_bound,
    verify_robustness,
)
from qlstab.rfts import (
    _commutator_norms,
    _distance_to_target,
    _factor_split,
    _pairwise_algebra_commutation,
    _uncoarse_channel,
)


def channels_equal(a: Channel, b: Channel, space, probes: int = 8) -> bool:
    """Equality as superoperators, tested on random density-matrix probes."""
    rng = np.random.default_rng(7)
    for _ in range(probes):
        rho = random_density(space.total_dim, rng)
        if trace_distance(ch.apply(a, rho, space), ch.apply(b, rho, space)) > 1e-9:
            return False
    return True


class TestCommutant:
    def test_commutant_of_identity_is_everything(self):
        out = commutant([np.eye(3)])
        assert out.dim == 9

    def test_commutant_of_local_factor(self, rng):
        # B(C2) (x) I on two qubits has commutant I (x) B(C2)
        ops = [
            np.kron(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), np.eye(2))
            for _ in range(3)
        ]
        out = commutant(ops)
        assert out.dim == 4
        x = rng.normal(size=(2, 2))
        probe = np.kron(x, np.eye(2))
        for e in out.elements:
            assert np.max(np.abs(e @ probe - probe @ e)) < 1e-8

    def test_irreducible_set_has_trivial_commutant(self, rng):

        ops = [random_unitary(4, rng) for _ in range(3)]
        out = commutant(ops)
        assert out.dim == 1

    def test_commutant_of_nilpotent(self):
        # {N} spans no adjoint-closed set; its commutant is {a I + b N}
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = commutant([n])
        assert out.dim == 2
        span = np.stack([e.reshape(-1) for e in out.elements], axis=1)
        for x in (np.eye(2), n):
            v = x.reshape(-1)
            assert np.max(np.abs(span @ (span.conj().T @ v) - v)) < 1e-12
        assert commutant([n, n.T]).dim == 1

    def test_algebra_basis_validate(self, rng):
        out = commutant([np.diag([1.0, 1.0, 2.0])])
        defects = out.validate()
        assert defects["adjoint"] == 0.0
        assert defects["product"] == 0.0
        assert defects["identity"] == 0.0


def _block_algebra_generators(blocks, rng, count=3):
    """Random Hermitian elements of (+)_i M_a (x) I_b in a random basis."""
    m = sum(a * b for a, b in blocks)
    u = random_unitary(m, rng)
    return [
        u @ block_diag(*(np.kron(random_hermitian(a, rng), np.eye(b)) for a, b in blocks))
        @ u.conj().T
        for _ in range(count)
    ]


# (+)_i M_a (x) I_b as a list of (a, b); the oracle flag marks cases where the
# Kronecker commutator system is not zero up to roundoff
BLOCK_ALGEBRAS = [
    pytest.param([(1, 3)], False, id="scalars"),
    pytest.param([(4, 1)], True, id="irreducible"),
    pytest.param([(3, 2)], True, id="factor-3x2"),
    pytest.param([(4, 4)], True, id="factor-4x4"),
    pytest.param([(2, 2), (1, 3)], True, id="centre-2"),
    pytest.param([(2, 1), (2, 1)], True, id="equal-blocks"),
    pytest.param([(1, 2), (1, 3), (1, 1)], True, id="commuting"),
    pytest.param([(2, 3), (3, 1), (1, 2)], True, id="centre-3"),
]


class TestBlockAlgebras:
    """Known answers on (+)_i M_a (x) I_b: the commutant is (+)_i I_a (x) M_b."""

    @pytest.mark.parametrize("blocks, oracle", BLOCK_ALGEBRAS)
    def test_commutant_centre_and_factor(self, blocks, oracle, rng):
        ops = _block_algebra_generators(blocks, rng)
        m = ops[0].shape[0]
        comm = commutant(ops)
        assert comm.dim == sum(b * b for _, b in blocks)
        assert comm.center_dim() == len(blocks)
        for x in comm.elements:
            for s in ops:
                assert np.max(np.abs(x @ s - s @ x)) < 1e-10
        if oracle:
            eye = np.eye(m)
            null = nullspace(np.vstack([np.kron(s, eye) - np.kron(eye, s.T) for s in ops]))
            span = np.stack([x.reshape(-1) for x in comm.elements], axis=1)
            assert null.shape[1] == comm.dim
            assert np.max(np.abs(null @ (null.conj().T @ span) - span)) < 1e-8
        algebra = commutant(comm.elements, m)
        assert algebra.dim == sum(a * a for a, _ in blocks)
        assert algebra.center_dim() == len(blocks)
        if len(blocks) == 1:
            g, f, q = factor_representation(algebra)
            assert (f, q) == blocks[0]
            assert np.max(np.abs(g.conj().T @ g - np.eye(m))) < 1e-10
        else:
            with pytest.raises(FactorizationError):
                factor_representation(algebra)


class TestFactorRepresentation:
    def test_tensor_factor(self, rng):
        # the algebra B(C3) (x) I_2 in a scrambled basis

        u = random_unitary(6, rng)
        elems = []
        for a in range(3):
            for b in range(3):
                m = np.zeros((3, 3), dtype=complex)
                m[a, b] = 1.0
                elems.append(u @ np.kron(m, np.eye(2) / np.sqrt(2)) @ u.conj().T)
        basis = AlgebraBasis(tuple(elems), 6)
        g, f, q = factor_representation(basis, seed=3)
        assert (f, q) == (3, 2)
        # conjugated elements take the form A (x) I
        for e in elems[:4]:
            t = g.conj().T @ e @ g
            t4 = t.reshape(3, 2, 3, 2)
            a = np.einsum("ambm->ab", t4) / 2
            recon = np.einsum("ab,mn->ambn", a, np.eye(2)).reshape(6, 6)
            assert np.max(np.abs(t - recon)) < 1e-8


# ---------------------------------------------------------------------------
# oracles: the factorization as dense lifted levels, and the channels built
# from a rebuilt neighbourhood algebra
# ---------------------------------------------------------------------------

def lifted_levels(cspace, cn, support, algebras, splits, seed):
    """Split off one factor per level, each from the generic pair (from
    `seed`) of its algebra restricted to the rest space r of the levels
    before it: a list of (g, f), g acting on C^q with columns factor-major."""
    ht = support.h_tilde_dim
    rspace = MultipartiteSpace(support.restricted_dims)
    levels, r = [], None
    for j in (j for j in range(len(cn)) if splits[j][1] > 1):
        if r is None:
            g_loc, f = splits[j][:2]
            big = np.kron(g_loc, np.eye(ht // len(g_loc), dtype=complex))
            g = hilbert.from_front(big.reshape(len(g_loc), -1, ht), cn[j], rspace)
        else:
            g, f, _, _ = _factor_split(
                *(r.conj().T @ hilbert.act(y, cn[j], r, rspace) for y in algebras[j].generic_pair(seed))
            )
        assert f == splits[j][1]
        levels.append((g, f))
        branch0 = g[:, : g.shape[0] // f]
        r = branch0 if r is None else r @ branch0
    return levels


def to_virtual(fac, levels, v):
    """Coordinates of a global vector over the ordered virtual factors."""
    x = fac.restrict(v)
    for g, _ in levels:
        x = (x.conj().reshape(-1, g.shape[0]) @ g).conj().reshape(-1)
    return x.reshape(fac.factor_dims)


def peel_factor_states(psi_v, factor_dims):
    """Sequential rank-one peeling: the factor states and the worst residual."""
    x = psi_v.reshape(-1) / np.linalg.norm(psi_v)
    resid, out = 0.0, []
    for f in factor_dims[:-1]:
        u, s, vh = np.linalg.svd(x.reshape(f, -1), full_matrices=False)
        resid = max(resid, float(s[1]) if len(s) > 1 else 0.0)
        out.append(u[:, 0])
        x = vh[0]
    return out + [x], resid


def projector_block_residual(psi_c, cspace, cn, fac, levels, factor_states, rng, probes=3):
    """Every neighbourhood projector acts as |t_k><t_k| on its own factor,
    tested on random vectors in the lifted coordinates."""
    dims, worst = fac.factor_dims, 0.0
    locals_ = []
    for nk in cn:
        span = subspaces.schmidt_span(psi_c, nk, cspace)
        locals_.append(span.basis @ span.basis.conj().T)
    for _ in range(probes):
        v = rng.normal(size=cspace.total_dim) + 1j * rng.normal(size=cspace.total_dim)
        v /= np.linalg.norm(v)
        w = to_virtual(fac, levels, v)
        for k, nk in enumerate(cn):
            lhs = to_virtual(fac, levels, hilbert.act(locals_[k], nk, v, cspace))
            st = factor_states[k]
            rhs = np.moveaxis(np.tensordot(np.outer(st, st.conj()), w, axes=(1, k)), 0, k)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def lifted_check(psi, nstruct, space, seed=0):
    """`check_algebraic_rfts` with the factorization built as lifted levels:
    (ok, reason, factor_dims, target factor residual, projector residual)."""
    psi = psi / np.linalg.norm(psi)
    if not subspaces.check_qls(psi, nstruct, space).qls:
        return False, "not-qls", (), 0.0, 0.0
    cg = hilbert.coarse_grain(space, reduce_full_rank_factors(psi, nstruct, space)[0])
    psi_c = hilbert.coarse_grain_state(psi, cg, space)
    cspace, cn = cg.space, cg.neighborhoods
    support = local_support(psi_c, cspace)
    algebras = [neighborhood_algebra(psi_c, cn, j, cspace, support) for j in range(len(cn))]
    try:
        splits = [_factor_split(*alg.generic_pair(seed)) for alg in algebras]
    except FactorizationError:
        return False, "incomplete", (), 0.0, 0.0
    fs = tuple(split[1] for split in splits)
    if any(f * f != alg.dim for f, alg in zip(fs, algebras)):
        return False, "incomplete", (), 0.0, 0.0
    if _pairwise_algebra_commutation(algebras, cn, support) > DEFAULT_TOL.commutator:
        return False, "non-commuting", (), 0.0, 0.0
    if math.prod(fs) != support.h_tilde_dim:
        return False, "incomplete", fs, 0.0, 0.0
    fac = Factorization(fs, tuple(s[:3] for s in splits), support, cspace, cn, support.h0_dim(cspace))
    levels = lifted_levels(cspace, cn, support, algebras, splits, seed)
    psi_v = to_virtual(fac, levels, psi_c)
    h0_weight = 1.0 - float(np.linalg.norm(psi_v) ** 2)
    factor_states, resid = peel_factor_states(psi_v, fs)
    block = projector_block_residual(psi_c, cspace, cn, fac, levels, factor_states,
                                     np.random.default_rng(seed + 1))
    splits2 = [_factor_split(*alg.generic_pair(seed + 17)) for alg in algebras]
    levels2 = lifted_levels(cspace, cn, support, algebras, splits2, seed + 17)
    resid = max(resid, peel_factor_states(to_virtual(fac, levels2, psi_c), fs)[1])
    ok = resid < 1e-7 and abs(h0_weight) < 1e-9 and block < 1e-6
    return ok, "ok" if ok else "target-not-factored", fs, resid, block


def rebuilt_rfts_circuit(fac, psi, cg, original_space, seed=0):
    """The RFTS channels with each neighbourhood algebra rebuilt and split
    again, and the factor state read off the factor's reduced state."""
    psi_c = hilbert.coarse_grain_state(psi, cg, original_space)
    support, cspace = fac.support, fac.space
    channels = []
    for j, (region, f) in enumerate(zip(fac.neighborhoods, fac.factor_dims)):
        w_r = support.region_isometry(region)
        g_loc, q, t_j = np.eye(w_r.shape[1]), w_r.shape[1], np.ones(1)
        if f > 1:
            algebra = neighborhood_algebra(psi_c, fac.neighborhoods, j, cspace, support)
            g_loc, floc, q = factor_representation(algebra, seed=seed)
            assert floc == f
            rho_r = hilbert.reduced_state_of_pure(psi_c, region, cspace)
            sigma = g_loc.conj().T @ (w_r.conj().T @ rho_r @ w_r) @ g_loc
            ev, vec = np.linalg.eigh(np.einsum("ambm->ab", sigma.reshape(f, q, f, q)))
            assert ev[-1] > 1.0 - 1e-7
            t_j = vec[:, -1]
        isos = [support.site_isometries[i] for i in region]
        local = ch.factor_reset_channel(t_j, [0], (f, q), g_loc, isos, region, f"E_{j}")
        channels.append(_uncoarse_channel(ch.restrict_to_support(local, cspace), cg, original_space))
    return channels


# the instances compared with the lifted oracle; every h~ is at most 512
LIFTED_CASES = {
    "cycle5": lambda: states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)]),
    "line3": lambda: states.line_graph_state(3),
    "line4": lambda: states.line_graph_state(4),
    "grid-2x3": lambda: states.grid_graph_state(2, 3),
    "torus-3x3": lambda: states.grid_graph_state(3, 3, periodic=True),
    "ccz-triangle": states.ccz_triangle,
    "kagome-3x1": lambda: states.ccz_kagome(3, 1),
    "triangular-2x2": lambda: states.triangular_patch(2, 2),
    "triangular-2x3": lambda: states.triangular_patch(2, 3),
    "nonfactorizable-252": states.nonfactorizable_252,
    "bv-chain": states.bv_two_body_example,
    "gbv-fig4": states.gbv_fig4_instance,
    "dicke-4-2": lambda: states.dicke(4, 2),
    "vbs3": lambda: states.vbs_1d(3),
    "vbs4": lambda: states.vbs_1d(4),
    "aklt-cubic": states.aklt32_cubic,
    "qutrit-triangle": lambda: states.graph_state(3, [(0, 1), (1, 2), (0, 2)], d=3),
}


class TestLocalFactorization:
    @pytest.mark.parametrize("name", list(LIFTED_CASES))
    def test_matches_lifted_levels(self, name):
        inst = LIFTED_CASES[name]()
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        ok, reason, dims, resid, block = lifted_check(inst.psi, inst.neighborhoods, inst.space)
        assert (res.ok, res.reason, res.factor_dims) == (ok, reason, dims)
        if ok:
            assert max(resid, block, res.target_factor_residual, res.projector_block_residual) < 1e-12
            assert [s[1:] for s in res.factorization.splits] == [
                (f, len(s[0]) // f) for s, f in zip(res.factorization.splits, dims)
            ]

    @pytest.mark.parametrize("name", ["cycle5", "ccz-triangle", "kagome-3x1", "nonfactorizable-252",
                                      "bv-chain", "gbv-fig4"])
    def test_channels_match_rebuilt_algebras(self, name):
        inst = LIFTED_CASES[name]()
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        built = build_rfts_circuit(res.factorization, inst.psi, cg=res.coarse, original_space=inst.space)
        oracle = rebuilt_rfts_circuit(res.factorization, inst.psi, res.coarse, inst.space)
        assert [(c.support, len(c.kraus)) for c in built] == [(c.support, len(c.kraus)) for c in oracle]
        for a, b in zip(built, oracle):
            (a_loc, sub), (b_loc, _) = (ch.relocate(c, c.support, inst.space) for c in (a, b))
            assert np.max(np.abs(superoperator(a_loc, sub) - superoperator(b_loc, sub))) < 1e-12


def coarse_algebras(inst):
    """The neighbourhood algebras `check_algebraic_rfts` computes, with their
    coarse neighbourhoods and local support."""
    cg = hilbert.coarse_grain(inst.space, reduce_full_rank_factors(inst.psi, inst.neighborhoods, inst.space)[0])
    psi_c = hilbert.coarse_grain_state(inst.psi, cg, inst.space)
    support = local_support(psi_c, cg.space)
    cn = cg.neighborhoods
    return [neighborhood_algebra(psi_c, cn, j, cg.space, support) for j in range(len(cn))], cn, support


class TestAlgebraCommutation:
    @pytest.mark.parametrize("name", ["cycle5", "ccz-triangle", "nonfactorizable-252", "kagome-3x1"])
    def test_matches_union_embed(self, name):
        # every pair of basis elements of two overlapping algebras, embedded
        # on the union of the two restricted neighbourhoods
        algebras, cn, support = coarse_algebras(LIFTED_CASES[name]())
        space = MultipartiteSpace(support.restricted_dims)
        oracle = max((float(np.max(union_embed_norms(algebras[j].elements, cn[j], algebras[k].elements, cn[k],
                                                     space), initial=0.0))
                      for j, k in itertools.combinations(range(len(cn)), 2) if set(cn[j]) & set(cn[k])),
                     default=0.0)
        assert abs(_pairwise_algebra_commutation(algebras, cn, support) - oracle) <= 1e-12


class TestLocalSupport:
    def test_full_rank(self):
        inst = states.line_graph_state(3)
        sup = local_support(inst.psi, inst.space)
        assert sup.restricted_dims == (2, 2, 2)

    def test_nonfactorizable_has_kernel(self):
        inst = states.nonfactorizable_252()
        sup = local_support(inst.psi, inst.space)
        assert sup.restricted_dims == (2, 4, 2)
        assert sup.h0_dim(inst.space) == 4

    def test_product_state_rank_one(self):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [0, 1]).astype(complex)
        sup = local_support(psi, sp)
        assert sup.restricted_dims == (1, 1)


class TestAlgebraicRfts:
    def test_cycle_c5_ok(self):
        inst = states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)])
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert res.ok, res.reason
        assert res.factor_dims == (2, 2, 2, 2, 2)
        assert res.target_factor_residual < 1e-8
        assert res.projector_block_residual < 1e-8

    def test_line_graphs_fail_at_boundaries(self):
        # open-boundary lines have nested neighborhoods whose restricted
        # projectors over-constrain the boundary algebras: the sufficient
        # criterion honestly reports failure even though the states are
        # robustly stabilizable via their witness channels
        for n in (3, 4):
            inst = states.line_graph_state(n)
            res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
            assert not res.ok
            rep = verify_robustness(
                list(inst.witness_channels), inst.psi, inst.space, trials=10
            )
            assert rep.passed

    def test_grid_2x3_small_patch_artifact(self):
        # on the tiny open grid every boundary dressing is correlated, so the
        # algebras collapse; the state itself is still robustly stabilizable
        inst = states.grid_graph_state(2, 3)
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert not res.ok and res.reason == "incomplete"
        rep = verify_robustness(
            list(inst.witness_channels), inst.psi, inst.space, trials=5
        )
        assert rep.passed

    def test_ccz_triangle_ok_after_coarse_graining(self):
        inst = states.ccz_triangle()
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert res.ok, res.reason
        # all three sites merge into one coarse particle whose local support
        # is the span of the target itself, so the factorization is trivial
        assert res.coarse_groups == ((0, 1, 2),)
        assert res.factor_dims == (1,)
        built = build_rfts_circuit(
            res.factorization, inst.psi, cg=res.coarse, original_space=inst.space
        )
        rep = verify_robustness(built, inst.psi, inst.space)
        assert rep.passed

    def test_nonfactorizable_ok(self):
        inst = states.nonfactorizable_252()
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert res.ok, res.reason
        assert sorted(res.factor_dims) == [4, 4]

    def test_dicke_not_ok(self):
        inst = states.dicke(4, 2)
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert not res.ok
        assert res.reason in ("non-commuting", "incomplete", "target-not-factored")

    def test_ghz_not_qls(self):
        sp = uniform_space(3)

        ghz = (basis_state(sp, [0, 0, 0]) + basis_state(sp, [1, 1, 1])) / np.sqrt(2)
        res = check_algebraic_rfts(ghz, NeighborhoodStructure([[0, 1], [1, 2]]), sp)
        assert not res.ok
        assert res.reason == "not-qls"

    def test_gbv_instance_ok(self):
        inst = states.bv_two_body_example()
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert res.ok, res.reason


class TestFullRankReduction:
    def test_full_rank_marginal_inside_second_neighborhood(self, rng):
        # bell(0,1) x pure(2): inside N_1 = {1,2} the site-1 marginal is I/2
        # and factors out, so site 1 is dropped there (it stays covered by N_0)
        sp = uniform_space(3)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        third = np.array([0.6, 0.8], dtype=complex)
        psi = np.kron(bell, third)
        n = NeighborhoodStructure([[0, 1], [1, 2]])
        n2, drops = reduce_full_rank_factors(psi, n, sp)
        assert (1, 1) in drops
        assert (2,) in n2.neighborhoods
        assert (0, 1) in n2.neighborhoods

    def test_drop_site_with_full_rank_marginal(self):
        # 4 qubits: bell(0,1) x bell(2,3), neighborhoods {01}, {1,2,3}
        sp = uniform_space(4)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        psi = np.kron(bell, bell)
        n = NeighborhoodStructure([[0, 1], [1, 2, 3]])
        n2, drops = reduce_full_rank_factors(psi, n, sp)
        # in {1,2,3}: rho = (I/2)_1 (x) bell_{23}: site 1 is full rank and factors
        assert (1, 1) in drops
        assert (1, 2, 3) not in n2.neighborhoods
        assert (2, 3) in n2.neighborhoods


def per_order_robustness(channels, target, space, trials=200, seed=5, n_random_inputs=1,
                         exhaustive_limit=720, distance_exact_limit=768):
    """Oracle for the per-order walk of `verify_robustness`: every distinct order
    run on every input, one state and one channel at a time.

    Returns (max final distance, first order reaching it, orders, distinct).
    """
    rng = np.random.default_rng(seed)
    t = len(channels)
    if math.factorial(t) <= exhaustive_limit:
        orders = list(itertools.permutations(range(t)))
    else:
        orders = [tuple(range(t))] + [tuple(rng.permutation(t)) for _ in range(trials)]
    d = space.total_dim
    inputs = [np.eye(d, dtype=complex) / d] + [random_density(d, rng) for _ in range(n_random_inputs)]
    worst, worst_order = 0.0, orders[0]
    distinct = dict.fromkeys(orders)
    for order in distinct:
        for rho in inputs:
            for idx in order:
                rho = ch.apply(channels[idx], rho, space)
            dist = _distance_to_target(rho, target, exact_limit=distance_exact_limit)
            if dist > worst:
                worst, worst_order = dist, order
    return worst, worst_order, len(orders), len(distinct)


def _count_applies(monkeypatch) -> list:
    calls = []
    apply = ch.apply

    def counted(c, rho, space, *work):
        calls.append(rho.shape)
        return apply(c, rho, space, *work)

    monkeypatch.setattr(ch, "apply", counted)
    return calls


class TestPrefixWalk:
    """The walk over the drawn orders is the path of record whenever the
    Kraus commutators cannot bound the order effect; these witnesses all
    commute, so the walk is forced by certifying no pair."""

    @pytest.fixture(autouse=True)
    def force_walk(self, monkeypatch):
        monkeypatch.setattr(rfts, "swap_bound", lambda *args, **kwargs: math.inf)

    CASES = {
        "line-3": lambda: states.line_graph_state(3),
        "line-4": lambda: states.line_graph_state(4),
        "grid-2x3": lambda: states.grid_graph_state(2, 3),
        "w-product-sampled": lambda: states.w_product_9(),
    }

    @staticmethod
    def _compare(name):
        inst = TestPrefixWalk.CASES[name]()
        kw = dict(exhaustive_limit=1, trials=12) if name == "w-product-sampled" else {}
        chans = list(inst.witness_channels)
        rep = verify_robustness(chans, inst.psi, inst.space, **kw)
        worst, worst_order, n_orders, n_distinct = per_order_robustness(chans, inst.psi, inst.space, **kw)
        assert rep.passed == (worst < 1e-8)
        assert (rep.orders_run, rep.distinct_orders) == (n_orders, n_distinct)
        assert rep.exhaustive == (name != "w-product-sampled")
        assert abs(rep.max_final_distance - worst) <= 1e-15
        assert rep.worst_order == worst_order

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_per_order_loop(self, name):
        self._compare(name)

    @pytest.mark.parametrize("name", ["line-3", "line-4", "grid-2x3"])
    @pytest.mark.parametrize("budget", [6 * 16 * 16**2, 1])
    def test_smaller_budgets_match(self, name, budget, monkeypatch):
        # 6 states of D = 16: line 4 holds one branch state, line 3 several,
        # and the 2x3 grid (D = 64) runs its inputs one at a time; 1 byte:
        # nothing held, one input at a time
        monkeypatch.setattr(ch, "STACK_MAX_BYTES", budget)
        self._compare(name)

    def test_each_prefix_applied_once(self, monkeypatch):
        # t = 6, exhaustive: each order runs once from each of the two
        # inputs, one D x D apply per channel, 720 * 6 * 2
        inst = states.grid_graph_state(2, 3)
        calls = _count_applies(monkeypatch)
        rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space)
        d = inst.space.total_dim
        walk = [s for s in calls if s == (d, d)]
        assert rep.exhaustive and rep.distinct_orders == 720
        assert len(walk) == len(calls) == 720 * 6 * 2

    def test_state_over_budget_runs_every_order_from_inputs(self, monkeypatch):
        # D = 512: each order runs from each input, one D x D state,
        # channel by channel
        inst = states.w_product_9()
        calls = _count_applies(monkeypatch)
        rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space,
                                exhaustive_limit=1, trials=12)
        d = inst.space.total_dim
        walk = [s for s in calls if s == (d, d)]
        assert len(walk) == rep.distinct_orders * 3 * 2

    def test_kagome_holds_no_more_than_per_order(self):
        # D = 512: the walk holds its inputs and its workspace, no state
        # between orders and no input copy, so the traced peak stays at the
        # per-order loop's
        inst = states.ccz_kagome(3, 1)
        tracemalloc.start()
        try:
            rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space, trials=3,
                                    n_random_inputs=0, distance_exact_limit=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.orders_run == 4
        assert peak < 25 * 2**20


class TestRobustness:
    def test_graph_p3_all_orders(self):
        inst = states.line_graph_state(3)
        rep = verify_robustness(
            list(inst.witness_channels), inst.psi, inst.space
        )
        assert rep.passed
        assert rep.exhaustive
        assert rep.orders_run == 6

    def test_w_product_robust(self):
        inst = states.w_product_9()
        rep = verify_robustness(
            list(inst.witness_channels), inst.psi, inst.space, n_random_inputs=1
        )
        assert rep.passed

    def test_repeated_orders_run_once(self, monkeypatch):
        # the W-product witnesses have disjoint supports, so without a forced
        # walk only the identity order would run
        monkeypatch.setattr(rfts, "swap_bound", lambda *args, **kwargs: math.inf)
        inst = states.w_product_9()
        chans = list(inst.witness_channels)
        rep = verify_robustness(chans, inst.psi, inst.space, exhaustive_limit=1, trials=40)
        rng = np.random.default_rng(5)
        orders = [(0, 1, 2)] + [tuple(rng.permutation(3)) for _ in range(40)]
        d = inst.space.total_dim
        inputs = [np.eye(d, dtype=complex) / d, random_density(d, rng)]
        target = np.outer(inst.psi, inst.psi.conj())
        worst = 0.0
        for order in orders:
            for rho in inputs:
                for idx in order:
                    rho = ch.apply(chans[idx], rho, inst.space)
                worst = max(worst, trace_distance(rho, target))
        assert rep.orders_run == 41
        assert rep.distinct_orders == len(set(orders)) <= 6
        assert rep.max_final_distance == worst
        assert rep.passed

    def test_dicke_fts_steps_not_robust(self, densify):
        from qlstab.fts import plan_fts, synthesize_fts

        inst = states.dicke(4, 2)
        plan = plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
        circ, _ = synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
        rep = verify_robustness(densify(circ), inst.psi, inst.space, trials=20)
        assert not rep.passed
        worst, worst_order, _, _ = per_order_robustness(densify(circ), inst.psi, inst.space, trials=20)
        assert rep.worst_order == worst_order
        assert abs(rep.max_final_distance - worst) <= 1e-15

    def test_single_channel(self, rng):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [1, 0]).astype(complex)
        c = reset_channel(psi, [0, 1])
        rep = verify_robustness([c], psi, sp)
        assert rep.passed

    @pytest.mark.parametrize("exhaustive_limit", [720, 1])
    def test_worst_order_named(self, exhaustive_limit):
        # reset to |0> then flip ends in |1>; flip then reset ends in |0>
        sp = uniform_space(1)
        zero = np.array([1.0, 0.0], dtype=complex)
        flip = unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex), [0])
        rep = verify_robustness(
            [reset_channel(zero, [0]), flip], zero, sp, exhaustive_limit=exhaustive_limit
        )
        assert not rep.passed
        assert rep.exhaustive == (exhaustive_limit == 720)
        assert rep.worst_order == (0, 1)
        assert abs(rep.max_final_distance - 1.0) < 1e-12

    def test_nonfactorizable_channels(self):
        inst = states.nonfactorizable_252()
        rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space)
        assert rep.passed

    def test_nonfactorizable_superoperator_equality(self):
        inst = states.nonfactorizable_252()
        e1, e2 = inst.witness_channels
        s12 = superoperator(ch.compose(e1, e2, inst.space), inst.space)
        s21 = superoperator(ch.compose(e2, e1, inst.space), inst.space)
        target = np.outer(inst.psi, inst.psi.conj()).reshape(-1)
        ident = np.eye(20).reshape(-1)
        s_reset = np.outer(target, ident.conj())
        assert np.max(np.abs(s12 - s_reset)) < 1e-9
        assert np.max(np.abs(s21 - s_reset)) < 1e-9

    def test_commutation_probe(self):
        inst = states.line_graph_state(4)
        defect = channels_commute_pairwise(list(inst.witness_channels), inst.space)
        assert defect < 1e-9


ROBUSTNESS_CASES = {
    "kagome-3x1": (lambda: states.ccz_kagome(3, 1), dict(trials=3, n_random_inputs=0, distance_exact_limit=256)),
    "w-product": (states.w_product_9, dict(distance_exact_limit=256)),
    "w-product-sampled": (states.w_product_9, dict(exhaustive_limit=1, trials=12)),
}


class TestRealRobustness:
    """Real maps run I/D as a float64 stack; the certificates are those of the
    complex arithmetic up to roundoff."""

    @pytest.mark.parametrize("name", list(ROBUSTNESS_CASES))
    def test_certificates_match_complex_arithmetic(self, name, monkeypatch):
        build, kw = ROBUSTNESS_CASES[name]
        inst = build()
        chans = list(inst.witness_channels)
        assert all(c.real_kraus is not None for c in chans)
        real = verify_robustness(chans, inst.psi, inst.space, **kw)
        with monkeypatch.context() as m:
            # every channel complex: the stacks and products of complex arithmetic
            m.setattr(Channel, "real_kraus", property(lambda self: None))
            cplx = verify_robustness(chans, inst.psi, inst.space, **kw)
        same = ("passed", "orders_run", "distinct_orders", "exhaustive", "invariance_ok", "worst_order",
                "method", "orders_computed", "order_bound", "max_invariance_defect")
        assert [getattr(real, f) for f in same] == [getattr(cplx, f) for f in same]
        assert real.passed and real.method == "commuting"
        assert abs(real.max_final_distance - cplx.max_final_distance) <= 1e-14
        d = inst.space.total_dim
        assert abs(real.worst_input_bound - cplx.worst_input_bound) <= d * rfts._fidelity_roundoff(d)

    @pytest.mark.parametrize("name, n_random, dtypes", [
        ("kagome-3x1", 0, [np.float64]),
        ("w-product", 1, [np.float64, np.complex128]),  # D = 512
        ("grid-2x3", 1, [np.float64, np.complex128]),  # D = 64: the same rule at every D
    ])
    def test_stack_dtypes(self, name, n_random, dtypes, monkeypatch):
        inst = states.grid_graph_state(2, 3) if name == "grid-2x3" else ROBUSTNESS_CASES[name][0]()
        seen = []
        apply = ch.apply
        monkeypatch.setattr(ch, "apply", lambda c, rho, sp, *work: seen.append((rho.shape, rho.dtype))
                            or apply(c, rho, sp, *work))
        rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space, n_random_inputs=n_random)
        assert rep.passed and rep.method == "commuting"
        d = inst.space.total_dim
        walk = [dtype for shape, dtype in seen if shape == (d, d)]
        t = len(inst.witness_channels)
        assert walk == [dt for dt in dtypes for _ in range(t)]

    def test_complex_map_keeps_complex_stack(self):
        chans, sp = eps_pair(1e-12), uniform_space(2)
        assert chans[1].real_kraus is None
        assert rfts._input_dtypes(chans, 4, 1) == [complex]
        assert rfts._input_dtypes(chans[:1], 4, 1) == [float]
        # the random inputs are complex at every D
        assert rfts._input_dtypes(chans[:1], 4, 3) == [float, complex, complex]
        assert rfts._input_dtypes(chans, 4, 3) == [complex] * 3

    def test_cap_sizes(self):
        # kagome 2x2 (D = 4096) with I/D alone: 6 float64 states, 0.75 GiB,
        # runs; D = 2^13 refuses, and so does a complex random input at D = 4096
        chans = list(states.ccz_kagome(3, 1).witness_channels)
        assert rfts._input_dtypes(chans, 4096, 1) == [float]
        with pytest.raises(ch.CapExceeded, match="D = 8192"):
            rfts._input_dtypes(chans, 8192, 1)
        with pytest.raises(ch.CapExceeded, match="D = 4096"):
            rfts._input_dtypes(chans, 4096, 2)

    def test_d_2_13_refused_before_allocating(self):
        # 13 qubits, each reset to |0>: refused before any D x D array exists
        sp = uniform_space(13)
        zero = np.array([1.0, 0.0])
        chans = [reset_channel(zero, [i]) for i in range(13)]
        target = np.zeros(sp.total_dim)
        target[0] = 1.0
        tracemalloc.start()
        try:
            with pytest.raises(ch.CapExceeded, match="capped at 1.0 GiB"):
                verify_robustness(chans, target, sp, n_random_inputs=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("name, n_random, buffers", [
        ("kagome-3x1", 0, 5),  # Kraus operators one at a time: every buffer
        ("w-product", 1, 3),  # the natural matrix: two states and the sum
        ("grid-2x3", 1, 5),
    ])
    def test_cap_counts_the_workspace(self, name, n_random, buffers, monkeypatch):
        # the walk's workspace ends holding at most APPLY_BUFFERS buffers of
        # the largest input, the count `_input_dtypes` charges
        inst = states.grid_graph_state(2, 3) if name == "grid-2x3" else ROBUSTNESS_CASES[name][0]()
        chans, d = list(inst.witness_channels), inst.space.total_dim
        works = []

        class Spy(ch.Workspace):
            def __init__(self):
                super().__init__()
                works.append(self)

        monkeypatch.setattr(ch, "Workspace", Spy)
        monkeypatch.setattr(rfts, "swap_bound", lambda *a, **k: math.inf)  # walk every order
        verify_robustness(chans, inst.psi, inst.space, n_random_inputs=n_random, exhaustive_limit=6, trials=3)
        largest = max(d * d * np.dtype(t).itemsize for t in rfts._input_dtypes(chans, d, 1 + n_random))
        assert len(works) == 1 and rfts.APPLY_BUFFERS == len(ch.Workspace.BUFFERS) == 5
        assert works[0].nbytes == buffers * largest

    def test_patched_cap_refuses(self, monkeypatch):
        # the estimate for kagome 3x1 (D = 512, I/D in float64): the input
        # and the workspace's five buffers
        inst = states.ccz_kagome(3, 1)
        chans = list(inst.witness_channels)
        need = 6 * 8 * 512**2
        monkeypatch.setattr(_linalg, "MAX_BYTES", need)
        kw = dict(trials=3, n_random_inputs=0, distance_exact_limit=256)
        assert verify_robustness(chans, inst.psi, inst.space, **kw).passed
        monkeypatch.setattr(_linalg, "MAX_BYTES", need - 1)
        calls = _count_applies(monkeypatch)
        with pytest.raises(ch.CapExceeded, match="robustness walk"):
            verify_robustness(chans, inst.psi, inst.space, **kw)
        assert calls == []


def union_embed_norms(xs, x_support, ys, y_support, space) -> np.ndarray:
    """Oracle for `_commutator_norms`: every operator embedded on the union
    of the two supports (`hilbert.act` on the identity), and each commutator
    taken there."""
    union = sorted(set(x_support) | set(y_support))
    sub = MultipartiteSpace([space.dims[i] for i in union])
    eye = np.eye(sub.total_dim, dtype=complex)
    ex, ey = ([hilbert.act(op, [union.index(i) for i in support], eye, sub) for op in ops]
              for ops, support in ((xs, x_support), (ys, y_support)))
    return np.array([[np.linalg.norm(x @ y - y @ x) for y in ey] for x in ex]).reshape(len(xs), len(ys))


def unit_ops(count: int, m: int, rng) -> list[np.ndarray]:
    """`count` random complex m x m operators of unit Frobenius norm."""
    ops = rng.normal(size=(count, m, m)) + 1j * rng.normal(size=(count, m, m))
    return list(ops / np.linalg.norm(ops, axis=(1, 2), keepdims=True))


def built_channels(inst) -> list[Channel]:
    res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
    return build_rfts_circuit(res.factorization, inst.psi, cg=res.coarse, original_space=inst.space)


def few_kraus(channels: list[Channel]) -> list[Channel]:
    """The first two and the last Kraus operator of each channel: the norm
    identity holds for any operators, and the oracle stays fast."""
    return [Channel(kraus=c.kraus[:2] + c.kraus[-1:], support=c.support, label=c.label) for c in channels]


def cycle5():
    return states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)])


# name -> the instance whose witness channels a test takes
COMMUTATOR_CASES = {
    "kagome-3x1": lambda: states.ccz_kagome(3, 1),
    "line-3": lambda: states.line_graph_state(3),
    "line-4": lambda: states.line_graph_state(4),
    "line-5": lambda: states.line_graph_state(5),
    "line-6": lambda: states.line_graph_state(6),
    "grid-2x3": lambda: states.grid_graph_state(2, 3),
    "ccz-triangle": states.ccz_triangle,
    "bv-chain": states.bv_two_body_example,
    "nonfactorizable-252": states.nonfactorizable_252,
}


def commutator_case(name):
    if name.startswith("built-"):
        inst = {"built-cycle5": cycle5, "built-2x5x2": states.nonfactorizable_252,
                "built-kagome-3x1": lambda: states.ccz_kagome(3, 1)}[name]()
        chans = built_channels(inst)
        return (few_kraus(chans) if name == "built-kagome-3x1" else chans), inst.space
    inst = COMMUTATOR_CASES[name]()
    return list(inst.witness_channels), inst.space


def eps_pair(eps: float, p: float = 1.0) -> list[Channel]:
    """Two channels on two qubits that fix |00>: A resets qubit 0 with
    probability p; B resets qubit 1, then turns |01> and |10> into each other
    by the angle eps. Their Kraus operators commute up to O(eps)."""
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    ka = [np.sqrt(p) * zero, np.sqrt(p) * lower] + ([np.sqrt(1 - p) * np.eye(2)] if p < 1 else [])
    swap = np.zeros((4, 4), dtype=complex)
    swap[1, 2] = swap[2, 1] = 1.0
    v = expm(-1j * eps * swap)
    kb = [v @ np.kron(np.eye(2), r) for r in (zero, lower)]
    return [make_channel(ka, [0], label="A"), make_channel(kb, [0, 1], label="B")]


ZERO2 = np.array([1, 0, 0, 0], dtype=complex)


def forced_walk(monkeypatch, *args, **kwargs):
    """`verify_robustness` with no pair certified, so the drawn orders decide."""
    with monkeypatch.context() as m:
        m.setattr(rfts, "swap_bound", lambda *a, **k: math.inf)
        return verify_robustness(*args, **kwargs)


class TestOrderCertificate:
    @pytest.mark.parametrize("name", list(COMMUTATOR_CASES) + ["built-cycle5", "built-2x5x2", "built-kagome-3x1"])
    def test_schmidt_route_matches_union_embed(self, name):
        chans, space = commutator_case(name)
        pairs = 0
        for a, b in itertools.combinations(chans, 2):
            args = (a.kraus, a.support, b.kraus, b.support, space)
            norms = _commutator_norms(*args)
            assert norms.shape == (len(a.kraus), len(b.kraus))
            if set(a.support) & set(b.support):
                pairs += 1
                assert np.max(np.abs(norms - union_embed_norms(*args))) <= 1e-12
            else:
                assert not np.any(norms)
                assert swap_bound(a, b, space) == 0.0
        assert pairs > 0

    @pytest.mark.parametrize("x_support, y_support", [
        ((1,), (0, 1, 2)), ((0, 1, 2), (0, 2)), ((0, 1), (0, 1)),
    ])
    def test_nested_supports_match_union_embed(self, x_support, y_support, rng):
        # the nested side has no private sites, so each of its operators is
        # its own single overlap factor; a zero operator has no factor
        space = MultipartiteSpace([2, 3, 2])
        xs = unit_ops(3, space.dim_of(x_support), rng) + [np.zeros((space.dim_of(x_support),) * 2)]
        ys = unit_ops(2, space.dim_of(y_support), rng)
        norms = _commutator_norms(xs, x_support, ys, y_support, space)
        assert norms.shape == (4, 2) and not np.any(norms[-1]) and np.all(norms[:-1] > 0.1)
        assert np.max(np.abs(norms - union_embed_norms(xs, x_support, ys, y_support, space))) <= 1e-12

    @pytest.mark.parametrize("budget", [1, 16 * 3 * 12 * 3 * 5])
    def test_factor_chunks_match_union_embed(self, budget, rng, monkeypatch):
        # on the overlap (site 1, dim 3) the X side has 16 factors and the Y
        # side 12, so these budgets take the X factors 1 and 5 at a time
        space = MultipartiteSpace([2, 3, 2])
        xs, ys = unit_ops(4, 6, rng), unit_ops(3, 6, rng)
        whole = _commutator_norms(xs, (0, 1), ys, (1, 2), space)
        monkeypatch.setattr(ch, "STACK_MAX_BYTES", budget)
        chunked = _commutator_norms(xs, (0, 1), ys, (1, 2), space)
        assert np.max(np.abs(chunked - whole)) <= 1e-14
        assert np.max(np.abs(chunked - union_embed_norms(xs, (0, 1), ys, (1, 2), space))) <= 1e-12

    @pytest.mark.parametrize("name, kw", [
        ("kagome-3x1", dict(trials=3, n_random_inputs=0)),
        ("line-3", {}), ("line-4", {}), ("line-5", {}), ("line-6", {}),
        ("grid-2x3", {}), ("ccz-triangle", {}), ("bv-chain", {}),
        ("built-cycle5", dict(trials=10)),
        ("w-product", dict(exhaustive_limit=1, trials=12)),
    ])
    def test_commuting_path_matches_walk(self, name, kw, monkeypatch):
        if name == "w-product":
            inst = states.w_product_9()
            chans, space = list(inst.witness_channels), inst.space
        else:
            chans, space = commutator_case(name)
            inst = cycle5() if name == "built-cycle5" else COMMUTATOR_CASES[name]()
        rep = verify_robustness(chans, inst.psi, space, **kw)
        walk = forced_walk(monkeypatch, chans, inst.psi, space, **kw)
        assert (rep.method, rep.orders_computed) == ("commuting", 1)
        pairs = sum(swap_bound(a, b, space) for a, b in itertools.combinations(chans, 2))
        assert rep.order_bound == pytest.approx(pairs, rel=1e-12, abs=0.0) and rep.order_bound < 1e-12
        assert walk.method == ("exhaustive" if walk.exhaustive else "sampled")
        assert walk.orders_computed == walk.distinct_orders
        assert (rep.orders_run, rep.distinct_orders, rep.exhaustive) == (
            walk.orders_run, walk.distinct_orders, walk.exhaustive)
        assert rep.passed and walk.passed
        assert abs(rep.max_final_distance - walk.max_final_distance) <= rep.order_bound + 1e-15

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-5, 1e-2, 0.3])
    def test_swap_distance_within_bound(self, eps, rng):
        a, b = eps_pair(eps)
        sp = uniform_space(2)
        bound = swap_bound(a, b, sp)
        basis = [np.diag(np.eye(4)[i]).astype(complex) for i in range(4)]
        inputs = [np.eye(4) / 4] + basis + [random_density(4, rng) for _ in range(20)]
        swap = max(trace_distance(ch.apply(a, ch.apply(b, r, sp), sp), ch.apply(b, ch.apply(a, r, sp), sp))
                   for r in inputs)
        assert swap <= bound
        assert bound <= 4 * eps + 1e-15

    @pytest.mark.parametrize("theta", [0.01, 0.1, 0.5])
    def test_rotation_pair_needs_the_linear_term(self, theta, rng):
        # unitary channels exp(-i theta X) and exp(-i theta Z) on one qubit:
        # a pure input moves by about ||C||_F / sqrt(2) when the order swaps,
        # so a bound of half the commutator norm would not hold
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        sp = uniform_space(1)
        a, b = (unitary_channel(expm(-1j * theta * g), [0]) for g in (x, z))
        c = _commutator_norms(a.kraus, a.support, b.kraus, b.support, sp)[0, 0]
        swap = 0.0
        for _ in range(200):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = np.outer(v, v.conj()) / np.vdot(v, v).real
            swap = max(swap, trace_distance(ch.apply(a, ch.apply(b, rho, sp), sp),
                                            ch.apply(b, ch.apply(a, rho, sp), sp)))
        assert c / 2 < swap <= swap_bound(a, b, sp)

    @pytest.mark.parametrize("eps, method, passed", [
        (1e-12, "commuting", True),
        (1e-5, "exhaustive", True),  # the bound is above tol; from I/4 every order is within eps^2
        (0.3, "exhaustive", False),
    ])
    def test_verdict_matches_walk(self, eps, method, passed, monkeypatch):
        chans, sp = eps_pair(eps), uniform_space(2)
        rep = verify_robustness(chans, ZERO2, sp, n_random_inputs=0)
        walk = forced_walk(monkeypatch, chans, ZERO2, sp, n_random_inputs=0)
        assert (rep.method, rep.passed, walk.passed) == (method, passed, passed)
        assert rep.orders_computed == (1 if method == "commuting" else 2)
        if method == "commuting":
            assert abs(rep.max_final_distance - walk.max_final_distance) <= rep.order_bound + 1e-15
        else:
            assert rep.order_bound == math.inf and rep.max_final_distance == walk.max_final_distance

    def test_bound_straddling_tol_falls_back_to_walk(self, monkeypatch):
        # a half reset leaves the identity order at a distance d0 > 0; with
        # tol = d0 + B/2 the bound B is below tol but d0 + B is not, so the
        # drawn orders decide
        chans, sp = eps_pair(1e-12, p=0.5), uniform_space(2)
        first = verify_robustness(chans, ZERO2, sp)
        assert (first.method, first.passed) == ("commuting", False)
        assert 0.0 < first.order_bound < 1e-10
        tol = first.max_final_distance + first.order_bound / 2
        calls = _count_applies(monkeypatch)
        rep = verify_robustness(chans, ZERO2, sp, tol=tol)
        # two orders of two channels, each from I/4 and from a random input:
        # the fallback does not run the identity order a second time
        assert calls.count((4, 4)) == 2 * 2 * 2
        walk = forced_walk(monkeypatch, chans, ZERO2, sp, tol=tol)
        assert (rep.method, rep.orders_computed) == ("exhaustive", 2)
        assert rep.order_bound == first.order_bound
        assert rep.passed == walk.passed
        assert rep.max_final_distance == walk.max_final_distance

    def test_worst_input_bound_covers_every_input_and_order(self, rng):
        chans, sp = eps_pair(1e-12, p=0.5), uniform_space(2)
        rep = verify_robustness(chans, ZERO2, sp)
        basis = [np.diag(np.eye(4)[i]).astype(complex) for i in range(4)]
        for rho in basis + [random_density(4, rng) for _ in range(10)]:
            for order in ((0, 1), (1, 0)):
                out = rho
                for k in order:
                    out = ch.apply(chans[k], out, sp)
                assert 1.0 - (ZERO2.conj() @ out @ ZERO2).real <= rep.worst_input_bound + 1e-15
        assert rep.worst_input_bound < 1.0 + 1e-9

    def test_worst_input_bound_keeps_roundoff_floor(self):
        # two resets: the identity output on I/D is |00><00| up to roundoff,
        # and its fidelity can read 1, so the floor D eps_F must stay in
        chans, sp = eps_pair(0.0), uniform_space(2)
        rep = verify_robustness(chans, ZERO2, sp)
        assert rep.passed and rep.method == "commuting"
        assert 4 * rfts._fidelity_roundoff(4) + rep.order_bound <= rep.worst_input_bound < 1e-13

    def test_mixed_target_has_no_input_bound(self):
        inst = states.graph_gibbs(3, beta=1.0)
        rep = verify_robustness(list(inst.witness_channels), inst.rho, inst.space)
        assert rep.passed and rep.worst_input_bound is None

    def test_uncertified_pairs_run_probes(self, monkeypatch):
        # the 2x5x2 witnesses commute as maps but not Kraus by Kraus (0.5):
        # the probes decide that pair, and only that one draws
        inst = states.nonfactorizable_252()
        chans = list(inst.witness_channels)
        assert swap_bound(*chans, inst.space) > 1.0
        draws = []
        density = rfts.random_density
        monkeypatch.setattr(rfts, "random_density", lambda d, rng: draws.append(d) or density(d, rng))
        assert channels_commute_pairwise(chans, inst.space) < 1e-12
        assert len(draws) == 3
        draws.clear()
        line = states.line_graph_state(4)
        assert channels_commute_pairwise(list(line.witness_channels), line.space) < 1e-12
        assert draws == []

    def test_swap_bound_stops_at_cap(self, monkeypatch):
        # the 2x5x2 witnesses' Kraus operators do not commute (0.5); with one
        # factor per chunk, the capped bound stops after the chunk whose
        # partial sum first reaches the cut, and the probes decide as before
        inst = states.nonfactorizable_252()
        a, b = inst.witness_channels
        uncapped = swap_bound(a, b, inst.space)
        full_bound = rfts.swap_bound
        monkeypatch.setattr(rfts, "swap_bound", lambda a, b, space, cap=math.inf: full_bound(a, b, space))
        uncapped_defect = channels_commute_pairwise([a, b], inst.space)
        monkeypatch.undo()

        monkeypatch.setattr(ch, "STACK_MAX_BYTES", 1)
        cut = DEFAULT_TOL.invariance
        args = (a.kraus, a.support, b.kraus, b.support, inst.space)
        partial = [0.5 * float(np.sum(c * (2.0 + c))) for c in rfts._partial_commutator_norms(*args)]
        assert partial == sorted(partial) and partial[-1] == pytest.approx(uncapped, rel=1e-12)
        crossing = next(k for k, bound in enumerate(partial) if bound >= cut)
        assert crossing + 1 < len(partial)
        seen = []
        chunks = rfts._partial_commutator_norms

        def counted(*args):
            for c in chunks(*args):
                seen.append(c)
                yield c

        monkeypatch.setattr(rfts, "_partial_commutator_norms", counted)
        assert swap_bound(a, b, inst.space, cap=cut) == math.inf
        assert len(seen) == crossing + 1
        assert swap_bound(a, b, inst.space) == pytest.approx(uncapped, rel=1e-12)
        defect = channels_commute_pairwise([a, b], inst.space)
        assert defect == uncapped_defect < 1e-12


def fresh_copies(chans) -> list[Channel]:
    """The channels as new objects, with nothing memoized."""
    return [Channel(kraus=c.kraus, support=c.support, label=c.label) for c in chans]


class TestFactorMemo:
    """`swap_bound` reads each channel's overlap factors from its memo
    (`_channel_factors`), with the same bits as factoring afresh."""

    @pytest.mark.parametrize("name", ["kagome-3x1", "built-2x5x2"])
    def test_memo_matches_fresh(self, name):
        chans, space = commutator_case(name)
        memo = fresh_copies(chans)
        pairs = list(itertools.combinations(range(len(chans)), 2))
        first = [swap_bound(memo[i], memo[j], space) for i, j in pairs]
        assert any(c.factor_memo for c in memo)
        # read back from the memos, and against a factoring with no memo
        assert [swap_bound(memo[i], memo[j], space) for i, j in pairs] == first
        for (i, j), bound in zip(pairs, first):
            a, b = fresh_copies([chans[i], chans[j]])
            assert swap_bound(a, b, space) == bound
            norms = _commutator_norms(a.kraus, a.support, b.kraus, b.support, space)
            assert 0.5 * float(np.sum(norms * (2.0 + norms))) == bound

    @pytest.mark.parametrize("name", ["kagome-3x1", "built-2x5x2"])
    def test_commute_then_order_bound_factor_once(self, name, monkeypatch):
        chans, space = commutator_case(name)
        chans = fresh_copies(chans)
        calls = []
        factor = rfts._overlap_factors
        monkeypatch.setattr(rfts, "_overlap_factors", lambda *a: calls.append(1) or factor(*a))
        channels_commute_pairwise(chans, space)
        after_commute = len(calls)
        rfts._order_bound(chans, space, cap=math.inf)
        # one factoring per memo entry, all of them made by the first pass
        assert len(calls) == after_commute == sum(len(c.factor_memo) for c in chans) > 0

    def test_same_channel_in_two_spaces(self, rng):
        # one channel on sites (0, 1) of dims (2, 3) and of dims (3, 2): the
        # overlap with site 1 factors differently, and each space has its entry
        k = [random_unitary(6, rng)]
        c = make_channel(k, [0, 1])
        bounds = []
        for dims in ([2, 3], [3, 2]):
            space = MultipartiteSpace(dims)
            other = make_channel([random_unitary(dims[1], rng)], [1])
            bounds.append(swap_bound(c, other, space))
            fresh = swap_bound(*fresh_copies([c, other]), space)
            assert bounds[-1] == fresh
        assert set(c.factor_memo) == {((1,), (2, 3)), ((1,), (3, 2))}
        do = [f[0].shape[1:] for f in c.factor_memo.values()]
        assert do == [(3, 3), (2, 2)]


class TestBuildCircuit:
    def test_cycle_built_channels_match_witness(self):
        inst = states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)])
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert res.ok
        built = build_rfts_circuit(
            res.factorization, inst.psi, cg=res.coarse, original_space=inst.space
        )
        rep = verify_robustness(built, inst.psi, inst.space, trials=10)
        assert rep.passed
        # channel-equal to the constructor witness with the same tight support
        matched = 0
        for b in built:
            cands = [
                w for w in inst.witness_channels
                if set(ch.kraus_support(w, inst.space)) == set(b.support)
            ]
            if cands and channels_equal(b, cands[0], inst.space):
                matched += 1
        assert matched == 5

    @pytest.mark.parametrize("build, count", [
        (lambda: states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)]), 10),
        (states.ccz_triangle, 8),
        (lambda: states.ccz_kagome(3, 1), 180),
        (states.nonfactorizable_252, 40),
    ], ids=["cycle5", "ccz-triangle", "kagome-3x1", "nonfactorizable-252"])
    def test_no_vanishing_kraus(self, build, count):
        # neither I - V V^H on a full local support nor a re-injection
        # operator the reset annihilates is kept
        inst = build()
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        built = build_rfts_circuit(res.factorization, inst.psi, cg=res.coarse, original_space=inst.space)
        norms = [np.linalg.norm(k) for c in built for k in c.kraus]
        assert len(norms) == count
        assert min(norms) > DEFAULT_TOL.rank_rtol

    def test_nonfactorizable_built_channels(self):
        inst = states.nonfactorizable_252()
        res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
        built = build_rfts_circuit(
            res.factorization, inst.psi, cg=res.coarse, original_space=inst.space
        )
        assert len(built) == 2
        rep = verify_robustness(built, inst.psi, inst.space)
        assert rep.passed
        defect = channels_commute_pairwise(built, inst.space)
        assert defect < 1e-8

    def test_product_state_resets(self):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [0, 1]).astype(complex)
        res = check_algebraic_rfts(psi, NeighborhoodStructure([[0], [1]]), sp)
        assert res.ok
        built = build_rfts_circuit(res.factorization, psi)
        rep = verify_robustness(built, psi, sp)
        assert rep.passed


def _lift(c: Channel, space) -> Channel:
    return c


class TestMatchingOverlapRfts:
    def test_two_body_chain_ok(self):
        # two-body structures always satisfy matching overlap; the BV chain
        # has commuting canonical projectors, so the route goes through
        inst = states.bv_two_body_example()
        v = check_matching_overlap_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert v.matching_overlap == "satisfied"
        assert v.max_pairwise_commutator < 1e-9
        assert v.ok, v.reason

    def test_line_graph_3body_precondition_fails(self):
        # nested 3-body line neighborhoods share single-site triple overlaps
        # that differ from their pairwise overlaps
        inst = states.line_graph_state(4)
        v = check_matching_overlap_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert v.matching_overlap == "violated"
        assert not v.ok

    def test_failed_preconditions_listed(self):
        # GHZ on the nested 3-body line neighbourhoods fails both; the
        # projectors are then not compared
        line = states.line_graph_state(4)
        ghz = np.zeros(16, dtype=complex)
        ghz[[0, 15]] = 1 / np.sqrt(2)
        v = check_matching_overlap_rfts(ghz, line.neighborhoods, line.space)
        assert (v.ok, v.qls, v.matching_overlap) == (False, False, "violated")
        assert v.reason == "precondition: matching-overlap, qls"
        assert v.max_pairwise_commutator is None

    def test_dicke_fails(self):
        inst = states.dicke(4, 2)
        v = check_matching_overlap_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert not v.ok

    def test_w_product_precondition_fails(self):
        inst = states.w_product_9()
        v = check_matching_overlap_rfts(inst.psi, inst.neighborhoods, inst.space)
        assert not v.ok
        assert v.matching_overlap == "violated"


class TestCorrelationCmi:
    def test_product_state_zero_covariance(self, rng):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [0.6, 0.8]).astype(complex)
        probe = correlation_probe(psi, [0], [1], sp)
        assert probe.max_abs_covariance < 1e-10

    def test_graph_far_separated(self):
        inst = states.line_graph_state(6)
        probe = correlation_probe(
            inst.psi, [0], [5], inst.space, nstruct=inst.neighborhoods
        )
        assert probe.expansions_disjoint
        assert probe.max_abs_covariance < 1e-9

    def test_ising_gibbs_has_correlations(self):
        inst = states.ising_gibbs(8, 1.0, 1.0)
        cov = states.ising_zz_covariance(inst, 0, 5)
        assert abs(cov) > 1e-3
        z = np.diag([1.0, -1.0]).astype(complex)
        c2 = correlation(
            inst.rho,
            RegionOperator(z, [0]),
            RegionOperator(z, [5]),
            inst.space,
        )
        assert abs(c2 - cov) < 1e-10

    def test_ghz_cmi_one_bit(self):
        sp = uniform_space(3)

        ghz = (basis_state(sp, [0, 0, 0]) + basis_state(sp, [1, 1, 1])) / np.sqrt(2)
        val = cmi(ghz, [0], [2], [1], sp)
        assert abs(val - 1.0) < 1e-9

    def test_product_cmi_zero(self):
        sp = uniform_space(3)
        psi = np.kron(np.kron([1, 0], [0.6, 0.8]), [1, 0]).astype(complex)
        assert cmi(psi, [0], [2], [1], sp) < 1e-10

    def test_graph_markov_cmi_zero(self):
        inst = states.line_graph_state(6)
        # A = {0}, C = expansion minus A, B outside the expansion
        from qlstab.hilbert import neighborhood_expansion

        exp_a = set(neighborhood_expansion(inst.neighborhoods, [0]))
        c = sorted(exp_a - {0})
        b = [i for i in range(6) if i not in exp_a]
        val = cmi(inst.psi, [0], b, c, inst.space)
        assert val < 1e-8

    def test_cmi_overlap_rejected(self):
        sp = uniform_space(3)
        psi = np.kron(np.kron([1, 0], [1, 0]), [1, 0]).astype(complex)
        with pytest.raises(ValueError):
            cmi(psi, [0], [0, 1], [2], sp)


class TestRecoverability:
    def test_graph_recovers_from_depolarization(self):
        inst = states.line_graph_state(4)
        dep_kraus = [
            np.eye(2, dtype=complex) / 2,
            np.array([[0, 1], [1, 0]]) / 2,
            np.array([[0, -1j], [1j, 0]]) / 2,
            np.diag([1.0, -1.0]) / 2,
        ]
        m = make_channel(dep_kraus, [0], label="depolarize")
        rep = recoverability_probe(
            list(inst.witness_channels), inst.psi, [0], m, inst.space
        )
        assert rep.recovered
        assert not rep.support_warning

    def test_identity_trivially_recovered(self):
        inst = states.line_graph_state(3)
        m = make_channel([np.eye(2)], [1], label="id")
        rep = recoverability_probe(
            list(inst.witness_channels), inst.psi, [1], m, inst.space
        )
        assert rep.recovered

    def test_support_warning(self):
        inst = states.line_graph_state(3)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        m = make_channel([x], [2], label="x-on-2")
        rep = recoverability_probe(
            list(inst.witness_channels), inst.psi, [0], m, inst.space
        )
        assert rep.support_warning


class TestImplicationChain:
    def test_algebraic_ok_implies_robust_and_prop4(self):
        # whenever the algebraic route succeeds, the built channels are
        # robust and the complement-commutator necessary condition holds
        instances = [
            states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)]),
            states.nonfactorizable_252(),
            states.bv_two_body_example(),
        ]
        for inst in instances:
            res = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space)
            assert res.ok, (inst.name, res.reason)
            assert res.qls
            built = build_rfts_circuit(
                res.factorization, inst.psi, cg=res.coarse, original_space=inst.space
            )
            rep = verify_robustness(built, inst.psi, inst.space, trials=10)
            assert rep.passed, inst.name
            from qlstab.subspaces import check_commuting_projectors

            if len(inst.neighborhoods) >= 2:
                v = check_commuting_projectors(
                    inst.psi, inst.neighborhoods, inst.space
                )
                assert v.ok, (inst.name, v.max_norm)

    def test_center_dim_trivial_on_success(self):
        inst = states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)])
        sup = local_support(inst.psi, inst.space)
        for j in range(len(inst.neighborhoods)):
            alg = neighborhood_algebra(
                inst.psi, inst.neighborhoods, j, inst.space, sup
            )
            assert alg.center_dim() == 1
            defects = alg.validate()
            assert max(defects.values()) == 0.0
