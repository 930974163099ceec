import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag

from qlstab import channels as ch
from qlstab import states
from qlstab._linalg import (
    DEFAULT_TOL,
    nullspace,
    random_density,
    random_hermitian,
    random_unitary,
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
    verify_robustness,
)
from qlstab.rfts import _distance_to_target


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
        from qlstab._linalg import random_unitary

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
        from qlstab._linalg import random_unitary

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


class TestFactorization:
    def test_to_virtual_matches_conjugated_levels(self, rng):
        inst = states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)])
        fac = check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space).factorization
        assert len(fac.levels) > 1
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        x = fac.restrict(v)
        for g, _ in fac.levels:
            x = (x.reshape(-1, g.shape[0]) @ g.conj()).reshape(-1)
        assert np.array_equal(fac.to_virtual(v).reshape(-1), x)


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
        from qlstab.hilbert import basis_state

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
    """Oracle for the prefix walk of `verify_robustness`: every distinct order
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

    def counted(c, rho, space):
        calls.append(rho.shape)
        return apply(c, rho, space)

    monkeypatch.setattr(ch, "apply", counted)
    return calls


class TestPrefixWalk:
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
        # t = 6, exhaustive: one stacked apply per node of the prefix tree,
        # sum over k of 6!/(6 - k)! = 1956, against 720 * 6 * 2 single applies
        inst = states.grid_graph_state(2, 3)
        calls = _count_applies(monkeypatch)
        rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space)
        d = inst.space.total_dim
        walk = [s for s in calls if s == (2, d, d)]
        assert rep.exhaustive and rep.distinct_orders == 720
        assert len(walk) == 1956

    def test_state_over_budget_runs_every_order_from_inputs(self, monkeypatch):
        # D = 512: one state is over the budget, so each order runs from each
        # input, channel by channel, as a one-state stack
        inst = states.w_product_9()
        calls = _count_applies(monkeypatch)
        rep = verify_robustness(list(inst.witness_channels), inst.psi, inst.space,
                                exhaustive_limit=1, trials=12)
        d = inst.space.total_dim
        walk = [s for s in calls if s == (1, d, d)]
        assert len(walk) == rep.distinct_orders * 3 * 2

    def test_kagome_holds_no_more_than_per_order(self):
        # one D = 512 state is over the budget: the walk holds no branch state
        # and no input copy, so the traced peak stays at the per-order loop's
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

    def test_repeated_orders_run_once(self):
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
        flip = ch.unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex), [0])
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
        from qlstab.hilbert import basis_state

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
