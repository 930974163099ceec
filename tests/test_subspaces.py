import numpy as np
import pytest

from helpers import basis_state, frustration_defect
from qlstab import _linalg, states
from qlstab import hilbert, subspaces
from qlstab._linalg import DEFAULT_TOL, nullspace, orthonormal_columns, projector, rank_cutoff
from qlstab.channels import CapExceeded
from qlstab.hilbert import (
    MultipartiteSpace,
    NeighborhoodStructure,
    uniform_space,
)
from qlstab.subspaces import (
    ExtendedSpan,
    Subspace,
    canonical_hamiltonian,
    check_commuting_projectors,
    check_matching_overlap,
    check_qls,
    check_small_schmidt_span,
    extended_schmidt_span,
    intersect,
    pairwise_projector_commutators,
    schmidt_span,
)


def haar_subspace(dim, r, rng):
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    q, _ = np.linalg.qr(g)
    return Subspace(q[:, :r])


def intersect_nullspace_method(subs):
    """Oracle: nullspace of the stacked orthogonal complements."""
    dim = subs[0].ambient_dim
    return Subspace(nullspace(np.vstack([np.eye(dim) - s.projector() for s in subs])))


def intersect_averaged_projector(projs, eig_tol=1e-9):
    """Oracle: eigenvectors of the averaged D x D projector above 1 - eig_tol."""
    ev, vec = np.linalg.eigh(sum(projs) / len(projs))
    return vec[:, ev > 1.0 - eig_tol]


def operator_schmidt_matrices(op, region, space):
    """Region-side operator Schmidt factors of `op`, as matrices."""
    opp = hilbert.to_front(np.asarray(op, dtype=complex), sorted(set(region)), space, sides=2)
    da, db = opp.shape[:2]
    t = opp.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, s, _ = np.linalg.svd(t, full_matrices=False)
    r = rank_cutoff(s, t.shape, DEFAULT_TOL.rank_rtol)
    return [u[:, j].reshape(da, da) for j in range(r)]


def dense_commutator(a, b):
    return float(np.linalg.norm(a @ b - b @ a))


class TestSchmidtSpan:
    def test_dicke_first_neighborhood(self):
        inst = states.dicke(4, 2)
        span = schmidt_span(inst.psi, [0, 1, 2], inst.space)
        assert span.dim == 2
        # the span is {|(001)>, |(011)>}
        sp3 = uniform_space(3)
        for bits in ([0, 0, 1], [0, 1, 1]):
            v = states.symmetric_state(bits).astype(complex)
            assert span.contains(v)

    def test_product_state_dim_one(self, rng):
        sp = uniform_space(3)
        local = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
        psi = np.kron(np.kron(local[0], local[1]), local[2])
        psi /= np.linalg.norm(psi)
        assert schmidt_span(psi, [0], sp).dim == 1
        assert schmidt_span(psi, [0, 2], sp).dim == 1

    def test_vbs3_boundary_dims(self):
        inst = states.vbs_1d(3)
        assert schmidt_span(inst.psi, [0, 1], inst.space).dim == 2
        assert schmidt_span(inst.psi, [1, 2], inst.space).dim == 2

    def test_vbs4_bulk_dim(self):
        inst = states.vbs_1d(4)
        assert schmidt_span(inst.psi, [0, 1], inst.space).dim == 2
        assert schmidt_span(inst.psi, [1, 2], inst.space).dim == 4
        assert schmidt_span(inst.psi, [2, 3], inst.space).dim == 2

    def test_extended_span_dims(self):
        inst = states.dicke(4, 2)
        ext = extended_schmidt_span(inst.psi, [0, 1, 2], inst.space)
        assert ext.dim == 4  # 2 * dim of the complement qubit
        assert ext.contains(inst.psi)

    def test_extended_span_product(self, rng):
        sp = uniform_space(3)
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        ext = extended_schmidt_span(psi, [1], sp)
        assert ext.dim == 4

    def test_extended_span_global_ordering(self, rng):
        # the extended span projector must commute with operators on the complement
        sp = MultipartiteSpace([2, 3, 2])
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        v /= np.linalg.norm(v)
        ext = extended_schmidt_span(v, [1], sp)
        p = ext.projector()
        from qlstab.hilbert import RegionOperator, embed

        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        big = embed(RegionOperator(m, [0, 2]), sp)
        assert np.max(np.abs(p @ big - big @ p)) < 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            schmidt_span(np.zeros(4), [0], uniform_space(2))


class TestIntersect:
    def test_self_intersection(self, rng):
        v = haar_subspace(6, 2, rng)
        out = intersect([v, v])
        assert out.dim == 2
        assert np.max(np.abs(out.projector() - v.projector())) < 1e-9

    def test_orthogonal_complement_is_zero(self, rng):
        v = haar_subspace(6, 2, rng)
        q = np.linalg.svd(np.eye(6) - v.projector())[0][:, :4]
        out = intersect([v, Subspace(q)])
        assert out.dim == 0

    def test_two_planes_in_c3(self, rng):
        for _ in range(5):
            a = haar_subspace(3, 2, rng)
            b = haar_subspace(3, 2, rng)
            out = intersect([a, b])
            assert out.dim == 1  # generic dimension count: 2 + 2 - 3

    def test_matches_nullspace_method(self, rng):
        subs = [haar_subspace(8, 5, rng) for _ in range(3)]
        a = intersect(subs)
        b = intersect_nullspace_method(subs)
        assert a.dim == b.dim
        if a.dim:
            assert np.max(np.abs(a.projector() - b.projector())) < 1e-7


class TestQls:
    def test_dicke_is_qls(self):
        inst = states.dicke(4, 2)
        v = check_qls(inst.psi, inst.neighborhoods, inst.space)
        assert v.qls and v.intersection_dim == 1

    def test_ghz3_two_body_not_qls(self):
        sp = uniform_space(3)
        ghz = (basis_state(sp, [0, 0, 0]) + basis_state(sp, [1, 1, 1])) / np.sqrt(2)
        n = NeighborhoodStructure([[0, 1], [1, 2]])
        v = check_qls(ghz, n, sp)
        assert not v.qls
        assert v.intersection_dim == 2  # contains |000> and |111>

    def test_product_strictly_local_qls(self, rng):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [0, 1]).astype(complex)
        v = check_qls(psi, NeighborhoodStructure([[0], [1]]), sp)
        assert v.qls


class TestSmallSchmidtSpan:
    def test_dicke(self):
        inst = states.dicke(4, 2)
        rep = check_small_schmidt_span(inst.psi, inst.neighborhoods, inst.space)
        assert rep.satisfied
        assert rep.per_neighborhood[0]["schmidt_dim"] == 2
        assert rep.per_neighborhood[0]["neighborhood_dim"] == 8

    def test_product(self):
        sp = uniform_space(2)
        psi = np.kron([1, 0], [1, 0]).astype(complex)
        rep = check_small_schmidt_span(psi, NeighborhoodStructure([[0], [1]]), sp)
        assert rep.satisfied


class TestCanonicalHamiltonian:
    def test_frustration_free_random(self, rng):
        sp = uniform_space(3)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        n = NeighborhoodStructure([[0, 1], [1, 2]])
        pset = canonical_hamiltonian(v, n, sp)
        assert frustration_defect(pset) < 1e-10
        for p in pset.projectors:
            assert np.max(np.abs(p @ p - p)) < 1e-9
            assert np.max(np.abs(p - p.conj().T)) < 1e-10
            assert np.linalg.norm(p @ v - v) < 1e-9

    def test_graph_p3_commuting(self):
        inst = states.line_graph_state(3)
        pset = canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
        mat = pairwise_projector_commutators(pset)
        assert np.max(mat) < 1e-9

    def test_dicke_noncommuting(self):
        inst = states.dicke(4, 2)
        pset = canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
        mat = pairwise_projector_commutators(pset)
        assert mat[0, 1] > 1e-3

    def test_vbs3_noncommuting(self):
        inst = states.vbs_1d(3)
        pset = canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
        mat = pairwise_projector_commutators(pset)
        assert mat[0, 1] > 1e-3

    def test_single_neighborhood_trivial(self, rng):
        sp = uniform_space(2)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        pset = canonical_hamiltonian(v, NeighborhoodStructure([[0, 1]]), sp)
        mat = pairwise_projector_commutators(pset)
        assert mat.shape == (1, 1) and mat[0, 0] == 0.0


class TestCommutingProjectors:
    def test_graph_state_ok(self):
        inst = states.line_graph_state(4)
        v = check_commuting_projectors(inst.psi, inst.neighborhoods, inst.space)
        assert v.ok

    def test_dicke_fails(self):
        inst = states.dicke(4, 2)
        v = check_commuting_projectors(inst.psi, inst.neighborhoods, inst.space)
        assert not v.ok
        assert v.max_norm > 1e-3

    def test_w_product_passes_complement_check_but_pairwise_fails(self):
        # the W-product state is robustly stabilizable, so the complement
        # commutators vanish, even though pairwise projectors do not commute
        inst = states.w_product_9()
        v = check_commuting_projectors(inst.psi, inst.neighborhoods, inst.space)
        assert v.ok
        pset = canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
        mat = pairwise_projector_commutators(pset)
        assert np.max(mat) > 1e-3

    def test_kagome_commutators_at_roundoff(self):
        # a Gram-difference formula reads ~5e-8 here and flips the 1e-8 verdict
        v = check_commuting_projectors(*_args(states.ccz_kagome(3, 1)))
        assert v.ok
        assert v.max_norm < 1e-12


def _args(inst):
    return inst.psi, inst.neighborhoods, inst.space


# every corpus state with D <= 729
CORPUS = {
    "dicke-4-2": lambda: states.dicke(4, 2),
    "vbs-3": lambda: states.vbs_1d(3),
    "vbs-6": lambda: states.vbs_1d(6),
    "graph-line-3": lambda: states.line_graph_state(3),
    "graph-line-4": lambda: states.line_graph_state(4),
    "graph-grid-2x3": lambda: states.grid_graph_state(2, 3),
    "graph-cycle-5": lambda: states.graph_state(5, [(i, (i + 1) % 5) for i in range(5)]),
    "w-product-9": states.w_product_9,
    "kagome-3x1": lambda: states.ccz_kagome(3, 1),
    "ccz-triangle": states.ccz_triangle,
    "nonfactorizable-252": states.nonfactorizable_252,
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_matches_dense_oracles(name):
    """Intersections, QLS verdict and commutator norms against D x D computations."""
    inst = CORPUS[name]()
    psi, nstruct, space = _args(inst)
    projs = [projector(extended_schmidt_span(psi, nk, space).basis) for nk in nstruct]

    ref = intersect_averaged_projector(projs)
    contains = np.linalg.norm(psi - ref @ (ref.conj().T @ psi)) < 1e-9
    v = check_qls(psi, nstruct, space)
    assert v.intersection_dim == ref.shape[1]
    assert intersect([extended_schmidt_span(psi, nk, space) for nk in nstruct]).dim == ref.shape[1]
    assert v.qls == (ref.shape[1] == 1 and contains)
    assert v.largest_kept < 1e-9

    pset = canonical_hamiltonian(psi, nstruct, space)
    mat = pairwise_projector_commutators(pset)
    assert np.all(np.diag(mat) == 0.0) and np.array_equal(mat, mat.T)
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            assert abs(mat[i, j] - dense_commutator(projs[i], projs[j])) < 1e-12

    if len(nstruct) < 2:
        with pytest.raises(ValueError):
            check_commuting_projectors(psi, nstruct, space)
        return
    cp = check_commuting_projectors(psi, nstruct, space)
    for k, row in enumerate(cp.per_neighborhood):
        others = [p for j, p in enumerate(projs) if j != k]
        pbar = intersect_averaged_projector(others)
        spans = [extended_schmidt_span(psi, nk, space) for j, nk in enumerate(nstruct) if j != k]
        assert intersect(spans).dim == pbar.shape[1]
        region, basis, *_ = subspaces._sweep(spans)
        assert ExtendedSpan(basis, region, space).dim == pbar.shape[1]
        assert abs(row["commutator_norm"] - dense_commutator(projs[k], projector(pbar))) < 1e-12


def w_chain(n):
    """W state on n qubits with nearest-neighbour pairs; its intersection has dim 2."""
    pairs = NeighborhoodStructure([[i, i + 1] for i in range(n - 1)])
    return states.w_state(n), pairs, uniform_space(n)


# the instances above D = 1200, once decided by an iterative eigensolver:
# (builder, whether to compare leave-one-out dims). One dense oracle takes
# 4-5 s on the W chains and 20-50 s at D = 4096, so those skip leave-one-out.
LARGE = {
    "w-chain-11": (lambda: w_chain(11), False),
    "vbs-7": (lambda: _args(states.vbs_1d(7)), True),
    "w-chain-12": (lambda: w_chain(12), False),
    "aklt32-cubic": (lambda: _args(states.aklt32_cubic()), False),
    "kagome-2x2": (lambda: _args(states.ccz_kagome(2, 2)), False),
}
SLOW_LARGE = {"w-chain-12", "aklt32-cubic", "kagome-2x2"}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in SLOW_LARGE else name for name in LARGE
])
def test_sweep_matches_dense_intersect(name):
    """Region sweep against one `intersect` of all the spans on C^D."""
    build, loo = LARGE[name]
    args = build()
    psi, nstruct, space = args
    spans = [extended_schmidt_span(psi, nk, space) for nk in nstruct]
    ref = intersect(spans)
    v = check_qls(*args)
    assert v.intersection_dim == ref.dim
    assert v.qls == (ref.dim == 1 and ref.contains(psi))
    if loo:
        for k in range(len(spans)):
            others = [s for j, s in enumerate(spans) if j != k]
            region, basis, *_ = subspaces._sweep(others)
            assert ExtendedSpan(basis, region, space).dim == intersect(others).dim


@pytest.mark.parametrize("n", [11, 12])
def test_w_chain_not_qls_on_every_call(n):
    # a single-vector eigsh(k=4) once read dim 1 here in some calls of a process
    args = w_chain(n)
    for _ in range(10):
        v = check_qls(*args)
        assert v.intersection_dim == 2 and not v.qls


def replay_sweep(spans):
    """The intersection of every sweep step, recomputed from dense bases."""
    space = spans[0].space
    pending, region, v, cuts = list(range(len(spans))), [], None, []
    while pending:
        j = min(pending, key=lambda i: len(set(spans[i].region) - set(region)))
        grown = sorted(set(region) | set(spans[j].region))
        inside = [i for i in pending if set(spans[i].region) <= set(grown)]
        parts = [Subspace(spans[i].on_sites(grown).basis) for i in inside]
        if region:
            sub = MultipartiteSpace([space.dims[i] for i in grown])
            parts.append(Subspace(ExtendedSpan(v, tuple(grown.index(i) for i in region), sub).basis))
        cuts.append(intersect(parts))
        region, v = grown, cuts[-1].basis
        pending = [i for i in pending if i not in inside]
    return cuts


def assert_tightest_step(verdict, cuts):
    kept = max(c.largest_kept for c in cuts if c.largest_kept is not None)
    dropped = min(c.smallest_dropped for c in cuts if c.smallest_dropped is not None)
    assert abs(verdict.largest_kept - kept) < 1e-12
    assert abs(verdict.smallest_dropped - dropped) < 1e-12
    assert abs(kept) < 1e-12 and dropped > 0.04


class TestIntersectionMargin:
    """The reported margin is the tightest cut over the sweep steps."""

    @staticmethod
    def assert_qls_margin(inst):
        psi, nstruct, space = _args(inst)
        v = check_qls(psi, nstruct, space)
        assert_tightest_step(v, replay_sweep([extended_schmidt_span(psi, nk, space) for nk in nstruct]))

    def test_vbs6(self):
        self.assert_qls_margin(states.vbs_1d(6))

    def test_kagome(self):
        self.assert_qls_margin(states.ccz_kagome(3, 1))

    def test_leave_one_out_tightest(self):
        psi, nstruct, space = _args(states.line_graph_state(4))
        v = check_commuting_projectors(psi, nstruct, space)
        spans = [extended_schmidt_span(psi, nk, space) for nk in nstruct]
        cuts = [c for k in range(len(spans))
                for c in replay_sweep([s for j, s in enumerate(spans) if j != k])]
        assert_tightest_step(v, cuts)


class TestIntersectionCap:
    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(_linalg, "MAX_BYTES", 4096)
        args = _args(states.dicke(4, 2))
        with pytest.raises(CapExceeded):
            check_qls(*args)
        with pytest.raises(CapExceeded):
            check_commuting_projectors(*args)


class TestMatchingOverlap:
    def test_two_body_always_satisfied(self):
        n = NeighborhoodStructure([[0, 1], [1, 2], [2, 3], [0, 3]])
        assert check_matching_overlap(n).ok

    def test_tree_like_ok(self):
        # a 5-system structure sharing one center system
        n = NeighborhoodStructure([[0, 1, 2], [2, 3], [2, 4]])
        assert check_matching_overlap(n).ok

    def test_cycle_violates(self):
        # three 3-body neighborhoods around a triangle with a common element
        n = NeighborhoodStructure([[0, 1, 4], [1, 2, 4], [2, 0, 4]])
        v = check_matching_overlap(n)
        assert v.status == "violated"

    def test_w_product_violates(self):
        inst = states.w_product_9()
        assert check_matching_overlap(inst.neighborhoods).status == "violated"

    def test_cap_reports_unknown(self):
        n = NeighborhoodStructure([[i, 7] for i in range(7)])
        v = check_matching_overlap(n, subset_cap=3)
        assert v.status in ("unknown", "violated")


class TestLemmas:
    def test_trace_inequality_random_projectors(self, rng):
        # Tr(P1 P2) >= Tr(P_intersection) + 0.5 Tr(|[P1,P2]|^2)
        for d, draws in ((6, 20), (7, 25)):
            for _ in range(draws):
                p1 = haar_subspace(d, rng.integers(1, d - 1), rng).projector()
                p2 = haar_subspace(d, rng.integers(1, d - 1), rng).projector()
                inter = intersect([Subspace(np.linalg.svd(p1)[0][:, : round(np.trace(p1).real)]),
                                   Subspace(np.linalg.svd(p2)[0][:, : round(np.trace(p2).real)])])
                c = p1 @ p2 - p2 @ p1
                lhs = np.trace(p1 @ p2).real
                rhs = inter.dim + 0.5 * np.trace(c.conj().T @ c).real
                assert lhs >= rhs - 1e-9

    def test_subsystem_kernel_lemma(self, rng):
        # ker(Tr_pbar |psi><psi|) == ker(Tr_pbar Pi_k) for p in N_k
        from qlstab.hilbert import partial_trace

        sp = MultipartiteSpace([2, 3, 2])
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        # make the reduced state on site 1 rank deficient
        v = v.reshape(2, 3, 2)
        v[:, 2, :] = 0
        v = v.reshape(-1)
        v /= np.linalg.norm(v)
        pk = extended_schmidt_span(v, [0, 1], sp).projector()
        red_state = partial_trace(np.outer(v, v.conj()), [1], sp)
        red_proj = partial_trace(pk, [1], sp)
        for m, name in ((red_state, "rho"), (red_proj, "proj")):
            pass
        def kernel_projector(m):
            ev, vec = np.linalg.eigh(m)
            keep = ev < 1e-10 * max(1.0, ev.max())
            return vec[:, keep] @ vec[:, keep].conj().T

        assert np.max(np.abs(kernel_projector(red_state) - kernel_projector(red_proj))) < 1e-9

    def test_kernel_schmidt_span_lemma(self, rng):
        # ker(Tr_B P) == ker(operator Schmidt span of P on A) for PSD P
        sp = MultipartiteSpace([3, 4])
        g = rng.normal(size=(12, 5)) + 1j * rng.normal(size=(12, 5))
        p = g @ g.conj().T
        # make site-0 marginal singular
        mask = np.kron(np.diag([1.0, 1.0, 0.0]), np.eye(4))
        p = mask @ p @ mask
        from qlstab.hilbert import partial_trace

        pa = partial_trace(p, [0], sp)
        ops = operator_schmidt_matrices(p, [0], sp)
        ev, vec = np.linalg.eigh(pa)
        ker_a = vec[:, ev < 1e-10 * max(1.0, ev.max())]
        stacked = np.vstack([m @ ker_a for m in ops])
        assert np.max(np.abs(stacked)) < 1e-8
        # and conversely the common kernel of the span is no larger
        common = ker_a.shape[1]
        stacked_all = np.vstack(ops)
        from qlstab._linalg import nullspace

        assert nullspace(stacked_all).shape[1] == common


from hypothesis import given, settings, strategies as st


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
def test_schmidt_rank_bounded_by_smaller_side(d0, d1, d2, seed):
    rng = np.random.default_rng(seed)
    sp = MultipartiteSpace([d0, d1, d2])
    v = rng.normal(size=sp.total_dim) + 1j * rng.normal(size=sp.total_dim)
    v /= np.linalg.norm(v)
    span = schmidt_span(v, [0], sp)
    assert 1 <= span.dim <= min(d0, d1 * d2)
    # orthonormal columns
    g = span.basis.conj().T @ span.basis
    assert np.max(np.abs(g - np.eye(span.dim))) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_intersection_projector_idempotent(seed):
    rng = np.random.default_rng(seed)
    subs = [haar_subspace(6, int(rng.integers(1, 6)), rng) for _ in range(3)]
    inter = intersect(subs)
    p = inter.projector()
    assert np.max(np.abs(p @ p - p)) < 1e-9
    for s in subs:
        # intersection sits inside every input span
        assert np.max(np.abs(s.projector() @ p - p)) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_intersect_finds_planted_subspace(d, c, k, seed):
    rng = np.random.default_rng(seed)
    common = haar_subspace(d, c, rng).basis
    subs = []
    for _ in range(k):
        extra = int(rng.integers(0, d - c))
        g = rng.normal(size=(d, extra)) + 1j * rng.normal(size=(d, extra))
        subs.append(Subspace(orthonormal_columns(np.hstack([common, g]))))
    out = intersect(subs)
    assert out.dim == intersect_nullspace_method(subs).dim
    assert out.dim == intersect_averaged_projector([s.projector() for s in subs]).shape[1]
    assert all(out.contains(col) for col in common.T)
    if sum(d - s.dim for s in subs) >= d - c:
        # generic extra directions meet only in the planted subspace
        assert out.dim == c


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=3), min_size=3, max_size=5),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10_000),
)
def test_sweep_order_invariant_on_planted_spans(dims, c, seed):
    rng = np.random.default_rng(seed)
    space = MultipartiteSpace(dims)
    n = len(dims)
    regions = [(i, i + 1) for i in range(n - 1)]
    regions.append(tuple(sorted(int(i) for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False))))
    planted = haar_subspace(space.total_dim, c, rng).basis
    spans = []
    for region in regions:
        # each local basis holds the region-side vectors of the planted subspace
        m = space.dim_of(region)
        local = hilbert.to_front(planted, region, space).reshape(m, -1)
        extra = int(rng.integers(0, m))
        g = rng.normal(size=(m, extra)) + 1j * rng.normal(size=(m, extra))
        spans.append(ExtendedSpan(orthonormal_columns(np.hstack([local, g])), region, space))

    def verdict(order):
        region, v, *_ = subspaces._sweep([spans[i] for i in order])
        inter = ExtendedSpan(v, region, space)
        assert all(inter.contains(col) for col in planted.T)
        # the verdict: the planted subspace is the whole intersection
        return inter.dim, inter.dim == c

    dim, qls = verdict(range(len(spans)))
    assert dim == intersect(spans).dim
    assert verdict(rng.permutation(len(spans))) == (dim, qls)


def svd_nullspace(a, rtol=DEFAULT_TOL.rank_rtol, scale=None):
    """Oracle for a tall `nullspace`: the SVD of the whole system."""
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh[rank_cutoff(s, a.shape, rtol, scale):].conj().T


class TestTallNullspace:
    """A tall system goes through QR before its SVD: the same kernel, the
    same rank decision, as the SVD of the whole system."""

    @pytest.mark.parametrize("rows, cols, rank", [
        (3072, 64, 60), (400, 16, 16), (400, 16, 1), (400, 16, 0), (50, 49, 48), (3, 2, 1),
    ])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_full_svd(self, rows, cols, rank, dtype, rng):
        def draw(*shape):
            g = rng.normal(size=shape)
            return g + 1j * rng.normal(size=shape) if dtype is complex else g

        a = draw(rows, rank) @ draw(rank, cols)
        for scale in (None, 10.0):
            got, want = nullspace(a, scale=scale), svd_nullspace(a, scale=scale)
            assert got.shape == want.shape == (cols, cols - rank)
            assert np.max(np.abs(got.conj().T @ got - np.eye(cols - rank)), initial=0.0) < 1e-12
            assert np.max(np.abs(got @ got.conj().T - want @ want.conj().T), initial=0.0) < 1e-10
            assert np.max(np.abs(a @ got), initial=0.0) < 1e-10 * max(1.0, np.linalg.norm(a, 2))

    def test_margin_at_the_cut(self, rng):
        # singular values 1 and 1e-9 on a 2000 x 8 system: the cut is
        # 1e-10 * 1 * 2000 = 2e-7, so 1e-9 is dropped by both routes, and a
        # value of 1e-6 is kept by both
        q, _ = np.linalg.qr(rng.normal(size=(2000, 8)))
        v, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        for small, kept in ((1e-9, 4), (1e-6, 5)):
            a = q @ np.diag([1.0, 1.0, 1.0, 1.0, small, 0.0, 0.0, 0.0]) @ v.T
            assert nullspace(a).shape[1] == svd_nullspace(a).shape[1] == 8 - kept
