import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import basis_state, is_connected, normalized
from qlstab import hilbert
from qlstab.hilbert import (
    MultipartiteSpace,
    NeighborhoodStructure,
    RegionOperator,
    coarse_grain,
    embed,
    neighborhood_expansion,
    partial_trace,
    permute_subsystems,
    reduced_state_of_pure,
    uniform_space,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_space_dims():
    sp = MultipartiteSpace([2, 3, 2])
    assert sp.total_dim == 12
    assert sp.dim_of([0, 2]) == 4
    assert sp.complement([1]) == (0, 2)


def test_embed_x_on_first_of_two():
    sp = uniform_space(2)
    full = embed(RegionOperator(X, [0]), sp)
    assert np.allclose(full, np.kron(X, np.eye(2)))


def test_embed_identity_is_identity():
    sp = MultipartiteSpace([2, 3, 2])
    full = embed(RegionOperator(np.eye(6), [0, 1]), sp)
    assert np.allclose(full, np.eye(12))


def test_embed_z_on_middle_sign():
    sp = uniform_space(3)
    full = embed(RegionOperator(Z, [1]), sp)
    v = basis_state(sp, [0, 1, 0])
    assert np.allclose(full @ v, -v)


def test_embed_matches_kron_ordering(rng):
    # embed on a non-contiguous support against the brute-force kron+perm
    sp = MultipartiteSpace([2, 3, 2])
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = embed(RegionOperator(m, [0, 2]), sp)
    # manual: tensor with identity on subsystem 1, indices (0,2,1) -> global
    big = np.kron(m, np.eye(3))
    t = big.reshape(2, 2, 3, 2, 2, 3).transpose(0, 2, 1, 3, 5, 4).reshape(12, 12)
    assert np.allclose(full, t)


def _brute_front(region, dims):
    """Axis order and dims of the (sorted region, complement) grouping."""
    region = sorted(region)
    order = region + [i for i in range(len(dims)) if i not in region]
    return order, [dims[i] for i in order]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 3, 2, 3), (3, 2, 2), (2, 2, 2, 2), (4,)]).flatmap(
        lambda dims: st.tuples(
            st.just(dims),
            st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims), unique=True),
        )
    ),
    st.integers(1, 3),
)
def test_region_primitive_matches_brute_force(case, ncols):
    dims, region = case
    sp = MultipartiteSpace(dims)
    d, m = sp.total_dim, sp.dim_of(region)
    r = d // m
    n = len(dims)
    order, fdims = _brute_front(region, list(dims))
    rng = np.random.default_rng(len(region) * 31 + ncols)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    stack = rng.normal(size=(d, ncols)) + 1j * rng.normal(size=(d, ncols))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    op = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))

    # brute force: explicit reshape/transpose into the front order
    v_front = v.reshape(dims).transpose(order).reshape(m, r)
    stack_front = stack.reshape(dims + (ncols,)).transpose(order + [n]).reshape(m, r, ncols)
    a_front = a.reshape(dims + dims).transpose(order + [n + i for i in order]).reshape(m, r, m, r)
    assert np.array_equal(hilbert.to_front(v, region, sp), v_front)
    assert np.array_equal(hilbert.to_front(stack, region, sp), stack_front)
    assert np.array_equal(hilbert.to_front(a, region, sp, sides=2), a_front)
    a_blocks = a_front.transpose(0, 2, 1, 3).reshape(m, m, r * r)
    assert np.array_equal(hilbert.to_blocks(a, region, sp), a_blocks)

    # round trips
    for x, sides in ((v, 1), (stack, 1), (a, 2)):
        y = hilbert.to_front(x, region, sp, sides=sides)
        assert np.array_equal(hilbert.from_front(y, region, sp, sides=sides), x)
    assert np.array_equal(hilbert.from_blocks(a_blocks, region, sp), a)
    # an (N, D, D) stack: the stack index is the fastest axis of the rest
    ops = np.stack([a, a.conj().T, a @ a])
    ops_blocks = hilbert.to_blocks(ops, region, sp)
    assert ops_blocks.shape == (m, m, r * r * 3)
    for j, one in enumerate(ops):
        assert np.array_equal(ops_blocks.reshape(m, m, r * r, 3)[..., j], hilbert.to_blocks(one, region, sp))
    assert np.array_equal(hilbert.from_blocks(ops_blocks, region, sp, stack=(3,)), ops)

    # act against the kron of op with the complement identity, regrouped back
    inv = list(np.argsort(order))
    big = np.kron(op, np.eye(r)).reshape(fdims + fdims)
    big = big.transpose(inv + [n + i for i in inv]).reshape(d, d)
    assert np.allclose(hilbert.act(op, region, v, sp), big @ v, atol=1e-12)
    assert np.allclose(hilbert.act(op, region, stack, sp), big @ stack, atol=1e-12)
    assert np.allclose(embed(RegionOperator(op, region), sp), big, atol=0)


def test_embed_errors():
    sp = uniform_space(2)
    with pytest.raises(hilbert.DimensionError):
        embed(RegionOperator(X, [5]), sp)
    with pytest.raises(hilbert.DimensionError):
        embed(RegionOperator(np.eye(3), [0]), sp)


def test_partial_trace_product_state():
    sp = uniform_space(2)
    v = basis_state(sp, [0, 0])
    rho = np.outer(v, v.conj())
    red = partial_trace(rho, [0], sp)
    assert np.allclose(red, np.diag([1.0, 0.0]))


def test_partial_trace_bell():
    sp = uniform_space(2)
    bell = (basis_state(sp, [0, 0]) + basis_state(sp, [1, 1])) / np.sqrt(2)
    red = partial_trace(np.outer(bell, bell.conj()), [0], sp)
    assert np.allclose(red, np.eye(2) / 2)


def test_partial_trace_ghz():
    sp = uniform_space(3)
    ghz = (basis_state(sp, [0, 0, 0]) + basis_state(sp, [1, 1, 1])) / np.sqrt(2)
    red = partial_trace(np.outer(ghz, ghz.conj()), [0], sp)
    assert np.allclose(red, np.diag([0.5, 0.5]))


def test_reduced_state_of_pure_matches_partial_trace(rng):
    sp = MultipartiteSpace([2, 3, 2])
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    for keep in ([0], [1], [0, 2], [1, 2]):
        assert np.allclose(
            reduced_state_of_pure(v, keep, sp), partial_trace(rho, keep, sp)
        )


def test_partial_trace_linearity_and_trace(rng):
    sp = MultipartiteSpace([2, 2, 3])
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    b = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    lhs = partial_trace(2.0 * a + 3.0 * b, [0, 2], sp)
    rhs = 2.0 * partial_trace(a, [0, 2], sp) + 3.0 * partial_trace(b, [0, 2], sp)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert abs(np.trace(partial_trace(a, [1], sp)) - np.trace(a)) < 1e-12


def test_permute_swap():
    sp = uniform_space(2)
    v = basis_state(sp, [0, 1])
    w = permute_subsystems(v, [1, 0], sp)
    assert np.allclose(w, basis_state(sp, [1, 0]))


def test_permute_identity_and_involution(rng):
    sp = MultipartiteSpace([2, 3, 2])
    v = rng.normal(size=12)
    assert np.allclose(permute_subsystems(v, [0, 1, 2], sp), v)
    w = permute_subsystems(v, [2, 0, 1], sp)
    sp2 = MultipartiteSpace([3, 2, 2])
    back = permute_subsystems(w, [1, 2, 0], sp2)
    assert np.allclose(back, v)


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(4))))
def test_permute_roundtrip_hypothesis(perm):
    rng = np.random.default_rng(5)
    sp = uniform_space(4)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    w = permute_subsystems(v, perm, sp)
    inv = [0] * 4
    for i, p in enumerate(perm):
        inv[p] = i
    assert np.allclose(permute_subsystems(w, inv, sp), v)


def test_permute_rejects_non_permutation():
    sp = uniform_space(2)
    with pytest.raises(ValueError):
        permute_subsystems(np.zeros(4), [0, 0], sp)


def test_neighborhood_normal_form():
    n = NeighborhoodStructure([[2, 1], [1, 2, 3], [0, 1]], normalize=True)
    # {1,2} is a subset of {1,2,3} and gets dropped
    assert n.neighborhoods == ((1, 2, 3), (0, 1))
    raw = NeighborhoodStructure([[2, 1], [1, 2, 3], [0, 1]])
    assert raw.neighborhoods == ((1, 2), (1, 2, 3), (0, 1))
    assert normalized(raw).neighborhoods == ((1, 2, 3), (0, 1))
    with pytest.raises(ValueError):
        NeighborhoodStructure([[0, 1], [1, 0]])


def test_coarse_grain_merges_shared_membership():
    sp = uniform_space(4)
    n = NeighborhoodStructure([[0, 1, 2], [1, 2, 3]])
    cg = coarse_grain(sp, n)
    # systems 1 and 2 share the same membership pattern
    assert cg.groups == ((0,), (1, 2), (3,))
    assert cg.space.dims == (2, 4, 2)
    assert cg.neighborhoods.neighborhoods == ((0, 1), (1, 2))
    assert cg.index_map == (0, 1, 1, 2)


def test_coarse_grain_strictly_local_no_merge():
    sp = uniform_space(3)
    n = NeighborhoodStructure([[0], [1], [2]])
    cg = coarse_grain(sp, n)
    assert cg.space.dims == (2, 2, 2)
    assert cg.groups == ((0,), (1,), (2,))


def test_coarse_grain_global_single_factor():
    sp = uniform_space(3)
    n = NeighborhoodStructure([[0, 1, 2]])
    cg = coarse_grain(sp, n)
    assert cg.space.dims == (8,)


def test_coarse_grain_idempotent():
    sp = uniform_space(4)
    n = NeighborhoodStructure([[0, 1, 2], [1, 2, 3]])
    cg = coarse_grain(sp, n)
    cg2 = coarse_grain(cg.space, cg.neighborhoods)
    assert cg2.space.dims == cg.space.dims
    assert cg2.groups == ((0,), (1,), (2,))


def test_neighborhood_expansion_chain():
    n = NeighborhoodStructure([[i, i + 1] for i in range(4)])  # 5 systems
    assert neighborhood_expansion(n, [2]) == (1, 2, 3, 4)[:4][:3] or True
    assert neighborhood_expansion(n, [2]) == (1, 2, 3)
    assert neighborhood_expansion(n, range(5)) == (0, 1, 2, 3, 4)
    assert neighborhood_expansion(n, []) == ()


@settings(max_examples=30, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=5), max_size=4),
    st.sets(st.integers(min_value=0, max_value=5), max_size=4),
)
def test_neighborhood_expansion_monotone(a, b):
    n = NeighborhoodStructure([[i, i + 1] for i in range(5)])
    if a <= b:
        ea = set(neighborhood_expansion(n, a))
        eb = set(neighborhood_expansion(n, b))
        assert ea <= eb


def test_connectivity():
    assert is_connected(NeighborhoodStructure([[0, 1], [1, 2]]))
    assert not is_connected(NeighborhoodStructure([[0, 1], [2, 3]]))
