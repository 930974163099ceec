import numpy as np
import pytest

from helpers import dense_monomial_forms, random_hermitian, random_unitary, unitary_channel
from qlstab import channels as ch
from qlstab import hilbert
from qlstab import states
from qlstab._linalg import DEFAULT_TOL, random_density, random_pure, trace_distance
from qlstab.channels import (
    Channel,
    ChannelError,
    Circuit,
    apply,
    check_invariance,
    compose,
    kraus_support,
    make_channel,
    reset_channel,
    restrict_to_support,
    run,
    superoperator,
)
from qlstab.hilbert import MultipartiteSpace, RegionOperator, embed, uniform_space

X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestMakeChannel:
    def test_unitary_valid(self):
        c = make_channel([X], [0])
        assert c.tp_defect() < 1e-12

    def test_reset_valid(self):
        c = reset_channel(np.array([1.0, 0.0]), [0])
        assert c.tp_defect() < 1e-12
        assert len(c.kraus) == 2

    def test_non_tp_rejected(self):
        with pytest.raises(ChannelError):
            make_channel([np.array([[1, 0], [0, 0]])], [0])

    def test_ragged_rejected(self):
        with pytest.raises(ChannelError):
            make_channel([np.eye(2), np.eye(3)], [0])


class TestApply:
    def test_identity(self, rng):
        sp = uniform_space(2)
        rho = random_density(4, rng)
        c = unitary_channel(np.eye(2), [0])
        assert trace_distance(apply(c, rho, sp), rho) < 1e-12

    def test_reset_on_mixed(self, rng):
        sp = uniform_space(1)
        c = reset_channel(np.array([1.0, 0.0]), [0])
        out = apply(c, np.eye(2) / 2, sp)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("dims, support, kind, branch", [
        pytest.param([2, 3, 2], [0, 2], "unitary", "kraus", id="unitary-02-of-232"),
        pytest.param([2, 3, 2], [1], "reset", "liouville", id="reset-1-of-232"),
        pytest.param([2, 3, 2, 3], [1, 3], "reset", "kraus", id="reset-13-of-2323"),
        pytest.param([2, 3, 2, 3], [3, 0], "three", "liouville", id="three-03-of-2323"),
        pytest.param([3, 2, 2], [0, 1, 2], "three", "full", id="three-full-of-322"),
        pytest.param([2, 3, 2, 3], [0, 2], "reset", "liouville", id="reset-02-of-2323"),
        pytest.param([2, 2, 2], [0, 2], "three", "kraus", id="three-02-of-222"),
        pytest.param([2, 2, 2, 2], [3, 1], "two", "liouville", id="two-13-of-2222"),
        pytest.param([2] * 6, [0, 2, 5], "two", "liouville", id="two-025-of-2x6"),
        pytest.param([2] * 8, [0, 2, 5, 7], "two", "kraus", id="two-0257-of-2x8"),
    ])
    def test_local_apply_matches_embedded(self, rng, dims, support, kind, branch):
        sp = MultipartiteSpace(dims)
        m = sp.dim_of(support)
        rho = random_density(sp.total_dim, rng)
        if kind == "reset":
            c = reset_channel(random_pure(m, rng), support)
            assert len(c.kraus) == m
        else:
            nk = {"unitary": 1, "two": 2, "three": 3}[kind]
            g = rng.normal(size=(nk * m, m)) + 1j * rng.normal(size=(nk * m, m))
            v, _ = np.linalg.qr(g)
            c = make_channel([v[i * m:(i + 1) * m] for i in range(nk)], support)
        if branch != "full":
            assert ch._liouville_pays(m, len(c.kraus), sp.total_dim) == (branch == "liouville")
        expected = np.zeros_like(rho)
        for k in c.kraus:
            big = embed(RegionOperator(k, support), sp)
            expected += big @ rho @ big.conj().T
        assert trace_distance(apply(c, rho, sp), expected) < 1e-10
        # an (N, D, D) stack runs through the same branch as N single states
        stack = np.stack([rho, random_density(sp.total_dim, rng), rho @ rho])
        out = apply(c, stack, sp)
        assert out.shape == stack.shape
        for one, many in zip(stack, out):
            assert np.max(np.abs(apply(c, one, sp) - many)) <= 1e-15

    def test_output_is_state(self, rng):
        sp = uniform_space(3)
        rho = random_density(8, rng)
        c = reset_channel(np.array([0.6, 0.8]), [1])
        out = apply(c, rho, sp)
        assert abs(np.trace(out) - 1) < 1e-9
        assert np.min(np.linalg.eigvalsh(out)) > -1e-9

    def test_graph_witness_invariance(self):
        inst = states.line_graph_state(3)
        rho = inst.density()
        for c in inst.witness_channels:
            out = apply(c, rho, inst.space)
            assert trace_distance(out, rho) < 1e-9


def _real_channel(support, m: int, nk: int, rng) -> Channel:
    """A channel with nk real Kraus operators, cut from a real isometry; make_channel
    stores them as complex with zero imaginary parts."""
    v, _ = np.linalg.qr(rng.normal(size=(nk * m, m)))
    return make_channel([v[i * m:(i + 1) * m] for i in range(nk)], support)


def _real_density(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d))
    rho = g @ g.T
    return rho / np.trace(rho)


def _complex_reference(c: Channel, rho: np.ndarray, space) -> np.ndarray:
    """sum K rho K^H with every operator embedded, in complex arithmetic."""
    out = np.zeros(rho.shape, dtype=complex)
    for k in c.kraus:
        big = embed(RegionOperator(k, c.support), space)
        out += big @ rho.astype(complex) @ big.conj().T
    return out


# (dims, support, Kraus count, branch): each branch of `apply` on a real channel
REAL_BRANCHES = {
    "kraus": ([2, 3, 2, 3], [1, 3], 1),
    "liouville": ([2, 3, 2, 3], [0, 2], 2),
    "full": ([3, 2, 2], [0, 1, 2], 3),
}


class TestRealApply:
    """A real channel runs in real arithmetic: float64 on a float64 state, and
    the float64 view of the regrouped blocks on a complex one."""

    @pytest.mark.parametrize("state", ["float64", "complex", "float64-stack", "complex-stack"])
    @pytest.mark.parametrize("branch", list(REAL_BRANCHES))
    def test_matches_complex_reference(self, branch, state, rng):
        dims, support, nk = REAL_BRANCHES[branch]
        sp = MultipartiteSpace(dims)
        m, d = sp.dim_of(support), sp.total_dim
        c = _real_channel(support, m, nk, rng)
        assert c.real_kraus is not None
        if branch != "full":
            assert ch._liouville_pays(m, nk, d) == (branch == "liouville")
        draw = _real_density if state.startswith("float64") else random_density
        rho = np.stack([draw(d, rng) for _ in range(3)]) if state.endswith("stack") else draw(d, rng)
        out = apply(c, rho, sp)
        assert out.dtype == (np.float64 if state.startswith("float64") else np.complex128)
        assert out.shape == rho.shape
        expected = np.stack([_complex_reference(c, r, sp) for r in rho.reshape(-1, d, d)]).reshape(rho.shape)
        assert np.max(np.abs(out - expected)) <= 1e-14

    @pytest.mark.parametrize("branch", ["kraus", "liouville"])
    def test_complex_state_multiplies_float64_view(self, branch, rng, monkeypatch):
        # the local products see float64 blocks whose last axis is twice the
        # complex one: real and imaginary parts interleaved
        dims, support, nk = REAL_BRANCHES[branch]
        sp = MultipartiteSpace(dims)
        m, d = sp.dim_of(support), sp.total_dim
        c = _real_channel(support, m, nk, rng)
        seen = []
        to_blocks = hilbert.to_blocks
        monkeypatch.setattr(hilbert, "to_blocks", lambda *a: seen.append(to_blocks(*a)) or seen[-1])
        kraus_blocks = ch._kraus_blocks
        monkeypatch.setattr(ch, "_kraus_blocks", lambda x, k: seen.append(x) or kraus_blocks(x, k))
        apply(c, random_density(d, rng), sp)
        assert seen[0].dtype == complex and seen[0].shape == (m, m, d * d // (m * m))
        if branch == "kraus":
            assert seen[1].dtype == np.float64 and seen[1].shape == (m, m, 2 * d * d // (m * m))
        else:
            assert c.natural.dtype == np.float64

    def test_tiny_imaginary_part_stays_complex(self, rng):
        # exactly zero is the rule, with no tolerance: 1e-300 keeps the channel complex
        sp = MultipartiteSpace([2, 3, 2])
        v, _ = np.linalg.qr(rng.normal(size=(12, 6)))
        kraus = [v[:6].astype(complex), v[6:].astype(complex)]
        kraus[0][1, 2] += 1e-300j
        c = make_channel(kraus, [0, 1])
        assert c.real_kraus is None and c.natural.dtype == complex
        rho = _real_density(12, rng)
        out = apply(c, rho, sp)
        assert out.dtype == complex
        assert np.max(np.abs(out - _complex_reference(c, rho, sp))) <= 1e-14

    def test_dtype_contract(self, rng):
        # float64 out only for a real channel on a float64 state; every other
        # pair is complex128, and the input is never written
        sp = MultipartiteSpace([2, 3, 2])
        real = _real_channel([1], 3, 2, rng)
        cplx = reset_channel(random_pure(3, rng), [1])
        assert real.real_kraus is not None and cplx.real_kraus is None
        assert all(k.dtype == np.float64 for k in real.real_kraus)
        rho = _real_density(12, rng)
        for c, x, dtype in [
            (real, rho, np.float64),
            (real, rho[None], np.float64),
            (real, rho.astype(complex), np.complex128),
            (real, rho.astype(np.float32), np.complex128),
            (real, np.eye(12, dtype=int), np.complex128),
            (cplx, rho, np.complex128),
            (cplx, rho[None], np.complex128),
        ]:
            before = x.copy()
            assert apply(c, x, sp).dtype == dtype
            assert np.array_equal(x, before)


class TestInvariance:
    def test_identity_zero_defect(self, rng):
        sp = uniform_space(2)
        psi = random_pure(4, rng)
        rep = check_invariance(unitary_channel(np.eye(4), [0, 1]), psi, sp)
        assert rep.ok and rep.defect < 1e-12

    def test_depolarizing_defect_half(self):
        sp = uniform_space(1)
        psi = np.array([1.0, 0.0], dtype=complex)
        kraus = [np.eye(2) / 2, X / 2, np.array([[0, -1j], [1j, 0]]) / 2, np.diag([1, -1]) / 2]
        dep = make_channel(kraus, [0])
        rep = check_invariance(dep, psi, sp)
        assert not rep.ok
        assert abs(rep.defect - 0.5) < 1e-9

    def test_graph_witness(self):
        inst = states.line_graph_state(4)
        for c in inst.witness_channels:
            rep = check_invariance(c, inst.psi, inst.space)
            assert rep.ok, rep.defect


class TestKrausSupport:
    def test_embedded_local(self, rng):
        sp = uniform_space(3)
        c = unitary_channel(np.kron(X, np.eye(2)), [0, 1])
        assert kraus_support(c, sp) == (0,)

    def test_restrict_to_support(self, rng):
        sp = uniform_space(3)
        c = unitary_channel(np.kron(X, np.eye(2)), [0, 1])
        small = restrict_to_support(c, sp)
        assert small.support == (0,)
        rho = random_density(8, rng)
        assert trace_distance(apply(c, rho, sp), apply(small, rho, sp)) < 1e-10

    def test_graph_witness_support_tight(self):
        inst = states.line_graph_state(4)
        for i, c in enumerate(inst.witness_channels):
            assert set(kraus_support(c, inst.space)) <= set(inst.neighborhoods[i])

    def test_global_swap_conjugated(self, rng):
        sp = uniform_space(2)
        swap = np.eye(4)[[0, 2, 1, 3]]
        c = unitary_channel(swap.astype(complex), [0, 1])
        assert kraus_support(c, sp) == (0, 1)


class TestSuperoperator:
    def test_identity(self):
        sp = uniform_space(1)
        s = superoperator(unitary_channel(np.eye(2), [0]), sp)
        assert np.allclose(s, np.eye(4))

    def test_matches_apply(self, rng):
        sp = uniform_space(2)
        c = reset_channel(random_pure(2, rng), [1])
        s = superoperator(c, sp)
        rho = random_density(4, rng)
        out = (s @ rho.reshape(-1)).reshape(4, 4)
        assert trace_distance(out, apply(c, rho, sp)) < 1e-10

    def test_reset_superop_rank_one(self, rng):
        sp = uniform_space(1)
        psi = random_pure(2, rng)
        s = superoperator(reset_channel(psi, [0]), sp)
        assert np.linalg.matrix_rank(s) == 1

    def test_unitary_structure(self, rng):
        sp = uniform_space(1)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        s = superoperator(unitary_channel(u, [0]), sp)
        assert np.allclose(s, np.kron(u, u.conj()))

    @pytest.mark.parametrize("dims, support, nk", [
        pytest.param([2, 3], [1], 4, id="local-4-kraus"),
        pytest.param([2, 2], [0, 1], 3, id="full-3-kraus"),
        pytest.param([2], [0], 6, id="more-kraus-than-side-chunked"),
    ])
    def test_matches_kron_sum(self, rng, dims, support, nk):
        # oracle: the sum of K (x) K-bar over the embedded Kraus operators
        sp = MultipartiteSpace(dims)
        m = sp.dim_of(support)
        g = rng.normal(size=(nk * m, m)) + 1j * rng.normal(size=(nk * m, m))
        v, _ = np.linalg.qr(g)
        c = make_channel([v[i * m:(i + 1) * m] for i in range(nk)], support)
        big = [embed(RegionOperator(k, support), sp) for k in c.kraus]
        expected = sum(np.kron(k, k.conj()) for k in big)
        assert np.max(np.abs(superoperator(c, sp) - expected)) < 1e-14

    def test_cap(self):
        sp = uniform_space(4)
        with pytest.raises(ch.CapExceeded):
            superoperator(unitary_channel(np.eye(16), list(range(4))), sp, max_side=8)

    def test_default_cap_is_on_the_side(self, monkeypatch):
        # 7 qubits: side 4^7 = 16384 > 4096, refused before any allocation
        c = unitary_channel(np.eye(2), [0])

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        for name in ("zeros", "empty", "stack", "kron"):
            monkeypatch.setattr(np, name, no_alloc)
        with pytest.raises(ch.CapExceeded):
            superoperator(c, uniform_space(7))


class TestComposeRun:
    def test_compose_is_sequential(self, rng):
        sp = uniform_space(2)
        a = reset_channel(random_pure(2, rng), [0])
        b = reset_channel(random_pure(2, rng), [1])
        both = compose(b, a, sp)
        rho = random_density(4, rng)
        lhs = apply(both, rho, sp)
        rhs = apply(b, apply(a, rho, sp), sp)
        assert trace_distance(lhs, rhs) < 1e-10

    def test_cptp_closure(self, rng):
        sp = uniform_space(2)
        a = reset_channel(random_pure(2, rng), [0])
        b = reset_channel(random_pure(4, rng), [0, 1])
        assert compose(b, a, sp).tp_defect() < 1e-9

    def test_vanishing_products_dropped(self, rng):
        # dephasing after a reset to |0>: |1><1| |0><m| = 0 for both m
        sp = uniform_space(1)
        reset = reset_channel(np.array([1.0, 0.0]), [0])
        dephase = make_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0])
        both = compose(dephase, reset, sp)
        assert len(both.kraus) == 2
        assert np.max(np.abs(superoperator(both, sp) - superoperator(reset, sp))) < 1e-15

    def test_relocate(self):
        sp = MultipartiteSpace([2, 3, 4, 5])
        c = make_channel([np.eye(8)], [0, 2], label="c")
        local, sub = ch.relocate(c, [2, 3, 0], sp)
        assert (local.support, sub.dims, local.label) == ((0, 1), (2, 4, 5), "c")
        assert local.kraus is c.kraus

    def test_empty_circuit(self, rng):
        sp = uniform_space(2)
        rho = random_density(4, rng)
        final, traj = run(Circuit((), sp), rho)
        assert trace_distance(final, rho) < 1e-12
        assert len(traj) == 1

    def test_run_records_rank_and_distance(self, rng):
        inst = states.line_graph_state(3)
        circ = Circuit(inst.witness_channels, inst.space)
        rho0 = np.eye(8) / 8
        final, traj = run(circ, rho0, target=inst.psi)
        assert traj[-1].trace_distance < 1e-9
        assert traj[0].rank == 8

    def test_invariance_output_lemma(self, rng):
        # Pi E(rho) Pi - Pi rho Pi is PSD for any invariance-respecting
        # neighborhood channel
        from qlstab.subspaces import extended_schmidt_span

        inst = states.line_graph_state(3)
        for k, c in enumerate(inst.witness_channels):
            pk = extended_schmidt_span(
                inst.psi, inst.neighborhoods[k], inst.space
            ).projector()
            for _ in range(4):
                rho = random_density(8, rng)
                diff = pk @ apply(c, rho, inst.space) @ pk - pk @ rho @ pk
                assert np.min(np.linalg.eigvalsh(diff)) > -1e-9



class TestFactorResetChannel:
    def _oracle(self, state, w, g, sp):
        """Reset of virtual factor 0 of (2, 2) after both re-injections, built
        as the product of the three maps with every Kraus product kept."""
        v = np.kron(w, w) @ g
        reset = reset_channel(state, [0]).kraus
        kraus = [v @ np.kron(k, np.eye(2)) @ v.conj().T for k in reset]
        kraus.append(np.eye(9) - v @ v.conj().T)
        q = np.eye(3)[:, 2:]
        e0 = [w @ w.conj().T] + [np.outer(w[:, b], q[:, 0]) / np.sqrt(2) for b in range(2)]
        out = kraus
        for lift in (lambda r: np.kron(r, np.eye(3)), lambda r: np.kron(np.eye(3), r)):
            out = [k @ lift(r) for k in out for r in e0]
        return make_channel(out, [0, 1])

    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_product_of_maps(self, rng, mixed):
        # two qutrits, each with the local support spanned by |0>, |1>

        sp = uniform_space(2, 3)
        w = np.eye(3, 2, dtype=complex)
        g = random_unitary(4, rng)
        state = random_density(2, rng) if mixed else random_pure(2, rng)
        c = ch.factor_reset_channel(state, [0], (2, 2), g, [w, w], (0, 1), "E")
        want = self._oracle(state, w, g, sp)
        assert np.max(np.abs(superoperator(c, sp) - superoperator(want, sp))) < 1e-12
        norms = [np.linalg.norm(k) for k in c.kraus]
        assert min(norms) > 1e-10
        assert len(c.kraus) < len(want.kraus)

    def test_square_v_adds_no_complement(self, rng):
        # a reset of site 1 in the frame of a CZ: exactly the reset's d operators
        sp = uniform_space(2)
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        c = ch.factor_reset_channel(plus, [1], (2, 2), cz, [np.eye(2)] * 2, (0, 1), "E_1")
        assert len(c.kraus) == 2 and c.label == "E_1"
        psi = cz @ np.kron(plus, plus)
        assert check_invariance(c, psi, sp).ok


def _whole_frame(space, local):
    """The frame B = local: the region is the whole space, with one copy of a
    one-dimensional Schmidt span, so the Householder factor is the 1 x 1 identity."""
    return ch.Frame(space, range(space.n_subsystems), local, 1, 1, [1.0])


class TestFramedRun:
    def test_permutation_and_monomial_channel_match_dense(self, rng):
        # frame = computational basis of three qubits, in a shuffled order;
        # the local channels are monomial in any such frame
        sp = uniform_space(3)
        frame = _whole_frame(sp, np.eye(8, dtype=complex)[:, rng.permutation(8)])
        perm = rng.permutation(8)
        steps = (
            unitary_channel(X, [1]),
            ch.permutation_step(perm, sp, label="P"),
            reset_channel(np.array([1.0, 0.0]), [2]),
            make_channel([np.diag([1.0, 0.0]), np.array([[0, 0], [0, 1j]])], [0]),
        )
        rho0 = random_density(8, rng)
        framed, traj = run(Circuit(steps, sp, frame), rho0, target=np.eye(8)[0])
        b = frame.basis
        dense = [unitary_channel(b[:, perm] @ b.conj().T, range(3)) if s is steps[1] else s
                 for s in steps]
        ref, ref_traj = run(Circuit(tuple(dense), sp), rho0, target=np.eye(8)[0])
        assert np.max(np.abs(framed - ref)) < 1e-12
        assert [p.rank for p in traj] == [p.rank for p in ref_traj]
        assert ch.frame_defect(Circuit(steps, sp, frame)) == 0.0

    def test_non_monomial_channel_rejected(self, rng):

        sp = uniform_space(2)
        frame = _whole_frame(sp, random_unitary(4, rng))
        circ = Circuit((ch.permutation_step([1, 0, 2, 3], sp), unitary_channel(X, [0])), sp, frame)
        with pytest.raises(ChannelError, match="monomial"):
            run(circ, np.eye(4) / 4)

    def test_non_unitary_frame_rejected(self):
        sp = uniform_space(2)
        for frame in (_whole_frame(sp, 2 * np.eye(4)), ch.Frame(sp, [0, 1], np.eye(4), 1, 1, [1.1])):
            circ = Circuit((ch.permutation_step([0, 1, 2, 3], sp),), sp, frame)
            with pytest.raises(ChannelError, match="unitary"):
                run(circ, np.eye(4) / 4)

    @pytest.mark.parametrize("perm", [[0, 0, 1, 2], [1, 2, 3, 4], [0, 1, 2], [0.0, 1.0, 2.0, 3.0]])
    def test_bad_permutation_rejected(self, perm):
        sp = uniform_space(2)
        with pytest.raises(ChannelError):
            ch.permutation_step(perm, sp)

    def test_permutation_step_needs_frame(self):
        sp = uniform_space(2)
        with pytest.raises(ChannelError, match="frame"):
            Circuit((ch.permutation_step([0, 1, 2, 3], sp),), sp)

    def test_frame_of_another_space_rejected(self):
        sp = uniform_space(2)
        foreign = _whole_frame(MultipartiteSpace([4]), np.eye(4))
        for steps in ((), (ch.permutation_step([0, 1, 2, 3], sp),)):
            with pytest.raises(ChannelError, match="space"):
                Circuit(steps, sp, foreign)

    def test_generic_apply_refuses_permutation_step(self):
        sp = uniform_space(2)
        step = ch.permutation_step([0, 1, 2, 3], sp)
        with pytest.raises(ChannelError):
            apply(step, np.eye(4) / 4, sp)
        with pytest.raises(ChannelError):
            ch.apply_to_pure(step, np.eye(4)[0], sp)


class TestFactoredFrame:
    """`Frame` from its factors, on small spaces; the FTS frames of the
    paper's states are tested in test_fts.py."""

    @pytest.mark.parametrize("kwargs, match", [
        ({"region": [0, 3]}, "region"),
        ({"region": [1, 1]}, "region"),
        ({"region": []}, "region"),
        ({"local": np.eye(3)}, "local"),
        ({"psi_coords": np.ones(3) / np.sqrt(3)}, "psi_coords"),
        ({"copies": 3}, "copies"),
        ({"schmidt_dim": 0}, "positive"),
        ({"copies": 1.0}, "positive"),
    ])
    def test_malformed_factors_rejected(self, kwargs, match):
        # region {1} of three qubits: m = 2, R = 4, and n = s R = 4
        args = {"space": uniform_space(3), "region": [1], "local": np.eye(2), "copies": 2,
                "schmidt_dim": 1, "psi_coords": np.eye(4)[0]}
        with pytest.raises(ChannelError, match=match):
            ch.Frame(**{**args, **kwargs})

    @pytest.mark.parametrize("c0", [
        np.exp(0.7j) * np.eye(6)[0],
        np.eye(6)[3],
        np.array([0.6, 0, 0, 0, 0, 0.8j]),
    ], ids=["phase-e0", "c0[0]-zero", "generic"])
    def test_householder_sends_e0_to_c0(self, c0, rng):

        # region {0, 2} of dims (2, 3, 2): m = 4, R = 3, s = 2 and n = 6, r = 2
        sp = MultipartiteSpace([2, 3, 2])
        frame = ch.Frame(sp, [2, 0], random_unitary(4, rng), 2, 2, c0)
        b = frame.basis
        assert np.max(np.abs(b.conj().T @ b - np.eye(12))) < 1e-12
        psi = hilbert.from_front((frame.local[:, :2] @ c0.reshape(2, 3)).reshape(4, 3), [0, 2], sp)
        assert np.max(np.abs(b[:, 0] - psi)) < 1e-12
        x = random_density(12, rng)
        assert np.max(np.abs(frame.apply(x) - b @ x)) < 1e-12
        assert np.max(np.abs(frame.apply(x, adjoint=True) - b.conj().T @ x)) < 1e-12
        assert np.max(np.abs(frame.apply(x[:, 0]) - b @ x[:, 0])) < 1e-12

    @pytest.mark.parametrize("size", [1, 5, 12])
    def test_rotations_match_dense(self, size, rng):

        sp = MultipartiteSpace([2, 3, 2])
        frame = ch.Frame(sp, [1], random_unitary(3, rng), 1, 2, random_pure(8, rng))
        b = frame.basis
        rho = random_density(12, rng)
        assert np.max(np.abs(frame.rotate_in(rho) - b.conj().T @ rho @ b)) < 1e-12
        s = np.sort(rng.choice(12, size=size, replace=False))
        block = random_density(size, rng)
        bs = b[:, s]
        assert np.max(np.abs(frame.rotate_out(block, s) - bs @ block @ bs.conj().T)) < 1e-12


def _rotated(c: Channel, eps: float, rng) -> Channel:
    """`c` with its first Kraus operator turned by exp(i eps H), H a random
    Hermitian on its support: still trace preserving, off the pattern by
    about eps."""
    ev, v = np.linalg.eigh(random_hermitian(c.local_dim, rng))
    u = (v * np.exp(1j * eps * ev)) @ v.conj().T
    return make_channel((u @ c.kraus[0],) + c.kraus[1:], c.support, label=c.label)


def _monomial_unitary(frame, rng) -> Channel:
    """A unitary on the frame's region that is a phased permutation M of the
    columns of L: whole copy blocks, each times a phase, and the remainder
    coordinates, unless Q is diagonal, when any coordinates may be permuted."""
    m, r, s = frame.local.shape[0], frame.copies, frame.schmidt_dim
    if np.any(frame.psi_coords[1:]):
        perm = np.concatenate([(rng.permutation(r)[:, None] * s + np.arange(s)).ravel(),
                               r * s + rng.permutation(m - r * s)])
        phase = np.concatenate([np.repeat(np.exp(2j * np.pi * rng.random(r)), s),
                                np.exp(2j * np.pi * rng.random(m - r * s))])
    else:
        perm, phase = rng.permutation(m), np.exp(2j * np.pi * rng.random(m))
    mono = np.zeros((m, m), dtype=complex)
    mono[perm, np.arange(m)] = phase
    return unitary_channel(frame.local @ mono @ frame.local.conj().T, frame.region, label="M")


# the FTS families whose cooling maps are checked in their planned frames;
# line 3 is a one-step circuit
_FTS_STATES = {"dicke": lambda: states.dicke(4, 2), "line3": lambda: states.line_graph_state(3),
               **{f"vbs{n}": (lambda n=n: states.vbs_1d(n)) for n in (3, 4, 5, 6)}}


class TestFactoredForms:
    """`_monomial_forms`, read from the frame's factors, against the dense
    oracle `helpers.dense_monomial_forms` that builds B: the same pattern,
    values within 1e-12, a defect that bounds the dense one from above, and
    the same refusals."""

    @staticmethod
    def check(c, frame, space):
        forms, defect = ch._monomial_forms(c, frame, space)
        dense, dense_defect = dense_monomial_forms(c, frame, space)
        assert len(forms) == len(dense) == len(c.kraus)
        for (rows, cols, vals), (drows, dcols, dvals) in zip(forms, dense):
            assert np.array_equal(rows, drows) and np.array_equal(cols, dcols)
            assert np.max(np.abs(vals - dvals), initial=0.0) < 1e-12
        assert defect >= dense_defect - 1e-14
        return defect

    @staticmethod
    def both_refuse(c, frame, space):
        for forms in (ch._monomial_forms, dense_monomial_forms):
            with pytest.raises(ChannelError, match="monomial"):
                forms(c, frame, space)

    @pytest.mark.parametrize("name", sorted(_FTS_STATES))
    def test_fts_cooling_maps(self, name, rng):
        from qlstab import fts

        inst = _FTS_STATES[name]()
        frame = fts.plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
        c = fts.cooling_map(frame)
        assert self.check(c, frame, inst.space) < 1e-14
        self.both_refuse(_rotated(c, 1e-6, rng), frame, inst.space)

    def test_shuffled_whole_space_frame(self, rng):
        # the computational basis of three qubits in a shuffled order: Q is
        # the 1 x 1 identity, and local channels embed into the region
        sp = uniform_space(3)
        frame = _whole_frame(sp, np.eye(8, dtype=complex)[:, rng.permutation(8)])
        for c in (unitary_channel(X, [1]), reset_channel(np.array([1.0, 0.0]), [2]),
                  make_channel([np.diag([1.0, 0.0]), np.array([[0, 0], [0, 1j]])], [0])):
            assert self.check(c, frame, sp) == 0.0
            self.both_refuse(_rotated(c, 1e-6, rng), frame, sp)

    @pytest.mark.parametrize("c0", [
        np.exp(0.7j) * np.eye(6)[0],
        np.eye(6)[3],
        np.array([0.6, 0, 0, 0, 0, 0.8j]),
        None,
    ], ids=["phase-e0", "c0[0]-zero", "sparse", "random"])
    @pytest.mark.parametrize("region", [[2, 0], [0, 1]])
    def test_random_frames(self, c0, region, rng):
        # dims (2, 3, 2): region {0, 2} has m = 4, R = 3; region {0, 1} has
        # m = 6, R = 2 and a remainder of 2; s = 2 and r = 2 on both
        from qlstab import fts

        sp = MultipartiteSpace([2, 3, 2])
        m = sp.dim_of(region)
        n = 2 * (12 // m)
        if c0 is None or c0.size != n:
            c0 = random_pure(n, rng) if c0 is None else np.exp(0.7j) * np.eye(n)[0]
        frame = ch.Frame(sp, region, random_unitary(m, rng), 2, 2, c0)
        for c in (fts.cooling_map(frame), _monomial_unitary(frame, rng), _monomial_unitary(frame, rng)):
            assert self.check(c, frame, sp) < 1e-13
            self.both_refuse(_rotated(c, 1e-6, rng), frame, sp)
        # a random unitary on the region is monomial in neither
        self.both_refuse(unitary_channel(random_unitary(m, rng), region), frame, sp)

    @pytest.mark.parametrize("block", ["residual", "copy-off-pattern", "copy-remainder", "remainder-copy",
                                       "remainder"])
    @pytest.mark.parametrize("c0", ["random", "phase-e0"])
    def test_each_block_bound(self, block, c0, rng):
        # the identity channel on region {0, 1} of dims (2, 3, 2), with one
        # entry pattern P added to M = I in the named block: m = 6, s = r = 2,
        # so rows and columns 0..3 are the copies and 4, 5 the remainder.
        # The factored defect must bound the dense one where both accept,
        # and both must refuse once it passes the tolerance.
        sp = MultipartiteSpace([2, 3, 2])
        coords = random_pure(4, rng) if c0 == "random" else np.exp(0.7j) * np.eye(4)[0]
        frame = ch.Frame(sp, [0, 1], random_unitary(6, rng), 2, 2, coords)
        p = np.zeros((6, 6))
        if block == "residual":
            p[0, 1] = 1.0  # traceless, inside the pattern block (0, 0)
        elif block == "copy-off-pattern":
            p[2:4, 0:2] = np.eye(2)  # a multiple of I in block (1, 0)
        elif block == "copy-remainder":
            p[0, 4] = 1.0
        elif block == "remainder-copy":
            p[4, 0] = 1.0
        else:
            p[5, 4] = 1.0
        for eps in (1e-10, 1e-6):
            k = frame.local @ (np.eye(6) + eps * p) @ frame.local.conj().T
            c = Channel(kraus=(k,), support=(0, 1), label="P")
            if eps < DEFAULT_TOL.frame:
                defect, dense_defect = ch._monomial_forms(c, frame, sp)[1], dense_monomial_forms(c, frame, sp)[1]
                assert dense_defect > 1e-12 and defect >= dense_defect - 1e-14
            else:
                self.both_refuse(c, frame, sp)

    def test_support_outside_region_refused(self, monkeypatch):
        sp = MultipartiteSpace([2, 3, 2])
        frame = ch.Frame(sp, [0], np.eye(2), 1, 1, np.eye(6)[0])
        monkeypatch.setattr(ch.Frame, "basis", property(lambda self: pytest.fail("dense basis built")))
        with pytest.raises(ChannelError, match=r"\[1\]"):
            ch._monomial_forms(unitary_channel(np.eye(3)[[1, 2, 0]], [1], label="P"), frame, sp)

    def test_vbs6_forms_hold_no_dense_array(self):
        import tracemalloc

        from qlstab import fts

        inst = states.vbs_1d(6)
        frame = fts.plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
        w = fts.cooling_map(frame)
        tracemalloc.start()
        try:
            frame.monomial_kraus(w, inst.space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 729 x 729 complex array is 8.5 MB
        assert peak < 1 << 20


class TestDiagonalDistance:
    """`diagonal_distance_to_pure_on`, the secular-equation distance of
    `run_diagonal`, against the eigensolve of `trace_distance_to_pure_on`."""

    @pytest.mark.parametrize("size", [1, 2, 7, 12])
    @pytest.mark.parametrize("tail", [0.0, 1e-16, 1e-8, None])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_matches_eigensolve(self, size, tail, zeros, rng):
        from qlstab._linalg import diagonal_distance_to_pure_on, trace_distance_to_pure_on

        d = 12
        for _ in range(5):
            s = np.sort(rng.choice(d, size=size, replace=False))
            p = rng.random(size) ** 2
            if zeros:
                p[rng.random(size) < 0.5] = 0.0
                p[0] = max(p[0], 0.1)
            p /= p.sum()
            t = random_pure(d, rng)
            if tail is not None:
                off = np.setdiff1d(np.arange(d), s)
                t[off] *= tail
                t /= np.linalg.norm(t)
            dense = trace_distance_to_pure_on(np.diag(p), s, t)
            assert abs(diagonal_distance_to_pure_on(p, s, t) - dense) < 1e-14

    def test_target_state_and_orthogonal_state(self):
        from qlstab._linalg import diagonal_distance_to_pure_on

        e0 = np.eye(5)[0].astype(complex)
        assert diagonal_distance_to_pure_on(np.array([1.0]), np.array([0]), e0) == 0.0
        assert diagonal_distance_to_pure_on(np.array([1.0]), np.array([3]), e0) == pytest.approx(1.0, abs=1e-15)
        # I/D against a pure state: 1 - 1/D
        assert diagonal_distance_to_pure_on(np.full(5, 0.2), np.arange(5), e0) == pytest.approx(0.8, abs=1e-15)


class TestOccupiedBlock:
    """Rank and distance to a pure target from the block of a state on its
    occupied indices, against the dense D x D computations."""

    D = 12

    @pytest.mark.parametrize("size", [0, 1, 6, 12])
    @pytest.mark.parametrize("tail", [0.0, 1e-16, 1e-10, 1e-6, None])
    def test_block_matches_dense(self, size, tail, rng):
        from qlstab._linalg import rank_cutoff, trace_distance_to_pure_on

        d = self.D
        s = np.sort(rng.choice(d, size=size, replace=False))
        rho = np.zeros((d, d), dtype=complex)
        if size:
            rho[np.ix_(s, s)] = random_density(size, rng, rank=max(size // 2, 1))
        # a target dense off s at the scale `tail`, or a random one
        t = random_pure(d, rng)
        if tail is not None:
            t *= tail
            t[s[0] if size else 0] = 1.0
            t /= np.linalg.norm(t)
        assert np.array_equal(ch.occupied(rho), s)
        dense = trace_distance(rho, np.outer(t, t.conj()))
        assert abs(trace_distance_to_pure_on(rho[np.ix_(s, s)], s, t) - dense) < 1e-13
        ev = np.linalg.eigvalsh(rho)
        assert ch.state_rank(rho) == rank_cutoff(np.abs(ev[::-1]), rho.shape)


class TestPureDistanceBound:
    """`trace_distance_to_pure_bound` lies between the exact trace distance
    and the Frobenius bound (1/2) sqrt(D) ||rho - psi psi^H||_F it replaced."""

    @staticmethod
    def check(rho, psi, below_frobenius=True):
        from qlstab._linalg import trace_distance_to_pure_bound

        target = np.outer(psi, psi.conj())
        exact = trace_distance(rho, target)
        frobenius = 0.5 * np.sqrt(len(psi)) * np.linalg.norm(rho - target)
        bound = trace_distance_to_pure_bound(rho, psi)
        assert exact - 1e-13 <= bound
        assert (bound <= frobenius + 1e-13) == below_frobenius
        return exact, bound

    def test_above_frobenius_at_d2(self):
        # |a - 1| + tr C + 2|b| = 2(c + |b|) against 2 sqrt(c^2 + |b|^2)
        psi = np.array([1.0, 0.0], dtype=complex)
        v = np.array([np.sqrt(0.9), np.sqrt(0.1)], dtype=complex)
        assert self.check(np.outer(v, v.conj()), psi, below_frobenius=False)[1] == pytest.approx(0.1 + 0.3)

    @pytest.mark.parametrize("d", [6, 16, 64])
    def test_random_states(self, d, rng):
        for rank in (1, 2, d):
            psi = random_pure(d, rng)
            self.check(random_density(d, rng, rank=rank), psi)
            # a state near the target, as a verification's final state is
            rho = 0.999 * np.outer(psi, psi.conj()) + 0.001 * random_density(d, rng, rank=rank)
            self.check(rho, psi)
        # the target itself
        assert self.check(np.outer(psi, psi.conj()), psi)[1] < 1e-15

    def test_kagome_outputs(self, rng):
        inst = states.ccz_kagome(3, 1)
        d = inst.space.total_dim
        for rho in (np.eye(d, dtype=complex) / d, random_density(d, rng, rank=3)):
            for k, c in enumerate(inst.witness_channels):
                rho = apply(c, rho, inst.space)
                if k % 2:
                    self.check(rho, inst.psi)
            exact, bound = self.check(rho, inst.psi)
            assert bound < 1e-13  # the witnesses prepare the target


from hypothesis import given, settings, strategies as st


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_compose_preserves_cptp(seed, n_kraus):
    rng = np.random.default_rng(seed)
    sp = uniform_space(2)
    # random channel from a Haar isometry, split into n_kraus pieces

    u = random_unitary(2 * n_kraus, rng)[:, :2]
    kraus_a = [u[2 * i : 2 * i + 2, :] for i in range(n_kraus)]
    a = make_channel(kraus_a, [0])
    b = reset_channel(np.array([0.6, 0.8]), [1])
    both = compose(b, a, sp)
    assert both.tp_defect() < 1e-9
    rho = random_density(4, rng)
    out = apply(both, rho, sp)
    assert np.min(np.linalg.eigvalsh(out)) > -1e-9
    assert abs(np.trace(out).real - 1.0) < 1e-9
