import numpy as np
import pytest

from qlstab import channels as ch
from qlstab import states
from qlstab._linalg import random_density, random_pure, trace_distance
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
    unitary_channel,
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

    @pytest.mark.parametrize("dims, support, kind", [
        pytest.param([2, 3, 2], [0, 2], "unitary", id="unitary-02-of-232"),
        pytest.param([2, 3, 2], [1], "reset", id="reset-1-of-232"),
        pytest.param([2, 3, 2, 3], [1, 3], "reset", id="reset-13-of-2323"),
        pytest.param([2, 3, 2, 3], [3, 0], "three", id="three-03-of-2323"),
        pytest.param([3, 2, 2], [0, 1, 2], "three", id="three-full-of-322"),
    ])
    def test_local_apply_matches_embedded(self, rng, dims, support, kind):
        sp = MultipartiteSpace(dims)
        m = sp.dim_of(support)
        rho = random_density(sp.total_dim, rng)
        if kind == "reset":
            c = reset_channel(random_pure(m, rng), support)
            assert len(c.kraus) == m
        else:
            nk = 1 if kind == "unitary" else 3
            g = rng.normal(size=(nk * m, m)) + 1j * rng.normal(size=(nk * m, m))
            v, _ = np.linalg.qr(g)
            c = make_channel([v[i * m:(i + 1) * m] for i in range(nk)], support)
        expected = np.zeros_like(rho)
        for k in c.kraus:
            big = embed(RegionOperator(k, support), sp)
            expected += big @ rho @ big.conj().T
        assert trace_distance(apply(c, rho, sp), expected) < 1e-10

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

    def test_cap(self):
        sp = uniform_space(4)
        with pytest.raises(ch.CapExceeded):
            superoperator(unitary_channel(np.eye(16), list(range(4))), sp, max_side=8)


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



class TestFramedRun:
    def test_permutation_and_monomial_channel_match_dense(self, rng):
        # frame = computational basis of three qubits, in a shuffled order;
        # the local channels are monomial in any such frame
        sp = uniform_space(3)
        frame = ch.Frame(np.eye(8, dtype=complex)[:, rng.permutation(8)])
        perm = rng.permutation(8)
        steps = (
            unitary_channel(X, [1]),
            ch.permutation_step(perm, frame, sp, label="P"),
            reset_channel(np.array([1.0, 0.0]), [2]),
            make_channel([np.diag([1.0, 0.0]), np.array([[0, 0], [0, 1j]])], [0]),
        )
        rho0 = random_density(8, rng)
        framed, traj = run(Circuit(steps, sp), rho0, target=np.eye(8)[0])
        b = frame.basis
        dense = [unitary_channel(b[:, perm] @ b.conj().T, range(3)) if s is steps[1] else s
                 for s in steps]
        ref, ref_traj = run(Circuit(tuple(dense), sp), rho0, target=np.eye(8)[0])
        assert np.max(np.abs(framed - ref)) < 1e-12
        assert [p.rank for p in traj] == [p.rank for p in ref_traj]
        assert ch.frame_defect(Circuit(steps, sp)) == 0.0

    def test_non_monomial_channel_rejected(self, rng):
        from qlstab._linalg import random_unitary

        sp = uniform_space(2)
        frame = ch.Frame(random_unitary(4, rng))
        circ = Circuit((ch.permutation_step([1, 0, 2, 3], frame, sp), unitary_channel(X, [0])), sp)
        with pytest.raises(ChannelError, match="monomial"):
            run(circ, np.eye(4) / 4)

    def test_non_unitary_frame_rejected(self):
        sp = uniform_space(2)
        circ = Circuit((ch.permutation_step([0, 1, 2, 3], ch.Frame(2 * np.eye(4)), sp),), sp)
        with pytest.raises(ChannelError, match="unitary"):
            run(circ, np.eye(4) / 4)

    def test_two_frames_rejected(self):
        sp = uniform_space(2)
        steps = tuple(ch.permutation_step([0, 1, 2, 3], ch.Frame(np.eye(4)), sp) for _ in range(2))
        with pytest.raises(ChannelError, match="frame"):
            run(Circuit(steps, sp), np.eye(4) / 4)

    @pytest.mark.parametrize("perm", [[0, 0, 1, 2], [1, 2, 3, 4], [0, 1, 2], [0.0, 1.0, 2.0, 3.0]])
    def test_bad_permutation_rejected(self, perm):
        with pytest.raises(ChannelError):
            ch.permutation_step(perm, ch.Frame(np.eye(4)), uniform_space(2))

    def test_generic_apply_refuses_permutation_step(self):
        sp = uniform_space(2)
        step = ch.permutation_step([0, 1, 2, 3], ch.Frame(np.eye(4)), sp)
        with pytest.raises(ChannelError):
            apply(step, np.eye(4) / 4, sp)
        with pytest.raises(ChannelError):
            ch.apply_to_pure(step, np.eye(4)[0], sp)

from hypothesis import given, settings, strategies as st


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_compose_preserves_cptp(seed, n_kraus):
    rng = np.random.default_rng(seed)
    sp = uniform_space(2)
    # random channel from a Haar isometry, split into n_kraus pieces
    from qlstab._linalg import random_unitary

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
