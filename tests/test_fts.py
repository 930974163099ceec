from dataclasses import replace

import numpy as np
import pytest

from helpers import basis_state, cool_schedule, drawn_input_distance, drawn_inputs, remainder_dim
from qlstab import channels as ch
from qlstab import fts, states
from qlstab._linalg import random_density, trace_distance
from qlstab.channels import Circuit, apply, check_invariance, superoperator
from qlstab.fts import (
    FtsError,
    cooling_map,
    plan_fts,
    synthesize_fts,
    verify_fts,
)
from qlstab.hilbert import NeighborhoodStructure, uniform_space
from qlstab.subspaces import check_qls


class TestPlan:
    def test_dicke_plan(self):
        inst = states.dicke(4, 2)
        frame = plan_fts(inst.psi, inst.neighborhoods, inst.space)
        assert frame.schmidt_dim == 2
        assert frame.copies == 4  # floor(8/2)
        assert remainder_dim(frame) == 0
        assert frame.region == tuple(inst.neighborhoods[0])  # tie-break lowest index

    def test_vbs3_plan(self):
        inst = states.vbs_1d(3)
        frame = plan_fts(inst.psi, inst.neighborhoods, inst.space)
        assert frame.schmidt_dim == 2
        assert frame.copies == 4  # floor(9/2)
        assert remainder_dim(frame) == 1

    def test_product_rate_is_local_dim(self):
        sp = uniform_space(2, 3)
        psi = np.kron([1, 0, 0], [0, 1, 0]).astype(complex)
        frame = plan_fts(psi, NeighborhoodStructure([[0], [1]]), sp, force=True)
        assert frame.schmidt_dim == 1
        assert frame.copies == 3

    def test_aklt_refused(self):
        inst = states.aklt32_cubic()
        with pytest.raises(FtsError):
            plan_fts(inst.psi, inst.neighborhoods, inst.space, force=False)

    def test_basis_order_unitary_and_psi_first(self):
        inst = states.dicke(4, 2)
        b = plan_fts(inst.psi, inst.neighborhoods, inst.space).basis
        assert np.max(np.abs(b.conj().T @ b - np.eye(16))) < 1e-12
        assert np.max(np.abs(b[:, 0] - inst.psi)) < 1e-12


class TestCoolingMap:
    def test_invariance(self):
        inst = states.dicke(4, 2)
        w = cooling_map(plan_fts(inst.psi, inst.neighborhoods, inst.space))
        rep = check_invariance(w, inst.psi, inst.space)
        assert rep.ok

    def test_rank_collapse_on_mixed(self):
        inst = states.dicke(4, 2)
        frame = plan_fts(inst.psi, inst.neighborhoods, inst.space)
        w = cooling_map(frame)
        out = apply(w, np.eye(16, dtype=complex) / 16, inst.space)
        # each copy family collapses: rank (s + remainder) * dim(rest)
        expected = (frame.schmidt_dim + remainder_dim(frame)) * 2
        ev = np.linalg.eigvalsh(out)
        assert int(np.sum(ev > 1e-12)) == expected

    def test_paper_kraus_variant_equivalence(self):
        # with the copies pinned to the specific local blocks used in the
        # worked four-qubit example, the cooling map reproduces it exactly
        inst = states.dicke(4, 2)
        sp3 = uniform_space(3)
        s001 = states.symmetric_state([0, 0, 1]).astype(complex)
        s011 = states.symmetric_state([0, 1, 1]).astype(complex)
        w = np.exp(2j * np.pi / 3)

        def omega_state(bits, nu):
            a, b, c = bits

            v = (
                basis_state(sp3, [a, b, c])
                + nu * basis_state(sp3, [b, c, a])
                + nu**2 * basis_state(sp3, [c, a, b])
            )
            return v / np.sqrt(3)

        blocks = np.stack(
            [
                s001,
                s011,
                basis_state(sp3, [0, 0, 0]),
                basis_state(sp3, [1, 1, 1]),
                omega_state([0, 0, 1], w),
                omega_state([0, 1, 1], w),
                omega_state([0, 0, 1], w**2),
                omega_state([0, 1, 1], w**2),
            ],
            axis=1,
        )
        # Schmidt dimension 2, so 4 copies fill the 8-dimensional neighborhood
        frame = fts._ordered_frame(inst.psi, inst.neighborhoods[0], inst.space, blocks, 2, 4)
        ours = cooling_map(frame)
        k_paper = [
            np.outer(s001, s001.conj()) + np.outer(s011, s011.conj()),
            np.outer(s001, basis_state(sp3, [0, 0, 0]).conj())
            + np.outer(s011, basis_state(sp3, [1, 1, 1]).conj()),
            np.outer(s001, omega_state([0, 0, 1], w).conj())
            + np.outer(s011, omega_state([0, 1, 1], w).conj()),
            np.outer(s001, omega_state([0, 0, 1], w**2).conj())
            + np.outer(s011, omega_state([0, 1, 1], w**2).conj()),
        ]
        theirs = ch.make_channel(k_paper, [0, 1, 2], label="W-paper")
        sa = superoperator(ours, inst.space)
        sb = superoperator(theirs, inst.space)
        assert np.max(np.abs(sa - sb)) < 1e-9


_SCHEDULE_STATES = {
    "dicke": lambda: states.dicke(4, 2),
    **{f"vbs{n}": (lambda n=n: states.vbs_1d(n)) for n in range(3, 8)},
    "line3": lambda: states.line_graph_state(3),
    "ccz-triangle": states.ccz_triangle,
}


class TestSynthesize:
    @pytest.mark.parametrize("name", _SCHEDULE_STATES)
    def test_schedule_matches_hand_written_weights(self, name):
        # the schedule stepped through the cooling map's frame forms, with
        # exact nonzeros, against the hand-written merge of copy families
        # with a 1e-15 cut: the same ranks and the same permutation arrays
        inst = _SCHEDULE_STATES[name]()
        circ, cert = synthesize_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
        ranks, perms = cool_schedule(circ.frame)
        assert list(cert.ranks) == ranks
        ours = [s.perm for s in circ.steps if isinstance(s, ch.PermutationStep)]
        assert len(ours) == len(perms) and all(np.array_equal(a, b) for a, b in zip(ours, perms))

    def test_dicke_circuit(self):
        inst = states.dicke(4, 2)
        plan = plan_fts(inst.psi, inst.neighborhoods, inst.space)
        circ, cert = synthesize_fts(
            inst.psi, inst.neighborhoods, inst.space, plan=plan
        )
        rho = np.eye(16, dtype=complex) / 16
        final, _ = ch.run(circ, rho, record=False)
        assert trace_distance(final, inst.density()) < 1e-10
        assert cert.ranks[-1] == 1
        assert all(a > b for a, b in zip(cert.ranks, cert.ranks[1:]))

    def test_dicke_unitaries_fix_target(self, densify):
        inst = states.dicke(4, 2)
        plan = plan_fts(inst.psi, inst.neighborhoods, inst.space)
        circ, _ = synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
        for step in densify(circ):
            rep = check_invariance(step, inst.psi, inst.space)
            assert rep.ok, (step.label, rep.defect)

    def test_vbs3_three_cooling_rounds(self):
        inst = states.vbs_1d(3)
        plan = plan_fts(inst.psi, inst.neighborhoods, inst.space)
        circ, cert = synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
        assert len(cert.ranks) <= 3
        rho = np.eye(27, dtype=complex) / 27
        final, _ = ch.run(circ, rho, record=False)
        assert trace_distance(final, inst.density()) < 1e-10

    def test_target_input_unchanged(self):
        inst = states.dicke(4, 2)
        plan = plan_fts(inst.psi, inst.neighborhoods, inst.space)
        circ, _ = synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
        final, _ = ch.run(circ, inst.density(), record=False)
        assert trace_distance(final, inst.density()) < 1e-10


class TestVerify:
    def test_dicke_passes(self):
        inst = states.dicke(4, 2)
        plan = plan_fts(inst.psi, inst.neighborhoods, inst.space)
        circ, _ = synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
        rep = verify_fts(circ, inst.psi)
        assert rep.passed
        assert rep.max_final_distance < 1e-10
        # trials and seed are accepted and not read: the proof draws nothing
        assert verify_fts(circ, inst.psi, trials=3, seed=9) == rep

    def test_truncated_circuit_fails(self):
        inst = states.dicke(4, 2)
        plan = plan_fts(inst.psi, inst.neighborhoods, inst.space)
        circ, _ = synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
        truncated = replace(circ, steps=circ.steps[:-1])
        assert truncated.frame is circ.frame
        rep = verify_fts(truncated, inst.psi)
        assert not rep.passed
        # its final occupied set is not the target's
        assert len(rep.final_occupied) > 1

    def test_identity_circuit_not_attractive(self):
        # the empty circuit on the Dicke frame leaves I/D, and every frame
        # vector, where it is
        inst = states.dicke(4, 2)
        circ = Circuit((), inst.space, plan_fts(inst.psi, inst.neighborhoods, inst.space))
        rep = verify_fts(circ, inst.psi)
        assert not rep.passed
        assert rep.final_occupied == tuple(range(16))
        assert rep.tp_defect == 0.0 and rep.worst_input_bound == rep.max_final_distance
        # the drawn-input oracle agrees, without the frame
        assert drawn_input_distance(Circuit((), inst.space), inst.psi, trials=1) > 1e-8

    def test_frameless_circuit_refused(self):
        inst = states.dicke(4, 2)
        w = cooling_map(plan_fts(inst.psi, inst.neighborhoods, inst.space))
        for steps in ((), (w,)):
            with pytest.raises(ch.ChannelError, match="frame"):
                verify_fts(Circuit(steps, inst.space), inst.psi)

    def test_fts_implies_qls(self):
        for inst in (states.dicke(4, 2), states.vbs_1d(3)):
            plan = plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
            circ, _ = synthesize_fts(
                inst.psi, inst.neighborhoods, inst.space, plan=plan
            )
            rep = verify_fts(circ, inst.psi)
            assert rep.passed
            assert check_qls(inst.psi, inst.neighborhoods, inst.space).qls


def _fts_circuit(inst):
    plan = plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
    circ, _ = synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
    return circ


class TestFramedRun:
    """The framed run against the dense path: every permutation step as the
    D x D unitary B[:, perm] @ B^H, every step through `channels.apply`."""

    def _compare(self, inst, densify):
        circ = _fts_circuit(inst)
        assert circ.frame is not None
        assert sum(isinstance(s, ch.PermutationStep) for s in circ.steps) == len(circ) // 2
        d = inst.space.total_dim
        target = inst.density()
        for rho0 in (np.eye(d, dtype=complex) / d, random_density(d, np.random.default_rng(11))):
            framed, traj = ch.run(circ, rho0, target=inst.psi)
            rho = rho0
            ranks = [ch.state_rank(rho)]
            dists = [trace_distance(rho, target)]
            for step in densify(circ):
                rho = apply(step, rho, inst.space)
                ranks.append(ch.state_rank(rho))
                dists.append(trace_distance(rho, target))
            assert np.max(np.abs(framed - rho)) < 1e-10
            assert [p.rank for p in traj] == ranks
            assert np.max(np.abs(np.array([p.trace_distance for p in traj]) - dists)) < 1e-10

    def test_dicke(self, densify):
        self._compare(states.dicke(4, 2), densify)

    @pytest.mark.parametrize("n", [3, 4])
    def test_vbs(self, n, densify):
        self._compare(states.vbs_1d(n), densify)

    def test_vbs6(self, densify):
        # D = 729: about 4 s on 2 cores, so not marked slow
        self._compare(states.vbs_1d(6), densify)

    def test_frame_defect_small(self):
        circ = _fts_circuit(states.vbs_1d(4))
        assert ch.frame_defect(circ) < 1e-12

    def test_shuffled_steps_match_dense(self, densify):
        inst = states.dicke(4, 2)
        circ = _fts_circuit(inst)
        order = np.random.default_rng(5).permutation(len(circ))
        shuffled = replace(circ, steps=tuple(circ.steps[i] for i in order))
        assert shuffled.frame is circ.frame
        rho0 = random_density(16, np.random.default_rng(6))
        framed, _ = ch.run(shuffled, rho0, record=False)
        dense, _ = ch.run(Circuit(tuple(densify(shuffled)), circ.space), rho0, record=False)
        assert np.max(np.abs(framed - dense)) < 1e-10


_FRAMED_STATES = [lambda: states.dicke(4, 2), lambda: states.vbs_1d(3), lambda: states.vbs_1d(4),
                  lambda: states.vbs_1d(6)]
_FRAMED_IDS = ["dicke", "vbs3", "vbs4", "vbs6"]


class TestFactoredFrame:
    """The FTS frame held as its factors: the factored products against the
    dense B that `Frame.basis` builds, and B against its definition."""

    @pytest.mark.parametrize("make", _FRAMED_STATES, ids=_FRAMED_IDS)
    def test_basis_unitary_psi_first_and_apply_matches(self, make):
        inst = make()
        frame = plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
        d = inst.space.total_dim
        b = frame.basis
        assert np.max(np.abs(b.conj().T @ b - np.eye(d))) < 1e-12
        assert np.max(np.abs(b[:, 0] - inst.psi)) < 1e-12
        assert frame.unitary_defect < 1e-12
        x = random_density(d, np.random.default_rng(2))[:, :7]
        assert np.max(np.abs(frame.apply(x) - b @ x)) < 1e-12
        assert np.max(np.abs(frame.apply(x, adjoint=True) - b.conj().T @ x)) < 1e-12

    @pytest.mark.parametrize("make", _FRAMED_STATES[:3], ids=_FRAMED_IDS[:3])
    def test_basis_matches_column_formula(self, make):
        # column alpha r + i is copy i of the alpha-th vector of the psi-led
        # basis Q of the (Schmidt span) x (rest) coordinates; the remainder
        # columns follow, one per (remainder vector, rest index)
        from qlstab import hilbert

        inst = make()
        frame = plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
        s, r, loc, c0 = frame.schmidt_dim, frame.copies, frame.local, frame.psi_coords
        m, n = loc.shape[0], c0.size
        rest = inst.space.total_dim // m
        phase = c0[0] / abs(c0[0]) if c0[0] != 0 else 1.0
        w = np.conj(phase) * c0 + np.eye(n)[0]
        q = -phase * (np.eye(n) - 2 * np.outer(w, w.conj()) / np.vdot(w, w).real)
        assert np.max(np.abs(q[:, 0] - c0)) < 1e-14
        cols = [(loc[:, i * s:(i + 1) * s] @ q[:, a].reshape(s, rest)).reshape(-1)
                for a in range(n) for i in range(r)]
        cols += [np.kron(loc[:, r * s + j], np.eye(rest)[k]) for j in range(m - r * s) for k in range(rest)]
        ref = hilbert.from_front(np.stack(cols, 1).reshape(m, rest, -1), frame.region, inst.space)
        assert np.max(np.abs(frame.basis - ref)) < 1e-13


def _framed_final(circ, rho):
    return ch.run_framed(circ, circ.frame.rotate_in(rho), record=False)[0]


class TestOccupiedSetProof:
    """The occupied-set proof of `verify_fts` against drawn inputs run through
    the framed circuit: every drawn final lies on the proved occupied set and
    within the proved bound, and a circuit, channel or target that breaks a
    hypothesis fails."""

    @pytest.mark.parametrize("make", _FRAMED_STATES, ids=_FRAMED_IDS)
    def test_drawn_inputs_inside_proof(self, make):
        inst = make()
        circ = _fts_circuit(inst)
        rep = verify_fts(circ, inst.psi)
        assert rep.passed and rep.final_occupied == (0,)
        assert rep.max_final_distance <= rep.worst_input_bound < 1e-12
        assert 0.0 <= rep.tp_defect < 1e-12 and rep.frame_defect == ch.frame_defect(circ)
        for rho in drawn_inputs(inst.space.total_dim, 2, 7):
            assert set(ch.occupied(_framed_final(circ, rho))) <= set(rep.final_occupied)
            dist = ch.run(circ, rho, target=inst.psi, record=False)[1][-1].trace_distance
            assert dist <= rep.worst_input_bound
            assert abs(dist - rep.max_final_distance) < 1e-14

    def test_occupied_sets_shrink_to_target_on_vbs6(self):
        # the final occupied set of each prefix, which keeps the circuit's
        # frame; only the whole circuit passes
        inst = states.vbs_1d(6)
        circ = _fts_circuit(inst)
        reps = [verify_fts(replace(circ, steps=circ.steps[:k]), inst.psi) for k in range(1, len(circ) + 1)]
        assert [len(r.final_occupied) for r in reps] == [243, 243, 61, 61, 16, 16, 4, 4, 1]
        assert reps[-1].final_occupied == (0,)
        assert [r.passed for r in reps] == [False] * 8 + [True]

    def test_occupied_set_decides_where_id_distance_does_not(self):
        # without its last cooling step the I/D distance is 0.75, below a
        # loose tol = 1, but twelve of the sixteen frame vectors end
        # orthogonal to psi; the final occupied set {0, 1, 2, 3} shows it
        inst = states.dicke(4, 2)
        circ = _fts_circuit(inst)
        truncated = replace(circ, steps=circ.steps[:-1])
        rep = verify_fts(truncated, inst.psi, tol=1.0)
        assert rep.worst_input_bound < 1.0 and not rep.passed
        assert rep.final_occupied == (0, 1, 2, 3)
        b = circ.frame.basis
        dists = [ch.run(truncated, np.outer(v, v.conj()), target=inst.psi, record=False)[1][-1].trace_distance
                 for v in b.T]
        assert max(dists) > 1.0 - 1e-12

    def test_scaled_kraus_trip_tp_defect(self):
        # Kraus operators scaled by 1 - 1e-6 lose 2e-6 of the trace per
        # cooling step; make_channel would refuse them, so they are set directly
        inst = states.dicke(4, 2)
        circ = _fts_circuit(inst)
        steps = tuple(
            replace(s, kraus=tuple((1 - 1e-6) * k for k in s.kraus)) if isinstance(s, ch.Channel) else s
            for s in circ.steps
        )
        lossy = replace(circ, steps=steps)
        rep = verify_fts(lossy, inst.psi)
        n_w = sum(isinstance(s, ch.Channel) for s in steps)
        assert not rep.passed and rep.final_occupied == (0,)
        assert abs(rep.tp_defect - (1 - (1 - 1e-6) ** 2)) < 1e-12
        # half of (1 + delta)^n - (1 - delta)^n is n delta to first order
        assert rep.worst_input_bound == pytest.approx(rep.max_final_distance + n_w * rep.tp_defect, rel=1e-9)
        assert drawn_input_distance(lossy, inst.psi, trials=2, seed=8) <= rep.worst_input_bound

    def test_wrong_target_fails(self):
        inst = states.dicke(4, 2)
        circ = _fts_circuit(inst)
        wrong = states.dicke(4, 1).psi
        rep = verify_fts(circ, wrong)
        assert not rep.passed and rep.final_occupied == (0,)
        assert rep.max_final_distance > 0.5


class TestFinalPoint:
    """The final trajectory point that a run with a target returns, and the
    verification distances read from it."""

    @pytest.mark.parametrize("make, build", [
        (lambda: states.dicke(4, 2), _fts_circuit),
        (lambda: states.vbs_1d(3), _fts_circuit),
        (lambda: states.line_graph_state(3), lambda inst: Circuit(inst.witness_channels, inst.space)),
    ], ids=["dicke-framed", "vbs3-framed", "line3-unframed"])
    def test_unrecorded_run_returns_last_point(self, make, build):
        inst = make()
        circ = build(inst)
        rho0 = random_density(inst.space.total_dim, np.random.default_rng(3))
        final, traj = ch.run(circ, rho0, target=inst.psi)
        final2, last = ch.run(circ, rho0, target=inst.psi, record=False)
        assert last == [traj[-1]]
        assert np.array_equal(final, final2)
        assert ch.run(circ, rho0, record=False)[1] == []

    @pytest.mark.parametrize("make", [lambda: states.dicke(4, 2), lambda: states.vbs_1d(3),
                                      lambda: states.vbs_1d(4)], ids=["dicke", "vbs3", "vbs4"])
    def test_verify_matches_distance_of_rotated_out_state(self, make):
        inst = make()
        circ = _fts_circuit(inst)
        rep = verify_fts(circ, inst.psi)
        inputs = drawn_inputs(inst.space.total_dim, 2, 4)
        finals = [ch.run(circ, rho, record=False)[0] for rho in inputs]
        worst = max(trace_distance(f, inst.density()) for f in finals)
        assert abs(rep.max_final_distance - worst) < 1e-14


class TestDiagonalRun:
    """`run_diagonal` on the weight vector of I/D against `run_framed` on the
    dense framed I/D, the exact diagonal 1/D."""

    @pytest.mark.parametrize("make", _FRAMED_STATES, ids=_FRAMED_IDS)
    def test_matches_framed_run(self, make):
        inst = make()
        circ = _fts_circuit(inst)
        d = inst.space.total_dim
        rho0, p0 = np.eye(d, dtype=complex) / d, np.full(d, 1.0 / d)
        for k in range(len(circ) + 1):
            prefix = replace(circ, steps=circ.steps[:k])
            dense = ch.run_framed(prefix, rho0, record=False)[0]
            diag = ch.run_diagonal(prefix, p0, record=False)[0]
            assert np.array_equal(ch.occupied(dense), np.flatnonzero(diag))
            assert np.max(np.abs(np.diag(dense) - diag)) <= 1e-15
        target = circ.frame.apply(inst.psi, adjoint=True)
        dense_traj = ch.run_framed(circ, rho0, target)[1]
        diag_traj = ch.run_diagonal(circ, p0, target)[1]
        assert len(diag_traj) == len(circ) + 1
        assert [p.rank for p in diag_traj] == [p.rank for p in dense_traj]
        dists = np.array([[a.trace_distance, b.trace_distance] for a, b in zip(dense_traj, diag_traj)])
        assert np.max(np.abs(dists[:, 0] - dists[:, 1])) <= 1e-14

    def test_unrecorded_run_returns_last_point(self):
        inst = states.vbs_1d(3)
        circ = _fts_circuit(inst)
        p0 = np.full(27, 1.0 / 27)
        target = circ.frame.apply(inst.psi, adjoint=True)
        final, traj = ch.run_diagonal(circ, p0, target)
        final2, last = ch.run_diagonal(circ, p0, target, record=False)
        assert last == [traj[-1]] and np.array_equal(final, final2)
        assert ch.run_diagonal(circ, p0, record=False)[1] == []
        assert ch.diagonal_rank(final) == traj[-1].rank == 1

    def test_needs_frame_and_matching_length(self):
        inst = states.dicke(4, 2)
        with pytest.raises(ch.ChannelError):
            ch.run_diagonal(Circuit((), inst.space), np.full(16, 1.0 / 16))
        with pytest.raises(ch.ChannelError):
            ch.run_diagonal(_fts_circuit(inst), np.full(15, 1.0 / 15))

    def test_verify_forms_no_dense_state(self, monkeypatch):
        # the proof path runs I/D as its weight vector: no D x D framed run,
        # no rotation into the frame
        inst = states.vbs_1d(4)
        circ = _fts_circuit(inst)

        def refuse(*args, **kwargs):
            raise AssertionError("dense framed run")

        monkeypatch.setattr(ch, "run_framed", refuse)
        monkeypatch.setattr(ch.Frame, "rotate_in", refuse)
        rep = verify_fts(circ, inst.psi)
        assert rep.passed and rep.final_occupied == (0,)
