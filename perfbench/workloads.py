"""The three benchmark workloads.

Each workload has a `setup(workdir)` that builds the instances and writes
the problem files it needs, and an `op(ctx, seed, rec)` that makes one full
pass. Every call into qlstab goes through a module attribute
(`states.dicke`, not `from qlstab.states import dicke`), so the tracer's
wrappers see it. `rec.stage(...)` attributes wall time to one of the four
user-facing stages; `rec.check(...)` compares a verdict or certificate with
its expected value and counts a mismatch as a failed op.

Why these workloads:
  fts-vbs6       dense D x D paths at D = 729 through the CLI (`check qls`,
                 `check sss`, `check commuting-projectors`, `synth fts --force`,
                 `simulate`): full-support channel applies, FTS synthesis, the
                 dense QLS path and the JSON circuit format. rfts, lie and
                 mixing stay idle. `--force` skips plan_fts's ugen, which at
                 D = 729 asks for more memory than the machine has.
  rfts-kagome    the kagome CCZ state at 3 x 1 cells (9 qubits, D = 512):
                 local applies in the robustness and commutation checks, the
                 dense QLS path, and the neighbourhood algebras (m = 8 at this
                 size); fts, cli, lie and mixing stay idle. The 2 x 2 patch
                 (D = 4096, 80 s and 2.1 GB per pass) does not fit the
                 benchmark's per-run time budget.
  certify-corpus the acceptance criteria 01-04 and 06-12 plus `qlstab synth
                 rfts` on the 5-cycle graph state: many small-D calls, the
                 iterative QLS path (AKLT cubic graph), ugen, and mixing.
                 Criterion 03 runs the n = 3 chain only and criterion 06
                 samples 40 orders, to keep a pass near 8 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from qlstab import channels as ch
from qlstab import cli
from qlstab import fts as fts_mod
from qlstab import hilbert
from qlstab import lie as lie_mod
from qlstab import mixing as mixing_mod
from qlstab import rfts as rfts_mod
from qlstab import scheduler as sched_mod
from qlstab import states
from qlstab import subspaces as sub_mod
from qlstab import _linalg


def _write_json(path: str, data: dict) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _cli(argv: list[str]) -> tuple[int, dict]:
    """Run `qlstab <argv>` in-process; returns (exit code, JSON report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# fts-vbs6
# ---------------------------------------------------------------------------

def setup_fts_vbs6(workdir: str) -> dict:
    problem = _write_json(os.path.join(workdir, "vbs6.json"),
                          {"state": {"constructor": {"name": "vbs1d", "params": {"n": 6}}}})
    cli.load_problem(problem)
    return {"problem": problem, "circuit": os.path.join(workdir, "vbs6_circuit.json")}


def op_fts_vbs6(ctx: dict, seed: int, rec) -> None:
    p, c, s = ctx["problem"], ctx["circuit"], ["--seed", str(seed)]
    with rec.stage("decide"):
        rc, rep = _cli(["check", "qls", p] + s)
    rec.check("check qls exit", rc, 0)
    rec.check("check qls intersection_dim", rep["certificates"]["intersection_dim"], 1)
    with rec.stage("decide"):
        rc, rep = _cli(["check", "sss", p] + s)
    rec.check("check sss exit", rc, 0)
    rec.check("check sss verdict", rep["verdicts"]["small_schmidt_span"], True)
    with rec.stage("decide"):
        rc, rep = _cli(["check", "commuting-projectors", p] + s)
    # exit code 1 is the CLI's "verdict false": the VBS projectors do not commute
    rec.check("check commuting-projectors exit", rc, 1)
    rec.check("check commuting-projectors verdict", rep["verdicts"]["commuting_projectors"], False)
    with rec.stage("synth"):
        rc, rep = _cli(["synth", "fts", p, "--force", "--circuit", c] + s)
    rec.check("synth fts exit", rc, 0)
    rec.check("synth fts steps", rep["certificates"]["steps"], 9)
    rec.check_below("synth fts final_distance", rep["certificates"]["final_distance"], 1e-8)
    with rec.stage("verify"):
        rc, rep = _cli(["simulate", c, "--problem", p] + s)
    rec.check("simulate exit", rc, 0)
    rec.check("simulate final_rank", rep["certificates"]["final_rank"], 1)
    rec.check_below("simulate final_distance", rep["certificates"]["final_distance"], 1e-8)


# ---------------------------------------------------------------------------
# rfts-kagome
# ---------------------------------------------------------------------------

KAGOME_CELLS = (3, 1)


def setup_rfts_kagome(workdir: str) -> dict:
    return {"inst": states.ccz_kagome(*KAGOME_CELLS)}


def op_rfts_kagome(ctx: dict, seed: int, rec) -> None:
    kag = ctx["inst"]
    witnesses = list(kag.witness_channels)
    with rec.stage("decide"):
        qls = sub_mod.check_qls(kag.psi, kag.neighborhoods, kag.space)
    rec.check("qls", qls.qls, True)
    rec.check("qls intersection_dim", qls.intersection_dim, 1)
    with rec.stage("verify"):
        commute = rfts_mod.channels_commute_pairwise(witnesses, kag.space, seed=seed)
    rec.check_below("pairwise commutator", commute, 1e-9)
    with rec.stage("verify"):
        rob = rfts_mod.verify_robustness(
            witnesses, kag.psi, kag.space, trials=3, n_random_inputs=0,
            distance_exact_limit=256, seed=seed,
        )
    rec.check("robustness passed", rob.passed, True)
    rec.check("robustness orders", rob.orders_run, 4)
    with rec.stage("decide"):
        res = rfts_mod.check_algebraic_rfts(kag.psi, kag.neighborhoods, kag.space, seed=seed)
    rec.check("algebraic rfts", res.ok, True)
    rec.check("factor dims", list(res.factor_dims), [2] * 6)
    with rec.stage("synth"):
        built = rfts_mod.build_rfts_circuit(
            res.factorization, kag.psi, cg=res.coarse, original_space=kag.space, seed=seed
        )
    rec.check("rfts channels", len(built), 6)


# ---------------------------------------------------------------------------
# certify-corpus
# ---------------------------------------------------------------------------

def setup_certify_corpus(workdir: str) -> dict:
    cycle5 = _write_json(os.path.join(workdir, "graph_cycle5.json"),
                         {"state": {"constructor": {"name": "graph-cycle", "params": {"n": 5}}}})
    cli.load_problem(cycle5)
    return {
        "cycle5": cycle5,
        "cycle5_circuit": os.path.join(workdir, "graph_cycle5_circuit.json"),
        "dicke": states.dicke(4, 2),
        "aklt": states.aklt32_cubic(),
        "vbs3": states.vbs_1d(3),
        "graphs": [states.line_graph_state(3), states.line_graph_state(4),
                   states.grid_graph_state(2, 3)],
        "wprod": states.w_product_9(),
        "nonfac": states.nonfactorizable_252(),
        "lines": [states.line_graph_state(n) for n in (3, 4, 5, 6)],
        "ising": states.ising_gibbs(8, 1.0, 1.0),
    }


def _fts_pipeline(inst, seed: int, rec) -> float:
    """plan + synthesize + run from the maximally mixed state; final distance."""
    with rec.stage("synth"):
        plan = fts_mod.plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
        circ, _ = fts_mod.synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
    d = inst.space.total_dim
    with rec.stage("verify"):
        final, _ = ch.run(circ, np.eye(d, dtype=complex) / d, record=False)
        dist = _linalg.trace_distance(final, inst.density())
        ver = fts_mod.verify_fts(circ, inst.psi, trials=2, seed=seed)
    rec.check(f"{inst.name} verify_fts passed", ver.passed, True)
    return dist


def _acceptance_01(ctx, seed, rec):
    inst = ctx["dicke"]
    with rec.stage("decide"):
        row = sub_mod.check_small_schmidt_span(inst.psi, inst.neighborhoods, inst.space).per_neighborhood[0]
        ugen = lie_mod.check_unitary_generation(inst.psi, inst.neighborhoods, inst.space, seed=seed)
    dist = _fts_pipeline(inst, seed, rec)
    with rec.stage("decide"):
        prop4 = sub_mod.check_commuting_projectors(inst.psi, inst.neighborhoods, inst.space)
    rec.check("01 schmidt/neighborhood dims", (row["schmidt_dim"], row["neighborhood_dim"]), (2, 8))
    rec.check("01 ugen", (ugen.ok, ugen.target_dim), (True, 226))
    rec.check_below("01 final distance", dist, 1e-10)
    rec.check_above("01 prop4 commutator", prop4.max_norm, 1e-3)


def _acceptance_02(ctx, seed, rec):
    inst = ctx["aklt"]
    with rec.stage("decide"):
        dims = [sub_mod.schmidt_span(inst.psi, nk, inst.space).dim for nk in inst.neighborhoods]
        qls = sub_mod.check_qls(inst.psi, inst.neighborhoods, inst.space)
    rec.check("02 aklt qls", qls.qls, True)
    rec.check("02 aklt span dims", sorted(set(dims)), [9])


def _acceptance_03(ctx, seed, rec):
    inst = ctx["vbs3"]
    with rec.stage("decide"):
        spans = [sub_mod.schmidt_span(inst.psi, nk, inst.space).dim for nk in inst.neighborhoods]
        ugen = lie_mod.check_unitary_generation(inst.psi, inst.neighborhoods, inst.space, seed=seed)
    dist = _fts_pipeline(inst, seed, rec)
    rec.check("03 vbs3 spans", spans, [2, 2])
    rec.check("03 vbs3 ugen", ugen.ok, True)
    rec.check_below("03 vbs3 final distance", dist, 1e-10)


def _acceptance_04(ctx, seed, rec):
    for inst in ctx["graphs"]:
        with rec.stage("decide"):
            tight_ok = all(
                any(set(ch.kraus_support(c, inst.space)) <= set(nk) for nk in inst.neighborhoods)
                for c in inst.witness_channels
            )
        with rec.stage("verify"):
            rep = rfts_mod.verify_robustness(
                list(inst.witness_channels), inst.psi, inst.space, tol=1e-9, seed=seed
            )
        with rec.stage("decide"):
            pset = sub_mod.canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
            comm = float(np.max(sub_mod.pairwise_projector_commutators(pset)))
        rec.check(f"04 {inst.name} witness supports", tight_ok, True)
        rec.check(f"04 {inst.name} robust exhaustive", (rep.passed, rep.exhaustive), (True, True))
        rec.check_below(f"04 {inst.name} commutator", comm, 1e-9)


# the acceptance test runs 200 random orders (20-30 s); 40 keeps the pass
# within the per-run budget and still makes a few hundred local applies
W_PRODUCT_TRIALS = 40


def _acceptance_06(ctx, seed, rec):
    inst = ctx["wprod"]
    with rec.stage("decide"):
        pset = sub_mod.canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
        comm = float(np.max(sub_mod.pairwise_projector_commutators(pset)))
    with rec.stage("verify"):
        rep = rfts_mod.verify_robustness(
            list(inst.witness_channels), inst.psi, inst.space,
            trials=W_PRODUCT_TRIALS, tol=1e-9, distance_exact_limit=256, exhaustive_limit=1,
            seed=seed,
        )
    with rec.stage("decide"):
        ev, vec = np.linalg.eigh(states.w_product_commuting_hamiltonian(inst))
    kernel_ok = bool(ev[0] < 1e-10 and ev[1] > 0.5
                     and abs(abs(vec[:, 0].conj() @ inst.psi) - 1.0) < 1e-9)
    rec.check_above("06 w-product commutator", comm, 1e-3)
    rec.check("06 w-product robust", (rep.passed, rep.orders_run), (True, W_PRODUCT_TRIALS + 1))
    rec.check("06 w-product kernel", kernel_ok, True)


def _acceptance_07(ctx, seed, rec):
    inst = ctx["nonfac"]
    e1, e2 = inst.witness_channels
    with rec.stage("verify"):
        s12 = ch.superoperator(ch.compose(e1, e2, inst.space), inst.space)
        s21 = ch.superoperator(ch.compose(e2, e1, inst.space), inst.space)
    reset = np.outer(np.outer(inst.psi, inst.psi.conj()).reshape(-1), np.eye(20).reshape(-1).conj())
    rec.check_below("07 superoperator defect 12", float(np.max(np.abs(s12 - reset))), 1e-9)
    rec.check_below("07 superoperator defect 21", float(np.max(np.abs(s21 - reset))), 1e-9)


def _acceptance_08(ctx, seed, rec):
    with rec.stage("synth"):
        chain, lay_chain = sched_mod.layer_generic(sched_mod.chain_next_nn(9))
        kag, lay_kag = sched_mod.layer_generic(sched_mod.kagome_lattice(2, 2))
        g2d, lay_g2d = sched_mod.layer_graph2d(sched_mod.square_cross(5))
    with rec.stage("decide"):
        reps = [sched_mod.depth_report(chain, lay_chain), sched_mod.depth_report(kag, lay_kag),
                sched_mod.depth_report(g2d, lay_g2d)]
    rec.check("08 depths", (lay_chain.depth, lay_kag.depth, lay_g2d.depth), (3, 12, 5))
    rec.check("08 certificates", all(r.disjoint_ok and r.coverage_ok for r in reps), True)


def _acceptance_09(ctx, seed, rec):
    ts = [1.5, 2.5, 4.0, 6.0]
    with rec.stage("mix"):
        fams = [mixing_mod.CommutingResetFamily(list(i.witness_channels), i.space, i.psi)
                for i in ctx["lines"]]
        rep = mixing_mod.rapid_mixing_check(fams, ts=ts, seed=seed)
        additivity_ok = True
        for fam in fams[:2]:
            for t in ts:
                whole = fam.eta_sample(t, seed=seed).lower
                parts = sum(fam.eta_single_channel(k, t, seed=seed) for k in range(len(fam.channels)))
                additivity_ok &= whole <= parts + 1e-6
    rec.check_above("09 gamma", rep.gamma, 0.95 - 1e-12)
    rec.check_below("09 delta", rep.delta, 1.1 + 1e-12)
    rec.check("09 additivity", bool(additivity_ok), True)


def _acceptance_10(ctx, seed, rec):
    with rec.stage("mix"):
        rep = mixing_mod.no_go_probe(mixing_mod.amplitude_damping_liouvillian(1.0),
                                     np.array([1.0, 0.0], dtype=complex), np.linspace(0.0, 10.0, 41))
    rec.check_above("10 no-go min distance", rep.min_distance, 1e-6)
    rec.check("10 no-go monotone", rep.monotone, True)


def _acceptance_11(ctx, seed, rec):
    inst = ctx["lines"][3]
    with rec.stage("decide"):
        probe = rfts_mod.correlation_probe(inst.psi, [0], [5], inst.space, nstruct=inst.neighborhoods)
        exp_a = set(hilbert.neighborhood_expansion(inst.neighborhoods, [0]))
        b_region = [i for i in range(6) if i not in exp_a][-2:]
        val = rfts_mod.cmi(inst.psi, [0], b_region, sorted(exp_a - {0}), inst.space)
        dep = ch.make_channel(
            [np.eye(2, dtype=complex) / 2, np.array([[0, 1], [1, 0]]) / 2,
             np.array([[0, -1j], [1j, 0]]) / 2, np.diag([1.0, -1.0]) / 2],
            [0], label="depolarize",
        )
        rec_rep = rfts_mod.recoverability_probe(list(inst.witness_channels), inst.psi, [0], dep, inst.space)
        cov = states.ising_zz_covariance(ctx["ising"], 0, 5)
    rec.check("11 expansions disjoint", probe.expansions_disjoint, True)
    rec.check_below("11 covariance", probe.max_abs_covariance, 1e-8)
    rec.check_below("11 cmi", val, 1e-8)
    rec.check("11 recovered", rec_rep.recovered, True)
    rec.check_above("11 ising covariance", abs(cov), 1e-3)


def _acceptance_12(ctx, seed, rec):
    rng = np.random.default_rng(seed)
    with rec.stage("decide"):
        inst = ctx["lines"][0]
        worst = 0.0
        for k, c in enumerate(inst.witness_channels):
            pk = sub_mod.extended_schmidt_span(inst.psi, inst.neighborhoods[k], inst.space).projector()
            for _ in range(3):
                rho = _linalg.random_density(8, rng)
                diff = pk @ ch.apply(c, rho, inst.space) @ pk - pk @ rho @ pk
                worst = min(float(np.min(np.linalg.eigvalsh(diff))), worst)
        viol = 0.0
        for _ in range(25):
            r1, r2 = rng.integers(1, 6, size=2)
            p1b = _linalg.orthonormal_columns(rng.normal(size=(7, r1)) + 1j * rng.normal(size=(7, r1)))
            p2b = _linalg.orthonormal_columns(rng.normal(size=(7, r2)) + 1j * rng.normal(size=(7, r2)))
            p1, p2 = p1b @ p1b.conj().T, p2b @ p2b.conj().T
            inter = sub_mod.intersect([sub_mod.Subspace(p1b), sub_mod.Subspace(p2b)])
            c = p1 @ p2 - p2 @ p1
            rhs = inter.dim + 0.5 * float(np.trace(c.conj().T @ c).real)
            viol = max(viol, rhs - float(np.trace(p1 @ p2).real))
        sp = hilbert.MultipartiteSpace([2, 3, 2])
        v = rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))
        v[:, 2, :] = 0
        v = v.reshape(-1) / np.linalg.norm(v)
        pk = sub_mod.extended_schmidt_span(v, [0, 1], sp).projector()
        k_state = _kernel_projector(hilbert.partial_trace(np.outer(v, v.conj()), [1], sp))
        k_proj = _kernel_projector(hilbert.partial_trace(pk, [1], sp))
        kernel_gap = float(np.max(np.abs(k_state - k_proj)))
        ugen_qls = True
        for item in (ctx["dicke"], ctx["vbs3"], ctx["lines"][0]):
            ugen = lie_mod.check_unitary_generation(item.psi, item.neighborhoods, item.space, seed=seed)
            if ugen.ok:
                ugen_qls &= sub_mod.check_qls(item.psi, item.neighborhoods, item.space).qls
        stab_dims = [lie_mod.stabilizer_algebra(_linalg.random_pure(d, rng)).dim for d in (3, 5, 8)]
    rec.check_above("12 invariance-output min eig", worst, -1e-8)
    rec.check_below("12 trace inequality violation", viol, 1e-8)
    rec.check_below("12 subsystem-kernel gap", kernel_gap, 1e-8)
    rec.check("12 ugen implies qls", bool(ugen_qls), True)
    rec.check("12 stabilizer dims", stab_dims, [(d - 1) ** 2 + 1 for d in (3, 5, 8)])


def _kernel_projector(m):
    ev, vec = np.linalg.eigh(m)
    keep = ev < 1e-10 * max(1.0, ev.max())
    return vec[:, keep] @ vec[:, keep].conj().T


def _synth_rfts_cycle5(ctx, seed, rec):
    with rec.stage("synth"):
        rc, rep = _cli(["synth", "rfts", ctx["cycle5"], "--circuit", ctx["cycle5_circuit"],
                        "--seed", str(seed)])
    rec.check("synth rfts cycle5 exit", rc, 0)
    rec.check("synth rfts cycle5 factor dims", rep["certificates"]["factor_dims"], [2] * 5)


CERTIFY_STEPS = (
    _acceptance_01, _acceptance_02, _acceptance_03, _acceptance_04, _acceptance_06,
    _acceptance_07, _acceptance_08, _acceptance_09, _acceptance_10, _acceptance_11,
    _acceptance_12, _synth_rfts_cycle5,
)


def op_certify_corpus(ctx: dict, seed: int, rec) -> None:
    for step in CERTIFY_STEPS:
        step(ctx, seed, rec)


def op_oom_probe(ctx: dict, seed: int, rec) -> None:
    """`synth fts` without `--force`: plan_fts runs ugen at D = 729, which
    asks for more memory than the child may use. Only the self-check runs it."""
    with rec.stage("synth"):
        rc, _ = _cli(["synth", "fts", ctx["problem"], "--circuit", ctx["circuit"],
                      "--seed", str(seed)])
    rec.check("synth fts exit", rc, 0)


WORKLOADS = {
    "fts-vbs6": (setup_fts_vbs6, op_fts_vbs6),
    "rfts-kagome": (setup_rfts_kagome, op_rfts_kagome),
    "certify-corpus": (setup_certify_corpus, op_certify_corpus),
    "oom-probe": (setup_fts_vbs6, op_oom_probe),
}
