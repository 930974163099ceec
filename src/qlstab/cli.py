"""Command-line interface: JSON problem/report files and the reproduction
harness for the worked examples.

External formats use 1-based subsystem indices; complex numbers are [re, im]
pairs; matrices are row-major. Exit codes: 0 pass, 1 verdict-false, 2 input
error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from . import channels as chan_mod
from . import fts as fts_mod
from . import hilbert
from . import lie as lie_mod
from . import mixing as mixing_mod
from . import rfts as rfts_mod
from . import scheduler as sched_mod
from . import states as states_mod
from . import subspaces as sub_mod
from ._linalg import DEFAULT_TOL
from .channels import CapExceeded, Channel, ChannelError, Circuit
from .hilbert import MultipartiteSpace, NeighborhoodStructure


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON encoding of the wire formats
# ---------------------------------------------------------------------------

def _c2j(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _mat2j(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _j2array(data, ndim: int) -> np.ndarray:
    """Nested [re, im] pairs -> complex array with `ndim` axes."""
    try:
        a = np.ascontiguousarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected nested [re, im] pairs: {exc}") from exc
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise InputError(f"expected a {'vector' if ndim == 1 else 'matrix'} of [re, im] pairs, "
                         f"got an array of shape {a.shape}")
    # reinterpret each (re, im) pair in place, bit for bit
    return a.view(complex)[..., 0]


def _j2vec(data) -> np.ndarray:
    return _j2array(data, 1)


def _j2mat(data) -> np.ndarray:
    return _j2array(data, 2)


def channel_to_json(ch: Channel) -> dict:
    return {
        "support": [i + 1 for i in ch.support],
        "kraus": [_mat2j(k) for k in ch.kraus],
        "label": ch.label,
    }


def _parse_support(data, space: MultipartiteSpace) -> list[int]:
    """1-based support list -> 0-based indices, each in range and distinct."""
    n = space.n_subsystems
    if not isinstance(data, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= n for i in data
    ):
        raise InputError(f"support must list integers in 1..{n}, got {data!r}")
    if len(set(data)) != len(data):
        raise InputError(f"support repeats a subsystem: {data!r}")
    return [i - 1 for i in data]


def channel_from_json(data: dict, space: MultipartiteSpace) -> Channel:
    try:
        support = _parse_support(data["support"], space)
        kraus = [_j2mat(k) for k in data["kraus"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed channel object: {exc}") from exc
    m = space.dim_of(support)
    if any(k.shape != (m, m) for k in kraus):
        raise InputError(f"Kraus operators on support {data['support']} must be {m} x {m}")
    return chan_mod.make_channel(kraus, support, label=data.get("label", ""))


def circuit_to_json(circ: Circuit) -> dict:
    """Channel steps carry their Kraus list; permutation steps carry 0-based
    basis indices into the circuit's one `frame`, stored once."""
    out: dict = {"dims": list(circ.space.dims)}
    frame = circ.frame
    if frame is not None:
        out["frame"] = _mat2j(frame.basis)
    out["steps"] = [
        {"permutation": c.perm.tolist(), "label": c.label}
        if isinstance(c, chan_mod.PermutationStep) else channel_to_json(c)
        for c in circ.steps
    ]
    return out


def circuit_from_json(data: dict) -> Circuit:
    try:
        space = MultipartiteSpace(data["dims"])
        steps_data = list(data["steps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed circuit object: {exc}") from exc
    if not all(isinstance(s, dict) for s in steps_data):
        raise InputError("every circuit step must be an object")
    frame = None
    if any("permutation" in s for s in steps_data):
        if "frame" not in data:
            raise InputError("permutation steps need a top-level frame")
        d = space.total_dim
        basis = _j2mat(data["frame"])
        if basis.shape != (d, d):
            raise InputError(f"frame must be {d} x {d}, got {basis.shape[0]} x {basis.shape[1]}")
        frame = chan_mod.Frame(basis)
        if frame.unitary_defect > DEFAULT_TOL.frame:
            raise InputError(f"frame is not unitary, defect {frame.unitary_defect:.3e}")
    steps = []
    for s in steps_data:
        if "permutation" not in s:
            steps.append(channel_from_json(s, space))
            continue
        try:
            steps.append(chan_mod.permutation_step(s["permutation"], frame, space, s.get("label", "")))
        except ValueError as exc:  # ChannelError included
            raise InputError(f"permutation step: {exc}") from exc
    return Circuit(steps=tuple(steps), space=space)


CONSTRUCTORS = {
    "graph-line": lambda p: states_mod.line_graph_state(int(p["n"]), d=int(p.get("d", 2))),
    "graph-grid": lambda p: states_mod.grid_graph_state(int(p["rows"]), int(p["cols"])),
    "graph-cycle": lambda p: states_mod.graph_state(
        int(p["n"]), [(i, (i + 1) % int(p["n"])) for i in range(int(p["n"]))]
    ),
    "graph": lambda p: states_mod.graph_state(
        int(p["n"]), [tuple(int(x) - 1 for x in e) for e in p["edges"]], d=int(p.get("d", 2))
    ),
    "ccz-triangle": lambda p: states_mod.ccz_triangle(),
    "ccz-kagome": lambda p: states_mod.ccz_kagome(int(p.get("cells_x", 2)), int(p.get("cells_y", 2))),
    "ccz-triangular": lambda p: states_mod.triangular_patch(int(p["rows"]), int(p["cols"])),
    "dicke": lambda p: states_mod.dicke(int(p.get("n", 4)), int(p.get("k", 2))),
    "vbs1d": lambda p: states_mod.vbs_1d(int(p["n"])),
    "aklt32-cubic": lambda p: states_mod.aklt32_cubic(),
    "w-product-9": lambda p: states_mod.w_product_9(),
    "nonfactorizable-252": lambda p: states_mod.nonfactorizable_252(),
    "bv-chain": lambda p: states_mod.bv_two_body_example(int(p.get("seed", 3))),
    "gbv-fig4": lambda p: states_mod.gbv_fig4_instance(int(p.get("seed", 5))),
    "graph-gibbs": lambda p: states_mod.graph_gibbs(int(p["n"]), float(p.get("beta", 1.0))),
    "ising-gibbs": lambda p: states_mod.ising_gibbs(
        int(p.get("n", 8)), float(p.get("J", 1.0)), float(p.get("beta", 1.0))
    ),
}


def load_problem(path: str):
    """ProblemFile -> (StateInstance-like bundle). Exactly one state source."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read problem file {path}: {exc}") from exc
    state_spec = data.get("state")
    if not isinstance(state_spec, dict):
        raise InputError("/state: missing object")
    sources = [k for k in ("constructor", "vector", "matrix") if k in state_spec]
    if len(sources) != 1:
        raise InputError("/state: exactly one of constructor|vector|matrix required")
    if sources[0] == "constructor":
        spec = state_spec["constructor"]
        name = spec.get("name")
        if name not in CONSTRUCTORS:
            raise InputError(
                f"/state/constructor/name: unknown '{name}'; known: {sorted(CONSTRUCTORS)}"
            )
        inst = CONSTRUCTORS[name](spec.get("params", {}))
        if "neighborhoods" in data:
            inst = states_mod.StateInstance(
                name=inst.name,
                space=inst.space,
                neighborhoods=_parse_neighborhoods(data["neighborhoods"]),
                psi=inst.psi,
                rho=inst.rho,
                witness_channels=inst.witness_channels,
                metadata=inst.metadata,
            )
        return inst, data.get("options", {})
    if "space" not in data or "dims" not in data["space"]:
        raise InputError("/space/dims: required with an explicit state")
    space = MultipartiteSpace(data["space"]["dims"])
    if "neighborhoods" not in data:
        raise InputError("/neighborhoods: required with an explicit state")
    nstruct = _parse_neighborhoods(data["neighborhoods"])
    psi = rho = None
    if sources[0] == "vector":
        psi = _j2vec(state_spec["vector"])
        if psi.shape[0] != space.total_dim:
            raise InputError("/state/vector: length does not match the space")
        psi = psi / np.linalg.norm(psi)
    else:
        rho = _j2mat(state_spec["matrix"])
        if rho.shape != (space.total_dim, space.total_dim):
            raise InputError("/state/matrix: shape does not match the space")
    inst = states_mod.StateInstance(
        name=data.get("name", "problem"),
        space=space, neighborhoods=nstruct, psi=psi, rho=rho,
    )
    return inst, data.get("options", {})


def _parse_neighborhoods(data) -> NeighborhoodStructure:
    try:
        sets = [[int(i) - 1 for i in nk] for nk in data]
    except (TypeError, ValueError) as exc:
        raise InputError(f"/neighborhoods: {exc}") from exc
    if any(i < 0 for nk in sets for i in nk):
        raise InputError("/neighborhoods: indices are 1-based")
    return NeighborhoodStructure(sets, normalize=True)


def _report(task: str, verdict_true: bool, verdicts: dict, certificates: dict,
            tolerances: dict, seed, t0: float) -> dict:
    return {
        "task": task,
        "pass": bool(verdict_true),
        "verdicts": verdicts,
        "certificates": certificates,
        "tolerances": tolerances,
        "seed": seed,
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "version": __version__,
    }


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, indent=2, default=_json_default)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, complex):
        return _c2j(obj)
    return str(obj)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    t0 = time.perf_counter()
    inst, options = load_problem(args.problem)
    tol = args.tol
    state = inst.psi if inst.psi is not None else inst.rho
    sub = args.what
    if inst.psi is None and sub not in ("correlations", "cmi", "matching-overlap"):
        raise InputError(f"check {sub} needs a pure target state")
    verdicts: dict = {}
    certificates: dict = {}
    tolerances: dict = {"tol": tol}
    if sub == "qls":
        v = sub_mod.check_qls(inst.psi, inst.neighborhoods, inst.space)
        verdicts = {"qls": v.qls}
        certificates = {
            "intersection_dim": v.intersection_dim,
            "contains_target": v.contains_target,
        }
        ok = v.qls
    elif sub == "sss":
        rep = sub_mod.check_small_schmidt_span(inst.psi, inst.neighborhoods, inst.space)
        verdicts = {"small_schmidt_span": rep.satisfied}
        certificates = {"per_neighborhood": [
            {**r, "neighborhood": [i + 1 for i in r["neighborhood"]]}
            for r in rep.per_neighborhood
        ]}
        ok = rep.satisfied
    elif sub == "ugen":
        v = lie_mod.check_unitary_generation(
            inst.psi, inst.neighborhoods, inst.space, seed=args.seed
        )
        verdicts = {"unitary_generation": v.ok}
        certificates = {
            "generated_dim": v.generated_dim,
            "target_dim": v.target_dim,
            "passes": v.passes,
            "method": v.method,
        }
        ok = v.ok
    elif sub == "commuting-projectors":
        v = sub_mod.check_commuting_projectors(
            inst.psi, inst.neighborhoods, inst.space, tol=tol
        )
        verdicts = {"commuting_projectors": v.ok}
        certificates = {"max_commutator_norm": v.max_norm}
        ok = v.ok
    elif sub == "matching-overlap":
        v = sub_mod.check_matching_overlap(inst.neighborhoods)
        verdicts = {"matching_overlap": v.status}
        certificates = {"witness_subset": list(v.witness) if v.witness else None}
        ok = v.status == "satisfied"
    elif sub == "algebraic-rfts":
        res = rfts_mod.check_algebraic_rfts(
            inst.psi, inst.neighborhoods, inst.space, seed=args.seed
        )
        verdicts = {"algebraic_rfts": res.ok, "reason": res.reason}
        merged, split = res.cluster_gaps
        certificates = {
            "factor_dims": list(res.factor_dims),
            "algebra_dims": list(res.algebra_dims),
            "commutation_defect": res.commutation_defect,
            "target_factor_residual": res.target_factor_residual,
            "coarse_groups": [[i + 1 for i in g] for g in res.coarse_groups],
            # smallest_split is null when no clustering split anything
            "cluster_gaps": {
                "largest_merged": merged,
                "smallest_split": split if math.isfinite(split) else None,
            },
        }
        tolerances["cluster_rtol"] = rfts_mod.CLUSTER_RTOL
        ok = res.ok
    elif sub == "matching-overlap-rfts":
        res = rfts_mod.check_matching_overlap_rfts(
            inst.psi, inst.neighborhoods, inst.space, seed=args.seed
        )
        verdicts = {"matching_overlap_rfts": res.ok, "reason": res.reason}
        certificates = {
            "matching_overlap": res.matching_overlap,
            "max_pairwise_commutator": res.max_pairwise_commutator,
        }
        ok = res.ok
    elif sub == "correlations":
        a = [int(i) - 1 for i in options.get("region_a", [1])]
        b = [int(i) - 1 for i in options.get("region_b", [inst.space.n_subsystems])]
        probe = rfts_mod.correlation_probe(
            state, a, b, inst.space, nstruct=inst.neighborhoods
        )
        verdicts = {"uncorrelated": probe.max_abs_covariance < tol}
        certificates = {
            "max_abs_covariance": probe.max_abs_covariance,
            "expansions_disjoint": probe.expansions_disjoint,
        }
        ok = verdicts["uncorrelated"]
    elif sub == "cmi":
        a = [int(i) - 1 for i in options.get("region_a", [1])]
        b = [int(i) - 1 for i in options.get("region_b", [inst.space.n_subsystems])]
        c = options.get("region_c")
        if c is None:
            exp_a = hilbert.neighborhood_expansion(inst.neighborhoods, a)
            c = sorted(set(exp_a) - set(a))
        else:
            c = [int(i) - 1 for i in c]
        val = rfts_mod.cmi(state, a, b, c, inst.space)
        verdicts = {"zero_cmi": val < tol}
        certificates = {"cmi_bits": val, "region_c": [i + 1 for i in c]}
        ok = verdicts["zero_cmi"]
    else:
        raise InputError(f"unknown check subcommand {sub}")
    report = _report(f"check {sub}", ok, verdicts, certificates, tolerances, args.seed, t0)
    _emit(report, args.output)
    return 0 if ok else 1


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    inst, options = load_problem(args.problem)
    if inst.psi is None:
        raise InputError("synthesis needs a pure target state")
    if args.what == "fts":
        try:
            plan = fts_mod.plan_fts(
                inst.psi, inst.neighborhoods, inst.space, force=args.force
            )
        except fts_mod.FtsError as exc:
            report = _report(
                "synth fts", False, {"synthesized": False, "reason": str(exc)},
                {}, {"tol": args.tol}, args.seed, t0,
            )
            _emit(report, args.output)
            return 1
        circ, cert = fts_mod.synthesize_fts(
            inst.psi, inst.neighborhoods, inst.space, plan=plan
        )
        ver = fts_mod.verify_fts(circ, inst.psi, trials=args.trials, seed=args.seed)
        if args.circuit:
            with open(args.circuit, "w") as fh:
                fh.write(json.dumps(circuit_to_json(circ)))
        report = _report(
            "synth fts", ver.passed,
            {"synthesized": True, "verified": ver.passed},
            {
                "ranks": list(cert.ranks),
                "steps": cert.steps,
                "cooling_rate": plan.cooling_rate,
                "schmidt_dim": plan.schmidt_dim,
                "final_distance": ver.max_final_distance,
                "frame_defect": chan_mod.frame_defect(circ),
            },
            {"tol": 1e-8, "frame": DEFAULT_TOL.frame}, args.seed, t0,
        )
        _emit(report, args.output)
        return 0 if ver.passed else 1
    # rfts
    res = rfts_mod.check_algebraic_rfts(
        inst.psi, inst.neighborhoods, inst.space, seed=args.seed
    )
    if not res.ok:
        report = _report(
            "synth rfts", False, {"synthesized": False, "reason": res.reason},
            {"algebra_dims": list(res.algebra_dims)}, {"tol": args.tol}, args.seed, t0,
        )
        _emit(report, args.output)
        return 1
    channels = rfts_mod.build_rfts_circuit(
        res.factorization, inst.psi, cg=res.coarse, original_space=inst.space
    )
    rep = rfts_mod.verify_robustness(
        channels, inst.psi, inst.space, trials=args.trials, seed=args.seed
    )
    if args.circuit:
        circ = Circuit(tuple(channels), inst.space)
        with open(args.circuit, "w") as fh:
            fh.write(json.dumps(circuit_to_json(circ)))
    fac = res.factorization
    fac_json = {
        "factor_dims": list(fac.factor_dims),
        "assignment": [k + 1 for k in fac.factor_to_neighborhood],
        "h0_dim": fac.h0_dim,
        "V": _mat2j(fac.as_matrix()) if fac.support.h_tilde_dim <= 64 else None,
    }
    report = _report(
        "synth rfts", rep.passed,
        {"synthesized": True, "robust": rep.passed},
        {
            "factor_dims": list(res.factor_dims),
            "channels": len(channels),
            "orders_run": rep.orders_run,
            "distinct_orders": rep.distinct_orders,
            "max_final_distance": rep.max_final_distance,
            "factorization": fac_json,
        },
        {"tol": 1e-8}, args.seed, t0,
    )
    _emit(report, args.output)
    return 0 if rep.passed else 1


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    try:
        with open(args.circuit) as fh:
            circ = circuit_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise InputError(f"cannot read circuit file: {exc}") from exc
    rng = np.random.default_rng(args.seed)
    d = circ.space.total_dim
    target = None
    if args.problem:
        inst, _ = load_problem(args.problem)
        target = inst.psi
    if args.initial == "mixed":
        rho0 = np.eye(d, dtype=complex) / d
    elif args.initial == "random":
        from ._linalg import random_density

        rho0 = random_density(d, rng)
    else:
        with open(args.initial) as fh:
            v = _j2vec(json.load(fh))
        v = v / np.linalg.norm(v)
        rho0 = np.outer(v, v.conj())
    orders = [tuple(range(len(circ.steps)))]
    if args.shuffle:
        for _ in range(max(args.trials - 1, 0)):
            orders.append(tuple(rng.permutation(len(circ.steps))))
    worst = 0.0
    rows = None
    # a repeated order gives the same final state, so each distinct one runs once
    distinct = list(dict.fromkeys(orders))
    for order in distinct:
        steps = tuple(circ.steps[i] for i in order)
        _, traj = chan_mod.run(Circuit(steps, circ.space), rho0, target=target, record=rows is None)
        if rows is None:
            rows = traj
        if target is not None:
            worst = max(worst, traj[-1].trace_distance)
    if args.trajectory:
        with open(args.trajectory, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "rank", "trace_distance"])
            for p in rows:
                writer.writerow([p.step, p.rank, "" if p.trace_distance is None else f"{p.trace_distance:.12e}"])
    ok = target is None or worst < args.tol
    report = _report(
        "simulate", ok,
        {"converged": ok},
        {"orders": len(orders), "distinct_orders": len(distinct),
         "final_distance": worst if target is not None else None,
         "final_rank": rows[-1].rank, "frame_defect": chan_mod.frame_defect(circ)},
        {"tol": args.tol, "frame": DEFAULT_TOL.frame}, args.seed, t0,
    )
    _emit(report, args.output)
    return 0 if ok else 1


def cmd_mixing(args) -> int:
    t0 = time.perf_counter()
    if args.no_go:
        l = mixing_mod.amplitude_damping_liouvillian(rate=1.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        ts = np.linspace(0.0, 10.0, args.samples)
        rep = mixing_mod.no_go_probe(l, psi0, ts)
        ok = rep.min_distance > 1e-6 and rep.monotone
        report = _report(
            "mixing no-go", ok,
            {"strictly_positive": rep.min_distance > 1e-6, "monotone": rep.monotone},
            {"min_distance": rep.min_distance,
             "distances": [[t, d] for t, d in rep.distances]},
            {"floor": 1e-6}, args.seed, t0,
        )
        _emit(report, args.output)
        return 0 if ok else 1
    if args.family_sizes:
        fams = []
        for n in args.family_sizes:
            member = states_mod.line_graph_state(int(n))
            fams.append(
                mixing_mod.CommutingResetFamily(
                    list(member.witness_channels), member.space, member.psi
                )
            )
        ts = [float(t) for t in (args.ts if args.ts else [1.5, 2.5, 4.0, 6.0])]
        rep = mixing_mod.rapid_mixing_check(fams, ts=ts, seed=args.seed)
        report = _report(
            "mixing family", rep.passed,
            {"rapid_mixing": rep.passed},
            {
                "gap": rep.nu,
                "samples": [[n, t, lo, hi] for n, t, lo, hi in rep.samples],
                "fit": {"c": float(np.exp(rep.log_c)), "gamma": rep.gamma, "delta": rep.delta},
            },
            {"gamma_slack": 0.05, "delta_cap": 1.1}, args.seed, t0,
        )
        _emit(report, args.output)
        return 0 if rep.passed else 1
    inst, options = load_problem(args.problem)
    if not inst.witness_channels:
        raise InputError("mixing analysis needs an instance with witness channels")
    fam = mixing_mod.CommutingResetFamily(
        list(inst.witness_channels), inst.space, inst.psi if inst.psi is not None else inst.rho
    )
    gap = fam.per_channel_gap(max_side=args.cap_superop)
    ts_src = options.get("ts") if options.get("ts") is not None else args.ts
    ts = [float(t) for t in (ts_src or [])]
    samples = []
    for t in ts:
        es = fam.eta_sample(t, seed=args.seed)
        samples.append({"t": es.t, "lower": es.lower, "upper": es.upper})
    report = _report(
        "mixing", True,
        {"per_channel_gap": gap},
        {"gap": gap, "eta_samples": samples},
        {"tol": args.tol}, args.seed, t0,
    )
    _emit(report, args.output)
    return 0


def cmd_schedule(args) -> int:
    t0 = time.perf_counter()
    try:
        with open(args.lattice) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read lattice file: {exc}") from exc
    kind = data.get("kind", "generic")
    if kind == "kagome":
        lat = sched_mod.kagome_lattice(int(data["cells_x"]), int(data["cells_y"]))
        inst, layering = sched_mod.layer_generic(lat)
        bound = len(lat.templates) * sched_mod.template_diameter(lat) ** lat.dimension
    elif kind == "chain-next-nn":
        lat = sched_mod.chain_next_nn(int(data["width"]), data.get("boundary", "open"))
        inst, layering = sched_mod.layer_generic(lat)
        bound = len(lat.templates) * sched_mod.template_diameter(lat) ** lat.dimension
    elif kind == "graph2d":
        lat = sched_mod.square_cross(int(data["width"]))
        inst, layering = sched_mod.layer_graph2d(lat)
        bound = 5
    elif kind == "generic":
        lat = sched_mod.LatticeSpec(
            dimension=int(data["dimension"]),
            widths=tuple(int(w) for w in data["widths"]),
            cell_sites=int(data["cell_sites"]),
            templates=tuple(
                tuple((tuple(int(o) for o in off), int(s)) for off, s in tmpl)
                for tmpl in data["templates"]
            ),
            boundary=data.get("boundary", "periodic"),
        )
        inst, layering = sched_mod.layer_generic(lat)
        bound = len(lat.templates) * sched_mod.template_diameter(lat) ** lat.dimension
    else:
        raise InputError(f"unknown lattice kind {kind!r}")
    rep = sched_mod.depth_report(inst, layering, bound=bound)
    ok = rep.disjoint_ok and rep.coverage_ok
    report = _report(
        "schedule", ok,
        {"disjoint": rep.disjoint_ok, "coverage": rep.coverage_ok},
        {
            "size": rep.size,
            "depth": rep.depth,
            "depth_bound": rep.bound,
            "layers": [[i + 1 for i in layer] for layer in layering.layers],
        },
        {}, args.seed, t0,
    )
    _emit(report, args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# reproduction registry
# ---------------------------------------------------------------------------

def _repro_dicke_fts(seed):
    inst = states_mod.dicke(4, 2)
    rep = sub_mod.check_small_schmidt_span(inst.psi, inst.neighborhoods, inst.space)
    ugen = lie_mod.check_unitary_generation(inst.psi, inst.neighborhoods, inst.space, seed=seed)
    plan = fts_mod.plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
    circ, cert = fts_mod.synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
    ver = fts_mod.verify_fts(circ, inst.psi, trials=3, seed=seed)
    prop4 = sub_mod.check_commuting_projectors(inst.psi, inst.neighborhoods, inst.space)
    cert_out = {
        "schmidt_dim": rep.per_neighborhood[0]["schmidt_dim"],
        "neighborhood_dim": rep.per_neighborhood[0]["neighborhood_dim"],
        "ugen_dims": [ugen.generated_dim, ugen.target_dim],
        "final_distance": ver.max_final_distance,
        "prop4_max_commutator": prop4.max_norm,
    }
    expected = (
        rep.per_neighborhood[0]["schmidt_dim"] == 2
        and rep.per_neighborhood[0]["neighborhood_dim"] == 8
        and ugen.ok and ugen.target_dim == 226
        and ver.max_final_distance < 1e-10
        and prop4.max_norm > 1e-3
    )
    return expected, cert_out


def _repro_aklt_not_fts(seed):
    inst = states_mod.aklt32_cubic()
    qls = sub_mod.check_qls(inst.psi, inst.neighborhoods, inst.space)
    span = sub_mod.schmidt_span(inst.psi, inst.neighborhoods[0], inst.space)
    ok = qls.qls and span.dim == 9 and 2 * span.dim > 16
    return ok, {"qls": qls.qls, "schmidt_dim": span.dim, "neighborhood_dim": 16}


def _repro_vbs3_fts(seed):
    inst = states_mod.vbs_1d(3)
    ugen = lie_mod.check_unitary_generation(inst.psi, inst.neighborhoods, inst.space, seed=seed)
    plan = fts_mod.plan_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
    circ, cert = fts_mod.synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=plan)
    ver = fts_mod.verify_fts(circ, inst.psi, trials=2, seed=seed)
    ok = ugen.ok and ver.passed
    return ok, {
        "ugen_dims": [ugen.generated_dim, ugen.target_dim],
        "ranks": list(cert.ranks),
        "final_distance": ver.max_final_distance,
        "larger_chains": "untested (checked for 3 and 4 sites only)",
    }


def _repro_graph_line3_rfts(seed):
    inst = states_mod.line_graph_state(3)
    rep = rfts_mod.verify_robustness(list(inst.witness_channels), inst.psi, inst.space)
    pset = sub_mod.canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
    comm = float(np.max(sub_mod.pairwise_projector_commutators(pset)))
    ok = rep.passed and rep.exhaustive and comm < 1e-9
    return ok, {
        "orders": rep.orders_run,
        "distinct_orders": rep.distinct_orders,
        "max_final_distance": rep.max_final_distance,
        "max_pairwise_commutator": comm,
    }


def _repro_w_product(seed):
    inst = states_mod.w_product_9()
    pset = sub_mod.canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
    comm = float(np.max(sub_mod.pairwise_projector_commutators(pset)))
    rep = rfts_mod.verify_robustness(
        list(inst.witness_channels), inst.psi, inst.space, trials=200, seed=seed
    )
    h = states_mod.w_product_commuting_hamiltonian(inst)
    ev, vec = np.linalg.eigh(h)
    kernel_ok = ev[0] < 1e-10 and ev[1] > 0.5 and abs(abs(vec[:, 0].conj() @ inst.psi) - 1) < 1e-9
    ok = comm > 1e-3 and rep.passed and kernel_ok
    return ok, {
        "max_pairwise_commutator": comm,
        "orders": rep.orders_run,
        "distinct_orders": rep.distinct_orders,
        "max_final_distance": rep.max_final_distance,
        "alternative_hamiltonian_kernel_dim": 1 if kernel_ok else None,
    }


def _repro_nonfac(seed):
    inst = states_mod.nonfactorizable_252()
    e1, e2 = inst.witness_channels
    s12 = chan_mod.superoperator(chan_mod.compose(e1, e2, inst.space), inst.space)
    s21 = chan_mod.superoperator(chan_mod.compose(e2, e1, inst.space), inst.space)
    target = np.outer(inst.psi, inst.psi.conj()).reshape(-1)
    reset = np.outer(target, np.eye(20).reshape(-1).conj())
    d12 = float(np.max(np.abs(s12 - reset)))
    d21 = float(np.max(np.abs(s21 - reset)))
    ok = d12 < 1e-9 and d21 < 1e-9
    return ok, {"superop_defect_12": d12, "superop_defect_21": d21}


def _repro_chain_depth3(seed):
    inst, layering = sched_mod.layer_generic(sched_mod.chain_next_nn(9))
    rep = sched_mod.depth_report(inst, layering)
    ok = layering.depth == 3 and rep.disjoint_ok and rep.coverage_ok
    return ok, {"depth": layering.depth, "size": rep.size}


def _repro_kagome_depth12(seed):
    lat = sched_mod.kagome_lattice(2, 2)
    inst, layering = sched_mod.layer_generic(lat)
    rep = sched_mod.depth_report(inst, layering)
    ok = layering.depth == 12 and rep.disjoint_ok and rep.coverage_ok
    return ok, {"depth": layering.depth, "size": rep.size}


def _repro_graph_depth5(seed):
    inst, layering = sched_mod.layer_graph2d(sched_mod.square_cross(5))
    rep = sched_mod.depth_report(inst, layering)
    ok = layering.depth == 5 and rep.disjoint_ok and rep.coverage_ok
    return ok, {"depth": layering.depth, "layer_sizes": [len(l) for l in layering.layers]}


def _repro_ising_gibbs(seed):
    inst = states_mod.ising_gibbs(8, 1.0, 1.0)
    cov = states_mod.ising_zz_covariance(inst, 0, 5)
    ok = abs(cov) > 1e-3
    return ok, {"zz_covariance_1_6": cov}


def _repro_no_go(seed):
    l = mixing_mod.amplitude_damping_liouvillian(1.0)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    rep = mixing_mod.no_go_probe(l, psi0, np.linspace(0.0, 10.0, 21))
    ok = rep.min_distance > 1e-6 and rep.monotone
    return ok, {"min_distance": rep.min_distance}


def _repro_rapid_mixing(seed):
    fams = [
        mixing_mod.CommutingResetFamily(
            list(states_mod.line_graph_state(n).witness_channels),
            states_mod.line_graph_state(n).space,
            states_mod.line_graph_state(n).psi,
        )
        for n in (3, 4)
    ]
    rep = mixing_mod.rapid_mixing_check(fams, ts=[1.5, 2.5, 4.0, 6.0], seed=seed)
    return rep.passed, {"gamma": rep.gamma, "delta": rep.delta, "nu": rep.nu}


REPRODUCTIONS = {
    "dicke-fts": _repro_dicke_fts,
    "aklt-not-fts": _repro_aklt_not_fts,
    "vbs3-fts": _repro_vbs3_fts,
    "graph-line3-rfts": _repro_graph_line3_rfts,
    "w-product-robust": _repro_w_product,
    "nonfactorizable-252": _repro_nonfac,
    "chain-depth3": _repro_chain_depth3,
    "kagome-depth12": _repro_kagome_depth12,
    "graph-depth5": _repro_graph_depth5,
    "ising-gibbs-correlation": _repro_ising_gibbs,
    "amplitude-damping-no-go": _repro_no_go,
    "graph-rapid-mixing": _repro_rapid_mixing,
}


def cmd_reproduce(args) -> int:
    t0 = time.perf_counter()
    names = sorted(REPRODUCTIONS) if args.all else [args.name]
    if not args.all and args.name not in REPRODUCTIONS:
        print(f"unknown reproduction '{args.name}'; available:", file=sys.stderr)
        for n in sorted(REPRODUCTIONS):
            print(f"  {n}", file=sys.stderr)
        return 2
    all_ok = True
    results = {}
    for name in names:
        t1 = time.perf_counter()
        ok, cert = REPRODUCTIONS[name](args.seed)
        results[name] = {"pass": ok, "certificates": cert,
                         "elapsed_seconds": round(time.perf_counter() - t1, 3)}
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({results[name]['elapsed_seconds']}s)")
    report = _report("reproduce", all_ok, {n: r["pass"] for n, r in results.items()},
                     results, {}, args.seed, t0)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, default=_json_default)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="verdict tolerance")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="random seed")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="BLAS thread bound")
    common.add_argument("--cap-superop", type=int, default=argparse.SUPPRESS,
                        help="max superoperator side length")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the JSON report here")
    p = argparse.ArgumentParser(
        prog="qlstab",
        parents=[common],
        description="Finite-time stabilization by quasi-local dissipative circuits",
    )
    p.set_defaults(tol=1e-8, seed=0, threads=None, cap_superop=4096, output=None)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", parents=[common],
                        help="decision procedures on a problem file")
    pc.add_argument("what", choices=[
        "qls", "sss", "ugen", "commuting-projectors", "matching-overlap",
        "algebraic-rfts", "matching-overlap-rfts", "correlations", "cmi",
    ])
    pc.add_argument("problem")
    pc.set_defaults(fn=cmd_check)

    ps = sub.add_parser("synth", parents=[common], help="synthesize a stabilizing circuit")
    ps.add_argument("what", choices=["fts", "rfts"])
    ps.add_argument("problem")
    ps.add_argument("--circuit", default=None, help="write the circuit JSON here")
    ps.add_argument("--force", action="store_true",
                    help="skip the precondition checks")
    ps.add_argument("--trials", type=int, default=5)
    ps.set_defaults(fn=cmd_synth)

    pm = sub.add_parser("simulate", parents=[common], help="run a circuit file")
    pm.add_argument("circuit")
    pm.add_argument("--problem", default=None, help="problem file holding the target")
    pm.add_argument("--initial", default="mixed",
                    help="'mixed', 'random', or a state-vector JSON file")
    pm.add_argument("--trials", type=int, default=1)
    pm.add_argument("--shuffle", action="store_true",
                    help="also run random step orders")
    pm.add_argument("--trajectory", default=None, help="write the trajectory CSV here")
    pm.set_defaults(fn=cmd_simulate)

    px = sub.add_parser("mixing", parents=[common], help="continuous-time mixing analysis")
    px.add_argument("problem", nargs="?")
    px.add_argument("--ts", type=float, nargs="*", default=None)
    px.add_argument("--no-go", action="store_true",
                    help="run the amplitude-damping finite-time no-go probe")
    px.add_argument("--family-sizes", type=int, nargs="*", default=None,
                    help="rapid-mixing fit over line-graph chains of these sizes")
    px.add_argument("--samples", type=int, default=21)
    px.set_defaults(fn=cmd_mixing)

    pl = sub.add_parser("schedule", parents=[common], help="lattice layering and depth report")
    pl.add_argument("lattice")
    pl.set_defaults(fn=cmd_schedule)

    pr = sub.add_parser("reproduce", parents=[common], help="run a named end-to-end reproduction")
    pr.add_argument("name", nargs="?", default="")
    pr.add_argument("--all", action="store_true")
    pr.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads:
        try:
            import threadpoolctl

            threadpoolctl.threadpool_limits(args.threads)
        except ImportError:
            print("--threads ignored: threadpoolctl is not installed", file=sys.stderr)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, MemoryError) as exc:
        print(f"cap exceeded: {exc or type(exc).__name__}", file=sys.stderr)
        return 3
    except ChannelError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
