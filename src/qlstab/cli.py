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
from dataclasses import asdict, is_dataclass, replace

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
from ._linalg import CLUSTER_RTOL, DEFAULT_TOL, random_density
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
    if not np.isfinite(a).all():
        raise InputError("expected finite [re, im] pairs, got NaN or infinity")
    # reinterpret each (re, im) pair in place, bit for bit
    return a.view(complex)[..., 0]


def _j2vec(data) -> np.ndarray:
    return _j2array(data, 1)


def _unit_vector(v: np.ndarray, where: str) -> np.ndarray:
    """A state vector read from a file, normalized; zero norm is refused."""
    nrm = np.linalg.norm(v)
    if not 0.0 < nrm < math.inf:
        raise InputError(f"{where}: a state vector needs a positive, finite norm, got {nrm}")
    return v / nrm


def _density_matrix(rho: np.ndarray, where: str) -> np.ndarray:
    """A density matrix read from a file, scaled to unit trace; it must be
    nonzero, Hermitian to 1e-9 of its largest entry and positive
    semidefinite to 1e-9 of its largest eigenvalue."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    ev = np.linalg.eigvalsh(rho)
    if herm > 1e-9 * np.max(np.abs(rho)) or not ev[-1] > 0 or ev[0] < -1e-9 * ev[-1]:
        raise InputError(f"{where}: not a nonzero positive semidefinite Hermitian matrix (Hermitian "
                         f"defect {herm:.1e}, eigenvalues {ev[0]:.1e} to {ev[-1]:.1e})")
    return rho / np.sum(ev)


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


FRAME_SCHEMA = ('{"region": [1-based subsystems], "local": m x m pairs, "psi_coords": '
                'pairs, "schmidt_dim": s, "copies": r}')


def frame_to_json(frame: chan_mod.Frame) -> dict:
    return {
        "region": [i + 1 for i in frame.region],
        "local": _mat2j(frame.local),
        "psi_coords": _mat2j(frame.psi_coords),
        "schmidt_dim": frame.schmidt_dim,
        "copies": frame.copies,
    }


def frame_from_json(data, space: MultipartiteSpace) -> chan_mod.Frame:
    """The factored frame object; checked in range, in shape and unitary to
    `DEFAULT_TOL.frame`. A dense D x D frame is refused."""
    if not isinstance(data, dict):
        raise InputError(f"frame must be the object {FRAME_SCHEMA}; a dense D x D frame is not read")
    try:
        region = _parse_support(data["region"], space)
        local, c0 = _j2mat(data["local"]), _j2vec(data["psi_coords"])
        frame = chan_mod.Frame(space, region, local, data["copies"], data["schmidt_dim"], c0)
    except KeyError as exc:
        raise InputError(f"frame needs the key {exc}; schema {FRAME_SCHEMA}") from exc
    except ValueError as exc:  # InputError and ChannelError included
        raise InputError(f"frame: {exc}") from exc
    if frame.unitary_defect > DEFAULT_TOL.frame:
        raise InputError(f"frame is not unitary: the defect of `local` plus |norm(psi_coords) - 1| "
                         f"is {frame.unitary_defect:.3e}")
    return frame


def circuit_to_json(circ: Circuit) -> dict:
    """Channel steps carry their Kraus list; permutation steps carry 0-based
    basis indices into the circuit's `frame`, written once as its factors
    whenever the circuit has one."""
    out: dict = {"dims": list(circ.space.dims)}
    frame = circ.frame
    if frame is not None:
        out["frame"] = frame_to_json(frame)
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
    frame = frame_from_json(data["frame"], space) if "frame" in data else None
    if frame is None and any("permutation" in s for s in steps_data):
        raise InputError("permutation steps need a top-level frame")
    steps = []
    for s in steps_data:
        if "permutation" not in s:
            steps.append(channel_from_json(s, space))
            continue
        try:
            steps.append(chan_mod.permutation_step(s["permutation"], space, s.get("label", "")))
        except ValueError as exc:  # ChannelError included
            raise InputError(f"permutation step: {exc}") from exc
    return Circuit(steps=tuple(steps), space=space, frame=frame)


CONSTRUCTORS = {
    "graph-line": lambda p: states_mod.line_graph_state(int(p["n"]), d=int(p.get("d", 2))),
    "graph-grid": lambda p: states_mod.grid_graph_state(int(p["rows"]), int(p["cols"])),
    "graph-cycle": lambda p: states_mod.graph_state(
        int(p["n"]), [(i, (i + 1) % int(p["n"])) for i in range(int(p["n"]))]
    ),
    "graph": lambda p: states_mod.graph_state(int(p["n"]), _graph_edges(p), d=int(p.get("d", 2))),
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


def _graph_edges(p) -> list[tuple[int, ...]]:
    """1-based edges of a `graph` problem -> 0-based, each checked as a support."""
    space = MultipartiteSpace([2] * int(p["n"]))
    return [tuple(_parse_support(e, space)) for e in p["edges"]]


def load_problem(path: str):
    """ProblemFile -> (StateInstance-like bundle). Exactly one state source."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read problem file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("problem file must hold an object")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise InputError("/options: expected an object")
    state_spec = data.get("state")
    if not isinstance(state_spec, dict):
        raise InputError("/state: missing object")
    sources = [k for k in ("constructor", "vector", "matrix") if k in state_spec]
    if len(sources) != 1:
        raise InputError("/state: exactly one of constructor|vector|matrix required")
    if sources[0] == "constructor":
        spec = state_spec["constructor"]
        if not isinstance(spec, dict):
            raise InputError("/state/constructor: expected an object")
        name = spec.get("name")
        if not isinstance(name, str) or name not in CONSTRUCTORS:
            raise InputError(
                f"/state/constructor/name: unknown '{name}'; known: {sorted(CONSTRUCTORS)}"
            )
        try:
            inst = CONSTRUCTORS[name](spec.get("params", {}))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"/state/constructor/params: {type(exc).__name__}: {exc}") from exc
        state, size = ((inst.rho, abs(np.trace(inst.rho))) if inst.psi is None
                       else (inst.psi, np.linalg.norm(inst.psi)))
        if not (np.isfinite(state).all() and size > 0):  # refused, never rescaled
            raise InputError("/state/constructor/params: the state built is not finite, or has zero norm or trace")
        if "neighborhoods" in data:
            inst = replace(inst, neighborhoods=_parse_neighborhoods(data["neighborhoods"], inst.space))
        return inst, options
    try:
        space = MultipartiteSpace(data["space"]["dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"/space/dims: a list of positive dimensions is required with an explicit "
                         f"state ({type(exc).__name__}: {exc})") from exc
    if "neighborhoods" not in data:
        raise InputError("/neighborhoods: required with an explicit state")
    nstruct = _parse_neighborhoods(data["neighborhoods"], space)
    psi = rho = None
    if sources[0] == "vector":
        psi = _j2vec(state_spec["vector"])
        if psi.shape[0] != space.total_dim:
            raise InputError("/state/vector: length does not match the space")
        psi = _unit_vector(psi, "/state/vector")
    else:
        rho = _j2mat(state_spec["matrix"])
        if rho.shape != (space.total_dim, space.total_dim):
            raise InputError("/state/matrix: shape does not match the space")
        rho = _density_matrix(rho, "/state/matrix")
    inst = states_mod.StateInstance(
        name=data.get("name", "problem"),
        space=space, neighborhoods=nstruct, psi=psi, rho=rho,
    )
    return inst, options


def _parse_neighborhoods(data, space: MultipartiteSpace) -> NeighborhoodStructure:
    if not isinstance(data, list):
        raise InputError(f"/neighborhoods: expected a list of supports, got {data!r}")
    try:
        nstruct = NeighborhoodStructure([_parse_support(nk, space) for nk in data], normalize=True)
    except (InputError, ValueError) as exc:
        raise InputError(f"/neighborhoods: {exc}") from exc
    uncovered = [i + 1 for i in range(space.n_subsystems) if not any(i in nk for nk in nstruct)]
    if uncovered:
        raise InputError(f"/neighborhoods: must cover every subsystem; subsystems {uncovered} lie in none")
    return nstruct


def _parse_region(options: dict, key: str, space: MultipartiteSpace, default) -> list[int]:
    """The 1-based region `options[key]` (or `default`) as 0-based indices."""
    try:
        return _parse_support(options.get(key, default), space)
    except InputError as exc:
        raise InputError(f"/options/{key}: {exc}") from exc


def _regions_ab(inst, options: dict, also: str = "", apart: bool = False) -> tuple[list[int], list[int], list[int]]:
    """`region_a` (default: subsystem 1), its neighbourhood expansion, and a
    `region_b` disjoint from it. By default `region_b` is the last subsystem
    outside that expansion or, with `apart`, the last one whose own
    expansion is disjoint from it. Without such a subsystem `region_b` must
    be given, with the options named in `also`."""
    a = _parse_region(options, "region_a", inst.space, [1])
    exp_a = hilbert.neighborhood_expansion(inst.neighborhoods, a)
    if apart:
        outside = [i + 1 for i in range(inst.space.n_subsystems)
                   if not set(hilbert.neighborhood_expansion(inst.neighborhoods, [i])) & set(exp_a)]
        why = "no subsystem has a neighborhood expansion disjoint from that of region_a"
    else:
        outside = [i + 1 for i in range(inst.space.n_subsystems) if i not in exp_a]
        why = "every subsystem lies in the neighborhood expansion of region_a"
    if not outside and "region_b" not in options:
        raise InputError(f"/options: {why}, so region_b has no default; give region_b{also}")
    b = _parse_region(options, "region_b", inst.space, outside[-1:])
    if set(a) & set(b):
        raise InputError("/options: region_a and region_b must be disjoint")
    return a, exp_a, b


def _emit(report: dict, out_path: str | None):
    # a NaN or an infinity is not JSON: a report must say null instead
    text = json.dumps(report, indent=2, default=_json_default, allow_nan=False)
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
#
# Each `cmd_*` returns (task, ok, verdicts, certificates, tolerances), where
# `tolerances` holds the values the verdict was decided against; `main` times
# the call, emits the report and maps ok to the exit code.
# ---------------------------------------------------------------------------

def _intersection_margin(v) -> dict:
    """Tightest eigenvalues on each side of the intersection cuts, over the sweep steps."""
    return {"largest_kept": v.largest_kept, "smallest_dropped": v.smallest_dropped}


def _cluster_gaps(gaps: tuple[float, float]) -> dict:
    """Clustering margin; smallest_split is null when nothing was split."""
    merged, split = gaps
    return {"largest_merged": merged, "smallest_split": split if math.isfinite(split) else None}


def _target(inst):
    return inst.psi if inst.psi is not None else inst.rho


# `check <what>`: each maps (instance, options, args) to (ok, verdicts,
# certificates, tolerances)

def _check_qls(inst, options, args):
    v = sub_mod.check_qls(inst.psi, inst.neighborhoods, inst.space)
    certificates = {
        "intersection_dim": v.intersection_dim,
        "contains_target": v.contains_target,
        "intersection_margin": _intersection_margin(v),
    }
    return v.qls, {"qls": v.qls}, certificates, {"intersect_eig": DEFAULT_TOL.intersect_eig}


def _check_sss(inst, options, args):
    rep = sub_mod.check_small_schmidt_span(inst.psi, inst.neighborhoods, inst.space)
    rows = [{**r, "neighborhood": [i + 1 for i in r["neighborhood"]]} for r in rep.per_neighborhood]
    return rep.satisfied, {"small_schmidt_span": rep.satisfied}, {"per_neighborhood": rows}, {}


def _check_ugen(inst, options, args):
    v = lie_mod.check_unitary_generation(inst.psi, inst.neighborhoods, inst.space, seed=args.seed)
    certificates = {
        "generated_dim": v.generated_dim,
        "target_dim": v.target_dim,
        "passes": v.passes,
        "method": v.method,
        "cluster_gaps": _cluster_gaps(v.cluster_gaps),
        "weakest_edge": v.weakest_edge,
    }
    return v.ok, {"unitary_generation": v.ok}, certificates, {"cluster_rtol": CLUSTER_RTOL}


def _check_commuting_projectors(inst, options, args):
    if len(inst.neighborhoods) < 2:
        raise InputError(f"/neighborhoods: commuting-projectors needs at least two neighborhoods, "
                         f"got {len(inst.neighborhoods)}")
    v = sub_mod.check_commuting_projectors(inst.psi, inst.neighborhoods, inst.space, tol=args.tol)
    certificates = {"max_commutator_norm": v.max_norm, "intersection_margin": _intersection_margin(v)}
    return v.ok, {"commuting_projectors": v.ok}, certificates, {"tol": args.tol}


def _check_matching_overlap(inst, options, args):
    v = sub_mod.check_matching_overlap(inst.neighborhoods)
    certificates = {"witness_subset": list(v.witness) if v.witness else None}
    return v.status == "satisfied", {"matching_overlap": v.status}, certificates, {}


def _check_algebraic_rfts(inst, options, args):
    res = rfts_mod.check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space, seed=args.seed)
    certificates = {
        "factor_dims": list(res.factor_dims),
        "algebra_dims": list(res.algebra_dims),
        "commutation_defect": res.commutation_defect,
        "target_factor_residual": res.target_factor_residual,
        "projector_block_residual": res.projector_block_residual,
        "coarse_groups": [[i + 1 for i in g] for g in res.coarse_groups],
        "cluster_gaps": _cluster_gaps(res.cluster_gaps),
    }
    return res.ok, {"algebraic_rfts": res.ok, "reason": res.reason}, certificates, {"cluster_rtol": CLUSTER_RTOL}


def _check_matching_overlap_rfts(inst, options, args):
    res = rfts_mod.check_matching_overlap_rfts(
        inst.psi, inst.neighborhoods, inst.space, tol=args.tol, seed=args.seed
    )
    certificates = {
        "matching_overlap": res.matching_overlap,
        "max_pairwise_commutator": res.max_pairwise_commutator,
    }
    return res.ok, {"matching_overlap_rfts": res.ok, "reason": res.reason}, certificates, {"tol": args.tol}


def _check_correlations(inst, options, args):
    a, _, b = _regions_ab(inst, options, apart=True)
    probe = rfts_mod.correlation_probe(_target(inst), a, b, inst.space, nstruct=inst.neighborhoods)
    ok = probe.max_abs_covariance < args.tol
    certificates = {
        "max_abs_covariance": probe.max_abs_covariance,
        "expansions_disjoint": probe.expansions_disjoint,
        "region_b": [i + 1 for i in b],
    }
    return ok, {"uncorrelated": ok}, certificates, {"tol": args.tol}


def _check_cmi(inst, options, args):
    a, exp_a, b = _regions_ab(inst, options, also=" and region_c")
    if "region_c" in options:
        c = _parse_region(options, "region_c", inst.space, None)
    else:
        c = sorted(set(exp_a) - set(a))
    if set(c) & (set(a) | set(b)):
        raise InputError("/options: region_c (by default the neighborhood expansion of region_a, "
                         "less region_a) must be disjoint from region_a and region_b")
    val = rfts_mod.cmi(_target(inst), a, b, c, inst.space)
    ok = val < args.tol
    certificates = {"cmi_bits": val, "region_b": [i + 1 for i in b], "region_c": [i + 1 for i in c]}
    return ok, {"zero_cmi": ok}, certificates, {"tol": args.tol}


CHECKS = {
    "qls": _check_qls,
    "sss": _check_sss,
    "ugen": _check_ugen,
    "commuting-projectors": _check_commuting_projectors,
    "matching-overlap": _check_matching_overlap,
    "algebraic-rfts": _check_algebraic_rfts,
    "matching-overlap-rfts": _check_matching_overlap_rfts,
    "correlations": _check_correlations,
    "cmi": _check_cmi,
}


def cmd_check(args):
    inst, options = load_problem(args.problem)
    if inst.psi is None and args.what not in ("correlations", "cmi", "matching-overlap"):
        raise InputError(f"check {args.what} needs a pure target state")
    return (f"check {args.what}", *CHECKS[args.what](inst, options, args))


def cmd_synth(args):
    inst, options = load_problem(args.problem)
    if inst.psi is None:
        raise InputError("synthesis needs a pure target state")
    task = f"synth {args.what}"
    if args.what == "fts":
        try:
            frame = fts_mod.plan_fts(inst.psi, inst.neighborhoods, inst.space, force=args.force)
        except fts_mod.FtsError as exc:
            # the cut that refused, as `check ugen` and `check sss` report it
            cuts = {"cluster_rtol": CLUSTER_RTOL} if isinstance(exc, fts_mod.UgenError) else {}
            return task, False, {"synthesized": False, "reason": str(exc)}, {}, cuts
        circ, cert = fts_mod.synthesize_fts(inst.psi, inst.neighborhoods, inst.space, plan=frame)
        ver = fts_mod.verify_fts(circ, inst.psi, tol=args.tol)
        ok, verdicts = ver.passed, {"synthesized": True, "verified": ver.passed}
        certificates = {
            "ranks": list(cert.ranks),
            "steps": len(circ),
            "cooling_rate": frame.copies,
            "schmidt_dim": frame.schmidt_dim,
            "final_distance": ver.max_final_distance,
            **_fts_cert(ver),
        }
        tolerances = {"tol": args.tol, "frame": DEFAULT_TOL.frame}
    else:
        res = rfts_mod.check_algebraic_rfts(
            inst.psi, inst.neighborhoods, inst.space, seed=args.seed
        )
        if not res.ok:
            return (task, False, {"synthesized": False, "reason": res.reason},
                    {"algebra_dims": list(res.algebra_dims)}, {"cluster_rtol": CLUSTER_RTOL})
        channels = rfts_mod.build_rfts_circuit(
            res.factorization, inst.psi, cg=res.coarse, original_space=inst.space
        )
        rep = rfts_mod.verify_robustness(
            channels, inst.psi, inst.space, trials=args.trials, tol=args.tol, seed=args.seed
        )
        circ = Circuit(tuple(channels), inst.space)
        ok, verdicts = rep.passed, {"synthesized": True, "robust": rep.passed}
        certificates = {
            "factor_dims": list(res.factor_dims),
            "channels": len(channels),
            "orders_run": rep.orders_run,
            "distinct_orders": rep.distinct_orders,
            "max_final_distance": rep.max_final_distance,
            "worst_order": list(rep.worst_order),
            **_order_cert(rep),
            "factorization": {"factor_dims": list(res.factor_dims), "h0_dim": res.factorization.h0_dim},
        }
        tolerances = {"tol": args.tol}
    if args.circuit:
        with open(args.circuit, "w") as fh:
            fh.write(json.dumps(circuit_to_json(circ)))
    return task, ok, verdicts, certificates, tolerances


def cmd_simulate(args):
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
        if target is not None and target.shape[0] != d:
            raise InputError(f"--problem: the target has dimension {target.shape[0]}, the circuit D = {d}")
    rho0 = None  # I/D, for --initial mixed
    if args.initial == "random":
        rho0 = random_density(d, rng)
    elif args.initial != "mixed":
        try:
            with open(args.initial) as fh:
                v = _j2vec(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read initial state: {exc}") from exc
        v = _unit_vector(v, "initial state")
        rho0 = np.outer(v, v.conj())
    orders = [tuple(range(len(circ.steps)))]
    if args.shuffle:
        for _ in range(args.trials - 1):
            orders.append(tuple(rng.permutation(len(circ.steps))))
    defect = chan_mod.frame_defect(circ)
    # I/D is diagonal in the frame and stays so: it runs as its weight vector
    diagonal = rho0 is None and circ.frame is not None
    if diagonal:
        framed_target = None if target is None else circ.frame.apply(target, adjoint=True)

        def run_order(c, record):
            return chan_mod.run_diagonal(c, np.full(d, 1.0 / d), framed_target, record)
    else:
        if rho0 is None:
            rho0 = np.eye(d, dtype=complex) / d

        def run_order(c, record):
            return chan_mod.run(c, rho0, target, record)
    worst, worst_order = 0.0, None
    rows = final = None
    # a repeated order gives the same final state, so each distinct one runs
    # once; trajectory points are evaluated only for a --trajectory file
    distinct = list(dict.fromkeys(orders))
    for order in distinct:
        steps = tuple(circ.steps[i] for i in order)
        state, traj = run_order(replace(circ, steps=steps), args.trajectory is not None and rows is None)
        if rows is None:
            rows, final = traj, state
        if target is not None and (worst_order is None or traj[-1].trace_distance > worst):
            worst, worst_order = traj[-1].trace_distance, order
    if args.trajectory:
        with open(args.trajectory, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "rank", "trace_distance"])
            for p in rows:
                writer.writerow([p.step, p.rank, "" if p.trace_distance is None else f"{p.trace_distance:.12e}"])
    if rows:
        final_rank = rows[-1].rank
    else:
        final_rank = chan_mod.diagonal_rank(final) if diagonal else chan_mod.state_rank(final)
    ok = target is None or worst < args.tol
    return (
        "simulate", ok,
        {"converged": ok},
        {"orders": len(orders), "distinct_orders": len(distinct),
         "method": "diagonal" if diagonal else "dense",
         "final_distance": worst if target is not None else None,
         "worst_order": None if worst_order is None else [int(i) for i in worst_order],
         "final_rank": final_rank, "frame_defect": defect},
        {"tol": args.tol, "frame": DEFAULT_TOL.frame},
    )


def _amplitude_damping_no_go(samples: int):
    psi0 = np.array([1.0, 0.0], dtype=complex)
    semigroup = mixing_mod.amplitude_damping_liouvillian(rate=1.0)
    return mixing_mod.no_go_probe(semigroup, psi0, np.linspace(0.0, 10.0, samples))


def _line_graph_families(sizes):
    fams = []
    for n in sizes:
        inst = states_mod.line_graph_state(int(n))
        fams.append(mixing_mod.CommutingResetFamily(list(inst.witness_channels), inst.space, inst.psi))
    return fams


def _parse_times(data) -> list[float]:
    """The problem option `ts`: a list of non-negative finite times."""
    if not (isinstance(data, list) and all(type(t) in (int, float) and 0 <= t < math.inf for t in data)):
        raise InputError(f"/options/ts: expected a list of non-negative finite times, got {data!r}")
    return [float(t) for t in data]


def _mixing_proof_fields(rep) -> dict:
    """The path and hypothesis defects of a `RapidMixingReport`."""
    return {"method": rep.method, "identity_defect": rep.identity_defect,
            "commutation_defect": rep.commutation_defect,
            "largest_kept": rep.largest_kept, "smallest_dropped": rep.smallest_dropped,
            "max_gap": rep.max_gap}


def cmd_mixing(args):
    if args.no_go:
        rep = _amplitude_damping_no_go(args.samples)
        return (
            "mixing no-go", rep.min_distance > 1e-6 and rep.monotone,
            {"strictly_positive": rep.min_distance > 1e-6, "monotone": rep.monotone},
            {"min_distance": rep.min_distance,
             "distances": [[t, d] for t, d in rep.distances]},
            {"floor": 1e-6},
        )
    if args.family_sizes:
        fams = _line_graph_families(args.family_sizes)
        ts = [float(t) for t in (args.ts if args.ts else [1.5, 2.5, 4.0, 6.0])]
        try:
            rep = mixing_mod.rapid_mixing_check(fams, ts=ts)
        except ValueError as exc:
            raise InputError(f"mixing family: {exc}") from exc
        return (
            "mixing family", rep.passed,
            {"rapid_mixing": rep.passed},
            {
                "gap": rep.nu,
                "samples": [[n, t, lo, hi] for n, t, lo, hi in rep.samples],
                "fit": {"c": float(np.exp(rep.log_c)), "gamma": rep.gamma, "delta": rep.delta},
                "applies": rep.applies,
                **_mixing_proof_fields(rep),
            },
            {"gamma_slack": mixing_mod.GAMMA_SLACK, "delta_cap": mixing_mod.DELTA_CAP,
             "fit_ceiling": mixing_mod.FIT_CEILING},
        )
    if args.problem is None:
        raise InputError("mixing needs a problem file, --no-go or --family-sizes")
    inst, options = load_problem(args.problem)
    if not inst.witness_channels:
        raise InputError("mixing analysis needs an instance with witness channels")
    fam = mixing_mod.CommutingResetFamily(list(inst.witness_channels), inst.space, _target(inst))
    ts = _parse_times(options["ts"]) if options.get("ts") is not None else args.ts or []
    proof = fam.proof
    try:
        gap = fam.per_channel_gap()
        samples = [{"t": es.t, "lower": es.lower, "upper": es.upper} for es in fam.eta_samples(ts)]
    except ValueError as exc:
        raise InputError(f"mixing: {exc}") from exc
    return (
        "mixing", True,
        {"per_channel_gap": gap},
        {"gap": gap, "eta_samples": samples, "applies": fam.applies, "method": fam.method,
         "identity_defect": proof.identity_defect, "commutation_defect": proof.commutation,
         "intersection_dim": proof.intersection_dim},
        {"invariance": DEFAULT_TOL.invariance, "commutator": DEFAULT_TOL.commutator},
    )


LATTICES = {
    "kagome": lambda d: sched_mod.kagome_lattice(int(d["cells_x"]), int(d["cells_y"])),
    "chain-next-nn": lambda d: sched_mod.chain_next_nn(int(d["width"]), d.get("boundary", "open")),
    "graph2d": lambda d: sched_mod.square_cross(int(d["width"])),
    "generic": lambda d: sched_mod.LatticeSpec(
        dimension=int(d["dimension"]),
        widths=tuple(int(w) for w in d["widths"]),
        cell_sites=int(d["cell_sites"]),
        templates=tuple(
            tuple((tuple(int(o) for o in off), int(s)) for off, s in tmpl)
            for tmpl in d["templates"]
        ),
        boundary=d.get("boundary", "periodic"),
    ),
}


def cmd_schedule(args):
    try:
        with open(args.lattice) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read lattice file: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"lattice file must hold an object, got {data!r}")
    kind = data.get("kind", "generic")
    if not isinstance(kind, str) or kind not in LATTICES:
        raise InputError(f"unknown lattice kind {kind!r}")
    try:
        lat = LATTICES[kind](data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{kind} lattice: {type(exc).__name__}: {exc}") from exc
    try:
        inst, layering = (sched_mod.layer_graph2d if kind == "graph2d" else sched_mod.layer_generic)(lat)
    except ValueError as exc:
        raise InputError(f"{kind} lattice: {type(exc).__name__}: {exc}") from exc
    bound = 5 if kind == "graph2d" else len(lat.templates) * sched_mod.template_diameter(lat) ** lat.dimension
    rep = sched_mod.depth_report(inst, layering, bound=bound)
    return (
        "schedule", rep.disjoint_ok and rep.coverage_ok,
        {"disjoint": rep.disjoint_ok, "coverage": rep.coverage_ok},
        {
            "size": rep.size,
            "depth": rep.depth,
            "depth_bound": rep.bound,
            "layers": [[i + 1 for i in layer] for layer in layering.layers],
        },
        {},
    )


# ---------------------------------------------------------------------------
# reproduction registry: the paper's headline claims
#
# Each entry maps a seed to (checks, certificates). A check's name states its
# threshold, and an entry passes iff every check holds. Instances are built
# when an entry runs, not at import. The acceptance suite runs this table.
# ---------------------------------------------------------------------------

def _ugen_and_fts(inst, seed):
    ugen = lie_mod.check_unitary_generation(inst.psi, inst.neighborhoods, inst.space, seed=seed)
    circ, cert = fts_mod.synthesize_fts(inst.psi, inst.neighborhoods, inst.space, force=True)
    return ugen, cert, fts_mod.verify_fts(circ, inst.psi)


def _fts_cert(ver) -> dict:
    """The proof that decided an FTS verification and its margins."""
    return {
        "method": "occupied-set",
        "final_occupied": list(ver.final_occupied),
        "tp_defect": ver.tp_defect,
        "worst_input_bound": ver.worst_input_bound,
        "frame_defect": ver.frame_defect,
    }


def _ugen_cert(ugen) -> dict:
    return {
        "ugen_dims": [ugen.generated_dim, ugen.target_dim],
        "ugen_cluster_gaps": _cluster_gaps(ugen.cluster_gaps),
        "ugen_weakest_edge": ugen.weakest_edge,
    }


def _order_cert(rep) -> dict:
    """The path that decided a robustness report and its order bounds; a
    bound the Kraus commutators do not give (inf) is null."""
    def finite(x):
        return x if x is not None and math.isfinite(x) else None

    return {
        "method": rep.method,
        "orders_computed": rep.orders_computed,
        "order_bound": finite(rep.order_bound),
        "worst_input_bound": finite(rep.worst_input_bound),
    }


def _robustness_cert(rep) -> dict:
    return {
        "orders": rep.orders_run,
        "distinct_orders": rep.distinct_orders,
        "max_final_distance": rep.max_final_distance,
        "worst_order": list(rep.worst_order),
        **_order_cert(rep),
    }


def _projector_commutator(inst) -> float:
    pset = sub_mod.canonical_hamiltonian(inst.psi, inst.neighborhoods, inst.space)
    return float(np.max(sub_mod.pairwise_projector_commutators(pset)))


def _repro_dicke_fts(seed):
    inst = states_mod.dicke(4, 2)
    row = sub_mod.check_small_schmidt_span(inst.psi, inst.neighborhoods, inst.space).per_neighborhood[0]
    ugen, _, ver = _ugen_and_fts(inst, seed)
    prop4 = sub_mod.check_commuting_projectors(inst.psi, inst.neighborhoods, inst.space)
    checks = {
        "schmidt_dim == 2": row["schmidt_dim"] == 2,
        "neighborhood_dim == 8": row["neighborhood_dim"] == 8,
        "unitary generation": ugen.ok,
        "ugen target_dim == 226": ugen.target_dim == 226,
        "final_distance < 1e-10": ver.max_final_distance < 1e-10,
        "prop4 commutator > 1e-3": prop4.max_norm > 1e-3,
    }
    return checks, {
        "schmidt_dim": row["schmidt_dim"],
        "neighborhood_dim": row["neighborhood_dim"],
        **_ugen_cert(ugen),
        "final_distance": ver.max_final_distance,
        **_fts_cert(ver),
        "prop4_max_commutator": prop4.max_norm,
    }


def _repro_aklt_not_fts(seed):
    inst = states_mod.aklt32_cubic()
    qls = sub_mod.check_qls(inst.psi, inst.neighborhoods, inst.space)
    spans = [sub_mod.schmidt_span(inst.psi, nk, inst.space).dim for nk in inst.neighborhoods]
    nb_dims = [inst.space.dim_of(nk) for nk in inst.neighborhoods]
    checks = {
        "qls": qls.qls,
        "every span dim == 9": all(s == 9 for s in spans),
        "every 2 * span dim > neighborhood dim": all(2 * s > m for s, m in zip(spans, nb_dims)),
    }
    return checks, {"qls": qls.qls, "schmidt_dims": spans, "neighborhood_dims": nb_dims}


def _repro_vbs_fts(n, spans, seed):
    inst = states_mod.vbs_1d(n)
    dims = [sub_mod.schmidt_span(inst.psi, nk, inst.space).dim for nk in inst.neighborhoods]
    ugen, cert, ver = _ugen_and_fts(inst, seed)
    checks = {
        f"span dims == {spans}": dims == spans,
        "unitary generation": ugen.ok,
        "final_distance < 1e-10": ver.max_final_distance < 1e-10,
    }
    return checks, {
        "schmidt_dims": dims,
        **_ugen_cert(ugen),
        "ranks": list(cert.ranks),
        "final_distance": ver.max_final_distance,
        **_fts_cert(ver),
    }


def _repro_graph_rfts(inst, seed):
    tight = [set(chan_mod.kraus_support(c, inst.space)) for c in inst.witness_channels]
    rep = rfts_mod.verify_robustness(
        list(inst.witness_channels), inst.psi, inst.space, tol=1e-9, seed=seed
    )
    comm = _projector_commutator(inst)
    checks = {
        "tight supports inside neighborhoods": all(
            any(s <= set(nk) for nk in inst.neighborhoods) for s in tight
        ),
        "invariant, final_distance < 1e-9": rep.passed,
        "every order run": rep.exhaustive,
        "projector commutator < 1e-9": comm < 1e-9,
    }
    return checks, {**_robustness_cert(rep), "max_pairwise_commutator": comm}


def _repro_ccz_triangle(seed):
    inst = states_mod.ccz_triangle()
    rep = rfts_mod.verify_robustness(list(inst.witness_channels), inst.psi, inst.space, seed=seed)
    res = rfts_mod.check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space, seed=seed)
    # the triangle coarse-grains to one particle restricted to the span of
    # the target: one trivial factor
    checks = {
        "invariant, final_distance < 1e-8": rep.passed,
        "every order run": rep.exhaustive,
        "algebraic rfts": res.ok,
        "prod(factor_dims) == h_tilde_dim": res.ok and (
            math.prod(res.factor_dims) == res.factorization.support.h_tilde_dim
        ),
    }
    return checks, {**_robustness_cert(rep), "factor_dims": list(res.factor_dims)}


def _repro_ccz_kagome(seed):
    inst = states_mod.ccz_kagome(2, 2)
    witnesses = list(inst.witness_channels)
    commute = rfts_mod.channels_commute_pairwise(witnesses, inst.space, seed=seed)
    rep = rfts_mod.verify_robustness(
        witnesses, inst.psi, inst.space, trials=3, seed=seed,
        n_random_inputs=0, distance_exact_limit=256,
    )
    res = rfts_mod.check_algebraic_rfts(inst.psi, inst.neighborhoods, inst.space, seed=seed)
    checks = {
        "channel commutator < 1e-9": commute < 1e-9,
        "invariant, final_distance < 1e-8": rep.passed,
        "algebraic rfts": res.ok,
        "factor_dims == site dims": res.factor_dims == tuple(inst.space.dims),
    }
    return checks, {
        **_robustness_cert(rep),
        "max_channel_commutator": commute,
        "factor_dims": list(res.factor_dims),
    }


def _repro_w_product(seed):
    inst = states_mod.w_product_9()
    comm = _projector_commutator(inst)
    rep = rfts_mod.verify_robustness(
        list(inst.witness_channels), inst.psi, inst.space,
        tol=1e-9, seed=seed, distance_exact_limit=256,
    )
    ev, vec = np.linalg.eigh(states_mod.w_product_commuting_hamiltonian(inst))
    checks = {
        "projector commutator > 1e-3": comm > 1e-3,
        "invariant, final_distance < 1e-9": rep.passed,
        "every order run": rep.exhaustive,
        "commuting H: ground energy < 1e-10": ev[0] < 1e-10,
        "commuting H: gap > 0.5": ev[1] > 0.5,
        "commuting H: |<ground|psi>| == 1 to 1e-9": abs(abs(vec[:, 0].conj() @ inst.psi) - 1) < 1e-9,
    }
    return checks, {
        "max_pairwise_commutator": comm,
        **_robustness_cert(rep),
        "alternative_hamiltonian_kernel_dim": int(np.sum(ev < 1e-10)),
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
    checks = {"superop_defect_12 < 1e-9": d12 < 1e-9, "superop_defect_21 < 1e-9": d21 < 1e-9}
    return checks, {"superop_defect_12": d12, "superop_defect_21": d21}


def _layering_checks(layer, lattice, depth):
    inst, layering = layer(lattice)
    rep = sched_mod.depth_report(inst, layering)
    checks = {f"depth == {depth}": layering.depth == depth,
              "layers disjoint": rep.disjoint_ok, "layers cover": rep.coverage_ok}
    return checks, rep, layering


def _repro_chain_depth3(seed):
    checks, rep, layering = _layering_checks(sched_mod.layer_generic, sched_mod.chain_next_nn(9), 3)
    return checks, {"depth": layering.depth, "size": rep.size}


def _repro_kagome_depth12(seed):
    checks, rep, layering = _layering_checks(sched_mod.layer_generic, sched_mod.kagome_lattice(2, 2), 12)
    return checks, {"depth": layering.depth, "size": rep.size}


def _repro_graph_depth5(seed):
    checks, rep, layering = _layering_checks(sched_mod.layer_graph2d, sched_mod.square_cross(5), 5)
    return checks, {"depth": layering.depth, "layer_sizes": [len(l) for l in layering.layers]}


def _repro_ising_gibbs(seed):
    inst = states_mod.ising_gibbs(8, 1.0, 1.0)
    cov = states_mod.ising_zz_covariance(inst, 0, 5)
    return {"|zz covariance(1, 6)| > 1e-3": abs(cov) > 1e-3}, {"zz_covariance_1_6": cov}


def _repro_graph_line6_probes(seed):
    inst = states_mod.line_graph_state(6)
    probe = rfts_mod.correlation_probe(inst.psi, [0], [5], inst.space, nstruct=inst.neighborhoods)
    exp_a = set(hilbert.neighborhood_expansion(inst.neighborhoods, [0]))
    c_region = sorted(exp_a - {0})
    b_region = [i for i in range(6) if i not in exp_a][-2:]
    cmi = rfts_mod.cmi(inst.psi, [0], b_region, c_region, inst.space)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    depolarize = chan_mod.make_channel([p / 2 for p in paulis], [0], label="depolarize")
    rec = rfts_mod.recoverability_probe(
        list(inst.witness_channels), inst.psi, [0], depolarize, inst.space
    )
    checks = {
        "expansions of sites 1 and 6 disjoint": probe.expansions_disjoint,
        "max covariance(1, 6) < 1e-8": probe.max_abs_covariance < 1e-8,
        "cmi < 1e-8": cmi < 1e-8,
        "recovered after depolarizing site 1": rec.recovered,
    }
    return checks, {
        "max_abs_covariance": probe.max_abs_covariance,
        "cmi": cmi,
        "cmi_regions": {"b": [i + 1 for i in b_region], "c": [i + 1 for i in c_region]},
        "recovery_distance": rec.distance,
    }


def _repro_no_go(seed):
    rep = _amplitude_damping_no_go(41)
    checks = {"min_distance > 1e-6": rep.min_distance > 1e-6, "monotone": rep.monotone}
    return checks, {"min_distance": rep.min_distance}


def _repro_rapid_mixing(seed):
    fams = _line_graph_families((3, 4, 5, 6))
    ts = [1.5, 2.5, 4.0, 6.0]
    rep = mixing_mod.rapid_mixing_check(fams, ts=ts)
    whole = {(n, t): lo for n, t, lo, _ in rep.samples}
    additive = all(
        whole[fam.space.n_subsystems, t]
        <= sum(fam.eta_single_channel(k, t) for k in range(len(fam.channels))) + 1e-6
        for fam in fams[:2] for t in ts
    )
    checks = {
        "gamma >= nu - 0.05 and delta <= 1.1": rep.passed,
        "gamma >= 0.95": rep.gamma >= 0.95,
        "eta <= sum of single-channel etas + 1e-6 (n = 3, 4)": additive,
    }
    return checks, {"gamma": rep.gamma, "delta": rep.delta, "nu": rep.nu,
                    "applies": sum(fam.applies for fam in fams), **_mixing_proof_fields(rep)}


REPRODUCTIONS = {
    "dicke-fts": _repro_dicke_fts,
    "aklt-not-fts": _repro_aklt_not_fts,
    "vbs3-fts": lambda seed: _repro_vbs_fts(3, [2, 2], seed),
    "vbs4-fts": lambda seed: _repro_vbs_fts(4, [2, 4, 2], seed),
    "graph-line3-rfts": lambda seed: _repro_graph_rfts(states_mod.line_graph_state(3), seed),
    "graph-line4-rfts": lambda seed: _repro_graph_rfts(states_mod.line_graph_state(4), seed),
    "graph-grid23-rfts": lambda seed: _repro_graph_rfts(states_mod.grid_graph_state(2, 3), seed),
    "ccz-triangle-rfts": _repro_ccz_triangle,
    "ccz-kagome-rfts": _repro_ccz_kagome,
    "w-product-robust": _repro_w_product,
    "nonfactorizable-252": _repro_nonfac,
    "chain-depth3": _repro_chain_depth3,
    "kagome-depth12": _repro_kagome_depth12,
    "graph-depth5": _repro_graph_depth5,
    "ising-gibbs-correlation": _repro_ising_gibbs,
    "graph-line6-probes": _repro_graph_line6_probes,
    "amplitude-damping-no-go": _repro_no_go,
    "graph-rapid-mixing": _repro_rapid_mixing,
}


def _reproduction(name: str, seed: int) -> dict:
    """Run one registry entry, timed, and print its PASS/FAIL line to stderr."""
    t0 = time.perf_counter()
    checks, cert = REPRODUCTIONS[name](seed)
    failed = [check for check, ok in checks.items() if not ok]
    elapsed = round(time.perf_counter() - t0, 3)
    line = f"[{'FAIL' if failed else 'PASS'}] {name} ({elapsed}s)"
    print(line + "".join(f"\n    failed: {check}" for check in failed), file=sys.stderr)
    return {"pass": not failed, "failed_checks": failed, "certificates": cert, "elapsed_seconds": elapsed}


def cmd_reproduce(args):
    if not args.all and args.name not in REPRODUCTIONS:
        raise InputError(f"unknown reproduction '{args.name}'; available:"
                         + "".join(f"\n  {n}" for n in sorted(REPRODUCTIONS)))
    names = sorted(REPRODUCTIONS) if args.all else [args.name]
    results = {name: _reproduction(name, args.seed) for name in names}
    verdicts = {name: r["pass"] for name, r in results.items()}
    return "reproduce", all(verdicts.values()), verdicts, results, {}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _checked(convert, ok, what: str):
    """An argparse type: `convert(text)`, which must satisfy `ok`; argparse
    exits 2, naming the flag, otherwise."""

    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return parse


_tolerance = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_time = _checked(float, lambda v: 0 <= v < math.inf, "a non-negative finite number")
_count = _checked(int, lambda v: v > 0, "a positive integer")
_nonnegative = _checked(int, lambda v: v >= 0, "a non-negative integer")


# the flags every command takes, before or after the subcommand, with their defaults
GLOBAL_FLAGS = {
    "--tol": dict(type=_tolerance, default=1e-8, help="verdict tolerance, positive and finite"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--threads": dict(type=_count, default=None, help="BLAS thread bound, at least 1"),
    "--output": dict(default=None, help="write the JSON report here"),
}


def build_parser() -> argparse.ArgumentParser:
    # The top-level parser holds the defaults of the global flags. Each
    # subcommand has its own copies, which default to SUPPRESS, so a
    # subcommand writes only the flags given after it and never resets one
    # given before it. The two sets must be distinct actions: a default set on
    # an action shared with the subcommands would be theirs too.
    common = argparse.ArgumentParser(add_help=False)
    p = argparse.ArgumentParser(
        prog="qlstab",
        description="Finite-time stabilization by quasi-local dissipative circuits",
    )
    for flag, kw in GLOBAL_FLAGS.items():
        p.add_argument(flag, **kw)
        common.add_argument(flag, **{**kw, "default": argparse.SUPPRESS})
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", parents=[common],
                        help="decision procedures on a problem file")
    pc.add_argument("what", choices=CHECKS)
    pc.add_argument("problem")
    pc.set_defaults(fn=cmd_check)

    ps = sub.add_parser("synth", parents=[common], help="synthesize a stabilizing circuit")
    ps.add_argument("what", choices=["fts", "rfts"])
    ps.add_argument("problem")
    ps.add_argument("--circuit", default=None, help="write the circuit JSON here")
    ps.add_argument("--force", action="store_true",
                    help="skip the precondition checks")
    ps.add_argument("--trials", type=_nonnegative, default=5,
                    help="rfts: random step orders run beside the identity order when there are "
                         "more than 720 orders and the commuting bound does not decide; fts draws no "
                         "input (its circuit is proved for every input from one I/D run)")
    ps.set_defaults(fn=cmd_synth)

    pm = sub.add_parser("simulate", parents=[common], help="run a circuit file")
    pm.add_argument("circuit")
    pm.add_argument("--problem", default=None, help="problem file holding the target")
    pm.add_argument("--initial", default="mixed",
                    help="'mixed', 'random', or a state-vector JSON file")
    pm.add_argument("--trials", type=_count, default=1)
    pm.add_argument("--shuffle", action="store_true",
                    help="also run random step orders")
    pm.add_argument("--trajectory", default=None,
                    help="write the trajectory CSV here; the points before the last are evaluated only for it")
    pm.set_defaults(fn=cmd_simulate)

    px = sub.add_parser("mixing", parents=[common], help="continuous-time mixing analysis")
    px.add_argument("problem", nargs="?")
    px.add_argument("--ts", type=_time, nargs="*", default=None, help="times of the eta samples, at least 0")
    px.add_argument("--no-go", action="store_true",
                    help="run the amplitude-damping finite-time no-go probe")
    px.add_argument("--family-sizes", type=_count, nargs="+", default=None,
                    help="rapid-mixing fit over line-graph chains of these sizes")
    px.add_argument("--samples", type=_count, default=21, help="no-go: times sampled on [0, 10]")
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
    t0 = time.perf_counter()
    try:
        task, ok, verdicts, certificates, tolerances = args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, MemoryError) as exc:
        print(f"cap exceeded: {exc or type(exc).__name__}", file=sys.stderr)
        return 3
    except ChannelError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    _emit({
        "task": task,
        "pass": bool(ok),
        "verdicts": verdicts,
        "certificates": certificates,
        "tolerances": tolerances,
        "seed": args.seed,
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "version": __version__,
    }, args.output)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
