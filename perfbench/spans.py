"""Span tracer for the per-layer run.

`Tracer.install()` replaces each listed qlstab function with a timing wrapper
for the life of the process. A function imported elsewhere with
`from .x import y` is bound under its name in several modules, so every
module-level binding that is the original object is replaced, not only the
one in the defining module. Methods are wrapped on their class.

Spans stay in memory as (name, start, end, parent, op) rows plus a dict of
counters, read from results or computed from array shapes; `layer_metrics()`
turns them into the per-layer metrics named in BENCHMARK.json. Nothing is
written until the child process hands the metrics back at its end.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

MODULES = (
    "qlstab._linalg", "qlstab.hilbert", "qlstab.subspaces", "qlstab.channels",
    "qlstab.lie", "qlstab.fts", "qlstab.rfts", "qlstab.mixing", "qlstab.states",
    "qlstab.scheduler", "qlstab.cli",
)

# constructors used by the workloads; each call is one `states.build` span
STATE_CONSTRUCTORS = (
    "graph_state", "line_graph_state", "grid_graph_state", "ccz_triangle",
    "ccz_kagome", "triangular_patch", "dicke", "vbs_1d", "aklt32_cubic",
    "w_product_9", "nonfactorizable_252", "ising_gibbs",
)


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


def _apply_name(args, kwargs):
    ch, space = args[0], args[2] if len(args) > 2 else kwargs["space"]
    return "channels.apply.full" if len(ch.support) == space.n_subsystems else "channels.apply.local"


def _apply_counters(args, kwargs, result):
    ch, rho = args[0], args[1]
    d = rho.shape[0]
    k = len(ch.kraus)
    if ch.local_dim == d:
        # two dense complex D x D products per Kraus operator, 8 real flops per MAC
        return {"flops": 2 * k * 8 * d ** 3}
    # computed model: the permutations in and out, and per Kraus operator two
    # contractions, each read the complex D x D state once and write it once
    return {"bytes": (4 + 4 * k) * d * d * 16}


def _check_qls_name(args, kwargs):
    from qlstab import subspaces

    space = args[2] if len(args) > 2 else kwargs["space"]
    path = "iterative" if space.total_dim > subspaces.DENSE_DIM_LIMIT else "dense"
    return f"subspaces.check_qls.{path}"


def _commutant_counters(args, kwargs, result):
    ops = list(args[0]) if args else list(kwargs.get("ops", []))
    m = result.ambient_dim
    rows, cols = max(len(ops), 1) * m * m, m * m
    # computed: singular values and right vectors of the stacked rows x cols
    # commutator system, 4 r c^2 + 8 c^3 real flops (Golub & Van Loan), x4 for complex
    return {"flops": 4 * (4 * rows * cols * cols + 8 * cols ** 3) if ops else 0,
            "fallback_calls": 1 if len(ops) > 2 else 0}


def _ugen_counters(args, kwargs, result):
    return {"passes": int(result.passes),
            "exhaustive_calls": 1 if "exhaustive" in str(result.method) else 0}


def _synth_counters(args, kwargs, result):
    circ = result[0]
    return {
        "steps": len(circ.steps),
        "dense_steps": sum(len(c.support) == circ.space.n_subsystems for c in circ.steps),
        "circuit.bytes": sum(_nbytes(k) for c in circ.steps for k in c.kraus),
    }


def _robustness_counters(args, kwargs, result):
    return {"orders": int(result.orders_run)}


def _cmd_synth_counters(args, kwargs, result):
    path = getattr(args[0], "circuit", None)
    return {"circuit_file.bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


def _permute_counters(args, kwargs, result):
    return {"bytes": _nbytes(args[0]) + _nbytes(result)}


# (module, attribute, span name or naming function, counters function)
SPECS = [
    ("qlstab.hilbert", "permute_subsystems", "hilbert.permute_subsystems", _permute_counters),
    ("qlstab.hilbert", "embed", "hilbert.embed", None),
    ("qlstab.hilbert", "partial_trace", "hilbert.partial_trace", None),
    ("qlstab.hilbert", "reduced_state_of_pure", "hilbert.reduced_state_of_pure", None),
    ("qlstab.subspaces", "schmidt_span", "subspaces.schmidt_span", None),
    ("qlstab.subspaces", "check_qls", _check_qls_name, None),
    ("qlstab.subspaces", "intersect", "subspaces.intersect", None),
    ("qlstab.subspaces", "canonical_hamiltonian", "subspaces.canonical_hamiltonian", None),
    ("qlstab.subspaces", "pairwise_projector_commutators",
     "subspaces.pairwise_projector_commutators", None),
    ("qlstab.channels", "apply", _apply_name, _apply_counters),
    ("qlstab.channels", "run", "channels.run", None),
    ("qlstab.channels", "state_rank", "channels.state_rank", None),
    ("qlstab.channels", "check_invariance", "channels.check_invariance", None),
    ("qlstab.channels", "compose", "channels.compose", None),
    ("qlstab.channels", "superoperator", "channels.superoperator", None),
    ("qlstab.channels", "kraus_support", "channels.kraus_support", None),
    ("qlstab._linalg", "trace_distance", "_linalg.trace_distance", None),
    ("qlstab.lie", "check_unitary_generation", "lie.check_unitary_generation", _ugen_counters),
    ("qlstab.lie", "neighborhood_stabilizer_algebra", "lie.neighborhood_stabilizer_algebra", None),
    ("qlstab.lie", "stabilizer_algebra", "lie.stabilizer_algebra", None),
    ("qlstab.fts", "plan_fts", "fts.plan_fts", None),
    ("qlstab.fts", "synthesize_fts", "fts.synthesize_fts", _synth_counters),
    ("qlstab.fts", "verify_fts", "fts.verify_fts", None),
    ("qlstab.rfts", "check_algebraic_rfts", "rfts.check_algebraic_rfts", None),
    ("qlstab.rfts", "local_support", "rfts.local_support", None),
    ("qlstab.rfts", "neighborhood_algebra", "rfts.neighborhood_algebra", None),
    ("qlstab.rfts", "commutant", "rfts.commutant", _commutant_counters),
    ("qlstab.rfts", "AlgebraBasis.center_dim", "rfts.AlgebraBasis.center_dim", None),
    ("qlstab.rfts", "factor_representation", "rfts.factor_representation", None),
    ("qlstab.rfts", "build_rfts_circuit", "rfts.build_rfts_circuit", None),
    ("qlstab.rfts", "verify_robustness", "rfts.verify_robustness", _robustness_counters),
    ("qlstab.rfts", "channels_commute_pairwise", "rfts.channels_commute_pairwise", None),
    ("qlstab.rfts", "correlation_probe", "rfts.correlation_probe", None),
    ("qlstab.rfts", "cmi", "rfts.cmi", None),
    ("qlstab.rfts", "recoverability_probe", "rfts.recoverability_probe", None),
    ("qlstab.mixing", "rapid_mixing_check", "mixing.rapid_mixing_check", None),
    ("qlstab.mixing", "CommutingResetFamily.eta_sample",
     "mixing.CommutingResetFamily.eta_sample", None),
    ("qlstab.mixing", "CommutingResetFamily.eta_single_channel",
     "mixing.CommutingResetFamily.eta_single_channel", None),
    ("qlstab.mixing", "CommutingResetFamily.per_channel_gap",
     "mixing.CommutingResetFamily.per_channel_gap", None),
    ("qlstab.mixing", "no_go_probe", "mixing.no_go_probe", None),
    ("qlstab.scheduler", "layer_generic", "scheduler.layer_generic", None),
    ("qlstab.scheduler", "layer_graph2d", "scheduler.layer_graph2d", None),
    ("qlstab.cli", "load_problem", "cli.load_problem", None),
    ("qlstab.cli", "circuit_to_json", "cli.circuit_to_json", None),
    ("qlstab.cli", "circuit_from_json", "cli.circuit_from_json", None),
    ("qlstab.cli", "cmd_synth", "cli.cmd_synth", _cmd_synth_counters),
    ("qlstab.cli", "cmd_simulate", "cli.cmd_simulate", None),
] + [("qlstab.states", name, "states.build", None) for name in STATE_CONSTRUCTORS]

# every per-layer metric, in BENCHMARK.json order; each is one of
#   ("calls", span) / ("self_s", span) / ("counter", span, key) / ("under", span, ancestor prefix)
PER_LAYER = {
    "hilbert.permute_subsystems.calls": ("calls", "hilbert.permute_subsystems"),
    "hilbert.permute_subsystems.self_s": ("self_s", "hilbert.permute_subsystems"),
    "hilbert.permute_subsystems.bytes": ("counter", "hilbert.permute_subsystems", "bytes"),
    "hilbert.embed.calls": ("calls", "hilbert.embed"),
    "hilbert.embed.self_s": ("self_s", "hilbert.embed"),
    "hilbert.partial_trace.self_s": ("self_s", "hilbert.partial_trace"),
    "hilbert.reduced_state_of_pure.self_s": ("self_s", "hilbert.reduced_state_of_pure"),
    "subspaces.schmidt_span.calls": ("calls", "subspaces.schmidt_span"),
    "subspaces.schmidt_span.self_s": ("self_s", "subspaces.schmidt_span"),
    "subspaces.check_qls.dense.self_s": ("self_s", "subspaces.check_qls.dense"),
    "subspaces.check_qls.iterative.self_s": ("self_s", "subspaces.check_qls.iterative"),
    "subspaces.intersect.self_s": ("self_s", "subspaces.intersect"),
    "subspaces.canonical_hamiltonian.self_s": ("self_s", "subspaces.canonical_hamiltonian"),
    "subspaces.pairwise_projector_commutators.self_s":
        ("self_s", "subspaces.pairwise_projector_commutators"),
    "channels.apply.local.calls": ("calls", "channels.apply.local"),
    "channels.apply.local.self_s": ("self_s", "channels.apply.local"),
    "channels.apply.local.bytes": ("counter", "channels.apply.local", "bytes"),
    "channels.apply.full.calls": ("calls", "channels.apply.full"),
    "channels.apply.full.self_s": ("self_s", "channels.apply.full"),
    "channels.apply.full.flops": ("counter", "channels.apply.full", "flops"),
    "channels.run.self_s": ("self_s", "channels.run"),
    "channels.state_rank.calls": ("calls", "channels.state_rank"),
    "channels.state_rank.self_s": ("self_s", "channels.state_rank"),
    "channels.check_invariance.self_s": ("self_s", "channels.check_invariance"),
    "channels.compose.self_s": ("self_s", "channels.compose"),
    "channels.superoperator.self_s": ("self_s", "channels.superoperator"),
    "channels.kraus_support.self_s": ("self_s", "channels.kraus_support"),
    "linalg.trace_distance.calls": ("calls", "_linalg.trace_distance"),
    "linalg.trace_distance.self_s": ("self_s", "_linalg.trace_distance"),
    "lie.check_unitary_generation.calls": ("calls", "lie.check_unitary_generation"),
    "lie.check_unitary_generation.self_s": ("self_s", "lie.check_unitary_generation"),
    "lie.ugen.passes": ("counter", "lie.check_unitary_generation", "passes"),
    "lie.ugen.exhaustive_calls": ("counter", "lie.check_unitary_generation", "exhaustive_calls"),
    "lie.neighborhood_stabilizer_algebra.self_s": ("self_s", "lie.neighborhood_stabilizer_algebra"),
    "lie.stabilizer_algebra.self_s": ("self_s", "lie.stabilizer_algebra"),
    "fts.plan_fts.self_s": ("self_s", "fts.plan_fts"),
    "fts.synthesize_fts.self_s": ("self_s", "fts.synthesize_fts"),
    "fts.verify_fts.self_s": ("self_s", "fts.verify_fts"),
    "fts.steps": ("counter", "fts.synthesize_fts", "steps"),
    "fts.dense_steps": ("counter", "fts.synthesize_fts", "dense_steps"),
    "fts.circuit.bytes": ("counter", "fts.synthesize_fts", "circuit.bytes"),
    "rfts.check_algebraic_rfts.self_s": ("self_s", "rfts.check_algebraic_rfts"),
    "rfts.local_support.self_s": ("self_s", "rfts.local_support"),
    "rfts.neighborhood_algebra.calls": ("calls", "rfts.neighborhood_algebra"),
    "rfts.neighborhood_algebra.self_s": ("self_s", "rfts.neighborhood_algebra"),
    "rfts.commutant.calls": ("calls", "rfts.commutant"),
    "rfts.commutant.self_s": ("self_s", "rfts.commutant"),
    "rfts.commutant.flops": ("counter", "rfts.commutant", "flops"),
    "rfts.commutant.fallback_calls": ("counter", "rfts.commutant", "fallback_calls"),
    "rfts.AlgebraBasis.center_dim.self_s": ("self_s", "rfts.AlgebraBasis.center_dim"),
    "rfts.factor_representation.calls": ("calls", "rfts.factor_representation"),
    "rfts.factor_representation.self_s": ("self_s", "rfts.factor_representation"),
    "rfts.build_rfts_circuit.self_s": ("self_s", "rfts.build_rfts_circuit"),
    "rfts.verify_robustness.self_s": ("self_s", "rfts.verify_robustness"),
    "rfts.verify_robustness.orders": ("counter", "rfts.verify_robustness", "orders"),
    "rfts.verify_robustness.applies": ("under", "channels.apply", "rfts.verify_robustness"),
    "rfts.channels_commute_pairwise.self_s": ("self_s", "rfts.channels_commute_pairwise"),
    "rfts.correlation_probe.self_s": ("self_s", "rfts.correlation_probe"),
    "rfts.cmi.self_s": ("self_s", "rfts.cmi"),
    "rfts.recoverability_probe.self_s": ("self_s", "rfts.recoverability_probe"),
    "mixing.rapid_mixing_check.self_s": ("self_s", "mixing.rapid_mixing_check"),
    "mixing.CommutingResetFamily.eta_sample.calls": ("calls", "mixing.CommutingResetFamily.eta_sample"),
    "mixing.CommutingResetFamily.eta_sample.self_s":
        ("self_s", "mixing.CommutingResetFamily.eta_sample"),
    "mixing.CommutingResetFamily.eta_single_channel.self_s":
        ("self_s", "mixing.CommutingResetFamily.eta_single_channel"),
    "mixing.CommutingResetFamily.per_channel_gap.self_s":
        ("self_s", "mixing.CommutingResetFamily.per_channel_gap"),
    "mixing.no_go_probe.self_s": ("self_s", "mixing.no_go_probe"),
    "mixing.applies": ("under", "channels.apply", "mixing."),
    "states.build.self_s": ("self_s", "states.build"),
    "scheduler.layer_generic.self_s": ("self_s", "scheduler.layer_generic"),
    "scheduler.layer_graph2d.self_s": ("self_s", "scheduler.layer_graph2d"),
    "cli.load_problem.self_s": ("self_s", "cli.load_problem"),
    "cli.circuit_to_json.self_s": ("self_s", "cli.circuit_to_json"),
    "cli.circuit_from_json.self_s": ("self_s", "cli.circuit_from_json"),
    "cli.cmd_synth.self_s": ("self_s", "cli.cmd_synth"),
    "cli.cmd_simulate.self_s": ("self_s", "cli.cmd_simulate"),
    "cli.circuit_file.bytes": ("counter", "cli.cmd_synth", "circuit_file.bytes"),
}


# metrics derived from array shapes rather than measured
COMPUTED = {
    "hilbert.permute_subsystems.bytes", "channels.apply.local.bytes", "channels.apply.full.flops",
    "rfts.commutant.flops", "fts.circuit.bytes",
}


class Tracer:
    """Records one span per call of every function in SPECS."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counters]
        self._stack: list[int] = []
        self.op = "setup"

    def _wrap(self, fn, name, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            row = [span_name, 0.0, 0.0, parent, tracer.op, None]
            tracer.spans.append(row)
            tracer._stack.append(idx)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                tracer._stack.pop()
            if counters is not None:
                row[5] = counters(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for modname, attr, name, counters in SPECS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], name, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counters)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _n, start, end, _p, _o, _c in self.spans]
        for _n, start, end, parent, _o, _c in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict:
        """Per-layer metrics over every recorded span (set-up and op), plus
        `_layer_self_s`: op self time summed by layer, rfts algebra apart."""
        own = self._self_times()
        calls: dict = {}
        self_s: dict = {}
        counters: dict = {}
        layers: dict = {}
        for i, (name, _s, _e, _p, op, ctr) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i]
            for key, value in (ctr or {}).items():
                counters[(name, key)] = counters.get((name, key), 0) + value
            if op != "setup":
                layer = _layer_of(name)
                layers[layer] = layers.get(layer, 0.0) + own[i]
        out = {}
        for metric, spec in PER_LAYER.items():
            kind = spec[0]
            if kind == "calls":
                out[metric] = calls.get(spec[1], 0)
            elif kind == "self_s":
                out[metric] = self_s.get(spec[1], 0.0)
            elif kind == "counter":
                out[metric] = counters.get((spec[1], spec[2]), 0)
            else:
                out[metric] = self._count_under(spec[1], spec[2])
        out["_layer_self_s"] = layers
        return out

    def _count_under(self, prefix: str, ancestor: str) -> int:
        """Spans named `prefix...` that have an ancestor named `ancestor...`."""
        n = 0
        for name, _s, _e, parent, _op, _c in self.spans:
            if not name.startswith(prefix):
                continue
            while parent >= 0:
                if self.spans[parent][0].startswith(ancestor):
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n


RFTS_ALGEBRA = {
    "rfts.check_algebraic_rfts", "rfts.local_support", "rfts.neighborhood_algebra",
    "rfts.commutant", "rfts.AlgebraBasis.center_dim", "rfts.factor_representation",
}


def _layer_of(span: str) -> str:
    if span in RFTS_ALGEBRA:
        return "rfts.algebra"
    if span.startswith("channels.apply"):
        return "channels.apply"
    return span.split(".")[0].lstrip("_")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(".flops"):
        return "flop"
    return "count"
