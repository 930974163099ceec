"""qlstab benchmark: time to a verdict, a circuit, a verified circuit and a
mixing analysis, per workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --self-check [--seed N]

Run from the root of a qlstab checkout. Each op runs in its own child process
(`child.py`), one at a time, in a closed loop: one client, and the next op
starts when the previous one has ended. Ops start until S seconds have passed
(at least one). The child gets one BLAS thread and an address-space cap, so
an op that runs out of memory is recorded as failed with its peak RSS and the
run goes on.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics, each the median over the run's ops (set-up: over the
run's child processes). With `--trace 1` the ops run under the span tracer of
`spans.py`; the last line holds the per-layer metrics, the tracing overhead
(traced minus untraced op time) and the time of one op with as many BLAS
threads as cores, which is reported and not gated. Earlier lines print every
metric by name with its unit and sample count, the environment, and each
failed check.

`--self-check` runs every workload once on two seeds and flags any verdict
that differs between them, then runs `qlstab synth fts` on the D = 729 chain
without `--force` under the memory cap, which is expected to fail and be
contained.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("fts-vbs6", "rfts-kagome", "certify-corpus")
NPROC = len(os.sched_getaffinity(0))
# BLAS threads for every gated op. With two threads on two cores, op times
# jumped by up to 40% between runs and the iterative QLS path ran sixty times
# slower; one thread kept the runs steady. The traced run reports one op with
# NPROC threads beside it.
BLAS_THREADS = 1
# address-space cap per child: the heaviest gated op peaks near 0.5 GB resident
MEMORY_CAP_BYTES = 2 << 30
SETUP_SAMPLES = 5
# a child still running after this is killed and its op counted as failed
CHILD_TIMEOUT_S = 120
END_TO_END = (
    ("op_s", "s"), ("decide_s", "s"), ("synth_s", "s"), ("verify_s", "s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

# reported by the traced run next to the per-layer metrics of spans.PER_LAYER
TRACE_EXTRA = ["trace.overhead_s", "blas_nproc.op_s"]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


class Runner:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, workload: str, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.n = 0

    def child(self, seed: int, threads: int = BLAS_THREADS, trace: bool = False,
              setup_only: bool = False, workload: str | None = None) -> dict:
        self.n += 1
        out = os.path.join(self.workdir, f"result-{self.n}.json")
        log = os.path.join(self.workdir, f"child-{self.n}.log")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload or self.workload, "--seed", str(seed),
               "--workdir", self.workdir, "--out", out]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        t = time.perf_counter()
        with open(log, "w") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                    cwd=ROOT, preexec_fn=_limit_memory)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        res = {"exit": proc.returncode, "wall_s": time.perf_counter() - t,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "seed": seed, "threads": threads}
        if proc.returncode == 0 and os.path.exists(out):
            with open(out) as fh:
                res.update(json.load(fh))
        else:
            with open(log) as fh:
                tail = fh.read()[-2000:]
            how = (f"killed by signal {-proc.returncode}" if proc.returncode < 0
                   else f"exit code {proc.returncode}")
            res["failures"] = [f"child {how}: {tail.strip()}"]
        return res


def op_seed(seed: int, i: int) -> int:
    """Seed of the i-th op of a run: distinct per op, fixed by the run's seed."""
    return seed * 1000 + i


def median(values) -> float:
    return float(statistics.median(values))


def environment(seed: int, env: dict) -> dict:
    src = sorted(glob.glob(os.path.join(ROOT, "src", "qlstab", "*.py")))
    digest = hashlib.sha256()
    for path in src:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS",
        "memory_cap_bytes": MEMORY_CAP_BYTES,
        **env,
        "git_commit": commit or "unavailable (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "loop": "closed, one client, one op per child process",
    }


def run_ops(runner: Runner, seed: int, seconds: float, trace: bool) -> list[dict]:
    ops = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        ops.append(runner.child(op_seed(seed, len(ops)), trace=trace))
    return ops


def failed(res: dict) -> bool:
    return res.get("exit") != 0 or bool(res.get("failures"))


def print_failures(ops: list[dict]) -> None:
    for res in ops:
        for f in res.get("failures", []):
            print(f"FAILED op seed {res['seed']}: {f}")


def end_to_end(ops: list[dict], setups: list[float]) -> dict:
    good = [r for r in ops if "op_s" in r]
    samples = {
        "op_s": [r["op_s"] for r in good],
        "decide_s": [r["stages"]["decide"] for r in good],
        "synth_s": [r["stages"]["synth"] for r in good],
        "verify_s": [r["stages"]["verify"] for r in good],
        "mix_s": [r["stages"]["mix"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ops],
        "setup_s": setups,
    }
    return {k: (median(v) if v else float("nan"), v) for k, v in samples.items()}


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n <= 10:
        return "no tail percentile: fewer than 11 samples"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6f}"


def print_end_to_end(workload: str, stats: dict, ops: list[dict]) -> None:
    units = dict(END_TO_END, mix_s="s")
    print(f"workload {workload}: {len(ops)} ops, closed loop, one client")
    for name, (value, samples) in stats.items():
        gated = "" if name in dict(END_TO_END) else "  (reported, not gated: zero on workloads without this stage)"
        print(f"  {name:<12} {value:12.6f} {units[name]:<3} median of n={len(samples)}, "
              f"{tail(samples)}{gated}")
    n_failed = sum(failed(r) for r in ops)
    print(f"  {'failed_ops':<12} {n_failed / len(ops):12.6f} share  ({n_failed} of {len(ops)} ops)")
    for r in ops:
        stages = " ".join(f"{k} {v:.4f}" for k, v in r.get("stages", {}).items())
        print(f"    op seed {r['seed']}: op_s {r.get('op_s', float('nan')):.4f} ({stages}) "
              f"rss {r['peak_rss_mb']:.0f} MB {'FAILED' if failed(r) else 'ok'}")


def setup_samples(runner: Runner, seed: int, results: list[dict]) -> list[float]:
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES:
        res = runner.child(seed, setup_only=True)
        if "setup_s" not in res:
            break
        setups.append(res["setup_s"])
    return setups


def benchmark(args) -> int:
    if not os.path.exists(os.path.join(ROOT, "src", "qlstab", "__init__.py")):
        print(f"no qlstab source under {ROOT}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(args.workload, workdir)
    try:
        first = runner.child(args.seed, setup_only=True)
        if failed(first):
            print(f"set-up failed: {first['failures']}", file=sys.stderr)
            return 1
        env = environment(args.seed, first["env"])
        if args.trace:
            metrics, ops = traced(runner, args)
        else:
            ops = run_ops(runner, args.seed, args.seconds, trace=False)
            stats = end_to_end(ops, setup_samples(runner, args.seed, [first] + ops))
            print_end_to_end(args.workload, stats, ops)
            metrics = {name: {"value": stats[name][0], "unit": unit} for name, unit in END_TO_END}
        print_failures(ops)
        print("env " + json.dumps(env))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(k for k, m in metrics.items() if not math.isfinite(m["value"]))
    if missing:
        print(f"no op produced {', '.join(missing)}; see the failures above", file=sys.stderr)
        return 1
    n_failed = sum(failed(r) for r in ops)
    print(json.dumps({"correct": n_failed == 0, "attempted": len(ops), "failed": n_failed,
                      "metrics": metrics}))
    return 0


def traced(runner: Runner, args) -> tuple[dict, list[dict]]:
    traced_ops = run_ops(runner, args.seed, args.seconds, trace=True)
    plain = runner.child(op_seed(args.seed, len(traced_ops)))
    multi = runner.child(op_seed(args.seed, len(traced_ops) + 1), threads=NPROC)
    ops = traced_ops + [plain, multi]
    layered = [r["layers"] for r in traced_ops if "layers" in r]
    metrics = {}
    print(f"workload {args.workload}: traced run, {len(layered)} traced ops; "
          "per-layer values are medians over traced ops of per-process sums")
    print("  no layer waits on another inside one process, so no wait times are recorded")
    for name in spans.PER_LAYER:
        value = median([m[name] for m in layered]) if layered else float("nan")
        unit = spans.unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        idle = "  (absent: no call on this workload)" if value == 0 else (
            "  (computed from array shapes)" if name in spans.COMPUTED else "")
        print(f"  {name:<55} {value:16.6f} {unit}{idle}")
    traced_op = median([r["op_s"] for r in traced_ops if "op_s" in r])
    overhead = traced_op - plain.get("op_s", float("nan"))
    metrics[TRACE_EXTRA[0]] = {"value": overhead, "unit": "s"}
    metrics[TRACE_EXTRA[1]] = {"value": multi.get("op_s", float("nan")), "unit": "s"}
    print(f"  traced op_s {traced_op:.6f} s, untraced op_s {plain.get('op_s', float('nan')):.6f} s, "
          f"tracing overhead {overhead:.6f} s")
    print(f"  op_s with {NPROC} BLAS threads {multi.get('op_s', float('nan')):.6f} s "
          f"(not gated; gated runs use {BLAS_THREADS})")
    if layered:
        totals: dict = {}
        for m in layered:
            for layer, v in m["_layer_self_s"].items():
                totals.setdefault(layer, []).append(v)
        print("  self time by layer, share of traced op_s:")
        for layer, vs in sorted(totals.items(), key=lambda kv: -median(kv[1])):
            print(f"    {layer:<16} {median(vs):10.4f} s  {median(vs) / traced_op:6.1%}")
    return metrics, ops


def check_declared_metrics() -> bool:
    """BENCHMARK.json names the metrics, with the units, that this file prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    expected_layers = [(n, spans.unit_of(n)) for n in list(spans.PER_LAYER) + TRACE_EXTRA]
    ok = e2e == list(END_TO_END) and layers == expected_layers
    print("BENCHMARK.json metrics " + ("match" if ok else "DO NOT match") + " run.py and spans.py")
    return ok


def self_check(args) -> int:
    workdir = os.path.join(ROOT, ".bench_run", f"self-check-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ok = check_declared_metrics()
    try:
        for workload in WORKLOADS:
            runner = Runner(workload, workdir)
            a, b = runner.child(args.seed), runner.child(args.seed + 1)
            for res in (a, b):
                for f in res.get("failures", []):
                    ok = False
                    print(f"{workload} seed {res['seed']}: FAILED {f}")
            diff = sorted(k for k in set(a.get("verdicts", {})) | set(b.get("verdicts", {}))
                          if a.get("verdicts", {}).get(k) != b.get("verdicts", {}).get(k))
            ok &= not diff
            print(f"{workload}: seeds {a['seed']} and {b['seed']}: "
                  + (f"verdicts differ: {diff}" if diff else
                     f"{len(a.get('verdicts', {}))} verdicts identical"))
        runner = Runner("oom-probe", workdir)
        res = runner.child(args.seed)
        contained = failed(res)
        ok &= contained
        print(f"memory containment: synth fts without --force at D = 729 under a "
              f"{MEMORY_CAP_BYTES >> 30} GiB cap: "
              + ("recorded as failed" if contained else "did NOT fail")
              + f", peak RSS {res['peak_rss_mb']:.0f} MB; {res.get('failures', [''])[0][:200]}")
        after = runner.child(args.seed, workload="rfts-kagome")
        ok &= not failed(after)
        print(f"next op after the probe: {'passed' if not failed(after) else 'FAILED'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if args.self_check:
        return self_check(args)
    if args.all:
        rc = 0
        for args.workload in WORKLOADS:
            rc = benchmark(args) or rc
        return rc
    if not args.workload:
        p.error("--workload or --all is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
