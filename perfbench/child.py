"""One benchmark operation in its own process.

    python3 perfbench/child.py --workload W --seed S --workdir D --out F [--trace] [--setup-only]

Imports qlstab from the checkout's `src/`, builds the workload's instances
(set-up), runs one op unless `--setup-only`, and writes a JSON result to F:
set-up and op wall times, per-stage times, the verdicts, every mismatch with
the expected values, and with `--trace` the per-layer metrics. A check that
fails is reported in the result, not by the exit code; the exit code is
non-zero only when set-up itself fails.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


class Recorder:
    """Stage timers and verdict checks for one op."""

    STAGES = ("decide", "synth", "verify", "mix")

    def __init__(self):
        self.stages = dict.fromkeys(self.STAGES, 0.0)
        self.verdicts: dict = {}
        self.values: dict = {}
        self.failures: list[str] = []

    @contextlib.contextmanager
    def stage(self, name: str):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] += time.perf_counter() - t

    def check(self, name: str, got, expected) -> None:
        got = json.loads(json.dumps(got))
        self.verdicts[name] = got
        if got != json.loads(json.dumps(expected)):
            self.failures.append(f"{name}: got {got!r}, expected {expected!r}")

    def _bound(self, name: str, value: float, ok: bool, relation: str) -> None:
        self.values[name] = float(value)
        self.verdicts[name] = bool(ok)
        if not ok:
            self.failures.append(f"{name}: {value!r} is not {relation}")

    def check_below(self, name: str, value: float, limit: float) -> None:
        self._bound(name, value, value < limit, f"< {limit}")

    def check_above(self, name: str, value: float, limit: float) -> None:
        self._bound(name, value, value > limit, f"> {limit}")


def program_environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threadpoolctl": ("present" if importlib.util.find_spec("threadpoolctl")
                          else "absent, so `qlstab --threads` has no effect"),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path[:0] = [SRC, HERE]
    import workloads
    import qlstab

    if not os.path.abspath(qlstab.__file__).startswith(SRC + os.sep):
        print(f"qlstab imported from {qlstab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup, op = workloads.WORKLOADS[args.workload]
    ctx = setup(args.workdir)
    result = {"setup_s": time.perf_counter() - T0}
    if args.setup_only:
        result["env"] = program_environment()
    else:
        rec = Recorder()
        if tracer is not None:
            tracer.op = f"op{args.seed}"
        t = time.perf_counter()
        try:
            op(ctx, args.seed, rec)
        except Exception as exc:  # the op's failure is a result, not a crash of the benchmark
            traceback.print_exc()
            rec.failures.append(f"exception: {type(exc).__name__}: {exc}")
        result.update(op_s=time.perf_counter() - t, stages=rec.stages, verdicts=rec.verdicts,
                      values=rec.values, failures=rec.failures)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
