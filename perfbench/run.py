"""obsurf benchmark: one workload, run as a closed loop in one process.

    python3 perfbench/run.py --workload peg_u --seed 0 --seconds 20 --trace 0

Measures set-up in fresh processes, runs a short untimed warm-up, then
whole passes of the workload for about --seconds, and checks every
output. The last line of standard output is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1);
the line before it carries informational fields. README.md explains
the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads, so every run uses the same BLAS threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "obsurf" / "__init__.py").is_file():
    sys.exit(f"run.py: no obsurf sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Run:
    """Passes of one workload, with failure counts over all of them.

    A unit whose output digest differs from the first pass that ran it
    fails all of its ops; this also compares traced with untraced
    passes.
    """

    def __init__(self, workload):
        self.workload = workload
        self.digests = []
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, max_units=None) -> list:
        if tracer is None:
            units = self.workload.run_pass(max_units)
        else:
            with tracer.installed():
                units = self.workload.run_pass(max_units)
        self.workload.check(units)
        for j, unit in enumerate(units):
            if j == len(self.digests):
                self.digests.append(unit.digest)
            if unit.digest != self.digests[j]:
                unit.failed = unit.attempted
            self.attempted += unit.attempted
            self.failed += unit.failed
        return units


def op_seconds(units: list) -> list:
    return [b - a for u in units for a, b in u.ops]


def wall(units: list) -> float:
    return sum(u.wall_s for u in units)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_s = measure_setup(args.workload, args.seed)
    run = Run(WORKLOADS[args.workload](args.seed))
    run.run_pass(max_units=1)  # warm-up: the first unit of a pass

    # Whole passes, as many as fit in --seconds, at least one. A traced
    # run alternates untraced and traced passes.
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run.run_pass())
        if args.trace:
            tracer = Tracer()
            units = run.run_pass(tracer)
            ops = [op for u in units for op in u.ops]
            over = sum(own > (b - a) + 1e-9 for own, (a, b)
                       in zip(tracer.self_time_per_op(ops), ops))
            run.failed += over
            traced.append((wall(units), tracer.layer_metrics()))
        now = time.perf_counter()
        if (now - start) + (now - t0) > args.seconds:
            break

    if args.trace:
        names = traced[0][1]
        metrics = {k: statistics.median(m[k] for _, m in traced) for k in names}
        metrics["tracing_overhead_s"] = (
            statistics.median(w for w, _ in traced)
            - statistics.median(wall(u) for u in plain))
        unit_of = {k: ("s" if k.endswith("_s") else
                       "ratio" if k.endswith("_ratio") else
                       "points" if k.endswith("_mean") else "count")
                   for k in metrics}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans_path)
        extra = {"self_s_by_span": tracer.self_time_table(),
                 "spans": str(spans_path.relative_to(HERE.parent))}
    else:
        ops = [np.asarray(op_seconds(u)) * 1e3 for u in plain]
        metrics = {
            "run_s": statistics.median(wall(u) for u in plain),
            "op_ms_p50": statistics.median(np.percentile(o, 50) for o in ops),
            "op_ms_p90": statistics.median(np.percentile(o, 90) for o in ops),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1.0 - run.failed / run.attempted,
        }
        unit_of = {"run_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                   "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}
        extra = {}

    # One digest over the units' digests: a pass's steps.jsonl logs, or
    # its refined sets and refinement records.
    digest_key = ("outputs_sha256" if args.workload == "refine_enclosure"
                  else "steps_sha256")
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "passes": len(plain) + len(traced),
            "ops_per_pass": len(op_seconds(plain[0])),
            digest_key: hashlib.sha256("".join(run.digests).encode()).hexdigest(),
            "env": environment(), **extra}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": unit_of[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
