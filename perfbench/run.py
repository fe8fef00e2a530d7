#!/usr/bin/env python3
"""mixq benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones from a traced run (see ``tracing.py``).

A run has three phases after set-up, each a stream of timed operations:
prepare (calibrate, score, select, layout), infer (batches in fp32, int8,
int4 and mixed, with cold starts) and pipeline (``cli.run_demo``).  The
workload's own phases get their share of ``--seconds``; the others run for
a smaller share, so that every end-to-end metric is measured on every
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (net, its own phases with their share of --seconds).  Inference
# gets twice the time of a prepare: its metrics are five of the nine, and
# the median batch of a kind is steady only over many rounds spread across
# the run.  The demo workload's own phase, cli.run_demo, builds its own 4x32
# net; its other phases run on the conv net.  On the 4x32 net, 0.25-ms
# batches slowed by up to 1.66x when the speed probe slowed by 1.43x, so
# their scaled medians spread by 0.13-0.18 over ten runs, against 0.03-0.05
# for the conv net's batches over the ten conv-infer runs that followed.
WORKLOADS = {
    "demo": ("conv", {"pipeline": 1.0}),
    "wide": ("wide", {"prepare": 1.0, "infer": 2.0}),
    "conv-infer": ("conv", {"infer": 2.0}),
}
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "pipeline_s": "s", "prepare_s": "s",
    "cold_start_s": "s", "fp32_samples_per_s": "1/s", "int8_samples_per_s": "1/s",
    "int4_samples_per_s": "1/s", "mixed_samples_per_s": "1/s",
}


def single_blas_thread() -> None:
    """Runs BLAS on one thread; must be set before numpy is imported.

    Idle OpenBLAS workers spin after each call.  With two threads, the int64
    matmuls that run outside BLAS took twice their wall time in CPU time,
    and over 2-s stretches their time ranged over 49-60 ms against 47-53 ms
    with one thread.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small nets for the smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "mixq" / "__init__.py").is_file():
        print(f"error: no mixq package under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    single_blas_thread()
    sys.path.insert(0, str(ROOT / "src"))
    import phases
    import tracing
    import workloads

    net, own = WORKLOADS[args.workload]
    specs = workloads.TINY if args.size == "tiny" else {
        "wide": workloads.WIDE, "conv": workloads.CONV}
    env = environment(args)
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    run = phases.Run()
    bench = phases.Bench(specs[net], args.seed, work, run)
    try:
        if args.trace:
            units = {name: unit for name, (unit, _) in tracing.per_layer_names().items()}
            values = phases.measure_traced(bench, own, args.seconds,
                                           out_dir / f"{stem}.spans.jsonl")
            phases.print_layer_table(values, units)
        else:
            units = END_TO_END
            values = phases.measure(bench, own, args.seconds)
    except phases.Unmeasured as exc:
        print(f"error: {args.workload} could not be measured: {exc}; "
              f"{run.failed} failed operations", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"env": env, "quality": bench.quality, "unscaled": bench.unscaled,
              "errors": run.errors,
              "ops": phases.op_summary(run.ops), **result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"env": env, "quality": bench.quality, "unscaled": bench.unscaled}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
