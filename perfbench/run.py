"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, nothing is installed. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see README.md here). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the lines before it give the environment and every metric as a table.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The names only: workloads.py imports numpy, which must wait for the thread cap.
WORKLOADS = ("train-desk", "infer-attn128", "io-default64")


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy is
    imported. Returns the cap."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        asked = os.environ.get(var, "")
        os.environ[var] = str(min(int(asked), cores) if asked.isdigit() and int(asked) > 0
                              else cores)
    return cores


def _blas_threads(np, fallback: int) -> int:
    """Threads the loaded OpenBLAS reports, or ``fallback`` if it cannot
    be asked."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return fallback


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(np, seed: int, cores: int) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {"nproc": cores, "blas": blas_name, "blas_threads": _blas_threads(np, cores),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": _git_commit(), "seed": seed}


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(result: dict, trace: bool) -> dict:
    """The final JSON object: every metric BENCHMARK.json names, with its unit."""
    values = result["per_layer"] if trace else result["end_to_end"]
    checks = result["checks"]
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in metric_units(trace).items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bfpcnn" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cores = _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    checks = result["checks"]
    print("env " + json.dumps(environment(np, args.seed, cores)))
    for what, count in sorted(checks.failures.items()):
        print(f"FAILED {count}x {what}", file=sys.stderr)
    out = report(result, bool(args.trace))
    print(f"failed_ratio {checks.failed / checks.attempted:.6f} "
          f"({checks.failed}/{checks.attempted} checks)")
    if args.trace:
        print("end-to-end untraced -> traced (tracing overhead):")
        for name, value in result["end_to_end"].items():
            print(f"  {name:20s} {value:12.4f} -> {result['traced_end_to_end'][name]:12.4f}")
    for name, m in out["metrics"].items():
        print(f"{name:36s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
