"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, on tiny models and datasets, and
checks that each metric BENCHMARK.json names is emitted as a finite number
with its unit and that every output check passes. Then corrupts single
bytes of a saved checkpoint and checks that each corruption is counted as a
failed check rather than crashing the run. Exits 0 when all of it holds.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import sys
from dataclasses import replace

import run


def tiny_workloads(workloads) -> dict:
    small = {"per_class": 2}
    desk32 = {**workloads.DESK, "model.input_size": "32"}
    return {
        "train-desk": replace(workloads.WORKLOADS["train-desk"], config=desk32, raw_size=32,
                              **small),
        "infer-attn128": replace(workloads.WORKLOADS["infer-attn128"], config=desk32,
                                 raw_size=32, **small),
        "io-default64": replace(workloads.WORKLOADS["io-default64"],
                                config={"model.input_size": "32"}, raw_size=48, **small),
    }


def check_output(result: dict, traced: bool) -> list[str]:
    units = run.metric_units(traced)
    values = result["per_layer" if traced else "end_to_end"]
    if set(values) != set(units):
        return [f"not measured: {sorted(set(units) - set(values))}; "
                f"not in BENCHMARK.json: {sorted(set(values) - set(units))}"]
    out = run.report(result, traced)
    problems = []
    for name, m in out["metrics"].items():
        if m["unit"] != units.get(name):
            problems.append(f"{name}: unit {m['unit']!r}, expected {units.get(name)!r}")
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r} is not a finite number")
    if not out["correct"] or out["failed"] or out["attempted"] < 1:
        problems.append(f"checks: {out['failed']} of {out['attempted']} failed")
    return problems


def check_corruption(workloads, model, work) -> list[str]:
    """Flip one payload byte, then one header byte, of a saved checkpoint."""
    w = tiny_workloads(workloads)["train-desk"]
    s = workloads.setup(w, seed=3, epochs=1, work=work, index=0)
    path = s.run_dir / "model.ckpt"
    model.save_checkpoint(s.graph, path)
    good = path.read_bytes()
    problems = []
    for label, offset in (("intact", None), ("payload byte", len(good) - 1),
                          ("header byte", 0)):
        raw = bytearray(good)
        if offset is not None:
            raw[offset] ^= 0x01
        path.write_bytes(bytes(raw))
        checks = workloads.Checks()
        with contextlib.redirect_stderr(io.StringIO()):
            workloads.load_and_compare(s.graph, path, s.spec.model, checks)
        expected = 0 if offset is None else 1
        if (checks.attempted, checks.failed) != (1, expected):
            problems.append(f"{label}: {checks.failed} of {checks.attempted} checks failed, "
                            f"expected {expected} of 1")
    return problems


def main() -> int:
    run._limit_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    from bfpcnn import model

    work = run.ROOT / ".perfbench_work" / "selftest"
    problems = []
    try:
        for name, w in tiny_workloads(workloads).items():
            for traced in (False, True):
                result = workloads.run(w, seed=3, seconds=0.1, traced=traced,
                                       work=work / f"{name}-{int(traced)}")
                found = check_output(result, traced)
                problems += [f"{name} trace={int(traced)}: {p}" for p in found]
                print(f"{name} trace={int(traced)}: {'ok' if not found else 'FAILED'}")
        found = check_corruption(workloads, model, work / "corrupt")
        problems += [f"corrupted checkpoint: {p}" for p in found]
        print(f"corrupted checkpoint: {'ok' if not found else 'FAILED'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
