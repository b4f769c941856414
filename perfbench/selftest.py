"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

Checks, at a tiny size with a fixed seed, that:

- BENCHMARK.json and ``metrics.py`` name the same metrics with the same units;
- every workload prints every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) by name with its unit, plus the run record
  with all six end-to-end metrics including ``fail_rate``;
- a deliberately corrupted output, and an exception the reference commit
  does not raise, are each counted as a failed operation and make the
  result incorrect, for every workload;
- the benchmark exits non-zero, without a result line, in a directory that
  holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from run import worker_env  # noqa: E402

SEED = 7
SCALE = 0.05


def fail(message):
    raise SystemExit(f"selftest FAILED: {message}")


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != {k: v[0] for k, v in END_TO_END.items()}:
        fail(f"BENCHMARK.json end_to_end differs from metrics.py: {e2e}")
    if layer != {k: v[0] for k, v in PER_LAYER.items()}:
        fail("BENCHMARK.json per_layer differs from metrics.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from metrics.py")


def run_tiny(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--scale", str(SCALE)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def check_printed_metrics(workload, trace):
    proc = run_tiny(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    table = PER_LAYER if trace else END_TO_END
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != {k: v[0] for k, v in table.items()}:
        fail(f"{workload} --trace {trace} printed {sorted(printed)}")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        fail("a metric value is not a number")
    if result["attempted"] < 1 or not result["correct"]:
        fail(f"{workload} --trace {trace}: {result['attempted']} attempted, "
             f"correct={result['correct']}, {record.get('messages')}")
    if not trace:
        want = {"fail_rate", *END_TO_END}
        if set(record["e2e"]) != want or not all("unit" in v for v in record["e2e"].values()):
            fail(f"{workload} run record lacks an end-to-end metric: {sorted(record['e2e'])}")
        for key in ("latency_tail_percentile", "latency_tail_samples_beyond", "environment"):
            if key not in record:
                fail(f"run record lacks {key}")
    return result


def corrupt(op, out):
    """Damage one output the way a real defect might."""
    import numpy as np
    from workloads import CliResult

    if isinstance(out, CliResult):
        return CliResult(out.code, out.stdout[: len(out.stdout) // 2], out.stderr)
    if isinstance(out, int):
        return out + 1
    if hasattr(out, "structural_rank"):
        return dataclasses.replace(out, structural_rank=out.structural_rank + 1)
    if hasattr(out, "estimated_rank"):
        return dataclasses.replace(out, estimated_rank=out.estimated_rank + 1)
    if hasattr(out, "points"):
        first = dataclasses.replace(out.points[0], point=out.points[0].point + np.ones(1))
        return dataclasses.replace(out, points=(first,) + out.points[1:])
    if isinstance(out, list):
        return out[:-1]
    raise AssertionError(f"no corruption for {type(out).__name__}")


def check_corruption_counted(workload):
    """Corrupt the first op's output, or make it raise: it must count as wrong."""
    import worker

    workdir = HERE / ".work" / f"selftest-{workload}"
    try:
        ops, _, _ = worker.setup(workload, SEED, SCALE, str(workdir))
        import workloads  # importable once set-up has put the package on the path

        workloads.ORACLES.compute()
        calls = [op.call for op in ops]
        clean = worker.Loop(ops)
        clean.run_round(calls)
        target = ops[0].label
        damaged = worker.Loop(ops, mutate=lambda op, out: (
            corrupt(op, out) if op.label == target and out is not None else out))
        damaged.run_round(calls)

        def crash():
            raise TypeError("injected")

        crashed = worker.Loop(ops)
        crashed.run_round([crash] + calls[1:])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, loop in (("corrupted output", damaged), ("unexpected exception", crashed)):
        if loop.wrong != clean.wrong + 1 or loop.failed != clean.failed + 1:
            fail(f"{workload}: {name} not counted "
                 f"(wrong {clean.wrong} -> {loop.wrong}, failed {clean.failed} -> {loop.failed})")


def check_fails_without_package():
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
        proc = run_tiny(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("benchmark succeeded in a directory without the package")


def main():
    os.environ.update(worker_env())
    check_benchmark_json()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_printed_metrics(workload, trace)
        check_corruption_counted(workload)
        print(f"{workload}: metrics printed with units; corrupted output and crash counted",
              flush=True)
    check_fails_without_package()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
