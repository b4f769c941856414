"""structrank benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: matching, certify, continuation, cli (see BENCHMARK.json for why
each exists). With ``--trace 0`` the last line of standard output carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced run. The line before it is a JSON record of the run:
the machine, the versions, the tail percentile and its sample count, the
failure rate, and per-operation details.

A first process computes the round's expected outputs (the oracles and
the recorded reference) and hands them to the measuring process in a file,
so that the checks add no memory to the measured process.

Set-up time is the median over SETUP_RUNS fresh processes (the measuring
process and SETUP_RUNS - 1 set-up-only ones), each timed from before
``import structrank`` until its first operation can be issued. BLAS is
pinned to one thread in every process so that runs are steady.

End-to-end times are scaled to a reference machine speed measured by a
calibration kernel timed around every call (see ``worker.py``); the run
record carries the unscaled values under ``unscaled`` and the median
speed factor. Per-layer times are unscaled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SETUP_RUNS = 5
PROCESS_TIMEOUT_S = 170
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env():
    env = dict(os.environ, **THREAD_ENV)
    env.pop("STRUCTRANK_OUTPUT", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args):
    """Run worker.py in a fresh interpreter; returns its last-line JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True, text=True, env=worker_env(), cwd=ROOT,
        timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    try:
        # The ceiling keeps git from searching directories above the checkout.
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    """sha256 over src/ file paths and contents: names the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed, blas_threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "structrank" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'structrank'}; run from a checkout",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale)]
    expected = HERE / ".work" / f"expected-{os.getpid()}.json"
    expected.parent.mkdir(exist_ok=True)
    try:
        run_worker(common + ["--oracles", str(expected)])
        result = run_worker(common + ["--expected", str(expected), "--seconds",
                                      str(args.seconds), "--trace", str(args.trace)])
    finally:
        expected.unlink(missing_ok=True)
    detail = result.pop("detail")
    raw = result["metrics"]
    if args.trace:
        table = PER_LAYER
    else:
        table = END_TO_END
        probes = [run_worker(common + ["--setup-only"]) for _ in range(SETUP_RUNS - 1)]
        setups = [detail["setup_s"]] + [p["setup_s"] for p in probes]
        raw["setup_s"] = statistics.median(setups)
        detail["setup_runs_s"] = setups
        detail["unscaled"]["setup_s"] = statistics.median(
            [detail["setup_raw_s"]] + [p["setup_raw_s"] for p in probes])
        detail["e2e"] = {
            "fail_rate": {"value": detail["fail_rate"], "unit": "ratio"},
            **{name: {"value": raw[name], "unit": END_TO_END[name][0]} for name in END_TO_END},
        }
    missing = set(table) - set(raw)
    if missing:
        raise SystemExit(f"worker did not report {sorted(missing)}")
    result["metrics"] = {name: {"value": raw[name], "unit": table[name][0]} for name in table}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, detail.pop("blas_threads")),
        **detail,
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
