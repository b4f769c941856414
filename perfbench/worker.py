"""One benchmark process: time set-up, then run the closed loop and check outputs.

    python3 perfbench/worker.py --workload NAME --seed N --oracles PATH
    python3 perfbench/worker.py --workload NAME --seed N --expected PATH \
        [--seconds S] [--trace 0|1]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up is timed from before ``import structrank`` until the first
operation can be issued: the import plus building the round's inputs. The
closed loop has one caller, which issues the next analysis only after the
previous one has returned; it repeats whole rounds until ``--seconds`` have
passed. Prints one JSON object as its last line. The expected outputs
come from an earlier ``--oracles`` process, so that the oracles do not add
to the measured process's memory. ``run.py`` is the entry point that
combines several of these processes into one result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / ".out"

# The tail percentile of each workload: the highest of 50/75/90/95/99 that
# leaves at least 10 samples beyond it in a seed-commit run of the standard
# length. It stays fixed as the program gets faster, so that a faster
# program is compared at the same percentile; it steps down only when a run
# has too few samples.
TAIL_PERCENTILE = {"matching": 95.0, "certify": 75.0, "continuation": 90.0, "cli": 75.0}
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# On a shared machine the CPU's own speed drifts: on the 2-vCPU machine this
# benchmark was built on it switched between two states 1.6x apart, each
# lasting seconds to minutes, and raw times of identical runs spread by 30%.
# So every timed interval is bracketed by a short calibration kernel, and
# the reported times are scaled to the speed at which that kernel takes
# CALIBRATION_REFERENCE_S. Raw times are kept in the run record.
CALIBRATION_REFERENCE_S = 1.25e-3


def calibration_s():
    """Best of two timings of a fixed pure-Python kernel (dict and tuple churn)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        for i in range(6000):
            table[(i, i & 7)] = i * i
        sorted(v for k, v in table.items() if k[1] == 3)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds, before, after):
    """``seconds`` at the reference speed, from calibrations around the interval."""
    return seconds * CALIBRATION_REFERENCE_S / ((before + after) / 2)


def setup(workload, seed, scale, workdir):
    """Import the package and build one round; returns (ops, raw s, scaled s)."""
    before = calibration_s()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import structrank

    import workloads

    ops = workloads.build(workload, seed, str(ROOT), workdir, scale)
    elapsed = time.perf_counter() - t0
    elapsed_scaled = scaled(elapsed, before, calibration_s())
    # The round's inputs stay alive for the whole run; keep the cyclic
    # garbage collector from re-scanning them during every analysis call.
    gc.collect()
    gc.freeze()
    if Path(structrank.__file__).resolve().parent != SRC / "structrank":
        raise SystemExit(f"imported structrank from {structrank.__file__}, not from {SRC}")
    return ops, elapsed, elapsed_scaled


class Loop:
    """Runs operations one at a time and keeps their outcomes.

    ``reference`` holds the recorded seed-commit summaries of the round, if
    any. An operation that raises is a failed one; it is also a wrong one
    unless the reference commit raised there too: a ``RecursionError`` on a
    chain at least ``failing_chain`` long.
    """

    def __init__(self, ops, reference=None, failing_chain=None, mutate=None):
        self.ops = ops
        self.reference = reference
        self.failing_chain = failing_chain
        self.mutate = mutate
        self.latencies = []  # scaled seconds, successful ops only
        self.raw = []  # the same latencies unscaled
        self.busy = 0.0  # scaled seconds inside analysis calls, failed ones included
        self.raw_busy = 0.0
        self.speed = []  # reference / measured calibration time, per op
        self.attempted = self.failed = self.wrong = 0
        self.errors = Counter()
        self.messages = []
        self.by_label = {}

    def run_op(self, index, call, tracer=None):
        op = self.ops[index]
        self.attempted += 1
        gc.collect()  # every call starts from the same collector state
        before = calibration_s()
        start = time.perf_counter()
        out = error = None
        try:
            if tracer is None:
                out = call()
            else:
                with tracer.op(index, op.label):
                    out = call()
        except Exception as exc:  # every exception is a failed op, never a skipped one
            error = type(exc).__name__
        raw = time.perf_counter() - start
        after = calibration_s()
        latency = scaled(raw, before, after)
        self.speed.append(2 * CALIBRATION_REFERENCE_S / (before + after))
        self.busy += latency
        self.raw_busy += raw
        if error is not None:
            self.failed += 1
            self.errors[error] += 1
            if self.raised_at_reference(op, error):
                self._note(f"{op.label}: {error}")
            else:
                self.wrong += 1
                self._note(f"{op.label}: {error}, which the reference commit does not raise")
            return None, error
        if self.mutate is not None:
            out = self.mutate(op, out)
        problem = self.check(index, out)
        if problem is not None:
            self.failed += 1
            self.wrong += 1
            self._note(f"{op.label}: wrong output: {problem}")
            return None, "wrong"
        self.latencies.append(latency)
        self.raw.append(raw)
        self.by_label.setdefault(op.label, []).append(latency)
        return out, None

    def raised_at_reference(self, op, error):
        return (error == "RecursionError" and op.chain_length is not None
                and self.failing_chain is not None and op.chain_length >= self.failing_chain)

    def check(self, index, out):
        from checks import CheckFailed, compare_summary

        op = self.ops[index]
        try:
            op.check(out)
            if self.reference is not None and op.summary is not None:
                compare_summary(op.summary(out), self.reference[index])
        except CheckFailed as exc:
            return str(exc)
        except Exception as exc:  # a malformed output breaks the check itself
            return f"{type(exc).__name__} while checking: {exc}"
        return None

    def _note(self, message):
        if message not in self.messages and len(self.messages) < 20:
            self.messages.append(message)

    def run_round(self, calls, tracer=None, on_output=None):
        for index, call in enumerate(calls):
            out, error = self.run_op(index, call, tracer)
            if on_output is not None:
                on_output(self.ops[index], out, error)


def write_expected(workload, seed, scale, ops, path):
    """Write the round's oracle values and recorded reference to ``path``.

    Runs in its own process, before the measuring one: scipy (the matching
    oracle) and the whole reference file load here, not where memory is
    measured.
    """
    import checks
    import workloads

    data = checks.read_reference()
    reference = None
    if scale == 1.0:
        reference = data.get("workloads", {}).get(workload, {}).get(str(seed))
    if reference is not None and [r["label"] for r in reference] != [op.label for op in ops]:
        raise SystemExit(
            f"reference for {workload} seed {seed} was recorded for another round; "
            "re-run perfbench/record_reference.py"
        )
    path.write_text(json.dumps({
        "labels": [op.label for op in ops],
        "oracles": workloads.ORACLES.compute(),
        "reference": reference,
        "shortest_failing_chain": data.get("shortest_failing_chain"),
    }), encoding="utf-8")


def load_expected(ops, path):
    """Load what ``write_expected`` wrote; returns (reference, failing_chain)."""
    import workloads

    expected = json.loads(path.read_text(encoding="utf-8"))
    if expected["labels"] != [op.label for op in ops]:
        raise SystemExit(f"{path} was written for another round")
    workloads.ORACLES.values = expected["oracles"]
    return expected["reference"], expected["shortest_failing_chain"]


def tail(latencies, workload):
    """(value, percentile, samples beyond) at the workload's tail percentile."""
    import numpy as np

    data = np.asarray(latencies)
    for p in TAIL_LADDER:
        if p > TAIL_PERCENTILE[workload]:
            continue
        value = float(np.percentile(data, p))
        beyond = int(np.count_nonzero(data > value))
        if beyond >= MIN_BEYOND or p == TAIL_LADDER[-1]:
            return value, p, beyond
    raise AssertionError("unreachable")


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return int(getattr(lib, fn)())
    return None


def measure(workload, ops, expected, seconds):
    """The untraced closed loop: end-to-end metrics."""
    loop = Loop(ops, *expected)
    calls = [op.call for op in ops]
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        loop.run_round(calls)
        rounds += 1
    if not loop.latencies:
        raise SystemExit("no operation succeeded")
    value, percentile, beyond = tail(loop.latencies, workload)
    raw_tail, _, _ = tail(loop.raw, workload)
    metrics = {
        "throughput_ops_s": len(loop.latencies) / loop.busy,
        "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
        "latency_tail_ms": 1e3 * value,
        "success_rate": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    detail = {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "samples": len(loop.latencies),
        "fail_rate": loop.failed / loop.attempted,
        "speed_factor_median": statistics.median(loop.speed),
        "unscaled": {
            "throughput_ops_s": len(loop.raw) / loop.raw_busy,
            "latency_p50_ms": 1e3 * statistics.median(loop.raw),
            "latency_tail_ms": 1e3 * raw_tail,
        },
        "latency_tail_percentile": percentile,
        "latency_tail_samples_beyond": beyond,
        "wall_s": time.perf_counter() - start,
        "errors": dict(loop.errors),
        "messages": loop.messages,
        "ops_ms": {label: [round(1e3 * x, 3) for x in v] for label, v in loop.by_label.items()},
    }
    return loop, metrics, detail


def import_seconds(repeats=3):
    """Median in-process time of ``import structrank.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import structrank.cli; "
            "print(time.perf_counter() - t)")
    from workloads import cli_env

    env = cli_env(str(ROOT))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure_traced(workload, ops, expected, seconds, span_path):
    """Alternate untraced and traced rounds; per-layer metrics per traced round.

    For ``cli`` both use in-process ``cli.main`` calls, and a third round per
    cycle runs the same invocations as subprocesses to measure the process
    overhead.
    """
    import tracer as tr
    import workloads

    if workload == "cli":
        calls = [lambda a=op.argv: workloads.cli_inprocess(a) for op in ops]
    else:
        calls = [op.call for op in ops]
    untraced, traced, spawned = (Loop(ops, *expected) for _ in range(3))
    tracer = tr.Tracer()
    facts = Counter()
    recursion = 0

    def collect(op, out, error):
        nonlocal recursion
        if error == "RecursionError":
            recursion += 1
        if out is not None:
            facts.update(tr.output_facts(out))

    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        untraced.run_round(calls)
        tracer.install()
        try:
            traced.run_round(calls, tracer, collect)
        finally:
            tracer.uninstall()
        tracer.keep_spans = False
        if workload == "cli":
            spawned.run_round([op.call for op in ops])
        rounds += 1
    tracer.write_spans(span_path)

    metrics = tr.layer_metrics(tracer, rounds, facts, recursion)
    metrics["cli.import_s"] = import_seconds()
    if workload == "cli":
        overhead = spawned.raw_busy - untraced.raw_busy
        metrics["cli.process_overhead_s"] = overhead / spawned.attempted
    else:
        metrics["cli.process_overhead_s"] = 0.0
    metrics["trace.untraced_ops_s"] = len(untraced.latencies) / untraced.busy
    metrics["trace.traced_ops_s"] = len(traced.latencies) / traced.busy
    metrics["trace.overhead_ratio"] = traced.busy / untraced.busy
    detail = {
        "rounds": rounds,
        "spans_written": str(span_path.relative_to(ROOT)),
        "spans_first_round": len(tracer.spans),
        "calls_by_op_per_round": {label: {name: n / rounds for name, n in sorted(c.items())}
                                  for label, c in tracer.calls_by_op.items()},
        "errors": dict(traced.errors),
        "messages": traced.messages,
    }
    loops = (untraced, traced, spawned)
    return loops, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--oracles", type=Path, metavar="PATH",
                        help="write the round's expected outputs to PATH and exit")
    parser.add_argument("--expected", type=Path, metavar="PATH",
                        help="expected outputs written by a --oracles run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (self-test only)")
    args = parser.parse_args(argv)

    workdir = HERE / ".work" / str(os.getpid())
    try:
        ops, setup_raw, setup_s = setup(args.workload, args.seed, args.scale, str(workdir))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0
        if args.oracles:
            write_expected(args.workload, args.seed, args.scale, ops, args.oracles)
            print(json.dumps({"oracles": len(ops)}))
            return 0
        if args.expected is None:
            raise SystemExit("--expected is required to measure")
        expected = load_expected(ops, args.expected)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            loops, metrics, detail = measure_traced(
                args.workload, ops, expected, args.seconds, span_path)
        else:
            loop, metrics, detail = measure(args.workload, ops, expected, args.seconds)
            loops = (loop,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(setup_s=setup_s, setup_raw_s=setup_raw,
                  reference_checked=expected[0] is not None,
                  blas_threads=blas_threads())
    result = {
        "correct": all(loop.wrong == 0 for loop in loops),
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": metrics,
        "detail": detail,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
