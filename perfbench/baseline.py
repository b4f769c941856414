"""Measure a baseline and write it to perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 1-10]

Runs ``run.py`` once per workload and seed with ``--trace 0`` and reports,
per end-to-end metric, the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (interquartile range over median) that the bounds in
BENCHMARK.json are judged against. It also makes two traced runs per
workload on the first seed, to show that their counts repeat exactly, and
one untraced and one traced run on a second seed outside the recorded
reference range (SECOND_SEED), to show that the workloads were not tuned
to one seed. Every run lasts BENCHMARK.json's ``run_seconds``. The
file also carries, per per-layer metric, the end-to-end metric it should
move and where it should stay flat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import PER_LAYER, WORKLOADS  # noqa: E402
from record_reference import seed_range  # noqa: E402

SECOND_SEED = 1000


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return record, result


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(runs):
    out = {}
    for name in runs[0]:
        series = [r[name] for r in runs]
        q1, median, q3 = statistics.quantiles(series, n=4)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": series,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    baseline = {
        "seeds": args.seeds,
        "seconds": seconds,
        "per_layer_targets": {
            name: {"should_move": move, "flat_on": flat}
            for name, (_, _, move, flat) in PER_LAYER.items()
        },
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs, records = [], []
        for seed in args.seeds:
            record, result = run_once(workload, seed, seconds, 0)
            runs.append(values(result))
            records.append(record)
        traced_record, traced = run_once(workload, args.seeds[0], seconds, 1)
        _, traced_again = run_once(workload, args.seeds[0], seconds, 1)
        counts = [name for name, (unit, *_) in PER_LAYER.items() if unit == "count"]
        second_record, second = run_once(workload, SECOND_SEED, seconds, 0)
        _, second_traced = run_once(workload, SECOND_SEED, seconds, 1)
        baseline["environment"] = records[0]["environment"]
        baseline["workloads"][workload] = {
            "end_to_end": summarize(runs),
            "latency_tail_percentile": sorted({r["latency_tail_percentile"] for r in records}),
            "fail_rate": [r["fail_rate"] for r in records],
            "per_layer": {"seed": args.seeds[0], **values(traced)},
            "counts_repeat_in_second_traced_run": all(
                values(traced)[n] == values(traced_again)[n] for n in counts),
            "calls_by_op_per_round": traced_record["calls_by_op_per_round"],
            "second_seed": {
                "seed": SECOND_SEED,
                "reference_checked": second_record["reference_checked"],
                "correct": second["correct"] and second_traced["correct"],
                "end_to_end": values(second),
                "per_layer": values(second_traced),
            },
        }
    text = json.dumps(baseline, indent=1, sort_keys=True) + "\n"
    (HERE / "baseline.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
