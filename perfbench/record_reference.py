"""Record the reference outputs that operations are checked against.

    python3 perfbench/record_reference.py [--seeds 0-31]

Run it on the commit whose outputs are the reference (the seed commit of
the benchmark); it imports the package from ``src/``. For each workload and
seed it builds the round, runs every operation once, and stores the
summary the worker compares: exact combinatorial fields (ranks, histograms,
pass/fail, event kinds, point counts) and floats, compared within
``checks.FLOAT_RTOL``. Seeds outside the recorded range are checked by the
oracles and invariants alone.

Only a chain pattern may raise, and only ``RecursionError``: its entry
records that, and ``shortest_failing_chain`` is the shortest chain that
raised. For every seed, the worker treats a raise as a known failure only
there; any other raise makes the result incorrect. Recording stops if a
chain raised while a longer one did not, as the threshold would not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

os.environ.update(run.THREAD_ENV)  # the worker's BLAS setting, before numpy loads

import checks  # noqa: E402
import workloads  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload, seed):
    workdir = HERE / ".work" / f"reference-{workload}-{seed}"
    try:
        ops = workloads.build(workload, seed, str(ROOT), str(workdir))
        workloads.ORACLES.compute()
        entries = []
        for op in ops:
            entry = {"label": op.label}
            if op.chain_length is not None:
                entry["chain_length"] = op.chain_length
            try:
                out = op.call()
            except RecursionError:
                if op.chain_length is None:
                    raise
                entry["raised"] = "RecursionError"
                entries.append(entry)
                continue
            op.check(out)
            if op.summary is not None:
                entry.update(op.summary(out))
            entries.append(entry)
        return entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    args = parser.parse_args(argv)

    data = {}
    if checks.REFERENCE_PATH.exists():
        data = json.loads(checks.REFERENCE_PATH.read_text(encoding="utf-8"))
    data["recorded_from"] = {"git_commit": run.git_commit(), "src_sha256": run.source_digest()}
    data["float_rtol"] = checks.FLOAT_RTOL
    data["float_atol"] = checks.FLOAT_ATOL
    table = data.setdefault("workloads", {})
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            table.setdefault(workload, {})[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: recorded", flush=True)
    chains = [e for entries in table["matching"].values() for e in entries
              if "chain_length" in e]
    failing = [e["chain_length"] for e in chains if "raised" in e]
    passing = [e["chain_length"] for e in chains if "raised" not in e]
    if failing and passing and max(passing) >= min(failing):
        raise SystemExit(f"chain of {max(passing)} passed, chain of {min(failing)} raised")
    data["shortest_failing_chain"] = min(failing) if failing else None
    checks.REFERENCE_PATH.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
