"""Workload names, and the names, units and intent of every metric reported.

BENCHMARK.json lists the same names and units; ``selftest.py`` checks that
the two agree. Per-layer entries also say which end-to-end metric they
should move, on which workload, and where they should stay flat, so that a
change claiming a gain on one layer can be read against the right numbers.
"""

WORKLOADS = ("matching", "certify", "continuation", "cli")

# name -> (unit, better)
END_TO_END = {
    "throughput_ops_s": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "success_rate": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, should move (e2e metric on workload), should stay flat on)
PER_LAYER = {
    "structural.classify.calls": ("count", "lower", "latency_p50_ms, throughput_ops_s on matching", "certify"),
    "structural.classify.busy_s": ("s", "lower", "latency_p50_ms, throughput_ops_s on matching", "certify"),
    "structural.classify.entries_per_s": ("1/s", "higher", "latency_p50_ms, throughput_ops_s on matching", "certify"),
    "structural.knockout_sweep.busy_s": ("s", "lower", "latency_tail_ms on matching", "continuation"),
    "structural.knockout_sweep.ms_per_node": ("ms", "lower", "latency_tail_ms on matching", "continuation"),
    "structural.matching.calls_per_sweep": ("count", "lower", "latency_tail_ms on matching", "continuation"),
    "structural.recursion_failures": ("count", "lower", "success_rate (fail_rate) on matching", "-"),
    "structure.row.calls": ("count", "lower", "throughput_ops_s on certify", "matching"),
    "structure.row.busy_s": ("s", "lower", "throughput_ops_s on certify", "matching"),
    "structure.knockout.calls": ("count", "lower", "latency_tail_ms on matching", "-"),
    "structure.knockout.busy_s": ("s", "lower", "latency_tail_ms on matching", "-"),
    "polysys.jacobian.calls": ("count", "lower", "throughput_ops_s on certify and continuation", "matching"),
    "polysys.jacobian.busy_s": ("s", "lower", "throughput_ops_s on certify and continuation", "matching"),
    "polysys.jacobian.us_per_call": ("us", "lower", "throughput_ops_s on certify and continuation", "matching"),
    "polysys.evaluate.calls": ("count", "lower", "latency_p50_ms on continuation", "certify"),
    "polysys.evaluate.busy_s": ("s", "lower", "latency_p50_ms on continuation", "certify"),
    "numrank.trial_loop.self_s": ("s", "lower", "throughput_ops_s on certify", "continuation"),
    "numrank.certify.trials_per_s": ("1/s", "higher", "throughput_ops_s on certify", "continuation"),
    "numrank.svd.calls": ("count", "lower", "throughput_ops_s on certify", "continuation"),
    "numrank.svd.busy_s": ("s", "lower", "throughput_ops_s on certify", "continuation"),
    "numrank.svd.matrices_per_call": ("count", "higher", "throughput_ops_s on certify", "continuation"),
    "numrank.svd.flops_computed": ("flop", "lower", "throughput_ops_s on certify", "continuation"),
    "continuation.points_per_s": ("1/s", "higher", "latency_p50_ms on continuation", "certify"),
    "continuation.evaluate_per_point": ("count", "lower", "latency_p50_ms on continuation", "certify"),
    "continuation.jacobian_per_point": ("count", "lower", "latency_p50_ms on continuation", "certify"),
    "continuation.svd_per_point": ("count", "lower", "latency_p50_ms on continuation", "certify"),
    "continuation.lstsq_per_point": ("count", "lower", "latency_p50_ms on continuation", "certify"),
    "continuation.corrector_iterations_per_point": ("count", "lower", "none: a pure speed-up leaves it unchanged", "all"),
    "continuation.probe.acceptance_ratio": ("ratio", "higher", "none: a pure speed-up leaves it unchanged", "all"),
    "continuation.perturbation.starts_per_probe": ("count", "lower", "none: a pure speed-up leaves it unchanged", "all"),
    "formats.parse.calls": ("count", "lower", "latency_p50_ms on cli", "matching, certify, continuation"),
    "formats.parse.busy_s": ("s", "lower", "latency_p50_ms on cli", "matching, certify, continuation"),
    "formats.parse.bytes_per_s": ("B/s", "higher", "latency_p50_ms on cli", "matching, certify, continuation"),
    "cli.import_s": ("s", "lower", "latency_p50_ms on cli; setup_s everywhere", "-"),
    "cli.run.busy_s": ("s", "lower", "latency_p50_ms on cli", "-"),
    "cli.process_overhead_s": ("s", "lower", "latency_p50_ms on cli", "-"),
    "trace.untraced_ops_s": ("ops/s", "higher", "none: untraced throughput in the traced run", "-"),
    "trace.traced_ops_s": ("ops/s", "higher", "none: throughput with tracing on", "-"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced / untraced busy time", "-"),
}
