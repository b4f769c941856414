"""Per-layer tracing from outside the package.

For a traced round, ``Tracer.install`` replaces the package's public
functions and methods at each layer boundary (and ``numpy.linalg.svd`` /
``lstsq``) with timing wrappers, in every ``structrank`` module that holds a
reference to them; ``uninstall`` puts the originals back. No file under
``src/`` changes.

Each boundary call inside an operation records a span (name, start, end,
parent, op id) and a count. Spans are kept in memory for the first traced
round and written out at the end; counts, busy time and self time (span time
minus the time its child spans cover) are aggregated over every traced
round. ``layer_metrics`` turns the aggregates into the per-layer metrics
listed in BENCHMARK.json, per round.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Calls of these names nest inside each other; only the outermost one of a
# chain counts toward the group's calls and busy time.
_GROUP = {
    "structural.classify": "structural.classify",
    "structural.structural_rank": "structural.classify",
    "structural.maximum_matching": "structural.classify",
}
TRIAL_LOOPS = ("numrank.certify_acr", "numrank.generic_rank_randomized",
               "numrank.matrix_space_rank")
CONTINUATION = ("continuation.trace_curve", "continuation.manifold_probe",
                "continuation.perturbation_probe")
PARSERS = ("formats.parse_structure", "formats.parse_basis")


def _entries(args, kwargs):
    return len(args[0].allowed), 0.0


def _nodes(args, kwargs):
    return args[0].num_equations, 0.0


def _trials(default):
    return lambda args, kwargs: (kwargs.get("trials", default), 0.0)


def _file_bytes(args, kwargs):
    try:
        return os.path.getsize(args[0]), 0.0
    except OSError:
        return 0, 0.0


def _svd_work(args, kwargs):
    """(matrices, flops computed from the shape) for one svd call.

    Golub-Van Loan counts for an l x k problem (l >= k): singular values
    only 4lk^2 - 4k^3/3; with full U and V^T 4l^2k + 8lk^2 + 9k^3.
    """
    shape = getattr(args[0], "shape", ())
    if len(shape) < 2:
        return 0, 0.0
    batch = 1
    for d in shape[:-2]:
        batch *= d
    l, k = max(shape[-2:]), min(shape[-2:])
    if kwargs.get("compute_uv", True):
        flops = 4.0 * l * l * k + 8.0 * l * k * k + 9.0 * k ** 3
    else:
        flops = 4.0 * l * k * k - 4.0 * k ** 3 / 3.0
    return batch, batch * flops


# (module, attribute, boundary name, work function)
FUNCTIONS = [
    ("structrank.structural", "classify", "structural.classify", _entries),
    ("structrank.structural", "structural_rank", "structural.structural_rank", _entries),
    ("structrank.structural", "maximum_matching", "structural.maximum_matching", _entries),
    ("structrank.structural", "knockout_sweep", "structural.knockout_sweep", _nodes),
    ("structrank.structure", "knockout", "structure.knockout", None),
    ("structrank.numrank", "certify_acr", "numrank.certify_acr", _trials(1000)),
    ("structrank.numrank", "generic_rank_randomized", "numrank.generic_rank_randomized",
     _trials(200)),
    ("structrank.numrank", "matrix_space_rank", "numrank.matrix_space_rank", _trials(200)),
    ("structrank.continuation", "trace_curve", "continuation.trace_curve", None),
    ("structrank.continuation", "manifold_probe", "continuation.manifold_probe", None),
    ("structrank.continuation", "perturbation_probe", "continuation.perturbation_probe", None),
    ("structrank.formats", "parse_structure", "formats.parse_structure", _file_bytes),
    ("structrank.formats", "parse_basis", "formats.parse_basis", _file_bytes),
    ("structrank.cli", "main", "cli.main", None),
    ("numpy.linalg", "svd", "numpy.linalg.svd", _svd_work),
    ("numpy.linalg", "lstsq", "numpy.linalg.lstsq", None),
]
# (module, class, method, boundary name)
METHODS = [
    ("structrank.structure", "StructurePattern", "row", "structure.row"),
    ("structrank.polysys", "StructuredPolySystem", "jacobian", "polysys.jacobian"),
    ("structrank.polysys", "StructuredPolySystem", "evaluate", "polysys.evaluate"),
]


class Stat:
    __slots__ = ("calls", "busy", "self_s", "size", "work")

    def __init__(self):
        self.calls, self.busy, self.self_s, self.size, self.work = 0, 0.0, 0.0, 0.0, 0.0


class Tracer:
    """Spans and counts at layer boundaries, recorded only inside an op."""

    def __init__(self):
        self.keep_spans = True
        self.spans = []  # (name, start, end, parent index, op id)
        # (name, entry, outermost-in-group) -> Stat, where entry is the
        # outermost boundary span of the op (the layer the op called).
        self.stats = defaultdict(Stat)
        self.calls_by_op = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._open = defaultdict(int)
        self._op = None
        self._label = None
        self._patches = []
        self._t0 = time.perf_counter()

    # -- installing wrappers --------------------------------------------------

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            size = work(args, kwargs) if work else (0, 0.0)
            frame = tracer._enter(name, size)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def install(self):
        for modname, attr, name, work in FUNCTIONS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, work)
            holders = [module] + [
                mod for key, mod in list(sys.modules.items())
                if key.split(".")[0] == "structrank" and mod is not module
            ]
            for mod in holders:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, None))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans -------------------------------------------------------------------

    @contextmanager
    def op(self, op_id, label):
        """One operation, recorded as the root span of its boundary calls."""
        self._op, self._label = op_id, label
        frame = self._enter("op", (0, 0.0))
        try:
            yield
        finally:
            self._exit(frame)
            self._op = self._label = None

    def _enter(self, name, size):
        parent = self._stack[-1] if self._stack else None
        group = _GROUP.get(name, name)
        index = -1
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append(None)
        entry = name if parent is None or parent[0] == "op" else parent[5]
        frame = [name, time.perf_counter(), 0.0, index, size, entry,
                 self._open[group] == 0, group, parent[3] if parent else -1]
        self._open[group] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        name, start, child, index, size, entry, outer, group, parent = frame
        self._stack.pop()
        self._open[group] -= 1
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats[(name, entry, outer)]
        stat.calls += 1
        stat.busy += duration
        stat.self_s += duration - child
        stat.size += size[0]
        stat.work += size[1]
        self.calls_by_op[self._label][name] += 1
        if index >= 0:
            self.spans[index] = (name, start - self._t0, end - self._t0, parent, self._op)

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_us,end_us,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start * 1e6:.1f},{end * 1e6:.1f},{parent},{op}\n")

    # -- aggregation ---------------------------------------------------------------

    def total(self, names, field, entry=None, outer=None, not_entry=None):
        out = 0.0
        for (name, ent, out_flag), stat in self.stats.items():
            if name not in names:
                continue
            if entry is not None and ent not in entry:
                continue
            if not_entry is not None and ent in not_entry:
                continue
            if outer is not None and out_flag != outer:
                continue
            out += getattr(stat, field)
        return out


def output_facts(out):
    """Useful-work counts read from an analysis output."""
    from structrank import continuation as c

    facts = defaultdict(float)
    if isinstance(out, c.SolutionBranch):
        facts["points"] += len(out.points)
        facts["trace_points"] += len(out.points)
        facts["corrector_iterations"] += sum(bp.corrector_iterations for bp in out.points)
    elif isinstance(out, c.ManifoldProbeReport):
        facts["points"] += out.samples_accepted
        facts["samples_requested"] += out.samples_requested
        facts["samples_accepted"] += out.samples_accepted
    elif isinstance(out, c.PerturbationProbe):
        facts["points"] += out.starts_tried
        facts["perturbation_probes"] += 1
        facts["perturbation_starts"] += out.starts_tried
    return facts


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, rounds, facts, recursion_failures):
    """Per-layer metrics per traced round (see BENCHMARK.json for units)."""
    t = tracer.total
    per = 1.0 / rounds
    classify = ("structural.classify", "structural.structural_rank",
                "structural.maximum_matching")
    sweep = ("structural.knockout_sweep",)
    cls_busy = t(classify, "busy", outer=True, not_entry=sweep)
    sweep_busy = t(sweep, "busy")
    jac_calls, jac_busy = t(("polysys.jacobian",), "calls"), t(("polysys.jacobian",), "busy")
    loop_busy = t(TRIAL_LOOPS, "busy")
    svd = ("numpy.linalg.svd",)
    svd_calls = t(svd, "calls")
    points = facts["points"]
    cont_busy = t(CONTINUATION, "busy")

    def per_point(names):
        return _ratio(t(names, "calls", entry=CONTINUATION), points)

    parse_busy = t(PARSERS, "busy")
    return {
        "structural.classify.calls": t(classify, "calls", outer=True, not_entry=sweep) * per,
        "structural.classify.busy_s": cls_busy * per,
        "structural.classify.entries_per_s": _ratio(
            t(classify, "size", outer=True, not_entry=sweep), cls_busy),
        "structural.knockout_sweep.busy_s": sweep_busy * per,
        "structural.knockout_sweep.ms_per_node": _ratio(1e3 * sweep_busy, t(sweep, "size")),
        "structural.matching.calls_per_sweep": _ratio(
            t(("structural.maximum_matching",), "calls", entry=sweep), t(sweep, "calls")),
        "structural.recursion_failures": recursion_failures * per,
        "structure.row.calls": t(("structure.row",), "calls") * per,
        "structure.row.busy_s": t(("structure.row",), "busy") * per,
        "structure.knockout.calls": t(("structure.knockout",), "calls") * per,
        "structure.knockout.busy_s": t(("structure.knockout",), "busy") * per,
        "polysys.jacobian.calls": jac_calls * per,
        "polysys.jacobian.busy_s": jac_busy * per,
        "polysys.jacobian.us_per_call": _ratio(1e6 * jac_busy, jac_calls),
        "polysys.evaluate.calls": t(("polysys.evaluate",), "calls") * per,
        "polysys.evaluate.busy_s": t(("polysys.evaluate",), "busy") * per,
        "numrank.trial_loop.self_s": t(TRIAL_LOOPS, "self_s") * per,
        "numrank.certify.trials_per_s": _ratio(t(TRIAL_LOOPS, "size"), loop_busy),
        "numrank.svd.calls": svd_calls * per,
        "numrank.svd.busy_s": t(svd, "busy") * per,
        "numrank.svd.matrices_per_call": _ratio(t(svd, "size"), svd_calls),
        "numrank.svd.flops_computed": t(svd, "work") * per,
        "continuation.points_per_s": _ratio(points, cont_busy),
        "continuation.evaluate_per_point": per_point(("polysys.evaluate",)),
        "continuation.jacobian_per_point": per_point(("polysys.jacobian",)),
        "continuation.svd_per_point": per_point(svd),
        "continuation.lstsq_per_point": per_point(("numpy.linalg.lstsq",)),
        "continuation.corrector_iterations_per_point": _ratio(
            facts["corrector_iterations"], facts["trace_points"]),
        "continuation.probe.acceptance_ratio": _ratio(
            facts["samples_accepted"], facts["samples_requested"]),
        "continuation.perturbation.starts_per_probe": _ratio(
            facts["perturbation_starts"], facts["perturbation_probes"]),
        "formats.parse.calls": t(PARSERS, "calls") * per,
        "formats.parse.busy_s": parse_busy * per,
        "formats.parse.bytes_per_s": _ratio(t(PARSERS, "size"), parse_busy),
        "cli.run.busy_s": t(("cli.main",), "busy") * per,
    }
