"""Command-line front end tying the analyses together.

Exit codes: 0 success, 1 analysis error, 2 input/usage error. JSON output is
schema-stable and byte-identical for identical requests and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import continuation as cont
from . import numrank
from .datasets import DATASETS, get_dataset
from .errors import ParseError, StructrankError
from .formats import parse_basis, parse_structure, parse_system, structure_to_json_dict, to_dot
from .polysys import sample_system
from .structural import classify, knockout_sweep, maximum_matching
from .structure import GeneralizedStructure, SystemGraph, pattern_from_graph

__all__ = ["AnalysisRequest", "run", "main"]

OUTPUT_ENV_VAR = "STRUCTRANK_OUTPUT"


@dataclass
class AnalysisRequest:
    """One validated invocation of a subcommand."""

    subcommand: str
    input_path: str | None = None
    dataset: str | None = None
    fmt: str | None = None
    output: str = "text"
    trials: int = 1000
    seed: int = 0
    degree: int = 2
    distribution: str = "uniform"
    rel_tol: float = 1e-8
    abs_floor: float = 1e-12
    pass_threshold: float = 0.99
    step: float = 0.05
    max_points: int = 400
    samples: int = 50
    radius: float = 10.0
    from_point: tuple[float, ...] | None = None
    delta: tuple[float, ...] | None = None


class _InputError(Exception):
    """Wrapper marking a failure as an input problem (exit code 2)."""


def _json_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def _tolerance(request):
    return numrank.RankTolerance(request.rel_tol, request.abs_floor)


def _dataset(request):
    """The bundled dataset named by --dataset.

    An unknown name, or an input file given as well, is an input error.
    """
    if request.input_path is not None:
        raise _InputError("give either --dataset or an input file, not both")
    try:
        return get_dataset(request.dataset)
    except StructrankError as exc:
        raise _InputError(str(exc)) from exc


def _load_structure(request, as_pattern=True):
    """Resolve --dataset or the input path to a structure."""
    if request.dataset is not None:
        structure = _dataset(request).structure
    elif request.input_path is not None:
        structure = parse_structure(request.input_path, request.fmt)
    else:
        raise _InputError("no input: pass --dataset NAME or a structure file")
    if as_pattern and isinstance(structure, SystemGraph):
        structure = pattern_from_graph(structure)
    return structure


def _load_system(request):
    """Resolve the polynomial system to analyze.

    Bundled datasets with a concrete system use it; a system JSON file is
    loaded as-is; otherwise a random member of the structure is sampled with
    the request's (degree, seed, distribution).
    """
    if request.dataset is not None:
        dataset = _dataset(request)
        if dataset.system is not None:
            return dataset.system, f"dataset {request.dataset} (bundled system)"
        structure = dataset.structure
    elif request.input_path is not None:
        with open(request.input_path, encoding="utf-8") as handle:
            head = handle.read(2048).lstrip()
        if head.startswith("{") and '"degree"' in head:
            return parse_system(request.input_path), f"system file {request.input_path}"
        structure = _load_structure(request)
    else:
        raise _InputError("no input: pass --dataset NAME or a structure/system file")
    system = sample_system(structure, request.degree, request.seed, request.distribution)
    return system, (
        f"random member (degree={request.degree}, seed={request.seed}, "
        f"distribution={request.distribution})"
    )


def _point(request, n):
    if request.from_point is None:
        raise _InputError(f"--from X1,...,X{n} is required for this subcommand")
    if len(request.from_point) != n:
        raise _InputError(f"--from must have {n} components, got {len(request.from_point)}")
    return np.array(request.from_point, dtype=np.float64)


def _render_report(report, request):
    if request.output == "json":
        return _json_text(report.to_json_dict())
    r = report
    lines = [
        f"structure: {r.num_equations} equations, {r.num_variables} variables",
        f"maxrank (generic rank): {r.structural_rank}",
        f"classification: {r.classification}"
        + (" (solutions persist under small perturbations)"
           if r.classification == "robust"
           else " (no solution set is robust)"),
        f"solution sets: d-flat with d = {r.solution_dimension}",
        "matching witness: "
        + ", ".join(f"f{e + 1}<-x{v + 1}" for e, v in r.matching),
    ]
    return "\n".join(lines) + "\n"


def _cmd_rank(request):
    pattern = _load_structure(request)
    matching = maximum_matching(pattern)
    payload = {
        "rank": len(matching),
        "M": pattern.num_equations,
        "N": pattern.num_variables,
        "matching": [[e + 1, v + 1] for e, v in matching],
    }
    if request.output == "json":
        return _json_text(payload)
    return f"structural rank: {payload['rank']} (M={payload['M']}, N={payload['N']})\n"


def _cmd_classify(request):
    pattern = _load_structure(request)
    return _render_report(classify(pattern), request)


def _cmd_knockout(request):
    pattern = _load_structure(request)
    entries = knockout_sweep(pattern)
    flips = [en.node + 1 for en in entries if en.flips_to_robust]
    if request.output == "json":
        return _json_text({
            "base": classify(pattern).to_json_dict(),
            "knockouts": [
                {"node": en.node + 1, "flips_to_robust": en.flips_to_robust,
                 **en.report.to_json_dict()}
                for en in entries
            ],
            "fragile_to_robust": flips,
        })
    lines = ["node  rank  class    dim  flips-to-robust"]
    for en in entries:
        r = en.report
        lines.append(
            f"{en.node + 1:>4}  {r.structural_rank:>4}  {r.classification:<8}"
            f" {r.solution_dimension:>3}  {'yes' if en.flips_to_robust else ''}"
        )
    lines.append(
        "fragile -> robust knockouts: "
        + (", ".join(str(k) for k in flips) if flips else "none")
    )
    return "\n".join(lines) + "\n"


def _render_certification(report, request, heading):
    if request.output == "json":
        return _json_text(report.to_json_dict())
    run_info = f"trials: {report.trials}  seed: {report.seed}"
    if report.degree is not None:
        run_info += f"  degree: {report.degree}"
    if report.distribution is not None:
        run_info += f"  distribution: {report.distribution}"
    lines = [
        heading,
        run_info,
        f"estimated rank (max observed): {report.estimated_rank}",
        "histogram: " + ", ".join(
            f"rank {k}: {v}" for k, v in sorted(report.rank_histogram.items())
        ),
    ]
    if report.target_rank is not None:
        lines.append(
            f"agreement with structural rank {report.target_rank}: "
            f"{report.agreement_count}/{report.trials} ({report.agreement_rate:.2%})"
        )
        lines.append("result: PASS" if report.passed else "result: FAIL")
    return "\n".join(lines) + "\n"


def _cmd_certify(request):
    pattern = _load_structure(request)
    if isinstance(pattern, GeneralizedStructure):
        raise StructrankError(
            "certify needs a plain pattern; use generic-rank for derived-variable systems"
        )
    report = numrank.certify_acr(
        pattern, trials=request.trials, degree=request.degree, seed=request.seed,
        tol=_tolerance(request), distribution=request.distribution,
        pass_threshold=request.pass_threshold,
    )
    return _render_certification(report, request, "almost-constant-rank certification")


def _cmd_generic_rank(request):
    structure = _load_structure(request)
    report = numrank.generic_rank_randomized(
        structure, trials=request.trials, degree=request.degree, seed=request.seed,
        tol=_tolerance(request), distribution=request.distribution,
    )
    return _render_certification(report, request, "randomized generic-rank estimate")


def _cmd_trace(request):
    system, origin = _load_system(request)
    p = _point(request, system.num_variables)
    branch = cont.trace_curve(
        system, p, step=request.step, max_points=request.max_points,
        tol=_tolerance(request), domain_radius=request.radius,
    )
    if request.output == "json":
        return _json_text(branch.to_json_dict())
    if request.output == "csv":
        return branch.to_csv()
    events = "; ".join(f"{ev.kind} ({'fwd' if ev.direction > 0 else 'bwd'})"
                       for ev in branch.events)
    return (
        f"system: {origin}\n"
        f"traced {len(branch.points)} points at rank {branch.rank}"
        f"{' (closed curve)' if branch.closed else ''}\n"
        f"events: {events or 'none'}\n"
        f"max residual: {max(bp.residual for bp in branch.points):.3e}\n"
    )


def _cmd_probe(request):
    system, origin = _load_system(request)
    p = _point(request, system.num_variables)
    if request.delta is not None:
        if len(request.delta) != system.num_equations:
            raise _InputError(
                f"--delta must have {system.num_equations} components, got {len(request.delta)}"
            )
        probe = cont.perturbation_probe(system, p, np.array(request.delta), seed=request.seed)
        if request.output == "json":
            return _json_text(probe.to_json_dict())
        status = "solved" if probe.solved else "no solution found"
        return (
            f"system: {origin}\nperturbation probe: {status}\n"
            f"residual floor: {probe.residual_floor:.6g} "
            f"({probe.starts_tried} starts, seed {request.seed})\n"
        )
    report = cont.manifold_probe(
        system, p, samples=request.samples, tol=_tolerance(request),
        step=request.step, seed=request.seed, domain_radius=request.radius,
    )
    if request.output == "json":
        return _json_text(report.to_json_dict())
    lines = [
        f"system: {origin}",
        f"rank at base point: {report.rank} (solution-set dimension {report.dimension})",
    ]
    if report.dimension == 0:
        lines.append(
            "isolated point confirmed" if report.isolated_confirmed
            else f"corrector returned to base point in {report.returned_count}"
                 f"/{report.samples_requested} probes"
        )
    else:
        lines.append(
            f"samples accepted: {report.samples_accepted}/{report.samples_requested}"
            f" (seed {request.seed})"
        )
        if report.rank_drop_found:
            where = ", ".join(f"{v:.4g}" for v in report.drop_point)
            lines.append(f"rank drop found: rank {report.drop_rank} at ({where})")
        elif report.samples_accepted > 0:
            lines.append("rank constant along all samples (manifold evidence)")
    return "\n".join(lines) + "\n"


def _cmd_matrix_space(request):
    if request.input_path is None:
        raise _InputError("matrix-space needs a JSON file with a 'basis' list")
    report = numrank.matrix_space_rank(
        parse_basis(request.input_path), trials=request.trials, seed=request.seed,
        tol=_tolerance(request),
    )
    return _render_certification(report, request, "matrix-subspace generic rank")


def _cmd_show(request):
    structure = _load_structure(request, as_pattern=False)
    if request.output == "dot":
        return to_dot(structure)
    if isinstance(structure, SystemGraph):
        structure = pattern_from_graph(structure)
    if request.output == "json":
        return _json_text(structure_to_json_dict(structure))
    if isinstance(structure, GeneralizedStructure):
        lines = [f"variables: {structure.num_variables}"]
        for spec in structure.derived:
            terms = " + ".join(f"{c:g}*x{i + 1}" for i, c in spec.coefficients)
            lines.append(f"derived {spec.name} = {terms}")
        for e, dep in enumerate(structure.dependencies):
            names = ", ".join(
                item if isinstance(item, str) else f"x{item + 1}"
                for item in sorted(dep, key=lambda d: (isinstance(d, str), d))
            )
            lines.append(f"f{e + 1}({names})")
        return "\n".join(lines) + "\n"
    lines = []
    for e, row in enumerate(structure.rows()):
        lines.append(f"f{e + 1}(" + ", ".join(f"x{v + 1}" for v in row) + ")")
    return "\n".join(lines) + "\n"


def _cmd_datasets(request):
    if request.output == "json":
        return _json_text({
            name: {
                "title": d.title,
                "M": d.structure.num_equations,
                "N": d.structure.num_variables,
                "self_loops": d.self_loops,
                "expected_rank": d.expected_rank,
                "has_system": d.system is not None,
            }
            for name, d in DATASETS.items()
        })
    lines = ["name          size    expected rank  title"]
    for name in sorted(DATASETS):
        d = DATASETS[name]
        size = f"{d.structure.num_equations}x{d.structure.num_variables}"
        rank = "?" if d.expected_rank is None else str(d.expected_rank)
        lines.append(f"{name:<13} {size:<7} {rank:<14} {d.title}")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "rank": _cmd_rank,
    "classify": _cmd_classify,
    "knockout": _cmd_knockout,
    "certify": _cmd_certify,
    "generic-rank": _cmd_generic_rank,
    "trace": _cmd_trace,
    "probe": _cmd_probe,
    "matrix-space": _cmd_matrix_space,
    "show": _cmd_show,
    "datasets": _cmd_datasets,
}


def run(request: AnalysisRequest) -> tuple[int, str]:
    """Dispatch a request; returns (exit code, rendered report or error text)."""
    handler = _COMMANDS.get(request.subcommand)
    if handler is None:
        return 2, f"error: unknown subcommand {request.subcommand!r}\n"
    try:
        return 0, handler(request)
    except (_InputError, ParseError, OSError) as exc:
        return 2, f"error: {exc}\n"
    except (StructrankError, ValueError) as exc:
        return 1, f"error: {type(exc).__name__}: {exc}\n"


def _finite_floats(text):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _checked_float(check):
    """argparse type: a float that ``check`` accepts (it raises ValueError otherwise)."""
    def parse(text):
        try:
            value = float(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _positive(value):
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"must be finite and > 0, got {value!r}")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# Every subcommand flag, declared once; subcommands pick theirs by name and
# may override the default.
_FLAGS = {
    "--trials": dict(type=_positive_int, default=200),
    "--seed": dict(type=int, default=0),
    "--degree": dict(type=_positive_int, default=2),
    "--distribution": dict(choices=["uniform", "normal"], default="uniform"),
    "--pass-threshold": dict(dest="pass_threshold",
                             type=_checked_float(numrank.check_pass_threshold), default=0.99),
    "--from": dict(dest="from_point", type=_finite_floats, required=True,
                   help="start point, comma separated"),
    "--samples": dict(type=_positive_int, default=50),
    "--delta": dict(type=_finite_floats, default=None),
    "--step": dict(type=_checked_float(_positive), default=0.05),
    "--max-points": dict(dest="max_points", type=_positive_int, default=400),
    "--radius": dict(type=_checked_float(_positive), default=10.0),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="structrank",
        description="Generic-rank and robustness analysis of structured equation systems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    default_output = os.environ.get(OUTPUT_ENV_VAR, "text")

    def add(name, help_text, flags=(), needs_input=True, **defaults):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input_path", nargs="?", default=None,
                           help="structure/system file (or use --dataset)")
            p.add_argument("--dataset", help="bundled dataset name")
            p.add_argument("--format", dest="fmt", choices=["json", "edges", "pattern"],
                           help="override input format detection")
        p.add_argument("-o", "--output", default=default_output,
                       choices=["text", "json", "dot", "csv"],
                       help=f"output format (default from ${OUTPUT_ENV_VAR} or text)")
        p.add_argument("--tol", dest="rel_tol", default=1e-8,
                       type=_checked_float(lambda v: numrank.RankTolerance(relative_threshold=v)),
                       help="relative singular-value threshold")
        p.add_argument("--tol-floor", dest="abs_floor", default=1e-12,
                       type=_checked_float(lambda v: numrank.RankTolerance(absolute_floor=v)),
                       help="absolute singular-value floor")
        for flag in flags:
            kwargs = dict(_FLAGS[flag])
            dest = kwargs.get("dest", flag[2:])
            if dest in defaults:
                kwargs["default"] = defaults[dest]
            p.add_argument(flag, **kwargs)

    add("rank", "structural (generic) rank of a pattern")
    add("classify", "rank, robust/fragile class, and solution dimension")
    add("knockout", "classify every single-node knockout of a square system")
    add("certify", "Monte Carlo certification that random members attain the structural rank",
        ("--trials", "--seed", "--degree", "--distribution", "--pass-threshold"), trials=1000)
    add("generic-rank", "randomized generic-rank estimate (works for derived variables)",
        ("--trials", "--seed", "--degree", "--distribution"))
    add("trace", "trace the 1-dimensional solution curve through a point",
        ("--from", "--step", "--max-points", "--seed", "--degree", "--radius"))
    add("probe", "sample the solution set (or try a right-hand-side perturbation with --delta)",
        ("--from", "--samples", "--delta", "--step", "--seed", "--degree", "--radius"), step=0.2)
    add("matrix-space", "generic rank of the span of basis matrices", ("--trials", "--seed"))
    add("show", "print a structure (text, json, or dot)")
    add("datasets", "list bundled datasets", needs_input=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    fields = {f for f in AnalysisRequest.__dataclass_fields__}
    request = AnalysisRequest(**{
        k: v for k, v in vars(namespace).items() if k in fields and v is not None
    })
    code, text = run(request)
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
