"""Command-line front end tying the analyses together.

Exit codes: 0 success, 1 analysis error, 2 input/usage error. JSON output is
schema-stable and byte-identical for identical requests and seeds.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, fields

from .datasets import DATASETS, Dataset, get_dataset
from .errors import ParseError, StructrankError
from .formats import parse_basis, parse_input, structure_to_json_dict, to_dot
from .structural import _knockout_sweep, classify
from .structure import GeneralizedStructure, StructurePattern, SystemGraph, pattern_from_graph
from .structure import check_count, check_positive

# The numeric modules (numrank, polysys, continuation) import numpy, so the
# handlers that need them import them; the structural subcommands never do.

__all__ = ["AnalysisRequest", "run", "main"]

OUTPUT_ENV_VAR = "STRUCTRANK_OUTPUT"


@dataclass
class AnalysisRequest:
    """One validated invocation of a subcommand.

    An analysis field left at None was not given: the library function it
    goes to applies its own default. A subcommand accepts only the fields of
    its own flags.
    """

    subcommand: str
    input_path: str | None = None
    dataset: str | None = None
    fmt: str | None = None
    output: str = "text"
    trials: int | None = None
    seed: int | None = None
    degree: int | None = None
    distribution: str | None = None
    rel_tol: float | None = None
    abs_floor: float | None = None
    pass_threshold: float | None = None
    step: float | None = None
    max_points: int | None = None
    samples: int | None = None
    radius: float | None = None
    from_point: tuple[float, ...] | None = None
    delta: tuple[float, ...] | None = None


class _InputError(Exception):
    """Wrapper marking a failure as an input problem (exit code 2)."""


def _json_text(payload):
    # With an indent, json.dumps collects every chunk in a list before joining
    # them; json.dump writes each chunk to one buffer as it is made.
    text = io.StringIO()
    json.dump(payload, text, sort_keys=True, indent=2, separators=(",", ": "))
    text.write("\n")
    return text.getvalue()


# Request fields that library functions take under another name.
_KEYWORDS = {"rel_tol": "relative_threshold", "abs_floor": "absolute_floor",
             "radius": "domain_radius"}


def _given(request, *fields):
    """Keyword arguments for those of ``fields`` that the request gives."""
    return {_KEYWORDS.get(f, f): getattr(request, f)
            for f in fields if getattr(request, f) is not None}


def _tolerance(request):
    from .numrank import RankTolerance

    return RankTolerance(**_given(request, "rel_tol", "abs_floor"))


_STRUCTURES = (StructurePattern, GeneralizedStructure, SystemGraph)


def _input(request, as_pattern=True):
    """Resolve --dataset or the input file to (structure, source).

    ``source`` is the Dataset, or what the file holds: a structure or a
    serialized system. A SystemGraph becomes its pattern unless
    ``as_pattern`` is false.
    """
    if request.dataset is not None:
        if request.input_path is not None:
            raise _InputError("give either --dataset or an input file, not both")
        try:
            source = get_dataset(request.dataset)
        except StructrankError as exc:
            raise _InputError(str(exc)) from exc
    elif request.input_path is not None:
        source = parse_input(request.input_path, request.fmt)
    else:
        raise _InputError("no input: pass --dataset NAME or a structure/system file")
    structure = source if isinstance(source, _STRUCTURES) else source.structure
    if as_pattern and isinstance(structure, SystemGraph):
        structure = pattern_from_graph(structure)
    return structure, source


def _system(request, uses_seed):
    """The polynomial system to analyze, and a line naming its origin.

    Without a bundled or serialized system, a random member of the structure
    is sampled with the request's degree and seed. ``uses_seed`` says whether
    the analysis itself draws from the seed, so that a system of its own
    still has a use for one.
    """
    structure, source = _input(request)
    if isinstance(source, Dataset):
        system, origin = source.system, f"dataset {request.dataset} (bundled system)"
    elif isinstance(source, _STRUCTURES):
        system = None
    else:
        system, origin = source, f"system file {request.input_path}"
    if system is None:
        from .polysys import sample_system

        system = sample_system(structure, **_given(request, "degree", "seed"))
        origin = (f"random member (degree={system.degree}, seed={system.seed}, "
                  f"distribution={system.distribution})")
    elif request.degree is not None:
        raise _InputError(f"--degree is unused: {origin} is a system of its own "
                          f"(degree {system.degree}), not a sampled member")
    elif request.seed is not None and not uses_seed:
        raise _InputError(f"--seed is unused: {origin} is a system of its own, "
                          f"not a sampled member, and {request.subcommand} draws nothing")
    return system, origin


def _point(request, n):
    if request.from_point is None:
        raise _InputError(f"--from X1,...,X{n} is required for this subcommand")
    if len(request.from_point) != n:
        raise _InputError(f"--from must have {n} components, got {len(request.from_point)}")
    return request.from_point


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
    pattern, _ = _input(request)
    payload = classify(pattern).to_json_dict()
    if request.output == "json":
        return _json_text({key: payload[key] for key in ("rank", "M", "N", "matching")})
    return f"structural rank: {payload['rank']} (M={payload['M']}, N={payload['N']})\n"


def _cmd_classify(request):
    pattern, _ = _input(request)
    return _render_report(classify(pattern), request)


def _cmd_knockout(request):
    pattern, _ = _input(request)
    base, entries = _knockout_sweep(pattern)
    flips = [en.node + 1 for en in entries if en.flips_to_robust]
    if request.output == "json":
        return _json_text({
            "base": base.to_json_dict(),
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
    from .numrank import certify_acr

    pattern, _ = _input(request)
    report = certify_acr(
        pattern, tol=_tolerance(request),
        **_given(request, "trials", "degree", "seed", "distribution", "pass_threshold"),
    )
    return _render_certification(report, request, "almost-constant-rank certification")


def _cmd_generic_rank(request):
    from .numrank import generic_rank_randomized

    structure, _ = _input(request)
    report = generic_rank_randomized(
        structure, tol=_tolerance(request),
        **_given(request, "trials", "degree", "seed", "distribution"),
    )
    return _render_certification(report, request, "randomized generic-rank estimate")


def _cmd_trace(request):
    from . import continuation as cont

    system, origin = _system(request, uses_seed=False)
    p = _point(request, system.num_variables)
    branch = cont.trace_curve(
        system, p, tol=_tolerance(request), **_given(request, "step", "max_points", "radius"),
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
    from . import continuation as cont

    system, origin = _system(request, uses_seed=True)
    p = _point(request, system.num_variables)
    if request.delta is not None:
        unused = [flag for flag, value in (
            ("--samples", request.samples), ("--step", request.step), ("--radius", request.radius),
            ("--tol", request.rel_tol), ("--tol-floor", request.abs_floor)) if value is not None]
        if unused:
            raise _InputError(f"--delta runs the perturbation probe, which does not use "
                              f"{', '.join(unused)}")
        if len(request.delta) != system.num_equations:
            raise _InputError(
                f"--delta must have {system.num_equations} components, got {len(request.delta)}"
            )
        probe = cont.perturbation_probe(system, p, request.delta, **_given(request, "seed"))
        if request.output == "json":
            return _json_text(probe.to_json_dict())
        status = "solved" if probe.solved else "no solution found"
        return (
            f"system: {origin}\nperturbation probe: {status}\n"
            f"residual floor: {probe.residual_floor:.6g} "
            f"({probe.starts_tried} starts, seed {request.seed or 0})\n"
        )
    report = cont.manifold_probe(
        system, p, tol=_tolerance(request),
        **_given(request, "samples", "step", "seed", "radius"),
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
            f" (seed {request.seed or 0})"
        )
        if report.rank_drop_found:
            where = ", ".join(f"{v:.4g}" for v in report.drop_point)
            lines.append(f"rank drop found: rank {report.drop_rank} at ({where})")
        elif set(report.rank_histogram) == {report.rank}:
            lines.append("rank constant along all samples (manifold evidence)")
        elif report.samples_accepted > 0:
            ranks = ", ".join(str(r) for r in sorted(report.rank_histogram))
            lines.append(f"rank changed near the base point: samples at rank {ranks}, "
                         f"base rank {report.rank}")
    return "\n".join(lines) + "\n"


def _cmd_matrix_space(request):
    if request.input_path is None:
        raise _InputError("matrix-space needs a JSON file with a 'basis' list")
    from .numrank import matrix_space_rank

    report = matrix_space_rank(
        parse_basis(request.input_path), tol=_tolerance(request),
        **_given(request, "trials", "seed"),
    )
    return _render_certification(report, request, "matrix-subspace generic rank")


def _cmd_show(request):
    structure, _ = _input(request, as_pattern=request.output != "dot")
    if request.output == "dot":
        return to_dot(structure)
    if request.output == "json":
        return _json_text(structure_to_json_dict(structure))
    # The derived lines refer to x1..xN, so a structure with derived variables names N.
    lines = [f"variables: {structure.num_variables}"] if structure.derived else []
    for spec in structure.derived:
        terms = " + ".join(f"{c:g}*x{i + 1}" for i, c in spec.coefficients)
        lines.append(f"derived {spec.name} = {terms}")
    for e, row in enumerate(structure.rows()):
        names = ", ".join(sym if isinstance(sym, str) else f"x{sym + 1}" for sym in row)
        lines.append(f"f{e + 1}({names})")
    return "\n".join(lines) + "\n"


def _cmd_datasets(request):
    if request.output == "json":
        return _json_text({
            name: {
                "title": d.title,
                "M": d.structure.num_equations,
                "N": d.structure.num_variables,
                "self_loops": False,  # no dataset adds self-loops by policy
                "expected_rank": d.expected_rank,
                "has_system": d.has_system,
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


# flags are keys of _FLAGS; outputs are the -o formats the handler renders.
_Command = namedtuple("_Command", "handler help flags outputs", defaults=((), ("text", "json")))
_INPUT = ("input_path", "--dataset", "--format")
_TOL = ("--tol", "--tol-floor")
_SAMPLED = (*_INPUT, "--trials", "--seed", "--degree", "--distribution")
_AT_POINT = (*_INPUT, "--from", "--step", "--seed", "--degree", "--radius")

# Every subcommand, declared once. The parser and run() both read this table,
# so a subcommand accepts exactly the flags and output formats it uses.
_COMMANDS = {
    "rank": _Command(_cmd_rank, "structural (generic) rank of a pattern", _INPUT),
    "classify": _Command(_cmd_classify, "rank, robust/fragile class, and solution dimension",
                         _INPUT),
    "knockout": _Command(_cmd_knockout, "classify every single-node knockout of a square system",
                         _INPUT),
    "certify": _Command(_cmd_certify, "Monte Carlo certification that random members attain "
                        "the structural rank", (*_SAMPLED, "--pass-threshold", *_TOL)),
    "generic-rank": _Command(_cmd_generic_rank, "randomized generic-rank estimate (works for "
                             "derived variables)", (*_SAMPLED, *_TOL)),
    "trace": _Command(_cmd_trace, "trace the 1-dimensional solution curve through a point",
                      (*_AT_POINT, "--max-points", *_TOL), ("text", "json", "csv")),
    "probe": _Command(_cmd_probe, "sample the solution set (or try a right-hand-side "
                      "perturbation with --delta)", (*_AT_POINT, "--samples", "--delta", *_TOL)),
    "matrix-space": _Command(_cmd_matrix_space, "generic rank of the span of basis matrices",
                             ("input_path", "--trials", "--seed", *_TOL)),
    "show": _Command(_cmd_show, "print a structure (text, json, or dot)", _INPUT,
                     ("text", "json", "dot")),
    "datasets": _Command(_cmd_datasets, "list bundled datasets"),
}


def run(request: AnalysisRequest) -> tuple[int, str]:
    """Dispatch a request; returns (exit code, rendered report or error text)."""
    command = _COMMANDS.get(request.subcommand)
    if command is None:
        return 2, f"error: unknown subcommand {request.subcommand!r}\n"
    if request.output not in command.outputs:
        return 2, (f"error: {request.subcommand} has no output format {request.output!r} "
                   f"(from ${OUTPUT_ENV_VAR} or the request); use {', '.join(command.outputs)}\n")
    # A field is given when it is not None; the fields of other flags must not be.
    own = {"subcommand", "output", *(_FLAGS[flag].get("dest", flag.lstrip("-").replace("-", "_"))
                                     for flag in command.flags)}
    unused = [f.name for f in fields(request)
              if f.name not in own and getattr(request, f.name) is not None]
    if unused:
        return 2, (f"error: {request.subcommand} does not use the request field(s) "
                   f"{', '.join(unused)}\n")
    try:
        return 0, command.handler(request)
    except (_InputError, ParseError, OSError) as exc:
        if isinstance(exc, ParseError) and exc.path is None:  # a size bound the library checks
            exc = ParseError(exc.message, request.input_path, exc.line, exc.where)
        return 2, f"error: {exc}\n"
    except (StructrankError, ValueError) as exc:
        return 1, f"error: {type(exc).__name__}: {exc}\n"
    except Exception as exc:
        return 1, f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}\n"


def _finite_floats(text):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _checked(parse, check, *args):
    """argparse type: the text, ``parse``d, as the library's ``check(value, *args)`` returns it."""
    def flag_type(text):
        try:
            value = parse(text)
        except ValueError:
            noun = "an integer" if parse is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        try:
            return check(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return flag_type


# The numrank checks reach numpy only when their flag is given.
def _pass_threshold(value):
    from .numrank import check_pass_threshold

    return check_pass_threshold(value)


def _tolerance_field(value, field):
    from .numrank import RankTolerance

    return getattr(RankTolerance(**{field: value}), field)


# Every subcommand flag, declared once; _COMMANDS picks each subcommand's by
# name. No flag has a default: one left out takes the library function's default.
_FLAGS = {
    "input_path": dict(nargs="?", help="structure or system file; matrix-space: basis file"),
    "--dataset": dict(help="bundled dataset name"),
    "--format": dict(dest="fmt", choices=["json", "edges", "pattern"],
                     help="override input format detection"),
    "--tol": dict(dest="rel_tol", type=_checked(float, _tolerance_field, "relative_threshold"),
                  help="relative singular-value threshold"),
    "--tol-floor": dict(dest="abs_floor", type=_checked(float, _tolerance_field, "absolute_floor"),
                        help="absolute singular-value floor"),
    "--trials": dict(type=_checked(int, check_count, "trials")),
    "--seed": dict(type=_checked(int, check_count, "seed", 0)),
    "--degree": dict(type=_checked(int, check_count, "degree")),
    "--distribution": dict(choices=["uniform", "normal"]),
    "--pass-threshold": dict(type=_checked(float, _pass_threshold)),
    "--from": dict(dest="from_point", type=_finite_floats, required=True,
                   help="start point, comma separated"),
    "--samples": dict(type=_checked(int, check_count, "samples")),
    "--delta": dict(type=_finite_floats),
    "--step": dict(type=_checked(float, check_positive, "step")),
    "--max-points": dict(type=_checked(int, check_count, "max_points")),
    "--radius": dict(type=_checked(float, check_positive, "domain_radius")),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="structrank",
        description="Generic-rank and robustness analysis of structured equation systems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    default_output = os.environ.get(OUTPUT_ENV_VAR, "text")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("-o", "--output", default=default_output, choices=command.outputs,
                       help=f"output format (default from ${OUTPUT_ENV_VAR} or text)")
    return parser


def main(argv=None) -> int:
    namespace = _build_parser().parse_args(argv)
    # Every parser dest is an AnalysisRequest field.
    code, text = run(AnalysisRequest(**{k: v for k, v in vars(namespace).items()
                                        if v is not None}))
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
