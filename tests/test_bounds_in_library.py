"""Size bounds and argument ranges are checked by the library, never by the command line.

Each bound is checked once, by the library call that would build what it
bounds, so a library caller is held to it as the command line is. This scan
keeps ``cli.py`` from naming a bound or its check, so that no second copy
of a check, or of the library default it depends on, grows back there. The
argument tests below hold each count, real and seed to one rule, and each numeric
flag to the message of the library check it hands its value to.
"""

import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from structrank import (
    DerivedVariableSpec, RankTolerance, certify_acr, generic_rank_randomized, manifold_probe,
    matrix_space_rank, perturbation_probe, sample_system, trace_curve,
)
from structrank import continuation, numrank, polysys
from structrank.cli import _FLAGS
from structrank.cli import main as cli_main
from structrank.datasets import get_dataset

CLI = Path(__file__).resolve().parents[1] / "src" / "structrank" / "cli.py"

CHECKS = {"check_jacobian_size", "check_basis_size", "check_plan_size", "plan_entries"}


def bound_names(path):
    """(line, name) of every size-bound check or ``MAX_*`` bound that ``path`` names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in CHECKS or name.startswith("MAX_"):
            found.append((node.lineno, name))
    return sorted(found)


def test_cli_names_no_size_bound():
    found = [f"cli.py:{line}: {name}" for line, name in bound_names(CLI)]
    assert found == [], "cli.py checks a size bound the library checks:\n" + "\n".join(found)


@pytest.mark.parametrize("source, expected", [
    ("from .formats import check_basis_size\n", [(1, "check_basis_size")]),
    ("x = 1\npolysys.check_plan_size(s, 2)\n", [(2, "check_plan_size")]),
    ("if n > formats.MAX_JACOBIAN_ENTRIES:\n    pass\n", [(1, "MAX_JACOBIAN_ENTRIES")]),
    ("from .structural import MAX_KNOCKOUT_NODES as LIMIT\n", [(1, "MAX_KNOCKOUT_NODES")]),
    # Names that are no bound, and a bound named only in a string, are not checks.
    ("max_points = check_degree(2)\nhelp = 'see MAX_PLAN_ENTRIES'\n", []),
])
def test_scan_finds_bound_names(source, expected, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert bound_names(path) == expected


# Argument rules: every count a library call is sized by, and every real it is
# tuned by, goes through structure.check_count or structure.check_real, and the
# command line parses a flag's text and hands the value to that same check.

CEP3 = get_dataset("cep3").structure
EQCEP1 = get_dataset("eqcep1").system
AT = (1.0, 1.0, 1.0)

CALLS = {
    ("certify_acr", "trials"): lambda v: certify_acr(CEP3, trials=v),
    ("generic_rank_randomized", "trials"): lambda v: generic_rank_randomized(CEP3, trials=v),
    ("matrix_space_rank", "trials"): lambda v: matrix_space_rank([np.eye(2)], trials=v),
    ("manifold_probe", "samples"): lambda v: manifold_probe(EQCEP1, AT, samples=v),
    ("trace_curve", "max_points"): lambda v: trace_curve(EQCEP1, AT, max_points=v),
    ("certify_acr", "degree"): lambda v: certify_acr(CEP3, trials=3, degree=v),
    ("sample_system", "degree"): lambda v: sample_system(CEP3, degree=v),
    ("trace_curve", "step"): lambda v: trace_curve(EQCEP1, AT, step=v),
    ("manifold_probe", "step"): lambda v: manifold_probe(EQCEP1, AT, step=v),
    ("trace_curve", "domain_radius"): lambda v: trace_curve(EQCEP1, AT, domain_radius=v),
    ("manifold_probe", "domain_radius"): lambda v: manifold_probe(EQCEP1, AT, domain_radius=v),
    ("certify_acr", "pass_threshold"): lambda v: certify_acr(CEP3, trials=3, pass_threshold=v),
    ("RankTolerance", "relative_threshold"): lambda v: RankTolerance(relative_threshold=v),
    ("RankTolerance", "absolute_floor"): lambda v: RankTolerance(absolute_floor=v),
    ("DerivedVariableSpec", "weight"): lambda v: DerivedVariableSpec("z", [(0, v)]),
}
COUNTS = {"trials", "samples", "max_points", "degree"}


@pytest.mark.parametrize("call, argument, value", [
    (call, argument, value) for call, argument in CALLS
    for value in (True, 2.5, "1", None, np.complex128(1), np.complex64(1), np.array([1.0, 2.0]))
    if type(value) is not float or argument in COUNTS
])
def test_a_bad_count_or_real_is_refused_naming_it(call, argument, value, monkeypatch):
    # At one time trials=True recorded "trials": true, max_points=2.5 traced 3 points,
    # step=True traced with max_step true and step="1" ended in numpy's unnamed
    # "ufunc 'isfinite' not supported". A complex step was once cast to a float with
    # a ComplexWarning, and step=np.array([1.0, 2.0]) ended in numpy's unnamed
    # "only 0-dimensional arrays can be converted to Python scalars".
    def no_report(*args, **kwargs):
        raise AssertionError(f"{call} built a report for {argument}={value!r}")

    for module, report in ((numrank, "CertificationReport"), (polysys, "StructuredPolySystem"),
                           (continuation, "SolutionBranch"),
                           (continuation, "ManifoldProbeReport")):
        monkeypatch.setattr(module, report, no_report)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((TypeError, ValueError)) as raised:
            CALLS[call, argument](value)
    assert argument in str(raised.value)


# A numeric flag, a bad value for it, and the library call its value goes to.
FLAGS = [
    ("--trials", ["certify", "--dataset", "cep3"], "0", lambda: certify_acr(CEP3, trials=0)),
    ("--degree", ["certify", "--dataset", "cep3"], "0", lambda: certify_acr(CEP3, degree=0)),
    ("--seed", ["probe", "--dataset", "xy", "--from", "1,1"], "-1",
     lambda: manifold_probe(get_dataset("xy").system, (1.0, 1.0), seed=-1)),
    ("--pass-threshold", ["certify", "--dataset", "cep3"], "1.5",
     lambda: certify_acr(CEP3, pass_threshold=1.5)),
    ("--tol", ["certify", "--dataset", "cep3"], "2", lambda: RankTolerance(2.0)),
    ("--tol-floor", ["certify", "--dataset", "cep3"], "-1",
     lambda: RankTolerance(absolute_floor=-1.0)),
    ("--samples", ["probe", "--dataset", "eqcep1", "--from", "1,1,1"], "0",
     lambda: manifold_probe(EQCEP1, AT, samples=0)),
    ("--step", ["trace", "--dataset", "eqcep1", "--from", "1,1,1"], "0",
     lambda: trace_curve(EQCEP1, AT, step=0.0)),
    ("--max-points", ["trace", "--dataset", "eqcep1", "--from", "1,1,1"], "0",
     lambda: trace_curve(EQCEP1, AT, max_points=0)),
    ("--radius", ["trace", "--dataset", "eqcep1", "--from", "1,1,1"], "-1",
     lambda: trace_curve(EQCEP1, AT, domain_radius=-1.0)),
]


def test_every_checked_flag_is_covered():
    checked = {flag for flag, spec in _FLAGS.items()
               if getattr(spec.get("type"), "__qualname__", "").startswith("_checked.")}
    assert checked == {flag for flag, *_ in FLAGS}


@pytest.mark.parametrize("flag, argv, text, call", FLAGS, ids=[flag for flag, *_ in FLAGS])
def test_a_flag_is_refused_with_its_library_message(flag, argv, text, call, capsys):
    # The command line once checked --step itself: "must be finite and > 0", against
    # the library's "step must be finite and positive".
    with pytest.raises(ValueError) as library:
        call()
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, flag, text])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: argument {flag}: {library.value}\n")


# Each library call that takes a seed, with a small request.
SEEDED = {
    "certify_acr": lambda seed: certify_acr(CEP3, trials=3, seed=seed),
    "generic_rank_randomized": lambda seed: generic_rank_randomized(CEP3, trials=3, seed=seed),
    "matrix_space_rank": lambda seed: matrix_space_rank([np.eye(2)], trials=3, seed=seed),
    "sample_system": lambda seed: sample_system(CEP3, seed=seed),
    "manifold_probe": lambda seed: manifold_probe(EQCEP1, AT, samples=3, seed=seed),
    "perturbation_probe": lambda seed: perturbation_probe(EQCEP1, AT, [1e-3] * 3, seed=seed),
}
STORED = ["certify_acr", "generic_rank_randomized", "matrix_space_rank", "sample_system"]


@pytest.mark.parametrize("seed", [-1, np.int64(-3)])
@pytest.mark.parametrize("call", SEEDED)
def test_a_negative_seed_is_refused_naming_it(call, seed):
    # Each once ended in numpy's unnamed "expected non-negative integer".
    with pytest.raises(ValueError, match=rf"^seed must be >= 0, got {int(seed)}$"):
        SEEDED[call](seed)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint8(5)])
@pytest.mark.parametrize("call", STORED)
def test_a_numpy_integer_seed_is_stored_as_int(call, seed):
    # The report or system once kept the numpy integer, which JSON cannot write.
    out = SEEDED[call](seed)
    assert type(out.seed) is int
    assert json.dumps(out.to_json_dict()) == json.dumps(SEEDED[call](int(seed)).to_json_dict())


@pytest.mark.parametrize("seed", [True, [1, 2**40], (7,)])
@pytest.mark.parametrize("call", STORED)
def test_a_sequence_or_true_seed_is_kept_as_given(call, seed):
    assert SEEDED[call](seed).seed is seed
