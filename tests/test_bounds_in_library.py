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
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrank import (
    DerivedVariableSpec, ParseError, RankTolerance, StructuredPolySystem, SystemGraph,
    certify_acr, combine,
    generic_rank_randomized, local_dimension, manifold_probe, matrix_space_rank, numeric_rank,
    perturbation_probe, rank_maximizer_sweep, sample_system, system_from_terms, trace_curve,
)
from structrank import continuation, numrank, polysys
from structrank.cli import _FLAGS
from structrank.cli import main as cli_main
from structrank.datasets import get_dataset
from structrank.formats import parse_input

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
# Two members of cep3 for rank_maximizer_sweep.
F, G = sample_system(CEP3, seed=0), sample_system(CEP3, seed=1)

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
    ("combine", "a"): lambda v: combine(v, EQCEP1, 1.0, EQCEP1),
    ("combine", "b"): lambda v: combine(1.0, EQCEP1, v, EQCEP1),
    ("rank_maximizer_sweep", "c_grid"): lambda v: rank_maximizer_sweep(F, G, AT, [0.5, v]),
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
    # "only 0-dimensional arrays can be converted to Python scalars". Each value
    # of rank_maximizer_sweep's c_grid once went through float(c): True swept
    # c = 1.0 and "1" c = 1.0, after both Jacobians were evaluated.
    def no_report(*args, **kwargs):
        raise AssertionError(f"{call} built a report or Jacobian for {argument}={value!r}")

    for module, report in ((numrank, "CertificationReport"), (continuation, "SolutionBranch"),
                           (continuation, "ManifoldProbeReport")):
        monkeypatch.setattr(module, report, no_report)
    monkeypatch.setattr(StructuredPolySystem, "__post_init__", no_report)
    monkeypatch.setattr(type(F), "jacobian", no_report)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((TypeError, ValueError)) as raised:
            CALLS[call, argument](value)
    assert argument in str(raised.value)


@pytest.mark.parametrize("a, b, message", [
    ("a", 1, "a must be a real number, got 'a'"),
    (1, np.array([2.0]), "b must be a real number, got array([2.])"),
])
def test_combine_names_a_scalar_that_is_not_real(a, b, message):
    # combine("a", f, 1, g) once ended in numpy's UFuncTypeError, which names no argument.
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        combine(a, EQCEP1, b, EQCEP1)


# Each library call that takes a rank tolerance, with a small request.
TOLERANT = {
    "numeric_rank": lambda tol: numeric_rank(np.eye(2), tol),
    "certify_acr": lambda tol: certify_acr(CEP3, trials=3, tol=tol),
    "generic_rank_randomized": lambda tol: generic_rank_randomized(CEP3, trials=3, tol=tol),
    "matrix_space_rank": lambda tol: matrix_space_rank([np.eye(2)], trials=3, tol=tol),
    "local_dimension": lambda tol: local_dimension(EQCEP1, AT, tol),
    "trace_curve": lambda tol: trace_curve(EQCEP1, AT, tol=tol),
    "manifold_probe": lambda tol: manifold_probe(EQCEP1, AT, samples=3, tol=tol),
    "rank_maximizer_sweep": lambda tol: rank_maximizer_sweep(F, G, AT, [], tol),
}


@pytest.mark.parametrize("tol", ["x", None, 1e-8])
@pytest.mark.parametrize("call", TOLERANT)
def test_a_tolerance_that_is_no_rank_tolerance_is_refused_before_any_work(call, tol, monkeypatch):
    # certify_acr(tol="x") once ran every trial, then ended in AttributeError:
    # "'str' object has no attribute 'rank_of'".
    def no_work(*args, **kwargs):
        raise AssertionError(f"{call} started work with tol={tol!r}")

    monkeypatch.setattr(numrank, "seeded_streams", no_work)
    monkeypatch.setattr(continuation, "_evaluate_start", no_work)
    monkeypatch.setattr(polysys.StructuredPolySystem, "jacobian", no_work)
    with pytest.raises(TypeError, match=rf"^tol must be a RankTolerance, got {re.escape(repr(tol))}$"):
        TOLERANT[call](tol)


# One bad argument each for the calls that draw members: (call, argument).
DRAWING = {
    "certify_acr-trials=0": (lambda: certify_acr(CEP3, trials=0), "trials"),
    "certify_acr-trials=True": (lambda: certify_acr(CEP3, trials=True), "trials"),
    "certify_acr-seed": (lambda: certify_acr(CEP3, trials=3, seed=-1), "seed"),
    "certify_acr-tol": (lambda: certify_acr(CEP3, trials=3, tol="x"), "tol"),
    "certify_acr-degree": (lambda: certify_acr(CEP3, trials=3, degree=0), "degree"),
    "certify_acr-distribution": (lambda: certify_acr(CEP3, trials=3, distribution="bogus"),
                                 "distribution"),
    "certify_acr-pass_threshold": (lambda: certify_acr(CEP3, trials=3, pass_threshold=1.5),
                                   "pass_threshold"),
    "generic_rank_randomized-trials": (lambda: generic_rank_randomized(CEP3, trials=0), "trials"),
    "generic_rank_randomized-seed": (lambda: generic_rank_randomized(CEP3, trials=3, seed=-1),
                                     "seed"),
    "generic_rank_randomized-tol": (lambda: generic_rank_randomized(CEP3, trials=3, tol="x"),
                                    "tol"),
    "generic_rank_randomized-degree": (lambda: generic_rank_randomized(CEP3, trials=3, degree=0),
                                       "degree"),
    "generic_rank_randomized-distribution": (
        lambda: generic_rank_randomized(CEP3, trials=3, distribution="bogus"), "distribution"),
    "sample_system-degree": (lambda: sample_system(CEP3, degree=0), "degree"),
    "sample_system-seed": (lambda: sample_system(CEP3, seed=-1), "seed"),
    "sample_system-distribution": (lambda: sample_system(CEP3, distribution="bogus"),
                                   "distribution"),
}


@pytest.mark.parametrize("call", DRAWING)
def test_a_call_that_draws_members_refuses_a_bad_argument_before_any_work(call, monkeypatch):
    # certify_acr(cep3, trials=0) once ran the matching and built the member plan
    # before it refused trials, and a bad distribution was refused only inside the
    # first draw, after the streams were seeded and a helper thread had started.
    def no_work(*args, **kwargs):
        raise AssertionError(f"{call} started work")

    for module, name in ((numrank, "structural_rank"), (numrank, "member_plan"),
                         (polysys, "member_plan"), (numrank, "seeded_streams")):
        monkeypatch.setattr(module, name, no_work)
    monkeypatch.setattr(threading.Thread, "start", no_work)
    run, argument = DRAWING[call]
    with pytest.raises((TypeError, ValueError), match=f"^{argument} must "):
        run()


def test_a_sweep_takes_numpy_and_int_grid_values_as_floats():
    swept = rank_maximizer_sweep(F, G, AT, [np.float32(0.5), np.int64(2), 3])
    assert [(type(c), c) for c, _ in swept] == [(float, 0.5), (float, 2.0), (float, 3.0)]


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


# Each library call that draws from a seed, with a small request.
SEEDED = {
    "certify_acr": lambda seed: certify_acr(CEP3, trials=3, seed=seed),
    "generic_rank_randomized": lambda seed: generic_rank_randomized(CEP3, trials=3, seed=seed),
    "matrix_space_rank": lambda seed: matrix_space_rank([np.eye(2)], trials=3, seed=seed),
    "sample_system": lambda seed: sample_system(CEP3, seed=seed),
    "manifold_probe": lambda seed: manifold_probe(EQCEP1, AT, samples=3, seed=seed),
    "perturbation_probe": lambda seed: perturbation_probe(EQCEP1, AT, [1e-3] * 3, seed=seed),
}
# The two that build an explicit system, where the seed None labels a system no seed drew.
LABELLED = {
    "system_from_terms": lambda seed: system_from_terms(CEP3, 1, [{}, {}, {}], seed=seed),
    "StructuredPolySystem": lambda seed: StructuredPolySystem(
        CEP3, 1, sample_system(CEP3, 1).equations, seed=seed),
}
ALL_SEEDED = {**SEEDED, **LABELLED}
STORED = ["certify_acr", "generic_rank_randomized", "matrix_space_rank", "sample_system",
          *LABELLED]


@pytest.mark.parametrize("seed", [-1, np.int64(-3)])
@pytest.mark.parametrize("call", ALL_SEEDED)
def test_a_negative_seed_is_refused_naming_it(call, seed):
    # Each once ended in numpy's unnamed "expected non-negative integer".
    with pytest.raises(ValueError, match=rf"^seed must be >= 0, got {int(seed)}$"):
        ALL_SEEDED[call](seed)


@pytest.mark.parametrize("seed", [True, [1, 2], (7,), 2.5, np.array([3])])
@pytest.mark.parametrize("call", ALL_SEEDED)
def test_a_seed_that_is_no_integer_is_refused_naming_it(call, seed):
    # A sequence or True once went to SeedSequence as given: seed=True drew
    # seed 1's streams and recorded "seed": true, and a sampled system with
    # seed [1, 2] wrote a file that the system reader refused.
    with pytest.raises(TypeError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        ALL_SEEDED[call](seed)


# Calls whose other arguments are bad as well: the seed is refused before them.
SEED_FIRST = {
    "perturbation_probe-point": lambda seed: perturbation_probe(
        EQCEP1, (1.0, 1.0, 1.0, 1.0), [0.0] * 3, seed=seed),
    "perturbation_probe-delta": lambda seed: perturbation_probe(EQCEP1, AT, [0.0] * 2, seed=seed),
    "system_from_terms": lambda seed: system_from_terms(CEP3, 1, [{(5,): 1.0}], seed=seed),
}


@pytest.mark.parametrize("seed, error, message", [
    (True, TypeError, "seed must be an integer, got True"),
    (-1, ValueError, "seed must be >= 0, got -1"),
], ids=["True", "-1"])
@pytest.mark.parametrize("call", SEED_FIRST)
def test_a_bad_seed_is_refused_before_any_work(call, seed, error, message, monkeypatch):
    # perturbation_probe(eqcep1, (1, 1, 1, 1), [0, 0, 0], seed=True) once reported
    # the point's shape, and system_from_terms reported its terms before the seed.
    def no_work(*args, **kwargs):
        raise AssertionError(f"{call} started work with seed={seed!r}")

    monkeypatch.setattr(continuation, "_evaluate_start", no_work)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        SEED_FIRST[call](seed)


@pytest.mark.parametrize("call", SEEDED)
def test_a_none_seed_is_refused_naming_it(call):
    # None once went to SeedSequence, which seeds from OS entropy: two calls drew
    # two different members or reports, each recording the seed None.
    with pytest.raises(TypeError, match=r"^seed must be an integer, got None$"):
        SEEDED[call](None)


@pytest.mark.parametrize("call", LABELLED)
def test_a_none_seed_labels_an_explicit_system(call):
    assert LABELLED[call](None).seed is None


@pytest.mark.parametrize("seed", [np.int64(3), np.uint8(5)])
@pytest.mark.parametrize("call", STORED)
def test_a_numpy_integer_seed_is_stored_as_int(call, seed):
    # The report or system once kept the numpy integer, which JSON cannot write.
    out = ALL_SEEDED[call](seed)
    assert type(out.seed) is int
    assert json.dumps(out.to_json_dict()) == json.dumps(ALL_SEEDED[call](int(seed)).to_json_dict())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-2**70, 2**200) | st.sampled_from(
    [True, False, 2.0, "3", [1, 2], [], np.int64(2**62), np.uint8(5), np.int16(-2)]))
def test_sampling_and_the_system_reader_take_the_same_seeds(seed, tmp_path_factory):
    # The reader also takes null, the label of an explicit system, which sampling refuses.
    path = tmp_path_factory.mktemp("seed") / "system.json"
    written = seed.item() if isinstance(seed, np.generic) else seed
    try:
        system = sample_system(CEP3, 1, seed=seed)
    except (TypeError, ValueError):
        path.write_text(json.dumps({**sample_system(CEP3, 1).to_json_dict(), "seed": written}))
        with pytest.raises(ParseError, match="'seed' must be an integer >= 0 or null"):
            parse_input(path)
    else:
        assert system.seed == written
        path.write_text(json.dumps(system.to_json_dict()))
        assert parse_input(path).to_json_dict() == system.to_json_dict()


# The three system builders, each with another argument bad as well: the
# structure is refused before it.
BUILDERS = {
    "sample_system": lambda structure: sample_system(structure, degree=0),
    "system_from_terms": lambda structure: system_from_terms(structure, -1, [{}]),
    "StructuredPolySystem": lambda structure: StructuredPolySystem(
        structure, True, EQCEP1.equations),
}


@pytest.mark.parametrize("structure", [[[0]], [[2], [2], [0, 1, 2]], SystemGraph(2, {(0, 1)}),
                                       "x", None], ids=["list", "rows", "graph", "str", "None"])
@pytest.mark.parametrize("call", BUILDERS)
def test_a_builder_refuses_anything_but_a_structure_first(call, structure):
    # sample_system([[0]], degree=2) once ended in "TypeError: unhashable type: 'list'"
    # from the member-plan cache, and StructuredPolySystem in an AttributeError.
    message = f"expected a structure, got {type(structure).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        BUILDERS[call](structure)


# Each library call that takes a system, and the name its system argument goes by.
SYSTEM_CALLS = {
    "local_dimension": (lambda system: local_dimension(system, AT), "system"),
    "trace_curve": (lambda system: trace_curve(system, AT, step=0), "system"),
    "manifold_probe": (lambda system: manifold_probe(system, AT, samples=0), "system"),
    "perturbation_probe": (lambda system: perturbation_probe(system, AT, [0.0], seed=-1),
                           "system"),
    "rank_maximizer_sweep-system": (lambda system: rank_maximizer_sweep(system, G, AT, ["x"]),
                                    "system"),
    "rank_maximizer_sweep-maximizer": (lambda system: rank_maximizer_sweep(F, system, AT, [0.5]),
                                       "maximizer"),
    "combine-f": (lambda system: combine("a", system, 1.0, EQCEP1), "f"),
    "combine-g": (lambda system: combine(1.0, EQCEP1, "b", system), "g"),
}


@pytest.mark.parametrize("system", ["x", None, CEP3], ids=["str", "None", "structure"])
@pytest.mark.parametrize("call", SYSTEM_CALLS)
def test_a_system_that_is_no_system_is_refused_naming_it(call, system, monkeypatch):
    # local_dimension("x", [1.0]) once ended in AttributeError: "'str' object has
    # no attribute 'jacobian'", and combine(1.0, "x", 1.0, "y") on "structure".
    def no_work(*args, **kwargs):
        raise AssertionError(f"{call} started work with system={system!r}")

    monkeypatch.setattr(continuation, "_evaluate_start", no_work)
    monkeypatch.setattr(polysys.StructuredPolySystem, "jacobian", no_work)
    build, name = SYSTEM_CALLS[call]
    message = f"{name} must be a StructuredPolySystem, got {type(system).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build(system)
