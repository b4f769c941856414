"""Each analysis builds its report at one call site.

An analysis with one exit is the one place where a new report field, a stop
reason or a proof is filled in. This scan counts, over ``src/``, the calls
that construct each report class by name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "structrank"
REPORTS = ("CertificationReport", "LocalDimension", "SolutionBranch", "ManifoldProbeReport",
           "PerturbationProbe")


def construction_sites(source, names):
    """Lines, in order, of the calls in ``source`` to each of ``names``, bare or as an attribute."""
    sites = {name: [] for name in names}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in sites:
                sites[name].append(node.lineno)
    return {name: sorted(lines) for name, lines in sites.items()}


def test_each_report_is_constructed_at_one_site():
    sites = {name: [] for name in REPORTS}
    for path in sorted(SRC.glob("*.py")):
        for name, lines in construction_sites(path.read_text(), REPORTS).items():
            sites[name] += [f"{path.name}:{line}" for line in lines]
    assert {name: len(found) for name, found in sites.items()} == dict.fromkeys(REPORTS, 1), sites


@pytest.mark.parametrize("source, expected", [
    ("def f(ok):\n    if ok:\n        return R(1)\n    return R(0)\n", {"R": [3, 4]}),
    ("x = module.R(a=1)\n", {"R": [1]}),
    # A name that is only referenced, annotated or subclassed is not a construction.
    ("def f() -> R:\n    return isinstance(x, R)\nclass S(R):\n    pass\n", {"R": []}),
])
def test_scan_counts_calls(source, expected):
    assert construction_sites(source, ("R",)) == expected
