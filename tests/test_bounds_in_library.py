"""Size bounds are checked by the library, never by the command line.

Each bound is checked once, by the library call that would build what it
bounds, so a library caller is held to it as the command line is. This scan
keeps ``cli.py`` from naming a bound or its check, so that no second copy
of a check, or of the library default it depends on, grows back there.
"""

import ast
from pathlib import Path

import pytest

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
