"""Library code reads patterns through their rows.

A ``StructurePattern`` is stored as sorted row tuples, and ``allowed``
builds a frozenset of (equation, variable) pairs on every access. This scan
keeps every module of ``src/`` but ``structure.py`` on ``rows()`` and
``row(e)``, so no library path pays for that set.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def allowed_reads(path):
    """Line of every ``.allowed`` attribute that ``path`` reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "allowed"]


def test_only_structure_reads_allowed():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "structure.py"
             for line in allowed_reads(path)]
    assert found == [], "StructurePattern.allowed read outside structure.py:\n" + "\n".join(found)


@pytest.mark.parametrize("source, expected", [
    ("for e, v in sorted(p.allowed):\n    pass\n", [1]),
    ("n = len(\n    self.pattern.allowed)\n", [2]),
    # A local name or keyword argument called allowed is not a pattern read.
    ("allowed = set()\nf(allowed=allowed)\n", []),
])
def test_scan_finds_allowed_reads(source, expected, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert allowed_reads(path) == expected
