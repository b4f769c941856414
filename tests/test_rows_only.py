"""Library code reads structures through their rows.

A ``StructurePattern`` is stored as sorted row tuples, and ``allowed``
builds a frozenset of (equation, variable) pairs on every access. A
``GeneralizedStructure`` decides each equation's symbol order once, when it
is built; ``dependencies`` is its unordered constructor argument. These
scans keep every module of ``src/`` but ``structure.py`` on ``rows()``,
``row(e)`` and ``derived``, so no library path pays for a set or decides a
symbol order of its own, and keep the member and CLI readers from
branching on the kind of structure.
Within ``structure.py``, only the one entry check, ``_store``, assigns a
structure's rows, so every constructor keeps one rule for its entries.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "structrank"


def attribute_reads(path, attrs):
    """Line of every read of an attribute named in ``attrs`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in attrs]


def kind_tests(path, name="GeneralizedStructure"):
    """Line of every ``isinstance`` call in ``path`` whose class argument names ``name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any((isinstance(n, ast.Name) and n.id == name)
                    or (isinstance(n, ast.Attribute) and n.attr == name)
                    for arg in node.args[1:] for n in ast.walk(arg))]


def rows_assignments(path, attr="_rows"):
    """(line, enclosing function) of every assignment to ``attr`` in ``path``.

    An assignment is ``x._rows = ...`` (or augmented) or a ``setattr`` or
    ``object.__setattr__`` call naming ``attr``; a dataclass field declaration
    in a class body is not one.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else function)
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target] if isinstance(child, (ast.AugAssign, ast.AnnAssign))
                       else [])
            called = (isinstance(child, ast.Call) and len(child.args) > 1
                      and isinstance(child.args[1], ast.Constant) and child.args[1].value == attr
                      and ((isinstance(child.func, ast.Name) and child.func.id == "setattr")
                           or (isinstance(child.func, ast.Attribute)
                               and child.func.attr == "__setattr__")))
            if called or any(isinstance(n, ast.Attribute) and n.attr == attr
                             for t in targets for n in ast.walk(t)):
                found.append((child.lineno, function))
            visit(child, inner)

    visit(tree, None)
    return found


def reads_outside_structure(attrs):
    return [f"{path.relative_to(ROOT)}:{line}"
            for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "structure.py"
            for line in attribute_reads(path, attrs)]


def test_only_structure_reads_allowed():
    found = reads_outside_structure({"allowed"})
    assert found == [], "StructurePattern.allowed read outside structure.py:\n" + "\n".join(found)


def test_only_structure_reads_equations_past_rows():
    found = reads_outside_structure({"dependencies"})
    assert found == [], "dependencies read outside structure.py:\n" + "\n".join(found)


def test_only_the_entry_check_stores_rows():
    found = rows_assignments(SRC / "structure.py")
    assert found and {function for _, function in found} == {"_store"}, (
        "structure.py assigns _rows outside _store: " + repr(found))


@pytest.mark.parametrize("module", ["polysys.py", "cli.py"])
def test_readers_do_not_branch_on_generalized(module):
    assert kind_tests(SRC / module) == []


@pytest.mark.parametrize("source, expected", [
    ("for e, v in sorted(p.allowed):\n    pass\n", [1]),
    ("n = len(\n    self.pattern.allowed)\n", [2]),
    # A local name or keyword argument called allowed is not a pattern read.
    ("allowed = set()\nf(allowed=allowed)\n", []),
])
def test_scan_finds_allowed_reads(source, expected, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert attribute_reads(path, {"allowed"}) == expected


@pytest.mark.parametrize("source, expected", [
    ("rows = gs.dependencies\n", [1]),
    ("rows = list(map(\n    sorted, gs.dependencies))\n", [2]),
    ("symbols = structure.dependencies[0]\n", [1]),
    # Keyword arguments and local names are not reads of a structure.
    ("gs = GeneralizedStructure(3, dependencies=deps, derived=())\ndependencies = 1\n", []),
])
def test_scan_finds_equation_reads(source, expected, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert attribute_reads(path, {"dependencies"}) == expected


@pytest.mark.parametrize("source, expected", [
    ("if isinstance(s, GeneralizedStructure):\n    pass\n", [1]),
    ("ok = isinstance(s, (StructurePattern,\n                    GeneralizedStructure))\n", [1]),
    ("ok = isinstance(s, structure.GeneralizedStructure)\n", [1]),
    # Naming the class outside an isinstance test is allowed.
    ("KINDS = (StructurePattern, GeneralizedStructure)\nx: GeneralizedStructure = None\n", []),
    ("ok = isinstance(s, StructurePattern)\n", []),
])
def test_scan_finds_kind_tests(source, expected, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert kind_tests(path) == expected


@pytest.mark.parametrize("source, expected", [
    ("def _store(s, rows):\n    object.__setattr__(s, '_rows', rows)\n", [(2, "_store")]),
    ("class P:\n    def __init__(self):\n        self._rows = ()\n", [(3, "__init__")]),
    ("def f(p):\n    setattr(p, '_rows', ())\n    p._rows += ((0,),)\n",
     [(2, "f"), (3, "f")]),
    ("def g(p):\n    def h():\n        p.x, p._rows = 1, ()\n", [(3, "h")]),
    # A field declaration, a read, and another attribute are not assignments.
    ("class G:\n    _rows: tuple = field(init=False)\n"
     "    def rows(self):\n        return self._rows\n", []),
    ("def f(p):\n    object.__setattr__(p, 'num_variables', 2)\n", []),
])
def test_scan_finds_rows_assignments(source, expected, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert rows_assignments(path) == expected
