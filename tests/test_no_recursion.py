"""Library code does not recurse on its input.

Python's recursion limit, about a thousand frames, must not decide whether
an input is answered: an equation over a thousand symbols, or a matching
along a five-thousand-row chain, once raised RecursionError. This scan keeps every
function in ``src/`` from calling itself by name, with no exception.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "structrank"
BOUNDED = set()


def self_calls(source):
    """(line, function) of every call a function in ``source`` makes to itself by name.

    A call counts by the bare name, or through ``self`` or ``cls`` to a
    method of that name; a nested function calling its enclosing one counts
    for the enclosing one. Another object's method of the same name does not.
    """
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if ((isinstance(func, ast.Name) and func.id == function.name)
                    or (isinstance(func, ast.Attribute) and func.attr == function.name
                        and isinstance(func.value, ast.Name)
                        and func.value.id in ("self", "cls"))):
                found.append((node.lineno, function.name))
    return found


def test_no_function_calls_itself():
    found = {(path.name, function): line for path in sorted(SRC.glob("*.py"))
             for line, function in self_calls(path.read_text())}
    assert set(found) == BOUNDED, f"recursive functions in src/structrank: {found}"


@pytest.mark.parametrize("source, expected", [
    ("def f(n):\n    return f(n - 1) if n else 0\n", [(2, "f")]),
    ("class T:\n    def walk(self, x):\n        return [self.walk(y) for y in x]\n",
     [(3, "walk")]),
    ("def f(x):\n    def g():\n        return f(x)\n    return g()\n", [(3, "f")]),
    # Another object's method and the base class's are not the function itself.
    ("def to_json_dict(self):\n    return self.tolerance.to_json_dict()\n", []),
    ("class E(Exception):\n    def __init__(self):\n        super().__init__()\n", []),
    ("def f(stack):\n    while stack:\n        stack.extend(stack.pop())\n", []),
])
def test_scan_finds_self_calls(source, expected):
    assert self_calls(source) == expected
