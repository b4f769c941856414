"""The package runs on the oldest numpy that pyproject.toml declares.

The suite runs on one numpy; this scan catches a name of the numpy 2.0 API
in ``src/`` while the declared floor is below 2.0, where it does not exist.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Names numpy 2.0 or later added; numpy 1.x has none of them (np.bool was
# removed in 1.24 and came back in 2.0).
NUMPY2_NAMES = frozenset({
    "vecdot", "matvec", "vecmat", "unstack", "concat", "permute_dims", "astype", "isdtype",
    "cumulative_sum", "cumulative_prod", "bitwise_count", "matrix_transpose", "unique_all",
    "unique_counts", "unique_inverse", "unique_values", "pow", "acos", "acosh", "asin", "asinh",
    "atan", "atan2", "atanh", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
    "bool",
})
# numpy.linalg names numpy 2.0 added.
NUMPY2_LINALG_NAMES = frozenset({
    "vecdot", "matrix_transpose", "matrix_norm", "vector_norm", "svdvals", "diagonal", "trace",
    "outer", "cross", "tensordot", "matmul",
})


def declared_floor():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'"numpy>=(\d+)\.(\d+)', text).groups()
    return int(major), int(minor)


def numpy2_uses(path):
    """(line, dotted name) of every numpy 2.0 name that ``path`` uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"numpy": NUMPY2_NAMES, "numpy.linalg": NUMPY2_LINALG_NAMES}
    aliases = {"numpy": "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in names)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in names:
            uses += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                     if a.name in names[node.module]]
        elif isinstance(node, ast.Attribute):
            # np.linalg.x is numpy.linalg.x under ``import numpy as np``.
            head, _, rest = ast.unparse(node.value).partition(".")
            module = ".".join(filter(None, (aliases[head], rest))) if head in aliases else None
            if node.attr in names.get(module, ()):
                uses.append((node.lineno, f"{module}.{node.attr}"))
    return uses


def test_src_uses_no_name_newer_than_the_declared_numpy():
    if declared_floor() >= (2, 0):
        pytest.skip("the declared numpy floor has the numpy 2.0 names")
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name in sorted(numpy2_uses(path))]
    assert found == [], "numpy 2.0 names under a numpy<2 floor:\n" + "\n".join(found)


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np\nnp.vecdot(a, b)\n", [(2, "numpy.vecdot")]),
    ("import numpy\nx = numpy.linalg.vector_norm(a)\n", [(2, "numpy.linalg.vector_norm")]),
    ("import numpy as np\nnp.linalg.matmul(a, b)\n", [(2, "numpy.linalg.matmul")]),
    ("import numpy.linalg as la\nla.vecdot(a, b)\n", [(2, "numpy.linalg.vecdot")]),
    ("from numpy import concat, zeros\n", [(1, "numpy.concat")]),
    ("import numpy as np\ny = np.bool\n", [(2, "numpy.bool")]),
    # Methods and names of numpy 1.x are not numpy 2.0 names.
    ("import numpy as np\nx.astype(int)\nnp.bool_\nnp.matmul(a, b)\nnp.linalg.svd(a)\n", []),
])
def test_scan_finds_numpy2_names(source, expected, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert numpy2_uses(path) == expected
