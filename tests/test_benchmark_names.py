"""Every package name the traced benchmark wraps still exists.

``perfbench/tracer.py`` replaces the functions in ``FUNCTIONS`` and the
methods in ``METHODS`` with timing wrappers. A refactor that deletes or moves
one of them (``StructurePattern.row`` has no caller in the package) breaks
the traced run, not the package, so this test reads the two tables and
resolves each name the way ``Tracer.install`` does.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Executed from source, so that no bytecode cache is written next to it.
TRACED = {"__name__": "perfbench_tracer"}
exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), TRACED)


@pytest.mark.parametrize("modname, attr", [(m, a) for m, a, _, _ in TRACED["FUNCTIONS"]])
def test_traced_function_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("modname, clsname, attr",
                         [(m, c, a) for m, c, a, _ in TRACED["METHODS"]])
def test_traced_method_resolves(modname, clsname, attr):
    cls = getattr(importlib.import_module(modname), clsname)
    assert callable(vars(cls)[attr])
