"""Every package name the traced benchmark wraps still exists, and every
command line of its ``cli`` workload still parses.

``perfbench/tracer.py`` replaces the functions in ``FUNCTIONS`` and the
methods in ``METHODS`` with timing wrappers. A refactor that deletes or moves
one of them (``StructurePattern.row`` has no caller in the package) breaks
the traced run, not the package, so this test reads the two tables and
resolves each name the way ``Tracer.install`` does.
"""

import importlib
import sys
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


def test_cli_round_parses(tmp_path, monkeypatch):
    # The ``cli`` workload runs these command lines; a parser change that
    # rejects one breaks the benchmark, not the package.
    from structrank.cli import _build_parser

    monkeypatch.syspath_prepend(str(TRACER.parent))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        workloads = importlib.import_module("workloads")
        ops = workloads.build("cli", 1, str(TRACER.parent.parent), str(tmp_path), scale=0.2)
    finally:
        for name in ("workloads", "checks", "metrics"):  # perfbench's top-level modules
            sys.modules.pop(name, None)
    parser = _build_parser()
    rejected = []
    for op in ops:
        try:
            parser.parse_args(op.argv)
        except SystemExit:
            rejected.append(op.label)
    assert len(ops) == 15
    assert rejected == []
