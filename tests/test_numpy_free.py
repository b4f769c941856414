"""The structural path loads no numpy.

Importing the package, the CLI or ``formats`` imports none of the numeric
modules, and ``rank``, ``classify``, ``knockout``, ``show`` and ``datasets``
run to completion without them; public names resolve on first use.
"""

import dataclasses
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import structrank
from structrank import datasets, polysys
from structrank.cli import main
from structrank.datasets import get_dataset
from structrank.formats import structure_to_json_dict

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs ``main`` on each argv in sys.argv[1], then prints the numpy modules loaded.
_SCRIPT = """
import contextlib, io, json, sys
{statement}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy")))
"""


def numpy_modules_after(statement, argvs=()):
    env = {k: v for k, v in os.environ.items() if k != "STRUCTRANK_OUTPUT"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(statement=statement), json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def square_files(tmp_path_factory):
    """The square cep3 pattern as a JSON structure, an edge list and a pattern matrix."""
    root = tmp_path_factory.mktemp("inputs")
    pattern = get_dataset("cep3").structure
    (root / "cep3.json").write_text(json.dumps(structure_to_json_dict(pattern)))
    (root / "cep3.edges").write_text(
        "".join(f"{v + 1} -> {e + 1}\n" for e, v in sorted(pattern.allowed)))
    (root / "cep3.pattern").write_text("/".join(
        "".join("*" if (e, v) in pattern.allowed else "0" for v in range(3))
        for e in range(3)))
    return [str(root / name) for name in ("cep3.json", "cep3.edges", "cep3.pattern")]


@pytest.mark.parametrize("statement", [
    "import structrank", "import structrank.cli", "import structrank.formats",
])
def test_import_loads_no_numpy(statement):
    assert numpy_modules_after(statement) == []


@pytest.mark.parametrize("subcommand, options, dataset", [
    ("rank", [], "eqcep1"),
    ("classify", [], "eqcep1"),
    ("knockout", ["-o", "json"], "eqcep1"),
    ("show", [], "example5"),
    ("show", ["-o", "json"], "example5"),
    ("show", ["-o", "dot"], "eqcep1"),
])
def test_structural_subcommand_loads_no_numpy(subcommand, options, dataset, square_files):
    argvs = [[subcommand, "--dataset", dataset, *options]]
    argvs += [[subcommand, path, *options] for path in square_files]
    assert numpy_modules_after("from structrank.cli import main", argvs) == []


@pytest.mark.parametrize("options", [[], ["-o", "json"]])
def test_datasets_loads_no_numpy(options):
    argvs = [["datasets", *options]]
    assert numpy_modules_after("from structrank.cli import main", argvs) == []


def test_every_public_name_resolves():
    for name in structrank.__all__:
        if name != "__version__":
            module = import_module(f"structrank.{structrank._MODULE_OF[name]}")
            assert getattr(structrank, name) is getattr(module, name)
    namespace = {}
    exec("from structrank import *", namespace)
    assert set(structrank.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        structrank.no_such_name


def test_listing_datasets_builds_no_system(monkeypatch, capsys):
    for name, dataset in datasets.DATASETS.items():
        monkeypatch.setitem(datasets.DATASETS, name, dataclasses.replace(dataset))

    def refuse(self):
        raise AssertionError("a polynomial system was built")

    monkeypatch.setattr(polysys.StructuredPolySystem, "__post_init__", refuse)
    assert main(["datasets", "-o", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["eqcep1"]["has_system"] is True
    assert all("system" not in d.__dict__ for d in datasets.DATASETS.values())


def test_bundled_system_is_built_once():
    assert get_dataset("eqcep1").system is get_dataset("eqcep1").system
    assert get_dataset("cep3").system is None
