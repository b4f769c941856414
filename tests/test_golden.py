"""Byte-exact CLI outputs pinned as golden files.

Each case runs ``structrank.cli.main`` with the given arguments and compares
its stdout, byte for byte, with ``tests/golden/<case>.out``. The files hold
the output of the code before the numeric core was consolidated; a refactor
must keep them green. A golden that differs is a change in behaviour to
explain, not a file to rewrite.
"""

from pathlib import Path

import pytest

from structrank.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "datasets": ["datasets"],
    "datasets-json": ["datasets", "-o", "json"],
    "rank-cep3": ["rank", "--dataset", "cep3"],
    "rank-sole26-json": ["rank", "--dataset", "sole26", "-o", "json"],
    "classify-jakstat": ["classify", "--dataset", "jakstat"],
    "classify-robotarm-json": ["classify", "--dataset", "robotarm", "-o", "json"],
    "knockout-jakstat": ["knockout", "--dataset", "jakstat"],
    "knockout-trophic5-json": ["knockout", "--dataset", "trophic5", "-o", "json"],
    "show-cep3": ["show", "--dataset", "cep3"],
    "show-cep3-json": ["show", "--dataset", "cep3", "-o", "json"],
    "show-cep3-dot": ["show", "--dataset", "cep3", "-o", "dot"],
    "show-robotarm-dot": ["show", "--dataset", "robotarm", "-o", "dot"],
    "show-example5": ["show", "--dataset", "example5"],
    "show-example5-json": ["show", "--dataset", "example5", "-o", "json"],
    "show-example5-dot": ["show", "--dataset", "example5", "-o", "dot"],
    "certify-sole26": ["certify", "--dataset", "sole26", "--trials", "200"],
    "certify-sole26-json": ["certify", "--dataset", "sole26", "--trials", "200", "-o", "json"],
    "generic-rank-example5": ["generic-rank", "--dataset", "example5"],
    "generic-rank-example5-json": ["generic-rank", "--dataset", "example5", "-o", "json"],
    "generic-rank-example5-degree3-json": ["generic-rank", "--dataset", "example5",
                                           "--degree", "3", "-o", "json"],
    "certify-empty-row-degree3-json": ["certify", "{empty_row}", "--degree", "3", "-o", "json"],
    "matrix-space": ["matrix-space", "{basis}"],
    "matrix-space-json": ["matrix-space", "{basis}", "-o", "json"],
    "trace-eqcep1": ["trace", "--dataset", "eqcep1", "--from", "1,1,1"],
    "trace-eqcep1-json": ["trace", "--dataset", "eqcep1", "--from", "1,1,1", "-o", "json"],
    "trace-eqcep1-csv": ["trace", "--dataset", "eqcep1", "--from", "1,1,1", "-o", "csv"],
    "trace-example5-json": ["trace", "--dataset", "example5", "--from", "0.3,0.2,0.1,0.4",
                            "-o", "json"],
    "trace-system-example5-json": ["trace", "{system}", "--from", "0.3,0.2,0.1,0.4", "-o", "json"],
    "probe-sole26-json": ["probe", "--dataset", "sole26", "--from", ",".join(["0.1"] * 26),
                          "--samples", "5", "-o", "json"],
    "probe-xy": ["probe", "--dataset", "xy", "--from", "1,0"],
    "probe-xy-json": ["probe", "--dataset", "xy", "--from", "1,0", "-o", "json"],
    "probe-xy-origin-json": ["probe", "--dataset", "xy", "--from", "0,0", "-o", "json"],
    "probe-robotarm": ["probe", "--dataset", "robotarm", "--from", "0.1,0.2,0.3,0.4,0.5,0.6",
                       "--samples", "10"],
    "probe-robotarm-degree3-json": ["probe", "--dataset", "robotarm",
                                    "--from", "0.1,0.2,0.3,0.4,0.5,0.6",
                                    "--degree", "3", "--seed", "4", "-o", "json"],
    # Dimension 0: the isolated-point branch, over two more sampled members.
    "probe-robust4": ["probe", "--dataset", "robust4", "--from", "0.1,0.2,0.3,0.4"],
    "probe-twogene-json": ["probe", "--dataset", "twogene", "--from", "0.5,0.4,0.3,0.2",
                           "-o", "json"],
    "probe-eqcep1-delta": ["probe", "--dataset", "eqcep1", "--from", "1,1,1",
                           "--delta", "0,0.1,0"],
    "probe-eqcep1-delta-json": ["probe", "--dataset", "eqcep1", "--from", "1,1,1",
                                "--delta", "0,0.1,0", "-o", "json"],
    # Solved perturbation probes: on a later start, on the last start, and
    # on the first start of an M < N system. A point that starts with a
    # minus needs the --from= form.
    "probe-robust4-delta-solved": ["probe", "--dataset", "robust4",
                                   "--from=-0.48,-0.4,0.63,-0.82", "--delta", "1,0,0,0",
                                   "--seed", "2"],
    "probe-twogene-delta-solved-json": ["probe", "--dataset", "twogene",
                                        "--from=-0.48,-0.4,0.63,-0.82", "--delta", "0.3,0,0,0",
                                        "--seed", "2", "-o", "json"],
    "probe-robotarm-delta-json": ["probe", "--dataset", "robotarm",
                                  "--from", "0.1,0.2,0.3,0.4,0.5,0.6", "--delta", "0.01,0,0",
                                  "-o", "json"],
    # 13 variables and five derived names: symbol order past x9, names that
    # sort by code point (Z2 < alpha < b10 < b9 < z), and an empty equation.
    "show-wide-derived": ["show", "{wide_derived}"],
    "show-wide-derived-json": ["show", "{wide_derived}", "-o", "json"],
    "show-wide-derived-dot": ["show", "{wide_derived}", "-o", "dot"],
    "generic-rank-wide-derived-json": ["generic-rank", "{wide_derived}", "-o", "json"],
    # The sampled member's coefficients are laid out in symbol order.
    "probe-wide-derived-json": ["probe", "{wide_derived}", "--from",
                                ",".join(str(k / 10) for k in range(1, 14)),
                                "--samples", "3", "-o", "json"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.delenv("STRUCTRANK_OUTPUT", raising=False)
    argv = [
        a.format(basis=GOLDEN / "basis.json", system=GOLDEN / "system-example5.json",
                 empty_row=GOLDEN / "empty-row.json", wide_derived=GOLDEN / "wide-derived.json")
        for a in CASES[case]
    ]
    assert main(argv) == 0
    expected = (GOLDEN / f"{case}.out").read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected
