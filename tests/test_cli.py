import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structrank import (
    classify, cli, continuation, formats, polysys, sample_system, structural,
)
from structrank.cli import _COMMANDS, AnalysisRequest, _build_parser, main, run
from structrank.datasets import get_dataset

from oracles import report_from_json_dict

GOLDEN = Path(__file__).parent / "golden"
BASIS = str(GOLDEN / "basis.json")
SYSTEM = str(GOLDEN / "system-example5.json")
INPUT = {"input_path": None, "dataset": None, "fmt": None}
TOL = {"rel_tol": None, "abs_floor": None}


def run_ok(request):
    code, text = run(request)
    assert code == 0, text
    return text


class TestClassifyCommand:
    def test_jakstat_json_payload(self):
        text = run_ok(AnalysisRequest("classify", dataset="jakstat", output="json"))
        payload = json.loads(text)
        assert payload["rank"] == 11
        assert payload["M"] == 12
        assert payload["N"] == 12
        assert payload["class"] == "fragile"
        assert payload["dim"] == 1

    def test_food_web_json_payload(self):
        payload = json.loads(run_ok(AnalysisRequest("classify", dataset="sole26", output="json")))
        assert (payload["rank"], payload["class"], payload["dim"]) == (20, "fragile", 6)

    def test_text_report_uses_domain_vocabulary(self):
        text = run_ok(AnalysisRequest("classify", dataset="cep3"))
        assert "maxrank" in text
        assert "fragile" in text
        assert "d-flat with d = 1" in text

    def test_report_round_trips_through_json(self):
        text = run_ok(AnalysisRequest("classify", dataset="twogene", output="json"))
        report = report_from_json_dict(json.loads(text))
        assert report == classify(get_dataset("twogene").structure)

    def test_classify_from_file(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("00*/00*/***\n")
        payload = json.loads(run_ok(AnalysisRequest("classify", input_path=str(path), output="json")))
        assert payload["rank"] == 2


class TestKnockoutCommand:
    def test_jakstat_flags_node_12(self):
        payload = json.loads(run_ok(AnalysisRequest("knockout", dataset="jakstat", output="json")))
        assert payload["fragile_to_robust"] == [12]
        twelfth = payload["knockouts"][11]
        assert twelfth["node"] == 12
        assert twelfth["class"] == "robust"

    def test_text_output_lists_flip(self):
        text = run_ok(AnalysisRequest("knockout", dataset="jakstat"))
        assert "fragile -> robust knockouts: 12" in text

    def test_json_matches_the_base_once(self, monkeypatch, capsys):
        # The sweep's own base matching is the report's base: 1 + 12 kernel calls,
        # every knockout held out in place on the one base row list.
        base = classify(get_dataset("jakstat").structure).to_json_dict()
        kernel, calls = structural._hopcroft_karp, []

        def counting(adj, num_variables, knockout=None):
            calls.append((adj, knockout))
            return kernel(adj, num_variables, knockout)

        monkeypatch.setattr(structural, "_hopcroft_karp", counting)
        assert main(["knockout", "--dataset", "jakstat", "-o", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["base"] == base
        assert len(calls) == 13
        (base_rows, none), *knockouts = calls
        assert none is None
        assert [k for _, k in knockouts] == list(range(12))
        assert all(adj is base_rows for adj, _ in knockouts)


class TestRandomizedCommands:
    def test_certify_passes_on_bundled_pattern(self):
        payload = json.loads(run_ok(AnalysisRequest(
            "certify", dataset="cep3", trials=200, seed=0, output="json")))
        assert payload["passed"] is True
        assert payload["target_rank"] == 2
        assert payload["seed"] == 0

    def test_generic_rank_on_derived_structure(self):
        payload = json.loads(run_ok(AnalysisRequest(
            "generic-rank", dataset="example5", trials=100, seed=0, output="json")))
        assert payload["estimated_rank"] == 3

    def test_text_output_prints_seed(self):
        text = run_ok(AnalysisRequest("generic-rank", dataset="cep3", trials=20, seed=5))
        assert "seed: 5" in text

    def test_identical_requests_are_byte_identical(self):
        req = AnalysisRequest("certify", dataset="twogene", trials=60, seed=3, output="json")
        assert run(req) == run(req)

    def test_matrix_space_command(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({
            "basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        }))
        payload = json.loads(run_ok(AnalysisRequest(
            "matrix-space", input_path=str(path), trials=50, output="json")))
        assert payload["estimated_rank"] == 2


class TestTraceAndProbeCommands:
    def test_trace_csv_output(self):
        text = run_ok(AnalysisRequest(
            "trace", dataset="eqcep1", from_point=(1.0, 1.0, 1.0),
            step=0.05, max_points=50, output="csv"))
        lines = text.strip().splitlines()
        assert lines[0] == "x1,x2,x3,residual,rank"
        assert len(lines) == 51
        assert all(line.endswith(",2") for line in lines[1:])

    def test_trace_json_reports_events(self):
        payload = json.loads(run_ok(AnalysisRequest(
            "trace", dataset="xy", from_point=(1.0, 0.0), step=0.05,
            max_points=400, output="json")))
        kinds = {ev["kind"] for ev in payload["events"]}
        assert "rank-drop" in kinds

    def test_trace_needs_matching_point_length(self):
        code, text = run(AnalysisRequest("trace", dataset="eqcep1", from_point=(1.0, 1.0)))
        assert code == 2
        assert "components" in text

    def test_probe_manifold(self):
        payload = json.loads(run_ok(AnalysisRequest(
            "probe", dataset="eqcep1", from_point=(1.0, 1.0, 1.0),
            samples=20, output="json")))
        assert payload["rank_drop_found"] is False
        assert payload["histogram"] == {"2": 20}

    def test_probe_perturbation(self):
        payload = json.loads(run_ok(AnalysisRequest(
            "probe", dataset="eqcep1", from_point=(1.0, 1.0, 1.0),
            delta=(0.0, 0.1, 0.0), output="json")))
        assert payload["solved"] is False
        assert payload["residual_floor"] >= 0.02

    def test_trace_on_sampled_system_from_structure(self):
        # trophic5 is rank 4 over 5 variables, so random members have curves.
        payload = json.loads(run_ok(AnalysisRequest(
            "trace", dataset="trophic5", from_point=(0.1, 0.2, 0.3, 0.4, 0.5),
            seed=0, degree=2, step=0.05, max_points=30, output="json")))
        assert payload["rank"] == 4


class TestUtilityCommands:
    def test_show_dot(self):
        text = run_ok(AnalysisRequest("show", dataset="cep3", output="dot"))
        assert text.startswith("digraph")

    def test_show_text_generalized(self):
        text = run_ok(AnalysisRequest("show", dataset="example5"))
        assert "derived z = 1*x1 + 2*x2" in text

    def test_datasets_listing(self):
        text = run_ok(AnalysisRequest("datasets"))
        for name in ("cep3", "jakstat", "sole26", "xy"):
            assert name in text


class TestErrorHandling:
    def test_missing_file_is_input_error(self):
        code, text = run(AnalysisRequest("classify", input_path="/nonexistent.json"))
        assert code == 2

    def test_unknown_dataset_is_input_error(self):
        for request in (AnalysisRequest("classify", dataset="nope"),
                        AnalysisRequest("trace", dataset="nope", from_point=(1.0,)),
                        AnalysisRequest("probe", dataset="nope", from_point=(1.0,))):
            subcommand = request.subcommand
            code, text = run(request)
            assert code == 2, subcommand
            assert "available" in text

    def test_rank_of_generalized_structure_is_analysis_error(self):
        code, text = run(AnalysisRequest("rank", dataset="example5"))
        assert code == 1
        assert "randomized" in text or "generic-rank" in text

    def test_both_dataset_and_path_conflict(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("*\n")
        code, _ = run(AnalysisRequest("classify", dataset="cep3", input_path=str(path)))
        assert code == 2

    @pytest.mark.parametrize("subcommand", ["trace", "probe"])
    def test_dataset_and_path_conflict_on_system_subcommands(self, subcommand, tmp_path):
        request = AnalysisRequest(subcommand, dataset="eqcep1", from_point=(1.0, 1.0, 1.0),
                                  input_path=str(tmp_path / "missing.json"))
        code, text = run(request)
        assert code == 2
        assert "either --dataset or an input file" in text

    def test_missing_input_reported(self):
        code, text = run(AnalysisRequest("classify"))
        assert code == 2
        assert "--dataset" in text

    @pytest.mark.parametrize("request_, message", [
        (AnalysisRequest("trace", dataset="eqcep1"),
         "--from X1,...,X3 is required for this subcommand"),
        (AnalysisRequest("matrix-space"), "matrix-space needs a JSON file with a 'basis' list"),
    ], ids=["trace", "matrix-space"])
    def test_missing_point_or_basis_is_input_error(self, request_, message):
        assert run(request_) == (2, f"error: {message}\n")

    def test_unknown_subcommand(self):
        code, _ = run(AnalysisRequest("explode"))
        assert code == 2

    def test_knockout_of_rectangular_input_fails_cleanly(self):
        code, text = run(AnalysisRequest("knockout", dataset="robotarm"))
        assert code == 1
        assert "square" in text

    def test_knockout_of_a_one_node_system_is_analysis_error(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"variables": 1, "equations": [{"vars": [1]}]}))
        assert main(["knockout", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: StructureError: knockout of a 1x1 system would "
                                "leave an empty system\n")

    def test_ragged_basis_is_input_error(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"basis": [[[1, 0], [0, 1]], [[1, 0], [0]]]}))
        code, text = run(AnalysisRequest("matrix-space", input_path=str(path)))
        assert code == 2
        assert "basis[1][1]" in text

    def test_infinite_derived_coefficient_is_input_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"variables": 2, "equations": [{"vars": [1], "derived": ["z"]}],'
                        ' "derived_vars": [{"name": "z", "coeffs": {"1": 1e400}}]}')
        for subcommand in ("show", "generic-rank"):
            code, text = run(AnalysisRequest(subcommand, input_path=str(path)))
            assert code == 2
            assert "derived_vars[0]" in text

    @pytest.mark.parametrize("data, where", [
        ({"variables": True, "equations": [{"vars": [True]}]}, "variables"),
        ({"variables": 1, "equations": [{"vars": [True]}]}, "equations[0].vars[0]"),
    ])
    def test_boolean_count_is_input_error(self, data, where, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data))
        assert main(["rank", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert where in captured.err


    def test_duplicate_key_is_input_error(self, tmp_path, capsys):
        # json keeps the last of two equal keys; the file is rejected instead.
        path = tmp_path / "dup.json"
        path.write_text('{"variables": 2, "equations": [{"vars": [1]}], "variables": 3}')
        assert main(["rank", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: duplicate key 'variables'\n"

    @pytest.mark.parametrize("derived_vars, where, message", [
        ([{"name": "z", "coeffs": {"1": 1}}, {"name": "z", "coeffs": {"2": 1}}],
         "derived_vars[1]", "derived variable 'z' is declared twice"),
        ([{"name": "z", "coeffs": {"3": 1}}],
         "derived_vars[0]", "coefficient key '3' must be a variable index in 1..2"),
        ([{"name": "z", "coeffs": {"1": 0}}],
         "derived_vars[0]", "coefficient on x1 must be a finite nonzero number"),
        ([{"name": "z", "coeffs": {"\u00b2": 1}}],
         "derived_vars[0]", "coefficient key '\u00b2' must be a variable index in 1..2"),
    ], ids=["name-twice", "key-beyond-variables", "zero", "superscript-key"])
    def test_bad_derived_variable_is_input_error(self, derived_vars, where, message, tmp_path,
                                                 capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"variables": 2, "derived_vars": derived_vars,
                                    "equations": [{"vars": [1], "derived": ["z"]}]}))
        assert main(["show", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {where}: {message}\n"

    @pytest.mark.parametrize("data, message", [
        ({"variables": 3, "equations": [{"name": "f1", "vars": [1], "derived": 1}]},
         "equations[0]: 'derived' must be a list"),
        ({"variables": 3, "equations": [{"name": "f1", "vars": [1]}], "derived_vars": 0.5},
         "derived_vars: 'derived_vars' must be a list"),
    ], ids=["derived", "derived_vars"])
    def test_derived_field_that_is_not_a_list_is_input_error(self, data, message, tmp_path,
                                                             capsys):
        # Both once ended in "internal error: TypeError" with exit 1.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert main(["rank", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_coefficient_whose_partial_overflows_is_input_error(self, tmp_path, capsys):
        # 1e308 on x4^2 makes the partial coefficient 2e308: once a numpy
        # RuntimeWarning at system construction, then exit 1.
        data = json.loads(Path(SYSTEM).read_text())
        data["equations"][0]["0,0,0,2"] = 1e308
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["probe", str(path), "--from", "1,1,1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: equation 1: coefficient 1e+308 of exponent "
                                "vector (0, 0, 0, 2) times its exponent 2 is not finite\n")

    def test_basis_that_can_overflow_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"basis": [[[1e308, 1e308]], [[1e308, 1e308]]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["matrix-space", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: basis: entries at one "
                                                  "position sum past the largest float")

    def test_basis_near_the_largest_float_runs(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"basis": [[[1e308, 0.0]], [[7e307, 1.0]]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["matrix-space", str(path), "--trials", "20"]) == 0
        assert "estimated rank (max observed): 1" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ('{"variables": 11, "equations": [{"vars": [1]}]}',
         "variables: 'variables' must be at most 10"),
        ('{"structure": {"variables": 11, "equations": [{"vars": [1]}]}, "degree": 1,'
         ' "equations": [{}]}', "structure.variables: 'variables' must be at most 10"),
        ("nodes: 11\n1 -> 2\n", "11 nodes exceed the bound of 10"),
        ("1 -> 11\n", "11 nodes exceed the bound of 10"),
        ("*" * 11 + "\n", "line 1: row width 11 exceeds the bound of 10"),
    ], ids=["structure", "system", "edges-header", "edges-index", "pattern"])
    def test_dimension_beyond_the_bound_is_input_error(self, text, message, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(formats, "MAX_VARIABLES", 10)
        suffix = ".edges" if "->" in text else ".pattern" if text.startswith("*") else ".json"
        path = tmp_path / ("wide" + suffix)
        path.write_text(text)
        assert main(["rank", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        path.write_text(text.replace("11", "10").replace("*" * 11, "*" * 10))
        assert main(["rank", str(path)]) == 0

    def test_huge_variable_count_is_refused_before_matching(self, tmp_path, capsys,
                                                            monkeypatch):
        def refuse(adj, num_variables):
            raise AssertionError(f"matching ran on {num_variables} columns")

        monkeypatch.setattr(structural, "_hopcroft_karp", refuse)
        path = tmp_path / "huge.json"
        path.write_text('{"variables": 100000000000, "equations": [{"vars": [1]}]}')
        assert main(["rank", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: variables: 'variables' must be at most {formats.MAX_VARIABLES}\n")

    @pytest.mark.parametrize("argv", [
        ["certify", "{path}"],
        ["generic-rank", "{path}"],
        ["trace", "{path}", "--from", "0,0,0,0"],
        ["probe", "{path}", "--from", "0,0,0,0"],
        ["trace", "{system}", "--from", "0,0,0,0"],
        ["show", "{system}"],
    ], ids=["certify", "generic-rank", "trace", "probe", "trace-system", "show-system"])
    def test_jacobian_beyond_the_bound_is_refused_before_any_plan(self, argv, tmp_path, capsys,
                                                                  monkeypatch):
        def refuse(num_symbols, degree):
            raise AssertionError("a monomial table was built")

        # Plans are cached, and a cached plan met the bound when it was built.
        polysys._cached_plan.cache_clear()
        monkeypatch.setattr(polysys, "_monomial_table", refuse)
        monkeypatch.setattr(polysys, "MAX_JACOBIAN_ENTRIES", 11)
        structure = {"variables": 4, "equations": [{"vars": [1, 2]}, {"vars": [3]}, {"vars": [4]}]}
        path, system = tmp_path / "wide.json", tmp_path / "wide-system.json"
        path.write_text(json.dumps(structure))
        system.write_text(json.dumps({"structure": structure, "degree": 1,
                                      "equations": [{}, {}, {}]}))
        assert main([a.format(path=path, system=system) for a in argv]) == 2
        where = f"{system}: structure" if "{system}" in argv else str(path)
        assert capsys.readouterr().err == (
            f"error: {where}: 3 equations x 4 variables make 12 Jacobian entries, more than "
            "the bound of 11 (polysys.MAX_JACOBIAN_ENTRIES)\n")

    def test_jacobian_at_the_bound_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(polysys, "MAX_JACOBIAN_ENTRIES", 12)
        path = tmp_path / "wide.json"
        path.write_text('{"variables": 4, "equations": [{"vars": [1, 2]}, {"vars": [3]},'
                        ' {"vars": [4]}]}')
        assert main(["certify", str(path), "--trials", "5"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, where", [
        (["certify", "{path}", "--degree", "3"], "{path}"),
        (["generic-rank", "{path}", "--degree", "3"], "{path}"),
        (["trace", "{path}", "--degree", "3", "--from", "0,0,0,0"], "{path}"),
        (["probe", "{path}", "--degree", "3", "--from", "0,0,0,0"], "{path}"),
        (["show", "{system}"], "{system}: degree"),
    ], ids=["certify", "generic-rank", "trace", "probe", "show-system"])
    def test_plan_beyond_the_bound_is_input_error(self, argv, where, tmp_path, capsys,
                                                  monkeypatch):
        # Rows of 2, 1 and 1 symbols at degree 3: an index of 2 x 36 entries
        # (at most 2 positive exponents by 2 * 6 + 10 columns, then
        # 2 * (3 + 4)), a trials' index of 2 x 18 partial columns, a gather
        # through it, and twice the monomial tables of 2 symbols
        # (2 * (10 + 2 * 6)) and 1 (3 + 4).
        # Plans are cached, and a cached plan met the bound when it was built.
        polysys._cached_plan.cache_clear()
        monkeypatch.setattr(polysys, "MAX_PLAN_ENTRIES", 245)
        structure = {"variables": 4, "equations": [{"vars": [1, 2]}, {"vars": [3]}, {"vars": [4]}]}
        path, system = tmp_path / "wide.json", tmp_path / "wide-system.json"
        path.write_text(json.dumps(structure))
        system.write_text(json.dumps({"structure": structure, "degree": 3,
                                      "equations": [{}, {}, {}]}))
        assert main([a.format(path=path, system=system) for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {where.format(path=path, system=system)}: 3 equations at degree 3 make a "
            "member plan of 246 monomial-factor entries, more than the bound of 245 "
            "(polysys.MAX_PLAN_ENTRIES)\n")
        monkeypatch.setattr(polysys, "MAX_PLAN_ENTRIES", 246)
        assert main(["certify", str(path), "--degree", "3", "--trials", "5"]) == 0

    def test_plan_bound_is_checked_at_the_default_degree(self, tmp_path, capsys, monkeypatch):
        # The rows of the test above at degree 2: an index of 2 x 22 entries
        # (2 positive exponents by 2 * 3 + 6 columns, then 2 * (2 + 3)), a
        # trials' index of 1 x 10 partial columns, a gather through it, and
        # twice the tables of 2 symbols (2 * (6 + 2 * 3)) and 1 (2 + 3).
        polysys._cached_plan.cache_clear()
        monkeypatch.setattr(polysys, "MAX_PLAN_ENTRIES", 121)
        path = tmp_path / "wide.json"
        path.write_text('{"variables": 4, "equations": [{"vars": [1, 2]}, {"vars": [3]},'
                        ' {"vars": [4]}]}')
        assert main(["certify", str(path), "--trials", "5"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: 3 equations at degree 2 make a member plan of 122 monomial-factor "
            "entries, more than the bound of 121 (polysys.MAX_PLAN_ENTRIES)\n")
        monkeypatch.setattr(polysys, "MAX_PLAN_ENTRIES", 122)
        assert main(["certify", str(path), "--trials", "5"]) == 0

    @pytest.mark.parametrize("subcommand", ["certify", "generic-rank"])
    def test_one_equation_over_a_thousand_variables(self, subcommand, tmp_path, capsys):
        # Its degree-1 table was built by a generator that recursed once per
        # symbol, an internal RecursionError; degree 2 stays over the bound.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"variables": 1000,
                                    "equations": [{"vars": list(range(1, 1001))}]}))
        argv = [subcommand, str(path), "--trials", "3", "-o", "json", "--degree"]
        assert main([*argv, "1"]) == 0
        assert json.loads(capsys.readouterr().out)["histogram"] == {"1": 3}
        assert main([*argv, "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: 1 equations at degree 2 make a member plan of 3010009002 "
            "monomial-factor entries, more than the bound of 10000000 (polysys.MAX_PLAN_ENTRIES)\n")

    @pytest.mark.parametrize("argv", [
        ["trace", "{path}", "--from", "0.1,0.2,0.3,0.4,0.5,0.6"],
        ["probe", "{path}", "--from", "0.1,0.2,0.3,0.4,0.5,0.6"],
    ], ids=["trace", "probe"])
    def test_svd_basis_beyond_the_bound_is_refused_before_any_svd(self, argv, tmp_path,
                                                                   capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD was taken")

        # 3 x 6 Jacobians fit a bound of 20 entries; their 6 x 6 SVD basis does not.
        monkeypatch.setattr(continuation.np.linalg, "svd", refuse)
        monkeypatch.setattr(polysys, "MAX_JACOBIAN_ENTRIES", 20)
        path = tmp_path / "arm.json"
        path.write_text(json.dumps(formats.structure_to_json_dict(
            get_dataset("robotarm").structure)))
        assert main([a.format(path=path) for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: 6 variables make 36 entries in the N x N basis of a full SVD, "
            "more than the bound of 20 (polysys.MAX_JACOBIAN_ENTRIES)\n")

    def test_perturbation_probe_takes_no_svd_and_no_basis_bound(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD was taken")

        monkeypatch.setattr(continuation.np.linalg, "svd", refuse)
        monkeypatch.setattr(polysys, "MAX_JACOBIAN_ENTRIES", 20)
        path = tmp_path / "arm.json"
        path.write_text(json.dumps(formats.structure_to_json_dict(
            get_dataset("robotarm").structure)))
        assert main(["probe", str(path), "--from", "0.1,0.2,0.3,0.4,0.5,0.6",
                     "--delta", "0.01,0,0"]) == 0

    def test_knockout_beyond_the_bound_is_input_error(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a matching ran")

        monkeypatch.setattr(structural, "_hopcroft_karp", refuse)
        monkeypatch.setattr(structural, "MAX_KNOCKOUT_NODES", 3)
        path = tmp_path / "ring.edges"
        path.write_text("1 -> 2\n2 -> 3\n3 -> 4\n4 -> 1\n")
        assert main(["knockout", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: a knockout sweep of 4 nodes runs 5 matchings, more than the "
            "bound of 3 nodes (structural.MAX_KNOCKOUT_NODES)\n")
        monkeypatch.undo()
        monkeypatch.setattr(structural, "MAX_KNOCKOUT_NODES", 4)
        assert main(["knockout", str(path)]) == 0

    def test_uncaught_exception_is_one_line_internal_error(self, monkeypatch, capsys):
        def exhausted(pattern):
            raise MemoryError("cannot allocate\nthe match")

        monkeypatch.setattr(cli, "classify", exhausted)
        assert main(["classify", "--dataset", "cep3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: MemoryError: cannot allocate the match\n"

    @pytest.mark.parametrize("argv", [["rank"], ["trace", "--from", "1"], ["matrix-space"]])
    def test_deeply_nested_json_is_input_error(self, argv, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"variables": ' + "[" * 5000 + "]" * 5000 + "}")
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize("argv, name, data, where", [
        (["rank"], "bad.json", b"\xff\xfe", "byte 0xff at offset 0 (invalid start byte)"),
        (["trace", "--from", "1"], "bad.json", b"\xff\xfe",
         "byte 0xff at offset 0 (invalid start byte)"),
        (["rank"], "bad.edges", b"1 -> 2\n\xe9\n",
         "byte 0xe9 at offset 7 (invalid continuation byte)"),
        (["rank"], "bad.pattern", b"*.\n.*\xc3", "byte 0xc3 at offset 5 (unexpected end of data)"),
        (["matrix-space"], "basis.json", b'{"basis": [[[1]]], "x": "\xff"}',
         "byte 0xff at offset 25 (invalid start byte)"),
        (["rank"], "bad", b"\xff\xfe", "byte 0xff at offset 0 (invalid start byte)"),
        (["rank"], "bad", b"1 -> 2\n\xe9\n", "byte 0xe9 at offset 7 (invalid continuation byte)"),
    ], ids=["structure", "system", "edges", "pattern", "basis", "sniffed", "sniffed-edges"])
    def test_non_utf8_file_is_input_error(self, argv, name, data, where, tmp_path, capsys):
        path = tmp_path / name
        path.write_bytes(data)
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text: {where}\n"


class TestMainEntryPoint:
    def test_classify_via_argv(self, capsys):
        assert main(["classify", "--dataset", "jakstat", "-o", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 11

    def test_error_goes_to_stderr(self, capsys):
        assert main(["classify", "--dataset", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_output_env_default(self, monkeypatch, capsys):
        monkeypatch.setenv("STRUCTRANK_OUTPUT", "json")
        assert main(["rank", "--dataset", "cep3"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 2

    @pytest.mark.parametrize("argv, flag", [
        (["trace", "--dataset", "eqcep1", "--from", "1,1,1", "--max-points", "0"], "--max-points"),
        (["certify", "--dataset", "cep3", "--trials", "0"], "--trials"),
        (["generic-rank", "--dataset", "cep3", "--trials", "-1"], "--trials"),
        (["probe", "--dataset", "xy", "--from", "1,0", "--samples", "0"], "--samples"),
        (["probe", "--dataset", "xy", "--from", "1,0", "--samples", "-3"], "--samples"),
        (["trace", "--dataset", "eqcep1", "--from", "nan,1,1"], "--from"),
        (["probe", "--dataset", "eqcep1", "--from", "1,1,1", "--delta", "0,inf,0"], "--delta"),
        (["trace", "--dataset", "eqcep1", "--from", "1,1,1", "--step", "nan"], "--step"),
        (["trace", "--dataset", "eqcep1", "--from", "1,1,1", "--step", "0"], "--step"),
        (["trace", "--dataset", "eqcep1", "--from", "1,1,1", "--radius", "-1"], "--radius"),
        (["probe", "--dataset", "xy", "--from", "1,0", "--step", "-1"], "--step"),
        (["probe", "--dataset", "xy", "--from", "1,0", "--radius", "inf"], "--radius"),
        (["certify", "--dataset", "cep3", "--tol", "2"], "--tol"),
        (["certify", "--dataset", "cep3", "--tol", "nan"], "--tol"),
        (["generic-rank", "--dataset", "cep3", "--tol-floor", "-1"], "--tol-floor"),
        (["certify", "--dataset", "cep3", "--pass-threshold", "7"], "--pass-threshold"),
        (["certify", "--dataset", "cep3", "--pass-threshold", "0"], "--pass-threshold"),
        (["certify", "--dataset", "cep3", "--pass-threshold", "nan"], "--pass-threshold"),
        (["certify", "--dataset", "sole26", "--trials", "5", "--degree", "0"], "--degree"),
        (["certify", "--dataset", "sole26", "--trials", "5", "--degree", "-1"], "--degree"),
        (["generic-rank", "--dataset", "example5", "--degree", "0"], "--degree"),
        (["trace", "--dataset", "cep3", "--degree", "0", "--from", "1,1,1"], "--degree"),
        (["probe", "--dataset", "cep3", "--degree", "0", "--from", "1,1,1"], "--degree"),
        (["certify", "--dataset", "cep3", "--seed", "-1", "--trials", "3"], "--seed"),
        (["generic-rank", "--dataset", "cep3", "--seed", "-1", "--trials", "3"], "--seed"),
        (["probe", "--dataset", "xy", "--from", "1,1", "--seed", "-1"], "--seed"),
        (["trace", "--dataset", "cep3", "--from", "1,1,1", "--seed", "-1", "--max-points", "3"],
         "--seed"),
        (["matrix-space", "tests/golden/basis.json", "--seed", "-1"], "--seed"),
    ])
    def test_bad_numeric_flag_is_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["trace", "--dataset", "eqcep1", "--from", "1,a"],
         "trace: error: argument --from: expected comma-separated numbers, got '1,a'"),
        (["certify", "--dataset", "cep3", "--trials", "x"],
         "certify: error: argument --trials: expected an integer, got 'x'"),
    ], ids=["from", "trials"])
    def test_unparsable_flag_value_is_named(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"structrank {message}\n")

    def test_probe_without_accepted_samples_claims_nothing(self, capsys):
        # The base point lies outside the domain box, so every sample is rejected.
        assert main(["probe", "--dataset", "xy", "--from", "1,0", "--radius", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "samples accepted: 0/50" in out
        assert "manifold evidence" not in out

    @pytest.mark.parametrize("argv", [
        ["probe", "--dataset", "eqcep1", "--from", "1e100,1,1"],
        ["trace", "--dataset", "eqcep1", "--from", "1e100,1,1"],
        ["probe", "--dataset", "eqcep1", "--from", "1e100,1,1", "--delta", "0,0.1,0"],
    ])
    def test_start_point_with_overflowing_monomials_is_analysis_error(self, argv, capsys):
        # The point is finite, but its quartic monomials overflow, so F and
        # DF there hold inf and nan: no rank or residual may be reported.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert captured.out == ""
        assert captured.err == ("error: ValueError: F or DF is not finite at the start point "
                                "[1e+100, 1.0, 1.0]\n")
        assert "RuntimeWarning" not in captured.err and "rank at base point" not in captured.err

    @pytest.mark.parametrize("argv, floor", [
        (["--dataset", "xy", "--from", "1e150,1e-150", "--delta", "1e300"], "1.48702e+284"),
        (["--dataset", "eqcep1", "--from", "1e60,1,1", "--delta", "0,1e300,0"], "1e+300"),
    ])
    def test_perturbation_whose_residual_square_overflows(self, argv, floor, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["probe", *argv]) == 0
        captured = capsys.readouterr()
        assert f"residual floor: {floor} (21 starts, seed 0)" in captured.out
        assert captured.err == ""

    def test_trial_jacobian_overflow_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "variables": 2,
            "equations": [{"name": "f1", "vars": [1, 2]}, {"name": "f2", "derived": ["z"]}],
            "derived_vars": [{"name": "z", "coeffs": {"1": 1e300, "2": 1.0}}],
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generic-rank", str(path), "--trials", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValueError: a trial's Jacobian is not finite\n"

    @pytest.mark.parametrize("samples", ["1", "5"])
    def test_probe_at_exceptional_point_reports_rank_change(self, samples, capsys):
        # Every sample off the origin has rank 1; the base rank is 0.
        assert main(["probe", "--dataset", "xy", "--from", "0,0", "--samples", samples]) == 0
        out = capsys.readouterr().out
        assert f"samples accepted: {samples}/{samples}" in out
        assert "rank changed near the base point: samples at rank 1, base rank 0" in out
        assert "manifold evidence" not in out

    @pytest.mark.parametrize("argv, own", [
        (["rank"], INPUT),
        (["datasets"], {}),
        (["certify"], {**INPUT, **TOL, "trials": None, "seed": None, "degree": None,
                       "distribution": None, "pass_threshold": None}),
        (["generic-rank"], {**INPUT, **TOL, "trials": None, "seed": None, "degree": None,
                            "distribution": None}),
        (["matrix-space"], {"input_path": None, **TOL, "trials": None, "seed": None}),
        (["trace", "--from", "1"], {**INPUT, **TOL, "from_point": (1.0,), "step": None,
                                    "max_points": None, "seed": None, "degree": None,
                                    "radius": None}),
        (["probe", "--from", "1"], {**INPUT, **TOL, "from_point": (1.0,), "samples": None,
                                    "delta": None, "step": None, "seed": None, "degree": None,
                                    "radius": None}),
    ])
    def test_subcommand_flags_and_defaults(self, argv, own, monkeypatch):
        # Each subcommand accepts exactly its own flags, and a flag left out
        # reads None: the library function it goes to supplies the default.
        monkeypatch.delenv("STRUCTRANK_OUTPUT", raising=False)
        common = {"subcommand": argv[0], "output": "text"}
        assert vars(_build_parser().parse_args(argv)) == {**common, **own}

    def test_argparse_rejects_conflicting_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--dataset", "cep3", "-o", "yaml"])
        assert exc.value.code == 2


class TestOneRequestPath:
    """``run(AnalysisRequest(...))`` and ``main([...])`` make the same request."""

    def test_run_prints_what_main_prints(self, capsys, monkeypatch):
        # Only the required fields: every default comes from the library.
        monkeypatch.delenv("STRUCTRANK_OUTPUT", raising=False)
        cases = [
            (["rank", "--dataset", "cep3"], AnalysisRequest("rank", dataset="cep3")),
            (["classify", "--dataset", "cep3"], AnalysisRequest("classify", dataset="cep3")),
            (["knockout", "--dataset", "trophic5"],
             AnalysisRequest("knockout", dataset="trophic5")),
            (["certify", "--dataset", "cep3", "-o", "json"],
             AnalysisRequest("certify", dataset="cep3", output="json")),
            (["generic-rank", "--dataset", "example5", "-o", "json"],
             AnalysisRequest("generic-rank", dataset="example5", output="json")),
            (["trace", "--dataset", "trophic5", "--from", "0.1,0.2,0.3,0.4,0.5"],
             AnalysisRequest("trace", dataset="trophic5", from_point=(0.1, 0.2, 0.3, 0.4, 0.5))),
            (["probe", "--dataset", "xy", "--from", "1,2", "-o", "json"],
             AnalysisRequest("probe", dataset="xy", from_point=(1.0, 2.0), output="json")),
            (["probe", "--dataset", "eqcep1", "--from", "1,1,1", "--delta", "0,0.1,0"],
             AnalysisRequest("probe", dataset="eqcep1", from_point=(1.0, 1.0, 1.0),
                             delta=(0.0, 0.1, 0.0))),
            (["matrix-space", BASIS, "-o", "json"],
             AnalysisRequest("matrix-space", input_path=BASIS, output="json")),
            (["show", "--dataset", "example5"], AnalysisRequest("show", dataset="example5")),
            (["datasets"], AnalysisRequest("datasets")),
        ]
        assert {argv[0] for argv, _ in cases} == set(_COMMANDS)
        differ = []
        for argv, request in cases:
            assert main(argv) == 0, argv
            if run(request) != (0, capsys.readouterr().out):
                differ.append(" ".join(argv))
        assert differ == []

    @pytest.mark.parametrize("subcommand", ["trace", "probe"])
    def test_derived_variable_named_degree(self, subcommand, tmp_path, capsys):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps({
            "variables": 2,
            "equations": [{"vars": [1], "derived": ["degree"]}],
            "derived_vars": [{"name": "degree", "coeffs": {"1": 1.0, "2": 2.0}}],
        }))
        assert main([subcommand, str(path), "--from", "0.3,0.2"]) == 0, capsys.readouterr().err
        assert "system: random member (degree=2, seed=0" in capsys.readouterr().out

    def test_system_file_with_degree_after_two_kib(self, tmp_path, capsys):
        system = sample_system(get_dataset("trophic5").structure, degree=2, seed=0)
        data = system.to_json_dict()
        degree = data.pop("degree")
        text = json.dumps({**data, "degree": degree}, indent=4)
        assert text.index('"degree"') > 2048
        path = tmp_path / "system.json"
        path.write_text(text)
        argv = ["trace", str(path), "--from", "0.1,0.2,0.3,0.4,0.5", "--max-points", "5"]
        assert main(argv) == 0, capsys.readouterr().err
        assert f"system: system file {path}" in capsys.readouterr().out

    def test_structure_subcommands_read_a_system_file(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(get_dataset("eqcep1").system.to_json_dict()))
        assert run(AnalysisRequest("rank", input_path=str(path))) == \
            run(AnalysisRequest("rank", dataset="eqcep1"))


# A working invocation of each subcommand, small enough to run in a test.
WORKING = {
    "rank": ["--dataset", "cep3"],
    "classify": ["--dataset", "cep3"],
    "knockout": ["--dataset", "trophic5"],
    "certify": ["--dataset", "cep3", "--trials", "5"],
    "generic-rank": ["--dataset", "example5", "--trials", "5"],
    "trace": ["--dataset", "eqcep1", "--from", "1,1,1", "--max-points", "5"],
    "probe": ["--dataset", "xy", "--from", "1,0", "--samples", "2"],
    "matrix-space": [BASIS, "--trials", "5"],
    "show": ["--dataset", "cep3"],
    "datasets": [],
}
# (subcommand, arguments) pairs that no handler reads: the parser rejects them.
UNUSED = (
    [(name, [flag, value]) for name in ("rank", "classify", "knockout", "show", "datasets")
     for flag, value in (("--tol", "0.5"), ("--tol-floor", "0.1"))]
    + [(name, ["-o", "dot"]) for name in WORKING if name != "show"]
    + [(name, ["-o", "csv"]) for name in WORKING if name != "trace"]
    + [("matrix-space", ["--dataset", "cep3"]), ("matrix-space", ["--format", "json"])]
)


class TestDeclaredFlagsAndFormats:
    """Each subcommand accepts only the flags and output formats it uses."""

    def test_every_subcommand_has_a_working_invocation(self, monkeypatch, capsys):
        monkeypatch.delenv("STRUCTRANK_OUTPUT", raising=False)
        assert set(WORKING) == set(_COMMANDS)
        for name, argv in WORKING.items():
            assert main([name, *argv]) == 0, capsys.readouterr().err

    def test_thirty_unused_values_are_counted(self):
        assert len(UNUSED) == 30

    @pytest.mark.parametrize("name, extra", UNUSED,
                             ids=[f"{n} {' '.join(e)}" for n, e in UNUSED])
    def test_unused_flag_or_format_is_usage_error(self, name, extra, monkeypatch, capsys):
        monkeypatch.delenv("STRUCTRANK_OUTPUT", raising=False)
        with pytest.raises(SystemExit) as exc:
            main([name, *WORKING[name], *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {extra[0]}" in err or \
            f"argument -o/--output: invalid choice: '{extra[1]}'" in err

    @pytest.mark.parametrize("extra", [
        ["--samples", "7"], ["--step", "0.3"], ["--radius", "2"], ["--tol", "0.5"],
        ["--tol-floor", "0.1"], ["--samples", "7", "--step", "0.3", "--tol", "0.5"],
    ])
    def test_delta_with_a_manifold_probe_flag_is_input_error(self, extra, capsys):
        argv = ["probe", "--dataset", "eqcep1", "--from", "1,1,1", "--delta", "0,0.1,0"]
        assert main([*argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flags = ", ".join(a for a in extra if a.startswith("--"))
        assert captured.err == ("error: --delta runs the perturbation probe, which does not "
                                f"use {flags}\n")

    def test_delta_of_the_wrong_length_is_input_error(self, capsys):
        argv = ["probe", "--dataset", "eqcep1", "--from", "1,1,1", "--delta", "0.1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --delta must have 3 components, got 1\n"

    @pytest.mark.parametrize("subcommand", ["trace", "probe"])
    @pytest.mark.parametrize("source, origin", [
        (["--dataset", "eqcep1", "--from", "1,1,1"], "dataset eqcep1 (bundled system)"),
        (["--dataset", "xy", "--from", "1,0"], "dataset xy (bundled system)"),
        ([SYSTEM, "--from", "0.3,0.2,0.1,0.4"], f"system file {SYSTEM}"),
    ])
    def test_degree_on_an_input_with_its_own_system_is_input_error(
            self, subcommand, source, origin, capsys):
        assert main([subcommand, *source, "--degree", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --degree is unused: {origin} is a system")

    @pytest.mark.parametrize("seed", ["0", "5"])
    @pytest.mark.parametrize("source, origin", [
        (["--dataset", "eqcep1", "--from", "1,1,1"], "dataset eqcep1 (bundled system)"),
        ([SYSTEM, "--from", "0.3,0.2,0.1,0.4"], f"system file {SYSTEM}"),
    ], ids=["dataset", "system-file"])
    def test_seed_on_a_trace_of_a_system_of_its_own_is_input_error(
            self, source, origin, seed, capsys):
        assert main(["trace", *source, "--max-points", "5", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --seed is unused: {origin} is a system")

    @pytest.mark.parametrize("argv", [
        ["--samples", "3"], ["--delta", "0,0.1,0"]], ids=["manifold", "perturbation"])
    def test_probe_of_a_system_of_its_own_uses_the_seed(self, argv, capsys):
        outputs = []
        for seed in ("0", "5"):
            command = ["probe", "--dataset", "eqcep1", "--from", "1,1,1", *argv, "--seed", seed]
            assert main(command) == 0, capsys.readouterr().err
            outputs.append(capsys.readouterr().out)
        assert "seed 0" in outputs[0] and "seed 5" in outputs[1]

    def test_trace_samples_a_member_of_a_structure_with_the_seed(self, capsys):
        argv = ["trace", "--dataset", "cep3", "--from", "1,1,1", "--max-points", "5"]
        assert main([*argv, "--seed", "4"]) == 0, capsys.readouterr().err
        assert "random member (degree=2, seed=4" in capsys.readouterr().out

    @pytest.mark.parametrize("request_, unused", [
        (AnalysisRequest("rank", dataset="cep3", rel_tol=0.5, samples=3), "rel_tol, samples"),
        (AnalysisRequest("rank", dataset="cep3", seed=0), "seed"),
        (AnalysisRequest("matrix-space", dataset="cep3", input_path=BASIS), "dataset"),
        (AnalysisRequest("datasets", fmt="json"), "fmt"),
        (AnalysisRequest("trace", dataset="eqcep1", from_point=(1.0, 1.0, 1.0), trials=3),
         "trials"),
    ], ids=["rank-tol-samples", "rank-seed", "matrix-space-dataset", "datasets-format",
            "trace-trials"])
    def test_request_field_the_subcommand_does_not_use(self, request_, unused):
        assert run(request_) == (2, f"error: {request_.subcommand} does not use the "
                                    f"request field(s) {unused}\n")

    def test_delta_still_samples_a_member_of_a_structure(self, capsys):
        argv = ["probe", "--dataset", "cep3", "--from", "1,1,1", "--delta", "0,0.1,0"]
        assert main([*argv, "--degree", "3", "--seed", "2"]) == 0, capsys.readouterr().err
        assert "random member (degree=3, seed=2" in capsys.readouterr().out

    @pytest.mark.parametrize("value, name", [("yaml", "rank"), ("dot", "trace"),
                                             ("csv", "show")])
    def test_output_env_the_subcommand_does_not_render(self, value, name, monkeypatch, capsys):
        monkeypatch.setenv("STRUCTRANK_OUTPUT", value)
        assert main([name, *WORKING[name]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name} has no output format {value!r}" in captured.err

    def test_output_env_is_a_default_that_o_overrides(self, monkeypatch, capsys):
        monkeypatch.setenv("STRUCTRANK_OUTPUT", "dot")
        assert main(["show", "--dataset", "cep3"]) == 0
        assert capsys.readouterr().out.startswith("digraph system {")
        assert main(["rank", "--dataset", "cep3", "-o", "text"]) == 0
        assert capsys.readouterr().out == "structural rank: 2 (M=3, N=3)\n"

    @pytest.mark.parametrize("analysis", [
        AnalysisRequest("rank", dataset="cep3", output="dot"),
        AnalysisRequest("trace", dataset="eqcep1", from_point=(1.0, 1.0, 1.0), output="yaml"),
        AnalysisRequest("datasets", output="csv"),
    ], ids=["rank-dot", "trace-yaml", "datasets-csv"])
    def test_request_output_the_subcommand_does_not_render(self, analysis):
        code, text = run(analysis)
        assert code == 2
        assert text.startswith(f"error: {analysis.subcommand} has no output format "
                               f"{analysis.output!r}")


# Each golden JSON input, with subcommands that read it in a few milliseconds.
HOSTILE_FILES = {
    "basis.json": (["matrix-space", "--trials", "3", "-o", "json"],),
    "empty-row.json": (["show", "-o", "json"], ["classify", "-o", "text"],
                       ["knockout", "-o", "json"], ["certify", "--trials", "3", "-o", "json"]),
    "wide-derived.json": (["show", "-o", "text"], ["show", "-o", "dot"],
                          ["generic-rank", "--trials", "3", "-o", "json"]),
    "system-example5.json": (["show", "-o", "json"], ["rank", "-o", "text"],
                             ["trace", "--from", "0.3,0.2,0.1,0.4", "--max-points", "3", "-o", "json"]),
}
HOSTILE_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from([10**400, -10**400, 2**64, float("nan"), float("inf"), -float("inf")]),
    st.lists(st.lists(st.integers(-2, 20), max_size=3), max_size=3),
)


def leaf_paths(value, path=()):
    """The key path of every leaf of a JSON document: a scalar, or an empty list or object."""
    items = list(value.items() if isinstance(value, dict) else
                 enumerate(value) if isinstance(value, list) else ())
    if not items:
        yield path
    for key, item in items:
        yield from leaf_paths(item, (*path, key))


class TestHostileInput:
    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_mutated_leaf_exits_cleanly(self, tmp_path, data):
        # One or two leaves of a golden input replaced by a bool, a huge int,
        # NaN, a string, null or a nested list: a clean answer or one named
        # error, whichever of two faults the reader meets first.
        name = data.draw(st.sampled_from(sorted(HOSTILE_FILES)))
        doc = json.loads((GOLDEN / name).read_text())
        for _ in range(data.draw(st.integers(1, 2))):
            *parents, key = data.draw(st.sampled_from(list(leaf_paths(doc))))
            target = doc
            for step in parents:
                target = target[step]
            target[key] = data.draw(HOSTILE_VALUES)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        command, *flags = data.draw(st.sampled_from(HOSTILE_FILES[name]))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
                redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, str(path), *flags])
        assert code in (0, 1, 2)
        assert not caught, [str(w.message) for w in caught]
        lines = err.getvalue().splitlines()
        assert not [line for line in lines if "internal error:" in line or "Warning" in line]
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
