import json
import warnings
from pathlib import Path

import pytest

from structrank import RankReport, classify, sample_system
from structrank.cli import _COMMANDS, AnalysisRequest, _build_parser, main, run
from structrank.datasets import get_dataset

BASIS = str(Path(__file__).parent / "golden" / "basis.json")
SYSTEM = str(Path(__file__).parent / "golden" / "system-example5.json")
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
        report = RankReport.from_json_dict(json.loads(text))
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
        for subcommand in ("classify", "trace", "probe"):
            code, text = run(AnalysisRequest(subcommand, dataset="nope", from_point=(1.0,)))
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

    def test_unknown_subcommand(self):
        code, _ = run(AnalysisRequest("explode"))
        assert code == 2

    def test_knockout_of_rectangular_input_fails_cleanly(self):
        code, text = run(AnalysisRequest("knockout", dataset="robotarm"))
        assert code == 1
        assert "square" in text

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

    @pytest.mark.parametrize("argv", [["rank"], ["trace", "--from", "1"], ["matrix-space"]])
    def test_deeply_nested_json_is_input_error(self, argv, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"variables": ' + "[" * 5000 + "]" * 5000 + "}")
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"


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
    ])
    def test_bad_numeric_flag_is_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_probe_without_accepted_samples_claims_nothing(self, capsys):
        # The base point lies outside the domain box, so every sample is rejected.
        assert main(["probe", "--dataset", "xy", "--from", "1,0", "--radius", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "samples accepted: 0/50" in out
        assert "manifold evidence" not in out

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
