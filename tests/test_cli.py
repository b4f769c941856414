import json

import pytest

from structrank import RankReport, classify
from structrank.cli import AnalysisRequest, _build_parser, main, run
from structrank.datasets import get_dataset


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
        (["rank", "--dataset", "cep3", "--tol-floor", "-1"], "--tol-floor"),
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

    @pytest.mark.parametrize("argv, own", [
        (["rank"], {}),
        (["datasets"], {}),
        (["certify"], {"trials": 1000, "seed": 0, "degree": 2, "distribution": "uniform",
                       "pass_threshold": 0.99}),
        (["generic-rank"], {"trials": 200, "seed": 0, "degree": 2, "distribution": "uniform"}),
        (["matrix-space"], {"trials": 200, "seed": 0}),
        (["trace", "--from", "1"], {"from_point": (1.0,), "step": 0.05, "max_points": 400,
                                    "seed": 0, "degree": 2, "radius": 10.0}),
        (["probe", "--from", "1"], {"from_point": (1.0,), "samples": 50, "delta": None,
                                    "step": 0.2, "seed": 0, "degree": 2, "radius": 10.0}),
    ])
    def test_subcommand_flags_and_defaults(self, argv, own, monkeypatch):
        monkeypatch.delenv("STRUCTRANK_OUTPUT", raising=False)
        common = {"subcommand": argv[0], "output": "text", "rel_tol": 1e-8, "abs_floor": 1e-12}
        if argv[0] != "datasets":
            common.update(input_path=None, dataset=None, fmt=None)
        assert vars(_build_parser().parse_args(argv)) == {**common, **own}

    def test_argparse_rejects_conflicting_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--dataset", "cep3", "-o", "yaml"])
        assert exc.value.code == 2
