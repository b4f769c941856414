import ast
import dataclasses
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from structrank import (
    ParseError,
    RankTolerance,
    StructuredPolySystem,
    StructurePattern,
    WrongDimensionError,
    certify_acr,
    generic_rank_randomized,
    local_dimension,
    manifold_probe,
    matrix_space_rank,
    perturbation_probe,
    sample_system,
    structural_rank,
    system_from_terms,
    trace_curve,
)
from structrank import continuation, formats, numrank
from structrank.cli import main
from structrank.continuation import _gauss_newton
from structrank.datasets import get_dataset

from oracles import hausdorff_distance, reference_gauss_newton

GOLDEN = Path(__file__).parent / "golden"


def ellipse_system():
    # x1^2 + 2*x2^2 = c: every nonzero level set is a closed curve.
    pattern = StructurePattern.from_rows([{0, 1}])
    return system_from_terms(pattern, 2, [{(2, 0): 1.0, (0, 2): 2.0}])


def coordinates(branch):
    return np.array([bp.point for bp in branch.points])


def identity_system(n=3):
    pattern = StructurePattern.from_rows([{i} for i in range(n)])
    return system_from_terms(pattern, 1, [{(1,): 1.0} for _ in range(n)])


class TestLocalDimension:
    def test_quartic_kernel_direction(self):
        sys = get_dataset("eqcep1").system
        ld = local_dimension(sys, [1.0, 1.0, 1.0])
        assert ld.dimension == 1 and ld.rank == 2
        expected = np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0)
        direction = ld.kernel[0]
        assert_allclose(np.abs(direction @ expected), 1.0, atol=1e-12)

    def test_identity_map_has_isolated_solutions(self):
        ld = local_dimension(identity_system(), [0.4, -0.2, 0.9])
        assert ld.dimension == 0
        assert ld.kernel.shape == (0, 3)

    def test_arm_linkage_dimension_three(self):
        sys = sample_system(get_dataset("robotarm").structure, degree=2, seed=1)
        ld = local_dimension(sys, np.linspace(-0.5, 0.5, 6))
        assert ld.dimension == 3
        assert ld.kernel.shape == (3, 6)

    @pytest.mark.parametrize("call", [
        lambda sys, p: local_dimension(sys, p),
        lambda sys, p: trace_curve(sys, p),
        lambda sys, p: manifold_probe(sys, p, samples=5),
    ], ids=["local_dimension", "trace_curve", "manifold_probe"])
    def test_svd_basis_beyond_the_bound_is_refused_before_any_svd(self, call, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD was taken")

        sys = sample_system(get_dataset("robotarm").structure, degree=2, seed=1)
        # 3 x 6 Jacobians fit a bound of 20 entries; their 6 x 6 SVD basis does not.
        monkeypatch.setattr(continuation.np.linalg, "svd", refuse)
        monkeypatch.setattr(formats, "MAX_JACOBIAN_ENTRIES", 20)
        with pytest.raises(ParseError, match=(
                r"^6 variables make 36 entries in the N x N basis of a full SVD, more than "
                r"the bound of 20 \(formats.MAX_JACOBIAN_ENTRIES\)$")) as info:
            call(sys, np.linspace(-0.5, 0.5, 6))
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("call", [
        lambda: local_dimension(get_dataset("eqcep1").system, [1.0, 1.0, 1.0]),
        lambda: trace_curve(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], max_points=40),
        lambda: manifold_probe(sample_system(get_dataset("sole26").structure, degree=2, seed=0),
                               [0.1] * 26, samples=5),
        lambda: manifold_probe(sample_system(get_dataset("robust4").structure, degree=2, seed=0),
                               [0.1, 0.2, 0.3, 0.4], samples=5),
    ], ids=["local_dimension", "trace_curve", "manifold_probe", "manifold_probe-isolated"])
    def test_the_basis_bound_is_checked_once_per_call(self, call, monkeypatch):
        # Every landed point has the start's N variables; the bound was checked
        # before each of their SVDs.
        checked, analysed = [], []
        svd_analysis = continuation._svd_analysis
        monkeypatch.setattr(continuation, "check_basis_size",
                            lambda n: checked.append(n) or formats.check_basis_size(n))
        monkeypatch.setattr(continuation, "_svd_analysis",
                            lambda jac, tol: analysed.append(jac) or svd_analysis(jac, tol))
        call()
        assert len(checked) == 1 and len(analysed) >= 1

    def test_consistent_with_structural_rank_at_random_points(self):
        pattern = get_dataset("trophic5").structure
        sys = sample_system(pattern, degree=2, seed=0)
        expected = 5 - structural_rank(pattern)
        rng = np.random.default_rng(0)
        hits = sum(
            local_dimension(sys, rng.uniform(-1, 1, 5)).dimension == expected
            for _ in range(20)
        )
        assert hits >= 19


class TestTraceCurve:
    def test_parabola_branch(self):
        sys = get_dataset("eqcep1").system
        branch = trace_curve(sys, [1.0, 1.0, 1.0], step=0.05, max_points=200)
        pts = coordinates(branch)
        assert np.abs(pts[:, 1] - pts[:, 0] ** 2).max() <= 1e-6
        assert np.abs(pts[:, 2] - 1.0).max() <= 1e-6
        assert all(bp.residual <= 1e-8 for bp in branch.points)
        assert all(bp.rank == 2 for bp in branch.points)

    def test_tangent_lies_in_kernel(self):
        sys = get_dataset("eqcep1").system
        branch = trace_curve(sys, [1.0, 1.0, 1.0], step=0.05, max_points=100)
        for bp in branch.points:
            jac = sys.jacobian(bp.point).matrix
            assert np.linalg.norm(jac @ bp.tangent) <= 1e-6
            assert_allclose(np.linalg.norm(bp.tangent), 1.0, atol=1e-12)

    def test_consecutive_points_within_step(self):
        sys = get_dataset("eqcep1").system
        branch = trace_curve(sys, [1.0, 1.0, 1.0], step=0.05, max_points=150)
        pts = coordinates(branch)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert gaps.max() <= 0.05 + 1e-12

    def test_hyperbola_stays_on_level_set_and_off_axes(self):
        xy = get_dataset("xy").system
        branch = trace_curve(xy, [1.0, 1.0], step=0.05, max_points=400)
        pts = coordinates(branch)
        assert np.abs(pts[:, 0] * pts[:, 1] - 1.0).max() <= 1e-6
        assert pts[:, 0].min() > 0.0
        assert {ev.kind for ev in branch.events} == {"domain-exit"}

    def test_axis_branch_hits_rank_drop(self):
        xy = get_dataset("xy").system
        branch = trace_curve(xy, [1.0, 0.0], step=0.05, max_points=400)
        drops = [ev for ev in branch.events if ev.kind == "rank-drop"]
        assert len(drops) == 1
        assert np.linalg.norm(drops[0].location) <= 0.05

    def test_closed_branch_detected(self):
        branch = trace_curve(ellipse_system(), [1.0, 1.0], step=0.05, max_points=400)
        assert branch.closed
        assert any(ev.kind == "closed" for ev in branch.events)

    def test_closed_branch_retrace_symmetry(self):
        step = 0.05
        first = trace_curve(ellipse_system(), [1.0, 1.0], step=step, max_points=400)
        q = first.points[len(first.points) // 3].point
        second = trace_curve(ellipse_system(), q, step=step, max_points=400)
        assert hausdorff_distance(coordinates(first), coordinates(second)) <= 2 * step

    def test_point_budget_respected(self):
        branch = trace_curve(get_dataset("eqcep1").system, [1.0, 1.0, 1.0],
                             step=0.05, max_points=25)
        assert len(branch.points) <= 25
        assert any(ev.kind == "max-points" for ev in branch.events)

    def test_wrong_dimension_rejected(self):
        robust = sample_system(get_dataset("robust4").structure, degree=2, seed=0)
        with pytest.raises(WrongDimensionError):
            trace_curve(robust, [0.1, 0.2, 0.3, 0.4])
        arm = sample_system(get_dataset("robotarm").structure, degree=2, seed=0)
        with pytest.raises(WrongDimensionError):
            trace_curve(arm, np.zeros(6) + 0.3)

    def test_bad_step_rejected(self):
        for step in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="step"):
                trace_curve(get_dataset("xy").system, [1.0, 1.0], step=step)

    def test_empty_point_budget_rejected(self):
        with pytest.raises(ValueError, match="max_points"):
            trace_curve(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], max_points=0)

    def test_corrector_failure_ends_each_direction(self, monkeypatch):
        def never_converges(system, x0, *args):
            return system.jacobian(x0), continuation.MAX_CORRECTOR_ITERATIONS, False, 1.0

        monkeypatch.setattr(continuation, "_gauss_newton", never_converges)
        p = np.array([1.0, 1.0, 1.0])
        branch = trace_curve(get_dataset("eqcep1").system, p, step=0.05)
        halvings = continuation.MAX_STEP_HALVINGS
        detail = f"corrector did not converge after {halvings} step halvings"
        assert [(ev.kind, ev.direction, ev.detail) for ev in branch.events] == [
            ("corrector-failure", 1, detail), ("corrector-failure", -1, detail)]
        assert [bp.point.tolist() for bp in branch.points] == [p.tolist()]
        # Each event is located at the last, shortest predictor step.
        tangent = branch.points[0].tangent
        assert_allclose(branch.events[0].location, p + 0.05 / 2**halvings * tangent, rtol=1e-15)
        assert_allclose(branch.events[1].location, p - 0.05 / 2**halvings * tangent, rtol=1e-15)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_bad_domain_radius_rejected(self, radius):
        # A nan box is never left and a box of radius <= 0 holds no point
        # but p, so either would end the trace on a made-up event.
        with pytest.raises(ValueError, match="domain_radius"):
            trace_curve(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], max_points=20,
                        domain_radius=radius)


class TestManifoldProbe:
    def test_parabola_rank_constant(self):
        sys = get_dataset("eqcep1").system
        report = manifold_probe(sys, [1.0, 1.0, 1.0], samples=50, seed=0)
        assert report.dimension == 1
        assert report.rank_histogram == {2: report.samples_accepted}
        assert report.samples_accepted == 50
        assert not report.rank_drop_found

    def test_axis_point_is_exceptional(self):
        xy = get_dataset("xy").system
        report = manifold_probe(xy, [1.0, 0.0], samples=50, seed=0)
        assert report.rank_drop_found
        assert report.drop_rank == 0
        assert np.abs(report.drop_point).max() <= 10.0

    def test_a_walk_that_lands_on_the_drop_stops_without_a_hunt(self, monkeypatch, capsys):
        # On x1*x2 = 0 from (1, 0) with seed 1, the ninth accepted sample lands
        # next to the origin, where DF vanishes: the walk ends there, unhunted.
        hunts = []
        monkeypatch.setattr(continuation, "_hunt_rank_drop", lambda *args: hunts.append(args))
        report = manifold_probe(get_dataset("xy").system, (1.0, 0.0), samples=50, seed=1)
        assert hunts == []
        assert (report.samples_accepted, report.rank_histogram) == (9, {1: 8, 0: 1})
        assert (report.rank_drop_found, report.drop_rank) == (True, 0)
        assert report.drop_point.tolist() == [5.551115123125783e-17, 0.0]
        assert main(["probe", "--dataset", "xy", "--from", "1,0", "--seed", "1"]) == 0
        assert capsys.readouterr().out.endswith(
            "samples accepted: 9/50 (seed 1)\nrank drop found: rank 0 at (5.551e-17, 0)\n")
        assert hunts == []

    def test_exceptional_base_point_walks_with_base_kernel(self):
        # DF(0, 0) of x1*x2 is zero, so the base kernel is 2-D while every
        # sample off the origin has rank 1 and a 1-D kernel.
        report = manifold_probe(get_dataset("xy").system, [0.0, 0.0], samples=10, seed=0)
        assert (report.rank, report.dimension) == (0, 2)
        assert report.samples_accepted == 10
        assert report.rank_histogram == {1: 10}
        assert not report.rank_drop_found

    def test_identity_isolated_point(self):
        report = manifold_probe(identity_system(), [0.3, -0.2, 0.7], samples=20, seed=1)
        assert report.dimension == 0
        assert report.isolated_confirmed
        assert report.returned_count == 20

    def test_isolated_probe_counts_corrector_failures(self, monkeypatch):
        # Every other perturbed start fails to converge: those samples are
        # failures, not returns, and the point is not confirmed isolated.
        gauss_newton, calls = continuation._gauss_newton, []

        def every_other_fails(system, x0, *args):
            calls.append(x0)
            jac, iterations, ok, residual = gauss_newton(system, x0, *args)
            return jac, iterations, ok and len(calls) % 2 == 1, residual

        monkeypatch.setattr(continuation, "_gauss_newton", every_other_fails)
        report = manifold_probe(identity_system(), [0.3, -0.2, 0.7], samples=20, seed=1)
        assert (report.dimension, len(calls)) == (0, 20)
        assert (report.corrector_failures, report.returned_count) == (10, 10)
        assert (report.samples_accepted, report.rank_histogram) == (10, {3: 10})
        assert not report.isolated_confirmed

    def test_hunt_trials_that_fail_to_land_change_nothing(self, monkeypatch):
        # With every hunt correction failing, the hunt halves its step from
        # 0.2 to below 1e-15, 48 rounds of 3 candidates times 2 signs, and
        # the report is the walk's, as if no hunt had run. The kernel is one
        # row, so each round makes only two distinct trials, each corrected once.
        system, p = get_dataset("eqcep1").system, [1.0, 1.0, 1.0]
        hunt, gauss_newton = continuation._hunt_rank_drop, continuation._gauss_newton
        walked = manifold_probe(system, p, samples=20, seed=0)
        monkeypatch.setattr(continuation, "_hunt_rank_drop",
                            lambda system, x, rank, kernel, current, *args: (x, rank, current))
        unhunted = manifold_probe(system, p, samples=20, seed=0).to_json_dict()
        hunted = []

        def hunt_fails(system, x0, *args):
            jac, iterations, ok, residual = gauss_newton(system, x0, *args)
            if hunted:
                hunted.append(x0)
            return jac, iterations, ok and not hunted, residual

        def failing_hunt(*args):
            hunted.append(None)
            return hunt(*args)

        monkeypatch.setattr(continuation, "_gauss_newton", hunt_fails)
        monkeypatch.setattr(continuation, "_hunt_rank_drop", failing_hunt)
        report = manifold_probe(system, p, samples=20, seed=0)
        assert len(hunted) - 1 == 48 * 2
        assert report.to_json_dict() == unhunted
        assert walked.min_significant_sigma < unhunted["min_significant_sigma"]

    def test_hunt_corrects_a_repeated_trial_once_per_step(self, monkeypatch):
        # The random directions of a one-row kernel repeat its trials: each
        # was corrected once per repeat, 324 corrections in all. The report
        # is the one that made.
        gauss_newton, starts = continuation._gauss_newton, []

        def spied(system, x0, *args):
            starts.append(x0)
            return gauss_newton(system, x0, *args)

        monkeypatch.setattr(continuation, "_gauss_newton", spied)
        report = manifold_probe(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], samples=20, seed=0)
        assert len(starts) == 183
        assert report.to_json_dict() == {
            "base_point": [1.0, 1.0, 1.0], "rank": 2, "dimension": 1, "samples_requested": 20,
            "samples_accepted": 20, "histogram": {"2": 20}, "rank_drop_found": False,
            "drop_point": None, "drop_rank": None, "min_significant_sigma": 0.7407272973124167,
            "isolated_confirmed": None, "returned_count": None, "corrector_failures": 0,
        }

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sample_count_must_be_positive(self, samples):
        with pytest.raises(ValueError, match="samples"):
            manifold_probe(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], samples=samples)

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match="step"):
            manifold_probe(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], step=step)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_bad_domain_radius_rejected(self, radius):
        # With a nan radius every corrected sample failed the box test and
        # was counted as a corrector failure.
        with pytest.raises(ValueError, match="domain_radius"):
            manifold_probe(get_dataset("xy").system, [1.0, 1.0], samples=5,
                           domain_radius=radius)

    def test_surface_walk_on_arm_linkage(self):
        sys = sample_system(get_dataset("robotarm").structure, degree=2, seed=2)
        p = np.array([0.3, -0.1, 0.4, 0.2, -0.3, 0.5])
        report = manifold_probe(sys, p, samples=30, seed=0)
        assert report.dimension == 3
        assert not report.rank_drop_found


class TestEvaluationReuse:
    """Continuation evaluates every point once, through ``jacobian``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"evaluate": 0, "jacobian": []}
        jacobian, evaluate = StructuredPolySystem.jacobian, StructuredPolySystem.evaluate

        def counted_jacobian(system, x):
            calls["jacobian"].append(np.asarray(x, dtype=np.float64).tobytes())
            return jacobian(system, x)

        def counted_evaluate(system, x):
            calls["evaluate"] += 1
            return evaluate(system, x)

        monkeypatch.setattr(StructuredPolySystem, "jacobian", counted_jacobian)
        monkeypatch.setattr(StructuredPolySystem, "evaluate", counted_evaluate)
        return calls

    def test_trace_curve(self, calls):
        trace_curve(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], step=0.05)
        assert calls["evaluate"] == 0
        assert len(calls["jacobian"]) == len(set(calls["jacobian"]))

    def test_manifold_probe(self, calls):
        sys = sample_system(get_dataset("robotarm").structure, degree=2, seed=2)
        manifold_probe(sys, [0.3, -0.1, 0.4, 0.2, -0.3, 0.5], samples=30, seed=0)
        assert calls["evaluate"] == 0
        assert len(calls["jacobian"]) == len(set(calls["jacobian"]))

    def test_zero_corrector_step(self, calls):
        # DF(0, 0) of x1*x2 is zero while F misses the target, so the
        # least-squares step from the origin is zero and no backtrack trial
        # can move; the first jittered restart solves.
        probe = perturbation_probe(get_dataset("xy").system, [0.0, 0.0], [1.0])
        assert probe.starts_tried == 2
        assert probe.solved
        assert calls["evaluate"] == 0
        assert len(set(calls["jacobian"])) == len(calls["jacobian"]) == 9

    def test_backtracking_ends_once_the_trial_is_x(self, calls, monkeypatch):
        # Descents to the fragile quartic's residual floor end on steps so
        # short that a halved one leaves x where it is; every shorter trial
        # would evaluate x again (21 times in this probe).
        descents = []
        gauss_newton = continuation._gauss_newton

        def spied(system, x0, *args):
            first = len(calls["jacobian"])
            jac, *rest = gauss_newton(system, x0, *args)
            descents.append((calls["jacobian"][first:], jac.point.tobytes()))
            return (jac, *rest)

        monkeypatch.setattr(continuation, "_gauss_newton", spied)
        probe = perturbation_probe(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], [0.0, 0.1, 0.0])
        assert (probe.solved, probe.starts_tried, len(descents)) == (False, 21, 21)
        assert [points.count(last) for points, last in descents if points.count(last) > 1] == []

    def test_probe_analyses_each_point_once(self, monkeypatch, capsys):
        # The rank-drop hunt ran a second SVD on its start, the walk's
        # lowest-sigma sample, which the walk had analysed already.
        analysed = []
        svd_analysis = continuation._svd_analysis

        def spied(jac, tol):
            analysed.append(jac.point.tobytes())
            return svd_analysis(jac, tol)

        monkeypatch.setattr(continuation, "_svd_analysis", spied)
        assert main(["probe", "--dataset", "sole26", "--from", ",".join(["0.1"] * 26),
                     "--samples", "5", "-o", "json"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "probe-sole26-json.out").read_text()
        assert len(analysed) > 5
        assert len(analysed) == len(set(analysed))

    def test_no_rank_drop_hunt_at_base_rank_zero(self, calls):
        # No rank lies below the base rank 0 of x1*x2 at the origin, so the
        # hunt could only spend calls: it made 538 of the 765 here.
        report = manifold_probe(get_dataset("xy").system, [0.0, 0.0], samples=50, seed=0)
        assert (report.rank, report.rank_histogram) == (0, {1: 50})
        assert not report.rank_drop_found
        assert report.min_significant_sigma == 0.0
        assert len(calls["jacobian"]) <= 227


class TestGaussNewtonAgainstReference:
    """The corrector that keeps each point's residual vector matches the one that recomputed it."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["eqcep1", "trophic5", "robotarm"]),
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(1, 3),
        scale=st.sampled_from([0.01, 0.3, 3.0]),
        shift=st.sampled_from([0.0, 0.1, 10.0]),
        max_iterations=st.integers(0, 25),
        evaluated_start=st.booleans(),
    )
    def test_bit_identical(self, name, seed, degree, scale, shift, max_iterations,
                           evaluated_start):
        # Starts far from p, targets shifted off F(p) (no solution for the
        # fragile trophic5) and small iteration budgets make runs that stall,
        # backtrack to nothing or run out, as well as runs that converge.
        system = sample_system(get_dataset(name).structure, degree=degree, seed=seed)
        rng = np.random.default_rng(seed)
        p = rng.uniform(-1.0, 1.0, system.num_variables)
        target = system.evaluate(p) + shift * rng.standard_normal(system.num_equations)
        x0 = p + scale * rng.standard_normal(p.size)
        if evaluated_start:
            x0 = system.jacobian(x0)
        got = _gauss_newton(system, x0, target, 1e-10, max_iterations)
        expected = reference_gauss_newton(system, x0, target, 1e-10, max_iterations)
        assert got[0].point.tobytes() == expected[0].point.tobytes()
        assert got[0].matrix.tobytes() == expected[0].matrix.tobytes()
        assert got[1:3] == expected[1:3]
        assert np.float64(got[3]).tobytes() == np.float64(expected[3]).tobytes()

    def test_unevaluable_start(self):
        system = get_dataset("eqcep1").system
        start = np.array([np.nan, 0.0, 0.0])
        assert _gauss_newton(system, start, np.zeros(3), 1e-10, 5) == (None, 0, False, np.inf)
        assert reference_gauss_newton(system, start, np.zeros(3), 1e-10, 5) == (
            None, 0, False, np.inf)


class TestPerturbationProbe:
    def test_inconsistent_perturbation_of_quartic(self):
        # Grid-search oracle: the first two equations constrain only x3, so
        # the best possible residual is min_t ||(t^2 - 1, t^4 - 1.1)||.
        t = np.arange(-3.0, 3.0 + 1e-9, 1e-4)
        oracle = np.sqrt((t**2 - 1.0) ** 2 + (t**4 - 1.1) ** 2).min()
        sys = get_dataset("eqcep1").system
        probe = perturbation_probe(sys, [1.0, 1.0, 1.0], [0.0, 0.1, 0.0], seed=0)
        assert not probe.solved
        assert probe.solution is None
        assert probe.residual_floor >= 0.02
        assert abs(probe.residual_floor - oracle) <= 1e-3

    def test_robust_system_absorbs_small_perturbation(self):
        sys = sample_system(get_dataset("robust4").structure, degree=2, seed=0)
        rng = np.random.default_rng(1)
        p = rng.uniform(-1, 1, 4)
        delta = rng.standard_normal(4)
        delta *= 1e-3 / np.linalg.norm(delta)
        probe = perturbation_probe(sys, p, delta, seed=0)
        assert probe.solved
        assert np.linalg.norm(probe.solution - p) <= 1e-2
        assert np.linalg.norm(sys.evaluate(probe.solution) - (sys.evaluate(p) + delta)) <= 1e-8

    def test_zero_delta_solved_at_base_point(self):
        sys = get_dataset("eqcep1").system
        probe = perturbation_probe(sys, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert probe.solved
        assert probe.residual_floor == 0.0

    def test_takes_no_svd_and_no_basis_bound(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD was taken")

        sys = sample_system(get_dataset("robotarm").structure, degree=2, seed=1)
        monkeypatch.setattr(continuation.np.linalg, "svd", refuse)
        monkeypatch.setattr(formats, "MAX_JACOBIAN_ENTRIES", 20)
        probe = perturbation_probe(sys, np.linspace(-0.5, 0.5, 6), [0.01, 0.0, 0.0], seed=0)
        assert probe.residual_floor >= 0.0

    def test_delta_shape_validated(self):
        with pytest.raises(ValueError):
            perturbation_probe(get_dataset("xy").system, [1.0, 1.0], [0.1, 0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected(self, bad):
        # No start reaches a non-finite target, so "not solved" would be a
        # fragility verdict with no evidence behind it.
        with pytest.raises(ValueError, match="delta must be finite"):
            perturbation_probe(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], [bad, 0.0, 0.0])


def plain_values(tree):
    """The values in ``tree`` other than a str-keyed dict, list, float, int, bool, str or None."""
    found, stack = [], [tree]
    while stack:
        value = stack.pop()
        if type(value) is dict and all(type(k) is str for k in value):
            stack.extend(value.values())
        elif type(value) is list:
            stack.extend(value)
        elif type(value) not in (float, int, bool, str, type(None)):
            found.append(value)
    return found


class TestJsonFields:
    # A report's JSON is its fields: a field added to one of these classes
    # must fail here rather than change a schema unnoticed.
    TRACE = ["base_point", "target", "rank", "closed", "residual_tol", "max_step", "points",
             "events"]
    POINT = ["x", "residual", "rank", "tangent", "step_size", "corrector_iterations"]
    EVENT = ["kind", "direction", "detail", "location"]
    PROBE = ["base_point", "rank", "dimension", "samples_requested", "samples_accepted",
             "histogram", "rank_drop_found", "drop_point", "drop_rank", "min_significant_sigma",
             "isolated_confirmed", "returned_count", "corrector_failures"]
    PERTURBATION = ["delta", "solved", "solution", "residual_floor", "starts_tried"]

    def test_trace(self):
        branch = trace_curve(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], max_points=5)
        out = branch.to_json_dict()
        assert list(out) == self.TRACE
        assert [list(point) for point in out["points"]] == [self.POINT] * 5
        assert [list(event) for event in out["events"]] == [self.EVENT] * 2
        assert plain_values(out) == []

    @pytest.mark.parametrize("system, p, dimension", [
        (get_dataset("eqcep1").system, [1.0, 1.0, 1.0], 1),
        (get_dataset("xy").system, [1.0, 0.0], 1),
        (identity_system(), [0.3, -0.2, 0.7], 0),
    ], ids=["walk", "drop", "isolated"])
    def test_manifold_probe(self, system, p, dimension):
        report = manifold_probe(system, p, samples=5, seed=0)
        assert report.dimension == dimension
        out = report.to_json_dict()
        assert list(out) == self.PROBE
        assert plain_values(out) == []

    @pytest.mark.parametrize("delta, solved", [([0.0, 0.0, 0.0], True), ([0.0, 0.1, 0.0], False)])
    def test_perturbation_probe(self, delta, solved):
        probe = perturbation_probe(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], delta)
        assert probe.solved is solved
        out = probe.to_json_dict()
        assert list(out) == self.PERTURBATION
        assert plain_values(out) == []


# Every report class with a to_json_dict in numrank and continuation, found by scan,
# so that a new report is held to the rule below as soon as it exists.
REPORTS = {
    name: cls for module in (numrank, continuation) for name, cls in vars(module).items()
    if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    and hasattr(cls, "to_json_dict")
}
# Each report's examples; a certification report with and without its optional fields.
EXAMPLES = {
    "RankTolerance": lambda: [RankTolerance(), RankTolerance(0.2, 0.01)],
    "CertificationReport": lambda: [
        certify_acr(get_dataset("cep3").structure, trials=5),
        generic_rank_randomized(get_dataset("example5").structure, trials=5),
        matrix_space_rank([np.eye(2)], trials=5),
    ],
    "SolutionBranch": lambda: [
        trace_curve(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], max_points=5)],
    "ManifoldProbeReport": lambda: [
        manifold_probe(get_dataset("xy").system, [1.0, 0.0], samples=5, seed=0),
        manifold_probe(identity_system(), [0.3, -0.2, 0.7], samples=5, seed=0),
    ],
    "PerturbationProbe": lambda: [
        perturbation_probe(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], delta)
        for delta in ([0.0, 0.0, 0.0], [0.0, 0.1, 0.0])],
}
# How JSON keys follow from fields: a field's key when renamed (None: left out),
# keys written beside the fields, and the reports that leave out an unset (None) field.
RENAMED = {
    "CertificationReport": {"rank_histogram": "histogram"},
    "ManifoldProbeReport": {"rank_histogram": "histogram"},
    "BranchPoint": {"point": "x", "kernel": None},
}
ADDED = {"CertificationReport": {"agreement_rate"}}
UNSET_LEFT_OUT = {"CertificationReport"}


def json_keys(report):
    """The keys ``report``'s JSON should have, by RENAMED, ADDED and UNSET_LEFT_OUT."""
    name = type(report).__name__
    renamed = RENAMED.get(name, {})
    keys = {renamed.get(field.name, field.name) for field in dataclasses.fields(report)
            if not (name in UNSET_LEFT_OUT and getattr(report, field.name) is None)}
    return keys - {None} | ADDED.get(name, set())


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_a_reports_json_keys_are_its_fields(name):
    # A field added to a report must reach its JSON, through the one writer
    # numrank._json_fields and not through a second, hand-written dict.
    assert name in EXAMPLES, f"{name} has a to_json_dict but no example here"
    assert "_json_fields(" in inspect.getsource(REPORTS[name].to_json_dict)
    for report in EXAMPLES[name]():
        out = report.to_json_dict()
        assert set(out) == json_keys(report)
        assert plain_values(out) == []
        for field in dataclasses.fields(report):  # a branch's points and events
            items = getattr(report, field.name)
            if isinstance(items, tuple) and items and dataclasses.is_dataclass(items[0]):
                assert [set(d) for d in out[field.name]] == [json_keys(i) for i in items]


def interior_corrections(path):
    """(line, enclosing function) of each ``_gauss_newton`` call naming CORRECTOR_INTERIOR_TOL."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else function)
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "_gauss_newton"
                    and any(isinstance(n, ast.Name) and n.id == "CORRECTOR_INTERIOR_TOL"
                            for arg in [*child.args, *(k.value for k in child.keywords)]
                            for n in ast.walk(arg))):
                found.append((child.lineno, function))
            visit(child, inner)

    visit(tree, None)
    return found


class TestOneLandingStep:
    """The walk and the rank-drop hunt correct, box-check and analyse a trial through ``_land``.

    A curve trace keeps its own corrector loop, since there a failed
    correction or a box exit ends the walk with an event.
    """

    def test_only_land_and_the_trace_correct_to_the_interior_tolerance(self):
        found = interior_corrections(Path(continuation.__file__))
        assert sorted(function for _, function in found) == ["_land", "_trace_direction"], found

    @pytest.mark.parametrize("source, expected", [
        ("def f(s, x, t):\n    return _gauss_newton(s, x, t, CORRECTOR_INTERIOR_TOL, 25)\n",
         [(2, "f")]),
        ("def f(s, x, t):\n    def g():\n        _gauss_newton(s, x, t,\n"
         "                      residual_tol=CORRECTOR_INTERIOR_TOL)\n", [(3, "g")]),
        # Another tolerance, or another function, is not an interior correction.
        ("def f(s, x, t):\n    _gauss_newton(s, x, t, DEFAULT_RESIDUAL_TOL, 50)\n", []),
        ("def f(s, x, t):\n    _land(s, x, t, CORRECTOR_INTERIOR_TOL)\n", []),
    ])
    def test_scan_finds_interior_corrections(self, source, expected, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(source)
        assert interior_corrections(path) == expected


class TestOverflowingResidual:
    """A residual whose square overflows float64 has a finite norm."""

    @pytest.mark.parametrize("v, expected", [
        ([3e200, 4e200], 5e200),
        ([1e300, 0.0, -1e300], 1e300 * np.sqrt(2.0)),
    ])
    def test_norm_is_scaled_when_the_square_overflows(self, v, expected):
        with np.errstate(over="ignore"):
            assert continuation._norm(np.array(v)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("v", [[np.inf, 1.0], [1e300, -np.inf]])
    def test_infinite_vector_has_infinite_norm(self, v):
        with np.errstate(over="ignore"):
            assert continuation._norm(np.array(v)) == np.inf

    @pytest.mark.parametrize("name, p, delta, floor", [
        ("xy", [1e150, 1e-150], [1e300], 1.487016908477783e284),
        ("eqcep1", [1e60, 1.0, 1.0], [0.0, 1e300, 0.0], 1e300),
    ])
    def test_perturbation_floor_is_finite_without_warnings(self, name, p, delta, floor):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe = perturbation_probe(get_dataset(name).system, p, delta)
        assert not probe.solved
        assert probe.residual_floor == pytest.approx(floor, rel=1e-12)


class TestSignatures:
    """The continuation functions take the settings the README lists, and no others.

    An option that no caller sets and the library does not check is a path
    that nothing tests, so adding one takes a change here too.
    """

    SIGNATURES = [
        "local_dimension(system, p, tol)",
        "trace_curve(system, p, step, max_points, tol, domain_radius)",
        "manifold_probe(system, p, samples, tol, step, seed, domain_radius)",
        "perturbation_probe(system, p, delta, seed)",
    ]

    @pytest.mark.parametrize("listed", SIGNATURES)
    def test_parameters(self, listed):
        name, _, params = listed.partition("(")
        parameters = inspect.signature(getattr(continuation, name)).parameters
        assert list(parameters) == params.rstrip(")").split(", ")

    def test_readme_lists_them(self):
        readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
        assert [listed for listed in self.SIGNATURES if f"`{listed}`" not in readme] == []
