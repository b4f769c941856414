import numpy as np
import pytest
from numpy.testing import assert_allclose

from structrank import (
    StructuredPolySystem,
    StructurePattern,
    WrongDimensionError,
    local_dimension,
    manifold_probe,
    perturbation_probe,
    sample_system,
    structural_rank,
    system_from_terms,
    trace_curve,
)
from structrank.datasets import get_dataset

from oracles import hausdorff_distance


def ellipse_system():
    # x1^2 + 2*x2^2 = c: every nonzero level set is a closed curve.
    pattern = StructurePattern.from_rows([{0, 1}])
    return system_from_terms(pattern, 2, [{(2, 0): 1.0, (0, 2): 2.0}])


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
        pts = branch.coordinates()
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
        pts = branch.coordinates()
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert gaps.max() <= 0.05 + 1e-12

    def test_hyperbola_stays_on_level_set_and_off_axes(self):
        xy = get_dataset("xy").system
        branch = trace_curve(xy, [1.0, 1.0], step=0.05, max_points=400)
        pts = branch.coordinates()
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
        assert hausdorff_distance(first.coordinates(), second.coordinates()) <= 2 * step

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

    def test_identity_isolated_point(self):
        report = manifold_probe(identity_system(), [0.3, -0.2, 0.7], samples=20, seed=1)
        assert report.dimension == 0
        assert report.isolated_confirmed
        assert report.returned_count == 20

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sample_count_must_be_positive(self, samples):
        with pytest.raises(ValueError, match="samples"):
            manifold_probe(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], samples=samples)

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match="step"):
            manifold_probe(get_dataset("eqcep1").system, [1.0, 1.0, 1.0], step=step)

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
        # least-squares step is zero and no backtrack trial can move.
        probe = perturbation_probe(get_dataset("xy").system, [0.0, 0.0], [1.0], restarts=0)
        assert not probe.solved
        assert calls["evaluate"] == 0
        assert len(calls["jacobian"]) == len(set(calls["jacobian"]))


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

    def test_delta_shape_validated(self):
        with pytest.raises(ValueError):
            perturbation_probe(get_dataset("xy").system, [1.0, 1.0], [0.1, 0.2])
