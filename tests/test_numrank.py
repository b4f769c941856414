import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from structrank import (
    RankTolerance,
    StructureError,
    StructurePattern,
    certify_acr,
    generic_rank_randomized,
    matrix_space_rank,
    numeric_rank,
    rank_maximizer_sweep,
    sample_system,
    structural_rank,
    system_from_terms,
)
from structrank import numrank
from structrank.datasets import get_dataset
from structrank.numrank import _member_jacobians
from structrank.polysys import member_plan, seeded_rng
from structrank.structure import DerivedVariableSpec, GeneralizedStructure

from oracles import reference_draw, reference_evaluation


class TestRankTolerance:
    def test_defaults(self):
        tol = RankTolerance()
        assert tol.relative_threshold == 1e-8
        assert tol.absolute_floor == 1e-12

    @pytest.mark.parametrize("rel,floor", [(0.0, 1e-12), (1.5, 1e-12), (1e-8, -1.0)])
    def test_invalid_values_rejected(self, rel, floor):
        with pytest.raises(ValueError):
            RankTolerance(rel, floor)


class TestNumericRank:
    def test_tiny_singular_value_below_threshold(self):
        assert numeric_rank([[1.0, 0.0], [0.0, 1e-12]]) == 1

    def test_singular_value_above_threshold(self):
        assert numeric_rank([[1.0, 0.0], [0.0, 1e-6]]) == 2

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 3))) == 0

    def test_quartic_jacobian(self):
        assert numeric_rank([[0, 0, 2], [0, 0, 4], [2, -1, 4]]) == 2

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            numeric_rank([[np.inf, 0.0], [0.0, 1.0]])

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            numeric_rank(np.zeros(4))


def well_conditioned_matrices(max_dim=5):
    # Integer-made matrices of controlled rank keep singular-value gaps wide
    # enough that the scaling invariance below is clean.
    return st.tuples(
        st.integers(min_value=1, max_value=max_dim),
        st.integers(min_value=1, max_value=max_dim),
        st.integers(min_value=0, max_value=2**31 - 1),
    )


class TestNumericRankInvariances:
    @given(well_conditioned_matrices())
    @settings(max_examples=60)
    def test_transpose_and_scaling(self, spec):
        m, n, seed = spec
        rng = np.random.default_rng(seed)
        r = rng.integers(0, min(m, n) + 1)
        a = (rng.integers(-3, 4, (m, r)) @ rng.integers(-3, 4, (r, n))).astype(float)
        sigma = np.linalg.svd(a, compute_uv=False)
        assume(sigma.size == 0 or sigma[0] == 0 or (sigma[sigma > 0] / sigma[0]).min() > 1e-4)
        base = numeric_rank(a)
        assert numeric_rank(a.T) == base
        for alpha in (1e-6, 1e-2, 1.0, 1e2, 1e6):
            assert numeric_rank(alpha * a) == base

    @given(well_conditioned_matrices())
    @settings(max_examples=60)
    def test_never_exceeds_structural_rank(self, spec):
        m, n, seed = spec
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < 0.5
        if not mask.any():
            mask[0, 0] = True
        pattern = StructurePattern(
            m, n, frozenset((int(e), int(v)) for e, v in zip(*mask.nonzero()))
        )
        a = np.where(mask, rng.uniform(-1, 1, (m, n)), 0.0)
        assert numeric_rank(a) <= structural_rank(pattern)


def example5_structure():
    return GeneralizedStructure(
        num_variables=4,
        dependencies=(
            frozenset({0, 1, 2, 3}),
            frozenset({0, 1, 2, 3}),
            frozenset({"z"}),
            frozenset({"z"}),
        ),
        derived=(DerivedVariableSpec("z", ((0, 1.0), (1, 2.0))),),
    )


class TestGenericRankRandomized:
    def test_aggregated_resource_system_ranks_three(self):
        report = generic_rank_randomized(example5_structure(), trials=200, seed=0)
        assert report.estimated_rank == 3
        assert report.rank_histogram == {3: 200}

    def test_robust_pattern_ranks_four(self):
        report = generic_rank_randomized(get_dataset("robust4").structure, trials=200, seed=0)
        assert report.estimated_rank == 4

    def test_single_entry_pattern(self):
        p = StructurePattern(1, 1, frozenset({(0, 0)}))
        report = generic_rank_randomized(p, trials=50, degree=1, seed=0)
        assert report.estimated_rank == 1

    def test_estimate_monotone_in_trials(self):
        p = get_dataset("trophic5").structure
        estimates = [
            generic_rank_randomized(p, trials=t, seed=3).estimated_rank
            for t in (1, 5, 20, 60)
        ]
        assert estimates == sorted(estimates)

    def test_histogram_counts_sum_to_trials(self):
        report = generic_rank_randomized(get_dataset("cep3").structure, trials=37, seed=1)
        assert sum(report.rank_histogram.values()) == 37

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            generic_rank_randomized(get_dataset("cep3").structure, trials=0)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_constant_members_rejected(self, degree):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            generic_rank_randomized(example5_structure(), trials=5, degree=degree)


class TestCertifyAcr:
    def test_cep_pattern_certifies(self):
        report = certify_acr(get_dataset("cep3").structure, trials=300, seed=0)
        assert report.target_rank == 2
        assert report.passed
        assert report.agreement_count >= 297

    def test_all_zero_pattern_agrees_trivially(self):
        p = StructurePattern(2, 3, frozenset())
        report = certify_acr(p, trials=100, seed=0)
        assert report.agreement_count == 100
        assert report.estimated_rank == 0

    @pytest.mark.parametrize("degree", [0, -1])
    def test_constant_members_rejected(self, degree):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            certify_acr(get_dataset("sole26").structure, trials=5, degree=degree)

    def test_generalized_structure_rejected(self):
        with pytest.raises(StructureError, match="use generic-rank"):
            certify_acr(example5_structure(), trials=10)

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, 7.0, np.nan, np.inf])
    def test_pass_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="pass_threshold"):
            certify_acr(get_dataset("cep3").structure, trials=10, pass_threshold=threshold)

    def test_report_is_reproducible(self):
        p = get_dataset("twogene").structure
        a = certify_acr(p, trials=50, seed=9)
        b = certify_acr(p, trials=50, seed=9)
        assert a.rank_histogram == b.rank_histogram


class TestMatrixSpaceRank:
    def test_diagonal_units(self):
        e11 = [[1.0, 0.0], [0.0, 0.0]]
        e22 = [[0.0, 0.0], [0.0, 1.0]]
        report = matrix_space_rank([e11, e22], trials=100, seed=0)
        assert report.estimated_rank == 2
        assert report.agreement_count == 100

    def test_single_rank_one_matrix(self):
        report = matrix_space_rank([[[1.0, 2.0], [2.0, 4.0]]], trials=50, seed=0)
        assert report.estimated_rank == 1

    def test_symmetric_two_by_two_basis(self):
        basis = [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 1.0]],
            [[0.0, 1.0], [1.0, 0.0]],
        ]
        report = matrix_space_rank(basis, trials=200, seed=0)
        assert report.estimated_rank == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_space_rank([np.eye(2), np.eye(3)], trials=5)

    def test_empty_basis(self):
        with pytest.raises(ValueError):
            matrix_space_rank([], trials=5)


class TestStackedTrials:
    """The chunked trial engine against the per-member, per-trial path."""

    @pytest.mark.parametrize("name", ["sole26", "example5"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_jacobians_bit_exact(self, name, degree, distribution):
        structure = get_dataset(name).structure
        draw, _ = _member_jacobians(structure, degree, distribution)
        stacked = draw([seeded_rng(5, i) for i in range(12)])
        for i, matrix in enumerate(stacked):
            rng = seeded_rng(5, i)
            equations = reference_draw(structure, degree, rng, distribution)
            x = rng.uniform(-1.0, 1.0, structure.num_variables)
            expected, _ = reference_evaluation(structure, equations, x)
            assert matrix.tobytes() == expected.tobytes()

    @staticmethod
    def _runs():
        """(entries per trial, 40-trial run) for each caller of the trial loop."""
        sole26, example5 = get_dataset("sole26").structure, get_dataset("example5").structure
        basis = [[[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]]
        return [
            (member_plan(sole26, 2).entries, lambda: certify_acr(sole26, trials=40, seed=3)),
            (member_plan(example5, 3).entries,
             lambda: generic_rank_randomized(example5, trials=40, degree=3, seed=3,
                                             distribution="normal")),
            (6, lambda: matrix_space_rank(basis, trials=40, seed=3)),
        ]

    @pytest.mark.parametrize("per_chunk", [1, 7])
    def test_chunk_size_does_not_change_reports(self, per_chunk, monkeypatch):
        for entries, run in self._runs():
            expected = run()
            monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * per_chunk)
            assert run() == expected
            monkeypatch.undo()

    @pytest.mark.parametrize("per_chunk", [None, 7])
    def test_one_svd_call_per_chunk(self, per_chunk, monkeypatch):
        svd, shapes = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for entries, run in self._runs():
            if per_chunk is None:
                chunk = numrank.CHUNK_BYTES // (8 * entries)
            else:
                chunk = per_chunk
                monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * per_chunk)
            shapes.clear()
            run()
            assert len(shapes) == math.ceil(40 / chunk)
            assert sum(shape[0] for shape in shapes) == 40


class TestRankMaximizerSweep:
    def test_zero_plus_scaled_maximizer(self):
        p = get_dataset("robust4").structure
        zero = system_from_terms(p, 2, [{} for _ in range(4)])
        fmax = sample_system(p, degree=2, seed=0)
        x = np.array([0.3, -0.6, 0.2, 0.9])
        rho = numeric_rank(fmax.jacobian(x).matrix)
        sweep = rank_maximizer_sweep(zero, fmax, x, [-1.0, -0.5, 0.0, 0.5, 1.0])
        for c, rank in sweep:
            assert rank == (0 if c == 0.0 else rho)

    def test_cancellation_at_unit_mixing(self):
        p = get_dataset("cep3").structure
        fmax = sample_system(p, degree=2, seed=1)
        f = system_from_terms(p, 2, [
            {k: -v for k, v in eq.term_dict().items()} for eq in fmax.equations
        ])
        x = np.array([0.4, 0.1, -0.7])
        sweep = dict(rank_maximizer_sweep(f, fmax, x, [0.0, 0.5, 1.0, 2.0]))
        assert sweep[1.0] == 0
        assert sweep[0.5] > 0

    def test_random_grid_mostly_maximal(self):
        p = get_dataset("robust4").structure
        f = sample_system(p, degree=2, seed=2)
        fmax = sample_system(p, degree=2, seed=3)
        x = np.random.default_rng(4).uniform(-1, 1, 4)
        grid = np.linspace(-1, 1, 101)
        ranks = [rank for _, rank in rank_maximizer_sweep(f, fmax, x, grid)]
        assert sum(r == 4 for r in ranks) >= 99

    def test_structure_mismatch_rejected(self):
        f = sample_system(get_dataset("cep3").structure, seed=0)
        g = sample_system(get_dataset("twogene").structure, seed=0)
        with pytest.raises(StructureError):
            rank_maximizer_sweep(f, g, np.zeros(3), [0.0])
