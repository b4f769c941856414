import json
import math
import re
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from structrank import (
    RankTolerance,
    StructureError,
    StructurePattern,
    SystemGraph,
    certify_acr,
    generic_rank_randomized,
    local_dimension,
    manifold_probe,
    matrix_space_rank,
    numeric_rank,
    perturbation_probe,
    rank_maximizer_sweep,
    sample_system,
    structural_rank,
    system_from_terms,
    trace_curve,
)
from structrank import numrank
from structrank.datasets import get_dataset
from structrank.numrank import _member_jacobians
from structrank.polysys import _cached_plan, member_plan, seeded_streams
from structrank.structure import DerivedVariableSpec, GeneralizedStructure

from oracles import reference_draw, reference_evaluation, reference_stream


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

    def test_matrix_without_rows(self):
        # Its SVD has no singular values, so nothing sits above the cutoff.
        assert numeric_rank(np.zeros((0, 3))) == 0

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

    def test_graph_is_refused(self):
        with pytest.raises(TypeError, match=r"^expected a structure, got SystemGraph$"):
            generic_rank_randomized(SystemGraph(2, {(0, 1)}), trials=5)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_constant_members_rejected(self, degree):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            generic_rank_randomized(example5_structure(), trials=5, degree=degree)


class TestNumpyIntegerSymbols:
    """A numpy integer variable index reads as the int it equals, in every member reader."""

    def test_generalized_rank_and_plan_cache(self):
        # The two structures are equal and hash alike, so they share one
        # member_plan entry: the numpy one is planned first, then the int one.
        _cached_plan.cache_clear()
        z = DerivedVariableSpec("z", ((0, 1.0), (1, 2.0)))
        for index in (np.int64(2), 2):
            gs = GeneralizedStructure(3, (frozenset({index}), frozenset({"z"})), (z,))
            assert generic_rank_randomized(gs, trials=20, seed=0).estimated_rank == 2

    def test_pattern_members(self):
        p = StructurePattern.from_rows([[np.int64(0), 1], [1]], 2)
        report = certify_acr(p, trials=20, seed=0)
        assert report.passed and report.target_rank == 2
        assert generic_rank_randomized(p, trials=20, seed=0).estimated_rank == 2
        system = sample_system(p, seed=3)
        assert [eq.symbols for eq in system.equations] == [(0, 1), (1,)]
        assert system.to_json_dict()["structure"]["equations"][0]["vars"] == [1, 2]


class TestTrialOverflow:
    def test_huge_derived_weight_is_refused_without_warning(self):
        # The weight is finite, but z^2 and the chain rule overflow.
        gs = GeneralizedStructure(
            2, (frozenset({0, 1}), frozenset({"z"})),
            (DerivedVariableSpec("z", ((0, 1e300), (1, 1.0))),),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^a trial's Jacobian is not finite$"):
                generic_rank_randomized(gs, trials=5)

    def test_huge_basis_names_the_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^a trial's matrix is not finite$"):
                matrix_space_rank([[[1.7e308]]] * 4, trials=50)


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


# Arrays whose cast to float64 would drop an imaginary part or parse text.
NOT_REAL = {
    "complex": (np.array([[1j, 0], [0, 1]]), "complex128"),
    "complex64": (np.eye(2, dtype=np.complex64), "complex64"),
    "complex list": ([[1j, 0], [0, 1]], "complex128"),
    "str": (np.array([["1", "0"], ["0", "1"]]), "<U1"),
    "bytes": (np.array([[b"1", b"0"], [b"0", b"1"]]), "|S1"),
}


EQCEP1 = get_dataset("eqcep1").system
# Each call that evaluates a system at a point it is given.
POINT_CALLS = {
    "jacobian": lambda x: EQCEP1.jacobian(x),
    "local_dimension": lambda x: local_dimension(EQCEP1, x),
    "trace_curve": lambda x: trace_curve(EQCEP1, x),
    "manifold_probe": lambda x: manifold_probe(EQCEP1, x),
    "perturbation_probe": lambda x: perturbation_probe(EQCEP1, x, [0.0] * 3),
}


class TestRealMatrices:
    # numeric_rank([[1j, 0], [0, 1]]) once returned 1 after a ComplexWarning, a
    # basis of two diagonal 1j matrices once had rank 0, and a matrix of digit
    # strings once had its strings parsed.
    @pytest.mark.parametrize("case", NOT_REAL)
    def test_numeric_rank_refuses_a_matrix_that_is_not_real(self, case):
        matrix, dtype = NOT_REAL[case]
        message = f"matrix must hold real numbers, got an array of dtype {dtype}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            numeric_rank(matrix)

    @pytest.mark.parametrize("case", NOT_REAL)
    def test_matrix_space_rank_refuses_a_basis_that_is_not_real(self, case, monkeypatch):
        matrix, dtype = NOT_REAL[case]
        monkeypatch.setattr(numrank, "seeded_streams", None)  # refused before any trial
        message = f"basis must hold real numbers, got an array of dtype {dtype}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            matrix_space_rank([np.eye(2), matrix], trials=5)

    # An object array's None once became NaN: "matrix has non-finite entries".
    @pytest.mark.parametrize("entry", [None, "1", 1j, True])
    def test_an_object_entry_that_is_not_real_is_named(self, entry):
        message = f"matrix entry (1, 0) must be a real number, got {entry!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            numeric_rank(np.array([[1.0, 0.0], [entry, 1.0]], dtype=object))

    def test_an_object_basis_entry_is_named_with_its_matrix(self, monkeypatch):
        monkeypatch.setattr(numrank, "seeded_streams", None)  # refused before any trial
        message = "basis entry (1, 0, 1) must be a real number, got None"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            matrix_space_rank([np.eye(2), [[1, None], [0, 1]]], trials=5)

    def test_fraction_and_large_int_entries_convert(self):
        matrix = [[Fraction(1, 3), 0], [0, 2**64]]
        assert numeric_rank(matrix, RankTolerance(1e-30)) == 2
        assert numeric_rank([[Fraction(1, 2), 1], [1, 2]]) == 1
        basis = [[[2**64, 0], [0, 0]], [[0, 0], [0, Fraction(3, 2) * 2**64]]]
        assert matrix_space_rank(basis, trials=5).estimated_rank == 2

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint64, np.float32])
    def test_bool_int_and_float_matrices_convert(self, dtype):
        diagonal = [np.diag([1, 0]).astype(dtype), np.diag([0, 1]).astype(dtype)]
        assert numeric_rank(np.eye(3, dtype=dtype)) == 3
        assert matrix_space_rank(diagonal, trials=5).estimated_rank == 2

    # Each call once evaluated eqcep1 at (1, 1, 1) from 1+2j after a ComplexWarning
    # and from "1" parsed as a number; None read as nan, which was refused
    # only as "point has non-finite components".
    @pytest.mark.parametrize("point, message", [
        (np.array([1 + 2j, 1, 1]), "point must hold real numbers, got an array of dtype complex128"),
        (["1", 1, 1], "point must hold real numbers, got an array of dtype <U21"),
        ([None, 1, 1], "point entry (0,) must be a real number, got None"),
    ], ids=["complex", "str", "None"])
    @pytest.mark.parametrize("call", POINT_CALLS)
    def test_a_point_that_is_not_real_is_refused(self, call, point, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            POINT_CALLS[call](point)

    # A delta of 0.1j was cast to 0 with a ComplexWarning and reported solved;
    # the real delta (0, 0.1, 0) leaves a residual floor of 0.044.
    @pytest.mark.parametrize("delta, message", [
        (np.array([0, 0.1j, 0]), "delta must hold real numbers, got an array of dtype complex128"),
        ([0, "0.1", 0], "delta must hold real numbers, got an array of dtype <U21"),
        ([0, None, 0], "delta entry (1,) must be a real number, got None"),
    ], ids=["complex", "str", "None"])
    def test_a_delta_that_is_not_real_is_refused(self, delta, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            perturbation_probe(EQCEP1, [1, 1, 1], delta)


DEFAULT_TOL = {"relative_threshold": 1e-08, "absolute_floor": 1e-12}


class TestReportJson:
    # Each report's JSON as the hand-written to_json_dict wrote it before the
    # reports shared one field writer; the command line sorts keys, so only
    # the keys and values are pinned, not their order.
    CASES = {
        "certify_acr": (lambda: certify_acr(get_dataset("cep3").structure, trials=50, seed=1), {
            "trials": 50, "estimated_rank": 2, "agreement_count": 50, "agreement_rate": 1.0,
            "histogram": {"2": 50}, "seed": 1, "tolerance": DEFAULT_TOL, "degree": 2,
            "distribution": "uniform", "point_domain": "uniform[-1,1]^N", "target_rank": 2,
            "pass_threshold": 0.99, "passed": True}),
        "generic_rank_randomized": (
            lambda: generic_rank_randomized(get_dataset("example5").structure, trials=40, seed=2), {
                "trials": 40, "estimated_rank": 3, "agreement_count": 40, "agreement_rate": 1.0,
                "histogram": {"3": 40}, "seed": 2, "tolerance": DEFAULT_TOL, "degree": 2,
                "distribution": "uniform", "point_domain": "uniform[-1,1]^N"}),
        "matrix_space_rank": (
            lambda: matrix_space_rank([[[1, 0], [0, 0]], [[0, 1], [1, 0]]], trials=30, seed=3), {
                "trials": 30, "estimated_rank": 2, "agreement_count": 30, "agreement_rate": 1.0,
                "histogram": {"2": 30}, "seed": 3, "tolerance": DEFAULT_TOL,
                "distribution": "uniform", "point_domain": "coefficients uniform[-1,1]"}),
        "normal": (lambda: generic_rank_randomized(
            get_dataset("jakstat").structure, trials=20, degree=3, seed=0, distribution="normal",
            tol=RankTolerance(0.2, 0.01)), {
                "trials": 20, "estimated_rank": 9, "agreement_count": 1, "agreement_rate": 0.05,
                "histogram": {"5": 6, "6": 7, "7": 5, "8": 1, "9": 1}, "seed": 0,
                "tolerance": {"relative_threshold": 0.2, "absolute_floor": 0.01}, "degree": 3,
                "distribution": "normal", "point_domain": "uniform[-1,1]^N"}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_certification_report(self, case):
        run, expected = self.CASES[case]
        report = run()
        assert report.to_json_dict() == expected
        assert report.tolerance.to_json_dict() == expected["tolerance"]


class TestStackedTrials:
    """The chunked trial engine against the per-member, per-trial path."""

    @pytest.mark.parametrize("name", ["sole26", "example5"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_jacobians_bit_exact(self, name, degree, distribution):
        structure = get_dataset(name).structure
        draw, _ = _member_jacobians(structure, degree, distribution)
        stacked = draw(seeded_streams(5, 0, 12), 12)
        for i, matrix in enumerate(stacked):
            rng = reference_stream(5, i)
            equations = reference_draw(structure, degree, rng, distribution)
            x = rng.uniform(-1.0, 1.0, structure.num_variables)
            expected, _ = reference_evaluation(structure, equations, x)
            assert matrix.tobytes() == expected.tobytes()

    @staticmethod
    def _runs(seed=3):
        """(entries per trial, 40-trial run) for each caller of the trial loop."""
        sole26, example5 = get_dataset("sole26").structure, get_dataset("example5").structure
        basis = [[[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]]
        return [
            (member_plan(sole26, 2).entries, lambda: certify_acr(sole26, trials=40, seed=seed)),
            (member_plan(example5, 3).entries,
             lambda: generic_rank_randomized(example5, trials=40, degree=3, seed=seed,
                                             distribution="normal")),
            (6, lambda: matrix_space_rank(basis, trials=40, seed=seed)),
        ]

    @pytest.mark.parametrize("per_chunk", [1, 7])
    def test_chunk_size_does_not_change_reports(self, per_chunk, monkeypatch):
        for entries, run in self._runs():
            expected = run()
            monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * per_chunk)
            assert run() == expected
            monkeypatch.undo()

    # A seed of more than four 32-bit words takes more hash calls before the spawn keys.
    @pytest.mark.parametrize("seed", [3, 2**130 + 2**40])
    @pytest.mark.parametrize("per_chunk", [None, 1, 7])
    def test_bulk_seeding_matches_per_trial_generators(self, per_chunk, seed, monkeypatch):
        # The per-trial path: a fresh generator for each trial's stream.
        def per_trial(seed, start, stop):
            return (reference_stream(seed, i) for i in range(start, stop))

        for entries, run in self._runs(seed):
            if per_chunk is not None:
                monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * per_chunk)
            bulk = run()
            monkeypatch.setattr(numrank, "seeded_streams", per_trial)
            assert run() == bulk
            monkeypatch.undo()

    def test_streams_seeded_once_per_run(self, monkeypatch):
        calls = []

        def counted(seed, start, stop):
            calls.append((start, stop))
            return seeded_streams(seed, start, stop)

        monkeypatch.setattr(numrank, "seeded_streams", counted)
        for entries, run in self._runs():
            monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries)
            calls.clear()
            assert run().trials == 40
            assert calls == [(0, 40)]

    def test_stacked_rank_decisions_match_one_at_a_time(self):
        tol = RankTolerance(relative_threshold=1e-3, absolute_floor=1e-6)
        at_cutoff = 1e-3 * 3.0  # a value on the cutoff is not above it
        sigma = np.array([[2.0, 2.5e-3, 1e-3], [1e-7, 5e-8, 0.0], [3.0, 3.1e-3, at_cutoff]])
        assert tol.rank_of(sigma).tolist() == [tol.rank_of(row) for row in sigma] == [2, 0, 2]
        assert tol.rank_of(np.zeros((2, 0))).tolist() == [0, 0]

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


_BASIS = [[[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
          [[0.5, -1.0, 3.0], [0.0, 7.0, -2.0]]]


def _spy_draws(monkeypatch, seen):
    """Pass each chunk the trial loop draws to ``seen``, in trial order.

    The trial loop decomposes what ``seen`` returns, or the chunk itself for None.
    """
    run_trials = numrank._run_trials

    def spy(draw, *args, **kwargs):
        def drawn(rngs, count):
            stack = draw(rngs, count)
            replaced = seen(stack)
            return stack if replaced is None else replaced
        return run_trials(drawn, *args, **kwargs)

    monkeypatch.setattr(numrank, "_run_trials", spy)


class _CountedGenerator:
    """A generator whose method calls are logged by name."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)
        return counted


class TestOneCallPerTrial:
    """Trials draw straight into the chunk, one generator call each (two for normal members)."""

    @staticmethod
    def _counted_streams(monkeypatch, calls):
        def counted(seed, start, stop):
            return (_CountedGenerator(rng, calls) for rng in seeded_streams(seed, start, stop))
        monkeypatch.setattr(numrank, "seeded_streams", counted)

    @pytest.mark.parametrize("run, per_trial", [
        (lambda: certify_acr(get_dataset("sole26").structure, trials=40, seed=3), ["random"]),
        (lambda: generic_rank_randomized(get_dataset("example5").structure, trials=40, degree=3,
                                         seed=3, distribution="normal"),
         ["standard_normal", "random"]),
        (lambda: matrix_space_rank(_BASIS, trials=40, seed=3), ["random"]),
    ], ids=["certify-uniform", "generic-rank-normal", "matrix-space"])
    def test_generator_calls_per_trial(self, run, per_trial, monkeypatch):
        expected = run()
        calls = []
        self._counted_streams(monkeypatch, calls)
        assert run() == expected
        assert calls == per_trial * 40

    def test_unknown_distribution_refused_before_any_trial(self, monkeypatch):
        calls, chunks = [], []
        self._counted_streams(monkeypatch, calls)
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kwargs: chunks.append(a))
        with pytest.raises(ValueError, match="^distribution must be 'uniform' or 'normal', "
                                             "got 'cauchy'$"):
            generic_rank_randomized(get_dataset("cep3").structure, trials=5,
                                    distribution="cauchy")
        assert calls == [] and chunks == []

    @pytest.mark.parametrize("per_chunk", [1, 7, None])
    def test_matrix_space_trials_bit_exact(self, per_chunk, monkeypatch):
        flat = np.array(_BASIS).reshape(len(_BASIS), -1)
        chunks = []
        # Chunks are drawn one at a time in trial order, by whichever thread then
        # decomposes them; three CPUs draw on helper threads too.
        _spy_draws(monkeypatch, lambda stack: chunks.append(stack.copy()))
        if per_chunk is not None:
            monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * flat.shape[1] * per_chunk)
        for cpus in (1, 3):
            monkeypatch.setattr(numrank.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            chunks.clear()
            matrix_space_rank(_BASIS, trials=40, seed=9)
            assert len(chunks) == (1 if per_chunk is None else math.ceil(40 / per_chunk))
            # The per-trial reference: a fresh generator for each trial's stream.
            for i, matrix in enumerate(np.concatenate(chunks)):
                rng = reference_stream(9, i)
                expected = np.dot(rng.uniform(-1.0, 1.0, len(_BASIS))[np.newaxis, :], flat)
                assert matrix.tobytes() == expected.reshape(2, 3).tobytes()


class TestConcurrentChunks:
    """One thread per CPU draws and decomposes chunks; reports stay as with one CPU."""

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(numrank.os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def _started(monkeypatch):
        started, start = [], threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        return started

    @pytest.mark.parametrize("per_chunk", [1, 7, None])
    def test_reports_do_not_depend_on_cpus(self, per_chunk, monkeypatch):
        for entries, run in TestStackedTrials._runs():
            if per_chunk is not None:
                monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * per_chunk)
            self._cpus(monkeypatch, 1)
            expected = run()
            for n in (2, 3):
                self._cpus(monkeypatch, n)
                report = run()
                assert report == expected
                # Ranks are tallied in chunk order, so even the dict order agrees.
                assert list(report.rank_histogram.items()) == list(expected.rank_histogram.items())
                assert json.dumps(report.to_json_dict()) == json.dumps(expected.to_json_dict())
            monkeypatch.undo()

    def test_more_threads_than_cores_with_short_switches(self, monkeypatch):
        # Each thread writes only its own slot of the results; a lost or
        # misplaced one would change the histogram or its order.
        for entries, run in TestStackedTrials._runs():
            monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * 3)
            self._cpus(monkeypatch, 1)
            expected = run()
            self._cpus(monkeypatch, 8)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                report = run()
            finally:
                sys.setswitchinterval(interval)
            assert list(report.rank_histogram.items()) == list(expected.rank_histogram.items())
            assert report == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_thread_outlives_a_call(self, n, monkeypatch):
        self._cpus(monkeypatch, n)
        started = self._started(monkeypatch)
        # Rank decisions stay on the caller's thread, whichever thread decomposed.
        deciders, rank_of = set(), RankTolerance.rank_of

        def spy(tol, sigma):
            deciders.add(threading.current_thread())
            return rank_of(tol, sigma)

        monkeypatch.setattr(RankTolerance, "rank_of", spy)
        for entries, run in TestStackedTrials._runs():
            monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * 7)
            before = threading.active_count()
            run()
            assert threading.active_count() == before
        # 40 trials in chunks of 7 are 6 chunks: each call starts n - 1 helpers.
        assert len(started) == 3 * (n - 1)
        assert not any(thread.is_alive() for thread in started)
        assert deciders == {threading.current_thread()}

    def test_one_cpu_takes_one_svd_call_per_chunk_in_the_caller(self, monkeypatch):
        self._cpus(monkeypatch, 1)
        started = self._started(monkeypatch)
        svd, threads = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            threads.append(threading.current_thread())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for entries, run in TestStackedTrials._runs():
            monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * 7)
            threads.clear()
            run()
            assert threads == [threading.current_thread()] * 6
        assert started == []

    def test_a_one_chunk_run_starts_no_thread(self, monkeypatch):
        self._cpus(monkeypatch, 3)
        started = self._started(monkeypatch)
        for entries, run in TestStackedTrials._runs():
            monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * 40)
            run()
        assert started == []

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        started = self._started(monkeypatch)
        monkeypatch.delattr(numrank.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * 6 * 7)
        # Six chunks: four CPUs start three helpers, and an unknown count is one CPU.
        for cpu_count, expected in [(4, 3), (None, 0)]:
            monkeypatch.setattr(numrank.os, "cpu_count", lambda: cpu_count)
            started.clear()
            matrix_space_rank(_BASIS, trials=40, seed=3)
            assert len(started) == expected

    def test_helper_error_surfaces_unchanged(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        pattern = get_dataset("sole26").structure
        monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * member_plan(pattern, 2).entries * 7)
        svd, error = np.linalg.svd, np.linalg.LinAlgError("SVD did not converge")

        def failing(a, *args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise error
            time.sleep(0.005)  # the helper takes a chunk while the caller decomposes
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError) as info:
            certify_acr(pattern, trials=40, seed=3)
        assert info.value is error
        assert threading.active_count() == before

    def test_first_error_in_chunk_order_wins(self, monkeypatch):
        self._cpus(monkeypatch, 3)
        monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * 6 * 7)
        drawn, errors, later = [], {}, threading.Event()
        _spy_draws(monkeypatch, drawn.append)

        def failing(a, *args, **kwargs):
            k = next(k for k, stack in enumerate(drawn) if stack is a)
            error = errors.setdefault(k, np.linalg.LinAlgError(f"chunk {k}"))
            if k:
                later.set()
            else:
                later.wait(timeout=10)  # chunk 0 fails after a later chunk has
            raise error

        monkeypatch.setattr(np.linalg, "svd", failing)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError) as info:
            matrix_space_rank(_BASIS, trials=40, seed=3)
        assert later.is_set() and len(errors) > 1
        assert info.value is errors[0]
        assert threading.active_count() == before

    def test_an_earlier_svd_error_wins_over_a_later_non_finite_draw(self, monkeypatch):
        # Chunk 1 drawn non-finite once raised before chunk 0 was decomposed.
        self._cpus(monkeypatch, 2)
        monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * 6 * 7)
        drawn, later = [], threading.Event()
        error = np.linalg.LinAlgError("SVD did not converge")

        def poisoned(stack):
            drawn.append(stack)
            if len(drawn) == 2:
                later.set()
                return stack * np.inf

        _spy_draws(monkeypatch, poisoned)
        svd = np.linalg.svd

        def failing(a, *args, **kwargs):
            if a is drawn[0]:
                later.wait(timeout=10)
                raise error
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        started = self._started(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError) as info:
            matrix_space_rank(_BASIS, trials=40, seed=3)
        assert info.value is error and later.is_set()
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_at_most_one_chunk_per_cpu_is_live(self, n, monkeypatch):
        self._cpus(monkeypatch, n)
        lock, live, peak = threading.Lock(), [0], [0]

        def drawn(stack):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])

        _spy_draws(monkeypatch, drawn)
        svd = np.linalg.svd

        def decomposed(a, *args, **kwargs):
            time.sleep(0.005)  # a slow SVD lets every thread draw and hold its chunk
            try:
                return svd(a, *args, **kwargs)
            finally:
                with lock:
                    live[0] -= 1

        monkeypatch.setattr(np.linalg, "svd", decomposed)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for entries, run in TestStackedTrials._runs():
                monkeypatch.setattr(numrank, "CHUNK_BYTES", 8 * entries * 3)
                run()
                assert live == [0]
        finally:
            sys.setswitchinterval(interval)
        assert 1 < peak[0] <= n


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
