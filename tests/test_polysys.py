import json
import re
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from structrank import (
    ParseError,
    StructuredPolySystem,
    StructureError,
    certify_acr,
    combine,
    generic_rank_randomized,
    numeric_rank,
    sample_system,
    system_from_terms,
)
from structrank.datasets import DATASETS, get_dataset
from structrank import formats, polysys
from structrank.polysys import (
    PolyEquation, _monomial_table, member_plan, seeded_rng, seeded_streams, stacked_jacobians,
)
from structrank.structure import DerivedVariableSpec, GeneralizedStructure, StructurePattern

from oracles import (
    random_member, reference_draw, reference_evaluation, reference_exponents, reference_stream,
    reference_table,
)


def example5_structure(a=1.0, b=2.0):
    return GeneralizedStructure(
        num_variables=4,
        dependencies=(
            frozenset({0, 1, 2, 3}),
            frozenset({0, 1, 2, 3}),
            frozenset({"z"}),
            frozenset({"z"}),
        ),
        derived=(DerivedVariableSpec("z", ((0, a), (1, b))),),
    )


class TestMonomialTable:
    @pytest.mark.parametrize("s,d,expected", [(1, 2, 3), (2, 2, 6), (3, 2, 10), (1, 4, 5), (0, 3, 1)])
    def test_counts(self, s, d, expected):
        assert _monomial_table(s, d).size == expected

    def test_graded_order_makes_lower_degree_a_prefix(self):
        small = _monomial_table(3, 2).exponents
        large = _monomial_table(3, 4).exponents
        assert (large[: len(small)] == small).all()

    def test_degrees_bounded(self):
        t = _monomial_table(4, 3)
        assert t.exponents.sum(axis=1).max() == 3

    @pytest.mark.parametrize("s", range(7))
    @pytest.mark.parametrize("d", range(6))
    def test_exponents_in_graded_order(self, s, d):
        expected = reference_exponents(s, d)
        exponents = _monomial_table(s, d).exponents
        assert exponents.dtype == expected.dtype and exponents.shape == expected.shape
        assert (exponents == expected).all()

    def test_one_row_of_a_thousand_symbols(self):
        # Once a generator that recursed once per symbol.
        t = _monomial_table(1000, 1)
        assert t.size == 1001 and (t.exponents[1:] == np.eye(1000, dtype=np.int64)).all()
        assert t.rows.tolist() == [[s + 1] for s in range(1000)]

    @pytest.mark.parametrize("s", range(7))
    @pytest.mark.parametrize("d", range(6))
    def test_rows_and_factors_match_the_reference(self, s, d):
        table = _monomial_table(s, d)
        rows, multipliers, values, partials = reference_table(s, d)
        assert table.rows.tolist() == rows and table.multipliers.tolist() == multipliers

        def positive(factors):
            symbols, exponents = (a.reshape(prod(a.shape[:-1]), a.shape[-1]) for a in factors)
            return [[(k, e) for k, e in zip(ks, es) if e > 0]
                    for ks, es in zip(symbols.tolist(), exponents.tolist())]

        assert positive(table.value_factors) == values
        assert positive(table.partial_factors) == [p for row in partials for p in row]

    def test_a_table_keeps_only_what_member_plans_read(self):
        # A table kept its (K, S) exponents and (S, R, S) decremented ones,
        # 2.6 MB for this row and 331 MiB over the rows of widths 1..400.
        member_plan.cache_clear()
        _monomial_table.cache_clear()
        structure = StructurePattern.from_rows([range(400)])
        sample_system(structure, degree=1, seed=0).jacobian(np.ones(400))
        certify_acr(structure, trials=3, degree=1)
        table = _monomial_table(400, 1)
        assert member_plan(structure, 1).buckets[0].table is table
        assert "exponents" not in vars(table)
        arrays = [a for v in vars(table).values() for a in (v if isinstance(v, tuple) else (v,))
                  if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) < 64 * 1024

    def test_the_index_outlives_the_dense_exponents(self):
        # The (K, S) exponents the index is read from were kept beside it: 7.6 MiB here.
        _monomial_table.cache_clear()
        system_from_terms(StructurePattern.from_rows([range(1000)]), 1, [{(0,) * 1000: 1.0}])
        table = _monomial_table(1000, 1)
        assert "index" in vars(table) and "exponents" not in vars(table)

    def test_index_is_built_once_and_kept(self):
        table = _monomial_table(10, 3)
        assert table.index is _monomial_table(10, 3).index
        assert list(table.index.items()) == [
            (exps, i) for i, exps in enumerate(map(tuple, table.exponents.tolist()))]


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        p = get_dataset("robust4").structure
        a = sample_system(p, degree=2, seed=7)
        b = sample_system(p, degree=2, seed=7)
        for ea, eb in zip(a.equations, b.equations):
            assert (ea.coefficients == eb.coefficients).all()

    def test_seeds_differ(self):
        p = get_dataset("robust4").structure
        a = sample_system(p, degree=2, seed=1)
        b = sample_system(p, degree=2, seed=2)
        assert any((ea.coefficients != eb.coefficients).any()
                   for ea, eb in zip(a.equations, b.equations))

    def test_supports_respect_structure(self):
        sys = sample_system(get_dataset("cep3").structure, degree=2, seed=3)
        # First two equations are univariate in x3.
        assert sys.equations[0].symbols == (2,)
        assert sys.equations[1].symbols == (2,)
        assert sys.equations[2].symbols == (0, 1, 2)

    def test_derived_symbols_sampled_as_formal_variables(self):
        sys = sample_system(example5_structure(), degree=2, seed=0)
        assert sys.equations[2].symbols == ("z",)
        assert sys.equations[2].table.size == 3  # 1, z, z^2

    def test_degree_zero_is_refused(self):
        p = get_dataset("cep3").structure
        with pytest.raises(ValueError, match=r"^degree must be >= 1, got 0$"):
            sample_system(p, degree=0)
        assert (random_member(p, 0).jacobian(np.zeros(3)).matrix == 0).all()

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_the_oracle_member_is_the_sampled_member(self, degree, distribution):
        # The kernel tests take degree-0 members from the oracle, so it must draw as sampling does.
        structure = get_dataset("example5").structure
        sampled = sample_system(structure, degree, seed=5, distribution=distribution)
        assert random_member(structure, degree, 5, distribution).to_json_dict() == \
            sampled.to_json_dict()

    @pytest.mark.parametrize("build", [
        lambda p: system_from_terms(p, -1, [{}, {}]),
        lambda p: member_plan(p, -1),
        lambda p: polysys.check_plan_size(p, -2),
    ])
    def test_negative_degree_is_refused(self, build):
        # system_from_terms once returned a degree -1 system whose Jacobian
        # was all zeros, and member_plan built a plan for it.
        p = StructurePattern.from_rows([[0, 1], [1]])
        with pytest.raises(ValueError, match=r"^degree must be >= 0, got -"):
            build(p)

    @pytest.mark.parametrize("name", ["cep3", "example5", "sole26"])
    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_flat_draw_equals_per_equation_draws(self, name, distribution):
        structure = get_dataset(name).structure
        system = sample_system(structure, degree=3, seed=11, distribution=distribution)
        expected = reference_draw(structure, 3, seeded_rng(11), distribution)
        for eq, ref in zip(system.equations, expected, strict=True):
            assert eq.symbols == ref.symbols
            assert eq.coefficients.tobytes() == ref.coefficients.tobytes()

    def test_members_share_one_plan(self):
        structure = get_dataset("jakstat").structure
        assert member_plan(structure, 2) is member_plan(structure, 2)
        a = sample_system(structure, degree=2, seed=1)
        b = sample_system(structure, degree=2, seed=2, distribution="normal")
        assert a._plan is b._plan is member_plan(structure, 2)
        assert combine(1.0, a, 1.0, b)._plan is a._plan

    def test_normal_distribution_supported(self):
        sys = sample_system(get_dataset("cep3").structure, degree=2, seed=0,
                            distribution="normal")
        assert sys.distribution == "normal"
        with pytest.raises(ValueError):
            sample_system(get_dataset("cep3").structure, distribution="cauchy")


# Every library entry that takes a degree, on the rows (0, 1) and (1,).
DEGREE_CALLS = {
    "sample_system": lambda p, d: sample_system(p, d),
    "system_from_terms": lambda p, d: system_from_terms(p, d, [{}, {}]),
    "certify_acr": lambda p, d: certify_acr(p, trials=3, degree=d),
    "generic_rank_randomized": lambda p, d: generic_rank_randomized(p, trials=3, degree=d),
}


class TestDegreeType:
    """A degree is an int under one rule, whatever the plan and table caches hold."""

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    @pytest.mark.parametrize("degree", [2.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("call", sorted(DEGREE_CALLS))
    def test_bool_or_float_degree_is_named(self, call, degree, cache):
        # Cached by value, 2.0 and True once hit the plans of 2 and 1: on a
        # cold cache 2.0 raised an unnamed TypeError from math.comb, on a
        # warm one it passed and was recorded as 2.0.
        p = StructurePattern.from_rows([[0, 1], [1]])
        member_plan.cache_clear()
        _monomial_table.cache_clear()
        if cache == "warm":
            sample_system(p, 1)
            sample_system(p, 2)
        with pytest.raises(TypeError, match=rf"^degree must be an integer, got {degree!r}$"):
            DEGREE_CALLS[call](p, degree)

    @pytest.mark.parametrize("call", sorted(DEGREE_CALLS))
    def test_numpy_integer_degree_is_recorded_as_an_int(self, call):
        result = DEGREE_CALLS[call](StructurePattern.from_rows([[0, 1], [1]]), np.int64(2))
        assert type(result.degree) is int and result.degree == 2
        if isinstance(result, StructuredPolySystem):
            assert all(type(eq.degree) is int for eq in result.equations)
            data = json.loads(json.dumps(result.to_json_dict()))
            assert StructuredPolySystem.from_json_dict(data).degree == 2

    @pytest.mark.parametrize("build", [
        lambda: PolyEquation((0,), 2.0, [1.0, 0.0, 0.0]),
        lambda: StructuredPolySystem(StructurePattern.from_rows([[0]]), True,
                                     (PolyEquation((0,), 1, [0.0, 1.0]),)),
    ], ids=["equation", "system"])
    def test_constructors_name_a_bad_degree(self, build):
        with pytest.raises(TypeError, match=r"^degree must be an integer, got (2\.0|True)$"):
            build()


def _draws(rng):
    return rng.uniform(-1.0, 1.0, 5).tobytes() + rng.standard_normal(5).tobytes()


class TestSeededStreams:
    """Trial streams seeded in bulk against SeedSequence(seed, spawn_key=(i,)) -> PCG64."""

    def test_first_doubles_pinned(self):
        # A numpy change to SeedSequence or PCG64 fails here, not in the goldens.
        rng = reference_stream(0, 0)
        assert rng.uniform(-1.0, 1.0, 2).tolist() == [0.8858751057657588, -0.3673256952290038]
        assert rng.standard_normal(2).tolist() == [0.735955670177038, 0.005877040405094311]
        assert seeded_rng(0).uniform(-1.0, 1.0, 2).tolist() == [
            0.2739233746429086, -0.4604265724722594]
        assert _draws(next(seeded_streams(0, 0, 1))) == _draws(reference_stream(0, 0))

    @settings(max_examples=100, deadline=None)
    @given(
        # Seeds of more than four 32-bit words, from 2**128 on, take more hash calls.
        seed=st.sampled_from([0, 7, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**128 + 1,
                              2**200]) | st.integers(0, 2**200),
        # Spawn keys of 2**32 and above take two 32-bit words.
        base=st.sampled_from([0, 2**32 - 6, 2**40]),
        start=st.integers(0, 8),
        lengths=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        block=st.sampled_from([1, 3, polysys._SEED_BLOCK]),
    )
    def test_bulk_streams_are_byte_identical(self, seed, base, start, lengths, block):
        # Two consecutive ranges, each seeded in blocks of ``block`` streams.
        first = base + start
        middle = first + lengths[0]
        stop = middle + lengths[1]
        with mock.patch.object(polysys, "_SEED_BLOCK", block):
            drawn = [_draws(rng) for rng in seeded_streams(seed, first, middle)]
            drawn += [_draws(rng) for rng in seeded_streams(seed, middle, stop)]
        assert drawn == [_draws(reference_stream(seed, i)) for i in range(first, stop)]


class TestDrawMembers:
    """One generator call per row (two for normal coefficients) against the documented draws."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70) | st.integers(2**128, 2**200),
        start=st.integers(0, 2**33),
        count=st.integers(0, 5),
        num_coefficients=st.integers(0, 40),
        num_points=st.integers(0, 12),
        distribution=st.sampled_from(["uniform", "normal"]),
    )
    def test_rows_equal_per_call_draws(self, seed, start, count, num_coefficients, num_points,
                                       distribution):
        draws = polysys.draw_members(seeded_streams(seed, start, start + count), count,
                                     num_coefficients, distribution, num_points)
        assert draws.shape == (count, num_coefficients + num_points)
        for i, row in enumerate(draws):
            rng = reference_stream(seed, start + i)
            if distribution == "uniform":
                coefficients = rng.uniform(-1.0, 1.0, num_coefficients)
            else:
                coefficients = rng.standard_normal(num_coefficients)
            points = rng.uniform(-1.0, 1.0, num_points)
            assert row.tobytes() == coefficients.tobytes() + points.tobytes()

    def test_unknown_distribution_draws_nothing(self):
        rng = seeded_rng(0)
        with pytest.raises(ValueError, match="^distribution must be 'uniform' or 'normal', "
                                             "got 'cauchy'$"):
            polysys.draw_members([rng], 1, 3, "cauchy")
        assert rng.uniform(-1.0, 1.0, 2).tolist() == seeded_rng(0).uniform(-1.0, 1.0, 2).tolist()


class TestEvaluate:
    def test_bundled_quartic_at_unit_point(self):
        sys = get_dataset("eqcep1").system
        assert_allclose(sys.evaluate([1.0, 1.0, 1.0]), [1.0, 2.0, 1.0])

    def test_zero_system(self):
        p = get_dataset("cep3").structure
        zero = system_from_terms(p, 2, [{}, {}, {}])
        assert_allclose(zero.evaluate([0.3, -2.0, 5.0]), np.zeros(3))

    def test_single_monomial(self):
        xy = get_dataset("xy").system
        assert xy.evaluate([2.0, 3.0])[0] == 6.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="R\\^2"):
            get_dataset("xy").system.evaluate([1.0, 2.0, 3.0])

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            get_dataset("xy").system.evaluate([np.nan, 1.0])


class TestJacobian:
    def test_bundled_quartic_jacobian(self):
        sys = get_dataset("eqcep1").system
        jac = sys.jacobian([1.0, 1.0, 1.0])
        assert_allclose(jac.matrix, [[0, 0, 2], [0, 0, 4], [2, -1, 4]])
        assert numeric_rank(jac.matrix) == 2
        assert_allclose(jac.residual_target, [1.0, 2.0, 1.0])

    def test_product_system_rank_drop_at_origin(self):
        xy = get_dataset("xy").system
        assert_allclose(xy.jacobian([0.0, 0.0]).matrix, [[0.0, 0.0]])
        assert numeric_rank(xy.jacobian([0.0, 0.0]).matrix) == 0
        assert_allclose(xy.jacobian([1.0, 0.0]).matrix, [[0.0, 1.0]])
        assert numeric_rank(xy.jacobian([1.0, 0.0]).matrix) == 1

    def test_derived_rows_exactly_proportional(self):
        sys = sample_system(example5_structure(a=1.0, b=2.0), degree=2, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-1, 1, 4)
            jac = sys.jacobian(x).matrix
            # Rows 3 and 4 are (a*g, b*g, 0, 0): the trailing block vanishes
            # and each row is an exact multiple of (a, b).
            assert (jac[2:, 2:] == 0.0).all()
            assert jac[2, 1] == 2.0 * jac[2, 0]
            assert jac[3, 1] == 2.0 * jac[3, 0]
            det = jac[2, 0] * jac[3, 1] - jac[2, 1] * jac[3, 0]
            assert det == 0.0

    def test_sparsity_outside_pattern_is_exact_zero(self):
        p = get_dataset("jakstat").structure
        sys = sample_system(p, degree=2, seed=11)
        jac = sys.jacobian(np.linspace(-1, 1, 12)).matrix
        mask = np.zeros(p.shape, dtype=bool)
        for e, v in p.allowed:
            mask[e, v] = True
        assert (jac[~mask] == 0.0).all()

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        p = get_dataset("robust4").structure
        for trial in range(10):
            sys = sample_system(p, degree=2, seed=trial)
            x = rng.uniform(-1, 1, 4)
            jac = sys.jacobian(x).matrix
            fd = np.zeros_like(jac)
            for i in range(4):
                h = 1e-5 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[:, i] = (sys.evaluate(xp) - sys.evaluate(xm)) / (2 * h)
            assert np.abs(fd - jac).max() <= 1e-5 * (1.0 + np.abs(jac).max())


def random_derived_structure(seed=7):
    """Six equations over five variables and three derived variables, with empty rows."""
    rng = np.random.default_rng(seed)
    specs = tuple(
        DerivedVariableSpec(name, tuple(
            (int(i), float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))))
            for i in rng.choice(5, size, replace=False)
        ))
        for name, size in (("u", 1), ("v", 2), ("w", 3))
    )
    deps = [frozenset()] + [
        frozenset(rng.choice(5, int(rng.integers(0, 4)), replace=False).tolist())
        | {name for name in ("u", "v", "w") if rng.random() < 0.5}
        for _ in range(5)
    ]
    return GeneralizedStructure(5, tuple(deps), specs)


KERNEL_CASES = ["sole26", "eqcep1", "robotarm", "example5", "random-derived"]


def kernel_structure(name):
    return random_derived_structure() if name == "random-derived" else get_dataset(name).structure


class TestKernelAgainstReference:
    """The bucketed kernel reproduces the per-equation arithmetic bit for bit."""

    @pytest.mark.parametrize("name", KERNEL_CASES)
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_jacobian_and_stacked_bit_exact(self, name, degree, distribution):
        structure = kernel_structure(name)
        n = structure.num_variables
        rng = np.random.default_rng(degree)
        points = rng.uniform(-1.0, 1.0, (6, n))
        points[0] = 0.0
        points[1, ::2] = -0.0
        points[2] *= 3.0
        systems = [
            random_member(structure, degree, seed, distribution)
            for seed in range(len(points))
        ]
        expected = [reference_evaluation(structure, s.equations, x)
                    for s, x in zip(systems, points)]
        for system, x, (J, values) in zip(systems, points, expected):
            jac = system.jacobian(x)
            assert jac.matrix.tobytes() == J.tobytes()
            assert jac.residual_target.tobytes() == values.tobytes()
        coefficients = np.array([
            np.concatenate([eq.coefficients for eq in s.equations]) for s in systems
        ])
        stacked = stacked_jacobians(member_plan(structure, degree), coefficients, points)
        assert stacked.tobytes() == np.array([J for J, _ in expected]).tobytes()

    def test_negative_zero_terms_read_positive_zero(self):
        # F = z^2 with z = -x1 + x2: at z = 0 the chain-rule term on x1 is
        # -1 * 0.0 = -0.0, which is added onto a zero entry.
        structure = GeneralizedStructure(
            2, (frozenset({"z"}),), (DerivedVariableSpec("z", ((0, -1.0), (1, 1.0))),)
        )
        sys = system_from_terms(structure, 2, [{(2,): 1.0}])
        matrix = sys.jacobian([0.5, 0.5]).matrix
        assert (matrix == 0.0).all()
        assert not np.signbit(matrix).any()


# Signed zeros, magnitudes whose monomials overflow to inf at degree 2 and
# above (and whose sums may then read nan), and values whose products round;
# mixed magnitudes let one monomial's rounding show in its sum.
COORDINATES = (st.sampled_from([0.0, -0.0, 1e160, -1e160, 1e300])
               | st.floats(-4.0, 4.0) | st.floats(-1e6, 1e6))


@st.composite
def kernel_members(draw):
    """A sampled member at degree 0-4 of a generated structure, and 1-3 points.

    Rows hold 0 to 8 symbols, so some are empty and widths mix; up to three
    derived variables, several to a row, make chain-rule layers.
    """
    n = draw(st.integers(1, 6))
    names = [f"d{i}" for i in range(draw(st.integers(0, 3)))]
    specs = tuple(
        DerivedVariableSpec(name, tuple(
            (i, draw(st.sampled_from([-2.0, -1.0, 0.5, 3.0])))
            for i in sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        ))
        for name in names
    )
    rows = draw(st.lists(st.sets(st.sampled_from([*range(n), *names]), max_size=8),
                         min_size=1, max_size=4))
    structure = (GeneralizedStructure(n, tuple(rows), specs) if names
                 else StructurePattern.from_rows(rows, n))
    system = random_member(structure, draw(st.integers(0, 4)), draw(st.integers(0, 2**32)),
                           draw(st.sampled_from(["uniform", "normal"])))
    points = draw(st.lists(st.lists(COORDINATES, min_size=n, max_size=n), min_size=1, max_size=3))
    return system, np.array(points)


class TestKernelProperty:
    @settings(max_examples=60, deadline=None)
    @given(kernel_members())
    def test_one_member_path_is_bit_exact(self, member):
        system, points = member
        coefficients = np.concatenate([eq.coefficients for eq in system.equations])
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = stacked_jacobians(system._plan, np.tile(coefficients, (len(points), 1)),
                                        points)
            for x, row in zip(points, stacked, strict=True):
                J, values = reference_evaluation(system.structure, system.equations, x)
                jac = system.jacobian(x)
                assert jac.matrix.tobytes() == J.tobytes()
                assert jac.residual_target.tobytes() == values.tobytes()
                assert row.tobytes() == J.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(kernel_members(), st.integers(0, 2**32))
    def test_stacked_trials_are_bit_exact(self, member, seed):
        # One member per point, as certification draws them: the trials'
        # table of powers 1..degree-1 must give the reference's bits.
        system, points = member
        members = [system] + [
            random_member(system.structure, system.degree, seed + k, system.distribution)
            for k in range(1, len(points))]
        coefficients = np.array([np.concatenate([eq.coefficients for eq in m.equations])
                                 for m in members])
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = stacked_jacobians(system._plan, coefficients, points)
            for m, x, row in zip(members, points, stacked, strict=True):
                J, _ = reference_evaluation(m.structure, m.equations, x)
                assert row.tobytes() == J.tobytes()


class TestPlanSize:
    @pytest.mark.parametrize("name", KERNEL_CASES)
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_counts_the_index_and_the_largest_gather(self, name, degree):
        structure = kernel_structure(name)
        plan = member_plan(structure, degree)
        # A monomial has at most degree positive exponents, a partial one
        # fewer; a column holds one factor per positive exponent.
        widest = max(map(len, structure.rows()))
        assert plan.factors.shape == (min(degree, widest), plan.factors.shape[1])
        partials = sum(len(b.equations) * b.table.rows.size for b in plan.buckets)
        assert plan.trial_factors.shape == (max(min(degree - 1, widest), 0), partials)
        # The index, the trials' index, a stacked trial's gather through it,
        # and the dense exponents each monomial table's build makes, twice over.
        gather = plan.trial_factors.size
        tables = sum(2 * (b.table.size + b.table.rows.size) * b.table.num_symbols
                     for b in plan.buckets)
        assert (polysys.plan_entries(structure, degree)
                == plan.factors.size + plan.trial_factors.size + gather + tables)

    def test_dense_plan_is_refused_before_anything_is_built(self, monkeypatch):
        # At degree 3 a dense 40 x 40 pattern would take 119 MB: an index of
        # 3 rows, a trials' index of 2, one trial's gather through it, and
        # the 40-symbol monomial table twice over.
        def refuse(num_symbols, degree):
            raise AssertionError("a monomial table was built")

        monkeypatch.setattr(polysys, "_monomial_table", refuse)
        dense = StructurePattern.from_rows([range(40)] * 40)
        message = (r"^40 equations at degree 3 make a member plan of 14866600 monomial-factor "
                   r"entries, more than the bound of 10000000 \(polysys.MAX_PLAN_ENTRIES\)$")
        with pytest.raises(ValueError, match=message):
            member_plan(dense, 3)
        with pytest.raises(ValueError, match=message):
            sample_system(dense, degree=3)

    @pytest.mark.parametrize("width, degree, entries", [
        (1000, 2, 3010009002), (150, 2, 10351352), (135, 3, 465362148), (57, 3, 15804507),
    ])
    def test_one_wide_row_is_refused_before_its_table_is_built(self, monkeypatch, width,
                                                                degree, entries):
        # One row of 1,000 symbols at degree 2 has a small index, 3 x 502,501
        # columns, but its monomial table would hold 4 GB of exponents and
        # 8 GB of decremented ones.
        def refuse(num_symbols, degree):
            raise AssertionError("a monomial table was built")

        monkeypatch.setattr(polysys, "_monomial_table", refuse)
        wide = StructurePattern.from_rows([range(width)])
        with pytest.raises(ParseError, match=(
                rf"^1 equations at degree {degree} make a member plan of {entries} "
                r"monomial-factor entries, more than the bound of 10000000")):
            member_plan(wide, degree)

    @pytest.mark.parametrize("call", [
        lambda s: certify_acr(s, trials=5),
        lambda s: generic_rank_randomized(s, trials=5),
        lambda s: sample_system(s),
        lambda s: system_from_terms(s, 1, [{}, {}, {}]),
    ], ids=["certify_acr", "generic_rank_randomized", "sample_system", "system_from_terms"])
    def test_jacobian_beyond_the_bound_is_refused_before_any_plan(self, call, monkeypatch):
        def refuse(num_symbols, degree):
            raise AssertionError("a monomial table was built")

        # Plans are cached, and a cached plan met the bound when it was built.
        member_plan.cache_clear()
        monkeypatch.setattr(polysys, "_monomial_table", refuse)
        monkeypatch.setattr(formats, "MAX_JACOBIAN_ENTRIES", 11)
        wide = StructurePattern.from_rows([{0, 1}, {2}, {3}])
        with pytest.raises(ParseError, match=(
                r"^3 equations x 4 variables make 12 Jacobian entries, more than the bound "
                r"of 11 \(formats.MAX_JACOBIAN_ENTRIES\)$")) as info:
            call(wide)
        assert isinstance(info.value, ValueError) and info.value.path is None

    def test_every_dataset_fits(self):
        for name in DATASETS:
            structure = get_dataset(name).structure
            for degree in range(5):
                assert polysys.plan_entries(structure, degree) <= polysys.MAX_PLAN_ENTRIES


def _spy(monkeypatch, name, owner=polysys):
    """Record the positional arguments of every call to ``owner.<name>``."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _stack(plan, count, seed=0):
    """``count`` random members of ``plan`` and points, as ``stacked_jacobians`` takes them."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1.0, 1.0, (count, plan.num_coefficients)),
            rng.uniform(-1.0, 1.0, (count, plan.num_variables)))


class TestVectorizedKernel:
    """One gather per call and one dot per kind and bucket, never one per equation or symbol."""

    @pytest.fixture
    def dots(self, monkeypatch):
        return _spy(monkeypatch, "matmul", owner=np)

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_jacobian_gathers_once(self, monkeypatch, name):
        structure = kernel_structure(name)
        system = sample_system(structure, degree=3, seed=2)
        gathers = _spy(monkeypatch, "_monomials")
        system.jacobian(np.linspace(-1.0, 1.0, structure.num_variables))
        assert len(gathers) == 1
        assert gathers[0][1] is system._plan.factors

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_stacked_gathers_once(self, monkeypatch, name):
        plan = member_plan(kernel_structure(name), 3)
        gathers = _spy(monkeypatch, "_monomials")
        stacked_jacobians(plan, *_stack(plan, 9))
        assert len(gathers) == 1
        # Certification needs no values, so only the partial columns are
        # gathered, over the rows their degree-2 monomials fill, from a table
        # without x^3: 1.0, x and x^2 of each coordinate.
        ((powers, factors),) = gathers
        assert factors is plan.trial_factors
        partials = plan.factors[:, :plan.trial_factors.shape[1]]
        assert (partials[2:] == 0).all()
        # The member's table of x^0..x^3 gives the same factors through its index.
        points = powers[:, 1::3]
        member_powers = (points[..., np.newaxis] ** np.arange(4.0)).reshape(len(points), -1)
        assert (powers.take(factors, axis=-1).tobytes()
                == member_powers.take(partials[:2], axis=-1).tobytes())

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_jacobian_dots_per_bucket(self, dots, name):
        structure = kernel_structure(name)
        system = sample_system(structure, degree=2, seed=1)
        plan = system._plan
        system.jacobian(np.linspace(-1.0, 1.0, structure.num_variables))
        # One dot call per derived value, then a partial and a value dot per bucket.
        assert len(dots) <= len(plan.derived) + 2 * len(plan.buckets)

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_stacked_dots_per_bucket(self, dots, name):
        plan = member_plan(kernel_structure(name), 2)
        stacked_jacobians(plan, *_stack(plan, 9))
        assert len(dots) <= len(plan.derived) + len(plan.buckets)

    @pytest.mark.parametrize("name", KERNEL_CASES)
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_stacked_arrays_fit_the_entries_bound(self, monkeypatch, name, degree):
        # Trial chunks are sized by plan.entries, so the largest array the
        # stacked kernel builds per trial, its gather of monomial factors,
        # must fit in it; so must its table of powers and its Jacobian.
        plan = member_plan(kernel_structure(name), degree)
        count = 5
        gathers = _spy(monkeypatch, "_monomials")
        stacked = stacked_jacobians(plan, *_stack(plan, count))
        ((powers, factors),) = gathers
        gathered = powers.take(factors, axis=-1)
        assert max(powers.size, gathered.size, stacked.size) <= count * plan.entries


class TestLinearStructure:
    def test_combination_evaluates_linearly(self):
        p = get_dataset("twogene").structure
        f = sample_system(p, degree=2, seed=1)
        g = sample_system(p, degree=2, seed=2)
        h = combine(0.7, f, -1.3, g)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-1, 1, 4)
            assert_allclose(h.evaluate(x), 0.7 * f.evaluate(x) - 1.3 * g.evaluate(x),
                            rtol=1e-12, atol=1e-12)
            assert_allclose(h.jacobian(x).matrix,
                            0.7 * f.jacobian(x).matrix - 1.3 * g.jacobian(x).matrix,
                            rtol=1e-12, atol=1e-12)

    def test_mixed_degree_combination(self):
        cep = get_dataset("cep3").structure
        quartic = get_dataset("eqcep1").system
        quadratic = sample_system(cep, degree=2, seed=4)
        both = combine(1.0, quartic, 1.0, quadratic)
        x = np.array([0.5, -0.25, 1.5])
        assert_allclose(both.evaluate(x), quartic.evaluate(x) + quadratic.evaluate(x))

    def test_structure_mismatch_rejected(self):
        f = sample_system(get_dataset("cep3").structure, seed=0)
        g = sample_system(get_dataset("twogene").structure, seed=0)
        with pytest.raises(StructureError):
            combine(1.0, f, 1.0, g)

    @pytest.mark.parametrize("a, b", [(np.inf, 1.0), (1e308, 1e308)])
    def test_a_sum_that_is_not_finite_is_refused_without_a_warning(self, a, b):
        # numpy's invalid-value and overflow warnings came before the error.
        sys = get_dataset("eqcep1").system
        with pytest.raises(StructureError, match=r"^polynomial coefficients must be finite$"):
            combine(a, sys, b, sys)

    def test_scaling_preserves_numeric_rank(self):
        sys = sample_system(get_dataset("robust4").structure, degree=2, seed=9)
        x = np.array([0.2, -0.4, 0.8, -0.1])
        base = numeric_rank(sys.jacobian(x).matrix)
        for alpha in (1e-3, 0.5, 2.0, 1e3):
            scaled = combine(alpha, sys, 0.0, sys)
            assert numeric_rank(scaled.jacobian(x).matrix) == base


class TestSerialization:
    def test_round_trip_explicit_system(self):
        from structrank.polysys import StructuredPolySystem

        sys = get_dataset("eqcep1").system
        data = sys.to_json_dict()
        back = StructuredPolySystem.from_json_dict(data)
        assert back.structure == sys.structure
        assert back.degree == sys.degree
        for ea, eb in zip(sys.equations, back.equations):
            assert (ea.coefficients == eb.coefficients).all()

    def test_round_trip_sampled_generalized_system(self):
        from structrank.polysys import StructuredPolySystem

        sys = sample_system(example5_structure(), degree=3, seed=17)
        back = StructuredPolySystem.from_json_dict(sys.to_json_dict())
        x = np.array([0.1, 0.2, -0.3, 0.4])
        assert_allclose(back.evaluate(x), sys.evaluate(x), rtol=0, atol=0)
        assert_allclose(back.jacobian(x).matrix, sys.jacobian(x).matrix, rtol=0, atol=0)

    def test_term_dict_reports_only_nonzeros(self):
        sys = get_dataset("eqcep1").system
        assert sys.equations[0].term_dict() == {(2,): 1.0}
        assert sys.equations[1].term_dict() == {(0,): 1.0, (4,): 1.0}

    def test_term_dict_looks_each_table_up_once(self):
        sys = sample_system(example5_structure(), degree=3, seed=17)
        before = _monomial_table.cache_info()
        terms = [eq.term_dict() for eq in sys.equations]
        after = _monomial_table.cache_info()
        assert after.hits + after.misses - before.hits - before.misses <= len(sys.equations)
        back = system_from_terms(sys.structure, 3, terms)
        for ea, eb in zip(sys.equations, back.equations):
            assert ea.coefficients.tobytes() == eb.coefficients.tobytes()

    @pytest.mark.parametrize("exponent", [2.5, 2.0, "2", b"1", True, None])
    def test_an_exponent_that_is_no_integer_is_refused(self, exponent):
        # Exponents went through int(): 2.5 was read as 2, "2" as 2 and True as 1.
        p = StructurePattern.from_rows([[0]])
        with pytest.raises(TypeError, match=(
                rf"^equation 1: exponent must be an integer, got {re.escape(repr(exponent))}$")):
            system_from_terms(p, 2, [{(exponent,): 1.0}])

    def test_numpy_integer_exponents_read_as_ints(self):
        p = get_dataset("xy").structure
        sys = system_from_terms(p, 2, [{(np.int64(1), np.int32(1)): 2.0, (0, 0): 1.0}])
        assert sys.to_json_dict()["equations"] == [{"0,0": 1.0, "1,1": 2.0}]
        with pytest.raises(StructureError, match=r"^equation 1: exponent vector \(3, 0\) is not"):
            system_from_terms(p, 2, [{(np.int64(3), 0): 1.0}])

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3), 3, 2**70, None])
    def test_an_integer_seed_is_written_and_read_back(self, seed, tmp_path):
        # np.int64(3) was kept as given, and json.dumps of the system raised.
        p = get_dataset("xy").structure
        system = system_from_terms(p, 1, [{(1, 0): 2.0}], seed=seed)
        assert system.seed == seed and type(system.seed) is type(None if seed is None else 3)
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system.to_json_dict()))
        back = formats.parse_input(str(path))
        assert back.seed == seed and back.to_json_dict() == system.to_json_dict()

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3)])
    def test_a_constructed_system_stores_an_integer_seed_as_int(self, seed):
        # The constructor kept np.int64(3), and json.dumps of the system raised.
        member = sample_system(get_dataset("xy").structure, degree=1, seed=0)
        system = StructuredPolySystem(member.structure, 1, member.equations, seed=seed)
        assert type(system.seed) is int
        assert json.loads(json.dumps(system.to_json_dict()))["seed"] == 3

    @pytest.mark.parametrize("seed", [-1, np.int64(-4)])
    def test_a_negative_seed_is_refused_naming_it(self, seed, tmp_path):
        # Each was stored: no member could have been sampled from it.
        member = sample_system(get_dataset("xy").structure, degree=1, seed=0)
        message = rf"^seed must be >= 0, got {int(seed)}$"
        with pytest.raises(ValueError, match=message):
            StructuredPolySystem(member.structure, 1, member.equations, seed=seed)
        with pytest.raises(ValueError, match=message):
            system_from_terms(member.structure, 1, [{(1, 0): 2.0}], seed=seed)
        data = member.to_json_dict() | {"seed": int(seed)}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as raised:
            formats.parse_input(str(path))
        assert raised.value.where == "seed"
        assert raised.value.message == "'seed' must be an integer >= 0 or null"

    @pytest.mark.parametrize("seed", [2.5, 3.0, "3", True, False, [3], np.array([3, 4])])
    def test_a_seed_that_is_no_integer_is_refused(self, seed):
        # 2.5 was kept and written, and the system reader then refused the file.
        p = get_dataset("xy").structure
        with pytest.raises(TypeError, match=rf"^seed must be an integer, got {re.escape(repr(seed))}$"):
            system_from_terms(p, 1, [{(1, 0): 2.0}], seed=seed)

    @pytest.mark.parametrize("terms, error", [
        ({(0, 2): 1e308, (1, 1, 1): 1.0}, ParseError),
        ({(1, 1, 1): 1.0, (0, 2): 1e308}, StructureError),
        ({(0, 2): 1e308, (0, 1.5): 1.0}, ParseError),
        ({(0, 1.5): 1.0, (0, 2): 1e308}, TypeError),
        ({(0, 2): 1e308, (1, 0): "x"}, ParseError),
        ({(1, 0): "x", (0, 2): 1e308}, ValueError),
        # A term's slot is checked before its coefficient converts.
        ({(1, 1, 1): "x"}, StructureError),
        ({(1, 1, 1): 1.0, 5: 1.0}, StructureError),
        ({5: 1.0, (1, 1, 1): 1.0}, TypeError),
    ])
    def test_the_first_refused_term_is_named(self, terms, error):
        with pytest.raises(error):
            system_from_terms(get_dataset("xy").structure, 2, [terms])

    def test_bad_exponent_rejected(self):
        p = get_dataset("xy").structure
        with pytest.raises(StructureError, match="monomial"):
            system_from_terms(p, 1, [{(1, 1): 1.0}])

    def test_term_map_count_must_match_the_structure(self):
        p = StructurePattern.from_rows([[0, 1], [1]])
        with pytest.raises(StructureError, match=r"^structure has 2 equations, got 1 term maps$"):
            system_from_terms(p, 1, [{(1, 0): 1.0}])

    @pytest.mark.parametrize("coefficient", [1e308, -1e308, 9e307])
    def test_coefficient_whose_partial_overflows_rejected(self, coefficient):
        p = get_dataset("xy").structure
        spelled = re.escape(repr(coefficient))
        with pytest.raises(ParseError, match=(
                rf"^equation 1: coefficient {spelled} of exponent vector \(0, 2\) "
                r"times its exponent 2 is not finite$")):
            system_from_terms(p, 2, [{(1, 0): 1.0, (0, 2): coefficient}])

    def test_largest_coefficient_with_a_finite_partial_accepted(self):
        p = get_dataset("xy").structure
        big = np.finfo(np.float64).max
        sys = system_from_terms(p, 2, [{(1, 0): big, (0, 2): big / 2}])
        assert sys.jacobian([0.0, 0.5]).matrix.tolist() == [[big, big / 2]]

    def test_equation_degree_must_match_system(self):
        p = get_dataset("cep3").structure
        equations = sample_system(p, degree=2, seed=0).equations
        with pytest.raises(StructureError, match="degree 2, the system 3"):
            StructuredPolySystem(p, 3, equations)

    def test_polynomial_count_must_match_the_structure(self):
        p = get_dataset("cep3").structure
        equations = sample_system(p, degree=2, seed=0).equations
        with pytest.raises(StructureError, match=r"^structure has 3 equations, got 2 polynomials$"):
            StructuredPolySystem(p, 2, equations[:2])

    def test_polynomial_symbols_must_match_the_row(self):
        # cep3's rows are (2,), (2,) and (0, 1, 2).
        p = get_dataset("cep3").structure
        first, second, third = sample_system(p, degree=2, seed=0).equations
        with pytest.raises(StructureError, match=r"^equation 1 does not match its structure row$"):
            StructuredPolySystem(p, 2, (third, second, first))

    @pytest.mark.parametrize("coefficients, message", [
        ([1.0, 2.0], r"^equation over 1 symbols at degree 2 needs 3 coefficients, got \(2,\)$"),
        ([1.0, np.nan, 0.0], r"^polynomial coefficients must be finite$"),
        ([1.0, 0.0, -np.inf], r"^polynomial coefficients must be finite$"),
    ])
    def test_polynomial_coefficients_are_checked(self, coefficients, message):
        with pytest.raises(StructureError, match=message):
            PolyEquation((0,), 2, coefficients)
