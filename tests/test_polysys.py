import numpy as np
import pytest
from numpy.testing import assert_allclose

from structrank import (
    StructuredPolySystem,
    StructureError,
    StructurePattern,
    combine,
    numeric_rank,
    sample_system,
    system_from_terms,
)
from structrank.datasets import get_dataset
from structrank import polysys
from structrank.polysys import _monomial_table, member_plan, seeded_rng, stacked_jacobians
from structrank.structure import DerivedVariableSpec, GeneralizedStructure

from oracles import reference_draw, reference_evaluation


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

    def test_degree_zero_needs_explicit_flag(self):
        p = get_dataset("cep3").structure
        with pytest.raises(ValueError):
            sample_system(p, degree=0)
        sys = sample_system(p, degree=0, allow_constant=True)
        assert (sys.jacobian(np.zeros(3)).matrix == 0).all()

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
            sample_system(structure, degree, seed=seed, distribution=distribution,
                          allow_constant=True)
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


class TestVectorizedKernel:
    """One row-wise dot per kind and bucket, never one per equation or symbol."""

    @pytest.fixture
    def dots(self, monkeypatch):
        calls = []

        def spy(a, b):
            calls.append(np.shape(b))
            return rowwise_dot(a, b)

        rowwise_dot = polysys._rowwise_dot
        monkeypatch.setattr(polysys, "_rowwise_dot", spy)
        return calls

    def test_jacobian_dots_per_row_width(self, dots):
        structure = get_dataset("sole26").structure
        widths = {len(row) for row in structure.rows()}
        system = sample_system(structure, degree=2, seed=1)
        dots.clear()
        system.jacobian(np.linspace(-1.0, 1.0, 26))
        assert len(widths) <= len(dots) <= 2 * len(widths)

    def test_stacked_chunk_dots_per_bucket(self, dots):
        structure = get_dataset("sole26").structure
        plan = member_plan(structure, 2)
        rng = np.random.default_rng(0)
        stacked_jacobians(plan, rng.uniform(-1.0, 1.0, (9, plan.num_coefficients)),
                          rng.uniform(-1.0, 1.0, (9, 26)))
        assert 1 <= len(dots) <= len({len(row) for row in structure.rows()})


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

    def test_bad_exponent_rejected(self):
        p = get_dataset("xy").structure
        with pytest.raises(StructureError, match="monomial"):
            system_from_terms(p, 1, [{(1, 1): 1.0}])

    def test_equation_degree_must_match_system(self):
        p = get_dataset("cep3").structure
        equations = sample_system(p, degree=2, seed=0).equations
        with pytest.raises(StructureError, match="degree 2, the system 3"):
            StructuredPolySystem(p, 3, equations)
