import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from structrank import (
    ParseError,
    StructureError,
    StructurePattern,
    SystemGraph,
    UnsupportedOperationError,
    classify,
    knockout,
    knockout_sweep,
    maximum_matching,
    pattern_from_graph,
    structural_rank,
)
from structrank.datasets import get_dataset
from structrank import structural
from structrank.structural import _hopcroft_karp
from structrank.structure import GeneralizedStructure, DerivedVariableSpec

from oracles import (
    brute_matching_size, brute_min_vertex_cover, reference_matching, report_from_json_dict,
)


def rows(spec_1based, n=None):
    return StructurePattern.from_rows(
        [{v - 1 for v in row} for row in spec_1based], n
    )


@st.composite
def patterns(draw, max_eq=6, max_var=6):
    m = draw(st.integers(min_value=1, max_value=max_eq))
    n = draw(st.integers(min_value=1, max_value=max_var))
    pool = [(e, v) for e in range(m) for v in range(n)]
    allowed = draw(st.frozensets(st.sampled_from(pool)))
    return StructurePattern(m, n, frozenset(allowed))


@st.composite
def square_patterns(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pool = [(e, v) for e in range(n) for v in range(n)]
    return StructurePattern(n, n, draw(st.frozensets(st.sampled_from(pool))))


@st.composite
def sweep_patterns(draw, max_n=30):
    """Square patterns of 2 to 30 nodes, mostly fragile, many by 2 or more.

    Rows hold at most three columns and many are empty; in some patterns one
    column is put in every row.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    row = st.frozensets(st.integers(min_value=0, max_value=n - 1), max_size=3)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if draw(st.booleans()):
        column = draw(st.integers(min_value=0, max_value=n - 1))
        rows = [r | {column} for r in rows]
    return StructurePattern.from_rows(rows, n)


class TestStructuralRank:
    def test_cep_pattern(self):
        assert structural_rank(get_dataset("cep3").structure) == 2

    def test_robust_four_species(self):
        assert structural_rank(rows([[3, 4], [3, 4], [1, 2, 3], [1, 2]])) == 4

    def test_jakstat(self):
        assert structural_rank(get_dataset("jakstat").structure) == 11

    def test_all_zero_pattern(self):
        assert structural_rank(StructurePattern(3, 4, frozenset())) == 0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_full_pattern(self, n):
        full = StructurePattern(n, n, frozenset((e, v) for e in range(n) for v in range(n)))
        assert structural_rank(full) == n

    def test_trophic_and_added_link(self):
        t5 = get_dataset("trophic5").structure
        assert structural_rank(t5) == 4
        assert structural_rank(t5.with_entry(1, 0)) == 5

    def test_generalized_structure_rejected(self):
        gs = GeneralizedStructure(
            num_variables=2,
            dependencies=(frozenset({"z"}),),
            derived=(DerivedVariableSpec("z", ((0, 1.0), (1, 1.0))),),
        )
        with pytest.raises(UnsupportedOperationError, match="randomized"):
            structural_rank(gs)

    @given(patterns())
    def test_agrees_with_brute_force(self, p):
        assert structural_rank(p) == brute_matching_size(p)

    @given(patterns(), st.integers(min_value=0), st.integers(min_value=0))
    def test_monotone_under_added_entries(self, p, e, v):
        entry = (e % p.num_equations, v % p.num_variables)
        assert structural_rank(p.with_entry(*entry)) >= structural_rank(p)


class TestMatchingWitness:
    @given(patterns())
    def test_witness_is_a_valid_matching(self, p):
        matching = maximum_matching(p)
        assert len(matching) == structural_rank(p)
        assert set(matching) <= p.allowed
        eqs = [e for e, _ in matching]
        vars_ = [v for _, v in matching]
        assert len(set(eqs)) == len(eqs)
        assert len(set(vars_)) == len(vars_)

    def test_witness_deterministic(self):
        p = get_dataset("sole26").structure
        assert maximum_matching(p) == maximum_matching(p)

    @given(patterns(max_eq=4, max_var=4))
    def test_koenig_duality(self, p):
        assert structural_rank(p) == brute_min_vertex_cover(p)


class TestClassify:
    def test_robust_example(self):
        rep = classify(get_dataset("robust4").structure)
        assert rep.classification == "robust"
        assert rep.solution_dimension == 0

    def test_graph_is_refused(self):
        with pytest.raises(TypeError, match=r"^expected StructurePattern, got SystemGraph$"):
            classify(SystemGraph(2, {(0, 1)}))

    def test_fragile_example(self):
        rep = classify(get_dataset("cep3").structure)
        assert rep.classification == "fragile"
        assert rep.solution_dimension == 1

    def test_food_web(self):
        rep = classify(get_dataset("sole26").structure)
        assert (rep.structural_rank, rep.classification, rep.solution_dimension) == (20, "fragile", 6)

    def test_wide_system_can_be_robust(self):
        rep = classify(get_dataset("robotarm").structure)
        assert rep.num_equations == 3 and rep.num_variables == 6
        assert rep.classification == "robust"
        assert rep.solution_dimension == 3

    def test_two_gene_network(self):
        rep = classify(get_dataset("twogene").structure)
        assert rep.structural_rank == 4
        assert rep.classification == "robust"

    def test_tall_system_is_always_fragile(self):
        # More equations than variables: rank M is impossible.
        p = StructurePattern(3, 2, frozenset({(0, 0), (1, 1), (2, 0), (2, 1)}))
        assert classify(p).classification == "fragile"

    def test_json_round_trip(self):
        rep = classify(get_dataset("jakstat").structure)
        assert report_from_json_dict(rep.to_json_dict()) == rep

    @given(patterns())
    def test_report_invariants(self, p):
        rep = classify(p)
        assert 0 <= rep.structural_rank <= min(p.num_equations, p.num_variables)
        assert rep.solution_dimension == p.num_variables - rep.structural_rank
        assert (rep.classification == "robust") == (rep.structural_rank == p.num_equations)


class TestRandomMatrixUpperBound:
    @given(patterns(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_concrete_matrices_never_exceed_structural_rank(self, p, seed):
        rng = np.random.default_rng(seed)
        a = np.zeros(p.shape)
        for e, v in p.allowed:
            a[e, v] = rng.uniform(-1, 1)
        assert np.linalg.matrix_rank(a) <= structural_rank(p)


class TestKnockoutSweep:
    def test_jakstat_flags_node_12_only(self):
        entries = knockout_sweep(get_dataset("jakstat").structure)
        flips = [en.node for en in entries if en.flips_to_robust]
        assert flips == [11]
        assert entries[11].report.structural_rank == 11
        assert entries[11].report.classification == "robust"

    def test_full_two_by_two_stays_robust(self):
        full = StructurePattern(2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
        entries = knockout_sweep(full)
        assert all(en.report.classification == "robust" for en in entries)
        assert all(en.report.structural_rank == 1 for en in entries)
        # The base system is already robust, so nothing "flips".
        assert not any(en.flips_to_robust for en in entries)

    def test_cep_knockouts_match_brute_force(self):
        # Removing either predator leaves a solvable 2-equation system; the
        # sweep must agree with exhaustive matching on every 2x2 minor.
        cep = get_dataset("cep3").structure
        entries = knockout_sweep(cep)
        for en in entries:
            expected = brute_matching_size(knockout(cep, en.node))
            assert en.report.structural_rank == expected
        assert [en.node for en in entries if en.flips_to_robust] == [0, 1]

    def test_non_square_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            knockout_sweep(get_dataset("robotarm").structure)

    def test_pattern_beyond_the_node_bound_is_refused_before_any_matching(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a matching ran")

        jakstat = get_dataset("jakstat").structure
        monkeypatch.setattr(structural, "_hopcroft_karp", refuse)
        monkeypatch.setattr(structural, "MAX_KNOCKOUT_NODES", 11)
        with pytest.raises(ParseError, match=(
                r"^a knockout sweep of 12 nodes runs 13 matchings, more than the bound of 11 "
                r"nodes \(structural.MAX_KNOCKOUT_NODES\)$")):
            knockout_sweep(jakstat)
        monkeypatch.undo()
        monkeypatch.setattr(structural, "MAX_KNOCKOUT_NODES", 12)
        assert len(knockout_sweep(jakstat)) == 12

    @given(patterns(max_eq=5, max_var=5))
    def test_knockout_rank_bounds(self, p):
        if not p.is_square() or p.num_equations < 2:
            return
        base = structural_rank(p)
        for en in knockout_sweep(p):
            assert base - 2 <= en.report.structural_rank <= base


class TestKnockoutOfOneNode:
    def test_sweep_of_a_one_by_one_pattern_is_refused(self):
        with pytest.raises(StructureError) as exc:
            knockout_sweep(StructurePattern(1, 1, frozenset({(0, 0)})))
        assert str(exc.value) == "knockout of a 1x1 system would leave an empty system"


def chain(length):
    """Rows {i, i+1} and a last row {0}: one augmenting path through every row."""
    return StructurePattern.from_rows([{i, i + 1} for i in range(length - 1)] + [{0}])


def benchmark_chain(length, seed):
    """``chain(length)`` followed by a disjoint robust block a quarter its size.

    The block's rows hold a hidden diagonal column plus up to three random
    ones, as in the benchmark's chain patterns.
    """
    rng = random.Random(seed)
    extra = max(2, length // 4)
    perm = rng.sample(range(extra), extra)
    block = [{perm[i]} | {rng.randrange(extra) for _ in range(rng.randint(1, 3))}
             for i in range(extra)]
    rows = chain(length).rows() + tuple({length + v for v in row} for row in block)
    return StructurePattern.from_rows(rows, length + extra)


def reference_at_any_depth(p):
    """``reference_matching`` with room for its recursion, whatever the current limit."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, p.num_equations + 1000))
    try:
        return reference_matching(p)
    finally:
        sys.setrecursionlimit(saved)


@pytest.fixture(params=[None, 200], ids=["default-limit", "limit-200"])
def recursion_limit(request):
    """Run a test under the interpreter's limit or a lowered one, restored afterwards."""
    saved = sys.getrecursionlimit()
    if request.param is not None:
        sys.setrecursionlimit(request.param)
    yield
    sys.setrecursionlimit(saved)


class TestLongAugmentingPaths:
    """Path length is not bounded by the interpreter's recursion limit."""

    def test_five_thousand_long_chain(self, recursion_limit):
        p = chain(5000)
        report = classify(p)
        rank = structural_rank(p)
        assert (report.structural_rank, rank) == (5000, 5000)
        assert (report.classification, report.solution_dimension) == ("robust", 0)
        assert set(report.matching) <= p.allowed
        assert len({e for e, _ in report.matching}) == len({v for _, v in report.matching}) == 5000


def web(n, seed):
    """Food-web-like square pattern with about 1.5 n random bidirectional links."""
    rng = random.Random(seed)
    edges = set()
    for _ in range(round(1.5 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.update({(a, b), (b, a)})
    return pattern_from_graph(SystemGraph(n, frozenset(edges)))


@st.composite
def multi_phase_cases(draw):
    """A pattern of 20 to 120 rows and a knockout node, or None.

    Square, wide or tall; each row is empty or holds one to five columns,
    so the greedy pass leaves free rows that take several phases. Only square
    patterns draw a knockout.
    """
    m = draw(st.integers(min_value=20, max_value=120))
    shape = draw(st.sampled_from(["square", "wide", "tall"]))
    if shape == "square":
        n = m
    elif shape == "wide":
        n = draw(st.integers(m + 1, 2 * m))
    else:
        n = draw(st.integers(m // 2, m - 1))
    row = st.one_of(st.just(frozenset()),
                    st.frozensets(st.integers(0, n - 1), min_size=1, max_size=5))
    p = StructurePattern.from_rows(draw(st.lists(row, min_size=m, max_size=m)), n)
    k = draw(st.none() | st.integers(0, n - 1)) if shape == "square" else None
    return p, k


class TestWitnessIdentity:
    """The iterative kernel returns the witness of the recursive reference."""

    @given(multi_phase_cases())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example((benchmark_chain(250, seed=1), None))
    @example((benchmark_chain(250, seed=1), 260))
    @example((web(60, seed=5), None))
    @example((web(60, seed=5), 31))
    @example((web(150, seed=6), None))
    @example((web(150, seed=6), 75))
    def test_multi_phase_matchings_equal_reference(self, recursion_limit, case):
        p, k = case
        if k is None:
            assert _hopcroft_karp(p.rows(), p.num_variables) == reference_at_any_depth(p)
        else:
            assert _hopcroft_karp(p.rows(), p.num_variables, k) == \
                reference_at_any_depth(knockout(p, k))

    @given(patterns(max_eq=12, max_var=12))
    @settings(max_examples=60)
    def test_matching_equals_reference(self, p):
        assert maximum_matching(p) == reference_matching(p)

    @given(square_patterns())
    @settings(max_examples=25)
    def test_knockout_matchings_equal_reference(self, p):
        for en in knockout_sweep(p):
            assert en.report.matching == reference_matching(knockout(p, en.node))

    @given(sweep_patterns())
    @settings(max_examples=40)
    # n = 2; deficiency 3 with empty rows held out; column 2 in every row (deficiency 2).
    @example(StructurePattern.from_rows([{1}, {1}], 2))
    @example(StructurePattern.from_rows([{0, 1}, {0, 1}, {0, 1}, set(), set(), {5}], 6))
    @example(StructurePattern.from_rows([{2}, {2}, {0, 2}, {2}, {1, 2}], 5))
    def test_held_out_node_leaves_base_rows_and_witness_unchanged(self, p):
        n = p.num_equations
        adj = p.rows()
        before = tuple(row[:] for row in adj)
        for k, en in enumerate(knockout_sweep(p)):
            expected = reference_matching(knockout(p, k))
            assert en.report.matching == expected
            assert _hopcroft_karp(adj, n, k) == expected
        assert adj == before

    def test_web_of_three_hundred_nodes(self):
        p = web(300, seed=3)
        assert maximum_matching(p) == reference_matching(p)
        entries = knockout_sweep(p)
        assert [en.report.matching for en in entries] == \
            [reference_matching(knockout(p, k)) for k in range(300)]


class TestSweepWitnessMemory:
    def test_a_sweep_holds_one_tuple_per_distinct_pair(self):
        # 200 witnesses of about 199 pairs each share a few hundred distinct
        # pairs; each knockout once built its own tuple for every one.
        entries = knockout_sweep(web(200, seed=7))
        pairs = [pair for en in entries for pair in en.report.matching]
        assert len(pairs) > 10 * len(set(pairs))
        assert len({id(pair) for pair in pairs}) == len(set(pairs))
