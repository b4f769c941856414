import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrank import (
    DerivedVariableSpec,
    GeneralizedStructure,
    ParseError,
    StructureError,
    StructurePattern,
    SystemGraph,
    UnsupportedOperationError,
    classify,
    effective_pattern,
    graph_from_pattern,
    knockout,
    pattern_from_graph,
)
from structrank import formats, structure
from structrank.datasets import get_dataset


def edges_1based(pairs):
    return frozenset((a - 1, b - 1) for a, b in pairs)


@st.composite
def entry_lists(draw):
    """(M, N, entries): in-range pairs in draw order, duplicates included."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.tuples(st.integers(min_value=0, max_value=m - 1),
                      st.integers(min_value=0, max_value=n - 1))
    return m, n, draw(st.lists(entry, max_size=30))


class TestStructurePattern:
    def test_basic_construction(self):
        p = StructurePattern(2, 3, frozenset({(0, 0), (1, 2)}))
        assert p.shape == (2, 3)
        assert p.rows() == ((0,), (2,))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(StructureError):
            StructurePattern(2, 2, frozenset({(2, 0)}))
        with pytest.raises(StructureError):
            StructurePattern(2, 2, frozenset({(0, -1)}))
        with pytest.raises(StructureError, match=r"allowed entry \(1,-1\) outside 2x2 pattern"):
            StructurePattern.from_rows([{0}, {1, -1}], 2)
        with pytest.raises(StructureError, match=r"allowed entry \(0,2\) outside 2x2 pattern"):
            StructurePattern.from_rows([{0, 2}, set()], 2)

    @pytest.mark.parametrize("rows, n, message", [
        # The size is checked before any entry.
        ([], 2, "pattern must have M >= 1 and N >= 1, got 0x2"),
        ([{-1}], 0, "pattern must have M >= 1 and N >= 1, got 1x0"),
        # A negative index is named before a large one in its row.
        ([{0}, {-2, 5, -1}], 2, r"allowed entry \(1,-2\) outside 2x2 pattern"),
        ([{0}, {1, 2, 3}], 2, r"allowed entry \(1,3\) outside 2x2 pattern"),
        # The first bad row is named, whatever the later rows hold.
        ([{1}, {4}, {-3}], 3, r"allowed entry \(1,4\) outside 3x3 pattern"),
        ([set(), {-3}, {9}], 3, r"allowed entry \(1,-3\) outside 3x3 pattern"),
        # An inferred width covers every large index, so only negatives fail.
        ([{2}, {-1, 0}], None, r"allowed entry \(1,-1\) outside 2x3 pattern"),
        ([{-5}, set()], None, r"allowed entry \(0,-5\) outside 2x1 pattern"),
    ])
    def test_from_rows_error_messages(self, rows, n, message):
        with pytest.raises(StructureError, match=rf"^{message}$"):
            StructurePattern.from_rows(rows, n)

    @pytest.mark.parametrize("rows, n", [
        ([set()], 1), ([set(), set()], 1), ([{0, 0, 3}, [3, 1]], 4), ([(), range(7, 2, -2)], 8),
    ])
    def test_from_rows_infers_num_variables(self, rows, n):
        p = StructurePattern.from_rows(rows)
        assert p.num_variables == n
        assert p.rows() == tuple(tuple(sorted(set(r))) for r in rows)

    @pytest.mark.parametrize("rows, n, message", [
        ([[1.0, 0]], None, "equation 1: variable index must be an integer, got 1.0"),
        ([[0], [0, 1.5, 2]], 3, "equation 2: variable index must be an integer, got 1.5"),
        ([[True, 0]], None, "equation 1: variable index must be an integer, got True"),
        ([[1], [False, 1]], 2, "equation 2: variable index must be an integer, got False"),
        ([[0], [], [np.float64(1.0)]], 2,
         r"equation 3: variable index must be an integer, got np.float64\(1.0\)"),
        # An entry equal to an earlier index is refused, not merged into it.
        ([[0, False]], None, "equation 1: variable index must be an integer, got False"),
        ([[1, True]], None, "equation 1: variable index must be an integer, got True"),
        ([[2], [1, 1.0]], None, "equation 2: variable index must be an integer, got 1.0"),
        # An entry that does not compare with an int is named, not sorted.
        ([[0, "a"]], None, "equation 1: variable index must be an integer, got 'a'"),
    ])
    def test_from_rows_refuses_a_non_integer_entry(self, rows, n, message):
        with pytest.raises(TypeError, match=rf"^{message}$"):
            StructurePattern.from_rows(rows, n)

    @pytest.mark.parametrize("build, message", [
        (lambda: StructurePattern.from_rows([[0, 1]], 2.0),
         "num_variables must be an integer, got 2.0"),
        (lambda: StructurePattern.from_rows([[0]], True),
         "num_variables must be an integer, got True"),
        (lambda: StructurePattern(2.0, 2, {(0, 1)}), "num_equations must be an integer, got 2.0"),
        (lambda: StructurePattern(2, 2.5, {(0, 1)}), "num_variables must be an integer, got 2.5"),
        (lambda: GeneralizedStructure(2.0, (frozenset({0, 1}),), ()),
         "num_variables must be an integer, got 2.0"),
    ])
    def test_a_size_that_is_not_an_integer_is_refused(self, build, message):
        # from_rows([[0, 1]], 2.0) once kept the float size, and sampling a
        # member of it failed deep inside numpy.
        with pytest.raises(TypeError, match=rf"^{message}$"):
            build()

    def test_numpy_integer_sizes_are_stored_as_int(self):
        p = StructurePattern(np.int64(2), np.uint8(3), {(0, 1)})
        gs = GeneralizedStructure(np.int32(3), (frozenset({0}),), ())
        assert (type(p.num_equations), type(p.num_variables), type(gs.num_variables)) == (int,) * 3

    def test_from_rows_stores_numpy_integers_as_int(self):
        p = StructurePattern.from_rows([[np.int64(2), 0], [np.uint8(1), 1]])
        assert p.rows() == ((0, 2), (1,))
        assert p.num_variables == 3
        assert {type(v) for row in p.rows() for v in row} == {int}
        assert type(p.num_variables) is int

    def test_rejects_empty_dimensions(self):
        with pytest.raises(StructureError):
            StructurePattern(0, 3, frozenset())

    def test_empty_row_is_legal(self):
        p = StructurePattern.from_rows([set(), {0}], num_variables=2)
        assert p.row(0) == ()

    @pytest.mark.parametrize("e", [-1, -3, 2, 3])
    def test_row_outside_the_equations_is_refused(self, e):
        # -1 once returned the last row, and 2 raised "tuple index out of range".
        p = StructurePattern.from_rows([{0}, {1}])
        with pytest.raises(IndexError, match=rf"^equation {e} outside \[0,2\)$"):
            p.row(e)

    @pytest.mark.parametrize("e", [True, False, np.True_, 1.0, "1"])
    def test_row_of_a_non_integer_is_refused(self, e):
        # True once returned row 1.
        with pytest.raises(TypeError, match="equation index must be an integer"):
            StructurePattern.from_rows([{0}, {1}]).row(e)

    def test_row_of_a_numpy_integer(self):
        assert StructurePattern.from_rows([{0}, {1, 2}]).row(np.int64(1)) == (1, 2)

    def test_from_rows_infers_width(self):
        p = StructurePattern.from_rows([{0, 4}])
        assert p.num_variables == 5

    @given(entry_lists())
    def test_pairs_and_rows_give_one_pattern(self, case):
        m, n, pairs = case
        rows = [[] for _ in range(m)]
        for e, v in pairs:
            rows[e].append(v)
        p = StructurePattern(m, n, pairs)
        q = StructurePattern.from_rows(rows, n)
        assert p == q and hash(p) == hash(q)
        assert p.allowed == frozenset(pairs)
        assert all(row == tuple(sorted(set(row))) for row in p.rows())


# Entries a structure constructor may be given; only in-range ints and
# numpy integers are indices.
def row_entries(n):
    return st.one_of(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1).map(np.int64),
        st.integers(min_value=-2, max_value=n + 2),
        st.booleans(),
        st.floats(allow_nan=False, min_value=-2, max_value=n + 2),
        st.text(max_size=1),
        st.none(),
    )


@st.composite
def drawn_rows(draw):
    """(rows, N): rows of entries as given to a constructor, bad ones included."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(row_entries(n), max_size=4), min_size=1, max_size=4))
    return rows, n


def built(build):
    """("rows", the rows ``build()`` stores), or the name and text of what it raises."""
    try:
        return "rows", build().rows()
    except (TypeError, StructureError) as exc:
        return type(exc).__name__, str(exc)


class TestOneEntryCheck:
    """Every structure constructor checks the entries it is given by one rule."""

    @settings(max_examples=300)
    @given(drawn_rows())
    def test_constructors_agree(self, case):
        rows, n = case
        pairs = [(e, v) for e, row in enumerate(rows) for v in row]
        by_rows = built(lambda: StructurePattern.from_rows(rows, n))
        by_pairs = built(lambda: StructurePattern(len(rows), n, pairs))
        generalized = built(lambda: GeneralizedStructure(n, rows, ()))
        assert by_pairs == by_rows
        names = [sorted(v for v in row if isinstance(v, str)) for row in rows]
        if any(names):
            # A string is a derived-variable name to a generalized structure,
            # refused first when undeclared.
            e, name = next((e, row[0]) for e, row in enumerate(names) if row)
            assert generalized == ("StructureError", f"equation {e + 1} references "
                                                     f"undeclared derived variable {name!r}")
            return
        assert generalized == by_rows
        if by_rows[0] != "rows":
            return
        assert {type(v) for row in by_rows[1] for v in row} <= {int}
        json.dumps(classify(StructurePattern(len(rows), n, pairs)).to_json_dict())

    @pytest.mark.parametrize("build, message", [
        # frozenset(d) once merged True into 1, so only [True, 1] was refused.
        (lambda: GeneralizedStructure(2, ([1, True],), ()),
         "equation 1: variable index must be an integer, got True"),
        (lambda: GeneralizedStructure(2, ([True, 1],), ()),
         "equation 1: variable index must be an integer, got True"),
        # Once kept as the rows ((1.5,), (0,)).
        (lambda: StructurePattern(2, 2, [(0, 1.5), (1, 0)]),
         "equation 1: variable index must be an integer, got 1.5"),
        (lambda: StructurePattern(2, 2, [(True, 0)]), "equation index must be an integer, got True"),
        (lambda: StructurePattern(2, 2, {(0, 1.5), (True, 0)}), "must be an integer, got "),
        # Once kept the float 0.0 as an entry.
        (lambda: StructurePattern.from_rows([[0], []], 2).with_entry(1, 0.0),
         "equation 2: variable index must be an integer, got 0.0"),
        (lambda: StructurePattern.from_rows([[0], []], 2).with_entry(1.0, 0),
         "equation index must be an integer, got 1.0"),
    ])
    def test_a_bad_entry_is_refused_by_every_constructor(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()

    def test_numpy_integer_pairs_are_stored_as_int(self):
        # The rows once kept np.int64, and the report's JSON could not be written.
        p = StructurePattern(2, 2, {(np.int64(0), np.int64(0)), (1, np.int64(1))})
        assert p.rows() == ((0,), (1,))
        assert {type(v) for row in p.rows() for v in row} == {int}
        assert p == StructurePattern.from_rows([[0], [1]], 2)
        assert json.loads(json.dumps(classify(p).to_json_dict()))["rank"] == 2

    @pytest.mark.parametrize("e, v, message", [
        (2, 0, r"allowed entry \(2,0\) outside 2x2 pattern"),
        (-1, 0, r"allowed entry \(-1,0\) outside 2x2 pattern"),
        (0, 2, r"allowed entry \(0,2\) outside 2x2 pattern"),
    ])
    def test_with_entry_outside_the_pattern_is_refused(self, e, v, message):
        with pytest.raises(StructureError, match=rf"^{message}$"):
            StructurePattern.from_rows([[0], []], 2).with_entry(e, v)

    def test_with_entry_adds_one_entry(self):
        p = StructurePattern.from_rows([[1], []], 2)
        q = p.with_entry(0, np.int64(0))
        assert q.rows() == ((0, 1), ())
        assert q == StructurePattern(2, 2, {(0, 0), (0, 1)})
        assert p.with_entry(0, 1) == p

    def test_a_generalized_index_outside_gets_the_pattern_message(self):
        with pytest.raises(StructureError, match=r"^allowed entry \(1,3\) outside 2x3 pattern$"):
            GeneralizedStructure(3, ([0], [1, 3]), ())

    @pytest.mark.parametrize("build, message", [
        # Each once raised "'int' object is not iterable" or an unpacking
        # ValueError that named no equation, pair or edge.
        (lambda: StructurePattern.from_rows([3]), "equation 1 must be a collection, got 3"),
        (lambda: StructurePattern.from_rows([[0], 3], 2), "equation 2 must be a collection, got 3"),
        (lambda: GeneralizedStructure(2, [5], ()), "equation 1 must be a collection, got 5"),
        (lambda: StructurePattern(2, 2, [(0,)]), r"allowed entry must be a pair, got \(0,\)"),
        (lambda: StructurePattern(2, 2, [(0, 1), 5]), "allowed entry must be a pair, got 5"),
        (lambda: SystemGraph(2, {(0, 1, 1)}), r"edge must be a pair, got \(0, 1, 1\)"),
        (lambda: SystemGraph(2, {5}), "edge must be a pair, got 5"),
    ])
    def test_an_entry_of_the_wrong_shape_is_named(self, build, message):
        with pytest.raises(TypeError, match=rf"^{message}$"):
            build()


class TestSizeBound:
    """Structure sizes are held to one bound, MAX_VARIABLES, before any row is built."""

    @pytest.mark.parametrize("build, what", [
        # classify on this pattern once ended in "OverflowError: cannot fit 'int' into an
        # index-sized integer", and pattern_from_graph on this graph allocated without end.
        (lambda: StructurePattern.from_rows([[0]], 10**30), "num_variables"),
        (lambda: StructurePattern.from_rows([[10**30]]), "num_variables"),
        (lambda: StructurePattern(1, 10**30, [(0, 0)]), "num_variables"),
        (lambda: GeneralizedStructure(10**30, [[0]], ()), "num_variables"),
        (lambda: SystemGraph(10**30, ()), "num_nodes"),
    ])
    def test_a_size_past_the_bound_is_refused(self, build, what):
        with pytest.raises(ParseError, match=rf"^{what} \d+ exceeds the bound of 1000000$"):
            build()

    def test_equations_are_counted_against_the_bound_before_rows_are_built(self, monkeypatch):
        monkeypatch.setattr(structure, "MAX_VARIABLES", 3)
        with pytest.raises(ParseError, match="^num_equations 4 exceeds the bound of 3$"):
            StructurePattern(4, 1, [])
        assert StructurePattern(3, 3, []).shape == (3, 3)
        assert SystemGraph(3, ()).num_nodes == 3

    def test_files_share_the_bound(self):
        assert formats.MAX_VARIABLES is structure.MAX_VARIABLES == 1_000_000


# Indices above CPython's small-int cache (-5..256), so that each occurrence made by
# int(str(v)) is an int object of its own, as the ints that parsing or arithmetic make.
BIG = (300, 301, 399)


def fresh(v):
    return int(str(v))


def fresh_rows(count, tail=()):
    """``count`` rows of the indices BIG, each of its own int objects, then ``tail``."""
    return [[fresh(v) for v in BIG] + list(tail) for _ in range(count)]


def write(path, text):
    path.write_text(text)
    return path


SHARING_BUILDS = {
    "from_rows": lambda tmp: StructurePattern.from_rows(fresh_rows(3)),
    "pairs": lambda tmp: StructurePattern(3, 400, [(e, fresh(v)) for e in range(3) for v in BIG]),
    "generalized": lambda tmp: GeneralizedStructure(
        400, fresh_rows(3, ["z"]), (DerivedVariableSpec("z", [(fresh(300), 1.0)]),)),
    "pattern_from_graph": lambda tmp: pattern_from_graph(
        SystemGraph(400, {(fresh(i), fresh(j)) for i in BIG for j in BIG})),
    "knockout": lambda tmp: knockout(StructurePattern.from_rows(
        fresh_rows(3) + [[]] * 397, 400), 0),
    "with_entry": lambda tmp: StructurePattern.from_rows(
        [[fresh(300)], [fresh(301)]], 400).with_entry(1, fresh(300)),
    "json": lambda tmp: formats.parse_structure(write(tmp / "s.json", json.dumps(
        {"variables": 400, "equations": [{"vars": [v + 1 for v in BIG]}] * 3}))),
    "edges": lambda tmp: pattern_from_graph(formats.parse_structure(write(
        tmp / "s.edges", "".join(f"{i + 1} -> {j + 1}\n" for i in BIG for j in BIG)))),
    "grid": lambda tmp: formats.parse_structure(write(
        tmp / "s.pattern", ("".join("*" if v in BIG else "." for v in range(400)) + "\n") * 3)),
}


class TestSharedIndices:
    """A structure's rows hold one int object per distinct index, however it was built."""

    @pytest.mark.parametrize("build", SHARING_BUILDS.values(), ids=SHARING_BUILDS)
    def test_each_index_is_one_object(self, build, tmp_path):
        rows = build(tmp_path).rows()
        ints = [v for row in rows for v in row if not isinstance(v, str)]
        assert len(ints) > len(set(ints)) and min(ints) > 256  # an index the rows repeat
        first = {}
        assert all(first.setdefault(v, v) is v for v in ints)

    def test_a_pattern_retains_one_int_per_index(self):
        # 10,000 rows of 4 or 5 indices among 10,000: the rows' tuples take 0.78 MiB
        # and their 40,021 entries 1.2 MiB more as ints of their own (1.95 MiB
        # retained), or 0.3 MiB as one int per index (1.06 MiB retained).
        n = 10_000
        tracemalloc.start()
        try:
            rows = [{i, (i + 1) % n, (i + 2) % n, (i + 3) % n} | ({i + n // 2} if i < 21 else set())
                    for i in range(n)]
            assert sum(map(len, rows)) == 40_021
            pattern = StructurePattern.from_rows(rows, n)
            del rows
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pattern.num_variables == n
        assert retained <= 1.5 * 2**20

    @pytest.mark.parametrize("build", [
        lambda: StructurePattern(1, 10**6, [(0, 999_999)]),
        lambda: StructurePattern.from_rows([[999_999]]),
    ])
    def test_sharing_allocates_by_entries_not_by_size(self, build):
        # A table of every index below N, list(range(N)), would take 39 MiB here.
        tracemalloc.start()
        try:
            pattern = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pattern.rows() == ((999_999,),)
        assert peak < 2**20


class TestPatternFromGraph:
    def test_cep_graph_reproduces_published_pattern(self):
        # Explicit self-loop on node 3; diagonal is not policy-added.
        g = SystemGraph(3, edges_1based([(1, 3), (3, 1), (2, 3), (3, 2), (3, 3)]),
                        include_diagonal=False)
        p = pattern_from_graph(g)
        assert p == get_dataset("cep3").structure
        assert p.rows() == ((2,), (2,), (0, 1, 2))

    def test_include_diagonal_adds_full_diagonal(self):
        g = SystemGraph(3, edges_1based([(1, 3)]), include_diagonal=True)
        p = pattern_from_graph(g)
        assert p.allowed == frozenset({(2, 0), (0, 0), (1, 1), (2, 2)})

    def test_empty_graph_gives_empty_pattern(self):
        g = SystemGraph(3, frozenset(), include_diagonal=False)
        assert pattern_from_graph(g).allowed == frozenset()

    def test_trophic_graph(self):
        pairs = [(a, b) for a in (1, 2, 3) for b in (4, 5)]
        both = pairs + [(b, a) for a, b in pairs]
        g = SystemGraph(5, edges_1based(both), include_diagonal=False)
        assert pattern_from_graph(g) == get_dataset("trophic5").structure

    def test_edge_outside_range_rejected(self):
        with pytest.raises(StructureError):
            SystemGraph(2, frozenset({(0, 2)}))

    def test_a_graph_without_nodes_is_refused(self):
        with pytest.raises(StructureError, match=r"^graph needs at least one node$"):
            SystemGraph(0, ())

    @pytest.mark.parametrize("build, message", [
        (lambda: SystemGraph(2.5, {(0, 1)}), "num_nodes must be an integer, got 2.5"),
        (lambda: SystemGraph(True, set()), "num_nodes must be an integer, got True"),
        (lambda: SystemGraph(2, {(True, 0)}), r"edge \(True, 0\): node must be an integer, got True"),
        # pattern_from_graph once failed on this graph with an unnamed
        # "list indices must be integers or slices, not float".
        (lambda: SystemGraph(2, {(0, 1.5)}), r"edge \(0, 1.5\): node must be an integer, got 1.5"),
    ])
    def test_a_node_that_is_not_an_integer_is_refused(self, build, message):
        with pytest.raises(TypeError, match=rf"^{message}$"):
            build()

    def test_an_edge_given_as_a_list_is_a_pair(self):
        # Once an unnamed "unhashable type: 'list'", where a pattern took a list pair.
        g = SystemGraph(2, [[0, 1], (1, 1)])
        assert g.edges == frozenset({(0, 1), (1, 1)})
        assert g == SystemGraph(2, {(0, 1), (1, 1)})
        assert pattern_from_graph(g) == StructurePattern(2, 2, [[1, 0], [1, 1]])

    def test_numpy_integer_nodes_are_stored_as_int(self):
        g = SystemGraph(np.int64(2), {(np.int64(0), np.uint8(1)), (1, np.int32(1))})
        assert type(g.num_nodes) is int
        assert g.edges == frozenset({(0, 1), (1, 1)})
        assert {type(v) for edge in g.edges for v in edge} == {int}
        assert pattern_from_graph(g).rows() == ((), (0, 1))


@st.composite
def graphs(draw, max_nodes=6, allow_loops=True):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pool = [(i, j) for i in range(n) for j in range(n) if allow_loops or i != j]
    edges = draw(st.frozensets(st.sampled_from(pool))) if pool else frozenset()
    return SystemGraph(n, frozenset(edges), include_diagonal=False)


class TestGraphPatternRoundTrip:
    @given(graphs())
    def test_exclude_diagonal_round_trip(self, g):
        back = graph_from_pattern(pattern_from_graph(g), include_diagonal=False)
        assert back.edges == g.edges
        assert back.num_nodes == g.num_nodes

    @given(graphs(allow_loops=False))
    def test_include_diagonal_round_trip(self, g):
        g_inc = SystemGraph(g.num_nodes, g.edges, include_diagonal=True)
        back = graph_from_pattern(pattern_from_graph(g_inc), include_diagonal=True)
        assert back.edges == g.edges

    def test_rectangular_pattern_has_no_graph(self):
        p = StructurePattern(2, 3, frozenset({(0, 0)}))
        with pytest.raises(UnsupportedOperationError):
            graph_from_pattern(p)

    def test_include_diagonal_needs_every_diagonal_entry(self):
        p = StructurePattern.from_rows([[0, 1], [0], [2]])
        with pytest.raises(StructureError, match=(
                r"^include-diagonal policy recorded but diagonal entries missing at \[1\]$")):
            graph_from_pattern(p, include_diagonal=True)


class TestKnockout:
    def test_identity_pattern(self):
        ident = StructurePattern.from_rows([{0}, {1}, {2}])
        assert knockout(ident, 1) == StructurePattern.from_rows([{0}, {1}])

    def test_jakstat_drop_terminal_node(self):
        jak = get_dataset("jakstat").structure
        ko = knockout(jak, 11)
        # The first 11 equations never referenced x12, so their rows survive
        # unchanged.
        assert ko.rows() == jak.rows()[:11]
        assert ko.shape == (11, 11)

    def test_single_node_system_rejected(self):
        p = StructurePattern(1, 1, frozenset({(0, 0)}))
        with pytest.raises(StructureError, match="empty system"):
            knockout(p, 0)

    def test_non_square_rejected(self):
        p = StructurePattern(2, 3, frozenset())
        with pytest.raises(UnsupportedOperationError):
            knockout(p, 0)

    def test_node_out_of_range(self):
        p = StructurePattern.from_rows([{0}, {1}])
        with pytest.raises(StructureError):
            knockout(p, 5)

    def test_numpy_integer_node(self):
        jak = get_dataset("jakstat").structure
        assert knockout(jak, np.int64(1)) == knockout(jak, 1)

    @pytest.mark.parametrize("node", [1.5, 2.0, True, np.True_, "1"])
    def test_non_integer_node_rejected(self, node):
        # 1.5 once compacted rows 1 and 2 into one row and removed no node.
        with pytest.raises(TypeError, match="knockout node must be an integer"):
            knockout(get_dataset("jakstat").structure, node)

    @given(graphs(max_nodes=6),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=5))
    def test_knockouts_commute(self, g, i, j):
        p = pattern_from_graph(g)
        n = p.num_equations
        if n < 3:
            return
        i, j = i % n, j % n
        if i == j:
            return
        # Removing i shifts later indices down by one.
        ij = knockout(knockout(p, i), j - (j > i))
        ji = knockout(knockout(p, j), i - (i > j))
        assert ij == ji


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


def original_pattern(gs):
    """The pattern of each equation's original variables: its row without derived names."""
    return StructurePattern.from_rows(
        [[s for s in row if not isinstance(s, str)] for row in gs.rows()], gs.num_variables)


class TestDerivedVariables:
    def test_spec_requires_nonzero_coefficients(self):
        with pytest.raises(StructureError):
            DerivedVariableSpec("z", ((0, 0.0),))
        with pytest.raises(StructureError):
            DerivedVariableSpec("z", ())

    def test_spec_refuses_a_negative_index(self):
        with pytest.raises(StructureError, match=r"^derived variable 'z': bad index -1$"):
            DerivedVariableSpec("z", [(-1, 1.0)])

    # An int too large for a float once escaped as an OverflowError.
    @pytest.mark.parametrize("weight", [float("inf"), float("-inf"), float("nan"),
                                        10**400, -10**400],
                             ids=["inf", "-inf", "nan", "10**400", "-10**400"])
    def test_spec_rejects_non_finite_weights(self, weight):
        with pytest.raises(StructureError, match=(
                r"^derived variable 'z': coefficient on x2 must be finite and nonzero$")):
            DerivedVariableSpec("z", ((0, 1.0), (1, weight)))

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(StructureError, match="more than once"):
            GeneralizedStructure(
                num_variables=2,
                dependencies=(frozenset({"z"}),),
                derived=(
                    DerivedVariableSpec("z", ((0, 1.0),)),
                    DerivedVariableSpec("z", ((1, 1.0),)),
                ),
            )

    def test_undeclared_reference_rejected(self):
        with pytest.raises(StructureError, match="undeclared"):
            GeneralizedStructure(
                num_variables=2,
                dependencies=(frozenset({"w"}),),
                derived=(),
            )

    def test_base_pattern_only_holds_original_variables(self):
        gs = example5_structure()
        assert original_pattern(gs).rows() == ((0, 1, 2, 3), (0, 1, 2, 3), (), ())

    def test_effective_pattern_expands_supports(self):
        eff = effective_pattern(example5_structure())
        assert eff.rows() == ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1), (0, 1))

    def test_effective_pattern_without_derived_equals_base(self):
        gs = GeneralizedStructure(
            num_variables=3,
            dependencies=(frozenset({0, 2}), frozenset({1})),
            derived=(),
        )
        assert effective_pattern(gs) == original_pattern(gs)

    def test_single_derived_singleton_support(self):
        gs = GeneralizedStructure(
            num_variables=1,
            dependencies=(frozenset({"z"}),),
            derived=(DerivedVariableSpec("z", ((0, 3.0),)),),
        )
        assert effective_pattern(gs).rows() == ((0,),)

    def test_row_symbol_order(self):
        gs = GeneralizedStructure(
            num_variables=3,
            dependencies=(frozenset({2, 0, "z"}),),
            derived=(DerivedVariableSpec("z", ((1, 1.0),)),),
        )
        assert gs.rows()[0] == (0, 2, "z")

    def test_numpy_integer_index_is_stored_as_int(self):
        # np.int64(2) == 2 and hashes alike, so the structures are equal;
        # both must read the same rows.
        z = DerivedVariableSpec("z", ((1, 1.0),))
        gs = GeneralizedStructure(3, (frozenset({np.int64(2), "z", 0}), frozenset()), (z,))
        assert gs.rows() == ((0, 2, "z"), ())
        assert [type(sym) for sym in gs.rows()[0]] == [int, int, str]
        assert original_pattern(gs).rows() == ((0, 2), ())
        assert gs == GeneralizedStructure(3, (frozenset({2, "z", 0}), frozenset()), (z,))

    @pytest.mark.parametrize("bad", [1.0, np.float64(1.0), True, None])
    def test_non_integer_index_refused(self, bad):
        with pytest.raises(TypeError, match="equation 2: variable index must be an integer"):
            GeneralizedStructure(3, (frozenset({0}), frozenset({bad})), ())

    @pytest.mark.parametrize("coefficients, bad", [
        (((1.5, 1.0), (0, 2.0)), "1.5"),
        (((0, 1.0), (True, 2.0)), "True"),
        # A bool equal to an earlier index is refused, not merged into it.
        (((1, 1.0), (True, 2.0)), "True"),
        (((np.float64(2.0), 1.0),), r"np.float64\(2.0\)"),
        ((("1", 1.0),), "'1'"),
    ])
    def test_spec_refuses_a_non_integer_index(self, coefficients, bad):
        with pytest.raises(TypeError, match=(
                rf"^derived variable 'z': variable index must be an integer, got {bad}$")):
            DerivedVariableSpec("z", coefficients)

    @pytest.mark.parametrize("build, message", [
        # Each once raised an error that named nothing, or was accepted.
        (lambda: DerivedVariableSpec("z", [5]),
         "derived variable 'z': coefficient must be a pair, got 5"),
        (lambda: DerivedVariableSpec("z", [(0,)]),
         r"derived variable 'z': coefficient must be a pair, got \(0,\)"),
        (lambda: DerivedVariableSpec("z", [(0, "1.5")]),
         "derived variable 'z': weight must be a real number, got '1.5'"),
        (lambda: DerivedVariableSpec("z", [(0, 1.0), (1, b"2")]),
         "derived variable 'z': weight must be a real number, got b'2'"),
        (lambda: DerivedVariableSpec("z", [(0, True)]),
         "derived variable 'z': weight must be a real number, got True"),
        (lambda: DerivedVariableSpec(5, [(0, 1.0)]),
         "derived variable name must be a nonempty str, got 5"),
        (lambda: DerivedVariableSpec("", [(0, 1.0)]),
         "derived variable name must be a nonempty str, got ''"),
        (lambda: GeneralizedStructure(2, [[0]], [5]),
         "a derived variable must be a DerivedVariableSpec, got 5"),
    ])
    def test_a_bad_declaration_is_named(self, build, message):
        with pytest.raises(TypeError, match=rf"^{message}$"):
            build()

    @pytest.mark.parametrize("coefficients, index", [([(0, 1.0), (0, 2.0)], 0),
                                                     ([(2, 1.0), (np.int64(2), 1.0)], 2)])
    def test_an_index_given_twice_is_refused(self, coefficients, index):
        # The second weight once replaced the first.
        with pytest.raises(StructureError, match=(
                rf"^derived variable 'z': variable index {index} has two coefficients$")):
            DerivedVariableSpec("z", coefficients)

    def test_derived_support_beyond_the_variables_refused(self):
        z = DerivedVariableSpec("z", ((0, 1.0), (2, 1.0)))
        with pytest.raises(StructureError, match=(
                r"^derived variable 'z' references x3 but the system has 2 variables$")):
            GeneralizedStructure(2, [["z"]], [z])

    def test_spec_weights_are_stored_as_float(self):
        spec = DerivedVariableSpec("z", [[1, np.float32(0.5)], (0, np.int64(3))])
        assert spec.coefficients == ((0, 3.0), (1, 0.5))
        assert {type(c) for _, c in spec.coefficients} == {float}

    def test_spec_stores_numpy_integer_indices_as_int(self):
        spec = DerivedVariableSpec("z", ((np.int64(2), 1.0), (np.uint8(0), 3.0)))
        assert spec.coefficients == ((0, 3.0), (2, 1.0))
        assert [type(i) for i in spec.support] == [int, int]

    def test_zero_equations_refused(self):
        with pytest.raises(StructureError, match="M >= 1 and N >= 1, got 0x2"):
            GeneralizedStructure(2, (), ())

    def test_both_kinds_answer_rows_and_derived(self):
        p = StructurePattern.from_rows([[1], [0, 1]], 2)
        assert p.derived == ()
        gs = example5_structure()
        assert gs.derived == (DerivedVariableSpec("z", ((0, 1.0), (1, 2.0))),)
        assert gs.rows()[2:] == (("z",), ("z",))

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    def test_effective_pattern_monotone_in_dependencies(self, eq, var):
        gs = example5_structure()
        before = effective_pattern(gs).allowed
        deps = list(gs.dependencies)
        deps[eq] = deps[eq] | {var}
        grown = GeneralizedStructure(4, tuple(deps), gs.derived)
        assert before <= effective_pattern(grown).allowed
