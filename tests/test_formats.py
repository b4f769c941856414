import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrank import structure as structure_module
from structrank import (
    GeneralizedStructure,
    ParseError,
    StructureError,
    StructurePattern,
    SystemGraph,
    parse_structure,
    pattern_from_graph,
    structure_from_json_dict,
    structure_to_json_dict,
    system_from_terms,
    to_dot,
)
from structrank.cli import main
from structrank.datasets import DATASETS, get_dataset
from structrank.formats import parse_basis, parse_input
from structrank.polysys import StructuredPolySystem
from structrank.structure import DerivedVariableSpec


CEP_JSON = {
    "variables": 3,
    "equations": [
        {"name": "f1", "vars": [3]},
        {"name": "f2", "vars": [3]},
        {"name": "f3", "vars": [1, 2, 3]},
    ],
}


class TestJsonStructureFiles:
    def test_plain_pattern(self, tmp_path):
        path = tmp_path / "cep.json"
        path.write_text(json.dumps(CEP_JSON))
        assert parse_structure(path) == get_dataset("cep3").structure

    def test_derived_variables_yield_generalized_structure(self, tmp_path):
        data = {
            "variables": 4,
            "equations": [
                {"name": "f1", "vars": [1, 2, 3, 4]},
                {"name": "f2", "vars": [1, 2, 3, 4]},
                {"name": "f3", "derived": ["z"]},
                {"name": "f4", "derived": ["z"]},
            ],
            "derived_vars": [{"name": "z", "coeffs": {"1": 1.0, "2": 2.0}}],
        }
        path = tmp_path / "agg.json"
        path.write_text(json.dumps(data))
        parsed = parse_structure(path)
        assert isinstance(parsed, GeneralizedStructure)
        assert parsed == get_dataset("example5").structure

    def test_self_loops_add_diagonal(self, tmp_path):
        data = {
            "variables": 2,
            "equations": [{"name": "f1", "vars": [2]}, {"name": "f2", "vars": [1]}],
            "self_loops": True,
        }
        path = tmp_path / "loops.json"
        path.write_text(json.dumps(data))
        parsed = parse_structure(path)
        assert parsed.allowed == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_unknown_top_level_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CEP_JSON, "extra": 1}))
        with pytest.raises(ParseError, match="unknown field"):
            parse_structure(path)

    def test_unknown_equation_field_reported_with_position(self, tmp_path):
        data = {"variables": 1, "equations": [{"name": "f1", "vars": [1], "oops": 2}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=r"equations\[0\]"):
            parse_structure(path)

    def test_variable_index_out_of_range(self, tmp_path):
        data = {"variables": 2, "equations": [{"name": "f1", "vars": [5]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=r"equations\[0\].vars\[0\]"):
            parse_structure(path)

    @pytest.mark.parametrize("data, where", [
        ({"variables": True, "equations": [{"vars": [1]}]}, "variables"),
        ({"variables": 1, "equations": [{"vars": [True]}]}, r"equations\[0\].vars\[0\]"),
        ({"variables": 2, "equations": [{"vars": [1]}, {"vars": [2, False]}]},
         r"equations\[1\].vars\[1\]"),
    ])
    def test_boolean_is_not_an_integer(self, tmp_path, data, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=where):
            parse_structure(path)

    def test_undeclared_derived_name(self, tmp_path):
        data = {"variables": 1, "equations": [{"name": "f1", "derived": ["w"]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="undeclared"):
            parse_structure(path)

    # Each once raised an internal TypeError, or, as a string, was read as a
    # list of one-character names.
    @pytest.mark.parametrize("value", [1, None, False, 0.5, "z", {"z": 1}],
                             ids=["int", "null", "false", "float", "string", "object"])
    def test_derived_that_is_not_a_list(self, tmp_path, value):
        data = {"variables": 3, "equations": [{"name": "f1", "vars": [1], "derived": value}],
                "derived_vars": [{"name": "z", "coeffs": {"1": 1.0}}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=r"^.*: equations\[0\]: 'derived' must be a list$"):
            parse_structure(path)

    @pytest.mark.parametrize("value", [0.5, 1, None, True, "z", {"name": "z"}],
                             ids=["float", "int", "null", "true", "string", "object"])
    def test_derived_vars_that_is_not_a_list(self, tmp_path, value):
        data = {"variables": 3, "equations": [{"name": "f1", "vars": [1]}], "derived_vars": value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=r"^.*: derived_vars: 'derived_vars' must be a list$"):
            parse_structure(path)

    @pytest.mark.parametrize("weight", ["1e400", "-1e400", "Infinity", "NaN", "1" + "0" * 400],
                             ids=["1e400", "-1e400", "Infinity", "NaN", "400-digit-int"])
    def test_non_finite_derived_coefficient_rejected(self, tmp_path, weight):
        path = tmp_path / "bad.json"
        path.write_text('{"variables": 2, "equations": [{"derived": ["z"]}],'
                        ' "derived_vars": [{"name": "z", "coeffs": {"1": %s}}]}' % weight)
        with pytest.raises(ParseError, match=r"derived_vars\[0\].*finite"):
            parse_structure(path)

    def test_two_keys_naming_one_derived_coefficient(self, tmp_path):
        data = {"variables": 2, "equations": [{"vars": [1], "derived": ["z"]}],
                "derived_vars": [{"name": "z", "coeffs": {"1": 1.0, "01": 2.0}}]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="'01' names x1 again") as raised:
            parse_structure(path)
        assert raised.value.where == "derived_vars[0]"

    @pytest.mark.parametrize("text, key", [
        ('{"variables": 2, "equations": [{"vars": [1]}], "variables": 3}', "variables"),
        ('{"variables": 2, "equations": [{"vars": [1], "vars": [2]}]}', "vars"),
        ('{"variables": 2, "equations": [{"derived": ["z"]}],'
         ' "derived_vars": [{"name": "z", "coeffs": {"1": 1, "1": 2}}]}', "1"),
    ], ids=["top-level", "equation", "coeffs"])
    def test_duplicate_key_rejected(self, tmp_path, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"duplicate key '{key}'") as raised:
            parse_structure(path)
        assert raised.value.path == path

    def test_constructor_errors_are_parse_errors(self, tmp_path):
        # Every structure the schema accepts is one the constructors accept.
        base = {"variables": 2, "equations": [{"vars": [1], "derived": ["z"]}]}
        z1, z2 = {"name": "z", "coeffs": {"1": 1}}, {"name": "z", "coeffs": {"2": 1}}
        for derived_vars in ([z1, z2], [{"name": "z", "coeffs": {"3": 1}}],
                             [{"name": "z", "coeffs": {"2": -0.0}}]):
            path = tmp_path / "s.json"
            path.write_text(json.dumps({**base, "derived_vars": derived_vars}))
            with pytest.raises(ParseError, match=r"derived_vars\[\d\]"):
                parse_structure(path)

    @pytest.mark.parametrize("data, rows", [
        (CEP_JSON, ((2,), (2,), (0, 1, 2))),
        ({"variables": 2, "self_loops": True, "equations": [{"vars": [2], "derived": ["z"]}, {}],
          "derived_vars": [{"name": "z", "coeffs": {"1": 1.0}}]}, ((0, 1, "z"), (1,))),
    ])
    def test_the_rows_are_checked_once(self, data, rows, monkeypatch):
        # A file with derived variables had its rows checked by from_rows, then
        # again by GeneralizedStructure.
        stores = []
        store = structure_module._store

        def counted(*args):
            stores.append(args)
            return store(*args)

        monkeypatch.setattr(structure_module, "_store", counted)
        parsed = structure_from_json_dict(data)
        assert (len(stores), parsed.rows()) == (1, rows)

    def test_fifty_thousand_derived_names_are_checked_in_linear_time(self):
        # Each name was once compared with every earlier one, in the reader and
        # again in GeneralizedStructure: minutes for this file of about 2 MB.
        derived_vars = [{"name": f"d{i}", "coeffs": {"1": 1}} for i in range(50_000)]
        data = {"variables": 2, "equations": [{"vars": [2], "derived": ["d0"]}],
                "derived_vars": derived_vars}
        start = time.perf_counter()
        structure = structure_from_json_dict(data)
        assert len(structure.derived) == 50_000
        with pytest.raises(ParseError, match=(r"^derived_vars\[50000\]: "
                                              r"derived variable 'd17' is declared twice$")):
            structure_from_json_dict({**data, "derived_vars": [*derived_vars, derived_vars[17]]})
        twice = (*structure.derived, structure.derived[9], structure.derived[17])
        with pytest.raises(StructureError, match=(
                r"^derived variables declared more than once: \['d17', 'd9'\]$")):
            GeneralizedStructure(2, structure.dependencies, twice)
        assert time.perf_counter() - start < 15.0

    def test_syntax_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "variables": 3,\n]')
        with pytest.raises(ParseError, match="line 3"):
            parse_structure(path)

    @pytest.mark.parametrize("vars_1, where, message", [
        # The first bad entry is named, by whichever check it fails first.
        ([1, 2.0, 9], "vars[1]", "variable index must be an integer, got 2.0"),
        ([1, 9, 2.0], "vars[1]", "variable index 9 outside 1..3"),
        ([3, 0], "vars[1]", "variable index 0 outside 1..3"),
        ([-2, 1], "vars[0]", "variable index -2 outside 1..3"),
        ([2, True], "vars[1]", "variable index must be an integer, got True"),
        (["1"], "vars[0]", "variable index must be an integer, got '1'"),
        ([1, None], "vars[1]", "variable index must be an integer, got None"),
        ([1, [2]], "vars[1]", "variable index must be an integer, got [2]"),
    ])
    def test_bad_variable_index_is_named(self, vars_1, where, message):
        data = {"variables": 3, "equations": [{"vars": [1, 2]}, {"vars": vars_1}]}
        with pytest.raises(ParseError) as raised:
            structure_from_json_dict(data, path="s.json")
        assert str(raised.value) == f"s.json: equations[1].{where}: {message}"

    def test_variable_indices_read_zero_based(self):
        data = {"variables": 4, "equations": [{"vars": [4, 1, 4]}, {"vars": []}]}
        assert structure_from_json_dict(data).rows() == ((0, 3), ())

    @given(n=st.integers(1, 6), equations=st.lists(st.lists(st.one_of(
        st.integers(1, 6), st.integers(-3, 9), st.booleans(), st.floats(),
        st.text(max_size=2), st.none(), st.lists(st.integers(1, 3), max_size=2)), max_size=4),
        min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_the_first_bad_entry_in_file_order_is_named(self, n, equations):
        data = {"variables": n, "equations": [{"vars": vs} for vs in equations]}
        bad = next(((e, j, v) for e, vs in enumerate(equations) for j, v in enumerate(vs)
                    if type(v) is not int or not 1 <= v <= n), None)
        if bad is None:
            rows = tuple(tuple(sorted({v - 1 for v in vs})) for vs in equations)
            assert structure_from_json_dict(data).rows() == rows
            return
        e, j, v = bad
        message = (f"variable index {v} outside 1..{n}" if type(v) is int
                   else f"variable index must be an integer, got {v!r}")
        with pytest.raises(ParseError) as raised:
            structure_from_json_dict(data, path="s.json")
        assert str(raised.value) == f"s.json: equations[{e}].vars[{j}]: {message}"

    def test_a_numpy_integer_index_is_refused_not_read_zero_based(self):
        data = {"variables": 3, "equations": [{"vars": [1, np.int64(2)]}]}
        with pytest.raises(ParseError) as raised:
            structure_from_json_dict(data)
        assert raised.value.where == "equations[0].vars[1]"
        assert raised.value.message == f"variable index must be an integer, got {np.int64(2)!r}"

    def test_a_declared_derived_name_in_vars_is_refused(self, tmp_path, capsys):
        data = {"variables": 2, "equations": [{"vars": [1, "z"]}],
                "derived_vars": [{"name": "z", "coeffs": {"1": 1}}]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert main(["show", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: equations[0].vars[1]: variable index must be an integer, got 'z'\n")

    @pytest.mark.parametrize("equations, where, message", [
        # Every equation's shape and derived names are checked before any index.
        ([{"vars": [9], "derived": ["w"]}], "equations[0].derived[0]",
         "undeclared derived variable 'w'"),
        ([{"vars": [9]}, {"vars": 1}], "equations[1]", "'vars' must be a list"),
        ([{"vars": [2.0]}, {"vars": [1], "oops": 1}], "equations[1]", "unknown field(s) ['oops']"),
        # Among the indices, the first bad one in file order.
        ([{"vars": [1, 9]}, {"vars": [True]}], "equations[0].vars[1]",
         "variable index 9 outside 1..3"),
    ])
    def test_a_file_with_several_faults_names_them_in_order(self, equations, where, message):
        with pytest.raises(ParseError) as raised:
            structure_from_json_dict({"variables": 3, "equations": equations})
        assert (raised.value.where, raised.value.message) == (where, message)

    def test_round_trip_pattern(self):
        pattern = get_dataset("robust4").structure
        assert structure_from_json_dict(structure_to_json_dict(pattern)) == pattern

    def test_round_trip_generalized(self):
        gs = get_dataset("example5").structure
        assert structure_from_json_dict(structure_to_json_dict(gs)) == gs


class TestEdgeListFiles:
    def test_published_three_node_graph(self, tmp_path):
        path = tmp_path / "cep.edges"
        path.write_text("selfloops: off\n1 <-> 3\n2 <-> 3\n3 -> 3\n")
        graph = parse_structure(path)
        assert isinstance(graph, SystemGraph)
        assert pattern_from_graph(graph) == get_dataset("cep3").structure

    def test_selfloops_on_adds_diagonal(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("selfloops: on\n1 -> 2\n")
        pattern = pattern_from_graph(parse_structure(path))
        assert pattern.allowed == frozenset({(1, 0), (0, 0), (1, 1)})

    def test_nodes_header_allows_isolated_nodes(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("nodes: 4\n1 -> 2\n")
        assert parse_structure(path).num_nodes == 4

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# web\n\n1 -> 2  # feeding link\n")
        assert parse_structure(path).edges == frozenset({(0, 1)})

    def test_bad_edge_line_reports_line_number(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 -> 2\n2 => 3\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_structure(path)

    @pytest.mark.parametrize("text, line, message", [
        ("1 -> 2\nselfloops: maybe\n", 2, "selfloops must be 'on' or 'off'"),
        ("nodes: 0\n1 -> 2\n", 1, "nodes must be a positive integer"),
        ("nodes: x\n", 1, "nodes must be a positive integer"),
        ("1 -> 2\n\n0 <-> 1\n", 3, "node indices are 1-based"),
    ])
    def test_bad_header_or_node_reports_line_number(self, tmp_path, text, line, message):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(ParseError) as raised:
            parse_structure(path)
        assert (raised.value.path, raised.value.line, raised.value.message) == (path, line, message)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError):
            parse_structure(path)


class TestPatternMatrixFiles:
    def test_slash_separated_rows(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("00*/00*/***\n")
        assert parse_structure(path) == get_dataset("cep3").structure

    def test_newline_separated_rows_with_dots(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("..*\n..*\n***\n")
        assert parse_structure(path) == get_dataset("cep3").structure

    def test_an_empty_row_between_slashes_is_skipped(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("*0//0*\n")
        assert parse_structure(path) == StructurePattern.from_rows([{0}, {1}])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("0*\n***\n")
        with pytest.raises(ParseError, match="width"):
            parse_structure(path)

    def test_bad_characters_rejected(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("0x*\n")
        with pytest.raises(ParseError):
            parse_structure(path)

    def test_empty_pattern_rejected(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("\n\n")
        with pytest.raises(ParseError) as raised:
            parse_structure(path)
        assert (raised.value.path, raised.value.message) == (path, "empty pattern")

    def test_a_row_past_the_bound_names_its_file_and_line(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("# one row of 1,000,001 entries\n" + "*" * 1_000_001 + "\n")
        with pytest.raises(ParseError) as raised:
            parse_structure(path)
        assert (raised.value.path, raised.value.line, raised.value.message) == (
            path, 2, "row width 1000001 exceeds the bound of 1000000")


class TestFormatDetection:
    def test_sniffs_json_without_extension(self, tmp_path):
        path = tmp_path / "noext"
        path.write_text(json.dumps(CEP_JSON))
        assert parse_structure(path) == get_dataset("cep3").structure

    def test_sniffs_edges_without_extension(self, tmp_path):
        path = tmp_path / "noext"
        path.write_text("1 -> 2\n")
        assert isinstance(parse_structure(path), SystemGraph)

    def test_sniffs_pattern_without_extension(self, tmp_path):
        path = tmp_path / "noext"
        path.write_text("00*/00*/***\n")
        assert parse_structure(path) == get_dataset("cep3").structure

    def test_unknown_explicit_format_rejected(self, tmp_path):
        path = tmp_path / "p.pattern"
        path.write_text("0*\n*0\n")
        with pytest.raises(ParseError) as raised:
            parse_structure(path, "yaml")
        assert raised.value.message == "unknown format 'yaml' (expected json, edges, or pattern)"

    def test_explicit_format_overrides_extension(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text("0*\n*0\n")
        assert parse_structure(path, fmt="pattern").shape == (2, 2)

    def test_undetectable_content_rejected(self, tmp_path):
        path = tmp_path / "mystery"
        path.write_text("hello world\n")
        with pytest.raises(ParseError, match="format"):
            parse_structure(path)


class TestNumpyIntegerRows:
    def test_pattern_rows_are_written_in_full(self):
        p = StructurePattern.from_rows([[np.int64(0), 1], [1]], 2)
        d = structure_to_json_dict(p)
        assert [eq["vars"] for eq in d["equations"]] == [[1, 2], [2]]
        assert structure_from_json_dict(json.loads(json.dumps(d))) == p


class TestDotExport:
    def test_square_pattern_renders_directed_edges(self):
        dot = to_dot(get_dataset("cep3").structure)
        assert dot.startswith("digraph")
        assert "n1 -> n3;" in dot
        assert "n3 -> n3;" in dot

    def test_rectangular_pattern_renders_bipartite(self):
        dot = to_dot(get_dataset("robotarm").structure)
        assert "x1 -> f1;" in dot
        assert "f3" in dot

    def test_graph_with_self_loops_notes_the_policy(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("selfloops: on\n1 -> 2\n")
        assert to_dot(parse_structure(path)).splitlines()[:2] == [
            "digraph system {", "  // self-loop policy: every node depends on itself"]

    def test_generalized_structure_shows_derived_node(self):
        dot = to_dot(get_dataset("example5").structure)
        assert "d_z" in dot
        assert 'x2 -> d_z [label="2"];' in dot

    # A DOT token: a quoted string with its escapes, an ID, an edge or punctuation.
    TOKEN = re.compile(r'\s*("(?:[^"\\]|\\.)*"|\w+|->|[\[\]{};=,])')

    @pytest.mark.parametrize("name", ["a b", 'z"; x1 -> x2; "q', "back\\slash", "new\nline"])
    def test_a_derived_name_that_is_no_identifier_is_quoted(self, name):
        # Written bare, "a b" made the node d_a and a stray b, and the second
        # name closed its label and added the edge x1 -> x2.
        structure = GeneralizedStructure(2, (frozenset({name}), frozenset({0})),
                                         (DerivedVariableSpec(name, ((0, 1.0), (1, 2.0))),))
        dot, tokens, at = to_dot(structure), [], 0
        while dot[at:].strip():
            match = self.TOKEN.match(dot, at)
            assert match, f"no DOT token at {dot[at:]!r}"
            tokens.append(match[1])
            at = match.end()

        def text(token):
            if not token.startswith('"'):
                return token
            return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], token[1:-1])

        node = f"d_{name}"
        edges = [(text(tokens[k - 1]), text(tokens[k + 1]))
                 for k, token in enumerate(tokens) if token == "->"]
        assert edges == [("x1", node), ("x2", node), (node, "f1"), ("x1", "f2")]
        labels = [text(tokens[k + 2]) for k, token in enumerate(tokens) if token == "label"]
        assert name in labels


class TestOtherPayloads:
    def test_basis_file(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"basis": [[[1.0, 0.0], [0.0, 0.0]]]}))
        assert len(parse_basis(path)) == 1

    def test_basis_rejects_non_numbers(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"basis": [[["x"]]]}))
        with pytest.raises(ParseError, match=r"basis\[0\]\[0\]\[0\]"):
            parse_basis(path)

    @pytest.mark.parametrize("basis", [
        [[[1e308, 1e308]], [[1e308, 1e308]]],
        [[[1.0, 0.0], [0.0, 1e308]], [[0.0, 0.0], [0.0, -9e307]]],
        [[[10 ** 308]], [[10 ** 308]]],
    ], ids=["floats", "one-entry-with-signs", "integers"])
    def test_basis_whose_combinations_can_overflow(self, tmp_path, basis):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"basis": basis}))
        with pytest.raises(ParseError, match="basis: entries at one position sum past"):
            parse_basis(path)

    @pytest.mark.parametrize("basis, where", [
        ([[[1, 0], [0, 1]], [[1, 0], [0]]], r"basis\[1\]\[1\]: "),
        ([[[1, 0], [0, 1]], [[1, 0]]], r"basis\[1\]: "),
        ([[[1, 0, 2], [0, 1]]], r"basis\[0\]\[1\]: "),
    ])
    def test_basis_rejects_ragged_shapes(self, tmp_path, basis, where):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"basis": basis}))
        with pytest.raises(ParseError, match=where):
            parse_basis(path)

    @pytest.mark.parametrize("name", [name for name, d in DATASETS.items() if d.has_system])
    def test_system_file_round_trip(self, name, tmp_path):
        system = get_dataset(name).system
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(system.to_json_dict()))
        back = parse_input(path)
        assert back.to_json_dict() == system.to_json_dict()
        for eq, ref in zip(back.equations, system.equations, strict=True):
            assert eq.coefficients.tobytes() == ref.coefficients.tobytes()

    def test_input_holding_a_system_or_a_structure(self, tmp_path):
        system = get_dataset("eqcep1").system
        path = tmp_path / "input.json"
        path.write_text(json.dumps(system.to_json_dict()))
        assert parse_input(path).to_json_dict() == system.to_json_dict()
        path.write_text(json.dumps(CEP_JSON))
        assert parse_input(path) == parse_structure(path)

    def test_system_file_requires_degree(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"structure": CEP_JSON, "equations": []}))
        with pytest.raises(ParseError, match="degree"):
            parse_input(path)


# One equation over x1, x2 at degree 1: the base that each bad file alters.
LINE_SYSTEM = {
    "structure": {"variables": 2, "equations": [{"vars": [1, 2]}]},
    "degree": 1,
    "seed": None,
    "distribution": "explicit",
    "equations": [{"1,0": 1.0, "0,1": -1.0}],
}


class TestSystemFiles:
    """Each malformed system file exits 2 from the CLI, naming the bad field."""

    @pytest.mark.parametrize("change, where", [
        ({"equations": 5}, "equations"),
        ({"equations": []}, "equations"),
        ({"equations": [{"1,0": 1.0}, {"0,1": 1.0}]}, "equations"),
        ({"equations": [[1.0]]}, "equations[0]"),
        ({"degree": True}, "degree"),
        ({"degree": -1}, "degree"),
        ({"degree": 1.0}, "degree"),
        ({"equations": [{"1,a": 1.0}]}, "equations[0]"),
        ({"equations": [{" 1,0": 1.0}]}, "equations[0]"),
        ({"equations": [{"1,0": "x"}]}, "equations[0]"),
        ({"equations": [{"1,0": 1e400}]}, "equations[0]"),
        ({"equations": [{"1,1": 1.0}]}, "equations"),
        ({"seed": "abc"}, "seed"),
        ({"seed": True}, "seed"),
        ({"distribution": 5}, "distribution"),
        ({"equations": [{"1,0": 1.0, "01,0": 2.0, "0,1": 1.0}]}, "equations[0]"),
        ({"structure": [1]}, "structure"),
        ({"structure": {"variables": 2}}, "structure"),
        ({"structure": {"variables": True, "equations": [{"vars": [1, 2]}]}},
         "structure.variables"),
        ({"structure": {"variables": 2, "equations": [{"vars": [1, 5]}]}},
         "structure.equations[0].vars[1]"),
        ({"structure": {"variables": 2, "equations": [{"vars": [1, 2]}], "derived_vars": [5]}},
         "structure.derived_vars[0]"),
    ])
    def test_bad_field_is_input_error(self, change, where, tmp_path, capsys):
        data = {**LINE_SYSTEM, **change}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        assert main(["trace", str(path), "--from", "1,1"]) == 2
        assert f"{path}: {where}: " in capsys.readouterr().err
        with pytest.raises(ParseError) as raised:
            StructuredPolySystem.from_json_dict(data)
        assert raised.value.where == where

    def test_exponent_keys_spelling_one_vector_are_named(self, tmp_path, capsys):
        data = {**LINE_SYSTEM, "equations": [{"1,0": 1.0, "01,0": 2.0, "0,1": 1.0}]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        assert main(["trace", str(path), "--from", "1,1"]) == 2
        assert "equations[0]: exponent keys '1,0' and '01,0'" in capsys.readouterr().err

    def test_a_partial_that_overflows_names_the_file(self, tmp_path):
        # The library's ParseError named no file; only the command line added it.
        data = {**LINE_SYSTEM, "degree": 2, "equations": [{"2,0": 1e308}]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as raised:
            parse_input(path)
        assert (raised.value.path, raised.value.line, raised.value.where) == (path, None, None)
        assert str(raised.value) == (f"{path}: equation 1: coefficient 1e+308 of exponent "
                                     "vector (2, 0) times its exponent 2 is not finite")

    def test_constant_system_file_is_accepted(self, tmp_path):
        data = {**LINE_SYSTEM, "degree": 0, "equations": [{"0,0": 2.5}]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        assert parse_input(path).evaluate([0.3, 0.4]).tolist() == [2.5]


class TestSystemFileSpelling:
    """``formats`` writes a system file's keys as its reader spells them."""

    def test_the_written_file_is_pinned(self):
        # The rows of example5, x1..x4 twice and the derived symbol z twice, and a
        # row over no symbol, whose one monomial, the constant, is spelled "".
        example5 = get_dataset("example5").structure
        structure = GeneralizedStructure(4, [*example5.dependencies, ()], example5.derived)
        system = system_from_terms(structure, 2, [
            {(2, 0, 0, 0): -2.0, (0, 0, 0, 0): 1.5, (1, 0, 0, 1): 0.25},
            {(0, 1, 1, 0): 3.0},
            {(2,): 0.5, (0,): -1.0},
            {(1,): 4.0},
            {(): 7.0},
        ])
        expected = {
            "structure": {
                "variables": 4,
                "equations": [
                    {"name": "f1", "vars": [1, 2, 3, 4], "derived": []},
                    {"name": "f2", "vars": [1, 2, 3, 4], "derived": []},
                    {"name": "f3", "vars": [], "derived": ["z"]},
                    {"name": "f4", "vars": [], "derived": ["z"]},
                    {"name": "f5", "vars": [], "derived": []},
                ],
                "derived_vars": [{"name": "z", "coeffs": {"1": 1.0, "2": 2.0}}],
                "self_loops": False,
            },
            "degree": 2,
            "seed": None,
            "distribution": "explicit",
            "equations": [
                {"0,0,0,0": 1.5, "1,0,0,1": 0.25, "2,0,0,0": -2.0},
                {"0,1,1,0": 3.0},
                {"0": -1.0, "2": 0.5},
                {"1": 4.0},
                {"": 7.0},
            ],
        }
        # Compared as text, so the order of every key is pinned too.
        assert json.dumps(system.to_json_dict()) == json.dumps(expected)
