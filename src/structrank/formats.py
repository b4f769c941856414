"""Reading and writing structures and systems: JSON files, edge lists, pattern matrices, DOT.

All file formats use 1-based equation/variable indices; the in-memory types
are 0-based. JSON schemas reject unknown fields so typos surface instead of
being silently ignored.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain
from pathlib import Path

from .errors import ParseError, StructureError
from .structure import (  # MAX_VARIABLES bounds the variables or nodes a file declares
    MAX_VARIABLES,
    DerivedVariableSpec,
    GeneralizedStructure,
    StructurePattern,
    SystemGraph,
    graph_from_pattern,
)

__all__ = [
    "parse_input",
    "parse_structure",
    "parse_basis",
    "structure_to_json_dict",
    "structure_from_json_dict",
    "to_dot",
]

_EDGE_RE = re.compile(r"^\s*(\d+)\s*(<->|->)\s*(\d+)\s*$")
_EXPONENTS_RE = re.compile(r"([0-9]+(,[0-9]+)*)?")
_HEADER_RE = re.compile(r"^\s*(selfloops|nodes)\s*:\s*(\S+)\s*$", re.IGNORECASE)
_DOT_ID_RE = re.compile(r"[A-Za-z0-9_]+")
_EQUATION_FIELDS = frozenset({"name", "vars", "derived"})


def _expect(condition, message, path=None, where=None):
    if not condition:
        raise ParseError(message, path=path, where=where)


def _check_keys(obj, allowed, path, where):
    if not obj.keys() <= allowed:  # formatted only on failure
        raise ParseError(f"unknown field(s) {sorted(obj.keys() - allowed)}", path=path, where=where)


def _check_equations(equations, declared, path):
    """Name the first fault of an equation object outside its indices, if batched passes see one."""
    if set(map(type, equations)) <= {dict} and set().union(*equations) <= _EQUATION_FIELDS:
        derived = [eq.get("derived", []) for eq in equations]
        if set(map(type, derived)) | {type(eq.get("vars", [])) for eq in equations} <= {list}:
            names = list(chain.from_iterable(derived))
            if set(map(type, names)) <= {str} and declared.issuperset(names):
                return
    for e, eq in enumerate(equations):  # formats each locator on this walk only
        where = f"equations[{e}]"
        _expect(isinstance(eq, dict), "equation must be an object", path, where)
        _check_keys(eq, _EQUATION_FIELDS, path, where)
        _expect(isinstance(eq.get("vars", []), list), "'vars' must be a list", path, where)
        derived = eq.get("derived", [])
        _expect(isinstance(derived, list), "'derived' must be a list", path, where)
        for j, name in enumerate(derived):
            _expect(isinstance(name, str), "derived reference must be a name", path, f"{where}.derived[{j}]")
            _expect(name in declared, f"undeclared derived variable {name!r}", path, f"{where}.derived[{j}]")


def _is_int(value):
    # JSON true/false parse to bool, which is an int subclass.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value):
    # JSON numbers such as 1e400 parse to inf, and huge integers overflow a float.
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def structure_from_json_dict(data, path=None):
    """Build a structure from the JSON file schema.

    Schema: {"variables": N, "equations": [{"name", "vars", "derived"}],
    "derived_vars": [{"name", "coeffs"}], "self_loops": bool}. ``vars`` uses
    1-based variable indices; ``coeffs`` keys are 1-based index strings.
    """
    _expect(isinstance(data, dict), "top level must be an object", path, "$")
    _check_keys(data, {"variables", "equations", "derived_vars", "self_loops"}, path, "$")
    _expect("variables" in data, "missing field 'variables'", path, "$")
    _expect("equations" in data, "missing field 'equations'", path, "$")
    n = data["variables"]
    _expect(_is_int(n) and n >= 1, "'variables' must be a positive integer", path, "variables")
    _expect(n <= MAX_VARIABLES, f"'variables' must be at most {MAX_VARIABLES}", path, "variables")
    equations = data["equations"]
    _expect(isinstance(equations, list) and equations, "'equations' must be a nonempty list", path, "equations")
    self_loops = data.get("self_loops", False)
    _expect(isinstance(self_loops, bool), "'self_loops' must be a boolean", path, "self_loops")

    derived_vars = data.get("derived_vars", [])
    _expect(isinstance(derived_vars, list), "'derived_vars' must be a list", path, "derived_vars")
    derived_specs, declared = [], set()
    for i, dv in enumerate(derived_vars):
        where = f"derived_vars[{i}]"
        _expect(isinstance(dv, dict), "derived variable must be an object", path, where)
        _check_keys(dv, {"name", "coeffs"}, path, where)
        _expect(isinstance(dv.get("name"), str) and dv["name"], "missing derived name", path, where)
        _expect(dv["name"] not in declared,
                f"derived variable {dv['name']!r} is declared twice", path, where)
        declared.add(dv["name"])
        coeffs = dv.get("coeffs")
        _expect(isinstance(coeffs, dict) and coeffs, "'coeffs' must be a nonempty object", path, where)
        pairs = {}
        for key, value in coeffs.items():
            _expect(key.isdecimal() and 1 <= int(key) <= n,
                    f"coefficient key {key!r} must be a variable index in 1..{n}", path, where)
            _expect(_is_finite_number(value) and value != 0,
                    f"coefficient on x{key} must be a finite nonzero number", path, where)
            index = int(key) - 1
            _expect(index not in pairs,
                    f"coefficient key {key!r} names x{index + 1} again", path, where)
            pairs[index] = float(value)
        derived_specs.append(DerivedVariableSpec(dv["name"], tuple(pairs.items())))

    # Each equation's shape and derived names are checked before any index.
    _check_equations(equations, declared, path)
    vars_lists = [eq.get("vars", []) for eq in equations]
    # _store checks the indices. An entry that is no int becomes None, which it refuses,
    # so that neither a numpy integer is read as 0-based nor a string as a derived name.
    rows = [[v - 1 if type(v) is int or _is_int(v) else None for v in vs] for vs in vars_lists]
    for e, row in enumerate(rows[:n] if self_loops else ()):
        row.append(e)
    try:
        if derived_specs:  # each row with its equation's derived names, checked above
            return GeneralizedStructure(n, [row + eq.get("derived", []) for row, eq in
                                            zip(rows, equations)], tuple(derived_specs))
        return StructurePattern.from_rows(rows, n)
    except (TypeError, StructureError):
        for e, vs in enumerate(vars_lists):  # name the first bad entry in file order
            for j, v in enumerate(vs):
                if not (_is_int(v) and 1 <= v <= n):
                    raise ParseError(f"variable index {v} outside 1..{n}" if _is_int(v) else
                                     f"variable index must be an integer, got {v!r}",
                                     path=path, where=f"equations[{e}].vars[{j}]") from None
        raise


def structure_to_json_dict(structure):
    """Inverse of ``structure_from_json_dict`` (1-based, schema-stable).

    A pattern is written as a structure with no derived variables.
    """
    return {
        "variables": structure.num_variables,
        "equations": [
            {
                "name": f"f{e + 1}",
                "vars": [int(sym) + 1 for sym in row if not isinstance(sym, str)],
                "derived": [sym for sym in row if isinstance(sym, str)],
            }
            for e, row in enumerate(structure.rows())
        ],
        "derived_vars": [
            {"name": spec.name, "coeffs": {str(i + 1): c for i, c in spec.coefficients}}
            for spec in structure.derived
        ],
        "self_loops": False,
    }


def _read_text(path):
    """The text of an input file; bytes that are not UTF-8 are a ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset "
                         f"{exc.start} ({exc.reason})", path=path) from None


def _parse_json_file(path):
    """The one JSON reader for structure, system and basis files."""
    text = _read_text(path)

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            raise ParseError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}",
                             path=path)
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc
    except RecursionError:
        # The decoder recurses once per nesting level, up to the recursion limit.
        raise ParseError("JSON nested too deeply", path=path) from None


def _parse_edge_list(path):
    num_nodes = 0
    include_diagonal = False
    edges = set()
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _HEADER_RE.match(line)
        if header:
            key, value = header.group(1).lower(), header.group(2).lower()
            if key == "selfloops":
                if value not in ("on", "off"):
                    raise ParseError("selfloops must be 'on' or 'off'", path=path, line=lineno)
                include_diagonal = value == "on"
            else:
                if not value.isdigit() or int(value) < 1:
                    raise ParseError("nodes must be a positive integer", path=path, line=lineno)
                num_nodes = max(num_nodes, int(value))
            continue
        match = _EDGE_RE.match(line)
        if not match:
            raise ParseError(
                f"expected 'i -> j' or 'i <-> j', got {line!r}", path=path, line=lineno
            )
        a, arrow, b = int(match.group(1)), match.group(2), int(match.group(3))
        if a < 1 or b < 1:
            raise ParseError("node indices are 1-based", path=path, line=lineno)
        num_nodes = max(num_nodes, a, b)
        edges.add((a - 1, b - 1))
        if arrow == "<->":
            edges.add((b - 1, a - 1))
    if num_nodes == 0:
        raise ParseError("no edges or 'nodes:' header found", path=path)
    if num_nodes > MAX_VARIABLES:
        raise ParseError(f"{num_nodes} nodes exceed the bound of {MAX_VARIABLES}", path=path)
    return SystemGraph(num_nodes, frozenset(edges), include_diagonal)


def _parse_pattern_matrix(path):
    text = _read_text(path)
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for chunk in line.split("/"):
            chunk = chunk.strip()
            if not chunk:
                continue
            bad = set(chunk) - {"0", "*", "."}
            if bad:
                raise ParseError(
                    f"pattern rows may contain only 0, ., and *, got {sorted(bad)}",
                    path=path, line=lineno,
                )
            rows.append((lineno, chunk))
    if not rows:
        raise ParseError("empty pattern", path=path)
    width = len(rows[0][1])
    if width > MAX_VARIABLES:
        raise ParseError(f"row width {width} exceeds the bound of {MAX_VARIABLES}",
                         path=path, line=rows[0][0])
    for lineno, chunk in rows:
        if len(chunk) != width:
            raise ParseError(
                f"row width {len(chunk)} differs from first row width {width}",
                path=path, line=lineno,
            )
    return StructurePattern.from_rows(
        [[v for v, ch in enumerate(chunk) if ch == "*"] for _, chunk in rows], width
    )


_EXTENSIONS = {
    ".json": "json",
    ".edges": "edges",
    ".edgelist": "edges",
    ".graph": "edges",
    ".pattern": "pattern",
    ".pat": "pattern",
}


def _detect_format(path):
    suffix = Path(path).suffix.lower()
    if suffix in _EXTENSIONS:
        return _EXTENSIONS[suffix]
    head = _read_text(path)[:4096].lstrip()
    if head.startswith("{"):
        return "json"
    if "->" in head or _HEADER_RE.match(head.splitlines()[0] if head else ""):
        return "edges"
    if head and set(head) <= set("0*./ \t\r\n"):
        return "pattern"
    raise ParseError(
        "cannot determine file format; pass an explicit format "
        "(json, edges, or pattern)", path=path,
    )


def parse_structure(path, fmt: str | None = None):
    """Load a structure file.

    Returns a StructurePattern, GeneralizedStructure, or SystemGraph
    depending on the content. Format is chosen by extension (.json, .edges,
    .pattern), by sniffing, or by ``fmt``.
    """
    fmt = fmt or _detect_format(path)
    if fmt == "json":
        return structure_from_json_dict(_parse_json_file(path), path=path)
    if fmt == "edges":
        return _parse_edge_list(path)
    if fmt == "pattern":
        return _parse_pattern_matrix(path)
    raise ParseError(f"unknown format {fmt!r} (expected json, edges, or pattern)", path=path)


def parse_input(path, fmt: str | None = None):
    """Load a structure file, or a serialized polynomial system.

    A JSON file whose top-level object has a "structure" key holds a system
    and comes back as a StructuredPolySystem; any other file is a structure,
    read as by ``parse_structure``. JSON is parsed once either way.
    """
    fmt = fmt or _detect_format(path)
    if fmt != "json":
        return parse_structure(path, fmt)
    data = _parse_json_file(path)
    if isinstance(data, dict) and "structure" in data:
        return _system_from_json_dict(data, path)
    return structure_from_json_dict(data, path=path)


def parse_basis(path):
    """Load a matrix basis: JSON {"basis": [matrix, matrix, ...]}."""
    data = _parse_json_file(path)
    _expect(isinstance(data, dict), "top level must be an object", path, "$")
    _check_keys(data, {"basis"}, path, "$")
    basis = data.get("basis")
    _expect(isinstance(basis, list) and basis, "'basis' must be a nonempty list", path, "basis")
    for i, mat in enumerate(basis):
        _expect(isinstance(mat, list) and mat, "matrix must be a nonempty list of rows", path, f"basis[{i}]")
        _expect(len(mat) == len(basis[0]),
                f"matrix has {len(mat)} rows, basis[0] has {len(basis[0])}", path, f"basis[{i}]")
        for j, row in enumerate(mat):
            _expect(isinstance(row, list) and row, "matrix row must be a nonempty list", path, f"basis[{i}][{j}]")
            _expect(len(row) == len(basis[0][0]),
                    f"row has {len(row)} entries, basis[0][0] has {len(basis[0][0])}",
                    path, f"basis[{i}][{j}]")
            bad = next((k for k, value in enumerate(row) if not _is_finite_number(value)), None)
            _expect(bad is None, "matrix entries must be finite numbers", path, f"basis[{i}][{j}][{bad}]")
    # Combinations take coefficients in [-1, 1], so no entry of one can exceed
    # the sum of absolute values at its position.
    entries = zip(*([abs(v) for row in mat for v in row] for mat in basis))
    _expect(all(sum(column) <= sys.float_info.max for column in entries),
            "entries at one position sum past the largest float in absolute value; "
            "scale the basis down", path, "basis")
    return basis


def _system_to_json_dict(system):
    """The system file of ``system``; a call spells each exponent vector's key "e1,...,eS" once."""
    terms = [eq.term_dict() for eq in system.equations]
    keys = {exps: ",".join(map(str, exps)) for exps in set().union(*terms)}
    return {
        "structure": structure_to_json_dict(system.structure),
        "degree": system.degree,
        "seed": system.seed,
        "distribution": system.distribution,
        "equations": [{keys[exps]: c for exps, c in sorted(row.items())} for row in terms],
    }


def _system_from_json_dict(data, path=None):
    """Build a polynomial system from the system file schema.

    Schema: {"structure": <structure schema>, "degree": D, "equations":
    [{"e1,...,eS": c}], "seed": int or null, "distribution": str}. There is
    one equation object per structure equation; its keys are exponent
    vectors over the equation's symbols in ``structure.rows()`` order, ""
    for the constant term, and its values finite coefficients.
    """
    # numpy: only for system files
    from .polysys import check_jacobian_size, check_plan_size, system_from_terms

    _expect(isinstance(data, dict), "top level must be an object", path, "$")
    _check_keys(data, {"structure", "degree", "seed", "distribution", "equations"}, path, "$")
    for key in ("structure", "degree", "equations"):
        _expect(key in data, f"missing field {key!r}", path, "$")
    _expect(isinstance(data["structure"], dict), "'structure' must be an object", path,
            "structure")
    try:
        structure = structure_from_json_dict(data["structure"], path=path)
    except ParseError as exc:
        # Locate the nested structure's fields from the system file's top level.
        where = "structure" if exc.where == "$" else f"structure.{exc.where}"
        raise ParseError(exc.message, path=path, where=where) from None
    check_jacobian_size(structure, path, "structure")
    degree = data["degree"]
    try:
        check_plan_size(structure, degree)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc), path=path, where="degree") from None
    equations = data["equations"]
    m = structure.num_equations
    _expect(isinstance(equations, list) and len(equations) == m,
            f"'equations' must be a list of {m} objects, one per structure equation",
            path, "equations")
    terms = []
    for e, eq in enumerate(equations):
        where = f"equations[{e}]"
        _expect(isinstance(eq, dict), "equation must be an object", path, where)
        spelled = {}
        for key, value in eq.items():  # messages formatted only for the key refused
            if not _EXPONENTS_RE.fullmatch(key):
                raise ParseError(f"exponent key {key!r} must be '' or comma-separated integers",
                                 path=path, where=where)
            if not _is_finite_number(value):
                raise ParseError(f"coefficient of {key!r} must be a finite number",
                                 path=path, where=where)
            exponents = tuple(map(int, key.split(","))) if key else ()
            if exponents in spelled:
                raise ParseError(f"exponent keys {spelled[exponents]!r} and {key!r} spell the "
                                 "same exponent vector", path=path, where=where)
            spelled[exponents] = key
        terms.append({exponents: float(eq[key]) for exponents, key in spelled.items()})
    seed = data.get("seed")
    _expect(seed is None or _is_int(seed) and seed >= 0, "'seed' must be an integer >= 0 or null",
            path, "seed")
    distribution = data.get("distribution", "explicit")
    _expect(isinstance(distribution, str), "'distribution' must be a string", path,
            "distribution")
    try:
        return system_from_terms(structure, degree, terms, seed, distribution)
    except StructureError as exc:
        raise ParseError(str(exc), path=path, where="equations") from None
    except ParseError as exc:  # a coefficient whose partial overflows: the file, at no field
        raise ParseError(exc.message, path=path) from None


def _dot_string(text):
    """``text`` as a DOT quoted string, with backslash, double quote and newline escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def to_dot(structure) -> str:
    """Render a structure or graph in DOT for external visualization.

    A square pattern is drawn as its graph.
    """
    if isinstance(structure, StructurePattern) and structure.is_square():
        structure = graph_from_pattern(structure, include_diagonal=False)
    lines = ["digraph system {"]
    if isinstance(structure, SystemGraph):
        for k in range(structure.num_nodes):
            lines.append(f'  n{k + 1} [label="{k + 1}"];')
        for i, j in sorted(structure.edges):
            lines.append(f"  n{i + 1} -> n{j + 1};")
        if structure.include_diagonal:
            lines.insert(1, "  // self-loop policy: every node depends on itself")
    elif isinstance(structure, GeneralizedStructure):
        for v in range(structure.num_variables):
            lines.append(f'  x{v + 1} [shape=circle, label="x{v + 1}"];')
        # A derived name that is not a bare DOT ID, as "a b", makes a quoted one.
        ids = {d.name: f"d_{d.name}" if _DOT_ID_RE.fullmatch(d.name) else _dot_string(f"d_{d.name}")
               for d in structure.derived}
        for spec in structure.derived:
            lines.append(f'  {ids[spec.name]} [shape=diamond, label={_dot_string(spec.name)}];')
            for i, c in spec.coefficients:
                lines.append(f'  x{i + 1} -> {ids[spec.name]} [label="{c:g}"];')
        for e, row in enumerate(structure.rows()):
            lines.append(f'  f{e + 1} [shape=box, label="f{e + 1}"];')
            # In-edges keep the str order of 0-based indices and names: x11 before x2.
            for sym in sorted(row, key=str):
                src = ids[sym] if isinstance(sym, str) else f"x{sym + 1}"
                lines.append(f"  {src} -> f{e + 1};")
    else:
        for v in range(structure.num_variables):
            lines.append(f'  x{v + 1} [shape=circle, label="x{v + 1}"];')
        for e in range(structure.num_equations):
            lines.append(f'  f{e + 1} [shape=box, label="f{e + 1}"];')
        for e, row in enumerate(structure.rows()):
            lines.extend(f"  x{v + 1} -> f{e + 1};" for v in row)
    lines.append("}")
    return "\n".join(lines) + "\n"
