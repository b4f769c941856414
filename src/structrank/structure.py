"""Structure patterns, system graphs, and derived-variable declarations.

A structure pattern records which Jacobian entries of an equation system are
allowed to be nonzero; it is the identity of a structured function space.
System graphs are the directed-graph view of square patterns (an edge i -> j
means variable i may appear in equation j). Generalized structures extend
patterns with linear derived variables such as z = a*x1 + b*x2 that several
equations may depend on only through z.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable, Sized
from dataclasses import dataclass, field
from itertools import chain, repeat

from .errors import ParseError, StructureError, UnsupportedOperationError

__all__ = [
    "StructurePattern",
    "SystemGraph",
    "DerivedVariableSpec",
    "GeneralizedStructure",
    "pattern_from_graph",
    "graph_from_pattern",
    "effective_pattern",
    "knockout",
]

# The most variables, equations or nodes a structure may have: matching and
# sampling allocate per variable, so a larger size is refused before any row is built.
MAX_VARIABLES = 1_000_000


def _index(value, what):
    """``value`` as an int, numpy integers included; a bool or a non-integer is a TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:  # as 1.5, "1" or an array of more than one value
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def check_count(value, what, least=1):
    """The count rule: ``value`` as an int (``_index``); ValueError below ``least``."""
    value = _index(value, what)
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def check_real(value, what):
    """The real rule: ``value`` as a float; a bool or a non-real is a TypeError naming it."""
    # A numpy value is real when a 0-d integer or float: a complex one would
    # be cast with a warning, and an array of more than one value not at all.
    kind = getattr(getattr(value, "dtype", None), "kind", "f")
    if (isinstance(value, bool) or not hasattr(type(value), "__float__")  # as "1.5" or b"2"
            or kind not in "iuf" or getattr(value, "ndim", 0)):
        raise TypeError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int too large for a float: an infinity, which ranges refuse
        return math.inf if value > 0 else -math.inf


def check_positive(value, what):
    """``value`` as a finite float > 0, by the real rule; ValueError otherwise."""
    value = check_real(value, what)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be finite and positive, got {value!r}")
    return value


def _size(value, what):
    """``value`` as an int (``_index``) of at most MAX_VARIABLES; a larger one is a ParseError."""
    value = _index(value, what)
    if value > MAX_VARIABLES:
        raise ParseError(f"{what} {value} exceeds the bound of {MAX_VARIABLES}")
    return value


def _equation(e, v, m, n):
    """``e`` as the int equation index of an entry (e, v) inside an M x N pattern."""
    e = _index(e, "equation index")
    if not 0 <= e < m:
        raise StructureError(f"allowed entry ({e},{v}) outside {m}x{n} pattern")
    return e


def _tuples(rows):
    """Each of ``rows`` as a tuple; a row that is no collection is a TypeError naming it."""
    rows = list(rows)
    try:
        return list(map(tuple, rows))
    except TypeError:
        bad = next(((e, r) for e, r in enumerate(rows) if not isinstance(r, Iterable)), None)
        if bad is None:
            raise
        e, row = bad
        raise TypeError(f"equation {e + 1} must be a collection, got {row!r}") from None


def _pairs(items, what):
    """``items`` as a list of pairs, such as (equation, variable); another item is a TypeError."""
    items = list(items)
    try:
        pairs = set(map(len, items)) <= {2}
    except TypeError:
        pairs = False
    if not pairs:
        bad = next(x for x in items if not (isinstance(x, Sized) and len(x) == 2))
        raise TypeError(f"{what} must be a pair, got {bad!r}")
    return items


def _store(structure, rows, n=None, names=None):
    """The one entry check of every structure: keep ``rows``, each equation's indices as given.

    Their types are checked in one pass, before a set merges True into 1:
    numpy integers are stored as ints, and a bool or a non-integer is a
    TypeError naming its equation. A row keeps its sorted, distinct indices,
    in [0, N) for N ``n`` or one past the largest; then its ``names``. All
    rows hold one int object per distinct index, so a structure keeps no
    duplicate ints (those above 256 are not cached by CPython).
    """
    # A row that is a set has no repeats left to merge, so it is not copied.
    rows = list(rows)
    sets = set(map(type, rows)) <= {set, frozenset}
    if not sets:
        rows = _tuples(rows)
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        rows, sets = [[_index(v, f"equation {e + 1}: variable index") for v in r]
                      for e, r in enumerate(rows)], False
    shared = {}  # each distinct index, as the one int object every row holds
    rows = map(map, repeat(shared.setdefault), rows, rows)
    rows = tuple(map(tuple, map(sorted, rows if sets else map(set, rows))))
    m, highest = len(rows), max(shared, default=-1)
    n = _size(max(highest + 1, 1) if n is None else n, "num_variables")
    if m < 1 or n < 1:
        raise StructureError(f"pattern must have M >= 1 and N >= 1, got {m}x{n}")
    if min(shared, default=0) < 0 or highest >= n:
        # The first bad row, and in it a negative index before a large one.
        e, v = next((e, v) for e, r in enumerate(rows) for v in r[:1] + r[-1:]
                    if not 0 <= v < n)
        raise StructureError(f"allowed entry ({e},{v}) outside {m}x{n} pattern")
    if names is not None:
        rows = tuple(map(operator.add, rows, names))
    object.__setattr__(structure, "num_equations", m)
    object.__setattr__(structure, "num_variables", n)
    object.__setattr__(structure, "_rows", rows)


@dataclass(frozen=True, init=False)
class StructurePattern:
    """An M x N sparsity pattern of allowed Jacobian entries.

    The pattern is stored as its rows: for each equation, the sorted 0-based
    indices of the variables it may use. ``allowed`` gives the same entries
    as (equation, variable) pairs. An equation with no allowed variables is
    legal; its Jacobian row is identically zero. Every constructor checks
    its entries through ``_store``.
    """

    num_equations: int
    num_variables: int
    _rows: tuple[tuple[int, ...], ...]
    derived = ()  # no derived variables: every symbol of a row is a variable index

    def __init__(self, num_equations, num_variables, allowed):
        m, n = _size(num_equations, "num_equations"), _size(num_variables, "num_variables")
        rows = [[] for _ in range(m)]
        for e, v in _pairs(allowed, "allowed entry"):
            rows[e if type(e) is int and 0 <= e < m else _equation(e, v, m, n)].append(v)
        _store(self, rows, n)

    @classmethod
    def from_rows(cls, rows, num_variables=None):
        """Build from per-equation variable sets, e.g. ``[{2}, {2}, {0,1,2}]``.

        N is ``num_variables``, or one past the largest index. The entries
        are checked as ``_store`` checks those of every structure.
        """
        pattern = cls.__new__(cls)
        _store(pattern, rows, num_variables)
        return pattern

    @property
    def allowed(self):
        """The allowed (equation, variable) pairs, built from the rows on each access."""
        return frozenset((e, v) for e, row in enumerate(self._rows) for v in row)

    def row(self, e):
        """Sorted variable indices allowed in equation ``e``, 0 <= ``e`` < M."""
        e = _index(e, "equation index")
        if not 0 <= e < self.num_equations:
            raise IndexError(f"equation {e} outside [0,{self.num_equations})")
        return self._rows[e]

    def rows(self):
        """Per-equation sorted variable tuples, as stored (not a copy)."""
        return self._rows

    @property
    def shape(self):
        return (self.num_equations, self.num_variables)

    def is_square(self):
        return self.num_equations == self.num_variables

    def with_entry(self, e, v):
        """A copy with one more allowed entry, added to the stored rows."""
        rows = list(self._rows)
        rows[_equation(e, v, *self.shape)] += (v,)
        return StructurePattern.from_rows(rows, self.num_variables)


@dataclass(frozen=True)
class SystemGraph:
    """Directed dependency graph of a square system.

    An edge (i, j) means variable i is allowed to appear in equation j.
    ``include_diagonal`` is the self-loop policy: when true, every equation is
    additionally allowed to depend on its own variable, whether or not an
    explicit self-loop edge is present. Explicit self-loop edges are always
    honored.
    """

    num_nodes: int
    edges: frozenset[tuple[int, int]]
    include_diagonal: bool = False

    def __post_init__(self):
        n, edges = _size(self.num_nodes, "num_nodes"), _pairs(self.edges, "edge")
        if n < 1:
            raise StructureError("graph needs at least one node")
        # Checked as given, before a set merges True into 1.
        if not set(map(type, chain.from_iterable(edges))) <= {int}:
            edges = [tuple(_index(v, f"edge {edge!r}: node") for v in edge) for edge in edges]
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise StructureError(f"edge ({i},{j}) outside node range [0,{n})")
        object.__setattr__(self, "num_nodes", n)
        object.__setattr__(self, "edges", frozenset(map(tuple, edges)))


@dataclass(frozen=True)
class DerivedVariableSpec:
    """A named linear combination of original variables, e.g. z = a*x1 + b*x2."""

    name: str
    coefficients: tuple[tuple[int, float], ...]  # (variable index, weight)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise TypeError(f"derived variable name must be a nonempty str, got {self.name!r}")
        what, pairs = f"derived variable {self.name!r}", {}
        for i, c in _pairs(self.coefficients, f"{what}: coefficient"):
            i, c = _index(i, f"{what}: variable index"), check_real(c, f"{what}: weight")
            if i in pairs:
                raise StructureError(f"{what}: variable index {i} has two coefficients")
            pairs[i] = c
        coeffs = tuple(sorted(pairs.items()))
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise StructureError(f"derived variable {self.name!r} has no coefficients")
        for i, c in coeffs:
            if i < 0:
                raise StructureError(f"derived variable {self.name!r}: bad index {i}")
            if c == 0.0 or not math.isfinite(c):
                raise StructureError(
                    f"derived variable {self.name!r}: coefficient on x{i + 1} "
                    "must be finite and nonzero"
                )

    @property
    def support(self):
        return tuple(i for i, _ in self.coefficients)


@dataclass(frozen=True)
class GeneralizedStructure:
    """A structure whose equations may depend on derived variables.

    ``dependencies`` lists, per equation, the original variable indices (int)
    and derived-variable names (str) the equation may use. ``rows()`` orders
    them once, the order of every member and system file: sorted ints, then
    sorted names. The pattern over original variables only is ``base``.
    """

    num_variables: int
    dependencies: tuple[frozenset, ...]
    derived: tuple[DerivedVariableSpec, ...]
    num_equations: int = field(init=False, compare=False, repr=False)
    _rows: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "derived", tuple(self.derived))
        bad = [d for d in self.derived if not isinstance(d, DerivedVariableSpec)]
        if bad:
            raise TypeError(f"a derived variable must be a DerivedVariableSpec, got {bad[0]!r}")
        n = _index(self.num_variables, "num_variables")
        names = Counter(d.name for d in self.derived)
        dup = sorted(name for name, count in names.items() if count > 1)
        if dup:
            raise StructureError(f"derived variables declared more than once: {dup}")
        for d in self.derived:  # its support is sorted and nonempty
            if d.support[-1] >= n:
                raise StructureError(f"derived variable {d.name!r} references "
                                     f"x{d.support[-1] + 1} but the system has {n} variables")
        deps = _tuples(self.dependencies)
        refs = [tuple(sorted({s for s in d if isinstance(s, str)})) for d in deps]
        bad = next(((e, s) for e, row in enumerate(refs) for s in row if s not in names), None)
        if bad:
            e, s = bad
            raise StructureError(f"equation {e + 1} references undeclared derived variable {s!r}")
        _store(self, [[i for i in d if not isinstance(i, str)] for d in deps], n, refs)
        object.__setattr__(self, "dependencies", tuple(map(frozenset, self._rows)))

    @property
    def derived_by_name(self):
        return {d.name: d for d in self.derived}

    def rows(self):
        """Per-equation symbols: sorted variable indices, then sorted derived names (not a copy)."""
        return self._rows

    def equation_symbols(self, e):
        """Symbols equation ``e`` may use: variable indices, then derived names."""
        return self._rows[e]

    @property
    def base(self):
        """The pattern of each equation's original variables, built on each access."""
        return StructurePattern.from_rows(
            [[s for s in row if not isinstance(s, str)] for row in self._rows], self.num_variables
        )


def pattern_from_graph(g: SystemGraph) -> StructurePattern:
    """Convert a system graph into the equivalent square structure pattern.

    Edge (i, j) yields allowed entry (j, i). Under the include-diagonal
    policy the full diagonal is added as well.
    """
    rows = [{k} if g.include_diagonal else set() for k in range(g.num_nodes)]
    for i, j in g.edges:
        rows[j].add(i)
    return StructurePattern.from_rows(rows, g.num_nodes)


def graph_from_pattern(p: StructurePattern, include_diagonal: bool = False) -> SystemGraph:
    """Recover the dependency graph of a square pattern.

    With ``include_diagonal`` recorded, diagonal entries are treated as
    policy-implied and stripped from the edge set; the pattern must then
    contain the full diagonal.
    """
    if not p.is_square():
        raise UnsupportedOperationError(
            f"only square patterns have a system graph, got {p.num_equations}x{p.num_variables}"
        )
    rows = p.rows()
    if include_diagonal:
        missing = [k for k, row in enumerate(rows) if k not in row]
        if missing:
            raise StructureError(
                f"include-diagonal policy recorded but diagonal entries missing at {missing}"
            )
    edges = frozenset(
        (v, e) for e, row in enumerate(rows) for v in row if v != e or not include_diagonal
    )
    return SystemGraph(p.num_equations, edges, include_diagonal)


def effective_pattern(gs: GeneralizedStructure) -> StructurePattern:
    """Expand derived variables into an original-variable pattern.

    Each equation's allowed variables become its original dependencies plus
    the supports of all derived variables it references. Note this expansion
    only bounds the generic rank from above: equations sharing a derived
    variable have proportional Jacobian rows on its support, which the
    expanded pattern cannot express. Use the randomized estimator for the
    actual generic rank of a generalized structure.
    """
    by_name = gs.derived_by_name
    rows = [
        [v for sym in row for v in (by_name[sym].support if isinstance(sym, str) else (sym,))]
        for row in gs.rows()
    ]
    return StructurePattern.from_rows(rows, gs.num_variables)


def knockout(p: StructurePattern, node: int) -> StructurePattern:
    """Delete one node's equation and variable from a square pattern.

    Models removal of a species / gene: row ``node`` and column ``node`` are
    dropped and the remaining indices compacted. ``node`` is an integer
    (numpy integers included); floats and bools are refused.
    """
    node = _index(node, "knockout node")
    if not p.is_square():
        raise UnsupportedOperationError(
            f"knockout requires a square pattern, got {p.num_equations}x{p.num_variables}"
        )
    if not 0 <= node < p.num_equations:
        raise StructureError(f"knockout node {node} outside [0,{p.num_equations})")
    if p.num_equations == 1:
        raise StructureError("knockout of a 1x1 system would leave an empty system")
    rows = p.rows()
    return StructurePattern.from_rows(
        [[v - (v > node) for v in row if v != node] for row in rows[:node] + rows[node + 1:]],
        p.num_variables - 1,
    )
