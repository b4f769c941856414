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
from dataclasses import dataclass, field
from itertools import chain

from .errors import StructureError, UnsupportedOperationError

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


def _index(value, what):
    """``value`` as an int, numpy integers included; a bool or a non-integer is a TypeError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True, init=False)
class StructurePattern:
    """An M x N sparsity pattern of allowed Jacobian entries.

    The pattern is stored as its rows: for each equation, the sorted 0-based
    indices of the variables it may use. ``allowed`` gives the same entries
    as (equation, variable) pairs. An equation with no allowed variables is
    legal; its Jacobian row is identically zero.
    """

    num_equations: int
    num_variables: int
    _rows: tuple[tuple[int, ...], ...]
    derived = ()  # no derived variables: every symbol of a row is a variable index

    def __init__(self, num_equations, num_variables, allowed):
        by_row = {}
        for e, v in allowed:
            by_row.setdefault(e, set()).add(v)
        self._store(num_equations, num_variables, by_row)

    @classmethod
    def from_rows(cls, rows, num_variables=None):
        """Build from per-equation variable sets, e.g. ``[{2}, {2}, {0,1,2}]``.

        Numpy integers are stored as ints; a bool or a non-integer entry is a
        TypeError naming its equation.
        """
        # Entries are checked as given, before a set merges True into 1. A
        # row that is a set has no repeats left to merge, so it is not copied.
        rows = list(rows)
        sets = set(map(type, rows)) <= {set, frozenset}
        if not sets:
            rows = list(map(tuple, rows))
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            rows, sets = [[_index(v, f"equation {e + 1}: variable index") for v in r]
                          for e, r in enumerate(rows)], False
        rows = tuple(map(tuple, map(sorted, rows if sets else map(set, rows))))
        nonempty = [r for r in rows if r]
        highest = max([r[-1] for r in nonempty], default=-1)
        if num_variables is None:
            num_variables = max(highest + 1, 1)
        if min([r[0] for r in nonempty], default=0) < 0 or highest >= num_variables:
            rows = dict(enumerate(rows))  # checked row by row, naming the first bad entry
        pattern = cls.__new__(cls)
        pattern._store(len(rows), num_variables, rows)
        return pattern

    def _store(self, m, n, rows):
        """Check the size and keep the rows of an M x N pattern.

        ``rows`` holds sorted in-range variable tuples, one per equation, or
        a dict of variable sets keyed by equation, whose entries are checked.
        """
        m, n = _index(m, "num_equations"), _index(n, "num_variables")
        if m < 1 or n < 1:
            raise StructureError(f"pattern must have M >= 1 and N >= 1, got {m}x{n}")
        if isinstance(rows, dict):
            by_row, rows = rows, [()] * m
            for e, variables in by_row.items():
                row = tuple(sorted(variables))
                if row and not (0 <= e < m and 0 <= row[0] and row[-1] < n):
                    v = row[0] if row[0] < 0 else row[-1]
                    raise StructureError(f"allowed entry ({e},{v}) outside {m}x{n} pattern")
                rows[e] = row
            rows = tuple(rows)
        object.__setattr__(self, "num_equations", m)
        object.__setattr__(self, "num_variables", n)
        object.__setattr__(self, "_rows", rows)

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
        """A copy with one more allowed entry."""
        return StructurePattern(
            self.num_equations, self.num_variables, self.allowed | {(e, v)}
        )


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
        if self.num_nodes < 1:
            raise StructureError("graph needs at least one node")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for i, j in self.edges:
            if not (0 <= i < self.num_nodes and 0 <= j < self.num_nodes):
                raise StructureError(
                    f"edge ({i},{j}) outside node range [0,{self.num_nodes})"
                )


@dataclass(frozen=True)
class DerivedVariableSpec:
    """A named linear combination of original variables, e.g. z = a*x1 + b*x2."""

    name: str
    coefficients: tuple[tuple[int, float], ...]  # (variable index, weight)

    def __post_init__(self):
        what = f"derived variable {self.name!r}: variable index"
        pairs = dict((_index(i, what), float(c)) for i, c in self.coefficients)
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
    _rows: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        deps = tuple(frozenset(d) for d in self.dependencies)
        object.__setattr__(self, "dependencies", deps)
        object.__setattr__(self, "derived", tuple(self.derived))
        n, names = _index(self.num_variables, "num_variables"), [d.name for d in self.derived]
        object.__setattr__(self, "num_variables", n)
        dup = {name for name in names if names.count(name) > 1}
        if dup:
            raise StructureError(f"derived variables declared more than once: {sorted(dup)}")
        for d in self.derived:  # its support is sorted and nonempty
            if d.support[-1] >= n:
                raise StructureError(f"derived variable {d.name!r} references "
                                     f"x{d.support[-1] + 1} but the system has {n} variables")
        rows = []
        for e, dep in enumerate(deps):
            what = f"equation {e + 1}: variable index"
            indices = sorted(_index(i, what) for i in dep if not isinstance(i, str))
            refs = sorted(s for s in dep if isinstance(s, str))
            bad = ([f"undeclared derived variable {s!r}" for s in refs if s not in names]
                   + [f"variable index {i} outside [0,{n})" for i in indices if not 0 <= i < n])
            if bad:
                raise StructureError(f"equation {e + 1} references {bad[0]}")
            rows.append(tuple(indices + refs))
        if not rows or n < 1:
            raise StructureError(f"pattern must have M >= 1 and N >= 1, got {len(rows)}x{n}")
        object.__setattr__(self, "_rows", tuple(rows))

    @property
    def num_equations(self):
        return len(self._rows)

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
