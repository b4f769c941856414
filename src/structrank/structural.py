"""Exact generic rank of a structured space via maximum bipartite matching.

The generic rank of all systems sharing a sparsity pattern equals the maximum
matching between equations and variables over the allowed entries: a matrix
that places independent values on a maximum matching witnesses the rank, and
no matrix respecting the pattern can exceed it. A square-or-wider system is
generically robust exactly when every equation can be matched (rank == M);
otherwise arbitrarily small perturbations of the right-hand side destroy
solvability and the system is fragile.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, StructureError, UnsupportedOperationError
from .structure import GeneralizedStructure, StructurePattern

__all__ = [
    "RankReport",
    "KnockoutEntry",
    "maximum_matching",
    "structural_rank",
    "classify",
    "knockout_sweep",
]

ROBUST = "robust"
FRAGILE = "fragile"

_INF = -1

# The most nodes a knockout sweep takes on: it runs a matching per node, so
# its time grows faster than the square of the node count.
MAX_KNOCKOUT_NODES = 2_000


@dataclass(frozen=True)
class RankReport:
    """Structural rank, robustness class, and a matching witness."""

    structural_rank: int
    num_equations: int
    num_variables: int
    classification: str
    solution_dimension: int
    matching: tuple[tuple[int, int], ...]

    def to_json_dict(self):
        """1-based JSON form: {"rank", "M", "N", "class", "dim", "matching"}."""
        return {
            "rank": self.structural_rank,
            "M": self.num_equations,
            "N": self.num_variables,
            "class": self.classification,
            "dim": self.solution_dimension,
            "matching": [[e + 1, v + 1] for (e, v) in self.matching],
        }


@dataclass(frozen=True)
class KnockoutEntry:
    """Result of removing one node: its report and whether fragility flipped."""

    node: int
    report: RankReport
    flips_to_robust: bool


def _require_pattern(p):
    if isinstance(p, GeneralizedStructure):
        raise UnsupportedOperationError(
            "matching on a generalized structure only bounds the rank from above; "
            "use numrank.generic_rank_randomized for derived-variable systems"
        )
    if not isinstance(p, StructurePattern):
        raise TypeError(f"expected StructurePattern, got {type(p).__name__}")
    return p


def _hopcroft_karp(adj, num_variables, knockout=None):
    """Maximum matching of rows to columns given per-row sorted column lists.

    Hopcroft-Karp: each phase finds a maximal set of shortest augmenting
    paths. In the first phase every row is free at layer 0, so it reduces to
    a greedy pass in which each row takes its first free column. The breadth
    first search labels rows one layer at a time. The depth first search
    keeps its ancestors on two explicit stacks, rows and their column scans,
    so path length is not bounded by the recursion limit; a row entered
    again scans its columns from the start, as a recursive call would.
    Nothing augments during one root's search, so each ancestor's matched
    column is the one its parent went through: the path is read back from
    the matching. Rows and columns are scanned in ascending order, which
    makes the witness deterministic.

    With ``knockout`` = k, node k is held out in place: row k starts matched
    to a sentinel and is never free; column k belongs to a phantom row m
    whose ``dist`` (m + 1) is no layer and not ``_INF``, so no search takes
    it. The witness drops row k and shifts larger indices down by one.
    """
    m = len(adj)
    match_eq = [_INF] * m
    match_var = [_INF] * num_variables
    if knockout is not None:
        match_eq[knockout] = num_variables
        match_var[knockout] = m
    for e, row in enumerate(adj):
        if match_eq[e] == _INF:
            for v in row:
                if match_var[v] == _INF:
                    match_eq[e] = v
                    match_var[v] = e
                    break

    # A matched row never becomes free, so each phase's free rows are the
    # previous phase's still unmatched ones, in ascending order.
    free = [e for e, v in enumerate(match_eq) if v == _INF]
    while free:
        # Label rows by alternating distance from the free rows and stop
        # after the first layer that reaches a free column: the shortest
        # augmenting paths end there, and the rows it labels stay unexpanded.
        dist = [_INF] * m + [m + 1]
        for e in free:
            dist[e] = 0
        frontier, layer, found = free, 0, False
        while frontier and not found:
            layer += 1
            labelled = []
            for e in frontier:
                for v in adj[e]:
                    other = match_var[v]
                    if other == _INF:
                        found = True
                    elif dist[other] == _INF:
                        dist[other] = layer
                        labelled.append(other)
            frontier = labelled
        if not found:
            break

        # From each free row, descend to rows one layer deeper: row e has
        # ``dist`` layer - 1 and its ancestors are on ``rows`` and ``scans``.
        for e in free:
            rows, scans = [], []
            scan, layer = iter(adj[e]), 1
            while True:
                for v in scan:
                    other = match_var[v]
                    if other == _INF or dist[other] == layer:
                        break
                else:
                    # No augmenting path runs through e in this phase.
                    dist[e] = _INF
                    if not rows:
                        break
                    e, scan, layer = rows.pop(), scans.pop(), layer - 1
                    continue
                if other != _INF:
                    rows.append(e)
                    scans.append(scan)
                    e, scan, layer = other, iter(adj[other]), layer + 1
                    continue
                # Column v is free: from the bottom up, each row on the path
                # takes the column below it and hands up the one it held.
                rows.append(e)
                for e in reversed(rows):
                    match_var[v] = e
                    match_eq[e], v = v, match_eq[e]
                break
        free = [e for e in free if match_eq[e] == _INF]

    if knockout is None:
        return tuple([(e, v) for e, v in enumerate(match_eq) if v != _INF])
    k = knockout
    return tuple([(e, v - (v > k)) for e, v in enumerate(match_eq[:k]) if v != _INF]
                 + [(e, v - (v > k)) for e, v in enumerate(match_eq[k + 1:], k) if v != _INF])


def maximum_matching(p: StructurePattern) -> tuple[tuple[int, int], ...]:
    """Maximum-cardinality matching over allowed entries (Hopcroft-Karp).

    Equations are the left vertex class, variables the right. Runs in
    O(E * sqrt(V)). Augmentation scans rows and neighbors in ascending index
    order, so the witness is deterministic for a given pattern.
    """
    _require_pattern(p)
    return _hopcroft_karp(p.rows(), p.num_variables)


def structural_rank(p: StructurePattern) -> int:
    """Generic rank of the structured space identified by ``p``."""
    return len(maximum_matching(p))


def _report(matching, num_equations, num_variables):
    rank = len(matching)
    return RankReport(
        structural_rank=rank,
        num_equations=num_equations,
        num_variables=num_variables,
        classification=ROBUST if rank == num_equations else FRAGILE,
        solution_dimension=num_variables - rank,
        matching=matching,
    )


def classify(p: StructurePattern) -> RankReport:
    """Full rank report: robust iff rank == M, solution dimension N - rank."""
    return _report(maximum_matching(p), p.num_equations, p.num_variables)


def knockout_sweep(p: StructurePattern) -> list[KnockoutEntry]:
    """Classify every single-node knockout of a square pattern.

    Knocking out node k drops row k and column k and shifts larger indices
    down by one, as ``structure.knockout`` does; each knockout is matched on
    the base rows with node k held out, and gets that pattern's witness.
    Entries whose removal turns a fragile base system robust carry
    ``flips_to_robust``. Nodes are evaluated independently; the result does
    not depend on evaluation order. A pattern of more than
    MAX_KNOCKOUT_NODES nodes raises ParseError before any matching.
    """
    return _knockout_sweep(p)[1]


def _knockout_sweep(p):
    """(base report, knockout entries): the sweep, with the base it matched."""
    _require_pattern(p)
    if not p.is_square():
        raise UnsupportedOperationError(
            f"knockout sweep requires a square pattern, got {p.num_equations}x{p.num_variables}"
        )
    n = p.num_equations
    if n == 1:
        raise StructureError("knockout of a 1x1 system would leave an empty system")
    if n > MAX_KNOCKOUT_NODES:
        raise ParseError(f"a knockout sweep of {n} nodes runs {n + 1} matchings, more than the "
                         f"bound of {MAX_KNOCKOUT_NODES} nodes (structural.MAX_KNOCKOUT_NODES)")
    adj = p.rows()
    base = _report(_hopcroft_karp(adj, n), n, n)
    base_fragile = base.classification == FRAGILE
    # Knockout witnesses differ in few pairs, so each distinct (e, v) is kept
    # once: every witness holds the sweep's one tuple for it.
    shared = {}
    entries = []
    for node in range(n):
        witness = _hopcroft_karp(adj, n, node)
        report = _report(tuple(map(shared.setdefault, witness, witness)), n - 1, n - 1)
        entries.append(
            KnockoutEntry(
                node=node,
                report=report,
                flips_to_robust=base_fragile and report.classification == ROBUST,
            )
        )
    return base, entries
