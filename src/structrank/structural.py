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

from collections import deque
from dataclasses import dataclass

from .errors import UnsupportedOperationError
from .structure import GeneralizedStructure, StructurePattern, knockout

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

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            structural_rank=int(d["rank"]),
            num_equations=int(d["M"]),
            num_variables=int(d["N"]),
            classification=str(d["class"]),
            solution_dimension=int(d["dim"]),
            matching=tuple((e - 1, v - 1) for e, v in d["matching"]),
        )


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


def maximum_matching(p: StructurePattern) -> tuple[tuple[int, int], ...]:
    """Maximum-cardinality matching over allowed entries (Hopcroft-Karp).

    Equations are the left vertex class, variables the right. Runs in
    O(E * sqrt(V)). Augmentation scans rows and neighbors in ascending index
    order, so the witness is deterministic for a given pattern.
    """
    _require_pattern(p)
    m = p.num_equations
    adj = p.rows()

    match_eq = [_INF] * m
    match_var = {}
    dist = [0] * m

    def bfs():
        q = deque()
        for e in range(m):
            if match_eq[e] == _INF:
                dist[e] = 0
                q.append(e)
            else:
                dist[e] = _INF
        found = _INF
        while q:
            e = q.popleft()
            if found != _INF and dist[e] >= found:
                continue
            for v in adj[e]:
                other = match_var.get(v, _INF)
                if other == _INF:
                    if found == _INF:
                        found = dist[e] + 1
                elif dist[other] == _INF:
                    dist[other] = dist[e] + 1
                    q.append(other)
        return found != _INF

    def dfs(e):
        for v in adj[e]:
            other = match_var.get(v, _INF)
            if other == _INF:
                match_eq[e] = v
                match_var[v] = e
                return True
            if dist[other] == dist[e] + 1 and dfs(other):
                match_eq[e] = v
                match_var[v] = e
                return True
        dist[e] = _INF
        return False

    while bfs():
        for e in range(m):
            if match_eq[e] == _INF:
                dfs(e)

    return tuple((e, match_eq[e]) for e in range(m) if match_eq[e] != _INF)


def structural_rank(p: StructurePattern) -> int:
    """Generic rank of the structured space identified by ``p``."""
    return len(maximum_matching(p))


def classify(p: StructurePattern) -> RankReport:
    """Full rank report: robust iff rank == M, solution dimension N - rank."""
    matching = maximum_matching(p)
    rank = len(matching)
    robust = rank == p.num_equations
    return RankReport(
        structural_rank=rank,
        num_equations=p.num_equations,
        num_variables=p.num_variables,
        classification=ROBUST if robust else FRAGILE,
        solution_dimension=p.num_variables - rank,
        matching=matching,
    )


def knockout_sweep(p: StructurePattern) -> list[KnockoutEntry]:
    """Classify every single-node knockout of a square pattern.

    Entries whose removal turns a fragile base system robust carry
    ``flips_to_robust``. Nodes are evaluated independently; the result does
    not depend on evaluation order.
    """
    _require_pattern(p)
    if not p.is_square():
        raise UnsupportedOperationError(
            f"knockout sweep requires a square pattern, got {p.num_equations}x{p.num_variables}"
        )
    base_fragile = classify(p).classification == FRAGILE
    entries = []
    for node in range(p.num_equations):
        report = classify(knockout(p, node))
        entries.append(
            KnockoutEntry(
                node=node,
                report=report,
                flips_to_robust=base_fragile and report.classification == ROBUST,
            )
        )
    return entries
