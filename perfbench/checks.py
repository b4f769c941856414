"""Independent oracles and output checks for the benchmark's analysis calls.

Nothing here calls the code path it checks: matching ranks come from
``scipy.sparse.csgraph.maximum_bipartite_matching``, residuals are
recomputed from each polynomial's terms, and numeric outputs are compared
with a reference recorded from the seed commit (see ``record_reference.py``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Floats in recorded references must match within this relative tolerance
# (with an absolute floor for values that are zero up to rounding).
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9

# A residual recomputed from polynomial terms may differ from the package's
# own by rounding; accept up to this many times the package's tolerance.
RESIDUAL_SLACK = 100.0


class CheckFailed(Exception):
    """An analysis returned an output that its check rejects."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# --- matching -------------------------------------------------------------


def oracle_rank(num_rows, num_cols, entries):
    """Maximum bipartite matching size by scipy (Hopcroft-Karp in C)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if not entries:
        return 0
    rows, cols = zip(*entries)
    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(num_rows, num_cols)
    )
    matched = maximum_bipartite_matching(graph, perm_type="column")
    return int(np.count_nonzero(matched >= 0))


def oracle_pattern_rank(pattern):
    return oracle_rank(pattern.num_equations, pattern.num_variables, list(pattern.allowed))


def oracle_knockout_ranks(pattern):
    """Matching rank after deleting row k and column k, for every k."""
    n = pattern.num_equations
    ranks = []
    for k in range(n):
        entries = [
            (e - (e > k), v - (v > k)) for e, v in pattern.allowed if e != k and v != k
        ]
        ranks.append(oracle_rank(n - 1, n - 1, entries))
    return ranks


def check_witness(matching, allowed, rank, one_based=False):
    """A matching witness is valid: allowed pairs, no row or column reused."""
    shift = 1 if one_based else 0
    pairs = [(e - shift, v - shift) for e, v in matching]
    expect(len(pairs) == rank, f"witness has {len(pairs)} pairs, rank is {rank}")
    expect(all(p in allowed for p in pairs), "witness uses a pair outside the pattern")
    expect(len({e for e, _ in pairs}) == len(pairs), "witness repeats a row")
    expect(len({v for _, v in pairs}) == len(pairs), "witness repeats a column")


# --- polynomial systems ----------------------------------------------------


def poly_values(system, x):
    """F(x) recomputed from each equation's terms, not from ``evaluate``."""
    x = np.asarray(x, dtype=np.float64)
    derived = {}
    if hasattr(system.structure, "derived_by_name"):
        derived = {
            name: sum(c * x[i] for i, c in spec.coefficients)
            for name, spec in system.structure.derived_by_name.items()
        }
    values = []
    for eq in system.equations:
        sym = [x[s] if isinstance(s, int) else derived[s] for s in eq.symbols]
        values.append(
            sum(c * math.prod(v ** k for v, k in zip(sym, exps))
                for exps, c in eq.term_dict().items())
        )
    return np.array(values)


def check_residual(system, x, target, tol, what):
    r = float(np.linalg.norm(poly_values(system, x) - np.asarray(target)))
    scale = 1.0 + float(np.linalg.norm(target))
    expect(r <= RESIDUAL_SLACK * tol * scale, f"{what}: residual {r:.3e} above {tol:.1e}")


def check_branch(system, branch, max_points):
    """Invariants of a traced curve, recomputed independently."""
    kinds = {"rank-drop", "domain-exit", "corrector-failure", "closed", "max-points"}
    expect(1 <= len(branch.points) <= max_points, f"{len(branch.points)} points traced")
    expect(all(ev.kind in kinds for ev in branch.events), "unknown event kind")
    expect(branch.events, "trace stopped without an event")
    step = branch.max_step * (1.0 + 1e-9)
    prev = None
    for bp in branch.points:
        expect(bp.rank == branch.rank, "point rank differs from branch rank")
        check_residual(system, bp.point, branch.target, branch.residual_tol, "trace point")
        if prev is not None:
            gap = float(np.linalg.norm(bp.point - prev))
            expect(gap <= step, f"consecutive points {gap:.3e} apart, step {branch.max_step}")
        prev = bp.point


# --- recorded references -----------------------------------------------------


def read_reference():
    """The whole recorded reference (see ``record_reference.py``), or {}."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def compare_summary(actual, recorded):
    """Exact fields must match; floats must agree within FLOAT_RTOL."""
    expect(actual["exact"] == recorded["exact"],
           f"differs from reference: {actual['exact']} != {recorded['exact']}")
    a, b = actual["floats"], recorded["floats"]
    expect(len(a) == len(b), "float summary length differs from reference")
    for u, v in zip(a, b):
        expect(math.isclose(u, v, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL),
               f"float {u!r} differs from reference {v!r}")
