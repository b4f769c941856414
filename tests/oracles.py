"""Independent brute-force oracles used to cross-check the implementations."""

from itertools import combinations
from math import comb

import numpy as np

from structrank.polysys import PolyEquation
from structrank.structure import GeneralizedStructure


def brute_matching_size(pattern):
    """Maximum matching by exhaustive search over row assignments."""
    rows = pattern.rows()
    best = 0

    def rec(e, used):
        nonlocal best
        best = max(best, len(used))
        if e == len(rows):
            return
        if len(used) + (len(rows) - e) <= best:
            return
        rec(e + 1, used)
        for v in rows[e]:
            if v not in used:
                rec(e + 1, used | {v})

    rec(0, frozenset())
    return best


def brute_min_vertex_cover(pattern):
    """Smallest set of rows/columns touching every allowed entry."""
    entries = sorted(pattern.allowed)
    if not entries:
        return 0
    vertices = [("r", i) for i in range(pattern.num_equations)] + [
        ("c", j) for j in range(pattern.num_variables)
    ]
    for size in range(len(vertices) + 1):
        for subset in combinations(vertices, size):
            chosen = set(subset)
            if all((("r", e) in chosen) or (("c", v) in chosen) for e, v in entries):
                return size
    return len(vertices)


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between two finite point sets."""
    a = np.asarray(a)
    b = np.asarray(b)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def reference_draw(structure, degree, rng, distribution):
    """A member's equations, drawn one equation at a time from ``rng``.

    Equation e gets comb(S + degree, degree) coefficients over its S symbols
    (sorted variables, then derived names), uniform on [-1, 1] or standard
    normal: the per-equation draws a single flat draw must reproduce.
    """
    equations = []
    for e in range(structure.num_equations):
        if isinstance(structure, GeneralizedStructure):
            symbols = structure.equation_symbols(e)
        else:
            symbols = tuple(structure.row(e))
        size = comb(len(symbols) + degree, degree)
        if distribution == "uniform":
            coefficients = rng.uniform(-1.0, 1.0, size)
        else:
            coefficients = rng.standard_normal(size)
        equations.append(PolyEquation(symbols, degree, coefficients))
    return equations


def reference_evaluation(structure, equations, x):
    """(Jacobian, values) of one member, one equation at a time.

    Uses ``PolyEquation.value``/``gradient`` and adds each equation's
    variable partials onto a zero row, then its chain-rule terms in slot
    order: the arithmetic the batched kernel must reproduce bit for bit.
    """
    derived = getattr(structure, "derived_by_name", {})
    derived_values = {
        name: float(np.array([c for _, c in spec.coefficients]) @ x[list(spec.support)])
        for name, spec in derived.items()
    }
    J = np.zeros((len(equations), structure.num_variables))
    values = np.empty(len(equations))
    for e, eq in enumerate(equations):
        sym_vals = np.array([
            derived_values[sym] if isinstance(sym, str) else x[sym] for sym in eq.symbols
        ], dtype=np.float64)
        values[e] = eq.value(sym_vals)
        grad = eq.gradient(sym_vals)
        slots = [s for s, sym in enumerate(eq.symbols) if isinstance(sym, int)]
        J[e, [eq.symbols[s] for s in slots]] += grad[slots]
        for slot, sym in enumerate(eq.symbols):
            if isinstance(sym, str):
                spec = derived[sym]
                J[e, list(spec.support)] += np.array([c for _, c in spec.coefficients]) * grad[slot]
    return J, values
