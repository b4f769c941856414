"""Independent brute-force oracles used to cross-check the implementations."""

from collections import deque
from itertools import combinations, product
from math import comb

import numpy as np

from structrank.polysys import (
    JacobianEvaluation, PolyEquation, StructuredPolySystem, draw_members, member_plan, seeded_rng,
)
from structrank.structural import RankReport
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


_INF = -1


def reference_matching(p):
    """The recursive, dict-based Hopcroft-Karp that ``maximum_matching`` replaced.

    Kept verbatim as the witness reference: the kernel must return the same
    tuple. Its depth-first search recurses once per path row, so long paths
    need a raised recursion limit.
    """
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


def report_from_json_dict(d):
    """The RankReport a ``RankReport.to_json_dict`` payload describes (1-based indices)."""
    return RankReport(
        structural_rank=int(d["rank"]),
        num_equations=int(d["M"]),
        num_variables=int(d["N"]),
        classification=str(d["class"]),
        solution_dimension=int(d["dim"]),
        matching=tuple((e - 1, v - 1) for e, v in d["matching"]),
    )


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
            symbols = structure.rows()[e]
        else:
            symbols = tuple(structure.row(e))
        size = comb(len(symbols) + degree, degree)
        if distribution == "uniform":
            coefficients = rng.uniform(-1.0, 1.0, size)
        else:
            coefficients = rng.standard_normal(size)
        equations.append(PolyEquation(symbols, degree, coefficients))
    return equations


def random_member(structure, degree, seed=0, distribution="uniform"):
    """The member ``sample_system`` draws, at any degree >= 0.

    Sampling refuses degree 0, whose members are constant; the kernel tests
    draw those here, by the same steps.
    """
    plan = member_plan(structure, degree)
    flat = draw_members([seeded_rng(seed)], 1, plan.num_coefficients, distribution)[0]
    return StructuredPolySystem(structure, degree, flat, seed, distribution)


def reference_exponents(num_symbols, degree):
    """Every exponent vector of total degree <= ``degree``, by total, then descending.

    The graded order a monomial table holds, taken from all of
    product(range(degree + 1), repeat=num_symbols).
    """
    vectors = [v for v in product(range(degree + 1), repeat=num_symbols) if sum(v) <= degree]
    vectors.sort(key=lambda v: (sum(v), tuple(-k for k in v)))
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), num_symbols)


def reference_table(num_symbols, degree):
    """(rows, multipliers, value factors, partial factors) of a monomial table, as lists.

    Taken from ``reference_exponents``: ``rows[s]`` lists the monomials with a
    positive exponent on symbol s and ``multipliers[s]`` those exponents. A
    monomial's factors are its (symbol, exponent) pairs of positive exponent,
    in symbol order; ``partials[s]`` holds those of each monomial of
    ``rows[s]`` with its exponent on s decremented.
    """
    exponents = reference_exponents(num_symbols, degree).tolist()

    def factors(vector):
        return [(s, e) for s, e in enumerate(vector) if e > 0]

    rows = [[k for k, v in enumerate(exponents) if v[s] > 0] for s in range(num_symbols)]
    multipliers = [[float(exponents[k][s]) for k in row] for s, row in enumerate(rows)]
    partials = [[factors([e - (t == s) for t, e in enumerate(exponents[k])]) for k in row]
                for s, row in enumerate(rows)]
    return rows, multipliers, [factors(v) for v in exponents], partials


def reference_stream(seed, i):
    """Trial i's stream, built the documented way: SeedSequence(seed, spawn_key=(i,)) -> PCG64."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))


def equation_value(eq, symbol_values):
    """One equation's value: its coefficients dotted with its monomials."""
    powers = symbol_values[np.newaxis, :] ** eq.table.exponents
    return float(eq.coefficients @ powers.prod(axis=1))


def equation_gradient(eq, symbol_values):
    """Exact partials of one equation with respect to each of its symbols."""
    table = eq.table
    out = np.zeros(len(eq.symbols))
    for s in range(len(eq.symbols)):
        decremented = table.exponents[table.rows[s]]
        decremented[:, s] -= 1
        powers = symbol_values[np.newaxis, :] ** decremented
        out[s] = (eq.coefficients[table.rows[s]] * table.multipliers[s]) @ powers.prod(axis=1)
    return out


def reference_evaluation(structure, equations, x):
    """(Jacobian, values) of one member, one equation at a time.

    Uses ``equation_value``/``equation_gradient`` and adds each equation's
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
        values[e] = equation_value(eq, sym_vals)
        grad = equation_gradient(eq, sym_vals)
        slots = [s for s, sym in enumerate(eq.symbols) if isinstance(sym, int)]
        J[e, [eq.symbols[s] for s in slots]] += grad[slots]
        for slot, sym in enumerate(eq.symbols):
            if isinstance(sym, str):
                spec = derived[sym]
                J[e, list(spec.support)] += np.array([c for _, c in spec.coefficients]) * grad[slot]
    return J, values


def reference_gauss_newton(system, x0, target, residual_tol, max_iterations, max_backtracks=12):
    """The Gauss-Newton corrector that recomputed each iterate's residual for its step.

    Kept as the reference ``continuation._gauss_newton`` must match bit for
    bit: its norms are ``np.linalg.norm`` and the least-squares right-hand
    side is formed again from the evaluation.
    """
    def evaluation(pt):
        try:
            jac = pt if isinstance(pt, JacobianEvaluation) else system.jacobian(pt)
        except (ValueError, FloatingPointError):
            return None, np.inf
        return jac, float(np.linalg.norm(jac.residual_target - target))

    jac, rn = evaluation(x0)
    if not np.isfinite(rn):
        return jac, 0, False, np.inf
    iterations = 0
    while rn > residual_tol and iterations < max_iterations:
        iterations += 1
        r = jac.residual_target - target
        step, *_ = np.linalg.lstsq(jac.matrix, -r, rcond=None)
        if not step.any():
            break
        t = 1.0
        for _ in range(max_backtracks):
            trial, trial_rn = evaluation(jac.point + t * step)
            if trial_rn < rn:
                break
            t *= 0.5
        else:
            break
        jac, rn = trial, trial_rn
    return jac, iterations, rn <= residual_tol, rn
