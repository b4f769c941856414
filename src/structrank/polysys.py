"""Concrete polynomial members of a structured function space.

A structured polynomial system assigns each equation a polynomial over
exactly the symbols its structure row allows: original variables, plus any
derived variables (formal symbols expanded by the chain rule when
differentiating). Random members sampled with an absolutely continuous
coefficient distribution realize the generic behavior of the space, and
evaluation / differentiation are exact so that structural facts (zero
entries, proportional rows induced by shared derived variables) survive to
machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import StructureError
from .structure import GeneralizedStructure, StructurePattern

__all__ = [
    "PolyEquation",
    "StructuredPolySystem",
    "JacobianEvaluation",
    "sample_system",
    "system_from_terms",
    "combine",
]

def seeded_rng(seed, *spawn_key) -> np.random.Generator:
    """The platform-independent PCG64 stream of ``seed``, or of its child ``spawn_key``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _sum_vectors(num_symbols, total):
    if num_symbols == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _sum_vectors(num_symbols - 1, total - first):
            yield (first,) + rest


@dataclass(frozen=True)
class _MonomialTable:
    """All exponent vectors of total degree <= degree, graded order.

    Graded ordering makes lower-degree tables prefixes of higher-degree ones,
    so coefficient vectors embed by zero-padding. By symmetry every symbol s
    has the same number R of rows with a positive exponent on s:
    ``rows[s]`` holds them, ``multipliers[s]`` their exponents on s and
    ``dexponents[s]`` the rows with that exponent decremented.
    """

    exponents: np.ndarray  # (K, S)
    rows: np.ndarray  # (S, R)
    multipliers: np.ndarray  # (S, R)
    dexponents: np.ndarray  # (S, R, S)

    @property
    def size(self):
        return self.exponents.shape[0]


@lru_cache(maxsize=None)
def _monomial_table(num_symbols: int, degree: int) -> _MonomialTable:
    vectors = [
        v for total in range(degree + 1) for v in _sum_vectors(num_symbols, total)
    ]
    expts = np.array(vectors, dtype=np.int64).reshape(len(vectors), num_symbols)
    width = int(np.count_nonzero(expts[:, 0])) if num_symbols else 0
    rows = np.array(
        [np.flatnonzero(expts[:, s]) for s in range(num_symbols)], dtype=np.intp
    ).reshape(num_symbols, width)
    symbols = np.arange(num_symbols)
    mult = expts[rows, symbols[:, None]].astype(np.float64)
    dexp = expts[rows]
    dexp[symbols, :, symbols] -= 1
    return _MonomialTable(expts, rows, mult, dexp)


@dataclass(frozen=True, eq=False)
class PolyEquation:
    """One polynomial over an equation's allowed symbols.

    ``symbols`` lists variable indices (int) and derived names (str);
    ``coefficients`` aligns with the monomial table for
    (len(symbols), degree).
    """

    symbols: tuple
    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        table = _monomial_table(len(self.symbols), self.degree)
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.shape != (table.size,):
            raise StructureError(
                f"equation over {len(self.symbols)} symbols at degree {self.degree} "
                f"needs {table.size} coefficients, got {coeffs.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise StructureError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def table(self):
        return _monomial_table(len(self.symbols), self.degree)

    def value(self, symbol_values: np.ndarray) -> float:
        powers = symbol_values[np.newaxis, :] ** self.table.exponents
        return float(self.coefficients @ powers.prod(axis=1))

    def gradient(self, symbol_values: np.ndarray) -> np.ndarray:
        """Exact partials with respect to each symbol."""
        table = self.table
        out = np.zeros(len(self.symbols))
        for s in range(len(self.symbols)):
            powers = symbol_values[np.newaxis, :] ** table.dexponents[s]
            out[s] = (self.coefficients[table.rows[s]] * table.multipliers[s]) @ powers.prod(axis=1)
        return out

    def term_dict(self):
        """Nonzero terms keyed by exponent tuple."""
        return {
            tuple(int(k) for k in self.table.exponents[i]): float(c)
            for i, c in enumerate(self.coefficients)
            if c != 0.0
        }


@dataclass(frozen=True)
class JacobianEvaluation:
    """Jacobian matrix at a point, with the right-hand side F(point)."""

    point: np.ndarray
    matrix: np.ndarray
    residual_target: np.ndarray


@dataclass(frozen=True, eq=False)
class _Bucket:
    """The equations over S symbols, which share one monomial table.

    Column arrays index a member's flat coefficient vector; power arrays
    index the kernel's flat table of powers, one entry per monomial factor.
    ``slots`` locates the bucket's partials in the kernel's array of them.
    """

    table: _MonomialTable
    equations: np.ndarray  # (G,)
    value_columns: np.ndarray  # (G, K)
    partial_columns: np.ndarray  # (G, S, R)
    value_powers: np.ndarray  # (G, K, S)
    partial_powers: np.ndarray  # (G, S, R, S)
    slots: slice  # G*S partials, equation-major

    def value_coefficients(self, coefficients):
        """(..., G, K) coefficient rows of one member (K_total,) or a stack (T, K_total)."""
        return coefficients[..., self.value_columns]

    def partial_coefficients(self, coefficients):
        """(..., G, S, R) coefficients times exponents, one row per partial."""
        return coefficients[..., self.partial_columns] * self.table.multipliers


@dataclass(frozen=True, eq=False)
class _MemberPlan:
    """Evaluation layout of every member of a structured space at one degree.

    A member is one flat coefficient vector: the equations' vectors, each
    aligned with its monomial table, concatenated in equation order;
    equation e owns ``offsets[e]:offsets[e + 1]``. A point
    is extended by the values of the derived variables its equations use,
    whose (support, weights) ``derived`` lists in name order. The kernel
    raises every extended coordinate to the powers 0..degree once; the
    buckets index that table. Each ``scatter`` layer adds weighted partials
    onto the flat Jacobian: layer 0 every variable partial (weight 1), layer
    k the chain-rule terms of every equation's k-th derived symbol.
    ``entries`` bounds the float64 values one member occupies in
    ``stacked_jacobians``: its Jacobian, its coefficients, its table of
    powers or its largest bucket of monomial factors.
    """

    symbols: tuple  # per equation: sorted variables, then derived names
    offsets: np.ndarray  # (M + 1,)
    num_variables: int
    powers: np.ndarray  # 0..degree
    derived: tuple  # per derived name: (support, weights)
    buckets: tuple[_Bucket, ...]
    num_slots: int
    scatter: tuple  # per layer: (flat Jacobian targets, partial slots, weights)
    num_coefficients: int
    entries: int


@lru_cache(maxsize=32)
def member_plan(structure, degree) -> _MemberPlan:
    """The layout of every member at ``degree``, built once and shared by all of them.

    The plan is cached per (structure, degree); callers must not modify it.
    """
    n = structure.num_variables
    if isinstance(structure, GeneralizedStructure):
        rows = tuple(map(structure.equation_symbols, range(structure.num_equations)))
        specs = structure.derived_by_name
    else:
        rows, specs = tuple(map(tuple, structure.rows())), {}
    used = sorted({sym for row in rows for sym in row if isinstance(sym, str)})
    column = {name: n + i for i, name in enumerate(used)}
    derived = tuple(
        (np.array(specs[name].support, dtype=np.intp),
         np.array([c for _, c in specs[name].coefficients]))
        for name in used
    )
    offsets = np.cumsum([0] + [_monomial_table(len(row), degree).size for row in rows])
    buckets, layers = [], {}
    slot = entries = 0
    for width in sorted({len(row) for row in rows}):
        members = [e for e, row in enumerate(rows) if len(row) == width]
        table = _monomial_table(width, degree)
        first = offsets[members][:, np.newaxis]
        base = (degree + 1) * np.array(
            [[column.get(sym, sym) for sym in rows[e]] for e in members], dtype=np.intp
        ).reshape(len(members), width)
        buckets.append(_Bucket(
            table,
            equations=np.array(members, dtype=np.intp),
            value_columns=first + np.arange(table.size),
            partial_columns=first[:, :, np.newaxis] + table.rows,
            value_powers=base[:, np.newaxis, :] + table.exponents,
            partial_powers=base[:, np.newaxis, np.newaxis, :] + table.dexponents,
            slots=slice(slot, slot + len(members) * width),
        ))
        for e in members:
            k = 0
            for sym in rows[e]:
                if isinstance(sym, int):
                    terms = ((sym, 1.0),)
                else:
                    terms, k = specs[sym].coefficients, k + 1
                layer = layers.setdefault(k, ([], [], []))
                for i, weight in terms:
                    layer[0].append(e * n + i)
                    layer[1].append(slot)
                    layer[2].append(weight)
                slot += 1
        entries = max(entries, len(members) * width * max(table.rows.size, table.size))
    num_coefficients = int(offsets[-1])
    return _MemberPlan(
        symbols=rows,
        offsets=offsets,
        num_variables=n,
        powers=np.arange(degree + 1),
        derived=derived,
        buckets=tuple(buckets),
        num_slots=slot,
        scatter=tuple(
            (np.array(t, dtype=np.intp), np.array(src, dtype=np.intp), np.array(w))
            for t, src, w in (layers[k] for k in sorted(layers))
        ),
        num_coefficients=num_coefficients,
        entries=max(entries, len(rows) * n, num_coefficients,
                    (n + len(used)) * (degree + 1), slot),
    )


def _rowwise_dot(a, b):
    """``a[..., :] @ b[..., :]`` for every row, broadcasting the leading axes.

    Each row goes through the BLAS dot a 1-D ``@`` uses. Both operands are
    made C-contiguous: on strided rows matmul leaves that dot path and the
    sums can differ from the 1-D ones in the last ulp.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.matmul(a[..., np.newaxis, :], b[..., :, np.newaxis])[..., 0, 0]


def _evaluate(plan, points, partial_coefficients, value_coefficients=None):
    """Jacobians (T, M, N) of T members at ``points`` (T, N), and their values.

    ``partial_coefficients`` yields each bucket's partial coefficient rows
    (``_Bucket.partial_coefficients``) in plan order; ``value_coefficients``
    does the same for values (``_Bucket.value_coefficients``), or is None to
    skip them. Each bucket is one pass: gather its monomial factors from
    the table of powers, multiply them over the symbols and take one
    row-wise dot per kind. Every number is the same sum of the same products
    as in ``PolyEquation.value``/``gradient``. Jacobian entries are sums onto
    zeros, so a -0.0 chain-rule term reads +0.0 as it does there.
    """
    count, n = points.shape
    extended = points
    if plan.derived:
        extended = np.empty((count, n + len(plan.derived)))
        extended[:, :n] = points
        for column, (support, weights) in enumerate(plan.derived, start=n):
            extended[:, column] = _rowwise_dot(weights, points[:, support])
    powers = (extended[:, :, np.newaxis] ** plan.powers).reshape(count, -1)
    partials = np.empty((count, plan.num_slots))
    values = None if value_coefficients is None else np.empty((count, len(plan.symbols)))
    for bucket, partial_rows, value_rows in zip(
        plan.buckets, partial_coefficients, value_coefficients or repeat(None)
    ):
        if values is not None:
            values[:, bucket.equations] = _rowwise_dot(
                value_rows, np.multiply.reduce(powers.take(bucket.value_powers, axis=1), axis=-1)
            )
        partials[:, bucket.slots] = _rowwise_dot(
            partial_rows, np.multiply.reduce(powers.take(bucket.partial_powers, axis=1), axis=-1)
        ).reshape(count, -1)
    J = np.zeros((count, len(plan.symbols) * n))
    for targets, sources, weights in plan.scatter:
        J[:, targets] += weights * partials[:, sources]
    return J.reshape(count, len(plan.symbols), n), values


@dataclass(frozen=True, eq=False)
class StructuredPolySystem:
    """A concrete polynomial system respecting a structure.

    Immutable after construction; ``evaluate`` and ``jacobian`` are pure.
    Sampled systems are reconstructible bit-exactly from
    (structure, degree, seed, distribution).
    """

    structure: StructurePattern | GeneralizedStructure
    degree: int
    equations: tuple[PolyEquation, ...]
    seed: int | None = None
    distribution: str = "explicit"

    def __post_init__(self):
        if len(self.equations) != self.structure.num_equations:
            raise StructureError(
                f"structure has {self.structure.num_equations} equations, "
                f"got {len(self.equations)} polynomials"
            )
        plan = member_plan(self.structure, self.degree)
        for e, (eq, symbols) in enumerate(zip(self.equations, plan.symbols)):
            if eq.symbols != symbols:
                raise StructureError(f"equation {e + 1} does not match its structure row")
            if eq.degree != self.degree:
                raise StructureError(
                    f"equation {e + 1} has degree {eq.degree}, the system {self.degree}"
                )
        coefficients = np.concatenate([eq.coefficients for eq in self.equations])
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_partial_coefficients", tuple(
            b.partial_coefficients(coefficients) for b in plan.buckets
        ))
        object.__setattr__(self, "_value_coefficients", tuple(
            b.value_coefficients(coefficients) for b in plan.buckets
        ))

    @property
    def num_equations(self):
        return len(self.equations)

    @property
    def num_variables(self):
        return self.structure.num_variables

    def _check_point(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.num_variables,):
            raise ValueError(
                f"expected a point in R^{self.num_variables}, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError("point has non-finite components")
        return x

    def evaluate(self, x) -> np.ndarray:
        """F(x), with derived variables substituted first."""
        return self.jacobian(x).residual_target

    def jacobian(self, x) -> JacobianEvaluation:
        """Exact Jacobian at ``x``; entries outside the effective pattern are zero.

        Derived variables are differentiated by the chain rule with their
        exact weights, so rows that share a derived symbol stay exactly
        proportional on its support.
        """
        x = self._check_point(x)
        J, values = _evaluate(
            self._plan, x[np.newaxis], self._partial_coefficients, self._value_coefficients
        )
        return JacobianEvaluation(point=x, matrix=J[0], residual_target=values[0])

    def to_json_dict(self):
        from .formats import structure_to_json_dict

        return {
            "structure": structure_to_json_dict(self.structure),
            "degree": self.degree,
            "seed": self.seed,
            "distribution": self.distribution,
            "equations": [
                {
                    ",".join(str(k) for k in exps): coeff
                    for exps, coeff in sorted(eq.term_dict().items())
                }
                for eq in self.equations
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of ``to_json_dict``, with the checks of a system file."""
        from .formats import _system_from_json_dict

        return _system_from_json_dict(d)


def _member(structure, degree, flat, seed=None, distribution="explicit"):
    """The member whose coefficients ``flat`` are laid out by ``member_plan``."""
    plan = member_plan(structure, degree)
    equations = tuple(
        PolyEquation(symbols, degree, flat[start:stop])
        for symbols, start, stop in zip(plan.symbols, plan.offsets[:-1], plan.offsets[1:])
    )
    return StructuredPolySystem(structure, degree, equations, seed=seed, distribution=distribution)


def system_from_terms(
    structure, degree, terms, seed=None, distribution="explicit"
) -> StructuredPolySystem:
    """Build a system from per-equation {exponent tuple: coefficient} maps.

    Exponent tuples align with each equation's symbol order (sorted variable
    indices, then derived names).
    """
    plan = member_plan(structure, degree)
    if len(terms) != len(plan.symbols):
        raise StructureError(
            f"structure has {len(plan.symbols)} equations, got {len(terms)} term maps"
        )
    flat = np.zeros(plan.num_coefficients)
    for e, (symbols, start, row) in enumerate(zip(plan.symbols, plan.offsets, terms)):
        table = _monomial_table(len(symbols), degree)
        index = {exps: i for i, exps in enumerate(map(tuple, table.exponents.tolist()))}
        for exps, c in row.items():
            exps = tuple(int(k) for k in exps)
            if exps not in index:
                raise StructureError(
                    f"equation {e + 1}: exponent vector {exps} is not a monomial "
                    f"of degree <= {degree} over its {len(symbols)} symbols"
                )
            flat[start + index[exps]] = float(c)
    return _member(structure, degree, flat, seed, distribution)


def _draw(rng, distribution, size):
    if distribution == "uniform":
        return rng.uniform(-1.0, 1.0, size)
    if distribution == "normal":
        return rng.standard_normal(size)
    raise ValueError(f"distribution must be 'uniform' or 'normal', got {distribution!r}")


def check_degree(degree, allow_constant=False):
    """Raise ValueError unless degree >= 1, or >= 0 when constants are allowed.

    Degree 0 means constant equations, whose Jacobian rows are identically zero.
    """
    least = 0 if allow_constant else 1
    if degree < least:
        raise ValueError(
            f"degree must be >= {least}, got {degree}: degree 0 means constant "
            "equations with identically zero Jacobian rows"
        )


def sample_system(
    structure,
    degree: int = 2,
    seed: int = 0,
    distribution: str = "uniform",
    allow_constant: bool = False,
) -> StructuredPolySystem:
    """Draw a random member of the structured space.

    Every monomial of total degree <= ``degree`` over each equation's allowed
    symbols gets an independent coefficient. Deterministic given
    (structure, degree, seed, distribution); the generator is PCG64, which is
    platform independent.
    """
    check_degree(degree, allow_constant)
    flat = _draw(seeded_rng(seed), distribution, member_plan(structure, degree).num_coefficients)
    return _member(structure, degree, flat, seed, distribution)


def stacked_jacobians(plan, coefficients, points) -> np.ndarray:
    """Jacobians of T members, member t at ``points[t]``.

    Takes (T, K) coefficients laid out by ``plan`` and (T, N) points and
    returns (T, M, N). It is the kernel of ``StructuredPolySystem.jacobian``
    with T members instead of one and no values, so each matrix equals the
    per-point one bit for bit.
    """
    return _evaluate(
        plan, points, (b.partial_coefficients(coefficients) for b in plan.buckets)
    )[0]


def combine(a: float, f: StructuredPolySystem, b: float, g: StructuredPolySystem) -> StructuredPolySystem:
    """The member a*F + b*G of the space both systems live in.

    Requires identical structures. Coefficient vectors combine termwise;
    graded monomial order lets a lower-degree system embed into a
    higher-degree table by zero padding.
    """
    if f.structure != g.structure:
        raise StructureError("cannot combine systems with different structures")
    degree = max(f.degree, g.degree)
    plan = member_plan(f.structure, degree)
    flat = np.zeros(plan.num_coefficients)
    for start, fe, ge in zip(plan.offsets, f.equations, g.equations):
        flat[start:start + fe.coefficients.size] += a * fe.coefficients
        flat[start:start + ge.coefficients.size] += b * ge.coefficients
    return _member(f.structure, degree, flat, distribution="combination")
