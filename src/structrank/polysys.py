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

DISTRIBUTIONS = ("uniform", "normal")


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
    so coefficient vectors embed by zero-padding. ``derivative`` holds, per
    symbol s, the row indices with a positive exponent on s, the exponent
    multipliers, and the decremented exponent rows.
    """

    exponents: np.ndarray  # (K, S)
    derivative: tuple  # per symbol: (rows, multipliers, dexponents)

    @property
    def size(self):
        return self.exponents.shape[0]


@lru_cache(maxsize=None)
def _monomial_table(num_symbols: int, degree: int) -> _MonomialTable:
    vectors = [
        v for total in range(degree + 1) for v in _sum_vectors(num_symbols, total)
    ]
    expts = np.array(vectors, dtype=np.int64).reshape(len(vectors), num_symbols)
    deriv = []
    for s in range(num_symbols):
        rows = np.flatnonzero(expts[:, s] > 0)
        mult = expts[rows, s].astype(np.float64)
        dexp = expts[rows].copy()
        dexp[:, s] -= 1
        deriv.append((rows, mult, dexp))
    return _MonomialTable(expts, tuple(deriv))


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
        out = np.zeros(len(self.symbols))
        for s, (rows, mult, dexp) in enumerate(self.table.derivative):
            if rows.size == 0:
                continue
            powers = symbol_values[np.newaxis, :] ** dexp
            out[s] = (self.coefficients[rows] * mult) @ powers.prod(axis=1)
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


def equation_symbols(structure, e):
    """Symbol tuple for equation ``e``: sorted variables, then derived names."""
    if isinstance(structure, GeneralizedStructure):
        return structure.equation_symbols(e)
    return tuple(structure.row(e))


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
        for e, eq in enumerate(self.equations):
            if eq.symbols != equation_symbols(self.structure, e):
                raise StructureError(f"equation {e + 1} does not match its structure row")
        # Per-equation scatter plans, computed once.
        var_slots, var_idx, derived_slots = [], [], []
        derived = (
            self.structure.derived_by_name
            if isinstance(self.structure, GeneralizedStructure)
            else {}
        )
        for eq in self.equations:
            slots = [s for s, sym in enumerate(eq.symbols) if isinstance(sym, int)]
            var_slots.append(np.array(slots, dtype=np.intp))
            var_idx.append(
                np.array([eq.symbols[s] for s in slots], dtype=np.intp)
            )
            derived_slots.append(
                tuple((s, eq.symbols[s]) for s in range(len(eq.symbols)) if isinstance(eq.symbols[s], str))
            )
        dsupport = {
            name: (
                np.array(spec.support, dtype=np.intp),
                np.array([c for _, c in spec.coefficients]),
            )
            for name, spec in derived.items()
        }
        object.__setattr__(self, "_var_slots", tuple(var_slots))
        object.__setattr__(self, "_var_idx", tuple(var_idx))
        object.__setattr__(self, "_derived_slots", tuple(derived_slots))
        object.__setattr__(self, "_derived_support", dsupport)

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

    def _symbol_values(self, e, x, derived_values):
        eq = self.equations[e]
        vals = np.empty(len(eq.symbols))
        vals[self._var_slots[e]] = x[self._var_idx[e]]
        for slot, name in self._derived_slots[e]:
            vals[slot] = derived_values[name]
        return vals

    def _derived_values(self, x):
        return {
            name: float(coeffs @ x[idx])
            for name, (idx, coeffs) in self._derived_support.items()
        }

    def evaluate(self, x) -> np.ndarray:
        """F(x), with derived variables substituted first."""
        x = self._check_point(x)
        derived_values = self._derived_values(x)
        return np.array(
            [
                eq.value(self._symbol_values(e, x, derived_values))
                for e, eq in enumerate(self.equations)
            ]
        )

    def jacobian(self, x) -> JacobianEvaluation:
        """Exact Jacobian at ``x``; entries outside the effective pattern are zero.

        Derived variables are differentiated by the chain rule with their
        exact weights, so rows that share a derived symbol stay exactly
        proportional on its support.
        """
        x = self._check_point(x)
        derived_values = self._derived_values(x)
        J = np.zeros((self.num_equations, self.num_variables))
        values = np.empty(self.num_equations)
        for e, eq in enumerate(self.equations):
            sym_vals = self._symbol_values(e, x, derived_values)
            values[e] = eq.value(sym_vals)
            grad = eq.gradient(sym_vals)
            J[e, self._var_idx[e]] += grad[self._var_slots[e]]
            for slot, name in self._derived_slots[e]:
                idx, coeffs = self._derived_support[name]
                J[e, idx] += coeffs * grad[slot]
        return JacobianEvaluation(point=x, matrix=J, residual_target=values)

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
        from .formats import structure_from_json_dict

        structure = structure_from_json_dict(d["structure"])
        degree = int(d["degree"])
        terms = [
            {tuple(int(p) for p in key.split(",")) if key else (): float(c) for key, c in eq.items()}
            for eq in d["equations"]
        ]
        seed = d.get("seed")
        return system_from_terms(
            structure,
            degree,
            terms,
            seed=None if seed is None else int(seed),
            distribution=str(d.get("distribution", "explicit")),
        )


def system_from_terms(
    structure, degree, terms, seed=None, distribution="explicit"
) -> StructuredPolySystem:
    """Build a system from per-equation {exponent tuple: coefficient} maps.

    Exponent tuples align with each equation's symbol order (sorted variable
    indices, then derived names).
    """
    equations = []
    for e in range(structure.num_equations):
        symbols = equation_symbols(structure, e)
        table = _monomial_table(len(symbols), degree)
        index = {tuple(int(k) for k in row): i for i, row in enumerate(table.exponents)}
        coeffs = np.zeros(table.size)
        for exps, c in terms[e].items():
            exps = tuple(int(k) for k in exps)
            if exps not in index:
                raise StructureError(
                    f"equation {e + 1}: exponent vector {exps} is not a monomial "
                    f"of degree <= {degree} over its {len(symbols)} symbols"
                )
            coeffs[index[exps]] = float(c)
        equations.append(PolyEquation(symbols, degree, coeffs))
    return StructuredPolySystem(
        structure, degree, tuple(equations), seed=seed, distribution=distribution
    )


def _draw(rng, distribution, size):
    if distribution == "uniform":
        return rng.uniform(-1.0, 1.0, size)
    if distribution == "normal":
        return rng.standard_normal(size)
    raise ValueError(f"unknown coefficient distribution {distribution!r}")


def _sample_with_rng(structure, degree, rng, distribution):
    equations = []
    for e in range(structure.num_equations):
        symbols = equation_symbols(structure, e)
        table = _monomial_table(len(symbols), degree)
        equations.append(PolyEquation(symbols, degree, _draw(rng, distribution, table.size)))
    return tuple(equations)


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
    if degree < 0 or (degree == 0 and not allow_constant):
        raise ValueError(
            "degree 0 means constant equations with identically zero Jacobian rows; "
            "pass allow_constant=True if that is intended"
        )
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    equations = _sample_with_rng(structure, degree, rng, distribution)
    return StructuredPolySystem(structure, degree, equations, seed=seed, distribution=distribution)


def combine(a: float, f: StructuredPolySystem, b: float, g: StructuredPolySystem) -> StructuredPolySystem:
    """The member a*F + b*G of the space both systems live in.

    Requires identical structures. Coefficient vectors combine termwise;
    graded monomial order lets a lower-degree system embed into a
    higher-degree table by zero padding.
    """
    if f.structure != g.structure:
        raise StructureError("cannot combine systems with different structures")
    degree = max(f.degree, g.degree)
    equations = []
    for e in range(f.num_equations):
        symbols = f.equations[e].symbols
        table = _monomial_table(len(symbols), degree)
        coeffs = np.zeros(table.size)
        fc = f.equations[e].coefficients
        gc = g.equations[e].coefficients
        coeffs[: fc.size] += a * fc
        coeffs[: gc.size] += b * gc
        equations.append(PolyEquation(symbols, degree, coeffs))
    return StructuredPolySystem(
        f.structure, degree, tuple(equations), seed=None, distribution="combination"
    )
