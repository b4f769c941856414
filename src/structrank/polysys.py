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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement, compress
from math import comb, isfinite

import numpy as np

from .errors import ParseError, StructureError
from .formats import _system_from_json_dict, check_jacobian_size, structure_to_json_dict
from .structure import (
    GeneralizedStructure, StructurePattern, _index, check_count, check_real, check_structure,
)

__all__ = [
    "PolyEquation",
    "StructuredPolySystem",
    "JacobianEvaluation",
    "sample_system",
    "system_from_terms",
    "combine",
]

# The most entries building a member plan takes: its index, min(d, S) x W
# for the widest row's S symbols at degree d and W monomials (with partials)
# over all rows, its trials' index of min(d - 1, S) x P for the P partial
# monomials, the gather one stacked trial makes from that, and the dense
# arrays that building the table of a width of S symbols takes, S x K
# exponents and S x S x R decremented ones, twice over. All grow
# faster than M x N, which grows as S^2, so a plan over the bound is refused
# before any table or index is built.
MAX_PLAN_ENTRIES = 10_000_000

def seeded_rng(seed) -> np.random.Generator:
    """The platform-independent PCG64 stream of ``seed``, an int >= 0."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# numpy's SeedSequence hash constants (4-word pool, 16-bit xorshift) and
# PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# Trial streams whose seed words one vectorized pass derives.
_SEED_BLOCK = 1024


@lru_cache(maxsize=None)
def _hash_constants(init, mult, first, count):
    """(xor, multiply) constants of hash calls first..first+count-1, as (count, 1) columns."""
    consts = [init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(first, first + count + 1)]
    return (np.array(consts[:-1], dtype=np.uint32)[:, np.newaxis],
            np.array(consts[1:], dtype=np.uint32)[:, np.newaxis])


# generate_state(4, uint64) hashes the pool twice round into 8 words.
_OUTPUT_XOR, _OUTPUT_MULT = _hash_constants(_INIT_B, _MULT_B, 0, 8)


def _seed_words(pool, calls, start, stop):
    """PCG64 seed words (seed high, seed low, inc high, inc low) of spawn keys start..stop-1.

    ``pool`` is the pool the run entropy leaves after ``calls`` hash calls.
    Mixing in the spawn key (i,), one 32-bit word below 2**32 and two from
    there (stop <= 2**64), and hashing out the seed words run as uint32
    arithmetic over all i at once.
    """
    index = np.arange(start, stop, dtype=np.uint64)
    pool = np.repeat(pool[:, np.newaxis], len(index), axis=1)
    for k in range(1 + (stop > 1 << 32)):
        rows = slice(None) if k == 0 else index >= 1 << 32
        word = (index[rows] >> (32 * k)).astype(np.uint32)
        xor, mult = _hash_constants(_INIT_A, _MULT_A, calls + 4 * k, 4)
        value = (word ^ xor) * mult
        value ^= value >> 16
        mixed = _MIX_MULT_L * pool[:, rows] - _MIX_MULT_R * value
        pool[:, rows] = mixed ^ (mixed >> 16)
    out = (np.tile(pool, (2, 1)) ^ _OUTPUT_XOR) * _OUTPUT_MULT
    out ^= out >> 16
    # Little-endian word pairs make the uint64s.
    return (out[0::2].astype(np.uint64) | (out[1::2].astype(np.uint64) << 32)).tolist()


def seeded_streams(seed, start, stop):
    """Trial i's stream, SeedSequence(seed, spawn_key=(i,)) -> PCG64, for i in range(start, stop).

    Yields one Generator, re-seeded for each i, so each stream must be drawn
    from before the next is taken. ``SeedSequence(seed)``, of an int seed
    >= 0, gives the pool its words leave; the seed words of up to _SEED_BLOCK spawn
    keys come from one vectorized pass, and PCG64's two-step seeding runs
    in Python integers, so every draw is byte for byte that of a generator
    built for the one stream.
    """
    sequence = np.random.SeedSequence(seed)
    # Hash calls made so far: 4 to fill the pool, 12 to cross-mix it, and 4
    # for each 32-bit word of the seed past the pool size.
    calls = 16 + 4 * max(0, -(-seed.bit_length() // 32) - 4)
    generator = np.random.Generator(np.random.PCG64(sequence))
    bit_generator = generator.bit_generator
    for block in range(start, stop, _SEED_BLOCK):
        words = _seed_words(sequence.pool, calls, block, min(block + _SEED_BLOCK, stop))
        for seed_hi, seed_lo, inc_hi, inc_lo in zip(*words):
            inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield generator


@dataclass(frozen=True)
class _MonomialTable:
    """All exponent vectors of total degree <= degree over S symbols, graded order.

    Graded ordering makes lower-degree tables prefixes of higher-degree ones,
    so coefficient vectors embed by zero-padding. By symmetry every symbol s
    has the same number R of rows with a positive exponent on s:
    ``rows[s]`` holds them and ``multipliers[s]`` their exponents on s. A
    monomial has at most min(degree, S) positive exponents:
    ``value_factors`` lists, for each of the K monomials, those symbols in
    order and their exponents, padded with exponent 0, and
    ``partial_factors`` does so for the monomials of ``rows`` with the
    exponent on s decremented. The table keeps only these; the dense
    exponent matrix is rebuilt on demand.
    """

    num_symbols: int
    rows: np.ndarray  # (S, R)
    multipliers: np.ndarray  # (S, R)
    value_factors: tuple  # (symbols, exponents), each (K, min(degree, S))
    partial_factors: tuple  # (symbols, exponents), each (S, R, min(degree, S))

    @property
    def size(self):
        return self.value_factors[0].shape[0]

    @property
    def exponents(self):
        """The (K, S) exponent vectors, rebuilt from ``value_factors`` on each read, not kept."""
        dense = np.zeros((self.size, self.num_symbols), dtype=np.int64)
        np.put_along_axis(dense, *self.value_factors, axis=-1)
        return dense

    @cached_property
    def index(self):
        """Each row of ``exponents`` as a tuple of ints, in order, mapped to its row number."""
        return {exps: i for i, exps in enumerate(map(tuple, self.exponents.tolist()))}

    @cached_property
    def file_keys(self):
        """Each exponent tuple of ``index`` mapped to its system-file key, "e1,...,eS"."""
        return {exps: ",".join(map(str, exps)) for exps in self.index}


@lru_cache(maxsize=None, typed=True)
def _monomial_table(num_symbols: int, degree: int) -> _MonomialTable:
    # A monomial is the sorted tuple of its symbols, one per unit of exponent: by total, then
    # lexicographically, their exponent vectors fall in descending lexicographic order. The
    # dense exponents, and those decremented on each symbol, live only while the table is built.
    monomials = [m for total in range(degree + 1)
                 for m in combinations_with_replacement(range(num_symbols), total)]
    expts = np.zeros((len(monomials), num_symbols), dtype=np.int64)
    np.add.at(expts, (np.arange(len(monomials)).repeat(list(map(len, monomials))),
                      np.fromiter(chain.from_iterable(monomials), dtype=np.intp)), 1)
    rows = np.nonzero(expts.T)[1].reshape(num_symbols, -1 if num_symbols else 0)
    symbols = np.arange(num_symbols)
    mult = expts[rows, symbols[:, None]].astype(np.float64)
    dexp = expts[rows]
    dexp[symbols, :, symbols] -= 1
    return _MonomialTable(num_symbols, rows, mult, _positive_factors(expts, degree),
                          _positive_factors(dexp, degree))


def _positive_factors(exponents, degree):
    """Per row of ``exponents`` (..., S): the symbols with a positive exponent, and the exponents.

    Symbols stay in order. Each row keeps min(degree, S) entries, enough for
    a monomial of total degree <= ``degree``; those beyond its positive
    exponents are pads of exponent 0.
    """
    # A copy, so the cached table does not keep the whole sort alive.
    order = np.argsort(exponents == 0, axis=-1, kind="stable")[..., :degree].copy()
    return order, np.take_along_axis(exponents, order, axis=-1)


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
        object.__setattr__(self, "degree", check_count(self.degree, "degree", 0))
        table = self.table
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

    def term_dict(self):
        """Nonzero terms keyed by exponent tuple."""
        nonzero = self.coefficients != 0.0
        return dict(zip(compress(self.table.index, nonzero), self.coefficients[nonzero].tolist()))


@dataclass(frozen=True)
class JacobianEvaluation:
    """Jacobian matrix at a point, with the right-hand side F(point)."""

    point: np.ndarray
    matrix: np.ndarray
    residual_target: np.ndarray


@dataclass(frozen=True, eq=False)
class _Bucket:
    """The equations over S symbols, which share one monomial table.

    Column arrays index a member's flat coefficient vector. ``partials``
    and ``values`` locate the bucket's G*S*R partial monomials (equation,
    symbol, row) and G*K value monomials (equation, row) in the plan's
    index. ``slots`` and ``value_slots`` locate the bucket's partials and
    values in the kernel's array of results, where every partial comes
    before every value.
    """

    table: _MonomialTable
    equations: np.ndarray  # (G,)
    value_columns: np.ndarray  # (G, K)
    partial_columns: np.ndarray  # (G, S, R)
    partials: slice  # G*S*R columns of the plan's index
    values: slice  # G*K columns of the plan's index
    slots: slice  # G*S partials, equation-major
    value_slots: slice  # G values

    def operands(self, coefficients, values=True):
        """The kernel's dots (rows, columns, shape, slots) for members ``coefficients`` (..., K).

        Each row of ``rows`` (..., count, 1, width) goes through one BLAS dot
        with its monomials, the gather's ``columns`` laid out as ``shape``
        (..., count, width, 1), and fills one of ``slots``. Partial rows are
        coefficients times exponents; value rows, left out without
        ``values``, are coefficients. ``take`` lays rows out C-contiguous for
        any leading shape: on strided rows matmul leaves the BLAS dot.
        """
        g, s, r = self.partial_columns.shape
        lead = coefficients.shape[:-1]
        partial_rows = (coefficients.take(self.partial_columns, axis=-1)
                        * self.table.multipliers).reshape(lead + (g * s, 1, r))
        dots = [(partial_rows, self.partials, lead + (g * s, r, 1), self.slots)]
        if values:
            value_rows = coefficients.take(self.value_columns, axis=-1)[..., np.newaxis, :]
            dots.append((value_rows, self.values, lead + (g, self.table.size, 1), self.value_slots))
        return dots


@dataclass(frozen=True, eq=False)
class _MemberPlan:
    """Evaluation layout of every member of a structured space at one degree.

    A member is one flat coefficient vector: the equations' vectors, each
    aligned with the monomial table over its row of ``structure.rows()``,
    concatenated in equation order; equation e owns ``offsets[e]:offsets[e + 1]``. A point
    is extended by the values of the derived variables its equations use,
    whose (support, weights) ``derived`` lists in name order.

    The kernel reads a table of powers 0..top of every extended coordinate
    (``_powers``), where power p of coordinate c sits at c * (top + 1) + p.
    A member's table runs to top ``degree`` (``powers``), and ``factors``
    indexes it: every bucket's partial columns side by side, symbol-major,
    then every bucket's value columns. A column holds the factors of its
    monomial's positive exponents in symbol order, padded below them with
    index 0, the first coordinate's power 0, which is exactly 1.0. A
    monomial has at most ``degree`` positive exponents, so ``factors`` has
    min(degree, widest S) rows, and a partial column fills at most the
    first min(degree - 1, widest S). Trials need no values, and their
    partials no power ``degree``: their table runs to top degree - 1, and
    ``trial_factors`` holds those first rows of the partial columns, laid
    out on it. One gather over an index leaves every monomial it covers,
    and ``order`` takes the values, computed bucket by bucket, from the
    kernel's results in equation order.

    ``variables`` writes every variable partial onto the flat Jacobian
    (weight 1, each target once); each ``chain`` layer k then adds the
    weighted chain-rule terms of every equation's k-th derived symbol.
    ``entries`` bounds the float64 values one member occupies in
    ``stacked_jacobians``: its Jacobian, its coefficients, its table of
    powers or its gather of partial monomial factors, which it counts as
    the widest S times the number of partial columns, more than a trial
    gathers (see ``member_plan``).
    """

    offsets: np.ndarray  # (M + 1,)
    num_variables: int
    powers: np.ndarray  # 0.0..degree
    derived: tuple  # per derived name: (support, weights)
    factors: np.ndarray  # (min(degree, widest S), sum of G*S*R + G*K)
    trial_factors: np.ndarray  # (min(degree - 1, widest S), sum of G*S*R)
    buckets: tuple[_Bucket, ...]
    order: np.ndarray  # (M,) kernel result slot of equation e's value
    num_slots: int
    variables: tuple  # (flat Jacobian targets, partial slots)
    chain: tuple  # per derived layer: (flat Jacobian targets, partial slots, weights)
    num_coefficients: int
    entries: int


def plan_entries(structure, degree):
    """The entries MAX_PLAN_ENTRIES bounds for the member plan of ``structure`` at ``degree``.

    Counted from the row widths alone: rows of S symbols share a table of
    K = C(S + d, d) monomials, R = C(S + d - 1, d - 1) of them with a
    positive exponent on a given symbol, and G such rows take G*S*R partial
    and G*K value columns in the index. A monomial has at most d positive
    exponents, so for the widest S the index has min(d, S) rows; the
    trials' index holds min(d - 1, S) rows of the partial columns, and a
    stacked trial gathers as many entries again. Building the table of a
    width S takes S*K exponents and S*S*R decremented ones, and as many
    again for the sort that finds each monomial's positive exponents
    (``_positive_factors``); the table keeps only those factors.
    """
    widths = list(map(len, structure.rows()))
    columns = partials = tables = 0
    for s, g in Counter(widths).items():
        k = comb(s + degree, degree)
        r = comb(s + degree - 1, degree - 1) if degree > 0 else 0
        columns += g * (s * r + k)
        partials += g * s * r
        tables += 2 * s * (k + s * r)
    widest = max(widths)
    return (min(degree, widest) * columns
            + 2 * max(min(degree - 1, widest), 0) * partials + tables)


def check_plan_size(structure, degree):
    """Raise as the count rule does for a degree, or ParseError over the Jacobian or plan bound."""
    degree = check_count(degree, "degree", 0)
    check_jacobian_size(structure)
    entries = plan_entries(structure, degree)
    if entries > MAX_PLAN_ENTRIES:
        raise ParseError(
            f"{structure.num_equations} equations at degree {degree} make a member plan of "
            f"{entries} monomial-factor entries, more than the bound of {MAX_PLAN_ENTRIES} "
            f"(polysys.MAX_PLAN_ENTRIES)")


@lru_cache(maxsize=32, typed=True)
def member_plan(structure, degree) -> _MemberPlan:
    """The layout of every member at ``degree``, built once and shared by all of them.

    The plan is cached per (structure, degree); callers must not modify it.
    ``check_plan_size`` refuses a negative degree or a bound exceeded before anything is built.
    """
    check_plan_size(structure, degree)
    n, rows = structure.num_variables, structure.rows()
    specs = {spec.name: spec for spec in structure.derived}
    used = sorted({sym for row in rows for sym in row if isinstance(sym, str)})
    column = {name: n + i for i, name in enumerate(used)}
    derived = tuple(
        (np.array(specs[name].support, dtype=np.intp),
         np.array([c for _, c in specs[name].coefficients]))
        for name in used
    )
    offsets = np.cumsum([0] + [_monomial_table(len(row), degree).size for row in rows])
    widths = sorted({len(row) for row in rows})
    groups = [[e for e, row in enumerate(rows) if len(row) == width] for width in widths]
    tables = [_monomial_table(width, degree) for width in widths]
    num_partials = sum(len(members) * table.rows.size for members, table in zip(groups, tables))
    # Index 0 pads every column below its monomial's positive exponents.
    factors = np.zeros((min(degree, widths[-1]), num_partials + sum(
        len(members) * table.size for members, table in zip(groups, tables))), dtype=np.intp)
    buckets, variables, layers = [], ([], []), {}
    # The results hold every partial, one per symbol of a row, then every value.
    start, split, placed, slot = 0, num_partials, sum(map(len, rows)), 0
    for width, members, table in zip(widths, groups, tables):
        first = offsets[members][:, np.newaxis]
        base = (degree + 1) * np.array(
            [[column.get(sym, sym) for sym in rows[e]] for e in members], dtype=np.intp
        ).reshape(len(members), width)
        partials = slice(start, start + len(members) * table.rows.size)
        values = slice(split, split + len(members) * table.size)
        # One row of factor indices per monomial; the sizes are explicit
        # because a bucket of constant equations has width 0.
        for (symbols, exponents), columns in ((table.partial_factors, partials),
                                              (table.value_factors, values)):
            count = exponents.shape[-1]
            factors[:count, columns] = np.where(exponents > 0, base[:, symbols] + exponents, 0
                                                ).reshape(columns.stop - columns.start, count).T
        buckets.append(_Bucket(
            table,
            equations=np.array(members, dtype=np.intp),
            value_columns=first + np.arange(table.size),
            partial_columns=first[:, :, np.newaxis] + table.rows,
            partials=partials,
            values=values,
            slots=slice(slot, slot + len(members) * width),
            value_slots=slice(placed, placed + len(members)),
        ))
        start, split, placed = partials.stop, values.stop, placed + len(members)
        for e in members:
            k = 0
            for sym in rows[e]:
                if not isinstance(sym, str):
                    variables[0].append(e * n + sym)
                    variables[1].append(slot)
                else:
                    k += 1
                    layer = layers.setdefault(k, ([], [], []))
                    for i, weight in specs[sym].coefficients:
                        layer[0].append(e * n + i)
                        layer[1].append(slot)
                        layer[2].append(weight)
                slot += 1
    num_coefficients = int(offsets[-1])
    # Power p of coordinate c sits at c * (top + 1) + p in a table of powers
    # 0..top (``_powers``): a member's runs to degree, a trial's to degree - 1.
    trials = factors[:max(degree - 1, 0), :num_partials]
    return _MemberPlan(
        offsets=offsets,
        num_variables=n,
        powers=np.arange(degree + 1.0),
        derived=derived,
        factors=factors,
        trial_factors=trials - trials // (degree + 1),
        buckets=tuple(buckets),
        order=slot + np.argsort(np.concatenate([b.equations for b in buckets])),
        num_slots=slot,
        variables=tuple(np.array(a, dtype=np.intp) for a in variables),
        chain=tuple(
            (np.array(t, dtype=np.intp), np.array(src, dtype=np.intp), np.array(w))
            for t, src, w in (layers[k] for k in sorted(layers))
        ),
        num_coefficients=num_coefficients,
        # Chunks stay as large as when a trial gathered the widest S rows:
        # sized from the trials' own gather, certify ran slower end to end
        # (BENCH_24.json).
        entries=max(widths[-1] * num_partials, len(rows) * n, num_coefficients,
                    (n + len(used)) * (degree + 1), slot),
    )


def _monomials(powers, factors):
    """Every column's monomial: its factors (S, W) taken from ``powers`` (..., P), multiplied.

    The gather gives (..., S, W) and the product runs over S, so whole rows
    are multiplied together in symbol order and (..., W) is left.
    """
    return np.multiply.reduce(powers.take(factors, axis=-1), axis=-2)


def _scatter(plan, partials):
    """Jacobians (..., M, N) from the kernel's results (..., slots) of one member or a stack.

    The first ``plan.num_slots`` results are the partials the Jacobians take.
    A variable partial p is written as p + 0.0 and chain-rule terms are
    added onto it or onto zero, so a -0.0 term reads +0.0 as it does in a
    per-equation evaluation, where every entry is a sum onto zero.
    """
    lead = partials.shape[:-1]
    J = np.zeros(lead + (plan.order.size * plan.num_variables,))
    # Indexing the transposes' first axis keeps one member's indexing plain 1-D.
    targets, sources = plan.variables
    J.T[targets] = partials.T[sources] + 0.0
    for targets, sources, weights in plan.chain:
        J.T[targets] += (weights * partials.take(sources, axis=-1)).T
    return J.reshape(lead + (plan.order.size, plan.num_variables))


def _powers(points, exponents):
    """``points`` (..., C) raised to ``exponents`` 0..top: x_c^p at c * (top + 1) + p.

    x^0 is 1.0 and x^1 is x, so up to top 1 no power is taken. Beyond it
    every power is taken with the exponents along the last axis: numpy
    takes a lone x^2.0, or one exponent over a whole inner loop, as x*x,
    which can differ in the last bit from the power.
    """
    if exponents.size > 2:
        table = points[..., np.newaxis] ** exponents
    else:
        table = np.stack([np.ones_like(points), points], axis=-1)[..., :exponents.size]
    return table.reshape(points.shape[:-1] + (-1,))


def _evaluate(plan, points, dots, values):
    """Jacobians (..., M, N) of members at ``points`` (..., N), and with ``values`` F (..., M).

    Leading axes are trials: none for one member, (T,) for a stack. ``dots``
    are every bucket's (``_Bucket.operands``), value dots only with
    ``values``; without them only the plan's partial columns are gathered,
    through ``trial_factors`` from a table that stops at degree - 1. One gather
    and one product over an index leave every monomial: the product of the
    powers of its positive exponents in symbol order, then of pads, each an
    exact 1.0. Since x^0 is exactly 1.0 and x * 1.0 == x for every double,
    each monomial has the bits of the product over all its S symbols. One matmul
    call per dot, and one per derived value, runs each row through a BLAS
    dot, so every number is the same sum of the same products as in a
    per-equation evaluation (the tests keep one as the reference).
    """
    lead = points.shape[:-1]
    if plan.derived:
        points = np.concatenate([points, *(
            np.matmul(weights, points.take(support, axis=-1)[..., np.newaxis])
            for support, weights in plan.derived)], axis=-1)
    if values:
        monomials = _monomials(_powers(points, plan.powers), plan.factors)
    else:
        monomials = _monomials(_powers(points, plan.powers[:-1]), plan.trial_factors)
    results = np.empty(lead + (plan.num_slots + (plan.order.size if values else 0), 1, 1))
    for rows, columns, shape, slots in dots:
        np.matmul(rows, monomials[..., columns].reshape(shape), out=results[..., slots, :, :])
    results = results[..., 0, 0]
    return _scatter(plan, results), (results.take(plan.order, axis=-1) if values else None)


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
        check_structure(self.structure)
        object.__setattr__(self, "degree", check_count(self.degree, "degree", 0))
        if self.seed is not None:  # None labels an explicit system
            object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))
        if len(self.equations) != self.structure.num_equations:
            raise StructureError(
                f"structure has {self.structure.num_equations} equations, "
                f"got {len(self.equations)} polynomials"
            )
        plan = member_plan(self.structure, self.degree)
        for e, (eq, symbols) in enumerate(zip(self.equations, self.structure.rows())):
            if eq.symbols != symbols:
                raise StructureError(f"equation {e + 1} does not match its structure row")
            if eq.degree != self.degree:
                raise StructureError(
                    f"equation {e + 1} has degree {eq.degree}, the system {self.degree}"
                )
        coefficients = np.concatenate([eq.coefficients for eq in self.equations])
        with np.errstate(over="ignore"):
            scaled = coefficients * self.degree  # bounds every partial's coefficient
        if not np.isfinite(scaled).all():
            for e, eq in enumerate(self.equations):
                for exps, c in eq.term_dict().items():
                    _check_partial(e, exps, c, self.degree)
        object.__setattr__(self, "_plan", plan)
        dots = [dot for bucket in plan.buckets for dot in bucket.operands(coefficients)]
        object.__setattr__(self, "_dots", dots)

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
        J, values = _evaluate(self._plan, x, self._dots, values=True)
        return JacobianEvaluation(point=x, matrix=J, residual_target=values)

    def to_json_dict(self):
        return {
            "structure": structure_to_json_dict(self.structure),
            "degree": self.degree,
            "seed": self.seed,
            "distribution": self.distribution,
            "equations": [
                {keys[exps]: coeff for exps, coeff in sorted(eq.term_dict().items())}
                for eq in self.equations for keys in (eq.table.file_keys,)
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of ``to_json_dict``, with the checks of a system file."""
        return _system_from_json_dict(d)


def check_system(system, what="system"):
    """``system`` when it is a StructuredPolySystem; anything else is a TypeError naming ``what``."""
    if not isinstance(system, StructuredPolySystem):
        raise TypeError(f"{what} must be a StructuredPolySystem, got {type(system).__name__}")
    return system


def _check_partial(e, exps, c, degree):
    """Raise ParseError when a partial of the term c * x^exps of equation e (from 0) overflows.

    A partial's coefficient is c times an exponent, at most the degree. A c
    that is not finite itself is left to PolyEquation, which names it.
    """
    if not isfinite(c * degree) and isfinite(c):
        top = max(exps, default=0)
        if not isfinite(c * top):
            raise ParseError(f"equation {e + 1}: coefficient {c!r} of exponent vector "
                             f"{exps} times its exponent {top} is not finite")


def _member(structure, degree, flat, seed=None, distribution="explicit"):
    """The member whose coefficients ``flat`` are laid out by ``member_plan``."""
    plan = member_plan(structure, degree)
    equations = tuple(
        PolyEquation(symbols, degree, flat[start:stop])
        for symbols, start, stop in zip(structure.rows(), plan.offsets[:-1], plan.offsets[1:])
    )
    return StructuredPolySystem(structure, degree, equations, seed=seed, distribution=distribution)


def system_from_terms(
    structure, degree, terms, seed=None, distribution="explicit"
) -> StructuredPolySystem:
    """Build a system from per-equation {exponent tuple: coefficient} maps.

    Exponent tuples, of ints or numpy integers (another type is a TypeError), align with
    each equation's symbols in ``structure.rows()``: sorted variable indices, then sorted derived names.
    """
    structure, degree = check_structure(structure), check_count(degree, "degree", 0)
    seed = seed if seed is None else check_count(seed, "seed", 0)  # None labels an explicit system
    plan = member_plan(structure, degree)
    if len(terms) != structure.num_equations:
        raise StructureError(
            f"structure has {structure.num_equations} equations, got {len(terms)} term maps"
        )
    flat = np.zeros(plan.num_coefficients)
    for e, (symbols, start, row) in enumerate(zip(structure.rows(), plan.offsets, terms)):
        index, what = _monomial_table(len(symbols), degree).index, f"equation {e + 1}: exponent"
        # Tuples of ints would pass _index unchanged, so only other keys go through it.
        convert = not (set(map(type, row)) <= {tuple} and set(map(type, chain.from_iterable(row))) <= {int})
        for exps, c in row.items():
            exps = tuple(_index(k, what) for k in exps) if convert else exps
            i = index.get(exps)
            if i is None:
                raise StructureError(
                    f"equation {e + 1}: exponent vector {exps} is not a monomial "
                    f"of degree <= {degree} over its {len(symbols)} symbols"
                )
            c = float(c)
            _check_partial(e, exps, c, degree)  # here, so the first refused term is named
            flat[start + i] = c
    return _member(structure, degree, flat, seed, distribution)


def check_distribution(distribution):
    """``distribution`` when it names a coefficient law a member can be drawn from; else ValueError."""
    if distribution not in ("uniform", "normal"):
        raise ValueError(f"distribution must be 'uniform' or 'normal', got {distribution!r}")
    return distribution


def draw_members(rngs, count, num_coefficients, distribution, num_points=0):
    """Draws (count, K + P): each stream's K coefficients, then its P point coordinates.

    Coefficients are uniform on [-1, 1) or standard normal; point
    coordinates are uniform on [-1, 1). The streams ``rngs`` give one row
    each, in order. A row takes one generator call, or for normal
    coefficients two, drawing in the order of ``uniform(-1, 1, K)`` (or
    ``standard_normal(K)``) then ``uniform(-1, 1, P)``. The uniform block
    holds u in [0, 1) until one pass over all rows maps it to 2u - 1:
    doubling is exact and -1 + 2u is rounded once either way, so every
    value is the one ``Generator.uniform(-1.0, 1.0)`` returns, bit for bit.
    """
    check_distribution(distribution)
    draws = np.empty((count, num_coefficients + num_points))
    if distribution == "uniform":
        for row, rng in zip(draws, rngs):
            rng.random(out=row)
        uniform = draws
    else:
        uniform = draws[:, num_coefficients:]
        for row, points, rng in zip(draws, uniform, rngs):
            rng.standard_normal(out=row[:num_coefficients])
            rng.random(out=points)
    uniform *= 2.0
    uniform -= 1.0
    return draws


def sample_system(
    structure,
    degree: int = 2,
    seed: int = 0,
    distribution: str = "uniform",
) -> StructuredPolySystem:
    """Draw a random member of the structured space.

    Every monomial of total degree <= ``degree`` over each equation's allowed
    symbols gets an independent coefficient. Deterministic given
    (structure, degree, seed, distribution); the generator is PCG64, which is
    platform independent.
    """
    structure = check_structure(structure)
    degree, seed = check_count(degree, "degree"), check_count(seed, "seed", 0)
    check_distribution(distribution)
    plan = member_plan(structure, degree)
    flat = draw_members([seeded_rng(seed)], 1, plan.num_coefficients, distribution)[0]
    return _member(structure, degree, flat, seed, distribution)


def stacked_jacobians(plan, coefficients, points) -> np.ndarray:
    """Jacobians of T members, member t at ``points[t]``.

    Takes (T, K) coefficients laid out by ``plan`` and (T, N) points and
    returns (T, M, N). Each matrix equals the one
    ``StructuredPolySystem.jacobian`` gives for the member at its point, bit
    for bit.
    """
    dots = [dot for b in plan.buckets for dot in b.operands(coefficients, values=False)]
    return _evaluate(plan, points, dots, values=False)[0]


def combine(a: float, f: StructuredPolySystem, b: float, g: StructuredPolySystem) -> StructuredPolySystem:
    """The member a*F + b*G of the space both systems live in.

    Requires identical structures. Coefficient vectors combine termwise;
    graded monomial order lets a lower-degree system embed into a
    higher-degree table by zero padding.
    """
    f, g = check_system(f, "f"), check_system(g, "g")
    a, b = check_real(a, "a"), check_real(b, "b")
    if f.structure != g.structure:
        raise StructureError("cannot combine systems with different structures")
    degree = max(f.degree, g.degree)
    plan = member_plan(f.structure, degree)
    flat = np.zeros(plan.num_coefficients)
    # A sum that is not finite is refused by PolyEquation, which names it.
    with np.errstate(all="ignore"):
        for start, fe, ge in zip(plan.offsets, f.equations, g.equations):
            flat[start:start + fe.coefficients.size] += a * fe.coefficients
            flat[start:start + ge.coefficients.size] += b * ge.coefficients
    return _member(f.structure, degree, flat, distribution="combination")
