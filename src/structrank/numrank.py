"""Tolerance-based numeric rank and randomized generic-rank estimation.

The combinatorial rank of a pattern is exact; floating point needs a cutoff.
``numeric_rank`` counts singular values above a relative threshold with an
absolute floor. The Monte Carlo estimators instantiate random members of a
structure (or a matrix subspace) and report the maximum observed rank: rank
is lower semicontinuous and drops only on null sets, so the maximum over an
absolutely continuous sample is the right estimator of the generic rank.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .errors import StructureError
from .polysys import (
    StructuredPolySystem, _real_array, check_distribution, check_system, draw_members,
    member_plan, seeded_streams, stacked_jacobians,
)
from .structural import structural_rank
from .structure import (
    GeneralizedStructure, StructurePattern, check_count, check_real, check_structure,
)

__all__ = [
    "RankTolerance",
    "CertificationReport",
    "numeric_rank",
    "generic_rank_randomized",
    "certify_acr",
    "matrix_space_rank",
    "rank_maximizer_sweep",
]

# Trials are drawn in chunks whose float64 stack stays under this many bytes;
# each thread holds one chunk at a time, so a run holds one chunk per CPU at most.
CHUNK_BYTES = 1 << 20


def _json_fields(report, *, omit_none=False, **renamed):
    """A report's fields as JSON values, in field order; ``renamed`` maps a field to its key or None.

    An array is written as its list, a dict with str keys in key order, a value with its own
    ``to_json_dict`` through that method and any other value as it is; ``omit_none`` leaves
    out a field that is None.
    """
    out = {}
    for field in fields(report):
        key, value = renamed.get(field.name, field.name), getattr(report, field.name)
        if key is None or (omit_none and value is None):
            continue
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, dict):
            value = {str(k): v for k, v in sorted(value.items())}
        elif hasattr(value, "to_json_dict"):
            value = value.to_json_dict()
        out[key] = value
    return out


@dataclass(frozen=True)
class RankTolerance:
    """Singular-value cutoff: sigma > max(relative * sigma_1, floor); both are floats."""

    relative_threshold: float = 1e-8
    absolute_floor: float = 1e-12

    def __post_init__(self):
        relative = check_real(self.relative_threshold, "relative_threshold")
        if not 0.0 < relative < 1.0:
            raise ValueError("relative_threshold must lie in (0, 1)")
        floor = check_real(self.absolute_floor, "absolute_floor")
        if not 0.0 <= floor < np.inf:
            raise ValueError("absolute_floor must be finite and >= 0")
        object.__setattr__(self, "relative_threshold", relative)
        object.__setattr__(self, "absolute_floor", floor)

    def to_json_dict(self):
        return _json_fields(self)

    def rank_of(self, sigma):
        """Number of singular values above the cutoff, descending along the last axis.

        One vector gives an int; a stack (..., k) gives an integer array of
        one rank per vector, decided in one comparison.
        """
        if sigma.ndim > 1:
            cutoff = np.maximum(self.relative_threshold * sigma[..., :1], self.absolute_floor)
            return np.count_nonzero(sigma > cutoff, axis=-1)
        if sigma.size == 0:
            return 0
        cutoff = max(self.relative_threshold * float(sigma[0]), self.absolute_floor)
        return int(np.count_nonzero(sigma > cutoff))


def check_tolerance(tol):
    """``tol`` when it is a RankTolerance; anything else is a TypeError naming it."""
    if not isinstance(tol, RankTolerance):
        raise TypeError(f"tol must be a RankTolerance, got {tol!r}")
    return tol


def numeric_rank(matrix, tol: RankTolerance = RankTolerance()) -> int:
    """Number of singular values above the tolerance cutoff."""
    tol, a = check_tolerance(tol), _real_array(matrix, "matrix")
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return tol.rank_of(np.linalg.svd(a, compute_uv=False))


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a Monte Carlo rank experiment.

    ``estimated_rank`` is the maximum rank observed over all trials.
    When ``target_rank`` is set the experiment certifies agreement with that
    value; otherwise agreement counts trials hitting the estimate itself.
    """

    trials: int
    estimated_rank: int
    agreement_count: int
    rank_histogram: dict[int, int]
    seed: int
    tolerance: RankTolerance
    degree: int | None = None
    distribution: str | None = None
    point_domain: str | None = None
    target_rank: int | None = None
    pass_threshold: float | None = None
    passed: bool | None = None

    @property
    def agreement_rate(self):
        return self.agreement_count / self.trials

    def to_json_dict(self):
        """The fields, ``rank_histogram`` as ``histogram`` and unset ones left out, and the rate."""
        return {**_json_fields(self, omit_none=True, rank_histogram="histogram"),
                "agreement_rate": self.agreement_rate}


def _trial_arguments(trials, seed, tol):
    """``(trials, seed, tol)`` held to the count, seed and tolerance rules, in that order."""
    return check_count(trials, "trials"), check_count(seed, "seed", 0), check_tolerance(tol)


def _run_trials(draw, entries, trials, seed, tol, *, drawn, target_rank=None,
                pass_threshold=None, **extra):
    """Rank histogram of the drawn matrices over the per-trial streams, as a report.

    ``draw(rngs, count)`` takes ``count`` streams, one at a time, and returns
    one ``drawn`` matrix per stream, stacked; ``entries`` bounds the float64
    values one trial occupies. The streams are seeded in bulk once for the
    run. Trials are drawn in chunks sized to CHUNK_BYTES, with overflow
    silent, and a chunk that is not finite is refused. The caller and one
    helper thread per further CPU each take the next chunk in trial order,
    draw it under a lock and decompose it with one SVD call, so one chunk's
    draw overlaps another's SVD. The caller tallies ranks in chunk order, and
    once every helper is joined it re-raises the first failure in chunk order.
    Callers check ``trials``, ``seed`` and ``tol`` (``_trial_arguments``)
    before they build ``draw``.
    """
    per_chunk = max(1, CHUNK_BYTES // (8 * max(entries, 1)))
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    streams = seeded_streams(seed, 0, trials)
    # Each chunk's singular values until tallied, or the exception that ended it.
    out = [None] * -(-trials // per_chunk)
    lock, taken = threading.Lock(), 0

    def step():
        """Draw the next chunk, in trial order, and decompose it; False once none is left."""
        nonlocal taken
        with lock:
            k = taken
            if k == len(out):
                return False
            taken += 1
            count = min(per_chunk, trials - k * per_chunk)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    stack = draw(islice(streams, count), count)
                if not np.isfinite(stack).all():
                    raise ValueError(f"a trial's {drawn} is not finite")
            except BaseException as exc:
                out[k], taken = exc, len(out)
                return False
        try:
            out[k] = np.linalg.svd(stack, compute_uv=False)
        except BaseException as exc:
            out[k] = exc
            with lock:
                taken = len(out)
        return True

    def helper():
        while step():
            pass

    histogram, tallied = {}, 0

    def tally():
        nonlocal tallied
        while tallied < len(out) and isinstance(out[tallied], np.ndarray):
            for r in tol.rank_of(out[tallied]).tolist():
                histogram[r] = histogram.get(r, 0) + 1
            out[tallied] = None
            tallied += 1

    # Trial i draws from stream (seed, i), so neither chunks nor CPUs can change a
    # report. Each thread holds one chunk at most, so at most one chunk per CPU is
    # drawn and not yet decomposed; ranks are tallied here, in chunk order.
    helpers = [threading.Thread(target=helper) for _ in range(min(len(cpus), len(out)) - 1)]
    try:
        for thread in helpers:
            thread.start()
        while step():
            tally()
    finally:
        with lock:
            taken = len(out)
        for thread in helpers:
            thread.join()
    tally()
    if tallied < len(out):
        raise out[tallied]
    estimated = max(histogram)
    if target_rank is None:
        agreement = histogram[estimated]
        passed = None
    else:
        agreement = histogram.get(target_rank, 0)
        passed = agreement / trials >= pass_threshold
    return CertificationReport(
        trials=trials,
        estimated_rank=estimated,
        agreement_count=agreement,
        rank_histogram=histogram,
        seed=seed,
        tolerance=tol,
        target_rank=target_rank,
        pass_threshold=pass_threshold,
        passed=passed,
        **extra,
    )


def _member_jacobians(structure, degree, distribution):
    """Trial draw: Jacobians of random members at points uniform on [-1, 1]^N.

    Each generator draws its member's coefficients as ``sample_system`` does,
    then its point, into one row of the chunk (``draw_members``). Returns
    the draw and the entries one trial occupies.
    """
    plan = member_plan(structure, degree)
    k = plan.num_coefficients

    def draw(rngs, count):
        draws = draw_members(rngs, count, k, distribution, structure.num_variables)
        return stacked_jacobians(plan, draws[:, :k], draws[:, k:])
    return draw, plan.entries


def _member_trials(structure, trials, degree, seed, tol, distribution, pass_threshold=None, *,
                   certify=False):
    """The trial run of both member estimators, which certifies the structural rank if ``certify``.

    Every argument is checked before the member plan, the matching or any
    stream is built: trials, seed and tol, then degree, distribution and
    pass_threshold.
    """
    structure = check_structure(structure)
    trials, seed, tol = _trial_arguments(trials, seed, tol)
    degree, distribution = check_count(degree, "degree"), check_distribution(distribution)
    if certify:
        pass_threshold = check_pass_threshold(pass_threshold)
    draw, entries = _member_jacobians(structure, degree, distribution)
    return _run_trials(
        draw, entries, trials, seed, tol, drawn="Jacobian",
        target_rank=structural_rank(structure) if certify else None, pass_threshold=pass_threshold,
        degree=degree, distribution=distribution, point_domain="uniform[-1,1]^N",
    )


def generic_rank_randomized(
    structure,
    trials: int = 200,
    degree: int = 2,
    seed: int = 0,
    tol: RankTolerance = RankTolerance(),
    distribution: str = "uniform",
) -> CertificationReport:
    """Estimate the generic rank of a structure by random instantiation.

    Each trial draws a random member of the space and a point uniform on
    [-1, 1]^N, then takes the numeric rank of the Jacobian. Works for
    generalized structures, where the matching bound overestimates.
    """
    return _member_trials(structure, trials, degree, seed, tol, distribution)


def check_pass_threshold(value):
    """The PASS threshold as a float (the real rule); ValueError unless it lies in (0, 1]."""
    value = check_real(value, "pass_threshold")
    if not 0.0 < value <= 1.0:
        raise ValueError(f"pass_threshold must lie in (0, 1], got {value!r}")
    return value


def certify_acr(
    pattern: StructurePattern,
    trials: int = 1000,
    degree: int = 2,
    seed: int = 0,
    tol: RankTolerance = RankTolerance(),
    distribution: str = "uniform",
    pass_threshold: float = 0.99,
) -> CertificationReport:
    """Certify that random members attain the combinatorial rank almost surely.

    Runs the randomized estimator against the pattern's matching rank and
    flags PASS when the agreement rate reaches ``pass_threshold``. This is
    the finite, desk-scale rendering of almost-constant-rank: exceptional
    systems and points form null sets, so disagreements should be rare and
    tolerance-induced.
    """
    if isinstance(pattern, GeneralizedStructure):
        raise StructureError(
            "certification against the matching rank needs a plain pattern; "
            "generalized structures have no exact combinatorial rank, so use "
            "generic-rank (generic_rank_randomized) for derived-variable systems"
        )
    return _member_trials(pattern, trials, degree, seed, tol, distribution, pass_threshold,
                          certify=True)


def matrix_space_rank(
    basis,
    trials: int = 200,
    seed: int = 0,
    tol: RankTolerance = RankTolerance(),
) -> CertificationReport:
    """Generic rank of the span of the given matrices.

    Samples random linear combinations with coefficients uniform on [-1, 1];
    almost every member of a matrix subspace attains the subspace maximum, so
    the histogram exposes the measure-zero failure set empirically.
    """
    mats = [_real_array(b, "basis", (k,)) for k, b in enumerate(basis)]
    if not mats:
        raise ValueError("basis must be nonempty")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats) or len(shape) != 2:
        raise ValueError("basis matrices must share one 2-D shape")
    trials, seed, tol = _trial_arguments(trials, seed, tol)
    flat = np.stack(mats).reshape(len(mats), -1)

    def draw(rngs, count):
        # One (1, count) x (count, entries) product per trial, the BLAS call
        # np.tensordot makes, written straight into the chunk's stack.
        coefficients = draw_members(rngs, count, len(mats), "uniform")[:, np.newaxis, :]
        stack = np.empty((count, 1, flat.shape[1]))
        for c, out in zip(coefficients, stack):
            np.dot(c, flat, out=out)
        return stack.reshape((count,) + shape)
    return _run_trials(
        draw, flat.shape[1], trials, seed, tol, drawn="matrix",
        distribution="uniform", point_domain="coefficients uniform[-1,1]",
    )


def rank_maximizer_sweep(
    system: StructuredPolySystem,
    maximizer: StructuredPolySystem,
    x,
    c_grid,
    tol: RankTolerance = RankTolerance(),
) -> list[tuple[float, int]]:
    """Rank of D(F + c * Fmax)(x) over a grid of mixing values c.

    Sub-maximal ranks can occur only at roots of a fixed polynomial in c, so
    a fine grid should see them at a vanishing fraction of points.
    Differentiation is linear, so the sweep combines the two Jacobians
    directly instead of building each combined system.
    """
    system, maximizer = check_system(system), check_system(maximizer, "maximizer")
    if system.structure != maximizer.structure:
        raise StructureError("sweep requires systems sharing one structure")
    tol, grid = check_tolerance(tol), [check_real(c, "c_grid") for c in c_grid]
    jf = system.jacobian(x).matrix
    jm = maximizer.jacobian(x).matrix
    return [(c, numeric_rank(jf + c * jm, tol)) for c in grid]
