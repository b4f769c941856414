"""Tolerance-based numeric rank and randomized generic-rank estimation.

The combinatorial rank of a pattern is exact; floating point needs a cutoff.
``numeric_rank`` counts singular values above a relative threshold with an
absolute floor. The Monte Carlo estimators instantiate random members of a
structure (or a matrix subspace) and report the maximum observed rank: rank
is lower semicontinuous and drops only on null sets, so the maximum over an
absolutely continuous sample is the right estimator of the generic rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .polysys import (
    StructuredPolySystem, _draw, check_degree, member_plan, seeded_rng, stacked_jacobians,
)
from .structural import structural_rank
from .structure import GeneralizedStructure, StructurePattern

__all__ = [
    "RankTolerance",
    "CertificationReport",
    "numeric_rank",
    "generic_rank_randomized",
    "certify_acr",
    "matrix_space_rank",
    "rank_maximizer_sweep",
]

# Trials are drawn and decomposed in chunks whose float64 stack stays under
# this many bytes.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class RankTolerance:
    """Singular-value cutoff: sigma > max(relative * sigma_1, floor)."""

    relative_threshold: float = 1e-8
    absolute_floor: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.relative_threshold < 1.0) or not np.isfinite(self.relative_threshold):
            raise ValueError("relative_threshold must lie in (0, 1)")
        if self.absolute_floor < 0.0 or not np.isfinite(self.absolute_floor):
            raise ValueError("absolute_floor must be finite and >= 0")

    def to_json_dict(self):
        return {
            "relative_threshold": self.relative_threshold,
            "absolute_floor": self.absolute_floor,
        }

    def rank_of(self, sigma) -> int:
        """Number of singular values (in descending order) above the cutoff."""
        if sigma.size == 0:
            return 0
        cutoff = max(self.relative_threshold * float(sigma[0]), self.absolute_floor)
        return int(np.count_nonzero(sigma > cutoff))


def numeric_rank(matrix, tol: RankTolerance = RankTolerance()) -> int:
    """Number of singular values above the tolerance cutoff."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    return tol.rank_of(_singular_values(a))


def _singular_values(a):
    """Descending singular values of a matrix, or of each matrix in a stack."""
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return np.linalg.svd(a, compute_uv=False)


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
        d = {
            "trials": self.trials,
            "estimated_rank": self.estimated_rank,
            "agreement_count": self.agreement_count,
            "agreement_rate": self.agreement_rate,
            "histogram": {str(k): v for k, v in sorted(self.rank_histogram.items())},
            "seed": self.seed,
            "tolerance": self.tolerance.to_json_dict(),
        }
        for key in ("degree", "distribution", "point_domain", "target_rank",
                    "pass_threshold", "passed"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        return d


def _run_trials(draw, entries, trials, seed, tol, target_rank=None, pass_threshold=None,
                **extra):
    """Rank histogram of the drawn matrices over the per-trial streams, as a report.

    ``draw(rngs)`` returns one matrix per generator, stacked, and ``entries``
    bounds the float64 values one trial occupies. Trials run in chunks sized
    to CHUNK_BYTES, with one SVD call per chunk.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    per_chunk = max(1, CHUNK_BYTES // (8 * max(entries, 1)))
    histogram = {}
    for start in range(0, trials, per_chunk):
        # Trial i draws from stream (seed, i), so chunking cannot change a report.
        rngs = [seeded_rng(seed, i) for i in range(start, min(start + per_chunk, trials))]
        for sigma in _singular_values(draw(rngs)):
            r = tol.rank_of(sigma)
            histogram[r] = histogram.get(r, 0) + 1
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
    then its point. Returns the draw and the entries one trial occupies.
    """
    check_degree(degree)
    plan = member_plan(structure, degree)
    n = structure.num_variables

    def draw(rngs):
        coefficients = np.empty((len(rngs), plan.num_coefficients))
        points = np.empty((len(rngs), n))
        for t, rng in enumerate(rngs):
            coefficients[t] = _draw(rng, distribution, plan.num_coefficients)
            points[t] = rng.uniform(-1.0, 1.0, n)
        return stacked_jacobians(plan, coefficients, points)
    return draw, plan.entries


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
    if not isinstance(structure, (StructurePattern, GeneralizedStructure)):
        raise TypeError(f"expected a structure, got {type(structure).__name__}")
    return _run_trials(
        *_member_jacobians(structure, degree, distribution), trials, seed, tol,
        degree=degree, distribution=distribution, point_domain="uniform[-1,1]^N",
    )


def check_pass_threshold(value):
    """Raise ValueError unless the PASS threshold lies in (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"pass_threshold must lie in (0, 1], got {value!r}")


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
    check_pass_threshold(pass_threshold)
    if isinstance(pattern, GeneralizedStructure):
        raise StructureError(
            "certification against the matching rank needs a plain pattern; "
            "generalized structures have no exact combinatorial rank, so use "
            "generic-rank (generic_rank_randomized) for derived-variable systems"
        )
    return _run_trials(
        *_member_jacobians(pattern, degree, distribution), trials, seed, tol,
        target_rank=structural_rank(pattern), pass_threshold=pass_threshold,
        degree=degree, distribution=distribution, point_domain="uniform[-1,1]^N",
    )


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
    mats = [np.asarray(b, dtype=np.float64) for b in basis]
    if not mats:
        raise ValueError("basis must be nonempty")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats) or len(shape) != 2:
        raise ValueError("basis matrices must share one 2-D shape")
    stack = np.stack(mats)
    return _run_trials(
        lambda rngs: np.stack([
            np.tensordot(rng.uniform(-1.0, 1.0, len(mats)), stack, axes=1) for rng in rngs
        ]),
        stack[0].size, trials, seed, tol,
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
    if system.structure != maximizer.structure:
        raise StructureError("sweep requires systems sharing one structure")
    jf = system.jacobian(x).matrix
    jm = maximizer.jacobian(x).matrix
    return [(float(c), numeric_rank(jf + float(c) * jm, tol)) for c in c_grid]
