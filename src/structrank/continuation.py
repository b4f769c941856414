"""Numerical exploration of solution sets {x : F(x) = F(p)}.

For a system with generic rank rho, the solution set through a typical point
is a smooth manifold of dimension N - rho whose tangent space is the kernel
of the Jacobian. This module verifies that picture at desk scale: it traces
1-dimensional solution curves by pseudo-arclength continuation (predictor
along the kernel, Gauss-Newton corrector back onto the level set), samples
higher-dimensional solution sets by random kernel walks, hunts for
rank-drop points where the manifold picture fails, and probes robustness by
perturbing the right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import WrongDimensionError
from .formats import check_basis_size
from .numrank import RankTolerance, _json_fields, check_tolerance
from .polysys import JacobianEvaluation, StructuredPolySystem, check_system, seeded_rng
from .structure import check_count, check_positive

__all__ = [
    "LocalDimension",
    "BranchPoint",
    "BranchEvent",
    "SolutionBranch",
    "ManifoldProbeReport",
    "PerturbationProbe",
    "local_dimension",
    "trace_curve",
    "manifold_probe",
    "perturbation_probe",
]

DEFAULT_RESIDUAL_TOL = 1e-8
CORRECTOR_INTERIOR_TOL = 1e-10
MAX_CORRECTOR_ITERATIONS = 25
MAX_STEP_HALVINGS = 10
MAX_BACKTRACKS = 12
DEFAULT_DOMAIN_RADIUS = 10.0
PERTURBED_ITERATIONS = 50  # solves from a perturbed start, to DEFAULT_RESIDUAL_TOL
ISOLATED_PROBE_RADIUS = 0.1
MAX_HUNT_CORRECTIONS = 400
PERTURBATION_RESTARTS = 20  # starts drawn within RESTART_SCALE of p in each coordinate
RESTART_SCALE = 0.5


def _norm(v):
    """``float(np.linalg.norm(v))`` of a real vector: sqrt(v . v) on its C-contiguous ravel.

    When v . v overflows, ``math.hypot`` scales v instead, so a finite v keeps a finite norm.
    """
    v = v.ravel()
    square = v.dot(v)
    return math.hypot(*v) if square == math.inf else math.sqrt(square)


def _evaluate_start(system, p):
    """The evaluation at a start point p, refused with ValueError unless F(p) and DF(p) are finite.

    A finite p whose monomials overflow gives inf or nan entries, on which
    no rank decision or corrector step means anything; numpy's warnings
    about them are silenced, since the error names the point.
    """
    with np.errstate(all="ignore"):
        jac = system.jacobian(p)
    if not (np.isfinite(jac.matrix).all() and np.isfinite(jac.residual_target).all()):
        raise ValueError(f"F or DF is not finite at the start point "
                         f"{[float(v) for v in jac.point]}")
    return jac


def _svd_analysis(jac, tol):
    """(numeric rank, orthonormal kernel rows, singular values) of an evaluated DF."""
    _, sigma, vt = np.linalg.svd(jac.matrix, full_matrices=True)
    rank = tol.rank_of(sigma)
    return rank, vt[rank:], sigma


def _analyse_start(system, p, tol):
    """(evaluation, rank, kernel rows, singular values) at the start point p of an analysis.

    Every later point of the analysis has p's N variables, so the bound on
    the SVD's N x N basis is checked here, once per call.
    """
    jac = _evaluate_start(system, p)
    check_basis_size(system.num_variables)
    return (jac, *_svd_analysis(jac, tol))


@dataclass(frozen=True)
class LocalDimension:
    """Solution-set dimension at a point: N - rank(DF), with the kernel basis."""

    dimension: int
    rank: int
    kernel: np.ndarray  # (dimension, N), orthonormal rows


def local_dimension(system: StructuredPolySystem, p, tol: RankTolerance = RankTolerance()) -> LocalDimension:
    system = check_system(system)
    _, rank, kernel, _ = _analyse_start(system, p, check_tolerance(tol))
    return LocalDimension(dimension=system.num_variables - rank, rank=rank, kernel=kernel)


def _gauss_newton(system, x0, target, residual_tol, max_iterations):
    """Least-squares descent of ||F(x) - target|| from x0.

    Uses minimum-norm Gauss-Newton steps (pseudoinverse), which handle
    rectangular and rank-deficient Jacobians uniformly, with halving
    backtracks. One ``jacobian`` call per point gives its residual vector
    (its norm decides acceptance, and it is the next step's right-hand
    side) and the next step's matrix; x0 may be passed as its evaluation
    instead. A zero step, or a halved one that leaves x + t*step at x, ends
    the descent, as every further backtrack trial would be x itself.
    Returns (evaluation of the last accepted point, or None if x0 cannot be
    evaluated; iterations; converged; residual).
    Accepted steps lower the residual strictly, so that point is the best
    one seen; a stall at a nonzero residual means a local minimum.
    """
    def evaluation(pt):
        try:
            jac = pt if isinstance(pt, JacobianEvaluation) else system.jacobian(pt)
        except (ValueError, FloatingPointError):
            return None, None, math.inf
        r = jac.residual_target - target
        return jac, r, _norm(r)

    jac, r, rn = evaluation(x0)
    if not math.isfinite(rn):
        return jac, 0, False, math.inf
    iterations = 0
    while rn > residual_tol and iterations < max_iterations:
        iterations += 1
        step, *_ = np.linalg.lstsq(jac.matrix, -r, rcond=None)
        if not step.any():
            break
        x, t = jac.point, 1.0
        for _ in range(MAX_BACKTRACKS):
            trial, trial_r, trial_rn = evaluation(x + t * step)
            if trial_rn < rn:
                break
            t *= 0.5
            if (x + t * step == x).all():
                break
        if not trial_rn < rn:
            break
        jac, r, rn = trial, trial_r, trial_rn
    return jac, iterations, rn <= residual_tol, rn


@dataclass(frozen=True)
class BranchPoint:
    """One accepted point on a traced solution curve."""

    point: np.ndarray
    residual: float
    rank: int
    tangent: np.ndarray  # unit predictor direction at this point
    step_size: float
    corrector_iterations: int


@dataclass(frozen=True)
class BranchEvent:
    """Why tracing stopped or something noteworthy happened."""

    kind: str  # rank-drop | domain-exit | corrector-failure | closed | max-points
    direction: int  # +1 forward, -1 backward, 0 whole branch
    detail: str
    location: np.ndarray | None = None


@dataclass(frozen=True)
class SolutionBranch:
    """An ordered trace of a 1-dimensional solution curve through a point."""

    base_point: np.ndarray
    target: np.ndarray
    rank: int
    points: tuple[BranchPoint, ...]
    events: tuple[BranchEvent, ...]
    closed: bool
    residual_tol: float
    max_step: float

    def to_csv(self):
        n = self.base_point.size
        header = ",".join(f"x{i + 1}" for i in range(n)) + ",residual,rank"
        lines = [header]
        for bp in self.points:
            coords = ",".join(repr(float(v)) for v in bp.point)
            lines.append(f"{coords},{bp.residual!r},{bp.rank}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {**_json_fields(self, points=None, events=None),
                "points": [_json_fields(bp, point="x") for bp in self.points],
                "events": [_json_fields(ev) for ev in self.events]}


def _trace_direction(system, start, direction, start_tangent, target, rank0, step, budget,
                     tol, radius):
    """Walk direction +1 (which may close up) or -1 from p. Returns (points, events, closed)."""
    points = []

    def stop(kind, detail, location, closed=False):  # the one event that ends the walk
        return points, [BranchEvent(kind, direction, detail, location)], closed

    x, tangent = start, start_tangent
    h = step
    traveled = 0.0
    while len(points) < budget:
        halvings = 0
        while True:
            predicted = x + h * tangent
            jac, iters, ok, rn = _gauss_newton(
                system, predicted, target, CORRECTOR_INTERIOR_TOL, MAX_CORRECTOR_ITERATIONS
            )
            if ok:
                advance = _norm(jac.point - x)
                if advance <= step:
                    break
            halvings += 1
            if halvings > MAX_STEP_HALVINGS:
                return stop("corrector-failure",
                            f"corrector did not converge after {halvings - 1} step halvings",
                            predicted)
            h *= 0.5
        cx = jac.point
        if np.abs(cx).max() > radius:
            return stop("domain-exit", f"left the domain box [-{radius}, {radius}]^N", cx)
        rank, kernel, _ = _svd_analysis(jac, tol)
        if rank != rank0:
            return stop("rank-drop", f"numeric rank {rank} != branch rank {rank0}", cx)
        new_tangent = kernel[0]
        if float(new_tangent @ tangent) < 0.0:
            new_tangent = -new_tangent
        points.append(BranchPoint(
            point=cx, residual=rn, rank=rank,
            tangent=new_tangent, step_size=h, corrector_iterations=iters,
        ))
        traveled += advance
        x, tangent = cx, new_tangent
        h = min(step, 2.0 * h)
        if (direction > 0 and traveled >= 4.0 * step
                and _norm(cx - start) < 0.5 * step):
            return stop("closed", "returned within step/2 of the start point", cx, closed=True)
    return stop("max-points", f"point budget {budget} exhausted", x)


@np.errstate(over="ignore")
def trace_curve(
    system: StructuredPolySystem,
    p,
    step: float = 0.05,
    max_points: int = 400,
    tol: RankTolerance = RankTolerance(),
    domain_radius: float = DEFAULT_DOMAIN_RADIUS,
) -> SolutionBranch:
    """Trace the solution curve through p in both kernel directions.

    Requires the local solution-set dimension at p to be exactly 1. Stops on
    the point budget, on leaving the domain box, on closing up (returning
    within step/2 of p), or on a rank-drop event. Every accepted point
    satisfies the residual bound, lies within ``step`` of its predecessor,
    and has the same numeric rank as p.
    """
    system = check_system(system)
    step, domain_radius = map(check_positive, (step, domain_radius), ("step", "domain_radius"))
    max_points, tol = check_count(max_points, "max_points"), check_tolerance(tol)
    jac0, rank0, kernel0, _ = _analyse_start(system, p, tol)
    p, target = jac0.point, jac0.residual_target
    dim = system.num_variables - rank0
    if dim != 1:
        raise WrongDimensionError(
            f"curve tracing needs a 1-dimensional kernel at p, found dimension {dim}"
        )
    tangent0 = kernel0[0]
    base = BranchPoint(
        point=p, residual=0.0, rank=rank0,
        tangent=tangent0, step_size=0.0, corrector_iterations=0,
    )
    forward, events, closed = _trace_direction(
        system, p, +1, tangent0, target, rank0, step, max_points - 1, tol, domain_radius,
    )
    backward = []
    if not closed:
        budget = max_points - 1 - len(forward)
        if budget > 0:
            backward, b_events, _ = _trace_direction(
                system, p, -1, -tangent0, target, rank0, step, budget, tol, domain_radius,
            )
            events += b_events
        else:
            events.append(BranchEvent(
                kind="max-points", direction=-1,
                detail="no point budget left for the reverse direction", location=p,
            ))
    points = tuple(reversed(backward)) + (base,) + tuple(forward)
    return SolutionBranch(
        base_point=p,
        target=target,
        rank=rank0,
        points=points,
        events=tuple(events),
        closed=closed,
        residual_tol=DEFAULT_RESIDUAL_TOL,
        max_step=step,
    )


@dataclass(frozen=True)
class ManifoldProbeReport:
    """Evidence about the solution set through one base point."""

    base_point: np.ndarray
    rank: int
    dimension: int
    samples_requested: int
    samples_accepted: int
    rank_histogram: dict[int, int]
    rank_drop_found: bool
    drop_point: np.ndarray | None
    drop_rank: int | None
    min_significant_sigma: float
    isolated_confirmed: bool | None
    returned_count: int | None
    corrector_failures: int

    def to_json_dict(self):
        return _json_fields(self, rank_histogram="histogram")


def _sigma_significant(sigma, rank0):
    # A rank never exceeds the number of singular values.
    return float(sigma[rank0 - 1]) if rank0 >= 1 else 0.0


def _land(system, trial, target, radius, tol):
    """(evaluation, rank, kernel rows, singular values) of ``trial`` corrected onto the level set.

    None, with no analysis, when the corrector fails or lands outside [-radius, radius]^N.
    """
    jac, _, ok, _ = _gauss_newton(system, trial, target,
                                  CORRECTOR_INTERIOR_TOL, MAX_CORRECTOR_ITERATIONS)
    if not ok or np.abs(jac.point).max() > radius:
        return None
    return (jac, *_svd_analysis(jac, tol))


def _hunt_rank_drop(system, x, rank, kernel, current, target, rank0, step, tol, radius, rng):
    """Greedy descent of the rank0-th singular value along the solution set.

    The walk itself almost never lands on the measure-zero locus where the
    rank drops; descending the smallest significant singular value finds it
    when it exists (the value decays to zero on approach). Reports a drop
    only if the numeric rank at the refined point, under the standard
    tolerance, is below rank0. It starts at x, whose rank, kernel rows and
    rank0-th singular value ``current`` the walk has found.
    """
    h = step
    corrections = 0
    while h > 1e-15 and corrections < MAX_HUNT_CORRECTIONS:
        dim = kernel.shape[0]
        candidates = list(kernel) + [rng.standard_normal(dim) @ kernel for _ in range(2)]
        tried = set()  # a trial made again in one step would land as before and lower nothing
        for base_dir, sign in product(candidates, (1.0, -1.0)):
            norm = _norm(base_dir)
            if norm == 0.0:
                continue
            trial = x + (sign * h / norm) * base_dir
            corrections += 1
            landed = None if trial.tobytes() in tried else _land(system, trial, target, radius, tol)
            tried.add(trial.tobytes())
            if landed is None:
                continue
            jac, r, k, s = landed
            value = _sigma_significant(s, rank0)
            if r < rank0:
                return jac.point, r, value
            if value < current:
                x, rank, kernel, current = jac.point, r, k, value
                break
        else:  # no trial lowered the value
            h *= 0.5
    return x, rank, current


@np.errstate(over="ignore")
def manifold_probe(
    system: StructuredPolySystem,
    p,
    samples: int = 50,
    tol: RankTolerance = RankTolerance(),
    step: float = 0.2,
    seed: int = 0,
    domain_radius: float = DEFAULT_DOMAIN_RADIUS,
) -> ManifoldProbeReport:
    """Sample the solution set through p and look for rank drops.

    For dimension >= 1 the probe walks the set by random kernel steps plus
    correction, then refines toward the smallest significant singular value
    seen; constant rank across all samples is manifold evidence, a drop is
    evidence that p is exceptional. For dimension 0 the probe checks that
    the corrector returns to p from nearby perturbations (isolated point).
    """
    system = check_system(system)
    samples, seed = check_count(samples, "samples"), check_count(seed, "seed", 0)
    tol = check_tolerance(tol)
    step, domain_radius = map(check_positive, (step, domain_radius), ("step", "domain_radius"))
    jac0, rank0, kernel, sigma0 = _analyse_start(system, p, tol)
    p, target = jac0.point, jac0.residual_target
    dim = system.num_variables - rank0
    rng = seeded_rng(seed)
    histogram, failures, accepted = {}, 0, 0
    min_sigma = _sigma_significant(sigma0, rank0)
    drop_point = drop_rank = isolated = returned = None
    if dim == 0:
        returned = 0
        for _ in range(samples):
            eta = rng.standard_normal(p.size)
            eta /= _norm(eta)
            jac, _, ok, _ = _gauss_newton(system, p + ISOLATED_PROBE_RADIUS * eta, target,
                                          DEFAULT_RESIDUAL_TOL, PERTURBED_ITERATIONS)
            if not ok:
                failures += 1
            elif _norm(jac.point - p) <= 1e-6:
                returned += 1
        accepted = samples - failures
        histogram = {rank0: accepted} if accepted else {}
        isolated = failures == 0 and returned == samples
    else:
        x = p
        argmin = (p, rank0, kernel)  # the lowest-sigma point, its rank and kernel rows
        for _ in range(samples):
            direction = rng.standard_normal(dim) @ kernel
            norm = _norm(direction)
            if norm == 0.0:
                failures += 1
                continue
            direction /= norm
            for sign in (1.0, -1.0):
                landed = _land(system, x + sign * step * direction, target, domain_radius, tol)
                if landed is not None:
                    break
            else:
                failures += 1
                continue
            jac, rank, k, sigma = landed
            histogram[rank] = histogram.get(rank, 0) + 1
            accepted += 1
            value = _sigma_significant(sigma, rank0)
            if value < min_sigma:
                min_sigma, argmin = value, (jac.point, rank, k)
            if rank < rank0:
                drop_point, drop_rank = jac.point, rank
                break
            if rank == rank0:
                # The walk steps along the base kernel's dimension; a sample
                # at a higher rank (p exceptional) is counted, not walked from.
                x, kernel = jac.point, k
        # No rank lies below 0, so a base rank of 0 leaves nothing to hunt.
        if drop_point is None and accepted > 0 and rank0 > 0:
            hx, hrank, hsigma = _hunt_rank_drop(
                system, *argmin, min_sigma, target, rank0, step, tol, domain_radius, rng
            )
            min_sigma = min(min_sigma, hsigma)
            if hrank < rank0:
                drop_point, drop_rank = hx, hrank
    return ManifoldProbeReport(
        base_point=p, rank=rank0, dimension=dim,
        samples_requested=samples, samples_accepted=accepted,
        rank_histogram=histogram,
        rank_drop_found=drop_point is not None,
        drop_point=drop_point, drop_rank=drop_rank,
        min_significant_sigma=min_sigma,
        isolated_confirmed=isolated, returned_count=returned,
        corrector_failures=failures,
    )


@dataclass(frozen=True)
class PerturbationProbe:
    """Result of trying to solve F(x) = F(p) + delta."""

    delta: np.ndarray
    solved: bool
    solution: np.ndarray | None
    residual_floor: float
    starts_tried: int

    def to_json_dict(self):
        return _json_fields(self)


@np.errstate(over="ignore")
def perturbation_probe(
    system: StructuredPolySystem,
    p,
    delta,
    seed: int = 0,
) -> PerturbationProbe:
    """Attempt to solve the perturbed system F(x) = F(p) + delta.

    Runs Gauss-Newton least-squares descent from p and from jittered
    restarts. For fragile structures a nonzero residual floor is evidence
    (not proof) that the perturbed system is unsolvable; for robust ones the
    implicit function theorem predicts a nearby solution for small delta.
    """
    system, seed = check_system(system), check_count(seed, "seed", 0)
    p = np.asarray(p, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (system.num_equations,):
        raise ValueError(
            f"delta must perturb the {system.num_equations} right-hand sides, got {delta.shape}"
        )
    if not np.isfinite(delta).all():
        raise ValueError(f"delta must be finite, got {[float(v) for v in delta]}")
    at_p = _evaluate_start(system, p)
    target = at_p.residual_target + delta
    rng = seeded_rng(seed)
    starts = [at_p] + [
        p + rng.uniform(-RESTART_SCALE, RESTART_SCALE, p.size) for _ in range(PERTURBATION_RESTARTS)
    ]
    best_rn = np.inf
    for tried, x0 in enumerate(starts, 1):
        jac, _, solved, rn = _gauss_newton(system, x0, target,
                                           DEFAULT_RESIDUAL_TOL, PERTURBED_ITERATIONS)
        best_rn = min(best_rn, rn)  # a solve's residual is the lowest seen
        if solved:
            break
    return PerturbationProbe(
        delta=delta, solved=solved, solution=jac.point if solved else None,
        residual_floor=float(best_rn), starts_tried=tried,
    )
