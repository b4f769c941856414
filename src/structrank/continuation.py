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

from dataclasses import dataclass

import numpy as np

from .errors import WrongDimensionError
from .numrank import RankTolerance
from .polysys import JacobianEvaluation, StructuredPolySystem

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
DEFAULT_DOMAIN_RADIUS = 10.0


def _check_step(step):
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")


def _svd_analysis(jac, tol):
    """(numeric rank, orthonormal kernel rows, singular values) of an evaluated DF."""
    _, sigma, vt = np.linalg.svd(jac.matrix, full_matrices=True)
    rank = tol.rank_of(sigma)
    return rank, vt[rank:], sigma


@dataclass(frozen=True)
class LocalDimension:
    """Solution-set dimension at a point: N - rank(DF), with the kernel basis."""

    dimension: int
    rank: int
    kernel: np.ndarray  # (dimension, N), orthonormal rows


def local_dimension(system: StructuredPolySystem, p, tol: RankTolerance = RankTolerance()) -> LocalDimension:
    rank, kernel, _ = _svd_analysis(system.jacobian(p), tol)
    return LocalDimension(dimension=system.num_variables - rank, rank=rank, kernel=kernel)


def _gauss_newton(system, x0, target, residual_tol, max_iterations, max_backtracks=12):
    """Least-squares descent of ||F(x) - target|| from x0.

    Uses minimum-norm Gauss-Newton steps (pseudoinverse), which handle
    rectangular and rank-deficient Jacobians uniformly, with halving
    backtracks. One ``jacobian`` call per point gives its residual and the
    next step's matrix; x0 may be passed as its evaluation instead. A zero
    step ends the descent, as every backtrack trial would be x itself.
    Returns (evaluation of the last accepted point, or None if x0 cannot be
    evaluated; iterations; converged; residual).
    Accepted steps lower the residual strictly, so that point is the best
    one seen; a stall at a nonzero residual means a local minimum.
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


@dataclass(frozen=True)
class BranchPoint:
    """One accepted point on a traced solution curve."""

    point: np.ndarray
    residual: float
    rank: int
    kernel: np.ndarray  # (N - rank, N)
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

    def coordinates(self):
        return np.array([bp.point for bp in self.points])

    def to_csv(self):
        n = self.base_point.size
        header = ",".join(f"x{i + 1}" for i in range(n)) + ",residual,rank"
        lines = [header]
        for bp in self.points:
            coords = ",".join(repr(float(v)) for v in bp.point)
            lines.append(f"{coords},{bp.residual!r},{bp.rank}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "base_point": [float(v) for v in self.base_point],
            "target": [float(v) for v in self.target],
            "rank": self.rank,
            "closed": self.closed,
            "residual_tol": self.residual_tol,
            "max_step": self.max_step,
            "points": [
                {
                    "x": [float(v) for v in bp.point],
                    "residual": bp.residual,
                    "rank": bp.rank,
                    "tangent": [float(v) for v in bp.tangent],
                    "step_size": bp.step_size,
                    "corrector_iterations": bp.corrector_iterations,
                }
                for bp in self.points
            ],
            "events": [
                {
                    "kind": ev.kind,
                    "direction": ev.direction,
                    "detail": ev.detail,
                    "location": None if ev.location is None else [float(v) for v in ev.location],
                }
                for ev in self.events
            ],
        }


def _trace_direction(system, start, direction, start_tangent, target, rank0, step, budget,
                     tol, residual_tol, radius, closure_base):
    """Walk one kernel direction (+1 or -1). Returns (points, events, closed)."""
    points, events = [], []
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
            if ok and rn <= residual_tol:
                advance = float(np.linalg.norm(jac.point - x))
                if advance <= step:
                    break
            halvings += 1
            if halvings > MAX_STEP_HALVINGS:
                events.append(BranchEvent(
                    kind="corrector-failure",
                    direction=direction,
                    detail=f"corrector did not converge after {halvings - 1} step halvings",
                    location=predicted,
                ))
                return points, events, False
            h *= 0.5
        cx = jac.point
        if np.abs(cx).max() > radius:
            events.append(BranchEvent(
                kind="domain-exit",
                direction=direction,
                detail=f"left the domain box [-{radius}, {radius}]^N",
                location=cx,
            ))
            return points, events, False
        rank, kernel, _ = _svd_analysis(jac, tol)
        if rank != rank0:
            events.append(BranchEvent(
                kind="rank-drop",
                direction=direction,
                detail=f"numeric rank {rank} != branch rank {rank0}",
                location=cx,
            ))
            return points, events, False
        new_tangent = kernel[0]
        if float(new_tangent @ tangent) < 0.0:
            new_tangent = -new_tangent
        points.append(BranchPoint(
            point=cx, residual=rn, rank=rank, kernel=kernel,
            tangent=new_tangent, step_size=h, corrector_iterations=iters,
        ))
        traveled += advance
        x, tangent = cx, new_tangent
        h = min(step, 2.0 * h)
        if (closure_base is not None and traveled >= 4.0 * step
                and float(np.linalg.norm(cx - closure_base)) < 0.5 * step):
            events.append(BranchEvent(
                kind="closed",
                direction=direction,
                detail="returned within step/2 of the start point",
                location=cx,
            ))
            return points, events, True
    events.append(BranchEvent(
        kind="max-points",
        direction=direction,
        detail=f"point budget {budget} exhausted",
        location=x,
    ))
    return points, events, False


def trace_curve(
    system: StructuredPolySystem,
    p,
    step: float = 0.05,
    max_points: int = 400,
    tol: RankTolerance = RankTolerance(),
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    domain_radius: float = DEFAULT_DOMAIN_RADIUS,
) -> SolutionBranch:
    """Trace the solution curve through p in both kernel directions.

    Requires the local solution-set dimension at p to be exactly 1. Stops on
    the point budget, on leaving the domain box, on closing up (returning
    within step/2 of p), or on a rank-drop event. Every accepted point
    satisfies the residual bound, lies within ``step`` of its predecessor,
    and has the same numeric rank as p.
    """
    _check_step(step)
    if max_points < 1:
        raise ValueError("max_points must be >= 1")
    p = np.asarray(p, dtype=np.float64)
    jac0 = system.jacobian(p)
    target = jac0.residual_target
    rank0, kernel0, _ = _svd_analysis(jac0, tol)
    dim = system.num_variables - rank0
    if dim != 1:
        raise WrongDimensionError(
            f"curve tracing needs a 1-dimensional kernel at p, found dimension {dim}"
        )
    tangent0 = kernel0[0]
    base = BranchPoint(
        point=p, residual=0.0, rank=rank0, kernel=kernel0,
        tangent=tangent0, step_size=0.0, corrector_iterations=0,
    )
    forward, events, closed = _trace_direction(
        system, p, +1, tangent0, target, rank0, step, max_points - 1,
        tol, residual_tol, domain_radius, closure_base=p,
    )
    backward = []
    if not closed:
        budget = max_points - 1 - len(forward)
        if budget > 0:
            backward, b_events, _ = _trace_direction(
                system, p, -1, -tangent0, target, rank0, step, budget,
                tol, residual_tol, domain_radius, closure_base=None,
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
        residual_tol=residual_tol,
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
        return {
            "base_point": [float(v) for v in self.base_point],
            "rank": self.rank,
            "dimension": self.dimension,
            "samples_requested": self.samples_requested,
            "samples_accepted": self.samples_accepted,
            "histogram": {str(k): v for k, v in sorted(self.rank_histogram.items())},
            "rank_drop_found": self.rank_drop_found,
            "drop_point": None if self.drop_point is None else [float(v) for v in self.drop_point],
            "drop_rank": self.drop_rank,
            "min_significant_sigma": self.min_significant_sigma,
            "isolated_confirmed": self.isolated_confirmed,
            "returned_count": self.returned_count,
            "corrector_failures": self.corrector_failures,
        }


def _sigma_significant(sigma, rank0):
    if rank0 < 1 or rank0 > sigma.size:
        return 0.0
    return float(sigma[rank0 - 1])


def _hunt_rank_drop(system, start, target, rank0, step, tol, radius, rng,
                    max_corrections=400):
    """Greedy descent of the rank0-th singular value along the solution set.

    The walk itself almost never lands on the measure-zero locus where the
    rank drops; descending the smallest significant singular value finds it
    when it exists (the value decays to zero on approach). Reports a drop
    only if the numeric rank at the refined point, under the standard
    tolerance, is below rank0. ``start`` is the evaluation of the start point.
    """
    x = start.point
    rank, kernel, sigma = _svd_analysis(start, tol)
    current = _sigma_significant(sigma, rank0)
    if rank < rank0:
        return x, rank, current
    h = step
    corrections = 0
    while h > 1e-15 and corrections < max_corrections:
        dim = kernel.shape[0]
        candidates = list(kernel) + [rng.standard_normal(dim) @ kernel for _ in range(2)]
        improved = False
        for base_dir in candidates:
            norm = float(np.linalg.norm(base_dir))
            if norm == 0.0:
                continue
            for sign in (1.0, -1.0):
                trial = x + (sign * h / norm) * base_dir
                jac, _, ok, _ = _gauss_newton(
                    system, trial, target,
                    CORRECTOR_INTERIOR_TOL, MAX_CORRECTOR_ITERATIONS,
                )
                corrections += 1
                if not ok or np.abs(jac.point).max() > radius:
                    continue
                r, k, s = _svd_analysis(jac, tol)
                value = _sigma_significant(s, rank0)
                if r < rank0:
                    return jac.point, r, value
                if value < current:
                    x, rank, kernel, current = jac.point, r, k, value
                    improved = True
                    break
            if improved:
                break
        if not improved:
            h *= 0.5
    return x, rank, current


def manifold_probe(
    system: StructuredPolySystem,
    p,
    samples: int = 50,
    tol: RankTolerance = RankTolerance(),
    step: float = 0.2,
    seed: int = 0,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    domain_radius: float = DEFAULT_DOMAIN_RADIUS,
    probe_radius: float = 0.1,
) -> ManifoldProbeReport:
    """Sample the solution set through p and look for rank drops.

    For dimension >= 1 the probe walks the set by random kernel steps plus
    correction, then refines toward the smallest significant singular value
    seen; constant rank across all samples is manifold evidence, a drop is
    evidence that p is exceptional. For dimension 0 the probe checks that
    the corrector returns to p from nearby perturbations (isolated point).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_step(step)
    p = np.asarray(p, dtype=np.float64)
    jac0 = system.jacobian(p)
    target = jac0.residual_target
    rank0, kernel, sigma0 = _svd_analysis(jac0, tol)
    dim = system.num_variables - rank0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    if dim == 0:
        returned = 0
        failures = 0
        return_tol = max(1e-6, 10.0 * residual_tol)
        for _ in range(samples):
            eta = rng.standard_normal(p.size)
            eta /= float(np.linalg.norm(eta))
            jac, _, ok, _ = _gauss_newton(
                system, p + probe_radius * eta, target,
                residual_tol, 2 * MAX_CORRECTOR_ITERATIONS,
            )
            if not ok:
                failures += 1
            elif float(np.linalg.norm(jac.point - p)) <= return_tol:
                returned += 1
        return ManifoldProbeReport(
            base_point=p, rank=rank0, dimension=0,
            samples_requested=samples, samples_accepted=samples - failures,
            rank_histogram={rank0: samples - failures} if samples > failures else {},
            rank_drop_found=False, drop_point=None, drop_rank=None,
            min_significant_sigma=_sigma_significant(sigma0, rank0),
            isolated_confirmed=(failures == 0 and returned == samples),
            returned_count=returned, corrector_failures=failures,
        )

    histogram = {}
    failures = 0
    accepted = 0
    x = p
    min_sigma = _sigma_significant(sigma0, rank0)
    argmin = jac0
    drop_point = None
    drop_rank = None
    for _ in range(samples):
        direction = rng.standard_normal(dim) @ kernel
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            failures += 1
            continue
        direction /= norm
        moved = False
        for sign in (1.0, -1.0):
            trial = x + sign * step * direction
            jac, _, ok, rn = _gauss_newton(
                system, trial, target, CORRECTOR_INTERIOR_TOL, MAX_CORRECTOR_ITERATIONS
            )
            if ok and rn <= residual_tol and np.abs(jac.point).max() <= domain_radius:
                moved = True
                break
        if not moved:
            failures += 1
            continue
        rank, k, sigma = _svd_analysis(jac, tol)
        histogram[rank] = histogram.get(rank, 0) + 1
        accepted += 1
        value = _sigma_significant(sigma, rank0)
        if value < min_sigma:
            min_sigma, argmin = value, jac
        if rank < rank0:
            drop_point, drop_rank = jac.point, rank
            break
        x, kernel = jac.point, k
    if drop_point is None and accepted > 0:
        hx, hrank, hsigma = _hunt_rank_drop(
            system, argmin, target, rank0, step, tol, domain_radius, rng
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
        isolated_confirmed=None, returned_count=None,
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
        return {
            "delta": [float(v) for v in self.delta],
            "solved": self.solved,
            "solution": None if self.solution is None else [float(v) for v in self.solution],
            "residual_floor": self.residual_floor,
            "starts_tried": self.starts_tried,
        }


def perturbation_probe(
    system: StructuredPolySystem,
    p,
    delta,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    max_newton: int = 50,
    restarts: int = 20,
    restart_scale: float = 0.5,
    seed: int = 0,
) -> PerturbationProbe:
    """Attempt to solve the perturbed system F(x) = F(p) + delta.

    Runs Gauss-Newton least-squares descent from p and from jittered
    restarts. For fragile structures a nonzero residual floor is evidence
    (not proof) that the perturbed system is unsolvable; for robust ones the
    implicit function theorem predicts a nearby solution for small delta.
    """
    p = np.asarray(p, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (system.num_equations,):
        raise ValueError(
            f"delta must perturb the {system.num_equations} right-hand sides, got {delta.shape}"
        )
    at_p = system.jacobian(p)
    target = at_p.residual_target + delta
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    starts = [at_p] + [
        p + rng.uniform(-restart_scale, restart_scale, p.size) for _ in range(restarts)
    ]
    best_rn = np.inf
    tried = 0
    for x0 in starts:
        tried += 1
        jac, _, ok, rn = _gauss_newton(system, x0, target, residual_tol, max_newton)
        if ok:
            return PerturbationProbe(
                delta=delta, solved=True, solution=jac.point,
                residual_floor=rn, starts_tried=tried,
            )
        best_rn = min(best_rn, rn)
    return PerturbationProbe(
        delta=delta, solved=False, solution=None,
        residual_floor=float(best_rn), starts_tried=tried,
    )
