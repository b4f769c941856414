"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from structrank import (
    StructurePattern,
    certify_acr,
    classify,
    generic_rank_randomized,
    knockout_sweep,
    manifold_probe,
    maximum_matching,
    numeric_rank,
    perturbation_probe,
    rank_maximizer_sweep,
    sample_system,
    structural_rank,
    trace_curve,
)
from structrank.datasets import DATASETS, get_dataset

PATTERN_DATASETS = [
    name for name in sorted(DATASETS)
    if isinstance(DATASETS[name].structure, StructurePattern)
]

RANK_TABLE = {
    "cep3": (2, "fragile", 1),
    "robust4": (4, "robust", 0),
    "twogene": (4, "robust", 0),
    "jakstat": (11, "fragile", 1),
    "trophic5": (4, "fragile", 1),
    "trophic5plus": (5, "robust", 0),
    "sole26": (20, "fragile", 6),
    "robotarm": (3, "robust", 3),
}


def report(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_structural_ranks_match_published_values():
    classify(get_dataset("sole26").structure)  # warm up import paths
    worst = 0.0
    for name, (rank, cls, dim) in RANK_TABLE.items():
        pattern = get_dataset(name).structure
        start = time.perf_counter()
        rep = classify(pattern)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert rep.structural_rank == rank, (name, rep.structural_rank)
        assert rep.classification == cls, (name, rep.classification)
        assert rep.solution_dimension == dim, (name, rep.solution_dimension)
        assert classify(pattern) == rep  # deterministic
        assert elapsed < 0.010, (name, elapsed)
    report(1, True, f"8 published ranks reproduced exactly; slowest {worst * 1e3:.2f} ms")


def test_criterion_2_jakstat_knockout_flags_only_node_12():
    pattern = get_dataset("jakstat").structure
    start = time.perf_counter()
    entries = knockout_sweep(pattern)
    elapsed = time.perf_counter() - start
    flips = [en.node + 1 for en in entries if en.flips_to_robust]
    ok = flips == [12] and elapsed < 0.100
    report(2, ok, f"fragile->robust knockouts = {flips} in {elapsed * 1e3:.1f} ms")


def test_criterion_3_certification_at_99_percent():
    lines = []
    ok = True
    for name in PATTERN_DATASETS:
        pattern = get_dataset(name).structure
        start = time.perf_counter()
        rep = certify_acr(pattern, trials=1000, degree=2, seed=0)
        elapsed = time.perf_counter() - start
        good = rep.passed and rep.agreement_rate >= 0.99 and elapsed < 10.0
        ok = ok and good
        lines.append(f"{name} {rep.agreement_count}/1000 in {elapsed:.2f}s")
    report(3, ok, "certify_acr: " + "; ".join(lines))


def test_criterion_4_aggregated_resource_rank_below_matching_bound():
    dataset = get_dataset("example5")
    start = time.perf_counter()
    rep = generic_rank_randomized(dataset.structure, trials=200, degree=2, seed=0)
    elapsed = time.perf_counter() - start
    from structrank import effective_pattern

    bound = structural_rank(effective_pattern(dataset.structure))
    ok = rep.estimated_rank == 3 and bound == 4 and elapsed < 5.0
    report(4, ok,
           f"estimated rank {rep.estimated_rank} < matching bound {bound} "
           f"({elapsed:.2f}s, histogram {rep.rank_histogram})")


def test_criterion_5_quartic_parabola_trace():
    sys = get_dataset("eqcep1").system
    start = time.perf_counter()
    branch = trace_curve(sys, [1.0, 1.0, 1.0], step=0.05, max_points=400)
    elapsed = time.perf_counter() - start
    pts = np.array([bp.point for bp in branch.points])
    target = np.array([1.0, 2.0, 1.0])
    parabola_err = np.abs(pts[:, 1] - pts[:, 0] ** 2).max()
    plane_err = np.abs(pts[:, 2] - 1.0).max()
    residual_err = max(
        float(np.linalg.norm(sys.evaluate(bp.point) - target)) for bp in branch.points
    )
    tangent_err = max(
        float(np.linalg.norm(sys.jacobian(bp.point).matrix @ bp.tangent))
        for bp in branch.points
    )
    ok = (
        parabola_err <= 1e-6
        and plane_err <= 1e-6
        and residual_err <= 1e-8
        and tangent_err <= 1e-6
        and elapsed < 2.0
    )
    report(5, ok,
           f"{len(branch.points)} points; |x2-x1^2|<={parabola_err:.1e}, "
           f"|x3-1|<={plane_err:.1e}, residual<={residual_err:.1e}, "
           f"tangent<={tangent_err:.1e}, {elapsed:.2f}s")


def test_criterion_6_product_system_hyperbola_and_axes():
    xy = get_dataset("xy").system
    branch = trace_curve(xy, [1.0, 1.0], step=0.05, max_points=400)
    pts = np.array([bp.point for bp in branch.points])
    hyperbola_err = np.abs(pts[:, 0] * pts[:, 1] - 1.0).max()
    probe = manifold_probe(xy, [1.0, 0.0], samples=50, seed=0)
    in_box = probe.drop_point is not None and np.abs(probe.drop_point).max() <= 10.0
    ok = hyperbola_err <= 1e-6 and probe.rank_drop_found and in_box
    where = None if probe.drop_point is None else np.round(probe.drop_point, 12).tolist()
    report(6, ok,
           f"hyperbola error {hyperbola_err:.1e}; rank drop at {where} "
           f"(rank {probe.drop_rank})")


def test_criterion_7_perturbation_probes():
    start = time.perf_counter()
    # Independent 1-D oracle: only x3 is constrained by the first two
    # equations, so grid-search the best joint residual over x3.
    grid = np.arange(-3.0, 3.0 + 1e-9, 1e-4)
    oracle_floor = np.sqrt((grid**2 - 1.0) ** 2 + (grid**4 - 1.1) ** 2).min()
    quartic = get_dataset("eqcep1").system
    fragile = perturbation_probe(quartic, [1.0, 1.0, 1.0], [0.0, 0.1, 0.0], seed=0)

    robust = sample_system(get_dataset("robust4").structure, degree=2, seed=0)
    rng = np.random.default_rng(1)
    p = rng.uniform(-1, 1, 4)
    delta = rng.standard_normal(4)
    delta *= 1e-3 / np.linalg.norm(delta)
    solved = perturbation_probe(robust, p, delta, seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        not fragile.solved
        and fragile.residual_floor >= 0.02
        and abs(fragile.residual_floor - oracle_floor) <= 1e-3
        and solved.solved
        and elapsed < 5.0
    )
    report(7, ok,
           f"fragile floor {fragile.residual_floor:.4f} (oracle {oracle_floor:.4f}), "
           f"robust solved={solved.solved}, {elapsed:.2f}s combined")


def _check_finite_differences(pairs=100):
    rng = np.random.default_rng(2024)
    structures = [get_dataset(n).structure for n in ("cep3", "robust4", "jakstat", "robotarm")]
    worst = 0.0
    for k in range(pairs):
        structure = structures[k % len(structures)]
        sys = sample_system(structure, degree=2, seed=k)
        x = rng.uniform(-1, 1, structure.num_variables)
        jac = sys.jacobian(x).matrix
        fd = np.zeros_like(jac)
        for i in range(structure.num_variables):
            h = 1e-5 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[:, i] = (sys.evaluate(xp) - sys.evaluate(xm)) / (2.0 * h)
        err = np.abs(fd - jac).max() / (1.0 + np.abs(jac).max())
        worst = max(worst, err)
    return worst


def _check_rank_upper_bound(samples=1000):
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(samples):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        mask = rng.random((m, n)) < rng.uniform(0.2, 0.9)
        pattern = StructurePattern(
            m, n, frozenset((int(e), int(v)) for e, v in zip(*mask.nonzero()))
        )
        matrix = np.where(mask, rng.uniform(-1, 1, (m, n)), 0.0)
        if numeric_rank(matrix) > structural_rank(pattern):
            violations += 1
    return violations


def _check_mixing_sweeps(trials=50):
    pattern = get_dataset("robust4").structure
    grid = np.linspace(-1.0, 1.0, 101)
    submaximal = 0
    total = 0
    for t in range(trials):
        f = sample_system(pattern, degree=2, seed=2 * t)
        fmax = sample_system(pattern, degree=2, seed=2 * t + 1)
        x = np.random.default_rng(t).uniform(-1, 1, 4)
        for _, rank in rank_maximizer_sweep(f, fmax, x, grid):
            total += 1
            submaximal += rank < 4
    return submaximal / total


def _check_koenig_exhaustive(max_dim=4):
    """All patterns with M, N <= max_dim: matching size == min vertex cover.

    The matching oracle is a subset DP over column bitmasks, the cover oracle
    scans vertex subsets in popcount order with precomputed coverage masks;
    both are independent of the augmenting-path implementation under test.
    """
    checked = 0
    for m in range(1, max_dim + 1):
        for n in range(1, max_dim + 1):
            nverts = m + n
            nsub = 1 << nverts
            cover = {}
            for e in range(m):
                for v in range(n):
                    mask = 0
                    for s in range(nsub):
                        if (s >> e) & 1 or (s >> (m + v)) & 1:
                            mask |= 1 << s
                    cover[(e, v)] = mask
            size_mask = [0] * (nverts + 1)
            for s in range(nsub):
                size_mask[bin(s).count("1")] |= 1 << s
            all_subsets = (1 << nsub) - 1
            supports = [
                tuple(v for v in range(n) if (s >> v) & 1) for s in range(1 << n)
            ]

            def descend(row, rows, dp, coverable):
                nonlocal checked
                if row == m:
                    brute_nu = max(bin(x).count("1") for x in dp)
                    tau = next(
                        k for k in range(nverts + 1) if coverable & size_mask[k]
                    )
                    pattern = StructurePattern(
                        m, n,
                        frozenset((e, v) for e, sup in enumerate(rows) for v in sup),
                    )
                    matching = maximum_matching(pattern)
                    assert len(matching) == brute_nu == tau, (m, n, rows)
                    assert set(matching) <= pattern.allowed
                    eqs = [e for e, _ in matching]
                    cols = [v for _, v in matching]
                    assert len(set(eqs)) == len(eqs) and len(set(cols)) == len(cols)
                    checked += 1
                    return
                for sup in supports:
                    new_dp = set(dp)
                    for assigned in dp:
                        for v in sup:
                            bit = 1 << v
                            if not assigned & bit:
                                new_dp.add(assigned | bit)
                    new_coverable = coverable
                    for v in sup:
                        new_coverable &= cover[(row, v)]
                    descend(row + 1, rows + [sup], new_dp, new_coverable)

            descend(0, [], {0}, all_subsets)
    return checked


def test_criterion_8_property_suites():
    start = time.perf_counter()
    fd_err = _check_finite_differences(100)
    violations = _check_rank_upper_bound(1000)
    submax_fraction = _check_mixing_sweeps(50)
    checked = _check_koenig_exhaustive(4)
    elapsed = time.perf_counter() - start
    ok = (
        fd_err <= 1e-5
        and violations == 0
        and submax_fraction <= 0.01
        and checked == sum(2 ** (m * n) for m in range(1, 5) for n in range(1, 5))
        and elapsed < 60.0
    )
    report(8, ok,
           f"finite-difference err {fd_err:.1e}; {violations} rank-bound violations/1000; "
           f"sub-maximal mixing fraction {submax_fraction:.4f}; "
           f"Koenig duality exhaustive on {checked} patterns; {elapsed:.1f}s total")
