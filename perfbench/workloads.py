"""The four benchmark workloads: seed-generated inputs, the analysis call, its check.

``build(workload, seed, root)`` returns one *round*: a fixed list of
operations. The worker repeats the round until its time is up, so every
round makes exactly the same calls. Sizes follow a fixed template per
workload, stratified over the stated ranges; the seed jitters each size
within its stratum and draws the random structures, coefficients, points and
analysis seeds. The same seed therefore gives the same inputs, and two seeds
give rounds of comparable cost.

Building the round is part of set-up: it constructs every input through the
package's own constructors (and, for ``cli``, writes the structure files the
subprocesses parse).
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import structrank as sr
from structrank import continuation, numrank, polysys, structural

from checks import (
    CheckFailed,
    check_branch,
    check_residual,
    check_witness,
    expect,
    oracle_knockout_ranks,
    oracle_pattern_rank,
    poly_values,
)
from metrics import WORKLOADS

_FRAGILE, _ROBUST = "fragile", "robust"


@dataclass
class Op:
    """One analysis call of a round.

    ``call`` performs the analysis and returns its output; ``check`` raises
    CheckFailed when the output is wrong; ``summary`` maps the output to the
    fields compared with the recorded seed-commit reference (numeric ops).
    ``argv`` holds the ``structrank`` arguments of a CLI op, and
    ``chain_length`` the augmenting-path length of a chain pattern.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    summary: Callable[[object], dict] | None = None
    argv: list[str] | None = None
    chain_length: int | None = None


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def _rng(seed, workload):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _size(rng, base, lo, hi, scale=1.0, spread=0.1):
    """Template size ``base`` jittered by up to +-spread (log scale), clipped."""
    n = base * float(np.exp(rng.uniform(-spread, spread)))
    return int(np.clip(round(n * scale), max(4, round(lo * scale)), max(4, round(hi * scale))))


def _sub_seed(rng):
    return int(rng.integers(2**31))


class OracleTable:
    """The expected values that a round's checks compare outputs with.

    Oracles are registered while a round is built and computed in another
    process (``worker.py --oracles``), so that scipy and the oracles' own
    memory never enter the process being measured; that process only loads
    their values. ``build`` resets the table.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.fns = []
        self.values = None

    def add(self, fn):
        index = len(self.fns)
        self.fns.append(fn)

        def get():
            if self.values is None:
                raise RuntimeError("oracle values were not loaded")
            return self.values[index]

        return get

    def compute(self):
        self.values = [fn() for fn in self.fns]
        return self.values


ORACLES = OracleTable()


# --- structure generators ------------------------------------------------------


def _random_rows(rng, m, n, hidden=None, per_row=None):
    """m rows of 2-4 (or ``per_row``) columns; ``hidden[i]`` is forced into row i."""
    rows = []
    counts = rng.integers(2, 5, size=m) if per_row is None else np.full(m, per_row)
    draws = rng.integers(0, n, size=(m, 4))
    for i in range(m):
        row = set(draws[i, : counts[i]].tolist())
        if hidden is not None:
            row.add(int(hidden[i]))
        while len(row) < min(2, n):
            row.add(int(rng.integers(n)))
        rows.append(row)
    return rows


def _sparse_pattern(rng, n, shape, per_row=None):
    """Square (robust/fragile), wide (robust) or tall (fragile) sparse pattern."""
    if shape == "tall":
        rows = _random_rows(rng, round(1.25 * n), n, per_row=per_row)
        return sr.StructurePattern.from_rows(rows, n)
    m = round(0.8 * n) if shape == "wide" else n
    hidden = None if shape == "square-fragile" else rng.permutation(n)[:m]
    rows = _random_rows(rng, m, n, hidden, per_row)
    if shape == "square-fragile":
        # Three rows confined to two columns: rank < M whatever the rest.
        a, b = (int(c) for c in rng.choice(n, 2, replace=False))
        for i in rng.choice(m, 3, replace=False):
            rows[int(i)] = {a, b}
    return sr.StructurePattern.from_rows(rows, n)


def _chain_pattern(rng, length):
    """Rows {i, i+1} and a last row {0}: one augmenting path of ``length``.

    A disjoint random robust block (a quarter of the chain's size) follows,
    so the seed varies the pattern beyond the chain length.
    """
    rows = [{i, i + 1} for i in range(length - 1)] + [{0}]
    extra = max(2, length // 4)
    block = _random_rows(rng, extra, extra, rng.permutation(extra))
    rows += [{length + v for v in row} for row in block]
    return sr.StructurePattern.from_rows(rows, length + extra)


def _web(rng, n):
    """Food-web-like square pattern: ~1.5n random bidirectional links."""
    edges = set()
    for a, b in rng.integers(0, n, size=(round(1.5 * n), 2)).tolist():
        if a != b:
            edges.update({(a, b), (b, a)})
    return sr.pattern_from_graph(sr.SystemGraph(n, frozenset(edges)))


def _derived_structure(rng, n):
    """Square generalized structure with two shared derived variables."""
    specs = []
    for name in ("z1", "z2"):
        support = rng.choice(n, 2, replace=False)
        coeffs = rng.uniform(0.5, 2.0, 2) * rng.choice((-1.0, 1.0), 2)
        specs.append(sr.DerivedVariableSpec(
            name, tuple((int(i), float(c)) for i, c in zip(support, coeffs))))
    deps = []
    for e in range(n):
        dep = set(rng.choice(n, int(rng.integers(1, 3)), replace=False).tolist())
        if e < 6:
            dep.add("z1" if e % 2 == 0 else "z2")
        deps.append(frozenset(dep))
    return sr.GeneralizedStructure(n, tuple(deps), tuple(specs))


def _derived_oracle_rank(structure, seed):
    """Generic rank from random matrices with the derived-variable constraint."""
    rng = np.random.default_rng(seed)
    by_name = structure.derived_by_name
    best = 0
    for _ in range(3):
        J = np.zeros((structure.num_equations, structure.num_variables))
        for e, dep in enumerate(structure.dependencies):
            for item in dep:
                if isinstance(item, str):
                    # d f_e / d z times the exact weights of z.
                    w = rng.standard_normal()
                    for i, c in by_name[item].coefficients:
                        J[e, i] += w * c
                else:
                    J[e, item] += rng.standard_normal()
        best = max(best, int(np.linalg.matrix_rank(J)))
    return best


def _low_rank_basis(rng, m, n, count, r):
    """``count`` m x n matrices spanning a space whose generic rank is r."""
    u = rng.standard_normal((m, r))
    v = rng.standard_normal((n, r))
    return [u @ rng.standard_normal((r, r)) @ v.T for _ in range(count)]


# --- output summaries compared with the recorded reference ------------------------


def cert_summary(d):
    return {
        "exact": {k: d.get(k) for k in ("trials", "estimated_rank", "agreement_count",
                                        "histogram", "target_rank", "passed")},
        "floats": [],
    }


def branch_summary(d):
    pts = d["points"]
    return {
        "exact": {
            "points": len(pts),
            "rank": d["rank"],
            "closed": d["closed"],
            "events": [[ev["kind"], ev["direction"]] for ev in d["events"]],
            "corrector_iterations": sum(p["corrector_iterations"] for p in pts),
        },
        "floats": pts[0]["x"] + pts[-1]["x"],
    }


def manifold_summary(d):
    return {
        "exact": {k: d[k] for k in ("rank", "dimension", "samples_accepted", "histogram",
                                    "rank_drop_found", "drop_rank", "corrector_failures")},
        "floats": [d["min_significant_sigma"]],
    }


def perturbation_summary(d):
    return {
        "exact": {"solved": d["solved"], "starts_tried": d["starts_tried"]},
        "floats": [d["residual_floor"]] + (d["solution"] or []),
    }


def csv_trace_summary(text):
    lines = text.strip().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    return {
        "exact": {"points": len(rows), "ranks": sorted({int(r[-1]) for r in rows})},
        "floats": rows[0][:-2] + rows[-1][:-2],
    }


def _via_json(summary):
    return lambda out: summary(out.to_json_dict())


# --- shared checks ------------------------------------------------------------------


def _check_report(report, pattern, rank):
    expect(report.structural_rank == rank,
           f"rank {report.structural_rank}, oracle says {rank}")
    expect(report.num_equations == pattern.num_equations, "wrong M")
    expect(report.num_variables == pattern.num_variables, "wrong N")
    cls = _ROBUST if rank == pattern.num_equations else _FRAGILE
    expect(report.classification == cls, f"class {report.classification}, expected {cls}")
    expect(report.solution_dimension == pattern.num_variables - rank, "wrong dimension")
    check_witness(report.matching, pattern.allowed, rank)


def _check_certification(d, target=None, expected=None):
    hist = {int(k): v for k, v in d["histogram"].items()}
    expect(sum(hist.values()) == d["trials"], "histogram does not sum to trials")
    expect(d["estimated_rank"] == max(hist), "estimated rank is not the histogram maximum")
    if expected is not None:
        expect(d["estimated_rank"] == expected,
               f"estimated rank {d['estimated_rank']}, oracle says {expected}")
    if target is not None:
        expect(d["target_rank"] == target, f"target {d['target_rank']}, oracle says {target}")
        expect(d["estimated_rank"] <= target, "numeric rank above the structural rank")
        agree = hist.get(target, 0)
        expect(d["agreement_count"] == agree, "agreement count disagrees with histogram")
        expect(d["passed"] == (agree / d["trials"] >= d["pass_threshold"]), "wrong pass flag")


def _check_manifold(report, system, expected_rank=None):
    d = report.to_json_dict()
    if expected_rank is not None:
        expect(report.rank == expected_rank, f"rank {report.rank}, expected {expected_rank}")
    expect(report.dimension == system.num_variables - report.rank, "wrong dimension")
    expect(sum(report.rank_histogram.values()) == report.samples_accepted,
           "histogram does not sum to accepted samples")
    expect(report.samples_accepted <= report.samples_requested, "more samples than asked")
    if report.rank_drop_found:
        expect(report.drop_rank < report.rank, "rank drop without a lower rank")
        check_residual(system, report.drop_point, system.evaluate(report.base_point),
                       continuation.DEFAULT_RESIDUAL_TOL, "drop point")
    return d


def _check_perturbation(probe, system, p, delta, restarts=20):
    expect(1 <= probe.starts_tried <= restarts + 1, f"{probe.starts_tried} starts tried")
    target = poly_values(system, p) + np.asarray(delta)
    if probe.solved:
        check_residual(system, probe.solution, target, continuation.DEFAULT_RESIDUAL_TOL,
                       "perturbed solution")
    else:
        expect(probe.starts_tried == restarts + 1, "gave up before trying every start")
        expect(probe.residual_floor > continuation.DEFAULT_RESIDUAL_TOL,
               "unsolved with a residual floor below tolerance")


# --- matching -------------------------------------------------------------------------


def _matching_op(fn, label, pattern):
    rank = ORACLES.add(lambda: oracle_pattern_rank(pattern))

    def call():
        return getattr(structural, fn)(pattern)

    def check(out):
        if fn == "structural_rank":
            expect(out == rank(), f"rank {out}, oracle says {rank()}")
        else:
            _check_report(out, pattern, rank())

    return Op(label, call, check)


def _knockout_op(label, pattern):
    n = pattern.num_equations
    ranks = ORACLES.add(lambda: oracle_knockout_ranks(pattern))
    base_fragile = ORACLES.add(lambda: oracle_pattern_rank(pattern) < n)

    def check(entries):
        expect(len(entries) == n, f"{len(entries)} knockout entries for {n} nodes")
        for k, entry in enumerate(entries):
            r = entry.report
            expect(entry.node == k, "entries out of node order")
            expect(r.structural_rank == ranks()[k],
                   f"knockout {k}: rank {r.structural_rank}, oracle says {ranks()[k]}")
            robust = ranks()[k] == n - 1
            expect(r.classification == (_ROBUST if robust else _FRAGILE), "wrong class")
            expect(entry.flips_to_robust == (base_fragile() and robust), "wrong flip flag")
            # Witness pairs map back to original indices around the deleted node.
            back = [(e + (e >= k), v + (v >= k)) for e, v in r.matching]
            check_witness(back, pattern.allowed, ranks()[k])
            expect(all(e != k and v != k for e, v in back), "witness uses the deleted node")

    return Op(label, lambda: structural.knockout_sweep(pattern), check)


def _build_matching(seed, scale):
    rng = _rng(seed, "matching")
    ops = []
    shapes = ("square-robust", "square-fragile", "wide", "tall")
    # 43 sizes, 7% apart: with the 2 chains that succeed and the 5 sweeps a
    # round has 50 successful calls, so the median falls among many similar
    # calls and the 95th percentile among the three sweeps of ~200 nodes.
    for k in range(43):
        n = _size(rng, 500 * 20 ** (k / 42), 500, 10_000, scale, spread=0.03)
        shape = shapes[k % 4]
        fn = "classify" if k % 2 == 0 else "structural_rank"
        ops.append(_matching_op(fn, f"{fn} {shape} N={n}",
                                _sparse_pattern(rng, n, shape)))
    # Augmenting paths of 200 to 5000; those beyond the interpreter's
    # recursion limit fail today and count as failed operations.
    for k, base in enumerate((250, 600, 1600, 4000)):
        length = _size(rng, base, 200, 5000, scale, spread=0.1)
        fn = "classify" if k % 2 == 0 else "structural_rank"
        op = _matching_op(fn, f"{fn} chain path={length}", _chain_pattern(rng, length))
        op.chain_length = length
        ops.append(op)
    for base in (100, 200, 200, 200, 400):
        n = _size(rng, base, 100, 400, scale, spread=0.03)
        ops.append(_knockout_op(f"knockout_sweep web N={n}", _web(rng, n)))
    return ops


# --- certify ----------------------------------------------------------------------------


def _certify_op(label, pattern, trials, degree, seed):
    target = ORACLES.add(lambda: oracle_pattern_rank(pattern))

    def call():
        return numrank.certify_acr(pattern, trials=trials, degree=degree, seed=seed)

    def check(out):
        _check_certification(out.to_json_dict(), target=target())

    return Op(label, call, check, _via_json(cert_summary))


def _build_certify(seed, scale):
    rng = _rng(seed, "certify")
    ops = []
    trials_of = lambda base: _size(rng, base, 50, 500, scale, spread=0.05)  # noqa: E731
    # Bundled datasets keep fixed trial counts; sole26's 200 trials make
    # 2*M = 52 row() calls and one SVD each.
    for name, trials, degree in (("sole26", 200, 2), ("jakstat", 300, 3),
                                 ("trophic5", 500, 2), ("robust4", 100, 3)):
        trials = max(2, round(trials * scale))
        ops.append(_certify_op(f"certify_acr {name} trials={trials} degree={degree}",
                               sr.get_dataset(name).structure, trials, degree, _sub_seed(rng)))
    for k, (base_n, base_trials, degree) in enumerate(((20, 300, 2), (25, 200, 3),
                                                       (30, 150, 3), (45, 100, 2),
                                                       (60, 60, 3))):
        n = _size(rng, base_n, 20, 60, scale, spread=0.05)
        trials = trials_of(base_trials)
        shape = "square-robust" if k % 2 == 0 else "square-fragile"
        # Three entries per row (plus the hidden matching): the cost of a
        # trial grows with the monomials per row, so fixing the row length
        # keeps rounds of different seeds comparable.
        ops.append(_certify_op(f"certify_acr {shape} N={n} trials={trials} degree={degree}",
                               _sparse_pattern(rng, n, shape, per_row=3), trials, degree,
                               _sub_seed(rng)))

    generic = [(sr.get_dataset("example5").structure, "example5", 200, 2, lambda: 3)]
    for base_n, base_trials, degree in ((10, 150, 3), (16, 100, 2)):
        derived = _derived_structure(rng, _size(rng, base_n, 8, 16, scale, spread=0.05))
        oracle = ORACLES.add(lambda d=derived, s=_sub_seed(rng): _derived_oracle_rank(d, s))
        generic.append((derived, f"derived N={derived.num_variables}", base_trials, degree,
                        oracle))
    for structure, label, base_trials, degree, expected in generic:
        trials, s = trials_of(base_trials), _sub_seed(rng)
        ops.append(Op(
            f"generic_rank_randomized {label} trials={trials} degree={degree}",
            lambda st=structure, t=trials, d=degree, s=s: numrank.generic_rank_randomized(
                st, trials=t, degree=d, seed=s),
            lambda out, e=expected: _check_certification(out.to_json_dict(), expected=e()),
            _via_json(cert_summary),
        ))

    for m, n, count, r, base_trials in ((8, 8, 4, 5, 400), (40, 30, 6, 20, 200),
                                        (120, 100, 3, 60, 60)):
        m, n = (max(2, round(v * scale)) for v in (m, n))
        r = max(1, min(round(r * scale), m, n))
        basis = _low_rank_basis(rng, m, n, count, r)
        trials, s = trials_of(base_trials), _sub_seed(rng)
        ops.append(Op(
            f"matrix_space_rank {m}x{n} basis={count} trials={trials}",
            lambda b=basis, t=trials, s=s: numrank.matrix_space_rank(b, trials=t, seed=s),
            lambda out, r=r: _check_certification(out.to_json_dict(), expected=r),
            _via_json(cert_summary),
        ))
    return ops


# --- continuation -------------------------------------------------------------------------


def _trace_op(label, system, p, max_points):
    def check(branch):
        check_branch(system, branch, max_points)
        expect(branch.rank == system.num_variables - 1, "branch is not a curve")

    return Op(label,
              lambda: continuation.trace_curve(system, p, step=0.05, max_points=max_points),
              check, _via_json(branch_summary))


def _generic_manifold_check(system, rank):
    def check(out):
        _check_manifold(out, system, rank)
        expect(set(out.rank_histogram) <= {rank} and not out.rank_drop_found,
               "rank changed on a generic member")

    return check


def _build_continuation(seed, scale):
    rng = _rng(seed, "continuation")
    ops = []
    eqcep1 = sr.get_dataset("eqcep1").system
    max_points = max(5, round(400 * scale))
    short = max(5, round(60 * scale))
    # The 400-point trace from (1,1,1) is repeated four times: a round has
    # 35 calls, so its 90th percentile falls in the middle of these four
    # identical calls, whose cost does not depend on the seed.
    for k in range(4):
        ops.append(_trace_op(f"trace_curve eqcep1 max_points={max_points} #{k + 1}",
                             eqcep1, np.ones(3), max_points))
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, 3)
        ops.append(_trace_op(f"trace_curve eqcep1 from={p.tolist()}", eqcep1, p, short))
    for name in ("cep3", "trophic5"):
        structure = sr.get_dataset(name).structure
        for degree in (2, 3):
            for _ in range(4):
                s = _sub_seed(rng)
                system = polysys.sample_system(structure, degree=degree, seed=s)
                p = rng.uniform(-1.0, 1.0, system.num_variables)
                ops.append(_trace_op(f"trace_curve {name} degree={degree} seed={s}",
                                     system, p, short))

    for name, samples, rank in (("robotarm", 30, 3), ("sole26", 10, 20)):
        s = _sub_seed(rng)
        system = polysys.sample_system(sr.get_dataset(name).structure, degree=2, seed=s)
        p = rng.uniform(-1.0, 1.0, system.num_variables)
        samples = max(2, round(samples * scale))
        ops.append(Op(
            f"manifold_probe {name} seed={s} samples={samples}",
            lambda sy=system, p=p, n=samples, s=s: continuation.manifold_probe(
                sy, p, samples=n, seed=s),
            _generic_manifold_check(system, rank),
            _via_json(manifold_summary),
        ))
    xy = sr.get_dataset("xy").system
    a = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
    p = np.array([a, 0.0]) if rng.integers(2) else np.array([0.0, a])
    s, samples = _sub_seed(rng), max(2, round(20 * scale))

    def check_xy(out):
        # The level set through the axes meets the origin, the only point
        # where the rank drops; the hunt is a search and may miss it.
        _check_manifold(out, xy, 1)
        if out.rank_drop_found:
            expect(out.drop_rank == 0, f"drop to rank {out.drop_rank}, expected 0")
            expect(float(np.linalg.norm(out.drop_point)) < 1e-6, "drop point is not the origin")

    ops.append(Op(f"manifold_probe xy from={p.tolist()} samples={samples}",
                  lambda: continuation.manifold_probe(xy, p, samples=samples, seed=s),
                  check_xy, _via_json(manifold_summary)))

    one = np.ones(3)
    delta = np.array([0.0, float(rng.uniform(0.05, 0.2)), 0.0])
    s = _sub_seed(rng)

    def check_fragile(out):
        _check_perturbation(out, eqcep1, one, delta)
        expect(not out.solved, "fragile system solved a perturbation it cannot solve")

    ops.append(Op(f"perturbation_probe eqcep1 delta={delta.tolist()}",
                  lambda: continuation.perturbation_probe(eqcep1, one, delta, seed=s),
                  check_fragile, _via_json(perturbation_summary)))
    s = _sub_seed(rng)
    robust = polysys.sample_system(sr.get_dataset("robust4").structure, degree=2, seed=s)
    q = rng.uniform(-1.0, 1.0, 4)
    rdelta = rng.uniform(-0.01, 0.01, 4)
    ops.append(Op(f"perturbation_probe robust4 seed={s}",
                  lambda: continuation.perturbation_probe(robust, q, rdelta, seed=s),
                  lambda out: _check_perturbation(out, robust, q, rdelta),
                  _via_json(perturbation_summary)))
    return ops


# --- cli -------------------------------------------------------------------------------------


def cli_env(root):
    env = dict(os.environ)
    env.pop("STRUCTRANK_OUTPUT", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_subprocess(root, argv):
    """``python -m structrank.cli ARGV`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "structrank.cli", *argv],
        capture_output=True, text=True, env=cli_env(root), cwd=root, timeout=150,
    )
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def cli_inprocess(argv):
    """``structrank.cli.main(ARGV)`` in this process, output captured."""
    from structrank import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _json_out(result):
    expect(result.code == 0, f"exit code {result.code}: {result.stderr.strip()[:200]}")
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _text_field(result, pattern):
    expect(result.code == 0, f"exit code {result.code}: {result.stderr.strip()[:200]}")
    match = re.search(pattern, result.stdout, re.MULTILINE)
    expect(match is not None, f"output lacks {pattern!r}")
    return match.group(1)


def _write_edges(path, pattern):
    # Entry (e, v) is the edge v -> e ("variable v appears in equation e").
    lines = [f"nodes: {pattern.num_equations}"]
    lines += [f"{v + 1} -> {e + 1}" for e, v in sorted(pattern.allowed)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_pattern(path, pattern):
    grid = [["0"] * pattern.num_variables for _ in range(pattern.num_equations)]
    for e, v in pattern.allowed:
        grid[e][v] = "*"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join("".join(row) for row in grid) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _build_cli(seed, scale, root, workdir):
    rng = _rng(seed, "cli")
    os.makedirs(workdir, exist_ok=True)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    to_json = sr.structure_to_json_dict

    big_n = _size(rng, 3300, 2000, 5000, scale)  # ~3 entries per row: ~10^4 entries
    big = _sparse_pattern(rng, big_n, "square-robust")
    web = _web(rng, _size(rng, 60, 40, 80, scale))
    small = _sparse_pattern(rng, _size(rng, 12, 8, 16, scale), "tall")
    cert_pattern = _sparse_pattern(rng, _size(rng, 30, 20, 40, scale), "square-fragile")
    derived = _derived_structure(rng, _size(rng, 10, 8, 12, scale))
    basis_rank = 8
    basis = _low_rank_basis(rng, 16, 12, 4, basis_rank)
    _write_json(path("big.json"), to_json(big))
    _write_edges(path("web.edges"), web)
    _write_pattern(path("small.pattern"), small)
    _write_json(path("cert.json"), to_json(cert_pattern))
    _write_json(path("derived.json"), to_json(derived))
    _write_json(path("basis.json"), {"basis": [b.tolist() for b in basis]})

    big_rank = ORACLES.add(lambda: oracle_pattern_rank(big))
    web_rank = ORACLES.add(lambda: oracle_pattern_rank(web))
    web_ko = ORACLES.add(lambda: oracle_knockout_ranks(web))
    small_rank = ORACLES.add(lambda: oracle_pattern_rank(small))
    cert_rank = ORACLES.add(lambda: oracle_pattern_rank(cert_pattern))
    derived_rank = ORACLES.add(lambda: _derived_oracle_rank(derived, seed))
    trials = lambda base: str(_size(rng, base, 20, 400, scale, spread=0.15))  # noqa: E731
    eqcep1 = sr.get_dataset("eqcep1").system
    xy_a = float(rng.uniform(0.5, 2.0))
    delta = float(rng.uniform(0.05, 0.2))
    trace_points = max(5, round(150 * scale))
    seeds = [str(_sub_seed(rng)) for _ in range(4)]

    def check_datasets(res):
        d = _json_out(res)
        expect(sorted(d) == sr.dataset_names(), "dataset list differs")
        for name, info in d.items():
            st = sr.get_dataset(name).structure
            expect((info["M"], info["N"]) == (st.num_equations, st.num_variables), name)

    def check_rank(res):
        d = _json_out(res)
        expect(d["rank"] == big_rank(), f"rank {d['rank']}, oracle says {big_rank()}")
        check_witness(d["matching"], big.allowed, big_rank(), one_based=True)

    def check_classify_text(res):
        rank = int(_text_field(res, r"^maxrank \(generic rank\): (\d+)$"))
        expect(rank == web_rank(), f"rank {rank}, oracle says {web_rank()}")
        cls = _text_field(res, r"^classification: (\w+)")
        expect(cls == (_ROBUST if rank == web.num_equations else _FRAGILE), "wrong class")

    def check_classify_json(res):
        d = _json_out(res)
        expect(d["rank"] == small_rank(), f"rank {d['rank']}, oracle says {small_rank()}")
        expect(d["class"] == _FRAGILE and d["dim"] == small.num_variables - small_rank(),
               "wrong class or dimension")
        check_witness(d["matching"], small.allowed, small_rank(), one_based=True)

    def check_knockout(res):
        d = _json_out(res)
        ranks = [k["rank"] for k in d["knockouts"]]
        expect(ranks == web_ko(), "knockout ranks differ from oracle")
        n = web.num_equations
        flips = [k + 1 for k, r in enumerate(web_ko()) if web_rank() < n and r == n - 1]
        expect(d["fragile_to_robust"] == flips, "fragile-to-robust list differs")

    def check_certify(res):
        _check_certification(_json_out(res), target=cert_rank())

    def check_generic(res):
        _check_certification(_json_out(res), expected=derived_rank())

    def check_trace_csv(res):
        expect(res.code == 0, f"exit code {res.code}: {res.stderr.strip()[:200]}")
        lines = res.stdout.strip().splitlines()
        expect(lines[0] == "x1,x2,x3,residual,rank", "unexpected CSV header")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        expect(len(rows) == trace_points, f"{len(rows)} rows, expected {trace_points}")
        target = poly_values(eqcep1, np.ones(3))
        for row in rows:
            expect(row[4] == 2, "rank column is not 2")
            check_residual(eqcep1, row[:3], target, continuation.DEFAULT_RESIDUAL_TOL, "csv row")

    def check_probe_xy(res):
        d = _json_out(res)
        expect(d["rank"] == 1 and d["dimension"] == 1, "wrong rank or dimension at the base")
        if d["rank_drop_found"]:
            expect(d["drop_rank"] == 0 and float(np.linalg.norm(d["drop_point"])) < 1e-6,
                   "rank drop away from the origin")

    def check_probe_delta(res):
        d = _json_out(res)
        expect(not d["solved"] and d["starts_tried"] == 21, "fragile perturbation solved")

    def check_matrix_space(res):
        _check_certification(_json_out(res), expected=basis_rank)

    def check_dot(res):
        expect(res.code == 0 and res.stdout.startswith("digraph system {"), "not a DOT graph")
        arrows = sum(1 for line in res.stdout.splitlines() if "->" in line)
        expect(arrows == len(web.allowed), f"{arrows} DOT edges, pattern has {len(web.allowed)}")

    def check_show_text(res):
        expect(res.code == 0, f"exit code {res.code}")
        lines = res.stdout.strip().splitlines()
        expect(len(lines) == small.num_equations, "one line per equation expected")
        for e, row in enumerate(small.rows()):
            expect(lines[e] == f"f{e + 1}(" + ", ".join(f"x{v + 1}" for v in row) + ")",
                   f"line {e + 1} differs")

    def check_show_json(res):
        expect(sr.structure_from_json_dict(_json_out(res)) == cert_pattern,
               "JSON structure does not round-trip")

    def check_rank_text(res):
        rank = int(_text_field(res, r"^structural rank: (\d+) "))
        expect(rank == small_rank(), f"rank {rank}, oracle says {small_rank()}")

    js = lambda res: _json_out(res)  # noqa: E731
    specs = [
        (["datasets", "-o", "json"], check_datasets, None),
        (["rank", path("big.json"), "-o", "json"], check_rank, None),
        (["classify", path("web.edges")], check_classify_text, None),
        (["classify", path("small.pattern"), "-o", "json"], check_classify_json, None),
        (["knockout", path("web.edges"), "-o", "json"], check_knockout, None),
        (["certify", path("cert.json"), "--trials", trials(150), "--seed", seeds[0],
          "-o", "json"], check_certify, lambda res: cert_summary(js(res))),
        (["generic-rank", path("derived.json"), "--trials", trials(100),
          "--seed", seeds[1], "-o", "json"],
         check_generic, lambda res: cert_summary(js(res))),
        (["trace", "--dataset", "eqcep1", "--from", "1,1,1", "--max-points",
          str(trace_points), "-o", "csv"],
         check_trace_csv, lambda res: csv_trace_summary(res.stdout)),
        (["probe", "--dataset", "xy", "--from", f"{xy_a!r},0", "--samples", "20",
          "--seed", seeds[2], "-o", "json"],
         check_probe_xy, lambda res: manifold_summary(js(res))),
        (["probe", "--dataset", "eqcep1", "--from", "1,1,1", "--delta",
          f"0,{delta!r},0", "-o", "json"],
         check_probe_delta, lambda res: perturbation_summary(js(res))),
        (["matrix-space", path("basis.json"), "--trials", trials(100),
          "--seed", seeds[3], "-o", "json"],
         check_matrix_space, lambda res: cert_summary(js(res))),
        (["show", path("web.edges"), "-o", "dot"], check_dot, None),
        (["show", path("small.pattern")], check_show_text, None),
        (["show", path("cert.json"), "-o", "json"], check_show_json, None),
        (["rank", path("small.pattern")], check_rank_text, None),
    ]
    ops = []
    for argv, check, summary in specs:
        label = "cli " + " ".join(os.path.basename(a) if a.startswith(workdir) else a
                                  for a in argv)
        ops.append(Op(label, lambda a=argv: cli_subprocess(root, a), check, summary, argv))
    return ops


def build(workload, seed, root, workdir, scale=1.0):
    """One round of ``workload`` for ``seed``; ``scale`` < 1 shrinks every size."""
    ORACLES.reset()
    if workload == "matching":
        return _build_matching(seed, scale)
    if workload == "certify":
        return _build_certify(seed, scale)
    if workload == "continuation":
        return _build_continuation(seed, scale)
    if workload == "cli":
        return _build_cli(seed, scale, root, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
