"""Seeded workloads for the ordmech benchmark.

Each workload is a fixed list of operations (ops) built from a seed. The
inputs are plain numpy arrays and JSON instance files made here; every
call into ordmech happens inside ``Op.run``, which is the timed part.
``Op.collect`` turns the raw return value into an ``Outcome`` outside the
timed region, and ``check_outcome`` applies the correctness checks.

Workloads, and why each exists:

* ``small_audits``: thousands of tiny LPs. Random instances on a fixed
  (n, m) grid, so that the seed changes geometry and rankings but not the
  mix of sizes, are audited by the library entry points, plus one
  in-process ``repro --all``. LP per-call overhead dominates; ranking classes are
  about n, so grouping agents by ranking has nothing to collapse.
* ``large_profiles``: CLI audits of files with hundreds of agents but few
  distinct rankings, plus one library median audit at n=32. The dense
  consistency matrix grows as n^2 while the LP count stays small.
* ``mechanisms_at_scale``: CLI ``solve`` without ``--audit`` on large
  files, so no LP runs. The pure-Python loops of loading, validation,
  majority graphs, distance orders and the projected solvers dominate.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import ordmech as om
from ordmech import cli

ALPHAS = (0.5, 0.75, 1.0)
# Theorem bounds on audited distortion: alg1 sum 3; alg2 median and
# percentile (alpha >= 1/2) 3, sum 5; a beta-approximate reduction 1 + 2 beta.
ALG1_SUM_BOUND = 3.0
ALG2_PERCENTILE_BOUND = 3.0
ALG2_SUM_BOUND = 5.0
BOUND_TOL = 1e-6
WITNESS_TOL = 1e-6
REFERENCE_RTOL = 1e-7


@dataclass
class AuditOutcome:
    value: float
    exact: bool
    witness_ratio: float | None
    bound: float | None
    flags: tuple[str, ...] = ()


@dataclass
class Outcome:
    """What an op produced, in plain values, for checking and reference."""

    winner: int | None = None
    assignment: tuple[int, ...] | None = None
    audits: list[AuditOutcome] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def reference_entry(self) -> dict:
        return {"winner": self.winner,
                "assignment": None if self.assignment is None else list(self.assignment),
                "audits": [{"value": _number_out(a.value), "exact": a.exact}
                           for a in self.audits]}


@dataclass
class Op:
    op_id: str
    kind: str
    n: int
    m: int
    classes: int
    run: Callable[[], object]
    collect: Callable[[object], Outcome]


def _number_out(value: float):
    return "inf" if math.isinf(value) else float(value)


def _number_in(value) -> float:
    return math.inf if value == "inf" else float(value)


# ------------------------------------------------------------ generators

def _names(m: int) -> list[str]:
    return [f"F{j + 1}" for j in range(m)]


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def _facility_matrix(rng, m: int, planar: bool) -> np.ndarray:
    if planar:
        pts = rng.uniform(0.0, 10.0, size=(m, 2))
        return _pairwise(pts, pts)
    raw = rng.uniform(0.2, 5.0, size=(m, m))
    l = (raw + raw.T) / 2.0
    np.fill_diagonal(l, 0.0)
    for k in range(m):  # shortest-path repair enforces the triangle inequality
        l = np.minimum(l, l[:, k, None] + l[None, k, :])
    return l


def _agent_rows(rng, l: np.ndarray, n: int) -> np.ndarray:
    """Convex mixtures of two facility rows plus a nonnegative shift: each
    row satisfies both two-sided triangle bounds, so it is consistent."""
    m = l.shape[0]
    h1, h2 = rng.integers(0, m, n), rng.integers(0, m, n)
    w = rng.random(n)[:, None]
    shift = np.where(rng.random(n) < 0.7,
                     rng.uniform(0.0, max(float(l.max()), 1.0), n), 0.0)
    return w * l[h1] + (1 - w) * l[h2] + shift[:, None]


def _rankings(d: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Rank facilities by distance, ties toward the lower index."""
    return tuple(tuple(int(f) for f in row) for row in np.argsort(d, axis=1, kind="stable"))


def _random_instance(rng, n: int, m: int, planar: bool):
    l = _facility_matrix(rng, m, planar)
    return l, _rankings(_agent_rows(rng, l, n))


def _classes(rankings) -> int:
    return len(set(map(tuple, rankings)))


def _instance_json(names, rankings, preset: str, l=None, candidate=None,
                   metric=None, params=None) -> dict:
    data: dict = {"schema": "ordmech-instance-v1", "facilities": list(names)}
    if l is not None:
        data["facility_distances"] = np.asarray(l, dtype=float).tolist()
    if candidate is not None:
        data["candidate_rankings"] = {names[f]: [names[g] for g in r]
                                      for f, r in enumerate(candidate)}
    data["preferences"] = [[names[g] for g in r] for r in rankings]
    data["preset"] = preset
    if params:
        data["params"] = params
    if metric is not None:
        data["metric"] = np.asarray(metric, dtype=float).tolist()
    return data


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


# ------------------------------------------------------ library-level ops

def _audit_outcome(report, bound: float | None) -> AuditOutcome:
    return AuditOutcome(float(report.value), bool(report.exact),
                        None if report.witness is None else float(report.witness_ratio),
                        bound, tuple(report.flags))


def _sum_op(op_id, names, l, rankings) -> Op:
    m = len(names)

    def run():
        fd = om.facility_distances(names, l)
        profile = om.PreferenceProfile(m, rankings)
        winner = om.sum_winner(om.project_agents(profile, fd)).winner
        return winner, om.audit_sum_social_choice(winner, profile, fd)

    def collect(raw):
        winner, report = raw
        return Outcome(winner=winner, audits=[_audit_outcome(report, ALG1_SUM_BOUND)])

    return Op(op_id, "sum", len(rankings), m, _classes(rankings), run, collect)


def _median_op(op_id, kind, names, l, rankings, alphas) -> Op:
    m = len(names)

    def run():
        fd = om.facility_distances(names, l)
        profile = om.PreferenceProfile(m, rankings)
        winner = om.median_winner(profile, om.distance_partial_order(fd)).winner
        return winner, [om.audit_percentile_social_choice(winner, profile, fd, a)
                        for a in alphas]

    def collect(raw):
        winner, reports = raw
        return Outcome(winner=winner, audits=[_audit_outcome(r, ALG2_PERCENTILE_BOUND)
                                              for r in reports])

    return Op(op_id, kind, len(rankings), m, _classes(rankings), run, collect)


def _assignment_op(op_id, kind, names, l, rankings, preset, solver, params) -> Op:
    m = len(names)

    def run():
        fd = om.facility_distances(names, l)
        profile = om.PreferenceProfile(m, rankings)
        problem = om.build_preset(preset, len(rankings), fd.facilities, params)
        solution = om.reduce_and_solve(problem, profile, fd, om.SOLVERS[solver])
        report = om.audit_additive_assignment(solution.assignment, profile, fd, problem)
        return solution, report

    def collect(raw):
        solution, report = raw
        bound = 1.0 + 2.0 * float(solution.beta)
        return Outcome(assignment=tuple(solution.assignment),
                       audits=[_audit_outcome(report, bound)])

    return Op(op_id, kind, len(rankings), m, _classes(rankings), run, collect)


# ---------------------------------------------------------------- CLI ops

def _cli_run(argv: list[str]):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    return run


def _cli_op(op_id, names, rankings, argv, audit_bound=None, check_mechanism=None) -> Op:
    """One in-process CLI call that writes a report file (``--out``);
    ``collect`` reads the file back, validates it and extracts the outcome."""
    report_path = argv[argv.index("--out") + 1]

    def collect(raw):
        code, _ = raw
        if code != 0:
            return Outcome(problems=[f"exit code {code}"])
        report = json.loads(Path(report_path).read_text())
        out = Outcome()
        out.problems.extend(_validate_report(report))
        outcome = report.get("outcome", {})
        if "winner" in outcome:
            out.winner = names.index(outcome["winner"])
        if "assignment" in outcome:
            out.assignment = tuple(names.index(f) for f in outcome["assignment"])
        audit = report if report.get("schema") == "ordmech-audit-v1" else report.get("audit")
        if audit is not None:
            wr = audit.get("witness_ratio")
            out.audits.append(AuditOutcome(
                _number_in(audit["value"]), bool(audit["exact"]),
                None if audit.get("witness_metric") is None or wr is None else _number_in(wr),
                audit_bound, tuple(audit.get("flags", ()))))
        if check_mechanism is not None:
            out.problems.extend(check_mechanism(out))
        return out

    return Op(op_id, op_id, len(rankings), len(names), _classes(rankings),
              _cli_run(argv), collect)


def _repro_op(argv) -> Op:
    def collect(raw):
        code, text = raw
        lines = text.strip().splitlines()
        ok = code == 0 and lines and lines[-1] == "repro: all checks passed"
        return Outcome(problems=[] if ok else [f"repro exit {code}: {lines[-1:]}"])

    return Op("repro", "repro", 0, 0, 0, _cli_run(argv), collect)


@functools.cache
def _report_validator():
    import jsonschema

    schema_path = Path(om.__file__).resolve().parents[2] / "schemas" / "report.schema.json"
    return jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))


def _validate_report(report: dict) -> list[str]:
    """Problems found by the shipped JSON Schema for reports."""
    return [f"schema: {e.message[:200]}" for e in _report_validator().iter_errors(report)]


# ------------------------------------------ independent mechanism checks

def _expect_alg1(l, rankings):
    tops = [r[0] for r in rankings]
    expected = int(np.argmin(np.asarray(l)[tops].sum(axis=0)))

    def check(out: Outcome) -> list[str]:
        return [] if out.winner == expected else [f"alg1 winner {out.winner} != {expected}"]
    return check


def _prefer_matrix(rankings) -> np.ndarray:
    """prefer[a, b]: how many agents rank a before b."""
    pos = np.argsort(np.asarray(rankings), axis=1)
    return (pos[:, :, None] < pos[:, None, :]).sum(axis=0)


def _expect_copeland(rankings):
    prefer = _prefer_matrix(rankings)
    n, m = len(rankings), prefer.shape[0]
    wins = (2 * prefer > n).astype(float)
    ties = ((2 * prefer == n) & ~np.eye(m, dtype=bool)).astype(float)
    expected = int(np.argmax(wins.sum(axis=1) + 0.5 * ties.sum(axis=1)))

    def check(out: Outcome) -> list[str]:
        return [] if out.winner == expected else [f"copeland winner {out.winner} != {expected}"]
    return check


def _expect_alg2(rankings):
    """A strict Condorcet winner, when one exists, is the only dominating
    vertex of the augmented majority graph."""
    prefer = _prefer_matrix(rankings)
    n, m = len(rankings), prefer.shape[0]
    beats = (2 * prefer > n) | np.eye(m, dtype=bool)
    condorcet = [w for w in range(m) if beats[w].all()]

    def check(out: Outcome) -> list[str]:
        if condorcet and out.winner != condorcet[0]:
            return [f"alg2 winner {out.winner} is not the Condorcet winner {condorcet[0]}"]
        return []
    return check


def _expect_open_at_most(k, n):
    def check(out: Outcome) -> list[str]:
        if out.assignment is None or len(out.assignment) != n:
            return ["assignment missing or of the wrong length"]
        if len(set(out.assignment)) > k:
            return [f"{len(set(out.assignment))} facilities open, more than k={k}"]
        return []
    return check


# -------------------------------------------------------------- workloads

def _small_audits(rng, workdir: Path, tiny: bool) -> list[Op]:
    ops = []
    sum_ns, sum_ms, reps = ((2, 3), (2, 3), 1) if tiny else (range(2, 9), range(2, 6), 2)
    for rep, n, m in itertools.product(range(reps), sum_ns, sum_ms):
        l, rankings = _random_instance(rng, n, m, planar=rep % 2 == 0)
        ops.append(_sum_op(f"sum.n{n}.m{m}.r{rep}", _names(m), l, rankings))
    med_ns, med_ms = ((3,), (3,)) if tiny else (range(3, 8), (3, 4))
    for rep, n, m in itertools.product(range(reps), med_ns, med_ms):
        l, rankings = _random_instance(rng, n, m, planar=rep % 2 == 0)
        ops.append(_median_op(f"median.n{n}.m{m}.r{rep}", "median", _names(m), l, rankings,
                              ALPHAS))
    matching_sizes = (3,) if tiny else (4, 5)
    for n in matching_sizes:
        l, rankings = _random_instance(rng, n, n, planar=True)
        ops.append(_assignment_op(f"assign.matching.n{n}", "assign.matching", _names(n), l,
                                  rankings, "matching_min_cost", "matching", {}))
    # n = 4 and 5, not 6: at n=6 one op took a third of a pass, and its LP
    # count (witness re-solves) swings with the seed.
    kmedian_sizes = ((3, 3),) if tiny else ((4, 4), (5, 4))
    for n, m in kmedian_sizes:
        l, rankings = _random_instance(rng, n, m, planar=False)
        ops.append(_assignment_op(f"assign.k_median.n{n}", "assign.k_median", _names(m), l,
                                  rankings, "k_median", "k_median", {"k": 2}))
    ops.append(_repro_op(["repro", "--example", "matching_lb3"] if tiny else ["repro", "--all"]))
    return ops


def _sum5_tight(rng, q: int, eps: float = 1e-4):
    """The factor-5 tightness family, agents in a seeded order: q agents
    rank Y>W>P, q rank P>Y>W, one ranks W>P>Y; the bundled metric makes
    alg2's winner W pay (q(5 - 4 eps) + 1)/(q + 1) times the optimum."""
    names = ["Y", "W", "P"]
    l = np.array([[0.0, 2 - 2 * eps, 2.0], [2 - 2 * eps, 0.0, 2 - eps], [2.0, 2 - eps, 0.0]])
    rows = [((0, 1, 2), [0.0, 2 - 2 * eps, 2.0])] * q + \
        [((2, 0, 1), [1.0, 3 - 2 * eps, 1.0])] * q + [((1, 2, 0), [1.0, 1.0, 1.0])]
    order = rng.permutation(len(rows))
    rankings = tuple(rows[i][0] for i in order)
    metric = np.asarray([rows[i][1] for i in order])
    return names, l, rankings, metric


def _clustered(rng, n: int, m: int, hubs: int):
    """Agents scattered tightly around a few hubs in the plane, so most
    agents share their ranking with many others. Each facility sits near
    its own hub and is some agents' top choice: a facility that every
    agent ranks below the winner audits to exactly 1, which makes the LP
    re-solve for a witness and so would change the work from seed to seed."""
    centres = rng.uniform(0.0, 10.0, size=(hubs, 2))
    pts = centres[:m] + rng.uniform(-0.5, 0.5, size=(m, 2))
    agents = centres[rng.integers(0, hubs, n)] + rng.normal(0.0, 0.05, size=(n, 2))
    return _names(m), _pairwise(pts, pts), _rankings(_pairwise(agents, pts))


def _large_profiles(rng, workdir: Path, tiny: bool) -> list[Op]:
    ops = []
    report = str(workdir / "report.json")
    for i, q in enumerate((3, 6) if tiny else (100, 250)):
        names, l, rankings, metric = _sum5_tight(rng, q)
        path = _write(workdir / f"sum5_q{q}.json",
                      _instance_json(names, rankings, "social_choice_median", l=l, metric=metric))
        ops.append(_cli_op(f"sum5.q{q}.audit_sum", names, rankings,
                           ["audit", "--instance", path, "--outcome", "W",
                            "--objective", "sum", "--out", report],
                           audit_bound=ALG2_SUM_BOUND))
        if i == 0:
            ops.append(_cli_op(f"sum5.q{q}.solve_alg2_audit_sum", names, rankings,
                               ["solve", "--instance", path, "--mechanism", "alg2",
                                "--audit", "sum", "--out", report],
                               audit_bound=ALG2_SUM_BOUND,
                               check_mechanism=_expect_alg2(rankings)))
    n = 30 if tiny else 400
    names, l, rankings = _clustered(rng, n, 4, hubs=8)
    path = _write(workdir / "clustered.json",
                  _instance_json(names, rankings, "social_choice_sum", l=l))
    ops.append(_cli_op(f"clustered.n{n}.solve_alg1_audit_sum", names, rankings,
                       ["solve", "--instance", path, "--mechanism", "alg1",
                        "--audit", "sum", "--out", report],
                       audit_bound=ALG1_SUM_BOUND, check_mechanism=_expect_alg1(l, rankings)))
    n = 10 if tiny else 32
    names, l, rankings = _clustered(rng, n, 4, hubs=8)
    ops.append(_median_op(f"median.n{n}.m4", f"median.n{n}", names, l, rankings, (0.5,)))
    return ops


def _mechanisms_at_scale(rng, workdir: Path, tiny: bool) -> list[Op]:
    ops = []
    report = str(workdir / "report.json")

    def solve(op_id, path, names, rankings, mechanism, check):
        return _cli_op(op_id, names, rankings,
                       ["solve", "--instance", path, "--mechanism", mechanism,
                        "--out", report], check_mechanism=check)

    # File B: ordinal geometry only (each candidate ranks the others).
    n, m = (20, 6) if tiny else (200, 40)
    pts = rng.uniform(0.0, 10.0, size=(m, 2))
    l = _pairwise(pts, pts)
    rankings = _rankings(_pairwise(rng.uniform(0.0, 10.0, size=(n, 2)), pts))
    candidate = [[g for g in np.argsort(l[f], kind="stable") if g != f] for f in range(m)]
    names = _names(m)
    path = _write(workdir / "file_b.json",
                  _instance_json(names, rankings, "social_choice_median", candidate=candidate))
    ops.append(solve(f"B.n{n}.m{m}.copeland", path, names, rankings, "copeland",
                     _expect_copeland(rankings)))
    ops.append(solve(f"B.n{n}.m{m}.alg2", path, names, rankings, "alg2",
                     _expect_alg2(rankings)))

    # File C: many agents, few facilities.
    n, m = (200, 4) if tiny else (5000, 10)
    l, rankings = _random_instance(rng, n, m, planar=True)
    names = _names(m)
    path = _write(workdir / "file_c.json",
                  _instance_json(names, rankings, "social_choice_median", l=l))
    ops.append(solve(f"C.n{n}.m{m}.copeland", path, names, rankings, "copeland",
                     _expect_copeland(rankings)))
    ops.append(solve(f"C.n{n}.m{m}.alg2", path, names, rankings, "alg2",
                     _expect_alg2(rankings)))

    # File A: numeric geometry with a bundled metric, k-median and k-center.
    n, m, k = (30, 6, 2) if tiny else (1000, 25, 4)
    pts = rng.uniform(0.0, 10.0, size=(m, 2))
    agents = rng.uniform(0.0, 10.0, size=(n, 2))
    l, metric = _pairwise(pts, pts), _pairwise(agents, pts)
    rankings = _rankings(metric)
    names = _names(m)
    paths = {preset: _write(workdir / f"file_a_{preset}.json",
                            _instance_json(names, rankings, preset, l=l, metric=metric,
                                           params={"k": k}))
             for preset in ("k_median", "k_center")}
    ops.append(solve(f"A.n{n}.m{m}.alg1", paths["k_median"], names, rankings, "alg1",
                     _expect_alg1(l, rankings)))
    ops.append(solve(f"A.n{n}.m{m}.alg2", paths["k_median"], names, rankings, "alg2",
                     _expect_alg2(rankings)))
    ops.append(solve(f"A.n{n}.m{m}.reduce_k_median", paths["k_median"], names, rankings,
                     "reduce:k_median", _expect_open_at_most(k, n)))
    ops.append(solve(f"A.n{n}.m{m}.reduce_k_center", paths["k_center"], names, rankings,
                     "reduce:k_center", _expect_open_at_most(k, n)))
    return ops


_BUILDERS = {"small_audits": _small_audits, "large_profiles": _large_profiles,
             "mechanisms_at_scale": _mechanisms_at_scale}


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """The workload's ops for this seed; writes its instance files into
    ``workdir``. The first op doubles as the untimed warm-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](np.random.default_rng(seed), workdir, tiny)


# ------------------------------------------------------------------ checks

def check_outcome(out: Outcome, reference: dict | None) -> list[str]:
    """Intrinsic checks on every run; reference checks when given."""
    problems = list(out.problems)
    for i, a in enumerate(out.audits):
        if math.isfinite(a.value) and a.witness_ratio is not None:
            if abs(a.witness_ratio - a.value) > WITNESS_TOL * max(1.0, a.value):
                problems.append(f"audit {i}: witness ratio {a.witness_ratio} != value {a.value}"
                                f" (report flags: {', '.join(a.flags) or 'none'})")
        if a.bound is not None and not a.value <= a.bound + BOUND_TOL:
            problems.append(f"audit {i}: value {a.value} above the theorem bound {a.bound}")
    if reference is not None:
        problems.extend(_compare_reference(out, reference))
    return problems


def _compare_reference(out: Outcome, ref: dict) -> list[str]:
    problems = []
    if out.winner != ref["winner"]:
        problems.append(f"winner {out.winner} != reference {ref['winner']}")
    assignment = None if out.assignment is None else list(out.assignment)
    if assignment != ref["assignment"]:
        problems.append(f"assignment {assignment} != reference {ref['assignment']}")
    if len(out.audits) != len(ref["audits"]):
        return problems + ["audit count differs from the reference"]
    for i, (a, r) in enumerate(zip(out.audits, ref["audits"])):
        rv = _number_in(r["value"])
        tol = REFERENCE_RTOL * max(1.0, abs(rv)) if math.isfinite(rv) else 0.0
        if r["exact"]:
            # An exact value must stay exact and equal.
            if not a.exact or not (a.value == rv or abs(a.value - rv) <= tol):
                problems.append(f"audit {i}: {a.value} (exact={a.exact}) != "
                                f"reference {rv} (exact)")
        elif not (a.value >= rv - tol):
            # A sampled value is a lower bound: it may rise, never fall.
            problems.append(f"audit {i}: {a.value} below the sampled reference bound {rv}")
    return problems
