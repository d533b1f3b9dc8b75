"""Worst-case distortion audits over the consistent-metric closure.

Distortion of an outcome is the supremum, over all metrics consistent
with the ordinal data and the facility geometry, of its cost divided by
the best alternative's cost.  With positive costs that supremum equals
the maximum over alternatives of per-pair ratio suprema.  Each pair is a
linear-fractional program over the consistency polytope; introducing a
joint scale variable (distances and facility geometry scaled together)
turns it into one LP, and the substitution is exact because distortion
is invariant under that joint scaling.

Consistency constrains each agent's row independently, and agents with
the same ranking are interchangeable.  Each LP therefore groups agents
into classes that share a ranking and their coefficients in that LP, and
carries one constraint block per class weighted by the class's share of
the agents.  Averaging a feasible point over a class keeps it feasible
and keeps the ratio, so the value is exact while the LP's size follows
the number of classes, at most min(n, m!).  The same independence makes
vanishing denominators combinatorial: an agent can sit exactly on a
facility iff that facility's distance row respects the agent's ranking.

Percentile objectives are piecewise linear: which agents realize the two
order statistics is a subset choice, but per-agent independence collapses
the search to one candidate configuration per ranking class (see
_percentile_candidates); one scaled LP each keeps the audit exact for up
to eight agents, with sampled lower bounds beyond that.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import AssignmentProblem, DistanceCost, iter_valid_assignments, total_cost
from .core import (FacilityDistances, FullMetric, PreferenceProfile,
                   check_consistency, consistency_constraints, pair_rows,
                   ranking_block, stack_blocks)
from .errors import (InternalInvariantError, MetricError, SearchSpaceError,
                     SolverError, UnboundedObjectiveError)
from .lp import solve_lp
from .social_choice import evaluate_percentile_cost, percentile_rank

INF = float("inf")
SCALE_TOL = 1e-7
EXACT_PERCENTILE_MAX_N = 8
ASSIGNMENT_AUDIT_CAP = 10 ** 4
_LOG = logging.getLogger("ordmech")


@dataclass(frozen=True)
class AuditReport:
    """Worst-case ratio with a consistent witness metric attaining it."""

    objective: str
    target: object                      # facility index or assignment tuple
    value: float
    exact: bool
    per_alternative: tuple[tuple[object, float], ...]
    witness: FullMetric | None
    witness_ratio: float | None
    alpha: float | None = None
    flags: tuple[str, ...] = ()

    def alternative_value(self, key) -> float:
        for alt, val in self.per_alternative:
            if alt == key:
                return val
        raise KeyError(key)


def _group(keys) -> tuple[list, np.ndarray]:
    """Distinct keys in order of first appearance, and the index of each
    item's key among them."""
    index: dict = {}
    member = np.array([index.setdefault(key, len(index)) for key in keys])
    return list(index), member


@dataclass(frozen=True)
class AgentClasses:
    """Agents grouped by ranking and by their coefficients in one LP."""

    keys: np.ndarray    # per class: ranking id, then the extra keys
    weight: np.ndarray  # per class: its share of the agents
    member: np.ndarray  # per agent: its class
    rows: np.ndarray    # [A | -b]: one consistency block per class, then the scale


class ConsistencyPolytope:
    """The consistent-metric closure as one constraint block per distinct
    ranking, plus the combinatorial facts the audits reuse."""

    def __init__(self, profile: PreferenceProfile, fd: FacilityDistances):
        if profile.m != fd.m:
            raise MetricError("profile and facility distances disagree on m")
        self.profile = profile
        self.fd = fd
        self.n = profile.n
        self.m = profile.m
        self.radius = max(float(fd.values.max()), 1.0)
        rankings, self.ranking_id = _group(profile.rankings)
        pairs = pair_rows(fd)
        self.blocks = [ranking_block(r, pairs, profile.top_only) for r in rankings]
        # Agent i may lie exactly at facility f iff the row l(f, .) is
        # weakly nondecreasing along its ranking.
        l = fd.values
        if profile.top_only:
            sit = [l[:, r[0]] <= l.min(axis=1) + 1e-9 for r in rankings]
        else:
            sit = [np.all(l[:, r[:-1]] <= l[:, r[1:]] + 1e-9, axis=1)
                   for r in map(list, rankings)]
        self._can_sit = np.asarray(sit)[self.ranking_id]
        self._min_dist: dict[tuple[int, int], float] = {}

    def can_sit_at(self, i: int, f: int) -> bool:
        return bool(self._can_sit[i, f])

    def classes(self, *keys) -> AgentClasses:
        """Group the agents by ranking and by the given per-agent keys."""
        uniq, member = _group(zip(self.ranking_id.tolist(), *keys))
        A, b = stack_blocks(self.blocks[key[0]] for key in uniq)
        return AgentClasses(np.array(uniq), np.bincount(member) / self.n, member,
                            np.hstack([A, -b[:, None]]))

    def min_agent_distance(self, i: int, f: int, engine: str = "highs") -> float:
        """Smallest consistent d(i, f), from the agent's ranking block."""
        key = (int(self.ranking_id[i]), f)
        if key not in self._min_dist:
            if self._can_sit[i, f]:
                self._min_dist[key] = 0.0
            else:
                A_r, b_r = self.blocks[key[0]]
                c = np.zeros(self.m)
                c[f] = 1.0
                res = solve_lp(c, A_r, b_r, engine=engine)
                if not res.optimal:
                    raise InternalInvariantError(
                        "agent slice of the consistency polytope is infeasible")
                self._min_dist[key] = max(res.fun, 0.0)
        return self._min_dist[key]

    def interior_metric(self) -> np.ndarray:
        """All agents equally far from everything: consistent with every
        profile and strictly inside the pair constraints."""
        return np.full((self.n, self.m), self.radius)

    def seated_metric(self, seats: dict[int, int]) -> np.ndarray:
        """Agents in ``seats`` placed exactly on their facility, everyone
        else at the interior radius."""
        d = self.interior_metric()
        for i, f in seats.items():
            d[i] = self.fd.values[f]
        return d


def _flag(flags: list[str], flag: str) -> None:
    """Record a fallback in the report flags and on the ``ordmech`` log."""
    flags.append(flag)
    _LOG.warning("audit fallback: %s", flag)


def _ratio(num: float, den: float) -> float:
    """num / den, where a vanishing denominator reads as an infinite ratio,
    or as 1 when the numerator vanishes too."""
    if den <= 1e-12:
        return INF if num > 1e-12 else 1.0
    return num / den


def _metric_from_values(values, fd: FacilityDistances, flags: list[str],
                        label: str) -> FullMetric:
    """Build a FullMetric from LP output, nudging it toward a strictly
    interior point when solver slack leaves it microscopically outside."""
    values = np.maximum(np.asarray(values, dtype=float), 0.0)
    try:
        return FullMetric(values, fd)
    except MetricError:
        radius = max(float(fd.values.max()), 1.0)
        interior = np.full_like(values, radius)
        lam = 1e-9
        while lam <= 1e-4:
            try:
                metric = FullMetric((1 - lam) * values + lam * interior, fd)
                _flag(flags, f"{label}_repaired")
                return metric
            except MetricError:
                lam *= 10
        raise


@dataclass
class _PairOutcome:
    value: float
    witness_values: np.ndarray | None
    flags: list[str] = field(default_factory=list)


def _solve_scaled(poly: ConsistencyPolytope, cls: AgentClasses, c, A_ub, b_ub,
                  A_eq, b_eq, interior: np.ndarray, engine: str,
                  want_witness: bool) -> _PairOutcome:
    """Maximize c.z over a scaled LP whose columns are one m-vector per
    class, the scale, then any extra columns; the witness gives each agent
    its class's vector divided by the scale.  ``interior`` is a feasible
    point with a positive scale, strictly inside the pair rows."""
    res = solve_lp(c, A_ub, b_ub, A_eq, b_eq, engine=engine, maximize=True)
    if res.status == "unbounded":
        return _PairOutcome(INF, None, ["unbounded_ratio"])
    if not res.optimal:
        # Denominators identically zero over the closure are resolved
        # combinatorially before getting here.
        raise InternalInvariantError("scaled LP infeasible on a feasible polytope")
    value = res.fun
    if not want_witness:
        return _PairOutcome(value, None)
    flags: list[str] = []
    k = len(cls.weight) * poly.m  # the scale column
    z = res.x
    if z[k] <= SCALE_TOL:
        # Among optimal solutions, prefer one at a genuine metric scale.
        eps = 1e-9 * max(1.0, abs(value))
        c_tau = np.zeros_like(c)
        c_tau[k] = 1.0
        res2 = solve_lp(c_tau, np.vstack([A_ub, -c]), np.append(b_ub, -(value - eps)),
                        A_eq, b_eq, engine=engine, maximize=True)
        if res2.optimal and res2.x[k] > SCALE_TOL:
            z = res2.x
        else:
            _flag(flags, "witness_at_scale_limit")
            lam = 1e-7
            z = (1 - lam) * z + lam * interior
    witness = (z[:k] / z[k]).reshape(-1, poly.m)[cls.member]
    return _PairOutcome(value, witness, flags)


def _ratio_pair(poly: ConsistencyPolytope, cls: AgentClasses, num_at, num_const: float,
                den_at, den_const: float, engine: str,
                want_witness: bool) -> _PairOutcome:
    """sup (sum_i d(i, num_at) + num_const) / (sum_i d(i, den_at) + den_const)
    over the polytope, with ``num_at`` and ``den_at`` giving each class's
    facility.

    Vanishing denominators must be excluded by the caller beforehand.
    Both sides are divided by n, so classes enter with their share of the
    agents, and the scaled denominator is pinned to one.  Pinning a mean
    rather than a sum keeps the scale independent of n, so dividing by it
    does not multiply the solver's feasibility slack by n.
    """
    k = len(cls.weight) * poly.m
    at = np.arange(len(cls.weight)) * poly.m
    c = np.zeros(k + 1)
    c[at + num_at] = cls.weight
    c[k] = num_const / poly.n
    eq = np.zeros(k + 1)
    eq[at + den_at] = cls.weight
    eq[k] = den_const / poly.n
    interior = np.append(np.full(k, poly.radius), 1.0)
    return _solve_scaled(poly, cls, c, cls.rows, np.zeros(cls.rows.shape[0]),
                         eq[None, :], [1.0], interior / (eq @ interior), engine,
                         want_witness)


def _denominator_zero_state(poly: ConsistencyPolytope, seats: dict[int, int],
                            den_const: float, num_at_zero: float) -> str:
    """Classify the points where the denominator vanishes:
    "never" (it cannot), "infinite" (numerator positive there), or
    "both_zero" (numerator forced to zero as well)."""
    if den_const > 1e-12:
        return "never"
    if not all(poly.can_sit_at(i, f) for i, f in seats.items()):
        return "never"
    return "infinite" if num_at_zero > 1e-12 else "both_zero"


def _finalize(poly: ConsistencyPolytope, objective: str, target, results,
              exact: bool, alpha: float | None, recompute) -> AuditReport:
    """Assemble the report: pick the maximizing alternative, materialize
    its witness and re-evaluate the ratio on it."""
    flags: list[str] = []
    best_key = None
    best = 1.0
    for key, outcome in results:
        if outcome.value > best:
            best = outcome.value
            best_key = key
    witness = None
    witness_ratio = None
    if best_key is not None:
        for key, outcome in results:
            if key == best_key:
                flags.extend(outcome.flags)
                if outcome.witness_values is not None:
                    witness = _metric_from_values(outcome.witness_values, poly.fd,
                                                  flags, "witness")
                break
    if witness is None and math.isfinite(best):
        # Distortion 1 instances: any consistent point certifies the value.
        witness = _metric_from_values(poly.interior_metric(), poly.fd, flags,
                                      "witness")
    if witness is not None:
        witness_ratio = recompute(witness)
        if not check_consistency(poly.profile, witness, tol=1e-7):
            raise InternalInvariantError("audit witness is not consistent")
    per_alt = tuple((key, outcome.value) for key, outcome in results)
    return AuditReport(objective, target, best, exact, per_alt, witness,
                       witness_ratio, alpha, tuple(flags))


def audit_sum_social_choice(winner: int, profile: PreferenceProfile,
                            fd: FacilityDistances,
                            engine: str = "highs") -> AuditReport:
    """Exact worst-case total-cost distortion of choosing ``winner``."""
    poly = ConsistencyPolytope(profile, fd)
    n, m = poly.n, poly.m
    l = fd.values
    cls = poly.classes()
    results: list[tuple[object, _PairOutcome]] = []
    for x in range(m):
        if x == winner:
            continue
        if l[winner, x] <= 1e-12:
            # Co-located alternatives have identical cost columns.
            results.append((x, _PairOutcome(1.0, None)))
            continue
        seats = {i: x for i in range(n)}
        state = _denominator_zero_state(poly, seats, 0.0, n * l[x, winner])
        if state == "infinite":
            results.append((x, _PairOutcome(INF, poly.seated_metric(seats),
                                            ["denominator_vanishes"])))
            continue
        outcome = _ratio_pair(poly, cls, winner, 0.0, x, 0.0, engine,
                              want_witness=True)
        if state == "both_zero":
            outcome.value = max(outcome.value, 1.0)
        results.append((x, outcome))

    def recompute(metric: FullMetric) -> float:
        cols = metric.distances.sum(axis=0)
        return _ratio(float(cols[winner]), float(cols.min()))

    return _finalize(poly, "sum", winner, results, True, None, recompute)


def audit_additive_assignment(x, profile: PreferenceProfile,
                              fd: FacilityDistances, problem: AssignmentProblem,
                              engine: str = "highs",
                              cap: int = ASSIGNMENT_AUDIT_CAP) -> AuditReport:
    """Exact worst-case distortion of assignment ``x`` against every valid
    alternative, for additive distance cost and constant facility costs."""
    if problem.cost_spec.distance_cost is not DistanceCost.SUM:
        raise SolverError("assignment audits need the additive distance cost")
    x = tuple(x)
    if len(x) != profile.n:
        raise SolverError("assignment length does not match the agent count")
    if not problem.constraints.is_valid(x):
        raise SolverError("audited assignment violates the constraints")
    poly = ConsistencyPolytope(profile, fd)
    n = poly.n
    l = fd.values
    spec = problem.cost_spec
    num_const = spec.facility_cost(x)

    alternatives = []
    for alt in iter_valid_assignments(n, problem.constraints):
        alternatives.append(alt)
        if len(alternatives) > cap:
            raise SearchSpaceError(
                f"more than {cap} alternative assignments to audit")

    results: list[tuple[object, _PairOutcome]] = []
    for alt in alternatives:
        if alt == x:
            continue
        den_const = spec.facility_cost(alt)
        num_at_zero = num_const + sum(l[alt[i], x[i]] for i in range(n))
        state = _denominator_zero_state(poly, dict(enumerate(alt)), den_const,
                                        num_at_zero)
        if state == "infinite":
            results.append((alt, _PairOutcome(INF,
                                              poly.seated_metric(dict(enumerate(alt))),
                                              ["denominator_vanishes"])))
            continue
        cls = poly.classes(x, alt)
        outcome = _ratio_pair(poly, cls, cls.keys[:, 1], num_const, cls.keys[:, 2],
                              den_const, engine, want_witness=True)
        if state == "both_zero":
            outcome.value = max(outcome.value, 1.0)
        results.append((alt, outcome))

    def recompute(metric: FullMetric) -> float:
        numv = total_cost(x, metric.distances, spec)
        denv = min(total_cost(alt, metric.distances, spec) for alt in alternatives)
        return _ratio(numv, denv)

    return _finalize(poly, "assignment_sum", x, results, True, None, recompute)


def _percentile_candidates(poly: ConsistencyPolytope, x: int, k: int,
                           engine: str):
    """Candidate (S, T) subset pairs that provably contain the maximizer.

    S pins the denominator's k-th order statistic from above, T floors the
    numerator's from below.  The closure constrains each agent's row
    independently, so at a fixed scale only agents in both subsets tie the
    two statistics together; an agent in T alone can always drift far away
    and never binds.  Hence an optimal configuration overlaps in a single
    agent j, and for fixed j the best S adds the k-1 other agents whose
    smallest consistent distance to x is lowest, because each member of S
    caps the usable scale at one over that distance.  That leaves one
    candidate per agent (one per ranking class, by symmetry)."""
    n = poly.n
    mu = [poly.min_agent_distance(i, x, engine) for i in range(n)]
    seen = set()
    for j in range(n):
        key = poly.profile.rankings[j]
        if key in seen:
            continue
        seen.add(key)
        others = sorted((i for i in range(n) if i != j),
                        key=lambda i: (mu[i], i))
        yield [j] + others[:k - 1], [j] + others[k - 1:]


def _percentile_config_value(poly: ConsistencyPolytope, S, T, x: int, w: int,
                             engine: str, want_witness: bool) -> _PairOutcome:
    """One configuration LP: agents in S pin the denominator order
    statistic (scaled to one), agents in T floor the numerator's, and the
    floor is maximized.  Agents are grouped by ranking and by membership
    in S and in T."""
    S, T = set(S), set(T)
    cls = poly.classes([int(i in S) for i in range(poly.n)],
                       [int(i in T) for i in range(poly.n)])
    k = len(cls.weight) * poly.m  # then the scale, then the floor
    s_at = np.flatnonzero(cls.keys[:, 1]) * poly.m
    t_at = np.flatnonzero(cls.keys[:, 2]) * poly.m
    extra = np.zeros((s_at.size + t_at.size, k + 2))
    extra[np.arange(s_at.size), s_at + x] = 1.0
    t_rows = np.arange(s_at.size, extra.shape[0])
    extra[t_rows, k + 1] = 1.0
    extra[t_rows, t_at + w] = -1.0
    A_ub = np.vstack([np.hstack([cls.rows, np.zeros((cls.rows.shape[0], 1))]), extra])
    b_ub = np.concatenate([np.zeros(cls.rows.shape[0]), np.ones(s_at.size),
                           np.zeros(t_at.size)])
    c = np.zeros(k + 2)
    c[-1] = 1.0
    interior = np.concatenate([np.ones(k), [1.0 / poly.radius, 1.0]])
    return _solve_scaled(poly, cls, c, A_ub, b_ub, None, None, interior, engine,
                         want_witness)


def audit_percentile_social_choice(winner: int, profile: PreferenceProfile,
                                   fd: FacilityDistances, alpha: float,
                                   budget: int = 200, seed: int = 0,
                                   engine: str = "highs") -> AuditReport:
    """Worst-case percentile-cost distortion: exact for up to eight agents
    by order-statistic enumeration, otherwise the best lower bound found
    on ``budget`` sampled consistent metrics."""
    if alpha < 0.5 - 1e-12:
        raise UnboundedObjectiveError(
            f"alpha = {alpha} below one half has unbounded worst-case "
            "distortion; the audit refuses rather than report a number")
    if alpha > 1.0:
        raise UnboundedObjectiveError(f"alpha must lie in [0.5, 1], got {alpha}")
    poly = ConsistencyPolytope(profile, fd)
    n, m = poly.n, poly.m
    k = percentile_rank(n, alpha)
    l = fd.values
    if n > EXACT_PERCENTILE_MAX_N:
        return _sampled_percentile_audit(poly, winner, alpha, budget, seed, engine)

    results: list[tuple[object, _PairOutcome]] = []
    best_combo: dict[object, tuple] = {}
    for x in range(m):
        if x == winner:
            continue
        if l[winner, x] <= 1e-12:
            results.append((x, _PairOutcome(1.0, None)))
            continue
        eligible = sum(poly.can_sit_at(i, x) for i in range(n))
        if eligible >= k:
            seats = {i: x for i in range(n) if poly.can_sit_at(i, x)}
            seats = dict(list(seats.items())[:k])
            results.append((x, _PairOutcome(INF, poly.seated_metric(seats),
                                            ["denominator_vanishes"])))
            continue
        best = _PairOutcome(0.0, None)
        best_st = None
        for S, T in _percentile_candidates(poly, x, k, engine):
            outcome = _percentile_config_value(poly, S, T, x, winner, engine,
                                               want_witness=False)
            if outcome.value > best.value:
                best = outcome
                best_st = (S, T)
            if best.value == INF:
                break
        best_combo[x] = best_st
        results.append((x, best))

    # Materialize the witness only for the maximizing alternative.
    best_key, best_val = None, 1.0
    for key, outcome in results:
        if outcome.value > best_val:
            best_key, best_val = key, outcome.value
    if best_key is not None and math.isfinite(best_val) and best_combo.get(best_key):
        S, T = best_combo[best_key]
        refreshed = _percentile_config_value(poly, S, T, best_key, winner, engine,
                                             want_witness=True)
        results = [(key, refreshed if key == best_key else outcome)
                   for key, outcome in results]

    def recompute(metric: FullMetric) -> float:
        return _ratio(evaluate_percentile_cost(winner, metric, alpha),
                      min(evaluate_percentile_cost(f, metric, alpha) for f in range(m)))

    return _finalize(poly, "percentile", winner, results, True, alpha, recompute)


def _sampled_percentile_audit(poly: ConsistencyPolytope, winner: int,
                              alpha: float, budget: int, seed: int,
                              engine: str) -> AuditReport:
    best_ratio = 1.0
    best_metric = None
    lp = _sampling_lp(poly)
    for trial in range(budget):
        metric = _sample_metric(poly, lp, seed + trial, engine)
        ratio = _ratio(evaluate_percentile_cost(winner, metric, alpha),
                       min(evaluate_percentile_cost(f, metric, alpha)
                           for f in range(poly.m)))
        if ratio > best_ratio:
            best_ratio = ratio
            best_metric = metric
    flags: list[str] = []
    if best_metric is None:
        best_metric = _metric_from_values(poly.interior_metric(), poly.fd,
                                          flags, "witness")
    _flag(flags, "sampled_lower_bound")
    return AuditReport("percentile", winner, best_ratio, False, (),
                       best_metric, best_ratio, alpha, tuple(flags))


def _sampling_lp(poly: ConsistencyPolytope) -> tuple[np.ndarray, np.ndarray]:
    """The per-agent closure, boxed to keep every direction bounded."""
    cons = consistency_constraints(poly.profile, poly.fd)
    upper = 3.0 * (float(poly.fd.values.max()) + 1.0)
    return (np.vstack([cons.A, np.eye(cons.nvars)]),
            np.concatenate([cons.b, np.full(cons.nvars, upper)]))


def _sample_metric(poly: ConsistencyPolytope, lp, seed: int,
                   engine: str) -> FullMetric:
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, poly.n * poly.m)
    res = solve_lp(c, *lp, engine=engine)
    if not res.optimal:
        raise InternalInvariantError(
            "consistency polytope reported infeasible while sampling")
    flags: list[str] = []
    metric = _metric_from_values(res.x.reshape(poly.n, poly.m), poly.fd, flags,
                                 "sample")
    if not check_consistency(poly.profile, metric, tol=1e-7):
        raise InternalInvariantError("sampled metric is not consistent")
    return metric


def sample_consistent_metric(profile: PreferenceProfile, fd: FacilityDistances,
                             seed: int, engine: str = "highs") -> FullMetric:
    """A deterministic point of the consistent closure: optimize a seeded
    random direction over the polytope, boxed to keep every direction
    bounded."""
    poly = ConsistencyPolytope(profile, fd)
    return _sample_metric(poly, _sampling_lp(poly), seed, engine)
