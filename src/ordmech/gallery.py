"""Named worked instances with documented worst-case behavior.

Each generator emits a complete ``InstanceFile`` (profile, facility
geometry, problem preset) with the adversarial metrics that certify its
documented ratio, and a checker that recomputes every documented number
from scratch, given the instance and the generator's parameters.  These
back the reproduction command and the acceptance tests.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import social_choice as sc
from .assignment import build_preset
from .audit import (audit_additive_assignment, audit_percentile_social_choice,
                    audit_sum_social_choice)
from .core import (FullMetric, PreferenceProfile, check_consistency,
                   facility_distances, project_agents)
from .errors import OrdmechError, SchemaError
from .fileio import InstanceFile, Scenario


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str


def _check(label: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(label, bool(passed), detail)


def _profile(m: int, *groups) -> PreferenceProfile:
    """groups: (count, ranking) pairs."""
    rankings = []
    for count, ranking in groups:
        rankings.extend([tuple(ranking)] * count)
    return PreferenceProfile(m, tuple(rankings))


# ---------------------------------------------------------------- sum5_tight

def gen_sum5_tight(q: int = 1000, eps: float = 1e-4) -> InstanceFile:
    """Three-cycle profile where the augmented-majority rule's total cost
    approaches five times optimal as q grows."""
    if not (q >= 1 and eps > 0):
        bad = f"eps={eps!r}" if q >= 1 else f"q={q!r}"
        raise SchemaError(f"{bad}: sum5_tight needs q >= 1 and eps > 0", field="params")
    names = ("Y", "W", "P")
    Y, W, P = 0, 1, 2
    l = np.zeros((3, 3))
    l[Y, W] = l[W, Y] = 2 - 2 * eps
    l[W, P] = l[P, W] = 2 - eps
    l[P, Y] = l[Y, P] = 2.0
    fd = facility_distances(names, l)
    profile = _profile(3, (q, (Y, W, P)), (q, (P, Y, W)), (1, (W, P, Y)))
    rows = ([[0.0, 2 - 2 * eps, 2.0]] * q
            + [[1.0, 3 - 2 * eps, 1.0]] * q
            + [[1.0, 1.0, 1.0]])
    metric = FullMetric(np.asarray(rows), fd)
    return InstanceFile(fd.facilities, profile, "social_choice_median", fd, metric=metric)


def check_sum5_tight(ex: InstanceFile, params: dict) -> list[CheckResult]:
    q, eps = params["q"], params["eps"]
    Y, W = 0, 1
    out = []
    out.append(_check("metric_consistent",
                      check_consistency(ex.profile, ex.metric),
                      "bundled metric lies in the consistent set"))
    order = sc.distance_partial_order(ex.fd)
    outcome = sc.median_winner(ex.profile, order)
    out.append(_check("algorithm2_picks_W", outcome.winner == W,
                      f"winner index {outcome.winner}"))
    witnessed = any(j.via == "witness" and j.edge == (W, Y) and j.witness == 2
                    for j in outcome.certificate)
    out.append(_check("edge_WY_certified_by_P", witnessed,
                      "pair (W, Y) justified through P"))
    costs = [sc.evaluate_sum_cost(f, ex.metric) for f in range(3)]
    realized = costs[W] / min(costs)
    expected = (q * (5 - 4 * eps) + 1) / (q + 1)
    out.append(_check("realized_sum_ratio",
                      abs(realized - expected) <= 1e-9,
                      f"ratio {realized!r} vs formula {expected!r}"))
    audit = audit_sum_social_choice(W, ex.profile, ex.fd)
    out.append(_check("audited_sum_ratio",
                      abs(audit.value - expected) <= 1e-7 * expected
                      and abs(audit.witness_ratio - audit.value) <= 1e-6 * audit.value,
                      f"exact audit {audit.value!r}, witness {audit.witness_ratio!r}, "
                      f"formula {expected!r}"))
    proj = sc.sum_winner(project_agents(ex.profile, ex.fd))
    out.append(_check("projected_sum_rule_picks_Y", proj.winner == Y,
                      f"projected-sum winner index {proj.winner}"))
    return out


# ------------------------------------------------------- median_topchoice_bad

def gen_median_topchoice_bad() -> InstanceFile:
    """Square of four alternatives where the projected-sum rule's winner
    has median cost five times optimal on the bundled metric."""
    names = ("W", "X", "Y", "Z")
    W, X, Y, Z = range(4)
    l = np.zeros((4, 4))
    for a, b, v in ((W, Y, 2), (Y, X, 2), (X, Z, 2), (Z, W, 2), (W, X, 4), (Y, Z, 4)):
        l[a, b] = l[b, a] = v
    fd = facility_distances(names, l)
    profile = _profile(4,
                       (2, (W, X, Y, Z)),
                       (2, (X, Y, Z, W)),
                       (2, (Y, X, W, Z)),
                       (2, (Z, X, Y, W)))
    rows = ([[100.0, 102.0, 102.0, 102.0]] * 2
            + [[5.0, 1.0, 3.0, 3.0]] * 2
            + [[3.0, 1.0, 1.0, 3.0]] * 2
            + [[3.0, 1.0, 3.0, 1.0]] * 2)
    metric = FullMetric(np.asarray(rows), fd)
    return InstanceFile(fd.facilities, profile, "social_choice_median", fd, metric=metric)


def check_median_topchoice_bad(ex: InstanceFile, params: dict) -> list[CheckResult]:
    W, X = 0, 1
    out = []
    out.append(_check("metric_consistent",
                      check_consistency(ex.profile, ex.metric), ""))
    proj = sc.sum_winner(project_agents(ex.profile, ex.fd))
    out.append(_check("projected_rule_ties_to_W",
                      proj.winner == W and len(set(proj.scores)) == 1,
                      f"projected sums {proj.scores}"))
    med = [sc.evaluate_median_cost(f, ex.metric) for f in range(4)]
    out.append(_check("median_of_W_is_5", med[W] == 5.0, f"med(W) = {med[W]}"))
    out.append(_check("median_of_X_is_1", med[X] == 1.0, f"med(X) = {med[X]}"))
    ratio = med[W] / min(med)
    out.append(_check("median_ratio_exactly_5", ratio == 5.0, f"ratio {ratio}"))
    order = sc.distance_partial_order(ex.fd)
    outcome = sc.median_winner(ex.profile, order)
    out.append(_check("algorithm2_picks_condorcet_X",
                      outcome.winner == X and outcome.kind == "condorcet",
                      f"winner index {outcome.winner} via {outcome.kind}"))
    report = audit_percentile_social_choice(outcome.winner, ex.profile, ex.fd, 0.5)
    out.append(_check("algorithm2_median_audit_le_3",
                      report.exact and report.value <= 3 + 1e-6,
                      f"exact audit value {report.value}"))
    return out


# -------------------------------------------------- median_matching_unbounded

def gen_median_matching_unbounded(eps: float = 1e-3) -> InstanceFile:
    """Two lookalike agents make any fixed matching pay 1/(2 eps) on the
    median-edge objective."""
    if not 0 < eps <= 0.5:  # beyond 1/2 agent 1's row breaks its own ranking
        raise SchemaError(f"eps={eps!r}: median_matching_unbounded needs 0 < eps <= 1/2",
                          field="params")
    names = ("X", "Y", "Z")
    X, Y, Z = range(3)
    l = np.zeros((3, 3))
    l[X, Y] = l[Y, X] = 2.0
    l[X, Z] = l[Z, X] = 1000.0
    l[Y, Z] = l[Z, Y] = 1000.0
    fd = facility_distances(names, l)
    profile = _profile(3, (2, (X, Y, Z)), (1, (Z, X, Y)))
    swapped = np.asarray([
        [1.0, 1.0, 999.0],
        [2 * eps, 2 - 2 * eps, 1000.0 - 2 * eps],
        [1000.0 - eps, 1000.0 - eps, eps],
    ])
    scenario = Scenario("roles_swapped", fd, FullMetric(swapped, fd),
                        note="the two lookalike agents trade places",
                        assignment=(X, Y, Z), expected_ratio=1.0 / (2 * eps))
    return InstanceFile(fd.facilities, profile, "matching_min_cost", fd, scenarios=(scenario,))


def _median_of(values) -> float:
    values = sorted(values)
    k = sc.percentile_rank(len(values), 0.5)
    return values[k - 1]


def check_median_matching_unbounded(ex: InstanceFile, params: dict) -> list[CheckResult]:
    eps = params["eps"]
    scen = ex.scenarios[0]
    d = scen.metric.distances
    out = []
    out.append(_check("witness_consistent",
                      check_consistency(ex.profile, scen.metric), ""))
    fixed = _median_of([d[i, f] for i, f in enumerate(scen.assignment)])
    best = min(_median_of([d[i, f] for i, f in enumerate(perm)])
               for perm in permutations(range(3)))
    ratio = fixed / best
    out.append(_check("median_ratio_at_least_1_over_2eps", ratio >= (1 - 1e-9) / (2 * eps),
                      f"ratio {ratio} = {fixed} / {best}"))
    out.append(_check("documented_ratio", abs(ratio - 1.0 / (2 * eps)) <= 1e-6,
                      f"expected {1.0 / (2 * eps)}"))
    return out


# ------------------------------------------------ facility_location_unbounded

def gen_facility_location_unbounded(L: float = 1e6, eps: float = 1e-6) -> InstanceFile:
    """Opening costs 1 and 100; without facility distances no opening rule
    is safe, and single-facility choices lose by a factor about L/103."""
    names = ("X", "Y")
    X, Y = 0, 1
    costs = (1.0, 100.0)
    fd_far = facility_distances(names, np.asarray([[0.0, L], [L, 0.0]]))
    far = FullMetric(np.asarray([[1.0, L], [L, 1.0]]), fd_far)
    fd_near = facility_distances(names, np.asarray([[0.0, 2 * eps], [2 * eps, 0.0]]))
    near = FullMetric(np.full((2, 2), eps), fd_near)
    profile = _profile(2, (1, (X, Y)), (1, (Y, X)))
    scenarios = (
        Scenario("open_x_bad", fd_far, far, "agents straddle the gap",
                 choice=(X,), expected_ratio=(L + 2) / 103.0),
        Scenario("open_y_bad", fd_far, far, "agents straddle the gap",
                 choice=(Y,), expected_ratio=(L + 101) / 103.0),
        Scenario("open_both_bad", fd_near, near, "everyone is close to everything",
                 assignment=(X, Y), expected_ratio=(101 + 2 * eps) / (1 + 2 * eps)),
    )
    return InstanceFile(fd_far.facilities, profile, "facility_location", fd_far,
                        params={"opening_costs": list(costs)}, metric=far, scenarios=scenarios)


def _fl_cost(d: np.ndarray, costs, opened) -> float:
    assign = [min(opened, key=lambda f: (d[i, f], f)) for i in range(d.shape[0])]
    used = set(assign)
    return sum(costs[f] for f in used) + sum(d[i, assign[i]] for i in range(d.shape[0]))


def check_facility_location_unbounded(ex: InstanceFile, params: dict) -> list[CheckResult]:
    costs = ex.params["opening_costs"]
    out = []
    for scen in ex.scenarios:
        out.append(_check(f"{scen.label}_witness_consistent",
                          check_consistency(ex.profile, scen.metric), ""))
        d = scen.metric.distances
        opt = min(_fl_cost(d, costs, opened)
                  for r in range(1, 3) for opened in combinations(range(2), r))
        if scen.choice is not None:
            cost = _fl_cost(d, costs, scen.choice)
            floor = 1000.0
        else:  # a fixed assignment; it pays for every facility it uses
            used = set(scen.assignment)
            cost = (sum(costs[f] for f in used)
                    + sum(d[i, f] for i, f in enumerate(scen.assignment)))
            floor = 50.0
        ratio = cost / opt
        out.append(_check(f"{scen.label}_ratio_at_least_{int(floor)}",
                          ratio >= floor, f"ratio {ratio}, opt {opt}"))
    return out


# ---------------------------------------------------------------- kmedian_lb

def gen_kmedian_lb(q: int = 5, L: float = 1e6) -> InstanceFile:
    """Choosing two of three facilities without facility distances loses a
    factor linear in the number of agents for some consistent metric."""
    if not q >= 1:
        raise SchemaError(f"q={q!r}: kmedian_lb needs q >= 1", field="params")
    names = ("X", "Y", "Z")
    X, Y, Z = range(3)
    profile = _profile(3, (q, (X, Y, Z)), (q, (Y, X, Z)), (1, (Z, X, Y)))
    fd_far = facility_distances(names, np.asarray(
        [[0.0, 1.0, L], [1.0, 0.0, L], [L, L, 0.0]]))
    rows_far = ([[0.0, 1.0, L]] * q + [[1.0, 0.0, L]] * q + [[L, L, 0.0]])
    far = FullMetric(np.asarray(rows_far), fd_far)
    fd_unit = facility_distances(names, np.ones((3, 3)) - np.eye(3))
    rows_unit = ([[0.0, 1.0, 1.0]] * q + [[1.0, 0.0, 1.0]] * q + [[1.0, 1.0, 0.0]])
    unit = FullMetric(np.asarray(rows_unit), fd_unit)
    scenarios = (
        Scenario("xy_bad", fd_far, far, "the lone agent is stranded",
                 choice=(X, Y), expected_ratio=L / q),
        Scenario("xz_bad", fd_unit, unit, "a q-block walks one unit",
                 choice=(X, Z), expected_ratio=float(q)),
        Scenario("yz_bad", fd_unit, unit, "a q-block walks one unit",
                 choice=(Y, Z), expected_ratio=float(q)),
    )
    return InstanceFile(fd_far.facilities, profile, "k_median", fd_far,
                        params={"k": 2}, metric=far, scenarios=scenarios)


def check_kmedian_lb(ex: InstanceFile, params: dict) -> list[CheckResult]:
    q = params["q"]
    out = []
    for scen in ex.scenarios:
        out.append(_check(f"{scen.label}_witness_consistent",
                          check_consistency(ex.profile, scen.metric), ""))
        d = scen.metric.distances
        cost = float(d[:, list(scen.choice)].min(axis=1).sum())
        opt = min(float(d[:, list(pair)].min(axis=1).sum())
                  for pair in combinations(range(3), 2))
        ratio = cost / opt
        out.append(_check(f"{scen.label}_ratio_at_least_q", ratio >= q,
                          f"ratio {ratio} with q = {q}"))
    return out


# ------------------------------------------------------------- egalitarian_lb

def gen_egalitarian_lb(eps: float = 1e-6) -> InstanceFile:
    """Bottleneck matching with two lookalike agents forces ratio 2."""
    names = ("X", "Y")
    X, Y = 0, 1
    fd = facility_distances(names, np.asarray([[0.0, 2.0], [2.0, 0.0]]))
    profile = _profile(2, (2, (X, Y)))
    metric = FullMetric(np.asarray([[1.0, 1.0], [eps, 2.0]]), fd)
    scenario = Scenario("lookalikes", fd, metric,
                        "the agent that looked safe to send away was not",
                        assignment=(X, Y), expected_ratio=2.0)
    return InstanceFile(fd.facilities, profile, "matching_egalitarian", fd,
                        metric=metric, scenarios=(scenario,))


def check_egalitarian_lb(ex: InstanceFile, params: dict) -> list[CheckResult]:
    scen = ex.scenarios[0]
    d = scen.metric.distances
    out = []
    out.append(_check("witness_consistent",
                      check_consistency(ex.profile, scen.metric), ""))
    fixed = max(d[i, f] for i, f in enumerate(scen.assignment))
    best = min(max(d[i, f] for i, f in enumerate(perm))
               for perm in permutations(range(2)))
    ratio = fixed / best
    out.append(_check("egalitarian_ratio_at_least_2", ratio >= 2 - 1e-3,
                      f"ratio {ratio}"))
    return out


# --------------------------------------------------------------- matching_lb3

def gen_matching_lb3() -> InstanceFile:
    """Two agents both preferring the same facility: any deterministic
    matching rule can be made to pay three times optimal."""
    names = ("F1", "F2")
    F1, F2 = 0, 1
    fd = facility_distances(names, np.asarray([[0.0, 2.0], [2.0, 0.0]]))
    profile = _profile(2, (2, (F1, F2)))
    metric = FullMetric(np.asarray([[1.0, 1.0], [0.0, 2.0]]), fd)
    scenario = Scenario("halfway_and_home", fd, metric,
                        "one agent sits on F1, the other halfway to F2",
                        assignment=(F1, F2), expected_ratio=3.0)
    return InstanceFile(fd.facilities, profile, "matching_min_cost", fd,
                        metric=metric, scenarios=(scenario,))


def check_matching_lb3(ex: InstanceFile, params: dict) -> list[CheckResult]:
    out = []
    scen = ex.scenarios[0]
    out.append(_check("witness_consistent",
                      check_consistency(ex.profile, scen.metric), ""))
    d = scen.metric.distances
    fixed = sum(d[i, f] for i, f in enumerate(scen.assignment))
    best = min(sum(d[i, f] for i, f in enumerate(perm))
               for perm in permutations(range(2)))
    out.append(_check("realized_ratio_3", abs(fixed / best - 3.0) <= 1e-9,
                      f"ratio {fixed / best}"))
    problem = build_preset("matching_min_cost", 2, ex.facilities)
    report = audit_additive_assignment(scen.assignment, ex.profile, ex.fd, problem)
    out.append(_check("audited_distortion_3", abs(report.value - 3.0) <= 1e-6,
                      f"audit value {report.value}"))
    return out


EXAMPLES = {
    "sum5_tight": (gen_sum5_tight, check_sum5_tight),
    "median_topchoice_bad": (gen_median_topchoice_bad, check_median_topchoice_bad),
    "median_matching_unbounded": (gen_median_matching_unbounded,
                                  check_median_matching_unbounded),
    "facility_location_unbounded": (gen_facility_location_unbounded,
                                    check_facility_location_unbounded),
    "kmedian_lb": (gen_kmedian_lb, check_kmedian_lb),
    "egalitarian_lb": (gen_egalitarian_lb, check_egalitarian_lb),
    "matching_lb3": (gen_matching_lb3, check_matching_lb3),
}


def _resolve(name: str, params: dict):
    """The generator and checker of example ``name``, and the generator's full
    parameter set: its defaults, overridden by ``params``, whose keys and
    value types are checked against the generator's signature."""
    try:
        generator, checker = EXAMPLES[name]
    except KeyError:
        raise OrdmechError(
            f"unknown example {name!r}; choose from {sorted(EXAMPLES)}") from None
    signature = inspect.signature(generator).parameters
    kinds = {k: (type(p.default), int) for k, p in signature.items()}
    bad = [k for k, v in params.items() if not isinstance(v, kinds.get(k, ()))]
    if bad:  # a key the generator does not take, or a value of the wrong type
        takes = ", ".join(f"{k} ({t.__name__})" for k, (t, _) in kinds.items()) or "no parameters"
        raise SchemaError(f"{bad[0]}={params[bad[0]]!r}: {name} takes {takes}", field="params")
    return generator, checker, {k: p.default for k, p in signature.items()} | params


def gen_worked_example(name: str, **params) -> InstanceFile:
    generator, _, params = _resolve(name, params)
    return generator(**params)


def verify_worked_example(name: str, **params) -> list[CheckResult]:
    """Regenerate example ``name`` and recompute its documented numbers."""
    generator, checker, params = _resolve(name, params)
    return checker(generator(**params), params)
