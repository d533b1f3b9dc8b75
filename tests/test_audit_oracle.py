"""Audits against the HiGHS LPs and the enumeration they replaced.

Every sum and assignment value must match the scaled ratio LP of
``helpers.highs_ratio_pair`` to 1e-12 relative (but for facilities 1e-13
to 6e-13 apart, which HiGHS's absolute tolerances cannot tell apart, and
whose oracle is the enumeration alone), every percentile value the
binding configuration LP of ``helpers.highs_percentile_pair`` to 1e-9
relative, and every report must put its witness's ratio, its value and its
certified upper bound in that order within 1e-9 relative.  Assignment
audits over open sets must also match the audit over every valid
assignment (``helpers.enumerated_assignment_audit``) to 1e-14 relative.
"""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ordmech import (FullMetric, InternalInvariantError, PreferenceProfile, SearchSpaceError,
                     audit_additive_assignment, audit_percentile_social_choice,
                     audit_sum_social_choice, build_preset, check_consistency,
                     distance_partial_order, facility_distances, median_winner,
                     preferences_from_metric, reduce_and_solve)
from ordmech import audit
from ordmech.core import BLOCK
from ordmech.fileio import load_instance
from ordmech.gallery import gen_sum5_tight
from ordmech.social_choice import percentile_rank
from ordmech.solvers import SOLVERS

from helpers import (enumerated_assignment_audit, highs_assignment_values,
                     highs_percentile_values, highs_sum_values, iter_valid_assignments,
                     loop_percentile_candidate, random_consistent_metric,
                     random_facility_distances, random_instance)

SEED = 20260810  # the acceptance suites' seed


def _close(got, want, rel=1e-12):
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rel * max(1.0, abs(want))


def _check(report, oracle):
    got = [value for _, value in report.per_alternative]
    assert len(got) == len(oracle)
    for g, want in zip(got, oracle):
        assert _close(g, want), (report.target, got, oracle)
    _bracketed(report, got)


def _check_family(report, oracle):
    # an assignment audit lists its maximizing alternative alone, at the
    # largest of the oracle's values per alternative
    ((_, got),) = report.per_alternative
    assert _close(max(got, 1.0), max([1.0, *oracle])), (report.target, got, oracle)
    _bracketed(report, [got])


def _bracketed(report, got):
    assert report.value == max([1.0, *got])
    upper = report.certified_upper
    assert upper is not None and report.value <= upper + 1e-9 * abs(upper)
    assert _close(upper, report.value, rel=1e-9)
    if report.witness_ratio is not None:
        assert report.witness_ratio <= report.value + 1e-9 * abs(report.value)


def _sum_audits(profile, fd):
    for winner in range(fd.m):
        report = audit_sum_social_choice(winner, profile, fd)
        _check(report, highs_sum_values(winner, profile, fd))


def test_sum_audits_match_highs_on_the_criterion_1_suite():
    rng = np.random.default_rng(SEED)
    for profile, fd, _ in (random_instance(rng, n_max=8, m_max=5) for _ in range(500)):
        _sum_audits(profile, fd)


def test_sum_audits_match_highs_on_top_only_profiles():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        profile, fd, _ = random_instance(rng, n_max=8, m_max=5)
        tops = PreferenceProfile(fd.m, tuple((r[0],) for r in profile.rankings),
                                 top_only=True)
        _sum_audits(tops, fd)


def test_sum_audits_equal_the_one_median_family_audit():
    # a sum audit of w is the assignment audit of every agent on w against
    # the family of k = 1 open sets: the two front ends must agree
    rng = np.random.default_rng(SEED + 9)
    for t in range(150):
        profile, fd, _ = random_instance(rng, n_max=8, m_max=5)
        if t % 2:
            profile = PreferenceProfile(fd.m, tuple((r[0],) for r in profile.rankings),
                                        top_only=True)
        problem = build_preset("k_median", profile.n, fd.facilities, {"k": 1})
        for w in range(fd.m):
            got = audit_sum_social_choice(w, profile, fd)
            want = audit_additive_assignment((w,) * profile.n, profile, fd, problem)
            assert _close(got.value, want.value, rel=1e-9), (t, w, got.value, want.value)
            assert got.flags == want.flags, (t, w)


def test_sum_audits_match_highs_at_scale():
    ex = gen_sum5_tight(q=1000)
    _sum_audits(ex.profile, ex.fd)
    inst = load_instance(Path(__file__).parent / "fixtures" / "clustered_n400.json")
    _sum_audits(inst.profile, inst.fd)


def test_assignment_audits_match_highs_on_the_criterion_6_suites():
    # the criterion-6 matchings at the reduction's assignment, and where
    # m <= 3 (at most 27 alternatives, so the oracle stays quick) facility
    # location with opening costs and k-median on the same instances
    rng = np.random.default_rng(SEED + 2)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        fd = random_facility_distances(rng, m)
        profile = preferences_from_metric(random_consistent_metric(rng, fd, m))
        costs = [float(c) for c in rng.uniform(0.0, 3.0, m)]
        presets = [("matching_min_cost", {}, "matching")]
        if m <= 3:
            presets += [("facility_location", {"opening_costs": costs}, "brute_force"),
                        ("k_median", {"k": int(rng.integers(1, m + 1))}, "brute_force")]
        for preset, params, solver in presets:
            problem = build_preset(preset, m, fd.facilities, params)
            x = reduce_and_solve(problem, profile, fd, SOLVERS[solver]).assignment
            report = audit_additive_assignment(x, profile, fd, problem)
            _check_family(report, highs_assignment_values(x, profile, fd, problem))


@pytest.mark.parametrize("eps", [0.0, 1e-13])
def test_vanishing_denominator_with_vanishing_numerator(eps):
    fd = facility_distances(("X", "Z", "Y"), [[0.0, eps, 2.0], [eps, 0.0, 2.0],
                                              [2.0, 2.0, 0.0]])
    profile = PreferenceProfile(3, ((0, 1, 2), (1, 0, 2), (0, 1, 2)))
    problem = build_preset("social_choice_sum", 3, fd.facilities)
    sits = audit.ConsistencyPolytope(profile, fd).can_sit
    if eps:
        # X and Z lie 1e-13 apart, which is not zero: agents 0 and 2 rank X
        # first, so on Z they would sit farther from X than from Z, and only
        # agent 1 can sit on Z.  (X, X, X) then reads 2 and (Z, Z, Z) 5, as
        # in the enumeration.  Against (Y, Y, Y) the ratio is about 1.2e14,
        # and the greatest witness rows reach it: both report it, with the
        # witness ratio and the certified bound equal to it
        assert sits[:, 1].tolist() == [False, True, False]
        for x, value in (((0, 0, 0), 2.0), ((1, 1, 1), 5.0), ((2, 2, 2), 120000000000000.98)):
            report = audit_additive_assignment(x, profile, fd, problem)
            every = enumerated_assignment_audit(x, profile, fd, problem)
            assert report.value == every.value == value and report.flags == every.flags == ()
            _bracketed(report, [value])
        for r in (report, every):  # (Y, Y, Y)
            assert r.witness_ratio == r.certified_upper == 120000000000000.98
        return
    # X and Z co-located and every agent can sit on Z: the denominator of
    # (Z, Z) against (X, X) vanishes with its numerator, so the ratio is
    # maximized over vertices whose denominator may be zero
    assert sits[:, 1].all()
    for x in iter_valid_assignments(3, problem.constraints):
        report = audit_additive_assignment(x, profile, fd, problem)
        _check_family(report, highs_assignment_values(x, profile, fd, problem))
    report = audit_additive_assignment((0, 0, 0), profile, fd, problem)
    every = enumerated_assignment_audit((0, 0, 0), profile, fd, problem)
    assert every.alternative_value((1, 1, 1)) == 1.0
    assert report.value == every.value == 1.0 and report.flags == every.flags == ()
    # everyone can sit on X too, while Y lies 2 away: Y against X is infinite
    report = audit_additive_assignment((2, 2, 2), profile, fd, problem)
    assert "denominator_vanishes" in report.flags
    assert report.value == math.inf and report.certified_upper == math.inf


def test_assignment_audit_spanning_several_blocks_matches_highs():
    # the three k-median open sets of six agents: the value matches the
    # best of the 3 x 64 assignments' LPs
    rng = np.random.default_rng(SEED + 3)
    fd = random_facility_distances(rng, 3)
    profile = preferences_from_metric(random_consistent_metric(rng, fd, 6))
    problem = build_preset("k_median", 6, fd.facilities, {"k": 2})
    x = reduce_and_solve(problem, profile, fd, SOLVERS["brute_force"]).assignment
    report = audit_additive_assignment(x, profile, fd, problem)
    assert len(report.per_alternative) == 1
    _check_family(report, highs_assignment_values(x, profile, fd, problem))


INF = math.inf


@pytest.mark.parametrize("eps, far, third, x, k, expected", [
    # agent 2 can sit on Y alone: the open sets with Y seat everyone, and
    # agent 2 moved from Z to Y keeps the numerator at 2
    (0.0, 2.0, (2, 0, 1), (1, 1, 1), 2, [((0, 0, 0), 1.0), ((0, 0, 2), INF),
                                          ((1, 1, 2), INF)]),
    # one facility per set: Y is an ordinary ratio, X co-located with Z
    (0.0, 2.0, (2, 0, 1), (1, 1, 1), 1, [((0, 0, 0), 1.0), ((1, 1, 1), 1.0),
                                          ((2, 2, 2), 2.0)]),
    (0.0, 2.0, (2, 0, 1), (1, 1, 1), 3, [((0, 0, 2), INF)]),
    # X and Z 6e-13 apart are not co-located: agents 0 and 2 can sit on X
    # alone and agent 1 on Z alone, so {X, Z} seats everyone at no cost,
    # while agents 0 and 2 keep their 6e-13 to Z: infinite.  {X, Y} and X
    # alone are ordinary ratios of 5
    (6e-13, 1000.0, (0, 1, 2), (1, 1, 1), 2, [((0, 1, 0), INF), ((0, 0, 0), 5.0),
                                               ((1, 1, 1), 1.0)]),
    (6e-13, 1000.0, (0, 1, 2), (1, 1, 1), 1, [((0, 0, 0), 5.0), ((1, 1, 1), 1.0),
                                               ((2, 2, 2), 1.0)]),
    # X and Z 4e-13 apart: each agent can sit on its top choice alone, so
    # no two facilities seat everyone, and {X, Y} is the largest ratio
    (4e-13, 2.0, (2, 0, 1), (1, 1, 2), 2, [((0, 1, 1), 1.0000000000004),
                                            ((0, 0, 2), 3.0000000000000004),
                                            ((1, 1, 2), 1.0)]),
])
def test_assignment_audit_mixing_vanishing_and_ordinary_alternatives(eps, far, third, x, k,
                                                                     expected):
    # X and Z lie eps apart and Y far from both; agents can sit on their
    # top choice and on anything co-located with it.  An open set on whose
    # facilities every agent can sit has a vanishing denominator: its ratio
    # is infinite where the numerator, each agent seated on its candidate
    # farthest from its facility in x, stays positive, and at least 1
    # where it does not; the other sets are ordinary ratios.  ``expected``
    # lists each set's value with the seating that reaches it; the audit
    # reports the largest, and an assignment into a set that reaches it.
    # HiGHS's absolute feasibility tolerance cannot tell facilities eps > 0
    # apart (it reads 1 where the witnesses reach 5 and 3), so there the
    # enumeration, exact on the input numbers, is the only oracle
    fd = facility_distances(("X", "Z", "Y"), [[0.0, eps, far], [eps, 0.0, far],
                                              [far, far, 0.0]])
    profile = PreferenceProfile(3, ((0, 1, 2), (1, 0, 2), third))
    problem = build_preset("k_median", 3, fd.facilities, {"k": k})
    report = audit_additive_assignment(x, profile, fd, problem)
    if eps == 0:
        _check_family(report, highs_assignment_values(x, profile, fd, problem))
    else:
        _bracketed(report, [report.per_alternative[0][1]])
    # each set's value is the largest over the assignments into it, x's own
    # reading 1, in the enumeration, which reads every assignment apart
    every = enumerated_assignment_audit(x, profile, fd, problem)
    values = [max([1.0] * (set(x) <= set(S))
                  + [v for y, v in every.per_alternative if set(y) <= set(S)])
              for S in itertools.combinations(range(3), k)]
    assert values == [value for _, value in expected]
    assert report.value == every.value == max(values)
    assert report.per_alternative[0] in [entry for entry in expected if entry[1] == report.value]
    infinite = report.value == INF
    assert report.flags == every.flags == (("denominator_vanishes",) if infinite else ())
    assert (report.certified_upper == INF) == infinite


def _xzy(eps, far, third):
    """X and Z eps apart, Y far from both, and three agents: X > Z > Y,
    Z > X > Y and ``third``."""
    fd = facility_distances(("X", "Z", "Y"), [[0.0, eps, far], [eps, 0.0, far],
                                              [far, far, 0.0]])
    return PreferenceProfile(3, ((0, 1, 2), (1, 0, 2), third)), fd


def _enumerable_audits():
    """(x, profile, fd, problem) for matchings, k-median and facility
    location (some opening costs rounded, so zero and tied), full and
    top-only profiles, at the reduction's and at random valid assignments,
    then the X-Z-Y instances at every valid x and kmedian_scenarios."""
    rng = np.random.default_rng(SEED + 4)
    for trial in range(180):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        fd = random_facility_distances(rng, m)
        profile = preferences_from_metric(random_consistent_metric(rng, fd, n))
        if trial % 4 == 0:
            profile = PreferenceProfile(m, tuple((r[0],) for r in profile.rankings),
                                        top_only=True)
        costs = rng.uniform(0.0, 3.0, m).round(trial % 2).tolist()
        preset, params = (("matching_min_cost", {}) if trial % 3 == 0 and n == m else
                          ("k_median", {"k": int(rng.integers(1, m + 1))}) if trial % 3 == 1
                          else ("facility_location", {"opening_costs": costs}))
        problem = build_preset(preset, n, fd.facilities, params)
        yield reduce_and_solve(problem, profile, fd, SOLVERS["brute_force"]).assignment, \
            profile, fd, problem
        valid = list(iter_valid_assignments(n, problem.constraints))
        yield valid[int(rng.integers(len(valid)))], profile, fd, problem
    for far, third in ((2.0, (2, 0, 1)), (1000.0, (0, 1, 2)), (2.0, (1, 0, 2))):
        profile, fd = _xzy(0.0, far, third)
        for preset, params in (("k_median", {"k": 2}), ("k_median", {"k": 3}),
                               ("facility_location", {"opening_costs": [0.0, 0.5, 1.0]})):
            problem = build_preset(preset, 3, fd.facilities, params)
            for x in iter_valid_assignments(3, problem.constraints):
                yield x, profile, fd, problem
    inst = load_instance(Path(__file__).parent / "fixtures" / "kmedian_scenarios.json")
    problem = build_preset(inst.preset, inst.n, inst.facilities, inst.params)
    for x in [reduce_and_solve(problem, inst.profile, inst.fd, SOLVERS["k_median"]).assignment,
              *(s.assignment for s in inst.scenarios if s.assignment is not None)]:
        yield x, inst.profile, inst.fd, problem


def test_assignment_audits_match_the_enumerated_oracle():
    # open sets and the enumeration agree on the value and the flags; each
    # open-set report brackets its value with its witness and its bound
    count = 0
    for x, profile, fd, problem in _enumerable_audits():
        try:
            want = enumerated_assignment_audit(x, profile, fd, problem)
        except SearchSpaceError:
            continue
        report = audit_additive_assignment(x, profile, fd, problem)
        count += 1
        assert _close(report.value, want.value, rel=1e-14), (x, report.value, want.value)
        assert report.flags == want.flags
        assert report.value <= report.certified_upper
        if report.witness is not None:
            assert check_consistency(profile, report.witness, tol=1e-7)
            assert report.witness_ratio <= report.value + 1e-9 * report.value
    assert count >= 400


def test_vanishing_families_match_the_enumerated_oracle():
    # agents drawn on facilities can each sit on their own: k-median and
    # facility location with free facilities have open sets that seat every
    # agent at no cost, and a matching of agents on distinct facilities
    # has a perfect matching on can_sit.  Such a denominator vanishes: the
    # value is infinite where the farthest seating keeps a numerator, and
    # at least 1 where it does not, as in the enumeration
    rng = np.random.default_rng(SEED + 7)
    seen = set()
    for trial in range(240):
        m = int(rng.integers(2, 5))
        preset = ("matching_min_cost", "k_median", "facility_location")[trial % 3]
        n = m if preset == "matching_min_cost" else int(rng.integers(1, 6))
        fd = random_facility_distances(rng, m)
        hosts = rng.permutation(m) if n == m and trial % 2 else rng.integers(m, size=n)
        profile = preferences_from_metric(FullMetric(fd.values[hosts], fd))
        costs = np.where(rng.random(m) < 0.6, 0.0, rng.uniform(0.5, 2.0, m))
        costs[hosts[:trial % 2 * n]] = 0.0  # every host free in half the trials
        costs = costs.tolist()
        params = {"matching_min_cost": {}, "k_median": {"k": int(rng.integers(1, m + 1))},
                  "facility_location": {"opening_costs": costs}}[preset]
        problem = build_preset(preset, n, fd.facilities, params)
        sits = audit.ConsistencyPolytope(profile, fd).can_sit
        valid = list(iter_valid_assignments(n, problem.constraints))
        for x in (reduce_and_solve(problem, profile, fd, SOLVERS["brute_force"]).assignment,
                  valid[int(rng.integers(len(valid)))]):
            want = enumerated_assignment_audit(x, profile, fd, problem)
            report = audit_additive_assignment(x, profile, fd, problem)
            assert _close(report.value, want.value, rel=1e-14), (x, report.value, want.value)
            assert report.flags == want.flags
            assert report.value <= report.certified_upper
            vanishing = any(sits[np.arange(n), y].all() and problem.cost_spec.facility_cost(y) == 0
                            for y, _ in want.per_alternative)
            if vanishing:
                seen.add((preset, math.isinf(report.value)))
                assert report.value >= 1.0
                assert (report.flags == ("denominator_vanishes",)) == math.isinf(report.value)
    assert seen == {(p, inf) for p in ("matching_min_cost", "k_median", "facility_location")
                    for inf in (False, True)}


def test_near_co_located_facilities_match_the_enumeration_or_raise():
    # Z and X 1e-13 to 6e-13 apart are distinct facilities under the exact
    # zero rule, next to Y 2 or 1000 away: an open-set audit reads the same
    # value (within 1e-9) and flags as the enumeration, which reads each
    # assignment on its own, or raises where its ratio, near 1e14, lies
    # beyond what a float64 witness reaches.  None may disagree
    audits = raised = 0
    for eps, far, third, k in itertools.product((1e-13, 4e-13, 6e-13), (2.0, 1000.0),
                                                ((2, 0, 1), (0, 1, 2), (1, 0, 2)), (1, 2, 3)):
        profile, fd = _xzy(eps, far, third)
        problem = build_preset("k_median", 3, fd.facilities, {"k": k})
        for x in iter_valid_assignments(3, problem.constraints):
            audits += 1
            try:
                report = audit_additive_assignment(x, profile, fd, problem)
            except InternalInvariantError:
                raised += 1
                continue
            want = enumerated_assignment_audit(x, profile, fd, problem)
            assert _close(report.value, want.value, rel=1e-9), (x, report.value, want.value)
            assert report.flags == want.flags
    assert audits == 918 and raised < audits // 10


def test_dinkelbach_that_needs_two_steps_fails_at_one(monkeypatch):
    # the tie instance's assignment (X, X) against every agent on one
    # facility reads 3: a step from rho = 1 to 3, where (Y, Y) is the best
    # member, and a second to certify it.  Capped at one step, the audit raises
    profile, fd = _tie_instance()
    problem = build_preset("social_choice_sum", 2, fd.facilities)
    x = (0, 0)
    monkeypatch.setattr(audit, "DINKELBACH_MAX_ITER", 2)
    assert audit_additive_assignment(x, profile, fd, problem).value == 3.0
    monkeypatch.setattr(audit, "DINKELBACH_MAX_ITER", 1)
    with pytest.raises(InternalInvariantError, match="did not converge"):
        audit_additive_assignment(x, profile, fd, problem)


def _check_percentile(report, oracle):
    # a percentile witness is built to reach the value, not just stay below
    got = [value for _, value in report.per_alternative]
    assert len(got) == len(oracle)
    for g, want in zip(got, oracle):
        assert _close(g, want, rel=1e-9), (report.target, got, oracle)
    assert report.value == max([1.0, *got])
    upper = report.certified_upper
    assert upper is not None and report.value <= upper + 1e-9 * abs(upper)
    if report.witness_ratio is not None:
        assert _close(report.witness_ratio, report.value, rel=1e-9)


def test_percentile_audits_match_highs_on_the_criterion_3_suite():
    rng = np.random.default_rng(SEED + 1)  # the criterion-3 suite
    instances = [random_instance(rng, n_max=7, m_max=4, m_min=3, n_min=3)[:2]
                 for _ in range(200)]
    rng = np.random.default_rng(SEED + 6)  # and its larger profiles
    instances += [random_instance(rng, n_max=40, m_max=4, m_min=3, n_min=9)[:2]
                  for _ in range(20)]
    for profile, fd in instances:
        winner = median_winner(profile, distance_partial_order(fd)).winner
        for alpha in (0.5, 0.75, 1.0):
            report = audit_percentile_social_choice(winner, profile, fd, alpha)
            _check_percentile(report, highs_percentile_values(winner, profile, fd, alpha))


def test_percentile_audits_match_highs_on_seeded_instances():
    # every facility as the audited outcome, top-only profiles, and m up to 6
    for seed in (45, 7):
        rng = np.random.default_rng(seed)
        for trial in range(20):
            profile, fd, _ = random_instance(rng, n_max=40, m_max=6)
            if trial % 3 == 0:
                profile = PreferenceProfile(fd.m, tuple((r[0],) for r in profile.rankings),
                                            top_only=True)
            for winner in range(fd.m):
                for alpha in (0.5, 0.75, 1.0):
                    report = audit_percentile_social_choice(winner, profile, fd, alpha)
                    _check_percentile(report,
                                      highs_percentile_values(winner, profile, fd, alpha))


def _tie_instance():
    fd = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    return PreferenceProfile(2, ((0, 1), (1, 0))), fd


def _loosen_gaps(G, S):
    # every gap d(w) - d(x) the closure bounds grows by 1/2, past what any
    # path of ranking rows implies
    G += 0.5 * (1 - np.eye(G.shape[1]))  # every slice of the chunk


def _tighten_entries(G, S):
    # every positive finite closure entry shrinks by a tenth, below what the
    # ranking rows imply
    for W in (G, S):
        W[np.isfinite(W) & (W > 0)] *= 0.9


@pytest.mark.parametrize("tamper", [_loosen_gaps, _tighten_entries])
def test_tampered_percentile_closure_entry_is_an_error(monkeypatch, tamper):
    # the tampered audit reads new, equal objects: the same ones would share
    # the first audit's closure
    real = audit._closure
    assert audit_percentile_social_choice(0, *_tie_instance(), 1.0).value > 1.0
    monkeypatch.setattr(audit, "_closure", lambda G, S: real(G, S) or tamper(G, S))
    with pytest.raises(InternalInvariantError, match="closure entry"):
        audit_percentile_social_choice(0, *_tie_instance(), 1.0)


def test_tampered_gap_entry_inside_the_certificate_stack_is_an_error(monkeypatch):
    # one ranking's G[w, x] entry grows, for the ranking that binds an
    # alternative x in the middle of the certified entries: at m = 25 each
    # chunk of the stack holds 13 entries, two per alternative, so x is
    # neither in the first nor in the last chunk, and only the check of
    # every entry in every chunk finds it.  The tampered audit reads new,
    # equal objects: the same ones would share the first audit's closure
    rng = np.random.default_rng(2323)
    fd = random_facility_distances(rng, 25, allow_colocated=False)
    profile = preferences_from_metric(random_consistent_metric(rng, fd, 40))
    w, alpha = 0, 0.5
    report = audit_percentile_social_choice(w, profile, fd, alpha)
    xs = [x for x, v in report.per_alternative]
    assert all(1.0 < v < math.inf for _, v in report.per_alternative)  # all stacked
    step = BLOCK // fd.m ** 2
    t = len(xs) // 2
    assert step < 2 * t and 2 * t + 2 < 2 * len(xs) - step
    poly = audit.ConsistencyPolytope(profile, fd)
    x = xs[t]
    j = loop_percentile_candidate(poly, x, w, percentile_rank(profile.n, alpha))[2][0]
    r = poly.ranking_id[j]

    class Tampered(audit.ConsistencyPolytope):
        def __init__(self, *args):
            super().__init__(*args)
            self.G[r, w, x] += 0.5

    monkeypatch.setattr(audit, "ConsistencyPolytope", Tampered)
    entry = re.escape(f"closure entry G[{w}, {x}]")
    with pytest.raises(InternalInvariantError, match=entry):
        audit_percentile_social_choice(w, PreferenceProfile(profile.m, profile.rankings),
                                       facility_distances(fd.facilities.names, fd.values), alpha)


def test_tampered_percentile_witness_is_an_error(monkeypatch):
    # a witness that falls short of the value is an error, not a number
    monkeypatch.setattr(audit, "_percentile_witness", lambda poly, *args: poly.interior_metric())
    profile, fd = _tie_instance()
    with pytest.raises(InternalInvariantError, match="out of order"):
        audit_percentile_social_choice(0, profile, fd, 1.0)


def test_out_of_order_certificate_is_an_error(monkeypatch):
    # a certified bound below the value is an error, not a number: in a sum
    # audit (its closed form) and in an assignment audit (Dinkelbach's run)
    real_sum, real_dinkelbach = audit._sum_pairs, audit._dinkelbach

    def low_sum(*args):
        pairs = real_sum(*args)
        return pairs._replace(upper=pairs.value / 2)

    def low_bound(*args):
        value, upper, seat, point_rows = real_dinkelbach(*args)
        return value, value / 2, seat, point_rows

    monkeypatch.setattr(audit, "_sum_pairs", low_sum)
    monkeypatch.setattr(audit, "_dinkelbach", low_bound)
    profile, fd = _tie_instance()
    with pytest.raises(InternalInvariantError, match="out of order"):
        audit_sum_social_choice(0, profile, fd)
    problem = build_preset("social_choice_sum", 2, fd.facilities)
    with pytest.raises(InternalInvariantError, match="out of order"):
        audit_additive_assignment((0, 0), profile, fd, problem)
