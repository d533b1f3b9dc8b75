"""Audits against the HiGHS LPs they replaced.

Every sum and assignment value must match the scaled ratio LP of
``helpers.highs_ratio_pair`` to 1e-12 relative, every percentile value the
binding configuration LP of ``helpers.highs_percentile_pair`` to 1e-9
relative, and every report must put its witness's ratio, its value and its
certified upper bound in that order within 1e-9 relative.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from ordmech import (InternalInvariantError, PreferenceProfile,
                     audit_additive_assignment, audit_percentile_social_choice,
                     audit_sum_social_choice, build_preset, distance_partial_order,
                     facility_distances, iter_valid_assignments, median_winner,
                     preferences_from_metric, reduce_and_solve)
from ordmech import audit
from ordmech.fileio import load_instance
from ordmech.gallery import gen_sum5_tight
from ordmech.solvers import SOLVERS

from helpers import (highs_assignment_values, highs_percentile_values, highs_sum_values,
                     random_consistent_metric, random_facility_distances, random_instance)

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
            _check(report, highs_assignment_values(x, profile, fd, problem))


@pytest.mark.parametrize("eps", [0.0, 1e-13])
def test_vanishing_denominator_with_vanishing_numerator(eps):
    # X and Z lie eps apart and every agent can sit on Z: the denominator of
    # (Z, Z) against (X, X) vanishes with its numerator (below 1e-12), so
    # the ratio is maximized over vertices whose denominator may be zero
    fd = facility_distances(("X", "Z", "Y"), [[0.0, eps, 2.0], [eps, 0.0, 2.0],
                                              [2.0, 2.0, 0.0]])
    profile = PreferenceProfile(3, ((0, 1, 2), (1, 0, 2), (0, 1, 2)))
    assert audit.ConsistencyPolytope(profile, fd).can_sit[:, 1].all()
    problem = build_preset("social_choice_sum", 3, fd.facilities)
    for x in iter_valid_assignments(3, problem.constraints):
        report = audit_additive_assignment(x, profile, fd, problem)
        _check(report, highs_assignment_values(x, profile, fd, problem))
    report = audit_additive_assignment((0, 0, 0), profile, fd, problem)
    assert report.alternative_value((1, 1, 1)) == 1.0
    assert report.flags == ()
    # everyone can sit on X too, while Y lies 2 away: Y against X is infinite
    report = audit_additive_assignment((2, 2, 2), profile, fd, problem)
    assert "denominator_vanishes" in report.flags
    assert report.value == math.inf and report.certified_upper == math.inf


def test_assignment_audit_spanning_several_blocks_matches_highs(monkeypatch):
    # 189 k-median alternatives of six agents: their (alternative, class)
    # rows fill several vertex blocks, and each value still matches its LP
    blocks = []
    real = audit._octagon_vertices
    monkeypatch.setattr(audit, "_octagon_vertices", lambda h: blocks.append(len(h)) or real(h))
    rng = np.random.default_rng(SEED + 3)
    fd = random_facility_distances(rng, 3)
    profile = preferences_from_metric(random_consistent_metric(rng, fd, 6))
    problem = build_preset("k_median", 6, fd.facilities, {"k": 2})
    x = reduce_and_solve(problem, profile, fd, SOLVERS["brute_force"]).assignment
    report = audit_additive_assignment(x, profile, fd, problem)
    assert len(report.per_alternative) == 188 and len(blocks) > 1
    _check(report, highs_assignment_values(x, profile, fd, problem))


@pytest.mark.parametrize("eps, far, third", [(0.0, 2.0, (2, 0, 1)),
                                              (6e-13, 1000.0, (0, 1, 2))])
def test_assignment_audit_mixing_vanishing_and_ordinary_alternatives(eps, far, third):
    # X and Z lie eps apart and Y far from both; agents can sit on their
    # top choice and on anything co-located with it.  Against (Z, Z, Z),
    # an alternative that seats everyone has a vanishing denominator: its
    # ratio is infinite where the numerator stays above 1e-12 (agent 2
    # moved from Y at eps 0, or two agents moved to X at eps 6e-13) and
    # at least 1 where it does not (one agent moved to X); the rest are
    # ordinary ratios
    fd = facility_distances(("X", "Z", "Y"), [[0.0, eps, far], [eps, 0.0, far],
                                              [far, far, 0.0]])
    profile = PreferenceProfile(3, ((0, 1, 2), (1, 0, 2), third))
    problem = build_preset("k_median", 3, fd.facilities, {"k": 3})
    report = audit_additive_assignment((1, 1, 1), profile, fd, problem)
    _check(report, highs_assignment_values((1, 1, 1), profile, fd, problem))
    values = dict(report.per_alternative)
    infinite = {alt for alt, value in values.items() if value == math.inf}
    if eps:
        assert infinite == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)}
        assert values[(0, 1, 1)] == values[(1, 0, 1)] == 1.0
    else:
        assert infinite == {(0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2)}
        assert values[(0, 2, 2)] == 3.0 and values[(2, 2, 2)] == 2.0
    assert report.flags == ("denominator_vanishes",)
    assert report.value == report.certified_upper == math.inf


def test_dinkelbach_that_needs_two_steps_fails_at_one(monkeypatch):
    # the tie instance's ratio 3 takes a step from rho = 1 to 3 and a
    # second to certify it: capped at one step, the audit raises
    profile, fd = _tie_instance()
    monkeypatch.setattr(audit, "DINKELBACH_MAX_ITER", 2)
    assert audit_sum_social_choice(0, profile, fd).value == 3.0
    monkeypatch.setattr(audit, "DINKELBACH_MAX_ITER", 1)
    with pytest.raises(InternalInvariantError, match="did not converge"):
        audit_sum_social_choice(0, profile, fd)


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


def test_tampered_percentile_closure_entry_is_an_error(monkeypatch):
    # every gap d(w) - d(x) the closure bounds grows by 1/2, past what any
    # path of ranking rows implies
    real = audit._closure

    def loose(W):
        W = real(W)
        even = np.arange(0, W.shape[1], 2)
        for ranking in W:  # every slice of the chunk
            ranking[np.ix_(even, even)] += 0.5 * (1 - np.eye(len(even)))
        return W

    profile, fd = _tie_instance()
    assert audit_percentile_social_choice(0, profile, fd, 1.0).value > 1.0
    monkeypatch.setattr(audit, "_closure", loose)
    with pytest.raises(InternalInvariantError, match="closure entry"):
        audit_percentile_social_choice(0, profile, fd, 1.0)


def test_tampered_percentile_witness_is_an_error(monkeypatch):
    # a witness that falls short of the value is an error, not a number
    monkeypatch.setattr(audit, "_percentile_witness", lambda poly, *args: poly.interior_metric())
    profile, fd = _tie_instance()
    with pytest.raises(InternalInvariantError, match="out of order"):
        audit_percentile_social_choice(0, profile, fd, 1.0)


def test_out_of_order_certificate_is_an_error(monkeypatch):
    real = audit._ratio_pairs

    def low_bound(*args):
        outcome = real(*args)
        return outcome._replace(upper=outcome.value / 2)

    monkeypatch.setattr(audit, "_ratio_pairs", low_bound)
    fd = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (1, 0)))
    with pytest.raises(InternalInvariantError):
        audit_sum_social_choice(0, profile, fd)
