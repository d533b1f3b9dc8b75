"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one verdict line; run with `pytest tests/test_acceptance.py
-v -s` to see them.  Random suites are seeded and shared across criteria.
"""

import math
import time
from itertools import combinations, permutations

import numpy as np
import pytest

from ordmech import (PreferenceProfile, audit_additive_assignment,
                     audit_percentile_social_choice, audit_sum_social_choice,
                     bottleneck_matching, brute_force_optimal, build_preset,
                     check_consistency, distance_partial_order,
                     evaluate_median_cost, evaluate_percentile_cost,
                     evaluate_sum_cost, facility_distances,
                     gen_worked_example, k_center_greedy, median_winner, min_cost_matching,
                     preferences_from_metric, project_agents,
                     reduce_and_solve, sample_consistent_metric, sum_winner,
                     total_cost, verify_worked_example)
from ordmech.assignment import DistanceCost
from ordmech.cli import main as cli_main
from ordmech.solvers import SOLVERS

from helpers import (iter_valid_assignments, random_consistent_metric,
                     random_facility_distances, random_instance)

SEED = 20260810
TOL = 1e-6


def _verdict(num: int, ok: bool, detail: str):
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def suite_500():
    rng = np.random.default_rng(SEED)
    return [random_instance(rng, n_max=8, m_max=5) for _ in range(500)]


@pytest.fixture(scope="module")
def suite_median_200():
    rng = np.random.default_rng(SEED + 1)
    return [random_instance(rng, n_max=7, m_max=4, m_min=3, n_min=3)
            for _ in range(200)]


def test_criterion_01_projected_sum_distortion_at_most_3(suite_500):
    worst = 0.0
    for profile, fd, _ in suite_500:
        winner = sum_winner(project_agents(profile, fd)).winner
        report = audit_sum_social_choice(winner, profile, fd)
        worst = max(worst, report.value)
    _verdict(1, worst <= 3 + TOL,
             f"max audited sum distortion {worst:.9f} over 500 instances")


def test_criterion_02_two_candidate_tie_is_exactly_3():
    fd = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (1, 0)))
    values = []
    for winner in (0, 1):
        report = audit_sum_social_choice(winner, profile, fd)
        values.append(report.value)
        assert report.witness is not None
        assert abs(report.witness_ratio - report.value) <= TOL
    ok = all(abs(v - 3.0) <= TOL for v in values)
    _verdict(2, ok, f"tie instance audits to {values} for either winner")


def test_criterion_03_augmented_majority_median_at_most_3(suite_median_200):
    worst = 0.0
    winners = []
    for profile, fd, _ in suite_median_200:
        winner = median_winner(profile, distance_partial_order(fd)).winner
        winners.append(winner)
        report = audit_percentile_social_choice(winner, profile, fd, 0.5)
        assert report.exact, "median audits must be exact"
        worst = max(worst, report.value)

    # larger profiles, where the audit once fell back to sampling
    rng = np.random.default_rng(SEED + 6)
    worst_large = 0.0
    for _ in range(20):
        profile, fd, _ = random_instance(rng, n_max=40, m_max=4, m_min=3, n_min=9)
        winner = median_winner(profile, distance_partial_order(fd)).winner
        report = audit_percentile_social_choice(winner, profile, fd, 0.5)
        assert report.exact, "median audits must be exact beyond eight agents"
        assert abs(report.witness_ratio - report.value) <= TOL * report.value
        worst_large = max(worst_large, report.value)
    ok_exact = max(worst, worst_large) <= 3 + TOL

    alphas = (0.5, 0.6, 0.75, 1.0)
    worst_sampled = {a: 0.0 for a in alphas}
    for idx, (profile, fd, _) in enumerate(suite_median_200[:100]):
        winner = winners[idx]
        for s in range(10):
            metric = sample_consistent_metric(profile, fd,
                                              seed=SEED + 131 * idx + s)
            for a in alphas:
                pcs = [evaluate_percentile_cost(f, metric, a)
                       for f in range(fd.m)]
                best = min(pcs)
                assert pcs[winner] <= 3 * best + 1e-7, (idx, s, a)
                if best > 1e-9:
                    worst_sampled[a] = max(worst_sampled[a], pcs[winner] / best)
    ok_sampled = all(v <= 3 + TOL for v in worst_sampled.values())
    _verdict(3, ok_exact and ok_sampled,
             f"max exact median distortion {worst:.9f} (n <= 7), "
             f"{worst_large:.9f} (9 <= n <= 40); sampled ratios "
             + ", ".join(f"a={a}: {v:.6f}" for a, v in worst_sampled.items()))


def test_criterion_04_top_choice_strawman_vs_full_rankings():
    ex = gen_worked_example("median_topchoice_bad")
    proj = sum_winner(project_agents(ex.profile, ex.fd))
    med = [evaluate_median_cost(f, ex.metric) for f in range(4)]
    ratio = med[proj.winner] / min(med)
    ok_straw = (med[proj.winner] == 5.0 and min(med) == 1.0 and ratio == 5.0)
    outcome = median_winner(ex.profile, distance_partial_order(ex.fd))
    report = audit_percentile_social_choice(outcome.winner, ex.profile, ex.fd, 0.5)
    ok_full = report.exact and report.value <= 3 + TOL
    _verdict(4, ok_straw and ok_full,
             f"projected rule median ratio {ratio}; full-ranking winner "
             f"audits to {report.value:.9f}")


def test_criterion_05_sum_distortion_5_tight(suite_500):
    q, eps = 1000, 1e-4
    ex = gen_worked_example("sum5_tight", q=q, eps=eps)
    outcome = median_winner(ex.profile, distance_partial_order(ex.fd))
    costs = [evaluate_sum_cost(f, ex.metric) for f in range(3)]
    realized = costs[outcome.winner] / min(costs)
    expected = (q * (5 - 4 * eps) + 1) / (q + 1)
    ok_tight = outcome.winner == 1 and abs(realized - expected) <= 1e-9

    worst = 0.0
    for profile, fd, _ in suite_500:
        winner = median_winner(profile, distance_partial_order(fd)).winner
        report = audit_sum_social_choice(winner, profile, fd)
        worst = max(worst, report.value)
    ok_bound = worst <= 5 + TOL
    _verdict(5, ok_tight and ok_bound,
             f"realized ratio {realized:.9f} vs formula {expected:.9f}; max "
             f"audited sum distortion of the median rule {worst:.9f}")


def test_criterion_06_matching_reduction_at_most_3():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 5))
        fd = random_facility_distances(rng, m)
        metric = random_consistent_metric(rng, fd, m)
        profile = preferences_from_metric(metric)
        problem = build_preset("matching_min_cost", m, fd.facilities)
        solution = reduce_and_solve(problem, profile, fd, SOLVERS["matching"])
        report = audit_additive_assignment(solution.assignment, profile, fd,
                                           problem)
        worst = max(worst, report.value)
    ok_random = worst <= 3 + TOL

    ex = gen_worked_example("matching_lb3")
    problem = build_preset("matching_min_cost", 2, ex.facilities)
    lb = audit_additive_assignment(ex.scenarios[0].assignment, ex.profile,
                                   ex.fd, problem)
    ok_lb = abs(lb.value - 3.0) <= TOL
    _verdict(6, ok_random and ok_lb,
             f"max audited matching distortion {worst:.9f} over 200 instances; "
             f"worked example audits to {lb.value:.9f}")


def _preset_catalog(m, rng):
    k = int(rng.integers(1, m + 1))
    costs = [float(c) for c in rng.uniform(0.0, 3.0, m)]
    return [("social_choice_sum", {}),
            ("matching_min_cost", {}),
            ("matching_egalitarian", {}),
            ("k_center", {"k": k}),
            ("k_median", {"k": k}),
            ("facility_location", {"opening_costs": costs})]


def test_criterion_07_black_box_reduction_inequality():
    rng = np.random.default_rng(SEED + 3)
    worst_exact, worst_greedy = 0.0, 0.0
    for idx in range(200):
        m = int(rng.integers(2, 4))
        fd = random_facility_distances(rng, m)
        metric = random_consistent_metric(rng, fd, m)
        profile = preferences_from_metric(metric)
        metrics = [sample_consistent_metric(profile, fd,
                                            seed=SEED + 997 * idx + s)
                   for s in range(20)]
        for preset, params in _preset_catalog(m, rng):
            problem = build_preset(preset, m, fd.facilities, params)
            solution = reduce_and_solve(problem, profile, fd,
                                        brute_force_optimal)
            alts = list(iter_valid_assignments(m, problem.constraints))
            for d in metrics:
                mine = total_cost(solution.assignment, d.distances,
                                  problem.cost_spec)
                opt = min(total_cost(x, d.distances, problem.cost_spec)
                          for x in alts)
                assert mine <= 3 * opt + 1e-9, (preset, idx)
                if opt > 1e-12:
                    worst_exact = max(worst_exact, mine / opt)
        k = int(rng.integers(1, m + 1))
        problem = build_preset("k_center", m, fd.facilities, {"k": k})
        solution = reduce_and_solve(problem, profile, fd, SOLVERS["k_center"])
        alts = list(iter_valid_assignments(m, problem.constraints))
        for d in metrics:
            mine = total_cost(solution.assignment, d.distances,
                              problem.cost_spec)
            opt = min(total_cost(x, d.distances, problem.cost_spec)
                      for x in alts)
            assert mine <= 5 * opt + 1e-9, ("k_center_greedy", idx)
            if opt > 1e-12:
                worst_greedy = max(worst_greedy, mine / opt)
    _verdict(7, True,
             f"brute-force reduction ratio peak {worst_exact:.6f} <= 3; "
             f"greedy k-center peak {worst_greedy:.6f} <= 5")


def test_criterion_08_appendix_lower_bounds():
    cases = (("median_matching_unbounded", {"eps": 1e-3}),
             ("facility_location_unbounded", {"L": 1e6}),
             ("kmedian_lb", {"q": 5}),
             ("egalitarian_lb", {"eps": 1e-6}))
    failures = []
    for name, params in cases:
        for result in verify_worked_example(name, **params):
            if not result.passed:
                failures.append((name, result.label, result.detail))
    _verdict(8, not failures,
             "all appendix constructions reproduce their documented ratios"
             if not failures else f"failures: {failures}")


def test_criterion_09_solver_oracles():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, (n, n))
        exact = min(sum(cost[i, p[i]] for i in range(n))
                    for p in permutations(range(n)))
        assert min_cost_matching(cost).value == pytest.approx(exact, abs=1e-9)
        exact_btl = min(max(cost[i, p[i]] for i in range(n))
                        for p in permutations(range(n)))
        assert bottleneck_matching(cost).value == pytest.approx(exact_btl,
                                                                abs=1e-9)
    worst_factor = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 6))
        fd = random_facility_distances(rng, m)
        n = int(rng.integers(2, 7))
        tops = tuple(int(t) for t in rng.integers(0, m, n))
        k = int(rng.integers(1, m + 1))
        greedy = k_center_greedy(fd.values, tops, k).value
        opt = min(max(min(fd.values[t, f] for f in sub) for t in tops)
                  for sub in combinations(range(m), k))
        assert greedy <= 2 * opt + 1e-9
        if opt > 1e-12:
            worst_factor = max(worst_factor, greedy / opt)
    _verdict(9, True,
             f"matchings equal brute force on 200 trials each; greedy "
             f"k-center factor peak {worst_factor:.6f} <= 2")


def test_criterion_10_property_suites(tmp_path):
    rng = np.random.default_rng(SEED + 5)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        s, t = rng.uniform(0, 10, n), rng.uniform(0, 10, n)
        for cost in (DistanceCost.SUM, DistanceCost.MAX):
            assert cost.evaluate(np.minimum(s, t)) <= cost.evaluate(s) + 1e-12
            assert (cost.evaluate(s + t)
                    <= cost.evaluate(s) + cost.evaluate(t) + 1e-12)

    for _ in range(100):
        profile, fd, metric = random_instance(rng, n_max=6, m_max=4)
        assert check_consistency(profile, metric)

    fidelity = 0.0
    for _ in range(30):
        profile, fd, _ = random_instance(rng, n_max=5, m_max=4)
        winner = sum_winner(project_agents(profile, fd)).winner
        report = audit_sum_social_choice(winner, profile, fd)
        assert check_consistency(profile, report.witness, tol=1e-7)
        if math.isfinite(report.value):
            gap = abs(report.witness_ratio - report.value)
            fidelity = max(fidelity, gap / max(1.0, report.value))
    assert fidelity <= 1e-6

    from pathlib import Path
    from ordmech.fileio import parse_instance, serialize_instance
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
    assert fixtures
    for path in fixtures:
        normalized = serialize_instance(parse_instance(path.read_text()))
        assert serialize_instance(parse_instance(normalized)) == normalized

    start = time.time()
    code = cli_main(["repro", "--all"])
    elapsed = time.time() - start
    assert code == 0
    assert elapsed < 300.0
    _verdict(10, True,
             f"cost-functional properties on 1000 pairs, witness fidelity "
             f"{fidelity:.2e}, fixtures round-trip, repro --all exit 0 in "
             f"{elapsed:.1f}s")
