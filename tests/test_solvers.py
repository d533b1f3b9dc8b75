"""Omniscient solvers against brute-force oracles."""

from itertools import combinations, permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ordmech import (PRESET_NAMES, SOLVERS, PreferenceProfile, SearchSpaceError,
                     SolverError, bottleneck_matching, brute_force_optimal,
                     build_preset, facility_distances, facility_location_solver,
                     k_center_greedy, k_median_solver,
                     min_cost_matching, project_agents,
                     total_cost)
from ordmech.cli import main

from ordmech import solvers
from ordmech.solvers import _kuhn_perfect_matching

from helpers import (iter_valid_assignments, preferences_from_metric, random_consistent_metric,
                     random_facility_distances, recursive_kuhn_perfect_matching)


def _projected(preset, fd, rankings, params=None):
    profile = PreferenceProfile(fd.m, tuple(rankings))
    problem = build_preset(preset, profile.n, fd.facilities, params)
    return problem, project_agents(profile, fd)


def test_brute_force_single_agent():
    fd = facility_distances(("X",), [[0.0]])
    result = brute_force_optimal(*_projected("social_choice_sum", fd, [(0,)]))
    assert result.assignment == (0,)
    assert result.exact and result.beta == 1.0


def test_brute_force_matching_antidiagonal():
    fd = facility_distances(("A", "B"), [[0, 1], [1, 0.0]])
    problem = build_preset("matching_min_cost", 2, fd.facilities)
    # projected agents whose costs are the worked example's
    agents = SimpleNamespace(n=2, distance_matrix=np.array([[0.0, 5.0], [1.0, 9.0]]))
    result = brute_force_optimal(problem, agents)
    assert result.assignment == (1, 0)
    assert result.value == pytest.approx(6.0)


def test_brute_force_social_choice_is_column_argmin():
    rng = np.random.default_rng(2)
    for _ in range(20):
        fd = random_facility_distances(rng, int(rng.integers(2, 5)))
        metric = random_consistent_metric(rng, fd, int(rng.integers(2, 6)))
        profile = preferences_from_metric(metric)
        problem = build_preset("social_choice_sum", profile.n, fd.facilities)
        agents = project_agents(profile, fd)
        result = brute_force_optimal(problem, agents)
        sums = agents.distance_matrix.sum(axis=0)
        assert result.assignment == (int(np.argmin(sums)),) * profile.n
        assert result.value == pytest.approx(float(sums.min()))


def test_brute_force_respects_cap(monkeypatch):
    # matchings are enumerated, and 10! of them exceed the search budget
    fd = random_facility_distances(np.random.default_rng(0), 10, allow_colocated=False)
    profile = PreferenceProfile(10, (tuple(range(10)),) * 10)
    prob = build_preset("matching_min_cost", 10, fd.facilities)
    with pytest.raises(SearchSpaceError):
        brute_force_optimal(prob, project_agents(profile, fd))
    # facility location opens sets of every size: the 2^19 - 1 = 524,287 sets
    # of 19 facilities are searched, the 1,048,575 of 20 refused unscreened
    class Screened(Exception):
        pass

    def screen(*args, **kwargs):
        raise Screened

    monkeypatch.setattr(solvers, "_near_minimal", screen)
    for m in (19, 20):
        fd = random_facility_distances(np.random.default_rng(m), m)
        with pytest.raises(Screened if m == 19 else SearchSpaceError):
            brute_force_optimal(*_projected("facility_location", fd, [tuple(range(m))] * 30,
                                            {"opening_costs": [1.0] * m}))


def test_brute_force_enumerates_matchings_within_the_cap():
    # 8! = 40,320 matchings fit the budget, although 8^8 assignments do not
    rng = np.random.default_rng(7)
    fd = random_facility_distances(rng, 8, allow_colocated=False)
    profile = PreferenceProfile(8, tuple(tuple(rng.permutation(8).tolist()) for _ in range(8)))
    problem = build_preset("matching_min_cost", 8, fd.facilities)
    agents = project_agents(profile, fd)
    assert len(set(agents.tops)) < 8  # agents share tops, so matchings tie
    D, spec = agents.distance_matrix, problem.cost_spec
    result = brute_force_optimal(problem, agents)
    assert result.exact and result.beta == 1.0
    assert result.value == pytest.approx(min_cost_matching(D).value, rel=1e-12)
    # the first least matching in lexicographic order, as the enumeration lists them
    first = min(iter_valid_assignments(8, problem.constraints), key=lambda x: total_cost(x, D, spec))
    assert result.assignment == first
    assert result.value == total_cost(first, D, spec)


def _matching_oracle(cost):
    n = cost.shape[0]
    best = min(permutations(range(n)),
               key=lambda p: sum(cost[i, p[i]] for i in range(n)))
    return sum(cost[i, best[i]] for i in range(n))


def _bottleneck_oracle(cost):
    n = cost.shape[0]
    return min(max(cost[i, p[i]] for i in range(n))
               for p in permutations(range(n)))


def test_min_cost_matching_zero_diagonal():
    cost = np.array([[0.0, 3, 4], [5, 0, 6], [7, 8, 0]])
    result = min_cost_matching(cost)
    assert result.assignment == (0, 1, 2)
    assert result.value == 0.0


def test_min_cost_matching_all_equal():
    result = min_cost_matching(np.full((4, 4), 2.5))
    assert sorted(result.assignment) == [0, 1, 2, 3]
    assert result.value == pytest.approx(10.0)


def test_min_cost_matching_equals_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, (n, n))
        result = min_cost_matching(cost)
        assert sorted(result.assignment) == list(range(n))
        assert result.value == pytest.approx(_matching_oracle(cost), abs=1e-9)


def test_min_cost_matching_rejects_non_square():
    with pytest.raises(SolverError):
        min_cost_matching(np.zeros((2, 3)))


def test_bottleneck_zero_matrix():
    result = bottleneck_matching(np.zeros((3, 3)))
    assert result.value == 0.0


def test_bottleneck_two_by_two_forced():
    eps = 1e-6
    cost = np.array([[1.0, 2.0], [eps, 2.0]])
    result = bottleneck_matching(cost)
    assert result.value == pytest.approx(2.0)  # both matchings peak at 2


def test_bottleneck_equals_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, (n, n))
        if rng.random() < 0.3:
            cost = np.round(cost)  # force ties between levels
        result = bottleneck_matching(cost)
        assert sorted(result.assignment) == list(range(n))
        assert result.value == pytest.approx(_bottleneck_oracle(cost), abs=1e-9)


def test_kuhn_matching_runs_paths_through_every_row():
    # row r may take columns r - 1 and r: row r's augmenting search runs
    # through rows r - 1, ..., 0 before it takes column r, deeper than the
    # recursion limit lets the recursive search go (RecursionError, after
    # about a minute of scanning)
    n = 1200
    chain = np.eye(n, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    assert _kuhn_perfect_matching(chain) == list(range(n))
    chain[0, 0] = False  # row 0 has no column left: no perfect matching
    assert _kuhn_perfect_matching(chain) is None


def test_kuhn_matching_matches_the_recursive_search():
    # the same augmenting paths in the same order, so the same matching
    rng = np.random.default_rng(16)
    for _ in range(300):
        n = int(rng.integers(1, 61))
        allowed = rng.random((n, n)) < rng.uniform(0.02, 0.3)
        if rng.random() < 0.5:  # dense enough that most have a perfect matching
            allowed |= np.eye(n, dtype=bool)[rng.permutation(n)]
        assert _kuhn_perfect_matching(allowed) == recursive_kuhn_perfect_matching(allowed)


def test_greedy_facility_location_beta_sums_left_to_right():
    # H_1000 summed left to right, as Python before 3.12 sums floats; sum()
    # compensates from 3.12 on and reads 7.485470860550345
    D = np.random.default_rng(17).uniform(0, 10, (1000, 17))
    result = solvers.facility_location_solver(D, np.ones(17))
    assert not result.exact and result.beta == 7.485470860550343


def _kcenter_opt(fd_values, tops, k):
    m = fd_values.shape[0]
    return min(max(min(fd_values[t, f] for f in subset) for t in tops)
               for subset in combinations(range(m), k))


def test_k_center_full_budget_zero_radius():
    rng = np.random.default_rng(4)
    fd = random_facility_distances(rng, 4)
    tops = (0, 1, 3, 3)
    result = k_center_greedy(fd.values, tops, 4)
    assert result.value == 0.0


def test_k_center_two_groups():
    D = 7.0
    l = np.array([[0.0, D], [D, 0.0]])
    result = k_center_greedy(l, (0, 0, 1, 1), 1)
    assert result.value == pytest.approx(D)
    assert result.assignment == (0, 0, 0, 0)


def test_k_center_within_twice_optimal():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        fd = random_facility_distances(rng, m)
        n = int(rng.integers(2, 7))
        tops = tuple(int(t) for t in rng.integers(0, m, n))
        k = int(rng.integers(1, m + 1))
        result = k_center_greedy(fd.values, tops, k)
        opt = _kcenter_opt(fd.values, tops, k)
        assert result.value <= 2 * opt + 1e-9
        assert result.beta == 2.0 and not result.exact


def test_k_center_rejects_bad_k():
    fd = random_facility_distances(np.random.default_rng(1), 3)
    with pytest.raises(SolverError):
        k_center_greedy(fd.values, (0, 1), 0)


def test_k_median_exact_matches_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        fd = random_facility_distances(rng, m)
        n = int(rng.integers(2, 7))
        tops = tuple(int(t) for t in rng.integers(0, m, n))
        k = int(rng.integers(1, m + 1))
        result = k_median_solver(fd.values, tops, k)
        assert result.exact
        opt = min(sum(min(fd.values[t, f] for f in subset) for t in tops)
                  for subset in combinations(range(m), k))
        assert result.value == pytest.approx(opt, abs=1e-9)
        if k == m:
            assert result.value == pytest.approx(0.0)


def test_k_median_local_search_bracketed_by_exact(monkeypatch):
    rng = np.random.default_rng(14)
    for _ in range(20):
        fd = random_facility_distances(rng, 5)
        tops = tuple(int(t) for t in rng.integers(0, 5, 6))
        exact = k_median_solver(fd.values, tops, 2)
        monkeypatch.setattr(solvers, "KMEDIAN_EXACT_CAP", 0)
        local = k_median_solver(fd.values, tops, 2)
        monkeypatch.undo()
        assert not local.exact and local.beta == 5.0
        assert exact.value <= local.value + 1e-9
        assert local.value <= 5 * exact.value + 1e-9


def test_heuristic_solvers_do_not_depend_on_the_unit_of_length(monkeypatch):
    # the greedy facility location (2^m - 1 > KMEDIAN_EXACT_CAP) and the k-median
    # local search step only on a saving relative to the current cost
    monkeypatch.setattr(solvers, "KMEDIAN_EXACT_CAP", 0)
    rng = np.random.default_rng(27)
    for _ in range(40):
        m, n, k = int(rng.integers(17, 22)), int(rng.integers(5, 15)), int(rng.integers(2, 6))
        fd = random_facility_distances(rng, m)
        tops = [int(t) for t in rng.integers(0, m, n)]
        costs = rng.uniform(0.5, 3.0, m)
        unit = (facility_location_solver(fd.values[tops], costs).assignment,
                k_median_solver(fd.values, tops, k).assignment)
        for scale in (2.0 ** -40, 1e-15, 1e6):
            l = fd.values * scale
            assert (facility_location_solver(l[tops], costs * scale).assignment,
                    k_median_solver(l, tops, k).assignment) == unit, scale


def test_facility_location_single_facility():
    result = facility_location_solver(np.array([[2.0], [3.0]]), [4.0])
    assert result.assignment == (0, 0)
    assert result.value == pytest.approx(9.0)


def test_facility_location_cheap_facility_wins():
    eps = 1e-6
    D = np.full((2, 2), eps)
    result = facility_location_solver(D, [1.0, 100.0])
    assert result.assignment == (0, 0)
    assert result.value == pytest.approx(1 + 2 * eps)


def test_facility_location_exact_equals_oracle():
    rng = np.random.default_rng(15)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        fd = random_facility_distances(rng, max(m, 1))
        D = random_consistent_metric(rng, fd, n).distances[:, :m]
        costs = rng.uniform(0, 5, m)
        result = facility_location_solver(D, costs)
        best = None
        for r in range(1, m + 1):
            for subset in combinations(range(m), r):
                x = tuple(min(subset, key=lambda f: (D[i, f], f)) for i in range(n))
                used = set(x)
                val = sum(costs[f] for f in used) + sum(D[i, x[i]] for i in range(n))
                best = val if best is None else min(best, val)
        assert result.value == pytest.approx(best, abs=1e-9)


def test_solver_results_are_valid_assignments():
    rng = np.random.default_rng(16)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        fd = random_facility_distances(rng, m)
        n = m  # matching-compatible shape
        metric = random_consistent_metric(rng, fd, n)
        profile = preferences_from_metric(metric)
        for preset, solver_name, params in (
                ("social_choice_sum", "brute_force", None),
                ("matching_min_cost", "matching", None),
                ("matching_egalitarian", "bottleneck", None),
                ("k_center", "k_center", {"k": max(1, m - 1)}),
                ("k_median", "k_median", {"k": max(1, m - 1)}),
                ("facility_location", "facility_location",
                 {"opening_costs": list(rng.uniform(0, 3, m))})):
            problem = build_preset(preset, n, fd.facilities, params)
            result = SOLVERS[solver_name](problem, project_agents(profile, fd))
            assert problem.constraints.is_valid(result.assignment)


def test_preset_solvers_refuse_other_presets(capsys):
    fd = random_facility_distances(np.random.default_rng(17), 3)
    agents = project_agents(PreferenceProfile(3, ((0, 1, 2), (1, 0, 2), (2, 1, 0))), fd)
    params = {"k_center": {"k": 2}, "k_median": {"k": 2},
              "facility_location": {"opening_costs": [1.0, 0.5, 2.0]}}
    problems = {preset: build_preset(preset, 3, fd.facilities, params.get(preset))
                for preset in PRESET_NAMES if preset != "social_choice_median"}
    own = {"matching": "matching_min_cost", "bottleneck": "matching_egalitarian",
           "k_center": "k_center", "k_median": "k_median",
           "facility_location": "facility_location"}
    for solver, preset in own.items():
        result = SOLVERS[solver](problems[preset], agents)
        assert problems[preset].constraints.is_valid(result.assignment)
        for other, problem in problems.items():
            if other != preset:
                with pytest.raises(SolverError, match=f"expects preset in .*{preset}.*{other}"):
                    SOLVERS[solver](problem, agents)
    # on the command line, a solver for another preset is a usage error
    fixture = Path(__file__).parent / "fixtures" / "kmedian_scenarios.json"
    capsys.readouterr()
    assert main(["solve", "--instance", str(fixture), "--mechanism", "reduce:matching"]) == 2
    assert capsys.readouterr().err == (
        "error: solver expects preset in ('matching_min_cost',), got 'k_median'\n")
