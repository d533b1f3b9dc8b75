"""Constraints, cost functionals and the projection reduction."""

from itertools import product

import numpy as np
import pytest

from ordmech import (AssignmentProblem, ConstraintSet, CostSpec, DistanceCost,
                     FullMetric, InvalidCostError, PreferenceProfile,
                     ProjectedAgents, SolverError, brute_force_optimal,
                     build_preset, facility_distances, project_agents,
                     reduce_and_solve, sum_winner, total_cost)
from ordmech.solvers import SOLVERS

from helpers import (iter_valid_assignments, preferences_from_metric,
                     random_consistent_metric, random_facility_distances)


def test_is_valid_capacity_one():
    cons = ConstraintSet(3, one_per_facility=True)
    assert cons.is_valid((0, 1, 2))
    assert not cons.is_valid((0, 0, 2))


def test_is_valid_single_open():
    cons = ConstraintSet(3, at_most_open=1)
    assert cons.is_valid((1, 1, 1, 1))
    assert not cons.is_valid((1, 2, 1, 1))


def test_is_valid_open_bound():
    cons = ConstraintSet(3, at_most_open=2)
    assert cons.is_valid((0, 0, 1))
    assert not cons.is_valid((0, 0, 1, 2))  # three facilities opened
    assert not cons.is_valid((0, 3))  # no such facility


def test_iter_valid_assignments_enumerates_matchings():
    cons = ConstraintSet(3, one_per_facility=True)
    found = list(iter_valid_assignments(3, cons))
    assert len(found) == 6
    assert found == sorted(found)  # lexicographic order


def test_iter_valid_assignments_matches_filtered_product():
    # the same list in the same order as filtering every assignment by the
    # rules themselves, and is_valid agrees with membership in that list
    rng = np.random.default_rng(31)
    for _ in range(40):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        rules = [ConstraintSet(m), ConstraintSet(m, one_per_facility=True)]
        rules += [ConstraintSet(m, at_most_open=k) for k in range(1, m + 1)]
        for cons in rules:
            expected = [x for x in product(range(m), repeat=n)
                        if len(set(x)) <= (cons.at_most_open or m)
                        and (not cons.one_per_facility or len(set(x)) == n)]
            assert list(iter_valid_assignments(n, cons)) == expected
            for x in product(range(m), repeat=n):
                assert cons.is_valid(x) == (x in expected)


def test_total_cost_basics():
    spec = CostSpec(DistanceCost.SUM)
    D = np.zeros((3, 2))
    assert total_cost((0, 0, 1), D, spec) == 0.0

    # two facilities, opening costs 1 and 100, both used, distance 1 each
    fl = CostSpec(DistanceCost.SUM, opening_costs=(1.0, 100.0))
    D2 = np.array([[1.0, 50.0], [50.0, 1.0]])
    assert total_cost((0, 1), D2, fl) == pytest.approx(103.0)

    mx = CostSpec(DistanceCost.MAX)
    assert total_cost((0, 1), D2, mx) == pytest.approx(1.0)
    assert total_cost((0, 0), D2, mx) == pytest.approx(50.0)


def test_total_cost_matches_independent_recomputation():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        D = rng.uniform(0, 9, (n, m))
        opening = tuple(rng.uniform(0, 4, m))
        spec = CostSpec(DistanceCost.SUM, opening_costs=opening)
        x = tuple(int(f) for f in rng.integers(0, m, n))
        expected = sum(D[i, x[i]] for i in range(n))
        expected += sum(opening[f] for f in set(x))
        assert total_cost(x, D, spec) == pytest.approx(expected, abs=1e-9)
        # a stack of assignments costs exactly what each row does alone
        stack = rng.integers(0, m, (4, n))
        assert spec.facility_cost(stack).tolist() == [spec.facility_cost(tuple(row))
                                                      for row in stack.tolist()]


def test_distance_cost_monotone_and_subadditive():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        s = rng.uniform(0, 10, n)
        t = rng.uniform(0, 10, n)
        for cost in (DistanceCost.SUM, DistanceCost.MAX):
            assert cost.evaluate(np.minimum(s, t)) <= cost.evaluate(s) + 1e-12
            assert (cost.evaluate(s + t)
                    <= cost.evaluate(s) + cost.evaluate(t) + 1e-12)


def test_median_cost_is_a_typed_error():
    with pytest.raises(InvalidCostError):
        build_preset("social_choice_median", 3,
                     facility_distances(("A", "B"), [[0, 1], [1, 0.0]]).facilities)


def test_cost_spec_rejects_negative_costs():
    with pytest.raises(InvalidCostError):
        CostSpec(DistanceCost.SUM, opening_costs=(-1.0,))


def test_problem_without_valid_assignment_rejected():
    # feasibility is decided in closed form at every size, not by a search
    # that stops at 200,000 assignments (3^12 lies past it)
    fd = facility_distances(("A", "B"), [[0, 1], [1, 0.0]])
    cons = ConstraintSet(2, one_per_facility=True)
    with pytest.raises(SolverError):
        AssignmentProblem(3, fd.facilities, cons, CostSpec(DistanceCost.SUM))
    fd3 = facility_distances(("A", "B", "C"), [[0, 1, 1], [1, 0, 1], [1, 1, 0.0]])
    for n in (4, 12):
        with pytest.raises(SolverError):
            AssignmentProblem(n, fd3.facilities, ConstraintSet(3, at_most_open=0),
                              CostSpec(DistanceCost.SUM))


def test_reduce_passes_problem_and_projected_agents():
    rng = np.random.default_rng(21)
    fd = random_facility_distances(rng, 3)
    metric = random_consistent_metric(rng, fd, 3)
    profile = preferences_from_metric(metric)
    problem = build_preset("k_center", 3, fd.facilities, {"k": 2})
    seen = []

    def solver(*args):
        seen.append(args)
        return SOLVERS["k_center"](*args)

    result = reduce_and_solve(problem, profile, fd, solver)
    (got, agents), = seen
    assert got is problem and isinstance(agents, ProjectedAgents)
    assert agents.tops == profile.tops
    assert result == SOLVERS["k_center"](problem, agents)
    # projected agents sit at facility points: rows are rows of the geometry
    for i, t in enumerate(agents.tops):
        assert np.allclose(agents.distance_matrix[i], fd.values[t])
    other = build_preset("k_center", 4, fd.facilities, {"k": 2})
    with pytest.raises(SolverError, match="disagree on the agent count"):
        reduce_and_solve(other, profile, fd, solver)
    assert len(seen) == 1  # the solver never saw the mismatched problem


def test_reduce_social_choice_equals_projected_sum_rule():
    rng = np.random.default_rng(22)
    for _ in range(20):
        fd = random_facility_distances(rng, int(rng.integers(2, 5)))
        metric = random_consistent_metric(rng, fd, int(rng.integers(2, 6)))
        profile = preferences_from_metric(metric)
        problem = build_preset("social_choice_sum", profile.n, fd.facilities)
        solution = reduce_and_solve(problem, profile, fd, brute_force_optimal)
        winner = sum_winner(project_agents(profile, fd)).winner
        assert solution.assignment == (winner,) * profile.n
        assert solution.beta == 1.0 and solution.exact


def test_reduce_matching_worked_example():
    # both agents prefer F1; one sits on it, one is halfway to F2
    fd = facility_distances(("F1", "F2"), [[0, 2], [2, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (0, 1)))
    problem = build_preset("matching_min_cost", 2, fd.facilities)
    solution = reduce_and_solve(problem, profile, fd, SOLVERS["matching"])
    assert sorted(solution.assignment) == [0, 1]
    bad = FullMetric(np.array([[1.0, 1.0], [0.0, 2.0]])
                     if solution.assignment == (0, 1)
                     else np.array([[0.0, 2.0], [1.0, 1.0]]), fd)
    cost = total_cost(solution.assignment, bad.distances, problem.cost_spec)
    best = min(total_cost(x, bad.distances, problem.cost_spec)
               for x in ((0, 1), (1, 0)))
    assert cost / best == pytest.approx(3.0)


def test_reduce_validity_and_beta_propagation():
    rng = np.random.default_rng(23)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        fd = random_facility_distances(rng, m)
        metric = random_consistent_metric(rng, fd, m)
        profile = preferences_from_metric(metric)
        problem = build_preset("k_center", m, fd.facilities, {"k": max(1, m - 1)})
        solution = reduce_and_solve(problem, profile, fd, SOLVERS["k_center"])
        assert problem.constraints.is_valid(solution.assignment)
        assert solution.beta == 2.0 and not solution.exact


def test_build_preset_validation():
    fd = facility_distances(("A", "B"), [[0, 1], [1, 0.0]])
    with pytest.raises(SolverError):
        build_preset("matching_min_cost", 3, fd.facilities)
    with pytest.raises(SolverError):
        build_preset("k_center", 2, fd.facilities, {"k": 5})
    with pytest.raises(SolverError):
        build_preset("facility_location", 2, fd.facilities, {})
    with pytest.raises(SolverError):
        build_preset("mystery", 2, fd.facilities)
