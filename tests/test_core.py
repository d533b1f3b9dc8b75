"""Metric validation, profiles, projection and the consistency closure."""

import numpy as np
import pytest

from ordmech import (FullMetric, MetricError, PreferenceProfile,
                     check_consistency, consistency_constraints,
                     facility_distances, preferences_from_metric,
                     project_agents, shortest_path_completion,
                     validate_distance_matrix)
from ordmech.core import MAX_DISTANCE, pair_indices
from ordmech.lp import solve_lp

from helpers import random_consistent_metric, random_facility_distances, random_instance


def test_validate_zero_matrix_ok():
    assert validate_distance_matrix(np.zeros((3, 3))).ok


def test_validate_skinny_triangle_ok():
    l = np.array([[0, 2, 1000], [2, 0, 1000], [1000, 1000, 0.0]])
    assert validate_distance_matrix(l).ok


def test_validate_broken_triangle_named():
    l = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0.0]])
    check = validate_distance_matrix(l)
    assert not check.ok
    assert check.reason == "triangle inequality violated"
    assert set(check.triple) == {0, 1, 2}


def test_validate_rejects_asymmetry_and_negatives():
    assert validate_distance_matrix([[0, 1], [2, 0]]).reason == "asymmetric"
    assert validate_distance_matrix([[0, -1], [-1, 0]]).reason == "negative distance"
    with pytest.raises(MetricError):
        validate_distance_matrix(np.zeros((2, 3)))


def _line_fd():
    return facility_distances(("F1", "F2", "F3"),
                              [[0, 1, 2], [1, 0, 1], [2, 1, 0.0]])


def test_preferences_agent_on_facility():
    fd = _line_fd()
    metric = FullMetric([[1.0, 0.0, 1.0]], fd)
    profile = preferences_from_metric(metric)
    assert profile.rankings[0] == (1, 0, 2)  # tie at distance 1 breaks to F1


def test_preferences_simple_order():
    fd = facility_distances(("X", "Y"), [[0, 1], [1, 0.0]])
    metric = FullMetric([[1.0, 2.0]], fd)
    assert preferences_from_metric(metric).rankings[0] == (0, 1)


def test_preferences_match_independent_sort_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        fd = random_facility_distances(rng, 3)
        metric = random_consistent_metric(rng, fd, 4)
        profile = preferences_from_metric(metric)
        for i in range(4):
            pairs = sorted((metric.distances[i, j], j) for j in range(3))
            assert profile.rankings[i] == tuple(j for _, j in pairs)


def test_consistency_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(30):
        profile, fd, metric = random_instance(rng, n_max=6, m_max=4)
        assert check_consistency(profile, metric)


def test_consistency_direct_violation_and_ties():
    fd = facility_distances(("X", "Y"), [[0, 2], [2, 0.0]])
    profile = PreferenceProfile(2, ((0, 1),))
    assert not check_consistency(profile, FullMetric([[3.0, 1.0]], fd))
    assert check_consistency(profile, FullMetric([[1.0, 1.0]], fd))


def test_top_only_consistency():
    fd = facility_distances(("X", "Y"), [[0, 2], [2, 0.0]])
    profile = PreferenceProfile(2, ((1,),), top_only=True)
    assert check_consistency(profile, FullMetric([[3.0, 1.0]], fd))
    assert not check_consistency(profile, FullMetric([[1.0, 3.0]], fd))


def test_profile_classes_are_distinct_rankings_in_order_of_first_appearance():
    profile = PreferenceProfile(3, ((2, 0, 1), (0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 1, 2)))
    assert profile.classes == ((2, 0, 1), (0, 1, 2), (1, 2, 0))
    assert profile.class_of.tolist() == [0, 1, 0, 2, 1]
    assert profile.array.tolist() == [list(r) for r in profile.rankings]
    tops = PreferenceProfile(3, ((1,), (1,), (0,)), top_only=True)
    assert tops.classes == ((1,), (0,)) and tops.class_of.tolist() == [0, 0, 1]
    for arr in (profile.class_of, profile.array):
        assert not arr.flags.writeable


def test_pair_indices_are_the_cached_upper_triangle():
    for m in range(7):
        f, g = pair_indices(m)
        expected = np.triu_indices(m, 1)
        assert f.tolist() == expected[0].tolist() and g.tolist() == expected[1].tolist()
        assert not f.flags.writeable and not g.flags.writeable
        assert pair_indices(m)[0] is f


def test_project_agents_basics():
    fd = facility_distances(("F1", "F2"), [[0, 4], [4, 0.0]])
    unanimous = PreferenceProfile(2, ((0, 1), (0, 1)))
    proj = project_agents(unanimous, fd)
    assert proj.tops == (0, 0)
    assert [proj.distance(i, 0) for i in range(2)] == [0.0, 0.0]

    mixed = PreferenceProfile(2, ((0, 1), (0, 1), (1, 0)))
    proj = project_agents(mixed, fd)
    assert [proj.distance(i, 1) for i in range(3)] == [4.0, 4.0, 0.0]


def test_project_agents_three_cycle_costs():
    # Tops at Y, P and W; projected cost of W reads straight off the geometry.
    q, eps = 3, 1e-2
    l = np.zeros((3, 3))
    l[0, 1] = l[1, 0] = 2 - 2 * eps   # Y-W
    l[1, 2] = l[2, 1] = 2 - eps       # W-P
    l[2, 0] = l[0, 2] = 2.0           # P-Y
    fd = facility_distances(("Y", "W", "P"), l)
    rankings = [(0, 1, 2)] * q + [(2, 0, 1)] * q + [(1, 2, 0)]
    profile = PreferenceProfile(3, tuple(rankings))
    proj = project_agents(profile, fd)
    cost_w = sum(proj.distance(i, 1) for i in range(profile.n))
    assert cost_w == pytest.approx(q * (2 - 2 * eps) + q * (2 - eps) + 0.0)


def test_projection_invariant_under_scaling():
    rng = np.random.default_rng(5)
    profile, fd, _ = random_instance(rng, n_max=5, m_max=4)
    scaled = facility_distances(fd.facilities.names, 3.5 * fd.values)
    a = project_agents(profile, fd)
    b = project_agents(profile, scaled)
    assert a.tops == b.tops
    assert np.allclose(3.5 * a.distance_matrix, b.distance_matrix)


def test_constraints_tiny_instance_structure():
    fd = facility_distances(("X", "Y"), [[0, 2], [2, 0.0]])
    profile = PreferenceProfile(2, ((0, 1),))
    cons = consistency_constraints(profile, fd)
    assert cons.count("chain") == 1
    assert cons.count("diff") == 2
    assert cons.count("sum") == 1
    # d(X) <= d(Y), |d(X) - d(Y)| <= 2 <= d(X) + d(Y), d >= 0
    assert cons.contains([1.0, 1.0])
    assert cons.contains([0.0, 2.0])
    assert not cons.contains([2.0, 1.0])      # chain violated
    assert not cons.contains([0.5, 3.0])      # difference exceeds 2
    assert not cons.contains([0.5, 0.5])      # sum below 2


def test_constraints_single_facility():
    fd = facility_distances(("X",), [[0.0]])
    profile = PreferenceProfile(1, ((0,), (0,)))
    cons = consistency_constraints(profile, fd)
    assert cons.A.shape[0] == 0
    assert cons.contains([5.0, 0.0])


def test_constraints_always_feasible():
    rng = np.random.default_rng(42)
    for _ in range(100):
        profile, fd, metric = random_instance(rng, n_max=5, m_max=4)
        cons = consistency_constraints(profile, fd)
        assert cons.contains(metric.distances)
        res = solve_lp(np.ones(cons.nvars), cons.A, cons.b)
        assert res.optimal  # the emitted system admits a point


def test_constraint_counts_match_formula():
    rng = np.random.default_rng(9)
    profile, fd, _ = random_instance(rng, n_max=6, m_max=5)
    cons = consistency_constraints(profile, fd)
    n, m = profile.n, profile.m
    assert cons.count("chain") == n * (m - 1)
    assert cons.count("diff") == n * m * (m - 1)
    assert cons.count("sum") == n * m * (m - 1) // 2


def test_completion_is_a_metric_preserving_inputs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        profile, fd, metric = random_instance(rng, n_max=4, m_max=4)
        n, m = metric.n, metric.m
        big = shortest_path_completion(metric)
        assert np.allclose(big[:n, n:], metric.distances, atol=1e-9)
        assert np.allclose(big[n:, n:], fd.values, atol=1e-9)
        size = n + m
        for i in range(size):
            for j in range(size):
                for k in range(size):
                    assert big[i, j] <= big[i, k] + big[k, j] + 1e-9


def test_full_metric_rejects_geometry_violations():
    fd = facility_distances(("X", "Y"), [[0, 2], [2, 0.0]])
    with pytest.raises(MetricError):
        FullMetric([[0.0, 5.0]], fd)   # difference beyond l
    with pytest.raises(MetricError):
        FullMetric([[0.5, 0.5]], fd)   # sum below l
    with pytest.raises(MetricError):
        FullMetric([[-1.0, 1.0]], fd)  # negative distance


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_facility_distances_rejected(bad):
    values = [[0.0, bad], [bad, 0.0]]
    with pytest.raises(MetricError, match=r"non-finite distance .* at \(0, 1\)"):
        validate_distance_matrix(values)
    with pytest.raises(MetricError, match=r"non-finite distance .* at \(0, 1\)"):
        facility_distances(("X", "Y"), values)
    diagonal = [[bad, 1.0], [1.0, 0.0]]
    with pytest.raises(MetricError, match=r"at \(0, 0\)"):
        validate_distance_matrix(diagonal)


@pytest.mark.filterwarnings("error")
def test_distances_beyond_the_cap_are_refused():
    above = np.nextafter(MAX_DISTANCE, np.inf)
    triangle = MAX_DISTANCE * (1 - np.eye(3))
    fd = facility_distances(("X", "Y", "Z"), triangle)  # at the cap
    assert validate_distance_matrix(triangle).ok
    for big in (above, 5e307, 1e308, -1e308):
        values = triangle.copy()
        values[1, 2] = values[2, 1] = big
        with pytest.raises(MetricError, match=r"distance .* at \(1, 2\) exceeds 1e\+150"):
            facility_distances(("X", "Y", "Z"), values)
    far = 10 * MAX_DISTANCE  # agents may sit ten times farther than the cap
    assert FullMetric([[far] * 3, [0.0, MAX_DISTANCE, MAX_DISTANCE]], fd).n == 2
    for big in (np.nextafter(far, np.inf), 1e308):
        with pytest.raises(MetricError, match=r"agent 1: d\(2\) = .* exceeds 1e\+151"):
            FullMetric([[far] * 3, [far, far, big]], fd)


@pytest.mark.parametrize("row, first", [([np.nan, 1.0], 0), ([np.inf, np.inf], 0),
                                        ([1.0, np.nan], 1), ([1.0, -np.inf], 1)])
def test_non_finite_agent_distances_rejected(row, first):
    fd = facility_distances(("X", "Y"), [[0, 1], [1, 0.0]])
    with pytest.raises(MetricError, match=rf"agent 1: d\({first}\) = .* is not finite"):
        FullMetric([[1.0, 1.0], row], fd)
