"""Winner rules, the majority graph and the distance partial order."""

import itertools

import numpy as np
import pytest

from ordmech import (FullMetric, PreferenceProfile, ProfileError,
                     augment_majority_edges, copeland_winner,
                     distance_partial_order, evaluate_median_cost,
                     evaluate_percentile_cost, evaluate_sum_cost,
                     facility_distances, majority_graph, median_winner,
                     project_agents,
                     sample_consistent_metric, sum_winner)
from ordmech import social_choice as sc

from helpers import random_instance


def _fd3(d01, d02, d12, names=("F1", "F2", "F3")):
    l = np.array([[0, d01, d02], [d01, 0, d12], [d02, d12, 0.0]])
    return facility_distances(names, l)


def _cycle_instance(q=2, eps=1e-2):
    """Three-cycle profile: q agents Y>W>P, q agents P>Y>W, one W>P>Y."""
    l = np.zeros((3, 3))
    l[0, 1] = l[1, 0] = 2 - 2 * eps
    l[1, 2] = l[2, 1] = 2 - eps
    l[0, 2] = l[2, 0] = 2.0
    fd = facility_distances(("Y", "W", "P"), l)
    rankings = [(0, 1, 2)] * q + [(2, 0, 1)] * q + [(1, 2, 0)]
    return PreferenceProfile(3, tuple(rankings)), fd


def test_sum_winner_unanimous():
    fd = _fd3(1, 2, 1)
    profile = PreferenceProfile(3, ((0, 1, 2), (0, 2, 1), (0, 1, 2)))
    outcome = sum_winner(project_agents(profile, fd))
    assert outcome.winner == 0
    assert outcome.scores[0] == 0.0


def test_sum_winner_enumerated_costs():
    fd = _fd3(4, 10, 7)
    profile = PreferenceProfile(3, ((0, 1, 2), (0, 1, 2), (1, 0, 2)))
    outcome = sum_winner(project_agents(profile, fd))
    assert outcome.scores == (4.0, 8.0, 27.0)
    assert outcome.winner == 0


def test_sum_winner_two_agent_tie_breaks_low():
    fd = facility_distances(("F1", "F2"), [[0, 2], [2, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (0, 1)))
    assert sum_winner(project_agents(profile, fd)).winner == 0


def test_majority_graph_exact_half_tie():
    profile = PreferenceProfile(2, ((0, 1), (1, 0)))
    graph = majority_graph(profile)
    assert graph.defeats_or_ties(0, 1) and graph.defeats_or_ties(1, 0)
    assert not 2 * graph.prefer[0, 1] > graph.n
    assert graph.condorcet_winner() is None


def test_majority_graph_three_cycle():
    profile, _ = _cycle_instance(q=2)
    graph = majority_graph(profile)
    # Y>W, W>P, P>Y
    assert np.argwhere(2 * graph.prefer >= graph.n).tolist() == [[0, 1], [1, 2], [2, 0]]


def test_majority_graph_unanimous():
    profile = PreferenceProfile(3, ((2, 0, 1),) * 4)
    graph = majority_graph(profile)
    assert (2 * graph.prefer[2, [0, 1]] > graph.n).all()
    assert not any(graph.defeats_or_ties(y, 2) for y in (0, 1))
    assert graph.condorcet_winner() == 2


def test_majority_graph_rejects_top_only():
    profile = PreferenceProfile(2, ((0,), (1,)), top_only=True)
    with pytest.raises(ProfileError):
        majority_graph(profile)


def test_partial_order_numeric():
    _, fd = _cycle_instance()
    order = distance_partial_order(fd)
    assert order.leq((0, 1), (0, 2))          # d(Y,W) <= d(Y,P)
    assert not order.leq((0, 2), (0, 1))


def test_partial_order_ordinal_cycle_collapses():
    # Candidate rankings that wrap around: every pair reaches every other.
    rankings = ((1, 2), (2, 0), (0, 1))
    order = distance_partial_order(rankings)
    assert order.pairs == ((0, 1), (0, 2), (1, 2)) and order.reach.all()
    assert order.leq((0, 2), (0, 1)) and order.leq((0, 1), (0, 2))


def test_partial_order_two_facilities():
    order = distance_partial_order(facility_distances(("A", "B"), [[0, 1], [1, 0.0]]))
    assert order.pairs == ((0, 1),) and (order.reach & order.reach.T).tolist() == [[True]]


def test_condorcet_profile_never_builds_candidate_closure(monkeypatch):
    from ordmech import social_choice

    def no_closure(*args):
        raise AssertionError("candidate closure built")

    monkeypatch.setattr(social_choice, "_reachability", no_closure)
    order = distance_partial_order(((1, 2), (2, 0), (0, 1)))
    profile = PreferenceProfile(3, ((1, 0, 2), (1, 2, 0), (0, 1, 2)))
    outcome = median_winner(profile, order)
    assert (outcome.winner, outcome.kind) == (1, "condorcet")
    assert "reach" not in vars(order)


def test_candidate_closure_built_once_on_first_query(monkeypatch):
    from ordmech import social_choice

    calls = []
    real = social_choice._reachability
    monkeypatch.setattr(social_choice, "_reachability",
                        lambda *args: calls.append(1) or real(*args))
    order = distance_partial_order(((1, 2), (2, 0), (0, 1)))
    assert not calls
    assert order.leq((0, 1), (0, 2)) and order.leq((0, 2), (1, 2))
    assert len(calls) == 1


def test_partial_order_rejects_bad_rankings():
    with pytest.raises(ProfileError):
        distance_partial_order(((1, 1), (0,), (0, 1)))


def test_median_winner_condorcet_shortcut():
    fd = _fd3(1, 2, 1)
    profile = PreferenceProfile(3, ((1, 0, 2),) * 5)
    outcome = median_winner(profile, distance_partial_order(fd))
    assert outcome.winner == 1
    assert outcome.kind == "condorcet"


def test_median_winner_adds_witnessed_edge():
    profile, fd = _cycle_instance(q=2)
    outcome = median_winner(profile, distance_partial_order(fd))
    assert outcome.winner == 1  # W
    just = {j.edge: j for j in outcome.certificate}
    assert just[(1, 0)].via == "witness" and just[(1, 0)].witness == 2
    assert just[(1, 2)].via == "majority"


def test_median_winner_ordinal_content_suffices():
    rng = np.random.default_rng(23)
    for _ in range(40):
        profile, fd, _ = random_instance(rng, n_max=7, m_max=5)
        values = fd.values
        if np.unique(values[np.triu_indices(fd.m, 1)]).size != fd.m * (fd.m - 1) // 2:
            continue  # generic geometries only; ties lose ordinal information
        numeric = median_winner(profile, distance_partial_order(fd))
        rankings = tuple(
            tuple(sorted((g for g in range(fd.m) if g != f),
                         key=lambda g: (values[f, g], g)))
            for f in range(fd.m))
        ordinal = median_winner(profile, distance_partial_order(rankings))
        assert numeric.winner == ordinal.winner


def test_median_winner_does_not_depend_on_the_unit_of_length():
    # the distance order compares facility distances exactly, so scaling
    # them by a power of two keeps every comparison, and so the winner and
    # its certificates.  An absolute 1e-9 read distinct pairs as equal at
    # 2^-40: the winner changed on 27 of these 300 instances, and only the
    # certificates on 2 more
    rng = np.random.default_rng(9)
    for _ in range(300):
        profile, fd, _ = random_instance(rng, n_max=9, m_max=6)
        want = median_winner(profile, distance_partial_order(fd))
        for scale in (2.0 ** -40, 2.0 ** 40):
            scaled = facility_distances(fd.facilities.names, fd.values * scale)
            assert median_winner(profile, distance_partial_order(scaled)) == want


def test_augmentation_pass_is_order_independent(monkeypatch):
    # the pass visits the pairs in a shuffled order instead of the
    # lexicographic one, and must add the same edges
    rng = np.random.default_rng(31)
    for _ in range(25):
        profile, fd, _ = random_instance(rng, n_max=7, m_max=5)
        graph = majority_graph(profile)
        order = distance_partial_order(fd)
        pairs = list(itertools.combinations(range(fd.m), 2))
        baseline = augment_majority_edges(graph, order)
        for _ in range(3):
            rng.shuffle(pairs)
            monkeypatch.setattr(sc, "combinations", lambda items, r: iter(pairs))
            assert augment_majority_edges(graph, order) == baseline
            monkeypatch.undo()


def test_median_winner_triple_bound_on_samples():
    rng = np.random.default_rng(77)
    checked = 0
    for trial in range(12):
        profile, fd, _ = random_instance(rng, n_max=5, m_max=4, n_min=5, m_min=4)
        outcome = median_winner(profile, distance_partial_order(fd))
        for s in range(5):
            metric = sample_consistent_metric(profile, fd, seed=1000 * trial + s)
            med = [evaluate_median_cost(f, metric) for f in range(fd.m)]
            best = min(med)
            if best > 1e-12:
                assert med[outcome.winner] <= 3 * best + 1e-7
            checked += 1
    assert checked >= 50


def test_edge_guarantees_on_sampled_metrics():
    rng = np.random.default_rng(123)
    instances = 0
    while instances < 8:
        profile, fd, _ = random_instance(rng, n_max=6, m_max=4, n_min=3, m_min=3)
        graph = majority_graph(profile)
        if graph.condorcet_winner() is not None:
            continue
        instances += 1
        order = distance_partial_order(fd)
        added = augment_majority_edges(graph, order)
        edges = set(map(tuple, np.argwhere(2 * graph.prefer >= graph.n).tolist())) | set(added)
        for s in range(50):
            metric = sample_consistent_metric(profile, fd, seed=9000 + 97 * s)
            med = [evaluate_median_cost(f, metric) for f in range(fd.m)]
            tot = [evaluate_sum_cost(f, metric) for f in range(fd.m)]
            for w, y in edges:
                assert med[w] <= 3 * med[y] + 1e-7
                assert tot[w] <= 5 * tot[y] + 1e-7


def test_shift_and_half_distance_bounds_on_samples():
    rng = np.random.default_rng(321)
    for trial in range(6):
        profile, fd, _ = random_instance(rng, n_max=6, m_max=4, n_min=3, m_min=3)
        for s in range(8):
            metric = sample_consistent_metric(profile, fd, seed=31 * trial + s)
            m = fd.m
            for w in range(m):
                for y in range(m):
                    if w == y:
                        continue
                    lim = evaluate_median_cost(y, metric) + fd.values[y, w]
                    assert evaluate_median_cost(w, metric) <= lim + 1e-7
                    for alpha in (0.5, 0.75, 1.0):
                        pc_w = evaluate_percentile_cost(w, metric, alpha)
                        pc_y = evaluate_percentile_cost(y, metric, alpha)
                        assert pc_w <= pc_y + fd.values[y, w] + 1e-7
            # half-distance bound: an agent preferring w to y sits at least
            # half their separation from y
            for i, r in enumerate(profile.rankings):
                for w, y in itertools.combinations(range(m), 2):
                    first, second = (w, y) if r.index(w) < r.index(y) else (y, w)
                    assert metric.distances[i, second] >= fd.values[w, y] / 2 - 1e-7


def test_sum_cost_examples():
    fd = facility_distances(tuple("WXYZ"),
                            [[0, 4, 2, 2], [4, 0, 2, 2], [2, 2, 0, 4], [2, 2, 4, 0.0]])
    rows = ([[100.0, 102, 102, 102]] * 2 + [[5.0, 1, 3, 3]] * 2
            + [[3.0, 1, 1, 3]] * 2 + [[3.0, 1, 3, 1]] * 2)
    metric = FullMetric(np.asarray(rows), fd)
    assert evaluate_sum_cost(0, metric) == pytest.approx(222.0)

    solo = FullMetric([[0.0, 4, 2, 2]], fd)
    assert evaluate_sum_cost(0, solo) == 0.0
    assert evaluate_sum_cost(1, solo) == 4.0


def test_percentile_examples():
    fd = facility_distances(("X", "Y"), [[0, 200], [200, 0.0]])
    col = [100, 100, 5, 5, 3, 3, 3, 3]
    rows = [[v, 200 - v] for v in col]
    metric = FullMetric(np.asarray(rows, dtype=float), fd)
    assert evaluate_percentile_cost(0, metric, 0.5) == 5.0     # 5th smallest of 8
    assert evaluate_percentile_cost(0, metric, 1.0) == 100.0   # maximum

    eps = 1e-3
    fd2 = facility_distances(("X", "Y"), [[0, 2], [2, 0.0]])
    rows2 = [[eps, 2 - eps], [2 * eps, 2 - 2 * eps], [1.0, 1.0]]
    metric2 = FullMetric(np.asarray(rows2), fd2)
    assert evaluate_percentile_cost(0, metric2, 0.5) == pytest.approx(2 * eps)

    with pytest.raises(ValueError):
        evaluate_percentile_cost(0, metric2, 1.5)


def test_copeland_examples():
    unanimous = PreferenceProfile(3, ((1, 2, 0),) * 3)
    assert copeland_winner(unanimous).winner == 1

    profile, _ = _cycle_instance(q=2)  # Condorcet-less cycle, all scores equal
    outcome = copeland_winner(profile)
    assert outcome.scores == (1.0, 1.0, 1.0)
    assert outcome.winner == 0

    condorcet = PreferenceProfile(3, ((0, 1, 2), (0, 2, 1), (1, 0, 2)))
    assert copeland_winner(condorcet).winner == 0


def test_sum_winner_invariances():
    rng = np.random.default_rng(55)
    profile, fd, _ = random_instance(rng, n_max=6, m_max=4)
    base = sum_winner(project_agents(profile, fd))
    # permuting agents never changes the outcome
    perm = list(range(profile.n))
    rng.shuffle(perm)
    shuffled = PreferenceProfile(profile.m,
                                 tuple(profile.rankings[i] for i in perm))
    assert sum_winner(project_agents(shuffled, fd)).winner == base.winner
    # positive scaling never changes the argmin
    scaled = facility_distances(fd.facilities.names, 2.25 * fd.values)
    assert sum_winner(project_agents(profile, scaled)).winner == base.winner
