"""Array passes against the loop oracles they replaced (``helpers``).

Validation must name the same first offender with the same message,
mechanisms must return the same counts, orders, winners and certificates,
and the exact projected solvers the same assignments and values bit for
bit, ties included.
"""

import itertools
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ordmech import (AssignmentProblem, ConstraintSet, CostSpec, DistanceCost, FullMetric,
                     MetricError, PreferenceProfile, ProfileError, SchemaError,
                     brute_force_optimal, build_preset, check_consistency,
                     distance_partial_order, facility_distances,
                     facility_location_solver, k_center_greedy, k_median_solver,
                     majority_graph, median_winner, min_cost_matching,
                     preferences_from_metric, project_agents,
                     validate_distance_matrix)
from ordmech import audit
from ordmech.audit import (ConsistencyPolytope, _octagon_points, _path_bounds,
                           _percentile_candidates)
from ordmech.core import BLOCK, TOL
from ordmech.fileio import parse_instance
from ordmech.solvers import _near_minimal, _subset_minima

from helpers import (batched_binding, bincount_majority_counts, errstate_percentile_bound,
                     errstate_percentile_value, errstate_ratio, first_appearance_classes,
                     gathered_near_minimal, loop_candidate_reach, loop_check_consistency,
                     loop_facility_location, loop_full_metric_error, loop_k_median,
                     loop_majority_counts, loop_matching_brute_force,
                     loop_min_cost_matching, loop_numeric_reach, loop_octagon_vertices,
                     loop_open_count_brute_force, loop_path_bound,
                     loop_percentile_candidate, loop_profile_error,
                     loop_validate_distance_matrix, octagon_inside, octagon_rows,
                     random_consistent_metric, random_facility_distances, random_instance,
                     subset_percentile_candidate, tuple_resolved_profile)

FIXTURES = Path(__file__).parent / "fixtures"


def _perturb(rng, a, count):
    """A copy of ``a`` with ``count`` entries moved by amounts from just
    inside the 1e-9 tolerance up to order one, either sign: 2e-9 lies just
    outside it where it is absolute (diagonal, symmetry, signs), 2e-7 just
    outside where it scales with terms of up to a few tens."""
    a = np.array(a, dtype=float)
    scale = rng.choice([5e-10, 2e-9, 2e-7, 1e-3, 0.5, 3.0], size=count)
    a.flat[rng.integers(0, a.size, count)] += scale * rng.choice([-1.0, 1.0], size=count)
    return a


def test_validate_distance_matrix_first_offender_matches_loop():
    rng = np.random.default_rng(101)
    reasons = {}
    for _ in range(400):
        fd = random_facility_distances(rng, int(rng.integers(1, 7)))
        values = _perturb(rng, fd.values, int(rng.integers(0, 4)))
        if rng.random() < 0.5:  # symmetric: the triangle check decides
            values = np.triu(values) + np.triu(values, 1).T
        check = validate_distance_matrix(values)
        expected = loop_validate_distance_matrix(values)
        assert (check.ok, check.reason, check.triple) == expected
        reasons[check.reason] = reasons.get(check.reason, 0) + 1
    assert min(reasons.values()) >= 5, reasons  # every kind of offender occurs


def _edge(*entries):
    """A 3-point pseudometric with ``(i, j, value)`` entries written over it."""
    a = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
    for i, j, value in entries:
        a[i, j] = value
    return a


def test_validate_distance_matrix_edge_cases_match_loop():
    # an entry off by exactly TOL passes the one screen and one off by 2 TOL
    # fails it, so the first-offender search runs; either way the verdict
    # and the entry named are the loop's
    verdicts = set()
    for entries in ([(1, 1, TOL)], [(1, 1, 2 * TOL)], [(1, 1, -TOL)], [(2, 2, -2 * TOL)],
                    [(1, 0, TOL)], [(1, 0, 2 * TOL)], [(0, 1, -TOL), (1, 0, -TOL)],
                    [(0, 1, -2 * TOL), (1, 0, -2 * TOL)], [(1, 2, 3 + 4 * TOL)],
                    [(0, 2, 6 + 2 * TOL), (2, 0, 6 + 2 * TOL)],
                    [(2, 2, 2 * TOL), (0, 1, 2 * TOL)]):
        values = _edge(*entries)
        check = validate_distance_matrix(values)
        assert (check.ok, check.reason, check.triple) == loop_validate_distance_matrix(values)
        verdicts.add(check.reason)
    assert verdicts == {None, "nonzero diagonal", "asymmetric", "negative distance",
                        "triangle inequality violated"}
    # a NaN, an inf or an entry beyond MAX_DISTANCE raises, naming the first
    # non-finite entry in C order, else the first beyond the cap
    for entries, message in (
            ([(2, 1, np.nan), (1, 2, np.nan)], r"non-finite distance nan at \(1, 2\)"),
            ([(0, 2, np.inf)], r"non-finite distance inf at \(0, 2\)"),
            ([(2, 0, np.nan), (0, 1, -np.inf)], r"non-finite distance -inf at \(0, 1\)"),
            ([(0, 1, 2e150), (1, 0, 2e150), (2, 2, np.nan)],
             r"non-finite distance nan at \(2, 2\)"),
            ([(1, 2, 2e150), (2, 1, 2e150), (0, 0, 1.0)], r"distance 2e\+150 at \(1, 2\) exceeds"),
            ([(2, 0, -2e150), (0, 2, 2e150)], r"distance 2e\+150 at \(0, 2\) exceeds")):
        with pytest.raises(MetricError, match=message):
            validate_distance_matrix(_edge(*entries))


def test_full_metric_first_offender_message_matches_loop():
    rng = np.random.default_rng(102)
    failures = 0
    for _ in range(400):
        fd = random_facility_distances(rng, int(rng.integers(1, 6)))
        base = random_consistent_metric(rng, fd, int(rng.integers(1, 9))).distances
        d = _perturb(rng, base, int(rng.integers(0, 4)))
        expected = loop_full_metric_error(d, fd.values)
        if expected is None:
            FullMetric(d, fd)
            continue
        failures += 1
        with pytest.raises(MetricError) as err:
            FullMetric(d, fd)
        assert str(err.value) == expected
    assert failures > 100


def test_full_metric_blocks_keep_agent_major_order():
    # Enough agents for several validation blocks; offenders in two of them.
    rng = np.random.default_rng(103)
    fd = random_facility_distances(rng, 12)
    d = random_consistent_metric(rng, fd, 3000).distances.copy()
    d[2900, 11] += 50.0
    d[2950, 0] += 50.0
    with pytest.raises(MetricError) as err:
        FullMetric(d, fd)
    assert str(err.value) == loop_full_metric_error(d, fd.values)
    assert str(err.value).startswith("agent 2900:")


def _malformed(rng, r, m):
    """``r`` broken in one of several ways, or left as it is."""
    r = list(r)
    kind = int(rng.integers(0, 6))
    if kind == 1 and r:
        r[int(rng.integers(0, len(r)))] = int(rng.integers(-1, m + 1))  # duplicate or range
    elif kind == 2:
        r = r[:-1]                                                       # too short
    elif kind == 3:
        r = r + [int(rng.integers(0, m))]                                # too long
    elif kind == 4 and rng.random() < 0.3:
        r = []
    return tuple(r)


def test_profile_first_malformed_ranking_matches_loop():
    rng = np.random.default_rng(112)
    failures = 0
    for _ in range(400):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        top_only = rng.random() < 0.3
        rankings = []
        for _ in range(n):
            r = (int(rng.integers(0, m)),) if top_only else tuple(rng.permutation(m).tolist())
            rankings.append(_malformed(rng, r, m) if rng.random() < 0.3 else r)
        rankings = tuple(rankings)
        expected = loop_profile_error(m, rankings, top_only)
        if expected is None:
            profile = PreferenceProfile(m, rankings, top_only)
            assert profile.array.tolist() == [list(r) for r in rankings]
            continue
        failures += 1
        with pytest.raises(ProfileError) as err:
            PreferenceProfile(m, rankings, top_only)
        assert str(err.value) == expected
    assert failures > 100


def _pooled_rankings(rng, n, m, pool, top_only=False):
    """n rankings over m facilities drawn from a pool of ``pool`` random
    ones, so that agents repeat rankings."""
    draws = [(int(rng.integers(0, m)),) if top_only else tuple(rng.permutation(m).tolist())
             for _ in range(pool)]
    return tuple(draws[i] for i in rng.integers(0, pool, n).tolist())


def test_profile_classes_match_first_appearance_oracle():
    rng = np.random.default_rng(113)
    names = [f"F{j}" for j in range(7)]
    for case in range(300):
        m, n = (1 if case % 5 == 0 else int(rng.integers(2, 8))), int(rng.integers(1, 40))
        top_only = case % 3 == 0
        rankings = _pooled_rankings(rng, n, m, int(rng.integers(1, n + 1)), top_only)
        profile = PreferenceProfile(m, rankings, top_only)
        classes, class_of, array, class_array = first_appearance_classes(rankings)
        assert profile.rankings == rankings and profile.classes == classes
        # each ranking's chain rows: consecutive ranks, or the top choice
        # against every other facility in index order; none at m = 1
        chains = [(r[:-1], r[1:]) if not top_only else
                  ((r[0],) * (m - 1), tuple(g for g in range(m) if g != r[0]))
                  for r in classes]
        before, after = (np.array(rows, dtype=np.intp).reshape(len(classes), m - 1)
                         for rows in zip(*chains))
        for got, expected in ((profile.class_of, class_of), (profile.array, array),
                              (profile.class_array, class_array),
                              (profile.before, before), (profile.after, after)):
            assert got.dtype == expected.dtype and not got.flags.writeable
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)
        # the loader resolves names once per distinct ranking to the same profile
        raw = {"schema": "ordmech-instance-v1", "facilities": names[:m],
               "facility_distances": (1.0 - np.eye(m)).tolist(), "preset": "social_choice_sum",
               "tops" if top_only else "preferences":
                   [names[r[0]] if top_only else [names[g] for g in r] for r in rankings]}
        loaded = parse_instance(json.dumps(raw)).profile
        assert loaded == profile and hash(loaded) == hash(profile) and loaded.classes == classes
        for got, expected in ((loaded.class_of, class_of), (loaded.array, array),
                              (loaded.class_array, class_array), (loaded.before, before),
                              (loaded.after, after)):
            np.testing.assert_array_equal(got, expected)
        if m > 1:  # one agent ranking otherwise parts the profiles, in == and in hash
            i, r = case % n, rankings[case % n]
            other = ((r[0] + 1) % m,) if top_only else r[1:] + r[:1]
            changed = PreferenceProfile(m, rankings[:i] + (other,) + rankings[i + 1:], top_only)
            for same in (profile, loaded):
                assert changed != same and hash(changed) != hash(same)


def test_loaded_profile_builds_its_tuples_on_first_read():
    raw = _planar_document(0, 1000, 25, metric=True)
    profile = parse_instance(raw).profile
    assert profile.n == 1000 and not {"classes", "rankings"} & vars(profile).keys()
    rankings = tuple(tuple(int(name[1:]) for name in r) for r in json.loads(raw)["preferences"])
    classes = first_appearance_classes(rankings)[0]
    assert profile.classes == classes and profile.rankings == rankings
    assert profile.classes is profile.classes and profile.rankings is profile.rankings


def test_loaded_profile_keeps_only_its_index_arrays():
    """What parse_instance keeps of a 1000-agent, 25-facility file with its
    metric: at least a quarter below the 0.61 MB it kept while every load
    also built the per-class and per-agent tuples."""
    raw = _planar_document(0, 1000, 25, metric=True).encode()
    tracemalloc.start()
    try:
        inst = parse_instance(raw)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert inst.n == 1000 and kept < 0.75 * 0.61 * 2 ** 20, kept


def _profile_outcome(load, raw):
    """What ``load`` makes of the document ``raw``: the profile's classes,
    rankings and index arrays (dtype, shape and bytes), or the schema error."""
    try:
        classes, class_of, class_array, array, rankings = load(raw)
    except SchemaError as exc:
        return "error", exc.field, str(exc)
    return ("profile", classes, rankings,
            *((a.dtype.str, a.shape, a.tobytes()) for a in (class_of, class_array, array)))


def _loaded_profile(raw):
    profile = parse_instance(raw).profile
    return (profile.classes, profile.class_of, profile.class_array, profile.array,
            profile.rankings)


def _assert_loads_as_tuples(raw):
    got = _profile_outcome(_loaded_profile, raw)
    assert got == _profile_outcome(lambda text: tuple_resolved_profile(json.loads(text)), raw)
    return got


def _planar_document(seed, n, m, metric):
    """A planar instance as the benchmark draws them: Euclidean facility
    distances, agents ranking by distance, optionally the true metric."""
    rng = np.random.default_rng(seed)
    pts, agents = rng.uniform(0, 10, (m, 2)), rng.uniform(0, 10, (n, 2))
    names = [f"F{j}" for j in range(m)]
    d = np.linalg.norm(agents[:, None] - pts[None], axis=2)
    doc = {"schema": "ordmech-instance-v1", "facilities": names,
           "facility_distances": np.linalg.norm(pts[:, None] - pts[None], axis=2).tolist(),
           "preset": "social_choice_sum",
           "preferences": [[names[j] for j in row] for row in np.argsort(d, axis=1).tolist()]}
    if metric:
        doc["metric"] = d.tolist()
    return json.dumps(doc)


def test_loader_resolves_rankings_as_per_class_tuples_did():
    docs = [path.read_text() for path in sorted(FIXTURES.glob("*.json"))]
    docs += [_planar_document(0, 1000, 25, metric=True), _planar_document(1, 5000, 10, False)]
    for raw in docs:
        assert _assert_loads_as_tuples(raw)[0] == "profile"
        inst, doc = parse_instance(raw), json.loads(raw)  # matrices as np.asarray reads them
        for got, key in ((inst.fd, "facility_distances"), (inst.metric, "metric")):
            if key in doc:
                values = got.values if key == "facility_distances" else got.distances
                assert values.tobytes() == np.asarray(doc[key], dtype=float).tobytes()
    assert len(parse_instance(docs[-2]).profile.classes) > 500
    rng = np.random.default_rng(28)
    names = [f"F{j}" for j in range(7)]
    malformed = 0
    for case in range(500):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 40))
        top_only = case % 4 == 0
        rankings = _pooled_rankings(rng, n, m, int(rng.integers(1, n + 1)), top_only)
        if not top_only and rng.random() < 0.3:
            rankings = tuple(_malformed(rng, r, m) if rng.random() < 0.2 else r for r in rankings)
        raw = json.dumps({
            "schema": "ordmech-instance-v1", "facilities": names[:m],
            "facility_distances": (1.0 - np.eye(m)).tolist(), "preset": "social_choice_sum",
            "tops" if top_only else "preferences":
                [names[r[0]] if top_only else [names[g] if 0 <= g < m else "Z" for g in r]
                 for r in rankings]})
        malformed += _assert_loads_as_tuples(raw)[0] == "error"
    assert malformed > 20


def _abcd_document(preferences):
    return json.dumps({"schema": "ordmech-instance-v1", "facilities": ["A", "B", "C", "D"],
                       "facility_distances": (1.0 - np.eye(4)).tolist(),
                       "preset": "social_choice_sum", "preferences": preferences})


BAD_RANKINGS = {
    "short": ["A", "B", "C"], "long": ["A", "B", "C", "D", "A"],
    "repeated": ["A", "A", "C", "D"], "unknown": ["A", "B", "C", "Z"],
    "number": ["A", "B", "C", 1], "nested": ["A", "B", ["C"], "D"], "empty": [],
    "string": "ABCD"}


@pytest.mark.parametrize("first, second", itertools.product(BAD_RANKINGS, repeat=2))
def test_loader_names_the_first_malformed_ranking_as_per_class_tuples_did(first, second):
    good = [["A", "B", "C", "D"], ["D", "C", "B", "A"]]
    raw = _abcd_document(good + [BAD_RANKINGS[first]] + good + [BAD_RANKINGS[second]] + good)
    assert _assert_loads_as_tuples(raw)[0] == "error"
    with pytest.raises(SchemaError) as err:
        parse_instance(raw)
    if first in ("short", "long") and second not in ("unknown", "number", "nested", "string"):
        assert str(err.value) == ("preferences: agent 2: ranking is not a permutation "
                                  "of all facilities")


def test_loader_refuses_rankings_whose_lengths_only_add_up():
    # flattened, the two rankings read as two permutations of four facilities
    raw = _abcd_document([["A", "B", "C"], ["D", "A", "B", "C", "D"]])
    assert _assert_loads_as_tuples(raw) == (
        "error", "preferences",
        "preferences: agent 0: ranking is not a permutation of all facilities")
    assert _assert_loads_as_tuples(_abcd_document([])) == (
        "error", "preferences", "preferences: must be a nonempty list")


def test_check_consistency_matches_loop_full_and_top_only():
    rng = np.random.default_rng(104)
    seen = set()
    for _ in range(200):
        profile, fd, metric = random_instance(rng, n_max=8, m_max=5)
        if rng.random() < 0.5:  # another agent's ranking: often inconsistent
            rankings = tuple(profile.rankings[int(j)]
                             for j in rng.permutation(profile.n))
            profile = PreferenceProfile(profile.m, rankings)
        for top_only in (False, True):
            rankings = tuple((r[0],) for r in profile.rankings) if top_only \
                else profile.rankings
            prof = PreferenceProfile(profile.m, rankings, top_only=top_only)
            got = check_consistency(prof, metric)
            assert got == loop_check_consistency(rankings, top_only, metric.distances)
            seen.add((top_only, got))
    assert seen == {(False, True), (False, False), (True, True), (True, False)}
    # an inversion of 1e-6 between distances near 1e9 is a few ulps: within
    # 1e-9 times 1 plus their sizes, though far beyond an absolute 1e-9
    fd = facility_distances(("X", "Y"), [[0.0, 2e9], [2e9, 0.0]])
    metric = FullMetric([[1e9 + 1e-6, 1e9]], fd)
    for top_only, rankings in ((False, ((0, 1),)), (True, ((0,),))):
        prof = PreferenceProfile(2, rankings, top_only=top_only)
        assert check_consistency(prof, metric)
        assert loop_check_consistency(rankings, top_only, metric.distances)
    # at the tolerance's edge: agent 0 ranks facility 0 first, and facility 1
    # (tied, nearer by less than 1e-9 (1 + the sizes), nearer by more) or 2
    # is nearer; one facility has no chain to break
    fd = facility_distances(("X", "Y", "Z"), [[0.0, 2.0, 2.0], [2.0, 0.0, 2.0],
                                              [2.0, 2.0, 0.0]])
    for d, keeps in (([1.0, 1.0, 1.5], True), ([1.0, 1.0 - 2e-9, 1.5], True),
                     ([1.0, 1.0 - 4e-9, 1.5], False), ([1.0, 1.5, 1.0 - 2e-9], True),
                     ([1.0, 1.5, 1.0 - 4e-9], False)):
        metric = FullMetric([d], fd)
        for top_only, rankings in ((False, ((0, 1, 2),)), (False, ((0, 2, 1),)),
                                   (True, ((0,),))):
            expected = loop_check_consistency(rankings, top_only, metric.distances)
            prof = PreferenceProfile(3, rankings, top_only=top_only)
            assert check_consistency(prof, metric) == expected
            if top_only:
                assert expected == keeps
    single = facility_distances(("X",), [[0.0]])
    for top_only, rankings in ((False, ((0,), (0,))), (True, ((0,), (0,)))):
        prof = PreferenceProfile(1, rankings, top_only=top_only)
        assert check_consistency(prof, FullMetric([[0.0], [3.0]], single))


def test_majority_counts_match_loop():
    rng = np.random.default_rng(105)
    cases = [(1, 1), (1, 2), (2, 2), (4, 2), (6, 3), (10, 4), (7, 5), (30, 6)]
    for n, m in cases:
        for _ in range(5):
            rankings = tuple(tuple(int(f) for f in rng.permutation(m)) for _ in range(n))
            graph = majority_graph(PreferenceProfile(m, rankings))
            np.testing.assert_array_equal(graph.prefer, loop_majority_counts(rankings, m))
            assert graph.prefer.dtype == loop_majority_counts(rankings, m).dtype


def test_majority_counts_per_class_match_the_per_agent_bincount():
    rng = np.random.default_rng(114)
    for n, m, pool in ((1, 1, 1), (1, 2, 1), (1, 6, 1), (2, 3, 1), (40, 4, 2), (500, 6, 3),
                       (3000, 10, 5), (200, 12, 200), (1000, 25, 40)):
        for _ in range(3):
            profile = PreferenceProfile(m, _pooled_rankings(rng, n, m, pool))
            prefer = majority_graph(profile).prefer
            assert prefer.dtype == np.int64 and not prefer.flags.writeable
            np.testing.assert_array_equal(prefer, bincount_majority_counts(profile.array, m))


def test_majority_even_n_exact_ties():
    # Half the agents one way, half the other: every pair ties exactly.
    m = 4
    rankings = ((0, 1, 2, 3),) * 3 + ((3, 2, 1, 0),) * 3
    graph = majority_graph(PreferenceProfile(m, rankings))
    assert (graph.prefer + np.eye(m, dtype=int) * 3 == 3).all()
    assert graph.condorcet_winner() is None
    assert graph.edges() == {(a, b) for a in range(m) for b in range(m) if a != b}


def test_condorcet_winner_matches_pairwise_definition():
    rng = np.random.default_rng(106)
    for _ in range(100):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        rankings = tuple(tuple(int(f) for f in rng.permutation(m)) for _ in range(n))
        graph = majority_graph(PreferenceProfile(m, rankings))
        expected = next((w for w in range(m)
                         if all(graph.strictly_defeats(w, y) for y in range(m) if y != w)),
                        None)
        assert graph.condorcet_winner() == expected


def _candidate_rankings(rng, m, shuffled):
    pts = rng.uniform(0.0, 10.0, size=(m, 2))
    l = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    out = []
    for f in range(m):
        others = [g for g in np.argsort(l[f], kind="stable").tolist() if g != f]
        if shuffled:
            rng.shuffle(others)
        out.append(tuple(others))
    return tuple(out)


def test_pair_index_and_leq_match_loop_orders():
    rng = np.random.default_rng(107)
    for m in range(2, 7):
        for trial in range(4):
            fd = random_facility_distances(rng, m)
            ranks = _candidate_rankings(rng, m, shuffled=trial % 2 == 1)
            for order, reach in ((distance_partial_order(fd), loop_numeric_reach(fd)),
                                 (distance_partial_order(ranks), loop_candidate_reach(ranks))):
                for p, (f, g) in enumerate(order.pairs):
                    assert order.pair_index(f, g) == order.pair_index(g, f) == p
                for (p, a), (q, b) in itertools.product(enumerate(order.pairs), repeat=2):
                    assert order.leq(a, b) == reach[p, q]
                np.testing.assert_array_equal(order.reach, reach)


def test_pair_index_rejects_non_pairs():
    order = distance_partial_order(facility_distances("ABC", np.ones((3, 3)) - np.eye(3)))
    for f, g in ((1, 1), (0, 3), (-1, 2)):
        with pytest.raises(ValueError):
            order.pair_index(f, g)


def test_median_winner_certificates_match_loop_order():
    """Winners and certificates from the array orders equal those from a
    DistancePartialOrder carrying the loop closure."""
    from ordmech.social_choice import DistancePartialOrder

    rng = np.random.default_rng(108)
    compared = 0
    for _ in range(150):
        profile, fd, _ = random_instance(rng, n_max=7, m_max=5, m_min=3)
        ranks = _candidate_rankings(rng, fd.m, shuffled=rng.random() < 0.5)
        for source, reach in ((fd, loop_numeric_reach(fd)),
                              (ranks, loop_candidate_reach(ranks))):
            order = distance_partial_order(source)
            reference = DistancePartialOrder(order.m, order.pairs, chain=np.zeros((0, 2), int))
            reference.__dict__["reach"] = reach  # the closure as the loops built it
            assert median_winner(profile, order) == median_winner(profile, reference)
            compared += 1
    assert compared == 300


def _tie_heavy_instance(rng, n, m):
    """Facilities on a small grid, some co-located, agents at facilities:
    many subsets tie, exactly on an integer grid, and only up to rounding
    on a grid of step 0.1, where summation order decides the tie."""
    step = rng.choice([1.0, 0.1])
    pts = rng.integers(0, 3, size=(m, 2)) * step
    l = np.abs(pts[:, None] - pts[None]).sum(axis=2)  # L1: a metric with many ties
    tops = tuple(int(t) for t in rng.integers(0, m, n))
    return l, tops


def test_k_median_matches_loop_bit_for_bit():
    rng = np.random.default_rng(109)
    for trial in range(60):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 30))
        if trial % 2:
            l, tops = _tie_heavy_instance(rng, n, m)
        else:
            l = random_facility_distances(rng, m).values
            tops = tuple(int(t) for t in rng.integers(0, m, n))
        k = int(rng.integers(1, m + 1))
        result = k_median_solver(l, tops, k)
        assert (result.assignment, result.value) == loop_k_median(l, tops, k)


def test_facility_location_matches_loop_bit_for_bit():
    rng = np.random.default_rng(110)
    for trial in range(60):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 25))
        if trial % 2:
            l, tops = _tie_heavy_instance(rng, n, m)
            D = l[list(tops)]
            costs = rng.integers(0, 3, m).astype(float)  # ties among open sets
        else:
            fd = random_facility_distances(rng, m)
            D = random_consistent_metric(rng, fd, n).distances
            costs = rng.uniform(0, 5, m)
        result = facility_location_solver(D, costs)
        assert (result.assignment, result.value) == loop_facility_location(D, costs)


@pytest.mark.parametrize("preset", ["k_median", "k_center", "facility_location",
                                    "social_choice_sum"])
def test_brute_force_open_count_path_matches_loop(preset):
    rng = np.random.default_rng(111)
    for trial in range(25):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 12))
        l, tops = _tie_heavy_instance(rng, n, m) if trial % 2 else \
            (random_facility_distances(rng, m).values, None)
        fd = facility_distances([f"F{j}" for j in range(m)], l)
        if tops is None:
            profile = preferences_from_metric(random_consistent_metric(rng, fd, n))
        else:
            profile = PreferenceProfile(m, tuple((t,) for t in tops), top_only=True)
        params = {"k": int(rng.integers(1, m + 1))}
        if preset == "facility_location":
            params = {"opening_costs": rng.integers(0, 3, m).tolist()}
        problem = build_preset(preset, n, fd.facilities, params)
        agents = project_agents(profile, fd)
        cons = problem.constraints
        sizes = range(1, (cons.at_most_open if cons.at_most_open is not None else m) + 1)
        result = brute_force_optimal(problem, agents)
        expected = loop_open_count_brute_force(agents.distance_matrix, problem.cost_spec, sizes)
        assert (result.assignment, result.value) == expected


def test_brute_force_matchings_match_per_matching_loop():
    # the chunked costs equal each matching's own total_cost bit for bit,
    # so the first least in permutations order wins as in the loop: on
    # tie-heavy grids, with the max cost, with fewer agents than
    # facilities, with opening costs, and past one chunk (8! matchings)
    rng = np.random.default_rng(113)
    for trial in range(80):
        m = int(rng.integers(1, 7)) if trial < 78 else 8
        n = m if trial % 3 else int(rng.integers(1, m + 1))
        l, tops = _tie_heavy_instance(rng, n, m) if trial % 2 else \
            (random_facility_distances(rng, m).values, None)
        fd = facility_distances([f"F{j}" for j in range(m)], l)
        if tops is None:
            profile = preferences_from_metric(random_consistent_metric(rng, fd, n))
        else:
            profile = PreferenceProfile(m, tuple((t,) for t in tops), top_only=True)
        cost = DistanceCost.MAX if trial % 4 >= 2 else DistanceCost.SUM
        opening = tuple(rng.integers(0, 3, m).astype(float)) if trial % 5 == 0 else None
        problem = AssignmentProblem(n, fd.facilities, ConstraintSet(m, one_per_facility=True),
                                    CostSpec(cost, opening))
        agents = project_agents(profile, fd)
        result = brute_force_optimal(problem, agents)
        expected = loop_matching_brute_force(agents.distance_matrix, problem.cost_spec)
        assert (result.assignment, result.value) == expected


def test_min_cost_matching_matches_loop_bit_for_bit():
    rng = np.random.default_rng(113)
    for trial in range(80):
        n = int(rng.integers(0, 9))
        if trial % 2:  # projected rows repeat: many optimal matchings tie
            l, tops = _tie_heavy_instance(rng, n, max(n, 1))
            cost = l[list(tops)][:, :n]
        else:
            cost = rng.uniform(0, 10, size=(n, n))
        result = min_cost_matching(cost)
        assert (result.assignment, result.value) == loop_min_cost_matching(cost)


def test_k_center_assignment_matches_nearest_center_loop():
    rng = np.random.default_rng(114)
    for trial in range(40):
        m = int(rng.integers(1, 7))
        l, tops = _tie_heavy_instance(rng, int(rng.integers(1, 12)), m)
        result = k_center_greedy(l, tops, int(rng.integers(1, m + 1)))
        centers = sorted(set(result.assignment))
        assert result.assignment == tuple(min(centers, key=lambda f: (l[t, f], f))
                                          for t in tops)
        assert result.value == max(l[t, f] for t, f in zip(tops, result.assignment))


@pytest.mark.parametrize("seed", [299, 553, 597, 797, 815, 875])
def test_screening_keeps_subsets_tied_up_to_rounding(seed):
    """On a grid of step 0.1 the host-weighted screening cost and the
    per-agent cost of tied subsets differ in the last bits; at these seeds
    a screen without its rounding margin picks another subset."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 7)), int(rng.integers(1, 40))
    pts = rng.integers(0, 4, size=(m, 2)) * 0.1
    l = np.abs(pts[:, None] - pts[None]).sum(axis=2)
    tops = tuple(int(t) for t in rng.integers(0, m, n))
    k = int(rng.integers(1, m + 1))
    result = k_median_solver(l, tops, k)
    assert (result.assignment, result.value) == loop_k_median(l, tops, k)
    D, costs = l[list(tops)], rng.integers(0, 3, m) * 0.1
    result = facility_location_solver(D, costs)
    assert (result.assignment, result.value) == loop_facility_location(D, costs)


def _screen_case(rng, trial):
    """Distances with repeated rows (agents at facilities, or a few distinct
    rows), often with two co-located facilities, m = 1 included; now and
    then so many distinct rows that one size spans several chunks."""
    m = 1 if trial % 10 == 0 else int(rng.integers(2, 8))
    n = int(rng.integers(1, 30))
    if trial % 7 == 3:
        D = rng.uniform(0, 5, size=(int(rng.integers(300, 1500)), m))
    elif trial % 3:
        l, tops = _tie_heavy_instance(rng, n, m)
        D = l[list(tops)]
    else:
        distinct = int(rng.integers(1, 5))
        D = rng.uniform(0, 5, size=(distinct, m))[rng.integers(0, distinct, n)]
    if m > 1 and trial % 4 == 1:
        f, g = rng.choice(m, size=2, replace=False)
        D[:, f] = D[:, g]  # co-located facilities: equal columns tie everywhere
    return D


def test_subset_minima_chunks_match_gathered_minima():
    rng = np.random.default_rng(117)
    for trial in range(60):
        D = _screen_case(rng, trial)
        m = D.shape[1]
        for sizes in ((int(rng.integers(1, m + 1)),), range(1, m + 1)):
            seen = {size: [] for size in sizes}
            for subsets, low, arg in _subset_minima(D, sizes):
                assert max(low.size, arg.size, subsets.size) <= BLOCK
                near = D[:, subsets]                                # rows x subsets x size
                assert np.array_equal(low, near.min(axis=2).T)
                assert np.array_equal(arg, subsets[np.arange(len(subsets)), near.argmin(axis=2)].T)
                seen[subsets.shape[1]] += map(tuple, subsets.tolist())
            for size in sizes:
                assert seen[size] == list(itertools.combinations(range(m), size))


def test_subset_screen_keeps_the_gathered_screens_subsets_in_order():
    rng = np.random.default_rng(118)
    for trial in range(300):
        D = _screen_case(rng, trial)
        m = D.shape[1]
        sizes = (int(rng.integers(1, m + 1)),) if trial % 2 else range(1, m + 1)
        largest = bool(trial % 5 == 2)
        opening = None
        if trial % 3 == 1:  # opening costs on a coarse grid: open sets tie
            opening = rng.integers(0, 3, m) * rng.choice([1.0, 0.1])
        assert _near_minimal(D, sizes, largest, opening) == \
            gathered_near_minimal(D, sizes, largest, opening), trial


def test_subset_screen_memory_stays_within_blocks():
    """A 1000-agent, 25-facility, k = 4 k-median (12,650 subsets): every
    prefix level is chunked, so the screen's peak stays far below one
    unchunked level."""
    rng = np.random.default_rng(119)
    pts, agents = rng.uniform(0, 10, size=(25, 2)), rng.uniform(0, 10, size=(1000, 2))
    l = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    tops = np.sqrt(((agents[:, None] - pts[None]) ** 2).sum(axis=2)).argmin(axis=1)
    D = l[tops]
    tracemalloc.start()
    try:
        kept = _near_minimal(D, (4,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == gathered_near_minimal(D, (4,))
    assert peak < 1 << 20, peak


def test_percentile_cap_matches_subset_rule():
    # the cap read off the sorted order names the same agent as argmax over
    # the full subset, ties included: replicated and top-only profiles tie
    # many agents' smallest distances, some of them at zero
    rng = np.random.default_rng(108)
    instances = [random_instance(rng, n_max=12, m_max=5)[:2] for _ in range(30)]
    instances += [(PreferenceProfile(p.m, p.rankings * 3), fd) for p, fd in instances[:8]]
    instances += [(PreferenceProfile(p.m, tuple((r[0],) for r in p.rankings), top_only=True),
                   fd) for p, fd in instances[:8]]
    for profile, fd in instances:
        poly = ConsistencyPolytope(profile, fd)
        for w in range(fd.m):
            xs = np.delete(np.arange(fd.m), w)
            for k in range(1, profile.n + 1):
                value, j, cap, M, c, subset = _percentile_candidates(poly, xs, w, k)
                for t, x in enumerate(xs.tolist()):
                    want_value, want_S, want_binding, want_M, want_c = \
                        subset_percentile_candidate(poly, x, w, k)
                    assert value[t] == want_value
                    assert np.array_equal(subset(t), want_S)
                    assert batched_binding(j, cap, t) == want_binding
                    assert (M[t], c[t]) == (want_M, want_c)


def _percentile_profiles(seed, count):
    """Random profiles, then some of them replicated three times and as
    top-only profiles: the ties and zero smallest distances of the cap rule."""
    rng = np.random.default_rng(seed)
    instances = [random_instance(rng, n_max=9, m_max=5)[:2] for _ in range(count)]
    instances += [(PreferenceProfile(p.m, p.rankings * 3), fd) for p, fd in instances[:count // 3]]
    instances += [(PreferenceProfile(p.m, tuple((r[0],) for r in p.rankings), top_only=True),
                   fd) for p, fd in instances[:count // 3]]
    return instances


def test_batched_percentile_candidates_and_path_sums_match_loop_oracles(monkeypatch):
    # one pass over every alternative gives each x the per-alternative
    # loop's candidate bit for bit, for every ordered pair (x, w) and every
    # k; one stacked relaxation over every certified entry of a profile (its
    # M and c entries for every w, k and x of finite value, many chunks)
    # gives the scalar relaxation's path sums bit for bit.  A quarter of
    # BLOCK cuts the stacks into chunks of BLOCK // (2m)^2 entries, as many
    # as when each entry relaxed over the whole octagon matrix
    monkeypatch.setattr(audit, "BLOCK", BLOCK // 4)
    chunked = 0
    for profile, fd in _percentile_profiles(109, 24):
        poly = ConsistencyPolytope(profile, fd)
        agents, f, g, neg, want_sums = [], [], [], [], []
        for w in range(fd.m):
            xs = np.delete(np.arange(fd.m), w)
            for k in range(1, profile.n + 1):
                value, j, cap, M, c, subset = _percentile_candidates(poly, xs, w, k)
                want = [loop_percentile_candidate(poly, x, w, k) for x in xs.tolist()]
                assert value.tobytes() == np.array([v[0] for v in want]).tobytes()
                assert M.tobytes() == np.array([v[3] for v in want]).tobytes()
                assert c.tobytes() == np.array([v[4] for v in want]).tobytes()
                for t, x in enumerate(xs.tolist()):
                    assert np.array_equal(subset(t), want[t][1])
                    assert batched_binding(j, cap, t) == want[t][2]
                    if np.isfinite(value[t]):  # S[x, x] of cap, G[w, x] of j
                        agents += [cap[t], j[t]]
                        f += [x, w]
                        g += [x, x]
                        neg += [True, False]
                        want_sums += [loop_path_bound(poly, cap[t], x, x, True),
                                      loop_path_bound(poly, j[t], w, x, False)]
        chunked += len(f) > audit.BLOCK // fd.m ** 2
        found = _path_bounds(poly, np.array(agents, dtype=np.intp), np.array(f, dtype=np.intp),
                             np.array(g, dtype=np.intp), np.array(neg, dtype=bool))
        assert found.tobytes() == np.array(want_sums).tobytes()
    assert chunked >= 10  # stacks of more than one chunk


@pytest.mark.parametrize("top_only", [False, True])
def test_octagon_point_reaches_the_vertex_maximum(top_only):
    # per ranking class, numerator facility f and candidate g (f = g
    # included), the closed-form point reaches the largest a - rho b over
    # the loop oracle's vertices that keep every row within 1e-12 of their
    # terms, for rho = 1, random rho > 1 and rho = 1e6, and keeps every row
    # itself.  The oracle's own 1e-9 tolerance admits vertices up to about
    # 1e-9 outside a row, whose a - rho b may exceed the octagon's maximum.
    rng = np.random.default_rng(41)
    co_located = 0
    for _ in range(120):
        profile, fd, _ = random_instance(rng, n_max=8, m_max=5)
        co_located += int((fd.values + np.eye(fd.m) == 0).any())
        if top_only:
            profile = PreferenceProfile(fd.m, tuple(r[:1] for r in profile.rankings),
                                        top_only=True)
        poly, m = ConsistencyPolytope(profile, fd), fd.m
        r, f = np.repeat(np.arange(len(poly.G)), m), np.tile(np.arange(m), len(poly.G))
        g = np.tile(np.arange(m), (len(r), 1))
        a, b = (v.ravel() for v in _octagon_points(poly, r, f, g))
        h = octagon_rows(poly, np.repeat(r, m), np.repeat(f, m), g.ravel())
        va, vb = loop_octagon_vertices(h)
        inside = octagon_inside(h, va, vb)
        for rho in (1.0, *rng.uniform(1.0, 10.0, 2), 1e6):
            best = np.where(inside, va - rho * vb, -np.inf).max(axis=1)
            assert (abs(a - rho * b - best) <= 1e-12 * (abs(a) + rho * abs(b))).all()
        assert octagon_inside(h, a[:, None], b[:, None]).all()
    assert co_located >= 5


def _dinkelbach_sum(poly, ys, winner):
    """The sum audit's families as Dinkelbach's run reads them: per y in
    ``ys`` a family whose classes are the distinct rankings, each with y as
    its one candidate (a constant ``choose``)."""
    R, size = len(poly.G), len(ys)
    return audit._dinkelbach(
        poly, np.tile(np.arange(R), size), np.full(R * size, winner), np.repeat(ys, R)[:, None],
        np.tile(np.bincount(poly.ranking_id), size), np.repeat(np.arange(size), R),
        np.zeros(size), lambda w, rho: (np.zeros(len(w), dtype=np.intp), np.zeros(size)))


def _near_tie_instance(rng):
    """W and Y eps apart, Z 2 from both, every agent ranking Z first: the
    least d(Y) is 1, so each ratio against Y lies within eps of 1."""
    eps = 10.0 ** rng.uniform(-16.0, -11.0)
    fd = facility_distances(("W", "Y", "Z"), [[0.0, eps, 2.0], [eps, 0.0, 2.0],
                                              [2.0, 2.0, 0.0]])
    rankings = tuple((2, *rng.permutation(2).tolist()) for _ in range(rng.integers(1, 4)))
    return PreferenceProfile(3, rankings), fd


def test_sum_closed_form_matches_dinkelbach_bit_for_bit():
    # values, certified bounds and witness rows of every winner against
    # every other facility, co-located and vanishing ones included, on 1000
    # random instances (every other one top-only) and 300 near ties
    rng = np.random.default_rng(32)
    seen = dict.fromkeys(("stepped", "ratio at most 1", "gap within 1e-13", "unbounded",
                          "vanishing with its numerator"), 0)
    for t in range(1300):
        if t < 1000:
            profile, fd, _ = random_instance(rng, n_max=6, m_max=5)
            if t % 2:
                profile = PreferenceProfile(fd.m, tuple(r[:1] for r in profile.rankings),
                                            top_only=True)
        else:
            profile, fd = _near_tie_instance(rng)
        poly, R = ConsistencyPolytope(profile, fd), len(profile.class_array)
        count = np.bincount(poly.ranking_id)[:, None]
        for winner in range(fd.m):
            ys = np.delete(np.arange(fd.m), winner)
            pairs = audit._sum_pairs(poly, ys, winner)
            value, upper, _, point_rows = _dinkelbach_sum(poly, ys, winner)
            assert pairs.value.tobytes() == value.tobytes()
            assert pairs.upper.tobytes() == upper.tobytes()
            a, b = _octagon_points(poly, np.arange(R), np.full(R, winner),
                                   np.broadcast_to(ys, (R, len(ys))))
            for j, (num, den) in enumerate(zip((count * a).sum(axis=0), (count * b).sum(axis=0))):
                rows = pairs.witness(j)
                if value[j] == np.inf:
                    assert rows is None
                else:
                    want = point_rows(slice(j * R, (j + 1) * R))[poly.ranking_id]
                    assert rows.tobytes() == want.tobytes()
                if den <= 0:
                    seen["unbounded" if num > 0 else "vanishing with its numerator"] += 1
                elif num <= den:
                    seen["ratio at most 1"] += 1
                else:
                    seen["gap within 1e-13" if value[j] == 1.0 else "stepped"] += 1
    assert min(seen.values()) >= 20, seen


def test_sum_closed_form_adds_many_classes_in_order():
    # one alternative at a time over 8 or more classes: the closed form's
    # sums add the classes first to last, as Dinkelbach's bincount does, so
    # values and bounds match bit for bit (a numpy sum down one column of 8
    # or more adds them pairwise and can move the last bit)
    rng, checked = np.random.default_rng(34), 0
    while checked < 300:
        fd = random_facility_distances(rng, int(rng.integers(4, 6)))
        n = int(rng.integers(20, 60))
        poly = ConsistencyPolytope(preferences_from_metric(random_consistent_metric(rng, fd, n)),
                                   fd)
        if len(poly.G) < 8:
            continue
        for winner, y in itertools.permutations(range(fd.m), 2):
            ys = np.array([y])
            pairs, (value, upper) = audit._sum_pairs(poly, ys, winner), \
                _dinkelbach_sum(poly, ys, winner)[:2]
            assert (pairs.value.tobytes(), pairs.upper.tobytes()) == \
                (value.tobytes(), upper.tobytes()), (winner, y)
            checked += 1


def test_ratio_and_percentile_quotients_match_the_errstate_formulas():
    # _ratio and _lift (a percentile configuration's value, from a gap >= 0,
    # and its certified bound) divide only where the denominator is
    # positive, and read bit for bit as the np.where formulas they replaced
    # under np.errstate (helpers), with no warning: on a grid of numerators
    # and denominators, as scalars and as arrays.  inf / inf is itself an
    # invalid IEEE operation, which no audit forms (it divides sums of
    # finite distances); it reads the same NaN, checked with warnings off
    grid = (-1.0, -0.0, 0.0, 1e-300, 1.0, np.inf)
    pairs = [(a, b) for a in grid for b in grid if not np.isinf(a) or not np.isinf(b)]
    num, den = (np.array(v) for v in zip(*pairs))
    quotients = ((audit._ratio, errstate_ratio, lambda a: a),
                 (audit._lift, errstate_percentile_value, lambda a: np.maximum(a, 0.0)),
                 (audit._lift, errstate_percentile_bound, lambda a: a))
    for new, old, top in quotients:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in pairs:
                got, want = np.asarray(new(top(a), b)), np.asarray(old(top(a), b))
                assert (got.shape, got.tobytes()) == ((), want.tobytes()), (a, b)
            assert new(top(num), den).tobytes() == old(top(num), den).tobytes()
        with np.errstate(invalid="ignore"):
            assert np.isnan(new(top(np.inf), np.inf))
            assert (np.asarray(new(top(np.inf), np.inf)).tobytes()
                    == np.asarray(old(top(np.inf), np.inf)).tobytes())
