"""Distortion audits: exactness, witnesses, soundness, degenerate cases."""

import gc
import math
import re
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ordmech import (InternalInvariantError, PreferenceProfile, SearchSpaceError, SolverError,
                     UnboundedObjectiveError, audit_additive_assignment,
                     audit_percentile_social_choice, audit_sum_social_choice, build_preset,
                     check_consistency,
                     evaluate_percentile_cost, evaluate_sum_cost,
                     facility_distances, median_winner, distance_partial_order,
                     FullMetric, project_agents,
                     reduce_and_solve, sample_consistent_metric, sum_winner)
from ordmech import audit
from ordmech.audit import ConsistencyPolytope, _metric_from_values
from ordmech.core import BLOCK, consistency_constraints
from ordmech.fileio import audit_report_to_dict, instance_digest, load_instance, report_text
from ordmech.gallery import gen_median_topchoice_bad, gen_sum5_tight
from ordmech.solvers import SOLVERS

from helpers import (agent_block, block_closure, block_raw, enumerated_assignment_audit,
                     iter_valid_assignments, preferences_from_metric,
                     random_consistent_metric, random_facility_distances, random_instance)


def _tie_instance(span=2.0):
    fd = facility_distances(("X", "Y"), [[0.0, span], [span, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (1, 0)))
    return profile, fd


def test_single_facility_audits_to_one():
    fd = facility_distances(("X",), [[0.0]])
    profile = PreferenceProfile(1, ((0,), (0,)))
    report = audit_sum_social_choice(0, profile, fd)
    assert report.value == 1.0
    assert report.witness is not None


def test_two_candidate_tie_audits_to_three():
    profile, fd = _tie_instance()
    for winner in (0, 1):
        report = audit_sum_social_choice(winner, profile, fd)
        assert report.value == pytest.approx(3.0, abs=1e-7)
        # the witness puts one agent equidistant and one on the alternative
        assert report.witness_ratio == pytest.approx(report.value, abs=1e-6)


def test_tie_audit_is_scale_invariant():
    # the worst case lives at a different normalization than the geometry
    for span in (0.5, 2.0, 4.0, 1000.0):
        profile, fd = _tie_instance(span)
        report = audit_sum_social_choice(0, profile, fd)
        assert report.value == pytest.approx(3.0, abs=1e-6), span


@pytest.mark.parametrize("span", [1.0, 1e4, 1e6, 1e8, 1e10])
def test_sum_audit_across_wide_distance_spans(span):
    # l(Y, Z) = 1e-3 beside l(X, .) = span: two agents ranking Z first sit
    # at least 5e-4 from Y, so X against Y reads 4000 span + 1.  A vertex
    # tolerance relative to an octagon's largest bound passed b = 0 there
    # from span = 1e6 on, and the audit read an infinite value.
    fd = facility_distances("XYZ", [[0.0, span, span], [span, 0.0, 1e-3], [span, 1e-3, 0.0]])
    profile = PreferenceProfile(3, ((2, 1, 0), (2, 1, 0), (1, 2, 0), (1, 2, 0)))
    report = audit_sum_social_choice(0, profile, fd)
    assert report.value == pytest.approx(4000 * span + 1, rel=1e-9)
    assert report.witness_ratio <= report.value * (1 + 1e-9)
    assert report.value <= report.certified_upper * (1 + 1e-9)
    assert report.witness_ratio == pytest.approx(report.value, rel=1e-6)
    assert report.flags == ()


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_audits_of_geometries_scaled_far_up(scale):
    # distortion does not depend on the unit: every geometry stays valid
    # scaled up, and its sum and median audits read the unscaled values,
    # with no witness pulled inward.  Absolute 1e-9 tolerances refused some
    # of these geometries, and a median witness one ulp outside the pair
    # bounds was repaired below the value, so the audit raised.
    rng = np.random.default_rng(5)
    for _ in range(40):
        profile, fd, _ = random_instance(rng, n_max=7, m_max=5)
        big = facility_distances(fd.facilities.names, fd.values * scale)
        for winner in range(fd.m):
            for audit_of in (lambda f: audit_sum_social_choice(winner, profile, f),
                             lambda f: audit_percentile_social_choice(winner, profile, f, 0.5)):
                report, base = audit_of(big), audit_of(fd)
                assert report.value == pytest.approx(base.value, rel=1e-9)
                assert report.flags == base.flags


def test_audits_do_not_depend_on_the_unit_of_length():
    # the audits test zero exactly on input numbers, so a geometry scaled
    # far down or up keeps every sum, median and k-median value and flag
    # within 1e-9, and bit for bit when the scale is a power of two.  At
    # 1e-12 and below, absolute 1e-12 zero tests read facilities as
    # co-located, or agents as seated where their rankings rule it out
    rng = np.random.default_rng(5)
    suite = []
    for _ in range(200):
        profile, fd, _ = random_instance(rng, n_max=7, m_max=5)
        problem = build_preset("k_median", profile.n, fd.facilities, {"k": 2})
        suite.append((profile, fd, problem,
                      reduce_and_solve(problem, profile, fd, SOLVERS["k_median"]).assignment))

    def audits(scale):
        values, flags = [], []
        for profile, fd, problem, x in suite:
            fd = facility_distances(fd.facilities.names, fd.values * scale)
            reports = [audit_additive_assignment(x, profile, fd, problem)]
            for winner in range(fd.m):
                reports += [audit_sum_social_choice(winner, profile, fd),
                            audit_percentile_social_choice(winner, profile, fd, 0.5)]
            values += [report.value for report in reports]
            flags += [report.flags for report in reports]
        return np.array(values), flags

    want, want_flags = audits(1.0)
    assert len(want) == 1562
    for scale in (2.0 ** -40, 1e-15, 1e-12, 1e-9, 1e-6, 1e6, 1e9, 1e12):
        got, flags = audits(scale)
        assert flags == want_flags, scale
        if math.frexp(scale)[0] == 0.5:
            assert got.tobytes() == want.tobytes()
        finite = np.isfinite(want)
        np.testing.assert_array_equal(got[~finite], want[~finite])
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9, atol=0, err_msg=scale)


def test_unanimous_winner_audits_to_one():
    # everyone's top choice is optimal under every consistent metric
    fd = facility_distances(("F1", "F2"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (0, 1)))
    report = audit_sum_social_choice(0, profile, fd)
    assert report.value == 1.0


def test_sample_single_facility_column():
    fd = facility_distances(("X",), [[0.0]])
    profile = PreferenceProfile(1, ((0,), (0,), (0,)))
    metric = sample_consistent_metric(profile, fd, seed=1)
    assert metric.distances.shape == (3, 1)
    assert (metric.distances >= 0).all()


def test_unanimous_loser_audits_to_infinity():
    fd = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (0, 1)))
    report = audit_sum_social_choice(1, profile, fd)
    assert math.isinf(report.value)
    assert "denominator_vanishes" in report.flags
    assert report.witness is not None
    assert math.isinf(report.witness_ratio)


def test_colocated_alternatives_audit_to_one():
    fd = facility_distances(("X", "Y"), [[0.0, 0.0], [0.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (1, 0), (0, 1)))
    report = audit_sum_social_choice(0, profile, fd)
    assert report.value == 1.0


def test_sum_audit_soundness_against_samples():
    rng = np.random.default_rng(41)
    for trial in range(15):
        profile, fd, metric = random_instance(rng, n_max=6, m_max=4)
        winner = sum_winner(project_agents(profile, fd)).winner
        report = audit_sum_social_choice(winner, profile, fd)
        samples = [metric] + [sample_consistent_metric(profile, fd, seed=7 * trial + s)
                              for s in range(6)]
        for d in samples:
            cols = [evaluate_sum_cost(f, d) for f in range(fd.m)]
            best = min(cols)
            if best <= 1e-12:
                continue
            assert cols[winner] / best <= report.value + 1e-6


def test_witness_fidelity_and_consistency():
    rng = np.random.default_rng(42)
    for _ in range(25):
        profile, fd, _ = random_instance(rng, n_max=5, m_max=4)
        winner = sum_winner(project_agents(profile, fd)).winner
        report = audit_sum_social_choice(winner, profile, fd)
        assert report.witness is not None
        assert check_consistency(profile, report.witness, tol=1e-7)
        if math.isfinite(report.value):
            assert report.witness_ratio == pytest.approx(
                report.value, abs=1e-6 * max(1.0, report.value))


def _grid_ratio_sup(profile, fd, winner, upper, points):
    """Independent oracle: densely enumerate the constraint box and take
    the best achievable sum-cost ratio."""
    from ordmech import consistency_constraints
    cons = consistency_constraints(profile, fd)
    axes = [np.linspace(0.0, upper, points)] * cons.nvars
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, cons.nvars)
    feasible = grid[(grid @ cons.A.T <= cons.b + 1e-9).all(axis=1)]
    n, m = profile.n, profile.m
    d = feasible.reshape(-1, n, m)
    num = d[:, :, winner].sum(axis=1)
    den = d.sum(axis=1).min(axis=1)
    ok = den > 1e-12
    return float((num[ok] / den[ok]).max()) if ok.any() else 1.0


def test_grid_oracle_never_beats_the_audit():
    rng = np.random.default_rng(48)
    for _ in range(6):
        span = float(rng.uniform(0.5, 3.0))
        fd = facility_distances(("X", "Y"), [[0.0, span], [span, 0.0]])
        rankings = tuple(tuple(rng.permutation(2)) for _ in range(2))
        profile = PreferenceProfile(2, rankings)
        for winner in (0, 1):
            report = audit_sum_social_choice(winner, profile, fd)
            if not math.isfinite(report.value):
                continue
            grid = _grid_ratio_sup(profile, fd, winner, 1.5 * span, 13)
            assert grid <= report.value + 1e-9


def test_grid_oracle_attains_the_tie_value():
    # grid step chosen so the known worst case lies exactly on the lattice
    profile, fd = _tie_instance(2.0)
    report = audit_sum_social_choice(0, profile, fd)
    grid = _grid_ratio_sup(profile, fd, 0, 3.0, 13)  # step 0.25 hits (1,1,2,0)
    assert grid == pytest.approx(report.value, abs=1e-9)


def test_sum_audit_with_top_only_profile():
    fd = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    split = PreferenceProfile(2, ((0,), (1,)), top_only=True)
    report = audit_sum_social_choice(0, split, fd)
    assert report.value == pytest.approx(3.0, abs=1e-7)

    fd3 = facility_distances(("X", "Y"), [[0.0, 3.0], [3.0, 0.0]])
    lopsided = PreferenceProfile(2, ((0,), (0,), (1,)), top_only=True)
    report = audit_sum_social_choice(0, lopsided, fd3)
    # two agents at least halfway out, one free to sit on the alternative
    assert report.value == pytest.approx(2.0, abs=1e-7)


def test_sample_consistent_metric_contract():
    rng = np.random.default_rng(43)
    profile, fd, _ = random_instance(rng, n_max=5, m_max=4)
    a = sample_consistent_metric(profile, fd, seed=5)
    b = sample_consistent_metric(profile, fd, seed=5)
    c = sample_consistent_metric(profile, fd, seed=6)
    assert np.array_equal(a.distances, b.distances)
    assert check_consistency(profile, a)
    assert not np.allclose(a.distances, c.distances)  # generic instances differ


def test_percentile_audit_refuses_low_alpha():
    profile, fd = _tie_instance()
    with pytest.raises(UnboundedObjectiveError):
        audit_percentile_social_choice(0, profile, fd, 0.3)
    with pytest.raises(UnboundedObjectiveError):
        audit_percentile_social_choice(0, profile, fd, 1.2)


@pytest.mark.parametrize("winner", [-1, 2, 1.0, True, False, np.bool_(False), "0"])
def test_social_choice_audits_refuse_a_winner_outside_the_facilities(winner):
    # a facility index is an int or a numpy integer, never a bool, below m
    profile, fd = _tie_instance()
    message = f"^winner {re.escape(repr(winner))} is not a facility index below m = 2$"
    with pytest.raises(SolverError, match=message):
        audit_sum_social_choice(winner, profile, fd)
    with pytest.raises(SolverError, match=message):
        audit_percentile_social_choice(winner, profile, fd, 0.5)


def test_social_choice_audits_take_a_numpy_winner():
    profile, fd = _tie_instance()
    assert audit_sum_social_choice(np.int64(1), profile, fd).value == 3.0
    assert audit_sum_social_choice(np.int64(0), profile, fd).value == \
        audit_sum_social_choice(0, profile, fd).value
    assert audit_percentile_social_choice(np.int64(0), profile, fd, 0.5).value == \
        audit_percentile_social_choice(0, profile, fd, 0.5).value
    assert audit_percentile_social_choice(np.int64(1), profile, fd, 0.5).value == \
        audit_percentile_social_choice(1, profile, fd, 0.5).value


def test_percentile_condorcet_instances_within_three():
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 10:
        profile, fd, _ = random_instance(rng, n_max=6, m_max=4)
        outcome = median_winner(profile, distance_partial_order(fd))
        if outcome.kind != "condorcet":
            continue
        checked += 1
        report = audit_percentile_social_choice(outcome.winner, profile, fd, 0.5)
        assert report.exact
        assert report.value <= 3 + 1e-6


def test_percentile_alpha_one_is_egalitarian():
    profile, fd = _tie_instance()
    report = audit_percentile_social_choice(0, profile, fd, 1.0)
    assert report.exact
    assert report.value >= 1.0


def _config_value(cons, S, T, x, w) -> float:
    """sup of min over T of d(., w) / max over S of d(., x) across the
    consistency polytope of every agent, as one scaled LP: distances and
    geometry scaled by tau, S's distances to x capped at one, and a floor
    under T's distances to w maximized."""
    k = cons.nvars  # then tau, then the floor
    rows = np.hstack([cons.A, -cons.b[:, None], np.zeros((len(cons.b), 1))])
    cap = np.zeros((len(S), k + 2))
    cap[np.arange(len(S)), np.asarray(S) * cons.m + x] = 1.0
    floor = np.zeros((len(T), k + 2))
    floor[:, k + 1] = 1.0
    floor[np.arange(len(T)), np.asarray(T) * cons.m + w] = -1.0
    res = audit.solve_lp(np.eye(k + 2)[k + 1], np.vstack([rows, cap, floor]),
                         np.concatenate([np.zeros(len(rows)), np.ones(len(S)),
                                         np.zeros(len(T))]), maximize=True)
    return math.inf if res.status == "unbounded" else res.fun


def test_percentile_reduction_matches_subset_enumeration():
    # oracle: every (S, T) subset pair, not just the derived candidates.
    # Enumeration grows as C(n, k)^2 LPs per alternative, so n = 8 is left
    # out: at n = 7, m = 4 and alpha = 1/2 one instance already takes ~10 s.
    rng = np.random.default_rng(45)
    instances = [random_instance(rng, n_max=5, m_max=3) for _ in range(12)]
    rng = np.random.default_rng(451)
    instances += [random_instance(rng, n_min=n, n_max=n, m_min=4, m_max=4)
                  for n in (6, 7)]
    from ordmech.social_choice import percentile_rank
    for profile, fd, _ in instances:
        n, m = profile.n, profile.m
        poly = ConsistencyPolytope(profile, fd)
        cons = consistency_constraints(profile, fd)
        winner = median_winner(profile, distance_partial_order(fd)).winner
        for alpha in (0.5, 0.75, 1.0):
            k = percentile_rank(n, alpha)
            report = audit_percentile_social_choice(winner, profile, fd, alpha)
            for x in range(m):
                if x == winner or fd.values[winner, x] <= 1e-12:
                    continue
                if poly.can_sit[:, x].sum() >= k:
                    continue  # the audit reports infinity combinatorially
                oracle = 0.0
                for S in combinations(range(n), k):
                    for T in combinations(range(n), n - k + 1):
                        oracle = max(oracle, _config_value(cons, S, T, x, winner))
                got = dict(report.per_alternative)[x]
                if math.isinf(oracle) or math.isinf(got):
                    assert math.isinf(oracle) and math.isinf(got)
                else:
                    assert abs(got - oracle) <= 1e-6


def test_closure_bounds_match_lp():
    # every consistent-distance bound the percentile audit reads from the
    # closure of a ranking block, against an LP over the same block
    rng = np.random.default_rng(452)
    profiles = []
    for _ in range(25):
        profile, fd, _ = random_instance(rng, n_max=4, m_max=5)
        profiles.append((profile, fd))
        profiles.append((PreferenceProfile(fd.m, tuple((r[0],) for r in profile.rankings),
                                           top_only=True), fd))
    for profile, fd in profiles:
        poly = ConsistencyPolytope(profile, fd)
        m = fd.m
        for i in range(profile.n):
            A, b = agent_block(poly, i)
            for x in range(m):
                res = audit.solve_lp(np.eye(m)[x], A, b)
                assert poly.min_agent_distance(i, x) == pytest.approx(res.fun, abs=1e-9)
                for w in range(m):
                    res = audit.solve_lp(np.eye(m)[w] - np.eye(m)[x], A, b, maximize=True)
                    assert poly.G[poly.ranking_id[i], w, x] == pytest.approx(res.fun, abs=1e-9)


def test_greatest_row_extends_two_consistent_distances():
    # how sum and assignment audits build witness rows: two distances of a
    # consistent row, extended to the greatest full row from the closure
    # alone, whose every coordinate is HiGHS's largest under the agent's
    # block with the two distances fixed
    rng = np.random.default_rng(454)
    for _ in range(30):
        profile, fd, metric = random_instance(rng, n_max=4, m_max=5)
        poly = ConsistencyPolytope(profile, fd)
        eye = np.eye(fd.m)
        for i in range(profile.n):
            A, b = agent_block(poly, i)
            r = poly.ranking_id[i]
            d = metric.distances[i]
            for f in range(fd.m):
                for g in range(fd.m):
                    row = audit._greatest_rows(poly, r, ((f, d[f]), (g, d[g])))
                    # exactly where the two values keep the closure's rows in
                    # floating point, else within the metric's own rounding
                    G = poly.G[r]
                    if d[f] <= d[g] + G[f, g] and d[g] <= d[f] + G[g, f]:
                        assert row[f] == d[f] and row[g] == d[g]
                    assert row[[f, g]] == pytest.approx(d[[f, g]], abs=1e-9)
                    assert (A @ row - b).max() <= 1e-9
                    if g < f:  # the pair's LPs are those of (g, f)
                        continue
                    for a in range(fd.m):
                        res = audit.solve_lp(eye[a], A, b, eye[[f, g]], d[[f, g]],
                                             maximize=True)
                        assert row[a] == pytest.approx(res.fun, abs=1e-9)


def _planar_instance(rng, n, m):
    """Agents and facilities at random points of the plane."""
    pts = rng.uniform(0.0, 10.0, size=(n + m, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    fd = facility_distances(tuple(f"F{j + 1}" for j in range(m)), d[n:, n:])
    metric = FullMetric(d[:n, n:], fd)
    return preferences_from_metric(metric), fd


def test_percentile_audits_solve_no_lp(monkeypatch):
    # each alternative's value is a closed form, bounded above by paths of
    # ranking rows and reached by a witness built from the closure, however
    # many ranking classes offer a candidate configuration
    calls = []
    monkeypatch.setattr(audit, "solve_lp", lambda *args, **kwargs: calls.append(args))
    rng = np.random.default_rng(453)
    instances = [random_instance(rng, n_min=20, n_max=30, m_min=4, m_max=4)[:2]
                 for _ in range(5)]
    instances.append(_planar_instance(np.random.default_rng(456), 240, 6))
    assert len(set(instances[-1][0].rankings)) > 50
    for profile, fd in instances:
        assert len(set(profile.rankings)) >= 4
        winner = median_winner(profile, distance_partial_order(fd)).winner
        report = audit_percentile_social_choice(winner, profile, fd, 0.5)
        assert abs(report.witness_ratio - report.value) <= 1e-9 * report.value
        assert report.value <= report.certified_upper
    assert calls == []


def test_percentile_denominator_vanishes_combinatorially():
    fd = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (0, 1), (0, 1)))
    report = audit_percentile_social_choice(1, profile, fd, 0.5)
    assert math.isinf(report.value)
    assert report.witness is not None
    # the witness seats a majority on X, zeroing X's median
    assert evaluate_percentile_cost(0, report.witness, 0.5) == 0.0
    assert evaluate_percentile_cost(1, report.witness, 0.5) > 0.0


def test_percentile_strawman_square_lower_bound_reproduced():
    ex = gen_median_topchoice_bad()
    report = audit_percentile_social_choice(0, ex.profile, ex.fd, 0.5)
    assert report.exact
    # the bundled metric realizes ratio 5, so the exact value is at least 5
    assert report.value >= 5.0 - 1e-9
    med = [evaluate_percentile_cost(f, ex.metric, 0.5) for f in range(4)]
    assert med[0] / min(med) == pytest.approx(5.0)
    assert med[0] / min(med) <= report.value + 1e-9


def test_percentile_audit_exact_beyond_eight_agents():
    rng = np.random.default_rng(46)
    profile, fd, _ = random_instance(rng, n_max=12, m_max=3, n_min=9)
    assert profile.n > 8
    winner = median_winner(profile, distance_partial_order(fd)).winner
    report = audit_percentile_social_choice(winner, profile, fd, 0.5)
    assert report.exact
    assert report.value <= 3 + 1e-6
    assert abs(report.witness_ratio - report.value) <= 1e-6 * report.value
    for s in range(20):
        metric = sample_consistent_metric(profile, fd, seed=s)
        pcs = [evaluate_percentile_cost(f, metric, 0.5) for f in range(fd.m)]
        if min(pcs) > 1e-12:
            assert pcs[winner] / min(pcs) <= report.value + 1e-6


def test_percentile_audit_exact_at_n2001():
    # the factor-5 sum instance still has median distortion at most 3
    ex = gen_sum5_tight(q=1000)
    winner = median_winner(ex.profile, distance_partial_order(ex.fd)).winner
    report = audit_percentile_social_choice(winner, ex.profile, ex.fd, 0.5)
    assert report.exact
    assert report.value <= 3 + 1e-6
    assert abs(report.witness_ratio - report.value) <= 1e-6 * report.value


def test_percentile_soundness_samples_below_exact():
    rng = np.random.default_rng(47)
    for trial in range(8):
        profile, fd, _ = random_instance(rng, n_max=6, m_max=3)
        winner = median_winner(profile, distance_partial_order(fd)).winner
        report = audit_percentile_social_choice(winner, profile, fd, 0.5)
        for s in range(6):
            metric = sample_consistent_metric(profile, fd, seed=100 * trial + s)
            pcs = [evaluate_percentile_cost(f, metric, 0.5) for f in range(fd.m)]
            best = min(pcs)
            if best <= 1e-12:
                continue
            assert pcs[winner] / best <= report.value + 1e-6


def test_assignment_audit_single_agent_matching():
    fd = facility_distances(("A",), [[0.0]])
    profile = PreferenceProfile(1, ((0,),))
    problem = build_preset("matching_min_cost", 1, fd.facilities)
    report = audit_additive_assignment((0,), profile, fd, problem)
    assert report.value == 1.0


def test_assignment_audit_two_agent_example_is_three():
    fd = facility_distances(("F1", "F2"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (0, 1)))
    problem = build_preset("matching_min_cost", 2, fd.facilities)
    for x in ((0, 1), (1, 0)):
        report = audit_additive_assignment(x, profile, fd, problem)
        assert report.value == pytest.approx(3.0, abs=1e-7)
        assert check_consistency(profile, report.witness, tol=1e-7)
        assert report.witness_ratio == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("x", [(1.0, 0.0), (1.5, 0), ("1", "0"), (True, False)])
@pytest.mark.parametrize("preset", ["matching_min_cost", "k_median"])
def test_assignment_audit_refuses_an_entry_that_is_no_facility_index(preset, x):
    # a facility index is an int or a numpy integer, never a bool
    fd = facility_distances(("F1", "F2"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (0, 1)))
    problem = build_preset(preset, 2, fd.facilities, {"k": 2})
    assert not problem.constraints.is_valid(x)
    with pytest.raises(SolverError, match="violates the constraints"):
        audit_additive_assignment(x, profile, fd, problem)
    assert problem.constraints.is_valid((np.int64(1), np.int64(0)))
    assert audit_additive_assignment((np.int64(1), np.int64(0)), profile, fd, problem).value \
        == audit_additive_assignment((1, 0), profile, fd, problem).value


def test_assignment_audit_with_opening_costs():
    fd = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (1, 0)))
    problem = build_preset("facility_location", 2, fd.facilities,
                           {"opening_costs": [1.0, 1.0]})
    report = audit_additive_assignment((0, 1), profile, fd, problem)
    assert math.isfinite(report.value)
    assert report.value >= 1.0
    samples = [sample_consistent_metric(profile, fd, seed=s) for s in range(8)]
    from ordmech import total_cost
    for metric in samples:
        mine = total_cost((0, 1), metric.distances, problem.cost_spec)
        best = min(total_cost(x, metric.distances, problem.cost_spec)
                   for x in iter_valid_assignments(2, problem.constraints))
        assert mine / best <= report.value + 1e-6


def test_assignment_audit_rejects_max_cost():
    fd = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (1, 0)))
    problem = build_preset("matching_egalitarian", 2, fd.facilities)
    from ordmech import SolverError
    with pytest.raises(SolverError):
        audit_additive_assignment((0, 1), profile, fd, problem)


def test_sum_audit_invariant_under_agent_replication():
    # agents with one ranking form one block weighted by their share
    rng = np.random.default_rng(50)
    for trial in range(20):
        profile, fd, _ = random_instance(rng, n_max=6, m_max=4)
        winner = sum_winner(project_agents(profile, fd)).winner
        base = audit_sum_social_choice(winner, profile, fd)
        copies = 2 + trial % 2
        grown = PreferenceProfile(profile.m, profile.rankings * copies)
        report = audit_sum_social_choice(winner, grown, fd)
        if math.isinf(base.value):
            assert math.isinf(report.value)
        else:
            assert report.value == pytest.approx(base.value, abs=1e-9)


def test_sum_and_assignment_audits_solve_no_lp(monkeypatch):
    # each ratio is maximized over the classes' octagon vertices, so neither
    # audit reaches the LP solver, at 2001 agents or with opening costs
    calls = []
    monkeypatch.setattr(audit, "solve_lp", lambda *args, **kwargs: calls.append(args))
    ex = gen_sum5_tight(q=1000)
    report = audit_sum_social_choice(1, ex.profile, ex.fd)
    assert report.value == pytest.approx((1000 * (5 - 4e-4) + 1) / 1001, rel=1e-12)
    assert report.witness_ratio <= report.value <= report.certified_upper
    fd = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    profile = PreferenceProfile(2, ((0, 1), (1, 0)))
    for name, params in (("matching_min_cost", {}),
                         ("facility_location", {"opening_costs": [1.0, 0.5]})):
        problem = build_preset(name, 2, fd.facilities, params)
        report = audit_additive_assignment((1, 0), profile, fd, problem)
        assert report.value > 1.0 and report.certified_upper is not None
    assert calls == []


def test_sum_audit_witness_reproduces_value_at_n400():
    # clustered instance whose witness once needed repair: pinning the
    # denominator's sum made the scale ~1/n and amplified solver slack
    inst = load_instance(Path(__file__).parent / "fixtures" / "clustered_n400.json")
    winner = sum_winner(project_agents(inst.profile, inst.fd)).winner
    report = audit_sum_social_choice(winner, inst.profile, inst.fd)
    assert report.flags == ()
    assert abs(report.witness_ratio - report.value) <= 1e-6 * report.value


def _stacked_profiles():
    """(profile, fd) pairs for the stacked-closure tests: random full and
    top-only profiles (some with co-located facilities), m = 1, and m = 40
    profiles whose distinct rankings span several chunks."""
    rng = np.random.default_rng(456)
    cases = []
    for _ in range(40):
        profile, fd, _ = random_instance(rng, n_max=8, m_max=5)
        cases.append((profile, fd))
        cases.append((PreferenceProfile(fd.m, tuple((r[0],) for r in profile.rankings),
                                        top_only=True), fd))
    single = facility_distances(("X",), [[0.0]])
    cases += [(PreferenceProfile(1, ((0,),) * 3), single),
              (PreferenceProfile(1, ((0,),) * 2, top_only=True), single)]
    colocated = facility_distances(("A", "B", "C"), [[0, 0, 2], [0, 0, 2], [2, 2, 0]])
    cases += [(PreferenceProfile(3, ((0, 1, 2), (1, 0, 2), (2, 1, 0))), colocated),
              (PreferenceProfile(3, ((1,), (2,)), top_only=True), colocated)]
    for _ in range(2):
        fd = random_facility_distances(rng, 40)
        profile = preferences_from_metric(random_consistent_metric(rng, fd, 60))
        assert len({r[0] for r in profile.rankings}) > audit.CLOSURE_BLOCK // 40 ** 2
        cases += [(profile, fd), (PreferenceProfile(40, tuple((r[0],) for r in profile.rankings),
                                                    top_only=True), fd)]
    return cases


def _live_blocks(W):
    """The even -> even and odd -> even quarters of an octagon matrix over
    v[2a] = d(a), v[2a + 1] = -d(a): the bounds on d(f) - d(g) and on
    -(d(f) + d(g)), as ConsistencyPolytope's G and S hold them."""
    return W[0::2, 0::2], W[1::2, 0::2]


def test_stacked_closure_matches_per_ranking_oracle():
    # every ranking's raw blocks hold its block's least row bound per (p, q)
    # of the octagon matrix, and the stacked pass closes them bit for bit as
    # a Floyd-Warshall over that block alone; an agent can sit on f iff the
    # row l(f, .) keeps its chain rows
    for profile, fd in _stacked_profiles():
        poly = ConsistencyPolytope(profile, fd)
        first = np.unique(poly.ranking_id, return_index=True)[1]
        assert poly.G.shape == poly.S.shape == (len(first), fd.m, fd.m)
        assert len(first) == len(set(profile.rankings))
        for r, i in enumerate(first):
            A, b = agent_block(poly, i)
            G, S = poly.raw([r])
            assert [G[0].tolist(), S[0].tolist()] == [w.tolist() for w in
                                                      _live_blocks(block_raw(A, b))]
            G, S = _live_blocks(block_closure(A, b))
            assert (poly.G[r].tobytes(), poly.S[r].tobytes()) == (G.tobytes(), S.tobytes())
        chain = fd.m - 1  # the first rows of every block
        for i in range(profile.n):
            A, b = agent_block(poly, i)
            sits = (A[:chain] @ fd.values.T <= b[:chain, None] + 1e-9).all(axis=0)
            assert poly.can_sit[i].tolist() == sits.tolist()


def test_first_agent_of_each_ranking_is_uniques_first_index():
    # ConsistencyPolytope.first reads each ranking's first agent off the
    # running maximum of ranking_id, as rankings are numbered by first
    # appearance: np.unique's first indices, on full and top-only profiles,
    # one agent, one ranking, and the stacked-closure cases
    fd = facility_distances(("A", "B", "C"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    cases = [(PreferenceProfile(3, ((0, 1, 2), (2, 1, 0), (0, 1, 2), (1, 0, 2), (2, 1, 0))), fd),
             (PreferenceProfile(3, ((1,), (1,), (0,), (2,), (0,)), top_only=True), fd),
             (PreferenceProfile(3, ((2, 1, 0),)), fd),
             (PreferenceProfile(3, ((1,),), top_only=True), fd),
             (PreferenceProfile(3, ((1, 0, 2),) * 4), fd)]
    for profile, fd in cases + _stacked_profiles():
        first = ConsistencyPolytope(profile, fd).first
        assert first.tolist() == np.unique(profile.class_of, return_index=True)[1].tolist()


def test_closure_keeps_the_two_live_quarters_of_the_octagon():
    # per ranking, the octagon closure of its block alone has nothing but
    # +inf on d(f) + d(g) (even -> odd) and G transposed on -d(f) + d(g)
    # (odd -> odd), so G and S, its even -> even and odd -> even quarters,
    # are all of it, bit for bit: full and top-only profiles, and at m = 40
    # across chunks
    for profile, fd in _stacked_profiles():
        poly = ConsistencyPolytope(profile, fd)
        for r, i in enumerate(poly.first):
            W = block_closure(*agent_block(poly, i))
            assert (W[0::2, 1::2] == np.inf).all()
            assert W[1::2, 1::2].tobytes() == W[0::2, 0::2].T.tobytes()
            assert poly.G[r].tobytes() == W[0::2, 0::2].tobytes()
            assert poly.S[r].tobytes() == W[1::2, 0::2].tobytes()


def test_path_bound_reproduces_every_certified_closure_entry():
    # a Bellman-Ford relaxation over each ranking's raw rows from one source
    # re-derives every entry of G and every entry on S's diagonal, the only
    # entries an audit certifies, not only the two that a percentile audit
    # reads: one stacked call per profile
    for profile, fd in _stacked_profiles()[:-4]:  # all but the m = 40 profiles
        poly, m = ConsistencyPolytope(profile, fd), fd.m
        entries = ([(r, f, g, False) for r in range(len(poly.G)) for f in range(m)
                    for g in range(m)] + [(r, g, g, True) for r in range(len(poly.G))
                                          for g in range(m)])  # G in full, then S's diagonal
        r, f, g, neg = (np.array(v) for v in zip(*entries))
        found = audit._path_bounds(poly, poly.first[r], f, g, neg)
        entry = np.where(neg, poly.S[r, f, g], poly.G[r, f, g])
        assert np.isfinite(entry).all()
        for e, W in enumerate(entry.tolist()):
            assert found[e] == pytest.approx(W, rel=1e-9, abs=1e-9 * poly.radius)


def test_each_ranking_closure_is_built_once(monkeypatch):
    # every audit reads every distinct ranking's closure, built once in
    # chunks of whole rankings within the element budget; an assignment
    # audit refused for its search space builds none.  The median audit
    # reads a second load of the sum audit's file: the same objects would
    # share the sum audit's closure
    chunks = []
    real = audit._closure
    monkeypatch.setattr(audit, "_closure",
                        lambda G, S: real(G, S) or chunks.append([G.copy(), S.copy()]))
    fixtures = Path(__file__).parent / "fixtures"
    inst, again = (load_instance(fixtures / "clustered_n400.json") for _ in range(2))
    pair = load_instance(fixtures / "matching_pair.json")
    problem = build_preset(pair.preset, pair.n, pair.facilities)
    wide_fd = random_facility_distances(np.random.default_rng(457), 40)
    wide = preferences_from_metric(random_consistent_metric(np.random.default_rng(458),
                                                            wide_fd, 200))
    for profile, fd, run in (
            (inst.profile, inst.fd, lambda: audit_sum_social_choice(0, inst.profile, inst.fd)),
            (again.profile, again.fd,
             lambda: audit_percentile_social_choice(0, again.profile, again.fd, 0.5)),
            (pair.profile, pair.fd, lambda: audit_additive_assignment(
                (1, 0), pair.profile, pair.fd, problem)),
            (wide, wide_fd, lambda: audit_sum_social_choice(0, wide, wide_fd))):
        poly = ConsistencyPolytope(profile, fd)
        first = np.unique(poly.ranking_id, return_index=True)[1]
        chunks.clear()
        run()
        size = fd.m ** 2  # G, or S, of one ranking
        assert all(G.shape[1:] == S.shape[1:] == (fd.m, fd.m) for G, S in chunks)
        assert max(max(G.size, S.size) for G, S in chunks) <= max(audit.CLOSURE_BLOCK, size)
        # the chunks, in order, close each distinct ranking exactly once
        assert len(chunks) == -(-len(first) // max(1, audit.CLOSURE_BLOCK // size))
        want = [_live_blocks(block_closure(*agent_block(poly, i))) for i in first]
        for t in range(2):  # G, then S
            assert np.concatenate([c[t] for c in chunks]).tobytes() == np.stack(
                [w[t] for w in want]).tobytes()
    chunks.clear()
    line = facility_distances([f"F{f}" for f in range(17)],
                              np.abs(np.subtract.outer(np.arange(17.0), np.arange(17.0))))
    # 17 agents may open all 17 facilities: 2^17 - 1 = 131071 open sets,
    # more than the exact solvers take
    wide = PreferenceProfile(17, (tuple(range(17)), tuple(range(16, -1, -1))) * 8
                             + (tuple(range(17)),))
    problem = build_preset("facility_location", wide.n, line.facilities,
                           {"opening_costs": [1.0] * 17})
    with pytest.raises(SearchSpaceError, match="more than 100000 open sets to audit: 131071"):
        audit_additive_assignment((0,) * 17, wide, line, problem)
    assert chunks == []
    # two agents open at most two facilities: 17 + 136 sets, as the 289
    # assignments of the enumeration
    pair = PreferenceProfile(17, wide.rankings[:2])
    problem = build_preset("facility_location", 2, line.facilities, {"opening_costs": [1.0] * 17})
    report = audit_additive_assignment((0, 16), pair, line, problem)
    assert len(report.per_alternative) == 1
    assert report.value == enumerated_assignment_audit((0, 16), pair, line, problem).value


def test_alternative_blocks_change_no_report(monkeypatch):
    # the closure takes the distinct rankings in chunks within CLOSURE_BLOCK
    # elements per array; one chunk gives the same reports, bit for bit, as
    # the chunks of the budget and of the former rule (BLOCK // 2 elements)
    rng = np.random.default_rng(77)
    fd = random_facility_distances(rng, 30)
    sums = preferences_from_metric(random_consistent_metric(rng, fd, 300))
    kmed_fd = random_facility_distances(rng, 9)
    kmed = preferences_from_metric(random_consistent_metric(rng, kmed_fd, 300))
    problem = build_preset("k_median", 300, kmed_fd.facilities, {"k": 3})
    x = reduce_and_solve(problem, kmed, kmed_fd, SOLVERS["k_median"]).assignment
    line = facility_distances([f"F{f}" for f in range(6)],
                              np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0))))
    fl_profile = preferences_from_metric(random_consistent_metric(rng, line, 200))
    fl = build_preset("facility_location", 200, line.facilities,
                      {"opening_costs": [0.5, 2.0, 0.0, 1.0, 3.0, 0.25]})
    runs = (lambda: audit_sum_social_choice(3, sums, fd),
            lambda: audit_additive_assignment(x, kmed, kmed_fd, problem),
            lambda: audit_additive_assignment((2,) * 200, fl_profile, line, fl))
    chunks, real = [], audit._closure
    monkeypatch.setattr(audit, "_closure", lambda G, S: chunks.append(G.size)
                        or real(G, S))
    blocked = []
    # several chunks for the sum, and under the former rule for the k-median
    # too; the line's few rankings fit one
    for budget, several in ((audit.CLOSURE_BLOCK, 1), (BLOCK // 2, 2)):
        monkeypatch.setattr(audit, "CLOSURE_BLOCK", budget)
        chunks.clear()
        calls, reports = [], []
        for run in runs:
            reports.append(run())
            calls.append(len(chunks) - sum(calls))
        assert min(calls[:several]) > 1 and max(chunks) <= budget
        blocked.append(reports)
    monkeypatch.setattr(audit, "CLOSURE_BLOCK", 1 << 40)
    chunks.clear()
    for *reports, run in zip(*blocked, runs):
        whole = run()
        for report in reports:
            assert whole.per_alternative == report.per_alternative
            assert whole.flags == report.flags
            assert (whole.value, whole.witness_ratio, whole.certified_upper) == (
                report.value, report.witness_ratio, report.certified_upper)
            assert whole.witness.distances.tobytes() == report.witness.distances.tobytes()
    assert len(chunks) == len(runs)


def _closure_spy(monkeypatch) -> list:
    """The number of rankings in each chunk that ``audit._closure`` closes from now on."""
    chunks, real = [], audit._closure
    monkeypatch.setattr(audit, "_closure", lambda G, S: chunks.append(len(G)) or real(G, S))
    return chunks


def _one_build(profile, fd) -> list:
    """The chunk sizes of one build of the closure of ``profile`` and ``fd``."""
    R, step = len(profile.class_array), max(1, audit.CLOSURE_BLOCK // fd.m ** 2)
    return [min(step, R - lo) for lo in range(0, R, step)]


def _kmedian_case(seed: int, n: int = 60, m: int = 6):
    rng = np.random.default_rng(seed)
    fd = random_facility_distances(rng, m)
    profile = preferences_from_metric(random_consistent_metric(rng, fd, n))
    problem = build_preset("k_median", n, fd.facilities, {"k": 2})
    return profile, fd, problem, reduce_and_solve(problem, profile, fd,
                                                  SOLVERS["k_median"]).assignment


def _audits(profile, fd, problem, x) -> list:
    """A sum, three percentile and a k-median audit of ``profile`` and ``fd``, to run."""
    return [lambda: audit_sum_social_choice(0, profile, fd)] + [
        lambda alpha=alpha: audit_percentile_social_choice(0, profile, fd, alpha)
        for alpha in (0.5, 0.75, 1.0)] + [
        lambda: audit_additive_assignment(x, profile, fd, problem)]


def test_audits_of_one_profile_and_geometry_share_one_closure(monkeypatch):
    # a sum, three percentile and a k-median audit of the same two objects
    # build one closure between them, and an equal but distinct copy of the
    # profile, or of the geometry, builds its own
    chunks = _closure_spy(monkeypatch)
    profile, fd, problem, x = _kmedian_case(61)
    for run in _audits(profile, fd, problem, x):
        run()
    assert chunks == _one_build(profile, fd) and len(profile.class_array) > 10
    twin = PreferenceProfile(profile.m, profile.rankings)
    fd_twin = facility_distances(fd.facilities.names, fd.values)
    assert twin == profile and twin is not profile
    assert fd_twin == fd and fd_twin is not fd
    for pair, builds in (((twin, fd), True), ((twin, fd), False), ((profile, fd_twin), True),
                         ((profile, fd), True)):
        chunks.clear()
        audit_sum_social_choice(1, *pair)
        audit_percentile_social_choice(1, *pair, 0.5)
        assert chunks == (_one_build(profile, fd) if builds else [])


def test_shared_closure_is_freed_with_its_profile_or_geometry(monkeypatch):
    # the slot holds the pair by weak reference: the polytope goes with
    # either object, and the last one goes before the next is built, so no
    # two closures are ever held at once
    profile, fd, _, _ = _kmedian_case(62, n=30, m=5)
    poly = weakref.ref(audit._polytope(profile, fd))
    assert audit._polytope(profile, fd) is poly()
    del profile
    gc.collect()
    assert poly() is None
    profile, fd, _, _ = _kmedian_case(63, n=30, m=5)
    poly = weakref.ref(audit._polytope(profile, fd))
    del fd
    gc.collect()
    assert poly() is None
    profile, fd, _, _ = _kmedian_case(64, n=30, m=5)
    last = weakref.ref(audit._polytope(profile, fd))
    held = []

    class Counted(audit.ConsistencyPolytope):
        def __init__(self, *args):
            held.append(last() is not None)
            super().__init__(*args)

    monkeypatch.setattr(audit, "ConsistencyPolytope", Counted)
    other = PreferenceProfile(profile.m, profile.rankings)
    assert audit._polytope(other, fd) is not None
    assert held == [False] and last() is None


def test_shared_closure_reports_match_fresh_objects_byte_for_byte(monkeypatch):
    # every report of audits that share one closure is the report of the
    # same audit on objects of its own, bit for bit through the report text
    fixtures = Path(__file__).parent / "fixtures"
    chunks = _closure_spy(monkeypatch)
    for name in ("clustered_n400", "kmedian_scenarios"):
        inst = load_instance(fixtures / f"{name}.json")
        problem = build_preset("k_median", inst.n, inst.facilities, {"k": 2})
        x = reduce_and_solve(problem, inst.profile, inst.fd, SOLVERS["k_median"]).assignment
        digest = instance_digest(inst)

        def text(report):
            return report_text(audit_report_to_dict(report, inst, digest))

        chunks.clear()
        shared = [text(run()) for run in _audits(inst.profile, inst.fd, problem, x) * 2]
        assert chunks == _one_build(inst.profile, inst.fd)  # ten audits, one closure
        fresh = []
        for t in range(5):  # each audit on a load of the file of its own
            again = load_instance(fixtures / f"{name}.json")
            fresh.append(text(_audits(again.profile, again.fd, problem, x)[t]()))
        assert shared == fresh * 2


def test_audits_of_equal_fresh_objects_give_equal_reports():
    # geometries, metrics and so instances and reports compare by value: two
    # loads of one file are equal but distinct, each audited with its own closure
    fixtures = Path(__file__).parent / "fixtures"

    def kmedian(inst):
        problem = build_preset("k_median", inst.n, inst.facilities, inst.params)
        x = reduce_and_solve(problem, inst.profile, inst.fd, SOLVERS["k_median"]).assignment
        return audit_additive_assignment(x, inst.profile, inst.fd, problem)

    for name, runs in (("clustered_n400", (
            lambda inst: audit_sum_social_choice(0, inst.profile, inst.fd),
            lambda inst: audit_percentile_social_choice(0, inst.profile, inst.fd, 0.75))),
                       ("kmedian_scenarios", (kmedian,))):
        first, again = (load_instance(fixtures / f"{name}.json") for _ in range(2))
        assert first == again and first.fd is not again.fd and hash(first.fd) == hash(again.fd)
        for run in runs:
            report, other = run(first), run(again)
            assert report.witness is not None and report.witness is not other.witness
            assert report == other and hash(report) == hash(other)


def test_kmedian_audit_beyond_the_assignment_enumeration():
    # 240 agents, m = 8, k = 3: the C(8, 3) = 56 open sets are audited,
    # where the valid assignments (more than 3^240) could not be listed;
    # the value keeps the reduction's 1 + 2 beta bound
    rng = np.random.default_rng(31)
    fd = random_facility_distances(rng, 8)
    profile = preferences_from_metric(random_consistent_metric(rng, fd, 240))
    problem = build_preset("k_median", 240, fd.facilities, {"k": 3})
    solution = reduce_and_solve(problem, profile, fd, SOLVERS["k_median"])
    report = audit_additive_assignment(solution.assignment, profile, fd, problem)
    assert report.flags == ()
    assert check_consistency(profile, report.witness, tol=1e-7)
    assert report.witness_ratio <= report.value <= report.certified_upper
    assert 1.0 < report.value <= 1.0 + 2.0 * solution.beta
    # the one entry is the maximizing open set's assignment, read at the value
    ((alt, value),) = report.per_alternative
    assert len(alt) == 240 and len(set(alt)) <= 3 and value == report.value


def test_a_witness_that_is_not_a_metric_raises():
    # just outside the pair bound |d(X) - d(Y)| <= 2: no repair, an internal fault
    pair = facility_distances(("X", "Y"), [[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(InternalInvariantError, match="witness is not a metric"):
        _metric_from_values([[0.0, 2.0 + 1e-6]], pair, "witness")


def test_only_the_maximizer_builds_a_witness():
    # a two-agent matching whose other assignment audits to 1: no witness
    # but the interior point is built
    rng = np.random.default_rng(11)
    profile, fd, _ = next(inst for inst in (random_instance(rng, n_max=4, m_max=3)
                                            for _ in range(50))
                          if inst[0].n == inst[1].m == 2)
    problem = build_preset("matching_min_cost", 2, fd.facilities, {})
    report = audit_additive_assignment((0, 1), profile, fd, problem)
    assert report.value == pytest.approx(1.0) and report.flags == ()
    assert (report.witness.distances == max(float(fd.values.max()), 1.0)).all()
