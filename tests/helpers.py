"""Shared seeded generators for random valid instances.

Facility metrics come either from planar points or from a repaired random
symmetric matrix; agent rows are convex mixtures of two facility rows
plus a nonnegative shift, which keeps every row inside the consistency
polytope, and the profile is read off the metric, so every generated
instance is consistent by construction.  ``preferences_from_metric``
reads a profile off a metric, and ``shortest_path_completion`` extends a
metric to agents and facilities alike.

The loop oracles at the end are the plain per-agent and per-pair loops
that the library's array passes replace; the parity tests compare the two.
Among them, ``stdlib_parse_instance`` is the loader with the standard
library's decoder alone, ``tuple_resolved_profile`` its profile with each
distinct ranking resolved to a tuple of indices on its own, and
``loop_percentile_candidate`` and ``loop_path_bound`` are the percentile
audit's candidate and certificate one alternative and one closure entry
at a time,
the ``errstate_*`` quotients are audit._ratio and audit._lift as np.where
formulas with warnings silenced, and
``loop_octagon_vertices`` intersects every pair of a sum or assignment
octagon's rows, of which audit._octagon_points takes one vertex.
The audit oracles after them close each ranking's constraint block on its
own, solve each sum or assignment ratio, and each percentile alternative's
binding configuration, as a HiGHS LP, and build every percentile
candidate's subset in full; the enumerated assignment audit runs over
every valid assignment (iter_valid_assignments) instead of open sets.
Both the HiGHS ratio values and the enumerated audit go through the
reference general per-pair ratio: _ratio_pairs (a numerator facility per
agent, a denominator facility per alternative and agent and constants per
alternative, each alternative its own Dinkelbach family) inside
_pairs_or_vanishing (the vanishing-denominator rule around it).
The exact oracle at the end closes each ranking's rows in exact rational
arithmetic (``exact_closure``) and gives every sum audit's ratios as
``Fraction``s (``exact_sum_values``).
"""

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ordmech import (FacilityDistances, FullMetric, InternalInvariantError,
                     PreferenceProfile, facility_distances)
from ordmech.audit import INF, ConsistencyPolytope, _dinkelbach, _Pairs


def preferences_from_metric(metric: FullMetric) -> PreferenceProfile:
    """Rank facilities by distance, equal distances broken toward the
    lower facility index."""
    order = np.argsort(metric.distances, axis=1, kind="stable")
    return PreferenceProfile(metric.m, tuple(map(tuple, order.tolist())))


def shortest_path_completion(metric: FullMetric) -> np.ndarray:
    """Extend the known distances to all of agents + facilities by
    shortest paths; returns the (n+m) x (n+m) matrix with agents first."""
    n, m = metric.n, metric.m
    size = n + m
    big = np.full((size, size), np.inf)
    np.fill_diagonal(big, 0.0)
    big[:n, n:] = metric.distances
    big[n:, :n] = metric.distances.T
    big[n:, n:] = metric.facility_distances.values
    for k in range(size):
        big = np.minimum(big, big[:, k, None] + big[None, k, :])
    return big


def random_facility_distances(rng, m, allow_colocated=True) -> FacilityDistances:
    names = tuple(f"F{j + 1}" for j in range(m))
    if rng.random() < 0.5:
        pts = rng.uniform(0.0, 10.0, size=(m, 2))
        if allow_colocated and m >= 2 and rng.random() < 0.15:
            i, j = rng.choice(m, size=2, replace=False)
            pts[i] = pts[j]
        l = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    else:
        raw = rng.uniform(0.2, 5.0, size=(m, m))
        l = (raw + raw.T) / 2.0
        np.fill_diagonal(l, 0.0)
        for k in range(m):  # shortest-path repair enforces the triangle inequality
            l = np.minimum(l, l[:, k, None] + l[None, k, :])
    return facility_distances(names, l)


def random_consistent_metric(rng, fd: FacilityDistances, n) -> FullMetric:
    m = fd.m
    scale = max(float(fd.values.max()), 1.0)
    rows = []
    for _ in range(n):
        h1, h2 = rng.integers(0, m), rng.integers(0, m)
        w = rng.random()
        shift = rng.uniform(0.0, scale) if rng.random() < 0.7 else 0.0
        rows.append(w * fd.values[h1] + (1 - w) * fd.values[h2] + shift)
    return FullMetric(np.asarray(rows), fd)


def random_instance(rng, n_max=8, m_max=5, n_min=2, m_min=2):
    """(profile, fd, metric): a random geometry with a consistent profile
    read off a hidden true metric."""
    m = int(rng.integers(m_min, m_max + 1))
    n = int(rng.integers(n_min, n_max + 1))
    fd = random_facility_distances(rng, m)
    metric = random_consistent_metric(rng, fd, n)
    profile = preferences_from_metric(metric)
    return profile, fd, metric


# ---------------------------------------------------------------------------
# Loop oracles: the per-agent and per-pair loops that the array passes in
# ``ordmech`` replaced, kept verbatim as references for the parity tests.

def loop_validate_distance_matrix(a, tol=1e-9):
    """(ok, reason, triple) of the first offending entry."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    for i in range(m):
        if abs(a[i, i]) > tol:
            return False, "nonzero diagonal", (i, i)
    for i in range(m):
        for j in range(i + 1, m):
            if a[i, j] < -tol or a[j, i] < -tol:
                return False, "negative distance", (i, j)
            if abs(a[i, j] - a[j, i]) > tol:
                return False, "asymmetric", (i, j)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                size = 1 + abs(a[i, k]) + abs(a[i, j]) + abs(a[j, k])
                if a[i, k] > a[i, j] + a[j, k] + tol * size:
                    return False, "triangle inequality violated", (i, j, k)
    return True, None, None


def loop_full_metric_error(d, l, tol=1e-9):
    """Message of the first geometry violation of an agent-facility
    matrix, or None when it is valid."""
    d = np.asarray(d, dtype=float)
    if np.any(d < -tol):
        return "negative agent-facility distance"
    n, m = d.shape
    for i in range(n):
        for f in range(m):
            for g in range(f + 1, m):
                gap, total = abs(d[i, f] - d[i, g]), d[i, f] + d[i, g]
                slack = tol * (1 + abs(l[f, g]) + abs(total))
                if gap > l[f, g] + slack:
                    return f"agent {i}: |d({f}) - d({g})| = {gap} exceeds l = {l[f, g]}"
                if total < l[f, g] - slack:
                    return f"agent {i}: d({f}) + d({g}) falls short of l = {l[f, g]}"
    return None


def loop_check_consistency(rankings, top_only, d, tol=1e-9):
    for i, r in enumerate(rankings):
        if top_only:
            if d[i, r[0]] > d[i].min() + tol * (1 + abs(d[i, r[0]]) + abs(d[i].min())):
                return False
            continue
        for a, b in zip(r, r[1:]):
            if d[i, a] > d[i, b] + tol * (1 + abs(d[i, a]) + abs(d[i, b])):
                return False
    return True


def loop_majority_counts(rankings, m):
    prefer = np.zeros((m, m), dtype=int)
    for r in rankings:
        pos = np.empty(m, dtype=int)
        for p, f in enumerate(r):
            pos[f] = p
        for a in range(m):
            for b in range(m):
                if a != b and pos[a] < pos[b]:
                    prefer[a, b] += 1
    return prefer


def bincount_majority_counts(array, m):
    """Majority counts by one ``bincount`` per rank position over every
    agent's row of the n x m ranking ``array``: the per-agent pass that the
    per-class one replaced."""
    prefer = np.zeros(m * m, dtype=np.int64)
    for p in range(m - 1):
        prefer += np.bincount((array[:, p, None] * m + array[:, p + 1:]).ravel(), minlength=m * m)
    return prefer.reshape(m, m)


def loop_numeric_reach(fd):
    pairs = list(combinations(range(fd.m), 2))
    vals = [fd.values[f, g] for f, g in pairs]
    return np.array([[vp <= vq for vq in vals] for vp in vals], dtype=bool)


def loop_candidate_reach(rankings):
    """Warshall closure of the chain edges of each candidate's ranking."""
    m = len(rankings)
    pairs = list(combinations(range(m), 2))
    index = {pair: p for p, pair in enumerate(pairs)}
    reach = np.eye(len(pairs), dtype=bool)
    for f, r in enumerate(rankings):
        for closer, farther in zip(r, r[1:]):
            reach[index[tuple(sorted((f, closer)))], index[tuple(sorted((f, farther)))]] = True
    for k in range(len(pairs)):
        reach |= np.outer(reach[:, k], reach[k, :])
    return reach


def _loop_serve(D, subset):
    return tuple(min(subset, key=lambda f: (D[i, f], f)) for i in range(D.shape[0]))


def loop_k_median(fd_values, tops, k):
    """(assignment, value): first subset of least cost in combinations order."""
    D = np.asarray(fd_values, dtype=float)[list(tops), :]
    best = None
    for subset in combinations(range(D.shape[1]), k):
        c = float(D[:, list(subset)].min(axis=1).sum())
        if best is None or c < best[0]:
            best = (c, subset)
    return _loop_serve(D, best[1]), best[0]


def loop_facility_location(D, costs):
    """(assignment, value): first open set of least cost in bitmask order."""
    D = np.asarray(D, dtype=float)
    n, m = D.shape
    best = None
    for mask in range(1, 1 << m):
        subset = [f for f in range(m) if mask >> f & 1]
        x = _loop_serve(D, subset)
        value = float(sum(costs[f] for f in set(x)) + sum(D[i, x[i]] for i in range(n)))
        if best is None or value < best[0]:
            best = (value, x)
    return best[1], best[0]


def loop_open_count_brute_force(D, spec, sizes):
    """(assignment, value) of the open-count subset search over subsets of
    the given sizes: least cost, then the lexicographically first assignment."""
    from ordmech.assignment import total_cost

    best = None
    for size in sizes:
        for subset in combinations(range(D.shape[1]), size):
            x = _loop_serve(D, subset)
            c = total_cost(x, D, spec)
            if best is None or c < best[0] or (c == best[0] and x < best[1]):
                best = (c, x)
    return best[1], best[0]


def loop_matching_brute_force(D, spec):
    """(assignment, value) of the least matching, each costed on its own by
    total_cost; the first in ``permutations`` order on ties."""
    from ordmech.assignment import total_cost

    n, m = D.shape
    c, x = min((total_cost(x, D, spec), x) for x in permutations(range(m), n))
    return x, c


def gathered_near_minimal(D, sizes, largest=False, opening=None):
    """The subset screen as first written: every subset of a block gathers
    its columns of each distinct row, takes their argmin and marks the
    facilities used in a dense matrix; kept subsets come size by size in
    ``combinations`` order."""
    from ordmech.core import BLOCK
    from ordmech.solvers import SCREEN_RTOL

    rows, counts = np.unique(D, axis=0, return_counts=True)
    opening = np.zeros(D.shape[1]) if opening is None else np.asarray(opening, dtype=float)
    margin = SCREEN_RTOL * (1.0 + counts @ rows.max(axis=1) + np.abs(opening).sum())
    kept, least = [], np.inf
    for size in sizes:
        subsets = combinations(range(D.shape[1]), size)
        while block := list(islice(subsets, max(1, BLOCK // max(len(rows) * size, 1)))):
            block = np.array(block)
            near = rows[:, block]                                # rows x subsets x size
            pick = near.argmin(axis=2)
            dist = np.take_along_axis(near, pick[..., None], 2)[..., 0].T
            used = np.zeros((len(block), D.shape[1]))
            used[np.arange(len(block))[:, None], np.take_along_axis(block, pick.T, 1)] = 1
            cost = (dist.max(axis=1) if largest else dist @ counts) + used @ opening
            least = min(least, cost.min())
            keep = cost <= least + margin
            kept += zip(cost[keep].tolist(), block[keep].tolist())
    return [subset for cost, subset in kept if cost <= least + margin]


def loop_profile_error(m, rankings, top_only):
    """Message of the first malformed ranking, or None."""
    for i, r in enumerate(rankings):
        if len(r) == 0:
            return f"agent {i} has an empty ranking"
        if top_only:
            if len(r) != 1 or not 0 <= r[0] < m:
                return f"agent {i}: top-only entry must be one facility index"
        elif sorted(r) != list(range(m)):
            return f"agent {i}: ranking is not a permutation of all facilities"
    return None


def first_appearance_classes(rankings):
    """(classes, class_of, class_array) of a profile: its distinct rankings
    in order of first appearance (``dict.fromkeys``), each agent's position
    among them, and the rankings per class as an index array."""
    classes = tuple(dict.fromkeys(rankings))
    class_of = [classes.index(r) for r in rankings]
    return classes, np.array(class_of, dtype=np.intp), np.array(classes, dtype=np.intp)


def _agent_by_agent_dict(inst):
    """``instance_to_dict`` with the preferences written agent by agent."""
    from ordmech.fileio import instance_to_dict

    names, profile = inst.facilities.names, inst.profile
    out = instance_to_dict(inst)
    if profile.top_only:
        out["tops"] = [names[r[0]] for r in profile.rankings]
    else:
        out["preferences"] = [[names[g] for g in r] for r in profile.rankings]
    return out


def _sha256(text):
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def text_instance_digest(inst):
    """The instance digest as first defined: the whole instance, preferences
    written agent by agent and every matrix entry by entry, encoded as one
    canonical JSON text."""
    return _sha256(json.dumps(_agent_by_agent_dict(inst), sort_keys=True, separators=(",", ":")))


def loop_instance_digest(inst):
    """The instance digest: the canonical JSON text of ``text_instance_digest``
    with each matrix replaced by the SHA-256 of its row-major little-endian
    float64 bytes and its shape."""
    out = _agent_by_agent_dict(inst)
    for entry in (out, *out.get("scenarios", ())):
        for key in ("facility_distances", "metric"):
            if key in entry:
                arr = np.asarray(entry[key], dtype="<f8")
                entry[key] = {"float64le_sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
                              "shape": [len(entry[key]), len(entry[key][0])]}
    return _sha256(json.dumps(out, sort_keys=True, separators=(",", ":")))


def stdlib_parse_instance(raw):
    """``parse_instance`` with the standard library's ``json`` as its only
    decoder, the reference for the orjson loader: bytes are read as UTF-8
    text, and a document that does not decode is a schema error."""
    from ordmech.errors import SchemaError
    from ordmech.fileio import instance_from_dict

    try:
        data = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                          field="<document>") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
                          field="<document>") from None
    except RecursionError:
        raise SchemaError("nested too deeply", field="<document>") from None
    return instance_from_dict(data)


def tuple_resolved_profile(data):
    """The profile of a decoded instance document as the loader built it by
    per-class tuples, the reference for its one-array resolution: each
    agent's entries checked in turn, the names of each distinct ranking
    resolved to a tuple of indices one class at a time, and the first
    malformed ranking named as a schema error on ``preferences``.  Returns
    (classes, class_of, class_array, array, rankings)."""
    from ordmech.errors import SchemaError

    index = {name: f for f, name in enumerate(data["facilities"])}
    top_only = "tops" in data
    raw = data["tops" if top_only else "preferences"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("must be a nonempty list", field="tops" if top_only else "preferences")
    ids: dict = {}
    class_of = []
    for i, entry in enumerate(raw):
        where = "tops" if top_only else f"preferences[{i}]"
        if not top_only and not isinstance(entry, list):
            raise SchemaError("ranking must be a list", field=where)
        for g in [entry] if top_only else entry:
            if not isinstance(g, str):
                raise SchemaError("facility references are names", field=where)
            if g not in index:
                raise SchemaError(f"unknown facility {g!r}", field=where)
        class_of.append(ids.setdefault((entry,) if top_only else tuple(entry), len(ids)))
    classes = tuple(tuple(index[g] for g in key) for key in ids)
    rankings = tuple(classes[c] for c in class_of)
    error = loop_profile_error(len(index), rankings, top_only)
    if error is not None:
        raise SchemaError(error, field="preferences")
    class_array = np.array(classes, dtype=np.intp)
    return classes, np.array(class_of, dtype=np.intp), class_array, class_array[class_of], rankings


def instance_state(inst):
    """What a loaded instance holds, comparable with ``==``: its canonical
    text and digest, the shape and float64 bytes of each matrix, the numbers
    kept as written (``params``, each ``expected_ratio``) by their ``repr``,
    which tells an int from a float, and the profile's class arrays."""
    from ordmech.fileio import instance_digest, serialize_instance

    arrays = [None if inst.fd is None else inst.fd.values,
              None if inst.metric is None else inst.metric.distances]
    for scen in inst.scenarios:
        arrays += [scen.fd.values, scen.metric.distances]
    return (serialize_instance(inst), instance_digest(inst),
            [None if a is None else (a.shape, a.tobytes()) for a in arrays],
            repr(inst.params), [repr(scen.expected_ratio) for scen in inst.scenarios],
            inst.profile.class_of.tobytes(), inst.profile.class_array.tobytes())


def loop_min_cost_matching(cost):
    """(assignment, value) by shortest augmenting paths with potentials."""
    n = cost.shape[0]
    INF = float("inf")
    u, v = [0.0] * (n + 1), [0.0] * (n + 1)
    p, way = [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        p[0], j0 = i, 0
        minv, used = [INF] * (n + 1), [False] * (n + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = p[j0], INF, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j], way[j] = cur, j0
                if minv[j] < delta:
                    delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    x = [0] * n
    for j in range(1, n + 1):
        x[p[j] - 1] = j - 1
    return tuple(x), float(sum(cost[i, x[i]] for i in range(n)))


def errstate_ratio(num, den):
    """audit._ratio as an np.where over both branches, warnings silenced."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den <= 0, np.where(num > 0, INF, 1.0), np.divide(num, den))


def errstate_percentile_value(gap, low):
    """A percentile configuration's value 1 + gap / low, infinite where low
    <= 0, for gap >= 0, as audit._percentile_candidates read it with
    np.errstate (audit._lift)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(low > 0, 1.0 + gap / low, INF)


def errstate_percentile_bound(c, M):
    """A percentile value's certified bound 1 + max(c, 0) / M, infinite where
    M <= 0, as audit._percentile_pairs read it with np.errstate (audit._lift)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(M > 0, 1.0 + np.maximum(c, 0.0) / M, INF)


def loop_percentile_candidate(poly: ConsistencyPolytope, x: int, w: int, k: int):
    """The best candidate (S, T) configuration for x against w: its value,
    S with j first, the agents that bind it, and its M and c; one
    alternative at a time (audit._percentile_candidates reads them all)."""
    mu = poly.min_agent_distance(np.arange(poly.n), x)
    order = np.argsort(mu, kind="stable")
    # cap = S[argmax(mu[S])] for S = j, then the k-1 others lowest in
    # ``order``, read off the order: the last of those others is order[k-1]
    # when j is among the first k-1, else order[k-2].  The first maximum in
    # S is j when j reaches that value, else the first agent at that value.
    cap = poly.first
    if k > 1:
        rank = np.empty(poly.n, dtype=int)
        rank[order] = np.arange(poly.n)
        cap_mu = mu[np.where(rank[poly.first] < k - 1, order[k - 1], order[k - 2])]
        first_at = order[np.searchsorted(mu[order], cap_mu)]
        cap = np.where(mu[poly.first] >= cap_mu, poly.first, first_at)
    gap = np.maximum(poly.G[:, w, x], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(mu[cap] > 0, 1.0 + gap / mu[cap], INF)
    top = values.max()
    tol = 0.0 if math.isinf(top) else 1e-9 * max(1.0, top)
    best = np.flatnonzero(values >= top - tol)[0]
    j, cap = poly.first[best], cap[best]
    S = np.append(j, order[order != j][:k - 1])
    return float(values[best]), S, [j] if cap == j else [j, cap], float(mu[cap]), float(gap[best])


def loop_path_bound(poly: ConsistencyPolytope, i: int, f: int, g: int, neg: bool) -> float:
    """Entry [f, g] of S (``neg``) or of G of the closure of agent i's
    ranking, as entry [p, q] = [2f + neg, 2g] of its octagon closure
    (block_closure), re-derived from the block's raw rows (block_raw) by a
    Bellman-Ford relaxation from p and from q ^ 1 with the halving step,
    one entry at a time (audit._path_bounds stacks them, from p alone).
    Raises unless it is within a relative 1e-9 of the entry, relative to
    at least the facility radius."""
    p, q = 2 * f + neg, 2 * g
    raw = block_raw(*agent_block(poly, i))
    entry = float((poly.S if neg else poly.G)[poly.ranking_id[i], f, g])
    D = raw[[p, q ^ 1]]  # least sums along paths from p and from q ^ 1
    for _ in range(len(raw)):  # a shortest path has fewer than 2m rows
        last, D = D, np.minimum(D, (D[:, :, None] + raw).min(axis=1))
        if (D == last).all():
            break
    found = float(min(D[0, q], (D[0, p ^ 1] + D[1, q]) / 2))
    if not abs(found - entry) <= 1e-9 * max(poly.radius, abs(entry)):
        raise InternalInvariantError(f"closure entry [{p}, {q}] is {entry}, but its "
                                     f"paths of rows give {found}")
    return found


# A class's octagon over (a, b) = (d(i, num_at), d(i, g)) for a candidate g:
# row t reads _OCT_A[t] * a + _OCT_B[t] * b <= bound t.  Its vertices lie
# where two rows with independent coefficients hold with equality.
_OCT_A = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 0.0, 0.0])
_OCT_B = np.array([-1.0, 1.0, -1.0, 1.0, 0.0, 0.0, -1.0, 1.0])
_OCT_S, _OCT_T = np.array([(s, t) for s, t in combinations(range(8), 2)
                           if _OCT_A[s] * _OCT_B[t] != _OCT_B[s] * _OCT_A[t]]).T
_OCT_DET = _OCT_A[_OCT_S] * _OCT_B[_OCT_T] - _OCT_B[_OCT_S] * _OCT_A[_OCT_T]
_OCT_TOL = np.array([_OCT_A, _OCT_B, -1e-9 * abs(_OCT_A), -1e-9 * abs(_OCT_B)])
def octagon_rows(poly: ConsistencyPolytope, r, f, g):
    """The eight row bounds of the octagon of ranking r's closure over
    (d(f), d(g)), per aligned entry of r, f and g: entries x 8, where the
    three rows that bound a distance or the sum of both from above are
    absent (inf), as no ranking row bounds those."""
    r, f, g = (np.asarray(v) for v in (r, f, g))
    G, S, absent = poly.G, poly.S, np.full(len(r), INF)
    return np.stack([G[r, f, g], G[r, g, f], S[r, f, g], absent, S[r, f, f] / 2, absent,
                     S[r, g, g] / 2, absent], axis=1)


def octagon_inside(h: np.ndarray, a: np.ndarray, b: np.ndarray, tol=1e-12) -> np.ndarray:
    """Per octagon (row bounds ``h``, octagons x 8) and point (a, b), each
    octagons x points: whether the point keeps every row within ``tol`` of
    the size of the row's terms."""
    with np.errstate(invalid="ignore"):  # 0 * inf where a vertex is absent
        A, B = _OCT_A * a[..., None], _OCT_B * b[..., None]
        return (A + B <= h[:, None] + tol * (abs(A) + abs(B) + abs(h[:, None]))).all(axis=-1)


def loop_octagon_vertices(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of each octagon, given its eight row bounds ``h`` (octagons
    x 8, inf where a row is absent): the intersections of every pair of
    non-parallel rows, as (a, b), where the points that break a row by more
    than 1e-9 of the size of its own terms read a = -inf and b = inf."""
    S, T = _OCT_S, _OCT_T
    with np.errstate(invalid="ignore"):
        a = (h[:, S] * _OCT_B[T] - _OCT_B[S] * h[:, T]) / _OCT_DET
        b = (_OCT_A[S] * h[:, T] - h[:, S] * _OCT_A[T]) / _OCT_DET
        lhs = _OCT_TOL[0] * a[..., None]  # each row's left side less 1e-9 of its terms' size
        for row, col in zip(_OCT_TOL[1:], (b, abs(a), abs(b))):
            lhs += row * col[..., None]
    valid = np.isfinite(a) & np.isfinite(b) & (lhs <= (h + 1e-9 * (1 + abs(h)))[:, None]).all(2)
    if not valid.any(axis=1).all():
        raise InternalInvariantError("a ranking class's octagon has no vertex")
    return np.where(valid, a, -INF), np.where(valid, b, INF)


def recursive_kuhn_perfect_matching(allowed: np.ndarray) -> list[int] | None:
    """Perfect matching on a boolean bipartite adjacency, or None, by Kuhn's
    augmenting paths with one recursive call per row on a path (the
    solvers._kuhn_perfect_matching this replaced): each row in turn, the
    columns in ascending order.  A path through about a thousand rows
    exceeds Python's recursion limit."""
    n = allowed.shape[0]
    match_col = [-1] * n

    def try_row(r: int, seen: list[bool]) -> bool:
        for c in range(n):
            if allowed[r, c] and not seen[c]:
                seen[c] = True
                if match_col[c] < 0 or try_row(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        if not try_row(r, [False] * n):
            return None
    return match_col


def batched_binding(j, cap, t):
    """The binding agents of column t of audit._percentile_candidates, as
    loop_percentile_candidate lists them: j, then cap if another."""
    return [j[t]] if cap[t] == j[t] else [j[t], cap[t]]


# ---------------------------------------------------------------------------
# Audit oracles: the per-ranking closures, HiGHS linear programs and subset
# rules that the audits' exact passes replaced, kept as references for the
# parity tests.

def agent_block(poly, i):
    """Agent i's ranking block ``(A, b)``, as core.ranking_block builds it."""
    from ordmech.core import pair_rows, ranking_block

    c = poly.profile.class_of[i]
    return ranking_block(poly.profile.before[c], poly.profile.after[c], pair_rows(poly.fd))


def block_edges(A, b):
    """The difference graph of ``A d <= b, d >= 0`` when every row of A has
    two nonzero coefficients, each +1 or -1, as in a ranking block: with
    v[2a] = d(a) and v[2a + 1] = -d(a), every row bounds v[p] - v[q], and
    so v[q ^ 1] - v[p ^ 1], by its b, and d(a) >= 0 bounds v[2a + 1] - v[2a]
    by 0.  Returns each edge's (source, target, bound)."""
    m = A.shape[1]
    at, cols = np.nonzero(A)  # two per row, in order
    a, e = cols[0::2], cols[1::2]
    p = 2 * a + (A[at[0::2], a] < 0)
    q = 2 * e + (A[at[1::2], e] > 0)  # v[p] - v[q] = row . d
    odd = np.arange(1, 2 * m, 2)
    return (np.concatenate([p, q ^ 1, odd]), np.concatenate([q, p ^ 1, odd ^ 1]),
            np.concatenate([b, b, np.zeros(m)]))


def block_raw(A, b):
    """One block's least edge bound per (p, q) (block_edges): inf where no
    edge runs, 0 on the diagonal."""
    m = A.shape[1]
    W = np.full((2 * m, 2 * m), np.inf)
    np.fill_diagonal(W, 0.0)
    src, dst, bound = block_edges(A, b)
    np.minimum.at(W, (src, dst), bound)
    return W


def block_closure(A, b):
    """One block's closure: shortest paths through its edges (block_raw)
    by Floyd-Warshall, then one halving step through the single-variable
    bounds."""
    m = A.shape[1]
    W = block_raw(A, b)
    for k in range(2 * m):
        W = np.minimum(W, W[:, k, None] + W[None, k, :])
    at = np.arange(2 * m)
    half = W[at, at ^ 1] / 2  # v[p] - v[bar p] = 2 v[p]
    return np.minimum(W, half[:, None] + half[at ^ 1][None, :])


def highs_ratio_pair(poly, cls, num_at, num_const, den_at, den_const) -> float:
    """sup (sum_i d(i, num_at) + num_const) / (sum_i d(i, den_at) + den_const)
    as one Charnes-Cooper LP solved by HiGHS: per class its two distances
    under the five octagon rows of its closure that bound anything (see
    octagon_rows), each bound multiplied by a joint scale variable, and the
    scaled mean denominator pinned to one."""
    from ordmech.lp import solve_lp

    n_cls = len(cls.count)
    r = np.arange(n_cls)
    f = np.broadcast_to(num_at, (n_cls,))
    g = np.broadcast_to(den_at, (n_cls,))
    G, S = poly.G[cls.keys[:, 0]], poly.S[cls.keys[:, 0]]
    k = 2 * n_cls  # d(i, num_at) and d(i, den_at) per class, then the scale
    octagon = [(1, -1, G[r, f, g]), (-1, 1, G[r, g, f]), (-1, -1, S[r, f, g]),
               (-1, 0, S[r, f, f] / 2), (0, -1, S[r, g, g] / 2)]
    A = np.zeros((len(octagon), n_cls, k + 1))
    for t, (ca, cb, bound) in enumerate(octagon):
        A[t, r, 2 * r], A[t, r, 2 * r + 1], A[t, r, k] = ca, cb, -bound
    A = A.reshape(-1, k + 1)
    c = np.zeros(k + 1)
    c[2 * r] = cls.count / poly.n
    c[k] = num_const / poly.n
    eq = np.zeros(k + 1)
    eq[2 * r + 1] = cls.count / poly.n
    eq[k] = den_const / poly.n
    res = solve_lp(c, A, np.zeros(A.shape[0]), eq[None, :], [1.0], maximize=True)
    if res.status == "unbounded":
        return float("inf")
    assert res.optimal, res.status
    return res.fun


def _classes(poly, *keys):
    """The agents grouped by ranking and by the given per-agent keys, in
    order of first appearance: each class's keys and number of agents."""
    index = {}
    member = [index.setdefault(key, len(index))
              for key in zip(poly.ranking_id.tolist(), *keys)]
    return SimpleNamespace(keys=np.array(list(index)), count=np.bincount(member))


def _ratio_pairs(poly: ConsistencyPolytope, num_at, num_const: np.ndarray,
                 den_at: np.ndarray, den_const: np.ndarray) -> _Pairs:
    """Per alternative j, sup (sum_i d(i, num_at[i]) + num_const[j]) /
    (sum_i d(i, den_at[j, i]) + den_const[j]) over the polytope, where
    ``num_at`` broadcasts to the agents and ``den_at`` to alternatives x
    agents, each alternative a family of one (_dinkelbach) whose classes
    group its agents by ranking and both facilities, in order of first
    appearance.  No denominator may vanish (see _pairs_or_vanishing)."""
    n, m, size = poly.n, poly.m, len(num_const)
    span = len(poly.G) * m * m  # codes of one alternative's classes
    code = ((poly.ranking_id * m + num_at) * m + den_at + span * np.arange(size)[:, None]).ravel()
    _, first, inverse, count = np.unique(code, return_index=True, return_inverse=True,
                                         return_counts=True)
    order = np.argsort(first)  # the rows, by alternative, then first appearance
    rank = np.argsort(order)  # the row of each distinct code
    key, count, alt = code[first[order]] % span, count[order], first[order] // n
    start = np.searchsorted(alt, np.arange(size + 1))  # each alternative's first row
    value, upper, _, point_rows = _dinkelbach(
        poly, key // (m * m), key // m % m, key[:, None] % m, count, alt, num_const,
        lambda w, rho: (np.zeros(len(w), dtype=np.intp), den_const))
    return _Pairs(value, upper, lambda j: None if math.isinf(value[j]) else point_rows(
        slice(start[j], start[j + 1]))[rank[inverse[j * n:(j + 1) * n]] - start[j]])


def _pairs_or_vanishing(poly: ConsistencyPolytope, num_at, num_const: np.ndarray,
                        den_at: np.ndarray, den_const: np.ndarray, seated: int,
                        one: np.ndarray, solve: Callable[..., _Pairs]) -> _Pairs:
    """Ratios of num_const[j] plus the agents' distances to num_at, to
    den_const[j] plus their distances to den_at[j, i] (as for _ratio_pairs),
    summed (``seated`` = n) or as the ``seated``-th smallest, where ``solve``
    (called as _ratio_pairs is) gives those of the alternatives passed to
    it, and those marked ``one`` read 1.  A denominator can vanish iff its
    den_const does and ``seated`` agents can sit on their facility.  Seated
    there, the ratio is infinite when num_const[j] plus their distances to
    num_at stays positive, witnessed by seating the first ``seated``, and
    reads at least 1 when that vanishes too."""
    n, l = poly.n, poly.fd.values
    den_at = np.broadcast_to(den_at, (len(den_const), n))
    seat = np.where((den_const <= 0)[:, None] & poly.can_sit[np.arange(n), den_at],
                    den_at, -1)
    vanish = (seat >= 0).sum(axis=1) >= seated
    num_at_zero = num_const + np.where(seat >= 0, l[seat, num_at], 0.0).sum(axis=1)
    infinite = vanish & (num_at_zero > 0) & ~one
    todo = np.flatnonzero(~infinite & ~one)
    part = solve(poly, num_at, num_const[todo], den_at[todo], den_const[todo])
    value, upper = np.where(infinite, INF, 1.0), np.where(infinite, INF, 1.0)
    value[todo] = np.where(vanish[todo], np.maximum(part.value, 1.0), part.value)
    upper[todo] = part.upper
    slot = dict(zip(todo.tolist(), range(len(todo))))

    def witness(j: int) -> np.ndarray | None:
        if infinite[j]:
            seats, d = np.flatnonzero(seat[j] >= 0)[:seated], poly.interior_metric()
            d[seats] = l[seat[j, seats]]  # seated, the rest far away
            return d
        return part.witness(slot[j]) if j in slot else None

    return _Pairs(value, upper, witness)


def _highs_values(poly, pairs):
    """Per alternative: 1 when co-located (``None``), else the reference
    vanishing-denominator rule (_pairs_or_vanishing) around the HiGHS ratio
    LP, one alternative at a time; each pair is (num_at, num_const, den_at,
    den_const, lp)."""
    def solve(lp, num_const):
        value = np.full(len(num_const), highs_ratio_pair(poly, *lp) if len(num_const) else 0.0)
        return _Pairs(value, value, lambda j: None)

    values = []
    for pair in pairs:
        if pair is None:
            values.append(1.0)
            continue
        num_at, num_const, den_at, den_const, lp = pair
        outcome = _pairs_or_vanishing(
            poly, num_at, np.array([num_const]), np.reshape(den_at, (1, -1)),
            np.array([den_const]), poly.n, np.zeros(1, dtype=bool),
            lambda poly, num_at, num_const, *_: solve(lp, num_const))
        values.append(float(outcome.value[0]))
    return values


def highs_sum_values(winner, profile, fd) -> list[float]:
    """A sum audit's per-alternative values, each pair by the HiGHS LP."""
    poly = ConsistencyPolytope(profile, fd)
    cls = _classes(poly)
    l = fd.values
    return _highs_values(poly, [
        None if l[winner, x] <= 0 else
        (np.full(poly.n, winner), 0.0, x, 0.0, (cls, winner, 0.0, x, 0.0))
        for x in range(fd.m) if x != winner])


def assignment_alternatives(x, problem) -> list[tuple[int, ...]]:
    """The alternatives of an assignment audit, in its order: under the
    matching rule every other matching; else every open set of min(bound,
    m, n) facilities, or, with opening costs, of every size up to that."""
    m, cons = problem.m, problem.constraints
    if cons.one_per_facility:
        return [y for y in permutations(range(m), len(x)) if y != tuple(x)]
    bound = min(cons.at_most_open or m, m, len(x))
    sizes = range(1, bound + 1) if any(problem.cost_spec.opening_costs or ()) else (bound,)
    return [S for size in sizes for S in combinations(range(m), size)]


def highs_assignment_values(x, profile, fd, problem) -> list[float]:
    """An assignment audit's per-alternative values: per other matching its
    own, and per open set the largest over the assignments into it, each
    charged the opening cost of its open set; each assignment by the HiGHS
    LP."""
    poly = ConsistencyPolytope(profile, fd)
    spec = problem.cost_spec
    x = tuple(x)
    num_const = spec.facility_cost(x)
    values = []
    for alt in assignment_alternatives(x, problem):
        ys = [alt] if problem.constraints.one_per_facility else product(alt, repeat=poly.n)
        pairs = []
        for y in ys:
            cls = _classes(poly, x, y)
            pairs.append((np.array(x), num_const, list(y), spec.facility_cost(alt),
                          (cls, cls.keys[:, 1], num_const, cls.keys[:, 2],
                           spec.facility_cost(alt))))
        values.append(max(_highs_values(poly, pairs)))
    return values


def iter_valid_assignments(n: int, constraints):
    """Depth-first enumeration of valid assignments in lexicographic order,
    pruning open-count and matching violations early."""
    m, single = constraints.m, constraints.one_per_facility
    cap = m if constraints.at_most_open is None else constraints.at_most_open
    # One iterator per placed agent over its facilities left to try: the
    # search keeps its own stack, so n can run to the thousands.
    x = [-1] * n
    counts = [0] * m
    opened = 0
    stack = [iter(range(m))] if n else []
    if not n:
        yield ()
    while stack:
        agent = len(stack) - 1
        if x[agent] >= 0:  # take back the agent's last facility
            counts[x[agent]] -= 1
            opened -= counts[x[agent]] == 0
        x[agent] = next((f for f in stack[-1]
                         if (not single if counts[f] else opened < cap)), -1)
        if x[agent] < 0:
            stack.pop()
            continue
        opened += counts[x[agent]] == 0
        counts[x[agent]] += 1
        if agent + 1 < n:
            stack.append(iter(range(m)))
        else:
            yield tuple(x)


ENUMERATED_AUDIT_CAP = 10 ** 4


def enumerated_assignment_audit(x, profile, fd, problem):
    """The assignment audit over every other valid assignment, one
    alternative each, each at its own facility cost; more than
    ENUMERATED_AUDIT_CAP of them are refused.  Its value and flags are the
    family audit's, and its ``per_alternative`` lists every alternative."""
    from ordmech import SearchSpaceError, total_cost
    from ordmech.audit import _finalize, _ratio

    x, spec, cap = tuple(x), problem.cost_spec, ENUMERATED_AUDIT_CAP
    alternatives = list(islice(iter_valid_assignments(profile.n, problem.constraints), cap + 1))
    if len(alternatives) > cap:
        raise SearchSpaceError(f"more than {cap} alternative assignments to audit")
    poly = ConsistencyPolytope(profile, fd)
    every = np.array(alternatives)
    alts = every[(every != x).any(axis=1)]
    pairs = _pairs_or_vanishing(poly, np.array(x), np.full(len(alts), spec.facility_cost(x)),
                                alts, spec.facility_cost(alts), poly.n,
                                np.zeros(len(alts), dtype=bool), _ratio_pairs)

    def recompute(metric):
        d = metric.distances
        costs = d[np.arange(poly.n), every].sum(axis=1) + spec.facility_cost(every)
        return float(_ratio(total_cost(x, d, spec), costs.min()))

    keys = [tuple(y) for y in alts.tolist()]
    return _finalize(poly, "assignment_sum", x, keys, pairs, None, recompute)


def highs_percentile_pair(poly, binding, x, w) -> float:
    """sup d(j, w) / max over i in ``binding`` of d(i, x), j = binding[0],
    as one scaled LP solved by HiGHS over the binding agents' ranking
    blocks: distances and geometry scaled by a joint variable, the
    distances to x capped at one, and a floor under d(j, w) maximized."""
    from ordmech.core import stack_blocks
    from ordmech.lp import solve_lp

    m = poly.m
    A, b = stack_blocks(agent_block(poly, i) for i in binding)
    k = len(binding) * m  # then the scale, then the floor
    extra = np.zeros((len(binding) + 1, k + 2))
    extra[np.arange(len(binding)), np.arange(0, k, m) + x] = 1.0
    extra[-1, k + 1], extra[-1, w] = 1.0, -1.0
    A_ub = np.vstack([np.hstack([A, -b[:, None], np.zeros((len(b), 1))]), extra])
    b_ub = np.concatenate([np.zeros(len(b)), np.ones(len(binding)), [0.0]])
    res = solve_lp(np.eye(k + 2)[k + 1], A_ub, b_ub, maximize=True)
    if res.status == "unbounded":
        return float("inf")
    assert res.optimal, res.status
    return res.fun


def highs_percentile_values(winner, profile, fd, alpha) -> list[float]:
    """A percentile audit's per-alternative values: 1 when co-located,
    infinite when k agents can sit on the alternative, else the HiGHS LP
    over the agents that bind the library's best candidate."""
    from ordmech.audit import _percentile_candidates
    from ordmech.social_choice import percentile_rank

    poly = ConsistencyPolytope(profile, fd)
    k = percentile_rank(poly.n, alpha)
    others = np.delete(np.arange(fd.m), winner)
    _, j, cap, *_ = _percentile_candidates(poly, others, winner, k)
    values = []
    for t, x in enumerate(others.tolist()):
        if fd.values[winner, x] <= 0:
            values.append(1.0)
        elif poly.can_sit[:, x].sum() >= k:
            values.append(float("inf"))
        else:
            binding = batched_binding(j, cap, t)
            values.append(highs_percentile_pair(poly, binding, x, winner))
    return values


def subset_percentile_candidate(poly, x, w, k):
    """The percentile audit's best candidate (value, S, binding, M, c),
    building S for every ranking class and taking its cap by argmax over S."""
    firsts = np.unique(poly.ranking_id, return_index=True)[1]
    mu = np.array([poly.min_agent_distance(i, x) for i in firsts])[poly.ranking_id]
    order = np.argsort(mu, kind="stable")

    def subset(j):
        return np.append(j, order[order != j][:k - 1])

    candidates = []
    for j in firsts:
        S = subset(j)
        cap = S[np.argmax(mu[S])]
        gap = max(poly.G[poly.ranking_id[j], w, x], 0.0)
        candidates.append((1.0 + gap / mu[cap] if mu[cap] > 0 else float("inf"), j, cap, gap))
    top = max(c[0] for c in candidates)
    tol = 0.0 if top == float("inf") else 1e-9 * max(1.0, top)
    value, j, cap, gap = next(c for c in candidates if c[0] >= top - tol)
    return value, subset(j), [j] if cap == j else [j, cap], float(mu[cap]), float(gap)


# ---------------------------------------------------------------------------
# Exact-rational oracle: every float64 is a rational, so the same theory
# runs in exact arithmetic.  The facility distances share one power-of-two
# denominator, so every closure entry, a sum of them (and after the
# strengthening step half of one), is held as an integer over twice it,
# and the ratios are read back as ``Fraction``s.

def exact_closure(L, ranking, m):
    """The closure of one ranking's raw rows, in integer multiples of the
    unit of ``L`` (the facility distances as even integers): the least upper
    bound on each v[p] - v[q] over v[2a] = d(a), v[2a + 1] = -d(a), as a 2m
    x 2m list of lists (None for unbounded).  The rows are |d(f) - d(g)| <=
    l(f, g) <= d(f) + d(g), d >= 0, and d(f) <= d(g) for f ranked just
    before g (a top-only ranking's top before every other facility).
    Floyd-Warshall closes the difference-bound matrix, and one
    strengthening step after it makes it the octagon's closure over the
    rationals (Bagnara, Hill and Zaffanella, 2009)."""
    size = 2 * m
    W = [[None] * size for _ in range(size)]
    for f in range(m):
        W[2 * f][2 * f] = W[2 * f + 1][2 * f + 1] = W[2 * f + 1][2 * f] = 0
        for g in range(m):
            if f != g:
                W[2 * f][2 * g] = W[2 * g + 1][2 * f + 1] = L[f][g]  # d(f) - d(g) <= l
                W[2 * f + 1][2 * g] = -L[f][g]                        # -(d(f) + d(g)) <= -l
    chain = list(zip(ranking, ranking[1:])) + [
        (ranking[-1], g) for g in range(m) if g not in ranking]
    for f, g in chain:
        W[2 * f][2 * g] = W[2 * g + 1][2 * f + 1] = 0  # d(f) - d(g) <= 0
    for k in range(size):
        via = W[k]
        for row in W:
            if (head := row[k]) is not None:
                for q, tail in enumerate(via):
                    if tail is not None and (row[q] is None or head + tail < row[q]):
                        row[q] = head + tail
    # every path sum is even, as every row is: the halves are exact
    for p, q in product(range(size), repeat=2):
        if W[p][p ^ 1] is not None and W[q ^ 1][q] is not None:
            half, odd = divmod(W[p][p ^ 1] + W[q ^ 1][q], 2)
            assert not odd
            if W[p][q] is None or half < W[p][q]:
                W[p][q] = half
    return W


def exact_sum_values(profile, fd) -> list[list]:
    """Per winner, and per facility y other than it in order, the sum
    audit's ratio sup sum_i d(i, winner) / sum_i d(i, y) as a ``Fraction``,
    or INF, from each distinct ranking's exact closure: mu(y) = -W[2y +
    1][2y] / 2, the least consistent d(y), and c = W[2 winner][2y], the
    largest d(winner) - d(y).  The screens are the audit's: y co-located
    with the winner reads 1; y on which every agent can sit reads infinite,
    where one can sit on y iff the row l(y, .) keeps one's ranking, read off
    the facility distances; a vanishing denominator sum reads infinite
    under a positive numerator, else 1; the rest read max(1, sum of mu + c
    over sum of mu), each sum over agents."""
    m, l = fd.m, fd.values.tolist()
    unit = 2 * max(Fraction(x).denominator for row in l for x in row)  # even multiples
    L = [[int(Fraction(x) * unit) for x in row] for row in l]
    count = np.bincount(profile.class_of).tolist()
    ranks = profile.class_array.tolist()
    closed = [exact_closure(L, r, m) for r in ranks]
    sit = [sum(k for k, r in zip(count, ranks)
               if all(l[y][f] <= l[y][g] for f, g in zip(r, r[1:]))
               and all(l[y][r[-1]] <= l[y][g] for g in range(m) if g not in r))
           for y in range(m)]
    table = []
    for winner in range(m):
        values = []
        for y in range(m):
            if y == winner:
                continue
            if l[winner][y] == 0:
                values.append(Fraction(1))
            elif sit[y] == profile.n:
                values.append(INF)
            else:
                den = sum(k * -W[2 * y + 1][2 * y] for k, W in zip(count, closed))
                num = den + 2 * sum(k * W[2 * winner][2 * y] for k, W in zip(count, closed))
                values.append(max(Fraction(1), Fraction(num, den)) if den > 0
                              else INF if num > 0 else Fraction(1))
        table.append(values)
    return table
