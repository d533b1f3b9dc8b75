"""Agents, facilities, metrics, preference profiles and their consistency.

The central object is the (possibly infinite) set of full metrics that
agree with the known facility distances and never contradict an agent's
ranking.  It is represented by its topological closure: weak chain
inequalities along each ranking plus the two-sided triangle bounds that
tie every agent-facility distance to the facility geometry.  All
operations here are pure; every value is immutable after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import MetricError, ProfileError

TOL = 1e-9
BLOCK = 1 << 13  # elements per temporary of the blocked array passes (64 KB)
# The largest facility distance accepted, far below the float maximum, so
# that every sum an audit forms stays finite.  Agent distances may reach ten
# times it: room for agents far from every facility and for an audit's
# witness, whose entries stay within 3 times the largest facility distance.
MAX_DISTANCE = 1e150


def _freeze(arr: np.ndarray, dtype=float) -> np.ndarray:
    arr = np.array(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FacilitySet:
    """Ordered facility identifiers; indices are the canonical handle."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise MetricError("facility set must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise MetricError("facility identifiers must be unique")

    @property
    def m(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MetricError(f"unknown facility {name!r}") from None


@functools.cache
def pair_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs f < g of ``np.triu_indices(m, 1)``, read-only, built once per m."""
    f, g = np.nonzero(np.arange(m)[:, None] < np.arange(m))
    return _freeze(f, np.intp), _freeze(g, np.intp)


@dataclass(frozen=True)
class MetricCheck:
    ok: bool
    reason: str | None = None
    triple: tuple[int, ...] | None = None


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true entry of ``mask`` in C order, or None."""
    if mask.any():  # argmax of a boolean array is its first true entry
        return tuple(int(v) for v in np.unravel_index(int(mask.argmax()), mask.shape))
    return None


def validate_distance_matrix(values, tol: float = TOL) -> MetricCheck:
    """Check symmetry, zero diagonal, nonnegativity and the triangle
    inequality; on failure the report names the first offending entry:
    diagonal, then pairs i < j, then triples (i, j, k), each in
    lexicographic order.  A non-finite entry, or one beyond
    ``MAX_DISTANCE`` in size, raises ``MetricError``."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MetricError(f"distance matrix must be square, got shape {a.shape}")
    if (bad := _first(~np.isfinite(a))) is not None:
        raise MetricError(f"non-finite distance {a[bad]} at {bad}")
    if (bad := _first(np.abs(a) > MAX_DISTANCE)) is not None:
        raise MetricError(f"distance {a[bad]} at {bad} exceeds {MAX_DISTANCE:g}")
    if (bad := _first(np.abs(np.diag(a)) > tol)) is not None:
        return MetricCheck(False, "nonzero diagonal", bad * 2)
    f, g = pair_indices(len(a))
    negative = (a[f, g] < -tol) | (a[g, f] < -tol)
    if (bad := _first(negative | (np.abs(a[f, g] - a[g, f]) > tol))) is not None:
        p = bad[0]
        return MetricCheck(False, "negative distance" if negative[p] else "asymmetric",
                           (int(f[p]), int(g[p])))
    rows = max(1, BLOCK // max(a.size, 1))
    for start in range(0, len(a), rows):
        block = a[start:start + rows]  # [i, j, k]: a[i, k] > a[i, j] + a[j, k] + tol
        if (bad := _first(block[:, None, :] > block[:, :, None] + a + tol)) is not None:
            return MetricCheck(False, "triangle inequality violated", (start + bad[0], *bad[1:]))
    return MetricCheck(True)


@dataclass(frozen=True)
class FacilityDistances:
    """Known symmetric metric on the facilities."""

    facilities: FacilitySet
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.shape != (self.facilities.m, self.facilities.m):
            raise MetricError("distance matrix shape does not match facility count")
        check = validate_distance_matrix(self.values)
        if not check.ok:
            raise MetricError(f"{check.reason} at {check.triple}")

    @property
    def m(self) -> int:
        return self.facilities.m


def facility_distances(names, values) -> FacilityDistances:
    return FacilityDistances(FacilitySet(tuple(names)), values)


@dataclass(frozen=True)
class PreferenceProfile:
    """Per-agent rankings over facility indices.

    Full profiles carry a permutation of all facilities per agent;
    top-only profiles carry just each agent's first choice.
    """

    m: int
    rankings: tuple[tuple[int, ...], ...]
    top_only: bool = False
    # The distinct rankings by first appearance, each agent's among them, and
    # the rankings as a read-only n x (m, or 1 when top-only) index array.
    classes: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    class_of: np.ndarray = field(init=False, repr=False, compare=False)
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ProfileError("need at least one facility")
        if not self.rankings:
            raise ProfileError("need at least one agent")
        index = {r: c for c, r in enumerate(dict.fromkeys(self.rankings))}
        classes, class_of = tuple(index), list(map(index.__getitem__, self.rankings))
        try:
            arr = np.asarray(classes)
        except ValueError:  # ragged
            arr = np.zeros(0)
        # An array pass finds suspect classes; the first to fail names its first agent.
        if arr.shape != (len(index), 1 if self.top_only else self.m) or arr.dtype.kind not in "iu":
            suspects = range(len(index))
        elif self.top_only:
            suspects = np.flatnonzero((arr[:, 0] < 0) | (arr[:, 0] >= self.m))
        else:
            suspects = np.flatnonzero((np.sort(arr, axis=1) != np.arange(self.m)).any(axis=1))
        for r in map(classes.__getitem__, suspects):
            i = self.rankings.index(r)
            if len(r) == 0:
                raise ProfileError(f"agent {i} has an empty ranking")
            if self.top_only:
                if len(r) != 1 or not 0 <= r[0] < self.m:
                    raise ProfileError(f"agent {i}: top-only entry must be one facility index")
            elif sorted(r) != list(range(self.m)):
                raise ProfileError(f"agent {i}: ranking is not a permutation of all facilities")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_of", _freeze(class_of, np.intp))
        object.__setattr__(self, "array", _freeze(arr[class_of], np.intp))

    @property
    def n(self) -> int:
        return len(self.rankings)

    @property
    def tops(self) -> tuple[int, ...]:
        return tuple(self.array[:, 0].tolist())


@dataclass(frozen=True)
class FullMetric:
    """Agent-facility distances together with the facility geometry.

    The two-sided bound |d(i,F) - d(i,F')| <= l(F,F') <= d(i,F) + d(i,F')
    is exactly what makes a shortest-path completion over agents and
    facilities a genuine metric that keeps every given entry.  Distances
    beyond ``10 * MAX_DISTANCE`` are refused.
    """

    distances: np.ndarray  # n x m
    facility_distances: FacilityDistances

    def __post_init__(self):
        object.__setattr__(self, "distances", _freeze(self.distances))
        d = self.distances
        l = self.facility_distances.values
        if d.ndim != 2 or d.shape[1] != self.facility_distances.m:
            raise MetricError("agent-facility matrix shape does not match facilities")
        if (bad := _first(~np.isfinite(d))) is not None:
            raise MetricError(f"agent {bad[0]}: d({bad[1]}) = {d[bad]} is not finite")
        if (bad := _first(d > 10 * MAX_DISTANCE)) is not None:
            raise MetricError(f"agent {bad[0]}: d({bad[1]}) = {d[bad]} exceeds "
                              f"{10 * MAX_DISTANCE:g}")
        if np.any(d < -TOL):
            raise MetricError("negative agent-facility distance")
        # Blocks of agents against the pairs f < g: the first offender is the
        # one an agent-major scan over the pairs meets, the difference bound
        # tested before the sum bound.
        f, g = pair_indices(d.shape[1])
        rows = max(1, BLOCK // max(f.size, 1))
        for start in range(0, len(d), rows):
            df, dg = d[start:start + rows, f], d[start:start + rows, g]
            gap = np.abs(df - dg)
            wide = gap > l[f, g] + TOL
            if (bad := _first(wide | (df + dg < l[f, g] - TOL))) is not None:
                (r, p), i, fp, gp = bad, start + bad[0], int(f[bad[1]]), int(g[bad[1]])
                if wide[r, p]:
                    raise MetricError(f"agent {i}: |d({fp}) - d({gp})| = {gap[r, p]} "
                                      f"exceeds l = {l[fp, gp]}")
                raise MetricError(f"agent {i}: d({fp}) + d({gp}) falls short of l = {l[fp, gp]}")

    @property
    def n(self) -> int:
        return self.distances.shape[0]

    @property
    def m(self) -> int:
        return self.distances.shape[1]


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


def preferences_from_metric(metric: FullMetric) -> PreferenceProfile:
    """Rank facilities by distance, equal distances broken toward the
    lower facility index."""
    order = np.argsort(metric.distances, axis=1, kind="stable")
    return PreferenceProfile(metric.m, tuple(map(tuple, order.tolist())))


def check_consistency(profile: PreferenceProfile, metric: FullMetric,
                      tol: float = TOL) -> bool:
    """True when no agent's distances strictly contradict its ranking
    (weak inequalities: ties are consistent with any order)."""
    d = metric.distances
    if d.shape[0] != profile.n or d.shape[1] != profile.m:
        raise MetricError("profile and metric dimensions disagree")
    r = profile.array
    if profile.top_only:
        top = d[np.arange(profile.n), r[:, 0]]
        return not np.any(top > d.min(axis=1) + tol)
    ranked = np.take_along_axis(d, r, axis=1)
    return not np.any(ranked[:, :-1] > ranked[:, 1:] + tol)


@dataclass(frozen=True)
class ProjectedAgents:
    """Each agent relocated to its top-choice facility, making all of its
    facility distances known exactly."""

    tops: tuple[int, ...]
    facility_distances: FacilityDistances

    def distance(self, i: int, f: int) -> float:
        return float(self.facility_distances.values[self.tops[i], f])

    @property
    def distance_matrix(self) -> np.ndarray:
        return self.facility_distances.values[list(self.tops), :]

    @property
    def n(self) -> int:
        return len(self.tops)


def project_agents(profile: PreferenceProfile, fd: FacilityDistances) -> ProjectedAgents:
    if profile.m != fd.m:
        raise MetricError("profile and facility distances disagree on m")
    return ProjectedAgents(profile.tops, fd)


@dataclass(frozen=True)
class ConsistencyConstraintSet:
    """Linear closure of the consistent-metric set over variables d(i,F).

    Rows: one ``ranking_block`` per agent, stacked block-diagonally.
    Variable nonnegativity is part of the contract but is carried as
    bounds, not rows.  Row kinds are kept for inspection.
    """

    n: int
    m: int
    A: np.ndarray
    b: np.ndarray
    kinds: tuple[str, ...] = field(repr=False)

    @property
    def nvars(self) -> int:
        return self.n * self.m

    def count(self, kind: str) -> int:
        return sum(1 for k in self.kinds if k == kind)

    def contains(self, distances, tol: float = 1e-7) -> bool:
        x = np.asarray(distances, dtype=float).reshape(-1)
        if np.any(x < -tol):
            return False
        return bool(np.all(self.A @ x <= self.b + tol))


def pair_rows(fd: FacilityDistances) -> tuple[np.ndarray, np.ndarray]:
    """Rows tying one agent's distances to the facility geometry, the same
    for every agent: per pair f < g, the two absolute-difference bounds
    d(f) - d(g) <= l and d(g) - d(f) <= l, then the sum bound
    -(d(f) + d(g)) <= -l."""
    m = fd.m
    f, g = pair_indices(m)
    at = np.arange(f.size)
    diff = np.zeros((f.size, m))
    diff[at, f], diff[at, g] = 1.0, -1.0
    total = np.zeros((f.size, m))
    total[at, f] = total[at, g] = -1.0
    lv = fd.values[f, g]
    A = np.stack([diff, -diff, total], axis=1).reshape(-1, m)
    return A, np.stack([lv, lv, -lv], axis=1).reshape(-1)


def ranking_block(ranking, pairs: tuple[np.ndarray, np.ndarray],
                  top_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Constraint rows ``A d <= b`` over one agent's m distances: the m - 1
    chain rows of its ranking (consecutive ranks, or the top choice against
    every other facility when only tops are known), then ``pairs``."""
    A_pair, b_pair = pairs
    m = A_pair.shape[1]
    if top_only:
        before, after = [ranking[0]] * (m - 1), [g for g in range(m) if g != ranking[0]]
    else:
        before, after = list(ranking[:-1]), list(ranking[1:])
    chain = np.zeros((m - 1, m))
    chain[np.arange(m - 1), before] = 1.0
    chain[np.arange(m - 1), after] = -1.0
    return np.vstack([chain, A_pair]), np.concatenate([np.zeros(m - 1), b_pair])


def stack_blocks(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal ``(A, b)`` from equal-shape ``(A_k, b_k)`` blocks over
    consecutive groups of variables."""
    As, bs = zip(*blocks)
    k, (rows, cols) = len(As), As[0].shape
    A = np.zeros((k, rows, k, cols))
    A[np.arange(k), :, np.arange(k), :] = As
    return A.reshape(k * rows, k * cols), np.concatenate(bs)


def consistency_constraints(profile: PreferenceProfile,
                            fd: FacilityDistances) -> ConsistencyConstraintSet:
    """Emit the closed constraint system for the given ordinal data.

    Always feasible: placing every agent at one far-away point (all of its
    facility distances equal and large) satisfies every row weakly.
    """
    n, m = profile.n, profile.m
    if m != fd.m:
        raise MetricError("profile and facility distances disagree on m")
    pairs = pair_rows(fd)
    blocks = {r: ranking_block(r, pairs, profile.top_only) for r in set(profile.rankings)}
    A, b = stack_blocks(blocks[r] for r in profile.rankings)
    kinds = (("chain",) * (m - 1) + ("diff", "diff", "sum") * (m * (m - 1) // 2)) * n
    return ConsistencyConstraintSet(n, m, _freeze(A), _freeze(b), kinds)
