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


def validate_distance_matrix(values) -> MetricCheck:
    """Check symmetry, zero diagonal, nonnegativity and the triangle
    inequality, each within TOL; on failure the report names the first
    offending entry: diagonal, then pairs i < j, then triples (i, j, k),
    each in lexicographic order.  A non-finite entry, or one beyond
    ``MAX_DISTANCE`` in size, raises ``MetricError``."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MetricError(f"distance matrix must be square, got shape {a.shape}")
    rows, size = max(1, BLOCK // max(a.size, 1)), np.abs(a)
    if not (size.max(initial=0.0) <= MAX_DISTANCE and a.min(initial=0.0) >= -TOL and  # NaN fails
            size.diagonal().max(initial=0.0) <= TOL and np.abs(a - a.T).max(initial=0.0) <= TOL):
        if (bad := _first(~np.isfinite(a))) is not None:
            raise MetricError(f"non-finite distance {a[bad]} at {bad}")
        if (bad := _first(size > MAX_DISTANCE)) is not None:
            raise MetricError(f"distance {a[bad]} at {bad} exceeds {MAX_DISTANCE:g}")
        if (bad := _first(size.diagonal() > TOL)) is not None:
            return MetricCheck(False, "nonzero diagonal", bad * 2)
        f, g = pair_indices(len(a))
        negative = (a[f, g] < -TOL) | (a[g, f] < -TOL)
        if (bad := _first(negative | (np.abs(a[f, g] - a[g, f]) > TOL))) is not None:
            p = bad[0]
            return MetricCheck(False, "negative distance" if negative[p] else "asymmetric",
                               (int(f[p]), int(g[p])))
    for start in range(0, len(a), rows):
        # [i, j, k]: a[i, k] > a[i, j] + a[j, k] beyond TOL (1 + the three sizes); a block
        # within TOL alone is settled, as the scaled slack is at least TOL
        block, over = a[start:start + rows], size[start:start + rows]
        if (block[:, None, :] <= block[:, :, None] + a + TOL).all():
            continue
        slack = TOL * (1 + over[:, None, :] + over[:, :, None] + size)
        if (bad := _first(block[:, None, :] > block[:, :, None] + a + slack)) is not None:
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


@dataclass(frozen=True, init=False, eq=False)
class PreferenceProfile:
    """Per-agent rankings over facility indices.

    Full profiles carry a permutation of all facilities per agent;
    top-only profiles carry just each agent's first choice.
    """

    m: int
    top_only: bool
    # Read-only index arrays: the distinct rankings by first appearance, classes x (m, or 1 if
    # top-only), each agent's among them, and chain rows d(before) <= d(after).
    class_array: np.ndarray = field(repr=False)
    class_of: np.ndarray = field(repr=False)
    before: np.ndarray = field(repr=False)
    after: np.ndarray = field(repr=False)

    def __init__(self, m: int, rankings, top_only: bool = False):
        index: dict = {}
        class_of = [index.setdefault(r, len(index)) for r in rankings]
        self._index(m, top_only, tuple(index), class_of)

    @classmethod
    def _of_classes(cls, m: int, classes, class_of: list[int]) -> "PreferenceProfile":
        """The full profile whose agent i ranks row ``class_of[i]`` of ``classes``, an index
        array of distinct rankings by first appearance: the constructor without hashing."""
        self = object.__new__(cls)
        self._index(m, False, classes, class_of)
        return self

    def _index(self, m: int, top_only: bool, classes, class_of: list[int]):
        """Check the distinct rankings ``classes`` and keep them as index arrays."""
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "top_only", top_only)
        if m < 1:
            raise ProfileError("need at least one facility")
        if not class_of:
            raise ProfileError("need at least one agent")
        try:
            arr = np.asarray(classes)
        except ValueError:  # ragged
            arr = np.zeros(0)
        # An array pass finds suspect classes; the first to fail names its first agent.
        if arr.shape != (len(classes), 1 if top_only else m) or arr.dtype.kind not in "iu":
            suspects = range(len(classes))
        elif top_only:
            suspects = np.flatnonzero((arr[:, 0] < 0) | (arr[:, 0] >= m))
        else:
            suspects = np.flatnonzero((np.sort(arr, axis=1) != np.arange(m)).any(axis=1))
        for c in suspects:
            r, i = classes[c], class_of.index(c)
            if len(r) == 0:
                raise ProfileError(f"agent {i} has an empty ranking")
            if top_only:
                if len(r) != 1 or not 0 <= r[0] < m:
                    raise ProfileError(f"agent {i}: top-only entry must be one facility index")
            elif sorted(r) != list(range(m)):
                raise ProfileError(f"agent {i}: ranking is not a permutation of all facilities")
        object.__setattr__(self, "class_array", _freeze(arr, np.intp))
        object.__setattr__(self, "class_of", _freeze(class_of, np.intp))
        # consecutive ranks (views), or the top against each other facility in index order
        ranks, slot = self.class_array, np.arange(m - 1)
        chain = ((ranks.repeat(m - 1, axis=1), slot + (slot >= ranks)) if top_only
                 else (ranks[:, :-1], ranks[:, 1:]))
        for name, rows in zip(("before", "after"), chain):
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    def _key(self) -> tuple:  # classes by first appearance: equal keys, equal rankings
        return (self.m, self.top_only, self.class_array.tobytes(), self.class_of.tobytes())

    def __eq__(self, other):
        return isinstance(other, PreferenceProfile) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @functools.cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.class_array.tolist()))

    @functools.cached_property
    def rankings(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.classes.__getitem__, self.class_of.tolist()))

    @property
    def n(self) -> int:
        return len(self.class_of)

    @property
    def array(self) -> np.ndarray:
        """Each agent's ranking as a read-only n x (m, or 1 if top-only) index array."""
        return _freeze(self.class_array[self.class_of], np.intp)

    @property
    def tops(self) -> tuple[int, ...]:
        return tuple(self.class_array[self.class_of, 0].tolist())


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
        if not (-TOL <= d.min(initial=0.0) and d.max(initial=0.0) <= 10 * MAX_DISTANCE):
            if (bad := _first(~np.isfinite(d))) is not None:  # NaN fails both bounds above
                raise MetricError(f"agent {bad[0]}: d({bad[1]}) = {d[bad]} is not finite")
            if (bad := _first(d > 10 * MAX_DISTANCE)) is not None:
                raise MetricError(f"agent {bad[0]}: d({bad[1]}) = {d[bad]} exceeds "
                                  f"{10 * MAX_DISTANCE:g}")
            raise MetricError("negative agent-facility distance")
        # Blocks of agents against the pairs f < g: the first offender is the
        # one an agent-major scan over the pairs meets, the difference bound
        # tested before the sum bound, each within TOL (1 + |l| + |d(f) + d(g)|).
        f, g = pair_indices(d.shape[1])
        rows, lfg = max(1, BLOCK // max(f.size, 1)), l[f, g]
        for start in range(0, len(d), rows):
            df, dg = d[start:start + rows, f], d[start:start + rows, g]
            # |d(f) - d(g)| <= l <= d(f) + d(g) as |max - l| <= min, within TOL / 2 for rounding
            if (np.abs(np.maximum(df, dg) - lfg) <= np.minimum(df, dg) + TOL / 2).all():
                continue
            gap, total = np.abs(df - dg), df + dg
            slack = TOL * (1 + np.abs(lfg) + np.abs(total))
            wide, short = gap > lfg + slack, total < lfg - slack
            if (bad := _first(wide | short)) is not None:
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
    (weak inequalities: ties are consistent with any order), beyond ``tol``
    times 1 plus the size of the two distances compared."""
    return _keeps_rankings(profile, metric.distances, tol)


def _keeps_rankings(profile: PreferenceProfile, d: np.ndarray, tol: float) -> bool:
    """check_consistency on the agent-facility distances ``d`` alone."""
    if d.shape[0] != profile.n or d.shape[1] != profile.m:
        raise MetricError("profile and metric dimensions disagree")
    agents, c = np.arange(profile.n)[:, None], profile.class_of
    before, after = d[agents, profile.before[c]], d[agents, profile.after[c]]
    return not np.any(before > after + tol * (1 + np.abs(before) + np.abs(after)))


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


def ranking_block(before, after,
                  pairs: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Constraint rows ``A d <= b`` over one agent's m distances: the m - 1
    chain rows d(before) - d(after) <= 0 of its ranking (a row of the
    profile's ``before`` and ``after``), then ``pairs``."""
    A_pair, b_pair = pairs
    m = A_pair.shape[1]
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
    blocks = [ranking_block(*rows, pairs) for rows in zip(profile.before, profile.after)]
    A, b = stack_blocks(blocks[c] for c in profile.class_of.tolist())
    kinds = (("chain",) * (m - 1) + ("diff", "diff", "sum") * (m * (m - 1) // 2)) * n
    return ConsistencyConstraintSet(n, m, _freeze(A), _freeze(b), kinds)
