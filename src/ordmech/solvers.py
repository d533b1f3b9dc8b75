"""Solvers for projected problems where all distances are known.

Each solver reports the approximation factor it guarantees on the
projected instance; that factor feeds the 1 + 2*beta reduction bound.
Exact solvers (factor 1) back every acceptance check; the heuristic
paths exist for scale and carry their documented factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, permutations

import numpy as np

from .assignment import Assignment, AssignmentProblem, DistanceCost, total_cost
from .core import BLOCK, ProjectedAgents
from .errors import SearchSpaceError, SolverError

BRUTE_FORCE_CAP = 10 ** 6
KMEDIAN_EXACT_CAP = 10 ** 5
SCREEN_RTOL = 1e-9  # far above the (n + m) * 2.2e-16 rounding of a screened cost


@dataclass(frozen=True)
class SolverResult:
    assignment: Assignment
    value: float
    beta: float
    exact: bool

    def __post_init__(self):
        if self.exact and self.beta != 1.0:
            raise SolverError("an exact solver must claim beta = 1")


def _serve(D: np.ndarray, subset) -> Assignment:
    """Each agent's nearest facility of ``subset`` (ascending), lowest index on ties."""
    subset = np.asarray(subset)
    return tuple(subset[np.argmin(D[:, subset], axis=1)].tolist())


def _subset_minima(rows: np.ndarray, sizes):
    """Chunks ``(subsets, low, arg)`` over the column subsets of ``rows`` with
    a size in ``sizes``: the subsets as ascending index rows, each row's
    least entry over the subset and the lowest column attaining it.  A
    depth-first walk extends each prefix by each later column, so a
    subset's minima are one ``np.minimum`` of its prefix's against its last
    column.  Each size comes in ``combinations`` order, and no array (the
    prefixes' included) holds more than BLOCK elements."""
    R, m = rows.shape
    cols, step, top = rows.T.copy(), max(1, BLOCK // max(R, m)), max(sizes)
    index = np.min_scalar_type(-m)  # the least integer type that holds a column

    def grow(subsets, low, arg):
        size = subsets.shape[1] + 1
        # the last column a subset of this size may end at and still grow to a wanted size
        hi = m - 1 - min(t - size for t in sizes if t >= size)
        ends = np.cumsum(np.maximum(hi - (subsets[:, -1] if size > 1 else -1), 0))
        for start in range(0, int(ends[-1]), step):
            child = np.arange(start, min(start + step, int(ends[-1])))
            parent = np.searchsorted(ends, child, side="right")
            col = (hi + 1 - (ends[parent] - child)).astype(index)
            low_c, arg_c, new = low[parent], arg[parent], cols[col]
            np.copyto(arg_c, col[:, None], where=new < low_c)
            np.minimum(low_c, new, out=low_c)
            chunk = np.column_stack((subsets[parent], col)), low_c, arg_c
            if size in sizes:
                yield chunk
            if size < top:
                yield from grow(*chunk)

    yield from grow(np.zeros((1, 0), index), np.full((1, R), np.inf), np.zeros((1, R), index))


def _near_minimal(D: np.ndarray, sizes, largest: bool = False, opening=None) -> list[list[int]]:
    """The subsets of facilities with a size in ``sizes`` (which ascend), as
    ascending lists, size by size in ``combinations`` order, that may serve the
    rows of ``D``, each by its nearest open facility, at least cost: the sum
    (with ``largest``, the maximum) of distances plus the opening costs of
    the facilities used.  Each subset is costed once per distinct row from
    the row minima of ``_subset_minima``, weighted by the row's count; that
    sums in another order than a per-agent cost, so every subset within a
    rounding margin of the least is kept for the caller to cost per agent."""
    D = np.ascontiguousarray(D, dtype=float)  # distinct rows by their bytes: one key per row
    _, first, counts = np.unique(D.view(np.dtype((np.void, 8 * D.shape[1]))).ravel(),
                                 return_index=True, return_counts=True)
    rows = D[first]
    opening = np.zeros(D.shape[1]) if opening is None else np.asarray(opening, dtype=float)
    margin = SCREEN_RTOL * (1.0 + counts @ rows.max(axis=1) + np.abs(opening).sum())
    kept, least = [], np.inf
    for subsets, low, arg in _subset_minima(rows, sizes):
        cost = low.max(axis=1) if largest else low @ counts
        if opening.any():
            used = np.zeros((len(arg), D.shape[1]))
            used[np.arange(len(arg))[:, None], arg] = 1
            cost += used @ opening
        least = min(least, cost.min())
        keep = cost <= least + margin
        kept += zip(cost[keep].tolist(), subsets[keep].tolist())
    return sorted((subset for cost, subset in kept if cost <= least + margin), key=len)


def brute_force_optimal(problem: AssignmentProblem, agents: ProjectedAgents) -> SolverResult:
    """Globally minimal valid assignment; first in lexicographic order on
    cost ties.  Problems without the matching rule get a subset fast path;
    matchings are enumerated, in ``permutations`` order and costed in
    chunks within BLOCK.  Either search runs while it has at most
    BRUTE_FORCE_CAP open sets or matchings."""
    n, m = agents.n, problem.m
    cons, spec, D = problem.constraints, problem.cost_spec, agents.distance_matrix
    limit = cons.at_most_open if cons.at_most_open is not None else m
    if cons.one_per_facility:  # feasible, so n <= at_most_open: every injective map is valid
        count, what = math.perm(m, n), f"matchings of {n} agents to {m} facilities"
    else:
        count = sum(math.comb(m, s) for s in range(1, limit + 1))
        what = f"open sets of at most {limit} of {m} facilities"
    if count > BRUTE_FORCE_CAP:
        raise SearchSpaceError(f"{count} {what} exceed the {BRUTE_FORCE_CAP} budget")
    if not cons.one_per_facility:
        xs = [_serve(D, subset) for subset in _near_minimal(
            D, range(1, limit + 1), spec.distance_cost is DistanceCost.MAX, spec.opening_costs)]
        c, x = min((total_cost(x, D, spec), x) for x in xs)
        return SolverResult(x, c, 1.0, True)

    rows, matchings, best = np.arange(n), permutations(range(m), n), (np.inf, ())
    while chunk := list(islice(matchings, max(1, BLOCK // n))):
        cost = spec.distance_cost.evaluate(D[rows, np.array(chunk)]) + spec.facility_cost(chunk)
        j = int(np.argmin(cost))  # the first least; earlier chunks win ties
        best = min(best, (float(cost[j]), chunk[j]))
    return SolverResult(best[1], best[0], 1.0, True)


def min_cost_matching(cost) -> SolverResult:
    """Exact minimum-weight perfect matching via shortest augmenting paths
    with potentials."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise SolverError(f"matching needs a square cost matrix, got {cost.shape}")
    n = cost.shape[0]
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)    # p[j]: row currently matched to column j (1-based)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        p[0], j0 = i, 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            free = np.flatnonzero(~used)
            cur = cost[p[j0] - 1, free - 1] - u[p[j0]] - v[free]
            closer = cur < minv[free]
            minv[free[closer]] = cur[closer]
            way[free[closer]] = j0
            j1 = free[np.argmin(minv[free])]  # the first least, as a scan would take
            delta = minv[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            p[j0], j0 = p[way[j0]], way[j0]
    assignment = np.zeros(n, dtype=int)
    assignment[p[1:] - 1] = np.arange(n)
    x = tuple(assignment.tolist())
    value = float(sum(cost[i, x[i]] for i in range(n)))
    return SolverResult(x, value, 1.0, True)


def _kuhn_perfect_matching(allowed: np.ndarray) -> list[int] | None:
    """Perfect matching on a boolean bipartite adjacency, or None: Kuhn's
    augmenting paths from each row in turn, depth first over the columns in
    ascending order, on an explicit stack, so a path may run through every
    row."""
    n = allowed.shape[0]
    match_col = [-1] * n
    columns = [np.flatnonzero(row).tolist() for row in allowed]
    for r in range(n):
        seen = [False] * n
        path = [(r, iter(columns[r]))]  # the rows on the path, each with its columns left
        taken: list[int] = []  # the column each row but the last moves to
        while path:
            c = next((c for c in path[-1][1] if not seen[c]), -1)
            if c < 0:  # a dead end: the row before it tries its next column
                path.pop()
                del taken[-1:]
                continue
            seen[c] = True
            taken.append(c)
            if match_col[c] < 0:  # free: every row on the path moves to its column
                for (row, _), col in zip(path, taken):
                    match_col[col] = row
                break
            path.append((match_col[c], iter(columns[match_col[c]])))
        else:
            return None
    return match_col


def bottleneck_matching(cost) -> SolverResult:
    """Perfect matching minimizing the maximum edge, by binary search over
    the sorted distinct weights with a matching-feasibility check."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise SolverError(f"matching needs a square cost matrix, got {cost.shape}")
    n = cost.shape[0]
    levels = np.unique(cost)
    lo, hi = 0, len(levels) - 1
    best_match = None
    while lo <= hi:
        mid = (lo + hi) // 2
        match_col = _kuhn_perfect_matching(cost <= levels[mid])
        if match_col is not None:
            best_match = match_col
            hi = mid - 1
        else:
            lo = mid + 1
    if best_match is None:
        raise SolverError("no perfect matching exists")
    assignment = [0] * n
    for c, r in enumerate(best_match):
        assignment[r] = c
    x = tuple(assignment)
    value = float(max(cost[i, x[i]] for i in range(n)))
    return SolverResult(x, value, 1.0, True)


def k_center_greedy(fd_values: np.ndarray, tops, k: int) -> SolverResult:
    """Farthest-point greedy on projected agents (each sits at a facility).

    Seeds with the lowest-index facility hosting an agent, then repeatedly
    opens the hosting facility of the agent farthest from its nearest open
    center.  Classic factor-2 guarantee for the radius objective.
    """
    fd_values = np.asarray(fd_values, dtype=float)
    m = fd_values.shape[0]
    tops = tuple(tops)
    if not 1 <= k <= m:
        raise SolverError(f"k must lie in [1, {m}], got {k}")
    hosts = sorted(set(tops))
    centers = [hosts[0]]
    dist = fd_values[list(tops), centers[0]].copy()
    while len(centers) < k:
        far = int(np.argmax(dist))
        if dist[far] <= 0:
            break
        nxt = tops[far]
        if nxt in centers:  # distinct hosting facility must exist at positive radius
            raise SolverError("farthest agent hosted at an open center")
        centers.append(nxt)
        dist = np.minimum(dist, fd_values[list(tops), nxt])
    x = _serve(fd_values[list(tops)], sorted(centers))
    value = float(fd_values[list(tops), list(x)].max())
    return SolverResult(x, value, 2.0, False)


def k_median_solver(fd_values: np.ndarray, tops, k: int) -> SolverResult:
    """Exact subset enumeration while C(m, k) is at most KMEDIAN_EXACT_CAP,
    otherwise single-swap local search (documented factor 5).  The
    enumeration screens every k-subset once per distinct projected row, from
    prefix minima in chunks within BLOCK (``_near_minimal``), and costs per
    agent only the subsets the screen keeps: the first least in
    ``combinations`` order."""
    fd_values = np.asarray(fd_values, dtype=float)
    m = fd_values.shape[0]
    tops = list(tops)
    if not 1 <= k <= m:
        raise SolverError(f"k must lie in [1, {m}], got {k}")
    D = fd_values[tops, :]

    def subset_cost(subset):
        return float(D[:, list(subset)].min(axis=1).sum())

    if math.comb(m, k) <= KMEDIAN_EXACT_CAP:
        cost, subset = min((subset_cost(subset), subset) for subset in _near_minimal(D, (k,)))
        exact, beta = True, 1.0
    else:
        subset = tuple(range(k))
        cost = subset_cost(subset)
        improved = True
        while improved:
            improved = False
            for out in subset:
                for inn in range(m):
                    if inn in subset:
                        continue
                    cand = tuple(sorted(set(subset) - {out} | {inn}))
                    c = subset_cost(cand)
                    if c < cost - 1e-12 * cost:  # relative, so free of the unit
                        subset, cost = cand, c
                        improved = True
                        break
                if improved:
                    break
        exact = False
        beta = 5.0
    return SolverResult(_serve(D, subset), cost, beta, exact)


def facility_location_solver(distances: np.ndarray, opening_costs) -> SolverResult:
    """Exact open-set enumeration while the 2^m - 1 open sets are at most
    KMEDIAN_EXACT_CAP (m <= 16); beyond that an incremental greedy whose
    documented factor is harmonic in the agent count.  The enumeration
    screens the open sets of every size in one walk that shares each
    prefix's row minima across sizes, with the opening costs of the
    facilities each set uses (``_near_minimal``), and evaluates per agent
    only the sets it keeps, in bitmask order."""
    D = np.asarray(distances, dtype=float)
    costs = np.asarray(opening_costs, dtype=float)
    n, m = D.shape
    if len(costs) != m:
        raise SolverError("need one opening cost per facility")

    def eval_open(subset: list[int]) -> tuple[float, Assignment]:
        x = _serve(D, subset)
        used = set(x)
        value = float(sum(costs[f] for f in used) + sum(D[i, x[i]] for i in range(n)))
        return value, x

    if 2 ** m - 1 <= KMEDIAN_EXACT_CAP:
        kept = sorted(_near_minimal(D, range(1, m + 1), opening=costs),
                      key=lambda subset: sum(1 << f for f in subset))
        value, x = min(map(eval_open, kept), key=lambda pair: pair[0])
        return SolverResult(x, value, 1.0, True)

    opened: list[int] = []
    current = np.full(n, np.inf)
    while len(opened) < m:
        best_step = None
        for f in range(m):
            if f in opened:
                continue
            newdist = np.minimum(current, D[:, f])
            if opened:
                delta = float(costs[f] + newdist.sum() - current.sum())
            else:
                delta = float(costs[f] + newdist.sum())
            if best_step is None or delta < best_step[0]:
                best_step = (delta, f, newdist)
        delta, f, newdist = best_step
        # a step must save a share of the current cost, so the unit of length
        # does not decide where the greedy stops
        if opened and delta >= -1e-12 * (current.sum() + costs[opened].sum()):
            break
        opened.append(f)
        current = newdist
    value, x = eval_open(opened)
    beta = 0.0  # the harmonic-series greedy bound, summed left to right on every Python
    for i in range(1, n + 1):  # (sum() compensates its rounding from Python 3.12 on)
        beta += 1.0 / i
    return SolverResult(x, value, max(beta, 1.0), False)


def _for_preset(preset: str, solve):
    """A ``SOLVERS`` entry: ``solve(problem, agents)`` for problems of one preset."""
    def solver(problem: AssignmentProblem, agents: ProjectedAgents) -> SolverResult:
        if problem.preset != preset:
            raise SolverError(f"solver expects preset in {(preset,)}, got {problem.preset!r}")
        return solve(problem, agents)
    return solver


# Each entry maps (problem, projected agents) to a SolverResult.
SOLVERS = {
    "brute_force": brute_force_optimal,
    "matching": _for_preset("matching_min_cost",
                            lambda problem, agents: min_cost_matching(agents.distance_matrix)),
    "bottleneck": _for_preset("matching_egalitarian",
                              lambda problem, agents: bottleneck_matching(agents.distance_matrix)),
    "k_center": _for_preset("k_center", lambda problem, agents: k_center_greedy(
        agents.facility_distances.values, agents.tops, problem.constraints.at_most_open)),
    "k_median": _for_preset("k_median", lambda problem, agents: k_median_solver(
        agents.facility_distances.values, agents.tops, problem.constraints.at_most_open)),
    "facility_location": _for_preset("facility_location", lambda problem, agents: (
        facility_location_solver(agents.distance_matrix, problem.cost_spec.opening_costs))),
}
