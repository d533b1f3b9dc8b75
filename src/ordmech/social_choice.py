"""Single-winner mechanisms over ordinal preferences.

Two mechanisms are implemented.  The projected-sum rule relocates every
agent to its top-choice facility and minimizes the now fully known total
distance.  The augmented-majority rule starts from the pairwise
defeat-or-tie graph and, for one-directional pairs, adds the reverse
edge whenever a third alternative certifies it through the partial order
on facility-pair distances; a vertex dominating all others always exists
and is returned.  Every pair always carries at least one majority edge,
so the augmentation pass only ever examines single-direction pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (FacilityDistances, FullMetric, PreferenceProfile, ProjectedAgents,
                   pair_indices)
from .errors import InternalInvariantError, ProfileError


@dataclass(frozen=True)
class MajorityGraph:
    """Pairwise preference counts; an edge (a, b) means at least half the
    agents prefer a to b."""

    n: int
    prefer: np.ndarray  # prefer[a, b] = #{i : a ranked before b}

    @property
    def m(self) -> int:
        return self.prefer.shape[0]

    def defeats_or_ties(self, a: int, b: int) -> bool:
        return a != b and 2 * int(self.prefer[a, b]) >= self.n

    def strictly_defeats(self, a: int, b: int) -> bool:
        return a != b and 2 * int(self.prefer[a, b]) > self.n

    def edges(self) -> set[tuple[int, int]]:
        m = self.m
        return {(a, b) for a in range(m) for b in range(m)
                if self.defeats_or_ties(a, b)}

    def condorcet_winner(self) -> int | None:
        beats = 2 * self.prefer > self.n
        np.fill_diagonal(beats, True)
        winners = np.flatnonzero(beats.all(axis=1))
        return int(winners[0]) if winners.size else None


def majority_graph(profile: PreferenceProfile) -> MajorityGraph:
    """Pairwise counts, one ``bincount`` per rank position p over each
    distinct ranking's pairs (facility at p, facility after p) as a * m + b,
    weighted by its agents (float64 sums of counts below 2^53, so exact).
    ``median_winner`` needs nothing more when a Condorcet winner exists; the
    distance order's closure is left unbuilt."""
    if profile.top_only:
        raise ProfileError("majority graph needs full rankings")
    m, r = profile.m, np.ascontiguousarray(profile.class_array.T)  # position x class
    agents = np.bincount(profile.class_of)[None].repeat(m, 0)
    prefer = np.zeros(m * m)
    for p in range(m - 1):
        prefer += np.bincount((r[p] * m + r[p + 1:]).ravel(), agents[p + 1:].ravel(),
                              minlength=m * m)
    prefer = prefer.astype(np.int64).reshape(m, m)
    prefer.flags.writeable = False
    return MajorityGraph(profile.n, prefer)


@dataclass(frozen=True)
class DistancePartialOrder:
    """Known "<=" relation between facility-pair distances.  From numeric
    distances (``values``) ``leq`` compares two values exactly.  From
    candidate rankings it reads the transitive closure ``reach`` of the
    ``chain`` edges (closer pair, farther pair) along each ranking, which
    is built only for candidate rankings and only on the first query;
    cycles collapse into equality classes, as every member reaches every
    other."""

    m: int
    pairs: tuple[tuple[int, int], ...]
    values: np.ndarray | None = None  # values[p]: distance of pair p
    chain: np.ndarray | None = None   # rows (p, q): pair p known <= pair q

    def pair_index(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if not 0 <= f < g < self.m:
            raise ValueError(f"{(f, g)} is not a pair of distinct facilities")
        return f * (2 * self.m - f - 1) // 2 + g - f - 1

    def leq(self, pair_a: tuple[int, int], pair_b: tuple[int, int]) -> bool:
        p, q = self.pair_index(*pair_a), self.pair_index(*pair_b)
        if self.values is not None:
            return bool(self.values[p] <= self.values[q])
        return bool(self.reach[p, q])

    @functools.cached_property
    def reach(self) -> np.ndarray:
        """reach[p, q]: distance of pair p known <= pair q."""
        if self.values is not None:
            reach = self.values[:, None] <= self.values[None, :]
        else:
            reach = _reachability(len(self.pairs), self.chain)
        reach.flags.writeable = False
        return reach

    def equality_classes(self) -> list[set[tuple[int, int]]]:
        same, seen, classes = self.reach & self.reach.T, set(), []
        for p in range(len(self.pairs)):
            if p not in seen:
                cls = set(np.flatnonzero(same[p]).tolist())
                seen |= cls
                classes.append({self.pairs[q] for q in cls})
        return classes


def _reachability(size: int, edges: np.ndarray) -> np.ndarray:
    """Boolean reflexive-transitive closure of the directed graph with these
    edge rows, by a breadth-first search from each node."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    graph = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(size, size))
    reach = np.zeros((size, size), dtype=bool)
    for v in range(size):
        reach[v, breadth_first_order(graph, v, return_predecessors=False)] = True
    return reach


def distance_partial_order(source) -> DistancePartialOrder:
    """Build the order either from numeric facility distances (totally
    comparable by value) or from each candidate's ranking of the others
    (only pairs sharing a facility are directly related)."""
    if isinstance(source, FacilityDistances):
        return _order_from_values(source)
    return _order_from_candidate_rankings(source)


def _order_from_values(fd: FacilityDistances) -> DistancePartialOrder:
    values = fd.values[pair_indices(fd.m)]
    values.flags.writeable = False
    return DistancePartialOrder(fd.m, tuple(combinations(range(fd.m), 2)), values=values)


def _order_from_candidate_rankings(rankings) -> DistancePartialOrder:
    rankings = [tuple(r) for r in rankings]
    m = len(rankings)
    for f, r in enumerate(rankings):
        if sorted(r) != sorted(set(range(m)) - {f}):
            raise ProfileError(
                f"candidate {f}: ranking must totally order the other candidates")
    ranked = np.array(rankings, dtype=np.intp).reshape(m, max(m - 1, 0))
    lo, hi = np.minimum(np.arange(m)[:, None], ranked), np.maximum(np.arange(m)[:, None], ranked)
    ids = lo * (2 * m - lo - 1) // 2 + hi - lo - 1  # pair_index(f, ranked[f, j])
    chain = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    chain.flags.writeable = False
    return DistancePartialOrder(m, tuple(combinations(range(m), 2)), chain=chain)


@dataclass(frozen=True)
class EdgeJustification:
    edge: tuple[int, int]
    via: str  # "majority" | "witness"
    witness: int | None = None


@dataclass(frozen=True)
class SocialChoiceOutcome:
    winner: int
    kind: str
    certificate: tuple[EdgeJustification, ...] = ()
    scores: tuple[float, ...] | None = None


def sum_winner(projected: ProjectedAgents) -> SocialChoiceOutcome:
    """Minimize total distance over the projected agents; ties break to
    the lower facility index."""
    costs = projected.distance_matrix.sum(axis=0)
    winner = int(np.argmin(costs))
    return SocialChoiceOutcome(winner, "projected_sum", scores=tuple(float(c) for c in costs))


def augment_majority_edges(graph: MajorityGraph,
                           order: DistancePartialOrder) -> dict[tuple[int, int], int]:
    """One pass over single-direction pairs: justify the missing reverse
    edge through a third alternative that defeats-or-ties the stronger
    side and is at least as far from it.  Only the original graph and the
    static order are consulted, so the pair order is immaterial."""
    m = graph.m
    added: dict[tuple[int, int], int] = {}
    for f, g in combinations(range(m), 2):
        fg = graph.defeats_or_ties(f, g)
        gf = graph.defeats_or_ties(g, f)
        if fg and gf:
            continue
        y, w = (f, g) if fg else (g, f)
        for p in range(m):
            if p == w or p == y:
                continue
            if graph.defeats_or_ties(p, y) and order.leq((y, w), (y, p)):
                added[(w, y)] = p
                break
    return added


def median_winner(profile: PreferenceProfile,
                  order: DistancePartialOrder) -> SocialChoiceOutcome:
    """Augmented-majority winner (low worst-case median and percentile
    cost, and at most 5x total cost)."""
    if order.m != profile.m:
        raise ProfileError("distance order and profile disagree on the "
                           "facility count")
    graph = majority_graph(profile)
    m = profile.m
    cw = graph.condorcet_winner()
    if cw is not None:
        return SocialChoiceOutcome(cw, "condorcet", tuple(
            EdgeJustification((cw, y), "majority") for y in range(m) if y != cw))
    added = augment_majority_edges(graph, order)
    for w in range(m):
        cert = tuple(EdgeJustification((w, y), "majority") if graph.defeats_or_ties(w, y)
                     else EdgeJustification((w, y), "witness", added.get((w, y)))
                     for y in range(m) if y != w)
        if all(j.via == "majority" or j.witness is not None for j in cert):
            return SocialChoiceOutcome(w, "augmented_majority", cert)
    raise InternalInvariantError("no alternative dominates the augmented majority graph")


def evaluate_sum_cost(x: int, metric: FullMetric) -> float:
    return float(metric.distances[:, x].sum())


def evaluate_percentile_cost(x: int, metric: FullMetric, alpha: float) -> float:
    """k-th smallest agent distance to x with k = min(floor(alpha n) + 1, n);
    alpha = 1/2 reproduces the median convention for both parities."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    n = metric.n
    k = percentile_rank(n, alpha)
    col = np.sort(metric.distances[:, x])
    return float(col[k - 1])


def percentile_rank(n: int, alpha: float) -> int:
    return min(math.floor(alpha * n + 1e-9) + 1, n)


def evaluate_median_cost(x: int, metric: FullMetric) -> float:
    return evaluate_percentile_cost(x, metric, 0.5)


def copeland_winner(profile: PreferenceProfile) -> SocialChoiceOutcome:
    """Baseline: one point per strict pairwise defeat, half per tie."""
    graph = majority_graph(profile)
    wins = 2 * graph.prefer > graph.n
    ties = ~(wins | wins.T)
    np.fill_diagonal(ties, False)
    scores = wins.sum(axis=1) + 0.5 * ties.sum(axis=1)
    winner = int(np.argmax(scores))
    return SocialChoiceOutcome(winner, "copeland", scores=tuple(scores))
