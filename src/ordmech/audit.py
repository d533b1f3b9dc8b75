"""Worst-case distortion audits over the consistent-metric closure.

Distortion of an outcome is the supremum, over all metrics consistent
with the ordinal data and the facility geometry, of its cost divided by
the best alternative's cost.  With positive costs that supremum equals
the maximum over alternatives of per-alternative ratio suprema.

Consistency constrains each agent's row independently, and agents with
the same ranking are interchangeable: averaging a feasible point over a
ranking class keeps it feasible and keeps the ratio, so the value is
exact while the work follows the number of classes, at most min(n, m!).
The same independence makes vanishing denominators combinatorial: an
agent can sit exactly on a facility iff that facility's distance row
respects its ranking.  Sum and percentile audits share one front end
(_social_choice): each facility y other than the winner reads 1 when
co-located with it, infinite when as many agents as the denominator
needs seated (n for a sum, k for a k-th smallest distance) can sit on y
away from the winner, and is solved otherwise.  An assignment audit
screens its family the same way.  Only the maximizer's witness is built.
Zero means exactly 0: these tests compare input numbers or their sums,
never with a threshold, so no value depends on the unit of length, and a
ratio beyond what a float64 witness reaches raises (_finalize).

A ranking's rows are unit two-variable inequalities, so shortest paths,
in one stacked pass over the distinct rankings in chunks within BLOCK
elements (_closure), give every bound on one distance, or on the sum or
difference of two, exactly, in two m x m blocks, and any values within
those bounds extend to a full consistent row: the greatest one, read off
the fixed facilities' columns of G (_greatest_rows).  A sum or
assignment ratio reads a class's distances to its own facility and to
the one it takes: per facility an octagon of tight closure rows, whose
best point is a vertex in closed form (_octagon_points).  A sum audit
pits one vertex per class against each other facility, so its ratio is
one quotient of two sums (_sum_pairs).  An assignment audit maximizes the
ratio over all matchings or all open sets of facilities by Dinkelbach's
parametric method (_dinkelbach), whose best member per step is one exact
solve.  Each also certifies an upper bound that the report carries too.

Percentile objectives are piecewise linear: which agents realize the two
order statistics is a subset choice, but per-agent independence collapses
the search to one candidate configuration per ranking class, whose value
has a closed form in two closure entries of the one or two agents that
bind it (_percentile_candidates, for every alternative at once).  Each
entry is the length of a shortest path of ranking rows, so relaxing
paths from one source over the raw rows, stacked (_path_bounds), re-derives
it and certifies an upper bound on the value, and the maximizer's witness,
built from the closure alone, attains the value from below.  No audit
solves an LP.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .assignment import AssignmentProblem, DistanceCost, total_cost
from .core import (BLOCK, FacilityDistances, FullMetric, PreferenceProfile, _keeps_rankings,
                   check_consistency, consistency_constraints)
from .errors import (InternalInvariantError, MetricError, SearchSpaceError,
                     SolverError, UnboundedObjectiveError)
from .lp import solve_lp
from .social_choice import percentile_rank
from .solvers import KMEDIAN_EXACT_CAP, _subset_minima, min_cost_matching

INF = float("inf")


@dataclass(frozen=True)
class AuditReport:
    """Worst-case ratio with a consistent witness metric attaining it."""

    objective: str
    target: object                      # facility index or assignment tuple
    value: float
    exact: bool                         # every audit path is exact
    per_alternative: tuple[tuple[object, float], ...]
    witness: FullMetric | None
    witness_ratio: float | None
    alpha: float | None = None
    flags: tuple[str, ...] = ()
    certified_upper: float | None = None  # a certified upper bound on value

    def alternative_value(self, key) -> float:
        for alt, val in self.per_alternative:
            if alt == key:
                return val
        raise KeyError(key)


class ConsistencyPolytope:
    """The consistent-metric closure per distinct ranking: its raw row
    bounds (raw), their closure (_closure) and who can sit on which
    facility, read exactly off the facility distances.  Per ranking r,
    G[r, f, g] bounds d(f) - d(g) and S[r, f, g] -(d(f) + d(g)).  The
    rankings share the pair rows and differ in their chain rows, so the
    pair rows are kept once and the chain per ranking, and one stacked
    pass closes every ranking in place, in chunks within BLOCK."""

    profile = property(lambda self: self._of[0]())  # both held by weak reference (_polytope)
    fd = property(lambda self: self._of[1]())

    def __init__(self, profile: PreferenceProfile, fd: FacilityDistances):
        if profile.m != fd.m:
            raise MetricError("profile and facility distances disagree on m")
        self._of, self.n, self.m = (weakref.ref(profile), weakref.ref(fd)), profile.n, profile.m
        m, l, R = profile.m, fd.values, len(profile.class_array)
        self.radius = float(top) if (top := l.max()) > 0 else 1.0
        self.ranking_id = profile.class_of  # distinct rankings, in order of first appearance
        # an agent per ranking: its first, where the running maximum of ranking_id steps up
        self.first = np.maximum.accumulate(self.ranking_id).searchsorted(np.arange(R))
        self.before, self.after = profile.before, profile.after  # chain rows per ranking
        # and once the rows all rankings share (core.pair_rows): l(f, g) for f < g
        # both ways, bounding |d(f) - d(g)| by l and -(d(f) + d(g)) by -l
        u = np.where(np.arange(m)[:, None] < np.arange(m), l, 0.0)  # l above the diagonal
        self.l = u + u.T
        step = max(1, BLOCK // (2 * m * m))
        self.G, self.S, sit = np.empty((R, m, m)), np.empty((R, m, m)), np.empty((R, m), bool)
        self.G[...], self.S[...] = self.l, 0.0 - self.l  # the raw rows (raw), in place
        self.G[np.arange(R)[:, None], self.before, self.after] = 0.0
        for lo in range(0, R, step):
            part = slice(lo, lo + step)
            _closure(self.G[part], self.S[part])
            # one may sit on facility f iff l(f, .) never falls along the chain
            sit[part] = (self.l[:, self.before[part]] <= self.l[:, self.after[part]]).all(axis=2).T
        self.can_sit = sit[self.ranking_id]  # n x m

    def raw(self, rankings) -> tuple[np.ndarray, np.ndarray]:
        """Per ranking of ``rankings`` (indices or a slice), the least bound
        one of its rows puts on each d(f) - d(g) and -(d(f) + d(g)), as G and
        S: 0 on G's diagonal and chain rows, and on S's diagonal (d >= 0); S,
        the same for every ranking, comes once, as 1 x m x m."""
        G = self.l[None].repeat(len(self.before[rankings]), axis=0)
        G[np.arange(len(G))[:, None], self.before[rankings], self.after[rankings]] = 0.0
        return G, (0.0 - self.l)[None]  # 0.0 keeps zeros unsigned

    def min_agent_distance(self, agents, f) -> np.ndarray:
        """Smallest consistent d(i, f) of each of ``agents``, broadcast against f."""
        low = np.maximum(-self.S[self.ranking_id[agents], f, f] / 2, 0.0)
        return np.where(self.can_sit[agents, f], 0.0, low)

    def interior_metric(self) -> np.ndarray:
        """All agents equally far from everything: consistent with every
        profile and strictly inside the pair constraints."""
        return np.full((self.n, self.m), self.radius)


_last: list = [None]  # weak references to a profile and an fd, and their polytope


def _polytope(profile: PreferenceProfile, fd: FacilityDistances) -> ConsistencyPolytope:
    """The polytope of ``profile`` and ``fd``: the last one built if both are the same objects,
    which are immutable, else a new one; the slot empties when either object is freed."""
    if (last := _last[0]) is None or last[0]() is not profile or last[1]() is not fd:
        last = _last[0] = None  # the last closure goes before the next is built
        refs = [weakref.ref(obj, lambda _: _last.__setitem__(0, None)) for obj in (profile, fd)]
        last = _last[0] = (*refs, ConsistencyPolytope(profile, fd))
    return last[2]


def _closure(G: np.ndarray, S: np.ndarray):
    """Close in place feasible systems of rows with two +-1 coefficients
    that bound no d(f) + d(g) from above: G and S stack per system the least
    row bounds on each d(f) - d(g) and -(d(f) + d(g)) (as from
    ConsistencyPolytope.raw), then their least upper bounds.  With v[2a] =
    d(a), v[2a + 1] = -d(a), they are the v[2f] - v[2g] and v[2f + 1] - v[2g]
    quarters of an octagon's closure (Mine, 2006; exact over the reals),
    whose others stay inf and G transposed: pivot j is its pivots 2j and 2j
    + 1 on the same operands in the same order (G[j, j] = 0 keeps G's row
    and column j), and one halving step follows."""
    for j in range(G.shape[1]):
        np.minimum(G, G[:, :, j, None] + G[:, None, j, :], out=G)
        np.minimum(S, S[:, :, j, None] + G[:, None, j, :], out=S)
        np.minimum(S, G[:, j, :, None] + S[:, None, j, :], out=S)
    half = np.diagonal(S, axis1=1, axis2=2) / 2  # -(d(f) + d(f)) = -2 d(f)
    np.minimum(S, half[:, :, None] + half[:, None, :], out=S)


def _path_bounds(poly: ConsistencyPolytope, agents, f, g, neg) -> np.ndarray:
    """Per aligned entry of ``agents``, ``f``, ``g`` and ``neg``: entry [f,
    g] of S (where ``neg``), else of G, of the agent's ranking's closure,
    re-derived from its raw rows (ConsistencyPolytope.raw) as the least sum
    of rows along a path from -d(f) (else d(f)) to d(g), by Bellman-Ford
    rounds: a bound that holds whatever the closure says, and one that the
    halving step leaves as it is.  The entries relax as one stack, in chunks
    whose temporaries keep within BLOCK elements (or one entry).  Raises at
    the first entry not within a relative 1e-9 of the closure's, relative
    to at least the largest facility distance (the polytope's radius)."""
    r, found, step = poly.ranking_id[agents], np.empty(len(f)), max(1, BLOCK // poly.m ** 2)
    for lo in range(0, len(r), step):
        s, at = slice(lo, lo + step), np.arange(len(r[lo:lo + step]))
        G, S = poly.raw(r[s])
        # least sums along paths from -d(f) to each -d(a), by rows of G transposed,
        # on by one row of S to each d(a), then by rows of G; from d(f), by rows of
        # G alone.  No row is negative, so rounded sums are least on simple paths, of
        # fewer than m rows: m - 2 rounds extend one row to them, m - 1 the S row.
        D = np.where(neg[s, None], G[at, :, f[s]], INF)
        for _ in range(poly.m - 2):
            D = np.minimum(D, (D[:, None, :] + G).min(axis=2))
        D = np.where(neg[s, None], (D[..., None] + S).min(axis=1), G[at, f[s]])
        for _ in range(poly.m - 1):
            D = np.minimum(D, (D[..., None] + G).min(axis=1))
        found[s] = D[at, g[s]]
    entry = np.where(neg, poly.S[r, f, g], poly.G[r, f, g])
    for e in (~(abs(found - entry) <= 1e-9 * np.maximum(poly.radius, abs(entry)))).nonzero()[0]:
        raise InternalInvariantError(f"closure entry {'S' if neg[e] else 'G'}[{f[e]}, {g[e]}] is "
                                     f"{entry[e]}, but its paths of rows give {found[e]}")
    return found


def _greatest_rows(poly: ConsistencyPolytope, r, fixed) -> np.ndarray:
    """Per ranking of ``r``, the greatest consistent row whose coordinates f
    of the (f, u) pairs in ``fixed`` (broadcast against r) take the values
    u, a point of the ranking's closure: x(a) = min over f of u_f + G[a, f],
    one column of G per fixed facility.  Each of those bounds holds on any
    such row, and x is one: differences hold, as G[a, f] <= G[a, b] + G[b,
    f] in a closure; sums hold, as the closure bounds none from above and a
    consistent point P with the fixed values has P <= x entrywise, so x(a)
    + x(b) >= P(a) + P(b) >= -S[a, b]; and the fixed coordinates keep their
    values, as G[f, f] = 0 and u_f - u_g <= G[f, g]."""
    return reduce(np.minimum, [np.asarray(u, dtype=float)[..., None] + poly.G[r, :, f]
                               for f, u in fixed])


def _ratio(num, den) -> np.ndarray:
    """num / den of one shape elementwise, where a vanishing denominator
    (<= 0) reads as an infinite ratio, or as 1 when the numerator vanishes too."""
    return np.divide(num, den, out=np.where(num > 0, INF, 1.0), where=den > 0)


def _lift(c, M) -> np.ndarray:
    """1 + max(c, 0) / M of one shape elementwise, infinite where M <= 0."""
    return 1.0 + np.divide(np.maximum(c, 0.0), M, out=np.full(np.shape(M), INF), where=M > 0)


def _at_most(lo: float | None, hi: float) -> bool:
    """lo <= hi within a relative 1e-9 (an absent lo passes)."""
    return lo is None or lo <= hi + 1e-9 * abs(hi)


def _metric_from_values(values, fd: FacilityDistances, label: str) -> FullMetric:
    """A FullMetric from an optimum's rows, clipped at zero; rows that are
    not a metric are an internal fault."""
    try:
        return FullMetric(np.maximum(np.asarray(values, dtype=float), 0.0), fd)
    except MetricError as exc:
        raise InternalInvariantError(f"{label} is not a metric: {exc}") from exc


class _Pairs(NamedTuple):
    """Per alternative: its ratio supremum, a certified upper bound, and
    ``witness(j)``, rows attaining value j or None (an infinite value has
    one iff its denominator vanishes, else its ratio is unbounded)."""

    value: np.ndarray
    upper: np.ndarray
    witness: Callable[[int], np.ndarray | None]


DINKELBACH_MAX_ITER = 100


def _octagon_points(poly: ConsistencyPolytope, r, f, g) -> tuple[np.ndarray, np.ndarray]:
    """Per class (ranking r, numerator facility f) and candidate g, the
    vertex (a, b) = (mu + c, mu) of its octagon over (d(f), d(g)) where
    the rows b >= mu and a - b <= c meet: mu = -S[g, g] / 2 >= 0 is the
    least d(g), c = G[f, g] <= l(f, g) the largest d(f) - d(g).  The
    closure makes every row tight, and for rho >= 1, (1, -rho) = (1, -1) +
    (rho - 1)(0, -1) lies in the vertex's normal cone: it maximizes a - rho b."""
    b = -poly.S[r[:, None], g, g] / 2
    return b + poly.G[r[:, None], f[:, None], g], b


def _dinkelbach(poly: ConsistencyPolytope, r, f, g, count: np.ndarray, family: np.ndarray,
                num_const: np.ndarray, choose):
    """Per family j, max (sum_c count_c a_c + num_const[j]) / (sum_c count_c
    b_c + den) over its classes c (family = j) and its alternatives, by
    Dinkelbach's parametric method with one rho per family: the one family
    of an assignment audit, all its matchings or open sets.  Class c, of
    ranking r and numerator facility f, has an octagon over (a, b) =
    (d(f), d(g)) per candidate g (classes x candidates): the projection of
    a closed system onto two coordinates is exactly its rows on them.  An
    alternative seats every class on a candidate at a constant den, and
    ``choose(w, rho)`` gives the seats and den (per family) of those that
    maximize sum_c count_c w[c, seat] - rho den, for w classes x candidates.

    A consistent row stays consistent when all its distances grow by the
    same amount, so each octagon is the convex hull of its vertices plus
    the ray (1, 1).  Along that ray |a - b| stays below l(f, g), so the
    ratio tends to exactly 1, and any mix of vertices and rays has a ratio
    between its vertex part's and 1: the value is the larger of 1 and the
    vertex maximum, and for rho >= 1 one vertex per octagon maximizes
    a - rho b (_octagon_points).  Starting from rho = 1, every step seats
    the classes by ``choose`` on a - rho b and moves rho to the ratio of
    the chosen points, read by _ratio, which strictly raises it until F(rho)
    = max sum_c count_c (a_c - rho b_c) + num_const - rho den vanishes; a
    stopped family keeps its rho and so its seats.
    F(rho) <= 0 is the LP dual's certificate that rho is an upper bound:
    every point has num - rho den <= F(rho), so with the family's least
    denominator den_lo (``choose`` on each class's least b, mu), rho +
    max(F(rho), 0) / den_lo is one, or rho itself where den_lo vanishes.
    A step to chosen points of zero denominator under a positive numerator
    reads infinite (_ratio).  Returns values, upper bounds, the
    last step's seats and ``point_rows(s)``: the chosen points of the
    classes in slice s, extended to their greatest rows (_greatest_rows)."""
    a, b = _octagon_points(poly, r, f, g)
    rows, size, rho = np.arange(len(count)), len(num_const), np.ones(len(num_const))
    for _ in range(DINKELBACH_MAX_ITER):
        seat, den_const = choose(a - rho[family, None] * b, rho)
        a_at, b_at = a[rows, seat], b[rows, seat]
        num = np.bincount(family, count * a_at, size) + num_const
        den = np.bincount(family, count * b_at, size) + den_const
        gap = num - rho * den
        ratio = _ratio(num, den)
        # the last test catches rounding: no point improves on rho
        stop = (gap <= 1e-13 * (abs(num) + rho * abs(den))) | (ratio <= rho)
        unbounded = ~stop & np.isinf(ratio)
        if (stop | unbounded).all():
            break
        rho = np.where(stop | unbounded, rho, ratio)
    else:
        raise InternalInvariantError("Dinkelbach's method did not converge")
    low_seat, low_const = choose(-b, np.ones(size))
    den_lo = np.bincount(family, count * b[rows, low_seat], size) + low_const
    upper = rho + np.maximum(gap, 0.0) / np.where(den_lo > 0, den_lo, INF)
    q = g[rows, seat]

    def point_rows(s: slice) -> np.ndarray:
        return _greatest_rows(poly, r[s], ((f[s], a_at[s]), (q[s], b_at[s])))

    return np.where(unbounded, INF, rho), np.where(unbounded, INF, upper), seat, point_rows


def _finalize(poly: ConsistencyPolytope, objective: str, target, keys: list,
              pairs: _Pairs, alpha: float | None, recompute) -> AuditReport:
    """Assemble the report: pick the maximizing alternative, build its
    witness alone, and re-evaluate the ratio on the witness.  Every outcome
    carries a certified upper bound: the witness's ratio, the value and the
    largest bound must come in that order, the witness must reach the
    value, and the bound must match it, each within a relative 1e-9."""
    top = int(pairs.value.argmax()) if len(pairs.value) else -1
    top = top if top >= 0 and pairs.value[top] > 1.0 else -1  # -1: none exceeds 1
    best = float(pairs.value[top]) if top >= 0 else 1.0
    rows, flags = pairs.witness(top) if top >= 0 else None, ()
    if math.isinf(best):
        flags = ("unbounded_ratio" if rows is None else "denominator_vanishes",)
    elif rows is None:  # distortion 1: any consistent point certifies the value
        rows = poly.interior_metric()
    witness = witness_ratio = None
    if rows is not None:
        witness = _metric_from_values(rows, poly.fd, "witness")
        witness_ratio = recompute(witness)
        # at the geometry's unit (2^-e is exact), where 1 + |d| swamps no distance
        unit = np.ldexp(witness.distances, -math.frexp(float(poly.fd.values.max()))[1])
        if not _keeps_rankings(poly.profile, unit, 1e-7):
            raise InternalInvariantError("audit witness is not consistent")
    upper = float(pairs.upper.max(initial=1.0))
    # each at most the next within 1e-9: witness ratio <= value <= bound <= value <= witness ratio
    chain = [witness_ratio, best, upper, best, best if witness_ratio is None else witness_ratio]
    if not all(map(_at_most, chain, chain[1:])):
        raise InternalInvariantError(
            f"witness ratio {witness_ratio}, value {best} and certified upper "
            f"bound {upper} are out of order")
    per_alt = tuple(zip(keys, pairs.value.tolist()))
    return AuditReport(objective, target, best, True, per_alt, witness,
                       witness_ratio, alpha, flags, upper)


def _social_choice(poly: ConsistencyPolytope, objective: str, winner, seated: int, solve,
                   alpha: float | None, recompute) -> AuditReport:
    """The report of ``winner`` against each other facility y, in order.
    Co-located with the winner (at distance 0), y reads 1.  Else, if
    ``seated`` agents (n for a sum, k for a k-th smallest distance) can sit
    on y, their distances to the winner stay l(y, winner) > 0: y's
    denominator vanishes under a positive numerator and y reads infinite,
    witnessed by seating the first ``seated`` there and the rest far away.
    The other alternatives ys come from ``solve(ys)``."""
    if (type(winner) is bool or not isinstance(winner, (int, np.integer))
            or not 0 <= winner < poly.m):
        raise SolverError(f"winner {winner!r} is not a facility index below m = {poly.m}")
    l, others = poly.l, (np.arange(poly.m) != winner).nonzero()[0]
    one, can = l[winner, others] <= 0, poly.can_sit[:, others].sum(axis=0)
    infinite = ~one & (can >= seated)
    todo = (~infinite & ~one).nonzero()[0]
    part = solve(others[todo])
    value, upper = np.where(infinite, INF, 1.0), np.where(infinite, INF, 1.0)
    value[todo], upper[todo] = part.value, part.upper
    slot = dict(zip(todo.tolist(), range(len(todo))))

    def witness(j: int) -> np.ndarray | None:
        if infinite[j]:
            d = poly.interior_metric()
            d[poly.can_sit[:, others[j]].nonzero()[0][:seated]] = l[others[j]]
            return d
        return part.witness(slot[j]) if j in slot else None

    return _finalize(poly, objective, winner, others.tolist(), _Pairs(value, upper, witness),
                     alpha, recompute)


def _sum_pairs(poly: ConsistencyPolytope, ys: np.ndarray, winner: int) -> _Pairs:
    """Per y in ``ys``, sup sum_i d(i, winner) / sum_i d(i, y), classes the
    distinct rankings: Dinkelbach's run (_dinkelbach) in closed form, as each
    class has one vertex.  From rho = 1 it stops at once where the ratio of
    the vertex sums num / den (_ratio) gains nothing (ratio <= 1, or num -
    den within a relative 1e-13); else rho moves to that ratio, which is the
    value even when infinite, and the next step stops.  It certifies rho +
    max(num - rho den, 0) / den, or rho where den vanishes."""
    R, count = len(poly.G), np.bincount(poly.ranking_id)[:, None]
    a, b = _octagon_points(poly, np.arange(R), np.array([winner]), ys[None, :])
    # each sum adds its classes first to last, as np.bincount does (a numpy sum down
    # one column of 8 or more pairs them); only a zero sum's sign, read nowhere, differs
    num, den = (np.add.accumulate(count * v)[-1] for v in (a, b))
    ratio = _ratio(num, den)
    stop = (num - den <= 1e-13 * (abs(num) + abs(den))) | (ratio <= 1)
    rho = np.where(stop | np.isinf(ratio), 1.0, ratio)
    upper = rho + np.maximum(num - rho * den, 0.0) / np.where(den > 0, den, INF)
    value, upper = (np.where(~stop & np.isinf(ratio), INF, v) for v in (rho, upper))
    return _Pairs(value, upper, lambda j: None if math.isinf(value[j]) else _greatest_rows(
        poly, np.arange(R), ((winner, a[:, j]), (ys[j], b[:, j])))[poly.ranking_id])


def audit_sum_social_choice(winner: int, profile: PreferenceProfile,
                            fd: FacilityDistances) -> AuditReport:
    """Exact worst-case total-cost distortion of ``winner``: the ratio
    against each other facility as the one open set, a family of its own."""
    poly = _polytope(profile, fd)

    def recompute(metric: FullMetric) -> float:
        cols = metric.distances.sum(axis=0)
        return float(_ratio(cols[winner], cols.min()))

    return _social_choice(poly, "sum", winner, poly.n, lambda ys: _sum_pairs(poly, ys, winner),
                          None, recompute)


def audit_additive_assignment(x, profile: PreferenceProfile,
                              fd: FacilityDistances, problem: AssignmentProblem) -> AuditReport:
    """Exact worst-case distortion of assignment ``x``, for additive distance
    cost and constant facility costs, against one family of alternatives:
    every matching under the matching rule, else every open set S, each
    agent on any facility of S, at the opening costs of the facilities used.
    An assignment opens at most n facilities, and a superset never lowers
    the ratio without opening costs, so the sets are those of min(bound, m,
    n) facilities, else of every size up to that.  More sets than the exact
    k-median solver takes (KMEDIAN_EXACT_CAP) are refused up front, as the
    facility location solver leaves that many for its greedy (m > 16).

    Classes group agents by ranking and facility in x; one Dinkelbach rho
    serves the family, whose best member per step is one exact solve on -w
    (_dinkelbach): prefix minima over the open sets, plus rho times the
    opening costs as solvers._near_minimal adds them, or a minimum-cost
    matching.  A denominator vanishes iff every agent can sit on a free
    facility of the alternative.  The same solve, on the distances of the
    free facilities each class may sit on to its facility in x, and a
    penalty above their sum elsewhere, finds the vanishing seating of
    largest numerator; the value is infinite when that is positive.
    The report lists the maximizer alone."""
    if problem.cost_spec.distance_cost is not DistanceCost.SUM:
        raise SolverError("assignment audits need the additive distance cost")
    x = tuple(x)
    if len(x) != profile.n:
        raise SolverError("assignment length does not match the agent count")
    if not problem.constraints.is_valid(x):
        raise SolverError("audited assignment violates the constraints")
    n, m, cons, spec = profile.n, fd.m, problem.constraints, problem.cost_spec
    bound = min(cons.at_most_open or m, m, n)
    opening = np.zeros(m) if spec.opening_costs is None else np.array(spec.opening_costs)
    sizes = range(1, bound + 1) if opening.any() else (bound,)
    sets = sum(math.comb(m, s) for s in sizes)
    if not cons.one_per_facility and sets > KMEDIAN_EXACT_CAP:
        raise SearchSpaceError(f"more than {KMEDIAN_EXACT_CAP} open sets to audit: {sets}")
    poly = _polytope(profile, fd)
    _, cls, member, count = np.unique(poly.ranking_id * m + np.array(x), return_index=True,
                                      return_inverse=True, return_counts=True)
    rows, f, num_const = np.arange(len(cls)), np.array(x)[cls], spec.facility_cost(x)

    def choose(w: np.ndarray, rho: np.ndarray):
        if cons.one_per_facility:  # x is injective: each class is one agent
            cost = np.zeros((m, m))  # a facility's opening cost goes with its one agent
            cost[:n] = rho * opening - w[member]
            y = np.array(min_cost_matching(cost).assignment[:n])
            return y[cls], spec.facility_cost(y)
        least, best = INF, None
        for _, low, arg in _subset_minima(-w, sizes):
            used = spec.facility_cost(arg)  # the opening costs of the facilities seated on
            cost = low @ count + rho * used
            j = int(np.argmin(cost))  # the first least; earlier chunks win ties
            if cost[j] < least:
                least, best = cost[j], (arg[j].astype(np.intp), used[j])
        return best

    far, free = poly.l[:, f].T, poly.can_sit[cls] & (opening == 0)  # classes x m
    seat = (choose(np.where(free, far, -1.0 - 2.0 * n * poly.radius), np.zeros(1))[0]
            if free.any(axis=1).all() else None)  # a seating of largest numerator, if free
    if seat is not None and free[rows, seat].all() and num_const + far[rows, seat] @ count > 0:
        pairs = _Pairs(np.array([INF]), np.array([INF]), lambda j: poly.l[seat[member]])
    else:
        value, upper, seat, point_rows = _dinkelbach(
            poly, poly.ranking_id[cls], f, np.arange(m)[None].repeat(len(cls), axis=0), count,
            np.zeros(len(cls), np.intp), np.array([num_const]), choose)
        pairs = _Pairs(value, upper, lambda j: None if math.isinf(value[0])
                       else point_rows(slice(None))[member])

    def recompute(metric: FullMetric) -> float:
        d = metric.distances
        if cons.one_per_facility:  # a facility's opening cost goes with its one agent
            best = min_cost_matching(np.vstack([d + opening, np.zeros((m - n, m))])).value
        else:
            best = min(float((low.sum(axis=1) + opening[S].sum(axis=1)).min())
                       for S, low, _ in _subset_minima(d, sizes))
        return float(_ratio(total_cost(x, d, spec), best))

    return _finalize(poly, "assignment_sum", x, [tuple(seat[member].tolist())], pairs, None,
                     recompute)


def _percentile_candidates(poly: ConsistencyPolytope, xs: np.ndarray, w: int, k: int):
    """Per x in ``xs``, the best candidate (S, T) configuration for x
    against w: its value, the agents j and cap that bind it (cap sets M),
    its M and c, and ``subset(t)``, the S of column t with j first.

    S pins the denominator's k-th order statistic from above, T floors the
    numerator's from below.  The closure constrains each agent's row
    independently, so at a fixed scale only agents in both subsets tie the
    two statistics together; an agent in T alone can always drift far away
    and never binds.  Hence an optimal configuration overlaps in a single
    agent j, and for fixed j the best S adds the k-1 other agents whose
    smallest consistent distance to x is lowest, because each member of S
    caps the usable scale at one over that distance, and T is j plus every
    agent outside S.  That leaves one candidate per agent (one per ranking
    class, by symmetry); ties go to the first class within a relative 1e-9
    of the best value.

    Its value follows: with M the largest of those smallest distances over
    S and c the largest consistent d(j, w) - d(j, x), agent j can sit at
    d(j, x) = M, d(j, w) = M + c, so the value is 1 + max(c, 0) / M.  Only
    j and the member of S that sets M bind, so the configuration restricted
    to those one or two agents has the same value.  One pass reads every x:
    agents x xs smallest distances, each column in stable order."""
    first, cols = poly.first, np.arange(len(xs))
    mu = poly.min_agent_distance(np.arange(poly.n)[:, None], xs)
    order = mu.argsort(axis=0, kind="stable")
    # cap = S[argmax(mu[S])] for S = j, then the k-1 others lowest in
    # ``order``, read off the order: the last of those others is order[k-1]
    # when j is among the first k-1, else order[k-2].  The first maximum in
    # S is j when j reaches that value, else the first agent at that value.
    cap = first[:, None].repeat(len(xs), axis=1)
    if k > 1:
        rank = np.empty_like(order)
        rank[order, cols] = np.arange(poly.n)[:, None]
        ordered = mu[order, cols]
        cap_mu = np.where(rank[first] < k - 1, ordered[k - 1], ordered[k - 2])
        first_at = np.empty_like(cap)
        for t in cols.tolist():  # per column: comparing all at once takes classes x n x xs
            first_at[:, t] = order[ordered[:, t].searchsorted(cap_mu[:, t]), t]
        cap = np.where(mu[first] >= cap_mu, cap, first_at)
    gap, low = np.maximum(poly.G[:, w, xs], 0.0), mu[cap, cols]  # G[r]: first[r]'s ranking
    values = _lift(gap, low)
    top = values.max(axis=0)
    best = (values >= top - np.where(np.isinf(top), 0.0, 1e-9 * np.maximum(1.0, top))).argmax(0)
    j = first[best]
    return (values[best, cols], j, cap[best, cols], low[best, cols], gap[best, cols],
            lambda t: np.concatenate((j[t, None], order[order[:, t] != j[t], t][:k - 1])))


def _percentile_pairs(poly: ConsistencyPolytope, xs: np.ndarray, w: int, k: int) -> _Pairs:
    """Per x in ``xs``, the value of x against w, from the best candidate
    configuration (see _percentile_candidates), with an upper bound
    re-derived from the raw ranking rows: the closure entries behind M (of
    the agent that sets it) and behind c (of agent j) of every x of finite
    value are re-derived from paths of rows in one stack (_path_bounds),
    and 1 + max(c, 0) / M over those bounds the value.  A vanishing M reads
    as an infinite value."""
    value, j, cap, M, c, subset = _percentile_candidates(poly, xs, w, k)
    t = np.isfinite(value).nonzero()[0]  # per x, M = S[x, x] of cap (f == g), c = G[w, x] of j
    f, g = np.array([xs[t], np.full(len(t), w)]).T.ravel(), xs[t].repeat(2)
    sums = _path_bounds(poly, np.array([cap[t], j[t]]).T.ravel(), f, g, f == g).reshape(-1, 2)
    upper = np.full(len(xs), INF)
    upper[t] = _lift(sums[:, 1], -sums[:, 0] / 2)
    return _Pairs(value, upper, lambda i: None if math.isinf(value[i]) else _percentile_witness(
        poly, int(xs[i]), w, subset(i), int(j[i]), int(cap[i]), float(M[i]), float(c[i])))


def _percentile_witness(poly: ConsistencyPolytope, x: int, w: int, S: np.ndarray, j: int,
                        cap: int, M: float, c: float) -> np.ndarray:
    """Rows attaining 1 + c / M for x against w, from the closure alone
    (_greatest_rows: only the distances named here are fixed).

    Agent j sits at d(j, x) = M, d(j, w) = M + c, and the agent cap that
    sets M, if another, at d(cap, x) = M.  The rest of S sits at its
    smallest consistent distance to x, at most M, so x's k-th smallest
    distance is at most M.  Agents outside S sit equidistant from every
    facility at max(radius, M + c), which fits any ranking, so w's k-th
    smallest distance is at least M + c and the ratio reaches the value."""
    rid, d = poly.ranking_id, np.full((poly.n, poly.m), max(poly.radius, M + c))
    rest = S[(S != j) & (S != cap)]
    d[rest] = _greatest_rows(poly, rid[rest], ((x, poly.min_agent_distance(rest, x)),))
    d[cap] = _greatest_rows(poly, rid[cap], ((x, M),))
    d[j] = _greatest_rows(poly, rid[j], ((x, M), (w, M + c)))
    return d


def audit_percentile_social_choice(winner: int, profile: PreferenceProfile,
                                   fd: FacilityDistances,
                                   alpha: float) -> AuditReport:
    """Exact worst-case percentile-cost distortion: per alternative, the
    best candidate order-statistic configuration in closed form, with an
    upper bound certified by paths of ranking rows, and for the maximizing
    alternative a witness built from the closure that reaches the value."""
    if alpha < 0.5 - 1e-12:
        raise UnboundedObjectiveError(
            f"alpha = {alpha} below one half has unbounded worst-case "
            "distortion; the audit refuses rather than report a number")
    if not alpha <= 1.0:  # NaN fails every comparison
        raise UnboundedObjectiveError(f"alpha must lie in [0.5, 1], got {alpha}")
    poly = _polytope(profile, fd)
    k = percentile_rank(poly.n, alpha)

    def recompute(metric: FullMetric) -> float:
        cost = np.sort(metric.distances, axis=0)[k - 1]  # each facility's k-th smallest distance
        return float(_ratio(cost[winner], cost.min()))

    return _social_choice(poly, "percentile", winner, k,
                          lambda ys: _percentile_pairs(poly, ys, winner, k), alpha, recompute)


def sample_consistent_metric(profile: PreferenceProfile, fd: FacilityDistances,
                             seed: int) -> FullMetric:
    """A deterministic point of the consistent closure: optimize a seeded
    random direction over the polytope, boxed to keep every direction
    bounded.  The audits never sample; tests use this as an oracle."""
    cons = consistency_constraints(profile, fd)
    upper = 3.0 * (float(fd.values.max()) + 1.0)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, cons.nvars)
    res = solve_lp(c, np.vstack([cons.A, np.eye(cons.nvars)]),
                   np.concatenate([cons.b, np.full(cons.nvars, upper)]))
    if not res.optimal:
        raise InternalInvariantError(
            "consistency polytope reported infeasible while sampling")
    metric = _metric_from_values(res.x.reshape(profile.n, profile.m), fd, "sample")
    if not check_consistency(profile, metric, tol=1e-7):
        raise InternalInvariantError("sampled metric is not consistent")
    return metric
