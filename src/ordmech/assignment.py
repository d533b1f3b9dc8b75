"""General facility-assignment problems: constraints, costs, reduction.

An assignment maps every agent to a facility subject to two
metric-independent rules: a bound on the facilities it opens and, for
matchings, at most one agent per facility.  Its cost is a monotone
subadditive functional of the agent-facility distances plus a facility
cost that depends on the assignment alone.  The reduction solves the fully
known projected problem (agents moved to their top choices) and reuses
that assignment, inheriting a 1 + 2*beta worst-case guarantee from a
beta-approximate projected solver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import FacilityDistances, FacilitySet, PreferenceProfile, project_agents
from .errors import InvalidCostError, SolverError

if TYPE_CHECKING:
    from .solvers import SolverResult

Assignment = tuple[int, ...]


class DistanceCost(enum.Enum):
    """Supported distance-cost functionals; both are monotone nondecreasing
    and subadditive.  A median functional is deliberately absent: it is not
    subadditive and carries no worst-case guarantee in this framework."""

    SUM = "sum"
    MAX = "max"

    def evaluate(self, s: np.ndarray):
        """The cost of a distance vector, or of each row of a stack of them."""
        if self is DistanceCost.SUM:
            return np.sum(s, axis=-1)
        return np.max(s, axis=-1, initial=0.0)

    @classmethod
    def parse(cls, name: str) -> "DistanceCost":
        try:
            return cls(name.lower())
        except ValueError:
            raise InvalidCostError(
                f"unsupported distance cost {name!r}; choose from "
                f"{[c.value for c in cls]} (median is not subadditive)") from None


@dataclass(frozen=True)
class CostSpec:
    distance_cost: DistanceCost
    opening_costs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.opening_costs is not None and any(c < 0 for c in self.opening_costs):
            raise InvalidCostError("opening costs must be nonnegative")

    def facility_cost(self, x) -> float | np.ndarray:
        """Opening costs of the facilities x uses, added in facility order;
        one per row of a stack of assignments."""
        x = np.asarray(x)
        total = np.zeros(x.shape[:-1])
        if self.opening_costs is not None:
            used = np.zeros((*x.shape[:-1], len(self.opening_costs)), dtype=bool)
            np.put_along_axis(used, x, True, axis=-1)
            total = np.where(used, self.opening_costs, 0.0).cumsum(axis=-1)[..., -1]
        return total if x.ndim > 1 else float(total)


@dataclass(frozen=True)
class ConstraintSet:
    """Metric-independent validity rules for assignments: at most
    ``at_most_open`` facilities used (unbounded when None) and, with
    ``one_per_facility``, no two agents on one facility."""

    m: int
    at_most_open: int | None = None
    one_per_facility: bool = False

    def is_valid(self, x: Assignment) -> bool:
        # a facility index is an int or a numpy integer, never a bool, below m
        used = set(x)
        return (all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, x)))
                and all(0 <= f < self.m for f in used)
                and (not self.one_per_facility or len(used) == len(x))
                and (self.at_most_open is None or len(used) <= self.at_most_open))


@dataclass(frozen=True)
class AssignmentProblem:
    n: int
    facilities: FacilitySet
    constraints: ConstraintSet
    cost_spec: CostSpec
    preset: str | None = None

    def __post_init__(self):
        cons = self.constraints
        if cons.m != self.facilities.m:
            raise SolverError("constraints sized for a different facility count")
        # Feasibility in closed form: with n >= 1 agents, all on one facility
        # is valid unless the matching rule holds, which needs n facilities open.
        opened = self.n if cons.one_per_facility else 1
        bound = self.m if cons.at_most_open is None else min(self.m, cons.at_most_open)
        if self.n < 1 or opened > bound:
            raise SolverError("no valid assignment exists for this problem")

    @property
    def m(self) -> int:
        return self.facilities.m


def distance_vector(x: Assignment, distances: np.ndarray) -> np.ndarray:
    return np.asarray(distances, dtype=float)[np.arange(len(x)), np.asarray(x, dtype=np.intp)]


def total_cost(x: Assignment, distances: np.ndarray, spec: CostSpec) -> float:
    x = np.asarray(x, dtype=np.intp)
    cost = spec.distance_cost.evaluate(distance_vector(x, distances)) + spec.facility_cost(x)
    return float(cost)


def reduce_and_solve(problem: AssignmentProblem, profile: PreferenceProfile,
                     fd: FacilityDistances, solver) -> SolverResult:
    """Solve the projected problem with the given omniscient solver handle,
    called as ``solver(problem, project_agents(profile, fd))``, and reuse its
    assignment: valid by construction, worst-case cost within 1 + 2*beta of
    optimal on every consistent metric (facility cost within beta)."""
    if problem.n != profile.n:
        raise SolverError("problem and profile disagree on the agent count")
    result = solver(problem, project_agents(profile, fd))
    if not problem.constraints.is_valid(result.assignment):
        raise SolverError("solver returned an invalid assignment")
    return result


PRESET_NAMES = (
    "social_choice_sum",
    "social_choice_median",
    "matching_min_cost",
    "matching_egalitarian",
    "k_center",
    "k_median",
    "facility_location",
)


def build_preset(name: str, n: int, facilities: FacilitySet,
                 params: dict | None = None) -> AssignmentProblem:
    """Construct the assignment problem for a named preset.

    ``social_choice_median`` deliberately has no framework form (its
    objective is not subadditive); it is served by the augmented-majority
    mechanism instead.
    """
    params = dict(params or {})
    m = facilities.m
    if name == "social_choice_sum":
        constraints = ConstraintSet(m, at_most_open=1)
        spec = CostSpec(DistanceCost.SUM)
    elif name == "social_choice_median":
        raise InvalidCostError(
            "the median objective is not subadditive and has no assignment-"
            "framework form; use the augmented-majority mechanism")
    elif name in ("matching_min_cost", "matching_egalitarian"):
        if n != m:
            raise SolverError(f"{name} needs equally many agents and facilities")
        constraints = ConstraintSet(m, one_per_facility=True)
        cost = DistanceCost.SUM if name == "matching_min_cost" else DistanceCost.MAX
        spec = CostSpec(cost)
    elif name in ("k_center", "k_median"):
        k = int(params.get("k", 1))
        if not 1 <= k <= m:
            raise SolverError(f"k must lie in [1, {m}], got {k}")
        constraints = ConstraintSet(m, at_most_open=k)
        cost = DistanceCost.MAX if name == "k_center" else DistanceCost.SUM
        spec = CostSpec(cost)
    elif name == "facility_location":
        costs = params.get("opening_costs")
        if costs is None or len(costs) != m:
            raise SolverError("facility_location needs one opening cost per facility")
        constraints = ConstraintSet(m)
        spec = CostSpec(DistanceCost.SUM, opening_costs=tuple(float(c) for c in costs))
    else:
        raise SolverError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return AssignmentProblem(n, facilities, constraints, spec, preset=name)
