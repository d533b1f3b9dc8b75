"""Ordinal facility assignment and social choice with distortion audits.

Mechanisms that see only agents' rankings plus the facility geometry,
together with exact audits of their worst-case cost ratio over every
metric consistent with that ordinal data.
"""

from .assignment import (Assignment, AssignmentProblem, ConstraintSet, CostSpec,
                         DistanceCost, PRESET_NAMES, build_preset,
                         distance_vector, reduce_and_solve, total_cost)
from .audit import (AuditReport, ConsistencyPolytope, audit_additive_assignment,
                    audit_percentile_social_choice, audit_sum_social_choice,
                    sample_consistent_metric)
from .core import (ConsistencyConstraintSet, FacilityDistances, FacilitySet,
                   FullMetric, MetricCheck, PreferenceProfile, ProjectedAgents,
                   check_consistency, consistency_constraints,
                   facility_distances, preferences_from_metric,
                   project_agents, shortest_path_completion,
                   validate_distance_matrix)
from .errors import (InternalInvariantError, InvalidCostError, MetricError,
                     OrdmechError, ProfileError, SchemaError, SearchSpaceError,
                     SolverError, UnboundedObjectiveError)
from .fileio import Scenario
from .gallery import (EXAMPLES, CheckResult, gen_worked_example,
                      verify_worked_example)
from .social_choice import (DistancePartialOrder, MajorityGraph,
                            SocialChoiceOutcome, augment_majority_edges,
                            copeland_winner, distance_partial_order,
                            evaluate_median_cost, evaluate_percentile_cost,
                            evaluate_sum_cost, majority_graph, median_winner,
                            sum_winner)
from .solvers import (SOLVERS, SolverResult, bottleneck_matching,
                      brute_force_optimal, facility_location_solver,
                      k_center_greedy, k_median_solver, min_cost_matching)

__version__ = "0.1.0"
