"""Functional-yield subsystem: pluggable success criteria.

A *criterion* decides what counts as a successful run of the Monte-Carlo
yield simulation: the paper's bipartite-matching verdict
(:class:`MatchingCriterion`, the default), or the stricter functional
question — after remapping, does the assay still route and schedule?
(:class:`RoutingCriterion`, :class:`MultiplexedCriterion`).  Criteria
plug into the kernel's one sampling loop the way defect models do, on
the same spec grammar and digest (:mod:`repro.specs`), and are
vectorized through an exact screen funnel (:mod:`repro.functional.funnel`)
so the expensive fluidics stack only runs on the ambiguous residue.
"""

from repro.functional.criteria import (
    CriterionStats,
    MatchingCriterion,
    MultiplexedCriterion,
    RoutingCriterion,
    SuccessCriterion,
    available_criteria,
    criterion_from_spec,
)
from repro.functional.funnel import context_for, evaluate_functional
from repro.functional.sites import (
    multiplexed_endpoints,
    routing_sites,
    spread_primary_sites,
)

__all__ = [
    "CriterionStats",
    "SuccessCriterion",
    "MatchingCriterion",
    "RoutingCriterion",
    "MultiplexedCriterion",
    "available_criteria",
    "criterion_from_spec",
    "evaluate_functional",
    "context_for",
    "spread_primary_sites",
    "routing_sites",
    "multiplexed_endpoints",
]
