"""Reconfiguration engine: matching-based local repair and the baseline.

* :mod:`repro.reconfig.bipartite` — from-scratch maximum bipartite matching
  (Hopcroft-Karp, Kuhn, greedy) over the Figure 8 graph model;
* :mod:`repro.reconfig.local` — local reconfiguration of interstitial
  designs (the paper's proposal);
* :mod:`repro.reconfig.remap` — logical→physical coordinate translation for
  running assays on a repaired chip;
* :mod:`repro.reconfig.shifted` — the boundary-spare-row shifted
  replacement baseline (Figure 2) with cost accounting.
"""

from repro.reconfig.bipartite import (
    MATCHING_ALGORITHMS,
    BipartiteGraph,
    greedy_matching,
    hopcroft_karp,
    kuhn_matching,
    maximum_matching,
    saturates_left,
)
from repro.reconfig.local import (
    RepairPlan,
    build_repair_graph,
    plan_local_repair,
)
from repro.reconfig.remap import CellRemap
from repro.reconfig.shifted import (
    ShiftedPlan,
    plan_shifted_replacement,
    shifted_cost_by_fault_row,
)

__all__ = [
    "BipartiteGraph",
    "greedy_matching",
    "kuhn_matching",
    "hopcroft_karp",
    "maximum_matching",
    "saturates_left",
    "MATCHING_ALGORITHMS",
    "RepairPlan",
    "build_repair_graph",
    "plan_local_repair",
    "CellRemap",
    "ShiftedPlan",
    "plan_shifted_replacement",
    "shifted_cost_by_fault_row",
]
