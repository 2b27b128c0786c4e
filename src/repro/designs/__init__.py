"""Defect-tolerant array architectures.

* the DTMB(s, p) interstitial-redundancy catalog of Figures 3-6 / Table 1
  (:mod:`repro.designs.catalog`);
* builders that realize a design on a concrete footprint, including the
  exact-primary-count search used by the yield experiments
  (:mod:`repro.designs.interstitial`);
* structural verification of Definition 1 (:mod:`repro.designs.verify`);
* the boundary spare-row baseline of Figure 2 (:mod:`repro.designs.boundary`).
"""

from repro.designs.boundary import ModulePlacement, SpareRowArray
from repro.designs.catalog import (
    ALL_DESIGNS,
    DTMB_1_6,
    DTMB_2_6,
    DTMB_2_6_ALT,
    DTMB_3_6,
    DTMB_4_4,
    TABLE1_DESIGNS,
    table1_rows,
)
from repro.designs.interstitial import (
    FitResult,
    build_chip,
    build_flower_chip,
    build_with_primary_count,
)
from repro.designs.selector import (
    DesignRecommendation,
    recommend_design,
)
from repro.designs.spec import DesignSpec
from repro.designs.verify import StructureReport, inspect_structure, verify_design

__all__ = [
    "DesignSpec",
    "DTMB_1_6",
    "DTMB_2_6",
    "DTMB_2_6_ALT",
    "DTMB_3_6",
    "DTMB_4_4",
    "ALL_DESIGNS",
    "TABLE1_DESIGNS",
    "table1_rows",
    "build_chip",
    "build_with_primary_count",
    "build_flower_chip",
    "FitResult",
    "DesignRecommendation",
    "recommend_design",
    "verify_design",
    "inspect_structure",
    "StructureReport",
    "ModulePlacement",
    "SpareRowArray",
]
