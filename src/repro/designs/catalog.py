"""The paper's catalog of defect-tolerant designs (Figures 3-6, Table 1).

Each design places spares on a periodic sublattice of the hexagonal array.
The congruences below are chosen so that the (s, p) adjacency properties of
Definition 1 hold exactly for all non-boundary cells; this is verified
empirically by :mod:`repro.designs.verify` and the structural test suite.

============  ======================  =======  ====
Design        spare congruence        density  RR
============  ======================  =======  ====
DTMB(1, 6)    q + 3r ≡ 0 (mod 7)      1/7      1/6
DTMB(2, 6)A   q ≡ 0 ∧ r ≡ 0 (mod 2)   1/4      1/3
DTMB(2, 6)B   q + 2r ≡ 0 (mod 4)      1/4      1/3
DTMB(3, 6)    q − r ≡ 0 (mod 3)       1/3      1/2
DTMB(4, 4)    q ≡ 0 (mod 2)           1/2      1
============  ======================  =======  ====

DTMB(1, 6) is the *perfect* pattern: the six neighbor offsets of the hex
lattice take all six nonzero residues of ``q + 3r (mod 7)``, so every
primary sees exactly one spare and the 7-cell "flowers" tile the plane —
this is what makes the paper's analytical cluster model exact on whole
flowers.  The paper's Figure 4 shows two distinct DTMB(2, 6) layouts; we
provide both (variants A and B).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from repro.designs.spec import DesignSpec
from repro.geometry.lattice import CongruenceLattice, IntersectionLattice

__all__ = [
    "DTMB_1_6",
    "DTMB_2_6",
    "DTMB_2_6_ALT",
    "DTMB_3_6",
    "DTMB_4_4",
    "ALL_DESIGNS",
    "TABLE1_DESIGNS",
    "table1_rows",
]


DTMB_1_6 = DesignSpec(
    name="DTMB(1,6)",
    s=1,
    p=6,
    spare_lattice=CongruenceLattice(a=1, b=3, m=7),
    description="perfect 7-cell flower code; one spare per primary (Figure 3)",
)

DTMB_2_6 = DesignSpec(
    name="DTMB(2,6)",
    s=2,
    p=6,
    spare_lattice=IntersectionLattice(
        [CongruenceLattice(a=1, b=0, m=2), CongruenceLattice(a=0, b=1, m=2)]
    ),
    description="two spares per primary, index-4 sublattice (Figure 4a)",
)

DTMB_2_6_ALT = DesignSpec(
    name="DTMB(2,6)alt",
    s=2,
    p=6,
    spare_lattice=CongruenceLattice(a=1, b=2, m=4),
    description="alternative DTMB(2,6) layout, same (s, p) (Figure 4b)",
)

DTMB_3_6 = DesignSpec(
    name="DTMB(3,6)",
    s=3,
    p=6,
    spare_lattice=CongruenceLattice(a=1, b=-1, m=3),
    description="three spares per primary (Figure 5)",
)

DTMB_4_4 = DesignSpec(
    name="DTMB(4,4)",
    s=4,
    p=4,
    spare_lattice=CongruenceLattice(a=1, b=0, m=2),
    description="alternating spare columns; 1:1 redundancy (Figure 6)",
)

#: Every design in the catalog, including the alternative DTMB(2,6) layout.
ALL_DESIGNS: Tuple[DesignSpec, ...] = (
    DTMB_1_6,
    DTMB_2_6,
    DTMB_2_6_ALT,
    DTMB_3_6,
    DTMB_4_4,
)

#: The four architectures of the paper's Table 1 (one DTMB(2,6) layout).
TABLE1_DESIGNS: Tuple[DesignSpec, ...] = (DTMB_1_6, DTMB_2_6, DTMB_3_6, DTMB_4_4)

def table1_rows() -> List[Tuple[str, Fraction]]:
    """``(design name, redundancy ratio)`` rows reproducing Table 1."""
    return [(d.name, d.redundancy_ratio) for d in TABLE1_DESIGNS]
