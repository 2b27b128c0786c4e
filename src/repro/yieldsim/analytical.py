"""Closed-form yield models (Section 6 of the paper).

Two architectures admit analytical treatment:

* **no redundancy** — the chip works iff every one of its ``n`` cells
  survives: ``Y = p**n``.  This gives the paper's headline baseline number:
  a 108-cell assay chip at p = 0.99 yields only 0.99**108 = 0.3378.
* **DTMB(1, 6)** — each primary is adjacent to exactly one spare, so spare
  assignment is trivial and the array decomposes into 7-cell "flowers"
  (one spare + its six primaries).  A flower survives iff at most one of
  its 7 cells fails::

      Yc = p**7 + 7 * p**6 * (1 - p)

  and with ``n`` primaries ≈ ``n/6`` independent flowers::

      Y = Yc ** (n / 6) = (p**7 + 7 p**6 (1-p)) ** (n/6)

  The paper presents this as the exact model for DTMB(1,6); it is exact
  when the array is a disjoint union of whole flowers and an excellent
  approximation otherwise (boundary-clipped flowers are slightly *more*
  likely to survive, so the model is mildly conservative — the Monte-Carlo
  cross-check in the test suite quantifies this).
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = [
    "yield_no_redundancy",
    "flower_yield",
    "dtmb16_yield",
]


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"survival probability must be in [0, 1], got {p}")


def yield_no_redundancy(p: float, n: int) -> float:
    """Yield of an ``n``-cell chip with no spares: every cell must survive."""
    _check_probability(p)
    if n < 0:
        raise SimulationError(f"cell count must be >= 0, got {n}")
    return p**n


def flower_yield(p: float) -> float:
    """Survival probability of one 7-cell DTMB(1,6) cluster.

    The flower tolerates at most one failed cell: either all 7 survive, or
    exactly one of the 7 fails (a failed primary is covered by the spare; a
    failed spare costs nothing while all primaries live).
    """
    _check_probability(p)
    q = 1.0 - p
    return p**7 + 7.0 * p**6 * q


def dtmb16_yield(p: float, n: int) -> float:
    """The paper's analytical DTMB(1,6) yield: ``flower_yield(p) ** (n/6)``.

    ``n`` is the number of *primary* cells; the exponent ``n/6`` counts
    flowers and need not be an integer (the paper applies the formula to
    arbitrary n).
    """
    _check_probability(p)
    if n < 0:
        raise SimulationError(f"primary count must be >= 0, got {n}")
    return flower_yield(p) ** (n / 6.0)

