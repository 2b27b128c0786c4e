"""Seeded fault injectors for yield simulation.

Two models cover the paper's assumptions:

* :class:`BernoulliInjector` — every cell fails independently with
  probability ``q = 1 - p``.  This is the paper's stated assumption
  ("the failures of the cells are independent ... valid for random and
  small spot defects").
* :class:`FixedCountInjector` — exactly ``m`` distinct cells fail, chosen
  uniformly; the model behind Figure 13 ("we randomly introduce m cell
  failures").

Both return an object-level :class:`~repro.faults.model.FaultMap` for one
chip instance (the Monte-Carlo engine samples survival matrices through
the vectorized models of :mod:`repro.yieldsim.defects` instead), drawn
from a ``numpy`` Generator so experiments are exactly reproducible from a
seed.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.chip.biochip import Biochip
from repro.errors import FaultModelError
from repro.faults.model import Fault, FaultKind, FaultMap

__all__ = [
    "make_rng",
    "BernoulliInjector",
    "FixedCountInjector",
    "CATASTROPHIC_KINDS",
]

#: The catastrophic mechanisms, with the relative frequencies used when an
#: injector needs to attribute a mechanism to a dead cell.  The yield model
#: only cares that the cell is dead; the attribution is for reporting.
CATASTROPHIC_KINDS = (
    FaultKind.DIELECTRIC_BREAKDOWN,
    FaultKind.ELECTRODE_SHORT,
    FaultKind.OPEN_CONNECTION,
)

_DEFAULT_KIND_WEIGHTS = (0.3, 0.3, 0.4)

RngLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Normalize a seed into a Generator.

    Accepts an int, an existing ``Generator`` (passed through), a
    ``SeedSequence`` (consumed directly, matching the engine's
    ``SeedSequence.spawn`` shard-seed plumbing — a spawned child can feed
    any sampler without first being collapsed to an integer), or ``None``
    for fresh OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _attribute_kinds(
    count: int, rng: np.random.Generator, weights: Sequence[float] = _DEFAULT_KIND_WEIGHTS
) -> List[FaultKind]:
    picks = rng.choice(len(CATASTROPHIC_KINDS), size=count, p=list(weights))
    return [CATASTROPHIC_KINDS[i] for i in picks]


class BernoulliInjector:
    """Independent per-cell failures with probability ``q = 1 - p``."""

    def __init__(self, survival_probability: float):
        if not 0.0 <= survival_probability <= 1.0:
            raise FaultModelError(
                f"survival probability must be in [0, 1], got {survival_probability}"
            )
        self.p = survival_probability
        self.q = 1.0 - survival_probability

    def sample(self, chip: Biochip, seed: RngLike = None) -> FaultMap:
        """One fault map drawn from the model."""
        rng = make_rng(seed)
        coords = chip.coords
        dead = np.nonzero(rng.random(len(coords)) >= self.p)[0]
        kinds = _attribute_kinds(len(dead), rng)
        return FaultMap(
            Fault(coords[i], kind) for i, kind in zip(dead, kinds)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"BernoulliInjector(p={self.p})"


class FixedCountInjector:
    """Exactly ``m`` faulty cells, uniformly random without replacement."""

    def __init__(self, m: int):
        if m < 0:
            raise FaultModelError(f"fault count must be >= 0, got {m}")
        self.m = m

    def sample(self, chip: Biochip, seed: RngLike = None) -> FaultMap:
        if self.m > len(chip):
            raise FaultModelError(
                f"cannot place {self.m} faults on a chip with {len(chip)} cells"
            )
        rng = make_rng(seed)
        coords = chip.coords
        picks = rng.choice(len(coords), size=self.m, replace=False)
        kinds = _attribute_kinds(self.m, rng)
        return FaultMap(Fault(coords[i], kind) for i, kind in zip(picks, kinds))

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"FixedCountInjector(m={self.m})"
