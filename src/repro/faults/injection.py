"""Seeded fault draws for one chip instance.

Two draws cover the paper's assumptions:

* :func:`bernoulli_faults` — every cell fails independently with
  probability ``q = 1 - p``.  This is the paper's stated assumption
  ("the failures of the cells are independent ... valid for random and
  small spot defects").
* :func:`fixed_count_faults` — exactly ``m`` distinct cells fail, chosen
  uniformly; the model behind Figure 13 ("we randomly introduce m cell
  failures").

Both return the faulty coordinates of one chip instance, in coordinate
order, ready for :meth:`~repro.chip.biochip.Biochip.apply_fault_map`.  A
cell is simply good or faulty: the repair model never asks why it failed.
(The Monte-Carlo engine samples survival matrices through the vectorized
models of :mod:`repro.yieldsim.defects` instead.)  Draws come from a
``numpy`` Generator so experiments are exactly reproducible from a seed.
"""

from __future__ import annotations

from typing import Hashable, List, Union

import numpy as np

from repro.chip.biochip import Biochip
from repro.errors import FaultModelError

__all__ = ["RngLike", "make_rng", "bernoulli_faults", "fixed_count_faults"]

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


def bernoulli_faults(chip: Biochip, p: float, seed: RngLike = None) -> List[Hashable]:
    """Cells that fail independently, each surviving with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise FaultModelError(f"survival probability must be in [0, 1], got {p}")
    coords = chip.coords
    dead = np.flatnonzero(make_rng(seed).random(len(coords)) >= p)
    return [coords[i] for i in dead]


def fixed_count_faults(chip: Biochip, m: int, seed: RngLike = None) -> List[Hashable]:
    """Exactly ``m`` faulty cells, uniformly random without replacement."""
    if m < 0:
        raise FaultModelError(f"fault count must be >= 0, got {m}")
    coords = chip.coords
    if m > len(coords):
        raise FaultModelError(
            f"cannot place {m} faults on a chip with {len(coords)} cells"
        )
    picks = make_rng(seed).choice(len(coords), size=m, replace=False)
    return [coords[i] for i in np.sort(picks)]
