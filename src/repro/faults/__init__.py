"""Manufacturing-fault models and seeded injection.

* :mod:`repro.faults.model` — the catastrophic fault kinds of Section 4
  and the :class:`~repro.faults.model.FaultMap` container;
* :mod:`repro.faults.injection` — Bernoulli (the paper's assumption) and
  fixed-count (Figure 13) injectors.
"""

from repro.faults.injection import (
    CATASTROPHIC_KINDS,
    BernoulliInjector,
    FixedCountInjector,
    make_rng,
)
from repro.faults.model import Fault, FaultKind, FaultMap

__all__ = [
    "Fault",
    "FaultKind",
    "FaultMap",
    "BernoulliInjector",
    "FixedCountInjector",
    "CATASTROPHIC_KINDS",
    "make_rng",
]
