"""Statistics for Monte-Carlo yield estimates.

The paper reports point estimates from 10 000 runs; we additionally attach
Wilson score confidence intervals so the benchmark harness can assert shape
properties ("design A beats design B at p = 0.95") without flaking on
Monte-Carlo noise.

:class:`StopRule` turns the same Wilson interval into a sequential budget:
a point runs in batches and stops as soon as its interval is narrower than
the figure needs, instead of always spending the full flat budget.  The
rule is declarative (target half-width, min/max runs, batch size) so it
can ride on :class:`~repro.experiments.registry.BudgetPolicy` and be
digested into cache keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import SimulationError
from repro.specs import short_digest

__all__ = [
    "wilson_interval",
    "wilson_half_width",
    "split_batches",
    "StopRule",
    "YieldEstimate",
    "Z_95",
]

#: Two-sided 95% normal quantile, the default confidence level throughout.
Z_95 = 1.959963984540054


def wilson_interval(
    successes: int, trials: int, z: float = Z_95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because yield estimates sit
    close to 1.0, where the Wald interval is badly behaved.  ``z`` defaults
    to the two-sided 95% quantile.
    """
    if trials <= 0:
        raise SimulationError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise SimulationError(
            f"successes must be in [0, {trials}], got {successes}"
        )
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


def wilson_half_width(successes: int, trials: int, z: float = Z_95) -> float:
    """Half the width of the Wilson interval — the "±" a figure quotes."""
    lo, hi = wilson_interval(successes, trials, z=z)
    return (hi - lo) / 2.0


def split_batches(total: int, batch: int) -> Tuple[int, ...]:
    """Split ``total`` runs into ``batch``-sized pieces (last may be short).

    The one canonical batch partition: :meth:`StopRule.plan` and the
    engine's shard plans both derive from it, so the rule's reference
    semantics and the engine's execution can never disagree on batch
    boundaries.
    """
    if total < 1:
        raise SimulationError(f"batch total must be >= 1, got {total}")
    if batch < 1:
        raise SimulationError(f"batch size must be >= 1, got {batch}")
    full, rest = divmod(total, batch)
    return (batch,) * full + ((rest,) if rest else ())


@dataclass(frozen=True)
class StopRule:
    """Sequential stopping rule for a Monte-Carlo point.

    A point governed by a stop rule runs in batches of ``batch_runs``.
    After each batch the cumulative (successes, trials) pair is tested:
    once at least ``min_runs`` trials are in and the Wilson half-width at
    confidence ``z`` is at most ``target_half_width``, the point stops —
    its *effective* budget is whatever it spent.  ``max_runs`` (and always
    the point's own requested budget) caps the spend, so a hard point
    degrades gracefully to the flat behaviour instead of running forever.

    The rule is evaluated on whole batches, in batch order, which is what
    makes adaptive execution deterministic given the seed no matter how
    the batches are scheduled across workers (see
    :mod:`repro.yieldsim.engine`).
    """

    target_half_width: float
    min_runs: int = 1000
    max_runs: Optional[int] = None
    batch_runs: int = 1000
    z: float = Z_95

    def __post_init__(self) -> None:
        if not 0.0 < self.target_half_width < math.inf:
            raise SimulationError(
                f"target half-width must be finite and > 0, "
                f"got {self.target_half_width}"
            )
        if self.min_runs < 1:
            raise SimulationError(f"min_runs must be >= 1, got {self.min_runs}")
        if self.batch_runs < 1:
            raise SimulationError(f"batch_runs must be >= 1, got {self.batch_runs}")
        if self.max_runs is not None and self.max_runs < self.min_runs:
            raise SimulationError(
                f"max_runs ({self.max_runs}) must be >= min_runs ({self.min_runs})"
            )
        if not self.z > 0.0:
            raise SimulationError(f"z must be > 0, got {self.z}")

    def cap(self, budget: int) -> int:
        """The most this point may spend of a requested ``budget``."""
        if self.max_runs is None:
            return budget
        return min(budget, self.max_runs)

    def should_stop(self, successes: int, trials: int) -> bool:
        """True once the cumulative estimate is narrow enough to stop."""
        if trials < self.min_runs:
            return False
        return wilson_half_width(successes, trials, z=self.z) <= self.target_half_width

    def plan(self, budget: int) -> Tuple[int, ...]:
        """The batch sizes a ``budget``-run point is split into."""
        return split_batches(self.cap(budget), self.batch_runs)

    def digest(self) -> str:
        """Stable short digest of the rule, for point-cache keys."""
        return short_digest(
            {
                "target": self.target_half_width,
                "min": self.min_runs,
                "max": self.max_runs,
                "batch": self.batch_runs,
                "z": self.z,
            }
        )

    def describe(self) -> str:
        """Human-readable rule, for ``repro show`` and reports."""
        text = f"stop at ±{self.target_half_width:g}"
        text += f" (min {self.min_runs}, batch {self.batch_runs}"
        if self.max_runs is not None:
            text += f", max {self.max_runs}"
        return text + ")"


@dataclass(frozen=True)
class YieldEstimate:
    """A Monte-Carlo yield estimate with its uncertainty.

    ``value`` is the fraction of runs in which the chip was repairable
    (or fault-free); ``lo``/``hi`` bound it at 95% confidence.
    """

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise SimulationError(f"trials must be positive, got {self.trials}")
        if not 0 <= self.successes <= self.trials:
            raise SimulationError(
                f"successes must be in [0, {self.trials}], got {self.successes}"
            )

    @property
    def value(self) -> float:
        return self.successes / self.trials

    @property
    def interval(self) -> Tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    @property
    def lo(self) -> float:
        return self.interval[0]

    @property
    def hi(self) -> float:
        return self.interval[1]

    def clearly_above(self, other: "YieldEstimate") -> bool:
        """True iff this estimate's CI lies entirely above ``other``'s."""
        return self.lo > other.hi

    def consistent_with(self, value: float) -> bool:
        """True iff ``value`` falls inside the 95% interval."""
        return self.lo <= value <= self.hi

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        lo, hi = self.interval
        return f"{self.value:.4f} [{lo:.4f}, {hi:.4f}] ({self.trials} runs)"
