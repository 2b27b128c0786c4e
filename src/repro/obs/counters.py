"""Field-generic event counters: the one counter type behind every tally.

Each layer of the execution stack counts something — where the matching
screen decided a run, where a functional criterion decided it, which
failures the scheduler survived, what the cache tiers moved.  Every one of
those tallies is a :class:`Counters` dataclass whose fields are plain
integers, so ``merge``/``as_dict``/``from_dict``/``delta`` are written once
here and every tally serializes the same way in ``/stats``, ``/metrics``,
manifests and fold checkpoints.  ``as_dict`` keeps field declaration
order, which is what those surfaces render.

The concrete field lists live here too (stdlib only, no repro imports) and
are re-exported from the layers that fill them:
:class:`ScreenStats` from :mod:`repro.yieldsim.kernel`,
:class:`CriterionStats` from :mod:`repro.functional.criteria`,
:class:`ResilienceStats` from :mod:`repro.yieldsim.resilience` and
:class:`StoreStats` from :mod:`repro.yieldsim.cachestore`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Type, TypeVar

__all__ = [
    "Counters",
    "CriterionStats",
    "ResilienceStats",
    "ScreenStats",
    "StoreStats",
]

C = TypeVar("C", bound="Counters")


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


class Counters:
    """Base of the counter dataclasses: integer fields, summed key-wise."""

    def merge(self: C, other: C) -> None:
        """Accumulate another tally of the same type into this one."""
        for name in _field_names(type(self)):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        """Plain-keyed counters in field declaration order."""
        return {name: getattr(self, name) for name in _field_names(type(self))}

    @classmethod
    def from_dict(cls: Type[C], data: Mapping[str, object]) -> C:
        """Rebuild from :meth:`as_dict` output.

        Strict: any missing or foreign key raises ``ValueError``, so a
        journal written in another layout reads as invalid rather than as
        silently zeroed counters.
        """
        names = _field_names(cls)
        if not isinstance(data, Mapping) or set(data) != set(names):
            raise ValueError(f"not a {cls.__name__} dict: {data!r}")
        return cls(**{name: int(data[name]) for name in names})  # type: ignore[call-arg]

    @staticmethod
    def delta(before: Mapping[str, int], after: Mapping[str, int]) -> Dict[str, int]:
        """The nonzero per-counter growth between two snapshots."""
        return {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] - before.get(name, 0) > 0
        }


@dataclass
class ScreenStats(Counters):
    """Where the runs of a batch were decided, matching stage by stage."""

    runs: int = 0
    zero_fault: int = 0
    bad_dead_end: int = 0
    bad_forced_conflict: int = 0
    bad_hall: int = 0
    good_peeled: int = 0
    good_hall: int = 0
    residue: int = 0
    residue_good: int = 0

    @property
    def screened(self) -> int:
        """Runs decided without any per-run matching."""
        return self.runs - self.residue


@dataclass
class CriterionStats(Counters):
    """Where the runs of a batch were decided, criterion stage by stage.

    ``matching_fail`` runs failed the matching screen (exact: matching
    infeasible implies no remap exists, so every functional criterion
    fails); ``spare_only`` runs had no faulty primary anywhere and take
    the fault-free baseline verdict; ``route_clear`` runs kept the entire
    fault-free route alive (routing criterion only — exact success);
    ``unreachable`` runs lost physical connectivity for some leg (exact
    failure); only ``residue`` runs paid for the real scheduler, of which
    ``residue_ok`` succeeded.
    """

    runs: int = 0
    matching_fail: int = 0
    spare_only: int = 0
    route_clear: int = 0
    unreachable: int = 0
    residue: int = 0
    residue_ok: int = 0

    @property
    def screened(self) -> int:
        """Runs decided without driving the scheduler."""
        return self.runs - self.residue


@dataclass
class ResilienceStats(Counters):
    """Cumulative incident counters, shared engine-wide.

    The engine hands one instance to its cache and scheduler; the
    registry snapshots it around a dispatch and records the delta in the
    manifest, so every artifact says whether (and how) its run had to
    recover.  All counters are incidents *survived* — a failure that
    exhausted its attempts raises instead of counting.
    """

    #: units re-executed after a crash/timeout/corruption
    retries: int = 0
    #: units that exceeded the per-unit timeout (late or hung)
    timeouts: int = 0
    #: unit payloads rejected by result validation
    corrupt_units: int = 0
    #: broken process pools rebuilt mid-run
    pool_rebuilds: int = 0
    #: batched points resumed from an on-disk fold checkpoint
    checkpoint_resumes: int = 0
    #: folds skipped because a checkpoint already contained them
    folds_resumed: int = 0
    #: cache/checkpoint files quarantined as corrupt (renamed *.corrupt)
    quarantined: int = 0
    #: remote cache-store calls that failed and degraded to a local miss
    remote_errors: int = 0


@dataclass
class StoreStats(Counters):
    """Point-cache tier traffic, snapshot/delta'd into manifest provenance."""

    #: payloads served by the local tier
    local_hits: int = 0
    #: local-tier misses (the remote was consulted, or there was none)
    local_misses: int = 0
    #: payloads served by the remote store (then written back locally)
    remote_hits: int = 0
    #: keys absent from the remote as well — a true miss
    remote_misses: int = 0
    #: remote calls that failed or returned corrupt data (degraded to miss)
    remote_errors: int = 0
    #: payloads newly uploaded to the remote
    uploads: int = 0
    #: bytes sent to the remote
    bytes_up: int = 0
    #: bytes received from the remote
    bytes_down: int = 0
