"""Pluggable success criteria: when does a repaired chip still *work*?

The paper's yield metric declares a chip repaired as soon as a bipartite
spare matching exists (``yieldsim/kernel.py``).  The ROADMAP's north-star
workload is stricter: after remapping, the droplet routes of a real assay
must still schedule within a deadline.  This module makes that predicate
pluggable — the success-side mirror of :mod:`repro.yieldsim.defects` on
the sampling side:

:class:`MatchingCriterion`
    Today's behavior — a run succeeds iff the matching verdict is GOOD.
    Numerically identical to the default (criterion-less) dispatch at
    equal (chip, model, runs, seed), but cached under its own digest.
:class:`RoutingCriterion`
    After local repair and :class:`~repro.reconfig.remap.CellRemap`
    remapping, the named panel assay's droplet legs (sample -> mixer,
    reagent -> mixer, mixer -> detector) must all schedule through the
    real :class:`~repro.fluidics.scheduler.Scheduler` within ``deadline``
    total electrode moves.
:class:`MultiplexedCriterion`
    ``k`` concurrent sample -> detector routes (one per panel assay) must
    be planned together by
    :class:`~repro.fluidics.concurrent_routing.ConcurrentRouter` with
    makespan within ``deadline`` time steps.

Every criterion carries a stable content ``digest()`` (the defect-model
convention) that enters engine cache keys and manifest provenance, and a
vectorized ``evaluate_batch(struct, alive, verdict)`` that decides a whole
survival batch at once through the screen funnel in
:mod:`repro.functional.funnel` — cheap exact screens first, route search
only on the ambiguous residue.  :class:`CriterionStats` counts
where each run was decided, stage by stage, exactly as
:class:`~repro.yieldsim.kernel.ScreenStats` does for the matching funnel.

``criterion_from_spec`` parses the CLI/serving syntax
``NAME[:k=v,...]`` — e.g. ``routing:assay=glucose,deadline=200`` or
``multiplexed:assays=glucose+lactate,deadline=240``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import ClassVar, Dict, Mapping, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.assays.library import PANEL, assay_by_analyte
from repro.errors import AssayError, CriterionError
from repro.obs.counters import CriterionStats
from repro.yieldsim.kernel import GOOD, RepairStructure

__all__ = [
    "CriterionStats",
    "SuccessCriterion",
    "MatchingCriterion",
    "RoutingCriterion",
    "MultiplexedCriterion",
    "criterion_from_spec",
    "available_criteria",
]

@runtime_checkable
class SuccessCriterion(Protocol):
    """What makes a sampled fault map a *success* for yield purposes."""

    name: str

    def params(self) -> Dict[str, object]:
        """JSON-serializable parameters, the content identity."""
        ...

    def digest(self) -> str:
        """Stable content digest of (name, params) — the cache identity."""
        ...

    def validate(self, n_cells: int) -> None:
        """Raise :class:`CriterionError` if unusable on an n-cell chip."""
        ...

    def evaluate_batch(
        self, struct: RepairStructure, alive: np.ndarray, verdict: np.ndarray
    ) -> Tuple[np.ndarray, CriterionStats]:
        """Per-run success for a survival batch.

        ``alive`` is the boolean ``(runs, n_cells)`` survival matrix;
        ``verdict`` the matching funnel's GOOD/BAD verdicts for the same
        rows.  Returns a boolean success vector plus stage counters.
        """
        ...


def _digest(name: str, params: Mapping[str, object]) -> str:
    blob = json.dumps(
        {"criterion": name, "params": dict(params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    # Short digest, the DefectModel convention: engine cache keys re-hash
    # the whole point identity, and manifests list one entry per criterion.
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


class _CriterionBase:
    """Shared digest/describe plumbing for the concrete criteria."""

    name: ClassVar[str] = "?"

    def params(self) -> Dict[str, object]:  # pragma: no cover - overridden
        raise NotImplementedError

    def digest(self) -> str:
        return _digest(self.name, self.params())

    def validate(self, n_cells: int) -> None:
        """Most criteria fit any chip; subclasses tighten this."""

    def spec(self) -> str:
        """The canonical ``NAME[:k=v,...]`` spelling (CLI round-trip)."""
        items = []
        for key, value in self.params().items():
            if isinstance(value, (list, tuple)):
                value = "+".join(str(v) for v in value)
            items.append(f"{key}={value}")
        return self.name + (":" + ",".join(items) if items else "")

    def describe(self) -> str:
        return self.spec()


@dataclass(frozen=True)
class MatchingCriterion(_CriterionBase):
    """The paper's criterion: success iff a saturating matching exists.

    Evaluates to exactly the kernel verdict, so results equal the default
    (criterion-less) dispatch number for number; only the cache/provenance
    identity differs.
    """

    name: ClassVar[str] = "matching"

    def params(self) -> Dict[str, object]:
        return {}

    def evaluate_batch(
        self, struct: RepairStructure, alive: np.ndarray, verdict: np.ndarray
    ) -> Tuple[np.ndarray, CriterionStats]:
        ok = verdict == GOOD
        stats = CriterionStats(
            runs=int(verdict.size), matching_fail=int((~ok).sum())
        )
        return ok, stats


@dataclass(frozen=True)
class RoutingCriterion(_CriterionBase):
    """Success iff the named assay's routes schedule after remapping.

    The assay's droplet program — sample and reagent transported to a mix
    site, the mixture to a detector — must execute through the real
    :class:`~repro.fluidics.scheduler.Scheduler` (on the repaired
    :class:`~repro.reconfig.remap.CellRemap`) with at most ``deadline``
    electrode moves in total.  Functional sites are placed
    deterministically on each chip (see :mod:`repro.functional.sites`),
    so the criterion applies to any design the sweeps build.
    """

    assay: str = "glucose"
    deadline: int = 200

    name: ClassVar[str] = "routing"

    def params(self) -> Dict[str, object]:
        return {"assay": self.assay, "deadline": int(self.deadline)}

    def validate(self, n_cells: int) -> None:
        if self.deadline < 1:
            raise CriterionError(
                f"routing deadline must be >= 1 move, got {self.deadline}"
            )
        try:
            assay_by_analyte(self.assay)
        except AssayError as exc:
            raise CriterionError(str(exc)) from exc
        if n_cells < 8:
            raise CriterionError(
                f"chip with {n_cells} cells is too small for a functional "
                "route program (needs 4 separated primary sites)"
            )

    def evaluate_batch(
        self, struct: RepairStructure, alive: np.ndarray, verdict: np.ndarray
    ) -> Tuple[np.ndarray, CriterionStats]:
        from repro.functional.funnel import evaluate_functional

        return evaluate_functional(struct, self, alive, verdict)


@dataclass(frozen=True)
class MultiplexedCriterion(_CriterionBase):
    """Success iff k concurrent assay routes plan within a makespan.

    One sample -> detector route per listed assay, planned *together* by
    :class:`~repro.fluidics.concurrent_routing.ConcurrentRouter` (droplets
    move simultaneously under the spacing constraint); success requires a
    plan with makespan at most ``deadline`` time steps.
    """

    assays: Tuple[str, ...] = ("glucose", "lactate")
    deadline: int = 240

    name: ClassVar[str] = "multiplexed"

    def __post_init__(self) -> None:
        # Tolerate list input so direct constructions stay hashable.
        object.__setattr__(self, "assays", tuple(self.assays))

    def params(self) -> Dict[str, object]:
        return {"assays": list(self.assays), "deadline": int(self.deadline)}

    def validate(self, n_cells: int) -> None:
        if self.deadline < 1:
            raise CriterionError(
                f"multiplexed deadline must be >= 1 step, got {self.deadline}"
            )
        if not self.assays:
            raise CriterionError("multiplexed criterion needs >= 1 assay")
        if len(self.assays) > len(PANEL):
            raise CriterionError(
                f"multiplexed criterion supports at most {len(PANEL)} "
                f"concurrent assays, got {len(self.assays)}"
            )
        for analyte in self.assays:
            try:
                assay_by_analyte(analyte)
            except AssayError as exc:
                raise CriterionError(str(exc)) from exc
        if n_cells < 8 * len(self.assays):
            raise CriterionError(
                f"chip with {n_cells} cells is too small for "
                f"{len(self.assays)} separated concurrent routes"
            )

    def evaluate_batch(
        self, struct: RepairStructure, alive: np.ndarray, verdict: np.ndarray
    ) -> Tuple[np.ndarray, CriterionStats]:
        from repro.functional.funnel import evaluate_functional

        return evaluate_functional(struct, self, alive, verdict)


# -- the NAME[:k=v,...] spec syntax -------------------------------------------

def _parse_int(name: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise CriterionError(
            f"criterion {name!r}: parameter {key}={value!r} is not an integer"
        ) from None


def _require_keys(
    name: str, params: Mapping[str, str], allowed: Tuple[str, ...]
) -> None:
    unknown = set(params) - set(allowed)
    if unknown:
        raise CriterionError(
            f"unknown parameter(s) {sorted(unknown)} for criterion "
            f"{name!r} (accepts: {sorted(allowed) or 'none'})"
        )


def _build_matching(params: Mapping[str, str]) -> MatchingCriterion:
    _require_keys("matching", params, ())
    return MatchingCriterion()


def _build_routing(params: Mapping[str, str]) -> RoutingCriterion:
    _require_keys("routing", params, ("assay", "deadline"))
    kwargs: Dict[str, object] = {}
    if "assay" in params:
        kwargs["assay"] = params["assay"]
    if "deadline" in params:
        kwargs["deadline"] = _parse_int("routing", "deadline", params["deadline"])
    return RoutingCriterion(**kwargs)


def _build_multiplexed(params: Mapping[str, str]) -> MultiplexedCriterion:
    _require_keys("multiplexed", params, ("assays", "deadline"))
    kwargs: Dict[str, object] = {}
    if "assays" in params:
        assays = tuple(
            a.strip() for a in params["assays"].split("+") if a.strip()
        )
        kwargs["assays"] = assays
    if "deadline" in params:
        kwargs["deadline"] = _parse_int(
            "multiplexed", "deadline", params["deadline"]
        )
    return MultiplexedCriterion(**kwargs)


_BUILDERS = {
    "matching": _build_matching,
    "routing": _build_routing,
    "multiplexed": _build_multiplexed,
}


def available_criteria() -> Tuple[str, ...]:
    """The spellable criterion names, sorted."""
    return tuple(sorted(_BUILDERS))


def criterion_from_spec(spec: str) -> SuccessCriterion:
    """Parse ``NAME[:k=v,...]`` (the CLI ``--criterion`` syntax).

    Examples: ``matching``, ``routing:assay=lactate,deadline=150``,
    ``multiplexed:assays=glucose+lactate+glutamate,deadline=300``.  The
    returned criterion is fully validated against the assay panel; chip
    size is checked later, per point, by ``PointSpec.validate``.
    """
    text = spec.strip()
    name, _, tail = text.partition(":")
    name = name.strip().lower()
    builder = _BUILDERS.get(name)
    if builder is None:
        raise CriterionError(
            f"unknown criterion {name!r} "
            f"(available: {', '.join(available_criteria())})"
        )
    params: Dict[str, str] = {}
    if tail.strip():
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip():
                raise CriterionError(
                    f"criterion parameter {item!r} is not of the form k=v"
                )
            params[key.strip()] = value.strip()
    criterion = builder(params)
    # Panel/deadline sanity now; n_cells checked per chip at dispatch.
    criterion.validate(8 * max(1, len(getattr(criterion, "assays", ("x",)))))
    return criterion
