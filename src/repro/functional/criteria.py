"""Pluggable success criteria: when does a repaired chip still *work*?

The paper's yield metric declares a chip repaired as soon as a bipartite
spare matching exists (``yieldsim/kernel.py``).  The ROADMAP's north-star
workload is stricter: after remapping, the droplet routes of a real assay
must still schedule within a deadline.  This module makes that predicate
pluggable — the success-side plug-in beside the defect models of
:mod:`repro.yieldsim.defects`, on the same :class:`repro.specs.Plugin`
base and spec grammar:

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

Every criterion carries a stable content ``digest()``
(:meth:`repro.specs.Plugin.digest`) that enters engine cache keys and
manifest provenance, and a vectorized
``evaluate_batch(struct, alive, verdict)`` that the kernel's one sampling
loop (:func:`repro.yieldsim.kernel.model_successes`) calls on each
classified slice; it decides the slice at once through the screen funnel in
:mod:`repro.functional.funnel` — cheap exact screens first, route search
only on the ambiguous residue.  :class:`CriterionStats` counts
where each run was decided, stage by stage, exactly as
:class:`~repro.yieldsim.kernel.ScreenStats` does for the matching funnel.

``criterion_from_spec`` parses the CLI/serving syntax
``NAME[:k=v,...]`` — e.g. ``routing:assay=glucose,deadline=200`` or
``multiplexed:assays=glucose+lactate,deadline=240``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Mapping, Tuple

import numpy as np

from repro.assays.library import PANEL, assay_by_analyte
from repro.errors import AssayError, CriterionError
from repro.obs.counters import CriterionStats
from repro.specs import Plugin, require_keys, split_spec
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


class SuccessCriterion(Plugin):
    """What makes a sampled fault map a *success* for yield purposes.

    ``validate`` raises :class:`CriterionError` on a chip it cannot use.
    """

    kind: ClassVar[str] = "criterion"

    def spec(self) -> str:
        """The canonical ``NAME[:k=v,...]`` spelling (CLI round-trip)."""
        items = []
        for key, value in self.params().items():
            if isinstance(value, (list, tuple)):
                value = "+".join(str(v) for v in value)
            items.append(f"{key}={value}")
        return self.name + (":" + ",".join(items) if items else "")

    def evaluate_batch(
        self, struct: RepairStructure, alive: np.ndarray, verdict: np.ndarray
    ) -> Tuple[np.ndarray, CriterionStats]:  # pragma: no cover - overridden
        """Per-run success for a survival batch.

        ``alive`` is the boolean ``(runs, n_cells)`` survival matrix;
        ``verdict`` the matching funnel's GOOD/BAD verdicts for the same
        rows.  Returns a boolean success vector plus stage counters.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class MatchingCriterion(SuccessCriterion):
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


def _funnel_batch(
    criterion: SuccessCriterion,
    struct: RepairStructure,
    alive: np.ndarray,
    verdict: np.ndarray,
) -> Tuple[np.ndarray, CriterionStats]:
    """``evaluate_batch`` of the route criteria: the screen funnel."""
    from repro.functional.funnel import evaluate_functional

    return evaluate_functional(struct, criterion, alive, verdict)


@dataclass(frozen=True)
class RoutingCriterion(SuccessCriterion):
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

    evaluate_batch = _funnel_batch


@dataclass(frozen=True)
class MultiplexedCriterion(SuccessCriterion):
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

    evaluate_batch = _funnel_batch


# -- the NAME[:k=v,...] spec syntax -------------------------------------------

def _parse_int(name: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise CriterionError(
            f"criterion {name!r}: parameter {key}={value!r} is not an integer"
        ) from None


def _build_matching(params: Mapping[str, str]) -> MatchingCriterion:
    return MatchingCriterion()


def _build_routing(params: Mapping[str, str]) -> RoutingCriterion:
    kwargs: Dict[str, object] = {}
    if "assay" in params:
        kwargs["assay"] = params["assay"]
    if "deadline" in params:
        kwargs["deadline"] = _parse_int("routing", "deadline", params["deadline"])
    return RoutingCriterion(**kwargs)


def _build_multiplexed(params: Mapping[str, str]) -> MultiplexedCriterion:
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


#: name -> (accepted parameter keys, builder)
_BUILDERS = {
    "matching": ((), _build_matching),
    "routing": (("assay", "deadline"), _build_routing),
    "multiplexed": (("assays", "deadline"), _build_multiplexed),
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
    name, params = split_spec(spec, CriterionError, "criterion")
    entry = _BUILDERS.get(name)
    if entry is None:
        raise CriterionError(
            f"unknown criterion {name!r} "
            f"(available: {', '.join(available_criteria())})"
        )
    allowed, builder = entry
    require_keys(name, params, allowed, CriterionError, "criterion")
    criterion = builder(params)
    # Panel/deadline sanity now; n_cells checked per chip at dispatch.
    criterion.validate(8 * max(1, len(getattr(criterion, "assays", ("x",)))))
    return criterion
