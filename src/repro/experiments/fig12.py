"""Figure 12: the DTMB(2,6) redesign and an example reconfiguration.

Figure 12(a) is the defect-tolerant redesign (252 primaries, 108 used by
the assays, 91 interstitial spares); Figure 12(b) shows a successful local
reconfiguration in the presence of 10 faulty cells.  This driver rebuilds
the layout, injects a seeded 10-fault map, repairs it by bipartite
matching, renders the before/after pictures, and verifies the multiplexed
assay panel still executes through the repair remap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.assays.chipspec import DiagnosticsChip, redesigned_chip
from repro.assays.library import GLUCOSE_ASSAY
from repro.assays.runner import AssayResult, MultiplexedRunner
from repro.errors import AssayError
from repro.experiments.registry import BudgetPolicy, register
from repro.faults.injection import fixed_count_faults
from repro.reconfig.local import RepairPlan, plan_local_repair
from repro.viz.ascii_art import render_chip, render_legend
from repro.yieldsim.engine import SweepEngine

__all__ = ["Fig12Result", "run"]

#: Figure 12(b) shows reconfiguration around 10 faulty cells.
PAPER_FAULT_COUNT = 10


@dataclass(frozen=True)
class Fig12Result:
    """One reconfiguration demonstration on the redesigned chip."""

    layout: DiagnosticsChip
    faults: Tuple[object, ...]
    plan: RepairPlan
    rendering: str
    assay_result: Optional[AssayResult]

    @property
    def repaired(self) -> bool:
        return self.plan.complete

    def format_report(self) -> str:
        lines = [
            self.layout.describe(),
            f"faults injected: {len(self.faults)}",
            f"faulty used primaries repaired: {self.plan.spares_used}",
            f"repair complete: {self.repaired}",
        ]
        if self.assay_result is not None:
            lines.append(
                f"glucose assay on repaired chip: "
                f"measured {self.assay_result.measured_concentration:.3e} M "
                f"(true {self.assay_result.true_concentration:.3e} M, "
                f"error {self.assay_result.relative_error:.2%})"
            )
        lines.append("")
        lines.append(self.rendering)
        lines.append(render_legend())
        return "\n".join(lines)


@register(
    "fig12",
    title="DTMB(2,6) redesign and a 10-fault local reconfiguration",
    paper_ref="Figure 12",
    order=80,
    budget=BudgetPolicy(deterministic=True),
    tabular=False,
)
def run(
    *,
    runs: int = 0,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    m: int = PAPER_FAULT_COUNT,
    run_assay: bool = True,
    glucose_concentration: float = 5e-3,
) -> Fig12Result:
    """Inject ``m`` seeded faults, repair, render, optionally run an assay.

    One seeded demonstration, not a sweep: ``runs`` and ``engine`` are
    accepted for the uniform experiment signature but have no effect.
    """
    layout = redesigned_chip()
    chip = layout.chip
    faults = fixed_count_faults(chip, m, seed=seed)
    chip.apply_fault_map(faults)
    plan = plan_local_repair(chip, needed=layout.used)
    rendering = render_chip(chip, used=layout.used, plan=plan)

    assay_result: Optional[AssayResult] = None
    if run_assay and plan.complete:
        runner = MultiplexedRunner(layout)
        results = runner.run_panel(
            {GLUCOSE_ASSAY.analyte: glucose_concentration}
        )
        assay_result = results[0]
    return Fig12Result(
        layout=layout,
        faults=tuple(faults),
        plan=plan,
        rendering=rendering,
        assay_result=assay_result,
    )
