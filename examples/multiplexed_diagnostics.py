#!/usr/bin/env python3
"""The paper's case study: multiplexed in-vitro diagnostics (Section 7).

Compares the two chips of Figures 11-12:

* the fabricated first-generation chip — 108 square electrodes, no spares,
  yield 0.99^108 = 0.3378;
* the DTMB(2,6) redesign — 252 primaries (108 used), 91 interstitial
  spares — which repairs ten random faults and still runs the full
  glucose / lactate / glutamate / pyruvate panel on a (simulated) patient
  sample.

Run:  python examples/multiplexed_diagnostics.py
"""

from repro.assays import (
    PANEL,
    MultiplexedRunner,
    Species,
    fabricated_chip,
    redesigned_chip,
)
from repro.faults import fixed_count_faults
from repro.viz import render_chip, render_legend
from repro.yieldsim import YieldSimulator, yield_no_redundancy


def main() -> None:
    # --- Figure 11: the non-redundant baseline -------------------------
    baseline = fabricated_chip()
    print(f"fabricated chip: {len(baseline)} cells, no spares")
    print(f"yield at p=0.99: {yield_no_redundancy(0.99, len(baseline)):.4f} "
          "(the paper's 0.3378 headline)")

    # --- Figure 12: the DTMB(2,6) redesign -----------------------------
    layout = redesigned_chip()
    print(f"\nredesign: {layout.describe()}")
    estimate = YieldSimulator(layout.chip, needed=layout.used).run_survival(
        p=0.99, runs=10_000, seed=7
    )
    print(f"yield at p=0.99 (108 assay cells protected): {estimate}")

    # --- Damage it and repair it ---------------------------------------
    layout.chip.apply_fault_map(fixed_count_faults(layout.chip, 10, seed=2005))
    print(f"\ninjected 10 random faults "
          f"({len(layout.chip.faulty_primaries())} hit primary cells)")

    runner = MultiplexedRunner(layout)  # repairs automatically
    if runner.remap is not None:
        print(f"local reconfiguration remapped "
              f"{runner.remap.remapped_count} used cell(s) onto spares")

    # --- Run the full diagnostics panel on a patient sample ------------
    patient = {
        Species.GLUCOSE: 8.2e-3,    # elevated: diabetic-range plasma
        Species.LACTATE: 1.1e-3,    # normal
        Species.GLUTAMATE: 90e-6,   # normal
        Species.PYRUVATE: 70e-5 / 10,  # normal
    }
    print("\nassay panel on the repaired chip:")
    header = f"{'analyte':<12}{'measured':>12}{'true':>12}{'err':>8}  flag"
    print(header)
    print("-" * len(header))
    for result in runner.run_panel(patient):
        flag = "ok" if result.in_reference_range else "OUT OF RANGE"
        print(
            f"{result.analyte:<12}"
            f"{result.measured_concentration:>12.3e}"
            f"{result.true_concentration:>12.3e}"
            f"{result.relative_error:>8.2%}  {flag}"
        )

    print("\nchip after repair (used cells green 'o', repairs '#'->'R'):")
    print(render_chip(layout.chip, used=layout.used,
                      plan=None))
    print(render_legend())


if __name__ == "__main__":
    main()
