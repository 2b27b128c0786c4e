#!/usr/bin/env python3
"""Quickstart: build a defect-tolerant biochip, break it, repair it.

Walks the core API end to end in under a minute:

1. build a DTMB(2,6) interstitial-redundancy array (Figure 4 of the paper);
2. inject random manufacturing faults;
3. repair them by local reconfiguration (maximum bipartite matching);
4. visualize the repair and estimate the design's manufacturing yield.

Run:  python examples/quickstart.py
"""

from repro.designs import DTMB_2_6, build_with_primary_count
from repro.faults import fixed_count_faults
from repro.reconfig import plan_local_repair
from repro.viz import render_chip, render_legend
from repro.yieldsim import YieldSimulator, yield_no_redundancy


def main() -> None:
    # 1. A DTMB(2,6) array with exactly 100 primary cells.  Every primary
    #    is adjacent to 2 interstitial spares; every spare serves 6
    #    primaries (redundancy ratio 1/3).
    fit = build_with_primary_count(DTMB_2_6, 100)
    chip = fit.build()
    print(f"built {chip.name!r}: {fit.cols}x{fit.rows} cells, "
          f"{chip.primary_count} primary + {chip.spare_count} spare "
          f"(RR = {chip.redundancy_ratio():.3f})")

    # 2. Six random cells fail in manufacturing.
    faults = fixed_count_faults(chip, 6, seed=42)
    chip.apply_fault_map(faults)
    print(f"\ninjected {len(faults)} faults: " + ", ".join(map(str, faults)))

    # 3. Local reconfiguration: each faulty primary is replaced by an
    #    adjacent fault-free spare, found via maximum bipartite matching.
    plan = plan_local_repair(chip)
    if plan.complete:
        print(f"repaired: {plan.spares_used} spare(s) swapped in")
        for primary, spare in sorted(plan.assignment.items()):
            print(f"  faulty primary {primary} -> spare {spare}")
    else:
        print(f"IRREPARABLE: {len(plan.unrepaired)} cells uncovered")

    # 4. Picture of the repair (X faulty spare-covered cells show as #).
    print("\n" + render_chip(chip, plan=plan))
    print(render_legend())

    # 5. Yield at 97% per-cell survival: Monte-Carlo over 10 000 chips.
    estimate = YieldSimulator(chip).run_survival(p=0.97, runs=10_000, seed=1)
    baseline = yield_no_redundancy(0.97, chip.primary_count)
    print(f"\nyield at p=0.97: {estimate}")
    print(f"same 100 cells with no spares: {baseline:.4f}")
    print(f"improvement: {estimate.value / baseline:.1f}x")


if __name__ == "__main__":
    main()
