#!/usr/bin/env python3
"""Concurrent bioassays: several droplets in flight on a repaired chip.

The paper's opening promise is that "several bioassays [will] be
concurrently executed in a single microfluidic array."  This example puts
that together with local reconfiguration:

1. a DTMB(2,6) array suffers manufacturing faults;
2. local reconfiguration maps every faulty primary to an adjacent spare
   (test and diagnosis are assumed perfect, as in the paper);
3. four droplets (two sample/reagent pairs) are routed *simultaneously*
   with the time-expanded concurrent router — no accidental merges, faults
   avoided, all through the repair remap.

Run:  python examples/concurrent_assays.py
"""

from repro.designs import DTMB_2_6, build_chip
from repro.faults import fixed_count_faults
from repro.fluidics import ConcurrentRouter, RouteRequest
from repro.geometry import RectRegion, offset_to_axial
from repro.reconfig import CellRemap, plan_local_repair
from repro.viz import render_chip, render_legend


def main() -> None:
    region = RectRegion(12, 12)
    chip = build_chip(DTMB_2_6, region)
    print(f"chip: {chip.primary_count} primary + {chip.spare_count} spare")

    # --- manufacturing defects + local reconfiguration ------------------
    faults = fixed_count_faults(chip, 5, seed=17)
    chip.apply_fault_map(faults)
    print(f"{len(faults)} faulty cell(s): " + ", ".join(map(str, faults)))
    repair = plan_local_repair(chip)
    if not repair.complete:
        raise SystemExit("chip is scrap; rerun with another seed")
    remap = CellRemap(chip, repair)
    print(f"repaired via {repair.spares_used} spare(s); "
          "chip usable through remap")

    # --- concurrent routing through the remap ---------------------------
    # Two assays' worth of droplets: samples from the west edge, reagents
    # from the east edge, meeting at two separated mixer sites.
    primaries = {c.coord for c in chip.primaries()}

    def usable_near(col, row):
        # nearest primary to the requested offset cell; the repair is
        # complete, so every primary works through the remap
        target = offset_to_axial(col, row)
        return min((target.distance(p), p) for p in primaries)[1]

    requests = [
        RouteRequest("sample-1", usable_near(0, 2), usable_near(6, 3)),
        RouteRequest("reagent-1", usable_near(11, 2), usable_near(8, 3)),
        RouteRequest("sample-2", usable_near(0, 9), usable_near(6, 8)),
        RouteRequest("reagent-2", usable_near(11, 9), usable_near(8, 8)),
    ]
    router = ConcurrentRouter(chip, remap=remap)
    plan = router.plan(requests)

    print(f"\nconcurrent plan: {len(requests)} droplets, "
          f"makespan {plan.makespan} steps, {plan.total_moves()} moves total")
    lower_bound = max(r.source.distance(r.target) for r in requests)
    print(f"(single-droplet lower bound: {lower_bound} steps — "
          f"concurrency overhead {plan.makespan - lower_bound} steps)")

    for request in requests:
        trajectory = plan.trajectories[request.name]
        waits = sum(1 for a, b in zip(trajectory, trajectory[1:]) if a == b)
        print(f"  {request.name:<10} {request.source} -> {request.target}: "
              f"{len(trajectory) - 1 - waits} moves, {waits} waits")

    print("\nchip with repairs:")
    print(render_chip(chip, plan=repair))
    print(render_legend())


if __name__ == "__main__":
    main()
