"""Tests for the router and the protocol scheduler."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip.builders import plain_chip
from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_chip, build_with_primary_count
from repro.errors import RoutingError, SchedulingError
from repro.fluidics.controller import ElectrodeController
from repro.fluidics.operations import Detect, Discard, Dispense, Mix, Split, Transport
from repro.fluidics.routing import Router
from repro.fluidics.scheduler import Scheduler
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion, offset_to_axial
from repro.reconfig.local import plan_local_repair
from repro.reconfig.remap import CellRemap


@pytest.fixture
def chip():
    return plain_chip(RectRegion(9, 9))


class TestRouter:
    def test_route_endpoints(self, chip):
        router = Router(chip)
        src, dst = offset_to_axial(0, 0), offset_to_axial(7, 7)
        path = router.route(src, dst)
        assert path[0] == src
        assert path[-1] == dst

    def test_route_steps_adjacent(self, chip):
        router = Router(chip)
        path = router.route(offset_to_axial(0, 0), offset_to_axial(8, 4))
        for a, b in zip(path, path[1:]):
            assert b in chip.neighbors(a)

    @given(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
    )
    @settings(max_examples=40)
    def test_route_is_shortest_on_clean_chip(self, a, b):
        chip = plain_chip(RectRegion(9, 9))
        router = Router(chip)
        src = offset_to_axial(*a)
        dst = offset_to_axial(*b)
        path = router.route(src, dst)
        # On a full rectangle the lattice distance is achievable.
        assert len(path) - 1 == src.distance(dst)

    def test_route_avoids_faulty_cells(self, chip):
        router = Router(chip)
        src, dst = offset_to_axial(0, 4), offset_to_axial(8, 4)
        direct = router.route(src, dst)
        chip.mark_faulty(direct[len(direct) // 2])
        detour = router.route(src, dst)
        assert all(not chip[c].is_faulty for c in detour)
        assert len(detour) >= len(direct)

    def test_route_blocked_destination_raises(self, chip):
        router = Router(chip)
        dst = offset_to_axial(5, 5)
        with pytest.raises(RoutingError):
            router.route(offset_to_axial(0, 0), dst, blocked={dst})

    def test_no_route_through_fault_wall(self):
        chip = plain_chip(RectRegion(5, 5))
        # Kill an entire row: the array splits in two.
        for col in range(5):
            chip.mark_faulty(offset_to_axial(col, 2))
        router = Router(chip)
        with pytest.raises(RoutingError):
            router.route(offset_to_axial(0, 0), offset_to_axial(0, 4))

    def test_spacing_halo_contains_cell_and_neighbors(self, chip):
        router = Router(chip)
        center = offset_to_axial(4, 4)
        halo = router.spacing_halo([center])
        assert center in halo
        for n in chip.neighbors(center):
            assert n in halo

    def test_route_same_cell(self, chip):
        router = Router(chip)
        cell = offset_to_axial(3, 3)
        assert router.route(cell, cell) == [cell]

    def test_remapped_routing_avoids_dead_cell(self):
        chip = build_chip(DTMB_2_6, RectRegion(10, 10))
        victim = next(
            c.coord
            for c in chip.primaries()
            if len(chip.adjacent_spares(c.coord)) == 2
            and chip.degree(c.coord) == 6
        )
        chip.mark_faulty(victim)
        remap = CellRemap(chip, plan_local_repair(chip))
        router = Router(chip, remap)
        primaries = [c.coord for c in chip.primaries() if c.coord != victim]
        path = router.route(primaries[0], victim)
        # Route ends at the logical victim; its physical image is the spare.
        assert path[-1] == victim

    def test_remapped_astar_route_can_exceed_shortest(self):
        """Under a remap the lattice heuristic is not admissible.

        A pulled-back logical edge can join cells at lattice distance 2,
        so A* may return a route longer than the logical shortest path.
        The functional criteria score A*'s routes as they are; this pins
        one such leg so that neither a "shortest paths" claim nor a change
        of search goes unnoticed.
        """
        chip = build_with_primary_count(DTMB_2_6, 60).build()
        chip.apply_fault_map(
            Hex(q, r)
            for q, r in ((-1, 8), (0, 9), (1, 5), (2, 0), (2, 5), (4, 0))
        )
        plan = plan_local_repair(chip)
        assert plan.complete
        router = Router(chip, CellRemap(chip, plan))
        src, dst = Hex(7, 1), Hex(0, 9)
        assert len(router.route(src, dst)) - 1 == 9

        dist = {src: 0}
        queue = deque([src])
        while queue:
            cell = queue.popleft()
            for nbr in router.neighbors(cell):
                if nbr not in dist and router.usable(nbr, set()):
                    dist[nbr] = dist[cell] + 1
                    queue.append(nbr)
        assert dist[dst] == 8


class TestScheduler:
    def _scheduler(self, chip=None):
        chip = chip or plain_chip(RectRegion(9, 9))
        return Scheduler(ElectrodeController(chip))

    def test_dispense_transport_detect_discard(self):
        sched = self._scheduler()
        ops = [
            Dispense("s", offset_to_axial(0, 0), {"glucose": 1e-3}),
            Transport("s", offset_to_axial(6, 6)),
            Detect("s", offset_to_axial(6, 6), duration=5.0),
            Discard("s"),
        ]
        schedule = sched.run(ops)
        assert schedule.total_moves > 0
        assert schedule.total_time > 5.0
        assert [e.op for e in schedule.events] == [
            "Dispense",
            "Transport",
            "Detect",
            "Discard",
        ]

    def test_mix_merges_and_homogenizes(self):
        sched = self._scheduler()
        ops = [
            Dispense("a", offset_to_axial(0, 0), {"x": 2e-3}),
            Dispense("b", offset_to_axial(8, 8), {"y": 4e-3}),
            Mix("a", "b", "ab", at=offset_to_axial(4, 4), cycles=2),
        ]
        sched.run(ops)
        merged = sched.droplet("ab")
        assert merged.concentration("x") == pytest.approx(1e-3)
        assert merged.concentration("y") == pytest.approx(2e-3)
        assert merged.position == offset_to_axial(4, 4)
        with pytest.raises(SchedulingError):
            sched.droplet("a")  # consumed

    def test_split_produces_two_droplets(self):
        sched = self._scheduler()
        ops = [
            Dispense("d", offset_to_axial(4, 4), {"x": 1e-3}, volume=2e-9),
            Split("d", into=("d1", "d2")),
        ]
        sched.run(ops)
        d1, d2 = sched.droplet("d1"), sched.droplet("d2")
        assert d1.volume == pytest.approx(1e-9)
        assert d2.volume == pytest.approx(1e-9)

    def test_duplicate_handle_rejected(self):
        sched = self._scheduler()
        sched.run([Dispense("d", offset_to_axial(0, 0))])
        with pytest.raises(SchedulingError):
            sched.run([Dispense("d", offset_to_axial(5, 5))])

    def test_unknown_handle_rejected(self):
        sched = self._scheduler()
        with pytest.raises(SchedulingError):
            sched.run([Transport("ghost", offset_to_axial(1, 1))])

    def test_mix_routes_around_faults(self):
        chip = plain_chip(RectRegion(9, 9))
        chip.mark_faulty(offset_to_axial(4, 3))
        chip.mark_faulty(offset_to_axial(3, 4))
        sched = self._scheduler(chip)
        ops = [
            Dispense("a", offset_to_axial(0, 0), {"x": 1e-3}),
            Dispense("b", offset_to_axial(8, 8), {"y": 1e-3}),
            Mix("a", "b", "ab", at=offset_to_axial(6, 6), cycles=1),
        ]
        sched.run(ops)
        assert sched.droplet("ab").position == offset_to_axial(6, 6)

    def test_operation_validation(self):
        with pytest.raises(SchedulingError):
            Dispense("d", Hex(0, 0), volume=-1.0)
        with pytest.raises(SchedulingError):
            Mix("a", "a", "a", at=Hex(0, 0))
        with pytest.raises(SchedulingError):
            Split("d", into=("x", "x"))
        with pytest.raises(SchedulingError):
            Detect("d", Hex(0, 0), duration=-5.0)
