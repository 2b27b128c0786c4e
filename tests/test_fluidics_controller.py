"""Tests for the electrode controller's droplet state machine."""

from __future__ import annotations

import pytest

from repro.chip.builders import plain_chip
from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_chip
from repro.errors import (
    ConstraintViolationError,
    FluidicsError,
    IllegalMoveError,
)
from repro.fluidics.controller import ElectrodeController
from repro.fluidics.droplet import Droplet
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion
from repro.reconfig.local import plan_local_repair
from repro.reconfig.remap import CellRemap


@pytest.fixture
def controller():
    return ElectrodeController(plain_chip(RectRegion(8, 8)))


def put(controller, coord, name="d"):
    return controller.dispense(Droplet(position=coord, name=name))


class TestDispense:
    def test_dispense_places_droplet(self, controller):
        d = put(controller, Hex(2, 2))
        assert controller.droplets == [d] and d.position == Hex(2, 2)

    def test_dispense_on_occupied_cell_rejected(self, controller):
        put(controller, Hex(2, 2))
        with pytest.raises(ConstraintViolationError):
            put(controller, Hex(2, 2), "e")

    def test_dispense_adjacent_to_other_droplet_rejected(self, controller):
        put(controller, Hex(2, 2))
        with pytest.raises(ConstraintViolationError):
            put(controller, Hex(3, 2), "e")
        # Failed dispense must not leak state.
        assert [d.position for d in controller.droplets] == [Hex(2, 2)]

    def test_dispense_on_faulty_cell_rejected(self):
        chip = plain_chip(RectRegion(4, 4))
        chip.mark_faulty(Hex(1, 1))
        controller = ElectrodeController(chip)
        with pytest.raises(IllegalMoveError):
            controller.dispense(Droplet(position=Hex(1, 1)))


class TestMove:
    def test_move_to_adjacent_cell(self, controller):
        d = put(controller, Hex(2, 2))
        controller.move(d, Hex(3, 2))
        assert d.position == Hex(3, 2)
        assert controller.droplets == [d]

    def test_move_advances_time_one_step(self, controller):
        d = put(controller, Hex(2, 2))
        before = controller.time
        controller.move(d, Hex(3, 2))
        assert controller.time == pytest.approx(
            before + controller.model.step_time(controller.voltage)
        )

    def test_non_adjacent_move_rejected(self, controller):
        d = put(controller, Hex(2, 2))
        with pytest.raises(IllegalMoveError):
            controller.move(d, Hex(5, 5))

    def test_move_onto_faulty_cell_rejected(self):
        chip = plain_chip(RectRegion(4, 4))
        chip.mark_faulty(Hex(2, 1))
        controller = ElectrodeController(chip)
        d = controller.dispense(Droplet(position=Hex(1, 1)))
        with pytest.raises(IllegalMoveError):
            controller.move(d, Hex(2, 1))

    def test_move_violating_spacing_rolls_back(self, controller):
        a = put(controller, Hex(1, 1), "a")
        b = put(controller, Hex(3, 1), "b")  # distance 2: legal
        with pytest.raises(ConstraintViolationError):
            controller.move(b, Hex(2, 1))  # adjacent to a: violation
        assert b.position == Hex(3, 1)  # rolled back

    def test_follow_path(self, controller):
        d = put(controller, Hex(1, 1))
        path = [Hex(1, 1), Hex(2, 1), Hex(3, 1), Hex(4, 1)]
        controller.follow_path(d, path)
        assert d.position == Hex(4, 1)

    def test_follow_path_wrong_start_rejected(self, controller):
        d = put(controller, Hex(1, 1))
        with pytest.raises(IllegalMoveError):
            controller.follow_path(d, [Hex(2, 1), Hex(3, 1)])

    def test_move_unknown_droplet_rejected(self, controller):
        ghost = Droplet(position=Hex(1, 1))
        with pytest.raises(FluidicsError):
            controller.move(ghost, Hex(2, 1))


class TestMergeSplit:
    def test_merge_adjacent_droplets(self, controller):
        a = controller.dispense(
            Droplet(position=Hex(1, 1), contents={"x": 2e-3}, name="a")
        )
        b = controller.dispense(
            Droplet(position=Hex(4, 4), contents={"y": 4e-3}, name="b")
        )
        controller.move(b, Hex(3, 4))
        controller.move(b, Hex(2, 3) if Hex(2, 3) in controller.chip.neighbors(Hex(3, 4)) else Hex(3, 3))
        # bring b adjacent to a then merge
        while b.position not in controller.chip.neighbors(a.position):
            nxt = min(
                (n for n in controller.chip.neighbors(b.position)),
                key=lambda n: n.distance(a.position),
            )
            controller.move(b, nxt, merging_with=a)
        merged = controller.merge(b, a)
        assert merged.position == Hex(1, 1)
        assert merged.volume == pytest.approx(2e-9)
        assert len(controller.droplets) == 1

    def test_merge_non_adjacent_rejected(self, controller):
        a = put(controller, Hex(1, 1), "a")
        b = put(controller, Hex(5, 5), "b")
        with pytest.raises(IllegalMoveError):
            controller.merge(a, b)

    def test_split_onto_opposite_cells(self, controller):
        d = controller.dispense(
            Droplet(position=Hex(3, 3), volume=2e-9, contents={"x": 1e-3})
        )
        left, right = controller.split(d, Hex(2, 3), Hex(4, 3))
        assert left.position == Hex(2, 3)
        assert right.position == Hex(4, 3)
        assert left.volume == pytest.approx(1e-9)
        assert len(controller.droplets) == 2

    def test_split_same_target_rejected(self, controller):
        d = put(controller, Hex(3, 3))
        with pytest.raises(IllegalMoveError):
            controller.split(d, Hex(2, 3), Hex(2, 3))

    def test_split_non_adjacent_target_rejected(self, controller):
        d = put(controller, Hex(3, 3))
        with pytest.raises(IllegalMoveError):
            controller.split(d, Hex(0, 0), Hex(4, 3))


class TestMixAndHold:
    def test_mix_in_place_returns_to_start(self, controller):
        d = put(controller, Hex(3, 3))
        loop = [Hex(3, 3), Hex(4, 3), Hex(4, 2), Hex(3, 3)]
        controller.mix_in_place(d, cycles=3, loop=loop)
        assert d.position == Hex(3, 3)

    def test_mix_loop_must_close(self, controller):
        d = put(controller, Hex(3, 3))
        with pytest.raises(FluidicsError):
            controller.mix_in_place(d, 1, [Hex(3, 3), Hex(4, 3)])

    def test_hold_advances_time_only(self, controller):
        d = put(controller, Hex(3, 3))
        controller.hold(12.5)
        assert controller.time == pytest.approx(12.5)
        assert d.position == Hex(3, 3)

    def test_negative_hold_rejected(self, controller):
        with pytest.raises(FluidicsError):
            controller.hold(-1.0)


class TestRemappedController:
    def test_moves_use_repaired_physical_cells(self):
        chip = build_chip(DTMB_2_6, RectRegion(10, 10))
        victim = next(
            c.coord
            for c in chip.primaries()
            if len(chip.adjacent_spares(c.coord)) == 2
            and chip.degree(c.coord) == 6
        )
        chip.mark_faulty(victim)
        plan = plan_local_repair(chip)
        remap = CellRemap(chip, plan)
        controller = ElectrodeController(chip, remap=remap)
        # Dispense logically onto the faulty cell: physically it sits on
        # the spare.
        d = controller.dispense(Droplet(position=victim))
        assert controller.physical(victim) == plan.assignment[victim]
        assert d.position == victim
