"""Tests for droplets and the electrowetting actuation model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FluidicsError
from repro.fluidics.droplet import Droplet
from repro.fluidics.electrowetting import DEFAULT_MODEL, ElectrowettingModel
from repro.geometry.hex import Hex

volumes = st.floats(min_value=1e-10, max_value=1e-6)
concentrations = st.floats(min_value=0.0, max_value=1.0)


class TestDroplet:
    def test_defaults(self):
        d = Droplet(position=Hex(0, 0))
        assert d.volume == 1e-9
        assert d.concentration("glucose") == 0.0

    def test_validation(self):
        with pytest.raises(FluidicsError):
            Droplet(position=Hex(0, 0), volume=0.0)
        with pytest.raises(FluidicsError):
            Droplet(position=Hex(0, 0), contents={"x": -1.0})

    def test_unique_ids(self):
        a = Droplet(position=Hex(0, 0))
        b = Droplet(position=Hex(1, 0))
        assert a.uid != b.uid

    @given(volumes, volumes, concentrations, concentrations)
    @settings(max_examples=60)
    def test_merge_conserves_moles(self, v1, v2, c1, c2):
        a = Droplet(position=Hex(0, 0), volume=v1, contents={"glucose": c1})
        b = Droplet(position=Hex(1, 0), volume=v2, contents={"glucose": c2})
        merged = a.merged_with(b)
        assert merged.volume == pytest.approx(v1 + v2)
        assert merged.moles("glucose") == pytest.approx(
            a.moles("glucose") + b.moles("glucose")
        )

    def test_merge_unites_species(self):
        a = Droplet(position=Hex(0, 0), contents={"glucose": 1e-3})
        b = Droplet(position=Hex(1, 0), contents={"enzyme": 1e-6})
        merged = a.merged_with(b)
        assert merged.concentration("glucose") == pytest.approx(0.5e-3)
        assert merged.concentration("enzyme") == pytest.approx(0.5e-6)

    def test_merge_position_is_receivers(self):
        a = Droplet(position=Hex(0, 0))
        b = Droplet(position=Hex(1, 0))
        assert a.merged_with(b).position == a.position

    @given(volumes, concentrations)
    @settings(max_examples=40)
    def test_split_halves_volume_keeps_concentration(self, v, c):
        d = Droplet(position=Hex(0, 0), volume=v, contents={"x": c})
        p, q = d.split()
        assert p.volume == pytest.approx(v / 2)
        assert q.volume == pytest.approx(v / 2)
        assert p.concentration("x") == c
        assert q.concentration("x") == c
        assert p.uid != q.uid


class TestElectrowettingModel:
    def test_paper_operating_point(self):
        # 90 V and 20 cm/s are the paper's quoted numbers.
        assert DEFAULT_MODEL.max_voltage == 90.0
        assert DEFAULT_MODEL.velocity(90.0) == pytest.approx(0.20)

    def test_zero_below_threshold(self):
        model = ElectrowettingModel(threshold_voltage=20.0)
        assert model.velocity(0.0) == 0.0
        assert model.velocity(19.9) == 0.0
        assert model.velocity(20.0) == 0.0

    def test_monotone_above_threshold(self):
        vs = [DEFAULT_MODEL.velocity(v) for v in (20, 40, 60, 80, 90)]
        assert vs == sorted(vs)
        assert vs[0] > 0.0

    def test_quadratic_shape(self):
        # Velocity follows (V^2 - Vt^2): doubling the voltage margin more
        # than doubles velocity.
        model = ElectrowettingModel(threshold_voltage=0.0)
        assert model.velocity(60.0) == pytest.approx(
            model.max_velocity * 60.0**2 / 90.0**2
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(FluidicsError):
            DEFAULT_MODEL.velocity(-1.0)
        with pytest.raises(FluidicsError):
            DEFAULT_MODEL.velocity(90.1)

    def test_step_time(self):
        t = DEFAULT_MODEL.step_time(90.0)
        assert t == pytest.approx(DEFAULT_MODEL.pitch / 0.20)

    def test_step_time_below_threshold_rejected(self):
        with pytest.raises(FluidicsError):
            DEFAULT_MODEL.step_time(5.0)

    def test_invalid_construction(self):
        with pytest.raises(FluidicsError):
            ElectrowettingModel(max_voltage=-5.0)
        with pytest.raises(FluidicsError):
            ElectrowettingModel(threshold_voltage=100.0, max_voltage=90.0)
        with pytest.raises(FluidicsError):
            ElectrowettingModel(pitch=0.0)
