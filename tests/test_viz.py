"""Tests for ASCII rendering, charts, SVG export and CSV writing."""

from __future__ import annotations

import csv
import io
import xml.etree.ElementTree as ET

import pytest

from repro.chip.builders import plain_chip, square_chip
from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_chip
from repro.errors import ReproError
from repro.geometry.hexgrid import RectRegion
from repro.reconfig.local import plan_local_repair
from repro.viz.ascii_art import render_chip, render_legend
from repro.viz.export import write_csv
from repro.viz.plot import ascii_chart
from repro.viz.svg import chip_to_svg


class TestAsciiArt:
    def test_glyph_counts_match_roles(self, dtmb26_chip):
        art = render_chip(dtmb26_chip)
        assert art.count(".") == dtmb26_chip.primary_count
        assert art.count("+") == dtmb26_chip.spare_count

    def test_faulty_cells_marked(self, dtmb26_chip):
        primary = dtmb26_chip.primaries()[0].coord
        spare = dtmb26_chip.spares()[0].coord
        dtmb26_chip.mark_faulty(primary)
        dtmb26_chip.mark_faulty(spare)
        art = render_chip(dtmb26_chip)
        assert art.count("X") == 1
        assert art.count("x") == 1

    def test_repair_plan_highlighted(self, dtmb26_chip):
        chip = dtmb26_chip
        victim = next(
            c.coord
            for c in chip.primaries()
            if len(chip.adjacent_spares(c.coord)) >= 1
        )
        chip.mark_faulty(victim)
        plan = plan_local_repair(chip)
        art = render_chip(chip, plan=plan)
        assert art.count("#") == 1  # repaired primary
        assert art.count("R") == 1  # spare in use

    def test_used_cells_marked(self, dtmb26_chip):
        used = [c.coord for c in dtmb26_chip.primaries()][:5]
        art = render_chip(dtmb26_chip, used=used)
        assert art.count("o") == 5

    def test_square_chip_rendering(self):
        chip = square_chip(4, 3)
        art = render_chip(chip)
        assert art.count(".") == 12
        assert len(art.splitlines()) == 3

    def test_odd_rows_indented(self):
        chip = plain_chip(RectRegion(4, 4))
        lines = render_chip(chip).splitlines()
        assert not lines[0].startswith(" ")
        assert lines[1].startswith(" ")

    def test_legend_mentions_all_glyphs(self):
        legend = render_legend()
        for glyph in (".", "o", "+", "R", "X", "x", "#"):
            assert glyph in legend


class TestAsciiChart:
    def test_contains_series_markers_and_legend(self):
        chart = ascii_chart(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            title="demo",
        )
        assert "demo" in chart
        assert "* a" in chart
        assert "o b" in chart

    def test_axis_labels_show_ranges(self):
        chart = ascii_chart({"s": [(0.9, 0.25), (1.0, 0.75)]})
        assert "0.900" in chart
        assert "1.000" in chart
        assert "0.250" in chart
        assert "0.750" in chart

    def test_flat_series_does_not_crash(self):
        ascii_chart({"flat": [(0, 0.5), (1, 0.5)]})

    def test_validation(self):
        with pytest.raises(ReproError):
            ascii_chart({})
        with pytest.raises(ReproError):
            ascii_chart({"s": [(0, 0)]}, width=5)


class TestSvg:
    def test_well_formed_xml_with_one_shape_per_cell(self, dtmb26_chip):
        svg = chip_to_svg(dtmb26_chip)
        root = ET.fromstring(svg)
        polygons = root.findall(".//{http://www.w3.org/2000/svg}polygon")
        assert len(polygons) == len(dtmb26_chip)

    def test_repair_arrows_drawn(self, dtmb26_chip):
        chip = dtmb26_chip
        victim = chip.primaries()[10].coord
        chip.mark_faulty(victim)
        plan = plan_local_repair(chip)
        svg = chip_to_svg(chip, plan=plan)
        root = ET.fromstring(svg)
        lines = root.findall(".//{http://www.w3.org/2000/svg}line")
        assert len(lines) == plan.spares_used

    def test_square_chip_uses_rects(self):
        chip = square_chip(3, 3)
        root = ET.fromstring(chip_to_svg(chip))
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 9


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        count = write_csv(
            str(path), ["p", "yield"], [(0.95, 0.8), (0.99, 0.97)]
        )
        assert count == 2
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["p", "yield"]
        assert rows[1] == ["0.95", "0.8"]

    def test_stream_target(self):
        buffer = io.StringIO()
        write_csv(buffer, ["a"], [(1,), (2,)])
        assert buffer.getvalue().splitlines()[0] == "a"

    def test_row_width_validation(self):
        with pytest.raises(ReproError):
            write_csv(io.StringIO(), ["a", "b"], [(1,)])
        with pytest.raises(ReproError):
            write_csv(io.StringIO(), [], [])
