"""Visualization: ASCII layouts, ASCII charts, SVG rendering, CSV export."""

from repro.viz.ascii_art import render_chip, render_legend
from repro.viz.export import write_csv
from repro.viz.gallery import gallery_html, write_gallery
from repro.viz.plot import ascii_chart
from repro.viz.svg import chip_to_svg

__all__ = [
    "render_chip",
    "render_legend",
    "ascii_chart",
    "chip_to_svg",
    "write_csv",
    "gallery_html",
    "write_gallery",
]
