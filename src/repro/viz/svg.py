"""SVG rendering of biochip layouts and reconfigurations.

Produces standalone SVG documents: hexagons (pointy-top) or squares per
cell, colored by role/health/usage, with arrows from each repaired primary
to the spare that replaces it — the Figure 12(b) picture.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.chip.biochip import Biochip
from repro.geometry.hex import Hex, axial_to_pixel
from repro.geometry.square import Square
from repro.reconfig.local import RepairPlan

__all__ = ["chip_to_svg"]

_COLORS = {
    "primary": "#9ecae1",
    "used": "#74c476",
    "spare": "#ffffff",
    "repair_spare": "#fdd835",
    "faulty_primary": "#e53935",
    "faulty_spare": "#ef9a9a",
}
_STROKE = "#555555"


def _hex_corners(cx: float, cy: float, size: float) -> str:
    pts = []
    for k in range(6):
        angle = math.pi / 180.0 * (60.0 * k - 30.0)
        pts.append(f"{cx + size * math.cos(angle):.2f},{cy + size * math.sin(angle):.2f}")
    return " ".join(pts)


def _cell_fill(
    chip: Biochip,
    coord: Hashable,
    used: Set[Hashable],
    repair_spares: Set[Hashable],
) -> str:
    cell = chip[coord]
    if cell.is_spare:
        if cell.is_faulty:
            return _COLORS["faulty_spare"]
        if coord in repair_spares:
            return _COLORS["repair_spare"]
        return _COLORS["spare"]
    if cell.is_faulty:
        return _COLORS["faulty_primary"]
    if coord in used:
        return _COLORS["used"]
    return _COLORS["primary"]


def chip_to_svg(
    chip: Biochip,
    used: Iterable[Hashable] = (),
    plan: Optional[RepairPlan] = None,
    cell_size: float = 14.0,
) -> str:
    """An SVG document string drawing ``chip``.

    ``used`` cells are tinted green; with a ``plan``, repair spares are
    highlighted and an arrow is drawn from each repaired faulty primary to
    its replacement spare.
    """
    used_set = set(used)
    repair_spares: Set[Hashable] = set(plan.assignment.values()) if plan else set()
    sample = chip.coords[0]
    hexagonal = isinstance(sample, Hex)

    centers: Dict[Hashable, Tuple[float, float]] = {}
    for coord in chip.coords:
        if hexagonal:
            centers[coord] = axial_to_pixel(coord, size=cell_size)
        else:
            centers[coord] = (coord.x * 2.0 * cell_size, coord.y * 2.0 * cell_size)

    xs = [p[0] for p in centers.values()]
    ys = [p[1] for p in centers.values()]
    pad = 2.0 * cell_size
    min_x, min_y = min(xs) - pad, min(ys) - pad
    width = max(xs) - min(xs) + 2 * pad
    height = max(ys) - min(ys) + 2 * pad

    shapes: List[str] = []
    for coord in chip.coords:
        cx, cy = centers[coord]
        cx -= min_x
        cy -= min_y
        fill = _cell_fill(chip, coord, used_set, repair_spares)
        if hexagonal:
            shapes.append(
                f'<polygon points="{_hex_corners(cx, cy, cell_size * 0.95)}" '
                f'fill="{fill}" stroke="{_STROKE}" stroke-width="1"/>'
            )
        else:
            half = cell_size * 0.9
            shapes.append(
                f'<rect x="{cx - half:.2f}" y="{cy - half:.2f}" '
                f'width="{2 * half:.2f}" height="{2 * half:.2f}" '
                f'fill="{fill}" stroke="{_STROKE}" stroke-width="1"/>'
            )
        label = chip[coord].label
        if label:
            shapes.append(
                f'<text x="{cx:.2f}" y="{cy:.2f}" font-size="{cell_size * 0.45:.1f}" '
                f'text-anchor="middle" dominant-baseline="middle">{label[:3]}</text>'
            )

    if plan is not None:
        for primary, spare in sorted(plan.assignment.items()):
            x1, y1 = centers[primary]
            x2, y2 = centers[spare]
            shapes.append(
                f'<line x1="{x1 - min_x:.2f}" y1="{y1 - min_y:.2f}" '
                f'x2="{x2 - min_x:.2f}" y2="{y2 - min_y:.2f}" '
                f'stroke="#000000" stroke-width="1.5" marker-end="url(#arrow)"/>'
            )

    defs = (
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>'
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f"{defs}\n" + "\n".join(shapes) + "\n</svg>\n"
    )
