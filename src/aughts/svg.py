"""Deterministic SVG renders of lattice colorings and single orbits.

SVG keeps the lattice geometry exact (no antialiasing ambiguity) and output
is byte-identical across runs for identical inputs: iteration order is fixed
and all numbers are formatted with explicit precision.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from aughts.census import Region, _check_cells, _iter_blocks
from aughts.orbits import Point, _in_cone, _semi_perimeter, orbit2d

PIXEL_BUDGET = 1_500_000

DEFAULT_PALETTE: tuple[str, ...] = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
    "#c49c94", "#f7b6d2", "#dbdb8d", "#9edae5",
)

DIAMETRAL_COLOR = "#d62728"
OTHER_COLOR = "#1f77b4"

RENDER_MODES = ("mod_color", "diametral", "projection", "single_orbit")


@dataclass(frozen=True)
class RenderSpec:
    region: Region
    mode: str
    modulus: int | None = None
    palette: tuple[str, ...] = DEFAULT_PALETTE
    scale: int = 10
    seed: Point | None = None
    first_generator: int = 1

    def __post_init__(self) -> None:
        if self.mode not in RENDER_MODES:
            raise ValueError(f"unknown render mode {self.mode!r}")
        for color in self.palette:
            if not re.fullmatch(r"#([0-9a-fA-F]{3}){1,2}", color):
                raise ValueError(f"palette entry {color!r} is not #RGB or #RRGGBB")
        if self.mode == "mod_color":
            if self.modulus is None or self.modulus < 2:
                raise ValueError("mod_color requires a modulus >= 2")
            if self.modulus > len(self.palette):
                raise ValueError(
                    f"palette has {len(self.palette)} colors, need {self.modulus}"
                )
        if self.mode == "single_orbit" and self.seed is None:
            raise ValueError("single_orbit requires a seed point")
        if self.scale < 1:
            raise ValueError("scale must be >= 1 pixel per lattice unit")


def render_svg(spec: RenderSpec) -> str:
    if spec.mode == "mod_color":
        return _render_cells(spec, _mod_colors)
    if spec.mode == "diametral":
        return _render_cells(spec, _diametral_colors)
    if spec.mode == "projection":
        return _render_projection(spec)
    return _render_single_orbit(spec)


def _mod_colors(spec: RenderSpec, x1: np.ndarray, x2: np.ndarray) -> list[str]:
    residues = 2 * _semi_perimeter(x1, x2) % spec.modulus
    return [spec.palette[int(r)] for r in residues]


def _diametral_colors(spec: RenderSpec, x1: np.ndarray, x2: np.ndarray) -> list[str]:
    mask = _in_cone(x1, x2)
    return [DIAMETRAL_COLOR if m else OTHER_COLOR for m in mask]


def _render_cells(spec: RenderSpec, colorizer) -> str:
    _check_cells(spec.region, PIXEL_BUDGET, "render")
    xmin, xmax, ymin, ymax = spec.region.bounds()
    s = spec.scale
    width = (xmax - xmin + 1) * s
    height = (ymax - ymin + 1) * s
    lines = [_svg_open(width, height)]
    for x1, x2 in _iter_blocks(spec.region):
        colors = colorizer(spec, x1, x2)
        for a, b, color in zip(x1.tolist(), x2.tolist(), colors):
            px = (a - xmin) * s
            py = (ymax - b) * s
            lines.append(
                f'<rect x="{px}" y="{py}" width="{s}" height="{s}" fill="{color}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_projection(spec: RenderSpec) -> str:
    _check_cells(spec.region, PIXEL_BUDGET, "render")
    radius_px = 220
    margin = 20
    size = 2 * (radius_px + margin)
    center = radius_px + margin
    lines = [
        _svg_open(size, size),
        f'<circle cx="{center}" cy="{center}" r="{radius_px}" fill="none" '
        f'stroke="#cccccc" stroke-width="1"/>',
    ]
    for x1, x2 in _iter_blocks(spec.region):
        nonzero = (x1 != 0) | (x2 != 0)
        x1, x2 = x1[nonzero], x2[nonzero]
        mask = _in_cone(x1, x2)
        # each square fits int64 (|x| <= 2^31) but their sum needs uint64
        norm = np.sqrt((x1 * x1).astype(np.uint64) + (x2 * x2).astype(np.uint64))
        cx = center + radius_px * x1 / norm
        cy = center - radius_px * x2 / norm
        for px, py, m in zip(cx.tolist(), cy.tolist(), mask.tolist()):
            color = DIAMETRAL_COLOR if m else OTHER_COLOR
            lines.append(
                f'<circle cx="{px:.3f}" cy="{py:.3f}" r="2" fill="{color}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_single_orbit(spec: RenderSpec) -> str:
    orbit = orbit2d(spec.seed, spec.first_generator)
    xs = [p[0] for p in orbit.nodes]
    ys = [p[1] for p in orbit.nodes]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    s = spec.scale
    margin = 2 * s
    width = (xmax - xmin) * s + 2 * margin
    height = (ymax - ymin) * s + 2 * margin

    def to_px(p: Point) -> tuple[int, int]:
        return (p[0] - xmin) * s + margin, (ymax - p[1]) * s + margin

    points = [to_px(p) for p in orbit.nodes]
    path = "M " + " L ".join(f"{x} {y}" for x, y in points) + " Z"
    lines = [
        _svg_open(width, height),
        f'<path d="{path}" fill="none" stroke="{OTHER_COLOR}" stroke-width="2"/>',
    ]
    for x, y in points:
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="{DIAMETRAL_COLOR}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _svg_open(width: int | float, height: int | float) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )


def used_fill_colors(svg_text: str) -> set[str]:
    """Distinct fill colors of the rect cells (test/inspection helper)."""
    colors: set[str] = set()
    for chunk in svg_text.split('fill="')[1:]:
        color = chunk.split('"', 1)[0]
        if color != "none":
            colors.add(color)
    return colors
