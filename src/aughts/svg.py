"""Deterministic SVG renders of lattice colorings and single orbits.

SVG keeps the lattice geometry exact (no antialiasing ambiguity) and output
is byte-identical across runs for identical inputs: iteration order is fixed
and all numbers are formatted with explicit precision.

The scanned renders (residue colorings, diametral two-colorings, unit-circle
projections) emit each scan block of ``rows._iter_blocks`` as one string,
made by one join over a table of string pieces; no per-cell string is built.
A rect cell is three pieces, one per column, row and color: the table holds
the block's columns as one range, from its least to its greatest, at most
the region's width, and its rows, first to last, with pixel offsets in
Python ints, so any scale is exact.  A projection point is five pieces: the
integer part and the three decimals of cx, then of cy, then the color, with
the decimals rounded exactly as ``format(v, ".3f")`` rounds
(``_thousandths``).  The cells pick their pieces by numpy index arithmetic.
``render_svg`` still returns the whole document as one string.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from aughts.census import Region
from aughts.errors import ResourceLimitError
from aughts.orbits import Point, _in_cone, _semi_perimeter, orbit2d
from aughts.rows import _iter_blocks

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
        # integers only, as a Region's params: a numpy integer becomes an int
        if self.modulus is not None:
            object.__setattr__(self, "modulus", operator.index(self.modulus))
        object.__setattr__(self, "scale", operator.index(self.scale))
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
    if spec.mode == "single_orbit":
        return _render_single_orbit(spec)
    _check_cells(spec.region)
    if spec.mode == "projection":
        return _render_projection(spec)
    return _render_cells(spec, _mod_colors if spec.mode == "mod_color" else _diametral_colors)


def _check_cells(region: Region) -> None:
    """Stop before a scanned render whose bounding box has more than
    ``PIXEL_BUDGET`` cells."""
    xmin, xmax, ymin, ymax = region.bounds()
    cells = max(xmax - xmin + 1, 0) * max(ymax - ymin + 1, 0)
    if cells > PIXEL_BUDGET:
        raise ResourceLimitError(f"render needs {cells} cells, budget is {PIXEL_BUDGET}")


def _mod_colors(
    spec: RenderSpec, x1: np.ndarray, x2: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray]:
    """(color table, int64 index into it) of each cell: the length residue."""
    return spec.palette, 2 * _semi_perimeter(x1, x2) % spec.modulus


def _diametral_colors(
    spec: RenderSpec, x1: np.ndarray, x2: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray]:
    return (OTHER_COLOR, DIAMETRAL_COLOR), _in_cone(x1, x2).astype(np.int64)


def _render_cells(spec: RenderSpec, colorizer) -> str:
    xmin, xmax, ymin, ymax = spec.region.bounds()
    s = spec.scale
    # an empty rect has a side of 0, not a negative one
    width = max(xmax - xmin + 1, 0) * s
    height = max(ymax - ymin + 1, 0) * s
    parts = [_svg_open(width, height), "\n"]
    row_tail = f'" width="{s}" height="{s}" fill="'
    for x1, x2 in _iter_blocks(spec.region):
        table, color = colorizer(spec, x1, x2)
        # the block's columns, least to greatest, and the pixel offsets of
        # its rows, first to last; Python ints, exact for any scale
        x0 = int(x1.min())
        cols = range(x0, int(x1.max()) + 1)
        y0 = int(x2[0])
        rows = range((ymax - y0) * s, (ymax - int(x2[-1])) * s - s, -s)
        pieces = [f'<rect x="{(x - xmin) * s}" y="' for x in cols]
        pieces += [str(py) + row_tail for py in rows]
        pieces += [f'{c}"/>\n' for c in table]
        seq = np.empty((len(x1), 3), dtype=np.int64)
        seq[:, 0] = x1 - x0
        seq[:, 1] = x2 - y0 + len(cols)
        seq[:, 2] = color + (len(cols) + len(rows))
        parts.append(_join(pieces, seq))
    parts.append("</svg>\n")
    return "".join(parts)


def _render_projection(spec: RenderSpec) -> str:
    radius_px = 220
    margin = 20
    size = 2 * (radius_px + margin)
    center = radius_px + margin
    parts = [
        _svg_open(size, size),
        f'\n<circle cx="{center}" cy="{center}" r="{radius_px}" fill="none" '
        f'stroke="#cccccc" stroke-width="1"/>\n',
    ]
    cx_frac = [f'{f:03d}" cy="' for f in range(1000)]
    cy_frac = [f'{f:03d}" r="2" fill="' for f in range(1000)]
    colors = [f'{c}"/>\n' for c in (OTHER_COLOR, DIAMETRAL_COLOR)]
    for x1, x2 in _iter_blocks(spec.region):
        nonzero = (x1 != 0) | (x2 != 0)
        x1, x2 = x1[nonzero], x2[nonzero]
        if not len(x1):
            continue
        mask = _in_cone(x1, x2)
        # each square fits int64 (|x| <= 2^31) but their sum needs uint64
        norm = np.sqrt((x1 * x1).astype(np.uint64) + (x2 * x2).astype(np.uint64))
        cx = _thousandths(center + radius_px * x1 / norm)
        cy = _thousandths(center - radius_px * x2 / norm)
        # integer parts from the block's own least to greatest
        cx_int, cy_int = cx // 1000, cy // 1000
        cx0, cy0 = int(cx_int.min()), int(cy_int.min())
        pieces = [f'<circle cx="{i}.' for i in range(cx0, int(cx_int.max()) + 1)]
        cx_frac0 = len(pieces)
        pieces += cx_frac
        pieces += [f"{i}." for i in range(cy0, int(cy_int.max()) + 1)]
        cy_frac0 = len(pieces)
        pieces += cy_frac + colors
        seq = np.empty((len(x1), 5), dtype=np.int64)
        seq[:, 0] = cx_int - cx0
        seq[:, 1] = cx % 1000 + cx_frac0
        seq[:, 2] = cy_int - cy0 + (cx_frac0 + 1000)
        seq[:, 3] = cy % 1000 + cy_frac0
        seq[:, 4] = mask + (cy_frac0 + 1000)
        parts.append(_join(pieces, seq))
    parts.append("</svg>\n")
    return "".join(parts)


def _join(pieces: list[str], seq: np.ndarray) -> str:
    """The pieces that ``seq`` indexes, joined in row-major order."""
    # an object-array gather is about 3x faster than map(pieces.__getitem__)
    return "".join(np.array(pieces, dtype=object)[seq].ravel().tolist())


def _thousandths(v: np.ndarray) -> np.ndarray:
    """Each value in thousandths, rounded as ``format(v, ".3f")`` rounds it.

    Returns int64 t with ``format(v, ".3f") == f"{t // 1000}.{t % 1000:03d}"``
    for every double 0 <= v < 2^19 / 1000 (the projection's lie in [20, 460]).
    ``format`` rounds the exact value 1000 v to an integer, ties to even.
    The product t = fl(1000 v) is below 2^19, so its ulp is at most 2^-34 and
    |t - 1000 v| <= 2^-35; adding 1/2 errs by at most as much again.  Where
    the fraction of t lies at least 10^-6 from 1/2, 1000 v lies on the same
    side of the half-integer as t and is no tie, so floor(t + 1/2) is the
    correctly rounded integer.  The few values within the margin, among them
    every exact tie (v an odd multiple of 1/16) and every double nearest a
    decimal midpoint such as 20.0005, are formatted by Python itself.
    """
    t = v * 1000.0
    out = np.floor(t + 0.5).astype(np.int64)
    near = np.flatnonzero(np.abs(t - np.floor(t) - 0.5) < 1e-6)
    out[near] = [int(format(x, ".3f").replace(".", "")) for x in v[near].tolist()]
    return out


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
