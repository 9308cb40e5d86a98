"""Deterministic SVG renders of lattice colorings and single orbits.

SVG keeps the lattice geometry exact (no antialiasing ambiguity) and output
is byte-identical across runs for identical inputs: iteration order is fixed
and all numbers are formatted with explicit precision.

Each scanned render (residue colorings, diametral two-colorings, unit-circle
projections) is a generator of lists of strings: the header, one list per
scan block of ``rows._iter_blocks``, and the closing tag.  ``render_svg``
extends one list with them all and joins it once, so no block string is
built beside the document.  A block's list is gathered from a table of
string pieces; no per-cell string is built.  The table holds the block's
columns as one range, from its least to its greatest, at most the region's
width, and its rows, first to last, with pixel offsets in Python ints, so
any scale is exact.  A rect cell of a wide block, one with at least eight
cells per (row, color) pair, is two pieces: its column, and its row with
its color, one piece per pair.  A cell of any other block is three pieces,
one per column, row and color: there, formatting a piece per pair would
cost more than the third piece per cell it saves.  A one-column or one-row
block has a row or column piece per cell, which would cost more while it
waits than its text: such a block, whose table holds more than half as many
pieces as it has cells, is joined when it is made.  A projection point is
four pieces: the integer part and the three decimals of cx, the integer
part of cy, then cy's decimals and the color as one piece, with the
decimals rounded exactly as ``format(v, ".3f")`` rounds (``_thousandths``);
its table is fixed, built once per process.  The cells pick their pieces
by numpy index arithmetic.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cache
from itertools import starmap
from typing import Iterator

import numpy as np

from aughts.census import Region, ResourceLimitError
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
    region: Region | None  # None, or any region, for single_orbit: it is not read
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
        object.__setattr__(self, "first_generator", operator.index(self.first_generator))
        if self.mode not in RENDER_MODES:
            raise ValueError(f"unknown render mode {self.mode!r}")
        if self.region is None and self.mode != "single_orbit":
            raise ValueError(f"{self.mode} requires a region")
        for color in self.palette:
            if not re.fullmatch(r"#([0-9a-fA-F]{3}){1,2}", color):
                raise ValueError(f"palette entry {color!r} is not #RGB or #RRGGBB")
        if self.mode == "mod_color":
            if self.modulus is None or self.modulus < 2:
                raise ValueError("mod_color requires a modulus >= 2")
            have = len(self.palette)
            if self.modulus > have:
                plural = "" if have == 1 else "s"
                raise ValueError(f"palette has {have} color{plural}, need {self.modulus}")
        if self.mode == "single_orbit" and self.seed is None:
            raise ValueError("single_orbit requires a seed point")
        if self.scale < 1:
            raise ValueError("scale must be >= 1 pixel per lattice unit")


def render_svg(spec: RenderSpec) -> str:
    if spec.mode == "single_orbit":
        return _render_single_orbit(spec)
    _check_cells(spec.region)
    render = _render_projection if spec.mode == "projection" else _render_cells
    pieces: list[str] = []
    for block in render(spec):
        pieces += block
    return "".join(pieces)


def _check_cells(region: Region) -> None:
    """Stop before a scanned render whose bounding box has more than
    ``PIXEL_BUDGET`` cells."""
    xmin, xmax, ymin, ymax = region.bounds()
    cells = max(xmax - xmin + 1, 0) * max(ymax - ymin + 1, 0)
    if cells > PIXEL_BUDGET:
        raise ResourceLimitError(f"render needs {cells} cells, budget is {PIXEL_BUDGET}")


def _render_cells(spec: RenderSpec) -> Iterator[list[str]]:
    xmin, xmax, ymin, ymax = spec.region.bounds()
    s = spec.scale
    # an empty rect has a side of 0, not a negative one
    width = max(xmax - xmin + 1, 0) * s
    height = max(ymax - ymin + 1, 0) * s
    row_tail = f'" width="{s}" height="{s}" fill="'
    mod = spec.mode == "mod_color"
    # only the colors a cell can take: a residue is below the modulus
    used = spec.palette[: spec.modulus] if mod else (OTHER_COLOR, DIAMETRAL_COLOR)
    colors = [f'{c}"/>\n' for c in used]

    def block(x1: np.ndarray, x2: np.ndarray) -> tuple[list[str], bool]:
        """The block's pieces, and whether its table holds more than half
        as many pieces as it has cells: a row or column piece per cell."""
        # the length residue, or whether the cell lies in the cone
        color = 2 * _semi_perimeter(x1, x2) % spec.modulus if mod else _in_cone(x1, x2)
        # the block's columns, least to greatest, and the pixel offsets of
        # its rows, first to last; Python ints, exact for any scale
        x0 = int(x1.min())
        cols = range(x0, int(x1.max()) + 1)
        y0 = int(x2[0])
        rows = range((ymax - y0) * s, (ymax - int(x2[-1])) * s - s, -s)
        pieces = [f'<rect x="{(x - xmin) * s}" y="' for x in cols]
        if 8 * len(rows) * len(colors) <= len(x1):
            # a wide block: each row's piece carries the color, one piece
            # per (row, color), so a cell is two pieces
            pieces += [f"{py}{row_tail}{c}" for py in rows for c in colors]
            seq = np.empty((len(x1), 2), dtype=np.int64)
            seq[:, 1] = (x2 - y0) * len(colors) + color + len(cols)
        else:
            pieces += [str(py) + row_tail for py in rows]
            pieces += colors
            seq = np.empty((len(x1), 3), dtype=np.int64)
            seq[:, 1] = x2 - y0 + len(cols)
            seq[:, 2] = color + (len(cols) + len(rows))
        seq[:, 0] = x1 - x0
        return _gather(pieces, seq), 2 * len(pieces) > len(x1)

    yield [_svg_open(width, height) + "\n"]
    # starmap frees each block's arrays before its pieces are joined or
    # passed on, so the heap reuses them for the text or the next block
    for gathered, per_cell in starmap(block, _iter_blocks(spec.region)):
        # a one-column or one-row block's own pieces would outweigh its
        # text while they waited for the render's join
        if per_cell:
            gathered = ["".join(gathered)]
        yield gathered
    yield ["</svg>\n"]


def _render_projection(spec: RenderSpec) -> Iterator[list[str]]:
    """Each nonzero point as a dot at its direction on a circle of 220 px,
    from the piece table that ``_projection_pieces`` builds once per process."""
    radius_px = 220
    margin = 20
    size = 2 * (radius_px + margin)
    center = radius_px + margin
    # |x|/norm is 1 within a few ulps, so cx and cy round into [20, 460]:
    # one table serves every block, each column at a fixed offset
    pieces = _projection_pieces(size)
    offsets = np.cumsum([0, size + 1, 1000, size + 1])

    def block(x1: np.ndarray, x2: np.ndarray) -> list[str]:
        nonzero = (x1 != 0) | (x2 != 0)
        x1, x2 = x1[nonzero], x2[nonzero]
        # each square fits int64 (|x| <= 2^31) but their sum needs uint64
        norm = np.sqrt((x1 * x1).astype(np.uint64) + (x2 * x2).astype(np.uint64))
        seq = np.empty((len(x1), 4), dtype=np.int64)
        seq[:, 0], seq[:, 1] = np.divmod(_thousandths(center + radius_px * x1 / norm), 1000)
        seq[:, 2], seq[:, 3] = np.divmod(_thousandths(center - radius_px * x2 / norm), 1000)
        seq[:, 3] += 1000 * _in_cone(x1, x2)
        seq += offsets
        # the table is shared, so the gathered pieces wait for the join
        return _gather(pieces, seq)

    yield [
        _svg_open(size, size) + f'\n<circle cx="{center}" cy="{center}" r="{radius_px}" '
        'fill="none" stroke="#cccccc" stroke-width="1"/>\n'
    ]
    # as for the cells, each block's arrays are freed before the next
    yield from starmap(block, _iter_blocks(spec.region))
    yield ["</svg>\n"]


@cache
def _projection_pieces(size: int) -> np.ndarray:
    """The pieces of a projection of side ``size``: cx's integer part and
    decimals, cy's integer part, then cy's decimals with each color, as one
    read-only object array.  Each integer part and decimal is formatted once."""
    ints = [f"{i}." for i in range(size + 1)]
    decimals = [f"{f:03d}" for f in range(1000)]
    pieces = ['<circle cx="' + i for i in ints]
    pieces += [d + '" cy="' for d in decimals]
    pieces += ints
    for color in (OTHER_COLOR, DIAMETRAL_COLOR):
        tail = f'" r="2" fill="{color}"/>\n'
        pieces += [d + tail for d in decimals]
    table = np.array(pieces, dtype=object)
    table.setflags(write=False)  # cached: shared by every render
    return table


def _gather(pieces: list[str] | np.ndarray, seq: np.ndarray) -> list[str]:
    """The pieces that ``seq`` indexes, in row-major order."""
    # an object-array gather is about 3x faster than map(pieces.__getitem__)
    return np.asarray(pieces, dtype=object)[seq].ravel().tolist()


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
    # by the box law the nodes span box_side in x and in y
    xmin = min(p[0] for p in orbit.nodes)
    ymax = max(p[1] for p in orbit.nodes)
    s = spec.scale
    margin = 2 * s
    side = orbit.box_side * s + 2 * margin

    def to_px(p: Point) -> tuple[int, int]:
        return (p[0] - xmin) * s + margin, (ymax - p[1]) * s + margin

    points = [to_px(p) for p in orbit.nodes]
    path = "M " + " L ".join(f"{x} {y}" for x, y in points) + " Z"
    lines = [
        _svg_open(side, side),
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
    """Distinct fill colors other than ``none``, of the rect cells and the
    projection's circles alike (test/inspection helper)."""
    colors: set[str] = set()
    for chunk in svg_text.split('fill="')[1:]:
        color = chunk.split('"', 1)[0]
        if color != "none":
            colors.add(color)
    return colors
