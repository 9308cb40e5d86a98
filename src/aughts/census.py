"""Counting formulas, censuses and averages over lattice regions.

Two counting bases never mix: modular censuses and the orbit averages count
DISTINCT ORBITS, while diametral fractions and the disk length average count
LATTICE POINTS with multiplicity.

Neither the distinct-orbit census of [0,M]^2 nor the diametral counts scan
points; both are exact Python-int counts.  A point of [0,M]^2 is the
lexicographically largest node of its orbit inside the square iff it lies in
the closed cone x/2 <= y <= 2x, where the orbit length is 4(x+y), so the
census sums the cone's points per anti-diagonal in closed form.  A point
other than the origin is diametral iff it or its negative lies in that cone,
so each row contributes the interval intersection of its x-range with the
cone.  The disk length statistics sum each row's orbit lengths in closed
form.  Only the angular histogram and the SVG renders scan points, in blocks
of at most 2^15 int64 points built from the same per-row x-ranges, behind a
bounding-box budget.  The orbit length, the cone test and the cone's row
form are defined once, in ``aughts.orbits``, for ints and arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from aughts.errors import ResourceLimitError
from aughts.orbits import COORD_LIMIT, _cone_span, _in_cone, _semi_perimeter

# Points per scan block, so a block's arrays stay a few MB however wide the rows.
_BLOCK_POINTS = 2**15
# Bounding-box cells an angular histogram may scan (about 56 ns each, 6 s).
POINT_LIMIT = 10**8
# Rows a per-row count may visit (about 2 us each for a diametral count,
# 12 us for the disk lengths), so a far-flung region stops at once instead of
# running for days.
ROW_LIMIT = 4_000_000
# Largest modulus of a census: it builds and prints one count per residue.
MODULUS_LIMIT = 2**16


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Region:
    """Integer lattice region; ``row_span`` is its exact membership rule.

    Kinds: ``square_0M`` = [0,M]^2, ``square_sym`` = [-R,R]^2,
    ``hexagon_H`` = [-M,M]^2 with the two corners |x-y| > M cut off,
    ``disk`` = x^2+y^2 <= R^2, and ``rect`` = [x0,x1] x [y0,y1].
    """

    kind: str
    params: tuple[int, ...]

    @classmethod
    def square(cls, m: int) -> "Region":
        _check_size(m)
        return cls("square_0M", (m,))

    @classmethod
    def sym_square(cls, r: int) -> "Region":
        _check_size(r)
        return cls("square_sym", (r,))

    @classmethod
    def hexagon(cls, m: int) -> "Region":
        _check_size(m)
        return cls("hexagon_H", (m,))

    @classmethod
    def disk(cls, r: int) -> "Region":
        _check_size(r)
        return cls("disk", (r,))

    @classmethod
    def rect(cls, x0: int, x1: int, y0: int, y1: int) -> "Region":
        return cls("rect", (x0, x1, y0, y1))

    @property
    def size(self) -> int:
        """Characteristic linear size (M or R); rects use the larger span."""
        if self.kind == "rect":
            x0, x1, y0, y1 = self.params
            return max(x1 - x0, y1 - y0, 0)
        return self.params[0]

    def bounds(self) -> tuple[int, int, int, int]:
        """(xmin, xmax, ymin, ymax) of the bounding box."""
        if self.kind == "square_0M":
            (m,) = self.params
            return 0, m, 0, m
        if self.kind in ("square_sym", "disk"):
            (r,) = self.params
            return -r, r, -r, r
        if self.kind == "hexagon_H":
            (m,) = self.params
            return -m, m, -m, m
        if self.kind == "rect":
            x0, x1, y0, y1 = self.params
            return x0, x1, y0, y1
        raise ValueError(f"unknown region kind {self.kind!r}")

    def row_span(self, y: int) -> tuple[int, int]:
        """Inclusive x-range (lo, hi) of row y, exact in Python ints.

        The range is empty (lo > hi) for rows outside the region.
        """
        xmin, xmax, ymin, ymax = self.bounds()
        if not ymin <= y <= ymax:
            return 1, 0
        if self.kind == "hexagon_H":
            (m,) = self.params
            return max(-m, y - m), min(m, y + m)
        if self.kind == "disk":
            (r,) = self.params
            half = math.isqrt(r * r - y * y)
            return -half, half
        return xmin, xmax

    def contains(self, x1: int, x2: int) -> bool:
        lo, hi = self.row_span(x2)
        return lo <= x1 <= hi

    def describe(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}


def _check_size(value: int) -> None:
    if value < 1:
        raise ValueError(f"region size must be >= 1, got {value}")


def _check_cells(region: Region, limit: int, what: str) -> None:
    """Stop before a scan whose bounding box has more than ``limit`` cells."""
    xmin, xmax, ymin, ymax = region.bounds()
    cells = max(xmax - xmin + 1, 0) * max(ymax - ymin + 1, 0)
    if cells > limit:
        raise ResourceLimitError(f"{what} needs {cells} cells, budget is {limit}")


def _iter_blocks(region: Region) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the region's points as (x1, x2) arrays in row-major order.

    Rows ascend in y and each row ascends in x over its ``row_span``; a block
    holds up to _BLOCK_POINTS points, a wider row is split across blocks, and
    no block is empty.  Coordinates are bounded by 2^31 so that the int64
    kernels cannot wrap.
    """
    xmin, xmax, ymin, ymax = region.bounds()
    if max(abs(xmin), abs(xmax), abs(ymin), abs(ymax)) > COORD_LIMIT:
        raise ValueError(f"region bounds {region.bounds()} exceed the 2^31 guard")
    if xmin > xmax:
        return
    # (first x, y, length) of each row segment in the pending block
    segments: list[tuple[int, int, int]] = []
    room = _BLOCK_POINTS
    for y in range(ymin, ymax + 1):
        lo, hi = region.row_span(y)
        while lo <= hi:
            take = min(hi - lo + 1, room)
            segments.append((lo, y, take))
            lo += take
            room -= take
            if room == 0:
                yield _block(segments)
                segments, room = [], _BLOCK_POINTS
    if segments:
        yield _block(segments)


def _block(segments: list[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    los, ys, counts = (np.array(col, dtype=np.int64) for col in zip(*segments))
    # point i of the block has x = i + (first x of its segment - index of the
    # segment's first point)
    offsets = los - (np.cumsum(counts) - counts)
    x1 = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(offsets, counts)
    return x1, np.repeat(ys, counts)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CensusReport:
    region: Region
    basis: str                       # "orbits" or "points"
    modulus: int | None
    total_points: int
    total_orbits: int
    residue_counts: dict[int, int]
    diametral_points: int
    sum_perimeter: int

    @property
    def sum_box_side(self) -> int:
        """By the box law each box side is a quarter of the orbit length."""
        return self.sum_perimeter // 4

    sum_diam_multiplier = sum_box_side

    @property
    def diametral_fraction(self) -> float:
        if self.total_points == 0:
            return 0.0
        return self.diametral_points / self.total_points

    def to_json_dict(self) -> dict:
        size = self.region.size
        out: dict = {
            "schema_version": 1,
            "kind": "census",
            "region": self.region.describe(),
            "basis": self.basis,
            "total_points": self.total_points,
        }
        if self.basis == "orbits":
            out["modulus"] = self.modulus
            out["total_orbits"] = self.total_orbits
            out["residue_counts"] = {str(r): c for r, c in self.residue_counts.items()}
            out["sums"] = {
                "diam_multiplier": self.sum_diam_multiplier,
                "perimeter": self.sum_perimeter,
                "box_side": self.sum_box_side,
            }
            ratios = {}
            if size > 0:
                for r, c in self.residue_counts.items():
                    ratios[str(r)] = _sig12(c / size**2)
            out["residue_ratio_of_size_sq"] = ratios
            if self.total_orbits:
                out["averages"] = {
                    "diameter": _sig12(
                        math.sqrt(2) * self.sum_diam_multiplier / self.total_orbits
                    ),
                    "perimeter": _sig12(self.sum_perimeter / self.total_orbits),
                    "box_side": _sig12(self.sum_box_side / self.total_orbits),
                }
        else:
            out["diametral_points"] = self.diametral_points
            out["diametral_fraction"] = _sig12(self.diametral_fraction)
        return out


def _sig12(value: float) -> float:
    return float(f"{value:.12g}")


# ---------------------------------------------------------------------------
# closed-form counting


def count_orbits_with_perimeter(x: int) -> int:
    """Number of distinct orbits in the whole plane with length exactly x."""
    if x < 1:
        raise ValueError(f"perimeter must be >= 1, got {x}")
    if x % 4 != 0:
        return 0
    return x // 6 - math.ceil(x / 12) + 1


@dataclass(frozen=True)
class PerimeterStats:
    count: int
    total: int
    average: float


def cumulative_perimeter_stats(t: int) -> PerimeterStats:
    """Exact count/sum/average of orbits with length in [4, t].

    Only lengths 4k carry orbits.  Writing k = 3q + r, length 4k carries
    q + 1, q or q + 1 orbits for r = 0, 1 or 2, so each residue class sums
    in closed form over its range of q.
    """
    if t < 4:
        raise ValueError(f"threshold must be >= 4, got {t}")
    kmax = t // 4
    count = 0
    total = 0
    for r, extra in ((0, 1), (1, 0), (2, 1)):
        # terms k = 3q + r with 1 <= k <= kmax, each carrying q + extra orbits
        qlo, qhi = (1 if r == 0 else 0), (kmax - r) // 3
        s0, s1, s2 = _power_sums(qlo, qhi)
        count += s1 + extra * s0
        total += 4 * (3 * s2 + (r + 3 * extra) * s1 + r * extra * s0)
    return PerimeterStats(count, total, total / count if count else 0.0)


def _power_sums(lo: int, hi: int) -> tuple[int, int, int]:
    """(sum 1, sum q, sum q^2) over the integers lo <= q <= hi.

    Needs 0 <= lo <= hi + 1; an empty range (hi = lo - 1) sums to zeros.
    """

    def upto(n: int) -> tuple[int, int, int]:
        return n + 1, n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6

    top, below = upto(hi), upto(lo - 1)
    return tuple(a - b for a, b in zip(top, below))


# ---------------------------------------------------------------------------
# region censuses


def square_orbit_sums(m: int, d: int = 1) -> tuple[list[int], int, int]:
    """(orbits per length residue mod d, orbit count, length sum) over [0,m]^2.

    The orbits meeting [0,m]^2 correspond one to one with the square's points
    in the cone x/2 <= y <= 2x, the largest node of each orbit inside the
    square.  The anti-diagonal x + y = s holds n(s) = min(2s//3, m) -
    max(ceil(s/3), s-m) + 1 of them, each of length 4s: for s <= 3m//2 that
    is (s - s%3)/3 + 1, less 1 when s%3 == 1, and above it 2m + 1 - s.  On
    each class s = c + 3d*j, n is linear in j and 4s mod d is fixed, so
    power sums over j count each class exactly.
    """
    if not 1 <= m <= COORD_LIMIT:
        raise ValueError(f"m must be in 1..2^31, got {m}")
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    if d > MODULUS_LIMIT:
        raise ResourceLimitError(f"modulus {d} exceeds the limit {MODULUS_LIMIT}")
    period, split = 3 * d, 3 * m // 2
    residues = [0] * d
    count = length = 0
    for c in range(min(period, 2 * m + 1)):
        r = c % 3
        # (n at j = 0, n's step per j, first s, last s) of both s-ranges
        for a, b, lo, hi in (
            ((c - r) // 3 + (r != 1), d, 0, split),
            (2 * m + 1 - c, -period, split + 1, 2 * m),
        ):
            s0, s1, s2 = _power_sums((lo - c + period - 1) // period, (hi - c) // period)
            n = a * s0 + b * s1
            residues[4 * c % d] += n
            count += n
            # sum over j of 4(c + period*j)(a + b*j)
            length += 4 * (c * a * s0 + (c * b + period * a) * s1 + period * b * s2)
    return residues, count, length


def modular_census(m: int, d: int) -> CensusReport:
    """Tally DISTINCT orbits seeded from [0,m]^2 by orbit length mod d.

    By the box law the diameter multiplier and the box side of an orbit are
    each a quarter of its length, and so are their sums.
    """
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    residues, count, length = square_orbit_sums(m, d)
    return CensusReport(
        region=Region.square(m),
        basis="orbits",
        modulus=d,
        total_points=(m + 1) ** 2,
        total_orbits=count,
        residue_counts=dict(enumerate(residues)),
        diametral_points=0,
        sum_perimeter=length,
    )


def diametral_report(region: Region) -> CensusReport:
    """Count LATTICE POINTS of the region that are diametral in their orbit.

    Each row adds its whole x-range to the total and its intersection with
    the diametral cone to the hits; no point is visited.
    """
    if region.kind != "rect" and region.size < 100:
        raise ValueError("diametral census requires region size >= 100")
    rows = region
    if region.kind == "rect":
        x0, x1, y0, y1 = region.params
        if y1 - y0 > x1 - x0:
            # The cone is symmetric under swapping x and y, so a tall rect
            # counts the same as its transpose, which has fewer rows.
            rows = Region.rect(y0, y1, x0, x1)
    _, _, ymin, ymax = rows.bounds()
    if ymax - ymin + 1 > ROW_LIMIT:
        raise ResourceLimitError(
            f"diametral census needs {ymax - ymin + 1} rows, limit is {ROW_LIMIT}"
        )
    total = 0
    hits = 0
    for y in range(ymin, ymax + 1):
        lo, hi = rows.row_span(y)
        if lo > hi:
            continue
        total += hi - lo + 1
        a, b = _cone_span(y)
        hits += max(0, min(b, hi) - max(a, lo) + 1)
    return CensusReport(
        region=region,
        basis="points",
        modulus=None,
        total_points=total,
        total_orbits=0,
        residue_counts={},
        diametral_points=hits,
        sum_perimeter=0,
    )


def diametral_census(region: Region) -> float:
    """Fraction of the region's lattice points that are diametral."""
    return diametral_report(region).diametral_fraction


# ---------------------------------------------------------------------------
# averages


@dataclass(frozen=True)
class OrbitAverages:
    """Orbit-deduplicated averages over the square [0, m]^2."""

    m: int
    orbit_count: int
    diameter: float
    box_side: float
    perimeter: float


def square_orbit_averages(m: int) -> OrbitAverages:
    if m < 100:
        raise ValueError(f"m must be >= 100 for the tolerance contract, got {m}")
    _, count, length = square_orbit_sums(m)
    return OrbitAverages(
        m=m,
        orbit_count=count,
        diameter=math.sqrt(2) * (length // 4) / count,
        box_side=(length // 4) / count,
        perimeter=length / count,
    )


@dataclass(frozen=True)
class DiskLengthStats:
    r: int
    point_count: int
    average: float
    maximum: int


def disk_length_stats(r: int) -> DiskLengthStats:
    """Point-weighted orbit length statistics over the disk of radius r.

    Every lattice point contributes the length of its own orbit, so orbits
    are counted with multiplicity here, unlike the square averages.  Each
    row sums 2(|2x-y| + |x+y| + |2y-x|) over its x-range in closed form; the
    length is convex along a row, so the row's maximum is at one of its ends.
    """
    if r < 100:
        raise ValueError(f"r must be >= 100 for the tolerance contract, got {r}")
    region = Region.disk(r)
    if 2 * r + 1 > ROW_LIMIT:
        raise ResourceLimitError(
            f"disk length stats need {2 * r + 1} rows, limit is {ROW_LIMIT}"
        )
    total = 0
    count = 0
    maximum = 0
    for y in range(-r, r + 1):
        lo, hi = region.row_span(y)
        count += hi - lo + 1
        total += 2 * (
            _abs_linear_sum(2, -y, lo, hi)
            + _abs_linear_sum(1, y, lo, hi)
            + _abs_linear_sum(1, -2 * y, lo, hi)
        )
        maximum = max(
            maximum, 2 * _semi_perimeter(lo, y), 2 * _semi_perimeter(hi, y)
        )
    return DiskLengthStats(r, count, total / count, maximum)


def _abs_linear_sum(a: int, b: int, lo: int, hi: int) -> int:
    """Sum of |a*x + b| over the integers lo <= x <= hi, for a > 0."""

    def linear(p: int, q: int) -> int:
        # sum of a*x + b over p <= x <= q; (p + q)(q - p + 1) is even
        return a * (p + q) * (q - p + 1) // 2 + b * (q - p + 1) if p <= q else 0

    k = (-b) // a  # a*x + b <= 0 exactly for x <= k
    return linear(max(lo, k + 1), hi) - linear(lo, min(hi, k))


# ---------------------------------------------------------------------------
# angular histogram


@dataclass(frozen=True)
class ProjectionHistogram:
    bins: int
    diametral: tuple[int, ...]
    others: tuple[int, ...]


def projection_histogram(region: Region, bins: int) -> ProjectionHistogram:
    """Counts of diametral / non-diametral points per direction-angle bin.

    The origin has no direction and is skipped.
    """
    if bins < 8:
        raise ValueError(f"need at least 8 bins, got {bins}")
    _check_cells(region, POINT_LIMIT, "angular histogram")
    dia = np.zeros(bins, dtype=np.int64)
    oth = np.zeros(bins, dtype=np.int64)
    for x1, x2 in _iter_blocks(region):
        nonzero = (x1 != 0) | (x2 != 0)
        x1, x2 = x1[nonzero], x2[nonzero]
        theta = np.arctan2(x2.astype(float), x1.astype(float)) % (2 * math.pi)
        idx = np.minimum((theta / (2 * math.pi) * bins).astype(np.int64), bins - 1)
        mask = _in_cone(x1, x2)
        dia += np.bincount(idx[mask], minlength=bins)
        oth += np.bincount(idx[~mask], minlength=bins)
    return ProjectionHistogram(bins, tuple(int(v) for v in dia), tuple(int(v) for v in oth))
