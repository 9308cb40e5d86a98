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
form.  No count loops over rows in Python: rows come in chunks of up to 2^16
as int64 arrays (Python ints for a rect beyond the 2^31 guard),
``Region.row_spans`` gives their x-ranges, and numpy does the rest, so an
int64 row costs tens of nanoseconds and ``ROW_LIMIT`` bounds the work.  Only the angular histogram and the SVG renders scan points, in blocks
of at most 2^15 int64 points built from the same x-ranges with ``cumsum``
and ``repeat``, behind a bounding-box budget.  The orbit length, the cone
test and the cone's row form are defined once, in ``aughts.orbits``, for
ints and arrays alike.
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
# Rows per chunk of the row counts and the scan, so a chunk's arrays stay a
# few MB however many rows a region has.
_CHUNK_ROWS = 2**16
# Bounding-box cells an angular histogram may scan (about 56 ns each, 6 s).
POINT_LIMIT = 10**8
# Rows a row count may visit, so a far-flung region stops at once instead of
# running for days.  The disk lengths, the slower count, take about 100 ns a
# row in chunks of int64 rows: their worst case, r = 31,999,999, took 6.6 s
# on a 2-vCPU VM.  Rects beyond the 2^31 guard count in Python ints, about
# 1 us a row, and may visit an eighth as many rows (8.1 s for 8,000,000).
# Kept below 2^29 so that no disk row's int64 length sum can wrap.
ROW_LIMIT = 64_000_000
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

    def row_spans(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``row_span`` of each row of an int64 array, as two int64 arrays.

        Equal to ``row_span`` row by row for a region and rows within the
        2^31 guard; the box kinds also take an object array of Python ints,
        for rects beyond it.  The disk's half-width is an exact isqrt of
        v = r^2 - y^2 <= 2^62 from the float sqrt, which is never below it:
        rounding is monotone and sqrt(fl(k^2)) rounds to k for k <= 2^31, as
        fl(k^2) is within k^2 2^-53 of k^2.  It exceeds sqrt(v) by at most
        2^-21, so it truncates to isqrt(v) + 1 at most, which one step mends.
        """
        xmin, xmax, ymin, ymax = self.bounds()
        if self.kind == "hexagon_H":
            (m,) = self.params
            lo, hi = np.maximum(ys - m, -m), np.minimum(ys + m, m)
        elif self.kind == "disk":
            (r,) = self.params
            rest = np.maximum(r * r - ys * ys, 0)
            half = np.sqrt(rest.astype(np.float64)).astype(np.int64)
            half -= half * half > rest
            lo, hi = -half, half
        else:
            lo, hi = np.full_like(ys, xmin), np.full_like(ys, xmax)
        outside = (ys < ymin) | (ys > ymax)
        lo[outside], hi[outside] = 1, 0
        return lo, hi

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


def _row_chunks(ymin: int, ymax: int, dtype=np.int64) -> Iterator[np.ndarray]:
    """The rows ymin..ymax, ascending, as arrays of at most _CHUNK_ROWS."""
    for start in range(ymin, ymax + 1, _CHUNK_ROWS):
        yield np.arange(start, min(start + _CHUNK_ROWS, ymax + 1), dtype=dtype)


def _iter_blocks(region: Region) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the region's points as (x1, x2) arrays in row-major order.

    Rows ascend in y and each row ascends in x over its ``row_span``; a block
    holds up to _BLOCK_POINTS points, a wider row is split across blocks, and
    no block is empty.  Coordinates are bounded by 2^31 so that the int64
    kernels cannot wrap.  Each chunk of rows numbers its points row-major
    from 0; a block takes the next run of those numbers, and the piece of a
    chunk that ends a block started in the chunk before is joined to it.
    """
    xmin, xmax, ymin, ymax = region.bounds()
    if max(abs(xmin), abs(xmax), abs(ymin), abs(ymax)) > COORD_LIMIT:
        raise ValueError(f"region bounds {region.bounds()} exceed the 2^31 guard")
    if xmin > xmax:
        return
    pieces: list[tuple[np.ndarray, np.ndarray]] = []  # of the pending block
    room = _BLOCK_POINTS
    for ys in _row_chunks(ymin, ymax):
        lo, hi = region.row_spans(ys)
        # rows of a nonempty box are nonempty; row i holds the chunk's points
        # starts[i]..ends[i]-1, and point p of it has x = p + (lo - starts)[i]
        widths = hi - lo + 1
        ends = np.cumsum(widths)
        starts = ends - widths
        size = int(ends[-1])
        done = 0
        while done < size:
            take = min(room, size - done)
            stop = done + take
            rows = slice(
                int(np.searchsorted(ends, done, side="right")),
                int(np.searchsorted(ends, stop - 1, side="right")) + 1,
            )
            counts = np.minimum(ends[rows], stop) - np.maximum(starts[rows], done)
            pieces.append((
                np.arange(done, stop, dtype=np.int64)
                + np.repeat(lo[rows] - starts[rows], counts),
                np.repeat(ys[rows], counts),
            ))
            done, room = stop, room - take
            if room == 0:
                yield _joined(pieces)
                pieces, room = [], _BLOCK_POINTS
    if pieces:
        yield _joined(pieces)


def _joined(pieces: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    if len(pieces) == 1:
        return pieces[0]
    return tuple(np.concatenate(column) for column in zip(*pieces))


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
    # Within the 2^31 guard every span and count fits int64; only a rect can
    # lie beyond it within the row limit, and it counts in Python ints.
    beyond = max(map(abs, rows.bounds())) > COORD_LIMIT
    limit = ROW_LIMIT // 8 if beyond else ROW_LIMIT
    if ymax - ymin + 1 > limit:
        raise ResourceLimitError(
            f"diametral census needs {ymax - ymin + 1} rows, limit is {limit}"
        )
    dtype = object if beyond else np.int64
    total = 0
    hits = 0
    for ys in _row_chunks(ymin, ymax, dtype):
        lo, hi = rows.row_spans(ys)
        a, b = _cone_span(ys)
        total += int(np.maximum(hi - lo + 1, 0).sum())
        hits += int(np.maximum(np.minimum(b, hi) - np.maximum(a, lo) + 1, 0).sum())
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
    for ys in _row_chunks(-r, r):
        lo, hi = region.row_spans(ys)
        count += int((hi - lo + 1).sum())
        lengths = 2 * (
            _abs_linear_sum(2, -ys, lo, hi)
            + _abs_linear_sum(1, ys, lo, hi)
            + _abs_linear_sum(1, -2 * ys, lo, hi)
        )
        # each row's total is below 2^60 (r <= 2^28) but a chunk's sum need
        # not be: add the high and low 32 bits apart, each sum within int64
        total += (int((lengths >> 32).sum()) << 32) + int((lengths & 0xFFFFFFFF).sum())
        maximum = max(
            maximum,
            int(_semi_perimeter(lo, ys).max()) * 2,
            int(_semi_perimeter(hi, ys).max()) * 2,
        )
    return DiskLengthStats(r, count, total / count, maximum)


def _abs_linear_sum(a: int, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sum of |a*x + b| over the integers lo <= x <= hi, per row, for a > 0.

    int64 arrays of rows; on the rows of a disk of radius r <= 2^28, with
    a <= 2 and |b| <= 2r, no term exceeds 2^60.
    """

    def linear(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        # sum of a*x + b over p <= x <= q; (p + q)(q - p + 1) is even
        n = q - p + 1
        return np.where(n > 0, a * (p + q) * n // 2 + b * n, 0)

    k = (-b) // a  # a*x + b <= 0 exactly for x <= k
    return linear(np.maximum(lo, k + 1), hi) - linear(lo, np.minimum(hi, k))


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
