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
so a square, sym-square, hexagon or rect counts the cone's points in its
bounding box by inclusion-exclusion over one quadrant count in closed form,
visiting no row.  The disk, symmetric under x -> -x and y -> -y, reads its
rows 0..R, a row y > 0 twice: it counts the row's points in the cone's span
[ceil(y/2), 2y] and sums their orbit lengths in closed form.  The angular
histogram counts rows too: a row's points lie in angle order, so it adds its
x-range and its cone span to the bin of one end, and each bin boundary it
crosses moves the points at or past that ray, a floor of y cot phi, up one
bin; the bins are exact, as each boundary's cotangent is correctly rounded,
so a float quotient x/y below or above it is so for certain, and a float
floor off its margin is exact, with integer brackets of cos and sin deciding
the rest.  No count loops over rows in Python: ``_rows`` gives them in chunks
of up to 2^16 as int64 arrays with their ``Region.row_spans`` x-ranges, and
numpy does the rest, so a row costs tens of nanoseconds and ``WORK_LIMIT``
bounds the rows and crossings that the disk counts and the histogram read.
Only the SVG renders scan points: ``_runs`` cuts each chunk into blocks of
at most ``_RUN`` int64 points, as it cuts the histogram's crossed (row, ray)
pairs into pieces.  The orbit length, the cone's row form and the cone test
are defined once, in ``aughts.orbits``, for ints and arrays alike.
Every census, average and length statistic is exact at every size >= 1, and
each scalar argument enters through ``operator.index``, as a ``Region``'s
params do, so a numpy integer becomes an int and no Python-int formula wraps
in int64.  Each ratio and average of a census record is rounded once, to 12
significant digits, from its exact ints, and the diameter average of
``square_orbit_averages`` once to a double, by ``_root_digits``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from aughts.errors import ResourceLimitError
from aughts.orbits import _cone_span, _semi_perimeter

# Rows per chunk of the row counts and the scan, so a chunk's arrays stay a
# few MB however many rows a region has.
_CHUNK_ROWS = 2**16
# Items per run of ``_runs``: points per scan block and crossed (row, ray)
# pairs per histogram piece, so a run's arrays stay a few MB however wide the
# rows or however many rays they cross.
_RUN = 2**15
# Rows plus crossed (row, ray) pairs a row count may read: R + 1 rows for a
# disk count, and for an angular histogram at most ``_histogram_work``, both
# checked before any row is read.  The disk lengths, the slowest, take about
# 120 ns a row, so about 11 s at the limit; a histogram row takes 60-70 ns and
# a crossing 30-75 ns (2-vCPU VM).  Below 2^27, so no doubled int64 row sum of
# the disk lengths and no int64 bin sum of a histogram wraps, and every disk
# within it lies inside the 2^31 guard.
WORK_LIMIT = 9 * 10**7
# Bins of an angular histogram: it brackets every boundary's cotangent once,
# about 8 us a bin (0.5 s at the limit).
BINS_LIMIT = 2**16
# Largest modulus of a census: it builds and prints one count per residue.
MODULUS_LIMIT = 2**16


# ---------------------------------------------------------------------------
# regions


# Params of each region kind: the size M or R, or a rect's x0, x1, y0, y1.
_PARAM_COUNTS = {"square_0M": 1, "square_sym": 1, "hexagon_H": 1, "disk": 1, "rect": 4}


@dataclass(frozen=True)
class Region:
    """Integer lattice region; ``row_span`` is its exact membership rule.

    Kinds: ``square_0M`` = [0,M]^2, ``square_sym`` = [-R,R]^2,
    ``hexagon_H`` = [-M,M]^2 with the two corners |x-y| > M cut off,
    ``disk`` = x^2+y^2 <= R^2, and ``rect`` = [x0,x1] x [y0,y1].  The
    constructor checks the kind and the number of params, converts each
    param with ``operator.index`` (a numpy integer becomes an int, a float
    is refused) and refuses a size below 1.
    """

    kind: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_COUNTS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        params = tuple(map(operator.index, self.params))
        if len(params) != _PARAM_COUNTS[self.kind]:
            raise ValueError(
                f"a {self.kind} region takes {_PARAM_COUNTS[self.kind]} params, got {len(params)}"
            )
        if self.kind != "rect" and params[0] < 1:
            raise ValueError(f"region size must be >= 1, got {params[0]}")
        object.__setattr__(self, "params", params)

    @classmethod
    def square(cls, m: int) -> "Region":
        return cls("square_0M", (m,))

    @classmethod
    def sym_square(cls, r: int) -> "Region":
        return cls("square_sym", (r,))

    @classmethod
    def hexagon(cls, m: int) -> "Region":
        return cls("hexagon_H", (m,))

    @classmethod
    def disk(cls, r: int) -> "Region":
        return cls("disk", (r,))

    @classmethod
    def rect(cls, x0: int, x1: int, y0: int, y1: int) -> "Region":
        return cls("rect", (x0, x1, y0, y1))

    def bounds(self) -> tuple[int, int, int, int]:
        """(xmin, xmax, ymin, ymax) of the bounding box."""
        if self.kind == "rect":
            x0, x1, y0, y1 = self.params
            return x0, x1, y0, y1
        (m,) = self.params
        if self.kind == "square_0M":
            return 0, m, 0, m
        return -m, m, -m, m

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
        2^31 guard.  The disk's half-width is an exact isqrt of
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


# Largest |coordinate| of a region: no int64 row, block or square here wraps.
COORD_LIMIT = 2**31


def _check_coords(region: Region) -> None:
    """Refuse a region beyond the 2^31 guard, so that no int64 kernel wraps."""
    if max(map(abs, region.bounds())) > COORD_LIMIT:
        raise ValueError(f"region bounds {region.bounds()} exceed the 2^31 guard")


def _rows(region: Region, first: int | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """The region's rows, ascending from ``first`` (by default its lowest), in
    chunks of at most _CHUNK_ROWS: each chunk as int64 arrays (ys, lo, hi) of
    the rows and their ``row_span``.

    Refuses a region beyond ``COORD_LIMIT`` and yields nothing for an empty
    box; the rows of a nonempty box are nonempty.
    """
    _check_coords(region)
    xmin, xmax, ymin, ymax = region.bounds()
    if xmin > xmax:
        return
    for start in range(ymin if first is None else first, ymax + 1, _CHUNK_ROWS):
        ys = np.arange(start, min(start + _CHUNK_ROWS, ymax + 1), dtype=np.int64)
        yield (ys, *region.row_spans(ys))


def _iter_blocks(region: Region) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the region's points as (x1, x2) arrays in row-major order.

    Rows ascend in y and each row ascends in x over its ``row_span``.  Each
    chunk of ``_rows`` is cut by ``_runs`` into blocks of up to ``_RUN``
    points, a wider row split across blocks; no block is empty or spans two
    chunks.  A chunk of 2^16 box rows holds whole blocks, so only a disk or
    hexagon of more than 2^16 rows has a short block before its last.
    """
    for ys, lo, hi in _rows(region):
        for rows, taken, rank in _runs(hi - lo + 1):
            yield np.repeat(lo[rows], taken) + rank, np.repeat(ys[rows], taken)


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
            # an orbit census covers [0,M]^2, M >= 1, and counts the origin's orbit
            (m,) = self.region.params
            count, s = self.total_orbits, self.sum_diam_multiplier
            out["residue_ratio_of_size_sq"] = {
                str(r): _digits12(c * c, m * m) for r, c in self.residue_counts.items()
            }
            try:
                out["averages"] = {
                    "diameter": _digits12(2 * s * s, count),
                    "perimeter": _digits12(self.sum_perimeter**2, count),
                    "box_side": _digits12(self.sum_box_side**2, count),
                }
            except OverflowError:
                # the perimeter, the largest of the three, is the first to overflow
                raise OverflowError(
                    "the average perimeter, about 14M/3, exceeds the largest double;"
                    " M up to about 3.8522e307 answers"
                ) from None
        else:
            out["diametral_points"] = self.diametral_points
            out["diametral_fraction"] = _digits12(self.diametral_points**2, self.total_points)
        return out


def _digits12(n: int, q: int) -> float:
    """sqrt(n) / q for ints n >= 0 and q > 0, correctly rounded to 12
    significant digits, half to even, as the float that prints them; a ratio
    p / q is sqrt(p^2) / q.  The rounded decimal is an int times a power of
    ten, so one int-to-float conversion or int quotient rounds it, and raises
    OverflowError where the float would be infinite."""
    if n == 0:
        return 0.0
    f, k, inexact = _root_digits(n, q, 10, 13)
    digits, last = divmod(f, 10)
    digits += last > 5 or last == 5 and (inexact or digits % 2)
    return float(digits * 10 ** (1 - k)) if k <= 1 else digits / 10 ** (k - 1)


def _root_double(n: int, q: int) -> float:
    """sqrt(n) / q for ints n, q > 0, correctly rounded to a double in its
    normal range: a 55-bit quotient whose last bit is set when it is short
    (a sticky bit) rounds once, to 53 bits, in float()."""
    f, k, inexact = _root_digits(n, q, 2, 55)
    return math.ldexp(float(f | inexact), -k)


def _root_digits(n: int, q: int, base: int, digits: int) -> tuple[int, int, bool]:
    """(f, k, inexact) for ints n, q > 0: f = floor(sqrt(n) base^k / q) has
    exactly ``digits`` digits in ``base``, and ``inexact`` says whether it
    is short of that value.  floor(sqrt(N) / Q) = isqrt(N) // Q, which is
    exact iff (fQ)^2 = N; a float estimate of k is off by one at most, and
    each step towards the range moves f one digit without passing it."""
    k = digits - 1 - math.floor((math.log(n) / 2 - math.log(q)) / math.log(base))
    while True:
        num, den = (n * base ** (2 * k), q) if k >= 0 else (n, q * base**-k)
        f = math.isqrt(num) // den
        if f < base ** (digits - 1):
            k += 1
        elif f >= base**digits:
            k -= 1
        else:
            return f, k, (f * den) ** 2 != num


# ---------------------------------------------------------------------------
# closed-form counting


def count_orbits_with_perimeter(x: int) -> int:
    """Number of distinct orbits in the whole plane with length exactly x."""
    x = operator.index(x)
    if x < 1:
        raise ValueError(f"perimeter must be >= 1, got {x}")
    if x % 4 != 0:
        return 0
    return x // 6 + (-x // 12) + 1  # -x // 12 is -ceil(x / 12), exactly


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
    t = operator.index(t)
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
    m, d = operator.index(m), operator.index(d)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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
    m, d = operator.index(m), operator.index(d)
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

    A polygon's diametral points are the double cone's points in its
    bounding box: the hexagon's cut corners hold none, as a cone point of
    [-M,M]^2 has both coordinates of one sign and so |x - y| < M.  Over the
    disk's rows 0..R, weighted by ``_disk_rows``, each row adds its x-range
    to the total and each row y > 0 its points in the cone's span,
    min(2y, h) - ceil(y/2) + 1 or none, to the hits.
    """
    x0, x1, y0, y1 = region.bounds()
    if region.kind == "disk":
        total = hits = 0
        for ys, half, weight in _disk_rows(region, "diametral census needs"):
            total += int((weight * (2 * half + 1)).sum())
            # row 0 holds no diametral point; each row above it stands for two
            above = int(ys[0] == 0)
            a, b = _cone_span(ys[above:])
            hits += 2 * int(np.maximum(np.minimum(b, half[above:]) - a + 1, 0).sum())
    elif x0 > x1 or y0 > y1:
        total = hits = 0
    else:
        total = (x1 - x0 + 1) * (y1 - y0 + 1)
        if region.kind == "hexagon_H":
            total -= x1 * (x1 + 1)  # the two cut corners, M(M+1)/2 points each
        # the lower cone is the upper one's negative
        hits = _cone_points(x0, x1, y0, y1) + _cone_points(-x1, -x0, -y1, -y0)
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


def _disk_rows(disk: Region, what: str) -> Iterator[tuple[np.ndarray, ...]]:
    """The disk's rows 0..R as int64 chunks (ys, half-widths, weights), after
    the disk counts' one ``WORK_LIMIT`` check on those R + 1 rows, whose
    message ``what`` begins.  Row -y holds the negatives of row y's points,
    so a row y > 0 weighs 2, for itself and row -y, and row 0 weighs 1."""
    (r,) = disk.params
    if r + 1 > WORK_LIMIT:
        raise ResourceLimitError(f"{what} {r + 1} rows, budget is {WORK_LIMIT}")
    for ys, _, half in _rows(disk, 0):
        yield ys, half, 2 - (ys == 0)


def _cone_points(x0: int, x1: int, y0: int, y1: int) -> int:
    """Points of the cone x/2 <= y <= 2x in the nonempty box [x0,x1] x [y0,y1],
    by inclusion-exclusion over ``_quadrant``."""
    return (
        _quadrant(x1, y1) - _quadrant(x0 - 1, y1)
        - _quadrant(x1, y0 - 1) + _quadrant(x0 - 1, y0 - 1)
    )


def _quadrant(x: int, y: int) -> int:
    """Points (a, b) of the cone x/2 <= y <= 2x with a <= x and b <= y.

    Every cone point has a, b >= 1.  Row b holds min(2b, x) - ceil(b/2) + 1
    of them while ceil(b/2) <= x, so the rows 1..n, n = min(y, 2x), are the
    nonempty ones; rows b <= k = min(n, x//2) end at 2b and the rest at x,
    and the ceil(b/2) of rows 1..n sum to (n+1)^2 // 4.
    """
    n = min(y, 2 * x)
    if n <= 0:
        return 0
    k = min(n, x // 2)
    return k * (k + 1) + x * (n - k) + n - (n + 1) ** 2 // 4


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
    """Averages over the distinct orbits meeting [0,m]^2, m >= 1, from the
    exact sums of ``square_orbit_sums``, each correctly rounded: the diameter
    sqrt(2) s / c as sqrt(2 s^2) / c."""
    m = operator.index(m)
    _, count, length = square_orbit_sums(m)
    return OrbitAverages(
        m=m,
        orbit_count=count,
        diameter=_root_double(2 * (length // 4) ** 2, count),
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
    row (``_disk_rows``) sums 2(|2x-y| + |x+y| + |2y-x|) over its x-range in
    closed form.  On a row y >= 0 of half-width h the left end -h holds the
    row's maximum: its half-length 3h + 3y + |y - h| is 4h + 2y when h >= y
    and 2h + 4y when h < y, and the right end's, |2h - y| + h + y + |2y - h|,
    is then 3h + |2y - h| <= 4h + 2y or |2h - y| + 3y <= 2h + 4y.
    """
    r = operator.index(r)
    total = count = maximum = 0
    for ys, half, weight in _disk_rows(Region.disk(r), "disk length stats need"):
        count += int((weight * (2 * half + 1)).sum())
        lo = -half
        lengths = 2 * weight * (
            _abs_linear_sum(2, -ys, lo, half)
            + _abs_linear_sum(1, ys, lo, half)
            + _abs_linear_sum(1, -2 * ys, lo, half)
        )
        # each doubled row total is below 2^61 (r <= 2^28) but a chunk's sum
        # need not be: add the high and low 32 bits apart, each within int64
        total += (int((lengths >> 32).sum()) << 32) + int((lengths & 0xFFFFFFFF).sum())
        maximum = max(maximum, int(_semi_perimeter(lo, ys).max()) * 2)
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

    Bin b holds the points whose direction angle, in [0, 2pi), lies in
    [phi_b, phi_(b+1)) with phi_b = 2 pi b / bins, decided exactly; the
    origin has no direction and is skipped.  No point is visited.  The row
    y = 0 is split at x = 0 by hand.  Every row below the axis is turned by
    pi, which maps its bin boundaries onto the rays psi_j = pi j / bins with
    j of the parity of bins; those above are the rays of even j.  On a row
    y > 0 the angle falls as x grows, and the points at or past the ray
    psi_j are those with x <= y cot psi_j.  A row's points all start in the
    bin of its right end, and each ray between its ends' bins then moves
    its floor(y cot psi_j) - lo + 1 points at or past it, and as many of its
    cone span's, up one bin.  So the work is O(rows + crossed (row, ray)
    pairs), at most O(points), and the pairs go in pieces of at most ``_RUN``.

    The comparisons are float, and exact.  ``_rays`` stores fl(cot), the
    cotangent correctly rounded, and as |x|, y <= 2^31 are exact in float64,
    fl(x / y) is x / y correctly rounded.  Rounding is monotone (Goldberg,
    1991), so fl(x / y) < fl(cot) proves x / y < cot and fl(x / y) > fl(cot)
    proves x / y > cot; this bins a row's ends, and a ray tied with an end
    in float is taken with the crossed ones, whose floors decide it: y cot
    is then within y 2^-52 |cot| < 2^-6 of the end, so the floor is the end
    or one less.  t = fl(y fl(cot)) is within 2^-52 |t| of y cot, so
    floor(t) is floor(y cot) when t's fractional part and its complement
    both exceed 2^-50 (|t| + 1).  On the multiples of pi/4, cot is -1, 0 or
    1 and t is y cot itself.  Every other ray has an irrational tangent
    (Niven, *Irrational Numbers*, 1956), so no lattice point lies on it and
    ``_at_or_past`` reaches a certain sign of x sin - y cos by doubling its
    brackets' bits.
    """
    bins = operator.index(bins)
    if bins < 8:
        raise ValueError(f"need at least 8 bins, got {bins}")
    if bins > BINS_LIMIT:
        raise ResourceLimitError(f"{bins} bins exceed the limit {BINS_LIMIT}")
    _check_coords(region)
    work = _histogram_work(region, bins)
    if work > WORK_LIMIT:
        raise ResourceLimitError(
            f"angular histogram needs up to {work} rows and crossings, budget is {WORK_LIMIT}"
        )
    total = np.zeros(bins, dtype=np.int64)
    dia = np.zeros(bins, dtype=np.int64)
    half = bins // 2
    for ys, lo, hi in _rows(region):
        below = int(np.searchsorted(ys, 0))
        above = int(np.searchsorted(ys, 0, side="right"))
        # the rows below the axis turned by pi, then those above
        _add_rows(bins, bins % 2, -ys[:below], -hi[:below], -lo[:below],
                  total[half:], dia[half:])
        _add_rows(bins, 0, ys[above:], lo[above:], hi[above:], total, dia)
        if below < above:
            x0, x1 = int(lo[below]), int(hi[below])
            total[0] += max(0, x1 - max(x0, 1) + 1)
            total[half] += max(0, min(x1, -1) - x0 + 1)
    return ProjectionHistogram(
        bins, tuple(int(v) for v in dia), tuple(int(v) for v in total - dia)
    )


def _histogram_work(region: Region, bins: int) -> int:
    """The rows of the region's bounding box plus a bound on its crossed
    (row, ray) pairs.  A row y > 0 crosses a ray only where y fl(cot) lies
    in (lo - 1, hi + 1): fl(lo / y) <= fl(cot) <= fl(hi / y) puts it within
    y 2^-52 |cot| < 2^-6 of the span.  So each ray crosses the rows of one
    interval of y, found here from float quotients widened by a row; the ray
    x = 0 crosses every row if the box holds x = 0, and none otherwise."""
    x0, x1, y0, y1 = region.bounds()
    if x0 > x1 or y0 > y1:
        return 0
    cot, _ = _rays(bins)
    work = y1 - y0 + 1
    # the rows above the axis, then those below turned by pi
    for parity, ya, yb, xa, xb in (
        (0, max(y0, 1), y1, x0, x1),
        (bins % 2, max(-y1, 1), -y0, -x1, -x0),
    ):
        if ya > yb:
            continue
        rays = cot[2 - parity :: 2]
        slanted = rays[rays != 0]
        ends = np.sort([(xa - 1) / slanted, (xb + 1) / slanted], axis=0)
        first, last = np.maximum(np.floor(ends[0]), ya), np.minimum(np.ceil(ends[1]), yb)
        work += int(np.maximum(last - first + 1, 0).sum())
        work += (rays.size - slanted.size) * (xa <= 0 <= xb) * (yb - ya + 1)
    return work


def _add_rows(bins: int, parity: int, y, lo, hi, total, dia) -> None:
    """Add rows y > 0 with nonempty spans [lo, hi] to the bins ``total`` and
    ``dia`` of a half-plane turned above the axis: bin i lies before ray i,
    psi_j for j = 2i + 2 - parity < bins.  A row's points are past each ray
    before ``first``, where fl(cot) > fl(hi / y), and past none from
    ``stop`` on, where fl(cot) < fl(lo / y): the row goes to bin ``first``,
    and each ray in between moves its points up.  Each row or crossing adds
    at most 2^32 + 1 to a bin, and the work budget allows fewer than 2^27 of
    them, so the int64 sums are exact."""
    if not y.size:
        return
    key = -_rays(bins)[0][2 - parity :: 2]  # ascending
    end = -(hi / y)
    first = np.searchsorted(key, end, "left")
    # cot descends strictly, so a one-point row ties with at most one ray
    stop = first + (key.take(first, mode="clip") == end)
    wide = np.flatnonzero(hi > lo)
    stop[wide] = np.searchsorted(key, -(lo[wide] / y[wide]), "right")
    cone_lo, cone_hi = _cone_span(y)
    cone_lo, cone_hi = np.maximum(cone_lo, lo), np.minimum(cone_hi, hi)
    np.add.at(total, first, hi - lo + 1)
    np.add.at(dia, first, np.maximum(cone_hi - cone_lo + 1, 0))
    crossing = np.flatnonzero(stop > first)
    first_j = 2 * first + (2 - parity)
    for rows, taken, rank in _runs(stop[crossing] - first[crossing]):
        row = np.repeat(crossing[rows], taken)
        j = first_j[row]
        j += 2 * rank
        floors = _floors(bins, y[row], j)
        for out, moved in (
            (total, floors - lo[row] + 1),
            (dia, np.maximum(np.minimum(floors, cone_hi[row]) - cone_lo[row] + 1, 0)),
        ):
            up = np.zeros(bins, dtype=np.int64)
            np.add.at(up, j, moved)
            # ray i parts bin i from bin i + 1
            up = up[2 - parity :: 2]
            out[1 : up.size + 1] += up
            out[: up.size] -= up


def _runs(counts: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The items counted per row, numbered row-major, in runs of at most
    ``_RUN``: each run as (the slice of its rows, the items it takes of each,
    each item's rank within its row).  Callers spread per-row values over
    the items with ``np.repeat(values[rows], taken)``."""
    ends = np.cumsum(counts)
    starts = ends - counts
    size = int(ends[-1]) if ends.size else 0
    for done in range(0, size, _RUN):
        stop = min(done + _RUN, size)
        rows = slice(
            int(np.searchsorted(ends, done, side="right")),
            int(np.searchsorted(ends, stop - 1, side="right")) + 1,
        )
        taken = np.minimum(ends[rows], stop) - np.maximum(starts[rows], done)
        yield rows, taken, np.arange(done, stop) - np.repeat(starts[rows], taken)


def _floors(bins: int, y: np.ndarray, j: np.ndarray) -> np.ndarray:
    """floor(y cot psi_j) of each row y > 0 and its ray's j, exactly."""
    cot, quarter = _rays(bins)
    t = y * cot[j]
    out = np.floor(t)
    frac = t - out
    out = out.astype(np.int64)
    # on a quarter ray t is the integer y cot itself
    near = np.minimum(frac, 1 - frac) <= 2.0**-50 * (np.abs(t) + 1)
    for i in np.flatnonzero(near & ~quarter[j]).tolist():
        # floor(y cot) is round(t) or one less
        m = round(t[i])
        out[i] = m if _at_or_past(m, int(y[i]), int(j[i]), bins) else m - 1
    return out


@lru_cache(maxsize=8)
def _rays(bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(cot, quarter) of the rays psi_j = pi j / bins, indexed by j for
    0 < j < bins: the bin boundaries of either half-plane turned above the
    axis.  ``cot`` holds cot psi_j correctly rounded: as rounding is
    monotone, it descends as cot psi_j does, and a float below or above it
    is below or above cot psi_j.  ``quarter`` marks the multiples of pi/4,
    where it is cot psi_j itself, 1, 0 or -1.  Entry 0 is unused."""
    cot = [0.0] * bins  # cot psi_(bins-j) = -cot psi_j
    for j in range(1, bins // 2 + 1):
        cot[j] = float(2 * j < bins) if 4 * j % bins == 0 else _cot(j, bins)
        if 2 * j < bins:
            cot[bins - j] = -cot[j]
    arrays = np.array(cot), 4 * np.arange(bins) % bins == 0
    for array in arrays:
        array.setflags(write=False)  # cached: shared by every caller
    return arrays


def _cot(j: int, bins: int) -> float:
    """cot psi, correctly rounded, for psi = pi j / bins off the multiples of
    pi/4: the brackets' bits double until the corners c / s of their box,
    each an int quotient and so correctly rounded, round to one float, which
    ends as cot psi is irrational."""
    k = 64 + 2 * bins.bit_length()
    while True:
        c0, c1, s0, s1 = _direction(j, bins, k)
        cot = c0 / s0
        if cot == c0 / s1 == c1 / s0 == c1 / s1:
            return cot
        k *= 2


def _at_or_past(x: int, y: int, j: int, bins: int) -> bool:
    """Whether x <= y cot psi for y > 0 and psi = pi j / bins off the
    multiples of pi/4, from the sign of x sin psi - y cos psi; the brackets'
    bits double until the sign is certain, which ends as the value is not 0.
    """
    k = 64
    while True:
        c0, c1, s0, s1 = _direction(j, bins, k)
        # 2^k (x sin psi - y cos psi) lies in [low, high]
        low = min(x * s0, x * s1) - y * c1
        high = max(x * s0, x * s1) - y * c0
        if high <= 0:
            return True
        if low > 0:
            return False
        k *= 2


def _direction(j: int, bins: int, k: int) -> tuple[int, int, int, int]:
    """Integers c0 <= 2^k cos psi <= c1 and s0 <= 2^k sin psi <= s1 for
    psi = pi j / bins in (0, pi), from the first octant by symmetry."""
    turn = 2 * j > bins  # psi = pi - psi'
    if turn:
        j = bins - j
    swap = 4 * j > bins  # psi = pi/2 - alpha
    # alpha = pi num / den, in lowest terms so that rays share brackets
    num, den = (bins - 2 * j, 2 * bins) if swap else (j, bins)
    g = math.gcd(num, den)
    c0, c1, s0, s1 = _cos_sin(num // g, den // g, k)
    if swap:
        c0, c1, s0, s1 = s0, s1, c0, c1
    return (-c1, -c0, s0, s1) if turn else (c0, c1, s0, s1)


@lru_cache(maxsize=4096)
def _cos_sin(num: int, den: int, k: int) -> tuple[int, int, int, int]:
    """Integer brackets (c0, c1, s0, s1) of 2^k cos alpha and 2^k sin alpha
    for alpha = pi num / den in [0, pi/4].

    The Taylor series runs in fixed point with p = k + g bits.  Each term is
    a floor of the last times a / (n 2^p), a ratio below 0.8, so each is
    short of a^n / n! 2^p by less than 5 units; the series stops at the
    first zero term, with a tail below 5 units in each of the two sums.  The
    fixed-point angle a is off by at most err/4 + 1 units, and cos and sin
    change by no more than that.  The total bound widens the brackets, which
    are then rounded outward to k bits.
    """
    g = k.bit_length() + 12
    p = k + g
    pi, err = _pi_fixed(p)
    a = pi * num // den
    sums = [0, 0]  # cos, sin
    term, n = 1 << p, 0
    while term:
        sums[n & 1] += -term if n & 2 else term
        n += 1
        term = term * a // (n << p)
    bound = 5 * (n + 1) + err // 4 + 2
    c, s = sums
    return (
        (c - bound) >> g, -(-(c + bound) >> g),
        (s - bound) >> g, -(-(s + bound) >> g),
    )


@lru_cache(maxsize=16)
def _pi_fixed(p: int) -> tuple[int, int]:
    """(P, err) with |P - pi 2^p| < err, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239)."""
    (a, na), (b, nb) = _atan_inverse(5, p), _atan_inverse(239, p)
    return 16 * a - 4 * b, 16 * (na + 1) + 4 * (nb + 1)


def _atan_inverse(m: int, p: int) -> tuple[int, int]:
    """(A, terms) with |A - atan(1/m) 2^p| < terms + 1.

    Term n is floor(2^p / ((2n+1) m^(2n+1))) exactly, as nested floor
    divisions by integers compose, so each is short by less than one unit;
    the series stops when 2^p / m^(2n+1) < 1, which bounds the alternating
    tail.
    """
    total, power, n = 0, (1 << p) // m, 0
    while power:
        term = power // (2 * n + 1)
        total += -term if n & 1 else term
        power //= m * m
        n += 1
    return total, n
