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
the rest.  Those row counts are int64 numpy kernels in ``aughts.rows``, which
is imported only once a disk count or a histogram has passed its guards;
``WORK_LIMIT`` bounds the rows and crossings that they read.  The orbit
length, the cone's row form and the cone test are defined once, in
``aughts.orbits``, for ints and arrays alike.
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

from aughts.errors import ResourceLimitError

# Rows plus crossed (row, ray) pairs a row count may read: R + 1 rows for a
# disk count, and for an angular histogram at most ``rows._histogram_work``, both
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
    [-M,M]^2 has both coordinates of one sign and so |x - y| < M.  A disk
    counts its rows 0..R (``rows.disk_diametral``).
    """
    x0, x1, y0, y1 = region.bounds()
    if region.kind == "disk":
        _check_disk_work(region, "diametral census needs")
        from aughts import rows
        total, hits = rows.disk_diametral(region)
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


def _check_disk_work(disk: Region, what: str) -> None:
    """The disk counts' one ``WORK_LIMIT`` check, on the R + 1 rows 0..R that
    they read, whose message ``what`` begins."""
    (r,) = disk.params
    if r + 1 > WORK_LIMIT:
        raise ResourceLimitError(f"{what} {r + 1} rows, budget is {WORK_LIMIT}")


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
    are counted with multiplicity here, unlike the square averages.  The
    disk's rows 0..R are summed in closed form (``rows.disk_lengths``).
    """
    r = operator.index(r)
    disk = Region.disk(r)
    _check_disk_work(disk, "disk length stats need")
    from aughts import rows
    count, total, maximum = rows.disk_lengths(disk)
    return DiskLengthStats(r, count, total / count, maximum)


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
    origin has no direction and is skipped.  No point is visited: the
    region's rows are counted per bin (``rows.histogram``).
    """
    bins = operator.index(bins)
    if bins < 8:
        raise ValueError(f"need at least 8 bins, got {bins}")
    if bins > BINS_LIMIT:
        raise ResourceLimitError(f"{bins} bins exceed the limit {BINS_LIMIT}")
    _check_coords(region)
    from aughts import rows
    work = rows._histogram_work(region, bins)
    if work > WORK_LIMIT:
        raise ResourceLimitError(
            f"angular histogram needs up to {work} rows and crossings, budget is {WORK_LIMIT}"
        )
    return ProjectionHistogram(bins, *rows.histogram(region, bins))
