"""Counting formulas, censuses and averages over lattice regions.

Two counting bases never mix: modular censuses and the orbit averages count
DISTINCT ORBITS, while diametral fractions and the disk length average count
LATTICE POINTS with multiplicity.  Each basis has its own census record:
``CensusReport`` for the orbits, ``DiametralReport`` for the points.

Neither the distinct-orbit census of [0,M]^2 nor the diametral counts scan
points; both are exact Python-int counts.  A point of [0,M]^2 is the
lexicographically largest node of its orbit inside the square iff it lies in
the closed cone x/2 <= y <= 2x, where the orbit length is 4(x+y).  One
closed-form sum over the anti-diagonals x + y = s, ``_antidiagonal_sums``,
counts those cone points for the square census, the cumulative perimeter
stats and the per-length count alike.  A point
other than the origin is diametral iff it or its negative lies in that cone,
so a square, sym-square, hexagon or rect counts the cone's points in its
bounding box by inclusion-exclusion over one quadrant count in closed form,
visiting no row.  The disk visits no row either.  Both its counts, the
diametral points and the lengths 2(|2x-y| + |x+y| + |2y-x|), read one
octant of its arc, the columns x = 1..k, k = isqrt(R^2 // 2), with slopes
0 to 1, as the disk, the cone and the length are all symmetric in the
diagonal: sums of h = isqrt(R^2 - x^2), h^2 and x h and the peak of 2h + x,
taken in Python ints by walking the lattice hull of that arc, each step in
closed form.  The angular histogram counts rows: a row's points lie in
angle order, so it adds its x-range and its cone span to the bin of one
end, and each bin boundary it crosses moves the points at or past that ray,
a floor of y cot phi, up one bin; the bins are exact, as each boundary phi
carries the largest fraction p/q <= cot phi with q <= COORD_LIMIT: on every
row x <= y cot phi iff x q <= y p, each floor is floor(y p / q) in int64,
and fl(x/y) below or above fl(p/q) puts a row's end x/y on that side for
certain (monotone rounding).  Those row counts are int64 numpy kernels in
``aughts.rows``, which is imported only once a histogram has passed its
guards; ``WORK_LIMIT`` bounds the rows and crossings that it reads, and
nothing else.  The orbit length, the cone's row form and the cone test are
defined once, in ``aughts.orbits``, for ints and arrays alike.
Every census, average and length statistic is exact at every size >= 1,
but the disk's two counts, like the histograms and renders, take the 2^31
guard as their size bound.  Each scalar argument enters through
``operator.index``, as a ``Region``'s params do, so a numpy integer becomes
an int and no Python-int formula wraps in int64.
Each ratio and average of a census record is rounded once, to 12
significant digits, from its exact ints, and the diameter average of
``square_orbit_averages`` once to a double, by ``_root_digits``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


class ResourceLimitError(RuntimeError):
    """A budget was exceeded: one of those below, or ``svg.PIXEL_BUDGET``."""


# Rows plus crossed (row, ray) pairs an angular histogram may read, at most
# ``rows._histogram_work``, checked before any row is read: the histogram's
# budget alone.  A row takes 35-70 ns and a crossing 9-14 ns (2-vCPU VM),
# and no int64 bin sum of one wraps below 2^27.
WORK_LIMIT = 9 * 10**7
# Bins of an angular histogram: on first use it finds the Farey pair of every
# boundary it reads, about 7 us a bin (0.44 s at the limit, 2-vCPU VM).
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
    """Refuse a region beyond the 2^31 guard.  Within it no int64 kernel
    wraps, and the disks' hull walk answers in about 4 s (2-vCPU VM)."""
    if max(map(abs, region.bounds())) > COORD_LIMIT:
        raise ValueError(f"region bounds {region.bounds()} exceed the 2^31 guard")


# ---------------------------------------------------------------------------
# reports


def _header(region: Region, basis: str, total_points: int) -> dict:
    """The fields that open a census record of either basis."""
    return {"schema_version": 1, "kind": "census", "region": region.describe(),
            "basis": basis, "total_points": total_points}


@dataclass(frozen=True)
class CensusReport:
    """DISTINCT orbits meeting [0,M]^2, by orbit length mod ``modulus``."""

    region: Region
    modulus: int
    total_points: int
    total_orbits: int
    residue_counts: dict[int, int]
    sum_perimeter: int

    @property
    def sum_box_side(self) -> int:
        """By the box law each box side is a quarter of the orbit length."""
        return self.sum_perimeter // 4

    sum_diam_multiplier = sum_box_side

    def to_json_dict(self) -> dict:
        # an orbit census covers [0,M]^2, M >= 1, and counts the origin's orbit
        (m,) = self.region.params
        count, s, p = self.total_orbits, self.sum_box_side, self.sum_perimeter
        try:
            averages = {
                "diameter": _digits12(2 * s * s, count),
                "perimeter": _digits12(p * p, count),
                "box_side": _digits12(s * s, count),
            }
        except OverflowError:
            # the perimeter, the largest of the three, is the first to overflow
            raise OverflowError(
                "the average perimeter, about 14M/3, exceeds the largest double;"
                " M up to about 3.8522e307 answers"
            ) from None
        residues = self.residue_counts.items()
        return {
            **_header(self.region, "orbits", self.total_points),
            "modulus": self.modulus,
            "total_orbits": count,
            "residue_counts": {str(r): c for r, c in residues},
            "sums": {"diam_multiplier": s, "perimeter": p, "box_side": s},
            "residue_ratio_of_size_sq": {str(r): _digits12(c * c, m * m) for r, c in residues},
            "averages": averages,
        }


@dataclass(frozen=True)
class DiametralReport:
    """LATTICE POINTS of a region, and those diametral in their orbit."""

    region: Region
    total_points: int
    diametral_points: int

    @property
    def diametral_fraction(self) -> float:
        if self.total_points == 0:
            return 0.0
        return self.diametral_points / self.total_points

    def to_json_dict(self) -> dict:
        return {
            **_header(self.region, "points", self.total_points),
            "diametral_points": self.diametral_points,
            "diametral_fraction": _digits12(self.diametral_points**2, self.total_points),
        }


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
    return _ramp(x // 4) if x % 4 == 0 else 0


@dataclass(frozen=True)
class PerimeterStats:
    count: int
    total: int
    average: float


def cumulative_perimeter_stats(t: int) -> PerimeterStats:
    """Exact count/sum/average of orbits with length in [4, t]: the ramp
    on the anti-diagonals 1 <= s <= t // 4, as only lengths 4s carry orbits."""
    t = operator.index(t)
    if t < 4:
        raise ValueError(f"threshold must be >= 4, got {t}")
    _, count, total = _antidiagonal_sums(((1, t // 4, None),), 1)
    return PerimeterStats(count, total, total / count if count else 0.0)


def _ramp(s: int) -> int:
    """n(s) = floor(2s/3) - ceil(s/3) + 1 orbits have length 4s, s >= 0: each
    has one node in the cone x/2 <= y <= 2x on the anti-diagonal x + y = s."""
    return 2 * s // 3 + (-s // 3) + 1  # -s // 3 is -ceil(s / 3), exactly


def _antidiagonal_sums(pieces: tuple, d: int) -> tuple[list[int], int, int]:
    """(orbits per length residue mod d, orbit count, length sum) of n(s)
    orbits of length 4s on each anti-diagonal lo <= s <= hi of the pieces
    (lo, hi, top), 0 <= lo <= hi + 1, the last one ending at the largest s:
    n(s) = ``_ramp(s)`` if top is None, else top - s.  On each class
    s = c + period*j, period = lcm(3, d/gcd(d, 4)), 4s mod d is fixed and
    n is linear in j, _ramp(c) + j period/3 as s mod 3 is fixed, or
    top - c - j period, so power sums over j count each class exactly."""
    period = math.lcm(3, d // math.gcd(d, 4))
    residues = [0] * d
    count = length = 0
    for c in range(min(period, pieces[-1][1] + 1)):
        for lo, hi, top in pieces:
            a, b = (_ramp(c), period // 3) if top is None else (top - c, -period)
            s0, s1, s2 = _power_sums((lo - c + period - 1) // period, (hi - c) // period)
            n = a * s0 + b * s1
            residues[4 * c % d] += n
            count += n
            # sum over j of 4(c + period*j)(a + b*j)
            length += 4 * (c * a * s0 + (c * b + period * a) * s1 + period * b * s2)
    return residues, count, length


def _power_sums(lo: int, hi: int) -> tuple[int, int, int]:
    """(sum 1, sum q, sum q^2) over the integers lo <= q <= hi, for
    0 <= lo <= hi + 1; an empty range (hi = lo - 1) sums to zeros."""
    a, b = lo * (lo - 1), hi * (hi + 1)  # twice the sums of q up to lo - 1 and hi
    return hi - lo + 1, (b - a) // 2, (b * (2 * hi + 1) - a * (2 * lo - 1)) // 6


# ---------------------------------------------------------------------------
# region censuses


def square_orbit_sums(m: int, d: int = 1) -> tuple[list[int], int, int]:
    """(orbits per length residue mod d, orbit count, length sum) over [0,m]^2.

    The orbits meeting [0,m]^2 correspond one to one with the square's points
    in the cone x/2 <= y <= 2x, the largest node of each orbit inside the
    square.  The anti-diagonal x + y = s holds ``_ramp(s)`` of them for
    s <= 3m//2, and 2m + 1 - s above it.
    """
    m, d = operator.index(m), operator.index(d)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    if d > MODULUS_LIMIT:
        raise ResourceLimitError(f"modulus {d} exceeds the limit {MODULUS_LIMIT}")
    split = 3 * m // 2
    return _antidiagonal_sums(((0, split, None), (split + 1, 2 * m, 2 * m + 1)), d)


def modular_census(m: int, d: int) -> CensusReport:
    """Tally DISTINCT orbits seeded from [0,m]^2 by orbit length mod d."""
    m, d = operator.index(m), operator.index(d)
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    residues, count, length = square_orbit_sums(m, d)
    return CensusReport(
        region=Region.square(m),
        modulus=d,
        total_points=(m + 1) ** 2,
        total_orbits=count,
        residue_counts=dict(enumerate(residues)),
        sum_perimeter=length,
    )


def diametral_report(region: Region) -> DiametralReport:
    """Count LATTICE POINTS of the region that are diametral in their orbit.

    A polygon's diametral points are the double cone's points in its
    bounding box: the hexagon's cut corners hold none, as a cone point of
    [-M,M]^2 has both coordinates of one sign and so |x - y| < M.  A disk,
    within the 2^31 guard, sums its columns under one octant of its arc in
    Python ints by walking their lattice hull (``_disk_octant``).
    """
    x0, x1, y0, y1 = region.bounds()
    if region.kind == "disk":
        total, hits, _, _ = _disk_octant(region)
    elif x0 > x1 or y0 > y1:
        total = hits = 0
    else:
        total = (x1 - x0 + 1) * (y1 - y0 + 1)
        if region.kind == "hexagon_H":
            total -= x1 * (x1 + 1)  # the two cut corners, M(M+1)/2 points each
        # the lower cone is the upper one's negative
        hits = _cone_points(x0, x1, y0, y1) + _cone_points(-x1, -x0, -y1, -y0)
    return DiametralReport(region, total, hits)


def _disk_octant(disk: Region) -> tuple[int, int, int, int]:
    """(points, cone points, orbit length sum, largest orbit length) of the
    disk x^2 + y^2 <= r^2, refused past the 2^31 guard, from the hull walks
    over the arc's columns 1..m and m + 1..k, one octant (slopes 0 to 1),
    with k = isqrt(r^2 // 2) and m = isqrt(r^2 // 5).

    With h(y) = isqrt(r^2 - y^2) and S(a, b) the sum of h over a..b, the
    axes hold 4r + 1 points, and the open quadrant 2 S(1, k) - k^2, as its
    points past column k are, mirrored in the diagonal, the points above
    row k of the columns 1..k.

    The cone x/2 <= y <= 2x is symmetric in the diagonal, as the disk is,
    so it holds twice its half y <= x <= 2y less the k diagonal points.
    Row y of that half holds min(2y, h(y)) - y + 1 points while y <= k:
    y + 1 up to m, the last y with h(y) >= 2y, and h(y) - y + 1 after it, so
    the half holds m(m + 1) + S(m + 1, k) + k - k(k + 1)/2 and the cone
    2 (m(m + 1) + S(m + 1, k)) - k^2, its negative as many.

    Every point has the orbit length 2L, L = |2x-y| + |x+y| + |2y-x|, and L
    and the disk are both invariant under x <-> y and under negation, so L
    sums over the disk to 4W + 10k(k + 1): the diagonals, where
    L(t, t) = 4|t| and L(t, -t) = 6|t|, and four times the open wedge
    |y| < x.  Its row 0 adds 2r(r + 1), and its rows y = v and y = -v, at
    x = v+1..h(v), add 4h^2 + 4h - 3v^2 - 5v while h(v) >= 2v, that is
    v <= m, and 3h^2 + 3h + 4vh - 7v^2 - 3v for m < v <= k.  In the wedge
    L <= 4x + 2v, its value at (h(v), -v), so the largest length is
    4 (2h(v) + v) at its peak over 0 <= v <= k.
    """
    _check_coords(disk)
    (r,) = disk.params
    n = r * r
    k, m = math.isqrt(n // 2), math.isqrt(n // 5)
    a1, a2, _, a_peak = _arc_sum(n, 1, m)
    b1, b2, b3, b_peak = _arc_sum(n, m + 1, k)
    _, v1, v2 = _power_sums(1, m)
    _, w1, w2 = _power_sums(m + 1, k)
    wedge = (2 * r * (r + 1) + 4 * (a2 + a1) - 3 * v2 - 5 * v1
             + 3 * (b2 + b1) + 4 * b3 - 7 * w2 - 3 * w1)
    return (4 * r + 1 + 4 * (2 * (a1 + b1) - k * k), 4 * (m * (m + 1) + b1) - 2 * k * k,
            2 * (4 * wedge + 10 * k * (k + 1)), 4 * max(2 * r, a_peak, b_peak))


def _arc_sum(n: int, a: int, b: int) -> tuple[int, int, int, int]:
    """(sum h, sum h^2, sum x h, the largest 2h + x) over the columns
    a <= x <= b, h = isqrt(n - x^2), with a >= 0 and b <= isqrt(n); all 0
    when b < a.

    The lattice points under the concave arc y = sqrt(n - x^2) are those
    under their own convex hull, which the walk follows rightwards from
    (a, isqrt(n - a^2)) with Stern-Brocot directions, as Sladkey's walk
    along the divisor hyperbola does (arXiv:1206.3369, 2012).  A direction
    (p, q) steps x += p and y -= q, and fits where x + p <= b and
    (x + p)^2 + (y - q)^2 <= n.  The stack holds directions, the steepest
    at the bottom, each the Farey neighbour of the one below it.  At a
    vertex the directions that no longer fit are popped; the last popped,
    L, and the top, H, bracket the next edge, whose direction is refined
    through the mediants M = L + H: M becomes H, pushed, if it fits; the
    search ends if M lies past b, as every direction between L and H has
    p >= p_M; else M becomes L, unless the arc at M's column u = x + p_M is
    already as steep as H, (u p_H)^2 >= q_H^2 (n - u^2), when concavity
    keeps every direction between M and H outside.  Where only the vertical
    sentinel (0, 1) is left, as at the start, the next column's drop d
    gives H = (1, d) and L = (1, d - 1).  H is then walked while it fits.

    A step from (x, y) along (p, q) takes the columns x + i, i = 1..p, at
    h = y - c_i, c_i = ceil(i q / p), so each direction carries
    (C1, C2, C3) = (sum c_i, sum c_i^2, sum i c_i), and a step adds
    p y - C1, p y^2 - 2 y C1 + C2 and x (p y - C1) + y p(p + 1)/2 - C3.  The
    seeds (1, d) carry (d, d^2, d).  As M and H are Farey neighbours, no
    fraction of a denominator below p_M lies between them (Graham, Knuth &
    Patashnik, *Concrete Mathematics*, 4.5), so M's c_i are H's, then L's
    shifted by q_H: C1_M = C1_H + p_L q_H + C1_L,
    C2_M = C2_H + (p_L q_H + 2 C1_L) q_H + C2_L and
    C3_M = C3_H + p_H (p_L q_H + C1_L) + q_H p_L(p_L + 1)/2 + C3_L.  The
    linear form 2h + x peaks at a hull vertex, each of which ends a run
    of steps.
    """
    if b < a:
        return 0, 0, 0, 0
    x, y = a, math.isqrt(n - a * a)
    s1, s2, s3, peak = y, y * y, a * y, 2 * y + a
    stack = [(0, 1, 0, 0, 0)]
    while x < b:
        hp, hq, h1, h2, h3 = stack[-1]
        while hp:
            u, v = x + hp, y - hq
            if u <= b and u * u + v * v <= n:
                break
            lp, lq, l1, l2, l3 = stack.pop()
            hp, hq, h1, h2, h3 = stack[-1]
        if not hp:
            d = y - math.isqrt(n - (x + 1) ** 2)
            hp, hq, h1, h2, h3 = 1, d, d, d * d, d
            lp, lq, l1, l2, l3 = 1, d - 1, d - 1, (d - 1) ** 2, d - 1
            stack.append((hp, hq, h1, h2, h3))
        while True:
            mp, mq = lp + hp, lq + hq
            u = x + mp
            if u > b:
                break
            v = y - mq
            t = lp * hq + l1
            mid = (mp, mq, h1 + t, h2 + (t + l1) * hq + l2,
                   h3 + hp * t + hq * lp * (lp + 1) // 2 + l3)
            if u * u + v * v <= n:
                stack.append(mid)
                hp, hq, h1, h2, h3 = mid
            elif (u * hp) ** 2 >= hq * hq * (n - u * u):
                break
            else:
                lp, lq, l1, l2, l3 = mid
        tri = hp * (hp + 1) // 2
        while True:
            u, v = x + hp, y - hq
            if u > b or u * u + v * v > n:
                break
            step = hp * y - h1
            s1 += step
            s2 += (step - h1) * y + h2
            s3 += x * step + y * tri - h3
            x, y = u, v
        peak = max(peak, 2 * y + x)
        lp, lq, l1, l2, l3 = stack.pop()  # H, which no longer fits
    return s1, s2, s3, peak


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
    are counted with multiplicity here, unlike the square averages; the
    sums come from the hull walks of ``_disk_octant``.
    """
    r = operator.index(r)
    count, _, total, maximum = _disk_octant(Region.disk(r))
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
