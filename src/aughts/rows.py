"""The int64 row kernels of the disk counts and the angular histogram, which
``aughts.census`` imports once a call has passed its guards and its
``WORK_LIMIT``, and of the SVG renders' scan blocks.

No count loops over rows in Python: ``_rows`` gives a region's rows in
chunks of up to 2^16 as int64 arrays with their ``row_spans`` x-ranges, and
numpy does the rest, so a row costs tens of nanoseconds.  Only the renders
scan points: ``_runs`` cuts each chunk into blocks of at most ``_RUN``
points, as it cuts the histogram's crossed (row, ray) pairs into pieces.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from aughts.census import Region, _check_coords
from aughts.orbits import _cone_span, _semi_perimeter

# Rows per chunk of the row counts and the scan, so a chunk's arrays stay a
# few MB however many rows a region has.
_CHUNK_ROWS = 2**16
# Items per run of ``_runs``: points per scan block and crossed (row, ray)
# pairs per histogram piece, so a run's arrays stay a few MB however wide the
# rows or however many rays they cross.
_RUN = 2**15


def row_spans(region: Region, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``region.row_span`` of each row of an int64 array, as two int64 arrays.

    Equal to ``row_span`` row by row for a region and rows within the
    2^31 guard.  The disk's half-width is an exact isqrt of
    v = r^2 - y^2 <= 2^62 from the float sqrt, which is never below it:
    rounding is monotone and sqrt(fl(k^2)) rounds to k for k <= 2^31, as
    fl(k^2) is within k^2 2^-53 of k^2.  It exceeds sqrt(v) by at most
    2^-21, so it truncates to isqrt(v) + 1 at most, which one step mends.
    """
    xmin, xmax, ymin, ymax = region.bounds()
    if region.kind == "hexagon_H":
        (m,) = region.params
        lo, hi = np.maximum(ys - m, -m), np.minimum(ys + m, m)
    elif region.kind == "disk":
        (r,) = region.params
        rest = np.maximum(r * r - ys * ys, 0)
        half = np.sqrt(rest.astype(np.float64)).astype(np.int64)
        half -= half * half > rest
        lo, hi = -half, half
    else:
        lo, hi = np.full_like(ys, xmin), np.full_like(ys, xmax)
    outside = (ys < ymin) | (ys > ymax)
    lo[outside], hi[outside] = 1, 0
    return lo, hi


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
        yield (ys, *row_spans(region, ys))


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


def _disk_rows(disk: Region) -> Iterator[tuple[np.ndarray, ...]]:
    """The disk's rows 0..R as int64 chunks (ys, half-widths, weights).  Row
    -y holds the negatives of row y's points, so a row y > 0 weighs 2, for
    itself and row -y, and row 0 weighs 1."""
    for ys, _, half in _rows(disk, 0):
        yield ys, half, 2 - (ys == 0)


def disk_diametral(disk: Region) -> tuple[int, int]:
    """(points, diametral points) of a disk: each row adds its x-range to the
    total and each row y > 0 its points in the cone's span, min(2y, h) -
    ceil(y/2) + 1 or none, to the hits."""
    total = hits = 0
    for ys, half, weight in _disk_rows(disk):
        total += int((weight * (2 * half + 1)).sum())
        # row 0 holds no diametral point; each row above it stands for two
        above = int(ys[0] == 0)
        a, b = _cone_span(ys[above:])
        hits += 2 * int(np.maximum(np.minimum(b, half[above:]) - a + 1, 0).sum())
    return total, hits


def disk_lengths(disk: Region) -> tuple[int, int, int]:
    """(points, orbit length sum, largest orbit length) of a disk.

    Each row sums 2(|2x-y| + |x+y| + |2y-x|) over its x-range in closed
    form.  On a row y >= 0 of half-width h the left end -h holds the row's
    maximum: its half-length 3h + 3y + |y - h| is 4h + 2y when h >= y and
    2h + 4y when h < y, and the right end's, |2h - y| + h + y + |2y - h|, is
    then 3h + |2y - h| <= 4h + 2y or |2h - y| + 3y <= 2h + 4y.
    """
    total = count = maximum = 0
    for ys, half, weight in _disk_rows(disk):
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
    return count, total, maximum


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


def histogram(region: Region, bins: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(diametral, others) per bin of ``census.projection_histogram``.

    The row y = 0 is split at x = 0 by hand.  Every row below the axis is
    turned by pi, which maps its bin boundaries onto the rays psi_j =
    pi j / bins with j of the parity of bins; those above are the rays of
    even j.  On a row y > 0 the angle falls as x grows, and the points at or
    past the ray psi_j are those with x <= y cot psi_j.  A row's points all
    start in the bin of its right end, and each ray between its ends' bins
    then moves its floor(y cot psi_j) - lo + 1 points at or past it, and as
    many of its cone span's, up one bin.  So the work is O(rows + crossed
    (row, ray) pairs), at most O(points), and the pairs go in pieces of at
    most ``_RUN``.

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
    return tuple(int(v) for v in dia), tuple(int(v) for v in total - dia)


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
