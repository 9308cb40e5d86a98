"""The int64 row kernels of the angular histogram, which ``aughts.census``
imports once a histogram has passed its guards and ``WORK_LIMIT``, the
budget of histograms alone, and of the SVG renders' scan blocks.  Neither
disk count reads rows: both walk the lattice hull of one octant of the
disk's arc in Python ints (``census._disk_octant``), within the 2^31 guard.

No count loops over rows in Python: ``_rows`` gives a region's rows in
chunks of up to 2^16 as int64 arrays with their ``row_spans`` x-ranges, and
numpy does the rest, so a row costs tens of nanoseconds.  Only the renders
scan points: ``_runs`` cuts each chunk into blocks of at most ``_RUN``
points, as it cuts the histogram's crossed (row, ray) pairs into pieces of
at most ``_PIECE``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from aughts.census import COORD_LIMIT, Region, _check_coords
from aughts.orbits import _cone_span

# Rows per chunk of the row counts and the scan, so a chunk's arrays stay a
# few MB however many rows a region has.
_CHUNK_ROWS = 2**16
# Points per scan block, so a block's arrays stay a few MB however wide the
# rows.
_RUN = 2**15
# Crossed (row, ray) pairs per histogram piece, fewer than a block's: a
# piece's dozen arrays of 64 KB stay in a core's cache, and a 360-bin
# histogram of 5 * 10^5 points took 1.2 ms at this size against 2.0 ms at
# 2^15 (2-vCPU Xeon VM).
_PIECE = 2**13


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


def _rows(region: Region) -> Iterator[tuple[np.ndarray, ...]]:
    """The region's rows, ascending, in chunks of at most _CHUNK_ROWS: each
    chunk as int64 arrays (ys, lo, hi) of the rows and their ``row_span``.

    Refuses a region beyond ``COORD_LIMIT`` and yields nothing for an empty
    box; the rows of a nonempty box are nonempty.
    """
    _check_coords(region)
    xmin, xmax, ymin, ymax = region.bounds()
    if xmin > xmax:
        return
    for start in range(ymin, ymax + 1, _CHUNK_ROWS):
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
        for rows, taken, rank in _runs(hi - lo + 1, _RUN):
            yield np.repeat(lo[rows], taken) + rank, np.repeat(ys[rows], taken)


def _runs(counts: np.ndarray, size: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The items counted per row, numbered row-major, in runs of at most
    ``size``: each run as (the slice of its rows, the items it takes of each,
    each item's rank within its row).  Callers spread per-row values over
    the items with ``np.repeat(values[rows], taken)``."""
    ends = np.cumsum(counts)
    starts = ends - counts
    items = int(ends[-1]) if ends.size else 0
    for done in range(0, items, size):
        stop = min(done + size, items)
        rows = slice(
            int(np.searchsorted(ends, done, side="right")),
            int(np.searchsorted(ends, stop - 1, side="right")) + 1,
        )
        taken = np.minimum(ends[rows], stop) - np.maximum(starts[rows], done)
        yield rows, taken, np.arange(done, stop) - np.repeat(starts[rows], taken)


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
    most ``_PIECE``.

    Every decision is exact.  ``_rays`` stores for each ray psi_j the
    largest fraction p / q <= cot psi_j with q <= COORD_LIMIT.  A row's
    x / y is a fraction of that order, and cot psi_j is irrational off the
    multiples of pi/4 (Niven, *Irrational Numbers*, 1956), where p / q is
    cot psi_j itself, so x <= y cot psi_j iff x q <= y p and floor(y cot
    psi_j) = floor(y p / q), which is floored in int64.  A row's ends are
    binned against the float keys fl(p / q): as |x|, y <= 2^31 and p, q are
    exact in float64, fl(x / y) and fl(p / q) are correctly rounded, and
    rounding is monotone (Goldberg, 1991), so fl(x / y) < fl(p / q) proves
    x / y < p / q and fl(x / y) > fl(p / q) proves x / y > p / q.  A ray
    tied with an end in float is taken with the crossed ones, whose floors
    decide it: y p / q is then within 2^-52 |x| < 2^-20 of the end, so the
    floor is the end or one less.
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
    (row, ray) pairs, from float cotangents, so that a histogram that the
    bound refuses finds no Farey pair.  A row y > 0 crosses a ray only
    where y p / q lies within 2^-19 of its span [lo, hi], as fl(lo / y) <=
    fl(p / q) <= fl(hi / y), and y |cot psi - p / q| < y / 2^31 <= 1, as
    p / q and its upper Farey neighbour p' / q' (see ``_rays``) have
    q + q' > 2^31 and so q q' >= 2^31.  So each ray crosses the rows of one
    interval of y, found here from float quotients with x widened by one and
    the ends rounded outwards, which absorbs the rest, less than a row; the
    multiples of pi/4 take their exact cotangents, and the ray x = 0 crosses
    every row if the box holds x = 0, and none otherwise."""
    x0, x1, y0, y1 = region.bounds()
    if x0 > x1 or y0 > y1:
        return 0
    j = np.arange(1, bins)
    cot = np.where(4 * j % bins, 1 / np.tan(np.pi * j / bins), np.sign(bins - 2 * j))
    work = y1 - y0 + 1
    # the rows above the axis, then those below turned by pi
    for parity, ya, yb, xa, xb in (
        (0, max(y0, 1), y1, x0, x1),
        (bins % 2, max(-y1, 1), -y0, -x1, -x0),
    ):
        if ya > yb:
            continue
        rays = cot[1 - parity :: 2]  # ray j at j - 1
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
    before ``first``, where fl(p / q) > fl(hi / y), and past none from
    ``stop`` on, where fl(p / q) < fl(lo / y): the row goes to bin
    ``first``, and each ray in between moves its f - lo + 1 points at or
    past it up, with f = floor(y p / q) in [lo - 1, hi] (see
    ``histogram``).  Of the row's cone span [c0, c1] it moves f - c0 + 1
    points where 1/2 < cot < 2, as then c0 - 1 <= f <= c1; all where
    cot > 2, as f >= 2y >= c1; none where cot < 1/2, as f < y/2 <= c0.  As
    1/2 and 2 are fractions of the pairs' order, cot > 1/2 iff 2p >= q and
    cot > 2 iff p >= 2q.  So each ray moves the sum of f over the rows that
    cross it plus sums of per-row terms, which are added as steps at each
    row's ``first`` and ``stop``.  Each row or crossing adds at most
    2^32 + 1 to a bin, and the work budget allows fewer than 2^27 of them,
    so the int64 sums are exact."""
    if not y.size:
        return
    p, q, key = (a[2 - parity :: 2] for a in _rays(bins))  # ray i's
    key = -key  # ascending
    end = -(hi / y)
    first = np.searchsorted(key, end, "left")
    # the keys descend strictly, so a one-point row ties with at most one ray
    stop = first + (key.take(first, mode="clip") == end)
    wide = np.flatnonzero(hi > lo)
    stop[wide] = np.searchsorted(key, -(lo[wide] / y[wide]), "right")
    cone_lo, cone_hi = _cone_span(y)
    cone_lo, cone_hi = np.maximum(cone_lo, lo), np.minimum(cone_hi, hi)
    cone = np.maximum(cone_hi - cone_lo + 1, 0)
    np.add.at(total, first, hi - lo + 1)
    np.add.at(dia, first, cone)
    # from here on, only the rows that cross a ray
    crossing = np.flatnonzero(stop > first)
    first, stop, y, lo, cone_lo, cone = (
        a[crossing] for a in (first, stop, y, lo, cone_lo, cone)
    )

    def crossed_sum(w):
        # per ray, the sum of w over the rows that cross it
        steps = np.zeros(key.size + 1, dtype=np.int64)
        np.add.at(steps, first, w)
        np.add.at(steps, stop, -w)
        return np.cumsum(steps[:-1])

    f = np.zeros(bins, dtype=np.int64)
    first_j = 2 * first + (2 - parity)
    for rows, taken, rank in _runs(stop - first, _PIECE):
        j = np.repeat(first_j[rows], taken)
        j += 2 * rank
        # exact in float: _PIECE floors below 2^32 in size sum below 2^53
        f += np.bincount(j, _floors(bins, np.repeat(y[rows], taken), j),
                         bins).astype(np.int64)
    f = f[2 - parity :: 2]
    for out, up in (
        (total, f + crossed_sum(1 - lo)),
        (dia, np.where((2 * p >= q) & (p < 2 * q), f + crossed_sum(1 - cone_lo), 0)
              + (p >= 2 * q) * crossed_sum(cone)),
    ):
        # ray i parts bin i from bin i + 1
        out[1 : up.size + 1] += up
        out[: up.size] -= up


def _floors(bins: int, y: np.ndarray, j: np.ndarray) -> np.ndarray:
    """floor(y cot psi_j) = floor(y p_j / q_j) of each crossed pair of a row
    y > 0 and a ray j, in int64: on a crossing the floor lies in
    [lo - 1, hi], so |y p_j| < (2^31 + 2) q_j <= (2^31 + 2) 2^31 < 2^63."""
    p, q, _ = _rays(bins)
    return y * p.take(j) // q.take(j)


@lru_cache(maxsize=8)
def _rays(bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, q, key) of the rays psi_j = pi j / bins, indexed by j for
    0 < j < bins: the bin boundaries of either half-plane turned above the
    axis.  p_j / q_j, in int64, is the largest fraction <= cot psi_j with
    q_j <= COORD_LIMIT, its lower Farey neighbour, and cot psi_j itself on
    the multiples of pi/4.  As cot(pi - psi) = -cot psi, a ray past pi/2
    takes its mirror's upper neighbour, negated.  ``key`` holds fl(p / q),
    correctly rounded as p and q are exact in float64.  Entry 0 is unused,
    and so is every odd j of an even bins, as both halves read even j."""
    p, q = [0] * bins, [1] * bins
    step = 2 - bins % 2
    for j in range(step, bins // 2 + 1, step):
        if 4 * j % bins:
            low, high = _farey_pair(j, bins)
        else:  # cot psi_j is 1 or 0
            low = high = (int(2 * j < bins), 1)
        (p[j], q[j]), (p[bins - j], q[bins - j]) = low, (-high[0], high[1])
    p, q = np.array(p, dtype=np.int64), np.array(q, dtype=np.int64)
    arrays = p, q, p / q
    for array in arrays:
        array.setflags(write=False)  # cached: shared by every caller
    return arrays


def _farey_pair(j: int, bins: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The Farey neighbours p/q < cot psi < p'/q' of order COORD_LIMIT, as
    (p, q) pairs, for psi = pi j / bins in (0, pi/2) off pi/4.  cot psi
    lies in [c0 / s1, c1 / s0] by the brackets of ``_direction``, and the
    neighbours of its low end are those of cot psi once its high end lies
    below the upper one, as no fraction of the order lies between them.  The
    brackets' bits double until it does, which ends as cot psi is
    irrational."""
    k = 64 + 2 * bins.bit_length()
    while True:
        c0, c1, s0, s1 = _direction(j, bins, k)
        low, high = _neighbours(c0, s1)
        if c1 * high[1] < high[0] * s0:
            return low, high
        k *= 2


def _neighbours(a: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Fractions p/q <= a/b <= p'/q' adjacent in the Farey sequence of order
    COORD_LIMIT, as (p, q) pairs, for b > 0: the last convergent of a/b with
    a denominator of at most that order and the largest semiconvergent after
    it (Graham, Knuth & Patashnik, *Concrete Mathematics*, 4.5).  Their
    determinant is 1 and their denominators sum past the order.  a/b is
    one of them exactly when its own denominator is within the order."""
    h0, k0, h1, k1 = 0, 1, 1, 0  # the convergents -2 and -1
    while b:
        t, r = divmod(a, b)
        k = t * k1 + k0
        if k > COORD_LIMIT:
            break
        h0, h1 = h1, t * h1 + h0
        k0, k1 = k1, k
        a, b = b, r
    s = (COORD_LIMIT - k0) // k1
    semi = h0 + s * h1, k0 + s * k1
    # convergent i lies above a/b for odd i, where h1 k0 - h0 k1 = 1
    return (semi, (h1, k1)) if h1 * k0 > h0 * k1 else ((h1, k1), semi)


def _direction(j: int, bins: int, k: int) -> tuple[int, int, int, int]:
    """Integers c0 <= 2^k cos psi <= c1 and s0 <= 2^k sin psi <= s1 for
    psi = pi j / bins in (0, pi/2), from the first octant by symmetry."""
    swap = 4 * j > bins  # psi = pi/2 - alpha
    # alpha = pi num / den, in lowest terms so that rays share brackets
    num, den = (bins - 2 * j, 2 * bins) if swap else (j, bins)
    g = math.gcd(num, den)
    c0, c1, s0, s1 = _cos_sin(num // g, den // g, k)
    return (s0, s1, c0, c1) if swap else (c0, c1, s0, s1)


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
