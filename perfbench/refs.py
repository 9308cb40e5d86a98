"""Reference answers, computed without calling the package under test.

Every function here derives its answer from the definitions by a route the
package does not take: per-row interval counts with Python ints instead of
per-point masks, an orbit-membership predicate instead of packed orbit keys,
closed-form sums instead of loops, and cycle-type counting instead of group
enumeration.  The benchmark compares each job's output with these, so a
fast path is never checked against itself.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# Every modulus the orbit-census workload uses divides 144, so residues of
# the orbit length mod 144 determine the residues mod each of them.
RESIDUE_BASE = 144


# ---------------------------------------------------------------------------
# point censuses, one row at a time


def row_span(kind: str, params: tuple[int, ...]) -> tuple[int, int]:
    """The region's first and last row (y) index."""
    if kind == "square":
        return 0, params[0]
    if kind in ("sym-square", "hexagon", "disk"):
        return -params[0], params[0]
    if kind == "rect":
        return params[2], params[3]
    raise ValueError(f"unknown region kind {kind!r}")


def bounds(kind: str, params: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(xmin, xmax, ymin, ymax) of the region's bounding box."""
    if kind == "rect":
        return tuple(params)
    y0, y1 = row_span(kind, params)
    return (0, params[0]) + (y0, y1) if kind == "square" else (y0, y1, y0, y1)


def row_range(kind: str, params: tuple[int, ...], y: int) -> tuple[int, int]:
    """The x-range [lo, hi] of the region's row y (empty when lo > hi)."""
    if kind == "square":
        return 0, params[0]
    if kind == "sym-square":
        return -params[0], params[0]
    if kind == "hexagon":
        m = params[0]
        return max(-m, y - m), min(m, y + m)
    if kind == "disk":
        r = params[0]
        half = math.isqrt(r * r - y * y)
        return -half, half
    if kind == "rect":
        return params[0], params[1]
    raise ValueError(f"unknown region kind {kind!r}")


def rows(kind: str, params: tuple[int, ...]):
    """Yield (y, lo, hi) for every non-empty row of the region."""
    y0, y1 = row_span(kind, params)
    for y in range(y0, y1 + 1):
        lo, hi = row_range(kind, params, y)
        if lo <= hi:
            yield y, lo, hi


def cone_row(y: int, lo: int, hi: int) -> int:
    """Diametral points (x, y) with lo <= x <= hi.

    Away from the origin a point is diametral iff it or its negative lies in
    the cone x/2 <= y <= 2x.  For y > 0 that is ceil(y/2) <= x <= 2y, for
    y < 0 it is 2y <= x <= floor(y/2), and row 0 holds only the origin.
    """
    if y > 0:
        a, b = -(-y // 2), 2 * y
    elif y < 0:
        a, b = 2 * y, y // 2
    else:
        return 0
    return max(0, min(b, hi) - max(a, lo) + 1)


def is_diametral(x: int, y: int) -> bool:
    return cone_row(y, x, x) == 1


def point_census(kind: str, params: tuple[int, ...]) -> tuple[int, int]:
    """(lattice points, diametral points) of the region."""
    total = hits = 0
    for y, lo, hi in rows(kind, params):
        total += hi - lo + 1
        hits += cone_row(y, lo, hi)
    return total, hits


def contains(kind: str, params: tuple[int, ...], x: int, y: int) -> bool:
    y0, y1 = row_span(kind, params)
    if not y0 <= y <= y1:
        return False
    lo, hi = row_range(kind, params, y)
    return lo <= x <= hi


def _sum_abs(a: int, b: int, lo: int, hi: int) -> int:
    """Sum of |a*x + b| over the integers lo..hi, for a != 0."""
    if a < 0:
        a, b = -a, -b
    zero = -(b // a)  # first x with a*x + b >= 0

    def linear(l: int, h: int) -> int:
        if l > h:
            return 0
        n = h - l + 1
        return a * (l + h) * n // 2 + b * n

    return linear(max(lo, zero), hi) - linear(lo, min(hi, zero - 1))


def orbit_length(x: int, y: int) -> int:
    """Length of the closed orbit path: the sum of its six axis steps."""
    return 2 * (abs(2 * x - y) + abs(x + y) + abs(2 * y - x))


def disk_lengths(r: int) -> tuple[int, int, int]:
    """(points, sum of orbit lengths, largest orbit length) over the disk."""
    count = total = largest = 0
    for y, lo, hi in rows("disk", (r,)):
        count += hi - lo + 1
        total += 2 * (
            _sum_abs(2, -y, lo, hi) + _sum_abs(1, y, lo, hi) + _sum_abs(-1, 2 * y, lo, hi)
        )
        # the length is convex along a row, so its maximum sits at an end
        largest = max(largest, orbit_length(lo, y), orbit_length(hi, y))
    return count, total, largest


def row_major_point(kind: str, params: tuple[int, ...], index: int, skip_origin: bool):
    """The index-th region point in row-major order (y ascending, then x)."""
    for y, lo, hi in rows(kind, params):
        width = hi - lo + 1
        origin_here = skip_origin and y == 0 and lo <= 0 <= hi
        if index < width - origin_here:
            x = lo + index
            if origin_here and x >= 0:
                x += 1
            return x, y
        index -= width - origin_here
    raise IndexError("point index beyond the region")


# ---------------------------------------------------------------------------
# distinct-orbit census over [0, M]^2 for every M up to a bound


def _other_nodes(x, y):
    """The five other points of the orbit of (x, y), by the operator pair.

    K1 sends (x, y) to (y - x, y) and K2 sends it to (x, x - y); alternating
    them from the seed walks the whole six-point cycle.
    """
    out = []
    a, b = x, y
    for step in range(5):
        if step % 2 == 0:
            a = b - a
        else:
            b = a - b
        out.append((a, b))
    return out


class OrbitCensusTable:
    """Distinct-orbit statistics of [0, M]^2 for every M in 0..m_max.

    A point of the square is kept iff it is the lexicographic maximum among
    the points of its orbit that lie in the square.  For a point p let m(p)
    be the smallest M whose square holds p and t(p) the smallest M whose
    square holds a lexicographically larger point of p's orbit; p is kept
    for exactly the M in [m(p), t(p)).  One sweep over [0, m_max]^2 therefore
    answers every M with difference arrays over M.
    """

    def __init__(self, m_max: int, block_rows: int = 64):
        self.m_max = m_max
        slots = m_max + 2
        residues = np.zeros(slots * RESIDUE_BASE, dtype=np.int64)
        sums = {k: np.zeros(slots, dtype=np.int64) for k in ("length", "diam", "box")}
        xs = np.arange(0, m_max + 1, dtype=np.int64)
        never = m_max + 1
        for y0 in range(0, m_max + 1, block_rows):
            ys = np.arange(y0, min(y0 + block_rows, m_max + 1), dtype=np.int64)
            x, y = np.meshgrid(xs, ys)
            x, y = x.ravel(), y.ravel()
            enter = np.full(x.shape, never, dtype=np.int64)
            lo_x, hi_x = x.copy(), x.copy()
            for a, b in _other_nodes(x, y):
                larger = (a > x) | ((a == x) & (b > y))
                inside = larger & (a >= 0) & (b >= 0)
                np.minimum(enter, np.where(inside, np.maximum(a, b), never), out=enter)
                np.minimum(lo_x, a, out=lo_x)
                np.maximum(hi_x, a, out=hi_x)
            first = np.maximum(x, y)
            keep = first < enter
            first, enter = first[keep], enter[keep]
            length = orbit_length_np(x[keep], y[keep])
            diam = np.maximum(
                np.abs(x + y), np.maximum(np.abs(2 * x - y), np.abs(2 * y - x))
            )[keep]
            box = (hi_x - lo_x)[keep]
            res = length % RESIDUE_BASE
            residues += np.bincount(first * RESIDUE_BASE + res, minlength=residues.size)
            residues -= np.bincount(enter * RESIDUE_BASE + res, minlength=residues.size)
            for key, values in (("length", length), ("diam", diam), ("box", box)):
                sums[key] += _int_bincount(first, values, slots)
                sums[key] -= _int_bincount(enter, values, slots)
        self.residues = np.cumsum(residues.reshape(slots, RESIDUE_BASE), axis=0)
        self.sums = {k: np.cumsum(v) for k, v in sums.items()}

    def census(self, m: int, d: int) -> dict:
        """Exact totals of the modular census of [0, m]^2 mod d."""
        if not 0 <= m <= self.m_max or RESIDUE_BASE % d:
            raise ValueError(f"table does not cover m={m}, d={d}")
        row = self.residues[m]
        counts = {r: int(row[r::d].sum()) for r in range(d)}
        return {
            "total_points": (m + 1) ** 2,
            "total_orbits": int(row.sum()),
            "residue_counts": counts,
            "sums": {
                "diam_multiplier": int(self.sums["diam"][m]),
                "perimeter": int(self.sums["length"][m]),
                "box_side": int(self.sums["box"][m]),
            },
        }


def orbit_length_np(x, y):
    return 2 * (np.abs(2 * x - y) + np.abs(x + y) + np.abs(2 * y - x))


def _int_bincount(index, values, size) -> np.ndarray:
    # float64 bincount is exact here: every partial sum stays below 2^53
    return np.rint(np.bincount(index, weights=values, minlength=size)).astype(np.int64)


def orbit_averages(census: dict) -> dict:
    """The square orbit averages implied by a census of [0, m]^2."""
    count = census["total_orbits"]
    sums = census["sums"]
    return {
        "orbit_count": count,
        "diameter": math.sqrt(2) * sums["diam_multiplier"] / count,
        "box_side": sums["box_side"] / count,
        "perimeter": sums["perimeter"] / count,
    }


def perimeter_stats(t: int) -> tuple[int, int]:
    """(orbits, sum of lengths) over all orbits of length at most t.

    Orbit representatives are the lattice points of the cone x/2 <= y <= 2x,
    and the orbit of (a, b) there has length 4(a + b); so length 4k holds
    floor(2k/3) - ceil(k/3) + 1 orbits, which is q + 1, q, q + 1 for
    k = 3q, 3q + 1, 3q + 2.  Summing each residue class of k mod 3 (length
    mod 12) in closed form gives both totals.
    """
    top = t // 4
    count = total = 0
    for r, extra in ((0, 1), (1, 0), (2, 1)):
        q0 = 1 if r == 0 else 0
        q1 = (top - r) // 3
        if q1 < q0:
            continue
        n = q1 - q0 + 1
        s1 = (q0 + q1) * n // 2
        s2 = (q1 * (q1 + 1) * (2 * q1 + 1) - (q0 - 1) * q0 * (2 * q0 - 1)) // 6
        # orbits: sum of (q + extra); lengths: sum of 4 (3q + r)(q + extra)
        count += s1 + extra * n
        total += 4 * (3 * s2 + (3 * extra + r) * s1 + r * extra * n)
    return count, total


# ---------------------------------------------------------------------------
# the group, through its image in the symmetric group of degree n + 1


def sym_order_spectrum(degree: int) -> dict[int, int]:
    """{order: count} over all permutations of `degree` points.

    Counts each cycle type with degree! / prod(k^m_k * m_k!), where the
    order of the type is the lcm of its cycle lengths.
    """
    spectrum: Counter = Counter()

    def parts(remaining: int, largest: int, acc: list[int]):
        if remaining == 0:
            mult = Counter(acc)
            denom = 1
            for k, m in mult.items():
                denom *= k**m * math.factorial(m)
            spectrum[math.lcm(*acc) if acc else 1] += math.factorial(degree) // denom
            return
        for k in range(min(remaining, largest), 0, -1):
            parts(remaining - k, k, acc + [k])

    parts(degree, degree, [])
    return dict(sorted(spectrum.items()))


def star_distance(images: tuple[int, ...]) -> int:
    """Word length of a permutation over the star transpositions (1 j).

    With c non-trivial cycles moving m points, the length is c + m, less 2
    when the permutation moves 1 (Akers and Krishnamurthy, 1989).
    """
    seen = [False] * len(images)
    cycles = moved = 0
    for start in range(len(images)):
        if seen[start] or images[start] == start + 1:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            moved += 1
            j = images[j] - 1
    return cycles + moved - (2 if images[0] != 1 else 0)


def sign(e: int) -> int:
    return -1 if e & 1 else 1


def probe(n: int) -> list[int]:
    """A vector whose image names a matrix with entries in {-1, 0, 1}.

    Row i of M times (1, B, B^2, ...) is that row read in balanced base B,
    so with B = 3 the product determines M.
    """
    return [3**k for k in range(n)]


def apply_generator(j: int, v: list[int]) -> list[int]:
    """K(j) v: coordinate j becomes the alternating sum starting at -v_j."""
    out = list(v)
    out[j - 1] = sum(sign(j + c - 1) * v[c - 1] for c in range(1, len(v) + 1))
    return out


def element_matrix(sigma, h: int, eps: int) -> list[list[int]]:
    """The matrix named by (sigma, h, eps), from its definition."""
    n = len(sigma)
    rows_ = []
    for j in range(1, n + 1):
        if eps == 1 and j == h:
            rows_.append([sign(j + c) for c in range(n)])
        else:
            row = [0] * n
            row[sigma[j - 1] - 1] = sign(j + sigma[j - 1])
            rows_.append(row)
    return rows_


def mat_vec(m: list[list[int]], v: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def generator_matrix(n: int, j: int) -> np.ndarray:
    k = np.eye(n, dtype=np.int64)
    k[j - 1] = [sign(j + c) for c in range(n)]
    return k


def transposition(degree: int, a: int, b: int) -> tuple[int, ...]:
    images = list(range(1, degree + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


def then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The composite with p acting first."""
    return tuple(q[v - 1] for v in p)


# ---------------------------------------------------------------------------
# 2D orbits and reachability, by applying the operators


def orbit_nodes(x: int, y: int) -> list[tuple[int, int]]:
    """Distinct points of the orbit of (x, y) in traversal order."""
    nodes = [(x, y)]
    for p in _other_nodes(x, y):
        if p not in nodes:
            nodes.append(p)
    return nodes


def reach(point: tuple[int, ...], limit: int = 10**6) -> tuple[set, int]:
    """Nodes and edge count of the closure of a point under all operators."""
    seen = {point}
    edges = set()
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for j in range(1, len(p) + 1):
                q = tuple(apply_generator(j, list(p)))
                if q != p:
                    edges.add((min(p, q), max(p, q)))
                if q not in seen:
                    if len(seen) >= limit:
                        raise ValueError(f"closure of {point} exceeds {limit} nodes")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen, len(edges)
