"""Counting formulas, censuses and averages over lattice regions.

Two counting bases never mix: modular censuses and the orbit averages count
DISTINCT ORBITS (deduplicated through the canonical representative), while
diametral fractions and the disk length average count LATTICE POINTS with
multiplicity.  Region scans run in row blocks; partial results carry exact
integers only and merge commutatively, so block size never affects output.

Diametral counts scan no points: a point other than the origin is diametral
iff it or its negative lies in the double cone x/2 <= y <= 2x, so each row
contributes the exact interval intersection of its x-range with the cone,
computed in Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from aughts.orbits import cycle_points

DEFAULT_BLOCK_ROWS = 128


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Region:
    """Integer lattice region with an exact membership predicate.

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

    def mask(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        if self.kind in ("square_0M", "square_sym", "rect"):
            return np.ones(x1.shape, dtype=bool)
        if self.kind == "hexagon_H":
            (m,) = self.params
            return np.abs(x1 - x2) <= m
        if self.kind == "disk":
            (r,) = self.params
            return x1 * x1 + x2 * x2 <= r * r
        raise ValueError(f"unknown region kind {self.kind!r}")

    def contains(self, x1: int, x2: int) -> bool:
        xmin, xmax, ymin, ymax = self.bounds()
        if not (xmin <= x1 <= xmax and ymin <= x2 <= ymax):
            return False
        return bool(
            self.mask(np.asarray([x1], dtype=np.int64), np.asarray([x2], dtype=np.int64))[0]
        )

    def describe(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}


def _check_size(value: int) -> None:
    if value < 1:
        raise ValueError(f"region size must be >= 1, got {value}")


def _iter_blocks(
    region: Region, block_rows: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (x1, x2) coordinate arrays for successive row blocks."""
    xmin, xmax, ymin, ymax = region.bounds()
    if xmin > xmax or ymin > ymax:
        return
    xs = np.arange(xmin, xmax + 1, dtype=np.int64)
    for y0 in range(ymin, ymax + 1, block_rows):
        y1 = min(y0 + block_rows - 1, ymax)
        ys = np.arange(y0, y1 + 1, dtype=np.int64)
        x1 = np.repeat(xs[np.newaxis, :], len(ys), axis=0)
        x2 = np.repeat(ys[:, np.newaxis], len(xs), axis=1)
        keep = region.mask(x1, x2)
        yield x1[keep], x2[keep]


# ---------------------------------------------------------------------------
# vectorized orbit geometry (mirrors the scalar definitions in aughts.orbits)


def _perimeter(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Orbit length 2p = 2(|2x1-x2| + |x1+x2| + |2x2-x1|)."""
    return 2 * (
        np.abs(2 * x1 - x2) + np.abs(x1 + x2) + np.abs(2 * x2 - x1)
    )


def _node_pairs(x1, x2):
    return (
        (x1, x2),
        (x2 - x1, x2),
        (x2 - x1, -x1),
        (-x2, -x1),
        (-x2, x1 - x2),
        (x1, x1 - x2),
    )


def _pack_keys(x1: np.ndarray, x2: np.ndarray, offset: int, base: int) -> np.ndarray:
    """Canonical orbit key: packed lexicographic maximum over the six nodes."""
    best: np.ndarray | None = None
    for a, b in _node_pairs(x1, x2):
        key = (a + offset) * base + (b + offset)
        best = key if best is None else np.maximum(best, key)
    assert best is not None
    return best


def _key_layout(region: Region) -> tuple[int, int]:
    xmin, xmax, ymin, ymax = region.bounds()
    bound = max(abs(xmin), abs(xmax), abs(ymin), abs(ymax), 1)
    if bound > 2**20:
        # keeps packed keys and all vectorized arithmetic inside int64
        raise ValueError(f"region coordinates exceed the 2^20 scan guard: {bound}")
    offset = 2 * bound + 1
    return offset, 2 * offset + 1


def unpack_key(key: int, offset: int, base: int) -> tuple[int, int]:
    a, b = divmod(int(key), base)
    return a - offset, b - offset


def _diametral_mask(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Vectorized: point attains the maximal pairwise distance in its orbit.

    That is the double cone x/2 <= y <= 2x and its negative, tested with
    comparisons only, so no square can wrap.
    """
    return ((x1 > 0) & (2 * x2 >= x1) & (x2 <= 2 * x1)) | (
        (x1 < 0) & (2 * x2 <= x1) & (x2 >= 2 * x1)
    )


def _cone_span(y: int) -> tuple[int, int]:
    """Inclusive x-range of the diametral points on row y (empty on row 0)."""
    if y > 0:
        return -(-y // 2), 2 * y
    if y < 0:
        return 2 * y, y // 2
    return 1, 0


# ---------------------------------------------------------------------------
# distinct-orbit table


@dataclass(frozen=True)
class OrbitTable:
    """Distinct orbits meeting a region, keyed by canonical representative."""

    region: Region
    total_points: int
    keys: np.ndarray        # sorted packed representatives
    perimeters: np.ndarray  # orbit length 2p per key
    offset: int
    base: int

    @property
    def total_orbits(self) -> int:
        return int(self.keys.size)

    def representatives(self) -> list[tuple[int, int]]:
        return [unpack_key(k, self.offset, self.base) for k in self.keys]

    @property
    def box_sides(self) -> np.ndarray:
        return self.perimeters // 4

    @property
    def diam_multipliers(self) -> np.ndarray:
        # The diameter multiplier and the box side are the same three-way
        # maximum, so both equal a quarter of the orbit length.
        return self.perimeters // 4


def distinct_orbit_table(
    region: Region, block_rows: int = DEFAULT_BLOCK_ROWS
) -> OrbitTable:
    offset, base = _key_layout(region)
    key_parts: list[np.ndarray] = []
    perim_parts: list[np.ndarray] = []
    total_points = 0
    for x1, x2 in _iter_blocks(region, block_rows):
        total_points += int(x1.size)
        if x1.size == 0:
            continue
        keys = _pack_keys(x1, x2, offset, base)
        perims = _perimeter(x1, x2)
        uniq, idx = np.unique(keys, return_index=True)
        key_parts.append(uniq)
        perim_parts.append(perims[idx])
    if not key_parts:
        empty = np.empty(0, dtype=np.int64)
        return OrbitTable(region, total_points, empty, empty.copy(), offset, base)
    keys = np.concatenate(key_parts)
    perims = np.concatenate(perim_parts)
    uniq, idx = np.unique(keys, return_index=True)
    return OrbitTable(region, total_points, uniq, perims[idx], offset, base)


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
    sum_diam_multiplier: int
    sum_perimeter: int
    sum_box_side: int

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


def modular_census(
    m: int, d: int, block_rows: int = DEFAULT_BLOCK_ROWS
) -> CensusReport:
    """Tally DISTINCT orbits seeded from [0,m]^2 by orbit length mod d."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    table = distinct_orbit_table(Region.square(m), block_rows)
    residues = {r: 0 for r in range(d)}
    values, counts = np.unique(table.perimeters % d, return_counts=True)
    for r, c in zip(values, counts):
        residues[int(r)] = int(c)
    return CensusReport(
        region=table.region,
        basis="orbits",
        modulus=d,
        total_points=table.total_points,
        total_orbits=table.total_orbits,
        residue_counts=residues,
        diametral_points=0,
        sum_diam_multiplier=int(table.diam_multipliers.sum()),
        sum_perimeter=int(table.perimeters.sum()),
        sum_box_side=int(table.box_sides.sum()),
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
        sum_diam_multiplier=0,
        sum_perimeter=0,
        sum_box_side=0,
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


def square_orbit_averages(
    m: int, block_rows: int = DEFAULT_BLOCK_ROWS
) -> OrbitAverages:
    if m < 100:
        raise ValueError(f"m must be >= 100 for the tolerance contract, got {m}")
    table = distinct_orbit_table(Region.square(m), block_rows)
    count = table.total_orbits
    return OrbitAverages(
        m=m,
        orbit_count=count,
        diameter=math.sqrt(2) * int(table.diam_multipliers.sum()) / count,
        box_side=int(table.box_sides.sum()) / count,
        perimeter=int(table.perimeters.sum()) / count,
    )


def average_diameter_square(m: int, block_rows: int = DEFAULT_BLOCK_ROWS) -> float:
    """Mean Euclidean diameter over distinct orbits seeded in [0,m]^2."""
    return square_orbit_averages(m, block_rows).diameter


@dataclass(frozen=True)
class DiskLengthStats:
    r: int
    point_count: int
    average: float
    maximum: int


def disk_length_stats(r: int, block_rows: int = DEFAULT_BLOCK_ROWS) -> DiskLengthStats:
    """Point-weighted orbit length statistics over the disk of radius r.

    Every lattice point contributes the length of its own orbit, so orbits
    are counted with multiplicity here, unlike the square averages.
    """
    if r < 100:
        raise ValueError(f"r must be >= 100 for the tolerance contract, got {r}")
    total = 0
    count = 0
    maximum = 0
    for x1, x2 in _iter_blocks(Region.disk(r), block_rows):
        if x1.size == 0:
            continue
        perims = _perimeter(x1, x2)
        total += int(perims.sum())
        count += int(x1.size)
        maximum = max(maximum, int(perims.max()))
    return DiskLengthStats(r, count, total / count, maximum)


def average_length_disk(r: int, block_rows: int = DEFAULT_BLOCK_ROWS) -> float:
    return disk_length_stats(r, block_rows).average


# ---------------------------------------------------------------------------
# angular histogram


@dataclass(frozen=True)
class ProjectionHistogram:
    bins: int
    diametral: tuple[int, ...]
    others: tuple[int, ...]


def projection_histogram(
    region: Region, bins: int, block_rows: int = DEFAULT_BLOCK_ROWS
) -> ProjectionHistogram:
    """Counts of diametral / non-diametral points per direction-angle bin.

    The origin has no direction and is skipped.
    """
    if bins < 8:
        raise ValueError(f"need at least 8 bins, got {bins}")
    dia = np.zeros(bins, dtype=np.int64)
    oth = np.zeros(bins, dtype=np.int64)
    for x1, x2 in _iter_blocks(region, block_rows):
        if x1.size == 0:
            continue
        nonzero = (x1 != 0) | (x2 != 0)
        x1, x2 = x1[nonzero], x2[nonzero]
        if x1.size == 0:
            continue
        theta = np.arctan2(x2.astype(float), x1.astype(float)) % (2 * math.pi)
        idx = np.minimum((theta / (2 * math.pi) * bins).astype(np.int64), bins - 1)
        mask = _diametral_mask(x1, x2)
        dia += np.bincount(idx[mask], minlength=bins)
        oth += np.bincount(idx[~mask], minlength=bins)
    return ProjectionHistogram(bins, tuple(int(v) for v in dia), tuple(int(v) for v in oth))


# ---------------------------------------------------------------------------
# scalar cross-check helper (used by tests to tie the vectorized scans back
# to the one-point definitions)


def scalar_orbit_key(x1: int, x2: int, region: Region) -> int:
    offset, base = _key_layout(region)
    rep = max(cycle_points((x1, x2)))
    return (rep[0] + offset) * base + (rep[1] + offset)
