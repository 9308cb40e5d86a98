"""Census formulas and region scans, with brute-force cross-checks."""

import hashlib
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from brute_force import (
    antidiagonal_census,
    brute_is_diametral,
    cos_sin_bracket,
    diametral_count,
    exact_histogram,
    extents,
    fitted_census,
    max_pairwise_dist_sq,
    orbit_nodes,
    per_row_blocks,
    per_row_diametral_counts,
    per_row_disk_length_stats,
    ratio12,
    root_double,
    root_ratio12,
    walk_length,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import aughts
from aughts import census, rows
from aughts.census import (
    PerimeterStats,
    Region,
    count_orbits_with_perimeter,
    cumulative_perimeter_stats,
    diametral_census,
    diametral_report,
    disk_length_stats,
    modular_census,
    projection_histogram,
    square_orbit_averages,
    square_orbit_sums,
)
from aughts.errors import ResourceLimitError
from aughts.orbits import _in_cone, _semi_perimeter, orbit2d, orbit_rep, semi_perimeter
from aughts.svg import RenderSpec, render_svg


# -- independent brute-force oracle ----------------------------------------

def brute_force_perimeter_counts(max_perimeter):
    """Distinct orbits per length, by scanning a box that provably contains
    every node of every orbit with length <= max_perimeter (all node
    coordinates are bounded by a quarter of the orbit length)."""
    bound = max_perimeter // 4
    seen = {}
    for x1 in range(-bound, bound + 1):
        for x2 in range(-bound, bound + 1):
            length = 2 * semi_perimeter((x1, x2))
            if 0 < length <= max_perimeter:
                seen.setdefault(length, set()).add(orbit_rep((x1, x2)))
    return {length: len(reps) for length, reps in sorted(seen.items())}


def test_count_examples():
    assert count_orbits_with_perimeter(100) == 8
    assert count_orbits_with_perimeter(96) == 9
    assert count_orbits_with_perimeter(4) == 0
    assert count_orbits_with_perimeter(8) == 1
    assert count_orbits_with_perimeter(7) == 0
    assert count_orbits_with_perimeter(102) == 0
    with pytest.raises(ValueError):
        count_orbits_with_perimeter(0)


def test_count_matches_brute_force_up_to_400():
    oracle = brute_force_perimeter_counts(400)
    for x in range(4, 401, 4):
        assert count_orbits_with_perimeter(x) == oracle.get(x, 0), x


@pytest.mark.parametrize(
    "x", [2**60, 10**30, 12 * (2**53 + 1)], ids=["2^60", "10^30", "12(2^53+1)"]
)
def test_count_is_exact_above_2_53(x):
    # through a float, ceil(x / 12) is off by 4.2 * 10^12 at x = 10^30
    for y in (x, x + 4):
        exact = cumulative_perimeter_stats(y).count - cumulative_perimeter_stats(y - 4).count
        assert count_orbits_with_perimeter(y) == exact, y


def test_closed_forms_take_numpy_integers():
    # each scalar becomes an int where it enters, so no int64 product wraps
    def ints(*values):
        return all(type(v) is int for v in values)

    t, m = np.int64(10**8), np.int64(2**31)
    assert count_orbits_with_perimeter(t) == count_orbits_with_perimeter(10**8)
    assert ints(count_orbits_with_perimeter(t))
    stats = cumulative_perimeter_stats(t)
    assert stats == cumulative_perimeter_stats(10**8) and ints(stats.count, stats.total)
    assert stats.total == 6944445277777777777776
    residues, count, length = square_orbit_sums(m, np.int64(3))
    assert (residues, count, length) == square_orbit_sums(2**31, 3)
    assert ints(*residues, count, length)
    report = modular_census(m, np.int64(3))
    assert report.to_json_dict() == modular_census(2**31, 3).to_json_dict()
    assert ints(report.modulus, report.total_points, report.sum_perimeter)
    averages = square_orbit_averages(m)
    assert averages == square_orbit_averages(2**31) and ints(averages.m)
    lengths = disk_length_stats(np.int64(100))
    assert lengths == disk_length_stats(100) and ints(lengths.r)
    hist = projection_histogram(Region.disk(10), np.int64(8))
    assert hist == projection_histogram(Region.disk(10), 8) and ints(hist.bins)


def test_cumulative_stats_small():
    stats = cumulative_perimeter_stats(12)
    assert (stats.count, stats.total) == (3, 32)
    oracle = brute_force_perimeter_counts(48)
    stats = cumulative_perimeter_stats(48)
    assert stats.count == sum(oracle.values())
    assert stats.total == sum(length * k for length, k in oracle.items())
    with pytest.raises(ValueError):
        cumulative_perimeter_stats(3)


def loop_perimeter_stats(t):
    """Per-length oracle: sum count_orbits_with_perimeter over x = 4, 8, ..., t."""
    count = 0
    total = 0
    for x in range(4, t + 1, 4):
        n = count_orbits_with_perimeter(x)
        count += n
        total += n * x
    return PerimeterStats(count, total, total / count if count else 0.0)


def test_cumulative_closed_form_matches_loop():
    for t in list(range(4, 3000)) + [100_003, 1_234_567]:
        assert cumulative_perimeter_stats(t) == loop_perimeter_stats(t), t


def test_cumulative_monotone():
    prev = 0
    for t in range(4, 200, 4):
        count = cumulative_perimeter_stats(t).count
        assert count >= prev
        prev = count


def test_census_counts_monotone_in_region_size():
    prev = 0
    for m in (20, 40, 60, 80):
        total = modular_census(m, 4).total_orbits
        assert total > prev
        prev = total


def test_census_input_range():
    for m in (0, -1):
        with pytest.raises(ValueError):
            modular_census(m, 8)
        with pytest.raises(ValueError):
            square_orbit_averages(m)
    report = modular_census(2**31 + 1, 8)
    assert report.total_points == (2**31 + 2) ** 2


@pytest.mark.parametrize("m", [2**31 + 1, 2**40, 2**40 + 1, 10**30])
def test_orbit_census_at_any_size(m):
    # the orbits are the cone's points of [0,m]^2 and the origin's orbit, and
    # the length sum is a cubic in m on each parity class
    _, count, length = square_orbit_sums(m)
    assert count == census._cone_points(0, m, 0, m) + 1
    _, fitted_count, fitted_length = fitted_census(m, 1, 2)
    assert (count, length) == (fitted_count, fitted_length)
    for d in range(2, 17):
        residues, count_d, length_d = square_orbit_sums(m, d)
        assert sum(residues) == count_d == count and length_d == length
    report = modular_census(m, 9)
    assert (report.total_orbits, report.sum_perimeter) == (count, length)
    assert square_orbit_averages(m).perimeter == length / count


def test_orbit_averages_beyond_a_double_sum():
    # at m = 10^110 the diameter multipliers sum to more than a double holds,
    # while their average does not
    m = 10**110
    _, count, length = square_orbit_sums(m)
    assert length // 4 > 2**1024
    averages = square_orbit_averages(m)
    mean = Fraction(length // 4, count)
    assert abs(Fraction(averages.diameter) ** 2 / (2 * mean**2) - 1) < 2e-15
    assert averages.box_side == float(mean)
    assert averages.perimeter == float(Fraction(length, count))


def test_census_at_two_million_has_no_int64_wrap():
    m = 2_000_000
    residues, count, length = antidiagonal_census(m, 8)
    report = modular_census(m, 8)
    assert report.residue_counts == dict(enumerate(residues))
    assert report.total_orbits == count
    assert report.sum_perimeter == length > 2**63
    assert report.sum_box_side == report.sum_diam_multiplier == length // 4


def test_region_membership():
    hexagon = Region.hexagon(5)
    assert hexagon.contains(5, 5)
    assert not hexagon.contains(5, -5)
    disk = Region.disk(5)
    assert disk.contains(3, 4)
    assert not disk.contains(4, 4)
    with pytest.raises(ValueError):
        Region.square(0)
    empty = Region.rect(1, 0, 1, 0)
    assert diametral_report(empty).total_points == 0


@pytest.mark.parametrize(
    "kind, params, error, match",
    [
        ("ellipse", (5,), ValueError, "unknown region kind 'ellipse'"),
        ("disk", (5, 6), ValueError, "a disk region takes 1 params, got 2"),
        ("square_0M", (), ValueError, "a square_0M region takes 1 params, got 0"),
        ("rect", (0, 1, 0), ValueError, "a rect region takes 4 params, got 3"),
        ("square_sym", (0,), ValueError, "region size must be >= 1, got 0"),
        ("hexagon_H", (-3,), ValueError, "region size must be >= 1, got -3"),
        ("rect", (0, 300, 0, "10"), TypeError, None),
    ],
    ids=[
        "unknown-kind", "disk-two-params", "square-no-param", "rect-three-params",
        "sym-square-size-0", "hexagon-size-negative", "rect-str",
    ],
)
def test_region_constructor_refuses_what_names_no_region(kind, params, error, match):
    with pytest.raises(error, match=match):
        Region(kind, params)


def test_region_factories_refuse_float_params():
    # rect(0.5, 300, 0, 10) counted 3311 points (the column x = 0, which
    # contains() leaves out) and square(150.5) raised from inside the scan
    with pytest.raises(TypeError):
        Region.rect(0.5, 300, 0, 10)
    with pytest.raises(TypeError):
        Region.square(150.5)


def test_region_params_from_numpy_become_ints():
    region = Region.rect(np.int64(1), np.int64(300), np.int64(0), np.int64(10))
    assert region == Region.rect(1, 300, 0, 10)
    assert all(type(v) is int for v in region.params)
    assert diametral_report(region).total_points == 3300
    disk = Region.disk(np.int64(5))
    assert type(disk.params[0]) is int and disk.describe() == {"kind": "disk", "params": [5]}


def test_disk_contains_without_int64_wrap():
    # x^2 + y^2 = 1.25e19 exceeds both R^2 = 9e18 and the int64 range
    disk = Region.disk(3 * 10**9)
    assert not disk.contains(25 * 10**8, 25 * 10**8)
    assert disk.row_span(25 * 10**8) == (-1658312395, 1658312395)
    assert disk.contains(1658312395, 25 * 10**8)
    assert not disk.contains(1658312396, 25 * 10**8)


def test_census_matches_scalar_orbit_reps():
    for m in range(1, 61):
        reps = {orbit_rep((x, y)) for x in range(m + 1) for y in range(m + 1)}
        metrics = [orbit2d(rep) for rep in reps]
        lengths = [2 * o.semi_perimeter for o in metrics]
        walked = [orbit_nodes(rep) for rep in reps]
        box_sum = sum(extents(nodes)[0] for nodes in walked)
        diam_sum = sum(math.isqrt(max_pairwise_dist_sq(nodes) // 2) for nodes in walked)
        assert census.square_orbit_sums(m) == ([len(reps)], len(reps), sum(lengths))
        for d in range(2, 17):
            report = modular_census(m, d)
            tally = Counter(length % d for length in lengths)
            assert report.residue_counts == {r: tally[r] for r in range(d)}, (m, d)
            assert report.total_points == (m + 1) ** 2
            assert report.total_orbits == len(reps)
            assert report.sum_perimeter == sum(lengths)
            assert report.sum_box_side == box_sum
            assert report.sum_diam_multiplier == diam_sum


def test_vectorized_diametral_matches_scalar():
    # int64 arrays reaching the 2^31 guard, where a squared coordinate or a
    # sum of squares would wrap
    edge = [2**31, 2**31 - 1, 2**30 + 1, 2**30, 2**30 - 1]
    values = sorted(set(range(-40, 41)) | set(edge) | {-v for v in edge})
    xs, ys = np.meshgrid(np.array(values, dtype=np.int64), np.array(values, dtype=np.int64))
    xs, ys = xs.ravel(), ys.ravel()
    mask = _in_cone(xs, ys)
    lengths = 2 * _semi_perimeter(xs, ys)
    assert mask.dtype == bool and lengths.dtype == np.int64
    for a, b, flag, length in zip(xs.tolist(), ys.tolist(), mask.tolist(), lengths.tolist()):
        assert brute_is_diametral((a, b)) == flag, (a, b)
        assert walk_length((a, b)) == length, (a, b)


def test_modular_census_counts_orbits_not_points():
    report = modular_census(60, 4)
    # every orbit length is divisible by 4
    assert report.residue_counts[0] == report.total_orbits
    assert sum(report.residue_counts.values()) == report.total_orbits
    assert report.total_points == 61 * 61
    # oracle: dedupe by canonical representative, scalar path
    reps = {orbit_rep((a, b)) for a in range(61) for b in range(61)}
    assert report.total_orbits == len(reps)


def test_modular_census_odd_modulus_small():
    report = modular_census(60, 5)
    reps = {}
    for a in range(61):
        for b in range(61):
            reps[orbit_rep((a, b))] = 2 * semi_perimeter((a, b)) % 5
    for r in range(5):
        expected = sum(1 for v in reps.values() if v == r)
        assert report.residue_counts[r] == expected


def test_modular_census_forbidden_residues():
    report = modular_census(200, 8)
    for r in range(8):
        if r % 4 != 0:
            assert report.residue_counts[r] == 0
    report = modular_census(200, 2)
    assert report.residue_counts[1] == 0


def test_modular_census_validation():
    with pytest.raises(ValueError):
        modular_census(0, 4)
    with pytest.raises(ValueError):
        modular_census(10, 1)


def test_diametral_census_small_sizes():
    frac = diametral_census(Region.square(120))
    assert abs(frac - 0.5) < 0.02
    frac = diametral_census(Region.sym_square(120))
    assert abs(frac - 0.25) < 0.02
    report = diametral_report(Region.hexagon(120))
    assert abs(report.diametral_fraction - 1 / 3) < 0.02
    assert report.diametral_points <= report.total_points
    assert report.basis == "points"


# one region of each kind at sizes 100-130; the rects straddle both axes
# asymmetrically, and the second is taller than wide
ORACLE_REGIONS = [
    Region.square(130),
    Region.sym_square(100),
    Region.hexagon(100),
    Region.disk(115),
    Region.rect(-120, 10, -17, 113),
    Region.rect(-20, 15, -130, 110),
]


@pytest.mark.parametrize("region", ORACLE_REGIONS, ids=lambda r: f"{r.kind}{list(r.params)}")
def test_diametral_row_count_matches_scalar_oracle(region):
    report = diametral_report(region)
    assert (report.total_points, report.diametral_points) == diametral_count(region)


@settings(max_examples=150, deadline=None)
@given(
    x0=st.integers(-(2**31), 2**31 - 12),
    y0=st.integers(-(2**31), 2**31 - 12),
    w=st.integers(-3, 11),
    h=st.integers(-3, 11),
    near_origin=st.booleans(),
)
def test_diametral_rect_count_matches_scalar_oracle(x0, y0, w, h, near_origin):
    if near_origin:
        # negative, straddling and on-axis rects around the cone's apex
        x0, y0 = x0 % 25 - 15, y0 % 25 - 15
    region = Region.rect(x0, x0 + w, y0, y0 + h)
    report = diametral_report(region)
    assert (report.total_points, report.diametral_points) == diametral_count(region)


NEAR_2_31 = Region.rect(2**31 - 300, 2**31 - 299, 2**31 - 300, 2**31 - 100)


def test_diametral_count_near_2_31():
    assert diametral_count(NEAR_2_31) == (402, 402)
    report = diametral_report(NEAR_2_31)
    assert (report.total_points, report.diametral_points) == (402, 402)
    assert report.diametral_fraction == 1.0


def test_projection_histogram_near_2_31():
    # the rect crosses the cone edge y = 2x, so both colours occur
    region = Region.rect(2**30 - 12, 2**30 + 3, 2**31 - 40, 2**31)
    hist = projection_histogram(region, 64)
    total, hits = diametral_count(region)
    assert 0 < hits < total
    assert (sum(hist.diametral), sum(hist.others)) == (hits, total - hits)


@pytest.mark.parametrize(
    "region",
    [
        Region.square(7),
        Region.sym_square(6),
        Region.hexagon(6),
        Region.disk(9),
        Region.rect(-4, 5, -8, 2),
        Region.rect(3, -2, 0, 4),
    ],
    ids=lambda r: f"{r.kind}{list(r.params)}",
)
def test_row_span_agrees_with_contains(region):
    # contains and the block scan both read row_span, so the scanned set is
    # checked against the independent predicate
    scanned = set(scanned_points(region))
    los, his = rows.row_spans(region, np.arange(-12, 13, dtype=np.int64))
    for y in range(-12, 13):
        lo, hi = region.row_span(y)
        assert (los[y + 12], his[y + 12]) == (lo, hi), y
        for x in range(-12, 13):
            inside = independent_member(region, x, y)
            assert inside == (lo <= x <= hi) == region.contains(x, y), (x, y)
            assert inside == ((x, y) in scanned), (x, y)


def independent_member(region, x, y):
    """Membership from the region's definition: the box, then |x-y| <= M for
    the hexagon, then x^2 + y^2 <= R^2 for the disk, in Python ints."""
    if region.kind == "rect":
        x0, x1, y0, y1 = region.params
        return x0 <= x <= x1 and y0 <= y <= y1
    (m,) = region.params
    low = 0 if region.kind == "square_0M" else -m
    if not (low <= x <= m and low <= y <= m):
        return False
    if region.kind == "hexagon_H":
        return abs(x - y) <= m
    if region.kind == "disk":
        return x * x + y * y <= m * m
    return True


def scanned_points(region):
    points = []
    for x1, x2 in rows._iter_blocks(region):
        assert x1.size > 0
        points.extend(zip(x1.tolist(), x2.tolist()))
    return points


@pytest.mark.parametrize(
    "region",
    [
        Region.disk(200),
        Region.hexagon(150),
        Region.square(130),
        Region.rect(-3, 40, -300, 20),
        Region.rect(-40000, 30000, -1, 1),
    ],
    ids=lambda r: f"{r.kind}{list(r.params)}",
)
def test_scan_matches_independent_predicate_across_blocks(region):
    # row-major order, y ascending, then x, with rows wider than a block
    # split; every block but the last is full
    sizes = [x1.size for x1, _ in rows._iter_blocks(region)]
    assert all(n == rows._RUN for n in sizes[:-1])
    points = scanned_points(region)
    assert points == sorted(points, key=lambda p: (p[1], p[0]))
    xmin, xmax, ymin, ymax = region.bounds()
    expected = [
        (x, y)
        for y in range(ymin, ymax + 1)
        for x in range(xmin, xmax + 1)
        if independent_member(region, x, y)
    ]
    assert points == expected


# Rows y of the disks of radius 2^31 - 1 and 2^31 where r^2 - y^2 is a
# square minus 1, from y^2 + k^2 = r^2 + 1.  r^2 - y^2 is a square only on
# the rows 0 and +-r: neither r^2 is a sum of two positive squares.
SQUARE_MINUS_ONE_ROWS = {
    2**31 - 1: [
        1, 316409597, 697802027, 931120763, 989425759, 1206078871, 1288490189,
        1509390961, 1527555217, 1717986917, 1776811687, 1905970273, 1935122771,
        2030950109, 2124045899, 2147483647,
    ],
    2**31: [
        1, 65536, 102879944, 216510568, 348267737, 699307792, 900453919,
        900513416, 992819024, 1019335316, 1019392999, 1108716391, 1204706777,
        1204761028, 1288490188, 1288542617, 1717947596, 1717986919, 1777705511,
        1777742276, 1839139468, 1890112148, 1890143257, 1904204927, 1949554207,
        1949581688, 2030432129, 2119055356, 2136541409, 2145017887, 2147483647,
        2147483648,
    ],
}


@pytest.mark.parametrize("r", sorted(SQUARE_MINUS_ONE_ROWS))
def test_disk_row_spans_are_exact_at_2_31(r):
    # the float sqrt of r^2 - y^2 rounds up to the next root at a square
    # minus 1, which the step down mends; at a square it is the root
    special = SQUARE_MINUS_ONE_ROWS[r]
    assert all(math.isqrt(r * r - y * y + 1) ** 2 == r * r - y * y + 1 for y in special)
    rng = np.random.default_rng(r)
    ys = np.concatenate([
        rng.integers(-r, r, size=10**5, endpoint=True),
        special, np.negative(special), [0],
        np.arange(r - 2000, r + 1), np.arange(-2**31, -2**31 + 3), [2**31],
    ]).astype(np.int64)
    region = Region.disk(r)
    lo, hi = rows.row_spans(region, ys)
    assert lo.dtype == hi.dtype == np.int64
    assert list(zip(lo.tolist(), hi.tolist())) == [region.row_span(y) for y in ys.tolist()]


def assert_blocks_match_per_row_oracle(region):
    count = 0
    for (x1, x2), (u1, u2) in zip(
        rows._iter_blocks(region), per_row_blocks(region), strict=True
    ):
        assert x1.dtype == x2.dtype == np.int64
        assert np.array_equal(x1, u1) and np.array_equal(x2, u2)
        count += 1
    assert count == -(-diametral_report(region).total_points // rows._RUN)


@pytest.mark.parametrize(
    "region",
    [
        Region.rect(0, 0, -37500, 37499),
        Region.rect(2**31 - 6, 2**31, 2**31 - 70000, 2**31),
        Region.rect(-(2**31), -(2**31) + 1, -40000, 40000),
    ],
    ids=lambda r: f"{r.kind}{list(r.params)}",
)
def test_scan_blocks_match_per_row_oracle(region):
    # each crosses a chunk of 2^16 rows
    assert_blocks_match_per_row_oracle(region)


# each region with a render, of one of the three scanned modes
CHUNK_CASES = [
    (Region.disk(300), RenderSpec(Region.disk(300), "diametral")),
    (Region.hexagon(150), RenderSpec(Region.hexagon(150), "mod_color", modulus=7)),
    (Region.rect(-40000, 30000, -1, 1), RenderSpec(Region.disk(300), "projection")),
]


@pytest.mark.parametrize("chunk_rows", [1, 7, 100])
@pytest.mark.parametrize(
    "region, render", CHUNK_CASES, ids=[f"{r.kind}{list(r.params)}" for r, _ in CHUNK_CASES]
)
def test_scan_blocks_stay_within_chunks(monkeypatch, region, render, chunk_rows):
    # A chunk of 2^16 box rows holds whole blocks, so only a disk or a
    # hexagon of more than 2^16 rows, billions of points, ends a chunk on a
    # short block; smaller chunks make that happen here.
    digest = hashlib.sha256(render_svg(render).encode()).hexdigest()
    monkeypatch.setattr(rows, "_CHUNK_ROWS", chunk_rows)
    blocks = list(rows._iter_blocks(region))
    oracle = list(per_row_blocks(region))
    for axis in (0, 1):
        assert np.array_equal(
            np.concatenate([b[axis] for b in blocks]), np.concatenate([b[axis] for b in oracle])
        )
    ymin = region.bounds()[2]
    for _, x2 in blocks:
        assert 1 <= x2.size <= rows._RUN
        assert (x2[0] - ymin) // chunk_rows == (x2[-1] - ymin) // chunk_rows
    # a render's bytes do not depend on where its blocks end
    assert hashlib.sha256(render_svg(render).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "region",
    [
        Region.rect(-3, 40, -100000, 100000),
        Region.rect(-70000, 70000, -(2**31), -(2**31) + 70000),
        Region.rect(2**31 - 70000, 2**31 + 5, 2**31 - 69990, 2**31 + 9),
        Region.rect(-(2**64), 2**64, 2**63 - 5, 2**63 + 5),
        Region.square(70000),
        Region.hexagon(40000),
        Region.disk(40000),
    ],
    ids=lambda r: f"{r.kind}{list(r.params)}",
)
def test_diametral_report_matches_per_row_oracle(region):
    report = diametral_report(region)
    assert (report.total_points, report.diametral_points) == per_row_diametral_counts(region)


# a rect corner near the origin, the 2^31 guard or 2^63, of either sign
_corner = st.sampled_from([0, 2**31, -(2**31), 2**63, -(2**63)]).flatmap(
    lambda v: st.integers(v - 40, v + 40)
)


@st.composite
def _polygon_regions(draw):
    kind = draw(st.sampled_from(["square", "sym_square", "hexagon", "rect", "rect", "rect"]))
    if kind != "rect":
        return getattr(Region, kind)(draw(st.integers(1, 260)))
    x0 = draw(_corner)
    # y0 near the axis, near the lines y = x, y = 2x and y = x/2 through x0,
    # or at an independent corner; either parity, as the offset is drawn
    y0 = draw(st.sampled_from([0, x0, 2 * x0, x0 // 2, -x0])) + draw(st.integers(-40, 40))
    y0 = draw(st.one_of(st.just(y0), _corner))
    # widths and heights below 1 give empty rects, 1 one column or one row
    w, h = draw(st.integers(-2, 60)), draw(st.integers(-2, 60))
    return Region.rect(x0, x0 + w - 1, y0, y0 + h - 1)


@settings(max_examples=600, deadline=None)
@given(region=_polygon_regions())
def test_polygon_census_closed_form_matches_per_row_oracle(region):
    report = diametral_report(region)
    assert (report.total_points, report.diametral_points) == per_row_diametral_counts(region)


@pytest.mark.parametrize("r", [1, 2, 3, 99, 100, 101, 102, 997, 1000, 2**20 + 1, 2**31 - 1, 2**31])
def test_polygon_census_matches_antidiagonal_count(r):
    # square_orbit_sums counts the cone's points of [0, r]^2 per anti-diagonal,
    # the origin included; [-r, r]^2 and the hexagon hold them and their
    # negatives
    _, cone, _ = square_orbit_sums(r)
    assert diametral_report(Region.square(r)).diametral_points == cone - 1
    assert diametral_report(Region.sym_square(r)).diametral_points == 2 * (cone - 1)
    assert diametral_report(Region.hexagon(r)).diametral_points == 2 * (cone - 1)


def test_polygon_census_at_2_62():
    # with s = 2^62, row b of the upper cone holds min(2b, s) - ceil(b/2) + 1
    # points of [0, s]^2, s^2/2 + s in all; the lower cone holds as many in
    # [-s, 0]^2, and the other two quadrants none
    report = diametral_report(Region.rect(-(2**62), 2**62, -(2**62), 2**62))
    assert report.diametral_points == 2**124 + 2**63
    assert report.total_points == (2**63 + 1) ** 2
    assert report.diametral_fraction == 0.25


def test_polygon_census_visits_no_rows(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a polygon census visited rows")

    monkeypatch.setattr(rows, "_rows", no_rows)
    _, cone, _ = square_orbit_sums(10**6)
    assert diametral_report(Region.square(10**6)).diametral_points == cone - 1
    for region in (
        Region.sym_square(10**6),
        Region.hexagon(10**6),
        Region.rect(-(2**40), 2**41, -(2**62), 2**63),
    ):
        assert 0 < diametral_report(region).diametral_fraction < 1
    with pytest.raises(AssertionError):
        diametral_report(Region.disk(100))


@pytest.mark.parametrize("r", [100, 977, 40000])
def test_disk_length_stats_match_per_row_oracle(r):
    count, total, maximum = per_row_disk_length_stats(r)
    assert disk_length_stats(r) == census.DiskLengthStats(r, count, total / count, maximum)


def test_disk_length_stats_add_rows_without_int64_wrap():
    # a chunk of 2^16 rows of the disk of radius 5 * 10^6 sums to 1.56 * 2^63;
    # a wrap would be off by a multiple of 2^64, about 1 % of the total
    big, small = disk_length_stats(5 * 10**6), disk_length_stats(10**6)
    assert big.average / small.average == pytest.approx(5, rel=1e-5)


@pytest.mark.parametrize("chunk_rows", [1, 7, 100])
def test_disk_counts_match_per_row_oracles_at_any_chunk_size(monkeypatch, chunk_rows):
    # the disk counts read rows 0..R only; small chunks put row 0 alone in
    # its chunk, or R in a short last one
    monkeypatch.setattr(rows, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(chunk_rows)
    for r in [*range(1, 61), *rng.integers(61, 401, size=8).tolist()]:
        report = diametral_report(Region.disk(r))
        assert (report.total_points, report.diametral_points) == per_row_diametral_counts(
            Region.disk(r)
        ), r
        count, total, maximum = per_row_disk_length_stats(r)
        assert disk_length_stats(r) == census.DiskLengthStats(r, count, total / count, maximum)


def test_scan_rejects_bounds_beyond_2_31():
    # 2x wraps int64 at 2^62; the scan refuses any bound beyond 2^31
    with pytest.raises(ValueError):
        projection_histogram(Region.rect(2**62, 2**62 + 3, 2**62 - 1, 2**62 + 3), 8)
    with pytest.raises(ValueError):
        projection_histogram(Region.rect(-(2**31) - 1, -(2**31), 0, 1), 8)
    corner = Region.rect(2**31 - 1, 2**31, -(2**31), -(2**31) + 1)
    assert len(scanned_points(corner)) == 4


def test_wide_scan_memory_is_bounded():
    # rows of 20001 points; a fresh process, so that the peak RSS of earlier
    # tests cannot hide the growth
    code = (
        "import resource\n"
        "from aughts.census import Region, projection_histogram\n"
        "projection_histogram(Region.disk(20), 8)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "projection_histogram(Region.rect(0, 20000, 0, 63), 8)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = os.path.dirname(os.path.dirname(aughts.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10 * 1024  # kB


def test_projection_histogram_work_limit():
    # the budget counts rows and crossings, not points: one row of 2^32 + 1
    # points and 10^4 rows of 10^4 + 1 points each are a few rows' work
    assert projection_histogram(Region.rect(-(2**31), 2**31, 0, 0), 8).others == (
        2**31, 0, 0, 0, 2**31, 0, 0, 0
    )
    rows = Region.rect(0, 10**4, 1, 10**4)
    histogram = projection_histogram(rows, 8)
    report = diametral_report(rows)
    assert sum(histogram.diametral) == report.diametral_points
    assert sum(histogram.diametral) + sum(histogram.others) == report.total_points
    # past the budget in rows, in crossings and in both, each stops up front
    for region, bins in (
        (Region.rect(1, 1, 0, census.WORK_LIMIT), 8),
        (Region.rect(-(2**31), 2**31, 1, 10**5), 4096),
        (Region.disk(10**6), 360),
    ):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            projection_histogram(region, bins)
        assert time.perf_counter() - start < 1, region


def test_projection_histogram_of_a_disk_past_the_cell_count():
    # 1.6 * 10^9 bounding-box cells, 40001 rows and about 10^6 crossings
    disk = Region.disk(20000)
    histogram = projection_histogram(disk, 64)
    report = diametral_report(disk)
    assert sum(histogram.diametral) == report.diametral_points
    assert sum(histogram.diametral) + sum(histogram.others) == report.total_points - 1


@pytest.mark.parametrize("seed", range(4))
def test_histogram_work_bounds_the_rows_and_crossings(monkeypatch, seed):
    # every crossed (row, ray) pair goes through _floors once
    crossed = []
    floors = rows._floors
    monkeypatch.setattr(
        rows, "_floors", lambda bins, y, j: crossed.append(y.size) or floors(bins, y, j)
    )
    rng = random.Random(seed)
    for _ in range(40):
        bins = rng.choice((8, 9, 12, 64, 97, 360, 1024))
        x0, y0 = rng.randint(-300, 300), rng.randint(-300, 300)
        region = rng.choice((
            Region.rect(x0, x0 + rng.randint(0, 2), y0, y0 + rng.randint(0, 400)),
            Region.rect(x0, x0 + rng.randint(0, 400), y0, y0 + rng.randint(0, 40)),
            Region.disk(rng.randint(1, 200)),
            Region.hexagon(rng.randint(1, 200)),
        ))
        crossed.clear()
        projection_histogram(region, bins)
        x0, x1, y0, y1 = region.bounds()
        assert y1 - y0 + 1 + sum(crossed) <= rows._histogram_work(region, bins), (region, bins)


def test_diametral_census_small_sizes_match_brute_force():
    # every size is answered exactly, far below the asymptotic range
    for r in range(1, 41):
        for region in (Region.square(r), Region.sym_square(r), Region.hexagon(r), Region.disk(r)):
            report = diametral_report(region)
            assert (report.total_points, report.diametral_points) == diametral_count(region), region
    assert diametral_census(Region.hexagon(1)) == 2 / 7


def test_diametral_row_limit():
    # only the disk counts rows: far past the limit, and one row past it
    with pytest.raises(ResourceLimitError):
        diametral_report(Region.disk(2**40))
    with pytest.raises(ResourceLimitError):
        diametral_report(Region.disk(census.WORK_LIMIT))


def test_diametral_row_limit_beyond_2_31():
    # a disk beyond the 2^31 guard stops up front, before any int64 row
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        diametral_report(Region.disk(2**62))
    assert time.perf_counter() - start < 1


def test_disk_length_stats_row_limit():
    with pytest.raises(ResourceLimitError):
        disk_length_stats(census.WORK_LIMIT)


def test_disk_counts_and_histogram_share_one_work_budget(monkeypatch):
    # one row past the budget stops both disk counts up front
    for count in (lambda r: diametral_report(Region.disk(r)), disk_length_stats):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"{census.WORK_LIMIT + 1} rows, budget is"):
            count(census.WORK_LIMIT)
        assert time.perf_counter() - start < 1
    # at a small budget: R + 1 rows at it answer, one more row stops
    monkeypatch.setattr(census, "WORK_LIMIT", 40)
    report = diametral_report(Region.disk(39))
    assert (report.total_points, report.diametral_points) == per_row_diametral_counts(
        Region.disk(39)
    )
    count, total, maximum = per_row_disk_length_stats(39)
    assert disk_length_stats(39) == census.DiskLengthStats(39, count, total / count, maximum)
    with pytest.raises(ResourceLimitError, match="^diametral census needs 41 rows, budget is 40$"):
        diametral_report(Region.disk(40))
    with pytest.raises(ResourceLimitError, match="^disk length stats need 41 rows, budget is 40$"):
        disk_length_stats(40)
    # a column whose rows and crossings are the budget answers, one unit
    # more stops
    assert rows._histogram_work(Region.rect(1, 1, 0, 37), 8) == 40
    _assert_exact_bins(Region.rect(1, 1, 0, 37), 8)
    assert rows._histogram_work(Region.rect(1, 1, 0, 38), 8) == 41
    with pytest.raises(ResourceLimitError, match="needs up to 41 rows and crossings, budget is 40$"):
        projection_histogram(Region.rect(1, 1, 0, 38), 8)


def test_modulus_limit():
    assert modular_census(100, census.MODULUS_LIMIT).total_orbits == modular_census(100, 2).total_orbits
    with pytest.raises(ResourceLimitError):
        modular_census(100, census.MODULUS_LIMIT + 1)


def test_orbit_averages_small():
    av = square_orbit_averages(400)
    assert abs(av.diameter / 400 / (7 * math.sqrt(2) / 6) - 1) < 0.02
    assert abs(av.box_side / 400 / (7 / 6) - 1) < 0.02
    assert abs(av.perimeter / 400 / (14 / 3) - 1) < 0.02
    # doubling the region doubles the averages, within tolerance
    av2 = square_orbit_averages(800)
    assert abs(av2.diameter / av.diameter - 2) < 0.04
    # below the asymptotic range the averages are exact over the distinct orbits
    for m in range(1, 61):
        reps = {orbit_rep((x, y)) for x in range(m + 1) for y in range(m + 1)}
        lengths = [2 * semi_perimeter(rep) for rep in reps]
        small = square_orbit_averages(m)
        assert (small.m, small.orbit_count) == (m, len(reps))
        assert small.perimeter == sum(lengths) / len(lengths)


def test_orbit_averages_golden_repr():
    golden = Path(__file__).parent / "golden" / "square_orbit_averages_2000.txt"
    assert repr(square_orbit_averages(2000)) + "\n" == golden.read_text()


def _assert_rounded_once(record):
    """Every ratio and average of an orbit census record is its exact value
    correctly rounded to 12 significant digits."""
    (m,) = record["region"]["params"]
    ratios = record["residue_ratio_of_size_sq"]
    for r, c in record["residue_counts"].items():
        assert ratios[r] == ratio12(c, m * m), (m, r)
    count, sums, averages = record["total_orbits"], record["sums"], record["averages"]
    assert averages["perimeter"] == ratio12(sums["perimeter"], count), m
    assert averages["box_side"] == ratio12(sums["box_side"], count), m
    assert averages["diameter"] == root_ratio12(2 * sums["diam_multiplier"] ** 2, count), m


def test_census_ratios_are_correctly_rounded():
    # every ratio that census --square M --mod d prints, M <= 3000; the
    # averages do not depend on d
    for m in range(1, 3001):
        _assert_rounded_once(modular_census(m, 2).to_json_dict())
        for d in (8, 9, 16):
            record = modular_census(m, d).to_json_dict()
            ratios = record["residue_ratio_of_size_sq"]
            for r, c in record["residue_counts"].items():
                assert ratios[r] == ratio12(c, m * m), (m, d, r)
    # just above a power of the base the float estimate of k is one too
    # large, a digit too many, and _root_digits steps it down
    p = 1992 * 10**12 + 1
    assert census._digits12(p * p, 1992) == 1000000000000.0 == ratio12(p, 1992)
    p = 1992 * 2**40 + 1
    assert census._root_double(p * p, 1992) == float(Fraction(p, 1992))


def test_census_ratios_are_correctly_rounded_at_random_sizes():
    rng = random.Random(26)
    for _ in range(400):
        m = rng.randint(1, 10 ** rng.randint(1, 40))
        _assert_rounded_once(modular_census(m, rng.choice((2, 3, 8, 9, 16, 17))).to_json_dict())
    _assert_rounded_once(modular_census(10**110, 8).to_json_dict())


def test_census_rounding_at_ties_and_powers_of_ten():
    # sqrt(p^2) / q on 13-digit decimals, half of them ties at 12 digits,
    # and on values that round up to the next power of ten
    rng = random.Random(5)
    for _ in range(2000):
        p = rng.randint(10**11, 10**12 - 1) * 10 + rng.choice((5, 5, 4, 6))
        q = 10 ** rng.randint(0, 30)
        t = rng.randint(1, 10**20)
        assert census._digits12((p * t) ** 2, q * t) == ratio12(p, q), (p, q, t)
    for p, q, value in (
        (91164, 1280**2, 0.0556420898438),
        (1, 8, 0.125),
        (9999999999995, 10**13, 1.0),
        (9999999999994999, 10**16, 0.999999999999),
        (10**400 - 1, 10**400, 1.0),
        (0, 7, 0.0),
    ):
        assert census._digits12(p * p, q) == value == ratio12(p, q), (p, q)


def test_census_average_too_large_for_a_double_raises():
    # the average length 14M/3 passes the largest double
    with pytest.raises(OverflowError):
        modular_census(4 * 10**307, 8).to_json_dict()
    with pytest.raises(OverflowError):
        census._digits12(10**618, 1)


def test_diametral_fractions_are_correctly_rounded():
    for size in range(1, 301):
        for region in (
            Region.square(size), Region.sym_square(size), Region.hexagon(size), Region.disk(size)
        ):
            record = diametral_report(region).to_json_dict()
            fraction = ratio12(record["diametral_points"], record["total_points"])
            assert record["diametral_fraction"] == fraction, region
    assert diametral_report(Region.rect(1, 0, 0, 0)).to_json_dict()["diametral_fraction"] == 0.0


def test_orbit_diameter_average_is_correctly_rounded():
    # sqrt(2) s / c rounded once, to the nearest double
    for m in [*range(1, 5001), 10**40 + 7, 10**110]:
        _, count, length = square_orbit_sums(m)
        assert square_orbit_averages(m).diameter == root_double(2 * (length // 4) ** 2, count), m


def test_disk_length_stats_small():
    stats = disk_length_stats(400)
    target = (8 / (3 * math.pi)) * (math.sqrt(2) + 2 * math.sqrt(5))
    assert abs(stats.average / 400 / target - 1) < 0.01
    assert abs(stats.maximum / 400 / (4 * math.sqrt(5)) - 1) < 0.01
    # doubling the radius doubles the mean, within tolerance
    stats2 = disk_length_stats(800)
    assert abs(stats2.average / stats.average - 2) < 0.02


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("r", [100, 977, 2000])
def test_disk_length_stats_golden_repr(r):
    golden = GOLDEN / f"disk_length_stats_{r}.txt"
    assert repr(disk_length_stats(r)) + "\n" == golden.read_text()


@pytest.mark.parametrize(
    "name, region, bins",
    [
        ("disk_500_360", Region.disk(500), 360),
        ("sym_square_300_64", Region.sym_square(300), 64),
        ("hexagon_400_64", Region.hexagon(400), 64),
        ("rect_near_2_31_64", Region.rect(2**30 - 12, 2**30 + 3, 2**31 - 40, 2**31), 64),
        ("disk_1000_64", Region.disk(1000), 64),
        # rows of 20001 points; each above the axis crosses pi/4 and ends on
        # pi/2
        ("rect_wide_rows_8", Region.rect(0, 20000, 0, 63), 8),
        # one point per row, every one on the boundary pi/2 or 3pi/2
        ("rect_column_360", Region.rect(0, 0, -(10**6), 10**6), 360),
        # an odd bin count: the boundaries of the lower half are not those
        # of the upper half turned by pi
        ("hexagon_150_9", Region.hexagon(150), 9),
    ],
)
def test_projection_histogram_golden_repr(name, region, bins):
    golden = GOLDEN / f"projection_histogram_{name}.txt"
    assert repr(projection_histogram(region, bins)) + "\n" == golden.read_text()


@pytest.mark.parametrize("r", [*range(1, 41), *range(100, 116)])
def test_disk_length_stats_matches_point_oracle(r):
    lengths = [
        2 * semi_perimeter((x, y))
        for y in range(-r, r + 1)
        for x in range(-r, r + 1)
        if x * x + y * y <= r * r
    ]
    stats = disk_length_stats(r)
    assert stats.point_count == len(lengths)
    assert stats.maximum == max(lengths)
    assert stats.average == sum(lengths) / len(lengths)


def _diametral_leakage(hist, arcs):
    """Diametral mass in bins that do not intersect any allowed arc."""
    leak = 0
    for i, count in enumerate(hist.diametral):
        lo = 2 * math.pi * i / hist.bins
        hi = 2 * math.pi * (i + 1) / hist.bins
        if not any(hi >= a_lo and lo <= a_hi for a_lo, a_hi in arcs):
            leak += count
    return leak


def test_projection_histogram_arcs():
    hist = projection_histogram(Region.disk(500), 360)
    assert len(hist.diametral) == 360
    disk_points = sum(
        2 * math.isqrt(500 * 500 - x * x) + 1 for x in range(-500, 501)
    )
    assert sum(hist.diametral) + sum(hist.others) == disk_points - 1  # minus origin
    low, high = math.atan(0.5), math.atan(2.0)
    arcs = [(low, high), (low + math.pi, high + math.pi)]
    assert _diametral_leakage(hist, arcs) <= 0.01 * sum(hist.diametral)


def test_projection_histogram_square_first_quadrant():
    hist = projection_histogram(Region.square(500), 360)
    low, high = math.atan(0.5), math.atan(2.0)
    assert _diametral_leakage(hist, [(low, high)]) == 0
    assert sum(hist.diametral) > 0


def test_projection_histogram_empty_region():
    hist = projection_histogram(Region.rect(1, 0, 1, 0), 36)
    assert sum(hist.diametral) == 0 and sum(hist.others) == 0


def _region_points(region):
    _, _, ymin, ymax = region.bounds()
    for y in range(ymin, ymax + 1):
        lo, hi = region.row_span(y)
        for x in range(lo, hi + 1):
            yield x, y


def _assert_exact_bins(region, bins):
    hist = projection_histogram(region, bins)
    assert (hist.diametral, hist.others) == exact_histogram(_region_points(region), bins)


@pytest.mark.parametrize("bins", [8, 9, 12, 16, 31, 64, 360])
@pytest.mark.parametrize(
    "region",
    [
        Region.square(9),
        Region.sym_square(7),
        Region.hexagon(7),
        Region.disk(10),
        Region.rect(-4, 5, -8, 2),  # straddles both axes
        Region.rect(17, 40, 15, 41),  # straddles y = x
        Region.rect(-40, -17, 15, 41),  # straddles y = -x
        Region.rect(8, 14, 14, 30),  # straddles y = 2x
        Region.rect(-30, 30, 0, 0),  # the row y = 0
        Region.rect(0, 0, -30, 30),  # the column x = 0
        Region.rect(2**31 - 30, 2**31, -(2**31), -(2**31) + 20),  # far corner
    ],
    ids=lambda r: f"{r.kind}{list(r.params)}",
)
def test_projection_histogram_matches_exact_oracle(region, bins):
    _assert_exact_bins(region, bins)


@settings(max_examples=60, deadline=None)
@given(
    x0=st.integers(-60, 60),
    y0=st.integers(-60, 60),
    w=st.integers(0, 12),
    h=st.integers(0, 12),
    bins=st.integers(8, 400),
)
def test_projection_histogram_rects_match_exact_oracle(x0, y0, w, h, bins):
    _assert_exact_bins(Region.rect(x0, x0 + w, y0, y0 + h), bins)


@pytest.mark.parametrize("bins", [9, 64, 360])
@pytest.mark.parametrize("chunk_rows", [1, 7])
@pytest.mark.parametrize("pair_piece", [1, 3, 64])
@pytest.mark.parametrize(
    "region",
    [Region.disk(10), Region.hexagon(7), Region.rect(-4, 5, -8, 2), Region.rect(0, 0, -30, 30)],
    ids=lambda r: f"{r.kind}{list(r.params)}",
)
def test_projection_histogram_at_small_chunks_and_pieces(
    monkeypatch, region, pair_piece, chunk_rows, bins
):
    # small pieces split a row's crossings across two of them, and small
    # chunks put the rows of y < 0, y = 0 and y > 0 apart
    monkeypatch.setattr(rows, "_RUN", pair_piece)
    monkeypatch.setattr(rows, "_CHUNK_ROWS", chunk_rows)
    _assert_exact_bins(region, bins)


def _convergents(low, high):
    """The continued-fraction convergents p/q shared by all of [low, high]."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = math.floor(low)
        if math.floor(high) != a:
            return
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield p1, q1
        if low == a:
            return
        low, high = 1 / (high - a), 1 / (low - a)


@pytest.mark.parametrize("bins, step", [(64, 1), (360, 7), (1000, 29)])
def test_projection_histogram_at_convergents(bins, step):
    # the lattice points closest to each boundary's direction, within 2^31,
    # and their four neighbours; the convergents come from an integer bracket
    # of tan phi, as a float tangent is too coarse for the later ones
    checked = 0
    for b in range(1, bins, step):
        if 8 * b % bins == 0:
            continue
        c0, c1, s0, s1 = cos_sin_bracket(b, bins, 256)
        assert c0 * c1 > 0 and s0 * s1 > 0  # off the axes, signs certain
        low, high = sorted((Fraction(abs(s0), abs(c1)), Fraction(abs(s1), abs(c0))))
        for p, q in _convergents(low, high):
            if max(p, q) > 2**31 - 1:
                break
            x, y = q * (1 if c0 > 0 else -1), p * (1 if s0 > 0 else -1)
            # the point as the middle of a row, where a crossing's floor bins
            # it, and as a row of its own, where its row's end bin does
            _assert_exact_bins(Region.rect(x - 1, x + 1, y, y), bins)
            _assert_exact_bins(Region.rect(x, x, y - 1, y + 1), bins)
            checked += 1
    assert checked > 10 * (bins // step)


def test_projection_histogram_near_boundary_point():
    # at 0.99999999999999995 bins its angle is just short of the boundary
    # 2 pi / 64, where a float arctan2 rounds it across
    hist = projection_histogram(Region.rect(161206709, 161206709, 15877475, 15877475), 64)
    assert hist.others[0] == 1 and sum(hist.others) + sum(hist.diametral) == 1


@pytest.mark.parametrize("bins", [9, 64, 360, 1000])
def test_direction_brackets_agree_with_the_oracle(bins):
    # psi_j = pi j / bins is the oracle's 2 pi j / (2 bins); both brackets
    # hold the true value, so they must meet
    for k in (64, 128, 256):
        for j in range(1, bins, max(1, bins // 16)):
            if 4 * j % bins == 0:
                continue
            ours = rows._direction(j, bins, k)
            theirs = cos_sin_bracket(j, 2 * bins, k)
            for i in (0, 2):
                assert max(ours[i], theirs[i]) <= min(ours[i + 1], theirs[i + 1])
                assert ours[i + 1] - ours[i] <= 4


def test_projection_histogram_bins_limit():
    # up to the limit the rounded cotangents of one half descend strictly,
    # so no two rays tie in float
    cot, _ = rows._rays(census.BINS_LIMIT)
    for parity in (0, 1):
        assert np.all(np.diff(cot[2 - parity :: 2]) < 0)
    with pytest.raises(ResourceLimitError):
        projection_histogram(Region.disk(1), census.BINS_LIMIT + 1)


@pytest.mark.parametrize("bins", [9, 64, 360, 1000, census.BINS_LIMIT])
def test_ray_cotangents_are_correctly_rounded(bins):
    # psi_j = pi j / bins is the oracle's 2 pi j / (2 bins); where the four
    # corners c / s of its 256-bit brackets round to one float, so does the
    # cotangent, and the ray must hold that float
    cot, _ = rows._rays(bins)
    assert cot.size == bins
    checked = 0
    for j in range(1, bins, max(1, bins // 64)):
        c0, c1, s0, s1 = cos_sin_bracket(j, 2 * bins, 256)
        corners = {float(Fraction(c, s)) for c in (c0, c1) for s in (s0, s1)}
        if len(corners) == 1:
            assert cot[j] == corners.pop(), j
            checked += 1
    assert checked >= min(bins - 1, 60)


def test_many_bins_histogram_memory_is_bounded():
    # 10^8 points crossing about 10^7 (row, boundary) pairs, taken in
    # pieces; a fresh process, so that earlier tests cannot hide the growth
    code = (
        "import resource\n"
        "from aughts.census import Region, projection_histogram\n"
        "projection_histogram(Region.disk(20), 4096)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "projection_histogram(Region.square(9999), 4096)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = os.path.dirname(os.path.dirname(aughts.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 16 * 1024  # kB


def test_projection_histogram_bin_guard():
    with pytest.raises(ValueError):
        projection_histogram(Region.disk(100), 4)


def test_report_json_shape():
    payload = modular_census(120, 6).to_json_dict()
    assert payload["schema_version"] == 1
    assert payload["basis"] == "orbits"
    assert set(payload["residue_counts"]) == {str(r) for r in range(6)}
    assert payload["sums"]["perimeter"] > 0
    payload = diametral_report(Region.disk(120)).to_json_dict()
    assert payload["basis"] == "points"
    assert 0 < payload["diametral_fraction"] < 1


def test_residue_counts_per_theory_small():
    # leading coefficients at a modest size, loose tolerance
    m = 500
    for d, allowed, coeff in ((6, {0, 2, 4}, 1 / 6), (8, {0, 4}, 2 / 8), (9, set(range(9)), 1 / 18)):
        report = modular_census(m, d)
        for r in range(d):
            count = report.residue_counts[r]
            if r in allowed:
                assert abs(count / m**2 / coeff - 1) < 0.05, (d, r)
            else:
                assert count == 0, (d, r)
