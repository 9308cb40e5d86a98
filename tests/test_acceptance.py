"""Acceptance suite: one test per criterion, at the stated sizes/tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here, not configurable.
"""

import math
import random
import time
from math import factorial

from aughts import atlas, census, intmat, orbits, svg
from aughts.census import Region
from aughts.signed_perm import Permutation, SignedPermElement, msih_mul, to_matrix


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _within(value, target, rel_tol):
    return abs(value / target - 1) <= rel_tol


def test_c01_group_sizes():
    start = time.monotonic()
    sizes = {n: len(atlas.enumerate_group(n)) for n in range(2, 7)}
    elapsed = time.monotonic() - start
    expected = {n: factorial(n + 1) for n in range(2, 7)}
    _report(
        1,
        sizes == expected and elapsed < 10.0,
        f"group sizes {sizes} in {elapsed:.2f}s",
    )


def test_c02_identity_suites():
    failures = 0
    checks = 0
    for n in range(1, 9):
        for j in range(1, n + 1):
            kj = intmat.make_k(n, j)
            checks += 1
            if intmat.mat_mul(kj, kj) != intmat.identity_matrix(n):
                failures += 1
            for ell in range(1, n + 1):
                if j == ell:
                    continue
                kl = intmat.make_k(n, ell)
                prod = intmat.mat_mul(kj, kl)
                checks += 2
                if intmat.mat_pow(prod, 3) != intmat.identity_matrix(n):
                    failures += 1
                if intmat.mat_mul(prod, kj) != intmat.mat_mul(
                    intmat.mat_mul(kl, kj), kl
                ):
                    failures += 1
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randint(2, 8)
        s = rng.randint(1, n)
        js = tuple(rng.sample(range(1, n + 1), s))
        checks += 1
        if intmat.product_closed_form(n, js) != intmat.k_word_product(n, js):
            failures += 1
    _report(2, failures == 0, f"{checks} identity checks, {failures} failures")


def test_c03_full_cycle_order():
    ok = True
    for n in range(1, 11):
        down = intmat.matrix_order(intmat.full_cycle_matrix(n, "down"), limit=n + 2)
        up = intmat.matrix_order(intmat.full_cycle_matrix(n, "up"), limit=n + 2)
        sym = atlas.full_cycle_order_via_sym(n)
        ok = ok and down == up == sym == n + 1
    _report(3, ok, "matrix and symmetric-group orders equal n+1 for n <= 10")


def test_c04_representation_oracle():
    start = time.monotonic()
    counts = {}
    for n in (3, 4):
        elements = []
        from itertools import permutations

        for images in permutations(range(1, n + 1)):
            sigma = Permutation.of(images)
            elements.append(SignedPermElement.of(sigma, 1, 0))
            for h in range(1, n + 1):
                elements.append(SignedPermElement.of(sigma, h, 1))
        mats = {e: to_matrix(e) for e in elements}
        bad = 0
        for a in elements:
            ma = mats[a]
            for b in elements:
                if to_matrix(msih_mul(a, b)) != intmat.mat_mul(ma, mats[b]):
                    bad += 1
        counts[n] = (len(elements) ** 2, bad)
    elapsed = time.monotonic() - start
    ok = (
        counts[3] == (576, 0)
        and counts[4] == (14400, 0)
        and elapsed < 5.0
    )
    _report(4, ok, f"pair checks {counts} in {elapsed:.2f}s")


def test_c05_isomorphism():
    for n in (2, 3, 4):
        atlas.verify_isomorphism(n)
    spectrum = atlas.order_spectrum(atlas.catalog(3))
    ok = spectrum == {1: 1, 2: 9, 3: 8, 4: 6} and 12 not in spectrum
    _report(5, ok, f"isomorphisms verified for n=2,3,4; spectrum {spectrum}")


def test_c06_cayley_distances():
    hist = atlas.catalog(3).distance_histogram()
    ok = hist.get(4) == 5 and max(hist) == 4 and sum(hist.values()) == 24
    _report(6, ok, f"distance histogram {hist}")


def test_c07_hamiltonian_word():
    traj = orbits.run_word((10, 8, 15), orbits.HAMILTONIAN_WORD_3D)
    graph = orbits.reach_graph((10, 8, 15))
    ok = (
        traj.closed
        and len(traj.word) == 24
        and traj.distinct_nodes == 24
        and len(graph.nodes) == 24
        and len(graph.edges) == 36
    )
    _report(
        7,
        ok,
        f"word closes with {traj.distinct_nodes} nodes; "
        f"graph {len(graph.nodes)}/{len(graph.edges)}",
    )


def test_c08_orbit_counts():
    bound = 100
    seen = {}
    for x1 in range(-bound, bound + 1):
        for x2 in range(-bound, bound + 1):
            length = 2 * orbits.semi_perimeter((x1, x2))
            if 0 < length <= 400:
                seen.setdefault(length, set()).add(orbits.orbit_rep((x1, x2)))
    ok = (
        census.count_orbits_with_perimeter(100) == 8
        and census.count_orbits_with_perimeter(96) == 9
    )
    for x in range(4, 401, 4):
        ok = ok and census.count_orbits_with_perimeter(x) == len(seen.get(x, set()))
    _report(8, ok, "closed form matches brute force for all lengths <= 400")


def test_c09_asymptotic_counts():
    start = time.monotonic()
    stats = census.cumulative_perimeter_stats(10_000)
    elapsed = time.monotonic() - start
    t = 10_000
    ok = (
        _within(stats.count / t**2, 1 / 96, 0.01)
        and _within(stats.total / t**3, 1 / 144, 0.01)
        and _within(stats.average / t, 2 / 3, 0.01)
        and elapsed < 5.0
    )
    _report(
        9,
        ok,
        f"count/T^2={stats.count / t**2:.6g}, sum/T^3={stats.total / t**3:.6g}, "
        f"avg/T={stats.average / t:.6g} in {elapsed:.2f}s",
    )


def test_c10_modular_censuses():
    start = time.monotonic()
    m = 1000
    ok = True
    details = []
    for d in (2, 3, 6, 8, 9, 16):
        counts = census.modular_census(m, d).residue_counts
        for r in range(d):
            if d % 2 == 0 and d % 4 != 0:
                expected = (1 / d) * m**2 if r % 2 == 0 else 0.0
            elif d % 4 == 0:
                expected = (2 / d) * m**2 if r % 4 == 0 else 0.0
            else:
                expected = (1 / (2 * d)) * m**2
            if expected == 0.0:
                good = counts[r] == 0
            else:
                good = abs(counts[r] / expected - 1) <= 0.02
            if not good:
                details.append(f"d={d}, r={r}: {counts[r]} vs {expected:.0f}")
            ok = ok and good
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(10, ok, f"six moduli at M=1000 in {elapsed:.2f}s {details}")


def test_c11_diametral_fractions():
    results = {
        "square": census.diametral_census(Region.square(1000)),
        "hexagon": census.diametral_census(Region.hexagon(1000)),
        "sym_square": census.diametral_census(Region.sym_square(1000)),
        "disk": census.diametral_census(Region.disk(1000)),
    }
    arc = (math.atan(2) - math.atan(0.5)) / math.pi
    targets = {
        "square": 0.5,
        "hexagon": 1 / 3,
        "sym_square": 0.25,
        "disk": arc,
    }
    ok = all(_within(results[k], targets[k], 0.01) for k in results)
    _report(
        11,
        ok,
        ", ".join(f"{k}={results[k]:.6f} (target {targets[k]:.6f})" for k in results),
    )


def test_c12_averages():
    av = census.square_orbit_averages(2000)
    disk = census.disk_length_stats(2000)
    ok = (
        _within(av.diameter / 2000, 7 * math.sqrt(2) / 6, 0.01)
        and _within(av.box_side / 2000, 7 / 6, 0.01)
        and _within(av.perimeter / 2000, 14 / 3, 0.01)
        and _within(disk.average / 2000, (8 / (3 * math.pi)) * (math.sqrt(2) + 2 * math.sqrt(5)), 0.005)
        and _within(disk.maximum / 2000, 4 * math.sqrt(5), 0.005)
    )
    _report(
        12,
        ok,
        f"diam/M={av.diameter / 2000:.5f}, box/M={av.box_side / 2000:.5f}, "
        f"perim/M={av.perimeter / 2000:.5f}, disk avg/R={disk.average / 2000:.5f}, "
        f"disk max/R={disk.maximum / 2000:.5f}",
    )


def test_c13_property_suite():
    failures = []

    # orbit sizes with exact degeneracy characterization, [-50,50]^2
    for x1 in range(-50, 51):
        for x2 in range(-50, 51):
            size = len(orbits.orbit2d((x1, x2)).nodes)
            if (x1, x2) == (0, 0):
                good = size == 1
            elif (2 * x1 - x2) * (2 * x2 - x1) * (x1 + x2) == 0:
                good = size == 3
            else:
                good = size == 6
            if not good:
                failures.append(f"size at {(x1, x2)}")

    # six-value component set and taxicab opposite-pair equalities
    for x1 in range(-50, 51):
        for x2 in range(-50, 51):
            allowed = {x1, -x1, x2, -x2, x1 - x2, x2 - x1}
            cycle = orbits.cycle_points((x1, x2))
            if any(set(p) - allowed for p in cycle):
                failures.append(f"components at {(x1, x2)}")

            def taxi(a, b):
                return abs(a[0] - b[0]) + abs(a[1] - b[1])

            if not (
                taxi(cycle[0], cycle[1]) == taxi(cycle[3], cycle[4])
                and taxi(cycle[1], cycle[2]) == taxi(cycle[4], cycle[5])
                and taxi(cycle[2], cycle[3]) == taxi(cycle[5], cycle[0])
            ):
                failures.append(f"taxicab pairs at {(x1, x2)}")

    # bounding box is a square with side = semi-perimeter / 2, [-60,60]^2
    for x1 in range(-60, 61):
        for x2 in range(-60, 61):
            o = orbits.orbit2d((x1, x2))
            xs = [p[0] for p in o.nodes]
            ys = [p[1] for p in o.nodes]
            side = max(xs) - min(xs)
            if not (
                side == max(ys) - min(ys)
                and side == o.box_side
                and o.box_side * 2 == o.semi_perimeter
                and o.box_side == o.diam_multiplier
            ):
                failures.append(f"box law at {(x1, x2)}")

    # homothety on a sample grid
    for t in (-3, -1, 2, 5):
        for x1 in range(-12, 13, 3):
            for x2 in range(-12, 13, 3):
                base = {
                    (t * a, t * b) for a, b in orbits.orbit2d((x1, x2)).nodes
                }
                if set(orbits.orbit2d((t * x1, t * x2)).nodes) != base:
                    failures.append(f"homothety at {(x1, x2)} t={t}")

    # fundamental triangles cover [0,50]^2 through canonical representatives
    upper, lower = orbits.fundamental_triangles(50)
    union = upper | lower
    for x1 in range(0, 51):
        for x2 in range(0, 51):
            if orbits.orbit_rep((x1, x2)) not in union:
                failures.append(f"coverage at {(x1, x2)}")

    _report(13, not failures, f"{len(failures)} failures {failures[:3]}")


def test_c14_render_determinism():
    spec = svg.RenderSpec(region=Region.sym_square(8), mode="mod_color", modulus=6)
    first = svg.render_svg(spec)
    second = svg.render_svg(spec)
    colors = svg.used_fill_colors(first)
    expected = {svg.DEFAULT_PALETTE[0], svg.DEFAULT_PALETTE[2], svg.DEFAULT_PALETTE[4]}
    ok = first == second and colors == expected
    _report(14, ok, f"byte-identical renders; residues map to {sorted(colors)}")
