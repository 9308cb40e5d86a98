"""Lattice operators, 2D orbits, metrics, representatives, reachability."""

import random
from collections import Counter
from dataclasses import FrozenInstanceError
from math import factorial, prod

import numpy as np
import pytest
from brute_force import (
    bfs_orbit_distance,
    bfs_reach_graph,
    brute_is_diametral,
    extents,
    k_step,
    max_pairwise_dist_sq,
    node_is_diametral,
    orbit_nodes,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from aughts.orbits import (
    HAMILTONIAN_WORD_3D,
    Orbit2D,
    _star,
    _swap,
    _unstar,
    apply_k,
    cycle_points,
    diametral_flags,
    euclidean_diameter,
    fundamental_triangles,
    is_diametral,
    orbit2d,
    orbit_distance,
    orbit_rep,
    reach_graph,
    run_word,
    semi_perimeter,
)

coords = st.integers(min_value=-200, max_value=200)


def test_apply_k_examples():
    assert apply_k((3, 5), 1) == (2, 5)
    assert apply_k((1, 2), 1) == (1, 2)  # fixed point on y = 2x
    assert apply_k((10, 8, 15), 3) == (10, 8, -17)


def test_apply_k_errors():
    with pytest.raises(ValueError):
        apply_k((1, 2), 3)
    # exact beyond 2^31: the orbit layer has no size guard
    assert apply_k((2**31 + 1, 0), 1) == (-(2**31) - 1, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(coords, min_size=1, max_size=6), st.data())
def test_apply_k_is_involution(vec, data):
    x = tuple(vec)
    j = data.draw(st.integers(min_value=1, max_value=len(x)))
    assert apply_k(apply_k(x, j), j) == x


@settings(max_examples=100, deadline=None)
@given(st.lists(coords, min_size=2, max_size=5), st.data())
def test_braid_word_returns_home(vec, data):
    x = tuple(vec)
    n = len(x)
    j = data.draw(st.integers(min_value=1, max_value=n))
    ell = data.draw(st.integers(min_value=1, max_value=n).filter(lambda v: v != j))
    traj = run_word(x, (j, ell) * 3)
    assert traj.closed


def test_run_word_empty_and_aught():
    traj = run_word((7, -3), ())
    assert traj.closed and traj.path == ((7, -3),)
    traj = run_word((3, 5), (1, 2, 1, 2, 1, 2))
    assert traj.closed
    assert traj.path[-1] == (3, 5)


def test_hamiltonian_word_3d():
    traj = run_word((10, 8, 15), HAMILTONIAN_WORD_3D)
    assert traj.closed
    assert len(traj.word) == 24
    assert traj.distinct_nodes == 24


def test_reach_graph_counts():
    graph = reach_graph((10, 8, 15))
    assert len(graph.nodes) == 24
    assert len(graph.edges) == 36
    origin = reach_graph((0, 0, 0, 0))
    assert len(origin.nodes) == 1 and len(origin.edges) == 0
    small = reach_graph((1, 2))
    assert small.nodes == frozenset({(1, 2), (1, -1), (-2, -1)})
    assert len(small.edges) == 2


def _star_closed_forms(x):
    """(nodes, edges) of the orbit of x from the multiplicities m_v of Phi(x):
    (n+1)!/prod m_v! rearrangements, each with sum m_v (n+1-m_v)/2 swaps of
    unequal entries, every edge counted from both of its ends."""
    size, counts = len(x) + 1, Counter(_star(x)).values()
    nodes = factorial(size) // prod(map(factorial, counts))
    return nodes, nodes * sum(m * (size - m) for m in counts) // (2 * size)


def test_reach_graph_with_repeated_star_entries():
    # a swap of two equal star entries fixes the point and adds no edge:
    # Phi(1, 2, 3, 4, 5, 6) = (3, 1, -2, 3, -4, 5, -6) repeats 3
    rng = random.Random(3407)
    points = [(0,) * n for n in range(1, 7)] + [(1, 2, 3, 4, 5, 6)]
    points += [tuple(rng.randint(-2, 2) for _ in range(n)) for n in range(2, 7) for _ in range(6)]
    for x in points:
        graph = reach_graph(x)
        nodes, edges = bfs_reach_graph(x)
        assert graph.nodes == nodes and graph.edges == edges, x
        assert (len(nodes), len(edges)) == _star_closed_forms(x), x
    assert _star_closed_forms((1, 2, 3, 4, 5, 6)) == (2520, 7200)


BIG = 2**31


def _random_point(rng, n):
    """Small values (many repeats in Phi), wide values, or values near 2^31."""
    pool = rng.choice([range(-2, 3), range(-1000, 1001), (BIG, -BIG, BIG - 1, 0, 1)])
    return tuple(rng.choice(pool) for _ in range(n))


def test_operators_swap_star_coordinates():
    # Phi(apply_k(x, j)) is Phi(x) with entries 0 and j swapped, and
    # apply_k is the paper's alternating sum
    rng = random.Random(2718)
    for n in range(1, 9):
        for _ in range(50):
            x = tuple(rng.choice([rng.randint(-50, 50), rng.randint(-BIG, BIG), BIG, -BIG]) for _ in range(n))
            z = _star(x)
            assert sum(z) == 0 and _unstar(z) == x
            for j in range(1, n + 1):
                swapped = list(z)
                swapped[0], swapped[j] = z[j], z[0]
                assert _star(apply_k(x, j)) == _swap(z, j) == tuple(swapped), (x, j)
                assert apply_k(x, j) == k_step(x, j), (x, j)


def test_semi_perimeter_is_pairwise_star_spread():
    points = [(a, b) for a in range(-40, 41) for b in range(-40, 41)]
    near = (BIG, BIG - 1, BIG // 2, 1, 0)
    points += [(s * a, t * b) for a in near for b in near for s in (1, -1) for t in (1, -1)]
    for x in points:
        z = _star(x)
        spread = sum(abs(u - v) for i, u in enumerate(z) for v in z[i + 1 :])
        assert semi_perimeter(x) == spread, x


def test_reach_graph_and_distance_match_bfs_oracle():
    # about 1.5 s: the oracle walks up to 5040 nodes at n = 6, and every node
    # of the orbit is a target for n <= 4
    rng = random.Random(619)
    for n in range(1, 7):
        for _ in range(16 if n < 6 else 5):
            x = _random_point(rng, n)
            nodes, edges = bfs_reach_graph(x)
            graph = reach_graph(x)
            assert graph.nodes == nodes and graph.edges == edges, x
            targets = sorted(nodes) if n <= 4 else [rng.choice(sorted(nodes))]
            for b in targets + [_random_point(rng, n)]:
                assert orbit_distance(x, b) == bfs_orbit_distance(x, b), (x, b)


def test_orbit_functions_are_exact_at_any_size():
    # no size guard: 2D orbits, the cone test, words, reach graphs and
    # distances agree with the oracles on points with coordinates up to
    # 2^31 + 1, 2^40 and 10^30, and on every node of their orbits
    start, node = (2**31, -(2**31), 2**31), (2**31, -(2**31), -3 * 2**31)
    assert node in reach_graph(start).nodes and orbit_distance(start, node) == 1
    for size in (2**31 + 1, 2**40, 10**30):
        rng = random.Random(size)

        def coord():
            return rng.choice([size, -size, rng.randint(-size, size), rng.randint(-5, 5)])

        for _ in range(100):
            x = (coord(), coord())
            nodes = orbit_nodes(x)
            o = orbit2d(x)
            assert set(o.nodes) == nodes and len(o.nodes) == len(nodes), x
            for p in o.nodes:
                assert is_diametral(p) == node_is_diametral(p, nodes), p
            word = [rng.randint(1, 2) for _ in range(6)]
            path = [x]
            for j in word:
                path.append(k_step(path[-1], j))
            assert run_word(x, word).path == tuple(path), (x, word)
        for n in (3, 4, 5):
            x = tuple(coord() for _ in range(n))
            nodes, edges = bfs_reach_graph(x)
            graph = reach_graph(x)
            assert graph.nodes == nodes and graph.edges == edges, x
            targets = sorted(nodes) if n <= 4 else rng.sample(sorted(nodes), min(5, len(nodes)))
            for b in targets:
                assert orbit_distance(x, b) == bfs_orbit_distance(x, b), (x, b)


@pytest.mark.parametrize("pool", [range(-2, 3), range(-1000, 1001)], ids=["small", "wide"])
def test_orbit_distance_is_the_length_of_a_shortest_walk(pool):
    # d(b, b) = 0 and a change of at most 1 across each operator, checked at
    # every node walked, would make d a lower bound on every walk to b;
    # stepping to a neighbour at d - 1 until b is reached in exactly d steps
    # makes it an upper bound.  These orbits are far beyond a search: up to
    # 21! rearrangements at n = 20.
    rng = random.Random(2307)
    for n in range(7, 21):
        for _ in range(2):
            a = tuple(rng.choice(pool) for _ in range(n))
            z = list(_star(a))
            rng.shuffle(z)
            b = _unstar(tuple(z))
            assert orbit_distance(b, b) == 0
            d = orbit_distance(a, b)
            cur, steps = a, 0
            while cur != b:
                dist = orbit_distance(cur, b)
                assert orbit_distance(b, cur) == dist == d - steps, (cur, b)
                nearer = []
                for j in range(1, n + 1):
                    nxt = apply_k(cur, j)
                    step = orbit_distance(nxt, b) - dist
                    assert abs(step) <= 1, (cur, j, b)
                    if step == -1:
                        nearer.append(nxt)
                assert nearer, (cur, b)
                cur = rng.choice(nearer)
                steps += 1
            assert steps == d, (a, b)


def test_orbit2d_examples():
    o = orbit2d((1, 0))
    assert set(o.nodes) == {(1, 0), (-1, 0), (-1, -1), (0, -1), (0, 1), (1, 1)}
    assert (o.semi_perimeter, o.box_side) == (4, 2)
    origin = orbit2d((0, 0))
    assert origin.nodes == ((0, 0),)
    assert (origin.semi_perimeter, origin.box_side, origin.diam_multiplier) == (0, 0, 0)
    degenerate = orbit2d((1, 2))
    assert set(degenerate.nodes) == {(1, 2), (1, -1), (-2, -1)}
    assert (degenerate.semi_perimeter, degenerate.box_side) == (6, 3)


def test_cycle_order_and_reversal():
    o = orbit2d((2, 3))
    assert o.nodes == ((2, 3), (1, 3), (1, -2), (-3, -2), (-3, -1), (2, -1))
    reversed_o = orbit2d((2, 3), first_generator=2)
    assert reversed_o.nodes == ((2, 3),) + tuple(reversed(o.nodes[1:]))
    # the first step of the cycle applies the named operator
    assert cycle_points((2, 3))[1] == apply_k((2, 3), 1)
    assert cycle_points((2, 3), 2)[1] == apply_k((2, 3), 2)


def test_semi_perimeter_values():
    assert semi_perimeter((7, 0)) == 28
    assert semi_perimeter((0, 0)) == 0
    assert semi_perimeter((3, 5)) == 16


@settings(max_examples=200, deadline=None)
@given(coords, coords)
def test_semi_perimeter_matches_path_length(x1, x2):
    cycle = cycle_points((x1, x2))
    jumps = sum(
        abs(a[0] - b[0]) + abs(a[1] - b[1])
        for a, b in zip(cycle, cycle[1:] + cycle[:1])
    )
    assert jumps == 2 * semi_perimeter((x1, x2))


def test_euclidean_diameter_examples():
    m, pairs = euclidean_diameter(orbit2d((1, 0)))
    assert m == 2
    assert pairs == [((-1, -1), (1, 1))]
    m, pairs = euclidean_diameter(orbit2d((0, 0)))
    assert m == 0 and pairs == []
    m, pairs = euclidean_diameter(orbit2d((2, 3)))
    assert m == 5
    assert ((-3, -2), (2, 3)) in pairs


@settings(max_examples=200, deadline=None)
@given(coords, coords)
def test_diameter_matches_brute_force(x1, x2):
    o = orbit2d((x1, x2))
    m, _ = euclidean_diameter(o)
    nodes = orbit_nodes((x1, x2))
    assert set(o.nodes) == nodes
    assert max_pairwise_dist_sq(nodes) == 2 * m * m
    assert o.diam_multiplier == m
    # box law: the bounding box is a square whose side is the multiplier
    assert extents(nodes) == (o.box_side, o.box_side) == (m, m)


def test_is_diametral_examples():
    assert is_diametral((2, 3)) is True
    assert is_diametral((1, 0)) is False
    assert is_diametral((0, 0)) is False


def test_diametral_flags_match_pointwise():
    o = orbit2d((1, 0))
    flags = diametral_flags(o)
    assert [n for n, f in zip(o.nodes, flags) if f] == [(-1, -1), (1, 1)]
    assert diametral_flags(orbit2d((0, 0))) == (False,)
    # nodes of seeds near 2^31 reach 2^32
    big = 2**31
    seeds = [(x1, x2) for x1 in range(-12, 13) for x2 in range(-12, 13)]
    seeds += [(big, -big), (-big, big), (big, big - 1), (big // 2, big), (big, 3)]
    for seed in seeds:
        o = orbit2d(seed)
        nodes = orbit_nodes(seed)
        flags = diametral_flags(o)
        assert flags == tuple(node_is_diametral(n, nodes) for n in o.nodes), seed
        for n, f in zip(o.nodes, flags):
            assert is_diametral(n) == f, n


def test_diametral_nodes_end_the_diameter_pairs():
    # two rules for one set: the pairs join a node to its reflection in
    # y = -x, and the cone rule flags exactly the nodes that end them
    big = 2**31
    seeds = [(x1, x2) for x1 in range(-60, 61) for x2 in range(-60, 61)]
    seeds += [(a, b) for a in (big - 1, -big) for b in (big - 1, -big, 0)]
    seeds += [(big, big - 1), (big // 2, big), (big, 3), (-big, 1), (1, -big), (3 * 10**9, 1)]
    for seed in seeds:
        for first in (1, 2):
            o = orbit2d(seed, first)
            _, pairs = euclidean_diameter(o)
            assert all(a in o.nodes and b == (-a[1], -a[0]) for a, b in pairs), seed
            ends = {p for pair in pairs for p in pair}
            assert ends == {n for n, f in zip(o.nodes, diametral_flags(o)) if f}, seed


def test_diametral_double_cone_exhaustive():
    # away from the origin: diametral iff x or -x lies between y=x/2 and y=2x
    for x1 in range(-60, 61):
        for x2 in range(-60, 61):
            if (x1, x2) == (0, 0):
                continue
            a, b = (x1, x2) if x1 > 0 or (x1 == 0 and x2 > 0) else (-x1, -x2)
            in_cone = a >= 0 and 2 * b >= a and b <= 2 * a
            assert is_diametral((x1, x2)) == brute_is_diametral((x1, x2)) == in_cone, (x1, x2)
    assert not is_diametral((0, 0)) and not brute_is_diametral((0, 0))


def test_canonical_rep():
    assert orbit_rep((1, 0)) == (1, 1)
    assert orbit_rep((0, 0)) == (0, 0)
    assert orbit_rep((-2, -1)) == (1, 2)


@settings(max_examples=300, deadline=None)
@given(coords, coords)
def test_canonical_rep_is_orbit_invariant(x1, x2):
    rep = orbit_rep((x1, x2))
    assert rep == max(orbit_nodes((x1, x2)))
    for node in orbit2d((x1, x2)).nodes:
        assert orbit_rep(node) == rep
    # the representative lands in the closed cone between y=x/2 and y=2x
    a, b = rep
    assert a >= 0 and 2 * b >= a and b <= 2 * a


def test_orbit_rep_and_node_order_match_the_cycle():
    # orbit_rep is the greatest cycle point, and orbit2d keeps the cycle's
    # points in their first-occurrence order, from either first operator;
    # the pairs of ``near`` hold the axes and the origin at every size
    edge = (2**31, 2**31 - 1, 10**30, 10**30 + 1)
    near = edge + tuple(-v for v in edge) + (-1, 0, 1)
    points = [(a, b) for a in range(-30, 31) for b in range(-30, 31)]
    points += [(a, b) for a in near for b in near]
    for x in points:
        assert orbit_rep(x) == max(orbit2d(x).nodes) == max(orbit_nodes(x)), x
        for g in (1, 2):
            first = []
            for p in cycle_points(x, g):
                if p not in first:
                    first.append(p)
            assert orbit2d(x, g).nodes == tuple(first), (x, g)


def test_orbit_distance():
    assert orbit_distance((5, 7), (5, 7)) == 0
    o = orbit2d((2, 3))
    assert orbit_distance(o.nodes[0], o.nodes[3]) == 3
    assert orbit_distance((1, 0), (2, 0)) is None
    with pytest.raises(ValueError):
        orbit_distance((1, 2), (1, 2, 3))


def test_orbit_sizes_characterization():
    # size 1 only at the origin; size 3 exactly when one jump length
    # vanishes, i.e. the seed lies on y=2x, y=x/2 or y=-x (the orbit then
    # contains a fixed point of each operator); size 6 otherwise
    for x1 in range(-50, 51):
        for x2 in range(-50, 51):
            size = len(orbit2d((x1, x2)).nodes)
            if (x1, x2) == (0, 0):
                assert size == 1
            elif (2 * x1 - x2) * (2 * x2 - x1) * (x1 + x2) == 0:
                assert size == 3
                nodes = orbit2d((x1, x2)).nodes
                assert any(b == 2 * a or a == 2 * b for a, b in nodes)
            else:
                assert size == 6


def test_six_value_component_set():
    rng = random.Random(7321)
    for _ in range(500):
        x1, x2 = rng.randint(-300, 300), rng.randint(-300, 300)
        allowed = {x1, -x1, x2, -x2, x1 - x2, x2 - x1}
        for node in orbit2d((x1, x2)).nodes:
            assert set(node) <= allowed


@settings(max_examples=200, deadline=None)
@given(coords, coords, st.integers(min_value=-5, max_value=5))
def test_homothety(x1, x2, t):
    scaled = orbit2d((t * x1, t * x2))
    base = orbit2d((x1, x2))
    assert set(scaled.nodes) == {(t * a, t * b) for a, b in base.nodes}
    assert scaled.semi_perimeter == abs(t) * base.semi_perimeter


def test_opposite_taxicab_equalities():
    for x1 in range(-50, 51):
        for x2 in range(-50, 51):
            p = cycle_points((x1, x2))

            def taxi(a, b):
                return abs(a[0] - b[0]) + abs(a[1] - b[1])

            assert taxi(p[0], p[1]) == taxi(p[3], p[4]) == abs(2 * x1 - x2)
            assert taxi(p[1], p[2]) == taxi(p[4], p[5]) == abs(x1 + x2)
            assert taxi(p[2], p[3]) == taxi(p[5], p[0]) == abs(2 * x2 - x1)


def test_fundamental_triangles_small():
    upper, lower = fundamental_triangles(2)
    assert upper == {(0, 0), (1, 1), (1, 2), (2, 2)}
    assert lower == {(0, 0), (1, 1), (2, 1), (2, 2)}
    upper1, lower1 = fundamental_triangles(1)
    assert (1, 1) in upper1 and (1, 1) in lower1
    with pytest.raises(ValueError):
        fundamental_triangles(0)


def test_fundamental_triangles_cover_square():
    m = 50
    upper, lower = fundamental_triangles(m)
    union = upper | lower
    for x1 in range(0, m + 1):
        for x2 in range(0, m + 1):
            assert orbit_rep((x1, x2)) in union, (x1, x2)


# Closed-triangle membership predicates inside the hexagon picture of size m,
# listed in the order the alternating word 1,2,1,2,1,2 visits them.
TOP_CYCLE = (
    lambda a, b, m: 0 <= a and a <= b <= 2 * a and b <= m,   # between y=x, y=2x
    lambda a, b, m: 0 <= a and 2 * a <= b <= m,              # between y=2x, x=0
    lambda a, b, m: 0 <= a and b <= -a and b >= a - m,       # below y=-x
    lambda a, b, m: -m <= a <= 0 and a <= b and 2 * b <= a,  # between y=x, y=x/2
    lambda a, b, m: -m <= a <= 0 and 2 * b >= a and b <= 0,  # between y=x/2, y=0
    lambda a, b, m: 0 <= a and -a <= b <= 0 and b >= a - m,  # above y=-x
)

RIGHT_CYCLE = (
    lambda a, b, m: 0 <= b and b <= a <= 2 * b and a <= m,   # between y=x, y=x/2
    lambda a, b, m: a <= 0 and b >= -a and b <= a + m,       # above y=-x (left)
    lambda a, b, m: a <= 0 and b <= 2 * a and b >= -m,       # below y=2x (left)
    lambda a, b, m: a <= 0 and 2 * a <= b <= a and b >= -m,  # between y=2x, y=x
    lambda a, b, m: a <= 0 and 0 <= b <= -a and b <= a + m,  # below y=-x (left)
    lambda a, b, m: 0 <= a <= m and 0 <= 2 * b <= a,         # between y=0, y=x/2
)


def _triangle_cycle_check(start_points, predicates, m):
    for start in start_points:
        x = start
        for step in range(6):
            assert predicates[step](x[0], x[1], m), (start, step, x)
            x = apply_k(x, 1 if step % 2 == 0 else 2)
        assert x == start


def test_triangle_cycle_top():
    m = 40
    starts = [
        (a, b) for a in range(0, m + 1) for b in range(a, min(2 * a, m) + 1)
    ]
    _triangle_cycle_check(starts, TOP_CYCLE, m)


def test_triangle_cycle_right():
    m = 40
    starts = [
        (a, b) for a in range(0, m + 1) for b in range((a + 1) // 2, a + 1)
    ]
    _triangle_cycle_check(starts, RIGHT_CYCLE, m)


def test_mirror_triangles_at_distance_three():
    # Interior points of the upper-left triangle above y=-x reflect across the
    # anti-diagonal under the 3-step word 2,1,2 and sit at orbit distance 3.
    m = 30
    count = 0
    for a in range(-m // 2, 0):
        for b in range(-a + 1, a + m):
            x = (a, b)
            y = run_word(x, (2, 1, 2)).path[-1]
            assert y == (-b, -a)
            assert y[0] <= 0 and 0 <= y[1] <= -y[0]
            if len(orbit2d(x).nodes) == 6:
                assert orbit_distance(x, y) == 3
                count += 1
    assert count > 50


def test_orbit_points_refuse_float_coordinates():
    # a float coordinate was truncated: (1.5, 2) walked the orbit of (1, 2)
    with pytest.raises(TypeError):
        orbit2d((1.5, 2))
    orbit = orbit2d((np.int64(1), np.int64(2)))
    assert orbit == orbit2d((1, 2))
    assert all(type(v) is int for node in orbit.nodes for v in node)


def test_run_word_refuses_float_indices():
    # a float index was truncated to the operator it rounds down to
    with pytest.raises(TypeError):
        run_word((10, 8, 15), (1.9, 2))
    traj = run_word((10, 8, 15), np.array([1, 2, 3]))
    assert traj == run_word((10, 8, 15), (1, 2, 3))
    assert all(type(j) is int for j in traj.word)


def _lines_through(x1, x2):
    """How many of the lines b = 2a, a = 2b and a = -b hold (a, b)."""
    return (x2 == 2 * x1) + (x1 == 2 * x2) + (x1 == -x2)


def test_orbit2d_drops_repeats_only_on_the_three_lines():
    # the cycle's points meet only on b = 2a, a = 2b and a = -b, so the
    # nodes are the cycle itself everywhere else; built without the
    # dataclass __init__, the orbit is still equal to, hashed and shown as
    # one from the public constructor, and still frozen
    k = 2**31
    pts = [(a, b) for a in range(-60, 61) for b in range(-60, 61)]
    for t in (k - 2, k - 1, k, k + 1, -k - 1, -k, -k + 1):
        pts += [(t, 2 * t), (2 * t, t), (t, -t), (t, 2 * t + 1), (2 * t - 1, t)]
    fields = ("seed", "nodes", "semi_perimeter")
    for i, x in enumerate(pts):
        for g in (1, 2):
            cycle = cycle_points(x, g)
            o = orbit2d(x, g)
            assert o.nodes == tuple(dict.fromkeys(cycle))
            assert len(o.nodes) == {0: 6, 1: 3, 3: 1}[_lines_through(*x)]
            public = Orbit2D(seed=cycle[0], nodes=o.nodes, semi_perimeter=semi_perimeter(x))
            assert o == public and hash(o) == hash(public) and repr(o) == repr(public)
            with pytest.raises(FrozenInstanceError):
                setattr(o, fields[i % 3], None)


# each refused point with the type and message the point check gave before
# it unpacked a pair in one step
REFUSED_POINTS = [
    ((), ValueError, "point must have at least one coordinate"),
    ((1,), ValueError, "expected a 2D point, got dimension 1"),
    ((1, 2, 3), ValueError, "expected a 2D point, got dimension 3"),
    ((1.5, 2), TypeError, "'float' object cannot be interpreted as an integer"),
    ((1, 2, 3.5), TypeError, "'float' object cannot be interpreted as an integer"),
    (5, TypeError, "'int' object is not iterable"),
    ("ab", TypeError, "'str' object cannot be interpreted as an integer"),
    ([1, 2.0], TypeError, "'float' object cannot be interpreted as an integer"),
]


@pytest.mark.parametrize("func", [cycle_points, orbit2d, orbit_rep, is_diametral, semi_perimeter])
@pytest.mark.parametrize("point, error, message", REFUSED_POINTS)
def test_2d_point_refusals_keep_their_type_and_message(func, point, error, message):
    with pytest.raises(Exception) as refused:
        func(point)
    assert type(refused.value) is error and str(refused.value) == message


def test_2d_points_of_numpy_ints_or_bools_come_back_as_ints():
    for pair, plain in [((np.int64(3), np.int64(-7)), (3, -7)), ((True, False), (1, 0))]:
        assert cycle_points(pair) == cycle_points(plain)
        assert orbit2d(pair) == orbit2d(plain) and orbit_rep(pair) == orbit_rep(plain)
        assert all(type(v) is int for p in cycle_points(pair) + orbit2d(pair).nodes for v in p)
        assert all(type(v) is int for v in orbit_rep(pair))
        assert type(semi_perimeter(pair)) is int


def test_first_generator_is_an_integer():
    # a float order was taken as the int it equals, and a string was shown
    # unquoted, as if it were that int
    for g in (1.0, 2.0):
        with pytest.raises(TypeError):
            cycle_points((2, 3), g)
        with pytest.raises(TypeError):
            orbit2d((2, 3), g)
    assert orbit2d((2, 3), np.int64(2)) == orbit2d((2, 3), 2)
    with pytest.raises(ValueError, match="^first_generator must be 1 or 2, got '1'$"):
        orbit2d((2, 3), "1")
    with pytest.raises(ValueError, match="^first_generator must be 1 or 2, got 3$"):
        cycle_points((2, 3), 3)
