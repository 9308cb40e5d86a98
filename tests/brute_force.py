"""Brute-force orbit oracle for the tests, independent of the closed forms.

The orbit of a 2D point is walked with the two operators, K1 then K2 then
K1 and so on until the walk closes; its length, box and diametral points are
then read off the walked nodes by direct measurement.  Everything is in
Python ints with no input guard, so nodes beyond 2^31 are fine.
"""


def k_step(p, j):
    """Operator j in 2D: coordinate j becomes the alternating sum -x_j + ..."""
    x1, x2 = p
    return (x2 - x1, x2) if j == 1 else (x1, x1 - x2)


def orbit_walk(p):
    """The walk from p under K1, K2, K1, ... until a K1 K2 pair brings it back
    to p (a lone K1 may fix p); first point repeated last."""
    path = [tuple(p)]
    j = 1
    while len(path) % 2 == 0 or path[-1] != path[0] or len(path) == 1:
        path.append(k_step(path[-1], j))
        j = 3 - j
    return path


def orbit_nodes(p):
    return set(orbit_walk(p))


def walk_length(p):
    """Taxicab length of the closed walk: each step moves one coordinate."""
    path = orbit_walk(p)
    return sum(abs(a[0] - b[0]) + abs(a[1] - b[1]) for a, b in zip(path, path[1:]))


def extents(nodes):
    """(x-extent, y-extent) of the nodes' bounding box."""
    xs = [a for a, _ in nodes]
    ys = [b for _, b in nodes]
    return max(xs) - min(xs), max(ys) - min(ys)


def dist_sq(a, b):
    return sum((u - v) ** 2 for u, v in zip(a, b))


def max_pairwise_dist_sq(nodes):
    nodes = list(nodes)
    best = 0
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            best = max(best, dist_sq(a, b))
    return best


def node_is_diametral(node, nodes):
    """The node attains the largest pairwise distance among the nodes (never
    when that distance is 0)."""
    overall = max_pairwise_dist_sq(nodes)
    return overall > 0 and max(dist_sq(node, q) for q in nodes) == overall


def brute_is_diametral(p):
    return node_is_diametral(tuple(p), orbit_nodes(p))


def diametral_count(region):
    """(total, hits) over every lattice point of the region's bounding box
    that the region contains, each tested with ``brute_is_diametral``."""
    xmin, xmax, ymin, ymax = region.bounds()
    total = hits = 0
    for y in range(ymin, ymax + 1):
        for x in range(xmin, xmax + 1):
            if region.contains(x, y):
                total += 1
                hits += brute_is_diametral((x, y))
    return total, hits
