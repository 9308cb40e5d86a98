"""Lattice operators, trajectories and the closed 2D orbits with their metrics.

The operator for index j rewrites coordinate j of an integer vector with the
alternating circular sum of all coordinates starting at -x_j, and fixes the
rest.  In two dimensions, alternating the two operators traces a closed
figure-eight ("twisted aught") through at most six lattice points.

In the star coordinates Phi(x) = (-sum(y), y_1, ..., y_n), y_k =
(-1)^(k+1) x_k, operator j swaps entries 0 and j, so an orbit is the set of
distinct rearrangements of Phi(x) and its graph a quotient of the star graph
ST_(n+1) (Akers & Krishnamurthy, IEEE Trans. Computers, 1989).
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from aughts.errors import ResourceLimitError

Point = tuple[int, ...]

COORD_LIMIT = 2**31
NODE_LIMIT = 10**6

# Closed 24-step word that visits all 24 nodes of a generic 3D orbit graph:
# a full aught on one level, a jump, the aught on the mirror level, a jump
# back, then the same once more.
HAMILTONIAN_WORD_3D: tuple[int, ...] = (1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 2, 3) * 2


def _check_point(x: Sequence[int]) -> Point:
    pt = tuple(map(operator.index, x))
    if not pt:
        raise ValueError("point must have at least one coordinate")
    for v in pt:
        if abs(v) > COORD_LIMIT:
            raise OverflowError(f"coordinate {v} exceeds the 2^31 input guard")
    return pt


def _star(x: Point) -> Point:
    """Phi(x) = (-sum(y), y_1, ..., y_n) with y_k = (-1)^(k+1) x_k."""
    y = tuple(v if k % 2 == 0 else -v for k, v in enumerate(x))
    return (-sum(y),) + y


def _unstar(z: Point) -> Point:
    """Inverse of ``_star`` on the sum-zero lattice."""
    return tuple(v if k % 2 == 0 else -v for k, v in enumerate(z[1:]))


def _swap(z: Point, j: int) -> Point:
    """Operator j in star coordinates: entries 0 and j trade places."""
    return (z[j],) + z[1:j] + (z[0],) + z[j + 1 :]


def apply_k(x: Sequence[int], j: int) -> Point:
    """Replace coordinate j with the alternating sum starting at -x_j, which
    is the swap of entries 0 and j of Phi(x)."""
    pt = _check_point(x)
    if not 1 <= j <= len(pt):
        raise ValueError(f"index {j} out of range 1..{len(pt)}")
    return _unstar(_swap(_star(pt), j))


@dataclass(frozen=True)
class Trajectory:
    start: Point
    word: tuple[int, ...]
    path: tuple[Point, ...]
    closed: bool

    @property
    def distinct_nodes(self) -> int:
        interior = self.path[:-1] if self.closed and len(self.path) > 1 else self.path
        return len(set(interior))


def run_word(x: Sequence[int], word: Iterable[int]) -> Trajectory:
    """Apply a sequence of operator indices, first index first; only the
    start is guarded, so the path may leave the 2^31 box."""
    start = _check_point(x)
    word_t = tuple(map(operator.index, word))
    path = [start]
    z = _star(start)
    for j in word_t:
        if not 1 <= j <= len(start):
            raise ValueError(f"index {j} out of range 1..{len(start)}")
        z = _swap(z, j)
        path.append(_unstar(z))
    return Trajectory(start, word_t, tuple(path), closed=path[-1] == start)


@dataclass(frozen=True)
class ReachGraph:
    nodes: frozenset[Point]
    edges: frozenset[tuple[Point, Point]]


def reach_graph(x: Sequence[int]) -> ReachGraph:
    """Closure of a point under all operators: the rearrangements of Phi(x),
    at most (n+1)! <= 5040; edges join distinct points one swap apart."""
    start = _check_point(x)
    n = len(start)
    if n > 6:
        raise ValueError("reachability exploration is limited to dimension <= 6")
    nodes = {z: _unstar(z) for z in set(permutations(_star(start)))}
    edges = set()
    for z, p in nodes.items():
        for j in range(1, n + 1):
            if z[0] < z[j]:
                q = nodes[_swap(z, j)]
                edges.add((min(p, q), max(p, q)))
    return ReachGraph(frozenset(nodes.values()), frozenset(edges))


def _check_dim2(x: Sequence[int]) -> tuple[int, int]:
    pt = _check_point(x)
    if len(pt) != 2:
        raise ValueError(f"expected a 2D point, got dimension {len(pt)}")
    return pt  # type: ignore[return-value]


def cycle_points(x: Sequence[int], first_generator: int = 1) -> tuple[Point, ...]:
    """The six cycle points (with possible repeats), in traversal order.

    Starting with the second operator traverses the same cycle in the
    opposite direction.
    """
    x1, x2 = _check_dim2(x)
    forward = (
        (x1, x2),
        (x2 - x1, x2),
        (x2 - x1, -x1),
        (-x2, -x1),
        (-x2, x1 - x2),
        (x1, x1 - x2),
    )
    if first_generator == 1:
        return forward
    if first_generator == 2:
        return (forward[0],) + tuple(reversed(forward[1:]))
    raise ValueError(f"first_generator must be 1 or 2, got {first_generator}")


def _semi_perimeter(x1, x2):
    """|2x1-x2| + |x1+x2| + |2x2-x1|: half the orbit length.

    Python ints or int64 arrays alike; for |x| <= 2^31 no term exceeds 2^34.
    """
    return abs(2 * x1 - x2) + abs(x1 + x2) + abs(2 * x2 - x1)


def _in_cone(x1, x2):
    """Diametral rule: the point or its negative lies in x/2 <= y <= 2x.

    Comparisons, & and | only, so nothing is squared and the same code
    tests Python ints or int64 arrays; the origin is outside.
    """
    return ((x1 > 0) & (2 * x2 >= x1) & (x2 <= 2 * x1)) | (
        (x1 < 0) & (2 * x2 <= x1) & (x2 >= 2 * x1)
    )


def _cone_span(y):
    """Inclusive x-range [ceil(y/2), 2y] of the diametral points on row y.

    For rows y > 0 only, Python ints or integer arrays alike; callers pass
    no other row.  The row -y holds the negatives of row y's, and row 0
    holds none.
    """
    return (y + 1) // 2, 2 * y


def semi_perimeter(x: Sequence[int]) -> int:
    """Half the orbit length; always even."""
    return _semi_perimeter(*_check_dim2(x))


@dataclass(frozen=True)
class Orbit2D:
    """Closed 2D orbit: deduplicated node cycle plus its exact semi-perimeter.

    By the box law the side of the square bounding box and the diameter
    multiplier m (Euclidean diameter sqrt(2) * m) both equal half of it.
    """

    seed: Point
    nodes: tuple[Point, ...]
    semi_perimeter: int

    @property
    def box_side(self) -> int:
        return self.semi_perimeter // 2

    diam_multiplier = box_side


def orbit2d(x: Sequence[int], first_generator: int = 1) -> Orbit2D:
    seed = _check_dim2(x)
    nodes: list[Point] = []
    for p in cycle_points(seed, first_generator):
        if p not in nodes:
            nodes.append(p)
    p = _semi_perimeter(*seed)
    assert p % 2 == 0
    return Orbit2D(seed=seed, nodes=tuple(nodes), semi_perimeter=p)


def euclidean_diameter(o: Orbit2D) -> tuple[int, list[tuple[Point, Point]]]:
    """The diameter multiplier and the opposite node pairs attaining it.

    The three opposite pairs of the cycle sit at squared distances
    2*(x1+x2)^2, 2*(2x2-x1)^2 and 2*(2x1-x2)^2; the diameter is sqrt(2)
    times the largest of the three absolute values.
    """
    x1, x2 = o.seed
    cycle = cycle_points(o.seed)
    candidates = (
        (abs(x1 + x2), (cycle[0], cycle[3])),
        (abs(2 * x2 - x1), (cycle[1], cycle[4])),
        (abs(2 * x1 - x2), (cycle[2], cycle[5])),
    )
    m = o.diam_multiplier
    pairs: list[tuple[Point, Point]] = []
    for value, (a, b) in candidates:
        if value == m and a != b:
            pair = (min(a, b), max(a, b))
            if pair not in pairs:
                pairs.append(pair)
    return m, pairs


def is_diametral(x: Sequence[int]) -> bool:
    """True iff the point attains the largest pairwise Euclidean distance
    within its own orbit, which is the double cone rule of ``_in_cone``.

    The origin is not diametral by convention (its orbit has diameter 0).
    """
    return _in_cone(*_check_dim2(x))


def diametral_flags(o: Orbit2D) -> tuple[bool, ...]:
    return tuple(_in_cone(a, b) for a, b in o.nodes)


def canonical_rep(o: Orbit2D) -> Point:
    """Lexicographically maximal node; one representative per orbit.

    The representative always lands in the closed first-quadrant cone
    between the two fixed lines y = x/2 and y = 2x.
    """
    return max(o.nodes)


def orbit_rep(x: Sequence[int]) -> Point:
    return canonical_rep(orbit2d(x))


def orbit_distance(a: Sequence[int], b: Sequence[int]) -> int | None:
    """Minimal number of operator applications from a to b, if connected
    (iff Phi(a) is a rearrangement of Phi(b)); a search over swaps."""
    start, goal = _check_point(a), _check_point(b)
    if len(start) != len(goal):
        raise ValueError("points must have the same dimension")
    src, dst = _star(start), _star(goal)
    if sorted(src) != sorted(dst):
        return None
    dist = {src: 0}
    queue = deque([src])
    while True:
        z = queue.popleft()
        if z == dst:
            return dist[z]
        for j in range(1, len(start) + 1):
            nxt = _swap(z, j)
            if nxt not in dist:
                if len(dist) >= NODE_LIMIT:
                    raise ResourceLimitError(
                        f"orbit exploration exceeded {NODE_LIMIT} nodes"
                    )
                dist[nxt] = dist[z] + 1
                queue.append(nxt)


def fundamental_triangles(m: int) -> tuple[frozenset[Point], frozenset[Point]]:
    """Lattice points of the two closed triangles against the diagonal.

    Upper: 0 <= x1, x1 <= x2 <= 2*x1, x2 <= m (between y=x and y=2x).
    Lower: 0 <= x2, x1/2 <= x2 <= x1, x1 <= m (between y=x/2 and y=x).
    Their union meets every orbit that touches the punctured hexagon, and
    boundary points belong to both closed sets.
    """
    if m < 1:
        raise ValueError(f"size must be >= 1, got {m}")
    upper = frozenset(
        (a, b)
        for a in range(0, m + 1)
        for b in range(a, min(2 * a, m) + 1)
    )
    lower = frozenset(
        (a, b)
        for a in range(0, m + 1)
        for b in range((a + 1) // 2, a + 1)
    )
    return upper, lower


def orbit_record(o: Orbit2D) -> dict:
    """JSON-ready record of one orbit."""
    m, pairs = euclidean_diameter(o)
    return {
        "seed": list(o.seed),
        "nodes": [list(p) for p in o.nodes],
        "semi_perimeter": o.semi_perimeter,
        "length": 2 * o.semi_perimeter,
        "box_side": o.box_side,
        "diam_multiplier": m,
        "diametral": list(diametral_flags(o)),
        "diameter_pairs": [[list(a), list(b)] for a, b in pairs],
    }


def trajectory_record(t: Trajectory) -> dict:
    return {
        "start": list(t.start),
        "word": list(t.word),
        "path": [list(p) for p in t.path],
        "closed": t.closed,
        "distinct_nodes": t.distinct_nodes,
    }
