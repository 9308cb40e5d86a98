"""Lattice operators, trajectories and the closed 2D orbits with their metrics.

The operator for index j rewrites coordinate j of an integer vector with the
alternating circular sum of all coordinates starting at -x_j, and fixes the
rest.  In two dimensions, alternating the two operators traces a closed
figure-eight ("twisted aught") through at most six lattice points.

In the star coordinates Phi(x) = (-sum(y), y_1, ..., y_n), y_k =
(-1)^(k+1) x_k, operator j swaps entries 0 and j, so an orbit is the set of
distinct rearrangements of Phi(x) and its graph a quotient of the star graph
ST_(n+1) (Akers & Krishnamurthy, IEEE Trans. Computers, 1989).  Orbit
distances are read off Phi in closed form, in any dimension, with repeated
entries or not; the breadth-first searches live in the tests.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import cycle, permutations
from typing import Iterable, Sequence

Point = tuple[int, ...]

# Closed 24-step word that visits all 24 nodes of a generic 3D orbit graph:
# a full aught on one level, a jump, the aught on the mirror level, a jump
# back, then the same once more.
HAMILTONIAN_WORD_3D: tuple[int, ...] = (1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 2, 3) * 2


def _check_point(x: Sequence[int]) -> Point:
    pt = tuple(map(operator.index, x))
    if not pt:
        raise ValueError("point must have at least one coordinate")
    return pt


def _alternate(v: Sequence[int]) -> Point:
    """(v_1, -v_2, v_3, ...): y_k = (-1)^(k+1) v_k, its own inverse."""
    return tuple(map(operator.mul, v, cycle((1, -1))))


def _star(x: Point) -> Point:
    """Phi(x) = (-sum(y), y_1, ..., y_n) with y = ``_alternate(x)``."""
    y = _alternate(x)
    return (-sum(y),) + y


def _unstar(z: Point) -> Point:
    """Inverse of ``_star`` on the sum-zero lattice."""
    return _alternate(z[1:])


def _swap(z: Point, j: int) -> Point:
    """Operator j in star coordinates: entries 0 and j trade places."""
    return (z[j],) + z[1:j] + (z[0],) + z[j + 1 :]


@dataclass(frozen=True)
class Trajectory:
    start: Point
    word: tuple[int, ...]
    path: tuple[Point, ...]
    closed: bool

    @property
    def distinct_nodes(self) -> int:
        # a closed path ends on its start, which the set counts once
        return len(set(self.path))


def run_word(x: Sequence[int], word: Iterable[int]) -> Trajectory:
    """Apply a sequence of operator indices, first index first; every step
    is exact in Python ints, at any size."""
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


def apply_k(x: Sequence[int], j: int) -> Point:
    """Replace coordinate j with the alternating sum starting at -x_j, which
    is the swap of entries 0 and j of Phi(x): the one step of ``run_word``
    on the word (j,), with its range check."""
    return run_word(x, (j,)).path[1]


@dataclass(frozen=True)
class ReachGraph:
    nodes: frozenset[Point]
    edges: frozenset[tuple[Point, Point]]


def reach_graph(x: Sequence[int]) -> ReachGraph:
    """Closure of a point under all operators: the rearrangements of Phi(x),
    at most (n+1)! <= 5040; edges join distinct points one swap apart.  For
    z0 < z_j the swap sets coordinate j - 1 of p = unstar(z) alone, to z0 for
    odd j (a smaller point) or -z0 for even j (a larger one): no lookup."""
    start = _check_point(x)
    n = len(start)
    if n > 6:
        raise ValueError("reachability exploration is limited to dimension <= 6")
    nodes, edges = [], set()
    for z in set(permutations(_star(start))):
        nodes.append(p := _unstar(z))
        for j in range(1, n + 1):
            if z[0] < z[j]:
                q = p[: j - 1] + (z[0] if j % 2 else -z[0],) + p[j:]
                edges.add((q, p) if j % 2 else (p, q))
    return ReachGraph(frozenset(nodes), frozenset(edges))


def _check_dim2(x: Sequence[int]) -> tuple[int, int]:
    """One unpacking for a pair; anything else goes through ``_check_point``
    for its refusal (a one-shot iterator of another length is consumed by
    the unpacking first, so it is reported as empty)."""
    try:
        x1, x2 = x
    except (TypeError, ValueError):
        pt = _check_point(x)
        raise ValueError(f"expected a 2D point, got dimension {len(pt)}") from None
    return operator.index(x1), operator.index(x2)


def cycle_points(x: Sequence[int], first_generator: int = 1) -> tuple[Point, ...]:
    """The six cycle points (with possible repeats), in traversal order.

    Starting with the second operator traverses the same cycle in the
    opposite direction.  With P0..P5 = (a, b), (b-a, b), (b-a, -a),
    (-b, -a), (-b, a-b), (a, a-b), points meet only on three lines:
    P0=P1, P2=P5 and P3=P4 iff b = 2a; P0=P3, P1=P2 and P4=P5 iff a = -b;
    P0=P5, P1=P4 and P2=P3 iff a = 2b.  Each of the other six pairs holds
    only where two of these lines cross (P0=P2 iff b = 2a and b = -a, say),
    which is at the origin alone.
    """
    x1, x2 = _check_dim2(x)
    # each coordinate value is computed once: b - a, a - b, -a and -b
    d, e, n1, n2 = x2 - x1, x1 - x2, -x1, -x2
    forward = ((x1, x2), (d, x2), (d, n1), (n2, n1), (n2, e), (x1, e))
    if first_generator not in (1, 2):
        raise ValueError(f"first_generator must be 1 or 2, got {first_generator!r}")
    if operator.index(first_generator) == 1:
        return forward
    return (forward[0],) + tuple(reversed(forward[1:]))


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

    By the three-line rule of ``cycle_points`` there are six nodes off the
    lines b = 2a, a = 2b and a = -b, three on exactly one of them (each
    point meets one other), and one at the origin, where they cross.  By
    the box law the side of the square bounding box and the diameter
    multiplier m (Euclidean diameter sqrt(2) * m) both equal half of it.
    """

    seed: Point
    nodes: tuple[Point, ...]
    semi_perimeter: int

    @classmethod
    def _trusted(cls, seed: Point, nodes: tuple[Point, ...], p: int) -> "Orbit2D":
        """An orbit whose fields are known to agree, built without the
        dataclass ``__init__``: the fields go straight into the instance
        dict, which skips the frozen dataclass's refusal."""
        o = object.__new__(cls)
        d = o.__dict__
        d["seed"], d["nodes"], d["semi_perimeter"] = seed, nodes, p
        return o

    @property
    def box_side(self) -> int:
        return self.semi_perimeter // 2

    diam_multiplier = box_side


def orbit2d(x: Sequence[int], first_generator: int = 1) -> Orbit2D:
    """The orbit of x, its nodes in the order of ``cycle_points``.  Points
    of the cycle meet only on the three lines b = 2a, a = 2b and a = -b
    (see ``cycle_points``), so only there are repeats dropped."""
    cycle = cycle_points(x, first_generator)
    x1, x2 = seed = cycle[0]
    p = _semi_perimeter(x1, x2)
    assert p % 2 == 0
    if x2 == 2 * x1 or x1 == 2 * x2 or x1 == -x2:
        return Orbit2D._trusted(seed, tuple(dict.fromkeys(cycle)), p)
    return Orbit2D._trusted(seed, cycle, p)


def euclidean_diameter(o: Orbit2D) -> tuple[int, list[tuple[Point, Point]]]:
    """The diameter multiplier and the opposite node pairs attaining it.

    Node i + 3 of ``cycle_points`` is node i = (a1, a2) reflected in the line
    y = -x, so the pair lies sqrt(2) * |a1 + a2| apart; the pairs i = 0, 1, 2
    whose value is the diameter multiplier attain the diameter, in that order.
    """
    m = o.diam_multiplier
    cycle = cycle_points(o.seed)
    pairs = dict.fromkeys(
        (min(a, b), max(a, b))
        for a, b in zip(cycle, cycle[3:])
        if abs(a[0] + a[1]) == m and a != b
    )
    return m, list(pairs)


def is_diametral(x: Sequence[int]) -> bool:
    """True iff the point attains the largest pairwise Euclidean distance
    within its own orbit, which is the double cone rule of ``_in_cone``.

    The origin is not diametral by convention (its orbit has diameter 0).
    """
    return _in_cone(*_check_dim2(x))


def diametral_flags(o: Orbit2D) -> tuple[bool, ...]:
    return tuple(_in_cone(a, b) for a, b in o.nodes)


def orbit_rep(x: Sequence[int]) -> Point:
    """The lexicographically largest node of x's orbit, one representative
    per orbit, read off the six cycle points.

    The representative always lands in the closed first-quadrant cone
    between the two fixed lines y = x/2 and y = 2x.
    """
    return max(cycle_points(x))


def orbit_distance(a: Sequence[int], b: Sequence[int]) -> int | None:
    """Fewest operator applications from a to b, or None when b is not in
    a's orbit (iff Phi(a) and Phi(b) do not sort alike).

    With z = Phi(a), w = Phi(b), m positions where z_i != w_i and k
    connected components of the graph on values with one edge z_i -- w_i
    per such position, the distance is

        m + k - [z_0 is a value of a moved position] - [z_0 != w_0].

    A walk from a to b moves the entries by a permutation of positions,
    and the fewest star swaps for one with m' moved positions in c
    nontrivial cycles is m' + c - 2*[it moves 0] (the star-graph distance).
    The m positions must move, and their cycles are closed trails in the
    value graph; that graph is balanced, so each component is Eulerian and
    one cycle per component is needed and enough.  Position 0 saves 2 when
    it must move; when z_0 = w_0 lies in a component, moving it too costs 1
    and saves 2.  The components come from a small union-find on values.
    """
    start, goal = _check_point(a), _check_point(b)
    if len(start) != len(goal):
        raise ValueError("points must have the same dimension")
    z, w = _star(start), _star(goal)
    if sorted(z) != sorted(w):
        return None
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    moved = [(u, v) for u, v in zip(z, w) if u != v]
    for u, v in moved:
        parent[root(u)] = root(v)
    components = sum(p == v for v, p in parent.items())
    return len(moved) + components - (z[0] in parent) - (z[0] != w[0])


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
