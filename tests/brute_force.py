"""Brute-force orbit oracle for the tests, independent of the closed forms.

The orbit of a 2D point is walked with the two operators, K1 then K2 then
K1 and so on until the walk closes; its length, box and diametral points are
then read off the walked nodes by direct measurement.  In any dimension the
reach graph and the orbit distance come from a breadth-first search with the
operators.  Everything is in Python ints with no input guard, so nodes
beyond 2^31 are fine.

The group catalog is closed with a queue and a dict keyed by element, one
``msih_mul`` per step; elements are ranked by their Lehmer code, and the
homomorphism law is checked on every pair. The order of an element is found
by multiplying it by itself until the product is the identity. Random words,
the generator map along a word and the embedding one dimension up are the
group helpers that only the tests use. The catalog export is built as one
dict per element, from the scalar psi and a walk up the parent chain for the
word, and laid out field by field as ``json.dumps(indent=2)`` lays it out,
as the export was written before it joined per-rank piece tables.

The region scans and counts visit one row at a time, in Python ints, as
the census did before it read whole chunks of rows off ``rows.row_spans``:
the scan blocks are filled with row segments, and each row adds its span,
its intersection with the double cone, found from the cone's inequalities,
and its closed-form length sum.
The orbit census of [0,M]^2 counts the cone's points one anti-diagonal at a
time; at sizes too large to walk, each of its counts is fitted as a
polynomial in M on each class of M mod a period, through small sizes.

Each census ratio is rounded by the decimal module, whose division rounds
its exact quotient once; a square root divided by an int is taken to 80
digits, rounded, and checked in Fractions to lie nearer the result than
either neighbour.

The scanned SVG renders are written one f-string per cell, as the emitter
wrote them before it joined per-block piece tables.

Integer matrices are multiplied with a triple loop in Python ints, one entry
at a time, as ``intmat.mat_mul`` did before it multiplied with numpy. The
zero matrix, the unit matrices e_j e_l^T, sums, scalar multiples and the
powers of the sub-diagonal shift are the matrix helpers that only the tests
use. The coset blocks of the catalog are found by decoding every element
and sorting it by its pivot.

The symbolic product is composed through ``Permutation.then`` and
``inverse`` objects, as ``msih_mul`` did before it read the image tuples.
The matrix suites of ``verify`` are run one ``mat_mul`` and one check at a
time, with every failure text formatted, as they ran before they took whole
families in one stacked product; a word product is one ``mat_mul`` per
generator. They look up the library's functions on its modules when called,
so a test that patches a module attribute breaks the oracle as it breaks
the suite.
"""

import decimal
import functools
import json
import math
from collections import deque
from fractions import Fraction
from math import factorial

import random

import numpy as np

from aughts import atlas, intmat, orbits, verify
from aughts.atlas import ConsistencyError, psi
from aughts.census import Region
from aughts.intmat import INT64_MAX, SmallIntMatrix, _check_dim, _check_index
from aughts.orbits import _in_cone, _semi_perimeter
from aughts.rows import _RUN, _iter_blocks
from aughts.signed_perm import (
    Permutation,
    SignedPermElement,
    format_element,
    generator,
    identity_element,
    msih_mul,
)
from aughts.svg import DIAMETRAL_COLOR, OTHER_COLOR, _check_cells, _svg_open


def k_step(p, j):
    """Operator j: coordinate j becomes the alternating sum -x_j + ..."""
    out = list(p)
    out[j - 1] = sum(v if (j + k) % 2 == 0 else -v for k, v in enumerate(p))
    return tuple(out)


def bfs_reach_graph(p):
    """(nodes, edges) of the orbit of p; each edge is a (min, max) pair of
    distinct points one operator apart."""
    start = tuple(p)
    seen = {start}
    edges = set()
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for j in range(1, len(start) + 1):
            nxt = k_step(current, j)
            if nxt != current:
                edges.add((min(current, nxt), max(current, nxt)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen, edges


def bfs_orbit_distance(a, b):
    """Fewest operator steps from a to b, or None when b is not reached."""
    start, goal = tuple(a), tuple(b)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if current == goal:
            return dist[current]
        for j in range(1, len(start) + 1):
            nxt = k_step(current, j)
            if nxt not in dist:
                dist[nxt] = dist[current] + 1
                queue.append(nxt)
    return None


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


def per_row_blocks(region):
    """The scan blocks of ``rows._iter_blocks``, built one row at a time:
    each row's ``row_span`` is cut into segments that fill blocks of
    ``_RUN`` points in row-major order."""
    _, _, ymin, ymax = region.bounds()
    segments = []  # (first x, y, length) of each row segment of the block
    room = _RUN
    for y in range(ymin, ymax + 1):
        lo, hi = region.row_span(y)
        while lo <= hi:
            take = min(hi - lo + 1, room)
            segments.append((lo, y, take))
            lo += take
            room -= take
            if room == 0:
                yield _segment_block(segments)
                segments, room = [], _RUN
    if segments:
        yield _segment_block(segments)


def _segment_block(segments):
    x1 = [x for lo, _, n in segments for x in range(lo, lo + n)]
    x2 = [y for _, y, n in segments for _ in range(n)]
    return np.array(x1, dtype=np.int64), np.array(x2, dtype=np.int64)


def per_row_diametral_counts(region):
    """(total, hits) of the region, one row at a time in Python ints: each
    row's ``row_span`` and its intersection with the double cone's points on
    the row, found from the cone's inequalities, not from the library.

    (x, y) or (-x, -y) lies in x/2 <= y <= 2x iff x lies between y/2 and
    2y, both included; on row 0 that is the origin alone, which is not
    diametral.
    """
    _, _, ymin, ymax = region.bounds()
    total = hits = 0
    for y in range(ymin, ymax + 1):
        lo, hi = region.row_span(y)
        if lo > hi:
            continue
        total += hi - lo + 1
        if y:
            a, b = sorted((Fraction(y, 2), Fraction(2 * y)))
            hits += max(0, min(math.floor(b), hi) - max(math.ceil(a), lo) + 1)
    return total, hits


def per_row_disk_length_stats(r):
    """(point count, length total, largest length) over the disk of radius
    r, one row at a time in Python ints; each row sums its lengths in closed
    form and takes its largest at an end, where the convex length peaks."""
    region = Region.disk(r)
    total = count = maximum = 0
    for y in range(-r, r + 1):
        lo, hi = region.row_span(y)
        count += hi - lo + 1
        total += 2 * (
            abs_linear_sum(2, -y, lo, hi)
            + abs_linear_sum(1, y, lo, hi)
            + abs_linear_sum(1, -2 * y, lo, hi)
        )
        maximum = max(maximum, 2 * _semi_perimeter(lo, y), 2 * _semi_perimeter(hi, y))
    return count, total, maximum


def abs_linear_sum(a, b, lo, hi):
    """Sum of |a*x + b| over the integers lo <= x <= hi, for a > 0."""

    def linear(p, q):
        # sum of a*x + b over p <= x <= q; (p + q)(q - p + 1) is even
        return a * (p + q) * (q - p + 1) // 2 + b * (q - p + 1) if p <= q else 0

    k = (-b) // a  # a*x + b <= 0 exactly for x <= k
    return linear(max(lo, k + 1), hi) - linear(lo, min(hi, k))


def antidiagonal_census(m, d):
    """Independent oracle for the census of [0,m]^2: on each anti-diagonal
    x + y = s, count the cone points x/2 <= y <= 2x one s at a time, each
    an orbit of length 4s, in Python ints."""
    residues = [0] * d
    count = length = 0
    for s in range(2 * m + 1):
        n = min(2 * s // 3, m) - max(-(-s // 3), s - m) + 1
        residues[4 * s % d] += n
        count += n
        length += 4 * s * n
    return residues, count, length


def fitted_census(m, d, period):
    """``antidiagonal_census(m, d)`` at any m, as (residues, count, length).

    Each value is taken to be a polynomial of degree at most 3 in m on each
    class of m mod period: it is fitted through the oracle at four small
    sizes of m's class, in Fractions, checked at four more and evaluated
    at m.
    """
    sizes = [m % period + period * k for k in range(1, 9)]
    samples = []
    for size in sizes:
        residues, count, length = antidiagonal_census(size, d)
        samples.append((*residues, count, length))

    def at(x, column):
        value = Fraction(0)
        for i, xi in enumerate(sizes[:4]):
            term = Fraction(samples[i][column])
            for xj in sizes[:4]:
                if xj != xi:
                    term *= Fraction(x - xj, xi - xj)
            value += term
        return value

    columns = range(d + 2)
    for size, sample in zip(sizes[4:], samples[4:]):
        assert [at(size, c) for c in columns] == list(sample), (size, period)
    values = [at(m, c) for c in columns]
    assert all(v.denominator == 1 for v in values)
    *residues, count, length = map(int, values)
    return residues, count, length


# Twelve significant digits, rounded half to even.
_TWELVE = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)
# Enough digits that an irrational value lies visibly off every midpoint.
_WIDE = decimal.Context(prec=80)


def ratio12(p, q):
    """p / q correctly rounded to 12 significant digits, half to even, as a
    float: one division of the decimal module, which rounds its exact
    quotient once."""
    return float(_TWELVE.divide(decimal.Decimal(p), decimal.Decimal(q)))


def root_ratio12(n, q):
    """sqrt(n) / q, irrational, correctly rounded to 12 significant digits
    as a float: an 80-digit decimal rounded to 12 digits, checked exactly,
    in Fractions, to lie strictly between the midpoints to its neighbours."""
    digits = _TWELVE.plus(_WIDE.divide(_WIDE.sqrt(n), q))
    _assert_nearest(n, q, _TWELVE.next_minus(digits), digits, _TWELVE.next_plus(digits))
    return float(digits)


def root_double(n, q):
    """sqrt(n) / q, irrational, correctly rounded to a double: the float of
    an 80-digit decimal, checked exactly as in ``root_ratio12``."""
    x = float(_WIDE.divide(_WIDE.sqrt(n), q))
    _assert_nearest(n, q, math.nextafter(x, 0), x, math.nextafter(x, math.inf))
    return x


def _assert_nearest(n, q, below, value, above):
    """sqrt(n) / q lies strictly between the midpoints of value, a positive
    number, and its neighbours below and above."""
    low = (Fraction(below) + Fraction(value)) / 2
    high = (Fraction(value) + Fraction(above)) / 2
    assert low * low < Fraction(n, q * q) < high * high, (n, q, value)


# The eight directions on multiples of pi/4, (cos, sin) up to a positive factor.
_OCTANT_DIRECTIONS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def exact_bin(x, y, bins):
    """The bin of the direction of (x, y) != (0, 0): the largest b with
    2 pi b / bins <= its angle in [0, 2 pi), by a binary search over
    ``angle_at_least``, in integer comparisons only."""
    low, high = 0, bins - 1
    while low < high:
        mid = (low + high + 1) // 2
        if angle_at_least(x, y, mid, bins):
            low = mid
        else:
            high = mid - 1
    return low


def exact_histogram(points, bins):
    """(diametral, others) per bin of ``exact_bin``; the origin is skipped."""
    dia, others = [0] * bins, [0] * bins
    for x, y in points:
        if (x, y) != (0, 0):
            (dia if _in_cone(x, y) else others)[exact_bin(x, y, bins)] += 1
    return tuple(dia), tuple(others)


def angle_at_least(x, y, b, bins):
    """Whether the angle of (x, y) != (0, 0) in [0, 2 pi) is at least
    phi = 2 pi b / bins, 0 < b < bins.

    [0, pi) holds the points with y > 0 or y = 0 < x.  Within one half the
    angle is at least phi iff y cos phi - x sin phi >= 0: an integer on the
    multiples of pi/4, and otherwise an integer interval from brackets of
    2^k cos phi and 2^k sin phi, whose bits double until it misses 0.
    """
    upper = y > 0 or (y == 0 and x > 0)
    if upper != (2 * b < bins):
        return not upper
    if 8 * b % bins == 0:
        c, s = _OCTANT_DIRECTIONS[8 * b // bins]
        return y * c - x * s >= 0
    k = 64
    while True:
        c0, c1, s0, s1 = cos_sin_bracket(b, bins, k)
        low = min(y * c0, y * c1) - max(x * s0, x * s1)
        high = max(y * c0, y * c1) - min(x * s0, x * s1)
        if low >= 0 or high < 0:
            return low >= 0
        k *= 2


_BRACKETS = {}


@functools.lru_cache(maxsize=None)
def _pi_bounds(k):
    terms = k // 4 + 2

    def atan_bounds(m):
        total = sum(Fraction((-1) ** i, (2 * i + 1) * m ** (2 * i + 1)) for i in range(terms))
        tail = Fraction(1, (2 * terms + 1) * m ** (2 * terms + 1))
        return total - tail, total + tail

    (a0, a1), (b0, b1) = atan_bounds(5), atan_bounds(239)
    return 16 * a0 - 4 * b1, 16 * a1 - 4 * b0


def cos_sin_bracket(b, bins, k):
    """Integers c0 <= 2^k cos phi <= c1 and s0 <= 2^k sin phi <= s1 for
    phi = 2 pi b / bins, by another route than ``census`` takes:

    - pi lies between the partial sums of Machin's formula
      16 atan(1/5) - 4 atan(1/239) with their alternating tails added or
      taken away, as exact fractions;
    - phi is q pi/2 + beta with beta in [0, pi/2), and beta's ends are
      rounded outward to multiples of 2^-(k+16);
    - cos and sin at beta's lower end are Taylor sums over one common
      integer denominator, within the Lagrange bound beta^n / n!, and change
      by at most beta's width across it; a quarter turn q permutes them.
    """
    key = (b, bins, k)
    if key not in _BRACKETS:
        pi0, pi1 = _pi_bounds(k)
        quarter, rest = divmod(4 * b, bins)  # beta = pi rest / (2 bins)
        m = k + 16
        low = math.floor(pi0 * rest / (2 * bins) * 2**m)
        high = math.ceil(pi1 * rest / (2 * bins) * 2**m)
        # beta^d / d! = low^d 2^(m(n-d)) (n!/d!) / den at the lower end
        n = 2 * (k // 6 + 8)
        den = 2 ** (m * n) * factorial(n)
        sums = [0, 0]
        for d in range(n):
            sums[d % 2] += (-1) ** (d // 2) * low**d * 2 ** (m * (n - d)) * (factorial(n) // factorial(d))
        slack = low**n + (high - low) * 2 ** (m * (n - 1)) * factorial(n)
        (c0, c1), (s0, s1) = (
            ((v - slack) * 2**k // den, -(-(v + slack) * 2**k // den)) for v in sums
        )
        _BRACKETS[key] = [
            (c0, c1, s0, s1), (-s1, -s0, c0, c1), (-c1, -c0, -s1, -s0), (s0, s1, -c1, -c0)
        ][quarter]
    return _BRACKETS[key]


def bfs_catalog(n):
    """(elements, distance, parent) of the breadth-first closure of the
    identity under left multiplication by K(1), ..., K(n); parent[i] is
    (parent position, j) with elements[i] = K(j) * elements[parent position],
    or None at the identity."""
    gens = [generator(n, j) for j in range(1, n + 1)]
    elements = [identity_element(n)]
    index = {elements[0]: 0}
    distance = [0]
    parent = [None]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j, g in enumerate(gens, start=1):
            nxt = msih_mul(g, elements[i])
            if nxt not in index:
                index[nxt] = len(elements)
                elements.append(nxt)
                distance.append(distance[i] + 1)
                parent.append((i, j))
                queue.append(index[nxt])
    return elements, distance, parent


def catalog_records(n):
    """One dict per element of the queue-built catalog, in BFS order: the
    triple, its text, distance, word and psi image; each word is read by
    walking the parent chain up to the identity."""
    elements, distance, parent = bfs_catalog(n)
    for i, e in enumerate(elements):
        word, k = [], i
        while parent[k] is not None:
            k, j = parent[k]
            word.append(j)
        yield {
            "sigma": list(e.sigma.images),
            "h": e.h,
            "eps": e.eps,
            "text": format_element(e),
            "distance": distance[i],
            "word": word,
            "psi": list(psi(e, n).images),
        }


def catalog_header(n):
    return {"schema_version": 1, "kind": "group-catalog", "n": n, "order": factorial(n + 1)}


def json_fields(record, depth):
    """The ``"key": value`` lines of a flat record, laid out as
    ``json.dumps(indent=2)`` lays out a dict at nesting depth ``depth``.
    Values are ints, strs or lists of ints."""
    pad = "  " * (depth + 1)
    lines = []
    for key, value in record.items():
        if isinstance(value, str):
            value = json.dumps(value)
        elif isinstance(value, list):
            items = f",\n{pad}  ".join(map(str, value))
            value = f"[\n{pad}  {items}\n{pad}]" if value else "[]"
        lines.append(f"{pad}{json.dumps(key)}: {value}")
    return ",\n".join(lines)


def catalog_chunks(n):
    """The export of ``group --dim n`` in chunks, field by field: the header,
    one chunk per record, then the closing brackets."""
    yield "{\n" + json_fields(catalog_header(n), 0) + ',\n  "elements": [\n'
    separator = ""
    for record in catalog_records(n):
        yield f"{separator}    {{\n{json_fields(record, 2)}\n    }}"
        separator = ",\n"
    yield "\n  ]\n}"


def lehmer_rank(e):
    """lehmer(sigma) * (n+1) + (h if eps else 0), where the Lehmer rank of
    sigma is its index among the permutations in lexicographic order."""
    images = e.sigma.images
    n = len(images)
    r = 0
    for i, v in enumerate(images):
        r = r * (n - i) + sum(w < v for w in images[i + 1 :])
    return r * (n + 1) + (e.h if e.eps else 0)


def all_pairs_homomorphism(elements, image):
    """The first pair (a, b) with image(a * b) != image(a) then image(b),
    or None when the map is multiplicative on every pair."""
    images = {e: image(e) for e in elements}
    for a in elements:
        for b in elements:
            if images[msih_mul(a, b)] != images[a].then(images[b]):
                return a, b
    return None


def element_order(a):
    """Least k >= 1 with a^k the identity, by repeated ``msih_mul``."""
    acc = a
    ident = identity_element(a.degree)
    for k in range(1, 10_000):
        if acc == ident:
            return k
        acc = msih_mul(acc, a)
    raise ValueError("element order not found (not a finite-order element?)")


def embed_element(e):
    """Embed an element one dimension up by padding with a fixed point."""
    images = e.sigma.images + (e.degree + 1,)
    return SignedPermElement.of(Permutation.of(images), e.h, e.eps)


def random_word_element(n, rng, max_len=12):
    """(element, word): a random generator word and the element it
    evaluates to."""
    word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))
    acc = identity_element(n)
    for j in word:
        acc = msih_mul(acc, generator(n, j))
    return acc, word


def psi_of_word(n, word):
    """The generator map along an arbitrary word, read left to right: K(j)
    goes to the transposition (1, j+1)."""
    acc = Permutation.identity(n + 1)
    for j in word:
        acc = acc.then(Permutation.transposition(n + 1, 1, j + 1))
    return acc


def loop_mat_mul(a, b):
    """Exact product by the triple loop; OverflowError at the first entry
    beyond the signed 64-bit range."""
    n = a.n
    ae, be = a.entries, b.entries
    out = []
    for i in range(n):
        arow = ae[i * n : (i + 1) * n]
        for j in range(n):
            v = sum(arow[k] * be[k * n + j] for k in range(n))
            if abs(v) > INT64_MAX:
                raise OverflowError("matrix product exceeds 64-bit range")
            out.append(v)
    return SmallIntMatrix(n, tuple(out))


def zero_matrix(n):
    _check_dim(n)
    return SmallIntMatrix(n, (0,) * (n * n))


def basis_outer(n, j, ell):
    """Rank-one matrix e_j e_ell^T: a single 1 at position (j, ell)."""
    _check_index(n, j)
    _check_index(n, ell)
    entries = [0] * (n * n)
    entries[(j - 1) * n + (ell - 1)] = 1
    return SmallIntMatrix(n, tuple(entries))


def mat_add(a, b):
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return SmallIntMatrix(a.n, tuple(x + y for x, y in zip(a.entries, b.entries)))


def mat_scale(a, c):
    return SmallIntMatrix(a.n, tuple(c * x for x in a.entries))


def shift_power(n, k):
    """k-th power of the sub-diagonal shift: ones on the k-th sub-diagonal.

    k = 0 gives the identity and k = n the zero matrix.
    """
    _check_dim(n)
    if not 0 <= k <= n:
        raise ValueError(f"shift power must be in 0..{n}, got {k}")
    entries = [0] * (n * n)
    for ell in range(k + 1, n + 1):
        entries[(ell - 1) * n + (ell - k - 1)] = 1
    return SmallIntMatrix(n, tuple(entries))


def coset_decomposition(cat):
    """Partition into the flag-free subgroup (key 0) and its left cosets.

    Left-multiplying the flag-free subgroup by K(j) pins the pivot to j, so
    the coset of a flagged element is read off its pivot; each block has n!
    elements.
    """
    blocks = {j: [] for j in range(cat.n + 1)}
    for e in cat.elements:
        blocks[e.h if e.eps == 1 else 0].append(e)
    expected = factorial(cat.n)
    for key, block in blocks.items():
        if len(block) != expected:
            raise ConsistencyError(f"coset block {key} has size {len(block)}")
    return blocks

def per_cell_render(spec):
    """The SVG of a mod, diametral or projection render, one line per cell."""
    if spec.mode == "projection":
        return _per_cell_projection(spec)
    return _per_cell_rects(spec)


def _per_cell_rects(spec):
    _check_cells(spec.region)
    xmin, xmax, ymin, ymax = spec.region.bounds()
    s = spec.scale
    # an empty rect has a side of 0, not a negative one
    width = max(xmax - xmin + 1, 0) * s
    height = max(ymax - ymin + 1, 0) * s
    lines = [_svg_open(width, height)]
    for x1, x2 in _iter_blocks(spec.region):
        if spec.mode == "mod_color":
            residues = 2 * _semi_perimeter(x1, x2) % spec.modulus
            colors = [spec.palette[int(r)] for r in residues]
        else:
            colors = [DIAMETRAL_COLOR if m else OTHER_COLOR for m in _in_cone(x1, x2)]
        for a, b, color in zip(x1.tolist(), x2.tolist(), colors):
            px = (a - xmin) * s
            py = (ymax - b) * s
            lines.append(
                f'<rect x="{px}" y="{py}" width="{s}" height="{s}" fill="{color}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _per_cell_projection(spec):
    _check_cells(spec.region)
    radius_px = 220
    margin = 20
    size = 2 * (radius_px + margin)
    center = radius_px + margin
    lines = [
        _svg_open(size, size),
        f'<circle cx="{center}" cy="{center}" r="{radius_px}" fill="none" '
        f'stroke="#cccccc" stroke-width="1"/>',
    ]
    for x1, x2 in _iter_blocks(spec.region):
        nonzero = (x1 != 0) | (x2 != 0)
        x1, x2 = x1[nonzero], x2[nonzero]
        mask = _in_cone(x1, x2)
        # each square fits int64 (|x| <= 2^31) but their sum needs uint64
        norm = np.sqrt((x1 * x1).astype(np.uint64) + (x2 * x2).astype(np.uint64))
        cx = center + radius_px * x1 / norm
        cy = center - radius_px * x2 / norm
        for px, py, m in zip(cx.tolist(), cy.tolist(), mask.tolist()):
            color = DIAMETRAL_COLOR if m else OTHER_COLOR
            lines.append(
                f'<circle cx="{px:.3f}" cy="{py:.3f}" r="2" fill="{color}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def loop_msih_mul(a, b):
    """Product a*b in the symbolic format, composed through permutation
    objects."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    sigma, tau = a.sigma, b.sigma
    ts = sigma.then(tau)
    if a.eps == 0 and b.eps == 0:
        return SignedPermElement.of(ts, 1, 0)
    if a.eps == 1 and b.eps == 0:
        return SignedPermElement.of(ts, a.h, 1)
    sv = sigma.inverse().apply(b.h)
    if a.eps == 0:
        return SignedPermElement.of(ts, sv, 1)
    u = a.h
    if sv == u:
        return SignedPermElement.of(ts, 1, 0)
    images = list(ts.images)
    images[u - 1], images[sv - 1] = images[sv - 1], images[u - 1]
    return SignedPermElement.of(Permutation(tuple(images)), sv, 1)


def loop_k_word_product(n, js):
    """K(j1) K(j2) ... by one mat_mul per generator, asserting unit entries
    after each step."""
    acc = intmat.identity_matrix(n)
    for j in js:
        acc = intmat.assert_unit_entries(intmat.mat_mul(acc, intmat.make_k(n, j)))
    return acc


def loop_involution_suite(n_max):
    res = verify.SuiteResult("involutions")
    for n in range(1, n_max + 1):
        for j in range(1, n + 1):
            k = intmat.make_k(n, j)
            res.check(
                intmat.mat_mul(k, k).is_identity(),
                f"K({j})^2 != Id at n={n}",
            )
    rng = random.Random(1105)
    for _ in range(50):
        n = rng.randint(1, 6)
        x = tuple(rng.randint(-50, 50) for _ in range(n))
        j = rng.randint(1, n)
        res.check(
            orbits.apply_k(orbits.apply_k(x, j), j) == x,
            f"operator {j} applied twice moved {x}",
        )
    return res


def loop_braid_suite(n_max):
    res = verify.SuiteResult("braid-relations")
    for n in range(2, n_max + 1):
        for j in range(1, n + 1):
            for ell in range(1, n + 1):
                if j == ell:
                    continue
                kj, kl = intmat.make_k(n, j), intmat.make_k(n, ell)
                prod = intmat.mat_mul(kj, kl)
                res.check(
                    intmat.mat_pow(prod, 3).is_identity(),
                    f"(K({j})K({ell}))^3 != Id at n={n}",
                )
                res.check(
                    intmat.mat_mul(prod, kj) == intmat.mat_mul(intmat.mat_mul(kl, kj), kl),
                    f"palindrome identity fails at n={n}, j={j}, l={ell}",
                )
    return res


def loop_closed_form_suite(n_max):
    if n_max < 2:
        return verify.SuiteResult("closed-form-products")
    with verify.SuiteResult("closed-form-products") as res:
        for n in range(2, n_max + 1):
            for j in range(1, n + 1):
                for ell in range(1, n + 1):
                    if j == ell:
                        continue
                    res.check(
                        intmat.product_closed_form(n, (j, ell))
                        == loop_k_word_product(n, (j, ell)),
                        f"pair closed form fails at n={n}, ({j},{ell})",
                    )
        rng = random.Random(verify.CLOSED_FORM_SEED)
        for _ in range(verify.CLOSED_FORM_TRIALS):
            n = rng.randint(2, n_max)
            s = rng.randint(1, n)
            js = tuple(rng.sample(range(1, n + 1), s))
            res.check(
                intmat.product_closed_form(n, js) == loop_k_word_product(n, js),
                f"closed form fails at n={n}, tuple {js}",
            )
        for n in range(1, n_max + 1):
            down = intmat.matrix_order(intmat.full_cycle_matrix(n, "down"), limit=n + 2)
            via_sym = atlas.full_cycle_order_via_sym(n)
            res.check(down == n + 1, f"down cycle order {down} != {n + 1}")
            res.check(via_sym == n + 1, f"symmetric-group order {via_sym} != {n + 1}")
    return res


def loop_rank_one_suite(n_max):
    res = verify.SuiteResult("rank-one-identities")
    for n in range(1, n_max + 1):
        for j in range(1, n + 1):
            row = intmat.alternating_row(n, j)
            res.check(row[j - 1] == -1, f"r({j}).e({j}) != -1 at n={n}")
            res.check(
                sum(v * v for v in row) == n, f"r({j}).r({j})^T != n at n={n}"
            )
            for ell in range(1, n + 1):
                res.check(
                    row[ell - 1] == intmat.sign_pow(j + ell - 1),
                    f"r({j}).e({ell}) sign wrong at n={n}",
                )
                if ell != j:
                    lhs = intmat.mat_mul(
                        intmat.pivot_outer(n, ell), intmat.pivot_outer(n, j)
                    )
                    rhs = mat_scale(intmat.pivot_outer(n, ell), -1)
                    res.check(
                        lhs == rhs,
                        f"e({ell})r({ell}) e({j})r({j}) != -e({ell})r({ell}) at n={n}",
                    )
            for k in range(1, n + 1):
                res.check(
                    intmat.mat_pow(intmat.pivot_outer(n, j), k)
                    == mat_scale(intmat.pivot_outer(n, j), intmat.sign_pow(k + 1)),
                    f"(e({j})r({j}))^{k} identity fails at n={n}",
                )
    return res


def loop_oracle_suite(n_max):
    with verify.SuiteResult("matrix-symbol-oracle") as res:
        for n in range(1, min(n_max, 4) + 1):
            elements = atlas.catalog(n).elements
            mats = {e: verify.to_matrix(e) for e in elements}
            for a in elements:
                for b in elements:
                    p = verify.msih_mul(a, b)
                    res.check(
                        mats.get(p) == intmat.mat_mul(mats[a], mats[b]),
                        f"oracle fails at n={n}: "
                        f"{verify.format_element(a)} * {verify.format_element(b)}",
                    )
            ident = verify.identity_element(n)
            for e in elements:
                res.check(
                    verify.msih_mul(e, verify.msih_inverse(e)) == ident,
                    f"inverse law fails at n={n}: {verify.format_element(e)}",
                )
                res.check(
                    verify.matrix_to_msih(mats[e]) == e,
                    f"round trip fails at n={n}: {verify.format_element(e)}",
                )
            res.notes.append(f"n={n}: {len(elements) ** 2} oracle pairs checked")
    return res
