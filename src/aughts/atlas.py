"""Enumeration of the full group, Cayley distances and the isomorphism
with the symmetric group of degree n + 1.

Elements are coded as integers: (sigma, h, eps) has the rank
lehmer(sigma) * (n+1) + (h if eps else 0), where the Lehmer rank of sigma is
its index in lexicographic order (Knuth, TAOCP 4A, 7.2.1.2). Left
multiplication by K(j) has a closed form on (sigma, h, eps), so the n
left-multiplication tables over all (n+1)! ranks are built with array
operations (``left_tables``). The catalog is the breadth-first closure of
the identity under these tables, run one level at a time in the order a
queue would visit (the first candidate of each new rank is found by one
linear pass over a per-rank claim array, with no sort), so an element found
via parent p and generator j satisfies e = K(j) * p; reading the parent
chain from the element up to the identity yields its word as a product
taken left to right. The catalog keeps the search as arrays over BFS
positions and decodes elements only on demand. Its JSON export
(``catalog_chunks``) writes no element either: while n + 1 <= 9 every entry
of a record is one digit, so the records of a BFS level differ only in their
digits, and each level is laid out from one byte template whose digit slots
are written from the rank arrays, one chunk of text per run of records.

The isomorphism psi, the permutation e applies to the star coordinates of
``aughts.orbits``, is read off (sigma, h, eps): psi(j+1) = sigma(j)+1 and
psi(1) = 1, except that eps = 1 sets psi(1) = sigma(h)+1 and psi(h+1) = 1.
K(j) maps to (1, j+1), so the Cayley graph is the star graph ST_(n+1)
(Akers & Krishnamurthy, IEEE Trans. Computers, 1989). ``verify_isomorphism``
checks the homomorphism law on generators only: given psi(id) = id and
psi(K(j) * e) = psi(K(j)) then psi(e) for every j and e, induction on the
word length of a = K(j1)...K(jd) gives psi(a * b) = psi(a) then psi(b) for
every pair, since the product is associative (it is the matrix product).
That is n (n+1)! products instead of ((n+1)!)^2, checked as array
comparisons on psi over all ranks (``psi_table``), which also gives the order
spectrum and the image column of the JSON export. The witness it returns
decodes its element and permutation maps only when they are first read.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from aughts.intmat import full_cycle_matrix, matrix_order
from aughts.signed_perm import (
    Permutation,
    SignedPermElement,
    format_element,
    generator,
)

ENUMERATION_MAX_N = 7

# records laid out at once by ``catalog_chunks``
_RUN = 2**9


class ConsistencyError(RuntimeError):
    """An internal structural check failed; this must never fire."""


@dataclass(eq=False)
class GroupCatalog:
    """All (n+1)! group elements as arrays over BFS positions: the rank, the
    distance, the parent's position and the generator j with element =
    K(j) * parent (parent -1 and j 0 at the identity); ``position`` maps a
    rank back to its BFS position, and ``tables``, set at construction, are
    the left-multiplication tables the search ran on (``left_tables``).
    ``elements`` decodes the ranks into triples when first read."""

    n: int
    rank: np.ndarray
    distance: np.ndarray
    parent: np.ndarray
    via: np.ndarray
    position: np.ndarray
    tables: np.ndarray

    def __len__(self) -> int:
        return len(self.rank)

    @cached_property
    def elements(self) -> list[SignedPermElement]:
        sigmas = [Permutation._trusted(tuple(p)) for p in _permutations(self.n).tolist()]
        lehmer, pivot = np.divmod(self.rank, self.n + 1)
        return [
            SignedPermElement._trusted(sigmas[s], h or 1, 1 if h else 0)
            for s, h in zip(lehmer.tolist(), pivot.tolist())
        ]

    def distance_of(self, e: SignedPermElement) -> int:
        return int(self.distance[self._position_of(e)])

    def word(self, e: SignedPermElement) -> tuple[int, ...]:
        """Generator word (j1, ..., jd) with e = K(j1) K(j2) ... K(jd)."""
        i = self._position_of(e)
        out: list[int] = []
        while i > 0:
            out.append(int(self.via[i]))
            i = int(self.parent[i])
        return tuple(out)

    def psi_image(self, e: SignedPermElement) -> Permutation:
        """Image in the symmetric group of degree n+1, K(j) -> (1, j+1)."""
        return psi(e, self.n)

    def distance_histogram(self) -> dict[int, int]:
        # BFS levels are contiguous, so every distance up to the largest occurs
        return dict(enumerate(np.bincount(self.distance).tolist()))

    def _position_of(self, e: SignedPermElement) -> int:
        """BFS position of an element of degree n, found through its rank;
        an element of another degree is not in the catalog."""
        images = e.sigma.images
        n = self.n
        if len(images) != n:
            raise ValueError(f"element not in catalog: {format_element(e)}")
        lehmer = 0
        for i, v in enumerate(images):
            lehmer = lehmer * (n - i) + sum(w < v for w in images[i + 1 :])
        return int(self.position[lehmer * (n + 1) + (e.h if e.eps else 0)])


def _check_n(n: int) -> None:
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"n must be in 1..{ENUMERATION_MAX_N}, got {n}")


@lru_cache(maxsize=8)
def _permutations(n: int) -> np.ndarray:
    """The permutations of 1..n in lexicographic order, one per row, so row s
    is the permutation of Lehmer rank s."""
    perms = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    perms.setflags(write=False)  # cached: shared by every caller
    return perms


def left_tables(n: int) -> np.ndarray:
    """The n left-multiplication tables, shape (n, (n+1)!): entry [j-1, r] is
    the rank of K(j) * e for the element e of rank r.

    With tau = e.sigma, K(j) * (tau, h, eps) is (tau, j, 1) when eps = 0,
    (tau, 1, 0) when h = j, and otherwise tau with its entries at j and h
    swapped, with pivot h. The Lehmer rank of a swapped tau is found by
    binary search, since the permutations read as base-(n+1) numbers
    ascend in lexicographic order.
    """
    perms = _permutations(n)
    place = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = perms @ place
    flag_free = np.arange(len(perms), dtype=np.int32) * (n + 1)
    tables = np.empty((n, len(perms), n + 1), dtype=np.int32)
    for j in range(1, n + 1):
        tables[j - 1, :, 0] = flag_free + j
        tables[j - 1, :, j] = flag_free
        for h in range(1, n + 1):
            if h != j:
                swap = (perms[:, h - 1] - perms[:, j - 1]) * (place[j - 1] - place[h - 1])
                tables[j - 1, :, h] = np.searchsorted(keys, keys + swap) * (n + 1) + h
    return tables.reshape(n, -1)


def _level_bfs(
    tables: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first search from rank 0 (the identity) over the tables, one
    level at a time, in the order a queue would visit: candidates are taken
    frontier-major and generator-minor, and the first occurrence of a new
    rank fixes its parent and its place in the next frontier.

    Returns, per BFS position, the rank, the distance, the parent's position
    and the generator j with element = K(j) * parent (parent -1 and j 0 at
    the identity), and per rank its BFS position (-1 if never reached).
    """
    n, size = tables.shape
    position = np.full(size, -1, dtype=np.int32)
    order = np.zeros(size, dtype=np.int32)
    distance = np.zeros(size, dtype=np.int32)
    parent = np.full(size, -1, dtype=np.int32)
    via = np.zeros(size, dtype=np.int32)
    claim = np.empty(size, dtype=np.intp)
    position[0] = 0
    start, count, level = 0, 1, 0
    while start < count:
        frontier = order[start:count]
        candidates = tables[:, frontier].T.ravel()
        fresh = np.flatnonzero(position[candidates] < 0)
        # claim[r] ends as the least index at which the new rank r occurs, so
        # the candidates that keep their claim are the first occurrences
        new, steps = candidates[fresh], np.arange(len(fresh))
        claim[new] = len(new)
        np.minimum.at(claim, new, steps)
        picked = fresh[claim[new] == steps]
        stop = count + len(picked)
        order[count:stop] = candidates[picked]
        position[order[count:stop]] = np.arange(count, stop, dtype=np.int32)
        distance[count:stop] = level + 1
        parent[count:stop] = start + picked // n
        via[count:stop] = picked % n + 1
        start, count, level = count, stop, level + 1
    return order[:count], distance[:count], parent[:count], via[:count], position


def enumerate_group(n: int) -> GroupCatalog:
    """Breadth-first closure under left multiplication by the generators."""
    _check_n(n)
    tables = left_tables(n)
    cat = GroupCatalog(n, *_level_bfs(tables), tables)
    if len(cat) != factorial(n + 1):
        raise ConsistencyError(
            f"enumeration found {len(cat)} elements, expected {factorial(n + 1)}"
        )
    # ``catalog`` hands the same arrays to every caller
    for array in (tables, cat.rank, cat.distance, cat.parent, cat.via, cat.position):
        array.flags.writeable = False
    return cat


@lru_cache(maxsize=None)
def catalog(n: int) -> GroupCatalog:
    """Cached catalog; catalogs are immutable once built."""
    return enumerate_group(n)


def psi_table(n: int) -> np.ndarray:
    """psi over all ranks, shape ((n+1)!, n+1), int8: row r holds the images
    of 1..n+1 under psi of the element of rank r."""
    _check_n(n)
    perms = _permutations(n)
    table = np.empty((len(perms), n + 1, n + 1), dtype=np.int8)
    table[:, :, 0] = 1
    table[:, :, 1:] = perms[:, None, :] + 1
    for h in range(1, n + 1):
        table[:, h, 0] = perms[:, h - 1] + 1
        table[:, h, h] = 1
    return table.reshape(-1, n + 1)


def order_spectrum(cat: GroupCatalog) -> dict[int, int]:
    """Multiplicative order of every element, as a {order: count} map; psi is
    an isomorphism, so e has the order of the permutation psi(e), the least
    k with psi(e)^k the identity, found by raising every table row at once."""
    table = psi_table(cat.n) - 1
    identity = np.arange(cat.n + 1)
    order = np.zeros(len(table), dtype=np.int64)
    power, k = table, 1
    while True:
        order[(order == 0) & (power == identity).all(axis=1)] = k
        if order.all():
            values, counts = np.unique(order, return_counts=True)
            return dict(zip(values.tolist(), counts.tolist()))
        power = np.take_along_axis(table, power, axis=1)
        k += 1


def psi(e: SignedPermElement, n: int) -> Permutation:
    """Image in the symmetric group of degree n+1, read off (sigma, h, eps)."""
    if e.degree != n:
        raise ValueError(f"element degree {e.degree} does not match n={n}")
    images = [1] + [v + 1 for v in e.sigma.images]
    if e.eps == 1:
        images[0], images[e.h] = images[e.h], 1
    return Permutation(tuple(images))


@dataclass(frozen=True)
class IsoWitness:
    """Verified bijective homomorphism onto the symmetric group: ``size`` is
    the count of distinct psi rows checked. The maps ``forward`` (element to
    image) and ``backward`` are decoded from ``catalog(n)`` and
    ``psi_table(n)`` when first read."""

    n: int
    size: int

    @cached_property
    def forward(self) -> dict[SignedPermElement, Permutation]:
        cat = catalog(self.n)
        images = map(Permutation._trusted, zip(*psi_table(self.n)[cat.rank].T.tolist()))
        return dict(zip(cat.elements, images))

    @cached_property
    def backward(self) -> dict[Permutation, SignedPermElement]:
        return {p: e for e, p in self.forward.items()}


def verify_isomorphism(n: int) -> IsoWitness:
    """Check that the generator map extends to an isomorphism.

    Verifies on the psi table that psi fixes the identity, sends each K(j)
    to (1, j+1), is injective (the rows read as base-(n+2) numbers are
    distinct), and satisfies psi(K(j) * e) = psi(K(j)) then psi(e) for every
    generator and element: the row of K(j) * e is the row of e with its
    first and (j+1)-th entries exchanged. Every element is a word
    K(j1)...K(jd), so by induction on d the last check gives
    psi(a * b) = psi(a) then psi(b) for every pair. The checks run on arrays
    alone (the left tables are the catalog's); no element is decoded unless
    one fails or the witness's maps are read.
    """
    cat = catalog(n)
    table = psi_table(n)
    identity = np.arange(1, n + 2)
    if not np.array_equal(table[0], identity):
        raise ConsistencyError("psi does not fix the identity")
    # swaps[j] exchanges the first and the (j+1)-th entry
    swaps = {j: np.r_[j, 1:j, 0, j + 1 : n + 1] for j in range(1, n + 1)}
    for j in swaps:
        # K(j) is (identity, j, 1), of rank j
        if not np.array_equal(table[j], identity[swaps[j]]):
            raise ConsistencyError(f"psi(K({j})) is not (1, {j + 1})")
    keys = table.astype(np.int64) @ (n + 2) ** np.arange(n + 1, dtype=np.int64)
    size = len(np.unique(keys))
    if size != factorial(n + 1):
        raise ConsistencyError("image map is not injective")
    for j, products in enumerate(cat.tables, start=1):
        wrong = (table[products] != table[:, swaps[j]]).any(axis=1)[cat.rank]
        if wrong.any():
            e = cat.elements[int(np.argmax(wrong))]
            raise ConsistencyError(
                f"homomorphism fails at {format_element(generator(n, j))} * {format_element(e)}"
            )
    return IsoWitness(n, size)


def full_cycle_order_via_sym(n: int) -> int:
    """Order of (1,2)(1,3)...(1,n+1), with transpositions acting left to
    right; cross-checked against the matrix order of the full-cycle product.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pi = Permutation.identity(n + 1)
    for j in range(1, n + 1):
        pi = pi.then(Permutation.transposition(n + 1, 1, j + 1))
    order = pi.order()
    mat_order = matrix_order(full_cycle_matrix(n, "up"), limit=order + 1)
    if mat_order != order:
        raise ConsistencyError(
            f"symmetric-group order {order} != matrix order {mat_order}"
        )
    return order


def catalog_chunks(cat: GroupCatalog) -> Iterator[str]:
    """``json.dumps(catalog_json(cat), indent=2)`` in chunks: the header, one
    chunk per run of at most ``_RUN`` element records in BFS order, then the
    closing brackets.

    Every sigma, h, eps, word and psi entry is one digit (n + 1 <= 9), and
    the records of a BFS level share their distance and word length, so they
    share one layout: the level's template, the record with a NUL byte in
    each digit slot. A level goes out in runs of at most ``_RUN`` records:
    the template is repeated as the rows of a uint8 matrix, the digit slots
    of each run are written from arrays, and the run is decoded once and
    handed out as one chunk. Each word is the generator that
    reached the element followed by its parent's word, kept as a uint8
    matrix from the level before.
    """
    n, sep, zero = cat.n, ",\n        ", ord("0")
    if n + 1 > 9:
        raise ConsistencyError(f"a catalog export lays out one-digit entries, so n <= 8, got {n}")
    yield (
        f'{{\n  "schema_version": 1,\n  "kind": "group-catalog",\n  "n": {n},\n'
        f'  "order": {len(cat)},\n  "elements": [\n'
    )
    lehmer, pivot = np.divmod(cat.rank, n + 1)
    # per BFS position, the digits of sigma, h and eps, and of psi
    head = np.column_stack((_permutations(n)[lehmer], np.maximum(pivot, 1), pivot > 0))
    head = (head + zero).astype(np.uint8)
    images = (psi_table(n)[cat.rank] + zero).astype(np.uint8)
    letters = (cat.via + zero).astype(np.uint8)
    slot = "\0"
    sigma, text, images_line = sep.join(slot * n), ",".join(slot * n), sep.join(slot * (n + 1))
    words, first, start = np.empty((1, 0), dtype=np.uint8), 0, 0
    for distance, stop in enumerate(np.cumsum(np.bincount(cat.distance)).tolist()):
        level = slice(start, stop)
        if distance:
            words = np.column_stack((letters[level], words[cat.parent[level] - first]))
        word = f"[\n        {sep.join(slot * distance)}\n      ]" if distance else "[]"
        # the identity is the one record at distance 0, and the first
        lead = ",\n" if distance else ""
        template = np.frombuffer(
            f'{lead}    {{\n      "sigma": [\n        {sigma}\n      ],\n      "h": {slot},\n'
            f'      "eps": {slot},\n      "text": "M(sigma=[{text}];h={slot};eps={slot})",\n'
            f'      "distance": {distance},\n      "word": {word},\n      "psi": [\n'
            f"        {images_line}\n      ]\n    }}".encode(),
            dtype=np.uint8,
        )
        digits = np.column_stack((head[level], head[level], words, images[level]))
        rows = np.tile(template, (min(stop - start, _RUN), 1))
        slots = np.flatnonzero(template == 0)
        for offset in range(0, stop - start, _RUN):
            run = digits[offset : offset + _RUN]
            rows[: len(run), slots] = run
            yield str(rows[: len(run)], "ascii")
        first, start = start, stop
    yield "\n  ]\n}"


def catalog_json(cat: GroupCatalog) -> dict:
    """JSON-ready export: every element with distance, word and image."""
    return json.loads("".join(catalog_chunks(cat)))
