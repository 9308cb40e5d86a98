"""Enumeration of the full group, Cayley distances, cosets and the
isomorphism with the symmetric group of degree n + 1.

Elements are coded as integers: (sigma, h, eps) has the rank
lehmer(sigma) * (n+1) + (h if eps else 0), where the Lehmer rank of sigma is
its index in lexicographic order (Knuth, TAOCP 4A, 7.2.1.2). Left
multiplication by K(j) has a closed form on (sigma, h, eps), so the n
left-multiplication tables over all (n+1)! ranks are built with array
operations (``left_tables``). The catalog is the breadth-first closure of
the identity under these tables, run one level at a time in the order a
queue would visit, so an element found via parent p and generator j
satisfies e = K(j) * p; reading the parent chain from the element up to the
identity yields its word as a product taken left to right.

The isomorphism psi, the permutation e applies to the star coordinates of
``aughts.orbits``, is read off (sigma, h, eps): psi(j+1) = sigma(j)+1 and
psi(1) = 1, except that eps = 1 sets psi(1) = sigma(h)+1 and psi(h+1) = 1.
K(j) maps to (1, j+1), so the Cayley graph is the star graph ST_(n+1)
(Akers & Krishnamurthy, IEEE Trans. Computers, 1989). ``verify_isomorphism``
checks the homomorphism law on generators only: given psi(id) = id and
psi(K(j) * e) = psi(K(j)) then psi(e) for every j and e, induction on the
word length of a = K(j1)...K(jd) gives psi(a * b) = psi(a) then psi(b) for
every pair, since the product is associative (it is the matrix product).
That is n (n+1)! products instead of ((n+1)!)^2.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from aughts.intmat import full_cycle_matrix, matrix_order
from aughts.signed_perm import (
    Permutation,
    SignedPermElement,
    format_element,
    generator,
    identity_element,
    msih_mul,
)

ENUMERATION_MAX_N = 7


class ConsistencyError(RuntimeError):
    """An internal structural check failed; this must never fire."""


def _gen_transposition(n: int, j: int) -> Permutation:
    """Image of the generator K(j) in the symmetric group of degree n+1."""
    return Permutation.transposition(n + 1, 1, j + 1)


@dataclass
class GroupCatalog:
    """All (n+1)! group elements with BFS distances and parent links."""

    n: int
    elements: list[SignedPermElement]
    index: dict[SignedPermElement, int]
    distance: list[int]
    parent: list[tuple[int, int] | None]

    def __len__(self) -> int:
        return len(self.elements)

    def distance_of(self, e: SignedPermElement) -> int:
        return self.distance[self._index_of(e)]

    def word(self, e: SignedPermElement) -> tuple[int, ...]:
        """Generator word (j1, ..., jd) with e = K(j1) K(j2) ... K(jd)."""
        i = self._index_of(e)
        out: list[int] = []
        while self.parent[i] is not None:
            i_parent, j = self.parent[i]
            out.append(j)
            i = i_parent
        return tuple(out)

    def psi_image(self, e: SignedPermElement) -> Permutation:
        """Image in the symmetric group of degree n+1, K(j) -> (1, j+1)."""
        return psi(e, self.n)

    def distance_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(self.distance).items()))

    def _index_of(self, e: SignedPermElement) -> int:
        idx = self.index.get(e)
        if idx is None:
            raise ValueError(f"element not in catalog: {format_element(e)}")
        return idx


def left_tables(n: int) -> np.ndarray:
    """The n left-multiplication tables, shape (n, (n+1)!): entry [j-1, r] is
    the rank of K(j) * e for the element e of rank r.

    With tau = e.sigma, K(j) * (tau, h, eps) is (tau, j, 1) when eps = 0,
    (tau, 1, 0) when h = j, and otherwise tau with its entries at j and h
    swapped, with pivot h. The Lehmer rank of a swapped tau is found by
    binary search, since the permutations read as base-(n+1) numbers
    ascend in lexicographic order.
    """
    perms = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
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


def _level_bfs(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first search from rank 0 (the identity) over the tables, one
    level at a time, in the order a queue would visit: candidates are taken
    frontier-major and generator-minor, and the first occurrence of a new
    rank fixes its parent and its place in the next frontier.

    Returns, per BFS position, the rank, the distance, the parent's position
    and the generator j with element = K(j) * parent (parent -1 and j 0 at
    the identity).
    """
    n, size = tables.shape
    position = np.full(size, -1, dtype=np.int32)
    order = np.zeros(size, dtype=np.int32)
    distance = np.zeros(size, dtype=np.int32)
    parent = np.full(size, -1, dtype=np.int32)
    via = np.zeros(size, dtype=np.int32)
    position[0] = 0
    start, count, level = 0, 1, 0
    while start < count:
        frontier = order[start:count]
        candidates = tables[:, frontier].T.ravel()
        fresh = np.flatnonzero(position[candidates] < 0)
        _, first = np.unique(candidates[fresh], return_index=True)
        picked = fresh[np.sort(first)]
        stop = count + len(picked)
        order[count:stop] = candidates[picked]
        position[order[count:stop]] = np.arange(count, stop, dtype=np.int32)
        distance[count:stop] = level + 1
        parent[count:stop] = start + picked // n
        via[count:stop] = picked % n + 1
        start, count, level = count, stop, level + 1
    return order[:count], distance[:count], parent[:count], via[:count]


def enumerate_group(n: int) -> GroupCatalog:
    """Breadth-first closure under left multiplication by the generators."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"n must be in 1..{ENUMERATION_MAX_N}, got {n}")
    order, distance, parent, via = _level_bfs(left_tables(n))
    if len(order) != factorial(n + 1):
        raise ConsistencyError(
            f"enumeration found {len(order)} elements, expected {factorial(n + 1)}"
        )
    sigmas = [Permutation(p) for p in permutations(range(1, n + 1))]
    lehmer, pivot = np.divmod(order, n + 1)
    elements = [
        SignedPermElement(sigmas[s], h or 1, 1 if h else 0)
        for s, h in zip(lehmer.tolist(), pivot.tolist())
    ]
    links: list[tuple[int, int] | None] = [None]
    links += zip(parent[1:].tolist(), via[1:].tolist())
    return GroupCatalog(
        n, elements, dict(zip(elements, range(len(elements)))), distance.tolist(), links
    )


@lru_cache(maxsize=None)
def catalog(n: int) -> GroupCatalog:
    """Cached catalog; catalogs are immutable once built."""
    return enumerate_group(n)


def order_spectrum(cat: GroupCatalog) -> dict[int, int]:
    """Multiplicative order of every element, as a {order: count} map; psi is
    an isomorphism, so e has the order of the permutation psi(e)."""
    return dict(sorted(Counter(psi(e, cat.n).order() for e in cat.elements).items()))


def coset_decomposition(cat: GroupCatalog) -> dict[int, list[SignedPermElement]]:
    """Partition into the flag-free subgroup (key 0) and its left cosets.

    Left-multiplying the flag-free subgroup by K(j) pins the pivot to j, so
    the coset of a flagged element is read off its pivot; each block has n!
    elements.
    """
    blocks: dict[int, list[SignedPermElement]] = {j: [] for j in range(cat.n + 1)}
    for e in cat.elements:
        blocks[e.h if e.eps == 1 else 0].append(e)
    expected = factorial(cat.n)
    for key, block in blocks.items():
        if len(block) != expected:
            raise ConsistencyError(f"coset block {key} has size {len(block)}")
    return blocks


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
    """Verified bijective homomorphism onto the symmetric group."""

    n: int
    forward: dict[SignedPermElement, Permutation]
    backward: dict[Permutation, SignedPermElement]


def verify_isomorphism(n: int) -> IsoWitness:
    """Check that the generator map extends to an isomorphism.

    Verifies that psi fixes the identity, sends each K(j) to (1, j+1), is
    bijective onto all (n+1)! permutations, and satisfies
    psi(K(j) * e) = psi(K(j)) then psi(e) for every generator and element.
    Every element is a word K(j1)...K(jd), so by induction on d the last
    check gives psi(a * b) = psi(a) then psi(b) for every pair.
    """
    cat = catalog(n)
    forward = {e: psi(e, n) for e in cat.elements}
    if forward[identity_element(n)] != Permutation.identity(n + 1):
        raise ConsistencyError("psi does not fix the identity")
    for j in range(1, n + 1):
        if forward[generator(n, j)] != _gen_transposition(n, j):
            raise ConsistencyError(f"psi(K({j})) is not (1, {j + 1})")
    backward = {p: e for e, p in forward.items()}
    if len(backward) != factorial(n + 1):
        raise ConsistencyError("image map is not injective")
    for j in range(1, n + 1):
        g = generator(n, j)
        fg = forward[g]
        for e in cat.elements:
            if forward[msih_mul(g, e)] != fg.then(forward[e]):
                raise ConsistencyError(
                    f"homomorphism fails at {format_element(g)} * {format_element(e)}"
                )
    return IsoWitness(n, forward, backward)


def full_cycle_order_via_sym(n: int) -> int:
    """Order of (1,2)(1,3)...(1,n+1), with transpositions acting left to
    right; cross-checked against the matrix order of the full-cycle product.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pi = Permutation.identity(n + 1)
    for j in range(1, n + 1):
        pi = pi.then(_gen_transposition(n, j))
    order = pi.order()
    mat_order = matrix_order(full_cycle_matrix(n, "up"), limit=order + 1)
    if mat_order != order:
        raise ConsistencyError(
            f"symmetric-group order {order} != matrix order {mat_order}"
        )
    return order


def catalog_header(cat: GroupCatalog) -> dict:
    """The fields of ``catalog_json`` that precede its element records."""
    return {"schema_version": 1, "kind": "group-catalog", "n": cat.n, "order": len(cat)}


def catalog_records(cat: GroupCatalog) -> Iterator[dict]:
    """One JSON-ready record per element, in BFS order: distance, word and
    image. A parent precedes its children in BFS order, so each word is the
    generator that reached the element followed by its parent's word."""
    words: list[tuple[int, ...]] = []
    for e, distance, link in zip(cat.elements, cat.distance, cat.parent):
        word = () if link is None else (link[1],) + words[link[0]]
        words.append(word)
        yield {
            "sigma": list(e.sigma.images),
            "h": e.h,
            "eps": e.eps,
            "text": format_element(e),
            "distance": distance,
            "word": list(word),
            "psi": list(psi(e, cat.n).images),
        }


def catalog_json(cat: GroupCatalog) -> dict:
    """JSON-ready export: every element with distance, word and image."""
    return {**catalog_header(cat), "elements": list(catalog_records(cat))}
