"""Enumeration of the full group, Cayley distances, cosets and the
isomorphism with the symmetric group of degree n + 1.

The catalog is built by breadth-first closure under LEFT multiplication by
the generators, so an element found via parent p and generator j satisfies
e = K(j) * p; reading the parent chain from the element up to the identity
yields its word as a product taken left to right.

The isomorphism psi, the permutation e applies to the star coordinates of
``aughts.orbits``, is read off (sigma, h, eps): psi(j+1) = sigma(j)+1 and
psi(1) = 1, except that eps = 1 sets psi(1) = sigma(h)+1 and psi(h+1) = 1.
K(j) maps to (1, j+1), so the Cayley graph is the star graph ST_(n+1)
(Akers & Krishnamurthy, IEEE Trans. Computers, 1989).
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from aughts.intmat import full_cycle_matrix, matrix_order
from aughts.signed_perm import (
    Permutation,
    SignedPermElement,
    element_order,
    format_element,
    generator,
    identity_element,
    msih_mul,
)

ENUMERATION_MAX_N = 7
ISOMORPHISM_MAX_N = 5


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


def enumerate_group(n: int) -> GroupCatalog:
    """Breadth-first closure under left multiplication by the generators."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"n must be in 1..{ENUMERATION_MAX_N}, got {n}")
    gens = [generator(n, j) for j in range(1, n + 1)]
    start = identity_element(n)
    elements = [start]
    index = {start: 0}
    distance = [0]
    parent: list[tuple[int, int] | None] = [None]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        current = elements[i]
        for j, g in enumerate(gens, start=1):
            nxt = msih_mul(g, current)
            if nxt not in index:
                index[nxt] = len(elements)
                elements.append(nxt)
                distance.append(distance[i] + 1)
                parent.append((i, j))
                queue.append(index[nxt])
    if len(elements) != factorial(n + 1):
        raise ConsistencyError(
            f"enumeration found {len(elements)} elements, expected {factorial(n + 1)}"
        )
    return GroupCatalog(n, elements, index, distance, parent)


@lru_cache(maxsize=None)
def catalog(n: int) -> GroupCatalog:
    """Cached catalog; catalogs are immutable once built."""
    return enumerate_group(n)


def order_spectrum(cat: GroupCatalog) -> dict[int, int]:
    """Multiplicative order of every element, as a {order: count} map."""
    return dict(sorted(Counter(element_order(e) for e in cat.elements).items()))


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

    Verifies that psi sends each K(j) to (1, j+1), is bijective onto all
    (n+1)! permutations, and is multiplicative on every pair of elements.
    """
    if not 1 <= n <= ISOMORPHISM_MAX_N:
        raise ValueError(f"n must be in 1..{ISOMORPHISM_MAX_N}, got {n}")
    cat = catalog(n)
    forward = {e: psi(e, n) for e in cat.elements}
    for j in range(1, n + 1):
        if forward[generator(n, j)] != _gen_transposition(n, j):
            raise ConsistencyError(f"psi(K({j})) is not (1, {j + 1})")
    backward = {p: e for e, p in forward.items()}
    if len(backward) != factorial(n + 1):
        raise ConsistencyError("image map is not injective")
    for a in cat.elements:
        fa = forward[a]
        for b in cat.elements:
            if forward[msih_mul(a, b)] != fa.then(forward[b]):
                raise ConsistencyError(
                    f"homomorphism fails at {format_element(a)} * {format_element(b)}"
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


def embed_element(e: SignedPermElement) -> SignedPermElement:
    """Embed an element one dimension up by padding with a fixed point."""
    images = e.sigma.images + (e.degree + 1,)
    return SignedPermElement.of(Permutation.of(images), e.h, e.eps)


def random_word_element(
    n: int, rng: random.Random, max_len: int = 12
) -> tuple[SignedPermElement, tuple[int, ...]]:
    """Random generator word and the element it evaluates to."""
    length = rng.randint(0, max_len)
    word = tuple(rng.randint(1, n) for _ in range(length))
    acc = identity_element(n)
    for j in word:
        acc = msih_mul(acc, generator(n, j))
    return acc, word


def psi_of_word(n: int, word: tuple[int, ...]) -> Permutation:
    """Evaluate the generator map along an arbitrary word (left to right)."""
    acc = Permutation.identity(n + 1)
    for j in word:
        acc = acc.then(_gen_transposition(n, j))
    return acc


def catalog_json(cat: GroupCatalog) -> dict:
    """JSON-ready export: every element with distance, word and image."""
    records = []
    for e in cat.elements:
        records.append(
            {
                "sigma": list(e.sigma.images),
                "h": e.h,
                "eps": e.eps,
                "text": format_element(e),
                "distance": cat.distance_of(e),
                "word": list(cat.word(e)),
                "psi": list(cat.psi_image(e).images),
            }
        )
    return {
        "schema_version": 1,
        "kind": "group-catalog",
        "n": cat.n,
        "order": len(cat),
        "elements": records,
    }
