"""Exact integer matrix algebra for the alternating-involution generators.

The generator ``K(j)`` is the identity matrix with row ``j`` replaced by the
alternating row ``r(j) = ((-1)^j, (-1)^(j+1), ..., (-1)^(j+n-1))``.  All
arithmetic here is exact; entries are Python ints, products are checked
against the signed 64-bit range and equality is entry-wise, with no
tolerances anywhere.

Products are taken with numpy under one bound, written once in
``_product_dtype``: every entry of an n x n product, and every partial sum
on the way to it, is a sum of n terms of size at most max|a| * max|b|, so
when n * max(max|a|, 1) * max(max|b|, 1) <= 2^63 - 1 the product runs in
int64 and cannot wrap; beyond it the product runs in Python ints
(``dtype=object``) and raises ``OverflowError`` where an entry leaves the
signed 64-bit range.  ``mat_mul`` multiplies two matrices and
``stack_mul`` two (k, n, n) stacks of them (``stack``) in one product;
``k_word_products`` multiplies many generator words at once, one stacked
product per word position, and ``k_word_product`` is its one-word case.

Indices on the public surface are 1-based (matching the usual notation for
the generators); storage is 0-based internally.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

INT64_MAX = 2**63 - 1


class UnitEntryError(ArithmeticError):
    """A product of generators produced an entry outside {-1, 0, 1}."""

    def __init__(self, message: str = "group element has an entry outside {-1, 0, 1}"):
        super().__init__(message)


def sign_pow(exponent: int) -> int:
    """(-1)**exponent without floating point."""
    return -1 if exponent & 1 else 1


def _check_dim(n: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")


def _check_index(n: int, j: int) -> None:
    _check_dim(n)
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range 1..{n}")


def alternating_row(n: int, j: int) -> tuple[int, ...]:
    """The +/-1 row of length ``n`` starting with (-1)^j at column 1."""
    _check_index(n, j)
    return tuple(sign_pow(j + k) for k in range(n))


@dataclass(frozen=True)
class SmallIntMatrix:
    """Dense n x n integer matrix, row-major, immutable and hashable.

    Every entry is a Python ``int``: a numpy integer would wrap silently in
    arithmetic and a float would be truncated, so both are refused here
    (``from_rows`` converts numpy integers exactly).
    """

    n: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if len(self.entries) != self.n * self.n:
            raise ValueError(
                f"expected {self.n * self.n} entries, got {len(self.entries)}"
            )
        if set(map(type, self.entries)) != {int}:
            raise TypeError("matrix entries must be Python ints")

    @classmethod
    def _of_ints(cls, n: int, entries: tuple[int, ...]) -> "SmallIntMatrix":
        """A matrix of n * n entries known to be Python ints, as ``tolist()``
        returns them, built without the checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SmallIntMatrix":
        n = len(rows)
        flat: list[int] = []
        for row in rows:
            if len(row) != n:
                raise ValueError("rows must form a square matrix")
            flat.extend(map(operator.index, row))
        return cls(n, tuple(flat))

    def row(self, row: int) -> tuple[int, ...]:
        _check_index(self.n, row)
        start = (row - 1) * self.n
        return self.entries[start : start + self.n]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(i) for i in range(1, self.n + 1))

    def max_abs(self) -> int:
        return max(max(self.entries), -min(self.entries))

    def is_identity(self) -> bool:
        return self == identity_matrix(self.n)

    def __str__(self) -> str:
        return "\n".join(" ".join(f"{v:3d}" for v in row) for row in self.rows())


def identity_matrix(n: int) -> SmallIntMatrix:
    _check_dim(n)
    return SmallIntMatrix(
        n, tuple(1 if i == j else 0 for i in range(n) for j in range(n))
    )


def pivot_outer(n: int, j: int) -> SmallIntMatrix:
    """Rank-one matrix e_j r_j: the zero matrix with row j set to r_j."""
    entries = [0] * (n * n)
    entries[(j - 1) * n : j * n] = alternating_row(n, j)
    return SmallIntMatrix(n, tuple(entries))


def make_k(n: int, j: int) -> SmallIntMatrix:
    """Generator K(j): identity with row j replaced by the alternating row."""
    _check_index(n, j)
    entries = [0] * (n * n)
    entries[:: n + 1] = [1] * n
    entries[(j - 1) * n : j * n] = alternating_row(n, j)
    return SmallIntMatrix(n, tuple(entries))


def _product_dtype(n: int, max_a: int, max_b: int) -> type:
    """The dtype in which a product of n x n factors with the given largest
    magnitudes is exact: int64 when n * max(max_a, 1) * max(max_b, 1) is at
    most 2^63 - 1, so that no entry or partial sum can wrap, and Python ints
    (``object``) otherwise.  The max with 1 keeps a zero factor whose partner
    lies beyond int64 off the int64 path."""
    return np.int64 if n * max(max_a, 1) * max(max_b, 1) <= INT64_MAX else object


def _checked(product: np.ndarray) -> np.ndarray:
    """A product computed in ``_product_dtype``; OverflowError when one of
    its Python-int entries leaves the signed 64-bit range."""
    if product.dtype == object and product.size and _array_max_abs(product) > INT64_MAX:
        raise OverflowError("matrix product exceeds 64-bit range")
    return product


def _array_max_abs(x: np.ndarray) -> int:
    # max(max, -min) rather than abs(): abs wraps at -2^63 in int64
    return max(int(x.max()), -int(x.min())) if x.size else 0


def mat_mul(a: SmallIntMatrix, b: SmallIntMatrix) -> SmallIntMatrix:
    """Exact product; raises OverflowError past the signed 64-bit range."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    dtype = _product_dtype(n, a.max_abs(), b.max_abs())
    x = np.fromiter(a.entries, dtype, n * n).reshape(n, n)
    y = np.fromiter(b.entries, dtype, n * n).reshape(n, n)
    return SmallIntMatrix._of_ints(n, tuple(_checked(x @ y).ravel().tolist()))


def stack(n: int, matrices: Sequence[SmallIntMatrix]) -> np.ndarray:
    """The n x n matrices as one (k, n, n) array: int64 when every entry lies
    within +-(2^63 - 1), Python ints (``dtype=object``) otherwise."""
    _check_dim(n)
    if any(m.n != n for m in matrices):
        raise ValueError(f"dimension mismatch: expected {n} x {n} matrices")
    wide = max((m.max_abs() for m in matrices), default=0) > INT64_MAX
    entries = [m.entries for m in matrices]
    return np.array(entries, object if wide else np.int64).reshape(len(matrices), n, n)


def stack_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact products a @ b of stacks of n x n matrices, as int64.

    The stacks broadcast as in ``np.matmul``.  The whole family is taken in
    one product, in the dtype that ``mat_mul`` would pick for the stacks'
    largest entries; so it raises OverflowError exactly when ``mat_mul``
    raises on one of its pairs.
    """
    n = a.shape[-1]
    if a.shape[-2:] != (n, n) or b.shape[-2:] != (n, n):
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    dtype = _product_dtype(n, _array_max_abs(a), _array_max_abs(b))
    product = _checked(a.astype(dtype, copy=False) @ b.astype(dtype, copy=False))
    return product.astype(np.int64, copy=False)


def mat_pow(a: SmallIntMatrix, k: int) -> SmallIntMatrix:
    if k < 0:
        raise ValueError("negative powers are not supported")
    acc = identity_matrix(a.n)
    for _ in range(k):
        acc = mat_mul(acc, a)
    return acc


def matrix_order(m: SmallIntMatrix, limit: int = 10_000) -> int:
    """Smallest k >= 1 with m^k = Id; ValueError if none up to ``limit``."""
    acc = m
    for k in range(1, limit + 1):
        if acc.is_identity():
            return k
        acc = mat_mul(acc, m)
    raise ValueError(f"no multiplicative order found up to {limit}")


def assert_unit_entries(m: SmallIntMatrix) -> SmallIntMatrix:
    """Enforce the group invariant that entries stay in {-1, 0, 1}."""
    if m.max_abs() > 1:
        raise UnitEntryError()
    return m


def k_word_products(
    n: int, words: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force products K(j1) K(j2) ... of many words at once.

    Step s multiplies the running products of all words longer than s by
    their s-th generators in one stacked product.  Returns the (k, n, n)
    int64 products and a mask over the words that is False where a running
    product left the unit entries {-1, 0, 1}: such a word is multiplied no
    further and its slot holds no product.  These are the oracle against
    which every closed-form product is checked.
    """
    _check_dim(n)
    used = sorted({operator.index(j) for word in words for j in word})
    generators = stack(n, [make_k(n, j) for j in used])
    slot = {j: i for i, j in enumerate(used)}
    lengths = np.array([len(word) for word in words], dtype=np.intp)
    steps = int(lengths.max(initial=0))
    table = np.array(
        [[slot[j] for j in word] + [0] * (steps - len(word)) for word in words], np.intp
    ).reshape(len(words), steps)
    products = np.zeros((len(words), n, n), np.int64)
    products[:, range(n), range(n)] = 1
    unit = np.ones(len(words), dtype=bool)
    for s in range(steps):
        live = np.flatnonzero(unit & (lengths > s))
        step = stack_mul(products[live], generators[table[live, s]])
        products[live] = step
        unit[live] = (np.abs(step) <= 1).all(axis=(1, 2))
    return products, unit


def k_word_product(n: int, js: Sequence[int]) -> SmallIntMatrix:
    """Brute-force product K(j1) K(j2) ...: the one-word ``k_word_products``.

    The unit-entry invariant is asserted after each step.
    """
    products, unit = k_word_products(n, [js])
    if not unit[0]:
        raise UnitEntryError()
    return SmallIntMatrix(n, tuple(products[0].ravel().tolist()))


def product_closed_form(n: int, js: Sequence[int]) -> SmallIntMatrix:
    """Product of distinct generators built directly, with no multiplication.

    For a tuple (j1, ..., js) of distinct indices: zero out the diagonal at
    every listed index, put (-1)^(j+l) at position (j, l) for each adjacent
    pair (j, l), and replace row js with the alternating row r(js).
    """
    _check_dim(n)
    js = tuple(map(operator.index, js))
    if not 1 <= len(js) <= n:
        raise ValueError(f"tuple length must be in 1..{n}, got {len(js)}")
    for j in js:
        _check_index(n, j)
    if len(set(js)) != len(js):
        raise ValueError("indices must be distinct")

    entries = [0] * (n * n)
    entries[:: n + 1] = [1] * n
    for j in js:
        entries[(j - 1) * (n + 1)] = 0
    for j, ell in zip(js, js[1:]):
        entries[(j - 1) * n + ell - 1] += sign_pow(j + ell)
    start = (js[-1] - 1) * n
    for k, v in enumerate(alternating_row(n, js[-1])):
        entries[start + k] += v
    return assert_unit_entries(SmallIntMatrix(n, tuple(entries)))


def full_cycle_matrix(
    n: int, direction: Literal["up", "down"] = "down"
) -> SmallIntMatrix:
    """K(n)...K(1) for ``down`` or K(1)...K(n) for ``up``.

    Either product has multiplicative order exactly n + 1.
    """
    _check_dim(n)
    if direction == "down":
        js: Iterable[int] = range(n, 0, -1)
    elif direction == "up":
        js = range(1, n + 1)
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return product_closed_form(n, tuple(js))

