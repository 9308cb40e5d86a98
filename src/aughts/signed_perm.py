"""Symbolic form of group elements as signed-permutation-like matrices.

Every element of the group generated by the alternating involutions is a
matrix with exactly one entry (-1)^(j+k) per row at column sigma(j), except
that when the flag ``eps`` is set, the pivot row ``h`` carries the full
alternating row instead.  An element is therefore named by the triple
(sigma, h, eps), and multiplication/inversion close over that format, so the
group can be handled without any matrix arithmetic.  The matrix product is
the oracle that pins the composition convention: in a product a*b the
permutation of ``a`` acts first.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from aughts.intmat import SmallIntMatrix, alternating_row, sign_pow


class NotGroupElementError(ValueError):
    """The matrix is not of either recognized signed-permutation shape."""


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n}; ``images[j-1]`` is the image of j.

    The constructor converts each image with ``operator.index`` (a numpy
    integer becomes an int, a float is refused) and refuses images that are
    not a permutation of 1..n, so every ``Permutation`` is one.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        imgs = tuple(map(operator.index, self.images))
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def of(cls, images) -> "Permutation":
        return cls(images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation whose images are known to be a tuple of ints that
        permutes 1..n, built without the checks.  The field goes straight
        into the instance dict, which is faster than ``object.__setattr__``
        and skips the frozen dataclass's refusal just as that does."""
        p = object.__new__(cls)
        p.__dict__["images"] = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        imgs = list(range(1, n + 1))
        imgs[a - 1], imgs[b - 1] = b, a
        return cls(tuple(imgs))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, j: int) -> int:
        return self.images[j - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Composite j -> other(self(j)): self acts first."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation._trusted(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for j, v in enumerate(self.images, start=1):
            inv[v - 1] = j
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == j for j, v in enumerate(self.images, start=1))

    def order(self) -> int:
        """Multiplicative order via cycle lengths."""
        from math import lcm

        seen = [False] * self.degree
        result = 1
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            length = 0
            j = start
            while not seen[j - 1]:
                seen[j - 1] = True
                j = self.images[j - 1]
                length += 1
            result = lcm(result, length)
        return result


@dataclass(frozen=True)
class SignedPermElement:
    """Group element named by (sigma, h, eps); eps=0 elements carry h=1.

    The constructor checks the triple: sigma is a ``Permutation``, h and eps
    are converted with ``operator.index``, eps is 0 or 1 and 1 <= h <= n.
    The pivot plays no role when ``eps`` is 0, so it is normalized to 1
    there; structural equality then coincides with group equality and the
    triples can be used as set/dict keys.
    """

    sigma: Permutation
    h: int
    eps: int

    def __post_init__(self) -> None:
        if not isinstance(self.sigma, Permutation):
            raise TypeError(f"sigma must be a Permutation, got {type(self.sigma).__name__}")
        h, eps = operator.index(self.h), operator.index(self.eps)
        if eps not in (0, 1):
            raise ValueError(f"eps must be 0 or 1, got {eps}")
        if not 1 <= h <= self.sigma.degree:
            raise ValueError(f"pivot {h} out of range 1..{self.sigma.degree}")
        object.__setattr__(self, "h", h if eps else 1)
        object.__setattr__(self, "eps", eps)

    @classmethod
    def of(cls, sigma: Permutation, h: int, eps: int) -> "SignedPermElement":
        return cls(sigma, h, eps)

    @classmethod
    def _trusted(cls, sigma: Permutation, h: int, eps: int) -> "SignedPermElement":
        """An element whose triple is known to be normalized and valid, with
        int pivot and flag, built without the checks, as
        ``Permutation._trusted`` is."""
        e = object.__new__(cls)
        fields = e.__dict__
        fields["sigma"], fields["h"], fields["eps"] = sigma, h, eps
        return e

    @property
    def degree(self) -> int:
        return self.sigma.degree

    def __str__(self) -> str:
        return format_element(self)


def identity_element(n: int) -> SignedPermElement:
    return SignedPermElement(Permutation.identity(n), 1, 0)


def generator(n: int, j: int) -> SignedPermElement:
    """The alternating involution K(j) in symbolic form."""
    return SignedPermElement(Permutation.identity(n), j, 1)


def msih_mul(a: SignedPermElement, b: SignedPermElement) -> SignedPermElement:
    """Product a*b in the symbolic format.

    With sigma = a.sigma, tau = b.sigma, the composite permutation is
    j -> tau(sigma(j)).  An unflagged b keeps a's pivot and flag (both
    normalized); when both flags are set and the pivots collide
    (sigma^-1(b.h) == a.h) the flags cancel, otherwise the composite
    permutation is additionally patched at the two pivots.  The result is
    read straight off the image tuples.
    """
    sigma, tau = a.sigma.images, b.sigma.images
    if len(sigma) != len(tau):
        raise ValueError(f"degree mismatch: {len(sigma)} vs {len(tau)}")
    images = [tau[v - 1] for v in sigma]
    if b.eps == 0:
        return SignedPermElement._trusted(Permutation._trusted(tuple(images)), a.h, a.eps)
    sv = sigma.index(b.h) + 1
    if a.eps == 0:
        return SignedPermElement._trusted(Permutation._trusted(tuple(images)), sv, 1)
    u = a.h
    if sv == u:
        return SignedPermElement._trusted(Permutation._trusted(tuple(images)), 1, 0)
    images[u - 1], images[sv - 1] = images[sv - 1], images[u - 1]
    return SignedPermElement._trusted(Permutation._trusted(tuple(images)), sv, 1)


def msih_inverse(a: SignedPermElement) -> SignedPermElement:
    inv = a.sigma.inverse()
    if a.eps == 0:
        return SignedPermElement._trusted(inv, 1, 0)
    return SignedPermElement._trusted(inv, a.sigma.apply(a.h), 1)


def to_matrix(e: SignedPermElement) -> SmallIntMatrix:
    """Matrix form: entry (j, sigma(j)) = (-1)^(j+sigma(j)), except that the
    pivot row is the alternating row when the flag is set."""
    n = e.degree
    entries = [0] * (n * n)
    for j in range(1, n + 1):
        if e.eps == 1 and j == e.h:
            entries[(j - 1) * n : j * n] = alternating_row(n, j)
        else:
            k = e.sigma.apply(j)
            entries[(j - 1) * n + (k - 1)] = sign_pow(j + k)
    return SmallIntMatrix(n, tuple(entries))


def matrix_to_msih(m: SmallIntMatrix) -> SignedPermElement:
    """Decode a matrix back to its unique normalized (sigma, h, eps) triple.

    The candidate is read off the nonzero pattern: the pivot row is the row
    with more than one nonzero entry (at n = 1, the entry -1), every other
    row maps to the column of its first nonzero entry, and the pivot row to
    the column no other row uses. The candidate is returned only when it is
    a permutation that ``to_matrix`` encodes as ``m``, so the matrix form is
    stated there alone; every other matrix raises NotGroupElementError.
    """
    n = m.n
    rows = m.rows()
    images = [next((k for k, v in enumerate(row, 1) if v), 0) for row in rows]
    pivots = [j for j, row in enumerate(rows, 1) if n - row.count(0) > 1 or row == (-1,)]
    h, eps = (pivots[0], 1) if pivots else (1, 0)
    if eps:
        images[h - 1] = min(set(range(1, n + 1)).difference(images[: h - 1], images[h:]))
    if sorted(images) == list(range(1, n + 1)):
        e = SignedPermElement(Permutation(tuple(images)), h, eps)
        if to_matrix(e) == m:
            return e
    raise NotGroupElementError(f"not the matrix of a group element: {rows}")


_ELEMENT_RE = re.compile(
    r"M\((?:sigma|σ)=\[(?P<imgs>[0-9,\s]*)\];h=(?P<h>\d+);eps=(?P<eps>[01])\)"
)


def format_element(e: SignedPermElement) -> str:
    imgs = ",".join(str(v) for v in e.sigma.images)
    return f"M(sigma=[{imgs}];h={e.h};eps={e.eps})"


def parse_element(text: str) -> SignedPermElement:
    match = _ELEMENT_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"cannot parse element text: {text!r}")
    images = [int(v) for v in match.group("imgs").split(",") if v.strip()]
    return SignedPermElement(
        Permutation(images), int(match.group("h")), int(match.group("eps"))
    )
