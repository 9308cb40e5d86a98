"""Self-verification suites: every closed-form identity against brute force.

Each suite returns a result object with a check count and, on failure, the
first counterexample as a printable string.  The CLI `verify` subcommand
drives these and exits nonzero if anything fails; nothing here should ever
fail on a correct build.  The suites that call the library's own internal
checks run inside their result, so a check that raises
(``ConsistencyError``, ``NotGroupElementError``, ``UnitEntryError``) ends
the suite as a failed check with the error as its counterexample, not as a
traceback.

The matrix suites build their matrices once as int64 stacks of shape
(k, n, n) and compute each whole family (all (j, l), all pairs of elements,
all word prefixes) with one stacked product.  The involution suite and the
oracle suite compare each n's results in one stacked check
(``SuiteResult.check_all``), whose C order is the nesting order of the
loops it replaces; the oracle has 14,400 pairs at n = 4, and checking them
one at a time costs about 8 ms, 10-15 % of the suite, and a symbolic
product that raises still ends it after the pairs before it.  The braid,
closed-form and rank-one suites check their results one at a time, in the
nesting order of the loops they replace, a check that raises included;
each makes at most about 1,200 checks, so this costs nothing measurable.
Either way the check count and the first counterexample are those of the
loops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial
from typing import Callable

import numpy as np

from aughts import atlas, intmat, orbits
from aughts.atlas import ConsistencyError
from aughts.intmat import UnitEntryError
from aughts.signed_perm import (
    NotGroupElementError,
    format_element,
    identity_element,
    matrix_to_msih,
    msih_inverse,
    msih_mul,
    to_matrix,
)


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    counterexample: str | None = None
    notes: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.checks += 1

    def fail(self, message: str) -> None:
        self.checks += 1
        self.failures += 1
        if self.counterexample is None:
            self.counterexample = message

    def check(self, condition: bool, message: str) -> None:
        if condition:
            self.ok()
        else:
            self.fail(message)

    def check_all(self, conditions: np.ndarray, message: Callable[[int], str]) -> None:
        """One check per entry of a boolean array, in its C order; only the
        first failure's message is formatted, from its flat index."""
        failed = np.flatnonzero(~np.asarray(conditions, dtype=bool).ravel())
        self.checks += np.size(conditions)
        self.failures += failed.size
        if failed.size and self.counterexample is None:
            self.counterexample = message(int(failed[0]))

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def __enter__(self) -> "SuiteResult":
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        """Record an internal check that raised as a failed check."""
        if isinstance(exc, (ConsistencyError, NotGroupElementError, UnitEntryError)):
            self.fail(f"{kind.__name__}: {exc}")
            return True
        return False


def _generators(n: int) -> np.ndarray:
    """K(1), ..., K(n) as one (n, n, n) stack."""
    return intmat.stack(n, [intmat.make_k(n, j) for j in range(1, n + 1)])


def _equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry-wise equality of two stacks, one boolean per matrix."""
    return (a == b).all(axis=(-2, -1))


def _is_identity(a: np.ndarray) -> np.ndarray:
    return _equal(a, np.eye(a.shape[-1], dtype=np.int64))


def involution_suite(n_max: int) -> SuiteResult:
    res = SuiteResult("involutions")
    for n in range(1, n_max + 1):
        ks = _generators(n)
        squares = _is_identity(intmat.stack_mul(ks, ks))
        res.check_all(squares, lambda k: f"K({k + 1})^2 != Id at n={n}")
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


def braid_suite(n_max: int) -> SuiteResult:
    res = SuiteResult("braid-relations")
    for n in range(2, n_max + 1):
        ks = _generators(n)
        # 0-based (j, l) with j != l, j-major as the nested loops visit them
        j, ell = np.nonzero(~np.eye(n, dtype=bool))
        kj, kl = ks[j], ks[ell]
        prod = intmat.stack_mul(kj, kl)
        cube = intmat.stack_mul(intmat.stack_mul(prod, prod), prod)
        palindrome = _equal(
            intmat.stack_mul(prod, kj), intmat.stack_mul(intmat.stack_mul(kl, kj), kl)
        )
        for a, b, cubed, swapped in zip(j + 1, ell + 1, _is_identity(cube), palindrome):
            res.check(cubed, f"(K({a})K({b}))^3 != Id at n={n}")
            res.check(swapped, f"palindrome identity fails at n={n}, j={a}, l={b}")
    return res


CLOSED_FORM_TRIALS = 1000
CLOSED_FORM_SEED = 1789


def closed_form_suite(n_max: int) -> SuiteResult:
    if n_max < 2:
        # no pair of distinct generators to draw words from
        return SuiteResult("closed-form-products")
    with SuiteResult("closed-form-products") as res:
        # pair products, fully, then random distinct tuples
        words = [
            (n, (j, ell))
            for n in range(2, n_max + 1)
            for j in range(1, n + 1)
            for ell in range(1, n + 1)
            if j != ell
        ]
        pairs = len(words)
        rng = random.Random(CLOSED_FORM_SEED)
        for _ in range(CLOSED_FORM_TRIALS):
            n = rng.randint(2, n_max)
            s = rng.randint(1, n)
            words.append((n, tuple(rng.sample(range(1, n + 1), s))))

        # the brute-force products of all words of one size in one stacked
        # product per word position, handed out in word order
        products = {
            n: zip(*intmat.k_word_products(n, [js for size, js in words if size == n]))
            for n in range(2, n_max + 1)
        }
        # per word, as the loop: its closed form, then its product, which
        # raises where its multiplication left the unit entries
        for i, (n, js) in enumerate(words):
            closed = intmat.product_closed_form(n, js)
            product, unit = next(products[n])
            if not unit:
                raise UnitEntryError()
            # the counterexample is formatted for a failing word only
            if closed.entries == tuple(product.ravel().tolist()):
                res.ok()
            elif i < pairs:
                res.fail(f"pair closed form fails at n={n}, ({js[0]},{js[1]})")
            else:
                res.fail(f"closed form fails at n={n}, tuple {js}")
        # full-cycle orders, both directions, matrix vs symmetric group
        for n in range(1, n_max + 1):
            down = intmat.matrix_order(intmat.full_cycle_matrix(n, "down"), limit=n + 2)
            via_sym = atlas.full_cycle_order_via_sym(n)
            res.check(down == n + 1, f"down cycle order {down} != {n + 1}")
            res.check(via_sym == n + 1, f"symmetric-group order {via_sym} != {n + 1}")
    return res


def rank_one_suite(n_max: int) -> SuiteResult:
    res = SuiteResult("rank-one-identities")
    for n in range(1, n_max + 1):
        span = range(1, n + 1)
        pivots = intmat.stack(n, [intmat.pivot_outer(n, j) for j in span])
        # rank_one[l - 1, j - 1] is e(l)r(l) e(j)r(j) = -e(l)r(l)
        products = intmat.stack_mul(pivots[:, None], pivots[None, :])
        rank_one = _equal(products, -pivots[:, None])
        # powers[k - 1][j - 1] is (e(j)r(j))^k = (-1)^(k+1) e(j)r(j)
        stacked = [pivots]
        for _ in range(n - 1):
            stacked.append(intmat.stack_mul(stacked[-1], pivots))
        powers = [_equal(p, intmat.sign_pow(k + 1) * pivots) for k, p in enumerate(stacked, 1)]
        for j in span:
            row = intmat.alternating_row(n, j)
            res.check(row[j - 1] == -1, f"r({j}).e({j}) != -1 at n={n}")
            res.check(sum(v * v for v in row) == n, f"r({j}).r({j})^T != n at n={n}")
            for ell in span:
                res.check(
                    row[ell - 1] == intmat.sign_pow(j + ell - 1),
                    f"r({j}).e({ell}) sign wrong at n={n}",
                )
                if ell != j:
                    res.check(
                        rank_one[ell - 1, j - 1],
                        f"e({ell})r({ell}) e({j})r({j}) != -e({ell})r({ell}) at n={n}",
                    )
            for k in span:
                res.check(powers[k - 1][j - 1], f"(e({j})r({j}))^{k} identity fails at n={n}")
    return res


def oracle_suite(n_max: int) -> SuiteResult:
    """Symbolic multiplication against the matrix product, all pairs; each
    product is looked up by its plain triple (sigma.images, h, eps)."""
    with SuiteResult("matrix-symbol-oracle") as res:
        for n in range(1, min(n_max, 4) + 1):
            cat = atlas.catalog(n)
            elements = cat.elements
            mats = [to_matrix(e) for e in elements]
            table = intmat.stack(n, mats)
            # every matrix product of a pair, and the position of every
            # symbolic product in the table; the table holds every element
            # of degree n, so a product that is not one of its keys is wrong
            expected = intmat.stack_mul(table[:, None], table[None, :])
            position = {(e.sigma.images, e.h, e.eps): i for i, e in enumerate(elements)}
            found: list[int] = []
            try:
                for a in elements:
                    for b in elements:
                        ab = msih_mul(a, b)
                        found.append(position.get((ab.sigma.images, ab.h, ab.eps), -1))
            finally:
                size = len(elements)
                expected = expected.reshape(size * size, n, n)[: len(found)]
                at = np.array(found, dtype=np.intp)
                # one gather of every pair: at n = 4 it is 14,400 matrices of
                # 4 x 4 int64, 1.8 MB, no more than the product beside it
                agree = (at >= 0) & _equal(table[at], expected)
                res.check_all(
                    agree,
                    lambda k: f"oracle fails at n={n}: "
                    f"{format_element(elements[k // size])} * {format_element(elements[k % size])}",
                )
            ident = identity_element(n)
            for e, m in zip(elements, mats):
                res.check(
                    msih_mul(e, msih_inverse(e)) == ident,
                    f"inverse law fails at n={n}: {format_element(e)}",
                )
                res.check(matrix_to_msih(m) == e, f"round trip fails at n={n}: {format_element(e)}")
            res.notes.append(f"n={n}: {len(elements) ** 2} oracle pairs checked")
    return res


def group_suite(n_max: int) -> SuiteResult:
    with SuiteResult("group-structure") as res:
        for n in range(1, n_max + 1):
            cat = atlas.catalog(n)
            res.check(
                len(cat) == factorial(n + 1),
                f"|M({n})| = {len(cat)} != {factorial(n + 1)}",
            )
            # rank % (n + 1) is the pivot of a flagged element and 0 for the
            # flag-free subgroup: the key of its coset block
            blocks = np.bincount(cat.rank % (n + 1), minlength=n + 1)
            res.check(
                bool((blocks == factorial(n)).all()),
                f"coset decomposition wrong at n={n}",
            )
            witness = atlas.verify_isomorphism(n)
            res.check(
                witness.size == factorial(n + 1),
                f"isomorphism not bijective at n={n}",
            )
            res.notes.append(f"|M({n})| = {len(cat)}; isomorphic to S_{n + 1}: OK")
        if n_max >= 3:
            cat3 = atlas.catalog(3)
            spectrum = atlas.order_spectrum(cat3)
            res.check(
                spectrum == {1: 1, 2: 9, 3: 8, 4: 6},
                f"order spectrum at n=3 is {spectrum}",
            )
            res.check(12 not in spectrum, "n=3 has an element of order 12")
            hist = cat3.distance_histogram()
            res.check(
                hist.get(4) == 5 and max(hist) == 4,
                f"distance histogram at n=3 is {hist}",
            )
            res.notes.append(f"order spectrum of M(3): {spectrum}")
    return res


def orbit_suite() -> SuiteResult:
    res = SuiteResult("orbits")
    traj = orbits.run_word((10, 8, 15), orbits.HAMILTONIAN_WORD_3D)
    res.check(traj.closed, "24-step word does not close on (10,8,15)")
    res.check(
        traj.distinct_nodes == 24,
        f"24-step word visits {traj.distinct_nodes} distinct nodes",
    )
    graph = orbits.reach_graph((10, 8, 15))
    res.check(
        (len(graph.nodes), len(graph.edges)) == (24, 36),
        f"reach graph has {len(graph.nodes)} nodes / {len(graph.edges)} edges",
    )
    for x in ((0, 0), (1, 0), (1, 2), (3, 5), (7, -4), (-6, 11)):
        o = orbits.orbit2d(x)
        res.check(len(o.nodes) in (1, 3, 6), f"orbit size of {x} is {len(o.nodes)}")
        res.check(o.semi_perimeter % 2 == 0, f"odd semi-perimeter at {x}")
        xs, ys = [p[0] for p in o.nodes], [p[1] for p in o.nodes]
        res.check(
            o.box_side == max(xs) - min(xs) == max(ys) - min(ys),
            f"box side law fails at {x}",
        )
        res.check(
            (2 * o.semi_perimeter) % 4 == 0, f"orbit length not divisible by 4 at {x}"
        )
    res.check(
        orbits.semi_perimeter((7, 0)) == 28, "axis orbit semi-perimeter wrong"
    )
    res.check(orbits.orbit_rep((-2, -1)) == (1, 2), "canonical representative wrong")
    res.check(
        orbits.orbit_distance((1, 0), (2, 0)) is None,
        "distinct orbits reported as connected",
    )
    return res


def run_all(n_max: int) -> list[SuiteResult]:
    """The catalog suites at n = 1..n_max, which ``atlas`` bounds as every
    catalog, and the four matrix suites at n = 1..8 whatever ``n_max``."""
    atlas._check_n(n_max)
    matrix_suites = (involution_suite, braid_suite, closed_form_suite, rank_one_suite)
    return [*(suite(8) for suite in matrix_suites),
            oracle_suite(n_max), group_suite(n_max), orbit_suite()]
