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
(k, n, n) and check each whole family (all (j, l), all pairs of elements,
all word prefixes) with one stacked product.  Their checks keep the order
of the nested loops they replace, and a check that raises still ends the
suite after the checks before it, so the check count and the first
counterexample are those of a run that checks one at a time.
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
        res.check_all(
            _is_identity(intmat.stack_mul(ks, ks)),
            lambda i: f"K({i + 1})^2 != Id at n={n}",
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
        messages = (
            "(K({j})K({l}))^3 != Id at n={n}",
            "palindrome identity fails at n={n}, j={j}, l={l}",
        )
        res.check_all(
            np.stack([_is_identity(cube), palindrome], axis=1),
            lambda i: messages[i % 2].format(j=j[i // 2] + 1, l=ell[i // 2] + 1, n=n),
        )
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

        # the brute-force products of all words of one size, one stacked
        # product per word position
        by_size: dict[int, list[int]] = {}
        for i, (n, _) in enumerate(words):
            by_size.setdefault(n, []).append(i)
        unit = np.empty(len(words), dtype=bool)
        products = {}
        for n, idx in by_size.items():
            products[n], unit[idx] = intmat.k_word_products(n, [words[i][1] for i in idx])

        # one closed form per word, in order; a word whose product left the
        # unit entries raises where its multiplication did, after its
        # closed form; the words before it are checked either way
        closed = []
        try:
            for i, (n, js) in enumerate(words):
                m = intmat.product_closed_form(n, js)
                if not unit[i]:
                    raise UnitEntryError()
                closed.append(m)
        finally:
            done = len(closed)
            agree = np.empty(done, dtype=bool)
            for n, idx in by_size.items():
                idx = np.array(idx)
                head = idx < done
                agree[idx[head]] = _equal(
                    intmat.stack(n, [closed[i] for i in idx[head]]), products[n][head]
                )

            def message(i: int) -> str:
                n, js = words[i]
                if i < pairs:
                    return f"pair closed form fails at n={n}, ({js[0]},{js[1]})"
                return f"closed form fails at n={n}, tuple {js}"

            res.check_all(agree, message)
        # full-cycle orders, both directions, matrix vs symmetric group
        for n in range(1, n_max + 1):
            down = intmat.matrix_order(intmat.full_cycle_matrix(n, "down"), limit=n + 2)
            via_sym = atlas.full_cycle_order_via_sym(n)
            res.check(down == n + 1, f"down cycle order {down} != {n + 1}")
            res.check(via_sym == n + 1, f"symmetric-group order {via_sym} != {n + 1}")
    return res


_RANK_ONE_MESSAGES = (
    "r({j}).e({j}) != -1 at n={n}",
    "r({j}).r({j})^T != n at n={n}",
    "r({j}).e({x}) sign wrong at n={n}",
    "e({x})r({x}) e({j})r({j}) != -e({x})r({x}) at n={n}",
    "(e({j})r({j}))^{x} identity fails at n={n}",
)


def rank_one_suite(n_max: int) -> SuiteResult:
    res = SuiteResult("rank-one-identities")
    for n in range(1, n_max + 1):
        span = range(1, n + 1)
        rows = np.array([intmat.alternating_row(n, j) for j in span], dtype=np.int64)
        signs = np.array([[intmat.sign_pow(j + ell - 1) for ell in span] for j in span])
        pivots = intmat.stack(n, [intmat.pivot_outer(n, j) for j in span])
        # products[l, j] = e(l)r(l) e(j)r(j)
        products = intmat.stack_mul(pivots[:, None], pivots[None, :])
        powers = [pivots]
        for _ in range(n - 1):
            powers.append(intmat.stack_mul(powers[-1], pivots))

        # per j, in the order of the nested loops: the two row checks, then
        # for each l the sign check and (l != j) the rank-one product, then
        # the n powers
        width = 3 * n + 2
        conditions = np.empty((n, width), dtype=bool)
        conditions[:, 0] = np.diagonal(rows) == -1
        conditions[:, 1] = (rows * rows).sum(axis=1) == n
        conditions[:, 2 : 2 * n + 2 : 2] = rows == signs
        conditions[:, 3 : 2 * n + 3 : 2] = _equal(products, -pivots[:, None]).T
        conditions[:, 2 * n + 2 :] = np.stack(
            [_equal(p, intmat.sign_pow(k + 1) * pivots) for k, p in enumerate(powers, 1)],
            axis=1,
        )
        keep = np.ones((n, width), dtype=bool)
        keep[np.arange(n), 3 + 2 * np.arange(n)] = False
        j_of, col = np.nonzero(keep)

        def message(i: int) -> str:
            c = col[i]
            if c < 2:
                kind, x = c, 0
            elif c < 2 * n + 2:
                kind, x = 2 + c % 2, c // 2
            else:
                kind, x = 4, c - 2 * n - 1
            return _RANK_ONE_MESSAGES[kind].format(j=j_of[i] + 1, x=x, n=n)

        res.check_all(conditions[keep], message)
    return res


def oracle_suite(n_max: int) -> SuiteResult:
    """Symbolic multiplication against the matrix product, all pairs."""
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
            position = cat.index
            found: list[int] = []
            try:
                for a in elements:
                    for b in elements:
                        found.append(position.get(msih_mul(a, b), -1))
            finally:
                size = len(elements)
                expected = expected.reshape(size * size, n, n)[: len(found)]
                at = np.array(found, dtype=np.intp)
                # one row of pairs at a time, so that the table's matrices
                # are not gathered into a second array as large as the product
                agree = np.empty(len(found), dtype=bool)
                for start in range(0, len(at), size):
                    rows = slice(start, start + size)
                    agree[rows] = (at[rows] >= 0) & _equal(table[at[rows]], expected[rows])
                res.check_all(
                    agree,
                    lambda k: f"oracle fails at n={n}: "
                    f"{format_element(elements[k // size])} * {format_element(elements[k % size])}",
                )
            ident = identity_element(n)
            for e, m in zip(elements, mats):
                if msih_mul(e, msih_inverse(e)) == ident:
                    res.ok()
                else:
                    res.fail(f"inverse law fails at n={n}: {format_element(e)}")
                if matrix_to_msih(m) == e:
                    res.ok()
                else:
                    res.fail(f"round trip fails at n={n}: {format_element(e)}")
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
                len(witness.backward) == factorial(n + 1),
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
    if not 1 <= n_max <= atlas.ENUMERATION_MAX_N:
        raise ValueError(f"n_max must be in 1..{atlas.ENUMERATION_MAX_N}, got {n_max}")
    suites = [
        involution_suite(max(n_max, 8)),
        braid_suite(max(n_max, 8)),
        closed_form_suite(max(n_max, 8)),
        rank_one_suite(max(n_max, 8)),
        oracle_suite(n_max),
        group_suite(n_max),
        orbit_suite(),
    ]
    return suites
