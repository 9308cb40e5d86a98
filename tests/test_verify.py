"""The stacked matrix suites of ``verify`` against their one-check-at-a-time
oracles, on the passing build and under seeded breakages."""

import random
from itertools import count

import pytest
from brute_force import (
    loop_braid_suite,
    loop_closed_form_suite,
    loop_involution_suite,
    loop_msih_mul,
    loop_oracle_suite,
    loop_rank_one_suite,
)

from aughts import atlas, intmat, signed_perm, verify
from aughts.intmat import SmallIntMatrix, UnitEntryError
from aughts.signed_perm import (
    NotGroupElementError,
    Permutation,
    SignedPermElement,
    identity_element,
    msih_mul,
)

SUITES = {
    "involutions": (verify.involution_suite, loop_involution_suite),
    "braid": (verify.braid_suite, loop_braid_suite),
    "closed-form": (verify.closed_form_suite, loop_closed_form_suite),
    "rank-one": (verify.rank_one_suite, loop_rank_one_suite),
    "oracle": (verify.oracle_suite, loop_oracle_suite),
}


def summary(result):
    return (result.checks, result.failures, result.counterexample, result.notes)


def outcome(suite, n_max):
    """The suite's summary, or the type and text of what it raised."""
    try:
        return summary(suite(n_max))
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


def assert_suites_agree(names, n_max, patch=None):
    """Each named suite reports what its oracle reports; ``patch`` (if any)
    is applied afresh before each run, so per-call counters restart."""
    outcomes = []
    for name in names:
        stacked, loop = SUITES[name]
        runs = []
        for suite in (stacked, loop):
            if patch is not None:
                patch()
            runs.append(outcome(suite, n_max))
        assert runs[0] == runs[1], name
        outcomes.append(runs[0])
    return outcomes


@pytest.mark.parametrize("n_max", range(1, 9))
@pytest.mark.parametrize("name", ["involutions", "braid", "closed-form", "rank-one"])
def test_matrix_suites_match_the_loops(name, n_max):
    (got,) = assert_suites_agree([name], n_max)
    if (name, n_max) == ("closed-form", 1):
        # no pair of distinct generators to draw from: no checks, as braid
        assert got == (0, 0, None, [])
    else:
        _, failures, counterexample, _ = got
        assert failures == 0 and counterexample is None


@pytest.mark.parametrize("n_max", range(1, 9))
def test_oracle_suite_matches_the_loop(n_max):
    ((_, failures, _, notes),) = assert_suites_agree(["oracle"], n_max)
    assert failures == 0 and len(notes) == min(n_max, 4)


# -- seeded breakages -------------------------------------------------------


def _with_entry(m, row, col, value):
    entries = list(m.entries)
    entries[(row - 1) * m.n + col - 1] = value
    return SmallIntMatrix(m.n, tuple(entries))


@pytest.mark.parametrize(
    "row, col, value",
    [(1, 1, -1), (2, 3, 1), (4, 2, 0), (4, 4, 1)],
    ids=["diagonal", "off-diagonal", "alternating-row", "pivot"],
)
def test_a_wrong_entry_in_one_generator(monkeypatch, row, col, value):
    true_make_k = intmat.make_k

    def make_k(n, j):
        m = true_make_k(n, j)
        return _with_entry(m, row, col, value) if (n, j) == (6, 4) else m

    monkeypatch.setattr(intmat, "make_k", make_k)
    involutions, braid, closed_form = assert_suites_agree(
        ["involutions", "braid", "closed-form"], 8
    )
    # K(4) stays an involution when its row loses the entry 2
    assert involutions[1] == ((row, col) != (4, 2))
    assert braid[1] and closed_form[1]
    assert "n=6" in braid[2]


def test_a_generator_that_breaks_the_palindrome_first(monkeypatch):
    # a 1 at (2, 3) of K(1) at n = 3 keeps (K(1)K(2))^3 = Id
    true_make_k = intmat.make_k
    monkeypatch.setattr(
        intmat,
        "make_k",
        lambda n, j: _with_entry(true_make_k(n, j), 2, 3, 1) if (n, j) == (3, 1) else true_make_k(n, j),
    )
    ((_, _, counterexample, _),) = assert_suites_agree(["braid"], 8)
    assert counterexample == "palindrome identity fails at n=3, j=1, l=2"


def test_a_generator_that_leaves_the_unit_entries(monkeypatch):
    # a 1 above the diagonal of K(4) at n = 6 makes some running products
    # carry a 2: the closed-form suite ends there, as the loop does
    true_make_k = intmat.make_k
    monkeypatch.setattr(
        intmat,
        "make_k",
        lambda n, j: _with_entry(true_make_k(n, j), 3, 4, 1) if (n, j) == (6, 4) else true_make_k(n, j),
    )
    ((checks, failures, counterexample, _),) = assert_suites_agree(["closed-form"], 8)
    assert counterexample == "UnitEntryError: group element has an entry outside {-1, 0, 1}"
    assert checks < 1000


def _bend_row(position, value):
    # alternating_row(3, 1) with one entry changed
    def patch(true_fn):
        def fn(n, j):
            row = true_fn(n, j)
            if (n, j) != (3, 1):
                return row
            return row[:position] + (value(row[position]),) + row[position + 1 :]

        return fn

    return "alternating_row", patch


def _bend_pivot_outer(n_j, row, col):
    # pivot_outer(*n_j) with the sign of one entry flipped
    def patch(true_fn):
        def fn(n, j):
            m = true_fn(n, j)
            return _with_entry(m, row, col, -m.row(row)[col - 1]) if (n, j) == n_j else m

        return fn

    return "pivot_outer", patch


def _bend_sign_pow(true_fn):
    # read by the power checks first, at n = 1: sign_pow(1 + 1)
    return lambda e: -true_fn(e) if e == 2 else true_fn(e)


@pytest.mark.parametrize(
    "name, patch, counterexample",
    [
        (*_bend_row(0, lambda v: -v), "r(1).e(1) != -1 at n=3"),
        (*_bend_row(1, lambda v: 0), "r(1).r(1)^T != n at n=3"),
        (*_bend_row(1, lambda v: -v), "r(1).e(2) sign wrong at n=3"),
        (*_bend_pivot_outer((5, 2), 2, 5), "e(2)r(2) e(1)r(1) != -e(2)r(2) at n=5"),
        # P(1)^2 = P(1) now, but the loop meets P(2) P(1) first
        (*_bend_pivot_outer((3, 1), 1, 1), "e(2)r(2) e(1)r(1) != -e(2)r(2) at n=3"),
        ("sign_pow", _bend_sign_pow, "(e(1)r(1))^1 identity fails at n=1"),
    ],
    ids=["pivot-entry", "row-norm", "row-sign", "rank-one-product", "pivot-square", "power"],
)
def test_each_rank_one_check_reports_as_the_loop(monkeypatch, name, patch, counterexample):
    monkeypatch.setattr(intmat, name, patch(getattr(intmat, name)))
    ((_, failures, got, _),) = assert_suites_agree(["rank-one"], 8)
    assert failures and got == counterexample


def _nth_call_patch(monkeypatch, module, name, nth, replace):
    """A patch that, each time it is applied, replaces the result of the
    nth call of module.name (counting from 0) with replace(args, result)."""
    true_fn = getattr(module, name)

    def apply():
        calls = count()

        def fn(*args):
            result = true_fn(*args)
            return replace(args, result) if next(calls) == nth else result

        monkeypatch.setattr(module, name, fn)

    return apply


def _flip_first_entry(args, m):
    return _with_entry(m, 1, 1, -m.entries[0] or 1)


def _raise_unit_entry(args, m):
    raise UnitEntryError(f"entry 2 in the product of {args[1]}")


@pytest.mark.parametrize("nth", [0, 167, 168, 611, 1167])
def test_a_wrong_closed_form_on_one_trial(monkeypatch, nth):
    # 168 pair products come first at n_max = 8, then the 1000 trials
    patch = _nth_call_patch(monkeypatch, intmat, "product_closed_form", nth, _flip_first_entry)
    ((checks, failures, counterexample, _),) = assert_suites_agree(["closed-form"], 8, patch)
    assert failures == 1
    assert counterexample.startswith("pair closed form" if nth < 168 else "closed form fails")


@pytest.mark.parametrize("nth", [0, 500])
def test_a_closed_form_that_raises(monkeypatch, nth):
    patch = _nth_call_patch(monkeypatch, intmat, "product_closed_form", nth, _raise_unit_entry)
    ((checks, _, counterexample, _),) = assert_suites_agree(["closed-form"], 8, patch)
    assert checks == nth + 1
    assert counterexample.startswith("UnitEntryError: entry 2 in the product of")


def _other_element(args, p):
    return identity_element(4) if p != identity_element(4) else signed_perm.generator(4, 1)


def _stray_element(args, p):
    # the right product with the pivot left on an unflagged element, built
    # unchecked: it encodes the same matrix, but it is not a key of the
    # table, which holds every element of degree n, so it fails
    return SignedPermElement._trusted(p.sigma, 2, 0) if p.eps == 0 else p


def _other_degree(args, p):
    return identity_element(5)


def _refuse(args, p):
    raise NotGroupElementError("refused")


# the oracle makes 4 + 36 + 576 pair products and 2 + 6 + 24 inverse-law
# products at n = 1..3, so call 648 is the first pair at n = 4 (the identity
# squared, unflagged) and the other calls below lie at n = 4 too
@pytest.mark.parametrize(
    "replace, nth",
    [
        (_other_element, 616 + 5000),
        (_stray_element, 648),
        (_other_degree, 616 + 14_399),
        (_refuse, 616 + 77),
    ],
    ids=["in-table", "outside-table", "other-degree", "raises"],
)
def test_a_wrong_symbolic_product_at_n_4(monkeypatch, replace, nth):
    patch = _nth_call_patch(monkeypatch, verify, "msih_mul", nth, replace)
    ((_, failures, counterexample, _),) = assert_suites_agree(["oracle"], 4, patch)
    assert failures == 1
    assert "n=4" in counterexample or "refused" in counterexample


def test_a_raising_decoder(monkeypatch):
    def refuse(m):
        raise NotGroupElementError(f"refused {m.rows()}")

    monkeypatch.setattr(verify, "matrix_to_msih", refuse)
    ((checks, _, counterexample, _),) = assert_suites_agree(["oracle"], 3)
    assert (checks, counterexample) == (6, "NotGroupElementError: refused ((1,),)")


# -- the symbolic product ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_msih_mul_matches_the_loop_on_all_pairs(n):
    elements = atlas.catalog(n).elements
    for a in elements:
        for b in elements:
            assert msih_mul(a, b) == loop_msih_mul(a, b)


def _random_element(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    eps = rng.randint(0, 1)
    return SignedPermElement.of(Permutation(tuple(images)), rng.randint(1, n), eps)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_msih_mul_matches_the_loop_on_random_pairs(n):
    rng = random.Random(4021 + n)
    for _ in range(10_000):
        a, b = _random_element(rng, n), _random_element(rng, n)
        assert msih_mul(a, b) == loop_msih_mul(a, b)


# -- no per-pair matrix products --------------------------------------------


def test_run_all_takes_few_matrix_products(monkeypatch):
    calls = {"mat_mul": 0, "to_matrix": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(intmat, "mat_mul", counted("mat_mul", intmat.mat_mul))
    to_matrix = counted("to_matrix", signed_perm.to_matrix)
    monkeypatch.setattr(signed_perm, "to_matrix", to_matrix)
    monkeypatch.setattr(verify, "to_matrix", to_matrix)
    assert all(s.passed for s in verify.run_all(4))
    # the loops took about 18,000 mat_mul calls; what is left is the
    # full-cycle orders, at most n + 1 products for each n <= 8
    assert calls["mat_mul"] <= 100
    # one encoding per element for the table and one inside each decoding
    assert calls["to_matrix"] == 2 * (2 + 6 + 24 + 120)
