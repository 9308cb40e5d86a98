"""Generator matrices: construction, closed-form products, identities."""

import random
from itertools import permutations

import numpy as np
import pytest
from brute_force import (
    basis_outer,
    loop_k_word_product,
    loop_mat_mul,
    mat_add,
    mat_scale,
    shift_power,
    zero_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from aughts import intmat
from aughts.intmat import (
    INT64_MAX,
    SmallIntMatrix,
    alternating_row,
    full_cycle_matrix,
    identity_matrix,
    k_word_product,
    make_k,
    mat_mul,
    mat_pow,
    matrix_order,
    pivot_outer,
    product_closed_form,
    sign_pow,
)


def test_alternating_row_invariants():
    for n in range(1, 9):
        for j in range(1, n + 1):
            row = alternating_row(n, j)
            assert len(row) == n
            assert row[0] == sign_pow(j)
            assert all(a * b == -1 for a, b in zip(row, row[1:]))
    with pytest.raises(ValueError):
        alternating_row(3, 4)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        SmallIntMatrix(2, (1, 0, 0))
    with pytest.raises(ValueError):
        SmallIntMatrix.from_rows([[1, 0], [0]])


def test_matrix_entries_must_be_python_ints():
    # an np.int64 entry would make the product wrap (2^40 squared read 0)
    # and a float would be truncated, so both are refused
    big = np.int64(2**40)
    for entries in ((big, 0, 0, 1), (1.0, 0, 0, 1), (True, 0, 0, 1)):
        with pytest.raises(TypeError):
            SmallIntMatrix(2, entries)
    with pytest.raises(TypeError):
        SmallIntMatrix.from_rows([[1.5, 0], [0, 1]])
    # from_rows converts numpy integers exactly
    m = SmallIntMatrix.from_rows([[big, np.int32(0)], [np.uint8(0), 1]])
    assert m.entries == (2**40, 0, 0, 1)
    assert set(map(type, m.entries)) == {int}
    with pytest.raises(OverflowError):
        mat_mul(m, m)


def test_make_k_displays():
    assert make_k(3, 1).rows() == ((-1, 1, -1), (0, 1, 0), (0, 0, 1))
    assert make_k(3, 3).rows() == ((1, 0, 0), (0, 1, 0), (-1, 1, -1))
    assert make_k(1, 1).rows() == ((-1,),)


def test_make_k_index_errors():
    with pytest.raises(ValueError):
        make_k(3, 0)
    with pytest.raises(ValueError):
        make_k(3, 4)


def test_mat_mul_examples():
    k1 = make_k(3, 1)
    assert mat_mul(k1, k1) == identity_matrix(3)
    k2 = make_k(3, 2)
    assert mat_mul(identity_matrix(3), k2) == k2
    assert mat_mul(make_k(4, 2), make_k(4, 3)).rows() == (
        (1, 0, 0, 0),
        (0, 0, -1, 0),
        (-1, 1, -1, 1),
        (0, 0, 0, 1),
    )


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(make_k(3, 1), make_k(4, 1))


def test_mat_mul_overflow_checked():
    big = SmallIntMatrix.from_rows([[2**62, 0], [0, 1]])
    with pytest.raises(OverflowError):
        mat_mul(big, big)


def _outcome(mul, a, b):
    try:
        return mul(a, b)
    except OverflowError:
        return OverflowError


def _assert_agrees_with_loop(a, b):
    """mat_mul returns what the triple loop returns, or raises where it does."""
    got = _outcome(mat_mul, a, b)
    assert got == _outcome(loop_mat_mul, a, b)
    return got


def _random_matrix(rng, n, values):
    return SmallIntMatrix(n, tuple(values(rng) for _ in range(n * n)))


def test_mat_mul_matches_loop_on_dense_entries():
    rng = random.Random(2509)
    small = lambda r: r.randint(-50, 50)
    for n in range(1, 9):
        for _ in range(40):
            a, b = _random_matrix(rng, n, small), _random_matrix(rng, n, small)
            assert _assert_agrees_with_loop(a, b) is not OverflowError


def test_mat_mul_matches_loop_near_the_int64_range():
    rng = random.Random(17838)
    edges = [0, 1, -1, 2**31, -(2**31), 2**31 - 1, 2**62, -(2**62), 2**62 - 1]
    choices = [
        lambda r: r.choice(edges),
        # magnitudes from a few bits to past int64
        lambda r: r.choice((-1, 1)) * r.getrandbits(r.randint(1, 70)),
    ]
    outcomes = set()
    for _ in range(600):
        n = rng.randint(1, 4)
        values = rng.choice(choices)
        a, b = _random_matrix(rng, n, values), _random_matrix(rng, n, values)
        outcomes.add(_assert_agrees_with_loop(a, b) is OverflowError)
    assert outcomes == {False, True}


def test_mat_mul_at_the_no_wrap_bound():
    # n * max|a| * max|b| == 2^63 - 1 exactly: n = 7, max|a| = 1
    c = INT64_MAX // 7
    assert 7 * c == INT64_MAX
    ones = SmallIntMatrix(7, (1,) * 49)
    b = SmallIntMatrix(7, (c, -c, 0, 1, -1, c, 5) * 7)
    got = _assert_agrees_with_loop(ones, b)
    assert got.row(1)[:3] == (INT64_MAX, -INT64_MAX, 0)
    # bound 2^63: n = 2, max|a| = 2^62, max|b| = 1
    a = SmallIntMatrix.from_rows([[2**62, 2**62], [2**62, 2**62 - 1]])
    cancel = SmallIntMatrix.from_rows([[1, 0], [-1, 0]])
    assert _assert_agrees_with_loop(a, cancel).entries == (0, 0, 1, 0)
    adds = SmallIntMatrix.from_rows([[1, 0], [1, 0]])
    assert _assert_agrees_with_loop(a, adds) is OverflowError


def test_mat_mul_results_at_the_int64_edges():
    top = SmallIntMatrix.from_rows([[2**62, 2**62 - 1], [0, 0]])
    for sign in (1, -1):
        col = SmallIntMatrix.from_rows([[sign, 0], [sign, 0]])
        got = _assert_agrees_with_loop(top, col)
        assert got.entries == (sign * INT64_MAX, 0, 0, 0)
    # 2^63 and -2^63 both raise, although int64 holds -2^63
    row = SmallIntMatrix.from_rows([[2**62, 2**62], [0, 0]])
    for sign in (1, -1):
        col = SmallIntMatrix.from_rows([[sign, 0], [sign, 0]])
        assert _assert_agrees_with_loop(row, col) is OverflowError
        with pytest.raises(OverflowError):
            mat_mul(row, col)


def test_mat_mul_zero_factor_against_entries_beyond_int64():
    huge = SmallIntMatrix.from_rows(
        [[2**64, -(2**100), 3], [1, 2**63, 0], [0, 0, 2**70]]
    )
    zero = zero_matrix(3)
    assert _assert_agrees_with_loop(zero, huge) == zero
    assert _assert_agrees_with_loop(huge, zero) == zero


def _stack_outcome(a, b):
    try:
        return intmat.stack_mul(a, b)
    except OverflowError:
        return OverflowError


EDGE_VALUES = [0, 1, -1, 2**62, -(2**62), 2**62 - 1, INT64_MAX, -INT64_MAX]


def test_stack_mul_matches_loop_near_the_int64_range():
    rng = random.Random(30517)
    beyond = [2**63, -(2**63), 2**64, -(2**100)]
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 3)
        values = EDGE_VALUES + (beyond if rng.random() < 0.3 else [])
        a = _random_matrix(rng, n, lambda r: r.choice(values))
        b = _random_matrix(rng, n, lambda r: r.choice(EDGE_VALUES))
        # zero rows keep some products of large factors small
        if rng.random() < 0.3:
            b = SmallIntMatrix(n, (0,) * n + b.entries[n:])
        want = _outcome(loop_mat_mul, a, b)
        assert _outcome(mat_mul, a, b) == want
        got = _stack_outcome(intmat.stack(n, [a]), intmat.stack(n, [b]))
        if want is OverflowError:
            assert got is OverflowError
        else:
            assert got.dtype == np.int64 and tuple(got.ravel().tolist()) == want.entries
        outcomes.add(want is OverflowError)
    assert outcomes == {False, True}


def test_stack_mul_raises_where_one_pair_does():
    fine = SmallIntMatrix.from_rows([[2**62, 2**62 - 1], [0, 0]])
    col = SmallIntMatrix.from_rows([[1, 0], [1, 0]])
    over = SmallIntMatrix.from_rows([[2**62, 2**62], [0, 0]])
    assert _stack_outcome(intmat.stack(2, [fine, fine]), intmat.stack(2, [col, col]))[
        :, 0, 0
    ].tolist() == [INT64_MAX, INT64_MAX]
    for sign in (1, -1):
        cols = intmat.stack(2, [mat_scale(col, sign)] * 3)
        rows = intmat.stack(2, [fine, over, fine])
        with pytest.raises(OverflowError):
            mat_mul(over, mat_scale(col, sign))
        assert _stack_outcome(rows, cols) is OverflowError


def test_stack_mul_zero_factor_against_entries_beyond_int64():
    huge = SmallIntMatrix.from_rows(
        [[2**64, -(2**100), 3], [1, 2**63, 0], [0, 0, 2**70]]
    )
    wide = intmat.stack(3, [huge, huge])
    assert wide.dtype == object
    zeros = intmat.stack(3, [zero_matrix(3)] * 2)
    for a, b in ((wide, zeros), (zeros, wide)):
        got = intmat.stack_mul(a, b)
        assert got.dtype == np.int64 and not got.any()
    assert _outcome(loop_mat_mul, huge, zero_matrix(3)) == zero_matrix(3)


def test_stack_mul_at_the_no_wrap_bound():
    c = INT64_MAX // 7
    ones = intmat.stack(7, [SmallIntMatrix(7, (1,) * 49)])
    b = SmallIntMatrix(7, (c, -c, 0, 1, -1, c, 5) * 7)
    got = intmat.stack_mul(ones, intmat.stack(7, [b]))
    assert got[0, 0, :3].tolist() == [INT64_MAX, -INT64_MAX, 0]
    assert tuple(got.ravel().tolist()) == loop_mat_mul(SmallIntMatrix(7, (1,) * 49), b).entries


def test_stack_refuses_mixed_sizes():
    with pytest.raises(ValueError):
        intmat.stack(3, [make_k(3, 1), make_k(4, 1)])
    with pytest.raises(ValueError):
        intmat.stack_mul(intmat.stack(3, [make_k(3, 1)]), intmat.stack(4, [make_k(4, 1)]))


def _word_outcome(product, n, js):
    try:
        return product(n, js)
    except intmat.UnitEntryError:
        return intmat.UnitEntryError


def test_k_word_products_match_the_loop():
    rng = random.Random(8810)
    for n in range(1, 9):
        words = [()] + [
            tuple(rng.randint(1, n) for _ in range(rng.randint(1, 2 * n))) for _ in range(60)
        ]
        products, unit = intmat.k_word_products(n, words)
        assert unit.all()
        for word, got in zip(words, products):
            assert tuple(got.ravel().tolist()) == loop_k_word_product(n, word).entries
            assert k_word_product(n, word) == loop_k_word_product(n, word)


def test_k_word_products_mark_words_that_leave_the_unit_entries(monkeypatch):
    true_make_k = intmat.make_k
    bent = SmallIntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(intmat, "make_k", lambda n, j: bent if j == 2 else true_make_k(n, j))
    rng = random.Random(4)
    words = [tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6))) for _ in range(200)]
    _, unit = intmat.k_word_products(3, words)
    want = [_word_outcome(loop_k_word_product, 3, w) is not intmat.UnitEntryError for w in words]
    assert unit.tolist() == want
    assert False in want and True in want
    for word in words:
        assert _word_outcome(k_word_product, 3, word) == _word_outcome(
            loop_k_word_product, 3, word
        )


def test_k_word_product_refuses_indices_out_of_range():
    for js in ((0,), (1, 4), (-1,)):
        with pytest.raises(ValueError):
            k_word_product(3, js)


def test_product_closed_form_displays():
    assert product_closed_form(4, [1, 4]).rows() == (
        (0, 0, 0, -1),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (1, -1, 1, -1),
    )
    assert product_closed_form(4, [1, 2, 3]).rows() == (
        (0, -1, 0, 0),
        (0, 0, -1, 0),
        (-1, 1, -1, 1),
        (0, 0, 0, 1),
    )
    assert product_closed_form(4, [3, 2, 1]).rows() == (
        (-1, 1, -1, 1),
        (-1, 0, 0, 0),
        (0, -1, 0, 0),
        (0, 0, 0, 1),
    )


def test_product_closed_form_rejects_repeats():
    with pytest.raises(ValueError, match=r"^indices must be distinct$"):
        product_closed_form(4, [1, 2, 1])
    with pytest.raises(ValueError, match=r"^tuple length must be in 1\.\.4, got 0$"):
        product_closed_form(4, [])
    with pytest.raises(ValueError, match=r"^index 5 out of range 1\.\.4$"):
        product_closed_form(4, [5])
    with pytest.raises(ValueError, match=r"^index 0 out of range 1\.\.4$"):
        product_closed_form(4, [0])
    with pytest.raises(ValueError, match=r"^tuple length must be in 1\.\.4, got 5$"):
        product_closed_form(4, [1, 2, 3, 4, 1])
    # the indices' range is checked before their distinctness
    with pytest.raises(ValueError, match=r"^index 9 out of range 1\.\.4$"):
        product_closed_form(4, [2, 9, 2])
    # the first index out of range is the one named
    with pytest.raises(ValueError, match=r"^index 0 out of range 1\.\.3$"):
        product_closed_form(3, (2, 0, 5))
    with pytest.raises(ValueError, match=r"^index 5 out of range 1\.\.3$"):
        product_closed_form(3, (2, 5, 0))


def test_full_cycle_order():
    down = full_cycle_matrix(3, "down")
    assert mat_pow(down, 4) == identity_matrix(3)
    for k in range(1, 4):
        assert mat_pow(down, k) != identity_matrix(3)
    assert full_cycle_matrix(1, "up").rows() == ((-1,),)
    assert matrix_order(full_cycle_matrix(1, "up")) == 2


def test_full_cycle_equals_pivot_minus_shift():
    # K(n)...K(1) is the rank-one pivot on row 1 minus the sub-diagonal shift
    for n in range(1, 9):
        expected = mat_add(pivot_outer(n, 1), mat_scale(shift_power(n, 1), -1))
        assert full_cycle_matrix(n, "down") == expected


def test_shift_power():
    assert shift_power(4, 1).rows() == (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    )
    assert shift_power(4, 4) == zero_matrix(4)
    assert shift_power(4, 0) == identity_matrix(4)
    for k in range(0, 5):
        assert shift_power(4, k) == mat_pow(shift_power(4, 1), k)
    with pytest.raises(ValueError):
        shift_power(4, 5)


@pytest.mark.parametrize("n", range(1, 9))
def test_involution_all_j(n):
    for j in range(1, n + 1):
        k = make_k(n, j)
        assert mat_mul(k, k) == identity_matrix(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_braid_and_palindrome(n):
    for j in range(1, n + 1):
        for ell in range(1, n + 1):
            if j == ell:
                continue
            kj, kl = make_k(n, j), make_k(n, ell)
            assert mat_pow(mat_mul(kj, kl), 3) == identity_matrix(n)
            assert mat_mul(mat_mul(kj, kl), kj) == mat_mul(mat_mul(kl, kj), kl)


def _pair_product_direct(n, j, ell):
    # Id - e_j e_j^T - e_l e_l^T + e_l r_l + (-1)^(j+l) e_j e_l^T
    m = identity_matrix(n)
    m = mat_add(m, mat_scale(basis_outer(n, j, j), -1))
    m = mat_add(m, mat_scale(basis_outer(n, ell, ell), -1))
    m = mat_add(m, pivot_outer(n, ell))
    return mat_add(m, mat_scale(basis_outer(n, j, ell), sign_pow(j + ell)))


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_product_closed_form(n):
    for j in range(1, n + 1):
        for ell in range(1, n + 1):
            if j == ell:
                continue
            expected = _pair_product_direct(n, j, ell)
            assert product_closed_form(n, (j, ell)) == expected
            assert k_word_product(n, (j, ell)) == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_ordered_products_patterns(n):
    for s in range(2, n + 1):
        # ascending 1..s: zeroed diagonal above, -1 right of it, row s alternating
        up = identity_matrix(n)
        for j in range(1, s + 1):
            up = mat_add(up, mat_scale(basis_outer(n, j, j), -1))
        for j in range(1, s):
            up = mat_add(up, mat_scale(basis_outer(n, j, j + 1), -1))
        up = mat_add(up, pivot_outer(n, s))
        assert product_closed_form(n, range(1, s + 1)) == up

        # descending n..n-s+1
        down = identity_matrix(n)
        for j in range(1, s + 1):
            down = mat_add(down, mat_scale(basis_outer(n, n - j + 1, n - j + 1), -1))
        for j in range(1, s):
            down = mat_add(down, mat_scale(basis_outer(n, n - j + 1, n - j), -1))
        down = mat_add(down, pivot_outer(n, n - s + 1))
        assert product_closed_form(n, range(n, n - s, -1)) == down


@pytest.mark.parametrize("n", range(2, 9))
def test_reversed_products_patterns(n):
    for s in range(2, n + 1):
        rev = identity_matrix(n)
        for j in range(1, s + 1):
            rev = mat_add(rev, mat_scale(basis_outer(n, j, j), -1))
        for j in range(2, s + 1):
            rev = mat_add(rev, mat_scale(basis_outer(n, j, j - 1), -1))
        rev = mat_add(rev, pivot_outer(n, 1))
        assert product_closed_form(n, range(s, 0, -1)) == rev

        tail = identity_matrix(n)
        for j in range(1, s + 1):
            tail = mat_add(tail, mat_scale(basis_outer(n, n - j + 1, n - j + 1), -1))
        for j in range(2, s + 1):
            tail = mat_add(tail, mat_scale(basis_outer(n, n - j + 1, n - j + 2), -1))
        tail = mat_add(tail, pivot_outer(n, n))
        assert product_closed_form(n, range(n - s + 1, n + 1)) == tail


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_one_identities(n):
    for j in range(1, n + 1):
        row = alternating_row(n, j)
        assert row[j - 1] == -1
        assert sum(v * v for v in row) == n
        for ell in range(1, n + 1):
            assert row[ell - 1] == sign_pow(j + ell - 1)
            assert alternating_row(n, ell)[j - 1] == row[ell - 1]
            if ell != j:
                lhs = mat_mul(pivot_outer(n, ell), pivot_outer(n, j))
                assert lhs == mat_scale(pivot_outer(n, ell), -1)
        for k in range(1, n + 1):
            assert mat_pow(pivot_outer(n, j), k) == mat_scale(
                pivot_outer(n, j), sign_pow(k + 1)
            )


def test_left_multiplication_changes_one_row():
    rng = random.Random(4242)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = SmallIntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        j = rng.randint(1, n)
        left = mat_mul(make_k(n, j), m)
        for i in range(1, n + 1):
            if i != j:
                assert left.row(i) == m.row(i)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closed_form_matches_brute_force(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    s = data.draw(st.integers(min_value=1, max_value=n))
    js = tuple(
        data.draw(
            st.permutations(range(1, n + 1)).map(lambda p: p[:s]),
            label="distinct indices",
        )
    )
    assert product_closed_form(n, js) == k_word_product(n, js)


def _assert_closed_form_is_the_word_product(n, js):
    closed = product_closed_form(n, js)
    assert closed == k_word_product(n, js)
    assert set(closed.entries) <= {-1, 0, 1}


def test_closed_form_is_the_word_product_on_every_tuple_up_to_n5():
    # the closed form writes only 0 and +-1 and is not scanned for them
    # afterwards; this holds it to the word product on every tuple instead
    for n in range(1, 6):
        for s in range(1, n + 1):
            for js in permutations(range(1, n + 1), s):
                _assert_closed_form_is_the_word_product(n, js)


def test_closed_form_is_the_word_product_on_random_tuples_at_n8():
    rng = random.Random(4708)
    for _ in range(500):
        js = tuple(rng.sample(range(1, 9), rng.randint(1, 8)))
        _assert_closed_form_is_the_word_product(8, js)


def test_a_non_integer_dimension_is_refused():
    # a float dimension once built a matrix that failed later in str(),
    # rows() and mat_mul, or failed as "can't multiply sequence by non-int"
    float_index = "'float' object cannot be interpreted as an integer"
    for build in (
        lambda: SmallIntMatrix(2.0, (1, 0, 0, 1)),
        lambda: product_closed_form(3.0, (1, 2)),
        lambda: make_k(3.0, 1),
        lambda: alternating_row(3, 1.0),
        lambda: alternating_row(3.0, 1),
        lambda: pivot_outer(3.0, 1),
        lambda: identity_matrix(2.0),
        lambda: full_cycle_matrix(3.0),
        lambda: k_word_product(3.0, (1,)),
        lambda: intmat.stack(3.0, []),
        lambda: identity_matrix(2).row(1.0),
    ):
        with pytest.raises(TypeError, match=float_index):
            build()
    # a numpy integer dimension is taken as the exact int
    for m in (
        product_closed_form(np.int64(3), (1, 2)),
        SmallIntMatrix(np.int64(2), (1, 0, 0, 1)),
        make_k(np.int32(3), np.int64(2)),
        identity_matrix(np.uint8(2)),
    ):
        assert type(m.n) is int
        assert mat_mul(m, m).n == m.n and str(m)
    assert product_closed_form(np.int64(3), (1, 2)) == product_closed_form(3, (1, 2))
    assert alternating_row(np.int64(3), np.int64(1)) == (-1, 1, -1)


def test_product_closed_form_refuses_float_indices():
    # a float index was truncated: (1.5, 2.9) gave the product for (1, 2)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        product_closed_form(3, (1.5, 2.9))
    product = product_closed_form(3, (np.int64(1), np.int64(2)))
    assert product == product_closed_form(3, (1, 2))
    assert all(type(v) is int for v in product.entries)
