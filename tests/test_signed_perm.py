"""Symbolic (sigma, h, eps) elements against the matrix oracle."""

import random
from itertools import permutations, product

import numpy as np
import pytest
from brute_force import element_order, zero_matrix

from aughts.atlas import catalog, verify_isomorphism
from aughts.intmat import SmallIntMatrix, identity_matrix, make_k, mat_mul
from aughts.signed_perm import (
    NotGroupElementError,
    Permutation,
    SignedPermElement,
    format_element,
    generator,
    identity_element,
    matrix_to_msih,
    msih_inverse,
    msih_mul,
    parse_element,
    to_matrix,
)


def all_elements(n):
    out = []
    for images in permutations(range(1, n + 1)):
        sigma = Permutation.of(images)
        out.append(SignedPermElement.of(sigma, 1, 0))
        for h in range(1, n + 1):
            out.append(SignedPermElement.of(sigma, h, 1))
    return out


def random_element(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    eps = rng.randint(0, 1)
    return SignedPermElement.of(Permutation.of(images), rng.randint(1, n), eps)


def test_permutation_basics():
    p = Permutation.of([2, 3, 1])
    assert p.apply(1) == 2
    assert p.inverse().images == (3, 1, 2)
    assert p.then(p.inverse()).is_identity()
    assert p.order() == 3
    assert Permutation.transposition(4, 1, 3).images == (3, 2, 1, 4)
    with pytest.raises(ValueError):
        Permutation.of([1, 1, 2])


def test_composition_convention():
    # in a.then(b) the permutation a acts first
    a = Permutation.of([2, 1, 3])
    b = Permutation.of([1, 3, 2])
    assert a.then(b).images == (3, 1, 2)


def test_to_matrix_generators():
    for n in range(1, 6):
        for h in range(1, n + 1):
            assert to_matrix(generator(n, h)) == make_k(n, h)
    assert to_matrix(identity_element(4)) == identity_matrix(4)


def test_to_matrix_swap_example():
    e = SignedPermElement.of(Permutation.of([2, 1, 3]), 1, 0)
    assert to_matrix(e).rows() == ((0, -1, 0), (-1, 0, 0), (0, 0, 1))


def test_eps0_normalizes_pivot():
    e = SignedPermElement.of(Permutation.of([2, 1]), 2, 0)
    assert e.h == 1
    assert e == SignedPermElement.of(Permutation.of([2, 1]), 1, 0)
    # the bare constructor normalizes too
    sigma = Permutation((2, 3, 1))
    assert SignedPermElement(sigma, 3, 0).h == 1
    assert hash(SignedPermElement(sigma, 3, 0)) == hash(SignedPermElement(sigma, 1, 0))


def test_msih_mul_identity_and_involution():
    ident = identity_element(3)
    assert msih_mul(ident, ident) == ident
    for j in range(1, 4):
        assert msih_mul(generator(3, j), generator(3, j)) == ident


def test_msih_mul_degree_mismatch():
    with pytest.raises(ValueError):
        msih_mul(identity_element(3), identity_element(4))


@pytest.mark.parametrize("h", [0, 4])
def test_a_flagged_pivot_outside_1_to_n_is_refused(h):
    # the constructor checks the pivot whatever the flag, so no product or
    # inverse meets a pivot outside 1..n; generator has no check of its own
    sigma = Permutation.of((2, 3, 1))
    for eps in (1, 0):
        with pytest.raises(ValueError, match=f"pivot {h} out of range 1..3"):
            SignedPermElement(sigma, h, eps)
    with pytest.raises(ValueError, match=f"pivot {h} out of range 1..3"):
        generator(3, h)


def test_a_flag_outside_0_and_1_is_refused():
    # msih_mul and msih_inverse read (2 3 1, 1, 2) as flagged and to_matrix
    # as unflagged when the constructor let it through
    with pytest.raises(ValueError, match="eps must be 0 or 1, got 2"):
        SignedPermElement(Permutation.of((2, 3, 1)), 1, 2)
    with pytest.raises(ValueError, match="eps must be 0 or 1, got -1"):
        SignedPermElement.of(Permutation.of((2, 3, 1)), 1, -1)


def test_the_constructors_refuse_what_is_not_a_permutation():
    for images in ((1, 1, 3), (0, 1, 2), (1, 2, 4), (2,)):
        with pytest.raises(ValueError, match="not a permutation of 1.."):
            Permutation(images)
    with pytest.raises(TypeError):
        SignedPermElement((2, 1), 1, 0)
    assert Permutation([2, 1]).images == (2, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trusted_results_equal_their_checked_rebuilds(n):
    # msih_mul, msih_inverse, the catalog and the isomorphism build their
    # results unchecked; each must be what the checked constructors make
    def rebuilt(e):
        return SignedPermElement(Permutation(e.sigma.images), e.h, e.eps)

    def exact(e):
        fields = (e.h, e.eps) + e.sigma.images
        return e == rebuilt(e) and all(type(v) is int for v in fields)

    elements = catalog(n).elements
    assert all(exact(e) for e in elements)
    for a in elements:
        assert exact(msih_inverse(a))
        assert all(exact(msih_mul(a, b)) for b in elements)
    for sigma in {e.sigma for e in elements}:
        assert sigma.inverse() == Permutation(sigma.inverse().images)
        assert sigma.then(sigma) == Permutation(sigma.then(sigma).images)
    witness = verify_isomorphism(n)
    for p in witness.forward.values():
        assert p == Permutation(p.images) and all(type(v) is int for v in p.images)


def test_oracle_all_pairs_n3():
    elements = all_elements(3)
    assert len(elements) == 24
    mats = {e: to_matrix(e) for e in elements}
    for a in elements:
        for b in elements:
            assert to_matrix(msih_mul(a, b)) == mat_mul(mats[a], mats[b])


def test_oracle_random_pairs_n4():
    rng = random.Random(883)
    for _ in range(200):
        a, b = random_element(4, rng), random_element(4, rng)
        assert to_matrix(msih_mul(a, b)) == mat_mul(to_matrix(a), to_matrix(b))


def test_inverse_generators_self_inverse():
    for n in range(1, 6):
        for h in range(1, n + 1):
            g = generator(n, h)
            assert msih_inverse(g) == g


def test_inverse_flag_free():
    sigma = Permutation.of([3, 1, 2])
    e = SignedPermElement.of(sigma, 1, 0)
    assert msih_inverse(e) == SignedPermElement.of(sigma.inverse(), 1, 0)


def test_inverse_law_random_n5():
    rng = random.Random(97)
    ident = identity_element(5)
    for _ in range(100):
        e = random_element(5, rng)
        assert msih_mul(e, msih_inverse(e)) == ident
        assert msih_mul(msih_inverse(e), e) == ident


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_round_trip_and_inverse_all_elements(n):
    ident = identity_element(n)
    for e in all_elements(n):
        assert matrix_to_msih(to_matrix(e)) == e
        assert msih_mul(e, msih_inverse(e)) == ident


def test_matrix_to_msih_examples():
    assert matrix_to_msih(make_k(3, 2)) == generator(3, 2)
    assert matrix_to_msih(identity_matrix(4)) == identity_element(4)
    # K(2)K(4)K(2): flag-free element whose permutation swaps 2 and 4
    m = mat_mul(mat_mul(make_k(4, 2), make_k(4, 4)), make_k(4, 2))
    decoded = matrix_to_msih(m)
    assert decoded.eps == 0
    assert decoded.sigma.images == (1, 4, 3, 2)
    assert to_matrix(decoded) == m


def test_matrix_to_msih_rejects_non_elements():
    with pytest.raises(NotGroupElementError):
        matrix_to_msih(zero_matrix(3))
    with pytest.raises(NotGroupElementError):
        matrix_to_msih(SmallIntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(NotGroupElementError):
        # right sign pattern, but columns collide
        matrix_to_msih(SmallIntMatrix.from_rows([[1, 0], [-1, 0]]))
    with pytest.raises(NotGroupElementError):
        # two full rows
        matrix_to_msih(SmallIntMatrix.from_rows([[-1, 1], [1, -1]]))


@pytest.mark.parametrize("n, values", [(1, (-1, 0, 1, 2)), (2, (-1, 0, 1, 2)), (3, (-1, 0, 1))])
def test_matrix_to_msih_decodes_exactly_the_group_matrices(n, values):
    # every matrix with entries in ``values``: the decoder returns e exactly
    # on to_matrix(e) and raises NotGroupElementError on every other one
    encoded = {to_matrix(e): e for e in catalog(n).elements}
    decoded = {}
    for entries in product(values, repeat=n * n):
        m = SmallIntMatrix(n, entries)
        try:
            decoded[m] = matrix_to_msih(m)
        except NotGroupElementError:
            pass
    assert decoded == encoded


def test_element_order_small():
    assert element_order(identity_element(3)) == 1
    assert element_order(generator(3, 1)) == 2
    assert element_order(msih_mul(generator(3, 1), generator(3, 2))) == 3


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        e = random_element(4, rng)
        assert parse_element(format_element(e)) == e
    assert format_element(generator(3, 2)) == "M(sigma=[1,2,3];h=2;eps=1)"
    assert parse_element("M(σ=[2,1];h=1;eps=0)") == SignedPermElement.of(
        Permutation.of([2, 1]), 1, 0
    )
    with pytest.raises(ValueError):
        parse_element("not an element")


def test_permutation_of_refuses_float_images():
    # float images were truncated: (1.7, 2.2) became (1, 2)
    with pytest.raises(TypeError):
        Permutation.of((1.7, 2.2))
    with pytest.raises(TypeError):
        Permutation((1.7, 2.2))
    for sigma in (Permutation.of(np.array([2, 3, 1])), Permutation(np.array([2, 3, 1]))):
        assert sigma == Permutation((2, 3, 1))
        assert all(type(v) is int for v in sigma.images)


def test_element_of_refuses_float_pivot_and_flag():
    # h=2.0, eps=1.0 were kept as floats and printed as "h=2.0;eps=1.0"
    sigma = Permutation.identity(3)
    with pytest.raises(TypeError):
        SignedPermElement.of(sigma, 2.0, 1.0)
    with pytest.raises(TypeError):
        SignedPermElement.of(sigma, 2, 1.0)
    with pytest.raises(TypeError):
        SignedPermElement(sigma, 2, 1.0)
    for e in (
        SignedPermElement.of(sigma, np.int64(2), np.int64(1)),
        SignedPermElement(sigma, np.int64(2), np.int64(1)),
    ):
        assert e == generator(3, 2)
        assert type(e.h) is int and type(e.eps) is int
        assert format_element(e) == "M(sigma=[1,2,3];h=2;eps=1)"
