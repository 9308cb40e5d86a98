"""Group enumeration, Cayley distances, cosets and the symmetric-group map."""

import random
from collections import Counter
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from brute_force import (
    all_pairs_homomorphism,
    bfs_catalog,
    coset_decomposition,
    element_order,
    embed_element,
    json_fields,
    lehmer_rank,
    psi_of_word,
    random_word_element,
)

from aughts import atlas, verify
from aughts.atlas import (
    ConsistencyError,
    catalog,
    catalog_json,
    enumerate_group,
    full_cycle_order_via_sym,
    order_spectrum,
    psi,
    verify_isomorphism,
)
from aughts.intmat import mat_mul
from aughts.signed_perm import (
    Permutation,
    SignedPermElement,
    format_element,
    generator,
    identity_element,
    msih_inverse,
    msih_mul,
    to_matrix,
)


@pytest.mark.parametrize("n,size", [(1, 2), (2, 6), (3, 24), (4, 120), (5, 720)])
def test_group_sizes(n, size):
    assert len(enumerate_group(n)) == size


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_group(0)
    with pytest.raises(ValueError):
        enumerate_group(8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_catalog_matches_bfs_oracle(n):
    cat = enumerate_group(n)
    elements, distance, parent = bfs_catalog(n)
    assert cat.elements == elements
    assert cat.distance.tolist() == distance
    links = list(zip(cat.parent.tolist(), cat.via.tolist()))
    assert links[0] == (-1, 0) and parent[0] is None
    assert links[1:] == parent[1:]
    assert cat.rank.tolist() == [lehmer_rank(e) for e in elements]
    assert cat.position[cat.rank].tolist() == list(range(len(elements)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_left_tables_match_msih_mul(n):
    tables = atlas.left_tables(n)
    elements = catalog(n).elements
    ranks = [lehmer_rank(e) for e in elements]
    assert ranks[0] == 0
    assert sorted(ranks) == list(range(factorial(n + 1)))
    rank_of = dict(zip(elements, ranks))
    for j in range(1, n + 1):
        g = generator(n, j)
        assert tables[j - 1, ranks].tolist() == [rank_of[msih_mul(g, e)] for e in elements]


def test_permutations_table_is_built_once_and_read_only():
    # left_tables, psi_table and catalog_chunks share one table per n
    atlas._permutations.cache_clear()
    for n in (1, 4, 7):
        perms = atlas._permutations(n)
        assert perms is atlas._permutations(n) and not perms.flags.writeable
        assert perms.tolist() == [list(p) for p in permutations(range(1, n + 1))]
    atlas._permutations.cache_clear()
    list(atlas.catalog_chunks(catalog(7)))
    assert atlas._permutations.cache_info().misses == 1


def test_cayley_distances_n3():
    cat = catalog(3)
    hist = cat.distance_histogram()
    assert hist == {0: 1, 1: 3, 2: 6, 3: 9, 4: 5}
    assert sum(hist.values()) == 24


def test_words_reconstruct_elements():
    cat = catalog(3)
    for e in cat.elements:
        acc = identity_element(3)
        for j in cat.word(e):
            acc = msih_mul(acc, generator(3, j))
        assert acc == e
        assert len(cat.word(e)) == cat.distance_of(e)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_psi_table_rows_match_scalar_psi(n):
    table = atlas.psi_table(n)
    assert table.shape == (factorial(n + 1), n + 1) and table.dtype == np.int8
    cat = catalog(n)
    assert table[cat.rank].tolist() == [list(psi(e, n).images) for e in cat.elements]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_order_spectrum_matches_scalar_psi_orders(n):
    cat = catalog(n)
    assert order_spectrum(cat) == Counter(psi(e, n).order() for e in cat.elements)


def test_catalog_lookups_refuse_elements_outside_it():
    # an element of another degree has no rank in the catalog, and a triple
    # that names no element cannot be built
    cat = catalog(3)
    e = identity_element(4)
    assert e not in cat.elements
    with pytest.raises(ValueError, match="not in catalog"):
        cat.distance_of(e)
    with pytest.raises(ValueError, match="not in catalog"):
        cat.word(e)
    identity = Permutation.identity(3)
    for h, eps in ((4, 1), (0, 1), (1, 2)):
        with pytest.raises(ValueError):
            SignedPermElement(identity, h, eps)
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 1, 3))
    # the unflagged pivot is normalized, so this triple is the identity
    assert cat.word(SignedPermElement(identity, 2, 0)) == ()
    assert cat.word(SignedPermElement.of(identity, 2, 1)) == (2,)


def test_order_spectrum():
    assert order_spectrum(catalog(3)) == {1: 1, 2: 9, 3: 8, 4: 6}
    assert order_spectrum(catalog(2)) == {1: 1, 2: 3, 3: 2}
    assert 12 not in order_spectrum(catalog(3))
    # orders read off psi equal those found by repeated products
    for n in range(1, 7):
        elements = catalog(n).elements
        oracle = dict(sorted(Counter(element_order(e) for e in elements).items()))
        assert order_spectrum(catalog(n)) == oracle


def test_coset_decomposition():
    blocks3 = coset_decomposition(catalog(3))
    assert len(blocks3) == 4
    assert all(len(b) == 6 for b in blocks3.values())
    assert identity_element(3) in blocks3[0]
    blocks2 = coset_decomposition(catalog(2))
    assert len(blocks2) == 3
    assert all(len(b) == 2 for b in blocks2.values())
    # left-multiplying the flag-free block by K(j) lands in block j
    for sigma_elt in blocks3[0]:
        for j in range(1, 4):
            moved = msih_mul(generator(3, j), sigma_elt)
            assert moved in blocks3[j]


@pytest.mark.parametrize("n", range(1, 7))
def test_coset_blocks_are_rank_residues(n):
    # verify's group suite counts the coset blocks off the ranks
    cat = catalog(n)
    sizes = np.bincount(cat.rank % (n + 1), minlength=n + 1)
    blocks = coset_decomposition(cat)
    assert sizes.tolist() == [len(blocks[key]) for key in range(n + 1)]


def test_catalog_arrays_are_read_only():
    cat = catalog(3)
    before = cat.distance_histogram()
    for array in (cat.rank, cat.distance, cat.parent, cat.via, cat.position):
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(ValueError):
        cat.distance[:] = 0
    assert catalog(3).distance_histogram() == before == {0: 1, 1: 3, 2: 6, 3: 9, 4: 5}


def test_psi_generators_and_identity():
    assert psi(generator(3, 1), 3) == Permutation.transposition(4, 1, 2)
    assert psi(identity_element(3), 3) == Permutation.identity(4)
    kkk = msih_mul(msih_mul(generator(3, 1), generator(3, 2)), generator(3, 1))
    assert psi(kkk, 3) == Permutation.transposition(4, 2, 3)


def test_psi_rejects_foreign_degree():
    with pytest.raises(ValueError):
        psi(identity_element(3), 4)


def test_psi_builds_no_catalog():
    before = atlas.catalog.cache_info().currsize
    assert psi(generator(7, 3), 7) == Permutation.transposition(8, 1, 4)
    assert atlas.catalog.cache_info().currsize == before


def _nontrivial_cycles(p):
    seen, count = set(), 0
    for start in range(1, p.degree + 1):
        if start in seen or p.apply(start) == start:
            continue
        count += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = p.apply(j)
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_psi_and_star_graph_distances(n):
    # star graph ST_(n+1): distance m + c - 2*[symbol 1 moved], diameter 3n/2
    cat = catalog(n)
    for e in cat.elements:
        image = psi(e, n)
        assert image == psi_of_word(n, cat.word(e))
        moved = sum(v != j for j, v in enumerate(image.images, start=1))
        star = moved + _nontrivial_cycles(image) - 2 * (image.apply(1) != 1)
        assert cat.distance_of(e) == star, e
    assert max(cat.distance) == 3 * n // 2


def _conjugated_psi_table(c):
    """psi_table with every row conjugated by the permutation c: still a
    bijective homomorphism, but K(j) goes to the wrong transpositions."""
    true_table = atlas.psi_table
    images = np.array(c.images, dtype=np.int8)
    inverse = np.argsort(images)
    return lambda n: images[true_table(n)[:, inverse] - 1]


def test_verify_isomorphism_pins_generator_images(monkeypatch):
    monkeypatch.setattr(atlas, "psi_table", _conjugated_psi_table(Permutation.of((2, 3, 1, 4))))
    with pytest.raises(ConsistencyError, match="psi"):
        verify_isomorphism(3)


def test_conjugated_psi_table_is_the_conjugated_scalar_psi():
    c = Permutation.of((2, 3, 1, 4))
    table = _conjugated_psi_table(c)(3)
    cat = catalog(3)
    assert table[cat.rank].tolist() == [
        list(c.inverse().then(psi(e, 3)).then(c).images) for e in cat.elements
    ]


def _swap_images(x, y):
    """psi_table with the rows of the elements x and y exchanged: still a
    bijection."""
    true_table = atlas.psi_table

    def table(n):
        out = true_table(n)
        out[[lehmer_rank(x), lehmer_rank(y)]] = out[[lehmer_rank(y), lehmer_rank(x)]]
        return out

    return table


def test_verify_isomorphism_rejects_one_wrong_image(monkeypatch):
    # the two elements farthest from the identity are no generators, so only
    # the homomorphism law can catch the swap
    cat = catalog(5)
    monkeypatch.setattr(atlas, "psi_table", _swap_images(cat.elements[-1], cat.elements[-2]))
    # the first failing pair in BFS order, as the scalar check reported it
    with pytest.raises(ConsistencyError) as failure:
        verify_isomorphism(5)
    assert str(failure.value) == (
        "homomorphism fails at M(sigma=[1,2,3,4,5];h=1;eps=1) * M(sigma=[2,4,5,1,3];h=1;eps=1)"
    )
    monkeypatch.setattr(atlas, "psi_table", _swap_images(cat.elements[0], cat.elements[-1]))
    with pytest.raises(ConsistencyError, match="identity"):
        verify_isomorphism(5)


def test_verify_isomorphism_rejects_a_repeated_image(monkeypatch):
    cat = catalog(4)
    true_table = atlas.psi_table

    def repeated(n):
        out = true_table(n)
        out[lehmer_rank(cat.elements[-1])] = out[lehmer_rank(cat.elements[-2])]
        return out

    monkeypatch.setattr(atlas, "psi_table", repeated)
    with pytest.raises(ConsistencyError, match="not injective"):
        verify_isomorphism(4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_isomorphism_agrees_with_all_pairs_oracle(monkeypatch, n):
    elements = catalog(n).elements
    assert all_pairs_homomorphism(elements, lambda e: psi(e, n)) is None
    verify_isomorphism(n)
    if n == 1:
        return  # no element beyond the identity and K(1)
    wrong = _swap_images(elements[-1], elements[-2])(n)

    def image(e):
        return Permutation(tuple(wrong[lehmer_rank(e)].tolist()))

    assert all_pairs_homomorphism(elements, image) is not None
    monkeypatch.setattr(atlas, "psi_table", lambda m: wrong)
    with pytest.raises(ConsistencyError):
        verify_isomorphism(n)


@pytest.mark.parametrize("n", [5, 6])
def test_generator_products_are_matrix_products(n):
    # the generator-only check in verify_isomorphism needs the symbolic
    # product to be the (associative) matrix product
    elements = catalog(n).elements
    mats = [to_matrix(e) for e in elements]
    for j in range(1, n + 1):
        g = generator(n, j)
        gm = to_matrix(g)
        for e, m in zip(elements, mats):
            assert to_matrix(msih_mul(g, e)) == mat_mul(gm, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_verify_isomorphism(n):
    witness = verify_isomorphism(n)
    assert witness.size == factorial(n + 1)
    assert len(witness.forward) == factorial(n + 1)
    assert len(witness.backward) == factorial(n + 1)


def test_witness_is_hashable():
    # its fields are n and size; the maps are decoded apart from them
    witness = verify_isomorphism(2)
    assert hash(witness) == hash(verify_isomorphism(2))
    assert witness == verify_isomorphism(2) and witness != verify_isomorphism(3)
    assert len({witness, verify_isomorphism(2)}) == 1


def test_run_all_leaves_the_witnesses_undecoded(monkeypatch):
    witnesses = []

    def recorded(n):
        witnesses.append(verify_isomorphism(n))
        return witnesses[-1]

    monkeypatch.setattr(atlas, "verify_isomorphism", recorded)
    assert all(suite.passed for suite in verify.run_all(7))
    assert [w.n for w in witnesses] == list(range(1, 8))
    for w in witnesses:
        assert "forward" not in vars(w) and "backward" not in vars(w)
    # read later, the maps are the direct decode through the catalog
    for w in witnesses:
        cat = catalog(w.n)
        direct = {e: psi(e, w.n) for e in cat.elements}
        assert w.forward == direct and list(w.forward) == cat.elements
        assert w.backward == {p: e for e, p in direct.items()}
        assert len(w.backward) == w.size == factorial(w.n + 1)


def test_left_tables_run_once_per_catalog(monkeypatch):
    calls = []
    true_tables = atlas.left_tables

    def counted(n):
        calls.append(n)
        return true_tables(n)

    monkeypatch.setattr(atlas, "left_tables", counted)
    cat = enumerate_group(4)
    assert calls == [4] and not cat.tables.flags.writeable
    monkeypatch.setattr(atlas, "catalog", lambda n: cat)
    verify_isomorphism(4)
    assert calls == [4]
    assert cat.tables.tolist() == true_tables(4).tolist()


def test_isomorphism_preserves_orders_n3():
    witness = verify_isomorphism(3)
    for e, p in witness.forward.items():
        assert element_order(e) == p.order()


def test_isomorphism_guard():
    # the bound is the catalog's, 1..ENUMERATION_MAX_N
    for n in (0, 8):
        with pytest.raises(ValueError):
            verify_isomorphism(n)


def test_psi_word_independence():
    # random words evaluate to the same image as the BFS word of the element
    rng = random.Random(1009)
    cat = catalog(4)
    for _ in range(1000):
        e, word = random_word_element(4, rng)
        assert psi_of_word(4, word) == cat.psi_image(e)


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 3), (3, 4), (6, 7), (10, 11)])
def test_full_cycle_order_via_sym(n, expected):
    assert full_cycle_order_via_sym(n) == expected


def test_tower_embedding_homomorphism():
    rng = random.Random(31)
    cat = catalog(3)
    elements = cat.elements
    for _ in range(200):
        a = rng.choice(elements)
        b = rng.choice(elements)
        assert embed_element(msih_mul(a, b)) == msih_mul(
            embed_element(a), embed_element(b)
        )
    for e in elements:
        lifted = embed_element(e)
        assert lifted.degree == 4
        assert (lifted.h, lifted.eps) == (e.h, e.eps)
        assert lifted in catalog(4).elements


def test_flag_free_subgroup_isomorphic_to_sym():
    # sigma -> M(sigma,1,0)^-1 turns standard composition into the product
    from itertools import permutations

    n = 3
    perms = [Permutation.of(p) for p in permutations(range(1, n + 1))]

    def f(p):
        return msih_inverse(SignedPermElement.of(p, 1, 0))

    for x in perms:
        for y in perms:
            composed = y.then(x)  # standard (x o y)(j) = x(y(j))
            assert f(composed) == msih_mul(f(x), f(y))
    # closure of the flag-free block
    for x in perms:
        for y in perms:
            prod = msih_mul(
                SignedPermElement.of(x, 1, 0), SignedPermElement.of(y, 1, 0)
            )
            assert prod.eps == 0


def test_flag_free_subgroup_not_normal():
    cat = catalog(3)
    flag_free = {e for e in cat.elements if e.eps == 0}
    found = False
    for g in cat.elements:
        conjugated = {
            msih_mul(msih_mul(g, e), msih_inverse(g)) for e in flag_free
        }
        if conjugated != flag_free:
            found = True
            break
    assert found


def test_catalog_json_shape():
    payload = catalog_json(catalog(2))
    assert payload["schema_version"] == 1
    assert payload["order"] == 6
    assert len(payload["elements"]) == 6
    first = payload["elements"][0]
    assert set(first) == {"sigma", "h", "eps", "text", "distance", "word", "psi"}
    assert first["distance"] == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_catalog_records_match_the_parent_chain(n):
    # the export before words were built from the parent's word: a walk up
    # the parent chain and an index lookup per element
    cat = catalog(n)
    expected = [
        {
            "sigma": list(e.sigma.images),
            "h": e.h,
            "eps": e.eps,
            "text": format_element(e),
            "distance": cat.distance_of(e),
            "word": list(cat.word(e)),
            "psi": list(cat.psi_image(e).images),
        }
        for e in cat.elements
    ]
    assert catalog_json(cat) == {
        "schema_version": 1,
        "kind": "group-catalog",
        "n": n,
        "order": factorial(n + 1),
        "elements": expected,
    }


def test_catalog_export_entries_are_one_digit():
    # catalog_chunks lays out each sigma, h, eps, word and psi entry as one
    # digit, and each is at most n + 1: the cap may rise to 8, no further,
    # and a wider catalog is refused before any byte is written
    assert atlas.ENUMERATION_MAX_N + 1 <= 9
    wide = atlas.GroupCatalog(9, *(np.zeros(0, dtype=np.int32) for _ in range(6)))
    with pytest.raises(ConsistencyError, match="n <= 8, got 9"):
        next(atlas.catalog_chunks(wide))


def _export_records(cat):
    """The text inside the braces of each element record of the joined
    export, split out at the boundaries between records."""
    text = "".join(atlas.catalog_chunks(cat))
    head, tail = '"elements": [\n    {', "\n    }\n  ]\n}"
    assert text.endswith(tail)
    return text[text.index(head) + len(head) : -len(tail)].split("\n    },\n    {")


@pytest.mark.parametrize("n", range(1, 8))
def test_catalog_export_goes_out_one_chunk_per_run(n):
    # the header, one chunk per run of at most 512 records of one BFS level,
    # then the closing brackets
    cat = catalog(n)
    chunks = list(atlas.catalog_chunks(cat))
    runs = sum(-(-size // atlas._RUN) for size in np.bincount(cat.distance).tolist())
    assert len(chunks) == runs + 2
    assert chunks[0].endswith('"elements": [\n') and chunks[-1] == "\n  ]\n}"


def test_catalog_records_at_distance_10():
    # n = 7 is the one catalog whose diameter, 10, has two digits: each of
    # its records at distance 10 is laid out field by field from its own
    # element
    cat = catalog(7)
    records = _export_records(cat)
    far = np.flatnonzero(cat.distance == 10).tolist()
    assert len(records) == len(cat) and len(far) == 315
    for i in far:
        e = cat.elements[i]
        record = {
            "sigma": list(e.sigma.images),
            "h": e.h,
            "eps": e.eps,
            "text": format_element(e),
            "distance": cat.distance_of(e),
            "word": list(cat.word(e)),
            "psi": list(psi(e, 7).images),
        }
        assert records[i] == f"\n{json_fields(record, 2)}"


@pytest.mark.parametrize("n", range(1, 8))
def test_catalog_records_of_a_level_share_one_length(n):
    cat = catalog(n)
    lengths = {}
    for distance, record in zip(cat.distance.tolist(), _export_records(cat), strict=True):
        lengths.setdefault(distance, set()).add(len(record))
    assert list(lengths) == list(range(len(lengths)))
    assert all(len(sizes) == 1 for sizes in lengths.values())


def test_consistency_error_is_runtime_error():
    assert issubclass(ConsistencyError, RuntimeError)


def test_catalog_cache_returns_same_object():
    assert catalog(2) is catalog(2)
    assert atlas.catalog(3).n == 3
