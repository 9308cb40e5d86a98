"""The order of one word's steps in the closed-form suite: its closed form
first, then its brute-force product, then the check, as the loop oracle
takes them."""

from brute_force import loop_closed_form_suite, loop_k_word_product

from aughts import intmat, verify
from aughts.intmat import SmallIntMatrix, UnitEntryError


def test_a_word_whose_closed_form_and_product_both_raise(monkeypatch):
    # a 1 above the diagonal of K(4) at n = 6 makes some running products
    # carry a 2; the closed form of each such word raises too, with its own
    # text, which is reported because the closed form comes first
    true_make_k = intmat.make_k
    true_closed_form = intmat.product_closed_form

    def make_k(n, j):
        m = true_make_k(n, j)
        if (n, j) != (6, 4):
            return m
        entries = list(m.entries)
        entries[2 * n + 3] = 1  # row 3, column 4
        return SmallIntMatrix(n, tuple(entries))

    def product_closed_form(n, js):
        try:
            loop_k_word_product(n, js)
        except UnitEntryError:
            raise UnitEntryError(f"closed form of {js} refused") from None
        return true_closed_form(n, js)

    monkeypatch.setattr(intmat, "make_k", make_k)
    monkeypatch.setattr(intmat, "product_closed_form", product_closed_form)
    stacked, loop = verify.closed_form_suite(8), loop_closed_form_suite(8)
    assert (stacked.checks, stacked.counterexample) == (loop.checks, loop.counterexample)
    assert stacked.counterexample.startswith("UnitEntryError: closed form of (")
