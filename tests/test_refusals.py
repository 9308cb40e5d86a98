"""Library refusals that no CLI command reaches: each call raises ValueError
with its message, and the empty rect answers 0.0."""

import pytest

from aughts.atlas import full_cycle_order_via_sym
from aughts.census import Region, diametral_census, square_orbit_sums
from aughts.intmat import full_cycle_matrix, make_k, mat_pow, matrix_order
from aughts.orbits import cycle_points, run_word
from aughts.signed_perm import Permutation
from aughts.svg import RenderSpec

CASES = {
    "run_word-empty-point": (lambda: run_word((), ()), "at least one coordinate"),
    "cycle_points-generator-3": (lambda: cycle_points((1, 2), 3), "first_generator must be 1 or 2"),
    "mat_pow-negative": (lambda: mat_pow(make_k(3, 1), -1), "negative powers"),
    "matrix_order-limit-1": (
        lambda: matrix_order(make_k(3, 1), limit=1), "no multiplicative order found up to 1"
    ),
    "full_cycle_matrix-left": (lambda: full_cycle_matrix(3, "left"), "direction must be"),
    "then-degree-mismatch": (
        lambda: Permutation((2, 1)).then(Permutation((1, 2, 3))), "degree mismatch"
    ),
    "full_cycle_order_via_sym-0": (lambda: full_cycle_order_via_sym(0), "n must be >= 1"),
    "square_orbit_sums-modulus-0": (lambda: square_orbit_sums(5, 0), "modulus must be >= 1"),
    "RenderSpec-unknown-mode": (
        lambda: RenderSpec(Region.square(3), "polar"), "unknown render mode"
    ),
    "RenderSpec-mod-color-modulus-1": (
        lambda: RenderSpec(Region.square(3), "mod_color", modulus=1), "modulus >= 2"
    ),
    "RenderSpec-single-orbit-no-seed": (
        lambda: RenderSpec(Region.square(3), "single_orbit"), "requires a seed point"
    ),
    # a scanned mode reads its region; only single_orbit goes without one
    "RenderSpec-mod-color-no-region": (
        lambda: RenderSpec(None, "mod_color", modulus=3), "^mod_color requires a region$"
    ),
    "RenderSpec-diametral-no-region": (
        lambda: RenderSpec(None, "diametral"), "^diametral requires a region$"
    ),
    "RenderSpec-projection-no-region": (
        lambda: RenderSpec(None, "projection"), "^projection requires a region$"
    ),
    # an empty rect holds no points, and its fraction is 0.0, not a division by 0
    "diametral_census-empty-rect": (lambda: diametral_census(Region.rect(1, 0, 0, 0)), 0.0),
}


@pytest.mark.parametrize("call, outcome", CASES.values(), ids=CASES.keys())
def test_library_refusals(call, outcome):
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            call()
    else:
        assert call() == outcome
