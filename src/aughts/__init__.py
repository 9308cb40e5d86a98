"""Exact-integer toolkit for the group generated by alternating involutions
and the twisted-aught orbits they trace on the integer lattice.

``import aughts`` loads no module: each public name is imported from its
module on first use (PEP 562), so a run that reads no numpy code loads none.
"""

import importlib

_EXPORTS = {
    "atlas": (
        "GroupCatalog", "IsoWitness", "catalog", "enumerate_group",
        "full_cycle_order_via_sym", "order_spectrum", "psi", "verify_isomorphism",
    ),
    "census": (
        "CensusReport", "Region", "count_orbits_with_perimeter", "cumulative_perimeter_stats",
        "diametral_census", "disk_length_stats", "modular_census", "projection_histogram",
        "square_orbit_averages",
    ),
    "errors": ("ResourceLimitError",),
    "intmat": (
        "SmallIntMatrix", "alternating_row", "full_cycle_matrix", "k_word_product", "make_k",
        "mat_mul", "matrix_order", "product_closed_form",
    ),
    "orbits": (
        "HAMILTONIAN_WORD_3D", "Orbit2D", "ReachGraph", "Trajectory", "apply_k",
        "canonical_rep", "euclidean_diameter", "fundamental_triangles", "is_diametral",
        "orbit2d", "orbit_distance", "orbit_rep", "reach_graph", "run_word", "semi_perimeter",
    ),
    "signed_perm": (
        "NotGroupElementError", "Permutation", "SignedPermElement", "format_element",
        "generator", "identity_element", "matrix_to_msih", "msih_inverse", "msih_mul",
        "parse_element", "to_matrix",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Read from the module on every use, never cached here, so that a module
    # attribute rebound later (a patched or wrapped function) is what it gives.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
