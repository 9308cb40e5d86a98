"""Exact-integer toolkit for the group generated by alternating involutions
and the twisted-aught orbits they trace on the integer lattice."""

from aughts.atlas import (
    GroupCatalog,
    IsoWitness,
    catalog,
    enumerate_group,
    full_cycle_order_via_sym,
    order_spectrum,
    psi,
    verify_isomorphism,
)
from aughts.census import (
    CensusReport,
    Region,
    count_orbits_with_perimeter,
    cumulative_perimeter_stats,
    diametral_census,
    disk_length_stats,
    modular_census,
    projection_histogram,
    square_orbit_averages,
)
from aughts.errors import ResourceLimitError
from aughts.intmat import (
    SmallIntMatrix,
    alternating_row,
    full_cycle_matrix,
    k_word_product,
    make_k,
    mat_mul,
    matrix_order,
    product_closed_form,
)
from aughts.orbits import (
    HAMILTONIAN_WORD_3D,
    Orbit2D,
    ReachGraph,
    Trajectory,
    apply_k,
    canonical_rep,
    euclidean_diameter,
    fundamental_triangles,
    is_diametral,
    orbit2d,
    orbit_distance,
    orbit_rep,
    reach_graph,
    run_word,
    semi_perimeter,
)
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

__version__ = "0.1.0"
