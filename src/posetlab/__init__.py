"""posetlab: exact flag enumeration and cd-index machinery on graded posets.

Construct graded posets (polygons, Boolean algebras, products, pyramids,
semisuspensions), compute ab/cd-indices by chain enumeration, certify
Gorenstein*/near-Gorenstein* status by exact interval homology, verify
the decomposition theorem and its coefficientwise inequalities, and extract
cd-coefficients as stalk dimensions through the C/D sheaf operations.

The exports are the library's entry points.  The independent oracles the
tests compare them against (the literal simplicial route, chain-by-chain
ab-indices, the checked cellular complex) live in the test suite's helpers.
"""

from .poset import TOP, GradedPoset, SubPoset
from .ncpoly import NcPoly, ab_expand, cd_contract, derivation_G, pyr_op, alpha
from .flags import ab_index, cd_index, near_cd_index
from .constructions import (PosetMap, boolean_algebra, cartesian_product,
                            collapse_map, cross_polytope, cube_poset,
                            lambda_nu_poset, order_complex, polygon,
                            polytope_product, pyr_poset, remove_upset,
                            semisuspension, star_product,
                            subdivision_target_and_map, with_top)
from .homology import derive_boundary, is_gorenstein_star, is_near_gorenstein_star
from .subdivision import (decompose, is_subdivision, verify_corollary_semisusp,
                          verify_main_inequality, verify_stanley_minimum,
                          verify_subdivision_inequality)
from .sheaves import (Sheaf, cd_coefficient_via_CD, constant_sheaf, dual_sheaf,
                      is_cm_sheaf, op_C, op_D)

__version__ = "0.1.0"
