"""Exact-arithmetic toolkit for O-operators on Lie algebra modules.

Finite-dimensional Lie algebras and their modules over the exact rationals,
with executable verifications and constructions for O-operators, gauge
transformations and reduction, compatible pairs and pre-Lie products,
Nijenhuis / ON / PN structures and their hierarchies, twilled Lie algebras
with (strong) Maurer-Cartan solutions, generalized complex structures, and
the real forms of holomorphic r-matrices and O-operators.
"""

from .errors import LieOpError, OracleDisagreement, Singular
from .exactla import Matrix, invert, kernel, rank
from .liecore import (
    LieAlgebra, Representation, Subspace, adjoint, annihilator,
    coadjoint, dual_rep, intersect, is_ideal, is_subalgebra, quotient,
    semidirect, trivial_rep,
)
from .cohomology import Cochain, ce_differential, derived_bracket, is_cocycle, nr_bracket
from .ooper import (
    OOperator, are_compatible, bivector, gauge_iso_check, gauge_transform,
    graph_check, induced_lie, is_o_operator, is_r_matrix, lemma_r_equiv,
    mr_reduce, nijenhuis_from_pair, o_residual, pre_lie_compatible,
    pre_lie_from_o, r_sharp, schouten_self, structure_report,
)
from .onstruct import (
    DeformationData, ONStructure, deformed_bracket, hierarchy,
    is_infinitesimal_deformation, is_nijenhuis, is_nijenhuis_structure,
    is_on_structure, is_pn_structure, nijenhuis_power_props,
    on_from_compatible_pair, pn_hierarchy, tilde_action,
    trivial_deformation_from,
)
from .twilled import (
    TwilledLieAlgebra, find_strong_mc, mc_check, omega_structures,
    on_from_strong_mc, strong_mc_check, strong_mc_from_on, twilled_from_o,
    twilled_new,
)
from .gcsholo import (
    GCSModule, gcs_check_components, gcs_check_direct, gcs_components_grid, gcs_direct_grid,
    gcs_from_complex, gcs_from_invertible_o, gcs_lie_check, gcs_oracle, is_complex_structure,
    is_holomorphic_o, is_holomorphic_r, is_module_complex_pair, opposite_gcs,
)

__version__ = "0.1.0"
