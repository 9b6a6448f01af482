"""Exact-arithmetic Alexander-type invariants of plane curves and their
singularities: local and global Alexander polynomials, characteristic
varieties, ideals and polytopes of quasiadjunction, log-canonical
thresholds, and Betti numbers of cyclic and abelian covers.
"""

from .cyclotomic import CyclotomicElement, evaluate_character
from .errors import AlexinvError
from .groups import (
    CharacterPoint,
    GroupPresentation,
    branched_cover_betti,
    charvar_membership,
    depth,
    diagonal_multiplicity,
    fox_jacobian,
    free_group,
    koszul_support_membership,
    local_system_h1_dim,
    one_variable_alexander,
    unbranched_cover_betti,
)
from .braids import (
    BraidWord,
    MonodromyData,
    artin_action,
    full_twist_check,
    vankampen_presentation,
)
from .curves import (
    ProjectiveCurveSpec,
    cyclic_cover_h1,
    divisibility_check,
    global_alexander,
    global_faces_and_components,
    h1_complement,
    infinity_alexander,
    local_alexander_product,
    nori_abelian_certificate,
    superabundance,
)
from .laurent import (
    FormalCycloProduct,
    LaurentPolynomial,
    common_root_count,
    normalize_unit,
    univariate_gcd,
)
from .linalg import rational_nullspace, rational_rank, smith_normal_form
from .polytope import RationalPolytope
from .quasiadj import (
    constants_of_quasiadjunction,
    ideal_of_quasiadjunction,
    kappa_constant,
    lct_region,
    lct_threshold,
    newton_adjoint_membership,
    order_of_zero,
    polytopes_and_faces,
    xi_steps,
)
from .resolution import (
    PlaneCurveGerm,
    ResolutionTree,
    acampo_zeta,
    fitting_exponents_from_hodge,
    local_alexander_from_zeta,
    multivariable_link_alexander,
    resolve,
    torus_knot_alexander,
)

__version__ = "0.1.0"
