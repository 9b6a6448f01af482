"""Exact-arithmetic Alexander-type invariants of plane curves and their
singularities: local and global Alexander polynomials, characteristic
varieties, ideals and polytopes of quasiadjunction, log-canonical
thresholds, and Betti numbers of cyclic and abelian covers.

The public names below are loaded on first use (PEP 562), so importing
the package, or one of its modules, loads only the modules it needs.
"""

import importlib

_EXPORTS = {
    "cyclotomic": ("CyclotomicElement", "evaluate_character"),
    "errors": ("AlexinvError",),
    "groups": (
        "CharacterPoint",
        "GroupPresentation",
        "branched_cover_betti",
        "charvar_membership",
        "depth",
        "diagonal_multiplicity",
        "fox_jacobian",
        "free_group",
        "koszul_support_membership",
        "local_system_h1_dim",
        "one_variable_alexander",
        "unbranched_cover_betti",
    ),
    "braids": (
        "BraidWord",
        "MonodromyData",
        "artin_action",
        "full_twist_check",
        "vankampen_presentation",
    ),
    "curves": (
        "ProjectiveCurveSpec",
        "cyclic_cover_h1",
        "divisibility_check",
        "global_alexander",
        "global_faces_and_components",
        "h1_complement",
        "infinity_alexander",
        "local_alexander_product",
        "nori_abelian_certificate",
        "superabundance",
    ),
    "laurent": (
        "LaurentPolynomial",
        "common_root_count",
        "normalize_unit",
        "univariate_gcd",
    ),
    "linalg": ("rational_rank", "smith_normal_form"),
    "polytope": ("RationalPolytope",),
    "quasiadj": (
        "constants_of_quasiadjunction",
        "ideal_of_quasiadjunction",
        "kappa_constant",
        "lct_region",
        "lct_threshold",
        "newton_adjoint_membership",
        "order_of_zero",
        "polytopes_and_faces",
        "xi_steps",
    ),
    "resolution": (
        "PlaneCurveGerm",
        "ResolutionTree",
        "acampo_zeta",
        "fitting_exponents_from_hodge",
        "local_alexander_from_zeta",
        "multivariable_link_alexander",
        "resolve",
        "torus_knot_alexander",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: the module's current attribute is always returned
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
