"""Resolution and quasiadjunction on germs beyond the headline fixtures:
tangential configurations, swapped tangent cones, and a weight-one ideal
that genuinely differs from the log ideal."""

from fractions import Fraction

from alexinv.laurent import normalize_unit
from alexinv.quasiadj import ideal_of_quasiadjunction, lct_threshold
from alexinv.resolution import (
    PlaneCurveGerm,
    acampo_zeta,
    local_alexander,
    multivariable_link_alexander,
    resolve,
    torus_knot_alexander,
)
from conftest import diagonal_product, inverse_product

F = Fraction


def test_swapped_tangent_cone():
    # y^2 - x^5 resolves through the chart-1 double-root path but is the
    # same singularity as x^2 + y^5
    tree = resolve(PlaneCurveGerm.from_strings("y^2 - x^5"))
    assert local_alexander(tree) == torus_knot_alexander(2, 5)
    assert lct_threshold(tree, [1]) == F(7, 10)


def test_tacnode():
    tree = resolve(PlaneCurveGerm.from_strings("y - x^2", "y + x^2"))
    assert len(tree.nodes) == 2
    assert sorted(n.a for n in tree.nodes) == [(1, 1), (2, 2)]
    assert lct_threshold(tree, [1, 1]) == F(3, 4)
    mv = multivariable_link_alexander(tree)
    assert diagonal_product(mv) == inverse_product(acampo_zeta(tree))


def test_tangent_parabolas_match_tacnode():
    tree = resolve(PlaneCurveGerm.from_strings("y - x^2", "y - 2*x^2"))
    assert sorted(n.a for n in tree.nodes) == [(1, 1), (2, 2)]
    assert lct_threshold(tree, [1, 1]) == F(3, 4)


def test_ordinary_triple_point():
    tree = resolve(PlaneCurveGerm.from_strings("x - y", "x + y", "x - 2*y"))
    assert lct_threshold(tree, [1, 1, 1]) == F(2, 3)


def test_cusp_with_tangent_line():
    """x (x^2 - y^3): cuspidal branch plus its tangent line.  The lct 5/9
    matches the Newton-polygon oracle for x^3 - x y^3 (segment through
    (3,0) and (1,3): 3 a + 2 b = 9, diagonal point t = 9/5)."""
    tree = resolve(PlaneCurveGerm.from_strings("x^2 - y^3", "x"))
    assert sorted(n.a for n in tree.nodes) == [(2, 1), (3, 2), (6, 3)]
    assert sorted(n.c for n in tree.nodes) == [1, 2, 4]
    chi = sorted(n.chi_open() for n in tree.nodes)
    assert chi == [-1, 0, 1]
    assert lct_threshold(tree, [1, 1]) == F(5, 9)
    # total-linking Alexander polynomial: (t-1)(1 + t^3 + t^6)
    t = __import__("alexinv.laurent", fromlist=["LaurentPolynomial"]).LaurentPolynomial.variable()
    expected = normalize_unit((t - 1) * (t**6 + t**3 + 1))
    assert local_alexander(tree) == expected
    mv = multivariable_link_alexander(tree)
    assert diagonal_product(mv) == inverse_product(acampo_zeta(tree))


def test_e8_constants_cross_validate():
    from alexinv.quasiadj import constants_of_quasiadjunction, kappa_constant

    tree = resolve(PlaneCurveGerm.from_strings("x^3 + y^5"))
    expected = sorted(
        {kappa_constant(3, 5, i, j) for i in range(3) for j in range(5)} - {F(0)}
    )
    assert constants_of_quasiadjunction(tree) == expected


def test_weight_one_strictly_between(two_cusp_tree):
    """At xi = (1/2, 1/2) the constant germ satisfies the log inequalities
    with equality on the adjacent pairs (E1, E4) and (E1, E5), so it lies
    in the log ideal but not in the weight-one ideal."""
    xi = [F(1, 2), F(1, 2)]
    strict = ideal_of_quasiadjunction(two_cusp_tree, xi, "strict")
    weight1 = ideal_of_quasiadjunction(two_cusp_tree, xi, "weight1")
    log = ideal_of_quasiadjunction(two_cusp_tree, xi, "log")
    assert (0, 0) not in strict.members
    assert (0, 0) not in weight1.members
    assert (0, 0) in log.members
    assert strict.members <= weight1.members < log.members


def test_reducible_global_faces_r2():
    """Two conics with a tacnode: the face on 2 xi1 + 2 xi2 = 1 lifts to an
    integral level and the twisted superabundance machinery runs at r=2."""
    from alexinv.curves import ProjectiveCurveSpec, SingularPoint, local_data_for, global_faces_and_components
    from alexinv.resolution import PlaneCurveGerm

    germ = PlaneCurveGerm.from_strings("y - x^2", "y + x^2")
    spec = ProjectiveCurveSpec(
        degree=4,
        components=[("C1", 2), ("C2", 2)],
        singularities=[
            SingularPoint(
                position=(F(0), F(0)),
                data=local_data_for(germ),
                description="tacnode",
                incidence=("C1", "C2"),
            )
        ],
    )
    faces = global_faces_and_components(spec)
    assert faces, "expected at least one lifted face"
    levels = {f.level for f in faces if f.level is not None}
    assert F(1) in levels
    for f in faces:
        if f.level == 1:
            assert f.twist_degree == 0
            assert f.h1 == 0  # one colength-1 condition on constants
