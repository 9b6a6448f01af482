import json
from fractions import Fraction
from itertools import combinations, product
from math import floor
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alexinv import biv, quasiadj
from alexinv.errors import BadGerm, UseFacesForMultiComponent, ValidationError
from alexinv.quasiadj import (
    constants_of_quasiadjunction,
    germ_membership,
    ideal_of_quasiadjunction,
    ideal_triple,
    jet_bound,
    kappa_constant,
    lct_region,
    lct_threshold,
    jumping_values,
    newton_adjoint_membership,
    order_of_zero,
    polytopes_and_faces,
    torus_constants,
    xi_steps,
)
from alexinv.resolution import PlaneCurveGerm, resolve
from conftest import (
    drawn_germs,
    full_sweep_at,
    full_sweep_triple,
    reference_lct_threshold,
    reference_polytopes_and_faces,
    reference_rhs_table,
    resolve_drawn,
    staircase_generators_by_scan,
    unloading_colength,
)

F = Fraction


def test_kappa_constants():
    assert kappa_constant(2, 3, 0, 0) == F(1, 6)
    assert kappa_constant(2, 3, 1, 0) == 0
    assert kappa_constant(2, 3, 0, 1) == 0
    assert kappa_constant(2, 5, 0, 0) == F(3, 10)
    assert kappa_constant(2, 5, 0, 1) == F(1, 10)


def test_torus_constants_match_kappa_values():
    """The integer numerators over ab against the set of kappa_constant
    values in (0, 1)."""
    for a in range(1, 13):
        for b in range(1, 13):
            kappas = {kappa_constant(a, b, i, j) for i in range(a) for j in range(b)}
            assert torus_constants(a, b) == sorted(k for k in kappas if 0 < k < 1)


def test_xi_steps():
    assert xi_steps(2, 3, 0, 0, 6) == 1
    assert xi_steps(2, 3, 0, 0, 5) == 0
    assert xi_steps(2, 3, 0, 0, 12) == 2
    assert xi_steps(2, 3, 1, 0, 100) == 0


def test_newton_membership():
    assert newton_adjoint_membership(2, 3, 6, (0, 0, 1)) is True
    assert newton_adjoint_membership(2, 3, 6, (0, 0, 0)) is False
    assert newton_adjoint_membership(2, 3, 6, (1, 0, 0)) is True


def test_xi_steps_matches_newton():
    for a, b in [(2, 3), (2, 5), (3, 4)]:
        for i in range(3):
            for j in range(3):
                for n in range(1, 13):
                    k = xi_steps(a, b, i, j, n)
                    assert newton_adjoint_membership(a, b, n, (i, j, k))
                    if k > 0:
                        assert not newton_adjoint_membership(a, b, n, (i, j, k - 1))


def test_cusp_ideals(cusp_tree):
    strict = ideal_of_quasiadjunction(cusp_tree, [F(1, 6)], "strict")
    assert strict.nonmembers == ((0, 0),)
    assert strict.colength == 1
    assert {(1, 0), (0, 1)} <= strict.members
    log = ideal_of_quasiadjunction(cusp_tree, [F(1, 6)], "log")
    assert log.colength == 0
    full = ideal_of_quasiadjunction(cusp_tree, [F(1, 2)], "strict")
    assert full.colength == 0


def test_membership_of_polynomials(cusp_tree):
    xi = [F(1, 6)]
    assert germ_membership(cusp_tree, xi, biv.parse("x - 7*y"), "strict")
    assert not germ_membership(cusp_tree, xi, biv.parse("2 + x"), "strict")
    assert germ_membership(cusp_tree, xi, biv.parse("y^2"), "strict")


def test_unknown_variant(cusp_tree):
    """An unknown variant is an input error (exit 2), not a ValueError."""
    with pytest.raises(ValidationError, match="unknown variant") as info:
        ideal_of_quasiadjunction(cusp_tree, [F(1, 6)], "adjoint")
    assert not isinstance(info.value, ValueError)
    assert info.value.violations == ["unknown variant 'adjoint'; choose from strict, weight1, log"]
    with pytest.raises(ValidationError, match="unknown variant"):
        germ_membership(cusp_tree, [F(1, 6)], biv.parse("y^2"), "adjoint")


@pytest.mark.parametrize(
    "call",
    [
        lambda tree, point: ideal_triple(tree, point),
        lambda tree, point: ideal_of_quasiadjunction(tree, point, "log"),
        lambda tree, point: germ_membership(tree, point, biv.parse("y"), "log"),
        lambda tree, point: lct_region(tree, point),
        lambda tree, point: lct_threshold(tree, point),
    ],
    ids=["ideal_triple", "ideal_of_quasiadjunction", "germ_membership", "lct_region", "lct_threshold"],
)
def test_float_coordinates_refused(cusp_tree, call):
    """1/6 as a float is 6004799503160661/36028797018963968, just below 1/6,
    where the weight-one and log ideals are smaller: refused, not rounded."""
    with pytest.raises(ValidationError, match="float"):
        call(cusp_tree, [1 / 6])
    assert call(cusp_tree, [F(1, 6)]) == call(cusp_tree, ["1/6"])
    assert call(cusp_tree, [1]) == call(cusp_tree, [F(1)])


def test_bad_xi_is_refused_before_an_unknown_variant(cusp_tree, two_cusp_tree):
    """A point outside (0, 1]^r is an input of the wrong shape (BadGerm,
    exit 3) whatever the variant, as through ``ideal_triple``: the point
    is checked first."""
    for tree, xi in ((cusp_tree, [0]), (cusp_tree, [F(7, 6)]), (two_cusp_tree, [F(1, 2), -1])):
        with pytest.raises(BadGerm, match="xi coordinates must lie in"):
            ideal_of_quasiadjunction(tree, xi, "adjoint")
    with pytest.raises(BadGerm, match="one coordinate per component"):
        ideal_of_quasiadjunction(two_cusp_tree, [F(1, 2)], "adjoint")


@given(drawn_germs(), st.data())
def test_single_walks_match_full_sweep_on_drawn_germs(texts, data):
    """Each variant's ideal, walked alone, against the full sweep; the
    triple against the three single calls."""
    tree = resolve_drawn(texts)
    xi = data.draw(_points(tree))
    swept = full_sweep_triple(tree, xi)
    singles = tuple(ideal_of_quasiadjunction(tree, xi, variant) for variant in quasiadj.VARIANTS)
    assert singles == swept
    assert ideal_triple(tree, xi) == singles


def test_constants(cusp_tree, t25_tree):
    assert constants_of_quasiadjunction(cusp_tree) == [F(1, 6)]
    assert constants_of_quasiadjunction(t25_tree) == [F(1, 10), F(3, 10)]


def test_constants_x3y3():
    from alexinv.resolution import PlaneCurveGerm, resolve

    tree = resolve(PlaneCurveGerm.from_strings("x^3 + y^3"))
    assert constants_of_quasiadjunction(tree) == [F(1, 3)]


def test_constants_multicomponent_rejected(node_tree):
    with pytest.raises(UseFacesForMultiComponent):
        constants_of_quasiadjunction(node_tree)


def _triple_matches_single_calls(tree, xi):
    triple = ideal_triple(tree, xi)
    assert triple == tuple(
        ideal_of_quasiadjunction(tree, xi, variant) for variant in ("strict", "weight1", "log")
    )
    return triple


def test_inclusion_chain_on_grid(cusp_tree, t25_tree, t34_tree, node_tree, two_cusp_tree):
    """A(xi) <= A'(xi) <= A''(xi) over a denominator-bounded grid, with the
    one-sweep triple equal to three single-variant calls."""
    one_branch = [cusp_tree, t25_tree, t34_tree]
    for tree in one_branch:
        for q in range(2, 13):
            for k in range(1, q + 1):
                a, w, a2 = _triple_matches_single_calls(tree, [F(k, q)])
                assert a.members <= w.members <= a2.members
    for tree in (node_tree, two_cusp_tree):
        for k1 in range(1, 13, 3):
            for k2 in range(1, 13, 3):
                a, w, a2 = _triple_matches_single_calls(tree, [F(k1, 12), F(k2, 12)])
                assert a.members <= w.members <= a2.members


def _fraction_memberships(tree, levels, rhs):
    """(strict, weight1, log) by comparing the exact levels a_k . xi with
    rhs_k as Fractions: the route that the integer floors replaced."""
    equal = []
    for node, lhs, r in zip(tree.nodes, levels, rhs):
        if lhs < r:
            return False, False, False
        if lhs == r:
            equal.append(node.id)
    weight1 = all(b not in tree.nodes[a - 1].adjacent for a, b in combinations(equal, 2))
    return not equal, weight1, True


def _fraction_triple(tree, xi):
    """Members of the three ideals at xi, each monomial's right sides
    sum a_k - e_k - c_k - 1 written out from the pullback orders of x, y."""
    ex = tree.pullback_orders(biv.variable_x())
    ey = tree.pullback_orders(biv.variable_y())
    levels = [sum(F(a) * x for a, x in zip(node.a, xi)) for node in tree.nodes]
    members = (set(), set(), set())
    bound = jet_bound(tree)
    for alpha in range(bound):
        for beta in range(bound - alpha):
            rhs = [
                sum(node.a) - (alpha * x + beta * y) - node.c - 1
                for node, x, y in zip(tree.nodes, ex, ey)
            ]
            for ideal, member in zip(members, _fraction_memberships(tree, levels, rhs)):
                if member:
                    ideal.add((alpha, beta))
    return members


@st.composite
def _points(draw, tree):
    """xi in (0, 1]^r; half of the points are moved onto a level a_k . xi
    in Z, where the equality and weight-one branches are decided."""
    coord = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(bool)
    xi = [draw(coord) for _ in range(tree.r)]
    if draw(st.booleans()):
        node = draw(st.sampled_from(tree.nodes))
        i = draw(st.sampled_from([i for i, a in enumerate(node.a) if a]))
        rest = sum(a * x for j, (a, x) in enumerate(zip(node.a, xi)) if j != i)
        # an integer level n in (rest, rest + a_i] puts xi_i in (0, 1]
        n = draw(st.integers(floor(rest) + 1, floor(rest + node.a[i])))
        xi[i] = F(n - rest) / node.a[i]
    return tuple(xi)


ORACLE_TREES = ["cusp_tree", "two_cusp_tree", "t25_tree", "puiseux2_tree", "x5y9_tree", "three_branch_tree"]


def _assert_bounding_rows(tree):
    """The table holds the nonempty rows of the full triangle, in its
    order."""
    reference = reference_rhs_table(tree)
    assert list(quasiadj._rhs_table(tree).items()) == [(m, rhs) for m, rhs in reference.items() if rhs]


@given(drawn_germs())
def test_rhs_table_keeps_the_bounding_rows(texts):
    _assert_bounding_rows(resolve_drawn(texts))


@pytest.mark.parametrize("fixture", ORACLE_TREES)
def test_rhs_table_and_jumping_values_match_full_triangle(fixture, request):
    """The pruned table against the full triangle, and the jumping values
    against the largest Fraction threshold rhs_k / sum a_k of every row
    of it."""
    tree = request.getfixturevalue(fixture)
    _assert_bounding_rows(tree)
    totals = [node.total_multiplicity for node in tree.nodes]
    tops = {max(F(r, m) for r, m in zip(rhs, totals)) for rhs in reference_rhs_table(tree).values() if rhs}
    assert jumping_values(tree) == sorted(v for v in tops if 0 < v < 1)


@pytest.mark.parametrize("fixture", ORACLE_TREES)
def test_integer_triple_matches_fraction_oracle(fixture, request):
    """The staircase walk against the Fraction comparisons for the members
    and against the full sweep for the nonmembers, in table order."""
    tree = request.getfixturevalue(fixture)

    @given(_points(tree))
    def check(xi):
        triple = ideal_triple(tree, xi)
        assert tuple(set(ideal.members) for ideal in triple) == _fraction_triple(tree, xi)
        # the same members, and the same nonmembers in table order
        assert triple == full_sweep_triple(tree, xi)
        for ideal in triple:
            assert set(ideal.nonmembers).isdisjoint(ideal.members)
            assert len(ideal.members) + ideal.colength == jet_bound(tree) * (jet_bound(tree) + 1) // 2

    check()


@pytest.mark.parametrize("fixture", ORACLE_TREES)
def test_staircase_reads_match_member_scans(fixture, request):
    """The corners read off the column heights against the scan of the
    members, at drawn points and at every face's level point; and each
    face's quotient dimension, a difference of colengths, against the
    members that the log ideal has and the strict ideal lacks.  The
    polytopes come in the order of the sorted members of their log ideals."""
    tree = request.getfixturevalue(fixture)

    def check_generators(ideals):
        for ideal in ideals:
            assert ideal.generators() == staircase_generators_by_scan(ideal.members, ideal.jet_bound)

    given(_points(tree))(lambda xi: check_generators(ideal_triple(tree, xi)))()
    qps = polytopes_and_faces(tree)
    for qp in qps:
        for f in qp.faces:
            check_generators(f.ideals)
            strict, _, log = f.ideals
            assert f.dim_quotient == len(log.members - strict.members)
            assert qp.log_staircase == log.nonmembers
    members = [sorted(qp.faces[0].ideals[2].members) for qp in qps]
    assert members == sorted(members)


@given(st.integers(1, 12), st.lists(st.integers(0, 12), max_size=12))
@example(3, [3, 3, 3])
@example(3, [])
def test_generators_of_any_staircase_match_member_scan(bound, heights):
    """Staircases of every shape, from empty to the whole triangle below
    the bound, columns cut at the bound as the walk cuts them."""
    heights = [min(h, bound - a) for a, h in enumerate(sorted(heights, reverse=True)[:bound])]
    staircase = tuple((a, b) for a, h in enumerate(heights) for b in range(h))
    ideal = quasiadj.LocalIdealDescription(bound, staircase)
    assert ideal.generators() == staircase_generators_by_scan(ideal.members, bound)
    assert len(ideal.members) + ideal.colength == bound * (bound + 1) // 2


def _faces_dump(qps):
    """Everything polytopes_and_faces reports, as comparable values, in the
    form of ``reference_polytopes_and_faces``."""
    return [
        (
            qp.polytope.halfspaces,
            qp.polytope.vertices(),
            qp.log_staircase,
            [
                (f.face.vertices, f.face.dim, f.face.saturated, f.level_point, f.ideals, f.dim_quotient,
                 qp.polytope.planes(f.face))
                for f in qp.faces
            ],
        )
        for qp in qps
    ]


FACE_PINS = json.loads((Path(__file__).parent / "quasiadj_face_pins.json").read_text())


def _pinned_fields(qps):
    """Every field polytopes_and_faces reports, in the JSON form of the
    pins: rationals as strings, integer rows as ints."""

    def vector(v):
        return [str(x) for x in v]

    def row(h):
        return [list(h[0]), h[1]]

    return [
        {
            "halfspaces": [row(h) for h in qp.polytope.halfspaces],
            "vertices": [vector(v) for v in qp.polytope.vertices()],
            "log_staircase": [list(m) for m in qp.log_staircase],
            "faces": [
                {
                    "vertices": [vector(v) for v in f.face.vertices],
                    "dim": f.face.dim,
                    "saturated": list(f.face.saturated),
                    "level_point": vector(f.level_point),
                    "ideals": [
                        {"jet_bound": i.jet_bound, "nonmembers": [list(m) for m in i.nonmembers]}
                        for i in f.ideals
                    ],
                    "dim_quotient": f.dim_quotient,
                    "planes": [row(h) for h in qp.polytope.planes(f.face)],
                }
                for f in qp.faces
            ],
        }
        for qp in qps
    ]


@pytest.mark.parametrize("pin", FACE_PINS, ids=[", ".join(p["germ"]) for p in FACE_PINS])
def test_faces_pinned(pin):
    """Every field of the polytopes and faces of quasiadjunction of 14
    germs, the r = 3 wall germ (x^3-y^4, x^4-y^3, x-2*y) included, as the
    Fraction polytope layer computed them."""
    tree = resolve(PlaneCurveGerm.from_strings(*pin["germ"]))
    assert _pinned_fields(polytopes_and_faces(tree)) == pin["polytopes"]


@pytest.mark.parametrize("fixture", ["two_cusp_tree", "puiseux2_tree", "three_branch_tree"])
def test_faces_match_full_sweep_oracle(fixture, request, monkeypatch):
    """polytopes_and_faces reads the same halfspaces, vertices, saturated
    constraints, ideal triples and quotient dimensions when every ideal
    comes from the full sweep in place of the staircase walk: every
    ideal passes through ``_staircase``, which is patched here."""
    tree = request.getfixturevalue(fixture)
    walked = _faces_dump(polytopes_and_faces(tree))
    assert walked
    swept = []
    monkeypatch.setattr(
        quasiadj, "_staircase", lambda tree, levels, i: swept.append(i) or full_sweep_at(tree, levels)[i]
    )
    assert _faces_dump(polytopes_and_faces(tree)) == walked
    assert set(swept) == {0, 1, 2}


@pytest.mark.parametrize("fixture, points, walks", [("two_cusp_tree", 27, 20), ("three_branch_tree", 74, 41)])
def test_faces_walk_once_per_floor_signature(fixture, points, walks, request, monkeypatch):
    """polytopes_and_faces walks the strict and log staircases once per
    distinct tuple of node floors, not once per candidate point, and the
    weight-one staircase once per tuple of node floors of a reported face:
    the candidate points are counted through ``_node_floors``, the walks
    through ``_staircase``."""
    tree = request.getfixturevalue(fixture)
    floors, walked = [], ([], [], [])
    node_floors, staircase = quasiadj._node_floors, quasiadj._staircase
    monkeypatch.setattr(quasiadj, "_node_floors", lambda tree, point: floors.append(point) or node_floors(tree, point))
    monkeypatch.setattr(
        quasiadj, "_staircase", lambda tree, levels, i: walked[i].append(levels) or staircase(tree, levels, i)
    )
    qps = polytopes_and_faces(tree)
    strict, weight1, log = walked
    assert len(floors) == len(set(floors)) == points
    assert len(strict) == len(set(strict)) == walks
    assert log == strict
    reported = {
        tuple(node_floors(tree, quasiadj._over_one_denominator(f.level_point))) for qp in qps for f in qp.faces
    }
    assert len(weight1) == len(set(weight1)) == len(reported) < walks
    assert set(weight1) == reported


@pytest.mark.parametrize(
    "germ",
    ["two_cusp_tree", "puiseux2_tree", "three_branch_tree", ("x^2-y^5", "x^3-y^2", "x-y")],
    ids=["two_cusps", "puiseux2", "three_branch", "three_branch_25"],
)
def test_faces_match_reference_polytope_route(germ, request):
    """polytopes_and_faces reports the same fields, vertices, dimensions,
    saturated constraints and level points included, as the Fraction
    route: vertices and faces from every subset of all rows, one polytope
    per combination of regions in the pool, and each face looked up in
    the full lattice of its polytope."""
    if isinstance(germ, str):
        tree = request.getfixturevalue(germ)
    else:
        tree = resolve(PlaneCurveGerm.from_strings(*germ))
    fast = _faces_dump(polytopes_and_faces(tree))
    assert fast
    assert fast == reference_polytopes_and_faces(tree)


@pytest.mark.parametrize("fixture", ORACLE_TREES)
def test_faces_match_fraction_route(fixture, request):
    """Every reported field on integer points, against the Fraction
    route."""
    tree = request.getfixturevalue(fixture)
    assert _faces_dump(polytopes_and_faces(tree)) == reference_polytopes_and_faces(tree)


@given(drawn_germs())
def test_faces_of_drawn_germs_match_fraction_route(texts):
    """The same on drawn germs of one and two branches."""
    tree = resolve_drawn(texts)
    assert _faces_dump(polytopes_and_faces(tree)) == reference_polytopes_and_faces(tree)


def test_monotonicity_in_xi(cusp_tree, two_cusp_tree):
    grid = [F(k, 6) for k in range(1, 7)]
    for tree, dim in ((cusp_tree, 1), (two_cusp_tree, 2)):
        points = [(x,) * dim for x in grid]
        for xi1 in points:
            for xi2 in points:
                if all(a <= b for a, b in zip(xi1, xi2)):
                    i1 = ideal_of_quasiadjunction(tree, xi1, "strict")
                    i2 = ideal_of_quasiadjunction(tree, xi2, "strict")
                    assert i1.members <= i2.members


def test_ideal_constant_on_face_interior(two_cusp_tree):
    qps = polytopes_and_faces(two_cusp_tree)
    for qp in qps:
        for face in qp.faces:
            if face.face.dim != 1:
                continue
            v1, v2 = face.face.vertices[0], face.face.vertices[-1]
            p1 = tuple(Fraction(2 * a + b, 3) for a, b in zip(v1, v2))
            p2 = tuple(Fraction(a + 2 * b, 3) for a, b in zip(v1, v2))
            for variant in ("strict", "weight1", "log"):
                m1 = ideal_of_quasiadjunction(two_cusp_tree, p1, variant).members
                m2 = ideal_of_quasiadjunction(two_cusp_tree, p2, variant).members
                assert m1 == m2


def test_jet_bound_soundness(cusp_tree, t25_tree):
    for tree in (cusp_tree, t25_tree):
        B = jet_bound(tree)
        # every monomial of order >= B is a member for every xi
        for q in (2, 5, 7, 12):
            ideal = ideal_of_quasiadjunction(tree, [F(1, q)], "strict")
            assert ideal.jet_bound == B
            assert all(alpha + beta < B for alpha, beta in ideal.nonmembers)
            for alpha in range(B + 2):
                for beta in range(B + 2 - alpha):
                    if alpha + beta >= B:
                        assert germ_membership(
                            tree, [F(1, q)], {(alpha, beta): F(1)}, "strict"
                        )


def test_cusp_faces(cusp_tree):
    qps = polytopes_and_faces(cusp_tree)
    assert len(qps) == 1
    faces = qps[0].faces
    assert len(faces) == 1
    assert faces[0].face.vertices == ((F(1, 6),),)
    assert faces[0].dim_quotient == 1


def test_node_has_no_faces(node_tree):
    assert polytopes_and_faces(node_tree) == []


def test_two_cusp_faces_include_spec_segment(two_cusp_tree):
    qps = polytopes_and_faces(two_cusp_tree)
    segment = False
    for qp in qps:
        for f in qp.faces:
            if f.face.dim == 1 and all(
                6 * v[0] + 4 * v[1] == 5 for v in f.face.vertices
            ):
                segment = True
    assert segment


TWO_CUSP_JUMP = (F(19, 60), F(11, 40))  # on 6 xi1 + 4 xi2 = 3, below 4 xi1 + 6 xi2 = 3


def test_two_cusp_ideals_jump_off_the_pool(two_cusp_tree):
    strict, weight1, log = ideal_triple(two_cusp_tree, TWO_CUSP_JUMP)
    assert log.members - strict.members == {(0, 1)}
    assert weight1.members == log.members


@pytest.mark.xfail(
    strict=True,
    reason="incomplete candidate pool: no face of the regions or of their "
    "pairwise intersections has its relative interior on the segment of "
    "6 xi1 + 4 xi2 = 3 below 4 xi1 + 6 xi2 = 3",
)
def test_two_cusp_faces_hold_every_jump(two_cusp_tree):
    """Where the strict and log ideals differ, the log staircase is one of
    the reported polytopes."""
    log = ideal_triple(two_cusp_tree, TWO_CUSP_JUMP)[2]
    assert log.nonmembers in [qp.log_staircase for qp in polytopes_and_faces(two_cusp_tree)]


def test_order_of_zero_cusp(cusp_tree):
    one = biv.constant(1)
    assert order_of_zero(cusp_tree, 3, [0], [6], one) == -1
    assert order_of_zero(cusp_tree, 3, [1], [6], one) == 0
    assert order_of_zero(cusp_tree, 3, [0], [2], one) == 1


@pytest.mark.parametrize("fixture", ["cusp_tree", "node_tree"])
def test_order_of_zero_consistent_with_ideals(fixture, request):
    """phi in A(j|m) iff order >= 0 at every node; phi in A'' iff >= -1."""
    tree = request.getfixturevalue(fixture)
    monomials = [biv.constant(1), biv.parse("x"), biv.parse("y"), biv.parse("x*y")]
    r = tree.r
    for m_val in range(2, 7):
        m = [m_val] * r
        for j_val in range(m_val):
            j = [j_val] * r
            xi = [F(j_val + 1, m_val)] * r
            for phi in monomials:
                orders = [
                    order_of_zero(tree, node.id, j, m, phi) for node in tree.nodes
                ]
                assert germ_membership(tree, xi, phi, "strict") == all(
                    o >= 0 for o in orders
                )
                assert germ_membership(tree, xi, phi, "log") == all(
                    o >= -1 for o in orders
                )


def test_multiplier_ideal_correspondence(cusp_tree):
    """A(j|m) agrees with the multiplier-ideal round-down test at
    gamma = 1 - xi."""
    ex = cusp_tree.pullback_orders(biv.parse("x"))
    ey = cusp_tree.pullback_orders(biv.parse("y"))
    for q in (2, 3, 6, 10):
        for k in range(1, q + 1):
            xi = F(k, q)
            gamma = 1 - xi
            ideal = ideal_of_quasiadjunction(cusp_tree, [xi], "strict")
            for alpha in range(4):
                for beta in range(4):
                    e = [alpha * x + beta * y for x, y in zip(ex, ey)]
                    multiplier = all(
                        e[i] + node.c + 1 > gamma * node.total_multiplicity
                        for i, node in enumerate(cusp_tree.nodes)
                    )
                    assert ((alpha, beta) not in ideal.nonmembers) == multiplier


def test_lct(cusp_tree, node_tree, t25_tree):
    assert lct_region(cusp_tree, [F(5, 6)]) is True
    assert lct_region(cusp_tree, [F(9, 10)]) is False
    assert lct_threshold(cusp_tree, [1]) == F(5, 6)
    assert lct_region(node_tree, [F(1), F(1)]) is True
    assert lct_threshold(node_tree, [1, 1]) == 1
    assert lct_threshold(t25_tree, [1]) == F(7, 10)


def test_lct_matches_region(cusp_tree):
    c = lct_threshold(cusp_tree, [1])
    assert lct_region(cusp_tree, [c])
    assert not lct_region(cusp_tree, [c + F(1, 30)])


@given(drawn_germs(), st.data())
def test_lct_threshold_matches_fraction_route(texts, data):
    """The integer threshold against the Fraction sums it replaced, on
    directions with zero entries and non-unit denominators; the region
    holds at threshold * d, and just beyond it either fails or leaves the
    unit cube."""
    tree = resolve_drawn(texts)
    coord = st.fractions(min_value=0, max_value=3, max_denominator=12)
    direction = data.draw(st.lists(coord, min_size=tree.r, max_size=tree.r).filter(any))
    threshold = lct_threshold(tree, direction)
    assert threshold == reference_lct_threshold(tree, direction)
    assert lct_region(tree, [threshold * d for d in direction])
    beyond = [(threshold + F(1, 10**6)) * d for d in direction]
    assert max(beyond) > 1 or not lct_region(tree, beyond)


# ---------------------------------------------------------------------------
# the unloading colength: an oracle of the staircase from the intersection
# form alone
# ---------------------------------------------------------------------------


def _unit_grid(r):
    """Every point of (0, 1]^r on the grid 1/13, or 1/7 for r = 3."""
    q = 13 if r <= 2 else 7
    return product([F(k, q) for k in range(1, q + 1)], repeat=r)


@pytest.mark.parametrize(
    "texts",
    [
        ["x^2 + y^3"],
        ["x^3 + y^4"],
        ["x^5 + y^9"],
        ["x^2 - y^3", "x^3 - y^2"],
        ["y - x^2", "y + x^2"],
        ["x^2 - y^3", "x^3 - y^2", "x - y"],
    ],
)
def test_staircase_colength_is_the_unloading_colength(texts):
    """On germs whose ideals are spanned by monomials, the strict and log
    staircases have the unloading colength at every grid point."""
    tree = resolve(PlaneCurveGerm.from_strings(*texts))
    for xi in _unit_grid(tree.r):
        for variant in ("strict", "log"):
            assert ideal_of_quasiadjunction(tree, xi, variant).colength == unloading_colength(tree, xi, variant)


@given(drawn_germs(), st.data())
def test_staircase_colength_bounds_the_unloading_colength(texts, data):
    """The member monomials span a monomial ideal inside the complete
    ideal, so the staircase colength is never below the unloading one."""
    tree = resolve_drawn(texts)
    xi = [F(data.draw(st.integers(1, 13)), 13) for _ in range(tree.r)]
    for variant in ("strict", "log"):
        assert ideal_of_quasiadjunction(tree, xi, variant).colength >= unloading_colength(tree, xi, variant)


# (germ, kappa, unloading colength) of the strict ideal at xi = (kappa,),
# an ideal that monomials do not span: the staircase misses members and
# reads 8, 7, 12 and 3
NON_MONOMIAL_IDEALS = [
    ("(x^2-y^3)^2-4*x^5*y-x^7", F(1, 11), 7),
    ("(x^2-y^3)^2-4*x^5*y-x^7", F(2, 11), 6),
    ("(x^2-y^3)^2-4*x^5*y-x^7", F(1, 34), 10),
    ("(x-y)^2+y^5", F(1, 10), 2),
]


@pytest.mark.parametrize("text, kappa, colength", NON_MONOMIAL_IDEALS)
def test_unloading_colength_pins(text, kappa, colength):
    assert unloading_colength(resolve(PlaneCurveGerm.from_strings(text)), [kappa], "strict") == colength


@pytest.mark.xfail(
    strict=True,
    reason="the staircase decides membership monomial by monomial, which "
    "misses the members of an ideal that monomials do not span",
)
def test_staircase_colength_on_non_monomial_ideals():
    for text, kappa, colength in NON_MONOMIAL_IDEALS:
        tree = resolve(PlaneCurveGerm.from_strings(text))
        assert ideal_of_quasiadjunction(tree, [kappa], "strict").colength == colength
