import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv.curves import (
    AlexanderFactorization,
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
    transform_positions,
)
from alexinv import curves
from alexinv.cyclotomic import expand_cyclotomic
from alexinv.errors import BadGerm, NotPolynomial, TheoremViolation
from alexinv.laurent import LaurentPolynomial, exact_divide, normalize_unit
from alexinv.serialize import curve_from_json

t = LaurentPolynomial.variable()
PHI6 = t**2 - t + 1
F = Fraction

ON_CONIC = [((x, x * x), "cusp") for x in [0, 1, -1, 2, -2, 3]]
GENERIC6 = [
    ((0, 0), "cusp"),
    ((1, 0), "cusp"),
    ((0, 1), "cusp"),
    ((1, 1), "cusp"),
    ((2, 1), "cusp"),
    ((1, 2), "cusp"),
]
GENERIC9 = GENERIC6 + [((3, 1), "cusp"), ((1, 3), "cusp"), ((2, 3), "cusp")]


@pytest.fixture(scope="module")
def sextic_on_conic():
    return ProjectiveCurveSpec.build(6, ON_CONIC)


@pytest.fixture(scope="module")
def sextic_generic():
    return ProjectiveCurveSpec.build(6, GENERIC6)


@pytest.fixture(scope="module")
def sextic_nine():
    return ProjectiveCurveSpec.build(6, GENERIC9)


def test_h1_complement():
    assert h1_complement([6]) == (0, [6])
    assert h1_complement([2, 3]) == (1, [])
    assert h1_complement([2, 2]) == (1, [2])


def test_infinity_alexander():
    assert infinity_alexander(6) == normalize_unit((t**6 - 1) ** 4 * (t - 1))
    assert infinity_alexander(1) == LaurentPolynomial.one()
    assert infinity_alexander(3) == normalize_unit((t**3 - 1) * (t - 1))


def test_local_alexander_product(sextic_on_conic):
    assert local_alexander_product(sextic_on_conic) == normalize_unit(PHI6**6)
    spec = ProjectiveCurveSpec.build(5, [((0, 0), "cusp"), ((1, 1), "node")])
    assert local_alexander_product(spec) == normalize_unit(PHI6 * (t - 1))
    one_node = ProjectiveCurveSpec.build(3, [((0, 0), "node")])
    assert local_alexander_product(one_node) == t - 1


def test_generic_points_are_really_generic():
    """Rank oracle: the six generic cusp positions lie on no conic, the
    on-conic positions do, the nine positions impose independent-enough
    conditions."""
    from alexinv.linalg import rational_rank

    def conic_rows(points):
        return [
            [1, x, y, x * x, x * y, y * y]
            for (x, y), _ in points
        ]

    assert rational_rank(conic_rows(ON_CONIC)) == 5
    assert rational_rank(conic_rows(GENERIC6)) == 6
    assert rational_rank(conic_rows(GENERIC9)) == 6


def test_superabundance_examples(sextic_on_conic, sextic_generic, sextic_nine):
    assert superabundance(sextic_on_conic, F(1, 6)) == 1
    assert superabundance(sextic_generic, F(1, 6)) == 0
    assert superabundance(sextic_nine, F(1, 6)) == 3
    # non-contributing kappa
    assert superabundance(sextic_on_conic, F(1, 5)) == 0


def test_superabundance_is_projectively_invariant(sextic_on_conic, sextic_generic, sextic_nine):
    """A projective map sends conics to conics; with (x, y) -> (x, y) / (x + 7)
    every position has a denominator, so the integer condition rows are
    scaled by q^m s^m."""
    move = [[1, 0, 0], [0, 1, 0], [1, 0, 7]]
    for spec, h1 in ((sextic_on_conic, 1), (sextic_generic, 0), (sextic_nine, 3)):
        moved = transform_positions(spec, move)
        assert any(p.position[0].denominator > 1 for p in moved.singularities)
        assert superabundance(moved, F(1, 6)) == h1


def test_degree24_rung_on_conic():
    """120 cusps on y = x^2 at x = -60..59: on curves of degree m = 17 they
    impose 2m + 1 = 35 conditions, so h^1 = 120 - 35 = 85."""
    spec = ProjectiveCurveSpec.build(24, [((x, x * x), "cusp") for x in range(-60, 60)])
    assert superabundance(spec, F(1, 6)) == 120 - (2 * 17 + 1)
    fac = global_alexander(spec)
    assert fac.factors == [(F(1, 6), 85)]
    assert fac.full_polynomial() == normalize_unit(PHI6**85)


def test_degree24_rung_in_general_position():
    """The first 120 distinct points of a fixed walk on [-12, 12]^2 impose
    independent conditions on the 171 monomials of degree <= 17."""
    rng = random.Random(20051018)
    points = []
    while len(points) < 120:
        p = (rng.randint(-12, 12), rng.randint(-12, 12))
        if p not in points:
            points.append(p)
    spec = ProjectiveCurveSpec.build(24, [(p, "cusp") for p in points])
    assert superabundance(spec, F(1, 6)) == 0


def test_global_alexander_zariski_sextics(sextic_on_conic, sextic_generic, sextic_nine):
    assert global_alexander(sextic_on_conic).full_polynomial() == PHI6
    assert global_alexander(sextic_generic).full_polynomial() == LaurentPolynomial.one()
    assert global_alexander(sextic_nine).full_polynomial() == normalize_unit(PHI6**3)


def test_divisibility_zariski(sextic_on_conic):
    report = divisibility_check(sextic_on_conic)
    assert report.alexander == PHI6
    assert report.local_product == normalize_unit(PHI6**6)
    assert report.infinity == infinity_alexander(6)
    assert normalize_unit(report.local_quotient * report.alexander) == report.local_product
    assert normalize_unit(report.infinity_quotient * report.alexander) == report.infinity


def test_divisibility_trivial_alexander(sextic_generic):
    report = divisibility_check(sextic_generic)
    assert report.alexander == LaurentPolynomial.one()


def test_divisibility_failure_is_a_theorem_violation(sextic_on_conic, monkeypatch):
    # Delta_C = t^2 - t + 1 = Phi_6 does not divide t - 1 = Phi_1
    monkeypatch.setattr(curves, "infinity_exponents", lambda d: {1: 1})
    with pytest.raises(TheoremViolation):
        divisibility_check(sextic_on_conic)


EXPONENT_MAPS = st.dictionaries(st.integers(1, 12), st.integers(0, 4), max_size=3)


@settings(max_examples=80, deadline=None)
@given(EXPONENT_MAPS, EXPONENT_MAPS, st.booleans())
def test_divisibility_verdict_matches_exact_divide(num, den, force):
    """The exponent comparison against the old route, exact division of the
    expanded polynomials: den divides num exactly when no Phi_m exponent
    of the quotient is negative, and the quotients agree."""
    if force:
        num = curves._product(num, den)
    try:
        oracle = normalize_unit(exact_divide(expand_cyclotomic(num), expand_cyclotomic(den)))
    except NotPolynomial:
        with pytest.raises(TheoremViolation):
            curves._quotient(num, den)
        assert not force
        return
    assert expand_cyclotomic(curves._quotient(num, den)) == oracle


def test_assemble_factors_pairs_conjugates():
    """kappa and -kappa make one conjugate pair; kappa = 1/2 pairs with
    itself, so its factor is (t + 1)^2."""
    exponents, warning = curves.assemble_factors([(F(1, 2), 1), (F(5, 6), 2), (F(1, 5), 1), (F(2, 5), 1)])
    assert warning is None and exponents == {2: 2, 5: 1, 6: 2}
    phi5 = t**4 + t**3 + t**2 + t + 1
    assert expand_cyclotomic(exponents) == normalize_unit((t + 1) ** 2 * PHI6**2 * phi5)
    assert curves.assemble_factors([(F(1, 5), 1)]) == (
        None, "kappa orbit of order 5 has unequal exponents; rational assembly impossible"
    )


def test_superabundance_computes_one_ideal_per_local_type(monkeypatch):
    """Six cusps, two nodes and two (2, 5) germs are three local types."""
    points = [((x, x * x), "cusp") for x in range(6)]
    points += [((x, 1), "node") for x in (7, 8)] + [((x, 2), (2, 5)) for x in (7, 8)]
    spec = ProjectiveCurveSpec.build(12, points)
    calls = []
    true_ideal_at = curves.NamedGermData.ideal_at

    def counting(self, kappa):
        calls.append(self)
        return true_ideal_at(self, kappa)

    monkeypatch.setattr(curves.NamedGermData, "ideal_at", counting)
    assert superabundance(spec, F(1, 6)) >= 0
    assert len(calls) == len(set(calls)) == 3
    calls.clear()
    global_faces_and_components(ProjectiveCurveSpec.build(6, ON_CONIC))
    assert len(calls) == 1


def test_equal_explicit_germs_share_one_resolution(monkeypatch):
    """Six explicit x^2 + y^3 points, written two ways, are one local type:
    one resolution, and one ideal per kappa; the answer is the cusps'."""
    resolved = []
    true_resolve = curves.resolve
    monkeypatch.setattr(curves, "resolve", lambda germ: resolved.append(germ) or true_resolve(germ))
    texts = ["x^2 + y^3", "y^3 + x^2"] * 3
    spec = ProjectiveCurveSpec.build(6, [(pos, text) for (pos, _), text in zip(ON_CONIC, texts)])
    assert len(resolved) == 1
    assert len({id(p.data) for p in spec.singularities}) == 1
    kappas = []
    true_ideal_at = curves.ResolvedGermData.ideal_at

    def counting(self, kappa):
        kappas.append(kappa)
        return true_ideal_at(self, kappa)

    monkeypatch.setattr(curves.ResolvedGermData, "ideal_at", counting)
    factorization = global_alexander(spec)
    assert kappas == [F(1, 6)]
    assert factorization.factors == global_alexander(ProjectiveCurveSpec.build(6, ON_CONIC)).factors
    resolved.clear()
    curve_from_json({
        "degree": 6,
        "singularities": [{"pos": [str(x), str(y)], "germ": "x^2 + y^3"} for (x, y), _ in ON_CONIC],
    })
    assert len(resolved) == 1


def test_equal_named_germs_give_equal_specs():
    assert ProjectiveCurveSpec.build(6, ON_CONIC) == ProjectiveCurveSpec.build(6, ON_CONIC)
    assert ProjectiveCurveSpec.build(6, ON_CONIC) != ProjectiveCurveSpec.build(6, GENERIC6)
    assert len({p.data for p in ProjectiveCurveSpec.build(6, ON_CONIC).singularities}) == 1


def test_overcounted_rank_is_an_internal_error(sextic_on_conic, monkeypatch):
    true_rank = curves.rational_rank
    monkeypatch.setattr(curves, "rational_rank", lambda rows: true_rank(rows) + 2)
    with pytest.raises(AssertionError, match="internal error"):
        superabundance(sextic_on_conic, F(1, 6))
    with pytest.raises(AssertionError, match="internal error"):
        global_faces_and_components(sextic_on_conic)


def test_degree_gate_seven():
    spec = ProjectiveCurveSpec.build(7, GENERIC6)
    assert global_alexander(spec).full_polynomial() == LaurentPolynomial.one()


@pytest.mark.parametrize("d", range(4, 13))
def test_degree_gates_cuspidal(d):
    """Cuspidal irreducible curves have trivial Alexander polynomial unless
    6 | d, because d/6 must be integral for kappa = 1/6 to contribute."""
    genus_bound = (d - 1) * (d - 2) // 2
    points = GENERIC6[: min(3 + d % 3, 6, genus_bound)]
    spec = ProjectiveCurveSpec.build(d, points)
    fac = global_alexander(spec)
    if d % 6:
        assert fac.full_polynomial() == LaurentPolynomial.one()


@pytest.mark.parametrize("pq,modulus", [((2, 5), 10), ((3, 4), 12)])
def test_degree_gates_torus_germs(pq, modulus):
    for d in range(4, 13):
        spec = ProjectiveCurveSpec.build(d, [((0, 0), pq), ((1, 1), pq)])
        fac = global_alexander(spec)
        if all((d * k).denominator != 1 for k in spec.singularities[0].data.constants()):
            assert fac.full_polynomial() == LaurentPolynomial.one()
        if d % (pq[0] * pq[1]):
            # pq not dividing d is sufficient for triviality
            assert fac.full_polynomial() == LaurentPolynomial.one()


def _random_cuspidal_spec(rng):
    d = rng.choice([4, 5, 6, 7, 8, 9, 10, 11, 12])
    genus_bound = (d - 1) * (d - 2) // 2
    n_cusps = rng.randint(1, min(9, genus_bound))
    n_nodes = rng.randint(0, min(4, genus_bound - n_cusps))
    points = set()
    while len(points) < n_cusps + n_nodes:
        points.add((rng.randint(-6, 6), rng.randint(-6, 6)))
    points = sorted(points)
    sings = [(p, "cusp") for p in points[:n_cusps]]
    sings += [(p, "node") for p in points[n_cusps:]]
    return ProjectiveCurveSpec.build(d, sings)


def test_divisibility_property_suite():
    """Randomized cuspidal/nodal specs with d <= 12: the assembled global
    polynomial always divides both bounds."""
    rng = random.Random(20260810)
    for _ in range(40):
        spec = _random_cuspidal_spec(rng)
        report = divisibility_check(spec)
        assert normalize_unit(report.local_quotient * report.alexander) == report.local_product


@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 12))
def test_nori_certificate(nodes, cusps, d):
    assert nori_abelian_certificate(d, nodes, cusps) == (d * d > 6 * cusps + 4 * nodes)


def test_nori_examples():
    assert nori_abelian_certificate(6, 0, 6) is False
    assert nori_abelian_certificate(4, 0, 3) is False
    assert nori_abelian_certificate(4, 3, 0) is True


def test_cyclic_cover_h1():
    rank, eigen = cyclic_cover_h1(PHI6, 6)
    assert rank == 2
    assert eigen == [(F(1, 6), 1), (F(5, 6), 1)]
    assert cyclic_cover_h1(PHI6, 5)[0] == 0
    assert cyclic_cover_h1(LaurentPolynomial.one(), 9)[0] == 0


def test_cyclic_cover_h1_from_factorization(sextic_on_conic, sextic_nine):
    fac = global_alexander(sextic_on_conic)
    rank, eigen = cyclic_cover_h1(fac, 6)
    assert rank == 2 and eigen == [(F(1, 6), 1), (F(5, 6), 1)]
    fac9 = global_alexander(sextic_nine)
    rank9, eigen9 = cyclic_cover_h1(fac9, 6)
    assert rank9 == 6 and eigen9 == [(F(1, 6), 3), (F(5, 6), 3)]


def test_cyclic_cover_refinement_monotone():
    """Supplying the cyclic decomposition never yields a smaller rank than
    the bare-polynomial lower bound."""
    poly = normalize_unit(PHI6**3)
    bare_rank, _ = cyclic_cover_h1(poly, 6)
    fac = AlexanderFactorization(factors=[(F(1, 6), 3)])
    refined_rank, _ = cyclic_cover_h1(fac, 6)
    assert refined_rank >= bare_rank
    assert bare_rank == 2 and refined_rank == 6


def test_superabundance_nonnegative_randomized():
    rng = random.Random(77)
    for _ in range(25):
        spec = _random_cuspidal_spec(rng)
        for kappa in (F(1, 6), F(1, 3), F(1, 2)):
            assert superabundance(spec, kappa) >= 0


def test_global_faces_zariski(sextic_on_conic):
    faces = global_faces_and_components(sextic_on_conic)
    assert len(faces) == 1
    face = faces[0]
    assert face.vertices == ((F(1, 6),),)
    assert face.level == 1
    assert face.twist_degree == 2
    assert face.h1 == 1 and face.predicted_depth == 1
    assert sorted(face.contributing_points) == list(range(6))


def test_global_faces_nodal_empty():
    spec = ProjectiveCurveSpec.build(4, [((0, 0), "node"), ((1, 1), "node"), ((2, 1), "node")])
    assert global_faces_and_components(spec) == []


def test_global_faces_generic_arrangement_empty():
    # three generic lines: only nodes, no local polytopes, no faces
    spec = ProjectiveCurveSpec(
        3,
        [("L1", 1), ("L2", 1), ("L3", 1)],
        [],
    )
    assert global_faces_and_components(spec) == []


@pytest.mark.parametrize("fixture", ["sextic_on_conic", "sextic_generic", "sextic_nine"])
def test_faces_match_global_alexander_r1(fixture, request):
    """Consistency of the two global routes for r = 1: (kappa, s) pairs with
    s > 0 agree between the factorization and the face report."""
    spec = request.getfixturevalue(fixture)
    fac = global_alexander(spec)
    faces = global_faces_and_components(spec)
    from_faces = {
        (f.interior_point[0], f.h1)
        for f in faces
        if f.h1
    }
    assert from_faces == {(k, s) for k, s in fac.factors}


def test_spec_validation():
    with pytest.raises(BadGerm):
        ProjectiveCurveSpec(6, [("C", 5)], [])
    with pytest.raises(BadGerm):
        ProjectiveCurveSpec.build(6, [((0, 0), "cusp"), ((0, 0), "node")])


def test_plucker_warning():
    with pytest.warns(UserWarning):
        ProjectiveCurveSpec.build(3, [((i, j), "node") for i in range(2) for j in range(2)])


def test_transform_positions(sextic_on_conic):
    moved = transform_positions(sextic_on_conic, [[1, 0, 5], [0, 1, -2], [0, 0, 1]])
    assert moved.singularities[0].position == (F(5), F(-2))
    assert global_alexander(moved).full_polynomial() == PHI6
    with pytest.raises(BadGerm):
        transform_positions(sextic_on_conic, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_explicit_germ_spec_matches_named():
    named = ProjectiveCurveSpec.build(6, ON_CONIC)
    explicit = ProjectiveCurveSpec.build(
        6, [(pos, "x^2 + y^3") for pos, _ in ON_CONIC]
    )
    assert global_alexander(explicit).full_polynomial() == global_alexander(named).full_polynomial()


def test_build_and_curve_from_json_give_the_same_points():
    """Both constructors map an entry to one kind and build the point the
    same way: node, cusp, torus, a germ list, a germ string met twice, and
    the default incidence of a one-component curve."""
    from alexinv.resolution import PlaneCurveGerm

    entries = [
        ((0, 0), "node", {"type": "node"}),
        ((1, 2), "cusp", {"type": "cusp"}),
        ((F(1, 2), -1), (2, 5), {"type": "torus", "pq": [2, 5]}),
        ((3, 1), PlaneCurveGerm.from_strings("x - y", "x + y"), {"germ": ["x - y", "x + y"]}),
        ((4, 0), "x^2 + y^3", {"germ": "x^2 + y^3"}),
        ((5, 5), "x^2 + y^3", {"germ": "x^2 + y^3"}),
    ]
    built = ProjectiveCurveSpec.build(8, [(pos, kind) for pos, kind, _ in entries])
    loaded = curve_from_json({
        "degree": 8,
        "singularities": [
            {"pos": [str(F(x)) for x in pos], **entry} for pos, _, entry in entries
        ],
    })
    for spec in (built, loaded):
        assert [p.incidence for p in spec.singularities] == [("C",)] * len(entries)
        # one shared datum per distinct explicit germ
        lines, cusp_a, cusp_b = (p.data for p in spec.singularities[3:])
        assert cusp_a is cusp_b and lines is not cusp_a
    for a, b in zip(built.singularities, loaded.singularities):
        assert (a.position, a.description, a.incidence) == (b.position, b.description, b.incidence)
        if isinstance(a.data, curves.NamedGermData):
            assert a.data == b.data
    assert [p.description for p in built.singularities][:4] == [
        "node", "cusp", "torus(2,5)", "germ(-y + x, y + x)",
    ]


def test_named_and_explicit_cusps_merge_into_one_face():
    """Named cusps and an explicit x^2 + y^3 lift different halfspace lists
    with one vertex set: one face, credited to all three points."""
    spec = ProjectiveCurveSpec.build(6, [((0, 0), "cusp"), ((2, 4), "cusp"), ((1, 1), "x^2 + y^3")])
    (face,) = global_faces_and_components(spec)
    assert face.vertices == ((F(1, 6),),)
    assert (face.level, face.twist_degree, face.h1) == (1, 2, 0)
    assert face.contributing_points == [0, 1, 2]


def test_smooth_explicit_germ_adds_no_condition():
    """A smooth germ has the empty resolution tree: colength 0 and no
    faces, so it leaves the superabundance unchanged at every k/d."""
    from alexinv.resolution import PlaneCurveGerm

    smooth = curves.local_data_for(PlaneCurveGerm.from_strings("y - x^2"))
    assert not smooth.tree.nodes
    assert smooth.local_faces() == [] and smooth.constants() == []
    assert all(smooth.ideal_at(F(k, 6)).colength == 0 for k in range(1, 6))
    with_smooth = ProjectiveCurveSpec.build(6, ON_CONIC + [((5, 7), "y - x^2")])
    plain = ProjectiveCurveSpec.build(6, ON_CONIC)
    for k in range(1, 6):
        assert superabundance(with_smooth, F(k, 6)) == superabundance(plain, F(k, 6))
    assert superabundance(with_smooth, F(1, 6)) == 1
