import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
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
from alexinv import curves, cyclotomic
from alexinv.cyclotomic import expand_cyclotomic
from alexinv.errors import BadArgument, BadGerm, NotPolynomial, TheoremViolation
from alexinv.laurent import LaurentPolynomial, common_root_count, normalize_unit
from alexinv.polytope import RationalPolytope
from alexinv.quasiadj import LocalIdealDescription, kappa_constant, torus_constants
from alexinv.resolution import PlaneCurveGerm, torus_knot_exponents
from alexinv.serialize import curve_from_json
from conftest import (
    exact_divide,
    full_sweep_triple,
    reference_condition_rows,
    reference_factorization_cover,
    reference_h1,
    reference_transform_positions,
    unpruned_intersections,
)

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


def test_divisibility_failure_names_the_phi_exponents():
    """120 cusps on y = x^2 at d = 24 give Delta_C = Phi_6^85, which does
    not divide Delta_inf = (t^24 - 1)^22 (t - 1): the message names the
    Phi_6 exponents, not the expanded polynomials of degree 170 and 529."""
    spec = ProjectiveCurveSpec.build(24, [((x, x * x), "cusp") for x in range(-60, 60)])
    with pytest.raises(TheoremViolation) as caught:
        divisibility_check(spec)
    message = str(caught.value)
    assert "Phi_6^85 does not divide Phi_6^22" in message
    assert len(message) < 80


EXPONENT_MAPS = st.dictionaries(st.integers(1, 12), st.integers(0, 4), max_size=3)


@settings(max_examples=80, deadline=None)
@given(EXPONENT_MAPS, EXPONENT_MAPS, st.booleans())
def test_divisibility_verdict_matches_exact_divide(num, den, force):
    """The exponent comparison against the old route, exact division of the
    expanded polynomials: den divides num exactly when no Phi_m exponent
    of the quotient is negative, and the quotients agree."""
    if force:
        num = cyclotomic._product(num, den)
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
    true_ideal_at = curves.LocalData.ideal_at

    def counting(self, xi):
        calls.append(self)
        return true_ideal_at(self, xi)

    monkeypatch.setattr(curves.LocalData, "ideal_at", counting)
    assert superabundance(spec, F(1, 6)) >= 0
    assert len(calls) == len(set(calls)) == 3
    calls.clear()
    global_faces_and_components(ProjectiveCurveSpec.build(6, ON_CONIC))
    assert len(calls) == 1


def test_equal_explicit_germs_share_one_resolution(monkeypatch):
    """Six explicit x^2 + y^3 points, written two ways, and the named cusp
    are one local type: one resolution, and one ideal per kappa; the answer
    is the cusps'.  Each count starts from an empty cache."""
    resolved = []
    true_resolve = curves.resolve
    monkeypatch.setattr(curves, "resolve", lambda germ: resolved.append(germ) or true_resolve(germ))
    monkeypatch.setattr(curves, "_LOCAL_DATA", {})
    texts = ["x^2 + y^3", "y^3 + x^2"] * 3
    spec = ProjectiveCurveSpec.build(6, [(pos, text) for (pos, _), text in zip(ON_CONIC, texts)])
    assert len(resolved) == 1
    assert len({id(p.data) for p in spec.singularities}) == 1
    named = ProjectiveCurveSpec.build(6, ON_CONIC)
    assert len(resolved) == 1 and named.singularities[0].data is spec.singularities[0].data
    kappas = []
    true_ideal_at = curves.LocalData.ideal_at

    def counting(self, xi):
        kappas.append(xi)
        return true_ideal_at(self, xi)

    monkeypatch.setattr(curves.LocalData, "ideal_at", counting)
    factorization = global_alexander(spec)
    assert kappas == [(F(1, 6),)]
    assert factorization.factors == global_alexander(named).factors
    resolved.clear()
    monkeypatch.setattr(curves, "_LOCAL_DATA", {})
    curve_from_json({
        "degree": 7,
        "singularities": [{"pos": [str(x), str(y)], "germ": "x^2 + y^3"} for (x, y), _ in ON_CONIC]
        + [{"pos": ["7", "7"], "type": "cusp"}, {"pos": ["8", "7"], "type": "node"}],
    })
    assert len(resolved) == 2


def test_equal_named_germs_give_equal_specs():
    assert ProjectiveCurveSpec.build(6, ON_CONIC) == ProjectiveCurveSpec.build(6, ON_CONIC)
    assert ProjectiveCurveSpec.build(6, ON_CONIC) != ProjectiveCurveSpec.build(6, GENERIC6)
    assert len({p.data for p in ProjectiveCurveSpec.build(6, ON_CONIC).singularities}) == 1


def test_overcounted_rank_is_an_internal_error(sextic_on_conic, monkeypatch):
    true_rank = curves._condition_rank
    monkeypatch.setattr(curves, "_condition_rank", lambda *args: true_rank(*args) + 2)
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
    """A polynomial is one cyclic module Q[t]/(Delta): a repeated root
    that is an n-th root of unity counts once, in the rank and in the
    eigenvalues alike, so dim Q[t]/(Delta, t^n - 1) is their sum."""
    rank, eigen = cyclic_cover_h1(PHI6, 6)
    assert rank == 2
    assert eigen == [(F(1, 6), 1), (F(5, 6), 1)]
    assert cyclic_cover_h1(PHI6**2, 6) == (2, [(F(1, 6), 1), (F(5, 6), 1)])
    assert cyclic_cover_h1(PHI6**3 * (t - 1), 6) == (3, [(F(1, 6), 1), (F(5, 6), 1)])
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


@pytest.mark.parametrize("kappa", [F(0), F(1), F(3, 2), F(-1, 6)])
def test_factorization_refuses_kappa_outside_the_open_interval(kappa):
    """kappa is read as the root exp(2 pi i kappa) only in (0, 1): another
    value is refused, naming the factor, not read mod 1."""
    with pytest.raises(BadArgument, match=f"factor \\({kappa}, 2\\)"):
        AlexanderFactorization(factors=[(F(1, 6), 1), (kappa, 2)])


@pytest.mark.parametrize("s", [0, -1])
def test_factorization_refuses_exponent_below_one(s):
    with pytest.raises(BadArgument, match=f"factor \\(1/6, {s}\\)"):
        AlexanderFactorization(factors=[(F(1, 6), s)], t_minus_one_exponent=1)


@st.composite
def cyclotomic_products(draw):
    """Delta = prod Phi_m^e over up to four orders m <= 30 with e in 1..3,
    times t^2 - 3t + 1 (no root of unity) in some draws, and an order n <= 30."""
    exponents = draw(st.dictionaries(st.integers(1, 30), st.integers(1, 3), max_size=4))
    delta = expand_cyclotomic(exponents)
    if draw(st.booleans()):
        delta = delta * (t**2 - 3 * t + 1)
    return delta, draw(st.integers(1, 30))


@given(cyclotomic_products())
def test_cyclic_cover_h1_is_the_common_root_count(case):
    """The rank is deg gcd(Delta, t^n - 1), by sympy and by the gcd route
    of ``common_root_count`` that the reduction mod Phi_d replaced, every
    eigenvalue has multiplicity 1, and the rank is the eigenvalues plus
    the trivial root when Delta(1) = 0."""
    import sympy

    delta, n = case
    v = sympy.Symbol("t")
    poly = sympy.Poly(list(reversed(delta.to_univariate())), v)
    rank, eigen = cyclic_cover_h1(delta, n)
    assert rank == sympy.gcd(poly, sympy.Poly(v**n - 1, v)).degree()
    assert rank == common_root_count(delta, n)
    assert all(m == 1 for _, m in eigen)
    assert rank == len(eigen) + (poly.eval(1) == 0)
    assert cyclic_cover_h1(delta, n, semisimple=False) == (rank, [])


def test_cyclic_cover_h1_factorization_matches_oracle():
    """On seeded factorizations with every kappa in (0, 1), the one map
    gives the rank and eigenvalues of the two loops it replaced."""
    rng = random.Random(32)
    for _ in range(200):
        factors = [
            (F(rng.randint(1, d - 1), d), rng.randint(1, 3))
            for d in (rng.randint(2, 12) for _ in range(rng.randint(0, 4)))
        ]
        fac = AlexanderFactorization(factors, t_minus_one_exponent=rng.randint(0, 3))
        n = rng.randint(1, 24)
        assert cyclic_cover_h1(fac, n) == reference_factorization_cover(fac, n)


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
    assert face.h1 == 1
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


@pytest.mark.parametrize("kind", ["cusp", "x^2 + y^3"])
def test_plucker_warning_counts_a_cusp_however_written(kind):
    """An explicit x^2 + y^3 has the named cusp's datum, so it counts as a
    cusp."""
    with pytest.warns(UserWarning, match="0 nodes [+] 4 cusps exceed"):
        ProjectiveCurveSpec.build(3, [((i, j), kind) for i in range(2) for j in range(2)])


def test_transform_positions(sextic_on_conic):
    moved = transform_positions(sextic_on_conic, [[1, 0, 5], [0, 1, -2], [0, 0, 1]])
    assert moved.singularities[0].position == (F(5), F(-2))
    assert global_alexander(moved).full_polynomial() == PHI6
    with pytest.raises(BadGerm):
        transform_positions(sextic_on_conic, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_transform_positions_refuses_a_singular_matrix(sextic_on_conic):
    """[[1, 0, 0], [1, 0, 0], [0, 0, 1]] sends the six cusps of y = x^2 to
    six distinct points of y = x, where the superabundance at 1/6 reads 3
    and not 1: a singular matrix is no change of coordinates."""
    onto_a_line = [[1, 0, 0], [1, 0, 0], [0, 0, 1]]
    assert superabundance(reference_transform_positions(sextic_on_conic, onto_a_line), F(1, 6)) == 3
    with pytest.raises(BadGerm, match="determinant 0"):
        transform_positions(sextic_on_conic, onto_a_line)


def test_transform_positions_refuses_a_4x4_matrix(sextic_on_conic):
    four = [[int(i == j) for j in range(4)] for i in range(4)]
    with pytest.raises(BadGerm, match="3x3 matrix, not 4x4"):
        transform_positions(sextic_on_conic, four)


def test_transform_positions_refuses_a_2x3_matrix(sextic_on_conic):
    with pytest.raises(BadGerm, match="3x3 matrix, not 2x3"):
        transform_positions(sextic_on_conic, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(BadGerm, match=r"not rows of lengths \[3, 2, 3\]"):
        transform_positions(sextic_on_conic, [[1, 0, 0], [0, 1], [0, 0, 1]])


# a matrix entry as an int, a Fraction, a string or a dyadic float, each
# read exactly by Fraction
ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-6, 6), st.integers(1, 6)),
    st.sampled_from([0.5, -1.25, 2.0, 0.0]),
)
POSITIONS = st.lists(
    st.tuples(*[st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))] * 2),
    min_size=1, max_size=8, unique=True,
)


def _moved(transform, spec, matrix):
    try:
        return transform(spec, matrix)
    except BadGerm as exc:
        return BadGerm, str(exc)


@settings(max_examples=200)
@given(POSITIONS, st.sampled_from(["affine", "projective", "at infinity"]), st.data())
def test_transform_positions_matches_fraction_oracle(positions, kind, data):
    """On integer homogeneous coordinates the map gives the spec the
    Fraction oracle gives, or the same error: for affine and projective
    invertible matrices, and for one whose last row vanishes at a point."""
    spec = ProjectiveCurveSpec.build(12, [(pos, "cusp") for pos in positions])
    matrix = [[data.draw(ENTRIES) for _ in range(3)] for _ in range(3)]
    if kind == "affine":
        matrix[2] = [0, 0, data.draw(ENTRIES)]
    elif kind == "at infinity":
        x, y = data.draw(st.sampled_from(positions))
        a, b = (Fraction(c) for c in matrix[2][:2])
        matrix[2][2] = str(-(a * x + b * y))
    assume(curves._det([[Fraction(c) for c in row] for row in matrix]) != 0)
    moved = _moved(transform_positions, spec, matrix)
    assert moved == _moved(reference_transform_positions, spec, matrix)
    if isinstance(moved, ProjectiveCurveSpec):
        assert kind != "at infinity"
        assert all(type(c) is Fraction for p in moved.singularities for c in p.position)
    else:
        assert "maps to infinity" in moved[1]


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
        assert a.data is b.data
    assert [p.description for p in built.singularities][:4] == [
        "node", "cusp", "torus(2,5)", "germ(-y + x, y + x)",
    ]


def test_single_label_lifts_every_branch_of_a_multibranch_germ():
    """A tacnode on a one-component octic, with the default incidence
    ("C",), lifts both of its coordinates onto xi: its one face is
    xi = 1/4 at level 2, as with ("C", "C") and as the tacnode's diagonal
    jumping value."""
    tacnode = {"pos": ["0", "0"], "germ": ["y - x^2", "y + x^2"]}
    specs = [curve_from_json({"degree": 8, "singularities": [dict(tacnode, **extra)]})
             for extra in ({}, {"incidence": ["C"]}, {"incidence": ["C", "C"]})]
    specs.append(ProjectiveCurveSpec.build(8, [((0, 0), PlaneCurveGerm.from_strings("y - x^2", "y + x^2"))]))
    assert specs[0].singularities[0].data.constants() == [F(1, 4)]
    for spec in specs:
        (face,) = global_faces_and_components(spec)
        assert face.vertices == ((F(1, 4),),)
        assert (face.level, face.twist_degree, face.h1) == (2, 3, 0)


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
    assert smooth.delta_exponents() == {} and curves.local_data_for("torus", (1, 4)).delta_exponents() == {}
    assert all(smooth.ideal_at((F(k, 6),)).colength == 0 for k in range(1, 6))
    with_smooth = ProjectiveCurveSpec.build(6, ON_CONIC + [((5, 7), "y - x^2")])
    plain = ProjectiveCurveSpec.build(6, ON_CONIC)
    for k in range(1, 6):
        assert superabundance(with_smooth, F(k, 6)) == superabundance(plain, F(k, 6))
    assert superabundance(with_smooth, F(1, 6)) == 1


# ---------------------------------------------------------------------------
# the standard-monomial walk of _condition_rank against the whole condition
# matrix, and the pruned subset walk against the unpruned enumeration
# ---------------------------------------------------------------------------

CONDITION_KINDS = [
    "cusp",
    "node",
    (2, 5),
    (3, 4),
    "x^2 + y^5",
    "(x-y)^2+y^5",
    "x^3 + y^4",
    PlaneCurveGerm.from_strings("x^2 - y^3", "x^3 - y^2"),
    PlaneCurveGerm.from_strings("x - y", "x + y", "x"),
]


@st.composite
def condition_cases(draw):
    """Singular points of mixed kinds on a grid, a line or a conic, at
    integer or rational positions, with a kappa and a twist degree m."""
    shape = draw(st.sampled_from(["grid", "line", "conic"]))
    den = draw(st.sampled_from([1, 1, 2, 3]))
    n = draw(st.integers(1, 9))
    if shape == "grid":
        cells = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n, unique=True))
        positions = [(F(a, den), F(b, den)) for a, b in cells]
    else:
        ts = [F(t, den) for t in draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True))]
        positions = [(t, 3 * t - 1) if shape == "line" else (t, t * t) for t in ts]
    kinds = draw(st.lists(st.sampled_from(CONDITION_KINDS), min_size=n, max_size=n))
    points = [curves.singular_point(p, k, ("C",)) for p, k in zip(positions, kinds)]
    spec = ProjectiveCurveSpec(60, [("C", 60)], points)
    kappa = F(draw(st.integers(1, 60)), 60)
    return spec, [_diagonal_ideal(point.data, kappa) for point in points], draw(st.integers(0, 9))


def _diagonal_ideal(data, kappa):
    return data.ideal_at((kappa,) * data.branch_count())


@settings(max_examples=150)
@given(condition_cases())
def test_condition_rank_matches_whole_matrix(case):
    spec, ideals, m = case
    assert curves._h1(spec, ideals, m) == reference_h1(spec, ideals, m)


@pytest.mark.parametrize("prime", [2, 3, 5, 2**31 - 1])
@settings(max_examples=80)
@given(case=condition_cases())
def test_condition_rank_matches_whole_matrix_modulo_other_primes(prime, case):
    """The walk with the module prime replaced: at 2, 3 and 5 many columns
    are dependent mod P and some independent over Q, which forces the
    exact decisions and the fall back to the exact echelon; 2^31 - 1 leaves
    room for only three steps between folds of a packed row."""
    spec, ideals, m = case
    with mock.patch.object(curves, "P", prime):
        assert curves._h1(spec, ideals, m) == reference_h1(spec, ideals, m)


def test_condition_rank_when_p_divides_a_minor():
    """Points whose coordinates have denominator P read zero rows mod P,
    and points on the line y = P x have a y column that vanishes mod P
    while their x column is y / P.  Either way a column that is dependent
    mod P is independent over Q, and the walk must finish on the exact
    echelon: on the line, x is then dependent over Q on 1 and y, though
    independent of 1 mod P."""
    p = curves.P
    for positions in (
        [(F(k, p), F(k * k, p * p)) for k in range(1, 9)],
        [(F(k, p), F(3 * k - 1)) for k in range(1, 5)] + [(F(k), F(k * k)) for k in range(1, 5)],
        [(F(k), F(p * k)) for k in range(6)],
    ):
        for kappa in (F(1, 6), F(1, 10)):
            for kind in ("cusp", (2, 5)):
                points = [curves.singular_point(pos, kind, ("C",)) for pos in positions]
                spec = ProjectiveCurveSpec(10, [("C", 10)], points)
                ideals = [_diagonal_ideal(point.data, kappa) for point in spec.singularities]
                for m in range(6):
                    assert curves._h1(spec, ideals, m) == reference_h1(spec, ideals, m)


TABLE_KINDS = ["cusp", "node", (2, 5), "x^3 + y^4", PlaneCurveGerm.from_strings("y - x^2", "y + x^2")]


@st.composite
def table_cases(draw):
    """Points at positions whose denominators may be multiples of the
    modulus, each with the ideal of a germ at a diagonal kappa (the (2, 5)
    germ has nonmembers with beta >= 1, x^3 + y^4 with alpha, beta >= 1)
    or a drawn staircase; a twist degree m, a top <= m and a modulus: none,
    P or a small prime."""
    modulus = draw(st.sampled_from([None, curves.P, 2, 3]))
    dens = st.sampled_from([1, 2, 3, 7] + [k * (modulus or curves.P) for k in (1, 2, modulus or curves.P)])
    coordinate = st.builds(F, st.integers(-9, 9), dens)
    positions = draw(st.lists(st.tuples(coordinate, coordinate), max_size=6, unique=True))
    kappa = F(draw(st.integers(1, 30)), 60)
    points, ideals = [], []
    for position in positions:
        kind = draw(st.sampled_from(TABLE_KINDS + ["staircase"]))
        point = curves.singular_point(position, "cusp" if kind == "staircase" else kind, ("C",))
        if kind == "staircase":
            heights = sorted(draw(st.lists(st.integers(1, 4), max_size=4)), reverse=True)
            staircase = tuple((a, b) for a, h in enumerate(heights) for b in range(h))
            ideals.append(LocalIdealDescription(len(heights) + 4, staircase))
        else:
            ideals.append(_diagonal_ideal(point.data, kappa))
        points.append(point)
    m = draw(st.integers(0, 8))
    return ProjectiveCurveSpec(60, [("C", 60)], points), ideals, m, draw(st.integers(0, m)), modulus


@settings(max_examples=150)
@given(table_cases())
def test_condition_tables_are_the_taylor_rows_transposed(case):
    """The column-major tables hold, at degree i, entry c, what the row of
    condition c held at i in the point-by-point layout, exactly and mod a
    prime; a point whose denominator the prime divides reads zeros."""
    spec, ideals, m, top, modulus = case
    rows = reference_condition_rows(spec, ideals, m, top, modulus)
    xs, ys = curves._condition_tables(spec, ideals, m, top, modulus)
    assert xs == [[xr[i] for xr, _ in rows] for i in range(top + 1)]
    assert ys == [[yr[j] for _, yr in rows] for j in range(top + 1)]


def _mod_p_rank(rows, prime):
    """The rank mod a prime of integer rows, by plain elimination on lists:
    the oracle of the packed echelon of ``curves._insert_mod_p``."""
    rows = [[x % prime for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], -1, prime)
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] * inverse
            rows[r] = [(x - f * y) % prime for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("prime", [2, 3, 5, 2**20 - 3, 2**31 - 1])
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(-10**30, 10**30), min_size=n, max_size=n), min_size=1, max_size=14)))
def test_packed_echelon_matches_plain_elimination(prime, columns):
    """Inserting columns one at a time into the packed echelon: each
    verdict is whether the rank mod P went up.  Columns are also repeated
    as sums of earlier ones, so dependences occur at every prime."""
    columns = columns + [[x + y for x, y in zip(columns[0], col)] for col in columns[1:3]]
    rows, pivots = [], []
    with mock.patch.object(curves, "P", prime):
        for k, col in enumerate(columns, 1):
            grew = _mod_p_rank(columns[:k], prime) > _mod_p_rank(columns[:k - 1], prime)
            assert curves._insert_mod_p(rows, pivots, col) == grew
    assert all(0 <= x < prime for row in rows for x in curves._unpack(row, len(columns[0])))


def test_packed_echelon_refuses_a_prime_that_breaks_the_slot_bound():
    """A prime above 2^31.5 leaves no room for a step between folds, as
    2 P^2 > 2^64: it is refused, and nothing carries into the next slot."""
    with mock.patch.object(curves, "P", 2**32 + 15):
        with pytest.raises(AssertionError, match="slot bound"):
            curves._insert_mod_p([], [], [1, 2])


def test_condition_rank_matches_whole_matrix_on_named_rungs(sextic_on_conic, sextic_nine):
    """The seeded 8-point curve of (2, 5) germs, sheared or not, and the
    sextics: both routes agree where h^1 > 0 and where it is 0."""
    points = [(-3, 3), (-2, 2), (-1, -2), (-1, -1), (0, 0), (1, -1), (3, 0), (3, 1)]
    tens = ProjectiveCurveSpec.build(10, [(p, (2, 5)) for p in points])
    sheared = transform_positions(tens, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    for spec in (tens, sheared, sextic_on_conic, sextic_nine):
        for k in range(1, spec.degree):
            kappa = F(k, spec.degree)
            m = spec.degree - 3 - k
            if m < 0:
                continue
            ideals = [_diagonal_ideal(point.data, kappa) for point in spec.singularities]
            assert curves._h1(spec, ideals, m) == reference_h1(spec, ideals, m)


DOWNWARD_GERMS = [
    ("x^2 + y^3",),
    ("x^2 + y^5",),
    ("(x-y)^2+y^5",),
    ("x^3 + y^4",),
    ("(x^2-y^3)^2-4*x^5*y-x^7",),
    ("x^2 - y^3", "x^3 - y^2"),
    ("x - y", "x + y"),
    ("x^2 - y^3", "x^3 - y^2", "x - y"),
]
_TREES: dict = {}


def _tree(texts):
    if texts not in _TREES:
        _TREES[texts] = curves.local_data_for(PlaneCurveGerm.from_strings(*texts)).tree
    return _TREES[texts]


@given(st.sampled_from(DOWNWARD_GERMS), st.lists(st.integers(1, 60), min_size=3, max_size=3))
def test_nonmembers_are_closed_downwards(texts, numerators):
    """The precondition of the walks in _condition_rank and in
    quasiadj.ideal_triple: with x^a y^b a nonmember, so are x^(a-1) y^b
    and x^a y^(b-1), for every variant at every xi (read from the full
    sweep, which does not assume it), and for the closed-form ideals of
    the torus types along the diagonal."""
    tree = _tree(texts)
    xi = [F(k, 60) for k in numerators[: tree.r]]
    ideals = list(full_sweep_triple(tree, xi))
    ideals += [_closed_form_ideal(p, q, xi[0]) for p, q in ((2, 3), (2, 5), (3, 4), (4, 7))]
    for ideal in ideals:
        nonmembers = set(ideal.nonmembers)
        for a, b in nonmembers:
            assert a == 0 or (a - 1, b) in nonmembers
            assert b == 0 or (a, b - 1) in nonmembers


def _closed_form_ideal(p, q, kappa):
    """The strict ideal of x^p + y^q along the diagonal by comparing kappa
    with each monomial's constant of quasiadjunction, below the bound
    p + q: the closed form that named types were once computed by, kept as
    an oracle for their resolution route."""
    bound = p + q
    nonmembers = [
        (i, total - i) for total in range(bound) for i in range(total + 1)
        if kappa <= kappa_constant(p, q, i, total - i)
    ]
    return LocalIdealDescription(bound, tuple(sorted(nonmembers)))


def test_named_ideal_matches_kappa_constant_route():
    """Every k/d with 1 <= k <= d <= 42, on the node, the cusp and six torus
    types: the resolved normal form has the closed forms' nonmembers (none
    for the node), constants, Phi_m exponents and branch count."""
    kappas = sorted({F(k, d) for d in range(1, 43) for k in range(1, d + 1)})
    tori = [("torus", pq) for pq in ((2, 5), (3, 4), (4, 7), (2, 7), (3, 5), (5, 9))]
    for kind, pq in [("node", None), ("cusp", None)] + tori:
        data = curves.local_data_for(kind, pq)
        p, q = pq or (2, 3)
        if kind == "node":
            assert (data.branch_count(), data.constants(), data.delta_exponents()) == (2, [], {1: 1})
            assert all(not data.ideal_at((kappa, kappa)).nonmembers for kappa in kappas)
            continue
        assert data.branch_count() == 1
        assert data.constants() == torus_constants(p, q)
        assert data.delta_exponents() == torus_knot_exponents(p, q)
        for kappa in kappas:
            got = sorted(data.ideal_at((kappa,)).nonmembers)
            assert got == list(_closed_form_ideal(p, q, kappa).nonmembers), (kind, pq, kappa)


def _count_columns(monkeypatch):
    """Count the columns reduced mod P and the ones inserted exactly."""
    counts = {"mod_p": 0, "exact": 0}
    insert_mod_p, insert = curves._insert_mod_p, curves.echelon_insert

    def counting_mod_p(*args):
        counts["mod_p"] += 1
        return insert_mod_p(*args)

    def counting(*args):
        counts["exact"] += 1
        return insert(*args)

    monkeypatch.setattr(curves, "_insert_mod_p", counting_mod_p)
    monkeypatch.setattr(curves, "echelon_insert", counting)
    return counts


def test_conic_rung_builds_few_columns(monkeypatch):
    """120 cusps on y = x^2 at d = 24 (m = 17): every curve of degree 17
    through them contains the conic, whose leading monomial is x^2 in the
    graded order, so the walk builds the columns of y^j, x y^j and x^2
    alone, 2m + 2 = 36 of them, and not the 171 of the whole matrix.  Only
    x^2 is dependent, so the exact echelon takes the five monomials before
    it and x^2 itself."""
    counts = _count_columns(monkeypatch)
    spec = ProjectiveCurveSpec.build(24, [((x, x * x), "cusp") for x in range(-60, 60)])
    assert superabundance(spec, F(1, 6)) == 85
    assert counts["mod_p"] <= 2 * 17 + 2
    assert counts["exact"] <= 6


def test_general_rung_makes_no_exact_insert(monkeypatch):
    """30 seeded grid points in general position at d = 12 (m = 7): the
    first 30 of the 36 monomials are standard, each proved so mod P, and
    the exact echelon is never used."""
    grid = [(x, y) for x in range(-12, 13) for y in range(-12, 13)]
    spec = ProjectiveCurveSpec.build(12, [(p, "cusp") for p in random.Random(20051018).sample(grid, 30)])
    ideals = [_diagonal_ideal(point.data, F(1, 6)) for point in spec.singularities]
    assert reference_h1(spec, ideals, 7) == 0
    counts = _count_columns(monkeypatch)
    assert superabundance(spec, F(1, 6)) == 0
    assert counts == {"mod_p": 30, "exact": 0}


def _two_cusp_germ_and_a_cusp():
    """Degree 6, components A and B of degree 3, the two-cusp germ at
    (0, 0) and a cusp at (1, 1), both with no incidence: 10 lifted faces."""
    two_cusps = PlaneCurveGerm.from_strings("x^2 - y^3", "x^3 - y^2")
    points = [curves.singular_point((0, 0), two_cusps), curves.singular_point((1, 1), "cusp")]
    return ProjectiveCurveSpec(6, [("A", 3), ("B", 3)], points)


def test_empty_intersections_are_not_extended(monkeypatch):
    """The subset walk of global_faces_and_components solves 89 vertex sets
    on this curve, of the 1023 subsets of its 10 lifted faces."""
    solved = []

    class CountingPolytope(RationalPolytope):
        def vertices(self):
            solved.append(1)
            return super().vertices()

    monkeypatch.setattr(curves, "RationalPolytope", CountingPolytope)
    faces = global_faces_and_components(_two_cusp_germ_and_a_cusp())
    assert len(faces) == 12
    assert len(solved) <= 89


def test_pruned_subset_walk_matches_unpruned_enumeration(monkeypatch, sextic_on_conic):
    """The pruned walk yields the nonempty subsets of the unpruned
    enumeration, and global_faces_and_components reports byte-identical
    faces on either."""
    seen = []
    walk = curves._intersections
    monkeypatch.setattr(curves, "_intersections", lambda *args: seen.append(args) or walk(*args))
    global_faces_and_components(_two_cusp_germ_and_a_cusp())
    ((r, faces, max_size),) = seen
    assert (r, len(faces), max_size) == (2, 10, 10)
    for size in (1, 2, 3):
        assert sorted(walk(r, faces, size)) == sorted(unpruned_intersections(r, faces, size))

    tacnode = PlaneCurveGerm.from_strings("y - x^2", "y + x^2")
    specs = [
        sextic_on_conic,
        ProjectiveCurveSpec(6, [("A", 3), ("B", 3)], [
            curves.singular_point((0, 0), tacnode, ("A", "B")),
            curves.singular_point((1, 1), "cusp", ("A",)),
            curves.singular_point((2, 1), "cusp", ("B",)),
        ]),
        ProjectiveCurveSpec.build(10, [((0, 0), (2, 5)), ((1, 2), "cusp"), ((3, 1), "x^2+y^5"), ((2, 2), "x^3+y^4")]),
    ]
    for spec in specs:
        monkeypatch.setattr(curves, "_intersections", walk)
        pruned = repr(global_faces_and_components(spec))
        monkeypatch.setattr(curves, "_intersections", unpruned_intersections)
        assert repr(global_faces_and_components(spec)) == pruned
