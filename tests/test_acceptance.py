"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact arithmetic; "equal" means equal up to the unit group
{+-t^a} (all one-variable outputs are canonicalized by normalize_unit).
Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
from fractions import Fraction
from itertools import product

from alexinv import biv
from alexinv.braids import BraidWord, MonodromyData, artin_action, full_twist_check, presentation_homology, vankampen_presentation
from alexinv.curves import (
    ProjectiveCurveSpec,
    cyclic_cover_h1,
    divisibility_check,
    global_alexander,
    h1_complement,
    infinity_alexander,
    local_alexander_product,
    superabundance,
)
from alexinv.groups import (
    CharacterPoint,
    GroupPresentation,
    branched_cover_betti,
    fox_jacobian,
    free_group,
    koszul_support_membership,
    one_variable_alexander,
    sphere_braid_presentation,
    trefoil_presentation,
    unbranched_cover_betti,
)
from alexinv.laurent import LaurentPolynomial, normalize_unit
from alexinv.quasiadj import (
    constants_of_quasiadjunction,
    ideal_of_quasiadjunction,
    ideal_triple,
    kappa_constant,
    lct_threshold,
)
from alexinv.resolution import (
    PlaneCurveGerm,
    acampo_zeta,
    fitting_exponents_from_hodge,
    local_alexander,
    local_alexander_from_zeta,
    multivariable_link_alexander,
    resolve,
    torus_knot_alexander,
)
from conftest import (
    diagonal_product,
    exact_divide,
    expand_product,
    integer_kernel_basis,
    inverse_product,
    product_of,
)

t = LaurentPolynomial.variable()
PHI6 = t**2 - t + 1
F = Fraction

ON_CONIC = [((x, x * x), "cusp") for x in [0, 1, -1, 2, -2, 3]]
GENERIC6 = [((0, 0), "cusp"), ((1, 0), "cusp"), ((0, 1), "cusp"),
            ((1, 1), "cusp"), ((2, 1), "cusp"), ((1, 2), "cusp")]
GENERIC9 = GENERIC6 + [((3, 1), "cusp"), ((1, 3), "cusp"), ((2, 3), "cusp")]


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_torus_knot_three_routes():
    expected = {(2, 3): PHI6, (2, 5): t**4 - t**3 + t**2 - t + 1}
    for (p, q), value in expected.items():
        # route 1: the closed torus-knot formula
        assert torus_knot_alexander(p, q) == value
        # route 2: resolution of x^p + y^q, A'Campo zeta, (t-1)/zeta
        tree = resolve(PlaneCurveGerm.from_strings(f"x^{p} + y^{q}"))
        assert local_alexander_from_zeta(acampo_zeta(tree)) == value
        # route 3: Fox calculus on the knot group <a, b | a^p = b^q>
        relator = tuple([(0, 1)] * p + [(1, -1)] * q)
        group = GroupPresentation(2, (relator,), [[q], [p]])
        assert one_variable_alexander(group) == value
    _report(1, "torus-knot formula, zeta route and Fox calculus agree for (2,3) and (2,5)")


def test_criterion_02_fox_calculus():
    assert one_variable_alexander(trefoil_presentation()) == PHI6
    assert one_variable_alexander(sphere_braid_presentation(4)) == PHI6
    assert one_variable_alexander(sphere_braid_presentation(5)) == LaurentPolynomial.one()
    assert one_variable_alexander(sphere_braid_presentation(6)) == LaurentPolynomial.one()
    _report(2, "Fox calculus gives t^2-t+1 for the trefoil and B4(S^2), 1 for B5, B6")


def test_criterion_03_hopf_links_and_diagonal():
    lines = ["x - y", "x + y", "x - 2*y", "x + 2*y"]
    trees = {}
    for r in (2, 3, 4):
        tree = resolve(PlaneCurveGerm.from_strings(*lines[:r]))
        trees[r] = tree
        mv = multivariable_link_alexander(tree)
        assert mv == ({} if r == 2 else {(1,) * r: r - 2})
    two_cusp = resolve(PlaneCurveGerm.from_strings("x^2 - y^3", "x^3 - y^2"))
    for tree in list(trees.values()) + [two_cusp]:
        mv = multivariable_link_alexander(tree)
        diag = diagonal_product(mv)
        assert diag == inverse_product(acampo_zeta(tree))
        delta = normalize_unit(expand_product(product_of({(1,): 1}, diag)))
        assert delta == local_alexander(tree)
    _report(3, "Hopf links give (1 - t1...tr)^(r-2); diagonal specialization matches every fixture")


def test_criterion_04_zariski_sextics():
    results = {
        "on conic": (ON_CONIC, PHI6),
        "generic six": (GENERIC6, LaurentPolynomial.one()),
        "generic nine": (GENERIC9, normalize_unit(PHI6**3)),
    }
    for label, (points, expected) in results.items():
        spec = ProjectiveCurveSpec.build(6, points)
        assert global_alexander(spec).full_polynomial() == expected, label
    _report(4, "sextic Alexander polynomials: t^2-t+1 (on conic), 1 (generic), (t^2-t+1)^3 (nine points off a conic)")


def test_criterion_05_divisibility():
    spec = ProjectiveCurveSpec.build(6, ON_CONIC)
    report = divisibility_check(spec)
    assert report.alexander == PHI6
    assert report.local_product == normalize_unit(PHI6**6)
    assert report.infinity == normalize_unit((t**6 - 1) ** 4 * (t - 1))
    exact_divide(report.local_product, report.alexander)
    exact_divide(report.infinity, report.alexander)
    rng = random.Random(20260810)
    checked = 0
    for _ in range(40):
        d = rng.choice(range(4, 13))
        genus_bound = (d - 1) * (d - 2) // 2
        n_cusps = rng.randint(1, min(9, genus_bound))
        n_nodes = rng.randint(0, min(4, genus_bound - n_cusps))
        points = set()
        while len(points) < n_cusps + n_nodes:
            points.add((rng.randint(-6, 6), rng.randint(-6, 6)))
        points = sorted(points)
        sings = [(p, "cusp") for p in points[:n_cusps]]
        sings += [(p, "node") for p in points[n_cusps:]]
        divisibility_check(ProjectiveCurveSpec.build(d, sings))
        checked += 1
    assert checked == 40
    _report(5, "divisibility theorem verified on the on-conic sextic and 40 randomized specs, d <= 12")


def test_criterion_06_degree_gates():
    for d in range(4, 13):
        if d % 6 == 0:
            continue
        genus_bound = (d - 1) * (d - 2) // 2
        points = GENERIC6[: min(6, genus_bound)]
        spec = ProjectiveCurveSpec.build(d, points)
        assert global_alexander(spec).full_polynomial() == LaurentPolynomial.one(), d
    _report(6, "cuspidal irreducible specs with 6 not dividing d <= 12 all have trivial Alexander polynomial")


def test_criterion_07_quasiadjunction():
    cusp = resolve(PlaneCurveGerm.from_strings("x^2 + y^3"))
    assert constants_of_quasiadjunction(cusp) == [F(1, 6)]
    ideal = ideal_of_quasiadjunction(cusp, [F(1, 6)], "strict")
    assert ideal.nonmembers == ((0, 0),) and ideal.colength == 1  # the maximal ideal
    assert lct_threshold(cusp, [1]) == F(5, 6)
    t25 = resolve(PlaneCurveGerm.from_strings("x^2 + y^5"))
    resolution_route = constants_of_quasiadjunction(t25)
    monomial_route = sorted(
        {kappa_constant(2, 5, i, j) for i in range(2) for j in range(5)} - {F(0)}
    )
    assert resolution_route == monomial_route == [F(1, 10), F(3, 10)]
    _report(7, "cusp constants {1/6} with maximal ideal, lct 5/6; x^2+y^5 gives {1/10, 3/10} both routes")


def test_criterion_08_covers():
    rank, _ = cyclic_cover_h1(PHI6, 6)
    assert rank == 2
    f2 = free_group(2)
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            assert unbranched_cover_betti(f2, (n1, n2)) == 1 + n1 * n2
    assert branched_cover_betti({frozenset({0}): trefoil_presentation()}, (6,)) == 2
    _report(8, "cyclic cover rank 2 at n=6; free-group covers match 1 + n1 n2; branched trefoil cover b1 = 2")


def test_criterion_09_smith_homology():
    assert h1_complement([6]) == (0, [6])
    assert h1_complement([2, 3]) == (1, [])
    assert h1_complement([2, 2]) == (1, [2])
    _report(9, "H_1 of complements matches Z^r/(d_1,...,d_r) on [6], [2,3], [2,2]")


def test_criterion_10_braid_pipeline():
    assert full_twist_check(MonodromyData(2, [BraidWord(2, [1]), BraidWord(2, [1])]))
    assert full_twist_check(MonodromyData(3, [BraidWord(3, [1, 2, 1, 2, 1, 2])]))
    conic = MonodromyData(2, [BraidWord(2, [1]), BraidWord(2, [1])])
    assert presentation_homology(vankampen_presentation(conic, "projective")) == (0, [2])
    assert presentation_homology(vankampen_presentation(conic, "affine")) == (1, [])
    _report(10, "full twist verified for [s1,s1] and [(s1 s2)^3]; conic abelianizes to Z/2 and Z")


def test_criterion_11_koszul_support():
    for r in (3, 4):
        denominators = [1, 2, 3]
        sampled = 0
        for coords in product(
            *[[F(k, q) for q in denominators for k in range(q)] for _ in range(r)]
        ):
            chi = CharacterPoint(coords)
            expected = sum(chi.coords) % 1 == 0
            assert koszul_support_membership(r, 2, chi) == expected
            sampled += 1
        assert sampled > 0
    _report(11, "Koszul support membership is true exactly on characters with product 1 (r = 3, 4; n = 2)")


def test_criterion_12_hodge_to_fitting():
    assert fitting_exponents_from_hodge(0, 1, 0) == [1]
    assert fitting_exponents_from_hodge(1, 0, 0) == [2]
    assert fitting_exponents_from_hodge(1, 1, 1) == [4, 2, 1]
    for h00 in range(4):
        for h10 in range(4):
            for h01 in range(4):
                seq = fitting_exponents_from_hodge(h00, h10, h01)
                assert all(a >= b for a, b in zip(seq, seq[1:]))
    _report(12, "Hodge-number case formula gives (1), (2), (4,2,1) and is always non-increasing")


def test_criterion_13_property_suites():
    # Fox row identity on 200 random presentations
    rng = random.Random(13)
    count = 0
    while count < 200:
        s = rng.randint(2, 3)
        relators = []
        for _ in range(rng.randint(1, 3)):
            relators.append(
                tuple((rng.randrange(s), rng.choice((1, -1))) for _ in range(rng.randint(2, 8)))
            )
        matrix = [[0] * s for _ in relators]
        for i, rel in enumerate(relators):
            for g, e in rel:
                matrix[i][g] += e
        basis = integer_kernel_basis(matrix)
        if not basis:
            continue
        phi = [[v[j] for v in basis] for j in range(s)]
        fox_jacobian(GroupPresentation(s, tuple(relators), phi))  # identity asserted inside
        count += 1

    # Artin braid relations on random words, d <= 5
    for _ in range(100):
        d = rng.randint(3, 5)
        i = rng.randint(1, d - 2)
        w = tuple((rng.randrange(d), rng.choice((1, -1))) for _ in range(rng.randint(1, 6)))
        lhs = BraidWord(d, [i, i + 1, i])
        rhs = BraidWord(d, [i + 1, i, i + 1])
        assert artin_action(lhs, w) == artin_action(rhs, w)

    # ideal inclusion chain on all fixtures over a denominator <= 12 grid
    one_branch = [
        resolve(PlaneCurveGerm.from_strings(g))
        for g in ("x^2 + y^3", "x^2 + y^5", "x^3 + y^4")
    ]
    for tree in one_branch:
        for q in range(2, 13):
            for k in range(1, q + 1):
                a, w1, a2 = ideal_triple(tree, [F(k, q)])
                assert a.members <= w1.members <= a2.members
    for comps in (("x - y", "x + y"), ("x^2 - y^3", "x^3 - y^2")):
        tree = resolve(PlaneCurveGerm.from_strings(*comps))
        for k1 in range(1, 13, 2):
            for k2 in range(1, 13, 2):
                a, w1, a2 = ideal_triple(tree, [F(k1, 12), F(k2, 12)])
                assert a.members <= w1.members <= a2.members

    # superabundance >= 0 on randomized specs
    for _ in range(20):
        d = rng.choice(range(4, 13))
        genus_bound = (d - 1) * (d - 2) // 2
        n = rng.randint(1, min(8, genus_bound))
        points = set()
        while len(points) < n:
            points.add((rng.randint(-5, 5), rng.randint(-5, 5)))
        spec = ProjectiveCurveSpec.build(d, [(p, "cusp") for p in sorted(points)])
        for kappa in (F(1, 6), F(1, 3), F(1, 2), F(5, 6)):
            assert superabundance(spec, kappa) >= 0
    _report(13, "property suites: Fox identity (200), braid relations, ideal chains (denominator <= 12), superabundance >= 0")
