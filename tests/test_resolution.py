import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv import biv, resolution
from alexinv.errors import (
    BadGerm,
    BadHodgeData,
    NotCoprime,
    NotPolynomial,
    NonRationalInfinitelyNearPoint,
    NotReduced,
    ResolutionDidNotTerminate,
)
from alexinv.cyclotomic import expand_cyclotomic
from alexinv.laurent import LaurentPolynomial, normalize_unit
from alexinv.resolution import (
    PlaneCurveGerm,
    ResolutionNode,
    ResolutionTree,
    acampo_zeta,
    fitting_exponents_from_hodge,
    local_alexander,
    local_alexander_from_zeta,
    multivariable_link_alexander,
    resolve,
    torus_knot_alexander,
    torus_knot_exponents,
    zeta_exponents,
)
from conftest import (
    diagonal_product,
    drawn_germs,
    expand_product,
    inverse_product,
    product_of,
    reference_node_orders,
    resolve_drawn,
)

t = LaurentPolynomial.variable()
PHI6 = t**2 - t + 1


def test_cusp_tree(cusp_tree):
    assert [(n.a, n.c) for n in cusp_tree.nodes] == [((2,), 1), ((3,), 2), ((6,), 4)]
    assert sorted(cusp_tree.nodes[2].adjacent) == [1, 2]
    assert cusp_tree.nodes[0].adjacent == {3}
    assert cusp_tree.nodes[2].strict == {0: 1}
    assert [n.chi_open() for n in cusp_tree.nodes] == [1, 1, -1]


def test_node_tree(node_tree):
    assert len(node_tree.nodes) == 1
    n = node_tree.nodes[0]
    assert n.a == (1, 1) and n.c == 1 and n.chi_open() == 0
    assert sum(n.strict.values()) == 2


def test_smooth_germ_empty_tree():
    assert resolve(PlaneCurveGerm.from_strings("y")).nodes == []
    assert resolve(PlaneCurveGerm.from_strings("y - x^2")).nodes == []


def test_cusp_zeta_and_alexander(cusp_tree):
    zeta = acampo_zeta(cusp_tree)
    assert zeta == {(2,): 1, (3,): 1, (6,): -1}
    assert local_alexander_from_zeta(zeta) == PHI6


def test_node_zeta(node_tree):
    assert acampo_zeta(node_tree) == {}
    assert local_alexander_from_zeta(acampo_zeta(node_tree)) == t - 1


def test_empty_zeta():
    """A smooth branch has the zeta function 1 - t of its disk Milnor
    fibre, and the Alexander polynomial 1 of the unknot, the torus knot
    (1, q)."""
    empty = ResolutionTree(r=1, nodes=[])
    assert acampo_zeta(empty) == {(1,): 1}
    assert str(acampo_zeta(empty)) == "(1 - t)"
    smooth = resolve(PlaneCurveGerm.from_strings("y - x^2"))
    assert acampo_zeta(smooth) == acampo_zeta(empty)
    for q in (1, 2, 5):
        assert zeta_exponents(acampo_zeta(smooth)) == torus_knot_exponents(1, q) == {}
    assert local_alexander(smooth) == LaurentPolynomial.one()


def test_products_merge_equal_vectors():
    """Nodes with equal vectors give one factor, whose exponent is the sum
    of theirs, and a factor whose exponents cancel is left out."""
    nodes = [
        ResolutionNode(1, (1, 2), 1),  # chi 2
        ResolutionNode(2, (1, 2), 1, adjacent={3, 4, 5}),  # chi -1
        ResolutionNode(3, (1, 2), 1, adjacent={2, 4, 5}),  # chi -1
        ResolutionNode(4, (2, 1), 1, strict={0: 1}),  # chi 1
        ResolutionNode(5, (2, 1), 1, strict={1: 1}),  # chi 1
    ]
    tree = ResolutionTree(r=2, nodes=nodes)
    assert acampo_zeta(tree) == {(3,): 2}
    assert multivariable_link_alexander(tree) == {(2, 1): -2}
    assert str(acampo_zeta(tree)) == "(1 - t^3)^2"
    assert str(multivariable_link_alexander(tree)) == "(1 - t1^2*t2)^-2"


PRODUCT_STRINGS = [
    (("x^2 + y^3",), "(1 - t^2) * (1 - t^3) * (1 - t^6)^-1", None),
    (("(x^2-y^3)^2-4*x^5*y-x^7",),
     "(1 - t^4) * (1 - t^6) * (1 - t^12)^-1 * (1 - t^17) * (1 - t^34)^-1", None),
    (("x - y", "x + y"), "1", "1"),
    (("x - y", "x + y", "x - 2*y"), "(1 - t^3)^-1", "(1 - t1*t2*t3)"),
    (("x - y", "x + y", "x - 2*y", "x + 2*y"), "(1 - t^4)^-2", "(1 - t1*t2*t3*t4)^2"),
    (("x^2 - y^3", "x^3 - y^2"), "(1 - t^5)^2 * (1 - t^10)^-2",
     "(1 - t1^2*t2^3)^-1 * (1 - t1^3*t2^2)^-1 * (1 - t1^4*t2^6) * (1 - t1^6*t2^4)"),
    (("y - x^2", "y + x^2"), "(1 - t^2) * (1 - t^4)^-1", "(1 - t1*t2)^-1 * (1 - t1^2*t2^2)"),
]


@pytest.mark.parametrize("texts,zeta,link", PRODUCT_STRINGS)
def test_product_strings_pinned(texts, zeta, link):
    """The printed zeta function and link polynomial, as the reports and
    the benchmark read them: factors sorted by exponent vector, exponent 1
    left out, and 1 for the empty product."""
    tree = resolve(PlaneCurveGerm.from_strings(*texts))
    assert str(acampo_zeta(tree)) == zeta
    if link is not None:
        assert str(multivariable_link_alexander(tree)) == link


def test_torus_knot_formula():
    assert torus_knot_alexander(2, 3) == PHI6
    assert torus_knot_alexander(2, 5) == t**4 - t**3 + t**2 - t + 1
    assert torus_knot_alexander(1, 9) == LaurentPolynomial.one()
    with pytest.raises(NotCoprime):
        torus_knot_alexander(2, 4)


def test_torus_exponents_match_formal_product():
    """The old route is the oracle: the formal product
    (1 - t^pq)(1 - t) / ((1 - t^p)(1 - t^q)) multiplied out."""
    for p in range(1, 13):
        for q in range(1, 13):
            if gcd(p, q) != 1:
                continue
            exponents = torus_knot_exponents(p, q)
            assert exponents == {
                m: 1 for m in range(2, p * q + 1) if (p * q) % m == 0 and p % m and q % m
            }
            formal = product_of({(p * q,): 1}, {(1,): 1}, {(p,): -1}, {(q,): -1})
            assert torus_knot_alexander(p, q) == normalize_unit(expand_product(formal))
            assert expand_cyclotomic(exponents) == torus_knot_alexander(p, q)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(1, 12), st.integers(-3, 3), max_size=4))
def test_zeta_exponents_match_formal_quotient(factors):
    """(t - 1) / zeta through Phi_m exponents against the formal product
    expanded by exact division: equal, or NotPolynomial on both routes."""
    zeta = {(d,): e for d, e in factors.items()}
    try:
        oracle = normalize_unit(expand_product(product_of({(1,): 1}, inverse_product(zeta))))
    except NotPolynomial:
        with pytest.raises(NotPolynomial):
            zeta_exponents(zeta)
        with pytest.raises(NotPolynomial):
            local_alexander_from_zeta(zeta)
        return
    assert expand_cyclotomic(zeta_exponents(zeta)) == oracle
    assert local_alexander_from_zeta(zeta) == oracle


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4)])
def test_three_routes_agree(p, q):
    germ = PlaneCurveGerm.from_strings(f"x^{p} + y^{q}")
    tree = resolve(germ)
    assert local_alexander_from_zeta(acampo_zeta(tree)) == torus_knot_alexander(p, q)
    assert local_alexander(tree) == torus_knot_alexander(p, q)


def test_c_multiplicities_closed_form(cusp_tree, node_tree):
    assert [n.c for n in cusp_tree.nodes] == [1, 2, 4]
    assert [n.c for n in node_tree.nodes] == [1]


def test_hopf_links():
    lines = {
        2: ["x - y", "x + y"],
        3: ["x - y", "x + y", "x - 2*y"],
        4: ["x - y", "x + y", "x - 2*y", "x + 2*y"],
    }
    for r, comps in lines.items():
        tree = resolve(PlaneCurveGerm.from_strings(*comps))
        mv = multivariable_link_alexander(tree)
        assert mv == ({} if r == 2 else {(1,) * r: r - 2})


def test_two_cusp_tree_and_open_question_value(two_cusp_tree):
    assert len(two_cusp_tree.nodes) == 5
    data = {n.a for n in two_cusp_tree.nodes}
    assert data == {(2, 2), (2, 3), (3, 2), (4, 6), (6, 4)}
    mv = multivariable_link_alexander(two_cusp_tree)
    # the resolution-formula value is (1+t1^2 t2^3)(1+t1^3 t2^2) up to a
    # unit; the repeated factor printed in the literature does not satisfy
    # the diagonal-specialization identity, this value does
    expanded = expand_product(mv)
    a = LaurentPolynomial(2, {(2, 3): 1, (0, 0): 1})
    b = LaurentPolynomial(2, {(3, 2): 1, (0, 0): 1})
    assert expanded == a * b


@pytest.mark.parametrize(
    "fixture", ["node_tree", "two_cusp_tree"]
)
def test_diagonal_specialization_identity(fixture, request):
    tree = request.getfixturevalue(fixture)
    mv = multivariable_link_alexander(tree)
    assert diagonal_product(mv) == inverse_product(acampo_zeta(tree))
    delta = normalize_unit(expand_product(product_of({(1,): 1}, diagonal_product(mv))))
    assert delta == local_alexander(tree)


def test_hopf_diagonal_identity():
    tree = resolve(PlaneCurveGerm.from_strings("x - y", "x + y", "x - 2*y"))
    mv = multivariable_link_alexander(tree)
    assert diagonal_product(mv) == inverse_product(acampo_zeta(tree))


def test_chi_consistency(cusp_tree, two_cusp_tree, t25_tree):
    for tree in (cusp_tree, two_cusp_tree, t25_tree):
        for n in tree.nodes:
            assert n.chi_open() == 2 - len(n.adjacent) - sum(n.strict.values())


def test_zeta_times_delta_is_t_minus_one(cusp_tree, t25_tree, t34_tree):
    for tree in (cusp_tree, t25_tree, t34_tree):
        delta = local_alexander(tree)
        zeta = acampo_zeta(tree)
        # (t - 1) / zeta = delta, so zeta * delta = (t - 1) after expansion
        lhs = expand_product(product_of({(1,): 1}, inverse_product(zeta)))
        assert normalize_unit(lhs) == delta
        # and without a division: num(zeta) * delta = (t - 1) * den(zeta)
        num = expand_product({v: e for v, e in zeta.items() if e > 0})
        den = expand_product({v: -e for v, e in zeta.items() if e < 0})
        assert normalize_unit(num * delta) == normalize_unit((t - 1) * den)


def test_non_rational_point_rejected():
    germ = PlaneCurveGerm.from_strings("(x^2 - 2*y^2)^2 + y^5")
    with pytest.raises(NonRationalInfinitelyNearPoint) as err:
        resolve(germ)
    assert "minimal polynomial" in str(err.value)


IRRATIONAL_2V2 = (
    "infinitely near point with irrational coordinates; minimal polynomial "
    "2*v^2 - 1; supply an explicit resolution tree file instead"
)


@pytest.mark.parametrize(
    "texts",
    [
        ("(x^2 - 2*y^2)^2 + y^5",),  # repeated in one component
        ("x^2-2*y^2", "x^2-2*y^2+x^3"),  # shared by two components
        # shared, but hidden in the quartic rest of the first component
        ("(x^2-2*y^2)*(x^2-3*y^2)", "x^2-2*y^2+x^3"),
    ],
)
def test_non_rational_point_message(texts):
    with pytest.raises(NonRationalInfinitelyNearPoint) as err:
        resolve(PlaneCurveGerm.from_strings(*texts))
    assert str(err.value) == IRRATIONAL_2V2
    assert err.value.polynomial == "2*v^2 - 1"


def test_non_rational_points_of_a_shared_quartic():
    # both components meet E_1 in the four points 6v^4 - 5v^2 + 1 = 0; the
    # quartic is reported whole, and not called a minimal polynomial
    texts = ("(x^2-2*y^2)*(x^2-3*y^2)", "(x^2-2*y^2)*(x^2-3*y^2)+x^5")
    with pytest.raises(NonRationalInfinitelyNearPoint) as err:
        resolve(PlaneCurveGerm.from_strings(*texts))
    assert "; product of minimal polynomials 6*v^4 - 5*v^2 + 1; " in str(err.value)


def test_distinct_irrational_tangents_resolve():
    tree = resolve(PlaneCurveGerm.from_strings("x^2-3*y^2", "x^2-2*y^2+x^3"))
    assert [(n.a, n.strict) for n in tree.nodes] == [((2, 2), {0: 2, 1: 2})]


def test_rational_but_irrational_simple_points_fine():
    # strict transform meets the exceptional curve in irrational points,
    # but they are transverse crossings: no coordinates needed
    tree = resolve(PlaneCurveGerm.from_strings("x^4 - 2*y^4"))
    assert len(tree.nodes) == 1
    assert sum(tree.nodes[0].strict.values()) == 4


def test_validation_errors():
    with pytest.raises(BadGerm):
        PlaneCurveGerm.from_strings("x + 1")
    with pytest.raises(NotReduced):
        PlaneCurveGerm.from_strings("x^2")
    with pytest.raises(NotReduced):
        PlaneCurveGerm.from_strings("x - y", "x^2 - y^2")


def test_tree_json_round_trip(two_cusp_tree):
    data = two_cusp_tree.to_json()
    back = ResolutionTree.from_json(data)
    assert back.to_json() == data
    assert not back.has_charts
    with pytest.raises(BadGerm):
        back.pullback_orders(biv.parse("x"))


def test_fitting_exponents():
    assert fitting_exponents_from_hodge(0, 1, 0) == [1]
    assert fitting_exponents_from_hodge(1, 0, 0) == [2]
    assert fitting_exponents_from_hodge(1, 1, 1) == [4, 2, 1]
    with pytest.raises(BadHodgeData):
        fitting_exponents_from_hodge(-1, 0, 0)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_fitting_exponents_nonincreasing(h00, h10, h01):
    seq = fitting_exponents_from_hodge(h00, h10, h01)
    assert len(seq) == h00 + h10 + h01
    assert all(a >= b for a, b in zip(seq, seq[1:]))
    assert all(x >= 0 for x in seq)


def test_blowup_cap(monkeypatch):
    """x^2 + y^3 needs three blow-ups; a cap of two stops the resolution."""
    monkeypatch.setattr(resolution, "MAX_BLOWUPS", 2)
    with pytest.raises(ResolutionDidNotTerminate):
        resolve(PlaneCurveGerm.from_strings("x^2 + y^3"))


TREE_PINS = json.loads((Path(__file__).parent / "resolution_tree_pins.json").read_text())


@pytest.mark.parametrize("pin", TREE_PINS, ids=[", ".join(p["germ"]) for p in TREE_PINS])
def test_charts_pinned(pin):
    """The stored chart maps (x(U, V), y(U, V)) of every node, term for
    term, as pullback_orders replays them."""
    tree = resolve(PlaneCurveGerm.from_strings(*pin["germ"]))
    assert [[biv.to_string(p) for p in node.chart] for node in tree.nodes] == pin["charts"]


@given(drawn_germs())
def test_node_orders_match_chart_substitution(texts):
    """a_k and c_k from the proximity recurrence against the orders of
    each component and of the Jacobian composed with the stored chart."""
    tree = resolve_drawn(texts)
    assert [(n.a, n.c) for n in tree.nodes] == reference_node_orders(tree)


@pytest.mark.parametrize(
    "fixture",
    ["cusp_tree", "node_tree", "two_cusp_tree", "t25_tree", "t34_tree", "puiseux2_tree", "x5y9_tree",
     "three_branch_tree"],
)
def test_named_node_orders_match_chart_substitution(fixture, request):
    tree = request.getfixturevalue(fixture)
    assert [(n.a, n.c) for n in tree.nodes] == reference_node_orders(tree)


@pytest.mark.parametrize("pin", TREE_PINS, ids=[", ".join(p["germ"]) for p in TREE_PINS])
def test_pinned_node_orders_match_chart_substitution(pin):
    tree = resolve(PlaneCurveGerm.from_strings(*pin["germ"]))
    assert [(n.a, n.c) for n in tree.nodes] == reference_node_orders(tree)
