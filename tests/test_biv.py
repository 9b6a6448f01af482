"""The exact tangent factoring and the squarefree and coprime checks of
``biv`` against sympy as the oracle."""

from fractions import Fraction

import sympy
from hypothesis import given
from hypothesis import strategies as st

from alexinv import biv, uni

V, X, Y = sympy.symbols("v x y")

coefficient = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero = st.builds(
    lambda n, sign, d: Fraction(sign * n, d),
    st.integers(1, 6),
    st.sampled_from((1, -1)),
    st.integers(1, 4),
)


def _sympy_rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def _from_sympy(c) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def _irreducible(coeffs) -> bool:
    return sympy.Poly([_sympy_rational(c) for c in reversed(coeffs)], V).is_irreducible


linear = st.tuples(coefficient, nonzero).map(list)
quadratic = st.tuples(coefficient, coefficient, nonzero).map(list).filter(_irreducible)
cubic = st.tuples(nonzero, coefficient, coefficient, nonzero).map(list).filter(_irreducible)
univariate_product = st.tuples(
    nonzero,
    st.lists(
        st.tuples(st.one_of(linear, linear, quadratic, cubic), st.integers(1, 4)),
        min_size=1,
        max_size=4,
    ),
)


def _sympy_factor_list(coeffs):
    expr = sympy.Poly([_sympy_rational(c) for c in reversed(coeffs)], V).as_expr()
    const, factors = sympy.factor_list(expr, V)
    return _from_sympy(const), [
        ([_from_sympy(c) for c in reversed(sympy.Poly(f, V).all_coeffs())], int(m))
        for f, m in factors
    ]


def _irrational_products(factors):
    out = {}
    for key, mult in factors:
        if len(key) > 2:
            out[mult] = uni.mul(out.get(mult, [Fraction(1)]), key)
    return out


@given(univariate_product)
def test_factor_univariate_matches_sympy(product):
    const, factors = product
    coeffs = [const]
    for f, mult in factors:
        for _ in range(mult):
            coeffs = uni.mul(coeffs, f)
    got_const, got = biv.factor_univariate(coeffs)
    want_const, want = _sympy_factor_list(coeffs)
    want.sort(key=lambda f: (len(f[0]), f[0]))
    assert got_const == want_const
    assert got == sorted(got, key=lambda f: (len(f[0]), f[0]))
    # rational roots: the same keys [-a, b] and multiplicities, in order
    assert [f for f in got if len(f[0]) == 2] == [f for f in want if len(f[0]) == 2]
    # irrational rests: one per multiplicity, the product of sympy's factors
    assert _irrational_products(got) == _irrational_products(want)
    # a rest of degree at most 3 is one of sympy's irreducible factors
    assert all(f in want for f in got if len(f[0]) <= 4)
    if len({m for k, m in want if len(k) > 2}) == sum(len(k) > 2 for k, _ in want):
        assert got == want


def _to_sympy(p):
    return sum(
        (_sympy_rational(c) * X**i * Y**j for (i, j), c in p.items()), sympy.Integer(0)
    )


bivariate_factor = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda k: sum(k) <= 2),
    nonzero,
    min_size=1,
    max_size=4,
).filter(lambda p: set(p) - {(0, 0)})


def _product(factors):
    out = biv.constant(1)
    for f, mult in factors:
        out = biv.mul(out, biv.power(f, mult))
    return out


powered = st.lists(st.tuples(bivariate_factor, st.integers(1, 2)), min_size=1, max_size=3)


@given(powered)
def test_is_squarefree_matches_sympy(factors):
    p = _product(factors)
    _, want = sympy.sqf_list(_to_sympy(p), X, Y)
    assert biv.is_squarefree(p) == all(m == 1 for _, m in want)


@given(powered, powered, st.lists(bivariate_factor, max_size=1))
def test_are_coprime_matches_sympy(a, b, shared):
    p = _product(a + [(f, 1) for f in shared])
    q = _product(b + [(f, 1) for f in shared])
    want = sympy.gcd(sympy.Poly(_to_sympy(p), X, Y), sympy.Poly(_to_sympy(q), X, Y))
    assert biv.are_coprime(p, q) == (want.total_degree() == 0)


def test_common_factor_constant_where_its_leading_coefficient_vanishes():
    # h is the constant 1 on the line x = 1, where lc_y(h) = x - 1 vanishes:
    # that line must not certify a constant gcd
    h = biv.parse("(x - 1)*y + x")
    p, q = biv.mul(h, biv.parse("y - x^2")), biv.mul(h, biv.parse("y + x^2"))
    assert not biv.are_coprime(p, q)
    assert not biv.is_squarefree(biv.mul(p, h))
    assert biv.are_coprime(p, biv.parse("y + x^2")) and biv.is_squarefree(p)


# ---------------------------------------------------------------------------
# integer coefficients: biv against a Fraction-only oracle
# ---------------------------------------------------------------------------


def _fraction_mul(p, q):
    """p q with every coefficient a Fraction: the oracle of ``biv.mul``."""
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {k: v for k, v in out.items() if v}


def _fraction_compose(p, px, py):
    """p(px, py) term by term, each term a product of Fractions: the oracle
    of ``biv.compose``."""
    out = {}
    for (i, j), c in p.items():
        term = {(0, 0): Fraction(c)}
        for factor, times in ((px, i), (py, j)):
            for _ in range(times):
                term = _fraction_mul(term, factor)
        for k, v in term.items():
            out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def _assert_exact(p):
    """An integral coefficient is an int, any other a Fraction; never a
    float."""
    for v in p.values():
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), v


def _polys(coefficients):
    return st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=5)


integral = st.integers(-5, 5)
mixed = st.one_of(integral, coefficient)


@given(_polys(mixed), _polys(mixed), _polys(mixed))
def test_mul_and_compose_match_fraction_oracle(p, px, py):
    product = biv.mul(p, px)
    assert product == _fraction_mul(p, px)
    _assert_exact(product)
    composed = biv.compose(p, px, py)
    assert composed == _fraction_compose(p, px, py)
    _assert_exact(composed)


@given(_polys(integral), _polys(integral), _polys(integral))
def test_integral_inputs_give_int_coefficients(p, px, py):
    for out in (biv.mul(p, px), biv.compose(p, px, py), biv.add(p, py), biv.scale(p, -3), biv.power(px, 2)):
        assert all(type(v) is int for v in out.values())


def test_integral_literals_and_restrictions_hold_ints():
    assert all(type(v) is int for v in biv.parse("(x - 2*y)^3 + 4*x/2").values())
    assert biv.parse("y^3/2 + x/3") == {(0, 3): Fraction(1, 2), (1, 0): Fraction(1, 3)}
    assert biv.constant(Fraction(4, 2)) == {(0, 0): 2} and type(biv.constant(Fraction(4, 2))[(0, 0)]) is int
    for p in (biv.variable_x(), biv.variable_y(), biv.constant(3)):
        assert all(type(v) is int for v in p.values())
    for dense in (biv.restrict_x0({(0, 2): 1, (1, 0): 5}), biv.restrict_y0({(3, 0): -1}), *biv._by_y({(2, 1): 7})):
        assert all(type(c) is int for c in dense)
    assert biv.restrict_x0({(0, 2): 1, (1, 0): 5}) == [0, 0, 1]


def test_non_integral_tangent_keeps_its_fractions():
    """A tangent of slope 2/3 recentres the blow-up at v = 2/3: the chart
    maps carry that Fraction and every other coefficient stays an int."""
    from alexinv.resolution import PlaneCurveGerm, resolve

    nodes = resolve(PlaneCurveGerm.from_strings("(2*x-3*y)*(x+y)+y^3")).nodes
    assert [(n.a, n.c, n.strict) for n in nodes] == [((2,), 1, {0: 2})]
    tree = resolve(PlaneCurveGerm.from_strings("(2*x-3*y)^2+y^3"))
    assert [n.a for n in tree.nodes] == [(2,), (3,), (6,)]
    assert tree.nodes[1].chart == ({(1, 0): 1}, {(2, 1): 1, (1, 0): Fraction(2, 3)})
    for n in tree.nodes:
        for chart in n.chart:
            _assert_exact(chart)


def test_recentering_divides_integer_keys_exactly(monkeypatch):
    """v0 = -h[0] / h[1] goes through uni.quotient: with the tangent factor
    [-2, 3] held as ints, the recentred chart still holds Fraction(2, 3),
    not the float 0.666..."""
    from alexinv import resolution
    from alexinv.resolution import PlaneCurveGerm, resolve

    factor = biv.factor_univariate

    def integer_keys(coeffs):
        const, factors = factor(coeffs)
        return const, [([int(c) for c in key], mult) for key, mult in factors]

    monkeypatch.setattr(resolution.biv, "factor_univariate", integer_keys)
    tree = resolve(PlaneCurveGerm.from_strings("(2*x-3*y)^2+y^3"))
    assert tree.nodes[1].chart == ({(1, 0): 1}, {(2, 1): 1, (1, 0): Fraction(2, 3)})
    for n in tree.nodes:
        for chart in n.chart:
            _assert_exact(chart)
