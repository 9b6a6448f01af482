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
