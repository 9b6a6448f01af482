from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alexinv import uni
from alexinv.errors import BadArgument, NotPolynomial, ZeroInput
from alexinv.laurent import (
    LaurentPolynomial,
    common_root_count,
    normalize_unit,
    univariate_gcd,
)
from conftest import diagonal_product, exact_divide, expand_product, inverse_product, product_of

t = LaurentPolynomial.variable()
PHI6 = t**2 - t + 1


def poly_from(coeffs, lo=0):
    return LaurentPolynomial(1, {(i + lo,): c for i, c in enumerate(coeffs)})


@pytest.mark.parametrize("call, message", [
    (lambda: LaurentPolynomial(0), "var_count must be positive"),
    (lambda: LaurentPolynomial(2, {(1,): 1}), "exponent vector of wrong length"),
    (lambda: t + LaurentPolynomial(2, {(1, 0): 1}), "variable counts differ"),
    (lambda: t**-1, "negative powers are not supported"),
    (lambda: common_root_count(PHI6, 0), "n must be positive"),
], ids=["var_count", "exponent_length", "var_counts_differ", "negative_power", "root_count_n"])
def test_bad_argument_at_each_site(call, message):
    """Every argument check in laurent raises BadArgument, an input error
    (exit 2) that is still a ValueError for callers that catch one."""
    with pytest.raises(BadArgument, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


coeff = st.integers(-5, 5)
polys = st.builds(
    poly_from,
    st.lists(coeff, min_size=1, max_size=9),
    st.integers(-3, 3),
).filter(lambda p: not p.is_zero())


def test_normalize_unit_examples():
    assert normalize_unit(-(t**3) + t**2 - t) == PHI6
    assert normalize_unit(PHI6) == PHI6
    # units are only +-t^a, so content is preserved
    assert normalize_unit(LaurentPolynomial.monomial(5, (-2,))) == LaurentPolynomial.constant(5)


def test_normalize_unit_zero_rejected():
    with pytest.raises(ZeroInput):
        normalize_unit(LaurentPolynomial.zero(1))


@given(polys)
def test_normalize_unit_idempotent(p):
    assert normalize_unit(normalize_unit(p)) == normalize_unit(p)


@given(polys, polys)
def test_normalize_unit_multiplicative(p, q):
    assert normalize_unit(p * q) == normalize_unit(normalize_unit(p) * normalize_unit(q))


def test_gcd_examples():
    t6 = LaurentPolynomial(1, {(6,): 1, (0,): -1})
    assert univariate_gcd(PHI6, t6) == PHI6
    assert univariate_gcd(t - 1, PHI6) == LaurentPolynomial.one()
    assert univariate_gcd(PHI6, LaurentPolynomial.zero(1)) == PHI6
    with pytest.raises(ZeroInput):
        univariate_gcd(LaurentPolynomial.zero(1), LaurentPolynomial.zero(1))
    # monic whether or not one argument is zero
    zero, one = LaurentPolynomial.zero(1), LaurentPolynomial.one()
    assert univariate_gcd(2 * t, zero) == one
    assert univariate_gcd(zero, 3 * t**2) == one
    assert univariate_gcd(2 * t, 4 * t) == one
    assert univariate_gcd(zero, -2 * t**3 + 2 * t) == t**2 - 1


@given(polys, polys)
def test_gcd_divides_and_lcm_identity(p, q):
    g = univariate_gcd(p, q)
    assert not exact_divide(p, g).is_zero()
    assert not exact_divide(q, g).is_zero()
    lcm = exact_divide(p * q, g)
    # gcd * lcm = p * q up to a unit
    assert normalize_unit(g * lcm) == normalize_unit(p * q)


def _exact(c) -> bool:
    return type(c) in (int, Fraction)


@given(polys, polys)
def test_exact_divide_and_gcds_never_give_a_float(p, q):
    """exact_divide undoes a product of integral polynomials with integral
    coefficients stored as int, and every coefficient that exact_divide,
    univariate_gcd and uni.divmod_exact return is an int or a Fraction:
    a coefficient is divided only through Fraction."""
    quotient = exact_divide(p * q, q)
    assert quotient == p
    assert all(type(c) is int for c in quotient.terms.values())
    g = univariate_gcd(p, q)
    quo, rem = uni.divmod_exact(p.to_univariate(), q.to_univariate())
    assert all(map(_exact, [*g.terms.values(), *quo, *rem]))
    assert uni.add(uni.mul(quo, q.to_univariate()), rem) == p.to_univariate()


two_variable_polys = st.builds(
    lambda items: LaurentPolynomial(2, dict(items)),
    st.lists(st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeff), max_size=5),
)


@given(two_variable_polys, two_variable_polys.filter(lambda q: not q.is_zero()))
def test_exact_divide_two_variables_stays_integral(p, q):
    quotient = exact_divide(p * q, q)
    assert quotient == p
    assert all(type(c) is int for c in quotient.terms.values())


def test_integral_coefficients_are_stored_as_int():
    p = LaurentPolynomial(1, {(0,): Fraction(4, 2), (1,): Fraction(1, 2), (2,): 1.0})
    assert [type(c) for _, c in sorted(p.terms.items())] == [int, Fraction, int]
    assert type((p * 2).terms[(1,)]) is int
    assert exact_divide(t - 1, 2 * t - 2) == LaurentPolynomial.constant(Fraction(1, 2))


def test_common_root_count():
    assert common_root_count(PHI6, 6) == 2
    assert common_root_count(PHI6, 5) == 0
    for n in (1, 2, 5, 12):
        assert common_root_count(t - 1, n) == 1


def test_exact_divide_multivariable():
    a = LaurentPolynomial(2, {(1, 1): 1, (0, 0): -1})
    b = LaurentPolynomial(2, {(2, 2): 1, (0, 0): -1})
    q = exact_divide(b, a)
    assert q == LaurentPolynomial(2, {(1, 1): 1, (0, 0): 1})
    with pytest.raises(NotPolynomial):
        exact_divide(a, b)


def test_cyclo_product_diagonal():
    assert diagonal_product({(1, 1, 1): 1}) == {(3,): 1}
    assert diagonal_product({(1, 2): 1, (2, 1): -1}) == {}
    with pytest.raises(NotPolynomial):
        diagonal_product({(1, -1): 1})


@given(
    st.lists(
        st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-2, 2)),
        max_size=4,
    ),
    st.lists(
        st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-2, 2)),
        max_size=4,
    ),
)
def test_diagonal_specialize_multiplicative(fs, gs):
    def build(items):
        return product_of(*({v: e} for v, e in items if any(v) and sum(v) != 0))

    f, g = build(fs), build(gs)
    assert diagonal_product(product_of(f, g)) == product_of(diagonal_product(f), diagonal_product(g))


def test_expand_cusp_pipeline():
    zeta = {(2,): 1, (3,): 1, (6,): -1}
    with pytest.raises(NotPolynomial):
        expand_product(zeta)
    delta = expand_product(product_of({(1,): 1}, inverse_product(zeta)))
    assert normalize_unit(delta) == PHI6


def test_serialization_round_trip():
    from alexinv.serialize import laurent_to_json

    p = LaurentPolynomial(2, {(1, -2): Fraction(3, 7), (0, 0): -1})
    assert laurent_to_json(p) == {
        "vars": 2,
        "terms": [
            {"exp": [0, 0], "num": "-1", "den": "1"},
            {"exp": [1, -2], "num": "3", "den": "7"},
        ],
    }
