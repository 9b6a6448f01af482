from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from alexinv.cyclotomic import (
    CyclotomicElement,
    cyclotomic_polynomial,
    evaluate_character,
    root_multiplicity,
)
from alexinv.laurent import LaurentPolynomial

t = LaurentPolynomial.variable()
PHI6 = t**2 - t + 1


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


def test_evaluate_examples():
    p = LaurentPolynomial(2, {(1, 1): 1, (0, 0): -1})
    assert evaluate_character(p, [Fraction(1, 2), Fraction(1, 2)]).is_zero()
    assert evaluate_character(PHI6, [Fraction(1, 6)]).is_zero()
    assert evaluate_character(t - 1, [Fraction(0)]).is_zero()
    assert not evaluate_character(PHI6, [Fraction(1, 2)]).is_zero()
    p = LaurentPolynomial(1, {(1,): Fraction(1, 2), (0,): Fraction(-1, 3)})  # t/2 - 1/3
    assert evaluate_character(p, [Fraction(1, 2)]) == CyclotomicElement(2, [Fraction(-5, 6)])


def test_negative_exponents():
    p = LaurentPolynomial(1, {(-1,): 1})  # t^-1
    v = evaluate_character(p, [Fraction(1, 4)])
    w = evaluate_character(LaurentPolynomial(1, {(3,): 1}), [Fraction(1, 4)])
    assert v == w  # zeta_4^-1 = zeta_4^3


def test_inverse():
    z = evaluate_character(t**5, [Fraction(1, 12)])
    one = z * z.inverse()
    assert one == CyclotomicElement(12, [1])


small_poly = st.builds(
    lambda items: LaurentPolynomial(2, {k: v for k, v in items}),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-4, 4)
        ),
        max_size=5,
    ),
)
chars = st.tuples(
    st.integers(0, 5), st.sampled_from([1, 2, 3, 4, 6]),
    st.integers(0, 5), st.sampled_from([1, 2, 3, 4, 6]),
).map(lambda kkmm: [Fraction(kkmm[0], kkmm[1]), Fraction(kkmm[2], kkmm[3])])


@given(small_poly, small_poly, chars)
def test_evaluation_is_ring_homomorphism(p, q, chi):
    ep, eq = evaluate_character(p, chi), evaluate_character(q, chi)
    assert evaluate_character(p * q, chi) == ep * eq
    assert evaluate_character(p + q, chi) == ep + eq


def test_root_multiplicity():
    p = PHI6**2 * (t - 1)
    assert root_multiplicity(p, Fraction(1, 6)) == 2
    assert root_multiplicity(p, Fraction(0)) == 1
    assert root_multiplicity(p, Fraction(1, 3)) == 0
