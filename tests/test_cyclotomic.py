from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv.cyclotomic import (
    CyclotomicElement,
    cyclotomic_exponents,
    cyclotomic_polynomial,
    evaluate_character,
    expand_cyclotomic,
)
from alexinv.errors import BadArgument, NotPolynomial
from alexinv.laurent import LaurentPolynomial, normalize_unit

t = LaurentPolynomial.variable()
PHI6 = t**2 - t + 1


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("call, message", [
    (lambda: cyclotomic_polynomial(0), "n must be positive"),
    (lambda: CyclotomicElement(3, [1]) + CyclotomicElement(4, [1]), "conductors differ"),
    (lambda: evaluate_character(PHI6, [Fraction(1, 6)] * 2), "character length does not match"),
], ids=["phi_n", "conductors", "character_length"])
def test_bad_argument_at_each_site(call, message):
    """Every argument check in cyclotomic raises BadArgument, an input
    error (exit 2) that is still a ValueError for callers that catch one."""
    with pytest.raises(BadArgument, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


def _phi_power_product(exponents):
    """The oracle: prod Phi_m^e multiplied out in LaurentPolynomial."""
    out = LaurentPolynomial.one()
    for m, e in exponents.items():
        out = out * LaurentPolynomial.from_univariate(list(cyclotomic_polynomial(m))) ** e
    return out


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(1, 40), st.integers(0, 6), max_size=3))
def test_expand_cyclotomic_matches_laurent_powers(exponents):
    expanded = expand_cyclotomic(exponents)
    oracle = _phi_power_product(exponents)
    assert expanded == oracle
    assert expanded == normalize_unit(oracle)


def _dense_phi_product(exponents):
    """The plain dense product: every Phi_m multiplied in e_m times, one
    integer coefficient list at a time."""
    out = [1]
    for m, e in sorted(exponents.items()):
        for _ in range(e):
            phi = cyclotomic_polynomial(m)
            wide = [0] * (len(out) + len(phi) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(phi):
                    wide[i + j] += a * b
            out = wide
    return LaurentPolynomial.from_univariate(out)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 30), st.integers(1, 4)), max_size=3),
    st.dictionaries(st.integers(1, 30), st.integers(0, 3), max_size=3),
)
def test_expand_cyclotomic_peels_binomials_like_dense_product(binomials, extra):
    """Whole (t^n - 1)^k blocks, overlapping and with leftover Phi_m, give
    the plain dense product, integer coefficients included."""
    exponents = cyclotomic_exponents(*binomials)
    for m, e in extra.items():
        exponents[m] = exponents.get(m, 0) + e
    expanded = expand_cyclotomic(exponents)
    assert expanded == _dense_phi_product(exponents)
    assert all(type(c) is int for c in expanded.terms.values())


def test_expand_cyclotomic_examples():
    assert expand_cyclotomic({}) == LaurentPolynomial.one()
    assert expand_cyclotomic({6: 0, 1: 1}) == t - 1
    assert expand_cyclotomic(cyclotomic_exponents((6, 4), (1, 1))) == normalize_unit((t**6 - 1) ** 4 * (t - 1))
    with pytest.raises(NotPolynomial):
        expand_cyclotomic({6: 1, 2: -1})


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(1, 30), st.integers(-4, 4)), max_size=4))
def test_cyclotomic_exponents_of_binomials(powers):
    """t^d - 1 = prod_{m | d} Phi_m: the exponents are additive in the
    powers and expand to the product of the binomials."""
    positive = [(d, e) for d, e in powers if e > 0]
    binomials = LaurentPolynomial.one()
    for d, e in positive:
        binomials = binomials * (t**d - 1) ** e
    assert expand_cyclotomic(cyclotomic_exponents(*positive)) == normalize_unit(binomials)
    mixed = cyclotomic_exponents(*powers)
    assert 0 not in mixed.values()
    assert cyclotomic_exponents(*((d, -e) for d, e in powers)) == {m: -e for m, e in mixed.items()}


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

