from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv import biv, uni
from alexinv.errors import InternalError
from conftest import fraction_gcd, fraction_squarefree_decomposition


def fraction_maximal_minor_gcd(matrix, cols):
    """The monic gcd of the maximal minors by Euclidean row elimination over
    Q[t] on ``Fraction`` coefficients: the route the integer pseudo-remainder
    elimination replaced, kept as its oracle."""
    a = [[[Fraction(c) for c in e] for e in row] for row in matrix]
    det = [Fraction(1)]
    for c in range(cols):
        while True:
            live = [i for i in range(c, len(a)) if a[i][c]]
            if not live:
                return []
            p = min(live, key=lambda i: len(a[i][c]))
            a[c], a[p] = a[p], a[c]
            if len(live) == 1:
                break
            for i in range(c + 1, len(a)):
                if a[i][c]:
                    q, _ = uni.divmod_exact(a[i][c], a[c][c])
                    a[i][c:] = [uni.sub(x, uni.mul(q, y)) for x, y in zip(a[i][c:], a[c][c:])]
        det = uni.mul(det, a[c][c])
    return uni.monic(det)


entries = st.lists(st.integers(-3, 3), max_size=4).map(uni.trim)


@st.composite
def integer_polynomial_matrices(draw):
    """k x n matrices over Z[t], half of them of rank below n by
    construction (a k x r times an r x n matrix, r < n)."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        left = [[draw(entries) for _ in range(r)] for _ in range(k)]
        right = [[draw(entries) for _ in range(n)] for _ in range(r)]
        m = []
        for row in left:
            m.append([])
            for j in range(n):
                e = []
                for x, col in zip(row, right):
                    e = uni.add(e, uni.mul(x, col[j]))
                m[-1].append(e)
        return m, n
    return [[draw(entries) for _ in range(n)] for _ in range(k)], n


@settings(max_examples=150)
@given(integer_polynomial_matrices())
def test_maximal_minor_gcd_matches_fraction_euclid(case):
    m, cols = case
    g = uni.maximal_minor_gcd(m, cols)
    assert g == fraction_maximal_minor_gcd(m, cols)
    assert not g or g[-1] == 1


def test_maximal_minor_gcd_examples():
    t = [0, 1]
    # the trefoil's Fox column t^2 - t + 1 and a matrix of rank 1 < 2
    assert uni.maximal_minor_gcd([[[1, -1, 1]]], 1) == [1, -1, 1]
    assert uni.maximal_minor_gcd([[t, t], [[2], [2]]], 2) == []
    # minors 2t - 2 and 4: the gcd over Q is 1
    assert uni.maximal_minor_gcd([[[2], []], [[], [-2, 2]], [[], [4]]], 2) == [1]
    # a non-monic gcd 2t - 1 comes out monic
    assert uni.maximal_minor_gcd([[[-1, 2], []], [[], [3]]], 2) == [Fraction(-1, 2), 1]


def test_evaluate_keeps_integer_inputs_integral():
    assert uni.evaluate([3, -2, 1], 5) == 18 and type(uni.evaluate([3, -2, 1], 5)) is int
    assert uni.evaluate([], 7) == 0 and type(uni.evaluate([], 7)) is int
    assert uni.evaluate([1, 1], Fraction(1, 2)) == Fraction(3, 2)
    assert type(uni.evaluate([Fraction(1), 2], 3)) is Fraction


def brute_force_roots(p):
    """Every rational root of p with integer coefficients, by evaluating p
    at each a/b with |a| at most the lowest nonzero coefficient and
    1 <= b at most the leading one, with no divisor logic."""
    k = next(i for i, c in enumerate(p) if c)
    roots = {Fraction(0)} if k else set()
    for b in range(1, abs(p[-1]) + 1):
        for a in range(-abs(p[k]), abs(p[k]) + 1):
            if a and uni.evaluate(p, Fraction(a, b)) == 0:
                roots.add(Fraction(a, b))
    return sorted(roots)


small_polynomials = st.lists(st.integers(-12, 12), min_size=2, max_size=5).map(uni.trim).filter(lambda p: len(p) > 1)


@settings(max_examples=200)
@given(small_polynomials)
def test_rational_roots_match_brute_force(p):
    roots = uni.rational_roots(p)
    assert len(set(roots)) == len(roots)
    assert sorted(roots) == brute_force_roots(p)


def test_rational_roots_examples():
    # a linear part with large coefficients: 3^16 + 128 t
    assert uni.rational_roots([43046721, 128]) == [Fraction(-43046721, 128)]
    # a zero root of multiplicity 2 and the linear part 6t + 3
    assert uni.rational_roots([0, 0, 3, 6]) == [0, Fraction(-1, 2)]
    assert uni.rational_roots([0, 5]) == [0]
    # degrees 2 to 4, each against the oracle
    for p in ([-2, 1, 3], [1, 0, 1], [6, -5, -2, 1], [0, -6, 11, -6, 1], [4, 0, -5, 0, 1], [1, 0, 2, 0, 1]):
        assert sorted(uni.rational_roots(p)) == brute_force_roots(p)
    # Fraction coefficients with integer values are read as their integers
    assert uni.rational_roots([Fraction(-3), Fraction(9)]) == [Fraction(1, 3)]


@given(st.integers(-500, 500))
def test_divisors_match_the_scan(n):
    """Ascending, as the cyclotomic factors and the Galois orbits of a
    cyclic cover are listed in this order."""
    assert uni.divisors(n) == [d for d in range(1, abs(n) + 1) if n % d == 0]


def test_inexact_division_is_an_internal_error():
    """Every caller of exact_div divides by a proven factor, so a remainder
    is a bug: InternalError (exit 70), not a bare ValueError (exit 3)."""
    assert uni.exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(InternalError, match="t \\+ 1 does not divide t\\^2 \\+ 1"):
        uni.exact_div([1, 0, 1], [1, 1])


# int and Fraction coefficients; a polynomial is a product of small factors,
# each up to a cube, so repeated factors, constants (the empty product) and
# zero (a zero factor) all occur
coefficients = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))
factors = st.lists(coefficients, max_size=4).map(uni.trim)


def _power(a, n):
    out = [1]
    for _ in range(n):
        out = uni.mul(out, a)
    return out


def _product(powers):
    out = [1]
    for a, n in powers:
        out = uni.mul(out, _power(a, n))
    return out


products = st.lists(st.tuples(factors, st.integers(1, 3)), max_size=3).map(_product)


@settings(max_examples=200)
@given(products, products)
def test_gcd_matches_fraction_euclid(p, q):
    """The same monic gcd as Euclid over Q, zero and constants included."""
    g = uni.gcd(p, q)
    assert g == fraction_gcd(p, q)
    assert all(type(c) is Fraction for c in g)


@settings(max_examples=200)
@given(products)
def test_squarefree_parts_are_coprime_squarefree_and_give_p(p):
    """Primitive integer parts with positive leading coefficients, pairwise
    coprime and squarefree, with p = c * prod a_i^i; made monic, they are
    the parts of Yun's algorithm over Q.  A constant, zero included, has
    none."""
    parts = uni.squarefree_decomposition(p)
    if len(p) < 2:
        assert parts == []
        return
    for i, a in enumerate(parts, 1):
        assert all(type(c) is int for c in a) and uni.primitive(a) == a and a[-1] > 0
        assert len(fraction_gcd(a, uni.derivative(a))) == 1
        assert all(fraction_gcd(a, b) == [1] for b in parts[i:])
    assert len(parts[-1]) > 1
    quo, rem = uni.divmod_exact(p, _product((a, i) for i, a in enumerate(parts, 1)))
    assert not rem and len(quo) == 1
    assert [uni.monic(a) for a in parts] == fraction_squarefree_decomposition(p)


@settings(max_examples=200)
@given(products.filter(bool), st.booleans())
def test_factor_univariate_keeps_integers(p, integral):
    """Every factor is a primitive integer list with positive leading
    coefficient, the constant is an int on integer input, and constant
    and factors give p back."""
    if integral:
        p = [-6 * c for c in uni.primitive(p)]
    const, found = biv.factor_univariate(p)
    assert all(type(c) is int and uni.primitive(key) == key for key, _ in found for c in key)
    assert type(const) is int or not integral
    assert uni.mul([const], _product(found)) == p
