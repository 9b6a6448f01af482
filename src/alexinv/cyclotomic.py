"""Cyclotomic polynomials, reduction mod Phi_M on integer coefficient
lists, evaluation of Laurent polynomials at torsion characters, and
one-variable products of cyclotomic polynomials carried as their
exponents.

An element of Z[zeta_M] = Z[x]/Phi_M is a list of phi(M) integer
coefficients wherever a rank is taken (``linalg.cyclotomic_rank``): the
Fox path reduces its accumulators with ``_reduce``.  No path of the
package evaluates a character (Koszul support membership is a closed
form); ``evaluate_character`` and the field element ``CyclotomicElement``
it returns are kept for the tests and for the benchmark's ``TARGETS``.
Character evaluation must decide exact vanishing, so no floating point
appears anywhere.  A coefficient is an ``int`` when it is integral and a
``Fraction`` otherwise: an integral Laurent polynomial evaluates to an
element with ``int`` coefficients, and a coefficient is divided only
through ``Fraction``, never by ``/`` on two ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul
from typing import Dict, Sequence, Tuple

from . import uni
from .errors import BadArgument, NotPolynomial
from .laurent import LaurentPolynomial

# The product prod_m Phi_m^{e_m} as the map m -> e_m.  A product of two
# adds exponents, and one divides another when no difference is negative.
Exponents = Dict[int, int]


def _product(*factors: Exponents) -> Exponents:
    out: Exponents = {}
    for exponents in factors:
        for m, e in exponents.items():
            out[m] = out.get(m, 0) + e
    return {m: e for m, e in sorted(out.items()) if e}


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Integer coefficients of the monic Phi_n, computed by dividing
    x^n - 1 by the proper cyclotomic factors."""
    if n < 1:
        raise BadArgument("n must be positive")
    p = uni.sub(uni.x_power(n), [1])
    for d in uni.divisors(n)[:-1]:
        p = uni.exact_div(p, list(cyclotomic_polynomial(d)))
    return tuple(p)


def cyclotomic_exponents(*powers: Tuple[int, int]) -> Exponents:
    """The exponents of prod (t^d - 1)^e over the given (d, e): each
    t^d - 1 = prod_{m | d} Phi_m adds e into every divisor m of d.  Zero
    exponents are dropped; negative ones stand for a quotient."""
    return _product(*({m: e for m in uni.divisors(d)} for d, e in powers))


def expand_cyclotomic(exponents: Exponents) -> LaurentPolynomial:
    """prod_m Phi_m^{e_m} multiplied out on plain integer lists.

    Whole binomial blocks are peeled off first: for n from the largest m
    down, (t^n - 1)^k = prod_{m | n} Phi_m^k with k the least e_m over the
    divisors m of n, expanded by the binomial theorem into k + 1 terms.
    What remains is multiplied densely (each cached Phi_m raised by
    repeated squaring), and each block is multiplied into it with its few
    terms as the outer loop, so (t^n - 1)^k keeps its sparsity.  The
    product is monic with constant term +-1, so it is its own
    ``normalize_unit`` representative.  A negative exponent leaves no
    polynomial and raises NotPolynomial.
    """
    rest = dict(exponents)
    for m, e in sorted(rest.items()):
        if e < 0:
            raise NotPolynomial(f"Phi_{m} has exponent {e} < 0")
    blocks = []
    for n in sorted(rest, reverse=True):
        divisors = uni.divisors(n)
        k = min(rest.get(m, 0) for m in divisors)
        if k:
            blocks.append((n, k))
            for m in divisors:
                rest[m] -= k
    out = [1]
    for m, e in sorted((m, e) for m, e in rest.items() if e):
        power, base = [1], list(cyclotomic_polynomial(m))
        while e:
            if e & 1:
                power = uni.mul(power, base)
            e >>= 1
            if e:
                base = uni.mul(base, base)
        out = uni.mul(out, power)
    for n, k in blocks:
        # (t^n - 1)^k = sum_j C(k, j) (-1)^(k - j) t^(n j)
        wide = [0] * (len(out) + n * k)
        for j in range(k + 1):
            c = comb(k, j) * (-1) ** (k - j)
            for i, a in enumerate(out, n * j):
                wide[i] += c * a
        out = wide
    return LaurentPolynomial.from_univariate(out)


@lru_cache(maxsize=None)
def _divisor_terms(conductor: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """phi(M) and the nonzero terms (j, m) of Phi_M - x^phi(M)."""
    *low, _ = cyclotomic_polynomial(conductor)
    return len(low), tuple((j, m) for j, m in enumerate(low) if m)


def _reduce(coeffs: list, conductor: int) -> list:
    """The remainder of sum coeffs[i] x^i modulo Phi_M, by long division
    from the top in place: integer coefficients stay integers.  Each step
    touches only the nonzero terms of Phi_M, which are few for small M."""
    phi, low = _divisor_terms(conductor)
    for top in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[top]
        if c:
            base = top - phi
            for j, m in low:
                coeffs[base + j] -= c * m
    return coeffs[:phi]


class CyclotomicElement:
    """An element of Q[x]/Phi_M(x), x the chosen primitive M-th root of
    unity, with phi(M) ``int`` or ``Fraction`` coefficients, taken as given."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence[uni.Coefficient]):
        self.conductor = conductor
        phi = len(cyclotomic_polynomial(conductor)) - 1
        cs = list(coeffs)
        if len(cs) > phi:
            cs = _reduce(cs, conductor)
        self.coeffs = tuple(cs + [0] * (phi - len(cs)))

    def _check(self, other: "CyclotomicElement"):
        if self.conductor != other.conductor:
            raise BadArgument("conductors differ")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(
            self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        return self + (-other)

    def __mul__(self, other) -> "CyclotomicElement":
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement(
                self.conductor, [a * other for a in self.coeffs]
            )
        self._check(other)
        prod = uni.mul(list(self.coeffs), list(other.coeffs))
        return CyclotomicElement(self.conductor, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        mod = list(cyclotomic_polynomial(self.conductor))
        # extended Euclid in Q[x]
        a, b = uni.trim(list(self.coeffs)), mod
        s0, s1 = [Fraction(1)], []
        while b:
            q, r = uni.divmod_exact(a, b)
            a, b = b, r
            s0, s1 = s1, uni.sub(s0, uni.mul(q, s1))
        # a is now a nonzero constant gcd
        inv = uni.scale(s0, Fraction(1) / a[0])
        return CyclotomicElement(self.conductor, inv)

    def __repr__(self) -> str:
        return f"CyclotomicElement(M={self.conductor}, {uni.to_string(list(self.coeffs), 'z')})"


def evaluate_character(p: LaurentPolynomial, chi: Sequence[Fraction]) -> CyclotomicElement:
    """Evaluate p at the torsion character chi = (k_1/m_1, ..., k_r/m_r).

    Each t_i maps to zeta_M^{M k_i/m_i} with M the lcm of the m_i, so a
    term of exponent e lands on zeta_M^{<e, M chi>}.  The numerators, over
    the common denominator of the coefficients, are added into
    Z[x]/(x^M - 1) by that exponent, and the sum is reduced mod Phi_M once.
    Ring homomorphism.
    """
    chi = [c if isinstance(c, Fraction) else Fraction(c) for c in chi]
    if len(chi) != p.var_count:
        raise BadArgument("character length does not match variable count")
    M = lcm(*[c.denominator for c in chi])
    powers = [c.numerator * (M // c.denominator) % M for c in chi]
    den = lcm(*[c.denominator for c in p.terms.values()])
    acc = [0] * M
    for exp, c in p.terms.items():
        e = sum(map(mul, powers, exp)) % M
        acc[e] += c if den == 1 else c.numerator * (den // c.denominator)
    reduced = _reduce(acc, M)
    return CyclotomicElement(M, reduced if den == 1 else [Fraction(c, den) for c in reduced])

