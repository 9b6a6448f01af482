"""Exact arithmetic in cyclotomic fields Q[x]/Phi_M(x) and evaluation of
Laurent polynomials at torsion characters.

Character evaluation must decide exact vanishing, so no floating point
appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence, Tuple

from . import uni
from .laurent import LaurentPolynomial


def euler_phi(n: int) -> int:
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[Fraction, ...]:
    """Coefficients of Phi_n, computed by dividing x^n - 1 by the proper
    cyclotomic factors."""
    if n < 1:
        raise ValueError("n must be positive")
    p = uni.sub(uni.x_power(n), [Fraction(1)])
    for d in range(1, n):
        if n % d == 0:
            p = uni.exact_div(p, list(cyclotomic_polynomial(d)))
    return tuple(p)


class CyclotomicElement:
    """An element of Q[x]/Phi_M(x), x the chosen primitive M-th root of unity."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence[Fraction]):
        self.conductor = conductor
        phi = euler_phi(conductor)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > phi:
            cs = uni.divmod_exact(uni.trim(cs), list(cyclotomic_polynomial(conductor)))[1]
        cs = cs + [Fraction(0)] * (phi - len(cs))
        self.coeffs = tuple(cs[:phi])

    @classmethod
    def zero(cls, conductor: int) -> "CyclotomicElement":
        return cls(conductor, [])

    @classmethod
    def from_rational(cls, conductor: int, c) -> "CyclotomicElement":
        return cls(conductor, [Fraction(c)])

    @classmethod
    def root_of_unity(cls, conductor: int, power: int) -> "CyclotomicElement":
        """zeta_M^power as an element of Q[x]/Phi_M."""
        power %= conductor
        return cls(conductor, uni.x_power(power))

    def _check(self, other: "CyclotomicElement"):
        if self.conductor != other.conductor:
            raise ValueError("conductors differ")

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

    def __rtruediv__(self, other) -> "CyclotomicElement":
        """other / self for a rational other, so 1 / x is the field inverse."""
        return self.inverse() * other

    def __repr__(self) -> str:
        return f"CyclotomicElement(M={self.conductor}, {uni.to_string(list(self.coeffs), 'z')})"


def character_conductor(chi: Sequence[Fraction]) -> int:
    return lcm(*(Fraction(c).denominator for c in chi)) if chi else 1


def evaluate_character(
    p: LaurentPolynomial, chi: Sequence[Fraction], conductor: int | None = None
) -> CyclotomicElement:
    """Evaluate p at the torsion character chi = (k_1/m_1, ..., k_r/m_r).

    Each t_i maps to zeta_M^{M k_i/m_i} with M = lcm of the m_i (or the
    supplied conductor, which must be a multiple).  Ring homomorphism.
    """
    chi = [Fraction(c) for c in chi]
    if len(chi) != p.var_count:
        raise ValueError("character length does not match variable count")
    M = character_conductor(chi)
    if conductor is not None:
        if conductor % M:
            raise ValueError("conductor must be divisible by lcm of denominators")
        M = conductor
    powers = [int(M * c) % M for c in chi]
    total = CyclotomicElement.zero(M)
    for exp, coeff in p.terms.items():
        e = sum(pw * k for pw, k in zip(powers, exp)) % M
        total = total + coeff * CyclotomicElement.root_of_unity(M, e)
    return total


def root_multiplicity(p: LaurentPolynomial, kappa: Fraction) -> int:
    """Multiplicity of exp(2 pi i kappa) as a root of the one-variable p,
    computed by repeated exact division by the minimal polynomial."""
    kappa = Fraction(kappa) % 1
    modulus = list(cyclotomic_polynomial(kappa.denominator))
    coeffs = uni.trim(p.to_univariate())
    count = 0
    while coeffs:
        quotient, remainder = uni.divmod_exact(coeffs, modulus)
        if remainder:
            break
        count += 1
        coeffs = quotient
    return count
