"""Multivariable Laurent polynomials over Q, and the one-variable unit
normalization, gcd and root count on them.

All arithmetic is exact.  A coefficient is stored as an ``int`` when it is
integral and as a ``Fraction`` only when it is not, so a Fox matrix stays
in Z from the words to the echelon; no coefficient is divided by ``/`` on
two ints, so no float can appear.  ``normalize_unit`` canonicalizes
one-variable results up to the unit group {+-t^a} and keeps rational
content, so integral inputs stay integral; a gcd of two nonzero
polynomials comes out monic.  Products prod (1 - t^v)^e are not
multiplied out here: ``resolution`` carries them as maps v -> e.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from . import uni
from .errors import BadArgument, UnsupportedDimension, ZeroInput

Exponent = Tuple[int, ...]


def _coefficient(c):
    """c as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(c) is not int:
        c = c if isinstance(c, Fraction) else Fraction(c)
        if c.denominator == 1:
            c = c.numerator
    return c


def variable_names(r: int) -> List[str]:
    """t for one variable, t1, ..., tr for r >= 2."""
    return ["t"] if r == 1 else [f"t{i}" for i in range(1, r + 1)]


class LaurentPolynomial:
    """A Laurent polynomial in ``var_count`` variables.

    Stored as a map from integer exponent vectors to nonzero rational
    coefficients, each an ``int`` when integral and a ``Fraction``
    otherwise.  Instances are treated as immutable.
    """

    __slots__ = ("var_count", "terms")

    def __init__(self, var_count: int, terms: Dict[Exponent, uni.Coefficient] | None = None):
        if var_count < 1:
            raise BadArgument("var_count must be positive")
        self.var_count = var_count
        clean: Dict[Exponent, uni.Coefficient] = {}
        for exp, c in (terms or {}).items():
            if c == 0:
                continue
            exp = tuple(map(int, exp))
            if len(exp) != var_count:
                raise BadArgument("exponent vector of wrong length")
            if exp in clean:
                c = clean[exp] + c
            clean[exp] = c = _coefficient(c)
            if not c:
                del clean[exp]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var_count: int = 1) -> "LaurentPolynomial":
        return cls(var_count, {})

    @classmethod
    def constant(cls, c, var_count: int = 1) -> "LaurentPolynomial":
        return cls(var_count, {(0,) * var_count: c})

    @classmethod
    def one(cls, var_count: int = 1) -> "LaurentPolynomial":
        return cls.constant(1, var_count)

    @classmethod
    def variable(cls, index: int = 0, var_count: int = 1) -> "LaurentPolynomial":
        exp = [0] * var_count
        exp[index] = 1
        return cls(var_count, {tuple(exp): 1})

    @classmethod
    def monomial(cls, coeff, exp: Iterable[int]) -> "LaurentPolynomial":
        exp = tuple(int(e) for e in exp)
        return cls(len(exp), {exp: coeff})

    @classmethod
    def from_univariate(cls, coeffs: uni.Poly) -> "LaurentPolynomial":
        return cls(1, {(i,): c for i, c in enumerate(coeffs)})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.var_count: 1}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.var_count == other.var_count and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "LaurentPolynomial"):
        if self.var_count != other.var_count:
            raise BadArgument("variable counts differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.var_count)
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return LaurentPolynomial(self.var_count, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.var_count, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.var_count)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial(
                self.var_count, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        terms: Dict[Exponent, uni.Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return LaurentPolynomial(self.var_count, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise BadArgument("negative powers are not supported")
        result = LaurentPolynomial.one(self.var_count)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, exp: Exponent) -> "LaurentPolynomial":
        """Multiply by the monomial t^exp."""
        return LaurentPolynomial(
            self.var_count,
            {tuple(a + b for a, b in zip(e, exp)): c for e, c in self.terms.items()},
        )

    # -- univariate views ---------------------------------------------

    def _require_univariate(self):
        if self.var_count != 1:
            raise UnsupportedDimension("operation requires a one-variable polynomial")

    def min_degree(self) -> int:
        if not self.terms:
            raise ZeroInput("zero polynomial")
        self._require_univariate()
        return min(e[0] for e in self.terms)

    def max_degree(self) -> int:
        if not self.terms:
            raise ZeroInput("zero polynomial")
        self._require_univariate()
        return max(e[0] for e in self.terms)

    def to_univariate(self) -> uni.Poly:
        """Coefficient list after shifting the lowest term to degree 0."""
        self._require_univariate()
        if not self.terms:
            return []
        lo = self.min_degree()
        out = [0] * (self.max_degree() - lo + 1)
        for (e,), c in self.terms.items():
            out[e - lo] = c
        return out

    # -- printing -----------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order (t1 < ... < tr)."""
        return sorted(
            self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        )

    def __str__(self) -> str:
        return uni.format_terms(self.sorted_terms(), variable_names(self.var_count))

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self})"


# ---------------------------------------------------------------------------
# unit normalization, gcds, root counts (one variable)
# ---------------------------------------------------------------------------


def normalize_unit(p: LaurentPolynomial) -> LaurentPolynomial:
    """Canonical representative of p under multiplication by +-t^a.

    The lowest term is moved to degree 0 and the sign is fixed so the
    leading coefficient is positive.  Idempotent; content is untouched.
    """
    if p.is_zero():
        raise ZeroInput("cannot normalize the zero polynomial")
    p._require_univariate()
    shifted = p.shift((-p.min_degree(),))
    lead = shifted.terms[(shifted.max_degree(),)]
    if lead < 0:
        shifted = -shifted
    return shifted


def univariate_gcd(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Monic gcd over Q[t, t^-1], with its lowest term at degree 0; when one
    argument is zero, the monic associate of the other."""
    if p.is_zero() and q.is_zero():
        raise ZeroInput("gcd(0, 0) is undefined")
    g = uni.gcd(p.to_univariate(), q.to_univariate())
    return normalize_unit(LaurentPolynomial.from_univariate(g))


def common_root_count(p: LaurentPolynomial, n: int) -> int:
    """Number of common roots of p and t^n - 1 (t^n - 1 is squarefree)."""
    if p.is_zero():
        raise ZeroInput("zero polynomial")
    if n < 1:
        raise BadArgument("n must be positive")
    cyc = LaurentPolynomial(1, {(n,): 1, (0,): -1})
    g = univariate_gcd(p, cyc)
    return g.max_degree() - g.min_degree()
