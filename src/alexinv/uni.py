"""Dense univariate polynomials over Q, used as a backend for gcds,
cyclotomic polynomials, squarefree decomposition and rational roots.

A polynomial is a list of coefficients indexed by degree, normalized so
the last entry is nonzero (the zero polynomial is the empty list).  A
coefficient is an ``int`` or a ``Fraction``: sums and products start from
the integer 0, so integer inputs give integer results, and a coefficient
is divided only through ``Fraction`` (``quotient``), never by ``/`` on two
ints, so no float can appear.

Integer lists are the working form of gcds, squarefree parts and
rational roots: denominators are cleared first (``primitive``), and only
exact quotients over Z follow.  No gcd leaves Z: only
``laurent.univariate_gcd`` makes one monic, through ``monic``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as igcd, isqrt, lcm
from typing import List, Tuple, Union

from .errors import InternalError

Coefficient = Union[int, Fraction]
Poly = List[Coefficient]


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p: Poly) -> Poly:
    return [-c for c in p]


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return []
    return [a * c for a in p]


def quotient(a, b):
    """a / b for int or ``Fraction`` a and b != 0: an ``int`` when both are
    ints and b divides a, else a ``Fraction``, never a float."""
    if isinstance(a, int) and isinstance(b, int):
        return a // b if not a % b else Fraction(a, b)
    return a / b  # a Fraction operand makes this a Fraction division


def coefficient(c) -> Coefficient:
    """c as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(c) is not int:
        c = c if isinstance(c, Fraction) else Fraction(c)
        if c.denominator == 1:
            c = c.numerator
    return c


def divmod_exact(p: Poly, q: Poly):
    """Quotient and remainder of p by q over Q; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(p)
    quo = [0] * max(len(p) - len(q) + 1, 0)
    dq = degree(q)
    lead = q[-1]
    while degree(r) >= dq and r:
        shift = degree(r) - dq
        c = quotient(r[-1], lead)
        quo[shift] = c
        for i in range(len(q)):
            r[shift + i] -= c * q[i]
        trim(r)
    return trim(quo), r


def exact_div(p: Poly, q: Poly) -> Poly:
    """p / q where q is known to divide p: every caller divides by a proven
    factor, so a remainder is a bug (``InternalError``), not bad input."""
    quo, rem = divmod_exact(p, q)
    if rem:
        raise InternalError(f"{to_string(q)} does not divide {to_string(p)}")
    return quo


def monic(p: Poly) -> Poly:
    if not p:
        return []
    return scale(p, Fraction(1) / p[-1])


def gcd(p: Poly, q: Poly) -> List[int]:
    """The primitive gcd with positive leading coefficient ([] for two
    zeros), by Euclid on primitive pseudo-remainders over Z."""
    a, b = primitive(p), primitive(q)
    while b:
        row = [a]
        _pseudo_remainder(row, [b], 0)
        a, b = b, row[0]
    return a if not a or a[-1] > 0 else neg(a)


def maximal_minor_gcd(matrix: List[List[Poly]], cols: int) -> Poly:
    """Monic gcd of the cols x cols minors of a matrix over Z[t] with cols
    columns, or [] when its rank is below cols.

    Euclidean row elimination in Z[t]: swapping rows, scaling a row by a
    nonzero integer and adding a Z[t]-multiple of one row to another keep
    the gcd of the maximal minors up to a constant, and the echelon form
    they reach has one nonzero maximal minor, the product of the pivots.
    Each Euclid step is an integer pseudo-remainder of the whole row,
    which is then divided by its content, after the primitive remainder
    sequences of Collins (1967); only the final product is made monic.
    """
    a = [[list(e) for e in row] for row in matrix]
    det: Poly = [1]
    for c in range(cols):
        while True:
            live = [i for i in range(c, len(a)) if a[i][c]]
            if not live:
                return []
            p = min(live, key=lambda i: len(a[i][c]))
            a[c], a[p] = a[p], a[c]
            if len(live) == 1:
                break
            top = a[c]
            for i in range(c + 1, len(a)):
                if a[i][c]:
                    _pseudo_remainder(a[i], top, c)
        det = mul(det, a[c][c])
    return monic(det)


def _pseudo_remainder(row: List[Poly], top: List[Poly], c: int):
    """Replace row by k row - q top, with k a nonzero integer and q in Z[t]
    chosen so that deg row[c] < deg top[c], divided by its content; the
    entries before column c are zero in both rows."""
    lead, deg = top[c][-1], len(top[c])
    while len(row[c]) >= deg:
        f, shift = row[c][-1], len(row[c]) - deg
        g = igcd(lead, f)
        k, f = lead // g, f // g
        for j in range(c, len(row)):
            x, y = row[j], top[j]
            if not y and k == 1:
                continue
            out = [k * v for v in x] if k != 1 else x
            out += [0] * (len(y) + shift - len(out))
            for i, v in enumerate(y, shift):
                out[i] -= f * v
            row[j] = trim(out)
    content = igcd(*[v for x in row[c:] for v in x])
    if content > 1:
        row[c:] = [[v // content for v in x] for x in row[c:]]


def derivative(p: Poly) -> Poly:
    return trim([p[i] * i for i in range(1, len(p))])


def squarefree_decomposition(p: Poly) -> List[List[int]]:
    """Yun's algorithm on the primitive integer multiple of p: pairwise
    coprime, squarefree, primitive a_1, a_2, ... with positive leading
    coefficients and p = c * prod a_i^i for a constant c (some a_i may be 1,
    the last is not; none for a constant p).  By Gauss's lemma every
    quotient by a primitive divisor is integral."""
    p = primitive(p)
    if len(p) < 2:
        return []
    d = derivative(p)
    g = gcd(p, d)
    w, y = exact_div(p, g), exact_div(d, g)
    parts = []
    while len(w) > 1:
        z = sub(y, derivative(w))
        a = gcd(w, z)
        parts.append(a)
        w, y = exact_div(w, a), exact_div(z, a)
    return parts


def coprime_basis(polys: List[Poly]) -> List[List[int]]:
    """Pairwise coprime primitive polynomials of positive degree with
    positive leading coefficients whose products give every one of the
    squarefree polys up to a constant."""
    basis: List[List[int]] = []
    for p in polys:
        p, refined = primitive(p), []
        for b in basis:
            g = gcd(p, b)
            if len(g) > 1:
                p = exact_div(p, g)
                refined.append(g)
                b = exact_div(b, g)
            if len(b) > 1:
                refined.append(b)
        basis = refined + ([p] if len(p) > 1 else [])
    return basis


def primitive(p: Poly) -> List[int]:
    """The primitive integer multiple of p with positive leading
    coefficient, as ints; [] for the zero polynomial."""
    if not p:
        return []
    den = lcm(*[c.denominator for c in p])
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = igcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


@lru_cache(maxsize=512)
def divisors(n: int) -> Tuple[int, ...]:
    """The positive divisors of |n| in ascending order, by trial division
    up to sqrt(|n|); none for 0.  Cached, with a bound, since
    ``rational_roots`` asks for the divisors of arbitrary coefficients."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


def rational_roots(p: Poly) -> List[Fraction]:
    """Distinct rational roots of a nonzero p with integer coefficients: 0,
    and a/b in lowest terms with a dividing the lowest nonzero coefficient
    c_k and b the leading one c_n, a root exactly when the integer
    sum_i c_i a^(i-k) b^(n-i) is zero; a linear part gives its root
    directly."""
    k = next(i for i, c in enumerate(p) if c)
    roots = [Fraction(0)] if k else []
    if len(p) - k == 2:
        return roots + [Fraction(-p[k], p[-1])]
    for b in divisors(int(p[-1])):
        for a in divisors(int(p[k])):
            for s in (a, -a) if igcd(a, b) == 1 else ():
                acc, power = 0, 1
                for c in reversed(p[k:]):
                    acc, power = acc * s + c * power, power * b
                if not acc:
                    roots.append(Fraction(s, b))
    return roots


def evaluate(p: Poly, x) -> Coefficient:
    """p(x) by Horner's rule, from the integer 0: an ``int`` when p and x
    are integral."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def x_power(n: int) -> Poly:
    return [0] * n + [1]


def monomial(names, exponents) -> str:
    """The product of name^e over the nonzero exponents, as x^2*y or
    t1*t2^-1; a first power is written bare, and "" is the monomial 1."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exponents) if e)


def format_terms(terms, names) -> str:
    """The sum of the terms (exponents, c), nonzero c, in the order given:
    3*x^2*y - y^3 + 1, with no coefficient printed on a monomial when it is
    1 or -1, and "0" for no terms.  Every polynomial printer (``uni``,
    ``biv``, ``laurent``) comes through here with its own term order."""
    parts = []
    for exponents, c in terms:
        mono = monomial(names, exponents)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        sign = (" - " if c < 0 else " + ") if parts else ("-" if c < 0 else "")
        parts.append(sign + body)
    return "".join(parts) or "0"


def to_string(p: Poly, var: str = "t") -> str:
    """p in descending degree."""
    return format_terms((((i,), p[i]) for i in range(degree(p), -1, -1) if p[i]), [var])
