"""Bivariate polynomials over Q for germ manipulation during blow-ups,
parsing of germ strings like "x^2 - y^3", and the squarefree and coprime
checks and tangent factoring behind them: exact, with no computer algebra
system.

A polynomial is a dict (i, j) -> coefficient with no zero values.  A
coefficient is an ``int`` when it is integral and a ``Fraction``
otherwise, as in ``uni`` and ``laurent``: ``clean`` turns an integral
``Fraction`` into its ``int``, sums and products start from the integer
0, and a coefficient is divided only through ``Fraction``, so integer
inputs give integer results and no float can appear.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import reduce
from typing import Dict, List, Tuple

from . import uni
from .errors import BadGerm, NotReduced

Term = Tuple[int, int]
Poly2 = Dict[Term, uni.Coefficient]


def _coefficient(c) -> uni.Coefficient:
    """c as an exact coefficient: an ``int`` when integral, else a
    ``Fraction``."""
    if isinstance(c, int):
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def clean(p: Poly2) -> Poly2:
    """p without its zero terms, each integral ``Fraction`` as an ``int``."""
    return {
        k: v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v
        for k, v in p.items()
        if v
    }


def add(p: Poly2, q: Poly2) -> Poly2:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return clean(out)


def mul(p: Poly2, q: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return clean(out)


def scale(p: Poly2, c) -> Poly2:
    c = _coefficient(c)
    return clean({k: v * c for k, v in p.items()})


def power(p: Poly2, n: int) -> Poly2:
    out: Poly2 = {(0, 0): 1}
    base = dict(p)
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


def constant(c) -> Poly2:
    c = _coefficient(c)
    return {(0, 0): c} if c else {}


def variable_x() -> Poly2:
    return {(1, 0): 1}


def variable_y() -> Poly2:
    return {(0, 1): 1}


def multiplicity(p: Poly2) -> int:
    """Order of vanishing at the origin (total degree of the lowest form)."""
    if not p:
        raise BadGerm("zero polynomial has no multiplicity")
    return min(i + j for i, j in p)


def compose(p: Poly2, px: Poly2, py: Poly2) -> Poly2:
    """p(px, py), with cached powers of the substituted values, summed
    into one dict."""
    if not p:
        return {}
    max_i = max(i for i, _ in p)
    max_j = max(j for _, j in p)
    xpow = [constant(1)]
    for _ in range(max_i):
        xpow.append(mul(xpow[-1], px))
    ypow = [constant(1)]
    for _ in range(max_j):
        ypow.append(mul(ypow[-1], py))
    out: Poly2 = {}
    for (i, j), c in p.items():
        for k, v in mul(xpow[i], ypow[j]).items():
            out[k] = out.get(k, 0) + c * v
    return clean(out)


def partial_y(p: Poly2) -> Poly2:
    return clean({(i, j - 1): c * j for (i, j), c in p.items() if j})


def ord_x(p: Poly2) -> int:
    """Largest n with x^n dividing p."""
    if not p:
        raise BadGerm("zero polynomial has no order")
    return min(i for i, _ in p)


def restrict_x0(p: Poly2) -> uni.Poly:
    """p(0, y) as a dense coefficient list in y."""
    terms = {j: c for (i, j), c in p.items() if i == 0}
    return [terms.get(j, 0) for j in range(max(terms, default=-1) + 1)]


def restrict_y0(p: Poly2) -> uni.Poly:
    """p(x, 0) as a dense coefficient list in x."""
    return restrict_x0(swap_xy(p))


def swap_xy(p: Poly2) -> Poly2:
    return {(j, i): c for (i, j), c in p.items()}


def to_string(p: Poly2) -> str:
    """p by descending total degree, then ascending (i, j)."""
    terms = sorted(p.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), kv[0]))
    return uni.format_terms(terms, ("x", "y"))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse(text: str) -> Poly2:
    """Parse a polynomial in x, y over Q.  Accepts ^ or ** for powers."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise BadGerm(f"cannot parse polynomial {text!r}: {exc}") from exc
    return _from_ast(tree.body, text)


def _from_ast(node, src) -> Poly2:
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Add):
            return add(_from_ast(node.left, src), _from_ast(node.right, src))
        if isinstance(node.op, ast.Sub):
            return add(_from_ast(node.left, src), scale(_from_ast(node.right, src), -1))
        if isinstance(node.op, ast.Mult):
            return mul(_from_ast(node.left, src), _from_ast(node.right, src))
        if isinstance(node.op, ast.Pow):
            base = _from_ast(node.left, src)
            if not isinstance(node.right, ast.Constant) or not isinstance(
                node.right.value, int
            ):
                raise BadGerm(f"exponent must be a literal integer in {src!r}")
            if node.right.value < 0:
                raise BadGerm(f"negative exponent in germ {src!r}")
            return power(base, node.right.value)
        if isinstance(node.op, ast.Div):
            den = _from_ast(node.right, src)
            if set(den) - {(0, 0)}:
                raise BadGerm(f"division only by constants in {src!r}")
            return scale(_from_ast(node.left, src), Fraction(1) / den[(0, 0)])
        raise BadGerm(f"unsupported operation in {src!r}")
    if isinstance(node, ast.UnaryOp):
        inner = _from_ast(node.operand, src)
        if isinstance(node.op, ast.USub):
            return scale(inner, -1)
        if isinstance(node.op, ast.UAdd):
            return inner
        raise BadGerm(f"unsupported unary operation in {src!r}")
    if isinstance(node, ast.Name):
        if node.id == "x":
            return variable_x()
        if node.id == "y":
            return variable_y()
        raise BadGerm(f"unknown variable {node.id!r}; germs use x and y")
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return constant(node.value)
        raise BadGerm(f"non-integer constant in {src!r}")
    raise BadGerm(f"unsupported syntax in {src!r}")


# ---------------------------------------------------------------------------
# validation and tangent factoring: exact, no computer algebra system
# ---------------------------------------------------------------------------


def _by_y(p: Poly2) -> List[uni.Poly]:
    """p as a dense list, by powers of y, of dense polynomials in x."""
    out: List[uni.Poly] = [[] for _ in range(1 + max((j for _, j in p), default=-1))]
    for (i, j), c in p.items():
        out[j] += [0] * (i + 1 - len(out[j]))
        out[j][i] = c
    return out


def _share_factor_in_y(p: Poly2, q: Poly2) -> bool:
    """Whether p and q have a common factor of positive degree in y, that
    is, whether Res_y(p, q) = 0.

    At x = a with lc_y(p)(a) != 0, Res_y(p, q)(a) = 0 exactly when p(a, y)
    and q(a, y) have a common root; a nonzero Res_y(p, q) has at most
    deg_y(q) deg_x(p) + deg_y(p) deg_x(q) roots, so one point more decides.
    """
    P, Q = _by_y(p), _by_y(q)
    if len(P) < 2 or len(Q) < 2:
        return False
    points = sum((len(A) - 1) * (max(map(len, B)) - 1) for A, B in ((P, Q), (Q, P))) + 1
    a = 0
    while points:
        a += 1
        if uni.evaluate(P[-1], a) == 0:
            continue
        at_a = [uni.trim([uni.evaluate(c, a) for c in R]) for R in (P, Q)]
        if len(uni.gcd(*at_a)) == 1:
            return False
        points -= 1
    return True


def _content(p: Poly2) -> uni.Poly:
    """The gcd over Q[x] of the coefficients of p in y, monic."""
    return reduce(uni.gcd, _by_y(p))


def is_squarefree(p: Poly2) -> bool:
    """p = c(x) pp(x, y) is squarefree exactly when c is, and no factor of
    positive degree in y divides both p and dp/dy."""
    c = _content(p)
    return len(uni.gcd(c, uni.derivative(c))) == 1 and not _share_factor_in_y(p, partial_y(p))


def are_coprime(p: Poly2, q: Poly2) -> bool:
    return len(uni.gcd(_content(p), _content(q))) == 1 and not _share_factor_in_y(p, q)


def factor_univariate(coeffs: uni.Poly):
    """Factorization over Q of a nonzero dense univariate coefficient list
    into rational linear factors and squarefree rests with no rational
    root (Yun's squarefree decomposition, then the rational root test).

    Returns (constant, [(factor coeff list, multiplicity)]) sorted by
    (length, coefficients); every factor is primitive over Z with positive
    leading coefficient, so a root a/b gives [-a, b].  A rest of degree at
    most 3 is irreducible; a longer one may be a product of irreducibles.
    """
    out = []
    for mult, part in enumerate(uni.squarefree_decomposition(coeffs), 1):
        rest = uni.primitive(part)
        for r in uni.rational_roots(rest):
            key = uni.primitive([-r, Fraction(1)])
            out.append((key, mult))
            rest = uni.exact_div(rest, key)
        if len(rest) > 1:
            out.append((rest, mult))
    const = coeffs[-1]
    for key, mult in out:
        const = uni.quotient(const, key[-1] ** mult)
    return const, sorted(out, key=lambda f: (len(f[0]), f[0]))


def validate_germ_components(components: List[Poly2]):
    """Check the contract for a plane-curve germ: every component vanishes
    at the origin, each is squarefree, and they are pairwise coprime."""
    if not components:
        raise BadGerm("germ needs at least one component")
    for p in components:
        if not p:
            raise BadGerm("zero polynomial is not a germ component")
        if (0, 0) in p:
            raise BadGerm(f"component {to_string(p)} does not vanish at the origin")
        if not is_squarefree(p):
            raise NotReduced(f"component {to_string(p)} is not squarefree")
    for a in range(len(components)):
        for b in range(a + 1, len(components)):
            if not are_coprime(components[a], components[b]):
                raise NotReduced(
                    f"components {to_string(components[a])} and "
                    f"{to_string(components[b])} share a factor"
                )
