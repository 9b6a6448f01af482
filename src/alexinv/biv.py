"""Bivariate polynomials over Q for germ manipulation during blow-ups,
plus parsing of germ strings like "x^2 - y^3".

A polynomial is a dict (i, j) -> Fraction with no zero values.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import BadGerm, NotReduced

Term = Tuple[int, int]
Poly2 = Dict[Term, Fraction]


def clean(p: Poly2) -> Poly2:
    return {k: v for k, v in p.items() if v != 0}


def add(p: Poly2, q: Poly2) -> Poly2:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, Fraction(0)) + v
    return clean(out)


def mul(p: Poly2, q: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return clean(out)


def scale(p: Poly2, c) -> Poly2:
    c = Fraction(c)
    return clean({k: v * c for k, v in p.items()})


def power(p: Poly2, n: int) -> Poly2:
    out: Poly2 = {(0, 0): Fraction(1)}
    base = dict(p)
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


def constant(c) -> Poly2:
    c = Fraction(c)
    return {(0, 0): c} if c else {}


def variable_x() -> Poly2:
    return {(1, 0): Fraction(1)}


def variable_y() -> Poly2:
    return {(0, 1): Fraction(1)}


def evaluate(p: Poly2, x, y) -> Fraction:
    x, y = Fraction(x), Fraction(y)
    return sum((c * x**i * y**j for (i, j), c in p.items()), Fraction(0))


def multiplicity(p: Poly2) -> int:
    """Order of vanishing at the origin (total degree of the lowest form)."""
    if not p:
        raise BadGerm("zero polynomial has no multiplicity")
    return min(i + j for i, j in p)


def compose(p: Poly2, px: Poly2, py: Poly2) -> Poly2:
    """p(px, py), with cached powers of the substituted values."""
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
        out = add(out, scale(mul(xpow[i], ypow[j]), c))
    return out


def partial_x(p: Poly2) -> Poly2:
    return clean({(i - 1, j): c * i for (i, j), c in p.items() if i})


def partial_y(p: Poly2) -> Poly2:
    return clean({(i, j - 1): c * j for (i, j), c in p.items() if j})


def ord_x(p: Poly2) -> int:
    """Largest n with x^n dividing p."""
    if not p:
        raise BadGerm("zero polynomial has no order")
    return min(i for i, _ in p)


def shift_x(p: Poly2, n: int) -> Poly2:
    """Divide by x^n (exact by construction of callers)."""
    return {(i - n, j): c for (i, j), c in p.items()}


def restrict_x0(p: Poly2) -> List[Fraction]:
    """p(0, y) as a dense coefficient list in y."""
    if not p:
        return []
    terms = {j: c for (i, j), c in p.items() if i == 0}
    if not terms:
        return []
    out = [Fraction(0)] * (max(terms) + 1)
    for j, c in terms.items():
        out[j] = c
    while out and out[-1] == 0:
        out.pop()
    return out


def restrict_y0(p: Poly2) -> List[Fraction]:
    """p(x, 0) as a dense coefficient list in x."""
    if not p:
        return []
    terms = {i: c for (i, j), c in p.items() if j == 0}
    if not terms:
        return []
    out = [Fraction(0)] * (max(terms) + 1)
    for i, c in terms.items():
        out[i] = c
    while out and out[-1] == 0:
        out.pop()
    return out


def swap_xy(p: Poly2) -> Poly2:
    return {(j, i): c for (i, j), c in p.items()}


def to_string(p: Poly2) -> str:
    if not p:
        return "0"
    parts = []
    for (i, j), c in sorted(p.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), kv[0])):
        factors = []
        if i == 1:
            factors.append("x")
        elif i:
            factors.append(f"x^{i}")
        if j == 1:
            factors.append("y")
        elif j:
            factors.append(f"y^{j}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


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
# sympy-backed validation and factorization (utility work only); sympy is
# imported here, on first use, so that runs without germs never load it
# ---------------------------------------------------------------------------


def to_sympy(p: Poly2):
    import sympy

    x, y = sympy.symbols("x y")
    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator) * x**i * y**j
            for (i, j), c in p.items()
        ]
    )


def is_squarefree(p: Poly2) -> bool:
    import sympy

    _, factors = sympy.factor_list(to_sympy(p), *sympy.symbols("x y"))
    return all(mult == 1 for _, mult in factors)


def are_coprime(p: Poly2, q: Poly2) -> bool:
    import sympy

    x, y = sympy.symbols("x y")
    g = sympy.gcd(sympy.Poly(to_sympy(p), x, y), sympy.Poly(to_sympy(q), x, y))
    return g.total_degree() == 0


def factor_univariate(coeffs: List[Fraction]):
    """Irreducible factorization over Q of a dense univariate coefficient
    list; returns (constant, [(factor coeff list, multiplicity)])."""
    import sympy

    v = sympy.Symbol("v")
    expr = sympy.Add(
        *[sympy.Rational(c.numerator, c.denominator) * v**i for i, c in enumerate(coeffs)]
    )
    const, factors = sympy.factor_list(expr, v)
    out = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, v)
        cs = [Fraction(str(c)) for c in poly.all_coeffs()][::-1]
        out.append((cs, int(mult)))
    return Fraction(str(sympy.Rational(const))), out


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
