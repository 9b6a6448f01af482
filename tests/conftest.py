from fractions import Fraction
from math import comb
from typing import List, Sequence

import pytest
from hypothesis import HealthCheck, reject, settings
from hypothesis import strategies as st

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# phi : Z^6 -> Z^5, onto; a naive Smith loop lets its entries grow without
# bound on it, and its check of surjectivity never ends
RUNAWAY_PHI = [
    [0, 15, 97, 86, 36],
    [-70, 5, 45, -94, 0],
    [-22, 0, 80, 0, 87],
    [-56, -67, 0, 0, -55],
    [7, 22, 99, -7, 0],
    [-37, -91, 0, 36, 98],
]


@pytest.fixture(scope="session")
def cusp_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^2 + y^3"))


@pytest.fixture(scope="session")
def node_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x - y", "x + y"))


@pytest.fixture(scope="session")
def two_cusp_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^2 - y^3", "x^3 - y^2"))


@pytest.fixture(scope="session")
def t25_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^2 + y^5"))


@pytest.fixture(scope="session")
def t34_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^3 + y^4"))


@pytest.fixture(scope="session")
def puiseux2_tree():
    """A branch with two Puiseux pairs."""
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("(x^2-y^3)^2-4*x^5*y-x^7"))


@pytest.fixture(scope="session")
def x5y9_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^5 + y^9"))


@pytest.fixture(scope="session")
def three_branch_tree():
    """Two cusps with transverse tangents and the line between them."""
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^2 - y^3", "x^3 - y^2", "x - y"))


# ---------------------------------------------------------------------------
# helpers shared by test modules (import them with ``from conftest import``)
# ---------------------------------------------------------------------------


def reference_rhs_table(tree):
    """monomial -> rhs for every monomial below the jet bound, in table
    order, with the empty row where no rhs_k is positive: the full triangle
    that ``quasiadj._rhs_table`` filled before it kept the bounding rows
    alone, kept as its oracle."""
    from alexinv import biv, quasiadj

    ex = tree.pullback_orders(biv.variable_x())
    ey = tree.pullback_orders(biv.variable_y())
    unit = quasiadj._rhs(tree, [0] * len(tree.nodes))
    bound = quasiadj.jet_bound(tree)
    table = {}
    for alpha in range(bound):
        for beta in range(bound - alpha):
            rhs = tuple(u - alpha * x - beta * y for u, x, y in zip(unit, ex, ey))
            table[alpha, beta] = rhs if any(r > 0 for r in rhs) else ()
    return table


def full_sweep_triple(tree, xi):
    """The strict, weight-one and log ideals at xi from one sweep of every
    monomial below the jet bound, in table order: the route that the
    staircase walk of ``quasiadj.ideal_triple`` replaced, kept as its
    oracle."""
    from alexinv import quasiadj

    levels = quasiadj._node_floors(tree, [Fraction(x) for x in xi])
    nonmembers: tuple = ([], [], [])
    for mono, rhs in reference_rhs_table(tree).items():
        for i, member in enumerate(quasiadj._memberships(tree, levels, rhs)):
            if not member:
                nonmembers[i].append(mono)
    return tuple(
        quasiadj.LocalIdealDescription(quasiadj.jet_bound(tree), tuple(nonmembers[i]))
        for i in range(len(quasiadj.VARIANTS))
    )


def reference_node_orders(tree):
    """(a, c) of every node by substitution into its chart: the order along
    U = 0 of each component composed with the chart, and of the chart's
    Jacobian determinant.  This is the route that the proximity recurrence
    of ``resolution._blow_up`` replaced, kept as its oracle."""
    from alexinv import biv

    def d_du(p):
        return {(i - 1, j): c * i for (i, j), c in p.items() if i}

    def d_dv(p):
        return {(i, j - 1): c * j for (i, j), c in p.items() if j}

    out = []
    for node in tree.nodes:
        px, py = node.chart
        a = tuple(biv.ord_x(biv.compose(f, px, py)) for f in tree.germ.components)
        jacobian = biv.add(
            biv.mul(d_du(px), d_dv(py)),
            biv.scale(biv.mul(d_dv(px), d_du(py)), -1),
        )
        out.append((a, biv.ord_x(jacobian)))
    return out


@st.composite
def drawn_germs(draw):
    """Component strings of a germ: a sheared and scaled x^a + y^b with a
    term above its Newton boundary, or two smooth branches with contact k
    (sharing a drawn jet below x^k), each possibly with x and y swapped."""
    if draw(st.booleans()):
        a, b = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        s, t = draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, -1, -3]))
        i = draw(st.integers(0, a))
        j = b + 1 - (i * b) // a  # i b + j a > a b
        c = draw(st.integers(-2, 2))
        texts = [f"{t}*(x+{s}*y)^{a}-y^{b}+{c}*x^{i}*y^{j}"]
    else:
        k = draw(st.integers(1, 5))
        jet = "".join(f"+{draw(st.integers(-2, 2))}*x^{e}" for e in range(1, k))
        c1, c2 = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
        texts = [f"y{jet}+{c1}*x^{k}", f"y{jet}+{c2}*x^{k}"]
    if draw(st.booleans()):
        texts = [t.replace("x", "X").replace("y", "x").replace("X", "y") for t in texts]
    return texts


def resolve_drawn(texts):
    """The tree of drawn component strings, rejecting the draws that are
    not reduced or need an irrational center."""
    from alexinv.errors import NonRationalInfinitelyNearPoint, NotReduced
    from alexinv.resolution import PlaneCurveGerm, resolve

    try:
        return resolve(PlaneCurveGerm.from_strings(*texts))
    except (NotReduced, NonRationalInfinitelyNearPoint):
        reject()


def staircase_generators_by_scan(members, bound):
    """Minimal monomials of a staircase below the bound, by a scan of its
    members: the route that ``LocalIdealDescription.generators`` replaced
    (it reads the corners off the column heights of the nonmembers), kept
    as its oracle."""
    out = []
    for (a, b) in sorted(members):
        if (a == 0 or (a - 1, b) not in members) and (b == 0 or (a, b - 1) not in members):
            if a + b < bound:
                out.append([a, b])
    return out


def integer_kernel_basis(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
    """A lattice basis of the integer kernel {v : A v = 0}.

    The basis vectors extend to a unimodular matrix, so stacking them as
    rows gives a surjection onto Z^nullity.
    """
    a = [[int(x) for x in row] for row in matrix]
    if not a:
        return []
    rows, cols = len(a), len(a[0])
    # track column operations on an identity matrix
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_op(j, k, q):  # col_j -= q * col_k
        for i in range(rows):
            a[i][j] -= q * a[i][k]
        for i in range(cols):
            v[i][j] -= q * v[i][k]

    def col_swap(j, k):
        for i in range(rows):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(cols):
            v[i][j], v[i][k] = v[i][k], v[i][j]

    r = 0
    for i in range(rows):
        # clear row i to a single entry in column r via gcd column ops
        while True:
            nz = [j for j in range(r, cols) if a[i][j]]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(a[i][j]))
            col_swap(r, jmin)
            done = True
            for j in range(r + 1, cols):
                if a[i][j]:
                    q = a[i][j] // a[i][r]
                    col_op(j, r, q)
                    if a[i][j]:
                        done = False
            if done:
                break
        if r < cols and a[i][r]:
            r += 1
        if r == cols:
            break
    kernel_cols = [j for j in range(cols) if all(a[i][j] == 0 for i in range(rows))]
    return [[v[i][j] for i in range(cols)] for j in kernel_cols]


def rational_nullspace(matrix: Sequence[Sequence]) -> List[List[Fraction]]:
    """Basis of the right nullspace over Q.

    There is one basis vector per non-pivot column: it is 1 at that
    column and 0 at the other non-pivot columns.  The echelon is built by
    ``linalg.echelon_insert``, row by row; back-substitution needs only
    that each row is zero before its pivot and the pivots are distinct
    and increasing.
    """
    from alexinv.linalg import _integer_row, echelon_insert

    if not matrix:
        return []
    cols = len(matrix[0])
    rows, pivots = [], []
    for row in matrix:
        echelon_insert(rows, pivots, _integer_row(row))
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in reversed(list(zip(rows, pivots))):
            v[pc] = Fraction(-sum(row[j] * v[j] for j in range(pc + 1, cols)), row[pc])
        basis.append(v)
    return basis


def echelon(a):
    """Bring a to row echelon form in place and return its pivot columns.

    Forward elimination over an exact field, with ``Fraction`` or
    ``CyclotomicElement`` entries: the field kernel that the integer
    eliminations replaced, kept as their oracle.  Row i < len(pivots) is
    zero before column pivots[i] and nonzero there, and every later row is
    zero.
    """
    from alexinv.cyclotomic import CyclotomicElement

    pivots = []
    rows = len(a)
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        top = a[r][c:]
        inv = top[0].inverse() if isinstance(top[0], CyclotomicElement) else 1 / top[0]
        for row in a[r + 1:]:
            if row[c]:
                f = row[c] * inv
                row[c:] = [x - f * y for x, y in zip(row[c:], top)]
        pivots.append(c)
    return pivots


def regular_representation_rank(matrix) -> int:
    """Rank over Q(zeta_M) of a matrix of ``CyclotomicElement`` entries,
    as the Q-rank of its regular representation divided by phi = phi(M).

    The rows x^a row_i, a < phi, written in the basis 1, x, ...,
    x^(phi-1), span the row space over Q(zeta_M) as a Q-space, so this
    rational matrix, phi times as tall and as wide, has Q-rank phi times
    the rank over Q(zeta_M).  Each shift is the previous row times x mod
    the monic Phi_M.  The route that the elimination over Z[zeta_M] in
    ``linalg.cyclotomic_rank`` replaced, kept as a second oracle next to
    the field ``echelon``.
    """
    from alexinv.cyclotomic import cyclotomic_polynomial
    from alexinv.linalg import rational_rank

    if not matrix:
        return 0
    modulus = cyclotomic_polynomial(matrix[0][0].conductor)
    phi = len(modulus) - 1
    regular = []
    for row in matrix:
        blocks = [list(e.coeffs) for e in row]
        for _ in range(phi):
            regular.append([c for b in blocks for c in b])
            blocks = [[c - b[-1] * m for c, m in zip([0] + b[:-1], modulus)] for b in blocks]
    return rational_rank(regular) // phi


def reference_h1(spec, ideals, m: int) -> int:
    """h^1 by the rank of the whole condition matrix, the oracle of the
    standard-monomial walk in ``curves._condition_rank``: one row per
    nonmember x^alpha y^beta of each ideal (ideals[k] at
    spec.singularities[k]), the Taylor coefficient at it of every monomial
    of degree <= m around the point, scaled by q^m s^m for the point
    (p/q, r/s)."""
    from alexinv.curves import _monomials_up_to
    from alexinv.linalg import rational_rank

    cols = _monomials_up_to(m)
    rows = []
    for point, ideal in zip(spec.singularities, ideals):
        (p, q), (r, s) = (c.as_integer_ratio() for c in point.position)
        xs = [p**k * q ** (m - k) for k in range(m + 1)]  # x0^k q^m
        ys = [r**k * s ** (m - k) for k in range(m + 1)]  # y0^k s^m
        for alpha, beta in ideal.nonmembers:
            rows.append([
                comb(i, alpha) * comb(j, beta) * xs[i - alpha] * ys[j - beta]
                if i >= alpha and j >= beta else 0
                for i, j in cols
            ])
    return sum(ideal.colength for ideal in ideals) - rational_rank(rows)


def reference_condition_rows(spec, ideals, m: int, top: int, modulus=None):
    """One pair (xr, yr) of Taylor rows per condition, for the columns of
    degree <= top, built point by point: the layout that the column-major
    tables of ``curves._condition_tables`` replaced, kept as their oracle.
    The condition of a nonmember x^alpha y^beta of ideals[k] is the Taylor
    coefficient at it around spec.singularities[k] = (p/q, r/s); scaled by
    q^m s^m it reads xr[i] yr[j] on x^i y^j, with xr the row alpha of the
    point's x and yr the row beta of its y.

    Row alpha holds at i <= top the coefficient of t^alpha in (t + a/b)^i
    scaled by b^m, C(i, alpha) a^(i-alpha) b^(m-i+alpha), and 0 for
    i < alpha.  Modulo a prime the powers are the residues b^m (a/b)^k, or
    all zeros when the modulus divides b."""

    def taylor_rows(a, b, count):
        if modulus is None:
            powers = [a**k * b ** (m - k) for k in range(top + 1)]
        elif b % modulus:
            ratio = a * pow(b, -1, modulus) % modulus
            powers = [pow(b, m, modulus)]
            for _ in range(top):
                powers.append(powers[-1] * ratio % modulus)
        else:
            powers = [0] * (top + 1)
        return [powers] + [
            [comb(i, alpha) * powers[i - alpha] if i >= alpha else 0 for i in range(top + 1)]
            for alpha in range(1, count)
        ]

    conditions = []
    for point, ideal in zip(spec.singularities, ideals):
        count = 1 + max((max(monomial) for monomial in ideal.nonmembers), default=-1)
        xr, yr = (taylor_rows(*c.as_integer_ratio(), count) for c in point.position)
        conditions += [(xr[alpha], yr[beta]) for alpha, beta in ideal.nonmembers]
    return conditions


def reference_centroid(points):
    """The mean of the points by ``Fraction`` sums, the oracle of
    ``polytope.centroid``."""
    return tuple(sum(xs, Fraction(0)) / len(points) for xs in zip(*points))


def reference_affine_dim(points) -> int:
    """The dimension of the affine hull as the rank of the differences to
    the first point, the oracle of ``polytope._affine_dim``."""
    from alexinv.linalg import rational_rank

    if len(points) <= 1:
        return 0
    base = points[0]
    return rational_rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


def reference_vertices(poly):
    """The vertices of a ``RationalPolytope`` by Cramer's rule on every
    subset of dim constraints, all rows kept: the route that the walk on
    ``polytope.tightest`` rows replaced, kept as its oracle.  It takes the
    polytope as ``self`` would, so a test can set it as the method."""
    from itertools import combinations
    from math import gcd
    from operator import mul

    from alexinv.polytope import _det

    rows = poly.constraints()
    found = {}
    for subset in combinations(rows, poly.dim):
        normals = [n for n, _ in subset]
        q = _det(normals)
        if not q:
            continue
        p = [_det([n[:j] + (b,) + n[j + 1:] for n, b in subset]) for j in range(poly.dim)]
        if q < 0:
            q, p = -q, [-x for x in p]
        g = gcd(q, *p)
        key = (tuple(x // g for x in p), q // g)
        if key in found:
            continue
        if all(sum(map(mul, n, p)) >= b * q for n, b in rows):
            found[key] = tuple(Fraction(x, q) for x in p)
    return sorted(found.values())


def reference_faces(poly):
    """The face lattice of a ``RationalPolytope`` from every subset of at
    most dim constraints, by size and then lexicographically, each face
    keeping the first subset that cuts out its vertex set, and every
    dimension an affine rank: the route that the walk over each vertex's
    saturated rows replaced, kept as its oracle.  The polytope itself comes
    first, with every constraint that all its vertices saturate."""
    from itertools import combinations

    from alexinv.polytope import Face, _affine_dim, _saturated

    verts = reference_vertices(poly)
    if not verts:
        return []
    cons = poly.constraints()
    sat = [_saturated(cons, v) for v in verts]
    found = {}

    def record(vset, saturated):
        if vset and vset not in found:
            found[vset] = tuple(sorted(saturated))

    record(tuple(range(len(verts))), frozenset.intersection(*sat))
    for size in range(1, poly.dim + 1):
        for subset in combinations(range(len(cons)), size):
            record(tuple(i for i, on in enumerate(sat) if on.issuperset(subset)), subset)
    faces = []
    for key, saturated in found.items():
        vlist = [verts[i] for i in key]
        faces.append(Face(vertices=tuple(vlist), dim=_affine_dim(vlist), saturated=saturated))
    faces.sort(key=lambda f: (f.dim, f.vertices))
    return faces


def reference_transform_positions(spec, matrix):
    """``curves.transform_positions`` by Fraction arithmetic, its oracle:
    each position (x, y, 1) times the rational matrix, divided by the last
    coordinate.  It checks no shape and no determinant."""
    from alexinv.curves import ProjectiveCurveSpec, SingularPoint
    from alexinv.errors import BadGerm

    m = [[Fraction(x) for x in row] for row in matrix]
    new_points = []
    for p in spec.singularities:
        v = (p.position[0], p.position[1], Fraction(1))
        image = [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]
        if image[2] == 0:
            raise BadGerm(
                f"position {p.position} maps to infinity; choose another chart"
            )
        new_points.append(
            SingularPoint(
                position=(image[0] / image[2], image[1] / image[2]),
                data=p.data,
                description=p.description,
                incidence=p.incidence,
            )
        )
    return ProjectiveCurveSpec(spec.degree, list(spec.components), new_points)


def unpruned_intersections(r: int, faces, max_size: int):
    """Every subset of at most max_size faces, by size and then in
    lexicographic order, with the vertices of its intersection when that is
    nonempty: the oracle of the pruned walk ``curves._intersections``."""
    from itertools import combinations

    from alexinv.polytope import RationalPolytope

    for size in range(1, max_size + 1):
        for combo in combinations(range(len(faces)), size):
            verts = RationalPolytope(r, [c for i in combo for c in faces[i]]).vertices()
            if verts:
                yield combo, verts


def exact_divide(f, g):
    """Exact division f / g of Laurent polynomials in any number of
    variables, by long division on the leading term in graded
    lexicographic order; NotPolynomial when g does not divide f.  The
    multivariable division that the univariate finish of
    ``groups.one_variable_alexander`` replaced, kept as the oracle for
    divisibility and for multiplying out formal products."""
    from alexinv import uni
    from alexinv.errors import NotPolynomial, ZeroInput
    from alexinv.laurent import LaurentPolynomial

    if f.var_count != g.var_count:
        raise ValueError("variable counts differ")
    if g.is_zero():
        raise ZeroInput("division by zero polynomial")
    if f.is_zero():
        return LaurentPolynomial.zero(f.var_count)
    # shift both into the polynomial cone
    fshift = tuple(-min(e[i] for e in f.terms) for i in range(f.var_count))
    gshift = tuple(-min(e[i] for e in g.terms) for i in range(g.var_count))
    fp, gp = f.shift(fshift), g.shift(gshift)
    quo_terms = {}
    glead = max(gp.terms, key=lambda e: (sum(e), e))
    gc = gp.terms[glead]
    rem = fp
    while not rem.is_zero():
        rlead = max(rem.terms, key=lambda e: (sum(e), e))
        exp = tuple(a - b for a, b in zip(rlead, glead))
        if any(e < 0 for e in exp):
            raise NotPolynomial(f"{g} does not divide {f}")
        coeff = uni.quotient(rem.terms[rlead], gc)
        quo_terms[exp] = coeff
        rem = rem - LaurentPolynomial.monomial(coeff, exp) * gp
    quo = LaurentPolynomial(f.var_count, quo_terms)
    return quo.shift(tuple(b - a for a, b in zip(fshift, gshift)))


# Formal products prod_v (1 - t^v)^e, as the maps v -> e that
# ``resolution.acampo_zeta`` and ``multivariable_link_alexander`` return.
# t - 1 is the product {(1,): 1} up to the unit -1.


def product_of(*products):
    """The product of maps v -> e: exponents of equal vectors add, and zero
    exponents are dropped."""
    out = {}
    for product in products:
        for v, e in product.items():
            out[v] = out.get(v, 0) + e
    return {v: e for v, e in out.items() if e}


def inverse_product(product):
    return {v: -e for v, e in product.items()}


def diagonal_product(product):
    """t_i -> t for all i: each exponent vector goes to its coordinate sum;
    NotPolynomial when some sum is 0, a factor 1 - t^0 = 0."""
    from alexinv.errors import NotPolynomial

    if any(sum(v) == 0 for v in product):
        raise NotPolynomial("diagonal specialization hits 1 - t^0")
    return product_of(*({(sum(v),): e} for v, e in product.items()))


def expand_product(product):
    """The product multiplied out by exact division of its numerator by its
    denominator; NotPolynomial when it is not a polynomial.  The empty
    product is the one-variable 1."""
    from alexinv.laurent import LaurentPolynomial

    r = len(next(iter(product), (0,)))
    num = den = LaurentPolynomial.one(r)
    for v, e in product.items():
        base = LaurentPolynomial.one(r) - LaurentPolynomial.monomial(1, v)
        if e > 0:
            num = num * base**e
        else:
            den = den * base ** (-e)
    return exact_divide(num, den)


def letter_by_letter_action(braid, w):
    """The image of the word w under the braid, one braid letter at a time:
    each sigma_i^+-1 rewrites every letter of the whole word by its short
    image, and the result is freely reduced.  The route that the table of
    generator images in ``braids._images`` replaced, kept as its oracle."""
    from alexinv.groups import free_reduce, word_inverse

    out = free_reduce(w)
    for letter in braid.letters:
        i = abs(letter) - 1
        rewritten = []
        for g, e in out:
            if letter > 0:
                if g == i:
                    image = ((i, 1), (i + 1, 1), (i, -1))
                elif g == i + 1:
                    image = ((i, 1),)
                else:
                    image = ((g, 1),)
            else:
                if g == i:
                    image = ((i + 1, 1),)
                elif g == i + 1:
                    image = ((i + 1, -1), (i, 1), (i + 1, 1))
                else:
                    image = ((g, 1),)
            rewritten.extend(image if e == 1 else word_inverse(image))
        out = free_reduce(tuple(rewritten))
    return out


def laurent_koszul_rows(r: int, n: int, chi):
    """The whole Laurent presentation of the degree-n homotopy module of
    the generic arrangement of r lines, evaluated at chi entry by entry
    with ``evaluate_character``: the Koszul boundary rows from degree n+1,
    then the relation rows (t_1...t_r - 1) e_T.  The first route of
    ``groups.koszul_support_membership``, kept as its oracle: chi is in
    the support when the rank over Q(zeta_M), taken by ``echelon``, is
    below C(r, n).  No shortcut off the subtorus: there the relation rows
    alone have full rank."""
    from itertools import combinations

    from alexinv.cyclotomic import evaluate_character
    from alexinv.laurent import LaurentPolynomial

    basis = list(combinations(range(r), n))
    index = {T: i for i, T in enumerate(basis)}
    one = LaurentPolynomial.one(r)
    rows = []
    for S in combinations(range(r), n + 1):
        row = [LaurentPolynomial.zero(r) for _ in basis]
        for pos, j in enumerate(S):
            tj = LaurentPolynomial.variable(j, r) - one
            row[index[tuple(x for x in S if x != j)]] = tj if pos % 2 == 0 else -tj
        rows.append(row)
    full = LaurentPolynomial.monomial(1, (1,) * r) - one
    for i in range(len(basis)):
        row = [LaurentPolynomial.zero(r) for _ in basis]
        row[i] = full
        rows.append(row)
    return [[evaluate_character(e, chi.coords) for e in row] for row in rows]


def koszul_boundary_rows(r: int, n: int, chi):
    """The Koszul boundary rows from degree n+1 at a character chi = (k_1,
    ..., k_r)/M, over Z[zeta_M]: row S has +-(zeta_M^{k_j} - 1) at T =
    S - {j}, the sign alternating along S, each entry its phi(M)
    coefficients reduced mod Phi_M.  On the subtorus the relation rows
    vanish, so chi is in the support when the rank of these rows, taken
    by ``linalg.cyclotomic_rank``, is below C(r, n).  The route that
    ``groups.koszul_support_membership`` took before its closed form,
    kept as its second oracle.  Returns the rows and M."""
    from itertools import combinations
    from math import lcm

    from alexinv.cyclotomic import _reduce

    M = lcm(*[c.denominator for c in chi.coords])
    ks = [c.numerator * (M // c.denominator) for c in chi.coords]
    index = {T: i for i, T in enumerate(combinations(range(r), n))}
    zero = _reduce([0] * M, M)
    rows = []
    for S in combinations(range(r), n + 1):
        row = [zero] * len(index)
        for pos, j in enumerate(S):
            sign = -1 if pos % 2 else 1
            acc = [0] * M
            acc[ks[j] % M] += sign
            acc[0] -= sign
            row[index[tuple(x for x in S if x != j)]] = _reduce(acc, M)
        rows.append(row)
    return rows, M


# Cover Betti numbers as ``groups`` computed them before it moved to integer
# characters and one orbit per divisor: kept as the oracle of
# ``groups._galois_orbits`` and ``groups._h1_at``.


def reference_galois_orbits(orders):
    """One nontrivial character (k_1, ..., k_r) of Z/n_1 x ... x Z/n_r per
    Galois orbit, the first of its orbit in product order, with the orbit's
    size: every character is enumerated, and each new one's orbit under
    the units u mod its conductor m is scanned."""
    from itertools import product
    from math import gcd, lcm

    seen = set()
    for ks in product(*(range(n) for n in orders)):
        if ks in seen or not any(ks):
            continue
        m = lcm(*(n // gcd(k, n) for k, n in zip(ks, orders)))
        orbit = {tuple(u * k % n for k, n in zip(ks, orders)) for u in range(1, m) if gcd(u, m) == 1}
        seen |= orbit
        yield ks, len(orbit)


def reference_h1_dim(p, chi):
    """dim H_1 at a nontrivial ``CharacterPoint`` of Fractions: its
    conductor M and numerators read off the coordinates, then one Fox walk
    per relator into Z[x]/(x^M - 1), each accumulator reduced mod Phi_M,
    and the rank over Z[zeta_M]."""
    from math import lcm

    from alexinv.cyclotomic import _reduce
    from alexinv.groups import _fox_walk
    from alexinv.linalg import cyclotomic_rank

    assert chi.nontrivial and len(chi) == p.rank
    M = lcm(*[c.denominator for c in chi.coords])
    ks = [c.numerator * (M // c.denominator) for c in chi.coords]
    images = [sum(k * x for k, x in zip(ks, v)) for v in p.phi]
    rows = []
    for rel in p.relators:
        walk, image = _fox_walk(rel, images, [-n for n in images], 0, lambda a, b: a + b)
        assert image % M == 0
        row = []
        for terms in walk:
            acc = [0] * M
            for e, c in terms.items():
                acc[e % M] += c
            row.append(_reduce(acc, M))
        rows.append(row)
    return p.generators - 1 - cyclotomic_rank(rows, M)


def reference_cover_betti(p, sublinks, orders):
    """(unbranched b_1, branched b_1) of the abelian cover of the given
    orders, summed over ``reference_galois_orbits`` with
    ``reference_h1_dim``; the branched sum evaluates each character,
    reduced to its support, in the presentation ``sublinks`` gives for it."""
    from alexinv.groups import CharacterPoint

    unbranched, branched = p.rank, 0
    for ks, size in reference_galois_orbits(orders):
        chi = CharacterPoint([Fraction(k, n) for k, n in zip(ks, orders)])
        unbranched += size * reference_h1_dim(p, chi)
        support = [i for i, k in enumerate(ks) if k]
        reduced = CharacterPoint([Fraction(ks[i], orders[i]) for i in support])
        branched += size * reference_h1_dim(sublinks[frozenset(support)], reduced)
    return unbranched, branched
