"""Local analytic invariants of plane-curve germs: constants, ideals and
polytopes of quasiadjunction (strict, weight-one and log variants),
Newton-polytope adjoint membership, vanishing orders of forms on abelian
covers, and log-canonical thresholds.

Membership in the three ideals is decided from a resolution: a germ phi
belongs to the strict ideal at xi iff for every exceptional curve
    sum_i a_{k,i} xi_i  >  sum_i a_{k,i} - e_k(phi) - c_k - 1,
to the log ideal iff the non-strict version holds, and to the weight-one
ideal iff equality occurs only on pairwise non-adjacent curves.

The right side rhs_k(phi) is an integer, so the comparisons are decided
on integers: a_k . xi >= rhs iff floor(a_k . xi) >= rhs, and a_k . xi =
rhs iff a_k . xi is an integer and floor(a_k . xi) = rhs.  So each point
becomes one pair (floor, integral) per node, computed once per point;
the right side is written once, in ``_rhs``, and tabulated once per tree
for the monomials below the certified jet bound that bound a region
(those with some rhs_k > 0; every other one is a member of all three
ideals at every xi).  An ideal is stored as
its nonmember staircase below that bound, and its members are derived
from it; every monomial of degree at or above it lies in all three
ideals at every xi, so no larger bound changes an answer.

Each staircase is found by a walk along its boundary, which tests O(B)
monomials of the B(B+1)/2 below the jet bound B.  The walk is exact
because the nonmembers of every variant are closed downwards: e_k of
x^a y^b grows with a and b, so every rhs_k falls; a point that satisfies
the inequalities for a monomial satisfies them for its multiples, and the
nodes where equality holds can only drop out, so a weight-one member's
multiples stay weight-one members.  Column a of the nonmembers is thus
the run beta < h(a), and h does not increase with a.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import floor, gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from . import biv
from .errors import (
    BadGerm,
    InternalError,
    UnsupportedDimension,
    UseFacesForMultiComponent,
    ValidationError,
)
from .resolution import ResolutionTree

if TYPE_CHECKING:
    from .polytope import Face, RationalPolytope

Monomial = Tuple[int, int]

VARIANTS = ("strict", "weight1", "log")


# ---------------------------------------------------------------------------
# closed forms for quasi-homogeneous germs x^a + y^b
# ---------------------------------------------------------------------------


def kappa_constant(a: int, b: int, i: int = 0, j: int = 0) -> Fraction:
    """Constant of quasiadjunction of the monomial x^i y^j for x^a + y^b."""
    if a < 1 or b < 1 or i < 0 or j < 0:
        raise BadGerm("need a, b >= 1 and i, j >= 0")
    return max(1 - Fraction(i + 1, a) - Fraction(j + 1, b), Fraction(0))


def torus_constants(a: int, b: int) -> List[Fraction]:
    """The constants of quasiadjunction of x^a + y^b: the values
    kappa_constant(a, b, i, j) in (0, 1) over i < a, j < b, sorted, as
    their numerators ab - (i+1) b - (j+1) a over ab."""
    ab = a * b
    nums = {ab - (i + 1) * b - (j + 1) * a for i in range(a) for j in range(b)}
    return [Fraction(n, ab) for n in sorted(nums) if n > 0]


def xi_steps(a: int, b: int, i: int, j: int, n: int) -> int:
    """Minimal k with z^k x^i y^j in the adjoint ideal of z^n = x^a + y^b."""
    if n < 1:
        raise BadGerm("n must be positive")
    value = n * (1 - Fraction(i + 1, a) - Fraction(j + 1, b))
    return max(floor(value), 0)


def newton_adjoint_membership(a: int, b: int, n: int, monomial: Tuple[int, int, int]) -> bool:
    """Whether x^i y^j z^k lies in the adjoint ideal of z^n = x^a + y^b,
    by the Newton-polytope interior criterion."""
    if a < 1 or b < 1 or n < 1:
        raise BadGerm("need a, b, n >= 1")
    i, j, k = monomial
    return (i + 1) * b * n + (j + 1) * a * n + (k + 1) * a * b > a * b * n


# ---------------------------------------------------------------------------
# resolution-based ideals
# ---------------------------------------------------------------------------


def jet_bound(tree: ResolutionTree) -> int:
    """Certified truncation degree B = max_k sum_i a_{k,i}: every germ of
    order >= B lies in all three ideals for every xi, since e_k >= ord."""
    return max((n.total_multiplicity for n in tree.nodes), default=1)


Levels = List[Tuple[int, bool]]


def _node_floors(tree: ResolutionTree, xi: Sequence[Fraction]) -> Levels:
    """(floor(a_k . xi), whether a_k . xi is an integer) for every node k."""
    den = lcm(*[x.denominator for x in xi])
    nums = [x.numerator * (den // x.denominator) for x in xi]
    out = []
    for node in tree.nodes:
        q, rem = divmod(sum(map(mul, node.a, nums)), den)
        out.append((q, not rem))
    return out


def _rhs(tree: ResolutionTree, e: Sequence[int]) -> Tuple[int, ...]:
    """sum a_k - e_k - c_k - 1 for every node k, for the germ with pullback
    orders e."""
    return tuple(
        node.total_multiplicity - e[k] - node.c - 1
        for k, node in enumerate(tree.nodes)
    )


def _weight1_ok(tree: ResolutionTree, equal_ids: List[int]) -> bool:
    for a, b in combinations(equal_ids, 2):
        if b in tree.nodes[a - 1].adjacent:
            return False
    return True


def _memberships(tree: ResolutionTree, levels: Levels, rhs: Sequence[int]):
    """(strict, weight1, log) membership of the germ with right sides rhs at
    the point whose node floors are given."""
    equal = []
    for node, (lhs, integral), r in zip(tree.nodes, levels, rhs):
        if lhs < r:
            return False, False, False
        if integral and lhs == r:
            equal.append(node.id)
    return not equal, _weight1_ok(tree, equal), True


def _rationals(values, name: str) -> List[Fraction]:
    """The coordinates of a point as exact rationals, from ints, Fractions
    or strings such as "1/6".  A float is refused: 1/6 as a float is a
    nearby binary fraction, and membership can change at that distance."""
    values = list(values)
    if any(isinstance(v, float) for v in values):
        raise ValidationError([f"{name}: {values!r} holds a float; pass ints, Fractions or strings"])
    return [Fraction(v) for v in values]


def _variant_index(variant: str) -> int:
    if variant not in VARIANTS:
        raise ValidationError([f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}"])
    return VARIANTS.index(variant)


def germ_membership(tree: ResolutionTree, xi, phi: biv.Poly2, variant: str) -> bool:
    """Membership of an arbitrary germ, by replaying the blow-ups on it."""
    levels = _node_floors(tree, _rationals(xi, "xi"))
    return _memberships(tree, levels, _rhs(tree, tree.pullback_orders(phi)))[_variant_index(variant)]


class LocalIdealDescription:
    """An ideal of (log-)quasiadjunction stored as its nonmember staircase
    below the certified jet bound alone, in table order (alpha, then beta);
    every other monomial is a member, and ``members`` derives those below
    the bound.  For an arbitrary germ, ``germ_membership`` is the exact
    predicate.  Two descriptions with the same fields are equal."""

    def __init__(self, jet_bound: int, nonmembers: Tuple[Monomial, ...]):
        self.jet_bound = jet_bound
        self.nonmembers = nonmembers

    def __eq__(self, other):
        return type(other) is LocalIdealDescription and vars(self) == vars(other)

    @property
    def colength(self) -> int:
        return len(self.nonmembers)

    @property
    def members(self) -> frozenset:
        bound = self.jet_bound
        return frozenset((a, b) for a in range(bound) for b in range(bound - a)).difference(self.nonmembers)

    def generators(self) -> List[List[int]]:
        """The minimal members [a, h(a)] below the jet bound, where column a
        holds h(a) nonmembers: the corners, where h drops (or at a = 0)."""
        heights = [0] * self.jet_bound
        for a, _ in self.nonmembers:
            heights[a] += 1
        return [[a, h] for a, h in enumerate(heights) if a + h < self.jet_bound and (a == 0 or heights[a - 1] > h)]

    def staircase_json(self) -> dict:
        return {
            "jet_bound": self.jet_bound,
            "members": sorted(self.members),
            "nonmembers": sorted(self.nonmembers),
        }


def _rhs_table(tree: ResolutionTree) -> Dict[Monomial, Tuple[int, ...]]:
    """monomial -> rhs for the monomials that bound a region, those with
    some rhs_k > 0, in table order (alpha, then beta); e_k(x^alpha y^beta)
    = alpha e_k(x) + beta e_k(y).  Every other monomial lies in all three
    ideals at every xi, since a_k . xi > 0 on (0, 1]^r, and reads as the
    empty row.  As e_k(x), e_k(y) >= 0, every rhs_k falls with alpha and
    with beta: a column stops at its first row with no positive entry, and
    the walk stops at the first column whose row (alpha, 0) has none.
    Cached on the tree: every point reads the same table."""
    if "_rhs_table" not in tree.__dict__:
        ex = tree.pullback_orders(biv.variable_x())
        ey = tree.pullback_orders(biv.variable_y())
        unit = _rhs(tree, [0] * len(tree.nodes))
        bound = jet_bound(tree)
        table = {}
        for alpha in range(bound):
            for beta in range(bound - alpha):
                rhs = tuple(u - alpha * x - beta * y for u, x, y in zip(unit, ex, ey))
                if not any(r > 0 for r in rhs):
                    break
                table[alpha, beta] = rhs
            if (alpha, 0) not in table:
                break
        tree.__dict__["_rhs_table"] = table
    return tree.__dict__["_rhs_table"]


def ideal_triple(tree: ResolutionTree, xi):
    """The strict, weight-one and log ideals at xi, each read off its
    staircase by a walk that tests O(jet bound) monomials; the three walks
    share one memo of membership triples."""
    xi = _rationals(xi, "xi")
    if len(xi) != tree.r:
        raise BadGerm("xi must have one coordinate per component")
    if any(not 0 < x <= 1 for x in xi):
        raise BadGerm("xi coordinates must lie in (0, 1]")
    levels = _node_floors(tree, xi)
    rhs_of, bound = _rhs_table(tree), jet_bound(tree)
    memo: Dict[Monomial, Tuple[bool, bool, bool]] = {}

    def memberships(mono: Monomial) -> Tuple[bool, bool, bool]:
        if mono not in memo:
            memo[mono] = _memberships(tree, levels, rhs_of.get(mono, ()))
        return memo[mono]

    out = []
    for i in range(len(VARIANTS)):
        # h(0) by climbing column 0; then h(alpha) <= h(alpha - 1), found by
        # descending from the previous height
        height, nonmembers = 0, []
        while height < bound and not memberships((0, height))[i]:
            height += 1
        for alpha in range(bound):
            height = min(height, bound - alpha)
            while height and memberships((alpha, height - 1))[i]:
                height -= 1
            if not height:
                break
            nonmembers.extend((alpha, beta) for beta in range(height))
        out.append(LocalIdealDescription(bound, tuple(nonmembers)))
    return tuple(out)


def ideal_of_quasiadjunction(tree: ResolutionTree, xi, variant: str = "strict") -> LocalIdealDescription:
    """The ideal of one variant in VARIANTS at xi; ValidationError for any
    other variant."""
    return ideal_triple(tree, xi)[_variant_index(variant)]


# ---------------------------------------------------------------------------
# constants (r = 1) and faces (r <= 3)
# ---------------------------------------------------------------------------


def jumping_values(tree: ResolutionTree) -> List[Fraction]:
    """Jumping values in (0, 1) of the diagonal family xi = (kappa, ...,
    kappa): for each monomial below the jet bound, the largest per-node
    threshold (sum a - e - c - 1)/(sum a), compared by integer
    cross-multiplication."""
    totals = [node.total_multiplicity for node in tree.nodes]
    ratios = set()
    for rhs in _rhs_table(tree).values():
        # only a positive threshold can be a jumping value
        top, den = 0, 1
        for r, m in zip(rhs, totals):
            if r * den > top * m:
                top, den = r, m
        if 0 < top < den:
            ratios.add((top, den))
    return sorted({Fraction(top, den) for top, den in ratios})


def constants_of_quasiadjunction(tree: ResolutionTree) -> List[Fraction]:
    if tree.r != 1:
        raise UseFacesForMultiComponent(
            "constants are a one-branch notion; use polytopes_and_faces"
        )
    result = jumping_values(tree)
    _cross_validate_constants(tree, result)
    return result


def _cross_validate_constants(tree: ResolutionTree, computed: List[Fraction]):
    """For germs of the literal form x^a + y^b, the Merle-Teissier monomial
    formula must give the same constants; disagreement is a hard failure."""
    germ = tree.germ
    if germ is None or germ.r != 1:
        return
    poly = germ.components[0]
    if len(poly) != 2:
        return
    keys = sorted(poly)
    if keys[0][0] != 0 or keys[1][1] != 0:
        return
    b, a = keys[0][1], keys[1][0]
    if a < 2 or b < 2 or gcd(a, b) != 1:
        return
    expected = torus_constants(a, b)
    if expected != computed:
        raise InternalError(
            f"monomial formula {expected} disagrees with resolution "
            f"route {computed} for x^{a} + y^{b}"
        )


class QuasiFace:
    """A face of quasiadjunction with its ideal data: the strict, weight-one
    and log ideals at its level point."""

    def __init__(self, face: Face, level_point: Tuple[Fraction, ...],
                 ideals: Tuple[LocalIdealDescription, ...], dim_quotient: int):
        self.face = face
        self.level_point = level_point
        self.ideals = ideals
        self.dim_quotient = dim_quotient


class QuasiPolytope:
    """The polytope of an ideal of log-quasiadjunction, named by its
    nonmembers, with its faces of quasiadjunction (strict != log)."""

    def __init__(self, polytope: RationalPolytope, log_staircase: Tuple[Monomial, ...], faces: List[QuasiFace]):
        self.polytope = polytope
        self.log_staircase = log_staircase
        self.faces = faces


def _region_halfspaces(tree: ResolutionTree, rhs: Sequence[int]):
    """Non-vacuous halfspaces a_k . xi >= rhs_k(phi) for one monomial, as
    integer rows."""
    return [(tuple(node.a), r) for node, r in zip(tree.nodes, rhs) if r > 0]


def polytopes_and_faces(tree: ResolutionTree) -> List[QuasiPolytope]:
    """All polytopes of log-quasiadjunction that have faces of
    quasiadjunction in the open cube, with ideal triples and quotient
    dimensions attached per face.

    Each candidate point gets its three ideals from their staircase walks,
    and its face by a lookup in the face lattice of its polytope, computed
    once per polytope."""
    from .polytope import RationalPolytope, tightest

    r = tree.r
    if r > 3:
        raise UnsupportedDimension("faces supported for r <= 3 components")
    rhs_of = _rhs_table(tree)
    halfspaces_of = {mono: _region_halfspaces(tree, rhs) for mono, rhs in rhs_of.items() if rhs}
    regions = {frozenset(hs): hs for hs in halfspaces_of.values()}
    # candidate points: relative-interior points of faces of the regions and
    # of their pairwise (and triple, for r = 3) intersections.  Combinations
    # with the same tightest rows cut the same polytope, whose faces give
    # only points already met, so each distinct polytope is built once, on
    # its tightest rows.
    pool, built = [], set()
    region_lists = sorted(regions.values(), key=lambda hs: sorted(hs))
    depth = min(r, len(region_lists))
    for size in range(1, depth + 1):
        for combo in combinations(region_lists, size):
            rows = tightest([h for hs in combo for h in hs])
            key = tuple(rows)
            if key not in built:
                built.add(key)
                pool.extend(RationalPolytope(r, rows).faces())
    found: Dict[Tuple[Monomial, ...], Tuple[QuasiPolytope, Callable]] = {}
    seen_points, seen_faces = set(), set()
    for face in pool:
        xi = face.relative_interior_point()
        # a point met again would give the same ideals and the same face
        if xi in seen_points or any(not 0 < x for x in xi):
            continue
        seen_points.add(xi)
        ideals = ideal_triple(tree, xi)
        strict_ideal, _, log_ideal = ideals
        if strict_ideal.nonmembers == log_ideal.nonmembers:
            continue
        key = log_ideal.nonmembers
        if key not in found:
            outside = frozenset(key)
            halfspaces = {h for mono, hs in halfspaces_of.items() if mono not in outside for h in hs}
            poly = RationalPolytope(r, sorted(halfspaces))
            found[key] = (QuasiPolytope(polytope=poly, log_staircase=key, faces=[]), poly.face_lookup())
        qp, face_of = found[key]
        # xi lies in the polytope: it satisfies every halfspace of its log ideal
        canonical = face_of(xi)
        face_key = (key, canonical.vertices)
        if face_key in seen_faces:
            continue
        seen_faces.add(face_key)
        qp.faces.append(
            QuasiFace(
                face=canonical,
                level_point=xi,
                ideals=ideals,
                dim_quotient=strict_ideal.colength - log_ideal.colength,  # strict <= log
            )
        )
    result = [qp for qp, _ in found.values() if qp.faces]
    for qp in result:
        qp.faces.sort(key=lambda f: (f.face.dim, f.face.vertices))
    # by the sorted members of the log ideal: where two member lists first
    # differ, the later has a nonmember, so its (sorted) nonmembers, each
    # closed by a monomial above the bound, are the smaller
    result.sort(key=lambda qp: qp.log_staircase + ((jet_bound(tree), 0),), reverse=True)
    return result


# ---------------------------------------------------------------------------
# vanishing order on abelian covers, log-canonical thresholds
# ---------------------------------------------------------------------------


def order_of_zero(
    tree: ResolutionTree,
    node_id: int,
    j: Sequence[int],
    m: Sequence[int],
    phi: biv.Poly2,
) -> Fraction:
    """Order of vanishing of the form omega_phi along (a component over)
    E_k on the normalized abelian cover of type (m_1, ..., m_r).

    Value >= 0 means the form extends; -1 means a pole of order one.
    The component over E_k is ramified of index rho = lcm_i(m_i / g_{k,i})
    over E_k, so the order is
        sum_i (j_i - m_i + 1) rho a_{k,i}/m_i + rho (e_k + c_k + 1) - 1,
    always an integer.
    """
    node = tree.nodes[node_id - 1]
    j = [int(x) for x in j]
    m = [int(x) for x in m]
    if len(j) != tree.r or len(m) != tree.r:
        raise BadGerm("j and m must have one entry per component")
    if any(not 0 <= ji < mi for ji, mi in zip(j, m)):
        raise BadGerm("need 0 <= j_i < m_i")
    e_k = tree.pullback_orders(phi)[node_id - 1]
    rho = 1
    for mi, ai in zip(m, node.a):
        q = mi // gcd(mi, ai)
        rho = rho * q // gcd(rho, q)
    total = Fraction(0)
    for i in range(tree.r):
        total += Fraction((j[i] - m[i] + 1) * rho * node.a[i], m[i])
    total += rho * (e_k + node.c + 1)
    return total - 1


def lct_region(tree: ResolutionTree, gamma: Sequence) -> bool:
    """Whether gamma_1 D_1 + ... + gamma_r D_r is log-canonical at the
    origin: (1 - gamma) must satisfy a_k . x >= sum a_k - c_k - 1 at every
    node."""
    gamma = _rationals(gamma, "gamma")
    if len(gamma) != tree.r:
        raise BadGerm("gamma must have one entry per component")
    if any(not 0 <= g <= 1 for g in gamma):
        raise BadGerm("gamma coordinates must lie in [0, 1]")
    levels = _node_floors(tree, [1 - g for g in gamma])
    return all(lhs >= r for (lhs, _), r in zip(levels, _rhs(tree, [0] * len(tree.nodes))))


def lct_threshold(tree: ResolutionTree, direction: Sequence) -> Fraction:
    """Largest multiple of the ray direction inside the log-canonical
    region (the direction is scaled into [0, 1]^r as well)."""
    direction = _rationals(direction, "direction")
    if len(direction) != tree.r:
        raise BadGerm("direction must have one entry per component")
    if any(d < 0 for d in direction) or all(d == 0 for d in direction):
        raise BadGerm("direction must point into the positive orthant")
    best = None
    for d in direction:
        if d > 0:
            cap = Fraction(1) / d
            best = cap if best is None else min(best, cap)
    for node in tree.nodes:
        slope = sum((a * d for a, d in zip(node.a, direction)), Fraction(0))
        if slope > 0:
            cap = Fraction(node.c + 1) / slope
            best = cap if best is None else min(best, cap)
    return best
