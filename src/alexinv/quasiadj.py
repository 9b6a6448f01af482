"""Local analytic invariants of plane-curve germs: constants, ideals and
polytopes of quasiadjunction (strict, weight-one and log variants),
Newton-polytope adjoint membership, vanishing orders of forms on abelian
covers, and log-canonical thresholds.

Membership in the three ideals is decided from a resolution: a germ phi
belongs to the strict ideal at xi iff for every exceptional curve
    sum_i a_{k,i} xi_i  >  sum_i a_{k,i} - e_k(phi) - c_k - 1,
to the log ideal iff the non-strict version holds, and to the weight-one
ideal iff equality occurs only on pairwise non-adjacent curves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import floor, gcd
from typing import Dict, List, Optional, Sequence, Tuple

from . import biv
from .errors import BadGerm, UnsupportedDimension, UseFacesForMultiComponent
from .polytope import EmptyPolytope, Face, RationalPolytope
from .resolution import ResolutionTree

Monomial = Tuple[int, int]

JET_BOUND_ENV = "ALEXINV_JET_BOUND"


# ---------------------------------------------------------------------------
# closed forms for quasi-homogeneous germs x^a + y^b
# ---------------------------------------------------------------------------


def kappa_constant(a: int, b: int, i: int = 0, j: int = 0) -> Fraction:
    """Constant of quasiadjunction of the monomial x^i y^j for x^a + y^b."""
    if a < 1 or b < 1 or i < 0 or j < 0:
        raise BadGerm("need a, b >= 1 and i, j >= 0")
    return max(1 - Fraction(i + 1, a) - Fraction(j + 1, b), Fraction(0))


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


def jet_bound(tree: ResolutionTree, override: Optional[int] = None) -> int:
    """Certified truncation degree B = max_k sum_i a_{k,i}: every germ of
    order >= B lies in all three ideals for every xi, since e_k >= ord."""
    base = max((n.total_multiplicity for n in tree.nodes), default=1)
    env = os.environ.get(JET_BOUND_ENV)
    candidates = [base]
    if override is not None:
        candidates.append(int(override))
    if env:
        candidates.append(int(env))
    return max(candidates)


def _rhs(tree: ResolutionTree, e: Sequence[int]) -> List[int]:
    return [
        node.total_multiplicity - e[k] - node.c - 1
        for k, node in enumerate(tree.nodes)
    ]


def _xi_dot(node, xi) -> Fraction:
    return sum((Fraction(x) * ai for x, ai in zip(xi, node.a)), Fraction(0))


def _classify(tree: ResolutionTree, xi, e: Sequence[int]):
    """Per-node comparison; returns (any strictly below, equality node ids)."""
    bad = False
    equal = []
    for k, node in enumerate(tree.nodes):
        lhs = _xi_dot(node, xi)
        rhs = node.total_multiplicity - e[k] - node.c - 1
        if lhs < rhs:
            bad = True
        elif lhs == rhs:
            equal.append(node.id)
    return bad, equal


def _weight1_ok(tree: ResolutionTree, equal_ids: List[int]) -> bool:
    for a, b in combinations(equal_ids, 2):
        if b in tree.nodes[a - 1].adjacent:
            return False
    return True


def _is_member(tree: ResolutionTree, xi, e: Sequence[int], variant: str) -> bool:
    """Membership in the variant's ideal of the germ with pullback orders e."""
    bad, equal = _classify(tree, xi, e)
    if variant == "strict":
        return not bad and not equal
    if variant == "log":
        return not bad
    if variant == "weight1":
        return not bad and _weight1_ok(tree, equal)
    raise ValueError(f"unknown variant {variant!r}")


def germ_membership(tree: ResolutionTree, xi, phi: biv.Poly2, variant: str) -> bool:
    """Membership of an arbitrary germ, by replaying the blow-ups on it."""
    return _is_member(tree, xi, tree.pullback_orders(phi), variant)


@dataclass
class LocalIdealDescription:
    """An ideal of (log-)quasiadjunction described by a certified monomial
    staircase up to the jet bound, plus an exact membership predicate."""

    variant: str
    xi: Tuple[Fraction, ...]
    jet_bound: int
    members: frozenset
    nonmembers: Tuple[Monomial, ...]
    tree: Optional[ResolutionTree] = None

    @property
    def colength(self) -> int:
        return len(self.nonmembers)

    def contains_monomial(self, alpha: int, beta: int) -> bool:
        if alpha + beta >= self.jet_bound:
            return True
        return (alpha, beta) in self.members

    def contains(self, phi: biv.Poly2) -> bool:
        if self.tree is None or not self.tree.has_charts:
            # monomial staircase fallback (exact for monomial ideals)
            return all(self.contains_monomial(i, j) for (i, j) in phi)
        return germ_membership(self.tree, self.xi, phi, self.variant)

    def staircase_json(self) -> dict:
        return {
            "jet_bound": self.jet_bound,
            "members": sorted(self.members),
            "nonmembers": sorted(self.nonmembers),
        }


def _monomial_orders(tree: ResolutionTree, bound: int):
    """e_k of every monomial up to total degree bound, from e(x), e(y).
    Cached on the tree: the grid sweeps in the test-suite reuse it heavily."""
    cache = getattr(tree, "_monomial_order_cache", None)
    if cache is not None and cache[0] >= bound:
        return {k: v for k, v in cache[1].items() if k[0] + k[1] <= bound}
    ex = tree.pullback_orders(biv.variable_x())
    ey = tree.pullback_orders(biv.variable_y())
    table = {}
    for alpha in range(bound + 1):
        for beta in range(bound + 1 - alpha):
            table[(alpha, beta)] = [
                alpha * ex[k] + beta * ey[k] for k in range(len(tree.nodes))
            ]
    tree._monomial_order_cache = (bound, table)
    return table


def ideal_of_quasiadjunction(
    tree: ResolutionTree, xi, variant: str = "strict", bound: Optional[int] = None
) -> LocalIdealDescription:
    xi = tuple(Fraction(x) for x in xi)
    if len(xi) != tree.r:
        raise BadGerm("xi must have one coordinate per component")
    if any(not 0 < x <= 1 for x in xi):
        raise BadGerm("xi coordinates must lie in (0, 1]")
    B = jet_bound(tree, bound)
    members = set()
    nonmembers = []
    for mono, e in sorted(_monomial_orders(tree, B - 1).items()):
        if _is_member(tree, xi, e, variant):
            members.add(mono)
        else:
            nonmembers.append(mono)
    return LocalIdealDescription(
        variant=variant,
        xi=xi,
        jet_bound=B,
        members=frozenset(members),
        nonmembers=tuple(nonmembers),
        tree=tree,
    )


def ideal_triple(tree: ResolutionTree, xi, bound: Optional[int] = None):
    return (
        ideal_of_quasiadjunction(tree, xi, "strict", bound),
        ideal_of_quasiadjunction(tree, xi, "weight1", bound),
        ideal_of_quasiadjunction(tree, xi, "log", bound),
    )


# ---------------------------------------------------------------------------
# constants (r = 1) and faces (r <= 3)
# ---------------------------------------------------------------------------


def monomial_kappa(tree: ResolutionTree, e: Sequence[int]) -> Fraction:
    """Jumping value of the germ with pullback orders e: the largest
    per-node threshold (sum a - e - c - 1)/(sum a), clipped at 0."""
    best = Fraction(0)
    for k, node in enumerate(tree.nodes):
        m = node.total_multiplicity
        best = max(best, Fraction(m - e[k] - node.c - 1, m))
    return best


def constants_of_quasiadjunction(tree: ResolutionTree) -> List[Fraction]:
    if tree.r != 1:
        raise UseFacesForMultiComponent(
            "constants are a one-branch notion; use polytopes_and_faces"
        )
    B = jet_bound(tree)
    values = set()
    for mono, e in _monomial_orders(tree, B - 1).items():
        kappa = monomial_kappa(tree, e)
        if 0 < kappa < 1:
            values.add(kappa)
    result = sorted(values)
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
    expected = set()
    for i in range(a):
        for j in range(b):
            kappa = kappa_constant(a, b, i, j)
            if 0 < kappa < 1:
                expected.add(kappa)
    if sorted(expected) != computed:
        raise AssertionError(
            f"monomial formula {sorted(expected)} disagrees with resolution "
            f"route {computed} for x^{a} + y^{b}"
        )


@dataclass
class QuasiFace:
    """A face of quasiadjunction with its ideal data."""

    face: Face
    level_point: Tuple[Fraction, ...]
    ideals: Tuple[LocalIdealDescription, LocalIdealDescription, LocalIdealDescription]
    dim_quotient: int


@dataclass
class QuasiPolytope:
    """The polytope of an ideal of log-quasiadjunction with its faces of
    quasiadjunction (faces where the strict and log ideals differ)."""

    polytope: RationalPolytope
    log_staircase: frozenset
    faces: List[QuasiFace]


def _region_halfspaces(tree: ResolutionTree, e: Sequence[int]):
    """Non-vacuous halfspaces sum a_k . xi >= rhs_k(phi) for one monomial."""
    out = []
    for k, node in enumerate(tree.nodes):
        rhs = node.total_multiplicity - e[k] - node.c - 1
        if rhs > 0:
            out.append((tuple(node.a), Fraction(rhs)))
    return out


def polytopes_and_faces(tree: ResolutionTree, bound: Optional[int] = None) -> List[QuasiPolytope]:
    """All polytopes of log-quasiadjunction that have faces of
    quasiadjunction in the open cube, with ideal triples and quotient
    dimensions attached per face."""
    r = tree.r
    if r > 3:
        raise UnsupportedDimension("faces supported for r <= 3 components")
    B = jet_bound(tree, bound)
    orders = _monomial_orders(tree, B - 1)
    regions = {}
    for mono, e in sorted(orders.items()):
        hs = _region_halfspaces(tree, e)
        if hs:
            regions[frozenset(hs)] = hs
    # candidate points: relative-interior points of faces of the regions and
    # of their pairwise (and triple, for r = 3) intersections
    pool = []
    region_lists = sorted(regions.values(), key=lambda hs: sorted(hs))
    depth = min(r, len(region_lists))
    for size in range(1, depth + 1):
        for combo in combinations(region_lists, size):
            merged = [h for hs in combo for h in hs]
            poly = RationalPolytope(r, [(n, b, False) for n, b in merged])
            faces = poly.faces()
            if isinstance(faces, EmptyPolytope):
                continue
            pool.extend(faces)
    found: Dict[frozenset, QuasiPolytope] = {}
    seen_faces = set()
    for face in pool:
        xi = face.relative_interior_point()
        if any(not 0 < x for x in xi):
            continue
        strict_ideal = ideal_of_quasiadjunction(tree, xi, "strict", B)
        log_ideal = ideal_of_quasiadjunction(tree, xi, "log", B)
        if strict_ideal.members == log_ideal.members:
            continue
        key = log_ideal.members
        if key not in found:
            halfspaces = []
            for mono in sorted(key):
                halfspaces.extend(_region_halfspaces(tree, orders[mono]))
            poly = RationalPolytope(r, [(n, b, False) for n, b in sorted(set(halfspaces))])
            found[key] = QuasiPolytope(polytope=poly, log_staircase=key, faces=[])
        qp = found[key]
        canonical = _face_of(qp.polytope, xi)
        if canonical is None:
            continue
        face_key = (key, canonical.vertices)
        if face_key in seen_faces:
            continue
        seen_faces.add(face_key)
        weight1 = ideal_of_quasiadjunction(tree, xi, "weight1", B)
        qp.faces.append(
            QuasiFace(
                face=canonical,
                level_point=xi,
                ideals=(strict_ideal, weight1, log_ideal),
                dim_quotient=len(log_ideal.members - strict_ideal.members),
            )
        )
    result = [qp for qp in found.values() if qp.faces]
    for qp in result:
        qp.faces.sort(key=lambda f: (f.face.dim, f.face.vertices))
    result.sort(key=lambda qp: sorted(qp.log_staircase))
    return result


def _face_of(poly: RationalPolytope, point) -> Optional[Face]:
    """The face of poly whose relative interior contains the point."""
    faces = poly.faces()
    if isinstance(faces, EmptyPolytope):
        return None
    if not poly.contains(point, closed=True):
        return None
    cons = poly.constraints()
    saturated = tuple(
        i
        for i, (n, b, _) in enumerate(cons)
        if sum((Fraction(x) * y for x, y in zip(point, n)), Fraction(0)) == b
    )
    best = None
    for face in faces:
        if all(i in saturated for i in face.saturated) and all(
            _saturates(cons, v, saturated) for v in face.vertices
        ):
            if best is None or face.dim < best.dim:
                best = face
    return best


def _saturates(cons, vertex, indices) -> bool:
    for i in indices:
        n, b, _ = cons[i]
        if sum((Fraction(x) * y for x, y in zip(vertex, n)), Fraction(0)) != b:
            return False
    return True


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
    gamma = [Fraction(g) for g in gamma]
    if len(gamma) != tree.r:
        raise BadGerm("gamma must have one entry per component")
    if any(not 0 <= g <= 1 for g in gamma):
        raise BadGerm("gamma coordinates must lie in [0, 1]")
    x = [1 - g for g in gamma]
    for node in tree.nodes:
        if _xi_dot(node, x) < node.total_multiplicity - node.c - 1:
            return False
    return True


def lct_threshold(tree: ResolutionTree, direction: Sequence) -> Fraction:
    """Largest multiple of the ray direction inside the log-canonical
    region (the direction is scaled into [0, 1]^r as well)."""
    direction = [Fraction(d) for d in direction]
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
        slope = _xi_dot(node, direction)
        if slope > 0:
            cap = Fraction(node.c + 1) / slope
            best = cap if best is None else min(best, cap)
    return best
