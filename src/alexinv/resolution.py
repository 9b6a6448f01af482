"""Embedded resolution of plane-curve germs over Q by iterated point
blow-ups, and the invariants read off the resolution tree: A'Campo zeta
functions, local one- and multivariable Alexander polynomials, and
Jordan/Fitting exponents from Hodge data.

The zeta function and the multivariable link polynomial are formal
products prod (1 - t^v)^e over the exceptional curves, carried as the map
v -> e (``FormalProduct``) and never multiplied out; the one-variable
Alexander polynomial is read off the zeta map as Phi_m exponents.

Blow-up centers are restricted to Q-rational points; an irrational
infinitely-near point aborts with its minimal polynomial (from degree 4
on, possibly a product of minimal polynomials) so the user can supply an
explicit tree instead.  A blow-up maps exponents, x^i y^j to U^(i+j) V^j
or U^i V^(i+j), and recentring expands powers of Y + v0.  The orders a_k
of the components and c_k of dx ^ dy along each new curve follow from
the multiplicities of the strict transforms at its center and from the
orders along the curves through it (the proximity recurrence); each node
keeps its chart map, so the orders of any other germ are replayed by
substitution (``pullback_orders``).
"""

from __future__ import annotations

from collections import deque
from math import comb, gcd
from typing import Dict, List, Optional, Tuple

from . import biv, uni
from .cyclotomic import Exponents, cyclotomic_exponents, expand_cyclotomic
from .errors import (
    BadGerm,
    BadHodgeData,
    InternalError,
    NotCoprime,
    NotPolynomial,
    NonRationalInfinitelyNearPoint,
    ResolutionDidNotTerminate,
    ValidationError,
)
from .laurent import LaurentPolynomial, variable_names

MAX_BLOWUPS = 500


class PlaneCurveGerm:
    """A reduced germ at the origin with user-declared components."""

    def __init__(self, components: List[biv.Poly2]):
        self.components = components
        biv.validate_germ_components(components)

    @classmethod
    def from_strings(cls, *texts: str) -> "PlaneCurveGerm":
        return cls([biv.parse(t) for t in texts])

    @property
    def r(self) -> int:
        return len(self.components)

    def __str__(self):
        return ", ".join(biv.to_string(c) for c in self.components)


class ResolutionNode:
    """One exceptional curve of the resolution."""

    def __init__(self, id: int, a: Tuple[int, ...], c: int, adjacent: Optional[set] = None,
                 strict: Optional[Dict[int, int]] = None,
                 chart: Optional[Tuple[biv.Poly2, biv.Poly2]] = None):
        self.id = id
        self.a = a  # pullback order of each component
        self.c = c  # pullback order of dx ^ dy
        self.adjacent = set() if adjacent is None else adjacent
        self.strict = {} if strict is None else strict  # component -> points
        self.chart = chart  # (x(U,V), y(U,V)), E = {U=0}

    @property
    def total_multiplicity(self) -> int:
        return sum(self.a)

    def chi_open(self) -> int:
        return 2 - len(self.adjacent) - sum(self.strict.values())


class ResolutionTree:
    """Exceptional curves with multiplicities, adjacency and strict-transform
    incidences.  Trees built by :func:`resolve` carry chart maps so that
    pullback orders of arbitrary germs can be replayed; trees loaded from
    files do not."""

    def __init__(self, r: int, nodes: Optional[List[ResolutionNode]] = None,
                 germ: Optional[PlaneCurveGerm] = None):
        self.r = r
        self.nodes = [] if nodes is None else nodes
        self.germ = germ
        for node in self.nodes:
            if len(node.a) != self.r:
                raise BadGerm("node multiplicity vector of wrong length")
            if any(x < 0 for x in node.a) or not any(node.a):
                raise BadGerm("node multiplicities must be >= 0 and not all zero")

    @property
    def has_charts(self) -> bool:
        return all(n.chart is not None for n in self.nodes)

    def pullback_orders(self, phi: biv.Poly2) -> List[int]:
        """e_k(phi) = ord_{E_k} of the pullback of phi, by chart replay."""
        if not self.has_charts:
            raise BadGerm(
                "tree has no chart history (loaded from file?); "
                "pullback orders of germs are unavailable"
            )
        if not phi:
            raise BadGerm("zero germ")
        out = []
        for node in self.nodes:
            px, py = node.chart
            out.append(biv.ord_x(biv.compose(phi, px, py)))
        return out

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "nodes": [
                {
                    "id": n.id,
                    "a": list(n.a),
                    "c": n.c,
                    "adj": sorted(n.adjacent),
                    "strict": sorted([i + 1, cnt] for i, cnt in n.strict.items()),
                }
                for n in self.nodes
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ResolutionTree":
        """The tree of a schema-checked file; ValidationError, naming the
        JSON path of each, when node ids do not run 1..n in order, an
        ``a`` has other than r entries or only zeros, an ``adj`` entry
        names the node itself, a missing node or one that does not name it
        back, a ``strict`` component exceeds r, or the adjacency is not a
        tree: the dual graph of a resolution has n - 1 edges and is
        connected."""
        r, raw = int(data["r"]), data["nodes"]
        adj = [[int(x) for x in nd.get("adj", [])] for nd in raw]
        found, links_ok = [], True
        for k, nd in enumerate(raw):
            where = f"nodes/{k}"
            if int(nd["id"]) != k + 1:
                found.append(f"{where}/id: {nd['id']} where {k + 1} is due; ids run 1..{len(raw)} in order")
            if len(nd["a"]) != r:
                found.append(f"{where}/a: {len(nd['a'])} entries for r = {r}")
            elif not any(int(x) for x in nd["a"]):
                found.append(f"{where}/a: every entry is 0; the total transform vanishes on every exceptional curve")
            for j, other in enumerate(adj[k]):
                if other == k + 1:
                    fault = f"node {other} names itself"
                elif other > len(raw):
                    fault = f"no node {other}"
                elif k + 1 not in adj[other - 1]:
                    fault = f"node {other} does not name node {k + 1}"
                else:
                    continue
                found.append(f"{where}/adj/{j}: {fault}")
                links_ok = False
            for j, (i, _) in enumerate(nd.get("strict", [])):
                if int(i) > r:
                    found.append(f"{where}/strict/{j}/0: component {i} above r = {r}")
        if links_ok:
            found += _tree_faults(adj)
        if found:
            raise ValidationError(found)
        nodes = [
            ResolutionNode(
                id=k + 1,
                a=tuple(int(x) for x in nd["a"]),
                c=int(nd["c"]),
                adjacent=set(adj[k]),
                strict={int(i) - 1: int(cnt) for i, cnt in nd.get("strict", [])},
            )
            for k, nd in enumerate(raw)
        ]
        return cls(r=r, nodes=nodes)


def _tree_faults(adj: List[List[int]]) -> List[str]:
    """Why a symmetric adjacency on the nodes 1..n is not a tree, if it is
    not: it has other than n - 1 edges, or some node is not joined to
    node 1 (the first such node is named)."""
    if not adj:
        return []
    n = len(adj)
    edges = {frozenset((k + 1, other)) for k, others in enumerate(adj) for other in others}
    faults = []
    if len(edges) != n - 1:
        faults.append(f"nodes: {len(edges)} edges join {n} nodes; a tree has {n - 1}")
    reached = {1}
    for _ in range(n):  # a node is at most n - 1 steps from node 1
        reached |= {other for k in reached for other in adj[k - 1]}
    apart = [k for k in range(1, n + 1) if k not in reached]
    if apart:
        faults.append(f"nodes/{apart[0] - 1}: node {apart[0]} is not joined to node 1")
    return faults


class _Site:
    """An infinitely-near point scheduled for blow-up, in coordinates where
    the exceptional curves through it are the axes."""

    def __init__(self, subs_x: biv.Poly2, subs_y: biv.Poly2, germs: List[Tuple[int, biv.Poly2]],
                 axis_x: Optional[int] = None, axis_y: Optional[int] = None):
        self.subs_x = subs_x
        self.subs_y = subs_y
        self.germs = germs
        self.axis_x = axis_x  # node id with local equation X = 0
        self.axis_y = axis_y  # node id with local equation Y = 0


def resolve(germ: PlaneCurveGerm) -> ResolutionTree:
    """Blow up until the reduced total transform has normal crossings.

    Smooth one-branch germs return the empty tree.  Node ordering is
    creation order, which is deterministic.
    """
    components = germ.components
    # the lowest form of a product is the product of the lowest forms
    total_mult = sum(biv.multiplicity(c) for c in components)
    tree = ResolutionTree(r=len(components), nodes=[], germ=germ)
    if total_mult == 1:
        return tree
    queue = deque(
        [
            _Site(
                subs_x=biv.variable_x(),
                subs_y=biv.variable_y(),
                germs=[(i, p) for i, p in enumerate(components)],
            )
        ]
    )
    while queue:
        if len(tree.nodes) >= MAX_BLOWUPS:
            raise ResolutionDidNotTerminate(f"more than {MAX_BLOWUPS} blow-ups")
        site = queue.popleft()
        _blow_up(tree, site, queue)
    return tree


def _chart1(p: biv.Poly2, drop: int = 0) -> biv.Poly2:
    """p(U, U V) / U^drop: x^i y^j goes to U^(i+j-drop) V^j."""
    return {(i + j - drop, j): c for (i, j), c in p.items()}


def _chart2(p: biv.Poly2, drop: int = 0) -> biv.Poly2:
    """p(U V, V) / V^drop: x^i y^j goes to U^i V^(i+j-drop)."""
    return {(i, i + j - drop): c for (i, j), c in p.items()}


def _recenter(p: biv.Poly2, v0) -> biv.Poly2:
    """p(X, Y + v0), by the binomial expansion of each power of Y."""
    if not v0:
        return p
    out: biv.Poly2 = {}
    for (i, j), c in p.items():
        for k in range(j + 1):
            out[i, k] = out.get((i, k), 0) + c * comb(j, k) * v0 ** (j - k)
    return biv.clean(out)


def _blow_up(tree: ResolutionTree, site: _Site, queue):
    node_id = len(tree.nodes) + 1
    # at the site, component i is X^(a_x,i) Y^(a_y,i) g_i times a unit, with
    # g_i its strict transform (or a unit, if it misses the site) and the
    # axes the exceptional curves through it; dx ^ dy is X^c_x Y^c_y dX ^ dY
    # times a unit, and dX ^ dY = U dU ^ dV in chart 1
    axes = [tree.nodes[k - 1] for k in (site.axis_x, site.axis_y) if k is not None]
    mult_of = {i: biv.multiplicity(g) for i, g in site.germs}
    a = tuple(mult_of.get(i, 0) + sum(n.a[i] for n in axes) for i in range(tree.r))
    c = 1 + sum(n.c for n in axes)
    chart_x, chart_y = _chart1(site.subs_x), _chart1(site.subs_y)
    node = ResolutionNode(id=node_id, a=a, c=c, chart=(chart_x, chart_y))
    for axis in (site.axis_x, site.axis_y):
        if axis is not None:
            node.adjacent.add(axis)
            tree.nodes[axis - 1].adjacent.add(node_id)
    if site.axis_x is not None and site.axis_y is not None:
        tree.nodes[site.axis_x - 1].adjacent.discard(site.axis_y)
        tree.nodes[site.axis_y - 1].adjacent.discard(site.axis_x)
    tree.nodes.append(node)

    # --- chart 1: (X, Y) -> (U, U V); E_new = {U = 0}, coordinate V -----
    strict1 = [(i, _chart1(g, mult_of[i])) for i, g in site.germs]
    factored: Dict[Tuple[uni.Coefficient, ...], Dict[int, int]] = {}
    irrational = []
    for i, g1 in strict1:
        _, factors = biv.factor_univariate(biv.restrict_x0(g1))
        for coeffs, mult in factors:
            if len(coeffs) == 2:
                factored.setdefault(tuple(coeffs), {})[i] = mult
            else:
                irrational.append((i, coeffs, mult))
    # a factor shared by two components lands in one key of a coprime basis
    for b in uni.coprime_basis([coeffs for _, coeffs, _ in irrational]):
        per_comp = factored.setdefault(tuple(b), {})
        for i, coeffs, mult in irrational:
            if not uni.divmod_exact(coeffs, b)[1]:
                per_comp[i] = per_comp.get(i, 0) + mult
    for key in sorted(factored, key=lambda k: (len(k), k)):
        h = list(key)
        per_comp = factored[key]
        total = sum(per_comp.values())
        is_origin = len(h) == 2 and h[0] == 0  # the factor V, root at 0
        corner_here = is_origin and site.axis_y is not None
        if total == 1 and not corner_here:
            (comp,) = per_comp
            node.strict[comp] = node.strict.get(comp, 0) + len(h) - 1
            continue
        if len(h) != 2:
            raise NonRationalInfinitelyNearPoint(uni.to_string(h, "v"), len(h) <= 4)
        v0 = uni.quotient(-h[0], h[1])
        # new coordinates (X, Y) with (old X, old Y) = (X, X (Y + v0)), the
        # chart recentred at (0, v0); so are the chart-1 strict transforms
        new_site = _Site(
            subs_x=_recenter(chart_x, v0),
            subs_y=_recenter(chart_y, v0),
            germs=[(i, _recenter(g1, v0)) for i, g1 in strict1 if i in per_comp],
            axis_x=node_id,
            axis_y=site.axis_y if (v0 == 0 and site.axis_y is not None) else None,
        )
        queue.append(new_site)

    # --- chart 2: (X, Y) -> (U V, V); E_new = {V = 0}, origin = [0:1] ---
    strict2 = [(i, _chart2(g, mult_of[i])) for i, g in site.germs]
    through = [(i, g2) for i, g2 in strict2 if (0, 0) not in g2]
    if through:
        corner = site.axis_x is not None
        total = sum(_ord_at_zero(biv.restrict_y0(g2)) for _, g2 in through)
        if total == 1 and not corner:
            (comp, _) = through[0]
            node.strict[comp] = node.strict.get(comp, 0) + 1
        else:
            new_site = _Site(
                subs_x=_chart2(site.subs_x),
                subs_y=_chart2(site.subs_y),
                germs=through,
                axis_x=site.axis_x,
                axis_y=node_id,
            )
            queue.append(new_site)


def _ord_at_zero(coeffs: uni.Poly) -> int:
    for i, c in enumerate(coeffs):
        if c != 0:
            return i
    raise InternalError("restriction vanished identically (internal error)")


# ---------------------------------------------------------------------------
# invariants from the tree
# ---------------------------------------------------------------------------


class FormalProduct(dict):
    """prod_v (1 - t^v)^e as the map v -> e, each v a nonzero exponent
    vector and each e nonzero; printed with the factors sorted by v, as in
    (1 - t^4) * (1 - t^12)^-1 for one variable, t1^2*t2^3 in the factors
    for r >= 2, and 1 for the empty product."""

    def __str__(self) -> str:
        return " * ".join(
            f"(1 - {uni.monomial(variable_names(len(v)), v)})" + (f"^{e}" if e != 1 else "")
            for v, e in sorted(self.items())
        ) or "1"


def _formal_product(factors) -> FormalProduct:
    """The product of the given (v, e): equal vectors merged, zero
    exponents dropped."""
    out: Dict[Tuple[int, ...], int] = {}
    for v, e in factors:
        out[v] = out.get(v, 0) + e
    return FormalProduct((v, e) for v, e in out.items() if e)


def acampo_zeta(tree: ResolutionTree) -> FormalProduct:
    """zeta(t) = prod over nodes of (1 - t^{m_k})^{chi(E_k deg)} with m_k the
    total multiplicity.  A smooth branch, the empty tree, has the zeta
    function 1 - t of one blow-up (m = 1, chi = 1), so its Delta is 1."""
    factors = [((n.total_multiplicity,), n.chi_open()) for n in tree.nodes]
    return _formal_product(factors or [((1,), 1)])


def zeta_exponents(zeta: Dict[Tuple[int], int]) -> Exponents:
    """Delta(t) = (t - 1) / zeta(t) as Phi_m exponents: every
    (1 - t^d)^e of the one-variable zeta adds -e into each m | d.
    NotPolynomial when some exponent is negative."""
    out = cyclotomic_exponents((1, 1), *((abs(d), -e) for (d,), e in zeta.items()))
    if any(e < 0 for e in out.values()):
        raise NotPolynomial(f"(t - 1) / ({zeta}) is not a polynomial")
    return out


def local_alexander_from_zeta(zeta: Dict[Tuple[int], int]) -> LaurentPolynomial:
    """Delta(t) = (t - 1) / zeta(t), canonical up to +-t^a."""
    return expand_cyclotomic(zeta_exponents(zeta))


def local_alexander(tree: ResolutionTree) -> LaurentPolynomial:
    """One-variable local Alexander polynomial (total linking) of the germ."""
    return local_alexander_from_zeta(acampo_zeta(tree))


def torus_knot_exponents(p: int, q: int) -> Exponents:
    """(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) for coprime p, q as Phi_m
    exponents: 1 exactly when m | pq, m does not divide p and m does not
    divide q."""
    if p < 1 or q < 1:
        raise BadGerm("p, q must be positive")
    if gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    return cyclotomic_exponents((p * q, 1), (1, 1), (p, -1), (q, -1))


def torus_knot_alexander(p: int, q: int) -> LaurentPolynomial:
    """(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) for coprime p, q."""
    return expand_cyclotomic(torus_knot_exponents(p, q))


def multivariable_link_alexander(tree: ResolutionTree) -> FormalProduct:
    """The multivariable Alexander polynomial of the link of a reducible
    germ as a formal product: prod over nodes of (1 - t^{a_k})^{-chi}."""
    if tree.r < 2:
        raise BadGerm("multivariable invariant needs r >= 2 components")
    return _formal_product((n.a, -n.chi_open()) for n in tree.nodes)


def fitting_exponents_from_hodge(h00: int, h10: int, h01: int) -> List[int]:
    """Exponent sequence (a_1 >= a_2 >= ...) of a fixed eigenvalue in the
    generators of the Fitting ideals, from the eigenvalue's Hodge numbers.

    Jordan blocks have size at most 2: h10 + h01 counts the 1x1 blocks and
    h00 the 2x2 blocks.
    """
    if h00 < 0 or h10 < 0 or h01 < 0:
        raise BadHodgeData("Hodge numbers must be nonnegative")
    out = []
    for i in range(1, h00 + h10 + h01 + 1):
        if i <= h00:
            out.append(h10 + h01 + 2 * h00 - 2 * (i - 1))
        else:
            out.append(h10 + h01 - (i - 1 - h00))
    return out
