"""Global invariants of projective plane curves: homology of the
complement, Alexander polynomial at infinity, local Alexander products,
superabundance-driven global Alexander polynomials, divisibility verdicts,
cyclic-cover Betti numbers, Nori abelianity certificates, and global faces
of quasiadjunction with their predicted characteristic-variety components.

The curve is always assumed transversal to the line at infinity, and all
singular positions lie in one affine chart with rational coordinates.

Each singular point carries a ``LocalData``: the embedded resolution of
its germ, shared by every point of the process with an equal germ.  A
named type is the resolution of its normal form: a node is the germ
(x, y), a cusp is x^2 + y^3, and a torus type (p, q) is x^p + y^q.  Its
ideals of quasiadjunction are monomial staircases below the certified
jet bound, and each of its local faces is one list of local halfspaces
(normal, bound), lifted into the global cube through the point's
incidence: one component label per branch, or one label for them all.

A superabundance is the colength of the ideals minus the rank of the
conditions they impose on curves of degree m.  The curves meeting every
condition form an ideal, because each staircase's nonmembers are closed
downwards; so the rank is the number of standard monomials of degree
<= m of that ideal in a graded order (Buchberger and Moller, 1982), and
``_condition_rank`` counts them by a walk over the monomials that never
builds the column of a multiple of a leading monomial; a column is the
product of two lists, per coordinate and degree, over all conditions.
The walk runs modulo one fixed prime P.  A column that is independent
mod P is independent over Q, since a minor that is nonzero mod P is a
nonzero integer, so a standard monomial costs no exact work.  A column
that is dependent mod P is decided exactly, over Q, before its monomial
counts as leading.  Every rank is therefore exact; only its cost depends
on P.
"""

from __future__ import annotations

import sys
import warnings
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import uni
from .cyclotomic import Exponents, _product, _reduce, cyclotomic_exponents, expand_cyclotomic
from .errors import BadArgument, BadGerm, InternalError, NotCoprime, TheoremViolation, UnsupportedDimension
from .laurent import LaurentPolynomial
from .linalg import cokernel_invariants, echelon_insert
from .polytope import RationalPolytope, _det, centroid
from .quasiadj import (
    LocalIdealDescription,
    _rationals,
    ideal_of_quasiadjunction,
    jumping_values,
    polytopes_and_faces,
)
from .resolution import PlaneCurveGerm, ResolutionTree, acampo_zeta, resolve, zeta_exponents


# ---------------------------------------------------------------------------
# local data attached to one singular point
# ---------------------------------------------------------------------------


class LocalData:
    """The invariants of one singular germ, read off its embedded
    resolution: ``delta_exponents()``, the local Alexander polynomial as
    Phi_m exponents; ``constants()``, the jumping values of the diagonal
    family xi = (kappa, ..., kappa); ``ideal_at(xi)``, the strict ideal of
    quasiadjunction at xi, one coordinate per branch, which cuts the
    linear-system conditions; ``branch_count()``; and ``local_faces()``,
    the faces of quasiadjunction in the local cube (r <= 3), each a list of
    local halfspaces (normal, bound) that ``global_faces_and_components``
    lifts.  A smooth germ has the empty tree: no constants, no faces, and
    ideals of colength 0.

    The constants, the faces and one ideal per xi are computed once per
    datum and shared by every caller, which only reads them."""

    def __init__(self, germ: PlaneCurveGerm):
        self.germ = germ
        self.tree: ResolutionTree = resolve(germ)
        self._ideals: Dict[tuple, LocalIdealDescription] = {}
        self._constants: Optional[List[Fraction]] = None
        self._faces: Optional[list] = None

    def delta_exponents(self) -> Exponents:
        return zeta_exponents(acampo_zeta(self.tree))

    def branch_count(self) -> int:
        return self.germ.r

    def constants(self) -> List[Fraction]:
        if self._constants is None:
            self._constants = jumping_values(self.tree)
        return self._constants

    def ideal_at(self, xi: Sequence[Fraction]) -> LocalIdealDescription:
        key = tuple(_rationals(xi, "xi"))
        if key not in self._ideals:
            self._ideals[key] = ideal_of_quasiadjunction(self.tree, key)
        return self._ideals[key]

    def local_faces(self):
        """Each face of quasiadjunction as the halfspaces it saturates, in
        both directions, followed by the halfspaces of its polytope."""
        if self._faces is None:
            self._faces = [
                [h for n, b in qp.polytope.planes(f.face) for h in ((n, b), (tuple(-x for x in n), -b))]
                + qp.polytope.halfspaces
                for qp in polytopes_and_faces(self.tree)
                for f in qp.faces
            ]
        return self._faces


# One datum per distinct germ in the process, keyed by its parsed
# components: equal germs are resolved once and are one local type.
_LOCAL_DATA: Dict[tuple, LocalData] = {}


@lru_cache(maxsize=None)
def _named_germ(kind: str, pq) -> PlaneCurveGerm:
    """The germ of a named type, parsed once per process: 'node' is (x, y),
    'cusp' is x^2 + y^3 and 'torus' with pq = (p, q) is x^p + y^q, for
    coprime p and q."""
    if kind == "node":
        return PlaneCurveGerm.from_strings("x", "y")
    if kind == "cusp":
        pq = (2, 3)
    elif kind != "torus":
        raise BadGerm(f"unknown singularity type {kind!r}")
    p, q = pq
    if gcd(p, q) != 1:
        raise NotCoprime(f"torus type ({p}, {q}): gcd({p}, {q}) != 1")
    return PlaneCurveGerm.from_strings(f"x^{p} + y^{q}")


def local_data_for(kind_or_germ, pq: Optional[Tuple[int, int]] = None) -> LocalData:
    """The shared local datum of a germ, or of a named type (see
    ``_named_germ``)."""
    germ = kind_or_germ if isinstance(kind_or_germ, PlaneCurveGerm) else _named_germ(kind_or_germ, pq)
    key = _germ_key(germ)
    if key not in _LOCAL_DATA:
        _LOCAL_DATA[key] = LocalData(germ)
    return _LOCAL_DATA[key]


def _germ_key(germ: PlaneCurveGerm) -> tuple:
    return tuple(tuple(sorted(c.items())) for c in germ.components)


# ---------------------------------------------------------------------------
# curve specifications
# ---------------------------------------------------------------------------


class SingularPoint:
    """A singular point of a curve; points with the same fields are equal."""

    def __init__(self, position: Tuple[Fraction, Fraction], data: LocalData, description: str,
                 incidence: Tuple[str, ...] = ()):
        self.position = position
        self.data = data
        self.description = description
        self.incidence = incidence

    def __eq__(self, other):
        return type(other) is SingularPoint and vars(self) == vars(other)


def singular_point(position, kind, incidence=()) -> SingularPoint:
    """The singular point at position of the given kind: 'node', 'cusp', a
    torus type (p, q), or a germ string / PlaneCurveGerm."""
    if kind in ("node", "cusp"):
        data, desc = local_data_for(kind), kind
    elif isinstance(kind, tuple):
        data, desc = local_data_for("torus", kind), f"torus({kind[0]},{kind[1]})"
    else:
        germ = kind if isinstance(kind, PlaneCurveGerm) else PlaneCurveGerm.from_strings(kind)
        data, desc = local_data_for(germ), f"germ({germ})"
    return SingularPoint((Fraction(position[0]), Fraction(position[1])), data, desc, tuple(incidence))


class ProjectiveCurveSpec:
    """A projective plane curve by its degree, its components and its
    singular points; specs with the same fields are equal."""

    def __init__(self, degree: int, components: List[Tuple[str, int]],
                 singularities: Optional[List[SingularPoint]] = None):
        self.degree = degree
        self.components = components  # (label, degree)
        self.singularities = [] if singularities is None else singularities
        if sum(d for _, d in self.components) != self.degree:
            raise BadGerm("component degrees do not sum to the total degree")
        labels = {lab for lab, _ in self.components}
        if len(labels) != len(self.components):
            raise BadGerm("component labels must be distinct")
        positions = [p.position for p in self.singularities]
        if len(set(positions)) != len(positions):
            raise BadGerm("singular positions must be pairwise distinct")
        for p in self.singularities:
            for lab in p.incidence:
                if lab not in labels:
                    raise BadGerm(f"unknown component label {lab!r} in incidence")
            branches = p.data.branch_count()
            if len(p.incidence) not in (0, 1, branches):
                raise BadGerm(
                    f"incidence {list(p.incidence)} at {p.description} must give one label "
                    f"or one per branch ({branches})"
                )
            # with no incidence, branch i lies on component i (see _coords)
            if not p.incidence and 1 < len(self.components) < branches:
                x, y = p.position
                raise BadGerm(
                    f"{p.description} at ({x}, {y}) has {branches} branches but the curve has "
                    f"{len(self.components)} components: give its incidence"
                )
        self._plucker_sanity()

    def __eq__(self, other):
        return type(other) is ProjectiveCurveSpec and vars(self) == vars(other)

    def _plucker_sanity(self):
        # a node or a cusp is a point with that type's shared datum, however
        # it was written; a type no point has used is not resolved here
        shared = [_LOCAL_DATA.get(_germ_key(_named_germ(kind, None))) for kind in ("node", "cusp")]
        delta, kappa = map([p.data for p in self.singularities].count, shared)
        genus_bound = (self.degree - 1) * (self.degree - 2) // 2
        if delta + kappa > genus_bound:
            warnings.warn(
                f"{delta} nodes + {kappa} cusps exceed (d-1)(d-2)/2 = "
                f"{genus_bound}; the spec may not be realizable",
                stacklevel=3,
            )

    @property
    def r(self) -> int:
        return len(self.components)

    @classmethod
    def build(cls, degree: int, singularities, components=None) -> "ProjectiveCurveSpec":
        """singularities: iterable of (position pair, kind), with kind as in
        ``singular_point``; on a one-component curve every point lies on it."""
        comps = components or [("C", degree)]
        incidence = (comps[0][0],) if len(comps) == 1 else ()
        pts = [singular_point(pos, kind, incidence) for pos, kind in singularities]
        return cls(degree=degree, components=list(comps), singularities=pts)


def transform_positions(spec: ProjectiveCurveSpec, matrix) -> ProjectiveCurveSpec:
    """Apply a projective change of coordinates to the singular positions:
    an invertible 3x3 matrix of rationals (ints, Fractions, strings or
    floats, each read exactly by ``Fraction``), whose rows act on
    (x, y, 1).  The map runs on integer homogeneous coordinates: the
    matrix is scaled by the lcm of its denominators, and (p/q, r/s) is the
    vector (p s, r q, q s).  A wrongly shaped or singular matrix, and a
    position landing at infinity, are rejected: the affine-chart
    assumption is mandatory.

    Only positions move.  Each point keeps its germ in its own local
    coordinates; carrying germs along the map is ROADMAP item 1, slice 3."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    widths = [len(row) for row in rows]
    if widths != [3, 3, 3]:
        shape = f"{len(rows)}x{widths[0]}" if len(set(widths)) == 1 else f"rows of lengths {widths}"
        raise BadGerm(f"a change of coordinates is a 3x3 matrix, not {shape}")
    scale = lcm(*[x.denominator for row in rows for x in row])
    m = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    if _det(m) == 0:
        raise BadGerm("the matrix has determinant 0: it is no change of coordinates")
    new_points = []
    for p in spec.singularities:
        (a, q), (b, s) = (c.as_integer_ratio() for c in p.position)
        v0, v1, v2 = a * s, b * q, q * s
        x, y, z = (r0 * v0 + r1 * v1 + r2 * v2 for r0, r1, r2 in m)
        if z == 0:
            raise BadGerm(
                f"position {p.position} maps to infinity; choose another chart"
            )
        new_points.append(SingularPoint((Fraction(x, z), Fraction(y, z)), p.data, p.description, p.incidence))
    return ProjectiveCurveSpec(spec.degree, list(spec.components), new_points)


# ---------------------------------------------------------------------------
# elementary global invariants
# ---------------------------------------------------------------------------


def h1_complement(degrees: Sequence[int]) -> Tuple[int, List[int]]:
    """(free rank, torsion factors) of Z^r modulo the degree vector."""
    degrees = [int(d) for d in degrees]
    if any(d < 1 for d in degrees):
        raise BadGerm("degrees must be positive")
    return cokernel_invariants([degrees], len(degrees))


def infinity_exponents(d: int) -> Exponents:
    """(t^d - 1)^{d-2} (t - 1), the Alexander polynomial of the link at
    infinity of a curve transversal to the line at infinity, as Phi_m
    exponents."""
    if d < 1:
        raise BadGerm("degree must be positive")
    return cyclotomic_exponents((d, d - 2), (1, 1))


def infinity_alexander(d: int) -> LaurentPolynomial:
    """(t^d - 1)^{d-2} (t - 1), expanded."""
    return expand_cyclotomic(infinity_exponents(d))


def local_product_exponents(spec: ProjectiveCurveSpec) -> Exponents:
    """The product of the local Alexander polynomials as Phi_m exponents."""
    return _product(*(p.data.delta_exponents() for p in spec.singularities))


def local_alexander_product(spec: ProjectiveCurveSpec) -> LaurentPolynomial:
    return expand_cyclotomic(local_product_exponents(spec))


def nori_abelian_certificate(d: int, nodes: int, cusps: int) -> bool:
    """True certifies an abelian fundamental group: d^2 > 6 kappa + 4 delta.
    False is inconclusive."""
    if nodes < 0 or cusps < 0:
        raise BadGerm("counts must be nonnegative")
    return d * d > 6 * cusps + 4 * nodes


# ---------------------------------------------------------------------------
# superabundance and the global Alexander polynomial
# ---------------------------------------------------------------------------


def _monomials_up_to(m: int):
    return [(i, j) for total in range(m + 1) for i in range(total + 1) for j in [total - i]]


# The prime of the condition walk; see ``_insert_mod_p`` for the slot bound.
P = 2**20 - 3
_SLOT = (1 << 64) - 1


def _condition_tables(spec: ProjectiveCurveSpec, ideals: Sequence[LocalIdealDescription], m: int, top: int,
                      modulus: Optional[int] = None) -> Tuple[List[List[int]], List[List[int]]]:
    """The condition rows (X, Y) of degree <= top, one entry per condition:
    the column of the monomial x^i y^j is X[i] times Y[j], entry by entry.

    A coordinate a/b of a point with conditions has the entry a^k b^(m-k)
    at degree k, (a/b)^k scaled by b^m to an integer; one list per degree
    holds it for all points, made from the list before it.  Modulo a prime
    the entries are the residues b^m (a/b)^k, and all zeros at a point
    whose b the modulus divides: its exact entries times 0.  That keeps
    the certificate of ``_condition_rank`` sound, since a minor of the
    residues that is nonzero mod P is a minor of the exact rows, nonzero
    mod P.

    The condition of a nonmember x^alpha y^beta of ideals[k], the Taylor
    coefficient at it around spec.singularities[k], reads C(i, alpha)
    C(j, beta) times the point's entries at degrees i - alpha and j - beta
    on x^i y^j (0 below them); when each point's one condition is alpha =
    beta = 0 (every cusp at kappa = 1/6), the lists are the rows."""
    positions, conditions = [], []  # a condition is (point, alpha, beta)
    for point, ideal in zip(spec.singularities, ideals):
        if ideal.nonmembers:
            conditions += [(len(positions), alpha, beta) for alpha, beta in ideal.nonmembers]
            positions.append(point.position)
    plain = conditions == [(k, 0, 0) for k in range(len(positions))]
    tables = []
    for axis in (0, 1):
        ratios = [c[axis].as_integer_ratio() for c in positions]
        if modulus is None:
            table = [[b**m for _, b in ratios]]
            for _ in range(top):
                table.append([x // b * a for x, (a, b) in zip(table[-1], ratios)])
        else:
            steps = [a * pow(b, -1, modulus) % modulus if b % modulus else 0 for a, b in ratios]
            table = [[pow(b, m, modulus) if b % modulus else 0 for _, b in ratios]]
            for _ in range(top):
                table.append([x * s % modulus for x, s in zip(table[-1], steps)])
        if not plain:
            shifts = [(c[0], c[1 + axis]) for c in conditions]
            table = [[comb(i, e) * table[i - e][k] if i >= e else 0 for k, e in shifts] for i in range(top + 1)]
        tables.append(table)
    return tables[0], tables[1]


def _pack(residues) -> int:
    return int.from_bytes(array("Q", residues).tobytes(), sys.byteorder)


def _unpack(row: int, n: int) -> array:
    return array("Q", row.to_bytes(n << 3, sys.byteorder))


def _insert_mod_p(rows: List[int], pivots: List[int], column: List[int]) -> bool:
    """Reduce an integer column mod P against an echelon (rows, pivots) of
    packed rows and insert what is left; True when it was independent mod
    P, the analogue of ``linalg.echelon_insert``.

    A packed row is one int that holds the n residues of a column in
    64-bit slots, entry c in bits 64c to 64c + 63.  Each echelon row is
    scaled to 1 at its pivot and then negated mod P, so that every slot
    lies in [0, P) and clearing pivot c is one multiply-add, row += f top,
    with f the row's residue at c: no slot ever goes negative, and earlier
    pivots stay cleared.  A step adds less than P^2 to each slot, so after
    k steps from residues a slot is below (k + 1) P^2.  That is below 2^64
    for every k < 2^24 at P = 2^20 - 3; the row is folded back to residues
    before a step could break the bound, so no slot ever carries into the
    next one."""
    room = (1 << 64) // (P * P) - 1  # steps a slot takes from residues
    if room < 1:
        raise InternalError(f"P = {P} breaks the slot bound 2 P^2 <= 2^64 (internal error)")
    n = len(column)
    row, steps = _pack([x % P for x in column]), 0
    for top, c in zip(rows, pivots):
        f = (row >> (c << 6) & _SLOT) % P
        if f:
            if steps == room:
                row, steps = _pack([x % P for x in _unpack(row, n)]), 0
            row += f * top
            steps += 1
    residues = [x % P for x in _unpack(row, n)]
    c = next((c for c, x in enumerate(residues) if x), None)
    if c is None:
        return False
    scale = P - pow(residues[c], -1, P)
    at = bisect_left(pivots, c)
    rows.insert(at, _pack([x * scale % P for x in residues]))
    pivots.insert(at, c)
    return True


def _condition_rank(spec: ProjectiveCurveSpec, ideals: Sequence[LocalIdealDescription], m: int) -> int:
    """The rank of the conditions that the ideals (ideals[k] at
    spec.singularities[k]) impose on curves of degree <= m, as the number
    of standard monomials of degree <= m (see the module docstring).

    The monomials come in the graded order of ``_monomials_up_to``.  A
    multiple of a leading monomial found so far is skipped unbuilt.  Any
    other has its column, the product of the lists X[i] and Y[j] of
    ``_condition_tables`` (one entry per condition), reduced mod P against
    the standard columns kept so far (``_insert_mod_p``).
    - A nonzero remainder proves the column independent over Q, since a
      minor that is nonzero mod P is a nonzero integer.  The monomial is
      standard, and no exact work is done.
    - A zero remainder only makes the monomial a candidate.  The exact
      echelon of ``linalg.echelon_insert`` first takes the standard
      columns it has not seen yet, then decides the column over Q.  If it
      is dependent, the monomial is leading.  If it is independent, P
      divides a minor, and the rest of the walk runs on the exact echelon
      alone, since the packed one no longer spans the standard columns.
    So the rank is exact whatever P is; only its cost depends on P.  A
    walk meets at most m + 1 dependences, one per minimal generator of a
    monomial ideal in two variables, and the exact tables are built only
    up to the degree of the latest candidate.  The walk stops at one
    standard column per condition."""
    xs, ys = _condition_tables(spec, ideals, m, m, P)
    exact_xs, exact_ys, top = [], [], -1  # the exact tables, for the columns of degree <= top
    packed: List[int] = []
    packed_pivots: List[int] = []
    rows: List[List[int]] = []
    pivots: List[int] = []
    unseen: List[Tuple[int, int]] = []  # standard monomials not yet in the exact echelon
    leading: List[Tuple[int, int]] = []
    modular, rank = True, 0
    for i, j in _monomials_up_to(m):
        if rank == len(xs[0]):
            break
        if any(i >= a and j >= b for a, b in leading):
            continue
        if modular and _insert_mod_p(packed, packed_pivots, [x * y for x, y in zip(xs[i], ys[j])]):
            unseen.append((i, j))
            rank += 1
            continue
        if top < i + j:
            top = i + j if modular else m
            exact_xs, exact_ys = _condition_tables(spec, ideals, m, top)
        for a, b in unseen:
            if not echelon_insert(rows, pivots, [x * y for x, y in zip(exact_xs[a], exact_ys[b])]):
                raise InternalError("a column independent mod P is dependent over Q (internal error)")
        unseen = []
        if echelon_insert(rows, pivots, [x * y for x, y in zip(exact_xs[i], exact_ys[j])]):
            modular = False
            rank += 1
        else:
            leading.append((i, j))
    return rank


def _h1(spec: ProjectiveCurveSpec, ideals: Sequence[LocalIdealDescription], m: int) -> int:
    """h^1 of the twisted ideal sheaf at degree m: the colength of the
    ideals (ideals[k] at spec.singularities[k]) minus the rank of the
    linear conditions they impose on curves of degree m, which
    ``_condition_rank`` counts as standard monomials.  That count is exact
    only because the curves meeting the conditions form an ideal: every
    ideal's nonmembers are closed downwards."""
    h1 = sum(ideal.colength for ideal in ideals) - _condition_rank(spec, ideals, m)
    if h1 < 0:
        raise InternalError("condition rank exceeds the colength (internal error)")
    return h1


def superabundance(spec: ProjectiveCurveSpec, kappa: Fraction) -> int:
    """h^1 of the twisted quasiadjunction ideal sheaf at degree d-3-d*kappa:
    the excess of the actual over the expected dimension of the linear
    system of curves through the singularities with the local conditions
    J_kappa.  Returns 0 when d*kappa is not an integer or the degree is
    negative (non-contributing)."""
    kappa = Fraction(kappa)
    dk = spec.degree * kappa
    if dk.denominator != 1:
        return 0
    m = spec.degree - 3 - int(dk)
    if m < 0:
        return 0
    # one ideal_at per local type: per point, its key check costs ten times the dict
    ideals = {data: data.ideal_at((kappa,) * data.branch_count()) for data in _local_types(spec)}
    return _h1(spec, [ideals[point.data] for point in spec.singularities], m)


def _local_types(spec: ProjectiveCurveSpec) -> List[LocalData]:
    """The distinct local data of the singular points, in point order."""
    return list(dict.fromkeys(point.data for point in spec.singularities))


class AlexanderFactorization:
    """Factor list ((t - e^{2 pi i kappa})(t - e^{-2 pi i kappa}))^s plus the
    assembled rational polynomial, as Phi_m exponents, when Galois-conjugate
    kappas carry equal exponents, and the (t-1)^{r-1} bookkeeping factor
    for reducible curves.  A factor with kappa outside (0, 1) or an
    exponent below 1 is refused with ``BadArgument``."""

    def __init__(self, factors: List[Tuple[Fraction, int]], t_minus_one_exponent: int = 0,
                 exponents: Optional[Exponents] = None, assembly_warning: Optional[str] = None):
        for kappa, s in factors:
            if not 0 < kappa < 1 or s < 1:
                raise BadArgument(f"factor ({kappa}, {s}) needs kappa in (0, 1) and an exponent of at least 1")
        self.factors = factors
        self.t_minus_one_exponent = t_minus_one_exponent
        self.exponents = exponents
        self.assembly_warning = assembly_warning

    def full_exponents(self) -> Optional[Exponents]:
        """Delta_C with its (t-1)^{r-1} part, as Phi_m exponents."""
        if self.exponents is None:
            return None
        return _product(self.exponents, {1: self.t_minus_one_exponent})

    def full_polynomial(self) -> Optional[LaurentPolynomial]:
        full = self.full_exponents()
        return None if full is None else expand_cyclotomic(full)


def assemble_factors(factors: List[Tuple[Fraction, int]]):
    """Multiply conjugate pairs into a rational polynomial, as Phi_m
    exponents, when possible."""
    by_order: Dict[int, Dict[Fraction, int]] = {}
    for kappa, s in factors:
        kappa = Fraction(kappa) % 1
        kappa = min(kappa, 1 - kappa)  # the pair covers kappa and -kappa
        m = kappa.denominator
        by_order.setdefault(m, {})[kappa] = by_order.get(m, {}).get(kappa, 0) + s
    exponents: Exponents = {}
    for m, seen in sorted(by_order.items()):
        needed = {
            min(Fraction(j, m), 1 - Fraction(j, m))
            for j in range(1, m)
            if gcd(j, m) == 1
        }
        seen_exponents = {seen.get(k, 0) for k in needed}
        if len(seen_exponents) != 1:
            return None, (
                f"kappa orbit of order {m} has unequal exponents; "
                "rational assembly impossible"
            )
        s = seen_exponents.pop()
        if s:
            exponents[m] = s * (2 if m <= 2 else 1)
    return exponents, None


def global_alexander(spec: ProjectiveCurveSpec) -> AlexanderFactorization:
    """Theorem of position of singularities: for each constant of
    quasiadjunction kappa with d*kappa integral, the conjugate-pair factor
    enters with exponent equal to the superabundance at kappa."""
    kappas = sorted({k for data in _local_types(spec) for k in data.constants()})
    factors = []
    for kappa in kappas:
        s = superabundance(spec, kappa)
        if s > 0:
            factors.append((kappa, s))
    exponents, warning = assemble_factors(factors)
    if warning:
        warnings.warn(warning, stacklevel=2)
    return AlexanderFactorization(
        factors=factors,
        t_minus_one_exponent=spec.r - 1,
        exponents=exponents,
        assembly_warning=warning,
    )


class DivisibilityReport:
    """Delta_C with its factorization, the two polynomials it divides and
    the quotients, carried as Phi_m exponents; each polynomial is expanded
    when it is read."""

    def __init__(self, factorization: AlexanderFactorization, alexander_exponents: Exponents,
                 local_exponents: Exponents, infinity_exponents: Exponents):
        self.factorization = factorization
        self.alexander_exponents = alexander_exponents
        self.local_exponents = local_exponents
        self.infinity_exponents = infinity_exponents

    @property
    def alexander(self) -> LaurentPolynomial:
        return expand_cyclotomic(self.alexander_exponents)

    @property
    def local_product(self) -> LaurentPolynomial:
        return expand_cyclotomic(self.local_exponents)

    @property
    def infinity(self) -> LaurentPolynomial:
        return expand_cyclotomic(self.infinity_exponents)

    @property
    def local_quotient(self) -> LaurentPolynomial:
        return expand_cyclotomic(_quotient(self.local_exponents, self.alexander_exponents))

    @property
    def infinity_quotient(self) -> LaurentPolynomial:
        return expand_cyclotomic(_quotient(self.infinity_exponents, self.alexander_exponents))


def _quotient(num: Exponents, den: Exponents) -> Exponents:
    """num / den; TheoremViolation when den does not divide num, that is
    when some Phi_m exponent of the quotient is negative."""
    out = _product(num, {m: -e for m, e in den.items()})
    failing = [m for m, e in out.items() if e < 0]
    if failing:
        raise TheoremViolation("divisibility failed: " + ", ".join(
            f"Phi_{m}^{den[m]} does not divide Phi_{m}^{num.get(m, 0)}" for m in failing
        ))
    return out


def divisibility_check(spec: ProjectiveCurveSpec) -> DivisibilityReport:
    """Verify Delta_C | prod of local polynomials and Delta_C | Delta_inf.
    A division failure raises TheoremViolation: it cannot happen on data
    describing an actual curve."""
    fac = global_alexander(spec)
    delta = fac.full_exponents()
    if delta is None:
        raise TheoremViolation("global Alexander polynomial did not assemble")
    report = DivisibilityReport(
        factorization=fac,
        alexander_exponents=delta,
        local_exponents=local_product_exponents(spec),
        infinity_exponents=infinity_exponents(spec.degree),
    )
    _quotient(report.local_exponents, delta)
    _quotient(report.infinity_exponents, delta)
    return report


# ---------------------------------------------------------------------------
# homology of cyclic covers
# ---------------------------------------------------------------------------


def cyclic_cover_h1(delta, n: int, semisimple: bool = True):
    """Rank of H_1 of (a resolution of) the n-fold cyclic cover, plus the
    per-eigenvalue multiplicities when the module is semisimple.

    Both readings of ``delta`` build one map from the n-th roots of unity
    exp(2 pi i k/n), keyed by k/n, to multiplicities: the rank is their
    sum, and the eigenvalues are the roots k/n with k = 1..n-1 of nonzero
    multiplicity, in order.  An AlexanderFactorization gives each factor's
    exponent s to kappa and to 1 - kappa, and its (t-1)^{r-1} part
    gives r - 1 to the trivial root.  A one-variable polynomial is read as
    the cyclic module Q[t]/(Delta): each common root of Delta and t^n - 1,
    which is squarefree, counts once.  For d | n the primitive d-th roots
    are common roots exactly when Delta reduces to zero mod Phi_d, since
    Phi_d is irreducible and divides t^n - 1."""
    if n < 1:
        raise BadGerm("n must be positive")
    mult: Dict[Fraction, int] = {}
    if isinstance(delta, AlexanderFactorization):
        mult[Fraction(0)] = delta.t_minus_one_exponent
        for kappa, s in delta.factors:
            for omega in {kappa, 1 - kappa}:
                if (n * omega).denominator == 1:
                    mult[omega] = mult.get(omega, 0) + s
    else:
        if delta.is_zero():
            raise BadGerm("zero polynomial")
        coeffs = delta.to_univariate()
        for d in uni.divisors(n):
            if not any(_reduce(list(coeffs), d)):
                mult.update((Fraction(j, d), 1) for j in range(d) if gcd(j, d) == 1)
    eigen = sorted((omega, m) for omega, m in mult.items() if omega and m) if semisimple else []
    return sum(mult.values()), eigen


# ---------------------------------------------------------------------------
# global faces of quasiadjunction
# ---------------------------------------------------------------------------


class GlobalFace:
    """A global face of quasiadjunction; its repr lists every field."""

    def __init__(self, vertices: Tuple[Tuple[Fraction, ...], ...],
                 interior_point: Tuple[Fraction, ...], level: Optional[Fraction],
                 twist_degree: Optional[int], h1: Optional[int], contributing_points: List[int]):
        self.vertices = vertices
        self.interior_point = interior_point
        self.level = level
        self.twist_degree = twist_degree
        self.h1 = h1  # the superabundance: the predicted depth
        self.contributing_points = contributing_points  # indices into spec.singularities

    def __repr__(self):
        return f"GlobalFace({vars(self)})"

    def character_description(self) -> str:
        coords = ", ".join(str(x) for x in self.interior_point)
        return f"exp(+-2*pi*i*({coords}))"


def _coords(spec: ProjectiveCurveSpec, point: SingularPoint) -> List[int]:
    """The global coordinate of each local branch: its incidence label (one
    label stands for every branch), or, when the point has none, branch i
    on component i (all on the one component of a one-component curve)."""
    labels = [lab for lab, _ in spec.components]
    branches = point.data.branch_count()
    incidence = point.incidence or labels[:branches]
    if len(incidence) == 1:
        incidence = incidence * branches
    return [labels.index(lab) for lab in incidence]


def _lifted_constraints(spec: ProjectiveCurveSpec, point: SingularPoint, local):
    """One local face, a list of local halfspaces, over the global cube: the
    coefficient of each branch goes to its component's coordinate."""
    coords = _coords(spec, point)
    return [
        (tuple(sum(x for c, x in zip(coords, normal) if c == i) for i in range(spec.r)), bound)
        for normal, bound in local
    ]


def global_faces_and_components(spec: ProjectiveCurveSpec) -> List[GlobalFace]:
    """Lift each singular point's quasiadjunction faces into the global
    cube, intersect collections of them, and compute on every face with an
    integral level l = sum d_i xi_i the superabundance of the twisted
    ideal sheaf at degree d - 3 - l; the face then predicts a component
    exp(2 pi i F) of depth h^1 in the characteristic variety."""
    r = spec.r
    if r > 3:
        raise UnsupportedDimension("global faces supported for r <= 3 components")
    # identical lifted faces (e.g. many cusps of one component, all lifting
    # to xi = 1/6) are merged before the subset enumeration
    local_faces = {data: data.local_faces() for data in _local_types(spec)}
    merged: Dict[frozenset, List[int]] = {}
    for idx, point in enumerate(spec.singularities):
        for local in local_faces[point.data]:
            key = frozenset(_lifted_constraints(spec, point, local))
            merged.setdefault(key, []).append(idx)
    lifted = [(sorted(set(points)), sorted(key)) for key, points in sorted(
        merged.items(), key=lambda kv: sorted(kv[0])
    )]
    results: Dict[tuple, GlobalFace] = {}
    degs = [Fraction(d) for _, d in spec.components]
    max_size = len(lifted) if len(lifted) <= 12 else 3
    for combo, verts in _intersections(r, [faces for _, faces in lifted], max_size):
        key = tuple(verts)
        interior = centroid(verts)
        if any(not 0 < x < 1 for x in interior):
            continue
        levels = {sum(d * v[i] for i, d in enumerate(degs)) for v in verts}
        level = levels.pop() if len(levels) == 1 else None
        points = {pt for i in combo for pt in lifted[i][0]}
        if key in results:
            face = results[key]
            face.contributing_points = sorted(points.union(face.contributing_points))
            continue
        twist = h1 = None
        if level is not None and level.denominator == 1:
            twist = spec.degree - 3 - int(level)
            if twist >= 0:
                h1 = _face_h1(spec, interior, twist)
        results[key] = GlobalFace(
            vertices=tuple(verts),
            interior_point=interior,
            level=level,
            twist_degree=twist,
            h1=h1,
            contributing_points=sorted(points),
        )
    out = list(results.values())
    out.sort(key=lambda f: (f.level if f.level is not None else Fraction(-1), f.vertices))
    return out


def _intersections(r: int, faces: Sequence[list], max_size: int):
    """(subset, vertices) for each subset of at most max_size faces, a
    tuple of increasing indices, whose intersection is nonempty.  The
    subsets are walked depth first in increasing index order, and an empty
    intersection is not extended: it stays empty under more faces, as the
    cube bounds are always among the constraints."""
    stack = [((i,), faces[i]) for i in reversed(range(len(faces)))]
    while stack:
        combo, constraints = stack.pop()
        verts = RationalPolytope(r, constraints).vertices()
        if verts:
            yield combo, verts
            if len(combo) < max_size:
                stack += [
                    (combo + (j,), constraints + faces[j])
                    for j in reversed(range(combo[-1] + 1, len(faces)))
                ]


def _face_h1(spec: ProjectiveCurveSpec, xi_global, m: int) -> int:
    ideals, once = [], {}  # one ideal_at per (type, xi), as in superabundance
    for point in spec.singularities:
        key = (point.data, tuple(xi_global[c] for c in _coords(spec, point)))
        if key not in once:
            once[key] = point.data.ideal_at(key[1])
        ideals.append(once[key])
    return _h1(spec, ideals, m)
