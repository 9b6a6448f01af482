"""Rational polytopes in dimension <= 3, with exact vertex enumeration
and a face lattice.

A halfspace is (normal, bound) meaning normal . x >= bound.  The unit
cube constraints 0 <= x_i <= 1 are always added implicitly.  An empty
polytope has no vertices and no faces.

All arithmetic is on integers.  The polytope is built once into integer
rows (n, b): each halfspace scaled by the lcm of its denominators, so an
integral one is kept as given, followed by the cube rows.  A point is
carried as a ``Point`` (p, q): an integer vector p over a denominator
q > 0 with gcd(q, *p) = 1, so one rational point has one form, and equal
points are equal tuples.  Vertices are solved by Cramer's rule into this
form, n . x >= b is decided as n . p >= b q, and saturation sets, face
dimensions and a face's interior point are computed on it.  A point
becomes a tuple of ``Fraction``s only where it is reported:
``vertices()`` and ``Face.vertices``.  ``centroid`` is the mean of
``Fraction`` vectors, for callers that hold them.

Vertices are solved on the tightest rows only (``tightest``): of the
rows with one primitive normal, only the one with the largest bound
touches the polytope, so a weaker parallel row adds no vertex and cuts
none.  Faces are found from the vertices: a set of constraints cuts out
a nonempty face only if some vertex saturates all of them, so only the
subsets of each vertex's saturated rows are tried.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import BadArgument, UnsupportedDimension
from .linalg import _integer_row, rational_rank

Vector = Tuple[Fraction, ...]
# (p, q): the point p / q, with q > 0 and gcd(q, *p) = 1
Point = Tuple[Tuple[int, ...], int]
# (n, b): the constraint n . x >= b as an integer row
Row = Tuple[Tuple[int, ...], int]


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix of size 1, 2 or 3."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def tightest(rows: Sequence[Row]) -> List[Row]:
    """One row per direction, sorted: for each primitive normal n/g, the
    row with the largest bound b/g, divided by the gcd of its entries.  A
    zero normal with a positive bound holds nowhere and stays, as the row
    (0, 1); with a bound <= 0 it holds everywhere and is dropped."""
    best = {}
    for n, b in rows:
        g = gcd(*n)
        if g:
            key = tuple(x // g for x in n)
            if key not in best or b * best[key][2] > best[key][1] * g:
                best[key] = (n, b, g)
        elif b > 0:
            best[n] = (n, 1, 1)
    out = []
    for n, b, _ in best.values():
        h = gcd(b, *n)
        out.append((tuple(x // h for x in n), b // h))
    return sorted(out)


def _point(p: Sequence[int], q: int) -> Point:
    """The point p / q for a nonzero q, in lowest terms."""
    if q < 0:
        q, p = -q, [-x for x in p]
    g = gcd(q, *p)
    return tuple(x // g for x in p), q // g


def as_vector(point: Point) -> Vector:
    p, q = point
    return tuple(Fraction(x, q) for x in p)


def _mean(points: Sequence[Point]) -> Point:
    """The mean of the points, in the relative interior of their convex
    hull: the numerators over the lcm of the denominators, summed."""
    q = lcm(*[d for _, d in points])
    sums = [sum(xs) for xs in zip(*[[x * (q // d) for x in p] for p, d in points])]
    return _point(sums, q * len(points))


def centroid(points: Sequence[Vector]) -> Vector:
    """The mean of rational points given as ``Fraction``s, in the relative
    interior of their convex hull: per coordinate, the numerators over the
    lcm of the denominators, summed."""
    return tuple(Fraction(sum(h[:-1]), h[-1] * len(points)) for h in (_integer_row((*xs, 1)) for xs in zip(*points)))


def _saturated(rows: Sequence[Row], point: Point) -> frozenset:
    """Indices of the rows whose hyperplane holds the point."""
    p, q = point
    return frozenset(i for i, (n, b) in enumerate(rows) if sum(map(mul, n, p)) == b * q)


def _in_order(points) -> List[Point]:
    """The points sorted as their ``Fraction`` vectors are: by their
    numerators over the lcm of the denominators."""
    q = lcm(*[d for _, d in points])
    return sorted(points, key=lambda point: [x * (q // point[1]) for x in point[0]])


class Face:
    """A face of a polytope, given by its vertices as points, in the
    polytope's vertex order; faces with the same fields are equal."""

    def __init__(self, points: Tuple[Point, ...], dim: int, saturated: Tuple[int, ...]):
        self.points = points
        self.dim = dim
        self.saturated = saturated  # indices into the polytope's constraint list

    def __eq__(self, other):
        return type(other) is Face and vars(self) == vars(other)

    @property
    def vertices(self) -> Tuple[Vector, ...]:
        """The vertices as ``Fraction`` tuples."""
        return tuple(map(as_vector, self.points))

    def relative_interior_point(self) -> Point:
        """The mean of the vertices, as a point."""
        return _mean(self.points)


class RationalPolytope:
    """The polytope cut from the unit cube by halfspaces (normal, bound)
    with int or ``Fraction`` entries (any other entry is refused with
    ``BadArgument``); ``halfspaces`` holds them as integer rows.  Polytopes
    built with one ``solved`` dict share their vertices through it, keyed
    by their tightest rows: those with the same tightest rows are one
    polytope, and its vertices are solved once."""

    def __init__(self, dim: int, halfspaces: Sequence = (), solved: Optional[Dict[tuple, List[Point]]] = None):
        self.dim = dim
        if not 1 <= self.dim <= 3:
            raise UnsupportedDimension(
                f"polytopes supported only for dimension <= 3, got {self.dim}"
            )
        rows = []
        for normal, bound in halfspaces:
            row = (*normal, bound)
            try:
                den = lcm(*[x.denominator for x in row])
            except AttributeError:
                raise BadArgument(f"halfspace {(normal, bound)!r} needs int or Fraction entries") from None
            *n, b = [x.numerator * (den // x.denominator) for x in row]
            rows.append((tuple(n), b))
        self.halfspaces = rows
        self._solved = {} if solved is None else solved
        self._points = None
        self._constraints = list(rows)
        for i in range(self.dim):
            e = tuple(int(j == i) for j in range(self.dim))
            self._constraints += [(e, 0), (tuple(-x for x in e), -1)]

    def constraints(self) -> List[Row]:
        """The halfspaces followed by the cube rows x_i >= 0, -x_i >= -1."""
        return self._constraints

    def planes(self, face: Face) -> List[Row]:
        """The halfspaces that the face saturates, the hyperplanes that
        define it, in order."""
        return [self.halfspaces[i] for i in face.saturated if i < len(self.halfspaces)]

    # -- geometry -----------------------------------------------------

    def points(self) -> List[Point]:
        """The vertices as points, exact over Q, sorted: the points where
        dim constraint hyperplanes with a nonzero determinant meet, by
        Cramer's rule, that satisfy every constraint; only the ``tightest``
        rows are tried.  They are solved once."""
        if self._points is None:
            rows = tuple(tightest(self._constraints))
            if rows not in self._solved:
                found = set()
                for subset in combinations(rows, self.dim):
                    q = _det([n for n, _ in subset])
                    if not q:
                        continue
                    point = _point([_det([n[:j] + (b,) + n[j + 1:] for n, b in subset]) for j in range(self.dim)], q)
                    p, q = point
                    if point not in found and all(sum(map(mul, n, p)) >= b * q for n, b in rows):
                        found.add(point)
                self._solved[rows] = _in_order(found)
            self._points = self._solved[rows]
        return self._points

    def vertices(self) -> List[Vector]:
        """The vertices as ``Fraction`` tuples, sorted as ``points()``."""
        return [as_vector(point) for point in self.points()]

    def faces(self) -> List[Face]:
        """Face lattice, sorted by (dim, vertices); [] when empty.

        Faces are the distinct nonempty vertex sets cut out by subsets of
        at most dim constraints.  Only a subset that some vertex saturates
        cuts out a nonempty set, so the subsets tried are those of each
        vertex's saturated constraints.  A face's ``saturated`` is the first
        subset, by size and then lexicographically, that cuts out its vertex
        set; the polytope itself, which comes last, keeps every constraint
        that all its vertices saturate.  The vertices are sorted, so the
        order of the ascending vertex indices of each face is the order of
        its vertices.
        """
        verts = self.points()
        if not verts:
            return []
        sat = [_saturated(self._constraints, v) for v in verts]
        # vset: ascending indices into verts
        found = {tuple(range(len(verts))): tuple(sorted(frozenset.intersection(*sat)))}
        subsets = {s for on in sat for size in range(1, self.dim + 1) for s in combinations(sorted(on), size)}
        for subset in sorted(subsets, key=lambda s: (len(s), s)):
            vset = tuple(i for i, on in enumerate(sat) if on.issuperset(subset))
            if vset not in found:
                found[vset] = subset
        faces = sorted((_affine_dim([verts[i] for i in vset]), vset, saturated) for vset, saturated in found.items())
        return [Face(tuple(verts[i] for i in vset), dim, saturated) for dim, vset, saturated in faces]

    def face_lookup(self) -> Callable[[Point], Face]:
        """A map from a point of the polytope to the face that holds it in
        its relative interior, equal to the one ``faces()`` lists.  That
        face's vertices are exactly the polytope's vertices on every
        constraint hyperplane through the point.  Its ``saturated`` is the
        first subset, by size and then lexicographically, of the rows that
        all its vertices saturate which cuts out its vertex set, or all
        those rows for the polytope itself.  Only the faces asked for are
        built, each once.  A point outside the polytope, which is every
        point when it is empty, is refused with ``BadArgument``."""
        verts = self.points()
        sat = [_saturated(self._constraints, v) for v in verts]
        whole = tuple(range(len(verts)))
        built: Dict[Tuple[int, ...], Face] = {}

        def cut(rows) -> Tuple[int, ...]:
            return tuple(i for i, on in enumerate(sat) if on.issuperset(rows))

        def face_of(point: Point) -> Face:
            p, q = point
            slack = [sum(map(mul, n, p)) - b * q for n, b in self._constraints]
            if min(slack) < 0:
                raise BadArgument(f"point ({', '.join(map(str, as_vector(point)))}) lies outside the polytope")
            vset = cut({i for i, s in enumerate(slack) if not s})
            if vset not in built:
                common = sorted(frozenset.intersection(*[sat[i] for i in vset]))
                if vset != whole:
                    common = next(
                        s for size in range(1, self.dim + 1) for s in combinations(common, size) if cut(s) == vset
                    )
                vlist = [verts[i] for i in vset]
                built[vset] = Face(tuple(vlist), _affine_dim(vlist), tuple(common))
            return built[vset]

        return face_of


def _affine_dim(points: Sequence[Point]) -> int:
    """The rank of the differences to the first point, over one denominator."""
    q = lcm(*[d for _, d in points])
    base, *rest = [[x * (q // d) for x in p] for p, d in points]
    return rational_rank([[x - b for x, b in zip(p, base)] for p in rest])
