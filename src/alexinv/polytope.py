"""Rational polytopes in dimension <= 3, with exact vertex enumeration
and a face lattice.

A halfspace is (normal, bound) meaning normal . x >= bound.  The unit
cube constraints 0 <= x_i <= 1 are always added implicitly.  An empty
polytope has no vertices and no faces.

All arithmetic is on integers.  The polytope is built once into integer
rows (n, b): each halfspace scaled by the lcm of its denominators, so an
integral one is kept as given, followed by the cube rows.  A vertex
is solved by Cramer's rule as p / q with p an integer vector and q > 0,
and n . x >= b is decided as n . p >= b q; only a reported vertex is a
``Fraction`` tuple.

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
from typing import Callable, List, Sequence, Tuple

from .errors import UnsupportedDimension
from .linalg import _integer_row, rational_rank

Vector = Tuple[Fraction, ...]
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


def centroid(points: Sequence[Vector]) -> Vector:
    """The mean of the points, in the relative interior of their convex hull:
    per coordinate, the numerators over the lcm of the denominators, summed."""
    return tuple(Fraction(sum(h[:-1]), h[-1] * len(points)) for h in (_integer_row((*xs, 1)) for xs in zip(*points)))


def _saturated(rows: Sequence[Row], point) -> frozenset:
    """Indices of the rows whose hyperplane holds the point, written as
    p / q with p integer and q > 0."""
    q = lcm(*[x.denominator for x in point])
    p = [x.numerator * (q // x.denominator) for x in point]
    return frozenset(i for i, (n, b) in enumerate(rows) if sum(map(mul, n, p)) == b * q)


class Face:
    """A face of a polytope, given by its vertex set; faces with the same
    fields are equal."""

    def __init__(self, vertices: Tuple[Vector, ...], dim: int, saturated: Tuple[int, ...]):
        self.vertices = vertices
        self.dim = dim
        self.saturated = saturated  # indices into the polytope's constraint list

    def __eq__(self, other):
        return type(other) is Face and vars(self) == vars(other)

    def relative_interior_point(self) -> Vector:
        return centroid(self.vertices)


class RationalPolytope:
    """The polytope cut from the unit cube by halfspaces (normal, bound)
    with int or ``Fraction`` entries; ``halfspaces`` holds them as integer
    rows."""

    def __init__(self, dim: int, halfspaces: Sequence = ()):
        self.dim = dim
        if not 1 <= self.dim <= 3:
            raise UnsupportedDimension(
                f"polytopes supported only for dimension <= 3, got {self.dim}"
            )
        rows = []
        for normal, bound in halfspaces:
            row = (*normal, bound)
            den = lcm(*[x.denominator for x in row])
            *n, b = [x.numerator * (den // x.denominator) for x in row]
            rows.append((tuple(n), b))
        self.halfspaces = rows
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

    def vertices(self) -> List[Vector]:
        """Vertices, exact over Q: the points where dim constraint
        hyperplanes with a nonzero determinant meet, by Cramer's rule, that
        satisfy every constraint; only the ``tightest`` rows are tried."""
        rows = tightest(self._constraints)
        found = {}
        for subset in combinations(rows, self.dim):
            normals = [n for n, _ in subset]
            q = _det(normals)
            if not q:
                continue
            p = [
                _det([n[:j] + (b,) + n[j + 1:] for n, b in subset])
                for j in range(self.dim)
            ]
            if q < 0:
                q, p = -q, [-x for x in p]
            g = gcd(q, *p)
            key = (tuple(x // g for x in p), q // g)
            if key in found:
                continue
            if all(sum(map(mul, n, p)) >= b * q for n, b in rows):
                found[key] = tuple(Fraction(x, q) for x in p)
        return sorted(found.values())

    def faces(self) -> List[Face]:
        """Face lattice, sorted by (dim, vertices); [] when empty.

        Faces are the distinct nonempty vertex sets cut out by subsets of
        at most dim constraints.  Only a subset that some vertex saturates
        cuts out a nonempty set, so the subsets tried are those of each
        vertex's saturated constraints.  A face's ``saturated`` is the first
        subset, by size and then lexicographically, that cuts out its vertex
        set; the polytope itself, which comes last, keeps every constraint
        that all its vertices saturate.
        """
        verts = self.vertices()
        if not verts:
            return []
        sat = [_saturated(self._constraints, v) for v in verts]
        # vset: ascending indices into verts, which are sorted
        found = {tuple(range(len(verts))): tuple(sorted(frozenset.intersection(*sat)))}
        subsets = {s for on in sat for size in range(1, self.dim + 1) for s in combinations(sorted(on), size)}
        for subset in sorted(subsets, key=lambda s: (len(s), s)):
            vset = tuple(i for i, on in enumerate(sat) if on.issuperset(subset))
            if vset not in found:
                found[vset] = subset
        faces = []
        for key, saturated in found.items():
            vlist = [verts[i] for i in key]
            faces.append(Face(vertices=tuple(vlist), dim=_affine_dim(vlist), saturated=saturated))
        faces.sort(key=lambda f: (f.dim, f.vertices))
        return faces

    def face_lookup(self) -> Callable[[Sequence], Face]:
        """A map from a point of the polytope to the face that holds it in
        its relative interior.  That face's vertices are exactly the
        polytope's vertices on every constraint hyperplane through the
        point.  The face lattice is computed once, here, not per point."""
        faces = self.faces()
        by_vertices = {f.vertices: f for f in faces}
        verts = faces[-1].vertices if faces else ()
        sat = {v: _saturated(self._constraints, v) for v in verts}

        def face_of(point) -> Face:
            through = _saturated(self._constraints, point)
            return by_vertices[tuple(v for v, on in sat.items() if through <= on)]

        return face_of


def _affine_dim(points: Sequence[Vector]) -> int:
    """The rank of the differences to the first point, over one denominator."""
    q = lcm(*[x.denominator for point in points for x in point])
    base, *rest = [[x.numerator * (q // x.denominator) for x in point] for point in points]
    return rational_rank([[x - b for x, b in zip(p, base)] for p in rest])
