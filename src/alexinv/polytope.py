"""Rational polytopes in dimension <= 3, with exact vertex enumeration
and a face lattice.

A halfspace is (normal, bound) meaning normal . x >= bound.  The unit
cube constraints 0 <= x_i <= 1 are always added implicitly.  An empty
polytope has no vertices and no faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, List, Sequence, Tuple

from .errors import UnsupportedDimension
from .linalg import rational_nullspace, rational_rank

Vector = Tuple[Fraction, ...]
Halfspace = Tuple[Vector, Fraction]


def _vec(v) -> Vector:
    return tuple(Fraction(x) for x in v)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class Face:
    """A face of a polytope, given by its vertex set."""

    vertices: Tuple[Vector, ...]
    dim: int
    saturated: Tuple[int, ...]  # indices into the polytope's constraint list

    def relative_interior_point(self) -> Vector:
        n = len(self.vertices)
        return tuple(
            sum((v[i] for v in self.vertices), Fraction(0)) / n
            for i in range(len(self.vertices[0]))
        )


@dataclass
class RationalPolytope:
    dim: int
    halfspaces: List[Halfspace] = field(default_factory=list)

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise UnsupportedDimension(
                f"polytopes supported only for dimension <= 3, got {self.dim}"
            )
        self.halfspaces = [(_vec(n), Fraction(b)) for n, b in self.halfspaces]

    def constraints(self) -> List[Halfspace]:
        """User halfspaces followed by the implicit cube constraints."""
        cube: List[Halfspace] = []
        for i in range(self.dim):
            e = tuple(Fraction(1 if j == i else 0) for j in range(self.dim))
            cube.append((e, Fraction(0)))
            cube.append((tuple(-x for x in e), Fraction(-1)))
        return self.halfspaces + cube

    # -- geometry -----------------------------------------------------

    def vertices(self) -> List[Vector]:
        """Vertices, exact over Q."""
        cons = self.constraints()
        seen = []
        for subset in combinations(range(len(cons)), self.dim):
            # the subset's hyperplanes meet in one point exactly when [A | -b]
            # has a one-dimensional nullspace whose vector has a nonzero last
            # coordinate; rational_nullspace makes that coordinate 1
            kernel = rational_nullspace([list(cons[i][0]) + [-cons[i][1]] for i in subset])
            if len(kernel) != 1 or not kernel[0][-1]:
                continue
            point = tuple(kernel[0][:-1])
            if all(_dot(n, point) >= b for n, b in cons):
                if point not in seen:
                    seen.append(point)
        return sorted(seen)

    def faces(self) -> List[Face]:
        """Face lattice, sorted by (dim, vertices); [] when empty.

        Faces are the distinct vertex sets obtained by saturating
        constraint subsets; every vertex satisfies all halfspaces and every
        facet's vertices saturate its defining halfspace.  The polytope
        itself comes last.
        """
        verts = self.vertices()
        if not verts:
            return []
        cons = self.constraints()
        sat = {
            v: tuple(i for i, (n, b) in enumerate(cons) if _dot(n, v) == b)
            for v in verts
        }
        found = {}

        def record(vset, saturated):
            if not vset:
                return
            key = tuple(sorted(vset))
            if key not in found:
                found[key] = tuple(sorted(saturated))

        record(verts, tuple(i for i in range(len(cons)) if all(i in sat[v] for v in verts)))
        for size in range(1, self.dim + 1):
            for subset in combinations(range(len(cons)), size):
                vset = [v for v in verts if all(i in sat[v] for i in subset)]
                record(vset, subset)
        for v in verts:
            record([v], sat[v])
        faces = []
        for key in sorted(found):
            vlist = list(key)
            faces.append(
                Face(vertices=tuple(vlist), dim=_affine_dim(vlist), saturated=found[key])
            )
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
        cons = self.constraints()
        sat = {v: {i for i, (n, b) in enumerate(cons) if _dot(n, v) == b} for v in verts}

        def face_of(point) -> Face:
            through = {i for i, (n, b) in enumerate(cons) if _dot(n, point) == b}
            return by_vertices[tuple(v for v in verts if through <= sat[v])]

        return face_of


def _affine_dim(points: Sequence[Vector]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return rational_rank(rows)
