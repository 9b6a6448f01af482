"""Rational polytopes in dimension <= 3, with exact vertex enumeration
and a face lattice.

A halfspace is (normal, bound, strict) meaning normal . x >= bound, or
> bound when strict.  The unit cube constraints 0 <= x_i <= 1 are always
added implicitly; strictness is carried because the ideals of
quasiadjunction and log-quasiadjunction differ exactly by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import List, Sequence, Tuple

from .errors import UnsupportedDimension
from .linalg import rational_nullspace, rational_rank

Vector = Tuple[Fraction, ...]
Halfspace = Tuple[Vector, Fraction, bool]


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


class EmptyPolytope:
    """Marker for an empty polytope (valid output, not an error)."""

    def __repr__(self):
        return "EmptyPolytope()"

    def __eq__(self, other):
        return isinstance(other, EmptyPolytope)


@dataclass
class RationalPolytope:
    dim: int
    halfspaces: List[Halfspace] = field(default_factory=list)

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise UnsupportedDimension(
                f"polytopes supported only for dimension <= 3, got {self.dim}"
            )
        self.halfspaces = [
            (_vec(n), Fraction(b), bool(s)) for n, b, s in self.halfspaces
        ]

    def add(self, normal, bound, strict=False):
        self.halfspaces.append((_vec(normal), Fraction(bound), bool(strict)))

    def constraints(self) -> List[Halfspace]:
        """User halfspaces followed by the implicit cube constraints."""
        cube: List[Halfspace] = []
        for i in range(self.dim):
            e = tuple(Fraction(1 if j == i else 0) for j in range(self.dim))
            cube.append((e, Fraction(0), False))
            cube.append((tuple(-x for x in e), Fraction(-1), False))
        return self.halfspaces + cube

    # -- geometry -----------------------------------------------------

    def vertices(self) -> List[Vector]:
        """Vertices of the closure, exact over Q."""
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
            if all(_dot(n, point) >= b for n, b, _ in cons):
                if point not in seen:
                    seen.append(point)
        return sorted(seen)

    def is_empty(self) -> bool:
        verts = self.vertices()
        if not verts:
            return True
        # the closure is nonempty; respect strict constraints at the centroid
        n = len(verts)
        centroid = tuple(
            sum((v[i] for v in verts), Fraction(0)) / n for i in range(self.dim)
        )
        for normal, bound, strict in self.constraints():
            if strict and _dot(normal, centroid) <= bound:
                return True
        return False

    def contains(self, point, closed: bool = False) -> bool:
        point = _vec(point)
        for normal, bound, strict in self.constraints():
            v = _dot(normal, point)
            if strict and not closed:
                if v <= bound:
                    return False
            elif v < bound:
                return False
        return True

    def faces(self):
        """Face lattice of the closure: list of Face, or EmptyPolytope.

        Faces are the distinct vertex sets obtained by saturating
        constraint subsets; every vertex satisfies all halfspaces and every
        facet's vertices saturate its defining halfspace.
        """
        verts = self.vertices()
        if not verts or self.is_empty():
            return EmptyPolytope()
        cons = self.constraints()
        sat = {
            v: tuple(i for i, (n, b, _) in enumerate(cons) if _dot(n, v) == b)
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


def _affine_dim(points: Sequence[Vector]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return rational_rank(rows)


def polytope_faces(p: RationalPolytope):
    return p.faces()
