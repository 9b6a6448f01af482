import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alexinv.errors import BadArgument
from alexinv.polytope import RationalPolytope, _affine_dim, _point, as_vector, centroid, tightest
from conftest import (
    point_of,
    rational_nullspace,
    reference_affine_dim,
    reference_centroid,
    reference_faces,
    reference_vertices,
)


def _dot(a, b):
    return sum(Fraction(x) * y for x, y in zip(a, b))


def test_unit_square():
    p = RationalPolytope(2, [])
    faces = p.faces()
    verts = [f for f in faces if f.dim == 0]
    edges = [f for f in faces if f.dim == 1]
    assert len(verts) == 4
    assert len(edges) == 4


def test_segment_on_line():
    # {x >= 1/6} inside [0, 1]
    p = RationalPolytope(1, [((1,), Fraction(1, 6))])
    verts = p.vertices()
    assert verts == [(Fraction(1, 6),), (Fraction(1),)]


def test_empty_marker():
    """An empty polytope has no vertices and no faces."""
    p = RationalPolytope(2, [((1, 0), Fraction(2))])
    assert p.vertices() == []
    assert p.faces() == []


def test_two_cusp_face_plane():
    halfspaces = [
        ((2, 2), 2),
        ((2, 3), 2),
        ((3, 2), 2),
        ((4, 6), 5),
        ((6, 4), 5),
    ]
    p = RationalPolytope(2, halfspaces)
    faces = p.faces()
    segments = [f for f in faces if f.dim == 1]
    on_plane = [
        f
        for f in segments
        if all(_dot((6, 4), v) == 5 for v in f.vertices)
    ]
    assert on_plane, "expected a facet on 6 x1 + 4 x2 = 5"


halfspace = st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.fractions(min_value=-2, max_value=3, max_denominator=4),
)


@given(st.lists(halfspace, max_size=4))
def test_vertices_satisfy_all_halfspaces(halfspaces):
    p = RationalPolytope(2, halfspaces)
    faces = p.faces()
    assert (faces == []) == (p.vertices() == [])
    cons = p.constraints()
    for f in faces:
        for v in f.vertices:
            for normal, bound in cons:
                assert _dot(normal, v) >= bound
    # facet vertices saturate their defining halfspace
    for f in faces:
        for i in f.saturated:
            normal, bound = cons[i]
            for v in f.vertices:
                assert _dot(normal, v) == bound


def _polytopes(dim):
    normal = st.tuples(*[st.integers(-3, 3)] * dim)
    bound = st.fractions(min_value=-2, max_value=3, max_denominator=4)
    return st.tuples(st.just(dim), st.lists(st.tuples(normal, bound), max_size=3))


@given(st.integers(1, 3).flatmap(_polytopes))
# the parallel lines 2x - y = -1 and 4x - 2y = -3/2 meet nowhere, though
# the direction (1/2, 1) along them lies in the square
@example((2, [((2, -1), Fraction(-1)), ((4, -2), Fraction(-3, 2))]))
def test_vertices_match_nullspace_oracle(case):
    """Vertices are the feasible points where dim constraint hyperplanes
    meet in one point: where [A | -b] has a one-dimensional nullspace whose
    vector has a nonzero last coordinate (the route Cramer's rule replaced)."""
    dim, halfspaces = case
    p = RationalPolytope(dim, halfspaces)
    cons = p.constraints()
    expected = set()
    for subset in combinations(cons, dim):
        kernel = rational_nullspace([list(n) + [-b] for n, b in subset])
        if len(kernel) != 1 or not kernel[0][-1]:
            continue
        point = tuple(x / kernel[0][-1] for x in kernel[0][:-1])
        if all(_dot(n, point) >= b for n, b in cons):
            expected.add(point)
    assert p.vertices() == sorted(expected)


@given(st.integers(1, 3).flatmap(_polytopes), st.lists(st.integers(1, 5), min_size=3, max_size=3))
def test_scaled_halfspaces_give_the_same_polytope(case, scales):
    """Each halfspace multiplied by a positive integer cuts the same
    polytope: the same vertices, faces and saturated indices.  The
    constraints are integer rows, and an integral halfspace is kept as
    given."""
    dim, halfspaces = case
    scaled = [(tuple(s * x for x in n), s * b) for (n, b), s in zip(halfspaces, scales)]
    p, q = RationalPolytope(dim, halfspaces), RationalPolytope(dim, scaled)
    assert q.vertices() == p.vertices()
    assert q.faces() == p.faces()
    for poly in (p, q):
        assert all(type(x) is int for n, b in poly.constraints() for x in (*n, b))
        assert RationalPolytope(dim, poly.halfspaces).halfspaces == poly.halfspaces


def test_tightest_keeps_one_row_per_direction():
    rows = [((2, 0), 1), ((1, 0), 1), ((3, 0), 1), ((0, 0), -1), ((2, 4), 6), ((-1, 0), -1)]
    # x >= 1/2, x >= 1 and x >= 1/3 keep x >= 1; 2x + 4y >= 6 is x + 2y >= 3;
    # 0 >= -1 holds everywhere
    assert tightest(rows) == [((-1, 0), -1), ((1, 0), 1), ((1, 2), 3)]
    assert tightest([((1, 0), 0), ((0, 0), 2)]) == [((0, 0), 1), ((1, 0), 0)]


def test_zero_normal_with_positive_bound_is_empty():
    """0 . x >= 1/2 holds nowhere, whatever the other rows."""
    p = RationalPolytope(2, [((1, 1), 1), ((0, 0), Fraction(1, 2))])
    assert p.vertices() == [] and p.faces() == []
    assert RationalPolytope(2, [((0, 0), 0)]).vertices() == RationalPolytope(2, []).vertices()


@st.composite
def redundant_polytopes(draw):
    """Halfspaces of dimension 1 to 3 with the redundancy that ``tightest``
    removes: after each drawn row, maybe a duplicate of it, a positive
    multiple of its normal with another bound, or a zero normal with any
    bound; then all of them in a drawn order."""
    dim = draw(st.integers(1, 3))
    normal = st.tuples(*[st.integers(-3, 3)] * dim)
    bound = st.fractions(min_value=-2, max_value=3, max_denominator=4)
    rows = []
    for n, b in draw(st.lists(st.tuples(normal, bound), max_size=4)):
        rows.append((n, b))
        kind = draw(st.sampled_from(("none", "duplicate", "parallel", "zero")))
        if kind == "duplicate":
            rows.append((n, b))
        elif kind == "parallel":
            rows.append((tuple(draw(st.integers(1, 3)) * x for x in n), draw(bound)))
        elif kind == "zero":
            rows.append(((0,) * dim, draw(bound)))
    return dim, draw(st.permutations(rows))


@given(redundant_polytopes())
@example((2, [((1, 0), Fraction(1, 3)), ((2, 0), Fraction(1)), ((0, 0), Fraction(-1))]))
@example((3, [((1, 1, 1), Fraction(1)), ((2, 2, 2), Fraction(2)), ((1, 1, 0), Fraction(1, 2))]))
def test_vertices_and_faces_match_reference(case):
    """The walk on the tightest rows finds the reference's vertices, and the
    saturation walk its faces: the same vertex sets, dimensions and first
    saturated subsets, in the same order."""
    dim, halfspaces = case
    p = RationalPolytope(dim, halfspaces)
    assert p.vertices() == reference_vertices(p)
    assert p.faces() == reference_faces(p)


def _face_of(poly, faces, point):
    """The face of poly (whose face list is given) that holds the point in
    its relative interior: the smallest face whose vertices saturate every
    constraint through the point (the search that the lookup replaced)."""
    cons = poly.constraints()
    if not faces or any(_dot(n, point) < b for n, b in cons):
        return None
    saturated = tuple(i for i, (n, b) in enumerate(cons) if _dot(n, point) == b)
    best = None
    for face in faces:
        if all(i in saturated for i in face.saturated) and all(
            _dot(cons[i][0], v) == cons[i][1] for v in face.vertices for i in saturated
        ):
            if best is None or face.dim < best.dim:
                best = face
    return best


@given(st.integers(1, 3).flatmap(_polytopes))
def test_face_lookup_matches_search(case):
    """At the relative-interior point of every face, an integer point, the
    lookup and the search both find that face."""
    dim, halfspaces = case
    p = RationalPolytope(dim, halfspaces)
    face_of = p.face_lookup()
    faces = p.faces()
    # a lookup on a polytope whose face lattice cannot be built: it builds
    # only the faces asked for
    lazy = RationalPolytope(dim, halfspaces)
    lazy.faces = None
    lazy_face_of = lazy.face_lookup()
    for face in faces:
        point = face.relative_interior_point()
        assert point == point_of(centroid(face.vertices))
        assert face_of(point) == _face_of(p, faces, as_vector(point)) == face
        assert lazy_face_of(point) == face


@pytest.mark.parametrize(
    "bound, point, shown",
    [
        (3, ((0, 0), 1), "(0, 0)"),  # the polytope is empty
        (3, ((1, 1), 2), "(1/2, 1/2)"),
        (1, ((0, 0), 1), "(0, 0)"),  # below x + y = 1
        (1, ((2, 0), 1), "(2, 0)"),  # beyond the vertex (1, 0)
    ],
)
def test_face_lookup_refuses_outside_points(bound, point, shown):
    """On {x + y >= bound} in the unit square, a point outside is refused
    and named, not given a face or failing inside the lookup."""
    face_of = RationalPolytope(2, [((1, 1), bound)]).face_lookup()
    with pytest.raises(BadArgument, match=f"point {re.escape(shown)} lies outside the polytope"):
        face_of(point)


@pytest.mark.parametrize("halfspace", [((1, 0.5), 1), ((1, 1), "1/2")])
def test_halfspace_entry_not_int_or_fraction_refused(halfspace):
    """A float or string entry is refused, naming its halfspace."""
    with pytest.raises(BadArgument, match=re.escape(f"halfspace {halfspace!r} needs int or Fraction entries")):
        RationalPolytope(2, [((1, 0), 0), halfspace])


@st.composite
def affine_point_sets(draw):
    """1 to 6 rational points of dimension 1 to 3, each a drawn base point
    plus a rational combination of at most dim drawn directions, so that
    every affine dimension up to dim occurs, and repeated points too."""
    dim = draw(st.integers(1, 3))
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    vector = st.tuples(*[coordinate] * dim)
    base, directions = draw(vector), draw(st.lists(vector, max_size=dim))
    weights = st.lists(coordinate, min_size=len(directions), max_size=len(directions))
    return [
        tuple(b + sum(w * d[k] for w, d in zip(ws, directions)) for k, b in enumerate(base))
        for ws in draw(st.lists(weights, min_size=1, max_size=6))
    ]


@given(affine_point_sets())
def test_centroid_matches_fraction_sum(points):
    """The integer centroid is the Fraction mean, coordinate by coordinate,
    and each coordinate is one Fraction."""
    got = centroid(points)
    assert got == reference_centroid(points)
    assert all(type(x) is Fraction for x in got)


@given(affine_point_sets(), st.integers(-5, 5).filter(bool))
def test_points_are_in_lowest_terms(points, k):
    """An integer vector over a nonzero denominator, here each vector's
    numerators over k times their common denominator, becomes its one
    point: q > 0 and gcd(q, *p) = 1; back as Fractions it is the vector."""
    for v in points:
        p, q = point_of(v)
        assert _point([k * x for x in p], k * q) == (p, q)
        assert q > 0 and gcd(q, *p) == 1
        assert as_vector((p, q)) == v


def test_polytopes_with_one_solved_dict_share_their_vertices():
    """Rows with the same tightest rows solve their vertices once; other
    rows add their own."""
    solved = {}
    square = RationalPolytope(2, [((2, 0), 1), ((0, 1), Fraction(1, 3))], solved)
    assert square.vertices() == [
        (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), 1), (1, Fraction(1, 3)), (1, 1)
    ]
    assert len(solved) == 1
    # the same polytope with a weaker parallel row and a scaled row
    same = RationalPolytope(2, [((1, 0), Fraction(1, 4)), ((4, 0), 2), ((0, 3), 1)], solved)
    assert same.points() is square.points()
    assert len(solved) == 1
    assert RationalPolytope(2, [((1, 1), 1)], solved).vertices() != square.vertices()
    assert len(solved) == 2


@given(affine_point_sets())
def test_affine_dim_matches_rank_of_differences(points):
    """The rank of the integer differences to the first point, over one
    common denominator, is the rank of the Fraction differences."""
    assert _affine_dim([point_of(v) for v in points]) == reference_affine_dim(points)


def test_dimension_cap():
    import pytest

    from alexinv.errors import UnsupportedDimension

    with pytest.raises(UnsupportedDimension):
        RationalPolytope(4, [])
