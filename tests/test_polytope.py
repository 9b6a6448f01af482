from fractions import Fraction
from itertools import combinations

from hypothesis import example, given
from hypothesis import strategies as st

from alexinv.polytope import EmptyPolytope, RationalPolytope


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
    p = RationalPolytope(1, [((1,), Fraction(1, 6), False)])
    verts = p.vertices()
    assert verts == [(Fraction(1, 6),), (Fraction(1),)]


def test_empty_marker():
    p = RationalPolytope(2, [((1, 0), Fraction(2), False)])
    assert isinstance(p.faces(), EmptyPolytope)
    # strictly empty: x > 0 and x <= 0
    q = RationalPolytope(1, [((1,), 0, True), ((-1,), 0, False)])
    assert q.is_empty()
    assert isinstance(q.faces(), EmptyPolytope)


def test_two_cusp_face_plane():
    halfspaces = [
        ((2, 2), 2, False),
        ((2, 3), 2, False),
        ((3, 2), 2, False),
        ((4, 6), 5, False),
        ((6, 4), 5, False),
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
    st.booleans(),
)


@given(st.lists(halfspace, max_size=4))
def test_vertices_satisfy_all_halfspaces(halfspaces):
    p = RationalPolytope(2, halfspaces)
    faces = p.faces()
    if isinstance(faces, EmptyPolytope):
        return
    cons = p.constraints()
    for f in faces:
        for v in f.vertices:
            for normal, bound, _ in cons:
                assert _dot(normal, v) >= bound
    # facet vertices saturate their defining halfspace
    for f in faces:
        for i in f.saturated:
            normal, bound, _ = cons[i]
            for v in f.vertices:
                assert _dot(normal, v) == bound


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _polytopes(dim):
    normal = st.tuples(*[st.integers(-3, 3)] * dim)
    bound = st.fractions(min_value=-2, max_value=3, max_denominator=4)
    return st.tuples(st.just(dim), st.lists(st.tuples(normal, bound), max_size=3))


@given(st.integers(1, 3).flatmap(_polytopes))
# the parallel lines 2x - y = -1 and 4x - 2y = -3/2 meet nowhere, though
# the direction (1/2, 1) along them lies in the square
@example((2, [((2, -1), Fraction(-1)), ((4, -2), Fraction(-3, 2))]))
def test_vertices_match_cramer(case):
    """Vertices are the points where dim constraint hyperplanes of nonzero
    determinant meet, by Cramer's rule, that satisfy every constraint."""
    dim, halfspaces = case
    p = RationalPolytope(dim, [(n, b, False) for n, b in halfspaces])
    cons = p.constraints()
    expected = set()
    for subset in combinations(cons, dim):
        a = [list(n) for n, _, _ in subset]
        det = _det(a)
        if det == 0:
            continue
        point = tuple(
            _det([row[:k] + [b] + row[k + 1:] for row, (_, b, _) in zip(a, subset)]) / det
            for k in range(dim)
        )
        if all(_dot(n, point) >= b for n, b, _ in cons):
            expected.add(point)
    assert p.vertices() == sorted(expected)


def test_dimension_cap():
    import pytest

    from alexinv.errors import UnsupportedDimension

    with pytest.raises(UnsupportedDimension):
        RationalPolytope(4, [])
