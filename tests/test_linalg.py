from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv.cyclotomic import CyclotomicElement, cyclotomic_polynomial
from alexinv.linalg import (
    cokernel_invariants,
    cyclotomic_rank,
    echelon_insert,
    rational_rank,
    smith_normal_form,
)
from conftest import RUNAWAY_PHI, echelon, integer_kernel_basis, rational_nullspace, regular_representation_rank


def test_smith_examples():
    assert smith_normal_form([[2, 3]]) == [1]
    assert smith_normal_form([[2, 2]]) == [2]
    assert smith_normal_form([[7]]) == [7]
    assert cokernel_invariants([[2, 3]], 2) == (1, [])
    assert cokernel_invariants([[2, 2]], 2) == (1, [2])
    assert cokernel_invariants([[6]], 1) == (0, [6])


def determinantal_divisors(matrix):
    """d_k = D_k / D_(k-1) for k up to min(rows, cols), where D_k is the gcd
    of the k x k minors and D_0 = 1; zeros once some D_k vanishes.  Each
    k-minor expands along its first row into (k-1)-minors of the rows
    below, so no elimination (and no code of the package) is involved."""
    rows, cols = len(matrix), len(matrix[0])
    minors, out = {((), ()): 1}, [1]
    for k in range(1, min(rows, cols) + 1):
        minors = {
            (ri, ci): sum((-1) ** s * matrix[ri[0]][c] * minors[ri[1:], ci[:s] + ci[s + 1:]]
                          for s, c in enumerate(ci))
            for ri in combinations(range(rows), k)
            for ci in combinations(range(cols), k)
        }
        out.append(gcd(*minors.values()))
    return [b // a if a else 0 for a, b in zip(out, out[1:])]


matrices = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=2, max_size=4
)


@st.composite
def wide_matrices(draw):
    """Shapes up to 6 x 6 with entries up to 100: enough for a naive Smith
    loop to let its entries run away."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.integers(-100, 100), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=300)
@given(wide_matrices())
def test_smith_divisibility_chain_and_minor_gcd(m):
    diag = smith_normal_form(m)
    assert diag == determinantal_divisors(m)
    nonzero = [d for d in diag if d]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_smith_form_of_a_surjection_that_ran_away():
    """phi : Z^6 -> Z^5 on which a naive Smith loop lets its entries grow
    without bound; it is onto, and onto a subgroup of index 2 once its
    last column is doubled."""
    assert smith_normal_form(RUNAWAY_PHI) == determinantal_divisors(RUNAWAY_PHI) == [1] * 5
    doubled = [row[:-1] + [2 * row[-1]] for row in RUNAWAY_PHI]
    assert smith_normal_form(doubled) == determinantal_divisors(doubled) == [1, 1, 1, 1, 2]


def test_rank_examples():
    assert rational_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rational_rank([[0] * 5, [0] * 5]) == 0
    pts = [0, 1, -1, 2, -2, 3]
    vander = [[1, x, x * x, x * x, x**3, x**4] for x in pts]
    # quadric monomials 1, x, y, x^2, xy, y^2 evaluated on y = x^2
    vander = [[1, x, x * x, x * x, x * x * x, x**4] for x in pts]
    assert rational_rank(vander) == 5


def test_nullspace_is_conic():
    pts = [0, 1, -1, 2, -2, 3]
    rows = [[1, x, x * x, x * x, x**3, x**4] for x in pts]
    basis = rational_nullspace(rows)
    assert len(basis) == 1
    for row in rows:
        assert sum(c * v for c, v in zip(row, basis[0])) == 0


@given(matrices)
def test_nullspace_vectors_annihilate(m):
    basis = rational_nullspace(m)
    assert len(basis) == len(m[0]) - rational_rank(m)
    for v in basis:
        for row in m:
            assert sum(Fraction(c) * x for c, x in zip(row, v)) == 0


@given(matrices)
def test_rank_matches_transpose_and_smith_form(m):
    rank = rational_rank(m)
    assert rank == rational_rank([list(col) for col in zip(*m)])
    # the Smith form is independent integer code
    assert rank == sum(1 for d in smith_normal_form(m) if d)


@given(st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5), min_size=1, max_size=7))
def test_echelon_insert_takes_the_rank_one_row_at_a_time(m):
    """Inserting the rows one by one keeps an echelon of the rows so far:
    pivots increasing, each row zero before its pivot, and as many rows as
    the rank of the prefix."""
    rows, pivots = [], []
    for k, row in enumerate(m, 1):
        assert echelon_insert(rows, pivots, list(row)) == (rational_rank(m[:k]) > rational_rank(m[:k - 1]))
        assert len(rows) == rational_rank(m[:k])
        assert pivots == sorted(set(pivots))
        assert all(not any(r[:c]) and r[c] for r, c in zip(rows, pivots))
        assert rational_rank(rows + m[:k]) == len(rows)


@given(matrices, st.sampled_from([1, 2, 3, 4, 5, 6, 12]))
def test_cyclotomic_rank_of_rational_matrix(m, conductor):
    embedded = [[CyclotomicElement(conductor, [x]).coeffs for x in row] for row in m]
    assert cyclotomic_rank(embedded, conductor) == rational_rank(m)


@given(matrices)
def test_integer_kernel_basis(m):
    basis = integer_kernel_basis(m)
    assert len(basis) == len(m[0]) - rational_rank(m)
    for v in basis:
        for row in m:
            assert sum(c * x for c, x in zip(row, v)) == 0
    if basis:
        # the basis is primitive: stacking it gives a surjection onto Z^k
        diag = smith_normal_form(basis)
        assert [d for d in diag if d] == [1] * len(basis)


CONDUCTORS = [*range(1, 13), 15, 30, 36]


@st.composite
def cyclotomic_matrices(draw):
    """k x n matrices over Z[zeta_M], k, n <= 6, whose entries have random
    int coefficient vectors in the power basis, some rank deficient by
    construction (a k x r times an r x n matrix, r < min(k, n)), with zero
    rows inserted."""
    conductor = draw(st.sampled_from(CONDUCTORS))
    phi = len(cyclotomic_polynomial(conductor)) - 1
    element = st.builds(
        lambda cs: CyclotomicElement(conductor, cs),
        st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    bound = min(k, n)
    zero = CyclotomicElement(conductor, [])
    if draw(st.booleans()):
        r = draw(st.integers(0, bound - 1))
        left = [[draw(element) for _ in range(r)] for _ in range(k)]
        right = [[draw(element) for _ in range(n)] for _ in range(r)]
        m = [[sum((row[t] * right[t][j] for t in range(r)), zero) for j in range(n)] for row in left]
        bound = r
    else:
        m = [[draw(element) for _ in range(n)] for _ in range(k)]
    for _ in range(draw(st.integers(0, 2))):
        m.insert(draw(st.integers(0, len(m))), [zero] * n)
    return m, bound


@settings(max_examples=150)
@given(cyclotomic_matrices())
def test_cyclotomic_rank_matches_field_oracle(case):
    """The elimination over Z[zeta_M] agrees with the regular
    representation over Q and with the field elimination over Q(zeta_M)."""
    m, bound = case
    conductor = m[0][0].conductor
    rank = cyclotomic_rank([[e.coeffs for e in row] for row in m], conductor)
    assert rank == regular_representation_rank(m) == len(echelon([list(row) for row in m]))
    assert rank <= bound


def oracle_nullspace(matrix):
    """Nullspace by ``Fraction`` elimination and back-substitution: the slow
    path the integer kernel replaced, kept as its oracle."""
    a = [[Fraction(x) for x in row] for row in matrix]
    cols = len(a[0])
    pivots = echelon(a)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in reversed(list(zip(a, pivots))):
            v[pc] = -sum(row[j] * v[j] for j in range(pc + 1, cols)) / row[pc]
        basis.append(v)
    return basis


rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-20, max_value=20, max_denominator=60),
    st.integers(10**30, 10**40),
    st.builds(Fraction, st.integers(-(10**40), -(10**30)), st.integers(1, 10**12)),
)


@st.composite
def rational_matrices(draw):
    """Matrices with fractional and huge entries, some rank deficient by
    construction (a k x r times an r x n matrix, r < min(k, n)), with zero
    rows inserted."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    bound = min(k, n)
    if draw(st.booleans()):
        r = draw(st.integers(0, bound - 1))
        left = [[draw(rationals) for _ in range(r)] for _ in range(k)]
        right = [[draw(rationals) for _ in range(n)] for _ in range(r)]
        m = [[sum((row[t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(n)] for row in left]
        bound = r
    else:
        m = [[draw(rationals) for _ in range(n)] for _ in range(k)]
    for _ in range(draw(st.integers(0, 2))):
        m.insert(draw(st.integers(0, len(m))), [0] * n)
    return m, bound


@settings(max_examples=200)
@given(rational_matrices())
def test_integer_kernel_matches_fraction_oracle(case):
    m, bound = case
    rank = rational_rank(m)
    assert rank == len(echelon([[Fraction(x) for x in row] for row in m]))
    assert rank <= bound
    assert rational_nullspace(m) == oracle_nullspace(m)
