from typing import List, Sequence

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cusp_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^2 + y^3"))


@pytest.fixture(scope="session")
def node_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x - y", "x + y"))


@pytest.fixture(scope="session")
def two_cusp_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^2 - y^3", "x^3 - y^2"))


@pytest.fixture(scope="session")
def t25_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^2 + y^5"))


@pytest.fixture(scope="session")
def t34_tree():
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("x^3 + y^4"))


@pytest.fixture(scope="session")
def puiseux2_tree():
    """A branch with two Puiseux pairs."""
    from alexinv.resolution import PlaneCurveGerm, resolve

    return resolve(PlaneCurveGerm.from_strings("(x^2-y^3)^2-4*x^5*y-x^7"))


# ---------------------------------------------------------------------------
# helpers shared by test modules (import them with ``from conftest import``)
# ---------------------------------------------------------------------------


def integer_kernel_basis(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
    """A lattice basis of the integer kernel {v : A v = 0}.

    The basis vectors extend to a unimodular matrix, so stacking them as
    rows gives a surjection onto Z^nullity.
    """
    a = [[int(x) for x in row] for row in matrix]
    if not a:
        return []
    rows, cols = len(a), len(a[0])
    # track column operations on an identity matrix
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_op(j, k, q):  # col_j -= q * col_k
        for i in range(rows):
            a[i][j] -= q * a[i][k]
        for i in range(cols):
            v[i][j] -= q * v[i][k]

    def col_swap(j, k):
        for i in range(rows):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(cols):
            v[i][j], v[i][k] = v[i][k], v[i][j]

    r = 0
    for i in range(rows):
        # clear row i to a single entry in column r via gcd column ops
        while True:
            nz = [j for j in range(r, cols) if a[i][j]]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(a[i][j]))
            col_swap(r, jmin)
            done = True
            for j in range(r + 1, cols):
                if a[i][j]:
                    q = a[i][j] // a[i][r]
                    col_op(j, r, q)
                    if a[i][j]:
                        done = False
            if done:
                break
        if r < cols and a[i][r]:
            r += 1
        if r == cols:
            break
    kernel_cols = [j for j in range(cols) if all(a[i][j] == 0 for i in range(rows))]
    return [[v[i][j] for i in range(cols)] for j in kernel_cols]
