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
