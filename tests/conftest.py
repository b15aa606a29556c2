import pytest
from hypothesis import settings

from itdpf.interpolation import build_scheme
from itdpf.matching import trivial_family
from itdpf.params import build_params

# Example run times swing with the host's load; what the property tests
# check is their outcome, so no example has a deadline.
settings.register_profile("itdpf", deadline=None)
settings.load_profile("itdpf")

# Fixture A: binary output group, the 6-server regime (m = 7*73 = 511,
# the whole multiplicative group of F_512).
# Fixture B: odd characteristic (m = 6, p = 5, F_25), where no 3-point
# scheme exists and the solver escalates to n = 4 (8 servers).


@pytest.fixture(scope="session")
def params_a():
    return build_params([7, 73], 2)


@pytest.fixture(scope="session")
def scheme_a(params_a):
    return build_scheme(params_a)


@pytest.fixture(scope="session")
def family_a16(params_a):
    return trivial_family(params_a.M, 16)


@pytest.fixture(scope="session")
def params_b():
    return build_params([2, 3], 5)


@pytest.fixture(scope="session")
def scheme_b(params_b):
    return build_scheme(params_b)


@pytest.fixture(scope="session")
def family_b8(params_b):
    return trivial_family(params_b.M, 8)


@pytest.fixture(scope="session")
def family_b2(params_b):
    return trivial_family(params_b.M, 2)
