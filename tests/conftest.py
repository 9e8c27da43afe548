import math

import pytest

from shockrefl import GasParams, IterationParams, fixed_point_solve


@pytest.fixture(scope="session")
def gas_122():
    return GasParams(rho0=1.0, rho1=2.0, gamma=2.0)


@pytest.fixture(scope="session")
def iter_n65():
    return IterationParams(n1=65, n2=65)


@pytest.fixture(scope="session")
def sol_normal65(gas_122, iter_n65):
    return fixed_point_solve(gas_122, math.pi / 2.0, iter_n65)


@pytest.fixture(scope="session")
def sol85_n65(gas_122, iter_n65, sol_normal65):
    """Converged 85-degree solution at 65x65, warm-started down from 90."""
    sol = sol_normal65
    for deg in (89.0, 87.0, 85.0):
        sol = fixed_point_solve(gas_122, math.radians(deg), iter_n65, init=sol)
    return sol
