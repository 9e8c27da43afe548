import math

import numpy as np
import pytest

from shockrefl import (
    GasParams,
    NoCompression,
    NonpositiveDensity,
    VacuumReached,
    ValidationError,
    closure_density,
    ellipticity_margin,
    make_uniform_state,
)


def test_density_trivial_values():
    p = GasParams(1.0, 2.0, 2.0)
    assert closure_density(0.0, 0.0, p) == pytest.approx(1.0, abs=0)
    assert closure_density(1.0, 0.0, p) == pytest.approx(0.5, rel=1e-15)
    assert make_uniform_state(1.0, 0.0, 0.0, p).rho == pytest.approx(0.5, rel=1e-15)


def test_density_against_high_precision_oracle():
    # mpmath evaluation of the closed form at 50 digits, frozen
    p = GasParams(1.2, 2.0, 1.4)
    assert closure_density(0.3, 0.1, p) == pytest.approx(0.9402412554833658, rel=1e-14)
    assert make_uniform_state(math.sqrt(0.3), 0.0, 0.1, p).rho == pytest.approx(0.9402412554833658, rel=1e-14)


def test_density_vacuum_raises():
    """Past vacuum the closure is NaN on a field, and a uniform state raises."""
    p = GasParams(1.0, 2.0, 2.0)
    assert np.isnan(closure_density(10.0, 0.0, p))
    with pytest.raises(VacuumReached):
        make_uniform_state(math.sqrt(10.0), 0.0, 0.0, p)


def test_density_monotone_in_phi_and_gradsq():
    p = GasParams(1.0, 2.0, 1.4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        q2 = rng.uniform(0.0, 0.5)
        phi = rng.uniform(-0.5, 0.5)
        d = closure_density(q2, phi, p)
        assert closure_density(q2 + 1e-3, phi, p) < d
        assert closure_density(q2, phi + 1e-3, p) < d


def test_sound_speed():
    """c = rho^((gamma-1)/2) of the uniform state at rest, whose density is rho0."""
    assert make_uniform_state(0.0, 0.0, 0.0, GasParams(1.0, 2.0, 1.4)).c == 1.0
    assert make_uniform_state(0.0, 0.0, 0.0, GasParams(4.0, 5.0, 3.0)).c == pytest.approx(4.0, rel=1e-15)
    assert make_uniform_state(0.0, 0.0, 0.0, GasParams(2.0, 3.0, 1.4)).c == pytest.approx(
        1.148698354997035, rel=1e-14)
    # rho = 0 (the closure's base exactly 0): no state, so no sound speed
    assert np.isnan(closure_density(0.0, 1.0, GasParams(1.0, 2.0, 2.0)))
    with pytest.raises(VacuumReached):
        make_uniform_state(0.0, 0.0, 1.0, GasParams(1.0, 2.0, 2.0))


def test_ellipticity_margin_values_and_monotonicity():
    p = GasParams(1.0, 2.0, 3.0)
    # at rest at phi = 0: c_star = sqrt(2/(g+1) * rho0^(g-1)) = sqrt(0.5)
    assert ellipticity_margin(np.zeros(2), 0.0, p) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    cstar = math.sqrt(0.5)
    assert ellipticity_margin(np.array([cstar, 0.0]), 0.0, p) == pytest.approx(0.0, abs=1e-15)
    # strictly decreasing in |Dphi| at fixed phi
    speeds = np.linspace(0.0, 0.6, 20)
    margins = [float(ellipticity_margin(np.array([s, 0.0]), 0.1, p)) for s in speeds]
    assert np.all(np.diff(margins) < 0)


def test_uniform_potential_trivial_and_oracle():
    rest = make_uniform_state(0.0, 0.0, 0.0, GasParams(1.0, 2.0, 2.0))
    phi, grad = rest.potential(np.zeros(2)), rest.gradient(np.zeros(2))
    assert phi == 0.0 and np.all(grad == 0.0)
    st = make_uniform_state(1.0, 0.0, 0.0, GasParams(1.0, 2.0, 2.0))
    phi, grad = st.potential(np.array([1.0, 0.0])), st.gradient(np.array([1.0, 0.0]))
    assert phi == pytest.approx(0.5, abs=0) and np.allclose(grad, 0.0)
    # frozen 50-digit evaluation at a random state/point
    st = make_uniform_state(0.37, -0.21, 0.55, GasParams(1.0, 2.0, 1.4))
    phi, grad = st.potential(np.array([1.3, -0.7])), st.gradient(np.array([1.3, -0.7]))
    assert phi == pytest.approx(0.088, rel=1e-14)
    assert np.allclose(grad, [-0.93, 0.49], rtol=1e-14)


def test_uniform_state_density_is_xi_independent():
    p = GasParams(1.0, 2.5, 1.4)
    st = make_uniform_state(0.4, -0.2, 0.1, p)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    phi, grad = st.potential(pts), st.gradient(pts)
    rho = closure_density(np.sum(grad * grad, axis=-1), phi, p)
    assert np.max(np.abs(rho - st.rho)) < 1e-12


def test_gas_params_validation():
    with pytest.raises(NoCompression):
        GasParams(1.0, 1.0, 2.0)
    with pytest.raises(NoCompression):
        GasParams(1.0, 0.5, 2.0)
    with pytest.raises(NonpositiveDensity):
        GasParams(-1.0, 2.0, 2.0)
    with pytest.raises(ValidationError):
        GasParams(1.0, 2.0, 1.0)
    with pytest.raises(ValidationError):
        GasParams(1.0, 2.0, 3.5)
    with pytest.raises(ValidationError):  # not a gas whose algebra overflows
        GasParams(1.0, math.inf, 2.0)
    with pytest.raises(ValidationError):  # rho1^(gamma-1) past the largest double
        GasParams(1.0, 1e200, 3.0)
