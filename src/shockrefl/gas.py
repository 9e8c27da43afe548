"""Thermodynamics and pseudo-potential algebra for polytropic potential flow.

All quantities are nondimensional with the polytropic scaling p = rho^gamma / gamma,
so the sound speed closure is c^2 = rho^(gamma-1).  In self-similar coordinates
xi = x/t the pseudo-potential of a uniform (constant) state is

    phi(xi) = -|xi|^2/2 + u*xi1 + v*xi2 + k,

and the density anywhere follows from the Bernoulli closure

    rho = (rho0^(gamma-1) - (gamma-1)*(phi + |Dphi|^2/2))^(1/(gamma-1)).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoCompression, NonpositiveDensity, VacuumReached, ValidationError

GAMMA_RANGE = (1.0, 3.0)


@dataclass(frozen=True)
class GasParams:
    """Upstream data: densities of states (0) and (1) and the adiabatic exponent.

    The Bernoulli constant is derived so that rho0^(gamma-1) = (gamma-1)*B0 + 1
    holds by construction.  gamma outside (1, 3] is rejected unless
    ``allow_wide_gamma`` is set (powers become ill-conditioned there).
    """

    rho0: float
    rho1: float
    gamma: float
    allow_wide_gamma: bool = False

    def __post_init__(self):
        if not self.rho0 > 0.0:
            raise NonpositiveDensity(f"rho0 must be positive, got {self.rho0}")
        if not self.rho1 > self.rho0:
            raise NoCompression(
                f"need rho1 > rho0 across the incident shock, got rho1={self.rho1}, rho0={self.rho0}"
            )
        if not self.gamma > GAMMA_RANGE[0]:
            raise ValidationError(f"gamma must exceed 1, got {self.gamma}")
        if self.gamma > GAMMA_RANGE[1] and not self.allow_wide_gamma:
            raise ValidationError(
                f"gamma={self.gamma} outside ({GAMMA_RANGE[0]}, {GAMMA_RANGE[1]}]; "
                "pass allow_wide_gamma=True to override"
            )

    @property
    def bernoulli(self):
        """B0 = (rho0^(gamma-1) - 1)/(gamma-1)."""
        return (self.rho0 ** (self.gamma - 1.0) - 1.0) / (self.gamma - 1.0)

    @property
    def rho0_pow(self):
        """rho0^(gamma-1), the constant in the density closure."""
        return self.rho0 ** (self.gamma - 1.0)

    @property
    def c0(self):
        """Sound speed of state (0)."""
        return self.rho0 ** ((self.gamma - 1.0) / 2.0)

    @property
    def c1(self):
        """Sound speed of state (1)."""
        return self.rho1 ** ((self.gamma - 1.0) / 2.0)


@dataclass(frozen=True)
class UniformState:
    """A constant state: velocity (u, v), potential constant k, density, sound speed.

    Build through :func:`make_uniform_state` so that rho and c are consistent
    with the Bernoulli closure; the dataclass itself stores plain numbers.
    """

    u: float
    v: float
    k: float
    rho: float
    c: float

    def potential(self, xi):
        """Pseudo-potential phi(xi) = -|xi|^2/2 + u*xi1 + v*xi2 + k.

        xi may be a point of shape (2,) or an array of points (..., 2).
        """
        xi = np.asarray(xi, dtype=float)
        x1, x2 = xi[..., 0], xi[..., 1]
        return -0.5 * (x1 * x1 + x2 * x2) + self.u * x1 + self.v * x2 + self.k

    def gradient(self, xi):
        """Pseudo-velocity Dphi(xi) = (u - xi1, v - xi2), shape (..., 2)."""
        xi = np.asarray(xi, dtype=float)
        out = np.empty_like(xi)
        out[..., 0] = self.u - xi[..., 0]
        out[..., 1] = self.v - xi[..., 1]
        return out

    @property
    def velocity(self):
        return np.array([self.u, self.v])


def bernoulli_base(grad_sq, phi, params):
    """rho0^(g-1) - (g-1)*(phi + grad_sq/2) = rho^(g-1), nonpositive at vacuum."""
    return params.rho0_pow - (params.gamma - 1.0) * (np.asarray(phi) + 0.5 * np.asarray(grad_sq))


def density(grad_sq, phi, params):
    """Density from the Bernoulli closure.

    Parameters
    ----------
    grad_sq : float or ndarray
        |Dphi|^2 at the evaluation point(s).
    phi : float or ndarray
        Pseudo-potential value(s).
    params : GasParams

    Returns
    -------
    float or ndarray
        (rho0^(g-1) - (g-1)*(phi + grad_sq/2))^(1/(g-1)).

    Raises
    ------
    VacuumReached
        If the base of the power is negative anywhere.  Vacuum is treated as
        an error, never clamped: admissible solutions stay away from it, so a
        negative base always signals solver divergence.
    """
    base = bernoulli_base(grad_sq, phi, params)
    if np.any(base < 0.0):
        worst = float(np.min(base))
        raise VacuumReached(f"density closure base negative (min {worst:.3e})")
    return base ** (1.0 / (params.gamma - 1.0))


def sound_speed(rho, params):
    """c = rho^((gamma-1)/2); raises NonpositiveDensity for rho <= 0."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise NonpositiveDensity("sound speed needs rho > 0")
    return rho ** ((params.gamma - 1.0) / 2.0)


def ellipticity_margin(grad, phi, params):
    """Margin c_star(phi, gamma) - |Dphi| of the mixed-type equation.

    The equation is strictly elliptic at a state iff the margin is positive,
    with c_star = sqrt((2/(gamma+1)) * (rho0^(g-1) - (g-1)*phi)).

    Parameters
    ----------
    grad : array_like
        Gradient vector(s) Dphi, shape (2,) or (..., 2).
    phi : float or ndarray
        Pseudo-potential value(s).
    params : GasParams
    """
    g = params.gamma
    grad = np.asarray(grad, dtype=float)
    speed = np.sqrt(np.sum(grad * grad, axis=-1))
    arg = (2.0 / (g + 1.0)) * (params.rho0_pow - (g - 1.0) * np.asarray(phi))
    if np.any(arg < 0.0):
        raise VacuumReached("c_star argument negative: past vacuum")
    return np.sqrt(arg) - speed


def uniform_potential(state, xi):
    """Evaluate (phi, Dphi) of a uniform state at xi; xi of shape (2,) or (..., 2)."""
    return state.potential(xi), state.gradient(xi)


def make_uniform_state(u, v, k, params):
    """Construct a UniformState with rho, c from the Bernoulli closure.

    For a uniform state phi + |Dphi|^2/2 = k + (u^2+v^2)/2 independently of xi,
    so the density is a well-defined constant.
    """
    rho = float(density(u * u + v * v, k, params))
    if rho <= 0.0:
        raise NonpositiveDensity(f"uniform state has rho={rho}")
    return UniformState(u=float(u), v=float(v), k=float(k), rho=rho, c=float(sound_speed(rho, params)))
