"""Thermodynamics and pseudo-potential algebra for polytropic potential flow.

All quantities are nondimensional with the polytropic scaling p = rho^gamma / gamma,
so the sound speed closure is c^2 = rho^(gamma-1).  In self-similar coordinates
xi = x/t the pseudo-potential of a uniform (constant) state is

    phi(xi) = -|xi|^2/2 + u*xi1 + v*xi2 + k,

and the density anywhere follows from the Bernoulli closure

    rho = (rho0^(gamma-1) - (gamma-1)*(phi + |Dphi|^2/2))^(1/(gamma-1)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCompression, NonpositiveDensity, VacuumReached, ValidationError

GAMMA_RANGE = (1.0, 3.0)


@dataclass(frozen=True)
class GasParams:
    """Upstream data: densities of states (0) and (1) and the adiabatic exponent.

    gamma outside (1, 3] is rejected (powers become ill-conditioned there).
    """

    rho0: float
    rho1: float
    gamma: float

    def __post_init__(self):
        if not self.rho0 > 0.0:
            raise NonpositiveDensity(f"rho0 must be positive, got {self.rho0}")
        if not self.rho1 > self.rho0:
            raise NoCompression(
                f"need rho1 > rho0 across the incident shock, got rho1={self.rho1}, rho0={self.rho0}"
            )
        if not np.isfinite([self.rho0, self.rho1]).all():
            raise ValidationError(f"densities must be finite, got rho0={self.rho0}, rho1={self.rho1}")
        if not self.gamma > GAMMA_RANGE[0]:
            raise ValidationError(f"gamma must exceed 1, got {self.gamma}")
        if self.gamma > GAMMA_RANGE[1]:
            raise ValidationError(f"gamma={self.gamma} outside ({GAMMA_RANGE[0]}, {GAMMA_RANGE[1]}]")
        try:  # rho1^(g-1), the largest power of a density in the incident algebra
            math.pow(self.rho1, self.gamma - 1.0)
        except OverflowError:
            raise ValidationError(f"rho1^(gamma-1) overflows at rho1={self.rho1}, gamma={self.gamma}") from None

    @property
    def rho0_pow(self):
        """rho0^(gamma-1), the constant in the density closure."""
        return self.rho0 ** (self.gamma - 1.0)

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


def bernoulli_base(grad_sq, phi, params):
    """rho0^(g-1) - (g-1)*(phi + grad_sq/2) = rho^(g-1), nonpositive at vacuum."""
    return params.rho0_pow - (params.gamma - 1.0) * (np.asarray(phi) + 0.5 * np.asarray(grad_sq))


def closure_density(grad_sq, phi, params):
    """Density of the Bernoulli closure on any field, NaN where the base is
    nonpositive (past vacuum), with no warning and no error."""
    base = bernoulli_base(grad_sq, phi, params)
    return np.where(base > 0.0, np.abs(base) ** (1.0 / (params.gamma - 1.0)), np.nan)


def ellipticity_margin(grad, phi, params):
    """Margin c_star(phi, gamma) - |Dphi| of the mixed-type equation.

    The equation is strictly elliptic at a state iff the margin is positive,
    with c_star = sqrt((2/(gamma+1)) * (rho0^(g-1) - (g-1)*phi)); the margin
    is NaN where that argument is negative (past vacuum), with no warning.

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
    return np.sqrt(np.where(arg >= 0.0, arg, np.nan)) - speed


def make_uniform_state(u, v, k, params):
    """Construct a UniformState with rho, c from the Bernoulli closure.

    For a uniform state phi + |Dphi|^2/2 = k + (u^2+v^2)/2 independently of xi,
    so the density is a well-defined constant.
    """
    rho = float(closure_density(u * u + v * v, k, params))
    if not rho > 0.0:
        raise VacuumReached(f"uniform state ({u}, {v}, {k}) is past vacuum")
    # c = rho^((g-1)/2) as a 0-d array power: a float power moves c by an ulp on some (rho, g)
    c = float(np.asarray(rho) ** ((params.gamma - 1.0) / 2.0))
    return UniformState(u=float(u), v=float(v), k=float(k), rho=rho, c=c)
