"""The manufactured solution shared by the solver tests and the acceptance
suite: phi = 0.1 sin(xi1) cos(xi2) - 1, with its gradient and Hessian."""

import numpy as np

from shockrefl import MMSProblem


def _phi(x):
    return 0.1 * np.sin(x[..., 0]) * np.cos(x[..., 1]) - 1.0


def _grad(x):
    g = np.empty(x.shape)
    g[..., 0] = 0.1 * np.cos(x[..., 0]) * np.cos(x[..., 1])
    g[..., 1] = -0.1 * np.sin(x[..., 0]) * np.sin(x[..., 1])
    return g


def _hess(x):
    h = np.empty(x.shape[:-1] + (2, 2))
    s0, c0 = np.sin(x[..., 0]), np.cos(x[..., 0])
    s1, c1 = np.sin(x[..., 1]), np.cos(x[..., 1])
    h[..., 0, 0] = -0.1 * s0 * c1
    h[..., 0, 1] = -0.1 * c0 * s1
    h[..., 1, 0] = -0.1 * c0 * s1
    h[..., 1, 1] = -0.1 * s0 * c1
    return h


SINE_MMS = MMSProblem(phi=_phi, grad=_grad, hess=_hess)
