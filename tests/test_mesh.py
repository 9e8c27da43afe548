import dataclasses
import math

import numpy as np
import pytest

from shockrefl import (
    FoldedMesh,
    GasParams,
    build_configuration,
    build_square_map,
    initial_shock,
    quad_map,
)


@pytest.fixture(scope="module")
def mesh85(gas_122):
    th = math.radians(85.0)
    cfg = build_configuration(gas_122, th)
    return cfg, build_square_map(cfg, initial_shock(cfg), 33, 33)


def test_sides_land_on_boundary_curves(gas_122, mesh85):
    cfg, sm = mesh85
    th = cfg.theta_w
    # wedge side on the wedge line, symmetry side on the axis
    assert np.abs(sm.nodes[-1, :, 1] * math.cos(th) - sm.nodes[-1, :, 0] * math.sin(th)).max() < 1e-12
    assert np.abs(sm.nodes[:, 0, 1]).max() < 1e-12
    # sonic side on the circle
    r = np.linalg.norm(sm.nodes[:, -1, :] - cfg.sonic_center, axis=-1)
    assert np.abs(r - cfg.sonic_radius).max() < 1e-12
    # corners
    assert np.allclose(sm.nodes[0, -1], cfg.p1)
    assert np.allclose(sm.nodes[-1, -1], cfg.p4)
    assert np.allclose(sm.nodes[-1, 0], cfg.p3)


def test_rectangle_map_is_affine():
    sm = quad_map([-1.2, 0.0], [0.0, 0.0], [0.0, 1.3], [-1.2, 1.3], 9, 11)
    aa, ww = np.meshgrid(sm.grid.a, sm.grid.w, indexing="ij")
    assert np.allclose(sm.nodes[..., 0], -1.2 * (1.0 - aa))
    assert np.allclose(sm.nodes[..., 1], 1.3 * ww)
    assert np.ptp(sm.jac) < 1e-14


def test_normal_reflection_domain_map(gas_122):
    """The pi/2 domain: vertical strip capped by the rest-state sonic arc."""
    cfg = build_configuration(gas_122, math.pi / 2.0)
    sm = build_square_map(cfg, initial_shock(cfg), 17, 17)
    assert np.abs(sm.nodes[0, :, 0] - cfg.p1[0]).max() < 1e-12  # flat shock side
    r = np.linalg.norm(sm.nodes[:, -1, :], axis=-1)
    assert np.abs(r - cfg.sonic_radius).max() < 1e-12


def test_interpolant_exact_on_linear_fields(mesh85):
    """The piecewise-linear interpolant reproduces a linear field at interior
    off-node points, and is NaN outside the nodes' hull."""
    _, sm = mesh85
    rng = np.random.default_rng(11)
    a, w = rng.uniform(0.02, 0.98, size=(2, 32))
    pts = sm.coons.eval(a, w)[0]

    def linear(xy):
        return 0.3 + 1.7 * xy[..., 0] - 0.9 * xy[..., 1]

    interp = sm.interpolant(linear(sm.nodes).ravel())
    exact = linear(pts)
    assert np.abs(interp(pts) - exact).max() <= 1e-12 * np.abs(exact).max()
    assert np.isnan(interp(sm.nodes.max(axis=(0, 1)) + 1.0))


def test_square_map_is_immutable(mesh85):
    _, sm = mesh85
    with pytest.raises(dataclasses.FrozenInstanceError):
        sm.nodes = sm.nodes + 1.0
    for arr in (sm.nodes, sm.xa, sm.xw, sm.jac):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def test_gradient_exact_on_affine_rectangle(gas_122):
    sm = quad_map([-1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 1.0], 13, 15, stretch="sqrt")
    from shockrefl.gas import make_uniform_state

    st = make_uniform_state(0.2, -0.1, 0.3, gas_122)
    phi = st.potential(sm.nodes)
    grad = sm.gradient(phi)
    assert np.abs(grad - st.gradient(sm.nodes)).max() < 1e-11


def test_gradient_second_order_on_curved_mesh(gas_122):
    th = math.radians(85.0)
    cfg = build_configuration(gas_122, th)
    shock = initial_shock(cfg, n=129)
    errs = []
    for n in (33, 65, 129):
        sm = build_square_map(cfg, shock, n, n)
        phi = cfg.state2.potential(sm.nodes)
        errs.append(float(np.abs(sm.gradient(phi) - cfg.state2.gradient(sm.nodes)).max()))
    assert errs[2] < errs[0] / 3.0  # converging under refinement


@pytest.mark.parametrize("deg", [85.0, 55.0])
def test_gradient_operators_match_node_metric(gas_122, deg):
    """gradient is the (a, w) stencil through the inverse metric, with a
    collapsed sonic row extrapolated from the two rows below."""
    th = math.radians(deg)
    cfg = build_configuration(gas_122, th)
    sm = build_square_map(cfg, initial_shock(cfg), 17, 15)
    phi = cfg.state2.potential(sm.nodes) + 0.1 * np.sin(3.0 * sm.nodes[..., 0])
    pa = (sm.grid.Da_n @ phi.ravel()).reshape(phi.shape)
    pw = (sm.grid.Dw_n @ phi.ravel()).reshape(phi.shape)
    jac = np.where(sm.jac != 0.0, sm.jac, 1.0)
    ref = np.stack([sm.xw[..., 1] * pa - sm.xa[..., 1] * pw, sm.xa[..., 0] * pw - sm.xw[..., 0] * pa], -1)
    ref /= jac[..., None]
    if sm.degenerate_sonic:
        ref[:, -1] = 2.0 * ref[:, -2] - ref[:, -3]
    grad = sm.gradient(phi)
    assert np.abs(grad - ref).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("deg", [85.0, 55.0])
def test_map_derivatives_match_central_differences(gas_122, deg):
    """The derivatives that CoonsMap.eval and each side's eval return with
    their points are the derivatives of those points: central differences
    agree at interior samples, with a sonic arc (85 deg) and with the sonic
    side collapsed to P0 (55 deg)."""
    cfg = build_configuration(gas_122, math.radians(deg))
    sm = build_square_map(cfg, initial_shock(cfg), 17, 17)
    assert sm.degenerate_sonic == (deg == 55.0)
    coons, h = sm.coons, 1e-5
    a, w = np.random.default_rng(5).uniform(0.05, 0.95, size=(2, 9))
    tol = 1e-8 * max(1.0, float(np.abs(sm.nodes).max()))
    _, xa, xw = coons.eval(a, w)
    fd_a = (coons.eval(a + h, w)[0] - coons.eval(a - h, w)[0]) / (2.0 * h)
    fd_w = (coons.eval(a, w + h)[0] - coons.eval(a, w - h)[0]) / (2.0 * h)
    assert np.abs(fd_a - xa).max() < tol
    assert np.abs(fd_w - xw).max() < tol
    for side in (coons.shock, coons.wedge, coons.sym, coons.sonic):
        _, dx = side.eval(a)
        assert np.abs((side.eval(a + h)[0] - side.eval(a - h)[0]) / (2.0 * h) - dx).max() < tol


def test_folded_mesh_detected():
    # crossed quadrilateral: p4 and p1 swapped horizontally
    with pytest.raises(FoldedMesh):
        quad_map([0.0, 0.0], [1.0, 0.0], [-0.2, 1.0], [1.2, 1.0], 9, 9)


def test_boundary_polyline_closed(mesh85):
    _, sm = mesh85
    poly = sm.boundary_polyline()
    assert np.allclose(poly[0], poly[-1]) or np.linalg.norm(poly[0] - poly[-1]) < 2.0
    # no duplicated consecutive points
    seg = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    assert np.all(seg > 0)


def test_collapsed_sonic_side_subsonic(gas_122):
    th = math.radians(55.0)
    cfg = build_configuration(gas_122, th)
    sm = build_square_map(cfg, initial_shock(cfg), 17, 17)
    assert sm.degenerate_sonic
    assert np.abs(sm.nodes[:, -1, :] - cfg.p0).max() < 1e-12
