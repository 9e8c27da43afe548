import math

import numpy as np
import pytest

from shockrefl import (
    GasParams,
    GraphPropertyLost,
    Regime,
    ShockCurve,
    build_configuration,
    build_square_map,
    initial_shock,
    interior_cone_directions,
    lambda_contains,
    state2_solve,
)


@pytest.fixture(scope="module")
def cfg85(gas_122):
    th = math.radians(85.0)
    return build_configuration(gas_122, th)


def test_lambda_membership_brute_force():
    rng = np.random.default_rng(1)
    for theta in (math.radians(30.0), math.radians(85.0), math.pi / 2.0):
        pts = rng.uniform(-3.0, 3.0, size=(2000, 2))
        got = lambda_contains(pts, theta)
        tan = math.tan(theta) if theta < math.pi / 2 else math.inf
        for p, g in zip(pts, got):
            upper = p[1] > 0
            in_wedge = p[0] > 0 and 0 < p[1] < p[0] * tan
            assert bool(g) == bool(upper and not in_wedge)


def test_configuration_supersonic_invariants(gas_122, cfg85):
    cfg = cfg85
    inc = cfg.incident
    assert cfg.regime is Regime.SUPERSONIC
    # P0 on the wedge boundary at the incident shock
    assert cfg.p0[0] == pytest.approx(inc.xi1_0, rel=1e-14)
    assert cfg.p0[1] == pytest.approx(inc.xi1_0 * math.tan(cfg.theta_w), rel=1e-14)
    # circle-line intersection oracle for P1: on the circle and on S1
    assert np.linalg.norm(cfg.p1 - cfg.sonic_center) == pytest.approx(cfg.sonic_radius, abs=1e-10)
    assert abs(float(cfg.state1.potential(cfg.p1) - cfg.state2.potential(cfg.p1))) < 1e-10
    # P4 on the circle and on the wedge line
    assert np.linalg.norm(cfg.p4 - cfg.sonic_center) == pytest.approx(cfg.sonic_radius, abs=1e-12)
    assert cfg.p4[1] * math.cos(cfg.theta_w) == pytest.approx(cfg.p4[0] * math.sin(cfg.theta_w), abs=1e-12)
    # foot strictly left of the vertex
    assert initial_shock(cfg).points[-1, 0] < -cfg.attach_eps
    # e_S1 oriented with the pseudo-flow at P0
    assert float(cfg.e_s1 @ cfg.state2.gradient(cfg.p0)) > 0.0


def test_configuration_normal_reflection(gas_122):
    cfg = build_configuration(gas_122, math.pi / 2.0)
    assert np.allclose(cfg.sonic_center, 0.0)
    assert cfg.p0[0] == 0.0  # on the vertical wall
    assert cfg.p4[1] == pytest.approx(cfg.sonic_radius, rel=1e-14)
    assert cfg.p1[0] == pytest.approx(initial_shock(cfg).points[-1, 0], rel=1e-14)  # flat vertical shock
    assert cfg.cone_degenerate


def test_configuration_subsonic_collapses_sonic_arc(gas_122):
    th = math.radians(55.0)  # between detachment (54.41) and sonic (55.71)
    cfg = build_configuration(gas_122, th)
    assert cfg.regime in (Regime.SUBSONIC_NEAR_SONIC, Regime.SUBSONIC_AWAY)
    assert np.allclose(cfg.p1, cfg.p0)
    assert np.allclose(cfg.p4, cfg.p0)
    assert not cfg.has_sonic_arc


def test_cone_directions(gas_122, cfg85):
    assert not cfg85.cone_degenerate
    # closed form: e_S1 = -(v2, u1-u2)/|.|
    inc_u1 = math.sqrt(2.0 / 3.0)
    weak = state2_solve(gas_122, math.radians(85.0)).weak
    vec = -np.array([weak.v, inc_u1 - weak.u])
    vec /= np.linalg.norm(vec)
    assert np.allclose(cfg85.e_s1, vec, atol=1e-13)
    # degenerate at pi/2: the same formula gives the vertical direction, and the
    # flag is derived from state (2) at rest
    cfg90 = build_configuration(gas_122, math.pi / 2.0)
    assert cfg90.cone_degenerate and cfg90.state2.v == 0.0
    assert np.array_equal(cfg90.e_s1, [0.0, -1.0])


def test_interior_cone_directions_are_interior(gas_122, cfg85):
    dirs = interior_cone_directions(cfg85.e_s1)
    assert len(dirs) == 2
    for d in dirs:
        assert np.linalg.norm(d) == pytest.approx(1.0, rel=1e-14)
        # strictly between the edges: positive cross products against both
        c1 = cfg85.e_s1[0] * d[1] - cfg85.e_s1[1] * d[0]
        c2 = d[0] * 1.0 - d[1] * 0.0  # cross(d, e_xi2)
        assert abs(c1) > 1e-6 and abs(c2) > 1e-6


def test_initial_shock_graph_and_tangency(gas_122, cfg85):
    curve = initial_shock(cfg85)
    t = curve.t_values
    assert np.all(np.diff(t) > 0)
    assert curve.points[-1][1] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(curve.points[0], cfg85.p1)
    # cold-start curve leaves P1 along the straight shock
    d0 = curve.points[1] - curve.points[0]
    d0 /= np.linalg.norm(d0)
    assert float(d0 @ cfg85.e_s1) > 0.999


def test_shock_normals_tangents_and_mesh_side(cfg85):
    """The curve's normals and tangents are an orthonormal pair, the normals
    point into the region, and the curve is the mesh's shock side."""
    shock = initial_shock(cfg85)
    mesh = build_square_map(cfg85, shock, 17, 17)
    nu, tau = shock.normals(), shock.tangents()
    assert np.allclose(np.linalg.norm(nu, axis=1), 1.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(tau, axis=1), 1.0, atol=1e-14)
    assert np.max(np.abs((nu * tau).sum(-1))) < 1e-14
    # on the mesh's shock row, each normal points toward the next row in
    nu_row = shock.normals(t=mesh.nodes[0] @ shock.e_perp)
    inward = (nu_row * (mesh.nodes[1] - mesh.nodes[0])).sum(-1)
    assert np.all(inward[1:-1] > 0.0)
    # the Coons blend reproduces its shock side up to roundoff
    assert np.allclose(mesh.nodes[0], shock.eval(mesh.grid.w)[0], rtol=0.0, atol=1e-14)


def test_shock_curve_graph_violation_raises():
    pts = np.array([[0.0, 2.0], [0.3, 1.0], [-0.4, 0.5], [0.0, 0.2], [0.0, 0.0]])
    curve = ShockCurve(
        e=np.array([-1.0, 0.0]),
        points=pts,
        tau_p1=np.array([0.0, -1.0]),
        tau_p2=np.array([0.0, 1.0]),
    )
    with pytest.raises(GraphPropertyLost):
        curve.check_graph(tol=1e-9)


def test_reflected_extension_is_c1_at_foot(gas_122, sol85_n65):
    """Mirror the converged shock across the axis: slope jump at the foot is small."""
    pts = sol85_n65.shock.points
    a, b = pts[-2], pts[-3]
    # tangent direction at the foot estimated from the two nodes above it
    tang = a - pts[-1]
    tang /= np.linalg.norm(tang)
    # a C1 reflected extension needs a vertical tangent at the foot
    assert abs(tang[0]) < 0.08
