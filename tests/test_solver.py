import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from shockrefl import (
    GasParams,
    IterationParams,
    ShockCurve,
    build_configuration,
    build_square_map,
    initial_shock,
    quad_map,
    rh_residual,
    solve_bvp,
    update_shock,
)
from shockrefl import solver
from shockrefl.errors import (
    AttachedShockDetected,
    EllipticityLost,
    GraphPropertyLost,
    NoConvergence,
    VacuumReached,
    ValidationError,
)
from shockrefl.gas import bernoulli_base
from shockrefl.relations import state1
from shockrefl.admissibility import full_report
from shockrefl.mesh import CoonsMap, Segment, _assemble_map, sonic_extension
from shockrefl.archive import read_solution, write_solution
from shockrefl.solver import (
    _Discretization,
    capped_density,
    fixed_point_solve,
    quasi_newton_model,
)
from manufactured import SINE_MMS


def test_scheme_exact_on_uniform_state_rectangle(gas_122):
    """Constant states solve the equation exactly; the conservative scheme
    must reproduce them to machine precision on affine cells."""
    cfg = build_configuration(gas_122, math.pi / 2.0)
    rest = cfg.state2
    xbar = cfg.p1[0]
    height = cfg.p1[1]
    sm = quad_map([xbar, 0.0], [0.0, 0.0], [0.0, height], [xbar, height], 17, 19)
    disc = _Discretization(sm)
    phi = rest.potential(sm.nodes)
    grad = sm.gradient(phi)
    rho, active = capped_density(phi, grad, gas_122, np.ones_like(phi))
    assert not active.any()
    A = disc.assemble(rho)
    c = -2.0 * rho.ravel() * disc.volw
    c[: sm.n2] += disc.flux_line("a", 0.0, lambda pts: (cfg.state1.rho, cfg.state1.gradient(pts)))
    r = (A @ phi.ravel() - c).reshape(17, 19)
    r[:, -1] = 0.0
    assert np.abs(r).max() < 1e-12


def test_solve_bvp_recovers_uniform_state_on_rectangle(gas_122, narrow_band):
    cfg = build_configuration(gas_122, math.pi / 2.0)
    rest = cfg.state2
    xbar = cfg.p1[0]
    # stay a hair below the sonic corner so the Mach cap is inactive and the
    # run is a pure exactness check of the discrete scheme
    height = cfg.p1[1] * (1.0 - 1e-6)
    sm = quad_map([xbar, 0.0], [0.0, 0.0], [0.0, height], [xbar, height], 17, 19)
    phi_exact = rest.potential(sm.nodes)
    # a tolerance below the residual's rounding error ends at the computed
    # floor, flagged as stalled, not in NoConvergence
    for lin_tol, stalled in ((1e-12, False), (1e-16, True)):
        ip = IterationParams(n1=17, n2=19, lin_tol=lin_tol)
        phi, info = solve_bvp(cfg, sm, phi_exact + 0.01, ip)
        assert np.abs(phi - phi_exact).max() < 1e-8
        assert info["stalled"] == stalled and info["residual"] < 1e-11


def _dense(disc, band):
    """The n x n matrix held in the grid's LAPACK band storage of the Jacobian:
    entry (r, c) in row kl + ku + r - c of column c; rows 0..kl-1 are LU room."""
    kl, ku = disc.grid.kl, disc.grid.ku
    n = band.shape[1]
    r, c = np.indices((n, n))
    inside = (c - r <= ku) & (r - c <= kl)
    dense = np.zeros((n, n))
    dense[inside] = band[(kl + ku + r - c)[inside], c[inside]]
    return dense


@pytest.mark.parametrize("deg, n1, n2", [(85.0, 13, 11), (55.0, 11, 12)])
def test_newton_jacobian_matches_central_differences(gas_122, deg, n1, n2):
    """The exact Jacobian agrees with central differences of the residual on a
    curved reflection mesh and on a collapsed-sonic (subsonic) mesh, both with
    some cap-active nodes; Dirichlet rows are the identity."""
    th = math.radians(deg)
    cfg = build_configuration(gas_122, th)
    mesh = build_square_map(cfg, initial_shock(cfg), n1, n2)
    assert mesh.degenerate_sonic == (deg < 60.0)
    disc, cap, dirichlet_vals, rhs = solver._bvp_data(cfg, mesh, None)
    phi = cfg.state2.potential(mesh.nodes) + 0.02 * np.random.default_rng(1).standard_normal((n1, n2))
    phi[:, -1] = dirichlet_vals
    lin = solver._residual(disc, phi, gas_122, cap, rhs)
    assert lin.active.any() and not lin.active.all()
    J = _dense(disc, solver._jacobian(disc, lin, cap, gas_122.gamma))
    h = 1e-6
    fd = np.empty_like(J)
    for k in range(phi.size):
        e = np.zeros(phi.size)
        e[k] = h
        e = e.reshape(phi.shape)
        fd[:, k] = (solver._residual(disc, phi + e, gas_122, cap, rhs).r
                    - solver._residual(disc, phi - e, gas_122, cap, rhs).r) / (2.0 * h)
    rows = disc.grid.dir_rows
    fd[rows] = 0.0
    fd[rows, rows] = 1.0
    assert np.abs(J - fd).max() <= 1e-6 * np.abs(fd).max()


def _jacobian_product_form(disc, lin, cap, gamma):
    """The Newton Jacobian built term by term from sparse operators: the grid's,
    and the mesh's gradient operators Gk = E (diag(c[k, 0]) Da_n + diag(c[k, 1]) Dw_n)."""
    g = disc.grid
    x = lin.phi.ravel()
    fa = g.ew_face_a * (disc.g11_f * (g.Da_f @ x) + disc.g12_f * (g.AaDw @ x))
    fw = g.ea_face_w * (disc.g21_g * (g.AwDa @ x) + disc.g22_g * (g.Dw_f @ x))
    dr_drho = g.Div_a @ sp.diags(fa) @ g.Aa_f + g.Div_w @ sp.diags(fw) @ g.Aw_f + sp.diags(2.0 * disc.volw)
    active = lin.active.ravel()
    slope = -lin.rho.ravel() ** (2.0 - gamma) / np.where(active, 1.0 + 0.5 * (gamma - 1.0) * cap.ravel(), 1.0)
    grad = np.where(active[:, None], 0.0, lin.grad.reshape(-1, 2))
    mesh = disc.mesh
    ext = sonic_extension(mesh.n1, mesh.n2) if mesh.degenerate_sonic else sp.identity(x.size)
    gx, gy = (ext @ (sp.diags(ca) @ mesh.grid.Da_n + sp.diags(cw) @ mesh.grid.Dw_n)
              for ca, cw in mesh.stencil_coefficients)
    drho = sp.diags(slope) @ (sp.identity(x.size) + sp.diags(grad[:, 0]) @ gx + sp.diags(grad[:, 1]) @ gy)
    return sp.diags(g.interior) @ (lin.A + dr_drho @ drho) + sp.diags(1.0 - g.interior)


def _noisy_field(gas, deg, n1, n2):
    """(cfg, mesh, BVP data, phi) at `deg` with a phi off state (2) by noise
    that fades toward the sonic side, so that part of a collapsed sonic row,
    whose gradient is extrapolated, stays off the cap."""
    cfg = build_configuration(gas, math.radians(deg))
    mesh = build_square_map(cfg, initial_shock(cfg), n1, n2)
    disc, cap, dirichlet_vals, rhs = solver._bvp_data(cfg, mesh, None)
    noise = np.random.default_rng(1).standard_normal((n1, n2)) * (1.0 - mesh.grid.w) ** 2
    phi = cfg.state2.potential(mesh.nodes) + 0.02 * noise
    phi[:, -1] = dirichlet_vals
    return cfg, mesh, disc, cap, rhs, phi


@pytest.mark.parametrize("deg, n1, n2", [(85.0, 13, 11), (55.0, 11, 12)])
def test_fixed_pattern_jacobian_matches_product_form(gas_122, deg, n1, n2):
    """The Jacobian gathered into its fixed pattern and band storage equals
    the sparse-product form on a curved and on a collapsed-sonic mesh with
    cap-active nodes, its Dirichlet rows are the identity's, and the band's
    LU room is zero."""
    cfg, mesh, disc, cap, rhs, phi = _noisy_field(gas_122, deg, n1, n2)
    lin = solver._residual(disc, phi, gas_122, cap, rhs)
    assert lin.active.any() and not lin.active.all()
    assert not (mesh.degenerate_sonic and lin.active[:, -1].all())
    band = solver._jacobian(disc, lin, cap, gas_122.gamma)
    J = _dense(disc, band)
    ref = _jacobian_product_form(disc, lin, cap, gas_122.gamma).toarray()
    assert np.abs(J - ref).max() <= 1e-13 * np.abs(ref).max()
    rows = disc.grid.dir_rows
    assert np.array_equal(J[rows], np.eye(phi.size)[rows])
    assert band.shape == (2 * disc.grid.kl + disc.grid.ku + 1, phi.size)
    assert np.all(band[: disc.grid.kl] == 0.0)


@pytest.mark.parametrize("deg", [85.0, 55.0])
def test_newton_band_lu_solves_like_splu(gas_122, monkeypatch, deg):
    """The Newton step of solve_bvp, a LAPACK band LU of J with half-widths
    2 n2 + 1 in the natural node order, solves J s = -r to roundoff and
    agrees with splu's step, on a curved and on a collapsed-sonic 33^2 mesh
    with cap-active nodes."""
    cfg, mesh, disc, cap, rhs, phi = _noisy_field(gas_122, deg, 33, 33)
    assert mesh.degenerate_sonic == (deg < 60.0)
    lin = solver._residual(disc, phi, gas_122, cap, rhs)
    assert lin.active.any() and not lin.active.all()
    calls = []

    class Captured(Exception):
        pass

    def capture(band, kl, ku, **options):
        calls.append((band.copy(order="F"), kl, ku))
        raise Captured

    monkeypatch.setattr(solver, "lapack", SimpleNamespace(dgbtrf=capture))
    with pytest.raises(Captured):
        solve_bvp(cfg, mesh, phi, IterationParams(n1=33, n2=33))
    band, kl, ku = calls[0]
    assert kl == ku == 2 * 33 + 1
    J = _dense(disc, band)
    lu, piv, info = lapack.dgbtrf(band, kl, ku)
    step, info_solve = lapack.dgbtrs(lu, kl, ku, -lin.r, piv)
    assert info == info_solve == 0
    ref = spla.splu(sp.csc_matrix(J)).solve(-lin.r)
    assert np.linalg.norm(J @ step + lin.r) <= 1e-12 * np.linalg.norm(lin.r)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


def _rest_rectangle(gas, height=1.0 - 1e-6):
    """The 90-degree configuration and a 9^2 rectangle from the wall to the
    reflected shock, `height` times the sonic corner's height tall, with a
    start 0.01 off the rest state that solves the BVP on it exactly."""
    cfg = build_configuration(gas, math.pi / 2.0)
    xbar, top = cfg.p1[0], cfg.p1[1] * height
    sm = quad_map([xbar, 0.0], [0.0, 0.0], [0.0, top], [xbar, top], 9, 9)
    return cfg, sm, cfg.state2.potential(sm.nodes) + 0.01


_RECTANGLE_PARAMS = IterationParams(n1=9, n2=9)


@pytest.fixture
def narrow_band(monkeypatch):
    """A cutoff band 1e-9 sonic radii wide: on the rest-state rectangles the
    Mach cap is then 1 at every node, and active only where Mach^2 > 1."""
    monkeypatch.setattr(solver, "CUTOFF_WIDTH", 1e-9)


def test_singular_newton_factor_raises_no_convergence(gas_122, monkeypatch, narrow_band):
    """A zero pivot in the band LU (dgbtrf's info > 0) ends solve_bvp with
    the typed NoConvergence."""
    cfg, sm, start = _rest_rectangle(gas_122)

    def singular(band, kl, ku, **options):
        return band, np.zeros(band.shape[1], dtype=np.int32), 5

    monkeypatch.setattr(solver, "lapack", SimpleNamespace(dgbtrf=singular))
    with pytest.raises(NoConvergence, match="zero pivot"):
        solve_bvp(cfg, sm, start, _RECTANGLE_PARAMS)


def test_newton_step_limit_raises_no_convergence(gas_122, monkeypatch, narrow_band):
    """A residual still above tolerance after MAX_NEWTON steps is NoConvergence."""
    cfg, sm, start = _rest_rectangle(gas_122)
    monkeypatch.setattr(solver, "MAX_NEWTON", 0)
    with pytest.raises(NoConvergence, match="Newton at relative residual"):
        solve_bvp(cfg, sm, start, _RECTANGLE_PARAMS)


def test_line_search_with_every_trial_past_vacuum_raises_vacuum_reached(gas_122, monkeypatch, narrow_band):
    """When every trial step of a line search reaches vacuum, solve_bvp
    raises the last VacuumReached; the first residual, at the start, is real."""
    cfg, sm, start = _rest_rectangle(gas_122)
    calls = []

    def vacuum_after_start(phi, grad, params, cap):
        calls.append(1)
        if len(calls) > 1:
            raise VacuumReached("trial past vacuum")
        return capped_density(phi, grad, params, cap)

    monkeypatch.setattr(solver, "capped_density", vacuum_after_start)
    with pytest.raises(VacuumReached, match="trial past vacuum"):
        solve_bvp(cfg, sm, start, _RECTANGLE_PARAMS)
    assert len(calls) == 1 + solver.MAX_HALVINGS + 1


def test_line_search_without_decrease_raises_no_convergence(gas_122, monkeypatch, narrow_band):
    """An Armijo fraction no trial can meet (1 - ARMIJO t < 0 down to the
    last halving) ends the line search in NoConvergence."""
    cfg, sm, start = _rest_rectangle(gas_122)
    monkeypatch.setattr(solver, "ARMIJO", 2.0 ** (solver.MAX_HALVINGS + 1))
    with pytest.raises(NoConvergence, match="line search: no decrease"):
        solve_bvp(cfg, sm, start, _RECTANGLE_PARAMS)


def test_supersonic_solution_outside_the_cutoff_band_raises_ellipticity_lost(gas_122, narrow_band):
    """On a rectangle 1.2 times as tall as the sonic corner the rest state is
    supersonic beyond the sonic circle, far outside a 1e-9 wide cutoff band:
    the Mach cap is active there at the solution, with Mach^2 about 1.19."""
    cfg, sm, start = _rest_rectangle(gas_122, height=1.2)
    with pytest.raises(EllipticityLost, match=r"Mach\^2 = 1\.1"):
        solve_bvp(cfg, sm, start, _RECTANGLE_PARAMS)


def test_collapsed_sonic_row_gets_zero_metric(gas_122):
    """With integer corners x_a is exactly 0 on a collapsed sonic side, so the
    face Jacobian there is 0: those faces get metric 0, and the operators
    and the Jacobian stay finite."""
    n1, n2 = 9, 10
    p2, p3, p0 = np.array([-2.0, 0.0]), np.array([0.0, 0.0]), np.array([0.0, 2.0])
    coons = CoonsMap(Segment(p2, p0), Segment(p3, p0), Segment(p2, p3), Segment(p0, p0), (p2, p3, p0, p0))
    mesh = _assemble_map(coons, n1, n2, "sqrt", degenerate=True)
    assert np.all(mesh.xa[:, -1] == 0.0) and np.all(mesh.jac[:, -1] == 0.0)
    x, y = mesh.nodes[..., 0], mesh.nodes[..., 1]
    phi = -1.0 + 0.1 * x - 0.05 * y * y
    cap = np.full((n1, n2), 0.98)
    with np.errstate(all="raise"):
        disc = _Discretization(mesh)
        lin = solver._residual(disc, phi, gas_122, cap, lambda rho: -2.0 * rho.ravel() * disc.volw)
        floor = solver._roundoff_floor(disc, lin)
        J = solver._jacobian(disc, lin, cap, gas_122.gamma)
    for metric in (disc.g11_f, disc.g12_f):
        assert np.all(metric.reshape(n1 - 1, n2)[:, -1] == 0.0)
    assert np.all(np.isfinite(lin.r)) and np.isfinite(floor) and np.all(np.isfinite(_dense(disc, J)))


def test_first_bvp_after_an_angle_step_is_warm(gas_122, monkeypatch):
    """The first BVP of the 33^2 step 90 -> 89 deg starts from the 90-degree
    field's deviation from its state-(2) potential and needs few Newton
    steps; newton_steps sums the steps of every BVP of the solve."""
    infos = []
    unrecorded = solver.solve_bvp

    def recording(*args, **kwargs):
        phi, info = unrecorded(*args, **kwargs)
        infos.append(info)
        return phi, info

    monkeypatch.setattr(solver, "solve_bvp", recording)
    ip = IterationParams(n1=33, n2=33)
    sol = fixed_point_solve(gas_122, math.radians(89.0), ip, init=fixed_point_solve(gas_122, math.pi / 2.0, ip))
    assert infos[0]["newton_iters"] <= 5
    assert sol.metadata["newton_steps"] == sum(info["newton_iters"] for info in infos)
    assert all(info["residual_evals"] >= info["newton_iters"] for info in infos)


def _product_form(disc, rho):
    """A assembled term by term as products of the grid's sparse operators."""
    g = disc.grid
    ca = g.ew_face_a * (g.Aa_f @ rho.ravel())
    cw = g.ea_face_w * (g.Aw_f @ rho.ravel())
    return (
        g.Div_a @ sp.diags(ca * disc.g11_f) @ g.Da_f
        + g.Div_a @ sp.diags(ca * disc.g12_f) @ g.AaDw
        + g.Div_w @ sp.diags(cw * disc.g21_g) @ g.AwDa
        + g.Div_w @ sp.diags(cw * disc.g22_g) @ g.Dw_f
    )


def test_fixed_pattern_assembly_matches_product_form(gas_122):
    th = math.radians(80.0)
    cfg = build_configuration(gas_122, th)
    meshes = [
        build_square_map(cfg, initial_shock(cfg), 21, 17),
        quad_map([-1.0, 0.0], [0.2, 0.1], [0.1, 1.1], [-0.9, 1.3], 13, 16, stretch="sqrt"),
    ]
    rng = np.random.default_rng(3)
    for mesh in meshes:
        disc = _Discretization(mesh)
        rho = 0.5 + rng.random((mesh.n1, mesh.n2))
        A = disc.assemble(rho)
        ref = _product_form(disc, rho)
        assert sp.isspmatrix_csr(A) and A.shape == ref.shape
        assert abs(A - ref).max() <= 1e-12 * abs(ref).max()


def test_grid_structure_shared_but_metric_per_mesh(gas_122):
    """Meshes of one logical grid share the grid structure, never the metric."""
    th = math.radians(85.0)
    cfg = build_configuration(gas_122, th)
    shock = initial_shock(cfg)
    pts = shock.points.copy()
    tau = np.linspace(0.0, 1.0, len(pts))
    pts += (0.05 * np.sin(math.pi * tau))[:, None] * shock.e[None, :]
    bumped = ShockCurve(e=shock.e, points=pts, tau_p1=shock.tau_p1, tau_p2=shock.tau_p2)
    mesh1 = build_square_map(cfg, shock, 25, 25)
    mesh2 = build_square_map(cfg, bumped, 25, 25)
    phi = cfg.state2.potential(mesh1.nodes) + 0.1 * mesh1.nodes[..., 0] ** 2
    disc1 = _Discretization(mesh1)
    grad1 = mesh1.gradient(phi)
    disc2 = _Discretization(mesh2)
    assert disc1.grid is disc2.grid
    assert np.abs(disc1.g11_f - disc2.g11_f).max() > 1e-3
    assert np.abs(disc1.volw - disc2.volw).max() > 1e-6
    assert np.abs(mesh1.gradient(phi) - mesh2.gradient(phi)).max() > 1e-3
    # building the second mesh's operators left the first one's untouched,
    # and they match a build from an empty cache
    solver._grid_structure.cache_clear()
    fresh = _Discretization(mesh1)
    assert fresh.grid is not disc1.grid
    for name in ("g11_f", "g12_f", "g21_g", "g22_g", "volw"):
        assert np.array_equal(getattr(disc1, name), getattr(fresh, name))
    assert np.array_equal(mesh1.gradient(phi), grad1)
    rho = np.ones((25, 25))
    assert (disc1.assemble(rho) != fresh.assemble(rho)).nnz == 0
    # the shared arrays cannot be written through any one mesh
    with pytest.raises(ValueError):
        disc1.grid.indices[0] = 0
    with pytest.raises(ValueError):
        mesh1.grid.Da_n.data[0] = 0.0


def test_conservation_identity_on_blocks(gas_122, sol85_n65):
    """Flux balance over sub-blocks equals the volume term (discrete identity)."""
    sol = sol85_n65
    mesh = sol.mesh
    disc = _Discretization(mesh)
    grad = mesh.gradient(sol.phi)
    from shockrefl.solver import _mach_cap

    cap = _mach_cap(sol.config, mesh.nodes)
    rho, _ = capped_density(sol.phi, grad, gas_122, cap)
    A = disc.assemble(rho)
    c = -2.0 * rho.ravel() * disc.volw
    s1 = sol.config.state1
    c[: mesh.n2] += disc.flux_line("a", 0.0, lambda pts: (s1.rho, s1.gradient(pts)))
    r = (A @ sol.phi.ravel() - c).reshape(mesh.n1, mesh.n2)
    # interior residual itself is tiny at convergence; summing any interior
    # block telescopes interior fluxes so the identity is inherited
    block = r[10:40, 10:40]
    assert abs(block.sum()) < 1e-7


def test_normal_reflection_exactness_and_rh(gas_122):
    sol = fixed_point_solve(gas_122, math.pi / 2.0, IterationParams(n1=33, n2=33))
    rest = sol.config.state2
    assert np.abs(sol.phi - rest.potential(sol.mesh.nodes)).max() == 0.0
    # flat vertical shock satisfies the RH pair at any height
    s1 = state1(gas_122)
    xbar = sol.shock.points[0, 0]
    for y in (0.1, 0.5, 1.2):
        m, p = rh_residual(s1, rest, np.array([xbar, y]), np.array([1.0, 0.0]))
        assert abs(m) < 1e-12 and abs(p) < 1e-12
    assert rest.rho > gas_122.rho1


def test_update_shock_fixed_point_and_flatness(gas_122):
    sol = fixed_point_solve(gas_122, math.pi / 2.0, IterationParams(n1=33, n2=33))
    curve, info = update_shock(sol.phi, sol.config, sol.shock, mesh=sol.mesh)
    assert info["movement"] < 1e-12
    # flat shock stays flat
    assert np.ptp(curve.points[:, 0]) < 1e-12


def test_update_shock_contracts_after_perturbation(gas_122, sol85_n65):
    """Displace the converged shock outward; the update must move it back."""
    sol = sol85_n65
    delta = 0.02
    e = sol.shock.e
    pts = sol.shock.points.copy()
    # smooth outward bump (in arclength, not index) vanishing at the endpoints
    t = sol.shock.t_values
    tau = (t - t[0]) / (t[-1] - t[0])
    pts += (delta * np.sin(math.pi * tau))[:, None] * e[None, :]
    from shockrefl import ShockCurve, build_square_map

    shock_pert = ShockCurve(e=e, points=pts, tau_p1=sol.shock.tau_p1, tau_p2=sol.shock.tau_p2)
    cfg = sol.config
    mesh = build_square_map(cfg, shock_pert, 65, 65)
    ip = IterationParams(n1=65, n2=65)
    phi, _ = solve_bvp(cfg, mesh, cfg.state2.potential(mesh.nodes), ip)
    curve, info = update_shock(phi, cfg, shock_pert, mesh=mesh)
    # compare distance to the converged shock before and after one update
    t_ref = sol.shock.t_values
    f_ref, _ = sol.shock.graph_value(t_ref)
    f_pert, _ = shock_pert.graph_value(t_ref)
    f_new, _ = curve.graph_value(t_ref)
    sl = slice(3, -3)
    before = np.abs(f_pert - f_ref)[sl].max()
    after = np.abs(f_new - f_ref)[sl].max()
    # one unrelaxed update contracts at roughly the outer-iteration rate
    assert after < 0.85 * before


def _step(x, r, earlier, prior=None):
    """The step of update_shock from x with residual r: -B r, B the
    quasi_newton_model of the earlier iterates and (x, r)."""
    return -(quasi_newton_model([*earlier, (x, r)], prior) @ r)


def test_quasi_newton_step_solves_affine_map():
    """On G(x) = Mx + b in m = 8 dimensions with spectral radius 1.5, the
    IQN-ILS step over the full history reaches x* in m + 1 steps, where
    plain iteration x <- G(x) diverges."""
    m = 8
    rng = np.random.default_rng(1)
    p = np.eye(m) + 0.3 * rng.standard_normal((m, m))
    mat = p @ np.diag(np.linspace(-1.5, 0.9, m)) @ np.linalg.inv(p)
    b = rng.standard_normal(m)
    assert abs(np.max(np.abs(np.linalg.eigvals(mat))) - 1.5) < 1e-12
    x_star = np.linalg.solve(np.eye(m) - mat, b)
    x, earlier = np.zeros(m), []
    plain = np.zeros(m)
    for _ in range(m + 1):
        r = mat @ x + b - x
        step = _step(x, r, earlier)
        earlier.append((x, r))
        x = x + step
        plain = mat @ plain + b
    assert np.abs(x - x_star).max() < 1e-10
    assert np.abs(plain - x_star).max() > 2.0 * np.abs(x_star).max()


def _affine_map(m, seed, shift=0.0):
    """(M, b) of G(x) = M x + b in m dimensions, M's eigenvalues spread over
    [-1.5, 0.9] less shift, and its fixed point x*."""
    rng = np.random.default_rng(seed)
    p = np.eye(m) + 0.3 * rng.standard_normal((m, m))
    mat = p @ np.diag(np.linspace(-1.5, 0.9, m) - shift) @ np.linalg.inv(p)
    b = rng.standard_normal(m)
    return mat, b, np.linalg.solve(np.eye(m) - mat, b)


def test_quasi_newton_step_with_the_identity_prior_is_the_iqn_ils_step():
    """prior None gives the step of the explicit B = -I bit for bit, and that
    step is r + W c with W = V + dX and c = lstsq(V, -r) up to rounding (the
    model goes through pinv, not lstsq: at most 7.3e-15 of max |step| on
    these histories, and exact with no history), on random histories of every
    length."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        n, k = rng.integers(2, 20), rng.integers(0, 8)
        x, r = rng.standard_normal(n), rng.standard_normal(n)
        earlier = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(k)]
        want = r
        if earlier:
            v = np.column_stack([r - ri for _, ri in earlier])
            w = v + np.column_stack([x - xi for xi, _ in earlier])
            want = r + w @ np.linalg.lstsq(v, -r, rcond=None)[0]
        step = _step(x, r, earlier)
        assert np.array_equal(step, _step(x, r, earlier, -np.eye(n)))
        assert np.abs(step - want).max() <= 5e-14 * np.abs(want).max()
        assert earlier or np.array_equal(step, want)


def test_quasi_newton_step_with_the_exact_inverse_jacobian_lands_on_the_fixed_point():
    """With the inverse Jacobian (M - I)^-1 of r(x) = G(x) - x as its prior,
    one step reaches x*, with no history and with one of three iterates of
    the same map."""
    m = 8
    mat, b, x_star = _affine_map(m, 1)
    exact = np.linalg.inv(mat - np.eye(m))
    x = np.zeros(m)
    earlier = [(xi, mat @ xi + b - xi) for xi in np.random.default_rng(5).standard_normal((3, m))]
    for history in ([], earlier):
        step = _step(x, mat @ x + b - x, history, exact)
        assert np.abs(x + step - x_star).max() < 1e-12


def test_carried_quasi_newton_model_saves_steps_on_a_family_of_affine_maps():
    """On ten affine maps whose eigenvalues shift by 0.02 from one to the
    next, each solved from the last one's fixed point, starting each from the
    model of the last step of the one before takes fewer steps in all
    than starting each from the identity prior, to the same fixed points."""
    m = 8

    def solve(mat, b, x, prior):
        earlier = []
        for steps in range(1, 41):
            r = mat @ x + b - x
            earlier.append((x, r))
            model = quasi_newton_model(earlier, prior)
            step = -(model @ r)
            x = x + step
            if np.abs(step).max() < 1e-10:
                return steps, x, model
        pytest.fail("no convergence in 40 steps")

    totals = {}
    for carry in (False, True):
        x, model, totals[carry] = np.zeros(m), None, 0
        for k in range(10):
            mat, b, x_star = _affine_map(m, 2, shift=0.02 * k)
            steps, x, new = solve(mat, b, x, model)
            model = new if carry else None
            totals[carry] += steps
            assert np.abs(x - x_star).max() < 1e-8
    assert totals[True] < totals[False]


def test_shock_offsets_invert_shock_from_offsets(gas_122):
    """u -> shock -> u is the identity, and the shock runs from the foot
    (u[0], 0) to P1 with its nodes at the chord fractions w in T."""
    config = build_configuration(gas_122, math.radians(80.0))
    w = solver.logical_grid(33, 33, "sqrt").w
    rng = np.random.default_rng(3)
    u = np.r_[-1.2, 0.02 * np.sin(math.pi * w[1:-1]) + 1e-3 * rng.standard_normal(31)]
    shock = solver.shock_from_offsets(config, u, w)
    assert np.array_equal(shock.points[0], config.p1) and shock.points[-1, 1] == 0.0
    assert np.max(np.abs(solver.shock_offsets(shock.points[::-1], w, shock.e) - u)) < 1e-13
    t = shock.t_values[::-1]
    assert np.max(np.abs(t - (t[0] + w * (t[-1] - t[0])))) < 1e-13


def test_update_shock_iterate_is_the_shock_unknown(gas_122, sol85_n65):
    """The quasi-Newton iterate is (u, r) in the shock unknown: n2 - 1 entries,
    the foot's xi1 first."""
    sol = sol85_n65
    _, info = update_shock(sol.phi, sol.config, sol.shock, sol.mesh)
    u, r = info["iterate"]
    assert u.shape == r.shape == (sol.mesh.n2 - 1,)
    assert u[0] == pytest.approx(sol.shock.points[-1, 0], abs=1e-15)
    assert np.max(np.abs(r)) < 1e-6


def _still_trace(monkeypatch, pts):
    """Make update_shock read a shock row at pts on which phi = phi1 with
    equal gradients: the plain map moves no interior node."""
    grad = np.zeros_like(pts)
    monkeypatch.setattr(solver, "shock_trace", lambda config, mesh, phi: (pts, grad, np.zeros(len(pts)), grad))


def test_foot_closure_through_nodes_of_equal_height_raises_graph_property_lost(sol85_n65, monkeypatch):
    """The vertical-tangency closure has no parabola through two nodes at
    one height: GraphPropertyLost, not a division by zero."""
    sol = sol85_n65
    pts = sol.mesh.nodes[0].copy()
    pts[2, 1] = pts[1, 1]
    _still_trace(monkeypatch, pts)
    with pytest.raises(GraphPropertyLost, match="coincident node heights"):
        update_shock(sol.phi, sol.config, sol.shock, sol.mesh)


def test_shock_row_out_of_order_in_t_raises_graph_property_lost(sol85_n65, monkeypatch):
    """Moved nodes that are not in decreasing T from the foot to P1 are no
    graph over T: GraphPropertyLost before any resampling."""
    sol = sol85_n65
    pts = sol.mesh.nodes[0].copy()
    pts[[4, 5]] = pts[[5, 4]]
    _still_trace(monkeypatch, pts)
    with pytest.raises(GraphPropertyLost, match="passed the node above it in T"):
        update_shock(sol.phi, sol.config, sol.shock, sol.mesh)


def test_quasi_newton_step_onto_the_vertex_raises_attached_shock(sol85_n65):
    """With one earlier iterate (x0, 0), a zero of the residual, the IQN step
    lands on x0; an x0 whose foot is the wedge vertex is an attached shock."""
    sol = sol85_n65
    _, info = update_shock(sol.phi, sol.config, sol.shock, sol.mesh)
    x0 = info["iterate"][0].copy()
    x0[0] = 0.0
    with pytest.raises(AttachedShockDetected, match="reached the wedge vertex"):
        update_shock(sol.phi, sol.config, sol.shock, sol.mesh, earlier=[(x0, np.zeros_like(x0))])


def _plain_map_residual(phi, config, shock, mesh):
    """Reference of update_shock's residual r in u, with the closed-form
    displacement computed node by node in a loop."""
    e, ep, w = shock.e, shock.e_perp, mesh.grid.w
    pts, grad, dphi, grad1 = solver.shock_trace(config, mesh, phi)
    dge = (grad - grad1) @ e
    s_cap = 0.2 * config.sonic_radius
    moved = pts.copy()
    for j in range(1, len(pts) - 1):
        b, c = dge[j], dphi[j]
        if abs(b) < 1e-14 and abs(c) < 1e-14:
            continue
        disc = b * b - 2.0 * c
        if disc >= 0.0 and b > 0.0:
            s = -b + math.sqrt(disc)
        elif abs(b) > 1e-14:
            s = -c / b
        else:
            s = 0.0
        moved[j] += max(-s_cap, min(s_cap, s)) * e
    moved[-1] = config.p1
    (xa, ya), (xb, yb) = moved[1], moved[2]
    moved[0] = (xa - (xb - xa) / (yb * yb - ya * ya) * ya * ya, 0.0)
    t = moved @ ep
    t_new = t[0] + w * (t[-1] - t[0])
    s_new = np.interp(t_new, t[::-1], (moved @ e)[::-1])
    resampled = s_new[:, None] * e + t_new[:, None] * ep
    return solver.shock_offsets(resampled, w, e) - solver.shock_offsets(pts, w, e)


def test_update_shock_residual_matches_the_loop_reference(gas_122):
    """The vectorized closed-form displacement gives the loop's residual bit
    for bit.  The first update of a cold start at 75 degrees on 33^2 takes
    both branches of the displacement and clips 3 nodes to s_cap."""
    ip = IterationParams(n1=33, n2=33)
    config = build_configuration(gas_122, math.radians(75.0))
    shock = initial_shock(config)
    mesh = build_square_map(config, shock, 33, 33)
    phi, _ = solve_bvp(config, mesh, config.state2.potential(mesh.nodes), ip)
    _, info = update_shock(phi, config, shock, mesh)
    assert np.array_equal(info["iterate"][1], _plain_map_residual(phi, config, shock, mesh))


def test_every_mesh_of_a_solve_has_its_shock_row_on_the_shock_nodes(gas_122, monkeypatch):
    """In every outer iteration of an 85-degree solve at 33^2 the shock's
    nodes sit at T_foot + w_j (T_P1 - T_foot) and are the mesh's shock row,
    so no quasi-Newton column compares the shock at shifted nodes; the warm
    start from the exact 90-degree member is its straight chord (d = 0)."""
    ip = IterationParams(n1=33, n2=33)
    init = fixed_point_solve(gas_122, math.pi / 2.0, ip)
    shocks = []

    def build(config, shock, n1, n2):
        mesh = build_square_map(config, shock, n1, n2)
        shocks.append((shock, mesh))
        return mesh

    monkeypatch.setattr(solver, "build_square_map", build)
    sol = fixed_point_solve(gas_122, math.radians(85.0), ip, init=init)
    assert len(shocks) == sol.metadata["outer_iterations"] + 1
    w = solver.logical_grid(33, 33, "sqrt").w
    for shock, mesh in shocks:
        t = shock.t_values[::-1]
        assert np.max(np.abs(t - (t[0] + w * (t[-1] - t[0])))) < 1e-13
        assert np.max(np.abs(mesh.nodes[0] - shock.points[::-1])) < 1e-13
    start = shocks[0][0]
    u = solver.shock_offsets(start.points[::-1], w, start.e)
    assert u[0] == init.shock.points[-1, 0] and np.max(np.abs(u[1:])) < 1e-13


def test_shock_step_clip_carries_a_cold_start_at_75_degrees(gas_122):
    """The 0.2 sonic-radius clip on the plain shock displacement stays: it
    clips the first steps of a cold solve at 75 degrees on 33^2, which lose
    the graph's slope bounds (GraphPropertyLost) without it."""
    sol = fixed_point_solve(gas_122, math.radians(75.0), IterationParams(n1=33, n2=33))
    assert sol.metadata["converged"] and sol.metadata["outer_iterations"] <= 30


def test_fixed_point_at_right_angle_returns_exact(gas_122):
    ip = IterationParams(n1=33, n2=33)
    sol = fixed_point_solve(gas_122, math.pi / 2.0, ip)
    assert sol.metadata["exact"]
    outer, movement, _ = sol.residual_history[0]
    assert outer == 1 and movement < 1e-8


def test_mms_convergence_small():
    """Manufactured smooth solution on the 85-degree geometry, two levels."""
    gas = GasParams(1.0, 2.0, 2.0)
    th = math.radians(85.0)
    cfg = build_configuration(gas, th)
    shock = initial_shock(cfg, n=129)
    mms = SINE_MMS
    errs = []
    for n in (17, 33):
        ip = IterationParams(n1=n, n2=n, lin_tol=1e-11)
        mesh = build_square_map(cfg, shock, n, n)
        phi, _ = solve_bvp(cfg, mesh, mms.phi(mesh.nodes), ip, mms=mms)
        errs.append(float(np.abs(phi - mms.phi(mesh.nodes)).max()))
    assert errs[1] < errs[0] / 2.5


def test_solver_invariants_on_converged_run(gas_122, sol85_n65):
    sol = sol85_n65
    meta = sol.metadata
    assert meta["converged"]
    assert meta["interior_residual"] < 1e-8
    assert meta["cap_outside_band"] == 0
    # RH potential continuity after convergence
    assert meta["rh_potential_max"] < 1e-4
    # pinching of the converged field (grid tolerance checked by admissibility)
    nodes = sol.mesh.nodes
    assert np.all(sol.phi <= sol.config.state1.potential(nodes) + 0.05)
    assert np.all(sol.phi >= sol.config.state2.potential(nodes) - 0.05)
    # no-vacuum at every node
    g = gas_122.gamma
    grad = sol.gradient()
    base = gas_122.rho0_pow - (g - 1) * (sol.phi + 0.5 * (grad * grad).sum(-1))
    assert np.all(base > 0.0)


def test_sweep_distances_computed_on_first_use(gas_122, monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "c1_family_distance", lambda a, b: calls.append(1) or 0.5)
    grid = [math.pi / 2.0, math.radians(89.5), math.radians(89.0)]
    sweep = solver.continuation_sweep(gas_122, grid, IterationParams(n1=17, n2=17))
    assert sweep.status == "completed" and not calls
    assert sweep.distances == [0.5, 0.5] and len(calls) == 2
    assert sweep.distances == [0.5, 0.5] and len(calls) == 2  # cached, not recomputed


def test_sweep_records_no_bridges_on_the_family33_grid(gas_122):
    """The 33^2 sweep from 90 to 76 degrees in 1-degree steps takes every
    step whole, so it records no bridge."""
    grid = [math.pi / 2.0] + [math.radians(d) for d in range(89, 75, -1)]
    sweep = solver.continuation_sweep(gas_122, grid, IterationParams(n1=33, n2=33))
    assert sweep.status == "completed" and len(sweep.members) == 15
    assert sweep.bridges == []


def test_sweep_start_must_be_the_normal_reflection_angle(gas_122):
    """A start that fixed_point_solve would not treat as pi/2 is refused."""
    start = math.pi / 2.0 - 5e-13
    with pytest.raises(ValidationError):
        solver.continuation_sweep(gas_122, [start, math.radians(89.0)],
                                  IterationParams(n1=17, n2=17))


@pytest.mark.parametrize("degs", [
    pytest.param([], id="empty"),
    pytest.param([89.0, 88.0], id="not_at_90"),
    pytest.param([90.0, 89.0, 89.0], id="not_decreasing"),
    pytest.param([90.0, 88.0, 89.0], id="rising"),
    pytest.param([90.0, math.nan], id="nan_end"),
    pytest.param([90.0, math.degrees(1.5), math.nan, math.degrees(1.4)], id="nan_inside"),
])
def test_sweep_grid_checks_raise_validation_error(gas_122, monkeypatch, degs):
    """A grid that is empty, holds a non-finite angle, does not start at
    pi/2 or does not decrease is refused before any solve (NaN fails every
    comparison, so the decrease check alone lets it through)."""
    monkeypatch.setattr(solver, "fixed_point_solve", lambda *a, **k: pytest.fail("solved"))
    grid = [math.pi / 2.0 if d == 90.0 else math.radians(d) for d in degs]
    with pytest.raises(ValidationError):
        solver.continuation_sweep(gas_122, grid, IterationParams(n1=17, n2=17))


def _recorded_solve(gas, monkeypatch, ip):
    """fixed_point_solve at 89 deg from the exact 90-degree member, with the
    lin_tol of every solve_bvp call and the number of shock updates."""
    init = fixed_point_solve(gas, math.pi / 2.0, ip)
    tols, updates = [], []
    unrecorded_bvp, unrecorded_update = solver.solve_bvp, solver.update_shock

    def bvp(config, mesh, phi_init, iter_params):
        tols.append(iter_params.lin_tol)
        return unrecorded_bvp(config, mesh, phi_init, iter_params)

    def update(*args, **kwargs):
        updates.append(1)
        return unrecorded_update(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_bvp", bvp)
    monkeypatch.setattr(solver, "update_shock", update)
    try:
        return fixed_point_solve(gas, math.radians(89.0), ip, init=init), tols, len(updates)
    except NoConvergence as exc:
        return exc, tols, len(updates)


def test_fixed_point_solve_ends_with_one_solve_at_lin_tol(gas_122, monkeypatch):
    """Each pass solves the BVP once; the pass after convergence solves at
    lin_tol and updates no shock, and each earlier pass only as accurately as
    the last shock movement asks."""
    ip = IterationParams(n1=17, n2=17)
    sol, tols, updates = _recorded_solve(gas_122, monkeypatch, ip)
    outer = sol.metadata["outer_iterations"]
    assert len(tols) == outer + 1 and updates == outer == len(sol.residual_history)
    movements = [math.inf] + [movement for _, movement, _ in sol.residual_history[:-1]]
    assert tols[:-1] == [max(ip.lin_tol, min(1e-5, 1e-3 * m)) for m in movements]
    assert tols[-1] == ip.lin_tol


def test_fixed_point_solve_gives_up_after_max_outer_without_a_further_solve(gas_122, monkeypatch):
    monkeypatch.setattr(solver, "MAX_OUTER", 2)
    ip = IterationParams(n1=17, n2=17, tol_fixed_point=1e-12)
    exc, tols, updates = _recorded_solve(gas_122, monkeypatch, ip)
    assert isinstance(exc, NoConvergence) and "after 2 outer iterations" in str(exc)
    assert len(tols) == 2 and updates == 2


def test_iteration_params_reject_invalid_grids_and_cutoff():
    """The solver settings are the grid and the tolerances; the cutoff band and
    the outer cap are module constants, not fields."""
    assert [f.name for f in fields(IterationParams)] == ["n1", "n2", "tol_fixed_point", "lin_tol"]
    for gone in ("cutoff_width", "max_outer"):
        with pytest.raises(TypeError):
            IterationParams(**{gone: 1})
    IterationParams(n1=3, n2=5, tol_fixed_point=1e-12, lin_tol=1e-14)
    IterationParams(n1=np.int64(17), n2=np.int32(17))
    bad_values = [{"n1": 2}, {"n2": 4}]
    bad_values += [{name: 17.0} for name in ("n1", "n2")]
    for name in ("tol_fixed_point", "lin_tol"):
        bad_values += [{name: v} for v in (0.0, -1.0, math.nan, math.inf, -math.inf)]
    # a bool is not a number, though Python compares it as one
    bad_values += [{name: True} for name in ("n1", "n2", "tol_fixed_point", "lin_tol")]
    for bad in bad_values:
        with pytest.raises(ValidationError):
            IterationParams(**bad)


@pytest.fixture(scope="module")
def sweep33_to85(gas_122):
    """The 33^2 sweep 90 -> 85 degrees in 1-degree steps."""
    grid = [math.pi / 2.0] + [math.radians(d) for d in (89, 88, 87, 86, 85)]
    sweep = solver.continuation_sweep(gas_122, grid, IterationParams(n1=33, n2=33))
    assert sweep.status == "completed" and sweep.bridges == []
    return sweep


def test_solve_record_describes_the_returned_shock(sweep33_to85):
    """rh_potential_max and rh_mass_max are the RH residuals on the shock,
    mesh and field a solve returns: for the exact 90 degree member, whose
    shock has 65 samples on the 33^2 mesh, and for a swept member."""
    for sol in (sweep33_to85.members[0], sweep33_to85.members[-1]):
        s1, gamma = sol.config.state1, sol.config.params.gamma
        pts = sol.mesh.nodes[0]
        grad = sol.mesh.gradient(sol.phi)[0]
        nu = sol.shock.normals(t=pts @ sol.shock.e_perp)
        rho = bernoulli_base((grad * grad).sum(-1), sol.phi[0], sol.config.params) ** (1.0 / (gamma - 1.0))
        mass = rho * (grad * nu).sum(-1) - s1.rho * (s1.gradient(pts) * nu).sum(-1)
        assert sol.metadata["rh_potential_max"] == float(np.max(np.abs(sol.phi[0] - s1.potential(pts))))
        assert sol.metadata["rh_mass_max"] == float(np.max(np.abs(mass)))
    assert len(sweep33_to85.members[0].shock.points) == 65


def test_sweep_starts_the_secant_at_the_second_step(gas_122, sweep33_to85):
    """Only the first step after 90 degrees starts from the last member alone,
    so 89 degrees is bit-identical to a solve warm-started from the exact
    normal reflection; every later step is a secant prediction, the one
    through the exact member included."""
    members = sweep33_to85.members
    assert [m.metadata.get("predictor") for m in members] == [None, "transport"] + ["secant"] * 4
    sol = members[1]
    alone = fixed_point_solve(gas_122, sol.theta_w, IterationParams(n1=33, n2=33), init=members[0])
    assert np.array_equal(alone.shock.points, sol.shock.points)
    assert np.array_equal(alone.phi, sol.phi)
    assert alone.metadata["outer_iterations"] == sol.metadata["outer_iterations"]


def test_secant_predictor_saves_outer_iterations(gas_122, sweep33_to85):
    """With the outer model held fixed (the identity prior on both sides),
    each secant prediction, 88 degrees (predicted through the exact normal
    reflection) included, takes fewer outer iterations than a solve
    warm-started from the member before it alone, and the sweep's member
    lands on the same solution within the benchmark reference's tolerances
    (30 tol in the shock, 60 tol in phi)."""
    ip = IterationParams(n1=33, n2=33)
    members = sweep33_to85.members
    for before, prev, sol in zip(members, members[1:], members[2:]):
        assert sol.metadata["predictor"] == "secant"
        start = replace(solver._secant_start(before, prev, sol.theta_w), inverse_jacobian=None)
        secant = fixed_point_solve(gas_122, sol.theta_w, ip, init=start)
        alone = fixed_point_solve(gas_122, sol.theta_w, ip, init=replace(prev, inverse_jacobian=None))
        assert secant.metadata["outer_model"] == alone.metadata["outer_model"] == "identity"
        assert secant.metadata["outer_iterations"] < alone.metadata["outer_iterations"]
        assert secant.metadata["warm_start_gap"] < alone.metadata["warm_start_gap"]
        assert np.max(np.abs(sol.shock.points - alone.shock.points)) <= 30 * ip.tol_fixed_point
        assert np.max(np.abs(sol.phi - alone.phi)) <= 60 * ip.tol_fixed_point


def test_sweep_carries_the_outer_model_after_89_degrees(gas_122, sweep33_to85, tmp_path):
    """The exact member and the first step from it start from the identity
    prior; every later member carries the model of the member before it,
    which records it in meta.json.  The archive does not keep the model, so a
    solve warm-started from a read_solution member starts from the identity."""
    members = sweep33_to85.members
    assert [m.metadata["outer_model"] for m in members] == ["identity"] * 2 + ["carried"] * 4
    assert members[0].inverse_jacobian is None
    assert all(m.inverse_jacobian.shape == (32, 32) for m in members[1:])
    write_solution(members[-1], str(tmp_path / "m85"))
    back, tampered = read_solution(str(tmp_path / "m85"))
    assert not tampered and back.metadata["outer_model"] == "carried" and back.inverse_jacobian is None
    ip = IterationParams(n1=33, n2=33)
    assert fixed_point_solve(gas_122, math.radians(84.0), ip, init=back).metadata["outer_model"] == "identity"
    assert fixed_point_solve(gas_122, math.radians(84.0), ip, init=members[-1]).metadata["outer_model"] == "carried"


def test_a_model_of_another_logical_grid_is_not_carried(gas_122, sweep33_to85):
    """A warm start whose model has another size than n2 - 1 (another logical
    grid) starts from the identity prior."""
    sol = fixed_point_solve(gas_122, math.radians(84.0), IterationParams(n1=17, n2=17), init=sweep33_to85.members[-1])
    assert sol.metadata["outer_model"] == "identity" and sol.inverse_jacobian.shape == (16, 16)


def test_a_solve_returns_the_model_of_its_last_shock_update(gas_122, sweep33_to85, monkeypatch):
    """A carried 33^2 solve steps each shock update by -model r bit for bit,
    model the one its info records, and returns the last update's model
    (and shock) as its own."""
    updates = []
    unrecorded = solver.update_shock

    def recording(phi, config, shock, mesh, earlier=(), prior=None):
        curve, info = unrecorded(phi, config, shock, mesh, earlier, prior)
        updates.append((config, mesh.grid.w, curve, info))
        return curve, info

    monkeypatch.setattr(solver, "update_shock", recording)
    sol = fixed_point_solve(gas_122, math.radians(85.0), IterationParams(n1=33, n2=33), init=sweep33_to85.members[-2])
    assert sol.metadata["outer_model"] == "carried" and len(updates) == sol.metadata["outer_iterations"]
    for config, w, curve, info in updates:
        u, r = info["iterate"]
        assert np.array_equal(curve.points, solver.shock_from_offsets(config, u - info["model"] @ r, w).points)
    assert sol.inverse_jacobian is updates[-1][3]["model"] and sol.shock is updates[-1][2]


@pytest.fixture(scope="module")
def sequenced_sweep17(gas_122):
    """The 17^2 sweep 90 -> 87 degrees with COARSE_LEVEL = 9, so every solve
    after 90 degrees is grid-sequenced through 9^2, and the info of every BVP."""
    infos = []
    unrecorded = solver.solve_bvp

    def recording(*args, **kwargs):
        phi, info = unrecorded(*args, **kwargs)
        infos.append(info)
        return phi, info

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "COARSE_LEVEL", 9)
        mp.setattr(solver, "solve_bvp", recording)
        grid = [math.pi / 2.0] + [math.radians(d) for d in (89, 88, 87)]
        sweep = solver.continuation_sweep(gas_122, grid, IterationParams(n1=17, n2=17))
    assert sweep.status == "completed" and sweep.bridges == [] and sweep.restarts == []
    return sweep, infos


def test_grid_sequenced_solves_carry_the_outer_model(sequenced_sweep17):
    """The fine level of a grid-sequenced solve carries the model of the
    member before it, as a solve on its grid alone does; each member's model
    is the fine level's (n2 - 1 rows)."""
    members = sequenced_sweep17[0].members
    assert [m.metadata["outer_model"] for m in members] == ["identity"] * 2 + ["carried"] * 2
    assert all(m.inverse_jacobian.shape == (16, 16) for m in members[1:])


def test_grid_sequenced_solves_count_the_coarse_newton_steps(sequenced_sweep17):
    """newton_steps sums the Newton steps of every BVP of a grid-sequenced
    solve, the coarse level's included."""
    sweep, infos = sequenced_sweep17
    assert sum(m.metadata["newton_steps"] for m in sweep.members) == sum(info["newton_iters"] for info in infos)


def test_sweep_restarts_a_failed_carried_step_without_its_model(gas_122, monkeypatch):
    """A step whose solve fails while it carries an outer model is solved
    once more from the same start with the identity prior, and recorded as a
    restart, not a halving; the next step carries the restarted member's model."""
    real = solver.fixed_point_solve
    starts = []

    def failing_carried(params, theta_w, iter_params=None, init=None):
        if round(math.degrees(theta_w), 9) == 88.0:
            starts.append(init)
            if init.inverse_jacobian is not None:
                raise NoConvergence("injected breakdown")
        return real(params, theta_w, iter_params, init=init)

    monkeypatch.setattr(solver, "fixed_point_solve", failing_carried)
    grid = [math.pi / 2.0] + [math.radians(d) for d in (89.0, 88.0, 87.0)]
    sweep = solver.continuation_sweep(gas_122, grid, IterationParams(n1=17, n2=17))
    assert sweep.status == "completed" and sweep.bridges == []
    assert [(round(math.degrees(t), 9), name) for t, name in sweep.restarts] == [(88.0, "NoConvergence")]
    assert [m.metadata["outer_model"] for m in sweep.members] == ["identity", "identity", "identity", "carried"]
    first, second = starts
    assert second.inverse_jacobian is None and second.shock is first.shock and second.phi is first.phi


def test_multi_start_consistency_cheap(gas_122, sol85_n65):
    """Second warm start from a different angle lands on the same solution."""
    from shockrefl import c1_family_distance

    ip = IterationParams(n1=65, n2=65)
    sol = fixed_point_solve(gas_122, math.pi / 2.0, ip)
    for deg in (88.0, 86.0, 85.0):
        sol = fixed_point_solve(gas_122, math.radians(deg), ip, init=sol)
    d = c1_family_distance(sol, sol85_n65)
    assert d < 5e-4


@pytest.mark.slow
def test_sweep_33_reaches_64_degrees_with_passing_reports(gas_122):
    """At 33^2 the quasi-Newton shock update carries the family from 90 to 64
    degrees in 2-degree steps, and every member's report passes."""
    degs = list(range(88, 63, -2))
    grid = [math.pi / 2.0] + [math.radians(d) for d in degs]
    sweep = solver.continuation_sweep(gas_122, grid, IterationParams(n1=33, n2=33))
    assert sweep.status == "completed", sweep.stop_reason
    assert [round(math.degrees(t), 9) for t in sweep.thetas[1:]] == degs
    failed = [round(math.degrees(s.theta_w)) for s in sweep.members if not full_report(s).verdict]
    assert not failed
