import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from shockrefl import (
    GasParams,
    IterationParams,
    MMSProblem,
    ShockCurve,
    build_configuration,
    build_square_map,
    initial_shock,
    normal_reflection,
    quad_map,
    rh_residual,
    solve_bvp,
    update_shock,
)
from shockrefl import solver
from shockrefl.relations import state1
from shockrefl.admissibility import full_report
from shockrefl.mesh import CoonsMap, Segment, _assemble_map, sonic_extension
from shockrefl.solver import (
    _Discretization,
    capped_density,
    fixed_point_solve,
    quasi_newton_step,
)


def test_scheme_exact_on_uniform_state_rectangle(gas_122):
    """Constant states solve the equation exactly; the conservative scheme
    must reproduce them to machine precision on affine cells."""
    cfg = build_configuration(gas_122, math.pi / 2.0)
    rest = cfg.state2
    xbar = cfg.p2[0]
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


def test_solve_bvp_recovers_uniform_state_on_rectangle(gas_122):
    cfg = build_configuration(gas_122, math.pi / 2.0)
    rest = cfg.state2
    xbar = cfg.p2[0]
    # stay a hair below the sonic corner so the Mach cap is inactive and the
    # run is a pure exactness check of the discrete scheme
    height = cfg.p1[1] * (1.0 - 1e-6)
    sm = quad_map([xbar, 0.0], [0.0, 0.0], [0.0, height], [xbar, height], 17, 19)
    phi_exact = rest.potential(sm.nodes)
    # a tolerance below the residual's rounding error ends at the computed
    # floor, flagged as stalled, not in NoConvergence
    for lin_tol, stalled in ((1e-12, False), (1e-16, True)):
        ip = IterationParams(n1=17, n2=19, lin_tol=lin_tol, cutoff_width=1e-9)
        phi, info = solve_bvp(cfg, sm, phi_exact + 0.01, ip)
        assert np.abs(phi - phi_exact).max() < 1e-8
        assert info["stalled"] == stalled and info["residual"] < 1e-11


@pytest.mark.parametrize("deg, n1, n2", [(85.0, 13, 11), (55.0, 11, 12)])
def test_newton_jacobian_matches_central_differences(gas_122, deg, n1, n2):
    """The exact Jacobian agrees with central differences of the residual on a
    curved reflection mesh and on a collapsed-sonic (subsonic) mesh, both with
    some cap-active nodes; Dirichlet rows are the identity."""
    th = math.radians(deg)
    cfg = build_configuration(gas_122, th)
    mesh = build_square_map(cfg, initial_shock(cfg), n1, n2)
    assert mesh.degenerate_sonic == (deg < 60.0)
    disc, cap, dirichlet_vals, rhs = solver._bvp_data(cfg, mesh, IterationParams(n1=n1, n2=n2), None)
    phi = cfg.state2.potential(mesh.nodes) + 0.02 * np.random.default_rng(1).standard_normal((n1, n2))
    phi[:, -1] = dirichlet_vals
    lin = solver._residual(disc, phi, gas_122, cap, rhs)
    assert lin.active.any() and not lin.active.all()
    J = solver._jacobian(disc, lin, cap, gas_122.gamma).toarray()
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
    disc, cap, dirichlet_vals, rhs = solver._bvp_data(cfg, mesh, IterationParams(n1=n1, n2=n2), None)
    noise = np.random.default_rng(1).standard_normal((n1, n2)) * (1.0 - mesh.w_grid) ** 2
    phi = cfg.state2.potential(mesh.nodes) + 0.02 * noise
    phi[:, -1] = dirichlet_vals
    return cfg, mesh, disc, cap, rhs, phi


@pytest.mark.parametrize("deg, n1, n2", [(85.0, 13, 11), (55.0, 11, 12)])
def test_fixed_pattern_jacobian_matches_product_form(gas_122, deg, n1, n2):
    """The Jacobian gathered into its fixed pattern equals the sparse-product
    form on a curved and on a collapsed-sonic mesh with cap-active nodes, and
    its Dirichlet rows store the diagonal only.  Entries that vanish are not
    stored, since stored zeros add fill to the LU factors."""
    cfg, mesh, disc, cap, rhs, phi = _noisy_field(gas_122, deg, n1, n2)
    lin = solver._residual(disc, phi, gas_122, cap, rhs)
    assert lin.active.any() and not lin.active.all()
    assert not (mesh.degenerate_sonic and lin.active[:, -1].all())
    J = solver._jacobian(disc, lin, cap, gas_122.gamma)
    ref = _jacobian_product_form(disc, lin, cap, gas_122.gamma)
    assert abs(J - ref).max() <= 1e-13 * abs(ref).max()
    assert np.all(J.data != 0.0) and J.nnz == ref.count_nonzero()
    rows = J.tocsr()[disc.grid.dir_rows]
    assert rows.nnz == rows.shape[0] and np.array_equal(rows.indices, disc.grid.dir_rows)
    assert np.all(rows.data == 1.0)


@pytest.mark.parametrize("deg", [85.0, 55.0])
def test_newton_lu_ordering_solves_with_less_fill(gas_122, monkeypatch, deg):
    """The Newton step of solve_bvp, factorised with minimum degree on
    J^T + J and threshold pivoting, solves J s = -r to roundoff, agrees with
    the step of splu's default COLAMD and partial pivoting, and fills less,
    on a curved and on a collapsed-sonic 33^2 mesh with cap-active nodes."""
    cfg, mesh, disc, cap, rhs, phi = _noisy_field(gas_122, deg, 33, 33)
    assert mesh.degenerate_sonic == (deg < 60.0)
    lin = solver._residual(disc, phi, gas_122, cap, rhs)
    assert lin.active.any() and not lin.active.all()
    calls = []

    class Captured(Exception):
        pass

    def capture(J, **options):
        calls.append((J, options))
        raise Captured

    monkeypatch.setattr(solver, "spla", SimpleNamespace(splu=capture))
    with pytest.raises(Captured):
        solve_bvp(cfg, mesh, phi, IterationParams(n1=33, n2=33))
    J, options = calls[0]
    assert options == {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.01}
    lu, default = spla.splu(J, **options), spla.splu(J)
    step, ref = lu.solve(-lin.r), default.solve(-lin.r)
    assert np.linalg.norm(J @ step + lin.r) <= 1e-12 * np.linalg.norm(lin.r)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)
    assert lu.L.nnz + lu.U.nnz <= default.L.nnz + default.U.nnz


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
    assert np.all(np.isfinite(lin.r)) and np.isfinite(floor) and np.all(np.isfinite(J.data))


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
    mesh2 = build_square_map(cfg.with_foot(pts[-1]), bumped, 25, 25)
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

    cap = _mach_cap(sol.config, mesh.nodes, None)
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
    sol = normal_reflection(gas_122, 33, 33)
    rest = sol.config.state2
    assert np.abs(sol.phi - rest.potential(sol.mesh.nodes)).max() == 0.0
    # flat vertical shock satisfies the RH pair at any height
    s1 = state1(gas_122)
    xbar = sol.shock.points[0, 0]
    for y in (0.1, 0.5, 1.2):
        m, p = rh_residual(s1, rest, np.array([xbar, y]), np.array([1.0, 0.0]), gas_122)
        assert abs(m) < 1e-12 and abs(p) < 1e-12
    assert rest.rho > gas_122.rho1


def test_update_shock_fixed_point_and_flatness(gas_122):
    sol = normal_reflection(gas_122, 33, 33)
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
    cfg = sol.config.with_foot(shock_pert.points[-1])
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
        step = quasi_newton_step(x, r, earlier)
        earlier.append((x, r))
        x = x + step
        plain = mat @ plain + b
    assert np.abs(x - x_star).max() < 1e-10
    assert np.abs(plain - x_star).max() > 2.0 * np.abs(x_star).max()


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

    def phi_fn(x):
        return 0.1 * np.sin(x[..., 0]) * np.cos(x[..., 1]) - 1.0

    def grad_fn(x):
        g = np.empty(x.shape)
        g[..., 0] = 0.1 * np.cos(x[..., 0]) * np.cos(x[..., 1])
        g[..., 1] = -0.1 * np.sin(x[..., 0]) * np.sin(x[..., 1])
        return g

    def hess_fn(x):
        h = np.empty(x.shape[:-1] + (2, 2))
        s0, c0 = np.sin(x[..., 0]), np.cos(x[..., 0])
        s1, c1 = np.sin(x[..., 1]), np.cos(x[..., 1])
        h[..., 0, 0] = -0.1 * s0 * c1
        h[..., 0, 1] = -0.1 * c0 * s1
        h[..., 1, 0] = -0.1 * c0 * s1
        h[..., 1, 1] = -0.1 * s0 * c1
        return h

    mms = MMSProblem(phi=phi_fn, grad=grad_fn, hess=hess_fn)
    errs = []
    for n in (17, 33):
        ip = IterationParams(n1=n, n2=n, lin_tol=1e-11)
        mesh = build_square_map(cfg, shock, n, n)
        phi, _ = solve_bvp(cfg, mesh, phi_fn(mesh.nodes), ip, mms=mms)
        errs.append(float(np.abs(phi - phi_fn(mesh.nodes)).max()))
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
    with pytest.raises(ValueError):
        solver.continuation_sweep(gas_122, [start, math.radians(89.0)],
                                  IterationParams(n1=17, n2=17))


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
