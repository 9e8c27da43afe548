import copy
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from shockrefl import GasParams, IterationParams, ShockCurve, TooFewSamples, fixed_point_solve
from shockrefl import admissibility
from shockrefl.admissibility import (
    ENDPOINT_SKIP,
    FARFIELD_TOL,
    check_cone_monotonicity,
    check_ellipticity,
    check_far_field,
    check_graph_and_convexity,
    check_pinching,
    check_shock_inequalities,
    check_tangent_distance,
    check_wedge_monotonicity,
    full_report,
    grid_tolerance,
)
from shockrefl.geometry import E_XI2, cone_supremum
from falsification import (
    nonconvex_shock,
    pinching_bump,
    reversed_shock_field,
    supersonic_uniform_field,
    tampered_incident_config,
)


def test_normal_reflection_report_passes_with_flatness_note(sol_normal65):
    rep = full_report(sol_normal65)
    assert rep.verdict
    conv = rep["graph_and_convexity"]
    assert "flat-shock exemption" in conv.note


def test_converged_85_report_passes(sol85_n65):
    rep = full_report(sol85_n65)
    assert rep.verdict
    assert rep["ellipticity"].worst > 0.0
    assert rep["shock_inequalities"].worst > 0.0
    # strict convexity in every sampled direction on the middle 80%
    conv = rep["graph_and_convexity"]
    for k, v in conv.details.items():
        if k.endswith("max_fpp_mid"):
            assert v < 0.0


@pytest.mark.parametrize("name", ["sol85_n65", "sol_normal65"])
def test_every_check_alone_gives_the_report_record(name, request):
    """Each entry of CHECKS takes the solution alone and returns the record
    that full_report holds under its name; the nine run in report order."""
    sol = request.getfixturevalue(name)
    rep = full_report(sol)
    assert [c.name for c in rep.checks] == [
        "ellipticity", "shock_inequalities", "pinching", "cone_monotonicity",
        "wedge_monotonicity", "graph_and_convexity", "far_field",
        "phi_tau_tau_equivalence", "tangent_distance"]
    for check, rec in zip(admissibility.CHECKS, rep.checks, strict=True):
        assert list(inspect.signature(check).parameters) == ["sol"]
        assert check(sol).to_dict() == rec.to_dict()
    assert rep["graph_and_convexity"].tolerance == (
        admissibility.FLAT_TOL if sol.config.cone_degenerate else rep.grid_tol)


def test_report_is_deterministic(sol85_n65):
    a = full_report(sol85_n65).to_json()
    b = full_report(sol85_n65).to_json()
    assert a == b


def test_supersonic_uniform_field_fails_ellipticity(sol_normal65):
    bad = supersonic_uniform_field(sol_normal65)
    rec = check_ellipticity(bad)
    assert not rec.passed
    assert rec.worst < 0.0 and rec.location is not None
    rep = full_report(bad)
    assert not rep.verdict
    assert not rep.checks[0].passed  # ellipticity is the first mandatory check


def test_pinching_bump_fails_at_the_node(sol85_n65):
    bad, loc = pinching_bump(sol85_n65)
    rec = check_pinching(bad)
    assert not rec.passed
    assert np.allclose(rec.location, loc, atol=1e-12)
    # the bump exceeds the band by 10*tol minus the field's own slack there
    assert rec.worst > 5.0 * grid_tolerance(sol85_n65)


def test_reversed_field_fails_shock_inequalities(sol85_n65):
    bad = reversed_shock_field(sol85_n65)
    rec = check_shock_inequalities(bad)
    assert not rec.passed


def test_shock_density_past_vacuum_is_nan(sol85_n65):
    """Past vacuum the shock density is NaN (null in JSON) and fails the
    entropy corollary, with no warning: for gamma = 2, where the plain power
    of a negative Bernoulli base is a negative density, and for gamma = 1.4,
    where it is NaN with a RuntimeWarning."""
    sol14 = fixed_point_solve(GasParams(1.0, 2.0, 1.4), math.pi / 2.0, IterationParams(n1=17, n2=17))
    lifted = copy.copy(sol14)
    lifted.phi = sol14.phi + 3.0 * sol14.mesh.nodes[..., 1]
    for bad in (reversed_shock_field(sol85_n65), lifted):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = check_shock_inequalities(bad)
            details = rec.to_dict()["details"]
        assert math.isnan(rec.details["rho_min_on_shock"])
        assert details["rho_min_on_shock"] is None
        assert details["entropy_ok"] is False


def test_sign_flipped_field_fails_wedge_monotonicity(sol85_n65):
    # add a linear ramp along nu_w twice the tolerance: d_nu_w(phi - phi2)
    # exceeds tol everywhere by construction
    bad = copy.copy(sol85_n65)
    nu_w = sol85_n65.config.wedge_normal()
    ramp = 2.0 * grid_tolerance(sol85_n65) * (sol85_n65.mesh.nodes @ nu_w)
    bad.phi = sol85_n65.phi + ramp
    rec = check_wedge_monotonicity(bad)
    assert not rec.passed


def test_phi_equals_phi2_is_boundary_case(sol85_n65):
    synth = copy.copy(sol85_n65)
    synth.phi = sol85_n65.config.state2.potential(sol85_n65.mesh.nodes)
    rec = check_wedge_monotonicity(synth)
    assert rec.passed
    # zero up to the discrete-gradient truncation error of the sampled state
    assert abs(rec.worst) < 1e-3


@pytest.mark.parametrize("n1", [3, 4])
def test_an_empty_interior_mask_gives_the_vacuous_record(gas_122, n1):
    """On a 3 x 5 or 4 x 5 grid the interior mask is empty: the checks over
    it report -inf (the largest of nothing) or inf (the smallest) and no
    location, not a masked corner such as P2."""
    sol = fixed_point_solve(gas_122, math.pi / 2.0, IterationParams(n1=n1, n2=5))
    assert not admissibility._interior_mask(sol).any()
    wedge, ell = check_wedge_monotonicity(sol), check_ellipticity(sol)
    assert (wedge.worst, wedge.location, wedge.passed) == (-math.inf, None, True)
    assert (ell.worst, ell.location, ell.passed) == (math.inf, None, True)


def test_cone_monotonicity_on_an_empty_interior_mask(sol85_n65, monkeypatch):
    """With no interior node the region is vacuous, and the worst value and
    its location come from the shock row."""
    monkeypatch.setattr(admissibility, "_interior_mask", lambda sol: np.zeros(sol.phi.shape, dtype=bool))
    rec = check_cone_monotonicity(sol85_n65)
    assert rec.details["region"] == -math.inf
    assert rec.worst == rec.details["shock_row"]
    assert rec.location in {tuple(map(float, p)) for p in sol85_n65.mesh.nodes[0]}


def test_cone_monotonicity_inverted_direction_fails(sol85_n65):
    """Sanity inversion: each negated interior cone direction flips the sign."""
    from shockrefl import interior_cone_directions

    grad1 = sol85_n65.config.state1.gradient(sol85_n65.mesh.nodes)
    diff = grad1 - sol85_n65.gradient()
    dirs = interior_cone_directions(sol85_n65.config.e_s1)
    assert len(dirs) == 2
    for e in dirs:
        vals = (diff * (-e)).sum(-1)
        interior = vals[3:-3, 3:-3]
        assert interior.max() > grid_tolerance(sol85_n65)


def test_cone_supremum_is_the_maximum_over_the_closed_cone(sol85_n65):
    """The closed form agrees with a brute-force maximum over 2,001 directions
    across the closed cone and is never below a sampled direction's value."""
    cfg = sol85_n65.config
    g = cfg.state1.gradient(sol85_n65.mesh.nodes) - sol85_n65.gradient()
    sup = cone_supremum(g, cfg.e_s1)
    a0 = math.pi / 2.0
    span = (math.atan2(cfg.e_s1[1], cfg.e_s1[0]) - a0) % (2.0 * math.pi)
    ang = a0 + np.linspace(0.0, 1.0, 2001) * span
    brute = np.max(g[..., 0, None] * np.cos(ang) + g[..., 1, None] * np.sin(ang), axis=-1)
    assert np.max(np.abs(sup - brute)) < 1e-12
    # 25%, 50% and 75% of the cone's angle, and its two edges
    sampled = [np.array([math.cos(a), math.sin(a)]) for a in a0 + np.array([0.25, 0.5, 0.75]) * span]
    for e in sampled + [cfg.e_s1, np.array(E_XI2)]:
        assert np.all(sup >= (g * e).sum(-1))


def test_cone_supremum_closed_forms(sol85_n65):
    """|g| for g inside the cone; the larger edge value at pi/2, where the
    cone is a line and nothing is inside."""
    e_s1 = sol85_n65.config.e_s1
    g = 2.0 * e_s1 + 3.0 * np.array(E_XI2)
    assert cone_supremum(g, e_s1) == pytest.approx(np.linalg.norm(g), rel=1e-15)
    line = np.array([0.0, -1.0])
    g90 = np.array([[-1.0, 0.5], [-1.0, -0.25], [2.0, 0.0]])
    assert np.array_equal(cone_supremum(g90, line), [0.5, 0.25, 0.0])


def test_cone_monotonicity_checks_the_region_at_90(sol_normal65):
    """The exact 90-degree member passes with its region checked: the cone
    is a line there, and its two edges bound the region too."""
    rec = check_cone_monotonicity(sol_normal65)
    assert rec.passed
    assert set(rec.details) == {"region", "shock_row"}
    assert math.isfinite(rec.details["region"]) and rec.details["region"] < rec.tolerance


def test_cone_monotonicity_allows_tol_on_the_shock_row(sol85_n65, monkeypatch):
    """The shock-row inequality is non-strict at every checked shock-row node,
    j = ENDPOINT_SKIP .. n2-1-ENDPOINT_SKIP: a supremum of exactly tol there and
    0 elsewhere passes, and the region, which leaves out the shock row, reads 0."""
    sol = sol85_n65
    tol = grid_tolerance(sol)
    sup = np.zeros(sol.phi.shape)
    sup[0, ENDPOINT_SKIP:-ENDPOINT_SKIP] = tol
    monkeypatch.setattr(admissibility, "cone_supremum", lambda g, e_s1: sup)
    rec = check_cone_monotonicity(sol)
    assert rec.passed and rec.details == {"region": 0.0, "shock_row": tol}


def test_state2_closed_form_cone_derivative(sol85_n65):
    """d_{e_S1}(phi1 - phi2) is a nonpositive constant (linear function)."""
    cfg = sol85_n65.config
    d = cfg.state1.gradient(np.zeros(2)) - cfg.state2.gradient(np.zeros(2))
    val = float(d @ cfg.e_s1)
    # e_S1 is orthogonal to D(phi1 - phi2): the boundary case of the
    # non-strict cone monotonicity, zero up to roundoff
    assert val <= 1e-12
    d2 = cfg.state1.gradient(np.array([1.0, 1.0])) - cfg.state2.gradient(np.array([1.0, 1.0]))
    assert float(d2 @ cfg.e_s1) == pytest.approx(val, abs=1e-14)


def test_straight_shock_fails_strict_convexity(sol85_n65):
    t = np.linspace(0.0, 1.0, 21)
    e = sol85_n65.shock.e
    ep = sol85_n65.shock.e_perp
    p0 = sol85_n65.shock.points[0]
    p1 = sol85_n65.shock.points[-1]
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    straight = ShockCurve(e=e, points=pts, tau_p1=sol85_n65.shock.tau_p1,
                          tau_p2=sol85_n65.shock.tau_p2)
    rec = check_graph_and_convexity(dataclasses.replace(sol85_n65, shock=straight))
    assert not rec.passed  # f'' = 0: convex but not strictly


def test_concave_parabola_passes_convexity(sol85_n65):
    # f(T) = -T^2 in the nu_w frame: uniformly concave graph
    e = sol85_n65.shock.e
    ep = np.array([-e[1], e[0]])
    t = np.linspace(-1.0, 1.0, 41)
    f = -0.5 * t ** 2
    pts = f[:, None] * e[None, :] + t[:, None] * ep[None, :]
    tau1 = pts[1] - pts[0]
    tau2 = pts[-2] - pts[-1]
    curve = ShockCurve(e=e, points=pts, tau_p1=tau1 / np.linalg.norm(tau1),
                       tau_p2=tau2 / np.linalg.norm(tau2))
    rec = check_graph_and_convexity(dataclasses.replace(sol85_n65, shock=curve))
    assert rec.passed


def test_nonconvex_shock_fails(sol85_n65):
    bad = nonconvex_shock(sol85_n65)
    rec = check_graph_and_convexity(dataclasses.replace(sol85_n65, shock=bad))
    assert not rec.passed


def test_folded_shock_fails_with_the_worst_value(sol85_n65):
    """Two swapped interior shock nodes are a graph in no direction: the check
    fails with the worst value there is, inf."""
    shock = sol85_n65.shock
    pts = shock.points.copy()
    pts[[10, 11]] = pts[[11, 10]]
    folded = ShockCurve(e=shock.e, points=pts, tau_p1=shock.tau_p1, tau_p2=shock.tau_p2)
    rec = check_graph_and_convexity(dataclasses.replace(sol85_n65, shock=folded))
    assert not rec.passed
    assert rec.worst == math.inf


def test_too_few_samples():
    pts = np.array([[0.0, 1.0], [0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(TooFewSamples):
        ShockCurve(e=np.array([-1.0, 0.0]), points=pts,
                   tau_p1=np.array([0.0, -1.0]), tau_p2=np.array([0.0, 1.0]))


def test_tangent_distance_circle_arc_is_constant(sol85_n65):
    ang = np.linspace(0.3, 1.2, 31)
    r = 2.0
    pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])[::-1]
    e = np.array([1.0, 0.0])
    tau1 = pts[1] - pts[0]
    curve = ShockCurve(e=e, points=pts, tau_p1=tau1 / np.linalg.norm(tau1),
                       tau_p2=(pts[-2] - pts[-1]) / np.linalg.norm(pts[-2] - pts[-1]))
    rec = check_tangent_distance(dataclasses.replace(sol85_n65, shock=curve))
    assert rec.details["d_start"] == pytest.approx(r, rel=1e-4)
    assert rec.worst < 1e-3  # constant distance: degenerate-pass


def test_tangent_distance_monotone_on_converged(sol85_n65):
    rec = check_tangent_distance(sol85_n65)
    assert rec.passed  # diagnostic never gates


@pytest.mark.parametrize("boundary_dir", ["e_xi2", "e_s1"])
def test_cone_monotonicity_fails_on_the_shock_row(sol85_n65, boundary_dir, monkeypatch):
    """A ramp of phi along a boundary cone direction breaks d_e(phi1 - phi) <= 0
    on the shock, found at an interior shock node even with the region masked
    off; unmasked, the ramp raises the supremum over the cone in the region too."""
    sol = sol85_n65
    e = np.array(E_XI2) if boundary_dir == "e_xi2" else sol.config.e_s1
    bad = copy.copy(sol)
    bad.phi = sol.phi - 2.0 * grid_tolerance(sol) * (sol.mesh.nodes @ e)
    rec = check_cone_monotonicity(bad)
    assert not rec.passed
    assert rec.details["region"] > rec.tolerance and rec.details["shock_row"] > rec.tolerance
    monkeypatch.setattr(admissibility, "_interior_mask", lambda sol: np.zeros(sol.phi.shape, dtype=bool))
    rec = check_cone_monotonicity(bad)
    assert not rec.passed
    assert rec.worst == rec.details["shock_row"] > rec.tolerance
    n2 = sol.phi.shape[1]
    shock_nodes = [tuple(float(x) for x in sol.mesh.nodes[0, j]) for j in range(ENDPOINT_SKIP, n2 - ENDPOINT_SKIP)]
    assert rec.location in shock_nodes


def test_far_field_detects_wrong_state2(sol85_n65):
    """State (2) off its polar by 1% fails the RH residual on P0P1, not the incident one."""
    cfg = sol85_n65.config
    bad = copy.copy(sol85_n65)
    bad.config = dataclasses.replace(
        cfg, state2=dataclasses.replace(cfg.state2, u=cfg.state2.u * 1.01, v=cfg.state2.v * 1.01))
    rec = check_far_field(bad)
    assert not rec.passed
    assert rec.details["p0p1_worst"] > 1e-3
    assert rec.details["incident_worst"] < FARFIELD_TOL


def test_far_field_passes_and_detects_tampering(sol85_n65):
    rec = check_far_field(sol85_n65)
    assert rec.passed and rec.worst < 1e-10
    bad = tampered_incident_config(sol85_n65)
    rec2 = check_far_field(bad)
    assert not rec2.passed
    assert rec2.details["incident_worst"] > 1e-6


def test_phi_tau_tau_agreement_high(sol85_n65):
    from shockrefl.admissibility import check_phi_tau_tau_equivalence

    rec = check_phi_tau_tau_equivalence(sol85_n65)
    assert rec.details["agreement"] >= 0.95
