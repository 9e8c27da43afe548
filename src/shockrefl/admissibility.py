"""Numerical certification of a computed solution.

Every checkable admissibility condition is evaluated on the discrete field
and reported with its worst margin, location, and the tolerance used:

  * strict ellipticity away from the sonic arc,
  * the shock inequalities d_nu phi1 > d_nu phi > 0,
  * pinching phi2 <= phi <= phi1,
  * monotonicity of phi1 - phi in the cone directions and of phi - phi2
    along the wedge interior normal,
  * the graph/tangent-bound structure and strict convexity of the shock,
  * Rankine-Hugoniot residuals of the exterior (closed-form) shocks.

Strict pointwise inequalities become grid-limited inequalities numerically:
tolerances scale as C * h^1.5 with the largest grid spacing h, and strict
checks skip the two nodes nearest each arc endpoint, where only non-strict
or lower-regularity behavior is claimed.  Two extra diagnostics (tangential
second-derivative sign equivalence, tangent-line distance monotonicity)
never affect the verdict.

The flat-shock case theta_w = pi/2 is exempt from strict convexity: the
reflected shock of the normal reflection stays flat, and flatness itself is
asserted instead.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import LinearNDInterpolator

from .archive import jsonable
from .errors import TooFewSamples
from .gas import bernoulli_base, ellipticity_margin
from .geometry import ShockCurve, interior_cone_directions
from .relations import rh_residual
from .solver import cutoff_band_width, shock_interior_normals, sonic_distance

TOL_COEFF = 10.0          # tol = TOL_COEFF * h^1.5
ENDPOINT_SKIP = 2         # nodes skipped at arc endpoints for strict checks
FARFIELD_TOL = 1e-10
MANDATORY = (
    "ellipticity",
    "shock_inequalities",
    "pinching",
    "cone_monotonicity",
    "wedge_monotonicity",
    "graph_and_convexity",
    "far_field",
)


@dataclass
class CheckRecord:
    name: str
    passed: bool
    mandatory: bool
    worst: float
    tolerance: float
    location: tuple | None = None
    note: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "mandatory": bool(self.mandatory),
            "worst": float(self.worst),
            "tolerance": float(self.tolerance),
            "location": None if self.location is None else [float(v) for v in self.location],
            "note": self.note,
            "details": {k: jsonable(v) for k, v in sorted(self.details.items())},
        }


@dataclass
class AdmissibilityReport:
    checks: list
    verdict: bool
    grid_tol: float
    metadata_hash: str = ""

    def to_dict(self):
        return {
            "verdict": "pass" if self.verdict else "fail",
            "grid_tolerance": float(self.grid_tol),
            "metadata_hash": self.metadata_hash,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def table(self):
        lines = ["%-28s %-6s %-12s %-12s note" % ("check", "pass", "worst", "tol")]
        for c in self.checks:
            lines.append(
                "%-28s %-6s %-12.3e %-12.3e %s"
                % (c.name, "yes" if c.passed else "NO", c.worst, c.tolerance, c.note)
            )
        lines.append("verdict: %s" % ("pass" if self.verdict else "FAIL"))
        return "\n".join(lines)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def grid_tolerance(sol):
    """tol = C * h^1.5 with h the largest physical grid spacing."""
    return TOL_COEFF * sol.mesh.max_spacing() ** 1.5


def _interior_mask(sol):
    """Nodes of the closed region minus the sonic row and corner rings."""
    n1, n2 = sol.phi.shape
    mask = np.ones((n1, n2), dtype=bool)
    mask[:, -1] = False  # sonic row (margin vanishes there by construction)
    k = ENDPOINT_SKIP
    mask[:k, -1 - k :] = False   # P1 corner
    mask[-k:, -1 - k :] = False  # P4 corner
    mask[:k, :k] = False         # P2 corner
    mask[-k:, :k] = False        # P3 corner
    return mask


def _worst_at(values, mask, nodes, biggest=True):
    vals = np.where(mask, values, -np.inf if biggest else np.inf)
    idx = np.unravel_index(np.argmax(vals) if biggest else np.argmin(vals), vals.shape)
    return float(values[idx]), tuple(float(x) for x in nodes[idx])


def check_ellipticity(sol, tol=None):
    """Strict ellipticity in the closed region away from the sonic arc.

    Outside the cutoff band the margin must be positive; inside the band it
    may vanish (down to -tol) where the equation is legitimately degenerate.
    """
    tol = tol if tol is not None else grid_tolerance(sol)
    cfg = sol.config
    margin = ellipticity_margin(sol.gradient(), sol.phi, cfg.params)
    width = cutoff_band_width(cfg, sol.metadata.get("cutoff_width"))
    dist = sonic_distance(cfg, sol.mesh.nodes)
    mask = _interior_mask(sol)
    outside = mask & (dist > width)
    inside = mask & ~outside
    ok = True
    worst = math.inf
    loc = None
    if np.any(outside):
        w_out, loc_out = _worst_at(margin, outside, sol.mesh.nodes, biggest=False)
        ok &= w_out > 0.0
        worst, loc = w_out, loc_out
    if np.any(inside):
        w_in, loc_in = _worst_at(margin, inside, sol.mesh.nodes, biggest=False)
        ok &= w_in > -tol
        if w_in < worst:
            worst, loc = w_in, loc_in
    return CheckRecord(
        name="ellipticity",
        passed=bool(ok),
        mandatory=True,
        worst=worst,
        tolerance=tol,
        location=loc,
        note="margin c_star - |Dphi|; positive required outside the cutoff band",
        details={"cutoff_width": width},
    )


def check_shock_inequalities(sol, tol=None):
    """d_nu phi1 > d_nu phi > 0 on the shock (nu the interior normal)."""
    tol = tol if tol is not None else grid_tolerance(sol)
    k = ENDPOINT_SKIP
    pts = sol.mesh.nodes[0, :, :]
    nu = shock_interior_normals(sol.shock, t=pts @ sol.shock.e_perp)
    grad = sol.gradient()[0, :, :]
    dn_phi = (grad * nu).sum(-1)
    dn_phi1 = (sol.config.state1.gradient(pts) * nu).sum(-1)
    sl = slice(k, len(pts) - k)
    m1 = dn_phi1[sl] - dn_phi[sl]
    m2 = dn_phi[sl]
    worst = float(min(m1.min(), m2.min()))
    j = int(np.argmin(np.minimum(m1, m2))) + k
    # entropy corollary: density on the subsonic side exceeds rho1
    g = sol.config.params.gamma
    base = bernoulli_base((grad[sl] ** 2).sum(-1), sol.phi[0, sl], sol.config.params)
    rho_min = float(np.min(base ** (1.0 / (g - 1.0))))
    return CheckRecord(
        name="shock_inequalities",
        passed=bool(worst > 0.0),
        mandatory=True,
        worst=worst,
        tolerance=0.0,
        location=tuple(float(x) for x in pts[j]),
        note="min margin of d_nu phi1 - d_nu phi and d_nu phi on interior shock nodes",
        details={"rho_min_on_shock": rho_min, "rho1": sol.config.params.rho1,
                 "entropy_ok": bool(rho_min > sol.config.params.rho1)},
    )


def check_pinching(sol, tol=None):
    """phi2 <= phi <= phi1 within the grid tolerance, at every node."""
    tol = tol if tol is not None else grid_tolerance(sol)
    nodes = sol.mesh.nodes
    lo = sol.config.state2.potential(nodes) - sol.phi   # <= tol required
    hi = sol.phi - sol.config.state1.potential(nodes)   # <= tol required
    viol = np.maximum(lo, hi)
    mask = np.ones(viol.shape, dtype=bool)
    worst, loc = _worst_at(viol, mask, nodes, biggest=True)
    return CheckRecord(
        name="pinching",
        passed=bool(worst <= tol),
        mandatory=True,
        worst=worst,
        tolerance=tol,
        location=loc,
        note="max of (phi2 - phi) and (phi - phi1); <= tol required",
    )


def check_cone_monotonicity(sol, tol=None):
    """d_e(phi1 - phi) < 0 in the closed region for interior cone directions;
    <= 0 on the shock for the boundary directions e_S1 and e_xi2."""
    tol = tol if tol is not None else grid_tolerance(sol)
    cfg = sol.config
    grad1 = cfg.state1.gradient(sol.mesh.nodes)
    diff = grad1 - sol.gradient()
    mask = _interior_mask(sol)
    details = {}
    worst = -math.inf
    loc = None
    ok = True
    if cfg.cone_degenerate:
        dirs = []
        note = "cone degenerate at theta_w = pi/2; interior directions skipped"
    else:
        dirs = interior_cone_directions(cfg.e_s1)
        note = "interior strict in the region; boundary directions non-strict on the shock"
    for idx, e in enumerate(dirs):
        vals = (diff * e).sum(-1)
        w, l = _worst_at(vals, mask, sol.mesh.nodes, biggest=True)
        details[f"interior_dir_{idx}"] = w
        ok &= w < tol
        if w > worst:
            worst, loc = w, l
    k = ENDPOINT_SKIP
    shock_diff = diff[0, k:-k, :]
    for name, e in (("e_s1", cfg.e_s1), ("e_xi2", np.array([0.0, 1.0]))):
        vals = (shock_diff * e).sum(-1)
        w = float(vals.max())
        details[f"shock_{name}"] = w
        ok &= w <= tol
        if w > worst:
            worst = w
            loc = tuple(float(x) for x in sol.mesh.nodes[0, k + int(np.argmax(vals))])
    return CheckRecord(
        name="cone_monotonicity",
        passed=bool(ok),
        mandatory=True,
        worst=worst,
        tolerance=tol,
        location=loc,
        note=note,
        details=details,
    )


def check_wedge_monotonicity(sol, tol=None):
    """d_{nu_w}(phi - phi2) <= 0 within tolerance at every node."""
    tol = tol if tol is not None else grid_tolerance(sol)
    nu_w = sol.config.wedge_normal()
    diff = sol.gradient() - sol.config.state2.gradient(sol.mesh.nodes)
    vals = (diff * nu_w).sum(-1)
    mask = _interior_mask(sol)
    worst, loc = _worst_at(vals, mask, sol.mesh.nodes, biggest=True)
    return CheckRecord(
        name="wedge_monotonicity",
        passed=bool(worst <= tol),
        mandatory=True,
        worst=worst,
        tolerance=tol,
        location=loc,
        note="max of d_nu_w(phi - phi2); <= tol required",
    )


def _second_derivative(t, f):
    """Three-point second derivative on a nonuniform grid."""
    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    return 2.0 * (hm * f[2:] - (hm + hp) * f[1:-1] + hp * f[:-2]) / (hm * hp * (hm + hp))


def check_graph_and_convexity(shock, theta_w=None, config=None, tol=None, flat_tol=1e-8):
    """Graph/tangent bounds plus strict convexity, cross-validated in 3 cone directions.

    The shock must be a graph with slopes between the endpoint tangents and
    discrete f'' <= tol everywhere with f'' < 0 on the middle 80% of the arc,
    with the same verdict in all sampled directions.  At theta_w = pi/2 the
    flat-shock exemption applies: |f''| < flat_tol is asserted instead.
    """
    if shock.points.shape[0] < 5:
        raise TooFewSamples("convexity check needs at least 5 shock samples")
    if tol is None:
        tol = 1e-6
    degenerate = theta_w is not None and abs(theta_w - math.pi / 2.0) < 1e-12
    if config is not None and getattr(config, "cone_degenerate", False):
        degenerate = True
    base_dirs = [np.asarray(shock.e, dtype=float)]
    if not degenerate and config is not None:
        base_dirs = [np.asarray(shock.e, dtype=float)] + interior_cone_directions(
            config.e_s1, fractions=(0.3, 0.7)
        )
    details = {}
    verdicts = []
    worst = -math.inf
    k = ENDPOINT_SKIP
    for idx, e in enumerate(base_dirs):
        cur = ShockCurve(e=e, points=shock.points, tau_p1=shock.tau_p1, tau_p2=shock.tau_p2)
        t = cur.t_values
        s = cur.s_values
        dt = np.diff(t)
        if np.any(dt <= 0.0):
            verdicts.append(False)
            details[f"dir_{idx}_graph"] = "T not increasing"
            continue
        slopes = np.diff(s) / dt
        # tangent-slope bounds of the graph lemma, skipping the endpoint
        # segments (clustered spacing there amplifies node-position noise)
        hi_slope, lo_slope = cur.endpoint_slopes()
        core = slopes[k:-k] if len(slopes) > 2 * k else slopes
        slope_exc = float(max(np.max(core - hi_slope), np.max(lo_slope - core)))
        details[f"dir_{idx}_slope_excess"] = slope_exc
        fpp = _second_derivative(t, s)
        t_mid = t[1:-1]
        lo = t[0] + 0.1 * (t[-1] - t[0])
        hi = t[0] + 0.9 * (t[-1] - t[0])
        mid = (t_mid >= lo) & (t_mid <= hi)
        # exclude a 5% physical neighborhood of each endpoint from the
        # "everywhere" bound: clustered spacing there turns node-position
        # noise of order h^2 into O(1) second-difference noise
        lo5 = t[0] + 0.05 * (t[-1] - t[0])
        hi5 = t[0] + 0.95 * (t[-1] - t[0])
        inner = (t_mid >= lo5) & (t_mid <= hi5)
        if not np.any(inner):
            inner = np.ones(len(fpp), dtype=bool)
        if degenerate:
            flat = float(np.max(np.abs(fpp)))
            verdicts.append(flat < flat_tol and slope_exc <= tol)
            details[f"dir_{idx}_flatness"] = flat
            worst = max(worst, flat)
        else:
            all_ok = bool(np.all(fpp[inner] <= tol))
            mid_ok = bool(np.all(fpp[mid] < 0.0))
            verdicts.append(all_ok and mid_ok and slope_exc <= tol)
            details[f"dir_{idx}_max_fpp"] = float(fpp[inner].max())
            details[f"dir_{idx}_max_fpp_mid"] = float(fpp[mid].max()) if np.any(mid) else math.nan
            worst = max(worst, float(fpp[mid].max()) if np.any(mid) else float(fpp.max()))
        details[f"dir_{idx}_slope_range"] = (float(slopes.min()), float(slopes.max()))
    passed = all(verdicts) and len(set(verdicts)) == 1
    note = (
        "flat-shock exemption at theta_w = pi/2 (flatness asserted)"
        if degenerate
        else "f'' <= tol everywhere and f'' < 0 on the middle 80%, all directions agreeing"
    )
    return CheckRecord(
        name="graph_and_convexity",
        passed=bool(passed),
        mandatory=True,
        worst=worst,
        tolerance=flat_tol if degenerate else tol,
        note=note,
        details=details,
    )


def check_phi_tau_tau_equivalence(sol, offset_factor=2.0):
    """Diagnostic: sign agreement between phi_tautau of phi - phi1 near the
    shock and -f'' of the graph (noisy near endpoints; never gates)."""
    shock = sol.shock
    cur = ShockCurve(e=shock.e, points=shock.points, tau_p1=shock.tau_p1, tau_p2=shock.tau_p2)
    t = cur.t_values
    s = cur.s_values
    fpp = _second_derivative(t, s)
    pts_nodes = sol.mesh.nodes.reshape(-1, 2)
    vals = (sol.phi - sol.config.state1.potential(sol.mesh.nodes)).reshape(-1)
    interp = LinearNDInterpolator(pts_nodes, vals)
    h = sol.mesh.max_spacing()
    eps = offset_factor * h
    nu = shock_interior_normals(shock)
    _, fd = shock.graph_value(t)
    tau = (fd[:, None] * shock.e[None, :] + shock.e_perp[None, :]) / np.sqrt(1 + fd * fd)[:, None]
    inner = shock.points[1:-1] + eps * nu[1:-1]
    delta = eps
    plus = interp(inner + delta * tau[1:-1])
    minus = interp(inner - delta * tau[1:-1])
    mid = interp(inner)
    ptt = (plus - 2 * mid + minus) / delta ** 2
    valid = ~np.isnan(ptt)
    both_flat = (np.abs(ptt) < 1e-6) & (np.abs(fpp) < 1e-6)
    agree = (np.sign(ptt) == -np.sign(fpp)) | both_flat
    frac = float(np.mean(agree[valid])) if np.any(valid) else math.nan
    note = "degenerate-agree (flat shock)" if np.all(both_flat[valid]) else ""
    return CheckRecord(
        name="phi_tau_tau_equivalence",
        passed=True,
        mandatory=False,
        worst=1.0 - frac if math.isfinite(frac) else math.nan,
        tolerance=math.nan,
        note=note or f"sign agreement fraction {frac:.3f} (diagnostic only)",
        details={"agreement": frac},
    )


def check_tangent_distance(shock, center=(0.0, 0.0)):
    """Diagnostic: distance from O0 to the shock tangent lines along the curve
    should vary monotonically between the endpoint tangent distances."""
    t = shock.t_values
    f, fd = shock.graph_value(t)
    e, ep = shock.e, shock.e_perp
    tau = (fd[:, None] * e[None, :] + ep[None, :]) / np.sqrt(1 + fd * fd)[:, None]
    pts = shock.points - np.asarray(center, dtype=float)
    d = np.abs(tau[:, 0] * pts[:, 1] - tau[:, 1] * pts[:, 0])
    dd = np.diff(d)
    tol = 1e-9 + 1e-6 * float(np.max(d))
    signs = np.sign(dd[np.abs(dd) > tol])
    monotone = bool(len(signs) == 0 or np.all(signs == signs[0]))
    return CheckRecord(
        name="tangent_distance",
        passed=True,
        mandatory=False,
        worst=float(np.max(d) - np.min(d)),
        tolerance=tol,
        note=("monotone" if monotone else "non-monotone") + " tangent distance (diagnostic only)",
        details={"d_start": float(d[0]), "d_end": float(d[-1]), "monotone": monotone},
    )


def check_far_field(sol):
    """RH residuals of the closed-form exterior shocks.

    The solver never discretizes the exterior, so the far field is exact by
    construction; the substantive content is the incident-shock residual and
    (in the supersonic case) the residual on the straight segment P0P1.
    """
    cfg = sol.config
    inc = cfg.incident
    worst = 0.0
    details = {}
    # incident shock: states (0) and (1) across xi1 = xi1_0, normal (1, 0)
    nrm = np.array([1.0, 0.0])
    y0 = max(cfg.p0[1], 1.0)
    for frac in (1.1, 1.5, 2.0):
        pt = np.array([inc.xi1_0, y0 * frac])
        m, p = rh_residual(cfg.state0, cfg.state1, pt, nrm)
        flux_scale = max(1.0, abs(cfg.state1.rho * float(cfg.state1.gradient(pt) @ nrm)))
        pot_scale = max(1.0, abs(float(cfg.state1.potential(pt))))
        worst = max(worst, abs(m) / flux_scale, abs(p) / pot_scale)
    details["incident_worst"] = worst
    if cfg.has_sonic_arc and abs(sol.theta_w - math.pi / 2.0) > 1e-12:
        nvec = np.array([inc.u1 - cfg.state2.u, -cfg.state2.v])
        nvec = nvec / np.linalg.norm(nvec)
        seg_worst = 0.0
        for frac in (0.25, 0.5, 0.75):
            pt = cfg.p0 + frac * (cfg.p1 - cfg.p0)
            m, p = rh_residual(cfg.state1, cfg.state2, pt, nvec)
            flux_scale = max(1.0, abs(cfg.state1.rho * float(cfg.state1.gradient(pt) @ nvec)))
            pot_scale = max(1.0, abs(float(cfg.state1.potential(pt))))
            seg_worst = max(seg_worst, abs(m) / flux_scale, abs(p) / pot_scale)
        details["p0p1_worst"] = seg_worst
        worst = max(worst, seg_worst)
    else:
        details["p0p1_worst"] = None
    return CheckRecord(
        name="far_field",
        passed=bool(worst < FARFIELD_TOL),
        mandatory=True,
        worst=worst,
        tolerance=FARFIELD_TOL,
        note="relative RH residuals of the exact exterior states",
        details=details,
    )


def full_report(sol, metadata_hash=""):
    """Run every check; verdict = all mandatory checks pass."""
    tol = grid_tolerance(sol)
    checks = [
        check_ellipticity(sol, tol),
        check_shock_inequalities(sol, tol),
        check_pinching(sol, tol),
        check_cone_monotonicity(sol, tol),
        check_wedge_monotonicity(sol, tol),
        check_graph_and_convexity(
            sol.shock, theta_w=sol.theta_w, config=sol.config, tol=tol * 1.0
        ),
        check_far_field(sol),
        check_phi_tau_tau_equivalence(sol),
        check_tangent_distance(sol.shock),
    ]
    verdict = all(c.passed for c in checks if c.mandatory)
    return AdmissibilityReport(
        checks=checks, verdict=verdict, grid_tol=tol, metadata_hash=metadata_hash
    )
