"""Numerical certification of a computed solution.

Every checkable admissibility condition is a function check(sol) ->
CheckRecord of the solution alone, which reports its worst margin, location
and the tolerance used; full_report runs the module tuple CHECKS in order:

  * strict ellipticity away from the sonic arc,
  * the shock inequalities d_nu phi1 > d_nu phi > 0,
  * pinching phi2 <= phi <= phi1,
  * monotonicity of phi1 - phi in every direction of the closed cone
    Con(e_S1, e_xi2), through the closed-form supremum over the cone, and of
    phi - phi2 along the wedge interior normal,
  * the graph/tangent-bound structure and strict convexity of the shock, in
    its own direction and two interior cone directions,
  * Rankine-Hugoniot residuals of the exterior (closed-form) shocks.

Strict pointwise inequalities become grid-limited inequalities numerically:
tolerances scale as C * h^1.5 with the largest grid spacing h (the shock's
f'' and tangent-slope bounds too), and strict checks skip the two nodes
nearest each arc endpoint, where only non-strict or lower-regularity
behavior is claimed.  Two extra diagnostics (tangential second-derivative
sign equivalence, tangent-line distance monotonicity) never affect the
verdict.

The flat-shock case theta_w = pi/2 is exempt from strict convexity: the
reflected shock of the normal reflection stays flat, and flatness itself is
asserted instead.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .archive import jsonable
from .errors import GraphPropertyLost
from .gas import closure_density, ellipticity_margin
from .geometry import ShockCurve, cone_supremum, interior_cone_directions
from .relations import rh_residual
from .solver import cutoff_band_width, shock_trace, sonic_distance

TOL_COEFF = 10.0          # tol = TOL_COEFF * h^1.5
ENDPOINT_SKIP = 2         # nodes skipped at arc endpoints for strict checks
FARFIELD_TOL = 1e-10
FLAT_TOL = 1e-8           # |f''| bound of the flat shock at theta_w = pi/2
TAU_OFFSET = 2.0          # phi_tautau probes: offset and step off the shock, in grid spacings


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
            "worst": jsonable(float(self.worst)),
            "tolerance": jsonable(float(self.tolerance)),
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=False, allow_nan=False)

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
    return TOL_COEFF * sol.mesh.max_spacing ** 1.5


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
    """The largest (or smallest) of values over mask and its node; on an
    empty mask the vacuous -inf (inf) and no location."""
    if not mask.any():
        return (-math.inf if biggest else math.inf), None
    vals = np.where(mask, values, -np.inf if biggest else np.inf)
    idx = np.unravel_index(np.argmax(vals) if biggest else np.argmin(vals), vals.shape)
    return float(values[idx]), tuple(float(x) for x in nodes[idx])


def check_ellipticity(sol):
    """Strict ellipticity in the closed region away from the sonic arc.

    Outside the cutoff band of every solve (CUTOFF_WIDTH sonic radii, its width
    in the details) the margin must be positive; inside the band it may
    vanish (down to -tol) where the equation is legitimately degenerate.
    """
    tol = grid_tolerance(sol)
    cfg = sol.config
    margin = ellipticity_margin(sol.gradient(), sol.phi, cfg.params)
    width = cutoff_band_width(cfg)
    dist = sonic_distance(cfg, sol.mesh.nodes)
    mask = _interior_mask(sol)
    outside = mask & (dist > width)
    ok, worst, loc = True, math.inf, None
    for region, bound in ((outside, 0.0), (mask & ~outside, -tol)):
        w, l = _worst_at(margin, region, sol.mesh.nodes, biggest=False)
        ok &= w > bound
        if loc is None or w < worst:
            worst, loc = w, l
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


def check_shock_inequalities(sol):
    """d_nu phi1 > d_nu phi > 0 on the shock (nu the interior normal)."""
    pts, grad, _, grad1 = shock_trace(sol.config, sol.mesh, sol.phi)
    nu = sol.shock.normals(t=pts @ sol.shock.e_perp)
    dn_phi = (grad * nu).sum(-1)
    dn_phi1 = (grad1 * nu).sum(-1)
    sl = slice(ENDPOINT_SKIP, len(pts) - ENDPOINT_SKIP)
    interior = np.zeros(len(pts), dtype=bool)
    interior[sl] = True
    worst, loc = _worst_at(np.minimum(dn_phi1 - dn_phi, dn_phi), interior, pts, biggest=False)
    # entropy corollary: density on the subsonic side exceeds rho1 (NaN past vacuum)
    rho = closure_density((grad[sl] ** 2).sum(-1), sol.phi[0, sl], sol.config.params)
    rho_min = float(np.min(rho))
    return CheckRecord(
        name="shock_inequalities",
        passed=bool(worst > 0.0),
        mandatory=True,
        worst=worst,
        tolerance=0.0,
        location=loc,
        note="min margin of d_nu phi1 - d_nu phi and d_nu phi on interior shock nodes",
        details={"rho_min_on_shock": rho_min, "rho1": sol.config.params.rho1,
                 "entropy_ok": bool(rho_min > sol.config.params.rho1)},
    )


def _bound_record(sol, name, values, mask, note):
    """Mandatory check: the largest of values over mask is at most the grid tolerance."""
    tol = grid_tolerance(sol)
    worst, loc = _worst_at(values, mask, sol.mesh.nodes)
    return CheckRecord(name=name, passed=bool(worst <= tol), mandatory=True, worst=worst,
                       tolerance=tol, location=loc, note=note)


def check_pinching(sol):
    """phi2 <= phi <= phi1 within the grid tolerance, at every node."""
    nodes = sol.mesh.nodes
    lo = sol.config.state2.potential(nodes) - sol.phi   # <= tol required
    hi = sol.phi - sol.config.state1.potential(nodes)   # <= tol required
    return _bound_record(sol, "pinching", np.maximum(lo, hi), np.ones(sol.phi.shape, dtype=bool),
                         "max of (phi2 - phi) and (phi - phi1); <= tol required")


def check_cone_monotonicity(sol):
    """d_e(phi1 - phi) <= 0 for every unit direction e of the closed cone
    Con(e_S1, e_xi2), through its supremum over the cone at each node:
    strict (< tol) in the open region, which leaves out the shock row, and
    non-strict (<= tol) on the shock row."""
    tol, nodes = grid_tolerance(sol), sol.mesh.nodes
    sup = cone_supremum(sol.config.state1.gradient(nodes) - sol.gradient(), sol.config.e_s1)
    on_shock = np.zeros(sol.phi.shape, dtype=bool)
    on_shock[0, ENDPOINT_SKIP:-ENDPOINT_SKIP] = True
    region, shock_row = _worst_at(sup, _interior_mask(sol) & ~on_shock, nodes), _worst_at(sup, on_shock, nodes)
    worst, loc = max(region, shock_row, key=lambda r: r[0])
    return CheckRecord(
        name="cone_monotonicity",
        passed=bool(region[0] < tol and shock_row[0] <= tol),
        mandatory=True,
        worst=worst,
        tolerance=tol,
        location=loc,
        note="sup over the closed cone: strict in the region, non-strict on the shock row",
        details={"region": region[0], "shock_row": shock_row[0]},
    )


def check_wedge_monotonicity(sol):
    """d_{nu_w}(phi - phi2) <= 0 within tolerance at every node."""
    nu_w = sol.config.wedge_normal()
    diff = sol.gradient() - sol.config.state2.gradient(sol.mesh.nodes)
    return _bound_record(sol, "wedge_monotonicity", (diff * nu_w).sum(-1), _interior_mask(sol),
                         "max of d_nu_w(phi - phi2); <= tol required")


def _second_derivative(t, f):
    """Three-point second derivative on a nonuniform grid."""
    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    return 2.0 * (hm * f[2:] - (hm + hp) * f[1:-1] + hp * f[:-2]) / (hm * hp * (hm + hp))


def check_graph_and_convexity(sol):
    """Graph/tangent bounds plus strict convexity of the shock, cross-validated in 3 cone directions.

    The shock must be a graph with slopes between the endpoint tangents and
    discrete f'' <= tol everywhere with f'' < 0 on the middle 80% of the arc,
    tol the grid tolerance, in its own direction and the two interior cone
    directions.  At theta_w = pi/2, where the cone is a line, the flat-shock
    exemption applies: |f''| < FLAT_TOL is asserted instead.
    """
    shock, tol = sol.shock, grid_tolerance(sol)
    degenerate = sol.config.cone_degenerate
    base_dirs = [np.asarray(shock.e, dtype=float)]
    if not degenerate:
        base_dirs += interior_cone_directions(sol.config.e_s1)
    details = {}
    verdicts = []
    worst = -math.inf
    k = ENDPOINT_SKIP
    for idx, e in enumerate(base_dirs):
        cur = ShockCurve(e=e, points=shock.points, tau_p1=shock.tau_p1, tau_p2=shock.tau_p2)
        try:
            t, s, slopes = cur.graph_slopes()
        except GraphPropertyLost:
            verdicts.append(False)
            details[f"dir_{idx}_graph"] = "T not increasing"
            worst = math.inf  # no f'' at all: the worst possible
            continue
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
            verdicts.append(flat < FLAT_TOL and slope_exc <= tol)
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
    passed = all(verdicts)
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
        tolerance=FLAT_TOL if degenerate else tol,
        note=note,
        details=details,
    )


def check_phi_tau_tau_equivalence(sol):
    """Diagnostic: sign agreement between phi_tautau of phi - phi1 near the
    shock and -f'' of the graph (noisy near endpoints; never gates)."""
    shock = sol.shock
    fpp = _second_derivative(shock.t_values, shock.s_values)
    interp = sol.mesh.interpolant((sol.phi - sol.config.state1.potential(sol.mesh.nodes)).reshape(-1))
    h = sol.mesh.max_spacing
    eps = TAU_OFFSET * h
    nu = shock.normals()
    tau = shock.tangents()
    inner = shock.points[1:-1] + eps * nu[1:-1]
    steps = np.array([eps, 0.0, -eps])[:, None, None] * tau[1:-1]
    plus, mid, minus = interp((inner + steps).reshape(-1, 2)).reshape(3, -1)
    ptt = (plus - 2 * mid + minus) / eps ** 2
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


def check_tangent_distance(sol):
    """Diagnostic: distance from O0 (the origin) to the tangent lines of
    sol.shock along the curve should vary monotonically between the endpoint
    tangent distances."""
    tau = sol.shock.tangents()
    pts = sol.shock.points
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

    def scaled_residual(ahead, behind, points, nvec):
        """Largest RH residual at the points, relative to state (1)'s flux and potential."""
        m, p = rh_residual(ahead, behind, points, nvec)
        flux_scale = np.maximum(1.0, np.abs(cfg.state1.rho * (cfg.state1.gradient(points) @ nvec)))
        pot_scale = np.maximum(1.0, np.abs(cfg.state1.potential(points)))
        return float(np.max([np.abs(m) / flux_scale, np.abs(p) / pot_scale]))

    # incident shock: states (0) and (1) across xi1 = xi1_0, normal (1, 0)
    y0 = max(cfg.p0[1], 1.0)
    incident = np.array([[inc.xi1_0, y0 * frac] for frac in (1.1, 1.5, 2.0)])
    worst = scaled_residual(cfg.state0, cfg.state1, incident, np.array([1.0, 0.0]))
    details = {"incident_worst": worst, "p0p1_worst": None}
    if cfg.has_sonic_arc and not cfg.cone_degenerate:
        nvec = np.array([inc.u1 - cfg.state2.u, -cfg.state2.v])
        nvec = nvec / np.linalg.norm(nvec)
        segment = cfg.p0 + np.array([0.25, 0.5, 0.75])[:, None] * (cfg.p1 - cfg.p0)
        details["p0p1_worst"] = scaled_residual(cfg.state1, cfg.state2, segment, nvec)
        worst = max(worst, details["p0p1_worst"])
    return CheckRecord(
        name="far_field",
        passed=bool(worst < FARFIELD_TOL),
        mandatory=True,
        worst=worst,
        tolerance=FARFIELD_TOL,
        note="relative RH residuals of the exact exterior states",
        details=details,
    )


CHECKS = (check_ellipticity, check_shock_inequalities, check_pinching, check_cone_monotonicity,
          check_wedge_monotonicity, check_graph_and_convexity, check_far_field,
          check_phi_tau_tau_equivalence, check_tangent_distance)


def full_report(sol, metadata_hash=""):
    """Run every check of CHECKS, in order; verdict = all mandatory checks pass."""
    checks = [check(sol) for check in CHECKS]
    verdict = all(c.passed for c in checks if c.mandatory)
    return AdmissibilityReport(
        checks=checks, verdict=verdict, grid_tol=grid_tolerance(sol), metadata_hash=metadata_hash
    )
