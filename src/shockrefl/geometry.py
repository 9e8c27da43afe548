"""Geometry of the self-similar reflection: domain skeleton and shock graph.

The elliptic region Omega sits between four boundary arcs: the curved
reflected shock (free boundary), the sonic arc of state (2) (supersonic
case; it collapses to the reflection point otherwise), the wedge face and
the symmetry segment.  The shock is a graph S = f_e(T) in any direction e
from the open cone spanned by e_S1 (the straight-shock direction) and the
vertical; the wedge interior normal nu_w always lies in that cone and is
the direction used by the solver.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AttachedShockDetected,
    DegenerateSonicArc,
    GraphPropertyLost,
    TooFewSamples,
    ZeroVector,
)
from .gas import GasParams, UniformState
from .relations import (
    NORMAL_ANGLE_TOL,
    IncidentData,
    Regime,
    incident_state,
    mach_regime,
    normal_reflection_state,
    state0,
    state1,
    state2_solve,
)

ATTACH_EPS_FACTOR = 1e-3  # attached-shock trigger: xi1(P2) > -factor * c2
E_XI2 = (0.0, 1.0)        # the vertical edge of the monotonicity cone


def cone_supremum(g, e_s1):
    """sup of g . e over the unit directions e of the closed cone Con(e_S1, e_xi2),
    for each vector g along the last axis.

    g . e is linear in e: the supremum is |g| where g points into the open cone
    and max(g . e_S1, g . e_xi2) otherwise.  At theta_w = pi/2 the cone is a
    line (e_S1 = -e_xi2) with no interior, so only the two edges count.
    """
    g, e_s1, e_xi2 = np.asarray(g, dtype=float), np.asarray(e_s1, dtype=float), np.array(E_XI2)

    def cross(a, b):
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

    # inside: e_xi2 -> g -> e_S1 turns one way; turn = 0 for the line at pi/2
    turn = cross(e_xi2, e_s1)
    inside = (turn * cross(e_xi2, g) > 0.0) & (turn * cross(g, e_s1) > 0.0)
    edges = np.maximum((g * e_s1).sum(-1), (g * e_xi2).sum(-1))
    return np.where(inside, np.hypot(g[..., 0], g[..., 1]), edges)


def lambda_contains(xi, theta_w):
    """Membership test for Lambda = upper half-plane minus the solid wedge.

    The wedge interior is {xi1 > 0, 0 < xi2*cos(theta) < xi1*sin(theta)}.
    """
    xi = np.asarray(xi, dtype=float)
    x1, x2 = xi[..., 0], xi[..., 1]
    upper = x2 > 0.0
    in_wedge = (x1 > 0.0) & (x2 * math.cos(theta_w) < x1 * math.sin(theta_w))
    return upper & ~in_wedge


@dataclass(frozen=True, eq=False)
class ReflectionConfiguration:
    """Geometric skeleton of one reflection configuration.

    Points (all shape-(2,) arrays): p0 reflection point, p1 shock/sonic-arc
    corner (p1 = p0 in the subsonic and sonic cases), p3 wedge vertex
    (origin), p4 sonic-arc/wedge corner.  The shock foot P2 on the symmetry
    axis is a free-boundary unknown: it is the last point of the shock.
    The closed forms of states (0), (1), (2) ride along for boundary data.
    e_s1 and E_XI2 span the monotonicity cone Con(e_S1, e_xi2); at
    theta_w = pi/2 it has empty interior and cone_degenerate is true.
    """

    theta_w: float
    p0: np.ndarray
    p1: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    sonic_center: np.ndarray
    sonic_radius: float
    regime: Regime
    params: GasParams
    incident: IncidentData
    state0: UniformState
    state1: UniformState
    state2: UniformState
    e_s1: np.ndarray

    @property
    def cone_degenerate(self):
        """The cone has empty interior: theta_w = pi/2, where state (2) is at rest (v2 = 0)."""
        return self.state2.v == 0.0

    @property
    def attach_eps(self):
        return ATTACH_EPS_FACTOR * self.sonic_radius

    @property
    def has_sonic_arc(self):
        return self.regime is Regime.SUPERSONIC

    def wedge_normal(self):
        """Interior unit normal on the wedge face, nu_w = (-sin, cos)(theta_w)."""
        return np.array([-math.sin(self.theta_w), math.cos(self.theta_w)])

    def shock_curve(self, points):
        """The shock through points (P1 first) as a graph in the wedge normal,
        leaving P1 along e_S1 and meeting the axis vertically."""
        return ShockCurve(e=self.wedge_normal(), points=points, tau_p1=self.e_s1.copy(),
                          tau_p2=np.array(E_XI2))


def _cone_dirs_from_states(u1, state2):
    """e_S1, the edge of the monotonicity cone Con(e_S1, e_xi2) other than E_XI2.

    e_S1 = -(v2, u1-u2)/|.| is parallel to the straight shock S1 and oriented
    with e_S1 . Dphi2(P0) > 0.  At theta_w = pi/2 the weak state has v2 = 0 and
    e_S1 = -E_XI2: the cone degenerates to the vertical axis.
    """
    vec = np.array([state2.v, u1 - state2.u])
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        raise ZeroVector("e_S1 undefined: state (2) coincides with state (1)")
    return -vec / nrm


def interior_cone_directions(e_s1):
    """The shock graph's cross-check directions in the open cone Con(e_S1, e_xi2),
    at 30% and 70% of the angle from e_xi2 to e_S1 (by angle: the cone is nearly a
    half-plane for steep wedges, so linear combinations would pile up near e_S1)."""
    e_s1 = np.asarray(e_s1, dtype=float)
    if np.linalg.norm(e_s1) < 1e-14:
        raise ZeroVector("cone edge direction degenerated")
    a0 = math.atan2(E_XI2[1], E_XI2[0])
    span = (math.atan2(e_s1[1], e_s1[0]) - a0) % (2.0 * math.pi)
    return [np.array([math.cos(a0 + t * span), math.sin(a0 + t * span)]) for t in (0.3, 0.7)]


def build_configuration(params, theta_w):
    """Assemble the reflection skeleton at wedge angle theta_w.

    State (2) is the weak root of :func:`state2_solve`, which raises
    DetachedWedgeAngle below the detachment angle.

    Supersonic case: P1 is the first intersection of the straight shock
    S1 = {phi1 = phi2} with the sonic circle |xi - O2| = c2, walking from P0
    along e_S1 (so e_S1 = (P1-P0)/|P1-P0| and the straight segment P0P1 lies
    outside the circle); P4 = O2 + c2*(cos, sin)(theta_w) is the circle/wedge
    intersection on the P0 side.  Subsonic/sonic cases: P1 = P4 = P0 and the
    sonic arc collapses to the reflection point.

    At theta_w = pi/2 the skeleton is the normal-reflection limit: vertical
    shock at xi1_bar capped by the sonic arc of the rest state.
    """
    inc = incident_state(params)

    if abs(theta_w - math.pi / 2.0) < NORMAL_ANGLE_TOL:
        xbar, st2 = normal_reflection_state(params)
        c2 = st2.c
        e_s1 = _cone_dirs_from_states(inc.u1, st2)
        p0 = np.array([0.0, c2])
        p1 = np.array([xbar, math.sqrt(c2 * c2 - xbar * xbar)])
        p4 = p0.copy()
        center = np.zeros(2)
        regime = Regime.SUPERSONIC
    else:
        pair = state2_solve(params, theta_w)
        st2 = pair.weak
        c2 = st2.c
        e_s1 = _cone_dirs_from_states(inc.u1, st2)
        p0 = np.array([inc.xi1_0, inc.xi1_0 * math.tan(theta_w)])
        center = np.array([st2.u, st2.v])
        regime = mach_regime(pair.mach_p0_weak)
        if regime is Regime.SUPERSONIC:
            # first crossing of the sonic circle from P0 along e_S1
            d = p0 - center
            b_half = float(e_s1 @ d)
            disc = b_half * b_half - (float(d @ d) - c2 * c2)
            if disc <= 0.0:
                raise DegenerateSonicArc("straight reflected shock does not reach the sonic circle")
            t_near = -b_half - math.sqrt(disc)
            if t_near <= 0.0:
                raise DegenerateSonicArc("P0 is not outside the sonic circle")
            p1 = p0 + t_near * e_s1
            p4 = center + c2 * np.array([math.cos(theta_w), math.sin(theta_w)])
            if np.linalg.norm(p1 - p4) < 1e-8 * c2:
                raise DegenerateSonicArc("sonic arc endpoints P1, P4 coincide")
        else:
            p1 = p0.copy()
            p4 = p0.copy()

    return ReflectionConfiguration(
        theta_w=theta_w,
        p0=p0,
        p1=p1,
        p3=np.zeros(2),
        p4=p4,
        sonic_center=center,
        sonic_radius=c2,
        regime=regime,
        params=params,
        incident=inc,
        state0=state0(params),
        state1=state1(params, inc),
        state2=st2,
        e_s1=e_s1,
    )


_COLD_CONTROL_FRACTION = 0.8


def _cold_control_points(config):
    """Control polygon (P1, Q, foot) of the cold-start Bezier.

    Q sits on the P1 tangent line (direction e_S1) at 80% of the way to the
    axis and the foot directly below it, so the quadratic Bezier leaves P1
    along the straight shock and meets the axis vertically (the C1 condition
    for the reflected extension).  At theta_w = pi/2 this degenerates to the
    exact flat shock.
    """
    e = config.e_s1
    if abs(e[1]) < 1e-14:
        raise GraphPropertyLost("straight shock direction parallel to the axis")
    t_axis = -config.p1[1] / e[1]
    q = config.p1 + _COLD_CONTROL_FRACTION * t_axis * e
    foot = np.array([q[0], 0.0])
    if foot[0] > -config.attach_eps:
        raise AttachedShockDetected(
            f"cold-start shock foot xi1={foot[0]:.6f} reaches the wedge vertex"
        )
    return config.p1, q, foot


class ShockCurve:
    """Discrete reflected shock as a graph in a cone direction.

    points run from P1 (index 0) to P2 (last); in the (S, T) frame
    S = x . e, T = x . e_perp with e_perp chosen so e_perp . tau_p1 > 0,
    which makes T increase from P1 to P2.  tau_p1/tau_p2 are unit tangents
    at the endpoints directed into the curve.

    The curve behind the points is the cubic-spline interpolant of the graph
    f_e(T) through the sample nodes (not-a-knot ends).  Interpolation, not
    smoothing: the sampled f values are the discrete free-boundary unknowns,
    and any fitted surrogate that disagrees with them at the nodes feeds a
    limit cycle into the fixed-point iteration.
    """

    def __init__(self, e, points, tau_p1, tau_p2):
        self.e = np.asarray(e, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.tau_p1 = np.asarray(tau_p1, dtype=float)
        self.tau_p2 = np.asarray(tau_p2, dtype=float)
        if self.points.shape[0] < 5:
            raise TooFewSamples("shock curve needs at least 5 samples")

    @property
    def e_perp(self):
        cand = np.array([-self.e[1], self.e[0]])
        if float(cand @ self.tau_p1) < 0.0:
            cand = -cand
        return cand

    @property
    def t_values(self):
        return self.points @ self.e_perp

    @property
    def s_values(self):
        return self.points @ self.e

    def endpoint_slopes(self):
        """Graph slopes f'_e at P1 and P2 from the endpoint tangents."""
        ep = self.e_perp
        s1 = float(self.tau_p1 @ self.e) / float(self.tau_p1 @ ep)
        s2 = float(self.tau_p2 @ self.e) / float(self.tau_p2 @ ep)
        return s1, s2

    def graph_slopes(self):
        """(T, S, dS/dT) of the samples.  Raises GraphPropertyLost unless T
        strictly increases, i.e. unless the samples are a graph in e."""
        t = self.t_values
        dt = np.diff(t)
        if np.any(dt <= 0.0):
            raise GraphPropertyLost("shock samples are not a graph: T not increasing")
        s = self.s_values
        return t, s, np.diff(s) / dt

    @functools.cached_property
    def _spline(self):
        """The not-a-knot cubic spline of f_e through the samples and its derivative."""
        from scipy.interpolate import CubicSpline

        t, s, _ = self.graph_slopes()
        cs = CubicSpline(t, s, bc_type="not-a-knot")
        return cs, cs.derivative()

    def graph_value(self, t):
        """Interpolated f_e and f'_e at T values (arrays ok)."""
        cs, dcs = self._spline
        t = np.asarray(t, dtype=float)
        return cs(t), dcs(t)

    def eval(self, w):
        """The curve as the mesh's shock side, (point, d point/dw): w = 0 -> P2, w = 1 -> P1."""
        t0, t1 = self._spline[0].x[[0, -1]]
        t = t1 + np.asarray(w, dtype=float) * (t0 - t1)
        f, fd = self.graph_value(t)
        e, ep = self.e, self.e_perp
        return f[..., None] * e + t[..., None] * ep, (t0 - t1) * (fd[..., None] * e + ep)

    def tangents(self, t=None):
        """Unit tangents of the fitted graph, directed from P1 to P2, at the
        samples or at given T values (e.g. the mesh's shock-row nodes)."""
        _, fd = self.graph_value(self.t_values if t is None else t)
        return (fd[:, None] * self.e + self.e_perp) / np.sqrt(1.0 + fd * fd)[:, None]

    def normals(self, t=None):
        """Unit normals of the fitted graph pointing into the subsonic region,
        at the same points as :meth:`tangents`."""
        _, fd = self.graph_value(self.t_values if t is None else t)
        return -(self.e - fd[:, None] * self.e_perp) / np.sqrt(1.0 + fd * fd)[:, None]

    def check_graph(self, tol=1e-9):
        """Enforce the monotone-graph and tangent-slope bounds on the samples.

        T must be strictly increasing and every discrete slope dS/dT must lie
        between the endpoint slopes (P2 slope below, P1 slope above) within
        tol.  Raises GraphPropertyLost otherwise.
        """
        _, _, slopes = self.graph_slopes()
        hi, lo = self.endpoint_slopes()
        scale = max(1.0, abs(hi), abs(lo))
        if np.any(slopes > hi + tol * scale) or np.any(slopes < lo - tol * scale):
            worst = float(max(np.max(slopes - hi), np.max(lo - slopes)))
            raise GraphPropertyLost(
                f"tangent-slope bounds violated by {worst:.3e} (bounds [{lo:.6f}, {hi:.6f}])"
            )
        return slopes


def initial_shock(config, n=65):
    """Cold-start shock: quadratic Bezier from P1 to the axis.

    Leaves P1 along the straight reflected shock and meets the axis
    vertically; convex by construction.  Raises AttachedShockDetected when
    its foot reaches the wedge vertex.
    """
    p1, q, foot = _cold_control_points(config)
    u = np.linspace(0.0, 1.0, n)[:, None]
    pts = (1.0 - u) ** 2 * p1 + 2.0 * u * (1.0 - u) * q + u ** 2 * foot
    curve = config.shock_curve(pts)
    curve.check_graph(tol=1e-7)
    return curve
