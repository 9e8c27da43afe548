"""Rankine-Hugoniot machinery and the reflection-point algebra.

Across a shock the potential flow jump conditions are continuity of the
mass flux rho*Dphi.nu and of the potential phi itself; the entropy condition
selects jumps where density increases in the pseudo-flow direction.

The incident shock is the vertical half-line xi1 = xi1_0 separating state (0)
at rest from state (1) moving with (u1, 0).  At the reflection point P0 (where
the incident shock meets the wedge boundary) a uniform state (2) must satisfy
three conditions: slip along the wedge, phi2 = phi1, and the mass flux jump
against state (1).  With the slip condition (u2, v2) = u2*(1, tan(theta_w))
and phi-continuity fixing k2, the system collapses to one scalar equation
F(u2) = 0 whose two entropic roots are the weak and strong states (2).  It
is solved as G = F/rho2 = 0 (`_mismatch`): G has F's roots and sign on the
entropic window and, as rho1/rho2 <= 1 there, no term of it overflows.

Every 1-D solve here goes through one bracketed ITP helper,
`_bracketed_root`: the u2 roots, xi1_bar of the normal reflection, theta_d
(a signed existence margin), theta_s (Mach - 1) and rho^c.  ITP keeps a
bracket with a sign change, as bisection does, and never takes more than
ITP_N0 steps beyond bisection's count, but it interpolates, so it converges
superlinearly on the smooth roots here.  No derivative is used, since the
roots near detachment can be nearly tangent.  Each angle samples G once on
its entropic window (`_window_scan`); the root count and the lobe extremum
both read that scan.  `angle_diagram` finds theta_d once and brackets
theta_s above it, refining only the weak (lowest) root at each probed angle.

G is one function, `_mismatch`, for the scan (an ndarray) and for every
refinement (floats in, floats out): a float evaluation is about ten times
cheaper than one through numpy scalars and bit-identical to it, as both call
libm `pow` (numpy's array power is a SIMD `pow`; its last ulp may differ).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BracketingFailure,
    DetachedWedgeAngle,
    NoCompression,
    NonpositiveDensity,
    RootSeparationFailure,
)
from .gas import UniformState, make_uniform_state

# Scan and root-finding controls (see module notes: bracketed ITP steps only,
# no derivative methods; roots near detachment can be nearly tangent).
SCAN_POINTS = 10_000                 # samples of G per entropic window
BISECT_STEPS = 120                   # cap on the steps of one bracketed root
ITP_K1 = 0.2                         # truncation: ITP_K1 * (b - a)^2 / (b0 - a0)
ITP_N0 = 2                           # steps allowed beyond bisection's count
ANGLE_TOL = 1e-10                    # bracket width of theta_d and theta_s
SONIC_TOL = 1e-8                     # |Mach - 1| counted as sonic
NEAR_SONIC_SIGMA = 0.1               # Mach in (1 - NEAR_SONIC_SIGMA, 1) counted as near sonic
NORMAL_ANGLE_TOL = 1e-14             # |theta_w - pi/2| treated as normal reflection


@dataclass(frozen=True)
class IncidentData:
    """Incident-shock data: state-(1) velocity, shock location, k1, c1."""

    u1: float
    xi1_0: float
    k1: float
    c1: float


@dataclass(frozen=True)
class State2Pair:
    """Weak and strong solutions of the reflection-point system at one angle.

    mach_p0_weak is |Dphi2(P0)|/c2 for the weak root; it is +inf at
    theta_w = pi/2 where P0 recedes to infinity along the wall.
    """

    weak: UniformState
    strong: UniformState
    mach_p0_weak: float


@dataclass(frozen=True)
class AngleDiagram:
    """Transition angles and the attachment criterion for one parameter set."""

    theta_d: float
    theta_s: float
    rho_c: float
    attachment_possible: bool


class Regime(Enum):
    SUPERSONIC = "supersonic"
    SONIC = "sonic"
    SUBSONIC_NEAR_SONIC = "subsonic_near_sonic"
    SUBSONIC_AWAY = "subsonic_away_from_sonic"


def _incident_speed(r0, r1, g):
    """u1 behind the incident shock from rho0 < rho1 (closed form below)."""
    return math.sqrt(2.0 * (r1 - r0) * (r1 ** (g - 1.0) - r0 ** (g - 1.0)) / ((g - 1.0) * (r1 + r0)))


def incident_state(params):
    """Solve the Rankine-Hugoniot conditions across the vertical incident shock.

    Mass flux and phi-continuity (with k0 = 0) give closed forms

        u1^2   = 2*(rho1-rho0)*(rho1^(g-1)-rho0^(g-1)) / ((g-1)*(rho1+rho0)),
        xi1_0  = rho1*u1/(rho1-rho0),
        k1     = -u1*xi1_0.

    Raises NoCompression when rho1 <= rho0.
    """
    r0, r1 = params.rho0, params.rho1
    if not r1 > r0:
        raise NoCompression("incident shock needs rho1 > rho0")
    u1 = _incident_speed(r0, r1, params.gamma)
    xi1_0 = r1 * u1 / (r1 - r0)
    return IncidentData(u1=u1, xi1_0=xi1_0, k1=-u1 * xi1_0, c1=params.c1)


def state0(params):
    """Uniform state (0): at rest, k = 0, density rho0."""
    return make_uniform_state(0.0, 0.0, 0.0, params)


def state1(params, inc=None):
    """Uniform state (1) behind the incident shock."""
    inc = inc or incident_state(params)
    return make_uniform_state(inc.u1, 0.0, inc.k1, params)


def rh_residual(left, right, points, normal):
    """Rankine-Hugoniot residuals between two uniform states at points.

    points is one point of shape (2,) or an array of points (..., 2).
    Returns (mass_jump, potential_jump), each of shape (...), where

        mass_jump      = [rho(|Dphi|^2, phi) Dphi . nu],
        potential_jump = [phi],

    evaluated left-minus-right with the states' stored densities.  Both
    vanish iff a point can lie on a valid discontinuity between the states
    with that normal.
    """
    points = np.asarray(points, dtype=float)
    nu = np.asarray(normal, dtype=float)

    def mass_flux(st):
        return st.rho * np.sum(st.gradient(points) * nu, axis=-1)

    return mass_flux(left) - mass_flux(right), left.potential(points) - right.potential(points)


def entropy_satisfied(upstream_rho, downstream_rho):
    """True iff density increases across the shock in the pseudo-flow direction."""
    if upstream_rho <= 0.0 or downstream_rho <= 0.0:
        raise NonpositiveDensity("entropy check needs positive densities")
    return downstream_rho > upstream_rho


# ----------------------------------------------------------------------
# The reduced state-(2) system.

def _mismatch(u2, theta_w, params, inc):
    """G(u2) = F/rho2, F the mass condition rho2*Dphi2.n - rho1*Dphi1.n of state (2) at P0.

    With v2 = u2*tan(th), k2 = -xi1_0*u2*sec^2(th) and n = (u1-u2, -v2) unnormalized,
    G = (u2 - xi1_0)(u1 - u2 sec^2) - (rho1/rho2)((u1 - xi1_0)(u1 - u2) + xi1_0 u2 tan^2).
    On the entropic window rho2 >= rho1, so G has F's roots and sign, and
    rho1/rho2 = (rho1^(g-1)/base)^(1/(g-1)) <= 1 may underflow but never
    overflows.  u2 is a float or the scan's ndarray, and G is of the same type.
    """
    g = params.gamma
    u1, xi10 = inc.u1, inc.xi1_0
    t = math.tan(theta_w)
    sec2 = 1.0 + t * t
    base = params.rho0_pow + (g - 1.0) * (u2 * sec2) * (xi10 - 0.5 * u2)
    ratio = (params.rho1 ** (g - 1.0) / base) ** (1.0 / (g - 1.0))
    return (u2 - xi10) * (u1 - u2 * sec2) - ratio * ((u1 - xi10) * (u1 - u2) + xi10 * u2 * t * t)


def _window_scan(theta_w, params, inc):
    """(grid, G) on SCAN_POINTS points of the entropic window, or None when it is
    empty or unbounded (xi1_0 overflows for a gas of huge rho1).

    The window is where rho2 > rho1 and Dphi2(P0) points down-wedge:
    rho2 = rho1 at u*(xi10 - u/2) = delta*cos^2/(g-1), whose lower root
    bounds it from below, and u2 = xi1_0 caps it from above.  That root is
    taken as c / (xi10 + sqrt(disc)): xi10 - sqrt(disc) cancels to the
    trivial, non-entropic root u2 = 0 of G near pi/2.  The grid
    includes u2 = xi1_0 itself: G there is strictly negative, and the strong
    root crowds against it as theta_w -> pi/2.
    """
    g = params.gamma
    delta = params.rho1 ** (g - 1.0) - params.rho0_pow
    c = 2.0 * delta * math.cos(theta_w) ** 2 / (g - 1.0)
    disc = inc.xi1_0 ** 2 - c
    if not (disc > 0.0 and math.isfinite(inc.xi1_0)):
        return None
    u_lo = c / (inc.xi1_0 + math.sqrt(disc))
    grid = np.linspace(u_lo * (1.0 + 1e-14) + 1e-300, inc.xi1_0, SCAN_POINTS)
    return grid, _mismatch(grid, theta_w, params, inc)


def _bracketed_root(f, a, b, fa, fb, tol=0.0):
    """Root of f in [a, b], a < b, with f(a) = fa and f(b) = fb of opposite signs.

    An ITP iteration (interpolate, truncate, project; Oliveira & Takahashi,
    ACM TOMS 47(1), 2020): each step evaluates f at the regula-falsi point,
    moved toward the midpoint by ITP_K1 * (b - a)^2 / (b0 - a0) and kept
    within the radius from the midpoint that leaves the bracket no wider
    than ITP_N0 bisection steps behind.  It keeps a sign change in [a, b]
    throughout, converges superlinearly on a smooth simple root and takes at
    most ITP_N0 steps more than bisection on any f.  Stops at the first
    exact zero, once b - a <= tol, or (tol = 0) when the midpoint can no
    longer be told from the bracket ends, so small roots keep full relative
    precision; then returns the midpoint.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketingFailure(f"no sign change on [{a}, {b}]")
    width0 = b - a
    for j in range(BISECT_STEPS):
        m = 0.5 * (a + b)
        if b - a <= tol or m == a or m == b:
            return m
        width = b - a
        x = a - fa * (width / (fb - fa))  # regula falsi, NaN (then m) if an end value is infinite
        delta = ITP_K1 * width * width / width0
        x = x + math.copysign(delta, m - x) if abs(m - x) > delta else m
        radius = max(math.ldexp(width0, ITP_N0 - j - 1) - 0.5 * width, 0.0)
        if abs(x - m) > radius:
            x = m + math.copysign(radius, x - m)
        if not a < x < b:  # rounding in the last ulps of the bracket
            x = m
        fx = f(x)
        if fx == 0.0:
            return x
        if fa < 0.0 < fx or fx < 0.0 < fa:
            b, fb = x, fx
        else:
            a, fa = x, fx
    return 0.5 * (a + b)


def _root_brackets(scan):
    """Brackets (a, b, G(a), G(b)) of the roots of G in the window scan, by increasing u2.

    A sign change between neighbouring samples brackets one root; a sample
    where G is exactly 0 is a root and brackets itself.  Values are floats.
    Every sign change flips G > 0 between its samples, so only those places
    and the zero samples are looked at one by one.
    """
    if scan is None:
        return []
    grid, fval = scan
    pos = fval > 0.0
    brackets = []
    for i in np.flatnonzero(np.append(pos[:-1] != pos[1:], False) | (fval == 0.0)).tolist():
        fa = float(fval[i])
        if fa == 0.0:
            brackets.append((float(grid[i]), float(grid[i]), fa, fa))
            continue
        fb = float(fval[i + 1])
        if fa < 0.0 < fb or fb < 0.0 < fa:
            brackets.append((float(grid[i]), float(grid[i + 1]), fa, fb))
    return brackets


def _root(bracket, theta_w, params, inc):
    """The root of G in one bracket of `_root_brackets`, refined by `_bracketed_root`."""
    return _bracketed_root(lambda u: _mismatch(u, theta_w, params, inc), *bracket)


def _weak_state(brackets, theta_w, params, inc):
    """Weak state (2) from the first of the brackets alone, and its Mach number at P0.

    rho2 increases with u2 on the entropic window (its base has slope
    (g-1) sec^2(theta_w) (xi1_0 - u2) > 0 there), so the weak state is the
    lowest root and the other brackets need not be refined.
    """
    weak = _pair_from_u2(_root(brackets[0], theta_w, params, inc), theta_w, params, inc)
    speed = (inc.xi1_0 - weak.u) / math.cos(theta_w)
    return weak, speed / weak.c


def _lobe_extremum(scan, theta_w, params, inc):
    """G at the interior lobe maximum over the window; crosses zero at theta_d.

    G is negative at both ends of the entropic window: at the lower end
    rho2 = rho1, so G = -((u1 - u2)^2 + (u2*tan(theta_w))^2), and at
    u2 = xi1_0 the first term vanishes, so
    G = -(rho1/rho2)*((u1 - xi1_0)^2 + (xi1_0*tan(theta_w))^2).  G is
    therefore positive between the weak and strong roots, and the lobe
    maximum is positive iff both roots exist.
    """
    grid, fval = scan
    i = int(np.argmax(fval))
    a, b = grid[[max(i - 1, 0), min(i + 1, len(grid) - 1)]].tolist()
    # golden-section refine the smooth lobe maximum
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _mismatch(c, theta_w, params, inc)
    fd = _mismatch(d, theta_w, params, inc)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _mismatch(c, theta_w, params, inc)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _mismatch(d, theta_w, params, inc)
    u_star = 0.5 * (a + b)
    return _mismatch(u_star, theta_w, params, inc), u_star


def _pair_from_u2(u2, theta_w, params, inc):
    """Uniform state (2) from the reduced unknown u2; RootSeparationFailure where
    its density is past a double (the strong root, gamma near 1, near pi/2)."""
    t = math.tan(theta_w)
    v2 = u2 * t
    k2 = -inc.xi1_0 * u2 * (1.0 + t * t)
    with np.errstate(over="ignore"):
        state = make_uniform_state(u2, v2, k2, params)
    if math.isinf(state.rho):
        raise RootSeparationFailure(
            f"the density of state (2) overflows a double at theta_w={math.degrees(theta_w):.6f} deg"
        )
    return state


def state2_residuals(state, theta_w, params, inc=None):
    """Relative residuals of the three reflection-point conditions at P0.

    Returns (slip, potential, mass), each normalized by the magnitude of the
    terms entering it (so the check is meaningful in float64 even near pi/2,
    where the strong-root fluxes grow like sec^2).  The mass condition uses
    the unit normal nu_S1 = D(phi1-phi2)/|D(phi1-phi2)|.  Computed on floats:
    a uniform state's Dphi and phi at P0 are a few products each.
    """
    inc = inc or incident_state(params)
    return _residuals(state, state1(params, inc), theta_w, inc)


def _residuals(state, s1, theta_w, inc):
    """`state2_residuals` against a given state (1)."""
    x, y = inc.xi1_0, inc.xi1_0 * math.tan(theta_w)  # P0
    r2 = x * x + y * y
    d2x, d2y = state.u - x, state.v - y              # Dphi2(P0)
    d1x, d1y = s1.u - x, s1.v - y                    # Dphi1(P0)
    slip = (-d2x * math.sin(theta_w) + d2y * math.cos(theta_w)) / max(1.0, math.sqrt(d2x * d2x + d2y * d2y))
    phi2_val = -0.5 * r2 + state.u * x + state.v * y + state.k
    phi1_val = -0.5 * r2 + s1.u * x + s1.v * y + s1.k
    pot = (phi2_val - phi1_val) / max(1.0, abs(phi1_val), abs(phi2_val))
    nx, ny = s1.u - state.u, -state.v
    nn = math.sqrt(nx * nx + ny * ny)
    if nn == 0.0:
        return slip, pot, math.nan
    nx, ny = nx / nn, ny / nn
    # Densities of uniform states are xi-independent; the stored values are
    # the well-conditioned evaluation of the closure (recomputing it at a far
    # P0 would add |P0|^2 * eps cancellation noise, nothing else).
    flux2 = state.rho * (d2x * nx + d2y * ny)
    flux1 = s1.rho * (d1x * nx + d1y * ny)
    mass = (flux2 - flux1) / max(1.0, abs(flux1), abs(flux2))
    return slip, pot, mass


def normal_reflection_state(params):
    """Rest state behind the flat vertical reflected shock at theta_w = pi/2.

    Solves the vertical-shock RH pair between state (1) and a state at rest:
    returns (xi1_bar < 0, UniformState).  The root is bracketed by scanning
    g(x) = -x*rho(x) - rho1*(u1 - x) on x < 0 and refined by `_bracketed_root`; the
    entropy condition rho_bar > rho1 is verified.
    """
    inc = incident_state(params)
    g = params.gamma

    def mass_mismatch(x):
        k2 = inc.u1 * x + inc.k1
        # base > rho0^(g-1) on x < 0, as u1 > 0 and k1 = -u1 xi1_0 < 0
        base = params.rho0_pow - (g - 1.0) * k2
        return -x * base ** (1.0 / (g - 1.0)) - params.rho1 * (inc.u1 - x)

    lo = -max(1.0, inc.xi1_0)
    for _ in range(200):
        f_lo = mass_mismatch(lo)
        if f_lo > 0.0:
            break
        lo *= 2.0
    else:
        raise BracketingFailure("normal reflection: no bracket for the vertical shock")
    xbar = _bracketed_root(mass_mismatch, lo, -1e-300, f_lo, mass_mismatch(-1e-300))
    rest = make_uniform_state(0.0, 0.0, inc.u1 * xbar + inc.k1, params)
    if not rest.rho > params.rho1:
        raise BracketingFailure("normal reflection root violates entropy")
    return xbar, rest


def state2_solve(params, theta_w):
    """Both roots of the reflection-point system at wedge angle theta_w.

    The 3x3 system is reduced to a scalar G(u2) = 0 on the entropic window
    (rho2 > rho1, u2 < xi1_0); the two roots, bracketed by a dense scan and
    refined by `_bracketed_root`, are the weak (smaller density, lower u2) and
    strong states.

    At theta_w = pi/2 exactly the system degenerates: the weak root is the
    normal-reflection rest state (v2 = 0); the strong branch diverges
    (rho2 -> inf), so the rest state is returned for both with
    mach_p0_weak = inf.

    Raises DetachedWedgeAngle below the detachment angle.
    """
    if not 0.0 < theta_w <= math.pi / 2.0:
        raise DetachedWedgeAngle(f"theta_w={theta_w} outside (0, pi/2]")
    if abs(theta_w - math.pi / 2.0) < NORMAL_ANGLE_TOL:
        _, rest = normal_reflection_state(params)
        return State2Pair(weak=rest, strong=rest, mach_p0_weak=math.inf)

    inc = incident_state(params)
    scan = _window_scan(theta_w, params, inc)
    brackets = _root_brackets(scan)
    tangent_pair = False
    if not brackets and scan is not None:
        # Possibly a tangent double root the scan cannot split: accept it when
        # the interior lobe extremum of G is indistinguishable from zero against
        # |G| at the window's lower end, the scale of `detachment_angle`'s
        # margin (angles within a few 1e-9 rad of the detachment angle).
        # It stands for both roots, as a bracket of its own that
        # `_bracketed_root` returns as it is.
        lobe, u_star = _lobe_extremum(scan, theta_w, params, inc)
        if abs(lobe) <= -1e-8 * float(scan[1][0]):
            brackets = [(u_star, u_star, 0.0, 0.0)] * 2
            tangent_pair = True
    if not brackets:
        raise DetachedWedgeAngle(f"no reflection states at theta_w={math.degrees(theta_w):.6f} deg")
    if len(brackets) == 1:
        raise RootSeparationFailure(
            f"single sign change at theta_w={math.degrees(theta_w):.6f} deg"
        )
    if len(brackets) > 2:
        raise RootSeparationFailure(
            f"{len(brackets)} entropic roots at theta_w={math.degrees(theta_w):.6f} deg"
        )

    weak, mach_p0_weak = _weak_state(brackets, theta_w, params, inc)
    strong = _pair_from_u2(_root(brackets[1], theta_w, params, inc), theta_w, params, inc)
    pair = State2Pair(weak=weak, strong=strong, mach_p0_weak=mach_p0_weak)
    s1 = state1(params, inc)
    for st in (weak, strong):
        res = _residuals(st, s1, theta_w, inc)
        worst = max(abs(r) for r in res)
        # The mass flux scales with (xi1_0 - u2); once that gap nears the ulp
        # of u2 (strong root as theta_w -> pi/2) the achievable residual is
        # limited by cancellation, so widen the check accordingly.  A tangent
        # double root is located only to sqrt precision.
        gap = max(abs(inc.xi1_0 - st.u), 1e-300)
        allowance = 1e-10 + 64.0 * np.finfo(float).eps * inc.xi1_0 / gap
        if tangent_pair:
            allowance = max(allowance, 1e-6)
        if worst > allowance:
            raise RootSeparationFailure(
                f"reflection-point residual {worst:.2e} exceeds {allowance:.2e} at "
                f"theta_w={math.degrees(theta_w):.6f} deg"
            )
    return pair


def detachment_angle(params):
    """Smallest wedge angle with real reflection states, to ANGLE_TOL.

    The existence margin is the maximum of G over the entropic window
    (positive iff G crosses zero, see `_lobe_extremum`): the largest scan
    sample where the scan brackets two roots, the refined lobe maximum
    otherwise, which stays resolvable even when the two roots are closer
    than the scan spacing.  It is taken relative to |G| at the window's
    lower end, (u1 - u2)^2 + (u2*tan(theta_w))^2, and squashed by tanh into
    (-1, 1): continuous in theta_w, with the sign of the maximum, and
    without the growth of G toward pi/2 that would stall the interpolation
    of `_bracketed_root`.  Each probed angle samples G once.
    """
    inc = incident_state(params)
    lo, hi = 0.01, math.pi / 2.0 - 0.01

    def margin(theta):
        scan = _window_scan(theta, params, inc)
        if scan is None:
            return -1.0
        if len(_root_brackets(scan)) >= 2:
            top = float(np.max(scan[1]))
        else:
            top = _lobe_extremum(scan, theta, params, inc)[0]
        return math.tanh(top / -float(scan[1][0]))  # G < 0 at the lower end

    f_hi = margin(hi)
    if not f_hi > 0.0:
        raise BracketingFailure("no reflection states even near pi/2")
    f_lo = margin(lo)
    if f_lo > 0.0:
        raise BracketingFailure("reflection states persist at 0.01 rad; no detachment bracket")
    return _bracketed_root(margin, lo, hi, f_lo, f_hi, tol=ANGLE_TOL)


def sonic_angle(params):
    """Angle where the weak state (2) is exactly sonic at P0, to ANGLE_TOL.

    Near pi/2 state (2) is supersonic at P0 and near the detachment angle it
    is subsonic, so mach - 1 brackets a sign change on (theta_d, pi/2).
    """
    return _sonic_angle(params, detachment_angle(params))


def _sonic_angle(params, theta_d):
    inc = incident_state(params)

    def mach_minus_one(theta):
        brackets = _root_brackets(_window_scan(theta, params, inc))
        if not brackets:
            raise DetachedWedgeAngle(
                f"no reflection states at theta_w={math.degrees(theta):.6f} deg"
            )
        return _weak_state(brackets, theta, params, inc)[1] - 1.0

    lo = theta_d + 1e-7
    hi = math.pi / 2.0 - 1e-4
    f_lo = mach_minus_one(lo)
    f_hi = mach_minus_one(hi)
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise BracketingFailure(
            f"mach-1 does not change sign on ({lo}, {hi}): {f_lo:.3e}, {f_hi:.3e}"
        )
    return _bracketed_root(mach_minus_one, lo, hi, f_lo, f_hi, tol=ANGLE_TOL)


def critical_density(params_gamma, rho0):
    """Density rho^c with u1(rho^c) = c1(rho^c): attachment becomes possible above it.

    u1/c1 -> sqrt(2/(gamma-1)) as rho1 -> inf, so for gamma >= 3 the incident
    flow is subsonic relative to c1 for every rho1 and rho^c = +inf is
    returned (the dichotomy u1 <= c1 iff rho1 <= rho^c then holds vacuously).
    """
    g = params_gamma
    if g <= 1.0 or rho0 <= 0.0:
        raise NonpositiveDensity("need gamma > 1 and rho0 > 0")

    def mismatch(r1):
        return _incident_speed(rho0, r1, g) - r1 ** ((g - 1.0) / 2.0)

    if g >= 3.0:
        return math.inf
    hi = 2.0 * rho0
    while mismatch(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e14 * rho0:
            return math.inf
    lo = rho0 * (1.0 + 1e-12)
    f_lo = mismatch(lo)
    if f_lo >= 0.0:
        raise BracketingFailure("u1 - c1 not negative just above rho0")
    return _bracketed_root(mismatch, lo, hi, f_lo, mismatch(hi), tol=1e-12 * max(1.0, lo))


def attachment_possible(params):
    """True iff u1 > c1 for the given data (shock may attach to the vertex)."""
    return incident_state(params).u1 > params.c1


def angle_diagram(params):
    """Detachment angle, sonic angle, rho^c, and the attachment flag."""
    theta_d = detachment_angle(params)
    return AngleDiagram(
        theta_d=theta_d,
        theta_s=_sonic_angle(params, theta_d),
        rho_c=critical_density(params.gamma, params.rho0),
        attachment_possible=attachment_possible(params),
    )


def mach_regime(mach):
    """Regime of the weak state (2) from its Mach number |Dphi2(P0)|/c2 at P0.

    Sonic within SONIC_TOL of 1, supersonic above that, subsonic-near-sonic
    on (1 - NEAR_SONIC_SIGMA, 1), subsonic-away-from-sonic at or below it.
    NEAR_SONIC_SIGMA is a reporting convention, not a claim about the true
    regularity threshold.
    """
    if abs(mach - 1.0) <= SONIC_TOL:
        return Regime.SONIC
    if mach > 1.0:
        return Regime.SUPERSONIC
    if mach > 1.0 - NEAR_SONIC_SIGMA:
        return Regime.SUBSONIC_NEAR_SONIC
    return Regime.SUBSONIC_AWAY


def classify_regime(params, theta_w):
    """Regime of the weak state (2) at wedge angle theta_w (see mach_regime)."""
    return mach_regime(state2_solve(params, theta_w).mach_p0_weak)
