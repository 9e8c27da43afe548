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
F(u2) = 0 whose two entropic roots are the weak and strong states (2).

Every 1-D solve here is bracketed bisection through one helper, `_bisect`:
the u2 roots, xi1_bar of the normal reflection, theta_d (sign of the
existence indicator), theta_s (Mach - 1) and rho^c.  No derivative method
is used, since the roots near detachment can be nearly tangent.  Each angle
samples F once on its entropic window (`_window_scan`); the root count and
the lobe extremum both read that scan.  `angle_diagram` finds theta_d once
and brackets theta_s above it, refining only the weak (lowest) root at each
probed angle.

F is one function, `_mismatch`, for the scan (an ndarray) and for every
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

# Scan/bisection controls (see module notes: bracketed bisection only, no
# derivative methods; roots near detachment can be nearly tangent).
SCAN_POINTS = 10_000                 # samples of F per entropic window
BISECT_STEPS = 120
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


def rh_residual(left, right, point, normal):
    """Rankine-Hugoniot residuals between two uniform states at a point.

    Returns (mass_jump, potential_jump) where

        mass_jump      = [rho(|Dphi|^2, phi) Dphi . nu],
        potential_jump = [phi],

    evaluated left-minus-right with the states' stored densities.  Both
    vanish iff the point can lie on a valid discontinuity between the states
    with that normal.
    """
    point = np.asarray(point, dtype=float)
    nu = np.asarray(normal, dtype=float)
    out_mass = []
    out_phi = []
    for st in (left, right):
        phi = st.potential(point)
        out_mass.append(st.rho * np.sum(st.gradient(point) * nu, axis=-1))
        out_phi.append(phi)
    return out_mass[0] - out_mass[1], out_phi[0] - out_phi[1]


def entropy_satisfied(upstream_rho, downstream_rho):
    """True iff density increases across the shock in the pseudo-flow direction."""
    if upstream_rho <= 0.0 or downstream_rho <= 0.0:
        raise NonpositiveDensity("entropy check needs positive densities")
    return downstream_rho > upstream_rho


# ----------------------------------------------------------------------
# The reduced state-(2) system.

def _mismatch(u2, theta_w, params, inc):
    """F(u2): the mass condition rho2*Dphi2.n - rho1*Dphi1.n of state (2) at P0.

    v2 = u2*tan(th) and k2 = -xi1_0*u2*sec^2(th) are eliminated and n =
    (u1-u2, -v2) is unnormalized (roots are unchanged).  u2 is a float or the
    scan's ndarray, and F is of the same type.  F is only evaluated on the
    entropic window, where rho2^(g-1) = base > 0: its slope in u2 is
    (g-1) sec^2(th) (xi1_0 - u2) > 0, from rho1^(g-1) at the lower end.
    """
    g = params.gamma
    u1, xi10 = inc.u1, inc.xi1_0
    t = math.tan(theta_w)
    sec2 = 1.0 + t * t
    base = params.rho0_pow + (g - 1.0) * (u2 * sec2) * (xi10 - 0.5 * u2)
    try:
        rho2 = abs(base) ** (1.0 / (g - 1.0))
    except OverflowError:  # a float past the largest double: inf, as numpy's array power
        rho2 = math.inf
    lhs = rho2 * (u2 - xi10) * (u1 - u2 * sec2)
    rhs = params.rho1 * ((u1 - xi10) * (u1 - u2) + xi10 * u2 * t * t)
    return lhs - rhs


def _window_scan(theta_w, params, inc):
    """(grid, F) on SCAN_POINTS points of the entropic window, or None when it is
    empty or unbounded (xi1_0 overflows for a gas of huge rho1).

    The window is where rho2 > rho1 and Dphi2(P0) points down-wedge:
    rho2 = rho1 at u*(xi10 - u/2) = delta*cos^2/(g-1), whose lower root
    bounds it from below, and u2 = xi1_0 caps it from above.  That root is
    taken as c / (xi10 + sqrt(disc)): xi10 - sqrt(disc) cancels to the
    trivial, non-entropic root u2 = 0 of F near pi/2.  The grid
    includes u2 = xi1_0 itself: F there is strictly negative, and the strong
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


def _bisect(f, a, b, fa, fb, tol=0.0):
    """Bracketed bisection of f on [a, b], a < b, with f(a) = fa and f(b) = fb.

    Stops at the first exact zero, once b - a <= tol, or (tol = 0) when the
    midpoint can no longer be told from the bracket ends, so small roots keep
    full relative precision.  Unconditionally safe for tangent-prone roots.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketingFailure(f"no sign change on [{a}, {b}]")
    for _ in range(BISECT_STEPS):
        m = 0.5 * (a + b)
        if b - a <= tol or m == a or m == b:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _root_brackets(scan):
    """Brackets (a, b, F(a), F(b)) of the roots of F in the window scan, by increasing u2.

    A sign change between neighbouring samples brackets one root; a sample
    where F is exactly 0 is a root and brackets itself.  Values are floats.
    """
    if scan is None:
        return []
    grid, fval = scan
    sign = np.sign(fval)
    flip = np.append(sign[:-1] * sign[1:] < 0, False)
    lo = np.nonzero(flip | (fval == 0.0))[0]
    hi = lo + flip[lo]
    return list(zip(grid[lo].tolist(), grid[hi].tolist(), fval[lo].tolist(), fval[hi].tolist()))


def _root(bracket, theta_w, params, inc):
    """The root of F in one bracket of `_root_brackets`, refined by bisection."""
    return _bisect(lambda u: _mismatch(u, theta_w, params, inc), *bracket)


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
    """F at the interior lobe maximum over the window; crosses zero at theta_d.

    F is negative at both ends of the entropic window: at u2 = xi1_0 the rho2
    term vanishes, so F = -rho1*((u1 - xi1_0)^2 + (xi1_0*tan(theta_w))^2), and
    at the lower end rho2 = rho1, so F = -rho1*((u1 - u2)^2 + (u2*tan(theta_w))^2).
    F is therefore positive between the weak and strong roots, and the lobe
    maximum is positive iff both roots exist.
    """
    if scan is None:
        return -math.inf, math.nan
    grid, fval = scan
    i = int(np.nanargmax(fval))
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
    """Uniform state (2) from the reduced unknown u2."""
    t = math.tan(theta_w)
    v2 = u2 * t
    k2 = -inc.xi1_0 * u2 * (1.0 + t * t)
    return make_uniform_state(u2, v2, k2, params)


def state2_residuals(state, theta_w, params, inc=None):
    """Relative residuals of the three reflection-point conditions at P0.

    Returns (slip, potential, mass), each normalized by the magnitude of the
    terms entering it (so the check is meaningful in float64 even near pi/2,
    where the strong-root fluxes grow like sec^2).  The mass condition uses
    the unit normal nu_S1 = D(phi1-phi2)/|D(phi1-phi2)|.
    """
    inc = inc or incident_state(params)
    s1 = state1(params, inc)
    p0 = np.array([inc.xi1_0, inc.xi1_0 * math.tan(theta_w)])
    nu_w = np.array([-math.sin(theta_w), math.cos(theta_w)])
    d2 = state.gradient(p0)
    d1 = s1.gradient(p0)
    slip = float(d2 @ nu_w) / max(1.0, float(np.linalg.norm(d2)))
    phi2_val = float(state.potential(p0))
    phi1_val = float(s1.potential(p0))
    pot = (phi2_val - phi1_val) / max(1.0, abs(phi1_val), abs(phi2_val))
    n = np.array([s1.u - state.u, -state.v])
    nn = np.linalg.norm(n)
    if nn == 0.0:
        return slip, pot, math.nan
    n = n / nn
    # Densities of uniform states are xi-independent; the stored values are
    # the well-conditioned evaluation of the closure (recomputing it at a far
    # P0 would add |P0|^2 * eps cancellation noise, nothing else).
    flux2 = state.rho * float(d2 @ n)
    flux1 = s1.rho * float(d1 @ n)
    mass = (flux2 - flux1) / max(1.0, abs(flux1), abs(flux2))
    return slip, pot, mass


def normal_reflection_state(params):
    """Rest state behind the flat vertical reflected shock at theta_w = pi/2.

    Solves the vertical-shock RH pair between state (1) and a state at rest:
    returns (xi1_bar < 0, UniformState).  The root is bracketed by scanning
    g(x) = -x*rho(x) - rho1*(u1 - x) on x < 0 and refined by bisection; the
    entropy condition rho_bar > rho1 is verified.
    """
    inc = incident_state(params)
    g = params.gamma

    def mass_mismatch(x):
        k2 = inc.u1 * x + inc.k1
        base = params.rho0_pow - (g - 1.0) * k2
        if base <= 0.0:
            return math.inf
        return -x * base ** (1.0 / (g - 1.0)) - params.rho1 * (inc.u1 - x)

    lo = -max(1.0, inc.xi1_0)
    for _ in range(200):
        f_lo = mass_mismatch(lo)
        if f_lo > 0.0:
            break
        lo *= 2.0
    else:
        raise BracketingFailure("normal reflection: no bracket for the vertical shock")
    xbar = _bisect(mass_mismatch, lo, -1e-300, f_lo, mass_mismatch(-1e-300))
    rest = make_uniform_state(0.0, 0.0, inc.u1 * xbar + inc.k1, params)
    if not rest.rho > params.rho1:
        raise BracketingFailure("normal reflection root violates entropy")
    return xbar, rest


def state2_solve(params, theta_w):
    """Both roots of the reflection-point system at wedge angle theta_w.

    The 3x3 system is reduced to a scalar F(u2) = 0 on the entropic window
    (rho2 > rho1, u2 < xi1_0); the two roots, bracketed by a dense scan and
    refined by bisection, are the weak (smaller density, lower u2) and
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
    if not brackets:
        # Possibly a tangent double root the scan cannot split: accept it when
        # the interior lobe extremum of F is indistinguishable from zero
        # (angles within ~1e-8 of the detachment angle).  It stands for both
        # roots, as a bracket of its own that bisection returns as it is.
        lobe, u_star = _lobe_extremum(scan, theta_w, params, inc)
        fscale = abs(_mismatch(inc.xi1_0 * (1 - 1e-14), theta_w, params, inc))
        if math.isfinite(lobe) and abs(lobe) <= 1e-8 * max(fscale, 1.0):
            brackets = [(u_star, u_star, 0.0, 0.0)] * 2
            tangent_pair = True
        else:
            raise DetachedWedgeAngle(
                f"no reflection states at theta_w={math.degrees(theta_w):.6f} deg"
            )
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
    for st in (weak, strong):
        res = state2_residuals(st, theta_w, params, inc)
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
    """Smallest wedge angle with real reflection states, to ANGLE_TOL by bisection.

    The existence indicator is the sign of the maximum of F over the entropic
    window (positive iff F crosses zero, see `_lobe_extremum`), which stays
    resolvable even when the two roots are closer than the scan spacing.
    Each probed angle samples F once.
    """
    inc = incident_state(params)
    lo, hi = 0.01, math.pi / 2.0 - 0.01

    def exists(theta):
        scan = _window_scan(theta, params, inc)
        if len(_root_brackets(scan)) >= 2:
            return 1.0
        lobe, _ = _lobe_extremum(scan, theta, params, inc)
        return 1.0 if lobe > 0.0 else -1.0

    f_hi = exists(hi)
    if f_hi < 0.0:
        raise BracketingFailure("no reflection states even near pi/2")
    f_lo = exists(lo)
    if f_lo > 0.0:
        raise BracketingFailure("reflection states persist at 0.01 rad; no detachment bracket")
    return _bisect(exists, lo, hi, f_lo, f_hi, tol=ANGLE_TOL)


def sonic_angle(params):
    """Angle where the weak state (2) is exactly sonic at P0, to ANGLE_TOL by bisection.

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
    return _bisect(mach_minus_one, lo, hi, f_lo, f_hi, tol=ANGLE_TOL)


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
    return _bisect(mismatch, lo, hi, f_lo, mismatch(hi), tol=1e-12 * max(1.0, lo))


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
