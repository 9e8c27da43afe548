import math

import numpy as np
import pytest

from shockrefl import (
    DetachedWedgeAngle,
    GasParams,
    NoCompression,
    NonpositiveDensity,
    Regime,
    classify_regime,
    critical_density,
    detachment_angle,
    entropy_satisfied,
    incident_state,
    normal_reflection_state,
    rh_residual,
    sonic_angle,
    state2_residuals,
    state2_solve,
)
from shockrefl.errors import BracketingFailure, RootSeparationFailure, ShockReflError
from shockrefl.relations import state0, state1


def bisect_u1_oracle(rho0, rho1, g):
    """Independent bisection for u1: the RH pair plus the density closure.

    Unknown u1 with xi1_0 = rho1*u1/(rho1-rho0) and k1 = -u1*xi1_0; the
    consistency condition is rho1^(g-1) = rho0^(g-1) - (g-1)*(k1 + u1^2/2).
    """
    def mismatch(u1):
        xi10 = rho1 * u1 / (rho1 - rho0)
        k1 = -u1 * xi10
        return rho0 ** (g - 1) - (g - 1) * (k1 + 0.5 * u1 * u1) - rho1 ** (g - 1)

    lo, hi = 1e-12, 1.0
    while mismatch(hi) < 0.0:  # mismatch increases with u1 and is negative at 0+
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mismatch(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_incident_state_closed_form_example():
    inc = incident_state(GasParams(1.0, 2.0, 2.0))
    assert inc.u1 == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
    assert inc.xi1_0 == pytest.approx(2.0 * math.sqrt(2.0 / 3.0), rel=1e-14)
    assert inc.k1 == pytest.approx(-4.0 / 3.0, rel=1e-14)
    assert inc.c1 == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_incident_state_matches_bisection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho0 = rng.uniform(0.5, 2.0)
        rho1 = rho0 * rng.uniform(1.05, 8.0)
        g = rng.uniform(1.1, 2.9)
        inc = incident_state(GasParams(rho0, rho1, g))
        assert inc.u1 == pytest.approx(bisect_u1_oracle(rho0, rho1, g), rel=1e-11)


def test_incident_weak_shock_limit_is_acoustic():
    # xi1_0 -> c0 as rho1 -> rho0+
    p0 = 1.3
    c0 = p0 ** ((1.4 - 1.0) / 2.0)
    for k in range(2, 7):
        inc = incident_state(GasParams(p0, p0 * (1.0 + 10.0 ** (-k)), 1.4))
        assert abs(inc.xi1_0 - c0) < 5.0 * 10.0 ** (-k)


def test_incident_no_compression():
    with pytest.raises(NoCompression):
        GasParams(1.0, 1.0, 2.0)


def test_rh_residual_identical_states_and_incident_shock(gas_122):
    s0 = state0(gas_122)
    s1 = state1(gas_122)
    m, p = rh_residual(s1, s1, np.array([0.3, 0.4]), np.array([1.0, 0.0]))
    assert m == 0.0 and p == 0.0
    inc = incident_state(gas_122)
    for y in (0.5, 1.0, 3.0):
        m, p = rh_residual(s0, s1, np.array([inc.xi1_0, y]), np.array([1.0, 0.0]))
        assert abs(m) < 1e-10 and abs(p) < 1e-10
    # residual vanishes identically in xi2 along the shock line
    m, p = rh_residual(s0, s1, np.array([inc.xi1_0 + 0.1, 1.0]), np.array([1.0, 0.0]))
    assert abs(p) > 1e-3


def test_rh_residual_on_points_equals_the_single_point_calls(gas_122):
    """A (3, 2) array of points gives the three single-point residuals, bit for bit."""
    s0, s1 = state0(gas_122), state1(gas_122)
    points = np.array([[0.3, 0.4], [1.7, -2.9], [incident_state(gas_122).xi1_0, 1.1]])
    nu = np.array([0.6, -0.8])
    m, p = rh_residual(s0, s1, points, nu)
    assert m.shape == p.shape == (3,)
    singles = [rh_residual(s0, s1, pt, nu) for pt in points]
    assert np.array_equal(m, [one[0] for one in singles])
    assert np.array_equal(p, [one[1] for one in singles])


def test_entropy_satisfied():
    assert entropy_satisfied(1.0, 2.0)
    assert not entropy_satisfied(2.0, 1.0)
    with pytest.raises(NonpositiveDensity):
        entropy_satisfied(0.0, 1.0)


def test_state2_weak_entropy_compose(gas_122):
    pair = state2_solve(gas_122, math.radians(80.0))
    assert entropy_satisfied(gas_122.rho1, pair.weak.rho)
    assert entropy_satisfied(gas_122.rho1, pair.strong.rho)


def test_state2_at_right_angle_is_normal_reflection(gas_122):
    pair = state2_solve(gas_122, math.pi / 2.0)
    xbar, rest = normal_reflection_state(gas_122)
    assert pair.weak.v == 0.0
    assert pair.weak.u == 0.0
    assert pair.weak.rho == pytest.approx(rest.rho, rel=1e-14)
    assert math.isinf(pair.mach_p0_weak)


def test_state2_weak_root_entropic_next_to_right_angle(gas_122):
    """Within 1e-10 of pi/2 the weak root is the rest state's density, not
    the trivial root u2 = 0 (rho2 = rho0 < rho1) of the reduced equation."""
    _, rest = normal_reflection_state(gas_122)
    pair = state2_solve(gas_122, math.pi / 2.0 - 1e-10)
    assert abs(pair.weak.rho - rest.rho) < 1e-9


def test_state2_against_dense_scan_oracle(gas_122):
    """Brute-force sign-change scan of an independently coded reduction."""
    th = math.radians(85.0)
    inc = incident_state(gas_122)
    u1, xi10 = inc.u1, inc.xi1_0
    g = gas_122.gamma
    t = math.tan(th)
    sec2 = 1.0 + t * t

    def F(u2):
        base = 1.0 + (g - 1.0) * u2 * sec2 * (xi10 - 0.5 * u2)
        rho2 = np.abs(base) ** (1.0 / (g - 1.0))
        return rho2 * (u2 - xi10) * (u1 - u2 * sec2) - 2.0 * (
            (u1 - xi10) * (u1 - u2) + xi10 * u2 * t * t
        )

    grid = np.linspace(1e-9, xi10 * (1 - 1e-12), 1_000_000)
    vals = F(grid)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    brackets = [(grid[i], grid[i + 1]) for i in flips]
    # keep entropic roots only (rho2 > rho1)
    roots = []
    for a, b in brackets:
        for _ in range(80):
            mid = 0.5 * (a + b)
            if F(a) * F(mid) <= 0:
                b = mid
            else:
                a = mid
        u2 = 0.5 * (a + b)
        base = 1.0 + (g - 1.0) * u2 * sec2 * (xi10 - 0.5 * u2)
        if base ** (1.0 / (g - 1.0)) > gas_122.rho1:
            roots.append(u2)
    pair = state2_solve(gas_122, th)
    assert len(roots) == 2
    assert pair.weak.u == pytest.approx(min(roots), rel=1e-7)
    assert pair.strong.u == pytest.approx(max(roots), rel=1e-7)
    # frozen regression of the weak state
    assert pair.weak.u == pytest.approx(0.010878475425420942, rel=1e-10)
    assert pair.weak.rho == pytest.approx(3.330834323791831, rel=1e-12)


def test_state2_residuals_small(gas_122):
    for deg in (60.0, 70.0, 85.0):
        pair = state2_solve(gas_122, math.radians(deg))
        for st in (pair.weak, pair.strong):
            res = state2_residuals(st, math.radians(deg), gas_122)
            assert max(abs(r) for r in res) < 1e-10
        # velocities parallel to the wedge
        assert pair.weak.v == pytest.approx(pair.weak.u * math.tan(math.radians(deg)), rel=1e-12)


def test_detachment_angle_and_tie_breaking(gas_122):
    thd = detachment_angle(gas_122)
    assert thd == pytest.approx(0.949654413375464, abs=1e-9)
    pd = state2_solve(gas_122, thd)
    assert abs(pd.weak.u - pd.strong.u) < 1e-8
    with pytest.raises(DetachedWedgeAngle):
        state2_solve(gas_122, thd - 0.01)
    with pytest.raises(DetachedWedgeAngle):
        state2_solve(gas_122, thd - 1e-6)


def test_weak_incident_shock_has_no_tangent_pair_below_detachment():
    """For a weak incident shock G is about 1e8 times smaller across the
    entropic window than at its top; the tangent-pair test is scaled by |G| at
    the window's lower end, so theta_d gives its pair and 1e-6 rad below it
    is detached."""
    gas = GasParams(1.0, 1.001, 2.0)
    thd = detachment_angle(gas)
    pair = state2_solve(gas, thd)
    assert abs(pair.weak.u - pair.strong.u) < 1e-6
    with pytest.raises(DetachedWedgeAngle):
        state2_solve(gas, thd - 1e-6)


def test_detachment_monotone_in_shock_strength():
    # frozen regression values; stronger incident shock detaches at a larger angle
    thd2 = detachment_angle(GasParams(1.0, 2.0, 2.0))
    thd3 = detachment_angle(GasParams(1.0, 3.0, 2.0))
    assert thd2 == pytest.approx(0.949654413375464, abs=1e-9)
    assert thd3 == pytest.approx(0.993133567940511, abs=1e-9)
    assert thd3 > thd2


def test_detachment_continuity_under_perturbation():
    base = detachment_angle(GasParams(1.0, 2.0, 2.0))
    pert = detachment_angle(GasParams(1.0, 2.0 * (1.0 + 1e-4), 2.0))
    assert abs(pert - base) < 1e-3


def test_sonic_angle(gas_122):
    ths = sonic_angle(gas_122)
    assert ths == pytest.approx(0.972307311915580, abs=1e-9)
    thd = detachment_angle(gas_122)
    assert thd < ths < math.pi / 2.0
    # defining property and endpoint signs
    assert abs(state2_solve(gas_122, ths).mach_p0_weak - 1.0) < 1e-8
    assert state2_solve(gas_122, math.pi / 2.0 - 0.01).mach_p0_weak > 1.0
    assert state2_solve(gas_122, thd + 0.001).mach_p0_weak < 1.0


@pytest.mark.parametrize("params", [(1.0, 2.0, 2.0), (1.0, 1.4, 1.2), (1.0, 3.0, 2.5)])
def test_sonic_angle_refines_the_weak_root_alone(params, monkeypatch):
    """theta_s refines the weak state's Mach number from the lowest root of F
    alone: bit-identical to refining state2_solve's, with about half of its
    scalar F evaluations."""
    from shockrefl import relations

    gas = GasParams(*params)
    theta_d = detachment_angle(gas)
    lo, hi = theta_d + 1e-7, math.pi / 2.0 - 1e-4
    scalar_calls = []
    mismatch = relations._mismatch

    def counted(u2, *args):
        scalar_calls.append(np.ndim(u2) == 0)
        return mismatch(u2, *args)

    monkeypatch.setattr(relations, "_mismatch", counted)
    theta_s = relations._sonic_angle(gas, theta_d)
    fast = sum(scalar_calls)
    scalar_calls.clear()
    full = lambda th: state2_solve(gas, th).mach_p0_weak - 1.0
    ref = relations._bracketed_root(full, lo, hi, full(lo), full(hi), tol=relations.ANGLE_TOL)
    assert theta_s == ref
    assert fast < 0.6 * sum(scalar_calls)


def test_critical_density():
    for g, frozen in ((1.4, 3.262029023083206), (2.0, 4.561552812807612)):
        rc = critical_density(g, 1.0)
        assert rc == pytest.approx(frozen, rel=1e-10)
        inc = incident_state(GasParams(1.0, rc, g))
        assert inc.u1 / inc.c1 == pytest.approx(1.0, abs=1e-8)
    # sign structure
    assert incident_state(GasParams(1.0, 1.0001, 1.4)).u1 < GasParams(1.0, 1.0001, 1.4).c1
    assert incident_state(GasParams(1.0, 100.0, 1.4)).u1 > GasParams(1.0, 100.0, 1.4).c1
    # gamma = 3: u1 - c1 = -rho0 for every rho1, so rho_c is infinite
    assert math.isinf(critical_density(3.0, 1.0))


def test_classify_regime(gas_122):
    thd = detachment_angle(gas_122)
    ths = sonic_angle(gas_122)
    assert classify_regime(gas_122, math.pi / 2.0 - 0.01) is Regime.SUPERSONIC
    assert classify_regime(gas_122, ths) is Regime.SONIC
    assert classify_regime(gas_122, thd + 1e-4) is Regime.SUBSONIC_AWAY
    mid = 0.5 * (thd + ths)
    assert classify_regime(gas_122, mid) is Regime.SUBSONIC_NEAR_SONIC
    with pytest.raises(DetachedWedgeAngle):
        classify_regime(gas_122, thd - 0.05)


def test_mach_single_crossing_on_grid(gas_122):
    thd = detachment_angle(gas_122)
    grid = np.linspace(thd + 1e-5, math.radians(89.9), 200)
    mach = np.array([state2_solve(gas_122, float(t)).mach_p0_weak for t in grid])
    crossings = np.sum(np.sign(mach[:-1] - 1.0) * np.sign(mach[1:] - 1.0) < 0)
    assert crossings == 1


def test_normal_reflection_state(gas_122):
    xbar, rest = normal_reflection_state(gas_122)
    assert xbar == pytest.approx(-math.sqrt(1.5), rel=1e-13)
    assert rest.rho == pytest.approx(10.0 / 3.0, rel=1e-13)
    assert rest.u == 0.0 and rest.v == 0.0
    assert rest.rho > gas_122.rho1  # compression on reflection


@pytest.mark.parametrize("gas", [GasParams(1.0, 2.0, 2.0), GasParams(1.0, 2.0, 1.4)])
def test_angle_diagram_finds_detachment_once(gas, monkeypatch):
    from shockrefl import relations

    calls = []
    original = relations.detachment_angle

    def counted(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(relations, "detachment_angle", counted)
    diagram = relations.angle_diagram(gas)
    assert len(calls) == 1
    assert (diagram.theta_d, diagram.theta_s) == (original(gas), sonic_angle(gas))


def _bisect_while_loop(pred, lo, hi, tol):
    """Reference: the `while hi - lo > tol` loop that moves hi where pred > 0."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _counted(f):
    """f and the list its calls are appended to."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


CUBE_ROOT_OF_2 = 2.0 ** (1.0 / 3.0)
STEP_AT = 0.7390851332151607


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-6])
def test_bracketed_root_keeps_the_bisection_contract(tol):
    """Within tol of the sign change the reference bisection brackets, on a
    smooth root and on a step; on the step, where interpolation has nothing
    to go on, at most one evaluation more than the reference."""
    from shockrefl.relations import _bracketed_root

    cubic = lambda x: x ** 3 - 2.0
    step = lambda x: 1.0 if x > STEP_AT else -1.0
    for f, lo, hi, change in ((cubic, 0.3, 3.1, CUBE_ROOT_OF_2), (step, 0.01, math.pi / 2.0 - 0.01, STEP_AT)):
        counted, calls = _counted(f)
        root = _bracketed_root(counted, lo, hi, f(lo), f(hi), tol=tol)
        ref_counted, ref_calls = _counted(f)
        ref = _bisect_while_loop(ref_counted, lo, hi, tol)
        assert abs(root - change) <= tol
        assert abs(ref - change) <= tol
        if f is step:
            assert len(calls) <= len(ref_calls) + 1


def test_bracketed_root_to_adjacent_floats():
    """tol = 0 runs to adjacent floats: the result and one of its neighbours
    bracket the sign change of x^3 - 2, after at most a third of the
    evaluations the reference bisection needs to get there."""
    from shockrefl.relations import _bracketed_root

    cubic = lambda x: x ** 3 - 2.0
    counted, calls = _counted(cubic)
    root = _bracketed_root(counted, 0.3, 3.1, cubic(0.3), cubic(3.1))
    ref_counted, ref_calls = _counted(cubic)
    _bisect_while_loop(ref_counted, 0.3, 3.1, math.ulp(CUBE_ROOT_OF_2))
    f_root = cubic(root)
    neighbours = (cubic(math.nextafter(root, -math.inf)), cubic(math.nextafter(root, math.inf)))
    assert f_root == 0.0 or any(f_root * f_n < 0.0 for f_n in neighbours)
    assert 3 * len(calls) <= len(ref_calls)


def test_reflection_point_algebra_counts(gas_122, monkeypatch):
    """Scalar F evaluations of one state2_solve and window scans of one
    angle_diagram (84 and 71 with bisection)."""
    from shockrefl import relations

    scalar_calls = []
    mismatch = relations._mismatch

    def counted(u2, *args):
        if np.ndim(u2) == 0:
            scalar_calls.append(u2)
        return mismatch(u2, *args)

    monkeypatch.setattr(relations, "_mismatch", counted)
    state2_solve(gas_122, 1.3)
    assert len(scalar_calls) <= 30
    monkeypatch.setattr(relations, "_mismatch", mismatch)
    scans = []
    window_scan = relations._window_scan

    def recorded(*args):
        scans.append(args[0])
        return window_scan(*args)

    monkeypatch.setattr(relations, "_window_scan", recorded)
    relations.angle_diagram(gas_122)
    assert len(scans) <= 55


def _bisect_reference(f, a, b, fa, fb, tol=0.0):
    """Reference: bracketed bisection to tol, or (tol = 0) to adjacent floats."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketingFailure(f"no sign change on [{a}, {b}]")
    for _ in range(120):
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


def _state2_residuals_numpy(state, theta_w, params, inc):
    """Reference: the reflection-point residuals on numpy 2-vectors."""
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
    flux2 = state.rho * float(d2 @ n)
    flux1 = s1.rho * float(d1 @ n)
    mass = (flux2 - flux1) / max(1.0, abs(flux1), abs(flux2))
    return slip, pot, mass


ORACLE_GAS_SETS = [(1.0, 2.0, 2.0), (1.0, 1.4, 1.2), (1.0, 3.0, 2.5), (1.0, 2.0, 1.4),
                   (1.0, 2.6, 1.9), (1.0, 1.5, 1.4), (1.0, 5.0, 1.05)]


# theta_d and theta_s of the oracle sets as bisection gave them
BISECTION_ANGLES = {
    (1.0, 2.0, 2.0): (0.9496544133754641, 0.97230731191558),
    (1.0, 1.4, 1.2): (0.7401805117052584, 0.755518051460728),
    (1.0, 3.0, 2.5): (1.0647256610819738, 1.09202446578841),
    (1.0, 2.0, 1.4): (0.8539665542500874, 0.8728606057608044),
    (1.0, 2.6, 1.9): (0.9660038023649427, 0.9902759542834133),
    (1.0, 1.5, 1.4): (0.7958142099733025, 0.8127345384101894),
    (1.0, 5.0, 1.05): (0.7836787630552806, 0.803133124041),
}


@pytest.mark.parametrize("params", ORACLE_GAS_SETS)
def test_angle_diagram_within_angle_tol_of_bisection(params):
    from shockrefl import relations

    diagram = relations.angle_diagram(GasParams(*params))
    theta_d, theta_s = BISECTION_ANGLES[params]
    assert abs(diagram.theta_d - theta_d) <= relations.ANGLE_TOL
    assert abs(diagram.theta_s - theta_s) <= relations.ANGLE_TOL


def _outcome(gas, theta):
    try:
        return state2_solve(gas, theta)
    except ShockReflError as exc:
        return exc


@pytest.fixture(scope="module")
def itp_and_bisection_outcomes():
    """(gas, theta, ITP outcome, bisection outcome) at theta_d + 1e-6 and 59
    angles on (theta_d, pi/2] for each oracle gas set."""
    from shockrefl import relations

    rows = []
    for params in ORACLE_GAS_SETS:
        gas = GasParams(*params)
        theta_d = detachment_angle(gas)
        thetas = [theta_d + 1e-6] + np.linspace(theta_d, math.pi / 2.0, 60)[1:].tolist()
        for theta in thetas:
            itp = _outcome(gas, theta)
            relations._bracketed_root, original = _bisect_reference, relations._bracketed_root
            try:
                ref = _outcome(gas, theta)
            finally:
                relations._bracketed_root = original
            rows.append((gas, theta, theta - theta_d < 2e-6, itp, ref))
    return rows


def test_state2_roots_match_bisection(itp_and_bisection_outcomes):
    """Same outcome at every angle; weak and strong u2 within 1e-12 relative
    of bisection's, 1e-11 next to theta_d where F is flat at its roots."""
    pairs = 0
    for gas, theta, near_detachment, itp, ref in itp_and_bisection_outcomes:
        assert type(itp) is type(ref), (gas, theta)
        if isinstance(ref, ShockReflError):
            continue
        rel = 1e-11 if near_detachment else 1e-12
        for a, b in ((itp.weak.u, ref.weak.u), (itp.strong.u, ref.strong.u)):
            assert abs(a - b) <= rel * max(abs(a), abs(b)), (gas, theta)
        pairs += 1
    assert pairs >= 0.9 * len(itp_and_bisection_outcomes)


def test_state2_residuals_of_floats_match_numpy(itp_and_bisection_outcomes):
    for gas, theta, _, itp, _ in itp_and_bisection_outcomes:
        if isinstance(itp, ShockReflError):
            continue
        inc = incident_state(gas)
        for st in (itp.weak, itp.strong):
            got = state2_residuals(st, theta, gas, inc)
            ref = _state2_residuals_numpy(st, theta, gas, inc)
            assert all(abs(a - b) <= 1e-15 for a, b in zip(got, ref)), (gas, theta, got, ref)


@pytest.mark.parametrize("rho1", [1.05, 1.6, 2.5, 4.0, 6.0])
@pytest.mark.parametrize("gamma", [1.05, 1.4, 2.0, 3.0])
def test_lobe_sign_fixed_by_window_ends(rho1, gamma):
    """G = F/rho2 is negative at both ends of the entropic window, in closed
    form, so it is positive between the weak and strong roots at every angle."""
    from shockrefl.relations import _window_scan

    gas = GasParams(1.0, rho1, gamma)
    inc = incident_state(gas)
    thd = detachment_angle(gas)
    for frac in (1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6):
        theta = thd + frac * (math.pi / 2.0 - thd)
        t = math.tan(theta)
        grid, fval = _window_scan(theta, gas, inc)
        u = grid[0]  # rho2 = rho1
        lower = -((inc.u1 - u) ** 2 + (u * t) ** 2)
        x = inc.xi1_0
        rho2_top = (gas.rho0_pow + 0.5 * (gamma - 1.0) * (x / math.cos(theta)) ** 2) ** (1.0 / (gamma - 1.0))
        top = -(rho1 / rho2_top) * ((inc.u1 - x) ** 2 + (x * t) ** 2)
        assert grid[-1] == x
        for f, closed in ((fval[0], lower), (fval[-1], top)):
            assert f < 0.0
            assert f == pytest.approx(closed, rel=1e-9)


def test_detachment_scans_each_angle_once(gas_122, monkeypatch):
    """No probe angle: the sign of F between the roots is not sampled at
    pi/2 - 0.01 apart from the bisection's own bracket end there."""
    from shockrefl import relations

    thetas = []
    original = relations._window_scan

    def recorded(theta_w, params, inc):
        thetas.append(theta_w)
        return original(theta_w, params, inc)

    monkeypatch.setattr(relations, "_window_scan", recorded)
    relations.detachment_angle(gas_122)
    assert thetas.count(math.pi / 2.0 - 0.01) == 1
    assert len(thetas) == len(set(thetas))


def _gas_sets(n, seed):
    rng = np.random.default_rng(seed)
    return [GasParams(1.0, rng.uniform(1.05, 6.0), rng.uniform(1.05, 3.0)) for _ in range(n)]


def test_mismatch_of_a_float_matches_numpy_scalars():
    """F of a float is a float, bit-identical to F of np.float64 (numpy
    scalar math, libm pow), at random points of the entropic window."""
    from shockrefl.relations import _mismatch, _window_scan

    rng = np.random.default_rng(3)
    compared = 0
    for gas in _gas_sets(20, 4):
        inc = incident_state(gas)
        for theta in np.linspace(0.6, math.pi / 2.0 - 1e-3, 7).tolist():
            scan = _window_scan(theta, gas, inc)
            if scan is None:
                continue
            for u in rng.uniform(scan[0][0], scan[0][-1], 50).tolist():
                f = _mismatch(u, theta, gas, inc)
                assert type(f) is float
                assert f.hex() == float(_mismatch(np.float64(u), theta, gas, inc)).hex()
                compared += 1
    assert compared >= 20 * 7 * 50 * 0.9


def test_mismatch_of_a_float_next_to_right_angle_is_the_scan_value():
    """Where rho2 exceeds the largest double (gamma near 1, theta_w near
    pi/2), G of a float is finite and the scan's value, with no warning."""
    from shockrefl.relations import _mismatch

    gas = GasParams(1.0, 3.0, 1.002)
    inc = incident_state(gas)
    theta = math.pi / 2.0 - 1e-4
    u = 0.999 * inc.xi1_0
    scan_value = float(_mismatch(np.array([u]), theta, gas, inc)[0])
    assert math.isfinite(scan_value)
    assert _mismatch(u, theta, gas, inc).hex() == scan_value.hex()


def test_root_brackets_are_floats(gas_122):
    from shockrefl.relations import _root_brackets, _window_scan

    theta = math.radians(80.0)
    brackets = _root_brackets(_window_scan(theta, gas_122, incident_state(gas_122)))
    assert len(brackets) == 2
    assert all(type(x) is float for bracket in brackets for x in bracket)


def _root_brackets_sign_products(scan):
    """Reference: sign flips from products of np.sign."""
    grid, fval = scan
    sign = np.sign(fval)
    flip = np.append(sign[:-1] * sign[1:] < 0, False)
    lo = np.nonzero(flip | (fval == 0.0))[0]
    hi = lo + flip[lo]
    return list(zip(grid[lo].tolist(), grid[hi].tolist(), fval[lo].tolist(), fval[hi].tolist()))


def test_root_brackets_match_sign_products():
    """The same brackets in the same order as np.sign products give, exact
    zeros (one at the last sample too) as brackets of their own and NaN
    samples bracketing nothing, on synthetic scans and window scans."""
    from shockrefl.relations import _root_brackets, _window_scan

    grid = np.linspace(0.0, 1.0, 12)
    for fval in ([-1.0, 2.0, 0.0, 0.0, -3.0, 0.0, 4.0, np.nan, -1.0, 5.0, -0.0, 0.0],
                 [1.0, -1.0, np.nan, 1.0, -np.inf, np.inf, 2.0, 3.0, -2.0, -1.0, 1.0, 0.0]):
        scan = (grid, np.array(fval))
        assert _root_brackets(scan) == _root_brackets_sign_products(scan)
    scans = 0
    for gas in _gas_sets(10, 5):
        inc = incident_state(gas)
        for theta in np.linspace(0.6, math.pi / 2.0 - 1e-3, 9).tolist():
            scan = _window_scan(theta, gas, inc)
            if scan is not None:
                assert _root_brackets(scan) == _root_brackets_sign_products(scan)
                scans += 1
    assert scans >= 45


@pytest.mark.parametrize("k", range(3, 12))
def test_small_gamma_near_right_angle(k):
    """(1, 5, 1.05): the strong root's rho2 = base^20 is past the largest
    double at pi/2 - 1e-9 and beyond, so the pair is found up to k = 8 and
    the overflowing density is reported from k = 9 on."""
    gas = GasParams(1.0, 5.0, 1.05)
    theta = math.pi / 2.0 - 10.0 ** -k
    if k <= 8:
        assert state2_solve(gas, theta).weak.rho == pytest.approx(23.2287, abs=1e-4)
    else:
        with pytest.raises(RootSeparationFailure, match="overflows"):
            state2_solve(gas, theta)


def test_gamma_near_one_next_to_right_angle_ends_typed():
    """On a grid of gamma down to 1.001 and three rho1, state2_solve at
    pi/2 - 10^-k (k = 2..14) gives a pair or RootSeparationFailure (the
    strong density past a double) and angle_diagram returns, all with
    RuntimeWarning an error (pytest's filterwarnings)."""
    from shockrefl import relations

    outcomes = set()
    for gamma in (1.001, 1.002, 1.005, 1.01, 1.02, 1.05, 1.1, 1.2, 1.4):
        for rho1 in (1.5, 3.0, 5.0):
            gas = GasParams(1.0, rho1, gamma)
            for k in range(2, 15):
                try:
                    state2_solve(gas, math.pi / 2.0 - 10.0 ** -k)
                    outcomes.add("pair")
                except RootSeparationFailure as exc:
                    assert "overflows" in str(exc)
                    outcomes.add("overflow")
            relations.angle_diagram(gas)
    assert outcomes == {"pair", "overflow"}


def test_state2_solve_builds_state1_once(gas_122, monkeypatch):
    """make_uniform_state runs for the weak root, the strong root and state (1)."""
    from shockrefl import relations

    calls = []
    original = relations.make_uniform_state

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(relations, "make_uniform_state", counted)
    state2_solve(gas_122, 1.3)
    assert len(calls) <= 3
