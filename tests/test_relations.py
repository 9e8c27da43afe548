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
    m, p = rh_residual(s1, s1, np.array([0.3, 0.4]), np.array([1.0, 0.0]), gas_122)
    assert m == 0.0 and p == 0.0
    inc = incident_state(gas_122)
    for y in (0.5, 1.0, 3.0):
        m, p = rh_residual(s0, s1, np.array([inc.xi1_0, y]), np.array([1.0, 0.0]), gas_122)
        assert abs(m) < 1e-10 and abs(p) < 1e-10
    # residual vanishes identically in xi2 along the shock line
    m, p = rh_residual(s0, s1, np.array([inc.xi1_0 + 0.1, 1.0]), np.array([1.0, 0.0]), gas_122)
    assert abs(p) > 1e-3


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
    """theta_s bisects the weak state's Mach number from the lowest root of F
    alone: bit-identical to bisecting state2_solve's, with about half of its
    scalar F evaluations."""
    from shockrefl import relations

    gas = GasParams(*params)
    theta_d = detachment_angle(gas)
    lo, hi = theta_d + 1e-7, math.pi / 2.0 - 1e-4
    scalar_calls = []
    pieces = relations._state2_pieces

    def counted(u2, *args):
        scalar_calls.append(np.ndim(u2) == 0)
        return pieces(u2, *args)

    monkeypatch.setattr(relations, "_state2_pieces", counted)
    theta_s = relations._sonic_angle(gas, theta_d)
    fast = sum(scalar_calls)
    scalar_calls.clear()
    full = lambda th: state2_solve(gas, th).mach_p0_weak - 1.0
    ref = relations._bisect(full, lo, hi, full(lo), full(hi), tol=relations.ANGLE_TOL)
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
    assert classify_regime(gas_122, thd + 1e-4, sigma=0.1) is Regime.SUBSONIC_AWAY
    mid = 0.5 * (thd + ths)
    assert classify_regime(gas_122, mid, sigma=0.1) is Regime.SUBSONIC_NEAR_SONIC
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


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-6])
def test_bisect_with_tolerance_matches_while_loop(tol):
    from shockrefl.relations import _bisect

    cubic = lambda x: x ** 3 - 2.0
    step = lambda x: 1.0 if x > 0.7390851332151607 else -1.0
    for f, lo, hi in ((cubic, 0.3, 3.1), (step, 0.01, math.pi / 2.0 - 0.01)):
        assert _bisect(f, lo, hi, f(lo), f(hi), tol=tol) == _bisect_while_loop(f, lo, hi, tol)
