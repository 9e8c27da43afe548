"""Acceptance suite: one test per criterion, each printing a PASS line.

All expected values are either closed forms, independently coded oracles
(bisection, dense scans, manufactured solutions), or frozen regression
values first computed by those oracles.  Runs are deterministic.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from shockrefl import (
    GasParams,
    IterationParams,
    c1_family_distance,
    continuation_sweep,
    critical_density,
    detachment_angle,
    fixed_point_solve,
    incident_state,
    sonic_angle,
    state2_residuals,
    state2_solve,
)
from shockrefl.admissibility import (
    check_ellipticity,
    check_graph_and_convexity,
    check_pinching,
    check_shock_inequalities,
    full_report,
)
from shockrefl.solver import solve_bvp
from shockrefl.geometry import build_configuration, initial_shock
from shockrefl.mesh import build_square_map
from falsification import (
    nonconvex_shock,
    pinching_bump,
    reversed_shock_field,
    supersonic_uniform_field,
)
from manufactured import SINE_MMS

GAS = GasParams(1.0, 2.0, 2.0)


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _bisect_u1(rho0, rho1, g):
    def mismatch(u1):
        xi10 = rho1 * u1 / (rho1 - rho0)
        return rho0 ** (g - 1) - (g - 1) * (-u1 * xi10 + 0.5 * u1 * u1) - rho1 ** (g - 1)

    lo, hi = 1e-14, 1.0
    while mismatch(hi) < 0.0:
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


def test_criterion_01_incident_oracle_equivalence():
    """50 random parameter sets: closed form vs independent bisection, 1e-9."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        rho0 = rng.uniform(0.3, 3.0)
        rho1 = rho0 * rng.uniform(1.0 + 1e-3, 10.0)
        g = rng.uniform(1.05, 3.0)
        inc = incident_state(GasParams(rho0, rho1, g))
        ref = _bisect_u1(rho0, rho1, g)
        worst = max(worst, abs(inc.u1 - ref) / ref)
    dt = time.time() - t0
    _report(
        "criterion 1 (incident-shock oracle)",
        worst < 1e-9 and dt < 5.0,
        f"worst rel diff {worst:.2e}, runtime {dt:.2f}s",
    )


CRIT2_SETS = [
    (1.0, 2.0, 2.0),
    (1.0, 2.0, 1.4),
    (1.2, 3.0, 1.67),
    (1.0, 1.5, 2.5),
    (1.0, 2.5, 1.6),
]


def test_criterion_02_state2_residuals():
    """200 angles per 5 sets: all three conditions < 1e-10 for both roots;
    weak density < strong density above theta_d + 1e-6."""
    t0 = time.time()
    worst = 0.0
    for rho0, rho1, g in CRIT2_SETS:
        gas = GasParams(rho0, rho1, g)
        thd = detachment_angle(gas)
        for th in np.linspace(thd + math.radians(0.05), math.radians(86.0), 200):
            pair = state2_solve(gas, float(th))
            assert pair.weak.rho < pair.strong.rho
            for st in (pair.weak, pair.strong):
                worst = max(worst, max(abs(r) for r in state2_residuals(st, float(th), gas)))
        # strict separation just above detachment
        pair = state2_solve(gas, thd + 1e-6)
        assert pair.weak.rho < pair.strong.rho
    dt = time.time() - t0
    _report(
        "criterion 2 (state-2 residuals, 1000 solves)",
        worst < 1e-10 and dt < 30.0,
        f"worst scaled residual {worst:.2e}, runtime {dt:.1f}s",
    )


CRIT3_SETS = CRIT2_SETS + [
    (1.0, 1.2, 1.4),
    (2.0, 3.0, 2.0),
    (1.0, 2.5, 1.3),
    (1.0, 1.8, 2.8),
    (1.5, 2.5, 1.5),
]


def test_criterion_03_angle_diagram_structure():
    """theta_d < theta_s < pi/2; double root at theta_d; single sonic crossing."""
    t0 = time.time()
    for rho0, rho1, g in CRIT3_SETS:
        gas = GasParams(rho0, rho1, g)
        thd = detachment_angle(gas)
        ths = sonic_angle(gas)
        assert 0.0 < thd < ths < math.pi / 2.0
        pair = state2_solve(gas, thd)
        assert abs(pair.weak.u - pair.strong.u) <= 1e-8
        mach = np.array(
            [state2_solve(gas, float(t)).mach_p0_weak
             for t in np.linspace(thd + 1e-5, math.radians(89.9), 200)]
        )
        crossings = int(np.sum(np.sign(mach[:-1] - 1.0) * np.sign(mach[1:] - 1.0) < 0))
        assert crossings == 1
    dt = time.time() - t0
    _report(
        "criterion 3 (angle diagram, 10 sets)",
        dt < 30.0,
        f"theta_d < theta_s < pi/2, double roots, single crossings; runtime {dt:.1f}s",
    )


def test_criterion_04_attachment_criterion():
    """rho_c solves u1 = c1 to 1e-8; the u1 <= c1 dichotomy holds on samples."""
    rng = np.random.default_rng(11)
    for g in (1.4, 2.0, 3.0):
        rc = critical_density(g, 1.0)
        if math.isfinite(rc):
            gas = GasParams(1.0, rc, g)
            inc = incident_state(gas)
            assert abs(inc.u1 - gas.c1) <= 1e-8
        # dichotomy on 20 sampled densities
        for r1 in rng.uniform(1.001, 12.0, size=20):
            gas = GasParams(1.0, float(r1), g)
            inc = incident_state(gas)
            if r1 <= rc:
                assert inc.u1 <= gas.c1 + 1e-12
            else:
                assert inc.u1 > gas.c1
    _report(
        "criterion 4 (attachment criterion)",
        True,
        f"rho_c(1.4)={critical_density(1.4, 1.0):.6f}, rho_c(2)={critical_density(2.0, 1.0):.6f}, "
        f"rho_c(3)=inf; dichotomy on 20 samples per gamma",
    )


def test_criterion_05_normal_reflection_exactness():
    """Explicit normal reflection: exact field, zero shock movement in one
    outer iteration."""
    ip = IterationParams(n1=65, n2=65)
    sol = fixed_point_solve(GAS, math.pi / 2.0, ip)
    err = float(np.abs(sol.phi - sol.config.state2.potential(sol.mesh.nodes)).max())
    outer, movement, _ = sol.residual_history[0]
    ok = err < 1e-8 and outer == 1 and movement < 1e-8
    _report(
        "criterion 5 (normal-reflection exactness)",
        ok,
        f"field error {err:.1e}, shock movement {movement:.1e} in outer iteration {outer}",
    )


@pytest.mark.slow
def test_criterion_06_manufactured_solution_order():
    """solve_bvp reaches observed order >= 1.8 on n = 33, 65, 129."""
    t0 = time.time()
    th = math.radians(85.0)
    cfg = build_configuration(GAS, th)
    shock = initial_shock(cfg, n=129)
    mms = SINE_MMS
    errs = []
    for n in (33, 65, 129):
        ip = IterationParams(n1=n, n2=n, lin_tol=1e-11)
        mesh = build_square_map(cfg, shock, n, n)
        phi, _ = solve_bvp(cfg, mesh, mms.phi(mesh.nodes), ip, mms=mms)
        errs.append(float(np.abs(phi - mms.phi(mesh.nodes)).max()))
    order = 0.5 * math.log2(errs[0] / errs[2])
    dt = time.time() - t0
    _report(
        "criterion 6 (manufactured-solution convergence)",
        order >= 1.8 and dt < 120.0,
        f"errors {['%.3e' % e for e in errs]}, observed order {order:.2f}, runtime {dt:.0f}s",
    )


@pytest.mark.slow
def test_criterion_07_end_to_end_supersonic_129():
    """Sweep 90 -> 85 at 129x129 converges; the 85-degree report passes every
    mandatory check with the stated properties."""
    t0 = time.time()
    ip = IterationParams(n1=129, n2=129, tol_fixed_point=3e-7)
    grid = [math.pi / 2.0] + [math.radians(d) for d in (89, 88, 87, 86, 85)]
    sweep = continuation_sweep(GAS, grid, ip)
    assert sweep.status == "completed", sweep.stop_reason
    sol = sweep.members[-1]
    rep = full_report(sol)
    ok = rep.verdict
    ell = rep["ellipticity"]
    shk = rep["shock_inequalities"]
    pin = rep["pinching"]
    cone = rep["cone_monotonicity"]
    conv = rep["graph_and_convexity"]
    ok &= ell.passed and ell.worst > 0.0            # margin > 0 outside cutoff band
    ok &= shk.passed and shk.worst > 0.0            # d_nu phi1 > d_nu phi > 0
    ok &= pin.passed                                 # phi2 <= phi <= phi1 within tol
    ok &= cone.passed and set(cone.details) == {"region", "shock_row"}  # sup over the cone in both
    mids = [v for k, v in conv.details.items() if k.endswith("max_fpp_mid")]
    ok &= conv.passed and len(mids) == 3 and all(v < 0.0 for v in mids)
    dt = time.time() - t0
    _report(
        "criterion 7 (end-to-end supersonic, 129x129)",
        ok and dt < 600.0,
        f"report verdict {rep.verdict}; f''_mid max {max(mids):.3e} over 3 directions; "
        f"runtime {dt:.0f}s",
    )


@pytest.mark.slow
def test_criterion_08_family_continuity_under_step_halving():
    """Max pairwise C1 distance drops >= 20% per step halving; the 89.75
    member is the closest to the normal reflection in its family."""
    t0 = time.time()
    # n = 49: large enough that the discretization floor of the exact-vs-
    # discrete first pair does not mask the step scaling of the distances
    ip = IterationParams(n1=49, n2=49)
    max_dists = []
    families = {}
    for step in (1.0, 0.5, 0.25):
        degs = list(np.arange(90.0, 85.0 - 1e-9, -step))
        grid = [math.pi / 2.0] + [math.radians(d) for d in degs[1:]]
        sweep = continuation_sweep(GAS, grid, ip)
        assert sweep.status == "completed"
        max_dists.append(max(sweep.distances))
        families[step] = sweep
    ok = max_dists[1] < 0.8 * max_dists[0] and max_dists[2] < 0.8 * max_dists[1]
    fam = families[0.25]
    ref = fam.members[0]  # the normal reflection
    dist_to_normal = [c1_family_distance(ref, m) for m in fam.members[1:]]
    idx_875 = int(np.argmin([abs(math.degrees(t) - 89.75) for t in fam.thetas[1:]]))
    ok &= int(np.argmin(dist_to_normal)) == idx_875
    dt = time.time() - t0
    _report(
        "criterion 8 (family continuity)",
        ok,
        f"max pairwise distances {['%.4f' % d for d in max_dists]} for steps 1/0.5/0.25 deg; "
        f"89.75-deg member closest to normal reflection; runtime {dt:.0f}s",
    )


@pytest.mark.slow
def test_criterion_09_local_uniqueness_analog():
    """Two 85-degree solves from 86- and 84.5-degree warm starts agree to
    c1_family_distance < 2e-5."""
    t0 = time.time()
    ip = IterationParams(n1=49, n2=49, tol_fixed_point=1e-7, lin_tol=1e-10)
    sol = fixed_point_solve(GAS, math.pi / 2.0, ip)
    for d in (89.0, 88.0, 87.0, 86.0):
        sol = fixed_point_solve(GAS, math.radians(d), ip, init=sol)
    warm86 = sol
    run_a = fixed_point_solve(GAS, math.radians(85.0), ip, init=warm86)
    sol = warm86
    for d in (85.5, 84.5):
        sol = fixed_point_solve(GAS, math.radians(d), ip, init=sol)
    run_b = fixed_point_solve(GAS, math.radians(85.0), ip, init=sol)
    dist = c1_family_distance(run_a, run_b)
    bound = 2e-5
    dt = time.time() - t0
    _report(
        "criterion 9 (local uniqueness analog)",
        dist < bound,
        f"c1 distance {dist:.3e} < {bound:.1e}; runtime {dt:.0f}s",
    )


def test_criterion_10_falsification(sol85_n65, sol_normal65):
    """Each constructed violation is caught by its intended check."""
    results = []
    bad = supersonic_uniform_field(sol_normal65)
    rec = check_ellipticity(bad)
    results.append(("supersonic uniform field -> ellipticity", not rec.passed))
    bad, loc = pinching_bump(sol85_n65)
    rec = check_pinching(bad)
    results.append(
        ("pinching bump -> pinching at the node",
         (not rec.passed) and np.allclose(rec.location, loc, atol=1e-12))
    )
    bad = reversed_shock_field(sol85_n65)
    rec = check_shock_inequalities(bad)
    results.append(("reversed field -> shock inequalities", not rec.passed))
    bad_shock = nonconvex_shock(sol85_n65)
    rec = check_graph_and_convexity(dataclasses.replace(sol85_n65, shock=bad_shock))
    results.append(("non-convex shock -> convexity", not rec.passed))
    ok = all(r[1] for r in results)
    _report(
        "criterion 10 (admissibility falsification)",
        ok,
        "; ".join(f"{name} {'caught' if got else 'MISSED'}" for name, got in results),
    )
