"""The benchmark's workloads: inputs from the seed, one timed pass, output checks.

Every library call goes through the module attribute (`solver.fixed_point_solve`,
not a name imported here), so the wrappers installed by `instrument` see it.
A workload is a pair of functions:

    setup(seed, workdir, checks, reference) -> (inputs, solve_s or None)
    run_pass(inputs, workdir, checks, reference) -> pass record

`checks` tallies attempted and failed operations.  A pass record holds the
pass's solver time, the time of each round of certification calls and the
outputs that `record_reference.py` stores as the reference; its solve_s is
None when the workload's solver work happens in the set-up.
"""

import math
import os
import random
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from shockrefl import GasParams, IterationParams, admissibility, archive, distance, relations, solver
from shockrefl.errors import ShockReflError

# The acceptance case.  The family stalls for (1, 1.8, 2) at 33^2 (see NOTES.md).
ACCEPTANCE_GAS = {"rho0": 1.0, "rho1": 2.0, "gamma": 2.0}
FAMILY_DEGREES = list(range(90, 75, -1))          # 90 -> 76 in 1 degree steps
CERTIFY_DEGREES = FAMILY_DEGREES[:5]              # 90 -> 86, the head of the same family
# family33 certifies its members this many times over (0.6 s a round), so
# that its certification time is a quartile of rounds spread over seconds,
# not one burst that a spell of machine speed can cover whole
FAMILY_CERTIFY_ROUNDS = 16
SOLVE_DEGREES = 89.0
SOLVE_PARAMS = {"n1": 129, "n2": 129, "tol_fixed_point": 3e-7}

# certify: one gas set drawn in each cell of a STRATA x STRATA split of the
# (rho1, gamma) box, so that every seed does about the same algebra work
# (one set alone costs between 0.25 s and 0.35 s), and the angle grid over
# (theta_d, 90] deg
CERTIFY_STRATA = 2
CERTIFY_RHO1 = (1.4, 3.0)
CERTIFY_GAMMA = (1.2, 2.5)
CERTIFY_ANGLES = 80
CERTIFY_PAIRS = 3

# Reference tolerances, as multiples of the run's tol_fixed_point.  At 33^2
# the reference lies within 1.0e-6 (shock) and 1.8e-6 (phi) of the solution
# converged to tol_fixed_point 1e-9, the gap growing toward 76 deg; relax 0.5
# lands within 8e-7 and 1.5e-6 of it.  Changing the ellipticity cutoff width
# by half, a different discrete problem, moves the shock by 3e-6 to 5e-6 and
# phi by 7e-6 to 1.1e-5 on every member, so it fails.
SHOCK_TOL = 30.0
PHI_TOL = 60.0
DISTANCE_TOL = 1e-4
RESIDUAL_TOL = 1e-9


class Checks:
    """Attempted and failed operations of one run; the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


class CallTimes:
    """Durations of the certification calls the benchmark makes, by function."""

    def __init__(self):
        self.durations = defaultdict(list)

    @contextmanager
    def timing(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.durations[name].append(time.perf_counter() - t0)

    def total(self):
        return math.fsum(t for d in self.durations.values() for t in d)


def _radians(deg):
    return math.pi / 2.0 if deg == 90 else math.radians(deg)


def _subsample(phi):
    stride = (phi.shape[0] - 1) // 8
    return phi[::stride, ::stride]


def _member_output(sol):
    return {
        "theta_deg": math.degrees(sol.theta_w),
        "shock": sol.shock.points.tolist(),
        "phi_sub": _subsample(sol.phi).tolist(),
    }


def _matches(sol, ref, tol_fp):
    if ref is None:
        return True
    shock = np.asarray(ref["shock"])
    phi = np.asarray(ref["phi_sub"])
    if sol.shock.points.shape != shock.shape or _subsample(sol.phi).shape != phi.shape:
        return False
    return (
        float(np.max(np.abs(sol.shock.points - shock))) <= SHOCK_TOL * tol_fp
        and float(np.max(np.abs(_subsample(sol.phi) - phi))) <= PHI_TOL * tol_fp
    )


def _same_solution(a, b):
    return np.array_equal(a.phi, b.phi) and np.array_equal(a.shock.points, b.shock.points)


def _check_angles(gas, degrees, checks):
    theta_d = math.degrees(relations.angle_diagram(gas).theta_d)
    checks.check(min(degrees) > theta_d, f"angle grid reaches below theta_d = {theta_d:.3f} deg")


def _certify_member(sol, outdir, checks, times):
    """Archive, report and read back one member as `shockrefl sweep` and `verify` do."""
    what = f"theta={math.degrees(sol.theta_w):.1f}"
    try:
        with times.timing("write_solution"):
            meta = archive.write_solution(sol, outdir)
        with times.timing("full_report"):
            report = admissibility.full_report(sol, metadata_hash=meta["hashes"]["field.csv"])
        with times.timing("read_solution"):
            back, tampered = archive.read_solution(outdir)
    except ShockReflError as exc:
        checks.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return
    checks.check(report.verdict, f"{what}: report verdict false")
    checks.check(not tampered and _same_solution(sol, back), f"{what}: archive hash or round trip")


def _sweep(gas, degrees, params, checks, reference_members):
    """Continuation sweep; checks its status, that every member is reached and
    that each matches the reference."""
    t0 = time.perf_counter()
    result = solver.continuation_sweep(gas, [_radians(d) for d in degrees], params)
    solve_s = time.perf_counter() - t0
    checks.check(result.status == "completed", f"sweep {result.status}: {result.stop_reason}")
    for k, deg in enumerate(degrees):
        checks.check(k < len(result.members), f"member {deg} deg not reached")
    for sol, ref in zip(result.members, reference_members or []):
        checks.check(_matches(sol, ref, params.tol_fixed_point),
                     f"theta={math.degrees(sol.theta_w):.1f}: outside the reference tolerance")
    return result, solve_s


def _reference_members(reference, name):
    return (reference or {}).get(name, {}).get("members")


# ----------------------------------------------------------------------
# family33: the `shockrefl sweep` path at 33^2, 90 -> 76 deg.

def setup_family33(seed, workdir, checks, reference):
    gas = GasParams(**ACCEPTANCE_GAS)
    _check_angles(gas, FAMILY_DEGREES, checks)
    return {"gas": gas, "params": IterationParams(n1=33, n2=33)}, None


def pass_family33(inputs, workdir, checks, reference):
    result, solve_s = _sweep(inputs["gas"], FAMILY_DEGREES, inputs["params"], checks,
                             _reference_members(reference, "family33"))
    rounds = []
    for _ in range(FAMILY_CERTIFY_ROUNDS):
        times = CallTimes()
        for sol in result.members:
            outdir = os.path.join(workdir, f"theta{round(math.degrees(sol.theta_w)):03d}")
            _certify_member(sol, outdir, checks, times)
            shutil.rmtree(outdir)
        rounds.append(times.total())
    ref_distances = (reference or {}).get("family33", {}).get("distances")
    if ref_distances is not None:
        checks.check(len(result.distances) == len(ref_distances), "distance count")
        for k, (d, ref) in enumerate(zip(result.distances, ref_distances)):
            checks.check(abs(d - ref) <= DISTANCE_TOL, f"distance {k}: {d} vs {ref}")
    return {
        "solve_s": solve_s,
        "certify_rounds_s": rounds,
        "outputs": {
            "members": [_member_output(m) for m in result.members],
            "distances": list(result.distances),
        },
    }


# ----------------------------------------------------------------------
# solve129: the `shockrefl solve --theta 89 --n1 129 --n2 129 --tol-fp 3e-7` path.

def setup_solve129(seed, workdir, checks, reference):
    gas = GasParams(**ACCEPTANCE_GAS)
    _check_angles(gas, [SOLVE_DEGREES], checks)
    return {"gas": gas, "params": IterationParams(**SOLVE_PARAMS)}, None


def pass_solve129(inputs, workdir, checks, reference):
    gas, params = inputs["gas"], inputs["params"]
    theta = math.radians(SOLVE_DEGREES)
    ref = (reference or {}).get("solve129", {})
    relations.state2_solve(gas, theta)
    t0 = time.perf_counter()
    try:
        exact = solver.fixed_point_solve(gas, math.pi / 2.0, params)
        sol = solver.fixed_point_solve(gas, theta, params, init=exact)
    except ShockReflError as exc:
        checks.check(False, f"solve: {type(exc).__name__}: {exc}")
        return {"solve_s": time.perf_counter() - t0, "certify_rounds_s": [0.0], "outputs": {}}
    solve_s = time.perf_counter() - t0
    checks.check(_matches(sol, ref.get("member"), params.tol_fixed_point),
                 "theta=89: outside the reference tolerance")
    times = CallTimes()
    outdir = os.path.join(workdir, "solve")
    _certify_member(sol, outdir, checks, times)
    shutil.rmtree(outdir)
    with times.timing("c1_family_distance"):
        d = distance.c1_family_distance(exact, sol)
    if "distance" in ref:
        checks.check(abs(d - ref["distance"]) <= DISTANCE_TOL, f"distance {d} vs {ref['distance']}")
    return {
        "solve_s": solve_s,
        "certify_rounds_s": [times.total()],
        "outputs": {"member": _member_output(sol), "distance": d},
    }


# ----------------------------------------------------------------------
# certify: the `angles`, `polar` and `verify` paths; no field solve in a pass.

def setup_certify(seed, workdir, checks, reference):
    rng = random.Random(seed)

    def draw(cell, bounds):
        lo, hi = bounds
        return lo + (cell + rng.random()) * (hi - lo) / CERTIFY_STRATA

    gas_sets = [
        GasParams(rho0=1.0, rho1=draw(i, CERTIFY_RHO1), gamma=draw(j, CERTIFY_GAMMA))
        for i in range(CERTIFY_STRATA)
        for j in range(CERTIFY_STRATA)
    ]
    pairs = rng.sample(list(combinations(range(len(CERTIFY_DEGREES)), 2)), CERTIFY_PAIRS)
    gas = GasParams(**ACCEPTANCE_GAS)
    params = IterationParams(n1=33, n2=33)
    refs = _reference_members(reference, "family33")
    result, solve_s = _sweep(gas, CERTIFY_DEGREES, params, checks, refs and refs[: len(CERTIFY_DEGREES)])
    archives = []
    for sol in result.members:
        outdir = os.path.join(workdir, f"theta{round(math.degrees(sol.theta_w)):03d}")
        archive.write_solution(sol, outdir)
        archives.append(outdir)
    inputs = {"gas_sets": gas_sets, "archives": archives, "pairs": pairs, "params": params}
    return inputs, solve_s


def _check_pair(gas, theta, pair, theta_s, checks):
    what = f"state2 rho1={gas.rho1:.4f} gamma={gas.gamma:.4f} theta={math.degrees(theta):.4f}"
    if theta == math.pi / 2.0:
        checks.check(pair.weak.u == 0.0 and pair.weak.v == 0.0 and pair.weak.rho > gas.rho1,
                     f"{what}: not the normal-reflection rest state")
        return
    residual = max(abs(r) for r in relations.state2_residuals(pair.weak, theta, gas))
    supersonic = pair.mach_p0_weak > 1.0
    ok = (
        residual <= RESIDUAL_TOL
        and gas.rho1 < pair.weak.rho <= pair.strong.rho
        and (abs(theta - theta_s) < 1e-6 or supersonic == (theta > theta_s))
    )
    checks.check(ok, f"{what}: residual {residual:.2e}, rho {pair.weak.rho}, mach {pair.mach_p0_weak}")


def pass_certify(inputs, workdir, checks, reference):
    for gas in inputs["gas_sets"]:
        try:
            diagram = relations.angle_diagram(gas)
        except ShockReflError as exc:
            checks.check(False, f"angle_diagram {gas}: {type(exc).__name__}: {exc}")
            continue
        checks.check(diagram.theta_d < diagram.theta_s < math.pi / 2.0 and diagram.rho_c > gas.rho0,
                     f"angle diagram out of order for {gas}")
        span = math.pi / 2.0 - diagram.theta_d
        grid = [diagram.theta_d + span * k / CERTIFY_ANGLES for k in range(1, CERTIFY_ANGLES)]
        for theta in grid + [math.pi / 2.0]:
            try:
                pair = relations.state2_solve(gas, theta)
            except ShockReflError as exc:
                checks.check(False, f"state2 {gas} at {theta}: {type(exc).__name__}: {exc}")
                continue
            _check_pair(gas, theta, pair, diagram.theta_s, checks)

    refs = _reference_members(reference, "family33") or [None] * len(CERTIFY_DEGREES)
    tol_fp = inputs["params"].tol_fixed_point
    times = CallTimes()
    members = []
    for k, path in enumerate(inputs["archives"]):
        try:
            with times.timing("read_solution"):
                sol, tampered = archive.read_solution(path)
            with times.timing("full_report"):
                report = admissibility.full_report(sol, metadata_hash="recomputed")
        except ShockReflError as exc:
            checks.check(False, f"{path}: {type(exc).__name__}: {exc}")
            members.append(None)
            continue
        checks.check(not tampered, f"{path}: tampered")
        checks.check(report.verdict, f"{path}: report verdict false")
        checks.check(_matches(sol, refs[k], tol_fp), f"{path}: outside the reference tolerance")
        members.append(sol)

    ref_distances = (reference or {}).get("certify", {}).get("pair_distances", {})
    distances = {}
    for i, j in inputs["pairs"]:
        if members[i] is None or members[j] is None:
            checks.check(False, f"distance {i}-{j}: member missing")
            continue
        with times.timing("c1_family_distance"):
            d = distance.c1_family_distance(members[i], members[j])
        distances[f"{i}-{j}"] = d
        ref = ref_distances.get(f"{i}-{j}")
        if ref is not None:
            checks.check(abs(d - ref) <= DISTANCE_TOL, f"distance {i}-{j}: {d} vs {ref}")
    return {
        "solve_s": None,
        "certify_rounds_s": [times.total()],
        "outputs": {"pair_distances": distances},
    }


WORKLOADS = {
    "family33": (setup_family33, pass_family33),
    "certify": (setup_certify, pass_certify),
    "solve129": (setup_solve129, pass_solve129),
}
