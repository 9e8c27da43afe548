"""Command-line front end.

Subcommands:

    angles   transition angles and the attachment criterion
    polar    weak/strong reflection states over an angle grid (polar.csv)
    solve    free-boundary solve at one wedge angle + admissibility report
    sweep    continuation family over a descending angle grid
    verify   recompute the admissibility report of an existing archive

Exit codes: 0 ok, 2 validation/input, 3 no convergence or a continuation
step that broke down, 4 admissibility failure, 5 attached shock.  Angles are
degrees on the command line and radians internally.
"""

import argparse
import json
import logging
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import admissibility, archive
from .errors import AttachedShockDetected, DetachedWedgeAngle, ShockReflError, ValidationError
from .gas import GasParams
from .relations import angle_diagram, state2_solve, detachment_angle
from .solver import BRIDGED_FAILURES, IterationParams, continuation_sweep, fixed_point_solve

log = logging.getLogger("shockrefl")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_REPORT_FAIL = 4
EXIT_ATTACHED = 5
# exit codes of a continuation that stops short of its last angle, and of a
# solve from an archive whose step breaks down; a sweep that ends at
# detachment keeps its partial family and exits 0
_SWEEP_EXIT = {exc.__name__: EXIT_NO_CONVERGENCE for exc in BRIDGED_FAILURES}
_SWEEP_EXIT["AttachedShockDetected"] = EXIT_ATTACHED
MAX_ANGLES = 100_000  # most angles one grid may list, checked before any is built


@dataclass
class RunConfig:
    """Everything needed to reproduce a run; serialized into meta.json."""

    rho0: float = 1.0
    rho1: float = 2.0
    gamma: float = 2.0
    theta: float | None = None          # degrees
    theta_grid: str | None = None       # degrees, "start:stop:num" (polar) or "start:stop:step" (sweep)
    n1: int = IterationParams.n1
    n2: int = IterationParams.n2
    cutoff_width: float | None = IterationParams.cutoff_width
    tol_fixed_point: float = IterationParams.tol_fixed_point
    max_outer: int = IterationParams.max_outer
    lin_tol: float = IterationParams.lin_tol
    sweep_step: float = 1.0             # internal warm-up step for solve (degrees)
    out: str = "runs"
    init: str | None = None

    def gas(self):
        return GasParams(rho0=self.rho0, rho1=self.rho1, gamma=self.gamma)

    def iteration_params(self):
        return IterationParams(**{f.name: getattr(self, f.name) for f in fields(IterationParams)})


def _common(parser):
    # defaults live on RunConfig; None here means "not given on the command
    # line" so config-file values are not silently overridden
    parser.add_argument("--rho0", type=float, default=None)
    parser.add_argument("--rho1", type=float, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--config", default=None, help="JSON file with RunConfig fields")
    parser.add_argument("--log-level", default="warning")


def _solver_opts(parser):
    parser.add_argument("--n1", type=int, default=None)
    parser.add_argument("--n2", type=int, default=None)
    parser.add_argument("--cutoff-width", type=float, default=None)
    parser.add_argument("--tol-fp", dest="tol_fixed_point", type=float, default=None)
    parser.add_argument("--max-outer", type=int, default=None)
    parser.add_argument("--lin-tol", type=float, default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="shockrefl", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angles", help="transition angles and attachment criterion")
    _common(p)

    p = sub.add_parser("polar", help="reflection states over an angle grid")
    _common(p)
    p.add_argument("--theta-grid", default=None,
                   help="degrees 'start:stop:num', default 200 points over (theta_d, 90]")

    p = sub.add_parser("solve", help="free-boundary solve at one angle")
    _common(p)
    _solver_opts(p)
    p.add_argument("--theta", type=float, default=None, help="wedge angle in degrees (or theta in --config)")
    p.add_argument("--init", default=None, help="warm-start archive directory")
    p.add_argument("--sweep-step", type=float, default=None,
                   help="internal warm-up sweep step in degrees")

    p = sub.add_parser("sweep", help="continuation family over a descending grid")
    _common(p)
    _solver_opts(p)
    p.add_argument("--theta-grid", default=None, help="degrees 'start:stop:step', start at 90 (or theta_grid in --config)")

    p = sub.add_parser("verify", help="recompute the report of an archive")
    p.add_argument("--log-level", default="warning")
    p.add_argument("path", help="archive directory")
    return ap


def _run_config_from_args(args):
    """The RunConfig of a command: defaults, then the --config file's fields,
    each checked against its field's type, then the flags given."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"unreadable config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"config file {args.config} is not a JSON object")
        types = {f.name: f.type for f in fields(RunConfig)}
        for k, v in data.items():
            if k not in types:
                raise ValidationError(f"unknown RunConfig field {k!r} in {args.config}")
            kinds = typing.get_args(types[k]) or (types[k],)
            # a float field also takes an int; no field takes a bool
            if isinstance(v, bool) or not any(isinstance(v, (int, float) if t is float else t) for t in kinds):
                kind = getattr(types[k], "__name__", types[k])
                raise ValidationError(f"{k} = {v!r} in {args.config} is not of type {kind}")
            setattr(cfg, k, v)
    for k in vars(cfg):
        if hasattr(args, k) and getattr(args, k) is not None:
            setattr(cfg, k, getattr(args, k))
    return cfg


def _required(cfg, name):
    """A RunConfig value that the command needs, from a flag or the config file."""
    value = getattr(cfg, name)
    if value is None:
        raise ValidationError(f"--{name.replace('_', '-')} is required (as a flag or in --config)")
    return value


def _radians(deg):
    """A wedge angle in degrees, in radians; 90 degrees is pi/2 exactly."""
    return math.pi / 2.0 if abs(deg - 90.0) < 1e-12 else math.radians(deg)


def _grid_spec(spec, form):
    """The three numbers of a --theta-grid spec of the given 'a:b:c' form."""
    try:
        numbers = tuple(float(x) for x in spec.split(":"))
    except ValueError:
        numbers = ()
    if len(numbers) != 3 or not all(map(math.isfinite, numbers)):
        raise ValidationError(f"--theta-grid {spec!r} is not of the form {form!r}")
    return numbers


def _check_angle_count(count, what):
    """Reject a grid that asks for more than MAX_ANGLES angles (or an infinite number)."""
    if not count <= MAX_ANGLES:
        raise ValidationError(f"{what} asks for {count:.6g} angles, more than {MAX_ANGLES}")


def cmd_angles(args):
    cfg = _run_config_from_args(args)
    gas = cfg.gas()
    diagram = angle_diagram(gas)
    payload = {
        "theta_d_deg": math.degrees(diagram.theta_d),
        "theta_s_deg": math.degrees(diagram.theta_s),
        "rho_c": diagram.rho_c,  # inf for gamma = 3, written as null
        "attachment_possible": diagram.attachment_possible,
        "params": {"rho0": gas.rho0, "rho1": gas.rho1, "gamma": gas.gamma},
    }
    text = json.dumps(archive.jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    print(text)
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "angles.json"), "w") as fh:
        fh.write(text + "\n")
    return EXIT_OK


def cmd_polar(args):
    cfg = _run_config_from_args(args)
    gas = cfg.gas()
    theta_d = detachment_angle(gas)
    if cfg.theta_grid:
        start, stop, num = _grid_spec(cfg.theta_grid, "start:stop:num")
        if num != int(num) or num < 1:
            raise ValidationError(f"--theta-grid {cfg.theta_grid!r}: num must be a positive integer")
        _check_angle_count(num, f"--theta-grid {cfg.theta_grid!r}")
        thetas = np.linspace(start, stop, int(num))
    else:
        thetas = np.linspace(math.degrees(theta_d) - 0.5, 90.0, 200)
    rows = ["theta_deg,status,u2_weak,v2_weak,rho2_weak,mach_p0_weak,"
            "u2_strong,v2_strong,rho2_strong"]
    fmt = archive.FMT
    for deg in thetas:
        try:
            pair = state2_solve(gas, _radians(float(deg)))
        except DetachedWedgeAngle:
            rows.append((fmt % deg) + ",detached,,,,,,,")
            continue
        rows.append(
            ",".join(
                [fmt % deg, "ok"]
                + [fmt % v for v in (
                    pair.weak.u, pair.weak.v, pair.weak.rho, pair.mach_p0_weak,
                    pair.strong.u, pair.strong.v, pair.strong.rho,
                )]
            )
        )
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "polar.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path} ({len(rows) - 1} rows)")
    return EXIT_OK


def _warmup_grid(theta, step_deg):
    """Continuation grid 90, 90 - step, ..., theta (radians) for a solve at theta."""
    if not (math.isfinite(step_deg) and step_deg > 0.0):
        raise ValidationError(f"--sweep-step {step_deg!r} must be finite and positive")
    step = math.radians(step_deg)
    # pi/2 comes first however near theta lies; the margin lists a theta on the step grid once
    intervals = (math.pi / 2.0 - theta) / step - 1e-9
    _check_angle_count(intervals + 1.0, f"--sweep-step {step_deg!r}")
    grid = [math.pi / 2.0 - k * step for k in range(max(math.ceil(intervals), 1))]
    return grid if theta == math.pi / 2.0 else grid + [theta]


def _report_and_write(sol, outdir, run_config):
    meta = archive.write_solution(sol, outdir, extra_meta={"run_config": asdict(run_config)})
    report = admissibility.full_report(sol, metadata_hash=meta["hashes"]["field.csv"])
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(report.to_json() + "\n")
    return report


def cmd_solve(args):
    cfg = _run_config_from_args(args)
    gas = cfg.gas()
    theta = _radians(_required(cfg, "theta"))
    if theta != math.pi / 2.0:
        state2_solve(gas, theta)  # raises DetachedWedgeAngle below theta_d
    if cfg.init is not None:
        init, tampered = archive.read_solution(cfg.init)
        if tampered:
            log.warning("init archive %s failed its hash check", cfg.init)
        try:
            sol = fixed_point_solve(gas, theta, cfg.iteration_params(), init=init)
        except BRIDGED_FAILURES as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return _SWEEP_EXIT[type(exc).__name__]
    else:
        result = continuation_sweep(gas, _warmup_grid(theta, cfg.sweep_step), cfg.iteration_params())
        if result.status != "completed":
            print(f"{result.status}: {result.stop_reason}", file=sys.stderr)
            return _SWEEP_EXIT[result.status]
        sol = result.members[-1]
    outdir = os.path.join(cfg.out, f"solve_theta{cfg.theta:07.3f}_n{cfg.n1}x{cfg.n2}")
    report = _report_and_write(sol, outdir, cfg)
    print(report.table())
    print(f"archive: {outdir}")
    return EXIT_OK if report.verdict else EXIT_REPORT_FAIL


def _parse_descending_grid(spec):
    start, stop, step = _grid_spec(spec, "start:stop:step")
    if step <= 0:
        raise ValidationError("sweep step must be positive")
    intervals = (start - stop) / step
    _check_angle_count(intervals + 1.0, f"grid {spec!r}")
    n = int(round(intervals))
    if n < 0 or abs(start - stop - n * step) > 1e-9:
        raise ValidationError(f"grid {spec!r} is not a descending arithmetic grid")
    return [start - k * step for k in range(n + 1)]


def cmd_sweep(args):
    cfg = _run_config_from_args(args)
    gas = cfg.gas()
    degs = _parse_descending_grid(_required(cfg, "theta_grid"))
    result = continuation_sweep(gas, [_radians(d) for d in degs], cfg.iteration_params())
    for theta, error in result.restarts:
        log.info("restarted %s at theta=%.4f deg without the carried outer model", error, math.degrees(theta))
    for theta, error in result.bridges:
        log.info("bridged %s at theta=%.4f deg by halving the step", error, math.degrees(theta))
    for sol in result.members[1:]:  # every member after the exact normal reflection
        log.info("theta=%.4f deg: %s predictor, warm-start gap %.3e", sol.metadata["theta_deg"],
                 sol.metadata["predictor"], sol.metadata["warm_start_gap"])
        log.info("theta=%.4f deg: %s outer model", sol.metadata["theta_deg"], sol.metadata["outer_model"])
    os.makedirs(cfg.out, exist_ok=True)
    rows = ["theta_deg,status,pairwise_distance,report_verdict"]
    prev_dist = [math.nan] + list(result.distances)
    for k, (sol, theta) in enumerate(zip(result.members, result.thetas)):
        outdir = os.path.join(cfg.out, f"theta{math.degrees(theta):07.3f}")
        report = _report_and_write(sol, outdir, cfg)
        rows.append(
            ",".join(
                [
                    archive.FMT % math.degrees(theta),
                    "converged",
                    "" if math.isnan(prev_dist[k]) else archive.FMT % prev_dist[k],
                    "pass" if report.verdict else "fail",
                ]
            )
        )
    path = os.path.join(cfg.out, "family.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"sweep {result.status}: {len(result.members)} members, family table at {path}")
    if result.stop_reason:
        print(f"stopped at theta={math.degrees(result.failed_theta):.4f} deg: {result.stop_reason}")
    return _SWEEP_EXIT.get(result.status, EXIT_OK)


def cmd_verify(args):
    sol, tampered = archive.read_solution(args.path)
    if tampered:
        print("warning: archive hash mismatch (tampered or edited files)", file=sys.stderr)
    report = admissibility.full_report(sol, metadata_hash="recomputed")
    print(report.table())
    return EXIT_OK if report.verdict else EXIT_REPORT_FAIL


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    handlers = {
        "angles": cmd_angles,
        "polar": cmd_polar,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except AttachedShockDetected as exc:
        print(f"AttachedShockDetected: {exc}", file=sys.stderr)
        return EXIT_ATTACHED
    except ShockReflError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
