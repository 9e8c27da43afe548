"""Solution archives: one directory per run.

Layout:

    meta.json       parameters, angle, grid, tolerances, status, file hashes
    shock.csv       T, S, xi1, xi2 along the reflected shock
    field.csv       i, j, xi1, xi2, phi, |Dphi|, rho, ellipticity_margin
    residuals.csv   outer_iteration, shock_movement, interior_residual
    report.json     admissibility report (written by the CLI)

All floating-point values are written with 17 significant digits so a
re-read reproduces the run bit-for-bit.  meta.json stores SHA-256 hashes of
the CSV payloads; a mismatch on read flags the archive as tampered.
"""

import hashlib
import json
import math
import os

import numpy as np

from .errors import ArchiveError
from .gas import GasParams, bernoulli_base, ellipticity_margin
from .geometry import ShockCurve, build_configuration
from .mesh import build_square_map
from .relations import state2_solve
from .solver import SolutionField

FMT = "%.17g"


def _fmt(x):
    return FMT % float(x)


def _hash_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def jsonable(v):
    """Plain JSON value of a metadata entry: numpy scalars and arrays become
    Python ones, booleans stay booleans."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, np.ndarray):
        return jsonable(v.tolist())
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


def write_solution(sol, outdir, extra_meta=None):
    """Write a solution archive; returns the meta dictionary."""
    os.makedirs(outdir, exist_ok=True)
    cfg = sol.config

    rows = ["T,S,xi1,xi2"]
    t = sol.shock.t_values
    s = sol.shock.s_values
    for k in range(len(t)):
        x, y = sol.shock.points[k]
        rows.append(",".join(_fmt(v) for v in (t[k], s[k], x, y)))
    with open(os.path.join(outdir, "shock.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")

    grad = sol.gradient()
    speed = np.linalg.norm(grad, axis=-1)
    g = cfg.params.gamma
    margin = ellipticity_margin(grad, sol.phi, cfg.params)
    base = bernoulli_base(speed ** 2, sol.phi, cfg.params)
    rho = np.where(base > 0, np.abs(base) ** (1.0 / (g - 1.0)), np.nan)
    n1, n2 = sol.phi.shape
    rows = ["i,j,xi1,xi2,phi,speed,rho,ellipticity_margin"]
    for i in range(n1):
        for j in range(n2):
            x, y = sol.mesh.nodes[i, j]
            rows.append(
                "%d,%d," % (i, j)
                + ",".join(
                    _fmt(v)
                    for v in (x, y, sol.phi[i, j], speed[i, j], rho[i, j], margin[i, j])
                )
            )
    with open(os.path.join(outdir, "field.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")

    rows = ["outer_iteration,shock_movement,interior_residual"]
    for outer, movement, res in sol.residual_history:
        rows.append("%d,%s,%s" % (outer, _fmt(movement), _fmt(res)))
    with open(os.path.join(outdir, "residuals.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")

    meta = {
        "format": "shockrefl-archive-1",
        "params": {"rho0": cfg.params.rho0, "rho1": cfg.params.rho1, "gamma": cfg.params.gamma},
        "theta_w_rad": sol.theta_w,
        "theta_w_deg": math.degrees(sol.theta_w),
        "n1": n1,
        "n2": n2,
        "regime": cfg.regime.value,
        "points": {
            name: [float(v) for v in getattr(cfg, name)]
            for name in ("p0", "p1", "p2", "p3", "p4", "sonic_center")
        },
        "sonic_radius": cfg.sonic_radius,
        "state2": {"u": cfg.state2.u, "v": cfg.state2.v, "k": cfg.state2.k,
                   "rho": cfg.state2.rho, "c": cfg.state2.c},
        "incident": {"u1": cfg.incident.u1, "xi1_0": cfg.incident.xi1_0,
                     "k1": cfg.incident.k1, "c1": cfg.incident.c1},
        "metadata": {k: jsonable(v) for k, v in sorted(sol.metadata.items())},
        "hashes": {
            "shock.csv": _hash_file(os.path.join(outdir, "shock.csv")),
            "field.csv": _hash_file(os.path.join(outdir, "field.csv")),
        },
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(os.path.join(outdir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


def read_solution(indir):
    """Reconstruct a SolutionField from an archive.

    Returns (solution, tampered) where tampered is True when a CSV hash does
    not match meta.json (the archive is still loaded so the verifier can
    locate the failing check).  Raises ArchiveError on missing or
    structurally inconsistent archives.
    """
    meta_path = os.path.join(indir, "meta.json")
    if not os.path.isfile(meta_path):
        raise ArchiveError(f"missing meta.json in {indir}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"unreadable meta.json: {exc}") from exc
    for name in ("shock.csv", "field.csv"):
        if not os.path.isfile(os.path.join(indir, name)):
            raise ArchiveError(f"missing {name} in {indir}")

    tampered = False
    for name, want in meta.get("hashes", {}).items():
        have = _hash_file(os.path.join(indir, name))
        if have != want:
            tampered = True

    try:
        params = GasParams(**meta["params"])
        theta = float(meta["theta_w_rad"])
        n1, n2 = int(meta["n1"]), int(meta["n2"])
        shock_rows = np.loadtxt(os.path.join(indir, "shock.csv"), delimiter=",", skiprows=1)
        field_rows = np.loadtxt(os.path.join(indir, "field.csv"), delimiter=",", skiprows=1)
    except (KeyError, ValueError, OSError) as exc:
        raise ArchiveError(f"inconsistent archive: {exc}") from exc

    pair = None
    if abs(theta - math.pi / 2.0) > 1e-14:
        pair = state2_solve(params, theta)
    config = build_configuration(params, theta, pair)
    pts = shock_rows[:, 2:4]
    shock = ShockCurve(
        e=config.wedge_normal(),
        points=pts,
        tau_p1=config.e_s1.copy(),
        tau_p2=np.array([0.0, 1.0]),
    )
    config = config.with_foot(shock.points[-1])
    mesh = build_square_map(config, shock, n1, n2)

    if field_rows.shape[0] != n1 * n2:
        raise ArchiveError(
            f"field.csv has {field_rows.shape[0]} rows, expected {n1 * n2}"
        )
    order = np.lexsort((field_rows[:, 1], field_rows[:, 0]))
    field_rows = field_rows[order]
    phi = field_rows[:, 4].reshape(n1, n2)
    xi = field_rows[:, 2:4].reshape(n1, n2, 2)
    scale = max(1.0, float(np.max(np.abs(mesh.nodes))))
    if float(np.max(np.abs(xi - mesh.nodes))) > 1e-6 * scale:
        raise ArchiveError("field.csv node coordinates disagree with the rebuilt mesh")

    history = []
    res_path = os.path.join(indir, "residuals.csv")
    if os.path.isfile(res_path):
        data = np.loadtxt(res_path, delimiter=",", skiprows=1, ndmin=2)
        history = [(int(r[0]), float(r[1]), float(r[2])) for r in data]

    metadata = dict(meta.get("metadata", {}))
    metadata["archive_dir"] = os.path.abspath(indir)
    sol = SolutionField(
        config=config,
        shock=shock,
        mesh=mesh,
        phi=phi,
        theta_w=theta,
        residual_history=history,
        metadata=metadata,
    )
    return sol, tampered
