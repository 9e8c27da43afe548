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
import warnings

import numpy as np

from .errors import ArchiveError
from .gas import GasParams, closure_density, ellipticity_margin
from .geometry import build_configuration
from .mesh import build_square_map
from .solver import IterationParams, SolutionField

FMT = "%.17g"


def _write_csv(path, header, rows, int_cols=0):
    """One CSV: a header line, then rows (possibly none) with the first
    int_cols columns as integers and the rest as FMT floats, formatted in
    one pass (the bytes numpy.savetxt writes).  Returns their SHA-256."""
    rows = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    row = ",".join(["%d"] * int_cols + [FMT] * (rows.shape[1] - int_cols)) + "\n"
    data = (header + "\n" + row * rows.shape[0] % tuple(rows.ravel().tolist())).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _hash_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def jsonable(v):
    """Plain JSON value of a metadata entry: numpy scalars and arrays become
    Python ones, booleans stay booleans, and non-finite floats become None
    (RFC 8259 JSON has no NaN or Infinity)."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, np.ndarray):
        return jsonable(v.tolist())
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    return v


def write_solution(sol, outdir, extra_meta=None):
    """Write a solution archive; returns the meta dictionary."""
    os.makedirs(outdir, exist_ok=True)
    cfg = sol.config

    shock = sol.shock
    hashes = {"shock.csv": _write_csv(os.path.join(outdir, "shock.csv"), "T,S,xi1,xi2",
                                      np.column_stack([shock.t_values, shock.s_values, shock.points]))}

    grad = sol.gradient()
    speed = np.linalg.norm(grad, axis=-1)
    margin = ellipticity_margin(grad, sol.phi, cfg.params)
    rho = closure_density(speed ** 2, sol.phi, cfg.params)
    n1, n2 = sol.phi.shape
    ii, jj = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    columns = [ii, jj, sol.mesh.nodes[..., 0], sol.mesh.nodes[..., 1], sol.phi, speed, rho, margin]
    hashes["field.csv"] = _write_csv(os.path.join(outdir, "field.csv"),
                                     "i,j,xi1,xi2,phi,speed,rho,ellipticity_margin",
                                     np.stack([c.ravel() for c in columns], axis=1), int_cols=2)
    hashes["residuals.csv"] = _write_csv(os.path.join(outdir, "residuals.csv"),
                                         "outer_iteration,shock_movement,interior_residual",
                                         sol.residual_history, int_cols=1)

    meta = {
        "format": "shockrefl-archive-1",
        "params": {"rho0": cfg.params.rho0, "rho1": cfg.params.rho1, "gamma": cfg.params.gamma},
        "theta_w_rad": sol.theta_w,
        "theta_w_deg": math.degrees(sol.theta_w),
        "n1": n1,
        "n2": n2,
        "regime": cfg.regime.value,
        "points": {
            name: [float(v) for v in point]
            for name, point in (("p0", cfg.p0), ("p1", cfg.p1), ("p2", shock.points[-1]),
                                ("p3", cfg.p3), ("p4", cfg.p4), ("sonic_center", cfg.sonic_center))
        },
        "sonic_radius": cfg.sonic_radius,
        "state2": {"u": cfg.state2.u, "v": cfg.state2.v, "k": cfg.state2.k,
                   "rho": cfg.state2.rho, "c": cfg.state2.c},
        "incident": {"u1": cfg.incident.u1, "xi1_0": cfg.incident.xi1_0,
                     "k1": cfg.incident.k1, "c1": cfg.incident.c1},
        "metadata": sol.metadata,
        "hashes": hashes,
    }
    if extra_meta:
        meta.update(extra_meta)
    meta = jsonable(meta)
    with open(os.path.join(outdir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return meta


def _table(path, ncols):
    """The rows under the header line of a CSV with ncols numeric columns;
    a header-only file is an empty table."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.size and rows.shape[1] != ncols:
        raise ArchiveError(f"{os.path.basename(path)} has {rows.shape[1]} columns, expected {ncols}")
    return rows.reshape(-1, ncols)


def read_solution(indir):
    """Reconstruct a SolutionField from an archive.

    Returns (solution, tampered) where tampered is True when a CSV hash does
    not match meta.json, when meta.json lacks the hash of shock.csv or
    field.csv or hashes a file other than the three CSVs, or when a hashed
    file is missing (the archive is still loaded so the verifier can locate
    the failing check).  An archive without a residuals.csv hash, as older
    versions wrote, is read unchecked there.
    Raises ArchiveError on a missing or unreadable file, a meta.json that is
    not a JSON object or holds a value of the wrong kind, a CSV that is not
    numeric or has the wrong number of columns, a field.csv of other than
    n1 n2 rows, a non-finite i, j, node coordinate or phi (refused before the
    mesh is built), a metadata.cutoff_width that
    is not null (the archive was solved on another cutoff band), and on any
    other structural inconsistency; the typed errors of the configuration and
    the shock (DetachedWedgeAngle, TooFewSamples, ...) pass through.
    """
    meta_path = os.path.join(indir, "meta.json")
    if not os.path.isfile(meta_path):
        raise ArchiveError(f"missing meta.json in {indir}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ArchiveError(f"unreadable meta.json: {exc}") from exc
    if not isinstance(meta, dict):
        raise ArchiveError(f"meta.json in {indir} is not a JSON object")
    for name in ("shock.csv", "field.csv"):
        if not os.path.isfile(os.path.join(indir, name)):
            raise ArchiveError(f"missing {name} in {indir}")

    hashes = meta.get("hashes")
    hashes = hashes if isinstance(hashes, dict) else {}
    # a key other than the three CSVs (a path outside the archive, say) is tampering, and is not opened
    tampered = not {"shock.csv", "field.csv"} <= hashes.keys() <= {"shock.csv", "field.csv", "residuals.csv"}
    for name, want in hashes.items():
        path = os.path.join(indir, name)
        if tampered or not os.path.isfile(path) or _hash_file(path) != want:
            tampered = True

    res_path = os.path.join(indir, "residuals.csv")
    try:
        params = GasParams(**meta["params"])
        theta, n1, n2 = meta["theta_w_rad"], meta["n1"], meta["n2"]
        if isinstance(theta, bool) or not isinstance(theta, (int, float)):
            raise ArchiveError(f"theta_w_rad = {theta!r} is not a number")
        metadata = dict(meta.get("metadata", {}))
        IterationParams(n1=n1, n2=n2)  # the grid a solve accepts
        if metadata.get("cutoff_width") is not None:
            raise ArchiveError(f"metadata.cutoff_width = {metadata['cutoff_width']!r}: the archive was "
                               "solved on another cutoff band than solver.CUTOFF_WIDTH")
        shock_rows = _table(os.path.join(indir, "shock.csv"), 4)
        field_rows = _table(os.path.join(indir, "field.csv"), 8)
        history = ([(int(r[0]), float(r[1]), float(r[2])) for r in _table(res_path, 3)]
                   if os.path.isfile(res_path) else [])
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        raise ArchiveError(f"inconsistent archive: {exc}") from exc

    if field_rows.shape[0] != n1 * n2:  # before a mesh of n1 x n2 nodes is built
        raise ArchiveError(f"field.csv has {field_rows.shape[0]} rows, expected {n1 * n2}")
    # the derived columns (rho, margin) may be NaN past vacuum
    if not (np.isfinite(shock_rows[:, 2:4]).all() and np.isfinite(field_rows[:, :5]).all()):
        raise ArchiveError("shock.csv or field.csv holds a non-finite index, node coordinate or potential")

    config = build_configuration(params, theta)
    shock = config.shock_curve(shock_rows[:, 2:4])
    mesh = build_square_map(config, shock, n1, n2)
    order = np.lexsort((field_rows[:, 1], field_rows[:, 0]))
    field_rows = field_rows[order]
    phi = field_rows[:, 4].reshape(n1, n2)
    xi = field_rows[:, 2:4].reshape(n1, n2, 2)
    scale = max(1.0, float(np.max(np.abs(mesh.nodes))))
    if float(np.max(np.abs(xi - mesh.nodes))) > 1e-6 * scale:
        raise ArchiveError("field.csv node coordinates disagree with the rebuilt mesh")

    metadata["archive_dir"] = os.path.abspath(indir)
    sol = SolutionField(
        config=config,
        shock=shock,
        mesh=mesh,
        phi=phi,
        residual_history=history,
        metadata=metadata,
    )
    return sol, tampered
