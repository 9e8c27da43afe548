import dataclasses
import hashlib
import json
import logging
import math
import os
import warnings

import numpy as np
import pytest

from shockrefl import GasParams, IterationParams, cli, fixed_point_solve, full_report, solver
from shockrefl.archive import read_solution, write_solution
from shockrefl.cli import main
from shockrefl.errors import ArchiveError, EllipticityLost, GraphPropertyLost, ShockReflError, TooFewSamples
from shockrefl.gas import bernoulli_base, ellipticity_margin


@pytest.fixture(scope="module")
def small_run(gas_122, tmp_path_factory):
    """Cheap converged run at 88 degrees, 33x33, archived."""
    ip = IterationParams(n1=33, n2=33)
    sol = fixed_point_solve(gas_122, math.pi / 2.0, ip)
    sol = fixed_point_solve(gas_122, math.radians(88.0), ip, init=sol)
    outdir = tmp_path_factory.mktemp("runs") / "arch88"
    write_solution(sol, str(outdir))
    return sol, str(outdir)


def test_archive_round_trip(small_run):
    sol, outdir = small_run
    back, tampered = read_solution(outdir)
    assert not tampered
    assert np.abs(back.phi - sol.phi).max() < 1e-14
    assert np.abs(back.shock.points - sol.shock.points).max() < 1e-14
    assert back.metadata["regime"] == sol.metadata["regime"]
    assert back.metadata["newton_steps"] == sol.metadata["newton_steps"] > 0


def test_archive_tamper_detection(small_run, tmp_path):
    _, outdir = small_run
    import shutil

    copy_dir = tmp_path / "tampered"
    shutil.copytree(outdir, copy_dir)
    path = copy_dir / "field.csv"
    lines = path.read_text().splitlines()
    parts = lines[40].split(",")
    parts[4] = repr(float(parts[4]) * 1.1)
    lines[40] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    _, tampered = read_solution(str(copy_dir))
    assert tampered


def _edit_residuals(arch):
    path = arch / "residuals.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[1] = repr(float(parts[1]) * 1.1)
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def _edit_meta(arch, edit):
    meta = json.loads((arch / "meta.json").read_text())
    edit(meta)
    (arch / "meta.json").write_text(json.dumps(meta))


def _hash_outside(arch, key=None):
    """Add to meta.json the right hash of a file beside the archive, under
    `key` or its absolute path."""
    outside = arch.parent / "outside.txt"
    outside.write_text("not part of the archive\n")
    digest = hashlib.sha256(outside.read_bytes()).hexdigest()
    _edit_meta(arch, lambda meta: meta["hashes"].update({key or str(outside): digest}))


@pytest.mark.parametrize("tamper", [
    _edit_residuals,
    lambda arch: _edit_meta(arch, lambda meta: meta.pop("hashes")),
    lambda arch: _edit_meta(arch, lambda meta: meta.update(hashes=None)),
    lambda arch: (arch / "residuals.csv").unlink(),
    _hash_outside,
    lambda arch: _hash_outside(arch, "../outside.txt"),
], ids=["edited_residuals", "meta_without_hashes", "meta_hashes_null", "deleted_residuals",
        "hash_of_absolute_path", "hash_of_path_outside"])
def test_archive_tamper_detection_covers_every_file(small_run, tmp_path, monkeypatch, tamper):
    """Every CSV is hashed, and a missing hash or hashed file counts as
    tampering; so does a hash of any other file, which read_solution does
    not open: it opens no file outside the archive."""
    import builtins
    import shutil

    copy_dir = tmp_path / "tampered"
    shutil.copytree(small_run[1], copy_dir)
    tamper(copy_dir)
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(os.path.realpath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    _, tampered = read_solution(str(copy_dir))
    monkeypatch.undo()
    assert tampered
    assert opened and all(os.path.dirname(path) == str(copy_dir.resolve()) for path in opened)


def test_archive_without_residuals_hash_reads_untampered(small_run, tmp_path):
    """Archives written before residuals.csv was hashed stay readable."""
    import shutil

    copy_dir = tmp_path / "older"
    shutil.copytree(small_run[1], copy_dir)
    _edit_meta(copy_dir, lambda meta: meta["hashes"].pop("residuals.csv"))
    back, tampered = read_solution(str(copy_dir))
    assert not tampered
    assert back.residual_history == small_run[0].residual_history


def _edit_csv(arch, name, edit):
    """Rewrite each data line (not the header) of a CSV as edit(cells)."""
    header, *rows = (arch / name).read_text().splitlines()
    (arch / name).write_text("\n".join([header] + [",".join(edit(r.split(","))) for r in rows]) + "\n")


def _edit_field_rows(edit):
    """An edit of field.csv's data lines (a list of row strings) as a whole."""
    def apply(arch):
        header, *rows = (arch / "field.csv").read_text().splitlines()
        (arch / "field.csv").write_text("\n".join([header] + edit(rows)) + "\n")
    return apply


def _move_first_node(rows):
    """The rows with xi1 of the first node (column 2) moved by 1e-3."""
    cells = rows[0].split(",")
    cells[2] = repr(float(cells[2]) + 1e-3)
    return [",".join(cells)] + rows[1:]


def _set_cutoff_width(width):
    """An edit of meta.json's metadata.cutoff_width: any value but null names a
    cutoff band other than the solver's CUTOFF_WIDTH sonic radii."""
    return lambda arch: _edit_meta(arch, lambda meta: meta["metadata"].update(cutoff_width=width))


@pytest.mark.parametrize("edit, error", [
    pytest.param(lambda arch: (arch / "meta.json").write_text("[]"), ArchiveError, id="meta_not_an_object"),
    pytest.param(lambda arch: _edit_meta(arch, lambda meta: meta["params"].update(mu=1.0)), ArchiveError,
                 id="params_extra_key"),
    pytest.param(lambda arch: _edit_meta(arch, lambda meta: meta.update(params=[1.0, 2.0, 2.0])), ArchiveError,
                 id="params_a_list"),
    pytest.param(lambda arch: _edit_meta(arch, lambda meta: meta.update(n1=None)), ArchiveError, id="n1_null"),
    pytest.param(lambda arch: _edit_meta(arch, lambda meta: meta.update(n1=True)), ArchiveError, id="n1_true"),
    pytest.param(lambda arch: _edit_meta(arch, lambda meta: meta.update(n1=str(meta["n1"]))), ArchiveError,
                 id="n1_string"),
    pytest.param(lambda arch: _edit_meta(arch, lambda meta: meta.update(n1=meta["n1"] + 0.9)), ArchiveError,
                 id="n1_fraction"),
    pytest.param(lambda arch: _edit_meta(arch, lambda meta: meta.update(theta_w_rad=repr(meta["theta_w_rad"]))),
                 ArchiveError, id="theta_string"),
    pytest.param(lambda arch: _edit_csv(arch, "residuals.csv", lambda cells: cells[:2] + ["abc"]), ArchiveError,
                 id="residuals_not_numeric"),
    pytest.param(lambda arch: _edit_csv(arch, "residuals.csv", lambda cells: cells[:2]), ArchiveError,
                 id="residuals_two_columns"),
    pytest.param(lambda arch: (arch / "shock.csv").write_text(
        "\n".join((arch / "shock.csv").read_text().splitlines()[:2]) + "\n"), TooFewSamples, id="shock_one_row"),
    pytest.param(lambda arch: _edit_csv(arch, "shock.csv", lambda cells: cells[:3]), ArchiveError,
                 id="shock_three_columns"),
    pytest.param(_edit_field_rows(lambda rows: rows[:-1]), ArchiveError, id="field_missing_row"),
    pytest.param(_edit_field_rows(_move_first_node), ArchiveError, id="field_node_moved"),
    pytest.param(_set_cutoff_width("x"), ArchiveError, id="cutoff_width_string"),
    pytest.param(_set_cutoff_width([1, 2]), ArchiveError, id="cutoff_width_list"),
    pytest.param(_set_cutoff_width(math.nan), ArchiveError, id="cutoff_width_nan"),
    pytest.param(_set_cutoff_width(-1.0), ArchiveError, id="cutoff_width_negative"),
    pytest.param(_set_cutoff_width(0.0), ArchiveError, id="cutoff_width_zero"),
    pytest.param(_set_cutoff_width(True), ArchiveError, id="cutoff_width_true"),
    pytest.param(_set_cutoff_width(0.05), ArchiveError, id="cutoff_width_another_band"),
])
def test_malformed_archive_raises_typed_error_and_verify_exits_2(small_run, tmp_path, capsys, edit, error):
    """A malformed archive raises a typed error, never a bare Python one, and
    verify exits 2 with that error's name."""
    import shutil

    arch = tmp_path / "bad"
    shutil.copytree(small_run[1], arch)
    edit(arch)
    with pytest.raises(ShockReflError) as info:
        read_solution(str(arch))
    assert type(info.value) is error
    assert main(["verify", str(arch)]) == 2
    assert capsys.readouterr().err.startswith(f"{error.__name__}: ")


def test_archive_with_a_null_cutoff_width_reads_as_one_without(small_run, tmp_path):
    """Archives that recorded the default band as metadata.cutoff_width = null
    read and verify as the archives without the key that solves write now."""
    import shutil

    sol, outdir = small_run
    arch = tmp_path / "null"
    shutil.copytree(outdir, arch)
    assert "cutoff_width" not in json.loads((arch / "meta.json").read_text())["metadata"]
    _set_cutoff_width(None)(arch)
    back, tampered = read_solution(str(arch))
    assert not tampered and np.array_equal(back.phi, sol.phi) and back.metadata["cutoff_width"] is None
    records = [[(c.name, c.passed, c.worst) for c in full_report(s).checks] for s in (back, sol)]
    assert records[0] == records[1]
    assert main(["verify", str(arch)]) == main(["verify", outdir]) == 0


def test_archive_missing_file(tmp_path):
    with pytest.raises(ArchiveError):
        read_solution(str(tmp_path / "nope"))


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_cli_angles(tmp_path, capsys):
    rc = main(["angles", "--rho0", "1", "--rho1", "2", "--gamma", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"theta_d_deg", "theta_s_deg", "rho_c", "attachment_possible"}
    assert payload["theta_d_deg"] == pytest.approx(54.411189882386, abs=1e-6)
    assert os.path.isfile(tmp_path / "angles.json")
    # gamma = 3: rho_c is infinite, written as null in strict JSON
    rc = main(["angles", "--gamma", "3", "--out", str(tmp_path)])
    assert rc == 0
    for text in (capsys.readouterr().out, (tmp_path / "angles.json").read_text()):
        payload = json.loads(text, parse_constant=_reject_constant)
        assert payload["rho_c"] is None


def test_cli_angles_bad_inputs(tmp_path):
    assert main(["angles", "--rho0", "1", "--rho1", "1", "--out", str(tmp_path)]) == 2
    assert main(["angles", "--gamma", "0.9", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("gas", [
    pytest.param(["--rho1", "inf"], id="inf"),
    pytest.param(["--rho1", "1e300"], id="1e300"),  # at gamma 2, xi1_0 overflows
    pytest.param(["--rho1", "1e200"], id="1e200"),
    # rho1^(gamma-1) itself overflows a double
    pytest.param(["--rho1", "1e200", "--gamma", "3"], id="1e200-gamma3"),
    pytest.param(["--rho1", "1e200", "--gamma", "2.9"], id="1e200-gamma2.9"),
    pytest.param(["--rho1", "1e300", "--gamma", "3"], id="1e300-gamma3"),
    pytest.param(["--rho1", "1.7e308", "--gamma", "3"], id="1.7e308-gamma3"),
])
@pytest.mark.parametrize("command", [["angles"], ["polar"], ["solve", "--theta", "89", "--n1", "9", "--n2", "9"]],
                         ids=["angles", "polar", "solve"])
def test_cli_overflowing_gas_exits_2(tmp_path, capsys, command, gas):
    """A gas set whose state (2) algebra overflows (or a non-finite density)
    is a typed error and exit 2, not a bare ValueError or OverflowError."""
    assert main(command + gas + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.split(":")[0] in {"ValidationError", "BracketingFailure", "DetachedWedgeAngle"}


# theta_d in the rho1 -> inf limit, in degrees
HUGE_RHO1_THETA_D = {"2": 59.4365835, "3": 68.2707732}


@pytest.mark.parametrize("gamma", ["1.4", "2", "3"])
@pytest.mark.parametrize("rho1", ["1e10", "1e50", "1e100", "1e148", "1e150", "1e152", "1e153", "5e153",
                                  "9.9e153", "1e154", "1e200", "1e300", "1.7e308"])
def test_cli_angles_of_a_huge_rho1_exits_0_or_2(tmp_path, capsys, rho1, gamma):
    """With a RuntimeWarning an error (pytest's filterwarnings), a huge rho1
    gives angles or a typed error, as u1 or rho1^(gamma-1) overflows a
    double.  No term of G = F/rho2 overflows where u1 is finite, so gamma 2
    up to rho1 = 5e153 and gamma 3 up to 1e100 give the rho1 -> inf angles."""
    rc = main(["angles", "--rho1", rho1, "--gamma", gamma, "--out", str(tmp_path)])
    assert rc in (0, 2)
    if rc == 2:
        assert capsys.readouterr().err.split(":")[0] in {"ValidationError", "BracketingFailure"}
    if (gamma == "2" and 1e148 <= float(rho1) <= 5e153) or (gamma == "3" and rho1 == "1e100"):
        assert rc == 0
        payload = json.loads((tmp_path / "angles.json").read_text())
        assert payload["theta_d_deg"] == pytest.approx(HUGE_RHO1_THETA_D[gamma], abs=1e-6)


def test_cli_polar(tmp_path, capsys):
    rc = main(["polar", "--rho0", "1", "--rho1", "2", "--gamma", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "polar.csv").read_text().splitlines()
    assert len(rows) == 201  # header + default 200-point grid
    header = rows[0].split(",")
    iw = header.index("rho2_weak")
    is_ = header.index("rho2_strong")
    last = rows[-1].split(",")
    assert float(last[0]) == pytest.approx(90.0)
    assert float(last[header.index("v2_weak")]) == 0.0
    n_ok = 0
    for r in rows[1:]:
        parts = r.split(",")
        if parts[1] == "ok" and float(parts[0]) < 90.0:
            assert float(parts[iw]) < float(parts[is_])
            n_ok += 1
    assert n_ok > 150


def test_cli_polar_round_trips_residuals(tmp_path, gas_122):
    """Re-derive states from polar.csv rows and recheck the residuals."""
    from shockrefl import make_uniform_state, state2_residuals

    main(["polar", "--rho0", "1", "--rho1", "2", "--gamma", "2", "--out", str(tmp_path)])
    rows = (tmp_path / "polar.csv").read_text().splitlines()
    header = rows[0].split(",")
    inc_xi = None
    checked = 0
    for r in rows[1:-1:20]:
        parts = r.split(",")
        if parts[1] != "ok":
            continue
        th = math.radians(float(parts[0]))
        u2 = float(parts[header.index("u2_weak")])
        v2 = float(parts[header.index("v2_weak")])
        from shockrefl import incident_state

        inc = incident_state(gas_122)
        k2 = -inc.xi1_0 * u2 * (1.0 + math.tan(th) ** 2)
        st = make_uniform_state(u2, v2, k2, gas_122)
        res = state2_residuals(st, th, gas_122)
        assert max(abs(x) for x in res) < 1e-9
        checked += 1
    assert checked > 5


@pytest.mark.parametrize("gamma, worst", [(2.0, None), (1.4, -1.8719)])
def test_report_and_archive_of_a_field_past_vacuum(tmp_path, gamma, worst):
    """The 17^2 normal reflection with phi + 3 xi2 reaches vacuum for gamma = 2:
    its ellipticity margin is NaN there (null in JSON), so the report fails
    instead of raising, the archive is written and verify exits 4, not 2.
    For gamma = 1.4 the same field stays short of vacuum."""
    sol = fixed_point_solve(GasParams(1.0, 2.0, gamma), math.pi / 2.0, IterationParams(n1=17, n2=17))
    lifted = dataclasses.replace(sol, phi=sol.phi + 3.0 * sol.mesh.nodes[..., 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = full_report(lifted)
    record = report["ellipticity"].to_dict()
    assert not report.verdict and record["passed"] is False
    assert record["worst"] == (None if worst is None else pytest.approx(worst, abs=1e-4))
    write_solution(lifted, str(tmp_path / "lifted"))
    assert main(["verify", str(tmp_path / "lifted")]) == 4


def test_cli_solve_verify_and_exit_codes(tmp_path, gas_122):
    rc = main(["solve", "--rho0", "1", "--rho1", "2", "--gamma", "2",
               "--theta", "88", "--n1", "33", "--n2", "33", "--out", str(tmp_path)])
    assert rc == 0
    arch = tmp_path / "solve_theta088.000_n33x33"
    assert (arch / "report.json").is_file()
    report = json.loads((arch / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert main(["verify", str(arch)]) == 0
    # below the detachment angle: typed error, exit 2
    assert main(["solve", "--rho0", "1", "--rho1", "2", "--gamma", "2",
                 "--theta", "10", "--n1", "33", "--n2", "33",
                 "--out", str(tmp_path)]) == 2
    # missing archive
    assert main(["verify", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize("flag", ["--rho0", "--rho1", "--gamma", "--out", "--config"])
def test_cli_verify_rejects_run_config_flags(small_run, flag):
    """verify reads everything from the archive: a run flag is a usage error."""
    with pytest.raises(SystemExit) as info:
        main(["verify", flag, "5", small_run[1]])
    assert info.value.code == 2


def test_cli_solve_warmup_no_convergence_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "MAX_OUTER", 1)
    rc = main(["solve", "--theta", "88", "--n1", "17", "--n2", "17", "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("NoConvergence: ")


def test_cli_solve_warmup_grid_starts_at_90_degrees(tmp_path, capsys):
    """The warm-up grid steps down from pi/2 by 1 degree, starts at pi/2
    however near theta lies, and lists theta once, on the step grid or off it;
    a solve a hair below 90 degrees then stops with the solve's own typed
    error (exit 2), not with a grid that lacks pi/2."""
    assert cli._warmup_grid(math.pi / 2.0) == [math.pi / 2.0]
    theta = cli._radians(89.9999999999)
    assert cli._warmup_grid(theta) == [math.pi / 2.0, theta]
    for deg, want in ((86.0, [90.0, 89.0, 88.0, 87.0, 86.0]), (87.5, [90.0, 89.0, 88.0, 87.5])):
        grid = cli._warmup_grid(math.radians(deg))
        assert grid[0] == math.pi / 2.0 and grid[-1] == math.radians(deg)
        assert [round(math.degrees(t), 9) for t in grid] == want
    assert main(["solve", "--theta", "89.9999999999", "--n1", "9", "--n2", "9", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("DegenerateSonicArc: ") and "must start at theta_w = pi/2" not in err


@pytest.mark.parametrize("error", [GraphPropertyLost, EllipticityLost])
def test_sweep_keeps_partial_family_when_a_step_breaks_down(tmp_path, monkeypatch, capsys, caplog,
                                                           gas_122, error):
    """A step that fails below 88.6 degrees, at every halving, stops the
    sweep with the error's name as its status; the members above it are
    kept and archived, each halving is recorded as a bridge and logged by
    the sweep command, and sweep and solve exit 3, a solve from an archive too."""
    real = solver.fixed_point_solve
    attempts = []

    def failing_below(params, theta_w, iter_params=None, init=None):
        attempts.append(math.degrees(theta_w))
        if theta_w < math.radians(88.6):
            raise error("injected breakdown")
        return real(params, theta_w, iter_params, init=init)

    monkeypatch.setattr(solver, "fixed_point_solve", failing_below)
    monkeypatch.setattr(cli, "fixed_point_solve", failing_below)
    ip = IterationParams(n1=17, n2=17)
    grid = [math.pi / 2.0] + [math.radians(d) for d in (89.0, 88.0, 87.0)]
    sweep = solver.continuation_sweep(gas_122, grid, ip)
    assert sweep.status == error.__name__
    assert [round(math.degrees(t), 9) for t in sweep.thetas] == [90.0, 89.0]
    assert len(sweep.members) == 2 and math.isclose(math.degrees(sweep.failed_theta), 88.0)
    assert any(88.6 <= a < 89.0 for a in attempts)  # the step was halved before giving up
    halved = [88.0, 88.5, 88.5, 88.5, 88.5625, 88.59375]
    assert [(round(math.degrees(t), 9), name) for t, name in sweep.bridges] == [
        (d, error.__name__) for d in halved]

    caplog.set_level(logging.INFO, logger="shockrefl")
    rc = main(["sweep", "--theta-grid", "90:87:1", "--n1", "17", "--n2", "17",
               "--out", str(tmp_path)])
    assert rc == 3
    bridged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("bridged")]
    assert bridged == [f"bridged {error.__name__} at theta={d:.4f} deg by halving the step" for d in halved]
    rows = (tmp_path / "family.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["90", "89"]
    assert f"sweep {error.__name__}: 2 members" in capsys.readouterr().out

    for init in ([], ["--init", str(tmp_path / "theta089.000")]):
        rc = main(["solve", "--theta", "88", "--n1", "17", "--n2", "17", "--out", str(tmp_path)] + init)
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"{error.__name__}: ")


def test_cli_solve_at_90_passes_with_flat_note(tmp_path):
    rc = main(["solve", "--rho0", "1", "--rho1", "2", "--gamma", "2",
               "--theta", "90", "--n1", "33", "--n2", "33", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "solve_theta090.000_n33x33" / "report.json").read_text())
    conv = [c for c in report["checks"] if c["name"] == "graph_and_convexity"][0]
    assert "flat-shock exemption" in conv["note"]


def test_cli_report_writes_json_booleans(tmp_path):
    rc = main(["solve", "--theta", "90", "--n1", "17", "--n2", "17", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "solve_theta090.000_n17x17" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    details = {c["name"]: c["details"] for c in report["checks"]}
    assert details["shock_inequalities"]["entropy_ok"] is True
    assert isinstance(details["tangent_distance"]["monotone"], bool)


def test_cli_sweep_small(tmp_path):
    rc = main(["sweep", "--rho0", "1", "--rho1", "2", "--gamma", "2",
               "--theta-grid", "90:88:1", "--n1", "33", "--n2", "33",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "family.csv").read_text().splitlines()
    assert len(rows) == 4  # header + 3 members
    assert all("pass" in r for r in rows[1:])


def test_sweep_predictor_and_warm_start_gap_reach_the_archive(tmp_path, caplog, gas_122):
    """Each member after 90 degrees records its predictor and warm-start gap;
    both round-trip through the archive, and `sweep --log-level info` logs them."""
    grid = [math.pi / 2.0] + [math.radians(d) for d in (89.0, 88.0, 87.0)]
    sweep = solver.continuation_sweep(gas_122, grid, IterationParams(n1=17, n2=17))
    assert [m.metadata.get("predictor") for m in sweep.members] == [None, "transport", "secant", "secant"]
    for k, sol in enumerate(sweep.members[1:]):
        write_solution(sol, str(tmp_path / f"m{k}"))
        back, tampered = read_solution(str(tmp_path / f"m{k}"))
        assert not tampered
        assert back.metadata["predictor"] == sol.metadata["predictor"]
        assert back.metadata["warm_start_gap"] == sol.metadata["warm_start_gap"] > 0.0

    caplog.set_level(logging.INFO, logger="shockrefl")
    assert main(["sweep", "--theta-grid", "90:87:1", "--n1", "17", "--n2", "17", "--log-level", "info",
                 "--out", str(tmp_path / "cli")]) == 0
    logged = [r.getMessage() for r in caplog.records if "predictor" in r.getMessage()]
    assert logged == [
        f"theta={m.metadata['theta_deg']:.4f} deg: {m.metadata['predictor']} predictor, "
        f"warm-start gap {m.metadata['warm_start_gap']:.3e}" for m in sweep.members[1:]]


def test_sweep_logs_outer_models_and_restarts(tmp_path, monkeypatch, caplog):
    """`sweep --log-level info` logs each member's outer model and each step
    restarted without its carried model, and meta.json records the model: an
    injected failure of the carried 88-degree solve restarts it from the
    identity prior, and 87 degrees carries 88's model."""
    real = solver.fixed_point_solve

    def failing_carried(params, theta_w, iter_params=None, init=None):
        if round(math.degrees(theta_w), 9) == 88.0 and init.inverse_jacobian is not None:
            raise GraphPropertyLost("injected breakdown")
        return real(params, theta_w, iter_params, init=init)

    monkeypatch.setattr(solver, "fixed_point_solve", failing_carried)
    caplog.set_level(logging.INFO, logger="shockrefl")
    assert main(["sweep", "--theta-grid", "90:87:1", "--n1", "17", "--n2", "17", "--log-level", "info",
                 "--out", str(tmp_path)]) == 0
    logged = [r.getMessage() for r in caplog.records]
    assert [m for m in logged if m.startswith(("restarted", "bridged"))] == [
        "restarted GraphPropertyLost at theta=88.0000 deg without the carried outer model"]
    models = {"89": "identity", "88": "identity", "87": "carried"}
    assert [m for m in logged if m.startswith("theta=") and m.endswith(" outer model")] == [
        f"theta={d}.0000 deg: {model} outer model" for d, model in models.items()]
    for d, model in models.items():
        meta = json.loads((tmp_path / f"theta0{d}.000" / "meta.json").read_text())
        assert meta["metadata"]["outer_model"] == model


@pytest.mark.parametrize("command, spec", [
    pytest.param("sweep", "80:90:1", id="sweep_empty"),
    pytest.param("sweep", "89:85:1", id="sweep_not_from_90"),
    pytest.param("sweep", "90:85", id="sweep_two_numbers"),
    pytest.param("sweep", "90:abc:1", id="sweep_not_a_number"),
    pytest.param("polar", "90:85:0.5", id="polar_fractional_num"),
    pytest.param("polar", "90:85", id="polar_two_numbers"),
    pytest.param("polar", "85:90:-3", id="polar_negative_num"),
    pytest.param("polar", "90:89:1e9", id="polar_too_many_angles"),
    pytest.param("sweep", "90:89:1e-9", id="sweep_too_many_angles"),
    pytest.param("sweep", "90:89:1e-320", id="sweep_subnormal_step"),
])
def test_cli_sweep_empty_grid_rejected(tmp_path, command, spec):
    assert main([command, "--theta-grid", spec, "--out", str(tmp_path)]) == 2


def test_cli_config_file(tmp_path, monkeypatch):
    cfgfile = tmp_path / "rc.json"
    cfgfile.write_text(json.dumps({"rho1": 2.5, "gamma": 1.4}))
    rc = main(["angles", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "angles.json").read_text())
    assert payload["params"]["rho1"] == 2.5
    assert payload["params"]["gamma"] == 1.4
    # the shock update has no relaxation factor, the cutoff band and the outer
    # cap are solver constants and the solve's warm-up step is fixed: a config
    # naming any of them is rejected before anything is solved
    monkeypatch.setattr(cli, "continuation_sweep", lambda *args: pytest.fail("a removed setting ran"))
    for name, value in (("relax", 0.7), ("cutoff_width", 0.05), ("max_outer", 90), ("sweep_step", 2.0)):
        cfgfile.write_text(json.dumps({name: value}))
        for command in (["angles"], ["solve", "--theta", "86"]):
            assert main(command + ["--config", str(cfgfile), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, config", [
    pytest.param(["angles"], [1, 2], id="not_an_object"),
    pytest.param(["solve", "--theta", "89"], {"n1": "33"}, id="n1_a_string"),
    pytest.param(["solve", "--theta", "89"], {"n1": 33.0}, id="n1_a_float"),
    pytest.param(["angles"], {"gamma": "2"}, id="gamma_a_string"),
    pytest.param(["angles"], {"rho1": None}, id="rho1_null"),
    pytest.param(["polar"], {"theta_grid": 5}, id="theta_grid_a_number"),
])
def test_cli_malformed_config_file_exits_2(tmp_path, monkeypatch, capsys, command, config):
    """Each config value must have its RunConfig field's type."""
    monkeypatch.setattr(cli, "continuation_sweep", lambda *args: pytest.fail("a malformed config ran"))
    cfgfile = tmp_path / "rc.json"
    cfgfile.write_text(json.dumps(config))
    assert main(command + ["--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("ValidationError: ")


def test_cli_theta_and_theta_grid_may_come_from_the_config_file(tmp_path, monkeypatch):
    grids = []

    def stub_sweep(params, theta_grid, iter_params):
        grids.append([round(math.degrees(t), 9) for t in theta_grid])
        return solver.SweepResult(members=[], status="NoConvergence", stop_reason="stub",
                                  failed_theta=theta_grid[-1])

    monkeypatch.setattr(cli, "continuation_sweep", stub_sweep)
    cfgfile = tmp_path / "rc.json"
    for command, config in ((["solve"], {"theta": 89}), (["sweep"], {"theta_grid": "90:88:1"})):
        cfgfile.write_text(json.dumps(config))
        assert main(command + ["--config", str(cfgfile), "--out", str(tmp_path)]) == 3
    assert grids == [[90.0, 89.0], [90.0, 89.0, 88.0]]
    # without the file, the value is missing: exit 2 as for any input error
    for command in (["solve"], ["sweep"]):
        assert main(command + ["--out", str(tmp_path)]) == 2
    assert len(grids) == 2


def test_cli_solver_flags_reach_iteration_params(tmp_path, monkeypatch):
    seen = []

    def stub_sweep(params, theta_grid, iter_params):
        seen.append(iter_params)
        return solver.SweepResult(members=[], status="NoConvergence", stop_reason="stub")

    monkeypatch.setattr(cli, "continuation_sweep", stub_sweep)
    want = IterationParams(n1=17, n2=21, tol_fixed_point=3e-6, lin_tol=2e-8)
    solve = ["solve", "--theta", "89", "--out", str(tmp_path)]
    flags = ["--n1", "17", "--n2", "21", "--tol-fp", "3e-6", "--lin-tol", "2e-8"]
    assert main(solve + flags) == 3
    assert seen.pop() == want
    cfgfile = tmp_path / "rc.json"
    cfgfile.write_text(json.dumps(dataclasses.asdict(want)))
    assert main(solve + ["--config", str(cfgfile)]) == 3
    assert seen.pop() == want
    # a flag wins over the file
    assert main(solve + ["--config", str(cfgfile), "--tol-fp", "5e-7", "--n1", "9"]) == 3
    assert seen.pop() == dataclasses.replace(want, tol_fixed_point=5e-7, n1=9)


def _gone(flag):
    """argparse's refusal of a solver flag that solve no longer has."""
    return f"error: unrecognized arguments: {flag}"


_INVALID = "ValidationError: "


@pytest.mark.parametrize("args, error", [
    pytest.param(["--theta", "88", "--sweep-step", "0"], _gone("--sweep-step"), id="sweep_step_zero"),
    pytest.param(["--theta", "88", "--sweep-step", "-1"], _gone("--sweep-step"), id="sweep_step_negative"),
    pytest.param(["--theta", "88", "--sweep-step", "nan"], _gone("--sweep-step"), id="sweep_step_nan"),
    pytest.param(["--theta", "89", "--n1", "2", "--n2", "2"], _INVALID, id="grid_2x2"),
    pytest.param(["--theta", "89", "--cutoff-width", "-1"], _gone("--cutoff-width"), id="cutoff_width_negative"),
    pytest.param(["--theta", "89", "--n1", "17", "--n2", "17", "--cutoff-width", "nan"], _gone("--cutoff-width"),
                 id="cutoff_width_nan"),
    pytest.param(["--theta", "89", "--n1", "17", "--n2", "17", "--tol-fp", "nan"], _INVALID, id="tol_fp_nan"),
    pytest.param(["--theta", "89", "--n1", "17", "--n2", "17", "--lin-tol", "-1"], _INVALID, id="lin_tol_negative"),
    pytest.param(["--theta", "89", "--max-outer", "0"], _gone("--max-outer"), id="max_outer_zero"),
    pytest.param(["--theta", "89", "--sweep-step", "1e-9"], _gone("--sweep-step"), id="sweep_step_too_many_angles"),
    pytest.param(["--theta", "89", "--sweep-step", "1e-320"], _gone("--sweep-step"), id="sweep_step_subnormal"),
])
def test_cli_solve_invalid_inputs_exit_2(tmp_path, monkeypatch, capsys, args, error):
    """Bad solver settings exit 2 before anything is solved: a bad grid or
    tolerance as a ValidationError, and the removed --cutoff-width,
    --max-outer and --sweep-step as flags argparse does not know."""
    monkeypatch.setattr(cli, "continuation_sweep", lambda *args: pytest.fail("an invalid input ran"))
    try:
        rc = main(["solve", *args, "--out", str(tmp_path)])
    except SystemExit as exc:  # argparse exits 2 itself
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(error) if error == _INVALID else error in err


def _old_csv_texts(sol):
    """The archive CSVs as formatted value by value with "%.17g", for comparison."""
    fmt = lambda v: "%.17g" % float(v)
    shock = ["T,S,xi1,xi2"]
    for t, s, (x, y) in zip(sol.shock.t_values, sol.shock.s_values, sol.shock.points):
        shock.append(",".join(fmt(v) for v in (t, s, x, y)))
    grad = sol.gradient()
    speed = np.linalg.norm(grad, axis=-1)
    params = sol.config.params
    margin = ellipticity_margin(grad, sol.phi, params)
    base = bernoulli_base(speed ** 2, sol.phi, params)
    rho = np.where(base > 0, np.abs(base) ** (1.0 / (params.gamma - 1.0)), np.nan)
    field = ["i,j,xi1,xi2,phi,speed,rho,ellipticity_margin"]
    for i in range(sol.phi.shape[0]):
        for j in range(sol.phi.shape[1]):
            x, y = sol.mesh.nodes[i, j]
            values = (x, y, sol.phi[i, j], speed[i, j], rho[i, j], margin[i, j])
            field.append("%d,%d," % (i, j) + ",".join(fmt(v) for v in values))
    residuals = ["outer_iteration,shock_movement,interior_residual"]
    for outer, movement, res in sol.residual_history:
        residuals.append("%d,%s,%s" % (outer, fmt(movement), fmt(res)))
    return {name: "\n".join(rows) + "\n" for name, rows in
            (("shock.csv", shock), ("field.csv", field), ("residuals.csv", residuals))}


def test_archive_csvs_match_per_value_formatting(sol85_n65, sol_normal65, small_run, tmp_path):
    empty_history = dataclasses.replace(small_run[0], residual_history=[])
    for k, sol in enumerate((sol85_n65, sol_normal65, empty_history)):
        outdir = tmp_path / f"arch{k}"
        write_solution(sol, str(outdir))
        for name, text in _old_csv_texts(sol).items():
            assert (outdir / name).read_text() == text, name
    assert (tmp_path / "arch2" / "residuals.csv").read_text().count("\n") == 1
    back, tampered = read_solution(str(tmp_path / "arch2"))
    assert not tampered and back.residual_history == []


def test_archive_csvs_equal_savetxt_bytes(small_run, tmp_path):
    """The one-pass CSV writer gives numpy.savetxt's bytes for every CSV of a
    33^2 member, a header-only residuals.csv included, and meta.json holds
    the SHA-256 of the bytes on disk.  17 digits re-read exactly, so savetxt
    of the re-read rows is savetxt of the values written."""
    sol = small_run[0]
    for k, member in enumerate((sol, dataclasses.replace(sol, residual_history=[]))):
        outdir = tmp_path / f"arch{k}"
        meta = write_solution(member, str(outdir))
        for name, int_cols in (("shock.csv", 0), ("field.csv", 2), ("residuals.csv", 1)):
            header = (outdir / name).read_text().splitlines()[0]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header-only file
                rows = np.loadtxt(outdir / name, delimiter=",", skiprows=1, ndmin=2)
            rows = rows.reshape(-1, header.count(",") + 1)
            fmt = ["%d"] * int_cols + ["%.17g"] * (rows.shape[1] - int_cols)
            np.savetxt(tmp_path / "ref.csv", rows, fmt=fmt, delimiter=",", header=header, comments="")
            assert (outdir / name).read_bytes() == (tmp_path / "ref.csv").read_bytes(), name
        for name, digest in meta["hashes"].items():
            assert digest == hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    assert (tmp_path / "arch1" / "residuals.csv").read_text().count("\n") == 1
