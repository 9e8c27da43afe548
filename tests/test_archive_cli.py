import dataclasses
import json
import logging
import math
import os

import numpy as np
import pytest

from shockrefl import GasParams, IterationParams, cli, fixed_point_solve, solver
from shockrefl.archive import read_solution, write_solution
from shockrefl.cli import main
from shockrefl.errors import ArchiveError, EllipticityLost, GraphPropertyLost
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


def test_archive_missing_file(tmp_path):
    with pytest.raises(ArchiveError):
        read_solution(str(tmp_path / "nope"))


def test_cli_angles(tmp_path, capsys):
    rc = main(["angles", "--rho0", "1", "--rho1", "2", "--gamma", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"theta_d_deg", "theta_s_deg", "rho_c", "attachment_possible"}
    assert payload["theta_d_deg"] == pytest.approx(54.411189882386, abs=1e-6)
    assert os.path.isfile(tmp_path / "angles.json")


def test_cli_angles_bad_inputs(tmp_path):
    assert main(["angles", "--rho0", "1", "--rho1", "1", "--out", str(tmp_path)]) == 2
    assert main(["angles", "--gamma", "0.9", "--out", str(tmp_path)]) == 2


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


def test_cli_solve_verify_and_exit_codes(tmp_path, gas_122):
    rc = main(["solve", "--rho0", "1", "--rho1", "2", "--gamma", "2",
               "--theta", "88", "--n1", "33", "--n2", "33",
               "--sweep-step", "1.0", "--out", str(tmp_path)])
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


def test_cli_solve_warmup_no_convergence_exits_3(tmp_path, capsys):
    rc = main(["solve", "--theta", "88", "--n1", "17", "--n2", "17", "--max-outer", "1",
               "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("NoConvergence: ")


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
    report = json.loads((tmp_path / "solve_theta090.000_n17x17" / "report.json").read_text())
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


def test_cli_sweep_empty_grid_rejected(tmp_path):
    assert main(["sweep", "--theta-grid", "80:90:1", "--out", str(tmp_path)]) == 2


def test_cli_config_file(tmp_path, monkeypatch):
    cfgfile = tmp_path / "rc.json"
    cfgfile.write_text(json.dumps({"rho1": 2.5, "gamma": 1.4}))
    rc = main(["angles", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "angles.json").read_text())
    assert payload["params"]["rho1"] == 2.5
    assert payload["params"]["gamma"] == 1.4
    # the shock update has no relaxation factor: a config naming one is rejected
    cfgfile.write_text(json.dumps({"relax": 0.7}))
    assert main(["angles", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    # a sweep_step from the file sets the solve's warm-up grid unless
    # --sweep-step is given
    grids = []

    def stub_sweep(params, theta_grid, iter_params):
        grids.append([round(math.degrees(t), 9) for t in theta_grid])
        return solver.SweepResult(members=[], thetas=[], status="NoConvergence", stop_reason="stub")

    monkeypatch.setattr(cli, "continuation_sweep", stub_sweep)
    cfgfile.write_text(json.dumps({"sweep_step": 2.0}))
    for extra, grid in (([], [90.0, 88.0, 86.0]), (["--sweep-step", "1"], [90.0, 89.0, 88.0, 87.0, 86.0])):
        assert main(["solve", "--theta", "86", "--config", str(cfgfile), "--out", str(tmp_path)] + extra) == 3
        assert grids.pop() == grid


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
