import contextlib
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwave import Grid, RealField, dispersion_speed, make_params, measure_phase_speed
from fracwave.cli import _SnapshotWriter, _drift, main
from fracwave.config import read_snapshot, write_snapshot
from conftest import CHECKPOINT_FIELDS, poison_checkpoint


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(out_dir, **overrides):
    cfg = {
        "model": {"kind": "fch", "nu": 1.0},
        "grid": {"N": 64},
        "initial": {"kind": "zero"},
        "solver": {"t_end": 1.0, "dt": 0.01, "snapshot_every": 0.25},
        "output": {"directory": str(out_dir)},
    }
    for key, val in overrides.items():
        cfg[key] = val
    return cfg


def load_manifest(out_dir):
    return load_strict_json(Path(out_dir) / "manifest.json")


def load_strict_json(path):
    """The JSON document at ``path``; NaN or Infinity in it fails."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestRun:
    def test_zero_run(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        assert main(["run", "--config", cfg_path]) == 0
        manifest = load_manifest(out)
        assert manifest["outcome"] == "completed"
        assert manifest["t_final"] == pytest.approx(1.0)
        assert len(manifest["snapshots"]) == 5
        for entry in manifest["snapshots"]:
            _, u = read_snapshot(os.path.join(str(out), entry["file"]))
            assert np.all(u == 0.0)
        assert os.path.exists(os.path.join(str(out), "checkpoint.fwck"))

    def test_mode_run_measures_phase_speed(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            initial={"kind": "mode", "k": 1, "amplitude": 1e-6},
            solver={"t_end": 1.0, "dt": "auto", "snapshot_every": 0.05},
        )
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path]) == 0
        manifest = load_manifest(out)
        assert manifest["measured_phase_speed"] == pytest.approx(7.0 / 9.0, abs=1e-6)

    def test_fkdv_is_stepped_with_its_own_scheme(self, tmp_path, capsys):
        # no integrator key: IFRK4's advective auto dt takes 2 steps, where
        # an RK4 bound on the |k|^3 phase took 130
        cfg = base_config(tmp_path / "out", model={"kind": "fkdv", "nu": 1.0}, grid={"N": 32},
                          initial={"kind": "mode", "k": 1, "amplitude": 0.2},
                          solver={"t_end": 0.1, "dt": "auto"})
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path]) == 0
        assert load_manifest(tmp_path / "out")["steps"] == 2
        capsys.readouterr()
        assert main(["run", "--config", cfg_path, "--set", "solver.integrator=rk4",
                     "--set", f"output.directory={tmp_path / 'rk4'}"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "solver.integrator" in lines[0]
        assert not (tmp_path / "rk4").exists()

    def test_strong_nonlinearity_gets_a_resolved_auto_dt(self, tmp_path):
        # fKdV with c_nl = 10: an auto dt that counted max|u| alone (0.0123)
        # ended as breaking at t = 0.46; |c_nl| max|u| gives 0.0041
        cfg = base_config(tmp_path / "out",
                          model={"kind": "fkdv", "nu": 1.0, "coefficients": {"c_nl": 10}},
                          grid={"N": 256}, initial={"kind": "mode", "k": 1, "amplitude": 0.3},
                          solver={"t_end": 1.0, "dt": "auto"})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        manifest = load_manifest(tmp_path / "out")
        assert manifest["outcome"] == "completed" and manifest["steps"] == 245

    def test_phase_speed_equals_fit_on_reloaded_snapshots(self, tmp_path):
        cfg = base_config(
            tmp_path / "run",
            initial={"kind": "mode", "k": 2, "amplitude": 0.2, "phase": 0.3},
            solver={"t_end": 0.5, "dt": 0.01, "snapshot_every": 0.05},
        )
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path, "--set", "solver.t_end=0.25"]) == 0
        assert main([
            "resume", "--config", cfg_path,
            "--checkpoint", str(tmp_path / "run" / "checkpoint.fwck"),
            "--set", f"output.directory={tmp_path / 'resumed'}",
        ]) == 0
        grid = Grid(length=2.0 * np.pi, n_points=64)
        for out in ("run", "resumed"):
            manifest = load_manifest(tmp_path / out)
            entries = manifest["snapshots"]
            fields = [RealField(grid, read_snapshot(tmp_path / out / e["file"])[1])
                      for e in entries]
            expected = measure_phase_speed([e["t"] for e in entries], fields, 2)
            assert manifest["measured_phase_speed"] == expected

    def test_unpopulated_mode_phase_speed_null(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, initial={"kind": "mode", "k": 1, "amplitude": 0.0})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        assert load_manifest(out)["measured_phase_speed"] is None

    def test_config_error_exit_1(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["solver"]["dtt"] = 0.1
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path]) == 1
        assert "dtt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["solver.snapshot_every=NaN", "solver.breaking_slope_threshold=NaN",
         "solver.snapshot_every=Infinity"],
    )
    def test_nonfinite_solver_number_exit_1(self, tmp_path, capsys, override):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        assert main(["run", "--config", cfg_path, "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override",
        ["initial.amplitude=NaN", "model.coefficients.c_adv=NaN", "grid.L=Infinity",
         "output.snapshot_format=csv"],
    )
    def test_config_reproducers_exit_1(self, tmp_path, capsys, override):
        cfg = base_config(tmp_path / "out", initial={"kind": "mode", "k": 1, "amplitude": 0.1})
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path, "--set", override]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert override.split("=")[0].split(".")[-1] in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "nu", "--values", "1"]])
    @pytest.mark.parametrize("under_file", [True, False])
    def test_uncreatable_output_directory_exit_1(
        self, tmp_path, capsys, monkeypatch, command, under_file
    ):
        monkeypatch.chdir(tmp_path)  # a relative directory must not land in the caller's cwd
        (tmp_path / "file").write_text("")
        directory = str(tmp_path / "file" / "out") if under_file else ""
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        args = [command[0], "--config", cfg_path, "--set", f"output.directory={directory}"]
        assert main(args + command[1:]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot create output directory")

    @pytest.mark.parametrize("target,what", [
        ("checkpoint.fwck", "checkpoint"), ("snap_000001.csv", "snapshot"),
        ("manifest.json", "manifest"),
    ])
    def test_unwritable_output_file_exit_1(self, tmp_path, capsys, target, what):
        out = tmp_path / "out"
        (out / target).mkdir(parents=True)  # a directory squats on the file's name
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        assert main(["run", "--config", cfg_path]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: cannot write {what} {str(out / target)!r}: Is a directory"]
        assert not list(tmp_path.rglob("*.tmp"))

    def test_step_count_overflow_exit_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        args = ["run", "--config", cfg_path, "--set", "solver.t_end=1e300",
                "--set", "solver.dt=1e-300"]
        assert main(args) == 1
        assert "finite number of steps" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["solver.cfl=5e-324", "solver.cfl=1e-300",
                                         "solver.dt=1e-300", "solver.dt=1e-18"])
    def test_dt_that_cannot_advance_t_exit_1(self, tmp_path, capsys, setting):
        # below eps * t_end = 2.2e-16, t + dt rounds to t before t_end; an
        # auto dt of 5e-324 * dx / v_max underflows to 0
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        args = ["run", "--config", cfg_path, "--set", setting]
        if setting.startswith("solver.cfl"):
            args += ["--set", "solver.dt=auto"]
        assert main(args) == 1
        (line,) = capsys.readouterr().err.splitlines()
        key = setting.split("=")[0]
        assert line.startswith("error: dt = ") and f"(from {key}) is below eps * t_end" in line
        assert not (tmp_path / "out").exists()  # a refused run makes no output directory

    @pytest.mark.parametrize("t_end", [1e-300, 5e-324])
    def test_phase_speed_of_indistinct_times_is_null(self, tmp_path, t_end):
        # the two snapshot times are too close for the fit's sums, so its
        # slope is not finite; the manifest says null, not NaN
        out = tmp_path / "out"
        cfg = base_config(out, grid={"N": 16},
                          initial={"kind": "mode", "k": 1, "amplitude": 0.1},
                          solver={"t_end": t_end, "dt": "auto"})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        manifest = load_manifest(out)
        assert len(manifest["snapshots"]) == 2
        assert manifest["measured_phase_speed"] is None

    def test_linearized_kind_is_unknown(self, tmp_path, capsys):
        # the kind is gone: fbbm with c_nl = 0 is its coefficient set, and a
        # c_nl given with the old name is refused, not silently dropped
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        assert main(["run", "--config", cfg_path, "--set", "model.kind=linearized",
                     "--set", 'model.coefficients={"c_nl": 7}']) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown model kind 'linearized'; expected one of ['fch', 'fkdv', 'fbbm']"]
        assert not out.exists()

    @pytest.mark.parametrize("dt", [0.01, "auto"])
    def test_overflowing_fractional_order_exit_1(self, tmp_path, capsys, dt):
        # |k|^(2 nu) at k_max = 8 is past the float range for nu = 180
        cfg = base_config(tmp_path / "out", grid={"N": 16},
                          initial={"kind": "mode", "k": 1, "amplitude": 0.2},
                          solver={"t_end": 0.1, "dt": dt, "snapshot_every": 0.05})
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path, "--set", "model.nu=180"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: fractional order nu = 180 overflows |k|^(2 nu) at k_max = 8"]

    def test_mass_drift_rel_null_for_zero_mean(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, initial={"kind": "mode", "k": 1, "amplitude": 0.3})
        cfg["solver"]["t_end"] = 0.5
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        drift = load_manifest(out)["conserved_drift"]
        assert drift["mass"]["drift_abs"] < 1e-14
        assert drift["mass"]["drift_rel"] is None
        assert drift["momentum"]["drift_rel"] is not None

    def test_overflowing_drifts_are_null(self):
        # finite ends whose difference or ratio overflows: JSON has no Infinity
        assert _drift([1e308, -1e308])["drift_abs"] is None
        assert _drift([5e-324, 1.0]) == {"initial": 5e-324, "final": 1.0,
                                         "drift_abs": 1.0, "drift_rel": None}

    def test_mass_drift_rel_with_mean(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, initial={"kind": "gaussian", "amplitude": 0.3, "width": 0.5})
        cfg["solver"]["t_end"] = 0.5
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        mass = load_manifest(out)["conserved_drift"]["mass"]
        assert mass["drift_rel"] == pytest.approx(mass["drift_abs"] / abs(mass["initial"]))
        assert mass["drift_rel"] < 1e-13

    def test_mass_floor_takes_the_first_snapshot(self, tmp_path):
        # two dispersive modes drift out of phase, so max|u| falls from
        # 1.0 to about 0.78; the mean puts the initial mass between the
        # round-off floors of the last and the first snapshot
        grid = Grid(2.0 * np.pi, 32)
        datum = 0.5 * np.cos(grid.x) + 0.5 * np.cos(3.0 * grid.x) + 0.9e-12
        write_snapshot(tmp_path / "u0.csv", RealField(grid, datum))
        out = tmp_path / "out"
        cfg = base_config(out, model={"kind": "fbbm", "nu": 1.0, "coefficients": {"c_nl": 0}},
                          grid={"N": 32},
                          initial={"kind": "file", "path": str(tmp_path / "u0.csv")})
        cfg["solver"] = {"t_end": 7.0, "dt": 0.05, "snapshot_every": 7.0}
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        manifest = load_manifest(out)
        first, last = (np.abs(read_snapshot(out / manifest["snapshots"][i]["file"])[1]).max()
                       for i in (0, -1))
        mass = manifest["conserved_drift"]["mass"]
        floor = 1e-12 * grid.length
        assert floor * last < abs(mass["initial"]) < floor * first
        assert mass["drift_rel"] is None

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 1

    def test_usage_error_exit_1(self):
        assert main(["run"]) == 1  # --config required

    def test_set_overrides(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        assert main(["run", "--config", cfg_path, "--set", "solver.t_end=0.5"]) == 0
        assert load_manifest(out)["t_final"] == pytest.approx(0.5)

    def test_breaking_run_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            grid={"N": 256},
            initial={"kind": "mode", "k": 1, "amplitude": 2.0},
            solver={"t_end": 5.0, "dt": "auto", "dealias": False},
        )
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path]) == 2
        manifest = load_manifest(out)
        assert manifest["outcome"] == "breaking"
        rep = manifest["breaking"]
        assert rep["min_slope"] <= -100.0
        assert rep["tail_fraction"] > 1e-4
        assert manifest["t_final"] < 5.0

    def test_uncountable_snapshot_cadence_takes_the_ends(self, tmp_path, capsys):
        # snapshot_every / dt overflows to infinity: no stride, first and last only
        out = tmp_path / "out"
        cfg = base_config(out, grid={"N": 32},
                          initial={"kind": "mode", "k": 1, "amplitude": 0.5},
                          solver={"t_end": 1e-9, "dt": 1e-10, "snapshot_every": 1e300})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        manifest = load_strict_json(out / "manifest.json")
        assert manifest["outcome"] == "completed"
        assert [e["t"] for e in manifest["snapshots"]] == [0.0, manifest["t_final"]]

    def test_overflowing_tail_energy_is_not_breaking(self, tmp_path):
        # |u_hat|^2 overflows at this amplitude; the tail fraction stays finite
        out = tmp_path / "out"
        cfg = base_config(out, model={"kind": "fbbm", "nu": 1.0, "coefficients": {"c_nl": 0}},
                          initial={"kind": "mode", "k": 2, "amplitude": 1e170},
                          solver={"t_end": 0.05, "dt": 0.01, "dealias": False})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        manifest = load_strict_json(out / "manifest.json")
        assert manifest["outcome"] == "completed"
        assert manifest["breaking"] is None

    def test_overflowing_conserved_values_are_null(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, grid={"N": 32},
                          initial={"kind": "mode", "k": 1, "amplitude": 1e160},
                          solver={"t_end": 0.05, "dt": 0.01})
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 3
        manifest = load_strict_json(out / "manifest.json")
        assert manifest["conserved"]["momentum"] == [None]
        assert manifest["conserved_drift"]["momentum"] == {
            "initial": None, "final": None, "drift_abs": None, "drift_rel": None}

    def test_manifest_written_on_blowup(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            model={"kind": "fbbm", "nu": 1.0, "coefficients": {"c_nl": 0}},
            initial={"kind": "mode", "k": 1, "amplitude": 1.0},
            solver={"t_end": 1000.0, "dt": 10.0, "dealias": False,
                    "on_breaking": "warn"},
        )
        cfg_path = write_config(tmp_path / "c.json", cfg)
        with np.errstate(all="ignore"):
            assert main(["run", "--config", cfg_path]) == 3
        manifest = load_manifest(out)
        assert manifest["outcome"] == "blowup"
        assert manifest["blowup"]["t_last_good"] >= 0.0


class TestSweep:
    def test_nu_sweep_dispersion(self, tmp_path):
        out = tmp_path / "out"
        # k=2 so the expected speed actually depends on nu (|k|^(2nu) != 1)
        cfg = base_config(
            out,
            initial={"kind": "mode", "k": 2, "amplitude": 1e-6},
            solver={"t_end": 1.0, "dt": "auto", "snapshot_every": 0.05},
        )
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main([
            "sweep", "--config", cfg_path, "--axis", "nu", "--values", "1,1.5,2",
        ]) == 0
        with open(out / "sweep_summary.json") as fh:
            summary = json.load(fh)
        assert [p["value"] for p in summary["points"]] == [1.0, 1.5, 2.0]
        speeds = []
        for point in summary["points"]:
            assert point["exit_code"] == 0
            expected = dispersion_speed(2.0, make_params("fch", point["value"]))
            assert point["measured_phase_speed"] == pytest.approx(expected, abs=1e-6)
            speeds.append(point["measured_phase_speed"])
            assert os.path.isdir(point["directory"])
            assert f"nu={point['value']:g}" in point["directory"]
        assert len(set(round(s, 4) for s in speeds)) == 3  # genuinely nu-dependent

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        assert main(["sweep", "--config", cfg_path, "--axis", "nu", "--values", "1",
                     "--jobs", jobs]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: sweep --jobs must be >= 1, got {jobs}"]
        assert not (tmp_path / "out").exists()

    def test_empty_values_exit_1(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        assert main(["sweep", "--config", cfg_path, "--axis", "nu", "--values", ","]) == 1

    @pytest.mark.parametrize("values", ["nan", "1,inf", "-Infinity,1.5"])
    def test_nonfinite_values_exit_1(self, tmp_path, capsys, values):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        assert main(["sweep", "--config", cfg_path, "--axis", "nu", f"--values={values}"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: sweep value ") and line.endswith(" is not finite")
        assert not (tmp_path / "out").exists()

    def test_summary_is_strict_json(self, tmp_path):
        # a completed point and a refused one (nu below 1)
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        assert main(["sweep", "--config", cfg_path, "--axis", "nu", "--values", "1,0.5",
                     "--set", "solver.t_end=0.1"]) == 1
        points = load_strict_json(out / "sweep_summary.json")["points"]
        assert [(p["value"], p["outcome"]) for p in points] == [(1.0, "completed"), (0.5, "error")]

    def test_duplicates_deduped(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        assert main([
            "sweep", "--config", cfg_path, "--axis", "nu", "--values", "1,1",
        ]) == 0
        assert "duplicate" in capsys.readouterr().err
        with open(out / "sweep_summary.json") as fh:
            assert len(json.load(fh)["points"]) == 1

    def test_amplitude_sweep_parallel(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            initial={"kind": "mode", "k": 1, "amplitude": 0.1},
            solver={"t_end": 0.5, "dt": 0.01},
        )
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main([
            "sweep", "--config", cfg_path, "--axis", "amplitude",
            "--values", "0.01,0.02", "--jobs", "2",
        ]) == 0
        with open(out / "sweep_summary.json") as fh:
            summary = json.load(fh)
        assert all(p["exit_code"] == 0 for p in summary["points"])

    def test_close_values_get_own_directories(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            initial={"kind": "mode", "k": 1, "amplitude": 0.1},
            solver={"t_end": 0.1, "dt": 0.01},
        )
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main([
            "sweep", "--config", cfg_path, "--axis", "amplitude",
            "--values", "0.1000001,0.1000002,0.1,0.1000000000000001", "--jobs", "2",
        ]) == 0
        # the last value differs from 0.1 only past 15 significant digits
        assert "duplicate sweep value 0.1 ignored" in capsys.readouterr().err
        with open(out / "sweep_summary.json") as fh:
            points = json.load(fh)["points"]
        names = [os.path.basename(p["directory"]) for p in points]
        assert names == ["amplitude=0.1000001", "amplitude=0.1000002", "amplitude=0.1"]
        assert sorted(os.listdir(out / "sweep")) == sorted(names)

    def test_summary_outcome_and_point_manifests(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        assert main([
            "sweep", "--config", cfg_path, "--axis", "nu", "--values", "1,1.5",
            "--set", "solver.t_end=0.1",
        ]) == 0
        with open(out / "sweep_summary.json") as fh:
            points = json.load(fh)["points"]
        for point in points:
            assert point["outcome"] == "completed"
            assert point["conserved_drift"]["mass"]["initial"] == 0.0
            assert os.path.exists(os.path.join(point["directory"], "manifest.json"))

    def test_point_failure_recorded(self, tmp_path):
        out = tmp_path / "out"
        # amplitude axis on a zero initial datum: the override introduces
        # an unknown key, which each point must report without aborting
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        assert main([
            "sweep", "--config", cfg_path, "--axis", "amplitude", "--values", "0.1",
        ]) == 1
        with open(out / "sweep_summary.json") as fh:
            summary = json.load(fh)
        assert summary["points"][0]["outcome"] == "error"
        assert "amplitude" in summary["points"][0]["error"]

    def test_unwritable_point_recorded(self, tmp_path):
        out = tmp_path / "out"
        (out / "sweep" / "nu=1.5" / "checkpoint.fwck").mkdir(parents=True)
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        assert main(["sweep", "--config", cfg_path, "--axis", "nu", "--values", "1.5,2",
                     "--set", "solver.t_end=0.1"]) == 1
        with open(out / "sweep_summary.json") as fh:
            first, second = json.load(fh)["points"]
        assert first["outcome"] == "error"
        assert first["error"].startswith("cannot write checkpoint")
        assert second["outcome"] == "completed"


class TestDiagnoseCommands:
    def test_commutator_default(self, tmp_path):
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "commutator", "--samples", "20", "--n", "64",
            "--band", "10", "--out", str(report),
        ]) == 0
        with open(report) as fh:
            payload = json.load(fh)
        assert payload["pass"] is True
        assert payload["n_ratios"] + payload["skipped_zero_denominator"] == 20
        assert payload["sup_ratio"] > 0

    def test_commutator_hypothesis_violation(self, capsys):
        code = main([
            "diagnose", "commutator", "--m", "1", "--s", "0.25", "--sigma", "3",
        ])
        assert code == 1
        assert "3/2" in capsys.readouterr().err

    def test_commutator_refinement(self, tmp_path):
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "commutator", "--samples", "20", "--n", "64",
            "--band", "10", "--check-refinement", "--out", str(report),
        ]) == 0
        with open(report) as fh:
            payload = json.load(fh)
        assert "refinement" in payload

    def test_lipschitz(self, tmp_path):
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "lipschitz", "--which", "a-lip", "--s", "2.6",
            "--samples", "20", "--n", "64", "--band", "10", "--out", str(report),
        ]) == 0
        with open(report) as fh:
            assert json.load(fh)["estimate"] == "kato-a-lip"

    def test_lipschitz_bad_index(self, capsys):
        assert main(["diagnose", "lipschitz", "--s", "1.0"]) == 1
        assert "2 nu" in capsys.readouterr().err

    def test_dependence_linear_constant_g_one(self, tmp_path):
        cfg = {
            "model": {"kind": "fbbm", "nu": 1.0, "coefficients": {"c_nl": 0}},
            "grid": {"N": 32},
            "initial": {"kind": "constant", "value": 0.3},
            "solver": {"t_end": 0.5, "dt": 0.025},
        }
        cfg_path = write_config(tmp_path / "c.json", cfg)
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "dependence", "--config", cfg_path,
            "--deltas", "1e-2,1e-3", "--pairs", "2", "--s", "3.0",
            "--out", str(report),
        ]) == 0
        with open(report) as fh:
            payload = json.load(fh)
        for rep in payload["reports"]:
            assert rep["censored"] == 0
            for g_val in rep["g_values"]:
                assert g_val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("command", [
        ["commutator", "--samples", "5", "--n", "32", "--band", "8"],
        ["convergence", "--kind", "box-size"],
    ])
    def test_report_under_a_regular_file_exit_1(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        cfg = {
            "model": {"kind": "fch", "nu": 1.0},
            "grid": {"N": 16},
            "initial": {"kind": "gaussian", "amplitude": 0.3, "width": 0.5},
            "solver": {"t_end": 0.02, "dt": 0.01},
        }
        if command[0] == "convergence":
            command = command + ["--config", write_config(tmp_path / "c.json", cfg)]
        report = tmp_path / "file" / "r.json"
        assert main(["diagnose"] + command + ["--out", str(report)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write report")
        assert str(report) in lines[0] and ".tmp" not in lines[0]
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", [
        ["commutator", "--samples", "2", "--n", "32", "--band", "8"],
        ["lipschitz", "--samples", "2", "--n", "32", "--band", "8"],
        ["dependence", "--pairs", "2"],
    ])
    def test_negative_seed_exit_1(self, tmp_path, capsys, command):
        if command[0] == "dependence":
            command = command + ["--config", write_config(tmp_path / "c.json",
                                                          base_config(tmp_path / "out"))]
        assert main(["diagnose"] + command + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: seed must be a non-negative integer, got -1"]

    @pytest.mark.parametrize("command,config", [
        (["run"], {"grid": {"N": 256},
                   "initial": {"kind": "mode", "k": 1, "amplitude": 3.0},
                   "solver": {"t_end": 5.0, "dt": 1e-3, "dealias": False,
                              "on_breaking": "warn"}}),
        (["diagnose", "commutator", "--samples", "2", "--amplitude", "1e300"], None),
    ])
    def test_overflow_leaves_no_numpy_warning(self, tmp_path, command, config):
        if config is not None:
            cfg = write_config(tmp_path / "c.json", base_config(tmp_path / "out", **config))
            command = command + ["--config", cfg]
        done = _fracwave(command, tmp_path)
        assert done.returncode == 3
        assert "RuntimeWarning" not in done.stderr
        assert len(done.stderr.splitlines()) == (0 if config else 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_commutator_overflow_exit_3(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main(["diagnose", "commutator", "--amplitude", "1e300", "--samples", "5",
                     "--n", "32", "--band", "8", "--out", str(report)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: non-finite field value")
        assert not report.exists()

    # nu = 1e308 makes m / (2 nu) round to 0, so Lam^m would read 1 where
    # |k|^(2 nu) is inf and the ratios 0: no report may come out of it
    @pytest.mark.parametrize("nu", ["200", "1e308"])
    def test_overflowing_fractional_order_exit_1(self, tmp_path, capsys, nu):
        report = tmp_path / "r.json"
        code = main(["diagnose", "commutator", "--samples", "20", "--seed", "3",
                     "--nu", nu, "--out", str(report)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: fractional order nu = {float(nu):g} overflows |k|^(2 nu) at k_max = 64"]
        assert not report.exists()

    # (1 + 64^2)^s passes the double range from s = 85.2 on: a config error,
    # though every field is finite
    @pytest.mark.parametrize("command,s", [
        (["commutator", "--s", "85", "--sigma", "86"], 86),
        (["lipschitz", "--which", "a-lip", "--s", "90"], 90),
    ], ids=["commutator", "a-lip"])
    def test_overflowing_sobolev_weight_exit_1(self, tmp_path, capsys, command, s):
        report = tmp_path / "r.json"
        code = main(["diagnose"] + command + ["--samples", "4", "--out", str(report)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: Sobolev index s = {s} overflows the weight 2 (1 + k^2)^s at k_max = 64"]
        assert not report.exists()

    def test_largest_finite_sobolev_weight_runs(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(["diagnose", "commutator", "--samples", "4", "--s", "84", "--sigma", "85",
                     "--out", str(report)]) == 0
        assert load_strict_json(report)["n_ratios"] == 4

    @pytest.mark.parametrize("command,amplitude,degree", [
        (["lipschitz", "--which", "a-lip"], "1e160", 0),
        (["lipschitz", "--which", "b-lip"], "1e160", 0),
        (["lipschitz", "--which", "b-bound"], "1e160", 1),
        (["lipschitz", "--which", "f-lip-x"], "1e150", 1),
        (["lipschitz", "--which", "f-lip-y"], "1e150", 1),
        (["commutator"], "1e150", 0),
        (["commutator"], "1e100", 0),
    ], ids=["a-lip", "b-lip", "b-bound", "f-lip-x", "f-lip-y", "commutator", "commutator-1e100"])
    def test_norms_past_the_square_range_keep_homogeneity(self, tmp_path, command, amplitude,
                                                          degree):
        # each ratio is homogeneous of degree 0 or 1 in the amplitude, and its
        # norms square coefficients past 1e154: finite norms, not overflows
        ratios = []
        for amp in ("1", amplitude):
            report = tmp_path / f"r{amp}.json"
            code = main(["diagnose"] + command + ["--samples", "4", "--amplitude", amp,
                                                  "--out", str(report)])
            assert code == 0
            ratios.append(np.array(json.loads(report.read_text())["ratios"]))
        assert len(ratios[1]) == 4
        assert np.allclose(ratios[1] / float(amplitude) ** degree, ratios[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pairs", ["0", "-2"])
    def test_dependence_nonpositive_pairs_exit_1(self, tmp_path, capsys, pairs):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        report = tmp_path / "r.json"
        code = main(["diagnose", "dependence", "--config", cfg_path, "--pairs", pairs,
                     "--out", str(report)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: dependence needs at least one pair, got {pairs}"]
        assert not report.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_censored_dependence_report_is_standard_json(self, tmp_path):
        # the base run overflows in its first step, so every pair is censored
        cfg = base_config(tmp_path / "out",
                          initial={"kind": "mode", "k": 1, "amplitude": 1e200},
                          solver={"t_end": 0.02, "dt": 0.01})
        report = tmp_path / "r.json"
        assert main(["diagnose", "dependence", "--config", write_config(tmp_path / "c.json", cfg),
                     "--pairs", "2", "--deltas", "1e-3", "--out", str(report)]) == 1
        payload = load_strict_json(report)
        (entry,) = payload["reports"]
        assert entry["censored"] == 2 and entry["max_g"] is None

    def test_dependence_delta_not_a_number_exit_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        code = main(["diagnose", "dependence", "--config", cfg_path, "--deltas", "x,0.1"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: dependence delta 'x' is not a number"]

    # the boxes are L, 2L and 4L at the spacing L / N, against 8L at 8N
    # points; L = 10 is no multiple of 2 pi
    @pytest.mark.parametrize("length", [2.0 * np.pi, 10.0], ids=["L=2pi", "L=10"])
    def test_convergence_box_size(self, tmp_path, length):
        cfg = {
            "model": {"kind": "fch", "nu": 1.0},
            "grid": {"L": length, "N": 64},
            "initial": {"kind": "gaussian", "amplitude": 0.3, "width": 0.5},
            "solver": {"t_end": 0.5, "dt": 0.01},
        }
        cfg_path = write_config(tmp_path / "c.json", cfg)
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "convergence", "--kind", "box-size",
            "--config", cfg_path, "--out", str(report),
        ]) == 0
        payload = load_strict_json(report)
        assert [row["resolution"] for row in payload["rows"]] == [length, 2 * length, 4 * length]
        assert payload["reference"]["L"] == 8 * length
        errors = [row["error"] for row in payload["rows"]]
        assert errors[0] > errors[1] > errors[2] > 0  # monotone decrease with L
        assert payload["pass"] is True

    def test_convergence_spatial(self, tmp_path):
        cfg = {
            "model": {"kind": "fbbm", "nu": 1.0,
                      "coefficients": {"c_nl": 0.0, "c_disp": 0.0, "c_evo": 0.0}},
            "grid": {"N": 64},
            "initial": {"kind": "gaussian", "amplitude": 0.5, "width": 0.4},
            "solver": {"t_end": 0.5, "dt": 0.002, "dealias": False},
        }
        cfg_path = write_config(tmp_path / "c.json", cfg)
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "convergence", "--kind", "spatial",
            "--config", cfg_path, "--out", str(report),
        ]) == 0
        with open(report) as fh:
            payload = json.load(fh)
        errors = [row["error"] for row in payload["rows"]]
        assert errors[-1] < errors[0]
        assert payload["pass"] is True

    def test_convergence_temporal(self, tmp_path):
        cfg = {
            "model": {"kind": "fbbm", "nu": 1.0},
            "grid": {"N": 32},
            "initial": {"kind": "mode", "k": 1, "amplitude": 0.3},
            "solver": {"t_end": 0.5, "dt": 0.02},
        }
        cfg_path = write_config(tmp_path / "c.json", cfg)
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "convergence", "--kind", "temporal",
            "--config", cfg_path, "--out", str(report),
        ]) == 0
        with open(report) as fh:
            payload = json.load(fh)
        assert abs(payload["fitted_order"] - 4.0) <= 0.2
        assert payload["pass"] is True


    def test_convergence_temporal_skips_round_off_rows(self, tmp_path, capsys):
        # errors 6.0e-13, 3.7e-14, 2.9e-15 and 8.3e-16: the last two are
        # round-off, and a fit over all four read order 3.22
        cfg = {
            "model": {"kind": "fch", "nu": 1.0},
            "grid": {"N": 64},
            "initial": {"kind": "mode", "k": 1, "amplitude": 0.3},
            "solver": {"t_end": 0.2, "dt": 0.005},
        }
        cfg_path = write_config(tmp_path / "c.json", cfg)
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "convergence", "--kind", "temporal",
            "--config", cfg_path, "--out", str(report),
        ]) == 0
        assert capsys.readouterr().err == ""
        payload = load_strict_json(report)
        errors = [row["error"] for row in payload["rows"]]
        floor = payload["reference"]["round_off_floor"]
        # eps * (0.2 / (0.005 / 8)) steps * max|u| of about 0.3
        assert floor == pytest.approx(np.finfo(float).eps * 320 * 0.3, rel=0.01)
        assert errors[1] > floor >= errors[2] > errors[3]
        assert abs(payload["fitted_order"] - 4.0) <= 0.2
        assert payload["pass"] is True

    def test_convergence_temporal_miss_says_why(self, tmp_path, capsys):
        # a zero datum has no error above the round-off floor, so no order
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "convergence", "--kind", "temporal", "--set", "solver.t_end=0.1",
            "--config", cfg_path, "--out", str(report),
        ]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "convergence check failed: fewer than two errors lie above the round-off "
            "floor 0; no temporal order is fitted"]
        payload = load_strict_json(report)
        assert (payload["fitted_order"], payload["pass"]) == (None, False)


class TestResume:
    def test_corrupt_checkpoint_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        ck = tmp_path / "bad.fwck"
        ck.write_bytes(b"FWCK" + bytes(100))
        assert main([
            "resume", "--config", cfg_path, "--checkpoint", str(ck),
        ]) == 1

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_checkpoint_exit_1(self, tmp_path, capsys, kind):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        ck = tmp_path / "ck.fwck"
        if kind == "directory":
            ck.mkdir()
        assert main(["resume", "--config", cfg_path, "--checkpoint", str(ck)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot read checkpoint {ck}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("what", CHECKPOINT_FIELDS)
    def test_nonfinite_checkpoint_exit_1(self, tmp_path, capsys, what):
        # a checkpoint is outside input: a NaN in it is not the run's blow-up
        cfg = base_config(tmp_path / "a", initial={"kind": "mode", "k": 1, "amplitude": 0.2},
                          solver={"t_end": 0.05, "dt": 0.01})
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path]) == 0
        ck = tmp_path / "a" / "checkpoint.fwck"
        poison_checkpoint(ck, what, float("nan"))
        capsys.readouterr()
        assert main(["resume", "--config", cfg_path, "--checkpoint", str(ck),
                     "--set", "solver.t_end=0.1",
                     "--set", f"output.directory={tmp_path / 'b'}"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: checkpoint {ck} holds a non-finite number in its {what}"]
        assert not (tmp_path / "b").exists()

    def test_resume_from_t0_matches_fresh(self, tmp_path):
        cfg = base_config(
            tmp_path / "a",
            initial={"kind": "mode", "k": 1, "amplitude": 0.2},
            solver={"t_end": 0.0, "dt": 0.01},
        )
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path]) == 0

        # fresh full run
        assert main([
            "run", "--config", cfg_path,
            "--set", "solver.t_end=0.5", "--set", f"output.directory={tmp_path/'b'}",
        ]) == 0
        # resumed from the t=0 checkpoint
        assert main([
            "resume", "--config", cfg_path, "--checkpoint", str(tmp_path / "a" / "checkpoint.fwck"),
            "--set", "solver.t_end=0.5", "--set", f"output.directory={tmp_path/'c'}",
        ]) == 0

        final_b = sorted((tmp_path / "b").glob("snap_*.csv"))[-1].read_bytes()
        final_c = sorted((tmp_path / "c").glob("snap_*.csv"))[-1].read_bytes()
        assert final_b == final_c

    def test_split_equals_straight_bytes(self, tmp_path):
        cfg = base_config(
            tmp_path / "straight",
            initial={"kind": "mode", "k": 1, "amplitude": 0.4},
            solver={"t_end": 1.0, "dt": 1.0 / 128, "snapshot_every": 0.5},
        )
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["run", "--config", cfg_path]) == 0

        assert main([
            "run", "--config", cfg_path,
            "--set", "solver.t_end=0.5",
            "--set", f"output.directory={tmp_path / 'half'}",
        ]) == 0
        assert main([
            "resume", "--config", cfg_path,
            "--checkpoint", str(tmp_path / "half" / "checkpoint.fwck"),
            "--set", f"output.directory={tmp_path/'second'}",
        ]) == 0

        straight = sorted((tmp_path / "straight").glob("snap_*.csv"))[-1].read_bytes()
        split = sorted((tmp_path / "second").glob("snap_*.csv"))[-1].read_bytes()
        assert straight == split


class TestSnapshotSink:
    def test_peak_memory_does_not_grow_with_fields(self, tmp_path):
        grid = Grid(length=2.0 * np.pi, n_points=1024)
        field_bytes = grid.n_points * 8
        model = make_params("fch", 1.0)

        def sink_peak(count):
            sink = _SnapshotWriter(str(tmp_path), model, mode=1)
            tracemalloc.start()
            try:
                for i in range(count):
                    sink(0.01 * i, RealField(grid, 0.3 * np.sin(grid.x + 0.01 * i)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the manifest's scalar series (t, the three functionals, the mode's
        # coefficient and the snapshot entry) take well under 1 KB a
        # snapshot; a held field takes 8 KB
        assert sink_peak(400) - sink_peak(40) < 2 * field_bytes + 1024 * 360


# Every config key but output.directory (a relative one would be written
# outside the temporary directory) plus an unknown one, and a fixed set of
# awkward JSON values and edge numbers (subnormal, tiny, huge, near the
# largest double, a 401-digit integer), on an N=16 base config: no draw can
# allocate a large grid, since a huge N is refused before any allocation.
_PROPERTY_KEYS = [
    "model.kind", "model.nu",
    *(f"model.coefficients.{c}" for c in ("c_adv", "c_nl", "c_disp", "c_evo", "c_mix")),
    "grid.L", "grid.N",
    *(f"initial.{k}" for k in ("kind", "k", "amplitude", "phase", "value", "width",
                               "center", "path")),
    *(f"solver.{k}" for k in ("integrator", "dt", "cfl", "t_end", "snapshot_every",
                              "dealias", "breaking_slope_threshold",
                              "tail_fraction_threshold", "on_breaking")),
    "output.manifest", "output.extra",
]
_PROPERTY_VALUES = ["NaN", "Infinity", "-Infinity", "-1", "0", "x", "true", "null", "[]", "{}",
                    "5e-324", "1e-300", "1e300", "1.8e308", "1" + "0" * 400]


class TestExitCodeProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(_PROPERTY_KEYS), st.sampled_from(_PROPERTY_VALUES)),
        min_size=1, max_size=3,
    ))
    def test_any_override_gives_a_contract_code(self, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = base_config(
                os.path.join(tmp, "out"),
                grid={"N": 16},
                initial={"kind": "mode", "k": 1, "amplitude": 0.1},
                solver={"t_end": 0.1, "dt": 0.01, "snapshot_every": 0.05},
            )
            args = ["run", "--config", write_config(Path(tmp) / "c.json", cfg)]
            for key, value in overrides:
                args += ["--set", f"{key}={value}"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
                code = main(args)
            manifest = Path(tmp) / "out" / "manifest.json"
            if manifest.exists():
                load_strict_json(manifest)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        # a non-finite number is a config error for every key, never a blow-up
        if any(v in ("NaN", "Infinity", "-Infinity") for v in dict(overrides).values()):
            assert code == 1


def _fracwave_command(args):
    """``python -m fracwave`` with this checkout's package: (argv, env)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return [sys.executable, "-m", "fracwave", *args], env


def _fracwave(args, cwd):
    """``python -m fracwave`` with this checkout's package, run in ``cwd``."""
    argv, env = _fracwave_command(args)
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_report_to_a_closed_stdout_exit_1(tmp_path):
    # the reader stops after 10 bytes, as `| head -c 10` does, of a report
    # far larger than a pipe holds
    argv, env = _fracwave_command(
        ["diagnose", "commutator", "--samples", "20000", "--n", "32", "--band", "8"])
    with subprocess.Popen(argv, cwd=tmp_path, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert head == '{\n  "estim'
    assert (code, err.splitlines()) == (1, ["error: cannot write to stdout: Broken pipe"])


def test_python_m_fracwave_version(tmp_path):
    # the module entry point, run outside the checkout
    done = _fracwave(["--version"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "fracwave 0.1.0\n", "")


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
                    reason="the CLI pins malloc thresholds on glibc only")
def test_steady_large_grid_steps_take_no_fresh_pages(tmp_path):
    # without the pinned thresholds glibc unmaps what each N = 65536 step
    # frees, and every step faults in about 4,350 fresh pages
    def minor_faults(steps):
        out = tmp_path / f"out{steps}"
        cfg = {"model": {"kind": "fch", "nu": 1.5}, "grid": {"N": 65536},
               "initial": {"kind": "mode", "k": 37, "amplitude": 1e-8},
               "solver": {"t_end": steps * 5e-5, "dt": 5e-5, "snapshot_every": 1.0},
               "output": {"directory": str(out)}}
        argv, env = _fracwave_command(
            ["run", "--config", write_config(tmp_path / f"c{steps}.json", cfg)])
        proc = subprocess.Popen(argv, cwd=tmp_path, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        assert load_manifest(out)["steps"] == steps
        return usage.ru_minflt

    assert (minor_faults(12) - minor_faults(2)) / 10 < 500


def _no_mallopt(name):
    return types.SimpleNamespace()


def _no_libc(name):
    raise OSError("no C library to open")


@pytest.mark.parametrize("cdll", [_no_mallopt, _no_libc])
def test_run_without_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
    assert main(["run", "--config", cfg_path]) == 0
    assert load_manifest(tmp_path / "out")["outcome"] == "completed"
