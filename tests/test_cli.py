import json
import os

import numpy as np
import pytest

from fracwave import dispersion_speed, make_params
from fracwave.cli import main
from fracwave.config import read_snapshot


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
    with open(os.path.join(str(out_dir), "manifest.json")) as fh:
        return json.load(fh)


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

    def test_step_count_overflow_exit_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        args = ["run", "--config", cfg_path, "--set", "solver.t_end=1e300",
                "--set", "solver.dt=1e-300"]
        assert main(args) == 1
        assert "finite number of steps" in capsys.readouterr().err

    def test_mass_drift_rel_null_for_zero_mean(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, initial={"kind": "mode", "k": 1, "amplitude": 0.3})
        cfg["solver"]["t_end"] = 0.5
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        drift = load_manifest(out)["conserved_drift"]
        assert drift["mass"]["drift_abs"] < 1e-14
        assert drift["mass"]["drift_rel"] is None
        assert drift["momentum"]["drift_rel"] is not None

    def test_mass_drift_rel_with_mean(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, initial={"kind": "gaussian", "amplitude": 0.3, "width": 0.5})
        cfg["solver"]["t_end"] = 0.5
        assert main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        mass = load_manifest(out)["conserved_drift"]["mass"]
        assert mass["drift_rel"] == pytest.approx(mass["drift_abs"] / abs(mass["initial"]))
        assert mass["drift_rel"] < 1e-13

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

    def test_manifest_written_on_blowup(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            model={"kind": "linearized", "nu": 1.0},
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

    def test_empty_values_exit_1(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", base_config(tmp_path / "out"))
        assert main(["sweep", "--config", cfg_path, "--axis", "nu", "--values", ","]) == 1

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
            "model": {"kind": "linearized", "nu": 1.0},
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

    def test_convergence_box_size(self, tmp_path):
        cfg = {
            "model": {"kind": "fch", "nu": 1.0},
            "grid": {"N": 64},
            "initial": {"kind": "gaussian", "amplitude": 0.3, "width": 0.5},
            "solver": {"t_end": 0.5, "dt": 0.01},
        }
        cfg_path = write_config(tmp_path / "c.json", cfg)
        report = tmp_path / "r.json"
        assert main([
            "diagnose", "convergence", "--kind", "box-size",
            "--config", cfg_path, "--out", str(report),
        ]) == 0
        with open(report) as fh:
            payload = json.load(fh)
        errors = [row["error"] for row in payload["rows"]]
        assert errors == sorted(errors, reverse=True)  # monotone decrease with L
        assert payload["pass"] is True

    def test_convergence_spatial(self, tmp_path):
        cfg = {
            "model": {"kind": "linearized", "nu": 1.0,
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


class TestResume:
    def test_corrupt_checkpoint_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", base_config(out))
        ck = tmp_path / "bad.fwck"
        ck.write_bytes(b"FWCK" + bytes(100))
        assert main([
            "resume", "--config", cfg_path, "--checkpoint", str(ck),
        ]) == 1

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
