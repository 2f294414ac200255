"""The package surface: names that load on first access, and the modules
each command imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracwave

# every public name of the package (dft_oracle is a test oracle now, in
# tests/oracles.py)
PUBLIC = (
    "BlowUpError", "CheckpointError", "ConfigError", "FracwaveError", "GridMismatchError",
    "ParameterError", "SymbolError",
    "Grid", "RealField", "SpectralField", "apply_symbol", "dealias", "derivative",
    "forward_transform", "inner_product", "inverse_transform", "sobolev_norm",
    "FractionalOrder", "apply_A", "apply_B", "apply_f", "commutator_apply",
    "fractional_laplacian", "helmholtz_inverse", "lambda_pow",
    "Coefficients", "ModelKind", "ModelParams", "default_coefficients", "dispersion_speed",
    "fbbm_energy", "make_params", "make_rhs", "mass", "momentum", "rhs_fbbm", "rhs_fch",
    "rhs_fkdv", "rhs_linearized", "rhs_quasilinear_normalized",
    "AUTO", "BreakingReport", "Outcome", "SimulationResult", "SimulationState",
    "SolverConfig", "StepPlan", "auto_dt", "checkpoint_read", "checkpoint_write",
    "detect_breaking", "ifrk4_step", "integrate", "rk4_step",
    "DependenceReport", "DiagnosticsReport", "LipschitzKind", "SampleSpec", "StudyKind",
    "commutator_estimate_sample", "continuous_dependence_experiment", "convergence_study",
    "fit_phase_speed", "kato_lipschitz_sample", "measure_phase_speed", "random_band_limited",
)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code, *args, cwd=None):
    """Run ``code`` in a fresh interpreter with this checkout's package."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestLazyExports:
    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_one_object(self, name):
        namespace = {}
        exec(f"from fracwave import {name}", namespace)
        assert getattr(fracwave, name) is namespace[name]
        assert name in dir(fracwave)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'dft_oracle'"):
            fracwave.dft_oracle
        with pytest.raises(ImportError):
            exec("from fracwave import no_such_name", {})

    def test_submodule_resolves_after_the_cli(self):
        done = _python("import sys, fracwave.cli, fracwave; "
                       "assert 'fracwave.diagnostics' not in sys.modules; "
                       "print(fracwave.diagnostics.__name__, fracwave.Grid.__module__)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["fracwave.diagnostics", "fracwave.spectral"]


# runs main(argv) and writes the names of the modules then loaded to a file
_SCOPE = """
import json, sys
from fracwave.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""
_RUN = {"model": {"kind": "fch", "nu": 1.0}, "grid": {"N": 32},
        "initial": {"kind": "mode", "k": 1, "amplitude": 0.2},
        "solver": {"t_end": 0.05, "dt": 0.01}, "output": {"directory": "out"}}


def _loaded(tmp_path, args):
    path = tmp_path / "modules.json"
    done = _python(_SCOPE, str(path), *args, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    scope = json.loads(path.read_text())
    assert scope["code"] == 0
    return set(scope["modules"])


class TestImportScope:
    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_run_loads_no_diagnostics(self, tmp_path, command):
        (tmp_path / "c.json").write_text(json.dumps(_RUN))
        args = ["run", "--config", "c.json"]
        if command == "resume":
            _loaded(tmp_path, args)
            args = ["resume", "--config", "c.json", "--checkpoint", "out/checkpoint.fwck"]
        loaded = _loaded(tmp_path, args)
        assert "fracwave.timestepper" in loaded
        assert not loaded & {"fracwave.diagnostics", "concurrent.futures"}

    @pytest.mark.parametrize("command", [
        ["commutator"], ["lipschitz", "--which", "b-lip"],
    ])
    def test_probe_loads_no_solver(self, tmp_path, command):
        loaded = _loaded(tmp_path, ["diagnose", *command, "--samples", "4", "--out", "r.json"])
        assert "fracwave.diagnostics" in loaded
        assert not loaded & {"fracwave.timestepper", "fracwave.models", "fracwave.config",
                             "concurrent.futures"}
