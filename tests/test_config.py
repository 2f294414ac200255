import numpy as np
import pytest

from fracwave import ConfigError, Integrator, ModelKind, RealField
from fracwave.config import (
    apply_overrides,
    build_initial,
    load_config,
    read_snapshot,
    validate_config,
    write_snapshot,
)
from fracwave.timestepper import resolve_dt
from conftest import TWO_PI, make_grid, smooth_field


def minimal_config(**solver_extra):
    return {
        "model": {"kind": "fch", "nu": 1.0},
        "grid": {"N": 64},
        "initial": {"kind": "zero"},
        "solver": {"t_end": 1.0, **solver_extra},
    }


class TestValidateConfig:
    def test_minimal(self):
        cfg = validate_config(minimal_config())
        assert cfg.model.kind is ModelKind.FCH
        assert cfg.grid.length == pytest.approx(TWO_PI)
        assert cfg.grid.n_points == 64
        assert cfg.solver.t_end == 1.0
        assert cfg.solver.dealias is True
        assert cfg.output.directory == "out"

    def test_unknown_root_key(self):
        raw = minimal_config()
        raw["extra"] = {}
        with pytest.raises(ConfigError, match="extra"):
            validate_config(raw)

    def test_unknown_solver_key(self):
        raw = minimal_config(dtt=0.1)
        with pytest.raises(ConfigError, match="dtt"):
            validate_config(raw)

    def test_unknown_initial_key(self):
        raw = minimal_config()
        raw["initial"] = {"kind": "mode", "k": 1, "amplitude": 0.1, "color": "red"}
        with pytest.raises(ConfigError, match="color"):
            validate_config(raw)

    def test_missing_section(self):
        raw = minimal_config()
        del raw["grid"]
        with pytest.raises(ConfigError, match="grid"):
            validate_config(raw)

    def test_type_errors(self):
        raw = minimal_config()
        raw["grid"]["N"] = 64.5
        with pytest.raises(ConfigError, match="grid.N"):
            validate_config(raw)
        raw = minimal_config()
        raw["solver"]["dealias"] = "yes"
        with pytest.raises(ConfigError, match="dealias"):
            validate_config(raw)

    def test_low_nu_gate(self):
        raw = minimal_config()
        raw["model"]["nu"] = 0.75
        with pytest.raises(ConfigError, match="allow-low-nu"):
            validate_config(raw)
        cfg = validate_config(raw, allow_low_nu=True)
        assert cfg.model.nu.value == 0.75

    def test_coefficient_overrides(self):
        raw = minimal_config()
        raw["model"]["coefficients"] = {"c_mix": 0.0}
        cfg = validate_config(raw)
        assert cfg.model.coefficients.c_mix == 0.0
        assert cfg.model.coefficients.c_evo == 1.25  # default preserved

    def test_mode_k_range(self):
        raw = minimal_config()
        raw["initial"] = {"kind": "mode", "k": 40, "amplitude": 1.0}
        with pytest.raises(ConfigError, match="initial.k"):
            validate_config(raw)

    def test_bad_dt_string(self):
        raw = minimal_config(dt="fast")
        with pytest.raises(ConfigError, match="solver.dt"):
            validate_config(raw)

    def test_bad_initial_kind(self):
        raw = minimal_config()
        raw["initial"] = {"kind": "sawtooth"}
        with pytest.raises(ConfigError, match="sawtooth"):
            validate_config(raw)

    def test_output_section(self):
        raw = minimal_config()
        raw["output"] = {"directory": "runs/a", "manifest": False}
        cfg = validate_config(raw)
        assert cfg.output.directory == "runs/a"
        assert cfg.output.manifest is False

    def test_integrator_default_per_model(self):
        assert validate_config(minimal_config()).solver.integrator is Integrator.RK4
        raw = minimal_config()
        raw["model"]["kind"] = "fkdv"
        raw["initial"] = {"kind": "mode", "k": 1, "amplitude": 0.2}
        cfg = validate_config(raw)
        assert cfg.solver.integrator is Integrator.IFRK4
        # the auto dt is advective, cfl * dx / max(c_adv, max|u|) snapped
        # down onto t_end, not the |k|^3 dispersive bound an RK4 step needs
        u0 = build_initial(cfg.initial, cfg.grid)
        dt, _ = resolve_dt(u0, cfg.model, cfg.solver, cfg.solver.t_end)
        advective = 0.5 * cfg.grid.spacing
        assert 0.9 * advective < dt <= advective

    @pytest.mark.parametrize("key", ["snapshot_every", "breaking_slope_threshold", "cfl"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_solver_number(self, key, value):
        with pytest.raises(ConfigError, match=key):
            validate_config(minimal_config(**{key: value}))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "none.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestOverrides:
    def test_nested_set(self):
        raw = minimal_config()
        out = apply_overrides(raw, ["solver.dt=0.001", "model.nu=1.5"])
        assert out["solver"]["dt"] == 0.001
        assert out["model"]["nu"] == 1.5
        assert raw["model"]["nu"] == 1.0  # original untouched

    def test_string_fallback(self):
        out = apply_overrides(minimal_config(), ["output.directory=runs/x"])
        assert out["output"]["directory"] == "runs/x"

    def test_json_values(self):
        out = apply_overrides(minimal_config(), ["solver.dealias=false"])
        assert out["solver"]["dealias"] is False

    def test_malformed(self):
        with pytest.raises(ConfigError):
            apply_overrides(minimal_config(), ["solver.dt"])


class TestInitialData:
    def test_zero_and_constant(self):
        g = make_grid(32)
        cfg = validate_config(minimal_config())
        u = build_initial(cfg.initial, g)
        assert np.all(u.values == 0.0)
        raw = minimal_config()
        raw["initial"] = {"kind": "constant", "value": -0.4}
        u = build_initial(validate_config(raw).initial, g)
        assert np.all(u.values == -0.4)

    def test_mode(self):
        g = make_grid(64)
        raw = minimal_config()
        raw["initial"] = {"kind": "mode", "k": 3, "amplitude": 0.2, "phase": 0.5}
        u = build_initial(validate_config(raw).initial, g)
        assert np.abs(u.values - 0.2 * np.sin(3 * g.x + 0.5)).max() < 1e-15

    def test_gaussian_centered(self):
        g = make_grid(64)
        raw = minimal_config()
        raw["initial"] = {"kind": "gaussian", "amplitude": 1.5, "width": 0.3}
        u = build_initial(validate_config(raw).initial, g)
        assert u.values.max() == pytest.approx(1.5, rel=1e-6)
        assert np.argmax(u.values) == 32  # center defaults to L/2

    def test_file_roundtrip(self, tmp_path, rng):
        g = make_grid(64)
        u = smooth_field(g, rng)
        path = tmp_path / "snap.csv"
        write_snapshot(path, u)
        raw = minimal_config()
        raw["initial"] = {"kind": "file", "path": str(path)}
        back = build_initial(validate_config(raw).initial, g)
        assert np.array_equal(back.values, u.values)  # 17 digits round-trips

    def test_file_wrong_grid(self, tmp_path, rng):
        g = make_grid(32)
        write_snapshot(tmp_path / "snap.csv", smooth_field(g, rng))
        raw = minimal_config()
        raw["initial"] = {"kind": "file", "path": str(tmp_path / "snap.csv")}
        with pytest.raises(ConfigError, match="64"):
            build_initial(validate_config(raw).initial, make_grid(64))


class TestSnapshotIO:
    def test_header_and_shape(self, tmp_path):
        g = make_grid(16)
        path = tmp_path / "s.csv"
        write_snapshot(path, RealField(g, np.sin(g.x)))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 17

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,u\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_snapshot(path)

    @pytest.mark.parametrize("n", [16, 4096, 2 * 4096 + 10])
    def test_bytes_match_per_line_format(self, tmp_path, rng, n):
        g = make_grid(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        values[:4] = [0.0, -0.0, 1e-300, -123456789.125]
        u = RealField(g, values)
        expected = "x,u\n" + "".join(
            f"{xj:.17g},{uj:.17g}\n" for xj, uj in zip(u.grid.x, u.values)
        )
        path = tmp_path / "s.csv"
        write_snapshot(path, u)
        assert path.read_bytes() == expected.encode()

    def test_bit_exact_roundtrip(self, tmp_path, rng):
        g = make_grid(128)
        u = smooth_field(g, rng)
        path = tmp_path / "s.csv"
        write_snapshot(path, u)
        xs, us = read_snapshot(path)
        assert np.array_equal(us, u.values)
        assert np.array_equal(xs, g.x)
