import builtins
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwave import ConfigError, ModelKind, RealField, atomic
from fracwave.config import (
    apply_overrides,
    build_initial,
    load_config,
    read_snapshot,
    validate_config,
    write_manifest,
    write_snapshot,
)
from fracwave.config import _fields, _text
from fracwave.spectral import coeffs_of
from fracwave.timestepper import SimulationState, checkpoint_write, resolve_dt
from conftest import LINEAR_FBBM, TWO_PI, make_grid, smooth_field


def minimal_config(**solver_extra):
    return {
        "model": {"kind": "fch", "nu": 1.0},
        "grid": {"N": 64},
        "initial": {"kind": "zero"},
        "solver": {"t_end": 1.0, **solver_extra},
    }


NUMERIC_KEYS = [
    "model.nu",
    *(f"model.coefficients.{c}" for c in ("c_adv", "c_nl", "c_disp", "c_evo", "c_mix")),
    "grid.L",
    "initial.value",
    "initial.amplitude",
    "initial.phase",
    "initial.width",
    "initial.center",
    *(f"solver.{k}" for k in ("t_end", "dt", "cfl", "snapshot_every",
                              "breaking_slope_threshold", "tail_fraction_threshold")),
]


def config_holding(dotted):
    """A valid config in which the numeric key ``dotted`` is allowed."""
    raw = minimal_config(dt=0.01)
    raw["model"]["coefficients"] = {"c_mix": 0.25}
    raw["grid"]["L"] = 6.0
    key = dotted.split(".")[-1]
    if key == "value":
        raw["initial"] = {"kind": "constant", "value": 0.5}
    elif key == "phase":
        raw["initial"] = {"kind": "mode", "k": 1, "amplitude": 0.1, "phase": 0.0}
    else:
        raw["initial"] = {"kind": "gaussian", "amplitude": 0.1, "width": 0.5, "center": 3.0}
    return raw


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

    @pytest.mark.parametrize("n", [10**20, 2**63 - 2])
    def test_grid_too_large_to_allocate(self, n):
        # refused before any array is sized, as a config error
        raw = minimal_config()
        raw["grid"]["N"] = n
        with pytest.raises(ConfigError, match="too large to allocate") as err:
            validate_config(raw)
        assert err.value.key == "grid"

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
        raw["model"] = {"kind": "fbbm", "nu": 1.0, "coefficients": {"c_nl": 0}}
        assert validate_config(raw).model.coefficients == LINEAR_FBBM

    @pytest.mark.parametrize("model,allow_low_nu,key,message", [
        ({"kind": "fchh", "nu": 1.0}, False, "model.kind", "unknown model kind 'fchh'"),
        ({"kind": "fchh", "nu": 1.0, "coefficients": {}}, False, "model.kind",
         "unknown model kind 'fchh'"),
        ({"kind": "Linearized-FCH", "nu": 1.0, "coefficients": {"c_nl": 7}}, False,
         "model.kind", "unknown model kind 'Linearized-FCH'; "
                       "expected one of ['fch', 'fkdv', 'fbbm']"),
        ({"kind": "fch", "nu": 0.75}, False, "model.nu",
         "model.nu = 0.75 < 1; pass --allow-low-nu to waive the nu >= 1 constraint"),
        ({"kind": "fch", "nu": 0.3}, True, "model.nu", "fractional order must be >= 1/2, got 0.3"),
        ({"kind": "fkdv", "nu": 1.0, "coefficients": {"c_evo": 1.0}}, False,
         "model.coefficients", "fKdV admits no c_evo or c_mix term"),
        ({"kind": "fbbm", "nu": 1.0, "coefficients": {"c_mix": 0.1}}, False,
         "model.coefficients", "fBBM admits no c_mix term"),
        ({"kind": "fch", "nu": 1.0, "coefficients": {"c_evo": -1}}, False,
         "model.coefficients", "c_evo must be nonnegative, got -1.0"),
    ], ids=["kind", "kind-with-coefficients", "linearized", "low-nu", "nu-below-half",
            "fkdv-c_evo", "fbbm-c_mix", "negative-c_evo"])
    def test_model_errors_name_their_key(self, model, allow_low_nu, key, message):
        raw = minimal_config()
        raw["model"] = model
        with pytest.raises(ConfigError) as err:
            validate_config(raw, allow_low_nu=allow_low_nu)
        assert err.value.key == key
        assert str(err.value).startswith(message)

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
        raw["output"] = {"directory": "runs/a"}
        assert validate_config(raw).output.directory == "runs/a"
        # every run directory receives a manifest: there is no key to skip it
        raw["output"]["manifest"] = False
        with pytest.raises(ConfigError, match="unknown key 'manifest'") as err:
            validate_config(raw)
        assert err.value.key == "output.manifest"

    def test_integrator_default_per_model(self):
        # fKdV needs no integrator key: its auto dt is advective, cfl * dx /
        # max(c_adv, max|u|) snapped down onto t_end, not the |k|^3
        # dispersive bound an RK4 step needs
        raw = minimal_config()
        raw["model"]["kind"] = "fkdv"
        raw["initial"] = {"kind": "mode", "k": 1, "amplitude": 0.2}
        cfg = validate_config(raw)
        u0 = build_initial(cfg.initial, cfg.grid)
        dt, _ = resolve_dt(u0, cfg.model, cfg.solver, cfg.solver.t_end)
        advective = 0.5 * cfg.grid.spacing
        assert 0.9 * advective < dt <= advective

    @pytest.mark.parametrize("kind,value", [
        ("fch", "rk4"), ("fbbm", "RK4"), ("fbbm", " rk4"), ("fkdv", " IFRK4 "),
    ])
    def test_integrator_key_may_name_the_models_scheme(self, kind, value):
        raw = minimal_config(integrator=value)
        raw["model"]["kind"] = kind
        bare = minimal_config()
        bare["model"]["kind"] = kind
        assert validate_config(raw).solver == validate_config(bare).solver

    @pytest.mark.parametrize("kind,value", [
        ("fkdv", "rk4"), ("fch", "ifrk4"), ("fbbm", "IFRK4"), ("fch", "if-rk4"), ("fch", ""),
    ])
    def test_integrator_key_naming_another_scheme_refused(self, kind, value):
        raw = minimal_config(integrator=value)
        raw["model"]["kind"] = kind
        with pytest.raises(ConfigError, match="solver.integrator") as err:
            validate_config(raw)
        assert err.value.key == "solver.integrator"

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

    def test_load_config_not_text(self, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_load_config_applies_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal_config()))
        cfg = load_config(path, ["solver.t_end=0.5", "output.directory=runs/b"])
        assert cfg.solver.t_end == 0.5
        assert cfg.output.directory == "runs/b"
        assert cfg.raw["solver"]["t_end"] == 0.5
        with pytest.raises(ConfigError, match="allow-low-nu"):
            load_config(path, ["model.nu=0.75"])
        assert load_config(path, ["model.nu=0.75"], allow_low_nu=True).model.nu.value == 0.75

    @pytest.mark.parametrize("dotted", NUMERIC_KEYS)
    @pytest.mark.parametrize(
        "value",
        ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="int-1e400")],
    )
    def test_nonfinite_number_names_key(self, dotted, value):
        validate_config(config_holding(dotted))  # valid before the override
        raw = apply_overrides(config_holding(dotted), [f"{dotted}={value}"])
        with pytest.raises(ConfigError, match=f"'{dotted}' must be finite") as err:
            validate_config(raw)
        assert err.value.key == dotted

    def test_snapshot_format_is_unknown(self):
        raw = minimal_config()
        raw["output"] = {"snapshot_format": "csv"}
        with pytest.raises(ConfigError, match="unknown key 'snapshot_format'") as err:
            validate_config(raw)
        assert err.value.key == "output.snapshot_format"

    def test_absent_keys_take_dataclass_defaults(self):
        cfg = validate_config(minimal_config())
        assert (cfg.solver.cfl, cfg.solver.on_breaking) == (0.5, "halt")
        assert cfg.solver.breaking_slope_threshold == 100.0
        assert cfg.solver.tail_fraction_threshold == 1e-4
        assert cfg.solver.dt == "auto" and cfg.solver.snapshot_every is None
        assert validate_config(minimal_config(dt="auto")).solver.dt == "auto"



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

    @pytest.mark.parametrize("cfg", [[1], 3, None])
    def test_non_object_root(self, cfg):
        with pytest.raises(ConfigError, match="non-object"):
            apply_overrides(cfg, ["solver.dt=0.1"])
        with pytest.raises(ConfigError, match="non-object"):
            apply_overrides(cfg, ["dt=0.1"])


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

    def test_nonfinite_file_data_is_config_error(self, tmp_path):
        g = make_grid(16)
        values = ["%.17g,%s" % (x, "nan" if j == 3 else "0.5") for j, x in enumerate(g.x)]
        (tmp_path / "snap.csv").write_text("x,u\n" + "\n".join(values) + "\n")
        raw = minimal_config()
        raw["initial"] = {"kind": "file", "path": str(tmp_path / "snap.csv")}
        with pytest.raises(ConfigError, match="initial data is not finite") as err:
            build_initial(validate_config(raw).initial, g)
        assert err.value.key == "initial"

    def test_gaussian_below_double_range_is_config_error(self):
        raw = minimal_config()
        # width**2 underflows to 0, so the center point evaluates 0/0
        raw["initial"] = {"kind": "gaussian", "amplitude": 1.0, "width": 1e-200, "center": 0.0}
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match="not finite"):
            build_initial(validate_config(raw).initial, make_grid(16))


    @pytest.mark.parametrize("width", [1.3e154, 1.35e154, 1e200, 1.7e308])
    def test_gaussian_past_double_range_is_flat(self, width):
        # width**2 overflows from about 1.34e154 (2 width**2 from 9.5e153):
        # the exponent is -0 at every point, as far as a double shows
        raw = minimal_config()
        raw["initial"] = {"kind": "gaussian", "amplitude": 0.7, "width": width}
        u = build_initial(validate_config(raw).initial, make_grid(16))
        assert np.array_equal(u.values, np.full(16, 0.7))

    @pytest.mark.parametrize("width", [1e-150, 0.3, 2.5, 1e100, 9e153, 1.33e154])
    def test_gaussian_bytes_unchanged(self, width):
        g = make_grid(64)
        raw = minimal_config()
        raw["initial"] = {"kind": "gaussian", "amplitude": 1.5, "width": width, "center": 2.0}
        u = build_initial(validate_config(raw).initial, g)
        with np.errstate(all="ignore"):
            expected = 1.5 * np.exp(-((g.x - 2.0) ** 2) / (2.0 * width**2))
        assert u.values.tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("n", [16, 4096, 2 * 4096 + 10, 65536])
    def test_bytes_match_per_line_format(self, tmp_path, rng, n):
        g = make_grid(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        values[:4] = [0.0, -0.0, 1e-300, -123456789.125]
        # the second block holds only values the digit kernel leaves to Python
        values[4096:8192] = rng.choice([1e-300, 1e300, -0.0, 5e-324], len(values[4096:8192]))
        u = RealField(g, values)
        expected = "x,u\n" + "".join(
            f"{xj:.17g},{uj:.17g}\n" for xj, uj in zip(u.grid.x, u.values)
        )
        path = tmp_path / "s.csv"
        write_snapshot(path, u)
        assert path.read_bytes() == expected.encode()

    # N = 4096 fills one block exactly; 4098 and 8194 end in a partial block
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 4096, 4098, 8194]),
        length=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
        special=st.lists(
            st.tuples(
                st.integers(0, 8193),
                st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1e308, -7.25])
                | st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=12,
        ),
    )
    def test_bytes_match_reference_on_alternating_grids(self, n, length, seed, special):
        rng = np.random.default_rng(seed)
        grids = [make_grid(n), make_grid(n, length), make_grid(8 if n > 8 else 4096)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            # each write follows one on another grid, so a stale x column shows
            for g in grids + grids[::-1]:
                values = rng.standard_normal(g.n_points) * 10.0 ** rng.integers(-300, 300)
                for j, v in special:
                    values[j % g.n_points] = v
                u = RealField(g, values)
                expected = "x,u\n" + "".join(
                    "%.17g,%.17g\n" % r for r in zip(g.x.tolist(), u.values.tolist())
                )
                write_snapshot(path, u)
                with open(path, "rb") as fh:
                    assert fh.read() == expected.encode()

    def test_bit_exact_roundtrip(self, tmp_path, rng):
        g = make_grid(128)
        u = smooth_field(g, rng)
        path = tmp_path / "s.csv"
        write_snapshot(path, u)
        xs, us = read_snapshot(path)
        assert np.array_equal(us, u.values)
        assert np.array_equal(xs, g.x)


def _kernel_rows(values) -> bytes:
    return _text(_fields(np.asarray(values, dtype=float)))


def _python_rows(values) -> bytes:
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=float).tolist()).encode()


def _from_bits(bits) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _digit_sweep(rng) -> np.ndarray:
    """About 10**6 doubles: random ones across the kernel's range and the
    rest of the doubles, the edges of its range and of each format, ties."""
    u64 = np.uint64
    n = 300_000
    sign = rng.integers(0, 2, n, dtype=u64) << u64(63)
    mantissa = rng.integers(0, 2**52, n, dtype=u64)
    in_range = sign | (rng.integers(1023 - 38, 1023 + 51, n, dtype=u64) << u64(52)) | mantissa
    subnormal = (sign | mantissa)[:50_000]
    any_bits = rng.integers(0, 2**64, 100_000, dtype=u64)
    ulps = [np.array([10.0**j for j in range(-12, 18)])]  # and 1-3 ulps either side
    for _ in range(3):
        ulps = [np.nextafter(ulps[0], 0.0)] + ulps + [np.nextafter(ulps[-1], np.inf)]
    # ties: D + 1/2 at 17 digits is r / 2**(17 - X) for odd r with
    # r * 5**(16 - X) in [2e16, 2e17); it is a double for X >= -8
    ties = []
    for x in range(-8, 15):
        lo, hi = -(-2 * 10**16 // 5 ** (16 - x)), 2 * 10**17 // 5 ** (16 - x)
        r = rng.integers(lo, hi, 6_000) | 1
        ties.append(np.ldexp(r[r < hi].astype(float), x - 17))
    ties = np.concatenate(ties)
    # format switches: exponent form below 1e-4, and from 1e16 up
    switches = []
    for p in (1e-5, 1e-4, 1e16, 1e17):
        steps = np.arange(-1000, 1001)
        switches += [p + steps * np.spacing(p), rng.uniform(0.5 * p, 2 * p, 10_000)]
    return np.concatenate([
        in_range.view(np.float64), subnormal.view(np.float64), any_bits.view(np.float64),
        [0.0, -0.0], *ulps, -np.concatenate(ulps),
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        rng.integers(0, 2**53, 100_000, endpoint=True).astype(float),
        rng.integers(1, 10**4, 60_000) * 10.0 ** rng.integers(0, 12, 60_000),
        np.ldexp(rng.integers(1, 2**20, 100_000).astype(float), rng.integers(-40, 1, 100_000)),
        *switches,
    ])


class TestSnapshotDigits:
    """The snapshot kernel writes Python's '%.17g' bytes for every double."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.integers(0, 2**64 - 1).map(_from_bits),
                    min_size=1, max_size=64))
    def test_rows_match_python(self, values):
        assert _kernel_rows(values) == _python_rows(values)

    def test_seeded_sweep_matches_python(self):
        values = _digit_sweep(np.random.default_rng(20240611))
        assert len(values) > 10**6
        for start in range(0, len(values), 65536):
            chunk = values[start:start + 65536]
            got, want = _kernel_rows(chunk).split(b"\n"), _python_rows(chunk).split(b"\n")
            bad = [(v, g, w) for v, g, w in zip(chunk.tolist(), got, want) if g != w]
            assert not bad, bad[:5]


class _HalfWriter:
    """A file that takes its first ``good`` writes, stores half the data of
    the next one, then fails."""

    def __init__(self, fh, good=0):
        self.fh = fh
        self.good = good

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.good:
            self.good -= 1
            return self.fh.write(data)
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("injected write failure")


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", ["manifest", "checkpoint", "snapshot"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "target"
        g = make_grid(16)
        # a snapshot of three blocks fails after its header and first block
        good = 2 if writer == "snapshot" else 0

        def write(i):
            if writer == "manifest":
                write_manifest(path, {"i": i, "series": list(range(50))})
            elif writer == "checkpoint":
                u = RealField(g, np.full(16, i))
                checkpoint_write(SimulationState(t=float(i), u=u, u_hat=coeffs_of(u.values)), path)
            else:
                write_snapshot(path, RealField(make_grid(8194), np.full(8194, float(i))))

        write(1)
        before = path.read_bytes()
        monkeypatch.setattr(
            atomic, "open", lambda p, mode: _HalfWriter(builtins.open(p, mode), good),
            raising=False,
        )
        with pytest.raises(OSError, match="injected"):
            write(2)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["target"]
        monkeypatch.undo()
        write(3)
        assert path.read_bytes() != before
        assert os.listdir(tmp_path) == ["target"]

    def test_manifest_bytes(self, tmp_path):
        payload = {"a": [1.0, float("nan")], "b": None}
        write_manifest(tmp_path / "m.json", payload)
        assert (tmp_path / "m.json").read_text() == json.dumps(payload, indent=2) + "\n"

    def test_strict_manifest_refuses_nan_and_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            write_manifest(tmp_path / "m.json", {"a": [1.0, float("inf")]}, allow_nan=False)
        assert os.listdir(tmp_path) == []
