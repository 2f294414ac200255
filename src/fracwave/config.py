"""Run configuration files and the on-disk formats the CLI owns.

Configs are JSON with four sections (model, grid, initial, solver) plus
an optional output section.  Validation is strict: unknown keys are
rejected by name, types are checked, and the model-family constraint
nu >= 1 is enforced unless explicitly waived.

Snapshots are CSV with an `x,u` header and 17-significant-digit floats,
which round-trips IEEE doubles exactly; a snapshot is therefore loadable
back as initial data (`initial: {"kind": "file", ...}`) without loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .models import Coefficients, ModelKind, ModelParams, default_coefficients, make_params
from .spectral import Grid, RealField
from .timestepper import AUTO, SolverConfig

_INITIAL_KINDS = {
    "zero": (),
    "constant": ("value",),
    "mode": ("k", "amplitude", "phase"),
    "gaussian": ("amplitude", "width", "center"),
    "file": ("path",),
}


@dataclass
class InitialSpec:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class OutputConfig:
    directory: str = "out"
    snapshot_format: str = "csv"
    manifest: bool = True


@dataclass
class RunConfig:
    model: ModelParams
    grid: Grid
    initial: InitialSpec
    solver: SolverConfig
    output: OutputConfig
    raw: dict = field(default_factory=dict)


def _require_section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"missing required section '{name}'", key=name)
    section = cfg[name]
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be an object", key=name)
    return section


def _check_keys(section: dict, allowed, where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(
                f"unknown key '{key}' in section '{where}'", key=f"{where}.{key}"
            )


def _number(section, key, where, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{where}.{key}'", key=f"{where}.{key}")
        return default
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{where}.{key}' must be a number, got {val!r}", key=f"{where}.{key}")
    return float(val)


def _integer(section, key, where, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{where}.{key}'", key=f"{where}.{key}")
        return default
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"'{where}.{key}' must be an integer, got {val!r}", key=f"{where}.{key}")
    return val


def _boolean(section, key, where, default):
    if key not in section:
        return default
    val = section[key]
    if not isinstance(val, bool):
        raise ConfigError(f"'{where}.{key}' must be a boolean, got {val!r}", key=f"{where}.{key}")
    return val


def _string(section, key, where, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{where}.{key}'", key=f"{where}.{key}")
        return default
    val = section[key]
    if not isinstance(val, str):
        raise ConfigError(f"'{where}.{key}' must be a string, got {val!r}", key=f"{where}.{key}")
    return val


def validate_config(cfg: dict, allow_low_nu: bool = False) -> RunConfig:
    """Turn a parsed JSON object into a validated RunConfig."""
    if not isinstance(cfg, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys(cfg, ("model", "grid", "initial", "solver", "output"), "<root>")

    # model
    model_sec = _require_section(cfg, "model")
    _check_keys(model_sec, ("kind", "nu", "coefficients"), "model")
    kind = _string(model_sec, "kind", "model", required=True)
    nu_val = _number(model_sec, "nu", "model", required=True)
    coeffs = None
    if "coefficients" in model_sec:
        csec = model_sec["coefficients"]
        if not isinstance(csec, dict):
            raise ConfigError("'model.coefficients' must be an object", key="model.coefficients")
        _check_keys(csec, ("c_adv", "c_nl", "c_disp", "c_evo", "c_mix"), "model.coefficients")
        try:
            base = default_coefficients(ModelKind.from_string(kind))
        except Exception as err:
            raise ConfigError(str(err), key="model.kind") from None
        coeffs = Coefficients(
            c_adv=_number(csec, "c_adv", "model.coefficients", base.c_adv),
            c_nl=_number(csec, "c_nl", "model.coefficients", base.c_nl),
            c_disp=_number(csec, "c_disp", "model.coefficients", base.c_disp),
            c_evo=_number(csec, "c_evo", "model.coefficients", base.c_evo),
            c_mix=_number(csec, "c_mix", "model.coefficients", base.c_mix),
        )
    try:
        if not allow_low_nu and nu_val < 1.0:
            raise ConfigError(
                f"model.nu = {nu_val} < 1; pass --allow-low-nu to waive the "
                "nu >= 1 constraint",
                key="model.nu",
            )
        model = make_params(kind, nu_val, coeffs, strict_nu=not allow_low_nu)
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(str(err), key="model") from None

    # grid
    grid_sec = _require_section(cfg, "grid")
    _check_keys(grid_sec, ("L", "N"), "grid")
    length = _number(grid_sec, "L", "grid", default=2.0 * np.pi)
    n = _integer(grid_sec, "N", "grid", required=True)
    try:
        grid = Grid(length=length, n_points=n)
    except Exception as err:
        raise ConfigError(str(err), key="grid") from None

    # initial
    init_sec = _require_section(cfg, "initial")
    init_kind = _string(init_sec, "kind", "initial", required=True)
    if init_kind not in _INITIAL_KINDS:
        raise ConfigError(
            f"unknown initial kind {init_kind!r}; expected one of "
            f"{sorted(_INITIAL_KINDS)}",
            key="initial.kind",
        )
    _check_keys(init_sec, ("kind",) + _INITIAL_KINDS[init_kind], "initial")
    params: dict = {}
    if init_kind == "constant":
        params["value"] = _number(init_sec, "value", "initial", required=True)
    elif init_kind == "mode":
        params["k"] = _integer(init_sec, "k", "initial", required=True)
        if not 1 <= params["k"] < grid.n_points // 2:
            raise ConfigError(
                f"initial.k must lie in [1, N/2) = [1, {grid.n_points // 2}), "
                f"got {params['k']}",
                key="initial.k",
            )
        params["amplitude"] = _number(init_sec, "amplitude", "initial", required=True)
        params["phase"] = _number(init_sec, "phase", "initial", default=0.0)
    elif init_kind == "gaussian":
        params["amplitude"] = _number(init_sec, "amplitude", "initial", required=True)
        params["width"] = _number(init_sec, "width", "initial", required=True)
        if params["width"] <= 0:
            raise ConfigError("initial.width must be positive", key="initial.width")
        # center defaults at build time to the target grid's midpoint, so
        # box-size studies keep the bump centered as L grows
        params["center"] = _number(init_sec, "center", "initial", default=None)
    elif init_kind == "file":
        params["path"] = _string(init_sec, "path", "initial", required=True)
    initial = InitialSpec(kind=init_kind, params=params)

    # solver
    solver_sec = _require_section(cfg, "solver")
    _check_keys(
        solver_sec,
        (
            "integrator",
            "dt",
            "cfl",
            "t_end",
            "snapshot_every",
            "dealias",
            "breaking_slope_threshold",
            "tail_fraction_threshold",
            "on_breaking",
        ),
        "solver",
    )
    dt_raw = solver_sec.get("dt", AUTO)
    if isinstance(dt_raw, str) and dt_raw != AUTO:
        raise ConfigError(f"'solver.dt' must be a number or 'auto', got {dt_raw!r}", key="solver.dt")
    try:
        solver = SolverConfig(
            t_end=_number(solver_sec, "t_end", "solver", required=True),
            # fKdV's dispersive phase grows like |k|^(2 nu + 1): only the
            # integrating factor keeps its auto dt advective
            integrator=_string(
                solver_sec, "integrator", "solver",
                default="ifrk4" if model.kind is ModelKind.FKDV else "rk4",
            ),
            dt=dt_raw if dt_raw == AUTO else _number(solver_sec, "dt", "solver"),
            cfl=_number(solver_sec, "cfl", "solver", default=0.5),
            snapshot_every=_number(solver_sec, "snapshot_every", "solver"),
            dealias=_boolean(solver_sec, "dealias", "solver", True),
            breaking_slope_threshold=_number(
                solver_sec, "breaking_slope_threshold", "solver", default=100.0
            ),
            tail_fraction_threshold=_number(
                solver_sec, "tail_fraction_threshold", "solver", default=1e-4
            ),
            on_breaking=_string(solver_sec, "on_breaking", "solver", default="halt"),
        )
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(str(err), key="solver") from None

    # output (optional)
    output = OutputConfig()
    if "output" in cfg:
        out_sec = cfg["output"]
        if not isinstance(out_sec, dict):
            raise ConfigError("section 'output' must be an object", key="output")
        _check_keys(out_sec, ("directory", "snapshot_format", "manifest"), "output")
        fmt = _string(out_sec, "snapshot_format", "output", default="csv")
        if fmt != "csv":
            raise ConfigError(
                f"only 'csv' snapshots are supported, got {fmt!r}",
                key="output.snapshot_format",
            )
        output = OutputConfig(
            directory=_string(out_sec, "directory", "output", default="out"),
            snapshot_format=fmt,
            manifest=_boolean(out_sec, "manifest", "output", True),
        )

    return RunConfig(
        model=model, grid=grid, initial=initial, solver=solver, output=output, raw=cfg
    )


def load_config(path, allow_low_nu: bool = False) -> RunConfig:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    return validate_config(cfg, allow_low_nu=allow_low_nu)


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply `--set section.key=value` overrides to a raw config dict.

    Values parse as JSON when possible (numbers, booleans, null) and fall
    back to bare strings.
    """
    out = json.loads(json.dumps(cfg))  # deep copy
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw_val = item.split("=", 1)
        parts = dotted.strip().split(".")
        if not all(parts):
            raise ConfigError(f"override key {dotted!r} is malformed")
        try:
            value = json.loads(raw_val)
        except json.JSONDecodeError:
            value = raw_val
        node = out
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted!r} descends into a non-object")
        node[parts[-1]] = value
    return out


# -- initial data -----------------------------------------------------------

def build_initial(spec: InitialSpec, grid: Grid) -> RealField:
    """Materialize the configured initial datum on a grid."""
    x = grid.x
    p = spec.params
    if spec.kind == "zero":
        return RealField.zeros(grid)
    if spec.kind == "constant":
        return RealField(grid, np.full(grid.n_points, p["value"]))
    if spec.kind == "mode":
        k = 2.0 * np.pi * p["k"] / grid.length
        return RealField(grid, p["amplitude"] * np.sin(k * x + p["phase"]))
    if spec.kind == "gaussian":
        center = p["center"] if p.get("center") is not None else grid.length / 2.0
        return RealField(
            grid,
            p["amplitude"] * np.exp(-((x - center) ** 2) / (2.0 * p["width"] ** 2)),
        )
    if spec.kind == "file":
        xs, us = read_snapshot(p["path"])
        if len(us) != grid.n_points:
            raise ConfigError(
                f"snapshot {p['path']} has {len(us)} points but the grid needs "
                f"{grid.n_points}",
                key="initial.path",
            )
        if np.abs(xs - grid.x).max() > 1e-9 * max(1.0, grid.length):
            raise ConfigError(
                f"snapshot {p['path']} was written for a different grid",
                key="initial.path",
            )
        return RealField(grid, us)
    raise ConfigError(f"unknown initial kind {spec.kind!r}", key="initial.kind")


# -- snapshot CSV -------------------------------------------------------------

_SNAPSHOT_BLOCK_ROWS = 4096


def write_snapshot(path, u: RealField) -> None:
    """Write ``x,u`` rows, formatted and written a bounded block at a time."""
    x, values = u.grid.x, u.values
    with open(path, "w") as fh:
        fh.write("x,u\n")
        for start in range(0, len(values), _SNAPSHOT_BLOCK_ROWS):
            stop = start + _SNAPSHOT_BLOCK_ROWS
            rows = zip(x[start:stop].tolist(), values[start:stop].tolist())
            fh.write("".join(["%.17g,%.17g\n" % row for row in rows]))


def read_snapshot(path):
    """Read a snapshot CSV; returns (x, u) arrays."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as err:
        raise ConfigError(f"cannot read snapshot {path}: {err}") from None
    except ValueError as err:
        raise ConfigError(f"snapshot {path} is not a valid x,u CSV: {err}") from None
    if data.shape[1] != 2:
        raise ConfigError(f"snapshot {path} must have exactly two columns")
    return data[:, 0], data[:, 1]


# -- manifest -----------------------------------------------------------------

def write_manifest(path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
