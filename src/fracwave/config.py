"""Run configuration files and the on-disk formats the CLI owns.

Configs are JSON with four sections (model, grid, initial, solver) plus
an optional output section.  ``load_config`` is the one way from a file
to a ``RunConfig``: it parses the JSON, applies ``--set`` overrides and
validates.  Validation is strict: unknown keys are rejected by name,
types are checked, numbers must be finite (NaN and Infinity are config
errors), and the model-family constraint nu >= 1 is enforced unless
explicitly waived.  Each section is read against one {key: kind} table,
and an absent key takes the default of the dataclass that owns it.

Snapshots are CSV with an `x,u` header and 17-significant-digit floats,
which round-trips IEEE doubles exactly; a snapshot is therefore loadable
back as initial data (`initial: {"kind": "file", ...}`) without loss.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .atomic import open_atomic, write_manifest  # noqa: F401  (a public name here)
from .errors import BlowUpError, ConfigError, ParameterError
from .models import Coefficients, ModelKind, ModelParams, default_coefficients, make_params
from .operators import FractionalOrder
from .spectral import Grid, RealField
from .timestepper import AUTO, SolverConfig, _scheme

# Each key table maps a section's allowed keys to their JSON kind.  Only
# keys present in the file are passed on, so every default lives in the
# dataclass or function that uses it.
_SECTIONS = dict.fromkeys(("model", "grid", "initial", "solver", "output"), dict)
_MODEL_KEYS = {"kind": str, "nu": float, "coefficients": dict}
_COEFFICIENT_KEYS = dict.fromkeys((f.name for f in fields(Coefficients)), float)
_SOLVER_KEYS = {
    "integrator": str,
    "dt": float,
    "cfl": float,
    "t_end": float,
    "snapshot_every": float,
    "dealias": bool,
    "breaking_slope_threshold": float,
    "tail_fraction_threshold": float,
    "on_breaking": str,
}
_OUTPUT_KEYS = {"directory": str}
_GRID_KEYS = {"L": float, "N": int}
_INITIAL_KINDS = {
    "zero": {},
    "constant": {"value": float},
    "mode": {"k": int, "amplitude": float, "phase": float},
    "gaussian": {"amplitude": float, "width": float, "center": float},
    "file": {"path": str},
}
_INITIAL_OPTIONAL = ("phase", "center")  # build_initial supplies these

_KIND_NAMES = {
    float: "a number", int: "an integer", bool: "a boolean", str: "a string", dict: "an object",
}


@dataclass
class InitialSpec:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class OutputConfig:
    directory: str = "out"


@dataclass
class RunConfig:
    model: ModelParams
    grid: Grid
    initial: InitialSpec
    solver: SolverConfig
    output: OutputConfig
    raw: dict = field(default_factory=dict)


def _check_keys(section: dict, allowed, where):
    where = where or "<root>"
    for key in section:
        if key not in allowed:
            raise ConfigError(
                f"unknown key '{key}' in section '{where}'", key=f"{where}.{key}"
            )


def _read(section, key, where, kind):
    """Read the required ``section[key]`` as ``kind`` (float, int, bool, str
    or dict).

    ``where`` is the dotted name of the section, None for the root.  A
    number must be finite: NaN or an infinite threshold, length or
    amplitude is never a valid run.
    """
    name = f"{where}.{key}" if where else key
    if key not in section:
        raise ConfigError(f"missing required key '{name}'", key=name)
    val = section[key]
    ok = isinstance(val, kind) or (kind is float and isinstance(val, int))
    if not ok or (isinstance(val, bool) and kind is not bool):
        raise ConfigError(f"'{name}' must be {_KIND_NAMES[kind]}, got {val!r}", key=name)
    if kind is float:
        # also catches an integer too large to convert to a double
        if not abs(val) <= sys.float_info.max:
            raise ConfigError(f"'{name}' must be finite, got {val}", key=name)
        val = float(val)
    return val


def _read_keys(section, table, where, required=()) -> dict:
    """Check ``section`` against ``table`` and read the keys it holds;
    a key in ``required`` must be there."""
    _check_keys(section, table, where)
    return {
        key: _read(section, key, where, kind)
        for key, kind in table.items()
        if key in section or key in required
    }


def validate_config(cfg: dict, allow_low_nu: bool = False) -> RunConfig:
    """Turn a parsed JSON object into a validated RunConfig."""
    if not isinstance(cfg, dict):
        raise ConfigError("configuration root must be a JSON object")
    sections = _read_keys(cfg, _SECTIONS, None, required=("model", "grid", "initial", "solver"))

    # model
    m = _read_keys(sections["model"], _MODEL_KEYS, "model", required=("kind", "nu"))
    coeffs = None
    if "coefficients" in m:
        try:
            base = default_coefficients(ModelKind.from_string(m["kind"]))
        except ParameterError as err:
            raise ConfigError(str(err), key="model.kind") from None
        given = _read_keys(m["coefficients"], _COEFFICIENT_KEYS, "model.coefficients")
        coeffs = replace(base, **given)
    if not allow_low_nu and m["nu"] < 1.0:
        raise ConfigError(
            f"model.nu = {m['nu']} < 1; pass --allow-low-nu to waive the nu >= 1 constraint",
            key="model.nu",
        )
    try:
        model = make_params(m["kind"], FractionalOrder(m["nu"], strict=not allow_low_nu), coeffs)
    except ParameterError as err:
        raise ConfigError(str(err), key="model") from None

    # grid
    g = _read_keys(sections["grid"], _GRID_KEYS, "grid", required=("N",))
    try:
        grid = Grid(length=g.get("L", 2.0 * np.pi), n_points=g["N"])
    except ParameterError as err:
        raise ConfigError(str(err), key="grid") from None

    # initial
    init_sec = sections["initial"]
    init_kind = _read(init_sec, "kind", "initial", str)
    if init_kind not in _INITIAL_KINDS:
        raise ConfigError(
            f"unknown initial kind {init_kind!r}; expected one of "
            f"{sorted(_INITIAL_KINDS)}",
            key="initial.kind",
        )
    table = {"kind": str, **_INITIAL_KINDS[init_kind]}
    params = _read_keys(
        init_sec, table, "initial", required=[k for k in table if k not in _INITIAL_OPTIONAL]
    )
    del params["kind"]
    if init_kind == "mode" and not 1 <= params["k"] < grid.n_points // 2:
        raise ConfigError(
            f"initial.k must lie in [1, N/2) = [1, {grid.n_points // 2}), "
            f"got {params['k']}",
            key="initial.k",
        )
    if init_kind == "gaussian" and params["width"] <= 0:
        raise ConfigError("initial.width must be positive", key="initial.width")
    initial = InitialSpec(kind=init_kind, params=params)

    # solver
    solver_sec = sections["solver"]
    dt = solver_sec.get("dt")
    if dt == AUTO:  # the SolverConfig default
        solver_sec = {k: v for k, v in solver_sec.items() if k != "dt"}
    elif isinstance(dt, str):
        raise ConfigError(
            f"'solver.dt' must be a number or 'auto', got {dt!r}", key="solver.dt"
        )
    options = _read_keys(solver_sec, _SOLVER_KEYS, "solver", required=("t_end",))
    # the model decides its scheme; the key may only name that one
    scheme, own = options.pop("integrator", None), _scheme(model)
    if scheme is not None and scheme.strip().lower() != own:
        raise ConfigError(
            f"solver.integrator {scheme!r} is not the scheme of {model.kind.value}, "
            f"which is stepped with {own}",
            key="solver.integrator",
        )
    try:
        solver = SolverConfig(**options)
    except ParameterError as err:
        raise ConfigError(str(err), key="solver") from None

    output = OutputConfig(**_read_keys(sections.get("output", {}), _OUTPUT_KEYS, "output"))

    return RunConfig(
        model=model, grid=grid, initial=initial, solver=solver, output=output, raw=cfg
    )


def load_config(path, overrides=(), allow_low_nu: bool = False) -> RunConfig:
    """Read a JSON config file, apply ``--set`` overrides and validate it."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except ValueError as err:  # JSONDecodeError, or bytes that are not text
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    return validate_config(apply_overrides(cfg, overrides), allow_low_nu=allow_low_nu)


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
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"override {dotted!r} descends into a non-object")
        node[parts[-1]] = value
    return out


# -- initial data -----------------------------------------------------------

def build_initial(spec: InitialSpec, grid: Grid) -> RealField:
    """Materialize the configured initial datum on a grid.

    Data that is not finite on the grid (a snapshot file holding NaN, a
    Gaussian too narrow for double precision) is a config error, not a
    blow-up.
    """
    x = grid.x
    p = spec.params
    if spec.kind == "zero":
        values = np.zeros(grid.n_points)
    elif spec.kind == "constant":
        values = np.full(grid.n_points, p["value"])
    elif spec.kind == "mode":
        k = 2.0 * np.pi * p["k"] / grid.length
        values = p["amplitude"] * np.sin(k * x + p.get("phase", 0.0))
    elif spec.kind == "gaussian":
        # center defaults to the target grid's midpoint, so box-size
        # studies keep the bump centered as L grows
        center = p.get("center", grid.length / 2.0)
        try:
            two_var = 2.0 * p["width"] ** 2
        except OverflowError:  # a width past 1.3e154: as flat as any double shows
            two_var = np.inf
        values = p["amplitude"] * np.exp(-((x - center) ** 2) / two_var)
    elif spec.kind == "file":
        xs, values = read_snapshot(p["path"])
        if len(values) != grid.n_points:
            raise ConfigError(
                f"snapshot {p['path']} has {len(values)} points but the grid needs "
                f"{grid.n_points}",
                key="initial.path",
            )
        if np.abs(xs - grid.x).max() > 1e-9 * max(1.0, grid.length):
            raise ConfigError(
                f"snapshot {p['path']} was written for a different grid",
                key="initial.path",
            )
    else:
        raise ConfigError(f"unknown initial kind {spec.kind!r}", key="initial.kind")
    try:
        return RealField(grid, values)
    except BlowUpError as err:
        raise ConfigError(f"initial data is not finite: {err}", key="initial") from None


# -- snapshot CSV -------------------------------------------------------------

_SNAPSHOT_BLOCK_ROWS = 4096


@functools.lru_cache(maxsize=1)
def _row_templates(grid: Grid) -> tuple:
    """One ``%`` template per block of rows, with the x column of ``grid``
    already formatted: a snapshot formats only its u column."""
    x = grid.x
    return tuple(
        "".join(["%.17g,%%.17g\n" % xj for xj in x[start:start + _SNAPSHOT_BLOCK_ROWS].tolist()])
        for start in range(0, grid.n_points, _SNAPSHOT_BLOCK_ROWS)
    )


def write_snapshot(path, u: RealField) -> None:
    """Write ``x,u`` rows, formatted and written a bounded block at a time,
    to a temporary file that replaces ``path`` once complete."""
    values = u.values
    with open_atomic(path, "w") as fh:
        fh.write("x,u\n")
        for i, template in enumerate(_row_templates(u.grid)):
            block = values[i * _SNAPSHOT_BLOCK_ROWS:(i + 1) * _SNAPSHOT_BLOCK_ROWS]
            fh.write(template % tuple(block.tolist()))


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

