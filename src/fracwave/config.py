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
Each row is exactly the bytes of Python's ``'%.17g,%.17g\n' % (x, u)``:
for 1e-11 < |v| < 1e15 a numpy kernel computes the digits as exact
integers, rounded half to even as Python does, and every other value
(zero, subnormals, |v| <= 1e-11, |v| >= 1e15, inf, nan) is formatted by
Python.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .atomic import open_atomic, write_manifest  # noqa: F401  (a public name here)
from .errors import BlowUpError, ConfigError, ParameterError
from .models import Coefficients, ModelKind, ModelParams, default_coefficients
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

    # model: the kind, the order and the coefficients, each read once
    m = _read_keys(sections["model"], _MODEL_KEYS, "model", required=("kind", "nu"))
    try:
        kind = ModelKind.from_string(m["kind"])
    except ParameterError as err:
        raise ConfigError(str(err), key="model.kind") from None
    if not allow_low_nu and m["nu"] < 1.0:
        raise ConfigError(
            f"model.nu = {m['nu']} < 1; pass --allow-low-nu to waive the nu >= 1 constraint",
            key="model.nu",
        )
    try:
        nu = FractionalOrder(m["nu"], strict=False)  # nu >= 1 is applied just above
    except ParameterError as err:
        raise ConfigError(str(err), key="model.nu") from None
    given = _read_keys(m.get("coefficients", {}), _COEFFICIENT_KEYS, "model.coefficients")
    try:
        model = ModelParams(kind, nu, replace(default_coefficients(kind), **given))
    except ParameterError as err:
        raise ConfigError(str(err), key="model.coefficients") from None

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
#
# A row is written as the bytes of Python's ``'%.17g,%.17g\n' % (x, u)``.
# Each value in (1e-11, 1e15) gets its 17 digits from integer arithmetic
# (exact, rounded half to even, as Python's correctly rounded conversion
# does) and is laid out in a 32-byte field:
#
#   byte  0       sign: '-' or NUL
#   bytes 1-5     lead of a fixed-notation value below 1: '0', '.', '0'...
#   byte  6       digit 0
#   byte  7       the point after digit 0 (fixed notation in [1, 10), and
#                 exponent notation)
#   bytes 8-23    digits 1-16; from 10 up, a point sits after digit X (the
#                 decimal exponent) and the digits after it move up a byte
#   bytes 24-27   'e-XX' in exponent notation
#   byte  28      '\n'
#
# Every other byte is NUL, and so are trailing zero digits and a point that
# no digit follows; the bytes of a block of rows with every NUL dropped are
# the text.  Other values (zero, subnormals, |u| <= 1e-11, |u| >= 1e15, inf,
# nan) are formatted by Python into the same field.  Every operand of the
# uint64 arithmetic is an explicit uint64: numpy 1.x turns uint64 combined
# with int64 into float64.

_SNAPSHOT_BLOCK_ROWS = 4096
_FIELD = 32  # bytes
_EXACT_LOW, _EXACT_HIGH = 1e-11, 1e15  # the kernel's range, both ends open
_LOWEST_EXP10 = -11  # 5**(16 - exponent) must fit a uint64
_CLASSES = 26  # decimal exponents -11..14
_U = np.uint64
_1, _32, _64, _M32 = _U(1), _U(32), _U(64), _U(0xFFFFFFFF)
_E8, _E16, _E17 = _U(10**8), _U(10**16), _U(10**17)


@functools.cache
def _digit_tables() -> dict:
    """The kernel's lookup tables, built by numpy on the first snapshot."""
    # per 4-digit chunk: its ASCII digits, and the place (1-4) of its last
    # nonzero digit; -12 for 0000, so that four zero chunks leave digit 0 alone
    chunk = np.empty((10_000, 4), np.uint8)
    last = np.zeros(10_000, np.intp)
    rest = np.arange(10_000)
    for place in range(4, 0, -1):
        upper = rest // 10
        digit = rest - upper * 10
        chunk[:, place - 1] = digit + ord("0")
        last[(last == 0) & (digit > 0)] = place
        rest = upper
    last[0] = -12
    # per decimal exponent X: bytes 0-7 for each sign and digit 0, bytes 24-31
    head = np.zeros((_CLASSES, 2, 10, 8), np.uint8)
    head[:, 1, :, 0] = ord("-")
    head[..., 6] = np.frombuffer(b"0123456789", np.uint8)
    tail = np.zeros((_CLASSES, 8), np.uint8)
    tail[:, 4] = ord("\n")
    for cls, x in enumerate(range(_LOWEST_EXP10, _LOWEST_EXP10 + _CLASSES)):
        if x < -4:
            head[cls, ..., 7] = ord(".")
            tail[cls, :4] = np.frombuffer(b"e-%02d" % -x, np.uint8)
        elif x < 0:
            head[cls, ..., 1:2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
        elif x == 0:
            head[cls, ..., 7] = ord(".")
    # per count K of digits kept: the bytes from the one after digit K - 1
    # (after digit 0, its point too) to byte 23 go
    keep = np.full((18, _FIELD), 0xFF, np.uint8)
    for k in range(1, 18):
        keep[k, 6 + k + (k > 1):24] = 0
    # per X in [1, 14]: bytes 8-24 from digits 1-16 and a point (byte 16 of 17)
    shift = [[p if p < x else 16 if p == x else p - 1 for p in range(17)] for x in range(15)]
    return {
        "pow5": np.array([[5**k >> 32, 5**k & 0xFFFFFFFF] for k in range(17 - _LOWEST_EXP10)],
                         np.uint64).T,  # high and low 32 bits
        "chunk": chunk.view("<u4")[:, 0],
        "head": head.view("<u8").reshape(-1),
        "tail": tail.view("<u8")[:, 0],
        "zeros": last < 4,  # the last digit is 0
        "last": last,
        "keep": keep.view("<u8"),
        "shift": np.array(shift),
    }


def _quotient(m, e, exp10, pow5):
    """floor(a * 10**(16 - exp10)) for a = m * 2**(e - 53), the remainder it
    drops and its shift s: the exact product m * 5**(16 - exp10) in two uint64
    limbs, shifted right by s = 37 + exp10 - e (1 <= s <= 63 in range)."""
    f1, f0 = pow5.take(16 - exp10, axis=1)
    m1, m0 = m >> _32, m & _M32
    p00, p01, p10 = m0 * f0, m0 * f1, m1 * f0
    mid = (p00 >> _32) + (p01 & _M32) + (p10 & _M32)
    lo = (mid << _32) | (p00 & _M32)
    hi = m1 * f1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    s = (37 + exp10 - e).astype(np.uint64)
    return (hi << (_64 - s)) | (lo >> s), lo & ((_1 << s) - _1), s


def _exact_fields(a, negative) -> np.ndarray:
    """The (n, 32) byte fields of magnitudes ``a`` in (1e-11, 1e15)."""
    t = _digit_tables()
    frac, e = np.frexp(a)
    m = (frac * 2.0**53).astype(np.uint64)
    exp10 = np.clip(np.floor(np.log10(a)).astype(np.int64), _LOWEST_EXP10, 14)
    q, rem, s = _quotient(m, e, exp10, t["pow5"])
    off = np.flatnonzero((q < _E16) | (q >= _E17))  # log10 missed by one
    if len(off):
        exp10[off] += np.where(q[off] < _E16, -1, 1)
        q[off], rem[off], s[off] = _quotient(m[off], e[off], exp10[off], t["pow5"])
    # round half to even.  No double in range rounds up to 10**17: that takes
    # one within a relative 5e-18 below a power of ten, and the closest, below
    # 1e-7, is 4.5e-17 under it.
    half = _1 << (s - _1)
    digits = q + ((rem > half) | ((rem == half) & ((q & _1) == _1))).astype(np.uint64)
    cls = exp10 - _LOWEST_EXP10

    top = digits // _E8
    lead = top // _E8
    eights = np.stack([top - lead * _E8, digits - top * _E8]).astype(np.intp)  # digits 1-8, 9-16
    upper = eights // 10_000
    chunks = (upper[0], eights[0] - upper[0] * 10_000, upper[1], eights[1] - upper[1] * 10_000)
    out = np.empty((len(a), _FIELD), np.uint8)
    words, quads = out.view("<u8"), out.view("<u4")
    words[:, 0] = t["head"].take((cls * 2 + negative) * 10 + lead.astype(np.intp))
    for i, chunk in enumerate(chunks):
        quads[:, 2 + i] = t["chunk"].take(chunk)
    words[:, 3] = t["tail"].take(cls)
    # trailing zero digits go, and a point that no digit follows
    ends = np.flatnonzero(t["zeros"].take(chunks[3]))
    kept = np.maximum.reduce(
        [t["last"].take(chunk[ends]) + 4 * i + 1 for i, chunk in enumerate(chunks)]
        + [exp10[ends] + 1]
    )
    words[ends] &= t["keep"].take(kept, axis=0)
    # from 10 up, a point after digit X: NUL when no digit follows it
    big = np.flatnonzero(exp10 > 0)
    if len(big):
        dot = np.full(len(big), ord("."), np.uint8)
        dot[np.isin(big, ends[kept == exp10[ends] + 1])] = 0
        row = np.concatenate([out[big, 8:24], dot[:, None]], axis=1)
        out[big, 8:25] = np.take_along_axis(row, t["shift"].take(exp10[big], axis=0), axis=1)
    return out


def _fields(values) -> np.ndarray:
    """The (n, 32) byte fields holding each value's ``'%.17g\n'``."""
    a = np.abs(values)
    exact = (a > _EXACT_LOW) & (a < _EXACT_HIGH)  # False for nan
    if exact.all():
        return _exact_fields(a, values < 0)
    out = np.empty((len(values), _FIELD), np.uint8)
    out[exact] = _exact_fields(a[exact], values[exact] < 0)
    text = [b"%.17g\n" % v for v in values[~exact].tolist()]
    out[~exact] = np.array(text, f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
    return out


def _text(fields: np.ndarray) -> bytes:
    """The bytes of ``fields`` with every NUL dropped."""
    return fields.tobytes().translate(None, b"\0")


@functools.lru_cache(maxsize=1)
def _x_columns(grid: Grid) -> tuple:
    """The x column of ``grid`` per block of rows: each row's x and comma,
    NUL-padded to the block's longest."""
    blocks = []
    for start in range(0, grid.n_points, _SNAPSHOT_BLOCK_ROWS):
        text = _text(_fields(grid.x[start:start + _SNAPSHOT_BLOCK_ROWS]))
        rows = text.replace(b"\n", b",\n").split(b"\n")[:-1]
        blocks.append(np.array(rows).view(np.uint8).reshape(len(rows), -1))
    return tuple(blocks)


def write_snapshot(path, u: RealField) -> None:
    """Write ``x,u`` rows, formatted and written a bounded block at a time,
    to a temporary file that replaces ``path`` once complete."""
    values = u.values
    with open_atomic(path) as fh:
        fh.write(b"x,u\n")
        for i, xs in enumerate(_x_columns(u.grid)):
            block = values[i * _SNAPSHOT_BLOCK_ROWS:(i + 1) * _SNAPSHOT_BLOCK_ROWS]
            fh.write(_text(np.concatenate([xs, _fields(block)], axis=1)))


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

