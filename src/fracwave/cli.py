"""Command-line front end: runs, sweeps, diagnostics, resume.

Exit codes are a stable contract:

    0  success
    1  usage or configuration error
    2  run halted on a wave-breaking report
    3  run hit a blow-up (non-finite values)

Every run directory receives snapshot CSVs, a final checkpoint, and a
manifest.json that is written even when the run ends early.

Each command imports the modules it runs when it starts: a run loads no
diagnostics, a probe no solver.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import __version__
from .atomic import write_manifest
from .errors import CheckpointError, ConfigError, FracwaveError, ParameterError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BREAKING = 2
EXIT_BLOWUP = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 means "breaking" in
    # this tool, so route usage problems through exit code 1 instead.
    def error(self, message):
        raise _UsageError(message)


# -- run machinery -----------------------------------------------------------


def _quiet_numpy():
    """numpy's floating-point warnings off: every non-finite number a
    command meets is trapped by the solver's and the probes' own checks and
    reported once.  numpy keeps this per thread, so pool workers enter it
    themselves."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


@contextmanager
def _writing(what, path):
    """A failed write of ``path`` becomes one config error naming it."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"cannot write {what} {path!r}: {err.strerror or err}") from None


def _finite(value):
    """``value``, or None when it is not finite: JSON has no NaN or Infinity."""
    return value if np.isfinite(value) else None


class _SnapshotWriter:
    """Writes each snapshot and keeps what the manifest needs of it: the
    conserved functionals (None where not finite), Fourier coefficient
    ``mode`` (when given) for the phase-speed fit, and (L, max|u|) of the
    first snapshot for the mass floor.  The coefficient and the functionals
    are read off one transform per snapshot.  No field is held."""

    def __init__(self, directory, model, mode=None):
        self.directory = directory
        self.entries = []
        self.times = []
        self.coeffs = []
        self.mass = []
        self.momentum = []
        self.energy = []
        self.first_extent = None
        self._model = model
        self._mode = mode
        self._weights = None  # of the functionals, built on the first snapshot

    def __call__(self, t, u):
        from .config import write_snapshot
        from .models import _conserved, _conserved_weights
        from .spectral import coeffs_of

        if not self.entries:  # integrate's first call comes once dt is set
            _make_output_dir(self.directory)
            self.first_extent = (u.grid.length, float(np.abs(u.values).max()))
            self._weights = _conserved_weights(u.grid, self._model)
        name = f"snap_{len(self.entries):06d}.csv"
        path = os.path.join(self.directory, name)
        with _writing("snapshot", path):
            write_snapshot(path, u)
        self.entries.append({"t": t, "file": name})
        self.times.append(t)
        half = coeffs_of(u.values)
        if self._mode is not None:
            self.coeffs.append(half[self._mode])
        values = _conserved(u.grid, half, self._weights)
        for series, value in zip((self.mass, self.momentum, self.energy), values):
            series.append(_finite(value))


# A mass below this fraction of L * max|u0| is round-off (a zero-mean
# run), far above the few-eps error of the computed mean and far below any
# mean set on purpose; a drift relative to it would be noise.
_MASS_ROUNDOFF = 1e-12


def _drift(series, floor=0.0):
    """Initial, final and drift of a conserved series.  The drifts are null
    when an end is missing or null (not finite) or when they overflow, and
    ``drift_rel`` also when the initial value is within ``floor`` of zero."""
    q0 = series[0] if series else None
    qt = series[-1] if len(series) > 1 else None
    if q0 is None or qt is None:
        return {"initial": q0, "final": qt, "drift_abs": None, "drift_rel": None}
    abs_d = abs(qt - q0)
    return {
        "initial": q0,
        "final": qt,
        "drift_abs": _finite(abs_d),
        "drift_rel": _finite(abs_d / abs(q0)) if abs(q0) > floor else None,
    }


def _make_output_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(
            f"cannot create output directory {path!r}: {err}", key="output.directory"
        ) from None


def _execute_run(run_cfg, start=None):
    """Run one trajectory of a ``RunConfig`` into its output directory, from
    the state ``start`` on a resume; returns the exit code and the manifest."""
    from .config import build_initial
    from .spectral import fit_phase_speed
    from .timestepper import Outcome, checkpoint_write, integrate

    start = start or build_initial(run_cfg.initial, run_cfg.grid)
    out_dir = run_cfg.output.directory
    mode = run_cfg.initial.params["k"] if run_cfg.initial.kind == "mode" else None
    sink = _SnapshotWriter(out_dir, run_cfg.model, mode)
    result = integrate(start, run_cfg.model, run_cfg.solver, sink=sink)
    path = os.path.join(out_dir, "checkpoint.fwck")
    with _writing("checkpoint", path):
        checkpoint_write(result.state, path)

    phase_speed = None
    if mode is not None and len(sink.coeffs) >= 2:
        try:
            phase_speed = fit_phase_speed(sink.times, sink.coeffs, run_cfg.grid, mode)
        except ParameterError:
            phase_speed = None

    # integrate always hands the sink its first state
    length, first_max = sink.first_extent
    mass_floor = _MASS_ROUNDOFF * length * first_max
    manifest = {
        "code_version": __version__,
        "config": run_cfg.raw,
        "dt": result.dt,
        "outcome": result.outcome.value,
        "t_final": result.state.t,
        "steps": result.state.step_count,
        "snapshots": sink.entries,
        "conserved": {
            "t": sink.times,
            "mass": sink.mass,
            "momentum": sink.momentum,
            "fbbm_energy": sink.energy,
        },
        "conserved_drift": {
            "mass": _drift(sink.mass, mass_floor),
            "momentum": _drift(sink.momentum),
            "fbbm_energy": _drift(sink.energy),
        },
        "breaking": result.breaking.to_dict() if result.breaking else None,
        "blowup": (
            {"t_last_good": result.state.t, "blowup_time": result.blowup_time,
             "stage": result.blowup_stage}
            if result.outcome is Outcome.BLOWUP
            else None
        ),
        "measured_phase_speed": phase_speed,
    }
    path = os.path.join(out_dir, "manifest.json")
    with _writing("manifest", path):
        write_manifest(path, manifest)

    if result.outcome is Outcome.BREAKING:
        return EXIT_BREAKING, manifest
    if result.outcome is Outcome.BLOWUP:
        return EXIT_BLOWUP, manifest
    return EXIT_OK, manifest


def cmd_run(args) -> int:
    from .config import load_config

    run_cfg = load_config(args.config, args.set or (), args.allow_low_nu)
    return _execute_run(run_cfg)[0]


def cmd_resume(args) -> int:
    from .config import load_config
    from .timestepper import checkpoint_read

    run_cfg = load_config(args.config, args.set or (), args.allow_low_nu)
    state = checkpoint_read(args.checkpoint)
    if state.u.grid != run_cfg.grid:
        raise ConfigError(
            f"checkpoint grid (L={state.u.grid.length}, N={state.u.grid.n_points}) "
            f"does not match the config grid"
        )
    return _execute_run(run_cfg, state)[0]


def _numbers(text, command, item, option) -> list:
    """The numbers of a comma-separated option value, blank items
    skipped; a non-number, a non-finite one or an empty list is a config
    error."""
    values = []
    for entry in filter(None, (part.strip() for part in text.split(","))):
        try:
            values.append(float(entry))
        except ValueError:
            raise ConfigError(f"{command} {item} {entry!r} is not a number") from None
        if not np.isfinite(values[-1]):
            raise ConfigError(f"{command} {item} {entry!r} is not finite")
    if not values:
        raise ConfigError(f"{command} needs a non-empty {option} list")
    return values


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"sweep --jobs must be >= 1, got {args.jobs}")
    from .config import apply_overrides, load_config, validate_config

    run_cfg = load_config(args.config, args.set or (), args.allow_low_nu)
    # point directories are named by value to 15 significant digits; values
    # that share a name would share a directory, so later ones are dropped
    points_by_name = {}
    for value in _numbers(args.values, "sweep", "value", "--values"):
        name = f"{args.axis}={value:.15g}"
        if name in points_by_name:
            print(f"warning: duplicate sweep value {value:.15g} ignored", file=sys.stderr)
        else:
            points_by_name[name] = value

    key = {"nu": "model.nu", "amplitude": "initial.amplitude"}[args.axis]
    base_raw = run_cfg.raw
    out_root = run_cfg.output.directory
    _make_output_dir(out_root)

    def one_point(name):
        value = points_by_name[name]
        point_dir = os.path.join(out_root, "sweep", name)
        try:
            raw = apply_overrides(
                base_raw,
                [f"{key}={value!r}", f"output.directory={point_dir}"],
            )
            cfg = validate_config(raw, allow_low_nu=args.allow_low_nu)
            with _quiet_numpy():
                code, manifest = _execute_run(cfg)
            return {
                "value": value,
                "directory": point_dir,
                "exit_code": code,
                "outcome": manifest["outcome"],
                "conserved_drift": manifest["conserved_drift"],
                "measured_phase_speed": manifest["measured_phase_speed"],
            }
        except FracwaveError as err:
            return {
                "value": value,
                "directory": point_dir,
                "exit_code": EXIT_USAGE,
                "outcome": "error",
                "error": str(err),
            }

    if args.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            points = list(pool.map(one_point, points_by_name))
    else:
        points = [one_point(name) for name in points_by_name]

    summary = {"axis": args.axis, "points": points}
    path = os.path.join(out_root, "sweep_summary.json")
    with _writing("sweep summary", path):
        write_manifest(path, summary, allow_nan=False)
    return EXIT_OK if all(p["exit_code"] == EXIT_OK for p in points) else EXIT_USAGE


# -- diagnose ----------------------------------------------------------------


def _write_report(path, payload) -> None:
    if path:
        with _writing("report", path):
            write_manifest(path, payload)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()


def _sample_spec(args):
    from .diagnostics import SampleSpec
    from .spectral import Grid

    return SampleSpec(
        n_samples=args.samples,
        grid=Grid(length=args.length, n_points=args.n),
        band_limit=args.band,
        amplitude=args.amplitude,
        seed=args.seed,
    )


def _diagnose_samples(args, spec, sample, refinements) -> int:
    """Report ``sample(spec)``; with --check-refinement, also run ``sample``
    once per ``{report key: spec change}`` entry, in order, and pass only
    if each refined sup ratio is within a factor two of the base one."""
    report = sample(spec)
    payload = report.to_dict()
    ok = True
    if args.check_refinement:
        refined = {key: sample(replace(spec, **change)).sup_ratio
                   for key, change in refinements.items()}
        payload["refinement"] = refined
        for sup in refined.values():
            lo, hi = sorted((report.sup_ratio, sup))
            ok = ok and not (lo <= 0 or hi / lo >= 2.0)
    payload["pass"] = bool(ok)
    _write_report(args.out, payload)
    return EXIT_OK if ok else EXIT_USAGE


def cmd_diagnose_commutator(args) -> int:
    from .diagnostics import commutator_estimate_sample

    spec = _sample_spec(args)
    return _diagnose_samples(
        args, spec,
        lambda sp: commutator_estimate_sample(args.m, args.s, args.sigma, args.nu, sp),
        {"grid_doubled_sup": {"grid": replace(spec.grid, n_points=2 * spec.grid.n_points)},
         "samples_doubled_sup": {"n_samples": 2 * spec.n_samples}},
    )


def cmd_diagnose_lipschitz(args) -> int:
    from .diagnostics import kato_lipschitz_sample

    spec = _sample_spec(args)
    return _diagnose_samples(
        args, spec,
        lambda sp: kato_lipschitz_sample(args.which, args.s, args.nu, sp),
        {"grid_doubled_sup": {"grid": replace(spec.grid, n_points=2 * spec.grid.n_points)}},
    )


def cmd_diagnose_dependence(args) -> int:
    from .config import build_initial, load_config
    from .diagnostics import continuous_dependence_experiment

    run_cfg = load_config(args.config, args.set or (), args.allow_low_nu)
    u0 = build_initial(run_cfg.initial, run_cfg.grid)
    reports = continuous_dependence_experiment(
        u0, _numbers(args.deltas, "dependence", "delta", "--deltas"), args.pairs,
        run_cfg.model, run_cfg.solver, args.s, seed=args.seed,
    )
    max_gs = [r.max_g for r in reports if r.g_values]
    ok = bool(max_gs) and all(np.isfinite(g) for g in max_gs)
    if ok and len(max_gs) > 1:
        ok = max(max_gs) / min(max_gs) < 2.0
    payload = {
        "estimate": "continuous-dependence",
        "reports": [r.to_dict() for r in reports],
        "pass": bool(ok),
    }
    _write_report(args.out, payload)
    return EXIT_OK if ok else EXIT_USAGE


def cmd_diagnose_convergence(args) -> int:
    from .config import build_initial, load_config
    from .diagnostics import StudyKind, convergence_study

    run_cfg = load_config(args.config, args.set or (), args.allow_low_nu)
    kind = StudyKind.from_string(args.kind)
    initial = lambda grid: build_initial(run_cfg.initial, grid).values
    result = convergence_study(
        kind,
        run_cfg.model,
        run_cfg.solver,
        initial,
        length=run_cfg.grid.length,
        n_points=run_cfg.grid.n_points,
    )
    errors = [e for _, e in result.rows]
    if kind is StudyKind.TEMPORAL:
        order = result.fitted_order
        ok = order is not None and abs(order - 4.0) <= 0.2
        miss = (f"fitted temporal order {order:.3f} is not 4 +- 0.2" if order is not None else
                f"fewer than two errors lie above the round-off floor "
                f"{result.reference['round_off_floor']:.3g}; no temporal order is fitted")
    else:
        # monotone decrease up to a round-off floor
        ok = all(
            e2 <= e1 or e2 <= 1e-11 for e1, e2 in zip(errors, errors[1:])
        )
        miss = f"{kind.value} errors do not decrease: {errors}"
    if not ok:
        print(f"convergence check failed: {miss}", file=sys.stderr)
    payload = result.to_dict()
    payload["pass"] = bool(ok)
    _write_report(args.out, payload)
    return EXIT_OK if ok else EXIT_USAGE


# -- argument parsing ----------------------------------------------------------


def _add_config_args(p):
    p.add_argument("--config", required=True, help="path to a JSON run configuration")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config entry, e.g. --set solver.dt=0.001",
    )
    p.add_argument(
        "--allow-low-nu",
        action="store_true",
        help="waive the nu >= 1 model constraint (accepts nu >= 1/2)",
    )


def _add_sampling_args(p, default_n=128):
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--n", type=int, default=default_n, help="grid points")
    p.add_argument("--length", type=float, default=2.0 * np.pi)
    p.add_argument("--band", type=int, default=20, help="sample band limit")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-refinement", action="store_true")
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracwave", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fracwave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate an initial-value problem")
    _add_config_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    _add_config_args(p_sweep)
    p_sweep.add_argument("--axis", choices=("nu", "amplitude"), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_resume = sub.add_parser("resume", help="continue from a checkpoint")
    _add_config_args(p_resume)
    p_resume.add_argument("--checkpoint", required=True)
    p_resume.set_defaults(func=cmd_resume)

    p_diag = sub.add_parser("diagnose", help="probe the analytic estimates")
    diag_sub = p_diag.add_subparsers(dest="subkind", required=True)

    p_comm = diag_sub.add_parser("commutator", help="commutator estimate ratios")
    p_comm.add_argument("--m", type=float, default=1.0)
    p_comm.add_argument("--s", type=float, default=2.0)
    p_comm.add_argument("--sigma", type=float, default=3.0)
    _add_sampling_args(p_comm)
    p_comm.set_defaults(func=cmd_diagnose_commutator)

    p_lip = diag_sub.add_parser("lipschitz", help="A/B/f Lipschitz ratios")
    p_lip.add_argument(
        "--which",
        default="a-lip",
        choices=("a-lip", "b-bound", "b-lip", "f-lip-x", "f-lip-y"),
    )
    p_lip.add_argument("--s", type=float, default=2.6)
    _add_sampling_args(p_lip)
    p_lip.set_defaults(func=cmd_diagnose_lipschitz)

    p_dep = diag_sub.add_parser("dependence", help="continuous-dependence growth")
    _add_config_args(p_dep)
    p_dep.add_argument("--deltas", default="1e-2,1e-3,1e-4")
    p_dep.add_argument("--pairs", type=int, default=10)
    p_dep.add_argument("--s", type=float, default=3.0)
    p_dep.add_argument("--seed", type=int, default=0)
    p_dep.add_argument("--out", default=None)
    p_dep.set_defaults(func=cmd_diagnose_dependence)

    p_conv = diag_sub.add_parser("convergence", help="convergence studies")
    _add_config_args(p_conv)
    p_conv.add_argument("--kind", choices=("spatial", "temporal", "box-size"), required=True)
    p_conv.add_argument("--out", default=None)
    p_conv.set_defaults(func=cmd_diagnose_convergence)

    return parser


def _keep_freed_heap() -> None:
    """glibc: keep what a step frees in the heap for the next step instead
    of unmapping or trimming it and faulting it in again.  The mmap
    threshold is glibc's own 64-bit cap on its dynamic one, the trim
    threshold twice that, as its dynamic rule keeps them.  A no-op where
    the C library has no ``mallopt``."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with _quiet_numpy():
            return args.func(args)
    except (CheckpointError, ParameterError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FracwaveError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    except BrokenPipeError as err:  # stdout's reader is gone: flush the rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {err.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
