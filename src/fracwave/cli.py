"""Command-line front end: runs, sweeps, diagnostics, resume.

Exit codes are a stable contract:

    0  success
    1  usage or configuration error
    2  run halted on a wave-breaking report
    3  run hit a blow-up (non-finite values)

Every run directory receives snapshot CSVs, a final checkpoint, and a
manifest.json that is written even when the run ends early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    apply_overrides,
    build_initial,
    validate_config,
    write_manifest,
    write_snapshot,
)
from .diagnostics import (
    SampleSpec,
    StudyKind,
    commutator_estimate_sample,
    continuous_dependence_experiment,
    convergence_study,
    kato_lipschitz_sample,
    measure_phase_speed,
)
from .errors import CheckpointError, ConfigError, FracwaveError, ParameterError
from .models import fbbm_energy, mass, momentum
from .spectral import Grid
from .timestepper import Outcome, checkpoint_read, checkpoint_write, integrate

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


class _SnapshotWriter:
    def __init__(self, directory):
        self.directory = directory
        self.entries = []
        self.times = []
        self.fields = []
        self.mass = []
        self.momentum = []
        self.energy = []
        self._model = None

    def bind(self, model):
        self._model = model
        return self

    def __call__(self, t, u):
        name = f"snap_{len(self.entries):06d}.csv"
        write_snapshot(os.path.join(self.directory, name), u)
        self.entries.append({"t": t, "file": name})
        self.times.append(t)
        self.fields.append(u)
        self.mass.append(mass(u))
        self.momentum.append(momentum(u))
        self.energy.append(fbbm_energy(u, self._model))


# A mass below this fraction of L * max|u0| is round-off (a zero-mean
# run), far above the few-eps error of the computed mean and far below any
# mean set on purpose; a drift relative to it would be noise.
_MASS_ROUNDOFF = 1e-12


def _drift(series, floor=0.0):
    """Initial, final and drift of a conserved series.  ``drift_rel`` is
    null when the initial value is within ``floor`` of zero."""
    if len(series) < 2:
        return {"initial": series[0] if series else None, "final": None,
                "drift_abs": None, "drift_rel": None}
    q0, qt = series[0], series[-1]
    abs_d = abs(qt - q0)
    return {
        "initial": q0,
        "final": qt,
        "drift_abs": abs_d,
        "drift_rel": abs_d / abs(q0) if abs(q0) > floor else None,
    }


def _execute_run(run_cfg: RunConfig, out_dir: str, start_state=None) -> int:
    """Shared driver for run, resume, and sweep points."""
    os.makedirs(out_dir, exist_ok=True)
    sink = _SnapshotWriter(out_dir).bind(run_cfg.model)
    if start_state is None:
        u0 = build_initial(run_cfg.initial, run_cfg.grid)
        result = integrate(u0, run_cfg.model, run_cfg.solver, sink=sink)
    else:
        result = integrate(
            start_state.u, run_cfg.model, run_cfg.solver, sink=sink, start=start_state
        )
    checkpoint_write(result.state, os.path.join(out_dir, "checkpoint.fwck"))

    phase_speed = None
    if run_cfg.initial.kind == "mode" and len(sink.fields) >= 2:
        try:
            phase_speed = measure_phase_speed(
                sink.times, sink.fields, run_cfg.initial.params["k"]
            )
        except ParameterError:
            phase_speed = None

    first = sink.fields[0]  # integrate always hands the sink its first state
    mass_floor = _MASS_ROUNDOFF * first.grid.length * float(np.abs(first.values).max())
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
    if run_cfg.output.manifest:
        write_manifest(os.path.join(out_dir, "manifest.json"), manifest)

    if result.outcome is Outcome.BREAKING:
        return EXIT_BREAKING
    if result.outcome is Outcome.BLOWUP:
        return EXIT_BLOWUP
    return EXIT_OK


def _load_with_overrides(args) -> RunConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {args.config}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {args.config} is not valid JSON: {err}") from None
    raw = apply_overrides(raw, args.set or [])
    return validate_config(raw, allow_low_nu=args.allow_low_nu)


def cmd_run(args) -> int:
    run_cfg = _load_with_overrides(args)
    return _execute_run(run_cfg, run_cfg.output.directory)


def cmd_resume(args) -> int:
    run_cfg = _load_with_overrides(args)
    state = checkpoint_read(args.checkpoint)
    if state.u.grid != run_cfg.grid:
        raise ConfigError(
            f"checkpoint grid (L={state.u.grid.length}, N={state.u.grid.n_points}) "
            f"does not match the config grid"
        )
    return _execute_run(run_cfg, run_cfg.output.directory, start_state=state)


def cmd_sweep(args) -> int:
    run_cfg = _load_with_overrides(args)  # validates the base config
    values = []
    for item in args.values.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            values.append(float(item))
        except ValueError:
            raise ConfigError(f"sweep value {item!r} is not a number") from None
    if not values:
        raise ConfigError("sweep needs a non-empty --values list")
    deduped = []
    for v in values:
        if v in deduped:
            print(f"warning: duplicate sweep value {v:g} ignored", file=sys.stderr)
        else:
            deduped.append(v)

    key = {"nu": "model.nu", "amplitude": "initial.amplitude"}[args.axis]
    base_raw = run_cfg.raw
    out_root = run_cfg.output.directory

    def one_point(value):
        point_dir = os.path.join(out_root, "sweep", f"{args.axis}={value:g}")
        try:
            raw = apply_overrides(
                base_raw,
                [f"{key}={value!r}", f"output.directory={point_dir}"],
            )
            cfg = validate_config(raw, allow_low_nu=args.allow_low_nu)
            code = _execute_run(cfg, point_dir)
            manifest_path = os.path.join(point_dir, "manifest.json")
            manifest = {}
            if os.path.exists(manifest_path):
                with open(manifest_path) as fh:
                    manifest = json.load(fh)
            return {
                "value": value,
                "directory": point_dir,
                "exit_code": code,
                "outcome": manifest.get("outcome"),
                "conserved_drift": manifest.get("conserved_drift"),
                "measured_phase_speed": manifest.get("measured_phase_speed"),
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
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            points = list(pool.map(one_point, deduped))
    else:
        points = [one_point(v) for v in deduped]

    os.makedirs(out_root, exist_ok=True)
    summary = {"axis": args.axis, "points": points}
    write_manifest(os.path.join(out_root, "sweep_summary.json"), summary)
    return EXIT_OK if all(p["exit_code"] == EXIT_OK for p in points) else EXIT_USAGE


# -- diagnose ----------------------------------------------------------------


def _write_report(path, payload) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _sample_spec(args) -> SampleSpec:
    return SampleSpec(
        n_samples=args.samples,
        grid=Grid(length=args.length, n_points=args.n),
        band_limit=args.band,
        amplitude=args.amplitude,
        seed=args.seed,
    )


def _refinement_ok(base_sup, refined_sups) -> bool:
    for sup in refined_sups:
        lo, hi = sorted((base_sup, sup))
        if lo <= 0 or hi / lo >= 2.0:
            return False
    return True


def cmd_diagnose_commutator(args) -> int:
    spec = _sample_spec(args)
    report = commutator_estimate_sample(args.m, args.s, args.sigma, args.nu, spec)
    payload = report.to_dict()
    ok = np.isfinite(report.sup_ratio)
    if args.check_refinement:
        finer_grid = Grid(spec.grid.length, 2 * spec.grid.n_points)
        refined = [
            commutator_estimate_sample(
                args.m, args.s, args.sigma, args.nu, replace(spec, grid=finer_grid)
            ),
            commutator_estimate_sample(
                args.m, args.s, args.sigma, args.nu,
                replace(spec, n_samples=2 * spec.n_samples),
            ),
        ]
        payload["refinement"] = {
            "grid_doubled_sup": refined[0].sup_ratio,
            "samples_doubled_sup": refined[1].sup_ratio,
        }
        ok = ok and _refinement_ok(report.sup_ratio, [r.sup_ratio for r in refined])
    payload["pass"] = bool(ok)
    _write_report(args.out, payload)
    return EXIT_OK if ok else EXIT_USAGE


def cmd_diagnose_lipschitz(args) -> int:
    spec = _sample_spec(args)
    report = kato_lipschitz_sample(args.which, args.s, args.nu, spec)
    payload = report.to_dict()
    ok = np.isfinite(report.sup_ratio)
    if args.check_refinement:
        finer = replace(spec, grid=Grid(spec.grid.length, 2 * spec.grid.n_points))
        refined = kato_lipschitz_sample(args.which, args.s, args.nu, finer)
        payload["refinement"] = {"grid_doubled_sup": refined.sup_ratio}
        ok = ok and _refinement_ok(report.sup_ratio, [refined.sup_ratio])
    payload["pass"] = bool(ok)
    _write_report(args.out, payload)
    return EXIT_OK if ok else EXIT_USAGE


def cmd_diagnose_dependence(args) -> int:
    run_cfg = _load_with_overrides(args)
    u0 = build_initial(run_cfg.initial, run_cfg.grid)
    deltas = [float(d) for d in args.deltas.split(",") if d.strip()]
    if not deltas:
        raise ConfigError("dependence needs a non-empty --deltas list")
    reports = [
        continuous_dependence_experiment(
            u0, d, args.pairs, run_cfg.model, run_cfg.solver, args.s, seed=args.seed
        )
        for d in deltas
    ]
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
    run_cfg = _load_with_overrides(args)
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
        ok = result.fitted_order is not None and abs(result.fitted_order - 4.0) <= 0.2
    else:
        # monotone decrease up to a round-off floor
        ok = all(
            e2 <= e1 or e2 <= 1e-11 for e1, e2 in zip(errors, errors[1:])
        )
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, ParameterError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FracwaveError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
