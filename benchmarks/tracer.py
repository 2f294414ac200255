"""Span recording around fracwave's public functions, and the layer metrics
computed from the spans.

The tracer lives in the benchmark, not in the package: it replaces each
traced function by a wrapper in every fracwave module that refers to it
(the defining module and each module that imported the name), so calls
made through any of those names are recorded.  A traced name that a later
change removes or renames is listed as absent; its metrics then read 0
and nothing else breaks.

A span is (name, start, end, parent).  Spans are kept in memory while the
program runs and written out once, at the end, as one ``.npz`` file plus
the counters recorded at the same boundaries.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

# Layer -> public functions whose calls are recorded.  ``_slope_stats`` is
# private, but it is the per-step breaking check, so it is wrapped too.
TRACED = {
    "spectral": (
        "coeffs_of", "values_of", "forward_transform", "inverse_transform",
        "apply_symbol", "dealias", "derivative", "sobolev_norm", "inner_product",
    ),
    "operators": (
        "as_order", "laplacian_symbol", "lambda_symbol", "masked_product",
        "fractional_laplacian", "lambda_pow", "helmholtz_inverse",
        "commutator_apply", "apply_A", "apply_B", "apply_f",
    ),
    "models": (
        "rhs_fch", "rhs_fkdv", "rhs_fbbm", "rhs_linearized",
        "rhs_quasilinear_normalized", "make_rhs", "dispersion_speed",
        "mass", "momentum", "fbbm_energy",
    ),
    "timestepper": (
        "rk4_step", "ifrk4_step", "auto_dt", "resolve_dt", "integrate",
        "detect_breaking", "_slope_stats", "checkpoint_write", "checkpoint_read",
    ),
    "config": (
        "validate_config", "apply_overrides", "build_initial", "write_snapshot",
        "read_snapshot", "write_manifest",
    ),
    "diagnostics": (
        "random_band_limited", "commutator_estimate_sample", "kato_lipschitz_sample",
        "continuous_dependence_experiment", "convergence_study", "measure_phase_speed",
    ),
    "cli": (
        "cmd_run", "cmd_resume", "cmd_sweep", "cmd_diagnose_commutator",
        "cmd_diagnose_lipschitz", "cmd_diagnose_dependence", "cmd_diagnose_convergence",
    ),
}

TRANSFORMS = ("spectral.coeffs_of", "spectral.values_of")
SYMBOLS = ("operators.laplacian_symbol", "operators.lambda_symbol")
RHS = ("models.rhs_fch", "models.rhs_fkdv", "models.rhs_fbbm", "models.rhs_linearized",
       "models.rhs_quasilinear_normalized")
FUNCTIONALS = ("models.mass", "models.momentum", "models.fbbm_energy")
STEPS = ("timestepper.rk4_step", "timestepper.ifrk4_step")
DETECTOR = ("timestepper._slope_stats", "timestepper.detect_breaking")
SAMPLERS = ("diagnostics.commutator_estimate_sample", "diagnostics.kato_lipschitz_sample")
ROOT = "cli.main"


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, kwargs,
        result)`` may add counters once the call has returned."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every traced function of ``package`` (the fracwave package)
        wherever a fracwave module refers to it."""
        modules = [package] + [getattr(package, m, None) for m in TRACED]
        modules = [m for m in modules if m is not None]
        after = self._counting_hooks()
        for layer, names in TRACED.items():
            owner = getattr(package, layer, None)
            for name in names:
                fn = getattr(owner, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapped = self.span(f"{layer}.{name}", fn, after.get(f"{layer}.{name}"))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapped)
        # the CLI's snapshot sink is a private class; wrapped like _slope_stats
        sink_cls = getattr(getattr(package, "cli", None), "_SnapshotWriter", None)
        if sink_cls is None:
            self.absent.append("cli._SnapshotWriter")
        else:
            sink_cls.__call__ = self.span("cli.sink", sink_cls.__call__)
        field_cls = getattr(getattr(package, "spectral", None), "RealField", None)
        post_init = getattr(field_cls, "__post_init__", None)
        if post_init is None:
            self.absent.append("spectral.RealField")
        else:
            def counted(obj, _orig=post_init):
                self.count("fields_built")
                return _orig(obj)

            field_cls.__post_init__ = counted

    def _counting_hooks(self) -> dict:
        def transform_bytes(args, kwargs, result):
            self.count("transform_bytes", np.asarray(args[0]).nbytes + result.nbytes)

        def file_size(key, index):
            def hook(args, kwargs, result):
                self.count(key, _file_bytes(args[index] if len(args) > index else ""))
            return hook

        def samples(args, kwargs, result):
            self.count("samples", kwargs.get("spec", args[-1]).n_samples)

        hooks = {name: transform_bytes for name in TRANSFORMS}
        hooks["timestepper.checkpoint_write"] = file_size("checkpoint_bytes", 1)
        hooks["config.write_snapshot"] = file_size("snapshot_bytes", 0)
        for name in SAMPLERS:
            hooks[name] = samples
        return hooks

    def dump(self, path) -> None:
        np.savez(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            parent=np.asarray(self.parent, dtype=np.int32),
            meta=np.asarray(json.dumps({
                "names": self.names, "counters": self.counters, "absent": self.absent,
            })),
        )


# -- reading spans back -------------------------------------------------------


class Spans:
    """Spans of one traced process, with self times computed from them."""

    def __init__(self, name_id, start, end, parent, names, counters=None, absent=()):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.counters = dict(counters or {})
        self.absent = list(absent)
        # self time = duration minus the time covered by direct children
        child_time = np.zeros_like(self.duration)
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child_time

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            return cls(z["name_id"], z["start"], z["end"], z["parent"],
                       meta["names"], meta["counters"], meta["absent"])

    def mask(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name_id, ids)

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
        return np.isin(self.name_id, ids)

    def count(self, names) -> int:
        return int(self.mask(names).sum())

    def total(self, names) -> float:
        return float(self.duration[self.mask(names)].sum())

    def self_total(self, mask) -> float:
        return float(self.self_time[mask].sum())

    def durations(self, names) -> np.ndarray:
        return self.duration[self.mask(names)]

    def children_of(self, parent_names, child_names) -> int:
        parents = np.flatnonzero(self.mask(parent_names))
        return int((self.mask(child_names) & np.isin(self.parent, parents)).sum())


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rounds) -> dict:
    """Per-layer metrics from traced rounds.

    ``rounds`` is a list of rounds, each a list of ``Spans`` (one per
    traced invocation).  Counts and summed times are taken per round and
    reported as the median over rounds; percentiles pool every span of
    every round.
    """
    per_round = []
    pooled: dict[str, list] = {}

    def pool(key, values):
        pooled.setdefault(key, []).extend(np.asarray(values, dtype=float).tolist())

    for spans_list in rounds:
        if not spans_list:
            continue
        m: dict[str, float] = {}

        def add(key, value):
            m[key] = m.get(key, 0.0) + value

        for s in spans_list:
            c = s.counters
            add("spectral.transform_calls", s.count(TRANSFORMS))
            add("spectral.transform_self_s", s.self_total(s.mask(TRANSFORMS)))
            add("spectral.transform_mb_computed", c.get("transform_bytes", 0) / 1e6)
            add("spectral.fields_built", c.get("fields_built", 0))
            add("spectral.sobolev_norm_calls", s.count(("spectral.sobolev_norm",)))
            add("operators.calls", int(s.layer_mask("operators").sum()))
            add("operators.self_s", s.self_total(s.layer_mask("operators")))
            add("operators.symbol_builds", s.count(SYMBOLS))
            add("models.rhs_calls", s.count(RHS))
            add("models.rhs_self_s", s.self_total(s.mask(RHS)))
            add("models.functional_calls", s.count(FUNCTIONALS))
            add("models.functional_self_s", s.self_total(s.mask(FUNCTIONALS)))
            add("timestepper.steps", s.count(STEPS))
            add("timestepper.step_self_s", s.self_total(s.mask(STEPS)))
            add("timestepper.detector_calls", s.count(DETECTOR))
            add("timestepper.detector_self_s", s.self_total(s.mask(DETECTOR)))
            add("timestepper.checkpoint_bytes", c.get("checkpoint_bytes", 0))
            add("config.snapshot_writes", s.count(("config.write_snapshot",)))
            add("config.snapshot_self_s", s.self_total(s.mask(("config.write_snapshot",))))
            add("config.snapshot_bytes", c.get("snapshot_bytes", 0))
            add("cli.sink_self_s", s.self_total(s.mask(("cli.sink",))))
            add("cli.command_s", s.total((ROOT,)))
            add("diagnostics.samples", c.get("samples", 0))
            add("diagnostics.trajectories", s.children_of(
                ("diagnostics.continuous_dependence_experiment",), ("timestepper.integrate",)))
            add("diagnostics.self_s", s.self_total(s.layer_mask("diagnostics")))
            add("_checkpoint_writes", s.count(("timestepper.checkpoint_write",)))

            pool("transform_us", s.durations(TRANSFORMS) * 1e6)
            pool("rhs_us", s.durations(RHS) * 1e6)
            pool("step_us", s.durations(STEPS) * 1e6)
            pool("checkpoint_write_ms", s.durations(("timestepper.checkpoint_write",)) * 1e3)
            pool("checkpoint_read_ms", s.durations(("timestepper.checkpoint_read",)) * 1e3)
            pool("validate_ms", s.durations(("config.validate_config",)) * 1e3)
            pool("snapshot_ms", s.durations(("config.write_snapshot",)) * 1e3)
            pool("manifest_ms", s.durations(("config.write_manifest",)) * 1e3)
            sampler = s.durations(SAMPLERS)
            if len(sampler) and c.get("samples"):
                # mean time per sample over the invocation's sampler calls
                pool("sample_us", [sampler.sum() * 1e6 / c["samples"]])
        writes = m.pop("_checkpoint_writes")
        m["timestepper.checkpoint_bytes"] = (
            m["timestepper.checkpoint_bytes"] / writes if writes else 0.0)
        steps = m["timestepper.steps"]
        m["timestepper.rhs_per_step"] = m["models.rhs_calls"] / steps if steps else 0.0
        per_round.append(m)

    if not per_round:
        return {}
    out = {key: float(np.median([m[key] for m in per_round])) for key in per_round[0]}
    out["spectral.transform_us_p50"] = _pct(pooled.get("transform_us", []), 50)
    out["models.rhs_us_p50"] = _pct(pooled.get("rhs_us", []), 50)
    out["timestepper.step_us_p50"] = _pct(pooled.get("step_us", []), 50)
    out["timestepper.step_us_p99"] = _pct(pooled.get("step_us", []), 99)
    out["timestepper.checkpoint_write_ms"] = _pct(pooled.get("checkpoint_write_ms", []), 50)
    out["timestepper.checkpoint_read_ms"] = _pct(pooled.get("checkpoint_read_ms", []), 50)
    out["config.validate_ms"] = _pct(pooled.get("validate_ms", []), 50)
    out["config.snapshot_ms_p50"] = _pct(pooled.get("snapshot_ms", []), 50)
    out["config.manifest_ms"] = _pct(pooled.get("manifest_ms", []), 50)
    out["diagnostics.sample_us_p50"] = _pct(pooled.get("sample_us", []), 50)
    return out
