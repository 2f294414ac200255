"""The benchmark's workloads: inputs made from a seed, the CLI invocations
of one round, and the checks of their outputs.

Every check compares the program's output with an independent computation
(numpy on the reloaded CSV snapshots, a closed-form solution) or with a
property the method must have.  None compares with stored output.

A round is the fixed list of invocations of a workload.  Sizes, step
counts and sample counts are the same for every seed, so every round of a
workload does the same amount of work; the seed only moves the data
(amplitudes, phases, wavenumbers, sampling seeds).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

MODELS = ("fch", "fbbm", "fkdv")
# Coefficients (c_adv, c_disp, c_evo) of the three models, written out here
# so the closed-form check does not read them from the package.
LINEAR_COEFFS = {"fch": (1.0, 0.75, 1.25), "fbbm": (1.0, 0.75, 1.25), "fkdv": (1.0, -0.5, 0.0)}
EPS = float(np.finfo(np.float64).eps)


@dataclass
class Invocation:
    label: str
    args: list            # fracwave CLI arguments
    outputs: list         # paths (relative to the round directory) it writes
    steps: bool = True    # whether it runs the time stepper


@dataclass
class RoundStats:
    steps: int = 0                # solver steps taken by the round
    items: int = 0                # trajectories completed plus estimate samples
    errors: list = field(default_factory=list)


def _integrator(kind: str) -> str:
    # fKdV must be asked for ifrk4: the config default is rk4 for every
    # model, which gives fKdV a tiny auto dt (see README, faults).
    return "ifrk4" if kind == "fkdv" else "rk4"


def run_config(kind, n, nu, mode, amplitude, phase, dt, t_end, out, snapshot_every=None):
    solver = {"t_end": t_end, "dt": dt, "integrator": _integrator(kind)}
    if snapshot_every is not None:
        solver["snapshot_every"] = snapshot_every
    return {
        "model": {"kind": kind, "nu": nu},
        "grid": {"L": 2.0 * math.pi, "N": n},
        "initial": {"kind": "mode", "k": mode, "amplitude": amplitude, "phase": phase},
        "solver": solver,
        "output": {"directory": out},
    }


def steps_for(t_end: float, dt: float) -> int:
    """Steps the solver takes for an explicit dt (it rounds up)."""
    return max(1, math.ceil(t_end / dt - 1e-9))


# -- reading outputs back --------------------------------------------------


def read_snapshot(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_run(directory, n, errors):
    """Manifest and snapshot arrays of one run directory; checks that every
    snapshot reloads with ``n`` finite rows."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    snaps = []
    for entry in manifest["snapshots"]:
        data = read_snapshot(os.path.join(directory, entry["file"]))
        if data.shape != (n, 2) or not np.isfinite(data).all():
            errors.append(f"{directory}/{entry['file']}: not {n} finite x,u rows")
        snaps.append(data)
    if manifest["outcome"] != "completed":
        errors.append(f"{directory}: outcome {manifest['outcome']}")
    return manifest, snaps


def spectrum(u: np.ndarray) -> np.ndarray:
    return np.fft.fft(u) / len(u)


def mass(u, length):
    return length * float(np.mean(u))


def momentum(u, length):
    return 0.5 * length * float(np.sum(np.abs(spectrum(u)) ** 2))


def fbbm_energy(u, length, nu, c_evo):
    n = len(u)
    k = 2.0 * np.pi / length * np.fft.fftfreq(n, d=1.0 / n)
    weight = 1.0 + c_evo * np.abs(k) ** (2.0 * nu)
    return 0.5 * length * float(np.sum(weight * np.abs(spectrum(u)) ** 2))


def _rel(a, b):
    return abs(b - a) / abs(a)


# -- workloads -------------------------------------------------------------


class SmallGrid:
    """fCH, fBBM and fKdV at N = 256 with nonlinear data over 2000 steps."""

    name = "small-grid"
    # Relative drift bounds for the conserved functionals: RK4/IFRK4
    # truncation at dt = 0.01 over 2000 steps.  Largest values seen over
    # the seed range: fBBM energy 1e-9, fKdV momentum 3e-7.
    ENERGY_REL = 1e-7
    MOMENTUM_REL = 1e-5

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.n = 32 if smoke else 256
        self.nu = 1.0
        self.dt = 0.01
        self.steps = 20 if smoke else 2000
        self.data = {
            kind: (rng.choice((1, 2)), rng.uniform(0.25, 0.35), rng.uniform(0.0, 2.0 * math.pi))
            for kind in MODELS
        }

    def configs(self):
        t_end = self.steps * self.dt
        return {
            f"{kind}.json": run_config(kind, self.n, self.nu, k, a, ph, self.dt, t_end,
                                       kind, snapshot_every=t_end / 4)
            for kind, (k, a, ph) in self.data.items()
        }

    def invocations(self):
        return [Invocation(kind, ["run", "--config", f"{kind}.json"], [kind]) for kind in MODELS]

    def check(self, rdir) -> RoundStats:
        stats = RoundStats()
        length = 2.0 * math.pi
        for kind, (_, amp, _) in self.data.items():
            manifest, snaps = load_run(os.path.join(rdir, kind), self.n, stats.errors)
            if manifest["steps"] != self.steps:
                stats.errors.append(f"{kind}: {manifest['steps']} steps, expected {self.steps}")
            stats.steps += manifest["steps"]
            stats.items += 1
            u0, ut = snaps[0][:, 1], snaps[-1][:, 1]
            # mass is conserved exactly by the scheme: allow round-off only,
            # one unit of eps * L * amplitude per step
            mass_tol = self.steps * EPS * length * amp
            drift = abs(mass(ut, length) - mass(u0, length))
            if not drift <= mass_tol:
                stats.errors.append(f"{kind}: mass drift {drift:.3e} > {mass_tol:.3e}")
            if kind == "fbbm":
                c_evo = LINEAR_COEFFS[kind][2]
                rel = _rel(fbbm_energy(u0, length, self.nu, c_evo),
                           fbbm_energy(ut, length, self.nu, c_evo))
                if not rel <= self.ENERGY_REL:
                    stats.errors.append(f"fbbm: energy drift {rel:.3e} > {self.ENERGY_REL}")
            if kind == "fkdv":
                rel = _rel(momentum(u0, length), momentum(ut, length))
                if not rel <= self.MOMENTUM_REL:
                    stats.errors.append(f"fkdv: momentum drift {rel:.3e} > {self.MOMENTUM_REL}")
        return stats


class LargeGrid:
    """The three models at N = 65536 in the linear regime, 20 steps each."""

    name = "large-grid"
    # Error budget, relative to the amplitude A <= 1e-8: nonlinear
    # self-interaction A k t < 1e-8; RK4 phase error (omega dt)^4 omega t
    # / 120 < 1e-10; rounding of the fKdV phase k c(k) t (up to 4e7 rad)
    # about 1e-8.
    TOL = 1e-6

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.n = 256 if smoke else 65536
        self.nu = 1.5
        self.dt = 5e-5
        self.steps = 4 if smoke else 20
        top = 40 if smoke else 512
        self.data = {
            kind: (rng.randint(top // 8, top), 10.0 ** rng.uniform(-9.0, -8.0),
                   rng.uniform(0.0, 2.0 * math.pi))
            for kind in MODELS
        }

    def configs(self):
        return {
            f"{kind}.json": run_config(kind, self.n, self.nu, k, a, ph, self.dt,
                                       self.steps * self.dt, kind)
            for kind, (k, a, ph) in self.data.items()
        }

    def invocations(self):
        return [Invocation(kind, ["run", "--config", f"{kind}.json"], [kind]) for kind in MODELS]

    def check(self, rdir) -> RoundStats:
        stats = RoundStats()
        t = self.steps * self.dt
        for kind, (k, amp, phase) in self.data.items():
            manifest, snaps = load_run(os.path.join(rdir, kind), self.n, stats.errors)
            if manifest["steps"] != self.steps or len(snaps) != 2:
                stats.errors.append(f"{kind}: {manifest['steps']} steps and {len(snaps)} "
                                    f"snapshots, expected {self.steps} and 2")
            stats.steps += manifest["steps"]
            stats.items += 1
            c_adv, c_disp, c_evo = LINEAR_COEFFS[kind]
            big_k = float(k) ** (2.0 * self.nu)
            speed = (c_adv + c_disp * big_k) / (1.0 + c_evo * big_k)
            x, u = snaps[-1][:, 0], snaps[-1][:, 1]
            exact = amp * np.sin(k * x - k * speed * t + phase)
            err = float(np.abs(u - exact).max()) / amp
            if not err <= self.TOL:
                stats.errors.append(f"{kind}: travelling-wave error {err:.3e} A > {self.TOL} A")
        return stats


class SnapshotIO:
    """fCH at N = 4096 with a snapshot every step, straight and resumed."""

    name = "snapshot-io"

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.n = 64 if smoke else 4096
        self.dt = 5e-4
        self.steps = 6 if smoke else 100
        self.half = self.steps // 2
        self.data = (rng.randint(1, 4), rng.uniform(0.2, 0.35), rng.uniform(0.0, 2.0 * math.pi))

    def _cfg(self, steps, out):
        k, a, ph = self.data
        return run_config("fch", self.n, 1.0, k, a, ph, self.dt, steps * self.dt, out,
                          snapshot_every=self.dt)

    def configs(self):
        return {
            "straight.json": self._cfg(self.steps, "straight"),
            "half.json": self._cfg(self.half, "half"),
            "resumed.json": self._cfg(self.steps, "resumed"),
        }

    def invocations(self):
        return [
            Invocation("straight", ["run", "--config", "straight.json"], ["straight"]),
            Invocation("half", ["run", "--config", "half.json"], ["half"]),
            Invocation("resume", ["resume", "--config", "resumed.json",
                                  "--checkpoint", os.path.join("half", "checkpoint.fwck")],
                       ["resumed"]),
        ]

    def check(self, rdir) -> RoundStats:
        stats = RoundStats()
        runs = {}
        for name, start, end in (("straight", 0, self.steps), ("half", 0, self.half),
                                 ("resumed", self.half, self.steps)):
            manifest, snaps = load_run(os.path.join(rdir, name), self.n, stats.errors)
            runs[name] = snaps
            taken = manifest["steps"] - start
            if manifest["steps"] != end or len(snaps) != taken + 1:
                stats.errors.append(f"{name}: {len(snaps)} snapshots for {taken} steps "
                                    f"(steps {manifest['steps']}, expected {end})")
            stats.steps += taken
            stats.items += 1
        for a, b, what in ((runs["straight"][-1], runs["resumed"][-1], "final state"),
                           (runs["half"][-1], runs["resumed"][0], "resumed start")):
            if a.tobytes() != b.tobytes():
                stats.errors.append(f"resumed {what} differs from the straight run's")
        return stats


class Diagnose:
    """The estimate probes with sample and pair counts raised."""

    name = "diagnose"
    DELTAS = (1e-2, 1e-3, 1e-4)
    # G >= 1 holds exactly at t = 0; the computed ratio there differs from 1
    # by the cancellation in (u0 + delta p) - u0, about eps |u0| / delta.
    G_FLOOR = 1.0 - 1e-8

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(4)]
        self.samples = {"commutator": 10, "a-lip": 10, "b-lip": 5} if smoke else \
                       {"commutator": 600, "a-lip": 600, "b-lip": 300}
        self.pairs = 2 if smoke else 16
        self.n = 32 if smoke else 64
        self.dt = 0.01
        self.t_end = 0.05 if smoke else 0.5
        self.mode = (rng.choice((1, 2)), rng.uniform(0.1, 0.3), rng.uniform(0.0, 2.0 * math.pi))

    def configs(self):
        k, a, ph = self.mode
        return {"dependence.json": run_config("fch", self.n, 1.0, k, a, ph, self.dt,
                                              self.t_end, "dependence")}

    def invocations(self):
        s = self.seeds
        return [
            Invocation("commutator", ["diagnose", "commutator", "--check-refinement",
                                      "--samples", str(self.samples["commutator"]),
                                      "--seed", str(s[0]), "--out", "commutator.json"],
                       ["commutator.json"], steps=False),
            Invocation("a-lip", ["diagnose", "lipschitz", "--which", "a-lip",
                                 "--samples", str(self.samples["a-lip"]),
                                 "--seed", str(s[1]), "--out", "a-lip.json"],
                       ["a-lip.json"], steps=False),
            Invocation("b-lip", ["diagnose", "lipschitz", "--which", "b-lip",
                                 "--samples", str(self.samples["b-lip"]),
                                 "--seed", str(s[2]), "--out", "b-lip.json"],
                       ["b-lip.json"], steps=False),
            Invocation("dependence", ["diagnose", "dependence", "--config", "dependence.json",
                                      "--deltas", ",".join(map(repr, self.DELTAS)),
                                      "--pairs", str(self.pairs), "--seed", str(s[3]),
                                      "--out", "dependence-report.json"],
                       ["dependence-report.json"]),
        ]

    def check(self, rdir) -> RoundStats:
        stats = RoundStats()
        err = stats.errors
        for name, n in self.samples.items():
            with open(os.path.join(rdir, f"{name}.json")) as fh:
                report = json.load(fh)
            ratios = np.asarray(report["ratios"], dtype=float)
            if not (np.isfinite(ratios).all() and (ratios > 0).all()):
                err.append(f"{name}: a ratio is not finite and positive")
            if report["n_ratios"] != len(ratios) or \
                    report["n_ratios"] + report["skipped_zero_denominator"] != n:
                err.append(f"{name}: n_ratios + skipped != {n} samples")
            if not report["pass"]:
                err.append(f"{name}: report does not pass")
            stats.items += n
            if name == "commutator":
                sup = float(ratios.max())
                refined = report["refinement"]
                for key in ("grid_doubled_sup", "samples_doubled_sup"):
                    lo, hi = sorted((sup, refined[key]))
                    if not (lo > 0 and hi / lo < 2.0):
                        err.append(f"commutator: {key} {refined[key]} not within 2x of {sup}")
                # refinement draws n samples on a doubled grid and 2n samples
                stats.items += 3 * n
        with open(os.path.join(rdir, "dependence-report.json")) as fh:
            report = json.load(fh)
        max_gs = []
        for r in report["reports"]:
            g = np.asarray(r["g_values"], dtype=float)
            if r["censored"] != 0 or len(g) != self.pairs:
                err.append(f"dependence delta={r['delta']}: {r['censored']} pairs censored")
            if not (len(g) and np.isfinite(g).all() and (g >= self.G_FLOOR).all()):
                err.append(f"dependence delta={r['delta']}: a G below 1 or not finite")
            max_gs.append(float(g.max()) if len(g) else math.nan)
        if len(max_gs) != len(self.DELTAS) or not max(max_gs) / min(max_gs) < 2.0:
            err.append(f"dependence: max G varies 2x or more across deltas: {max_gs}")
        if not report["pass"]:
            err.append("dependence: report does not pass")
        trajectories = len(self.DELTAS) * (self.pairs + 1)
        stats.items += trajectories
        stats.steps += trajectories * steps_for(self.t_end, self.dt)
        return stats


WORKLOADS = {w.name: w for w in (SmallGrid, LargeGrid, SnapshotIO, Diagnose)}
