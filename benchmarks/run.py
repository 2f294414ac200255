#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fracwave CLI.

    python3 benchmarks/run.py --workload small-grid --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is taken from its
``src`` directory.  The benchmark makes the workload's configs from
``--seed``, times the fresh-interpreter set-up, then repeats whole rounds
of ``fracwave`` CLI invocations (one process at a time) for ``--seconds``
seconds, checking every round's outputs.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (counted in
invocations) and ``metrics``, each with its unit.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, from
untraced invocations only.  ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics from the traced ones, plus the
tracing overhead.  ``--smoke`` runs one round (two with tracing) at tiny
sizes, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_REPEATS = 7
INVOCATION_TIMEOUT_S = 120.0
# numpy reaches OpenBLAS (np.polyfit); keep every child single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Finished:
    wall: float
    returncode: int
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(cmd, cwd, log_path, env) -> Finished:
    """Run one child to its end; wall time, exit code and peak RSS."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def environment() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "fft_backend": ("numpy.fft (pocketfft)"
                        if importlib.util.find_spec("numpy.fft._pocketfft_umath") else "numpy.fft"),
    }
    try:
        info["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        info["scipy"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu"] = names[0] if names else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            parts = [open(os.path.join(base, index, f)).read().strip()
                     for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{parts[0]} {parts[1]}"] = parts[2]
    info["caches"] = caches
    return info


class Bench:
    def __init__(self, workload, trace: bool, smoke: bool, tmp: str):
        self.wl = workload
        self.trace = trace
        self.smoke = smoke
        self.tmp = tmp
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.absent: set[str] = set()
        self.rounds: list[dict] = []

    def setup_seconds(self) -> float:
        """Median fresh-interpreter set-up time over several probes."""
        sdir = os.path.join(self.tmp, "setup")
        os.makedirs(sdir)
        paths = []
        for name, cfg in self.wl.configs().items():
            paths.append(os.path.join(sdir, name))
            with open(paths[-1], "w") as fh:
                json.dump(cfg, fh)
        cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), *paths]
        times = []
        # the first probe warms the page cache and bytecode files
        for i in range(1 + (1 if self.smoke else SETUP_REPEATS)):
            out = subprocess.run(cmd, cwd=sdir, env=self.env, capture_output=True, text=True,
                                 timeout=INVOCATION_TIMEOUT_S)
            if out.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{out.stdout}{out.stderr}")
            if i:
                times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
        return statistics.median(times)

    def one_round(self, index: int, traced: bool) -> None:
        rdir = os.path.join(self.tmp, f"round{index}")
        os.makedirs(rdir)
        for name, cfg in self.wl.configs().items():
            with open(os.path.join(rdir, name), "w") as fh:
                json.dump(cfg, fh)
        record = {"traced": traced, "wall": 0.0, "step_wall": 0.0, "rss_mb": 0.0,
                  "bytes": 0, "walls": [], "spans": [], "stats": None}
        span_files = []
        failed_before = self.failed
        for j, inv in enumerate(self.wl.invocations()):
            if traced:
                span_files.append(os.path.join(self.tmp, f"spans{index}_{j}.npz"))
                cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), span_files[-1],
                       *inv.args]
            else:
                cmd = [sys.executable, "-m", "fracwave", *inv.args]
            log = os.path.join(rdir, "invocations.log")
            done = spawn(cmd, rdir, log, self.env)
            self.attempted += 1
            if done.returncode != 0:
                self.failed += 1
                with open(log, errors="replace") as fh:
                    tail = fh.read()[-2000:]
                print(f"{self.wl.name}: {inv.label} exited {done.returncode}\n{tail}",
                      file=sys.stderr)
            record["wall"] += done.wall
            record["walls"].append(done.wall)
            record["step_wall"] += done.wall if inv.steps else 0.0
            record["rss_mb"] = max(record["rss_mb"], done.rss_mb)
            record["bytes"] += sum(_size(os.path.join(rdir, p)) for p in inv.outputs)
        if self.failed == failed_before:
            try:
                record["stats"] = self.wl.check(rdir)
                self.errors.extend(record["stats"].errors)
            except (OSError, KeyError, ValueError, IndexError, TypeError) as err:
                self.errors.append(f"outputs unreadable: {err!r}")
        if traced:
            from tracer import Spans
            record["spans"] = [Spans.load(p) for p in span_files if os.path.exists(p)]
            for s in record["spans"]:
                self.absent.update(s.absent)
        shutil.rmtree(rdir)
        self.rounds.append(record)

    def run(self, seconds: float) -> None:
        """Whole rounds until the invocations have run for ``seconds``
        (checking outputs does not count)."""
        need = 2 if self.trace else 1
        i = 0
        while True:
            self.one_round(i, traced=self.trace and i % 2 == 1)
            i += 1
            if i >= need and (self.smoke or sum(r["wall"] for r in self.rounds) >= seconds):
                break

    def end_to_end(self, setup_s: float) -> dict:
        rounds = [r for r in self.rounds if not r["traced"] and r["stats"] is not None]
        if not rounds:
            return {"setup_s": setup_s}

        def med(fn):
            return statistics.median(fn(r) for r in rounds)

        return {
            "setup_s": setup_s,
            "wall_s": med(lambda r: r["wall"]),
            "steps_per_s": med(lambda r: r["stats"].steps / r["step_wall"]),
            "samples_per_s": med(lambda r: r["stats"].items / r["wall"]),
            "output_mb_per_s": med(lambda r: r["bytes"] / 1e6 / r["wall"]),
            "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        }

    def per_layer(self) -> dict:
        from tracer import layer_metrics

        traced = [r for r in self.rounds if r["traced"]]
        plain = [r for r in self.rounds if not r["traced"]]
        out = layer_metrics([r["spans"] for r in traced])
        out["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                   - statistics.median(r["wall"] for r in plain))
        return out


def _size(path) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round at tiny sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracwave", "__init__.py")):
        print(f"error: no fracwave sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        bench = Bench(workload, bool(args.trace), args.smoke, tmp)
        env = environment()
        print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env}))
        setup_s = bench.setup_seconds()
        bench.run(args.seconds)
        values = bench.per_layer() if args.trace else bench.end_to_end(setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    for err in bench.errors:
        print(f"check failed: {err}", file=sys.stderr)
    for name in sorted(bench.absent):
        print(f"trace: span absent: {name}", file=sys.stderr)
    metrics = {}
    for m in listed:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:36s} {values[m['name']]:14.6g} {m['unit']}")
    print(json.dumps({"rounds": [{"traced": r["traced"], "invocation_walls": r["walls"]}
                                 for r in bench.rounds]}))
    print(f"rounds {len(bench.rounds)}, invocations {bench.attempted}, failed {bench.failed}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
