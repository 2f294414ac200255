"""The benchmark's own tests: python3 -m pytest -q benchmarks

Each workload runs in smoke mode (tiny sizes, every correctness check)
with and without tracing.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from tracer import Spans, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_workload(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert np.isfinite(entry["value"])
        if trace == "0":
            assert entry["value"] > 0
    assert "span absent" not in out.stderr


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "small-grid", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> a [5, 9]
    spans = Spans(name_id=[0, 1, 2, 1], start=[0, 1, 2, 5], end=[10, 4, 3, 9],
                  parent=[-1, 0, 1, 0], names=["root", "x.a", "x.b"])
    assert spans.self_time.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert spans.count(("x.a",)) == 2
    assert spans.self_total(spans.layer_mask("x")) == 7.0
    assert spans.children_of(("x.a",), ("x.b",)) == 1


def test_tracer_wraps_imported_names_and_reports_absent(tmp_path):
    def coeffs_of(values):
        return np.asarray(values) * 2.0

    spectral = types.ModuleType("spectral")
    spectral.coeffs_of = coeffs_of
    models = types.ModuleType("models")
    models.coeffs_of = coeffs_of          # imported name, as `from .spectral import`
    package = types.SimpleNamespace(spectral=spectral, models=models)

    tracer = Tracer()
    tracer.install(package)
    assert models.coeffs_of is spectral.coeffs_of is not coeffs_of
    models.coeffs_of(np.ones(4))
    spectral.coeffs_of(np.ones(4))
    assert "spectral.values_of" in tracer.absent
    assert "timestepper._slope_stats" in tracer.absent

    path = tmp_path / "spans.npz"
    tracer.dump(path)
    spans = Spans.load(path)
    assert spans.count(("spectral.coeffs_of",)) == 2
    assert spans.counters["transform_bytes"] == 2 * (32 + 32)
    metrics = layer_metrics([[spans]])
    assert metrics["spectral.transform_calls"] == 2
    assert metrics["timestepper.steps"] == 0
