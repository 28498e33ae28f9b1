"""Tests of the benchmark itself: every workload at smoke size, the tracer and compare mode.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import tracing  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify_small", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


LAYER = """
import time
from dataclasses import dataclass

def inner():
    time.sleep(0.01)

def outer():
    inner()
    time.sleep(0.02)

def broken():
    raise ValueError("boom")

@dataclass
class Point:
    x: float

    def __post_init__(self):
        inner()
"""


def test_tracer_self_time_counts_and_errors():
    layer = types.ModuleType("layer")
    exec(LAYER, layer.__dict__)
    original_outer = layer.outer
    tracer = tracing.Tracer(
        [("layer.inner", layer, "inner"), ("layer.outer", layer, "outer"),
         ("layer.broken", layer, "broken"), ("layer.Point", layer.Point, "__post_init__")],
        [layer],
        counters={"layer.outer": ("layer.outer.results", lambda result: 1)},
    )
    with tracer.op():
        layer.outer()
        point = layer.Point(1.0)
    with pytest.raises(ValueError), tracer.op():
        layer.broken()
    assert layer.outer is original_outer
    assert isinstance(point, layer.Point)

    s = tracer.summary()
    assert s["layer.inner"]["calls"] == 2 and s["layer.outer"]["calls"] == 1
    assert s["layer.Point"]["calls"] == 1 and s["layer.Point"]["self_s"] < 0.005
    spans = tracer.spans()
    outer = spans["name"] == tracer.labels.index("layer.outer")
    inner_of_outer = spans["parent"] == outer.nonzero()[0][0]
    duration = spans["end"] - spans["start"]
    assert s["layer.outer"]["self_s"] == pytest.approx(duration[outer][0] - duration[inner_of_outer].sum())
    assert s["layer.outer"]["self_s"] >= 0.02
    assert s["layer.broken"]["errors"] == 1
    assert tracer.counts == {"layer.outer.results": 1}


def record(workload, **values):
    return {"workload": workload, "metrics": {k: {"value": v, "unit": "?"} for k, v in values.items()}}


def test_compare_reports_worse_and_unresolved():
    base = [record("verify_small", ops_per_s=20.0 + 0.01 * i, setup_s=0.2 + 0.001 * i, peak_rss_mb=90.0)
            for i in range(5)]
    new = [record("verify_small", ops_per_s=15.0 + 0.01 * i, setup_s=0.1 + 0.1 * i, peak_rss_mb=90.5)
           for i in range(5)]
    rows = {r["metric"]: r for r in compare.compare(base, new, SPEC)}
    assert rows["ops_per_s"]["status"] == "worse"
    assert rows["ops_per_s"]["ratio"] == pytest.approx(15.02 / 20.02)
    assert rows["setup_s"]["status"] == "unresolved"
    assert rows["peak_rss_mb"]["status"] == "ok"
