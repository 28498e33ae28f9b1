"""The benchmark's traced run names only functions and classes that exist, and its kernel checks pass."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "run", raising=False)
    import run

    targets, _, counters = run.trace_targets()
    assert targets
    missing = [f"{label} ({attr})" for label, owner, attr in targets if not hasattr(owner, attr)]
    assert not missing
    assert set(counters) <= {label for label, _, _ in targets}


def test_geometry_kernels_smoke_cycle_passes_its_checks(monkeypatch):
    # the checks compare every kernel of a set with the benchmark's own
    # oracle, which does not use qssgeo
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    workload = workloads.make("geometry_kernels", 0, smoke=True)
    ops = workload.cycle(0)
    assert ops
    problems = [p for op in ops for p in op.check(op.run())] + workload.final_check()
    assert problems == []
