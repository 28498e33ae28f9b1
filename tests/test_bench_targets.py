"""The benchmark's traced run names only functions and classes that exist, and its checks pass.

A library change that breaks what the benchmark calls or reads (a CLI flag,
a key of an output file, a function the workloads call) fails here, in one
smoke-size cycle of each workload.
"""

import os
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["geometry_kernels", "verify_small", "verify_large", "cli_session"])
def test_smoke_cycle_passes_its_checks(name, tmp_path, monkeypatch):
    # the checks compare qssgeo's results with the benchmark's own oracle,
    # which does not use qssgeo; cli_session runs its README commands
    # through cli.main, in this process
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    workload = workloads.make(name, 0, smoke=True)
    if name == "cli_session":
        workload.start(str(tmp_path), dict(os.environ))
    ops = workload.cycle(0, in_process=True)
    assert ops
    problems = [p for op in ops for p in op.check(op.run())] + workload.final_check()
    assert problems == []
