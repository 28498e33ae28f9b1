"""The benchmark's traced run names only functions and classes that exist."""

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
