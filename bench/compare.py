"""Compare two sets of benchmark results.

Usage: python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as ``run.py`` appends them to
``.bench_results/results.jsonl``: run the benchmark on the base commit, move
the file aside, run it on the new commit, then compare.  For every workload
and metric this prints each side's median and quartiles and the ratio of the
medians, new over base.  The status of an end-to-end metric is

* ``unresolved`` when either side's spread (the distance between its
  quartiles, as a share of its median) exceeds the metric's bound in
  BENCHMARK.json, unless every new run is better than every base run
  (then ``better``);
* ``worse`` when the new median is worse than the base median by more than
  the bound;
* ``ok`` otherwise.

Per-layer metrics have no bound and get no status.  The exit code is 1 when
some metric is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def group(records) -> dict:
    """(workload, metric) -> list of values."""
    values = defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def status(spec, base, new) -> str:
    if "bound" not in spec:
        return "-"
    sign = 1 if spec["better"] == "lower" else -1
    if max(spread(base), spread(new)) > spec["bound"]:
        every_run_better = all(sign * (n - b) < 0 for n in new for b in base)
        return "better" if every_run_better else "unresolved"
    base_median, new_median = statistics.median(base), statistics.median(new)
    if not base_median:
        return "unresolved"
    return "worse" if sign * (new_median - base_median) / abs(base_median) > spec["bound"] else "ok"


def compare(base_records, new_records, spec) -> list[dict]:
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = group(base_records), group(new_records)
    rows = []
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        b, n = base[key], new[key]
        b_med, n_med = statistics.median(b), statistics.median(n)
        rows.append({
            "workload": workload,
            "metric": name,
            "base": quartiles(b),
            "new": quartiles(n),
            "runs": (len(b), len(n)),
            "ratio": n_med / b_med if b_med else None,
            "status": status(specs.get(name, {}), b, n),
        })
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(argv[0]), load(argv[1]), spec)

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':<17} {'metric':<44} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'runs':<7} {'ratio':>7}  status")
    for r in rows:
        ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "n/a"
        runs = f"{r['runs'][0]}/{r['runs'][1]}"
        print(f"{r['workload']:<17} {r['metric']:<44} {fmt(r['base']):<30} {fmt(r['new']):<30} "
              f"{runs:<7} {ratio:>7}  {r['status']}")
    return 1 if any(r["status"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
