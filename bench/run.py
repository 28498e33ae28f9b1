"""Benchmark of qssgeo: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload verify_small --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload cli_session --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --workload geometry_kernels --seed 1 --seconds 1 --smoke

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a separate
run that times qssgeo's public functions from outside the library and
reports the per-module metrics; it also measures the same cycles untraced,
which gives the tracing overhead.  ``--smoke`` runs the workload at a tiny
size.  Metric names and units are the ones BENCHMARK.json lists.

qssgeo is imported from this checkout's ``src``; the run fails when it is not
there.  BLAS and OpenMP are pinned to one thread here and in every child.
Each run appends its result and a description of the machine to
``.bench_results/results.jsonl`` (smoke runs: ``smoke.jsonl``); the traced
run also writes its spans to ``.bench_results/spans-<workload>.npz``.  The
last line of standard output is the result as one JSON object.
``compare.py`` compares two result files.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from collections import defaultdict
from contextlib import redirect_stdout
from functools import partial
from io import StringIO
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
WORKLOADS = ("verify_small", "verify_large", "geometry_kernels", "cli_session")
# Cold starts per run, each in a fresh interpreter; the run reports their median.
SETUP_REPEATS = 9
CLI_START_REPEATS = 15
IMPORT_REPEATS = 3


def import_qssgeo():
    """Import qssgeo from this checkout's sources, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import qssgeo
    except ImportError as exc:
        sys.exit(f"bench: cannot import qssgeo from {SRC}: {exc}")
    if Path(qssgeo.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: qssgeo was imported from {qssgeo.__file__}, not from {SRC}")


def child_env() -> dict:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class Tally:
    """Ops attempted and failed, with one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, count, problems):
        self.attempted += count
        self.failed += min(count, len(problems))
        self.problems += problems

    def flag(self, problems):
        """Fail ops already attempted, for checks made after the loop."""
        self.failed = min(self.attempted, self.failed + len(problems))
        self.problems += problems


def run_cycle(ops, tally, durations, tracer=None):
    """Run ``ops`` in order, timing each call; checks run outside the timed region."""
    for op in ops:
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = op.run()
            else:
                with tracer.op():
                    result = op.run()
            elapsed = time.perf_counter() - t0
            problems = op.check(result)
        except Exception as exc:  # a failed op is counted, and the run goes on
            tally.add(op.count, [f"{op.kind}: {type(exc).__name__}: {exc}"] * op.count)
            continue
        durations[op.kind].append(elapsed)
        tally.add(op.count, problems)


def throughput(ops, durations) -> float:
    """Ops per second of one cycle of ``ops``, each kind at its median time."""
    timed = [op for op in ops if durations[op.kind]]
    seconds = sum(statistics.median(durations[op.kind]) for op in timed)
    return sum(op.count for op in timed) / seconds if seconds else 0.0


def time_setup(name, seed, smoke, env) -> float:
    cmd = [sys.executable, str(BENCH / "setup_child.py"), name, str(seed)] + ["--smoke"] * smoke
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.splitlines()[-1])


def import_times(env) -> dict:
    """Cumulative import time in ms per module, from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qssgeo"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1000
    return cumulative


def timed_run(wl, name, seed, seconds, smoke, env):
    """The end-to-end metrics, measured untraced.

    The cold starts (set-up children and ``closed-form`` spawns, which the
    CLI workload adds to its own) are spread over the run, between ops, so
    that they see the same machine load as the ops do.  The loop runs whole
    cycles until the ops themselves have taken ``seconds``.
    """
    import numpy as np

    import workloads

    tally, durations, setup_times = Tally(), defaultdict(list), []
    start_op = workloads.ClosedForm(np.random.default_rng(seed)).op(env)
    cold = spread_evenly(
        [lambda: setup_times.append(time_setup(name, seed, smoke, env))] * (1 if smoke else SETUP_REPEATS),
        [partial(run_cycle, [start_op], tally, durations)] * (1 if smoke else CLI_START_REPEATS),
    )
    cli = name == "cli_session"
    if not cli:  # the CLI workload pays its cold starts on every op
        run_cycle(wl.cycle(0), tally, defaultdict(list))  # warm-up, not timed
    done, busy, i = 0, 0.0, 1
    while busy < seconds:
        for op in wl.cycle(i):
            t0 = time.perf_counter()
            run_cycle([op], tally, durations)
            busy += time.perf_counter() - t0
            while done < len(cold) * min(1.0, busy / seconds):
                cold[done]()
                done += 1
        i += 1
    tally.flag(wl.final_check())
    # The CLI workload's work happens in its children, the others' in this process.
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    metrics = {
        "ops_per_s": throughput(wl.cycle(0), durations),
        "setup_s": statistics.median(setup_times),
        "cli_start_ms": 1000 * statistics.median(durations["closed-form"] or [0.0]),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    return metrics, tally


def spread_evenly(*groups) -> list:
    """Merge the lists so that each one's items are spread evenly over the result."""
    keyed = [((k + 0.5) / len(g), j, item) for j, g in enumerate(groups) for k, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda e: e[:2])]


def trace_targets():
    """The public functions and validating classes the traced run times, and its counters."""
    import qssgeo
    from qssgeo import cli, dynamics, geometry, io, qss, verify

    functions = {
        qss: ("eig_hermitian", "sld", "sld_inverse", "fisher_metric",
              "fisher_metric_from_slds", "fisher_metric_eigenbasis"),
        geometry: ("e_transport", "is_e_parallel", "e_geodesic", "autoparallel_residual"),
        dynamics: ("eahle_integrate", "ahle_integrate", "ahle_closed_form"),
        verify: ("run_suite", "verify_geodesic_coincidence", "verify_sphere_closed_form",
                 "conjecture_probe"),
        io: ("trajectory_to_text", "reports_to_json", "load_matrix", "probe_result_to_dict"),
        cli: ("parse_args", "run"),
    }
    classes = (qss.DensityMatrix, qss.TangentVector, qss.SldMatrix, geometry.GeodesicSpec)

    def short(module_name):
        return module_name.rsplit(".", 1)[-1]

    targets = [(f"{short(m.__name__)}.{f}", m, f) for m, names in functions.items() for f in names]
    targets += [(f"{short(c.__module__)}.{c.__name__}", c, "__post_init__") for c in classes]
    counters = {
        "dynamics.eahle_integrate": ("dynamics.eahle_integrate.steps", lambda traj: len(traj) - 1),
        "dynamics.ahle_integrate": ("dynamics.ahle_integrate.steps", lambda traj: len(traj) - 1),
        "io.trajectory_to_text": ("io.trajectory_to_text.bytes", len),
        "io.reports_to_json": ("io.reports_to_json.bytes", len),
    }
    return targets, [qssgeo, *functions], counters


def traced_run(wl, name, seconds, smoke, env, run_id, layer_names):
    """The per-module metrics: the same cycles run untraced and traced, in alternation.

    The number of cycles follows from ``--seconds`` and the workload's
    nominal cycle time, not from the clock, so the counts repeat exactly.
    """
    import numpy as np

    import tracing

    imports = [import_times(env) for _ in range(1 if smoke else IMPORT_REPEATS)]
    tracer = tracing.Tracer(*trace_targets(), run_id=run_id)
    tally, plain, traced = Tally(), defaultdict(list), defaultdict(list)
    run_cycle(wl.cycle(0, in_process=True), tally, defaultdict(list))  # warm-up, not timed
    traced_ops = 0
    for i in range(1, max(1, int(seconds / (2 * wl.cycle_s))) + 1):
        ops = wl.cycle(i, in_process=True)
        sides = [(plain, None), (traced, tracer)]
        for durations, side_tracer in sides if i % 2 else sides[::-1]:  # alternate to cancel drift
            run_cycle(ops, tally, durations, side_tracer)
        traced_ops += sum(op.count for op in ops)
    tally.flag(wl.final_check())
    RESULTS.mkdir(exist_ok=True)
    tracer.save(RESULTS / f"spans-{name}.npz")

    summary = tracer.summary()
    traced_rate = throughput(ops, traced)
    extra = {
        "trace.overhead_frac": throughput(ops, plain) / traced_rate - 1 if traced_rate else 0.0,
        "trace.ops": traced_ops,
        "cli.import_qssgeo_ms": statistics.median(t.get("qssgeo", 0.0) for t in imports),
        "cli.import_scipy_optimize_ms": statistics.median(t.get("scipy.optimize", 0.0) for t in imports),
    }

    def value(metric):
        if metric in extra:
            return extra[metric]
        label, stat = metric.rsplit(".", 1)
        if stat == "errors":
            return sum(s["errors"] for key, s in summary.items() if key.startswith(label + "."))
        if stat in ("steps", "bytes"):
            return tracer.counts.get(metric, 0)
        s = summary[label]
        if stat == "calls":
            return s["calls"]
        if stat == "calls_per_op":
            return s["calls"] / traced_ops
        if stat == "self_ms":
            return 1000 * s["self_s"]
        if stat in ("p50_ms", "p90_ms"):
            q = int(stat[1:3])
            return 1000 * float(np.percentile(s["durations"], q)) if len(s["durations"]) else 0.0
        raise KeyError(f"no rule gives per-layer metric {metric}")

    return {metric: value(metric) for metric in layer_names}, tally


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints
        buf = StringIO()
        with redirect_stdout(buf):
            np.show_config()
        config = buf.getvalue()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "numpy_config": config,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    # Before numpy loads; children inherit the environment.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    # QSSGEO_SEED would override the seeds the CLI workload passes.
    os.environ.pop("QSSGEO_SEED", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_qssgeo()
    sys.path.insert(0, str(BENCH))
    import workloads

    env = child_env()
    run_id = uuid.uuid4().hex
    wl = workloads.make(args.workload, args.seed, args.smoke)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.workload == "cli_session":
            wl.start(workdir, env)
        if args.trace:
            listed = spec["per_layer"]
            values, tally = traced_run(
                wl, args.workload, args.seconds, args.smoke, env, run_id, [m["name"] for m in listed]
            )
        else:
            listed = spec["end_to_end"]
            values, tally = timed_run(wl, args.workload, args.seed, args.seconds, args.smoke, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    info = machine()
    record = {
        "run_id": run_id, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": info, **result,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / ("smoke.jsonl" if args.smoke else "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record, default=str) + "\n")

    config = info["numpy_config"]
    blas = config.get("Build Dependencies", {}).get("blas", {}) if isinstance(config, dict) else {}
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"numpy={info['numpy']} blas={blas.get('name', '?')} {blas.get('version', '')}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_frac = {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed} of {tally.attempted} ops failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
