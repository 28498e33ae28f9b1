"""The benchmark's workloads: inputs drawn from a seed, the ops, and their checks.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one has finished.  A workload hands out *cycles*,
lists of ops with a fixed composition; ops of one ``kind`` have the same
size, so throughput is taken from the median time per kind.

Checks compare qssgeo's outputs with :mod:`oracle`, which does not use
qssgeo, and return one message per failed op.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from io import StringIO
from typing import Callable

import numpy as np

import oracle
from qssgeo import cli, dynamics, geometry, qss, verify
from qssgeo import io as qio

# The `qssgeo verify` defaults.
DT = 1e-3
TOL = 1e-6
# Agreement demanded between two computations of the same quantity.
MATCH = 1e-9


@dataclass
class Op:
    kind: str
    count: int  # ops this call completes: reports, kernel sets or CLI invocations
    run: Callable[[], object]
    check: Callable[[object], list]


def _steps(t_end: float) -> int:
    """Steps of the integrators' grid: whole steps of DT plus a shortened last one."""
    n_full = int(np.floor(t_end / DT + 1e-9))
    return n_full + int(t_end - n_full * DT > 1e-9 * DT)


class VerifySuite:
    """``run_suite`` with the ``qssgeo verify`` defaults, then ``reports_to_json``.

    Each cycle runs one suite with a fresh suite seed.  Every report is
    checked against the inputs the suite documents drawing; the reports of
    the first suite are kept, and one flow case and one sphere case of them
    are recomputed against the closed forms in :func:`final_check`.
    """

    def __init__(self, seed: int, n_values, cases_per_n: int, t_end: float, cycle_s: float):
        self.n_values = tuple(n_values)
        self.cases_per_n = cases_per_n
        self.t_end = t_end
        self.cycle_s = cycle_s
        self._rng = np.random.default_rng(seed)
        self._suite_seeds: list[int] = []
        self._kept = None

    def _suite_seed(self, i: int) -> int:
        while len(self._suite_seeds) <= i:
            self._suite_seeds.append(int(self._rng.integers(0, 2**31)))
        return self._suite_seeds[i]

    def cycle(self, i: int, in_process: bool = True) -> list[Op]:
        seed = self._suite_seed(i)
        count = 2 * len(self.n_values) * self.cases_per_n
        return [Op("run_suite", count, partial(self._run, seed), partial(self._check, seed))]

    def _run(self, seed):
        reports = verify.run_suite(self.n_values, self.cases_per_n, seed, t_end=self.t_end, dt=DT, tol=TOL)
        return reports, qio.reports_to_json(reports)

    def _check(self, seed, result) -> list:
        reports, text = result
        cases = oracle.suite_cases(self.n_values, self.cases_per_n, seed)
        entries = json.loads(text)
        if not len(reports) == len(entries) == len(cases):
            problem = f"suite {seed}: {len(reports)} reports, {len(entries)} in JSON, {len(cases)} expected"
            return [problem] * len(cases)
        if self._kept is None:
            self._kept = (seed, reports)
        grid = _steps(self.t_end) + 1
        problems = []
        for r, entry, case in zip(reports, entries, cases):
            ok = (
                r.case_id == entry["case_id"] == case["case_id"]
                and r.seed == case["seed"]
                and r.n == case["n"]
                and r.passed
                and entry["passed"]
                and r.tolerance == TOL
                and 0 <= r.max_deviation <= TOL
                and r.max_deviation == entry["max_deviation"] == float(np.max(r.per_time_deviation))
                and len(r.time_grid) == grid
                and abs(r.time_grid[-1] - self.t_end) <= 1e-12
            )
            if not ok:
                problems.append(f"suite {seed}: report {r.case_id} failed (max dev {r.max_deviation:.3e})")
        return problems

    def final_check(self) -> list:
        """Recompute one flow and one sphere case of the kept suite against the closed forms."""
        if self._kept is None:
            return []
        seed, reports = self._kept
        cases = oracle.suite_cases(self.n_values, self.cases_per_n, seed)
        k = 2 * int(np.random.default_rng(seed).integers(len(cases) // 2))
        return self._flow_case(cases[k], reports[k]) + self._sphere_case(cases[k + 1], reports[k + 1])

    def _flow_case(self, case, report) -> list:
        rho0 = oracle.random_density(case["n"], case["seed"])
        traj = dynamics.eahle_integrate(
            qss.DensityMatrix(rho0), dynamics.CouplingSpectrum(case["c"]), self.t_end, DT
        )
        exact = oracle.geodesic(rho0, oracle.sld(rho0, oracle.flow_field(rho0, case["c"])), self.t_end)
        dev = float(np.linalg.norm(traj.states[-1].entries - exact))
        if dev <= TOL and abs(dev - report.per_time_deviation[-1]) <= MATCH:
            return []
        return [f"{case['case_id']}: flow ends {dev:.3e} from the closed-form geodesic, "
                f"report says {report.per_time_deviation[-1]:.3e}"]

    def _sphere_case(self, case, report) -> list:
        w0, c = case["w0"], case["c"]
        traj = dynamics.ahle_integrate(
            dynamics.SphereVector(w0), dynamics.CouplingSpectrum(c), self.t_end, DT
        )
        exact = oracle.sphere_closed_form(w0, c, self.t_end)
        theta0 = np.diag(w0**2).astype(complex)
        geo = oracle.geodesic(theta0, oracle.sld(theta0, oracle.flow_field(theta0, c)), self.t_end)
        dev = max(
            float(np.linalg.norm(traj.states[-1].values - exact)),
            float(np.linalg.norm(exact**2 - geo.diagonal().real)),
        )
        if dev <= TOL and abs(dev - report.per_time_deviation[-1]) <= MATCH:
            return []
        return [f"{case['case_id']}: sphere flow ends {dev:.3e} from the closed form, "
                f"report says {report.per_time_deviation[-1]:.3e}"]


@dataclass
class KernelInput:
    rho: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rho2: np.ndarray
    # Expected results, from the oracle.
    l: np.ndarray
    metric: float
    metric_scale: float
    tau: np.ndarray
    gamma: np.ndarray
    residual: float
    residual_half: float


class GeometryKernels:
    """One kernel set per state, in equal shares over the dimensions.

    States and tangents are drawn with plain numpy at set-up.  A tangent is
    built from a random SLD L of unit norm as X = (rho L + L rho) / 2, so the
    expected SLD is known exactly.  Every set builds its qssgeo objects from
    the arrays again: no state is reused across ops inside the library.
    """

    T_GEODESIC = 1.0
    T_RESIDUAL = 0.5
    DT_FD = 1e-3

    def __init__(self, seed: int, n_values, inputs_per_n: int, cycle_s: float):
        rng = np.random.default_rng(seed)
        self.n_values = tuple(n_values)
        self.cycle_s = cycle_s
        self.inputs = {n: [self._make_input(n, rng) for _ in range(inputs_per_n)] for n in self.n_values}

    def _make_input(self, n, rng) -> KernelInput:
        rho = oracle.well_conditioned_density(n, rng)
        l, ly = oracle.random_sld(rho, rng), oracle.random_sld(rho, rng)
        x, y = oracle.jordan(rho, l), oracle.jordan(rho, ly)
        gxx, gyy = oracle.metric(rho, x, x), oracle.metric(rho, y, y)
        rho2 = oracle.well_conditioned_density(n, rng)
        t, dt = self.T_RESIDUAL, self.DT_FD
        return KernelInput(
            rho=rho, x=x, y=y, rho2=rho2, l=l,
            metric=oracle.metric(rho, x, y),
            metric_scale=float(np.sqrt(gxx * gyy)),
            tau=oracle.transport(rho2, l),
            gamma=oracle.geodesic(rho, l, self.T_GEODESIC),
            residual=oracle.autoparallel_residual(rho, l, t, dt),
            residual_half=oracle.autoparallel_residual(rho, l, t, dt / 2),
        )

    def cycle(self, i: int, in_process: bool = True) -> list[Op]:
        ops = []
        for n in self.n_values:
            inp = self.inputs[n][i % len(self.inputs[n])]
            ops.append(Op(f"set/n{n}", 1, partial(self._run, inp), partial(self._check, n, inp)))
        return ops

    def _run(self, inp: KernelInput):
        rho = qss.DensityMatrix(inp.rho)
        x = qss.TangentVector(inp.x, rho)
        y = qss.TangentVector(inp.y, rho)
        l = qss.sld(rho, x)
        x_back = qss.sld_inverse(rho, l)
        metrics = (
            qss.fisher_metric(rho, x, y),
            qss.fisher_metric_from_slds(rho, x, y),
            qss.fisher_metric_eigenbasis(rho, x, y),
        )
        rho2 = qss.DensityMatrix(inp.rho2)
        tau = geometry.e_transport(rho, rho2, x)
        parallel = geometry.is_e_parallel(x, tau, MATCH)
        spec = geometry.GeodesicSpec(rho, x)
        gamma = geometry.e_geodesic(spec, self.T_GEODESIC)
        residual = geometry.autoparallel_residual(spec, self.T_RESIDUAL, self.DT_FD)
        return l.entries, x_back.entries, metrics, tau.entries, parallel, gamma.entries, residual

    def _check(self, n, inp: KernelInput, result) -> list:
        l, x_back, metrics, tau, parallel, gamma, residual = result
        failures = []
        if oracle.rel_gap(l, inp.l) > MATCH:
            failures.append("SLD differs from the oracle")
        if oracle.rel_gap(x_back, inp.x) > MATCH:
            failures.append("SLD round trip does not return the tangent")
        if max(abs(g - inp.metric) for g in metrics) > MATCH * inp.metric_scale:
            failures.append(f"metric formulas {metrics} differ from {inp.metric}")
        if oracle.rel_gap(tau, inp.tau) > MATCH or not parallel:
            failures.append("transported tangent breaks the SLD relation")
        if oracle.rel_gap(gamma, inp.gamma) > MATCH:
            failures.append("geodesic differs from exp(tL/2) rho exp(tL/2) / Tr")
        # The oracle's residual at dt and dt/2 shows the O(dt^2) order; the
        # library's residual must be that same number.
        order = inp.residual / inp.residual_half
        if not 3.5 <= order <= 4.5 or abs(residual - inp.residual) > 1e-3 * inp.residual:
            failures.append(f"autoparallel residual {residual:.3e} is not O(dt^2) (oracle {inp.residual:.3e})")
        return [f"kernel set n={n}: " + "; ".join(failures)] if failures else []

    def final_check(self) -> list:
        return []


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def invoke_cli(argv, env, in_process: bool):
    """Run ``qssgeo`` with ``argv``: a fresh ``python -m qssgeo.cli`` process, or ``cli.main``."""
    if in_process:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    proc = subprocess.run(
        [sys.executable, "-m", "qssgeo.cli", *argv],
        env=env, capture_output=True, text=True, timeout=150,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_op(kind, argv, env, in_process, check, output=None) -> Op:
    """One CLI invocation; it fails on a non-zero exit or when ``check(stdout)`` names a problem.

    The ``output`` file is removed once checked, so the next invocation
    writes a new file: on ext4, rewriting a file truncated in place forces a
    flush on close, which would time the disk rather than the writers.
    """

    def checked(result):
        code, out, err = result
        try:
            if code != 0:
                return [f"{kind}: exit code {code}: {err.strip()[-300:]}"]
            problem = check(out)
            return [f"{kind}: {problem}"] if problem else []
        finally:
            if output is not None and os.path.exists(output):
                os.remove(output)

    return Op(kind, 1, partial(invoke_cli, argv, env, in_process), checked)


class ClosedForm:
    """``qssgeo closed-form`` on a random 4-d start: the cheapest command, so it measures cold start."""

    def __init__(self, rng: np.random.Generator):
        w = rng.uniform(0.2, 1.0, 4) * rng.choice([-1.0, 1.0], 4)
        self.w0, self.c, self.t = w / np.linalg.norm(w), rng.uniform(-1.0, 1.0, 4), 0.7

    def op(self, env, in_process: bool = False) -> Op:
        argv = ["closed-form", f"--w0={_csv(self.w0)}", f"--c={_csv(self.c)}", "--t", repr(self.t)]
        return cli_op("closed-form", argv, env, in_process, self._check)

    def _check(self, out):
        got = np.array([float(tok) for tok in out.strip().split(",")])
        gap = oracle.rel_gap(got, oracle.sphere_closed_form(self.w0, self.c, self.t))
        return f"closed form off by {gap:.3e}" if gap > MATCH else None


class CliSession:
    """A user running README commands, each as a fresh ``python -m qssgeo.cli`` process.

    The cycle: ``eahle`` writing CSV, ``geodesic`` writing JSON, ``verify``
    and ``probe``, each after a ``closed-form`` call (cold start).  Couplings go as
    ``--c=...``: with a space, argparse would read a leading ``-`` as a flag.
    With ``in_process`` the same argv goes through ``qssgeo.cli.main``.
    """

    def __init__(self, seed: int, n: int, t_end: float, verify_n, verify_cases: int,
                 probe_restarts: int, cycle_s: float):
        rng = np.random.default_rng(seed)
        self.n, self.t_end, self.cycle_s = n, t_end, cycle_s
        self.rho = oracle.well_conditioned_density(n, rng)
        self.c = rng.uniform(-1.0, 1.0, n)
        self.closed_form = ClosedForm(rng)
        self.verify_n, self.verify_cases = tuple(verify_n), verify_cases
        self.verify_seed, self.probe_seed = (int(s) for s in rng.integers(0, 2**31, 2))
        self.probe_restarts = probe_restarts
        self._reference = {}

    def start(self, workdir, env) -> None:
        """Write the start state as a matrix JSON file; outputs go to ``workdir`` too."""
        self.env = env
        self.paths = {
            name: os.path.join(workdir, name)
            for name in ("rho.json", "traj.csv", "geo.json", "verify.json", "probe.json")
        }
        with open(self.paths["rho.json"], "w") as fh:
            json.dump({"n": self.n, "re": self.rho.real.tolist(), "im": self.rho.imag.tolist()}, fh)

    def cycle(self, i: int, in_process: bool = False) -> list[Op]:
        p, env, t_end = self.paths, self.env, repr(self.t_end)
        flow = ["--rho0", p["rho.json"], f"--c={_csv(self.c)}", "--t-end", t_end]
        verify_argv = [
            "verify", "--n", ",".join(map(str, self.verify_n)), "--cases", str(self.verify_cases),
            "--seed", str(self.verify_seed), "--t-end", t_end, "--out", p["verify.json"],
        ]
        probe_argv = [
            "probe", "--n", "2", "--seed", str(self.probe_seed),
            "--restarts", str(self.probe_restarts), "--out", p["probe.json"],
        ]
        commands = [
            cli_op("eahle", ["eahle", *flow, "--out", p["traj.csv"]],
                   env, in_process, self._check_eahle, p["traj.csv"]),
            cli_op("geodesic", ["geodesic", *flow, "--format", "json", "--out", p["geo.json"]],
                   env, in_process, self._check_geodesic, p["geo.json"]),
            cli_op("verify", verify_argv, env, in_process, self._check_verify, p["verify.json"]),
            cli_op("probe", probe_argv, env, in_process, self._check_probe, p["probe.json"]),
        ]
        # A closed-form call before each command, so that cold starts are
        # sampled all through the session rather than in one burst.
        return [op for command in commands for op in (self.closed_form.op(env, in_process), command)]

    def _ref(self, key):
        """In-process results for the same inputs, computed once, outside any timing."""
        if key not in self._reference:
            rho0 = qss.DensityMatrix(self.rho)
            coupling = dynamics.CouplingSpectrum(self.c)
            if key == "eahle":
                value = dynamics.eahle_integrate(rho0, coupling, self.t_end, DT).states[-1].entries
            elif key == "geodesic":
                spec = geometry.GeodesicSpec(rho0, dynamics.hebbian_initial_tangent(rho0, coupling))
                value = geometry.e_geodesic(spec, self.t_end).entries
            else:
                value = verify.run_suite(self.verify_n, self.verify_cases, self.verify_seed, t_end=self.t_end)
            self._reference[key] = value
        return self._reference[key]

    def _exact_flow(self):
        return oracle.geodesic(self.rho, oracle.sld(self.rho, oracle.flow_field(self.rho, self.c)), self.t_end)

    def _check_eahle(self, out):
        with open(self.paths["traj.csv"]) as fh:
            lines = fh.read().splitlines()
        header, last = lines[0].split(","), np.array([float(v) for v in lines[-1].split(",")])
        if header[0] != "t" or len(header) != 1 + 2 * self.n**2 or len(lines) != _steps(self.t_end) + 2:
            return f"CSV has {len(lines)} lines of {len(header)} columns"
        final = (last[1::2] + 1j * last[2::2]).reshape(self.n, self.n)
        gap = float(np.max(np.abs(final - self._ref("eahle"))))
        flow_gap = float(np.linalg.norm(final - self._exact_flow()))
        if last[0] != self.t_end or gap > MATCH or flow_gap > TOL:
            return f"final state off the in-process result by {gap:.3e}, off the exact flow by {flow_gap:.3e}"
        return None

    def _check_geodesic(self, out):
        with open(self.paths["geo.json"]) as fh:
            payload = json.load(fh)
        states = [qio.matrix_from_json_dict(s) for s in payload["states"]]
        if len(states) != _steps(self.t_end) + 1 or payload["meta"]["n"] != self.n:
            return f"JSON holds {len(states)} states"
        gap = float(np.max(np.abs(states[-1] - self._ref("geodesic"))))
        exact_gap = oracle.rel_gap(states[-1], self._exact_flow())
        if gap > MATCH or exact_gap > MATCH:
            return f"final state off the in-process result by {gap:.3e}, off the closed form by {exact_gap:.3e}"
        return None

    def _check_verify(self, out):
        count = 2 * len(self.verify_n) * self.verify_cases
        with open(self.paths["verify.json"]) as fh:
            entries = json.load(fh)
        reference = self._ref("verify")
        same = len(entries) == len(reference) == count and all(
            e["passed"] and e["case_id"] == r.case_id and abs(e["max_deviation"] - r.max_deviation) <= MATCH
            for e, r in zip(entries, reference)
        )
        if not out.startswith(f"PASS {count}/{count} ") or not same:
            return f"summary {out.strip()!r} or report file differs from the in-process suite"
        return None

    def _check_probe(self, out):
        with open(self.paths["probe.json"]) as fh:
            payload = json.load(fh)
        u = qio.matrix_from_json_dict(payload["best_unitary"])
        unitary_gap = float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))
        if payload["residual"] > MATCH or unitary_gap > MATCH:
            return f"probe residual {payload['residual']:.3e}, unitary off by {unitary_gap:.3e}"
        return None

    def final_check(self) -> list:
        return []


# name -> (full-size factory, smoke-size factory).  ``cycle_s`` is the
# nominal time of one untraced cycle; the traced run sizes itself from it.
WORKLOADS = {
    "verify_small": (
        partial(VerifySuite, n_values=(2, 3, 4), cases_per_n=5, t_end=1.0, cycle_s=1.4),
        partial(VerifySuite, n_values=(2, 3), cases_per_n=1, t_end=0.05, cycle_s=0.01),
    ),
    "verify_large": (
        partial(VerifySuite, n_values=(32, 64), cases_per_n=1, t_end=1.0, cycle_s=1.0),
        partial(VerifySuite, n_values=(8,), cases_per_n=1, t_end=0.05, cycle_s=0.01),
    ),
    "geometry_kernels": (
        partial(GeometryKernels, n_values=(2, 3, 4, 8, 16, 32, 64), inputs_per_n=4, cycle_s=0.017),
        partial(GeometryKernels, n_values=(2, 3), inputs_per_n=1, cycle_s=0.001),
    ),
    "cli_session": (
        partial(CliSession, n=16, t_end=1.0, verify_n=(2, 3, 4), verify_cases=2,
                probe_restarts=8, cycle_s=3.0),
        partial(CliSession, n=3, t_end=0.05, verify_n=(2,), verify_cases=1,
                probe_restarts=1, cycle_s=0.1),
    ),
}


def make(name: str, seed: int, smoke: bool = False):
    """Build workload ``name`` with inputs drawn from ``seed``."""
    full, tiny = WORKLOADS[name]
    return (tiny if smoke else full)(seed)
