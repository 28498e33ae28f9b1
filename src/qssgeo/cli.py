"""Command-line front end.

Subcommands: ``geodesic``, ``eahle``, ``ahle``, ``closed-form``, ``verify``,
``probe``.  Vectors are comma-separated decimals on the command line;
matrices travel only as JSON files.  ``QSSGEO_SEED`` overrides ``--seed``
when set.  Exit codes: 0 success, 1 verification failure, 2 usage error
(including unreadable input files), 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import io
from .dynamics import (
    CouplingSpectrum,
    SphereVector,
    Trajectory,
    TrajectoryMeta,
    _StateStack,
    _step_schedule,
    ahle_closed_form,
    ahle_integrate,
    eahle_integrate,
    hebbian_initial_tangent,
)
from .errors import ParseError, QssError, UsageError
from .geometry import GeodesicSpec, _geodesic_curves, random_geodesic_spec
from .qss import TangentVector, make_density
from .verify import conjecture_probe, run_suite, suite_summary

_DEFAULT_DT = 1e-3
_DEFAULT_T_END = 1.0
_DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    dt: float = _DEFAULT_DT
    t_end: float = _DEFAULT_T_END
    tol: float = _DEFAULT_TOL
    n: int | None = None
    input_path: str | None = None
    output_path: str = "-"
    format: str = "csv"
    coupling: tuple[float, ...] | None = None
    w0: tuple[float, ...] | None = None
    t: float | None = None
    tangent_path: str | None = None
    n_values: tuple[int, ...] | None = None
    cases: int = 25


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite decimal, got {text!r}")


def _float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(_finite_float(tok) for tok in text.split(","))
    except argparse.ArgumentTypeError:
        raise UsageError(f"{flag}: expected comma-separated finite decimals, got {text!r}")


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qssgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_traj=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        if with_traj:
            p.add_argument("--dt", type=_finite_float, default=_DEFAULT_DT)
            p.add_argument("--t-end", type=_finite_float, default=_DEFAULT_T_END)
            p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("geodesic", help="evaluate a closed-form geodesic on a time grid")
    p.add_argument("--rho0", required=True, help="start state, matrix JSON file")
    p.add_argument("--x0", help="initial tangent, matrix JSON file")
    p.add_argument("--c", help="coupling values; tangent becomes the flow field at rho0")
    common(p)

    p = sub.add_parser("eahle", help="integrate the matrix learning flow with RK4")
    p.add_argument("--rho0", required=True, help="start state, matrix JSON file")
    p.add_argument("--c", required=True, help="coupling values, comma-separated")
    common(p)

    p = sub.add_parser("ahle", help="integrate the sphere learning rule with RK4")
    p.add_argument("--w0", required=True, help="start vector, comma-separated")
    p.add_argument("--c", required=True, help="coupling values, comma-separated")
    common(p)

    p = sub.add_parser("closed-form", help="evaluate the sphere rule's exact solution")
    p.add_argument("--w0", required=True, help="start vector, comma-separated")
    p.add_argument("--c", required=True, help="coupling values, comma-separated")
    p.add_argument("--t", type=_finite_float, required=True, help="evaluation time")
    common(p, with_traj=False)

    p = sub.add_parser("verify", help="run the randomized verification suite")
    p.add_argument("--n", required=True, help="dimensions, comma-separated")
    p.add_argument("--cases", type=int, default=25, help="cases per dimension")
    p.add_argument("--tol", type=_finite_float, default=_DEFAULT_TOL)
    common(p)

    p = sub.add_parser("probe", help="construct a flow realizing a random geodesic")
    p.add_argument("--n", type=int, required=True, help="dimension, at least 2")
    # The witness is closed-form, so there is nothing to restart; the flag is
    # still accepted because existing invocations pass it.
    p.add_argument("--restarts", type=int, default=8, help="ignored")
    common(p, with_traj=False)

    return parser


def parse_args(argv) -> RunConfig:
    """Parse and validate ``argv`` into a RunConfig; raises UsageError."""
    ns = _build_parser().parse_args(argv)
    config = RunConfig(
        command=ns.command,
        seed=ns.seed,
        output_path=ns.out,
        dt=getattr(ns, "dt", _DEFAULT_DT),
        t_end=getattr(ns, "t_end", _DEFAULT_T_END),
        tol=getattr(ns, "tol", _DEFAULT_TOL),
        format=getattr(ns, "format", "csv"),
        input_path=getattr(ns, "rho0", None),
        tangent_path=getattr(ns, "x0", None),
        t=getattr(ns, "t", None),
        cases=getattr(ns, "cases", 25),
    )
    if getattr(ns, "c", None) is not None:
        config = replace(config, coupling=_float_list(ns.c, "--c"))
    if getattr(ns, "w0", None) is not None:
        config = replace(config, w0=_float_list(ns.w0, "--w0"))
        try:
            SphereVector(np.asarray(config.w0))
        except ValueError as exc:
            raise UsageError(f"--w0: {exc}")
    if ns.command == "verify":
        config = replace(config, n_values=_int_list(ns.n, "--n"))
    elif ns.command == "probe":
        config = replace(config, n=ns.n)

    env_seed = os.environ.get("QSSGEO_SEED")
    if env_seed is not None:
        try:
            config = replace(config, seed=int(env_seed))
        except ValueError:
            raise UsageError(f"QSSGEO_SEED: expected an integer, got {env_seed!r}")

    if config.dt <= 0:
        raise UsageError(f"--dt must be positive, got {config.dt}")
    if config.t_end <= 0:
        raise UsageError(f"--t-end must be positive, got {config.t_end}")
    if config.dt > config.t_end:
        raise UsageError(f"--dt must not exceed --t-end, got {config.dt} > {config.t_end}")
    if config.tol <= 0:
        raise UsageError(f"--tol must be positive, got {config.tol}")
    if config.cases <= 0:
        raise UsageError(f"--cases must be positive, got {config.cases}")
    if getattr(ns, "restarts", 1) <= 0:
        raise UsageError(f"--restarts must be positive, got {ns.restarts}")
    if config.n_values is not None and any(n < 2 for n in config.n_values):
        raise UsageError("--n: every dimension must be at least 2")
    if config.command == "probe" and config.n < 2:
        raise UsageError(f"--n must be at least 2 for probe, got {config.n}")
    if config.command == "geodesic" and (config.tangent_path is None) == (
        config.coupling is None
    ):
        raise UsageError("geodesic requires exactly one of --x0 or --c")
    return config


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_geodesic(config: RunConfig) -> int:
    rho0 = make_density(io.load_matrix(config.input_path))
    if config.coupling is not None:
        coupling = CouplingSpectrum(np.asarray(config.coupling))
        x0 = hebbian_initial_tangent(rho0, coupling)
        coupling_meta = config.coupling
    else:
        x0 = TangentVector(io.load_matrix(config.tangent_path), rho0)
        coupling_meta = ()
    spec = GeodesicSpec(rho0, x0)
    _, times = _step_schedule(config.t_end, config.dt)
    states = _StateStack(_geodesic_curves([spec], times)[0])
    traj = Trajectory(times, states, TrajectoryMeta("exact", config.dt, coupling_meta, config.seed))
    _write_text(config.output_path, io.trajectory_to_text(traj, config.format))
    return 0


def _cmd_eahle(config: RunConfig) -> int:
    rho0 = make_density(io.load_matrix(config.input_path))
    coupling = CouplingSpectrum(np.asarray(config.coupling))
    traj = eahle_integrate(rho0, coupling, config.t_end, config.dt, seed=config.seed)
    _write_text(config.output_path, io.trajectory_to_text(traj, config.format))
    return 0


def _cmd_ahle(config: RunConfig) -> int:
    w0 = SphereVector(np.asarray(config.w0))
    coupling = CouplingSpectrum(np.asarray(config.coupling))
    traj = ahle_integrate(w0, coupling, config.t_end, config.dt, seed=config.seed)
    _write_text(config.output_path, io.trajectory_to_text(traj, config.format))
    return 0


def _cmd_closed_form(config: RunConfig) -> int:
    w0 = SphereVector(np.asarray(config.w0))
    coupling = CouplingSpectrum(np.asarray(config.coupling))
    w = ahle_closed_form(w0, coupling, config.t)
    _write_text(config.output_path, ",".join("%.17g" % x for x in w.values) + "\n")
    return 0


def _cmd_verify(config: RunConfig) -> int:
    reports = run_suite(
        config.n_values, config.cases, config.seed,
        t_end=config.t_end, dt=config.dt, tol=config.tol,
    )
    _write_text(config.output_path, io.reports_to_json(reports))
    print(suite_summary(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_probe(config: RunConfig) -> int:
    spec = random_geodesic_spec(config.n, config.seed)
    result = conjecture_probe(spec)
    payload = io.probe_result_to_dict(result)
    payload["seed"] = config.seed
    _write_text(config.output_path, json.dumps(payload, indent=2) + "\n")
    print(f"probe best residual = {result.residual:.6e}")
    return 0


_COMMANDS = {
    "geodesic": _cmd_geodesic,
    "eahle": _cmd_eahle,
    "ahle": _cmd_ahle,
    "closed-form": _cmd_closed_form,
    "verify": _cmd_verify,
    "probe": _cmd_probe,
}


def run(config: RunConfig) -> int:
    """Execute a parsed config, mapping errors to the exit-code contract."""
    try:
        return _COMMANDS[config.command](config)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QssError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # A time grid or trajectory larger than memory is a usage error:
        # numpy refuses the allocation before any of it is made.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
