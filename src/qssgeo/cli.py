"""Command-line front end.

Subcommands: ``geodesic``, ``eahle``, ``ahle``, ``closed-form``, ``verify``,
``probe``.  Vectors are comma-separated decimals on the command line;
matrices travel only as JSON files.  ``QSSGEO_SEED`` overrides the ``--seed``
of ``verify`` and ``probe`` when set.  Exit codes: 0 success, 1 verification
failure, 2 usage error (including unreadable input files, inputs of
mismatched dimensions, 1 x 1 states and a dimension repeated in
``verify --n``, whose case ids would repeat), 3 numerical error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

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
from .errors import (BaseMismatchError, DimensionMismatchError, DimensionTooSmallError,
                     ParseError, QssError, UsageError)
from .geometry import GeodesicSpec, _geodesic_curves, random_geodesic_spec
from .qss import DensityMatrix, TangentVector
from .verify import conjecture_probe, run_suite, suite_summary


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    dt: float = 1e-3
    t_end: float = 1.0
    tol: float = 1e-6
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


def _checked(parse, accept, expected: str, many: bool = False):
    """An argparse type: ``parse`` the text and keep the value when ``accept`` holds.

    With ``many`` the text is a comma-separated list, each item parsed and checked.
    """

    def convert(text: str):
        try:
            values = tuple(map(parse, text.split(","))) if many else (parse(text),)
            if all(map(accept, values)):
                return values if many else values[0]
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


_finite = _checked(float, math.isfinite, "a finite decimal")
_floats = _checked(float, math.isfinite, "comma-separated finite decimals", many=True)
_positive = _checked(float, lambda x: 0 < x < math.inf, "a positive finite decimal")
_positive_int = _checked(int, lambda k: k > 0, "a positive integer")
_seed = _checked(int, lambda k: k >= 0, "a non-negative integer")
_dimension = _checked(int, lambda k: k >= 2, "an integer of at least 2")
_dimensions = _checked(int, lambda k: k >= 2, "comma-separated integers of at least 2", many=True)


def _unit_vector(text: str) -> tuple[float, ...]:
    values = _floats(text)
    try:
        SphereVector(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="qssgeo", description=__doc__)
    # Defaults live in RunConfig: a flag that is not given leaves no attribute.
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    # --seed only where inputs are drawn at random, --format only where a trajectory is written.
    options = {
        "--seed": dict(type=_seed),
        "--dt": dict(type=_positive),
        "--t-end": dict(type=_positive),
        "--format": dict(choices=["csv", "json"]),
    }
    trajectory = ("--dt", "--t-end", "--format")

    def common(p, *flags):
        p.add_argument("--out", dest="output_path", help="output path, '-' for stdout")
        for flag in flags:
            p.add_argument(flag, **options[flag])

    rho0 = dict(dest="input_path", required=True, help="start state, matrix JSON file")
    w0 = dict(type=_unit_vector, required=True, help="start vector, comma-separated")
    c = dict(dest="coupling", type=_floats, help="coupling values, comma-separated")

    p = command("geodesic", "evaluate a closed-form geodesic on a time grid")
    p.add_argument("--rho0", **rho0)
    p.add_argument("--x0", dest="tangent_path", help="initial tangent, matrix JSON file")
    p.add_argument("--c", **c | {"help": "coupling values; tangent becomes the flow field at rho0"})
    common(p, *trajectory)

    p = command("eahle", "integrate the matrix learning flow with RK4")
    p.add_argument("--rho0", **rho0)
    p.add_argument("--c", required=True, **c)
    common(p, *trajectory)

    p = command("ahle", "integrate the sphere learning rule with RK4")
    p.add_argument("--w0", **w0)
    p.add_argument("--c", required=True, **c)
    common(p, *trajectory)

    p = command("closed-form", "evaluate the sphere rule's exact solution")
    p.add_argument("--w0", **w0)
    p.add_argument("--c", required=True, **c)
    p.add_argument("--t", type=_finite, required=True, help="evaluation time")
    common(p)

    p = command("verify", "run the randomized verification suite")
    p.add_argument("--n", dest="n_values", type=_dimensions, required=True,
                   help="dimensions, comma-separated")
    p.add_argument("--cases", type=_positive_int, help="cases per dimension")
    p.add_argument("--tol", type=_positive)
    common(p, "--seed", "--dt", "--t-end")

    p = command("probe", "construct a flow realizing a random geodesic")
    p.add_argument("--n", type=_dimension, required=True, help="dimension, at least 2")
    # The witness is closed-form, so there is nothing to restart; the flag is
    # still accepted because existing invocations pass it.
    p.add_argument("--restarts", type=_positive_int, help="ignored")
    common(p, "--seed")

    return parser


def parse_args(argv) -> RunConfig:
    """Parse and validate ``argv`` into a RunConfig; raises UsageError.

    Each flag's type checks that flag's value; the checks here span flags
    or read the environment.
    """
    fields = vars(_build_parser().parse_args(argv))
    fields.pop("restarts", None)
    env_seed = os.environ.get("QSSGEO_SEED")
    if env_seed is not None and fields["command"] in ("verify", "probe"):
        try:
            fields["seed"] = _seed(env_seed)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"QSSGEO_SEED: {exc}")
    config = RunConfig(**fields)
    if config.dt > config.t_end:
        raise UsageError(f"--dt must not exceed --t-end, got {config.dt} > {config.t_end}")
    if config.command == "geodesic" and (config.tangent_path is None) == (
        config.coupling is None
    ):
        raise UsageError("geodesic requires exactly one of --x0 or --c")
    if config.n_values is not None and len(set(config.n_values)) < len(config.n_values):
        raise UsageError(f"--n must not repeat a dimension, got {','.join(map(str, config.n_values))}")
    return config


def _write_text(path: str, chunks) -> None:
    if path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _cmd_geodesic(config: RunConfig) -> int:
    rho0 = DensityMatrix(io.load_matrix(config.input_path))
    if config.coupling is not None:
        coupling = CouplingSpectrum(config.coupling)
        x0 = hebbian_initial_tangent(rho0, coupling)
        coupling_meta = config.coupling
    else:
        x0 = TangentVector(io.load_matrix(config.tangent_path), rho0)
        coupling_meta = ()
    spec = GeodesicSpec(rho0, x0)
    _, times = _step_schedule(config.t_end, config.dt)
    states = _StateStack(_geodesic_curves([spec], times)[0])
    traj = Trajectory(times, states, TrajectoryMeta("exact", config.dt, coupling_meta))
    _write_text(config.output_path, io.trajectory_chunks(traj, config.format))
    return 0


def _cmd_eahle(config: RunConfig) -> int:
    rho0 = DensityMatrix(io.load_matrix(config.input_path))
    coupling = CouplingSpectrum(config.coupling)
    traj = eahle_integrate(rho0, coupling, config.t_end, config.dt)
    _write_text(config.output_path, io.trajectory_chunks(traj, config.format))
    return 0


def _cmd_ahle(config: RunConfig) -> int:
    w0 = SphereVector(config.w0)
    coupling = CouplingSpectrum(config.coupling)
    traj = ahle_integrate(w0, coupling, config.t_end, config.dt)
    _write_text(config.output_path, io.trajectory_chunks(traj, config.format))
    return 0


def _cmd_closed_form(config: RunConfig) -> int:
    w0 = SphereVector(config.w0)
    coupling = CouplingSpectrum(config.coupling)
    w = ahle_closed_form(w0, coupling, config.t)
    _write_text(config.output_path, [io.vector_to_csv(w.values)])
    return 0


def _cmd_verify(config: RunConfig) -> int:
    reports = run_suite(
        config.n_values, config.cases, config.seed,
        t_end=config.t_end, dt=config.dt, tol=config.tol,
    )
    _write_text(config.output_path, [io.reports_to_json(reports)])
    print(suite_summary(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_probe(config: RunConfig) -> int:
    spec = random_geodesic_spec(config.n, config.seed)
    result = conjecture_probe(spec)
    payload = io.probe_result_to_dict(result)
    payload["seed"] = config.seed
    _write_text(config.output_path, [io.to_json(payload) + "\n"])
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
    except (OSError, ParseError, UsageError, DimensionMismatchError, DimensionTooSmallError,
            BaseMismatchError) as exc:
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
