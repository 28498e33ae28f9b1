"""File formats: complex-matrix JSON, trajectory CSV/JSON, report JSON.

Matrices travel as ``{"n": int, "re": [[...]], "im": [[...]]}``, row-major.
Trajectory CSV flattens density states row-major with interleaved real and
imaginary parts (``t,re_00,im_00,re_01,...``) and sphere states as
``t,w_1,...,w_n``; values carry 17 significant digits so identical runs
produce identical bytes.  The JSON mirror wraps the same numbers with a meta
block.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import Trajectory
from .errors import ParseError


def matrix_to_json_dict(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {
        "n": a.shape[0],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json_dict(d: dict) -> np.ndarray:
    try:
        n = int(d["n"])
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ParseError("matrix entries must be finite")
    if re.shape != (n, n) or im.shape != (n, n):
        raise ParseError(
            f"matrix shape mismatch: declared n={n}, got re {re.shape}, im {im.shape}"
        )
    return re + 1j * im


def save_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json_dict(a), fh, indent=2)
        fh.write("\n")


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # invalid JSON or bytes that are not UTF-8
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return matrix_from_json_dict(payload)


def _trajectory_kind(traj: Trajectory) -> str:
    return "density" if traj.array.ndim == 3 else "sphere"


def trajectory_to_csv(traj: Trajectory) -> str:
    a = traj.array
    n = a.shape[1]
    if a.ndim == 3:
        header = ["t"]
        for i in range(n):
            for j in range(n):
                header += [f"re_{i}{j}", f"im_{i}{j}"]
        values = np.stack([a.real, a.imag], axis=-1)
    else:
        header = ["t"] + [f"w_{j + 1}" for j in range(n)]
        values = a
    rows = np.column_stack([traj.times, values.reshape(len(a), -1)])
    row_format = ",".join(["%.17g"] * rows.shape[1])
    lines = [",".join(header)] + [row_format % tuple(row) for row in rows.tolist()]
    return "\n".join(lines) + "\n"


def trajectory_to_json_dict(traj: Trajectory) -> dict:
    kind = _trajectory_kind(traj)
    if kind == "density":
        states = [matrix_to_json_dict(a) for a in traj.array]
    else:
        states = traj.array.tolist()
    return {
        "meta": {
            "integrator": traj.meta.integrator,
            "dt": traj.meta.dt,
            "coupling": list(traj.meta.coupling),
            "kind": kind,
            "n": traj.array.shape[1],
        },
        "times": traj.times.tolist(),
        "states": states,
    }


def trajectory_to_text(traj: Trajectory, fmt: str) -> str:
    if fmt == "csv":
        return trajectory_to_csv(traj)
    if fmt == "json":
        return json.dumps(trajectory_to_json_dict(traj), indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def report_to_dict(report) -> dict:
    return {
        "case_id": report.case_id,
        "n": report.n,
        "seed": report.seed,
        "max_deviation": report.max_deviation,
        "time_grid": report.time_grid.tolist(),
        "per_time_deviation": report.per_time_deviation.tolist(),
        "passed": report.passed,
        "tolerance": report.tolerance,
    }


def reports_to_json(reports) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"


def probe_result_to_dict(result) -> dict:
    return {
        "n": result.target_spec.dim,
        "residual": result.residual,
        "best_coupling": result.best_coupling.values.tolist(),
        "best_unitary": matrix_to_json_dict(result.best_unitary),
        "target_start": matrix_to_json_dict(result.target_spec.start.entries),
        "target_initial_tangent": matrix_to_json_dict(
            result.target_spec.initial_tangent.entries
        ),
    }
