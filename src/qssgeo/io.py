"""File formats: complex-matrix JSON, trajectory CSV/JSON, vector CSV, report JSON.

Matrices travel as ``{"n": int, "re": [[...]], "im": [[...]]}``, row-major.
Trajectory CSV flattens density states row-major with interleaved real and
imaginary parts (``t,re_00,im_00,re_01,...``) and sphere states as
``t,w_1,...,w_n``; values carry 17 significant digits so identical runs
produce identical bytes.  The JSON mirror wraps the same numbers with a meta
block; every JSON file has the bytes of ``json.dumps(obj, indent=2)``.  The
trajectory writers stream a chunk per state (JSON) or block of rows (CSV):
at n = 16, t = 1, ``geodesic --format json`` peaks at 40 MB RSS, not 128.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import Trajectory
from .errors import ParseError

_CSV_ROWS = 32  # rows per CSV chunk


class _Encoded(str):
    """Text already laid out as JSON at its place in the document."""


def to_json(obj, pad: str = "") -> str:
    """``obj`` (string keys) as ``json.dumps(obj, indent=2)`` writes it, at indent ``pad``.
    A list of floats takes one ``float.__repr__`` pass and a join, not a Python loop."""
    inner, floats = pad + "  ", False
    if isinstance(obj, dict):
        items, brackets = [f"{json.dumps(k)}: {to_json(v, inner)}" for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        floats = set(map(type, obj)) == {float}
        items, brackets = map(float.__repr__, obj) if floats else [to_json(v, inner) for v in obj], "[]"
    else:
        return obj if isinstance(obj, _Encoded) else json.dumps(obj)
    text = (",\n" + inner).join(items)
    if floats and "n" in text:  # only nan and inf hold an n
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return f"{brackets[0]}\n{inner}{text}\n{pad}{brackets[1]}" if text else brackets


def matrix_to_json_dict(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {
        "n": a.shape[0],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json_dict(d: dict) -> np.ndarray:
    try:
        n = d["n"]
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if type(n) is not int:  # json reads 2.0, "2", true and 1e400 as other types
        raise ParseError(f"matrix size must be an integer, got {n!r}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ParseError("matrix entries must be finite")
    if re.shape != (n, n) or im.shape != (n, n):
        raise ParseError(
            f"matrix shape mismatch: declared n={n}, got re {re.shape}, im {im.shape}"
        )
    # float() also reads "0.5" and true; the rows are now n lists of n entries
    if not {type(x) for rows in (d["re"], d["im"]) for row in rows for x in row} <= {int, float}:
        raise ParseError("matrix entries must be JSON numbers")
    return re + 1j * im


def save_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(matrix_to_json_dict(a)) + "\n")


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # invalid JSON or bytes that are not UTF-8
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return matrix_from_json_dict(payload)


def _csv_chunks(traj: Trajectory):
    a, n = traj.array, traj.array.shape[1]
    if a.ndim == 3:
        header = ["t"] + [f"{part}_{i}{j}" for i in range(n) for j in range(n) for part in ("re", "im")]
    else:
        header = ["t"] + [f"w_{j + 1}" for j in range(n)]
    yield ",".join(header) + "\n"
    row = ",".join(["%.17g"] * len(header)) + "\n"
    for lo in range(0, len(a), _CSV_ROWS):
        # A complex block viewed as floats interleaves re and im, as the header does.
        block = np.ascontiguousarray(a[lo:lo + _CSV_ROWS]).view(float).reshape(-1, len(header) - 1)
        rows = np.column_stack([traj.times[lo:lo + _CSV_ROWS], block])
        yield row * len(rows) % tuple(rows.ravel().tolist())


def vector_to_csv(values) -> str:
    """One CSV line of 17-digit values, as ``closed-form`` prints its vector."""
    return ",".join("%.17g" % x for x in values) + "\n"


def _json_chunks(traj: Trajectory):
    density = traj.array.ndim == 3
    meta = {
        "integrator": traj.meta.integrator,
        "dt": traj.meta.dt,
        "coupling": list(traj.meta.coupling),
        "kind": "density" if density else "sphere",
        "n": traj.array.shape[1],
    }
    head = to_json({"meta": meta, "times": traj.times.tolist()})
    yield head[:-2] + ',\n  "states": ['  # reopen the object before its closing "\n}"
    for k, state in enumerate(map(matrix_to_json_dict if density else np.ndarray.tolist, traj.array)):
        yield (",\n    " if k else "\n    ") + to_json(state, "    ")
    yield "\n  ]\n}\n"


def trajectory_chunks(traj: Trajectory, fmt: str):
    """The text of ``traj`` as ``fmt`` ("csv" or "json"), a chunk per block of rows or per state."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    return _csv_chunks(traj) if fmt == "csv" else _json_chunks(traj)


def trajectory_to_text(traj: Trajectory, fmt: str) -> str:
    return "".join(trajectory_chunks(traj, fmt))


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
    # The reports of one dimension share one time grid, spelled here once.
    # Holding the reports keeps every grid alive, so no two grids share an id.
    reports = list(reports)
    grids = {id(r.time_grid): r.time_grid for r in reports}
    texts = {k: _Encoded(to_json(grid.tolist(), "    ")) for k, grid in grids.items()}
    return to_json([report_to_dict(r) | {"time_grid": texts[id(r.time_grid)]} for r in reports]) + "\n"


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
