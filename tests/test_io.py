"""Tests for the matrix JSON format and trajectory exports."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qssgeo as q
from qssgeo import cli, io
from qssgeo.dynamics import _StateStack, _step_schedule
from qssgeo.geometry import _geodesic_curves


def test_matrix_round_trip(tmp_path):
    a = q.random_density(3, 5).entries
    path = tmp_path / "rho.json"
    io.save_matrix(str(path), a)
    back = io.load_matrix(str(path))
    np.testing.assert_allclose(back, a, atol=1e-16)


def test_matrix_dict_shape():
    d = io.matrix_to_json_dict(np.eye(2) / 2)
    assert d["n"] == 2
    assert d["re"] == [[0.5, 0.0], [0.0, 0.5]]
    assert d["im"] == [[0.0, 0.0], [0.0, 0.0]]


def test_matrix_from_dict_rejects_bad_shape():
    with pytest.raises(q.ParseError):
        io.matrix_from_json_dict({"n": 2, "re": [[1.0]], "im": [[0.0]]})


def test_matrix_from_dict_rejects_missing_key():
    with pytest.raises(q.ParseError):
        io.matrix_from_json_dict({"n": 2, "re": [[1, 0], [0, 1]]})


def test_load_matrix_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(q.ParseError):
        io.load_matrix(str(path))


def test_load_matrix_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "re": [[1]], "im": [[0]], "note": "\xe9"}')
    with pytest.raises(q.ParseError, match="latin1.json"):
        io.load_matrix(str(path))


def test_matrix_from_dict_rejects_infinite_size():
    # JSON reads 1e400 as inf, which no int can hold
    with pytest.raises(q.ParseError):
        io.matrix_from_json_dict(json.loads('{"n": 1e400, "re": [[1]], "im": [[0]]}'))


def test_matrix_from_dict_rejects_non_finite_entries():
    for re, im in (("[[NaN]]", "[[0]]"), ("[[1]]", "[[-Infinity]]"), ("[[1e400]]", "[[0]]")):
        with pytest.raises(q.ParseError, match="finite"):
            io.matrix_from_json_dict(json.loads(f'{{"n": 1, "re": {re}, "im": {im}}}'))
    # JSON reads these sizes as a float, a string and a bool, which int() took as 2, 2 and 1
    half = {"re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}
    for d in ({"n": 2.7} | half, {"n": "2"} | half, {"n": True, "re": [[1]], "im": [[0]]}):
        with pytest.raises(q.ParseError, match="integer"):
            io.matrix_from_json_dict(d)
    # entries that float() reads but that are not JSON numbers: strings and bools
    zero, half = "[[0, 0], [0, 0]]", "[[0.5, 0], [0, 0.5]]"
    for re, im in (('[["0.5", "0"], ["0", "0.5"]]', zero), ("[[true, false], [false, 0]]", zero),
                   ('[[0.5, 0], [0, "0.5"]]', zero), (half, "[[0, 0], [false, 0]]")):
        with pytest.raises(q.ParseError, match="JSON numbers"):
            io.matrix_from_json_dict(json.loads(f'{{"n": 2, "re": {re}, "im": {im}}}'))


def density_trajectory():
    rho = q.DensityMatrix(np.eye(2) / 2)
    return q.eahle_integrate(rho, q.CouplingSpectrum(np.array([1.0, 0.0])), 0.002, 1e-3)


def test_trajectory_chunks_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        io.trajectory_chunks(density_trajectory(), "xml")


def test_density_csv_layout():
    text = io.trajectory_to_text(density_trajectory(), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "t,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.5


def test_csv_17_digit_values():
    traj = q.ahle_integrate(
        q.SphereVector(np.array([1.0, 1.0]) / np.sqrt(2)),
        q.CouplingSpectrum(np.array([1.0, 0.0])),
        0.001,
        1e-3,
    )
    lines = io.trajectory_to_text(traj, "csv").strip().split("\n")
    assert lines[0] == "t,w_1,w_2"
    w1 = lines[1].split(",")[1]
    assert w1 == "0.70710678118654746"


def test_trajectory_json_mirror():
    traj = density_trajectory()
    d = json.loads(io.trajectory_to_text(traj, "json"))
    assert d["meta"]["kind"] == "density"
    assert d["meta"]["integrator"] == "rk4"
    assert d["meta"]["dt"] == 1e-3
    assert d["meta"]["coupling"] == [1.0, 0.0]
    assert d["meta"]["n"] == 2
    assert len(d["times"]) == len(d["states"]) == 3
    assert d["states"][0]["re"][0][0] == 0.5
    assert d == reference_json(traj)


def test_sphere_trajectory_json():
    traj = q.ahle_integrate(
        q.SphereVector(np.array([0.6, 0.8])), q.CouplingSpectrum(np.array([0.5, -0.5])),
        0.01, 1e-2,
    )
    d = json.loads(io.trajectory_to_text(traj, "json"))
    assert d["meta"]["kind"] == "sphere"
    assert d["states"][0] == [0.6, 0.8]
    assert d == reference_json(traj)


def test_reports_json():
    reports = q.run_suite([2], 1, seed=3)
    payload = json.loads(io.reports_to_json(reports))
    assert len(payload) == 2
    assert payload[0]["passed"] is True
    assert payload[0]["case_id"].startswith("flow-vs-geodesic")
    assert len(payload[0]["per_time_deviation"]) == len(payload[0]["time_grid"])


def test_probe_result_json():
    rho = q.random_density(2, 1)
    c = q.CouplingSpectrum(np.array([0.5, -0.5]))
    spec = q.GeodesicSpec(rho, q.hebbian_initial_tangent(rho, c))
    result = q.conjecture_probe(spec)
    d = io.probe_result_to_dict(result)
    assert d["n"] == 2
    assert d["residual"] <= 1e-6
    assert d["best_unitary"]["n"] == 2
    assert set(d) == {
        "n", "residual", "best_coupling", "best_unitary", "target_start", "target_initial_tangent"
    }


def stack(states):
    """The states' arrays as the _StateStack a Trajectory holds."""
    return _StateStack(np.stack([s.entries if isinstance(s, q.DensityMatrix) else s.values for s in states]))


def fixed_trajectories():
    meta = q.TrajectoryMeta("rk4", 0.25, (1.0, -0.5))
    times = np.array([0.0, 0.25])
    density = q.Trajectory(times, stack([
        q.DensityMatrix([[2 / 3, 0.1 - 0.2j], [0.1 + 0.2j, 1 / 3]]),
        q.DensityMatrix([[0.5, -1e-17 - 1j / 7], [-1e-17 + 1j / 7, 0.5]]),
    ]), meta)
    sphere = q.Trajectory(times, stack([
        q.SphereVector(np.array([0.6, -0.8])),
        q.SphereVector(np.array([1.0, 1.0]) / np.sqrt(2)),
    ]), meta)
    return density, sphere


# The bytes the per-entry writer (one "%.17g" call per value, states read
# one object at a time) produced for fixed_trajectories().
DENSITY_CSV = (
    "t,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11\n"
    "0,0.66666666666666663,0,0.10000000000000001,-0.20000000000000001,"
    "0.10000000000000001,0.20000000000000001,0.33333333333333331,0\n"
    "0.25,0.5,0,-1.0000000000000001e-17,-0.14285714285714285,"
    "-1.0000000000000001e-17,0.14285714285714285,0.5,0\n"
)
SPHERE_CSV = (
    "t,w_1,w_2\n"
    "0,0.59999999999999998,-0.80000000000000004\n"
    "0.25,0.70710678118654746,0.70710678118654746\n"
)
META_JSON = (
    '{"meta": {"integrator": "rk4", "dt": 0.25, "coupling": [1.0, -0.5], "kind": "%s", "n": 2}, '
    '"times": [0.0, 0.25], '
)
DENSITY_JSON = META_JSON % "density" + (
    '"states": [{"n": 2, "re": [[0.6666666666666666, 0.1], [0.1, 0.3333333333333333]], '
    '"im": [[0.0, -0.2], [0.2, 0.0]]}, {"n": 2, "re": [[0.5, -1e-17], [-1e-17, 0.5]], '
    '"im": [[0.0, -0.14285714285714285], [0.14285714285714285, 0.0]]}]}\n'
)
SPHERE_JSON = META_JSON % "sphere" + (
    '"states": [[0.6, -0.8], [0.7071067811865475, 0.7071067811865475]]}\n'
)


def test_trajectory_writers_bytes_unchanged():
    density, sphere = fixed_trajectories()
    assert io.trajectory_to_text(density, "csv") == DENSITY_CSV
    assert io.trajectory_to_text(sphere, "csv") == SPHERE_CSV
    assert io.trajectory_to_text(density, "json") == DENSITY_JSON
    assert io.trajectory_to_text(sphere, "json") == SPHERE_JSON


def reference_csv(traj):
    """The whole-string CSV writer: one "%.17g" row format per state, lines joined."""
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


def reference_json(traj):
    """The trajectory JSON as a dict, built from the trajectory's fields alone."""
    a = traj.array
    meta = {
        "integrator": traj.meta.integrator,
        "dt": traj.meta.dt,
        "coupling": list(traj.meta.coupling),
        "kind": "density" if a.ndim == 3 else "sphere",
        "n": a.shape[1],
    }
    if a.ndim == 3:
        states = [{"n": len(s), "re": s.real.tolist(), "im": s.imag.tolist()} for s in a]
    else:
        states = a.tolist()
    return {"meta": meta, "times": traj.times.tolist(), "states": states}


def assert_writers_match_references(traj):
    text = io.trajectory_to_text(traj, "json")
    assert text == json.dumps(reference_json(traj)) + "\n"
    assert json.loads(text) == reference_json(traj)
    assert io.trajectory_to_text(traj, "csv") == reference_csv(traj)
    # a chunk per state for JSON (plus head and tail), per block of rows for CSV
    assert len(list(io.trajectory_chunks(traj, "json"))) == len(traj) + 2
    assert len(list(io.trajectory_chunks(traj, "csv"))) == 1 + math.ceil(len(traj) / io._CSV_ROWS)


@settings(max_examples=60, deadline=None)
@given(
    density=st.booleans(),
    n=st.integers(2, 5),
    count=st.integers(1, io._CSV_ROWS + 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_writers_match_whole_string_writers(density, n, count, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(10.0 ** rng.uniform(-6, 2, count)) - 1.0
    if density:
        states = [q.random_density(n, seed + k) for k in range(count)]
    else:
        states = [q.SphereVector(w / np.linalg.norm(w)) for w in rng.standard_normal((count, n))]
    meta = q.TrajectoryMeta("rk4", float(rng.uniform(1e-4, 1)), tuple(rng.uniform(-1, 1, n).tolist()))
    assert_writers_match_references(q.Trajectory(times, stack(states), meta))


# -0.0, subnormals, the extremes and integer-valued floats; repr and %.17g
# spell each of these differently from the common case
SPECIAL = [-1e308, -2.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 3.0, 2.0**53, 1e16,
           1e22, 1e308]


def test_writers_spell_special_values_like_json_dumps():
    times = np.array(SPECIAL)
    meta = q.TrajectoryMeta("exact", 1e-308, (-0.0, 5e-324, 1.0, -1e308))
    sphere = [q.SphereVector(np.array(w)) for w in ([-0.0, 1.0], [1.0, -0.0], [5e-324, 1.0])]
    sphere += [q.SphereVector(np.array([0.6, -0.8]))] * (len(SPECIAL) - 3)
    assert_writers_match_references(q.Trajectory(times, stack(sphere), meta))
    states = [q.DensityMatrix(np.diag([0.5, 0.5]) + 1e-310 * np.array([[0, 1], [1, 0]]))]
    states += [q.DensityMatrix(np.diag([0.75, 0.25]))] * (len(SPECIAL) - 1)
    assert_writers_match_references(q.Trajectory(times, stack(states), meta))


def report(case_id, grid, devs):
    return q.VerificationReport(case_id, 2, 7, grid, np.asarray(devs, dtype=float), 1e-6)


def test_reports_json_matches_json_dumps():
    grid = np.array([0.0, 0.5, 1.0])
    shared = [report("a", grid, [0.0, 1e-9, 2e-9]), report("b", grid, [0.0, 3e-9, 1e-7])]
    assert shared[0].time_grid is not shared[1].time_grid  # each report keeps its own copy of the caller's grid
    distinct = [report("c", grid.copy(), [0.0, 1e-9, 2e-9]), report("d", np.array([0.0, 2.0]), [0.0, 1.0])]
    non_finite = [report("nan", grid, [0.0, np.nan, 1.0]), report("inf", grid, [np.inf, -np.inf, 0.0])]
    assert not non_finite[0].passed and math.isnan(non_finite[0].max_deviation)
    for reports in ([], shared, distinct, non_finite, shared + distinct + non_finite,
                    q.run_suite([2, 3], 1, seed=3)):
        expected = json.dumps([io.report_to_dict(r) for r in reports]) + "\n"
        assert io.reports_to_json(reports) == expected
    assert io.reports_to_json([]) == "[]\n"


def test_matrix_and_probe_files_match_json_dumps(tmp_path, capsys):
    a = q.random_density(3, 5).entries
    path = tmp_path / "rho.json"
    io.save_matrix(str(path), a)
    assert path.read_text() == json.dumps(io.matrix_to_json_dict(a)) + "\n"
    for n in (2, 8):
        out = tmp_path / f"probe{n}.json"
        assert cli.main(["probe", "--n", str(n), "--seed", "3", "--out", str(out)]) == 0
        payload = io.probe_result_to_dict(q.conjecture_probe(q.random_geodesic_spec(n, 3)))
        assert out.read_text() == json.dumps(payload | {"seed": 3}) + "\n"
    capsys.readouterr()


def test_trajectory_file_is_written_in_bounded_memory(tmp_path):
    # n = 16, T = 1001: the geodesic command's trajectory.  Its JSON is 11 MB
    # and its CSV 11 MB; the whole-string writers held several times that.
    rho = q.random_density(16, 1)
    coupling = q.CouplingSpectrum(np.linspace(-1, 1, 16))
    spec = q.GeodesicSpec(rho, q.hebbian_initial_tangent(rho, coupling))
    _, times = _step_schedule(1.0, 1e-3)
    traj = q.Trajectory(times, _StateStack(_geodesic_curves([spec], times)[0]),
                        q.TrajectoryMeta("exact", 1e-3, tuple(coupling.values.tolist())))
    for fmt in ("csv", "json"):
        path = tmp_path / f"traj.{fmt}"
        tracemalloc.start()
        try:
            cli._write_text(str(path), io.trajectory_chunks(traj, fmt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4, (fmt, peak, path.stat().st_size)
