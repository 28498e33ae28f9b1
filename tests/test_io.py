"""Tests for the matrix JSON format and trajectory exports."""

import json

import numpy as np
import pytest

import qssgeo as q
from qssgeo import io


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


def density_trajectory():
    rho = q.make_density(np.eye(2) / 2)
    return q.eahle_integrate(rho, q.CouplingSpectrum(np.array([1.0, 0.0])), 0.002, 1e-3)


def test_density_csv_layout():
    text = io.trajectory_to_csv(density_trajectory())
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
    lines = io.trajectory_to_csv(traj).strip().split("\n")
    assert lines[0] == "t,w_1,w_2"
    w1 = lines[1].split(",")[1]
    assert w1 == "0.70710678118654746"


def test_trajectory_json_mirror():
    traj = density_trajectory()
    d = io.trajectory_to_json_dict(traj)
    assert d["meta"]["kind"] == "density"
    assert d["meta"]["integrator"] == "rk4"
    assert d["meta"]["dt"] == 1e-3
    assert d["meta"]["coupling"] == [1.0, 0.0]
    assert d["meta"]["n"] == 2
    assert len(d["times"]) == len(d["states"]) == 3
    assert d["states"][0]["re"][0][0] == 0.5
    # survives a JSON round trip
    again = json.loads(json.dumps(d))
    assert again == d


def test_sphere_trajectory_json():
    traj = q.ahle_integrate(
        q.SphereVector(np.array([0.6, 0.8])), q.CouplingSpectrum(np.array([0.5, -0.5])),
        0.01, 1e-2,
    )
    d = io.trajectory_to_json_dict(traj)
    assert d["meta"]["kind"] == "sphere"
    assert d["states"][0] == [0.6, 0.8]


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


def fixed_trajectories():
    meta = q.TrajectoryMeta("rk4", 0.25, (1.0, -0.5))
    times = np.array([0.0, 0.25])
    density = q.Trajectory(times, [
        q.make_density([[2 / 3, 0.1 - 0.2j], [0.1 + 0.2j, 1 / 3]]),
        q.make_density([[0.5, -1e-17 - 1j / 7], [-1e-17 + 1j / 7, 0.5]]),
    ], meta)
    sphere = q.Trajectory(times, [
        q.SphereVector(np.array([0.6, -0.8])),
        q.SphereVector(np.array([1.0, 1.0]) / np.sqrt(2)),
    ], meta)
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
    '{\n  "meta": {\n    "integrator": "rk4",\n    "dt": 0.25,\n    "coupling": [\n'
    '      1.0,\n      -0.5\n    ],\n    "kind": "%s",\n    "n": 2\n'
    '  },\n  "times": [\n    0.0,\n    0.25\n  ],\n'
)
DENSITY_JSON = META_JSON % "density" + (
    '  "states": [\n    {\n      "n": 2,\n      "re": [\n        [\n'
    '          0.6666666666666666,\n          0.1\n        ],\n        [\n'
    '          0.1,\n          0.3333333333333333\n        ]\n      ],\n'
    '      "im": [\n        [\n          0.0,\n          -0.2\n        ],\n'
    '        [\n          0.2,\n          0.0\n        ]\n      ]\n    },\n'
    '    {\n      "n": 2,\n      "re": [\n        [\n          0.5,\n'
    '          -1e-17\n        ],\n        [\n          -1e-17,\n          0.5\n'
    '        ]\n      ],\n      "im": [\n        [\n          0.0,\n'
    '          -0.14285714285714285\n        ],\n        [\n'
    '          0.14285714285714285,\n          0.0\n        ]\n      ]\n    }\n'
    '  ]\n}\n'
)
SPHERE_JSON = META_JSON % "sphere" + (
    '  "states": [\n    [\n      0.6,\n      -0.8\n    ],\n    [\n'
    '      0.7071067811865475,\n      0.7071067811865475\n    ]\n  ]\n}\n'
)


def test_trajectory_writers_bytes_unchanged():
    density, sphere = fixed_trajectories()
    assert io.trajectory_to_text(density, "csv") == DENSITY_CSV
    assert io.trajectory_to_text(sphere, "csv") == SPHERE_CSV
    assert io.trajectory_to_text(density, "json") == DENSITY_JSON
    assert io.trajectory_to_text(sphere, "json") == SPHERE_JSON
