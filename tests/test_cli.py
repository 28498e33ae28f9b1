"""Tests for argument parsing, command dispatch, and the exit-code contract."""

import argparse
import json
import mmap
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qssgeo
from qssgeo import cli, errors, io
from qssgeo.cli import _build_parser, main, parse_args, run
from qssgeo.errors import UsageError


def test_parse_verify_defaults():
    config = parse_args(["verify", "--n", "3", "--cases", "10", "--seed", "42"])
    assert config.command == "verify"
    assert config.n_values == (3,)
    assert config.cases == 10
    assert config.seed == 42
    assert config.dt == 1e-3
    assert config.t_end == 1.0
    assert config.tol == 1e-6
    assert config.format == "csv"


def test_parse_eahle_round_trip():
    config = parse_args(
        ["eahle", "--rho0", "rho.json", "--c", "1,0", "--t-end", "0.693147", "--out", "traj.csv"]
    )
    assert config.command == "eahle"
    assert config.input_path == "rho.json"
    assert config.coupling == (1.0, 0.0)
    assert config.t_end == 0.693147
    assert config.output_path == "traj.csv"


def test_parse_rejects_negative_dt():
    with pytest.raises(UsageError, match="--dt"):
        parse_args(["eahle", "--rho0", "rho.json", "--c", "1,0", "--dt", "-1"])


def test_parse_rejects_bad_vector():
    with pytest.raises(UsageError, match="--c"):
        parse_args(["ahle", "--w0", "1,0", "--c", "1,zap"])


def test_parse_rejects_unknown_command():
    with pytest.raises(UsageError):
        parse_args(["quux"])


def test_parse_geodesic_needs_one_tangent_source():
    with pytest.raises(UsageError, match="--x0 or --c"):
        parse_args(["geodesic", "--rho0", "rho.json"])
    with pytest.raises(UsageError, match="--x0 or --c"):
        parse_args(["geodesic", "--rho0", "rho.json", "--x0", "x.json", "--c", "1,0"])


def test_env_seed_override(monkeypatch, capsys):
    monkeypatch.setenv("QSSGEO_SEED", "777")
    config = parse_args(["verify", "--n", "2", "--seed", "1"])
    assert config.seed == 777
    monkeypatch.setenv("QSSGEO_SEED", "not-a-number")
    with pytest.raises(UsageError, match="QSSGEO_SEED"):
        parse_args(["verify", "--n", "2"])
    # commands without --seed ignore the variable
    argv = ["closed-form", "--w0", "0.6,0.8", "--c", "1,0", "--t", "1"]
    assert parse_args(argv).seed == 0
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.delenv("QSSGEO_SEED")
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_closed_form_stdout(capsys):
    code = main(
        [
            "closed-form",
            "--w0", "0.7071067811865476,0.7071067811865476",
            "--c", "1,0",
            "--t", "0.6931471805599453",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    values = [float(tok) for tok in out.split(",")]
    np.testing.assert_allclose(values, [2 / np.sqrt(5), 1 / np.sqrt(5)], atol=1e-12)


def test_readme_closed_form_stdout_bytes():
    # the README command, as a fresh process: stdout is exactly one %.17g line
    proc = subprocess.run(
        [sys.executable, "-m", "qssgeo.cli", "closed-form",
         "--w0", "0.7071067811865476,0.7071067811865476", "--c", "1,0", "--t", "0.6931471805599453"],
        capture_output=True, env=_env_with_package(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"0.89442719099991586,0.44721359549995793\n"


def test_eahle_run_reproducible(tmp_path):
    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), np.eye(2) / 2)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["eahle", "--rho0", str(rho_path), "--c", "1,0", "--t-end", "0.01"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().split("\n", 1)[0]
    assert header == "t,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11"


def test_geodesic_matches_integrated_flow(tmp_path):
    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), np.diag([0.6, 0.4]))
    flow_out = tmp_path / "flow.json"
    geo_out = tmp_path / "geo.json"
    base = ["--rho0", str(rho_path), "--c", "0.5,-0.5", "--t-end", "0.5", "--format", "json"]
    assert main(["eahle"] + base + ["--out", str(flow_out)]) == 0
    assert main(["geodesic"] + base + ["--out", str(geo_out)]) == 0
    flow = json.loads(flow_out.read_text())
    geo = json.loads(geo_out.read_text())
    assert flow["times"] == geo["times"]
    worst = max(
        abs(fs["re"][i][j] - gs["re"][i][j])
        for fs, gs in zip(flow["states"], geo["states"])
        for i in range(2)
        for j in range(2)
    )
    assert worst <= 1e-9


def test_geodesic_with_tangent_file(tmp_path):
    rho_path = tmp_path / "rho.json"
    x_path = tmp_path / "x.json"
    io.save_matrix(str(rho_path), np.eye(2) / 2)
    io.save_matrix(str(x_path), np.diag([0.5, -0.5]))
    out = tmp_path / "geo.csv"
    code = main(
        ["geodesic", "--rho0", str(rho_path), "--x0", str(x_path),
         "--t-end", "0.6931471805599453", "--dt", "0.6931471805599453",
         "--out", str(out)]
    )
    assert code == 0
    last = out.read_text().strip().split("\n")[-1].split(",")
    assert float(last[1]) == pytest.approx(0.8, abs=1e-12)


def test_missing_input_file_exit_code(tmp_path):
    code = main(["geodesic", "--rho0", str(tmp_path / "missing.json"), "--c", "1,0"])
    assert code == 2


def test_unparseable_input_file_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["eahle", "--rho0", str(bad), "--c", "1,0"])
    assert code == 2


def test_numerical_error_exit_code(tmp_path):
    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), np.diag([0.999, 0.001]))
    code = main(
        ["eahle", "--rho0", str(rho_path), "--c", "8,-8", "--t-end", "3", "--dt", "0.5"]
    )
    assert code == 3


def test_usage_error_exit_code():
    assert main(["eahle", "--rho0", "rho.json", "--c", "1,0", "--dt", "-1"]) == 2


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--n", "2", "--cases", "5", "--seed", "0", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 10
    assert all(r["passed"] for r in reports)
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("PASS 10/10")


def test_verify_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--n", "2", "--cases", "1", "--seed", "0",
         "--tol", "1e-300", "--out", str(out)]
    )
    assert code == 1
    assert "PASS 0/2" in capsys.readouterr().out


def test_probe_command(tmp_path, capsys):
    out = tmp_path / "probe.json"
    code = main(["probe", "--n", "2", "--seed", "3", "--restarts", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 2
    assert np.isfinite(payload["residual"])
    assert "probe best residual" in capsys.readouterr().out


def test_probe_any_dimension_from_two(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert main(["probe", "--n", "8", "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 8
    assert payload["residual"] <= 1e-12
    assert main(["probe", "--n", "1"]) == 2
    assert "--n" in capsys.readouterr().err


def _env_with_package():
    src = os.path.dirname(os.path.dirname(qssgeo.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}


@pytest.mark.parametrize(
    "argv",
    [
        ["ahle", "--c=nan,0", "--w0", "0.6,0.8"],
        ["ahle", "--w0", "1,1", "--c", "1,0"],
        ["ahle", "--w0", "0.6,0.8", "--c", "1,0", "--dt", "nan"],
        ["eahle", "--rho0", "rho.json", "--c", "1,0", "--t-end", "inf"],
        ["closed-form", "--w0", "0.6,0.8", "--c", "1,-inf", "--t", "1"],
        ["closed-form", "--w0", "0.6,0.8", "--c", "1,0", "--t", "nan"],
        ["verify", "--n", "2", "--tol", "nan"],
        ["probe", "--n", "2", "--restarts", "0"],
        ["verify", "--n", "2,3,2"],
    ],
)
def test_bad_number_is_usage_error(argv):
    # run as a subprocess so an uncaught exception would show as a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "qssgeo.cli", *argv],
        capture_output=True, text=True, env=_env_with_package(), timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "w0, c, t, limit",
    [
        ("0.6,0.8", "2,0", "1e308", "1,0"),
        ("0.6,0.8", "2,0", "-1e308", "0,1"),
        # the shift comes from the support of w0, not from the zero entry
        ("0,1", "2,0", "1e308", "0,1"),
        # a tiny surviving entry is scaled up before the norm, not underflowed
        ("1e-200,1", "2,0", "1e308", "1,0"),
    ],
)
def test_closed_form_extreme_time_prints_finite_limit(w0, c, t, limit, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["closed-form", "--w0", w0, "--c", c, f"--t={t}"])
    assert code == 0
    assert capsys.readouterr().out == limit + "\n"


def test_huge_step_count_is_usage_error(tmp_path):
    # 10^15 grid points (7 PiB) exceed any address space, so the allocation
    # fails before any memory is committed; 10^298 points exceed the largest
    # array numpy can describe, and 0.01 / 1e-320 overflows to inf
    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), np.eye(2) / 2)
    for t_end, dt in [("1e12", "1e-3"), ("0.01", "1e-320"), ("0.01", "1e-300")]:
        argv = ["eahle", "--rho0", str(rho_path), "--c", "1,0", "--t-end", t_end, "--dt", dt]
        _assert_one_line_exit(_run_cli(argv, tmp_path), 2)


def test_geodesic_and_eahle_share_time_grid(tmp_path):
    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), np.diag([0.6, 0.4]))
    # t_end / dt = 3.3: three full steps and a shortened last one
    base = ["--rho0", str(rho_path), "--c", "0.5,-0.5", "--t-end", "0.33", "--dt", "0.1"]
    columns = []
    for command in ("eahle", "geodesic"):
        out = tmp_path / f"{command}.csv"
        assert main([command, *base, "--out", str(out)]) == 0
        columns.append([line.split(",", 1)[0] for line in out.read_text().splitlines()[1:]])
    assert columns[0] == columns[1]
    assert [float(t) for t in columns[0]] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.33])


def test_import_does_not_load_scipy():
    # importing the CLI adds only the standard library, numpy and qssgeo to
    # what a bare interpreter has loaded (site hooks may load more there)
    def loaded(code):
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
            capture_output=True, text=True, env=_env_with_package(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = {name.partition(".")[0] for name in loaded("import qssgeo.cli") - loaded("pass")}
    assert "scipy" not in added
    assert added <= set(sys.stdlib_module_names) | {"numpy", "qssgeo"}, sorted(added)


# The documented exit code of every QssError class, with arguments to build
# one; a class missing here fails the test until its code is decided.
_ERROR_EXITS = {
    errors.ParseError: (2, ("bad file",)),
    errors.UsageError: (2, ("bad flag",)),
    errors.DimensionMismatchError: (2, ("dimension 2 != 3",)),
    errors.BaseMismatchError: (2, ("not attached",)),
    errors.DimensionTooSmallError: (2, (1,)),
    errors.QssError: (3, ("failed",)),
    errors.InvalidValueError: (3, ("bad value",)),
    errors.NotHermitianError: (3, (0.5,)),
    errors.NotUnitTraceError: (3, (0.5,)),
    errors.NotTracelessError: (3, (0.5,)),
    errors.NotPositiveDefiniteError: (3, (-0.5,)),
    errors.NotInSldSpaceError: (3, (0.5,)),
    errors.DecompositionFailedError: (3, ("did not converge",)),
    errors.InvalidStepError: (3, ("bad step",)),
    errors.StepTooLargeError: (3, (1.0, -0.5)),
    errors.ZeroComponentError: (3, (0, 0.0)),
}


def test_every_error_class_has_its_exit_code(monkeypatch, capsys):
    classes = {
        c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.QssError)
    }
    assert classes == set(_ERROR_EXITS)
    config = parse_args(["closed-form", "--w0", "0.6,0.8", "--c", "1,0", "--t", "1"])
    for cls, (code, args) in _ERROR_EXITS.items():
        error = cls(*args)

        def fail(*_):
            raise error

        monkeypatch.setattr(cli, "ahle_closed_form", fail)
        assert run(config) == code, cls.__name__
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1, cls.__name__
        prefix = "error: " if code == 2 else "numerical error: "
        assert err == f"{prefix}{error}\n", cls.__name__


def test_every_error_class_pickles_as_itself():
    # a worker process hands its error back pickled: args rebuild it
    for cls, (_, args) in _ERROR_EXITS.items():
        error = cls(*args)
        error.position = (1, 0)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls, cls.__name__
        assert copy.args == args and str(copy) == str(error), cls.__name__
        assert vars(copy) == vars(error), cls.__name__


def test_decomposition_failure_is_numerical_error(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), np.eye(2) / 2)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["geodesic", "--rho0", str(rho_path), "--c", "1,0", "--t-end", "0.01"]) == 3
    err = capsys.readouterr().err
    assert err == "numerical error: Eigenvalues did not converge\n"


def test_trajectory_the_system_cannot_map_is_usage_error(tmp_path, monkeypatch, capsys):
    # the mapping fails as it does when the system refuses one; none is made
    def refuse(*args):
        raise OSError(12, "Cannot allocate memory")

    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), np.eye(2) / 2)
    monkeypatch.setattr(mmap, "mmap", refuse)
    rho, c = qssgeo.DensityMatrix(np.eye(2) / 2), qssgeo.CouplingSpectrum([1.0, 0.0])
    with pytest.raises(MemoryError, match="cannot map 404 entries of complex128"):
        qssgeo.eahle_integrate(rho, c, 1.0, 0.01)
    assert main(["eahle", "--rho0", str(rho_path), "--c", "1,0", "--t-end", "0.01"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: out of memory: cannot map ")
    assert len(err.splitlines()) == 1


def test_start_that_overflows_when_symmetrized_is_numerical_error(tmp_path, capsys):
    # exactly Hermitian with unit trace; its Hermitian part is not finite
    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), np.array([[0.5, 1e308], [1e308, 0.5]]))
    assert main(["eahle", "--rho0", str(rho_path), "--c", "1,0", "--t-end", "0.01"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "numerical error: matrix is not positive definite: smallest eigenvalue = nan\n")


def test_run_config_is_usable_directly(tmp_path):
    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), np.eye(2) / 2)
    config = parse_args(
        ["ahle", "--w0", "0.6,0.8", "--c", "1,0", "--t-end", "0.1", "--out",
         str(tmp_path / "w.csv")]
    )
    assert run(config) == 0
    header = (tmp_path / "w.csv").read_text().split("\n", 1)[0]
    assert header == "t,w_1,w_2"


def _write_inputs(path):
    """Valid and unreadable input files, named as the argv below name them."""
    io.save_matrix(str(path / "rho.json"), np.eye(2) / 2)
    io.save_matrix(str(path / "rho3.json"), np.diag([0.4, 0.3, 0.3]))
    io.save_matrix(str(path / "rho1.json"), np.eye(1))
    io.save_matrix(str(path / "x.json"), np.diag([0.1, -0.1]))
    io.save_matrix(str(path / "x3.json"), np.diag([0.1, -0.1, 0.0]))
    io.save_matrix(str(path / "rho_huge.json"), np.diag([1e308, 1e308]))
    io.save_matrix(str(path / "x_huge.json"), np.diag([1e308, -1e308]))
    (path / "latin1.json").write_bytes(b'{"n": 2, "note": "\xe9"}')
    (path / "huge_n.json").write_text('{"n": 1e400, "re": [[1]], "im": [[0]]}')
    (path / "nan.json").write_text('{"n": 2, "re": [[NaN, 0], [0, 0]], "im": [[0, 0], [0, 0]]}')
    (path / "inf.json").write_text(
        '{"n": 2, "re": [[Infinity, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}'
    )
    # sizes that int() read as 2, 2 and 1, each with a matrix of that size
    for name, n, re, im in (("float_n", "2.7", "[[0.5, 0], [0, 0.5]]", "[[0, 0], [0, 0]]"),
                            ("string_n", '"2"', "[[0.5, 0], [0, 0.5]]", "[[0, 0], [0, 0]]"),
                            ("bool_n", "true", "[[1]]", "[[0]]")):
        (path / f"{name}.json").write_text(f'{{"n": {n}, "re": {re}, "im": {im}}}')
    # entries that float() read as numbers: strings, and bools mixed with integers
    (path / "string_entries.json").write_text(
        '{"n": 2, "re": [["0.5", "0"], ["0", "0.5"]], "im": [[0, 0], [0, 0]]}'
    )
    (path / "bool_entries.json").write_text(
        '{"n": 2, "re": [[true, false], [false, 0]], "im": [[0, 0], [0, 0]]}'
    )
    (path / "dir").mkdir(exist_ok=True)


def _run_cli(argv, cwd):
    # run as a subprocess so an uncaught exception would show as a traceback
    return subprocess.run(
        [sys.executable, "-m", "qssgeo.cli", *argv],
        capture_output=True, text=True, env=_env_with_package(), timeout=60, cwd=cwd,
    )


def _assert_one_line_exit(proc, code):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


_OUT_DIR_ARGV = [
    ["geodesic", "--rho0", "rho.json", "--c", "1,0", "--t-end", "0.01"],
    ["eahle", "--rho0", "rho.json", "--c", "1,0", "--t-end", "0.01"],
    ["ahle", "--w0", "0.6,0.8", "--c", "1,0", "--t-end", "0.01"],
    ["closed-form", "--w0", "0.6,0.8", "--c", "1,0", "--t", "1"],
    ["verify", "--n", "2", "--cases", "1", "--t-end", "0.01"],
    ["probe", "--n", "2"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["eahle", "--rho0", "dir", "--c", "1,0"],
        ["geodesic", "--rho0", "rho.json", "--x0", "dir"],
        ["eahle", "--rho0", "latin1.json", "--c", "1,0"],
        ["eahle", "--rho0", "huge_n.json", "--c", "1,0"],
        *(argv + ["--out", "dir"] for argv in _OUT_DIR_ARGV),
        ["geodesic", "--rho0", "rho.json", "--x0", "nan.json"],
        ["eahle", "--rho0", "inf.json", "--c", "1,0"],
        ["eahle", "--rho0", "float_n.json", "--c", "1,0"],
        ["eahle", "--rho0", "string_n.json", "--c", "1,0"],
        ["eahle", "--rho0", "bool_n.json", "--c", "1,0"],
        ["eahle", "--rho0", "string_entries.json", "--c", "1,0"],
        ["eahle", "--rho0", "bool_entries.json", "--c", "1,0"],
    ],
)
def test_unreadable_path_is_usage_error(argv, tmp_path):
    _write_inputs(tmp_path)
    _assert_one_line_exit(_run_cli(argv, tmp_path), 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["ahle", "--w0=0.6,0.8", "--c=1e200,0", "--t-end", "0.01", "--dt", "0.01"],
        ["eahle", "--rho0", "rho.json", "--c=1e200,0", "--t-end", "0.01", "--dt", "0.01"],
        # from n = 3 LAPACK rejects the overflowed state's NaN; the Hermitian
        # check must still report it
        ["eahle", "--rho0", "rho3.json", "--c=1e200,0,0", "--t-end", "0.01", "--dt", "0.01"],
        # the exact geodesic leaves the state space: smallest eigenvalue 3.7e-44 at t = 5
        ["geodesic", "--rho0", "rho.json", "--c", "5,-5", "--t-end", "5", "--dt", "0.1"],
        # c_1 + c_1 overflows in the field itself, so 0 * inf makes it NaN
        ["eahle", "--rho0", "rho.json", "--c=1e308,0", "--t-end", "0.01", "--dt", "0.01"],
        ["geodesic", "--rho0", "rho.json", "--c=1e308,0", "--t-end", "0.01", "--dt", "0.01"],
        # A + A^H overflows in the state check and, for the 1e200 tangent, the
        # norms of eig_hermitian's reconstruction check; the exactly Hermitian
        # 1e308 tangent passes its check, and its SLD overflows
        ["eahle", "--rho0", "rho_huge.json", "--c", "1,0", "--t-end", "0.01", "--dt", "0.01"],
        ["geodesic", "--rho0", "rho.json", "--c=1e200,0", "--t-end", "0.01", "--dt", "0.01"],
        ["geodesic", "--rho0", "rho.json", "--x0", "x_huge.json", "--t-end", "0.01", "--dt", "0.01"],
    ],
)
def test_overflowing_flow_is_numerical_error(argv, tmp_path):
    # the state overflows in the first RK4 step, or leaves the state space;
    # the state check reports it as one line, with no RuntimeWarning before it
    _write_inputs(tmp_path)
    _assert_one_line_exit(_run_cli(argv, tmp_path), 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["closed-form", "--w0=-0.6,0.8", "--c=-1,0.5", "--t=-1e3"],
        ["eahle", "--rho0", "rho.json", "--c=-1,0.5", "--t-end", "0.01", "--dt", "0.005"],
    ],
)
def test_values_with_a_leading_minus_take_the_equals_form(argv, tmp_path):
    # argparse reads "--t -1e3" as a flag without its value; "--t=-1e3" passes it
    _write_inputs(tmp_path)
    proc = _run_cli(argv, tmp_path)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    spaced = [part for arg in argv for part in arg.split("=", 1)]
    _assert_one_line_exit(_run_cli(spaced, tmp_path), 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["eahle", "--rho0", "rho.json", "--c", "1,0,0"],
        ["ahle", "--w0", "1,0", "--c", "1"],
        ["closed-form", "--w0", "1,0", "--c", "1", "--t", "1"],
        ["geodesic", "--rho0", "rho.json", "--x0", "x3.json"],
        # a 1 x 1 state has no tangent space
        ["eahle", "--rho0", "rho1.json", "--c", "1"],
        ["geodesic", "--rho0", "rho1.json", "--c", "1"],
    ],
)
def test_dimension_mismatch_is_usage_error(argv, tmp_path):
    _write_inputs(tmp_path)
    proc = _run_cli(argv, tmp_path)
    _assert_one_line_exit(proc, 2)
    assert proc.stderr.startswith("error: ") and "dimension" in proc.stderr


# A valid value of every flag, and the flags of every command; the grids are short.
_VALID = {
    "--rho0": "rho.json", "--x0": "x.json", "--c": "0.5,-0.5", "--w0": "0.6,0.8", "--t": "0.5",
    "--n": "2", "--cases": "1", "--tol": "1e-6", "--restarts": "1", "--t-end": "0.01",
    "--dt": "0.005", "--format": "json", "--seed": "3", "--out": "out.txt",
}
_TRAJECTORY = ["--t-end", "--dt", "--format", "--out"]
_COMMAND_FLAGS = {
    "geodesic": ["--rho0", "--x0", "--c", *_TRAJECTORY],
    "eahle": ["--rho0", "--c", *_TRAJECTORY],
    "ahle": ["--w0", "--c", *_TRAJECTORY],
    "closed-form": ["--w0", "--c", "--t", "--out"],
    "verify": ["--n", "--cases", "--tol", "--seed", "--t-end", "--dt", "--out"],
    "probe": ["--n", "--restarts", "--seed", "--out"],
}
_BAD_VALUES = [
    "nan", "inf", "-1", "0", "1e-320", "1e400", "x", "", "dir", "latin1.json", "huge_n.json",
    "nan.json",
]


@st.composite
def _argv(draw):
    """A valid argv of one command with up to three edits.

    An edit sets a flag, the command's own or any other, to its valid value
    or to a bad one, or leaves it out.  ``--t-end``, ``--cases`` and ``--n``
    are never left out, so that no run takes long.
    """
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    # geodesic takes one of --x0 and --c; a valid argv starts with --c
    flags = {flag: _VALID[flag] for flag in _COMMAND_FLAGS[command] if flag != "--x0"}
    edit = st.tuples(
        st.sampled_from(_COMMAND_FLAGS[command] + sorted(_VALID)),
        st.sampled_from([None, "valid", *_BAD_VALUES]),
    )
    for flag, value in draw(st.lists(edit, max_size=3)):
        if value is None and flag not in ("--t-end", "--cases", "--n"):
            flags.pop(flag, None)
        elif value is not None:
            flags[flag] = _VALID[flag] if value == "valid" else value
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        argv += [flag, flags[flag]]
    return argv


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argv())
def test_cli_fuzz_keeps_exit_code_contract(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QSSGEO_SEED", raising=False)
    _write_inputs(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    capsys.readouterr()


def test_command_flags_match_parser():
    # the fuzz above draws from _COMMAND_FLAGS, so a flag added to or dropped
    # from a command without the table knowing fails here
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == sorted(_COMMAND_FLAGS)
    for name, parser in commands.choices.items():
        flags = {s for action in parser._actions for s in action.option_strings}
        assert flags - {"-h", "--help"} == set(_COMMAND_FLAGS[name]), name


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "2", "--format", "csv"],
        ["closed-form", "--w0", "0.6,0.8", "--c", "1,0", "--t", "1", "--seed", "1"],
        ["geodesic", "--rho0", "rho.json", "--c", "1,0", "--seed", "1"],
        ["eahle", "--rho0", "rho.json", "--c", "1,0", "--seed", "1"],
        ["ahle", "--w0", "0.6,0.8", "--c", "1,0", "--seed", "1"],
    ],
)
def test_unread_flag_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # only verify and probe draw random inputs, and only the trajectory
    # commands choose a format; elsewhere the flag is unknown
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    assert main(argv) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_out_dash_writes_the_bytes_of_out_file(tmp_path, capsys):
    # stdout with --out - is the file --out FILE writes, then what FILE's run prints
    rho_path = tmp_path / "rho.json"
    io.save_matrix(str(rho_path), qssgeo.random_density(3, 2).entries)
    flow = ["--rho0", str(rho_path), "--c=0.5,-0.25,1", "--t-end", "0.05"]
    commands = [
        ["geodesic", *flow], ["geodesic", *flow, "--format", "json"],
        ["eahle", *flow], ["eahle", *flow, "--format", "json"],
        ["ahle", "--w0", "0.6,0.8", "--c", "1,0", "--t-end", "0.05", "--format", "json"],
        ["closed-form", "--w0", "0.6,0.8", "--c", "1,0", "--t", "0.5"],
        ["verify", "--n", "2,3", "--cases", "1", "--t-end", "0.05"],
        ["probe", "--n", "3"],
    ]
    for argv in commands:
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        printed = capsys.readouterr()
        assert main(argv + ["--out", "-"]) == 0
        streamed = capsys.readouterr()
        assert streamed.out == out.read_text() + printed.out, argv
        assert streamed.err == printed.err == ""
