"""Tests for the learning flows, their closed forms, and the chart maps."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qssgeo as q
from qssgeo.dynamics import (
    _ahle_integrate_batch,
    _check_vectors,
    _eahle_integrate_batch,
    _step_schedule,
)
from qssgeo.geometry import _BLOCK_BYTES, _geodesic_curves
from qssgeo.qss import _check_states, frobenius, hermitian_deviation


def coupling(*values):
    return q.CouplingSpectrum(np.asarray(values, dtype=float))


def unit(values):
    v = np.asarray(values, dtype=float)
    return q.SphereVector(v / np.linalg.norm(v))


def test_field_scalar_coupling_vanishes():
    for seed in range(5):
        rho = q.random_density(3, seed)
        f = q.eahle_field(rho, coupling(0.8, 0.8, 0.8))
        assert frobenius(f.entries) <= 1e-14


def test_field_hand_value():
    # rho C + C rho = diag(1,0); 2 Tr(C rho) rho = diag(1/2,1/2)
    rho = q.make_density(np.eye(2) / 2)
    f = q.eahle_field(rho, coupling(1.0, 0.0))
    np.testing.assert_allclose(f.entries, np.diag([0.5, -0.5]), atol=1e-15)


def test_field_diagonal_formula():
    # diagonal states follow d theta_j = 2 c_j theta_j - 2 (sum_k c_k theta_k) theta_j
    theta = np.array([0.5, 0.3, 0.2])
    c = np.array([0.9, -0.4, 0.2])
    rho = q.make_density(np.diag(theta))
    f = q.eahle_field(rho, q.CouplingSpectrum(c))
    expected = 2 * c * theta - 2 * float(c @ theta) * theta
    np.testing.assert_allclose(np.diag(f.entries).real, expected, atol=1e-15)
    assert frobenius(f.entries - np.diag(np.diag(f.entries))) == 0.0


def test_field_dimension_mismatch():
    rho = q.random_density(3, 1)
    with pytest.raises(q.DimensionMismatchError):
        q.eahle_field(rho, coupling(1.0, 0.0))


def test_integrate_scalar_coupling_constant():
    rho = q.random_density(3, 2)
    traj = q.eahle_integrate(rho, coupling(0.5, 0.5, 0.5), 1.0, 1e-2)
    for state in traj.states:
        assert frobenius(state.entries - rho.entries) <= 1e-12


def test_integrate_spot_value():
    rho = q.make_density(np.eye(2) / 2)
    traj = q.eahle_integrate(rho, coupling(1.0, 0.0), np.log(2.0), 1e-3)
    assert traj.times[-1] == np.log(2.0)
    np.testing.assert_allclose(
        np.diag(traj.states[-1].entries).real, [0.8, 0.2], atol=1e-8
    )


def test_integrate_states_stay_valid():
    rho = q.random_density(4, 5)
    traj = q.eahle_integrate(rho, coupling(1.0, 0.3, -0.2, -1.0), 1.0, 1e-2)
    for state in traj.states:
        assert abs(np.trace(state.entries).real - 1) <= 1e-12
        assert hermitian_deviation(state.entries) == 0.0


def test_integrate_truncation_step():
    rho = q.random_density(2, 1)
    traj = q.eahle_integrate(rho, coupling(0.5, -0.5), 0.0105, 1e-3)
    np.testing.assert_allclose(traj.times[:3], [0.0, 1e-3, 2e-3])
    assert traj.times[-1] == 0.0105
    assert len(traj) == 12


def test_integrate_step_too_large():
    rho = q.make_density(np.diag([0.999, 0.001]))
    with pytest.raises(q.StepTooLargeError) as exc:
        q.eahle_integrate(rho, coupling(8.0, -8.0), 3.0, 0.5)
    assert exc.value.time == 0.5
    assert exc.value.min_eigenvalue < 0
    assert str(exc.value).endswith("reduce the step size")


def test_integrate_precision_floor_is_not_a_step_problem():
    # the exact smallest eigenvalue 1 / (1 + e^{2t}) reaches TOL_PD near
    # t = 13.8 at every step size, so the error must not advise a smaller one
    rho = q.make_density(np.diag([0.5, 0.5]))
    times = []
    for dt in (1e-2, 1e-3):
        with pytest.raises(q.StepTooLargeError) as exc:
            q.eahle_integrate(rho, coupling(1.0, 0.0), 15.0, dt)
        assert 0 < exc.value.min_eigenvalue <= q.TOL_PD
        assert "reduce the step size" not in str(exc.value)
        assert "a smaller step will not help" in str(exc.value)
        times.append(exc.value.time)
    assert times[0] == pytest.approx(times[1], abs=1e-2)


def _first_error_of_separate_runs(starts, couplings, t_end, dt):
    for start, c in zip(starts, couplings):
        try:
            q.eahle_integrate(q.make_density(start), coupling(*c), t_end, dt)
        except q.StepTooLargeError as exc:
            return exc
    return None


@pytest.mark.parametrize(
    "starts, couplings",
    [
        # one failing case among healthy ones
        ([np.eye(2) / 2, np.diag([0.999, 0.001]), np.diag([0.6, 0.4])],
         [(0.3, -0.3), (8.0, -8.0), (0.1, 0.2)]),
        # case 0 fails at t = 1.0, case 1 already at t = 0.5: run one after
        # another, case 0 raises first
        ([np.diag([0.999, 0.001]), np.diag([0.999, 0.001]), np.eye(2) / 2],
         [(3.0, -3.0), (8.0, -8.0), (0.3, -0.3)]),
    ],
)
def test_batch_step_too_large_matches_separate_runs(starts, couplings):
    expected = _first_error_of_separate_runs(starts, couplings, 3.0, 0.5)
    rho0 = np.stack([q.make_density(a).entries for a in starts])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(q.StepTooLargeError) as exc:
            _eahle_integrate_batch(rho0, np.array(couplings), 3.0, 0.5)
    assert (exc.value.time, exc.value.min_eigenvalue) == (expected.time, expected.min_eigenvalue)


def _reference_rk4(field, normalize, y0, c, t_end, dt):
    # classical RK4 that checks the states after every step
    steps, times = _step_schedule(t_end, dt)
    ys = [y0]
    for h in steps:
        y = ys[-1]
        k1 = field(y, c)
        k2 = field(y + 0.5 * h * k1, c)
        k3 = field(y + 0.5 * h * k2, c)
        k4 = field(y + h * k3, c)
        ys.append(normalize(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)))
    return times, np.stack(ys, axis=1)


def _matrix_field(a, c):
    tr_c_rho = np.einsum("...j,...jj->...", c, a).real
    return a * (c[:, :, None] + c[:, None, :] - 2.0 * tr_c_rho[:, None, None])


def _sphere_field(w, c):
    cw = c * w
    return cw - (w * cw).sum(axis=-1, keepdims=True) * w


def _normalize_matrices(y):
    return _check_states(y / np.trace(y, axis1=-2, axis2=-1).real[:, None, None])


def _normalize_spheres(w):
    return _check_vectors(w / np.linalg.norm(w, axis=-1, keepdims=True))


def _grid_past_one_block(y0):
    # one full block of steps, then a partial block of three ending in a shortened step
    block = _BLOCK_BYTES // y0.nbytes
    return (block + 2.5) / block, 1.0 / block


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("batch", [1, 5])
def test_batch_kernels_equal_a_check_after_every_step(n, batch):
    rng = np.random.default_rng(100 * n + batch)
    rho0 = np.stack([q.random_density(n, int(s)).entries for s in rng.integers(0, 2**31, batch)])
    c = rng.uniform(-1.0, 1.0, (batch, n))
    w0 = rng.normal(size=(batch, n))
    w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
    for kernel, field, normalize, y0 in (
        (_eahle_integrate_batch, _matrix_field, _normalize_matrices, rho0),
        (_ahle_integrate_batch, _sphere_field, _normalize_spheres, w0),
    ):
        t_end, dt = _grid_past_one_block(y0)
        times, states = kernel(y0, c, t_end, dt)
        expected_times, expected = _reference_rk4(field, normalize, y0, c, t_end, dt)
        assert times[-1] == t_end and times[-1] - times[-2] < dt
        assert np.array_equal(times, expected_times)
        assert np.array_equal(states, expected)


def test_batch_failing_in_a_later_block_matches_separate_runs():
    # the middle case reaches the precision floor near t = 13.8, past the first block of steps
    starts = [np.diag([0.6, 0.4]), np.diag([0.5, 0.5]), np.eye(2) / 2]
    couplings = [(0.1, 0.2), (1.0, 0.0), (0.3, -0.3)]
    expected = _first_error_of_separate_runs(starts, couplings, 15.0, 1e-2)
    rho0 = np.stack([q.make_density(a).entries for a in starts])
    assert round(expected.time / 1e-2) > _BLOCK_BYTES // rho0.nbytes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(q.StepTooLargeError) as exc:
            _eahle_integrate_batch(rho0, np.array(couplings), 15.0, 1e-2)
    got = (exc.value.time, exc.value.min_eigenvalue, str(exc.value))
    assert got == (expected.time, expected.min_eigenvalue, str(expected))


@pytest.mark.parametrize("scale", [1e200, 1e150])
def test_overflowing_flow_fails_hermiticity_without_warnings(scale):
    # the steps after the first non-finite state, up to its block's end, warn of nothing
    rho = q.make_density(np.diag([0.4, 0.3, 0.3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(q.NotHermitianError) as exc:
            q.eahle_integrate(rho, coupling(scale, 0.0, 0.0), 1.0, 1e-3)
    assert str(exc.value) == "matrix is not Hermitian: max |A - A^H| = nan"


def test_overflowing_sphere_rule_fails_unit_norm_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(q.InvalidValueError) as exc:
            q.ahle_integrate(q.SphereVector([0.6, 0.8]), coupling(1e200, 0.0), 1.0, 1e-3)
    assert str(exc.value) == "vector is not unit norm: | ||w|| - 1 | = nan"


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_batch_kernels_equal_separate_runs(n, batch, seed):
    rng = np.random.default_rng(seed)
    rho0 = [q.random_density(n, int(s)) for s in rng.integers(0, 2**31, batch)]
    c = rng.uniform(-1.0, 1.0, (batch, n))
    w = rng.uniform(0.2, 1.0, (batch, n)) * rng.choice([-1.0, 1.0], (batch, n))
    w0 = w / np.linalg.norm(w, axis=1, keepdims=True)
    times, flows = _eahle_integrate_batch(np.stack([r.entries for r in rho0]), c, 0.1, 0.01)
    _, spheres = _ahle_integrate_batch(w0, c, 0.1, 0.01)
    specs = [q.GeodesicSpec(r, q.hebbian_initial_tangent(r, q.CouplingSpectrum(ck)))
             for r, ck in zip(rho0, c)]
    geodesics = _geodesic_curves(specs, times)
    for k in range(batch):
        flow = q.eahle_integrate(rho0[k], q.CouplingSpectrum(c[k]), 0.1, 0.01)
        sphere = q.ahle_integrate(q.SphereVector(w0[k]), q.CouplingSpectrum(c[k]), 0.1, 0.01)
        assert np.array_equal(flow.times, times)
        assert np.array_equal(flow.array, flows[k])
        assert np.array_equal(sphere.array, spheres[k])
        assert np.array_equal(_geodesic_curves(specs[k:k + 1], times)[0], geodesics[k])


def test_trajectory_array_is_read_only():
    traj = q.eahle_integrate(q.random_density(3, 4), coupling(1.0, 0.0, -1.0), 0.05, 1e-2)
    assert traj.array.shape == (6, 3, 3)
    assert not traj.array.flags.writeable
    assert not traj.states[2].entries.flags.writeable
    window = traj.states[1:4]
    assert isinstance(window, tuple) and len(window) == 3
    assert all(np.array_equal(s.entries, row) for s, row in zip(window, traj.array[1:4]))
    with pytest.raises(ValueError):
        traj.array[0, 0, 0] = 1.0
    sphere = q.ahle_integrate(q.SphereVector(np.array([0.6, 0.8])), coupling(1.0, 0.0), 0.05, 1e-2)
    assert sphere.array.shape == (6, 2) and not sphere.array.flags.writeable
    # built from state objects, the trajectory holds the same read-only array
    again = q.Trajectory(traj.times, list(traj.states), traj.meta)
    assert np.array_equal(again.array, traj.array) and not again.array.flags.writeable


def test_trajectory_rejects_mixed_states():
    meta = q.TrajectoryMeta("rk4", 0.1, (1.0, 0.0))
    with pytest.raises(ValueError):
        states = [q.random_density(2, 1), q.SphereVector(np.array([1.0, 0.0]))]
        q.Trajectory([0.0, 0.1], states, meta)


def test_integrate_rejects_bad_steps():
    rho = q.random_density(2, 1)
    with pytest.raises(q.InvalidStepError):
        q.eahle_integrate(rho, coupling(1.0, 0.0), -1.0, 1e-3)
    with pytest.raises(q.InvalidStepError):
        q.eahle_integrate(rho, coupling(1.0, 0.0), 1.0, 2.0)
    # a non-finite grid is a bad step, not a grid too large for memory
    for t_end, dt in ((np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (np.inf, np.inf)):
        with pytest.raises(q.InvalidStepError):
            q.eahle_integrate(rho, coupling(1.0, 0.0), t_end, dt)


def test_diagonal_start_stays_diagonal():
    theta = np.array([0.4, 0.35, 0.25])
    rho = q.make_density(np.diag(theta))
    traj = q.eahle_integrate(rho, coupling(1.0, -0.5, 0.25), 1.0, 1e-2)
    for state in traj.states:
        off = state.entries - np.diag(np.diag(state.entries))
        assert frobenius(off) <= 1e-9


def test_sphere_field_fixed_points():
    c = coupling(0.7, -0.2, 0.4)
    for j in range(3):
        e_j = np.zeros(3)
        e_j[j] = 1.0
        f = q.ahle_field(q.SphereVector(e_j), c)
        assert np.linalg.norm(f) <= 1e-15


def test_sphere_field_scalar_coupling():
    w = unit([0.3, -0.5, 0.8])
    f = q.ahle_field(w, coupling(0.6, 0.6, 0.6))
    assert np.linalg.norm(f) <= 1e-14


def test_sphere_field_hand_value():
    # w^T C w = 1/2, so the field is (1/(2 sqrt 2), -1/(2 sqrt 2))
    w = unit([1.0, 1.0])
    f = q.ahle_field(w, coupling(1.0, 0.0))
    s = 1 / (2 * np.sqrt(2))
    np.testing.assert_allclose(f, [s, -s], atol=1e-15)


def test_sphere_field_tangency():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        w = unit(rng.normal(size=4))
        c = q.CouplingSpectrum(rng.uniform(-1, 1, 4))
        assert abs(w.values @ q.ahle_field(w, c)) <= 1e-10


def test_sphere_integrate_fixed_point():
    e1 = q.SphereVector(np.array([1.0, 0.0]))
    traj = q.ahle_integrate(e1, coupling(1.0, 0.0), 1.0, 1e-2)
    for state in traj.states:
        np.testing.assert_allclose(state.values, [1.0, 0.0], atol=1e-12)


def test_sphere_integrate_spot_value():
    traj = q.ahle_integrate(unit([1.0, 1.0]), coupling(1.0, 0.0), np.log(2.0), 1e-3)
    np.testing.assert_allclose(
        traj.states[-1].values, np.array([2.0, 1.0]) / np.sqrt(5), atol=1e-8
    )


def test_sphere_integrate_norm_preserved():
    traj = q.ahle_integrate(unit([1.0, -2.0, 0.5]), coupling(1.0, 0.0, -0.5), 1.0, 1e-2)
    for state in traj.states:
        assert abs(np.linalg.norm(state.values) - 1) <= 1e-15


def test_closed_form_initial_condition():
    w0 = unit([0.6, -0.8])
    got = q.ahle_closed_form(w0, coupling(1.0, -0.3), 0.0)
    np.testing.assert_allclose(got.values, w0.values, atol=1e-15)


def test_closed_form_spot_value():
    # componentwise: (e^{ln 2} * 1, e^0 * 1)/sqrt(4 + 1) after the common 1/sqrt2 cancels
    got = q.ahle_closed_form(unit([1.0, 1.0]), coupling(1.0, 0.0), np.log(2.0))
    np.testing.assert_allclose(got.values, [2 / np.sqrt(5), 1 / np.sqrt(5)], atol=1e-15)


def test_closed_form_scalar_coupling():
    w0 = unit([0.2, 0.5, -0.5])
    got = q.ahle_closed_form(w0, coupling(0.4, 0.4, 0.4), 7.0)
    np.testing.assert_allclose(got.values, w0.values, atol=1e-14)


def test_closed_form_no_overflow():
    got = q.ahle_closed_form(unit([1.0, 1.0]), coupling(500.0, -500.0), 10.0)
    np.testing.assert_allclose(got.values, [1.0, 0.0], atol=1e-300)


def test_closed_form_sign_equivariance_exact():
    w0 = unit([0.5, -0.3, 0.7, 0.4])
    c = coupling(0.9, -0.1, 0.3, -0.6)
    base = q.ahle_closed_form(w0, c, 1.7)
    for sigma in ([1, -1, 1, -1], [-1, -1, -1, -1], [1, 1, -1, 1]):
        s = np.asarray(sigma, dtype=float)
        flipped = q.ahle_closed_form(q.SphereVector(s * w0.values), c, 1.7)
        assert np.array_equal(flipped.values, s * base.values)


def test_diagonal_closed_form_initial_condition():
    theta0 = q.SimplexPoint(np.array([0.2, 0.3, 0.5]))
    got = q.diagonal_closed_form(theta0, coupling(1.0, 0.0, -1.0), 0.0)
    np.testing.assert_allclose(got.values, theta0.values, atol=1e-15)


def test_diagonal_closed_form_spot_value():
    # e^{2 ln 2} = 4 gives (4, 1)/5
    theta0 = q.SimplexPoint(np.array([0.5, 0.5]))
    got = q.diagonal_closed_form(theta0, coupling(1.0, 0.0), np.log(2.0))
    np.testing.assert_allclose(got.values, [0.8, 0.2], atol=1e-15)


def test_diagonal_closed_form_winner_take_all():
    theta0 = q.SimplexPoint(np.array([0.5, 0.5]))
    got = q.diagonal_closed_form(theta0, coupling(1.0, 0.0), 20.0)
    assert got.values[0] > 1 - 1e-15
    assert got.values[1] < 1e-17


def test_closed_form_matches_integrator():
    rng = np.random.default_rng(3)
    w0 = unit(rng.normal(size=3))
    c = q.CouplingSpectrum(rng.uniform(-1, 1, 3))
    traj = q.ahle_integrate(w0, c, 1.0, 1e-3)
    worst = max(
        float(np.linalg.norm(state.values - q.ahle_closed_form(w0, c, t).values))
        for t, state in zip(traj.times, traj.states)
    )
    assert worst <= 1e-6


def test_diagonal_closed_form_matches_integrator():
    theta0 = np.array([0.45, 0.3, 0.25])
    c = coupling(0.8, -0.3, 0.1)
    traj = q.eahle_integrate(q.make_density(np.diag(theta0)), c, 1.0, 1e-3)
    point = q.SimplexPoint(theta0)
    worst = max(
        float(
            np.linalg.norm(
                np.diag(state.entries).real - q.diagonal_closed_form(point, c, t).values
            )
        )
        for t, state in zip(traj.times, traj.states)
    )
    assert worst <= 1e-6


def test_chart_equivalence_of_flows():
    # push the sphere trajectory through the squaring chart and compare with
    # the diagonal of the matrix flow started at the squared point
    rng = np.random.default_rng(8)
    w = rng.uniform(0.3, 1.0, 3) * np.array([1.0, -1.0, 1.0])
    w0 = unit(w)
    c = q.CouplingSpectrum(rng.uniform(-1, 1, 3))
    sphere_traj = q.ahle_integrate(w0, c, 1.0, 1e-3)
    theta0, _ = q.sphere_to_simplex(w0)
    matrix_traj = q.eahle_integrate(q.make_density(np.diag(theta0.values)), c, 1.0, 1e-3)
    assert np.array_equal(sphere_traj.times, matrix_traj.times)
    worst = max(
        float(np.linalg.norm(ws.values**2 - np.diag(ms.entries).real))
        for ws, ms in zip(sphere_traj.states, matrix_traj.states)
    )
    assert worst <= 1e-6


def test_sphere_to_simplex_uniform():
    n = 4
    w = q.SphereVector(np.full(n, 1 / np.sqrt(n)))
    theta, sigma = q.sphere_to_simplex(w)
    np.testing.assert_allclose(theta.values, np.full(n, 1 / n), atol=1e-15)
    assert np.array_equal(sigma.values, np.ones(n, dtype=int))


def test_sphere_to_simplex_signs():
    w = q.SphereVector(np.array([-2.0, 1.0]) / np.sqrt(5))
    theta, sigma = q.sphere_to_simplex(w)
    np.testing.assert_allclose(theta.values, [0.8, 0.2], atol=1e-15)
    assert np.array_equal(sigma.values, [-1, 1])


def test_sphere_to_simplex_zero_component():
    w = q.SphereVector(np.array([1.0, 0.0]))
    with pytest.raises(q.ZeroComponentError) as exc:
        q.sphere_to_simplex(w)
    assert exc.value.index == 1


def test_simplex_to_sphere_uniform():
    n = 3
    theta = q.SimplexPoint(np.full(n, 1 / n))
    sigma = q.SignVector(np.ones(n, dtype=int))
    got = q.simplex_to_sphere(theta, sigma)
    np.testing.assert_allclose(got.values, np.full(n, 1 / np.sqrt(n)), atol=1e-15)


def test_simplex_to_sphere_inverse_example():
    got = q.simplex_to_sphere(
        q.SimplexPoint(np.array([0.8, 0.2])), q.SignVector(np.array([-1, 1]))
    )
    np.testing.assert_allclose(got.values, np.array([-2.0, 1.0]) / np.sqrt(5), atol=1e-15)


def test_chart_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = rng.uniform(0.1, 1.0, 4) * rng.choice([-1.0, 1.0], 4)
        w0 = unit(w)
        theta, sigma = q.sphere_to_simplex(w0)
        back = q.simplex_to_sphere(theta, sigma)
        assert np.linalg.norm(back.values - w0.values) <= 1e-12


def test_simplex_to_sphere_dimension_mismatch():
    with pytest.raises(q.DimensionMismatchError):
        q.simplex_to_sphere(
            q.SimplexPoint(np.array([0.5, 0.5])), q.SignVector(np.array([1, 1, 1]))
        )


def test_initial_tangent_matches_field():
    for seed in range(5):
        rho = q.random_density(3, seed)
        c = q.CouplingSpectrum(np.random.default_rng(seed).uniform(-1, 1, 3))
        f = q.eahle_field(rho, c)
        x = q.hebbian_initial_tangent(rho, c)
        assert np.array_equal(f.entries, x.entries)


def test_initial_tangent_diagonal_sld():
    # at a diagonal start the SLD of the initial tangent is 2C - 2 Tr(C rho) I
    rho = q.make_density(np.diag([0.5, 0.5]))
    c = coupling(1.0, 0.0)
    x = q.hebbian_initial_tangent(rho, c)
    np.testing.assert_allclose(x.entries, np.diag([0.5, -0.5]), atol=1e-15)
    l = q.sld(rho, x)
    np.testing.assert_allclose(l.entries, np.diag([1.0, -1.0]), atol=1e-14)
    expected = 2 * np.diag(c.values) - 2 * float(c.values @ np.diag(rho.entries).real) * np.eye(2)
    np.testing.assert_allclose(l.entries, expected, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    data=st.data(),
)
def test_flow_field_is_e_parallel(n, seeds, data):
    # the theorem, with no integrator: the flow field is its own e-transport,
    # and its SLD is 2(C - Tr(C rho) I) at every state.  Both gaps are
    # roundoff amplified by the SLD's 2 / (theta_j + theta_k).  The
    # couplings lie on a grid of step 2^-18 in [-2, 2], clear of underflow.
    k = data.draw(st.lists(st.integers(-(2**19), 2**19), min_size=n, max_size=n))
    c = coupling(*np.array(k) / 2**18)
    rho1, rho2 = (q.random_density(n, seed) for seed in seeds)
    scale = 100 * np.finfo(float).eps * np.max(np.abs(c.values))
    moved = q.e_transport(rho1, rho2, q.eahle_field(rho1, c))
    gap = frobenius(moved.entries - q.eahle_field(rho2, c).entries)
    assert gap <= scale / np.linalg.eigvalsh(rho1.entries)[0]
    for rho in (rho1, rho2):
        l = q.sld(rho, q.eahle_field(rho, c)).entries
        shift = float(np.trace(np.diag(c.values) @ rho.entries).real)
        gap = frobenius(l - 2 * (np.diag(c.values) - shift * np.eye(n)))
        assert gap <= scale / np.linalg.eigvalsh(rho.entries)[0]


def test_initial_tangent_scalar_coupling():
    rho = q.random_density(3, 9)
    x = q.hebbian_initial_tangent(rho, coupling(0.3, 0.3, 0.3))
    assert frobenius(x.entries) <= 1e-14


def test_conservation_envelope():
    # long horizon with mild coupling, then short horizon with strong coupling
    cases = [
        (10.0, 1e-2, np.array([0.5, -0.25, 0.1])),
        (1.0, 1e-3, np.array([2.0, -1.0, -2.0])),
    ]
    for t_end, dt, c in cases:
        rho = q.random_density(3, 17)
        traj = q.eahle_integrate(rho, q.CouplingSpectrum(c), t_end, dt)
        for state in traj.states:
            assert abs(np.trace(state.entries).real - 1) <= 1e-9
            assert hermitian_deviation(state.entries) <= 1e-9
            assert float(np.linalg.eigvalsh(state.entries)[0]) > 0


def test_fixed_points_iff_scalar_action():
    # the field vanishes exactly when C acts as the scalar Tr(C rho) on the
    # state; for a regular state this forces a globally scalar coupling
    rng = np.random.default_rng(6)
    rho = q.random_density(3, 6)

    scalar = coupling(0.7, 0.7, 0.7)
    assert frobenius(q.eahle_field(rho, scalar).entries) <= 1e-12

    # block state commuting with a two-level coupling: commutes, but the
    # scalar-action condition fails, so the field must not vanish
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = q.random_density(2, 3).entries * 0.6
    block[2, 2] = 0.4
    rho_b = q.make_density(block)
    c_b = coupling(1.0, 1.0, -0.5)
    c_mat = np.diag(c_b.values)
    assert frobenius(rho_b.entries @ c_mat - c_mat @ rho_b.entries) <= 1e-15
    scalar_action_gap = frobenius(
        c_mat @ rho_b.entries - float(np.trace(c_mat @ rho_b.entries).real) * rho_b.entries
    )
    assert scalar_action_gap > 0.1
    assert frobenius(q.eahle_field(rho_b, c_b).entries) > 0.1


@pytest.mark.parametrize(
    "cls, values",
    [
        (q.SphereVector, [np.nan, np.nan]),
        (q.SphereVector, [np.nan, 1.0]),
        (q.SimplexPoint, [np.nan, 1.0]),
        (q.CouplingSpectrum, [np.inf, 0.0]),
        (q.SignVector, [np.inf, 1.0]),
    ],
)
def test_value_classes_reject_non_finite(cls, values):
    with pytest.raises(ValueError, match="finite"):
        cls(np.array(values))


def test_trajectory_validates_times():
    rho = q.random_density(2, 1)
    meta = q.TrajectoryMeta("rk4", 0.1, (1.0, 0.0))
    with pytest.raises(ValueError):
        q.Trajectory(np.array([0.0, 0.2, 0.1]), (rho, rho, rho), meta)


@pytest.mark.parametrize(
    "cls, values",
    [
        (q.CouplingSpectrum, [[1.0, 0.0]]),
        (q.SphereVector, [1.0, 1.0]),
        (q.SignVector, [1, 0]),
        (q.SimplexPoint, [0.5, 0.6]),
        (q.SimplexPoint, [1.5, -0.5]),
        # checked as floats, so not truncated to (1, -1) or overflowing an int
        (q.SignVector, [1.5, -1]),
        (q.SignVector, [np.inf, 1]),
        # finite entries whose norm overflows fail without a RuntimeWarning
        (q.SphereVector, [1e200, 1e200]),
    ],
)
@pytest.mark.filterwarnings("error")
def test_value_class_errors_are_qss_errors(cls, values):
    # one error type serves both callers: ValueError handlers and the CLI's QssError
    with pytest.raises(q.InvalidValueError) as exc:
        cls(np.array(values))
    assert isinstance(exc.value, q.QssError) and isinstance(exc.value, ValueError)


def test_value_classes_stay_frozen_read_only_vectors():
    for v in (q.CouplingSpectrum([1.0, 2.0]), q.SignVector([1, -1]), q.SimplexPoint([0.25, 0.75])):
        assert v.dim == 2 and not v.values.flags.writeable
        with pytest.raises(AttributeError):
            v.values = np.zeros(2)
        with pytest.raises(AttributeError):
            v.extra = 1
    assert q.SignVector([1, -1]).values.dtype.kind == "i"
