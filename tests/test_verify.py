"""Tests for the verification reports, suite, and conjecture probe."""

import numpy as np
import pytest

import qssgeo as q
from qssgeo.geometry import _geodesic_curves
from qssgeo.verify import _witness_residual, suite_summary


def coupling(*values):
    return q.CouplingSpectrum(np.asarray(values, dtype=float))


def test_coincidence_scalar_coupling():
    rho = q.random_density(3, 2)
    report = q.verify_geodesic_coincidence(rho, coupling(0.4, 0.4, 0.4), 1.0, 1e-2, 1e-6)
    assert report.passed
    assert report.max_deviation <= 1e-12


def test_coincidence_diagonal_case():
    rho = q.DensityMatrix(np.diag([0.5, 0.5]))
    report = q.verify_geodesic_coincidence(rho, coupling(1.0, 0.0), 2.0, 1e-3, 1e-6)
    assert report.passed
    # both routes must follow diag(e^{2t}, 1)/(e^{2t} + 1)
    traj = q.eahle_integrate(rho, coupling(1.0, 0.0), 2.0, 1e-3)
    for t, state in zip(traj.times, traj.states):
        top = np.exp(2 * t) / (np.exp(2 * t) + 1)
        np.testing.assert_allclose(np.diag(state.entries).real, [top, 1 - top], atol=1e-8)


def test_coincidence_random_case():
    rho = q.random_density(4, 3)
    c = q.CouplingSpectrum(np.random.default_rng(3).uniform(-1, 1, 4))
    report = q.verify_geodesic_coincidence(rho, c, 1.0, 1e-3, 1e-6)
    assert report.passed
    assert len(report.per_time_deviation) == len(report.time_grid) == 1001


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        q.VerificationReport(
            case_id="x", n=2, seed=0, time_grid=np.array([0.0]),
            per_time_deviation=np.array([1.0, 0.0]), tolerance=1e-6,
        )
    # the verdict is derived from the deviations, so it cannot contradict them
    report = q.VerificationReport("x", 2, 0, np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1e-6)
    assert report.max_deviation == 1.0 and report.passed is False


def test_sphere_check_near_vertex():
    # start near a coordinate axis: stays inside the chart and converges
    # toward the largest-coupling direction
    w0 = q.SphereVector(np.array([np.sqrt(1 - 1e-6), 1e-3]))
    report = q.verify_sphere_closed_form(w0, coupling(1.0, 0.0), 5.0, 1e-2, 1e-6)
    assert report.passed
    final = q.ahle_closed_form(w0, coupling(1.0, 0.0), 5.0)
    assert final.values[0] > 0.999


def test_sphere_check_spot_value():
    w0 = q.SphereVector(np.array([1.0, 1.0]) / np.sqrt(2))
    report = q.verify_sphere_closed_form(w0, coupling(1.0, 0.0), np.log(2.0), 1e-3, 1e-6)
    assert report.passed
    at = q.ahle_closed_form(w0, coupling(1.0, 0.0), np.log(2.0))
    np.testing.assert_allclose(at.values, np.array([2.0, 1.0]) / np.sqrt(5), atol=1e-15)


def test_sphere_trajectory_sign_equivariance():
    c = coupling(1.0, 0.0)
    plus = q.ahle_integrate(q.SphereVector(np.array([1.0, 1.0]) / np.sqrt(2)), c, 1.0, 1e-2)
    minus = q.ahle_integrate(q.SphereVector(np.array([-1.0, 1.0]) / np.sqrt(2)), c, 1.0, 1e-2)
    sigma = np.array([-1.0, 1.0])
    for ps, ms in zip(plus.states, minus.states):
        assert np.array_equal(ms.values, sigma * ps.values)


def test_run_suite_shape_and_determinism():
    a = q.run_suite([2], 1, seed=0)
    b = q.run_suite([2], 1, seed=0)
    assert len(a) == len(b) == 2
    for ra, rb in zip(a, b):
        assert ra.case_id == rb.case_id
        assert ra.n == rb.n and ra.seed == rb.seed
        assert ra.max_deviation == rb.max_deviation
        assert np.array_equal(ra.time_grid, rb.time_grid)
        assert np.array_equal(ra.per_time_deviation, rb.per_time_deviation)
        assert ra.passed == rb.passed and ra.tolerance == rb.tolerance


def test_run_suite_matches_case_by_case():
    # the suite draws every case of one n first and runs them as one batch;
    # each report must be the one the per-case functions give for that draw
    n_values, cases, seed = (2, 3, 4, 8), 5, 2024
    reports = q.run_suite(n_values, cases, seed)
    rng = np.random.default_rng(seed)
    expected = []
    for n in n_values:
        for k in range(cases):
            case_seed = int(rng.integers(0, 2**31))
            c = rng.uniform(-1.0, 1.0, n)
            if k % 5 == 4:
                c[1] = c[0]
            w = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
            coupling_k = q.CouplingSpectrum(c)
            expected.append(q.verify_geodesic_coincidence(
                q.random_density(n, case_seed), coupling_k, 1.0, 1e-3, 1e-6,
                case_id=f"flow-vs-geodesic/n{n}/case{k:02d}", seed=case_seed,
            ))
            expected.append(q.verify_sphere_closed_form(
                q.SphereVector(w / np.linalg.norm(w)), coupling_k, 1.0, 1e-3, 1e-6,
                case_id=f"sphere-closed-form/n{n}/case{k:02d}", seed=case_seed,
            ))
    assert len(reports) == len(expected) == 2 * len(n_values) * cases
    for got, want in zip(reports, expected):
        assert (got.case_id, got.n, got.seed) == (want.case_id, want.n, want.seed)
        assert got.passed == want.passed
        assert np.array_equal(got.time_grid, want.time_grid)
        assert np.max(np.abs(got.per_time_deviation - want.per_time_deviation)) <= 1e-12
        assert abs(got.max_deviation - want.max_deviation) <= 1e-12


def test_run_suite_empty():
    assert q.run_suite([], 5, seed=1) == []
    assert q.run_suite([2], 0, seed=1) == []


def test_run_suite_small_multi_n():
    reports = q.run_suite([2, 3], 2, seed=11)
    assert len(reports) == 8
    assert all(r.passed for r in reports)
    assert suite_summary(reports).startswith("PASS 8/8")


def test_run_suite_nearly_singular_state_at_n64():
    # draws random_density(64, 1944302307), smallest eigenvalue 5e-10; the
    # SLD's spectral product must come back Hermitian, not fail validation
    reports = q.run_suite((32, 64), 1, seed=749289798)
    assert len(reports) == 4
    assert all(r.passed for r in reports)


def test_run_suite_full_scale():
    reports = q.run_suite([2, 3, 4, 6], 25, seed=42)
    assert len(reports) == 200
    assert all(r.passed for r in reports)
    assert max(r.max_deviation for r in reports) <= 1e-6


def test_initial_tangent_coincidence():
    # the flow field at t = 0 matches the geodesic's central-difference
    # velocity to second order in the step
    rho = q.random_density(3, 14)
    c = q.CouplingSpectrum(np.random.default_rng(14).uniform(-1, 1, 3))
    x0 = q.hebbian_initial_tangent(rho, c)
    spec = q.GeodesicSpec(rho, x0)
    gaps = []
    for dt in (1e-3, 1e-4):
        ahead = q.e_geodesic(spec, dt).entries
        behind = q.e_geodesic(spec, -dt).entries
        fd = (ahead - behind) / (2 * dt)
        gaps.append(float(np.linalg.norm(fd - x0.entries)))
    assert gaps[0] <= 1e-5
    assert 50 <= gaps[0] / gaps[1] <= 200


def test_probe_flow_form_witness():
    rho = q.random_density(2, 1)
    c = coupling(0.7, -0.3)
    spec = q.GeodesicSpec(rho, q.hebbian_initial_tangent(rho, c))
    result = q.conjecture_probe(spec)
    assert result.residual <= 1e-6
    # the witness recovers the flow's own coupling, shifted by -Tr(C rho)
    shift = float(np.trace(np.diag([0.7, -0.3]) @ rho.entries).real)
    np.testing.assert_allclose(result.best_coupling.values, [0.7 - shift, -0.3 - shift], atol=1e-12)


def test_probe_zero_tangent():
    rho = q.random_density(2, 4)
    spec = q.GeodesicSpec(rho, q.TangentVector(np.zeros((2, 2)), rho))
    result = q.conjecture_probe(spec)
    assert result.residual <= 1e-12


def test_probe_generic_target_reported():
    # a target whose SLD is not diagonal in the standard basis; the residual
    # is recorded as evidence, not asserted against a threshold
    spec = q.random_geodesic_spec(2, 9)
    result = q.conjecture_probe(spec)
    print(f"\nprobe residual on generic 2x2 target: {result.residual:.3e}")
    assert np.isfinite(result.residual)
    u = result.best_unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= q.TOL_HERM
    assert abs(np.linalg.det(u) - 1) <= q.TOL_HERM


def test_probe_witness_beyond_dimension_four():
    for n in (5, 8):
        result = q.conjecture_probe(q.random_geodesic_spec(n, 2))
        assert result.residual <= 1e-12


def test_probe_residual_detects_wrong_witness():
    # the residual is the gap between the witness flow's initial field and
    # the target's tangent, so a wrong coupling or frame shows in it
    for n in (2, 3, 5):
        spec = q.random_geodesic_spec(n, 2)
        result = q.conjecture_probe(spec)
        c, u = result.best_coupling.values, result.best_unitary
        assert _witness_residual(spec, c, u) == result.residual <= 1e-12
        assert _witness_residual(spec, 2 * c, u) >= 1e-2
        assert _witness_residual(spec, c, u[:, ::-1]) >= 1e-2
        # the witness must be special unitary: 2u is not unitary, a column swap has det -1
        for bad in (2 * u, u[:, [1, 0, *range(2, n)]]):
            with pytest.raises(ValueError):
                q.ConjectureProbeResult(spec, result.best_coupling, bad)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_probe_witness_flow_lands_on_geodesic(n):
    # the converse end to end: the witness flow, integrated and conjugated
    # back, meets the target geodesic on the whole grid; twice its coupling
    # does not
    spec = q.random_geodesic_spec(n, 2)
    result = q.conjecture_probe(spec)
    u = result.best_unitary
    start = q.DensityMatrix(u.conj().T @ spec.start.entries @ u)
    gaps = {}
    for scale in (1.0, 2.0):
        c = q.CouplingSpectrum(scale * result.best_coupling.values)
        traj = q.eahle_integrate(start, c, 1.0, 1e-3)
        flow = u @ traj.array @ u.conj().T
        geodesic = _geodesic_curves([spec], traj.times)[0]
        gaps[scale] = np.linalg.norm(flow - geodesic, axis=(-2, -1)).max()
    assert gaps[1.0] <= 1e-6
    assert gaps[2.0] >= 1e-2
