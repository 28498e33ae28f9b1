"""Tests for the exponential-type transport, geodesics, and autoparallelism."""

from fractions import Fraction

import numpy as np
import pytest

import qssgeo as q
from qssgeo.qss import frobenius, hermitian_deviation


def test_transport_identity():
    rho = q.random_density(3, 1)
    x = q.random_tangent(rho, 2)
    moved = q.e_transport(rho, rho, x)
    assert frobenius(moved.entries - x.entries) <= q.TOL_SLD


def test_transport_zero():
    rho1 = q.random_density(3, 1)
    rho2 = q.random_density(3, 2)
    moved = q.e_transport(rho1, rho2, q.TangentVector(np.zeros((3, 3)), rho1))
    assert frobenius(moved.entries) == 0.0


def test_transport_diagonal_oracle():
    # exact rational evaluation: L = X/theta elementwise, then
    # tau = (rho2 L + L rho2)/2 - Tr(rho2 L) rho2 with rho2 = I/2
    theta = [Fraction(3, 4), Fraction(1, 4)]
    xval = [Fraction(1, 10), Fraction(-1, 10)]
    l = [x / t for x, t in zip(xval, theta)]
    half = Fraction(1, 2)
    tr_r2l = sum(half * lj for lj in l)
    expected = [float(half * lj - tr_r2l * half) for lj in l]

    rho1 = q.make_density(np.diag([0.75, 0.25]))
    rho2 = q.make_density(np.eye(2) / 2)
    x = q.TangentVector(np.diag([0.1, -0.1]), rho1)
    moved = q.e_transport(rho1, rho2, x)
    np.testing.assert_allclose(moved.entries, np.diag(expected), atol=1e-14)
    assert expected == pytest.approx([2 / 15, -2 / 15])


def test_transport_dimension_mismatch():
    rho1 = q.random_density(2, 1)
    rho3 = q.random_density(3, 1)
    with pytest.raises(q.DimensionMismatchError):
        q.e_transport(rho1, rho3, q.random_tangent(rho1, 2))
    with pytest.raises(q.DimensionMismatchError):
        q.is_e_parallel(q.random_tangent(rho1, 2), q.random_tangent(rho3, 2), 1e-9)


def test_is_e_parallel_same_base():
    rho = q.random_density(3, 4)
    x = q.random_tangent(rho, 5)
    assert q.is_e_parallel(x, x, 1e-9)


def test_is_e_parallel_by_construction():
    rho1 = q.random_density(3, 4)
    rho2 = q.random_density(3, 5)
    x = q.random_tangent(rho1, 6)
    moved = q.e_transport(rho1, rho2, x)
    assert q.is_e_parallel(x, moved, 1e-9)


def test_is_e_parallel_scaled_fails():
    rho1 = q.random_density(3, 4)
    rho2 = q.random_density(3, 5)
    x = q.random_tangent(rho1, 6)
    moved = q.e_transport(rho1, rho2, x)
    doubled = q.TangentVector(2 * moved.entries, rho2)
    gap = frobenius(doubled.entries - moved.entries)
    assert gap > 1e-6
    assert not q.is_e_parallel(x, doubled, 1e-6)


def test_geodesic_zero_tangent_is_constant():
    rho = q.random_density(3, 7)
    spec = q.GeodesicSpec(rho, q.TangentVector(np.zeros((3, 3)), rho))
    for t in (0.0, 0.5, 3.0, 20.0):
        assert frobenius(q.e_geodesic(spec, t).entries - rho.entries) <= 1e-12


def test_geodesic_diagonal_spot_value():
    # SLD diag(1,-1) at I/2 gives diag(e^t, e^-t)/(e^t + e^-t); at t = ln 2
    # this is diag(0.8, 0.2), matching e^{2t}/(e^{2t}+1) = 4/5
    rho = q.make_density(np.eye(2) / 2)
    x = q.TangentVector(np.diag([0.5, -0.5]), rho)
    spec = q.GeodesicSpec(rho, x)
    np.testing.assert_allclose(spec.cached_sld.entries, np.diag([1.0, -1.0]), atol=1e-14)
    t = np.log(2.0)
    got = q.e_geodesic(spec, t)
    expected = np.diag([np.exp(t), np.exp(-t)]) / (np.exp(t) + np.exp(-t))
    np.testing.assert_allclose(got.entries, expected, atol=1e-14)
    assert np.exp(2 * t) / (np.exp(2 * t) + 1) == pytest.approx(0.8, abs=1e-15)
    np.testing.assert_allclose(np.diag(got.entries).real, [0.8, 0.2], atol=1e-14)


def test_geodesic_at_zero_returns_start():
    spec = q.random_geodesic_spec(4, 9)
    assert frobenius(q.e_geodesic(spec, 0.0).entries - spec.start.entries) <= q.TOL_RECON


def test_geodesic_negative_time_flag():
    # any finite t is evaluated: the curve run backward is the curve of the
    # reversed tangent run forward
    spec = q.random_geodesic_spec(2, 3)
    reverse = q.TangentVector(-spec.initial_tangent.entries, spec.start)
    rho = q.e_geodesic(spec, -0.5)
    assert abs(np.trace(rho.entries).real - 1) <= 1e-12
    back = q.e_geodesic(q.GeodesicSpec(spec.start, reverse), 0.5)
    assert frobenius(rho.entries - back.entries) <= 1e-12
    # a non-finite t is refused before any arithmetic
    for t in (np.inf, -np.inf, np.nan):
        with pytest.raises(q.InvalidValueError):
            q.e_geodesic(spec, t)


def test_geodesic_spec_base_mismatch():
    rho1 = q.random_density(2, 1)
    rho2 = q.random_density(2, 2)
    with pytest.raises(q.BaseMismatchError):
        q.GeodesicSpec(rho2, q.random_tangent(rho1, 3))
    # transport leaves this check to sld
    with pytest.raises(q.BaseMismatchError):
        q.e_transport(rho2, rho1, q.random_tangent(rho1, 3))


def test_autoparallel_zero_tangent():
    rho = q.random_density(3, 7)
    spec = q.GeodesicSpec(rho, q.TangentVector(np.zeros((3, 3)), rho))
    assert q.autoparallel_residual(spec, 1.0, 1e-4) <= 1e-10


def test_autoparallel_second_order():
    rho = q.make_density(np.eye(2) / 2)
    spec = q.GeodesicSpec(rho, q.TangentVector(np.diag([0.5, -0.5]), rho))
    coarse = q.autoparallel_residual(spec, 0.5, 1e-3)
    fine = q.autoparallel_residual(spec, 0.5, 1e-4)
    assert 50 <= coarse / fine <= 200


def test_autoparallel_random_spec():
    spec = q.random_geodesic_spec(3, 21)
    assert q.autoparallel_residual(spec, 1.0, 1e-4) <= 1e-6


def test_autoparallel_invalid_step():
    spec = q.random_geodesic_spec(2, 3)
    with pytest.raises(q.InvalidStepError):
        q.autoparallel_residual(spec, 1.0, 0.0)
    with pytest.raises(q.InvalidStepError):
        q.autoparallel_residual(spec, 0.5, 0.5)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
def test_autoparallel_property(t):
    for k in range(12):
        spec = q.random_geodesic_spec(2 + k % 3, 700 + k)
        assert q.autoparallel_residual(spec, t, 1e-4) <= 1e-6


def test_transport_output_invariants():
    for k in range(40):
        n = 2 + k % 4
        rho1 = q.random_density(n, 40 + k)
        rho2 = q.random_density(n, 80 + k)
        x = q.random_tangent(rho1, 120 + k)
        moved = q.e_transport(rho1, rho2, x)
        assert abs(np.trace(moved.entries)) <= q.TOL_TRACE
        assert hermitian_deviation(moved.entries) <= q.TOL_HERM


def test_transport_defining_relation():
    # the SLD of the moved vector must be the original SLD minus its
    # rho2-weighted trace times the identity
    for k in range(40):
        n = 2 + k % 4
        rho1 = q.random_density(n, 140 + k)
        rho2 = q.random_density(n, 180 + k)
        x = q.random_tangent(rho1, 220 + k)
        moved = q.e_transport(rho1, rho2, x)
        l1 = q.sld(rho1, x).entries
        l2 = q.sld(rho2, moved).entries
        expected = l1 - float(np.trace(rho2.entries @ l1).real) * np.eye(n)
        assert frobenius(l2 - expected) <= q.TOL_SLD * max(1.0, frobenius(l1))


def test_geodesic_validity_long_times():
    # bounded-speed specs: at SLD spread beyond ~0.4 the smallest eigenvalue
    # genuinely decays below TOL_PD before t = 50
    for k in range(10):
        spec = q.random_geodesic_spec(2 + k % 3, 260 + k, sld_scale=0.2)
        for t in (0.0, 1.0, 10.0, 50.0):
            rho = q.e_geodesic(spec, t)
            assert abs(np.trace(rho.entries).real - 1) <= q.TOL_TRACE
    # past the boundary construction fails loudly: from I/2 along diag(5, -5)
    # the smallest eigenvalue at t = 5 is 1 / (1 + e^100), below TOL_PD
    rho = q.make_density(np.eye(2) / 2)
    spec = q.GeodesicSpec(rho, q.hebbian_initial_tangent(rho, q.CouplingSpectrum([5.0, -5.0])))
    with pytest.raises(q.NotPositiveDefiniteError):
        q.e_geodesic(spec, 5.0)


def test_transport_composition_reported():
    # path-independence holds exactly: the SLD shifts compose,
    # L - Tr(rho2 L) I - Tr(rho3 (L - Tr(rho2 L) I)) I = L - Tr(rho3 L) I, so
    # the gap is roundoff amplified by the SLD's 1 / lambda_min
    gaps = []
    for n in (2, 3, 5, 8):
        for k in range(10):
            rho1 = q.random_density(n, 300 + k)
            rho2 = q.random_density(n, 340 + k)
            rho3 = q.random_density(n, 380 + k)
            x = q.random_tangent(rho1, 420 + k)
            via = q.e_transport(rho2, rho3, q.e_transport(rho1, rho2, x))
            direct = q.e_transport(rho1, rho3, x)
            gap = frobenius(via.entries - direct.entries)
            lam_min = min(np.linalg.eigvalsh(r.entries)[0] for r in (rho1, rho2, rho3))
            gaps.append(gap * lam_min / max(1.0, frobenius(direct.entries)))
    print(f"\ntransport composition gap x lambda_min / max(1, |tau|): max {max(gaps):.3e}")
    assert max(gaps) <= 100 * np.finfo(float).eps
