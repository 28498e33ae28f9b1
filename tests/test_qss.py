"""Tests for states, tangents, the SLD map, and the Fisher metric."""

from fractions import Fraction

import numpy as np
import pytest

import qssgeo as q
from qssgeo.qss import frobenius, hermitian_deviation


def test_make_density_maximally_mixed():
    rho = q.make_density(np.eye(3) / 3)
    assert rho.dim == 3
    np.testing.assert_allclose(np.linalg.eigvalsh(rho.entries), [1 / 3] * 3, atol=1e-15)


def test_make_density_diagonal():
    rho = q.make_density(np.diag([0.75, 0.25]))
    np.testing.assert_allclose(rho.entries, np.diag([0.75, 0.25]), atol=1e-15)


def test_make_density_rejects_boundary():
    with pytest.raises(q.NotPositiveDefiniteError) as exc:
        q.make_density(np.diag([1.0, 0.0]))
    assert exc.value.min_eigenvalue <= q.TOL_PD


def test_make_density_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(q.NotHermitianError) as exc:
        q.make_density(bad)
    assert exc.value.deviation == pytest.approx(0.3)
    # NaN fails the Hermitian check at every size, also where LAPACK rejects it (n >= 3)
    with pytest.raises(q.NotHermitianError):
        q.make_density(np.full((3, 3), np.nan))


def test_make_density_rejects_wrong_trace():
    with pytest.raises(q.NotUnitTraceError) as exc:
        q.make_density(np.diag([0.9, 0.3]))
    assert exc.value.deviation == pytest.approx(0.2)


def test_make_density_symmetrizes_roundoff():
    a = np.diag([0.6, 0.4]).astype(complex)
    a[0, 1] = 1e-12
    rho = q.make_density(a)
    assert hermitian_deviation(rho.entries) == 0.0


def test_random_density_deterministic():
    a = q.random_density(2, 0)
    b = q.random_density(2, 0)
    assert np.array_equal(a.entries, b.entries)


def test_random_density_spectrum():
    rho = q.random_density(4, 7)
    w = np.linalg.eigvalsh(rho.entries)
    assert np.all(w > 0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)


def test_random_density_distinct_seeds():
    a = q.random_density(3, 1)
    b = q.random_density(3, 2)
    assert frobenius(a.entries - b.entries) > 0


def test_random_density_rejects_small_dim():
    with pytest.raises(q.DimensionTooSmallError):
        q.random_density(1, 0)


def test_eig_scalar_matrix():
    w, v = q.eig_hermitian(np.eye(2) / 2)
    np.testing.assert_allclose(w, [0.5, 0.5])
    np.testing.assert_allclose(v @ v.conj().T, np.eye(2), atol=1e-14)
    assert not w.flags.writeable and not v.flags.writeable


def test_eig_two_by_two():
    # hand eigensolve: [[1/2,1/2],[1/2,1/2]] has eigenpairs 1 -> (1,1)/sqrt2, 0 -> (1,-1)/sqrt2
    a = np.array([[0.0, 1.0], [1.0, 0.0]]) / 2 + np.eye(2) / 2
    w, v = q.eig_hermitian(a)
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-14)
    recon = (v * w) @ v.conj().T
    np.testing.assert_allclose(recon, a, atol=1e-14)


def test_eig_already_diagonal():
    w, v = q.eig_hermitian(np.diag([0.5, 0.3, 0.2]))
    np.testing.assert_allclose(w, [0.5, 0.3, 0.2])
    np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-14)


def test_eig_descending_order():
    a = q.random_density(5, 3).entries
    w, _ = q.eig_hermitian(a)
    assert np.all(np.diff(w) <= 0)


def test_eig_rejects_non_hermitian():
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.nan)):
        with pytest.raises(q.NotHermitianError):
            q.eig_hermitian(bad)


def test_sld_scalar_state():
    # theta_j + theta_k = 1 for all entries, so L = 2X
    rho = q.make_density(np.eye(2) / 2)
    x = q.TangentVector(np.array([[0.0, 0.2], [0.2, 0.0]]), rho)
    l = q.sld(rho, x)
    np.testing.assert_allclose(l.entries, 2 * x.entries, atol=1e-14)


def test_sld_diagonal_oracle():
    # elementwise in the eigenbasis: L_jj = X_jj / theta_j, as exact fractions
    theta = [Fraction(3, 4), Fraction(1, 4)]
    xval = [Fraction(1, 10), Fraction(-1, 10)]
    expected = [float(x / t) for x, t in zip(xval, theta)]
    rho = q.make_density(np.diag([float(t) for t in theta]))
    x = q.TangentVector(np.diag([float(v) for v in xval]), rho)
    l = q.sld(rho, x)
    np.testing.assert_allclose(l.entries, np.diag(expected), atol=1e-14)
    assert expected == pytest.approx([2 / 15, -2 / 5])


def test_sld_zero():
    rho = q.random_density(3, 1)
    l = q.sld(rho, q.TangentVector(np.zeros((3, 3)), rho))
    assert frobenius(l.entries) == 0.0


def test_sld_base_mismatch():
    rho1 = q.random_density(2, 1)
    rho2 = q.random_density(2, 2)
    x = q.random_tangent(rho1, 3)
    with pytest.raises(q.BaseMismatchError):
        q.sld(rho2, x)


def test_sld_inverse_zero():
    rho = q.random_density(3, 1)
    x = q.sld_inverse(rho, q.SldMatrix(np.zeros((3, 3)), rho))
    assert frobenius(x.entries) == 0.0


def test_sld_inverse_scalar_state():
    rho = q.make_density(np.eye(2) / 2)
    xi = q.SldMatrix(np.array([[0.0, 0.4], [0.4, 0.0]]), rho)
    x = q.sld_inverse(rho, xi)
    np.testing.assert_allclose(x.entries, xi.entries / 2, atol=1e-14)


def test_sld_round_trip_n4():
    rho = q.random_density(4, 11)
    x = q.random_tangent(rho, 12)
    back = q.sld_inverse(rho, q.sld(rho, x))
    assert frobenius(back.entries - x.entries) <= 1e-10


def test_sld_matrix_rejects_outside_image():
    # identity has Tr(rho I + I rho) = 2, far outside the admissible space
    rho = q.random_density(2, 1)
    with pytest.raises(q.NotInSldSpaceError):
        q.SldMatrix(np.eye(2), rho)


def test_sld_inverse_base_mismatch():
    rho1 = q.random_density(2, 1)
    rho2 = q.random_density(2, 2)
    xi = q.sld(rho1, q.random_tangent(rho1, 3))
    with pytest.raises(q.BaseMismatchError):
        q.sld_inverse(rho2, xi)


def test_fisher_metric_hand_value():
    # eigenbasis sum with all weights 2: 2*(0.01 + 0.01) = 0.04
    rho = q.make_density(np.eye(2) / 2)
    x = q.TangentVector(np.diag([0.1, -0.1]), rho)
    assert q.fisher_metric(rho, x, x) == pytest.approx(0.04, abs=1e-14)


def test_fisher_metric_zero():
    rho = q.random_density(3, 1)
    x = q.random_tangent(rho, 2)
    zero = q.TangentVector(np.zeros((3, 3)), rho)
    assert q.fisher_metric(rho, x, zero) == 0.0


def test_fisher_metric_symmetry():
    rho = q.random_density(3, 5)
    x = q.random_tangent(rho, 6)
    y = q.random_tangent(rho, 7)
    assert abs(q.fisher_metric(rho, x, y) - q.fisher_metric(rho, y, x)) <= 1e-12


def test_fisher_metric_base_mismatch():
    rho1 = q.random_density(2, 1)
    rho2 = q.random_density(2, 2)
    for metric in (q.fisher_metric, q.fisher_metric_eigenbasis):
        with pytest.raises(q.BaseMismatchError):
            metric(rho1, q.random_tangent(rho1, 3), q.random_tangent(rho2, 4))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_sld_round_trip_property(n):
    for k in range(25):
        rho = q.random_density(n, 100 * n + k)
        x = q.random_tangent(rho, 200 * n + k)
        l = q.sld(rho, x)
        back = q.sld_inverse(rho, l)
        assert frobenius(back.entries - x.entries) <= q.TOL_SLD
        resid = x.entries - 0.5 * (rho.entries @ l.entries + l.entries @ rho.entries)
        assert frobenius(resid) <= q.TOL_SLD
        # and symmetrically, starting from the SLD side
        xi = q.SldMatrix(l.entries, rho)
        assert frobenius(q.sld(rho, q.sld_inverse(rho, xi)).entries - xi.entries) <= q.TOL_SLD


def test_degenerate_spectrum_closed_form():
    # at rho = I/n all weights equal n, so the SLD is n*X and the metric n*Tr(X^H Y),
    # independent of how the eigenbasis resolves the degeneracy
    for n in (2, 4):
        rho = q.make_density(np.eye(n) / n)
        x = q.random_tangent(rho, n)
        y = q.random_tangent(rho, n + 50)
        l = q.sld(rho, x)
        assert frobenius(l.entries - n * x.entries) <= 1e-12
        expected = n * float(np.trace(x.entries.conj().T @ y.entries).real)
        assert q.fisher_metric(rho, x, y) == pytest.approx(expected, abs=1e-12)
        assert q.fisher_metric_eigenbasis(rho, x, y) == pytest.approx(expected, abs=1e-12)


def test_metric_routes_agree():
    for k in range(30):
        n = 2 + k % 4
        rho = q.random_density(n, 300 + k)
        x = q.random_tangent(rho, 400 + k)
        y = q.random_tangent(rho, 500 + k)
        m1 = q.fisher_metric(rho, x, y)
        m2 = q.fisher_metric_from_slds(rho, x, y)
        m3 = q.fisher_metric_eigenbasis(rho, x, y)
        assert abs(m1 - m2) <= q.TOL_METRIC * max(1.0, abs(m1))
        assert abs(m1 - m3) <= q.TOL_METRIC * max(1.0, abs(m1))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_metric_positive_definite(n):
    for k in range(100):
        rho = q.random_density(n, 1000 * n + k)
        x = q.random_tangent(rho, 2000 * n + k, scale=1e-6)
        assert q.fisher_metric(rho, x, x) > 0


def test_fisher_metric_bilinear():
    rho = q.random_density(3, 8)
    x = q.random_tangent(rho, 9)
    y = q.random_tangent(rho, 10)
    z = q.TangentVector(2.5 * x.entries + y.entries, rho)
    lhs = q.fisher_metric(rho, z, y)
    rhs = 2.5 * q.fisher_metric(rho, x, y) + q.fisher_metric(rho, y, y)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_tangent_vector_rejects_trace():
    rho = q.random_density(2, 1)
    with pytest.raises(q.NotTracelessError):
        q.TangentVector(np.eye(2), rho)


def test_density_matrix_immutable():
    rho = q.random_density(2, 1)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 9.0


def test_attached_matrices_share_shape_and_base_checks():
    rho = q.random_density(2, 1)
    for cls in (q.TangentVector, q.SldMatrix):
        with pytest.raises(q.InvalidValueError):
            cls(np.zeros((2, 3)), rho)
        with pytest.raises(q.BaseMismatchError, match=cls.__name__):
            cls(np.zeros((3, 3)), rho)
        for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.nan)):
            with pytest.raises(q.NotHermitianError):
                cls(bad, rho)
        m = cls(np.zeros((2, 2)), rho)
        assert m.dim == 2 and m.base is rho and not m.entries.flags.writeable
        with pytest.raises(AttributeError):
            m.extra = 1
    with pytest.raises(q.InvalidValueError):
        q.eig_hermitian(np.zeros(3))
