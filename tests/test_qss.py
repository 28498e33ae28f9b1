"""Tests for states, tangents, the SLD map, and the Fisher metric."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qssgeo as q
from qssgeo.qss import _certify_states, _check_states, frobenius, hermitian_deviation, hermitian_part

# Agreement of the SLD round trips and of the three metric formulas, relative
# to the Frobenius scale of the objects compared.
TOL_SLD = 1e-9
TOL_METRIC = 1e-9


def test_density_matrix_maximally_mixed():
    rho = q.DensityMatrix(np.eye(3) / 3)
    assert rho.dim == 3
    np.testing.assert_allclose(np.linalg.eigvalsh(rho.entries), [1 / 3] * 3, atol=1e-15)


def test_density_matrix_diagonal():
    rho = q.DensityMatrix(np.diag([0.75, 0.25]))
    np.testing.assert_allclose(rho.entries, np.diag([0.75, 0.25]), atol=1e-15)


def test_density_matrix_rejects_boundary():
    with pytest.raises(q.NotPositiveDefiniteError) as exc:
        q.DensityMatrix(np.diag([1.0, 0.0]))
    assert exc.value.min_eigenvalue <= q.TOL_PD


@pytest.mark.filterwarnings("error")
def test_density_matrix_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(q.NotHermitianError) as exc:
        q.DensityMatrix(bad)
    assert exc.value.deviation == pytest.approx(0.3)
    # NaN fails the Hermitian check at every size, also where LAPACK rejects it
    # (n >= 3); so does an infinite entry, without a RuntimeWarning
    for bad in (np.full((3, 3), np.nan), np.diag([np.inf, 0.3, 0.3])):
        with pytest.raises(q.NotHermitianError):
            q.DensityMatrix(bad)


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(q.NotUnitTraceError) as exc:
        q.DensityMatrix(np.diag([0.9, 0.3]))
    assert exc.value.deviation == pytest.approx(0.2)


def test_density_matrix_rejects_one_by_one():
    # Q_1 is a single point with no tangent space; random_density refuses n < 2 too
    for entries in ([[1.0]], np.ones((1, 1), dtype=complex)):
        with pytest.raises(q.DimensionTooSmallError) as exc:
            q.DensityMatrix(entries)
        assert exc.value.n == 1


def test_density_matrix_symmetrizes_roundoff():
    a = np.diag([0.6, 0.4]).astype(complex)
    a[0, 1] = 1e-12
    rho = q.DensityMatrix(a)
    assert hermitian_deviation(rho.entries) == 0.0


def _state_with_smallest(n, smallest, rng):
    """U diag(smallest, rest) U^H: a random unitary U and a unit-trace spectrum."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rest = rng.uniform(0.5, 1.5, n - 1)
    spectrum = np.concatenate([[smallest], rest * (1 - smallest) / rest.sum()])
    return (u * spectrum) @ u.conj().T


# Smallest eigenvalues of either sign, off the band within a factor 2 of TOL_PD.
_SMALLEST = st.builds(
    lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([1.0, -1.0]), st.floats(-16, -2)
).filter(lambda lam: not q.TOL_PD / 2 <= lam <= 2 * q.TOL_PD)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 16),
    smallest=st.lists(_SMALLEST, min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_states_certifies_like_eigvalsh(n, smallest, seed):
    # Cholesky of h - TOL_PD I decides as eigvalsh does outside the band,
    # since its backward error (about n eps |h|) is far below TOL_PD / 2.
    rng = np.random.default_rng(seed)
    a = np.stack([_state_with_smallest(n, lam, rng) for lam in smallest])
    h = hermitian_part(a)
    lowest = np.linalg.eigvalsh(h)[:, 0]
    positive = (lowest > q.TOL_PD).all()
    try:
        np.linalg.cholesky(h - q.TOL_PD * np.eye(n))
        certified = True
    except np.linalg.LinAlgError:
        certified = False
    assert certified == positive
    if positive:
        np.testing.assert_array_equal(_check_states(a), h)
    else:
        with pytest.raises(q.NotPositiveDefiniteError) as exc:
            _check_states(a)
        assert exc.value.min_eigenvalue == lowest[np.argmax(lowest <= q.TOL_PD)]


_MATRICES = {
    "valid": q.random_density(3, 1).entries,
    "valid2": q.random_density(3, 2).entries,
    "non_hermitian": q.random_density(3, 1).entries + np.triu(np.full((3, 3), 1e-3), 1),
    "wrong_trace": 1.1 * q.random_density(3, 2).entries,
    "non_pd": np.diag([1.2, 0.1, -0.3]),
    "near_boundary": np.diag([0.6, 0.4 - 1e-13, 1e-13]),
    "nan": np.full((3, 3), np.nan),
    "inf": np.diag([np.inf, 0.3, 0.3]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "names",
    [
        ("valid", "valid2", "non_pd"),
        ("valid", "valid2", "valid", "near_boundary"),
        ("valid", "non_pd", "non_hermitian"),
        ("non_hermitian", "non_pd"),
        ("valid", "wrong_trace", "nan"),
        ("nan", "valid", "non_pd"),
        ("non_pd", "nan", "wrong_trace", "valid"),
        ("near_boundary", "non_pd", "valid", "valid2"),
        ("valid", "inf"),
    ],
    ids="-".join,
)
def test_check_states_stack_fails_as_first_matrix(names):
    # a stack raises what checking its matrices one at a time in order raises
    # and names that matrix's index in the stack as its position
    matrices = [_MATRICES[name] for name in names]
    for first, m in enumerate(matrices):
        try:
            _check_states(m)
        except q.QssError as exc:
            expected = exc
            break
    assert expected.position == ()
    a = np.stack(matrices)
    for stack in (a, a.reshape(2, -1, 3, 3)) if len(a) % 2 == 0 else (a,):
        with pytest.raises(q.QssError) as exc:
            _check_states(stack)
        assert type(exc.value) is type(expected)
        assert exc.value.position == np.unravel_index(first, stack.shape[:-2])
        assert repr(vars(exc.value) | {"position": ()}) == repr(vars(expected))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "names",
    [
        ("valid", "valid2"),
        ("valid", "valid2", "non_pd"),
        ("valid", "near_boundary", "valid2"),
        ("valid", "wrong_trace", "non_pd"),
        ("non_pd", "wrong_trace"),
    ],
    ids="-".join,
)
def test_certify_states_with_zero_deviation_matches_check_states(names):
    # RK4 blocks are exactly Hermitian and pass no deviations
    a = np.stack([_MATRICES[name] for name in names])
    try:
        expected = _check_states(a)
    except q.QssError as exc:
        expected = exc
    if isinstance(expected, np.ndarray):
        np.testing.assert_array_equal(_certify_states(a), expected)
        return
    with pytest.raises(q.QssError) as exc:
        _certify_states(a)
    assert type(exc.value) is type(expected)
    assert repr(vars(exc.value)) == repr(vars(expected))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [9e307, 1e308, 1.7e308])
def test_density_matrix_rejects_entries_that_overflow_when_symmetrized(x):
    # exactly Hermitian with unit trace, so its deviation is 0, but A + A^H
    # overflows: the symmetrized matrix is not finite and no state
    with pytest.raises(q.NotPositiveDefiniteError) as exc:
        q.DensityMatrix([[0.5, x], [x, 0.5]])
    assert np.isnan(exc.value.min_eigenvalue)
    assert exc.value.position == ()


# Off-diagonal pairs v, conj(v) that keep a matrix exactly Hermitian.
_NON_FINITE = [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, np.nan)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("value", _NON_FINITE, ids=repr)
def test_certify_states_rejects_a_non_finite_matrix_it_is_given_no_deviation_for(n, value):
    # numpy's stacked Cholesky returned NaN, not LinAlgError, for all 420
    # such stacks tried (each off-diagonal pair at n = 2..8, each value
    # here), so a state check must screen for finiteness itself
    a = np.stack([np.eye(n, dtype=complex) / n] * 4)
    a[2, 0, n - 1], a[2, n - 1, 0] = value, np.conj(value)
    for stack, position in ((a, (2,)), (a.reshape(2, 2, n, n), (1, 0))):
        with pytest.raises(q.NotHermitianError) as exc:
            _certify_states(stack)
        assert np.isnan(exc.value.deviation)
        assert exc.value.position == position


@st.composite
def _exact_hermitian_stacks(draw):
    """(B, n, n) exactly Hermitian stacks: states, some with trace drift, a smallest
    eigenvalue near TOL_PD or a non-finite off-diagonal pair."""
    kinds = draw(st.lists(st.sampled_from(["state", "drift", "singular", "non_finite"]), min_size=1, max_size=6))
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(len(kinds), n, n)) + 1j * rng.normal(size=(len(kinds), n, n))
    v = np.linalg.qr(g)[0]
    theta = rng.uniform(0.1, 1.0, size=(len(kinds), n))
    theta /= theta.sum(axis=-1, keepdims=True)
    for k, kind in enumerate(kinds):
        if kind == "singular":  # within a factor 100 of TOL_PD, of either sign
            theta[k, 0] = draw(st.sampled_from([-1, 1])) * q.TOL_PD * 10.0 ** draw(st.floats(-2, 2))
            theta[k, 1:] *= (1 - theta[k, 0]) / theta[k, 1:].sum()
        elif kind == "drift":  # |Tr - 1| from 1e-12 to 1e-8, across TOL_TRACE
            theta[k] *= 1 + draw(st.sampled_from([-1, 1])) * 10.0 ** draw(st.floats(-12, -8))
    h = hermitian_part((v * theta[:, None, :]) @ v.conj().swapaxes(-1, -2))
    for k, kind in enumerate(kinds):
        if kind == "non_finite":
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            value = draw(st.sampled_from(_NON_FINITE))
            h[k, i, j], h[k, j, i] = value, np.conj(value)
    return h


@settings(max_examples=150, deadline=1000)
@given(h=_exact_hermitian_stacks())
def test_certify_states_without_deviations_matches_check_states(h):
    # on exactly Hermitian stacks, measuring the deviations changes nothing:
    # the same bits, or the same error with the same fields and position
    try:
        expected = _check_states(h)
    except q.QssError as exc:
        expected = exc
    if isinstance(expected, np.ndarray):
        assert _certify_states(h).tobytes() == expected.tobytes()
        return
    with pytest.raises(q.QssError) as exc:
        _certify_states(h)
    assert type(exc.value) is type(expected)
    assert str(exc.value) == str(expected)
    assert repr(vars(exc.value)) == repr(vars(expected))


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


def test_eig_raises_decomposition_failed_when_eigh_fails(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(q.DecompositionFailedError, match="did not converge") as exc:
        q.eig_hermitian(np.eye(2) / 2)
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def test_eig_raises_decomposition_failed_on_reconstruction_error(monkeypatch):
    eigh = np.linalg.eigh

    def off_by_1e_6(a):
        w, v = eigh(a)
        return w + 1e-6, v

    monkeypatch.setattr(np.linalg, "eigh", off_by_1e_6)
    with pytest.raises(q.DecompositionFailedError, match="reconstruction error"):
        q.eig_hermitian(np.diag([0.75, 0.25]))


def test_sld_scalar_state():
    # theta_j + theta_k = 1 for all entries, so L = 2X
    rho = q.DensityMatrix(np.eye(2) / 2)
    x = q.TangentVector(np.array([[0.0, 0.2], [0.2, 0.0]]), rho)
    l = q.sld(rho, x)
    np.testing.assert_allclose(l.entries, 2 * x.entries, atol=1e-14)


def test_sld_diagonal_oracle():
    # elementwise in the eigenbasis: L_jj = X_jj / theta_j, as exact fractions
    theta = [Fraction(3, 4), Fraction(1, 4)]
    xval = [Fraction(1, 10), Fraction(-1, 10)]
    expected = [float(x / t) for x, t in zip(xval, theta)]
    rho = q.DensityMatrix(np.diag([float(t) for t in theta]))
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
    rho = q.DensityMatrix(np.eye(2) / 2)
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
    rho = q.DensityMatrix(np.eye(2) / 2)
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
        assert frobenius(back.entries - x.entries) <= TOL_SLD
        resid = x.entries - 0.5 * (rho.entries @ l.entries + l.entries @ rho.entries)
        assert frobenius(resid) <= TOL_SLD
        # and symmetrically, starting from the SLD side
        xi = q.SldMatrix(l.entries, rho)
        assert frobenius(q.sld(rho, q.sld_inverse(rho, xi)).entries - xi.entries) <= TOL_SLD


def test_degenerate_spectrum_closed_form():
    # at rho = I/n all weights equal n, so the SLD is n*X and the metric n*Tr(X^H Y),
    # independent of how the eigenbasis resolves the degeneracy
    for n in (2, 4):
        rho = q.DensityMatrix(np.eye(n) / n)
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
        assert abs(m1 - m2) <= TOL_METRIC * max(1.0, abs(m1))
        assert abs(m1 - m3) <= TOL_METRIC * max(1.0, abs(m1))


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


@pytest.mark.filterwarnings("error")
def test_attached_matrices_share_shape_and_base_checks():
    rho = q.random_density(2, 1)
    for cls in (q.TangentVector, q.SldMatrix):
        with pytest.raises(q.InvalidValueError):
            cls(np.zeros((2, 3)), rho)
        with pytest.raises(q.BaseMismatchError, match=cls.__name__):
            cls(np.zeros((3, 3)), rho)
        for bad in (
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.full((2, 2), np.nan),
            np.diag([np.inf, -np.inf]),
        ):
            with pytest.raises(q.NotHermitianError):
                cls(bad, rho)
        m = cls(np.zeros((2, 2)), rho)
        assert m.dim == 2 and m.base is rho and not m.entries.flags.writeable
        with pytest.raises(AttributeError):
            m.extra = 1
    with pytest.raises(q.InvalidValueError):
        q.eig_hermitian(np.zeros(3))


def test_sld_is_computed_once_per_tangent():
    rho = q.random_density(4, 3)
    x = q.random_tangent(rho, 4)
    l = q.sld(rho, x)
    assert q.sld(rho, x) is l
    # the formula the cached SLD replaced, bit for bit
    v, v_h, sums = rho._frame
    expected = hermitian_part(v @ (2.0 * (v_h @ x.entries @ v) / sums) @ v_h)
    np.testing.assert_array_equal(l.entries, expected)
    # an equal state that is another object gets the same SLD, attached to x.base
    twin = q.DensityMatrix(rho.entries.copy())
    assert q.sld(twin, x) is l and l.base is rho
    back = q.sld_inverse(twin, q.sld(twin, x))
    assert frobenius(back.entries - x.entries) <= TOL_SLD


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    log_scale=st.floats(-8, 10),
    log_smallest=st.floats(np.log10(10 * q.TOL_PD), -1),
    seed=st.integers(0, 2**32 - 1),
)
def test_attached_checks_scale_with_the_data(n, log_scale, log_smallest, seed):
    # roundoff in a tangent's trace and in an SLD's pairing grows with the
    # matrix, and an SLD is larger than its tangent by up to 1 / lambda_min;
    # checks against a fixed 1e-10 rejected tangents of norm 1e7 and SLDs of
    # tangents of norm 1e5, or of norm 1e-3 at lambda_min = 1e-11
    rng = np.random.default_rng(seed)
    rho = q.DensityMatrix(_state_with_smallest(n, 10.0**log_smallest, rng))
    x = q.random_tangent(rho, seed, scale=10.0**log_scale)
    l = q.sld(rho, x)
    back = q.sld_inverse(rho, l)
    q.e_transport(rho, q.random_density(n, seed), x)
    smallest = np.linalg.eigvalsh(rho.entries)[0]
    eps = np.finfo(float).eps
    assert frobenius(back.entries - x.entries) <= 4 * n * eps * frobenius(x.entries) / smallest


@pytest.mark.filterwarnings("error")
def test_entries_whose_hermitian_part_overflows_raise_one_qss_error():
    # A + A^H overflows above about 9e307 even where A is Hermitian and traceless;
    # each check then reports the non-finite result, and no RuntimeWarning shows
    with pytest.raises(q.NotUnitTraceError):
        q.DensityMatrix(np.diag([1e308, 1e308]))
    # an exactly Hermitian, traceless tangent is its own Hermitian part and is
    # accepted as it is; its SLD overflows and fails SldMatrix's check
    for n in (2, 3):
        rho = q.random_density(n, 1)
        x = q.TangentVector(np.diag([1e308, -1e308, 0][:n]), rho)
        assert x.entries.tobytes() == np.diag([1e308, -1e308, 0][:n]).astype(complex).tobytes()
        with pytest.raises(q.NotHermitianError):
            q.sld(rho, x)
    # and so is an exactly Hermitian matrix's eigendecomposition
    w, v = q.eig_hermitian(np.diag([1e308, 1e308]))
    assert np.array_equal(w, [1e308, 1e308]) and np.array_equal(abs(v) @ abs(v), np.eye(2))
    # A - A^H overflows the same way for an anti-Hermitian A: an infinite deviation
    anti = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with pytest.raises(q.NotHermitianError):
        q.eig_hermitian(anti)
    with pytest.raises(q.NotHermitianError):
        q.DensityMatrix(anti + np.eye(2) / 2)


@pytest.mark.filterwarnings("error")
def test_attached_checks_keep_absolute_floor_and_reject_non_finite():
    rho = q.random_density(2, 1)
    # the largest entry sets the scale: no norm to overflow
    assert q.TangentVector(np.diag([1e200, -1e200]), rho).dim == 2
    # an infinite deviation fails even against an infinite scale
    with pytest.raises(q.NotHermitianError):
        q.TangentVector(np.array([[0.0, np.inf], [0.0, 0.0]]), rho)
    # below scale 1 the bound stays TOL_TRACE
    with pytest.raises(q.NotTracelessError):
        q.TangentVector(np.diag([1e-3, -1e-3 + 1e-9]), rho)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_trace_forms_match_products(n, seed):
    # vdot(A, B) = Tr(A^H B) = Tr(A B) for Hermitian A, without forming A B;
    # the two sums differ only in roundoff, at most k eps |A|_F |B|_F
    rho = q.random_density(n, seed)
    x = q.random_tangent(rho, seed + 1)
    y = q.random_tangent(rho, seed + 2)
    r, lx, ly = rho.entries, q.sld(rho, x).entries, q.sld(rho, y).entries
    anti = lx @ ly + ly @ lx
    bound = 4 * n * np.finfo(float).eps
    forms = [
        (np.vdot(r, lx).real, np.trace(r @ lx).real, r, lx),
        (q.fisher_metric(rho, x, y), np.trace(x.entries.conj().T @ ly).real, x.entries, ly),
        (q.fisher_metric_from_slds(rho, x, y), 0.5 * np.trace(r @ anti).real, r, 0.5 * anti),
    ]
    for new, old, a, b in forms:
        assert abs(new - old) <= bound * frobenius(a) * frobenius(b)
