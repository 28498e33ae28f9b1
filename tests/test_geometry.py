"""Tests for the exponential-type transport, geodesics, and autoparallelism."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qssgeo as q
from qssgeo import geometry, verify
from qssgeo.qss import _check_states, _exp_weights, _unchecked, frobenius, hermitian_deviation

# Agreement of transported tangents and SLDs, relative to their Frobenius scale.
TOL_SLD = 1e-9


def test_transport_identity():
    rho = q.random_density(3, 1)
    x = q.random_tangent(rho, 2)
    moved = q.e_transport(rho, rho, x)
    assert frobenius(moved.entries - x.entries) <= TOL_SLD


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

    rho1 = q.DensityMatrix(np.diag([0.75, 0.25]))
    rho2 = q.DensityMatrix(np.eye(2) / 2)
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
    rho = q.DensityMatrix(np.eye(2) / 2)
    x = q.TangentVector(np.diag([0.5, -0.5]), rho)
    spec = q.GeodesicSpec(rho, x)
    np.testing.assert_allclose(q.sld(rho, x).entries, np.diag([1.0, -1.0]), atol=1e-14)
    t = np.log(2.0)
    got = q.e_geodesic(spec, t)
    expected = np.diag([np.exp(t), np.exp(-t)]) / (np.exp(t) + np.exp(-t))
    np.testing.assert_allclose(got.entries, expected, atol=1e-14)
    assert np.exp(2 * t) / (np.exp(2 * t) + 1) == pytest.approx(0.8, abs=1e-15)
    np.testing.assert_allclose(np.diag(got.entries).real, [0.8, 0.2], atol=1e-14)


def test_geodesic_at_zero_returns_start():
    spec = q.random_geodesic_spec(4, 9)
    assert frobenius(q.e_geodesic(spec, 0.0).entries - spec.start.entries) <= q.TOL_RECON


@pytest.mark.filterwarnings("error")
def test_geodesic_negative_time_flag():
    # any finite t is evaluated: the curve run backward is the curve of the
    # reversed tangent run forward
    spec = q.random_geodesic_spec(2, 3)
    reverse = q.TangentVector(-spec.initial_tangent.entries, spec.start)
    rho = q.e_geodesic(spec, -0.5)
    assert abs(np.trace(rho.entries).real - 1) <= 1e-12
    back = q.e_geodesic(q.GeodesicSpec(spec.start, reverse), 0.5)
    assert frobenius(rho.entries - back.entries) <= 1e-12
    # a non-finite t is refused before any arithmetic, here and by the closed forms
    w0, c = q.SphereVector([0.6, 0.8]), q.CouplingSpectrum([1.0, 0.0])
    for t in (np.inf, -np.inf, np.nan):
        with pytest.raises(q.InvalidValueError):
            q.e_geodesic(spec, t)
        with pytest.raises(q.InvalidValueError):
            q.ahle_closed_form(w0, c, t)
        with pytest.raises(q.InvalidValueError):
            q.diagonal_closed_form(q.SimplexPoint([0.36, 0.64]), c, t)


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
    rho = q.DensityMatrix(np.eye(2) / 2)
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t, dt_fd", [(1.0, np.nan), (np.nan, 1e-3), (np.inf, 1e-3)])
def test_autoparallel_non_finite_step(t, dt_fd):
    spec = q.random_geodesic_spec(2, 3)
    with pytest.raises(q.InvalidStepError):
        q.autoparallel_residual(spec, t, dt_fd)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    sld_scale=st.floats(0.1, 3.0),
    t=st.floats(0.1, 3.0),
)
def test_autoparallel_residual_second_order(n, seed, sld_scale, t):
    # the k-th derivative of the curve scales with |L|^k, so a step of
    # 0.02 / |L| keeps the O(h^4) term of the central difference a fixed,
    # small fraction of its O(h^2) term; its roundoff, about n eps / h,
    # stays far below the residual, and halving the step divides it by 4
    spec = q.random_geodesic_spec(n, seed, sld_scale=sld_scale)
    h = min(0.02 / sld_scale, t / 4)
    coarse = q.autoparallel_residual(spec, t, h)
    fine = q.autoparallel_residual(spec, t, h / 2)
    assert fine > 1e3 * n * np.finfo(float).eps / h
    assert 3.5 <= coarse / fine <= 4.5


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
        assert frobenius(l2 - expected) <= TOL_SLD * max(1.0, frobenius(l1))


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
    rho = q.DensityMatrix(np.eye(2) / 2)
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


def test_geodesic_spec_shares_the_tangents_sld():
    # construction computes the tangent's own SLD, and the spec's frame is
    # the eigendecomposition of that object
    rho = q.random_density(3, 5)
    x = q.random_tangent(rho, 6)
    spec = q.GeodesicSpec(rho, x)
    assert vars(x)["_sld"] is q.sld(rho, x)
    rates, frame, *_ = spec._frame
    lam, v = q.eig_hermitian(q.sld(rho, x).entries)
    assert np.array_equal(rates, 0.5 * lam) and np.array_equal(frame, v)


def test_kernel_set_builds_one_sld_per_tangent(monkeypatch):
    built = []
    post_init = q.SldMatrix.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(q.SldMatrix, "__post_init__", counting)
    # the calls of one benchmark kernel set, on two tangents at one state
    rho = q.random_density(3, 1)
    x, y = q.random_tangent(rho, 2), q.random_tangent(rho, 3)
    q.sld_inverse(rho, q.sld(rho, x))
    q.fisher_metric(rho, x, y)
    q.fisher_metric_from_slds(rho, x, y)
    q.fisher_metric_eigenbasis(rho, x, y)
    tau = q.e_transport(rho, q.random_density(3, 4), x)
    assert q.is_e_parallel(x, tau, 1e-9)
    spec = q.GeodesicSpec(rho, x)
    q.e_geodesic(spec, 1.0)
    q.autoparallel_residual(spec, 0.5, 1e-3)
    assert len(built) == 2


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_transport_matrix_is_exactly_hermitian(n, seed):
    # with M = rho2 L, the matrix is (M + M^H) / 2 - Tr(M) rho2: Hermitian
    # as built, with no symmetrizing step after it, and within roundoff of
    # the form (rho2 L + L rho2) / 2 - Tr(rho2 L) rho2 with its three products
    rho1, rho2 = q.random_density(n, seed), q.random_density(n, seed + 1)
    x = q.random_tangent(rho1, seed + 2)
    made = []

    def recording(cls, **fields):
        made.append(fields["entries"].copy())
        return _unchecked(cls, **fields)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qssgeo.geometry._unchecked", recording)
        moved = q.e_transport(rho1, rho2, x)
    (out,) = made
    np.testing.assert_array_equal(moved.entries, out)
    np.testing.assert_array_equal(out, out.conj().T)
    r2, l = rho2.entries, q.sld(rho1, x).entries
    old = 0.5 * (r2 @ l + l @ r2) - np.trace(r2 @ l).real * r2
    assert frobenius(out - old) <= 4 * n * np.finfo(float).eps * frobenius(r2) * frobenius(l)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 8),
    log_scale=st.floats(-8, 10),
    log_smallest=st.floats(-11, -1),
    seed=st.integers(0, 2**32 - 1),
)
def test_transport_round_trip_at_small_eigenvalues(n, log_scale, log_smallest, seed):
    # rho -> rho2 -> rho gives X back in exact arithmetic.  Each of its four
    # stages (SLD at rho, transport, SLD at rho2, transport back) is backward
    # stable, with error about n eps times the size of what it computes.  The
    # SLD at rho has norm at most |X| / lam, with lam the smallest eigenvalue
    # of rho; the transports multiply by states of 2-norm at most 1; the SLD
    # at rho2 scales an error in its input by at most 1 / mu, with mu the
    # smallest eigenvalue of rho2.  So each stage adds at most
    # n eps |X| / (lam mu) to the gap, and the four at most 4 times that.
    # The transport's trace is a difference of terms of size |rho2 L|; judged
    # at the result's own scale, a quarter of these draws raised
    # NotTracelessError on the way back.
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rest = rng.uniform(0.5, 1.5, n - 1)
    smallest = 10.0**log_smallest
    spectrum = np.concatenate([[smallest], rest * (1 - smallest) / rest.sum()])
    rho = q.DensityMatrix((u * spectrum) @ u.conj().T)
    rho2 = q.random_density(n, seed)
    x = q.random_tangent(rho, seed, scale=10.0**log_scale)
    back = q.e_transport(rho2, rho, q.e_transport(rho, rho2, x))
    lam, mu = np.linalg.eigvalsh(rho.entries)[0], np.linalg.eigvalsh(rho2.entries)[0]
    bound = 4 * n * np.finfo(float).eps * frobenius(x.entries) / (lam * mu)
    assert frobenius(back.entries - x.entries) <= bound


def _matmul_states(specs, times):
    """(B, T, n, n): each spec's states by the two conjugating matmuls, through _check_states."""
    out = []
    for spec in specs:
        rates, v, v_h, start_hat, _ = spec._frame
        w = _exp_weights(rates, np.asarray(times, dtype=float))
        m = start_hat * w[:, :, None] * w[:, None, :]
        m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
        out.append(_check_states(v @ m @ v_h))
    return np.stack(out)


@settings(max_examples=100, deadline=2000)
@given(
    n=st.integers(2, 16),
    seed=st.integers(0, 2**31 - 1),
    log_scale=st.floats(-2, 2),
    times=st.lists(st.floats(-20, 20), min_size=1, max_size=6),
)
def test_geodesic_eigenvalue_bound_is_below_eigvalsh(n, seed, log_scale, times):
    # The spy keeps each state with its bound, margin already taken off.
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_certify_states", lambda h, lower: seen.append((h, lower)) or h)
        spec = q.random_geodesic_spec(n, seed, sld_scale=10.0**log_scale)
        list(geometry._geodesic_blocks([spec], times))
    assert sum(lower.size for _, lower in seen) == len(times)
    for h, lower in seen:
        assert (lower <= np.linalg.eigvalsh(h)[..., 0]).all()


def test_state_the_bound_cannot_certify_takes_the_state_check():
    # From diag(1e-9, 1 - 1e-9) along c = (1, 0), at t = 7 ln 10 the weights
    # are (1, 1e-7): the bound is about 1e-9 * 1e-14 / 1e-9, below TOL_PD,
    # while the state's smallest eigenvalue is about 1e-5.
    rho = q.DensityMatrix(np.diag([1e-9, 1 - 1e-9]))
    spec = q.GeodesicSpec(rho, q.hebbian_initial_tangent(rho, q.CouplingSpectrum([1.0, 0.0])))
    times = [7 * np.log(10)]
    checked, cholesky = [], np.linalg.cholesky
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", lambda a: checked.append(a) or cholesky(a))
        states = geometry._geodesic_curves([spec], times)
    assert len(checked) == 1
    assert np.linalg.eigvalsh(states[0, 0])[0] > 1e-6
    assert states.tobytes() == _matmul_states([spec], times).tobytes()


def test_sphere_specs_take_the_gather_and_mixed_batches_the_matmul(monkeypatch):
    batches = []
    blocks = verify._geodesic_blocks
    monkeypatch.setattr(verify, "_geodesic_blocks", lambda specs, t: batches.append(specs) or blocks(specs, t))
    # the specs do not depend on the grid; a one-step suite draws the same ones
    verify.run_suite((2, 3, 4, 8), 5, seed=7, t_end=0.01, dt=0.01)
    flows, spheres = batches[0::2], batches[1::2]
    assert [len(b) for b in spheres] == [5] * 4
    assert all(s._frame[4] is None for b in flows for s in b)
    gathers = []
    take = np.take_along_axis
    monkeypatch.setattr(np, "take_along_axis", lambda *a, **k: gathers.append(1) or take(*a, **k))
    times = [-1.0, 0.0, 0.5, 1.0, 3.0]
    for specs in spheres:
        # every case, the tied couplings of case 4 included, has a permutation frame
        assert all(s._frame[4] is not None for s in specs)
        assert geometry._geodesic_curves(specs, times).tobytes() == _matmul_states(specs, times).tobytes()
    assert len(gathers) == len(spheres)
    mixed = spheres[0][:2] + flows[0][:1]
    states = geometry._geodesic_curves(mixed, times)
    assert len(gathers) == len(spheres)
    assert states[:2].tobytes() == _matmul_states(mixed[:2], times).tobytes()
