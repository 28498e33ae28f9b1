"""Exponential-type parallel transport and its geodesics on the state space.

The exponential-type (e-) transport moves a tangent vector X at rho1 to

    tau(X) = (rho2 L + L rho2) / 2 - Tr(rho2 L) rho2,      L = sld(rho1, X),

which is the direct form of the defining relation on SLDs,
L_rho2(tau(X)) = L_rho1(X) - Tr(rho2 L_rho1(X)) I.  The autoparallel curves
of this transport admit a closed form: from rho0 with initial tangent X0 and
L = sld(rho0, X0),

    rho(t) = E(t) rho0 E(t) / Tr(E(t) rho0 E(t)),      E(t) = exp(t L / 2),

evaluated spectrally since L is Hermitian.  No marching is needed; each time
is a pointwise evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InvalidStepError
from .qss import (
    _BLOCK_BYTES,
    DensityMatrix,
    SldMatrix,
    TangentVector,
    _certify_states,
    _check_traceless,
    _exp_weights,
    _freeze,
    _unchecked,
    eig_hermitian,
    frobenius,
    hermitian_part,
    random_density,
    sld,
    sld_inverse,
)


@dataclass(frozen=True, eq=False)
class GeodesicSpec:
    """Initial data of a geodesic: start point and initial tangent.

    Construction computes the tangent's SLD at the start, unless the tangent
    already has; ``sld(start, initial_tangent)`` returns that one object.
    """

    start: DensityMatrix
    initial_tangent: TangentVector

    def __post_init__(self):
        # sld raises BaseMismatchError for a tangent attached elsewhere.
        sld(self.start, self.initial_tangent)

    @property
    def dim(self) -> int:
        return self.start.dim

    @cached_property
    def _frame(self):
        """Half the SLD's eigenvalues, its eigenbasis V and V^H, S = V^H rho0 V, and a gather index.

        What :func:`_geodesic_blocks` evaluates the curve from, computed once
        per spec.  For V[a, inv_a] = 1 a permutation and S free of sign bits,
        m holds no -0 and the matmuls give (V m V^H)[a, b] = m[inv_a, inv_b]
        exactly: the index is the flat inv_a n + inv_b, else None.
        """
        lam, v = eig_hermitian(sld(self.start, self.initial_tangent).entries)
        v_h = np.ascontiguousarray(v.conj().T)
        start_hat = v_h @ self.start.entries @ v
        inv = np.argmax(v.real, axis=1) if np.count_nonzero(v) == self.dim else None  # n, as in a permutation
        exact = inv is not None and np.array_equal(v, np.eye(len(v))[inv]) and not np.signbit(start_hat.view(float)).any()
        return 0.5 * lam, v, v_h, start_hat, (inv[:, None] * self.dim + inv).ravel() if exact else None


def e_transport(rho1: DensityMatrix, rho2: DensityMatrix, x: TangentVector) -> TangentVector:
    """Transport ``x`` from rho1 to rho2.

    The result is Hermitian and traceless by construction; its SLD at rho2
    equals sld(rho1, x) shifted by -Tr(rho2 sld(rho1, x)) I.  The tangent's
    cached SLD is reused, and the one product M = rho2 L gives both
    L rho2 = M^H and the trace, so the matrix is exactly Hermitian; its trace,
    a difference of terms of M's size, is judged at M's scale.  For an ``x``
    attached elsewhere, sld raises BaseMismatchError.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatchError(
            f"source dimension {rho1.dim} != target dimension {rho2.dim}"
        )
    r2 = rho2.entries
    m = r2 @ sld(rho1, x).entries
    moved = hermitian_part(m) - float(np.trace(m).real) * r2
    _check_traceless(moved, m)
    return _unchecked(TangentVector, entries=_freeze(moved), base=rho2)


def is_e_parallel(x1: TangentVector, x2: TangentVector, tol: float) -> bool:
    """Whether ``x2`` equals the transport of ``x1`` to x2's base, within ``tol``."""
    moved = e_transport(x1.base, x2.base, x1)
    return frobenius(x2.entries - moved.entries) <= tol


def _geodesic_blocks(specs, times):
    """Evaluate the geodesics of ``specs`` (one dimension) at ``times``, in time blocks.

    With each spec's frame, rates r (half the SLD's eigenvalues), eigenbasis
    V and S = V^H rho0 V, the state is V m V^H, m = D S D / Tr with D =
    diag(w), w = exp(t r): exp(tL/2) rho0 exp(tL/2), trace-normalized.
    Yields ``(slice of times, (B, t, n, n) states)``, every state validated
    as a density matrix; a block holds at most _BLOCK_BYTES of states.

    By Ostrowski (Horn & Johnson, Matrix Analysis, Thm 4.5.9) lambda_min(m) >=
    lambda_min(rho0) min_j w_j^2 / Tr <= 1; lambda_min(rho0) is half the least
    diagonal entry of rho0's theta_j + theta_k.  By Weyl (Thm 4.3.1) roundoff,
    u = eps / 2 (Higham, Sec. 3.5), moves it by at most n u in eigh and in
    eigvalsh, 2 n^1.5 u in each of S and V m V^H (products with a factor of
    Frobenius norm sqrt n), (n + 3) u in m and O(n u) from V^H V - I: below
    64 n eps to n = 900 (measured: 3.04 eps).  Blocks whose bounds less that
    exceed TOL_PD skip the Cholesky; V m V^H is Hermitian to roundoff, and
    finite: one weight is 1, so Tr >= lambda_min(rho0) and |m_jk| <= 1 / Tr.
    """
    # V and V^H are contiguous, so the stacked matmul stays on BLAS.
    rates, frame, frame_h, start_hat = (np.stack(p) for p in zip(*(s._frame[:4] for s in specs)))
    gather = None if any(s._frame[4] is None for s in specs) else np.stack([s._frame[4] for s in specs])[:, None]
    smallest = np.array([np.diagonal(s.start._frame[2]).min() / 2 for s in specs])[:, None]
    times = np.asarray(times, dtype=float)
    b, n = rates.shape
    size = max(1, _BLOCK_BYTES // (16 * b * n * n))
    for lo in range(0, len(times), size):
        block = slice(lo, min(lo + size, len(times)))
        w = _exp_weights(rates, times[block])
        m = start_hat[:, None] * w[..., :, None] * w[..., None, :]
        traces = np.trace(m, axis1=-2, axis2=-1).real
        m /= traces[..., None, None]
        # Rebinding m frees the scaled S before the state check allocates.
        m = frame[:, None] @ m @ frame_h[:, None] if gather is None else np.take_along_axis(
            m.reshape(b, -1, n * n), gather, axis=-1).reshape(m.shape)
        bound = smallest * w.min(axis=-1) ** 2 / traces - 64 * n * np.finfo(float).eps
        yield block, _certify_states(hermitian_part(m), lower=bound)


def _geodesic_curves(specs, times) -> np.ndarray:
    """(B, T, n, n): the geodesics of ``specs`` at ``times``, every state validated."""
    return np.concatenate([states for _, states in _geodesic_blocks(specs, times)], axis=1)


def e_geodesic(spec: GeodesicSpec, t: float) -> DensityMatrix:
    """Evaluate the geodesic of ``spec`` at any finite time ``t``.

    Spectral evaluation: eigendecompose the Hermitian SLD once (cached on the
    spec), exponentiate eigenvalues, conjugate the start point, normalize the
    trace.  An extreme eigenvalue is taken off before multiplying by t; the
    shift cancels in the trace normalization and prevents overflow.  A
    negative t gives the curve before its start.
    """
    state = _geodesic_curves([spec], [t])[0, 0]
    return _unchecked(DensityMatrix, entries=_freeze(state))


def autoparallel_residual(spec: GeodesicSpec, t: float, dt_fd: float) -> float:
    """Frobenius gap between the curve's velocity and the transported initial tangent.

    The velocity at ``t`` is approximated by the central difference with step
    ``dt_fd``, so the returned residual is O(dt_fd^2) for a true autoparallel
    curve.
    """
    if not 0 < dt_fd < t < np.inf:  # NaN fails too
        raise InvalidStepError(f"step must satisfy 0 < dt_fd < t < inf, got dt_fd={dt_fd}, t={t}")
    behind, here, ahead = _geodesic_curves([spec], [t - dt_fd, t, t + dt_fd])[0]
    velocity_fd = (ahead - behind) / (2.0 * dt_fd)
    here = _unchecked(DensityMatrix, entries=_freeze(here))
    moved = e_transport(spec.start, here, spec.initial_tangent)
    return frobenius(velocity_fd - moved.entries)


def random_geodesic_spec(n: int, seed: int, sld_scale: float = 1.0) -> GeodesicSpec:
    """Draw a random geodesic spec with an SLD of Frobenius norm ``sld_scale``.

    Sampling the SLD (rather than the tangent) keeps the curve's speed
    independent of how small the state's eigenvalues happen to be.
    """
    rng = np.random.default_rng(seed)
    rho = random_density(n, seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    xi = hermitian_part(m)
    # Project onto Tr(rho Xi) = 0, the admissible space of SLDs at rho.
    xi -= float(np.trace(rho.entries @ xi).real) * np.eye(n)
    xi *= sld_scale / frobenius(xi)
    x0 = sld_inverse(rho, SldMatrix(xi, rho))
    return GeodesicSpec(rho, x0)
