"""Averaged Hebbian learning flows on the state space and on the unit sphere.

The matrix flow

    d rho / dt = rho C + C rho - 2 Tr(C rho) rho

is driven by a real diagonal coupling matrix C = diag(c_1..c_n), the spectrum
of the autocorrelation matrix of the learning process.  Restricted to
diagonal states Theta = diag(theta) it becomes

    d theta_j / dt = 2 c_j theta_j - 2 (sum_k c_k theta_k) theta_j,

the Moser form of the Toda lattice, and via the orthant chart
theta_j = w_j^2 it is equivalent to Oja's rule on the unit sphere,

    d w / dt = C w - (w^T C w) w.

Both flows admit closed-form solutions (exponential reweighting of the
initial coordinates followed by renormalization), implemented here alongside
fixed-step RK4 integrators.  The integrators run B cases at once over a batch
axis; the public ones are that kernel run with a batch of one.  They never
project onto the state space: positivity is monitored each step and its loss
is a hard error, since the exact flow provably stays inside.
"""

from __future__ import annotations

import mmap
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidStepError,
    InvalidValueError,
    NotPositiveDefiniteError,
    QssError,
    StepTooLargeError,
    ZeroComponentError,
)
from .qss import (
    _BLOCK_BYTES,
    TOL_TRACE,
    DensityMatrix,
    TangentVector,
    _certify_states,
    _exp_weights,
    _freeze,
    _unchecked,
)

TOL_SPHERE = 1e-10
# Below this magnitude the sign of a sphere coordinate is numerically meaningless.
TOL_ZERO = 1e-12
# The most entries a float64 array can have, less the grid's extra point.
_MAX_STEPS = np.iinfo(np.intp).max // 8 - 1


def _check_vectors(v: np.ndarray) -> np.ndarray:
    """Return the (..., n) stack ``v``; its first non-unit vector raises InvalidValueError at ``position``."""
    with np.errstate(over="ignore"):  # an overflowing norm is inf, which fails below
        norm_dev = np.abs(np.linalg.norm(v, axis=-1) - 1.0)
    bad = ~(norm_dev <= TOL_SPHERE)  # a non-finite vector has a NaN or infinite norm
    if bad.any():
        error = InvalidValueError(f"vector is not unit norm: | ||w|| - 1 | = {norm_dev[bad][0]:.6e}")
        error.position = np.unravel_index(np.argmax(bad), bad.shape)
        raise error
    return v


def _check_dims(a, b, what: str) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"{what} dimension {a.dim} != coupling dimension {b.dim}")


@dataclass(frozen=True, eq=False)
class _Vector:
    """A finite, read-only 1-d vector; a subclass checks and returns its values in ``_check``."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1:
            raise InvalidValueError(f"expected a 1-d vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidValueError("vector entries must be finite")
        v = self._check(v)
        object.__setattr__(self, "values", _freeze(v))

    def _check(self, v: np.ndarray) -> np.ndarray:
        return v

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class CouplingSpectrum(_Vector):
    """Diagonal of the coupling matrix C: real, finite, otherwise unconstrained."""


@dataclass(frozen=True, eq=False)
class SphereVector(_Vector):
    """A unit vector in R^n (within TOL_SPHERE)."""

    def _check(self, v: np.ndarray) -> np.ndarray:
        return _check_vectors(v)


@dataclass(frozen=True, eq=False)
class SignVector(_Vector):
    """An orthant label: entries exactly +1 or -1, kept as integers."""

    def _check(self, v: np.ndarray) -> np.ndarray:
        if not np.all(np.abs(v) == 1):
            raise InvalidValueError("sign entries must be exactly +1 or -1")
        return v.astype(int)


@dataclass(frozen=True, eq=False)
class SimplexPoint(_Vector):
    """A point of the open probability simplex: theta_j > 0, sum theta_j = 1."""

    def _check(self, v: np.ndarray) -> np.ndarray:
        if not np.all(v > 0):
            raise InvalidValueError("simplex coordinates must be strictly positive")
        sum_dev = abs(float(v.sum()) - 1.0)
        if sum_dev > TOL_TRACE:
            raise InvalidValueError(f"simplex coordinates must sum to 1: deviation {sum_dev:.6e}")
        return v


@dataclass(frozen=True)
class TrajectoryMeta:
    integrator: str
    dt: float
    coupling: tuple


class _StateStack(Sequence):
    """Validated states held as one read-only array.

    The array is (T, n, n) for density matrices and (T, n) for sphere
    vectors; items are state objects built on access, without validating
    again.
    """

    def __init__(self, array: np.ndarray):
        self.array = _freeze(array)

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        if self.array.ndim == 3:
            return _unchecked(DensityMatrix, entries=self.array[i])
        return _unchecked(SphereVector, values=self.array[i])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid plus the state at every grid point, held as one read-only array.

    ``states`` is the :class:`_StateStack` that the integrators and the
    geodesic evaluation build.  ``array`` is its (T, n, n) or (T, n) array,
    and ``states`` builds each state object from it on access.
    """

    times: np.ndarray
    states: _StateStack
    meta: TrajectoryMeta

    def __post_init__(self):
        if not isinstance(self.states, _StateStack):
            raise TypeError(f"states must be a _StateStack, got {type(self.states).__name__}")
        t = np.array(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.states):
            raise ValueError("times and states must be equal-length 1-d sequences")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", _freeze(t))

    @property
    def array(self) -> np.ndarray:
        return self.states.array

    def __len__(self) -> int:
        return len(self.states)


def _eahle_rhs(c: np.ndarray):
    # rho -> rho C + C rho - 2 Tr(C rho) rho with C = diag(c), for one state or a
    # (B, n, n) stack with (B, n) couplings; the sums c_j + c_k are formed once.
    sums = c[..., :, None] + c[..., None, :]
    return lambda a: a * (sums - 2.0 * np.einsum("...j,...jj->...", c, a).real[..., None, None])


def _ahle_rhs(c: np.ndarray):
    # w -> C w - (w^T C w) w, for one vector or a (B, n) stack.
    return lambda w: (cw := c * w) - (w * cw).sum(axis=-1, keepdims=True) * w


def eahle_field(rho: DensityMatrix, coupling: CouplingSpectrum) -> TangentVector:
    """Vector field of the matrix learning flow at ``rho``.

    Hermitian and traceless by construction: Tr(rho C + C rho) = 2 Tr(C rho)
    cancels the normalization term exactly.  Its SLD is 2C - 2 Tr(C rho) I.
    At the start point it is the initial tangent of the geodesic the flow
    follows: given to :class:`~qssgeo.geometry.GeodesicSpec`, it yields the
    curve the integrated flow must trace; ``hebbian_initial_tangent`` names
    it in that role.
    """
    _check_dims(rho, coupling, "state")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite field fails TangentVector
        return TangentVector(_eahle_rhs(coupling.values)(rho.entries), rho)


hebbian_initial_tangent = eahle_field


def _step_schedule(t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Step sizes and the grid times from 0 to ``t_end`` that they land on.

    Full steps of ``dt``, then a shortened last step when t_end / dt is not
    integral; the last grid time is exactly ``t_end`` either way.  A grid
    too large for memory raises MemoryError: here when no float array can
    have that many entries, else when its arrays are allocated.
    """
    if not 0 < t_end < np.inf:
        raise InvalidStepError(f"t_end must be positive and finite, got {t_end}")
    if not 0 < dt <= t_end:
        raise InvalidStepError(f"dt must satisfy 0 < dt <= t_end, got dt={dt}")
    if not t_end / dt < _MAX_STEPS:
        raise MemoryError(f"t_end / dt = {t_end / dt:.6g} steps exceed the largest array")
    n_full = int(np.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    steps = np.full(n_full + (remainder > 1e-9 * dt), float(dt))
    steps[n_full:] = remainder
    times = np.arange(len(steps) + 1) * float(dt)
    times[-1] = t_end
    return steps, times


def _mapped_empty(shape, dtype) -> np.ndarray:
    """An uninitialized array in an anonymous memory mapping of its own.

    Freeing the array unmaps it, so a trajectory's pages go back to the
    system when it is dropped.  Through malloc they need not: glibc raises
    its mmap threshold to the size of a freed block of up to 32 MiB, the
    next trajectory of that size is carved from the heap, and the heap keeps
    it resident after it is freed (run_suite at n = 32, 64 grew from 104 to
    120 MiB peak RSS on its second run that way).
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    try:
        buffer = mmap.mmap(-1, max(1, count * dtype.itemsize))
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map {count} entries of {dtype}") from exc
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def _integrate_batch(rhs, normalize, certify, y0: np.ndarray, c: np.ndarray, t_end: float, dt: float):
    """Classical RK4 from each of the B initial values ``y0`` under the couplings ``c`` (B, n).

    Returns the grid times and all (B, T, ...) states, starting with y0.
    ``rhs(c)`` is the field.  Each step ends in ``normalize(y)``, whose
    states ``certify`` checks once per block of at most _BLOCK_BYTES.  A
    failed check's ``position`` is its block's lowest failing case k, at its
    first failing step.  Its error, lost positivity as StepTooLargeError at
    that time, is raised after the loop, and cases k on stop there: a case's
    states do not depend on its batch, so the error is the one the cases
    would raise if run one after another.  A matrix ``y0`` is exactly
    Hermitian, as ``DensityMatrix`` entries are.  The matrix field scales
    entry jk by the real c_j + c_k - 2 Tr(C rho), and rounding is
    sign-symmetric, so the states stay exactly Hermitian while finite, as
    ``_certify_states`` assumes when it is given no deviations.
    """
    steps, times = _step_schedule(t_end, dt)
    out = _mapped_empty((len(y0), len(times)) + y0.shape[1:], y0.dtype)
    out[:, 0] = y0
    y, k, error = y0, len(y0), None
    size = max(1, _BLOCK_BYTES // max(1, y0.nbytes))
    # Overflow is non-finite, which certify reports; later steps of its block are discarded.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        field = rhs(c)
        for lo in range(1, len(times), size):
            hi = min(lo + size, len(times))
            for s in range(lo, hi):
                h = steps[s - 1]
                k1 = field(y)
                k2 = field(y + 0.5 * h * k1)
                k3 = field(y + 0.5 * h * k2)
                k4 = field(y + h * k3)
                y = normalize(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
                out[:k, s] = y
            try:
                certify(out[:k, lo:hi])
            except QssError as exc:
                (k, step), error = exc.position, exc
                if isinstance(exc, NotPositiveDefiniteError):
                    error = StepTooLargeError(float(times[lo + step]), exc.min_eigenvalue)
                    error.__cause__ = exc
                if k == 0:
                    break
                y, field = y[:k], rhs(c[:k])
    if error is not None:
        raise error
    return times, out


def _eahle_integrate_batch(rho0: np.ndarray, c: np.ndarray, t_end: float, dt: float):
    """RK4 of the matrix flow for B cases at once: times and (B, T, n, n) states.

    Every step renormalizes the trace; the states, exactly Hermitian while
    finite, are checked a block at a time by one stacked Cholesky.  Loss of
    positive-definiteness raises :class:`StepTooLargeError` with its time.
    """
    normalize = lambda y: y / np.trace(y, axis1=-2, axis2=-1).real[:, None, None]
    return _integrate_batch(_eahle_rhs, normalize, _certify_states, rho0, c, t_end, dt)


def _ahle_integrate_batch(w0: np.ndarray, c: np.ndarray, t_end: float, dt: float):
    """RK4 of the sphere rule for B cases at once: times and (B, T, n) unit vectors, checked per block."""
    normalize = lambda w: w / np.linalg.norm(w, axis=-1, keepdims=True)
    return _integrate_batch(_ahle_rhs, normalize, _check_vectors, w0, c, t_end, dt)


def eahle_integrate(
    rho0: DensityMatrix, coupling: CouplingSpectrum, t_end: float, dt: float
) -> Trajectory:
    """Integrate the matrix flow with classical RK4 from ``rho0`` to ``t_end``.

    After every step the trace is renormalized to 1; the states stay exactly
    Hermitian while finite, with nothing symmetrizing them.  A final shortened
    step lands exactly on ``t_end`` when t_end / dt is not integral.  Each
    block of stored steps is validated at once; loss of positive-definiteness
    raises :class:`StepTooLargeError` with the first offending time.
    """
    _check_dims(rho0, coupling, "state")
    c = coupling.values
    times, states = _eahle_integrate_batch(rho0.entries[None], c[None], t_end, dt)
    meta = TrajectoryMeta("rk4", dt, tuple(c.tolist()))
    return Trajectory(times, _StateStack(states[0]), meta)


def ahle_field(w: SphereVector, coupling: CouplingSpectrum) -> np.ndarray:
    """Vector field of the sphere learning rule: C w - (w^T C w) w."""
    _check_dims(w, coupling, "vector")
    return _ahle_rhs(coupling.values)(w.values)


def ahle_integrate(
    w0: SphereVector, coupling: CouplingSpectrum, t_end: float, dt: float
) -> Trajectory:
    """Integrate the sphere rule with RK4, renormalizing the norm each step."""
    _check_dims(w0, coupling, "vector")
    c = coupling.values
    times, states = _ahle_integrate_batch(w0.values[None], c[None], t_end, dt)
    meta = TrajectoryMeta("rk4", dt, tuple(c.tolist()))
    return Trajectory(times, _StateStack(states[0]), meta)


def _sphere_curve(w0: np.ndarray, c: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact solution of the sphere rule for B starts at every time: (B, n) -> (B, T, n).

    A zero component of w0 stays zero whatever its rate, so it is given a
    rate of the support instead: the shift then comes from the support and
    the largest surviving weight is 1.  Scaling the largest entry to 1
    before taking the norm keeps tiny starts from underflowing.
    """
    support = w0 != 0
    floor = np.where(support, c, np.inf).min(axis=-1, keepdims=True)
    s = _exp_weights(np.where(support, c, floor), times) * w0[:, None, :]
    s /= np.abs(s).max(axis=-1, keepdims=True)
    s /= np.linalg.norm(s, axis=-1, keepdims=True)
    return _check_vectors(s)


def ahle_closed_form(w0: SphereVector, coupling: CouplingSpectrum, t: float) -> SphereVector:
    """Exact solution of the sphere rule at time ``t``.

    w(t)_j = e^{t c_j} w0_j / sqrt(sum_k e^{2 t c_k} w0_k^2).  The largest
    rate is taken off the rates before they are multiplied by t; the common
    factor cancels in the normalization, so the guard changes nothing but
    overflow behavior, and any finite t gives a finite unit vector.
    """
    _check_dims(w0, coupling, "vector")
    w = _sphere_curve(w0.values[None], coupling.values[None], np.array([float(t)]))
    return SphereVector(w[0, 0])


def diagonal_closed_form(
    theta0: SimplexPoint, coupling: CouplingSpectrum, t: float
) -> SimplexPoint:
    """Exact solution of the diagonal (simplex) flow at time ``t``.

    theta(t)_j = e^{2 t c_j} theta0_j / sum_k e^{2 t c_k} theta0_k, the
    componentwise square of :func:`ahle_closed_form` when theta0_j = w0_j^2.
    """
    _check_dims(theta0, coupling, "point")
    scaled = _exp_weights(2.0 * coupling.values, np.array([float(t)]))[0] * theta0.values
    return SimplexPoint(scaled / scaled.sum())


def sphere_to_simplex(w: SphereVector) -> tuple[SimplexPoint, SignVector]:
    """Orthant chart: squared coordinates plus the sign pattern.

    Requires every component to be nonzero; on the chart boundary the sign
    pattern is undefined and :class:`ZeroComponentError` is raised.
    """
    v = w.values
    small = np.abs(v) <= TOL_ZERO
    if small.any():
        index = int(np.argmax(small))
        raise ZeroComponentError(index, float(v[index]))
    theta = v * v
    return SimplexPoint(theta / theta.sum()), SignVector(np.sign(v).astype(int))


def simplex_to_sphere(theta: SimplexPoint, sigma: SignVector) -> SphereVector:
    """Inverse orthant chart: w_j = sigma_j sqrt(theta_j)."""
    if theta.dim != sigma.dim:
        raise DimensionMismatchError(
            f"point dimension {theta.dim} != sign dimension {sigma.dim}"
        )
    return SphereVector(sigma.values * np.sqrt(theta.values))
