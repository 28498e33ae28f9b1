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
fixed-step RK4 integrators.  The integrators never project onto the state
space: positivity is monitored each step and its loss is a hard error, since
the exact flow provably stays inside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidStepError,
    NotPositiveDefiniteError,
    StepTooLargeError,
    ZeroComponentError,
)
from .qss import TOL_TRACE, DensityMatrix, TangentVector, hermitian_part

TOL_SPHERE = 1e-10
# Below this magnitude the sign of a sphere coordinate is numerically meaningless.
TOL_ZERO = 1e-12


@dataclass(frozen=True, eq=False)
class CouplingSpectrum:
    """Diagonal of the coupling matrix C: real, finite, otherwise unconstrained."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("coupling values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class SphereVector:
    """A unit vector in R^n (within TOL_SPHERE)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
        norm_dev = abs(float(np.linalg.norm(v)) - 1.0)
        if norm_dev > TOL_SPHERE:
            raise ValueError(f"vector is not unit norm: | ||w|| - 1 | = {norm_dev:.6e}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class SignVector:
    """An orthant label: entries exactly +1 or -1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=int)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
        if not np.all(np.abs(v) == 1):
            raise ValueError("sign entries must be exactly +1 or -1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """A point of the open probability simplex: theta_j > 0, sum theta_j = 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
        if not np.all(v > 0):
            raise ValueError("simplex coordinates must be strictly positive")
        sum_dev = abs(float(v.sum()) - 1.0)
        if sum_dev > TOL_TRACE:
            raise ValueError(f"simplex coordinates must sum to 1: deviation {sum_dev:.6e}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class TrajectoryMeta:
    integrator: str
    dt: float
    coupling: tuple
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid plus the states stored at every grid point."""

    times: np.ndarray
    states: tuple
    meta: TrajectoryMeta

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.states):
            raise ValueError("times and states must be equal-length 1-d sequences")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))

    def __len__(self) -> int:
        return len(self.states)


def _eahle_rhs(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    # rho C + C rho - 2 Tr(C rho) rho, with C = diag(c).
    return a * c[None, :] + c[:, None] * a - (2.0 * float(c @ a.diagonal().real)) * a


def eahle_field(rho: DensityMatrix, coupling: CouplingSpectrum) -> TangentVector:
    """Vector field of the matrix learning flow at ``rho``.

    Hermitian and traceless by construction: Tr(rho C + C rho) = 2 Tr(C rho)
    cancels the normalization term exactly.
    """
    if rho.dim != coupling.dim:
        raise DimensionMismatchError(
            f"state dimension {rho.dim} != coupling dimension {coupling.dim}"
        )
    return TangentVector(_eahle_rhs(rho.entries, coupling.values), rho)


def hebbian_initial_tangent(rho0: DensityMatrix, coupling: CouplingSpectrum) -> TangentVector:
    """Initial tangent of the geodesic that realizes the flow started at ``rho0``.

    Identical to :func:`eahle_field` at the start point; named separately
    because it is the geodesic-side ingredient: feeding it to
    :class:`~qssgeo.geometry.GeodesicSpec` yields the curve the integrated
    flow must follow.  For diagonal rho0 its SLD is 2C - 2 Tr(C rho0) I.
    """
    return eahle_field(rho0, coupling)


def _step_schedule(t_end: float, dt: float) -> tuple[list[float], list[float]]:
    """Step sizes and the grid times from 0 to ``t_end`` that they land on.

    Full steps of ``dt``, then a shortened last step when t_end / dt is not
    integral; the last grid time is exactly ``t_end`` either way.
    """
    if t_end <= 0:
        raise InvalidStepError(f"t_end must be positive, got {t_end}")
    if dt <= 0 or dt > t_end:
        raise InvalidStepError(f"dt must satisfy 0 < dt <= t_end, got dt={dt}")
    n_full = int(np.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    steps = [dt] * n_full
    if remainder > 1e-9 * dt:
        steps.append(remainder)
    times = [i * dt for i in range(len(steps))] + [t_end]
    return steps, times


def _rk4_step(rhs, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def eahle_integrate(
    rho0: DensityMatrix,
    coupling: CouplingSpectrum,
    t_end: float,
    dt: float,
    seed: int | None = None,
) -> Trajectory:
    """Integrate the matrix flow with classical RK4 from ``rho0`` to ``t_end``.

    After every step the state is re-symmetrized and its trace renormalized
    to 1; a final shortened step lands exactly on ``t_end`` when t_end / dt
    is not integral.  States are stored at every step, each validated as a
    density matrix; loss of positive-definiteness raises
    :class:`StepTooLargeError` with the offending time.
    """
    if rho0.dim != coupling.dim:
        raise DimensionMismatchError(
            f"state dimension {rho0.dim} != coupling dimension {coupling.dim}"
        )
    c = coupling.values
    steps, times = _step_schedule(t_end, dt)
    states = [rho0]
    y = rho0.entries

    def rhs(a):
        return _eahle_rhs(a, c)

    for h, t in zip(steps, times[1:]):
        y = _rk4_step(rhs, y, h)
        y = hermitian_part(y)
        y = y / np.trace(y).real
        try:
            state = DensityMatrix(y)
        except NotPositiveDefiniteError as exc:
            raise StepTooLargeError(t, exc.min_eigenvalue) from exc
        states.append(state)
        y = state.entries
    meta = TrajectoryMeta("rk4", dt, tuple(c.tolist()), seed)
    return Trajectory(np.asarray(times), tuple(states), meta)


def ahle_field(w: SphereVector, coupling: CouplingSpectrum) -> np.ndarray:
    """Vector field of the sphere learning rule: C w - (w^T C w) w."""
    if w.dim != coupling.dim:
        raise DimensionMismatchError(
            f"vector dimension {w.dim} != coupling dimension {coupling.dim}"
        )
    v = w.values
    cv = coupling.values * v
    return cv - float(v @ cv) * v


def ahle_integrate(
    w0: SphereVector,
    coupling: CouplingSpectrum,
    t_end: float,
    dt: float,
    seed: int | None = None,
) -> Trajectory:
    """Integrate the sphere rule with RK4, renormalizing the norm each step."""
    if w0.dim != coupling.dim:
        raise DimensionMismatchError(
            f"vector dimension {w0.dim} != coupling dimension {coupling.dim}"
        )
    c = coupling.values
    steps, times = _step_schedule(t_end, dt)
    states = [w0]
    v = w0.values

    def rhs(u):
        return c * u - float(u @ (c * u)) * u

    for h in steps:
        v = _rk4_step(rhs, v, h)
        v = v / np.linalg.norm(v)
        states.append(SphereVector(v))
    meta = TrajectoryMeta("rk4", dt, tuple(c.tolist()), seed)
    return Trajectory(np.asarray(times), tuple(states), meta)


def ahle_closed_form(w0: SphereVector, coupling: CouplingSpectrum, t: float) -> SphereVector:
    """Exact solution of the sphere rule at time ``t``.

    w(t)_j = e^{t c_j} w0_j / sqrt(sum_k e^{2 t c_k} w0_k^2).  The largest
    exponent is factored out before exponentiating; the common factor cancels
    in the normalization, so the guard changes nothing but overflow behavior.
    """
    if w0.dim != coupling.dim:
        raise DimensionMismatchError(
            f"vector dimension {w0.dim} != coupling dimension {coupling.dim}"
        )
    expo = t * coupling.values
    scaled = np.exp(expo - expo.max()) * w0.values
    return SphereVector(scaled / np.linalg.norm(scaled))


def diagonal_closed_form(
    theta0: SimplexPoint, coupling: CouplingSpectrum, t: float
) -> SimplexPoint:
    """Exact solution of the diagonal (simplex) flow at time ``t``.

    theta(t)_j = e^{2 t c_j} theta0_j / sum_k e^{2 t c_k} theta0_k, the
    componentwise square of :func:`ahle_closed_form` when theta0_j = w0_j^2.
    """
    if theta0.dim != coupling.dim:
        raise DimensionMismatchError(
            f"point dimension {theta0.dim} != coupling dimension {coupling.dim}"
        )
    expo = 2.0 * t * coupling.values
    scaled = np.exp(expo - expo.max()) * theta0.values
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
