"""The quantum state space: regular density matrices with the SLD-Fisher metric.

A point of the state space is an n x n Hermitian, strictly positive-definite
matrix of unit trace; a tangent vector at such a point is Hermitian and
traceless.  The symmetric logarithmic derivative (SLD) of a tangent vector X
at rho is the Hermitian matrix L solving X = (rho L + L rho) / 2, and the
SLD-Fisher metric is <X, Y>_rho = Tr(X^H L_rho(Y)).

All computations go through the eigendecomposition of rho, where the SLD and
its inverse are elementwise rescalings: with rho = h diag(theta) h^H and
Xt = h^H X h,

    (h^H L h)_jk = 2 / (theta_j + theta_k) * Xt_jk,

well-defined on the whole space because every theta_j is strictly positive.
Dense eigendecompositions keep this practical up to dimension ~64.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to use from concurrent contexts.  A
DensityMatrix computes its eigendecomposition on first use and keeps it, and
a TangentVector keeps its SLD the same way; two threads that race there
compute the same value twice, harmlessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BaseMismatchError,
    DecompositionFailedError,
    DimensionTooSmallError,
    InvalidValueError,
    NotHermitianError,
    NotInSldSpaceError,
    NotPositiveDefiniteError,
    NotTracelessError,
    NotUnitTraceError,
)

# Tolerances, sized for double-precision eigendecompositions with headroom.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PD = 1e-12
TOL_RECON = 1e-9
# Byte cap on the states of one block of times or RK4 steps (n = 64: four
# states).  A block's temporaries are a few arrays of this size, so a curve
# consumed block by block holds memory that does not grow with its length.
_BLOCK_BYTES = 1 << 18


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A^H) / 2, for a matrix or for each matrix of a stack.

    Not finite where A + A^H overflows; the checks that take outside input
    call it under ``errstate``, so they report that instead of warning.
    """
    return (a + a.conj().swapaxes(-1, -2)) / 2


def hermitian_deviation(a: np.ndarray) -> float:
    """Return max |A - A^H|, the distance from being Hermitian; not finite for non-finite A or where A - A^H overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(a - a.conj().swapaxes(-1, -2))))


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_square_complex(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _negligible(deviation: float, tol: float, a: np.ndarray) -> bool:
    """Whether ``deviation``, found in checking ``a``, is at most tol * max(1, max |a_jk|).

    Roundoff grows with the data, so the bound does too, and never drops
    below ``tol``; the largest entry, unlike a norm, cannot overflow, and is
    looked at only for a deviation above ``tol``.  A NaN deviation fails, and
    so does any deviation above ``tol`` in non-finite data.
    """
    return deviation <= tol or deviation <= tol * max(1.0, float(np.abs(a).max())) < np.inf


def _check_traceless(x: np.ndarray, data: np.ndarray) -> None:
    """Raise NotTracelessError unless Tr x is negligible at the scale of ``data``, which ``x`` came from."""
    with np.errstate(over="ignore", invalid="ignore"):
        trace_dev = abs(float(np.trace(x).real))
    if not _negligible(trace_dev, TOL_TRACE, data):
        raise NotTracelessError(trace_dev)


def _hermitian(a: np.ndarray) -> np.ndarray:
    """The symmetrized ``a``; farther from Hermitian than _negligible allows raises NotHermitianError."""
    dev = hermitian_deviation(a)
    if not _negligible(dev, TOL_HERM, a):
        raise NotHermitianError(dev)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum fails the caller's checks
        h = hermitian_part(a)
    return a.copy() if dev == 0 and not np.isfinite(h).all() else h  # exactly Hermitian: a is its own Hermitian part


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, built without validation.

    Only for values that passed the class's checks already, such as the
    states of a validated stack.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _certify_states(h: np.ndarray, herm_dev: np.ndarray | None = None, lower: np.ndarray | None = None) -> np.ndarray:
    """Return the Hermitian stack ``h`` if every matrix is a state; else raise for the first.

    ``herm_dev`` is each matrix's max |A - A^H|, from :func:`_check_states`
    for outside input; None means ``h`` is exactly Hermitian where finite:
    each is 0, or NaN if not finite.  The error is :class:`DensityMatrix`'s
    for the first failing one in C order, with its ``position``.

    The passing case reduces the deviations to their extremes; |t - 1| is
    largest at the smallest or largest trace t.  It forms no per-matrix
    array, since numpy keeps small buffers for the life of the process, and
    a caller holding a large allocation then finds its freed heap pinned.

    Positivity is certified by ``lower``, lower bounds on the smallest
    eigenvalues, where all exceed TOL_PD, else by one stacked Cholesky of
    h - TOL_PD I, which succeeds only if every smallest eigenvalue exceeds
    TOL_PD up to its backward error, about n eps ||h|| (1.4e-14 at n = 64).
    Cholesky returns NaN for a non-finite matrix, not an error, so a
    finiteness screen precedes it; a conclusive ``lower`` skips both.
    ``eigvalsh`` runs only when some check fails, on the finite matrices that
    passed the Hermitian and trace checks: it locates the first failing
    matrix, reports its smallest eigenvalue (NaN if not finite), and accepts
    a stack that Cholesky rejected within that roundoff band.
    """
    traces = np.trace(h, axis1=-2, axis2=-1).real
    worst_trace = max(abs(np.min(traces) - 1.0), abs(np.max(traces) - 1.0))
    if (herm_dev is None or np.max(herm_dev) <= TOL_HERM) and worst_trace <= TOL_TRACE:
        try:
            if lower is None or not np.min(lower) > TOL_PD:
                if not np.isfinite(h).all():
                    raise np.linalg.LinAlgError
                np.linalg.cholesky(h - TOL_PD * np.eye(h.shape[-1]))
            return h
        except np.linalg.LinAlgError:
            pass
    finite = np.isfinite(h).all(axis=(-2, -1))
    herm_dev = np.where(finite, 0.0, np.nan) if herm_dev is None else herm_dev
    trace_dev = np.abs(traces - 1.0)
    fine = finite & (herm_dev <= TOL_HERM) & (trace_dev <= TOL_TRACE)
    smallest = np.full(fine.shape, np.nan)
    smallest[fine] = np.linalg.eigvalsh(h[fine])[..., 0]
    ok = fine & (smallest > TOL_PD)
    if ok.all():
        return h
    i = np.unravel_index(np.argmin(ok), ok.shape)
    if not herm_dev[i] <= TOL_HERM:
        error = NotHermitianError(float(herm_dev[i]))
    elif not trace_dev[i] <= TOL_TRACE:
        error = NotUnitTraceError(float(trace_dev[i]))
    else:
        error = NotPositiveDefiniteError(float(smallest[i]))
    error.position = i
    raise error


def _check_states(a: np.ndarray) -> np.ndarray:
    """Check the three state invariants on a matrix or every matrix of a (..., n, n) stack.

    Measures each matrix's Hermitian deviation, for outside input; returns
    the symmetrized stack or raises as :func:`_certify_states` does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        herm_dev = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        h = hermitian_part(a)
    return _certify_states(h, herm_dev)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A state: Hermitian, strictly positive-definite, unit-trace matrix.

    Construction validates all three invariants, from dimension 2 on: a
    1 x 1 state is a single point with no tangent space.  Inputs within
    TOL_HERM of Hermitian are symmetrized silently; larger deviations are
    rejected rather than masked.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _as_square_complex(self.entries)
        if a.shape[0] < 2:
            raise DimensionTooSmallError(a.shape[0])
        h = _check_states(a)
        object.__setattr__(self, "entries", _freeze(h))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _frame(self):
        """The eigenbasis V of rho, V^H, and theta_j + theta_k, made on first use.

        The SLD, its inverse and the metric are rescalings of V^H X V by
        these sums; transport reaches them through :func:`sld`.
        """
        theta, v = eig_hermitian(self.entries)
        return v, v.conj().T, theta[:, None] + theta[None, :]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((self.entries + 0j).tobytes())  # -0 + 0 is +0: equal states hash alike


@dataclass(frozen=True, eq=False)
class _AttachedMatrix:
    """A Hermitian matrix attached to the state ``base``, of the same dimension.

    Inputs within TOL_HERM * max(1, largest entry) of Hermitian are
    symmetrized; each subclass adds its one linear constraint in ``_check``,
    judged at the same scale.
    """

    entries: np.ndarray
    base: DensityMatrix

    def __post_init__(self):
        a = _as_square_complex(self.entries)
        if a.shape[0] != self.base.dim:
            raise BaseMismatchError(
                f"{type(self).__name__} dimension {a.shape[0]} != base dimension {self.base.dim}"
            )
        a = _hermitian(a)
        self._check(a)
        object.__setattr__(self, "entries", _freeze(a))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class TangentVector(_AttachedMatrix):
    """A tangent vector at ``base``: Hermitian and traceless."""

    def _check(self, a: np.ndarray) -> None:
        _check_traceless(a, a)

    @cached_property
    def _sld(self) -> SldMatrix:
        """The SLD of this tangent at ``base``, computed on first use; see :func:`sld`."""
        v, v_h, sums = self.base._frame
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite SLD fails SldMatrix's check
            lt = 2.0 * (v_h @ self.entries @ v) / sums
            # Small eigenvalues amplify roundoff in the product; the exact result is
            # Hermitian, so symmetrize it here rather than fail SldMatrix's check.
            return SldMatrix(hermitian_part(v @ lt @ v_h), self.base)


@dataclass(frozen=True, eq=False)
class SldMatrix(_AttachedMatrix):
    """An SLD at ``base``: Hermitian with Tr(rho X + X rho) = 0.

    These matrices form the image of the tangent space under the SLD map,
    which is a linear bijection (see :func:`sld` / :func:`sld_inverse`).
    """

    def _check(self, a: np.ndarray) -> None:
        # Tr(rho X + X rho) = 2 Tr(rho X) = 2 vdot(rho, X) for Hermitian arguments.
        pairing = abs(2.0 * float(np.vdot(self.base.entries, a).real))
        if not _negligible(pairing, TOL_TRACE, a):
            raise NotInSldSpaceError(pairing)


def random_density(n: int, seed: int) -> DensityMatrix:
    """Draw a random density matrix, deterministically per seed.

    Builds G with independent standard complex Gaussian entries and returns
    G G^H normalized by its trace, which is almost surely positive definite.
    """
    if n < 2:
        raise DimensionTooSmallError(n)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = g @ g.conj().T
    return DensityMatrix(a / np.trace(a).real)


def random_tangent(rho: DensityMatrix, seed: int, scale: float = 1.0) -> TangentVector:
    """Draw a random tangent vector at ``rho`` with Frobenius norm ``scale``."""
    rng = np.random.default_rng(seed)
    n = rho.dim
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = hermitian_part(m)
    x -= (np.trace(x).real / n) * np.eye(n)
    x *= scale / frobenius(x)
    return TangentVector(x, rho)


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix, eigenvalues in descending order.

    Parameters
    ----------
    a : array_like
        Square matrix, Hermitian within TOL_HERM * max(1, largest entry).

    Returns
    -------
    (eigenvalues, unitary)
        Read-only arrays with ``unitary @ diag(eigenvalues) @ unitary^H``
        reconstructing the symmetrized input within TOL_RECON (relative to
        Frobenius scale).
    """
    a = _hermitian(_as_square_complex(a))
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailedError(str(exc)) from exc
    # eigh returns ascending order; flip to descending.
    w = np.ascontiguousarray(w[::-1])
    v = np.ascontiguousarray(v[:, ::-1])
    with np.errstate(over="ignore", invalid="ignore"):
        recon_err, scale = frobenius((v * w) @ v.conj().T - a), frobenius(a)
    if not recon_err <= TOL_RECON * max(1.0, scale):
        raise DecompositionFailedError(
            f"eigendecomposition reconstruction error {recon_err:.6e} exceeds tolerance"
        )
    return _freeze(w), _freeze(v)


def sld(rho: DensityMatrix, x: TangentVector) -> SldMatrix:
    """Symmetric logarithmic derivative of a tangent vector.

    Returns the unique Hermitian L with X = (rho L + L rho) / 2, computed in
    the eigenbasis of rho where it is the elementwise rescaling by
    2 / (theta_j + theta_k).  Degenerate eigenvalues need no special casing:
    the rescaling depends only on the spectral projectors.  ``x`` computes
    its SLD once, on first use, and every later call returns that same
    object, attached to ``x.base``.
    """
    if x.base != rho:
        raise BaseMismatchError("tangent vector is not attached to the given state")
    return x._sld


def sld_inverse(rho: DensityMatrix, xi: SldMatrix) -> TangentVector:
    """Invert the SLD map: return X with (rho Xi + Xi rho) / 2 = X.

    ``xi`` lies in the admissible space Tr(rho Xi + Xi rho) = 0: its
    constructor checked that against ``xi.base``, which must be ``rho``.
    """
    if xi.base != rho:
        raise BaseMismatchError("SLD matrix is not attached to the given state")
    v, v_h, sums = rho._frame
    # The exact X is Hermitian and Tr X = Tr(rho Xi), which Xi's own check
    # bounds at Xi's scale.  X can be smaller than Xi by a factor lambda_min
    # while its roundoff is not, so X is symmetrized and its trace is checked
    # at Xi's scale.
    x = hermitian_part(v @ (0.5 * sums * (v_h @ xi.entries @ v)) @ v_h)
    _check_traceless(x, xi.entries)
    return _unchecked(TangentVector, entries=_freeze(x), base=rho)


def fisher_metric(rho: DensityMatrix, x: TangentVector, y: TangentVector) -> float:
    """SLD-Fisher inner product <X, Y>_rho = Tr(X^H L_rho(Y)).

    Symmetric, bilinear, and positive definite on the tangent space.
    """
    if x.base != rho or y.base != rho:
        raise BaseMismatchError("tangent vectors are not attached to the given state")
    return float(np.vdot(x.entries, sld(rho, y).entries).real)


def fisher_metric_from_slds(rho: DensityMatrix, x: TangentVector, y: TangentVector) -> float:
    """Same metric through the symmetrized SLD product Tr(rho {L_X, L_Y}) / 2."""
    lx = sld(rho, x).entries
    ly = sld(rho, y).entries
    return float(0.5 * np.vdot(rho.entries, lx @ ly + ly @ lx).real)


def fisher_metric_eigenbasis(rho: DensityMatrix, x: TangentVector, y: TangentVector) -> float:
    """Same metric as an eigenbasis sum of 2 / (theta_j + theta_k) weighted products."""
    if x.base != rho or y.base != rho:
        raise BaseMismatchError("tangent vectors are not attached to the given state")
    v, v_h, sums = rho._frame
    xt = v_h @ x.entries @ v
    yt = v_h @ y.entries @ v
    return float(np.sum(2.0 / sums * np.conj(xt) * yt).real)


def _exp_weights(rates: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(t * (rates - shift)) for every time: (..., n) rates, (T,) times -> (..., T, n).

    The shift is the largest rate for t >= 0 and the smallest for t < 0,
    taken off the rates before they are multiplied by t: every exponent is
    <= 0, the largest weight is 1 and no finite t overflows; a non-finite t
    raises InvalidValueError.  The callers normalize, which cancels the shift.
    """
    rates = np.asarray(rates, dtype=float)[..., None, :]
    t = np.asarray(times, dtype=float)[:, None]
    if not np.isfinite(t).all():
        raise InvalidValueError("evaluation times must be finite")
    shift = np.where(t >= 0, rates.max(axis=-1, keepdims=True), rates.min(axis=-1, keepdims=True))
    # A product that overflows is -inf, whose weight 0 is the exact limit.
    with np.errstate(over="ignore"):
        return np.exp(t * (rates - shift))
