"""Numerical checks that the learning flows trace out geodesics.

The central check integrates the matrix flow with RK4 and compares every
stored state against the closed-form geodesic whose initial tangent is the
flow's own vector field at the start point.  Agreement to integrator
accuracy (far below the 1e-6 suite tolerance at dt = 1e-3) is the evidence;
halving dt should shrink the deviation ~16x, confirming the gap is
integrator error rather than model error.

A companion check does the same on the sphere: RK4 against the exponential
closed form, and the squared coordinates against the diagonal of the
matching geodesic.  The randomized suite runs all cases of one dimension as
one batch of each kind.

The conjecture probe runs the converse: for an arbitrary target geodesic it
builds a coupling spectrum and a special-unitary conjugation that carry a
flow trajectory onto it, with time unchanged.  The witness is the eigenbasis
of the initial SLD with half its eigenvalues as the coupling, so the probe
is a closed-form construction for any dimension.  Its residual compares the
witness flow's initial field, conjugated back, with the target's tangent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CouplingSpectrum,
    SphereVector,
    _ahle_integrate_batch,
    _eahle_integrate_batch,
    _eahle_rhs,
    _sphere_curve,
    hebbian_initial_tangent,
    sphere_to_simplex,
)
from .geometry import GeodesicSpec, _geodesic_blocks
from .qss import TOL_HERM, _freeze, frobenius, make_density, random_density


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one verification case: per-time deviations; the verdict is derived from them."""

    case_id: str
    n: int
    seed: int | None
    time_grid: np.ndarray
    per_time_deviation: np.ndarray
    tolerance: float

    def __post_init__(self):
        grid = np.asarray(self.time_grid, dtype=float)
        devs = np.asarray(self.per_time_deviation, dtype=float)
        if grid.shape != devs.shape:
            raise ValueError("per_time_deviation must match time_grid in length")
        object.__setattr__(self, "time_grid", _freeze(grid))
        object.__setattr__(self, "per_time_deviation", _freeze(devs))

    @property
    def max_deviation(self) -> float:
        return float(self.per_time_deviation.max())

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True, eq=False)
class ConjectureProbeResult:
    """The probe's witness: coupling and SU(n) element; the residual is derived from them."""

    target_spec: GeodesicSpec
    best_coupling: CouplingSpectrum
    best_unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.best_unitary, dtype=complex)
        n = u.shape[0]
        unitary_dev = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
        if unitary_dev > TOL_HERM:
            raise ValueError(f"matrix is not unitary: deviation {unitary_dev:.6e}")
        det_dev = abs(np.linalg.det(u) - 1.0)
        if det_dev > TOL_HERM:
            raise ValueError(f"determinant is not 1: deviation {det_dev:.6e}")
        object.__setattr__(self, "best_unitary", _freeze(u.copy()))

    @property
    def residual(self) -> float:
        return _witness_residual(self.target_spec, self.best_coupling.values, self.best_unitary)


def _flow_deviations(rho0s, couplings, t_end: float, dt: float):
    """Integrate the matrix flow from B starts of one dimension at once; compare with geodesics.

    Each geodesic's initial tangent is the flow field at its start.  Returns
    the grid times and the (B, T) Frobenius gaps between the integrated and
    the closed-form states.  The flow is held whole, as
    :func:`~qssgeo.dynamics.eahle_integrate` holds it; the geodesic is
    evaluated against it in time blocks.
    """
    specs = [GeodesicSpec(r, hebbian_initial_tangent(r, c)) for r, c in zip(rho0s, couplings)]
    rho0 = np.stack([r.entries for r in rho0s])
    c = np.stack([coupling.values for coupling in couplings])
    times, flow = _eahle_integrate_batch(rho0, c, t_end, dt)
    devs = np.empty(flow.shape[:2])
    for block, geodesic in _geodesic_blocks(specs, times):
        devs[:, block] = np.linalg.norm(flow[:, block] - geodesic, axis=(-2, -1))
    return times, devs


def _sphere_deviations(w0s, couplings, t_end: float, dt: float):
    """Integrate the sphere rule from B starts of one dimension at once; check both closed forms.

    Returns the grid times and the (B, T) pointwise worse of the gap to the
    exact solution and the gap between its squares and the diagonal of the
    geodesic started at the squared point.
    """
    rho0s = [make_density(np.diag(sphere_to_simplex(w)[0].values)) for w in w0s]
    specs = [GeodesicSpec(r, hebbian_initial_tangent(r, c)) for r, c in zip(rho0s, couplings)]
    w0 = np.stack([w.values for w in w0s])
    c = np.stack([coupling.values for coupling in couplings])
    times, w = _ahle_integrate_batch(w0, c, t_end, dt)
    exact = _sphere_curve(w0, c, times)
    devs = np.linalg.norm(w - exact, axis=-1)
    for block, geodesic in _geodesic_blocks(specs, times):
        diag = geodesic.diagonal(axis1=-2, axis2=-1).real
        chart_dev = np.linalg.norm(exact[:, block] ** 2 - diag, axis=-1)
        devs[:, block] = np.maximum(devs[:, block], chart_dev)
    return times, devs


def verify_geodesic_coincidence(
    rho0,
    coupling: CouplingSpectrum,
    t_end: float,
    dt: float,
    tol: float,
    case_id: str = "flow-vs-geodesic",
    seed: int | None = None,
) -> VerificationReport:
    """Compare the integrated matrix flow against its closed-form geodesic.

    The geodesic's initial tangent is the flow field at ``rho0``; deviations
    are Frobenius norms on the integrator's own grid (no interpolation).
    """
    times, devs = _flow_deviations([rho0], [coupling], t_end, dt)
    return VerificationReport(case_id, rho0.dim, seed, times, devs[0], tol)


def verify_sphere_closed_form(
    w0: SphereVector,
    coupling: CouplingSpectrum,
    t_end: float,
    dt: float,
    tol: float,
    case_id: str = "sphere-closed-form",
    seed: int | None = None,
) -> VerificationReport:
    """Check the sphere rule's closed form two ways on the integrator grid.

    (a) RK4 integration against the closed form, and (b) the closed form's
    squared coordinates against the diagonal of the geodesic started at the
    squared initial point.  Both must stay within ``tol``; the report stores
    the pointwise worse of the two.
    """
    times, devs = _sphere_deviations([w0], [coupling], t_end, dt)
    return VerificationReport(case_id, w0.dim, seed, times, devs[0], tol)


def run_suite(
    n_values,
    cases_per_n: int,
    seed: int,
    t_end: float = 1.0,
    dt: float = 1e-3,
    tol: float = 1e-6,
) -> list[VerificationReport]:
    """Run randomized coincidence and closed-form cases, deterministically per seed.

    Every fifth case uses a coupling spectrum with a repeated value to
    exercise the degenerate (tied) case.  The cases of one dimension are
    drawn first, in the order a case-by-case loop draws them, and then
    integrated and evaluated together, the flows as one batch and the
    sphere rules as another; the reports are the ones
    :func:`verify_geodesic_coincidence` and :func:`verify_sphere_closed_form`
    give case by case.  Verdicts are recorded in the reports; numerical
    errors, such as a :class:`StepTooLargeError` or another
    :class:`QssError` from a batch, are raised.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for n in n_values:
        draws = []
        for k in range(cases_per_n):
            case_seed = int(rng.integers(0, 2**31))
            c = rng.uniform(-1.0, 1.0, n)
            if k % 5 == 4 and n >= 2:
                c[1] = c[0]
            w = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
            draws.append((case_seed, CouplingSpectrum(c), SphereVector(w / np.linalg.norm(w))))
        if not draws:
            continue
        seeds, couplings, w0s = zip(*draws)
        rho0s = [random_density(n, case_seed) for case_seed in seeds]
        times, flow_devs = _flow_deviations(rho0s, couplings, t_end, dt)
        _, sphere_devs = _sphere_deviations(w0s, couplings, t_end, dt)
        for k, case_seed in enumerate(seeds):
            reports.append(VerificationReport(
                f"flow-vs-geodesic/n{n}/case{k:02d}", n, case_seed, times, flow_devs[k], tol
            ))
            reports.append(VerificationReport(
                f"sphere-closed-form/n{n}/case{k:02d}", n, case_seed, times, sphere_devs[k], tol
            ))
    return reports


def suite_summary(reports) -> str:
    """One-line summary in the form ``PASS k/m (max dev = x)``."""
    n_pass = sum(r.passed for r in reports)
    max_dev = max((r.max_deviation for r in reports), default=0.0)
    return f"PASS {n_pass}/{len(reports)} (max dev = {max_dev:.6e})"


def _witness_residual(spec: GeodesicSpec, c: np.ndarray, u: np.ndarray) -> float:
    """The probe's residual for the coupling ``c`` and the frame ``u``."""
    u_h = u.conj().T
    field = u @ _eahle_rhs(c)(u_h @ spec.start.entries @ u) @ u_h
    return frobenius(field - spec.initial_tangent.entries)


def conjecture_probe(spec: GeodesicSpec) -> ConjectureProbeResult:
    """Realize the target geodesic as a learning-flow trajectory, up to symmetry.

    The witness is constructive.  Write the SLD of the target's initial
    tangent as L = u diag(lam) u^H, with the eigenbasis u rescaled by a phase
    to determinant 1.  In the frame u the flow with coupling c = lam / 2,
    started at u^H rho0 u, is E rho E / Tr(E rho E) with E = exp(t diag(c)):
    the geodesic exp(t L/2) rho0 exp(t L/2) / Tr(...) seen in that frame,
    at the same time t.  This holds in every dimension.

    The residual is || u F(u^H rho0 u, c) u^H - X0 ||_F, F the flow field:
    roundoff for the witness, as Tr(C u^H rho0 u) = Tr(rho0 L) / 2 = 0, and
    large for a wrong coupling or frame.  Flow trajectories are geodesics,
    fixed by start and initial tangent, so this is the whole claim.
    """
    c, v, _, _ = spec._frame
    # A phase makes det u = 1; it cancels in u^H rho0 u.
    u = v * np.linalg.det(v) ** (-1.0 / spec.dim)
    return ConjectureProbeResult(spec, CouplingSpectrum(c), u)
