"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

import qssgeo as q
from qssgeo.qss import frobenius, hermitian_deviation


def _announce(name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def coincidence_cases():
    # n in {2,3,4,6}, 25 randomized cases each, all derived from seed 42
    rng = np.random.default_rng(42)
    cases = []
    for n in (2, 3, 4, 6):
        for k in range(25):
            case_seed = int(rng.integers(0, 2**31))
            c = rng.uniform(-1.0, 1.0, n)
            cases.append((n, case_seed, c))
    return cases


def test_criterion_01_flow_matches_geodesic(coincidence_cases):
    t0 = time.perf_counter()
    n_pass = 0
    worst = 0.0
    for n, seed, c in coincidence_cases:
        rho0 = q.random_density(n, seed)
        report = q.verify_geodesic_coincidence(
            rho0, q.CouplingSpectrum(c), t_end=1.0, dt=1e-3, tol=1e-6, seed=seed
        )
        n_pass += report.passed
        worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - t0
    ok = n_pass == len(coincidence_cases) and elapsed < 60.0
    _announce(
        "1 flow/geodesic coincidence",
        ok,
        f"{n_pass}/{len(coincidence_cases)} within 1e-6, max dev {worst:.3e}, {elapsed:.1f}s",
    )
    assert n_pass == len(coincidence_cases)
    assert elapsed < 60.0


def test_criterion_02_convergence_order():
    # strong coupling lifts the truncation error well above roundoff so the
    # RK4 order is measurable; nominal reduction factor is 16
    rho0 = q.random_density(4, 42)
    c = q.CouplingSpectrum(np.array([2.0, 1.0, -1.0, -2.0]))
    coarse = q.verify_geodesic_coincidence(rho0, c, 1.0, 1e-3, 1.0).max_deviation
    fine = q.verify_geodesic_coincidence(rho0, c, 1.0, 5e-4, 1.0).max_deviation
    ratio = coarse / fine
    ok = 12.0 <= ratio <= 20.0
    _announce(
        "2 convergence order",
        ok,
        f"dev {coarse:.3e} -> {fine:.3e}, ratio {ratio:.2f} in [12, 20]",
    )
    assert ok


def test_criterion_03_sphere_closed_form():
    rng = np.random.default_rng(42)
    n_pass = 0
    total = 0
    worst = 0.0
    for n in (2, 3, 5):
        for k in range(25):
            w = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
            w0 = q.SphereVector(w / np.linalg.norm(w))
            c = q.CouplingSpectrum(rng.uniform(-1.0, 1.0, n))
            report = q.verify_sphere_closed_form(
                w0, c, t_end=1.0, dt=1e-3, tol=1e-6, seed=int(rng.integers(0, 2**31))
            )
            total += 1
            n_pass += report.passed
            worst = max(worst, report.max_deviation)
    ok = n_pass == total
    _announce(
        "3 sphere closed form",
        ok,
        f"{n_pass}/{total} within 1e-6 (integration and chart), max dev {worst:.3e}",
    )
    assert ok


def test_criterion_04_exact_spot_value():
    # e^{2 ln 2} / (e^{2 ln 2} + 1) = 4/5 by all three routes
    t = np.log(2.0)
    rho0 = q.DensityMatrix(np.eye(2) / 2)
    c = q.CouplingSpectrum(np.array([1.0, 0.0]))
    expected = np.diag([0.8, 0.2])

    integrated = q.eahle_integrate(rho0, c, t, 1e-3).states[-1].entries
    spec = q.GeodesicSpec(rho0, q.hebbian_initial_tangent(rho0, c))
    geodesic = q.e_geodesic(spec, t).entries
    diagonal = np.diag(
        q.diagonal_closed_form(q.SimplexPoint(np.array([0.5, 0.5])), c, t).values
    )

    gaps = [frobenius(route - expected) for route in (integrated, geodesic, diagonal)]
    ok = all(g <= 1e-8 for g in gaps)
    _announce(
        "4 exact spot value",
        ok,
        "diag(0.8, 0.2): integrator " + ", ".join(f"{g:.2e}" for g in gaps),
    )
    assert ok


def test_criterion_05_sld_suite():
    worst_rt = 0.0
    worst_resid = 0.0
    for k in range(500):
        n = 2 + k % 7
        if k % 10 == 0:
            rho = q.DensityMatrix(np.eye(n) / n)
        else:
            rho = q.random_density(n, 10_000 + k)
        x = q.random_tangent(rho, 20_000 + k)
        l = q.sld(rho, x)
        back = q.sld_inverse(rho, l)
        worst_rt = max(worst_rt, frobenius(back.entries - x.entries))
        resid = x.entries - 0.5 * (rho.entries @ l.entries + l.entries @ rho.entries)
        worst_resid = max(worst_resid, frobenius(resid))
    ok = worst_rt <= 1e-9 and worst_resid <= 1e-9
    _announce(
        "5 SLD suite",
        ok,
        f"500 cases n=2..8: round trip {worst_rt:.3e}, residual {worst_resid:.3e}, tol 1e-9",
    )
    assert ok


def test_criterion_06_metric_suite():
    # near-singular random states push metric values to ~1e4, so agreement is
    # measured against the metric's own Frobenius scale
    worst_gap = 0.0
    all_positive = True
    for k in range(500):
        n = 2 + k % 7
        rho = q.random_density(n, 30_000 + k)
        x = q.random_tangent(rho, 40_000 + k)
        y = q.random_tangent(rho, 50_000 + k)
        m1 = q.fisher_metric(rho, x, y)
        m2 = q.fisher_metric_from_slds(rho, x, y)
        m3 = q.fisher_metric_eigenbasis(rho, x, y)
        gxx = q.fisher_metric(rho, x, x)
        gyy = q.fisher_metric(rho, y, y)
        scale = max(1.0, float(np.sqrt(gxx * gyy)))
        gap = max(abs(m1 - m2), abs(m1 - m3), abs(m2 - m3)) / scale
        worst_gap = max(worst_gap, gap)
        all_positive = all_positive and gxx > 0 and gyy > 0
    ok = worst_gap <= 1e-9 and all_positive
    _announce(
        "6 metric suite",
        ok,
        f"500 cases: max formula gap {worst_gap:.3e} of scale (tol 1e-9), "
        f"positivity {all_positive}",
    )
    assert ok


def test_criterion_07_transport_suite():
    worst_trace = 0.0
    worst_herm = 0.0
    worst_rel = 0.0
    worst_ident = 0.0
    for k in range(500):
        n = 2 + k % 5
        rho1 = q.random_density(n, 60_000 + k)
        rho2 = q.random_density(n, 70_000 + k)
        x = q.random_tangent(rho1, 80_000 + k)
        moved = q.e_transport(rho1, rho2, x)
        worst_trace = max(worst_trace, float(abs(np.trace(moved.entries))))
        worst_herm = max(worst_herm, hermitian_deviation(moved.entries))
        # the defining relation lives at SLD scale, which grows like the
        # inverse smallest eigenvalue on random states
        l1 = q.sld(rho1, x).entries
        l2 = q.sld(rho2, moved).entries
        expected = l1 - float(np.trace(rho2.entries @ l1).real) * np.eye(n)
        worst_rel = max(
            worst_rel, frobenius(l2 - expected) / max(1.0, frobenius(l1))
        )
        ident = q.e_transport(rho1, rho1, x)
        worst_ident = max(worst_ident, frobenius(ident.entries - x.entries))
    ok = (
        worst_trace <= 1e-10
        and worst_herm <= 1e-10
        and worst_rel <= 1e-9
        and worst_ident <= 1e-10
    )
    _announce(
        "7 transport suite",
        ok,
        f"500 cases: trace {worst_trace:.2e}, herm {worst_herm:.2e}, "
        f"relation {worst_rel:.2e} of scale, identity {worst_ident:.2e}",
    )
    assert ok


def test_criterion_08_autoparallelism():
    worst = 0.0
    for k in range(50):
        spec = q.random_geodesic_spec(2 + k % 3, 90_000 + k)
        for t in (0.1, 0.5, 1.0, 2.0):
            worst = max(worst, q.autoparallel_residual(spec, t, 1e-4))
    ok = worst <= 1e-6
    _announce(
        "8 autoparallelism", ok, f"50 specs, t in {{0.1,0.5,1,2}}: max residual {worst:.3e}"
    )
    assert ok


def test_criterion_09_conservation(coincidence_cases):
    worst_trace = 0.0
    worst_herm = 0.0
    min_eig = np.inf
    for n, seed, c in coincidence_cases:
        rho0 = q.random_density(n, seed)
        # the three checks over the trajectory's stacked (T, n, n) states
        states = q.eahle_integrate(rho0, q.CouplingSpectrum(c), 1.0, 1e-3).array
        traces = np.trace(states, axis1=-2, axis2=-1).real
        worst_trace = max(worst_trace, float(np.max(np.abs(traces - 1))))
        worst_herm = max(worst_herm, hermitian_deviation(states))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(states)[:, 0].min()))
    ok = worst_trace <= 1e-9 and worst_herm <= 1e-9 and min_eig > 0
    _announce(
        "9 conservation",
        ok,
        f"all stored states: trace dev {worst_trace:.2e}, herm dev {worst_herm:.2e}, "
        f"min eig {min_eig:.2e}",
    )
    assert ok


def test_criterion_10_conjecture_probe_report():
    residuals = []
    for k in range(20):
        spec = q.random_geodesic_spec(2, 100_000 + k)
        result = q.conjecture_probe(spec)
        residuals.append(result.residual)
    residuals = np.asarray(residuals)
    ok = bool(np.all(residuals <= 1e-12))
    _announce(
        "10 conjecture probe",
        ok,
        f"20 generic 2x2 targets: residuals max {residuals.max():.3e}, "
        f"median {np.median(residuals):.3e}",
    )
    assert ok
