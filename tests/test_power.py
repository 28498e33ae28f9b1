"""The power of the theorem check: deliberate model errors and the check that catches each.

Each test applies one mutant by monkeypatch and asserts which check stops
it.  The suite runs ``run_suite((2, 3, 4), 5, seed=7)``, whose clean flow and
sphere deviations sit near 1e-14, far below the 1e-6 gate.  One mutant
escapes every check; its test records that, so a check that catches it
shows here as a failure to update.
"""

from functools import cached_property
from itertools import count

import numpy as np
import pytest

import qssgeo as q
from qssgeo import dynamics, geometry
from qssgeo.geometry import _geodesic_curves
from qssgeo.qss import SldMatrix, TangentVector

SUITE = ((2, 3, 4), 5, 7)  # dimensions, cases per dimension, seed


def failing(reports, kind):
    of_kind = [r for r in reports if r.case_id.startswith(kind)]
    return sum(not r.passed for r in of_kind), len(of_kind), max(r.max_deviation for r in of_kind)


def scaled_sld(monkeypatch, factor):
    """Every tangent's SLD, scaled by ``factor``."""
    clean = TangentVector._sld.func

    def mutant(self):
        s = clean(self)
        return SldMatrix(s.entries * factor, s.base)

    prop = cached_property(mutant)
    prop.__set_name__(TangentVector, "_sld")
    monkeypatch.setattr(TangentVector, "_sld", prop)


def test_wrong_trace_coefficient_is_caught_only_by_the_tangent_check(monkeypatch):
    # 3 Tr(C rho) rho instead of 2: the field is no longer traceless, but
    # trace normalization after each step hides it from the trajectory
    rho0 = q.random_density(3, 11)
    c = np.array([0.7, -0.2, 0.4])
    spec = q.GeodesicSpec(rho0, q.hebbian_initial_tangent(rho0, q.CouplingSpectrum(c)))

    def mutant(c):
        sums = c[..., :, None] + c[..., None, :]
        return lambda a: a * (sums - 3.0 * np.einsum("...j,...jj->...", c, a).real[..., None, None])

    monkeypatch.setattr(dynamics, "_eahle_rhs", mutant)
    with pytest.raises(q.NotTracelessError) as caught:
        q.run_suite(*SUITE)
    print(f"\nrun_suite: {caught.value}")
    times, flow = dynamics._eahle_integrate_batch(rho0.entries[None], c[None], 1.0, 1e-3)
    gap = np.linalg.norm(flow[0] - _geodesic_curves([spec], times)[0], axis=(-2, -1)).max()
    print(f"mutant flow vs clean geodesic: {gap:.3e}")
    assert gap < 1e-12


def test_perturbed_third_rk4_stage_fails_the_gate(monkeypatch):
    clean = dynamics._eahle_rhs

    def mutant(c):
        field, calls = clean(c), count()
        # k3 is the third of each step's four field calls
        return lambda a: field(a) * (1 + 1e-4 if next(calls) % 4 == 2 else 1)

    monkeypatch.setattr(dynamics, "_eahle_rhs", mutant)
    reports = q.run_suite(*SUITE)
    flow, sphere = failing(reports, "flow"), failing(reports, "sphere")
    print(f"\nflow: {flow[0]}/{flow[1]} fail, max {flow[2]:.2e}; sphere: {sphere[0]}/{sphere[1]} fail")
    assert flow[:2] == (14, 15) and sphere[0] == 0


def test_perturbed_sld_fails_the_gate(monkeypatch):
    scaled_sld(monkeypatch, 1 + 1e-4)
    reports = q.run_suite(*SUITE)
    flow, sphere = failing(reports, "flow"), failing(reports, "sphere")
    print(f"\nflow: {flow[0]}/{flow[1]} fail, max {flow[2]:.2e}; "
          f"sphere: {sphere[0]}/{sphere[1]} fail, max {sphere[2]:.2e}")
    assert flow[:2] == (14, 15) and sphere[:2] == (14, 15)


def test_transport_without_its_trace_term_fails_its_result_check(monkeypatch):
    rho1, rho2 = q.random_density(3, 1), q.random_density(3, 2)
    x = q.random_tangent(rho1, 3)
    assert abs(np.trace(geometry.e_transport(rho1, rho2, x).entries)) < 1e-15

    def mutant(rho1, rho2, x):
        # tau(X) without the -Tr(rho2 L) rho2 term
        m = rho2.entries @ q.sld(rho1, x).entries
        moved = geometry.hermitian_part(m)
        geometry._check_traceless(moved, m)
        return TangentVector(moved, rho2)

    monkeypatch.setattr(geometry, "e_transport", mutant)
    with pytest.raises(q.NotTracelessError) as caught:
        geometry.e_transport(rho1, rho2, x)
    print(f"\n{caught.value}")


def test_sld_error_of_1e_6_escapes_every_check(monkeypatch):
    # a relative model error a million times roundoff passes the 1e-6 gate;
    # halving dt would expose it, since model error does not shrink with dt
    scaled_sld(monkeypatch, 1 + 1e-6)
    reports = q.run_suite(*SUITE)
    worst = max(r.max_deviation for r in reports)
    print(f"\n{sum(r.passed for r in reports)}/{len(reports)} pass, max {worst:.2e}")
    assert all(r.passed for r in reports) and worst > 1e-7
