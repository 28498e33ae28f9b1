"""Reference math for the benchmark's correctness checks, in plain numpy.

Nothing here imports qssgeo.  Each function restates a formula of the paper
(or the documented input draw of a qssgeo entry point) so that the benchmark
can check the library's outputs against something it did not compute.
"""

from __future__ import annotations

import numpy as np


def herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def rel_gap(a, b) -> float:
    """Frobenius gap between ``a`` and ``b``, relative to max(1, |b|)."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(1.0, np.linalg.norm(b)))


def random_density(n: int, seed: int) -> np.ndarray:
    """G G^H / Tr with complex Gaussian G, drawn as ``random_density(n, seed)`` documents."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = g @ g.conj().T
    return a / np.trace(a).real


def suite_cases(n_values, cases_per_n: int, seed: int) -> list[dict]:
    """The inputs ``run_suite`` draws for each report, in report order.

    Mirrors the documented draw: per case a case seed, a coupling in [-1, 1]
    (tied first pair every fifth case), then a signed start on the sphere.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for n in n_values:
        for k in range(cases_per_n):
            case_seed = int(rng.integers(0, 2**31))
            c = rng.uniform(-1.0, 1.0, n)
            if k % 5 == 4:
                c[1] = c[0]
            w = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
            common = {"n": n, "seed": case_seed, "c": c}
            cases.append({"case_id": f"flow-vs-geodesic/n{n}/case{k:02d}", **common})
            cases.append(
                {"case_id": f"sphere-closed-form/n{n}/case{k:02d}", "w0": w / np.linalg.norm(w), **common}
            )
    return cases


def sld(rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Hermitian L with X = (rho L + L rho) / 2, solved in rho's eigenbasis."""
    theta, h = np.linalg.eigh(rho)
    xt = h.conj().T @ x @ h
    return h @ (2.0 * xt / (theta[:, None] + theta[None, :])) @ h.conj().T


def jordan(rho: np.ndarray, l: np.ndarray) -> np.ndarray:
    """(rho L + L rho) / 2, the inverse of :func:`sld`."""
    return 0.5 * (rho @ l + l @ rho)


def metric(rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """SLD-Fisher inner product Tr(X^H L_Y)."""
    return float(np.trace(x.conj().T @ sld(rho, y)).real)


def transport(rho2: np.ndarray, l: np.ndarray) -> np.ndarray:
    """e-transport to rho2 of the tangent whose SLD is ``l``: its SLD at rho2 is L - Tr(rho2 L) I."""
    m = l - float(np.trace(rho2 @ l).real) * np.eye(len(l))
    return jordan(rho2, m)


def geodesic(rho0: np.ndarray, l: np.ndarray, t: float) -> np.ndarray:
    """exp(tL/2) rho0 exp(tL/2) / Tr, the e-geodesic with initial SLD ``l``."""
    lam, v = np.linalg.eigh(herm(l))
    e = (v * np.exp(0.5 * t * (lam - lam.max()))) @ v.conj().T
    m = herm(e @ rho0 @ e)
    return m / np.trace(m).real


def autoparallel_residual(rho0: np.ndarray, l: np.ndarray, t: float, dt: float) -> float:
    """Central-difference velocity of the geodesic at t minus the transported initial tangent."""
    velocity = (geodesic(rho0, l, t + dt) - geodesic(rho0, l, t - dt)) / (2.0 * dt)
    return float(np.linalg.norm(velocity - transport(geodesic(rho0, l, t), l)))


def flow_field(rho: np.ndarray, c: np.ndarray) -> np.ndarray:
    """rho C + C rho - 2 Tr(C rho) rho with C = diag(c)."""
    return rho * c[None, :] + c[:, None] * rho - 2.0 * float(c @ rho.diagonal().real) * rho


def sphere_closed_form(w0: np.ndarray, c: np.ndarray, t: float) -> np.ndarray:
    """e^{tc} w0 / |e^{tc} w0|, the exact solution of Oja's rule."""
    expo = t * np.asarray(c)
    scaled = np.exp(expo - expo.max()) * np.asarray(w0)
    return scaled / np.linalg.norm(scaled)


def well_conditioned_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random state with eigenvalues within a small factor of 1/n."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = g @ g.conj().T / n + np.eye(n)
    return a / np.trace(a).real


def random_sld(rho: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A Hermitian L of unit Frobenius norm with Tr(rho L) = 0, so (rho L + L rho)/2 is tangent."""
    n = len(rho)
    l = herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    l -= float(np.trace(rho @ l).real) * np.eye(n)
    return l / np.linalg.norm(l)
