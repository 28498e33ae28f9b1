"""Exponential-type parallel transport and its closed-form geodesics.

Moves tangent vectors between states, checks the transport's defining
relation, evaluates geodesics pointwise, and confirms autoparallelism with a
finite-difference velocity check.
"""

import numpy as np

import qssgeo as q

rho1 = q.DensityMatrix(np.diag([0.75, 0.25]))
rho2 = q.DensityMatrix(np.eye(2) / 2)
x = q.TangentVector(np.diag([0.1, -0.1]), rho1)

# Transport x from rho1 to rho2; the result is again Hermitian and traceless.
moved = q.e_transport(rho1, rho2, x)
print("transported vector:\n", moved.entries.real)
print("trace:", np.trace(moved.entries).real)

# Transporting to the same state is the identity.
same = q.e_transport(rho1, rho1, x)
print("identity-transport error:", np.linalg.norm(same.entries - x.entries))

# The relation behind the formula: the SLD shifts by a trace multiple of I.
l1 = q.sld(rho1, x).entries
l2 = q.sld(rho2, moved).entries
shift = np.trace(rho2.entries @ l1).real
print("relation residual:", np.linalg.norm(l2 - (l1 - shift * np.eye(2))))

# A geodesic is determined by a start point and an initial tangent.  With
# SLD diag(1,-1) at I/2 the curve is diag(e^t, e^-t) normalized.
spec = q.GeodesicSpec(rho2, q.TangentVector(np.diag([0.5, -0.5]), rho2))
print("\n t      rho_00     rho_11")
for t in (0.0, 0.25, 0.5, np.log(2.0), 1.0):
    point = q.e_geodesic(spec, t)
    d = np.diag(point.entries).real
    print(f"{t:5.3f}   {d[0]:.6f}   {d[1]:.6f}")
print("at t = ln 2 the diagonal is exactly (0.8, 0.2)")

# Autoparallel means the velocity equals the transported initial tangent.
# The finite-difference residual shrinks quadratically with the step.
spec3 = q.random_geodesic_spec(3, seed=21)
print("\nautoparallel residual at t = 1:")
for dt in (1e-2, 1e-3, 1e-4):
    print(f"  step {dt:g}: {q.autoparallel_residual(spec3, 1.0, dt):.3e}")

# Transport composition is path-independent to machine precision.
rho3 = q.random_density(2, seed=5)
via = q.e_transport(rho2, rho3, q.e_transport(rho1, rho2, x))
direct = q.e_transport(rho1, rho3, x)
print("\ncomposition gap:", np.linalg.norm(via.entries - direct.entries))
