"""States, tangent vectors, the SLD, and the Fisher metric.

Walks through the basic objects: building density matrices, attaching
tangent vectors, solving for the symmetric logarithmic derivative, and
evaluating the metric through its three equivalent formulas.
"""

import numpy as np

import qssgeo as q

# A state is Hermitian, positive definite, unit trace.  The maximally mixed
# state sits at the "center" of the space.
rho = q.DensityMatrix(np.eye(2) / 2)
print("maximally mixed state:\n", rho.entries.real)

# Tangent vectors are Hermitian and traceless.
x = q.TangentVector(np.array([[0.1, 0.2], [0.2, -0.1]]), rho)
print("\ntangent vector:\n", x.entries.real)

# The SLD is the unique Hermitian L with X = (rho L + L rho)/2.  At the
# maximally mixed state every eigenvalue pair sums to 1, so L = 2X.
l = q.sld(rho, x)
print("\nSLD (equals 2X here):\n", l.entries.real)
residual = np.linalg.norm(x.entries - 0.5 * (rho.entries @ l.entries + l.entries @ rho.entries))
print("defining-equation residual:", residual)

# The map is a bijection between tangent vectors and admissible SLDs.
back = q.sld_inverse(rho, l)
print("round-trip error:", np.linalg.norm(back.entries - x.entries))

# Three equivalent expressions of the metric.
rho3 = q.random_density(3, seed=7)
a = q.random_tangent(rho3, seed=1)
b = q.random_tangent(rho3, seed=2)
print("\nmetric via Tr(X^H L_Y):          ", q.fisher_metric(rho3, a, b))
print("metric via Tr(rho {L_X, L_Y})/2: ", q.fisher_metric_from_slds(rho3, a, b))
print("metric via the eigenbasis sum:   ", q.fisher_metric_eigenbasis(rho3, a, b))

# The metric is positive definite: squared lengths are strictly positive.
print("\n|X|^2 =", q.fisher_metric(rho3, a, a), " |Y|^2 =", q.fisher_metric(rho3, b, b))

# Degenerate spectra need no special treatment; at rho = I/n the SLD is n X.
rho4 = q.DensityMatrix(np.eye(4) / 4)
x4 = q.random_tangent(rho4, seed=3)
print("\nat I/4, ||sld(X) - 4X|| =", np.linalg.norm(q.sld(rho4, x4).entries - 4 * x4.entries))
