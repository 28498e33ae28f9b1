"""The averaged Hebbian learning flows and their closed-form solutions.

Integrates the matrix flow and the sphere rule, compares both against their
exact solutions, and shows the orthant chart that ties them together: the
squared sphere coordinates follow the diagonal matrix flow, and in the long
run everything concentrates on the largest coupling value.
"""

import numpy as np

import qssgeo as q

c = q.CouplingSpectrum(np.array([1.0, 0.0]))

# Matrix flow from the maximally mixed state; mass moves toward the
# eigendirection with the larger coupling.
rho0 = q.DensityMatrix(np.eye(2) / 2)
traj = q.eahle_integrate(rho0, c, t_end=np.log(2.0), dt=1e-3)
print("matrix flow at t = ln 2:\n", traj.states[-1].entries.real)
print("(exactly diag(0.8, 0.2) in the limit dt -> 0)")

# Sphere rule from the diagonal direction, against its exact solution.
w0 = q.SphereVector(np.array([1.0, 1.0]) / np.sqrt(2))
straj = q.ahle_integrate(w0, c, t_end=np.log(2.0), dt=1e-3)
exact = q.ahle_closed_form(w0, c, np.log(2.0))
print("\nsphere rule at t = ln 2:", straj.states[-1].values)
print("closed form:            ", exact.values, " = (2, 1)/sqrt(5)")
print("gap:", np.linalg.norm(straj.states[-1].values - exact.values))

# The orthant chart theta_j = w_j^2 carries the sphere rule onto the
# diagonal matrix flow; signs travel separately.
theta0, sigma = q.sphere_to_simplex(w0)
print("\nchart image of w0:", theta0.values, "signs:", sigma.values)
dtraj = q.eahle_integrate(q.DensityMatrix(np.diag(theta0.values)), c, 1.0, 1e-3)
wtraj = q.ahle_integrate(w0, c, 1.0, 1e-3)
worst = max(
    float(np.linalg.norm(ws.values**2 - np.diag(ms.entries).real))
    for ws, ms in zip(wtraj.states, dtraj.states)
)
print("max gap between squared sphere flow and diagonal matrix flow:", worst)

# Flipping signs of the start flips the whole trajectory, exactly.
flipped = q.ahle_closed_form(q.SphereVector(np.array([-1.0, 1.0]) / np.sqrt(2)), c, 0.8)
plain = q.ahle_closed_form(w0, c, 0.8)
print("sign equivariance exact:", bool(np.array_equal(flipped.values, [-plain.values[0], plain.values[1]])))

# Winner-take-all: by t = 20 the largest coupling owns all the mass.
theta = q.diagonal_closed_form(q.SimplexPoint(np.array([0.5, 0.5])), c, t=20.0)
print("\nsimplex point at t = 20:", theta.values)

# The closed forms factor out the top exponent first, so extreme couplings
# are safe.
big = q.ahle_closed_form(w0, q.CouplingSpectrum(np.array([500.0, -500.0])), 10.0)
print("extreme coupling, still finite:", big.values)
