"""Building a learning flow behind an arbitrary geodesic.

The coincidence result runs one way: flow trajectories are geodesics.  The
probe runs the converse: given a generic geodesic, it builds a coupling
spectrum and a special-unitary change of frame whose flow trajectory lands
on it, time for time.  The witness is exact: conjugating by the eigenbasis
of the initial SLD diagonalizes the problem and half its eigenvalues serve
as the coupling.  The residual is the gap between the witness flow's field
at its start, conjugated back, and the target's initial tangent; flows are
geodesics, fixed by that tangent, so roundoff there is the whole claim.
"""

import numpy as np

import qssgeo as q

# Generic targets: random start, random admissible initial tangent, with an
# SLD that is not diagonal in any coordinate basis.
print("target    n    residual")
for k, n in enumerate((2, 2, 3, 8, 32)):
    spec = q.random_geodesic_spec(n, seed=300 + k)
    result = q.conjecture_probe(spec)
    print(f"  {k}      {n:2d}   {result.residual:.3e}")

# The witness for one target, in full.
spec = q.random_geodesic_spec(2, seed=300)
result = q.conjecture_probe(spec)
print("\ncoupling spectrum:", result.best_coupling.values)
print("unitary frame (abs):\n", np.abs(result.best_unitary))
lam = np.linalg.eigvalsh(q.sld(spec.start, spec.initial_tangent).entries)
print("half the SLD eigenvalues:", 0.5 * lam[::-1])
