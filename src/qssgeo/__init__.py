"""Geometry of the quantum state space and averaged Hebbian learning flows.

The package represents regular density matrices with the SLD-Fisher metric,
implements the exponential-type parallel transport and its closed-form
geodesics, integrates the averaged Hebbian learning flows on the state space
and on the unit sphere, and verifies numerically that every flow trajectory
coincides with a geodesic.
"""

from .dynamics import (
    CouplingSpectrum,
    SignVector,
    SimplexPoint,
    SphereVector,
    Trajectory,
    TrajectoryMeta,
    ahle_closed_form,
    ahle_field,
    ahle_integrate,
    diagonal_closed_form,
    eahle_field,
    eahle_integrate,
    hebbian_initial_tangent,
    simplex_to_sphere,
    sphere_to_simplex,
)
from .errors import (
    BaseMismatchError,
    DecompositionFailedError,
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidStepError,
    InvalidValueError,
    NotHermitianError,
    NotInSldSpaceError,
    NotPositiveDefiniteError,
    NotTracelessError,
    NotUnitTraceError,
    ParseError,
    QssError,
    StepTooLargeError,
    UsageError,
    ZeroComponentError,
)
from .geometry import (
    GeodesicSpec,
    autoparallel_residual,
    e_geodesic,
    e_transport,
    is_e_parallel,
    random_geodesic_spec,
)
from .qss import (
    TOL_HERM,
    TOL_PD,
    TOL_RECON,
    TOL_TRACE,
    DensityMatrix,
    SldMatrix,
    TangentVector,
    eig_hermitian,
    fisher_metric,
    fisher_metric_eigenbasis,
    fisher_metric_from_slds,
    random_density,
    random_tangent,
    sld,
    sld_inverse,
)
from .verify import (
    ConjectureProbeResult,
    VerificationReport,
    conjecture_probe,
    run_suite,
    suite_summary,
    verify_geodesic_coincidence,
    verify_sphere_closed_form,
)

__version__ = "0.1.0"
