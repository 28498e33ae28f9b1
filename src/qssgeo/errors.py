"""Exception hierarchy for qssgeo.

Validation errors carry the measured violation so callers can report how far
an input was from satisfying the contract.  An error from checking a stack of
states or unit vectors also carries ``position``: the index, in C order, of
the first one that failed, as ``np.unravel_index`` gives it; ``()`` when a
single state or vector was checked.
"""

from __future__ import annotations


class QssError(Exception):
    """Base class for all qssgeo errors."""


class InvalidValueError(QssError, ValueError):
    """A value object breaks its defining constraint; also a ValueError."""


class NotHermitianError(QssError):
    def __init__(self, deviation: float):
        super().__init__(f"matrix is not Hermitian: max |A - A^H| = {deviation:.6e}")
        self.deviation = deviation


class NotUnitTraceError(QssError):
    def __init__(self, deviation: float):
        super().__init__(f"matrix does not have unit trace: |Tr - 1| = {deviation:.6e}")
        self.deviation = deviation


class NotTracelessError(QssError):
    def __init__(self, deviation: float):
        super().__init__(f"matrix is not traceless: |Tr| = {deviation:.6e}")
        self.deviation = deviation


class NotPositiveDefiniteError(QssError):
    def __init__(self, min_eigenvalue: float):
        super().__init__(
            f"matrix is not positive definite: smallest eigenvalue = {min_eigenvalue:.6e}"
        )
        self.min_eigenvalue = min_eigenvalue


class NotInSldSpaceError(QssError):
    def __init__(self, deviation: float):
        super().__init__(
            f"matrix violates Tr(rho X + X rho) = 0: deviation = {deviation:.6e}"
        )
        self.deviation = deviation


class DimensionTooSmallError(QssError):
    def __init__(self, n: int):
        super().__init__(f"dimension must be at least 2, got {n}")
        self.n = n


class DimensionMismatchError(QssError):
    pass


class BaseMismatchError(QssError):
    pass


class DecompositionFailedError(QssError):
    pass


class InvalidStepError(QssError):
    pass


class StepTooLargeError(QssError):
    def __init__(self, time: float, min_eigenvalue: float):
        advice = "reduce the step size"
        if min_eigenvalue > 0:  # only the TOL_PD margin failed
            advice = "the state is within TOL_PD of the boundary; a smaller step will not help"
        super().__init__(
            f"state lost positive-definiteness at t = {time}: smallest eigenvalue = "
            f"{min_eigenvalue:.6e}; {advice}"
        )
        self.time = time
        self.min_eigenvalue = min_eigenvalue


class ZeroComponentError(QssError):
    def __init__(self, index: int, value: float):
        super().__init__(
            f"component {index} is numerically zero ({value:.6e}); the vector lies "
            "outside every orthant chart"
        )
        self.index = index
        self.value = value


class ParseError(QssError):
    pass


class UsageError(QssError):
    pass
