"""Exception hierarchy for qssgeo.

Validation errors carry the measured violation so callers can report how far
an input was from satisfying the contract.  Such a measured error names its
values in ``fields`` and words its message in ``template``: it is raised with
those values as its ``args``, keeps each under its name, and formats the
template as its message; so it pickles as itself, values and all.  An error
without ``fields`` is raised with its message.  An error from checking a
stack of states or unit vectors also carries ``position``: the index, in C
order, of the first one that failed, as ``np.unravel_index`` gives it; ``()``
when a single state or vector was checked.
"""

from __future__ import annotations


class QssError(Exception):
    """Base class for all qssgeo errors."""

    fields: tuple[str, ...] = ()
    template = ""

    def __init__(self, *args):
        super().__init__(*args)
        for name, value in zip(self.fields, args):
            setattr(self, name, value)

    def __str__(self) -> str:
        return self.template.format_map(vars(self)) if self.fields else super().__str__()


class InvalidValueError(QssError, ValueError):
    """A value object breaks its defining constraint; also a ValueError."""


class NotHermitianError(QssError):
    fields = ("deviation",)
    template = "matrix is not Hermitian: max |A - A^H| = {deviation:.6e}"


class NotUnitTraceError(QssError):
    fields = ("deviation",)
    template = "matrix does not have unit trace: |Tr - 1| = {deviation:.6e}"


class NotTracelessError(QssError):
    fields = ("deviation",)
    template = "matrix is not traceless: |Tr| = {deviation:.6e}"


class NotPositiveDefiniteError(QssError):
    fields = ("min_eigenvalue",)
    template = "matrix is not positive definite: smallest eigenvalue = {min_eigenvalue:.6e}"


class NotInSldSpaceError(QssError):
    fields = ("deviation",)
    template = "matrix violates Tr(rho X + X rho) = 0: deviation = {deviation:.6e}"


class DimensionTooSmallError(QssError):
    fields = ("n",)
    template = "dimension must be at least 2, got {n}"


class DimensionMismatchError(QssError):
    pass


class BaseMismatchError(QssError):
    pass


class DecompositionFailedError(QssError):
    pass


class InvalidStepError(QssError):
    pass


class StepTooLargeError(QssError):
    fields = ("time", "min_eigenvalue")
    template = "state lost positive-definiteness at t = {time}: smallest eigenvalue = {min_eigenvalue:.6e}; "

    def __str__(self) -> str:
        if self.min_eigenvalue > 0:  # only the TOL_PD margin failed
            return super().__str__() + "the state is within TOL_PD of the boundary; a smaller step will not help"
        return super().__str__() + "reduce the step size"


class ZeroComponentError(QssError):
    fields = ("index", "value")
    template = "component {index} is numerically zero ({value:.6e}); the vector lies outside every orthant chart"


class ParseError(QssError):
    pass


class UsageError(QssError):
    pass
