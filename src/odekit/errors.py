"""Exception types shared across the toolkit."""


class OdekitError(Exception):
    """Base class for all toolkit errors."""


class DivergenceError(OdekitError):
    """Raised when an integration blows up and has to be cut short.

    Carries the partial trajectory computed so far in ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class SampleCapError(OdekitError):
    """A run would exceed the hard cap on stored samples."""


class ImplicitSolveError(OdekitError):
    """An implicit stage/step iteration failed to converge."""


class NonFiniteError(OdekitError):
    """A stepper produced a NaN or infinite state."""


class MissingExactError(OdekitError):
    """An operation requires a problem with a known exact solution."""


class MissingDerivativeError(OdekitError):
    """A Taylor-series stepper is missing a total-derivative callback."""


class SingularMatrixError(OdekitError):
    """A linear solve hit a pivot it cannot trust: below the relative floor,
    or complex with a modulus past the largest float."""


class NotSymmetricError(OdekitError):
    """The symmetric eigensolver was handed a non-symmetric matrix."""


class NonConvergenceError(OdekitError):
    """An iterative procedure hit its iteration cap."""


class DefectiveMatrixError(OdekitError):
    """No complete eigenbasis is available for the requested matrix."""


class UnsupportedSpectrumError(DefectiveMatrixError):
    """Spectrum not computable with the shipped eigensolvers."""


class TableauInvariantError(OdekitError):
    """Butcher tableau coefficients violate a structural invariant."""


class UnsupportedOrderError(OdekitError):
    """Requested multistep family/order combination is not shipped."""


class UnknownProblemError(OdekitError):
    """Problem key not present in the catalog."""


class BadParamError(OdekitError):
    """Problem parameter outside its documented range, or unknown."""


class StepUnderflowError(OdekitError):
    """Adaptive step size fell below ``adaptive.H_MIN``."""


class RejectCapError(OdekitError):
    """More than ``adaptive.MAX_REJECTS`` consecutive adaptive rejections."""
