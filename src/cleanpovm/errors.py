"""Exception hierarchy. Everything raised by this package derives from CleanPovmError."""


class CleanPovmError(Exception):
    """Base class for all errors raised by cleanpovm."""


class InvalidMatrix(CleanPovmError):
    """Input is not a well-formed finite complex matrix."""


class DimensionMismatch(CleanPovmError):
    """Operands have incompatible shapes or dimensions."""


class NonHermitianInput(CleanPovmError):
    """Asymmetry exceeds the hermiticity tolerance."""


class NotPsd(CleanPovmError):
    """Matrix has an eigenvalue below the PSD tolerance."""

    def __init__(self, message, index=None, min_eigenvalue=None):
        super().__init__(message)
        self.index = index
        self.min_eigenvalue = min_eigenvalue


class ZeroElement(CleanPovmError):
    """POVM element is numerically zero."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ClosureViolation(CleanPovmError):
    """Operators do not sum to the identity within tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnvalidatedPovm(CleanPovmError):
    """Supports or eigenvectors read off a certificate POVM, which keeps eigenvalues only."""


class NotQuasiQubit(CleanPovmError):
    """POVM has an element whose rank is neither 1 nor full."""


class SingleBlock(CleanPovmError):
    """Partition has a single block; no separating pair exists."""


class InfeasibleRequest(CleanPovmError):
    """Requested random POVM parameters are unsatisfiable."""


class VerdictIsClean(CleanPovmError):
    """Witness construction requested for a clean verdict."""


class NotScalar(CleanPovmError):
    """Scalar-POVM construction applied to a non-scalar element."""


class SingleOutcome(CleanPovmError):
    """Construction undefined for the one-outcome POVM {identity}."""


class PreconditionViolated(CleanPovmError):
    """Witness-case preconditions not met by the supplied subspaces."""


class EpsilonSearchFailed(CleanPovmError):
    """No deformation parameter satisfied all certificates (tolerance pathology).

    ``diagnostics`` holds the last trial's verification report, if it got one.
    """

    def __init__(self, message, case_tag=None, diagnostics=None):
        super().__init__(message)
        self.case_tag = case_tag
        self.diagnostics = diagnostics or {}


class ConstructionFailed(CleanPovmError):
    """Witness construction produced an unverifiable certificate; indicates a bug
    or a tolerance pathology, never an expected outcome."""

    def __init__(self, message, case_tag=None, diagnostics=None):
        super().__init__(message)
        self.case_tag = case_tag
        self.diagnostics = diagnostics or {}
