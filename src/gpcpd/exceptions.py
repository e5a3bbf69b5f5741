"""Exception types shared across the package."""


class GpcpdError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(GpcpdError, ValueError):
    """Operands have structurally incompatible shapes."""


class DegenerateInputError(GpcpdError, ValueError):
    """Input is degenerate for the requested operation (e.g. zero tensor)."""


class FormatError(GpcpdError, ValueError):
    """A serialized tensor or factor file is malformed."""


class UnsupportedRankError(GpcpdError, ValueError):
    """Requested rank is outside the supported range (1 <= r <= n1)."""


class GenericityError(GpcpdError):
    """A genericity assumption failed (rank-deficient slice, zero weight, ...).

    Recoverable: the driver retries after random mode mixing.
    """


class ConditioningError(GpcpdError):
    """Persistent ill-conditioning that redraws could not fix."""


class DomainGuardViolation(GpcpdError):
    """A residual was evaluated outside its guarded domain."""


class InconsistentSystemError(GpcpdError):
    """The combined linear system has no solution at tolerance."""


class Stage2FailureError(GpcpdError):
    """All stage-2 optimization starts failed to reach a zero residual."""


class AssemblyError(GpcpdError):
    """Factor assembly failed (singular eigenmatrix, non-diagonalizable slice)."""


class DecompositionError(GpcpdError):
    """Top-level decomposition failed to produce any candidate factors."""
