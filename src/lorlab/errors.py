"""Exception types shared across the package."""

from typing import Optional


class LorlabError(Exception):
    """Base class for all errors raised by lorlab."""


class ChartDomainError(LorlabError):
    """A point left the coordinate chart a field is defined on."""


class SingularMetricError(LorlabError):
    """Metric determinant fell below the singularity threshold."""


class SignatureError(LorlabError):
    """Eigenvalue sign count disagrees with the declared signature."""


class NotPositiveDefiniteError(LorlabError):
    """A tensor that must be positive definite is not."""


class TangencyError(LorlabError):
    """Ray meets a boundary hypersurface tangentially."""


class NoLiftError(LorlabError):
    """Projected direction admits no lightlike (or unit) completion."""


class EscapeError(LorlabError):
    """Ray never met the target hypersurface within the parameter budget,
    its state turned non-finite on the way, or its refined hit on it was
    rejected; ``ray`` is the ray's batch row in the last two, else None."""

    def __init__(self, message: str, ray: Optional[int] = None):
        super().__init__(message)
        self.ray = ray


class ConjugatePointError(LorlabError):
    """Two-point shooting Jacobian is numerically singular."""


class ConvergenceError(LorlabError):
    """Iteration failed to converge within the allowed iterations."""


class PreconditionError(LorlabError):
    """An operation was called outside its stated preconditions."""

