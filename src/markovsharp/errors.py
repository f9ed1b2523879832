"""Exception types shared across the package."""


class MarkovSharpError(Exception):
    """Base class for all package errors."""


class WeightError(MarkovSharpError, ValueError):
    """Invalid weight description or parameter out of range."""


class QuadratureError(MarkovSharpError):
    """A quadrature rule could not be built or is insufficient."""


class EigenError(MarkovSharpError):
    """Eigensolve or Sobolev factor failed.

    No convergence, B not positive definite, overflow, or a sharp constant
    whose extremal coefficients miss it by more than the residual tolerance.
    """


class HypothesisError(MarkovSharpError, ValueError):
    """A bound's hypothesis is violated by the supplied parameters."""
