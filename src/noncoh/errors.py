"""Exception taxonomy shared by all noncoh modules."""


class NoncohError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NoncohError):
    """Argument outside the mathematical domain of the operation."""


class DivergenceError(NoncohError):
    """Series evaluation requested outside its region of convergence."""


class NoConvergence(NoncohError):
    """Series failed to meet the truncation target within max_terms."""


class DegenerateInput(NoncohError):
    """Input distribution collapses to a single mass point."""


class CaseMismatch(NoncohError):
    """Closed-form case formula called outside its region of validity."""


class NearSingularAlpha(NoncohError):
    """Parameters too close to the removable singularities at alpha = 1/n."""


class ToleranceNotMet(NoncohError):
    """Adaptive quadrature exhausted its budget above the error target."""


class SolverFailure(NoncohError):
    """Capacity solver produced no admissible optimum."""


class ConsistencyError(NoncohError):
    """Internal cross-check failed (e.g. an entropy came out negative)."""
