"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`StaticPotError` so callers
(and the CLI suite runner) can catch the whole family at once.
"""


class StaticPotError(Exception):
    """Base class for all library errors."""


class DomainError(StaticPotError):
    """Point lies outside the chart domain of a metric family."""


class SingularMetricError(StaticPotError):
    """Metric matrix failed the positive-definiteness check at a point."""


class DegenerateMetricError(StaticPotError):
    """Generalized eigenproblem could not be solved against the metric."""


class NotOrthogonalError(StaticPotError):
    """Chart rotation matrix is not orthogonal."""


class ZeroPotentialError(StaticPotError):
    """Operation requires a nonvanishing potential at the evaluation point."""


class NotStaticError(StaticPotError):
    """Potential fails the static system residual gate at a required point."""


class NonConvergentError(StaticPotError):
    """Sphere-average sequence shows no stable limit over the sampled radii."""


class NoRootError(StaticPotError):
    """Root bracketing or certification failed while locating a zero set."""


class MultiRootError(StaticPotError):
    """More than one zero crossing found where a graph demands exactly one."""


class MonotonicityError(StaticPotError):
    """Graph direction derivative dropped below its required lower bound."""


class CriticalOnZeroSetError(StaticPotError):
    """|grad f| degenerated on a zero-set component; component aborted."""


class ResolutionError(StaticPotError):
    """Finite-difference stencil does not fit inside the sampled region."""


class StepFailureError(StaticPotError):
    """ODE integrator reported failure or lost its accuracy contract."""


class DomainExitError(StaticPotError):
    """Trajectory left the chart domain before reaching its target."""


class PreconditionError(StaticPotError):
    """Input data violates a documented hypothesis of the check."""


class UnboundedPotentialError(StaticPotError):
    """Potential has a nonzero linear part where a bounded one is required."""


class IllConditionedFitError(StaticPotError):
    """Least-squares system for an asymptotic fit is numerically unusable."""


class DegenerateConformalError(StaticPotError):
    """Conformal factor vanishes (or changes sign) at the evaluation point."""


class ConfigError(StaticPotError):
    """Configuration file or expression text failed validation."""


class IoError(StaticPotError):
    """Report or plot-data output could not be written."""
