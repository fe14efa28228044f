"""Differential-geometric checks for static potentials on 3-manifolds.

The package evaluates curvature of explicit metric charts, tests whether a
scalar field satisfies the static equations, and verifies the pointwise and
integral consequences: eigenvector identities of the Ricci tensor, growth
envelopes along geodesics, intrinsic geometry of zero sets, mass expansions,
and gradient flow behaviour near infinity.
"""

from .errors import (
    ConfigError,
    CriticalOnZeroSetError,
    DegenerateConformalError,
    DegenerateMetricError,
    DomainError,
    DomainExitError,
    IllConditionedFitError,
    IoError,
    MonotonicityError,
    MultiRootError,
    NoRootError,
    NonConvergentError,
    NotOrthogonalError,
    NotStaticError,
    PreconditionError,
    ResolutionError,
    SingularMetricError,
    StaticPotError,
    StepFailureError,
    UnboundedPotentialError,
    ZeroPotentialError,
)
from .geometry import (
    CurvatureBundle,
    MetricField,
    PerturbationTerm,
    Point3,
    christoffel_at,
    curvature_at,
    euclidean,
    generic_metric,
    perturbed_as,
    ricci_with_derivative,
    rotate_chart,
    sample_shell,
    schwarzschild,
)
from .potentials import (
    LinearPartFit,
    PotentialField,
    StaticResidual,
    affine,
    bochner_residual,
    expression_potential,
    fit_linear_part,
    require_static,
    schwarzschild_potential,
    static_residual,
)
from .identities import (
    ALL_DISTINCT,
    ALL_EQUAL,
    TWO_EQUAL,
    RicciEigenframe,
    ricci_eigenframe,
    tod_identity_residuals,
)
from .geodesics import (
    GeodesicTrajectory,
    GrowthBound,
    GrowthVerdict,
    growth_bound_check,
    integrate_geodesic,
    launch_state,
    solve_curve_ode,
)
from .quadrature import (
    SphereRule,
    aitken_limit,
    flux_integral,
    radial_panels,
    sphere_average,
    sphere_rule,
    volume_integral,
)
from .zeroset import (
    AnnulusRegion,
    ClosedComponent,
    GaussBonnetReport,
    Lift,
    SurfaceChart,
    SurfaceGraph,
    circle_turning,
    extract_closed_component,
    extract_zero_graph,
    gauss_bonnet_limit,
    zero_set_laws,
)
from .global_checks import (
    CONVERGE_CRITICAL,
    ESCAPE_TO_END,
    EXIT_BOUNDARY,
    UNRESOLVED,
    CapacityBalance,
    DecayModelResidual,
    FlowBudget,
    FlowTrace,
    MassFit,
    anisotropy_limit,
    capacity_balance_instance,
    conformal_double_scalar,
    curvature_decay_residual,
    fit_mass_expansion,
    flow_classify,
    integral_identity_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
