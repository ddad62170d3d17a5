"""Construction and numerical verification of magnetohydrostatic equilibria.

Scalar and vector fields are immutable expression trees evaluated through
truncated Taylor jets (exact derivatives of any order).  On top of them the
package provides: a catalog of curl eigenfields and finite-pressure
equilibria with verified residuals, rigid-symmetry detection by sampled
SVD, locally adapted symmetry constructions, flux-function reductions and
their symmetry-free generalization, Lie-transport generation of new
solutions, and piecewise assemblies for the tangential boundary-value
setting.
"""

from .beltrami import (
    AdmissibleChart,
    BeltramiRecord,
    HarmonicPair,
    beltrami_residual,
    catalog as beltrami_catalog,
    from_harmonic_pair,
    verify_admissible,
    verify_h_invariance,
)
from .characteristics import (
    CharacteristicsProblem,
    InitialCurve,
    solve_characteristics,
)
from .checks import force_balance_residual, residual_report
from .clebsch import (
    ClebschSolution,
    catalog as pressure_catalog,
    make_clebsch,
    make_clebsch_family,
)
from .composite import (
    CompositeReport,
    PiecewiseField,
    assemble,
    verify_composite,
)
from .domains import Domain, SampleSet, sample
from .fields import (
    EvaluationError,
    Jet,
    ScalarField,
    VectorField,
    atan2,
    cos,
    cross,
    curl,
    divergence,
    dot,
    exp,
    grad,
    lie_derivative,
    log,
    sin,
    sqrt,
    substitute,
    vector,
    x,
    y,
    z,
)
from .gradshafranov import (
    GGSData,
    GSProblem,
    SymmetricChart,
    example_decomposition,
    ggse_check,
    gs_problem_from_plane,
    gs_reconstruct,
    gs_residual,
)
from .lieops import (
    LieOrbit,
    commutator_defect,
    h_symmetry_check,
    lie_generate,
)
from .parsing import parse_scalar, parse_univariate
from .reports import CheckStats, ConstructionError, ResidualReport
from .symmetry import (
    KillingParams,
    KillingReport,
    alpha_from_characteristics,
    example_symmetry,
    killing_scan,
    lie_euclidean,
    verify_local_symmetry,
)

__version__ = "0.1.0"
