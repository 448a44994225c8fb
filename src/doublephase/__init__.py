"""Double-phase variable-exponent energies on periodic metric grids.

Modulars and Luxemburg norms for variable exponents, the two-branch
constraint-set classification of the energy, and a projected-descent solver
for the pair of non-negative critical points.
"""

from .grid import (
    Chart,
    MetricField,
    ScalarField,
    VectorField,
    band_filter,
    build_torus,
    grad_norm_g,
    gradient,
    integrate,
    pairwise_sum,
    pairwise_sum_rows,
    random_band_limited,
    substream,
)
from .fieldio import FieldFormatError, read_field, read_metric, write_field
from .spaces import (
    ConstantsEstimate,
    ExponentField,
    WeightField,
    conjugate_exponent,
    estimate_constants,
    holder_check,
    luxemburg_norm,
    modular,
    modular_norm_relations,
    weighted_modular,
    weighted_norm,
)
from .problem import (
    EnergyBreakdown,
    PowerNonlinearity,
    ProblemInstance,
    energy,
    gateaux,
    residual_gradient,
)
from .nehari import (
    NehariClass,
    NoRootError,
    ProjectionResult,
    Thresholds,
    project,
    psi,
    threshold_formulas,
    thresholds,
)
from .solver import (
    BranchError,
    ExperimentResult,
    SolutionReport,
    SolverConfig,
    SweepRow,
    minimize_on_branch,
    sweep,
    two_solution_experiment,
)

__version__ = "0.1.0"
