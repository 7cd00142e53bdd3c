"""Low-rank matrix recovery and completion from Poisson count data.

Constrained/penalized maximum-likelihood estimation of a positive low-rank
matrix from compressive Poisson measurements or from Poisson counts of a
sampled subset of entries, solved by proximal gradient methods and a
singular-value-thresholding loop, with the associated projections, error
metrics and structural bound diagnostics.
"""

from .core import (
    CompletionObservations,
    CompressiveObservations,
    DegenerateInputError,
    FeasibleSet,
    MembershipReport,
    RateFloorError,
    ShapeMismatchError,
    SolverTrace,
    load_dense_csv,
    load_observations_csv,
    save_dense_csv,
    save_observations_csv,
    seeded_rng,
    validate_membership,
)
from .metrics import (
    BoundConstants,
    completion_upper_bound,
    hellinger_lower_bound_factor,
    hellinger_matrix,
    hellinger_poisson,
    kl_matrix,
    kl_poisson,
    recovery_bound_factors,
    squared_error,
)
from .objectives import (
    CompletionObjective,
    RecoveryObjective,
    completion_objective,
    quadratic_model,
    recovery_objective,
)
from .projections import (
    alternating_project,
    positive_rescale,
    project_box,
    project_l1_ball,
    project_nuclear_ball,
    svd_factors,
    svt,
)
from .sensing import (
    SensingEnsemble,
    apply_adjoint,
    apply_forward,
    build_sensing_ensemble,
    load_ensemble,
    sample_compressive_counts,
    save_ensemble,
    xi_p_value,
)
from .solvers import (
    SolverAbort,
    SolverConfig,
    accelerated_proximal_gradient,
    default_init,
    pmlsvt,
    proximal_gradient,
    select_lambda_default,
)
from .synthdata import (
    PatchLayout,
    WeakLqSpec,
    gen_exact_low_rank,
    gen_weak_lq,
    image_to_patch_matrix,
    load_count_csv,
    patch_matrix_to_image,
    rank_l_approx,
    read_pgm,
    sample_completion_observations,
    write_pgm,
)

__version__ = "0.1.0"
