"""Sparse representations over redundant frames in complex space.

Vandermonde frames admit exact recovery of the sparsest representation
(weight up to half the ambient dimension) by syndrome decoding in
O(N^2) arithmetic; closed-form lower bounds relate sparsity, redundancy
and achievable distortion for *any* frame; and a seeded Monte-Carlo
harness validates the bounds empirically.
"""

from .bounds import (
    BRANCH_L0,
    BRANCH_LN,
    BRANCH_LNM1,
    BRANCH_MID,
    BoundInput,
    BoundReport,
    asymptotic_bound,
    asymptotic_kappa0,
    binary_entropy,
    cap_area_ratio,
    distortion_lower_bound,
    kappa_c,
    lambda_bound,
    log_binomial,
    rho_0,
    round_half_up,
)
from .decoder import (
    RESIDUAL_TOL,
    ROOT_ACCEPT_TOL,
    STATUS_OK,
    STATUS_RESIDUAL,
    STATUS_WEIGHT,
    DecodeOutcome,
    decode,
    find_error_locations,
    forney_values,
    outcome_to_json,
    solve_key_equation,
    syndromes,
)
from .errors import (
    BranchError,
    BudgetExceeded,
    ConfigMismatch,
    DegenerateDenominator,
    DegenerateSupport,
    DivideByZeroPoly,
    DomainError,
    DuplicateNode,
    LengthMismatch,
    NumericBreakdown,
    RootCountMismatch,
    TooFewNodes,
    VframeError,
    ZeroNode,
)
from .frames import (
    Frame,
    SparseRep,
    check_condition_I,
    default_nodes,
    frame_from_json,
    frame_id,
    frame_to_json,
    load_frame,
    make_gaussian_frame,
    make_general_frame,
    make_vandermonde_frame,
    null_vector_on_support,
    random_sparse_rep,
    save_frame,
    synthesize,
)
from .montecarlo import (
    BoundComparison,
    DistortionEstimate,
    EstimateConfig,
    SmddResult,
    bds_decode,
    compare_to_bound,
    estimate_distortion,
    estimate_from_samples,
    projection_residual,
    sample_rng,
    sample_sphere_batch,
    sample_uniform_sphere,
    smdd_exact,
    smdd_greedy,
    smdd_residuals,
)
from .poly import (
    poly_degree,
    poly_divmod,
    poly_eval,
    poly_trim,
)

__version__ = "0.1.0"
