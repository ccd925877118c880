"""Syndrome hashing over prime fields as a randomness extractor.

The package measures how close a hashed source is to uniform (smoothness,
divergence, distance), evaluates the closed-form guarantees that relate
output length to source entropy, and verifies those guarantees by exact
enumeration at small sizes and Monte Carlo sampling at larger ones.
"""

from .bounds import (
    BoundReport,
    collision_bound,
    collision_loss,
    collision_max_output,
    corollary_bounds,
    generic_loss,
    linf_bucket_bound,
    main_guarantee,
    max_output_length,
    nonlinear_bound_rhs,
    phi,
    rm_threshold,
    smoothing_bound_rhs,
    stirling2,
    two_point_renyi,
)
from .caps import DEFAULT_CAPS, Caps, CapExceeded
from .codes import (
    DEFAULT_SEED,
    CodeEnsembleSpec,
    LinearCode,
    codeword_indices,
    codewords,
    enumerate_all_codes,
    gaussian_binomial,
    rank_tuple_count,
    reed_muller_code,
    reed_muller_generator,
    rm_parity_check,
    sample_uniform_code,
)
from .distributions import (
    DensePmf,
    ProductBernoulli,
    RenyiOrder,
    Source,
    bernoulli_syndrome_excess,
    bernoulli_syndrome_norm,
    code_pmf,
    convolve,
    lp_norm,
    lp_smoothness,
    pushforward,
    renyi_divergence,
    renyi_entropy,
    tv_distance,
)
from .field import (
    FieldSpec,
    FqMatrix,
    FqVector,
    image_indices,
    index_to_vec,
    kernel_basis,
    mat_vec,
    q_powers,
    rank,
    rref,
    vec_to_index,
)
from .rm_lab import (
    RmExperimentSpec,
    RmResultRow,
    intrinsic_gap,
    parse_r_rule,
    rm_convergence_run,
    rm_divergence,
    rows_to_csv,
)
from .suite import ACCEPTANCE_NAMES, expected_failure, run_acceptance
from .verify import (
    CheckResult,
    check_balanced_identity,
    check_balanced_inequality,
    check_clarkson,
    check_norm_bound_lemma,
    check_p_balanced,
    check_projection_identity,
    check_proximity_conversions,
    check_rank_stratified,
    check_rearrangement_lemma,
    check_tuple_probability,
    exact_expected_smoothness,
    mc_bucket_linf,
    mc_expected_smoothness,
    negative_control_overdraw,
    negative_control_unbalanced,
    rank_stratified_sum,
)

__version__ = "0.1.0"
