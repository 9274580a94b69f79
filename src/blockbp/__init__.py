"""Sparse block-model inference with penalized belief propagation.

Fits stochastic block models on sparse graphs by alternating sum-product
sweeps with closed-form parameter updates.  The penalized message variant
shrinks redundant clusters during inference, so a single run started at a
generous cluster budget both infers the posterior and selects the model
size; plain sweeps plus classification-likelihood criteria are available as
per-K baselines.
"""

from .graph import (
    EdgeListParseError,
    Graph,
    PlantedAssignment,
    generate_sbm,
    mask_pairs,
    parse_edge_list,
    serialize_edge_list,
)
from .model import (
    HessianBlocks,
    Moments,
    NaturalParams,
    Params,
    expected_joint_log_likelihood,
    hessian_blocks,
    joint_log_likelihood,
    m_step,
    mean_from_natural,
    natural_from_mean,
)
from .bp import (
    BeliefState,
    BPOptions,
    FitResult,
    compute_penalty,
    external_field,
    f2ab_fit,
    fabbp_run,
    fic_bp_fit,
    fixed_k_fit,
)
from .criteria import (
    CriterionReport,
    bethe_entropy,
    criterion_report,
    ell_tilde,
    exact_joint_marginal,
    ffic_lower_bound,
    joint_marginal_laplace,
    r1_tilde,
    r2_tilde,
)
from .spectral import spectral_init
from .evaluate import EvalReport, adjusted_rand_index, npll, run_synthetic_protocol

__all__ = [
    "BPOptions",
    "BeliefState",
    "CriterionReport",
    "EdgeListParseError",
    "EvalReport",
    "FitResult",
    "Graph",
    "HessianBlocks",
    "Moments",
    "NaturalParams",
    "Params",
    "PlantedAssignment",
    "adjusted_rand_index",
    "bethe_entropy",
    "compute_penalty",
    "criterion_report",
    "ell_tilde",
    "exact_joint_marginal",
    "expected_joint_log_likelihood",
    "external_field",
    "f2ab_fit",
    "fabbp_run",
    "fic_bp_fit",
    "ffic_lower_bound",
    "fixed_k_fit",
    "generate_sbm",
    "hessian_blocks",
    "joint_log_likelihood",
    "joint_marginal_laplace",
    "m_step",
    "mask_pairs",
    "mean_from_natural",
    "natural_from_mean",
    "npll",
    "parse_edge_list",
    "r1_tilde",
    "r2_tilde",
    "run_synthetic_protocol",
    "serialize_edge_list",
    "spectral_init",
]

__version__ = "0.1.0"
