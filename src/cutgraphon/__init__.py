"""cutgraphon: cut-metric toolkit for step graphons and random graphs."""

from .core import (
    AdjacencyMatrix,
    Kernel,
    LatentSample,
    ProbMatrix,
    StepGraphon,
    blowup,
    empirical_graphon,
    l1_norm,
    load_matrix,
    load_stepgraphon,
    save_matrix,
    save_stepgraphon,
)
from .cutnorm import (
    CutNormResult,
    cut_norm_sandwich_check,
    inf1_norm,
    khintchine_lower_bound,
    matrix_cut_norm_exact,
    matrix_cut_norm_heuristic,
    q_subset_upper_bound,
    step_kernel_cut_norm_exact,
)
from .distance import (
    DistanceEstimate,
    Motif,
    delta_cut_lower,
    delta_exact_tiny,
    delta_upper,
    homomorphism_density,
)
from .errors import BudgetError, ValidationError
from .estimate import (
    BlockFit,
    SvtEstimate,
    edge_density,
    estimate_adjacency,
    estimate_mean,
    estimate_restricted_ls,
    estimate_svt,
    exact_restricted_ls,
    fit_to_prob_matrix,
)
from .experiments import (
    ExperimentConfig,
    RiskReport,
    RiskRow,
    default_model,
    emit,
    fit_rate_slope,
    parse_config,
    rate_formula,
    run_risk_experiment,
)
from .packing import (
    PackingFamily,
    VgCode,
    graphon_packing,
    kl_bound,
    latent_kl_exact,
    load_packing_family,
    matrix_packing,
    rademacher_block_matrix,
    save_packing_family,
    varshamov_gilbert_code,
)
from .regularity import (
    RegularityDecomposition,
    RegularityTerm,
    weak_regularity_approx,
)
from .sampling import (
    ModelSpec,
    sample_adjacency,
    sample_graph,
    sample_latents,
    sample_theta,
    sbm_spec,
    step_labels,
)

__version__ = "0.1.0"
