"""Online sparse linear regression by exponential weighting over R^d with
a heavy-tailed sparsity prior and data-driven clipping, together with a
bounds engine that evaluates and empirically verifies every regret and
risk guarantee of the scheme."""

from .batch import (
    BatchEstimator,
    empirical_max_sq,
    fit_fixed_design,
    fit_random_design,
    fit_remark15,
    psi_bound,
    risk,
    risk_bound_rhs,
)
from .bounds import (
    BoundReport,
    Comparator,
    SequenceStats,
    best_sparse_comparator,
    cor3_rhs,
    cor6_rhs,
    cor7_rhs,
    cor9_rhs,
    mc_allowance_from_replays,
    prop2_rhs,
    prop5_rhs,
    thm8_rhs,
    verify,
)
from .datagen import (
    Dictionary,
    DictionarySpec,
    NoiseFamily,
    ScenarioSpec,
    design_sampler,
    gen_individual_sequence,
    gen_stochastic,
)
from .forecasters import (
    ProtocolResult,
    RoundRecord,
    ridge_baseline,
    run_protocol,
    seqsew_adaptive,
    seqsew_auto,
    seqsew_fixed,
)
from .posterior import BackendConfig, FrozenCloud, PosteriorCloud
from .posterior import init as init_posterior
from .prior import (
    SparsityPrior,
    TranslatedPrior,
    kl_duality_check,
    kl_upper_bound,
    log_density,
    refined_sparsity_term,
    sample,
    translated_loss_identity_check,
)

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "BatchEstimator",
    "BoundReport",
    "Comparator",
    "Dictionary",
    "DictionarySpec",
    "FrozenCloud",
    "NoiseFamily",
    "PosteriorCloud",
    "ProtocolResult",
    "RoundRecord",
    "ScenarioSpec",
    "SequenceStats",
    "SparsityPrior",
    "TranslatedPrior",
    "best_sparse_comparator",
    "cor3_rhs",
    "cor6_rhs",
    "cor7_rhs",
    "cor9_rhs",
    "design_sampler",
    "empirical_max_sq",
    "fit_fixed_design",
    "fit_random_design",
    "fit_remark15",
    "gen_individual_sequence",
    "gen_stochastic",
    "init_posterior",
    "kl_duality_check",
    "kl_upper_bound",
    "log_density",
    "mc_allowance_from_replays",
    "prop2_rhs",
    "prop5_rhs",
    "psi_bound",
    "refined_sparsity_term",
    "ridge_baseline",
    "risk",
    "risk_bound_rhs",
    "run_protocol",
    "sample",
    "seqsew_adaptive",
    "seqsew_auto",
    "seqsew_fixed",
    "thm8_rhs",
    "translated_loss_identity_check",
    "verify",
]
