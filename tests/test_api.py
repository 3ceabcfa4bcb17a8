"""The public surface: the names ``seqsew`` exports, and the parameter
names of the forecaster constructors that callers pass by keyword."""

import inspect

import pytest

import seqsew

PUBLIC_NAMES = [
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


def test_exported_names_are_pinned():
    assert sorted(seqsew.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    missing = [name for name in seqsew.__all__ if not hasattr(seqsew, name)]
    assert missing == []


@pytest.mark.parametrize(
    "name, parameters",
    [
        ("seqsew_fixed", ["dim", "B", "eta", "tau", "backend", "seed"]),
        ("seqsew_adaptive", ["dim", "tau", "backend", "seed", "clip_center"]),
        ("seqsew_auto", ["dim", "backend", "seed"]),
        ("ridge_baseline", ["dim", "regularization"]),
    ],
)
def test_forecaster_constructor_parameters(name, parameters):
    assert list(inspect.signature(getattr(seqsew, name)).parameters) == parameters
