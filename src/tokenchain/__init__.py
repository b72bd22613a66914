"""Markov-chain view of next-token models.

Build the transition matrix induced by any next-token probability source
on the space of bounded-length token sequences, analyze its stationary
behavior and mixing, generate reference chain families, measure
estimation risks of in-context predictors, and evaluate the associated
concentration-bound constants.
"""

__version__ = "0.1.0"

from .states import VocabSpec, successors
from .chains import TransitionMatrix, StructureReport, build_qf, validate_structure
from .oracles import (
    Oracle,
    OracleError,
    TrainingDivergedError,
    ChainOracle,
    UniformOracle,
    RandomLogitOracle,
    NgramOracle,
    ToyModel,
    ToyModelConfig,
    apply_temperature,
    validate_distribution,
    fit_ngram,
    train_toy,
    parity_sequence,
    windowed_examples,
)
from .spectral import (
    StationaryResult,
    ConvergenceProfile,
    MixingReport,
    classify_states,
    stationary,
    doeblin_epsilon,
    envelope,
    convergence_profile,
    mixing_report,
    sweep_temperature,
)
from .generators import (
    ChainSpec,
    build_chain,
    random_chain,
    constrained_walk,
    polygonal_walk,
    clique_rim,
    simulate_process,
    discretize,
)
from .estimation import (
    Trajectory,
    FrequentistEstimator,
    NgramEstimator,
    RiskCurve,
    PowerLawFit,
    sample_trajectory,
    frequentist_estimate,
    tv_distance,
    kl_divergence,
    tv_risk,
    kl_risk,
    icl_risk_curve,
    fit_power_law,
)
from .bounds import (
    PretrainBoundParams,
    IclBoundParams,
    DepthBoundParams,
    ModelCard,
    BoundOverflowError,
    pretrain_constant,
    icl_constant,
    icl_gap,
    layer_bound,
    depth_constant,
    generalization_gap,
    approximation_error,
    sample_complexity,
    builtin_model_cards,
    predictor_table,
    mcdiarmid_tail,
    mcdiarmid_markov_tail,
    mc_verify,
    log_ratio_checks,
)

# the remote client, which loads socket and queue, is imported on first use
_REMOTE = ("RemoteOracleConfig", "RemoteOracle", "RemoteOracleError",
           "MockOracleServer")


def __getattr__(name):
    if name not in _REMOTE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import remote
    return getattr(remote, name)


# the classes and functions imported above, and the remote ones
__all__ = ["__version__", *(
    name for name, obj in list(globals().items())
    if getattr(obj, "__module__", "").startswith(__name__ + ".")), *_REMOTE]
