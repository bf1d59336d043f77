"""Monte Carlo inference for state-space models.

Particle filtering with unbiased likelihood and smoother estimators,
pseudo-marginal and delayed-acceptance Metropolis samplers, importance
sampling correction of approximate chains, multilevel/debiased
estimation for discretized diffusions, likelihood-free (ABC) inference
with post-hoc tolerance reduction, and chain diagnostics — all driven
by keyed random streams so every result is reproducible bit-for-bit,
including under process-pool parallelism.
"""

from .abc import (
    AbcCiReport,
    AbcTrace,
    PostCorrectionCurve,
    ToleranceAdaptResult,
    ToleranceAdaptState,
    abc_confidence_interval,
    post_correct,
    post_correct_curve,
    run_abc_mcmc,
    run_tolerance_adaptation,
)
from .diagnostics import (
    SeriesStats,
    compare_chains,
    format_comparison,
    series_stats,
)
from .errors import (
    ConfigError,
    CouplingSupportError,
    DegenerateEstimatorError,
    DegenerateWeightsError,
    EmptySelectionError,
    InitializationError,
    McisError,
    ModelEvaluationError,
    NumericalOverflowError,
    ParameterError,
    ResourceGuardError,
    SupportConditionError,
)
from .is_correction import (
    IsEstimate,
    IsWeightedSample,
    McmcIsResult,
    ParticleSmootherRunner,
    compute_is_weights,
    constant_one,
    effective_sample_size,
    estimate_asvar_decomposition,
    run_mcmc_is,
    self_normalized_estimate,
)
from .mcmc import (
    ChainTrace,
    GaussianPrior,
    JumpChain,
    LikelihoodEvaluation,
    Prior,
    ProposalState,
    UniformPrior,
    adapt_covariance,
    propose,
    run_approx_marginal_chain,
    run_delayed_acceptance,
    run_pmmh,
)
from .multilevel import (
    CostLedger,
    LevelSchedule,
    MlmcIsResult,
    debiased_increment,
    ire,
    run_mlmc_is,
    sample_level,
)
from .parallel import ordered_map, worker_count
from .rng import KeyedStreams, substream
from .smc import (
    DeltaEstimate,
    ParticleCloud,
    RESAMPLING_SCHEMES,
    SmootherEstimate,
    ratio_estimate,
    resample,
    run_delta_pf,
    run_particle_filter,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # random streams
    "KeyedStreams",
    "substream",
    # particle filtering
    "RESAMPLING_SCHEMES",
    "ParticleCloud",
    "SmootherEstimate",
    "DeltaEstimate",
    "resample",
    "run_particle_filter",
    "run_delta_pf",
    "ratio_estimate",
    # Metropolis samplers
    "Prior",
    "UniformPrior",
    "GaussianPrior",
    "ProposalState",
    "propose",
    "adapt_covariance",
    "ChainTrace",
    "JumpChain",
    "LikelihoodEvaluation",
    "run_pmmh",
    "run_delayed_acceptance",
    "run_approx_marginal_chain",
    # importance sampling correction
    "IsWeightedSample",
    "IsEstimate",
    "McmcIsResult",
    "ParticleSmootherRunner",
    "constant_one",
    "compute_is_weights",
    "self_normalized_estimate",
    "effective_sample_size",
    "estimate_asvar_decomposition",
    "run_mcmc_is",
    # multilevel / debiasing
    "LevelSchedule",
    "sample_level",
    "debiased_increment",
    "CostLedger",
    "ire",
    "MlmcIsResult",
    "run_mlmc_is",
    # likelihood-free inference
    "AbcTrace",
    "ToleranceAdaptState",
    "ToleranceAdaptResult",
    "PostCorrectionCurve",
    "AbcCiReport",
    "run_abc_mcmc",
    "run_tolerance_adaptation",
    "post_correct",
    "post_correct_curve",
    "abc_confidence_interval",
    # diagnostics
    "SeriesStats",
    "series_stats",
    "compare_chains",
    "format_comparison",
    # parallel execution
    "ordered_map",
    "worker_count",
    # errors
    "McisError",
    "ParameterError",
    "ModelEvaluationError",
    "NumericalOverflowError",
    "DegenerateWeightsError",
    "DegenerateEstimatorError",
    "CouplingSupportError",
    "SupportConditionError",
    "InitializationError",
    "EmptySelectionError",
    "ResourceGuardError",
    "ConfigError",
]
