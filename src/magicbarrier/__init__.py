"""Metric distributions for recommender evaluation under uncertain user ratings.

User ratings are modelled as per-pair Gaussian random variables; every
accuracy metric computed from them (RMSE, MAE) then carries a distribution of
its own. The package estimates those distributions two ways, by Monte-Carlo
convolution (:mod:`magicbarrier.mc`) and by closed-form Gaussian error
propagation (:mod:`magicbarrier.approx`), and ships the apparatus to compare
and act on them (:mod:`magicbarrier.analysis`): interference probability
against the Magic Barrier, the confidence-interval improvement criterion,
sensitivity sweeps, and ranking stability studies.
"""

__version__ = "0.1.0"

from .core import (
    DataFormatError,
    DegenerateInputError,
    GaussianSummary,
    MagicBarrierError,
    MetricKind,
    PairTable,
    PredictorVector,
    ScaleSpec,
    gaussian_cdf,
    variance_bounds,
)
from .ingest import (
    KSResult,
    RatingTensor,
    fit_exponential,
    fit_pair_gaussians,
    filter_nonvanishing,
    ks_normality_test,
    parse_tensor,
    sample_variances,
)
from .mc import (
    MCConfig,
    MetricSample,
    optimal_predictors,
    simulate_metric,
    simulate_metric_shared,
)
from .approx import (
    mae_summary_from_offsets,
    magic_barrier_rmse,
    rmse_summary_from_offsets,
)
from .analysis import (
    DiscreteDensity,
    ImprovementDecision,
    improvement_criterion,
    interference_probability,
    jsd,
    kl_divergence,
    rank_distribution,
    ranking_error_curves,
    sensitivity_sweep,
)

__all__ = [
    "__version__",
    "MagicBarrierError",
    "DataFormatError",
    "DegenerateInputError",
    "ScaleSpec",
    "PairTable",
    "PredictorVector",
    "GaussianSummary",
    "MetricKind",
    "variance_bounds",
    "gaussian_cdf",
    "RatingTensor",
    "KSResult",
    "parse_tensor",
    "fit_pair_gaussians",
    "filter_nonvanishing",
    "ks_normality_test",
    "fit_exponential",
    "sample_variances",
    "MCConfig",
    "MetricSample",
    "optimal_predictors",
    "simulate_metric",
    "simulate_metric_shared",
    "magic_barrier_rmse",
    "rmse_summary_from_offsets",
    "mae_summary_from_offsets",
    "DiscreteDensity",
    "kl_divergence",
    "jsd",
    "interference_probability",
    "ImprovementDecision",
    "improvement_criterion",
    "sensitivity_sweep",
    "ranking_error_curves",
    "rank_distribution",
]
