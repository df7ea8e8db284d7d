"""Value at Risk, n-th-order Expected Shortfall, Gini Shortfall and the
probability-equivalent-level multiplier (PELVE), with analytic, numeric and
sample-based estimators plus a Monte Carlo study harness."""

from .distributions import (
    DistributionModel,
    ExcessGPD,
    Exponential,
    GeneralizedPareto,
    Normal,
    Pareto,
    Uniform,
    cdf,
    quantile,
    sample,
    tail_quantile,
)
from .empirical import (
    OrderedSample,
    WeightVector,
    empirical_es_n,
    empirical_pelve,
    empirical_pelve_rows,
    empirical_var,
    es_n_weights,
    is_degenerate,
)
from .errors import (
    AlphaOutOfRange,
    BracketFailure,
    ExcessGPDBelowThreshold,
    ExcessGPDLevelBelowBase,
    InvalidParameter,
    KappaOutOfRange,
    LevelOutOfRange,
    MalformedCsv,
    NoClosedForm,
    NoFiniteEstimates,
    NonMonotoneDates,
    NonPositivePrice,
    OrderOutOfRange,
    PelveError,
    QuadratureNonConvergence,
    QuantileOverflow,
    SampleTooSmall,
)
from .montecarlo import StudyConfig, StudyResult, export_histogram, run_study
from .pelve_solver import (
    DEFAULT_C_TOL,
    PelveResult,
    karamata_ratio,
    pelve,
    pelve2_rv_limit,
    pelve_closed,
    pelve_exists,
    pelve_from_quantile,
)
from .risk_measures import (
    DEFAULT_REL_TOL,
    EsMethod,
    EsResult,
    GiniParams,
    es_n,
    es_n_closed,
    es_n_quadrature,
    gini_shortfall,
    harmonic_number,
    tail_gini,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "Uniform", "Exponential", "Normal", "Pareto", "GeneralizedPareto",
    "ExcessGPD", "DistributionModel", "cdf", "quantile", "tail_quantile",
    "sample",
    # risk measures
    "EsMethod", "EsResult", "GiniParams", "harmonic_number",
    "es_n", "es_n_closed", "es_n_quadrature", "tail_gini", "gini_shortfall",
    "DEFAULT_REL_TOL",
    # solver
    "PelveResult", "DEFAULT_C_TOL", "pelve", "pelve_exists", "pelve_closed",
    "pelve_from_quantile", "pelve2_rv_limit", "karamata_ratio",
    # empirical
    "OrderedSample", "WeightVector", "empirical_var", "es_n_weights",
    "empirical_es_n", "empirical_pelve", "empirical_pelve_rows", "is_degenerate",
    # monte carlo
    "StudyConfig", "StudyResult", "run_study", "export_histogram",
    # errors
    "PelveError", "LevelOutOfRange", "OrderOutOfRange", "InvalidParameter",
    "ExcessGPDBelowThreshold", "ExcessGPDLevelBelowBase", "NoClosedForm",
    "QuadratureNonConvergence", "QuantileOverflow", "BracketFailure", "AlphaOutOfRange",
    "KappaOutOfRange", "NoFiniteEstimates", "MalformedCsv",
    "NonPositivePrice", "NonMonotoneDates", "SampleTooSmall",
]
