"""Spectral time embeddings for multivariate forecasting.

Extracts dominant oscillatory modes from a signal matrix via a
Hankel-lifted mode decomposition, keeps the few leading conjugate
groups of the fit's energy order, and turns their eigenvalues into
per-timestep covariates that any forecaster can consume. Ships with a
windowed ridge baseline and residual diagnostics to measure the benefit.
"""

__version__ = "0.1.0"

from .dmd import (
    CepThreshold,
    DmdDecomposition,
    FixedRank,
    fit_dmd,
    mode_frequency,
    reconstruct,
    resolve_rank,
    vandermonde,
)
from .embedding import (
    TimeEmbedding,
    attach_covariates,
    build_embedding,
    export_embedding,
)
from .errors import ConfigError, DataError, DmdEmbedError, NumericalError
from .forecaster import (
    ForecastWindows,
    MetricsReport,
    RidgeModel,
    ZScore,
    evaluate,
    fit_ridge,
    make_windows,
    predict,
    split_boundaries,
    zscore_fit,
)
from .hankel import (
    HankelView,
    build_hankel,
    default_tau,
    gram,
    impute_linear,
)
from .linalg import dense_eig
from .pipeline import PipelineConfig, load_csv, run_pipeline
from .spdmd import SpdmdPath, SpdmdSolution, gamma_sweep
from .synthetic import SyntheticSpec, generate_synthetic

__all__ = [
    "__version__",
    "CepThreshold",
    "ConfigError",
    "DataError",
    "DmdDecomposition",
    "DmdEmbedError",
    "FixedRank",
    "ForecastWindows",
    "HankelView",
    "MetricsReport",
    "NumericalError",
    "PipelineConfig",
    "RidgeModel",
    "SpdmdPath",
    "SpdmdSolution",
    "SyntheticSpec",
    "TimeEmbedding",
    "ZScore",
    "attach_covariates",
    "build_embedding",
    "build_hankel",
    "default_tau",
    "dense_eig",
    "evaluate",
    "export_embedding",
    "fit_dmd",
    "fit_ridge",
    "gamma_sweep",
    "generate_synthetic",
    "gram",
    "impute_linear",
    "load_csv",
    "make_windows",
    "mode_frequency",
    "predict",
    "reconstruct",
    "resolve_rank",
    "run_pipeline",
    "split_boundaries",
    "vandermonde",
    "zscore_fit",
]
