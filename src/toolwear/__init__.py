"""Bayesian tool-wear analysis for turning experiments.

Library for designing cutting experiments with Sobol sequences, extracting
tool-contact phases from force traces via changepoint detection, fitting a
hierarchical linear wear model with a Gaussian-process prior on per-experiment
wear rates (NUTS/HMC), diagnosing convergence, and mapping posterior-predictive
wear-rate and tool-life surfaces over the (cutting speed, feed rate) plane.
"""

from .design import DesignBounds, DesignPoint, augmentation_plan, scale_design, sobol_unit
from .diagnostics import PSRF_THRESHOLD, FitSummary, psrf, summarize
from .errors import (
    DegenerateFitError,
    DomainError,
    EmptyContactError,
    ExtrapolationError,
    InsufficientDataError,
    InvalidDataError,
    NotPositiveDefiniteError,
    SamplingError,
    ToolwearError,
    UnsupportedDimensionError,
    ValidationError,
)
from .io import RunConfig, load_controls, load_series, load_trace
from .kernel import KernelConfig, Standardizer, cholesky_cov, cov_matrix, cross_cov
from .model import (
    ExperimentRecord,
    ForceChannelModel,
    ModelParams,
    PriorConfig,
    controls_array,
    log_likelihood,
    log_posterior,
    log_prior,
)
from .pipeline import PipelineResult, run_pipeline
from .predict import (
    SurfaceGrid,
    TaylorFit,
    ToolLifeModel,
    fit_taylor,
    fit_tool_life,
    gp_conditional,
    life_surface,
    surface,
    taylor_life,
)
from .sampler import ChainSet, run_chains
from .segmentation import (
    ExperimentSeries,
    RawTrace,
    Segmentation,
    binary_segmentation,
    default_penalty,
    extract_contact_phases,
)
from .simulate import GroundTruth, simulate_dataset, simulate_raw_trace

__version__ = "0.1.0"

__all__ = [
    "DesignBounds", "DesignPoint", "augmentation_plan", "scale_design", "sobol_unit",
    "PSRF_THRESHOLD", "FitSummary", "psrf", "summarize",
    "ToolwearError", "UnsupportedDimensionError", "DomainError", "InsufficientDataError",
    "EmptyContactError", "NotPositiveDefiniteError", "InvalidDataError",
    "ExtrapolationError", "ValidationError", "DegenerateFitError", "SamplingError",
    "RunConfig", "load_controls", "load_series", "load_trace",
    "KernelConfig", "Standardizer", "cross_cov", "cov_matrix", "cholesky_cov",
    "ExperimentRecord", "ModelParams", "PriorConfig", "ForceChannelModel",
    "controls_array",
    "log_likelihood", "log_prior", "log_posterior",
    "PipelineResult", "run_pipeline",
    "SurfaceGrid", "TaylorFit", "ToolLifeModel", "gp_conditional",
    "surface", "life_surface", "fit_tool_life", "fit_taylor", "taylor_life",
    "ChainSet", "run_chains",
    "RawTrace", "Segmentation", "ExperimentSeries", "binary_segmentation",
    "default_penalty", "extract_contact_phases",
    "GroundTruth", "simulate_dataset", "simulate_raw_trace",
]
