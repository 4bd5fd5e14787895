"""Bayesian tool-wear analysis for turning experiments.

Library for designing cutting experiments with Sobol sequences, extracting
tool-contact phases from force traces via changepoint detection, fitting a
hierarchical linear wear model with a Gaussian-process prior on per-experiment
wear rates (NUTS/HMC), diagnosing convergence, and mapping posterior-predictive
wear-rate and tool-life surfaces over the (cutting speed, feed rate) plane.

The public names load on first use (PEP 562), so ``import toolwear`` and the
commands that do no linear algebra do not import ``scipy.linalg``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "design": ("DesignBounds", "DesignPoint", "augmentation_plan", "scale_design", "sobol_unit"),
    "diagnostics": ("PSRF_THRESHOLD", "FitSummary", "psrf", "summarize"),
    "errors": ("ToolwearError", "DomainError", "InsufficientDataError", "EmptyContactError",
               "NotPositiveDefiniteError", "InvalidDataError", "ExtrapolationError",
               "ValidationError", "DegenerateFitError", "SamplingError"),
    "io": ("RunConfig", "load_controls", "load_series", "load_trace"),
    "kernel": ("KernelConfig", "Standardizer", "cholesky_cov"),
    "model": ("ExperimentRecord", "ModelParams", "PriorConfig", "ForceChannelModel",
              "ToolLifeModel", "controls_array", "log_likelihood", "log_prior", "log_posterior"),
    "pipeline": ("PipelineResult", "run_pipeline"),
    "predict": ("SurfaceGrid", "TaylorFit", "surface", "life_surface", "fit_taylor",
                "taylor_life"),
    "sampler": ("ChainSet", "run_chains"),
    "segmentation": ("RawTrace", "Segmentation", "binary_segmentation", "default_penalty",
                     "extract_contact_phases"),
    "simulate": ("GroundTruth", "simulate_dataset", "simulate_raw_trace"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
