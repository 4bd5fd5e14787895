"""Exception types shared across the package, and the names of the kernel
hyperparameters (see ``kernel.KernelConfig``), each refused unless strictly positive."""

HYPERPARAMETERS = ("eta_sq", "rho1", "rho2", "sigma_b_sq")


class ToolwearError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ToolwearError, ValueError):
    """Input value outside the mathematically valid domain."""


class InsufficientDataError(ToolwearError, ValueError):
    """Not enough data to perform the requested operation."""


class EmptyContactError(ToolwearError, ValueError):
    """No segment of the trace exceeds the contact threshold."""


class NotPositiveDefiniteError(ToolwearError, ValueError):
    """Covariance matrix failed Cholesky factorization after jitter escalation."""


class InvalidDataError(ToolwearError, ValueError):
    """Non-finite or otherwise invalid observation data."""


class ExtrapolationError(ToolwearError, ValueError):
    """Requested prediction grid extends too far outside the training hull."""


class ValidationError(ToolwearError, ValueError):
    """Malformed input file or configuration."""


class DegenerateFitError(ToolwearError, ValueError):
    """Regression inputs do not determine a unique fit."""


class SamplingError(ToolwearError, RuntimeError):
    """Sampler could not produce usable draws."""
