"""Squared-exponential autocovariance over the (cutting speed, feed rate) plane.

Off-diagonal covariance between experiments m and n is
``eta_sq * exp(-rho1*(V_m - V_n)^2 - rho2*(f_m - f_n)^2)``; the diagonal adds
the replicate-variance nugget ``sigma_b_sq``. Control inputs are z-scored
before kernel evaluation (see :class:`Standardizer`), so the length-scale
parameters are interpreted on the standardized scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import HYPERPARAMETERS, DomainError, NotPositiveDefiniteError

JITTER_START = 1e-10
JITTER_MAX = 1e-4
JITTER_TRIES = 1 + round(math.log10(JITTER_MAX / JITTER_START))  # tenfold steps


@dataclass(frozen=True)
class KernelConfig:
    """Hyperparameters: signal variance, per-axis inverse squared length scales, nugget."""

    eta_sq: float
    rho1: float
    rho2: float
    sigma_b_sq: float

    def __post_init__(self):
        for name in HYPERPARAMETERS:
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class Standardizer:
    """Z-scoring transform for (v_c, f) pairs, fitted on the training controls."""

    mean: np.ndarray
    sd: np.ndarray

    @classmethod
    def fit(cls, points: np.ndarray) -> "Standardizer":
        """Fitted on ``points``; a mean or sd that overflows raises :class:`DomainError`."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            mean = pts.mean(axis=0)
            sd = pts.std(axis=0)
        for name, m, s in zip(("v_c", "f"), mean, sd):
            if not np.isfinite((m, s)).all():
                raise DomainError(f"{name} mean or sd is not finite; cannot standardize")
        sd = np.where(sd > 0, sd, 1.0)  # single or coincident points
        return cls(mean=mean, sd=sd)

    def transform(self, points: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(np.asarray(points, dtype=float)) - self.mean) / self.sd


def _sq_dists(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared v_c and f distances between every pair of ``points``, each (K, K)."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    dv = x[:, 0:1] - x[None, :, 0]
    df = x[:, 1:2] - x[None, :, 1]
    return dv**2, df**2


def control_sq_dists(controls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared v_c and f distances between the training controls, z-scored on themselves."""
    x = Standardizer.fit(controls).transform(controls)
    return _sq_dists(x)


def unit_kernel(rho1, rho2, dv2, df2):
    """``exp(-rho1 dv2 - rho2 df2)``: the kernel at unit signal variance over
    squared v_c and f distances, elementwise; ``rho1`` and ``rho2`` broadcast."""
    return np.exp(-rho1 * dv2 - rho2 * df2)


def jittered_cholesky(
    e_mat: np.ndarray, eta_sq: float, sigma_b_sq: float
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``eta_sq * e_mat + (sigma_b_sq + jitter) * I``.

    ``e_mat`` is the unit-variance kernel matrix. Jitter starts at
    ``JITTER_START * eta_sq`` and grows tenfold per failed factorization up to
    ``JITTER_MAX * eta_sq``; near-duplicate design points can make the matrix
    numerically singular. Factors with LAPACK ``dpotrf`` (upper triangle
    zeroed). Returns the factor and the jitter on its diagonal, or raises
    :class:`NotPositiveDefiniteError`.
    """
    cov = eta_sq * e_mat
    jit = JITTER_START * eta_sq
    for _ in range(JITTER_TRIES):
        cov.flat[::len(cov) + 1] = eta_sq + sigma_b_sq + jit
        chol, info = dpotrf(cov, lower=1, clean=1)
        if info == 0:
            return chol, jit
        tried, jit = jit, jit * 10.0
    raise NotPositiveDefiniteError(f"covariance not positive definite at jitter={tried:g}")


def cholesky_cov(points: np.ndarray, cfg: KernelConfig) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the covariance of ``points`` under ``cfg``, the
    kernel off the diagonal and the nugget plus jitter on it; see
    :func:`jittered_cholesky`."""
    e_mat = unit_kernel(cfg.rho1, cfg.rho2, *_sq_dists(points))
    return jittered_cholesky(e_mat, cfg.eta_sq, cfg.sigma_b_sq)
