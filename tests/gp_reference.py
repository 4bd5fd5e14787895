"""Dense reference for the GP layer: the covariance built entry by entry and the
Gaussian conditional taken through an explicit matrix inverse.

The package computes its conditionals from a Cholesky factor, per grid axis
(``predict._mixture``); these builders state the same quantities the plain way
(Rasmussen & Williams 2006, eqs. 2.25-2.26) for the tests to compare against.
"""

import numpy as np

from toolwear.kernel import JITTER_START, KernelConfig, unit_kernel


def _sq_dists(a, b):
    """Squared v_c and f distances between each point of ``a`` and each of ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    dv = a[:, 0:1] - b[None, :, 0]
    df = a[:, 1:2] - b[None, :, 1]
    return dv**2, df**2


def cross_cov(stars: np.ndarray, train: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """M x K covariance between prediction and training points; never nugget."""
    return cfg.eta_sq * unit_kernel(cfg.rho1, cfg.rho2, *_sq_dists(stars, train))


def cov_matrix(points: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """K x K training covariance that ``kernel.cholesky_cov`` factors first: kernel
    off the diagonal, nugget + ``JITTER_START * eta_sq`` on it."""
    cov = cross_cov(points, points, cfg)
    cov[np.diag_indices_from(cov)] = cfg.eta_sq + cfg.sigma_b_sq + JITTER_START * cfg.eta_sq
    return cov


def dense_conditional(beta, mu_beta, cfg, train, star, cov=None):
    """Gaussian conditional (mean, var) at the rows of ``star`` via an explicit
    inverse of ``cov`` (by default :func:`cov_matrix`); var is not clamped."""
    inv = np.linalg.inv(cov_matrix(train, cfg) if cov is None else cov)
    ks = cross_cov(np.atleast_2d(star), train, cfg)
    mean = mu_beta + ks @ inv @ (np.asarray(beta) - mu_beta)
    var = cfg.eta_sq + cfg.sigma_b_sq - np.einsum("ij,jk,ik->i", ks, inv, ks)
    return mean, var
