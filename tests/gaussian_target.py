"""Multivariate normal target for the sampler tests."""

from dataclasses import dataclass

import numpy as np


@dataclass
class GaussianTarget:
    """Multivariate normal test target (diagonal or full covariance)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        self._prec = np.linalg.inv(self.cov)

    @property
    def dim(self) -> int:
        return len(self.mean)

    def logp_grad(self, u):
        d = u - self.mean
        g = -self._prec @ d
        return 0.5 * float(d @ g), g
