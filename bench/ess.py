"""Bulk effective sample size (Vehtari, Gelman, Simpson, Carpenter & Buerkner
2021, arXiv:1903.08008).

Draws are split into half-chains, rank-normalized over all chains, and the
autocorrelation is summed with Geyer's initial monotone sequence, following
the estimator Stan uses. Rank normalization makes the estimate invariant to
monotone transforms of a parameter and finite for heavy-tailed posteriors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of ``x`` (lags 0..n-1), via FFT."""
    n = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), size, axis=1)[:, :n] / n


def ess(chains: np.ndarray) -> float:
    """ESS of (m, n) draws from the multi-chain autocorrelation.

    The lag-t autocorrelation combines within-chain autocovariance with the
    between-chain variance, so chains that disagree lower the estimate.
    """
    x = np.asarray(chains, dtype=float)
    m, n = x.shape
    if n < 4:
        raise ValueError("ess needs at least 4 draws per chain")
    acov = _autocov(x)
    chain_mean = x.mean(axis=1)
    chain_var = acov[:, 0] * n / (n - 1.0)
    w = chain_var.mean()
    var_plus = w * (n - 1.0) / n
    if m > 1:
        var_plus += chain_mean.var(ddof=1)
    if not var_plus > 0:
        return float(m * n)  # constant parameter
    acov_mean = acov.mean(axis=0)
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even, rho_odd = 1.0, 1.0 - (w - acov_mean[1]) / var_plus
    rho[1] = rho_odd
    # Geyer's initial positive sequence: sum pairs while their sum is positive
    s = 1
    while s < n - 4 and rho_even + rho_odd > 0:
        rho_even = 1.0 - (w - acov_mean[s + 1]) / var_plus
        rho_odd = 1.0 - (w - acov_mean[s + 2]) / var_plus
        if rho_even + rho_odd >= 0:
            rho[s + 1], rho[s + 2] = rho_even, rho_odd
        s += 2
    max_s = s
    if rho[max_s] > 0:
        rho[max_s + 1] = rho[max_s]  # variance reduction for antithetic chains
    # ... made monotone, so a noisy late pair cannot add to the sum
    for s in range(1, max_s - 2, 2):
        if rho[s + 1] + rho[s + 2] > rho[s - 1] + rho[s]:
            rho[s + 1] = rho[s + 2] = 0.5 * (rho[s - 1] + rho[s])
    total = m * n
    tau = -1.0 + 2.0 * rho[:max_s].sum() + rho[max_s + 1]
    tau = max(tau, 1.0 / math.log10(total))
    return float(total / tau)


def _split(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]], axis=0)


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def bulk_ess(chains: np.ndarray) -> float:
    """Bulk ESS of one parameter's (m, n) draws: split, rank-normalized ESS."""
    return ess(_rank_normalize(_split(np.asarray(chains, dtype=float))))


def min_bulk_ess(draws: np.ndarray) -> float:
    """Smallest bulk ESS over the parameters of (m, n, p) draws."""
    return min(bulk_ess(draws[:, :, j]) for j in range(draws.shape[2]))
