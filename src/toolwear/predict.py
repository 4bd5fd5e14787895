"""Posterior-predictive wear-rate and tool-life surfaces, plus the Taylor baseline.

Predictions at new (v_c, f) settings use the Gaussian conditional of the GP:
``mean = mu + k*' Sigma^-1 (beta - mu)``,
``var = eta^2 + sigma_b^2 - k*' Sigma^-1 k*``, one per retained posterior draw.
Surfaces report the closed-form mean and sd of the mixture of these, which
integrates out hyperparameter uncertainty without sampling or any seed. The
kernel factors over the grid's v_c and f axes (Saatci 2011), so a draw costs one
K x K factor plus about nv*K^2*nf multiply-adds, not nv*nf*K exponentials and a
triangular solve, and its result does not depend on the BLAS thread count. Tool
life is reported through its log-normal moments.

The draws are checked once in the calling process. Each chain's share of a
surface is then summarized in its own :func:`~toolwear.sampler.fork_map` task
(count, mean, M2, summed variance, lowest variance before clamping) in blocks
of draws sized from the grid, with only the factor and the products per draw.
The blocks, then the chains, are pooled in order (Chan, Golub & LeVeque 1979).
The split follows the chains of the draws, so a surface's bits do not depend
on the worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import (HYPERPARAMETERS, DegenerateFitError, DomainError, ExtrapolationError,
                     InsufficientDataError, ValidationError)
from .kernel import Standardizer, control_sq_dists, jittered_cholesky, unit_kernel
# ToolLifeModel is imported for the benchmark's trace of predict.ToolLifeModel.logp_grad
from .model import ToolLifeModel, spread_hull  # noqa: F401
from .sampler import ChainSet, fork_map

DEFAULT_RESOLUTION = 20
DEFAULT_MARGIN = 0.10
# Draws per block of a surface: at most 64, with its two buffers within 8 MB
_BLOCK_DRAWS, _BLOCK_BYTES = 64, 8 << 20


@dataclass
class SurfaceGrid:
    """Regular grid over (v_c, f) with predictive mean and sd per node."""

    v_axis: np.ndarray
    f_axis: np.ndarray
    mean: np.ndarray  # shape (len(v_axis), len(f_axis))
    sd: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.mean.size


@dataclass
class TaylorFit:
    """Taylor tool-life law v_c * T^n = C, fitted on the log scale."""

    n: float
    C: float
    residual_sd: float


def _moments(chol, field, mu, prior_var, ev, ef):
    """Conditional (mean, var) at nodes (i, j) of cross-covariance ``ev[i] * ef[:, j]``.

    ``w`` stacks nv (K, K) @ (K, nf) products, which, unlike one flattened GEMM,
    give the same bits whatever the BLAS thread count. Variances are returned
    before any clamping at zero.
    """
    chol_inv, _ = dtrtri(chol, lower=1)
    w = np.einsum("kt,it->ikt", chol_inv, ev) @ ef
    var = prior_var - np.einsum("ikj,ikj->ij", w, w)
    return mu + (chol_inv @ np.subtract(field, mu)) @ w, var


def _pool(a, b):
    """The summary of two sets of draws pooled, each summary (count, mean, M2,
    sum of variances, lowest variance), by the pairwise update of Chan, Golub &
    LeVeque (1979)."""
    (na, mean_a, m2_a, var_a, low_a), (nb, mean_b, m2_b, var_b, low_b) = a, b
    n, delta = na + nb, mean_b - mean_a
    return (n, mean_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n),
            var_a + var_b, min(low_a, low_b))


def _mixture(chains: ChainSet, train, grid_spec, y=None) -> SurfaceGrid:
    """The grid of ``grid_spec`` over ``train`` (:func:`_grid`) with the mean
    and sd of the equal-weight mixture of the GP conditionals of every retained draw.

    Force draws (``y`` omitted) condition their own ``beta[1..K]`` around
    ``mu_beta``; life draws condition the observed log life ``y`` around
    ``mu_life`` and enter through their log-normal moments. ``train`` has one
    row per experiment; inputs are standardized on it. Draws lacking a needed
    column, carrying slopes for more experiments than ``train`` has, or
    non-finite in a column used raise :class:`ValidationError` here, before
    any worker starts; and a non-positive ``eta_sq``, ``rho1``, ``rho2`` or
    ``sigma_b_sq`` raises :class:`DomainError` naming the first one found.

    The mixture's variance is the average component variance plus the
    variance of the component means. Each chain's task sums its draws in
    blocks of :data:`_BLOCK_DRAWS`, fewer where two (B, nv, nf) buffers would
    pass :data:`_BLOCK_BYTES`; :func:`_pool` folds the blocks, then the chains,
    in order, and one warning reports the lowest variance clamped to 0.
    """
    v_axis, f_axis = _grid(train, grid_spec)
    train = np.atleast_2d(np.asarray(train, dtype=float))
    k = len(train)
    field = [f"beta[{i + 1}]" for i in range(k)] if y is None else []
    mu = "mu_beta" if y is None else "mu_life"
    names, needed = chains.param_names, (*field, mu, *HYPERPARAMETERS)
    missing = [n for n in needed if n not in names]
    extra = [n for n in names if n.startswith("beta[") and n not in field]
    if missing or extra:
        raise ValidationError(f"draws lack column {missing[0]!r}" if missing else
                              f"draws have column {extra[0]!r} beyond the {k} experiments given")
    cols = chains.draws[:, :, [names.index(n) for n in needed]]
    if not np.isfinite(cols).all():
        raise ValidationError("draws hold non-finite values")
    bad = np.argwhere(cols[:, :, -4:] <= 0)  # in chain, draw, column order
    if len(bad):
        raise DomainError(f"{HYPERPARAMETERS[bad[0][-1]]} must be strictly positive")
    std = Standardizer.fit(train)
    xv, xf = std.transform(train).T
    zv, zf = ((np.asarray(a, dtype=float) - m) / s
              for a, m, s in zip((v_axis, f_axis), std.mean, std.sd))
    dv2, df2 = control_sq_dists(train)  # (K, K) each
    av2, af2 = (zv[:, None] - xv) ** 2, (xf[:, None] - zf) ** 2  # (nv, K), (K, nf)
    size = max(1, min(_BLOCK_DRAWS, _BLOCK_BYTES // (16 * len(zv) * len(zf))))
    means, variances = np.empty((2, size, len(zv), len(zf)))

    def block_summary(rows):
        eta_sq, rho1, rho2, _ = rows[:, -4:].T[:, :, None, None]  # each (B, 1, 1)
        e_mat, ev = unit_kernel(rho1, rho2, dv2, df2), eta_sq * np.exp(-rho1 * av2)
        ef = np.exp(-rho2 * af2)
        mean, var = means[:len(rows)], variances[:len(rows)]
        for d, row in enumerate(rows):
            chol, _ = jittered_cholesky(e_mat[d], row[-4], row[-1])
            mean[d], var[d] = _moments(chol, row[:k] if y is None else y, row[-5],
                                       row[-4] + row[-1], ev[d], ef[d])
        low = var.min()
        np.maximum(var, 0.0, out=var)
        if y is not None:  # the life's log-normal moments
            mean, var = np.exp(mean + var / 2), np.expm1(var) * np.exp(2 * mean + var)
        centre = mean.mean(axis=0)
        return len(rows), centre, ((mean - centre) ** 2).sum(axis=0), var.sum(axis=0), low

    def chain_summary(c):
        return reduce(_pool, (block_summary(cols[c, i:i + size])
                              for i in range(0, cols.shape[1], size)))

    n, mean, m2, var_sum, low = reduce(_pool, fork_map(chain_summary, chains.n_chains))
    if low < -1e-10:
        warnings.warn(f"conditional variance fell to {low:.3e}; clamping to 0")
    return SurfaceGrid(v_axis=v_axis, f_axis=f_axis, mean=mean, sd=np.sqrt((var_sum + m2) / n))


def _grid(train, grid_spec):
    """The grid's v_c and f axes, over training controls that spread in both."""
    (v_lo, f_lo), (v_hi, f_hi) = spread_hull(train, "the surface is degenerate")
    if grid_spec is None:
        grid_spec = (v_lo, v_hi, DEFAULT_RESOLUTION, f_lo, f_hi, DEFAULT_RESOLUTION)
    v_min, v_max, nv, f_min, f_max, nf = grid_spec
    if not np.isfinite([v_min, v_max, f_min, f_max]).all():
        raise DomainError("grid bounds must be finite")
    if nv < 2 or nf < 2:
        raise DomainError("grid resolution must be >= 2 per axis")
    v_pad, f_pad = DEFAULT_MARGIN * (v_hi - v_lo), DEFAULT_MARGIN * (f_hi - f_lo)
    if (v_min < v_lo - v_pad or v_max > v_hi + v_pad
            or f_min < f_lo - f_pad or f_max > f_hi + f_pad):
        raise ExtrapolationError(
            "grid extends beyond the extrapolation margin "
            f"({DEFAULT_MARGIN:.0%} past the training hull); the fitted surface is "
            "not valid far outside the tested range"
        )
    return np.linspace(v_min, v_max, int(nv)), np.linspace(f_min, f_max, int(nf))


def surface(chains: ChainSet, train: np.ndarray, grid_spec=None) -> SurfaceGrid:
    """Predictive mean/sd of the slope field of a force channel's draws on a
    regular (v_c, f) grid; the grid does not record the channel.

    Each node reports the closed-form moments of the mixture of per-draw
    conditionals, with no sampling and no dependence on ``chains.seed``.
    ``grid_spec`` is (v_min, v_max, nv, f_min, f_max, nf); the default covers
    the training hull at 20 x 20 = 400 nodes. Grids reaching beyond
    :data:`DEFAULT_MARGIN` past the hull raise :class:`ExtrapolationError`,
    and training controls with no spread in v_c or f :class:`DegenerateFitError`.
    A spec (v, v, 2, f, f, 2) gives the moments at the single node (v, f).
    """
    return _mixture(chains, train, grid_spec)


# ---------------------------------------------------------------------------
# tool-life GP

def life_surface(
    chains: ChainSet,
    controls: np.ndarray,
    life: np.ndarray,
    grid_spec=None,
) -> SurfaceGrid:
    """Predictive tool-life surface (m) from life-GP draws, gridded as by :func:`surface`.

    Each draw's conditional life is log-normal, with mean ``exp(m + v/2)``
    and variance ``expm1(v) exp(2m + v)``; nodes report the closed-form
    moments of their mixture, with no sampling and no dependence on the seed.
    """
    return _mixture(chains, controls, grid_spec, np.log(np.asarray(life, dtype=float)))


# ---------------------------------------------------------------------------
# Taylor tool-life baseline

def fit_taylor(pairs) -> TaylorFit:
    """Least-squares fit of v_c * T^n = C on the log scale.

    ``pairs`` is a sequence of (v_c, T). Regresses log v_c on log T; the
    slope gives -n and the intercept log C.
    """
    arr = np.atleast_2d(np.asarray(pairs, dtype=float))
    if arr.shape[0] < 2:
        raise InsufficientDataError("need at least 2 (v_c, T) pairs")
    v, t = arr[:, 0], arr[:, 1]
    if not np.all((0 < arr) & (arr < np.inf)):
        raise DomainError("cutting speed and tool life must be finite and strictly positive")
    if np.unique(v).size < 2:
        raise DegenerateFitError("all cutting speeds equal; Taylor fit is degenerate")
    if np.unique(t).size < 2:
        raise DegenerateFitError("all tool lives equal; Taylor fit is degenerate")
    log_t, log_v = np.log(t), np.log(v)
    slope, intercept = np.polyfit(log_t, log_v, 1)
    resid = log_v - (intercept + slope * log_t)
    dof = len(v) - 2
    residual_sd = float(np.sqrt(resid @ resid / dof)) if dof > 0 else 0.0
    return TaylorFit(n=float(-slope), C=float(math.exp(intercept)), residual_sd=residual_sd)


def taylor_life(fit: TaylorFit, v_c: float) -> float:
    """Tool life T = (C / v_c)^(1/n) predicted by the Taylor law."""
    if v_c <= 0:
        raise DomainError("cutting speed must be positive")
    return (fit.C / v_c) ** (1.0 / fit.n)
