"""Posterior-predictive wear-rate and tool-life surfaces, plus the Taylor baseline.

Predictions at new (v_c, f) settings use the Gaussian conditional of the GP:
``mean = mu + k*' Sigma^-1 (beta - mu)``,
``var = eta^2 + sigma_b^2 - k*' Sigma^-1 k*``,
averaged over the retained posterior draws so hyperparameter uncertainty is
integrated out. Tool life is modeled on the log scale by a direct GP
regression (no per-experiment linear stage) and exponentiated for reporting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DegenerateFitError, DomainError, ExtrapolationError, InsufficientDataError
from .kernel import KernelConfig, Standardizer, cholesky_cov, cross_cov
from .model import (
    ExperimentRecord,
    PriorConfig,
    controls_array,
    gp_level,
    hc_inv_rho,
    hc_log_scale,
    normal_prior,
)
from .sampler import ChainSet, run_chains

DEFAULT_RESOLUTION = 20
DEFAULT_MARGIN = 0.10


@dataclass
class SurfaceGrid:
    """Regular grid over (v_c, f) with predictive mean and sd per node."""

    v_axis: np.ndarray
    f_axis: np.ndarray
    mean: np.ndarray  # shape (len(v_axis), len(f_axis))
    sd: np.ndarray
    channel: str

    @property
    def n_nodes(self) -> int:
        return self.mean.size

    def nodes(self) -> np.ndarray:
        """All (v_c, f) pairs in row-major node order, shape (n_nodes, 2)."""
        vv, ff = np.meshgrid(self.v_axis, self.f_axis, indexing="ij")
        return np.column_stack([vv.ravel(), ff.ravel()])


@dataclass
class TaylorFit:
    """Taylor tool-life law v_c * T^n = C, fitted on the log scale."""

    n: float
    C: float
    residual_sd: float


def gp_conditional(
    beta: np.ndarray,
    mu_beta: float,
    kernel: KernelConfig,
    train: np.ndarray,
    star: np.ndarray,
    jitter: float | None = None,
    chol: np.ndarray | None = None,
):
    """Gaussian conditional of the slope field at one or more new points.

    Points are used on the scale given (standardize beforehand when the
    kernel was fitted on standardized inputs). Variances are clamped at zero
    from below; a warning is emitted if a value falls below -1e-10 first.
    Returns scalars for a single star, arrays for a batch.
    """
    beta = np.asarray(beta, dtype=float)
    star = np.asarray(star, dtype=float)
    single = star.ndim == 1
    stars = np.atleast_2d(star)
    if chol is None:
        chol, _ = cholesky_cov(train, kernel, jitter=jitter)
    k_star = cross_cov(stars, train, kernel)  # (M, K)
    a = solve_triangular(chol, k_star.T, lower=True)            # (K, M)
    b = solve_triangular(chol, beta - mu_beta, lower=True)      # (K,)
    mean = mu_beta + a.T @ b
    var = kernel.eta_sq + kernel.sigma_b_sq - np.sum(a * a, axis=0)
    if np.any(var < -1e-10):
        warnings.warn(f"conditional variance fell to {var.min():.3e}; clamping to 0")
    var = np.maximum(var, 0.0)
    if single:
        return float(mean[0]), float(var[0])
    return mean, var


def _draw_params(chains: ChainSet, k_train: int):
    """Extract (beta, mu_beta, KernelConfig) arrays from pooled draws."""
    flat = chains.flat()
    names = chains.param_names
    idx = {n: i for i, n in enumerate(names)}
    beta_cols = [idx[f"beta[{i+1}]"] for i in range(k_train)]
    return (
        flat[:, beta_cols],
        flat[:, idx["mu_beta"]],
        flat[:, [idx["eta_sq"], idx["rho1"], idx["rho2"], idx["sigma_b_sq"]]],
    )


def _conditional_draws(chains, train, stars, seed_tag):
    """Sampled predictive values at ``stars`` for every retained draw.

    Returns (n_draws, M). Deterministic for a fixed ChainSet and stars.
    """
    train = np.atleast_2d(np.asarray(train, dtype=float))
    std = Standardizer.fit(train)
    x_train = std.transform(train)
    x_stars = std.transform(np.atleast_2d(stars))
    betas, mus, kernels = _draw_params(chains, len(train))
    rng = np.random.default_rng(np.random.SeedSequence([chains.seed & 0xFFFFFFFF, seed_tag]))
    out = np.empty((len(betas), len(x_stars)))
    for d in range(len(betas)):
        cfg = KernelConfig(*kernels[d])
        mean, var = gp_conditional(betas[d], mus[d], cfg, x_train, x_stars)
        out[d] = mean + np.sqrt(var) * rng.standard_normal(len(x_stars))
    return out


def predictive_draws(chains: ChainSet, train: np.ndarray, star: np.ndarray) -> np.ndarray:
    """Posterior-predictive sample of the slope at one new control point.

    One conditional draw per retained posterior draw, which integrates the
    GP identity over the posterior of all other parameters.
    """
    return _conditional_draws(chains, train, np.atleast_2d(star), seed_tag=1)[:, 0]


def _grid_axes(train, grid_spec, margin):
    train = np.atleast_2d(np.asarray(train, dtype=float))
    v_lo, v_hi = train[:, 0].min(), train[:, 0].max()
    f_lo, f_hi = train[:, 1].min(), train[:, 1].max()
    if grid_spec is None:
        grid_spec = (v_lo, v_hi, DEFAULT_RESOLUTION, f_lo, f_hi, DEFAULT_RESOLUTION)
    v_min, v_max, nv, f_min, f_max, nf = grid_spec
    if nv < 2 or nf < 2:
        raise DomainError("grid resolution must be >= 2 per axis")
    v_span, f_span = v_hi - v_lo, f_hi - f_lo
    if (v_min < v_lo - margin * v_span or v_max > v_hi + margin * v_span
            or f_min < f_lo - margin * f_span or f_max > f_hi + margin * f_span):
        raise ExtrapolationError(
            "grid extends beyond the extrapolation margin "
            f"({margin:.0%} past the training hull); the fitted surface is "
            "not valid far outside the tested range"
        )
    return np.linspace(v_min, v_max, int(nv)), np.linspace(f_min, f_max, int(nf))


def surface(
    chains: ChainSet,
    train: np.ndarray,
    grid_spec=None,
    channel: str = "Ft",
    margin: float = DEFAULT_MARGIN,
) -> SurfaceGrid:
    """Predictive mean/sd of the slope field on a regular (v_c, f) grid.

    ``grid_spec`` is (v_min, v_max, nv, f_min, f_max, nf); the default covers
    the training hull at 20 x 20 = 400 nodes. Grids reaching beyond
    ``margin`` past the hull raise :class:`ExtrapolationError`.
    """
    v_axis, f_axis = _grid_axes(train, grid_spec, margin)
    vv, ff = np.meshgrid(v_axis, f_axis, indexing="ij")
    stars = np.column_stack([vv.ravel(), ff.ravel()])
    draws = _conditional_draws(chains, train, stars, seed_tag=2)
    shape = (len(v_axis), len(f_axis))
    return SurfaceGrid(
        v_axis=v_axis, f_axis=f_axis,
        mean=draws.mean(axis=0).reshape(shape),
        sd=draws.std(axis=0, ddof=1).reshape(shape),
        channel=channel,
    )


# ---------------------------------------------------------------------------
# tool-life GP (no per-experiment linear stage)

class ToolLifeModel:
    """Marginal GP regression of log tool life on standardized (v_c, f).

    log life ~ MVN(mu * 1, eta^2 E + sigma_b^2 I), with the same kernel
    family and prior scales as the force model.
    """

    param_names = ["mu_life", "eta_sq", "rho1", "rho2", "sigma_b_sq"]
    dim = 5

    def __init__(self, controls, life, priors: PriorConfig | None = None):
        self.controls = np.atleast_2d(np.asarray(controls, dtype=float))
        life = np.asarray(life, dtype=float)
        if np.any(life <= 0):
            raise DomainError("tool life must be strictly positive")
        self.y = np.log(life)
        self.K = len(self.y)
        self.priors = priors or PriorConfig()
        self.standardizer = Standardizer.fit(self.controls)
        x = self.standardizer.transform(self.controls)
        self.dv2 = (x[:, 0:1] - x[None, :, 0]) ** 2
        self.df2 = (x[:, 1:2] - x[None, :, 1]) ** 2

    def logp_grad(self, u):
        pri = self.priors
        u = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u[1:])) > 300.0:
            return -math.inf, np.zeros_like(u)
        m, t_e, t_r1, t_r2, t_b = u
        eta_sq, rho1, rho2, sb_sq = map(math.exp, (t_e, t_r1, t_r2, t_b))
        grad = np.zeros(5)
        logp, d_r, grad[1:] = gp_level(self.y - m, eta_sq, rho1, rho2, sb_sq,
                                       self.dv2, self.df2)
        grad[0] = -float(np.sum(d_r))
        lp_m, dlp_m = normal_prior(m, pri.mu_beta_sd)
        logp += lp_m
        grad[0] += dlp_m
        for t, x, scale, slot in ((t_e, eta_sq, pri.eta_sq_scale, 1),
                                  (t_b, sb_sq, pri.sigma_b_sq_scale, 4)):
            lp_t, dlp_t = hc_log_scale(t, x, scale)
            logp += lp_t
            grad[slot] += dlp_t
        for t, rho, slot in ((t_r1, rho1, 2), (t_r2, rho2, 3)):
            lp_t, dlp_t = hc_inv_rho(t, rho, pri.inv_rho_scale)
            logp += lp_t
            grad[slot] += dlp_t
        return logp, grad

    def logp(self, u):
        return self.logp_grad(u)[0]

    def constrain(self, u):
        return np.array([u[0], *np.exp(u[1:])])


def fit_tool_life(
    records: list[ExperimentRecord],
    priors: PriorConfig | None = None,
    n_chains: int = 4,
    n_warmup: int = 1000,
    n_samples: int = 1000,
    seed: int = 0,
    grid_spec=None,
    margin: float = DEFAULT_MARGIN,
    max_tree_depth: int = 10,
    target_accept: float = 0.8,
) -> tuple[ChainSet, SurfaceGrid]:
    """Fit the life GP and materialize its predictive surface (metres).

    Life draws at each node are exp-transformed samples of the conditional
    log-life, so the surface reports the life scale directly.
    """
    with_life = [r for r in records if r.tool_life is not None]
    if len(with_life) < 3:
        raise InsufficientDataError(
            f"tool-life GP needs >= 3 experiments with tool_life, got {len(with_life)}"
        )
    controls = controls_array(with_life)
    life = np.array([r.tool_life for r in with_life], dtype=float)
    model = ToolLifeModel(controls, life, priors)
    chains = run_chains(model, n_chains=n_chains, n_warmup=n_warmup,
                        n_samples=n_samples, seed=seed,
                        max_tree_depth=max_tree_depth, target_accept=target_accept)
    return chains, life_surface(chains, controls, life, grid_spec=grid_spec, margin=margin)


def life_surface(
    chains: ChainSet,
    controls: np.ndarray,
    life: np.ndarray,
    grid_spec=None,
    margin: float = DEFAULT_MARGIN,
) -> SurfaceGrid:
    """Predictive tool-life surface (m) from life-GP draws.

    Conditional log-life is sampled per posterior draw and exponentiated, so
    the reported mean/sd are on the life scale.
    """
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    life = np.asarray(life, dtype=float)
    y = np.log(life)
    std = Standardizer.fit(controls)
    v_axis, f_axis = _grid_axes(controls, grid_spec, margin)
    vv, ff = np.meshgrid(v_axis, f_axis, indexing="ij")
    stars = np.column_stack([vv.ravel(), ff.ravel()])
    x_train = std.transform(controls)
    x_stars = std.transform(stars)
    flat = chains.flat()
    rng = np.random.default_rng(np.random.SeedSequence([chains.seed & 0xFFFFFFFF, 3]))
    draws = np.empty((len(flat), len(stars)))
    for d, row in enumerate(flat):
        cfg = KernelConfig(*row[1:])
        mean, var = gp_conditional(y, row[0], cfg, x_train, x_stars)
        draws[d] = np.exp(mean + np.sqrt(var) * rng.standard_normal(len(stars)))
    shape = (len(v_axis), len(f_axis))
    return SurfaceGrid(
        v_axis=v_axis, f_axis=f_axis,
        mean=draws.mean(axis=0).reshape(shape),
        sd=draws.std(axis=0, ddof=1).reshape(shape),
        channel="life",
    )


def predict_life(chains: ChainSet, records: list[ExperimentRecord], star) -> np.ndarray:
    """Posterior-predictive life draws (m) at one control point."""
    with_life = [r for r in records if r.tool_life is not None]
    controls = controls_array(with_life)
    life = np.array([r.tool_life for r in with_life], dtype=float)
    std = Standardizer.fit(controls)
    x_train = std.transform(controls)
    x_star = std.transform(np.atleast_2d(star))
    y = np.log(life)
    flat = chains.flat()
    rng = np.random.default_rng(np.random.SeedSequence([chains.seed & 0xFFFFFFFF, 4]))
    out = np.empty(len(flat))
    for d, row in enumerate(flat):
        cfg = KernelConfig(*row[1:])
        mean, var = gp_conditional(y, row[0], cfg, x_train, x_star[0])
        out[d] = math.exp(mean + math.sqrt(var) * rng.standard_normal())
    return out


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
    if np.any(v <= 0) or np.any(t <= 0):
        raise DomainError("cutting speed and tool life must be strictly positive")
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
