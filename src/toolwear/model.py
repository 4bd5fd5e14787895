"""Hierarchical force model: per-experiment linear wear trends tied by a GP.

Likelihood: F_ij = alpha_i + beta_i * L_ij + eps_ij with eps_ij ~ N(0, sigma_i^2).
The slopes beta get a GP prior over the standardized (v_c, f) plane with
constant mean mu_beta; the intercepts alpha are regularized by a shared
normal; hyperparameters carry Half-Cauchy / normal priors on the scales
stated in :class:`PriorConfig`.

Positive quantities are handled internally on the log scale (with the
log-Jacobian terms included in the prior), so densities and gradients are
defined over a fully unconstrained vector. The slopes are carried directly;
the long force series identify them strongly. The likelihood depends on each
series only through per-experiment sufficient statistics computed once, so
one density evaluation costs the same whatever the series lengths. The GP
level and the hyperprior terms are shared with the tool-life model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtri, dtrtrs

from .errors import InsufficientDataError, InvalidDataError
from .kernel import JITTER_START, KernelConfig, Standardizer, jittered_cholesky

LOG_2PI = math.log(2.0 * math.pi)
LOG_2_OVER_PI = math.log(2.0 / math.pi)


@dataclass
class ExperimentRecord:
    """One turning test: control settings, per-channel force series, optional life."""

    id: int
    v_c: float
    f: float
    length: np.ndarray | None = None
    forces: dict[str, np.ndarray] = field(default_factory=dict)
    tool_life: float | None = None

    def __post_init__(self):
        if self.length is not None:
            self.length = np.asarray(self.length, dtype=float)
            if len(self.length) < 2:
                raise InsufficientDataError(f"experiment {self.id}: need >= 2 measurements")
            if not np.all(np.diff(self.length) > 0):
                raise InvalidDataError(f"experiment {self.id}: L must be strictly increasing")
            self.forces = {k: np.asarray(v, dtype=float) for k, v in self.forces.items()}
            for k, v in self.forces.items():
                if len(v) != len(self.length):
                    raise InvalidDataError(f"experiment {self.id}: channel {k} length mismatch")
                if not np.all(np.isfinite(v)):
                    raise InvalidDataError(f"experiment {self.id}: non-finite force in {k}")

    @property
    def control(self) -> np.ndarray:
        return np.array([self.v_c, self.f])


@dataclass
class ModelParams:
    """Full latent state for one force channel (constrained scale)."""

    alpha: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    mu_alpha: float
    sigma_alpha: float
    mu_beta: float
    kernel: KernelConfig

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if np.any(self.sigma <= 0) or self.sigma_alpha <= 0:
            raise InvalidDataError("scale parameters must be strictly positive")


@dataclass(frozen=True)
class PriorConfig:
    """Scales of the weakly informative priors (on variances, as stated)."""

    sigma_sq_scale: float = 10.0      # sigma_i^2 ~ Half-Cauchy(0, 10)
    mu_alpha_sd: float = 10.0         # mu_alpha ~ N(0, 10^2)
    sigma_alpha_sq_scale: float = 10.0
    mu_beta_sd: float = 10.0
    sigma_b_sq_scale: float = 5.0
    eta_sq_scale: float = 5.0
    inv_rho_scale: float = 5.0        # rho_k^{-1} ~ Half-Cauchy(0, 5)


def half_cauchy_logpdf(x: float, scale: float) -> float:
    """log of 2 / (pi * s * (1 + (x/s)^2)) for x > 0."""
    return math.log(2.0) - math.log(math.pi) - math.log(scale) - math.log1p((x / scale) ** 2)


def hc_log_scale(t, scale, sign):
    """exp(sign * t) ~ Half-Cauchy(scale) with the log-Jacobian, elementwise:
    (log density, d/dt).

    ``sign`` is +1 for a prior on a variance exp(t) and -1 for a prior on an
    inverse length scale 1/rho with rho = exp(t).
    """
    st = sign * t
    z2 = (np.exp(st) / scale) ** 2
    return LOG_2_OVER_PI - np.log(scale) - np.log1p(z2) + st, sign * (1.0 - z2) / (1.0 + z2)


def normal_prior(m: float, sd: float) -> tuple[float, float]:
    """m ~ N(0, sd^2): (log density, d/dm)."""
    return -0.5 * (LOG_2PI + 2.0 * math.log(sd)) - 0.5 * m * m / sd**2, -m / sd**2


def gp_level(r, eta_sq, rho1, rho2, sigma_b_sq, dv2, df2):
    """log N(r | 0, eta_sq E + sigma_b_sq I) with E = exp(-rho1 dv2 - rho2 df2).

    Returns ``(logp, d logp / dr, d logp / d log(eta_sq, rho1, rho2, sigma_b_sq))``.
    The hyperparameter gradient is the adjoint form 1/2 tr((v v' - Sigma^-1)
    dSigma/dtheta) with v = Sigma^-1 r (Rasmussen & Williams 2006, eq. 5.9):
    one adjoint matrix shared by the four parameters. The jitter added to the
    diagonal by :func:`jittered_cholesky` scales with eta_sq and is
    differentiated as such. The solves and Sigma^-1 call LAPACK directly.
    """
    e_mat = np.exp(-rho1 * dv2 - rho2 * df2)
    chol, jit = jittered_cholesky(e_mat, eta_sq, sigma_b_sq)
    q, _ = dtrtrs(chol, r, lower=1)
    v, _ = dtrtrs(chol, q, lower=1, trans=1)
    logp = -float(np.log(chol.diagonal()).sum()) - 0.5 * float(q @ q) - 0.5 * len(r) * LOG_2PI
    # Sigma^-1 = C^-T C^-1 from the triangular inverse: unlike dpotri, whose
    # OpenBLAS result changes with the thread count, this keeps draws
    # independent of it
    chol_inv, _ = dtrtri(chol, lower=1)
    s_adj = 0.5 * (v[:, None] * v - chol_inv.T @ chol_inv)
    es = e_mat * s_adj
    tr_s = float(s_adj.trace())
    d_theta = np.array([
        eta_sq * float(es.sum()) + jit * tr_s,
        -rho1 * eta_sq * float(np.vdot(dv2, es)),
        -rho2 * eta_sq * float(np.vdot(df2, es)),
        sigma_b_sq * tr_s,
    ])
    return logp, -v, d_theta


def controls_array(records: list[ExperimentRecord]) -> np.ndarray:
    return np.array([[r.v_c, r.f] for r in records], dtype=float)


# ---------------------------------------------------------------------------
# density over the unconstrained space

class ForceChannelModel:
    """Log-posterior and analytic gradient for one force channel.

    Unconstrained layout (K experiments, dim = 3K + 7)::

        [ alpha(K) | beta(K) | log sigma_i^2 (K) |
          mu_alpha | log sigma_alpha^2 | mu_beta |
          log eta^2 | log rho1 | log rho2 | log sigma_b^2 ]

    The likelihood runs on per-experiment sufficient statistics taken once
    from the series about their means (count, mean length, mean force, the
    length sum of squares, the least-squares slope and its residual sum of
    squares), so a density evaluation costs O(K^2) whatever the series
    lengths.
    """

    def __init__(
        self,
        records: list[ExperimentRecord],
        channel: str = "Ft",
        priors: PriorConfig | None = None,
        standardizer: Standardizer | None = None,
    ):
        if channel not in {"Ft", "Ff", "Fp"}:
            raise InvalidDataError(f"unknown channel {channel!r}")
        self.records = records
        self.channel = channel
        self.priors = priors or PriorConfig()
        self.K = K = len(records)
        if self.K < 1:
            raise InvalidDataError("need at least one experiment")

        # centered about the experiment means, sum(r^2) = rss + s_ll (b_hat - beta)^2
        # + n d^2 with d = f_bar - alpha - beta l_bar: no cancellation at force offsets
        sums = []
        for rec in records:
            length, force = rec.length, rec.forces[channel]
            dl, df = length - length.mean(), force - force.mean()
            s_ll = float(dl @ dl)
            b_hat = float(df @ dl) / s_ll
            res = df - b_hat * dl
            sums.append((len(length), length.mean(), force.mean(), s_ll, b_hat, res @ res))
        sums = np.array(sums, dtype=float)
        if not np.all(np.isfinite(sums)):
            raise InvalidDataError("non-finite measurements")
        # contiguous rows: a strided view takes another BLAS path in `n @ t_s`,
        # so a pickled or copied model would differ in the last bits
        self.n, self.l_bar, self.f_bar, self.s_ll, self.b_hat, self.rss = \
            np.ascontiguousarray(sums.T)
        self._log_norm = -0.5 * (self.n.sum() + K) * LOG_2PI  # likelihood and alpha level

        self.standardizer = standardizer or Standardizer.fit(controls_array(records))
        x = self.standardizer.transform(controls_array(records))
        self.dv2 = (x[:, 0:1] - x[None, :, 0]) ** 2
        self.df2 = (x[:, 1:2] - x[None, :, 1]) ** 2

        # Half-Cauchy terms on u[idx]: the K + 3 variances, then the inverse
        # length scales
        pri = self.priors
        names = self.param_names
        self._hc_idx = np.r_[2 * K:3 * K, [names.index(n) for n in (
            "sigma_alpha", "eta_sq", "sigma_b_sq", "rho1", "rho2")]]
        self._hc_sign = np.r_[np.ones(K + 3), -1.0, -1.0]
        self._hc_scale = np.r_[np.full(K, pri.sigma_sq_scale), pri.sigma_alpha_sq_scale,
                               pri.eta_sq_scale, pri.sigma_b_sq_scale,
                               pri.inv_rho_scale, pri.inv_rho_scale]

    # -- layout ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return 3 * self.K + 7

    @property
    def param_names(self) -> list[str]:
        K = self.K
        names = [f"alpha[{i+1}]" for i in range(K)]
        names += [f"beta[{i+1}]" for i in range(K)]
        names += [f"sigma[{i+1}]" for i in range(K)]
        names += ["mu_alpha", "sigma_alpha", "mu_beta",
                  "eta_sq", "rho1", "rho2", "sigma_b_sq"]
        return names

    def _split(self, u: np.ndarray):
        K = self.K
        return (u[:K], u[K:2 * K], u[2 * K:3 * K], u[3 * K], u[3 * K + 1],
                u[3 * K + 2], u[3 * K + 3], u[3 * K + 4], u[3 * K + 5], u[3 * K + 6])

    # -- density + gradient --------------------------------------------------

    def logp_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """Joint unnormalized log density and its gradient at ``u``."""
        K = self.K
        u = np.asarray(u, dtype=float)
        # overflow guard: far-out leapfrog excursions land here and must read
        # as -inf energy rather than raise
        if not np.isfinite(u).all() or np.abs(u[2 * K:]).max() > 300.0:
            return -math.inf, np.zeros_like(u)
        a, beta, t_s = u[:K], u[K:2 * K], u[2 * K:3 * K]
        m_a, t_a, m_b, t_e, t_r1, t_r2, t_b = u[3 * K:].tolist()
        inv_s = np.exp(-t_s)  # 1 / sigma_i^2
        sa_sq = math.exp(t_a)
        grad = np.empty_like(u)

        # likelihood, from the per-experiment sums
        d = self.f_bar - a - beta * self.l_bar
        db = self.b_hat - beta
        ssr_s = (self.rss + self.s_ll * db * db + self.n * d * d) * inv_s
        nd_s = self.n * d * inv_s
        logp = self._log_norm - 0.5 * float(self.n @ t_s + ssr_s.sum())
        grad[2 * K:3 * K] = 0.5 * (ssr_s - self.n)

        # alpha level: alpha_i ~ N(mu_alpha, sigma_alpha^2)
        da = a - m_a
        da2 = float(da @ da) / sa_sq
        logp -= 0.5 * (K * t_a + da2)
        grad[:K] = nd_s - da / sa_sq
        grad[3 * K] = float(da.sum()) / sa_sq
        grad[3 * K + 1] = 0.5 * (da2 - K)

        # GP level on the slopes
        lp_gp, d_r, grad[3 * K + 3:] = gp_level(
            beta - m_b, math.exp(t_e), math.exp(t_r1), math.exp(t_r2), math.exp(t_b),
            self.dv2, self.df2)
        grad[K:2 * K] = self.s_ll * db * inv_s + nd_s * self.l_bar + d_r
        grad[3 * K + 2] = -float(d_r.sum())

        # hyperpriors (Half-Cauchy on variances and inverse length scales,
        # normals on means), with the log-scale Jacobians folded in
        lp_hc, dlp_hc = hc_log_scale(u[self._hc_idx], self._hc_scale, self._hc_sign)
        grad[self._hc_idx] += dlp_hc
        lp_ma, dlp_ma = normal_prior(m_a, self.priors.mu_alpha_sd)
        lp_mb, dlp_mb = normal_prior(m_b, self.priors.mu_beta_sd)
        grad[3 * K] += dlp_ma
        grad[3 * K + 2] += dlp_mb
        return logp + lp_gp + float(lp_hc.sum()) + lp_ma + lp_mb, grad

    def logp(self, u: np.ndarray) -> float:
        return self.logp_grad(u)[0]

    # -- transforms ----------------------------------------------------------

    def constrain(self, u: np.ndarray) -> np.ndarray:
        """Map an unconstrained state to the reported constrained vector."""
        a, beta, t_s, m_a, t_a, m_b, t_e, t_r1, t_r2, t_b = self._split(u)
        return np.concatenate([
            a, beta, np.exp(0.5 * t_s),
            [m_a, math.exp(0.5 * t_a), m_b,
             math.exp(t_e), math.exp(t_r1), math.exp(t_r2), math.exp(t_b)],
        ])

    def unconstrain(self, params: ModelParams) -> np.ndarray:
        """Inverse of :meth:`constrain`: the unconstrained state of ``params``."""
        k = params.kernel
        return np.concatenate([
            params.alpha, params.beta, 2.0 * np.log(params.sigma),
            [params.mu_alpha, 2.0 * math.log(params.sigma_alpha), params.mu_beta,
             math.log(k.eta_sq), math.log(k.rho1), math.log(k.rho2),
             math.log(k.sigma_b_sq)],
        ])

    def params_from_constrained(self, c: np.ndarray) -> ModelParams:
        K = self.K
        return ModelParams(
            alpha=c[:K], beta=c[K:2 * K], sigma=c[2 * K:3 * K],
            mu_alpha=c[3 * K], sigma_alpha=c[3 * K + 1], mu_beta=c[3 * K + 2],
            kernel=KernelConfig(c[3 * K + 3], c[3 * K + 4], c[3 * K + 5], c[3 * K + 6]),
        )


# ---------------------------------------------------------------------------
# standalone density functions on the constrained scale

def log_likelihood(params: ModelParams, records: list[ExperimentRecord], channel: str) -> float:
    """Sum of Gaussian log densities of the per-experiment linear fits."""
    total = 0.0
    for i, rec in enumerate(records):
        f = rec.forces[channel]
        if not np.all(np.isfinite(f)):
            raise InvalidDataError(f"experiment {rec.id}: non-finite force data")
        r = f - params.alpha[i] - params.beta[i] * rec.length
        s2 = params.sigma[i] ** 2
        total += -0.5 * len(f) * (LOG_2PI + math.log(s2)) - 0.5 * float(r @ r) / s2
    return total


def log_prior(
    params: ModelParams,
    records: list[ExperimentRecord],
    priors: PriorConfig | None = None,
    standardizer: Standardizer | None = None,
) -> float:
    """GP density of the slopes + alpha regularization + hyperpriors.

    Includes the log-Jacobian terms of the internal log-scale parameterization
    of the positive parameters, so ``log_likelihood + log_prior`` equals the
    sampler target exactly.
    """
    pri = priors or PriorConfig()
    K = len(records)
    controls = controls_array(records)
    std = standardizer or Standardizer.fit(controls)
    x = std.transform(controls)
    ker = params.kernel

    dv2 = (x[:, 0:1] - x[None, :, 0]) ** 2
    df2 = (x[:, 1:2] - x[None, :, 1]) ** 2
    cov = ker.eta_sq * np.exp(-ker.rho1 * dv2 - ker.rho2 * df2)
    cov[np.diag_indices_from(cov)] = ker.eta_sq + ker.sigma_b_sq + JITTER_START * ker.eta_sq
    chol = np.linalg.cholesky(cov)
    q = solve_triangular(chol, params.beta - params.mu_beta, lower=True)
    total = -float(np.sum(np.log(np.diag(chol)))) - 0.5 * float(q @ q) - 0.5 * K * LOG_2PI

    da = params.alpha - params.mu_alpha
    sa_sq = params.sigma_alpha ** 2
    total += -0.5 * K * (LOG_2PI + math.log(sa_sq)) - 0.5 * float(da @ da) / sa_sq

    for s2 in params.sigma ** 2:
        total += half_cauchy_logpdf(s2, pri.sigma_sq_scale) + math.log(s2)
    total += half_cauchy_logpdf(sa_sq, pri.sigma_alpha_sq_scale) + math.log(sa_sq)
    total += half_cauchy_logpdf(ker.eta_sq, pri.eta_sq_scale) + math.log(ker.eta_sq)
    total += half_cauchy_logpdf(ker.sigma_b_sq, pri.sigma_b_sq_scale) + math.log(ker.sigma_b_sq)
    for rho in (ker.rho1, ker.rho2):
        total += half_cauchy_logpdf(1.0 / rho, pri.inv_rho_scale) + math.log(1.0 / rho)

    total += -0.5 * (LOG_2PI + 2.0 * math.log(pri.mu_alpha_sd)) \
        - 0.5 * params.mu_alpha ** 2 / pri.mu_alpha_sd ** 2
    total += -0.5 * (LOG_2PI + 2.0 * math.log(pri.mu_beta_sd)) \
        - 0.5 * params.mu_beta ** 2 / pri.mu_beta_sd ** 2
    return total


def log_posterior(
    params: ModelParams,
    records: list[ExperimentRecord],
    priors: PriorConfig | None = None,
    channel: str = "Ft",
) -> float:
    """Unnormalized joint log density: likelihood plus prior."""
    return log_likelihood(params, records, channel) + log_prior(params, records, priors)


def grad_log_posterior(
    params: ModelParams,
    records: list[ExperimentRecord],
    priors: PriorConfig | None = None,
    channel: str = "Ft",
) -> np.ndarray:
    """Analytic gradient over the unconstrained parameterization.

    Coordinates follow the layout documented on :class:`ForceChannelModel`,
    with beta raw and every positive parameter on the log scale.
    """
    model = ForceChannelModel(records, channel=channel, priors=priors)
    return model.logp_grad(model.unconstrain(params))[1]
