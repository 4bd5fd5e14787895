"""The two GP densities: the hierarchical force model and the tool-life GP.

:class:`ForceChannelModel` ties per-experiment linear wear trends by a GP:
F_ij = alpha_i + beta_i * L_ij + eps_ij with eps_ij ~ N(0, sigma_i^2). The
slopes beta get a GP prior over the standardized (v_c, f) plane with constant
mean mu_beta; the intercepts alpha are regularized by a shared normal whose
mean mu_alpha has a normal prior centred on the data (see :func:`alpha_centre`).
The likelihood depends on each series only through per-experiment sufficient
statistics computed once, so one density evaluation costs the same whatever
the series lengths. :class:`ToolLifeModel` regresses log tool life on the same
plane directly, with no per-experiment linear stage.

Both share the GP level (:func:`gp_level`) and the Half-Cauchy / normal
hyperpriors (:func:`hc_log_scale`, :func:`normal_prior`) on the scales stated
in :class:`PriorConfig`. Positive quantities are handled internally on the log
scale (with the log-Jacobian terms included in the prior), so densities and
gradients are defined over a fully unconstrained vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtri, dtrtrs

from .errors import DegenerateFitError, DomainError, InsufficientDataError, InvalidDataError
from .kernel import (JITTER_START, KernelConfig, control_sq_dists, jittered_cholesky,
                     unit_kernel)

LOG_2PI = math.log(2.0 * math.pi)
LOG_2_OVER_PI = math.log(2.0 / math.pi)
MIN_LIVES = 3  # experiments with a tool life the life GP needs
# Half-Cauchy priors of the life GP on eta^2, 1/rho1, 1/rho2, sigma_b^2
_HC_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


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
            self.set_series(self.length, self.forces)

    def set_series(self, length, forces) -> None:
        """Attach the force series ``forces`` measured at cutting lengths ``length``, checked."""
        self.length = np.asarray(length, dtype=float)
        if len(self.length) < 2:
            raise InsufficientDataError(f"experiment {self.id}: need >= 2 measurements")
        if not np.all(np.diff(self.length) > 0):
            raise InvalidDataError(f"experiment {self.id}: L must be strictly increasing")
        self.forces = {k: np.asarray(v, dtype=float) for k, v in forces.items()}
        for k, v in self.forces.items():
            if len(v) != len(self.length):
                raise InvalidDataError(f"experiment {self.id}: channel {k} length mismatch")
            if not np.all(np.isfinite(v)):
                raise InvalidDataError(f"experiment {self.id}: non-finite force in {k}")


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
    mu_alpha_sd: float = 10.0         # mu_alpha ~ N(c, 10^2), c from the data: alpha_centre
    sigma_alpha_sq_scale: float = 10.0
    mu_beta_sd: float = 10.0          # mu_beta ~ N(0, 10^2), and the life GP's mu_life likewise
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
    e_mat = unit_kernel(rho1, rho2, dv2, df2)
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


def spread_hull(controls, consequence: str):
    """(lowest, highest) (v_c, f) of training ``controls``; an axis with no spread
    raises :class:`DegenerateFitError`, its message ending with ``consequence``."""
    x = np.atleast_2d(np.asarray(controls, dtype=float))
    lo, hi = x.min(axis=0), x.max(axis=0)
    for name, a, b in zip(("v_c", "f"), lo, hi):
        if a == b:
            raise DegenerateFitError(f"all training {name} values equal; {consequence}")
    return lo, hi


def channel_sums(records: list[ExperimentRecord], channel: str) -> np.ndarray:
    """Per-experiment sums of a channel's series about their means, shape
    (6, K): count, mean length, mean force, the length sum of squares, the
    least-squares slope and its residual sum of squares."""
    sums = []
    for rec in records:
        length, force = rec.length, rec.forces[channel]
        dl, df = length - length.mean(), force - force.mean()
        s_ll = float(dl @ dl)
        b_hat = float(df @ dl) / s_ll
        res = df - b_hat * dl
        sums.append((len(length), length.mean(), force.mean(), s_ll, b_hat, res @ res))
    sums = np.array(sums, dtype=float).reshape(-1, 6)
    if not np.all(np.isfinite(sums)):
        raise InvalidDataError("non-finite measurements")
    # contiguous rows: a strided view takes another BLAS path in `n @ t_s`,
    # so a pickled or copied model would differ in the last bits
    return np.ascontiguousarray(sums.T)


def alpha_centre(sums: np.ndarray) -> float:
    """c, the mean over experiments of the least-squares intercepts
    f_bar_i - b_hat_i l_bar_i, from :func:`channel_sums`: the centre of
    mu_alpha's prior, N(c, mu_alpha_sd^2)."""
    _, l_bar, f_bar, _, b_hat, _ = sums
    return float(np.mean(f_bar - b_hat * l_bar))


# ---------------------------------------------------------------------------
# density over the unconstrained space

class ForceChannelModel:
    """Log-posterior and analytic gradient for one force channel.

    Unconstrained layout (K experiments, dim = 3K + 7)::

        [ alpha(K) | beta(K) | log sigma_i^2 (K) |
          mu_alpha | log sigma_alpha^2 | mu_beta |
          log eta^2 | log rho1 | log rho2 | log sigma_b^2 ]

    The likelihood runs on per-experiment sufficient statistics taken once
    from the series about their means (:func:`channel_sums`), so a density
    evaluation costs O(K^2) whatever the series lengths.

    The unconstrained alpha and mu_alpha are centred: they are the
    intercepts and their mean less ``alpha_offset``, the data's centre
    :func:`alpha_centre`. The model subtracts it from the mean forces once,
    and :meth:`constrain` adds it back, so mu_alpha's N(0, sd^2) prior in
    these coordinates is N(c, sd^2) on the reported mu_alpha.
    """

    def __init__(
        self,
        records: list[ExperimentRecord],
        channel: str = "Ft",
        priors: PriorConfig | None = None,
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
        sums = channel_sums(records, channel)
        self.alpha_offset = alpha_centre(sums)
        self.n, self.l_bar, f_bar, self.s_ll, self.b_hat, self.rss = sums
        self.f_bar = f_bar - self.alpha_offset
        self._log_norm = -0.5 * (self.n.sum() + K) * LOG_2PI  # likelihood and alpha level

        self.dv2, self.df2 = control_sq_dists(controls_array(records))

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

    def initial_metric(self) -> np.ndarray:
        """The sampler's starting inverse mass: least-squares variances.

        With s_i^2 = rss_i / (n_i - 2), experiment i gives s_i^2 (1/n_i +
        l_bar_i^2 / s_ll_i) for alpha_i, s_i^2 / s_ll_i for beta_i and
        2 / (n_i - 2) for log sigma_i^2; the hyperparameters get 1. An
        experiment whose fit leaves no residual (two points, or an exact
        line) keeps 1 on its three coordinates.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            s_sq = self.rss / (self.n - 2)
            var = np.concatenate([s_sq * (1.0 / self.n + self.l_bar ** 2 / self.s_ll),
                                  s_sq / self.s_ll, 2.0 / (self.n - 2)])
        usable = np.tile(np.isfinite(s_sq) & (s_sq > 0), 3)
        return np.r_[np.where(usable, var, 1.0), np.ones(7)]

    # -- transforms ----------------------------------------------------------

    def constrain(self, u: np.ndarray) -> np.ndarray:
        """Map an unconstrained state to the reported constrained vector."""
        K, c = self.K, self.alpha_offset
        a, beta, t_s = u[:K], u[K:2 * K], u[2 * K:3 * K]
        m_a, t_a, m_b, t_e, t_r1, t_r2, t_b = u[3 * K:]
        return np.concatenate([
            a + c, beta, np.exp(0.5 * t_s),
            [m_a + c, math.exp(0.5 * t_a), m_b,
             math.exp(t_e), math.exp(t_r1), math.exp(t_r2), math.exp(t_b)],
        ])

    def unconstrain(self, params: ModelParams) -> np.ndarray:
        """Inverse of :meth:`constrain`: the unconstrained state of ``params``."""
        k, c = params.kernel, self.alpha_offset
        return np.concatenate([
            params.alpha - c, params.beta, 2.0 * np.log(params.sigma),
            [params.mu_alpha - c, 2.0 * math.log(params.sigma_alpha), params.mu_beta,
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
# tool-life GP (no per-experiment linear stage)

class ToolLifeModel:
    """Marginal GP regression of log tool life on standardized (v_c, f).

    log life ~ MVN(mu * 1, eta^2 E + sigma_b^2 I), with the force model's kernel
    family and prior scales; ``mu_beta_sd`` also sets the prior sd of mu (``mu_life``).
    Equal lives raise :class:`DegenerateFitError` (the signal and noise variances
    both collapse to zero), as do controls with no spread in v_c or f.
    """

    param_names = ["mu_life", "eta_sq", "rho1", "rho2", "sigma_b_sq"]
    dim = 5

    def __init__(self, controls, life, priors: PriorConfig | None = None):
        self.controls = np.atleast_2d(np.asarray(controls, dtype=float))
        life = np.asarray(life, dtype=float)
        if np.any(life <= 0):
            raise DomainError("tool life must be strictly positive")
        self.y = np.log(life)
        if np.ptp(self.y) == 0:
            raise DegenerateFitError("all tool lives equal; the tool-life GP posterior is improper")
        spread_hull(self.controls, "the tool-life surface is degenerate")
        self.priors = priors or PriorConfig()
        self.dv2, self.df2 = control_sq_dists(self.controls)
        pri = self.priors
        self._hc_scale = np.array([pri.eta_sq_scale, pri.inv_rho_scale,
                                   pri.inv_rho_scale, pri.sigma_b_sq_scale])

    def logp_grad(self, u):
        u = np.asarray(u, dtype=float)
        if not np.isfinite(u).all() or np.abs(u[1:]).max() > 300.0:
            return -math.inf, np.zeros_like(u)
        m, t = float(u[0]), u[1:]
        grad = np.empty(5)
        logp, d_r, grad[1:] = gp_level(self.y - m, *np.exp(t).tolist(), self.dv2, self.df2)
        lp_m, dlp_m = normal_prior(m, self.priors.mu_beta_sd)
        grad[0] = dlp_m - float(d_r.sum())
        lp_hc, dlp_hc = hc_log_scale(t, self._hc_scale, _HC_SIGN)
        grad[1:] += dlp_hc
        return logp + lp_m + float(lp_hc.sum()), grad

    def constrain(self, u):
        return np.array([u[0], *np.exp(u[1:])])


def life_data(records: list[ExperimentRecord]) -> tuple[np.ndarray, np.ndarray]:
    """(controls, tool lives) of the experiments that have a tool life, which
    the life GP is fitted on and predicts from; fewer than :data:`MIN_LIVES`
    raise :class:`InsufficientDataError`."""
    with_life = [r for r in records if r.tool_life is not None]
    if len(with_life) < MIN_LIVES:
        raise InsufficientDataError(f"tool-life GP needs >= {MIN_LIVES} experiments "
                                    f"with tool_life, got {len(with_life)}")
    return controls_array(with_life), np.array([r.tool_life for r in with_life], dtype=float)


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
    channel: str = "Ft",
) -> float:
    """GP density of the slopes + alpha regularization + hyperpriors.

    Includes the log-Jacobian terms of the internal log-scale parameterization
    of the positive parameters, so ``log_likelihood + log_prior`` equals the
    sampler target exactly. mu_alpha's prior is centred on ``channel``'s
    :func:`alpha_centre`.
    """
    pri = priors or PriorConfig()
    K = len(records)
    ker = params.kernel
    dv2, df2 = control_sq_dists(controls_array(records))
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
        - 0.5 * (params.mu_alpha - alpha_centre(channel_sums(records, channel))) ** 2 \
        / pri.mu_alpha_sd ** 2
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
    return (log_likelihood(params, records, channel)
            + log_prior(params, records, priors, channel))
