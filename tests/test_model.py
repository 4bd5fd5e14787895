"""Tests for the hierarchical force-channel model density and gradient."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve

from toolwear.kernel import (JITTER_START, KernelConfig, Standardizer, cov_matrix,
                             jittered_cholesky)
from toolwear.model import (
    LOG_2PI,
    ExperimentRecord,
    ForceChannelModel,
    ModelParams,
    PriorConfig,
    controls_array,
    gp_level,
    half_cauchy_logpdf,
    log_likelihood,
    log_posterior,
    log_prior,
)
from toolwear.sampler import run_chains
from toolwear.simulate import simulate_dataset


def make_records(rng, k=4, n=12, alpha=None, beta=None, sigma=0.0):
    """Synthetic experiments with linear force trends on all channels."""
    alpha = np.full(k, 200.0) if alpha is None else np.asarray(alpha, dtype=float)
    beta = np.linspace(1.0, 3.0, k) if beta is None else np.asarray(beta, dtype=float)
    records = []
    for i in range(k):
        length = np.linspace(1.0, 50.0, n)
        clean = alpha[i] + beta[i] * length
        forces = {
            ch: clean + sigma * rng.standard_normal(n) for ch in ("Ft", "Ff", "Fp")
        }
        records.append(ExperimentRecord(
            id=i + 1, v_c=float(rng.uniform(20, 60)), f=float(rng.uniform(20, 50)),
            length=length, forces=forces,
        ))
    return records, alpha, beta


def make_params(rng, k):
    return ModelParams(
        alpha=rng.normal(200.0, 5.0, size=k),
        beta=rng.normal(2.0, 1.0, size=k),
        sigma=rng.uniform(1.0, 8.0, size=k),
        mu_alpha=float(rng.normal(200.0, 5.0)),
        sigma_alpha=float(rng.uniform(2.0, 10.0)),
        mu_beta=float(rng.normal(2.0, 1.0)),
        kernel=KernelConfig(
            eta_sq=float(rng.uniform(0.5, 4.0)),
            rho1=float(rng.uniform(0.2, 2.0)),
            rho2=float(rng.uniform(0.2, 2.0)),
            sigma_b_sq=float(rng.uniform(0.05, 0.5)),
        ),
    )


class TestLogLikelihood:
    def test_single_zero_residual_point(self):
        rec = ExperimentRecord(
            id=1, v_c=40.0, f=35.0, length=np.array([1.0, 2.0]),
            forces={ch: np.array([5.0, 8.0]) for ch in ("Ft", "Ff", "Fp")},
        )
        params = ModelParams(
            alpha=[2.0], beta=[3.0], sigma=[1.0], mu_alpha=0.0, sigma_alpha=1.0,
            mu_beta=0.0, kernel=KernelConfig(1.0, 1.0, 1.0, 0.5),
        )
        assert log_likelihood(params, [rec], "Ft") == pytest.approx(-LOG_2PI)

    def test_maximized_at_ols_solution(self):
        rng = np.random.default_rng(21)
        records, _, _ = make_records(rng, k=1, n=10, alpha=[2.0], beta=[3.0])
        base = make_params(rng, 1)

        def loglik(a, b):
            p = ModelParams(alpha=[a], beta=[b], sigma=base.sigma[:1],
                            mu_alpha=base.mu_alpha, sigma_alpha=base.sigma_alpha,
                            mu_beta=base.mu_beta, kernel=base.kernel)
            return log_likelihood(p, records, "Ft")

        best = loglik(2.0, 3.0)
        for da, db in [(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01)]:
            assert loglik(2.0 + da, 3.0 + db) < best

    def test_doubling_sigma_with_zero_residuals(self):
        rng = np.random.default_rng(23)
        records, alpha, beta = make_records(rng, k=3, n=17)
        p1 = make_params(rng, 3)
        p1.alpha, p1.beta = alpha, beta
        p2 = ModelParams(alpha=alpha, beta=beta, sigma=2.0 * p1.sigma,
                         mu_alpha=p1.mu_alpha, sigma_alpha=p1.sigma_alpha,
                         mu_beta=p1.mu_beta, kernel=p1.kernel)
        drop = log_likelihood(p1, records, "Ft") - log_likelihood(p2, records, "Ft")
        assert drop == pytest.approx(3 * 17 * math.log(2.0))

    def test_matches_scipy_norm_oracle(self):
        rng = np.random.default_rng(25)
        records, _, _ = make_records(rng, k=3, n=9, sigma=4.0)
        params = make_params(rng, 3)
        expected = 0.0
        for i, rec in enumerate(records):
            mu = params.alpha[i] + params.beta[i] * rec.length
            expected += stats.norm.logpdf(rec.forces["Ff"], mu, params.sigma[i]).sum()
        assert log_likelihood(params, records, "Ff") == pytest.approx(expected, rel=1e-12)


class TestLogPrior:
    def test_half_cauchy_density_at_scale(self):
        # pdf 2/(pi*s*(1+(x/s)^2)) at x=s is 1/(pi*s); cross-checked with scipy
        assert half_cauchy_logpdf(5.0, 5.0) == pytest.approx(math.log(1.0 / (5.0 * math.pi)))
        assert half_cauchy_logpdf(3.0, 10.0) == pytest.approx(
            stats.halfcauchy.logpdf(3.0, scale=10.0), rel=1e-12
        )

    def test_gp_term_matches_mvn_oracle(self):
        """Changing only beta shifts the prior by the MVN logpdf difference."""
        rng = np.random.default_rng(27)
        records, _, _ = make_records(rng, k=5, n=5)
        params = make_params(rng, 5)
        x = Standardizer.fit(controls_array(records)).transform(controls_array(records))
        cov = cov_matrix(x, params.kernel)
        mvn = stats.multivariate_normal(mean=np.full(5, params.mu_beta), cov=cov)

        other = make_params(rng, 5)
        p2 = ModelParams(alpha=params.alpha, beta=other.beta, sigma=params.sigma,
                         mu_alpha=params.mu_alpha, sigma_alpha=params.sigma_alpha,
                         mu_beta=params.mu_beta, kernel=params.kernel)
        got = log_prior(params, records) - log_prior(p2, records)
        want = mvn.logpdf(params.beta) - mvn.logpdf(other.beta)
        assert got == pytest.approx(want, rel=1e-9)

    def test_alpha_term_zero_deviation(self):
        """alpha_i = mu_alpha for all i contributes -K*log(sigma_alpha*sqrt(2pi))."""
        rng = np.random.default_rng(29)
        records, _, _ = make_records(rng, k=4, n=5)
        params = make_params(rng, 4)
        params.alpha = np.full(4, params.mu_alpha)
        shifted = ModelParams(alpha=params.alpha + params.sigma_alpha,
                              beta=params.beta, sigma=params.sigma,
                              mu_alpha=params.mu_alpha, sigma_alpha=params.sigma_alpha,
                              mu_beta=params.mu_beta, kernel=params.kernel)
        # zero-deviation alpha term exceeds the one-sd-shifted term by K/2
        assert log_prior(params, records) - log_prior(shifted, records) == pytest.approx(2.0)

    def test_univariate_gp_term(self):
        """K=1 with beta at the GP mean: term is the normal peak density."""
        rng = np.random.default_rng(31)
        records, _, _ = make_records(rng, k=1, n=5)
        params = make_params(rng, 1)
        params.beta = np.array([params.mu_beta])
        ker = params.kernel
        var = ker.eta_sq + ker.sigma_b_sq + JITTER_START * ker.eta_sq
        far = ModelParams(alpha=params.alpha, beta=params.beta + 1.0,
                          sigma=params.sigma, mu_alpha=params.mu_alpha,
                          sigma_alpha=params.sigma_alpha, mu_beta=params.mu_beta,
                          kernel=ker)
        got = log_prior(params, records) - log_prior(far, records)
        assert got == pytest.approx(0.5 / var, rel=1e-9)


class TestLogPosterior:
    def test_additivity(self):
        rng = np.random.default_rng(33)
        records, _, _ = make_records(rng, k=3, n=8, sigma=2.0)
        params = make_params(rng, 3)
        assert log_posterior(params, records, channel="Fp") == pytest.approx(
            log_likelihood(params, records, "Fp") + log_prior(params, records, channel="Fp")
        )

    def test_better_fit_scores_higher(self):
        rng = np.random.default_rng(35)
        records, alpha, beta = make_records(rng, k=3, n=10, sigma=1.0)
        params = make_params(rng, 3)
        close = ModelParams(alpha=alpha, beta=beta, sigma=params.sigma,
                            mu_alpha=params.mu_alpha, sigma_alpha=params.sigma_alpha,
                            mu_beta=params.mu_beta, kernel=params.kernel)
        off = ModelParams(alpha=alpha + 30.0, beta=beta, sigma=params.sigma,
                          mu_alpha=params.mu_alpha, sigma_alpha=params.sigma_alpha,
                          mu_beta=params.mu_beta, kernel=params.kernel)
        assert log_posterior(close, records) > log_posterior(off, records)

    def test_channels_fit_independently(self):
        rng = np.random.default_rng(37)
        records, _, _ = make_records(rng, k=3, n=8, sigma=2.0)
        params = make_params(rng, 3)
        values = {ch: log_posterior(params, records, channel=ch) for ch in ("Ft", "Ff", "Fp")}
        again = {ch: log_posterior(params, records, channel=ch) for ch in ("Fp", "Ft", "Ff")}
        for ch in values:
            assert values[ch] == again[ch]


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(39)
        records, _, _ = make_records(rng, k=4, n=6, sigma=1.0)
        # unit-scale data keeps the density small enough for central differences
        for rec in records:
            rec.length = rec.length / 50.0
            rec.forces = {ch: (v - 200.0) / 50.0 for ch, v in rec.forces.items()}
            rec.__post_init__()
        model = ForceChannelModel(records, channel="Ft")
        h = 1e-5
        for _ in range(20):
            u = rng.uniform(-1.0, 1.0, size=model.dim)
            _, grad = model.logp_grad(u)
            for j in rng.choice(model.dim, size=6, replace=False):
                e = np.zeros(model.dim)
                e[j] = h
                fd = (model.logp_grad(u + e)[0] - model.logp_grad(u - e)[0]) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_likelihood_stationary_at_ols(self):
        rng = np.random.default_rng(43)
        records, _, _ = make_records(rng, k=1, n=15, sigma=2.0)
        rec = records[0]
        y = rec.forces["Ft"]
        slope, intercept = np.polyfit(rec.length, y, 1)
        params = make_params(rng, 1)

        def loglik(a, b):
            p = ModelParams(alpha=[a], beta=[b], sigma=params.sigma,
                            mu_alpha=params.mu_alpha, sigma_alpha=params.sigma_alpha,
                            mu_beta=params.mu_beta, kernel=params.kernel)
            return log_likelihood(p, records, "Ft")

        h = 1e-6
        da = (loglik(intercept + h, slope) - loglik(intercept - h, slope)) / (2 * h)
        db = (loglik(intercept, slope + h) - loglik(intercept, slope - h)) / (2 * h)
        assert abs(da) < 1e-5
        assert abs(db) < 1e-4

    def test_gp_block_is_whitened_deviation(self):
        """With zero residuals the beta gradient equals -Sigma^{-1}(beta - mu)."""
        rng = np.random.default_rng(45)
        k = 5
        params = make_params(rng, k)
        records, _, _ = make_records(rng, k=k, n=8,
                                     alpha=params.alpha, beta=params.beta)
        model = ForceChannelModel(records, channel="Ft")
        _, grad = model.logp_grad(model.unconstrain(params))
        x = Standardizer.fit(controls_array(records)).transform(controls_array(records))
        cov = cov_matrix(x, params.kernel)
        expected = -solve(cov, params.beta - params.mu_beta, assume_a="pos")
        assert np.allclose(grad[k:2 * k], expected, rtol=1e-8, atol=1e-10)

    def test_gradient_at_constrained_params(self):
        rng = np.random.default_rng(47)
        records, _, _ = make_records(rng, k=3, n=6, sigma=1.0)
        params = make_params(rng, 3)
        model = ForceChannelModel(records)
        g = model.logp_grad(model.unconstrain(params))[1]
        assert g.shape == (3 * 3 + 7,)
        assert np.all(np.isfinite(g))

    def test_unconstrain_roundtrip(self):
        rng = np.random.default_rng(49)
        records, _, _ = make_records(rng, k=4, n=5)
        model = ForceChannelModel(records)
        params = make_params(rng, 4)
        back = model.params_from_constrained(model.constrain(model.unconstrain(params)))
        assert np.allclose(back.alpha, params.alpha)
        assert np.allclose(back.beta, params.beta)
        assert np.allclose(back.sigma, params.sigma)
        assert back.kernel.eta_sq == pytest.approx(params.kernel.eta_sq)

    def test_sampler_target_equals_component_sum(self):
        rng = np.random.default_rng(51)
        records, _, _ = make_records(rng, k=4, n=6, sigma=2.0)
        params = make_params(rng, 4)
        model = ForceChannelModel(records, channel="Ft")
        target = model.logp_grad(model.unconstrain(params))[0]
        direct = log_likelihood(params, records, "Ft") + log_prior(params, records)
        assert target == pytest.approx(direct, rel=1e-9)


def central_differences(fn, u, h):
    grad = np.empty_like(u)
    for j in range(len(u)):
        e = np.zeros_like(u)
        e[j] = h
        grad[j] = (fn(u + e) - fn(u - e)) / (2 * h)
    return grad


@st.composite
def offset_force_problems(draw):
    """K experiments of 2..80 points each, forces offset to about 200 N with
    noise sd about 1, and a state near the least-squares fit: the case where
    sums of raw squares would cancel. The state is built on the constrained
    scale and mapped through ``unconstrain``, which centres the intercepts."""
    k = draw(st.integers(1, 25))
    lengths = draw(st.lists(st.integers(2, 80), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records, alpha, beta = [], [], []
    for i, n in enumerate(lengths):
        length = np.cumsum(rng.uniform(0.5, 2.0, n))
        a_i, b_i = 200.0 + rng.normal(0.0, 5.0), rng.normal(2.0, 1.0)
        forces = {ch: a_i + b_i * length + rng.normal(0.0, 1.0, n) for ch in ("Ft", "Ff", "Fp")}
        records.append(ExperimentRecord(id=i + 1, v_c=float(rng.uniform(20, 60)),
                                        f=float(rng.uniform(20, 50)), length=length,
                                        forces=forces))
        alpha.append(a_i)
        beta.append(b_i)
    model = ForceChannelModel(records, channel="Ft")
    alpha = np.asarray(alpha) + rng.normal(0.0, 0.3, k)
    beta = np.asarray(beta) + rng.normal(0.0, 0.02, k)
    log_sigma_sq = rng.normal(0.0, 0.3, k)
    mu_alpha, log_sigma_alpha_sq, mu_beta = \
        200.0 + rng.normal(0.0, 3.0), rng.normal(3.0, 0.5), rng.normal(2.0, 0.5)
    params = ModelParams(
        alpha=alpha, beta=beta, sigma=np.exp(0.5 * log_sigma_sq), mu_alpha=mu_alpha,
        sigma_alpha=math.exp(0.5 * log_sigma_alpha_sq), mu_beta=mu_beta,
        kernel=KernelConfig(*np.exp(rng.normal(0.0, 0.5, 4))))
    return records, model, model.unconstrain(params)


class TestSufficientStatistics:
    """``logp_grad`` runs on per-experiment sums; the oracles walk every point."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(offset_force_problems())
    def test_density_matches_pointwise_oracle(self, problem):
        records, model, u = problem
        params = model.params_from_constrained(model.constrain(u))
        direct = log_likelihood(params, records, "Ft") + log_prior(params, records)
        assert model.logp_grad(u)[0] == pytest.approx(direct, rel=1e-9)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(offset_force_problems())
    def test_every_coordinate_matches_finite_differences(self, problem):
        _, model, u = problem
        _, grad = model.logp_grad(u)
        fd = central_differences(lambda w: model.logp_grad(w)[0], u, 1e-5)
        assert np.all(np.abs(grad - fd) <= 1e-6 * (1.0 + np.abs(grad)))

    def test_gp_level_gradient_at_escalated_jitter(self):
        """A duplicated design point whose kernel entry is 1 + 5e-9, set
        through a negative squared distance (a kernel matrix rounded
        indefinite, eigenvalue -5e-9 eta_sq), factors only after two jitter
        escalations, at 1e-8 eta_sq. The gradient, whose log eta^2 coordinate
        includes the jitter's scaling with eta_sq, matches differences taken
        at that same jitter level. The duplicated pair shares its value, so
        the near-singular direction does not swamp the differences with
        rounding noise."""
        rng = np.random.default_rng(63)
        x = rng.uniform(-1.5, 1.5, size=(6, 2))
        x[4] = x[1]
        dv2 = (x[:, 0:1] - x[None, :, 0]) ** 2
        df2 = (x[:, 1:2] - x[None, :, 1]) ** 2
        rho1, rho2, eta_sq, sigma_b_sq = 0.8, 1.3, 2.0, 1e-300
        dv2[1, 4] = dv2[4, 1] = -5e-9 / rho1
        r = rng.normal(0.0, 1.0, 6)
        r[4] = r[1]

        def jitter_level(w):
            eta, rho_1, rho_2, sb = np.exp(w[6:])
            return jittered_cholesky(np.exp(-rho_1 * dv2 - rho_2 * df2), eta, sb)[1] / eta

        def logp(w):
            return gp_level(w[:6], *np.exp(w[6:]), dv2, df2)[0]

        w = np.concatenate([r, np.log([eta_sq, rho1, rho2, sigma_b_sq])])
        h = 1e-3
        for j in range(6, 10):
            for step in (-h, 0.0, h):
                assert jitter_level(w + step * np.eye(10)[j]) == pytest.approx(1e-8, rel=1e-12)
        _, d_r, d_theta = gp_level(r, eta_sq, rho1, rho2, sigma_b_sq, dv2, df2)
        grad = np.concatenate([d_r, d_theta])
        fd = central_differences(logp, w, h)
        assert np.all(np.abs(grad - fd) <= 1e-4 * (1.0 + np.abs(grad)))


class TestCopies:
    """A pickled or deep-copied model evaluates bit for bit like the original."""

    COPIES = {"pickle": lambda m: pickle.loads(pickle.dumps(m)), "deepcopy": copy.deepcopy}

    @pytest.fixture(scope="class")
    def model(self):
        records, _ = simulate_dataset(n_experiments=21, n_points=20, seed=3)
        return ForceChannelModel(records, channel="Ft")

    @pytest.mark.parametrize("how", COPIES)
    def test_logp_grad_bitwise_equal(self, model, how):
        """Large noise variances make the n_i log sigma_i^2 sum dominate the
        density, so a change in its summation order shows in the last bit."""
        other = self.COPIES[how](model)
        rng = np.random.default_rng(5)
        K = model.K
        for _ in range(50):
            u = rng.uniform(-2.0, 2.0, model.dim)
            u[2 * K:3 * K] = rng.uniform(10.0, 60.0, K)
            logp, grad = model.logp_grad(u)
            logp_copy, grad_copy = other.logp_grad(u)
            assert logp == logp_copy
            assert np.array_equal(grad, grad_copy)

    @pytest.mark.parametrize("how", COPIES)
    def test_copy_samples_identical_draws(self, model, how):
        kw = dict(n_chains=2, n_warmup=40, n_samples=20, seed=104)
        a = run_chains(model, **kw)
        b = run_chains(self.COPIES[how](model), **kw)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.step_sizes, b.step_sizes)


class TestCentring:
    """The force model centres its intercepts on the data and gives the
    sampler a least-squares starting metric."""

    @staticmethod
    def ols(rec, channel="Ft"):
        """(intercept, slope, their covariance) of the series, from the raw points."""
        x = np.column_stack([np.ones_like(rec.length), rec.length])
        coef, rss, _, _ = np.linalg.lstsq(x, rec.forces[channel], rcond=None)
        s_sq = rss[0] / (len(rec.length) - 2)
        return coef[0], coef[1], s_sq * np.linalg.inv(x.T @ x)

    def test_initial_metric_is_ols_variances(self):
        rng = np.random.default_rng(71)
        records, _, _ = make_records(rng, k=5, n=14, sigma=3.0)
        model = ForceChannelModel(records)
        inv_mass = model.initial_metric()
        K = model.K
        cov = np.array([self.ols(rec)[2] for rec in records])
        assert np.allclose(inv_mass[:K], cov[:, 0, 0], rtol=1e-10)
        assert np.allclose(inv_mass[K:2 * K], cov[:, 1, 1], rtol=1e-10)
        assert np.allclose(inv_mass[2 * K:3 * K], 2.0 / (14 - 2), rtol=1e-12)
        assert np.array_equal(inv_mass[3 * K:], np.ones(7))

    def test_initial_metric_without_residuals_is_unit(self):
        """A two-point series leaves no residual degrees of freedom and a
        constant one no residual: their coordinates keep the unit metric."""
        rng = np.random.default_rng(73)
        records, _, _ = make_records(rng, k=3, n=10, sigma=1.0)
        short, flat = records[0], records[2]
        short.length = short.length[:2]
        short.forces = {ch: v[:2] for ch, v in short.forces.items()}
        flat.forces = {ch: np.full(10, 150.0) for ch in ("Ft", "Ff", "Fp")}
        inv_mass = ForceChannelModel(records).initial_metric()
        for i in (0, 2):
            assert np.array_equal(inv_mass[[i, 3 + i, 6 + i]], np.ones(3))
        assert np.all(inv_mass[[1, 4]] < 1.0) and inv_mass[7] == 2.0 / 8

    def test_offset_is_mean_ols_intercept(self):
        rng = np.random.default_rng(75)
        records, _, _ = make_records(rng, k=6, n=9, sigma=2.0)
        model = ForceChannelModel(records, channel="Ff")
        assert model.alpha_offset == pytest.approx(
            np.mean([self.ols(rec, "Ff")[0] for rec in records]), rel=1e-12)

    def test_constrain_inverts_unconstrain_at_force_offsets(self):
        rng = np.random.default_rng(77)
        records, _, _ = make_records(rng, k=6, n=9, sigma=2.0)
        model = ForceChannelModel(records)
        for _ in range(10):
            params = make_params(rng, 6)  # intercepts and mu_alpha about 200 N
            k = params.kernel
            expected = np.concatenate([
                params.alpha, params.beta, params.sigma,
                [params.mu_alpha, params.sigma_alpha, params.mu_beta,
                 k.eta_sq, k.rho1, k.rho2, k.sigma_b_sq]])
            u = model.unconstrain(params)
            assert np.all(np.abs(u[:6]) < 50.0) and abs(u[18]) < 50.0  # centred
            assert np.allclose(model.constrain(u), expected, rtol=1e-13, atol=0.0)

    def test_sigma_alpha_recovered(self):
        """The intercepts' spread, 10 N in the simulation, is read near 10: the
        prior on mu_alpha sits at the data, so the alpha level pools."""
        records, _ = simulate_dataset(n_experiments=21, n_points=50, seed=104)
        model = ForceChannelModel(records, channel="Ft")
        chains = run_chains(model, n_chains=4, n_warmup=100, n_samples=100, seed=104)
        j = chains.param_names.index("sigma_alpha")
        assert 5.0 <= chains.flat()[:, j].mean() <= 20.0


class TestExperimentRecord:
    def test_rejects_short_series(self):
        from toolwear.errors import InsufficientDataError
        with pytest.raises(InsufficientDataError):
            ExperimentRecord(id=1, v_c=40.0, f=35.0, length=np.array([1.0]),
                             forces={ch: np.array([5.0]) for ch in ("Ft", "Ff", "Fp")})

    def test_rejects_nonincreasing_length(self):
        from toolwear.errors import InvalidDataError
        with pytest.raises(InvalidDataError):
            ExperimentRecord(id=1, v_c=40.0, f=35.0, length=np.array([1.0, 1.0]),
                             forces={ch: np.array([5.0, 6.0]) for ch in ("Ft", "Ff", "Fp")})
