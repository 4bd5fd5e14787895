"""Tests for leapfrog integration, NUTS transitions, and multi-chain runs."""

import os

import numpy as np
import pytest
from scipy import stats

from toolwear import sampler
from toolwear.errors import InvalidDataError, NotPositiveDefiniteError, SamplingError
from toolwear.model import ForceChannelModel
from toolwear.sampler import (
    DualAveraging,
    GaussianTarget,
    find_reasonable_step_size,
    leapfrog,
    nuts_transition,
    run_chains,
)
from toolwear.simulate import simulate_dataset


def std_normal_grad(x):
    return -x


def std_normal_logp_grad(x):
    return -0.5 * float(x @ x), -x


def standard_target(dim):
    return GaussianTarget(np.zeros(dim), np.eye(dim))


class TestLeapfrog:
    def test_free_particle(self):
        q = np.array([1.0, -2.0])
        p = np.array([0.5, 3.0])
        zero = np.zeros_like(q)
        q2, p2, _, _ = leapfrog(q, p, zero, 0.25, lambda x: (0.0, np.zeros_like(x)),
                                np.ones_like(q))
        assert np.allclose(q2, q + 0.25 * p)
        assert np.allclose(p2, p)

    def test_energy_conservation_on_gaussian(self):
        q, p = np.array([1.0]), np.array([0.7])
        g = std_normal_grad(q)
        h0 = 0.5 * float(q @ q) + 0.5 * float(p @ p)
        for _ in range(1000):
            q, p, _, g = leapfrog(q, p, g, 0.1, std_normal_logp_grad, np.ones(1))
        h1 = 0.5 * float(q @ q) + 0.5 * float(p @ p)
        assert abs(h1 - h0) < 0.01

    def test_reversibility(self):
        rng = np.random.default_rng(2)
        q0, p0 = rng.normal(size=(2, 3))
        q, p, g = q0.copy(), p0.copy(), std_normal_grad(q0)
        for _ in range(25):
            q, p, _, g = leapfrog(q, p, g, 0.1, std_normal_logp_grad, np.ones(3))
        p = -p
        for _ in range(25):
            q, p, _, g = leapfrog(q, p, g, 0.1, std_normal_logp_grad, np.ones(3))
        assert np.allclose(q, q0, atol=1e-12)
        assert np.allclose(-p, p0, atol=1e-12)

    def test_volume_preservation(self):
        """Numerical Jacobian of one step has |det| = 1 on random 2-D states."""
        rng = np.random.default_rng(4)
        eps, h = 0.2, 1e-6

        def step(z):
            q, p, _, _ = leapfrog(z[:2], z[2:], std_normal_grad(z[:2]), eps,
                                  std_normal_logp_grad, np.ones(2))
            return np.concatenate([q, p])

        for _ in range(10):
            z = rng.normal(size=4)
            jac = np.column_stack([
                (step(z + h * e) - step(z - h * e)) / (2 * h)
                for e in np.eye(4)
            ])
            assert abs(abs(np.linalg.det(jac)) - 1.0) < 1e-6


class TestNutsTransition:
    def test_depth_zero_is_single_leapfrog(self):
        """At max_tree_depth=0 the only candidate is one leapfrog step away."""
        rng = np.random.default_rng(6)
        moved = 0
        for _ in range(50):
            q = rng.normal(size=2)
            q2, info = nuts_transition(q, std_normal_logp_grad, 0.5, rng,
                                       max_tree_depth=0)
            assert info["n_steps"] == 1
            assert info["depth"] <= 1
            moved += not np.array_equal(q2, q)
        # a healthy fraction of single proposals is accepted on this easy target
        assert moved > 10

    def test_gaussian_marginals(self):
        rng = np.random.default_rng(8)
        q = np.zeros(10)
        draws = np.empty((4000, 10))
        for i in range(len(draws)):
            q, _ = nuts_transition(q, std_normal_logp_grad, 0.4, rng,
                                   max_tree_depth=8)
            draws[i] = q
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws) / 10)  # crude ESS guess
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * se)
        cov = np.cov(draws.T)
        assert np.allclose(cov, np.eye(10), atol=0.12)

    def test_correlated_gaussian(self):
        rho = 0.9
        target = GaussianTarget(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
        rng = np.random.default_rng(10)
        q = np.zeros(2)
        draws = np.empty((10000, 2))
        for i in range(len(draws)):
            q, _ = nuts_transition(q, target.logp_grad, 0.25, rng, max_tree_depth=8)
            draws[i] = q
        assert abs(np.corrcoef(draws.T)[0, 1] - rho) < 0.05

    def test_divergence_flagged_on_bad_step(self):
        def sharp(x):
            return -0.5e8 * float(x @ x), -1e8 * x

        rng = np.random.default_rng(12)
        _, info = nuts_transition(np.array([1.0]), sharp, 1.0, rng, max_tree_depth=5)
        assert info["divergent"]


def use_workers(monkeypatch, n):
    monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: n)


class TestWorkers:
    """The chains run in forked worker processes; the draws do not depend on
    how many there are."""

    @staticmethod
    def assert_worker_count_free(monkeypatch, target, **kw):
        runs = []
        for n in (1, 2, 4):
            use_workers(monkeypatch, n)
            runs.append(run_chains(target, **kw))
        for run in runs[1:]:
            for attr in ("draws", "step_sizes", "accept_stats", "divergences"):
                assert np.array_equal(getattr(run, attr), getattr(runs[0], attr))
        return runs[0]

    def test_default_is_one_worker_per_cpu(self):
        cpus = len(os.sched_getaffinity(0))
        assert sampler._worker_count(4) == min(4, cpus)
        assert sampler._worker_count(2 * cpus) == cpus

    def test_gaussian(self, monkeypatch):
        target = GaussianTarget(np.array([1.0, -2.0, 0.5]), np.diag([1.0, 4.0, 0.25]))
        self.assert_worker_count_free(monkeypatch, target, n_chains=4,
                                      n_warmup=100, n_samples=100, seed=21)

    def test_unfactorable_beyond_a_radius(self, monkeypatch):
        """A local class reaches the workers: they inherit it through fork."""
        inner = standard_target(2)

        class Bounded:
            dim = 2

            def logp_grad(self, u):
                if float(u @ u) > 3.0 ** 2:  # chains start inside [-2, 2]^2
                    raise NotPositiveDefiniteError("covariance not positive definite")
                return inner.logp_grad(u)

        chains = self.assert_worker_count_free(monkeypatch, Bounded(), n_chains=3,
                                               n_warmup=100, n_samples=400, seed=11)
        assert chains.divergences.sum() > 0

    def test_short_force_fit(self, monkeypatch):
        records, _ = simulate_dataset(n_experiments=21, n_points=20, seed=3)
        model = ForceChannelModel(records, channel="Ft")
        self.assert_worker_count_free(monkeypatch, model, n_chains=4,
                                      n_warmup=30, n_samples=20, seed=104)

    def test_chains_run_outside_this_process(self, monkeypatch):
        class Tagged(GaussianTarget):
            def constrain(self, u):
                return np.r_[u, os.getpid()]

        use_workers(monkeypatch, 2)
        chains = run_chains(Tagged(np.zeros(2), np.eye(2)), n_chains=2,
                            n_warmup=20, n_samples=10, seed=1)
        assert os.getpid() not in chains.flat()[:, 2]

    def test_worker_error_keeps_its_type(self, monkeypatch):
        class Invalid(GaussianTarget):
            def logp_grad(self, u):
                raise InvalidDataError("non-finite measurements")

        use_workers(monkeypatch, 2)
        with pytest.raises(InvalidDataError, match="non-finite measurements"):
            run_chains(Invalid(np.zeros(2), np.eye(2)), n_chains=4,
                       n_warmup=10, n_samples=10)


class TestDualAveraging:
    def test_fixed_point_at_target(self):
        da = DualAveraging(0.5, target_accept=0.8)
        for _ in range(500):
            da.update(0.8)
        first = da.adapted_step_size
        for _ in range(500):
            da.update(0.8)
        assert abs(np.log(da.adapted_step_size) - np.log(first)) < 0.05

    def test_all_rejects_shrink_step(self):
        da = DualAveraging(0.5, target_accept=0.8)
        steps = [da.update(0.0) for _ in range(20)]
        assert all(a > b for a, b in zip(steps, steps[1:]))

    def test_reasonable_step_size_positive(self):
        rng = np.random.default_rng(12)
        eps = find_reasonable_step_size(std_normal_logp_grad, np.zeros(5),
                                        rng, np.ones(5))
        assert 0 < eps < 16


class TestRunChains:
    def test_requires_two_chains(self):
        with pytest.raises(SamplingError):
            run_chains(standard_target(3), n_chains=1, n_warmup=10, n_samples=10)

    def test_gaussian_psrf_and_acceptance(self):
        chains = run_chains(standard_target(5), n_chains=4, n_warmup=400,
                            n_samples=400, seed=0)
        from toolwear.diagnostics import psrf
        for j in range(5):
            assert psrf(chains.draws[:, :, j]) < 1.01
        assert np.all(chains.divergences == 0)
        assert np.all((chains.accept_stats > 0.6) & (chains.accept_stats <= 1.0))

    def test_same_seed_bit_identical(self):
        a = run_chains(standard_target(3), n_chains=2, n_warmup=100, n_samples=100, seed=42)
        b = run_chains(standard_target(3), n_chains=2, n_warmup=100, n_samples=100, seed=42)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.step_sizes, b.step_sizes)

    def test_transitions_reuse_cached_density(self, monkeypatch):
        """Each transition starts from the logp/grad the previous one returned.

        Against a run whose transitions re-evaluate their start state, the
        draws are bit-identical and exactly one call per iteration is saved.
        The 60 warmup iterations include a mass-matrix window that restarts
        the step size.
        """
        monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: 1)  # counts calls here
        n_chains, n_warmup, n_samples = 2, 60, 40
        target = standard_target(3)
        calls = []

        def counted(u):
            calls.append(1)
            return GaussianTarget.logp_grad(target, u)

        target.logp_grad = counted
        cached = run_chains(target, n_chains=n_chains, n_warmup=n_warmup,
                            n_samples=n_samples, seed=8)
        n_cached, calls[:] = len(calls), []
        plain = sampler.nuts_transition
        monkeypatch.setattr(sampler, "nuts_transition",
                            lambda *a, logp0=None, grad0=None, **kw: plain(*a, **kw))
        uncached = run_chains(target, n_chains=n_chains, n_warmup=n_warmup,
                              n_samples=n_samples, seed=8)
        assert np.array_equal(cached.draws, uncached.draws)
        assert np.array_equal(cached.step_sizes, uncached.step_sizes)
        assert len(calls) - n_cached == n_chains * (n_warmup + n_samples)

    def test_step_size_search_reuses_cached_density(self, monkeypatch):
        """The step-size search starts from the logp/grad run_chains holds.

        Against a run whose searches re-evaluate their start state, the draws
        are bit-identical and one call is saved per search: at each chain's
        start and at each mass-matrix window restart.
        """
        monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: 1)  # counts calls here
        n_chains, n_warmup, n_samples = 2, 60, 40
        _, window_ends = sampler._warmup_schedule(n_warmup)
        assert len(window_ends) == 1  # one restart per chain (45 window draws)
        target = standard_target(3)
        calls = []

        def counted(u):
            calls.append(1)
            return GaussianTarget.logp_grad(target, u)

        target.logp_grad = counted
        cached = run_chains(target, n_chains=n_chains, n_warmup=n_warmup,
                            n_samples=n_samples, seed=8)
        n_cached, calls[:] = len(calls), []
        plain = sampler.find_reasonable_step_size
        monkeypatch.setattr(sampler, "find_reasonable_step_size",
                            lambda fn, x, rng, inv_mass, *_: plain(fn, x, rng, inv_mass))
        uncached = run_chains(target, n_chains=n_chains, n_warmup=n_warmup,
                              n_samples=n_samples, seed=8)
        assert np.array_equal(cached.draws, uncached.draws)
        assert np.array_equal(cached.step_sizes, uncached.step_sizes)
        assert len(calls) - n_cached == n_chains * (1 + len(window_ends))

    def test_different_seeds_agree_in_mean(self):
        a = run_chains(standard_target(3), n_chains=2, n_warmup=300, n_samples=500, seed=1)
        b = run_chains(standard_target(3), n_chains=2, n_warmup=300, n_samples=500, seed=2)
        for j in range(3):
            _, p = stats.ttest_ind(a.flat()[::10, j], b.flat()[::10, j])
            assert p > 0.001

    def test_marginal_distribution_ks(self):
        """Empirical CDF of thinned 1-D draws matches the standard normal."""
        chains = run_chains(standard_target(1), n_chains=2, n_warmup=500,
                            n_samples=5000, seed=7)
        thinned = chains.flat()[::5, 0]
        _, p = stats.kstest(thinned, "norm")
        assert p > 0.01

    def test_nonzero_mean_target_recovered(self):
        target = GaussianTarget(np.array([3.0, -1.0]), np.diag([4.0, 0.25]))
        chains = run_chains(target, n_chains=2, n_warmup=400, n_samples=1000, seed=5)
        flat = chains.flat()
        assert np.allclose(flat.mean(axis=0), [3.0, -1.0], atol=0.15)
        assert np.allclose(flat.std(axis=0), [2.0, 0.5], rtol=0.1)

    def test_chainset_shape_and_names(self):
        chains = run_chains(standard_target(4), n_chains=3, n_warmup=50, n_samples=60, seed=3)
        assert chains.draws.shape == (3, 60, 4)
        assert chains.n_retained == 60
        assert len(chains.param_names) == 4
        assert chains.column(chains.param_names[2]).shape == (3, 60)

    def test_unfactorable_states_count_as_divergences(self, monkeypatch):
        """A target that cannot be factored beyond a radius does not abort the
        fit: those states count as divergent exactly like a -inf density."""
        monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: 1)  # counts calls here
        inner = standard_target(2)

        class Bounded:
            dim = 2

            def __init__(self, raises):
                self.raises = raises
                self.failed = 0

            def logp_grad(self, u):
                if float(u @ u) <= 3.0 ** 2:  # chains start inside [-2, 2]^2
                    return inner.logp_grad(u)
                self.failed += 1
                if self.raises:
                    raise NotPositiveDefiniteError("covariance not positive definite")
                return -np.inf, np.zeros_like(u)

        raising, guarded = Bounded(raises=True), Bounded(raises=False)
        a = run_chains(raising, n_chains=2, n_warmup=100, n_samples=400, seed=11)
        b = run_chains(guarded, n_chains=2, n_warmup=100, n_samples=400, seed=11)
        assert raising.failed > 0
        assert a.divergences.sum() > 0
        assert np.array_equal(a.divergences, b.divergences)
        assert np.array_equal(a.draws, b.draws)
        assert np.all(np.sum(a.flat() ** 2, axis=1) <= 3.0 ** 2)
