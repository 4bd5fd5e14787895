"""Tests for leapfrog integration, NUTS transitions, and multi-chain runs."""

import hashlib
import os

import numpy as np
import pytest
from scipy import stats

from gaussian_target import GaussianTarget
from toolwear import sampler
from toolwear.diagnostics import summarize
from toolwear.errors import InvalidDataError, NotPositiveDefiniteError, SamplingError
from toolwear.model import ForceChannelModel, ToolLifeModel, controls_array, life_data
from toolwear.predict import life_surface, surface
from toolwear.sampler import (
    DualAveraging,
    _window_inv_mass,
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


class TestMetric:
    """The diagonal metric's formulas, as bits, are checked by ``TestNutsOracle``
    and ``TestDiagonalDraws``; its window update by its documented formula here."""

    def test_window_update_shrinks_the_variances(self):
        """A window's inverse mass is its sample variances shrunk by n / (n + 5),
        plus 5e-3 / (n + 5): positive even where the draws do not move."""
        rng = np.random.default_rng(39)
        draws = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
        draws[:, 3] = 1.5
        inv_mass = _window_inv_mass(draws)
        expected = 40 / 45 * np.var(draws, axis=0, ddof=1) + 5 / 45 * 1e-3
        assert np.allclose(inv_mass, expected, rtol=1e-12)
        assert inv_mass[3] == pytest.approx(5 / 45 * 1e-3, rel=1e-12)


class TestNutsTransition:
    def test_depth_zero_is_single_leapfrog(self):
        """At max_tree_depth=0 the only candidate is one leapfrog step away."""
        rng = np.random.default_rng(6)
        moved = 0
        for _ in range(50):
            q = rng.normal(size=2)
            q2, info = nuts_transition(q, std_normal_logp_grad, 0.5, rng, np.ones(2), 0,
                                       *std_normal_logp_grad(q))
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
            q, _ = nuts_transition(q, std_normal_logp_grad, 0.4, rng, np.ones(10), 8,
                                   *std_normal_logp_grad(q))
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
            q, _ = nuts_transition(q, target.logp_grad, 0.25, rng, np.ones(2), 8,
                                   *target.logp_grad(q))
            draws[i] = q
        assert abs(np.corrcoef(draws.T)[0, 1] - rho) < 0.05

    def test_divergence_flagged_on_bad_step(self):
        def sharp(x):
            return -0.5e8 * float(x @ x), -1e8 * x

        rng = np.random.default_rng(12)
        x = np.array([1.0])
        _, info = nuts_transition(x, sharp, 1.0, rng, np.ones(1), 5, *sharp(x))
        assert info["divergent"]


def _unfactorable_beyond(radius):
    def logp_grad(x):
        if float(x @ x) > radius ** 2:
            raise NotPositiveDefiniteError("covariance not positive definite")
        return std_normal_logp_grad(x)
    return logp_grad


_ILL_SCALES = np.logspace(-2, 2, 5)


class TestNutsOracle:
    """The iterative transition matches the recursive one it replaced, bit for bit."""

    TARGETS = {  # name -> (logp_grad, dim)
        "gaussian": (GaussianTarget(np.zeros(3), np.array(
            [[1.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 2.0]])).logp_grad, 3),
        "sharp": (lambda x: (-0.5e8 * float(x @ x), -1e8 * x), 1),
        "unfactorable": (_unfactorable_beyond(3.0), 3),
        "ill_conditioned": (lambda x: (-0.5 * float((x / _ILL_SCALES) @ (x / _ILL_SCALES)),
                                       -x / _ILL_SCALES ** 2), 5),
    }

    @staticmethod
    def assert_same(a, b, where):
        assert type(a) is type(b), where
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), where

    def test_matches_recursive_reference(self):
        from nuts_reference import nuts_transition as reference

        depths, divergent, inner_stops, seed = set(), 0, 0, 0
        for name, (logp_grad, dim) in self.TARGETS.items():
            inv_mass = np.linspace(0.5, 2.0, dim)
            for step in (0.01, 0.3, 1.0, 3.0):
                for max_depth in range(11):
                    seed += 1
                    rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
                    x = 0.5 * rng_new.normal(size=dim)
                    rng_ref.normal(size=dim)
                    logp, grad = logp_grad(x)
                    for k in range(6):
                        where = (name, step, max_depth, k)
                        x_ref, s_ref = reference(x, logp_grad, step, rng_ref, inv_mass,
                                                 max_depth, logp, grad)
                        x, s_new = nuts_transition(x, logp_grad, step, rng_new,
                                                   inv_mass, max_depth, logp, grad)
                        self.assert_same(x_ref, x, where)
                        assert s_ref.keys() == s_new.keys()
                        for key in s_ref:
                            self.assert_same(s_ref[key], s_new[key], (*where, key))
                        assert rng_ref.bit_generator.state == rng_new.bit_generator.state, where
                        logp, grad = s_new["logp"], s_new["grad"]
                        depths.add(s_new["depth"])
                        divergent += s_new["divergent"]
                        # a full trajectory of 2^d - 1 steps, or one more whole subtree
                        full = (2 ** s_new["depth"] - 1, 2 ** (s_new["depth"] + 1) - 1)
                        inner_stops += s_new["n_steps"] not in full
        assert depths == set(range(11))
        assert divergent > 0 and inner_stops > 0


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
        x = np.zeros(5)
        eps = find_reasonable_step_size(std_normal_logp_grad, x, rng, np.ones(5),
                                        *std_normal_logp_grad(x))
        assert 0 < eps < 16


class TestRunChains:
    def test_requires_two_chains(self):
        with pytest.raises(SamplingError):
            run_chains(standard_target(3), n_chains=1, n_warmup=10, n_samples=10)

    @staticmethod
    def never_target():
        """A target whose density fails the test if a chain ever evaluates it."""
        def never(u):
            raise AssertionError("a chain ran")

        target = standard_target(1)
        target.logp_grad = never
        return target

    def test_requires_four_samples(self):
        """The samples setting's rule: the split-chain PSRF needs 4 draws per
        chain, so 3 are refused before any chain runs."""
        with pytest.raises(SamplingError, match="n_samples must be >= 4"):
            run_chains(self.never_target(), n_chains=2, n_warmup=10, n_samples=3)
        chains = run_chains(standard_target(1), n_chains=2, n_warmup=10, n_samples=4)
        assert chains.draws.shape == (2, 4, 1)
        assert np.isfinite(summarize(chains).worst_psrf())  # summarize takes them

    def test_refuses_negative_warmup(self):
        """The warmup setting's rule: a negative count once gave 5 draws per
        chain labelled as 10; it is refused before any chain runs."""
        with pytest.raises(SamplingError, match="n_warmup must be >= 0"):
            run_chains(self.never_target(), 2, -5, 10)

    def test_refuses_tree_depth_below_one(self):
        """The max_tree_depth setting's rule, checked before any chain runs."""
        with pytest.raises(SamplingError, match="max_tree_depth must be >= 1"):
            run_chains(self.never_target(), 2, 10, 10, max_tree_depth=0)

    @pytest.mark.parametrize("target_accept", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_refuses_target_accept_outside_unit_interval(self, target_accept):
        """The target_accept setting's rule, 0 < target_accept < 1, checked
        before any chain runs."""
        with pytest.raises(SamplingError, match="target_accept must be between 0 and 1"):
            run_chains(self.never_target(), 2, 10, 10, target_accept=target_accept)

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
        monkeypatch.setattr(sampler, "nuts_transition",  # re-evaluates its start state
                            lambda x, fn, *a: plain(x, fn, *a[:-2], *fn(x)))
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
        monkeypatch.setattr(sampler, "find_reasonable_step_size",  # re-evaluates x
                            lambda fn, x, *a: plain(fn, x, *a[:-2], *fn(x)))
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


class TestSecondMoments:
    """A distributional guard on the transition rule.

    ``TestNutsOracle`` and ``TestDiagonalDraws`` fail on any change to the
    draws, valid or not; this test fails on an invalid rule. On a 10-D iid
    standard normal, the mean of z^2 over all coordinates and draws is 1.
    Its standard error comes from batch means (20 batches of 200 draws per
    chain, 80 in all), and |z| < 4 has a two-sided false-alarm rate of about
    6e-5 under normality. A top-level merge that always takes the new
    subtree's proposal gives z of +6.8 to +11.4 at seeds 7-10.
    """

    def test_iid_gaussian_variance(self):
        chains = run_chains(standard_target(10), 4, 1000, 4000, seed=7)
        z2 = (chains.draws ** 2).mean(axis=2)  # (chain, draw), mean over coordinates
        batches = z2.reshape(4, 20, -1).mean(axis=2).ravel()
        z = (batches.mean() - 1.0) / (batches.std(ddof=1) / np.sqrt(batches.size))
        assert abs(z) < 4.0, f"mean z^2 = {batches.mean():.4f}, z = {z:+.2f}"

    def test_correlated_gaussian_variance(self):
        """The same guard on a correlated target, which the diagonal metric
        cannot whiten: AR(1) correlation 0.9 with sds from 0.3 to 3. The draws
        are whitened by the covariance's Cholesky factor, then judged as above."""
        sd = np.geomspace(0.3, 3.0, 10)
        lag = np.abs(np.subtract.outer(np.arange(10), np.arange(10)))
        cov = sd[:, None] * 0.9 ** lag * sd
        chains = run_chains(GaussianTarget(np.zeros(10), cov), 4, 1000, 4000, seed=7)
        white = np.linalg.solve(np.linalg.cholesky(cov), chains.flat().T)
        z2 = (white ** 2).mean(axis=0).reshape(4, -1)  # (chain, draw)
        batches = z2.reshape(4, 20, -1).mean(axis=2).ravel()
        z = (batches.mean() - 1.0) / (batches.std(ddof=1) / np.sqrt(batches.size))
        assert abs(z) < 4.0, f"mean z^2 = {batches.mean():.4f}, z = {z:+.2f}"


class TestDiagonalDraws:
    """The diagonal metric's draws, and the surfaces made from them, pinned by
    digest end to end.

    Three short fits on one worker, each 2 x (60 + 20): the 60 warmup
    iterations close one mass-matrix window, so the window update and the
    restarted step-size search are covered, not only the transitions. The
    Gaussian and life digests were recorded when the inverse mass was a bare
    array, before a ``Metric`` class held it, and hold unchanged now that it is
    one again; a change in the float order of the drift
    (``step * inv_mass * p`` against ``step * (inv_mass * p)``) moves them.
    The force-model and surface digests pin the float order of the kernel in
    the GP level and in the surfaces' mixture. They hold for float64 on x86_64
    with OpenBLAS; another BLAS build may round the GP's factorizations
    differently.
    """

    KW = dict(n_chains=2, n_warmup=60, n_samples=20)

    @staticmethod
    def digest(chains):
        return hashlib.sha256(chains.draws.tobytes()).hexdigest()

    @staticmethod
    def grid_digest(grid):
        return hashlib.sha256(np.stack([grid.mean, grid.sd]).tobytes()).hexdigest()

    @staticmethod
    def small_grid(controls):
        """A 5 x 4 grid over the hull of ``controls``."""
        (v_lo, f_lo), (v_hi, f_hi) = controls.min(axis=0), controls.max(axis=0)
        return v_lo, v_hi, 5, f_lo, f_hi, 4

    @pytest.fixture(scope="class")
    def life_fit(self):
        with pytest.MonkeyPatch.context() as m:
            use_workers(m, 1)
            records, _ = simulate_dataset(21, 20, seed=7)
            controls, life = life_data(records)
            return controls, life, run_chains(ToolLifeModel(controls, life), seed=7, **self.KW)

    @pytest.fixture(scope="class")
    def force_fit(self):
        with pytest.MonkeyPatch.context() as m:
            use_workers(m, 1)
            records, _ = simulate_dataset(8, 20, seed=7)
            return controls_array(records), run_chains(ForceChannelModel(records, "Ft"),
                                                       seed=7, **self.KW)

    def test_gaussian(self, monkeypatch):
        use_workers(monkeypatch, 1)
        target = GaussianTarget(np.array([1.0, -2.0, 0.5]), np.array(
            [[1.0, 0.6, 0.0], [0.6, 4.0, -0.3], [0.0, -0.3, 0.25]]))
        chains = run_chains(target, seed=3, **self.KW)
        assert self.digest(chains) == \
            "caff96833ec7618d84137ec311994bdd2c463b05f369dd1a0c06df2f929126a4"

    def test_tool_life(self, life_fit):
        assert self.digest(life_fit[-1]) == \
            "07eec4635ee5b3c6e3de4db491f0de29dd633fa0a8a49ebc7003028d6a0656e1"

    def test_life_surface(self, monkeypatch, life_fit):
        use_workers(monkeypatch, 1)
        controls, life, chains = life_fit
        grid = life_surface(chains, controls, life, self.small_grid(controls))
        assert self.grid_digest(grid) == \
            "a86e5b74cb59561ad891159391c4bde8c14b3ff9b66d51e38560396b32c870fc"

    def test_force_model(self, force_fit):
        assert self.digest(force_fit[1]) == \
            "2f3bd6bf0f132442340212dc66ee9ec3fbbba3ab219aba6cedca73f581f1922a"

    def test_force_surface(self, monkeypatch, force_fit):
        use_workers(monkeypatch, 1)
        controls, chains = force_fit
        grid = surface(chains, controls, self.small_grid(controls))
        assert self.grid_digest(grid) == \
            "4acc09d2f0ab85a4146eb0b611d3d9b0aa9df09931913ec9822055891a3b5921"
