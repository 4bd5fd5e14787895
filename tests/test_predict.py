"""Tests for GP prediction, response surfaces, tool life, and the Taylor fit."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import toolwear
from gp_reference import cov_matrix, dense_conditional
from toolwear import io as tio
from toolwear import kernel, sampler
from toolwear import predict as tpredict
from toolwear.cli import main
from toolwear.errors import (
    HYPERPARAMETERS,
    DegenerateFitError,
    DomainError,
    ExtrapolationError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    ValidationError,
)
from toolwear.kernel import JITTER_START, KernelConfig, Standardizer
from toolwear.model import ExperimentRecord, PriorConfig, life_data
from toolwear.predict import (
    SurfaceGrid,
    ToolLifeModel,
    fit_taylor,
    life_surface,
    surface,
    taylor_life,
)
from toolwear.sampler import ChainSet, run_chains


def node(chains, train, star):
    """Closed-form predictive (mean, sd) of the slope at the single node ``star``."""
    v, f = star
    grid = surface(chains, train, (v, v, 2, f, f, 2))
    return grid.mean[0, 0], grid.sd[0, 0]


def grid_nodes(grid):
    """All (v_c, f) pairs of ``grid`` in row-major node order, shape (n_nodes, 2)."""
    vv, ff = np.meshgrid(grid.v_axis, grid.f_axis, indexing="ij")
    return np.column_stack([vv.ravel(), ff.ravel()])


def force_chainset(flat_rows, names, seed=0):
    """Pack explicit per-draw parameter rows into a 1-chain ChainSet."""
    draws = np.asarray(flat_rows, dtype=float)[None]
    return ChainSet(
        draws=draws, param_names=names, n_warmup=0, n_retained=draws.shape[1],
        seed=seed, accept_stats=np.array([0.9]),
        divergences=np.zeros(1, dtype=int),
    )


def model_chainset(k, beta_rows, hyper, mu_beta=2.0, seed=0):
    """ChainSet shaped like a force-channel fit with given beta and hypers."""
    names = ([f"alpha[{i + 1}]" for i in range(k)]
             + [f"beta[{i + 1}]" for i in range(k)]
             + [f"sigma[{i + 1}]" for i in range(k)]
             + ["mu_alpha", "sigma_alpha", "mu_beta", "eta_sq", "rho1", "rho2",
                "sigma_b_sq"])
    rows = []
    for beta in beta_rows:
        rows.append(np.concatenate([np.full(k, 200.0), beta, np.full(k, 5.0),
                                    [200.0, 10.0, mu_beta], hyper]))
    return force_chainset(rows, names, seed=seed)


def margin_spec(train, nv, nf):
    """Grid spec of nv x nf nodes out to the extrapolation margin on both axes."""
    lo, hi = train.min(axis=0), train.max(axis=0)
    pad = tpredict.DEFAULT_MARGIN * (hi - lo)
    return (lo[0] - pad[0], hi[0] + pad[0], nv, lo[1] - pad[1], hi[1] + pad[1], nf)


class TestGpConditional:
    """Each draw's conditional, read off the surface of a one-draw ChainSet."""

    def test_noiseless_interpolation(self):
        train = np.array([[20.0, 20.0], [50.0, 32.0], [26.0, 47.0]])
        beta = np.array([1.0, -0.5, 2.0])
        chains = model_chainset(3, [beta], [2.0, 1.0, 1.0, 1e-12], mu_beta=0.3)
        for i in range(3):
            mean, sd = node(chains, train, train[i])
            assert mean == pytest.approx(beta[i], abs=1e-6)
            assert sd ** 2 == pytest.approx(0.0, abs=1e-8)

    def test_far_point_is_refused(self):
        """A point far outside the training hull is refused, not reverted to the prior."""
        train = np.array([[20.0, 20.0], [40.0, 30.0]])
        chains = model_chainset(2, [[5.0, -5.0]], [2.0, 1.0, 1.0, 0.3], mu_beta=0.7)
        with pytest.raises(ExtrapolationError):
            node(chains, train, (100.0, 100.0))

    def test_two_point_hand_system(self):
        """K=2, z-scored to (-1, -1) and (1, 1), rho = 1/8: solve the 2x2 system by hand."""
        train = np.array([[20.0, 20.0], [40.0, 30.0]])
        beta = np.array([1.0, 2.0])
        chains = model_chainset(2, [beta], [1.0, 0.125, 0.125, 1.0], mu_beta=0.0)
        # cov = [[d, e^-1], [e^-1, d]] with d = 2 + JITTER_START; k* = [1, e^-1]
        e, d = math.exp(-1.0), 2.0 + JITTER_START
        det = d * d - e * e
        w = np.array([(d - e * e) / det, e * (d - 1.0) / det])  # k* @ inv(cov)
        mean_hand = w @ beta
        var_hand = 2.0 - (w @ np.array([1.0, e]))
        mean, sd = node(chains, train, train[0])
        assert mean == pytest.approx(mean_hand, rel=1e-12)
        assert sd ** 2 == pytest.approx(var_hand, rel=1e-12)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            hyper = np.exp(rng.uniform(-1.5, 1.2, size=4))
            train = rng.uniform([20, 20], [60, 50], size=(k, 2))
            beta = rng.normal(size=k)
            grid = surface(model_chainset(k, [beta], hyper, mu_beta=0.4), train,
                           margin_spec(train, 3, 2))
            std = Standardizer.fit(train)
            m2, v2 = dense_conditional(beta, 0.4, KernelConfig(*hyper), std.transform(train),
                                       std.transform(grid_nodes(grid)))
            assert np.allclose(grid.mean.ravel(), m2, atol=1e-8)
            assert np.allclose(grid.sd.ravel() ** 2, np.maximum(v2, 0.0), atol=1e-8)

    def test_variance_bounds(self):
        rng = np.random.default_rng(33)
        hyper = [1.5, 0.8, 0.6, 0.2]
        train = rng.uniform([20, 20], [60, 50], size=(6, 2))
        chains = model_chainset(6, [rng.normal(size=6)], hyper, mu_beta=0.0)
        var = surface(chains, train, margin_spec(train, 8, 5)).sd ** 2
        assert np.all(var >= 0.0)
        assert np.all(var <= hyper[0] + hyper[3] + 1e-12)

    def test_mean_affine_in_beta(self):
        """Conditioning on 2*beta - mu*1 mirrors the mean about reversion."""
        rng = np.random.default_rng(35)
        hyper = [1.0, 1.0, 1.0, 0.5]
        train = rng.uniform([20, 20], [60, 50], size=(4, 2))
        beta = rng.normal(size=4)
        mu = 0.8
        star = train.mean(axis=0)
        m1, _ = node(model_chainset(4, [beta], hyper, mu_beta=mu), train, star)
        m2, _ = node(model_chainset(4, [2 * beta - mu], hyper, mu_beta=mu), train, star)
        assert m2 - mu == pytest.approx(2 * (m1 - mu), rel=1e-10)


class TestPredictiveDraws:
    def test_law_of_total_variance(self):
        """Fixed hyperparameters: predictive variance = E[var] + var[mean]."""
        rng = np.random.default_rng(37)
        k = 4
        train = rng.uniform(-1, 1, size=(k, 2))
        hyper = [1.2, 0.9, 1.1, 0.2]
        cfg = KernelConfig(*hyper)
        beta_rows = rng.normal(2.0, 0.7, size=(4000, k))
        chains = model_chainset(k, beta_rows, hyper, seed=5)
        star = np.array([0.2, 0.1])
        _, sd = node(chains, train, star)
        # replicate the implementation's z-scoring so the kernel sees the
        # same coordinates
        std = Standardizer.fit(train)
        x_train = std.transform(train)
        x_star = std.transform(star[None])
        # the conditional mean is linear in beta: one call conditions every draw
        means, var = dense_conditional(beta_rows.T, 2.0, cfg, x_train, x_star)
        expected = np.maximum(var[0], 0.0) + means[0].var()
        assert sd ** 2 == pytest.approx(expected, rel=1e-10)

    def test_interpolation_limit(self):
        rng = np.random.default_rng(39)
        k = 3
        train = rng.uniform(-1, 1, size=(k, 2))
        hyper = [1.0, 1.0, 1.0, 1e-10]
        beta_rows = rng.normal(1.5, 0.05, size=(500, k))
        chains = model_chainset(k, beta_rows, hyper, seed=7)
        mean, _ = node(chains, train, train[1])
        assert mean == pytest.approx(beta_rows[:, 1].mean(), abs=0.02)

    def test_deterministic_given_chainset(self):
        """The node moments repeat bit for bit and do not depend on the seed."""
        rng = np.random.default_rng(41)
        k = 3
        train = rng.uniform(-1, 1, size=(k, 2))
        beta_rows = rng.normal(size=(100, k))
        chains = model_chainset(k, beta_rows, [1.0, 1.0, 1.0, 0.1])
        reseeded = model_chainset(k, beta_rows, [1.0, 1.0, 1.0, 0.1], seed=99)
        star = np.array([0.0, 0.0])
        assert node(chains, train, star) == node(chains, train, star) \
            == node(reseeded, train, star)


class TestSurface:
    def make_chains(self, rng, train, n_draws=200):
        k = len(train)
        return model_chainset(k, rng.normal(2.0, 0.5, size=(n_draws, k)),
                              [1.0, 1.0, 1.0, 0.1])

    def test_default_grid_is_400_nodes(self):
        rng = np.random.default_rng(43)
        train = rng.uniform([20, 20], [60, 50], size=(6, 2))
        grid = surface(self.make_chains(rng, train), train)
        assert grid.n_nodes == 400
        assert grid.mean.shape == (20, 20)

    def test_two_by_two_grid_hits_corners(self):
        rng = np.random.default_rng(45)
        train = rng.uniform([20, 20], [60, 50], size=(5, 2))
        v0, v1 = train[:, 0].min(), train[:, 0].max()
        f0, f1 = train[:, 1].min(), train[:, 1].max()
        spec = (v0, v1, 2, f0, f1, 2)
        grid = surface(self.make_chains(rng, train), train, grid_spec=spec)
        assert grid.n_nodes == 4
        assert np.allclose(grid.v_axis, [v0, v1])
        assert np.allclose(grid.f_axis, [f0, f1])

    def test_sd_nonnegative_and_deterministic(self):
        rng = np.random.default_rng(47)
        train = rng.uniform([20, 20], [60, 50], size=(5, 2))
        chains = self.make_chains(rng, train)
        g1 = surface(chains, train)
        g2 = surface(chains, train)
        assert np.all(g1.sd >= 0.0)
        assert np.array_equal(g1.mean, g2.mean)
        assert np.array_equal(g1.sd, g2.sd)

    def test_extrapolation_guard(self):
        rng = np.random.default_rng(49)
        train = rng.uniform([30, 30], [50, 45], size=(5, 2))
        chains = self.make_chains(rng, train)
        spec = (10.0, 80.0, 5, 30.0, 45.0, 5)
        with pytest.raises(ExtrapolationError):
            surface(chains, train, grid_spec=spec)

    def test_resolution_must_be_at_least_two(self):
        rng = np.random.default_rng(51)
        train = rng.uniform([20, 20], [60, 50], size=(5, 2))
        chains = self.make_chains(rng, train)
        with pytest.raises(DomainError):
            surface(chains, train, grid_spec=(25.0, 55.0, 1, 25.0, 45.0, 5))

    @pytest.mark.parametrize("bound", [0, 1, 3, 4])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_grid_bounds_must_be_finite(self, bound, value):
        rng = np.random.default_rng(52)
        train = rng.uniform([20, 20], [60, 50], size=(5, 2))
        spec = [train[:, 0].min(), train[:, 0].max(), 5, train[:, 1].min(),
                train[:, 1].max(), 5]
        spec[bound] = value
        with pytest.raises(DomainError, match="grid bounds must be finite"):
            surface(self.make_chains(rng, train), train, grid_spec=tuple(spec))

    @pytest.mark.parametrize("column", ["beta[2]", "mu_beta", "rho2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_draws_are_rejected(self, column, value):
        """In-memory draws bypass the CSV reader's check; the conditional rejects them."""
        rng = np.random.default_rng(53)
        train = rng.uniform([20, 20], [60, 50], size=(5, 2))
        chains = self.make_chains(rng, train, n_draws=20)
        chains.draws[0, 7, chains.param_names.index(column)] = value
        with pytest.raises(ValidationError, match="non-finite"):
            surface(chains, train)

    @pytest.mark.parametrize("column", HYPERPARAMETERS)
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_hyperparameters_are_rejected(self, column, value):
        """In-memory draws bypass the CSV reader's check; the conditional rejects them."""
        rng = np.random.default_rng(54)
        train = rng.uniform([20, 20], [60, 50], size=(5, 2))
        chains = self.make_chains(rng, train, n_draws=20)
        chains.draws[0, 7, chains.param_names.index(column)] = value
        with pytest.raises(DomainError, match=f"^{column} must be strictly positive$"):
            surface(chains, train)


def mixed_chainsets(rng, k, n_draws=150, seed=5):
    """(force, life) ChainSets whose hyperparameters vary from draw to draw."""
    hyper = np.exp(rng.normal([0.0, 0.0, 0.0, -2.0], 0.3, size=(n_draws, 4)))
    force = force_chainset(
        np.column_stack([rng.normal(2.0, 0.5, size=(n_draws, k)),
                         rng.normal(2.0, 0.1, size=n_draws), hyper]),
        [f"beta[{i + 1}]" for i in range(k)] + ["mu_beta", *HYPERPARAMETERS], seed=seed)
    life = force_chainset(np.column_stack([rng.normal(4.0, 0.1, size=n_draws), hyper]),
                          ["mu_life", *HYPERPARAMETERS], seed=seed)
    return force, life


def dense_moments(chains, train, nodes, y=None):
    """Per-draw conditional (mean, var) at ``nodes``, each (draws, nodes), by dense inverse."""
    std = Standardizer.fit(train)
    x_train, x_nodes = std.transform(train), std.transform(nodes)
    idx = {n: i for i, n in enumerate(chains.param_names)}
    means, variances = [], []
    for row in chains.flat():
        cfg = KernelConfig(*(row[idx[n]] for n in HYPERPARAMETERS))
        if y is None:
            field = row[[idx[f"beta[{i + 1}]"] for i in range(len(train))]]
            mu = row[idx["mu_beta"]]
        else:
            field, mu = y, row[idx["mu_life"]]
        m, v = dense_conditional(field, mu, cfg, x_train, x_nodes)
        means.append(m)
        variances.append(v)
    return np.array(means), np.array(variances)


def lognormal(m, v):
    """Per-draw (mean, var) of the life, given those of the log life."""
    return np.exp(m + v / 2), np.expm1(v) * np.exp(2 * m + v)


def by_chains(chains, n_chains):
    """The draws of a 1-chain ChainSet split into ``n_chains`` chains of equal length."""
    draws = chains.draws.reshape(n_chains, -1, chains.draws.shape[2])
    return replace(chains, draws=draws, n_retained=draws.shape[1])


def write_predict_inputs(directory, rng, k=21, n_draws=100, n_chains=1, grid_size=60):
    """``controls.csv``, ``draws_Ft.csv`` and ``draws_life.csv`` of K experiments
    in ``directory``; returns the ``--grid`` of a grid_size^2 grid over their hull."""
    train = rng.uniform([20, 20], [60, 50], size=(k, 2))
    life = rng.uniform(10.0, 255.0, size=k)
    (directory / "controls.csv").write_text("\n".join(
        ["id,v_c,f,tool_life"] + [f"{i + 1},{v!r},{f!r},{t!r}"
                                  for i, ((v, f), t) in enumerate(zip(train.tolist(),
                                                                      life.tolist()))]))
    force, life_chains = mixed_chainsets(rng, k, n_draws=n_draws)
    tio.write_draws_csv(directory / "draws_Ft.csv", by_chains(force, n_chains))
    tio.write_draws_csv(directory / "draws_life.csv", by_chains(life_chains, n_chains))
    lo, hi = train.min(axis=0).tolist(), train.max(axis=0).tolist()
    return f"{lo[0]!r}:{hi[0]!r}:{grid_size},{lo[1]!r}:{hi[1]!r}:{grid_size}"


def predict_cli(directory, channel, grid, out, draws=None):
    """Exit code of ``toolwear predict`` on the inputs in ``directory``."""
    draws = draws or directory / f"draws_{channel}.csv"
    return main(["predict", "--draws", str(draws), "--controls", str(directory / "controls.csv"),
                 "--channel", channel, "--grid", grid, "-o", str(out)])


def use_workers(monkeypatch, n):
    monkeypatch.setattr(sampler, "_worker_count", lambda n_tasks: n)


class TestClosedFormSurfaces:
    """Surfaces report the exact moments of the mixture of per-draw conditionals."""

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        train = rng.uniform([20, 20], [60, 50], size=(6, 2))
        life = rng.uniform(10.0, 255.0, size=6)
        return (train, life, *mixed_chainsets(rng, 6))

    def test_surface_matches_dense_mixture(self):
        train, _, force, _ = self.inputs(61)
        grid = surface(force, train)
        m, v = dense_moments(force, train, grid_nodes(grid))
        mean = m.mean(axis=0)
        sd = np.sqrt(v.mean(axis=0) + m.var(axis=0))
        assert np.allclose(grid.mean.ravel(), mean, rtol=1e-10, atol=0.0)
        assert np.allclose(grid.sd.ravel(), sd, rtol=1e-10, atol=0.0)

    def test_life_surface_matches_lognormal_mixture(self):
        train, life, _, chains = self.inputs(63)
        grid = life_surface(chains, train, life)
        m, v = dense_moments(chains, train, grid_nodes(grid), y=np.log(life))
        node_mean = np.exp(m + v / 2)
        node_var = np.expm1(v) * np.exp(2 * m + v)
        sd = np.sqrt(node_var.mean(axis=0) + node_mean.var(axis=0))
        assert np.allclose(grid.mean.ravel(), node_mean.mean(axis=0), rtol=1e-10, atol=0.0)
        assert np.allclose(grid.sd.ravel(), sd, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("nv, nf", [(2, 7), (7, 2)])
    def test_non_square_grids_match_dense_mixture(self, nv, nf):
        """Unequal axes catch a v/f transposition or a wrong reshape."""
        train, life, force, life_chains = self.inputs(67)
        lo, hi = train.min(axis=0), train.max(axis=0)
        spec = (lo[0], hi[0], nv, lo[1], hi[1], nf)
        force_grid = surface(force, train, grid_spec=spec)
        life_grid = life_surface(life_chains, train, life, grid_spec=spec)
        for grid, (m, v) in (
                (force_grid, dense_moments(force, train, grid_nodes(force_grid))),
                (life_grid, lognormal(*dense_moments(life_chains, train, grid_nodes(life_grid),
                                                     y=np.log(life))))):
            assert grid.mean.shape == grid.sd.shape == (nv, nf)
            assert np.allclose(grid.mean.ravel(), m.mean(axis=0), rtol=1e-10, atol=0.0)
            assert np.allclose(grid.sd.ravel(), np.sqrt(v.mean(axis=0) + m.var(axis=0)),
                               rtol=1e-10, atol=0.0)

    def test_surface_is_mixture_of_gp_conditional(self, monkeypatch):
        """At every node the surface equals the mixture of the dense-inverse
        conditionals taken on the standardized inputs, also for draws whose
        factor needs an escalated jitter. Those draws have eta_sq = 1 and a
        nugget of 1e-12 eta_sq; a small nugget alone never rounds a K = 6 kernel
        matrix indefinite, so LAPACK is made to refuse their first jitter level,
        and the oracle puts the next level, 10 JITTER_START eta_sq, on their
        diagonal."""
        use_workers(monkeypatch, 1)  # the refusals are counted in this process
        train, _, force, _ = self.inputs(69)
        idx = {n: i for i, n in enumerate(force.param_names)}
        force.draws[0, ::10, idx["eta_sq"]] = 1.0
        force.draws[0, ::10, idx["sigma_b_sq"]] = 1e-12
        refused = []
        dpotrf = kernel.dpotrf

        def first_level_refused(cov, **kw):
            chol, info = dpotrf(cov, **kw)
            if abs(cov[0, 0] - 1.0 - 1e-12 - JITTER_START) < 1e-13:  # eta_sq = 1, first try
                refused.append(cov[0, 0])
                return chol, 1
            return chol, info

        monkeypatch.setattr(kernel, "dpotrf", first_level_refused)
        grid = surface(force, train)
        n_refused = len(refused)
        assert n_refused == len(force.draws[0, ::10])
        std = Standardizer.fit(train)
        x_train, x_nodes = std.transform(train), std.transform(grid_nodes(grid))
        means, variances = [], []
        for d, row in enumerate(force.flat()):
            cfg = KernelConfig(*(row[idx[n]] for n in HYPERPARAMETERS))
            cov = cov_matrix(x_train, cfg)
            if d % 10 == 0:  # a refused draw
                cov[np.diag_indices_from(cov)] = (cfg.eta_sq + cfg.sigma_b_sq
                                                  + 10 * JITTER_START * cfg.eta_sq)
            m, v = dense_conditional(row[[idx[f"beta[{i + 1}]"] for i in range(len(train))]],
                                     row[idx["mu_beta"]], cfg, x_train, x_nodes, cov)
            means.append(m)
            variances.append(np.maximum(v, 0.0))
        m, v = np.array(means), np.array(variances)
        assert np.allclose(grid.mean.ravel(), m.mean(axis=0), rtol=1e-12, atol=0.0)
        assert np.allclose(grid.sd.ravel(), np.sqrt(v.mean(axis=0) + m.var(axis=0)),
                           rtol=1e-12, atol=0.0)

    def test_blas_thread_count_does_not_change_surfaces(self, tmp_path):
        """``toolwear predict`` on K = 21 draws over a 60 x 60 grid writes the
        same bytes with one and with two BLAS threads."""
        grid = write_predict_inputs(tmp_path, np.random.default_rng(71))
        script = ("import sys; from toolwear.cli import main; d = sys.argv[1]; sys.exit(max("
                  "main(['predict', '--draws', f'{d}/draws_{c}.csv', '--controls', "
                  "f'{d}/controls.csv', '--channel', c, '--grid', sys.argv[2], "
                  "'-o', f'{d}/{sys.argv[3]}_{c}.csv']) for c in ('Ft', 'life')))")
        src = str(Path(toolwear.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", script, str(tmp_path), grid, f"t{threads}"],
                           env=env, check=True, capture_output=True)
        for channel in ("Ft", "life"):
            one = (tmp_path / f"t1_{channel}.csv").read_bytes()
            assert one.count(b"\n") == 60 * 60 + 1
            assert one == (tmp_path / f"t2_{channel}.csv").read_bytes()

    def test_independent_of_seed_and_storage(self, tmp_path):
        """Seed, and a CSV round-trip (which resets the seed) with and without the
        per-chain sidecar, give one surface."""
        train, life, force, life_chains = self.inputs(65)

        def variants(chains, name):
            yield replace(chains, seed=chains.seed + 1)
            path = tmp_path / f"{name}.csv"
            tio.write_draws_csv(path, chains)
            yield tio.read_draws(path)
            tio.write_chain_stats(tio.chains_path(path),
                                  replace(chains, step_sizes=np.full(chains.n_chains, 0.5)))
            yield tio.read_draws(path)

        for chains, name, make in (
                (force, "force", lambda c: surface(c, train)),
                (life_chains, "life", lambda c: life_surface(c, train, life))):
            ref = make(chains)
            for other in variants(chains, name):
                grid = make(other)
                assert np.array_equal(grid.mean, ref.mean)
                assert np.array_equal(grid.sd, ref.sd)


class TestChainWorkers:
    """Surfaces are built one fork_map task per chain and pooled in chain order."""

    def test_surfaces_do_not_depend_on_workers(self, tmp_path, monkeypatch):
        """``predict`` on K = 21 draws in 4 chains over a 60 x 60 grid writes
        the same bytes on 1, 2 and 3 workers."""
        grid = write_predict_inputs(tmp_path, np.random.default_rng(73), n_chains=4)
        files = []
        for n in (1, 2, 3):
            use_workers(monkeypatch, n)
            for channel in ("Ft", "life"):
                assert predict_cli(tmp_path, channel, grid, tmp_path / f"{n}_{channel}.csv") == 0
            files.append([(tmp_path / f"{n}_{c}.csv").read_bytes() for c in ("Ft", "life")])
        assert files[0][0].count(b"\n") == 60 * 60 + 1
        assert files[0] == files[1] == files[2]

    def test_pooled_chains_match_one_pass_over_all_draws(self, monkeypatch):
        """Pooling 5 chains' summaries gives the moments of the same draws
        taken as a single chain, to rounding."""
        use_workers(monkeypatch, 2)
        rng = np.random.default_rng(75)
        train, life = rng.uniform([20, 20], [60, 50], size=(6, 2)), rng.uniform(10, 255, size=6)
        force, life_chains = mixed_chainsets(rng, 6, n_draws=150)
        for make, chains in ((lambda c: surface(c, train), force),
                             (lambda c: life_surface(c, train, life), life_chains)):
            one, pooled = make(chains), make(by_chains(chains, 5))
            assert np.allclose(pooled.mean, one.mean, rtol=1e-12, atol=0.0)
            assert np.allclose(pooled.sd, one.sd, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name, value, size", [
        ("_BLOCK_DRAWS", 1, 1),
        ("_BLOCK_BYTES", 16 * 400 * 7, 7),  # 2 buffers x 8 bytes x 20 x 20 nodes x 7 draws
    ])
    def test_smaller_blocks_match_the_default(self, monkeypatch, name, value, size):
        """Blocks of 1 and of 7 draws (the last one ragged) give the surfaces
        of the default 64 to rounding; the number of pooled blocks shows the
        block size in use."""
        use_workers(monkeypatch, 1)
        rng = np.random.default_rng(81)
        train, life = rng.uniform([20, 20], [60, 50], size=(6, 2)), rng.uniform(10, 255, size=6)
        force, life_chains = mixed_chainsets(rng, 6, n_draws=150)
        makes = (lambda: surface(force, train), lambda: life_surface(life_chains, train, life))
        default = [make() for make in makes]
        pooled = []
        pool = tpredict._pool
        monkeypatch.setattr(tpredict, "_pool", lambda a, b: pooled.append(1) or pool(a, b))
        monkeypatch.setattr(tpredict, name, value)
        for make, ref in zip(makes, default):
            pooled.clear()
            grid = make()
            assert len(pooled) == math.ceil(150 / size) - 1
            assert np.allclose(grid.mean, ref.mean, rtol=1e-12, atol=0.0)
            assert np.allclose(grid.sd, ref.sd, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("fault, what", [
        ("missing column", "draws lack column 'rho2'"),
        ("extra slope", "draws have column 'beta[22]' beyond the 21 experiments given"),
        ("non-finite", "parameter values must be finite"),
        ("non-positive", "rho1 must be strictly positive"),
    ])
    def test_bad_draws_exit_1_before_any_worker(self, tmp_path, monkeypatch, capsys, fault, what):
        grid = write_predict_inputs(tmp_path, np.random.default_rng(77), n_draws=40, n_chains=4)
        chains = tio.read_draws_csv(tmp_path / "draws_Ft.csv")
        names, draws = list(chains.param_names), chains.draws
        if fault == "missing column":
            keep = [i for i, n in enumerate(names) if n != "rho2"]
            names, draws = [names[i] for i in keep], draws[:, :, keep]
        elif fault == "extra slope":
            names, draws = names + ["beta[22]"], np.concatenate([draws, draws[:, :, :1]], axis=2)
        else:
            draws = draws.copy()
            if fault == "non-finite":
                draws[2, 5, names.index("mu_beta")] = math.nan
            else:  # rho1 comes first in chain, draw, column order
                draws[2, 5, names.index("rho1")] = -0.5
                draws[2, 5, names.index("sigma_b_sq")] = 0.0
                draws[3, 0, names.index("eta_sq")] = -1.0
        bad = tmp_path / "bad.csv"
        tio.write_draws_csv(bad, replace(chains, draws=draws, param_names=names))
        mapped = []
        monkeypatch.setattr(tpredict, "fork_map", lambda fn, n: mapped.append(n))
        errors = []
        for n in (1, 2):
            use_workers(monkeypatch, n)
            assert predict_cli(tmp_path, "Ft", grid, tmp_path / "s.csv", draws=bad) == 1
            errors.append(capsys.readouterr().err)
        assert what in errors[0] and errors[0] == errors[1]
        assert mapped == [] and not (tmp_path / "s.csv").exists()

    def test_unfactorable_draw_in_a_worker_keeps_its_class(self, tmp_path, monkeypatch, capsys):
        grid = write_predict_inputs(tmp_path, np.random.default_rng(79), n_draws=40, n_chains=4)
        monkeypatch.setattr(kernel, "dpotrf", lambda cov, **kw: (cov, 1))
        use_workers(monkeypatch, 2)
        chains = tio.read_draws_csv(tmp_path / "draws_life.csv")
        records = tio.load_controls(tmp_path / "controls.csv")
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            life_surface(chains, [[r.v_c, r.f] for r in records], [r.tool_life for r in records])
        assert predict_cli(tmp_path, "Ft", grid, tmp_path / "s.csv") == 1
        err = capsys.readouterr().err
        assert "error: covariance not positive definite" in err and "internal error" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_clamping_warns_once_in_the_caller(self, monkeypatch):
        """A worker's warning would not reach the caller; the lowest variance of
        all chains comes back with their summaries and is warned about once."""
        dtrtri = tpredict.dtrtri
        monkeypatch.setattr(tpredict, "dtrtri",
                            lambda chol, lower: (3.0 * dtrtri(chol, lower=lower)[0], 0))
        rng = np.random.default_rng(81)
        train = rng.uniform([20, 20], [60, 50], size=(6, 2))
        force = by_chains(mixed_chainsets(rng, 6, n_draws=120)[0], 4)
        messages = []
        for n in (1, 2):
            use_workers(monkeypatch, n)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                grid = surface(force, train)
            assert len(caught) == 1 and "clamping to 0" in str(caught[0].message)
            messages.append(str(caught[0].message))
            assert np.all(grid.sd >= 0.0)
        assert messages[0] == messages[1] and "conditional variance fell to -" in messages[0]


class TestToolLife:
    @staticmethod
    def life_records(settings, lives):
        records = []
        for i, ((v, f), life) in enumerate(zip(settings, lives), start=1):
            records.append(ExperimentRecord(
                id=i, v_c=v, f=f, length=np.array([1.0, 2.0]),
                forces={ch: np.array([0.0, 0.0]) for ch in ("Ft", "Ff", "Fp")},
                tool_life=float(life),
            ))
        return records

    @staticmethod
    def life_model(rng, k):
        controls = rng.uniform([20, 20], [60, 50], size=(k, 2))
        return ToolLifeModel(controls, rng.uniform(10.0, 255.0, size=k))

    @staticmethod
    def random_state(rng):
        return np.concatenate([[rng.normal(4.0, 1.0)], rng.uniform(-2.0, 2.0, size=4)])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(57)
        h = 1e-5
        for k in (3, 5, 8, 21):
            model = self.life_model(rng, k)
            for _ in range(10):
                u = self.random_state(rng)
                _, grad = model.logp_grad(u)
                for j in range(model.dim):
                    e = np.zeros(model.dim)
                    e[j] = h
                    fd = (model.logp_grad(u + e)[0] - model.logp_grad(u - e)[0]) / (2 * h)
                    assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_density_matches_dense_mvn(self):
        """GP term against a dense MVN log density, hyperpriors from scipy."""
        rng = np.random.default_rng(59)
        pri = PriorConfig()
        for k in (3, 5, 21):
            model = self.life_model(rng, k)
            x = Standardizer.fit(model.controls).transform(model.controls)
            for _ in range(10):
                u = self.random_state(rng)
                m, eta_sq, rho1, rho2, sb_sq = model.constrain(u)
                cfg = KernelConfig(eta_sq, rho1, rho2, sb_sq)
                cov = cov_matrix(x, cfg)
                gp = stats.multivariate_normal.logpdf(model.y, mean=np.full(k, m), cov=cov)
                hyper = stats.norm.logpdf(m, 0.0, pri.mu_beta_sd)
                hyper += stats.halfcauchy.logpdf(eta_sq, scale=pri.eta_sq_scale) + u[1]
                hyper += stats.halfcauchy.logpdf(sb_sq, scale=pri.sigma_b_sq_scale) + u[4]
                for t, rho in ((u[2], rho1), (u[3], rho2)):
                    hyper += stats.halfcauchy.logpdf(1.0 / rho, scale=pri.inv_rho_scale) - t
                assert model.logp_grad(u)[0] == pytest.approx(gp + hyper, rel=1e-10)

    def test_requires_three_lives(self):
        records = self.life_records([(20, 45), (58, 22.5)], [255.0, 10.0])
        with pytest.raises(InsufficientDataError):
            run_chains(ToolLifeModel(*life_data(records)), n_chains=2, n_warmup=10,
                       n_samples=10)

    def test_constant_life_field(self):
        rng = np.random.default_rng(53)
        settings = rng.uniform([20, 20], [60, 50], size=(8, 2))
        records = self.life_records(settings, np.full(8, 50.0))
        with pytest.raises(DegenerateFitError, match="all tool lives equal"):
            run_chains(ToolLifeModel(*life_data(records)), n_chains=2, n_warmup=300,
                       n_samples=300, seed=11)

    def test_life_surface_spans_training_envelope(self):
        rng = np.random.default_rng(55)
        settings = rng.uniform([20, 20], [60, 50], size=(10, 2))
        lives = np.exp(np.log(255) - (settings[:, 0] - 20) / 40 * np.log(25.5))
        records = self.life_records(settings, lives)
        chains = run_chains(ToolLifeModel(*life_data(records)), n_chains=2, n_warmup=300,
                            n_samples=300, seed=13)
        grid = life_surface(chains, settings, lives)
        lo = lives.min() - 3.0 * grid.sd.max()
        hi = lives.max() + 3.0 * grid.sd.max()
        assert np.all(grid.mean >= lo) and np.all(grid.mean <= hi)


class TestTaylor:
    def test_exact_recovery(self):
        n, c = 0.25, 100.0
        t = np.array([5.0, 20.0, 80.0, 200.0])
        v = c / t**n
        fit = fit_taylor(list(zip(v, t)))
        assert fit.n == pytest.approx(n, abs=1e-10)
        assert fit.C == pytest.approx(c, rel=1e-10)
        assert fit.residual_sd == pytest.approx(0.0, abs=1e-10)

    def test_two_point_closed_form(self):
        fit = fit_taylor([(20.0, 255.0), (58.0, 10.0)])
        n_hand = math.log(58.0 / 20.0) / math.log(255.0 / 10.0)
        assert fit.n == pytest.approx(n_hand, rel=1e-12)
        assert fit.C == pytest.approx(20.0 * 255.0**n_hand, rel=1e-12)

    def test_replicate_leaves_fit_unchanged(self):
        base = fit_taylor([(20.0, 255.0), (58.0, 10.0)])
        # replicating an endpoint only reweights; a 2-parameter line through
        # 2 distinct x-values is exact either way
        rep = fit_taylor([(20.0, 255.0), (58.0, 10.0), (58.0, 10.0)])
        assert rep.n == pytest.approx(base.n, rel=1e-12)
        assert rep.C == pytest.approx(base.C, rel=1e-12)

    def test_taylor_life_inverts_fit(self):
        fit = fit_taylor([(20.0, 255.0), (58.0, 10.0)])
        assert taylor_life(fit, 20.0) == pytest.approx(255.0, rel=1e-9)
        assert taylor_life(fit, 58.0) == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("v_c", [0.0, -20.0])
    def test_taylor_life_refuses_non_positive_speed(self, v_c):
        fit = fit_taylor([(20.0, 255.0), (58.0, 10.0)])
        with pytest.raises(DomainError, match="cutting speed must be positive"):
            taylor_life(fit, v_c)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fit_taylor([(20.0, -5.0), (30.0, 10.0)])
        with pytest.raises(DomainError):
            fit_taylor([(0.0, 5.0), (30.0, 10.0)])
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="must be finite"):
                fit_taylor([(20.0, bad), (30.0, 10.0)])
            with pytest.raises(DomainError, match="must be finite"):
                fit_taylor([(bad, 5.0), (30.0, 10.0)])
        with pytest.raises(InsufficientDataError):
            fit_taylor([(20.0, 255.0)])
        with pytest.raises(DegenerateFitError):
            fit_taylor([(30.0, 255.0), (30.0, 10.0)])
