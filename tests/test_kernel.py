"""Tests for the squared-exponential kernel, its jittered factor, and the dense
covariance builders of ``gp_reference`` that the GP tests compare against."""

import math

import numpy as np
import pytest

from gp_reference import cov_matrix, cross_cov
from toolwear import kernel
from toolwear.errors import DomainError, NotPositiveDefiniteError
from toolwear.kernel import (
    JITTER_MAX,
    JITTER_START,
    JITTER_TRIES,
    KernelConfig,
    Standardizer,
    cholesky_cov,
    jittered_cholesky,
    unit_kernel,
)


def kernel_eval(a, b, cfg):
    """Covariance between two single control points, through :func:`unit_kernel`."""
    (av, af), (bv, bf) = a, b
    return float(cfg.eta_sq * unit_kernel(cfg.rho1, cfg.rho2, (av - bv) ** 2, (af - bf) ** 2))


def random_config(rng):
    return KernelConfig(
        eta_sq=float(rng.uniform(0.1, 10)),
        rho1=float(rng.uniform(0.05, 5)),
        rho2=float(rng.uniform(0.05, 5)),
        sigma_b_sq=float(rng.uniform(0.01, 2)),
    )


class TestKernelEval:
    def test_zero_distance_gives_signal_variance(self):
        cfg = KernelConfig(eta_sq=3.7, rho1=1.0, rho2=2.0, sigma_b_sq=0.5)
        assert kernel_eval((40.0, 35.0), (40.0, 35.0), cfg) == pytest.approx(3.7)

    def test_unit_distance_hand_value(self):
        cfg = KernelConfig(eta_sq=1.0, rho1=1.0, rho2=1.0, sigma_b_sq=0.5)
        assert kernel_eval((1.0, 0.0), (0.0, 0.0), cfg) == pytest.approx(math.exp(-1.0))
        assert kernel_eval((0.0, 2.0), (0.0, 0.0), cfg) == pytest.approx(math.exp(-4.0))

    def test_decay_limit(self):
        cfg = KernelConfig(eta_sq=1.0, rho1=1.0, rho2=1.0, sigma_b_sq=0.5)
        assert kernel_eval((6.0, 0.0), (0.0, 0.0), cfg) < 1e-12

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            cfg = random_config(rng)
            a, b = rng.uniform(-5, 5, size=(2, 2))
            kab = kernel_eval(a, b, cfg)
            assert kab == kernel_eval(b, a, cfg)
            assert 0.0 < kab <= cfg.eta_sq
        cfg = random_config(rng)
        a = rng.uniform(-5, 5, size=2)
        assert kernel_eval(a, a, cfg) == cfg.eta_sq

    def test_strict_monotone_decay_per_axis(self):
        cfg = KernelConfig(eta_sq=2.0, rho1=0.7, rho2=1.3, sigma_b_sq=0.5)
        dv = [kernel_eval((d, 0.0), (0.0, 0.0), cfg) for d in np.linspace(0, 3, 10)]
        df = [kernel_eval((0.0, d), (0.0, 0.0), cfg) for d in np.linspace(0, 3, 10)]
        assert all(a > b for a, b in zip(dv, dv[1:]))
        assert all(a > b for a, b in zip(df, df[1:]))

    def test_config_requires_positive_fields(self):
        for bad in (dict(eta_sq=0.0), dict(rho1=-1.0), dict(rho2=0.0), dict(sigma_b_sq=0.0)):
            kwargs = dict(eta_sq=1.0, rho1=1.0, rho2=1.0, sigma_b_sq=0.5)
            kwargs.update(bad)
            with pytest.raises(DomainError):
                KernelConfig(**kwargs)


class TestCovMatrix:
    def test_single_point(self):
        cfg = KernelConfig(eta_sq=1.0, rho1=1.0, rho2=1.0, sigma_b_sq=0.5)
        m = cov_matrix(np.array([[40.0, 35.0]]), cfg)
        assert m.shape == (1, 1)
        assert m[0, 0] == 1.0 + 0.5 + JITTER_START  # exactly: approx would not see the jitter

    def test_coincident_pair_hand_value(self):
        cfg = KernelConfig(eta_sq=1.0, rho1=1.0, rho2=1.0, sigma_b_sq=0.5)
        m = cov_matrix(np.array([[3.0, 4.0], [3.0, 4.0]]), cfg)
        assert np.allclose(m, [[1.5, 1.0], [1.0, 1.5]])
        assert np.allclose(np.sort(np.linalg.eigvalsh(m)), [0.5, 2.5])

    def test_exact_symmetry(self):
        rng = np.random.default_rng(4)
        cfg = random_config(rng)
        pts = rng.uniform(-3, 3, size=(21, 2))
        m = cov_matrix(pts, cfg)
        assert np.array_equal(m, m.T)

    def test_positive_definite_over_random_configs(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            cfg = random_config(rng)
            pts = rng.uniform(-3, 3, size=(int(rng.integers(1, 9)), 2))
            np.linalg.cholesky(cov_matrix(pts, cfg))

    def test_jitter_escalation_handles_duplicates(self):
        """Many coincident points factor thanks to jitter escalation, and the
        reported jitter is the one on the factor's diagonal."""
        cfg = KernelConfig(eta_sq=1.0, rho1=1.0, rho2=1.0, sigma_b_sq=1e-300)
        pts = np.zeros((6, 2))
        chol, jitter = cholesky_cov(pts, cfg)
        assert np.all(np.isfinite(chol))
        assert 0 < jitter <= 1e-4 * cfg.eta_sq
        assert np.allclose(np.diag(chol @ chol.T) - cfg.eta_sq - cfg.sigma_b_sq,
                           jitter, rtol=1e-4, atol=0)
        # a kernel matrix rounded slightly indefinite (eigenvalue -5e-9 * eta_sq)
        # needs two escalation steps: 1e-10 and 1e-9 fail, 1e-8 factors
        eta_sq, sigma_b_sq = 3.0, 1e-300
        e_mat = np.array([[1.0, 1.0 + 5e-9], [1.0 + 5e-9, 1.0]])
        chol, jitter = jittered_cholesky(e_mat, eta_sq, sigma_b_sq)
        assert jitter == pytest.approx(1e-8 * eta_sq, rel=1e-12)
        expected = eta_sq * e_mat + (sigma_b_sq + jitter) * np.eye(2)
        assert np.allclose(chol @ chol.T, expected, rtol=0, atol=1e-14)

    def test_cholesky_failure_raises(self, monkeypatch):
        """Escalation stops at JITTER_MAX * eta_sq and then raises."""
        tried = []

        def never_factors(cov, **kwargs):
            tried.append(cov[0, 0] - 1.0)
            return cov, 1  # LAPACK info > 0: leading minor not positive definite

        with monkeypatch.context() as m, pytest.raises(NotPositiveDefiniteError):
            m.setattr(kernel, "dpotrf", never_factors)
            jittered_cholesky(np.ones((3, 3)), 1.0, 0.0)
        assert tried == pytest.approx([JITTER_START * 10.0**k for k in range(JITTER_TRIES)],
                                      rel=1e-6)
        assert tried[-1] == pytest.approx(JITTER_MAX, rel=1e-6)
        # an eigenvalue of -0.5 * eta_sq is beyond any allowed jitter
        with pytest.raises(NotPositiveDefiniteError):
            jittered_cholesky(np.ones((3, 3)), 1.0, -0.5)


class TestCrossCov:
    def test_coincident_star_is_row_maximum(self):
        rng = np.random.default_rng(8)
        cfg = random_config(rng)
        train = rng.uniform(-2, 2, size=(5, 2))
        rows = cross_cov(train[[2]], train, cfg)
        assert rows[0, 2] == pytest.approx(cfg.eta_sq)
        assert np.argmax(rows[0]) == 2

    def test_stars_equal_train_identity(self):
        rng = np.random.default_rng(10)
        cfg = random_config(rng)
        train = rng.uniform(-2, 2, size=(6, 2))
        full = cov_matrix(train, cfg)
        cross = cross_cov(train, train, cfg)
        assert np.allclose(full - (cfg.sigma_b_sq + JITTER_START * cfg.eta_sq) * np.eye(6),
                           cross)

    def test_distant_star_row_near_zero(self):
        cfg = KernelConfig(eta_sq=1.0, rho1=1.0, rho2=1.0, sigma_b_sq=0.5)
        train = np.random.default_rng(0).uniform(-1, 1, size=(4, 2))
        row = cross_cov(np.array([[100.0, 100.0]]), train, cfg)
        assert np.all(np.abs(row) < 1e-12)


class TestStandardizer:
    def test_zero_mean_unit_sd(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(10, 60, size=(30, 2))
        z = Standardizer.fit(x).transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0)

    def test_constant_column_guard(self):
        x = np.column_stack([np.full(5, 40.0), np.arange(5.0)])
        z = Standardizer.fit(x).transform(x)
        assert np.all(np.isfinite(z))
        assert np.allclose(z[:, 0], 0.0)

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning included
    def test_overflowing_spread_refused(self):
        x = np.array([[1e308, 20.0], [40.0, 30.0], [50.0, 40.0]])
        with pytest.raises(DomainError, match="v_c mean or sd is not finite"):
            Standardizer.fit(x)

    def test_transform_is_affine(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 1, size=(10, 2))
        std = Standardizer.fit(x)
        a, b = rng.uniform(0, 1, size=(2, 2))
        mid = std.transform((a + b)[None] / 2)
        assert np.allclose(mid, (std.transform(a[None]) + std.transform(b[None])) / 2)
