"""Synthetic datasets with known ground truth, for tests and demos.

Generates experiments on a Sobol design whose slope field is an exact draw
from the GP prior, either as analysis-ready (L, F) series or as raw traces
with non-contact gaps for exercising the segmentation stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignBounds, augmentation_plan
from .errors import InsufficientDataError
from .kernel import KernelConfig, Standardizer, cholesky_cov
from .model import ExperimentRecord
from .segmentation import CHANNELS, RawTrace

DEFAULT_BOUNDS = DesignBounds(20.0, 60.0, 20.0, 50.0)
# the data-generating truth: slope-field GP, intercept mean and sd, noise sd (N),
# and the cutting length (m) each series spans
TRUE_KERNEL = KernelConfig(eta_sq=4.0, rho1=1.0, rho2=1.0, sigma_b_sq=0.1)
TRUE_MU_BETA, ALPHA_MEAN, ALPHA_SD, NOISE_SD, MAX_LENGTH = 2.0, 200.0, 10.0, 5.0, 100.0
N_PASSES = 4  # contact passes per raw trace, separated by air cuts of unit-sd noise


@dataclass
class GroundTruth:
    """Data-generating parameter values for one synthetic dataset."""

    alpha: np.ndarray
    beta: dict[str, np.ndarray]
    sigma: float
    mu_beta: float
    kernel: KernelConfig


def simulate_dataset(
    n_experiments: int = 21,
    n_points: int = 50,
    seed: int = 0,
) -> tuple[list[ExperimentRecord], GroundTruth]:
    """Experiments with linear force trends whose slopes come from the GP.

    The kernel length scales apply on the standardized control scale, matching
    how the model interprets them. Each channel gets an independent slope
    field; tool life decreases with cutting speed and feed rate plus
    lognormal noise, pinned to a 10-255 m range. A series needs
    ``n_points >= 2``.
    """
    if n_points < 2:
        raise InsufficientDataError(f"a series needs n_points >= 2, got {n_points}")
    rng = np.random.default_rng(seed)
    initial, _ = augmentation_plan(DEFAULT_BOUNDS, n_experiments)
    controls = np.array([[p.v_c, p.f] for p in initial])
    x = Standardizer.fit(controls).transform(controls)

    chol, _ = cholesky_cov(x, TRUE_KERNEL)
    beta = {ch: TRUE_MU_BETA + chol @ rng.standard_normal(n_experiments) for ch in CHANNELS}
    alpha = ALPHA_MEAN + ALPHA_SD * rng.standard_normal(n_experiments)

    span = np.ptp(controls, axis=0)
    u = (controls - controls.min(axis=0)) / np.where(span > 0, span, 1.0)  # a single point
    log_life = np.log(255.0) + (np.log(10.0) - np.log(255.0)) * (0.6 * u[:, 0] + 0.4 * u[:, 1])
    life = np.exp(log_life + 0.1 * rng.standard_normal(n_experiments))

    records = []
    for i in range(n_experiments):
        length = np.linspace(MAX_LENGTH / n_points, MAX_LENGTH, n_points)
        forces = {
            ch: alpha[i] + beta[ch][i] * length + NOISE_SD * rng.standard_normal(n_points)
            for ch in CHANNELS
        }
        records.append(ExperimentRecord(
            id=i + 1, v_c=controls[i, 0], f=controls[i, 1],
            length=length, forces=forces,
            tool_life=float(life[i]),
        ))
    truth = GroundTruth(alpha=alpha, beta=beta, sigma=NOISE_SD, mu_beta=TRUE_MU_BETA,
                        kernel=TRUE_KERNEL)
    return records, truth


def simulate_raw_trace(
    record: ExperimentRecord,
    gap_samples: int = 120,
    seed: int = 0,
) -> RawTrace:
    """Embed a record's series into a trace with non-contact gaps.

    The in-contact samples reproduce the record's forces in time order;
    between passes the tool cuts air (near-zero force). length_per_sample is
    inferred from the record's (uniform) length grid.
    """
    rng = np.random.default_rng(seed)
    n = len(record.length)
    lps = float(record.length[-1] / n)
    edges = np.linspace(0, n, N_PASSES + 1).astype(int)
    chunks = {ch: [] for ch in CHANNELS}
    for k in range(N_PASSES):
        lo, hi = edges[k], edges[k + 1]
        for ch in CHANNELS:
            chunks[ch].append(record.forces[ch][lo:hi])
        if k < N_PASSES - 1:
            gap = rng.standard_normal((len(CHANNELS), gap_samples))
            for j, ch in enumerate(CHANNELS):
                chunks[ch].append(gap[j])
    return RawTrace(
        forces={ch: np.concatenate(chunks[ch]) for ch in CHANNELS},
        length_per_sample=lps,
    )
