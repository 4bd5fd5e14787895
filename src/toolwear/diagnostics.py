"""Convergence assessment: split-chain PSRF, posterior summaries, the not-converged rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .sampler import ChainSet

PSRF_THRESHOLD = 1.05


def psrf(chains: np.ndarray) -> float:
    """Split-chain potential scale reduction factor for one parameter.

    ``chains`` has shape (m, n). Each chain is halved (2m sequences of
    length n//2); with W the mean within-sequence variance and B the
    between-sequence variance, returns
    ``sqrt(((n/2 - 1)/(n/2) * W + B/(n/2)) / W)``, clamped below at 1.
    Splitting makes the statistic sensitive to within-chain drift as well.
    """
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    m, n = chains.shape
    if m < 2:
        raise InsufficientDataError("psrf needs at least 2 chains")
    if n < 4:
        raise InsufficientDataError("psrf needs at least 4 iterations per chain")
    half = n // 2
    seqs = np.concatenate([chains[:, :half], chains[:, n - half:]], axis=0)
    w = float(np.mean(np.var(seqs, axis=1, ddof=1)))
    b = half * float(np.var(np.mean(seqs, axis=1), ddof=1))
    if w == 0.0:
        return 1.0  # constant parameter convention
    var_plus = (half - 1) / half * w + b / half
    # the raw ratio dips below 1 when B < W (finite-sample effect); clamp so
    # the reported factor is always >= 1
    return float(max(1.0, np.sqrt(var_plus / w)))


@dataclass
class FitSummary:
    """Per-parameter posterior summary."""

    param_names: list[str]
    mean: np.ndarray
    sd: np.ndarray
    q2_5: np.ndarray
    median: np.ndarray
    q97_5: np.ndarray
    psrf: np.ndarray

    def worst_psrf(self) -> float:
        return float(np.max(self.psrf))

    def flagged(self, threshold: float = PSRF_THRESHOLD) -> list[str]:
        return [n for n, r in zip(self.param_names, self.psrf) if r > threshold]

    def rows(self):
        """(name, mean, sd, q2.5, median, q97.5, psrf) of each parameter."""
        return zip(self.param_names, self.mean, self.sd, self.q2_5, self.median, self.q97_5,
                   self.psrf)


def summarize(chains: ChainSet) -> FitSummary:
    """Deterministic summary of the retained draws.

    Quantiles use linear interpolation of order statistics.
    """
    if chains.draws.size == 0:
        raise InsufficientDataError("no retained draws to summarize")
    flat = chains.flat()
    quantiles = np.quantile(flat, [0.025, 0.5, 0.975], axis=0, method="linear")
    rhat = np.array([psrf(chains.draws[:, :, j]) for j in range(flat.shape[1])])
    return FitSummary(
        param_names=list(chains.param_names),
        mean=flat.mean(axis=0),
        sd=flat.std(axis=0, ddof=1),
        q2_5=quantiles[0],
        median=quantiles[1],
        q97_5=quantiles[2],
        psrf=rhat,
    )


def not_converged(chains: ChainSet, summary: FitSummary, name: str, threshold=PSRF_THRESHOLD):
    """Why the draws ``name`` are not converged, empty when they are: a PSRF above ``threshold``,
    or, where the draws record divergences, more than 10% of retained transitions divergent."""
    flagged = summary.flagged(threshold)
    reasons = [f"psrf>{threshold} for {name}: {flagged}"] if flagged else []
    if chains.divergences is not None:
        rate = chains.divergences.sum() / (chains.n_chains * chains.n_retained)
        if rate > 0.10:
            reasons.append(f"divergence rate {rate:.1%} for {name}")
    return reasons
