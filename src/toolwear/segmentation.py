"""Changepoint detection on force traces and extraction of tool-contact phases.

Binary segmentation with a change-in-mean CUSUM cost: the trace is split
recursively at the index giving the largest drop in within-segment sum of
squared errors, and a split is kept only when that drop exceeds a penalty.
Contact is found on the tangential force (:data:`CONTACT_CHANNEL`):
segments whose mean ``Ft`` exceeds a contact threshold are concatenated,
every channel alike, into an analysis-ready (cutting length, force) series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyContactError, InsufficientDataError, InvalidDataError

CHANNELS = ("Ft", "Ff", "Fp")
CONTACT_CHANNEL = "Ft"  # the channel segmented to find tool contact


@dataclass
class RawTrace:
    """One dynamometer recording (already low-pass filtered upstream).

    ``forces`` maps channel name to the sample array; ``length_per_sample``
    is the cutting-length increment (m) attributed to each in-contact sample.
    """

    forces: dict[str, np.ndarray]
    length_per_sample: float = 1.0

    def __post_init__(self):
        if not 0 < self.length_per_sample < np.inf:
            raise InvalidDataError("length_per_sample must be finite and positive")
        self.forces = {k: np.asarray(v, dtype=float) for k, v in self.forces.items()}
        n = {len(v) for v in self.forces.values()}
        if len(n) != 1:
            raise InvalidDataError("force channels differ in length")
        self.n_samples = n.pop()
        if self.n_samples < 2:
            raise InsufficientDataError("trace needs at least 2 samples")
        for k, v in self.forces.items():
            if not np.all(np.isfinite(v)):
                raise InvalidDataError(f"non-finite samples in channel {k}")


@dataclass
class Segmentation:
    """Changepoints (sorted, each in (0, n)) and per-segment statistics."""

    changepoints: list[int]
    segment_means: list[float] = field(default_factory=list)
    segment_vars: list[float] = field(default_factory=list)
    n_samples: int = 0

    def segments(self) -> list[tuple[int, int]]:
        edges = [0, *self.changepoints, self.n_samples]
        return list(zip(edges[:-1], edges[1:]))


def default_penalty(x: np.ndarray) -> float:
    """BIC-like penalty 2*sigma^2*log(n), sigma from the MAD of first differences."""
    x = np.asarray(x, dtype=float)
    d = np.diff(x)
    mad = np.median(np.abs(d - np.median(d)))
    sigma = 1.4826 * mad / np.sqrt(2.0)
    return 2.0 * sigma**2 * np.log(len(x))


def _best_split(cum: np.ndarray, cum2: np.ndarray, lo: int, hi: int, min_len: int):
    """Best change-in-mean split of [lo, hi); returns (gain, index) or (0, None).

    gain = SSE(lo,hi) - SSE(lo,t) - SSE(t,hi), the CUSUM cost reduction.
    """
    n = hi - lo
    if n < 2 * min_len:
        return 0.0, None
    ts = np.arange(lo + min_len, hi - min_len + 1)
    s_l = cum[ts] - cum[lo]
    s_r = cum[hi] - cum[ts]
    n_l = ts - lo
    n_r = hi - ts
    sse_full = (cum2[hi] - cum2[lo]) - (cum[hi] - cum[lo]) ** 2 / n
    sse_split = (cum2[hi] - cum2[lo]) - s_l**2 / n_l - s_r**2 / n_r
    gains = sse_full - sse_split
    k = int(np.argmax(gains))
    return float(gains[k]), int(ts[k])


def binary_segmentation(
    trace: RawTrace,
    penalty: float | None = None,
    min_seg_len: int = 20,
) -> Segmentation:
    """Recursive binary segmentation of the trace's :data:`CONTACT_CHANNEL`.

    A split is accepted iff the reduction in within-segment SSE exceeds
    ``penalty`` (default: :func:`default_penalty` of the signal). No segment
    shorter than ``min_seg_len`` is produced.
    """
    x = trace.forces[CONTACT_CHANNEL]
    if min_seg_len < 2:
        raise InvalidDataError("min_seg_len must be >= 2")
    n = len(x)
    if n < 2 * min_seg_len:
        raise InsufficientDataError(f"trace of {n} samples is too short for "
                                    f"min_seg_len={min_seg_len}")
    if penalty is None:
        penalty = default_penalty(x)
    if penalty < 0:
        raise InvalidDataError("penalty must be >= 0")

    cum = np.concatenate([[0.0], np.cumsum(x)])
    cum2 = np.concatenate([[0.0], np.cumsum(x * x)])

    changepoints: list[int] = []
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        gain, t = _best_split(cum, cum2, lo, hi, min_seg_len)
        if t is not None and gain > penalty:
            changepoints.append(t)
            stack.append((lo, t))
            stack.append((t, hi))
    changepoints.sort()

    seg = Segmentation(changepoints=changepoints, n_samples=n)
    for lo, hi in seg.segments():
        seg.segment_means.append(float(np.mean(x[lo:hi])))
        seg.segment_vars.append(float(np.var(x[lo:hi])))
    return seg


@dataclass
class ExperimentSeries:
    """Concatenated in-contact samples with cumulative cutting length (m)."""

    length: np.ndarray
    forces: dict[str, np.ndarray]


def extract_contact_phases(
    trace: RawTrace,
    seg: Segmentation,
    contact_threshold: float,
) -> ExperimentSeries:
    """Drop non-contact segments and concatenate the rest in time order.

    A segment is in contact when its mean force on :data:`CONTACT_CHANNEL`
    (``seg.segment_means``) exceeds the threshold. Each retained sample
    advances the cutting length by ``trace.length_per_sample``, so the
    returned L is strictly increasing.
    """
    if seg.n_samples != trace.n_samples:
        raise InvalidDataError("segmentation does not match trace length")
    keep = [(lo, hi) for (lo, hi), mean in zip(seg.segments(), seg.segment_means)
            if mean > contact_threshold]
    if not keep:
        raise EmptyContactError(f"no segment mean exceeds contact threshold {contact_threshold}")
    idx = np.concatenate([np.arange(lo, hi) for lo, hi in keep])
    return ExperimentSeries(length=trace.length_per_sample * np.arange(1, len(idx) + 1),
                            forces={k: v[idx] for k, v in trace.forces.items()})
