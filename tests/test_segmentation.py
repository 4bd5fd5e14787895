"""Tests for changepoint segmentation and contact-phase extraction."""

import numpy as np
import pytest

from toolwear.errors import EmptyContactError, InsufficientDataError, InvalidDataError
from toolwear.segmentation import (
    CHANNELS,
    RawTrace,
    Segmentation,
    binary_segmentation,
    default_penalty,
    extract_contact_phases,
)


def make_trace(values, length_per_sample=1.0):
    """All three channels share the given Ft signal (Ff/Fp scaled copies)."""
    x = np.asarray(values, dtype=float)
    return RawTrace(
        forces={"Ft": x, "Ff": 0.5 * x, "Fp": 0.25 * x},
        length_per_sample=length_per_sample,
    )


def step_signal(levels, lengths):
    return np.concatenate([np.full(n, lv, dtype=float) for lv, n in zip(levels, lengths)])


def sse(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum((x - x.mean()) ** 2))


def total_sse(x, changepoints):
    edges = [0, *changepoints, len(x)]
    return sum(sse(x[lo:hi]) for lo, hi in zip(edges, edges[1:]))


def exhaustive_two_changepoints(x, min_len):
    """Brute-force least-squares oracle over all (c1, c2) pairs."""
    n = len(x)
    best, best_cps = np.inf, None
    for c1 in range(min_len, n - 2 * min_len + 1):
        for c2 in range(c1 + min_len, n - min_len + 1):
            cost = total_sse(x, [c1, c2])
            if cost < best:
                best, best_cps = cost, [c1, c2]
    return best_cps


class TestRawTrace:
    def test_rejects_nonfinite(self):
        x = np.ones(10)
        bad = x.copy()
        bad[3] = np.nan
        with pytest.raises(InvalidDataError):
            RawTrace(forces={"Ft": x, "Ff": x, "Fp": bad}, length_per_sample=1.0)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(InvalidDataError):
            RawTrace(forces={"Ft": np.ones(5), "Ff": np.ones(4), "Fp": np.ones(5)},
                     length_per_sample=1.0)

    def test_rejects_single_sample(self):
        one = np.ones(1)
        with pytest.raises(InsufficientDataError):
            RawTrace(forces={ch: one for ch in CHANNELS}, length_per_sample=1.0)


    @pytest.mark.parametrize("lps", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_length_per_sample_not_finite_positive(self, lps):
        # a series cut from such a trace would have an L that never increases
        with pytest.raises(InvalidDataError, match="length_per_sample"):
            RawTrace(forces={ch: np.ones(5) for ch in CHANNELS}, length_per_sample=lps)


class TestBinarySegmentation:
    def test_single_exact_step(self):
        trace = make_trace(step_signal([0.0, 10.0], [50, 50]))
        seg = binary_segmentation(trace, penalty=1.0)
        assert seg.changepoints == [50]
        assert np.allclose(seg.segment_means, [0.0, 10.0])

    def test_constant_trace_has_no_changepoints(self):
        trace = make_trace(np.full(200, 7.0))
        seg = binary_segmentation(trace, penalty=1.0)
        assert seg.changepoints == []
        assert np.allclose(seg.segment_means, [7.0])

    def test_noiseless_multi_step_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            cuts = np.sort(rng.choice(np.arange(60, 540, 60), size=k, replace=False))
            levels = rng.uniform(-20, 20, size=k + 1)
            while np.any(np.abs(np.diff(levels)) < 2.0):
                levels = rng.uniform(-20, 20, size=k + 1)
            lengths = np.diff([0, *cuts, 600])
            trace = make_trace(step_signal(levels, lengths))
            seg = binary_segmentation(trace, penalty=1.0)
            assert seg.changepoints == list(cuts)

    def test_noisy_two_steps_match_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        x = step_signal([0.0, 10.0, 4.0], [100, 150, 100])
        x += rng.normal(0.0, 0.1, size=len(x))
        trace = make_trace(x)
        seg = binary_segmentation(trace, penalty=default_penalty(x))
        oracle = exhaustive_two_changepoints(x, min_len=20)
        assert len(seg.changepoints) == 2
        assert all(abs(a - b) <= 3 for a, b in zip(seg.changepoints, oracle))
        assert all(abs(a - b) <= 3 for a, b in zip(seg.changepoints, [100, 250]))

    def test_split_never_increases_sse(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(size=300).cumsum()
            trace = make_trace(x)
            seg = binary_segmentation(trace, penalty=0.0, min_seg_len=5)
            cps = seg.changepoints
            for drop in range(len(cps)):
                coarser = cps[:drop] + cps[drop + 1:]
                assert total_sse(x, cps) <= total_sse(x, coarser) + 1e-9

    def test_penalty_stability_band(self):
        """Any penalty strictly inside the accept band gives the same splits."""
        x = step_signal([0.0, 10.0], [60, 60])
        trace = make_trace(x)
        gain = sse(x) - total_sse(x, [60])
        for frac in (0.1, 0.5, 0.9):
            seg = binary_segmentation(trace, penalty=frac * gain)
            assert seg.changepoints == [60]
        assert binary_segmentation(trace, penalty=1.01 * gain).changepoints == []

    def test_min_seg_len_respected(self):
        x = step_signal([0.0, 10.0, 0.0], [100, 5, 100])
        trace = make_trace(x)
        seg = binary_segmentation(trace, penalty=1.0, min_seg_len=20)
        for lo, hi in seg.segments():
            assert hi - lo >= 20

    def test_trace_too_short(self):
        trace = make_trace(np.arange(30, dtype=float))
        with pytest.raises(InsufficientDataError):
            binary_segmentation(trace, min_seg_len=20)

    @pytest.mark.parametrize("kw, what", [({"min_seg_len": 1}, "min_seg_len must be >= 2"),
                                          ({"penalty": -1.0}, "penalty must be >= 0")])
    def test_refuses_bad_settings(self, kw, what):
        trace = make_trace(step_signal([0.0, 10.0], [50, 50]))
        with pytest.raises(InvalidDataError, match=what):
            binary_segmentation(trace, **kw)

    def test_segments_partition_trace(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500).cumsum()
        trace = make_trace(x)
        seg = binary_segmentation(trace, penalty=None, min_seg_len=10)
        segs = seg.segments()
        assert segs[0][0] == 0 and segs[-1][1] == len(x)
        for (_, hi), (lo, _) in zip(segs, segs[1:]):
            assert hi == lo

    def test_default_penalty_positive(self):
        rng = np.random.default_rng(1)
        assert default_penalty(rng.normal(size=100)) > 0


class TestExtractContactPhases:
    def test_gap_removed_and_phases_concatenated(self):
        x = step_signal([200.0, 0.0, 210.0], [80, 60, 80])
        trace = make_trace(x)
        seg = binary_segmentation(trace, penalty=1.0)
        series = extract_contact_phases(trace, seg, contact_threshold=50.0)
        expected = np.concatenate([x[:80], x[140:]])
        assert np.array_equal(series.forces["Ft"], expected)
        assert len(series.length) == 160

    def test_all_contact_is_identity(self):
        x = np.full(120, 150.0)
        trace = make_trace(x)
        seg = binary_segmentation(trace, penalty=1.0)
        series = extract_contact_phases(trace, seg, contact_threshold=50.0)
        assert len(series.length) == len(x)
        assert np.array_equal(series.forces["Ft"], x)

    def test_threshold_above_max_raises(self):
        trace = make_trace(np.full(100, 10.0))
        seg = binary_segmentation(trace, penalty=1.0)
        with pytest.raises(EmptyContactError):
            extract_contact_phases(trace, seg, contact_threshold=1e6)

    def test_length_strictly_increasing_with_correct_total(self):
        x = step_signal([200.0, 0.0, 210.0], [80, 60, 80])
        trace = make_trace(x, length_per_sample=0.05)
        seg = binary_segmentation(trace, penalty=1.0)
        series = extract_contact_phases(trace, seg, contact_threshold=50.0)
        assert np.all(np.diff(series.length) > 0)
        assert np.isclose(series.length[-1], 160 * 0.05)

    def test_mismatched_segmentation_rejected(self):
        trace = make_trace(np.full(100, 150.0))
        seg = Segmentation(changepoints=[], segment_means=np.array([150.0]),
                           segment_vars=np.array([0.0]), n_samples=50)
        with pytest.raises(InvalidDataError):
            extract_contact_phases(trace, seg, contact_threshold=50.0)
