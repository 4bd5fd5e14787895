"""Tests of the benchmark's own estimators: ``python3 -m pytest bench``."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ess import bulk_ess, ess  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from stats import compare_pairs  # noqa: E402


def ar1(phi, n_chains, n, seed):
    """Stationary AR(1) chains with unit innovation variance."""
    rng = np.random.default_rng(seed)
    x = np.empty((n_chains, n))
    x[:, 0] = rng.standard_normal(n_chains) / np.sqrt(1.0 - phi * phi)
    eps = rng.standard_normal((n_chains, n))
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + eps[:, t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_bulk_ess_matches_ar1_closed_form(phi):
    # ESS of a stationary AR(1) series is N (1 - phi) / (1 + phi)
    x = ar1(phi, n_chains=4, n=5000, seed=7)
    expected = x.size * (1.0 - phi) / (1.0 + phi)
    assert bulk_ess(x) == pytest.approx(expected, rel=0.1)
    assert ess(x) == pytest.approx(expected, rel=0.1)


def test_bulk_ess_is_rank_based_and_sees_disagreeing_chains():
    x = ar1(0.5, n_chains=4, n=2000, seed=8)
    assert bulk_ess(np.exp(x)) == pytest.approx(bulk_ess(x), rel=1e-12)
    shifted = x + np.array([[0.0], [0.0], [0.0], [3.0]])
    assert bulk_ess(shifted) < 0.2 * bulk_ess(x)


def fake_clock(step=1.0):
    ticks = itertools.count()
    return lambda: step * next(ticks)


def test_self_times_sum_to_root_span():
    rec = SpanRecorder(clock=fake_clock())

    def leaf():
        return 1

    def middle():
        return sum(traced_leaf() for _ in range(3))

    traced_leaf = rec.wrap(leaf, "leaf")
    traced_middle = rec.wrap(middle, "middle")
    root = rec.begin("root")
    traced_middle()
    traced_leaf()
    traced_middle()
    rec.end(root)

    self_t = rec.self_times()
    dur = rec.durations()
    assert self_t.sum() == pytest.approx(dur[root])
    assert np.all(self_t > 0)
    # each leaf is one tick; a middle span holds 3 leaves (6 ticks) + 1
    names = np.asarray(rec.names)
    assert np.allclose(self_t[names == "leaf"], 1.0)
    middle = names == "middle"
    assert np.allclose(self_t[middle], dur[middle] - 3.0)


def test_self_time_counts_overlapping_children_once():
    rec = SpanRecorder(clock=fake_clock())
    rec.names = ["root", "a", "b"]
    rec.starts = [0.0, 1.0, 2.0]
    rec.ends = [10.0, 5.0, 12.0]  # b overlaps a and overruns the root
    rec.parents = [-1, 0, 0]
    rec.ops = [0, 0, 0]
    assert rec.self_times()[0] == pytest.approx(10.0 - 9.0)


def test_pair_rule_needs_nine_of_ten_wins_and_gap_beyond_parent_iqr():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]
    faster = [p - 1.0 for p in parent]
    verdict = compare_pairs(parent, faster, better="lower", bound=0.1)
    assert verdict["wins"] == 10 and verdict["verdict"] == "better"
    mixed = faster[:8] + [p + 0.5 for p in parent[8:]]
    assert compare_pairs(parent, mixed, "lower", 0.1)["verdict"] != "better"
    slower = [p * 1.2 for p in parent]
    assert compare_pairs(parent, slower, "lower", 0.1)["verdict"] == "worse"


def test_speed_probe_ticks_during_work_and_scales_to_nominal():
    import time

    import speed
    probe = speed.SpeedProbe(interval=0.01)
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    probes = probe.stop()
    assert len(probes) >= 5 and all(d > 0 for d in probes)
    assert sum(probes) < time.perf_counter() - t0
    # a repeat that ran while every probe took twice the nominal time counts half,
    # or less than half for work that slows less than the probe does
    assert speed.scaled(8.0, 2 * speed.NOMINAL_PROBE_S) == pytest.approx(4.0)
    assert speed.scaled(8.0, 2 * speed.NOMINAL_PROBE_S, 0.5) == pytest.approx(8.0 / 2 ** 0.5)


def test_benchmark_json_lists_every_layer_metric_the_traced_run_reports():
    import json

    from layers import LAYER_METRICS
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS



def test_gradient_check_passes_the_model_and_catches_a_wrong_gradient(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from toolwear.model import ForceChannelModel
    from toolwear.simulate import simulate_dataset
    from workloads import logp_grad_errors, synthetic_force_draws

    records, truth = simulate_dataset(n_experiments=5, n_points=30, seed=3)
    model = ForceChannelModel(records, channel="Ft")
    draws, _ = synthetic_force_draws(truth, np.random.default_rng(4), n_chains=1, n_draws=2)
    assert logp_grad_errors(model, draws[0]) == []

    right = ForceChannelModel.logp_grad

    def off_by_a_thousandth(self, u):
        logp, grad = right(self, u)
        return logp, grad * np.where(np.arange(grad.size) == grad.size - 1, 1.001, 1.0)

    monkeypatch.setattr(ForceChannelModel, "logp_grad", off_by_a_thousandth)
    assert len(logp_grad_errors(model, draws[0])) == 2
