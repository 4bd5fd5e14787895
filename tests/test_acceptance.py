"""End-to-end acceptance checks.

Each test enforces one headline guarantee of the package — gradient
correctness, GP prediction against dense linear algebra, sampler calibration,
synthetic-truth recovery at realistic scale, surface and tool-life contracts,
changepoint exactness, the PSRF formula, the Taylor baseline, and bit-exact
pipeline reproducibility — and prints a single PASS line with its headline
numbers.
"""

import json
import math
import time

import numpy as np
import pytest

from gaussian_target import GaussianTarget
from toolwear import io as tio
from toolwear.diagnostics import psrf, summarize
from toolwear.kernel import KernelConfig, Standardizer, cov_matrix, cross_cov
from toolwear.model import (ExperimentRecord, ForceChannelModel, ToolLifeModel, controls_array,
                            life_data)
from toolwear.pipeline import run_pipeline
from toolwear.predict import fit_taylor, gp_conditional, life_surface, surface
from toolwear.sampler import ChainSet, run_chains
from toolwear.segmentation import RawTrace, binary_segmentation
from toolwear.simulate import simulate_dataset


def test_gradient_matches_finite_differences():
    """Criterion 1: analytic gradient vs central differences, 100 states."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    records = []
    for i in range(8):
        length = np.linspace(0.05, 1.0, 12)
        clean = 0.4 + 1.3 * length
        forces = {ch: clean + 0.1 * rng.standard_normal(12)
                  for ch in ("Ft", "Ff", "Fp")}
        records.append(ExperimentRecord(
            id=i + 1, v_c=float(rng.uniform(20, 60)), f=float(rng.uniform(20, 50)),
            length=length, forces=forces,
        ))
    model = ForceChannelModel(records, channel="Ft")
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        u = rng.uniform(-1.0, 1.0, size=model.dim)
        _, grad = model.logp_grad(u)
        fd = np.empty(model.dim)
        for j in range(model.dim):
            e = np.zeros(model.dim)
            e[j] = h
            fd[j] = (model.logp_grad(u + e)[0] - model.logp_grad(u - e)[0]) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-5
    assert elapsed < 30.0
    print(f"PASS gradient check: worst relative error {worst:.2e} "
          f"over 100 states in {elapsed:.1f}s")


def test_gp_conditional_matches_dense_inverse():
    """Criterion 2: conditional mean/variance vs explicit matrix inverse."""
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 7))
        cfg = KernelConfig(*np.exp(rng.uniform(-1.5, 1.2, size=4)))
        train = rng.uniform(-2, 2, size=(k, 2))
        beta = rng.normal(size=k)
        mu = float(rng.normal())
        stars = rng.uniform(-2, 2, size=(5, 2))
        mean, var = gp_conditional(beta, mu, cfg, train, stars)
        cov = cov_matrix(train, cfg)
        inv = np.linalg.inv(cov)
        ks = cross_cov(stars, train, cfg)
        mean2 = mu + ks @ inv @ (beta - mu)
        var2 = np.maximum(
            cfg.eta_sq + cfg.sigma_b_sq - np.einsum("ij,jk,ik->i", ks, inv, ks), 0.0
        )
        worst = max(worst, float(np.abs(mean - mean2).max()),
                    float(np.abs(var - var2).max()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    print(f"PASS GP conditional: max deviation {worst:.2e} from dense-inverse "
          f"oracle over 50 systems in {elapsed:.1f}s")


def test_sampler_calibration_on_gaussian():
    """Criterion 3: 10-D standard normal, 4 chains x 1000 retained draws."""
    t0 = time.monotonic()
    chains = run_chains(GaussianTarget(np.zeros(10), np.eye(10)),
                        n_chains=4, n_warmup=1000, n_samples=1000, seed=103)
    elapsed = time.monotonic() - t0
    flat = chains.flat()
    # batch-means MC standard error (robust to residual autocorrelation)
    batches = flat.reshape(40, 100, 10).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / math.sqrt(40)
    assert np.all(np.abs(flat.mean(axis=0)) < 3 * se)
    rhats = [psrf(chains.draws[:, :, j]) for j in range(10)]
    assert max(rhats) < 1.01
    assert int(chains.divergences.sum()) == 0
    assert elapsed < 60.0
    print(f"PASS sampler calibration: worst PSRF {max(rhats):.4f}, "
          f"0 divergences, {elapsed:.1f}s")


def test_synthetic_recovery_at_scale():
    """Criterion 4: 21-experiment synthetic truth recovered by the full fit."""
    t0 = time.monotonic()
    records, truth = simulate_dataset(n_experiments=21, n_points=50, seed=104)
    model = ForceChannelModel(records, channel="Ft")
    chains = run_chains(model, n_chains=4, n_warmup=1000, n_samples=1000,
                        seed=104)
    summary = summarize(chains)
    elapsed = time.monotonic() - t0
    worst_rhat = summary.worst_psrf()
    assert worst_rhat < 1.05
    names = summary.param_names
    covered = 0
    for i in range(21):
        j = names.index(f"beta[{i + 1}]")
        if summary.q2_5[j] <= truth.beta["Ft"][i] <= summary.q97_5[j]:
            covered += 1
    assert covered >= 19  # >= 90% of 21
    assert elapsed < 600.0
    print(f"PASS synthetic recovery: {covered}/21 true slopes inside 95% "
          f"intervals, worst PSRF {worst_rhat:.4f}, {elapsed:.0f}s")


def node(v, f):
    """Grid spec of the single node (v, f)."""
    return (v, v, 2, f, f, 2)


def test_surface_contract():
    """Criterion 5: 400-node default grid; corner sd dominates training sd."""
    rng = np.random.default_rng(105)
    k = 8
    train = rng.uniform([20, 20], [60, 50], size=(k, 2))
    names = ([f"alpha[{i + 1}]" for i in range(k)]
             + [f"beta[{i + 1}]" for i in range(k)]
             + [f"sigma[{i + 1}]" for i in range(k)]
             + ["mu_alpha", "sigma_alpha", "mu_beta", "eta_sq", "rho1", "rho2",
                "sigma_b_sq"])
    rows = [np.concatenate([np.full(k, 200.0), rng.normal(2.0, 0.3, size=k),
                            np.full(k, 5.0), [200.0, 10.0, 2.0],
                            [1.0, 1.0, 1.0, 0.05]]) for _ in range(2000)]
    chains = ChainSet(draws=np.asarray(rows)[None], param_names=names,
                      n_warmup=0, n_retained=len(rows), seed=105,
                      accept_stats=np.array([0.9]),
                      divergences=np.zeros(1, dtype=int))
    grid = surface(chains, train)
    assert grid.n_nodes == 400

    corners = np.array([[grid.v_axis[a], grid.f_axis[b]]
                        for a in (0, -1) for b in (0, -1)])
    corner_sd = max(surface(chains, train, node(*c)).sd[0, 0] for c in corners)
    worst_train_sd = max(surface(chains, train, node(*pt)).sd[0, 0] for pt in train)
    assert worst_train_sd <= corner_sd
    print(f"PASS surface contract: 400 nodes; max training-point sd "
          f"{worst_train_sd:.3f} <= farthest-corner sd {corner_sd:.3f}")


def test_tool_life_endpoints():
    """Criterion 6: life at (20, 45) predicted above life at (58, 22.5)."""
    rng = np.random.default_rng(106)
    settings = [(20.0, 45.0), (58.0, 22.5)]
    lives = [255.0, 10.0]
    # fill in a smooth synthetic interior consistent with the endpoints
    for v, f in rng.uniform([22, 22], [56, 44], size=(8, 2)):
        frac = ((v - 20) / 38 + (f / 45) * 0.2) / 1.2
        lives.append(float(np.exp(np.log(255) + frac * (np.log(10) - np.log(255)))))
        settings.append((float(v), float(f)))
    records = [
        ExperimentRecord(id=i + 1, v_c=v, f=f, length=np.array([1.0, 2.0]),
                         forces={ch: np.zeros(2) for ch in ("Ft", "Ff", "Fp")},
                         tool_life=life)
        for i, ((v, f), life) in enumerate(zip(settings, lives))
    ]
    chains = run_chains(ToolLifeModel(*life_data(records)), n_chains=2, n_warmup=500,
                        n_samples=500, seed=106)
    long_life, short_life = (
        life_surface(chains, controls_array(records), lives, node(*s)).mean[0, 0]
        for s in [(20.0, 45.0), (58.0, 22.5)])
    assert long_life > short_life
    print(f"PASS tool-life endpoints: mean life {long_life:.0f} m at (20, 45) "
          f"> {short_life:.0f} m at (58, 22.5)")


def test_changepoint_exactness():
    """Criterion 7: exact recovery noiseless; within 3 samples under noise."""
    t0 = time.monotonic()
    rng = np.random.default_rng(107)

    def sse(x):
        return float(np.sum((x - x.mean()) ** 2))

    def total_sse(x, cps):
        edges = [0, *cps, len(x)]
        return sum(sse(x[lo:hi]) for lo, hi in zip(edges, edges[1:]))

    def oracle(x, n_cps, min_len):
        from itertools import combinations
        best, best_cps = np.inf, None
        for cps in combinations(range(min_len, len(x) - min_len + 1), n_cps):
            if any(b - a < min_len for a, b in zip(cps, cps[1:])):
                continue
            cost = total_sse(x, list(cps))
            if cost < best:
                best, best_cps = cost, list(cps)
        return best_cps

    def trace_of(x):
        return RawTrace(forces={ch: x.copy() for ch in ("Ft", "Ff", "Fp")},
                        length_per_sample=1.0)

    # noiseless: up to 3 steps, separation >= 50 samples, exact recovery
    for _ in range(10):
        n_steps = int(rng.integers(1, 4))
        cuts = sorted(rng.choice(np.arange(50, 400, 50), size=n_steps,
                                 replace=False))
        levels = rng.uniform(-20, 20, size=n_steps + 1)
        while np.any(np.abs(np.diff(levels)) < 2.0):
            levels = rng.uniform(-20, 20, size=n_steps + 1)
        x = np.concatenate([np.full(n, lv) for lv, n in
                            zip(levels, np.diff([0, *cuts, 450]))])
        seg = binary_segmentation(trace_of(x), penalty=1.0)
        assert seg.changepoints == list(cuts)

    # noisy: sigma = 5% of step height, within +-3 of the exhaustive oracle
    step = 10.0
    x = np.concatenate([np.zeros(100), np.full(120, step), np.full(100, 0.4 * step)])
    x += rng.normal(0.0, 0.05 * step, size=len(x))
    seg = binary_segmentation(trace_of(x), penalty=None)
    cps = seg.changepoints
    assert len(cps) == 2
    best = oracle(x, 2, min_len=20)
    assert all(abs(a - b) <= 3 for a, b in zip(cps, best))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS changepoints: noiseless exact, noisy within "
          f"{max(abs(a - b) for a, b in zip(cps, best))} samples of the "
          f"oracle, {elapsed:.1f}s")


def test_psrf_formula():
    """Criterion 8: hand-computed two-chain PSRF; identical-chain bound."""
    chain_a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    chain_b = np.array([11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0])
    # split into 4 sequences of length 4: means 2.5, 6.5, 12.5, 16.5;
    # each within-variance 5/3; B = 4 * var(means) = 4 * 118/3
    w = 5.0 / 3.0
    b = 4.0 * np.var([2.5, 6.5, 12.5, 16.5], ddof=1)
    by_hand = math.sqrt((3.0 / 4.0 * w + b / 4.0) / w)
    got = psrf(np.vstack([chain_a, chain_b]))
    assert got == pytest.approx(by_hand, abs=1e-12)

    rng = np.random.default_rng(108)
    row = rng.normal(size=1000)
    ident = psrf(np.vstack([row, row, row, row]))
    assert ident <= 1 + 2 / 1000
    print(f"PASS PSRF formula: hand value {by_hand:.12f} reproduced; "
          f"identical chains give {ident:.6f} <= 1 + 2/n")


def test_taylor_baseline():
    """Criterion 9: exact log-linear recovery and two-point closed form."""
    n_true, c_true = 0.32, 150.0
    t = np.geomspace(2.0, 300.0, 9)
    v = c_true / t**n_true
    fit = fit_taylor(list(zip(v, t)))
    assert fit.n == pytest.approx(n_true, abs=1e-10)
    assert fit.C == pytest.approx(c_true, rel=1e-10)

    two = fit_taylor([(20.0, 255.0), (58.0, 10.0)])
    n_hand = math.log(58.0 / 20.0) / math.log(255.0 / 10.0)
    assert two.n == pytest.approx(n_hand, rel=1e-12)
    assert two.C == pytest.approx(20.0 * 255.0**n_hand, rel=1e-12)
    print(f"PASS Taylor baseline: ({n_true}, {c_true}) recovered exactly; "
          f"two-point n = {two.n:.4f} matches the closed form")


def test_pipeline_reproducibility(tmp_path):
    """Criterion 10: the same run config twice gives bit-identical manifests."""
    data = tmp_path / "data"
    data.mkdir()
    records, _ = simulate_dataset(n_experiments=6, n_points=30, seed=110)
    with open(data / "controls.csv", "w") as fh:
        fh.write("id,v_c,f,tool_life\n")
        for r in records:
            fh.write(f"{r.id},{tio.fmt(r.v_c)},{tio.fmt(r.f)},{tio.fmt(r.tool_life)}\n")
    for r in records:
        tio.write_series(data / f"series_{r.id}.csv", r.length, r.forces)
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text("\n".join([
        "seed: 11",
        "output_dir: out",
        "controls: data/controls.csv",
        "series_dir: data",
        "channels: [Ft]",
        "sampler: {chains: 2, warmup: 300, samples: 200}",
    ]) + "\n")

    run_pipeline(tio.RunConfig.from_file(cfg_path))
    first = (tmp_path / "out" / "manifest.json").read_bytes()
    run_pipeline(tio.RunConfig.from_file(cfg_path))
    second = (tmp_path / "out" / "manifest.json").read_bytes()
    assert first == second
    digests = json.loads(first)["artifacts"]
    print(f"PASS reproducibility: identical manifests over "
          f"{len(digests)} artifacts")
