#!/usr/bin/env python3
"""
Tool-life surface and the Taylor baseline
=========================================

Observed tool lives (minutes of cutting to the wear criterion) are
modelled with a Gaussian process on the log scale, giving a full
predictive life surface. The classical Taylor law v_c * T^n = C is
fitted to the same data as a one-dimensional baseline for comparison.
"""

from toolwear.model import ToolLifeModel, life_data
from toolwear.predict import fit_taylor, life_surface, taylor_life
from toolwear.sampler import run_chains
from toolwear.simulate import simulate_dataset

records, _ = simulate_dataset(n_experiments=10, n_points=30, seed=5)
with_life = [r for r in records if r.tool_life is not None]
print(f"{len(with_life)} experiments with an observed tool life:")
for r in with_life:
    print(f"  v_c = {r.v_c:5.1f} m/min, f = {r.f:5.2f} um/rev -> "
          f"T = {r.tool_life:6.1f} min")

# the life GP is fitted like a force channel: its density, then the sampler
controls, lives = life_data(records)
chains = run_chains(ToolLifeModel(controls, lives), n_chains=2, n_warmup=500, n_samples=500,
                    seed=5)
grid = life_surface(chains, controls, lives)
print(f"\nlife surface on {grid.n_nodes} nodes; "
      f"predicted life spans {grid.mean.min():.0f}-{grid.mean.max():.0f} min")

# the closed-form predictive life at a gentle and an aggressive setting: a
# surface on the single node (v, f), whose grid spec is (v, v, 2, f, f, 2)
for v, f, label in [(25.0, 25.0, "gentle    "), (55.0, 45.0, "aggressive")]:
    at = life_surface(chains, controls, lives, grid_spec=(v, v, 2, f, f, 2))
    print(f"  {label} (v={v:.0f}, f={f:.0f}): "
          f"life {at.mean[0, 0]:6.1f} +- {at.sd[0, 0]:.1f} min (mean +- sd)")

# Taylor baseline: life explained by cutting speed alone
taylor = fit_taylor([(r.v_c, r.tool_life) for r in with_life])
print(f"\nTaylor law: n = {taylor.n:.3f}, C = {taylor.C:.1f}, "
      f"log-scale residual sd = {taylor.residual_sd:.3f}")
print("speed-only predictions ignore feed, so settings with equal v_c get "
      "the same life:")
for v in (25.0, 40.0, 55.0):
    print(f"  v_c = {v:.0f} m/min -> T = {taylor_life(taylor, v):7.1f} min")
