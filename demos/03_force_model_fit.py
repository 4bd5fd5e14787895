#!/usr/bin/env python3
"""
Fitting the hierarchical force model
====================================

Simulates force-versus-cutting-length series for a small design with a
known ground truth, fits the hierarchical linear model with the NUTS
sampler, and checks convergence and truth recovery from the posterior
summary.
"""

import numpy as np

from toolwear.diagnostics import not_converged, summarize
from toolwear.model import ForceChannelModel
from toolwear.sampler import run_chains
from toolwear.simulate import simulate_dataset

records, truth = simulate_dataset(n_experiments=8, n_points=40, seed=3)
print(f"simulated {len(records)} experiments, "
      f"{sum(len(r.length) for r in records)} force samples on channel Ft")

# per-experiment intercepts and wear-rate slopes, pooled through a Gaussian
# process over (v_c, f); four chains so the scale-reduction check has teeth
model = ForceChannelModel(records, channel="Ft")
chains = run_chains(model, n_chains=4, n_warmup=800, n_samples=800, seed=3)
summary = summarize(chains)

reasons = not_converged(chains, summary, "Ft")  # the rule fit, diagnose and run apply
print(f"\nworst PSRF {summary.worst_psrf():.4f}, "
      f"{int(chains.divergences.sum())} divergences: {'; '.join(reasons) or 'converged'}")

print("\nslope recovery (posterior 95% interval vs simulated truth):")
names = summary.param_names
hits = 0
for i, r in enumerate(records):
    j = names.index(f"beta[{i + 1}]")
    lo, hi = summary.q2_5[j], summary.q97_5[j]
    true = truth.beta["Ft"][i]
    inside = lo <= true <= hi
    hits += inside
    print(f"  exp {r.id:2d} (v={r.v_c:4.1f}, f={r.f:4.1f}): "
          f"[{lo:6.2f}, {hi:6.2f}]  truth {true:6.2f}  "
          f"{'ok' if inside else 'MISS'}")
print(f"\n{hits}/{len(records)} true slopes inside their 95% intervals")

# the pooled hyperparameters are interpretable too
for name in ("mu_beta", "eta_sq", "rho1", "rho2"):
    j = names.index(name)
    print(f"{name:9s} posterior mean {summary.mean[j]:7.3f} "
          f"sd {summary.sd[j]:6.3f}")
