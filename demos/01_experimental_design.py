#!/usr/bin/env python3
"""
Experimental design with Sobol sequences
========================================

Builds a 21-point quasi-random design over cutting speed and feed,
splits it into an initial batch plus a reserve, and shows how evenly
the points fill the operating window compared with plain random draws.
"""

import numpy as np

from toolwear.design import DesignBounds, augmentation_plan, sobol_unit

bounds = DesignBounds(v_min=20.0, v_max=60.0, f_min=20.0, f_max=50.0)

# 16 initial runs plus 5 reserve runs in case tools fail early
initial, reserve = augmentation_plan(bounds, n_initial=16, n_reserve=5)
print("initial batch:")
for p in initial:
    print(f"  run {p.index:2d}: v_c = {p.v_c:5.1f} m/min, f = {p.f:5.2f} um/rev")
print("reserve batch:")
for p in reserve:
    print(f"  run {p.index:2d}: v_c = {p.v_c:5.1f} m/min, f = {p.f:5.2f} um/rev")

# low-discrepancy points cover the square more evenly than iid uniforms:
# compare nearest-neighbour spacings for the same sample size
rng = np.random.default_rng(0)
quasi = sobol_unit(64, skip=1)
iid = rng.uniform(size=(64, 2))


def nn_spacing(points):
    d = np.linalg.norm(points[:, None] - points[None], axis=-1)
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


print("\nnearest-neighbour spacing, n = 64")
print(f"  Sobol : min {nn_spacing(quasi).min():.4f}  mean {nn_spacing(quasi).mean():.4f}")
print(f"  random: min {nn_spacing(iid).min():.4f}  mean {nn_spacing(iid).mean():.4f}")

# a design can be grown later without redoing the first batch: requesting a
# larger plan reproduces the original points and appends new ones after them
more_initial, more_reserve = augmentation_plan(bounds, n_initial=16, n_reserve=13)
assert more_initial == initial
assert more_reserve[:5] == reserve
print(f"\naugmented plan keeps the first {len(initial) + len(reserve)} points "
      f"and adds {len(more_reserve) - len(reserve)} new reserve settings")
