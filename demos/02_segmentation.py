#!/usr/bin/env python3
"""
Segmenting a force trace into cutting passes
============================================

A raw dynamometer trace alternates between air cuts (near-zero force)
and in-contact passes. Binary segmentation on the tangential channel
finds the pass boundaries, and the contact-phase extractor turns the
in-contact samples into a force-versus-cutting-length series.
"""

import numpy as np

from toolwear.segmentation import RawTrace, binary_segmentation, extract_contact_phases

rng = np.random.default_rng(7)

# synthetic trace: three passes of rising force separated by air cuts
parts = []
level = 180.0
for _ in range(3):
    parts.append(rng.normal(2.0, 1.5, size=120))          # air cut
    parts.append(level + np.linspace(0, 8, 200) + rng.normal(0, 4, size=200))
    level += 10.0                                          # wear between passes
parts.append(rng.normal(2.0, 1.5, size=120))
ft = np.concatenate(parts)

trace = RawTrace(
    forces={"Ft": ft, "Ff": 0.6 * ft, "Fp": 0.3 * ft},
    length_per_sample=0.002,
)

seg = binary_segmentation(trace)
print(f"found {len(seg.changepoints)} changepoints at samples {seg.changepoints}")
for (lo, hi), mean, var in zip(seg.segments(), seg.segment_means, seg.segment_vars):
    kind = "contact" if mean > 50 else "air    "
    print(f"  [{lo:4d}, {hi:4d})  {kind}  mean {mean:7.1f} N  sd {np.sqrt(var):5.1f} N")

length, forces = extract_contact_phases(trace, seg, contact_threshold=50.0)
print(f"\ncontact series: {len(length)} samples, {length[-1]:.2f} m of cut")
print(f"Ft range {forces['Ft'].min():.0f}-{forces['Ft'].max():.0f} N")
