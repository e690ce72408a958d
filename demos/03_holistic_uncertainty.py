#!/usr/bin/env python3
"""Holistic uncertainty from two KL-style components.

The gallery posterior alone cannot tell "confidently wrong" from
"confidently right". Treating the probe itself as a vMF with its own
quality concentration yields two complements: divergence of the tempered
class posterior from the enrollment prior (gallery-side surprise) and a
cross-entropy gap for the out-of-gallery component (probe-side fit). The
two are z-normalized on validation data and either summed or fed to a tiny
MLP calibrated to predict decision correctness.
"""

import numpy as np

from osruq import (Gallery, GalleryModel, VmfParams, decision_index, fit_mlp, fit_stats,
                   holue_sum, kl_components, mlp_predict, normalize, posterior, sample_vmf,
                   scaled_gallery_posterior)

rng = np.random.default_rng(23)

d, k = 16, 6
means = rng.standard_normal((k, d))
means /= np.linalg.norm(means, axis=1, keepdims=True)
model = GalleryModel(
    gallery=Gallery(class_ids=tuple(f"id{i}" for i in range(k)), means=means),
    kappa=60.0, beta=0.3)

def probe_near(mean, spread):
    return sample_vmf(VmfParams(mean=mean, kappa=spread), rng, 1)[0]

# Tempering flattens the class posterior; T=1 is the plain posterior.
z = probe_near(means[0], 300.0)
for t in (1.0, 5.0, 20.0):
    probs = scaled_gallery_posterior(model, z, temperature=t)
    print(f"T={t:<4g} class posterior {np.array2string(probs[:-1], precision=3)}"
          f"  oog={probs[-1]:.3f}")

# Clean on-class probe vs a low-quality blur vs an off-gallery direction; each
# probe is a unit mean plus its own quality concentration kappa.
z = rng.standard_normal(d)
cases = {
    "clean mated   ": (probe_near(means[0], 300.0), 150.0),
    "blurry mated  ": (probe_near(means[0], 40.0), 8.0),
    "clean stray   ": (z / np.linalg.norm(z), 150.0),
}
names = list(cases)
raw = kl_components(model, np.array([m for m, _ in cases.values()]),
                    np.array([q for _, q in cases.values()]))

print("\nraw components (higher = more confident):")
for i, name in enumerate(names):
    print(f"  {name} kl1={raw.kl1[i]:+.4f}  kl2={raw.kl2[i]:+.4f}")

# Build a validation split mixing mated probes of varying sharpness with
# strays, and label each one by whether the gallery decision was correct.
val_means, val_kappas, truths = [], [], []
for i in range(400):
    val_kappas.append(float(rng.uniform(5, 150)))
    if i % 8 < 5:
        cls = int(rng.integers(k))
        val_means.append(probe_near(means[cls], float(rng.uniform(8, 300))))
        truths.append(cls)
    else:
        z = rng.standard_normal(d)
        val_means.append(z / np.linalg.norm(z))
        truths.append(-1)  # the right decision for a stray is reject, -1
val_means = np.array(val_means)
val_comps = kl_components(model, val_means, np.array(val_kappas))
labels = (decision_index(posterior(model, val_means)) == np.array(truths)).astype(np.float64)

# Normalization puts the two components on a common scale before combining.
stats = fit_stats(val_comps)
print(f"\nvalidation stats: kl1 mean={stats.mean1:+.3f} std={stats.std1:.3f}"
      f"  kl2 mean={stats.mean2:+.3f} std={stats.std2:.3f}")
print(f"decision accuracy on validation: {np.mean(labels):.3f}")

k1n, k2n = normalize(raw, stats)
print("\nsummed score (higher = decision more trustworthy):")
for name, score in zip(names, holue_sum(k1n, k2n)):
    print(f"  {name} {score:+.4f}")

# The MLP maps the same two numbers to a calibrated p(decision correct).
calib = fit_mlp(np.column_stack(normalize(val_comps, stats)), labels, seed=0, stats=stats)

print("\ncalibrated p(correct):")
for name, p in zip(names, mlp_predict(calib, k1n, k2n)):
    print(f"  {name} {p:.3f}")
