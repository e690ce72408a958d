#!/usr/bin/env python3
"""Open-set identification with an explicit out-of-gallery hypothesis.

A gallery of enrolled class means plus a uniform "none of the above"
component gives a K+1 way posterior for every probe. Accepting only when
some class beats the out-of-gallery mass turns out to be the same rule as
thresholding the best cosine similarity, and the threshold is available in
closed form.
"""

import numpy as np

from osruq import (Gallery, GalleryModel, VmfParams, decision_index, equivalent_threshold,
                   galue_score, kappa_for_threshold, posterior, sample_vmf)

rng = np.random.default_rng(11)

d, k = 16, 5
means = rng.standard_normal((k, d))
means /= np.linalg.norm(means, axis=1, keepdims=True)
gallery = Gallery(class_ids=tuple(f"id{i}" for i in range(k)), means=means)
model = GalleryModel(gallery=gallery, kappa=80.0, beta=0.3)


def describe(probs):
    """The decision a K+1 posterior (out-of-gallery last) leads to."""
    best = decision_index(probs)  # class index, or -1 to reject
    cls = gallery.class_ids[best] if best >= 0 else None
    print(f"  p(out of gallery) = {probs[-1]:.3f}")
    print(f"  decision: accepted={best >= 0} class={cls}")
    print(f"  confidence (max of K+1) = {galue_score(probs):.3f}")


# A probe drawn near class 2 should be claimed by it.
mated = sample_vmf(VmfParams(mean=means[2], kappa=200.0), rng, 1)[0]
probs = posterior(model, mated)   # K class probabilities, then out-of-gallery
print("mated probe:")
print(f"  class probs  {np.array2string(probs[:-1], precision=3)}")
describe(probs)

# A uniform random direction should land in the reject bucket.
stray = rng.standard_normal(d)
stray /= np.linalg.norm(stray)
print("\nstray probe:")
describe(posterior(model, stray))

# The posterior rule is a cosine threshold in disguise.
tau = equivalent_threshold(model)
print(f"\nequivalent cosine threshold tau = {tau:.4f}")
print(f"  best cosine, mated  {float(np.max(means @ mated)):+.4f}")
print(f"  best cosine, stray  {float(np.max(means @ stray)):+.4f}")

# Every function above also takes a stack of probes, one per row.
Z = rng.standard_normal((2000, d))
Z /= np.linalg.norm(Z, axis=1, keepdims=True)
by_posterior = decision_index(posterior(model, Z)) >= 0
by_threshold = np.max(Z @ means.T, axis=1) >= tau
print(f"  agreement over 2000 random probes: {np.sum(by_posterior == by_threshold)}/2000")

# And the map inverts: given an operating threshold, recover the
# concentration that realizes it.
kappa = kappa_for_threshold(tau, beta=0.3, k=k, d=d)
print(f"\nkappa recovered from tau: {kappa:.6f} (model used 80)")
