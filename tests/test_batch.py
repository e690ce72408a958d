"""The batch scoring path agrees with one probe at a time up to rounding."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from osruq import gallery as ga
from osruq import holistic as ho
from osruq import metrics as mt
from osruq import protocol as pr


# the one tolerance, relative and absolute, at which a batch row agrees with its
# single-probe call; the widest gap seen is about 2e-14 relative (log terms)
TOLERANCE = 1e-12


def agree(batch, single):
    np.testing.assert_allclose(batch, single, rtol=TOLERANCE, atol=TOLERANCE)


def preset_probes(d: int, n_identities: int = 60):
    """The gallery, the probe vectors and the probe kappas of a mixed-preset protocol."""
    proto = pr.generate_protocol(pr.preset_config("mixed", d=d, n_identities=n_identities))
    return proto.gallery, proto.probes.means, proto.probes.kappa


@pytest.mark.parametrize("d, kappa", [(16, 60.0), (128, 480.0)])
def test_batch_rows_equal_scalar_calls(d, kappa):
    gal, z_all, kappas = preset_probes(d)
    model = ga.GalleryModel(gallery=gal, kappa=kappa, beta=0.5)

    cos = ga.cosines(gal, z_all)
    terms = ga.log_joint_terms(model, z_all)
    log_marg = ga.log_marginal(model, z_all)
    probs = ga.softmax(terms)
    decided = ga.decision_index(probs)
    kl1, kl2 = ho.kl_from_terms(model, terms, ho.self_log_density(d, kappas), 20.0)
    assert terms.shape == (len(z_all), gal.k + 1)
    assert np.array_equal(ga.posterior(model, z_all), probs)
    stacked = ho.kl_components(model, z_all, kappas, temperature=20.0)
    assert np.array_equal(stacked.kl1, kl1) and np.array_equal(stacked.kl2, kl2)

    for i, (z, k) in enumerate(zip(z_all, kappas)):
        agree(cos[i], gal.means @ z)
        agree(cos[i].max(), ga.cosines(gal, z).max())
        agree(terms[i], ga.log_joint_terms(model, z))
        agree(log_marg[i], ga.log_marginal(model, z))
        post = ga.posterior(model, z)
        agree(probs[i], post)
        assert ga.decision_index(post) == decided[i]
        agree(probs[i].max(), ga.galue_score(post))
        comps = ho.kl_components(model, z, k, temperature=20.0)
        agree((kl1[i], kl2[i]), (comps.kl1, comps.kl2))


def test_batch_validates_every_row():
    gal, z_all, _ = preset_probes(16)
    z_all = z_all[:5].copy()
    z_all[3] *= 1.01
    with pytest.raises(ValueError, match=r"rows \[3\]"):
        ga.cosines(gal, z_all)
    short = z_all[:, :8] / np.linalg.norm(z_all[:, :8], axis=1)[:, None]
    with pytest.raises(ValueError, match="dimension mismatch"):
        ga.cosines(gal, short)


def test_kl1_with_underflowed_posterior_entries_matches_scalar():
    # at kappa 500 and T = 1 most probes push some tempered class
    # probabilities below the smallest double; those entries add exact
    # zeros, so kl1 is the sum over the entries that did not underflow
    gal, z_all, kappas = preset_probes(16, n_identities=300)
    model = ga.GalleryModel(gallery=gal, kappa=500.0, beta=0.5)
    terms = ga.log_joint_terms(model, z_all)
    kl1, kl2 = ho.kl_from_terms(model, terms, ho.self_log_density(16, kappas), 1.0)

    underflowed = ~np.all(ga.softmax(terms)[:, :-1] > 0.0, axis=1)
    assert 0 < underflowed.sum() < len(z_all)
    for i, (z, k) in enumerate(zip(z_all, kappas)):
        comps = ho.kl_components(model, z, k, temperature=1.0)
        agree((kl1[i], kl2[i]), (comps.kl1, comps.kl2))
        # the entries that did not underflow, summed apart from the batch
        log_post = terms[i, :-1] - logsumexp(terms[i])
        post = np.exp(log_post)
        kept = post > 0.0
        log_prior = np.log((1.0 - model.beta) / gal.k)
        agree(kl1[i], np.sum(post[kept] * (log_post[kept] - log_prior)))


def random_outcomes(n=60, seed=13):
    """(probe_id, true class or None, accepted class or None) rows."""
    rng = np.random.default_rng(seed)
    outs = []
    for i in range(n):
        mated = rng.random() < 0.6
        accepted = rng.random() < 0.7
        true = ("a" if rng.random() < 0.8 else "b") if mated else None
        outs.append((f"p{(7 * i) % n:03d}", true, "a" if accepted else None))
    return outs


def classes_of(outs):
    return mt.outcome_classes([t is not None for _, t, _ in outs], [a is not None for _, _, a in outs],
                              [a == t for _, t, a in outs])


def plain_values(kept):
    """(F1, FPIR, FNIR) of the kept outcomes in plain Python arithmetic."""
    tp = sum(t is not None and a == t for _, t, a in kept)
    fn = sum(t is not None for _, t, _ in kept) - tp
    fp = sum(t is None and a is not None for _, t, a in kept)
    nm = sum(t is None for _, t, _ in kept)
    fpir = fp / nm if nm else 0.0
    fnir = fn / (fn + tp) if fn + tp else 0.0
    if tp == 0:
        f1 = 0.0
    else:
        precision, recall = tp / (tp + fp), tp / (tp + fn)
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"F1": f1, "FPIR": fpir, "FNIR": fnir}


def brute_curve(ordered, fractions):
    return [plain_values(ordered[math.floor(r * len(ordered)):]) for r in fractions]


def test_reference_curves_match_brute_force():
    outs = random_outcomes()
    n, seed = len(outs), 3
    oracle, rand = mt.reference_curve_sets(classes_of(outs), [pid for pid, _, _ in outs],
                                           max_fraction=0.5, seed=seed)
    fractions = oracle["F1"].fractions

    def error(o):
        _, true, accepted = o
        return accepted is not None if true is None else accepted != true

    errors_first = sorted(outs, key=lambda o: (not error(o), o[0]))
    expected_oracle = brute_curve(errors_first, fractions)
    expected_random = {m: np.zeros(len(fractions)) for m in mt.METRIC_NAMES}
    for s in range(mt.SHUFFLES):
        perm = np.random.default_rng([seed, s]).permutation(n)
        values = brute_curve([outs[j] for j in perm], fractions)
        for m in mt.METRIC_NAMES:
            expected_random[m] += [v[m] for v in values]

    for m in mt.METRIC_NAMES:
        assert oracle[m].values.tolist() == [v[m] for v in expected_oracle]
        assert rand[m].values.tolist() == (expected_random[m] / mt.SHUFFLES).tolist()


def test_rejection_curves_give_every_metric_of_one_order():
    outs = random_outcomes()
    rng = np.random.default_rng(2)
    scores = rng.integers(0, 5, size=len(outs)).astype(float)  # many ties
    curves = mt.rejection_curves(classes_of(outs), scores, [pid for pid, _, _ in outs], max_fraction=0.5)
    order = sorted(range(len(outs)), key=lambda i: (scores[i], outs[i][0]))
    expected = brute_curve([outs[i] for i in order], curves["F1"].fractions)
    assert list(curves) == list(mt.METRIC_NAMES)
    for m in mt.METRIC_NAMES:
        assert curves[m].values.tolist() == [v[m] for v in expected]


def test_outcome_classes_definition():
    classes = mt.outcome_classes(mated=[True, True, True, False, False],
                                 accepted=[True, True, False, True, False],
                                 correct=[True, False, True, False, False])
    assert classes.tolist() == [mt.TP, mt.FN, mt.FN, mt.FP, mt.TN]
    assert mt.class_counts(classes) == (1, 2, 1, 2)


def test_mlp_predict_batch_equals_single_calls():
    rng = np.random.default_rng(4)
    features = rng.standard_normal((200, 2))
    labels = (features[:, 0] + 0.5 * rng.standard_normal(200) > 0).astype(float)
    calib = ho.fit_mlp(features, labels, seed=1)
    kl1n, kl2n = rng.standard_normal(500), rng.standard_normal(500)
    batch = ho.mlp_predict(calib, kl1n, kl2n)
    agree(batch, [ho.mlp_predict(calib, a, b) for a, b in zip(kl1n, kl2n)])
