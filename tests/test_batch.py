"""The batch scoring path gives the same bits as one probe at a time."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from osruq import baselines as bl
from osruq import gallery as ga
from osruq import holistic as ho
from osruq import metrics as mt
from osruq import protocol as pr
from osruq.gallery import Decision


def preset_probes(d: int, n_identities: int = 60):
    proto = pr.generate_protocol(pr.preset_config("mixed", d=d, n_identities=n_identities))
    probes = list(proto.mated_probes + proto.nonmated_probes)
    return proto.gallery, probes


@pytest.mark.parametrize("d, kappa", [(16, 60.0), (128, 480.0)])
def test_batch_rows_equal_scalar_calls(d, kappa):
    gal, probes = preset_probes(d)
    model = ga.GalleryModel(gallery=gal, kappa=kappa, beta=0.5)
    z_all = np.array([p.mean for p in probes])
    kappas = np.array([p.kappa for p in probes])

    cos = ga.cosines(gal, z_all)
    terms = ga.log_joint_terms(model, z_all)
    log_marg = ga.log_marginal(model, z_all)
    probs = ga.softmax(terms)
    decided = ga.decision_index(probs[:, :-1], probs[:, -1])
    kl1, kl2 = ho.kl_from_terms(model, terms, ho.self_log_density(d, kappas), 20.0)
    assert terms.shape == (len(probes), gal.k + 1)

    for i, p in enumerate(probes):
        assert np.array_equal(cos[i], gal.means @ p.mean)
        assert cos[i].max() == bl.acc_score(gal, p.mean)
        assert np.array_equal(terms[i], ga.log_joint_terms(model, p.mean))
        assert log_marg[i] == ga.log_marginal(model, p.mean)
        post = ga.posterior(model, p.mean)
        assert np.array_equal(probs[i, :-1], post.gallery_probs)
        assert probs[i, -1] == post.oog_prob
        decision = ga.decide(post, gal)
        assert decision.accepted == (decided[i] >= 0)
        if decision.accepted:
            assert decision.class_id == gal.class_ids[decided[i]]
        comps = ho.kl_components(model, ho.ProbabilisticEmbedding(mean=p.mean, kappa=p.kappa),
                                 temperature=20.0)
        assert (kl1[i], kl2[i]) == (comps.kl1, comps.kl2)


def test_batch_validates_every_row():
    gal, probes = preset_probes(16)
    z_all = np.array([p.mean for p in probes[:5]])
    z_all[3] *= 1.01
    with pytest.raises(ValueError, match=r"rows \[3\]"):
        ga.cosines(gal, z_all)
    short = z_all[:, :8] / np.linalg.norm(z_all[:, :8], axis=1)[:, None]
    with pytest.raises(ValueError, match="dimension mismatch"):
        ga.cosines(gal, short)


def test_kl1_with_underflowed_posterior_entries_matches_scalar():
    # at kappa 500 and T = 1 most probes push some tempered class
    # probabilities below the smallest double; kl1 then sums only the rest,
    # and on this gallery summing the zeros too changes some rows' last bits
    gal, probes = preset_probes(16, n_identities=300)
    model = ga.GalleryModel(gallery=gal, kappa=500.0, beta=0.5)
    z_all = np.array([p.mean for p in probes])
    kappas = np.array([p.kappa for p in probes])
    terms = ga.log_joint_terms(model, z_all)
    kl1, kl2 = ho.kl_from_terms(model, terms, ho.self_log_density(16, kappas), 1.0)

    underflowed = ~np.all(ga.softmax(terms)[:, :-1] > 0.0, axis=1)
    assert 0 < underflowed.sum() < len(probes)
    for i, p in enumerate(probes):
        comps = ho.kl_components(model, ho.ProbabilisticEmbedding(mean=p.mean, kappa=p.kappa),
                                 temperature=1.0)
        assert (kl1[i], kl2[i]) == (comps.kl1, comps.kl2)
        # the same entries, summed apart from the batch
        log_post = terms[i, :-1] - logsumexp(terms[i])
        post = np.exp(log_post)
        kept = post > 0.0
        log_prior = np.log((1.0 - model.beta) / gal.k)
        assert kl1[i] == np.sum(post[kept] * (log_post[kept] - log_prior))


def random_outcomes(n=60, seed=13):
    rng = np.random.default_rng(seed)
    outs = []
    for i in range(n):
        mated = rng.random() < 0.6
        accepted = rng.random() < 0.7
        true = ("a" if rng.random() < 0.8 else "b") if mated else None
        outs.append(mt.ProbeOutcome(
            probe_id=f"p{(7 * i) % n:03d}", true_class=true,
            decision=Decision(accepted=accepted, class_id="a" if accepted else None),
            scores={}))
    return outs


def plain_values(kept):
    """(F1, FPIR, FNIR) of the kept outcomes in plain Python arithmetic."""
    tp = sum(o.true_class is not None and o.decision.class_id == o.true_class for o in kept)
    fn = sum(o.true_class is not None for o in kept) - tp
    fp = sum(o.true_class is None and o.decision.accepted for o in kept)
    nm = sum(o.true_class is None for o in kept)
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
    n, n_shuffles, seed = len(outs), 7, 3
    oracle, rand = mt.reference_curve_sets(mt.classify(outs), [o.probe_id for o in outs],
                                           max_fraction=0.5, n_points=11,
                                           n_shuffles=n_shuffles, seed=seed)
    fractions = oracle["F1"].fractions

    def error(o):
        return o.decision.accepted if o.true_class is None else o.decision.class_id != o.true_class

    errors_first = sorted(outs, key=lambda o: (not error(o), o.probe_id))
    expected_oracle = brute_curve(errors_first, fractions)
    expected_random = {m: np.zeros(len(fractions)) for m in mt.METRIC_NAMES}
    for s in range(n_shuffles):
        perm = np.random.default_rng([seed, s]).permutation(n)
        values = brute_curve([outs[j] for j in perm], fractions)
        for m in mt.METRIC_NAMES:
            expected_random[m] += [v[m] for v in values]

    for m in mt.METRIC_NAMES:
        assert oracle[m].values.tolist() == [v[m] for v in expected_oracle]
        assert rand[m].values.tolist() == (expected_random[m] / n_shuffles).tolist()
        # the single-metric wrapper returns the same curves
        one_oracle, one_rand = mt.reference_curves(outs, metric=m, max_fraction=0.5, n_points=11,
                                                   n_shuffles=n_shuffles, seed=seed)
        assert np.array_equal(one_oracle.values, oracle[m].values)
        assert np.array_equal(one_rand.values, rand[m].values)


def test_rejection_curves_give_every_metric_of_one_order():
    outs = random_outcomes()
    rng = np.random.default_rng(2)
    scores = rng.integers(0, 5, size=len(outs)).astype(float)  # many ties
    curves = mt.rejection_curves(mt.classify(outs), scores, [o.probe_id for o in outs],
                                 max_fraction=0.5, n_points=11)
    order = sorted(range(len(outs)), key=lambda i: (scores[i], outs[i].probe_id))
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
    calib = ho.fit_mlp(features, labels, config=ho.TrainingConfig(epochs=100), seed=1)
    kl1n, kl2n = rng.standard_normal(500), rng.standard_normal(500)
    batch = ho.mlp_predict(calib, kl1n, kl2n)
    assert batch.tolist() == [ho.mlp_predict(calib, a, b) for a, b in zip(kl1n, kl2n)]
