import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osruq import gallery as ga
from osruq import vmf
from tests.conftest import random_gallery, random_model, random_unit

# single-class hand case: d=3, kappa=1, beta=0.5, probe on the class mean
HAND_P1 = 0.6981619832493626
HAND_P0 = 0.3018380167506374
HAND_P1_ANTIPODE = 0.2384058440442351


def single_class_model() -> ga.GalleryModel:
    mean = np.array([1.0, 0.0, 0.0])
    g = ga.Gallery(class_ids=("c000",), means=mean[None, :])
    return ga.GalleryModel(gallery=g, kappa=1.0, beta=0.5)


def test_gallery_validation():
    means = np.eye(2)
    with pytest.raises(ValueError):
        ga.Gallery(class_ids=("a", "a"), means=means)
    with pytest.raises(ValueError):
        ga.Gallery(class_ids=("a", "b"), means=means * 2.0)
    g = ga.Gallery(class_ids=("a", "b"), means=means)
    assert g.k == 2
    assert g.d == 2


def test_gallery_rejects_non_finite_means():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gallery means must be unit norm"):
            ga.Gallery(class_ids=("a", "b"), means=[[bad, 0.0], [0.0, 1.0]])


def test_model_validation():
    g = ga.Gallery(class_ids=("a",), means=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        ga.GalleryModel(gallery=g, kappa=-1.0, beta=0.5)
    with pytest.raises(ValueError):
        ga.GalleryModel(gallery=g, kappa=1.0, beta=1.0)
    # kappa == 0 is a valid (uninformative) model
    ga.GalleryModel(gallery=g, kappa=0.0, beta=0.5)


def test_posterior_hand_values():
    model = single_class_model()
    post = ga.posterior(model, np.array([1.0, 0.0, 0.0]))
    assert post[0] == pytest.approx(HAND_P1, abs=1e-12)
    assert post[-1] == pytest.approx(HAND_P0, abs=1e-12)
    anti = ga.posterior(model, np.array([-1.0, 0.0, 0.0]))
    assert anti[0] == pytest.approx(HAND_P1_ANTIPODE, abs=1e-12)


def test_posterior_sums_to_one(rng):
    for _ in range(20):
        model = random_model(rng, k=int(rng.integers(1, 12)), d=5)
        post = ga.posterior(model, random_unit(rng, 5))
        assert post.shape == (model.gallery.k + 1,)
        assert float(np.sum(post[:-1])) + post[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(post >= 0.0)


def test_posterior_kappa_zero_is_prior():
    g = random_gallery(np.random.default_rng(0), 4, 6)
    model = ga.GalleryModel(gallery=g, kappa=0.0, beta=0.3)
    post = ga.posterior(model, random_unit(np.random.default_rng(1), 6))
    np.testing.assert_allclose(post[:-1], 0.7 / 4, atol=1e-12)
    assert post[-1] == pytest.approx(0.3, abs=1e-12)


def test_posterior_permutation_equivariant(rng):
    model = random_model(rng, k=6, d=8)
    z = random_unit(rng, 8)
    post = ga.posterior(model, z)
    perm = rng.permutation(6)
    shuffled = ga.GalleryModel(
        gallery=ga.Gallery(
            class_ids=tuple(model.gallery.class_ids[i] for i in perm),
            means=model.gallery.means[perm],
        ),
        kappa=model.kappa,
        beta=model.beta,
    )
    post2 = ga.posterior(shuffled, z)
    np.testing.assert_allclose(post2[:-1], post[:-1][perm], atol=1e-14)
    assert post2[-1] == pytest.approx(post[-1], abs=1e-14)


def test_posterior_rotation_invariant(rng):
    model = random_model(rng, k=5, d=4)
    z = random_unit(rng, 4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = ga.GalleryModel(
        gallery=ga.Gallery(class_ids=model.gallery.class_ids, means=model.gallery.means @ q.T),
        kappa=model.kappa,
        beta=model.beta,
    )
    post = ga.posterior(model, z)
    post2 = ga.posterior(rotated, q @ z)
    np.testing.assert_allclose(post2[:-1], post[:-1], atol=1e-10)


def test_decide_strict_reject_rule():
    # the last column is out-of-gallery; an exact tie goes to accept
    assert ga.decision_index(np.array([0.5, 0.5])) == 0
    assert ga.decision_index(np.array([0.4, 0.6])) == -1
    rows = np.array([[0.5, 0.5], [0.4, 0.6]])
    assert ga.decision_index(rows).tolist() == [0, -1]


def test_decide_argmax_tie_lowest_index():
    assert ga.decision_index(np.array([0.4, 0.4, 0.2])) == 0


def test_galue_score_is_top_probability():
    assert ga.galue_score(np.array([0.1, 0.3, 0.6])) == pytest.approx(0.6)
    assert ga.galue_score(np.array([0.7, 0.1, 0.2])) == pytest.approx(0.7)
    assert ga.galue_score(np.array([[0.1, 0.3, 0.6], [0.7, 0.1, 0.2]])).tolist() == [0.6, 0.7]


def test_aggregate_template_mean_direction():
    samples = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = ga.aggregate_template(samples)
    np.testing.assert_allclose(out, np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-14)
    with pytest.raises(ValueError, match="sample mean has vanishing norm"):
        ga.aggregate_template(np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_equivalent_threshold_formula(rng):
    for _ in range(10):
        model = random_model(rng, k=int(rng.integers(1, 30)), d=12)
        tau = ga.equivalent_threshold(model)
        k = model.gallery.k
        expected = (math.log(model.beta / (1.0 - model.beta)) + math.log(k)
                    + vmf.log_alpha(12, model.kappa)) / model.kappa
        assert tau == pytest.approx(expected, rel=1e-12)


def test_equivalent_threshold_needs_positive_kappa():
    g = ga.Gallery(class_ids=("a",), means=np.array([[1.0, 0.0]]))
    model = ga.GalleryModel(gallery=g, kappa=0.0, beta=0.5)
    with pytest.raises(ValueError):
        ga.equivalent_threshold(model)


def test_threshold_decision_agreement(rng):
    # accepting iff max cosine clears tau must agree with the posterior rule
    for _ in range(50):
        k = int(rng.integers(1, 20))
        model = random_model(rng, k=k, d=6)
        z = random_unit(rng, 6)
        tau = ga.equivalent_threshold(model)
        accepted = ga.decision_index(ga.posterior(model, z)) >= 0
        cos_max = float(np.max(model.gallery.means @ z))
        assert accepted == (cos_max >= tau)


def test_kappa_round_trip():
    # invert the threshold map at a reference operating point
    g = random_gallery(np.random.default_rng(2), 50, 16)
    model = ga.GalleryModel(gallery=g, kappa=100.0, beta=0.5)
    tau = ga.equivalent_threshold(model)
    kappa = ga.kappa_for_threshold(tau, beta=0.5, k=50, d=16)
    assert kappa == pytest.approx(100.0, rel=1e-4)


def test_kappa_for_threshold_reproduces_target(rng):
    for _ in range(10):
        k = int(rng.integers(1, 60))
        beta = float(rng.uniform(0.1, 0.9))
        target = float(rng.uniform(0.3, 0.9))
        try:
            kappa = ga.kappa_for_threshold(target, beta=beta, k=k, d=16)
        except ga.UnreachableThresholdError:
            continue
        g = random_gallery(rng, k, 16)
        model = ga.GalleryModel(gallery=g, kappa=kappa, beta=beta)
        assert ga.equivalent_threshold(model) == pytest.approx(target, abs=1e-8)


def test_kappa_for_threshold_is_continuous_at_a_scan_point():
    # a target equal to a scan value takes the largest-kappa crossing like its neighbours,
    # not the scan point it hits (kappa 7.36 on the map's decreasing branch)
    lo, hi = ga._KAPPA_RANGE
    log_grid = np.linspace(np.log(lo), np.log(hi), ga._SCAN_POINTS)
    tau = float(ga._threshold_from_params(np.exp(log_grid), 0.5, 300, 16)[143])
    assert tau == 0.9867418739567604
    kappas = [ga.kappa_for_threshold(t, beta=0.5, k=300, d=16)
              for t in (np.nextafter(tau, -1.0), tau, np.nextafter(tau, 1.0))]
    assert kappas[0] == kappas[1] == kappas[2]
    assert kappas[1] == pytest.approx(3195.545, rel=1e-6)


def test_kappa_for_threshold_unreachable_reports_range():
    # with beta 0.5 and K=1 the map dips below zero but never reaches -1
    with pytest.raises(ga.UnreachableThresholdError) as exc:
        ga.kappa_for_threshold(-0.99, beta=0.5, k=1, d=16)
    lo, hi = exc.value.achievable
    assert lo > -0.99
    assert hi > lo


def test_kappa_for_threshold_validates_inputs():
    with pytest.raises(ValueError):
        ga.kappa_for_threshold(1.5, beta=0.5, k=1, d=3)
    with pytest.raises(ValueError):
        ga.kappa_for_threshold(0.5, beta=0.0, k=1, d=3)
    with pytest.raises(ValueError):
        ga.kappa_for_threshold(0.5, beta=0.5, k=0, d=3)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_decision_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 25))
    d = int(rng.integers(2, 20))
    model = random_model(rng, k=k, d=d)
    z = random_unit(rng, d)
    accepted = ga.decision_index(ga.posterior(model, z)) >= 0
    tau = ga.equivalent_threshold(model)
    assert accepted == (float(np.max(model.gallery.means @ z)) >= tau)


def test_cached_normalizers_match_the_functions():
    rng = np.random.default_rng(17)
    for d in (2, 16, 128, 512):
        gal = random_gallery(rng, 3, d)
        for kappa in (0.0, 1e-3, 1.0, 150.0, 1e5):
            model = ga.GalleryModel(gallery=gal, kappa=kappa, beta=0.3)
            log_c, log_a = model._log_normalizers
            assert log_c == vmf.log_c_d(d, kappa) and log_a == vmf.log_alpha(d, kappa)


def test_equivalent_threshold_is_bit_equal_to_the_params_formula():
    rng = np.random.default_rng(23)
    for _ in range(300):
        d = (2, 16, 128, 512)[rng.integers(4)]
        k = (1, 10, 100)[rng.integers(3)]
        kappa = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e5))))
        model = ga.GalleryModel(gallery=random_gallery(rng, k, d), kappa=kappa,
                                beta=float(rng.uniform(0.05, 0.95)))
        want = float(ga._threshold_from_params(kappa, model.beta, k, d))
        assert ga.equivalent_threshold(model).hex() == want.hex(), (d, k, kappa)
