import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osruq import gallery as ga
from osruq import holistic as ho
from osruq import vmf
from tests.conftest import random_model, random_unit

# hand case: single class at mu1, gallery kappa 1, beta 0.5, d 3, probe on
# mu1 with kappa(x) = 5, temperature 1
HAND_KL1 = 0.2330765224674005
HAND_KL2 = 0.5426784642179780
HAND_MARGINAL = 0.1318214855812718
HAND_SELF_DENSITY = 0.7958108452159537
HAND_P1_T2 = 0.6033110237546010


def hand_model() -> ga.GalleryModel:
    mean = np.array([1.0, 0.0, 0.0])
    g = ga.Gallery(class_ids=("c000",), means=mean[None, :])
    return ga.GalleryModel(gallery=g, kappa=1.0, beta=0.5)


HAND_MEAN = np.array([1.0, 0.0, 0.0])


def test_embedding_validation():
    # a probe's embedding is its unit mean plus a finite kappa > 0, checked
    # where kl_components takes it
    model = hand_model()
    for kappa in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="kappa"):
            ho.kl_components(model, HAND_MEAN, kappa)
    with pytest.raises(ValueError):
        ho.kl_components(model, np.array([2.0, 0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        ho.kl_components(model, np.stack([HAND_MEAN, 2.0 * HAND_MEAN]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="one kappa per probe"):
        ho.kl_components(model, np.stack([HAND_MEAN, HAND_MEAN]), 1.0)
    comps = ho.kl_components(model, np.stack([HAND_MEAN, -HAND_MEAN]), np.array([3.0, 3.0]))
    assert comps.kl1.shape == comps.kl2.shape == (2,)


def test_scaled_posterior_t1_matches_unscaled(rng):
    for _ in range(10):
        model = random_model(rng, k=int(rng.integers(1, 8)), d=5)
        z = random_unit(rng, 5)
        scaled = ho.scaled_gallery_posterior(model, z, temperature=1.0)
        np.testing.assert_allclose(scaled, ga.posterior(model, z), atol=1e-13)


def test_scaled_posterior_hand_value_t2():
    post = ho.scaled_gallery_posterior(hand_model(), HAND_MEAN, temperature=2.0)
    assert post[0] == pytest.approx(HAND_P1_T2, abs=1e-12)


@given(log_t=st.floats(min_value=-1.0, max_value=2.0), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_scaled_posterior_sums_to_one(log_t, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, k=int(rng.integers(1, 10)), d=4)
    post = ho.scaled_gallery_posterior(model, random_unit(rng, 4), temperature=10.0 ** log_t)
    assert float(np.sum(post[:-1])) + post[-1] == pytest.approx(1.0, abs=1e-12)


def test_scaled_posterior_flattens_at_high_temperature():
    model = hand_model()
    post = ho.scaled_gallery_posterior(model, HAND_MEAN, temperature=1e6)
    assert post[0] == pytest.approx(0.5, abs=1e-5)
    assert post[-1] == pytest.approx(0.5, abs=1e-5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scaled_posterior_rejects_a_temperature_whose_reciprocal_overflows():
    # 1/1e-310 is inf: every (negative) term tempers to -inf, and so does their normalizer
    model = ga.GalleryModel(ga.Gallery(("a", "b"), np.eye(3)[:2]), kappa=1.0, beta=0.5)
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="temperature 1e-310"):
        ho.scaled_gallery_posterior(model, z, 1e-310)
    with pytest.raises(ValueError, match="temperature 1e-310"):
        ho.kl_components(model, z, 5.0, temperature=1e-310)
    # 1/1e-300 is finite: the posterior puts all its mass on the largest term
    assert ho.scaled_gallery_posterior(model, z, 1e-300).tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("d", [2, 16, 128])
@pytest.mark.parametrize("k", [1, 7, 50])
@pytest.mark.parametrize("temperature", [1.0, 20.0])
def test_kl1_is_the_divergence_of_scaled_gallery_posterior(d, k, temperature):
    # eval's kl1 and the P_T the temperature tests check are one posterior
    rng = np.random.default_rng([d, k, int(temperature)])
    model = random_model(rng, k=k, d=d, kappa_max=20.0 * d)
    near = model.gallery.means[rng.integers(k, size=6)] + 0.1 * rng.standard_normal((6, d))
    z = np.concatenate([near, rng.standard_normal((6, d))])
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    post = ho.scaled_gallery_posterior(model, z, temperature)[:, :-1]
    log_post = np.log(post, out=np.zeros_like(post), where=post > 0.0)  # an underflowed term adds 0
    expected = np.sum(post * (log_post - np.log((1.0 - model.beta) / k)), axis=1)
    kl1 = ho.kl_components(model, z, rng.uniform(1.0, 100.0, size=12), temperature).kl1
    np.testing.assert_allclose(kl1, expected, rtol=0.0, atol=1e-12)


def test_kl_components_hand_values():
    comps = ho.kl_components(hand_model(), HAND_MEAN, 5.0, temperature=1.0)
    assert comps.kl1 == pytest.approx(HAND_KL1, abs=1e-12)
    assert comps.kl2 == pytest.approx(HAND_KL2, abs=1e-12)
    # the pieces the hand derivation runs through
    assert ga.log_marginal(hand_model(), np.array([1.0, 0.0, 0.0])) == pytest.approx(
        math.log(HAND_MARGINAL), abs=1e-12)
    assert vmf.log_c_d(3, 5.0) + 5.0 == pytest.approx(math.log(HAND_SELF_DENSITY), abs=1e-12)


def test_kl_components_default_temperature():
    comps = ho.kl_components(hand_model(), HAND_MEAN, 5.0)
    assert ho.DEFAULT_TEMPERATURE == 20.0
    at_20 = ho.kl_components(hand_model(), HAND_MEAN, 5.0, temperature=20.0)
    assert (comps.kl1, comps.kl2) == (at_20.kl1, at_20.kl2)
    assert comps.kl1 != ho.kl_components(hand_model(), HAND_MEAN, 5.0, temperature=1.0).kl1


def test_kl1_zero_for_uninformative_gallery():
    # kappa 0 makes the class posterior equal the prior, so kl1 vanishes up
    # to logsumexp round-off
    g = ga.Gallery(class_ids=("a", "b"), means=np.eye(2))
    model = ga.GalleryModel(gallery=g, kappa=0.0, beta=0.4)
    comps = ho.kl_components(model, random_unit(np.random.default_rng(0), 2), 3.0, temperature=1.0)
    assert abs(comps.kl1) < 1e-13


def test_kl1_nonnegative_as_beta_vanishes(rng):
    # with no out-of-gallery mass the T=1 posterior lives on the full class
    # simplex and kl1 is an ordinary KL divergence; beta must undercut the
    # largest possible likelihood ratio exp(2 kappa) for the mass to vanish
    for _ in range(10):
        k = int(rng.integers(2, 8))
        base = random_model(rng, k=k, d=5, kappa_max=5.0)
        model = ga.GalleryModel(gallery=base.gallery, kappa=base.kappa, beta=1e-30)
        comps = ho.kl_components(model, random_unit(rng, 5), 2.0, temperature=1.0)
        assert comps.kl1 >= -1e-12


def test_kl2_increases_with_probe_concentration():
    model = hand_model()
    values = ho.kl_components(model, np.tile(HAND_MEAN, (5, 1)), np.array([1.0, 2.0, 5.0, 10.0, 50.0])).kl2
    assert all(b > a for a, b in zip(values, values[1:]))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), d=st.sampled_from([16, 128, 512]),
       temperature=st.sampled_from([1.0, ho.DEFAULT_TEMPERATURE]))
@settings(max_examples=30, deadline=None)
def test_kl2_finite_and_not_constant_up_to_d512(seed, d, temperature):
    # log_oog = log(beta / surface_area) is about +866 at d=512, where a weight
    # of exp(log_oog / T - log_marg) underflowed to 0 for every probe
    rng = np.random.default_rng(seed)
    model = random_model(rng, k=10, d=d, kappa_max=8.0 * d)
    z = np.array([random_unit(rng, d) for _ in range(20)])
    kl2 = ho.kl_components(model, z, rng.uniform(d, 50.0 * d, 20), temperature).kl2
    assert np.all(np.isfinite(kl2))
    assert np.ptp(kl2) > 0.0


def test_kl_components_validation():
    with pytest.raises(ValueError):
        ho.kl_components(hand_model(), HAND_MEAN, 5.0, temperature=0.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        ho.kl_components(hand_model(), np.array([0.0, 1.0]), 1.0)


def comps_from(values1, values2):
    return ho.KlComponents(kl1=np.array(values1), kl2=np.array(values2))


def test_fit_stats_values():
    stats = ho.fit_stats(comps_from([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
    assert stats.mean1 == pytest.approx(2.0)
    assert stats.std1 == pytest.approx(1.0)
    stats = ho.fit_stats(comps_from([0.0, 0.0, 4.0, 4.0], [1.0, 2.0, 3.0, 4.0]))
    assert stats.mean1 == pytest.approx(2.0)
    assert stats.std1 == pytest.approx(math.sqrt(16.0 / 3.0))


def test_fit_stats_errors():
    with pytest.raises(ho.CalibrationError):
        ho.fit_stats(comps_from([1.0], [1.0]))
    with pytest.raises(ho.CalibrationError):
        ho.fit_stats(comps_from([2.0, 2.0], [1.0, 3.0]))


def test_normalize_and_sum():
    stats = ho.CalibrationStats(mean1=1.0, std1=2.0, mean2=-1.0, std2=0.5)
    comps = ho.KlComponents(kl1=3.0, kl2=0.0)
    kl1n, kl2n = ho.normalize(comps, stats)
    assert kl1n == pytest.approx(1.0)
    assert kl2n == pytest.approx(2.0)
    assert ho.holue_sum(kl1n, kl2n) == pytest.approx(3.0)


def test_holue_sum_ranking_invariant_under_shift(rng):
    # adding the same offset to every probe's components cannot reorder them
    a = rng.standard_normal(20)
    b = rng.standard_normal(20)
    base = np.array([ho.holue_sum(x, y) for x, y in zip(a, b)])
    shifted = np.array([ho.holue_sum(x + 3.5, y - 1.25) for x, y in zip(a, b)])
    np.testing.assert_array_equal(np.argsort(base, kind="stable"),
                                  np.argsort(shifted, kind="stable"))


def test_zero_initialized_network_predicts_half():
    sizes = ho.LAYER_SIZES
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    calib = ho.MlpCalibrator(weights=weights, biases=biases)
    assert ho.mlp_predict(calib, 0.7, -2.0) == 0.5


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    sizes = [2, 4, 4, 1]
    weights = [rng.uniform(-0.5, 0.5, size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.uniform(-0.5, 0.5, size=b) for b in sizes[1:]]
    x = rng.standard_normal((20, 2))
    y = (rng.random(20) < 0.5).astype(float)
    _, grad_w, grad_b = ho.loss_and_gradients(weights, biases, x, y)
    step = 1e-5
    worst = 0.0
    for layer in range(len(weights)):
        for idx in np.ndindex(weights[layer].shape):
            w_plus = [w.copy() for w in weights]
            w_minus = [w.copy() for w in weights]
            w_plus[layer][idx] += step
            w_minus[layer][idx] -= step
            lp, _, _ = ho.loss_and_gradients(w_plus, biases, x, y)
            lm, _, _ = ho.loss_and_gradients(w_minus, biases, x, y)
            worst = max(worst, abs((lp - lm) / (2 * step) - grad_w[layer][idx]))
        for j in range(biases[layer].shape[0]):
            b_plus = [b.copy() for b in biases]
            b_minus = [b.copy() for b in biases]
            b_plus[layer][j] += step
            b_minus[layer][j] -= step
            lp, _, _ = ho.loss_and_gradients(weights, b_plus, x, y)
            lm, _, _ = ho.loss_and_gradients(weights, b_minus, x, y)
            worst = max(worst, abs((lp - lm) / (2 * step) - grad_b[layer][j]))
    assert worst < 1e-6


def test_fit_mlp_learns_separable_toy():
    rng = np.random.default_rng(8)
    n = 200
    x = np.vstack([rng.normal(loc=(-2.0, -2.0), scale=0.3, size=(n // 2, 2)),
                   rng.normal(loc=(2.0, 2.0), scale=0.3, size=(n // 2, 2))])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    calib = ho.fit_mlp(x, y, seed=1)
    probs = ho.mlp_predict(calib, x[:, 0], x[:, 1])
    accuracy = float(np.mean((probs >= 0.5) == (y == 1.0)))
    assert accuracy >= 0.99
    assert calib.final_loss < 0.1


def test_fit_mlp_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 2))
    y = (x.sum(axis=1) > 0).astype(float)
    a = ho.fit_mlp(x, y, seed=7)
    b = ho.fit_mlp(x, y, seed=7)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = ho.fit_mlp(x, y, seed=8)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_fit_mlp_input_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ho.TrainingError):
        ho.fit_mlp(np.zeros((4, 3)), np.array([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ho.TrainingError):
        ho.fit_mlp(x, np.array([0.0, 1.0]))
    with pytest.raises(ho.TrainingError):
        ho.fit_mlp(x, np.array([0.0, 1.0, 0.5, 1.0]))
    with pytest.raises(ho.TrainingError):
        ho.fit_mlp(x, np.ones(4))


def test_mlp_predict_shapes_and_clipping():
    sizes = ho.LAYER_SIZES
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    biases[-1] = np.array([1000.0])
    calib = ho.MlpCalibrator(weights=weights, biases=biases)
    out = ho.mlp_predict(calib, 0.0, 0.0)
    assert isinstance(out, float)
    assert out == 1.0 - 1e-12
    arr = ho.mlp_predict(calib, np.zeros(3), np.zeros(3))
    assert arr.shape == (3,)


def reference_fit(x, y, seed):
    """Referee: a plain list-of-layers trainer with (N, n) activations and one bias add per layer."""
    weights, biases = ho._init_params(ho.LAYER_SIZES, np.random.default_rng(seed), ho.INIT_SCALE)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    y = y.reshape(-1, 1)
    for _ in range(ho.EPOCHS):
        activations = [x]
        for w, b in zip(weights[:-1], biases[:-1]):
            activations.append(np.tanh(activations[-1] @ w + b))
        logits = activations[-1] @ weights[-1] + biases[-1]
        loss = float(np.mean(np.maximum(logits, 0.0) - logits * y + np.log1p(np.exp(-np.abs(logits)))))
        probs = np.empty_like(logits)
        pos = logits >= 0
        probs[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
        probs[~pos] = np.exp(logits[~pos]) / (1.0 + np.exp(logits[~pos]))
        delta = (probs - y) / x.shape[0]
        grad_w, grad_b = [None] * len(weights), [None] * len(biases)
        for layer in range(len(weights) - 1, -1, -1):
            grad_w[layer] = activations[layer].T @ delta
            grad_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
        for i in range(len(weights)):
            vel_w[i] = ho.MOMENTUM * vel_w[i] - ho.LEARNING_RATE * grad_w[i]
            vel_b[i] = ho.MOMENTUM * vel_b[i] - ho.LEARNING_RATE * grad_b[i]
            weights[i] = weights[i] + vel_w[i]
            biases[i] = biases[i] + vel_b[i]
    return weights, biases, loss


def noisy_labels(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 2))
    return x, (x.sum(axis=1) + 0.5 * rng.standard_normal(n) > 0).astype(float)


@pytest.mark.parametrize("n", [66, 500], ids=lambda n: f"16-16-{n}")  # the hidden layers, then N
def test_fit_mlp_matches_reference_trainer(n):
    x, y = noisy_labels(n)
    calib = ho.fit_mlp(x, y, seed=3)
    weights, biases, loss = reference_fit(x, y, seed=3)
    for got, want in zip(calib.weights + calib.biases, weights + biases):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    assert calib.final_loss == pytest.approx(loss, rel=1e-12)

    again = ho.fit_mlp(x, y, seed=3)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(calib.weights + calib.biases, again.weights + again.biases))
    assert again.final_loss == calib.final_loss


def test_mlp_predict_is_the_sigmoid_of_the_trainers_logits(monkeypatch):
    # one forward pass: the trainer's logits on the fitted weights, captured from one zero-step
    # epoch, are the logits mlp_predict turns into probabilities, bit for bit
    x, y = noisy_labels(500)
    calib = ho.fit_mlp(x, y, seed=3)
    captured, forward = [], ho._forward

    def recording(*args):
        captured.append(forward(*args))
        return captured[-1]
    monkeypatch.setattr(ho, "_forward", recording)
    ho.loss_and_gradients(calib.weights, calib.biases, x, y)
    monkeypatch.undo()
    assert len(captured) == 1
    want = np.clip(ho._sigmoid(captured[0][0]), 1e-12, 1.0 - 1e-12)
    assert ho.mlp_predict(calib, x[:, 0], x[:, 1]).tobytes() == want.tobytes()


# --- posterior, kl1 and kl2 at large d against an mpmath reference ---

# (d, K, gallery kappa, temperature): the README's domain goes to d=512 and kappa 1e5
LARGE_D_CASES = [(128, 5, 300.0, 1.0), (128, 200, 1e5, 20.0), (512, 5, 1e5, 1.0), (512, 200, 3000.0, 20.0)]


def mp_log_c_d(mp, d, kappa):
    order = mp.mpf(d) / 2 - 1
    return order * mp.log(kappa) - mp.mpf(d) / 2 * mp.log(2 * mp.pi) - mp.log(mp.besseli(order, kappa))


def mp_reference(mp, model, z, kappa_x, temperature):
    """posterior, kl1 and kl2 of each probe straight from the formulas in kl_from_terms."""
    d, k = model.gallery.d, model.gallery.k
    beta, kappa, t = mp.mpf(model.beta), mp.mpf(model.kappa), mp.mpf(temperature)
    log_prior = mp.log((1 - beta) / k)
    log_c = mp_log_c_d(mp, d, kappa)
    log_oog = mp.log(beta) - (mp.log(2) + mp.mpf(d) / 2 * mp.log(mp.pi) - mp.loggamma(mp.mpf(d) / 2))
    means = [[mp.mpf(float(x)) for x in row] for row in model.gallery.means]
    out = []
    for row, kx in zip(z, kappa_x):
        zm = [mp.mpf(float(x)) for x in row]
        terms = [log_prior + log_c + kappa * mp.fdot(mu, zm) for mu in means] + [log_oog]
        log_marg = mp.log(mp.fsum(mp.exp(x) for x in terms))
        log_norm_t = mp.log(mp.fsum(mp.exp(x / t) for x in terms))
        log_post_t = [x / t - log_norm_t for x in terms[:-1]]
        kl1 = mp.fsum(mp.exp(lp) * (lp - log_prior) for lp in log_post_t)
        log_self = mp_log_c_d(mp, d, mp.mpf(float(kx))) + mp.mpf(float(kx))
        kl2 = mp.exp(log_oog - log_marg) * ((1 / t - 1) * log_oog + log_self - log_marg)
        out.append(([float(mp.exp(x - log_marg)) for x in terms], float(kl1), float(kl2)))
    return out


@pytest.mark.parametrize("d,k,kappa,temperature", LARGE_D_CASES)
def test_scores_at_large_d_match_an_mpmath_reference(d, k, kappa, temperature):
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(d + k)
    means = rng.standard_normal((k, d))
    model = ga.GalleryModel(ga.Gallery(tuple(f"c{i}" for i in range(k)), means / vmf.row_norms(means)[:, None]),
                            kappa=kappa, beta=0.5)
    tau = ga.equivalent_threshold(model)

    def at_cosine(mean, c):
        tangent = rng.standard_normal(d)
        tangent -= (tangent @ mean) * mean
        return c * mean + math.sqrt(1.0 - c * c) * tangent / np.linalg.norm(tangent)

    # probes at class 0's decision threshold and 3/kappa either side of it (posteriors
    # split between class 0 and out-of-gallery), one past class 1's, one far from every class
    z = np.array([at_cosine(model.gallery.means[0], tau + s / kappa) for s in (-3.0, 0.0, 3.0)]
                 + [at_cosine(model.gallery.means[1], tau + 10.0 / kappa), random_unit(rng, d)])
    kappa_x = np.array([16.0, 300.0, 4000.0, 1e5, 50.0])
    comps = ho.kl_components(model, z, kappa_x, temperature)
    posterior = ga.posterior(model, z)
    # fixed before any run: relative, floored at 1 (oracle._deviation's rule)
    deviation = lambda a, b: float(np.max(np.abs(np.asarray(a) - b) / np.maximum(1.0, np.abs(b))))
    with mp.workdps(60):
        reference = mp_reference(mp, model, z, kappa_x, temperature)
    for i, (post, kl1, kl2) in enumerate(reference):
        assert deviation(posterior[i], np.array(post)) <= 1e-9
        assert deviation(comps.kl1[i], kl1) <= 1e-9
        assert deviation(comps.kl2[i], kl2) <= 1e-9
