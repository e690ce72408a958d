"""Acceptance gate: one test per headline criterion, named so that
``pytest -v`` emits a single pass/fail line for each."""

import json
import math
import os
import time

import numpy as np
import pytest

from osruq import cli, oracle as orc, vmf
from osruq import evaluation as ev
from osruq import gallery as ga
from osruq import holistic as ho
from osruq import metrics as mt
from osruq import protocol as pr
from osruq.bundle import read_bundle, write_bundle
from tests.conftest import random_unit


def _fuzz_model(rng, k, d, kappa_range=(0.01, 1000.0)):
    means = rng.standard_normal((k, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    gallery = ga.Gallery(class_ids=tuple(f"c{i:03d}" for i in range(k)), means=means)
    log_lo, log_hi = math.log(kappa_range[0]), math.log(kappa_range[1])
    kappa = float(np.exp(rng.uniform(log_lo, log_hi)))
    beta = float(rng.uniform(0.05, 0.95))
    return ga.GalleryModel(gallery=gallery, kappa=kappa, beta=beta)


def test_criterion_1_decision_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    cases = 0
    for d in (2, 16, 128):
        for k in (1, 10, 100):
            for _ in range(28):
                model = _fuzz_model(rng, k, d)
                gal = model.gallery
                tau = ga.equivalent_threshold(model)
                for _ in range(40):
                    if rng.random() < 0.5:
                        center = gal.means[int(rng.integers(k))]
                        z = vmf.sample_vmf(vmf.VmfParams(center, 50.0), rng, 1)[0]
                    else:
                        z = random_unit(rng, d)
                    accepted = ga.decision_index(ga.posterior(model, z)) >= 0
                    threshold_accepts = float(np.max(gal.means @ z)) >= tau
                    assert accepted == threshold_accepts
                    cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 10_000
    assert elapsed < 10.0


def test_criterion_2_special_function_accuracy():
    for d in (2, 3):
        for kappa in (0.1, 1.0, 10.0, 100.0):
            ours = vmf.log_c_d(d, kappa)
            ref = orc.quad_log_c_d(d, kappa)
            assert abs(ours - ref) <= 1e-8 * max(1.0, abs(ref))
    xs = np.logspace(-2, 2, 41)
    half = np.array([vmf.log_bessel_i(0.5, float(x)) for x in xs])
    three_halves = np.array([vmf.log_bessel_i(1.5, float(x)) for x in xs])
    ref_half = orc._log_i_half(xs)
    ref_three = orc._log_i_three_halves(xs)
    assert float(np.max(np.abs(half - ref_half) / np.maximum(1.0, np.abs(ref_half)))) <= 1e-10
    assert float(np.max(np.abs(three_halves - ref_three) / np.maximum(1.0, np.abs(ref_three)))) <= 1e-10
    assert math.isfinite(vmf.log_c_d(512, 1e5))


def test_criterion_3_posterior_matches_oracle():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        k = int(rng.integers(1, orc.ENVELOPE["k_max"] + 1))
        d = int(rng.integers(2, orc.ENVELOPE["d_max"] + 1))
        model = _fuzz_model(rng, k, d, kappa_range=(0.01, orc.ENVELOPE["kappa_max"]))
        z = random_unit(rng, d)
        ours = ga.posterior(model, z)
        ref = orc.independent_posterior(model, z)
        assert float(np.max(np.abs(ours[:-1] - ref[:-1]))) <= 1e-9
        assert abs(ours[-1] - ref[-1]) <= 1e-9

    mean = np.array([1.0, 0.0, 0.0])
    model = ga.GalleryModel(
        gallery=ga.Gallery(class_ids=("c000",), means=mean[None, :]), kappa=1.0, beta=0.5)
    post = ga.posterior(model, mean)
    assert abs(post[0] - 0.69817) < 1e-5
    assert abs(post[-1] - 0.30183) < 1e-5


def test_criterion_4_tempered_components_reduce_at_t1():
    rng = np.random.default_rng(404)
    for _ in range(100):
        k = int(rng.integers(1, 12))
        d = int(rng.integers(2, 8))
        model = _fuzz_model(rng, k, d, kappa_range=(0.1, 40.0))
        z, kappa = random_unit(rng, d), float(rng.uniform(0.5, 40.0))
        ours = ho.kl_components(model, z, kappa, temperature=1.0)
        kl1_ref, kl2_ref = orc.independent_kl_components(model, z, kappa)
        assert abs(ours.kl1 - kl1_ref) <= 1e-10
        assert abs(ours.kl2 - kl2_ref) <= 1e-10

    mean = np.array([1.0, 0.0, 0.0])
    model = ga.GalleryModel(
        gallery=ga.Gallery(class_ids=("c000",), means=mean[None, :]), kappa=1.0, beta=0.5)
    comps = ho.kl_components(model, mean, 5.0, temperature=1.0)
    assert abs(comps.kl1 - 0.2331) < 1e-3
    assert abs(comps.kl2 - 0.5426) < 1e-3


def _synthetic_outcomes(n=2000, seed=555):
    """Outcome classes and probe ids of n synthetic decisions."""
    rng = np.random.default_rng(seed)
    mated, accepted, correct = np.zeros((3, n), dtype=bool)
    for i in range(n):
        mated[i] = rng.random() < 0.6
        accepted[i] = rng.random() < 0.75
        if mated[i] and accepted[i]:
            correct[i] = rng.random() < 0.9
    return mt.outcome_classes(mated, accepted, correct), [f"p{i:05d}" for i in range(n)]


def test_criterion_5_metric_definitions_and_reference_ratios():
    fpir, fnir, f1 = mt.osr_metrics(7, 3, 1, 4)
    assert fpir == 0.25
    assert fnir == pytest.approx(0.3, abs=1e-15)
    assert f1 == pytest.approx(0.777778, abs=1e-6)

    classes, ids = _synthetic_outcomes()
    oracle, rand = mt.reference_curve_sets(classes, ids, seed=0)
    oracle_curve, random_curve = oracle["F1"], rand["F1"]

    # a score that sorts errors first reproduces the oracle ordering exactly
    oracle_like = mt.rejection_curves(classes, mt.decision_correct(classes).astype(float), ids)["F1"]
    assert abs(mt.prr(oracle_like, random_curve, oracle_curve) - 1.0) <= 1e-9

    # fresh shuffled orderings (disjoint seed stream) score near zero on average
    ratios = []
    n = len(ids)
    for s in range(100):
        perm = np.random.default_rng([777, s]).permutation(n)
        ranks = np.empty(n)
        ranks[perm] = np.arange(n)
        curve = mt.rejection_curves(classes, ranks, ids)["F1"]
        ratios.append(mt.prr(curve, random_curve, oracle_curve))
    assert -0.05 <= float(np.mean(ratios)) <= 0.05


def test_criterion_6_gallery_ambiguity_scenario():
    start = time.perf_counter()
    proto = pr.generate_protocol(pr.preset_config("ambiguous"))
    report = ev.run_evaluation(proto, 0.1, methods=("AccScr", "SCF", "GalUE"))
    elapsed = time.perf_counter() - start
    galue = report.methods["GalUE"].prr
    scf = report.methods["SCF"].prr
    accscr = report.methods["AccScr"].prr
    assert galue >= scf + 0.2
    assert galue >= accscr
    assert elapsed < 60.0


def test_criterion_7_quality_degradation_scenario():
    start = time.perf_counter()
    proto = pr.generate_protocol(pr.preset_config("degraded"))
    report = ev.run_evaluation(proto, 0.1, methods=("SCF", "GalUE", "HolUE-sum"))
    elapsed = time.perf_counter() - start
    assert report.methods["HolUE-sum"].prr >= report.methods["GalUE"].prr
    # FNIR falls as bad probes are filtered, so a smaller area is better
    assert report.methods["SCF"].auc["FNIR"] < report.methods["GalUE"].auc["FNIR"]
    assert elapsed < 60.0


def test_criterion_8_mlp_calibration():
    # analytic gradients against central differences
    rng = np.random.default_rng(808)
    sizes = [2, 16, 16, 1]
    weights = [rng.uniform(-0.5, 0.5, size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.uniform(-0.5, 0.5, size=b) for b in sizes[1:]]
    x = rng.standard_normal((50, 2))
    y = (rng.random(50) < 0.5).astype(float)
    _, grad_w, grad_b = ho.loss_and_gradients(weights, biases, x, y)
    step = 1e-5
    worst = 0.0
    for layer in range(len(weights)):
        flat = list(np.ndindex(weights[layer].shape))
        for idx in flat:
            w_p = [w.copy() for w in weights]
            w_m = [w.copy() for w in weights]
            w_p[layer][idx] += step
            w_m[layer][idx] -= step
            lp, _, _ = ho.loss_and_gradients(w_p, biases, x, y)
            lm, _, _ = ho.loss_and_gradients(w_m, biases, x, y)
            numeric = (lp - lm) / (2 * step)
            worst = max(worst, abs(grad_w[layer][idx] - numeric) / max(1.0, abs(numeric)))
        for j in range(biases[layer].shape[0]):
            b_p = [b.copy() for b in biases]
            b_m = [b.copy() for b in biases]
            b_p[layer][j] += step
            b_m[layer][j] -= step
            lp, _, _ = ho.loss_and_gradients(weights, b_p, x, y)
            lm, _, _ = ho.loss_and_gradients(weights, b_m, x, y)
            numeric = (lp - lm) / (2 * step)
            worst = max(worst, abs(grad_b[layer][j] - numeric) / max(1.0, abs(numeric)))
    assert worst < 1e-6

    # linearly separable toy problem: correct iff the summed components are positive
    rng = np.random.default_rng(81)
    features = rng.standard_normal((200, 2))
    labels = (features.sum(axis=1) > 0).astype(float)
    calib = ho.fit_mlp(features, labels, seed=0)
    probs = ho.mlp_predict(calib, features[:, 0], features[:, 1])
    assert float(np.mean((probs >= 0.5) == (labels == 1.0))) >= 0.99

    # on mixed data the trained calibrator never falls materially below the sum
    proto = pr.generate_protocol(pr.preset_config("mixed"))
    report = ev.run_evaluation(proto, 0.1, methods=("HolUE", "HolUE-sum"))
    assert report.methods["HolUE"].prr >= report.methods["HolUE-sum"].prr - 0.02


def test_criterion_9_determinism_and_round_trips(tmp_path):
    config_path = os.path.join(tmp_path, "config.json")
    with open(config_path, "w") as fh:
        json.dump({"d": 8, "n_identities": 24, "oog_fraction": 0.3,
                   "samples_per_identity": [3, 5], "class_kappa": 100.0,
                   "quality_kappa_range": [5.0, 200.0], "ambiguity": 0.2,
                   "seed": 5, "val_fraction": 0.3}, fh)

    # identical seeds give byte-identical bundles
    bundle_a = os.path.join(tmp_path, "bundle_a")
    bundle_b = os.path.join(tmp_path, "bundle_b")
    assert cli.main(["gen", "--config", config_path, "--out", bundle_a]) == 0
    assert cli.main(["gen", "--config", config_path, "--out", bundle_b]) == 0
    for name in ("manifest.json", "records.jsonl"):
        with open(os.path.join(bundle_a, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(bundle_b, name), "rb") as fh:
            second = fh.read()
        assert first == second

    # write -> read -> write round trips byte-exactly
    bundle_c = os.path.join(tmp_path, "bundle_c")
    write_bundle(read_bundle(bundle_a), bundle_c)
    for name in ("manifest.json", "records.jsonl"):
        with open(os.path.join(bundle_a, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(bundle_c, name), "rb") as fh:
            second = fh.read()
        assert first == second

    # identical seeds give byte-identical evaluation reports
    eval_a = os.path.join(tmp_path, "eval_a")
    eval_b = os.path.join(tmp_path, "eval_b")
    args = ["--fpir", "0.2", "--methods", "AccScr,GalUE,HolUE-sum", "--seed", "1"]
    assert cli.main(["eval", "--bundle", bundle_a, "--out", eval_a] + args) == 0
    assert cli.main(["eval", "--bundle", bundle_a, "--out", eval_b] + args) == 0
    with open(os.path.join(eval_a, "report.json"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(eval_b, "report.json"), "rb") as fh:
        second = fh.read()
    assert first == second

    # concentration round trip at the reference operating point
    rng = np.random.default_rng(2)
    means = rng.standard_normal((50, 16))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    gallery = ga.Gallery(class_ids=tuple(f"c{i:03d}" for i in range(50)), means=means)
    model = ga.GalleryModel(gallery=gallery, kappa=100.0, beta=0.5)
    tau = ga.equivalent_threshold(model)
    kappa = ga.kappa_for_threshold(tau, beta=0.5, k=50, d=16)
    assert abs(kappa - 100.0) / 100.0 <= 1e-4
