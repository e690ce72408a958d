import math

import numpy as np
import pytest

from osruq import gallery as ga
from osruq import holistic as ho
from osruq import oracle as orc
from osruq import vmf
from tests.conftest import random_model, random_unit


def test_quad_log_c_d_matches_engine():
    for d in (2, 3):
        for kappa in (0.0, 0.1, 1.0, 10.0, 100.0):
            q = orc.quad_log_c_d(d, kappa)
            assert q == pytest.approx(vmf.log_c_d(d, kappa), rel=1e-8)
    with pytest.raises(orc.OracleEnvelopeError):
        orc.quad_log_c_d(4, 1.0)


def test_independent_posterior_agrees(rng):
    for _ in range(25):
        model = random_model(rng, k=int(rng.integers(1, 10)), d=5, kappa_max=30.0)
        z = random_unit(rng, 5)
        ref = orc.independent_posterior(model, z)
        assert ref.shape == (model.gallery.k + 1,)
        np.testing.assert_allclose(ga.posterior(model, z), ref, atol=1e-9)


def test_independent_posterior_respects_envelope(rng):
    model = random_model(rng, k=2, d=5)
    big = ga.GalleryModel(gallery=model.gallery, kappa=500.0, beta=0.5)
    with pytest.raises(orc.OracleEnvelopeError):
        orc.independent_posterior(big, random_unit(rng, 5))


def test_independent_kl_components_agree(rng):
    for _ in range(25):
        model = random_model(rng, k=int(rng.integers(1, 8)), d=4, kappa_max=20.0)
        z, kappa = random_unit(rng, 4), float(rng.uniform(0.5, 30.0))
        ours = ho.kl_components(model, z, kappa, temperature=1.0)
        kl1_ref, kl2_ref = orc.independent_kl_components(model, z, kappa)
        assert ours.kl1 == pytest.approx(kl1_ref, abs=1e-10)
        assert ours.kl2 == pytest.approx(kl2_ref, abs=1e-10)


def test_mc_marginal_check_integrates_to_one(rng):
    model = random_model(rng, k=3, d=4, kappa_max=10.0)
    result = orc.mc_marginal_check(model, n=20000, seed=1)
    assert abs(result["estimate"] - 1.0) <= 3.0 * result["stderr"] + 1e-3
    with pytest.raises(ValueError):
        orc.mc_marginal_check(model, n=10)


def test_scopes_cover_all_checks():
    assert set(orc.SCOPES) == {"bessel", "quadrature", "marginal", "posterior",
                               "equivalence", "all"}
    names = set()
    for scope, check_names in orc.SCOPES.items():
        if scope != "all":
            names.update(check_names)
    assert set(orc.SCOPES["all"]) == names
    assert len(orc.SCOPES["all"]) == 8


def test_run_verification_all_passes():
    report = orc.run_verification("all", seed=0)
    assert report["passed"] is True
    assert report["scope"] == "all"
    assert report["seed"] == 0
    assert len(report["checks"]) == 8
    for check in report["checks"]:
        assert check["status"] == "pass"
        assert check["max_deviation"] <= check["tolerance"]
        assert math.isfinite(check["max_deviation"])


def test_run_verification_scoped():
    report = orc.run_verification("bessel", seed=3)
    assert [c["name"] for c in report["checks"]] == [
        "bessel_half_integer", "bessel_series_consistency"]
    assert report["passed"] is True
    with pytest.raises(ValueError):
        orc.run_verification("everything")


def test_verification_detects_injected_fault(monkeypatch):
    # corrupt the engine's normalizer; the independent checks must notice
    original = vmf.log_c_d

    def broken(d, kappa):
        return original(d, kappa) + 1e-3

    monkeypatch.setattr(vmf, "log_c_d", broken)
    report = orc.run_verification("quadrature", seed=0)
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert "normalizer_quadrature" in failed


def test_verification_detects_posterior_fault(monkeypatch):
    original = ga.posterior

    def skewed(model, z):
        probs = original(model, z).copy()
        probs[..., :-1] *= 0.99
        return probs / probs.sum(axis=-1, keepdims=True)

    monkeypatch.setattr(ga, "posterior", skewed)
    report = orc.run_verification("posterior", seed=0)
    assert report["passed"] is False


def test_half_integer_bessel_helpers():
    xs = np.array([0.01, 0.3, 0.5, 1.0, 5.0, 19.9, 20.0, 50.0, 700.0])
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh x / x)
    for x in xs[xs < 300]:
        expected_half = 0.5 * (math.log(2.0 / (math.pi * x))) + math.log(math.sinh(x))
        assert orc._log_i_half(np.array([x]))[0] == pytest.approx(expected_half, abs=1e-12)
    small = xs[(xs > 0.2) & (xs < 300)]
    for x in small:
        expected = 0.5 * math.log(2.0 / (math.pi * x)) + math.log(math.cosh(x) - math.sinh(x) / x)
        assert orc._log_i_three_halves(np.array([x]))[0] == pytest.approx(expected, rel=1e-10)
    # the large-x branch must stay finite where cosh overflows
    assert np.isfinite(orc._log_i_three_halves(np.array([700.0]))[0])


@pytest.mark.parametrize("options", [(2, 16, 128), (2, 3, 5, 8)])
def test_tuple_index_draws_equal_rng_choice(options):
    # the verification checks draw (...)[rng.integers(n)]; it must keep rng.choice's stream
    ours, theirs = np.random.default_rng(99), np.random.default_rng(99)
    for _ in range(10000):
        got = options[ours.integers(len(options))]
        assert type(got) is int and got == int(theirs.choice(list(options)))
        assert ours.uniform() == theirs.uniform()
