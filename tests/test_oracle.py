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
    for d in (1, 2.5):
        with pytest.raises(ValueError, match=r"dimension must be an integer >= 2"):
            orc.quad_log_c_d(d, 1.0)


def _mp_log_c_d(d, kappa):
    # closed forms: C_2 = 1 / (2 pi I_0(kappa)), C_3 = kappa / (4 pi sinh kappa), both kept e^-kappa-scaled;
    # from d = 4 on, log C_d = (n - 1) log kappa - n log 2 pi - log I_{n-1}(kappa), n = d/2, and -log S^{d-1} at 0
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        k = mp.mpf(kappa)
        if d == 2:
            return float(-k - mp.log(2 * mp.pi * mp.exp(-k) * mp.besseli(0, k)))
        if d > 3:
            n = mp.mpf(d) / 2
            if k == 0:
                return float(mp.loggamma(n) - mp.log(2 * mp.pi ** n))
            return float((n - 1) * mp.log(k) - n * mp.log(2 * mp.pi) - mp.log(mp.besseli(n - 1, k)))
        if k == 0:
            return float(-mp.log(4 * mp.pi))
        return float(-k - mp.log(2 * mp.pi * (1 - mp.exp(-2 * k)) / k))


@pytest.mark.parametrize("d", (2, 3, 4, 16, 128, 512))
def test_quad_log_c_d_matches_mpmath(d):
    # past the README's 1e5 the bound mostly checks that the quadrature finds the narrow peak near t = 0
    # at all, and at 1.7e308 that the kappa term overflows to a zero integrand without a warning
    for kappa in (0.0, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e8, 1e300, 1.7e308):
        assert orc.quad_log_c_d(d, kappa) == pytest.approx(_mp_log_c_d(d, kappa), rel=1e-13), kappa


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
    with pytest.raises(ValueError, match="outside oracle envelope"):
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
    result = orc.mc_marginal_check(model, seed=1)
    assert abs(result["estimate"] - 1.0) <= 3.0 * result["stderr"] + 1e-3


def test_scopes_cover_all_checks():
    # each scope reports exactly its slice of "all", in the same order; the eight names are distinct
    assert list(orc.SCOPES) == ["bessel", "quadrature", "marginal", "posterior", "equivalence", "all"]
    names = [c["name"] for c in orc.run_verification("all", seed=1)["checks"]]
    assert len(set(names)) == len(names) == 8
    start = 0
    for scope in list(orc.SCOPES)[:-1]:
        scoped = [c["name"] for c in orc.run_verification(scope, seed=1)["checks"]]
        assert scoped and scoped == names[start:start + len(scoped)], scope
        start += len(scoped)
    assert start == len(names)


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
        "bessel_half_integer", "bessel_quadrature_reference"]
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


@pytest.mark.parametrize("branch", ["series", "hankel", "debye"])
def test_bessel_quadrature_reference_catches_a_slip_in_each_branch(monkeypatch, branch):
    # a 1e-10 relative slip confined to one of log_bessel_i's three expansions fails the check
    original = vmf.log_bessel_i

    def slipped(order, x):
        x = np.asarray(x, dtype=np.float64)
        above, large_order = x > vmf._bessel_plan(float(order))[0], order >= vmf._DEBYE_ORDER
        hit = {"series": ~above, "hankel": above & (not large_order), "debye": above & large_order}[branch]
        return original(order, x) * np.where(hit, 1.0 + 1e-10, 1.0)

    monkeypatch.setattr(vmf, "log_bessel_i", slipped)
    result = orc._check_bessel_quadrature_reference(0)
    assert result["max_deviation"] > result["tolerance"]


@pytest.mark.parametrize("order, x", [(255.0, 1e-3), (127.5, 1e-2), (255.0, 1.0), (127.5, 1e-3)])
def test_bessel_quadrature_reference_matches_mpmath_where_ive_underflows(order, x):
    # scipy's e^-x-scaled I underflows to 0 at these points, so a check built on it had to skip them
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        want = float(mp.log(mp.besseli(order, x)))
    assert want < math.log(np.finfo(np.float64).tiny)
    assert orc._log_bessel_quadrature(order, x) == pytest.approx(want, rel=1e-14)
    assert vmf.log_bessel_i(order, x) == pytest.approx(want, rel=1e-13)


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


def _twin_cases(rng, cases, dims, ks, log_kappa_max):
    # the column order written out: every case's d index, K index, log kappa and beta; then for each
    # (d, K) in sorted order, blocks of at most 2**15 // (K d) cases, each drawing its means then its probes
    d_at = np.array(dims)[rng.integers(len(dims), size=cases)]
    k_at = np.array(ks)[rng.integers(len(ks), size=cases)]
    kappas = np.exp(rng.uniform(np.log(1e-2), log_kappa_max, size=cases))
    betas = rng.uniform(0.05, 0.95, size=cases)
    for d, k in sorted(set(zip(d_at.tolist(), k_at.tolist()))):
        group = np.flatnonzero((d_at == d) & (k_at == k))
        step = max(1, 2**15 // (k * d))
        for start in range(0, group.size, step):
            block = group[start:start + step]
            means = vmf._unit_rows(rng.standard_normal((block.size * k, d)), rng)
            probes = vmf._unit_rows(rng.standard_normal((block.size, d)), rng)
            for j, case in enumerate(block):
                yield float(kappas[case]), float(betas[case]), means[j * k:(j + 1) * k], probes[j]


@pytest.mark.parametrize("cases, dims, ks, log_kappa_max", [
    (200, (2, 3, 5, 8), range(1, 21), np.log(50.0)),  # the posterior scope's grid: one block per group
    (60, (2, 16, 128), (1, 10, 100), np.log(1e3)),  # the equivalence grid: d=128, K=100 takes blocks of 2
], ids=["posterior-grid", "equivalence-grid"])
def test_random_cases_draw_by_column(cases, dims, ks, log_kappa_max):
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    got = list(orc._random_cases(ours, cases, dims, ks, log_kappa_max))
    want = list(_twin_cases(theirs, cases, dims, ks, log_kappa_max))
    assert len(got) == len(want) == cases
    for (model, z), (kappa, beta, means, probe) in zip(got, want):
        k = means.shape[0]
        assert (model.kappa, model.beta, model.gallery.class_ids) == (kappa, beta, tuple(f"c{i}" for i in range(k)))
        np.testing.assert_array_equal(model.gallery.means, means)
        np.testing.assert_array_equal(z, probe)
    assert ours.uniform() == theirs.uniform()


class _RecordingRng:
    """Passes every call to a real Generator and notes the size of each array it returns."""

    def __init__(self, rng):
        self._rng, self.sizes = rng, []

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.sizes.append(np.size(out))
            return out
        return recorded


def test_random_cases_draw_no_block_past_the_cap():
    # the equivalence grid's d=128, K=100 cases hold 12,800 mean entries each; unblocked, the group
    # of about 33 cases would be one 420,000-entry draw
    rng = _RecordingRng(np.random.default_rng(3))
    for _ in orc._random_cases(rng, 300, dims=(2, 16, 128), ks=(1, 10, 100), log_kappa_max=np.log(1e3)):
        pass
    assert max(rng.sizes) <= ga._BLOCK_ELEMENTS == 2**15
    assert sum(rng.sizes) > 10 * ga._BLOCK_ELEMENTS


@pytest.mark.parametrize("scope", ["bessel", "marginal"])
@pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
def test_verification_seed_must_be_an_integer(scope, seed):
    # "bessel" wrote a float seed as "seed": 1, and "marginal" raised a TypeError from numpy
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        orc.run_verification(scope, seed=seed)


def test_verification_takes_a_numpy_integer_seed():
    report = orc.run_verification("bessel", seed=np.int64(3))
    assert report["seed"] == 3 and type(report["seed"]) is int


def test_marginal_mc_fails_at_seed_330_and_passes_at_seed_0():
    # a 3-sigma test fails on about 0.35% of seeds with no fault in the code; the README names seed 330
    assert orc.run_verification("marginal", seed=330)["passed"] is False
    assert orc.run_verification("marginal", seed=0)["passed"] is True


@pytest.mark.parametrize("seed", range(10))
def test_random_case_scopes_pass_across_seeds(seed):
    for scope in ("posterior", "equivalence"):
        report = orc.run_verification(scope, seed=seed)
        assert report["passed"] is True, report["checks"]


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0, 0.0])
def test_independent_kl_components_rejects_a_kappa_the_engine_rejects(rng, kappa):
    model, z = random_model(rng, k=3, d=4), random_unit(rng, 4)
    with pytest.raises(ValueError, match="finite and > 0"):
        ho.kl_components(model, z, kappa, temperature=1.0)
    with pytest.raises(ValueError, match="finite and > 0"):
        orc.independent_kl_components(model, z, kappa)


def test_oracle_twins_reject_a_probe_the_engine_rejects(rng):
    model, z = random_model(rng, k=3, d=5), random_unit(rng, 5)
    twins = (lambda v: orc.independent_posterior(model, v), lambda v: orc.independent_kl_components(model, v, 2.0))
    for bad, message in ((2.0 * z, "not unit vectors"), (random_unit(rng, 3), r"d=5, got z of shape \(3,\)")):
        with pytest.raises(ValueError):
            ga.posterior(model, bad)
        for twin in twins:
            with pytest.raises(ValueError, match=message):
                twin(bad)
    # the twins take one probe: a stack is an error, where the engine would score each row
    for twin in twins:
        with pytest.raises(ValueError, match="one probe"):
            twin(np.stack([z, z]))
