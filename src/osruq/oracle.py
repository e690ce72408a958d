"""Independent re-derivations used to cross-check the main implementations.

Everything here deliberately avoids the log-domain code paths of the engine:
normalizers come from 1-d quadrature, posteriors and KL components are
recomputed in plain linear arithmetic inside a restricted parameter envelope,
and the mixture marginal is checked statistically. The returned verification
report feeds the verify CLI command.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import iv

from . import vmf
from . import gallery as gallery_mod
from . import holistic as holistic_mod
from .gallery import Gallery, GalleryModel

# Linear-domain oracles are only trustworthy where nothing can overflow.
ENVELOPE = {"d_max": 8, "kappa_max": 50.0, "k_max": 20}


class OracleEnvelopeError(ValueError):
    """Parameters outside the domain where the linear oracle is reliable."""


def _check_envelope(d: int, kappa: float, k: int = 1):
    if d > ENVELOPE["d_max"] or kappa > ENVELOPE["kappa_max"] or k > ENVELOPE["k_max"]:
        raise OracleEnvelopeError(
            f"(d={d}, kappa={kappa}, K={k}) outside oracle envelope {ENVELOPE}"
        )


def quad_log_c_d(d: int, kappa: float) -> float:
    """log normalizer from adaptive quadrature over the polar angle (d in {2, 3}).

    Integrates exp(kappa (cos t - 1)) against the angular weight and shifts by
    kappa afterwards, so large concentrations cannot overflow.
    """
    if d not in (2, 3):
        raise OracleEnvelopeError(f"quadrature oracle supports d in {{2, 3}}, got {d}")
    kappa = float(kappa)
    if not np.isfinite(kappa) or kappa < 0.0:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa!r}")
    if d == 2:
        integrand = lambda t: math.exp(kappa * (math.cos(t) - 1.0))
    else:
        integrand = lambda t: math.exp(kappa * (math.cos(t) - 1.0)) * 2.0 * math.pi * math.sin(t)
    lo, hi = (0.0, 2.0 * math.pi) if d == 2 else (0.0, math.pi)
    # a local import: scipy.integrate loads scipy.optimize and scipy.sparse, which gen and eval never use
    from scipy.integrate import quad
    total, _ = quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)
    return -(kappa + math.log(total))


def _surface_area(d: int) -> float:
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def _linear_c(d: int, kappa: float) -> float:
    if kappa == 0.0:
        return 1.0 / _surface_area(d)
    n = 0.5 * d
    return kappa ** (n - 1.0) / ((2.0 * math.pi) ** n * float(iv(n - 1.0, kappa)))


def _linear_posterior(model: GalleryModel, z: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(K,) class posteriors, the out-of-gallery posterior and the marginal density at z,
    from direct exponentials."""
    gal = model.gallery
    c = _linear_c(gal.d, model.kappa)
    s = _surface_area(gal.d)
    prior = (1.0 - model.beta) / gal.k
    lik = np.array([c * math.exp(model.kappa * float(mu @ z)) for mu in gal.means])
    marginal = prior * float(np.sum(lik)) + model.beta / s
    return prior * lik / marginal, (model.beta / s) / marginal, marginal


def independent_posterior(model: GalleryModel, z) -> np.ndarray:
    """Linear-domain twin of the gallery posterior (restricted envelope): (K+1,), out-of-gallery last."""
    gal = model.gallery
    _check_envelope(gal.d, model.kappa, gal.k)
    post, oog, _ = _linear_posterior(model, np.asarray(z, dtype=np.float64))
    return np.append(post, oog)


def independent_kl_components(model: GalleryModel, z, kappa: float) -> tuple[float, float]:
    """Unscaled (T=1) KL components of a probe (mean z, concentration kappa) in linear arithmetic."""
    gal = model.gallery
    kappa = float(kappa)
    _check_envelope(gal.d, max(model.kappa, kappa), gal.k)
    post, oog, marginal = _linear_posterior(model, np.asarray(z, dtype=np.float64))
    prior = (1.0 - model.beta) / gal.k
    kl1 = float(sum(p * math.log(p / prior) for p in post if p > 0.0))
    self_density = _linear_c(gal.d, kappa) * math.exp(kappa)
    kl2 = oog * math.log(self_density / marginal)
    return kl1, float(kl2)


MC_SAMPLES = 20000  # draws of mc_marginal_check


def mc_marginal_check(model: GalleryModel, seed: int = 0) -> dict:
    """Importance-style normalization check of the engine marginal.

    Draws MC_SAMPLES probes from the generative mixture and averages uniform_density /
    marginal_density; the expectation is exactly 1 when the engine marginal
    integrates to 1. Returns the estimate and its standard error; the verify
    check passes within three standard errors.
    """
    rng = np.random.default_rng(seed)
    gal = model.gallery
    branch = rng.uniform(size=MC_SAMPLES)
    points = np.empty((MC_SAMPLES, gal.d))
    oog = branch < model.beta
    n_oog = int(oog.sum())
    if n_oog:
        points[oog] = vmf._unit_rows(rng.standard_normal((n_oog, gal.d)), rng)
    idx_in = np.flatnonzero(~oog)
    classes = rng.integers(0, gal.k, size=idx_in.size)
    for cls in range(gal.k):
        rows = idx_in[classes == cls]
        if rows.size:
            params = vmf.VmfParams(gal.means[cls], model.kappa)
            points[rows] = vmf.sample_vmf(params, rng, rows.size)
    log_s = vmf.log_surface_area(gal.d)
    ratios = np.exp(-log_s - np.concatenate([gallery_mod.log_marginal(model, points[rows])
                                             for rows in gallery_mod.row_blocks(MC_SAMPLES, gal.k)]))
    return {"estimate": float(np.mean(ratios)), "stderr": float(np.std(ratios, ddof=1) / math.sqrt(MC_SAMPLES))}


# stable closed forms for half-integer orders, used by the verify command

def _log_i_half(x: np.ndarray) -> np.ndarray:
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
    return 0.5 * (np.log(2.0) - np.log(np.pi) - np.log(x)) + x + np.log1p(-np.exp(-2.0 * x)) - np.log(2.0)


def _log_i_three_halves(x: np.ndarray) -> np.ndarray:
    # I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh x / x); the bracket is
    # evaluated by series for small x to dodge the cancellation and in the
    # log domain for large x where cosh overflows.
    x = np.asarray(x, dtype=np.float64)
    log_bracket = np.empty_like(x)
    small = x < 0.5
    large = x >= 20.0
    mid = ~small & ~large
    xs = x[small]
    x2 = xs * xs
    # cosh x - sinh x / x = sum_{k>=1} x^{2k} (2k)/(2k+1)!; successive term
    # ratios are x^2/10, x^2/28, x^2/54, x^2/88
    series = x2 / 3.0 * (1.0 + x2 / 10.0 * (1.0 + x2 / 28.0 * (
        1.0 + x2 / 54.0 * (1.0 + x2 / 88.0))))
    log_bracket[small] = np.log(series)
    xm = x[mid]
    log_bracket[mid] = np.log(np.cosh(xm) - np.sinh(xm) / xm)
    xl = x[large]
    log_bracket[large] = xl - np.log(2.0) + np.log1p(-1.0 / xl + np.exp(-2.0 * xl) * (1.0 + 1.0 / xl))
    return 0.5 * (np.log(2.0) - np.log(np.pi) - np.log(x)) + log_bracket


def _deviation(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


# every check takes the seed; the four deterministic ones ignore it

def _check_bessel_half_integer(seed: int) -> dict:
    x = np.logspace(-3, 3, 121)
    dev = float(np.max([
        _deviation(vmf.log_bessel_i(0.5, x), _log_i_half(x)),
        _deviation(vmf.log_bessel_i(1.5, x), _log_i_three_halves(x)),
    ]))
    return {"name": "bessel_half_integer", "max_deviation": dev, "tolerance": 1e-10}


def _check_bessel_series_consistency(seed: int) -> dict:
    # both the scaled-Bessel path and the power series are valid here
    dev = 0.0
    for order in (2.0, 17.0, 50.0, 127.5):
        x = np.linspace(0.5, order + 10.0, 40)
        direct = vmf.log_bessel_i(order, x)
        series = vmf._log_bessel_series(order, x)
        dev = max(dev, _deviation(direct, series))
    return {"name": "bessel_series_consistency", "max_deviation": dev, "tolerance": 1e-11}


def _check_normalizer_quadrature(seed: int) -> dict:
    dev = 0.0
    for d in (2, 3):
        for kappa in (0.1, 1.0, 10.0, 100.0):
            dev = max(dev, _deviation(vmf.log_c_d(d, kappa), quad_log_c_d(d, kappa)))
    return {"name": "normalizer_quadrature", "max_deviation": dev, "tolerance": 1e-8}


def _check_normalizer_identity(seed: int) -> dict:
    dev = 0.0
    for d in (2, 3, 8, 64, 256, 512):
        log_s = vmf.log_surface_area(d)
        for kappa in (0.0, 1e-3, 1.0, 100.0, 1e4, 1e5):
            resid = vmf.log_alpha(d, kappa) + log_s + vmf.log_c_d(d, kappa)
            dev = max(dev, abs(float(resid)))
    return {"name": "normalizer_identity", "max_deviation": dev, "tolerance": 1e-10}


@functools.cache
def _class_ids(k: int) -> tuple:
    return tuple(f"c{i}" for i in range(k))


# concentrations are drawn log-uniform on [1e-2, kappa_max]
_LOG_KAPPA_MIN, _LOG_KAPPA_MAX = np.log(1e-2), np.log(ENVELOPE["kappa_max"])


def _random_model(rng: np.random.Generator, d: int, k: int, log_kappa_max: float) -> GalleryModel:
    means = vmf._unit_rows(rng.standard_normal((k, d)), rng)
    kappa = float(np.exp(rng.uniform(_LOG_KAPPA_MIN, log_kappa_max)))
    beta = float(rng.uniform(0.05, 0.95))
    return GalleryModel(gallery=Gallery(class_ids=_class_ids(k), means=means), kappa=kappa, beta=beta)


def _random_cases(rng: np.random.Generator, cases: int, dims=(2, 3, 5, 8),
                  ks=range(1, ENVELOPE["k_max"] + 1), log_kappa_max: float = _LOG_KAPPA_MAX):
    """(model, unit probe) pairs, by default inside the envelope; each case draws d from dims,
    K from ks, the model, then the probe. (...)[rng.integers(n)] takes rng.choice's draws.
    The caller may draw from rng between cases."""
    for _ in range(cases):
        d = dims[rng.integers(len(dims))]
        model = _random_model(rng, d, ks[rng.integers(len(ks))], log_kappa_max)
        yield model, vmf._unit_rows(rng.standard_normal((1, d)), rng)[0]


def _check_marginal_mc(seed: int) -> dict:
    worst = None
    for i, (d, k, kappa) in enumerate([(3, 5, 20.0), (8, 3, 5.0)]):
        rng = np.random.default_rng([seed, 101, i])
        model = _random_model(rng, d, k, np.log(kappa))
        res = mc_marginal_check(model, seed=int(rng.integers(2**31)))
        dev = abs(res["estimate"] - 1.0) / (3.0 * res["stderr"])
        if worst is None or dev > worst["max_deviation"]:
            worst = {"name": "marginal_mc", "max_deviation": dev, "tolerance": 1.0,
                     "estimate": res["estimate"], "stderr": res["stderr"]}
    return worst


def _check_posterior_linear(seed: int) -> dict:
    dev = 0.0
    for model, z in _random_cases(np.random.default_rng([seed, 202]), 1000):
        ours, ref = gallery_mod.posterior(model, z), independent_posterior(model, z)
        dev = max(dev, float(np.max(np.abs(ours - ref))))
    return {"name": "posterior_linear", "max_deviation": dev, "tolerance": 1e-9}


def _check_kl_t1_linear(seed: int) -> dict:
    rng = np.random.default_rng([seed, 303])
    dev = 0.0
    for model, z in _random_cases(rng, 200):
        kappa = float(np.exp(rng.uniform(_LOG_KAPPA_MIN, _LOG_KAPPA_MAX)))
        comp = holistic_mod.kl_components(model, z, kappa, temperature=1.0)
        ref1, ref2 = independent_kl_components(model, z, kappa)
        dev = max(dev, abs(comp.kl1 - ref1), abs(comp.kl2 - ref2))
    return {"name": "kl_t1_linear", "max_deviation": dev, "tolerance": 1e-10}


def _check_decision_equivalence(seed: int) -> dict:
    disagreements = 0
    rng = np.random.default_rng([seed, 404])
    for model, z in _random_cases(rng, 2000, dims=(2, 16, 128), ks=(1, 10, 100), log_kappa_max=np.log(1e3)):
        decided = int(gallery_mod.decision_index(gallery_mod.posterior(model, z)))
        tau = gallery_mod.equivalent_threshold(model)
        best = int(np.argmax(model.gallery.means @ z))
        # the threshold rule accepts the best-cosine class or rejects (-1)
        disagreements += decided != (best if float(model.gallery.means[best] @ z) >= tau else -1)
    return {"name": "decision_equivalence", "max_deviation": float(disagreements), "tolerance": 0.0}


# scope -> its checks; "all" runs every scope's checks in this order
SCOPES = {
    "bessel": (_check_bessel_half_integer, _check_bessel_series_consistency),
    "quadrature": (_check_normalizer_quadrature, _check_normalizer_identity),
    "marginal": (_check_marginal_mc,),
    "posterior": (_check_posterior_linear, _check_kl_t1_linear),
    "equivalence": (_check_decision_equivalence,),
}
SCOPES["all"] = tuple(check for checks in SCOPES.values() for check in checks)


def run_verification(scope: str = "all", seed: int = 0) -> dict:
    """Run the requested independent checks and report pass/fail per check."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; available: {sorted(SCOPES)}")
    if not seed >= 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    checks = []
    for check in SCOPES[scope]:
        result = check(seed)
        result["status"] = "pass" if result["max_deviation"] <= result["tolerance"] else "fail"
        checks.append(result)
    return {
        "scope": scope,
        "seed": int(seed),
        "passed": all(c["status"] == "pass" for c in checks),
        "checks": checks,
    }
